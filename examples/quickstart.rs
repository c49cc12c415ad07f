//! Quickstart: run the PBFT substrate with its static policy over a
//! simulated European deployment, then inspect throughput and latency.
//!
//! Run with: `cargo run --example quickstart`

use lab::harness::run;
use netsim::{CityDataset, Duration, FaultPlan, MatrixLatency, SimTime};
use pbft::{PbftConfig, StaticPolicy};
use rsm::{timeline_mean, TrafficSpec};
use traffic::SharedTrafficQueue;

fn main() {
    // 1. Build a latency matrix for 7 replicas placed in European cities.
    let cities = CityDataset::worldwide();
    let subset = cities.europe21();
    let n = 7;
    let assignment = cities.assign_round_robin(&subset, n);
    let mut rtt = vec![0.0; n * n];
    for a in 0..n {
        for b in 0..n {
            rtt[a * n + b] = cities.rtt_ms(assignment[a], assignment[b]);
        }
    }

    // 2. The offered load: Poisson arrivals at 200 commands/s from four
    //    clients, each 1 ms from its nearest replica, batched by the
    //    leader-side queue at 100 commands or 25 ms.
    let clients = 4;
    let load = TrafficSpec::poisson(200.0)
        .with_clients(clients)
        .with_batching(100, Duration::from_millis(25));
    let queue = SharedTrafficQueue::generate(&load, &vec![1.0; clients], 1, SimTime::from_secs(20));

    // 3. Describe the cluster — 7 replicas with the static policy proposing
    //    from that queue, 20 virtual seconds — and run it through the one
    //    simulation harness. (The same `rsm::Cluster` value is what
    //    `deployd::run_on` launches on sockets.)
    let config = PbftConfig::new(n, 2, queue.clone(), |_| Box::new(StaticPolicy))
        .run_for(Duration::from_secs(20));
    let (report, _events) = run(
        &config,
        Box::new(MatrixLatency::from_rtt_millis(n, &rtt)),
        FaultPlan::none(),
    );

    println!("== consensus summary ==");
    println!("{}", report.summary.render("pbft / europe (n=7)"));
    let seen = queue.report(20);
    println!(
        "client latency (steady state): {:.1} ms",
        timeline_mean(&seen.e2e_timeline, 2.0, 20.0)
    );
    println!(
        "{} of {} requests committed, e2e p50 {:.1} ms, p99 {:.1} ms",
        seen.committed, seen.offered, seen.e2e_p50_ms, seen.e2e_p99_ms
    );
}

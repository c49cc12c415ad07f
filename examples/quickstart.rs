//! Quickstart: run the PBFT substrate with its static policy over a
//! simulated European deployment, then inspect throughput and latency.
//!
//! Run with: `cargo run --example quickstart`

use lab::harness::{colocated_latency, run};
use netsim::{CityDataset, Duration, FaultPlan};
use pbft::{PbftConfig, StaticPolicy};

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

    // 2. Describe the cluster — 7 replicas with the static policy, four
    //    co-located clients issuing requests in a closed loop, 20 virtual
    //    seconds — and run it through the one simulation harness. (The same
    //    `rsm::Cluster` value is what `deployd::run_on` launches on sockets.)
    let clients = 4;
    let config = PbftConfig::new(n, 2, clients, |_| Box::new(StaticPolicy))
        .run_for(Duration::from_secs(20));
    let (report, _events) = run(
        &config,
        Box::new(colocated_latency(&rtt, n, clients)),
        FaultPlan::none(),
    );

    println!("== consensus summary ==");
    println!("{}", report.summary.render("pbft / europe (n=7)"));
    println!(
        "client latency (steady state): {:.1} ms",
        report.roles.mean_client_latency(2.0, 20.0)
    );
    for (i, done) in report.roles.client_completed.iter().enumerate() {
        println!("client {i}: {done} requests completed");
    }
}

//! The Fig 7 scenario in miniature: a Byzantine leader delays its proposals;
//! Aware keeps suffering while OptiAware's suspicion pipeline detects the
//! attack and reassigns the leader role.
//!
//! Run with: `cargo run --example delay_attack`

use lab::harness::run;
use netsim::{Duration, FaultPlan, MatrixLatency, SimTime};
use optiaware::OptiAwarePolicy;
use pbft::{PbftConfig, ReconfigPolicy};
use rsm::{timeline_mean, TrafficSpec};
use traffic::SharedTrafficQueue;

fn main() {
    let n = 7;
    let f = 2;
    // Replica 0 sits in a well-connected position (it will be chosen as the
    // optimised leader) but turns malicious halfway through the run. The
    // fast cluster holds six of the seven replicas: after OptiAware excises
    // the attacker, a full quorum (2f + 1 = 5) of fast replicas remains, so
    // recovery reaches the Fig 7 optimum (~60 ms) instead of being dragged
    // to a 140 ms replica the way a 4-strong cluster was.
    let mut rtt = vec![0.0; n * n];
    for a in 0..n {
        for b in 0..n {
            if a != b {
                let fast = a < 6 && b < 6;
                rtt[a * n + b] = if fast { 20.0 } else { 140.0 };
            }
        }
    }
    let attack_start = SimTime::from_secs(40);
    let optimize_after = SimTime::from_secs(15);
    let run_for = Duration::from_secs(90);

    // Open-loop load at 100 commands/s from four clients 1 ms from their
    // replica: below what the attacked leader still commits, so its latency
    // shows the hold rather than a growing queue.
    let load = TrafficSpec::poisson(100.0)
        .with_clients(4)
        .with_batching(100, Duration::from_millis(25));

    let run_system = |name: &str, factory: &dyn Fn(usize) -> Box<dyn ReconfigPolicy>| {
        let queue = SharedTrafficQueue::generate(&load, &[1.0; 4], 1, SimTime::ZERO + run_for);
        let mut config = PbftConfig::new(n, f, queue.clone(), factory).run_for(run_for);
        // The attack is a protocol-level behaviour on the cluster's
        // misbehavior plan — the same carrier HotStuff and the trees use.
        config.misbehavior.delay_proposals_during(
            0,
            Duration::from_millis(400),
            attack_start,
            SimTime::MAX,
        );
        let (report, _events) = run(
            &config,
            Box::new(MatrixLatency::from_rtt_millis(n, &rtt)),
            FaultPlan::none(),
        );
        let e2e = queue.report(run_for.as_micros() / 1_000_000).e2e_timeline;
        let recovered = timeline_mean(&e2e, 70.0, 90.0);
        println!(
            "{name:<10}  optimized {:>7.1} ms   under attack {:>7.1} ms   after recovery {:>7.1} ms   reconfigs {:?}",
            timeline_mean(&e2e, 20.0, 40.0),
            timeline_mean(&e2e, 42.0, 60.0),
            recovered,
            report.roles.reconfigurations,
        );
        recovered
    };

    println!("== Pre-Prepare delay attack at t=40s (delay 400 ms) ==");
    let aware = run_system("Aware", &|_| {
        Box::new(OptiAwarePolicy::aware(n, f, optimize_after)) as Box<dyn ReconfigPolicy>
    });
    let opti = run_system("OptiAware", &|id| {
        Box::new(OptiAwarePolicy::new(id, n, f, optimize_after)) as Box<dyn ReconfigPolicy>
    });
    println!("OptiAware reconfigures away from replica 0 and recovers the fast-cluster");
    println!("optimum; Aware has no suspicion mechanism and stays degraded.");
    assert!(
        opti < 100.0,
        "OptiAware should recover to the Fig 7 optimum (~60 ms), got {opti:.1} ms"
    );
    assert!(
        aware > 400.0,
        "Aware should stay degraded under the 400 ms delay, got {aware:.1} ms"
    );
}

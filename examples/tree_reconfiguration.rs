//! OptiTree recovering from a crashed tree root: the Fig 15 scenario.
//!
//! Run with: `cargo run --example tree_reconfiguration`

use kauri::{KauriCluster, KauriConfig, TreePolicy};
use lab::harness::run;
use netsim::{CityDataset, Duration, FaultPlan, MatrixLatency, SimTime};
use optitree::OptiTreePolicy;
use rsm::SystemConfig;

fn main() {
    let n = 21;
    let system = SystemConfig::new(n);
    let cities = CityDataset::worldwide();
    let subset = cities.europe21();
    let assignment = cities.assign_round_robin(&subset, n);
    let mut rtt = vec![0.0; n * n];
    for a in 0..n {
        for b in 0..n {
            rtt[a * n + b] = cities.rtt_ms(assignment[a], assignment[b]);
        }
    }

    // Find which replica OptiTree picks as the first root, then crash it
    // 15 seconds into the run.
    let first_root = OptiTreePolicy::new(system, rtt.clone(), 7)
        .next_tree(n, system.tree_branch_factor())
        .root;
    let mut faults = FaultPlan::none();
    faults.crash(first_root, SimTime::from_secs(15));

    let mut cfg = KauriConfig::new(n).without_pipelining();
    cfg.run_for = Duration::from_secs(45);
    cfg.reconfig_delay = Duration::from_secs(1); // the simulated-annealing search

    // The cluster is the configuration plus the policy every replica selects
    // trees with; the harness runs it without knowing it is a tree.
    let cluster = KauriCluster::new(cfg, |_| {
        Box::new(OptiTreePolicy::new(system, rtt.clone(), 7))
    });
    let (report, _events) = run(
        &cluster,
        Box::new(MatrixLatency::from_rtt_millis(n, &rtt)),
        faults,
    );

    println!(
        "root {first_root} crashed at t=15s; reconfigurations: {}",
        report.roles.reconfigurations
    );
    println!("throughput per second:");
    for (sec, ops) in report.throughput_timeline.iter().enumerate() {
        println!("  t={sec:>2}s  {ops:>8} op/s");
    }
    println!("mean latency: {:.1} ms", report.summary.mean_latency_ms);
}

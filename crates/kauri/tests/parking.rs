//! The root's park → wake → propose path, driven deterministically in the
//! simulator (a dev-dependency only; the replicas are runtime-agnostic).
//!
//! The cell is built so that a view turns far faster than a batch fills:
//! uniform 0.1 ms links put a commit about 0.4 ms after its proposal, while
//! 2 000 cmd/s fill a batch of 100 once in 50 ms. The root therefore finds
//! the queue dry after nearly every commit, which is when it parks.

use kauri::{KauriBinsPolicy, KauriCluster, KauriConfig, KauriNode, Tree, TreePolicy};
use netsim::{Duration, FaultPlan, SimTime, Simulation, SimulationConfig, UniformLatency};
use rsm::{Cluster, TrafficSpec};
use telemetry::Telemetry;
use traffic::SharedTrafficQueue;

const N: usize = 7;
const POLICY_SEED: u64 = 3;

struct Cell {
    sim: Simulation<KauriNode>,
    telemetry: Telemetry,
    queue: SharedTrafficQueue,
}

fn policy() -> KauriBinsPolicy {
    let branch = KauriConfig::new(N).branch;
    KauriBinsPolicy::new(N, branch, POLICY_SEED)
}

/// The `k`-th tree every replica's policy hands out.
fn tree(k: usize) -> Tree {
    let branch = KauriConfig::new(N).branch;
    let mut policy = policy();
    (0..=k)
        .map(|_| policy.next_tree(N, branch))
        .last()
        .expect("k + 1 trees")
}

fn cell(run_secs: u64, faults: FaultPlan) -> Cell {
    let horizon = SimTime::from_secs(run_secs);
    let spec = TrafficSpec::poisson(2_000.0)
        .with_clients(4)
        .with_batching(100, Duration::from_millis(40));
    let queue = SharedTrafficQueue::generate(&spec, &[1.0; 4], 11, horizon);
    let telemetry = Telemetry::tracing();
    queue.set_telemetry(telemetry.clone());
    let mut config = KauriConfig::new(N);
    config.run_for = Duration::from_secs(run_secs);
    config.traffic = queue.clone();
    config.telemetry = telemetry.clone();
    let nodes = KauriCluster::new(config, |_| Box::new(policy()) as Box<dyn TreePolicy>).build();
    let latency = Box::new(UniformLatency::new(N, Duration::from_micros(100)));
    let sim = Simulation::new(nodes, latency)
        .with_faults(faults)
        .with_config(SimulationConfig {
            horizon,
            max_events: 50_000_000,
        });
    Cell {
        sim,
        telemetry,
        queue,
    }
}

#[test]
fn a_parked_root_wakes_once_per_batch() {
    let mut cell = cell(10, FaultPlan::none());
    cell.sim.run();
    let root = tree(0).root;
    let registry = cell.telemetry.registry_snapshot();
    let wakeups = registry.counter("kauri.node.traffic_wakeups", Some(root));
    let commits = registry.counter("kauri.node.commits", Some(root));
    let proposed = cell.telemetry.stage_counts()["propose"];
    assert!(
        proposed >= 200,
        "a batch about every 40 ms: {proposed} views"
    );
    assert!(
        commits + 3 >= proposed,
        "{commits} of {proposed} views committed"
    );
    assert!(
        wakeups <= proposed + 2,
        "{wakeups} traffic wake-ups for {proposed} proposed views"
    );
}

/// A crashed node's timers are dropped, its armed wake-up among them. The
/// root crashes while parked and is back 200 ms later; the others rotate it
/// out and commit again. Later the role returns to it (the successor root is
/// crashed for good, and the policy's star fallback is rooted at replica 0):
/// it must park and wake like a root that never crashed.
#[test]
fn a_root_crashed_while_parked_parks_again_after_it_recovers() {
    let (first, second, third) = (tree(0).root, tree(1).root, tree(2).root);
    assert_eq!(first, third, "seed chosen so the fallback returns the role");
    assert_ne!(first, second);
    let (crash, back) = (SimTime::from_millis(1_000), SimTime::from_millis(1_200));
    let second_crash = SimTime::from_secs(15);
    let mut faults = FaultPlan::none();
    faults.crash_between(first, crash, back);
    faults.crash(second, second_crash);
    let mut cell = cell(40, faults);

    let committed_by = |cell: &mut Cell, secs: u64| {
        cell.sim.run_until(SimTime::from_secs(secs));
        cell.queue.report(secs).committed
    };
    let before = committed_by(&mut cell, 1);
    assert!(before > 0);
    let rotated = committed_by(&mut cell, 15);
    assert!(
        rotated > before + 10_000,
        "the successor tree commits the backlog and keeps up: {before} -> {rotated}"
    );
    let returned = committed_by(&mut cell, 34);
    let end = committed_by(&mut cell, 40);
    assert!(
        returned > rotated && end > returned + 5_000,
        "the recovered root commits at the offered rate again: \
         {rotated} -> {returned} -> {end}"
    );
}

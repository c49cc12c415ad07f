//! The leader's park → flush → wake → propose path, driven deterministically
//! in the simulator (a dev-dependency only; the replicas are runtime-agnostic).
//!
//! The cell is built so that a view turns far faster than a batch fills:
//! uniform 0.1 ms links put a commit about 0.6 ms after its proposal, while
//! 2 000 cmd/s fill a batch of 100 once in 50 ms. The leader therefore finds
//! the queue dry after nearly every payload view, sends the two empty views
//! the three-chain needs to commit it, and parks.

use hotstuff::{HotStuffConfig, Pacemaker};
use netsim::{Duration, SimTime, Simulation, SimulationConfig, UniformLatency};
use rsm::{Cluster, TrafficSpec};
use std::collections::BTreeSet;
use telemetry::{Stage, Telemetry};
use traffic::SharedTrafficQueue;

const N: usize = 4;
const LEADER: usize = 0;
const RUN_SECS: u64 = 10;

#[test]
fn a_parked_leader_flushes_each_batch_and_wakes_once_per_commit() {
    let horizon = SimTime::from_secs(RUN_SECS);
    let spec = TrafficSpec::poisson(2_000.0)
        .with_clients(4)
        .with_batching(100, Duration::from_millis(40));
    let queue = SharedTrafficQueue::generate(&spec, &[1.0; 4], 11, horizon);
    let telemetry = Telemetry::tracing();
    let config = HotStuffConfig {
        run_for: Duration::from_secs(RUN_SECS),
        traffic: queue,
        telemetry: telemetry.clone(),
        ..HotStuffConfig::new(N, Pacemaker::Fixed { leader: LEADER })
    };
    let latency = Box::new(UniformLatency::new(N, Duration::from_micros(100)));
    let mut sim = Simulation::new(config.build(), latency).with_config(SimulationConfig {
        horizon,
        max_events: 50_000_000,
    });
    sim.run();

    // `(view, commands)` of every proposal, and the payload views the
    // leader committed, off its own trace track.
    let (proposals, committed) = telemetry
        .with_trace_events(|events| {
            let mut proposals = Vec::new();
            let mut committed = BTreeSet::new();
            for e in events.iter().filter(|e| e.pid == LEADER) {
                match e.stage {
                    Stage::Propose => proposals.push((e.tid, e.args[0].1 as usize)),
                    Stage::Commit => {
                        committed.insert(e.tid);
                    }
                    _ => {}
                }
            }
            (proposals, committed)
        })
        .expect("a tracing handle keeps its events");
    let views = sim.node(LEADER).highest_proposed();
    assert_eq!(
        proposals.iter().map(|&(view, _)| view).collect::<Vec<_>>(),
        (1..=views).collect::<Vec<_>>(),
        "one proposal per view, in order"
    );

    let payload: Vec<u64> = proposals
        .iter()
        .filter(|&&(_, commands)| commands > 0)
        .map(|&(view, _)| view)
        .collect();
    let uncommitted: Vec<u64> = payload
        .iter()
        .copied()
        .filter(|view| !committed.contains(view))
        .collect();
    assert!(
        uncommitted.is_empty(),
        "payload views left uncommitted: {uncommitted:?}"
    );

    // The flush: never more than the two successors a commit needs.
    let mut empties_in_a_row = 0;
    for &(view, commands) in &proposals {
        if commands > 0 {
            empties_in_a_row = 0;
        } else {
            empties_in_a_row += 1;
            assert!(
                empties_in_a_row <= 2,
                "view {view} is a third empty view in a row"
            );
        }
    }

    let registry = telemetry.registry_snapshot();
    let commits = registry.counter("hotstuff.node.commits", Some(LEADER));
    let wakeups = registry.counter("hotstuff.node.traffic_wakeups", Some(LEADER));
    assert!(
        wakeups <= commits + 1,
        "{wakeups} traffic wake-ups for {commits} commits"
    );

    // Known answers for this cell: any change to when the leader flushes or
    // parks moves them.
    assert_eq!(
        (views, commits),
        (741, 247),
        "views and commits of the cell"
    );
    assert_eq!(payload.len() as u64, commits);
}

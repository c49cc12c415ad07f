//! The sweep runner's determinism contract: the same `ScenarioSpec` and
//! seeds must produce a byte-identical `BENCH_*.json` regardless of how many
//! worker threads execute the sweep. This is the regression net for
//! cross-thread RNG leakage (a cell reading another cell's RNG stream) and
//! for ordering bugs in result collection.

use lab::{
    run_sweep, AdversaryScript, Attack, Deployment, LatencyWindow, ProtocolScenario, ScenarioKind,
    ScenarioSpec, Substrate, SweepOptions, Target, Topology, TrafficSpec,
};
use netsim::{Duration, SimTime};

/// A phased-adversary scenario over a seed-dependent topology: every part of
/// the pipeline that could leak cross-thread state is on the path — per-seed
/// city sampling, client placement and arrivals, per-cell policy seeding,
/// phased faults, window metrics.
fn spec() -> ScenarioSpec {
    let mut scenario = ProtocolScenario::new(
        vec![Substrate::BftSmart, Substrate::OptiAware],
        vec![Topology::with_n(Deployment::WorldDistinct, 5)],
    )
    .with_adversaries(vec![AdversaryScript::named("phased")
        .during(
            SimTime::from_secs(6),
            SimTime::from_secs(10),
            Attack::DelayProposals {
                target: Target::OptimizedLeader,
                delay: Duration::from_millis(300),
            },
        )
        .during(
            SimTime::from_secs(10),
            SimTime::from_secs(12),
            Attack::Crash {
                target: Target::Replica(1),
            },
        )])
    .with_traffic_axis(vec![TrafficSpec::poisson(100.0)
        .with_clients(8)
        .with_batching(100, Duration::from_millis(25))])
    .run_for(Duration::from_secs(15));
    scenario.optimize_after = SimTime::from_secs(3);
    scenario.windows = vec![
        LatencyWindow::new("clean", 1.0, 6.0),
        LatencyWindow::new("attacked", 6.0, 10.0),
    ];
    ScenarioSpec::new(
        "determinism_probe",
        vec![3, 11, 42],
        ScenarioKind::Protocol(scenario),
    )
}

/// The tree-substrate analogue: the protocol-level root-delay attack, the
/// staleness-driven reconfiguration it triggers, and the per-commit latency
/// timelines are all on the deterministic path.
fn tree_spec() -> ScenarioSpec {
    let mut scenario = ProtocolScenario::new(
        vec![Substrate::Kauri, Substrate::OptiTree, Substrate::HotStuffRr],
        vec![Topology::with_n(Deployment::Europe21, 13)],
    )
    .with_adversaries(vec![AdversaryScript::named("root-delay").during(
        SimTime::from_secs(6),
        SimTime::from_secs(12),
        Attack::DelayProposals {
            target: Target::Root,
            delay: Duration::from_millis(2_500),
        },
    )])
    .run_for(Duration::from_secs(15));
    scenario.windows = vec![
        LatencyWindow::new("clean", 1.0, 6.0),
        LatencyWindow::new("attacked", 6.0, 12.0),
    ];
    ScenarioSpec::new(
        "tree_determinism_probe",
        vec![0, 7],
        ScenarioKind::Protocol(scenario),
    )
}

#[test]
fn json_is_byte_identical_across_worker_counts() {
    let spec = spec();
    let serial = run_sweep(&spec, &SweepOptions::serial()).to_json();
    for threads in [2, 4, 8] {
        let parallel = run_sweep(&spec, &SweepOptions::serial().with_threads(threads)).to_json();
        assert_eq!(
            serial, parallel,
            "JSON diverged between 1 and {threads} worker threads"
        );
    }
    // And the whole thing is reproducible run-to-run, not just race-free.
    let again = run_sweep(&spec, &SweepOptions::serial()).to_json();
    assert_eq!(serial, again);
}

#[test]
fn tree_delay_scenario_is_byte_identical_across_worker_counts() {
    let spec = tree_spec();
    let serial = run_sweep(&spec, &SweepOptions::serial()).to_json();
    for threads in [2, 4, 8] {
        let parallel = run_sweep(&spec, &SweepOptions::serial().with_threads(threads)).to_json();
        assert_eq!(
            serial, parallel,
            "tree-delay JSON diverged between 1 and {threads} worker threads"
        );
    }
    let again = run_sweep(&spec, &SweepOptions::serial()).to_json();
    assert_eq!(serial, again);
    // The protocol-level attack actually ran: windows are populated on every
    // substrate (the HotStuff/tree timelines used to be PBFT-only).
    let report = run_sweep(&spec, &SweepOptions::serial());
    for p in &report.points {
        assert!(
            p.metric("lat_clean_ms") > 0.0,
            "{}: clean window empty",
            p.label
        );
        assert!(
            p.metric("lat_attacked_ms") > 0.0,
            "{}: attacked window empty",
            p.label
        );
    }
}

#[test]
fn seeds_actually_vary_the_cells() {
    let report = run_sweep(&spec(), &SweepOptions::serial());
    let p = &report.points[0];
    let latencies: Vec<f64> = p
        .cells
        .iter()
        .map(|c| c.metrics.values["latency_ms"])
        .collect();
    assert_eq!(latencies.len(), 3);
    assert!(
        latencies.windows(2).any(|w| w[0] != w[1]),
        "World(distinct) seeds should produce different geographies: {latencies:?}"
    );
}

#[test]
fn phased_attack_shows_up_in_window_metrics() {
    let report = run_sweep(&spec(), &SweepOptions::serial());
    // The static substrate cannot react: while the delay attack is on, its
    // optimised-path clients pay the 300 ms proposal delay.
    let bft = report
        .points
        .iter()
        .find(|p| p.params["substrate"] == "BFT-SMaRt")
        .expect("BFT-SMaRt point");
    let clean = bft.metric("lat_clean_ms");
    let attacked = bft.metric("lat_attacked_ms");
    assert!(clean > 0.0);
    assert!(
        attacked > clean,
        "delay stage should inflate latency: clean={clean:.1} attacked={attacked:.1}"
    );
}

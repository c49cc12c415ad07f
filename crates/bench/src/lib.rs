//! Shared surface for the figure-reproduction harnesses.
//!
//! Each binary in `src/bin/` regenerates one figure of the paper's
//! evaluation. Since the `lab` crate landed, a harness is a thin constructor:
//! it builds a declarative [`lab::ScenarioSpec`] and hands it to the shared
//! sweep runner ([`lab::run_and_report`]), which fans the seed grid across
//! worker threads, prints the metric table, and writes
//! `BENCH_<scenario>.json`. This crate re-exports the pieces the binaries
//! (and the criterion benches) use.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub use lab::{ci95, mean, Deployment};

use lab::{
    AdversaryScript, Attack, LatencyWindow, ProtocolScenario, ScenarioKind, ScenarioSpec,
    Substrate, Target, Topology, TrafficSpec,
};
use netsim::{Duration, SimTime};

/// The covert hold of the tree-delay sweep's first phase: above OptiTree's
/// tight tree-derived view timeouts (a few hundred ms on Europe21) but below
/// Kauri's fixed 2 s timeout, so OptiTree's staleness detection catches it
/// while Kauri silently absorbs the inflated latency.
pub const TREE_DELAY_COVERT_MS: u64 = 600;

/// The overt hold of the second phase: above Kauri's 2 s view timeout, so
/// even its conservative detector classifies the withheld proposals as a
/// failed tree and moves to the next conformity bin.
pub const TREE_DELAY_OVERT_MS: u64 = 2_500;

/// The Fig 7 scenario on the tree substrates: the initial root withholds
/// every payload it disseminates for the middle of the run — first by a
/// covert amount, then escalating to an overt one — and the per-commit
/// latency timelines show the spike-and-recover sawtooth at the moment each
/// substrate's failure detection catches the hold: OptiTree reconfigures
/// away from the root during the covert phase already, Kauri during the
/// overt one. HotStuff-fixed rides along as the baseline that cannot
/// reassign the leader role and stays degraded until the attack stage
/// closes.
///
/// Phases scale with `run_secs` (floor 60 s): the covert hold starts at
/// `run/3` and escalates at `run/3 + run/8` until `run/3 + run/4`. Windows:
/// `clean` (pre-attack), `attack` (the two seconds after onset, capturing
/// the withheld commits before reconfiguration dilutes them) and
/// `recovered` (the final third).
pub fn tree_delay_attack_spec(run_secs: u64, n: usize, seeds: Vec<u64>) -> ScenarioSpec {
    assert!(run_secs >= 60, "phases need at least a 60 s run, got {run_secs}");
    let attack_start = run_secs / 3;
    let escalate = attack_start + run_secs / 8;
    let attack_end = attack_start + run_secs / 4;
    let mut scenario = ProtocolScenario::new(
        vec![
            Substrate::HotStuffFixed,
            Substrate::Kauri,
            Substrate::OptiTree,
            Substrate::OptiTreeNoPipeline,
        ],
        vec![Topology::with_n(Deployment::Europe21, n)],
    )
    .with_adversaries(vec![AdversaryScript::named("root-delay")
        .during(
            SimTime::from_secs(attack_start),
            SimTime::from_secs(escalate),
            Attack::DelayProposals {
                target: Target::Root,
                delay: Duration::from_millis(TREE_DELAY_COVERT_MS),
            },
        )
        .during(
            SimTime::from_secs(escalate),
            SimTime::from_secs(attack_end),
            Attack::DelayProposals {
                target: Target::Root,
                delay: Duration::from_millis(TREE_DELAY_OVERT_MS),
            },
        )])
    .run_for(Duration::from_secs(run_secs));
    scenario.windows = vec![
        LatencyWindow::new("clean", (run_secs / 12) as f64, attack_start as f64),
        LatencyWindow::new("attack", attack_start as f64, attack_start as f64 + 2.0),
        LatencyWindow::new("recovered", (run_secs - run_secs / 3) as f64, run_secs as f64),
    ];
    ScenarioSpec::new("sweep_tree_delay_attack", seeds, ScenarioKind::Protocol(scenario))
}

/// The Fig 7 counterpart this repo adds: an overtly-delaying *intermediate*
/// (not the root) withholds every payload it forwards for the middle of the
/// run, on the three tree substrates. Under the old root-blame staleness
/// rule this deposed one innocent root after another; with the §6.4
/// reciprocal suspicion pairs flowing through the replicated configuration
/// log, the evidence implicates the delayer itself: conformity binning
/// (Kauri), exclude-all-internals (Kauri-sa), and pair-driven candidate
/// exclusion (OptiTree) all rotate the attacker out of internal positions
/// while the innocent root keeps its role — which the `root_retained` /
/// `attacker_internal_final` metrics assert per cell.
///
/// Phases scale with `run_secs` (floor 60 s): the overt hold runs from
/// `run/3` to `run·3/4`. Windows: `clean` (pre-attack), `attack` (the two
/// seconds after onset), `recovered` (the final sixth).
pub fn intermediate_delay_spec(run_secs: u64, n: usize, seeds: Vec<u64>) -> ScenarioSpec {
    assert!(run_secs >= 60, "phases need at least a 60 s run, got {run_secs}");
    let attack_start = run_secs / 3;
    let attack_end = run_secs * 3 / 4;
    let mut scenario = ProtocolScenario::new(
        vec![Substrate::Kauri, Substrate::KauriSa, Substrate::OptiTree],
        vec![Topology::with_n(Deployment::Europe21, n)],
    )
    .with_adversaries(vec![AdversaryScript::named("intermediate-delay").during(
        SimTime::from_secs(attack_start),
        SimTime::from_secs(attack_end),
        Attack::DelayProposals {
            target: Target::TreeIntermediates { count: 1 },
            delay: Duration::from_millis(TREE_DELAY_OVERT_MS),
        },
    )])
    .run_for(Duration::from_secs(run_secs));
    scenario.windows = vec![
        LatencyWindow::new("clean", (run_secs / 12) as f64, attack_start as f64),
        LatencyWindow::new("attack", attack_start as f64, attack_start as f64 + 2.0),
        LatencyWindow::new("recovered", (run_secs - run_secs / 6) as f64, run_secs as f64),
    ];
    ScenarioSpec::new("intermediate_delay", seeds, ScenarioKind::Protocol(scenario))
}

/// Commands per batch in the load sweeps: small enough that every substrate
/// saturates inside the swept load range on the 7-replica Europe sample.
pub const LOAD_BATCH: usize = 100;

/// Size-or-timeout batching delay of the load sweeps: small enough that the
/// low-load end of the curve is dominated by consensus latency, not by
/// waiting for a batch to fill.
pub const LOAD_BATCH_DELAY_MS: u64 = 25;

/// Admission-queue bound of the load sweeps (50 batches): deep enough to
/// make queueing delay visible at the knee, bounded so saturation shows as a
/// latency *plateau* plus rejected load instead of an unbounded blow-up.
pub const LOAD_QUEUE_CAPACITY: usize = 50 * LOAD_BATCH;

/// The offered-load grid of the throughput–latency sweep (commands/s): from
/// far below every substrate's capacity to far above it.
pub const LOAD_LEVELS: [f64; 6] = [500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16_000.0];

/// Build the load-sweep traffic spec for one offered rate.
fn load_traffic(rate: f64, slo: Duration) -> TrafficSpec {
    TrafficSpec::poisson(rate)
        .with_clients(64)
        .with_batching(LOAD_BATCH, Duration::from_millis(LOAD_BATCH_DELAY_MS))
        .with_capacity(LOAD_QUEUE_CAPACITY)
        .with_slo(slo)
}

/// The throughput–latency sweep (`BENCH_load_latency.json`): one
/// representative of each substrate family (PBFT, HotStuff, Kauri,
/// OptiTree) driven by open-loop Poisson load at each level of `loads`,
/// on the Europe21 sample with `n` replicas. Each point's end-to-end p50/p99
/// and committed/goodput rates trace the curve; the knee appears where
/// committed throughput plateaus below the offered load and p99 jumps to
/// the queue-drain time.
pub fn load_latency_spec(run_secs: u64, n: usize, loads: &[f64], seeds: Vec<u64>) -> ScenarioSpec {
    let traffics = loads
        .iter()
        // A generous SLO: the knee sweep reads latency percentiles; the SLO
        // mainly separates goodput from committed at the saturated end.
        .map(|&rate| load_traffic(rate, Duration::from_secs(2)))
        .collect();
    let scenario = ProtocolScenario::new(
        vec![
            Substrate::BftSmart,
            Substrate::HotStuffFixed,
            Substrate::Kauri,
            Substrate::OptiTree,
        ],
        vec![Topology::with_n(Deployment::Europe21, n)],
    )
    .with_traffic_axis(traffics)
    .run_for(Duration::from_secs(run_secs));
    ScenarioSpec::new("load_latency", seeds, ScenarioKind::Protocol(scenario))
}

/// The proposal hold of the load-under-attack scenario: far beyond the SLO
/// and the clean round time, so a leader that keeps the role while delaying
/// collapses both capacity (rounds stretch to ~0.8 s) and goodput (every
/// commit blows the deadline).
pub const LOAD_ATTACK_DELAY_MS: u64 = 800;

/// Offered load of the attack scenario: comfortably below clean capacity
/// (so the clean phases run at full goodput) but far above the ~125/s an
/// attacked leader can still push.
pub const LOAD_ATTACK_RATE: f64 = 1_000.0;

/// The load-under-delay-attack scenario (`BENCH_load_attack.json`): Poisson
/// load at [`LOAD_ATTACK_RATE`] while the optimised leader (and the initial
/// proposer, for substrates that never re-elect) runs the proposal-delay
/// attack for the middle half of the run. OptiAware strips the attacker of
/// the leader role and preserves goodput; the fixed-role policies (Aware's
/// latency-only optimiser, HotStuff's fixed leader) collapse for the whole
/// attack phase. Windows: `clean` (pre-attack), `attack` (the attack
/// phase), `recovered` (after it ends); each reports `lat_*_ms` (e2e) and
/// `goodput_*_ops`.
pub fn load_attack_spec(run_secs: u64, n: usize, seeds: Vec<u64>) -> ScenarioSpec {
    assert!(run_secs >= 80, "phases need at least an 80 s run, got {run_secs}");
    let attack_from = SimTime::from_secs(run_secs * 35 / 100);
    let attack_until = SimTime::from_secs(run_secs * 85 / 100);
    let delay = Duration::from_millis(LOAD_ATTACK_DELAY_MS);
    // Two stages over the same window: `OptimizedLeader` hits the replica
    // the latency optimisers elect (Aware and OptiAware pick the same one
    // from the same probe matrix), `Root` hits the initial proposer for the
    // substrates that never re-elect (HotStuff's fixed leader). A stage
    // whose target never holds the proposer role is harmless by
    // construction — a delayed proposal only exists while its author leads.
    let script = AdversaryScript::named("leader-delay")
        .during(
            attack_from,
            attack_until,
            Attack::DelayProposals {
                target: Target::OptimizedLeader,
                delay,
            },
        )
        .during(
            attack_from,
            attack_until,
            Attack::DelayProposals {
                target: Target::Root,
                delay,
            },
        );
    let mut scenario = ProtocolScenario::new(
        vec![Substrate::Aware, Substrate::OptiAware, Substrate::HotStuffFixed],
        vec![Topology::with_n(Deployment::Europe21, n)],
    )
    .with_adversaries(vec![script])
    .with_traffic_axis(vec![load_traffic(LOAD_ATTACK_RATE, Duration::from_secs(1))])
    .run_for(Duration::from_secs(run_secs));
    // Optimise early so the leader role has settled well before the attack.
    scenario.optimize_after = SimTime::from_secs(run_secs / 8);
    let (from_s, until_s) = (attack_from.as_secs_f64(), attack_until.as_secs_f64());
    scenario.windows = vec![
        LatencyWindow::new("clean", (run_secs / 6) as f64, from_s),
        LatencyWindow::new("attack", from_s, until_s),
        LatencyWindow::new("recovered", until_s + 5.0, run_secs as f64),
    ];
    ScenarioSpec::new("load_attack", seeds, ScenarioKind::Protocol(scenario))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployments_produce_square_matrices() {
        for d in [
            Deployment::Europe21,
            Deployment::NaEu43,
            Deployment::Stellar56,
            Deployment::Global73,
        ] {
            let n = d.default_n();
            let m = d.rtt_matrix(n, 0);
            assert_eq!(m.len(), n * n);
            assert_eq!(m[0], 0.0);
            assert!(m.iter().all(|&x| x.is_finite()));
        }
    }

    #[test]
    fn europe_is_faster_than_global() {
        let e = Deployment::Europe21.rtt_matrix(21, 0);
        let g = Deployment::Global73.rtt_matrix(73, 0);
        assert!(mean(&e) < mean(&g));
    }

    #[test]
    fn world_random_is_seed_dependent() {
        let a = Deployment::WorldRandom.rtt_matrix(50, 1);
        let b = Deployment::WorldRandom.rtt_matrix(50, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!(ci95(&[1.0, 2.0, 3.0, 4.0]) > 0.0);
        assert_eq!(ci95(&[5.0]), 0.0);
    }
}

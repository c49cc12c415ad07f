//! Span-coverage audit: every substrate family must emit every trace stage
//! its commit path is expected to cross, under an attacked run where the
//! full instrumentation surface (holds, reconfigurations) is reachable.
//!
//! The audit iterates `telemetry::Stage::ALL`, so adding a new `Stage`
//! variant fails these tests until each family's expectation says whether
//! the new span applies to it — silent instrumentation gaps (a substrate
//! whose refactor dropped a `span()` call) are what this file exists to
//! catch, and a stage asserted *absent* going missing means the family
//! either grew coverage (good: move it to expected) or mislabels spans.

use lab::{
    AdversaryScript, Attack, Deployment, ProtocolScenario, ScenarioKind, ScenarioSpec, Substrate,
    Target, Topology, TracedCell,
};
use netsim::{Duration, SimTime};
use telemetry::Stage;

/// Run one attacked cell of `substrate` with the default traced load and
/// return its trace (the adversary holds proposals mid-run so `hold` and
/// any reconfiguration machinery appear).
fn traced(substrate: Substrate, target: Target, run_secs: u64) -> TracedCell {
    let mut scenario = ProtocolScenario::new(
        vec![substrate],
        vec![Topology::with_n(Deployment::Europe21, 7)],
    )
    .with_adversaries(vec![AdversaryScript::named("audit-delay").during(
        // Starts before the optimize gate below opens, so holds are on the
        // record first and the policies then reconfigure in response.
        SimTime::from_secs(run_secs / 6),
        SimTime::from_secs(run_secs * 2 / 3),
        // Overt: long enough to trip every substrate's staleness detector
        // (the Fig 7 escalation value), so reconfiguration spans appear
        // wherever the substrate has them.
        Attack::DelayProposals {
            target,
            delay: Duration::from_millis(2_500),
        },
    )])
    .run_for(Duration::from_secs(run_secs));
    // Let measurement-driven policies reconfigure as soon as the attack
    // starts (the default 40 s gate outlasts these short audit runs).
    scenario.optimize_after = SimTime::from_secs(run_secs / 3);
    ScenarioSpec::new("unit_span_audit", vec![0], ScenarioKind::Protocol(scenario))
        .run_cell_traced()
        .expect("protocol scenarios trace")
}

/// Assert the family's trace covers exactly `Stage::ALL` minus `absent`.
fn audit(family: &str, cell: &TracedCell, absent: &[Stage]) {
    for stage in Stage::ALL {
        let count = cell.stage_counts.get(stage.name()).copied().unwrap_or(0);
        if absent.contains(&stage) {
            assert_eq!(
                count, 0,
                "{family}: stage {:?} was expected absent but appeared {count} times — \
                 update this family's expectation: {:?}",
                stage, cell.stage_counts
            );
        } else {
            assert!(
                count > 0,
                "{family}: stage {:?} missing from the trace (instrumentation gap?): {:?}",
                stage,
                cell.stage_counts
            );
        }
    }
}

#[test]
fn tree_family_covers_every_stage() {
    // A delaying root exercises hold + the staleness-driven reconfiguration
    // on top of the full dissemination pipeline: nothing may be absent.
    let cell = traced(Substrate::Kauri, Target::Root, 30);
    audit("kauri", &cell, &[]);
}

#[test]
fn hotstuff_family_covers_every_star_stage() {
    // Star topology with a fixed leader: votes go straight to the leader
    // (no aggregation tree) and no role reassignment exists.
    let cell = traced(Substrate::HotStuffFixed, Target::Root, 15);
    audit("hotstuff", &cell, &[Stage::Aggregate, Stage::Reconfigure]);
}

#[test]
fn pbft_family_covers_every_stage_incl_reconfigure() {
    // OptiAware runs the §5 suspicion pipeline: the delaying leader is
    // reconfigured away, so `reconfigure` must appear; PBFT quorums have no
    // vote-aggregation tree.
    let cell = traced(Substrate::OptiAware, Target::Root, 30);
    audit("pbft", &cell, &[Stage::Aggregate]);
}

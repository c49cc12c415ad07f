//! # lab — declarative scenarios, phased adversaries, parallel sweeps
//!
//! The experiment subsystem of the OptiLog reproduction. The paper's
//! evaluation (§7) is a matrix of substrates × topologies × adversary
//! behaviours × seeds; this crate makes each cell of that matrix a value
//! instead of a hand-written binary:
//!
//! * [`ScenarioSpec`] — a named, seeded, declarative description of an
//!   experiment: either a [`ProtocolScenario`] (simulation runs over
//!   substrate / topology / adversary axes) or one of the analytic scenario
//!   kinds reproducing the non-simulation figures.
//! * [`AdversaryScript`] — a time-phased fault script (clean warmup →
//!   δ-inflation → crash → recovery …) with symbolic targets, compiled down
//!   to netsim's windowed [`netsim::FaultPlan`] plus protocol-level delay
//!   attacks.
//! * [`run_sweep`] — a multi-threaded sweep runner fanning the seed ×
//!   parameter grid across `std::thread` workers with deterministic per-cell
//!   seeding: the report is byte-identical for any `--threads` value.
//! * [`ScenarioReport`] — percentile aggregates per grid point, rendered as
//!   a fixed-width table and written to `BENCH_<scenario>.json`.
//!
//! ```no_run
//! use lab::*;
//! use netsim::{Duration, SimTime};
//!
//! let scenario = ProtocolScenario::new(
//!     vec![Substrate::BftSmart, Substrate::OptiAware],
//!     vec![Topology::of(Deployment::Europe21)],
//! )
//! .with_adversaries(vec![AdversaryScript::named("delay-attack").during(
//!     SimTime::from_secs(80),
//!     SimTime::from_secs(120),
//!     Attack::DelayProposals {
//!         target: Target::OptimizedLeader,
//!         delay: Duration::from_millis(600),
//!     },
//! )])
//! .run_for(Duration::from_secs(180));
//! let spec = ScenarioSpec::new("my_experiment", vec![0, 1, 2], ScenarioKind::Protocol(scenario));
//! let report = run_sweep(&spec, &SweepOptions::default());
//! report.write_bench_json(std::path::Path::new(".")).unwrap();
//! ```

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod adversary;
pub mod harness;
pub mod results;
pub mod runner;
pub mod scenario;
pub mod topology;

pub use adversary::{
    AdversaryScript, Attack, CompileContext, CompiledAdversary, DelayAttack, Stage, Target,
};
pub use results::{
    ci95, mean, timeline_mean, CellMetrics, CellReport, MetricSummary, PointReport, ScenarioReport,
};
pub use runner::{export_trace, run_and_report, run_sweep, LabArgs, SweepOptions};
pub use scenario::{
    append_breakdown_metrics, mix_seed, sample_seeds, CandidateTimingScenario, LatencyWindow,
    OverprovisionScenario, Point, ProposalSizeScenario, ProtocolScenario, ScenarioKind,
    ScenarioSpec, Substrate, SuspicionAttackScenario, TracedCell, TreeSearchScenario,
};
pub use topology::{Deployment, Topology};

// The offered-load surface scenario authors need alongside the axes.
pub use rsm::{ArrivalProcess, BatchingPolicy, TrafficSpec};
pub use traffic::TrafficReport;

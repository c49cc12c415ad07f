//! # optilog — a logging framework for role assignment in Byzantine consensus
//!
//! This crate implements the paper's primary contribution: a framework of
//! *sensors* and *monitors* built around a shared, consensus-ordered,
//! append-only log of measurements. Sensors capture local, possibly
//! non-deterministic measurements (link latencies, suspicions) and propose
//! them to the log; the corresponding monitors consume the *committed*
//! measurements — identical at every replica — and deterministically derive
//! metrics and reconfiguration decisions (§4).
//!
//! The sensors, monitors and search of the §4.2 pipeline live here:
//!
//! * [`latency`] — LatencySensor / LatencyMonitor and the latency matrix `L`
//!   with the symmetric `max(Lr(A,B), Lr(B,A))` rule.
//! * [`suspicion`] — SuspicionSensor (conditions (a), (b), (c)) and
//!   SuspicionMonitor (causal filtering, crash set `C`, suspicion graph `G`,
//!   candidate set `K`, estimate `u`, sliding-window expiry).
//! * [`graph`] — the suspicion graph with Bron-Kerbosch maximum-independent-
//!   set selection (§4.2.3) and the disjoint-edge/triangle variant used by
//!   OptiTree (§6.4).
//! * [`candidates`] — the two candidate-selection strategies packaged behind
//!   one interface.
//! * [`annealing`] — the generic simulated-annealing search used by
//!   configuration sensors (§4.2.4).
//! * [`timing`] — timeout derivation: round duration `d_rnd`, per-message
//!   delays `d_m`, and the δ-scaled checks of Appendix C (TR1–TR3).
//!
//! The pipeline itself is wired by its two consumers, `optiaware` and
//! `optitree`: each feeds committed rounds to a [`LatencyMonitor`] and a
//! [`SuspicionMonitor`], searches a configuration over the candidate set, and
//! adopts it through the replicated [`ConfigLog`] (the `configlog` crate).

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod annealing;
pub mod candidates;
pub mod graph;
pub mod latency;
pub mod suspicion;
pub mod timing;

// The replicated configuration log every substrate adopts role configs
// through (weights, trees, suspicion-pair evidence) — re-exported so policy
// crates reach the whole pipeline from one place.
pub use configlog::{AdoptedConfig, ConfigCommand, ConfigLog, PhaseFilter, SuspicionPair};

pub use annealing::{Annealer, AnnealingParams, SearchSpace};
pub use candidates::{CandidateSelection, CandidateSelector, SelectionStrategy};
pub use graph::{SuspicionGraph, TreeExclusion};
pub use latency::{LatencyMatrix, LatencyMonitor, LatencyVector};
pub use suspicion::{
    MessageExpectation, RoundObservation, Suspicion, SuspicionKind, SuspicionMonitor,
    SuspicionMonitorParams, SuspicionSensor, DEADLINE_SLACK,
};
pub use timing::{MessageTimeout, RoundTimeouts, DELTA};

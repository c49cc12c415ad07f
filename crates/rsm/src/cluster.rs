//! The seam between a consensus family and whatever runs it.
//!
//! A [`Cluster`] is a protocol configuration that knows two things about its
//! own family: how to build the replica set, and how to read a finished
//! replica set back into a [`RunReport`]. It knows nothing about clocks,
//! sockets or the simulator; the runners (`lab::harness::run` on netsim,
//! `deployd::run_on` on real sockets) know nothing about the protocol. Three
//! families × two runtimes go through this one trait.

use crate::stats::RunSummary;
use runtime::{Duration, Node};

/// One consensus family's launch-and-read-back contract.
pub trait Cluster {
    /// The replica (or client) state machine the runtimes drive.
    type Node: Node;
    /// The protocol-specific section of the report: who held which role.
    type Roles;
    /// What the role-change provenance oracle replays after the run: a
    /// committed configuration-command log, or `()` for families whose
    /// roles do not change through a replicated log.
    type Provenance;

    /// How long the cluster is configured to run.
    fn run_for(&self) -> Duration;

    /// Build every node of the run, in node-id order.
    fn build(&self) -> Vec<Self::Node>;

    /// Read the finished nodes back. `run_secs` is the nominal run length
    /// (virtual or wall-clock) throughput is diluted over.
    fn report(
        &self,
        nodes: &mut [Self::Node],
        run_secs: u64,
    ) -> RunReport<Self::Roles, Self::Provenance>;
}

/// What one run measured, in the same shape for every family and runtime.
#[derive(Debug, Clone)]
pub struct RunReport<R, P = ()> {
    /// Throughput / consensus-latency summary at the family's vantage point
    /// (a correct replica, or the aggregate over every root that served).
    pub summary: RunSummary,
    /// Per-commit `(time s, latency ms)` in commit order — the Fig 7-style
    /// latency timeline. One point per committed block.
    pub latency_timeline: Vec<(f64, f64)>,
    /// Committed commands per second of the run.
    pub throughput_timeline: Vec<u64>,
    /// The audit surface the checkpoints below belong to (`hotstuff`,
    /// `pbft`, `kauri.config`).
    pub oracle: &'static str,
    /// Per-replica `(ordinal, fingerprint)` agreement checkpoints — the
    /// exact histories the post-run auditor compares across replicas.
    pub checkpoints: Vec<Vec<(u64, u64)>>,
    /// Input of the role-change provenance oracle.
    pub provenance: P,
    /// The protocol-specific section.
    pub roles: R,
}

//! Reconfiguration policies.
//!
//! The replica logic is identical for BFT-SMaRt, Aware, and OptiAware; what
//! differs is how committed measurements are interpreted and when the
//! configuration (leader + weights) changes. [`ReconfigPolicy`] captures that
//! difference:
//!
//! * [`StaticPolicy`] — BFT-SMaRt: never reconfigures, logs nothing.
//! * `OptiAwarePolicy` (in the `optiaware` crate) — OptiAware: logs latency
//!   vectors, maintains the latency matrix, deterministically re-optimises
//!   the configuration once the matrix is complete, and excludes suspects
//!   from roles. Aware is the same policy without its suspicion sensor
//!   (`OptiAwarePolicy::aware`).
//!
//! Policies only ever see *committed* data (plus local sensor outputs they
//! may turn into measurement blobs), so identical logs yield identical
//! decisions at every replica.

use crate::weights::WeightConfig;
use runtime::{Duration, SimTime};

/// Everything a replica observed about one committed round; handed to the
/// policy so sensor-side logic (e.g. OptiAware's SuspicionSensor) can run.
#[derive(Debug, Clone)]
pub struct PbftRoundRecord {
    /// Consensus sequence number of the committed block.
    pub seq: u64,
    /// Configuration epoch the round was *proposed* under (carried by the
    /// proposal message). Policies judge the round against this epoch's
    /// timeouts, so rounds straddling a reconfiguration are not measured
    /// against a configuration that was not active when they ran.
    pub epoch: u64,
    /// The leader that proposed it.
    pub leader: usize,
    /// The leader's proposal timestamp.
    pub proposal_ts: SimTime,
    /// The previous committed block's proposal timestamp, if any.
    pub prev_proposal_ts: Option<SimTime>,
    /// The epoch the previous committed block was proposed under. The
    /// inter-proposal-gap condition is only meaningful when both rounds ran
    /// under the same configuration (`prev_epoch == Some(epoch)`).
    pub prev_epoch: Option<u64>,
    /// When this replica committed the block.
    pub commit_time: SimTime,
    /// Observed arrivals `(from, phase tag, arrival time)`.
    pub arrivals: Vec<(usize, u32, SimTime)>,
}

/// A measurement-driven reconfiguration policy.
pub trait ReconfigPolicy: Send {
    /// A completed local probe round produced a latency vector (RTT in ms,
    /// ∞ for unreachable replicas). Returns measurement blobs to replicate.
    fn on_latency_vector(&mut self, reporter: usize, rtt_ms: &[f64]) -> Vec<Vec<u8>>;

    /// This replica committed a round and observed `record`. Returns
    /// measurement blobs to replicate (e.g. suspicions).
    fn on_round(&mut self, record: &PbftRoundRecord) -> Vec<Vec<u8>>;

    /// How long after a round's proposal timestamp the replica must hold the
    /// round record before handing it to [`Self::on_round`]. Policies that
    /// judge per-message deadlines need the hold to cover their slowest
    /// deadline: with pipelined rounds, commits can outpace the stragglers'
    /// messages, and evaluating too early reports on-time replicas as slow.
    fn observation_hold(&self) -> Duration {
        Duration::ZERO
    }

    /// A measurement blob committed in the log (same order at every replica).
    /// Returns follow-up blobs to replicate (e.g. reciprocation suspicions).
    fn on_committed_measurement(&mut self, replica_id: usize, blob: &[u8]) -> Vec<Vec<u8>>;

    /// Deterministic configuration decision. Called after each commit with
    /// the active epoch; returns a configuration with `epoch = current + 1`
    /// to trigger a reconfiguration, or `None` to keep the current one.
    ///
    /// The decision is a function of the committed log alone, so an
    /// implementation searches for a configuration only when the log gave
    /// it something new (a latency vector that changed the matrix, a
    /// suspicion, a leader term) and answers every other call from the
    /// output of its last search.
    fn decide(&mut self, current_epoch: u64, now: SimTime) -> Option<WeightConfig>;
}

/// BFT-SMaRt: static configuration, no measurements.
#[derive(Debug, Default, Clone)]
pub struct StaticPolicy;

impl ReconfigPolicy for StaticPolicy {
    fn on_latency_vector(&mut self, _reporter: usize, _rtt_ms: &[f64]) -> Vec<Vec<u8>> {
        Vec::new()
    }

    fn on_round(&mut self, _record: &PbftRoundRecord) -> Vec<Vec<u8>> {
        Vec::new()
    }

    fn on_committed_measurement(&mut self, _replica_id: usize, _blob: &[u8]) -> Vec<Vec<u8>> {
        Vec::new()
    }

    fn decide(&mut self, _current_epoch: u64, _now: SimTime) -> Option<WeightConfig> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_never_reconfigures() {
        let mut p = StaticPolicy;
        assert!(p.on_latency_vector(0, &[0.0, 1.0]).is_empty());
        assert!(p.decide(0, SimTime::from_secs(1000)).is_none());
    }
}

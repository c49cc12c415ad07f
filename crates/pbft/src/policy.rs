//! Reconfiguration policies.
//!
//! The replica logic is identical for BFT-SMaRt, Aware, and OptiAware; what
//! differs is how committed measurements are interpreted and when the
//! configuration (leader + weights) changes. [`ReconfigPolicy`] captures that
//! difference:
//!
//! * [`StaticPolicy`] — BFT-SMaRt: never reconfigures, logs nothing.
//! * [`AwarePolicy`] — Aware: logs latency vectors, maintains the latency
//!   matrix, and deterministically re-optimises the configuration once the
//!   matrix is complete.
//! * `OptiAwarePolicy` (in the `optiaware` crate) — adds suspicion and
//!   misbehavior monitoring on top and excludes suspects from roles.
//!
//! Policies only ever see *committed* data (plus local sensor outputs they
//! may turn into measurement blobs), so identical logs yield identical
//! decisions at every replica.

use crate::score::optimize_configuration;
use crate::weights::WeightConfig;
use runtime::{Duration, SimTime};
use serde::{Deserialize, Serialize};

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

    /// Short label for reports.
    fn name(&self) -> &'static str;
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

    fn name(&self) -> &'static str {
        "bft-smart"
    }
}

/// The latency-vector blob Aware replicates through the log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyBlob {
    /// Reporting replica.
    pub reporter: usize,
    /// Round-trip times in milliseconds (∞ encoded as a large sentinel).
    pub rtt_ms: Vec<f64>,
}

/// Encode a latency blob (sentinel-encodes ∞ so JSON stays valid).
pub fn encode_latency_blob(reporter: usize, rtt_ms: &[f64]) -> Vec<u8> {
    let safe: Vec<f64> = rtt_ms
        .iter()
        .map(|&x| if x.is_finite() { x } else { 1.0e9 })
        .collect();
    serde_json::to_vec(&LatencyBlob {
        reporter,
        rtt_ms: safe,
    })
    .expect("latency blob serializes")
}

/// Decode a latency blob if the bytes are one.
pub fn decode_latency_blob(blob: &[u8]) -> Option<LatencyBlob> {
    serde_json::from_slice(blob).ok()
}

/// Aware: optimise the configuration from the shared latency matrix.
#[derive(Debug, Clone)]
pub struct AwarePolicy {
    n: usize,
    f: usize,
    /// Symmetric RTT matrix built from committed latency vectors
    /// (max of the two directions, §4.2.1).
    matrix: Vec<f64>,
    recorded: Vec<f64>,
    /// Do not reconfigure before this time (models Aware's initial
    /// measurement period; Fig 7 optimises at t ≈ 40 s).
    optimize_after: SimTime,
    /// Require at least this relative improvement to reconfigure again.
    improvement_factor: f64,
    current_score: f64,
    /// Advances when a committed vector changes a matrix entry.
    matrix_revision: u64,
    /// The matrix revision the last search ran against, and its output
    /// (`None` while the matrix was incomplete).
    searched_revision: Option<u64>,
    best: Option<(WeightConfig, f64)>,
    searches: u64,
}

impl AwarePolicy {
    /// Create an Aware policy for an `n`-replica system.
    pub fn new(n: usize, f: usize, optimize_after: SimTime) -> Self {
        let mut matrix = vec![f64::INFINITY; n * n];
        let mut recorded = vec![f64::INFINITY; n * n];
        for i in 0..n {
            matrix[i * n + i] = 0.0;
            recorded[i * n + i] = 0.0;
        }
        AwarePolicy {
            n,
            f,
            matrix,
            recorded,
            optimize_after,
            improvement_factor: 0.9,
            current_score: f64::INFINITY,
            matrix_revision: 0,
            searched_revision: None,
            best: None,
            searches: 0,
        }
    }

    /// True once every pair of replicas has a known latency.
    pub fn matrix_complete(&self) -> bool {
        self.matrix.iter().all(|x| x.is_finite())
    }

    /// How many configuration searches `decide` has run (diagnostic).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// The current symmetric RTT matrix (ms).
    pub fn matrix(&self) -> &[f64] {
        &self.matrix
    }

    fn apply_vector(&mut self, reporter: usize, rtt_ms: &[f64]) {
        if reporter >= self.n || rtt_ms.len() != self.n {
            return;
        }
        let mut changed = false;
        for (b, &reported) in rtt_ms.iter().enumerate() {
            if b == reporter {
                continue;
            }
            self.recorded[reporter * self.n + b] = reported;
            let ab = reported;
            let ba = self.recorded[b * self.n + reporter];
            let sym = match (ab.is_finite(), ba.is_finite()) {
                (true, true) => ab.max(ba),
                (true, false) => ab,
                (false, true) => ba,
                (false, false) => f64::INFINITY,
            };
            changed |= self.matrix[reporter * self.n + b] != sym;
            self.matrix[reporter * self.n + b] = sym;
            self.matrix[b * self.n + reporter] = sym;
        }
        self.matrix_revision += u64::from(changed);
    }
}

impl ReconfigPolicy for AwarePolicy {
    fn on_latency_vector(&mut self, reporter: usize, rtt_ms: &[f64]) -> Vec<Vec<u8>> {
        vec![encode_latency_blob(reporter, rtt_ms)]
    }

    fn on_round(&mut self, _record: &PbftRoundRecord) -> Vec<Vec<u8>> {
        Vec::new()
    }

    fn on_committed_measurement(&mut self, _replica_id: usize, blob: &[u8]) -> Vec<Vec<u8>> {
        if let Some(lb) = decode_latency_blob(blob) {
            self.apply_vector(lb.reporter, &lb.rtt_ms);
        }
        Vec::new()
    }

    fn decide(&mut self, current_epoch: u64, now: SimTime) -> Option<WeightConfig> {
        if now < self.optimize_after {
            return None;
        }
        if self.searched_revision != Some(self.matrix_revision) {
            self.searched_revision = Some(self.matrix_revision);
            self.best = self.matrix_complete().then(|| {
                self.searches += 1;
                let candidates: Vec<usize> = (0..self.n).collect();
                optimize_configuration(&self.matrix, self.n, self.f, &candidates, &[], 0)
            });
        }
        let (config, score) = self.best.as_ref()?;
        if *score < self.current_score * self.improvement_factor {
            self.current_score = *score;
            Some(WeightConfig {
                epoch: current_epoch + 1,
                ..config.clone()
            })
        } else {
            None
        }
    }

    fn name(&self) -> &'static str {
        "aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(n: usize, fast: &[usize], fast_ms: f64, slow_ms: f64) -> Vec<f64> {
        let mut m = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let both_fast = fast.contains(&a) && fast.contains(&b);
                m[a * n + b] = if both_fast { fast_ms } else { slow_ms };
            }
        }
        m
    }

    #[test]
    fn static_policy_never_reconfigures() {
        let mut p = StaticPolicy;
        assert!(p.on_latency_vector(0, &[0.0, 1.0]).is_empty());
        assert!(p.decide(0, SimTime::from_secs(1000)).is_none());
        assert_eq!(p.name(), "bft-smart");
    }

    #[test]
    fn latency_blob_roundtrip_with_infinity() {
        let blob = encode_latency_blob(2, &[0.0, 10.0, f64::INFINITY]);
        let decoded = decode_latency_blob(&blob).expect("decodes");
        assert_eq!(decoded.reporter, 2);
        assert_eq!(decoded.rtt_ms[1], 10.0);
        assert!(decoded.rtt_ms[2] >= 1.0e9);
        assert!(decode_latency_blob(b"not json").is_none());
    }

    #[test]
    fn aware_waits_for_complete_matrix_and_time() {
        let n = 4;
        let mut p = AwarePolicy::new(n, 1, SimTime::from_secs(40));
        let full = clustered(n, &[0, 1, 2], 10.0, 200.0);
        // Feed only two rows: the (2,3) pair is still unknown.
        for r in 0..2 {
            let row: Vec<f64> = (0..n).map(|b| full[r * n + b]).collect();
            p.on_committed_measurement(0, &encode_latency_blob(r, &row));
        }
        assert!(!p.matrix_complete());
        assert!(p.decide(0, SimTime::from_secs(41)).is_none());
        // Feed the remaining rows: complete, but before optimize_after no decision.
        for r in 2..n {
            let row: Vec<f64> = (0..n).map(|b| full[r * n + b]).collect();
            p.on_committed_measurement(0, &encode_latency_blob(r, &row));
        }
        assert!(p.matrix_complete());
        assert!(p.decide(0, SimTime::from_secs(10)).is_none());
        // After the measurement period the policy optimises.
        let cfg = p.decide(0, SimTime::from_secs(41)).expect("optimises");
        assert_eq!(cfg.epoch, 1);
        assert!([0, 1, 2].contains(&cfg.leader), "leader in the fast cluster");
    }

    #[test]
    fn aware_does_not_thrash_once_optimal() {
        let n = 4;
        let mut p = AwarePolicy::new(n, 1, SimTime::ZERO);
        let full = clustered(n, &[0, 1], 5.0, 100.0);
        for r in 0..n {
            let row: Vec<f64> = (0..n).map(|b| full[r * n + b]).collect();
            p.on_committed_measurement(0, &encode_latency_blob(r, &row));
        }
        let first = p.decide(0, SimTime::from_secs(1));
        assert!(first.is_some());
        // Same matrix again: no further reconfiguration (improvement below threshold).
        let second = p.decide(1, SimTime::from_secs(2));
        assert!(second.is_none());
    }

    #[test]
    fn identical_committed_measurements_give_identical_decisions() {
        let n = 4;
        let full = clustered(n, &[1, 2, 3], 8.0, 150.0);
        let feed = |p: &mut AwarePolicy| {
            for r in 0..n {
                let row: Vec<f64> = (0..n).map(|b| full[r * n + b]).collect();
                p.on_committed_measurement(0, &encode_latency_blob(r, &row));
            }
            p.decide(0, SimTime::from_secs(100))
        };
        let mut a = AwarePolicy::new(n, 1, SimTime::ZERO);
        let mut b = AwarePolicy::new(n, 1, SimTime::ZERO);
        assert_eq!(feed(&mut a), feed(&mut b));
    }
}

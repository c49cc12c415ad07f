//! Latency sensing and monitoring (§4.2.1).
//!
//! Each replica's LatencySensor compiles a *latency vector* of round-trip
//! times towards every other replica (from protocol messages or dedicated
//! probes) and proposes it to the log. The LatencyMonitor at every replica
//! folds committed vectors into the shared latency matrix `L`, preserving
//! symmetry with `L[A][B] = L[B][A] = max(Lr(A,B), Lr(B,A))`. Replicas that
//! fail to reply are recorded as unreachable (∞).

use runtime::Duration;
use serde::{Deserialize, Serialize};

/// Sentinel for an unreachable replica (the paper's ∞ entry).
pub const UNREACHABLE_MS: f64 = f64::INFINITY;

/// One replica's reported round-trip latencies towards all replicas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyVector {
    /// The reporting replica.
    pub reporter: usize,
    /// Round-trip latency in milliseconds to each replica; `f64::INFINITY`
    /// marks replicas that failed to reply, `0.0` at the reporter's own index.
    pub rtt_ms: Vec<f64>,
}

impl LatencyVector {
    /// Create a vector of `n` unreachable entries for `reporter`.
    pub fn unreachable(reporter: usize, n: usize) -> Self {
        let mut rtt_ms = vec![UNREACHABLE_MS; n];
        if reporter < n {
            rtt_ms[reporter] = 0.0;
        }
        LatencyVector { reporter, rtt_ms }
    }

    /// Create a vector from measured RTTs.
    pub fn new(reporter: usize, rtt_ms: Vec<f64>) -> Self {
        LatencyVector { reporter, rtt_ms }
    }

    /// Record a measurement towards `target`.
    pub fn record(&mut self, target: usize, rtt: Duration) {
        if target < self.rtt_ms.len() {
            self.rtt_ms[target] = rtt.as_millis_f64();
        }
    }

    /// Number of replicas covered.
    pub fn len(&self) -> usize {
        self.rtt_ms.len()
    }

    /// True if the vector covers no replicas.
    pub fn is_empty(&self) -> bool {
        self.rtt_ms.is_empty()
    }

    /// Wire size in bytes: 2 bytes per entry using the compact encoding the
    /// paper describes for keeping proposal overhead low (§7.8), plus the
    /// reporter id.
    pub fn wire_bytes(&self) -> usize {
        8 + 2 * self.rtt_ms.len()
    }
}

/// The shared latency matrix `L` derived from committed latency vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyMatrix {
    n: usize,
    /// Row-major RTT in milliseconds; `INFINITY` where unknown/unreachable.
    rtt_ms: Vec<f64>,
    /// Raw per-reporter recorded values, kept to re-derive symmetry on update.
    recorded: Vec<f64>,
}

impl LatencyMatrix {
    /// Create an empty (all-unknown) matrix for `n` replicas.
    pub fn new(n: usize) -> Self {
        let mut m = LatencyMatrix {
            n,
            rtt_ms: vec![UNREACHABLE_MS; n * n],
            recorded: vec![UNREACHABLE_MS; n * n],
        };
        for i in 0..n {
            m.rtt_ms[i * n + i] = 0.0;
            m.recorded[i * n + i] = 0.0;
        }
        m
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix covers no replicas.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Symmetric RTT between two replicas in milliseconds.
    pub fn rtt(&self, a: usize, b: usize) -> f64 {
        self.rtt_ms[a * self.n + b]
    }

    /// One-way latency estimate (half the RTT) in milliseconds.
    pub fn one_way(&self, a: usize, b: usize) -> f64 {
        self.rtt(a, b) / 2.0
    }

    /// True if the latency between `a` and `b` is known (not ∞).
    pub fn is_known(&self, a: usize, b: usize) -> bool {
        self.rtt(a, b).is_finite()
    }

    /// True if every pair of replicas has a known latency.
    pub fn is_complete(&self) -> bool {
        (0..self.n).all(|a| (0..self.n).all(|b| self.is_known(a, b)))
    }

    /// Apply a committed latency vector: overwrite the reporter's row with
    /// the recorded values, then re-derive the symmetric matrix entry as
    /// `max` of the two directions (§4.2.1). Returns true if any entry of
    /// the symmetric matrix changed.
    pub fn apply_vector(&mut self, v: &LatencyVector) -> bool {
        if v.rtt_ms.len() != self.n || v.reporter >= self.n {
            return false;
        }
        let r = v.reporter;
        let mut changed = false;
        for b in 0..self.n {
            if b == r {
                continue;
            }
            self.recorded[r * self.n + b] = v.rtt_ms[b];
            let ab = self.recorded[r * self.n + b];
            let ba = self.recorded[b * self.n + r];
            // max(recorded both ways); if only one direction known, use it.
            let sym = match (ab.is_finite(), ba.is_finite()) {
                (true, true) => ab.max(ba),
                (true, false) => ab,
                (false, true) => ba,
                (false, false) => UNREACHABLE_MS,
            };
            changed |= self.rtt_ms[r * self.n + b] != sym;
            self.rtt_ms[r * self.n + b] = sym;
            self.rtt_ms[b * self.n + r] = sym;
        }
        changed
    }

    /// The full symmetric RTT matrix in milliseconds, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.rtt_ms
    }
}

/// The LatencyMonitor: consumes committed latency vectors and maintains `L`.
#[derive(Debug, Clone)]
pub struct LatencyMonitor {
    matrix: LatencyMatrix,
    vectors_applied: u64,
    /// Advances only when a vector changed a matrix entry, so consumers can
    /// key work derived from `L` on it.
    revision: u64,
}

impl LatencyMonitor {
    /// Create a monitor for `n` replicas.
    pub fn new(n: usize) -> Self {
        LatencyMonitor {
            matrix: LatencyMatrix::new(n),
            vectors_applied: 0,
            revision: 0,
        }
    }

    /// Process a committed latency vector.
    pub fn on_vector(&mut self, v: &LatencyVector) {
        if self.matrix.apply_vector(v) {
            self.revision += 1;
        }
        self.vectors_applied += 1;
    }

    /// Revision of the matrix: the number of committed vectors that changed
    /// an entry. A re-reported, unchanged vector leaves it where it was.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The current latency matrix.
    pub fn matrix(&self) -> &LatencyMatrix {
        &self.matrix
    }

    /// Number of vectors applied so far.
    pub fn vectors_applied(&self) -> u64 {
        self.vectors_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_construction_and_recording() {
        let mut v = LatencyVector::unreachable(1, 4);
        assert_eq!(v.rtt_ms[1], 0.0);
        assert!(v.rtt_ms[0].is_infinite());
        v.record(0, Duration::from_millis(30));
        assert_eq!(v.rtt_ms[0], 30.0);
        assert_eq!(v.len(), 4);
        assert_eq!(v.wire_bytes(), 8 + 8);
    }

    #[test]
    fn matrix_symmetry_uses_max() {
        let mut m = LatencyMatrix::new(3);
        m.apply_vector(&LatencyVector::new(0, vec![0.0, 10.0, 20.0]));
        m.apply_vector(&LatencyVector::new(1, vec![14.0, 0.0, 30.0]));
        // L[0][1] = max(10, 14) = 14, both directions.
        assert_eq!(m.rtt(0, 1), 14.0);
        assert_eq!(m.rtt(1, 0), 14.0);
        // 0->2 known only from 0's report.
        assert_eq!(m.rtt(0, 2), 20.0);
        assert_eq!(m.rtt(2, 0), 20.0);
        assert_eq!(m.one_way(0, 1), 7.0);
    }

    #[test]
    fn later_vector_updates_symmetry() {
        let mut m = LatencyMatrix::new(2);
        m.apply_vector(&LatencyVector::new(0, vec![0.0, 10.0]));
        m.apply_vector(&LatencyVector::new(1, vec![50.0, 0.0]));
        assert_eq!(m.rtt(0, 1), 50.0);
        // Replica 1 re-reports a lower latency; max with 0's 10 -> 10.
        m.apply_vector(&LatencyVector::new(1, vec![5.0, 0.0]));
        assert_eq!(m.rtt(0, 1), 10.0);
    }

    #[test]
    fn unreachable_entries_stay_infinite() {
        let mut m = LatencyMatrix::new(3);
        let mut v = LatencyVector::unreachable(0, 3);
        v.record(1, Duration::from_millis(25));
        m.apply_vector(&v);
        assert!(m.is_known(0, 1));
        assert!(!m.is_known(0, 2));
        assert!(!m.is_complete());
    }

    #[test]
    fn completeness_after_all_reports() {
        let mut mon = LatencyMonitor::new(3);
        mon.on_vector(&LatencyVector::new(0, vec![0.0, 10.0, 20.0]));
        mon.on_vector(&LatencyVector::new(1, vec![10.0, 0.0, 15.0]));
        mon.on_vector(&LatencyVector::new(2, vec![20.0, 15.0, 0.0]));
        assert!(mon.matrix().is_complete());
        assert_eq!(mon.vectors_applied(), 3);
    }

    #[test]
    fn revision_advances_only_when_an_entry_changes() {
        let mut mon = LatencyMonitor::new(3);
        let v0 = LatencyVector::new(0, vec![0.0, 10.0, 20.0]);
        mon.on_vector(&v0);
        assert_eq!(mon.revision(), 1);
        // The same vector again changes nothing.
        mon.on_vector(&v0);
        assert_eq!(mon.revision(), 1);
        // A lower report from the other direction is masked by the max.
        mon.on_vector(&LatencyVector::new(1, vec![4.0, 0.0, f64::INFINITY]));
        assert_eq!(mon.revision(), 1);
        assert_eq!(mon.matrix().rtt(0, 1), 10.0);
        // A higher one is not.
        mon.on_vector(&LatencyVector::new(1, vec![14.0, 0.0, 15.0]));
        assert_eq!(mon.revision(), 2);
        // Malformed vectors are ignored.
        mon.on_vector(&LatencyVector::new(9, vec![0.0, 1.0, 2.0]));
        assert_eq!(mon.revision(), 2);
        assert_eq!(mon.vectors_applied(), 5);
    }

    #[test]
    fn malformed_vector_ignored() {
        let mut m = LatencyMatrix::new(3);
        m.apply_vector(&LatencyVector::new(0, vec![0.0, 1.0])); // wrong length
        m.apply_vector(&LatencyVector::new(7, vec![0.0, 1.0, 2.0])); // bad reporter
        assert!(!m.is_known(0, 1));
    }
}

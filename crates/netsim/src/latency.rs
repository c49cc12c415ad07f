//! Per-link latency models.
//!
//! The simulator asks a [`LatencyModel`] for the one-way latency of every
//! message it delivers. The paper's evaluation injects latency from a
//! city-to-city round-trip dataset; deployments reproduce that setup by
//! building a [`MatrixLatency`] from the synthetic [`crate::cities`]
//! dataset's RTTs, while [`UniformLatency`] is useful for tests.
//!
//! Conventions: models return *one-way* latency. The paper reports round-trip
//! times (RTT); helpers that build models from RTT data halve the values.

use crate::sim::NodeId;
use crate::time::Duration;

/// One-way latency between two nodes.
pub trait LatencyModel: Send {
    /// One-way latency for a message from `from` to `to`.
    fn latency(&self, from: NodeId, to: NodeId) -> Duration;

    /// Number of nodes this model covers.
    fn len(&self) -> usize;

    /// True if the model covers no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Round-trip latency between two nodes (sum of both directions).
    fn rtt(&self, a: NodeId, b: NodeId) -> Duration {
        self.latency(a, b) + self.latency(b, a)
    }
}

/// All pairs share the same one-way latency (plus zero for self-messages).
#[derive(Debug, Clone)]
pub struct UniformLatency {
    nodes: usize,
    one_way: Duration,
}

impl UniformLatency {
    /// Create a uniform model for `nodes` nodes with the given one-way latency.
    pub fn new(nodes: usize, one_way: Duration) -> Self {
        UniformLatency { nodes, one_way }
    }
}

impl LatencyModel for UniformLatency {
    fn latency(&self, from: NodeId, to: NodeId) -> Duration {
        if from == to {
            Duration::ZERO
        } else {
            self.one_way
        }
    }

    fn len(&self) -> usize {
        self.nodes
    }
}

/// Explicit n×n one-way latency matrix.
#[derive(Debug, Clone)]
pub struct MatrixLatency {
    n: usize,
    /// Row-major one-way latencies, `matrix[from * n + to]`.
    matrix: Vec<Duration>,
}

impl MatrixLatency {
    /// Build from a row-major matrix of one-way latencies.
    ///
    /// # Panics
    /// Panics if `matrix.len() != n * n`.
    pub fn new(n: usize, matrix: Vec<Duration>) -> Self {
        assert_eq!(matrix.len(), n * n, "latency matrix must be n*n");
        MatrixLatency { n, matrix }
    }

    /// Build a symmetric model from per-pair round-trip times in milliseconds.
    /// The one-way latency is rtt/2; the diagonal is zero.
    pub fn from_rtt_millis(n: usize, rtt_ms: &[f64]) -> Self {
        assert_eq!(rtt_ms.len(), n * n, "rtt matrix must be n*n");
        let mut matrix = vec![Duration::ZERO; n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    matrix[a * n + b] = Duration::from_millis_f64(rtt_ms[a * n + b] / 2.0);
                }
            }
        }
        MatrixLatency { n, matrix }
    }

    /// Overwrite the one-way latency of a single directed link.
    pub fn set(&mut self, from: NodeId, to: NodeId, one_way: Duration) {
        self.matrix[from * self.n + to] = one_way;
    }
}

impl LatencyModel for MatrixLatency {
    fn latency(&self, from: NodeId, to: NodeId) -> Duration {
        if from == to {
            Duration::ZERO
        } else {
            self.matrix[from * self.n + to]
        }
    }

    fn len(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_latency() {
        let m = UniformLatency::new(4, Duration::from_millis(10));
        assert_eq!(m.latency(0, 1).as_millis(), 10);
        assert_eq!(m.latency(2, 2).as_millis(), 0);
        assert_eq!(m.rtt(0, 3).as_millis(), 20);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn matrix_latency_from_rtt() {
        let rtt = vec![0.0, 100.0, 100.0, 0.0];
        let m = MatrixLatency::from_rtt_millis(2, &rtt);
        assert_eq!(m.latency(0, 1).as_millis(), 50);
        assert_eq!(m.latency(0, 0).as_millis(), 0);
        assert_eq!(m.rtt(0, 1).as_millis(), 100);
    }

    #[test]
    fn matrix_set_overrides_link() {
        let mut m = MatrixLatency::new(2, vec![Duration::ZERO; 4]);
        m.set(0, 1, Duration::from_millis(42));
        assert_eq!(m.latency(0, 1).as_millis(), 42);
        assert_eq!(m.latency(1, 0).as_millis(), 0, "directed override");
    }

    #[test]
    #[should_panic(expected = "n*n")]
    fn matrix_wrong_size_panics() {
        MatrixLatency::new(3, vec![Duration::ZERO; 4]);
    }
}

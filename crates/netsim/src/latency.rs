//! Per-link latency models.
//!
//! The simulator asks a [`LatencyModel`] for the one-way latency of every
//! message it delivers. The paper's evaluation injects latency from a
//! city-to-city round-trip dataset; [`GeoLatency`] reproduces that setup from
//! the synthetic [`crate::cities`] dataset, while [`MatrixLatency`] and
//! [`UniformLatency`] are useful for tests and microbenchmarks.
//!
//! Conventions: models return *one-way* latency. The paper reports round-trip
//! times (RTT); helpers that build models from RTT data halve the values.

use crate::cities::CityDataset;
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

/// Latency derived from a geographic city dataset: each node is assigned a
/// city, and the one-way latency of a link is half of the RTT between the two
/// cities plus a fixed base delay (the paper adds 1 ms of real network delay).
#[derive(Debug, Clone)]
pub struct GeoLatency {
    /// City index assigned to each node.
    assignment: Vec<usize>,
    /// Pairwise city RTTs in milliseconds.
    rtt_ms: Vec<f64>,
    cities: usize,
    base: Duration,
}

impl GeoLatency {
    /// Build from a dataset and a node→city assignment.
    ///
    /// # Panics
    /// Panics if an assignment index is out of range for the dataset.
    pub fn new(dataset: &CityDataset, assignment: Vec<usize>, base: Duration) -> Self {
        let cities = dataset.len();
        for &c in &assignment {
            assert!(c < cities, "city index {c} out of range ({cities} cities)");
        }
        GeoLatency {
            assignment,
            rtt_ms: dataset.rtt_matrix_ms(),
            cities,
            base,
        }
    }

    /// City index for a node.
    pub fn city_of(&self, node: NodeId) -> usize {
        self.assignment[node]
    }

    /// RTT in milliseconds between the cities of two nodes (excluding base delay).
    pub fn city_rtt_ms(&self, a: NodeId, b: NodeId) -> f64 {
        let (ca, cb) = (self.assignment[a], self.assignment[b]);
        self.rtt_ms[ca * self.cities + cb]
    }
}

impl LatencyModel for GeoLatency {
    fn latency(&self, from: NodeId, to: NodeId) -> Duration {
        if from == to {
            return Duration::ZERO;
        }
        let rtt = self.city_rtt_ms(from, to);
        Duration::from_millis_f64(rtt / 2.0) + self.base
    }

    fn len(&self) -> usize {
        self.assignment.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::{CityDataset, Region};

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

    #[test]
    fn geo_latency_uses_city_assignment() {
        let ds = CityDataset::worldwide();
        let europe = ds.region_indices(Region::Europe);
        let asia = ds.region_indices(Region::Asia);
        let assignment = vec![europe[0], europe[1], asia[0]];
        let geo = GeoLatency::new(&ds, assignment, Duration::from_millis(1));
        // Intra-Europe should be clearly faster than Europe-Asia.
        assert!(geo.latency(0, 1) < geo.latency(0, 2));
        assert_eq!(geo.latency(1, 1), Duration::ZERO);
        assert_eq!(geo.len(), 3);
    }
}

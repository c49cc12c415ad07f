//! Count-based guard for the incremental role-assignment path: an OptiAware
//! replica searches for a configuration when the committed log gives it
//! something new, not on every commit.
//!
//! The counts are exact functions of the deterministic run, so the bounds
//! cannot flake. Each replica's policy is wrapped in an observer that counts
//! what the log delivered — vectors that changed the latency matrix,
//! suspicions, leader terms — from the same calls the policy receives, and
//! reads the policy's own `searches()` diagnostic.

use lab::harness::run;
use lab::{Deployment, Topology, TrafficSpec};
use netsim::{Duration, FaultPlan, MatrixLatency, SimTime};
use optiaware::{OptiAwareBlob, OptiAwarePolicy};
use optilog::{LatencyMonitor, LatencyVector};
use pbft::score::optimize_configuration;
use pbft::{PbftConfig, PbftRoundRecord, ReconfigPolicy, WeightConfig};
use std::sync::{Arc, Mutex};
use traffic::SharedTrafficQueue;

/// What one replica's policy was handed, and what it did with it.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    /// `decide` calls: one per commit.
    commits: u64,
    /// Committed latency vectors that changed a matrix entry.
    changing_vectors: u64,
    /// Committed suspicions, Slow and False.
    suspicions: u64,
    /// Distinct epochs `decide` ran under.
    terms: u64,
    /// Configuration searches the policy ran.
    searches: u64,
}

struct Observed {
    id: usize,
    inner: OptiAwarePolicy,
    /// The same matrix the policy keeps, to tell changing vectors apart.
    matrix: LatencyMonitor,
    last_epoch: Option<u64>,
    seen: Seen,
    out: Arc<Mutex<Vec<Seen>>>,
}

impl ReconfigPolicy for Observed {
    fn on_latency_vector(&mut self, reporter: usize, rtt_ms: &[f64]) -> Vec<Vec<u8>> {
        self.inner.on_latency_vector(reporter, rtt_ms)
    }

    fn on_round(&mut self, record: &PbftRoundRecord) -> Vec<Vec<u8>> {
        self.inner.on_round(record)
    }

    fn observation_hold(&self) -> Duration {
        self.inner.observation_hold()
    }

    fn on_committed_measurement(&mut self, replica_id: usize, blob: &[u8]) -> Vec<Vec<u8>> {
        match OptiAwareBlob::decode(blob) {
            Some(OptiAwareBlob::Latency { reporter, rtt_ms }) => {
                self.matrix.on_vector(&LatencyVector::new(reporter, rtt_ms));
                self.seen.changing_vectors = self.matrix.revision();
            }
            Some(OptiAwareBlob::Suspicion(_)) => self.seen.suspicions += 1,
            None => {}
        }
        self.inner.on_committed_measurement(replica_id, blob)
    }

    fn decide(&mut self, current_epoch: u64, now: SimTime) -> Option<WeightConfig> {
        let decision = self.inner.decide(current_epoch, now);
        self.seen.commits += 1;
        if self.last_epoch != Some(current_epoch) {
            self.last_epoch = Some(current_epoch);
            self.seen.terms += 1;
        }
        self.seen.searches = self.inner.searches();
        self.out.lock().expect("no observer panicked")[self.id] = self.seen;
        decision
    }
}

#[test]
fn optiaware_searches_on_log_events_not_on_commits() {
    let (n, f) = (7, 2);
    let rtt = Topology::with_n(Deployment::Europe21, n).rtt_matrix(0);
    let all: Vec<usize> = (0..n).collect();
    let (optimised, _) = optimize_configuration(&rtt, n, f, &all, &[], 1);

    let out = Arc::new(Mutex::new(vec![Seen::default(); n]));
    let load = TrafficSpec::poisson(100.0)
        .with_clients(8)
        .with_batching(100, Duration::from_millis(25));
    let queue = SharedTrafficQueue::generate(&load, &[1.0; 8], 0, SimTime::from_secs(10));
    let mut config = PbftConfig::new(n, f, queue, |id| {
        Box::new(Observed {
            id,
            inner: OptiAwarePolicy::new(id, n, f, SimTime::from_secs(2)),
            matrix: LatencyMonitor::new(n),
            last_epoch: None,
            seen: Seen::default(),
            out: Arc::clone(&out),
        }) as Box<dyn ReconfigPolicy>
    })
    .run_for(Duration::from_secs(10));
    // One delay stage: the leader the optimisation picks at 2 s holds its
    // proposals from 4 s on, until the suspicions it earns depose it.
    config.misbehavior.delay_proposals_during(
        optimised.leader,
        Duration::from_millis(800),
        SimTime::from_secs(4),
        SimTime::from_secs(8),
    );
    let latency = MatrixLatency::from_rtt_millis(n, &rtt);
    let (report, _) = run(&config, Box::new(latency), FaultPlan::none());

    // The scenario is not vacuous: the optimisation, then the mitigation.
    assert!(
        report.roles.reconfigurations.len() >= 2,
        "expected optimisation and mitigation, got {:?}",
        report.roles.reconfigurations
    );
    let seen = out.lock().expect("no observer panicked").clone();
    for (id, s) in seen.iter().enumerate() {
        assert!(s.commits > 100, "replica {id} barely ran: {s:?}");
        assert!(s.searches >= 1, "replica {id} never searched: {s:?}");
        assert!(
            s.searches <= s.changing_vectors + s.suspicions + s.terms + 1,
            "replica {id} searched without a log event to search for: {s:?}"
        );
        assert!(
            s.searches * 10 <= s.commits,
            "replica {id} searches at commit rate: {s:?}"
        );
    }
}

//! A PBFT-family run as a value: `n` replicas fed by an open-loop traffic
//! queue, how they become a node set, and how the finished nodes are read
//! back into a [`RunReport`].

use crate::policy::ReconfigPolicy;
use crate::replica::ReplicaState;
use rsm::{Cluster, MisbehaviorPlan, RunReport};
use runtime::Duration;
use telemetry::{Instrumented, Telemetry};
use traffic::SharedTrafficQueue;

/// Configuration of one PBFT run. `policy(id)` builds replica `id`'s
/// reconfiguration policy (static, Aware, OptiAware).
pub struct PbftConfig<F> {
    /// Number of replicas.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// Virtual run duration.
    pub run_for: Duration,
    /// Scripted protocol-level misbehavior (Pre-Prepare delay attacks).
    pub misbehavior: MisbehaviorPlan,
    /// The open-loop traffic source leaders pull batches from: geo-placed
    /// clients compiled into one queue shared by every replica.
    pub traffic: SharedTrafficQueue,
    /// Telemetry handle installed on every replica (disabled by default).
    pub telemetry: Telemetry,
    /// Per-replica reconfiguration-policy factory.
    pub policy: F,
}

impl<F: Fn(usize) -> Box<dyn ReconfigPolicy>> PbftConfig<F> {
    /// A correct-replica configuration proposing from `traffic`.
    pub fn new(n: usize, f: usize, traffic: SharedTrafficQueue, policy: F) -> Self {
        PbftConfig {
            n,
            f,
            run_for: Duration::from_secs(180),
            misbehavior: MisbehaviorPlan::none(),
            traffic,
            telemetry: Telemetry::disabled(),
            policy,
        }
    }

    /// Override the run duration.
    pub fn run_for(mut self, d: Duration) -> Self {
        self.run_for = d;
        self
    }
}

/// The PBFT family's section of a [`RunReport`]: who led when.
#[derive(Debug)]
pub struct PbftRoles {
    /// Times (in seconds) at which the best-informed correct replica
    /// reconfigured, with the new leader.
    pub reconfigurations: Vec<(f64, usize)>,
}

impl<F> Instrumented for PbftConfig<F> {
    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

impl<F: Fn(usize) -> Box<dyn ReconfigPolicy>> Cluster for PbftConfig<F> {
    type Node = ReplicaState;
    type Roles = PbftRoles;
    type Provenance = ();

    fn run_for(&self) -> Duration {
        self.run_for
    }

    fn build(&self) -> Vec<ReplicaState> {
        (0..self.n)
            .map(|id| {
                ReplicaState::new(id, self.n, self.f, self.traffic.clone(), (self.policy)(id))
                    .with_delays(self.misbehavior.stages_for(id))
                    .with_telemetry(self.telemetry.clone())
            })
            .collect()
    }

    fn report(&self, nodes: &mut [ReplicaState], run_secs: u64) -> RunReport<PbftRoles> {
        let mut reconfigurations = Vec::new();
        let mut observed = None;
        let mut checkpoints = Vec::new();
        for (id, r) in nodes.iter().enumerate() {
            checkpoints.push(r.commit_checkpoints().to_vec());
            let correct = self.misbehavior.stages_for(id).is_empty();
            // Role history from the best-informed correct replica
            // (longest history, lowest id on ties), as for the trees'
            // configuration log: a crashed replica's history stops
            // at the crash, and a deposed leader that never commits
            // under the new epoch never records the change.
            if correct && r.reconfigs.len() > reconfigurations.len() {
                reconfigurations = r
                    .reconfigs
                    .iter()
                    .map(|e| (e.at.as_secs_f64(), e.config.leader))
                    .collect();
            }
            // The consensus-side vantage point is the first correct
            // replica: a delaying leader's own statistics hide the
            // gap it opens for everyone else.
            if correct {
                observed.get_or_insert(&r.stats);
            }
        }
        let stats = observed.expect("at least one correct replica");
        RunReport {
            summary: stats.summary(run_secs),
            latency_timeline: stats.latency_timeline(),
            throughput_timeline: stats.throughput_buckets(),
            oracle: telemetry::PBFT_SURFACE.name,
            checkpoints,
            provenance: (),
            roles: PbftRoles { reconfigurations },
        }
    }
}

//! A PBFT-family run as a value: `n` replicas plus co-located closed-loop
//! clients (or an open-loop traffic queue), how they become a node set, and
//! how the finished nodes are read back into a [`RunReport`].

use crate::policy::ReconfigPolicy;
use crate::replica::{ClientState, PbftNode, ReplicaState};
use rsm::{Cluster, MisbehaviorPlan, RunReport};
use runtime::{Duration, TimeSeries};
use telemetry::{Instrumented, Telemetry};
use traffic::SharedTrafficQueue;

/// Configuration of one PBFT run. `policy(id)` builds replica `id`'s
/// reconfiguration policy (static, Aware, OptiAware).
pub struct PbftConfig<F> {
    /// Number of replicas.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// Number of clients (client `i` is node `n + i`, co-located with
    /// replica `i % n`).
    pub clients: usize,
    /// Virtual run duration.
    pub run_for: Duration,
    /// Scripted protocol-level misbehavior (Pre-Prepare delay attacks).
    pub misbehavior: MisbehaviorPlan,
    /// Open-loop traffic source. When set, `clients` must be 0 (the load is
    /// geo-placed open-loop clients compiled into the queue, not simulated
    /// closed-loop client nodes) and leaders pull batches from the queue.
    pub traffic: Option<SharedTrafficQueue>,
    /// Telemetry handle installed on every replica (disabled by default).
    pub telemetry: Telemetry,
    /// Per-replica reconfiguration-policy factory.
    pub policy: F,
}

impl<F: Fn(usize) -> Box<dyn ReconfigPolicy>> PbftConfig<F> {
    /// A correct-replica configuration.
    pub fn new(n: usize, f: usize, clients: usize, policy: F) -> Self {
        PbftConfig {
            n,
            f,
            clients,
            run_for: Duration::from_secs(180),
            misbehavior: MisbehaviorPlan::none(),
            traffic: None,
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

/// The PBFT family's section of a [`RunReport`]: who led when, and what the
/// closed-loop clients saw.
#[derive(Debug)]
pub struct PbftRoles {
    /// End-to-end latency timeline per client (seconds, ms).
    pub client_latency: Vec<TimeSeries>,
    /// Requests completed per client.
    pub client_completed: Vec<u64>,
    /// Times (in seconds) at which the best-informed correct replica
    /// reconfigured, with the new leader.
    pub reconfigurations: Vec<(f64, usize)>,
}

impl PbftRoles {
    /// Mean client latency (ms) over a virtual-time window `[from, to)` seconds.
    pub fn mean_client_latency(&self, from: f64, to: f64) -> f64 {
        let vals: Vec<f64> = self
            .client_latency
            .iter()
            .map(|ts| rsm::timeline_mean(ts.points(), from, to))
            .filter(|&v| v > 0.0)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

impl<F> Instrumented for PbftConfig<F> {
    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

impl<F: Fn(usize) -> Box<dyn ReconfigPolicy>> Cluster for PbftConfig<F> {
    type Node = PbftNode;
    type Roles = PbftRoles;
    type Provenance = ();

    fn run_for(&self) -> Duration {
        self.run_for
    }

    fn build(&self) -> Vec<PbftNode> {
        assert!(
            self.traffic.is_none() || self.clients == 0,
            "open-loop traffic replaces the simulated clients; configure clients = 0"
        );
        let replicas = (0..self.n).map(|id| {
            PbftNode::Replica(
                ReplicaState::new(id, self.n, self.f, (self.policy)(id))
                    .with_delays(self.misbehavior.stages_for(id))
                    .with_traffic(self.traffic.clone())
                    .with_telemetry(self.telemetry.clone()),
            )
        });
        let clients =
            (0..self.clients).map(|c| PbftNode::Client(ClientState::new(c as u64, self.n, self.f)));
        replicas.chain(clients).collect()
    }

    fn report(&self, nodes: &mut [PbftNode], run_secs: u64) -> RunReport<PbftRoles> {
        let mut roles = PbftRoles {
            client_latency: Vec::new(),
            client_completed: Vec::new(),
            reconfigurations: Vec::new(),
        };
        let mut observed = None;
        let mut checkpoints = Vec::new();
        for (id, node) in nodes.iter_mut().enumerate() {
            match node {
                PbftNode::Replica(r) => {
                    checkpoints.push(r.commit_checkpoints().to_vec());
                    let correct = self.misbehavior.stages_for(id).is_empty();
                    // Role history from the best-informed correct replica
                    // (longest history, lowest id on ties), as for the trees'
                    // configuration log: a crashed replica's history stops
                    // at the crash, and a deposed leader that never commits
                    // under the new epoch never records the change.
                    if correct && r.reconfigs.len() > roles.reconfigurations.len() {
                        roles.reconfigurations = r
                            .reconfigs
                            .iter()
                            .map(|e| (e.at.as_secs_f64(), e.config.leader))
                            .collect();
                    }
                    // The consensus-side vantage point is the first correct
                    // replica: a delaying leader's own statistics hide the
                    // gap it opens for everyone else.
                    if observed.is_none() && correct {
                        observed = Some((
                            r.stats.summary(run_secs),
                            r.stats.latency_timeline().points().to_vec(),
                            r.stats.throughput_buckets().to_vec(),
                        ));
                    }
                }
                PbftNode::Client(c) => {
                    roles.client_latency.push(c.latency.clone());
                    roles.client_completed.push(c.completed);
                }
            }
        }
        let (summary, latency_timeline, throughput_timeline) =
            observed.expect("at least one correct replica");
        RunReport {
            summary,
            latency_timeline,
            throughput_timeline,
            oracle: "pbft",
            checkpoints,
            provenance: (),
            roles,
        }
    }
}

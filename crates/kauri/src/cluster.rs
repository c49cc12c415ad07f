//! A Kauri (or any [`TreePolicy`]-driven) run as a value: the configuration
//! plus its policy factory, how they become a replica set, and how the
//! finished replicas are read back into a [`RunReport`].

use crate::node::{KauriNode, TreeCommand};
use crate::policy::TreePolicy;
use crate::tree::Tree;
use configlog::SuspicionPair;
use rsm::{Cluster, CommitStats, MisbehaviorPlan, RunReport, SystemConfig};
use runtime::Duration;
use telemetry::{Instrumented, Telemetry};
use traffic::SharedTrafficQueue;

/// Commands per saturated block (§7.3).
const PAPER_BATCH: usize = 1000;

/// Configuration of a Kauri experiment run.
pub struct KauriConfig {
    /// System size and fault threshold.
    pub system: SystemConfig,
    /// Tree branch factor (the paper uses `b = (√(4n−3) − 1)/2`).
    pub branch: usize,
    /// Number of concurrently pipelined views (the paper uses 3; 1 disables
    /// pipelining).
    pub pipeline: usize,
    /// Virtual run duration.
    pub run_for: Duration,
    /// Delay between a tree failure and the new root resuming proposals
    /// (models the configuration search, e.g. 1 s of simulated annealing).
    pub reconfig_delay: Duration,
    /// Scripted protocol-level misbehavior (proposal-delay attacks).
    pub misbehavior: MisbehaviorPlan,
    /// The proposal source every (rotating) root shares, one per run: the
    /// paper's saturated 1000-command batches by default, or an open-loop
    /// admission queue.
    pub traffic: SharedTrafficQueue,
    /// Telemetry handle installed on every replica (disabled by default).
    pub telemetry: Telemetry,
}

impl KauriConfig {
    /// The paper's defaults for `n` replicas.
    pub fn new(n: usize) -> Self {
        let system = SystemConfig::new(n);
        KauriConfig {
            branch: system.tree_branch_factor(),
            system,
            pipeline: 3,
            run_for: Duration::from_secs(120),
            reconfig_delay: Duration::from_secs(1),
            misbehavior: MisbehaviorPlan::none(),
            traffic: SharedTrafficQueue::saturated(PAPER_BATCH),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Disable pipelining.
    pub fn without_pipelining(mut self) -> Self {
        self.pipeline = 1;
        self
    }
}

/// A tree-overlay cluster: the run configuration plus the policy every
/// replica selects trees with. `policy(id)` must produce identically-seeded
/// policies so replicas agree on successor trees.
pub struct KauriCluster<F> {
    /// The run configuration.
    pub config: KauriConfig,
    /// Per-replica tree-policy factory.
    pub policy: F,
}

impl<F: Fn(usize) -> Box<dyn TreePolicy>> KauriCluster<F> {
    /// Pair a configuration with its policy factory.
    pub fn new(config: KauriConfig, policy: F) -> Self {
        KauriCluster { config, policy }
    }
}

/// The tree families' section of a [`RunReport`]: the role history the
/// configuration log recorded.
pub struct KauriRoles {
    /// Number of tree reconfigurations observed (max over replicas).
    pub reconfigurations: usize,
    /// The tree the observer's configuration log holds at the end of the run
    /// (the last *committed* configuration).
    pub final_tree: Tree,
    /// Tree epochs the observer adopted through the log (excluding genesis).
    pub adopted_epochs: usize,
    /// Suspicion pairs committed through the log (the observer's view).
    pub committed_pairs: Vec<SuspicionPair>,
    /// Replicas the observer's policy excludes from internal positions at
    /// the end of the run.
    pub excluded: Vec<usize>,
}

impl<F> Instrumented for KauriCluster<F> {
    fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }
}

impl<F: Fn(usize) -> Box<dyn TreePolicy>> Cluster for KauriCluster<F> {
    type Node = KauriNode;
    type Roles = KauriRoles;
    /// The observer's committed configuration commands in log order
    /// (identical across replicas when the adoption oracle holds).
    type Provenance = Vec<(u64, TreeCommand)>;

    fn run_for(&self) -> Duration {
        self.config.run_for
    }

    fn build(&self) -> Vec<KauriNode> {
        let config = &self.config;
        let n = config.system.n;
        let nodes: Vec<KauriNode> = (0..n)
            .map(|id| {
                let mut policy = (self.policy)(id);
                // The policy's first tree is the initial tree; consuming it
                // here makes the policy's next call yield tree #2.
                let tree = policy.next_tree(n, config.branch);
                KauriNode::new(
                    id,
                    config.system,
                    tree,
                    policy,
                    PAPER_BATCH, // gives way to the run's queue below
                    config.pipeline,
                    config.branch,
                    config.reconfig_delay,
                )
                .with_delays(config.misbehavior.stages_for(id))
                .with_traffic(Some(config.traffic.clone()))
                .with_telemetry(config.telemetry.clone())
            })
            .collect();
        // Identically seeded policies hand every replica the same start.
        debug_assert!(
            nodes.iter().all(|node| node.tree() == nodes[0].tree()),
            "replicas must start from one initial tree"
        );
        nodes
    }

    fn report(
        &self,
        nodes: &mut [KauriNode],
        run_secs: u64,
    ) -> RunReport<KauriRoles, Vec<(u64, TreeCommand)>> {
        // Each commit is recorded once, at the root that proposed the view,
        // so the merged records hold every commit exactly once.
        let stats = CommitStats::merge(nodes.iter().map(|node| &node.stats));
        // One bucket per second of the nominal run, as the tree figures plot it.
        let mut throughput_timeline = stats.throughput_buckets();
        throughput_timeline.resize(run_secs as usize + 1, 0);
        let reconfigurations = nodes
            .iter()
            .map(|node| node.reconfig_times.len())
            .max()
            .unwrap_or(0);
        let checkpoints = nodes
            .iter()
            .map(|node| node.config_checkpoints().to_vec())
            .collect();
        // Configuration-log diagnostics from the best-informed replica: the
        // longest committed log (lowest id on ties). A replica crashed by the
        // fault plan freezes early and must not be the vantage point, or the
        // report would show the genesis tree for a run that in fact rotated.
        let observer = nodes
            .iter()
            .enumerate()
            .max_by_key(|(id, node)| {
                let log = node.config_log();
                (log.len(), log.epoch(), std::cmp::Reverse(*id))
            })
            .map(|(_, node)| node)
            .expect("at least one replica");
        let log = observer.config_log();
        RunReport {
            summary: stats.summary(run_secs),
            latency_timeline: stats.latency_timeline(),
            throughput_timeline,
            oracle: telemetry::KAURI_CONFIG_SURFACE.name,
            checkpoints,
            provenance: log
                .commands_from(0)
                .map(|(seq, cmd)| (seq, cmd.clone()))
                .collect(),
            roles: KauriRoles {
                reconfigurations,
                final_tree: log.current().config.clone(),
                adopted_epochs: log.epochs().filter(|a| a.epoch > 0).count(),
                committed_pairs: log.pairs().to_vec(),
                excluded: observer.policy().excluded(),
            },
        }
    }
}

//! A HotStuff run as a value: the configuration, how it becomes a replica
//! set, and how the finished replicas are read back into a [`RunReport`].

use crate::node::HotStuffNode;
use crate::pacemaker::Pacemaker;
use crypto::Digest;
use rsm::{Cluster, MisbehaviorPlan, RunReport, SystemConfig};
use runtime::Duration;
use telemetry::{Instrumented, Telemetry};
use traffic::SharedTrafficQueue;

/// Commands per saturated block (§7.3).
const PAPER_BATCH: usize = 1000;

/// Configuration of a HotStuff experiment run.
#[derive(Debug, Clone)]
pub struct HotStuffConfig {
    /// System size and fault threshold.
    pub system: SystemConfig,
    /// Leader-selection policy.
    pub pacemaker: Pacemaker,
    /// Virtual run duration (the paper uses 120 s).
    pub run_for: Duration,
    /// Scripted protocol-level misbehavior (proposal-delay attacks).
    pub misbehavior: MisbehaviorPlan,
    /// The proposal source every (rotating) leader shares, one per run:
    /// the paper's saturated 1000-command batches by default, or an
    /// open-loop admission queue.
    pub traffic: SharedTrafficQueue,
    /// Telemetry handle installed on every replica (disabled by default).
    pub telemetry: Telemetry,
}

impl HotStuffConfig {
    /// The paper's default setup for `n` replicas with a fixed leader.
    pub fn new(n: usize, pacemaker: Pacemaker) -> Self {
        HotStuffConfig {
            system: SystemConfig::new(n),
            pacemaker,
            run_for: Duration::from_secs(120),
            misbehavior: MisbehaviorPlan::none(),
            traffic: SharedTrafficQueue::saturated(PAPER_BATCH),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// HotStuff's section of a [`RunReport`]: leadership is a function of the
/// view number, so the role history is the views themselves.
#[derive(Debug, Clone)]
pub struct HotStuffRoles {
    /// Number of views driven during the run.
    pub views: u64,
    /// Per-replica `(view, digest)` for every stored view, in view order
    /// (the report's checkpoints are the 48-bit fingerprints of these).
    pub view_digests: Vec<Vec<(u64, Digest)>>,
}

impl Instrumented for HotStuffConfig {
    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

impl Cluster for HotStuffConfig {
    type Node = HotStuffNode;
    type Roles = HotStuffRoles;
    type Provenance = ();

    fn run_for(&self) -> Duration {
        self.run_for
    }

    fn build(&self) -> Vec<HotStuffNode> {
        (0..self.system.n)
            .map(|id| {
                // The replica's own saturated queue gives way to the run's.
                HotStuffNode::new(id, self.system, self.pacemaker, PAPER_BATCH)
                    .with_delays(self.misbehavior.stages_for(id))
                    .with_traffic(Some(self.traffic.clone()))
                    .with_telemetry(self.telemetry.clone())
            })
            .collect()
    }

    fn report(&self, nodes: &mut [HotStuffNode], run_secs: u64) -> RunReport<HotStuffRoles> {
        let views = nodes[0].highest_proposed().max(
            nodes
                .iter()
                .map(|nd| nd.view_count() as u64)
                .max()
                .unwrap_or(0),
        );
        // Observe at a replica that is not the scripted attacker: a delaying
        // leader commits its own views early (it processes its proposal before
        // holding the broadcast), which would hide the very latency the attack
        // inflates everywhere else.
        let observer = (0..nodes.len())
            .find(|&i| nodes[i].stats.blocks() > 0 && self.misbehavior.stages_for(i).is_empty())
            .unwrap_or(0);
        let stats = &nodes[observer].stats;
        let view_digests: Vec<Vec<(u64, Digest)>> =
            nodes.iter().map(|nd| nd.view_digests()).collect();
        let checkpoints = view_digests
            .iter()
            .map(|digests| {
                digests
                    .iter()
                    .map(|(view, digest)| (*view, telemetry::fingerprint48(&digest.0)))
                    .collect()
            })
            .collect();
        RunReport {
            summary: stats.summary(run_secs),
            latency_timeline: stats.latency_timeline(),
            throughput_timeline: stats.throughput_buckets(),
            oracle: telemetry::HOTSTUFF_SURFACE.name,
            checkpoints,
            provenance: (),
            roles: HotStuffRoles {
                views,
                view_digests,
            },
        }
    }
}

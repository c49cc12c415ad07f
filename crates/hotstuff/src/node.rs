//! The chained HotStuff replica (its run configuration and report live in
//! [`crate::cluster`]; the runners are `lab::harness::run` and `deployd`).
//!
//! Protocol sketch (chained HotStuff with implicit pacemaker progress):
//!
//! 1. The leader of view `v` proposes a block carrying the quorum
//!    certificate of view `v − 1` and a proposal timestamp.
//! 2. Every replica stores the block, commits the block of view `v − 2` once
//!    the chain `v − 2, v − 1, v` is contiguous (three-chain rule), and sends
//!    its vote for view `v` to the leader of view `v + 1`.
//! 3. That leader forms a quorum certificate from `n − f` votes and proposes
//!    view `v + 1`.
//!
//! Batches come from the run's [`traffic::SharedTrafficQueue`]: the leader
//! of the next view pulls a batch, and when none is ready yet it parks the
//! view and wakes up at the queue's next flush instant. The saturated queue,
//! the paper's workload of 1000 empty commands per block, always has one;
//! an open-loop admission queue has one once its size or timeout rule fires.
//!
//! A scripted leader withholds its proposal broadcasts through the shared
//! [`rsm::Withhold`]. Commits and agreement checkpoints are reported under
//! the shared names [`telemetry::HOTSTUFF_COMMITS`] and
//! [`telemetry::HOTSTUFF_SURFACE`].

use crate::pacemaker::Pacemaker;
use crypto::{Digest, Hashable};
use rsm::{Block, CommitStats, DelayStage, SystemConfig, Withhold};
use runtime::{Context, Node, NodeId, SimTime, TimerId};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use telemetry::{Stage, Telemetry, HOTSTUFF_COMMITS, HOTSTUFF_SURFACE};
use traffic::{SharedTrafficQueue, WakeTimer};

/// Wake-up when the traffic queue's next batch becomes flushable.
const TIMER_TRAFFIC_READY: u64 = 2;

/// Messages exchanged by HotStuff replicas.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum HotStuffMessage {
    /// A block proposal for `view`, implicitly certifying view `view − 1`.
    Proposal {
        /// The proposal's view.
        view: u64,
        /// Digest of the proposed block.
        digest: Digest,
        /// Number of commands batched in the block.
        commands: usize,
        /// Proposal timestamp in µs (for consensus-latency measurement).
        timestamp_us: u64,
    },
    /// A vote for `view`, sent to the leader of `view + 1`.
    Vote {
        /// The voted view.
        view: u64,
        /// Digest voted for.
        digest: Digest,
        /// The voting replica.
        voter: usize,
    },
}

/// Per-view bookkeeping at a replica.
#[derive(Debug, Clone)]
struct ViewEntry {
    digest: Digest,
    commands: usize,
    proposal_ts: SimTime,
    committed: bool,
}

/// One HotStuff replica.
pub struct HotStuffNode {
    id: usize,
    /// Every other replica: the targets of each proposal.
    others: Vec<NodeId>,
    config: SystemConfig,
    pacemaker: Pacemaker,
    views: BTreeMap<u64, ViewEntry>,
    /// Stored views that carry commands and have not committed yet: what
    /// decides whether an idle leader sends an empty flush view or parks.
    uncommitted_payload: usize,
    /// Votes for views not yet superseded by a proposal of this replica.
    votes: BTreeMap<u64, BTreeSet<usize>>,
    highest_proposed: u64,
    /// Scripted proposal-delay attack (no stages when correct): while a
    /// stage is active, the leader *holds* each proposal broadcast by the
    /// stage's delay, keeping the proposal timestamp honest so the hold is
    /// visible as inflated consensus latency.
    withhold: Withhold<HotStuffMessage>,
    /// The run's proposal source, shared by every (rotating) leader.
    traffic: SharedTrafficQueue,
    /// View whose proposal is parked until the traffic queue can flush.
    pending_view: Option<u64>,
    /// The one wake-up armed while a view is parked.
    wake: WakeTimer,
    /// Traffic batch ids by proposed view (proposer side), echoed to the
    /// queue when the view commits so end-to-end latency can be accounted.
    batch_ids: BTreeMap<u64, u64>,
    /// Commit statistics (consensus latency = proposal to three-chain commit).
    pub stats: CommitStats,
    /// Observability handle (disabled by default).
    telemetry: Telemetry,
}

impl HotStuffNode {
    /// Create a replica.
    pub fn new(id: usize, config: SystemConfig, pacemaker: Pacemaker, batch_size: usize) -> Self {
        HotStuffNode {
            id,
            others: (0..config.n).filter(|&r| r != id).collect(),
            config,
            pacemaker,
            views: BTreeMap::new(),
            uncommitted_payload: 0,
            votes: BTreeMap::new(),
            highest_proposed: 0,
            withhold: Withhold::new(Vec::new()),
            traffic: SharedTrafficQueue::saturated(batch_size),
            pending_view: None,
            wake: WakeTimer::new(),
            batch_ids: BTreeMap::new(),
            stats: CommitStats::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Install scripted proposal-delay stages (the protocol-level attack).
    pub fn with_delays(mut self, delays: Vec<DelayStage>) -> Self {
        self.withhold = Withhold::new(delays);
        self
    }

    /// Propose from the run's shared queue instead of the replica's own
    /// saturated one of `batch_size` commands; `None` keeps the latter.
    pub fn with_traffic(mut self, queue: Option<SharedTrafficQueue>) -> Self {
        self.traffic = queue.unwrap_or(self.traffic);
        self
    }

    /// Install a telemetry handle (propose/forward/vote/commit spans plus
    /// per-replica commit metrics).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn leader_of(&self, view: u64) -> usize {
        self.pacemaker.leader(view, self.config.n)
    }

    /// Highest view this replica has proposed (harness diagnostics).
    pub fn highest_proposed(&self) -> u64 {
        self.highest_proposed
    }

    /// Number of views this replica has stored.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// `(view, digest)` for every stored view, in view order — the
    /// agreement-invariant surface harnesses and cluster tests check
    /// (any two replicas must agree on the digest of every shared view).
    pub fn view_digests(&self) -> Vec<(u64, Digest)> {
        self.views.iter().map(|(&v, e)| (v, e.digest)).collect()
    }

    fn propose(&mut self, ctx: &mut Context<HotStuffMessage>, view: u64) {
        if view <= self.highest_proposed {
            return;
        }
        let commands = match self.traffic.try_batch_at(ctx.now, self.id) {
            Some(batch) => {
                self.batch_ids.insert(view, batch.id);
                batch.commands
            }
            // A committed batch needs two successor views (three-chain):
            // with an empty queue, an earlier command-bearing view would
            // otherwise wait for the *next arrival burst* to commit. An
            // empty flush block drives the chain instead; at most two are
            // needed before every payload view has committed and the leader
            // can park for real.
            None if self.uncommitted_payload > 0 => Vec::new(),
            None => {
                // Nothing flushable, nothing in flight: park the view and
                // wake up when the queue's size or timeout condition can
                // next fire. (The chain is idle until then — no other
                // leader can make progress before this view.) Every vote
                // past the quorum lands here again, hence the one-wake-up
                // rule.
                self.pending_view = Some(self.pending_view.unwrap_or(0).max(view));
                if let Some(at) = self.traffic.next_ready_at(ctx.now) {
                    self.wake.arm(ctx, at, TIMER_TRAFFIC_READY);
                }
                return;
            }
        };
        self.highest_proposed = view;
        // Every vote below this view is now inert (see `handle_vote`).
        self.votes.retain(|&v, _| v >= view);
        let block = Block::new(Digest::ZERO, view, view, self.id, commands);
        let digest = block.digest();
        let msg = HotStuffMessage::Proposal {
            view,
            digest,
            commands: block.len(),
            timestamp_us: ctx.now.as_micros(),
        };
        self.telemetry.instant(
            Stage::Propose,
            self.id,
            view,
            ctx.now.as_micros(),
            &[("commands", block.len() as f64)],
        );
        // A scripted attacker holds the broadcast (not its local processing):
        // the timestamp stays honest, so the withheld dissemination shows up
        // as inflated consensus latency at every replica — the tree/star
        // analogue of the PBFT Pre-Prepare delay attack.
        match self.withhold.hold(ctx, msg) {
            Err(msg) => ctx.multicast(&self.others, msg),
            // The dissemination hold is visible as its own span under the
            // attacker's track — the widening bar of the Fig 7 trace.
            Ok(hold) => self.telemetry.span(
                Stage::Hold,
                self.id,
                view,
                ctx.now.as_micros(),
                hold.as_micros(),
                &[],
            ),
        }
        self.handle_proposal(ctx, view, digest, block.len(), ctx.now.as_micros());
    }

    fn handle_proposal(
        &mut self,
        ctx: &mut Context<HotStuffMessage>,
        view: u64,
        digest: Digest,
        commands: usize,
        timestamp_us: u64,
    ) {
        if let Entry::Vacant(slot) = self.views.entry(view) {
            slot.insert(ViewEntry {
                digest,
                commands,
                proposal_ts: SimTime::from_micros(timestamp_us),
                committed: false,
            });
            if commands > 0 {
                self.uncommitted_payload += 1;
            }
        }

        // Three-chain commit: views v-2, v-1, v contiguous → commit v-2.
        if view >= 2 {
            let ready =
                self.views.contains_key(&(view - 1)) && self.views.contains_key(&(view - 2));
            if ready {
                let entry = self.views.get_mut(&(view - 2)).expect("checked");
                if !entry.committed {
                    entry.committed = true;
                    // Agreement checkpoint for the online auditor: this
                    // replica's digest for the committed view.
                    let fp = telemetry::fingerprint48(&entry.digest.0);
                    HOTSTUFF_SURFACE.publish(&self.telemetry, self.id, view - 2, fp);
                    // Empty chain-flush blocks (open-loop idle) carry no
                    // commands and are not commits worth recording.
                    if entry.commands > 0 {
                        self.uncommitted_payload -= 1;
                        self.stats
                            .record_commit(entry.proposal_ts, ctx.now, entry.commands);
                        HOTSTUFF_COMMITS.record(
                            &self.telemetry,
                            self.id,
                            view - 2,
                            entry.proposal_ts.as_micros(),
                            ctx.now.since(entry.proposal_ts).as_micros(),
                            entry.commands,
                        );
                    }
                    // The proposer of the committed view reports the batch
                    // back to the traffic queue (it is the only replica that
                    // knows the batch id) for end-to-end accounting.
                    if let Some(id) = self.batch_ids.remove(&(view - 2)) {
                        self.traffic.commit_batch_in(id, ctx.now, view - 2);
                    }
                }
            }
        }

        // Vote to the leader of the next view.
        self.telemetry
            .instant(Stage::Vote, self.id, view, ctx.now.as_micros(), &[]);
        let next_leader = self.leader_of(view + 1);
        let vote = HotStuffMessage::Vote {
            view,
            digest,
            voter: self.id,
        };
        if next_leader == self.id {
            self.handle_vote(ctx, view, self.id);
        } else {
            ctx.send(next_leader, vote);
        }
    }

    fn handle_vote(&mut self, ctx: &mut Context<HotStuffMessage>, view: u64, voter: usize) {
        // A quorum for this view could only lead to a view already proposed.
        if view < self.highest_proposed {
            return;
        }
        let votes = self.votes.entry(view).or_default();
        votes.insert(voter);
        if votes.len() >= self.config.quorum() && self.leader_of(view + 1) == self.id {
            self.propose(ctx, view + 1);
        }
    }
}

impl Node for HotStuffNode {
    type Msg = HotStuffMessage;

    fn on_start(&mut self, ctx: &mut Context<HotStuffMessage>) {
        if self.leader_of(1) == self.id {
            self.propose(ctx, 1);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<HotStuffMessage>,
        _from: NodeId,
        msg: HotStuffMessage,
    ) {
        match msg {
            HotStuffMessage::Proposal {
                view,
                digest,
                commands,
                timestamp_us,
            } => {
                // Dissemination hop as seen by this replica: proposal
                // timestamp (honest even under a hold) → delivery.
                self.telemetry.span(
                    Stage::Forward,
                    self.id,
                    view,
                    timestamp_us,
                    ctx.now.as_micros().saturating_sub(timestamp_us),
                    &[],
                );
                self.handle_proposal(ctx, view, digest, commands, timestamp_us)
            }
            HotStuffMessage::Vote { view, voter, .. } => self.handle_vote(ctx, view, voter),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<HotStuffMessage>, timer: TimerId, tag: u64) {
        if let Some(msg) = self.withhold.release(tag) {
            ctx.multicast(&self.others, msg);
        } else if tag == TIMER_TRAFFIC_READY {
            self.wake.fired(timer);
            self.telemetry
                .counter_add("hotstuff.node.traffic_wakeups", Some(self.id), 1);
            if let Some(view) = self.pending_view.take() {
                self.propose(ctx, view);
            }
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        // The simulator drops a crashed node's timers silently; see
        // `traffic::wake`.
        self.wake.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::Action;
    use std::collections::VecDeque;

    type Pending = VecDeque<(NodeId, NodeId, HotStuffMessage)>;

    /// Run one callback of `node` and queue the messages it sends.
    fn callback(
        node: &mut HotStuffNode,
        pending: &mut Pending,
        f: impl FnOnce(&mut HotStuffNode, &mut Context<HotStuffMessage>),
    ) {
        let from = node.id;
        let mut ctx = Context::new(from, SimTime::ZERO, node.config.n, 0, Vec::new());
        f(node, &mut ctx);
        ctx.finish(|action| {
            if let Action::Send { to, payload } = action {
                pending.push_back((from, to, payload.into_msg()));
            }
        });
    }

    /// Four replicas under the saturated source with leader 0, every
    /// message delivered in send order: the first `deliveries` of the run.
    fn run(deliveries: usize) -> Vec<HotStuffNode> {
        let config = SystemConfig::new(4);
        let mut nodes: Vec<HotStuffNode> = (0..config.n)
            .map(|id| HotStuffNode::new(id, config, Pacemaker::Fixed { leader: 0 }, 10))
            .collect();
        let mut pending = Pending::new();
        for node in &mut nodes {
            callback(node, &mut pending, |node, ctx| node.on_start(ctx));
        }
        for _ in 0..deliveries {
            let (from, to, msg) = pending.pop_front().expect("a saturated leader never idles");
            callback(&mut nodes[to], &mut pending, |node, ctx| {
                node.on_message(ctx, from, msg)
            });
        }
        nodes
    }

    #[test]
    fn the_leader_keeps_only_in_flight_votes() {
        let nodes = run(4_000);
        let leader = &nodes[0];
        assert!(
            leader.highest_proposed > 500,
            "{} views",
            leader.highest_proposed
        );
        assert!(
            leader.votes.len() <= 2,
            "{} vote entries after {} views",
            leader.votes.len(),
            leader.highest_proposed
        );
        // The counter answers what a scan of the stored views would.
        for node in &nodes {
            let scanned = node
                .views
                .values()
                .filter(|e| !e.committed && e.commands > 0)
                .count();
            assert_eq!(node.uncommitted_payload, scanned, "replica {}", node.id);
        }
    }
}

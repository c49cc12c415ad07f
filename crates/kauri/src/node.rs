//! The Kauri replica (its run configuration and report live in
//! [`crate::cluster`]; the runners are `lab::harness::run` and `deployd`).
//!
//! Message flow per view: the root disseminates a proposal to its
//! intermediate nodes, which forward it to their leaves; leaves vote to their
//! parent, intermediates aggregate the votes of their subtree (whatever has
//! arrived by the child timeout, per OptiTree's aggregation rule) and forward
//! the aggregate to the root, which reads the children that did not answer
//! off its own tree; the root commits the view once it has collected the vote
//! threshold.
//! The root pipelines several views concurrently (§6.1.1).
//!
//! Role configuration as log content: every replica carries a
//! [`ConfigLog<Tree>`] — the replicated configuration log — and *adopts* a
//! tree only once its [`ConfigCommand`] commits. The proposing root commits
//! its epoch's tree command with the first view that gathers the vote
//! threshold and ships the committed command prefix inside every proposal;
//! receivers apply new committed entries in order, so all replicas converge
//! on the same epoch → tree history. A proposal's own `tree` field is pure
//! routing metadata for that view (the epoch's *proposed* configuration):
//! replicas forward and vote on it without mutating their durable state, so
//! the old embed-a-higher-epoch-tree adoption shortcut is gone.
//!
//! Fault handling: every replica re-arms a progress timer whenever it sees a
//! new proposal. If the timer fires, the replica advances to the next tree of
//! its [`TreePolicy`] (all replicas share the policy seed, so they compute
//! the same successor tree) and, if it is the new root, resumes proposing
//! after the configured reconfiguration delay. The successor tree is
//! *pending* until its command commits through the new tree itself.
//!
//! Scripted misbehavior: a replica with an active [`rsm::DelayStage`] holds
//! every payload it disseminates down the tree (its proposals as root, its
//! forwarded proposals as intermediate) in the shared [`rsm::Withhold`],
//! while keeping proposal timestamps honest. Replicas detect the withholding
//! from those timestamps — a proposal already older than the view timeout on
//! arrival is *stale*, and repeated stale proposals fail the tree exactly
//! like silence does. Blame is no longer pinned on the root: the striking
//! receiver emits a reciprocal suspicion *pair* `(receiver, upstream)`
//! (§6.4) that travels to the proposer and commits through the configuration
//! log, where every replica's policy judges the identical committed
//! evidence. Conformity binning (and OptiTree's pair-driven candidate
//! exclusion) then rotates the member that keeps reappearing across pairs —
//! the actual delayer — out of internal positions, while an innocent root
//! under an overtly-delaying intermediate is exonerated.
//!
//! The root reports commits under [`telemetry::KAURI_COMMITS`], and every
//! replica its adoption checkpoints under
//! [`telemetry::KAURI_CONFIG_SURFACE`].

use crate::policy::TreePolicy;
use crate::tree::Tree;
use configlog::{ConfigCommand, ConfigLog, PhaseFilter, SuspicionPair};
use crypto::{Digest, Hashable};
use rsm::misbehavior::HOLD_TAGS;
use rsm::{Block, CommitStats, DelayStage, SystemConfig, Withhold};
use runtime::{Context, Duration, Node, NodeId, SimTime, TimerId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use telemetry::{Stage, Telemetry, KAURI_COMMITS, KAURI_CONFIG_SURFACE};
use traffic::{SharedTrafficQueue, WakeTimer};

const TIMER_PROGRESS: u64 = 1;
const TIMER_RECONFIG_DONE: u64 = 2;
/// Wake-up when the traffic queue's next batch becomes flushable.
const TIMER_TRAFFIC_READY: u64 = 3;
/// Child-timeout timers encode the view in the tag as `TIMER_CHILD_BASE + view`.
const TIMER_CHILD_BASE: u64 = 1_000;
/// View-timeout timers encode the view as `TIMER_VIEW_BASE + view`; the
/// held-payload timers of [`HOLD_TAGS`] lie above them.
const TIMER_VIEW_BASE: u64 = 1_000_000_000;
/// Stale proposals tolerated before the tree is declared failed. Deliberately
/// above the default pipeline depth (3): a delaying root's in-flight
/// pipelined views arrive as one burst of stale proposals, and abandoning the
/// tree mid-burst would clear the aggregation state their votes still need —
/// the withheld views would never commit and the attack would look like a
/// silent crash instead of the latency spike the paper measures (Fig 7).
const STALE_STRIKE_LIMIT: u32 = 4;
/// Past tree epochs retained in the configuration log.
const TREE_EPOCH_HISTORY: usize = 64;

/// A configuration-log command over trees.
pub type TreeCommand = ConfigCommand<Tree>;

/// Messages exchanged by Kauri replicas.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum KauriMessage {
    /// A proposal travelling down the tree (root → intermediates → leaves).
    Proposal {
        /// The view being disseminated.
        view: u64,
        /// Digest of the proposed block.
        digest: Digest,
        /// Number of commands in the block.
        commands: usize,
        /// Root's proposal timestamp in µs.
        timestamp_us: u64,
        /// Tree epoch the proposal belongs to.
        epoch: u64,
        /// The tree the proposal travels on — the epoch's *proposed*
        /// configuration, used purely to route this view (shared, so per-hop
        /// clones are pointer-sized). Receivers never adopt it from here;
        /// adoption flows exclusively from `committed`.
        tree: Arc<Tree>,
        /// The proposer's committed configuration-log prefix. Replicas apply
        /// entries they have not seen, in order — this is how a tree
        /// configuration (and the suspicion-pair evidence) reaches every
        /// replica as *committed log content*.
        committed: Arc<Vec<(u64, TreeCommand)>>,
    },
    /// A leaf's vote, sent to its parent.
    Vote {
        /// The voted view.
        view: u64,
        /// The voting replica.
        voter: usize,
    },
    /// An intermediate node's aggregate, sent to the root.
    Aggregate {
        /// The aggregated view.
        view: u64,
        /// Replicas whose votes are included (the aggregator and its children).
        voters: Vec<usize>,
        /// The aggregating replica.
        aggregator: usize,
    },
    /// Suspicion-pair evidence routed to the current proposer for inclusion
    /// in the log (the ordered channel misbehavior evidence flows through).
    Evidence {
        /// The pair commands to commit.
        cmds: Vec<TreeCommand>,
    },
    /// The proposer's committed prefix, broadcast whenever it grows: the
    /// commit notification that lets every replica apply newly committed
    /// configuration entries (and act on them — e.g. a pair-triggered
    /// reconfiguration) without waiting for the next proposal to route by.
    Committed {
        /// The full committed configuration-log prefix.
        prefix: Arc<Vec<(u64, TreeCommand)>>,
    },
}

/// Root-side state of one in-flight view. A view leaves `views` the moment
/// it commits or is abandoned, so the map never holds more than the pipeline.
#[derive(Debug, Clone)]
struct ViewState {
    proposal_ts: SimTime,
    commands: usize,
    voters: BTreeSet<usize>,
    /// Traffic batch carried by the view (proposer side), echoed to the
    /// queue on commit for end-to-end accounting.
    batch_id: u64,
    /// Configuration commands (pair evidence) riding this view; appended to
    /// the committed log when the view commits.
    cmds: Vec<TreeCommand>,
}

/// Intermediate-side state of one view.
#[derive(Debug, Clone, Default)]
struct AggState {
    /// When the first proposal or vote of the view reached this replica.
    since: SimTime,
    votes: BTreeSet<usize>,
    forwarded: bool,
    digest: Digest,
    /// The tree the view's proposal routed on (aggregates travel back up the
    /// same tree, even while the replica's durable tree differs).
    tree: Option<Arc<Tree>>,
}

/// One Kauri replica.
pub struct KauriNode {
    id: usize,
    system: SystemConfig,
    /// Operating tree: what this replica routes and detects on. Equals the
    /// adopted tree except in the transition window after a local failure
    /// detection, when it is the *pending* successor awaiting commitment.
    /// Shared with every proposal routed on it.
    tree: Arc<Tree>,
    /// Operating epoch (pending until its command commits).
    epoch: u64,
    /// The replicated configuration log: committed, adopted state.
    config: ConfigLog<Tree>,
    policy: Box<dyn TreePolicy>,
    pipeline: usize,
    branch: usize,
    reconfig_delay: Duration,

    // Root state.
    views: BTreeMap<u64, ViewState>,
    next_view: u64,
    highest_view_seen: u64,
    reconfiguring: bool,
    last_progress: SimTime,
    /// Serialized committed prefix shipped in proposals; rebuilt lazily when
    /// the log grows.
    committed_wire: Arc<Vec<(u64, TreeCommand)>>,
    /// Evidence commands awaiting inclusion in the next proposed view.
    pending_cmds: Vec<TreeCommand>,
    /// The one wake-up armed while the traffic queue has nothing flushable.
    wake: WakeTimer,

    // Evidence state (all replicas).
    /// Own pairs not yet observed committed; re-sent to the operating root
    /// after every reconfiguration or adoption.
    outbox: Vec<SuspicionPair>,
    /// Pair keys already applied from the committed log (dedup across
    /// proposer changes, which may renumber the wire prefix).
    seen_pairs: BTreeSet<(usize, usize, u64, bool)>,
    /// (accuser, round) pairs this replica already reciprocated.
    reciprocated: BTreeSet<(usize, u64)>,
    /// Rolling 48-bit fingerprint over the adoption history (epoch + tree
    /// per committed adoption) — the agreement checkpoint this replica
    /// publishes for the online auditor.
    config_chain: u64,
    /// Every `(epoch, chain head)` published, oldest first — the exact
    /// adoption history the end-of-run auditor compares across replicas.
    config_checkpoints: Vec<(u64, u64)>,
    /// Fast path: the last wire prefix fully applied (pointer identity).
    last_wire: Option<Arc<Vec<(u64, TreeCommand)>>>,
    /// Causal filter over committed pairs: a pair raised directly under the
    /// root explains — and filters — the deeper echoes the same withheld
    /// payload caused, so only the round's root-most evidence seen so far
    /// can trigger a reconfiguration (same first-committed-wins semantics
    /// as the suspicion monitor's filter). Reset at every epoch change:
    /// round numbers are only comparable within one epoch, since a new
    /// proposer may reuse view numbers.
    pair_filter: PhaseFilter,

    // Intermediate state.
    aggregates: BTreeMap<u64, AggState>,

    /// Scripted delay attack: while a stage is active this replica holds
    /// every payload it disseminates down the tree (proposals as root,
    /// forwarded proposals as intermediate), with the tree it routes on, by
    /// the stage's delay. Cleared eagerly on every epoch change
    /// (reconfiguration and tree adoption), so a payload that survives until
    /// its release timer is always routed on the replica's current tree.
    withhold: Withhold<(Arc<Tree>, KauriMessage)>,
    /// The run's proposal source. Shared by every replica: the queue
    /// logically follows whichever replica is the current root.
    traffic: SharedTrafficQueue,
    /// Consecutive proposals that arrived already older than the view
    /// timeout — the withheld-payload detector (see `handle_proposal`).
    stale_strikes: u32,
    /// Highest view that contributed a stale strike: duplicate deliveries of
    /// the same withheld view (possible while divergent trees re-converge)
    /// must not double-count as "consecutive" strikes.
    last_strike_view: u64,
    /// Upstream hop of the latest stale proposal (the pair's accused) and
    /// the receiver's depth at observation (the pair's causal-filter phase).
    last_stale_upstream: Option<(usize, u32)>,

    /// Telemetry handle (disabled by default; see [`KauriNode::with_telemetry`]).
    telemetry: Telemetry,

    /// Commit statistics (recorded at the root that proposed the view).
    pub stats: CommitStats,
    /// Times at which this replica switched trees.
    pub reconfig_times: Vec<SimTime>,
}

impl KauriNode {
    /// Create a replica. All replicas of one run receive the same initial
    /// `tree`; each holds its own (identically seeded) policy.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        system: SystemConfig,
        tree: Tree,
        policy: Box<dyn TreePolicy>,
        batch_size: usize,
        pipeline: usize,
        branch: usize,
        reconfig_delay: Duration,
    ) -> Self {
        KauriNode {
            id,
            system,
            config: ConfigLog::new(tree.clone(), TREE_EPOCH_HISTORY),
            tree: Arc::new(tree),
            epoch: 0,
            policy,
            pipeline: pipeline.max(1),
            branch,
            reconfig_delay,
            views: BTreeMap::new(),
            next_view: 1,
            highest_view_seen: 0,
            reconfiguring: false,
            last_progress: SimTime::ZERO,
            committed_wire: Arc::new(Vec::new()),
            pending_cmds: Vec::new(),
            wake: WakeTimer::new(),
            outbox: Vec::new(),
            seen_pairs: BTreeSet::new(),
            reciprocated: BTreeSet::new(),
            config_chain: 0,
            config_checkpoints: Vec::new(),
            last_wire: None,
            pair_filter: PhaseFilter::new(),
            aggregates: BTreeMap::new(),
            withhold: Withhold::new(Vec::new()),
            traffic: SharedTrafficQueue::saturated(batch_size),
            stale_strikes: 0,
            last_strike_view: 0,
            last_stale_upstream: None,
            telemetry: Telemetry::disabled(),
            stats: CommitStats::new(),
            reconfig_times: Vec::new(),
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

    /// Install a telemetry handle (propose/hop/vote/aggregate/commit spans
    /// plus per-replica commit metrics).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The tree currently in use (operating state).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The replicated configuration log (committed, adopted state).
    pub fn config_log(&self) -> &ConfigLog<Tree> {
        &self.config
    }

    /// The tree policy (for end-of-run diagnostics).
    pub fn policy(&self) -> &dyn TreePolicy {
        self.policy.as_ref()
    }

    /// Send a payload down the tree, holding it first if a delay stage is
    /// active: the scripted root/intermediate withholds the payloads it is
    /// supposed to disseminate while its votes and aggregates (as a
    /// follower) flow normally — the protocol-level delay attack.
    fn send_down(
        &mut self,
        ctx: &mut Context<KauriMessage>,
        view: u64,
        tree: Arc<Tree>,
        msg: KauriMessage,
    ) {
        match self.withhold.hold(ctx, (tree, msg)) {
            Err((tree, msg)) => ctx.multicast(tree.children_of(self.id), msg),
            // The dissemination hold shows up as its own span on the
            // attacker's track — the widening "dissemination-hold" bar of a
            // Fig 7 trace.
            Ok(hold) => self.telemetry.span(
                Stage::Hold,
                self.id,
                view,
                ctx.now.as_micros(),
                hold.as_micros(),
                &[],
            ),
        }
    }

    fn is_root(&self) -> bool {
        self.tree.root == self.id
    }

    fn progress_window(&self) -> Duration {
        self.policy.view_timeout() * 3
    }

    /// Arm the single recurring progress timer. Called once at start and
    /// re-armed whenever it fires; actual staleness is judged against
    /// `last_progress` so in-flight timers never cause spurious
    /// reconfigurations.
    fn arm_progress_timer(&mut self, ctx: &mut Context<KauriMessage>) {
        ctx.set_timer(self.progress_window(), TIMER_PROGRESS);
    }

    /// Rebuild the wire copy of the committed prefix if the log grew.
    fn refresh_wire(&mut self) {
        if self.committed_wire.len() as u64 != self.config.len() {
            self.committed_wire = Arc::new(
                self.config
                    .commands_from(0)
                    .map(|(seq, cmd)| (seq, cmd.clone()))
                    .collect(),
            );
        }
    }

    /// Apply one committed configuration command to the replicated log and
    /// the policy. Content-addressed dedup (epoch monotonicity for configs,
    /// pair keys for evidence) makes redeliveries — and prefixes renumbered
    /// by a proposer change — harmless. Returns the accused replica when
    /// the command was a fresh, causally-unfiltered pair against an
    /// internal node of the operating tree — the committed evidence that
    /// triggers a coordinated reconfiguration (every replica applies the
    /// same entry and reaches the same verdict).
    fn apply_committed(
        &mut self,
        ctx: &mut Context<KauriMessage>,
        cmd: &TreeCommand,
    ) -> Option<usize> {
        match cmd {
            ConfigCommand::Config { epoch, .. } => {
                if *epoch <= self.config.epoch() {
                    return None; // stale or duplicate: epoch-monotone rule
                }
                let adopted = self
                    .config
                    .apply(cmd.clone(), ctx.now)
                    .expect("epoch above current always adopts")
                    .clone();
                self.policy.on_adopted_epoch(adopted.epoch);
                self.publish_config_checkpoint(&adopted);
                // The causal filter resets at every *committed* adoption —
                // a log-ordered event, identical at every replica — so the
                // filter stays a pure function of the committed prefix
                // (resetting at the local reconfigure instant would let
                // replicas whose trigger was gated reach different verdicts
                // on the same later pair).
                self.pair_filter.reset();
                if adopted.epoch > self.epoch {
                    // This replica was behind (it never locally detected the
                    // failure, or its pending tree lost the race): sync the
                    // operating state onto the committed configuration —
                    // the only way a tree is ever adopted. In-flight
                    // aggregation state is deliberately kept: this replica
                    // may already be aggregating views *of the adopted
                    // epoch* (routed via their proposals' carried trees),
                    // and each entry pins the tree it routes on, so stale
                    // old-epoch entries are inert rather than harmful.
                    let behind = adopted.epoch - self.epoch;
                    self.abandon_uncommitted_views(ctx.now);
                    self.epoch = adopted.epoch;
                    self.withhold.clear();
                    self.stale_strikes = 0;
                    self.last_strike_view = 0;
                    self.reconfiguring = false;
                    self.last_progress = ctx.now;
                    // Keep the shared policy sequence aligned: consume the
                    // trees the detecting replicas consumed (their failure
                    // inputs differ per replica, but the committed evidence
                    // below is what drives exclusions identically).
                    for _ in 0..behind {
                        let _ = self.policy.next_tree(self.system.n, self.branch);
                    }
                    self.tree = Arc::new(adopted.config); // the committed tree, not the catch-up's
                    if self.is_root() {
                        self.propose_next(ctx);
                    }
                } else if adopted.epoch == self.epoch {
                    // Our own pending epoch committed (the normal case): the
                    // operating tree was already in place; the committed copy
                    // is authoritative.
                    self.tree = Arc::new(adopted.config);
                }
                None
            }
            ConfigCommand::Pair(pair) => {
                if !self.seen_pairs.insert(pair.key()) {
                    return None;
                }
                self.config.apply(cmd.clone(), ctx.now);
                self.policy.on_committed_pair(pair);
                // Committed: stop re-sending it.
                self.outbox.retain(|p| p.key() != pair.key());
                // Condition (c): reciprocate a pair accusing this replica,
                // once per (accuser, round) — turning the one-way suspicion
                // into the mutual pair §6.4 exclusion acts on.
                if pair.accused == self.id
                    && !pair.reciprocal
                    && self.reciprocated.insert((pair.accuser, pair.round))
                {
                    self.outbox.push(pair.reciprocation());
                }
                if pair.reciprocal {
                    return None;
                }
                // Causal filter: only the round's root-most pair may act.
                if !self.pair_filter.accept(pair.round, pair.phase) {
                    return None;
                }
                // Committed evidence against a *current* internal node:
                // the configuration must rotate. All replicas apply this
                // entry (at their own local times) and reconfigure off the
                // same tree — role rotation through the log, not through
                // any replica's private blame. Replicas already operating
                // ahead of the committed epoch (a pending local detection)
                // do not compound it: they converge on whatever commits.
                let internal = self.tree.root == pair.accused
                    || self.tree.intermediates.contains(&pair.accused);
                (internal && !self.reconfiguring && self.epoch == self.config.epoch())
                    .then_some(pair.accused)
            }
            ConfigCommand::Exclude { .. } => {
                self.config.apply(cmd.clone(), ctx.now);
                None
            }
        }
    }

    /// Fold a committed adoption into the config chain and publish the
    /// `(epoch, chain head)` checkpoint the online auditor compares across
    /// replicas.
    fn publish_config_checkpoint(&mut self, adopted: &configlog::AdoptedConfig<Tree>) {
        let mut bytes = Vec::with_capacity(
            8 * (2 + adopted.config.intermediates.len()) + 16 * adopted.config.children.len(),
        );
        bytes.extend_from_slice(&adopted.epoch.to_le_bytes());
        bytes.extend_from_slice(&(adopted.config.root as u64).to_le_bytes());
        for &i in &adopted.config.intermediates {
            bytes.extend_from_slice(&(i as u64).to_le_bytes());
        }
        for (&parent, kids) in &adopted.config.children {
            bytes.extend_from_slice(&(parent as u64).to_le_bytes());
            for &k in kids {
                bytes.extend_from_slice(&(k as u64).to_le_bytes());
            }
        }
        self.config_chain = telemetry::chain48(self.config_chain, &bytes);
        self.config_checkpoints
            .push((adopted.epoch, self.config_chain));
        KAURI_CONFIG_SURFACE.publish(&self.telemetry, self.id, adopted.epoch, self.config_chain);
    }

    /// Every `(epoch, chain head)` adoption checkpoint this replica
    /// published, oldest first. Feed these to the auditor's `kauri.config`
    /// surface at end of run.
    pub fn config_checkpoints(&self) -> &[(u64, u64)] {
        &self.config_checkpoints
    }

    /// Apply every unseen entry of a proposal's committed prefix, flush any
    /// evidence the application generated (reciprocations), and perform the
    /// single coordinated reconfiguration the entries may have triggered.
    fn apply_committed_prefix(
        &mut self,
        ctx: &mut Context<KauriMessage>,
        committed: &Arc<Vec<(u64, TreeCommand)>>,
    ) {
        if self
            .last_wire
            .as_ref()
            .is_some_and(|w| Arc::ptr_eq(w, committed))
        {
            return; // fast path: this exact prefix was already applied
        }
        let mut accused = Vec::new();
        for (_, cmd) in committed.iter() {
            if let Some(a) = self.apply_committed(ctx, cmd) {
                accused.push(a);
            }
        }
        self.last_wire = Some(committed.clone());
        self.flush_evidence(ctx);
        if !accused.is_empty() {
            self.reconfigure(ctx, &accused);
        }
    }

    /// File a suspicion pair for eventual commitment: enters the outbox
    /// unless it was already committed or is already waiting there.
    fn file_pair(&mut self, pair: SuspicionPair) {
        if !self.seen_pairs.contains(&pair.key())
            && !self.outbox.iter().any(|p| p.key() == pair.key())
        {
            self.outbox.push(pair);
        }
    }

    /// The §6.4 pair a receiver files against its upstream hop in `tree`,
    /// with the receiver's depth as the causal-filter phase.
    fn pair_against_upstream(&self, tree: &Tree, round: u64) -> Option<SuspicionPair> {
        let upstream = tree.parent(self.id)?;
        Some(SuspicionPair {
            accuser: self.id,
            accused: upstream,
            round,
            phase: if upstream == tree.root { 1 } else { 2 },
            reciprocal: false,
        })
    }

    /// Send the outbox to the replica currently able to commit it (the
    /// operating root); a root enqueues its own evidence directly. The
    /// outbox is cleared only when the pairs are seen *committed*, so
    /// evidence survives proposer changes by being re-flushed after every
    /// reconfiguration and adoption.
    fn flush_evidence(&mut self, ctx: &mut Context<KauriMessage>) {
        if self.outbox.is_empty() {
            return;
        }
        let cmds: Vec<TreeCommand> = self
            .outbox
            .iter()
            .map(|p| ConfigCommand::Pair(*p))
            .collect();
        if self.is_root() {
            self.enqueue_pending(cmds);
        } else {
            ctx.send(self.tree.root, KauriMessage::Evidence { cmds });
        }
    }

    /// Root side: queue evidence commands for the next proposed view,
    /// skipping anything already committed or already queued.
    fn enqueue_pending(&mut self, cmds: Vec<TreeCommand>) {
        for cmd in cmds {
            let ConfigCommand::Pair(pair) = &cmd else {
                continue; // only pair evidence travels via Evidence messages
            };
            if self.seen_pairs.contains(&pair.key()) {
                continue;
            }
            let queued = self.pending_cmds.iter().any(|c| match c {
                ConfigCommand::Pair(p) => p.key() == pair.key(),
                _ => false,
            });
            if !queued {
                self.pending_cmds.push(cmd);
            }
        }
    }

    /// Return the uncommitted views' traffic batches to the client
    /// population (bounded retries) before dropping them.
    fn abandon_uncommitted_views(&mut self, now: SimTime) {
        for state in self.views.values() {
            self.traffic.retry_batch(state.batch_id, now);
        }
        self.views.clear();
    }

    fn propose_next(&mut self, ctx: &mut Context<KauriMessage>) {
        if !self.is_root() || self.reconfiguring {
            return;
        }
        // `views` holds exactly the views in flight.
        while self.views.len() < self.pipeline {
            let Some(batch) = self.traffic.try_batch_at(ctx.now, self.id) else {
                // Nothing flushable yet: park until the queue's size or
                // timeout condition can next fire. This is reached after
                // every commit, so it goes through the one-wake-up rule (a
                // wake-up at a replica that lost the root role is a
                // harmless no-op — `propose_next` re-checks).
                if let Some(at) = self.traffic.next_ready_at(ctx.now) {
                    self.wake.arm(ctx, at, TIMER_TRAFFIC_READY);
                }
                return;
            };
            let view = self.next_view;
            self.next_view += 1;
            let block = Block::new(Digest::ZERO, view, view, self.id, batch.commands);
            let digest = block.digest();
            // Evidence commands ride the view and commit with it.
            let cmds = std::mem::take(&mut self.pending_cmds);
            self.views.insert(
                view,
                ViewState {
                    proposal_ts: ctx.now,
                    commands: block.len(),
                    voters: [self.id].into_iter().collect(),
                    batch_id: batch.id,
                    cmds,
                },
            );
            self.refresh_wire();
            let tree = Arc::clone(&self.tree);
            let msg = KauriMessage::Proposal {
                view,
                digest,
                commands: block.len(),
                timestamp_us: ctx.now.as_micros(),
                epoch: self.epoch,
                tree: Arc::clone(&tree),
                committed: self.committed_wire.clone(),
            };
            self.telemetry.instant(
                Stage::Propose,
                self.id,
                view,
                ctx.now.as_micros(),
                &[("commands", block.len() as f64)],
            );
            self.send_down(ctx, view, tree, msg);
            ctx.set_timer(self.policy.view_timeout(), TIMER_VIEW_BASE + view);
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Proposal message fields
    fn handle_proposal(
        &mut self,
        ctx: &mut Context<KauriMessage>,
        view: u64,
        digest: Digest,
        commands: usize,
        timestamp_us: u64,
        epoch: u64,
        tree: Arc<Tree>,
        committed: Arc<Vec<(u64, TreeCommand)>>,
    ) {
        if epoch < self.epoch {
            return;
        }
        // Adoption happens here and only here: apply the committed prefix.
        // The proposal's `tree` is never installed from the message — a
        // replica that is behind routes this view on the carried tree and
        // catches up once the epoch's command appears in the prefix.
        self.apply_committed_prefix(ctx, &committed);
        if epoch < self.epoch {
            // The prefix carried an adoption past the proposal's own epoch.
            return;
        }
        self.highest_view_seen = self.highest_view_seen.max(view);
        self.last_progress = ctx.now;
        // Per-hop dissemination as seen by this replica: root's (honest)
        // proposal timestamp → delivery here, cumulative over upstream hops
        // and any scripted holds along the path.
        if self.telemetry.is_tracing() {
            let mut depth = 0u64;
            let mut cur = self.id;
            while let Some(up) = tree.parent(cur) {
                depth += 1;
                cur = up;
            }
            self.telemetry.span(
                Stage::Forward,
                self.id,
                view,
                timestamp_us,
                ctx.now.as_micros().saturating_sub(timestamp_us),
                &[("depth", depth as f64)],
            );
        }

        // Withheld-payload detection: the proposal timestamp is the root's
        // own (honest) claim of when the view was created, so a proposal
        // that is already older than the view timeout on arrival means the
        // payload was withheld somewhere above us. The crash detector (the
        // progress timer) never sees this — delayed proposals still arrive,
        // just late. After STALE_STRIKE_LIMIT consecutive stale proposals
        // the replica declares the tree failed exactly as if the root had
        // gone silent. The stale proposal is still forwarded and voted
        // first, so the evidence reaches the leaves too. A receiver cannot
        // tell *which* upstream hop held the payload without trusting
        // per-hop timestamps the attacker itself would supply — so instead
        // of blaming the root it records the §6.4 reciprocal pair
        // (receiver, upstream) for the configuration log; the receiver's
        // depth rides along as the causal-filter phase, letting a pair
        // raised directly under the root explain (and filter) the echoes
        // the same hold causes further down.
        let age = ctx.now.since(SimTime::from_micros(timestamp_us));
        if age > self.policy.view_timeout() {
            // One strike per withheld view: duplicates re-delivered through
            // a second parent must not fast-forward the limit (which is
            // deliberately sized so a delaying root's in-flight burst still
            // commits — see STALE_STRIKE_LIMIT).
            if view > self.last_strike_view {
                self.last_strike_view = view;
                self.stale_strikes += 1;
                self.last_stale_upstream = tree.parent(self.id).map(|up| {
                    let depth = if up == tree.root { 1 } else { 2 };
                    (up, depth)
                });
            }
        } else {
            self.stale_strikes = 0;
        }

        // Route on the proposal's own tree, not the durable one: votes and
        // forwards for a view always follow the tree it was proposed on.
        let children = tree.children_of(self.id);
        if children.is_empty() {
            // Leaf: vote to parent.
            if let Some(parent) = tree.parent(self.id) {
                self.telemetry
                    .instant(Stage::Vote, self.id, view, ctx.now.as_micros(), &[]);
                ctx.send(
                    parent,
                    KauriMessage::Vote {
                        view,
                        voter: self.id,
                    },
                );
            }
            self.maybe_declare_stale_failure(ctx);
            return;
        }
        // Intermediate: forward downwards and start aggregating — once per
        // view. Duplicate deliveries (possible while replicas still disagree
        // on the tree) must not re-forward, or a transient routing cycle
        // amplifies one proposal into an unbounded message storm.
        let id = self.id;
        if self.aggregate(view, ctx.now).votes.contains(&id) {
            return;
        }
        let msg = KauriMessage::Proposal {
            view,
            digest,
            commands,
            timestamp_us,
            epoch,
            tree: tree.clone(),
            committed,
        };
        // A scripted intermediate holds its forwarded payloads too.
        self.send_down(ctx, view, tree.clone(), msg);
        self.telemetry
            .instant(Stage::Vote, self.id, view, ctx.now.as_micros(), &[]);
        let agg = self.aggregate(view, ctx.now);
        agg.digest = digest;
        agg.votes.insert(id);
        agg.tree = Some(tree);
        ctx.set_timer(self.policy.child_timeout(), TIMER_CHILD_BASE + view);
        self.maybe_forward_aggregate(ctx, view, false);
        self.maybe_declare_stale_failure(ctx);
    }

    /// React to repeated stale proposals. Called after the stale proposal
    /// has been processed, so the evidence has already travelled down the
    /// tree. The receiver records the §6.4 reciprocal pair
    /// (receiver, upstream); what else happens depends on where the
    /// receiver sits:
    ///
    /// * Directly under the root (phase 1): consensus itself is being
    ///   stalled at the source, so the replica also declares the tree
    ///   failed — liveness cannot wait for evidence to commit through the
    ///   very pipeline being withheld. The declaration carries no blame.
    /// * Deeper (phase 2): only this subtree is starved — the tree at
    ///   large still commits (a single subtree cannot break the quorum),
    ///   so the replica keeps participating and lets the committed pair
    ///   trigger the *coordinated* rotation in `apply_committed`.
    fn maybe_declare_stale_failure(&mut self, ctx: &mut Context<KauriMessage>) {
        if self.stale_strikes >= STALE_STRIKE_LIMIT && !self.is_root() && !self.reconfiguring {
            self.stale_strikes = 0;
            let Some((upstream, depth)) = self.last_stale_upstream.take() else {
                return;
            };
            let pair = SuspicionPair {
                accuser: self.id,
                accused: upstream,
                round: self.last_strike_view,
                phase: depth,
                reciprocal: false,
            };
            self.file_pair(pair);
            if depth == 1 {
                self.reconfigure(ctx, &[]);
            } else {
                self.flush_evidence(ctx);
            }
        }
    }

    /// The aggregation state of `view`, created on its first proposal or vote.
    fn aggregate(&mut self, view: u64, now: SimTime) -> &mut AggState {
        self.aggregates.entry(view).or_insert_with(|| AggState {
            since: now,
            ..AggState::default()
        })
    }

    /// Drop aggregation state older than a view timeout, oldest views first.
    /// By then the child timeout has long forwarded whatever was collected,
    /// the root has committed or abandoned the view, and a proposal that old
    /// is stale on arrival — the state only served to de-duplicate prompt
    /// re-deliveries.
    fn prune_aggregates(&mut self, now: SimTime) {
        let horizon = self.policy.view_timeout();
        while self
            .aggregates
            .first_key_value()
            .is_some_and(|(_, agg)| now.since(agg.since) >= horizon)
        {
            self.aggregates.pop_first();
        }
    }

    fn maybe_forward_aggregate(
        &mut self,
        ctx: &mut Context<KauriMessage>,
        view: u64,
        timeout: bool,
    ) {
        let Some(agg) = self.aggregates.get(&view) else {
            return;
        };
        if agg.forwarded {
            return;
        }
        // Aggregate on the tree the view routed on (falling back to the
        // durable tree for votes that arrived without a proposal).
        let tree = agg.tree.as_deref().unwrap_or(&self.tree);
        let children = tree.children_of(self.id);
        let have_all = children.iter().all(|c| agg.votes.contains(c));
        if !have_all && !timeout {
            return;
        }
        let parent = tree.parent(self.id);
        let voters: Vec<usize> = agg.votes.iter().copied().collect();
        if let Some(a) = self.aggregates.get_mut(&view) {
            a.forwarded = true;
        }
        if let Some(parent) = parent {
            self.telemetry.instant(
                Stage::Aggregate,
                self.id,
                view,
                ctx.now.as_micros(),
                &[("votes", voters.len() as f64)],
            );
            ctx.send(
                parent,
                KauriMessage::Aggregate {
                    view,
                    voters,
                    aggregator: self.id,
                },
            );
        }
    }

    fn handle_vote(&mut self, ctx: &mut Context<KauriMessage>, view: u64, voter: usize) {
        if self.is_root() {
            // Star topology (or direct children of the root): count directly.
            self.add_root_votes(ctx, view, [voter]);
            return;
        }
        self.aggregate(view, ctx.now).votes.insert(voter);
        self.maybe_forward_aggregate(ctx, view, false);
    }

    fn handle_aggregate(
        &mut self,
        ctx: &mut Context<KauriMessage>,
        view: u64,
        voters: &[usize],
        aggregator: usize,
    ) {
        if !self.is_root() {
            return;
        }
        self.add_root_votes(ctx, view, voters.iter().copied().chain([aggregator]));
    }

    fn add_root_votes(
        &mut self,
        ctx: &mut Context<KauriMessage>,
        view: u64,
        voters: impl IntoIterator<Item = usize>,
    ) {
        let threshold = self.system.quorum();
        let Some(state) = self.views.get_mut(&view) else {
            return;
        };
        state.voters.extend(voters);
        if state.voters.len() >= threshold {
            let state = self.views.remove(&view).expect("view looked up above");
            let (ts, commands, batch_id) = (state.proposal_ts, state.commands, state.batch_id);
            self.commit_config_payload(ctx, state.cmds);
            self.stats.record_commit(ts, ctx.now, commands);
            KAURI_COMMITS.record(
                &self.telemetry,
                self.id,
                view,
                ts.as_micros(),
                ctx.now.since(ts).as_micros(),
                commands,
            );
            // The proposing root reports the committed batch back to the
            // traffic queue for end-to-end accounting. Batches in views a
            // reconfiguration discards are retried by the client population
            // (see `abandon_uncommitted_views`).
            self.traffic.commit_batch_in(batch_id, ctx.now, view);
            self.propose_next(ctx);
        }
    }

    /// The role-config commit path: the first committed view of a new
    /// operating epoch commits the epoch's tree command, and the evidence
    /// commands the view carried commit with it. The grown prefix is
    /// broadcast as the commit notification (and keeps riding every later
    /// proposal), and only then does the root act on any reconfiguration
    /// the committed evidence triggered — so the evidence always reaches
    /// the other replicas even if this root stops proposing right after.
    fn commit_config_payload(&mut self, ctx: &mut Context<KauriMessage>, cmds: Vec<TreeCommand>) {
        let before = self.config.len();
        let mut accused = Vec::new();
        if self.config.epoch() < self.epoch {
            let cmd = ConfigCommand::Config {
                epoch: self.epoch,
                config: Tree::clone(&self.tree),
            };
            self.apply_committed(ctx, &cmd);
        }
        for cmd in cmds {
            if let Some(a) = self.apply_committed(ctx, &cmd) {
                accused.push(a);
            }
        }
        if self.config.len() > before {
            self.refresh_wire();
            let others: Vec<usize> = (0..self.system.n).filter(|&r| r != self.id).collect();
            ctx.multicast(
                &others,
                KauriMessage::Committed {
                    prefix: self.committed_wire.clone(),
                },
            );
        }
        if !accused.is_empty() {
            self.reconfigure(ctx, &accused);
        }
    }

    fn handle_view_timeout(&mut self, ctx: &mut Context<KauriMessage>, view: u64) {
        if !self.is_root() || self.reconfiguring {
            return;
        }
        // A scripted attacker ignores its own view timeouts: a Byzantine
        // root wants to *keep* the role it is abusing, and letting it
        // honestly declare its own tree failed would fork the shared policy
        // sequence (its `missing` set differs from the honest replicas',
        // which all blame the root). Recovery comes from the honest side —
        // the staleness strikes in `handle_proposal`.
        if self.withhold.active(ctx.now) {
            return;
        }
        // A view still in flight when its timer fires has failed; a view
        // that committed (or was abandoned) is no longer here.
        if let Some(state) = self.views.get(&view) {
            let missing: Vec<usize> = (0..self.system.n)
                .filter(|r| !state.voters.contains(r))
                .collect();
            // §6.4 pairs on view failures: the root observed the omission,
            // so it pairs itself with each unresponsive *internal* node of
            // the failed tree and feeds the pairs through the log (the
            // local `on_view_failure` below keeps the immediate exclusion
            // the policies already perform; the committed pairs are the
            // shared evidence the other replicas' monitors converge on).
            for internal in self.tree.internal_nodes() {
                if internal != self.id && missing.contains(&internal) {
                    self.file_pair(SuspicionPair {
                        accuser: self.id,
                        accused: internal,
                        round: view,
                        phase: 1,
                        reciprocal: false,
                    });
                }
            }
            self.reconfigure(ctx, &missing);
        }
    }

    fn reconfigure(&mut self, ctx: &mut Context<KauriMessage>, missing: &[usize]) {
        self.policy.on_view_failure(missing);
        self.tree = Arc::new(self.policy.next_tree(self.system.n, self.branch));
        self.epoch += 1;
        self.reconfig_times.push(ctx.now);
        self.telemetry.instant(
            Stage::Reconfigure,
            self.id,
            self.epoch,
            ctx.now.as_micros(),
            &[("missing", missing.len() as f64)],
        );
        self.telemetry
            .counter_add("kauri.node.reconfigurations", Some(self.id), 1);
        self.aggregates.clear();
        self.withhold.clear();
        self.stale_strikes = 0;
        self.last_strike_view = 0;
        // (The pair filter is NOT reset here: local reconfigures happen at
        // replica-specific instants, and the filter must remain a pure
        // function of the committed prefix — it resets on committed epoch
        // adoptions instead.)
        // Dropped views return their batches to the clients (bounded
        // retries); fresh batches will be proposed on the new tree.
        self.abandon_uncommitted_views(ctx.now);
        // The new root is legitimately silent while it runs the
        // reconfiguration search (reconfig_delay): start the staleness clock
        // only once it could have proposed, or every replica walks off to
        // the next tree before any root ever speaks — a reconfiguration
        // treadmill that blanks throughput for tens of seconds.
        self.last_progress = ctx.now + self.reconfig_delay;
        if self.tree.root == self.id {
            self.reconfiguring = true;
            ctx.set_timer(self.reconfig_delay, TIMER_RECONFIG_DONE);
        } else {
            self.reconfiguring = false;
        }
        // Evidence (including what this failure produced) goes to whoever
        // can now commit it.
        self.flush_evidence(ctx);
    }
}

impl Node for KauriNode {
    type Msg = KauriMessage;

    fn on_start(&mut self, ctx: &mut Context<KauriMessage>) {
        self.arm_progress_timer(ctx);
        if self.is_root() {
            self.propose_next(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<KauriMessage>, _from: NodeId, msg: KauriMessage) {
        match msg {
            KauriMessage::Proposal {
                view,
                digest,
                commands,
                timestamp_us,
                epoch,
                tree,
                committed,
            } => self.handle_proposal(
                ctx,
                view,
                digest,
                commands,
                timestamp_us,
                epoch,
                tree,
                committed,
            ),
            KauriMessage::Vote { view, voter } => self.handle_vote(ctx, view, voter),
            KauriMessage::Aggregate {
                view,
                voters,
                aggregator,
            } => self.handle_aggregate(ctx, view, &voters, aggregator),
            KauriMessage::Evidence { cmds } => {
                // Only the replica currently proposing can order evidence;
                // senders re-flush after reconfigurations, so evidence that
                // reaches a non-root is simply dropped here.
                if self.is_root() {
                    self.enqueue_pending(cmds);
                }
            }
            KauriMessage::Committed { prefix } => {
                self.apply_committed_prefix(ctx, &prefix);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<KauriMessage>, timer: TimerId, tag: u64) {
        match tag {
            TIMER_PROGRESS => {
                // No proposal seen for a whole progress window: if we are not
                // the (live) root, assume the tree failed and move on — the
                // crash detector. Root silence while the shared traffic
                // queue has nothing flushable is *legitimate* (an `OnOff`
                // burst gap, or the end of the schedule), not failure: the
                // staleness clock is pushed forward instead of striking.
                let stale = ctx.now.since(self.last_progress) >= self.progress_window();
                let idle = !self.traffic.has_flushable(ctx.now);
                if stale && idle {
                    self.last_progress = ctx.now;
                } else if stale && !self.is_root() {
                    // Silence is ambiguous: the root may be dead, or an
                    // upstream hop may be withholding everything it should
                    // forward. Before walking, file the §6.4 pair
                    // (self, upstream) with the *current* root: if the tree
                    // at large is still committing (a withholding
                    // intermediate starves only its own subtree), the pair
                    // commits within a round trip and the whole cluster
                    // rotates coordinately off the committed evidence —
                    // instead of this subtree deposing an innocent root on
                    // its own. If the root really is dead the evidence is
                    // re-flushed to its successor, and walking now (with
                    // the crash-blame the policies expect) preserves
                    // liveness exactly as before.
                    let tree = self.tree.clone();
                    if let Some(pair) =
                        self.pair_against_upstream(&tree, self.highest_view_seen + 1)
                    {
                        self.file_pair(pair);
                        self.flush_evidence(ctx);
                    }
                    self.reconfigure(ctx, &[self.tree.root]);
                }
                self.arm_progress_timer(ctx);
            }
            TIMER_RECONFIG_DONE => {
                self.reconfiguring = false;
                self.next_view = self.highest_view_seen.max(self.next_view) + 1;
                self.propose_next(ctx);
            }
            TIMER_TRAFFIC_READY => {
                self.wake.fired(timer);
                self.telemetry
                    .counter_add("kauri.node.traffic_wakeups", Some(self.id), 1);
                self.propose_next(ctx);
            }
            t if HOLD_TAGS.contains(&t) => {
                if let Some((tree, msg)) = self.withhold.release(t) {
                    ctx.multicast(tree.children_of(self.id), msg);
                }
            }
            t if t >= TIMER_VIEW_BASE => self.handle_view_timeout(ctx, t - TIMER_VIEW_BASE),
            t if t >= TIMER_CHILD_BASE => {
                self.maybe_forward_aggregate(ctx, t - TIMER_CHILD_BASE, true);
                self.prune_aggregates(ctx.now);
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        // The simulator drops a crashed node's timers silently: an armed
        // wake-up that falls due during the outage never fires, and a marker
        // left behind would keep the recovered root from ever arming another.
        self.wake.clear();
    }
}

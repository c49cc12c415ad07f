//! The PBFT/BFT-SMaRt replica state machine, written against the
//! runtime-agnostic node API.
//!
//! Replicas run the three-phase protocol with weighted quorums. The leader
//! takes each proposal's commands from the run's open-loop traffic queue
//! (a batch when the queue's size-or-timeout rule has one ready, an empty
//! heartbeat block otherwise) and piggybacks pending measurement blobs on it
//! (the "sensor app" path of Fig 1). Every replica feeds committed blobs to
//! its [`ReconfigPolicy`] in log order, so configuration decisions are
//! identical everywhere. The proposer of a batch reports its commit back to
//! the queue, which measures what clients see end to end (what Fig 7 plots).

use crate::messages::{PbftMessage, Phase};
use crate::policy::{PbftRoundRecord, ReconfigPolicy};
use crate::weights::{VoterSet, WeightConfig};
use crypto::Digest;
use rsm::{misbehavior, Block, Command, CommitStats, DelayStage, SealedBlock};
use runtime::{Context, Duration, Node, NodeId, SimTime, TimerId};
use std::collections::BTreeMap;
use std::sync::Arc;
use telemetry::{Stage, Telemetry};
use traffic::SharedTrafficQueue;

/// Timer tags.
const TIMER_PROBE_START: u64 = 1;
const TIMER_PROBE_COLLECT: u64 = 2;
const TIMER_DELAYED_PROPOSE: u64 = 4;

/// One in-flight consensus instance at a replica.
#[derive(Debug, Clone)]
struct Instance {
    /// The proposed block; `None` while only votes have arrived.
    block: Option<Arc<SealedBlock>>,
    digest: Digest,
    /// Configuration epoch carried by the proposal message.
    epoch: u64,
    /// The replica that sent the proposal (the epoch's leader).
    leader: usize,
    proposal_ts: SimTime,
    measurements: Vec<Vec<u8>>,
    write_voters: VoterSet,
    accept_voters: VoterSet,
    sent_accept: bool,
    committed: bool,
    /// Sized once for what a round records — the proposal, then every other
    /// replica's Write and Accept — and moved into the round's
    /// [`PbftRoundRecord`] at commit, where late votes still land.
    arrivals: Vec<(usize, u32, SimTime)>,
}

impl Instance {
    /// An instance with no proposal yet.
    fn new(n: usize, digest: Digest, epoch: u64, leader: usize, proposal_ts: SimTime) -> Self {
        Instance {
            block: None,
            digest,
            epoch,
            leader,
            proposal_ts,
            measurements: Vec::new(),
            write_voters: VoterSet::default(),
            accept_voters: VoterSet::default(),
            sent_accept: false,
            committed: false,
            arrivals: Vec::with_capacity(2 * n - 1),
        }
    }
}

/// A record of one reconfiguration, for run reports.
#[derive(Debug, Clone)]
pub struct ReconfigEvent {
    /// When the replica switched.
    pub at: SimTime,
    /// The new configuration.
    pub config: WeightConfig,
}

/// Protocol state of one replica.
pub struct ReplicaState {
    /// Replica id (0-based, below `n`).
    pub id: usize,
    n: usize,
    f: usize,
    /// Every other replica: the targets of each multicast.
    peers: Vec<NodeId>,
    probe_interval: Duration,
    probe_timeout: Duration,
    /// Scripted Pre-Prepare delay attack stages (empty when correct):
    /// whenever this replica is leader and a stage is active, it delays
    /// sending each proposal by the stage's delay (keeping its proposal
    /// timestamp honest, so the delay is visible as a widened
    /// inter-proposal gap — exactly what suspicion condition (a) detects).
    /// Several stages let one replica attack, go quiet, and attack again.
    delays: Vec<DelayStage>,
    policy: Box<dyn ReconfigPolicy>,
    config: WeightConfig,
    /// `config`'s weighted quorum threshold, derived whenever a
    /// configuration is adopted, so a vote sums only its voters' weights.
    quorum: u32,
    pending_measurements: Vec<Vec<u8>>,
    instances: BTreeMap<u64, Instance>,
    next_seq: u64,
    last_committed_seq: u64,
    prev_proposal_ts: Option<SimTime>,
    prev_epoch: Option<u64>,
    delayed_block: Option<(u64, Block, Vec<Vec<u8>>)>,
    /// Committed rounds whose observations are still accumulating late
    /// arrivals; they are handed to the policy two commits later so that
    /// messages from replicas outside the fastest quorum are not mistaken
    /// for omissions.
    pending_records: Vec<PbftRoundRecord>,
    probe_nonce: u64,
    probe_rtts: Vec<f64>,
    /// The run's open-loop traffic source: the leader pulls size-or-timeout
    /// batches from this queue, shared by every replica of the run.
    traffic: SharedTrafficQueue,
    /// Traffic batch ids by proposed sequence number (proposer side).
    traffic_batches: BTreeMap<u64, u64>,
    /// `(seq, digest fingerprint)` per commit, in local commit order — the
    /// exact agreement-checkpoint history the end-of-run auditor consumes
    /// (the live gauges only expose the latest pair).
    commit_checkpoints: Vec<(u64, u64)>,
    /// Telemetry handle (disabled by default).
    telemetry: Telemetry,
    /// Statistics: consensus latency and throughput.
    pub stats: CommitStats,
    /// Reconfigurations this replica performed.
    pub reconfigs: Vec<ReconfigEvent>,
}

impl ReplicaState {
    /// Create a replica that proposes from `traffic`.
    pub fn new(
        id: usize,
        n: usize,
        f: usize,
        traffic: SharedTrafficQueue,
        policy: Box<dyn ReconfigPolicy>,
    ) -> Self {
        assert!(
            n <= VoterSet::CAPACITY,
            "a replica counts votes of at most {} replicas",
            VoterSet::CAPACITY
        );
        let config = WeightConfig::initial(n, f);
        ReplicaState {
            id,
            n,
            f,
            peers: (0..n).filter(|&r| r != id).collect(),
            probe_interval: Duration::from_secs(5),
            probe_timeout: Duration::from_millis(800),
            delays: Vec::new(),
            policy,
            quorum: config.quorum_threshold(f),
            config,
            pending_measurements: Vec::new(),
            instances: BTreeMap::new(),
            next_seq: 1,
            last_committed_seq: 0,
            prev_proposal_ts: None,
            prev_epoch: None,
            delayed_block: None,
            pending_records: Vec::new(),
            probe_nonce: 0,
            probe_rtts: vec![f64::INFINITY; n],
            traffic,
            traffic_batches: BTreeMap::new(),
            commit_checkpoints: Vec::new(),
            telemetry: Telemetry::disabled(),
            stats: CommitStats::new(),
            reconfigs: Vec::new(),
        }
    }

    /// Install scripted proposal-delay stages (the protocol-level attack).
    pub fn with_delays(mut self, delays: Vec<DelayStage>) -> Self {
        self.delays = delays;
        self
    }

    /// Install a telemetry handle (propose/forward/vote/commit spans plus
    /// per-replica commit metrics).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The currently active configuration.
    pub fn config(&self) -> &WeightConfig {
        &self.config
    }

    /// Every `(seq, digest fingerprint)` this replica committed, in local
    /// commit order. Feed these to the auditor's `pbft` surface.
    pub fn commit_checkpoints(&self) -> &[(u64, u64)] {
        &self.commit_checkpoints
    }

    fn is_leader(&self) -> bool {
        self.config.leader == self.id
    }

    fn try_propose(&mut self, ctx: &mut Context<PbftMessage>) {
        if !self.is_leader() || self.delayed_block.is_some() {
            return;
        }
        // Only one instance in flight (BFT-SMaRt's consensus-per-batch).
        if self.next_seq != self.last_committed_seq + 1 {
            return;
        }
        // Leaders propose continuously: the leader attaches a batch whenever
        // the queue's size-or-timeout rule has one ready and otherwise sends
        // an empty heartbeat block, which keeps rounds back-to-back. That is
        // what the round-duration estimate `d_rnd` (and therefore suspicion
        // condition (a)) assumes, so batching never distorts round timing
        // (and never triggers condition (a) against an honest,
        // lightly-loaded leader).
        let commands = match self.traffic.try_batch_at(ctx.now, self.id) {
            Some(batch) => {
                self.traffic_batches.insert(self.next_seq, batch.id);
                batch.commands
            }
            None => Vec::new(),
        };
        let block = Block::new(
            Digest::ZERO,
            self.next_seq,
            self.next_seq,
            self.id,
            commands,
        );
        let measurements = std::mem::take(&mut self.pending_measurements);

        let hold = misbehavior::hold_at(&self.delays, ctx.now);
        if !hold.is_zero() {
            // The Pre-Prepare delay attack as its own span on the
            // attacker's track (the Fig 7 "dissemination-hold" bar).
            self.telemetry.span(
                Stage::Hold,
                self.id,
                self.next_seq,
                ctx.now.as_micros(),
                hold.as_micros(),
                &[],
            );
            self.delayed_block = Some((self.next_seq, block, measurements));
            ctx.set_timer(hold, TIMER_DELAYED_PROPOSE);
            return;
        }
        self.send_propose(ctx, self.next_seq, block, measurements);
    }

    fn send_propose(
        &mut self,
        ctx: &mut Context<PbftMessage>,
        seq: u64,
        block: Block,
        measurements: Vec<Vec<u8>>,
    ) {
        self.next_seq = seq + 1;
        let epoch = self.config.epoch;
        let block = Arc::new(SealedBlock::seal(block));
        let msg = PbftMessage::Propose {
            seq,
            epoch,
            block: block.clone(),
            timestamp_us: ctx.now.as_micros(),
            measurements: measurements.clone(),
        };
        self.telemetry.instant(
            Stage::Propose,
            self.id,
            seq,
            ctx.now.as_micros(),
            &[("commands", block.len() as f64)],
        );
        ctx.multicast(&self.peers, msg);
        // Process our own proposal locally.
        self.handle_propose(
            ctx,
            self.id,
            seq,
            epoch,
            block,
            ctx.now.as_micros(),
            measurements,
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Propose message fields
    fn handle_propose(
        &mut self,
        ctx: &mut Context<PbftMessage>,
        from: usize,
        seq: u64,
        epoch: u64,
        block: Arc<SealedBlock>,
        timestamp_us: u64,
        measurements: Vec<Vec<u8>>,
    ) {
        if seq <= self.last_committed_seq {
            return;
        }
        // Read from the seal: the leader hashed the block once, and a
        // receiver on a real wire re-sealed it as it decoded.
        let digest = block.digest();
        let proposal_ts = SimTime::from_micros(timestamp_us);
        let n = self.n;
        let entry = self
            .instances
            .entry(seq)
            .or_insert_with(|| Instance::new(n, digest, epoch, from, proposal_ts));
        entry.block = Some(block);
        entry.digest = digest;
        entry.epoch = epoch;
        entry.leader = from;
        entry.proposal_ts = proposal_ts;
        entry.measurements = measurements;
        entry.arrivals.push((from, Phase::Propose.tag(), ctx.now));
        if from != self.id {
            // Dissemination hop: leader's (honest) proposal timestamp →
            // delivery at this replica, including any scripted hold.
            self.telemetry.span(
                Stage::Forward,
                self.id,
                seq,
                timestamp_us,
                ctx.now.as_micros().saturating_sub(timestamp_us),
                &[],
            );
        }
        self.telemetry
            .instant(Stage::Vote, self.id, seq, ctx.now.as_micros(), &[]);

        // Vote Write.
        let write = PbftMessage::Write {
            seq,
            digest,
            voter: self.id,
        };
        ctx.multicast(&self.peers, write);
        self.handle_write(ctx, self.id, seq, digest);
    }

    /// Record a late arrival for a round that already committed but whose
    /// observation has not been evaluated yet.
    fn record_late_arrival(&mut self, seq: u64, from: usize, phase: u32, at: SimTime) {
        if let Some(record) = self.pending_records.iter_mut().find(|r| r.seq == seq) {
            record.arrivals.push((from, phase, at));
        }
    }

    fn handle_write(
        &mut self,
        ctx: &mut Context<PbftMessage>,
        voter: usize,
        seq: u64,
        digest: Digest,
    ) {
        if seq <= self.last_committed_seq {
            self.record_late_arrival(seq, voter, Phase::Write.tag(), ctx.now);
            return;
        }
        let entry = match self.instances.get_mut(&seq) {
            Some(e) if e.digest == digest => e,
            // Write may arrive before the proposal; buffer a placeholder.
            Some(_) => return,
            // Best guess at epoch, leader and timestamp until the proposal
            // arrives; handle_propose overwrites them.
            None => self.instances.entry(seq).or_insert(Instance::new(
                self.n,
                digest,
                self.config.epoch,
                self.config.leader,
                ctx.now,
            )),
        };
        if voter != self.id {
            entry.arrivals.push((voter, Phase::Write.tag(), ctx.now));
        }
        entry.write_voters.insert(voter);
        if !entry.sent_accept && self.config.is_quorum(&entry.write_voters, self.quorum) {
            entry.sent_accept = true;
            let accept = PbftMessage::Accept {
                seq,
                digest,
                voter: self.id,
            };
            ctx.multicast(&self.peers, accept);
            self.handle_accept(ctx, self.id, seq, digest);
        }
    }

    fn handle_accept(
        &mut self,
        ctx: &mut Context<PbftMessage>,
        voter: usize,
        seq: u64,
        digest: Digest,
    ) {
        if seq <= self.last_committed_seq {
            self.record_late_arrival(seq, voter, Phase::Accept.tag(), ctx.now);
            return;
        }
        let entry = match self.instances.get_mut(&seq) {
            Some(e) if e.digest == digest => e,
            _ => return,
        };
        if voter != self.id {
            entry.arrivals.push((voter, Phase::Accept.tag(), ctx.now));
        }
        entry.accept_voters.insert(voter);
        if entry.committed || !self.config.is_quorum(&entry.accept_voters, self.quorum) {
            return;
        }
        entry.committed = true;
        self.commit(ctx, seq);
    }

    fn commit(&mut self, ctx: &mut Context<PbftMessage>, seq: u64) {
        let instance = self.instances.remove(&seq).expect("instance exists");
        self.last_committed_seq = seq;
        // Agreement checkpoint for the online auditor: any two replicas
        // committing the same seq must publish the same digest. Set under
        // one registry lock so seq and digest can never be read torn.
        let fp = telemetry::fingerprint48(&instance.digest.0);
        self.commit_checkpoints.push((seq, fp));
        let id = self.id;
        self.telemetry.with_registry(|reg| {
            reg.gauge_set("pbft.replica.commit_seq", Some(id), seq as f64);
            reg.gauge_set("pbft.replica.commit_digest", Some(id), fp as f64);
        });
        // Keep the proposal counter in sync even at replicas that never led,
        // so a replica that later gains the leader role proposes the right
        // sequence number.
        self.next_seq = self.next_seq.max(seq + 1);
        let commands: &[Command] = instance.block.as_ref().map_or(&[], |b| &b.commands);
        if !commands.is_empty() {
            self.stats
                .record_commit(instance.proposal_ts, ctx.now, commands.len());
            self.telemetry.span(
                Stage::Commit,
                self.id,
                seq,
                instance.proposal_ts.as_micros(),
                ctx.now.since(instance.proposal_ts).as_micros(),
                &[("commands", commands.len() as f64)],
            );
            self.telemetry
                .counter_add("pbft.replica.commits", Some(self.id), 1);
            self.telemetry.observe(
                "pbft.replica.commit_us",
                Some(self.id),
                ctx.now.since(instance.proposal_ts).as_micros(),
            );
        }

        // The proposer (the only replica that knows the batch id) reports
        // the commit so the queue can account end-to-end latency.
        if let Some(id) = self.traffic_batches.remove(&seq) {
            self.traffic.commit_batch_in(id, ctx.now, seq);
        }

        // Feed committed measurements to the policy (log order).
        let mut follow_ups = Vec::new();
        for blob in &instance.measurements {
            follow_ups.extend(self.policy.on_committed_measurement(self.id, blob));
        }

        // Sensor-side round observation: buffer it and evaluate it two
        // commits later (three, to cover the slowest per-message deadlines), so
        // messages from replicas outside the fastest
        // quorum can still be recorded as on-time arrivals.
        let record = PbftRoundRecord {
            seq,
            epoch: instance.epoch,
            leader: instance.leader,
            proposal_ts: instance.proposal_ts,
            prev_proposal_ts: self.prev_proposal_ts,
            prev_epoch: self.prev_epoch,
            commit_time: ctx.now,
            arrivals: instance.arrivals,
        };
        self.pending_records.push(record);
        self.prev_proposal_ts = Some(instance.proposal_ts);
        self.prev_epoch = Some(instance.epoch);
        // A record is ready once later commits exist (so late arrivals were
        // recorded) AND every per-message deadline the policy will check has
        // elapsed — with pipelined rounds, commit count alone can outpace the
        // stragglers' on-time messages.
        let hold = self.policy.observation_hold();
        while self
            .pending_records
            .first()
            .map(|r| r.seq + 3 <= seq && ctx.now >= r.proposal_ts + hold)
            .unwrap_or(false)
        {
            let ready = self.pending_records.remove(0);
            follow_ups.extend(self.policy.on_round(&ready));
        }
        self.forward_sensor_data(ctx, follow_ups);

        // Deterministic reconfiguration decision.
        if let Some(new_config) = self.policy.decide(self.config.epoch, ctx.now) {
            if new_config.epoch == self.config.epoch + 1 {
                self.telemetry.instant(
                    Stage::Reconfigure,
                    self.id,
                    new_config.epoch,
                    ctx.now.as_micros(),
                    &[("leader", new_config.leader as f64)],
                );
                self.quorum = new_config.quorum_threshold(self.f);
                self.config = new_config.clone();
                self.reconfigs.push(ReconfigEvent {
                    at: ctx.now,
                    config: new_config,
                });
            }
        }

        if self.is_leader() {
            self.try_propose(ctx);
        }
    }

    fn forward_sensor_data(&mut self, ctx: &mut Context<PbftMessage>, blobs: Vec<Vec<u8>>) {
        if blobs.is_empty() {
            return;
        }
        if self.is_leader() {
            self.pending_measurements.extend(blobs);
        } else {
            ctx.send(self.config.leader, PbftMessage::SensorData { blobs });
        }
    }

    fn start_probe_round(&mut self, ctx: &mut Context<PbftMessage>) {
        self.probe_nonce += 1;
        self.probe_rtts = vec![f64::INFINITY; self.n];
        self.probe_rtts[self.id] = 0.0;
        let msg = PbftMessage::Probe {
            nonce: self.probe_nonce,
            sent_at_us: ctx.now.as_micros(),
        };
        ctx.multicast(&self.peers, msg);
        ctx.set_timer(self.probe_timeout, TIMER_PROBE_COLLECT);
        ctx.set_timer(self.probe_interval, TIMER_PROBE_START);
    }

    fn finish_probe_round(&mut self, ctx: &mut Context<PbftMessage>) {
        let blobs = self.policy.on_latency_vector(self.id, &self.probe_rtts);
        self.forward_sensor_data(ctx, blobs);
    }
}

impl Node for ReplicaState {
    type Msg = PbftMessage;

    fn on_start(&mut self, ctx: &mut Context<PbftMessage>) {
        // Stagger probe rounds slightly so they do not all collide.
        let offset = Duration::from_millis(50 * (self.id as u64 + 1));
        ctx.set_timer(offset, TIMER_PROBE_START);
        if self.is_leader() {
            self.try_propose(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<PbftMessage>, from: NodeId, msg: PbftMessage) {
        match msg {
            PbftMessage::Propose {
                seq,
                epoch,
                block,
                timestamp_us,
                measurements,
            } => self.handle_propose(ctx, from, seq, epoch, block, timestamp_us, measurements),
            PbftMessage::Write { seq, digest, voter } => self.handle_write(ctx, voter, seq, digest),
            PbftMessage::Accept { seq, digest, voter } => {
                self.handle_accept(ctx, voter, seq, digest)
            }
            PbftMessage::Probe { nonce, sent_at_us } => {
                ctx.send(
                    from,
                    PbftMessage::ProbeReply {
                        nonce,
                        sent_at_us,
                        replica: self.id,
                    },
                );
            }
            PbftMessage::ProbeReply {
                nonce,
                sent_at_us,
                replica,
            } => {
                if nonce == self.probe_nonce && replica < self.n {
                    let rtt = ctx.now.since(SimTime::from_micros(sent_at_us));
                    self.probe_rtts[replica] = rtt.as_millis_f64();
                }
            }
            PbftMessage::SensorData { blobs } => {
                if self.is_leader() {
                    self.pending_measurements.extend(blobs);
                    self.try_propose(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<PbftMessage>, _timer: TimerId, tag: u64) {
        match tag {
            TIMER_PROBE_START => self.start_probe_round(ctx),
            TIMER_PROBE_COLLECT => self.finish_probe_round(ctx),
            TIMER_DELAYED_PROPOSE => {
                if let Some((seq, block, measurements)) = self.delayed_block.take() {
                    self.send_propose(ctx, seq, block, measurements);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;

    #[test]
    fn replica_initial_state() {
        let idle =
            SharedTrafficQueue::generate(&rsm::TrafficSpec::poisson(1.0), &[1.0], 0, SimTime::ZERO);
        let r = ReplicaState::new(2, 7, 2, idle, Box::new(StaticPolicy));
        assert_eq!(r.config().leader, 0);
        assert!(!r.is_leader());
        assert_eq!(r.last_committed_seq, 0);
    }
}

//! # optiaware — OptiLog applied to the Aware/BFT-SMaRt substrate (§5)
//!
//! OptiAware keeps Aware's deterministic latency optimisation and adds what
//! Aware lacks: accountability for replicas that *behave differently for
//! protocol messages than for probes*. It wires the OptiLog pipeline into the
//! PBFT substrate:
//!
//! * the LatencySensor output (probe round-trip vectors) is replicated
//!   through the log and folded into the shared latency matrix;
//! * a [`optilog::SuspicionSensor`] checks every committed round against the
//!   per-message timeouts derived from the Aware score function (`d_m`,
//!   `d_rnd` — the TR1–TR3 construction of Appendix C) and logs `⟨Slow, …⟩`
//!   suspicions for replicas that miss their deadlines, e.g. a leader running
//!   the Pre-Prepare delay attack;
//! * the [`optilog::SuspicionMonitor`] turns committed suspicions into the
//!   candidate set `K` and fault estimate `u`;
//! * the configuration search is restricted to candidates, so the attacker
//!   loses the leader role and its `V_max` weight at the next
//!   reconfiguration — which is exactly the recovery Fig 7 shows.
//!
//! Aware is this policy without the sensor ([`OptiAwarePolicy::aware`]). It
//! replicates and folds the same latency vectors and runs the same search
//! and improvement rule, but judges no round and ignores committed
//! suspicions, so every replica stays a candidate.
//!
//! The substrate calls `decide` after every commit, but the monitors are
//! functions of *committed* measurements, so the answer can only change when
//! the log delivers a latency vector that changes the matrix, a suspicion
//! that changes the graph, or a new leader term. The policy searches only
//! then (keyed on the two monitors' revisions) and answers every other call
//! from the output of its last search; `searches()` counts the searches.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
use optilog::{
    ConfigCommand, ConfigLog, LatencyMonitor, LatencyVector, MessageTimeout, RoundObservation,
    RoundTimeouts, Suspicion, SuspicionMonitor, SuspicionMonitorParams, SuspicionSensor, DELTA,
};
use pbft::score::optimize_configuration;
use pbft::{
    predict_message_delays, predict_round_latency, PbftRoundRecord, ReconfigPolicy, WeightConfig,
};
use runtime::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How many past configuration epochs the replicated configuration log
/// retains for judging in-flight round records. Records older than the
/// window are skipped (they are also long past their observation hold, so
/// this only bounds memory).
const EPOCH_HISTORY: usize = 4;

/// Measurement blobs OptiAware replicates through the ordered log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum OptiAwareBlob {
    /// A probe-derived latency vector.
    Latency {
        /// Reporting replica.
        reporter: usize,
        /// Round-trip times in ms (∞ encoded as 1e9).
        rtt_ms: Vec<f64>,
    },
    /// A suspicion raised by the SuspicionSensor.
    Suspicion(Suspicion),
}

impl OptiAwareBlob {
    /// Encode for the log.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("blob serializes")
    }

    /// Decode from the log.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
    }
}

/// The output of the last configuration search and the log state it ran
/// against.
#[derive(Default)]
struct Search {
    /// `(suspicion revision, latency revision)` at the time of the search;
    /// `None` before the first one.
    revisions: Option<(u64, u64)>,
    /// Replicas outside the candidate set.
    suspected: Vec<usize>,
    /// The best configuration and its score; `None` while the matrix is
    /// incomplete or no candidate remains.
    best: Option<(WeightConfig, f64)>,
}

/// The OptiAware reconfiguration policy: Aware's optimisation plus OptiLog's
/// suspicion monitoring. Without its sensor it is Aware.
pub struct OptiAwarePolicy {
    n: usize,
    f: usize,
    latency: LatencyMonitor,
    /// Judges this replica's committed rounds and reciprocates suspicions
    /// against it. `None` for Aware, which raises no suspicions and keeps
    /// committed ones out of `monitor`.
    sensor: Option<SuspicionSensor>,
    monitor: SuspicionMonitor,
    current_config: WeightConfig,
    /// The replicated configuration log: the epoch → configuration history
    /// (with the time this replica adopted each epoch), kept so a round
    /// record proposed under epoch `e` is judged against epoch `e`'s
    /// timeouts — even when it is evaluated after a reconfiguration. This
    /// removes the old post-reconfiguration observation blackout (a 2x
    /// grace hold during which the sensor was blind). Weight
    /// configurations enter it only through `decide` — the deterministic
    /// function of committed log content — so identical logs yield
    /// identical histories at every replica.
    config_log: ConfigLog<WeightConfig>,
    /// Per-epoch timeouts derived from the config log and the latency
    /// matrix, with the worst-case observation hold across them. Rebuilt
    /// only when the matrix or the config set changes — deriving timeouts
    /// is O(n²) and `observation_hold` is consulted on every commit.
    timeouts_cache: BTreeMap<u64, RoundTimeouts>,
    cached_hold: Duration,
    current_score: f64,
    optimize_after: SimTime,
    improvement_factor: f64,
    /// Leader terms seen so far: the monitor's "view" clock. Advances when
    /// the replica's adopted configuration epoch changes — an actual leader
    /// term — not once per commit, so the paper's term-denominated windows
    /// apply unscaled.
    terms: u64,
    /// The configuration epoch the last `decide` call ran under.
    last_epoch: Option<u64>,
    /// The last search, reused until a monitor revision moves.
    search: Search,
    searches: u64,
}

impl OptiAwarePolicy {
    /// The OptiAware policy for replica `id` of an `n`-replica system.
    pub fn new(id: usize, n: usize, f: usize, optimize_after: SimTime) -> Self {
        Self::with_sensor(n, f, Some(SuspicionSensor::new(id, DELTA)), optimize_after)
    }

    /// The Aware policy for an `n`-replica system: OptiAware without the
    /// suspicion sensor. Nothing it does depends on which replica runs it.
    pub fn aware(n: usize, f: usize, optimize_after: SimTime) -> Self {
        Self::with_sensor(n, f, None, optimize_after)
    }

    fn with_sensor(
        n: usize,
        f: usize,
        sensor: Option<SuspicionSensor>,
        optimize_after: SimTime,
    ) -> Self {
        OptiAwarePolicy {
            n,
            f,
            latency: LatencyMonitor::new(n),
            sensor,
            // The monitor's clock counts *actual leader terms* (configuration
            // epoch changes stamped on every `PbftRoundRecord` and mirrored
            // by `decide`'s `current_epoch`), so the paper's windows apply
            // with their own constants: reciprocation `f + 1` terms, and the
            // default stability window `w = 10` terms — which spans a whole
            // run (a 180 s experiment sees a handful of reconfigurations),
            // exactly as the paper's `w = 10` covers its experiment. An
            // excluded attacker therefore stays excluded for the run instead
            // of being rehabilitated by a commit-rate-scaled clock. A
            // reciprocation still has several commits to round-trip through
            // the log before the window can close: terms only advance on
            // reconfigurations, which are far sparser than commits.
            monitor: SuspicionMonitor::new(SuspicionMonitorParams::new(n, f)),
            current_config: WeightConfig::initial(n, f),
            config_log: ConfigLog::new(WeightConfig::initial(n, f), EPOCH_HISTORY),
            timeouts_cache: BTreeMap::new(),
            cached_hold: Duration::ZERO,
            current_score: f64::INFINITY,
            optimize_after,
            improvement_factor: 0.9,
            terms: 0,
            last_epoch: None,
            search: Search::default(),
            searches: 0,
        }
    }

    /// The candidate set currently derived from committed suspicions.
    pub fn candidates(&mut self) -> Vec<usize> {
        self.monitor.selection().as_vec()
    }

    /// True once the latency matrix covers every replica pair.
    pub fn matrix_complete(&self) -> bool {
        self.latency.matrix().is_complete()
    }

    /// How many configuration searches `decide` has run (diagnostic).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Bring `self.search` up to date with the monitors: search again only
    /// if a revision moved since the last search.
    fn refresh_search(&mut self) {
        let revisions = Some((self.monitor.revision(), self.latency.revision()));
        if self.search.revisions == revisions {
            return;
        }
        let mut suspected = Vec::new();
        let mut best = None;
        if self.matrix_complete() {
            let selection = self.monitor.selection();
            let candidates = selection.as_vec();
            if !candidates.is_empty() {
                suspected = (0..self.n).filter(|r| !selection.contains(*r)).collect();
                self.searches += 1;
                best = Some(optimize_configuration(
                    self.latency.matrix().as_slice(),
                    self.n,
                    self.f,
                    &candidates,
                    &suspected,
                    0,
                ));
            }
        }
        self.search = Search {
            revisions,
            suspected,
            best,
        };
    }

    /// Derive replica `id`'s per-message timeouts and the round duration for
    /// `config` from the shared latency matrix (TR1–TR3).
    fn round_timeouts_for(&self, id: usize, config: &WeightConfig) -> RoundTimeouts {
        if !self.matrix_complete() {
            return RoundTimeouts::default();
        }
        let matrix = self.latency.matrix().as_slice();
        let d_rnd = predict_round_latency(matrix, self.n, self.f, config, &[]);
        let messages = predict_message_delays(matrix, self.n, self.f, config, id)
            .into_iter()
            .map(|(from, kind, ms)| MessageTimeout::new(from, kind, Duration::from_millis_f64(ms)))
            .collect();
        RoundTimeouts::new(Duration::from_millis_f64(d_rnd), messages)
    }

    /// Rebuild the per-epoch timeout cache and the worst-case hold. Called
    /// whenever a committed vector changes the latency matrix or the config
    /// set changes. The timeouts exist to judge rounds, so without a sensor
    /// the cache stays empty and the hold zero.
    fn rebuild_timeout_caches(&mut self) {
        let Some(id) = self.sensor.as_ref().map(|sensor| sensor.id) else {
            return;
        };
        self.timeouts_cache = self
            .config_log
            .epochs()
            .map(|a| (a.epoch, self.round_timeouts_for(id, &a.config)))
            .collect();
        self.cached_hold = self
            .timeouts_cache
            .values()
            .map(Self::hold_for)
            .max()
            .unwrap_or(Duration::ZERO);
    }

    /// The slowest δ-scaled per-message deadline plus slack.
    fn hold_for(timeouts: &RoundTimeouts) -> Duration {
        let slowest = timeouts
            .messages
            .iter()
            .map(|mt| mt.deadline(DELTA))
            .max()
            .unwrap_or(Duration::ZERO);
        slowest + optilog::DEADLINE_SLACK + optilog::DEADLINE_SLACK
    }
}

impl ReconfigPolicy for OptiAwarePolicy {
    fn on_latency_vector(&mut self, reporter: usize, rtt_ms: &[f64]) -> Vec<Vec<u8>> {
        let safe: Vec<f64> = rtt_ms
            .iter()
            .map(|&x| if x.is_finite() { x } else { 1.0e9 })
            .collect();
        vec![OptiAwareBlob::Latency {
            reporter,
            rtt_ms: safe,
        }
        .encode()]
    }

    fn observation_hold(&self) -> Duration {
        // Round records must not be judged before the slowest per-message
        // deadline has passed, or on-time messages from distant replicas get
        // reported as missing (and their senders falsely suspected). Pending
        // records may still belong to earlier epochs, so this is the
        // slowest hold across the tracked configurations (precomputed: the
        // replica asks on every commit).
        self.cached_hold
    }

    fn on_round(&mut self, record: &PbftRoundRecord) -> Vec<Vec<u8>> {
        // Aware judges no round.
        let Some(sensor) = self.sensor.as_mut() else {
            return Vec::new();
        };
        // Judge the round against the configuration it was proposed under.
        // Rounds from epochs the log no longer retains cannot be judged
        // fairly.
        let Some(adopted) = self.config_log.adopted_at(record.epoch) else {
            return Vec::new();
        };
        // The boundary round (whose predecessor ran under another epoch)
        // straddles the leader handover: its quorum assembled under a mix of
        // old and new weights, so its timings belong to neither epoch.
        if ConfigLog::<WeightConfig>::is_boundary_round(record.epoch, record.prev_epoch) {
            return Vec::new();
        }
        let Some(timeouts) = self
            .timeouts_cache
            .get(&record.epoch)
            .filter(|t| !t.messages.is_empty())
        else {
            return Vec::new();
        };
        // Pipeline-refill transient: for ~2 rounds after this replica
        // adopted the epoch, commits are still paced by stragglers switching
        // configurations. Skipping them replaces the old 2x-hold blackout
        // (typically 10+ rounds of blindness) with a 2-round one.
        let transient = timeouts.d_rnd + timeouts.d_rnd;
        if record.proposal_ts < adopted + transient {
            return Vec::new();
        }
        let obs = RoundObservation {
            round: record.seq,
            leader: record.leader,
            proposal_ts: record.proposal_ts,
            prev_proposal_ts: record.prev_proposal_ts,
            timeouts,
            arrivals: &record.arrivals,
        };
        let is_leader = record.leader == sensor.id;
        sensor
            .evaluate_round(&obs, is_leader)
            .into_iter()
            .map(|s| OptiAwareBlob::Suspicion(s).encode())
            .collect()
    }

    fn on_committed_measurement(&mut self, _replica_id: usize, blob: &[u8]) -> Vec<Vec<u8>> {
        let Some(blob) = OptiAwareBlob::decode(blob) else {
            return Vec::new();
        };
        match blob {
            OptiAwareBlob::Latency { reporter, rtt_ms } => {
                let before = self.latency.revision();
                self.latency
                    .on_vector(&LatencyVector::new(reporter, rtt_ms));
                if self.latency.revision() != before {
                    self.rebuild_timeout_caches();
                }
                Vec::new()
            }
            OptiAwareBlob::Suspicion(s) => {
                // Aware neither monitors nor reciprocates suspicions.
                let Some(sensor) = self.sensor.as_mut() else {
                    return Vec::new();
                };
                self.monitor.on_suspicion(&s);
                // Condition (c): reciprocate suspicions raised against us.
                sensor
                    .reciprocate(&s)
                    .map(|r| vec![OptiAwareBlob::Suspicion(r).encode()])
                    .unwrap_or_default()
            }
        }
    }

    fn decide(&mut self, current_epoch: u64, now: SimTime) -> Option<WeightConfig> {
        // The monitor's clock advances one *leader term* per adopted epoch,
        // and that is also when it evaluates expiry.
        if self.last_epoch != Some(current_epoch) {
            self.terms += 1;
            self.last_epoch = Some(current_epoch);
            self.monitor.on_view(self.terms);
        }
        if now < self.optimize_after {
            return None;
        }
        self.refresh_search();
        let (best, score) = self.search.best.as_ref()?;

        // Reconfigure if the current configuration became invalid (a special
        // role is held by a suspect) or the improvement is significant.
        let current_invalid = self
            .search
            .suspected
            .iter()
            .any(|&r| self.current_config.holds_special_role(r));
        let improves = *score < self.current_score * self.improvement_factor;
        if !(current_invalid || improves) {
            return None;
        }
        let config = WeightConfig {
            epoch: current_epoch + 1,
            ..best.clone()
        };
        self.current_score = *score;
        self.current_config = config.clone();
        // The new configuration enters the replicated configuration log
        // (epoch-monotone adoption with the history pruning and
        // adoption-time bookkeeping the round judging needs).
        self.config_log.apply(
            ConfigCommand::Config {
                epoch: config.epoch,
                config: config.clone(),
            },
            now,
        );
        self.rebuild_timeout_caches();
        Some(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optilog::SuspicionKind;

    fn uniformish(n: usize, fast: &[usize], fast_ms: f64, slow_ms: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|a| {
                (0..n)
                    .map(|b| {
                        if a == b {
                            0.0
                        } else if fast.contains(&a) && fast.contains(&b) {
                            fast_ms
                        } else {
                            slow_ms
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn feed_row(p: &mut OptiAwarePolicy, reporter: usize, row: &[f64]) {
        let blob = OptiAwareBlob::Latency {
            reporter,
            rtt_ms: row.to_vec(),
        }
        .encode();
        p.on_committed_measurement(0, &blob);
    }

    fn feed_matrix(p: &mut OptiAwarePolicy, rows: &[Vec<f64>]) {
        for (r, row) in rows.iter().enumerate() {
            feed_row(p, r, row);
        }
    }

    #[test]
    fn blob_roundtrip() {
        let s = Suspicion {
            kind: SuspicionKind::Slow,
            accuser: 1,
            accused: 0,
            round: 7,
            phase: 1,
            accuser_is_leader: false,
        };
        let blob = OptiAwareBlob::Suspicion(s).encode();
        match OptiAwareBlob::decode(&blob) {
            Some(OptiAwareBlob::Suspicion(d)) => assert_eq!(d, s),
            other => panic!("unexpected decode: {other:?}"),
        }
        assert!(OptiAwareBlob::decode(b"garbage").is_none());
    }

    /// A probe round that heard nothing from a replica reports ∞; the blob
    /// carries it as the 1e9 sentinel, so the JSON stays valid.
    #[test]
    fn infinite_rtt_roundtrips_as_sentinel() {
        let mut p = OptiAwarePolicy::aware(4, 1, SimTime::ZERO);
        let blobs = p.on_latency_vector(2, &[10.0, 20.0, 0.0, f64::INFINITY]);
        assert_eq!(blobs.len(), 1);
        match OptiAwareBlob::decode(&blobs[0]) {
            Some(OptiAwareBlob::Latency { reporter, rtt_ms }) => {
                assert_eq!(reporter, 2);
                assert_eq!(rtt_ms, [10.0, 20.0, 0.0, 1.0e9]);
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn aware_waits_for_complete_matrix_and_time() {
        let n = 4;
        let mut p = OptiAwarePolicy::aware(n, 1, SimTime::from_secs(40));
        let rows = uniformish(n, &[0, 1, 2], 10.0, 200.0);
        // Only two rows: the (2, 3) pair is still unknown.
        feed_matrix(&mut p, &rows[..2]);
        assert!(!p.matrix_complete());
        assert!(p.decide(0, SimTime::from_secs(41)).is_none());
        // The remaining rows complete it, but before optimize_after no decision.
        for (r, row) in rows.iter().enumerate().skip(2) {
            feed_row(&mut p, r, row);
        }
        assert!(p.matrix_complete());
        assert!(p.decide(0, SimTime::from_secs(10)).is_none());
        // After the measurement period the policy optimises.
        let cfg = p.decide(0, SimTime::from_secs(41)).expect("optimises");
        assert_eq!(cfg.epoch, 1);
        assert!(
            [0, 1, 2].contains(&cfg.leader),
            "leader in the fast cluster"
        );
    }

    #[test]
    fn aware_does_not_thrash_once_optimal() {
        let n = 4;
        let mut p = OptiAwarePolicy::aware(n, 1, SimTime::ZERO);
        feed_matrix(&mut p, &uniformish(n, &[0, 1], 5.0, 100.0));
        let first = p.decide(0, SimTime::from_secs(1)).expect("optimises");
        // Same matrix under the new epoch: the improvement is below the
        // threshold, so no further reconfiguration.
        assert!(p.decide(first.epoch, SimTime::from_secs(2)).is_none());
    }

    /// Aware has no sensor: a committed suspicion enters no monitor and earns
    /// no reciprocation, so Aware decides exactly as without it — where
    /// OptiAware, fed the same log, deposes the suspected leader.
    #[test]
    fn aware_decides_as_if_committed_suspicions_were_absent() {
        let n = 4;
        let rows = uniformish(n, &[0, 1], 5.0, 80.0);
        let mut clean = OptiAwarePolicy::aware(n, 1, SimTime::ZERO);
        let mut suspected = OptiAwarePolicy::aware(n, 1, SimTime::ZERO);
        let mut opti = OptiAwarePolicy::new(0, n, 1, SimTime::ZERO);
        let firsts: Vec<_> = [&mut clean, &mut suspected, &mut opti]
            .into_iter()
            .map(|p| {
                feed_matrix(p, &rows);
                p.decide(0, SimTime::from_secs(1))
            })
            .collect();
        let first = firsts[0].clone().expect("optimises");
        assert!(firsts.iter().all(|f| f.as_ref() == Some(&first)));
        assert_eq!(first.leader, 0);

        // Replicas 1 and 2 suspect the leader, which reciprocates: two
        // mutual pairs, enough for OptiAware to exclude replica 0.
        for accuser in [1usize, 2] {
            let slow = Suspicion {
                kind: SuspicionKind::Slow,
                accuser,
                accused: 0,
                round: 10,
                phase: 1,
                accuser_is_leader: false,
            };
            let blob = OptiAwareBlob::Suspicion(slow).encode();
            assert!(suspected.on_committed_measurement(0, &blob).is_empty());
            assert_eq!(opti.on_committed_measurement(0, &blob).len(), 1);
            let reciprocation = Suspicion {
                kind: SuspicionKind::False,
                accuser: 0,
                accused: accuser,
                ..slow
            };
            let blob = OptiAwareBlob::Suspicion(reciprocation).encode();
            assert!(suspected.on_committed_measurement(0, &blob).is_empty());
            opti.on_committed_measurement(0, &blob);
        }
        let deposed = opti.decide(first.epoch, SimTime::from_secs(2));
        assert!(deposed.is_some_and(|cfg| cfg.leader != 0));

        assert_eq!(suspected.candidates(), (0..n).collect::<Vec<_>>());
        for (epoch, secs) in [(first.epoch, 2), (first.epoch, 3), (first.epoch + 1, 4)] {
            let at = SimTime::from_secs(secs);
            assert_eq!(suspected.decide(epoch, at), clean.decide(epoch, at));
        }
    }

    #[test]
    fn optimises_like_aware_without_suspicions() {
        let n = 4;
        let mut p = OptiAwarePolicy::new(1, n, 1, SimTime::ZERO);
        feed_matrix(&mut p, &uniformish(n, &[1, 2, 3], 10.0, 200.0));
        let cfg = p.decide(0, SimTime::from_secs(1)).expect("optimises");
        assert!([1, 2, 3].contains(&cfg.leader));
        assert_eq!(cfg.epoch, 1);
    }

    #[test]
    fn suspected_leader_is_excluded_from_roles() {
        let n = 4;
        let mut p = OptiAwarePolicy::new(1, n, 1, SimTime::ZERO);
        // Replica 0 would normally be the best leader (fastest links).
        feed_matrix(&mut p, &uniformish(n, &[0, 1], 5.0, 80.0));
        let first = p
            .decide(0, SimTime::from_secs(1))
            .expect("initial optimisation");
        assert_eq!(first.leader, 0);

        // Two replicas suspect replica 0 (e.g. it delays proposals); replica 0
        // reciprocates only against one, leaving mutual suspicion pairs.
        for accuser in [1usize, 2] {
            let s = Suspicion {
                kind: SuspicionKind::Slow,
                accuser,
                accused: 0,
                round: 10,
                phase: 1,
                accuser_is_leader: false,
            };
            p.on_committed_measurement(0, &OptiAwareBlob::Suspicion(s).encode());
            let rec = Suspicion {
                kind: SuspicionKind::False,
                accuser: 0,
                accused: accuser,
                round: 10,
                phase: 1,
                accuser_is_leader: false,
            };
            p.on_committed_measurement(0, &OptiAwareBlob::Suspicion(rec).encode());
        }
        let cfg = p
            .decide(first.epoch, SimTime::from_secs(2))
            .expect("reconfigures away from the suspect");
        assert_ne!(cfg.leader, 0, "suspected replica must not lead");
        assert!(!cfg.holds_special_role(0));
    }

    #[test]
    fn sensor_raises_suspicion_for_delayed_proposal() {
        let n = 4;
        let mut p = OptiAwarePolicy::new(1, n, 1, SimTime::ZERO);
        feed_matrix(&mut p, &uniformish(n, &[0, 1, 2, 3], 20.0, 20.0));
        // Complete the initial optimisation so timeouts are defined.
        let cfg = p.decide(0, SimTime::from_secs(1)).expect("optimises");

        // A round whose proposal timestamp is far later than the previous one.
        let record = PbftRoundRecord {
            seq: 50,
            epoch: cfg.epoch,
            leader: cfg.leader,
            proposal_ts: SimTime::from_millis(10_000),
            prev_proposal_ts: Some(SimTime::from_millis(8_000)),
            prev_epoch: Some(cfg.epoch),
            commit_time: SimTime::from_millis(10_100),
            arrivals: (0..n)
                .flat_map(|r| {
                    vec![
                        (r, 2, SimTime::from_millis(10_040)),
                        (r, 3, SimTime::from_millis(10_080)),
                    ]
                })
                .collect(),
        };
        let blobs = p.on_round(&record);
        let suspicions: Vec<Suspicion> = blobs
            .iter()
            .filter_map(|b| match OptiAwareBlob::decode(b) {
                Some(OptiAwareBlob::Suspicion(s)) => Some(s),
                _ => None,
            })
            .collect();
        assert!(
            suspicions.iter().any(|s| s.accused == cfg.leader),
            "delayed proposal must raise a suspicion against the leader: {suspicions:?}"
        );
    }

    /// After a reconfiguration, a round proposed under the *previous* epoch
    /// is still judged — against that epoch's timeouts — instead of falling
    /// into a post-reconfiguration observation blackout.
    #[test]
    fn old_epoch_rounds_are_judged_against_their_own_config() {
        let n = 4;
        let mut p = OptiAwarePolicy::new(1, n, 1, SimTime::ZERO);
        // Replica 0 leads initially (epoch 0); the optimiser then moves the
        // leader role into the fast cluster {1, 2, 3} (epoch 1).
        feed_matrix(&mut p, &uniformish(n, &[1, 2, 3], 20.0, 200.0));
        let cfg = p.decide(0, SimTime::from_secs(1)).expect("optimises");
        assert_ne!(cfg.leader, 0);

        // A round proposed under epoch 0 by the old leader, with a proposal
        // gap far beyond epoch 0's round estimate. Under the old grace-hold
        // this record (arriving right after the reconfiguration) was dropped.
        let record = PbftRoundRecord {
            seq: 60,
            epoch: 0,
            leader: 0,
            proposal_ts: SimTime::from_millis(20_000),
            prev_proposal_ts: Some(SimTime::from_millis(10_000)),
            prev_epoch: Some(0),
            commit_time: SimTime::from_millis(20_400),
            arrivals: (0..n)
                .flat_map(|r| {
                    vec![
                        (r, 2, SimTime::from_millis(20_150)),
                        (r, 3, SimTime::from_millis(20_300)),
                    ]
                })
                .collect(),
        };
        let blobs = p.on_round(&record);
        let suspicions: Vec<Suspicion> = blobs
            .iter()
            .filter_map(|b| match OptiAwareBlob::decode(b) {
                Some(OptiAwareBlob::Suspicion(s)) => Some(s),
                _ => None,
            })
            .collect();
        assert!(
            suspicions.iter().any(|s| s.accused == 0),
            "old-epoch round must still be judged: {suspicions:?}"
        );

        // A record from an epoch the policy has never seen is skipped.
        let unknown = PbftRoundRecord {
            epoch: 7,
            ..record.clone()
        };
        assert!(p.on_round(&unknown).is_empty());
    }

    /// Regression for the leader-term monitor clock: an excluded attacker
    /// must not be rehabilitated mid-run. With the paper's `w = 10` windows
    /// counted in *commits* (the old, pre-epoch behaviour), a few hundred
    /// quiet commits would expire the suspicion edges and the optimiser
    /// would re-elect the attacker; counted in *leader terms*, a whole run's
    /// worth of commits and several reconfigurations stay inside the window.
    #[test]
    fn excluded_attacker_is_not_rehabilitated_mid_run() {
        let n = 7;
        let f = 2;
        let mut p = OptiAwarePolicy::new(1, n, f, SimTime::ZERO);
        // Replica 0 has the fastest links: the optimiser's natural pick.
        feed_matrix(&mut p, &uniformish(n, &[0, 1], 5.0, 80.0));
        let first = p.decide(0, SimTime::from_secs(1)).expect("optimises");
        assert_eq!(first.leader, 0);

        // The delay attack plays out: three replicas suspect 0, and 0
        // reciprocates (it is alive and processing the log).
        for accuser in [1usize, 2, 3] {
            let s = Suspicion {
                kind: SuspicionKind::Slow,
                accuser,
                accused: 0,
                round: 50,
                phase: 1,
                accuser_is_leader: false,
            };
            p.on_committed_measurement(0, &OptiAwareBlob::Suspicion(s).encode());
            let rec = Suspicion {
                kind: SuspicionKind::False,
                accuser: 0,
                accused: accuser,
                round: 50,
                phase: 1,
                accuser_is_leader: false,
            };
            p.on_committed_measurement(0, &OptiAwareBlob::Suspicion(rec).encode());
        }
        let reconf = p
            .decide(first.epoch, SimTime::from_secs(2))
            .expect("excludes the attacker");
        assert_ne!(reconf.leader, 0);
        assert!(!p.candidates().contains(&0));

        // A run's worth of quiet commits — thousands of `decide` calls —
        // across several further adopted epochs (leader terms). The
        // stability window is denominated in terms, so nothing expires and
        // the attacker stays out of every configuration.
        let mut epoch = reconf.epoch;
        let mut t = 2_000u64;
        for term in 0..4u64 {
            for _ in 0..1_500 {
                t += 30;
                if let Some(cfg) = p.decide(epoch, SimTime::from_millis(t)) {
                    assert_ne!(cfg.leader, 0, "attacker re-elected at term {term}");
                    assert!(!cfg.holds_special_role(0));
                    epoch = cfg.epoch;
                }
            }
            epoch += 1; // an externally adopted reconfiguration = a new term
        }
        assert!(
            !p.candidates().contains(&0),
            "suspicion edges must survive the whole run: attacker rehabilitated"
        );
    }

    /// Regression: the stability rule drops the oldest suspicion once per
    /// quiet leader *term*. `decide` runs on every commit, and used to put
    /// the unchanged term to the monitor each time — so once the window had
    /// passed, a thousand commits of one term forgot the whole graph.
    #[test]
    fn quiet_terms_expire_one_edge_per_term_not_per_commit() {
        let n = 7;
        let mut p = OptiAwarePolicy::new(1, n, 2, SimTime::ZERO);
        feed_matrix(&mut p, &uniformish(n, &[0, 1], 5.0, 80.0));
        // Three reciprocated pairs: they stay in the graph until they expire.
        for (round, accuser) in [1usize, 2, 3].into_iter().enumerate() {
            for (kind, accuser, accused) in [
                (SuspicionKind::Slow, accuser, 0),
                (SuspicionKind::False, 0, accuser),
            ] {
                let s = Suspicion {
                    kind,
                    accuser,
                    accused,
                    round: round as u64,
                    phase: 1,
                    accuser_is_leader: false,
                };
                p.on_committed_measurement(0, &OptiAwareBlob::Suspicion(s).encode());
            }
        }
        assert_eq!(p.monitor.edge_count(), 3);

        // More than `w = 10` quiet terms, a thousand commits each.
        let mut t = 0u64;
        for epoch in 1..=15u64 {
            let before = p.monitor.edge_count();
            for _ in 0..1_000 {
                t += 30;
                p.decide(epoch, SimTime::from_millis(t));
            }
            let lost = before - p.monitor.edge_count();
            assert!(lost <= 1, "term {epoch} lost {lost} edges");
        }
        // The window did pass: the rule ran, one edge per term.
        assert_eq!(p.monitor.edge_count(), 0);
    }

    #[test]
    fn identical_logs_identical_decisions() {
        let n = 4;
        let rows = uniformish(n, &[2, 3], 15.0, 120.0);
        let run = |id: usize| {
            let mut p = OptiAwarePolicy::new(id, n, 1, SimTime::ZERO);
            feed_matrix(&mut p, &rows);
            p.decide(0, SimTime::from_secs(5))
        };
        assert_eq!(run(0), run(3), "decisions depend only on committed data");
    }
}

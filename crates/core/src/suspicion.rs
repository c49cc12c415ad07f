//! Suspicion sensing and monitoring (§4.2.3).
//!
//! Proof-of-misbehavior is often unattainable for timing and omission faults,
//! so OptiLog adds *suspicions*. The [`SuspicionSensor`] raises a suspicion
//! when:
//!
//! * (a) consecutive proposal timestamps are further apart than `δ·d_rnd`
//!   → `⟨Slow, A d L⟩`;
//! * (b) an expected message does not arrive within `δ·d_m` of the round's
//!   proposal timestamp → `⟨Slow, A d B⟩`;
//! * (c) a suspicion is raised against this replica → reciprocate with
//!   `⟨False, A d B⟩`.
//!
//! The [`SuspicionMonitor`] consumes committed suspicions in log order,
//! filters causally related ones, separates crash suspicions (set `C`) from
//! mutual suspicions (graph `G`), and produces the candidate set `K` and the
//! fault estimate `u` via a [`CandidateSelector`]. Old suspicions are expired
//! after a stable window `w` or when `K` would drop below `n − f`
//! (maximum-independent-set strategy only).

use crate::candidates::{CandidateSelection, CandidateSelector, SelectionStrategy};
use crate::graph::SuspicionGraph;
use crate::timing::RoundTimeouts;
use configlog::PhaseFilter;
use runtime::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Protocol phase tag for the proposal-timestamp check (condition (a)).
/// Message kinds passed by the protocol must be strictly greater.
pub const PHASE_PROPOSAL: u32 = 0;

/// Fixed slack added to every δ-scaled deadline before raising a suspicion.
///
/// In a real deployment the δ multiplier absorbs clock granularity and
/// small scheduling jitter; in the deterministic simulator timeouts and
/// message delays are rounded to microseconds independently, so a deadline
/// can fall a few microseconds short of an on-time arrival. The slack keeps
/// such rounding artifacts from being reported as timing faults without
/// masking real delays (which are orders of magnitude larger).
pub const DEADLINE_SLACK: Duration = Duration(2_000);

/// The two suspicion flavours of §4.2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuspicionKind {
    /// `⟨Slow, A d B⟩`: A observed B violating a timing expectation.
    Slow,
    /// `⟨False, A d B⟩`: A reciprocates a suspicion B raised against A.
    False,
}

/// A suspicion as appended to the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suspicion {
    /// Slow or False.
    pub kind: SuspicionKind,
    /// The replica raising the suspicion.
    pub accuser: usize,
    /// The suspected replica.
    pub accused: usize,
    /// The consensus round that triggered the suspicion.
    pub round: u64,
    /// Protocol phase of the late message ([`PHASE_PROPOSAL`] for condition
    /// (a)); used for causal filtering.
    pub phase: u32,
    /// True if the accuser held the leader role in `round` — enables the
    /// leader-chain filtering rule.
    pub accuser_is_leader: bool,
}

impl Suspicion {
    /// Wire size in bytes using the compact encoding of §7.8.
    pub fn wire_bytes(&self) -> usize {
        1 + 2 + 2 + 8 + 1
    }

    /// Lift a committed reciprocal suspicion pair (tree-staleness evidence
    /// replicated through the configuration log, §6.4) into the monitor's
    /// vocabulary: a forward pair is a `⟨Slow, receiver d upstream⟩`
    /// suspicion, a reciprocation the matching `⟨False, …⟩`. The pair's
    /// topology depth rides in as the phase, so the causal filter keeps the
    /// root-most evidence of one withheld payload and drops its echoes
    /// further down the tree.
    pub fn from_pair(pair: &configlog::SuspicionPair) -> Suspicion {
        Suspicion {
            kind: if pair.reciprocal {
                SuspicionKind::False
            } else {
                SuspicionKind::Slow
            },
            accuser: pair.accuser,
            accused: pair.accused,
            round: pair.round,
            phase: pair.phase,
            accuser_is_leader: false,
        }
    }
}

/// One expected message within a round, as registered with the sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageExpectation {
    /// Sender the message is expected from.
    pub from: usize,
    /// Protocol phase / message kind (must be > [`PHASE_PROPOSAL`]).
    pub kind: u32,
}

/// Everything the sensor needs to evaluate one completed round. Timeouts
/// and arrivals are borrowed from their owners (the protocol's per-epoch
/// timeout cache and its round record): judging a round copies neither.
#[derive(Debug, Clone, Copy)]
pub struct RoundObservation<'a> {
    /// The round number.
    pub round: u64,
    /// The leader of the round.
    pub leader: usize,
    /// The leader's proposal timestamp for this round.
    pub proposal_ts: SimTime,
    /// The previous round's proposal timestamp, if known.
    pub prev_proposal_ts: Option<SimTime>,
    /// The timing expectations for this round (protocol-provided, TR1–TR3).
    pub timeouts: &'a RoundTimeouts,
    /// Observed arrivals: (sender, message kind, arrival time).
    pub arrivals: &'a [(usize, u32, SimTime)],
}

/// The SuspicionSensor: evaluates local observations against expectations.
#[derive(Debug, Clone)]
pub struct SuspicionSensor {
    /// The replica this sensor runs on.
    pub id: usize,
    /// The δ latency-variation multiplier.
    pub delta: f64,
    /// Pairs (accuser, round) this replica has already reciprocated, to
    /// avoid duplicate False suspicions. Keyed per round rather than per
    /// accuser: a reciprocation blob can be lost (e.g. a leader change while
    /// it is in flight), and the next committed suspicion from the same
    /// accuser must be able to trigger a fresh one, or the accused ends up
    /// falsely classified as crashed.
    reciprocated: BTreeSet<(usize, u64)>,
    /// Pairs (accused, round) already suspected by this replica, to avoid
    /// flooding the log with duplicates.
    raised: BTreeSet<(usize, u64)>,
}

impl SuspicionSensor {
    /// Create a sensor for replica `id` with latency multiplier `delta`.
    pub fn new(id: usize, delta: f64) -> Self {
        SuspicionSensor {
            id,
            delta,
            reciprocated: BTreeSet::new(),
            raised: BTreeSet::new(),
        }
    }

    /// Evaluate a completed round and return the suspicions to log
    /// (conditions (a) and (b)).
    pub fn evaluate_round(
        &mut self,
        obs: &RoundObservation<'_>,
        is_leader: bool,
    ) -> Vec<Suspicion> {
        let mut out = Vec::new();

        // Condition (a): consecutive proposal timestamps within δ·d_rnd.
        if let Some(prev) = obs.prev_proposal_ts {
            let interval = obs.proposal_ts.since(prev).saturating_sub(DEADLINE_SLACK);
            if !obs.timeouts.proposal_interval_ok(interval, self.delta)
                && obs.leader != self.id
                && self.raised.insert((obs.leader, obs.round))
            {
                out.push(Suspicion {
                    kind: SuspicionKind::Slow,
                    accuser: self.id,
                    accused: obs.leader,
                    round: obs.round,
                    phase: PHASE_PROPOSAL,
                    accuser_is_leader: is_leader,
                });
            }
        }

        // Condition (b): every expected message arrived within δ·d_m of the
        // proposal timestamp.
        for mt in &obs.timeouts.messages {
            if mt.from == self.id {
                continue;
            }
            let deadline = obs.proposal_ts + mt.deadline(self.delta) + DEADLINE_SLACK;
            let arrived_in_time = obs
                .arrivals
                .iter()
                .any(|&(from, kind, at)| from == mt.from && kind == mt.kind && at <= deadline);
            if !arrived_in_time && self.raised.insert((mt.from, obs.round)) {
                out.push(Suspicion {
                    kind: SuspicionKind::Slow,
                    accuser: self.id,
                    accused: mt.from,
                    round: obs.round,
                    phase: mt.kind,
                    accuser_is_leader: is_leader,
                });
            }
        }
        out
    }

    /// Condition (c): when a committed suspicion accuses this replica,
    /// reciprocate with a False suspicion (once per accuser).
    pub fn reciprocate(&mut self, committed: &Suspicion) -> Option<Suspicion> {
        if committed.accused != self.id || committed.accuser == self.id {
            return None;
        }
        if !self
            .reciprocated
            .insert((committed.accuser, committed.round))
        {
            return None;
        }
        Some(Suspicion {
            kind: SuspicionKind::False,
            accuser: self.id,
            accused: committed.accuser,
            round: committed.round,
            phase: committed.phase,
            accuser_is_leader: false,
        })
    }
}

/// Parameters of the SuspicionMonitor.
#[derive(Debug, Clone, Copy)]
pub struct SuspicionMonitorParams {
    /// Total number of replicas `n`.
    pub n: usize,
    /// Fault threshold `f`.
    pub f: usize,
    /// Stable-window length `w` (views) after which old suspicions expire.
    pub window: u64,
    /// Views an un-reciprocated suspicion waits before the accused is
    /// considered crashed (the paper uses `f + 1` leader terms; callers whose
    /// views advance faster — e.g. once per commit — should scale it up so
    /// the window covers a reciprocation round-trip through the log).
    pub reciprocation_views: u64,
    /// Candidate-selection strategy.
    pub strategy: SelectionStrategy,
}

impl SuspicionMonitorParams {
    /// Default parameters for an `n`-replica system: `w = 10` views,
    /// reciprocation window `f + 1`, MIS selection.
    pub fn new(n: usize, f: usize) -> Self {
        SuspicionMonitorParams {
            n,
            f,
            window: 10,
            reciprocation_views: (f as u64) + 1,
            strategy: SelectionStrategy::default(),
        }
    }

    /// Use the OptiTree disjoint-edge/triangle strategy.
    pub fn with_tree_strategy(mut self) -> Self {
        self.strategy = SelectionStrategy::TreeExclusion;
        self
    }

    /// Override the stability window.
    pub fn with_window(mut self, w: u64) -> Self {
        self.window = w;
        self
    }
}

/// State of one suspicion edge waiting for reciprocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeState {
    /// The replica that raised the first suspicion on this pair.
    first_accuser: usize,
    /// View in which the edge was added.
    view_added: u64,
    /// True once the accused has reciprocated (or counter-suspected).
    reciprocated: bool,
    /// Log order for expiry.
    order: u64,
}

/// The SuspicionMonitor: deterministic processing of committed suspicions.
#[derive(Debug, Clone)]
pub struct SuspicionMonitor {
    params: SuspicionMonitorParams,
    selector: CandidateSelector,
    /// Provably faulty replicas `F`, as last given to [`Self::set_faulty`].
    faulty: BTreeSet<usize>,
    /// Replicas considered crashed.
    crashed: BTreeSet<usize>,
    /// Active suspicion edges keyed by normalized pair.
    edges: BTreeMap<(usize, usize), EdgeState>,
    /// Monotonic counter giving each edge its log order.
    next_order: u64,
    /// Current view (leader changes).
    current_view: u64,
    /// View in which the last new suspicion was accepted.
    last_suspicion_view: u64,
    /// Causal filter: lowest phase accepted per round (shared with the
    /// tree substrates' pair-trigger path via `configlog`).
    phase_filter: PhaseFilter,
    /// Rounds in which the round's leader raised a suspicion (leader-chain filter).
    leader_suspected_round: BTreeSet<u64>,
    /// Count of accepted (non-filtered) suspicions, for diagnostics.
    accepted: u64,
    /// Count of filtered suspicions, for diagnostics.
    filtered: u64,
    /// Memoised result of [`Self::selection`]; dropped by
    /// [`Self::invalidate`] wherever `F`, `C` or the edge set changes.
    selection: Option<CandidateSelection>,
    /// Advances with every such change, so consumers can key work derived
    /// from the selection on it.
    revision: u64,
}

impl SuspicionMonitor {
    /// Create a monitor.
    pub fn new(params: SuspicionMonitorParams) -> Self {
        SuspicionMonitor {
            selector: CandidateSelector::new(params.strategy),
            params,
            faulty: BTreeSet::new(),
            crashed: BTreeSet::new(),
            edges: BTreeMap::new(),
            next_order: 0,
            current_view: 0,
            last_suspicion_view: 0,
            phase_filter: PhaseFilter::new(),
            leader_suspected_round: BTreeSet::new(),
            accepted: 0,
            filtered: 0,
            selection: None,
            revision: 0,
        }
    }

    /// The inputs of the selection changed: forget the memoised one.
    fn invalidate(&mut self) {
        self.selection = None;
        self.revision += 1;
    }

    /// Revision of the selection's inputs: advances whenever a committed
    /// suspicion, a view change or a faulty-set update changed `F`, `C` or
    /// the edge set. Equal revisions mean equal selections (the floor
    /// enforcement inside [`Self::selection`] is part of computing the
    /// selection for a revision, not a new one).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Replace the set of provably faulty replicas `F` — replicas with a
    /// verified proof of misbehavior, which never enter the candidate set.
    pub fn set_faulty(&mut self, faulty: BTreeSet<usize>) {
        if self.faulty != faulty {
            self.faulty = faulty;
            self.invalidate();
        }
    }

    /// The crash set `C`.
    pub fn crashed(&self) -> &BTreeSet<usize> {
        &self.crashed
    }

    /// Number of suspicions accepted after filtering.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Number of suspicions discarded by the causal filter.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Advance to a new view (leader change). Un-reciprocated edges older
    /// than the reciprocation window move the accused into `C`; during a
    /// stable window, old suspicions are expired one per view. A view that
    /// does not advance the clock is a no-op, so callers may report the
    /// current view as often as they like without speeding expiry up.
    pub fn on_view(&mut self, view: u64) {
        if view <= self.current_view {
            return;
        }
        self.current_view = view;
        let edges_before = self.edges.len();

        // One-way suspicions: accused treated as crashed.
        let expired: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|(_, e)| {
                !e.reciprocated
                    && self.current_view.saturating_sub(e.view_added)
                        > self.params.reciprocation_views
            })
            .map(|(&k, _)| k)
            .collect();
        for key in expired {
            let e = self.edges.remove(&key).expect("edge existed");
            let accused = if key.0 == e.first_accuser {
                key.1
            } else {
                key.0
            };
            self.crashed.insert(accused);
        }

        // Stability expiry: no new suspicions for `window` views → drop the
        // oldest suspicion each view.
        if self.current_view.saturating_sub(self.last_suspicion_view) > self.params.window {
            if let Some((&key, _)) = self.edges.iter().min_by_key(|(_, e)| e.order) {
                self.edges.remove(&key);
            }
        }
        if self.edges.len() != edges_before {
            self.invalidate();
        }
    }

    /// Process one committed suspicion (in log order).
    pub fn on_suspicion(&mut self, s: &Suspicion) {
        if s.accuser == s.accused || s.accuser >= self.params.n || s.accused >= self.params.n {
            return;
        }

        match s.kind {
            SuspicionKind::False => {
                // Reciprocation: mark the edge as two-way.
                let key = normalize(s.accuser, s.accused);
                if let Some(e) = self.edges.get_mut(&key) {
                    e.reciprocated = true;
                } else {
                    // Reciprocation may arrive before the original suspicion
                    // commits (censoring attempts); record the edge anyway.
                    self.insert_edge(key, s.accused);
                }
                return;
            }
            SuspicionKind::Slow => {}
        }

        // Causal filtering: keep only the earliest-phase suspicion per round.
        if !self.phase_filter.accept(s.round, s.phase) {
            self.filtered += 1;
            return;
        }

        // Leader-chain filter: a leader suspicion in round i filters
        // proposal-timestamp suspicions in round i+1.
        if s.phase == PHASE_PROPOSAL
            && s.round > 0
            && self.leader_suspected_round.contains(&(s.round - 1))
        {
            self.filtered += 1;
            return;
        }
        if s.accuser_is_leader {
            self.leader_suspected_round.insert(s.round);
        }

        // Ignore suspicions involving already-excluded replicas.
        if self.faulty.contains(&s.accused)
            || self.crashed.contains(&s.accused)
            || self.faulty.contains(&s.accuser)
        {
            return;
        }

        self.accepted += 1;
        self.last_suspicion_view = self.current_view;

        let key = normalize(s.accuser, s.accused);
        if let Some(e) = self.edges.get_mut(&key) {
            // A suspicion in the opposite direction counts as reciprocation.
            let original_accused = if key.0 == e.first_accuser {
                key.1
            } else {
                key.0
            };
            if s.accuser == original_accused {
                e.reciprocated = true;
            }
        } else {
            self.insert_edge(key, s.accuser);
        }
    }

    fn insert_edge(&mut self, key: (usize, usize), first_accuser: usize) {
        let order = self.next_order;
        self.next_order += 1;
        self.edges.insert(
            key,
            EdgeState {
                first_accuser,
                view_added: self.current_view,
                reciprocated: false,
                order,
            },
        );
        self.invalidate();
    }

    /// Build the current suspicion graph `G` over `V = Π \ F \ C`.
    pub fn graph(&self) -> SuspicionGraph {
        let vertices: Vec<usize> = (0..self.params.n)
            .filter(|v| !self.faulty.contains(v) && !self.crashed.contains(v))
            .collect();
        let mut g = SuspicionGraph::new(vertices.iter().copied());
        for &(a, b) in self.edges.keys() {
            if vertices.contains(&a) && vertices.contains(&b) {
                g.add_edge(a, b);
            }
        }
        g
    }

    /// The candidate set `K` and the estimate `u`, recomputed only after
    /// `F`, `C` or the edge set changed.
    ///
    /// For the maximum-independent-set strategy, Lemma 1's guarantee
    /// (`|K| ≥ n − f`) is enforced by discarding the oldest suspicions until
    /// a sufficiently large independent set exists.
    pub fn selection(&mut self) -> &CandidateSelection {
        if self.selection.is_none() {
            self.selection = Some(self.select_enforcing_floor());
        }
        self.selection.as_ref().expect("just computed")
    }

    fn select_enforcing_floor(&mut self) -> CandidateSelection {
        loop {
            let graph = self.graph();
            let sel = self.selector.select(&graph);
            let needs_enforcement = matches!(
                self.params.strategy,
                SelectionStrategy::MaxIndependentSet { .. }
            );
            if !needs_enforcement
                || sel.candidates.len() >= self.params.n.saturating_sub(self.params.f)
                || self.edges.is_empty()
            {
                return sel;
            }
            // Too many suspicions: discard the oldest (§4.2.3).
            if let Some((&key, _)) = self.edges.iter().min_by_key(|(_, e)| e.order) {
                self.edges.remove(&key);
            }
        }
    }

    /// Number of active suspicion edges (for tests and diagnostics).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

fn normalize(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::MessageTimeout;
    use runtime::Duration;

    fn slow(accuser: usize, accused: usize, round: u64, phase: u32) -> Suspicion {
        Suspicion {
            kind: SuspicionKind::Slow,
            accuser,
            accused,
            round,
            phase,
            accuser_is_leader: false,
        }
    }

    fn monitor(n: usize, f: usize) -> SuspicionMonitor {
        SuspicionMonitor::new(SuspicionMonitorParams::new(n, f))
    }

    // ---- sensor tests -----------------------------------------------------

    fn timeouts() -> RoundTimeouts {
        RoundTimeouts::new(
            Duration::from_millis(100),
            vec![
                MessageTimeout::new(1, 1, Duration::from_millis(40)),
                MessageTimeout::new(2, 1, Duration::from_millis(60)),
            ],
        )
    }

    /// A phase-1 arrival from `from` at `ms`.
    fn at(from: usize, ms: u64) -> (usize, u32, SimTime) {
        (from, 1, SimTime::from_millis(ms))
    }

    fn observation<'a>(
        timeouts: &'a RoundTimeouts,
        prev_ms: u64,
        arrivals: &'a [(usize, u32, SimTime)],
    ) -> RoundObservation<'a> {
        RoundObservation {
            round: 3,
            leader: 3,
            proposal_ts: SimTime::from_millis(1000),
            prev_proposal_ts: Some(SimTime::from_millis(prev_ms)),
            timeouts,
            arrivals,
        }
    }

    #[test]
    fn sensor_condition_a_detects_late_proposal() {
        let mut sensor = SuspicionSensor::new(0, 1.0);
        let sus = sensor.evaluate_round(
            &observation(&timeouts(), 850, &[at(1, 1030), at(2, 1050)]),
            false,
        );
        assert_eq!(sus.len(), 1);
        assert_eq!(sus[0].accused, 3);
        assert_eq!(sus[0].phase, PHASE_PROPOSAL);
    }

    #[test]
    fn sensor_condition_a_respects_delta() {
        let mut sensor = SuspicionSensor::new(0, 2.0);
        // interval 150 <= 2.0 * 100 → no suspicion
        assert!(sensor
            .evaluate_round(
                &observation(&timeouts(), 850, &[at(1, 1030), at(2, 1050)]),
                false
            )
            .is_empty());
    }

    #[test]
    fn sensor_condition_b_detects_missing_and_late_messages() {
        let mut sensor = SuspicionSensor::new(0, 1.0);
        // Replica 1 arrives late (1000+40=1040 deadline), replica 2 never arrives.
        let sus = sensor.evaluate_round(&observation(&timeouts(), 950, &[at(1, 1045)]), false);
        let accused: BTreeSet<usize> = sus.iter().map(|s| s.accused).collect();
        assert_eq!(accused, [1, 2].into_iter().collect());
        assert!(sus.iter().all(|s| s.kind == SuspicionKind::Slow));
        assert!(sus.iter().all(|s| s.phase == 1));
    }

    #[test]
    fn sensor_on_time_messages_raise_nothing() {
        let mut sensor = SuspicionSensor::new(0, 1.0);
        assert!(sensor
            .evaluate_round(
                &observation(&timeouts(), 950, &[at(1, 1040), at(2, 1055)]),
                false
            )
            .is_empty());
    }

    #[test]
    fn sensor_does_not_suspect_itself_and_dedups() {
        let mut sensor = SuspicionSensor::new(1, 1.0);
        let timeouts = timeouts();
        let obs = observation(&timeouts, 950, &[]);
        // Replica 1's own expected message is skipped; replica 2 missing.
        let first = sensor.evaluate_round(&obs, false);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].accused, 2);
        // Evaluating the same round again raises no duplicates.
        assert!(sensor.evaluate_round(&obs, false).is_empty());
    }

    #[test]
    fn sensor_reciprocates_once() {
        let mut sensor = SuspicionSensor::new(2, 1.0);
        let incoming = slow(5, 2, 7, 1);
        let rec = sensor.reciprocate(&incoming).expect("reciprocation");
        assert_eq!(rec.kind, SuspicionKind::False);
        assert_eq!(rec.accuser, 2);
        assert_eq!(rec.accused, 5);
        assert!(
            sensor.reciprocate(&incoming).is_none(),
            "only once per accuser"
        );
        assert!(
            sensor.reciprocate(&slow(5, 3, 7, 1)).is_none(),
            "not about us"
        );
    }

    #[test]
    fn pair_lifts_to_slow_and_reciprocation_to_false() {
        let pair = configlog::SuspicionPair {
            accuser: 4,
            accused: 1,
            round: 12,
            phase: 2,
            reciprocal: false,
        };
        let s = Suspicion::from_pair(&pair);
        assert_eq!(s.kind, SuspicionKind::Slow);
        assert_eq!((s.accuser, s.accused, s.round, s.phase), (4, 1, 12, 2));
        let r = Suspicion::from_pair(&pair.reciprocation());
        assert_eq!(r.kind, SuspicionKind::False);
        assert_eq!((r.accuser, r.accused), (1, 4));
        // The lifted pair drives the monitor exactly like a native mutual
        // suspicion: the pair stays in the graph as one excluded edge.
        let mut m = monitor(7, 2);
        m.on_suspicion(&s);
        m.on_suspicion(&r);
        assert_eq!(m.edge_count(), 1);
        assert_eq!(m.selection().estimate_u, 1);
    }

    // ---- monitor tests ----------------------------------------------------

    #[test]
    fn mutual_suspicion_excludes_one_of_the_pair() {
        let mut m = monitor(7, 2);
        m.on_suspicion(&slow(0, 1, 1, 1));
        m.on_suspicion(&slow(1, 0, 2, 1));
        let sel = m.selection();
        // The pair {0,1} contributes exactly one candidate.
        assert_eq!(sel.estimate_u, 1);
        assert_eq!(sel.candidates.len(), 6);
        assert!(sel.candidates.len() >= 7 - 2);
    }

    #[test]
    fn unreciprocated_suspicion_moves_accused_to_crashed() {
        let mut m = monitor(7, 2);
        m.on_view(1);
        m.on_suspicion(&slow(0, 3, 1, 1));
        assert_eq!(m.edge_count(), 1);
        // After f+1 = 3 views without reciprocation, replica 3 is crashed.
        m.on_view(5);
        assert!(m.crashed().contains(&3));
        assert_eq!(m.edge_count(), 0);
        let sel = m.selection();
        assert!(!sel.contains(3));
        // A crashed replica does not count towards u (it is not misbehaving).
        assert_eq!(sel.estimate_u, 0);
    }

    #[test]
    fn reciprocated_suspicion_stays_in_graph() {
        let mut m = monitor(7, 2);
        m.on_view(1);
        m.on_suspicion(&slow(0, 3, 1, 1));
        m.on_suspicion(&Suspicion {
            kind: SuspicionKind::False,
            accuser: 3,
            accused: 0,
            round: 1,
            phase: 1,
            accuser_is_leader: false,
        });
        m.on_view(10);
        assert!(m.crashed().is_empty());
        assert_eq!(m.edge_count(), 1);
        let sel = m.selection();
        assert_eq!(sel.estimate_u, 1);
    }

    #[test]
    fn causal_filter_keeps_only_earliest_phase_per_round() {
        let mut m = monitor(7, 2);
        m.on_suspicion(&slow(0, 1, 5, 1));
        m.on_suspicion(&slow(2, 3, 5, 2)); // later phase, same round → filtered
        assert_eq!(m.accepted(), 1);
        assert_eq!(m.filtered(), 1);
        assert_eq!(m.edge_count(), 1);
    }

    #[test]
    fn leader_chain_filter_suppresses_next_round_proposal_suspicion() {
        let mut m = monitor(7, 2);
        // The leader of round 4 suspects replica 2 for a phase-1 message.
        m.on_suspicion(&Suspicion {
            kind: SuspicionKind::Slow,
            accuser: 0,
            accused: 2,
            round: 4,
            phase: 1,
            accuser_is_leader: true,
        });
        // Round 5: someone suspects the leader for a delayed proposal → filtered.
        m.on_suspicion(&slow(3, 0, 5, PHASE_PROPOSAL));
        assert_eq!(m.accepted(), 1);
        assert_eq!(m.filtered(), 1);
    }

    #[test]
    fn provably_faulty_replicas_excluded_before_selection() {
        let mut m = monitor(7, 2);
        m.set_faulty([4].into_iter().collect());
        m.on_suspicion(&slow(0, 4, 1, 1)); // ignored: already provably faulty
        let sel = m.selection();
        assert!(!sel.contains(4));
        assert_eq!(sel.estimate_u, 0);
        assert_eq!(sel.candidates.len(), 6);
    }

    #[test]
    fn mis_strategy_enforces_candidate_floor() {
        // n=7, f=2: K must always contain at least 5 replicas, even when an
        // adversary floods the log with suspicions among many pairs.
        let mut m = monitor(7, 2);
        let pairs = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 0),
            (0, 2),
            (1, 3),
        ];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            m.on_suspicion(&slow(a, b, i as u64, 1));
            m.on_suspicion(&slow(b, a, i as u64, 1));
        }
        let sel = m.selection();
        assert!(
            sel.candidates.len() >= 5,
            "C1 violated: |K| = {}",
            sel.candidates.len()
        );
    }

    #[test]
    fn stable_window_expires_old_suspicions() {
        let mut m = SuspicionMonitor::new(SuspicionMonitorParams::new(7, 2).with_window(3));
        m.on_view(1);
        m.on_suspicion(&slow(0, 1, 1, 1));
        m.on_suspicion(&slow(1, 0, 1, 1)); // reciprocated pair stays in G
        assert_eq!(m.edge_count(), 1);
        // Views pass with no new suspicions; after window+1 views the edge expires.
        for v in 2..=6 {
            m.on_view(v);
        }
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.selection().estimate_u, 0);
    }

    #[test]
    fn tree_strategy_counts_u_as_disjoint_edges_plus_triangles() {
        let mut m = SuspicionMonitor::new(SuspicionMonitorParams::new(9, 2).with_tree_strategy());
        // Mutual suspicions 0<->1 and 2<->3, plus 4 forming a triangle with (0,1).
        for &(a, b) in &[(0usize, 1usize), (2, 3), (0, 4), (1, 4)] {
            m.on_suspicion(&slow(a, b, 1, 1));
            m.on_suspicion(&slow(b, a, 1, 1));
        }
        let sel = m.selection();
        assert_eq!(sel.estimate_u, 3, "|E_d|=2 plus |T|=1");
        for r in [0, 1, 2, 3, 4] {
            assert!(!sel.contains(r), "replica {r} should be excluded");
        }
        assert_eq!(sel.candidates.len(), 4);
    }

    // ---- edge cases: empty graph, saturation, expiry boundaries -----------

    #[test]
    fn empty_suspicion_graph_keeps_every_replica_a_candidate() {
        let mut m = monitor(7, 2);
        let g = m.graph();
        assert_eq!(g.vertex_count(), 7);
        assert!(g.edges().is_empty());
        let sel = m.selection();
        assert_eq!(sel.candidates.len(), 7);
        assert_eq!(sel.estimate_u, 0);
        assert!(m.crashed().is_empty());
        assert_eq!(m.edge_count(), 0);
        // Views passing over an empty monitor change nothing.
        for v in 1..50 {
            m.on_view(v);
        }
        assert_eq!(m.selection().candidates.len(), 7);
    }

    #[test]
    fn all_replicas_suspected_still_meets_candidate_floor() {
        // Every pair accuses each other: the suspicion graph is complete, so
        // any independent set has size 1. The MIS strategy must discard old
        // suspicions until Lemma 1's floor |K| >= n - f holds again.
        let n = 7;
        let f = 2;
        let mut m = monitor(n, f);
        let mut round = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                m.on_suspicion(&slow(a, b, round, 1));
                m.on_suspicion(&slow(b, a, round, 1));
                round += 1;
            }
        }
        let sel = m.selection().clone();
        assert!(
            sel.candidates.len() >= n - f,
            "floor violated with complete graph: |K| = {}",
            sel.candidates.len()
        );
        // The estimate is consistent with the remaining (post-discard) graph.
        assert_eq!(
            sel.estimate_u,
            m.graph().vertex_count() - sel.candidates.len()
        );
    }

    #[test]
    fn stable_window_expiry_boundary_is_exclusive() {
        // window = 3: with the last suspicion accepted at view 1, views 2..=4
        // (difference <= window) must NOT expire anything; view 5 is the
        // first that may.
        let mut m = SuspicionMonitor::new(SuspicionMonitorParams::new(7, 2).with_window(3));
        m.on_view(1);
        m.on_suspicion(&slow(0, 1, 1, 1));
        m.on_suspicion(&slow(1, 0, 1, 1)); // reciprocated: survives crash expiry
        assert_eq!(m.edge_count(), 1);
        for v in 2..=4 {
            m.on_view(v);
            assert_eq!(m.edge_count(), 1, "expired too early at view {v}");
        }
        m.on_view(5);
        assert_eq!(m.edge_count(), 0, "view 5 exceeds the stable window");
    }

    #[test]
    fn reciprocation_window_boundary_is_exclusive() {
        // reciprocation_views = f + 1 = 3: an un-reciprocated suspicion from
        // view 1 leaves the accused un-crashed through view 4 (difference
        // exactly 3) and crashes them at view 5.
        let mut m = monitor(7, 2);
        m.on_view(1);
        m.on_suspicion(&slow(0, 3, 1, 1));
        m.on_view(4);
        assert!(
            m.crashed().is_empty(),
            "crashed exactly at the boundary instead of past it"
        );
        m.on_view(5);
        assert!(m.crashed().contains(&3));
        // Crashed replicas leave the vertex set entirely.
        assert_eq!(m.graph().vertex_count(), 6);
        assert!(!m.selection().contains(3));
    }

    #[test]
    fn stable_window_expires_oldest_edge_first() {
        let mut m = SuspicionMonitor::new(SuspicionMonitorParams::new(9, 2).with_window(2));
        m.on_view(1);
        m.on_suspicion(&slow(0, 1, 1, 1));
        m.on_suspicion(&slow(1, 0, 1, 1));
        m.on_suspicion(&slow(2, 3, 2, 1));
        m.on_suspicion(&slow(3, 2, 2, 1));
        assert_eq!(m.edge_count(), 2);
        // Quiet views: expiry drops one edge per view, oldest first.
        m.on_view(4);
        assert_eq!(m.edge_count(), 1);
        let g = m.graph();
        assert!(
            g.has_edge(2, 3) && !g.has_edge(0, 1),
            "oldest edge (0,1) should expire before (2,3)"
        );
        m.on_view(5);
        assert_eq!(m.edge_count(), 0);
    }

    #[test]
    fn repeating_a_view_expires_nothing_further() {
        let mut m = SuspicionMonitor::new(SuspicionMonitorParams::new(9, 2).with_window(2));
        m.on_view(1);
        for (round, (a, b)) in [(0usize, 1usize), (2, 3), (4, 5)].into_iter().enumerate() {
            m.on_suspicion(&slow(a, b, round as u64, 1));
            m.on_suspicion(&slow(b, a, round as u64, 1));
        }
        // Past the stable window: entering view 4 drops the oldest edge.
        m.on_view(4);
        assert_eq!(m.edge_count(), 2);
        // Reporting view 4 again (a caller polling once per commit) must
        // not: expiry is one edge per view, not one per call.
        let revision = m.revision();
        for _ in 0..1_000 {
            m.on_view(4);
        }
        assert_eq!(m.edge_count(), 2);
        assert_eq!(m.revision(), revision);
        m.on_view(5);
        assert_eq!(m.edge_count(), 1);
    }

    #[test]
    fn self_and_out_of_range_suspicions_ignored() {
        let mut m = monitor(4, 1);
        m.on_suspicion(&slow(2, 2, 1, 1));
        m.on_suspicion(&slow(9, 0, 1, 1));
        m.on_suspicion(&slow(0, 9, 1, 1));
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.accepted(), 0);
    }
}

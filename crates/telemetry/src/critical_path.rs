//! Critical-path attribution: *where* a committed command's end-to-end
//! latency went.
//!
//! The trace sink records one span per instrumentation point ([`Stage`]),
//! keyed by the command's `TraceId` on the client side and by the proposal's
//! view/sequence ordinal on the consensus side; the traffic queue's `reply`
//! span carries the committed view as an argument, linking the two key
//! spaces. [`attribute`] reconstructs that DAG per committed command and
//! splits its e2e latency into named phases:
//!
//! - `ingress`   — client → ingress replica hop, plus the charged
//!   ingress → proposer forwarding hop.
//! - `admission` — waiting in the leader-side admission queue.
//! - `hold`      — adversarial dissemination holds overlapping the
//!   command's consensus segment (the Fig 7 attack signal).
//! - `dissem`    — proposal dissemination, hold excluded: propose → last
//!   recorded delivery.
//! - `vote`      — vote collection / aggregation / chain rounds: last
//!   delivery → commit, holds excluded.
//! - `reply`     — commit → client reply leg.
//! - `other`     — the residual (batching gaps, retried attempts, …).
//!
//! Every phase is non-negative and the phases sum to exactly the charged
//! e2e latency, so per-phase histograms aggregated over a scenario cell
//! ([`LatencyBreakdown`]) decompose the cell's e2e distribution. Everything
//! is a pure function of the recorded events — merge-order independent and
//! byte-identical across sweep worker counts like the rest of the registry.

use crate::hist::LogLinearHistogram;
use crate::trace::{Stage, TraceEvent};
use std::collections::BTreeMap;

/// The named phases of a committed command's end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Client → ingress hop plus the ingress → proposer forwarding hop.
    Ingress,
    /// Leader-side admission queueing.
    Admission,
    /// Adversarial dissemination holds on the consensus segment.
    Hold,
    /// Proposal dissemination (holds excluded).
    Dissemination,
    /// Vote collection / aggregation / commit-chain rounds (holds excluded).
    Vote,
    /// Commit → client reply leg.
    Reply,
    /// Residual: batching gaps, dropped-and-retried attempts, rounding.
    Other,
}

impl Phase {
    /// Every phase, in commit-path order.
    pub const ALL: [Phase; 7] = [
        Phase::Ingress,
        Phase::Admission,
        Phase::Hold,
        Phase::Dissemination,
        Phase::Vote,
        Phase::Reply,
        Phase::Other,
    ];

    /// Stable lowercase identifier (metric names, table rows, JSON keys).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Ingress => "ingress",
            Phase::Admission => "admission",
            Phase::Hold => "hold",
            Phase::Dissemination => "dissem",
            Phase::Vote => "vote",
            Phase::Reply => "reply",
            Phase::Other => "other",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// One committed command's attributed latency.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandPath {
    /// The command's trace id (global arrival index).
    pub trace_id: u64,
    /// The view / sequence ordinal that committed it (`None` when the
    /// commit was reported without a view link).
    pub view: Option<u64>,
    /// Commit instant, seconds since run start — window filters key on this.
    pub committed_s: f64,
    /// Charged end-to-end latency, microseconds (matches the traffic
    /// queue's e2e accounting: send → commit + forwarding + reply legs).
    pub e2e_us: u64,
    phase_us: [u64; 7],
}

impl CommandPath {
    /// Microseconds attributed to `phase`.
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phase_us[phase.index()]
    }
}

/// Disjoint union of hold intervals with prefix sums: `covered(a, b)` is the
/// total held time inside `[a, b)` in O(log n).
struct HoldIndex {
    /// Disjoint, sorted `(start, end)` intervals.
    spans: Vec<(u64, u64)>,
    /// `prefix[i]` = total covered length of `spans[..i]`.
    prefix: Vec<u64>,
}

impl HoldIndex {
    fn build(mut raw: Vec<(u64, u64)>) -> Self {
        raw.sort_unstable();
        let mut spans: Vec<(u64, u64)> = Vec::with_capacity(raw.len());
        for (s, e) in raw {
            if e <= s {
                continue;
            }
            match spans.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => spans.push((s, e)),
            }
        }
        let mut prefix = Vec::with_capacity(spans.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for &(s, e) in &spans {
            acc += e - s;
            prefix.push(acc);
        }
        HoldIndex { spans, prefix }
    }

    /// Total covered length inside `[a, b)`.
    fn covered(&self, a: u64, b: u64) -> u64 {
        if b <= a || self.spans.is_empty() {
            return 0;
        }
        // First interval ending after `a`, first interval starting at/after `b`.
        let lo = self.spans.partition_point(|&(_, e)| e <= a);
        let hi = self.spans.partition_point(|&(s, _)| s < b);
        if lo >= hi {
            return 0;
        }
        let mut total = self.prefix[hi] - self.prefix[lo];
        // Trim the partial overlap at both edges.
        let (s0, _) = self.spans[lo];
        if a > s0 {
            total -= a - s0;
        }
        let (_, e1) = self.spans[hi - 1];
        if e1 > b {
            total -= e1 - b;
        }
        total
    }
}

/// Client-side spans of one trace id, filled while scanning the sink.
#[derive(Default)]
struct ClientSide {
    emit: Option<(u64, u64)>,      // (ts, dur)
    admission: Option<(u64, u64)>, // (ts, dur)
    forward_dur: u64,
    reply: Option<(u64, u64, Option<u64>)>, // (ts, dur, view)
}

/// Consensus-side aggregates of one view/sequence ordinal.
#[derive(Default)]
struct ViewSide {
    propose_ts: Option<u64>,
    max_forward_end: u64,
}

/// Reconstruct every committed command's span DAG from the recorded trace
/// events and attribute its end-to-end latency into [`Phase`]s. Commands
/// are returned in trace-id order; commands without a `reply` span (never
/// committed, or the run was not traced) are absent.
pub fn attribute(events: &[TraceEvent]) -> Vec<CommandPath> {
    let mut clients: BTreeMap<u64, ClientSide> = BTreeMap::new();
    let mut views: BTreeMap<u64, ViewSide> = BTreeMap::new();
    let mut holds: Vec<(u64, u64)> = Vec::new();

    for e in events {
        match e.stage {
            Stage::ClientEmit => {
                clients
                    .entry(e.tid)
                    .or_default()
                    .emit
                    .get_or_insert((e.ts_us, e.dur_us));
            }
            Stage::Admission => {
                // A retried command is dispatched more than once; the last
                // admission span belongs to the attempt that committed.
                clients.entry(e.tid).or_default().admission = Some((e.ts_us, e.dur_us));
            }
            Stage::IngressForward => {
                clients.entry(e.tid).or_default().forward_dur = e.dur_us;
            }
            Stage::Reply => {
                let view = e
                    .args
                    .iter()
                    .find(|(k, _)| *k == "view")
                    .map(|&(_, v)| v as u64);
                clients.entry(e.tid).or_default().reply = Some((e.ts_us, e.dur_us, view));
            }
            Stage::Propose => {
                views
                    .entry(e.tid)
                    .or_default()
                    .propose_ts
                    .get_or_insert(e.ts_us);
            }
            Stage::Forward => {
                let v = views.entry(e.tid).or_default();
                v.max_forward_end = v.max_forward_end.max(e.ts_us + e.dur_us);
            }
            Stage::Hold => {
                holds.push((e.ts_us, e.ts_us + e.dur_us));
            }
            Stage::Vote | Stage::Aggregate | Stage::Commit | Stage::Reconfigure => {}
        }
    }
    let holds = HoldIndex::build(holds);

    let mut out = Vec::new();
    for (&trace_id, c) in &clients {
        let Some((reply_ts, reply_dur, view)) = c.reply else {
            continue;
        };
        let Some((emit_ts, emit_dur)) = c.emit else {
            continue;
        };
        let e2e_us = reply_ts.saturating_sub(emit_ts) + c.forward_dur + reply_dur;
        let mut phase_us = [0u64; 7];
        phase_us[Phase::Ingress.index()] = emit_dur + c.forward_dur;
        phase_us[Phase::Admission.index()] = c.admission.map_or(0, |(_, d)| d);
        phase_us[Phase::Reply.index()] = reply_dur;
        // The consensus segment: from the committing view's proposal to the
        // commit instant the reply span starts at.
        if let Some(vs) = view.and_then(|v| views.get(&v)) {
            if let Some(propose_ts) = vs.propose_ts {
                if propose_ts <= reply_ts {
                    let fwd_end = vs.max_forward_end.clamp(propose_ts, reply_ts);
                    let held_dissem = holds.covered(propose_ts, fwd_end);
                    let held_vote = holds.covered(fwd_end, reply_ts);
                    phase_us[Phase::Hold.index()] = held_dissem + held_vote;
                    phase_us[Phase::Dissemination.index()] =
                        (fwd_end - propose_ts).saturating_sub(held_dissem);
                    phase_us[Phase::Vote.index()] = (reply_ts - fwd_end).saturating_sub(held_vote);
                }
            }
        }
        // The consensus segment never exceeds the e2e budget (the budget
        // additionally carries the client-side legs), but clamp defensively
        // so `other` is exactly the residual and the phases always sum to
        // the charged e2e.
        let mut budget = e2e_us;
        for p in &mut phase_us {
            *p = (*p).min(budget);
            budget -= *p;
        }
        phase_us[Phase::Other.index()] = budget;
        out.push(CommandPath {
            trace_id,
            view,
            committed_s: reply_ts as f64 / 1e6,
            e2e_us,
            phase_us,
        });
    }
    out
}

/// Per-phase latency histograms aggregated over a set of committed
/// commands — one scenario cell, one time window, one knee rate point.
/// Histograms are the mergeable log-linear kind, so breakdowns shard and
/// recombine in any order.
#[derive(Debug, Clone)]
pub struct LatencyBreakdown {
    e2e_us: LogLinearHistogram,
    phase_us: [LogLinearHistogram; 7],
    phase_sum_us: [u128; 7],
}

impl Default for LatencyBreakdown {
    fn default() -> Self {
        LatencyBreakdown {
            e2e_us: LogLinearHistogram::new(),
            phase_us: std::array::from_fn(|_| LogLinearHistogram::new()),
            phase_sum_us: [0; 7],
        }
    }
}

/// One rendered row of a breakdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Phase identifier ([`Phase::name`]).
    pub phase: &'static str,
    /// Mean over committed commands, milliseconds.
    pub mean_ms: f64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// This phase's share of total e2e time (`0.0 ..= 1.0`).
    pub share: f64,
}

impl LatencyBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregate an iterator of attributed commands.
    pub fn from_paths<'a>(paths: impl IntoIterator<Item = &'a CommandPath>) -> Self {
        let mut out = Self::new();
        for p in paths {
            out.record(p);
        }
        out
    }

    /// Fold one command in. Zero phases are recorded too: a phase that is
    /// usually absent (e.g. `hold` outside an attack) must drag its
    /// quantiles down, not vanish from them.
    pub fn record(&mut self, path: &CommandPath) {
        self.e2e_us.record(path.e2e_us);
        for phase in Phase::ALL {
            let us = path.phase_us(phase);
            self.phase_us[phase.index()].record(us);
            self.phase_sum_us[phase.index()] += us as u128;
        }
    }

    /// Fold another breakdown in (bucket addition, any order).
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        self.e2e_us.merge(&other.e2e_us);
        for i in 0..7 {
            self.phase_us[i].merge(&other.phase_us[i]);
            self.phase_sum_us[i] += other.phase_sum_us[i];
        }
    }

    /// Commands aggregated.
    pub fn count(&self) -> u64 {
        self.e2e_us.count()
    }

    /// The end-to-end latency histogram (µs).
    pub fn e2e(&self) -> &LogLinearHistogram {
        &self.e2e_us
    }

    /// One phase's latency histogram (µs).
    pub fn phase(&self, phase: Phase) -> &LogLinearHistogram {
        &self.phase_us[phase.index()]
    }

    /// This phase's share of total e2e time (`0.0` when empty).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.e2e_us.sum();
        if total == 0 {
            0.0
        } else {
            self.phase_sum_us[phase.index()] as f64 / total as f64
        }
    }

    /// One row per phase, in commit-path order.
    pub fn rows(&self) -> Vec<BreakdownRow> {
        Phase::ALL
            .iter()
            .map(|&phase| {
                let h = self.phase(phase);
                BreakdownRow {
                    phase: phase.name(),
                    mean_ms: h.mean() / 1e3,
                    p50_ms: h.p50() as f64 / 1e3,
                    p99_ms: h.p99() as f64 / 1e3,
                    share: self.share(phase),
                }
            })
            .collect()
    }

    /// A fixed-width table of the breakdown (callers print it; this crate
    /// never writes to stdout).
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<10} {:>10} {:>10} {:>10} {:>7}\n",
            "phase", "mean_ms", "p50_ms", "p99_ms", "share"
        );
        for r in self.rows() {
            out.push_str(&format!(
                "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>6.1}%\n",
                r.phase,
                r.mean_ms,
                r.p50_ms,
                r.p99_ms,
                r.share * 100.0
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2} ({} commands)\n",
            "e2e",
            self.e2e_us.mean() / 1e3,
            self.e2e_us.p50() as f64 / 1e3,
            self.e2e_us.p99() as f64 / 1e3,
            self.count()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CLIENTS_PID;

    fn ev(stage: Stage, tid: u64, ts: u64, dur: u64, args: Vec<(&'static str, f64)>) -> TraceEvent {
        TraceEvent {
            stage,
            pid: if stage.category() == "traffic" {
                CLIENTS_PID
            } else {
                0
            },
            tid,
            ts_us: ts,
            dur_us: dur,
            args,
        }
    }

    /// One command through a clean commit: every phase lands exactly where
    /// the spans say, and the phases sum to the charged e2e.
    #[test]
    fn clean_commit_attributes_exactly() {
        let events = vec![
            ev(Stage::ClientEmit, 7, 1_000, 2_000, vec![]), // send 1ms, +2ms to ingress
            ev(Stage::Admission, 7, 3_000, 5_000, vec![]),  // 5ms queueing
            ev(Stage::IngressForward, 7, 8_000, 1_500, vec![]), // 1.5ms hop
            ev(Stage::Propose, 42, 9_000, 0, vec![]),
            ev(Stage::Forward, 42, 9_000, 4_000, vec![]), // delivered at 13ms
            ev(Stage::Forward, 42, 9_000, 6_000, vec![]), // slowest at 15ms
            ev(Stage::Commit, 42, 9_000, 11_000, vec![]),
            ev(Stage::Reply, 7, 20_000, 2_500, vec![("view", 42.0)]),
        ];
        let paths = attribute(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.trace_id, 7);
        assert_eq!(p.view, Some(42));
        assert_eq!(p.e2e_us, (20_000 - 1_000) + 1_500 + 2_500);
        assert_eq!(p.phase_us(Phase::Ingress), 2_000 + 1_500);
        assert_eq!(p.phase_us(Phase::Admission), 5_000);
        assert_eq!(p.phase_us(Phase::Hold), 0);
        assert_eq!(p.phase_us(Phase::Dissemination), 6_000); // 9ms → 15ms
        assert_eq!(p.phase_us(Phase::Vote), 5_000); // 15ms → 20ms
        assert_eq!(p.phase_us(Phase::Reply), 2_500);
        let total: u64 = Phase::ALL.iter().map(|&ph| p.phase_us(ph)).sum();
        assert_eq!(total, p.e2e_us, "phases partition the e2e budget");
        // other = the dispatch → propose gap (8ms → 9ms) nothing claims.
        assert_eq!(p.phase_us(Phase::Other), 1_000);
    }

    /// A dissemination hold on the consensus segment is attributed to
    /// `hold`, and is carved out of `dissem`/`vote` rather than counted
    /// twice.
    #[test]
    fn hold_is_attributed_and_not_double_counted() {
        let events = vec![
            ev(Stage::ClientEmit, 0, 0, 1_000, vec![]),
            ev(Stage::Admission, 0, 1_000, 1_000, vec![]),
            ev(Stage::Propose, 5, 2_000, 0, vec![]),
            // The proposer held dissemination 600ms starting at propose.
            ev(Stage::Hold, 5, 2_000, 600_000, vec![]),
            // Delivery spans start at the (honest) proposal timestamp, so
            // their duration includes the hold.
            ev(Stage::Forward, 5, 2_000, 610_000, vec![]),
            ev(Stage::Reply, 0, 640_000, 1_000, vec![("view", 5.0)]),
        ];
        let p = &attribute(&events)[0];
        assert_eq!(p.phase_us(Phase::Hold), 600_000);
        assert_eq!(p.phase_us(Phase::Dissemination), 10_000);
        assert_eq!(p.phase_us(Phase::Vote), 640_000 - 612_000);
        let total: u64 = Phase::ALL.iter().map(|&ph| p.phase_us(ph)).sum();
        assert_eq!(total, p.e2e_us);
        // Under the attack the hold dominates the breakdown.
        let bd = LatencyBreakdown::from_paths([p.clone()].iter());
        assert!(
            bd.share(Phase::Hold) > 0.5,
            "hold share {}",
            bd.share(Phase::Hold)
        );
    }

    /// Holds of *later* views on a chained-commit path (HotStuff three-chain:
    /// view v's batch commits only when v+2 arrives) count toward the
    /// command's hold phase because they overlap its consensus segment.
    #[test]
    fn chained_holds_overlap_the_consensus_segment() {
        let events = vec![
            ev(Stage::ClientEmit, 3, 0, 0, vec![]),
            ev(Stage::Admission, 3, 0, 0, vec![]),
            ev(Stage::Propose, 10, 10_000, 0, vec![]),
            ev(Stage::Forward, 10, 10_000, 20_000, vec![]),
            // Views 11 and 12 each held 100ms before the chain commits v10.
            ev(Stage::Hold, 11, 40_000, 100_000, vec![]),
            ev(Stage::Hold, 12, 180_000, 100_000, vec![]),
            ev(Stage::Reply, 3, 300_000, 0, vec![("view", 10.0)]),
        ];
        let p = &attribute(&events)[0];
        assert_eq!(p.phase_us(Phase::Hold), 200_000);
        assert_eq!(p.phase_us(Phase::Dissemination), 20_000);
        // vote = (300ms − 30ms) − 200ms held
        assert_eq!(p.phase_us(Phase::Vote), 70_000);
    }

    /// Overlapping hold spans are unioned, not summed: two concurrent holds
    /// cannot attribute more wall time than actually passed.
    #[test]
    fn overlapping_holds_union() {
        let idx = HoldIndex::build(vec![(10, 30), (20, 40), (100, 110)]);
        assert_eq!(idx.covered(0, 200), 30 + 10);
        assert_eq!(idx.covered(15, 35), 20);
        assert_eq!(idx.covered(35, 105), 5 + 5);
        assert_eq!(idx.covered(50, 90), 0);
        assert_eq!(idx.covered(90, 90), 0);
    }

    /// A commit reported without a view link still yields a path — the
    /// consensus time just lands in `other` instead of being split.
    #[test]
    fn viewless_reply_falls_back_to_other() {
        let events = vec![
            ev(Stage::ClientEmit, 1, 0, 1_000, vec![]),
            ev(Stage::Admission, 1, 1_000, 2_000, vec![]),
            ev(Stage::Reply, 1, 50_000, 1_000, vec![]),
        ];
        let p = &attribute(&events)[0];
        assert_eq!(p.view, None);
        assert_eq!(p.phase_us(Phase::Hold), 0);
        assert_eq!(p.phase_us(Phase::Dissemination), 0);
        assert_eq!(p.phase_us(Phase::Other), p.e2e_us - 1_000 - 2_000 - 1_000);
    }

    /// Breakdown aggregation is merge-order independent (shards from
    /// parallel workers recombine identically).
    #[test]
    fn breakdown_merge_is_order_independent() {
        let mk = |tid: u64, commit: u64| {
            let events = vec![
                ev(Stage::ClientEmit, tid, 0, 1_000, vec![]),
                ev(Stage::Admission, tid, 1_000, 500, vec![]),
                ev(Stage::Propose, tid + 100, 2_000, 0, vec![]),
                ev(Stage::Forward, tid + 100, 2_000, 3_000, vec![]),
                ev(
                    Stage::Reply,
                    tid,
                    commit,
                    1_000,
                    vec![("view", (tid + 100) as f64)],
                ),
            ];
            LatencyBreakdown::from_paths(attribute(&events).iter())
        };
        let shards: Vec<LatencyBreakdown> = (0..5).map(|i| mk(i, 10_000 + i * 7_000)).collect();
        let mut fwd = LatencyBreakdown::new();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = LatencyBreakdown::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd.rows(), rev.rows());
        assert_eq!(fwd.count(), 5);
        assert_eq!(fwd.render_table(), rev.render_table());
    }
}

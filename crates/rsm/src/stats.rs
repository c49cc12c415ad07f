//! Throughput and consensus-latency collection for experiment harnesses.
//!
//! The paper reports *throughput* (committed requests per second) and
//! *consensus latency* (time from block proposal to commit), sampled every
//! second over a 120-second run (§7.3). [`CommitStats`] records commits as
//! they happen inside a replica and produces the same aggregates.

use runtime::{Duration, Histogram, RateCounter, SimTime, TimeSeries};
use serde::Serialize;

/// Mean value of a `(time s, value)` timeline over the window `[from, to)`
/// seconds (0.0 when no point falls inside) — the windowed-latency helper
/// shared by the substrate reports, `LatencyWindow` metrics, and the figure
/// assertions.
pub fn timeline_mean(points: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &(t, v) in points {
        if t >= from && t < to {
            sum += v;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Per-replica commit statistics.
///
/// Besides the paper's consensus-side aggregates (throughput, proposal→commit
/// latency), the collector carries the *client-side* view an open-loop
/// traffic workload needs: end-to-end latency samples (client send → commit →
/// reply) and goodput — the commands whose end-to-end latency met the SLO
/// deadline.
#[derive(Debug, Clone)]
pub struct CommitStats {
    throughput: RateCounter,
    latency: Histogram,
    latency_timeline: TimeSeries,
    committed_blocks: u64,
    committed_commands: u64,
    /// First / last commit instants, for span-based throughput.
    first_commit: Option<SimTime>,
    last_commit: Option<SimTime>,
    /// Goodput SLO deadline (`None` = every committed command is goodput).
    slo: Option<Duration>,
    e2e: Histogram,
    e2e_timeline: TimeSeries,
    goodput: RateCounter,
    goodput_commands: u64,
    client_commands: u64,
}

impl Default for CommitStats {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitStats {
    /// Create an empty collector with one-second throughput buckets.
    pub fn new() -> Self {
        CommitStats {
            throughput: RateCounter::new(Duration::from_secs(1)),
            latency: Histogram::new(),
            latency_timeline: TimeSeries::new(),
            committed_blocks: 0,
            committed_commands: 0,
            first_commit: None,
            last_commit: None,
            slo: None,
            e2e: Histogram::new(),
            e2e_timeline: TimeSeries::new(),
            goodput: RateCounter::new(Duration::from_secs(1)),
            goodput_commands: 0,
            client_commands: 0,
        }
    }

    /// Set the goodput SLO deadline for subsequent end-to-end samples.
    pub fn with_slo(mut self, slo: Duration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Record that a block of `commands` commands proposed at `proposed`
    /// committed at `committed`.
    pub fn record_commit(&mut self, proposed: SimTime, committed: SimTime, commands: usize) {
        let lat = committed.since(proposed);
        self.latency.record(lat);
        self.latency_timeline.push(committed, lat.as_millis_f64());
        self.throughput.record(committed, commands as u64);
        self.committed_blocks += 1;
        self.committed_commands += commands as u64;
        if self.first_commit.is_none() {
            self.first_commit = Some(committed);
        }
        self.last_commit = Some(committed);
    }

    /// Record one command's end-to-end client latency (send → commit →
    /// reply), committed at `committed`. The command counts towards goodput
    /// iff `e2e` meets the SLO deadline.
    pub fn record_client_commit(&mut self, e2e: Duration, committed: SimTime) {
        self.e2e.record(e2e);
        self.e2e_timeline.push(committed, e2e.as_millis_f64());
        self.client_commands += 1;
        if self.slo.is_none_or(|slo| e2e <= slo) {
            self.goodput.record(committed, 1);
            self.goodput_commands += 1;
        }
    }

    /// Total committed blocks.
    pub fn blocks(&self) -> u64 {
        self.committed_blocks
    }

    /// Total committed commands.
    pub fn commands(&self) -> u64 {
        self.committed_commands
    }

    /// Mean consensus latency.
    pub fn mean_latency(&self) -> Duration {
        self.latency.mean()
    }

    /// Latency timeline: (commit time in seconds, latency in ms).
    pub fn latency_timeline(&self) -> &TimeSeries {
        &self.latency_timeline
    }

    /// Per-second committed command counts.
    pub fn throughput_buckets(&self) -> &[u64] {
        self.throughput.buckets()
    }

    /// The span of virtual time actually covered by commits (first → last),
    /// in seconds. Zero until two distinct commit instants exist.
    pub fn committed_span_secs(&self) -> f64 {
        match (self.first_commit, self.last_commit) {
            (Some(first), Some(last)) => last.since(first).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Mean throughput in commands per second over the *actual committed
    /// span* (first → last commit). A run that stalls half-way reports the
    /// rate it sustained while it was committing, not the rate diluted over
    /// the nominal horizon. Falls back to `run_secs` when the span is
    /// degenerate (fewer than two distinct commit instants); see
    /// [`CommitStats::nominal_throughput`] for the paper-style figure.
    pub fn mean_throughput(&self, run_secs: u64) -> f64 {
        let span = self.committed_span_secs();
        if span > 0.0 {
            self.committed_commands as f64 / span
        } else {
            self.nominal_throughput(run_secs)
        }
    }

    /// Throughput diluted over the nominal run horizon — what the paper's
    /// throughput figures report (total committed / experiment length).
    pub fn nominal_throughput(&self, run_secs: u64) -> f64 {
        if run_secs == 0 {
            return 0.0;
        }
        self.committed_commands as f64 / run_secs as f64
    }

    /// End-to-end latency histogram (mutable access for percentile queries).
    pub fn e2e_histogram(&mut self) -> &mut Histogram {
        &mut self.e2e
    }

    /// End-to-end latency timeline: (commit time s, e2e latency ms).
    pub fn e2e_timeline(&self) -> &TimeSeries {
        &self.e2e_timeline
    }

    /// Commands with a recorded end-to-end latency.
    pub fn client_commands(&self) -> u64 {
        self.client_commands
    }

    /// Commands whose end-to-end latency met the SLO.
    pub fn goodput_commands(&self) -> u64 {
        self.goodput_commands
    }

    /// Mean goodput in commands per second over the nominal horizon (goodput
    /// is compared against *offered* load, which is also nominal).
    pub fn goodput_ops(&self, run_secs: u64) -> f64 {
        if run_secs == 0 {
            return 0.0;
        }
        self.goodput_commands as f64 / run_secs as f64
    }

    /// Per-second within-SLO committed command counts.
    pub fn goodput_buckets(&self) -> &[u64] {
        self.goodput.buckets()
    }

    /// Summarise the run. `throughput_ops` stays the paper-style nominal
    /// figure (total committed / horizon) so degraded runs *show* their
    /// degradation in the plots; `sustained_ops` carries the span-based rate
    /// for capacity analysis.
    pub fn summary(&mut self, run_secs: u64) -> RunSummary {
        RunSummary {
            throughput_ops: self.nominal_throughput(run_secs),
            sustained_ops: self.mean_throughput(run_secs),
            mean_latency_ms: self.mean_latency().as_millis_f64(),
            p50_latency_ms: self.latency.median().as_millis_f64(),
            p99_latency_ms: self.latency.percentile(0.99).as_millis_f64(),
            latency_ci95_ms: self.latency.ci95_ms(),
            committed_blocks: self.committed_blocks,
            committed_commands: self.committed_commands,
        }
    }
}

/// Aggregated results of one experiment run, in the units the paper reports.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct RunSummary {
    /// Mean throughput in operations (commands) per second over the nominal
    /// run horizon — what the paper's throughput figures report.
    pub throughput_ops: f64,
    /// Throughput over the actual committed span (first → last commit): the
    /// rate the run *sustained while it was committing*, undiluted by a
    /// stall (see [`CommitStats::mean_throughput`]).
    pub sustained_ops: f64,
    /// Mean consensus latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median consensus latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile consensus latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Half-width of the 95% confidence interval of the latency mean.
    pub latency_ci95_ms: f64,
    /// Number of committed blocks.
    pub committed_blocks: u64,
    /// Number of committed commands.
    pub committed_commands: u64,
}

impl RunSummary {
    /// Render a one-line human-readable summary for harness output.
    pub fn render(&self, label: &str) -> String {
        format!(
            "{label:<28} {:>10.0} op/s   latency {:>8.1} ms (p50 {:.1}, p99 {:.1}, ±{:.1})   blocks {}",
            self.throughput_ops,
            self.mean_latency_ms,
            self.p50_latency_ms,
            self.p99_latency_ms,
            self.latency_ci95_ms,
            self.committed_blocks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_commit_tracks_latency_and_throughput() {
        let mut s = CommitStats::new();
        s.record_commit(SimTime::from_millis(0), SimTime::from_millis(100), 1000);
        s.record_commit(SimTime::from_millis(500), SimTime::from_millis(700), 1000);
        s.record_commit(SimTime::from_millis(1200), SimTime::from_millis(1500), 1000);

        assert_eq!(s.blocks(), 3);
        assert_eq!(s.commands(), 3000);
        assert_eq!(s.mean_latency().as_millis(), 200);
        assert_eq!(s.throughput_buckets(), &[2000, 1000]);
        // Span-based: commits cover [0.1 s, 1.5 s] → 3000 / 1.4 s.
        assert!((s.mean_throughput(3) - 3000.0 / 1.4).abs() < 1e-9);
        assert_eq!(s.nominal_throughput(3), 1000.0);
        assert!((s.committed_span_secs() - 1.4).abs() < 1e-9);
    }

    /// The regression `mean_throughput` was fixed for: a run that commits at
    /// full rate for a third of the horizon and then stalls must report the
    /// sustained rate, while the nominal accessor keeps the diluted figure.
    #[test]
    fn partially_degraded_run_reports_sustained_rate() {
        let mut s = CommitStats::new();
        for i in 0..10u64 {
            let t = SimTime::from_secs(i);
            s.record_commit(t, t + Duration::from_millis(50), 100);
        }
        // Stall: nothing commits for the remaining 20 s of a 30 s run.
        let sustained = s.mean_throughput(30);
        let nominal = s.nominal_throughput(30);
        assert!((sustained - 1000.0 / 9.0).abs() < 1e-6, "{sustained}");
        assert!((nominal - 1000.0 / 30.0).abs() < 1e-9);
        assert!(sustained > nominal * 3.0);
    }

    #[test]
    fn summary_contains_percentiles() {
        let mut s = CommitStats::new();
        for i in 1..=100u64 {
            s.record_commit(SimTime::ZERO, SimTime::from_millis(i), 10);
        }
        let sum = s.summary(10);
        assert_eq!(sum.committed_blocks, 100);
        assert_eq!(sum.committed_commands, 1000);
        assert!((sum.p50_latency_ms - 50.0).abs() <= 1.0);
        assert!(sum.p99_latency_ms >= 98.0);
        assert!(sum.throughput_ops > 0.0);
        assert!(sum.render("test").contains("op/s"));
    }

    #[test]
    fn empty_stats_are_safe() {
        let mut s = CommitStats::new();
        let sum = s.summary(120);
        assert_eq!(sum.throughput_ops, 0.0);
        assert_eq!(sum.mean_latency_ms, 0.0);
        assert_eq!(s.mean_throughput(0), 0.0);
        assert_eq!(s.committed_span_secs(), 0.0);
        assert_eq!(s.goodput_ops(120), 0.0);
        assert_eq!(s.client_commands(), 0);
    }

    #[test]
    fn end_to_end_samples_split_into_goodput_by_slo() {
        let mut s = CommitStats::new().with_slo(Duration::from_millis(500));
        s.record_client_commit(Duration::from_millis(200), SimTime::from_millis(1_200));
        s.record_client_commit(Duration::from_millis(500), SimTime::from_millis(1_500));
        s.record_client_commit(Duration::from_millis(900), SimTime::from_millis(2_100));
        assert_eq!(s.client_commands(), 3);
        assert_eq!(s.goodput_commands(), 2, "only within-SLO commands count");
        assert_eq!(s.goodput_buckets(), &[0, 2]);
        assert_eq!(s.goodput_ops(2), 1.0);
        assert_eq!(s.e2e_timeline().len(), 3);
        assert_eq!(s.e2e_histogram().median().as_millis(), 500);
    }

    #[test]
    fn without_slo_every_client_commit_is_goodput() {
        let mut s = CommitStats::new();
        s.record_client_commit(Duration::from_secs(30), SimTime::from_secs(31));
        assert_eq!(s.goodput_commands(), 1);
    }

    #[test]
    fn time_series_window_mean() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 100.0);
        ts.push(SimTime::from_secs(2), 200.0);
        ts.push(SimTime::from_secs(10), 1000.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(timeline_mean(ts.points(), 0.0, 5.0), 150.0);
        assert_eq!(timeline_mean(ts.points(), 5.0, 20.0), 1000.0);
        assert_eq!(timeline_mean(ts.points(), 20.0, 30.0), 0.0);
    }

    #[test]
    fn latency_timeline_records_points() {
        let mut s = CommitStats::new();
        s.record_commit(SimTime::from_secs(1), SimTime::from_secs(2), 5);
        assert_eq!(s.latency_timeline().len(), 1);
        let (t, v) = s.latency_timeline().points()[0];
        assert_eq!(t, 2.0);
        assert_eq!(v, 1000.0);
    }
}

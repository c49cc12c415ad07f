//! Throughput and consensus-latency collection for experiment harnesses.
//!
//! The paper reports *throughput* (committed requests per second) and
//! *consensus latency* (time from block proposal to commit), sampled every
//! second over a 120-second run (§7.3). [`CommitStats`] stores one record
//! per commit and derives every aggregate from those records: the latency
//! timeline, the per-second throughput buckets and the [`RunSummary`]. The
//! client side (end-to-end latency, goodput) lives with the traffic queue,
//! which summarises its replies through the same [`latency_ms`] rule.

use runtime::{Duration, SimTime};
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

/// The `p`-th percentile (0.0–1.0) of ascending microsecond samples, with
/// linear interpolation between the two bracketing ranks (the R-7 / numpy
/// `linear` definition), rounded to whole microseconds; 0 when empty.
/// Rounding the fractional rank to a single index biased p99 low on small
/// windows — a 100-sample p99 must land between the 99th and 100th order
/// statistic, not on whichever is nearer.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0);
    let (lo, hi) = (sorted[rank.floor() as usize], sorted[rank.ceil() as usize]);
    let frac = rank - rank.floor();
    (lo as f64 + frac * (hi as f64 - lo as f64)).round() as u64
}

/// `[mean, p50, p99]` of microsecond latency samples, in milliseconds (all
/// 0.0 when there are none). The mean truncates to whole microseconds and
/// the percentiles are [`percentile`]'s. Sorts `samples` in place.
pub fn latency_ms(samples: &mut [u64]) -> [f64; 3] {
    if samples.is_empty() {
        return [0.0; 3];
    }
    let sum: u128 = samples.iter().map(|&s| s as u128).sum();
    let mean = (sum / samples.len() as u128) as u64;
    samples.sort_unstable();
    [mean, percentile(samples, 0.5), percentile(samples, 0.99)]
        .map(|us| Duration::from_micros(us).as_millis_f64())
}

/// Sum `(instant, count)` pairs into one-second buckets; the result ends at
/// the last non-empty second.
pub fn per_second(counts: impl IntoIterator<Item = (SimTime, u64)>) -> Vec<u64> {
    let mut buckets = Vec::new();
    for (at, count) in counts {
        let sec = (at.as_micros() / 1_000_000) as usize;
        if sec >= buckets.len() {
            buckets.resize(sec + 1, 0);
        }
        buckets[sec] += count;
    }
    buckets
}

/// One committed block.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Commit {
    at: SimTime,
    latency_us: u64,
    commands: u64,
}

/// Per-replica commit statistics: one record per committed block, in
/// commit order.
#[derive(Debug, Clone, Default)]
pub struct CommitStats {
    commits: Vec<Commit>,
}

impl CommitStats {
    /// Create an empty collector.
    pub fn new() -> Self {
        CommitStats::default()
    }

    /// Merge several replicas' records into global commit order, ties
    /// broken by latency: the tree families record each commit once, at the
    /// root that proposed it, so the merge counts every commit once.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a CommitStats>) -> CommitStats {
        let mut commits: Vec<Commit> = parts
            .into_iter()
            .flat_map(|s| s.commits.iter().copied())
            .collect();
        commits.sort_by_key(|c| (c.at, c.latency_us));
        CommitStats { commits }
    }

    /// Record that a block of `commands` commands proposed at `proposed`
    /// committed at `committed`.
    pub fn record_commit(&mut self, proposed: SimTime, committed: SimTime, commands: usize) {
        self.commits.push(Commit {
            at: committed,
            latency_us: committed.since(proposed).as_micros(),
            commands: commands as u64,
        });
    }

    /// Total committed blocks.
    pub fn blocks(&self) -> u64 {
        self.commits.len() as u64
    }

    /// Latency timeline: (commit time in seconds, latency in ms), one point
    /// per committed block.
    pub fn latency_timeline(&self) -> Vec<(f64, f64)> {
        self.commits
            .iter()
            .map(|c| {
                let latency = Duration::from_micros(c.latency_us);
                (c.at.as_secs_f64(), latency.as_millis_f64())
            })
            .collect()
    }

    /// Committed commands per second of the run, up to the last second
    /// with a commit.
    pub fn throughput_buckets(&self) -> Vec<u64> {
        per_second(self.commits.iter().map(|c| (c.at, c.commands)))
    }

    /// Summarise the run. `throughput_ops` stays the paper-style nominal
    /// figure (total committed / horizon) so degraded runs *show* their
    /// degradation in the plots; `sustained_ops` carries the rate over the
    /// committed span (first → last commit) for capacity analysis, and
    /// falls back to the nominal figure when fewer than two distinct commit
    /// instants exist.
    pub fn summary(&self, run_secs: u64) -> RunSummary {
        let commands: u64 = self.commits.iter().map(|c| c.commands).sum();
        let nominal = if run_secs == 0 {
            0.0
        } else {
            commands as f64 / run_secs as f64
        };
        let span = match (self.commits.first(), self.commits.last()) {
            (Some(first), Some(last)) => last.at.since(first.at).as_secs_f64(),
            _ => 0.0,
        };
        let mut latencies: Vec<u64> = self.commits.iter().map(|c| c.latency_us).collect();
        let [mean, p50, p99] = latency_ms(&mut latencies);
        RunSummary {
            throughput_ops: nominal,
            sustained_ops: if span > 0.0 {
                commands as f64 / span
            } else {
                nominal
            },
            mean_latency_ms: mean,
            p50_latency_ms: p50,
            p99_latency_ms: p99,
            committed_blocks: self.blocks(),
            committed_commands: commands,
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
    /// stall.
    pub sustained_ops: f64,
    /// Mean consensus latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median consensus latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile consensus latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Number of committed blocks.
    pub committed_blocks: u64,
    /// Number of committed commands.
    pub committed_commands: u64,
}

impl RunSummary {
    /// Render a one-line human-readable summary for harness output.
    pub fn render(&self, label: &str) -> String {
        format!(
            "{label:<28} {:>10.0} op/s   latency {:>8.1} ms (p50 {:.1}, p99 {:.1})   blocks {}",
            self.throughput_ops,
            self.mean_latency_ms,
            self.p50_latency_ms,
            self.p99_latency_ms,
            self.committed_blocks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn record_commit_tracks_latency_and_throughput() {
        let mut s = CommitStats::new();
        s.record_commit(SimTime::from_millis(0), SimTime::from_millis(100), 1000);
        s.record_commit(SimTime::from_millis(500), SimTime::from_millis(700), 1000);
        s.record_commit(SimTime::from_millis(1200), SimTime::from_millis(1500), 1000);

        let sum = s.summary(3);
        assert_eq!(s.blocks(), 3);
        assert_eq!(sum.committed_commands, 3000);
        assert_eq!(sum.mean_latency_ms, 200.0);
        assert_eq!(s.throughput_buckets(), vec![2000, 1000]);
        // Span-based: commits cover [0.1 s, 1.5 s] → 3000 / 1.4 s.
        assert!((sum.sustained_ops - 3000.0 / 1.4).abs() < 1e-9);
        assert_eq!(sum.throughput_ops, 1000.0);
    }

    /// The regression `sustained_ops` was fixed for: a run that commits at
    /// full rate for a third of the horizon and then stalls must report the
    /// sustained rate, while the nominal figure stays diluted.
    #[test]
    fn partially_degraded_run_reports_sustained_rate() {
        let mut s = CommitStats::new();
        for i in 0..10u64 {
            let t = SimTime::from_secs(i);
            s.record_commit(t, t + Duration::from_millis(50), 100);
        }
        // Stall: nothing commits for the remaining 20 s of a 30 s run.
        let sum = s.summary(30);
        let (sustained, nominal) = (sum.sustained_ops, sum.throughput_ops);
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
        let s = CommitStats::new();
        let sum = s.summary(120);
        assert_eq!(sum.throughput_ops, 0.0);
        assert_eq!(sum.sustained_ops, 0.0);
        assert_eq!(sum.mean_latency_ms, 0.0);
        assert_eq!(s.summary(0).sustained_ops, 0.0);
        assert!(s.latency_timeline().is_empty());
        assert!(s.throughput_buckets().is_empty());
    }

    #[test]
    fn histogram_basic_stats() {
        let mut samples: Vec<u64> = [50u64, 10, 40, 20, 30].map(|ms| ms * 1_000).to_vec();
        // p99: rank 4 × 0.99 = 3.96, so 40 + 0.96 × 10 ms.
        assert_eq!(latency_ms(&mut samples), [30.0, 30.0, 49.6]);
        assert_eq!(samples, [10_000, 20_000, 30_000, 40_000, 50_000]);
        assert_eq!(percentile(&samples, 0.0), 10_000);
        assert_eq!(percentile(&samples, 1.0), 50_000);
    }

    #[test]
    fn histogram_empty_is_safe() {
        assert_eq!(latency_ms(&mut []), [0.0; 3]);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn rate_counter_buckets_by_time() {
        let buckets = per_second([
            (SimTime::from_millis(100), 5),
            (SimTime::from_millis(900), 5),
            (SimTime::from_millis(1100), 7),
            (SimTime::from_millis(3000), 0),
        ]);
        assert_eq!(buckets, vec![10, 7, 0, 0]);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        // 100 samples 1..=100 ms: the exact R-7 percentiles are known in
        // closed form, so this pins the interpolation (the old round-to-
        // nearest-index selection reported 99 ms for p99 and 50 ms for p50).
        let samples: Vec<u64> = (1..=100u64).map(|ms| ms * 1_000).collect();
        // rank = 99 * p; value = 1 + rank (samples are 1-based and linear).
        assert_eq!(percentile(&samples, 0.99), 99_010); // 1 + 99*0.99 = 99.01 ms
        assert_eq!(percentile(&samples, 0.5), 50_500); // 1 + 49.5 = 50.5 ms
        assert_eq!(percentile(&samples, 0.95), 95_050); // 1 + 94.05 = 95.05 ms
        assert_eq!(percentile(&samples, 0.0), 1_000);
        assert_eq!(percentile(&samples, 1.0), 100_000);
        // A single sample is every percentile.
        assert_eq!(percentile(&[7_000], 0.99), 7_000);
    }

    #[test]
    fn time_series_window_mean() {
        let points = [(1.0, 100.0), (2.0, 200.0), (10.0, 1000.0)];
        assert_eq!(timeline_mean(&points, 0.0, 5.0), 150.0);
        assert_eq!(timeline_mean(&points, 5.0, 20.0), 1000.0);
        assert_eq!(timeline_mean(&points, 20.0, 30.0), 0.0);
    }

    #[test]
    fn latency_timeline_records_points() {
        let mut s = CommitStats::new();
        s.record_commit(SimTime::from_secs(1), SimTime::from_secs(2), 5);
        assert_eq!(s.latency_timeline(), vec![(2.0, 1000.0)]);
    }

    /// The records of 1–3 replicas, merged, against the aggregates computed
    /// directly from the commits: the timeline in (time, latency) order, the
    /// buckets over a `run_secs + 1` horizon as the tree report keeps them,
    /// and the summary's counts, rates, mean and R-7 percentiles.
    #[test]
    fn merged_records_match_a_direct_computation() {
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let run_secs = rng.gen_range(1..20u64);
            let replicas = rng.gen_range(1..=3usize);
            let mut parts = vec![CommitStats::new(); replicas];
            // (commit µs, latency µs, commands), as the test drew them.
            let mut all: Vec<(u64, u64, u64)> = Vec::new();
            for part in parts.iter_mut() {
                let mut at = 0u64;
                for _ in 0..rng.gen_range(0..40) {
                    // Whole milliseconds now and then, so commits tie.
                    at += if rng.gen_bool(0.3) {
                        1_000 * rng.gen_range(0..3u64)
                    } else {
                        rng.gen_range(0..900_000u64)
                    };
                    let latency = rng.gen_range(0..2_000_000u64);
                    let commands = rng.gen_range(0..1_000u64);
                    let committed = SimTime::from_micros(at);
                    let proposed = SimTime::from_micros(at.saturating_sub(latency));
                    part.record_commit(proposed, committed, commands as usize);
                    all.push((at, at - at.saturating_sub(latency), commands));
                }
            }
            let merged = CommitStats::merge(&parts);
            all.sort_by_key(|&(at, latency, _)| (at, latency));

            let timeline: Vec<(f64, f64)> = all
                .iter()
                .map(|&(at, latency, _)| (at as f64 / 1e6, latency as f64 / 1e3))
                .collect();
            assert_eq!(merged.latency_timeline(), timeline, "case {case}");

            let mut buckets = vec![0u64; run_secs as usize + 1];
            for &(at, _, commands) in &all {
                if let Some(slot) = buckets.get_mut((at / 1_000_000) as usize) {
                    *slot += commands;
                }
            }
            let mut derived = merged.throughput_buckets();
            derived.resize(run_secs as usize + 1, 0);
            assert_eq!(derived, buckets, "case {case}");

            let commands: u64 = all.iter().map(|c| c.2).sum();
            let mut latencies: Vec<u64> = all.iter().map(|c| c.1).collect();
            latencies.sort_unstable();
            let r7 = |p: f64| {
                if latencies.is_empty() {
                    return 0.0;
                }
                let rank = (latencies.len() - 1) as f64 * p;
                let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
                let v = latencies[lo] as f64
                    + (rank - lo as f64) * (latencies[hi] as f64 - latencies[lo] as f64);
                v.round() / 1e3
            };
            let mean = match latencies.len() as u64 {
                0 => 0.0,
                n => (latencies.iter().sum::<u64>() / n) as f64 / 1e3,
            };
            let nominal = commands as f64 / run_secs as f64;
            let span = match (all.first(), all.last()) {
                (Some(first), Some(last)) if last.0 > first.0 => (last.0 - first.0) as f64 / 1e6,
                _ => 0.0,
            };
            let expected = RunSummary {
                throughput_ops: nominal,
                sustained_ops: if span > 0.0 {
                    commands as f64 / span
                } else {
                    nominal
                },
                mean_latency_ms: mean,
                p50_latency_ms: r7(0.5),
                p99_latency_ms: r7(0.99),
                committed_blocks: all.len() as u64,
                committed_commands: commands,
            };
            assert_eq!(merged.summary(run_secs), expected, "case {case}");
        }
    }
}

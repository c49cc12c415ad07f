//! Measurement collection utilities shared by the experiment harnesses:
//! latency histograms, per-second rate counters, and time series.

use crate::time::{Duration, SimTime};
use serde::Serialize;

/// A simple latency histogram with fixed microsecond-resolution samples.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record a duration sample.
    pub fn record(&mut self, d: Duration) {
        self.samples.push(d.as_micros());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of all samples.
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        Duration::from_micros((sum / self.samples.len() as u128) as u64)
    }

    fn sorted_samples(&mut self) -> &[u64] {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        &self.samples
    }

    /// The `p`-th percentile (0.0–1.0) of the samples, with linear
    /// interpolation between the two bracketing ranks (the R-7 / numpy
    /// `linear` definition). Rounding the fractional rank to a single index
    /// biased p99 low on small windows — a 100-sample p99 must land between
    /// the 99th and 100th order statistic, not on whichever is nearer.
    pub fn percentile(&mut self, p: f64) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let s = self.sorted_samples();
        let rank = (s.len() as f64 - 1.0) * p.clamp(0.0, 1.0);
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        let v = s[lo] as f64 + frac * (s[hi] as f64 - s[lo] as f64);
        Duration::from_micros(v.round() as u64)
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Duration {
        self.percentile(0.5)
    }

    /// Maximum sample.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Minimum sample.
    pub fn min(&self) -> Duration {
        Duration::from_micros(self.samples.iter().copied().min().unwrap_or(0))
    }

    /// Half-width of the 95% confidence interval of the mean, in milliseconds.
    /// Uses the normal approximation (1.96 σ / √n), matching how the paper's
    /// plots report error bars.
    pub fn ci95_ms(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean().as_micros() as f64;
        let var = self
            .samples
            .iter()
            .map(|&s| {
                let d = s as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (n as f64 - 1.0);
        1.96 * (var / n as f64).sqrt() / 1000.0
    }
}

/// Counts events per fixed-size virtual-time bucket (e.g. commits per second),
/// used for throughput timelines like Fig 15.
#[derive(Debug, Clone, Serialize)]
pub struct RateCounter {
    bucket: Duration,
    counts: Vec<u64>,
}

impl RateCounter {
    /// Create a counter with the given bucket width.
    pub fn new(bucket: Duration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be non-zero");
        RateCounter {
            bucket,
            counts: Vec::new(),
        }
    }

    /// Record `count` events at virtual time `at`.
    pub fn record(&mut self, at: SimTime, count: u64) {
        let idx = (at.as_micros() / self.bucket.as_micros()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += count;
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Average rate per bucket over the first `upto` buckets (or all if fewer).
    pub fn mean_rate(&self, upto: usize) -> f64 {
        let n = upto.min(self.counts.len());
        if n == 0 {
            return 0.0;
        }
        self.counts[..n].iter().sum::<u64>() as f64 / n as f64
    }
}

/// A time series of (time, value) points, used for latency timelines (Fig 7).
#[derive(Debug, Clone, Default, Serialize)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a point (time in seconds, arbitrary value).
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at.as_secs_f64(), value));
    }

    /// All points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for ms in [10u64, 20, 30, 40, 50] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean().as_millis(), 30);
        assert_eq!(h.median().as_millis(), 30);
        assert_eq!(h.min().as_millis(), 10);
        assert_eq!(h.max().as_millis(), 50);
        assert_eq!(h.percentile(1.0).as_millis(), 50);
        assert_eq!(h.percentile(0.0).as_millis(), 10);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        // 100 samples 1..=100 ms: the exact R-7 percentiles are known in
        // closed form, so this pins the interpolation (the old round-to-
        // nearest-index selection reported 99 ms for p99 and 50 ms for p50).
        let mut h = Histogram::new();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        // rank = 99 * p; value = 1 + rank (samples are 1-based and linear).
        assert_eq!(h.percentile(0.99).as_micros(), 99_010); // 1 + 99*0.99 = 99.01 ms
        assert_eq!(h.percentile(0.5).as_micros(), 50_500); // 1 + 49.5 = 50.5 ms
        assert_eq!(h.percentile(0.95).as_micros(), 95_050); // 1 + 94.05 = 95.05 ms
        assert_eq!(h.percentile(0.0).as_millis(), 1);
        assert_eq!(h.percentile(1.0).as_millis(), 100);
        // A single sample is every percentile.
        let mut one = Histogram::new();
        one.record(Duration::from_millis(7));
        assert_eq!(one.percentile(0.99).as_millis(), 7);
    }

    #[test]
    fn histogram_empty_is_safe() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.median(), Duration::ZERO);
        assert_eq!(h.ci95_ms(), 0.0);
    }

    #[test]
    fn histogram_ci_shrinks_with_more_identical_samples() {
        let mut small = Histogram::new();
        let mut large = Histogram::new();
        for i in 0..10u64 {
            small.record(Duration::from_millis(10 + (i % 3)));
        }
        for i in 0..1000u64 {
            large.record(Duration::from_millis(10 + (i % 3)));
        }
        assert!(large.ci95_ms() < small.ci95_ms());
    }

    #[test]
    fn rate_counter_buckets_by_time() {
        let mut r = RateCounter::new(Duration::from_secs(1));
        r.record(SimTime::from_millis(100), 5);
        r.record(SimTime::from_millis(900), 5);
        r.record(SimTime::from_millis(1100), 7);
        assert_eq!(r.buckets(), &[10, 7]);
        assert_eq!(r.total(), 17);
        assert_eq!(r.mean_rate(2), 8.5);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rate_counter_rejects_zero_bucket() {
        RateCounter::new(Duration::ZERO);
    }
}

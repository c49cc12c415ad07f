//! Mergeable log-linear histograms: p50/p99/p999 without raw samples.
//!
//! Values (non-negative integers — microseconds, bytes, depths) land in
//! buckets that subdivide each power of two into 2^[`SUB_BITS`] linear
//! sub-ranges, so the relative quantile error is bounded by `2^-SUB_BITS`
//! (≈ 6%) while storage is bounded by the number of *occupied* buckets, not
//! by the sample count. Merging is bucket-count addition — commutative and
//! associative — so per-replica histograms can be combined in any order and
//! yield bit-identical quantiles (the property test pins this).

use std::collections::BTreeMap;

/// Linear sub-bucket resolution: each power of two splits into `2^SUB_BITS`
/// buckets.
pub const SUB_BITS: u32 = 4;

const SUB: u64 = 1 << SUB_BITS;

/// A mergeable log-linear histogram over `u64` values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogLinearHistogram {
    /// Occupied buckets: index → count.
    counts: BTreeMap<u32, u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index of a value. Indices are contiguous and monotone in `v`.
fn bucket_of(v: u64) -> u32 {
    if v < SUB {
        v as u32
    } else {
        let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
        let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as u32;
        ((msb - SUB_BITS + 1) << SUB_BITS) + sub
    }
}

/// Smallest value mapping to bucket `idx` (inverse of [`bucket_of`]).
/// Saturates at `u64::MAX` one past the top bucket, so `bucket_mid` of the
/// final bucket never overflows.
fn bucket_low(idx: u32) -> u64 {
    if idx < SUB as u32 {
        idx as u64
    } else {
        let exp = (idx >> SUB_BITS) as u128 + SUB_BITS as u128 - 1;
        if exp >= 64 {
            return u64::MAX;
        }
        let sub = (idx & (SUB as u32 - 1)) as u128;
        let v = (1u128 << exp) | (sub << (exp - SUB_BITS as u128));
        u64::try_from(v).unwrap_or(u64::MAX)
    }
}

/// The representative value reported for bucket `idx`: the bucket midpoint,
/// a deterministic rule shared by every merge order.
fn bucket_mid(idx: u32) -> u64 {
    let low = bucket_low(idx);
    let high = bucket_low(idx + 1);
    low + (high - low - 1) / 2
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        *self.counts.entry(bucket_of(v)).or_insert(0) += 1;
        if self.total == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.total += 1;
        self.sum += v as u128;
    }

    /// Fold another histogram into this one (bucket-count addition).
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        if other.total == 0 {
            return;
        }
        for (&idx, &c) in &other.counts {
            *self.counts.entry(idx).or_insert(0) += c;
        }
        if self.total == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the representative value of the
    /// bucket holding the rank-`⌈q·total⌉` sample, clamped to the observed
    /// min/max so tails never report impossible values. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank 1..=total; ceil without float edge cases on huge counts.
        let target = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (&idx, &c) in &self.counts {
            seen += c;
            if seen >= target {
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience accessors for the headline quantiles.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Occupied buckets as `(lower_bound, count)` pairs, ascending — the
    /// Prometheus-style cumulative rendering is built from this.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&idx, &c)| (bucket_low(idx), c))
    }

    /// Exact sum of the recorded values (0 when empty). Together with
    /// [`LogLinearHistogram::count`] this backs the Prometheus `_sum` /
    /// `_count` pair, which must be exact rather than bucket-approximated.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Occupied buckets as cumulative `(upper_bound, cumulative_count)`
    /// pairs, ascending — exactly the `le`-labelled series of a Prometheus
    /// histogram (the final implicit bucket is `+Inf`, which the renderer
    /// adds with the total count). Upper bounds are inclusive: every value
    /// in bucket `idx` is `< bucket_low(idx + 1)`, hence `≤` the bound.
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.counts.iter().map(move |(&idx, &c)| {
            cum += c;
            (bucket_low(idx + 1), cum)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = bucket_of(0);
        assert_eq!(prev, 0);
        for v in 1..100_000u64 {
            let b = bucket_of(v);
            assert!(b == prev || b == prev + 1, "gap at {v}: {prev} -> {b}");
            prev = b;
        }
        // Valid indices run up to bucket_of(u64::MAX); one past the last
        // bucket saturates, so mid-of-last-bucket stays in range.
        let top = bucket_of(u64::MAX);
        for idx in 0..top {
            assert_eq!(bucket_of(bucket_low(idx)), idx, "inverse at {idx}");
            assert!(bucket_low(idx + 1) > bucket_low(idx));
        }
        assert_eq!(bucket_low(top + 1), u64::MAX);
        let mut h = LogLinearHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_are_within_relative_error() {
        let mut h = LogLinearHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        let tol = 1.0 / SUB as f64;
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0), (0.999, 9_990.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact).abs() / exact <= tol,
                "q={q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut all = LogLinearHistogram::new();
        let mut parts: Vec<LogLinearHistogram> =
            (0..4).map(|_| LogLinearHistogram::new()).collect();
        for v in 0..1_000u64 {
            let x = (v * 7919) % 50_000;
            all.record(x);
            parts[(v % 4) as usize].record(x);
        }
        let mut merged = LogLinearHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, all);
        assert_eq!(merged.p999(), all.p999());
        assert!((merged.mean() - all.mean()).abs() < 1e-9);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_cover_all_samples() {
        let mut h = LogLinearHistogram::new();
        for v in [3u64, 3, 17, 900, 900, 900, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.sum(), 3 + 3 + 17 + 900 * 3 + 1_000_000);
        let buckets: Vec<(u64, u64)> = h.cumulative_buckets().collect();
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "bounds ascend");
        assert!(
            buckets.windows(2).all(|w| w[0].1 <= w[1].1),
            "counts accumulate"
        );
        assert_eq!(
            buckets.last().unwrap().1,
            h.count(),
            "last bucket holds everything"
        );
        // Every recorded value is ≤ its bucket's upper bound: the cumulative
        // count at the first bound ≥ v must include v's bucket.
        for v in [3u64, 17, 900, 1_000_000] {
            let covered = buckets.iter().find(|&&(le, _)| le >= v).unwrap().1;
            assert!(covered >= 1, "value {v} not covered");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        let mut m = LogLinearHistogram::new();
        m.merge(&h);
        assert_eq!(m, h, "merging empties stays empty");
    }
}

//! Property tests for the telemetry primitives: the merge operation on
//! log-linear histograms must be order-independent (per-replica shards from
//! parallel sweep workers combine to identical quantiles), quantiles must
//! stay within the bucket scheme's relative-error bound, and windowed
//! time-series shards must recombine byte-identically in any order.

use proptest::prelude::*;
use std::collections::BTreeMap;
use telemetry::{LogLinearHistogram, MetricKey, Registry, TimeseriesSampler, SUB_BITS};

/// Names chosen so that name order and prefix relations both matter.
const NAMES: [&str; 6] = ["a", "a.b", "a.b.c", "a_b", "ab", "b.a"];

fn shards_from(values: &[u64], shards: usize) -> Vec<LogLinearHistogram> {
    let mut out: Vec<LogLinearHistogram> = (0..shards).map(|_| LogLinearHistogram::new()).collect();
    for (i, &v) in values.iter().enumerate() {
        out[i % shards].record(v);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_order_does_not_change_quantiles(
        values in prop::collection::vec(0u64..5_000_000, 1..400),
        perm_seed in 0u64..1_000,
    ) {
        let shards = shards_from(&values, 5);

        let mut forward = LogLinearHistogram::new();
        for s in &shards {
            forward.merge(s);
        }

        // A deterministic permutation of the shard order derived from the seed.
        let mut order: Vec<usize> = (0..shards.len()).collect();
        let mut s = perm_seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut permuted = LogLinearHistogram::new();
        for &i in &order {
            permuted.merge(&shards[i]);
        }

        prop_assert_eq!(&forward, &permuted);
        prop_assert_eq!(forward.p50(), permuted.p50());
        prop_assert_eq!(forward.p99(), permuted.p99());
        prop_assert_eq!(forward.p999(), permuted.p999());

        // Merged shards equal one histogram that saw every value directly.
        let mut single = LogLinearHistogram::new();
        for &v in &values {
            single.record(v);
        }
        prop_assert_eq!(&forward, &single);
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_bucket_error(
        values in prop::collection::vec(1u64..10_000_000, 10..300),
    ) {
        let mut h = LogLinearHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let tol = 1.0 / (1u64 << SUB_BITS) as f64;
        for q in [0.5, 0.9, 0.99] {
            let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            prop_assert!(
                (got - exact).abs() <= exact * tol + 1.0,
                "q={}: got {}, exact {}", q, got, exact
            );
        }
    }

    #[test]
    fn registry_merge_is_order_independent(
        values in prop::collection::vec(0u64..100_000, 1..200),
    ) {
        let mk = |chunk: &[u64]| {
            let mut r = Registry::new();
            for &v in chunk {
                r.counter_add("t.prop.count", None, 1);
                r.observe("t.prop.lat_us", Some((v % 4) as usize), v);
                r.gauge_max("t.prop.peak", None, v as f64);
            }
            r
        };
        let mid = values.len() / 2;
        let (a, b) = (mk(&values[..mid]), mk(&values[mid..]));
        let mut ab = Registry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Registry::new();
        ba.merge(&b);
        ba.merge(&a);
        prop_assert_eq!(ab.prometheus_text(), ba.prometheus_text());
    }

    /// Timeseries shards merged in any permutation render byte-identical
    /// `series()` and timestamped Prometheus text — the property the lab's
    /// `--threads` byte-identity guarantee rests on.
    #[test]
    fn timeseries_merge_is_order_independent(
        events in prop::collection::vec((0u64..8_000_000, 0u64..500, 0u64..100_000), 1..200),
        perm_seed in 0u64..1_000,
    ) {
        // Shard the (timestamp, counter delta, histogram value) events
        // round-robin; each shard replays its slice in time order through
        // its own registry + sampler, ticking at every event.
        let mk = |chunk: &[(u64, u64, u64)]| {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            let mut reg = Registry::new();
            let mut s = TimeseriesSampler::new(1_000_000);
            for &(ts, delta, v) in &sorted {
                s.tick(ts, &reg);
                reg.counter_add("p.ops", None, delta);
                reg.observe("p.lat_us", Some((v % 3) as usize), v);
                reg.gauge_set("p.depth", None, (delta % 17) as f64);
            }
            s.tick(8_000_000, &reg);
            s.finish()
        };
        let shards: Vec<telemetry::Timeseries> = (0..4)
            .map(|i| mk(&events.iter().copied().skip(i).step_by(4).collect::<Vec<_>>()))
            .collect();

        let mut forward = telemetry::Timeseries::new(1_000_000);
        for s in &shards {
            forward.merge(s);
        }

        let mut order: Vec<usize> = (0..shards.len()).collect();
        let mut s = perm_seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut permuted = telemetry::Timeseries::new(1_000_000);
        for &i in &order {
            permuted.merge(&shards[i]);
        }

        prop_assert_eq!(&forward, &permuted);
        prop_assert_eq!(forward.series(), permuted.series());
        prop_assert_eq!(forward.prometheus_text(), permuted.prometheus_text());

        // Counter mass is conserved: window deltas sum to the total offered.
        let total: u64 = events.iter().map(|&(_, d, _)| d).sum();
        let windowed: f64 = forward.series().get("ts.p.ops.delta")
            .map(|pts| pts.iter().map(|&(_, v)| v).sum())
            .unwrap_or(0.0);
        prop_assert_eq!(windowed as u64, total);
    }

    /// The record path finds its key through a borrowed `(&str, replica)`
    /// view; the map itself is ordered by `MetricKey`. Whatever the
    /// interleaving of calls, the result must be what building a `MetricKey`
    /// and inserting through `entry` on every call gives — modelled here on
    /// plain `BTreeMap<MetricKey, _>`s and rendered by merging one-key
    /// registries, a path that places keys by `MetricKey`'s own order only.
    #[test]
    fn borrowed_key_lookup_matches_insert_always(
        ops in prop::collection::vec((0u8..4, 0usize..NAMES.len(), 0usize..4, 0u64..2_000), 0..300),
    ) {
        let mut reg = Registry::new();
        let mut counters: BTreeMap<MetricKey, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<MetricKey, f64> = BTreeMap::new();
        let mut hists: BTreeMap<MetricKey, Vec<u64>> = BTreeMap::new();
        for &(kind, name, replica, v) in &ops {
            let (name, replica) = (NAMES[name], replica.checked_sub(1));
            let key = MetricKey { name: name.to_string(), replica };
            match kind {
                0 => {
                    reg.counter_add(name, replica, v);
                    *counters.entry(key).or_insert(0) += v;
                }
                1 => {
                    reg.gauge_set(name, replica, v as f64);
                    gauges.insert(key, v as f64);
                }
                2 => {
                    reg.gauge_max(name, replica, v as f64);
                    let g = gauges.entry(key).or_insert(f64::MIN);
                    *g = g.max(v as f64);
                }
                _ => {
                    reg.observe(name, replica, v);
                    hists.entry(key).or_default().push(v);
                }
            }
        }
        let mut expected = Registry::new();
        for (k, &v) in &counters {
            let mut one = Registry::new();
            one.counter_add(&k.name, k.replica, v);
            expected.merge(&one);
            prop_assert_eq!(reg.counter(&k.name, k.replica), v);
        }
        for (k, &v) in &gauges {
            let mut one = Registry::new();
            one.gauge_set(&k.name, k.replica, v);
            expected.merge(&one);
            prop_assert_eq!(reg.gauge(&k.name, k.replica), Some(v));
        }
        for (k, values) in &hists {
            let mut one = Registry::new();
            for &v in values {
                one.observe(&k.name, k.replica, v);
            }
            expected.merge(&one);
            prop_assert_eq!(
                reg.histogram(&k.name, k.replica).map(|h| h.count()),
                Some(values.len() as u64)
            );
        }
        prop_assert_eq!(reg.prometheus_text(), expected.prometheus_text());
        prop_assert_eq!(reg.counter("a.b.d", None), 0);
        prop_assert_eq!(reg.gauge("a", Some(9)), None);
    }
}

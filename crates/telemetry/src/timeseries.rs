//! Windowed time-series telemetry: how the registry's metrics *evolved*
//! over a run, not just where they ended.
//!
//! A [`TimeseriesSampler`] is ticked on a fixed cadence — simulated time at
//! netsim second boundaries, wall-clock time in the real-cluster runtime —
//! and closes one [`WindowSample`] per elapsed window: per-name counter
//! deltas, latest gauge values, and histogram increments (count and sum of
//! the new observations). Names are aggregated across replica labels at
//! snapshot time (counters sum, gauges max, histogram counts/sums add), so
//! a window is a pure function of registry contents at its two boundary
//! snapshots: merge-order independent and byte-identical across sweep
//! worker counts, like everything else in this crate.
//!
//! The closed windows drain two ways: [`Timeseries::series`] yields
//! `ts.<name>.<suffix>` series in the lab's `(t_secs, value)` cell-series
//! shape (landing verbatim in `BENCH_*.json`), and
//! [`Timeseries::prometheus_text`] renders timestamped exposition lines for
//! offline ingestion.

use crate::metrics::Registry;
use std::collections::BTreeMap;

/// Point-in-time aggregate of a registry, names collapsed across replicas.
#[derive(Debug, Clone, Default)]
struct Snapshot {
    /// name → counter sum across replicas.
    counters: BTreeMap<String, u64>,
    /// name → gauge max across replicas.
    gauges: BTreeMap<String, f64>,
    /// name → (observation count, observation sum) across replicas.
    hists: BTreeMap<String, (u64, u128)>,
}

impl Snapshot {
    fn of(reg: &Registry) -> Self {
        let mut s = Snapshot::default();
        for (k, v) in reg.counters() {
            *s.counters.entry(k.name.clone()).or_insert(0) += v;
        }
        for (k, v) in reg.gauges() {
            let e = s.gauges.entry(k.name.clone()).or_insert(f64::MIN);
            if v > *e {
                *e = v;
            }
        }
        for (k, h) in reg.histograms() {
            let e = s.hists.entry(k.name.clone()).or_insert((0, 0));
            e.0 += h.count();
            e.1 += h.sum();
        }
        s
    }
}

/// One closed window: what changed between two boundary snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSample {
    /// name → counter increment within the window. Dense: every counter
    /// known at window close appears, zero increments included, so drained
    /// series have a point per window from a metric's first appearance.
    pub counters: BTreeMap<String, u64>,
    /// name → gauge value at window close.
    pub gauges: BTreeMap<String, f64>,
    /// name → (new observations, their sum) within the window.
    pub hists: BTreeMap<String, (u64, u128)>,
}

impl WindowSample {
    fn delta(cur: &Snapshot, basis: &Snapshot) -> Self {
        let mut w = WindowSample::default();
        for (name, &v) in &cur.counters {
            let before = basis.counters.get(name).copied().unwrap_or(0);
            w.counters.insert(name.clone(), v.saturating_sub(before));
        }
        w.gauges = cur.gauges.clone();
        for (name, &(c, s)) in &cur.hists {
            let (bc, bs) = basis.hists.get(name).copied().unwrap_or((0, 0));
            w.hists
                .insert(name.clone(), (c.saturating_sub(bc), s.saturating_sub(bs)));
        }
        w
    }

    /// A quiet window closed with no registry change since `basis`: zero
    /// increments, gauges carried forward.
    fn quiet(basis: &Snapshot) -> Self {
        let mut w = WindowSample::default();
        for name in basis.counters.keys() {
            w.counters.insert(name.clone(), 0);
        }
        w.gauges = basis.gauges.clone();
        for name in basis.hists.keys() {
            w.hists.insert(name.clone(), (0, 0));
        }
        w
    }

    /// Fold another shard's view of the same window in: increments add,
    /// gauges take the max — commutative, so shards merge in any order.
    fn merge(&mut self, other: &WindowSample) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            let e = self.gauges.entry(name.clone()).or_insert(f64::MIN);
            if v > *e {
                *e = v;
            }
        }
        for (name, &(c, s)) in &other.hists {
            let e = self.hists.entry(name.clone()).or_insert((0, 0));
            e.0 += c;
            e.1 += s;
        }
    }
}

/// The closed windows of one run (or one merged set of runs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeseries {
    window_us: u64,
    /// window index → sample; window `w` covers `[w·window_us, (w+1)·window_us)`.
    windows: BTreeMap<u64, WindowSample>,
}

impl Timeseries {
    /// An empty series with the given window length (µs).
    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0, "window length must be positive");
        Timeseries {
            window_us,
            windows: BTreeMap::new(),
        }
    }

    /// Window length, microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Number of closed windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no window has closed.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The closed windows, ascending by index.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &WindowSample)> + '_ {
        self.windows.iter().map(|(&w, s)| (w, s))
    }

    /// Fold another timeseries in, window-wise. Window lengths must match.
    pub fn merge(&mut self, other: &Timeseries) {
        if other.windows.is_empty() {
            return;
        }
        assert_eq!(
            self.window_us, other.window_us,
            "cannot merge timeseries with different window lengths"
        );
        for (&w, s) in &other.windows {
            self.windows.entry(w).or_default().merge(s);
        }
    }

    /// Drain into named `(t_secs, value)` series — the lab's cell-series
    /// shape. Timestamps are window *end* instants in seconds. Names follow
    /// the `ts.<metric>.<suffix>` convention:
    ///
    /// - `ts.<counter>.delta` — increment within the window
    /// - `ts.<gauge>.value`   — value at window close
    /// - `ts.<hist>.count`    — observations within the window
    /// - `ts.<hist>.mean`     — their mean, native units (0 when none)
    pub fn series(&self) -> BTreeMap<String, Vec<(f64, f64)>> {
        let mut out: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for (&w, sample) in &self.windows {
            let t = ((w + 1) * self.window_us) as f64 / 1e6;
            for (name, &v) in &sample.counters {
                out.entry(format!("ts.{name}.delta"))
                    .or_default()
                    .push((t, v as f64));
            }
            for (name, &v) in &sample.gauges {
                out.entry(format!("ts.{name}.value"))
                    .or_default()
                    .push((t, v));
            }
            for (name, &(c, s)) in &sample.hists {
                out.entry(format!("ts.{name}.count"))
                    .or_default()
                    .push((t, c as f64));
                let mean = if c == 0 { 0.0 } else { s as f64 / c as f64 };
                out.entry(format!("ts.{name}.mean"))
                    .or_default()
                    .push((t, mean));
            }
        }
        out
    }

    /// Render as timestamped Prometheus exposition lines (one gauge family
    /// per series, one sample per window, millisecond timestamps) for
    /// offline ingestion of a finished run.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, points) in self.series() {
            let family = name.replace('.', "_");
            out.push_str(&format!(
                "# HELP {family} windowed series {name} ({} ms windows)\n# TYPE {family} gauge\n",
                self.window_us / 1_000
            ));
            for (t, v) in points {
                out.push_str(&format!("{family} {v} {}\n", (t * 1e3) as u64));
            }
        }
        out
    }
}

/// Closes [`WindowSample`]s from registry snapshots on a fixed cadence.
///
/// `tick(now_us, registry)` is cheap when no window boundary has passed (one
/// comparison); at each boundary it snapshots the registry once and closes
/// every elapsed window — the first gets the delta, the rest (a quiet run
/// skipping whole windows between events) close with zero increments.
#[derive(Debug, Clone)]
pub struct TimeseriesSampler {
    next_window: u64,
    basis: Snapshot,
    out: Timeseries,
}

impl TimeseriesSampler {
    /// A sampler with the given window length (µs), starting at t = 0 with
    /// an empty basis snapshot.
    pub fn new(window_us: u64) -> Self {
        TimeseriesSampler {
            next_window: 0,
            basis: Snapshot::default(),
            out: Timeseries::new(window_us),
        }
    }

    /// Advance to `now_us`, closing every window that fully elapsed. Called
    /// with monotone timestamps; a stale `now_us` is a no-op.
    pub fn tick(&mut self, now_us: u64, reg: &Registry) {
        let window_us = self.out.window_us;
        if now_us / window_us <= self.next_window {
            return;
        }
        let mut fresh = true;
        while (self.next_window + 1).saturating_mul(window_us) <= now_us {
            let sample = if fresh {
                fresh = false;
                let cur = Snapshot::of(reg);
                let s = WindowSample::delta(&cur, &self.basis);
                self.basis = cur;
                s
            } else {
                WindowSample::quiet(&self.basis)
            };
            self.out.windows.insert(self.next_window, sample);
            self.next_window += 1;
        }
    }

    /// The windows closed so far.
    pub fn timeseries(&self) -> &Timeseries {
        &self.out
    }

    /// Consume the sampler, yielding its closed windows.
    pub fn finish(self) -> Timeseries {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_close_on_cadence_with_per_window_deltas() {
        let mut reg = Registry::new();
        let mut s = TimeseriesSampler::new(1_000_000);
        reg.counter_add("q.committed", Some(0), 5);
        reg.counter_add("q.committed", Some(1), 2);
        reg.gauge_set("q.depth", None, 3.0);
        reg.observe("q.lat_us", None, 100);
        s.tick(500_000, &reg); // mid-window: nothing closes
        assert!(s.timeseries().is_empty());
        s.tick(1_000_000, &reg); // window 0 closes
        reg.counter_add("q.committed", Some(0), 10);
        reg.gauge_set("q.depth", None, 1.5);
        reg.observe("q.lat_us", None, 300);
        reg.observe("q.lat_us", None, 500);
        s.tick(2_250_000, &reg); // window 1 closes
        let ts = s.timeseries();
        assert_eq!(ts.len(), 2);
        let series = ts.series();
        assert_eq!(
            series["ts.q.committed.delta"],
            vec![(1.0, 7.0), (2.0, 10.0)],
            "replica-summed counter increments per window"
        );
        assert_eq!(series["ts.q.depth.value"], vec![(1.0, 3.0), (2.0, 1.5)]);
        assert_eq!(series["ts.q.lat_us.count"], vec![(1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(series["ts.q.lat_us.mean"], vec![(1.0, 100.0), (2.0, 400.0)]);
    }

    #[test]
    fn quiet_gaps_close_zero_delta_windows() {
        let mut reg = Registry::new();
        let mut s = TimeseriesSampler::new(1_000_000);
        reg.counter_add("c.n", None, 4);
        // Time jumps straight past windows 0..=3.
        s.tick(4_200_000, &reg);
        let series = s.timeseries().series();
        assert_eq!(
            series["ts.c.n.delta"],
            vec![(1.0, 4.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)],
            "first elapsed window takes the delta, the rest are dense zeros"
        );
        // A stale / repeated timestamp is a no-op.
        s.tick(4_200_000, &reg);
        s.tick(3_000_000, &reg);
        assert_eq!(s.timeseries().len(), 4);
    }

    #[test]
    fn merge_is_order_independent_and_matches_single_recording() {
        // Three shards over the same two windows with disjoint counter work.
        let shard = |base: u64| {
            let mut reg = Registry::new();
            let mut s = TimeseriesSampler::new(1_000_000);
            reg.counter_add("w.ops", Some(base as usize), base + 1);
            reg.observe("w.us", None, 10 * (base + 1));
            s.tick(1_000_000, &reg);
            reg.counter_add("w.ops", Some(base as usize), 100);
            s.tick(2_000_000, &reg);
            s.finish()
        };
        let shards: Vec<Timeseries> = (0..3).map(shard).collect();
        let mut fwd = Timeseries::new(1_000_000);
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = Timeseries::new(1_000_000);
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.prometheus_text(), rev.prometheus_text());
        assert_eq!(
            fwd.series()["ts.w.ops.delta"],
            vec![(1.0, 6.0), (2.0, 300.0)]
        );
    }

    #[test]
    fn prometheus_text_is_timestamped_and_typed() {
        let mut reg = Registry::new();
        let mut s = TimeseriesSampler::new(500_000);
        reg.counter_add("a.b", None, 3);
        s.tick(500_000, &reg);
        s.tick(1_000_000, &reg);
        let text = s.timeseries().prometheus_text();
        assert!(text.contains("# TYPE ts_a_b_delta gauge"));
        assert!(text.contains("ts_a_b_delta 3 500\n"));
        assert!(text.contains("ts_a_b_delta 0 1000\n"));
    }
}

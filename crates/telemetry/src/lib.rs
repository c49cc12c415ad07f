//! Telemetry for the OptiLog reproduction: causal commit traces, a
//! per-run metrics registry, and engine profiling hooks.
//!
//! The crate is dependency-free and time-agnostic: callers pass simulated
//! microseconds as plain `u64`s, so the same API serves the deterministic
//! simulator today and a wall-clock `deployd` runtime later. A [`Telemetry`]
//! handle is a cheap clone around `Option<Arc<..>>`:
//!
//! - [`Telemetry::disabled`] — every call is an inlined no-op on a `None`;
//!   this is the zero-cost path `bench_engine` gates at <2% overhead.
//! - [`Telemetry::recording`] — metrics registry only. The lab installs this
//!   on *every* cell so registry-derived metrics are identical whether or
//!   not a trace is being captured.
//! - [`Telemetry::tracing`] — registry plus a [`TraceSink`] capturing span
//!   events for Chrome/Perfetto export.
//!
//! Metric names follow `crate.subsystem.name` (dots, ascii); replica-scoped
//! metrics carry the replica id as a label, and histograms are log-linear so
//! per-replica shards merge in any order to identical quantiles. The
//! metrics every consensus family publishes alike ([`CommitMetrics`],
//! [`Surface`]) are named once, in one table.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

mod critical_path;
mod fingerprint;
mod hist;
mod metrics;
mod names;
mod timeseries;
mod trace;

pub use critical_path::{attribute, BreakdownRow, CommandPath, LatencyBreakdown, Phase};
pub use fingerprint::{chain48, fingerprint48, FINGERPRINT_BITS};
pub use hist::{LogLinearHistogram, SUB_BITS};
pub use metrics::{escape_label_value, MetricKey, Registry};
pub use names::{
    CommitMetrics, Surface, HOTSTUFF_COMMITS, HOTSTUFF_SURFACE, KAURI_COMMITS,
    KAURI_CONFIG_SURFACE, PBFT_COMMITS, PBFT_SURFACE, SURFACES,
};
pub use timeseries::{Timeseries, TimeseriesSampler, WindowSample};
pub use trace::{Stage, TraceEvent, TraceId, TraceSink, CLIENTS_PID};

use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Inner {
    registry: Mutex<Registry>,
    sink: Option<Mutex<TraceSink>>,
    /// Windowed sampler, installed on demand. Lock order: sampler before
    /// registry (the tick holds both).
    sampler: Mutex<Option<TimeseriesSampler>>,
}

/// A cloneable telemetry handle. `None` inside means fully disabled; all
/// record paths check that one `Option` and return immediately.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// A run description that carries the telemetry handle its replicas record
/// into. The runtime-agnostic runners read the handle through this trait —
/// to tick its sampler on their clock and drain their own engine metrics
/// into the same registry — without knowing which protocol configuration
/// they were handed.
pub trait Instrumented {
    /// The handle installed on every replica of the run.
    fn telemetry(&self) -> &Telemetry;
}

impl Telemetry {
    /// The no-op handle: nothing is recorded, every call is a branch on a
    /// `None` and a return.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Registry-only recording (counters, gauges, histograms) — no trace
    /// sink, so span events are dropped at the same `is_tracing` branch a
    /// traced run takes.
    pub fn recording() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Mutex::new(Registry::new()),
                sink: None,
                sampler: Mutex::new(None),
            })),
        }
    }

    /// Registry plus trace capture (unbounded sink — the sim-sweep default,
    /// so Perfetto exports carry every span).
    pub fn tracing() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Mutex::new(Registry::new()),
                sink: Some(Mutex::new(TraceSink::new())),
                sampler: Mutex::new(None),
            })),
        }
    }

    /// Registry plus a ring-buffered trace sink retaining the most recent
    /// `capacity` events — the flight-recorder mode for long real-clock
    /// runs, where an unbounded sink would grow without limit. Evictions
    /// are counted in the `telemetry.trace.evicted` counter.
    pub fn tracing_with_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Mutex::new(Registry::new()),
                sink: Some(Mutex::new(TraceSink::with_capacity(capacity))),
                sampler: Mutex::new(None),
            })),
        }
    }

    /// True when any recording (registry or trace) is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when a trace sink is installed.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.sink.is_some())
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn counter_add(&self, name: &str, replica: Option<usize>, delta: u64) {
        if let Some(i) = &self.inner {
            i.registry.lock().unwrap().counter_add(name, replica, delta);
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge_set(&self, name: &str, replica: Option<usize>, v: f64) {
        if let Some(i) = &self.inner {
            i.registry.lock().unwrap().gauge_set(name, replica, v);
        }
    }

    /// Raise a high-water-mark gauge.
    #[inline]
    pub fn gauge_max(&self, name: &str, replica: Option<usize>, v: f64) {
        if let Some(i) = &self.inner {
            i.registry.lock().unwrap().gauge_max(name, replica, v);
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, name: &str, replica: Option<usize>, v: u64) {
        if let Some(i) = &self.inner {
            i.registry.lock().unwrap().observe(name, replica, v);
        }
    }

    /// Record a span event (`dur_us > 0`) into the trace, if tracing. The
    /// arguments are copied into the event only under a sink, so a call
    /// that records nothing allocates nothing.
    #[inline]
    pub fn span(
        &self,
        stage: Stage,
        pid: usize,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: &[(&'static str, f64)],
    ) {
        if let Some(i) = &self.inner {
            if let Some(sink) = &i.sink {
                let dropped = sink.lock().unwrap().record(TraceEvent {
                    stage,
                    pid,
                    tid,
                    ts_us,
                    dur_us,
                    args: args.to_vec(),
                });
                // Ring eviction is visible in the registry; lock order is
                // sink before registry (never the reverse anywhere).
                if dropped > 0 {
                    i.registry.lock().unwrap().counter_add(
                        "telemetry.trace.evicted",
                        None,
                        dropped,
                    );
                }
            }
        }
    }

    /// Record an instant event into the trace, if tracing.
    #[inline]
    pub fn instant(
        &self,
        stage: Stage,
        pid: usize,
        tid: u64,
        ts_us: u64,
        args: &[(&'static str, f64)],
    ) {
        self.span(stage, pid, tid, ts_us, 0, args);
    }

    /// Run `f` against the registry (no-op when disabled). Batched hot-path
    /// recording goes through this to take the lock once.
    #[inline]
    pub fn with_registry<F: FnOnce(&mut Registry)>(&self, f: F) {
        if let Some(i) = &self.inner {
            f(&mut i.registry.lock().unwrap());
        }
    }

    /// A snapshot clone of the registry (empty when disabled).
    pub fn registry_snapshot(&self) -> Registry {
        match &self.inner {
            Some(i) => i.registry.lock().unwrap().clone(),
            None => Registry::new(),
        }
    }

    /// Events recorded per stage name (empty when not tracing).
    pub fn stage_counts(&self) -> std::collections::BTreeMap<&'static str, u64> {
        match &self.inner {
            Some(i) => match &i.sink {
                Some(s) => s.lock().unwrap().stage_counts(),
                None => Default::default(),
            },
            None => Default::default(),
        }
    }

    /// Export the captured trace as Chrome `trace_event` JSON. `None` when
    /// not tracing.
    pub fn chrome_trace_json(&self, process_labels: &[(usize, String)]) -> Option<String> {
        let i = self.inner.as_ref()?;
        let sink = i.sink.as_ref()?;
        Some(sink.lock().unwrap().chrome_trace_json(process_labels))
    }

    /// Run `f` over the raw recorded trace events (critical-path attribution
    /// reads them without cloning the sink). `None` when not tracing.
    pub fn with_trace_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> Option<R> {
        let i = self.inner.as_ref()?;
        let sink = i.sink.as_ref()?;
        Some(f(sink.lock().unwrap().events()))
    }

    /// Attribute every committed command's e2e latency from the captured
    /// trace (empty when not tracing).
    pub fn command_paths(&self) -> Vec<CommandPath> {
        self.with_trace_events(attribute).unwrap_or_default()
    }

    /// Install (or replace) the windowed time-series sampler. Windows close
    /// at subsequent [`Telemetry::tick_timeseries`] calls. No-op when the
    /// handle is disabled.
    pub fn install_timeseries(&self, window_us: u64) {
        if let Some(i) = &self.inner {
            *i.sampler.lock().unwrap() = Some(TimeseriesSampler::new(window_us));
        }
    }

    /// Advance the sampler to `now_us`, closing every fully elapsed window.
    /// Cheap when no boundary passed; a no-op when disabled or no sampler is
    /// installed.
    #[inline]
    pub fn tick_timeseries(&self, now_us: u64) {
        if let Some(i) = &self.inner {
            let mut sampler = i.sampler.lock().unwrap();
            if let Some(s) = sampler.as_mut() {
                s.tick(now_us, &i.registry.lock().unwrap());
            }
        }
    }

    /// A snapshot of the windows closed so far (`None` when disabled or no
    /// sampler is installed).
    pub fn timeseries_snapshot(&self) -> Option<Timeseries> {
        let i = self.inner.as_ref()?;
        i.sampler
            .lock()
            .unwrap()
            .as_ref()
            .map(|s| s.timeseries().clone())
    }

    /// The registry rendered in Prometheus text format (empty when
    /// disabled).
    pub fn prometheus_text(&self) -> String {
        match &self.inner {
            Some(i) => i.registry.lock().unwrap().prometheus_text(),
            None => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_drops_everything() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(!t.is_tracing());
        t.counter_add("a.b.c", None, 1);
        t.observe("a.b.h", Some(0), 10);
        t.span(Stage::Commit, 0, 1, 0, 5, &[]);
        assert!(t.registry_snapshot().is_empty());
        assert_eq!(t.chrome_trace_json(&[]), None);
        assert_eq!(t.prometheus_text(), "");
    }

    #[test]
    fn recording_keeps_metrics_but_drops_spans() {
        let t = Telemetry::recording();
        assert!(t.is_enabled());
        assert!(!t.is_tracing());
        t.counter_add("a.b.c", Some(2), 3);
        t.span(Stage::Commit, 0, 1, 0, 5, &[]);
        assert_eq!(t.registry_snapshot().counter("a.b.c", Some(2)), 3);
        assert!(t.stage_counts().is_empty());
        assert_eq!(t.chrome_trace_json(&[]), None);
    }

    #[test]
    fn tracing_captures_both_and_clones_share_state() {
        let t = Telemetry::tracing();
        let t2 = t.clone();
        t.span(Stage::Propose, 1, 9, 100, 0, &[]);
        t2.span(Stage::Commit, 1, 9, 100, 400, &[("commands", 8.0)]);
        t2.counter_add("x.y.z", None, 1);
        assert_eq!(t.stage_counts()["propose"], 1);
        assert_eq!(t.stage_counts()["commit"], 1);
        assert_eq!(t.registry_snapshot().counter("x.y.z", None), 1);
        let json = t.chrome_trace_json(&[(1, "replica 1".into())]).unwrap();
        assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn sampler_ticks_through_the_handle() {
        let t = Telemetry::recording();
        assert_eq!(t.timeseries_snapshot(), None, "no sampler installed yet");
        t.tick_timeseries(5_000_000); // no sampler: no-op
        t.install_timeseries(1_000_000);
        t.counter_add("x.ops", None, 3);
        t.tick_timeseries(1_000_000);
        t.counter_add("x.ops", None, 4);
        t.tick_timeseries(2_000_000);
        let ts = t.timeseries_snapshot().unwrap();
        assert_eq!(ts.series()["ts.x.ops.delta"], vec![(1.0, 3.0), (2.0, 4.0)]);
        // Disabled handles ignore the whole sampler API.
        let d = Telemetry::disabled();
        d.install_timeseries(1_000_000);
        d.tick_timeseries(9_000_000);
        assert_eq!(d.timeseries_snapshot(), None);
    }

    #[test]
    fn capacity_handle_counts_evictions_in_the_registry() {
        let t = Telemetry::tracing_with_capacity(2);
        for tid in 0..5 {
            t.instant(Stage::Vote, 0, tid, tid * 10, &[]);
        }
        assert_eq!(t.stage_counts()["vote"], 2, "ring retains capacity events");
        assert_eq!(
            t.registry_snapshot()
                .counter("telemetry.trace.evicted", None),
            3
        );
        // Retained events are the most recent ones.
        let tids = t.with_trace_events(|evs| evs.iter().map(|e| e.tid).collect::<Vec<_>>());
        assert_eq!(tids, Some(vec![3, 4]));
        // Unbounded tracing never touches the eviction counter.
        let unbounded = Telemetry::tracing();
        for tid in 0..5 {
            unbounded.instant(Stage::Vote, 0, tid, tid * 10, &[]);
        }
        assert_eq!(
            unbounded
                .registry_snapshot()
                .counter("telemetry.trace.evicted", None),
            0
        );
    }

    #[test]
    fn command_paths_come_from_the_trace() {
        let t = Telemetry::tracing();
        t.span(Stage::ClientEmit, CLIENTS_PID, 0, 0, 1_000, &[]);
        t.span(Stage::Admission, CLIENTS_PID, 0, 1_000, 500, &[]);
        t.instant(Stage::Propose, 0, 3, 2_000, &[]);
        t.span(Stage::Reply, CLIENTS_PID, 0, 9_000, 400, &[("view", 3.0)]);
        let paths = t.command_paths();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].view, Some(3));
        assert_eq!(paths[0].e2e_us, 9_000 + 400);
        assert!(Telemetry::recording().command_paths().is_empty());
    }

    #[test]
    fn registry_recording_is_identical_with_and_without_tracing() {
        let record = |t: &Telemetry| {
            t.counter_add("s.n.commits", Some(0), 4);
            t.observe("s.n.lat_us", Some(1), 12_345);
            t.gauge_max("s.n.depth", None, 7.0);
            t.span(Stage::Commit, 0, 1, 10, 20, &[]);
        };
        let rec = Telemetry::recording();
        let tra = Telemetry::tracing();
        record(&rec);
        record(&tra);
        assert_eq!(
            rec.registry_snapshot().prometheus_text(),
            tra.registry_snapshot().prometheus_text()
        );
    }
}

//! The crash-dump flight recorder: a bounded window onto a run's recent
//! past, flushed to disk when something goes wrong.
//!
//! While a run is healthy the recorder costs only what the telemetry ring
//! already pays: the [`telemetry::Telemetry`] handle it wraps keeps a
//! capacity-bounded ring of recent [`telemetry::TraceEvent`]s (see
//! [`telemetry::Telemetry::tracing_with_capacity`]) and the timeseries
//! sampler keeps closed windows. On an oracle violation, SIGTERM, panic, or
//! failed sweep cell, [`FlightRecorder::dump`] snapshots both into two
//! files:
//!
//! - `flight-<reason>.trace.json` — the trace ring in Chrome/Perfetto JSON
//!   (load directly into `ui.perfetto.dev`);
//! - `flight-<reason>.report.json` — the oracle report, the last K closed
//!   time-series windows, and the full Prometheus exposition at dump time.
//!
//! Dumping reads snapshots only — it never blocks or mutates the run it is
//! recording, so it is safe from signal-handling and panic paths.

use crate::AuditReport;
use serde::{Number, Value};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use telemetry::Telemetry;

/// Closed time-series windows retained in a dump by default.
pub const DEFAULT_WINDOWS: usize = 64;

/// A handle that can flush a run's recent telemetry to disk on demand.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    telemetry: Telemetry,
    dir: PathBuf,
    windows: usize,
    process_labels: Vec<(usize, String)>,
}

impl FlightRecorder {
    /// A recorder dumping into `dir` (created on first dump), keeping the
    /// last [`DEFAULT_WINDOWS`] closed windows.
    pub fn new(telemetry: Telemetry, dir: impl Into<PathBuf>) -> Self {
        FlightRecorder {
            telemetry,
            dir: dir.into(),
            windows: DEFAULT_WINDOWS,
            process_labels: Vec::new(),
        }
    }

    /// Keep the last `windows` closed time-series windows per dump.
    pub fn with_windows(mut self, windows: usize) -> Self {
        self.windows = windows;
        self
    }

    /// Label trace processes (replica id → name) in the Perfetto export.
    pub fn with_process_labels(mut self, labels: Vec<(usize, String)>) -> Self {
        self.process_labels = labels;
        self
    }

    /// The directory dumps land in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Flush the flight ring and oracle report to disk. `reason` becomes
    /// part of the file names (sanitised to `[a-z0-9_-]`), so distinct
    /// failure paths never clobber each other. Returns the report path.
    pub fn dump(&self, reason: &str, report: &AuditReport) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let slug = sanitize(reason);

        let trace_path = self.dir.join(format!("flight-{slug}.trace.json"));
        let trace = self
            .telemetry
            .chrome_trace_json(&self.process_labels)
            .unwrap_or_else(|| "{\"traceEvents\":[]}".to_string());
        write_atomic(&trace_path, trace.as_bytes())?;

        let report_path = self.dir.join(format!("flight-{slug}.report.json"));
        let doc = Value::Map(vec![
            ("reason".into(), Value::Str(reason.to_string())),
            ("audit".into(), report.to_value()),
            ("windows".into(), self.windows_value()),
            (
                "trace_evicted".into(),
                Value::Num(Number::U64(
                    self.telemetry
                        .registry_snapshot()
                        .counter("telemetry.trace.evicted", None),
                )),
            ),
            (
                "prometheus".into(),
                Value::Str(self.telemetry.prometheus_text()),
            ),
        ]);
        let json = serde_json::to_string(&doc).expect("flight report serializes");
        write_atomic(&report_path, json.as_bytes())?;
        Ok(report_path)
    }

    /// The last K closed windows as `[{window, end_s, counters, gauges}]`.
    fn windows_value(&self) -> Value {
        let Some(ts) = self.telemetry.timeseries_snapshot() else {
            return Value::Arr(Vec::new());
        };
        let total = ts.len();
        let skip = total.saturating_sub(self.windows);
        let window_us = ts.window_us();
        let rows = ts
            .windows()
            .skip(skip)
            .map(|(w, sample)| {
                let counters = sample
                    .counters
                    .iter()
                    .map(|(name, &v)| (name.clone(), Value::Num(Number::U64(v))))
                    .collect();
                let gauges = sample
                    .gauges
                    .iter()
                    .map(|(name, &v)| (name.clone(), Value::Num(Number::F64(v))))
                    .collect();
                Value::Map(vec![
                    ("window".into(), Value::Num(Number::U64(w))),
                    (
                        "end_s".into(),
                        Value::Num(Number::F64(((w + 1) * window_us) as f64 / 1e6)),
                    ),
                    ("counters".into(), Value::Map(counters)),
                    ("gauges".into(), Value::Map(gauges)),
                ])
            })
            .collect();
        Value::Arr(rows)
    }
}

fn sanitize(reason: &str) -> String {
    let slug: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if slug.is_empty() {
        "unknown".to_string()
    } else {
        slug
    }
}

/// Write via a temp file + rename so a dump interrupted mid-write (we are
/// often on a signal or panic path) never leaves a truncated JSON behind.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Auditor;
    use telemetry::Registry;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("audit-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dump_writes_perfetto_trace_and_report() {
        let t = Telemetry::tracing_with_capacity(16);
        t.instant(telemetry::Stage::Commit, 0, 1, 10, &[("view", 1.0)]);
        t.counter_add("traffic.queue.admitted", None, 5);
        t.install_timeseries(1_000);
        t.tick_timeseries(10_000);

        let mut a = Auditor::new();
        a.record_checkpoint("hotstuff", 0, 1, 0x1);
        a.record_checkpoint("hotstuff", 1, 1, 0x2);
        let report = a.into_report();

        let dir = tmpdir("basic");
        let rec = FlightRecorder::new(t, &dir).with_windows(4);
        let report_path = rec.dump("oracle violation!", &report).unwrap();
        assert!(report_path.ends_with("flight-oracle_violation_.report.json"));

        let report_json = std::fs::read_to_string(&report_path).unwrap();
        let doc = serde_json::from_str(&report_json).unwrap();
        let Value::Map(fields) = doc else {
            panic!("map")
        };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        assert!(matches!(get("reason"), Some(Value::Str(s)) if s == "oracle violation!"));
        assert!(matches!(get("audit"), Some(Value::Map(_))));
        let Some(Value::Arr(windows)) = get("windows") else {
            panic!("windows")
        };
        assert!(!windows.is_empty(), "closed windows captured");
        assert!(
            matches!(get("prometheus"), Some(Value::Str(s)) if s.contains("traffic_queue_admitted"))
        );

        let trace =
            std::fs::read_to_string(dir.join("flight-oracle_violation_.trace.json")).unwrap();
        let parsed = serde_json::from_str(&trace).unwrap();
        assert!(
            matches!(parsed, Value::Map(_)),
            "perfetto json is an object"
        );
        assert!(trace.contains("traceEvents"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_without_tracing_still_writes_loadable_files() {
        let t = Telemetry::recording();
        let dir = tmpdir("notrace");
        let rec = FlightRecorder::new(t, &dir);
        let report = Auditor::new().finish(&Registry::new());
        rec.dump("sigterm", &report).unwrap();
        let trace = std::fs::read_to_string(dir.join("flight-sigterm.trace.json")).unwrap();
        assert_eq!(trace, "{\"traceEvents\":[]}");
        let report_json = std::fs::read_to_string(dir.join("flight-sigterm.report.json")).unwrap();
        assert!(serde_json::from_str::<Value>(&report_json).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

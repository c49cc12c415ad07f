//! Structured experiment results: per-cell metrics, per-point percentile
//! aggregates, and the `BENCH_<scenario>.json` writer that starts the repo's
//! performance trajectory.
//!
//! All containers are ordered (`BTreeMap` / insertion-ordered vectors) and
//! all aggregation is a pure function of the cell results, so a report — and
//! its JSON rendering — is byte-identical for the same `ScenarioSpec` and
//! seeds regardless of how many worker threads produced the cells.

use serde::{Number, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub use rsm::timeline_mean;

/// Half-width of the 95% confidence interval of the mean.
pub fn ci95(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n as f64 - 1.0);
    1.96 * (var / n as f64).sqrt()
}

/// The metrics one cell (one point × one seed) produced: named scalar values
/// plus optional named time series.
#[derive(Debug, Clone, Default)]
pub struct CellMetrics {
    /// Named scalar metrics (ms, op/s, counts, bytes …).
    pub values: BTreeMap<String, f64>,
    /// Named time series, e.g. a per-second throughput timeline.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
}

impl CellMetrics {
    /// An empty cell result.
    pub fn new() -> Self {
        CellMetrics::default()
    }

    /// Record a scalar metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Record a time series.
    pub fn set_series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.insert(name.into(), points);
        self
    }
}

/// Percentile summary of one metric across the seeds of a point.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Mean across seeds.
    pub mean: f64,
    /// Half-width of the 95% confidence interval of the mean.
    pub ci95: f64,
    /// Minimum across seeds.
    pub min: f64,
    /// Median across seeds.
    pub p50: f64,
    /// Maximum across seeds.
    pub max: f64,
}

impl MetricSummary {
    /// Summarise a set of per-seed values.
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are not NaN"));
        let pick = |p: f64| {
            if sorted.is_empty() {
                0.0
            } else {
                sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
            }
        };
        MetricSummary {
            mean: mean(values),
            ci95: ci95(values),
            min: pick(0.0),
            p50: pick(0.5),
            max: pick(1.0),
        }
    }
}

/// One cell's contribution to a point report.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The seed that produced the cell.
    pub seed: u64,
    /// The cell's metrics.
    pub metrics: CellMetrics,
}

/// Aggregated results for one parameter point of the scenario grid.
#[derive(Debug, Clone)]
pub struct PointReport {
    /// Human-readable label, e.g. `OptiAware | Europe21`.
    pub label: String,
    /// The axis values that define the point (substrate, topology, …).
    pub params: BTreeMap<String, String>,
    /// Per-metric summaries across seeds.
    pub metrics: BTreeMap<String, MetricSummary>,
    /// The raw per-seed cells, in seed order.
    pub cells: Vec<CellReport>,
}

impl PointReport {
    /// Aggregate a point from its per-seed cells.
    pub fn aggregate(
        label: String,
        params: BTreeMap<String, String>,
        cells: Vec<CellReport>,
    ) -> Self {
        let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for cell in &cells {
            for (name, &v) in &cell.metrics.values {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
        let metrics = by_metric
            .into_iter()
            .map(|(name, vals)| (name, MetricSummary::of(&vals)))
            .collect();
        PointReport {
            label,
            params,
            metrics,
            cells,
        }
    }

    /// Mean of a metric across seeds (0.0 if absent).
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).map(|s| s.mean).unwrap_or(0.0)
    }
}

/// The full result of sweeping one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (`BENCH_<name>.json`).
    pub scenario: String,
    /// Seeds swept per point.
    pub seeds: Vec<u64>,
    /// One report per grid point, in grid order.
    pub points: Vec<PointReport>,
}

impl ScenarioReport {
    /// Look up a point by label.
    pub fn point(&self, label: &str) -> Option<&PointReport> {
        self.points.iter().find(|p| p.label == label)
    }

    /// Mean of `metric` at the point labelled `label` (0.0 if absent).
    pub fn metric(&self, label: &str, metric: &str) -> f64 {
        self.point(label).map(|p| p.metric(metric)).unwrap_or(0.0)
    }

    fn to_value(&self) -> Value {
        let num = |v: f64| Value::Num(Number::F64(v));
        let summary_value = |s: &MetricSummary| {
            Value::Map(vec![
                ("mean".into(), num(s.mean)),
                ("ci95".into(), num(s.ci95)),
                ("min".into(), num(s.min)),
                ("p50".into(), num(s.p50)),
                ("max".into(), num(s.max)),
            ])
        };
        let cell_value = |c: &CellReport| {
            let mut fields = vec![
                ("seed".into(), Value::Num(Number::U64(c.seed))),
                (
                    "metrics".into(),
                    Value::Map(
                        c.metrics
                            .values
                            .iter()
                            .map(|(k, &v)| (k.clone(), num(v)))
                            .collect(),
                    ),
                ),
            ];
            if !c.metrics.series.is_empty() {
                fields.push((
                    "series".into(),
                    Value::Map(
                        c.metrics
                            .series
                            .iter()
                            .map(|(k, pts)| {
                                (
                                    k.clone(),
                                    Value::Arr(
                                        pts.iter()
                                            .map(|&(t, v)| Value::Arr(vec![num(t), num(v)]))
                                            .collect(),
                                    ),
                                )
                            })
                            .collect(),
                    ),
                ));
            }
            Value::Map(fields)
        };
        let point_value = |p: &PointReport| {
            Value::Map(vec![
                ("label".into(), Value::Str(p.label.clone())),
                (
                    "params".into(),
                    Value::Map(
                        p.params
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                            .collect(),
                    ),
                ),
                (
                    "metrics".into(),
                    Value::Map(
                        p.metrics
                            .iter()
                            .map(|(k, s)| (k.clone(), summary_value(s)))
                            .collect(),
                    ),
                ),
                (
                    "cells".into(),
                    Value::Arr(p.cells.iter().map(cell_value).collect()),
                ),
            ])
        };
        Value::Map(vec![
            ("scenario".into(), Value::Str(self.scenario.clone())),
            (
                "seeds".into(),
                Value::Arr(
                    self.seeds
                        .iter()
                        .map(|&s| Value::Num(Number::U64(s)))
                        .collect(),
                ),
            ),
            (
                "points".into(),
                Value::Arr(self.points.iter().map(point_value).collect()),
            ),
        ])
    }

    /// Deterministic JSON rendering: ordered keys, stable float formatting.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("report serializes")
    }

    /// Write `BENCH_<scenario>.json` into `dir` and return the path.
    pub fn write_bench_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.scenario));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.write_all(b"\n")?;
        Ok(path)
    }

    /// Render a fixed-width table of the given metrics, one row per point.
    /// Metrics absent at a point render as `-`. When more than one seed was
    /// swept, values carry a `±ci95` suffix.
    pub fn render_table(&self, metrics: &[&str]) -> String {
        let label_w = self
            .points
            .iter()
            .map(|p| p.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let mut out = String::new();
        out.push_str(&format!("{:<label_w$}", "point"));
        for m in metrics {
            out.push_str(&format!(" {m:>18}"));
        }
        out.push('\n');
        let many = self.seeds.len() > 1;
        for p in &self.points {
            out.push_str(&format!("{:<label_w$}", p.label));
            for m in metrics {
                match p.metrics.get(*m) {
                    Some(s) if many && s.ci95 > 0.0 => {
                        out.push_str(&format!(" {:>11.1} ±{:<5.1}", s.mean, s.ci95))
                    }
                    Some(s) => out.push_str(&format!(" {:>18.1}", s.mean)),
                    None => out.push_str(&format!(" {:>18}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render the per-point critical-path breakdown tables (one block per
    /// point carrying `breakdown.*` metrics, produced by `--breakdown`
    /// sweeps). Values are means across seeds; `share` is each phase's
    /// fraction of total e2e time.
    pub fn render_breakdown_tables(&self) -> String {
        const PHASES: [&str; 7] = [
            "ingress",
            "admission",
            "hold",
            "dissem",
            "vote",
            "reply",
            "other",
        ];
        let mut out = String::new();
        for p in &self.points {
            if !p.metrics.keys().any(|k| k.starts_with("breakdown.")) {
                continue;
            }
            let commands = p.metrics.get("breakdown.commands").map_or(0.0, |s| s.mean);
            out.push_str(&format!(
                "\n# latency anatomy: {} ({commands:.0} commands)\n",
                p.label
            ));
            out.push_str(&format!(
                "{:<10} {:>10} {:>10} {:>10} {:>7}\n",
                "phase", "mean_ms", "p50_ms", "p99_ms", "share"
            ));
            for phase in PHASES {
                let get = |suffix: &str| {
                    p.metrics
                        .get(&format!("breakdown.{phase}.{suffix}"))
                        .map_or(0.0, |s| s.mean)
                };
                out.push_str(&format!(
                    "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>6.1}%\n",
                    phase,
                    get("mean_ms"),
                    get("p50_ms"),
                    get("p99_ms"),
                    get("share") * 100.0
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(seed: u64, v: f64) -> CellReport {
        let mut m = CellMetrics::new();
        m.set("latency_ms", v);
        CellReport { seed, metrics: m }
    }

    #[test]
    fn summary_percentiles() {
        let s = MetricSummary::of(&[30.0, 10.0, 20.0, 40.0, 50.0]);
        assert_eq!(s.mean, 30.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.p50, 30.0);
        assert_eq!(s.max, 50.0);
        assert!(s.ci95 > 0.0);
        let one = MetricSummary::of(&[5.0]);
        assert_eq!(one.mean, 5.0);
        assert_eq!(one.ci95, 0.0);
        let empty = MetricSummary::of(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn aggregate_groups_by_metric() {
        let p = PointReport::aggregate(
            "x".into(),
            BTreeMap::new(),
            vec![cell(0, 10.0), cell(1, 30.0)],
        );
        assert_eq!(p.metric("latency_ms"), 20.0);
        assert_eq!(p.metrics["latency_ms"].min, 10.0);
        assert_eq!(p.metric("missing"), 0.0);
    }

    #[test]
    fn json_is_deterministic_and_parseable() {
        let report = ScenarioReport {
            scenario: "unit".into(),
            seeds: vec![0, 1],
            points: vec![PointReport::aggregate(
                "a".into(),
                BTreeMap::from([("substrate".to_string(), "x".to_string())]),
                vec![cell(0, 1.5), cell(1, 2.5)],
            )],
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"scenario\":\"unit\""));
        // Round-trips through the vendored parser.
        let v: Value = serde_json::from_str(&a).expect("valid JSON");
        assert_eq!(v.kind(), "object");
    }

    #[test]
    fn series_appear_in_cells() {
        let mut m = CellMetrics::new();
        m.set("x", 1.0);
        m.set_series("throughput", vec![(0.0, 10.0), (1.0, 20.0)]);
        let p = PointReport::aggregate(
            "s".into(),
            BTreeMap::new(),
            vec![CellReport {
                seed: 3,
                metrics: m,
            }],
        );
        let report = ScenarioReport {
            scenario: "unit".into(),
            seeds: vec![3],
            points: vec![p],
        };
        assert!(report.to_json().contains("\"series\""));
    }

    #[test]
    fn table_renders_all_points() {
        let report = ScenarioReport {
            scenario: "unit".into(),
            seeds: vec![0],
            points: vec![
                PointReport::aggregate("alpha".into(), BTreeMap::new(), vec![cell(0, 1.0)]),
                PointReport::aggregate("beta".into(), BTreeMap::new(), vec![cell(0, 2.0)]),
            ],
        };
        let t = report.render_table(&["latency_ms", "absent"]);
        assert!(t.contains("alpha"));
        assert!(t.contains("beta"));
        assert!(t.contains('-'));
    }
}

//! The multi-threaded sweep runner and the shared experiment CLI.
//!
//! A sweep is the full cell grid (points × seeds) of one [`ScenarioSpec`].
//! Cells are independent pure functions, so the runner fans them across
//! `std::thread` workers pulling from a shared queue. Results are written
//! into per-cell slots keyed by grid index and aggregated in grid order, so
//! the report — and its JSON — is byte-identical for any worker count. The
//! execution *order* is deterministically shuffled for load balance (long
//! and short points interleave) without affecting the output.

use crate::results::{CellReport, PointReport, ScenarioReport};
use crate::scenario::ScenarioSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a sweep is executed and where results go.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (capped at the number of cells).
    pub threads: usize,
    /// Directory for `BENCH_<scenario>.json`; `None` skips the file.
    pub out_dir: Option<PathBuf>,
    /// Run one extra traced cell after the sweep and write its Chrome
    /// `trace_event` JSON here (plus a `.prom` metrics dump alongside).
    pub trace: Option<PathBuf>,
    /// Run every cell with a trace sink and attribute each committed
    /// command's e2e latency into phases: `breakdown.*` metrics join the
    /// cells (and the BENCH json), and the report prints a per-point phase
    /// table. Per-cell sinks are thread-independent, so the json stays
    /// byte-identical across `--threads`.
    pub breakdown: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            out_dir: Some(PathBuf::from(".")),
            trace: None,
            breakdown: false,
        }
    }
}

impl SweepOptions {
    /// Single-threaded, no JSON output (unit-test friendly).
    pub fn serial() -> Self {
        SweepOptions {
            threads: 1,
            out_dir: None,
            trace: None,
            breakdown: false,
        }
    }

    /// Override the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Run the full sweep and aggregate per-point reports.
pub fn run_sweep(spec: &ScenarioSpec, opts: &SweepOptions) -> ScenarioReport {
    let points = spec.points();
    let cells: Vec<(usize, u64)> = points
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| spec.seeds.iter().map(move |&s| (pi, s)))
        .collect();

    // Deterministic execution order, shuffled for load balance: expensive
    // points (large n, long runs) spread across workers instead of clumping
    // at one end of the queue. Results are keyed by cell index, so this
    // cannot affect the report.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(0x05ee_d1ab));

    let slots: Vec<Mutex<Option<CellReport>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Wall-clock-timed scenarios must not share cores between cells: the
    // contention would inflate the measured times themselves.
    let cap = if spec.wall_clock_timed() {
        1
    } else {
        cells.len().max(1)
    };
    let workers = opts.threads.clamp(1, cap);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&cell_idx) = order.get(k) else { break };
                let (pi, seed) = cells[cell_idx];
                // The cell's telemetry handle lives out here so a panicking
                // cell can still be flight-dumped: whatever the cell recorded
                // up to the failure goes to disk before the panic resumes.
                let telemetry = telemetry::Telemetry::recording();
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if opts.breakdown {
                        spec.run_cell_breakdown(&points[pi], seed)
                    } else {
                        spec.run_cell_with(&points[pi], seed, &telemetry)
                    }
                }));
                let metrics = match run {
                    Ok(metrics) => metrics,
                    Err(payload) => {
                        dump_failed_cell(&telemetry, opts, &points[pi].label, seed);
                        std::panic::resume_unwind(payload);
                    }
                };
                *slots[cell_idx].lock().expect("result slot poisoned") =
                    Some(CellReport { seed, metrics });
            });
        }
    });

    let mut collected: Vec<Option<CellReport>> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned"))
        .collect();
    let mut report_points = Vec::with_capacity(points.len());
    let mut it = collected.drain(..);
    for point in &points {
        let cells: Vec<CellReport> = spec
            .seeds
            .iter()
            .map(|_| it.next().flatten().expect("every cell ran"))
            .collect();
        report_points.push(PointReport::aggregate(
            point.label.clone(),
            point.params.clone(),
            cells,
        ));
    }
    ScenarioReport {
        scenario: spec.name.clone(),
        seeds: spec.seeds.clone(),
        points: report_points,
    }
}

/// Flight-dump the telemetry of a failed (panicked) sweep cell into
/// `<out_dir>/flight/` (falling back to the system temp dir when the sweep
/// writes no JSON), so the postmortem evidence survives the aborting run.
// Sanctioned CLI output: the dump notice must reach the terminal even as the
// sweep aborts.
#[allow(clippy::print_stderr)]
fn dump_failed_cell(telemetry: &telemetry::Telemetry, opts: &SweepOptions, label: &str, seed: u64) {
    let report = audit::Auditor::new().finish(&telemetry.registry_snapshot());
    let dir = opts
        .out_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir)
        .join("flight");
    let recorder = audit::FlightRecorder::new(telemetry.clone(), &dir);
    match recorder.dump(&format!("cell-{label}-seed-{seed}"), &report) {
        Ok(path) => eprintln!(
            "# cell [{label} seed {seed}] failed; flight dump at {}",
            path.display()
        ),
        Err(e) => eprintln!("# cell [{label} seed {seed}] failed; flight dump also failed: {e}"),
    }
}

/// Run the sweep, print a metric table, and write `BENCH_<scenario>.json`.
/// This is what the `lab` binary does with each sweep of a scenario.
// Sanctioned CLI output: the `lab` binary prints its tables through here.
#[allow(clippy::print_stdout, clippy::print_stderr)]
pub fn run_and_report(
    spec: &ScenarioSpec,
    opts: &SweepOptions,
    table_metrics: &[&str],
) -> ScenarioReport {
    let report = run_sweep(spec, opts);
    print!("{}", report.render_table(table_metrics));
    if opts.breakdown {
        print!("{}", report.render_breakdown_tables());
    }
    if let Some(dir) = &opts.out_dir {
        match report.write_bench_json(dir) {
            Ok(path) => println!("# wrote {}", path.display()),
            Err(e) => eprintln!("# could not write BENCH json: {e}"),
        }
    }
    if let Some(path) = &opts.trace {
        match export_trace(spec, path) {
            Ok(()) => {}
            Err(e) => eprintln!("# could not write trace: {e}"),
        }
    }
    report
}

/// Run one extra traced cell (outside the sweep — `BENCH_*.json` is already
/// written and untouched) and write its Chrome `trace_event` JSON to `path`,
/// plus the metrics registry in Prometheus text format to `path.prom`.
// Sanctioned CLI output: invoked only from `lab`'s `--trace`.
#[allow(clippy::print_stdout, clippy::print_stderr)]
pub fn export_trace(spec: &ScenarioSpec, path: &std::path::Path) -> std::io::Result<()> {
    let Some(traced) = spec.run_cell_traced() else {
        println!("# --trace: scenario kind has no causal instrumentation; skipped");
        return Ok(());
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, &traced.chrome_json)?;
    let prom_path = path.with_extension("prom");
    std::fs::write(&prom_path, &traced.prometheus)?;
    let spans: u64 = traced.stage_counts.values().sum();
    println!(
        "# traced cell [{} seed {}]: {} spans across {} stages -> {} (+ {})",
        traced.label,
        traced.seed,
        spans,
        traced.stage_counts.len(),
        path.display(),
        prom_path.display(),
    );
    Ok(())
}

/// The command-line arguments after a `lab` scenario name: positional
/// numeric overrides plus `--threads N`, `--seeds N`, `--out DIR`,
/// `--no-json`, `--trace FILE` and `--breakdown`.
#[derive(Debug, Clone)]
pub struct LabArgs {
    positionals: Vec<u64>,
    /// Worker threads for the sweep.
    pub threads: usize,
    /// Seed-count override (`--seeds N` sweeps seeds `0..N`).
    pub seeds: Option<usize>,
    /// Output directory for `BENCH_*.json` (`--no-json` disables).
    pub out_dir: Option<PathBuf>,
    /// `--trace out.json`: export one traced cell after the sweep.
    pub trace: Option<PathBuf>,
    /// `--breakdown`: attribute per-phase latency in every cell and print
    /// the per-point anatomy tables.
    pub breakdown: bool,
}

impl LabArgs {
    /// Parse from an explicit argument list (testable).
    #[allow(clippy::should_implement_trait)] // parses CLI words, not a collection
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Self {
        let defaults = SweepOptions::default();
        let mut out = LabArgs {
            positionals: Vec::new(),
            threads: defaults.threads,
            seeds: None,
            out_dir: Some(PathBuf::from(".")),
            trace: None,
            breakdown: false,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" | "-j" => {
                    out.threads = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads needs a number")
                }
                "--seeds" => {
                    out.seeds = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--seeds needs a number"),
                    )
                }
                "--out" => {
                    out.out_dir = Some(PathBuf::from(it.next().expect("--out needs a directory")))
                }
                "--no-json" => out.out_dir = None,
                "--trace" => {
                    out.trace = Some(PathBuf::from(it.next().expect("--trace needs a file path")))
                }
                "--breakdown" => out.breakdown = true,
                other => {
                    if let Ok(v) = other.parse() {
                        out.positionals.push(v);
                    } else {
                        panic!("unrecognised argument: {other}");
                    }
                }
            }
        }
        out
    }

    /// The `idx`-th positional argument, counted from 1 (the first argument
    /// after the scenario name).
    pub fn pos_or(&self, idx: usize, default: u64) -> u64 {
        self.positionals.get(idx - 1).copied().unwrap_or(default)
    }

    /// The seed list: `--seeds N` sweeps `0..N`, otherwise `default`.
    pub fn seeds_or(&self, default: &[u64]) -> Vec<u64> {
        match self.seeds {
            Some(k) => (0..k as u64).collect(),
            None => default.to_vec(),
        }
    }

    /// The sweep options these arguments describe.
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions {
            threads: self.threads,
            out_dir: self.out_dir.clone(),
            trace: self.trace.clone(),
            breakdown: self.breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ProposalSizeScenario, ScenarioKind};

    fn tiny_spec(seeds: Vec<u64>) -> ScenarioSpec {
        ScenarioSpec::new(
            "unit_runner",
            seeds,
            ScenarioKind::ProposalSize(ProposalSizeScenario {
                sizes: vec![10, 20, 30],
                base_bytes: 256,
            }),
        )
    }

    #[test]
    fn sweep_covers_every_point_and_seed() {
        let spec = tiny_spec(vec![0, 1]);
        let report = run_sweep(&spec, &SweepOptions::serial());
        assert_eq!(report.points.len(), 3);
        for p in &report.points {
            assert_eq!(p.cells.len(), 2);
            assert_eq!(p.cells[0].seed, 0);
            assert_eq!(p.cells[1].seed, 1);
        }
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let spec = tiny_spec(vec![0, 1, 2]);
        let serial = run_sweep(&spec, &SweepOptions::serial());
        let parallel = run_sweep(&spec, &SweepOptions::serial().with_threads(4));
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn args_parse_flags_and_positionals() {
        let args = LabArgs::from_iter(
            [
                "30",
                "--threads",
                "4",
                "21",
                "--seeds",
                "8",
                "--out",
                "/tmp/x",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(args.pos_or(1, 0), 30);
        assert_eq!(args.pos_or(2, 0), 21);
        assert_eq!(args.pos_or(3, 99), 99);
        assert_eq!(args.threads, 4);
        assert_eq!(args.seeds_or(&[7]), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(
            args.out_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        let none = LabArgs::from_iter(["--no-json".to_string()]);
        assert!(none.out_dir.is_none());
        assert_eq!(none.seeds_or(&[7]), vec![7]);
    }
}

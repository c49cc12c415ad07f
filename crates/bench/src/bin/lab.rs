//! Run one scenario of the paper's evaluation by name.
//!
//! Usage: `lab <scenario> [positionals] [--seeds N] [--threads N] [--out DIR]
//! [--no-json] [--trace FILE] [--breakdown]`
//!
//! Run without a scenario for the list of names and their positionals
//! (`bench::SCENARIOS`). Every sweep prints its metric table and writes
//! `BENCH_<spec name>.json` into `--out` (default `.`).

use bench::{scenario, SCENARIOS};
use lab::{run_and_report, LabArgs};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    let args = LabArgs::from_iter(std::env::args().skip(2));
    let Some(sweeps) = scenario(&name, &args) else {
        eprintln!(
            "usage: lab <scenario> [positionals] [--seeds N] [--threads N] [--out DIR] \
             [--no-json] [--trace FILE] [--breakdown]"
        );
        eprintln!("scenarios:");
        for (name, positionals) in SCENARIOS {
            eprintln!("{}", format!("  {name:<26} {positionals}").trim_end());
        }
        return ExitCode::FAILURE;
    };
    let opts = args.sweep_options();
    for (i, sweep) in sweeps.iter().enumerate() {
        if i > 0 {
            println!();
        }
        for line in &sweep.header {
            println!("{line}");
        }
        let spec = &sweep.spec;
        println!(
            "# {} cells ({} seeds), {} worker thread(s)",
            spec.points().len() * spec.seeds.len(),
            spec.seeds.len(),
            args.threads
        );
        let start = Instant::now();
        let columns: Vec<&str> = sweep.columns.iter().map(String::as_str).collect();
        let report = run_and_report(spec, &opts, &columns);
        let first_cell = report.points.first().and_then(|p| p.cells.first());
        let timeline = first_cell.and_then(|c| c.metrics.series.get("throughput_timeline"));
        if let Some(timeline) = timeline.filter(|_| sweep.timeline) {
            println!("{:>6} {:>12}", "t [s]", "throughput");
            for &(sec, ops) in timeline {
                println!("{sec:>6.0} {ops:>12.0}");
            }
        }
        for line in &sweep.footer {
            println!("{line}");
        }
        println!("# wall-clock {:.2}s", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

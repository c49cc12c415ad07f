//! The one command of the repo benchmark.
//!
//! ```text
//! benchmark [--seed S] [--seconds N] [--traced] [--smoke]     every workload, each in a child
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]   one workload, in this process
//! benchmark --selfcheck [N] [--seed S] [--seconds N]          does it repeat? writes SPREAD.md
//! ```
//!
//! Every metric is printed as `workload/name value unit`. With `--workload`
//! the last line of standard output is the driver's result object; the exit
//! code is 0 only when every output check passed.

use optilog_benchmark::alloc::CountingAlloc;
use optilog_benchmark::child::run_workload;
use optilog_benchmark::metrics::{catalogue_problems, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use optilog_benchmark::selfcheck;
use optilog_benchmark::workloads::{self, Options};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: benchmark [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1 | --traced] [--selfcheck [N]] [--smoke]";

struct Args {
    workload: Option<String>,
    selfcheck: Option<usize>,
    opts: Options,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        selfcheck: None,
        opts: Options {
            seed: 12,
            seconds: 15.0,
            traced: false,
            smoke: false,
        },
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 60]"));
                }
                args.opts.seconds = seconds;
            }
            "--trace" => {
                args.opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--traced" => args.opts.traced = true,
            "--smoke" => args.opts.smoke = true,
            "--selfcheck" => {
                let runs = match argv.peek().and_then(|v| v.parse().ok()) {
                    Some(runs) => {
                        argv.next();
                        runs
                    }
                    None => 10,
                };
                args.selfcheck = Some(runs);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where the traced runs' span documents and `SPREAD.md` go: beside the
/// benchmark's manifest, wherever the command was started from.
fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn end_to_end_metrics() -> Vec<Metric> {
    END_TO_END.iter().map(|&(m, _)| m).collect()
}

/// One workload, in this process: print its lines and the result object.
fn run_one(workload: &str, opts: Options) -> ExitCode {
    let Some(mut outcome) = workloads::run(workload, opts) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!(
            "unknown workload {workload}; the workloads are {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let expected = if opts.traced {
        PER_LAYER.to_vec()
    } else {
        end_to_end_metrics()
    };
    let report = &mut outcome.report;
    report.validate(&expected);
    if let Some(trace_json) = &outcome.trace_json {
        let dir = benchmark_dir().join("out");
        let path = dir.join(format!("trace_{workload}.json"));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace_json))
        {
            report.problem(format!("cannot write {}: {e}", path.display()));
        }
    }
    for line in report.lines(workload, &expected) {
        println!("{line}");
    }
    for problem in &report.problems {
        println!("PROBLEM {workload}: {problem}");
    }
    println!("{}", report.to_json(&expected));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in its own child: the untraced run for the
/// end-to-end metrics, then (with `--traced`) the traced one.
fn run_all(opts: Options) -> std::io::Result<ExitCode> {
    let started = Instant::now();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let passes: &[bool] = if opts.traced {
            &[false, true]
        } else {
            &[false]
        };
        for &traced in passes {
            let child = run_workload(workload, Options { traced, ..opts })?;
            for line in &child.lines {
                println!("{line}");
            }
            if !child.success || child.result.is_none() {
                println!("PROBLEM {workload}: the child run failed");
                all_correct = false;
            }
        }
    }
    println!(
        "benchmark/total_wall_s {} s",
        started.elapsed().as_secs_f64()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let problems = catalogue_problems();
    if !problems.is_empty() {
        eprintln!(
            "the metric catalogue breaks the contract: {}",
            problems.join("; ")
        );
        return ExitCode::FAILURE;
    }
    let outcome = match (args.selfcheck, args.workload) {
        (Some(runs), _) => {
            selfcheck::run(runs, args.opts, &benchmark_dir().join("SPREAD.md")).map(|ok| {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            })
        }
        (None, Some(workload)) => Ok(run_one(&workload, args.opts)),
        (None, None) => run_all(args.opts),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}

//! `deployd` — launch an n-replica consensus cluster on localhost, for real.
//!
//! ```text
//! deployd --substrate hotstuff -n 4 --secs 5 --rate 200 \
//!         --prometheus metrics.prom --trace cluster_trace.json
//! ```
//!
//! Replicas are the same structs the simulator drives, here running one OS
//! thread each over full-mesh length-prefixed TCP on 127.0.0.1 with
//! wall-clock timers (see `runtime::RealCluster`). Load is the traffic
//! crate's open-loop schedule (its saturated queue at `--rate 0`); telemetry
//! is the same handle the simulated runs install, so `--trace` produces a
//! Perfetto/Chrome trace on a wall-clock axis comparable to a simulated one.
//!
//! SIGTERM / SIGINT end the run early with a clean shutdown (replicas are
//! stopped, stats collected, artifacts written) — the same path a normal
//! end-of-run takes. Either signal (and any panic) also flushes a
//! flight-recorder dump into `--flight-dir`: the recent trace ring as
//! Perfetto JSON plus the consensus auditor's verdict, so a postmortem
//! starts from evidence, not logs.

use deployd::{measure_knee, run_cluster, DeployConfig, Substrate};
use runtime::Duration;
use std::process::ExitCode;
use telemetry::Telemetry;

/// SIGTERM/SIGINT flag, set from the signal handler and polled by the run
/// loop. Installed via the raw libc `signal` symbol (std links libc on every
/// unix target; no external crate needed).
#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

struct Args {
    config: DeployConfig,
    knee_rates: Vec<f64>,
    prometheus: Option<String>,
    trace: Option<String>,
    metrics_addr: Option<String>,
}

const USAGE: &str = "usage: deployd [--substrate hotstuff|kauri] [-n N] [--secs S] \
[--rate CMDS_PER_SEC] [--clients C] [--batch B] [--seed SEED] \
[--knee R1,R2,...] [--prometheus FILE] [--trace FILE] [--metrics-addr HOST:PORT] \
[--flight-dir DIR]\n\
  --rate 0 proposes from the saturated queue (full --batch batches, no clients)\n\
  --knee sweeps offered load (one short run per rate) and prints the measured curve\n\
  --metrics-addr serves live GET /metrics (Prometheus text), GET /healthz, and \
GET /audit (the consensus auditor's verdict) while the cluster runs\n\
  --flight-dir is where oracle violations, SIGTERM, and panics dump the flight \
recording (default deployd-flight; 'none' disables)";

fn parse_args() -> Result<Args, String> {
    let mut config = DeployConfig::new(Substrate::HotStuff, 4);
    config.flight_dir = Some("deployd-flight".to_string());
    let mut knee_rates = Vec::new();
    let mut prometheus = None;
    let mut trace = None;
    let mut metrics_addr = None;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--substrate" => {
                let v = value(&mut i, "--substrate")?;
                config.substrate = Substrate::parse(&v)
                    .ok_or_else(|| format!("unknown substrate {v:?} (hotstuff|kauri)"))?;
            }
            "-n" | "--replicas" => {
                let v = value(&mut i, "-n")?;
                config.n = v.parse().map_err(|_| format!("bad replica count {v:?}"))?;
            }
            "--secs" => {
                let v = value(&mut i, "--secs")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad duration {v:?}"))?;
                config.run_for = Duration::from_micros((secs * 1e6) as u64);
            }
            "--rate" => {
                let v = value(&mut i, "--rate")?;
                config.rate = v.parse().map_err(|_| format!("bad rate {v:?}"))?;
            }
            "--clients" => {
                let v = value(&mut i, "--clients")?;
                config.clients = v.parse().map_err(|_| format!("bad client count {v:?}"))?;
            }
            "--batch" => {
                let v = value(&mut i, "--batch")?;
                config.batch_size = v.parse().map_err(|_| format!("bad batch size {v:?}"))?;
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                config.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--knee" => {
                let v = value(&mut i, "--knee")?;
                knee_rates = v
                    .split(',')
                    .map(|r| {
                        r.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad rate {r:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--prometheus" => prometheus = Some(value(&mut i, "--prometheus")?),
            "--trace" => trace = Some(value(&mut i, "--trace")?),
            "--metrics-addr" => metrics_addr = Some(value(&mut i, "--metrics-addr")?),
            "--flight-dir" => {
                let v = value(&mut i, "--flight-dir")?;
                config.flight_dir = if v == "none" { None } else { Some(v) };
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if config.n == 0 {
        return Err("need at least one replica".to_string());
    }
    // With --trace, keep the unbounded sink the artifact is cut from; without
    // it, a bounded ring still records the recent past so a flight dump has a
    // trace to flush (the ring's eviction counter lands in the dump).
    config.telemetry = if trace.is_some() {
        Telemetry::tracing()
    } else {
        Telemetry::tracing_with_capacity(65_536)
    };
    Ok(Args {
        config,
        knee_rates,
        prometheus,
        trace,
        metrics_addr,
    })
}

fn write_artifact(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    term::install();
    args.config.audit_feed = Some(deployd::ops::AuditFeed::default());

    let cfg = &args.config;
    // A panicking run still leaves evidence: flush the flight ring (with
    // whatever the auditor last published as audit.* gauges) before the
    // default hook prints the backtrace and the process dies.
    if let Some(rec) = cfg.flight_recorder() {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = rec.dump("panic", &audit::AuditReport::default());
            default_hook(info);
        }));
    }
    let ops = match &args.metrics_addr {
        Some(addr) => {
            let feed = cfg.audit_feed.clone().unwrap_or_default();
            match deployd::ops::serve(addr, cfg.telemetry.clone(), feed) {
                Ok(server) => {
                    println!(
                        "serving live /metrics, /healthz, and /audit on http://{}",
                        server.local_addr()
                    );
                    Some(server)
                }
                Err(e) => {
                    eprintln!("deployd: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    println!(
        "deployd: {} × {} on 127.0.0.1, {:.1}s wall-clock, {}",
        cfg.n,
        cfg.substrate.name(),
        cfg.run_for.as_micros() as f64 / 1e6,
        if cfg.rate > 0.0 {
            format!("{:.0} cmd/s open-loop", cfg.rate)
        } else {
            "saturated workload".to_string()
        },
    );

    if !args.knee_rates.is_empty() {
        let points = match measure_knee(cfg, &args.knee_rates, &term::requested) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("deployd: knee sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("offered_rate,offered,committed,goodput,e2e_mean_ms,e2e_p50_ms,e2e_p99_ms");
        for p in &points {
            println!(
                "{:.0},{},{},{},{:.1},{:.1},{:.1}",
                p.offered_rate,
                p.offered,
                p.committed,
                p.goodput,
                p.e2e_mean_ms,
                p.e2e_p50_ms,
                p.e2e_p99_ms
            );
        }
        for p in &points {
            if p.breakdown.count() == 0 {
                continue;
            }
            println!("\n# latency anatomy at {:.0} cmd/s", p.offered_rate);
            print!("{}", p.breakdown.render_table());
        }
        if let Some(server) = ops {
            server.shutdown();
        }
        return ExitCode::SUCCESS;
    }

    let report = match run_cluster(cfg, &term::requested) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("deployd: cluster failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if term::requested() {
        println!(
            "deployd: termination signal — shut down cleanly after {:.1}s",
            report.wall_secs
        );
        if let Some(rec) = cfg.flight_recorder() {
            match rec.dump("sigterm", &report.audit) {
                Ok(path) => println!("flight recording dumped to {}", path.display()),
                Err(e) => eprintln!("deployd: flight dump failed: {e}"),
            }
        }
    }
    println!(
        "committed {} blocks / {} commands in {:.1}s ({:.0} op/s, mean consensus latency {:.1} ms)",
        report.summary.committed_blocks,
        report.summary.committed_commands,
        report.wall_secs,
        report.summary.throughput_ops,
        report.summary.mean_latency_ms,
    );
    println!(
        "per-replica commits: {:?}{}",
        report.per_replica_commits,
        if report.digests_agree() {
            ""
        } else {
            "  [DIVERGENT DIGESTS]"
        },
    );
    if let Some(tr) = &report.traffic {
        println!(
            "open-loop: offered {} committed {} goodput {} (e2e mean {:.1} ms, p99 {:.1} ms)",
            tr.offered, tr.committed, tr.goodput, tr.e2e_mean_ms, tr.e2e_p99_ms
        );
    }
    print!("{}", report.audit.render());

    // Artifacts are written before any failure exit: a run that fails its
    // oracles is exactly the one whose trace and metrics you want on disk.
    if let Some(path) = &args.prometheus {
        if let Err(e) = write_artifact(path, &cfg.telemetry.prometheus_text()) {
            eprintln!("deployd: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote Prometheus dump to {path}");
    }
    if let Some(path) = &args.trace {
        let labels: Vec<(usize, String)> = (0..cfg.n)
            .map(|id| (id, format!("{}-{id}", cfg.substrate.name())))
            .collect();
        match cfg.telemetry.chrome_trace_json(&labels) {
            Some(json) => {
                if let Err(e) = write_artifact(path, &json) {
                    eprintln!("deployd: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote wall-clock trace to {path} (open in Perfetto)");
            }
            None => eprintln!("deployd: trace sink inactive, no trace written"),
        }
    }
    if let Some(server) = ops {
        server.shutdown();
    }

    if !report.digests_agree() {
        eprintln!("deployd: replicas disagree on committed view digests");
        return ExitCode::FAILURE;
    }
    if !report.audit.ok() {
        eprintln!(
            "deployd: consensus auditor found {} violation(s); flight dump in {}",
            report.audit.violation_count(),
            cfg.flight_dir.as_deref().unwrap_or("(flight dir disabled)"),
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

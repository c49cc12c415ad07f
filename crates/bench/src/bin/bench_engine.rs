//! Engine throughput benchmark: the rebuilt netsim hot path (timer wheel +
//! Arc-interned broadcast payloads) against the seed baseline (binary-heap
//! scheduler + one deep payload clone per broadcast recipient).
//!
//! The workload is one consensus round distilled to its engine cost: a
//! leader broadcasts a ~1 KiB block each round, every replica votes
//! back, and every replica arms a view timer per round that is cancelled
//! when the next block arrives — the broadcast fan-out plus timer set/cancel
//! churn that consensus substrates put on the simulator. Both engines run
//! the identical schedule (same events, same order, same virtual clock), so
//! events/sec differences are pure engine overhead.
//!
//! Usage: `bench_engine [rounds] [--smoke] [--out DIR | --no-json]
//!         [--assert-speedup X] [--assert-telemetry-overhead F]`
//!
//! The telemetry phase re-runs the wheel schedule with disabled-handle
//! telemetry calls at every message — the cost a substrate pays for being
//! instrumented when no sink is installed. `--assert-telemetry-overhead
//! 0.02` gates that cost at 2% of events/sec (best-of-3 on both sides to
//! damp wall-clock noise).
//!
//! Writes `BENCH_engine.json` with one record per (n, engine) and the
//! wheel-over-heap speedup per n. Wall-clock numbers vary run to run, so
//! this file is *not* part of the byte-determinism cmp checks — the
//! `events` column, which is deterministic, is what trajectory tooling
//! should diff.

use netsim::{
    Context, Duration, EventScheduler, HeapScheduler, Node, NodeId, SimTime, Simulation, TimerId,
    TimerWheel, UniformLatency,
};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;
use telemetry::Telemetry;

/// One-way link latency in µs; a round (block out + vote back) is one RTT.
const ONE_WAY_US: u64 = 500;
/// Block payload size — the deep-clone cost the interned path eliminates.
const BLOCK_BYTES: usize = 1024;

#[derive(Clone)]
enum EngineMsg {
    Block { round: u64, body: Vec<u8> },
    Vote { round: u64 },
}

/// A replica in the synthetic round protocol. `legacy_clones` selects the
/// seed broadcast discipline (one owned `clone()` per recipient) instead of
/// `Context::broadcast`'s interned payload; the event schedule is identical
/// either way.
struct FanoutNode {
    rounds: u64,
    legacy_clones: bool,
    votes: usize,
    view_timer: Option<TimerId>,
    timeouts: u64,
    bytes_received: u64,
    // When set, every message makes the same registry/span calls a real
    // substrate makes, against a handle with no sink — the disabled-path
    // cost the overhead gate measures. Both variants evaluate the same
    // `Option` check, so the delta is purely the telemetry calls.
    telemetry: Option<Telemetry>,
}

impl FanoutNode {
    fn new(rounds: u64, legacy_clones: bool, telemetry: Option<Telemetry>) -> Self {
        FanoutNode {
            rounds,
            legacy_clones,
            votes: 0,
            view_timer: None,
            timeouts: 0,
            bytes_received: 0,
            telemetry,
        }
    }

    fn propose(&mut self, ctx: &mut Context<EngineMsg>, round: u64) {
        if round >= self.rounds {
            return;
        }
        let msg = EngineMsg::Block {
            round,
            body: vec![(round & 0xFF) as u8; BLOCK_BYTES],
        };
        if self.legacy_clones {
            for to in 0..ctx.n {
                if to != ctx.id {
                    ctx.send(to, msg.clone());
                }
            }
        } else {
            ctx.broadcast(msg);
        }
        self.arm_view_timer(ctx, round);
    }

    fn arm_view_timer(&mut self, ctx: &mut Context<EngineMsg>, round: u64) {
        if let Some(t) = self.view_timer.take() {
            ctx.cancel_timer(t);
        }
        self.view_timer = Some(ctx.set_timer(Duration::from_secs(60), round));
    }
}

impl Node for FanoutNode {
    type Msg = EngineMsg;

    fn on_start(&mut self, ctx: &mut Context<EngineMsg>) {
        if ctx.id == 0 {
            self.propose(ctx, 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<EngineMsg>, from: NodeId, msg: EngineMsg) {
        match msg {
            EngineMsg::Block { round, body } => {
                self.bytes_received += body.len() as u64;
                if let Some(t) = &self.telemetry {
                    t.counter_add("bench.engine.blocks", Some(ctx.id), 1);
                    t.observe("bench.engine.block_bytes", Some(ctx.id), body.len() as u64);
                    t.span(
                        telemetry::Stage::Forward,
                        ctx.id,
                        round,
                        ctx.now.as_micros(),
                        ONE_WAY_US,
                        &[],
                    );
                }
                self.arm_view_timer(ctx, round);
                ctx.send(from, EngineMsg::Vote { round });
            }
            EngineMsg::Vote { round } => {
                if let Some(t) = &self.telemetry {
                    t.counter_add("bench.engine.votes", Some(ctx.id), 1);
                }
                self.votes += 1;
                if self.votes == ctx.n - 1 {
                    self.votes = 0;
                    self.propose(ctx, round + 1);
                }
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<EngineMsg>, _timer: TimerId, _tag: u64) {
        self.timeouts += 1;
    }
}

struct Measurement {
    n: usize,
    engine: &'static str,
    events: u64,
    secs: f64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs.max(1e-9)
    }
}

fn run_engine<S: EventScheduler<EngineMsg>>(
    n: usize,
    rounds: u64,
    legacy_clones: bool,
    telemetry: Option<Telemetry>,
    sched: S,
    engine: &'static str,
) -> Measurement {
    let nodes = (0..n)
        .map(|_| FanoutNode::new(rounds, legacy_clones, telemetry.clone()))
        .collect();
    let latency = Box::new(UniformLatency::new(n, Duration::from_micros(ONE_WAY_US)));
    let mut sim = Simulation::with_scheduler(nodes, latency, sched);
    // One RTT per round plus slack; the last view timers sit past the
    // horizon by design (the engine must not drop them — see the horizon
    // regression tests) and are simply never reached.
    let horizon = SimTime::ZERO + Duration::from_micros(2 * ONE_WAY_US * rounds + 1_000);
    let start = Instant::now();
    sim.run_until(horizon);
    let secs = start.elapsed().as_secs_f64();
    let expected = 2 * (n as u64 - 1) * rounds;
    assert_eq!(
        sim.events_processed(),
        expected,
        "engine {engine} at n={n} processed an unexpected event count"
    );
    let delivered: u64 = (0..n).map(|id| sim.node(id).bytes_received).sum();
    assert_eq!(
        delivered,
        (n as u64 - 1) * rounds * BLOCK_BYTES as u64,
        "engine {engine} at n={n} delivered an unexpected payload volume"
    );
    let timeouts: u64 = (0..n).map(|id| sim.node(id).timeouts).sum();
    assert_eq!(timeouts, 0, "view timers must never fire in-horizon");
    Measurement {
        n,
        engine,
        events: sim.events_processed(),
        secs,
    }
}

fn json_record(m: &Measurement) -> String {
    format!(
        "    {{\"n\": {}, \"engine\": \"{}\", \"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.0}}}",
        m.n, m.engine, m.events, m.secs, m.events_per_sec()
    )
}

fn main() {
    let mut positionals: Vec<u64> = Vec::new();
    let mut out_dir: Option<PathBuf> = Some(PathBuf::from("."));
    let mut smoke = false;
    let mut assert_speedup: Option<f64> = None;
    let mut assert_telemetry_overhead: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_dir = Some(PathBuf::from(it.next().expect("--out needs a directory"))),
            "--no-json" => out_dir = None,
            "--smoke" => smoke = true,
            "--assert-speedup" => {
                assert_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-speedup needs a number"),
                )
            }
            "--assert-telemetry-overhead" => {
                assert_telemetry_overhead = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-telemetry-overhead needs a fraction"),
                )
            }
            other => positionals.push(other.parse().unwrap_or_else(|_| {
                panic!("unrecognised argument: {other}");
            })),
        }
    }
    let base_rounds = positionals.first().copied().unwrap_or(4_000);

    let sizes: [usize; 3] = [7, 25, 100];
    let mut measurements: Vec<Measurement> = Vec::new();
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    println!(
        "{:>4} {:>22} {:>12} {:>10} {:>14}",
        "n", "engine", "events", "secs", "events/sec"
    );
    for &n in &sizes {
        // Keep total event volume roughly flat across n so n=100 stays in
        // smoke time: events = 2(n-1) * rounds.
        let mut rounds = (base_rounds * 24 / (n as u64 - 1)).max(100);
        if smoke {
            rounds = (rounds / 20).max(50);
        }
        let wheel = run_engine(n, rounds, false, None, TimerWheel::new(), "wheel+interned");
        let heap = run_engine(
            n,
            rounds,
            true,
            None,
            HeapScheduler::default(),
            "heap+clones",
        );
        let speedup = wheel.events_per_sec() / heap.events_per_sec();
        for m in [&wheel, &heap] {
            println!(
                "{:>4} {:>22} {:>12} {:>10.4} {:>14.0}",
                m.n,
                m.engine,
                m.events,
                m.secs,
                m.events_per_sec()
            );
        }
        println!("{:>4} {:>22} {:>38.2}x", n, "speedup", speedup);
        speedups.push((n, speedup));
        measurements.push(wheel);
        measurements.push(heap);
    }

    // Telemetry-overhead phase: the identical wheel schedule at n=25, with
    // and without disabled-handle telemetry calls at every message.
    // Best-of-3 on each side so a single descheduled run can't fake a
    // regression.
    let overhead_n = 25;
    let mut overhead_rounds = (base_rounds * 24 / (overhead_n as u64 - 1)).max(100);
    if smoke {
        overhead_rounds = (overhead_rounds / 20).max(50);
    }
    let best_eps = |telemetry: Option<Telemetry>, label: &'static str| -> f64 {
        (0..3)
            .map(|_| {
                run_engine(
                    overhead_n,
                    overhead_rounds,
                    false,
                    telemetry.clone(),
                    TimerWheel::new(),
                    label,
                )
                .events_per_sec()
            })
            .fold(0.0_f64, f64::max)
    };
    let plain_eps = best_eps(None, "wheel+interned");
    let disabled_eps = best_eps(Some(Telemetry::disabled()), "wheel+telemetry-off");
    let telemetry_overhead = 1.0 - disabled_eps / plain_eps;
    println!(
        "{:>4} {:>22} {:>37.2}%",
        overhead_n,
        "telemetry overhead",
        telemetry_overhead * 100.0
    );

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
        let path = dir.join("BENCH_engine.json");
        let mut file = std::fs::File::create(&path).expect("create BENCH_engine.json");
        let records: Vec<String> = measurements.iter().map(json_record).collect();
        let ratios: Vec<String> = speedups
            .iter()
            .map(|(n, s)| format!("    {{\"n\": {n}, \"wheel_over_heap\": {s:.2}}}"))
            .collect();
        writeln!(
            file,
            "{{\n  \"bench\": \"engine\",\n  \"block_bytes\": {BLOCK_BYTES},\n  \"runs\": [\n{}\n  ],\n  \"speedup\": [\n{}\n  ],\n  \"telemetry_overhead\": {{\"n\": {overhead_n}, \"events_per_sec_plain\": {plain_eps:.0}, \"events_per_sec_disabled\": {disabled_eps:.0}, \"overhead\": {telemetry_overhead:.4}}}\n}}",
            records.join(",\n"),
            ratios.join(",\n")
        )
        .expect("write BENCH_engine.json");
        println!("# wrote {}", path.display());
    }

    if let Some(min) = assert_speedup {
        for (n, s) in &speedups {
            if *n >= 25 {
                assert!(
                    *s >= min,
                    "wheel engine is only {s:.2}x the heap baseline at n={n} (need {min}x)"
                );
            }
        }
    }

    if let Some(max) = assert_telemetry_overhead {
        assert!(
            telemetry_overhead <= max,
            "disabled-handle telemetry costs {:.2}% events/sec (gate: {:.2}%)",
            telemetry_overhead * 100.0,
            max * 100.0
        );
    }
}

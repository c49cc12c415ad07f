//! Per-layer probes measured from outside the program: each one times a
//! single public function of one crate on fixed inputs (the minimum of a few
//! repeats, each long enough to dwarf the clock), plus the simulated knee
//! ladder. Every traced run carries all of them, so a moved end-to-end
//! number can be laid beside the layer that moved.

use crate::metrics::Report;
use crypto::quorum::AggregateEntry;
use crypto::{Digest, Hashable, Keyring, PartialSignature, QuorumCertificate, VoteAggregate};
use lab::{
    Deployment, ProtocolScenario, ScenarioKind, ScenarioSpec, Substrate, Topology, TrafficSpec,
};
use netsim::sched::{EventScheduler, TimerWheel};
use netsim::EventKind;
use optilog::{
    Annealer, AnnealingParams, CandidateSelector, ConfigCommand, ConfigLog, SuspicionGraph,
};
use optitree::{search_tree, TreeSearchSpace};
use rsm::{Block, Command, SystemConfig};
use runtime::{
    encode_frame, read_frame, Context, Duration, Node, NodeId, RealCluster, SimTime, TimerId,
};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;
use telemetry::Telemetry;
use traffic::SharedTrafficQueue;

/// How hard the probes work.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Repeats per probe; the minimum is reported.
    pub repeats: usize,
    /// Least wall time of one repeat, milliseconds.
    pub min_ms: f64,
    /// Simulated seconds per knee-ladder rung.
    pub rung_secs: u64,
    /// Offered rates of the knee ladder, ascending.
    pub rungs: &'static [f64],
}

impl Effort {
    /// What a traced run of the default command spends: about ten seconds.
    pub const FULL: Effort = Effort {
        repeats: 5,
        min_ms: 20.0,
        rung_secs: 30,
        rungs: &[500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16_000.0],
    };
    /// A fraction of a second in all, for the tests.
    pub const SMOKE: Effort = Effort {
        repeats: 2,
        min_ms: 0.5,
        rung_secs: 12,
        rungs: &[500.0, 8000.0],
    };
}

/// Nanoseconds per call of `f`: the iteration count is doubled until one
/// repeat lasts `min_ms`, then the fastest of `repeats` repeats is taken.
fn ns_per_call(effort: Effort, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    let time = |iters: u64, f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64() * 1e9
    };
    while time(iters, &mut f) < effort.min_ms * 1e6 && iters < 1 << 30 {
        iters *= 2;
    }
    (0..effort.repeats)
        .map(|_| time(iters, &mut f) / iters as f64)
        .fold(f64::INFINITY, f64::min)
}

/// The fastest of `repeats` runs of `f`, which returns its own reading.
fn fastest(effort: Effort, mut f: impl FnMut() -> f64) -> f64 {
    (0..effort.repeats)
        .map(|_| f())
        .fold(f64::INFINITY, f64::min)
}

/// A tiny deterministic generator for probe inputs.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

fn netsim_probes(effort: Effort, out: &mut Report) {
    // A fixed stream: a thousand pending timers, each pop re-arms one at a
    // pseudo-random distance up to 100 ms ahead — the engine's steady state.
    let events = if effort.min_ms < 1.0 {
        20_000
    } else {
        1_000_000
    };
    let ns = fastest(effort, || {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut state = 7u64;
        let kind = |i: u64| EventKind::Timer {
            timer: TimerId(i),
            tag: i,
        };
        for i in 0..1024 {
            let at = SimTime::from_micros(1 + lcg(&mut state) % 100_000);
            wheel.schedule(at, 0, kind(i));
        }
        let start = Instant::now();
        for i in 0..events {
            let ev = wheel.pop().expect("wheel holds pending timers");
            let at = ev.at + Duration::from_micros(1 + lcg(&mut state) % 100_000);
            wheel.schedule(at, 0, kind(i));
        }
        black_box(wheel.len());
        start.elapsed().as_secs_f64() * 1e9 / events as f64
    });
    out.set("netsim.sched_ns_per_event", ns);
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum ProbeMsg {
    Ping(u64),
    Pong(u64),
}

/// A node for the runtime probes: replica 0 of an `echo` pair ping-pongs
/// with replica 1; a `timers` node re-arms a 1 ms timer and records how late
/// each one fired. With neither flag it idles (launch and shutdown cost).
struct ProbeNode {
    echo: bool,
    timers: bool,
    first_pong: Option<SimTime>,
    last_pong: SimTime,
    pongs: u64,
    timer_due: SimTime,
    lateness_us: Vec<f64>,
}

impl ProbeNode {
    fn new(echo: bool, timers: bool) -> Self {
        ProbeNode {
            echo,
            timers,
            first_pong: None,
            last_pong: SimTime::ZERO,
            pongs: 0,
            timer_due: SimTime::ZERO,
            lateness_us: Vec::new(),
        }
    }

    fn arm(&mut self, ctx: &mut Context<ProbeMsg>) {
        let delay = Duration::from_millis(1);
        self.timer_due = ctx.now + delay;
        ctx.set_timer(delay, 0);
    }
}

impl Node for ProbeNode {
    type Msg = ProbeMsg;

    fn on_start(&mut self, ctx: &mut Context<ProbeMsg>) {
        if self.echo && ctx.id == 0 {
            ctx.send(1, ProbeMsg::Ping(0));
        }
        if self.timers {
            self.arm(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<ProbeMsg>, from: NodeId, msg: ProbeMsg) {
        match msg {
            ProbeMsg::Ping(k) => ctx.send(from, ProbeMsg::Pong(k)),
            ProbeMsg::Pong(k) => {
                self.first_pong.get_or_insert(ctx.now);
                self.last_pong = ctx.now;
                self.pongs += 1;
                ctx.send(from, ProbeMsg::Ping(k + 1));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<ProbeMsg>, _timer: TimerId, _tag: u64) {
        self.lateness_us
            .push(ctx.now.since(self.timer_due).as_micros() as f64);
        self.arm(ctx);
    }
}

fn idle_nodes(n: usize) -> Vec<ProbeNode> {
    (0..n).map(|_| ProbeNode::new(false, false)).collect()
}

fn runtime_probes(effort: Effort, out: &mut Report) {
    // What actually crosses the wire for a 100-command HotStuff block: the
    // proposal carries the block's digest and command count, not the commands.
    let digest = Digest::of(b"benchmark block");
    let proposal = hotstuff::HotStuffMessage::Proposal {
        view: 123_456,
        digest,
        commands: 100,
        timestamp_us: 1_234_567_890,
    };
    let vote = hotstuff::HotStuffMessage::Vote {
        view: 123_456,
        digest,
        voter: 3,
    };
    for (msg, encode, decode, bytes) in [
        (
            &proposal,
            "runtime.wire.proposal_encode_ns",
            "runtime.wire.proposal_decode_ns",
            "runtime.wire.proposal_bytes",
        ),
        (
            &vote,
            "runtime.wire.vote_encode_ns",
            "runtime.wire.vote_decode_ns",
            "runtime.wire.vote_bytes",
        ),
    ] {
        let frame = encode_frame(2, msg).expect("probe message encodes");
        out.set(bytes, frame.len() as f64);
        out.set(
            encode,
            ns_per_call(effort, || {
                black_box(encode_frame(2, black_box(msg)).expect("probe message encodes"));
            }),
        );
        out.set(
            decode,
            ns_per_call(effort, || {
                let mut cursor = std::io::Cursor::new(black_box(&frame[..]));
                let decoded = read_frame::<hotstuff::HotStuffMessage, _>(&mut cursor);
                black_box(decoded.expect("probe frame decodes"));
            }),
        );
    }

    let mut shutdown_ms = f64::INFINITY;
    for (n, name) in [
        (4, "runtime.real.launch_ms_n4"),
        (7, "runtime.real.launch_ms_n7"),
    ] {
        let launch_ms = fastest(effort, || {
            let start = Instant::now();
            let cluster = RealCluster::launch(idle_nodes(n)).expect("probe cluster launches");
            let launched = start.elapsed();
            let stop = Instant::now();
            cluster.shutdown();
            shutdown_ms = shutdown_ms.min(stop.elapsed().as_secs_f64() * 1e3);
            launched.as_secs_f64() * 1e3
        });
        out.set(name, launch_ms);
    }
    out.set("runtime.real.shutdown_ms", shutdown_ms);

    let window = std::time::Duration::from_secs_f64(effort.min_ms.max(5.0) * 5.0 / 1e3);
    let pair = vec![ProbeNode::new(true, false), ProbeNode::new(true, false)];
    let cluster = RealCluster::launch(pair).expect("echo pair launches");
    std::thread::sleep(window);
    let nodes = cluster.shutdown();
    let echo = &nodes[0];
    let span_us = echo
        .first_pong
        .map_or(0, |first| echo.last_pong.since(first).as_micros());
    out.set(
        "runtime.real.echo_rtt_us",
        span_us as f64 / echo.pongs.saturating_sub(1).max(1) as f64,
    );

    let cluster =
        RealCluster::launch(vec![ProbeNode::new(false, true)]).expect("timer probe launches");
    std::thread::sleep(window);
    let mut nodes = cluster.shutdown();
    let lateness = &mut nodes[0].lateness_us;
    lateness.sort_by(f64::total_cmp);
    out.set(
        "runtime.real.timer_lateness_p50_us",
        crate::stats::percentile(lateness, 0.5),
    );
}

fn traffic_probes(effort: Effort, out: &mut Report) {
    let secs = if effort.min_ms < 1.0 { 0.05 } else { 1.0 };
    let spec = TrafficSpec::poisson(200_000.0)
        .with_clients(64)
        .with_batching(100, Duration::from_millis(40))
        .with_capacity(1_000_000);
    let ingress = vec![1.0; 64];
    let horizon = SimTime::from_micros((secs * 1e6) as u64);
    let generate = || SharedTrafficQueue::generate(&spec, &ingress, 7, horizon);
    let arrivals = generate().report(1).offered as f64;
    out.set(
        "traffic.generate_ns_per_arrival",
        fastest(effort, || {
            let start = Instant::now();
            black_box(generate());
            start.elapsed().as_secs_f64() * 1e9 / arrivals
        }),
    );
    out.set(
        "traffic.batch_ns_per_op",
        fastest(effort, || {
            let queue = generate();
            let start = Instant::now();
            let mut now = SimTime::ZERO;
            // One thread plays proposer: pull every flushable batch each
            // simulated millisecond and commit it on the spot.
            while now <= horizon + Duration::from_millis(50) {
                while let Some(batch) = queue.try_batch(now) {
                    queue.commit_batch(batch.id, now);
                }
                now += Duration::from_millis(1);
            }
            start.elapsed().as_secs_f64() * 1e9 / arrivals
        }),
    );
}

fn rsm_probes(effort: Effort, out: &mut Report) {
    let commands: Vec<Command> = (0..100).map(|i| Command::empty(i % 4, i)).collect();
    let block = Block::new(Digest::ZERO, 1, 1, 0, commands);
    out.set(
        "rsm.block_digest_ns_per_cmd",
        ns_per_call(effort, || {
            black_box(black_box(&block).digest());
        }) / 100.0,
    );
}

fn crypto_probes(effort: Effort, out: &mut Report) {
    let kb = vec![0xA5u8; 1024];
    out.set(
        "crypto.sha256_ns_per_kb",
        ns_per_call(effort, || {
            black_box(crypto::sha256(black_box(&kb)));
        }),
    );
    let digest = Digest::of(b"benchmark vote");
    let ring73 = Keyring::new(7, 73);
    let signature = ring73.key(5).sign(&digest);
    out.set(
        "crypto.sign_ns",
        ns_per_call(effort, || {
            black_box(ring73.key(5).sign(black_box(&digest)));
        }),
    );
    out.set(
        "crypto.verify_ns",
        ns_per_call(effort, || {
            black_box(ring73.verify(black_box(&digest), black_box(&signature)));
        }),
    );
    let shares = |ring: &Keyring, count: usize| -> Vec<PartialSignature> {
        (0..count)
            .map(|id| PartialSignature::new(id, digest, ring.key(id).sign(&digest)))
            .collect()
    };
    for (n, name) in [
        (7, "crypto.qc_verify_ns_n7"),
        (73, "crypto.qc_verify_ns_n73"),
    ] {
        let ring = Keyring::new(7, n);
        let quorum = SystemConfig::new(n).quorum();
        let qc = QuorumCertificate::new(digest, 9, shares(&ring, quorum));
        assert!(qc.verify(&ring, quorum), "probe certificate must verify");
        out.set(
            name,
            ns_per_call(effort, || {
                black_box(black_box(&qc).verify(&ring, quorum));
            }),
        );
    }
    let entries = shares(&ring73, 73)
        .into_iter()
        .map(AggregateEntry::Vote)
        .collect();
    let aggregate = VoteAggregate::new(0, digest, entries);
    assert!(
        aggregate.verify_votes(&ring73),
        "probe aggregate must verify"
    );
    out.set(
        "crypto.aggregate_verify_ns_n73",
        ns_per_call(effort, || {
            black_box(black_box(&aggregate).verify_votes(&ring73));
        }),
    );
}

/// The OptiTree search space over a deployment's RTT matrix, as the policy
/// builds it before any suspicion: every replica a candidate, `k` = quorum.
pub fn tree_search_space(topology: Topology, seed: u64) -> TreeSearchSpace {
    let system = SystemConfig::new(topology.n);
    TreeSearchSpace {
        n: topology.n,
        branch: system.tree_branch_factor(),
        matrix_rtt_ms: topology.rtt_matrix(seed),
        candidates: (0..topology.n).collect(),
        k: system.quorum(),
    }
}

/// OptiTree's annealing budget (`OptiTreePolicy::new`).
pub fn tree_search_params() -> AnnealingParams {
    AnnealingParams {
        iterations: 4_000,
        ..Default::default()
    }
}

fn search_probes(effort: Effort, seed: u64, out: &mut Report) {
    let space = tree_search_space(Topology::of(Deployment::Global73), seed);
    let mut score = 0.0;
    out.set(
        "optitree.search_ms_n73",
        fastest(
            Effort {
                repeats: effort.repeats.min(3),
                ..effort
            },
            || {
                let start = Instant::now();
                score = search_tree(&space, tree_search_params(), seed).1;
                start.elapsed().as_secs_f64() * 1e3
            },
        ),
    );
    // On sim_global_tree the workload has already set its own tree's score.
    out.values.entry("optitree.tree_score_ms").or_insert(score);

    let small = tree_search_space(Topology::of(Deployment::Europe21), seed);
    let params = AnnealingParams::budgeted(if effort.min_ms < 1.0 { 200 } else { 4_000 });
    out.set(
        "core.annealing_iters_per_s",
        1.0 / fastest(effort, || {
            let start = Instant::now();
            let result = Annealer::new(params).search(&small, seed);
            start.elapsed().as_secs_f64() / result.iterations.max(1) as f64
        }),
    );

    // A fixed suspicion graph: 73 replicas, about one pair in two hundred
    // suspects the other (a dozen edges, as a handful of misbehaving
    // replicas would leave).
    let mut graph = SuspicionGraph::new(0..73);
    let mut state = 11u64;
    for a in 0..73 {
        for b in a + 1..73 {
            if lcg(&mut state).is_multiple_of(200) {
                graph.add_edge(a, b);
            }
        }
    }
    let selector = CandidateSelector::default();
    out.set(
        "core.candidate_select_ms_n73",
        ns_per_call(effort, || {
            black_box(selector.select(black_box(&graph)));
        }) / 1e6,
    );
}

fn small_probes(effort: Effort, out: &mut Report) {
    out.set(
        "configlog.apply_ns_per_cmd",
        fastest(effort, || {
            let commands = 10_000u64;
            let mut log: ConfigLog<u64> = ConfigLog::new(0, 16);
            let start = Instant::now();
            for epoch in 1..=commands {
                let cmd = ConfigCommand::Config {
                    epoch,
                    config: epoch,
                };
                black_box(log.apply(cmd, SimTime::from_micros(epoch)));
            }
            start.elapsed().as_secs_f64() * 1e9 / commands as f64
        }),
    );
    let recording = Telemetry::recording();
    let mut v = 0u64;
    out.set(
        "telemetry.record_ns_per_op",
        ns_per_call(effort, || {
            v += 1;
            recording.counter_add("benchmark.probe.ops", Some(0), 1);
            recording.observe("benchmark.probe.latency_us", Some(0), v % 10_000);
        }),
    );
}

/// The load-sweep traffic of the knee ladder and the simulated workloads:
/// 64 geo-placed clients, batches of 100 or 40 ms (deployd's batching rule).
pub fn sim_traffic(rate: f64, capacity: usize, slo_s: u64) -> TrafficSpec {
    TrafficSpec::poisson(rate)
        .with_clients(64)
        .with_batching(100, Duration::from_millis(40))
        .with_capacity(capacity)
        .with_slo(Duration::from_secs(slo_s))
}

/// The highest rung each substrate family sustains on Europe21/n=7 with
/// p99 ≤ 500 ms and ≥ 99 % committed — simulated, so exact for a seed.
fn knee_ladder(effort: Effort, seed: u64, out: &mut Report) {
    for (substrate, name) in [
        (Substrate::BftSmart, "lab.knee.bftsmart_ops_s"),
        (Substrate::HotStuffFixed, "lab.knee.hotstuff_fixed_ops_s"),
        (Substrate::Kauri, "lab.knee.kauri_ops_s"),
        (Substrate::OptiTree, "lab.knee.optitree_ops_s"),
    ] {
        let traffics = effort
            .rungs
            .iter()
            .map(|&rate| sim_traffic(rate, 5_000, 2))
            .collect();
        let scenario = ProtocolScenario::new(
            vec![substrate],
            vec![Topology::with_n(Deployment::Europe21, 7)],
        )
        .with_traffic_axis(traffics)
        .run_for(Duration::from_secs(effort.rung_secs));
        let spec = ScenarioSpec::new("knee", vec![seed], ScenarioKind::Protocol(scenario));
        let mut knee = 0.0;
        // Ascending, stopping at the first rung that fails.
        for (point, &rate) in spec.points().iter().zip(effort.rungs) {
            let cell = spec.run_cell(point, seed);
            let value = |key: &str| cell.values.get(key).copied().unwrap_or(0.0);
            let share = value("committed_ops") / value("offered_ops").max(1e-9);
            if value("e2e_p99_ms") > 500.0 || share < 0.99 {
                break;
            }
            knee = rate;
        }
        out.set(name, knee);
    }
}

/// Run every probe and the knee ladder into `out`.
pub fn probe_all(effort: Effort, seed: u64, out: &mut Report) {
    netsim_probes(effort, out);
    runtime_probes(effort, out);
    traffic_probes(effort, out);
    rsm_probes(effort, out);
    crypto_probes(effort, out);
    search_probes(effort, seed, out);
    small_probes(effort, out);
    knee_ladder(effort, seed, out);
}

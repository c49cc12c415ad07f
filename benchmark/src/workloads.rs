//! The five workloads. Each one sets the system up through public entry
//! points (timed, several times over), runs it once or — simulated — several
//! times in one process, reads the end-to-end and per-layer numbers off what
//! the public calls return, and checks the outputs are correct.
//!
//! Load is always the open-loop `traffic` schedule, precomputed from the
//! seed: Poisson arrivals, batches of 100. Latency is per command, from the
//! instant the schedule says it was due to its committed reply, so a stalled
//! leader is charged for every request that fell due while it stalled. The
//! generator is the in-process schedule: no generator threads, no extra
//! connections.

use crate::host::{self, Cost};
use crate::layers::{self, sim_traffic, tree_search_params, tree_search_space, Effort};
use crate::metrics::{layer_name, Report, PER_LAYER};
use crate::spans::Spans;
use crate::stats;
use deployd::{DeployConfig, RealRunReport};
use hotstuff::{HotStuffConfig, HotStuffNode, Pacemaker};
use kauri::{KauriBinsPolicy, KauriConfig, KauriNode, TreePolicy};
use lab::{
    mix_seed, AdversaryScript, Attack, CellMetrics, CompileContext, Deployment, LatencyWindow,
    ProtocolScenario, ScenarioKind, ScenarioSpec, Substrate, Target, Topology, TrafficSpec,
};
use runtime::{Duration, Node, RealCluster, SimTime, WireMsg};
use serde::{Number, Value};
use std::time::Instant;
use telemetry::{LatencyBreakdown, Phase, Registry, Stage, Telemetry};
use traffic::SharedTrafficQueue;

/// How one workload run is asked for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to measure: the wall-clock run of a real_* workload, and the
    /// budget simulated cells are repeated within (at least twice).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Tiny sizes, for the tests.
    pub smoke: bool,
}

/// A workload's report and, from a traced run, its span document.
pub struct Outcome {
    /// Metrics, counts and failed checks.
    pub report: Report,
    /// The benchmark-side spans as `trace_event` JSON (traced runs only).
    pub trace_json: Option<String>,
}

/// Run the named workload; `None` for a name outside the catalogue.
pub fn run(name: &str, opts: Options) -> Option<Outcome> {
    if let Some(w) = SimWorkload::named(name, opts.smoke, opts.seed) {
        return Some(w.run(opts));
    }
    RealWorkload::named(name, opts.smoke).map(|w| w.run(opts))
}

/// What one run of the system yielded, whichever runtime produced it.
struct Observed {
    /// Nominal run length, seconds.
    run_secs: f64,
    offered: u64,
    rejected: u64,
    abandoned: u64,
    committed: u64,
    /// Commands committed within the SLO.
    goodput: u64,
    /// Per committed command: (commit instant s, e2e latency ms).
    timeline: Vec<(f64, f64)>,
    /// Batches the admission queue dispatched.
    batches: usize,
    /// The run's own audit verdict (and digest agreement on real_*).
    audit_ok: bool,
    /// Per-layer numbers only the run's report carries.
    layer: Vec<(&'static str, f64)>,
}

/// How often set-up is repeated: at least `MIN` times, then until a second
/// has gone by, so that millisecond set-ups get enough repeats to settle.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 50;

fn repeat_setup(smoke: bool, mut setup: impl FnMut(&mut Spans)) -> f64 {
    let (min_repeats, budget_s) = if smoke {
        (2, 0.0)
    } else {
        (SETUP_MIN_REPEATS, 1.0)
    };
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_repeats
        || (started.elapsed().as_secs_f64() < budget_s && times.len() < SETUP_MAX_REPEATS)
    {
        let start = Instant::now();
        setup(&mut Spans::new());
        times.push(start.elapsed().as_secs_f64());
    }
    stats::median(&times)
}

/// Length of the schedule `generate` compiles for `horizon_s` seconds: the
/// sampler is sequential, so a shorter horizon yields a prefix.
fn schedule_len(spec: &TrafficSpec, ingress: &[f64], seed: u64, horizon_s: f64) -> u64 {
    let horizon = SimTime::from_micros((horizon_s.max(0.0) * 1e6) as u64);
    SharedTrafficQueue::generate(spec, ingress, seed, horizon)
        .report(1)
        .offered
}

/// Every committed command's latency, ascending.
fn sorted_latencies(obs: &Observed) -> Vec<f64> {
    let mut latencies: Vec<f64> = obs.timeline.iter().map(|&(_, ms)| ms).collect();
    latencies.sort_by(f64::total_cmp);
    latencies
}

/// Set a latency percentile and the sample counts printed beside it.
fn set_percentile(name: &'static str, q: f64, latencies: &[f64], out: &mut Report) -> usize {
    let beyond = stats::samples_beyond(latencies.len(), q);
    out.set(name, stats::percentile(latencies, q));
    out.notes
        .insert(name, format!("(n={}, {beyond} beyond)", latencies.len()));
    beyond
}

/// Eight of the nine end-to-end metrics of one run; `peak_rss_mb` is read
/// last, by [`finish_untraced`].
fn end_to_end(obs: &Observed, cost: Cost, setup_s: f64, smoke: bool, out: &mut Report) {
    let latencies = sorted_latencies(obs);
    let committed = obs.committed.max(1) as f64;
    out.set("setup_s", setup_s);
    set_percentile("e2e_p50_ms", 0.5, &latencies, out);
    let beyond = set_percentile("e2e_p95_ms", 0.95, &latencies, out);
    if !smoke && beyond < 1000 {
        out.problem(format!("only {beyond} samples beyond p95"));
    }
    out.set(
        "committed_share",
        obs.committed as f64 / obs.offered.max(1) as f64,
    );
    out.set("slo_goodput_ops_s", obs.goodput as f64 / obs.run_secs);
    out.set("cpu_us_per_op", cost.cpu_s * 1e6 / committed);
    out.set("allocs_per_op", cost.allocs as f64 / committed);
    out.set("alloc_kb_per_op", cost.bytes as f64 / 1e3 / committed);
}

fn outage_of(obs: &Observed) -> f64 {
    let commits: Vec<f64> = obs.timeline.iter().map(|&(t, _)| t).collect();
    stats::outage_s(&commits, 0.0, obs.run_secs)
}

/// Output checks every run must pass, and the attempted/failed counts.
///
/// `attempted` counts the commands due at least one SLO before the end of
/// the run; `failed` counts commands lost for good plus those still
/// uncommitted at the end beyond what fell due in that final SLO. Commands
/// refused by admission control are not failures of the system — shedding
/// them is sim_overload's purpose — and are charged to `committed_share`
/// and `slo_goodput_ops_s` instead.
fn check(obs: &Observed, schedule: u64, attempted: u64, out: &mut Report) {
    if !obs.audit_ok {
        out.problem("the run's audit verdict is not ok (audit.ok != 1 or digests diverge)");
    }
    if obs.offered != schedule {
        out.problem(format!(
            "offered {} differs from the schedule's length {schedule}",
            obs.offered
        ));
    }
    let accounted = obs.rejected + obs.committed + obs.abandoned;
    if accounted > obs.offered || obs.goodput > obs.committed {
        out.problem(format!(
            "batch conservation broken: rejected {} + committed {} + abandoned {} vs offered {}, goodput {}",
            obs.rejected, obs.committed, obs.abandoned, obs.offered, obs.goodput
        ));
    }
    if obs.committed as usize != obs.timeline.len() {
        out.problem(format!(
            "committed {} but {} latency samples",
            obs.committed,
            obs.timeline.len()
        ));
    }
    let unfinished = obs.offered.saturating_sub(accounted);
    let due_in_final_slo = obs.offered.saturating_sub(attempted);
    out.attempted = attempted;
    out.failed = obs.abandoned + unfinished.saturating_sub(due_in_final_slo);
}

/// Per-layer numbers read off the run's registry snapshot — the same names
/// whether the simulator or the real runtime filled it.
fn registry_layers(reg: &Registry, obs: &Observed, cost: Cost, out: &mut Report) {
    let counter_sum = |name: &str| -> f64 {
        reg.counters()
            .filter(|(k, _)| k.name == name)
            .fold(0.0, |sum, (_, v)| sum + v as f64)
    };
    let counter_max = |name: &str| -> f64 {
        reg.counters()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v as f64)
            .fold(0.0, f64::max)
    };
    let gauge_max = |name: &str| -> f64 {
        reg.gauges()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .fold(0.0, f64::max)
    };
    let events = counter_sum("netsim.sim.events");
    out.set("netsim.events_per_op", events / obs.committed.max(1) as f64);
    out.set("netsim.events_per_cpu_s", events / cost.cpu_s.max(1e-9));
    out.set(
        "netsim.cascades_per_kevent",
        counter_sum("netsim.engine.cascades") * 1e3
            / counter_sum("netsim.engine.scheduled").max(1.0),
    );
    out.set(
        "netsim.live_high_water",
        gauge_max("netsim.engine.live_high_water"),
    );
    let wait = reg.merged_histogram("traffic.queue.wait_us");
    out.set("traffic.queue_wait_p50_ms", wait.p50() as f64 / 1e3);
    out.set("traffic.queue_wait_p99_ms", wait.p99() as f64 / 1e3);
    out.set(
        "traffic.ops_per_batch",
        counter_sum("traffic.queue.dispatched") / obs.batches.max(1) as f64,
    );
    out.set(
        "traffic.rejected_share",
        obs.rejected as f64 / obs.offered.max(1) as f64,
    );
    out.set("traffic.depth_peak", gauge_max("traffic.queue.depth_peak"));
    out.set(
        "kauri.reconfigurations",
        counter_max("kauri.node.reconfigurations"),
    );
    out.set(
        "kauri.config_epoch_final",
        gauge_max("kauri.node.config_epoch"),
    );
    out.set(
        "pbft.commit_p50_ms",
        reg.merged_histogram("pbft.replica.commit_us").p50() as f64 / 1e3,
    );
    out.set(
        "audit.checked",
        reg.gauges()
            .filter(|(k, _)| k.name.starts_with("audit.") && k.name.ends_with(".checked"))
            .fold(0.0, |sum, (_, v)| sum + v),
    );
    out.set("audit.ok", gauge_max("audit.ok"));
}

/// The traced run's critical-path anatomy: where each committed command's
/// latency went, by phase.
fn breakdown_layers(telemetry: &Telemetry, out: &mut Report) {
    let breakdown = LatencyBreakdown::from_paths(&telemetry.command_paths());
    for phase in Phase::ALL {
        let name =
            |suffix: &str| layer_name(&format!("telemetry.breakdown.{}_{suffix}", phase.name()));
        out.set(name("p50_ms"), breakdown.phase(phase).p50() as f64 / 1e3);
        out.set(name("share"), breakdown.share(phase));
    }
}

/// The benchmark's own pass over the run's final registry: a fresh auditor
/// polls it (timed) and seals a strict verdict.
fn audit_pass(reg: &Registry, out: &mut Report) {
    let mut auditor = audit::Auditor::new();
    let start = Instant::now();
    auditor.poll(reg);
    out.set("audit.poll_us", start.elapsed().as_secs_f64() * 1e6);
    if !auditor.finish(reg).ok() {
        out.problem("a fresh auditor rejects the run's final registry");
    }
}

/// What a traced run hands to [`traced_tail`].
struct TracedRun {
    obs: Observed,
    /// The tracing handle the run recorded into.
    telemetry: Telemetry,
    traced: Cost,
    /// The untraced reference run of the same inputs, and what it committed.
    untraced: Cost,
    untraced_committed: u64,
    schedule: u64,
    attempted: u64,
    /// When the scripted attack began, if the workload has one.
    attack_onset_s: Option<f64>,
}

/// Everything after the traced run itself, the same for every workload:
/// audit it, read the per-layer numbers off it, then run the layer probes.
fn traced_tail(run: TracedRun, opts: Options, spans: &mut Spans, out: &mut Report) {
    let (obs, telemetry) = (run.obs, run.telemetry);
    let registry = telemetry.registry_snapshot();
    spans.scope("audit", |_| audit_pass(&registry, out));
    spans.scope("report", |_| {
        check(&obs, run.schedule, run.attempted, out);
        out.set("outage_s", outage_of(&obs));
        set_percentile("e2e_p99_ms", 0.99, &sorted_latencies(&obs), out);
        registry_layers(&registry, &obs, run.untraced, out);
        breakdown_layers(&telemetry, out);
        for &(name, value) in &obs.layer {
            out.set(name, value);
        }
        // Tracing may commit a few commands fewer on a real cluster, so the
        // overhead compares CPU per committed command.
        let per_op = |cost: Cost, committed: u64| cost.cpu_s / committed.max(1) as f64;
        out.set(
            "telemetry.trace_overhead_share",
            per_op(run.traced, obs.committed)
                / per_op(run.untraced, run.untraced_committed).max(1e-12)
                - 1.0,
        );
        if let Some(onset_s) = run.attack_onset_s {
            let reconfigurations = telemetry
                .with_trace_events(|events| {
                    events
                        .iter()
                        .filter(|e| e.stage == Stage::Reconfigure)
                        .map(|e| e.ts_us as f64 / 1e6)
                        .collect::<Vec<f64>>()
                })
                .unwrap_or_default();
            out.set(
                "optiaware.detect_s",
                stats::detect_s(&reconfigurations, onset_s),
            );
        }
    });
    // The trace sink can hold hundreds of MB; free it before the probes.
    drop((telemetry, registry, obs));
    spans.scope("layers", |_| {
        let effort = if opts.smoke {
            Effort::SMOKE
        } else {
            Effort::FULL
        };
        layers::probe_all(effort, opts.seed, out);
    });
}

/// Fill every per-layer metric the run did not set with 0 (a layer the
/// workload does not exercise), report span self times, and render the span
/// document with the per-layer numbers attached.
fn finish_traced(workload: &str, spans: &Spans, mut out: Report) -> Outcome {
    for m in PER_LAYER {
        let span = m
            .name
            .strip_prefix("span.")
            .and_then(|r| r.strip_suffix("_self_ms"));
        if let Some(span) = span {
            out.set(m.name, spans.self_ms(span));
        }
    }
    for m in PER_LAYER {
        out.values.entry(m.name).or_insert(0.0);
    }
    let extra = out
        .values
        .iter()
        .map(|(k, v)| (k.to_string(), Value::Num(Number::F64(*v))))
        .collect();
    Outcome {
        trace_json: Some(spans.to_trace_json(workload, extra)),
        report: out,
    }
}

/// The end of every untraced run: the end-to-end metrics, the output checks,
/// and last of all the process's peak resident set.
fn finish_untraced(
    obs: &Observed,
    cost: Cost,
    setup_s: f64,
    (schedule, attempted): (u64, u64),
    smoke: bool,
    mut out: Report,
) -> Outcome {
    end_to_end(obs, cost, setup_s, smoke, &mut out);
    check(obs, schedule, attempted, &mut out);
    out.set("peak_rss_mb", host::peak_rss_mb());
    Outcome {
        report: out,
        trace_json: None,
    }
}

// ---------------------------------------------------------------------------
// Simulated workloads: one `lab` cell each.
// ---------------------------------------------------------------------------

struct SimWorkload {
    name: &'static str,
    substrate: Substrate,
    topology: Topology,
    /// The seed handed to `lab`, which derives every seed of a cell from
    /// it: arrivals, client placement and the tree policy's search.
    cell_seed: u64,
    /// Offered load, cmd/s.
    rate: f64,
    queue_capacity: usize,
    sim_secs: u64,
    slo_s: u64,
    /// The optimised leader holds every proposal 800 ms during `[from, until)`.
    attack: Option<(u64, u64)>,
}

/// The proposal hold of sim_attack_aware: far beyond the SLO and the clean
/// round time (Fig 7's delay attack).
const ATTACK_HOLD_MS: u64 = 800;

/// The cell seed of the two tree workloads. A tree policy seeded otherwise
/// adopts another tree, and trees differ far more than any bound (Global73
/// p50 270–390 ms, Kauri n=7 capacity 4 800–6 200 cmd/s over four seeds):
/// the system's own randomness is pinned and `--seed` draws the load.
const TREE_CELL_SEED: u64 = 12;

/// `--seed` moves a tree workload's offered rate by up to ±0.1 %: every
/// arrival shifts, no bound is strained.
fn rate_jitter(seed: u64) -> f64 {
    let unit = mix_seed(seed, 0x10AD) as f64 / u64::MAX as f64;
    1.0 + (unit - 0.5) * 0.002
}

impl SimWorkload {
    fn named(name: &str, smoke: bool, seed: u64) -> Option<SimWorkload> {
        let full = match name {
            // 600 simulated s below the knee (capacity about 1240 cmd/s).
            "sim_global_tree" => SimWorkload {
                name: "sim_global_tree",
                substrate: Substrate::OptiTree,
                topology: Topology::of(Deployment::Global73),
                cell_seed: TREE_CELL_SEED,
                rate: 600.0 * rate_jitter(seed),
                queue_capacity: 10_000,
                sim_secs: 600,
                slo_s: 2,
                attack: None,
            },
            // The attack spans 35 %..85 % of the run; the leader role settles
            // at 1/8 of it, well before.
            "sim_attack_aware" => SimWorkload {
                name: "sim_attack_aware",
                substrate: Substrate::OptiAware,
                topology: Topology::of(Deployment::Europe21),
                // No seeded role policy here: the seed is the cell's own.
                cell_seed: seed,
                rate: 1000.0,
                queue_capacity: 10_000,
                sim_secs: 60,
                slo_s: 1,
                attack: Some((21, 51)),
            },
            // Offered about 3.3x capacity against a 50-batch queue.
            "sim_overload" => SimWorkload {
                name: "sim_overload",
                substrate: Substrate::Kauri,
                topology: Topology::with_n(Deployment::Europe21, 7),
                cell_seed: TREE_CELL_SEED,
                rate: 16_000.0 * rate_jitter(seed),
                queue_capacity: 5_000,
                sim_secs: 150,
                slo_s: 2,
                attack: None,
            },
            _ => return None,
        };
        Some(if smoke { full.shrunk() } else { full })
    }

    /// The same shape at a size the tests can afford.
    fn shrunk(mut self) -> Self {
        self.topology.n = self.topology.n.min(13);
        self.sim_secs = match self.attack {
            Some(_) => 16,
            None => 6,
        };
        self.attack = self.attack.map(|_| (6, 14));
        self
    }

    fn traffic(&self) -> TrafficSpec {
        sim_traffic(self.rate, self.queue_capacity, self.slo_s)
    }

    fn adversary(&self) -> AdversaryScript {
        match self.attack {
            None => AdversaryScript::clean(),
            Some((from, until)) => AdversaryScript::named("leader-delay").during(
                SimTime::from_secs(from),
                SimTime::from_secs(until),
                Attack::DelayProposals {
                    target: Target::OptimizedLeader,
                    delay: Duration::from_millis(ATTACK_HOLD_MS),
                },
            ),
        }
    }

    fn spec(&self) -> ScenarioSpec {
        let mut scenario = ProtocolScenario::new(vec![self.substrate], vec![self.topology])
            .with_adversaries(vec![self.adversary()])
            .with_traffic_axis(vec![self.traffic()])
            .run_for(Duration::from_secs(self.sim_secs));
        if let Some((from, until)) = self.attack {
            scenario.optimize_after = SimTime::from_secs(self.sim_secs / 8);
            scenario.windows = vec![
                LatencyWindow::new("clean", (self.sim_secs / 6) as f64, from as f64),
                LatencyWindow::new("attack", from as f64, until as f64),
                LatencyWindow::new("recovered", (until + 5) as f64, self.sim_secs as f64),
            ];
        }
        ScenarioSpec::new(
            self.name,
            vec![self.cell_seed],
            ScenarioKind::Protocol(scenario),
        )
    }

    /// The seeds `lab` derives from a cell's seed for its client placement,
    /// its arrivals and (first substrate of the scenario) its role policy.
    fn placement_seed(&self) -> u64 {
        mix_seed(self.cell_seed, 0xC11E_9701)
    }
    fn arrivals_seed(&self) -> u64 {
        mix_seed(self.cell_seed, 0x7AFF_1C00)
    }
    fn policy_seed(&self) -> u64 {
        mix_seed(self.cell_seed, 1)
    }

    fn ingress(&self) -> Vec<f64> {
        let clients = self.traffic().clients;
        self.topology
            .client_ingress_ms(clients, self.cell_seed, self.placement_seed())
    }

    /// Build inputs and system before the first request is due, through the
    /// same public functions a cell calls. Returns the predicted latency of
    /// the initial tree (0 where the substrate has none to search).
    fn setup(&self, spans: &mut Spans) -> f64 {
        let n = self.topology.n;
        let horizon = SimTime::from_secs(self.sim_secs);
        let (rtt, ingress) = spans.scope("place", |_| {
            (self.topology.rtt_matrix(self.cell_seed), self.ingress())
        });
        spans.scope("generate", |_| {
            SharedTrafficQueue::generate(&self.traffic(), &ingress, self.arrivals_seed(), horizon)
        });
        let policy_seed = self.policy_seed();
        spans.scope("compile", |_| {
            self.adversary().compile(&CompileContext {
                n,
                f: self.topology.f(),
                rtt: &rtt,
                horizon,
                substrate: self.substrate,
                policy_seed,
            })
        });
        spans.scope("search", |_| match self.substrate {
            Substrate::OptiTree => {
                let space = tree_search_space(self.topology, self.cell_seed);
                optitree::search_tree(&space, tree_search_params(), policy_seed).1
            }
            Substrate::Kauri => {
                let branch = rsm::SystemConfig::new(n).tree_branch_factor();
                KauriBinsPolicy::new(n, branch, policy_seed).next_tree(n, branch);
                0.0
            }
            _ => 0.0,
        })
    }

    fn observe(&self, mut cell: CellMetrics) -> (Observed, CellMetrics) {
        let value = |key: &str| cell.values.get(key).copied().unwrap_or(0.0);
        let run_secs = self.sim_secs as f64;
        let timeline = cell.series.remove("e2e_timeline").unwrap_or_default();
        let batches = cell.series.get("queue_depth_timeline").map_or(0, Vec::len);
        let mut layer = vec![
            ("rsm.consensus_p50_ms", value("p50_ms")),
            ("rsm.consensus_p99_ms", value("p99_ms")),
            ("rsm.blocks_committed", value("blocks")),
            ("configlog.epochs_adopted", value("adopted_epochs")),
        ];
        if self.substrate.is_pbft() {
            layer.extend([
                ("optiaware.reconfigurations", value("reconfigurations")),
                ("lab.lat_clean_ms", value("lat_clean_ms")),
                ("lab.lat_attack_ms", value("lat_attack_ms")),
                ("lab.lat_recovered_ms", value("lat_recovered_ms")),
                ("lab.goodput_attack_ops_s", value("goodput_attack_ops")),
            ]);
        }
        let observed = Observed {
            run_secs,
            offered: (value("offered_ops") * run_secs).round() as u64,
            rejected: value("rejected") as u64,
            abandoned: value("traffic.queue.abandoned") as u64,
            committed: timeline.len() as u64,
            goodput: (value("goodput_ops") * run_secs).round() as u64,
            timeline,
            batches,
            audit_ok: value("audit.ok") == 1.0,
            layer,
        };
        (observed, cell)
    }

    fn run(&self, opts: Options) -> Outcome {
        let mut out = Report::default();
        let spec = self.spec();
        let point = spec.points().remove(0);
        let cell = |telemetry: &Telemetry| {
            host::measure(|| spec.run_cell_with(&point, self.cell_seed, telemetry))
        };
        let ingress = self.ingress();
        let length = |horizon_s: f64| {
            schedule_len(&self.traffic(), &ingress, self.arrivals_seed(), horizon_s)
        };
        let schedule = length(self.sim_secs as f64);
        let attempted = length((self.sim_secs - self.slo_s) as f64);

        if !opts.traced {
            let setup_s = repeat_setup(opts.smoke, |spans| {
                self.setup(spans);
            });
            // Repeat the identical cell inside the time budget, at least
            // twice: simulated-clock numbers must agree bit for bit, and the
            // host cost is the minimum over the repeats.
            let started = Instant::now();
            let (first, mut cost) = cell(&Telemetry::recording());
            let (obs, first) = self.observe(first);
            let mut repeats = 1;
            while repeats < 2
                || (started.elapsed().as_secs_f64() + cost.wall_s <= opts.seconds && repeats < 8)
            {
                let (again, again_cost) = cell(&Telemetry::recording());
                let (again_obs, again) = self.observe(again);
                if again.values != first.values || again_obs.timeline != obs.timeline {
                    out.problem(format!(
                        "repeat {repeats} of the cell differs from the first"
                    ));
                }
                // Allocation counts wobble by one or two between repeats (hash
                // maps seeded per instance), so they take the minimum as well.
                cost.cpu_s = cost.cpu_s.min(again_cost.cpu_s);
                cost.allocs = cost.allocs.min(again_cost.allocs);
                cost.bytes = cost.bytes.min(again_cost.bytes);
                repeats += 1;
            }
            out.notes
                .insert("cpu_us_per_op", format!("(min of {repeats} repeats)"));
            return finish_untraced(&obs, cost, setup_s, (schedule, attempted), opts.smoke, out);
        }

        let mut spans = Spans::new();
        spans.scope("workload", |spans| {
            let tree_score_ms = self.setup(spans);
            let (_, untraced) = cell(&Telemetry::recording());
            let telemetry = Telemetry::tracing();
            let (cell_metrics, traced) = spans.scope("run", |_| cell(&telemetry));
            let (obs, _) = self.observe(cell_metrics);
            out.set("lab.cell_cpu_s", untraced.cpu_s);
            if self.substrate == Substrate::OptiTree {
                out.set("optitree.tree_score_ms", tree_score_ms);
            }
            let run = TracedRun {
                untraced_committed: obs.committed,
                obs,
                telemetry,
                traced,
                untraced,
                schedule,
                attempted,
                attack_onset_s: self.attack.map(|(from, _)| from as f64),
            };
            traced_tail(run, opts, spans, &mut out);
        });
        finish_traced(self.name, &spans, out)
    }
}

// ---------------------------------------------------------------------------
// Real-socket workloads: `deployd::run_cluster` on 127.0.0.1.
// ---------------------------------------------------------------------------

struct RealWorkload {
    name: &'static str,
    substrate: deployd::Substrate,
    n: usize,
    /// Offered load, at most half the capacity measured on a 2-core box
    /// (HotStuff n=4 about 390–430k cmd/s, Kauri n=7 about 195–200k).
    rate: f64,
}

/// deployd's fixed client population, SLO and batching rule
/// (`DeployConfig::traffic_queue`), restated to rebuild its schedule.
const REAL_CLIENTS: usize = 4;
const REAL_SLO_S: u64 = 1;
const BATCH: usize = 100;

impl RealWorkload {
    fn named(name: &str, smoke: bool) -> Option<RealWorkload> {
        let scale = if smoke { 0.1 } else { 1.0 };
        match name {
            "real_star" => Some(RealWorkload {
                name: "real_star",
                substrate: deployd::Substrate::HotStuff,
                n: 4,
                rate: 150_000.0 * scale,
            }),
            "real_tree" => Some(RealWorkload {
                name: "real_tree",
                substrate: deployd::Substrate::Kauri,
                n: 7,
                rate: 60_000.0 * scale,
            }),
            _ => None,
        }
    }

    fn traffic(&self) -> TrafficSpec {
        TrafficSpec::poisson(self.rate)
            .with_clients(REAL_CLIENTS)
            .with_batching(BATCH, Duration::from_millis(40))
            .with_slo(Duration::from_secs(REAL_SLO_S))
    }

    fn config(&self, seed: u64, secs: f64, telemetry: Telemetry) -> DeployConfig {
        let mut config = DeployConfig::new(self.substrate, self.n);
        config.rate = self.rate;
        config.clients = REAL_CLIENTS;
        config.batch_size = BATCH;
        config.seed = seed;
        config.run_for = Duration::from_micros((secs * 1e6) as u64);
        config.telemetry = telemetry;
        config
    }

    /// Build the schedule and the node set deployd would, launch them on
    /// real sockets, and stop them again before a request is served.
    fn setup(&self, seed: u64, secs: f64, spans: &mut Spans) {
        let horizon = SimTime::from_micros((secs * 1e6) as u64);
        let queue = spans.scope("generate", |_| {
            SharedTrafficQueue::generate(&self.traffic(), &[1.0; REAL_CLIENTS], seed, horizon)
        });
        let telemetry = Telemetry::recording();
        queue.set_telemetry(telemetry.clone());
        match self.substrate {
            deployd::Substrate::HotStuff => {
                let hs = HotStuffConfig::new(self.n, Pacemaker::Fixed { leader: 0 });
                let nodes = (0..self.n)
                    .map(|id| {
                        HotStuffNode::new(id, hs.system, hs.pacemaker, BATCH)
                            .with_traffic(Some(queue.clone()))
                            .with_telemetry(telemetry.clone())
                    })
                    .collect();
                launch_and_stop(nodes, spans);
            }
            deployd::Substrate::Kauri => {
                let ka = KauriConfig::new(self.n);
                let policy = || KauriBinsPolicy::new(self.n, ka.branch, seed);
                let nodes = spans.scope("search", |_| {
                    (0..self.n)
                        .map(|id| {
                            let mut policy = policy();
                            let tree = policy.next_tree(self.n, ka.branch);
                            KauriNode::new(
                                id,
                                ka.system,
                                tree,
                                Box::new(policy),
                                BATCH,
                                ka.pipeline,
                                ka.branch,
                                ka.reconfig_delay,
                            )
                            .with_traffic(Some(queue.clone()))
                            .with_telemetry(telemetry.clone())
                        })
                        .collect()
                });
                launch_and_stop(nodes, spans);
            }
        }
    }

    fn observe(&self, report: RealRunReport, run_secs: f64) -> Observed {
        let audit_ok = report.audit.ok() && report.digests_agree();
        let views = report
            .view_digests
            .iter()
            .flatten()
            .map(|&(view, _)| view)
            .max()
            .unwrap_or(0) as f64;
        let blocks = report.summary.committed_blocks as f64;
        let mut layer = vec![
            ("rsm.consensus_p50_ms", report.summary.p50_latency_ms),
            ("rsm.consensus_p99_ms", report.summary.p99_latency_ms),
            ("rsm.blocks_committed", blocks),
            (
                "deployd.run_overrun_ms",
                (report.wall_secs - run_secs) * 1e3,
            ),
        ];
        if self.substrate == deployd::Substrate::HotStuff {
            layer.push(("hotstuff.views", views));
            layer.push(("hotstuff.views_per_commit", views / blocks.max(1.0)));
        }
        let traffic = report
            .traffic
            .expect("the workload runs with a traffic queue");
        Observed {
            run_secs,
            offered: traffic.offered,
            rejected: traffic.rejected,
            abandoned: traffic.abandoned,
            committed: traffic.committed,
            goodput: traffic.goodput,
            batches: traffic.depth_timeline.len(),
            timeline: traffic.e2e_timeline,
            audit_ok,
            layer,
        }
    }

    fn run(&self, opts: Options) -> Outcome {
        let seed = opts.seed;
        let mut out = Report::default();
        let cluster = |secs: f64, telemetry: &Telemetry| {
            let config = self.config(seed, secs, telemetry.clone());
            let (report, cost) = host::measure(|| deployd::run_cluster(&config, &|| false));
            (report.expect("localhost cluster runs"), cost)
        };
        let lengths = |secs: f64| {
            let len =
                |horizon_s| schedule_len(&self.traffic(), &[1.0; REAL_CLIENTS], seed, horizon_s);
            (len(secs), len(secs - REAL_SLO_S as f64))
        };

        if !opts.traced {
            let secs = opts.seconds;
            let setup_s = repeat_setup(opts.smoke, |spans| self.setup(seed, secs, spans));
            let (report, cost) = cluster(secs, &Telemetry::recording());
            let obs = self.observe(report, secs);
            return finish_untraced(&obs, cost, setup_s, lengths(secs), opts.smoke, out);
        }

        // A traced run holds every span in memory: a third of the run
        // length each for the untraced reference and the traced run.
        let secs = (opts.seconds / 3.0).max(2.0);
        let mut spans = Spans::new();
        spans.scope("workload", |spans| {
            self.setup(seed, secs, spans);
            let (reference, untraced) = cluster(secs, &Telemetry::recording());
            let telemetry = Telemetry::tracing();
            let (report, traced) = spans.scope("run", |_| cluster(secs, &telemetry));
            let (schedule, attempted) = lengths(secs);
            let run = TracedRun {
                untraced_committed: reference.traffic.map_or(0, |t| t.committed),
                obs: self.observe(report, secs),
                telemetry,
                traced,
                untraced,
                schedule,
                attempted,
                attack_onset_s: None,
            };
            traced_tail(run, opts, spans, &mut out);
        });
        finish_traced(self.name, &spans, out)
    }
}

fn launch_and_stop<N>(nodes: Vec<N>, spans: &mut Spans)
where
    N: Node + Send + 'static,
    N::Msg: WireMsg + Clone,
{
    let cluster = spans.scope("launch", |_| {
        RealCluster::launch(nodes).expect("localhost cluster launches")
    });
    spans.scope("shutdown", |_| cluster.shutdown());
}

//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] names a scenario, the seeds to sweep, and a
//! [`ScenarioKind`] describing *what* to measure. Protocol scenarios are a
//! matrix of substrates × topologies × adversary scripts — the shape of the
//! paper's evaluation (§7) — and each analytic scenario kind captures one of
//! the non-simulation figures (candidate-set timing, SA search budgets,
//! proposal sizes, over-provisioning, the targeted-suspicion attack).
//!
//! The grid expands into [`Point`]s (parameter combinations); each point ×
//! seed is a *cell*, and [`ScenarioSpec::run_cell`] — a pure function of the
//! spec, the point, and the seed — produces that cell's [`CellMetrics`]. The
//! sweep runner fans cells across worker threads; determinism is guaranteed
//! because no state is shared between cells and each cell derives its RNG
//! stream from `mix_seed(seed, point)`.

use crate::adversary::{AdversaryScript, CompileContext};
use crate::harness::run;
use crate::results::{ci95, mean, timeline_mean, CellMetrics};
use crate::topology::Topology;
use hotstuff::{HotStuffConfig, Pacemaker};
use kauri::{KauriBinsPolicy, KauriCluster, KauriConfig, TreePolicy};
use netsim::{Duration, MatrixLatency, SimTime};
use optiaware::OptiAwarePolicy;
use optilog::{AnnealingParams, CandidateSelector, SelectionStrategy, SuspicionGraph};
use optitree::{
    search_tree, simulate_suspicion_attack, tree_score, AttackVariant, KauriSaPolicy,
    OptiTreePolicy, TreeSearchSpace,
};
use pbft::{PbftConfig, ReconfigPolicy, StaticPolicy};
use rand::rngs::StdRng;
use rand::seq::index;
use rand::{Rng, SeedableRng};
use rsm::{MisbehaviorPlan, RunReport, SystemConfig, TrafficSpec};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use telemetry::Telemetry;
use traffic::{ForwardingModel, SharedTrafficQueue, TrafficQueue};

/// Derive an independent RNG seed for a cell from the sweep seed and a salt
/// (SplitMix64 finaliser), so cells never share RNG streams across threads.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sample `count` distinct seeds from `0..pool`, deterministically from a
/// master seed — the sweep sampler for "N random seeds" scenarios.
pub fn sample_seeds(pool: u64, count: usize, master_seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(master_seed);
    index::sample(&mut rng, pool as usize, count.min(pool as usize))
        .into_iter()
        .map(|i| i as u64)
        .collect()
}

/// The consensus substrate a protocol scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Static PBFT (BFT-SMaRt): never reconfigures.
    BftSmart,
    /// Aware: deterministic latency optimisation, no suspicion handling.
    Aware,
    /// OptiAware: Aware + the OptiLog suspicion pipeline (§5).
    OptiAware,
    /// Chained HotStuff with a fixed leader.
    HotStuffFixed,
    /// Chained HotStuff with round-robin leaders.
    HotStuffRr,
    /// Kauri with random conformity-bin trees and pipelining.
    Kauri,
    /// Kauri with SA-optimised trees but no candidate set (§7.5 baseline).
    KauriSa,
    /// OptiTree with pipelining (§6).
    OptiTree,
    /// OptiTree without pipelining (Fig 11 / Fig 15 configuration).
    OptiTreeNoPipeline,
}

impl Substrate {
    /// Human-readable label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Substrate::BftSmart => "BFT-SMaRt",
            Substrate::Aware => "Aware",
            Substrate::OptiAware => "OptiAware",
            Substrate::HotStuffFixed => "HotStuff-fixed",
            Substrate::HotStuffRr => "HotStuff-rr",
            Substrate::Kauri => "Kauri",
            Substrate::KauriSa => "Kauri-sa",
            Substrate::OptiTree => "OptiTree",
            Substrate::OptiTreeNoPipeline => "OptiTree (no pipeline)",
        }
    }

    /// True for the PBFT-family substrates (reconfiguration policies; their
    /// cells need a traffic axis).
    pub fn is_pbft(&self) -> bool {
        matches!(
            self,
            Substrate::BftSmart | Substrate::Aware | Substrate::OptiAware
        )
    }

    /// True for the tree-overlay substrates.
    pub fn is_tree(&self) -> bool {
        matches!(
            self,
            Substrate::Kauri
                | Substrate::KauriSa
                | Substrate::OptiTree
                | Substrate::OptiTreeNoPipeline
        )
    }

    /// True if the substrate implements the protocol-level proposal-delay
    /// behaviour (`Attack::DelayProposals`). Every current substrate does,
    /// through the `rsm::MisbehaviorPlan` on its configuration. The match
    /// is deliberately
    /// exhaustive: adding a substrate forces an explicit decision here, and
    /// answering `false` makes adversary compilation fail loudly instead of
    /// silently substituting a network-level delay (see
    /// `AdversaryScript::compile`).
    pub fn protocol_delay_supported(&self) -> bool {
        match self {
            Substrate::BftSmart
            | Substrate::Aware
            | Substrate::OptiAware
            | Substrate::HotStuffFixed
            | Substrate::HotStuffRr
            | Substrate::Kauri
            | Substrate::KauriSa
            | Substrate::OptiTree
            | Substrate::OptiTreeNoPipeline => true,
        }
    }

    fn pbft_policy(
        &self,
        id: usize,
        n: usize,
        f: usize,
        optimize_after: SimTime,
    ) -> Box<dyn ReconfigPolicy> {
        match self {
            Substrate::BftSmart => Box::new(StaticPolicy),
            Substrate::Aware => Box::new(OptiAwarePolicy::aware(n, f, optimize_after)),
            Substrate::OptiAware => Box::new(OptiAwarePolicy::new(id, n, f, optimize_after)),
            other => panic!("{} is not a PBFT substrate", other.label()),
        }
    }

    /// Build this substrate's tree policy (tree substrates only).
    pub(crate) fn tree_policy(&self, n: usize, rtt: Vec<f64>, seed: u64) -> Box<dyn TreePolicy> {
        let system = SystemConfig::new(n);
        match self {
            Substrate::Kauri => {
                Box::new(KauriBinsPolicy::new(n, system.tree_branch_factor(), seed))
            }
            Substrate::KauriSa => Box::new(KauriSaPolicy::new(system, rtt, seed)),
            Substrate::OptiTree | Substrate::OptiTreeNoPipeline => {
                Box::new(OptiTreePolicy::new(system, rtt, seed))
            }
            other => panic!("{} is not a tree substrate", other.label()),
        }
    }
}

/// A named virtual-time window over which client latency is averaged
/// (the Fig 7 phases: pre-optimisation, optimised, under attack, recovered).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyWindow {
    /// Metric suffix (`lat_<label>_ms`).
    pub label: String,
    /// Window start, seconds of virtual time.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub to_s: f64,
}

impl LatencyWindow {
    /// Create a window.
    pub fn new(label: impl Into<String>, from_s: f64, to_s: f64) -> Self {
        LatencyWindow {
            label: label.into(),
            from_s,
            to_s,
        }
    }
}

/// A matrix of simulation runs: substrates × topologies × adversaries.
#[derive(Debug, Clone)]
pub struct ProtocolScenario {
    /// Substrate axis.
    pub substrates: Vec<Substrate>,
    /// Topology axis.
    pub topologies: Vec<Topology>,
    /// Adversary axis (use `AdversaryScript::clean()` for fault-free runs).
    pub adversaries: Vec<AdversaryScript>,
    /// Virtual run duration.
    pub duration: Duration,
    /// Offered-load axis. Empty = the paper's saturated workload, which only
    /// HotStuff and the trees have: a PBFT-family cell without a traffic
    /// axis panics. Non-empty = every cell drives its substrate from an
    /// open-loop traffic queue compiled from the cell's [`TrafficSpec`] —
    /// *every* substrate consumes the queue; there is no per-substrate
    /// fallback to a saturated source.
    pub traffics: Vec<TrafficSpec>,
    /// When measurement-driven policies may first reconfigure.
    pub optimize_after: SimTime,
    /// Delay between a tree failure and the next root resuming (models the
    /// configuration search, e.g. 1 s of simulated annealing).
    pub reconfig_delay: Option<Duration>,
    /// Latency windows to report: what clients see in traffic cells, the
    /// per-commit consensus latency in saturated ones.
    pub windows: Vec<LatencyWindow>,
}

impl ProtocolScenario {
    /// A fault-free scenario over the given axes with the paper's defaults.
    pub fn new(substrates: Vec<Substrate>, topologies: Vec<Topology>) -> Self {
        ProtocolScenario {
            substrates,
            topologies,
            adversaries: vec![AdversaryScript::clean()],
            duration: Duration::from_secs(120),
            traffics: Vec::new(),
            optimize_after: SimTime::from_secs(40),
            reconfig_delay: None,
            windows: Vec::new(),
        }
    }

    /// Replace the adversary axis.
    pub fn with_adversaries(mut self, adversaries: Vec<AdversaryScript>) -> Self {
        assert!(!adversaries.is_empty(), "adversary axis must be non-empty");
        self.adversaries = adversaries;
        self
    }

    /// Add an offered-load axis: every cell pulls proposals from an
    /// open-loop traffic queue instead of the saturated source.
    pub fn with_traffic_axis(mut self, traffics: Vec<TrafficSpec>) -> Self {
        assert!(!traffics.is_empty(), "traffic axis must be non-empty");
        self.traffics = traffics;
        self
    }

    /// Override the run duration.
    pub fn run_for(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    fn points(&self) -> Vec<Point> {
        // The traffic axis is optional: an empty list contributes one
        // "no-traffic" slot so the grid shape is unchanged for saturated
        // scenarios (and their point indices stay three-element).
        let traffic_axis: Vec<Option<usize>> = if self.traffics.is_empty() {
            vec![None]
        } else {
            (0..self.traffics.len()).map(Some).collect()
        };
        let mut out = Vec::new();
        for (si, s) in self.substrates.iter().enumerate() {
            for (ti, t) in self.topologies.iter().enumerate() {
                for (ai, a) in self.adversaries.iter().enumerate() {
                    for tri in &traffic_axis {
                        let mut parts = Vec::new();
                        if self.substrates.len() > 1 {
                            parts.push(s.label().to_string());
                        }
                        if self.topologies.len() > 1 {
                            parts.push(t.label());
                        }
                        if self.adversaries.len() > 1 {
                            parts.push(a.label.clone());
                        }
                        if self.traffics.len() > 1 {
                            parts.push(self.traffics[tri.expect("axis present")].label());
                        }
                        let label = if parts.is_empty() {
                            s.label().to_string()
                        } else {
                            parts.join(" | ")
                        };
                        let mut params = BTreeMap::from([
                            ("substrate".to_string(), s.label().to_string()),
                            ("topology".to_string(), t.label()),
                            ("adversary".to_string(), a.label.clone()),
                        ]);
                        let mut idx = vec![si, ti, ai];
                        if let Some(tri) = tri {
                            params.insert("traffic".to_string(), self.traffics[*tri].label());
                            idx.push(*tri);
                        }
                        out.push(Point { label, params, idx });
                    }
                }
            }
        }
        out
    }

    /// Run one cell with an explicit telemetry handle. Every cell records
    /// metrics (the recording tier is always on), so installing a trace sink
    /// on top can never change the registry — the foundation of the
    /// traced-vs-untraced BENCH byte-identity guarantee.
    pub fn run_cell_with(&self, point: &Point, seed: u64, telemetry: &Telemetry) -> CellMetrics {
        // Windowed time-series sampling on a 1 s simulated-time cadence: the
        // netsim engine ticks the sampler at virtual-second boundaries, so
        // window contents depend only on the event sequence — identical
        // across `--threads` and across traced/untraced runs.
        telemetry.install_timeseries(1_000_000);
        let (substrate, topology, adversary) = (
            self.substrates[point.idx[0]],
            self.topologies[point.idx[1]],
            &self.adversaries[point.idx[2]],
        );
        let n = topology.n;
        let f = topology.f();
        let rtt = topology.rtt_matrix(seed);
        let policy_seed = mix_seed(seed, point.idx[0] as u64 + 1);
        let compiled = adversary.compile(&CompileContext {
            n,
            f,
            rtt: &rtt,
            horizon: SimTime::ZERO + self.duration,
            substrate,
            policy_seed,
        });
        let run_secs = self.duration.as_micros() / 1_000_000;

        // Offered-load cells compile their TrafficSpec into a per-run queue:
        // geo-placed clients (same city subset and replica placement as the
        // topology's RTT matrix) feeding the leader-side admission queue
        // every substrate pulls batches from.
        let traffic = point.idx.get(3).map(|&tri| {
            let spec = &self.traffics[tri];
            let placed = topology.place_clients(spec.clients, seed, mix_seed(seed, 0xC11E_9701));
            let ingress: Vec<f64> = placed.iter().map(|p| p.ingress_ms).collect();
            let nearest: Vec<usize> = placed.iter().map(|p| p.nearest).collect();
            // Requests entering through a non-leader replica pay the explicit
            // ingress→leader forwarding hop on top of consensus latency.
            let queue = TrafficQueue::generate(
                spec,
                &ingress,
                mix_seed(seed, 0x7AFF_1C00),
                SimTime::ZERO + self.duration,
            )
            .with_forwarding(ForwardingModel::from_rtt(nearest, &rtt, n));
            let shared = SharedTrafficQueue::new(queue);
            shared.set_telemetry(telemetry.clone());
            shared
        });

        let mut metrics = CellMetrics::new();
        // The post-cell consensus auditor: `record_common` feeds it the exact
        // per-replica checkpoint histories (and provenance evidence) of the
        // run's report; after the run it balances conservation against the
        // registry and lands its verdict in the cell as `audit.*` gauges
        // (deterministic inputs, so BENCH json stays byte-identical across
        // `--threads`).
        let mut auditor = audit::Auditor::new();
        // The script's protocol-level delay attacks as the one plan every
        // family's configuration carries.
        let mut misbehavior = MisbehaviorPlan::none();
        for atk in &compiled.delay_attacks {
            misbehavior.delay_proposals_during(atk.replica, atk.delay, atk.from, atk.until);
        }
        let faults = compiled.faults;
        // Every arm builds its family's configuration, runs it through the
        // one harness, records its family's metrics and yields the report's
        // per-commit consensus-latency timeline: what a `LatencyWindow`
        // averages in a saturated cell, which has no clients to ask.
        let latency_timeline = if substrate.is_pbft() {
            let traffic = traffic.clone().unwrap_or_else(|| {
                panic!(
                    "{} proposes only from an open-loop traffic queue: \
                     give the scenario a traffic axis (ProtocolScenario::with_traffic_axis)",
                    substrate.label()
                )
            });
            let mut cfg = PbftConfig::new(n, f, traffic, |id| {
                substrate.pbft_policy(id, n, f, self.optimize_after)
            })
            .run_for(self.duration);
            cfg.misbehavior = misbehavior;
            cfg.telemetry = telemetry.clone();
            let latency = Box::new(MatrixLatency::from_rtt_millis(n, &rtt));
            let (report, _) = run(&cfg, latency, faults);
            record_common(&report, &mut metrics, &mut auditor);
            metrics.set(
                "reconfigurations",
                report.roles.reconfigurations.len() as f64,
            );
            report.latency_timeline
        } else if substrate.is_tree() {
            let mut cfg = KauriConfig::new(n);
            cfg.run_for = self.duration;
            cfg.misbehavior = misbehavior;
            cfg.traffic = traffic.clone();
            cfg.telemetry = telemetry.clone();
            if substrate == Substrate::OptiTreeNoPipeline {
                cfg.pipeline = 1;
            }
            if let Some(d) = self.reconfig_delay {
                cfg.reconfig_delay = d;
            }
            // The run's initial tree, reproduced through the same seeded
            // policy: the reference for the role-retention metrics below.
            let initial_tree = substrate
                .tree_policy(n, rtt.clone(), policy_seed)
                .next_tree(n, SystemConfig::new(n).tree_branch_factor());
            let latency = Box::new(MatrixLatency::from_rtt_millis(n, &rtt));
            let cluster = KauriCluster::new(cfg, move |_| {
                substrate.tree_policy(n, rtt.clone(), policy_seed)
            });
            let (report, _) = run(&cluster, latency, faults);
            record_common(&report, &mut metrics, &mut auditor);
            let roles = &report.roles;
            // Role bookkeeping from the configuration log: the suspicion-
            // pair evidence committed through it, the policy's exclusions,
            // and whether roles survived where they should (an innocent
            // root keeps its role; a scripted delayer does not keep an
            // internal position).
            let yes_no = |b: bool| if b { 1.0 } else { 0.0 };
            metrics
                .set("reconfigurations", roles.reconfigurations as f64)
                .set("committed_pairs", roles.committed_pairs.len() as f64)
                .set("adopted_epochs", roles.adopted_epochs as f64)
                .set("excluded_count", roles.excluded.len() as f64)
                .set(
                    "root_retained",
                    yes_no(roles.final_tree.root == initial_tree.root),
                )
                .set(
                    "initial_root_excluded",
                    yes_no(roles.excluded.contains(&initial_tree.root)),
                );
            if let Some(atk) = compiled.delay_attacks.first() {
                metrics
                    .set(
                        "attacker_excluded",
                        yes_no(roles.excluded.contains(&atk.replica)),
                    )
                    .set(
                        "attacker_internal_final",
                        yes_no(roles.final_tree.internal_nodes().contains(&atk.replica)),
                    )
                    .set(
                        "pairs_accuse_attacker",
                        yes_no(
                            roles
                                .committed_pairs
                                .iter()
                                .any(|p| !p.reciprocal && p.accused == atk.replica),
                        ),
                    );
            }
            metrics.set_series(
                "throughput_timeline",
                report
                    .throughput_timeline
                    .iter()
                    .enumerate()
                    .map(|(sec, &ops)| (sec as f64, ops as f64))
                    .collect(),
            );
            metrics.set_series("latency_timeline", report.latency_timeline.clone());
            report.latency_timeline
        } else {
            let pacemaker = match substrate {
                Substrate::HotStuffFixed => Pacemaker::Fixed { leader: 0 },
                _ => Pacemaker::RoundRobin,
            };
            let mut cfg = HotStuffConfig::new(n, pacemaker);
            cfg.run_for = self.duration;
            cfg.misbehavior = misbehavior;
            cfg.traffic = traffic.clone();
            cfg.telemetry = telemetry.clone();
            let latency = Box::new(MatrixLatency::from_rtt_millis(n, &rtt));
            let (report, _) = run(&cfg, latency, faults);
            record_common(&report, &mut metrics, &mut auditor);
            metrics.set("views", report.roles.views as f64);
            metrics.set_series("latency_timeline", report.latency_timeline.clone());
            report.latency_timeline
        };
        if let Some(queue) = &traffic {
            // Client-side metrics: offered vs committed vs goodput, the
            // end-to-end latency distribution, and queue-pressure evidence.
            let tr = queue.report(run_secs);
            metrics
                .set("offered_ops", tr.offered_ops)
                .set("committed_ops", tr.committed_ops)
                .set("goodput_ops", tr.goodput_ops)
                .set("rejected", tr.rejected as f64)
                .set("e2e_mean_ms", tr.e2e_mean_ms)
                .set("e2e_p50_ms", tr.e2e_p50_ms)
                .set("e2e_p99_ms", tr.e2e_p99_ms)
                .set("queue_depth_max", tr.max_depth as f64);
            // In traffic mode, latency windows measure what the *client*
            // sees — uniformly across substrates — and each window also
            // reports its goodput rate. (Windows first: the timelines are
            // moved, not re-cloned, into the series afterwards — the e2e
            // timeline holds one point per command.)
            for w in &self.windows {
                metrics.set(
                    format!("lat_{}_ms", w.label),
                    timeline_mean(&tr.e2e_timeline, w.from_s, w.to_s),
                );
                let in_window: f64 = tr
                    .goodput_timeline
                    .iter()
                    .filter(|&&(t, _)| t >= w.from_s && t < w.to_s)
                    .map(|&(_, v)| v)
                    .sum();
                metrics.set(
                    format!("goodput_{}_ops", w.label),
                    in_window / (w.to_s - w.from_s).max(1e-9),
                );
            }
            metrics.set_series("e2e_timeline", tr.e2e_timeline);
            metrics.set_series("goodput_timeline", tr.goodput_timeline);
            metrics.set_series("queue_depth_timeline", tr.depth_timeline);
        } else {
            for w in &self.windows {
                metrics.set(
                    format!("lat_{}_ms", w.label),
                    timeline_mean(&latency_timeline, w.from_s, w.to_s),
                );
            }
        }
        // Finish the audit before draining the registry: the final strict
        // conservation pass runs against the settled registry, and the
        // published `audit.*` gauges land in the drain below like any other
        // metric (surfacing the verdict in BENCH json).
        let audit_report = auditor.finish(&telemetry.registry_snapshot());
        audit_report.publish(telemetry);
        // Drain the telemetry registry into the cell: counters summed and
        // gauges maxed across replicas, histograms merged (the log-linear
        // buckets make the merge order-independent). All values are
        // simulated-time quantities, so the drained metrics — and therefore
        // BENCH json — stay byte-identical across `--threads` and across
        // traced/untraced runs.
        let registry = telemetry.registry_snapshot();
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        for (key, v) in registry.counters() {
            *counters.entry(key.name.as_str()).or_default() += v;
        }
        for (name, v) in counters {
            metrics.set(name, v as f64);
        }
        let mut gauges: BTreeMap<&str, f64> = BTreeMap::new();
        for (key, v) in registry.gauges() {
            let slot = gauges.entry(key.name.as_str()).or_insert(f64::NEG_INFINITY);
            *slot = slot.max(v);
        }
        for (name, v) in gauges {
            metrics.set(name, v);
        }
        let hist_names: std::collections::BTreeSet<String> = registry
            .histograms()
            .map(|(key, _)| key.name.clone())
            .collect();
        for name in hist_names {
            let merged = registry.merged_histogram(&name);
            if merged.count() == 0 {
                continue;
            }
            metrics
                .set(format!("{name}.count"), merged.count() as f64)
                .set(format!("{name}.mean"), merged.mean())
                .set(format!("{name}.p50"), merged.p50() as f64)
                .set(format!("{name}.p99"), merged.p99() as f64);
        }
        // Drain the closed time-series windows as `ts.*` cell series —
        // per-window counter deltas, gauge values, and histogram increments
        // over simulated time, landing in BENCH json next to the timelines.
        if let Some(ts) = telemetry.timeseries_snapshot() {
            for (name, points) in ts.series() {
                metrics.set_series(name, points);
            }
        }
        metrics
    }

    /// Run one cell with a trace sink, attribute every committed command's
    /// e2e latency from the captured spans, and append the critical-path
    /// breakdown to the cell metrics (the `--breakdown` sweep mode).
    ///
    /// End-to-end latency only exists where clients do: a scenario running
    /// the saturated workload (no traffic axis) gets the same `probe_load`
    /// that [`ScenarioSpec::run_cell_traced`] injects, so every sweep has a
    /// commit path to attribute. Per-cell sinks are
    /// thread-independent, so breakdown-bearing BENCH json stays
    /// byte-identical across `--threads`.
    pub fn run_cell_breakdown(&self, point: &Point, seed: u64) -> CellMetrics {
        let telemetry = Telemetry::tracing();
        let mut metrics = if self.traffics.is_empty() {
            let mut loaded = self.clone();
            loaded.traffics = vec![probe_load()];
            let mut point = point.clone();
            point.idx.push(0);
            loaded.run_cell_with(&point, seed, &telemetry)
        } else {
            self.run_cell_with(point, seed, &telemetry)
        };
        let paths = telemetry.command_paths();
        append_breakdown_metrics(&mut metrics, &paths, &self.windows);
        metrics
    }
}

/// The open-loop load injected into a saturated-workload scenario whenever a
/// cell needs clients to observe (`--breakdown` cells and the `--trace`
/// cell): Poisson 300 cmd/s from 16 clients, batches of 60 or 40 ms.
fn probe_load() -> TrafficSpec {
    TrafficSpec::poisson(300.0)
        .with_clients(16)
        .with_batching(60, Duration::from_millis(40))
}

/// The metrics path every family shares: the six consensus-side summary
/// metrics of the common report, and the one audit feed.
fn record_common<R, P: audit::Provenance>(
    report: &RunReport<R, P>,
    metrics: &mut CellMetrics,
    auditor: &mut audit::Auditor,
) {
    audit::feed_auditor(
        auditor,
        report.oracle,
        &report.checkpoints,
        &report.provenance,
    );
    let s = &report.summary;
    metrics
        .set("throughput_ops", s.throughput_ops)
        .set("sustained_ops", s.sustained_ops)
        .set("latency_ms", s.mean_latency_ms)
        .set("p50_ms", s.p50_latency_ms)
        .set("p99_ms", s.p99_latency_ms)
        .set("blocks", s.committed_blocks as f64);
}

/// Fold attributed [`CommandPath`]s into `breakdown.*` cell metrics: the
/// whole-run per-phase quantiles and shares, plus per-[`LatencyWindow`]
/// phase means (commands bucketed by commit instant) so an attack window's
/// anatomy is directly comparable against the clean windows around it.
pub fn append_breakdown_metrics(
    metrics: &mut CellMetrics,
    paths: &[telemetry::CommandPath],
    windows: &[LatencyWindow],
) {
    use telemetry::{LatencyBreakdown, Phase};
    let all = LatencyBreakdown::from_paths(paths.iter());
    metrics.set("breakdown.commands", all.count() as f64);
    for row in all.rows() {
        metrics
            .set(format!("breakdown.{}.mean_ms", row.phase), row.mean_ms)
            .set(format!("breakdown.{}.p50_ms", row.phase), row.p50_ms)
            .set(format!("breakdown.{}.p99_ms", row.phase), row.p99_ms)
            .set(format!("breakdown.{}.share", row.phase), row.share);
    }
    for w in windows {
        let wb = LatencyBreakdown::from_paths(
            paths
                .iter()
                .filter(|p| p.committed_s >= w.from_s && p.committed_s < w.to_s),
        );
        metrics.set(format!("breakdown.{}.commands", w.label), wb.count() as f64);
        metrics.set(
            format!("breakdown.{}.e2e_p99_ms", w.label),
            wb.e2e().p99() as f64 / 1e3,
        );
        for phase in Phase::ALL {
            metrics.set(
                format!("breakdown.{}.{}.mean_ms", w.label, phase.name()),
                wb.phase(phase).mean() / 1e3,
            );
        }
    }
}

/// Fig 8: time to compute the candidate set from random suspicion graphs.
#[derive(Debug, Clone)]
pub struct CandidateTimingScenario {
    /// Graph sizes to time.
    pub sizes: Vec<usize>,
    /// Random graphs per size.
    pub graphs_per_size: usize,
    /// Edge probability of the suspicion graphs.
    pub edge_prob: f64,
    /// Bron–Kerbosch expansion budget.
    pub budget: u64,
}

impl CandidateTimingScenario {
    fn run_cell(&self, n: usize, seed: u64) -> CellMetrics {
        let selector = CandidateSelector::new(SelectionStrategy::MaxIndependentSet {
            budget: self.budget as usize,
        });
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, n as u64));
        let mut times_ms = Vec::new();
        for _ in 0..self.graphs_per_size {
            let mut g = SuspicionGraph::new(0..n);
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(self.edge_prob) {
                        g.add_edge(a, b);
                    }
                }
            }
            let start = std::time::Instant::now();
            let sel = selector.select(&g);
            times_ms.push(start.elapsed().as_secs_f64() * 1000.0);
            assert!(!sel.candidates.is_empty());
        }
        let mut m = CellMetrics::new();
        m.set("time_ms", mean(&times_ms))
            .set("time_ci95_ms", ci95(&times_ms))
            .set(
                "time_max_ms",
                times_ms.iter().cloned().fold(0.0f64, f64::max),
            );
        m
    }
}

/// Fig 10: tree latency under the targeted-suspicion attack, per variant.
#[derive(Debug, Clone)]
pub struct SuspicionAttackScenario {
    /// Number of replicas (randomly distributed across the world).
    pub n: usize,
    /// Reconfigurations the attack forces.
    pub steps: usize,
    /// Report the score every this many reconfigurations.
    pub report_every: usize,
}

impl SuspicionAttackScenario {
    fn variants() -> [AttackVariant; 3] {
        [
            AttackVariant::Kauri,
            AttackVariant::KauriSa,
            AttackVariant::OptiTree,
        ]
    }

    fn run_cell(&self, variant_idx: usize, seed: u64) -> CellMetrics {
        let variant = Self::variants()[variant_idx];
        let matrix = crate::topology::Deployment::WorldRandom.rtt_matrix(self.n, seed);
        let outcome = simulate_suspicion_attack(variant, self.n, &matrix, self.steps, seed);
        let mut m = CellMetrics::new();
        for (step, &score) in outcome.scores.iter().enumerate() {
            if step % self.report_every == 0 {
                m.set(format!("score_u{step:03}"), score);
            }
        }
        m.set_series(
            "score_by_reconf",
            outcome
                .scores
                .iter()
                .enumerate()
                .map(|(i, &s)| (i as f64, s))
                .collect(),
        );
        m
    }
}

/// Fig 12: tree latency as a function of the SA search budget.
///
/// Budgets are iterations per calibrated wall-clock second, not fixed
/// counts: the same search seconds buy as many iterations as the host runs
/// in that time, so a faster annealing step raises every budget (the
/// allocation-free step runs about 6× the iterations per second of one that
/// built a tree per iteration, on the same host) and lowers the scores with
/// it. Compare runs by their `iterations` column, not by search time alone.
#[derive(Debug, Clone)]
pub struct TreeSearchScenario {
    /// Configuration sizes.
    pub sizes: Vec<usize>,
    /// Search budgets in (calibrated) seconds.
    pub search_secs: Vec<f64>,
    /// Iterations used to calibrate iterations-per-second.
    pub calibration_iters: usize,
}

impl TreeSearchScenario {
    /// Calibrate once per process *per calibration budget*: wall-clock
    /// iterations/second of the SA search on a small configuration. Shared
    /// by all cells of a sweep so their iteration budgets are identical
    /// regardless of worker count; keyed by `calibration_iters` so two
    /// scenarios with different budgets do not silently share a rate.
    fn iterations_per_second(&self) -> f64 {
        static RATES: OnceLock<Mutex<BTreeMap<usize, f64>>> = OnceLock::new();
        let rates = RATES.get_or_init(|| Mutex::new(BTreeMap::new()));
        let mut rates = rates.lock().expect("calibration cache poisoned");
        *rates.entry(self.calibration_iters).or_insert_with(|| {
            let sp = Self::space(57, 0);
            let start = std::time::Instant::now();
            let _ = search_tree(
                &sp,
                AnnealingParams {
                    iterations: self.calibration_iters,
                    ..Default::default()
                },
                0,
            );
            self.calibration_iters as f64 / start.elapsed().as_secs_f64().max(1e-9)
        })
    }

    fn space(n: usize, seed: u64) -> TreeSearchSpace {
        let system = SystemConfig::new(n);
        TreeSearchSpace {
            n,
            branch: system.tree_branch_factor(),
            matrix_rtt_ms: crate::topology::Deployment::WorldRandom.rtt_matrix(n, seed),
            candidates: (0..n).collect(),
            k: system.quorum(),
        }
    }

    fn run_cell(&self, size_idx: usize, secs_idx: usize, seed: u64) -> CellMetrics {
        let n = self.sizes[size_idx];
        let secs = self.search_secs[secs_idx];
        let params = AnnealingParams::from_search_time(secs, self.iterations_per_second());
        let sp = Self::space(n, seed);
        let (_, score) = search_tree(&sp, params, seed);
        let mut m = CellMetrics::new();
        m.set("score_ms", score)
            .set("iterations", params.iterations as f64);
        m
    }
}

/// Fig 13: proposal size with different OptiLog sensors enabled.
#[derive(Debug, Clone)]
pub struct ProposalSizeScenario {
    /// Configuration sizes.
    pub sizes: Vec<usize>,
    /// Block header + batching metadata bytes without OptiLog.
    pub base_bytes: usize,
}

/// Bytes of a logged configuration proposal ahead of its `n`-byte payload:
/// proposer, epoch and score, eight bytes each.
const CONFIG_PROPOSAL_HEADER_BYTES: usize = 24;

impl ProposalSizeScenario {
    fn run_cell(&self, n: usize) -> CellMetrics {
        use crypto::{Complaint, Digest, Keyring, MisbehaviorKind, MisbehaviorProof};
        use optilog::{LatencyVector, Suspicion, SuspicionKind};

        // Every log entry carries a one-byte tag naming its kind ahead of
        // the entry's own encoding.
        let entry = |bytes: usize| 1 + bytes;
        let base = self.base_bytes;
        let lv = entry(LatencyVector::new(0, vec![1.0; n]).wire_bytes());
        let suspicion = entry(
            Suspicion {
                kind: SuspicionKind::Slow,
                accuser: 1,
                accused: 2,
                round: 10,
                phase: 2,
                accuser_is_leader: false,
            }
            .wire_bytes(),
        );
        let ring = Keyring::new(1, n);
        let d1 = Digest::of(b"proposal-a");
        let d2 = Digest::of(b"proposal-b");
        let proof = MisbehaviorProof {
            accused: 3,
            kind: MisbehaviorKind::Equivocation {
                view: 5,
                first: (d1, ring.key(3).sign(&d1)),
                second: (d2, ring.key(3).sign(&d2)),
            },
        };
        let complaint = entry(Complaint::new(0, proof, &ring).wire_bytes());
        // A configuration proposal's payload is one byte per replica.
        let config = entry(CONFIG_PROPOSAL_HEADER_BYTES + n);

        let mut m = CellMetrics::new();
        m.set("bytes_base", base as f64)
            .set("bytes_latency_vec", (base + lv) as f64)
            // A handful of suspicions ride on a proposal during instability.
            .set("bytes_suspicions", (base + lv + 4 * suspicion) as f64)
            .set("bytes_misbehavior", (base + lv + complaint + config) as f64);
        m
    }
}

/// Fig 14: cost of over-provisioning the score function for `u` faulty leaves.
#[derive(Debug, Clone)]
pub struct OverprovisionScenario {
    /// Configuration sizes.
    pub sizes: Vec<usize>,
    /// Provisioning percentages (`u = n · pct / 100`).
    pub percents: Vec<usize>,
    /// SA iteration budget per search.
    pub iterations: usize,
}

impl OverprovisionScenario {
    fn run_cell(&self, size_idx: usize, pct_idx: usize, seed: u64) -> CellMetrics {
        let n = self.sizes[size_idx];
        let pct = self.percents[pct_idx];
        let system = SystemConfig::new(n);
        let u = (n * pct) / 100;
        let k = (system.quorum() + u).min(n);
        let matrix = crate::topology::Deployment::WorldRandom.rtt_matrix(n, seed);
        let sp = TreeSearchSpace {
            n,
            branch: system.tree_branch_factor(),
            matrix_rtt_ms: matrix.clone(),
            candidates: (0..n).collect(),
            k,
        };
        let (tree, _) = search_tree(
            &sp,
            AnnealingParams {
                iterations: self.iterations,
                ..Default::default()
            },
            seed,
        );
        let mut m = CellMetrics::new();
        m.set("score_ms", tree_score(&tree, &matrix, n, k))
            .set("u", u as f64);
        m
    }
}

/// What a scenario measures.
#[derive(Debug, Clone)]
pub enum ScenarioKind {
    /// Simulation runs over substrates × topologies × adversaries.
    Protocol(ProtocolScenario),
    /// Fig 8: candidate-set computation time.
    CandidateTiming(CandidateTimingScenario),
    /// Fig 10: the targeted-suspicion attack.
    SuspicionAttack(SuspicionAttackScenario),
    /// Fig 12: SA search budget vs tree latency.
    TreeSearch(TreeSearchScenario),
    /// Fig 13: proposal wire sizes.
    ProposalSize(ProposalSizeScenario),
    /// Fig 14: over-provisioned score targets.
    Overprovision(OverprovisionScenario),
}

/// One point of a scenario grid.
#[derive(Debug, Clone)]
pub struct Point {
    /// Display label (also the JSON point label).
    pub label: String,
    /// Axis values, for the JSON `params` object.
    pub params: BTreeMap<String, String>,
    /// Per-axis indices into the owning scenario's lists.
    pub(crate) idx: Vec<usize>,
}

/// A named, seeded scenario: the unit the sweep runner executes.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name; the JSON file is `BENCH_<name>.json`.
    pub name: String,
    /// Seeds swept for every point.
    pub seeds: Vec<u64>,
    /// What to measure.
    pub kind: ScenarioKind,
}

impl ScenarioSpec {
    /// Create a spec.
    pub fn new(name: impl Into<String>, seeds: Vec<u64>, kind: ScenarioKind) -> Self {
        let name = name.into();
        assert!(!seeds.is_empty(), "scenario needs at least one seed");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "scenario name must be filesystem-safe: {name:?}"
        );
        ScenarioSpec { name, seeds, kind }
    }

    /// Expand the parameter grid.
    pub fn points(&self) -> Vec<Point> {
        fn simple<T>(items: &[T], name: &str, label: impl Fn(&T) -> String) -> Vec<Point> {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let l = label(item);
                    Point {
                        label: l.clone(),
                        params: BTreeMap::from([(name.to_string(), l)]),
                        idx: vec![i],
                    }
                })
                .collect()
        }
        fn grid<A, B>(
            a: &[A],
            b: &[B],
            names: (&str, &str),
            la: impl Fn(&A) -> String,
            lb: impl Fn(&B) -> String,
        ) -> Vec<Point> {
            let mut out = Vec::new();
            for (i, x) in a.iter().enumerate() {
                for (j, y) in b.iter().enumerate() {
                    out.push(Point {
                        label: format!("{} | {}", la(x), lb(y)),
                        params: BTreeMap::from([
                            (names.0.to_string(), la(x)),
                            (names.1.to_string(), lb(y)),
                        ]),
                        idx: vec![i, j],
                    });
                }
            }
            out
        }
        match &self.kind {
            ScenarioKind::Protocol(p) => p.points(),
            ScenarioKind::CandidateTiming(c) => simple(&c.sizes, "n", |n| format!("n={n}")),
            ScenarioKind::SuspicionAttack(_) => {
                simple(&SuspicionAttackScenario::variants(), "variant", |v| {
                    format!("{v:?}")
                })
            }
            ScenarioKind::TreeSearch(t) => grid(
                &t.sizes,
                &t.search_secs,
                ("n", "search_s"),
                |n| format!("n={n}"),
                |s| format!("search={s:.2}s"),
            ),
            ScenarioKind::ProposalSize(p) => simple(&p.sizes, "n", |n| format!("n={n}")),
            ScenarioKind::Overprovision(o) => grid(
                &o.sizes,
                &o.percents,
                ("n", "u_pct"),
                |n| format!("n={n}"),
                |p| format!("u={p}%"),
            ),
        }
    }

    /// True if cells measure *wall-clock* time (Fig 8's candidate timing,
    /// Fig 12's calibrated search budgets). The sweep runner executes these
    /// on a single worker regardless of `--threads`: concurrent sibling
    /// cells would contend for cores and inflate the very quantity being
    /// measured. Their JSON is reproducible across thread counts (always
    /// serial) but not across processes — wall time is wall time.
    pub fn wall_clock_timed(&self) -> bool {
        matches!(
            self.kind,
            ScenarioKind::CandidateTiming(_) | ScenarioKind::TreeSearch(_)
        )
    }

    /// Run one cell: pure in (spec, point, seed).
    pub fn run_cell(&self, point: &Point, seed: u64) -> CellMetrics {
        self.run_cell_with(point, seed, &Telemetry::recording())
    }

    /// Run one cell against an explicit telemetry handle. The sweep runner
    /// owns the handle so a panicking cell can still be flight-dumped with
    /// everything it recorded. Analytic kinds carry no instrumentation and
    /// ignore the handle.
    pub fn run_cell_with(&self, point: &Point, seed: u64, telemetry: &Telemetry) -> CellMetrics {
        match &self.kind {
            ScenarioKind::Protocol(p) => p.run_cell_with(point, seed, telemetry),
            ScenarioKind::CandidateTiming(c) => c.run_cell(c.sizes[point.idx[0]], seed),
            ScenarioKind::SuspicionAttack(a) => a.run_cell(point.idx[0], seed),
            ScenarioKind::TreeSearch(t) => t.run_cell(point.idx[0], point.idx[1], seed),
            ScenarioKind::ProposalSize(p) => p.run_cell(p.sizes[point.idx[0]]),
            ScenarioKind::Overprovision(o) => o.run_cell(point.idx[0], point.idx[1], seed),
        }
    }

    /// Run one cell in breakdown mode: a trace sink is installed, the
    /// committed commands' latency anatomy is attributed from the spans,
    /// and `breakdown.*` metrics land in the cell next to everything
    /// [`ScenarioSpec::run_cell`] produces. Analytic kinds (no commit path
    /// to attribute) fall back to the plain cell.
    pub fn run_cell_breakdown(&self, point: &Point, seed: u64) -> CellMetrics {
        match &self.kind {
            ScenarioKind::Protocol(p) => p.run_cell_breakdown(point, seed),
            _ => self.run_cell(point, seed),
        }
    }

    /// Run one extra cell with a trace sink installed and return the causal
    /// trace alongside the metrics. Only protocol scenarios carry
    /// instrumentation points; returns `None` for analytic kinds.
    ///
    /// The traced cell is run *outside* the sweep: a scenario without a
    /// traffic axis gets a default open-loop load injected so the
    /// client-path stages (client emit, admission, ingress forward, reply)
    /// appear in the trace — that substitution is why the traced run's
    /// metrics are exported next to the trace, never into `BENCH_*.json`.
    pub fn run_cell_traced(&self) -> Option<TracedCell> {
        let ScenarioKind::Protocol(proto) = &self.kind else {
            return None;
        };
        let mut traced = proto.clone();
        if traced.traffics.is_empty() {
            traced.traffics = vec![probe_load()];
        }
        let points = traced.points();
        // Prefer an OptiTree cell — the paper's protagonist, and the one
        // whose per-hop forward spans make a Fig 7 attack legible.
        let point = points
            .iter()
            .find(|p| {
                p.params
                    .get("substrate")
                    .is_some_and(|s| s.starts_with("OptiTree"))
            })
            .unwrap_or(&points[0]);
        let seed = self.seeds[0];
        let telemetry = Telemetry::tracing();
        let metrics = traced.run_cell_with(point, seed, &telemetry);
        let n = traced.topologies[point.idx[1]].n;
        let mut process_labels: Vec<(usize, String)> =
            (0..n).map(|i| (i, format!("replica {i}"))).collect();
        process_labels.push((telemetry::CLIENTS_PID, "clients".to_string()));
        let chrome_json = telemetry
            .chrome_trace_json(&process_labels)
            .expect("tracing handle has a sink");
        Some(TracedCell {
            label: point.label.clone(),
            seed,
            metrics,
            stage_counts: telemetry.stage_counts(),
            chrome_json,
            prometheus: telemetry.prometheus_text(),
        })
    }
}

/// The artifacts of one traced cell (see [`ScenarioSpec::run_cell_traced`]).
pub struct TracedCell {
    /// Label of the traced point.
    pub label: String,
    /// Seed of the traced cell.
    pub seed: u64,
    /// The traced cell's metrics (registry included), for display only.
    pub metrics: CellMetrics,
    /// Number of recorded span events per stage name.
    pub stage_counts: BTreeMap<&'static str, u64>,
    /// The Chrome/Perfetto `trace_event` JSON document.
    pub chrome_json: String,
    /// The registry rendered in Prometheus text exposition format.
    pub prometheus: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Deployment;

    #[test]
    fn mix_seed_spreads_and_is_deterministic() {
        assert_eq!(mix_seed(1, 2), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 2), mix_seed(1, 3));
        assert_ne!(mix_seed(1, 2), mix_seed(2, 2));
    }

    #[test]
    fn sample_seeds_distinct_and_deterministic() {
        let s = sample_seeds(1000, 16, 42);
        assert_eq!(s.len(), 16);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        assert_eq!(s, sample_seeds(1000, 16, 42));
        assert_ne!(s, sample_seeds(1000, 16, 43));
    }

    #[test]
    fn protocol_points_cross_axes() {
        let spec = ScenarioSpec::new(
            "unit",
            vec![0],
            ScenarioKind::Protocol(ProtocolScenario::new(
                vec![Substrate::BftSmart, Substrate::Aware],
                vec![
                    Topology::of(Deployment::Europe21),
                    Topology::of(Deployment::Global73),
                ],
            )),
        );
        let points = spec.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].label, "BFT-SMaRt | Europe21");
        assert_eq!(points[3].label, "Aware | Global73");
        assert_eq!(points[1].params["topology"], "Global73");
        assert_eq!(points[1].params["adversary"], "clean");
    }

    #[test]
    fn single_axis_label_is_substrate() {
        let spec = ScenarioSpec::new(
            "unit",
            vec![0],
            ScenarioKind::Protocol(ProtocolScenario::new(
                vec![Substrate::OptiAware],
                vec![Topology::of(Deployment::Europe21)],
            )),
        );
        assert_eq!(spec.points()[0].label, "OptiAware");
    }

    #[test]
    fn proposal_size_cells_scale_with_n() {
        let sc = ProposalSizeScenario {
            sizes: vec![20, 80],
            base_bytes: 256,
        };
        let small = sc.run_cell(20);
        let large = sc.run_cell(80);
        assert!(small.values["bytes_latency_vec"] < large.values["bytes_latency_vec"]);
        assert!(large.values["bytes_misbehavior"] > large.values["bytes_suspicions"]);
        // The exact bytes `fig13_proposal_size` reports at these sizes; a
        // change to any entry's wire-size model moves them.
        for (cell, [base, latency_vec, suspicions, misbehavior]) in [
            (small, [256.0, 305.0, 365.0, 631.0]),
            (large, [256.0, 425.0, 485.0, 811.0]),
        ] {
            assert_eq!(cell.values["bytes_base"], base);
            assert_eq!(cell.values["bytes_latency_vec"], latency_vec);
            assert_eq!(cell.values["bytes_suspicions"], suspicions);
            assert_eq!(cell.values["bytes_misbehavior"], misbehavior);
        }
    }

    #[test]
    fn traffic_axis_expands_points_and_params() {
        let scenario = ProtocolScenario::new(
            vec![Substrate::BftSmart, Substrate::Kauri],
            vec![Topology::with_n(Deployment::Europe21, 7)],
        )
        .with_traffic_axis(vec![
            rsm::TrafficSpec::poisson(500.0),
            rsm::TrafficSpec::poisson(2000.0),
        ]);
        let spec = ScenarioSpec::new("unit", vec![0], ScenarioKind::Protocol(scenario));
        let points = spec.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].label, "BFT-SMaRt | poisson@500");
        assert_eq!(points[3].label, "Kauri | poisson@2000");
        assert_eq!(points[1].params["traffic"], "poisson@2000");
        assert_eq!(points[1].idx, vec![0, 0, 0, 1]);
    }

    /// Every substrate family must consume the traffic queue when the axis
    /// is present: the cell reports offered/committed/goodput metrics, and a
    /// sub-saturation load commits nearly everything on all of them.
    #[test]
    fn traffic_cells_commit_offered_load_on_every_substrate_family() {
        let scenario = ProtocolScenario::new(
            vec![
                Substrate::BftSmart,
                Substrate::HotStuffFixed,
                Substrate::Kauri,
            ],
            vec![Topology::with_n(Deployment::Europe21, 7)],
        )
        .with_traffic_axis(vec![rsm::TrafficSpec::poisson(300.0)
            .with_clients(16)
            .with_batching(60, Duration::from_millis(40))])
        .run_for(Duration::from_secs(15));
        let spec = ScenarioSpec::new("unit", vec![0], ScenarioKind::Protocol(scenario));
        for point in &spec.points() {
            let m = spec.run_cell(point, 0);
            let (offered, committed) = (m.values["offered_ops"], m.values["committed_ops"]);
            assert!(offered > 200.0, "{}: offered {offered}", point.label);
            assert!(
                committed > offered * 0.85,
                "{}: committed {committed} of offered {offered}",
                point.label
            );
            assert_eq!(m.values["rejected"], 0.0, "{}", point.label);
            assert!(m.values["e2e_p99_ms"] > 0.0);
            assert!(!m.series["e2e_timeline"].is_empty());
            assert!(!m.series["goodput_timeline"].is_empty());
        }
    }

    /// Tree cells report the configuration-log role bookkeeping: adopted
    /// epochs, committed pairs, exclusions, and — when a delay attack is
    /// scripted — whether the attacker kept an internal position.
    #[test]
    fn tree_cells_report_role_config_metrics() {
        let scenario = ProtocolScenario::new(
            vec![Substrate::Kauri],
            vec![Topology::with_n(Deployment::Europe21, 13)],
        )
        .with_adversaries(vec![AdversaryScript::named("mid-delay").during(
            SimTime::from_secs(10),
            SimTime::from_secs(25),
            crate::Attack::DelayProposals {
                target: crate::Target::TreeIntermediates { count: 1 },
                delay: Duration::from_millis(2_500),
            },
        )])
        .run_for(Duration::from_secs(30));
        let spec = ScenarioSpec::new("unit", vec![1], ScenarioKind::Protocol(scenario));
        let m = spec.run_cell(&spec.points()[0], 1);
        for key in [
            "committed_pairs",
            "adopted_epochs",
            "excluded_count",
            "root_retained",
            "initial_root_excluded",
            "attacker_excluded",
            "attacker_internal_final",
            "pairs_accuse_attacker",
        ] {
            assert!(m.values.contains_key(key), "missing metric {key}");
        }
        assert!(m.values["committed_pairs"] >= 1.0);
        assert_eq!(m.values["pairs_accuse_attacker"], 1.0);
        assert_eq!(m.values["attacker_internal_final"], 0.0);
    }

    #[test]
    fn small_protocol_cell_commits() {
        let scenario = ProtocolScenario::new(
            vec![Substrate::BftSmart],
            vec![Topology::with_n(Deployment::Europe21, 4)],
        )
        .with_traffic_axis(vec![probe_load()])
        .run_for(Duration::from_secs(10));
        let spec = ScenarioSpec::new("unit", vec![0], ScenarioKind::Protocol(scenario));
        let points = spec.points();
        let m = spec.run_cell(&points[0], 0);
        assert!(m.values["blocks"] > 0.0);
        assert!(m.values["latency_ms"] > 0.0);
    }

    /// The PBFT family has one proposal source, the traffic queue: a cell
    /// without one names the axis it is missing.
    #[test]
    #[should_panic(expected = "traffic axis")]
    fn pbft_cell_without_traffic_axis_panics() {
        let scenario = ProtocolScenario::new(
            vec![Substrate::BftSmart],
            vec![Topology::with_n(Deployment::Europe21, 4)],
        )
        .run_for(Duration::from_secs(1));
        let spec = ScenarioSpec::new("unit", vec![0], ScenarioKind::Protocol(scenario));
        spec.run_cell(&spec.points()[0], 0);
    }

    /// The satellite guarantee: installing a trace sink must not perturb a
    /// single byte of the BENCH json. Both runs record into a registry (the
    /// recording tier is always on); the sink only additionally captures
    /// span events, and nothing reads them back into the metrics.
    #[test]
    fn traced_run_bench_json_is_byte_identical_to_untraced() {
        use crate::results::{CellReport, PointReport, ScenarioReport};

        let scenario = ProtocolScenario::new(
            vec![Substrate::Kauri],
            vec![Topology::with_n(Deployment::Europe21, 7)],
        )
        .with_traffic_axis(vec![rsm::TrafficSpec::poisson(300.0)
            .with_clients(8)
            .with_batching(60, Duration::from_millis(40))])
        .with_adversaries(vec![AdversaryScript::named("mid-delay").during(
            SimTime::from_secs(5),
            SimTime::from_secs(10),
            crate::Attack::DelayProposals {
                target: crate::Target::TreeIntermediates { count: 1 },
                delay: Duration::from_millis(1_500),
            },
        )])
        .run_for(Duration::from_secs(15));
        let spec = ScenarioSpec::new("unit_trace_id", vec![0], ScenarioKind::Protocol(scenario));
        let point = &spec.points()[0];
        let ScenarioKind::Protocol(proto) = &spec.kind else {
            unreachable!()
        };

        let report_of = |metrics: CellMetrics| ScenarioReport {
            scenario: spec.name.clone(),
            seeds: spec.seeds.clone(),
            points: vec![PointReport::aggregate(
                point.label.clone(),
                point.params.clone(),
                vec![CellReport { seed: 0, metrics }],
            )],
        };
        let untraced = report_of(spec.run_cell(point, 0));
        let tracing = Telemetry::tracing();
        let traced = report_of(proto.run_cell_with(point, 0, &tracing));
        assert_eq!(untraced.to_json(), traced.to_json());
        // The traced run did actually trace.
        let counts = tracing.stage_counts();
        assert!(counts.get("commit").copied().unwrap_or(0) > 0, "{counts:?}");
    }

    /// A traced cell of an attacked tree scenario covers every
    /// instrumentation point on the request path — including the injected
    /// default traffic load when the sweep itself is saturated.
    #[test]
    fn traced_cell_covers_every_instrumentation_point() {
        let scenario = ProtocolScenario::new(
            vec![Substrate::Kauri],
            vec![Topology::with_n(Deployment::Europe21, 7)],
        )
        .with_adversaries(vec![AdversaryScript::named("mid-delay").during(
            SimTime::from_secs(5),
            SimTime::from_secs(10),
            crate::Attack::DelayProposals {
                target: crate::Target::TreeIntermediates { count: 1 },
                delay: Duration::from_millis(1_500),
            },
        )])
        .run_for(Duration::from_secs(15));
        let spec = ScenarioSpec::new(
            "unit_trace_cover",
            vec![0],
            ScenarioKind::Protocol(scenario),
        );
        let traced = spec.run_cell_traced().expect("protocol scenario traces");
        for stage in [
            "client_emit",
            "admission",
            "ingress_forward",
            "propose",
            "forward",
            "hold",
            "vote",
            "aggregate",
            "commit",
            "reply",
        ] {
            assert!(
                traced.stage_counts.get(stage).copied().unwrap_or(0) > 0,
                "stage {stage} missing from trace: {:?}",
                traced.stage_counts
            );
        }
        assert!(traced.chrome_json.contains("\"traceEvents\""));
        assert!(traced.prometheus.contains("netsim_engine_scheduled"));
        assert!(traced
            .metrics
            .values
            .contains_key("netsim.engine.scheduled"));
    }

    #[test]
    #[should_panic(expected = "filesystem-safe")]
    fn spec_rejects_unsafe_names() {
        ScenarioSpec::new(
            "../evil",
            vec![0],
            ScenarioKind::ProposalSize(ProposalSizeScenario {
                sizes: vec![4],
                base_bytes: 1,
            }),
        );
    }
}

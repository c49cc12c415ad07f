//! The catalogue of the paper's evaluation (Figs 7–15) plus this repo's
//! attack and load sweeps, run by the `lab` binary:
//! `lab <scenario> [positionals] [--seeds N] [--threads N] [--out DIR]
//! [--no-json] [--trace FILE] [--breakdown]`.
//!
//! Each scenario is one or more declarative [`lab::ScenarioSpec`]s, built
//! here by [`scenario`] from the scenario's name and its positional
//! arguments ([`SCENARIOS`] lists both). The binary hands each spec to the
//! shared sweep runner ([`lab::run_and_report`]), which fans the seed grid
//! across worker threads, prints the metric table, and writes
//! `BENCH_<spec name>.json`.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

use lab::{
    sample_seeds, AdversaryScript, Attack, CandidateTimingScenario, Deployment, LabArgs,
    LatencyWindow, OverprovisionScenario, ProposalSizeScenario, ProtocolScenario, ScenarioKind,
    ScenarioSpec, Substrate, SuspicionAttackScenario, Target, Topology, TrafficSpec,
    TreeSearchScenario,
};
use netsim::{Duration, SimTime};

/// Every scenario `lab` runs, with its positional arguments and their
/// defaults.
pub const SCENARIOS: [(&str, &str); 13] = [
    ("fig07_runtime_attack", "[run-secs=180] [n=21]"),
    ("fig08_candidate_time", "[graphs-per-size=100]"),
    ("fig09_baseline_comparison", "[run-secs=120]"),
    ("fig10_reconfigurations", "[runs=50] [n=211] [reconfigurations=35]"),
    ("fig11_malicious_delays", "[run-secs=60]"),
    ("fig12_sa_search", "[runs-per-point=20]"),
    ("fig13_proposal_size", ""),
    ("fig14_overprovision", "[runs-per-point=15]"),
    ("fig15_reconfiguration", "[run-secs=90]"),
    ("sweep_delay_attack", "[run-secs=120] [n=10]"),
    ("sweep_tree_delay_attack", "[run-secs=120] [n=13]"),
    ("sweep_intermediate_delay", "[run-secs=120] [n=13]"),
    ("sweep_load_latency", "[knee-run-secs=30] [n=7] [attack-run-secs=100]"),
];

/// One sweep of a scenario: the spec, the metric columns of its printed
/// table, and the comment lines printed around the table.
#[derive(Debug)]
pub struct Sweep {
    /// What to run; its name is the stem of the `BENCH_*.json` it writes.
    pub spec: ScenarioSpec,
    /// Metric columns of the printed table.
    pub columns: Vec<String>,
    /// Comment lines printed above the table.
    pub header: Vec<String>,
    /// Comment lines printed below the table: the figure's expected shape.
    pub footer: Vec<String>,
    /// Print the first cell's `throughput_timeline` series under the table,
    /// one row per simulated second (Fig 15).
    pub timeline: bool,
}

impl Sweep {
    fn new(spec: ScenarioSpec, columns: &[&str]) -> Self {
        Sweep {
            spec,
            columns: columns.iter().map(|c| c.to_string()).collect(),
            header: Vec::new(),
            footer: Vec::new(),
            timeline: false,
        }
    }

    fn above<S: Into<String>>(mut self, lines: impl IntoIterator<Item = S>) -> Self {
        self.header.extend(lines.into_iter().map(Into::into));
        self
    }

    fn below<S: Into<String>>(mut self, lines: impl IntoIterator<Item = S>) -> Self {
        self.footer.extend(lines.into_iter().map(Into::into));
        self
    }
}

/// The sweeps of scenario `name`, built from `args`' positionals (each
/// defaulting as [`SCENARIOS`] lists) and `--seeds`; `None` if `name` is
/// not a scenario.
pub fn scenario(name: &str, args: &LabArgs) -> Option<Vec<Sweep>> {
    let pos = |idx, default| args.pos_or(idx, default);
    let seed_range = |runs: u64| args.seeds_or(&(0..runs).collect::<Vec<_>>());
    let sweeps = match name {
        "fig07_runtime_attack" => vec![runtime_attack(
            pos(1, 180),
            pos(2, 21) as usize,
            args.seeds_or(&[0]),
        )],
        "fig08_candidate_time" => {
            vec![candidate_time(pos(1, 100) as usize, args.seeds_or(&[0]))]
        }
        "fig09_baseline_comparison" => vec![baseline_comparison(pos(1, 120), args.seeds_or(&[0]))],
        "fig10_reconfigurations" => vec![reconfigurations(
            pos(2, 211) as usize,
            pos(3, 35) as usize,
            seed_range(pos(1, 50)),
        )],
        "fig11_malicious_delays" => vec![malicious_delays(pos(1, 60), args.seeds_or(&[0]))],
        "fig12_sa_search" => vec![sa_search(seed_range(pos(1, 20)))],
        "fig13_proposal_size" => vec![proposal_size(args.seeds_or(&[0]))],
        "fig14_overprovision" => vec![overprovision(seed_range(pos(1, 15)))],
        "fig15_reconfiguration" => vec![root_crashes(pos(1, 90), args.seeds_or(&[0]))],
        "sweep_delay_attack" => vec![delay_attack(
            pos(1, 120),
            pos(2, 10) as usize,
            args.seeds_or(&sample_seeds(10_000, 16, 0xD1CE)),
        )],
        "sweep_tree_delay_attack" => {
            let seeds = args.seeds_or(&sample_seeds(10_000, 4, 0x7EE5));
            let spec = tree_delay_attack_spec(pos(1, 120), pos(2, 13) as usize, seeds);
            vec![Sweep::new(
                spec,
                &[
                    "lat_clean_ms",
                    "lat_attack_ms",
                    "lat_recovered_ms",
                    "reconfigurations",
                    "throughput_ops",
                ],
            )
            .above(["# Tree root-delay sweep"])]
        }
        "sweep_intermediate_delay" => {
            let seeds = args.seeds_or(&sample_seeds(10_000, 4, 0x1D7E));
            let spec = intermediate_delay_spec(pos(1, 120), pos(2, 13) as usize, seeds);
            vec![Sweep::new(
                spec,
                &[
                    "lat_clean_ms",
                    "lat_attack_ms",
                    "lat_recovered_ms",
                    "reconfigurations",
                    "initial_root_excluded",
                    "attacker_internal_final",
                    "committed_pairs",
                ],
            )
            .above(["# Intermediate-delay sweep"])]
        }
        "sweep_load_latency" => {
            let seeds = args.seeds_or(&sample_seeds(10_000, 2, 0x10AD));
            let n = pos(2, 7) as usize;
            let knee = load_latency_spec(pos(1, 30), n, &LOAD_LEVELS, seeds.clone());
            let attack = load_attack_spec(pos(3, 100), n, seeds);
            vec![
                Sweep::new(
                    knee,
                    &[
                        "offered_ops",
                        "committed_ops",
                        "goodput_ops",
                        "e2e_p50_ms",
                        "e2e_p99_ms",
                        "rejected",
                    ],
                )
                .above(["# Load sweep"]),
                Sweep::new(
                    attack,
                    &[
                        "goodput_clean_ops",
                        "goodput_attack_ops",
                        "goodput_recovered_ops",
                        "lat_clean_ms",
                        "lat_attack_ms",
                        "rejected",
                    ],
                )
                .above(["# Load under delay attack"]),
            ]
        }
        _ => return None,
    };
    Some(sweeps)
}

/// Offered load of the two PBFT delay-attack sweeps (Fig 7 and
/// `sweep_delay_attack`), in commands/s. It stays below what an attacked
/// leader still commits (about one batch per hold plus round), so attacked
/// latency shows the hold rather than queue growth. The 1000/s of
/// [`LOAD_ATTACK_RATE`] would not: under it Aware's attacked queue grows
/// without bound.
pub const FIG7_RATE: f64 = 100.0;

/// Fig 7 — OptiAware runtime behaviour under the Pre-Prepare delay attack:
/// `n` European replicas under open-loop load at [`FIG7_RATE`] from
/// geo-placed clients; a Byzantine leader starts delaying proposals at
/// t ≈ 80 s. BFT-SMaRt stays static, Aware optimises its configuration but
/// cannot react to the attack, OptiAware detects the delay through
/// suspicions and reassigns the leader role.
fn runtime_attack(run_secs: u64, n: usize, seeds: Vec<u64>) -> Sweep {
    let attack_start = run_secs.min(82).max(run_secs / 2);
    let attack_delay = Duration::from_millis(600);
    let optimize_after = 40.min(run_secs / 3).max(10);
    let mut scenario = ProtocolScenario::new(
        vec![Substrate::BftSmart, Substrate::Aware, Substrate::OptiAware],
        vec![Topology::with_n(Deployment::Europe21, n)],
    )
    .with_adversaries(vec![AdversaryScript::named("delay-attack").at(
        SimTime::from_secs(attack_start),
        Attack::DelayProposals {
            target: Target::OptimizedLeader,
            delay: attack_delay,
        },
    )])
    .with_traffic_axis(vec![load_traffic(FIG7_RATE, Duration::from_secs(1))])
    .run_for(Duration::from_secs(run_secs));
    scenario.optimize_after = SimTime::from_secs(optimize_after);
    let (t_opt, t_atk) = (optimize_after as f64, attack_start as f64);
    scenario.windows = vec![
        LatencyWindow::new("preopt", 5.0, t_opt),
        LatencyWindow::new("optimized", t_opt + 5.0, t_atk),
        LatencyWindow::new("attack", t_atk + 2.0, t_atk + 50.0),
        LatencyWindow::new("recovered", t_atk + 60.0, run_secs as f64),
    ];
    let spec = ScenarioSpec::new("fig07_runtime_attack", seeds, ScenarioKind::Protocol(scenario));
    Sweep::new(
        spec,
        &[
            "lat_preopt_ms",
            "lat_optimized_ms",
            "lat_attack_ms",
            "lat_recovered_ms",
            "reconfigurations",
        ],
    )
    .above([
        "# Fig 7: end-to-end client latency [ms] under a Pre-Prepare delay attack".to_string(),
        format!(
            "# n={n}, attack at {attack_start}s, proposal delay {attack_delay}, optimise after {optimize_after}s"
        ),
    ])
    .below([
        "# Expected shape: Aware/OptiAware optimize below BFT-SMaRt; under attack all inflate;",
        "# only OptiAware recovers to the optimized level after excluding the attacker.",
    ])
}

/// Fig 8 — time to compute the candidate set (maximum independent set) from
/// `graphs` random suspicion graphs of each size.
fn candidate_time(graphs: usize, seeds: Vec<u64>) -> Sweep {
    let spec = ScenarioSpec::new(
        "fig08_candidate_time",
        seeds,
        ScenarioKind::CandidateTiming(CandidateTimingScenario {
            sizes: vec![4, 10, 16, 22, 25, 40, 55, 70, 85, 100],
            graphs_per_size: graphs,
            edge_prob: 0.15,
            budget: 500_000,
        }),
    );
    Sweep::new(spec, &["time_ms", "time_ci95_ms", "time_max_ms"])
        .above([
            "# Fig 8: candidate-set computation time [ms] (Bron-Kerbosch on the inverted graph)"
                .to_string(),
            format!("# {graphs} random graphs per size, edge probability 0.15"),
        ])
        .below(["# Expected shape: sub-millisecond below n=25, growing rapidly but < 1 s at n=100."])
}

/// Fig 9 — throughput and latency of OptiTree, Kauri, and HotStuff across
/// the four geographic deployments.
fn baseline_comparison(run_secs: u64, seeds: Vec<u64>) -> Sweep {
    let scenario = ProtocolScenario::new(
        vec![
            Substrate::HotStuffFixed,
            Substrate::HotStuffRr,
            Substrate::Kauri,
            Substrate::OptiTree,
            Substrate::OptiTreeNoPipeline,
        ],
        vec![
            Topology::of(Deployment::Europe21),
            Topology::of(Deployment::NaEu43),
            Topology::of(Deployment::Stellar56),
            Topology::of(Deployment::Global73),
        ],
    )
    .run_for(Duration::from_secs(run_secs));
    let spec = ScenarioSpec::new("fig09_baseline_comparison", seeds, ScenarioKind::Protocol(scenario));
    Sweep::new(spec, &["throughput_ops", "latency_ms", "p99_ms"])
        .above(["# Fig 9: throughput [op/s] and consensus latency [ms] per deployment"])
        .below([
            "# Expected shape: OptiTree > Kauri > HotStuff in throughput; OptiTree's trees have",
            "# lower latency than Kauri's random trees, with the gap widening at Global73.",
        ])
}

/// Fig 10 — tree latency (score) under the targeted-suspicion attack as a
/// function of the number of reconfigurations, for Kauri, Kauri-sa, and
/// OptiTree with `n` replicas randomly distributed across the world; one
/// run per seed, scores sampled every 5 reconfigurations.
fn reconfigurations(n: usize, steps: usize, seeds: Vec<u64>) -> Sweep {
    let report_every = 5;
    let spec = ScenarioSpec::new(
        "fig10_reconfigurations",
        seeds,
        ScenarioKind::SuspicionAttack(SuspicionAttackScenario {
            n,
            steps,
            report_every,
        }),
    );
    let columns: Vec<String> = (0..=steps)
        .step_by(report_every)
        .map(|s| format!("score_u{s:03}"))
        .collect();
    let runs = spec.seeds.len();
    Sweep {
        columns,
        ..Sweep::new(spec, &[])
    }
    .above([
        "# Fig 10: tree latency (score, ms) vs reconfigurations under targeted suspicions"
            .to_string(),
        format!("# n={n}, {runs} runs, scores sampled every {report_every} reconfigurations"),
    ])
    .below([
        "# Expected shape: OptiTree starts lowest and degrades gradually with u; Kauri-sa",
        "# degrades sharply once candidates run out; random Kauri trees are always worst.",
    ])
}

/// Fig 11 — OptiTree throughput and latency when 1–4 faulty internal nodes
/// inflate their latency by a factor δ (1.1, 1.2, 1.4) without triggering
/// suspicions; Europe21 without pipelining.
fn malicious_delays(run_secs: u64, seeds: Vec<u64>) -> Sweep {
    let mut adversaries = vec![AdversaryScript::clean()];
    for faulty in 1..=4usize {
        for delta in [1.1, 1.2, 1.4] {
            adversaries.push(
                AdversaryScript::named(format!("faulty={faulty} δ={delta}")).at(
                    SimTime::ZERO,
                    Attack::InflateOutgoing {
                        target: Target::TreeIntermediates { count: faulty },
                        factor: delta,
                    },
                ),
            );
        }
    }
    let scenario = ProtocolScenario::new(
        vec![Substrate::OptiTreeNoPipeline],
        vec![Topology::of(Deployment::Europe21)],
    )
    .with_adversaries(adversaries)
    .run_for(Duration::from_secs(run_secs));
    let spec = ScenarioSpec::new("fig11_malicious_delays", seeds, ScenarioKind::Protocol(scenario));
    Sweep::new(spec, &["throughput_ops", "latency_ms"])
        .above(["# Fig 11: OptiTree (no pipeline, Europe21) with faulty internal nodes inflating latency by δ"])
        .below([
            "# Expected shape: throughput drops and latency rises with more faulty internals and",
            "# larger δ (the paper reports up to ~49% throughput loss at δ=1.4 with 4 faulty nodes).",
        ])
}

/// Fig 12 — tree latency as a function of the simulated-annealing search
/// budget, for configuration sizes 57–211. The paper varies wall-clock
/// search time from 250 ms to 4 s; the scenario maps search time to an
/// iteration budget using a calibrated iterations-per-second rate and
/// reports both.
fn sa_search(seeds: Vec<u64>) -> Sweep {
    let spec = ScenarioSpec::new(
        "fig12_sa_search",
        seeds,
        ScenarioKind::TreeSearch(TreeSearchScenario {
            sizes: vec![57, 91, 111, 157, 183, 211],
            search_secs: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            calibration_iters: 2_000,
        }),
    );
    Sweep::new(spec, &["score_ms", "iterations"])
        .above(["# Fig 12: tree latency (score, ms) vs simulated-annealing search time"])
        .below([
            "# Expected shape: longer searches find lower-latency trees; the gain is largest for",
            "# big configurations (n=211 improves ~35% from 250 ms to 4 s) and variance shrinks.",
        ])
}

/// Fig 13 — proposal size with different OptiLog sensors enabled, for
/// 20/40/60/80 replicas across 10 locations.
fn proposal_size(seeds: Vec<u64>) -> Sweep {
    let spec = ScenarioSpec::new(
        "fig13_proposal_size",
        seeds,
        ScenarioKind::ProposalSize(ProposalSizeScenario {
            sizes: vec![20, 40, 60, 80],
            base_bytes: 256,
        }),
    );
    Sweep::new(
        spec,
        &["bytes_base", "bytes_latency_vec", "bytes_suspicions", "bytes_misbehavior"],
    )
    .above(["# Fig 13: average proposal size [bytes] with different measurements included"])
    .below([
        "# Expected shape: latency vectors add ~2 bytes/replica; suspicions add a few hundred",
        "# bytes at most; proofs of misbehavior dominate (kilobytes) but are rare.",
    ])
}

/// Fig 14 (Appendix B.1) — cost of over-provisioning: tree latency when the
/// score function provisions for u = 5%..30% unresponsive leaves.
fn overprovision(seeds: Vec<u64>) -> Sweep {
    let spec = ScenarioSpec::new(
        "fig14_overprovision",
        seeds,
        ScenarioKind::Overprovision(OverprovisionScenario {
            sizes: vec![21, 43, 91, 111, 157, 211],
            percents: vec![5, 10, 15, 20, 25, 30],
            iterations: 3_000,
        }),
    );
    Sweep::new(spec, &["u", "score_ms"])
        .above(["# Fig 14: tree latency (score, ms) when provisioning for u% faulty leaves"])
        .below([
            "# Expected shape: latency grows with u (collecting votes from more subtrees);",
            "# the paper reports ~54% higher latency at u = 30% of n for n = 211.",
        ])
}

/// Fig 15 (Appendix B.2) — throughput timeline while the tree root is
/// crashed every 10 seconds, triggering a simulated-annealing search and a
/// reconfiguration (Europe21, 21 replicas).
fn root_crashes(run_secs: u64, seeds: Vec<u64>) -> Sweep {
    let mut scenario = ProtocolScenario::new(
        vec![Substrate::OptiTreeNoPipeline],
        vec![Topology::of(Deployment::Europe21)],
    )
    .with_adversaries(vec![AdversaryScript::named("root-crashes").at(
        SimTime::from_secs(10),
        Attack::CrashRoots {
            interval: Duration::from_secs(10),
        },
    )])
    .run_for(Duration::from_secs(run_secs));
    scenario.reconfig_delay = Some(Duration::from_secs(1)); // the 1 s simulated-annealing search
    let spec = ScenarioSpec::new("fig15_reconfiguration", seeds, ScenarioKind::Protocol(scenario));
    Sweep {
        timeline: true,
        ..Sweep::new(spec, &["throughput_ops", "reconfigurations"])
    }
    .above(["# Fig 15: throughput [op/s] per second with the root crashing every 10 s"])
    .below([
        "# Expected shape: throughput drops to zero after each crash, recovers roughly one",
        "# progress-timeout plus one second of search later, and returns to its previous level.",
    ])
}

/// The Fig 7 attack at a smaller scale on OptiAware alone, under the same
/// [`FIG7_RATE`] load, swept over many seeds: World(distinct) draws a fresh
/// city sample per seed, so the sweep measures the attack across random
/// geographies rather than identical runs.
fn delay_attack(run_secs: u64, n: usize, seeds: Vec<u64>) -> Sweep {
    let attack_start = run_secs / 2;
    let mut scenario = ProtocolScenario::new(
        vec![Substrate::OptiAware],
        vec![Topology::with_n(Deployment::WorldDistinct, n)],
    )
    .with_adversaries(vec![AdversaryScript::named("delay-attack").at(
        SimTime::from_secs(attack_start),
        Attack::DelayProposals {
            target: Target::OptimizedLeader,
            delay: Duration::from_millis(400),
        },
    )])
    .with_traffic_axis(vec![load_traffic(FIG7_RATE, Duration::from_secs(1))])
    .run_for(Duration::from_secs(run_secs));
    scenario.optimize_after = SimTime::from_secs((run_secs / 4).max(5));
    scenario.windows = vec![
        LatencyWindow::new("clean", 2.0, attack_start as f64),
        LatencyWindow::new("attacked", attack_start as f64, run_secs as f64),
    ];
    let spec = ScenarioSpec::new("sweep_delay_attack", seeds, ScenarioKind::Protocol(scenario));
    Sweep::new(
        spec,
        &["lat_clean_ms", "lat_attacked_ms", "reconfigurations", "throughput_ops"],
    )
    .above(["# Delay-attack sweep"])
}

/// The covert hold of the tree-delay sweep's first phase: above OptiTree's
/// tight tree-derived view timeouts (a few hundred ms on Europe21) but below
/// Kauri's fixed 2 s timeout, so OptiTree's staleness detection catches it
/// while Kauri silently absorbs the inflated latency.
pub const TREE_DELAY_COVERT_MS: u64 = 600;

/// The overt hold of the second phase: above Kauri's 2 s view timeout, so
/// even its conservative detector classifies the withheld proposals as a
/// failed tree and moves to the next conformity bin.
pub const TREE_DELAY_OVERT_MS: u64 = 2_500;

/// The Fig 7 scenario on the tree substrates: the initial root withholds
/// every payload it disseminates for the middle of the run — first by a
/// covert amount, then escalating to an overt one — and the per-commit
/// latency timelines show the spike-and-recover sawtooth at the moment each
/// substrate's failure detection catches the hold: OptiTree reconfigures
/// away from the root during the covert phase already, Kauri during the
/// overt one. HotStuff-fixed rides along as the baseline that cannot
/// reassign the leader role and stays degraded until the attack stage
/// closes.
///
/// Phases scale with `run_secs` (floor 60 s): the covert hold starts at
/// `run/3` and escalates at `run/3 + run/8` until `run/3 + run/4`. Windows:
/// `clean` (pre-attack), `attack` (the two seconds after onset, capturing
/// the withheld commits before reconfiguration dilutes them) and
/// `recovered` (the final third).
pub fn tree_delay_attack_spec(run_secs: u64, n: usize, seeds: Vec<u64>) -> ScenarioSpec {
    assert!(run_secs >= 60, "phases need at least a 60 s run, got {run_secs}");
    let attack_start = run_secs / 3;
    let escalate = attack_start + run_secs / 8;
    let attack_end = attack_start + run_secs / 4;
    let mut scenario = ProtocolScenario::new(
        vec![
            Substrate::HotStuffFixed,
            Substrate::Kauri,
            Substrate::OptiTree,
            Substrate::OptiTreeNoPipeline,
        ],
        vec![Topology::with_n(Deployment::Europe21, n)],
    )
    .with_adversaries(vec![AdversaryScript::named("root-delay")
        .during(
            SimTime::from_secs(attack_start),
            SimTime::from_secs(escalate),
            Attack::DelayProposals {
                target: Target::Root,
                delay: Duration::from_millis(TREE_DELAY_COVERT_MS),
            },
        )
        .during(
            SimTime::from_secs(escalate),
            SimTime::from_secs(attack_end),
            Attack::DelayProposals {
                target: Target::Root,
                delay: Duration::from_millis(TREE_DELAY_OVERT_MS),
            },
        )])
    .run_for(Duration::from_secs(run_secs));
    scenario.windows = vec![
        LatencyWindow::new("clean", (run_secs / 12) as f64, attack_start as f64),
        LatencyWindow::new("attack", attack_start as f64, attack_start as f64 + 2.0),
        LatencyWindow::new("recovered", (run_secs - run_secs / 3) as f64, run_secs as f64),
    ];
    ScenarioSpec::new("sweep_tree_delay_attack", seeds, ScenarioKind::Protocol(scenario))
}

/// The Fig 7 counterpart this repo adds: an overtly-delaying *intermediate*
/// (not the root) withholds every payload it forwards for the middle of the
/// run, on the three tree substrates. Under the old root-blame staleness
/// rule this deposed one innocent root after another; with the §6.4
/// reciprocal suspicion pairs flowing through the replicated configuration
/// log, the evidence implicates the delayer itself: conformity binning
/// (Kauri), exclude-all-internals (Kauri-sa), and pair-driven candidate
/// exclusion (OptiTree) all rotate the attacker out of internal positions
/// while the innocent root keeps its role — which the `root_retained` /
/// `attacker_internal_final` metrics assert per cell.
///
/// Phases scale with `run_secs` (floor 60 s): the overt hold runs from
/// `run/3` to `run·3/4`. Windows: `clean` (pre-attack), `attack` (the two
/// seconds after onset), `recovered` (the final sixth).
pub fn intermediate_delay_spec(run_secs: u64, n: usize, seeds: Vec<u64>) -> ScenarioSpec {
    assert!(run_secs >= 60, "phases need at least a 60 s run, got {run_secs}");
    let attack_start = run_secs / 3;
    let attack_end = run_secs * 3 / 4;
    let mut scenario = ProtocolScenario::new(
        vec![Substrate::Kauri, Substrate::KauriSa, Substrate::OptiTree],
        vec![Topology::with_n(Deployment::Europe21, n)],
    )
    .with_adversaries(vec![AdversaryScript::named("intermediate-delay").during(
        SimTime::from_secs(attack_start),
        SimTime::from_secs(attack_end),
        Attack::DelayProposals {
            target: Target::TreeIntermediates { count: 1 },
            delay: Duration::from_millis(TREE_DELAY_OVERT_MS),
        },
    )])
    .run_for(Duration::from_secs(run_secs));
    scenario.windows = vec![
        LatencyWindow::new("clean", (run_secs / 12) as f64, attack_start as f64),
        LatencyWindow::new("attack", attack_start as f64, attack_start as f64 + 2.0),
        LatencyWindow::new("recovered", (run_secs - run_secs / 6) as f64, run_secs as f64),
    ];
    ScenarioSpec::new("intermediate_delay", seeds, ScenarioKind::Protocol(scenario))
}

/// Commands per batch in the load sweeps: small enough that every substrate
/// saturates inside the swept load range on the 7-replica Europe sample.
pub const LOAD_BATCH: usize = 100;

/// Size-or-timeout batching delay of the load sweeps: small enough that the
/// low-load end of the curve is dominated by consensus latency, not by
/// waiting for a batch to fill.
pub const LOAD_BATCH_DELAY_MS: u64 = 25;

/// Admission-queue bound of the load sweeps (50 batches): deep enough to
/// make queueing delay visible at the knee, bounded so saturation shows as a
/// latency *plateau* plus rejected load instead of an unbounded blow-up.
pub const LOAD_QUEUE_CAPACITY: usize = 50 * LOAD_BATCH;

/// The offered-load grid of the throughput–latency sweep (commands/s): from
/// far below every substrate's capacity to far above it.
pub const LOAD_LEVELS: [f64; 6] = [500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16_000.0];

/// Build the load-sweep traffic spec for one offered rate.
fn load_traffic(rate: f64, slo: Duration) -> TrafficSpec {
    TrafficSpec::poisson(rate)
        .with_clients(64)
        .with_batching(LOAD_BATCH, Duration::from_millis(LOAD_BATCH_DELAY_MS))
        .with_capacity(LOAD_QUEUE_CAPACITY)
        .with_slo(slo)
}

/// The throughput–latency sweep (`BENCH_load_latency.json`): one
/// representative of each substrate family (PBFT, HotStuff, Kauri,
/// OptiTree) driven by open-loop Poisson load at each level of `loads`,
/// on the Europe21 sample with `n` replicas. Each point's end-to-end p50/p99
/// and committed/goodput rates trace the curve; the knee appears where
/// committed throughput plateaus below the offered load and p99 jumps to
/// the queue-drain time.
pub fn load_latency_spec(run_secs: u64, n: usize, loads: &[f64], seeds: Vec<u64>) -> ScenarioSpec {
    let traffics = loads
        .iter()
        // A generous SLO: the knee sweep reads latency percentiles; the SLO
        // mainly separates goodput from committed at the saturated end.
        .map(|&rate| load_traffic(rate, Duration::from_secs(2)))
        .collect();
    let scenario = ProtocolScenario::new(
        vec![
            Substrate::BftSmart,
            Substrate::HotStuffFixed,
            Substrate::Kauri,
            Substrate::OptiTree,
        ],
        vec![Topology::with_n(Deployment::Europe21, n)],
    )
    .with_traffic_axis(traffics)
    .run_for(Duration::from_secs(run_secs));
    ScenarioSpec::new("load_latency", seeds, ScenarioKind::Protocol(scenario))
}

/// The proposal hold of the load-under-attack scenario: far beyond the SLO
/// and the clean round time, so a leader that keeps the role while delaying
/// collapses both capacity (rounds stretch to ~0.8 s) and goodput (every
/// commit blows the deadline).
pub const LOAD_ATTACK_DELAY_MS: u64 = 800;

/// Offered load of the attack scenario: comfortably below clean capacity
/// (so the clean phases run at full goodput) but far above the ~125/s an
/// attacked leader can still push.
pub const LOAD_ATTACK_RATE: f64 = 1_000.0;

/// The load-under-delay-attack scenario (`BENCH_load_attack.json`): Poisson
/// load at [`LOAD_ATTACK_RATE`] while the optimised leader (and the initial
/// proposer, for substrates that never re-elect) runs the proposal-delay
/// attack for the middle half of the run. OptiAware strips the attacker of
/// the leader role and preserves goodput; the fixed-role policies (Aware's
/// latency-only optimiser, HotStuff's fixed leader) collapse for the whole
/// attack phase. Windows: `clean` (pre-attack), `attack` (the attack
/// phase), `recovered` (after it ends); each reports `lat_*_ms` (e2e) and
/// `goodput_*_ops`.
pub fn load_attack_spec(run_secs: u64, n: usize, seeds: Vec<u64>) -> ScenarioSpec {
    assert!(run_secs >= 80, "phases need at least an 80 s run, got {run_secs}");
    let attack_from = SimTime::from_secs(run_secs * 35 / 100);
    let attack_until = SimTime::from_secs(run_secs * 85 / 100);
    let delay = Duration::from_millis(LOAD_ATTACK_DELAY_MS);
    // Two stages over the same window: `OptimizedLeader` hits the replica
    // the latency optimisers elect (Aware and OptiAware pick the same one
    // from the same probe matrix), `Root` hits the initial proposer for the
    // substrates that never re-elect (HotStuff's fixed leader). A stage
    // whose target never holds the proposer role is harmless by
    // construction — a delayed proposal only exists while its author leads.
    let script = AdversaryScript::named("leader-delay")
        .during(
            attack_from,
            attack_until,
            Attack::DelayProposals {
                target: Target::OptimizedLeader,
                delay,
            },
        )
        .during(
            attack_from,
            attack_until,
            Attack::DelayProposals {
                target: Target::Root,
                delay,
            },
        );
    let mut scenario = ProtocolScenario::new(
        vec![Substrate::Aware, Substrate::OptiAware, Substrate::HotStuffFixed],
        vec![Topology::with_n(Deployment::Europe21, n)],
    )
    .with_adversaries(vec![script])
    .with_traffic_axis(vec![load_traffic(LOAD_ATTACK_RATE, Duration::from_secs(1))])
    .run_for(Duration::from_secs(run_secs));
    // Optimise early so the leader role has settled well before the attack.
    scenario.optimize_after = SimTime::from_secs(run_secs / 8);
    let (from_s, until_s) = (attack_from.as_secs_f64(), attack_until.as_secs_f64());
    scenario.windows = vec![
        LatencyWindow::new("clean", (run_secs / 6) as f64, from_s),
        LatencyWindow::new("attack", from_s, until_s),
        LatencyWindow::new("recovered", until_s + 5.0, run_secs as f64),
    ];
    ScenarioSpec::new("load_attack", seeds, ScenarioKind::Protocol(scenario))
}

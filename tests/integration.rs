//! Cross-crate integration tests: exercise the full pipeline from the
//! geographic dataset through the protocols and the OptiLog monitors.

use optilog_suite::*;

use hotstuff::{HotStuffConfig, Pacemaker};
use kauri::{KauriBinsPolicy, KauriCluster, KauriConfig};
use lab::harness::run;
use netsim::{CityDataset, Duration, FaultPlan, LatencyModel, MatrixLatency, SimTime};
use optiaware::OptiAwarePolicy;
use optilog::{AnnealingParams, SuspicionMonitorParams};
use optitree::{search_tree, tree_score, OptiTreePolicy, TreeSearchSpace};
use pbft::{PbftConfig, PbftRoles, ReconfigPolicy, StaticPolicy};
use rsm::{timeline_mean, RunReport, SystemConfig, TrafficSpec};
use traffic::{SharedTrafficQueue, TrafficReport};

fn europe_rtt(n: usize) -> Vec<f64> {
    let ds = CityDataset::worldwide();
    let subset = ds.europe21();
    let assignment = ds.assign_round_robin(&subset, n);
    let mut m = vec![0.0; n * n];
    for a in 0..n {
        for b in 0..n {
            m[a * n + b] = ds.rtt_ms(assignment[a], assignment[b]);
        }
    }
    m
}

fn matrix(n: usize, rtt: &[f64]) -> Box<dyn LatencyModel> {
    Box::new(MatrixLatency::from_rtt_millis(n, rtt))
}

/// Clients of the open-loop PBFT load.
const CLIENTS: usize = 8;

/// Poisson load at 100 cmd/s until `secs` from [`CLIENTS`] clients 1 ms
/// from their replica, batches of 100 or 25 ms.
fn load(secs: u64) -> SharedTrafficQueue {
    let spec = TrafficSpec::poisson(100.0)
        .with_clients(CLIENTS)
        .with_batching(100, Duration::from_millis(25));
    SharedTrafficQueue::generate(&spec, &[1.0; CLIENTS], 7, SimTime::from_secs(secs))
}

/// A fault-free PBFT run over `rtt`, and what its queue's clients saw.
fn sim_pbft<F: Fn(usize) -> Box<dyn ReconfigPolicy>>(
    config: &PbftConfig<F>,
    rtt: &[f64],
) -> (RunReport<PbftRoles>, TrafficReport) {
    let report = run(config, matrix(config.n, rtt), FaultPlan::none()).0;
    let traffic = config
        .traffic
        .report(config.run_for.as_micros() / 1_000_000);
    (report, traffic)
}

// ---- per-substrate smoke tests: every protocol commits over the city
// ---- dataset's latency matrix, end to end through netsim.

#[test]
fn smoke_pbft_commits_over_city_matrix() {
    let n = 7;
    let config =
        PbftConfig::new(n, 2, load(5), |_| Box::new(StaticPolicy)).run_for(Duration::from_secs(5));
    let (report, _) = sim_pbft(&config, &europe_rtt(n));
    assert!(
        report.summary.committed_blocks > 0,
        "pbft committed nothing: {report:?}"
    );
}

#[test]
fn smoke_hotstuff_commits_over_city_matrix() {
    let n = 7;
    let rtt = europe_rtt(n);
    for pacemaker in [Pacemaker::Fixed { leader: 0 }, Pacemaker::RoundRobin] {
        let mut cfg = HotStuffConfig::new(n, pacemaker);
        cfg.run_for = Duration::from_secs(5);
        let report = run(&cfg, matrix(n, &rtt), FaultPlan::none()).0;
        assert!(
            report.summary.committed_blocks > 0,
            "hotstuff ({pacemaker:?}) committed nothing"
        );
    }
}

#[test]
fn smoke_kauri_commits_over_city_matrix() {
    let n = 13;
    let rtt = europe_rtt(n);
    let mut cfg = KauriConfig::new(n);
    cfg.run_for = Duration::from_secs(5);
    let cluster = KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(n, 3, 1)));
    let report = run(&cluster, matrix(n, &rtt), FaultPlan::none()).0;
    assert!(
        report.summary.committed_blocks > 0,
        "kauri committed nothing"
    );
}

#[test]
fn pbft_over_city_latencies_commits_client_requests() {
    let n = 7;
    let config = PbftConfig::new(n, 2, load(15), |_| Box::new(StaticPolicy))
        .run_for(Duration::from_secs(15));
    let (report, traffic) = sim_pbft(&config, &europe_rtt(n));
    assert!(report.summary.committed_blocks > 10);
    assert!(
        traffic.committed > 3 * CLIENTS as u64,
        "committed {} of {}",
        traffic.committed,
        traffic.offered
    );
}

#[test]
fn optiaware_recovers_from_delay_attack_while_aware_does_not() {
    let n = 7;
    let f = 2;
    let rtt = europe_rtt(n);
    // The attacker is the replica Aware's optimisation would pick as leader,
    // so the Pre-Prepare delay attack actually hits the optimised path.
    let attacker =
        pbft::score::optimize_configuration(&rtt, n, f, &(0..n).collect::<Vec<_>>(), &[], 1)
            .0
            .leader;
    let attack = SimTime::from_secs(40);
    let optimize_after = SimTime::from_secs(15);
    let attacked = |policy: &dyn Fn(usize) -> Box<dyn ReconfigPolicy>| {
        let mut cfg = PbftConfig::new(n, f, load(100), policy).run_for(Duration::from_secs(100));
        cfg.misbehavior.delay_proposals_during(
            attacker,
            Duration::from_millis(400),
            attack,
            SimTime::MAX,
        );
        let (report, traffic) = sim_pbft(&cfg, &rtt);
        (report.roles, traffic.e2e_timeline)
    };
    let (_, aware_e2e) = attacked(&|_| Box::new(OptiAwarePolicy::aware(n, f, optimize_after)));
    let (opti, opti_e2e) = attacked(&|id| Box::new(OptiAwarePolicy::new(id, n, f, optimize_after)));

    // By the end of the run OptiAware must be no worse than Aware: either it
    // detected the attack and reassigned the leader, or its suspicion-driven
    // role assignment kept the attacker out of the leader role altogether.
    let aware_late = timeline_mean(&aware_e2e, 80.0, 100.0);
    let opti_late = timeline_mean(&opti_e2e, 80.0, 100.0);
    // Aware has no suspicion mechanism: the attacker keeps the leader role
    // and clients keep paying the 400 ms Pre-Prepare delay.
    assert!(
        aware_late > 400.0,
        "Aware should stay degraded, got {aware_late:.1}ms"
    );
    // OptiAware's suspicion pipeline must excise the attacker and recover to
    // a small multiple of the attack-free latency (Fig 7).
    assert!(
        opti_late < aware_late * 0.5,
        "OptiAware {opti_late:.1}ms should recover well below Aware {aware_late:.1}ms"
    );
    // The recovery must come from a reconfiguration after the attack began
    // that strips the attacker of the leader role.
    let post_attack: Vec<_> = opti
        .reconfigurations
        .iter()
        .filter(|&&(t, _)| t >= attack.as_secs_f64())
        .collect();
    assert!(
        !post_attack.is_empty(),
        "no reconfiguration after the attack: {:?}",
        opti.reconfigurations
    );
    assert!(
        post_attack.iter().all(|&&(_, leader)| leader != attacker),
        "attacker {attacker} regained the leader role: {post_attack:?}"
    );
}

#[test]
fn optitree_outperforms_random_kauri_trees_on_global_deployment() {
    let n = 43;
    let ds = CityDataset::worldwide();
    let subset = ds.global73();
    let assignment = ds.assign_round_robin(&subset, n);
    let mut rtt = vec![0.0; n * n];
    for a in 0..n {
        for b in 0..n {
            rtt[a * n + b] = ds.rtt_ms(assignment[a], assignment[b]);
        }
    }
    let system = SystemConfig::new(n);
    let k = system.quorum();
    let space = TreeSearchSpace {
        n,
        branch: system.tree_branch_factor(),
        matrix_rtt_ms: rtt.clone(),
        candidates: (0..n).collect(),
        k,
    };
    let (_, opti_score) = search_tree(
        &space,
        AnnealingParams {
            iterations: 6_000,
            ..Default::default()
        },
        3,
    );
    let random_avg: f64 = (0..10)
        .map(|s| {
            tree_score(
                &kauri::Tree::random(n, system.tree_branch_factor(), s),
                &rtt,
                n,
                k,
            )
        })
        .sum::<f64>()
        / 10.0;
    assert!(
        opti_score < random_avg,
        "OptiTree {opti_score} should beat random {random_avg}"
    );
}

#[test]
fn tree_protocols_commit_and_pipeline_on_emulated_wan() {
    // A worldwide deployment: tree overlays with pipelining pay off once
    // inter-replica latencies are large (the Global73 setting of Fig 9).
    let n = 21;
    let ds = CityDataset::worldwide();
    let subset = ds.global73();
    let assignment = ds.assign_round_robin(&subset, n);
    let mut rtt = vec![0.0; n * n];
    for a in 0..n {
        for b in 0..n {
            rtt[a * n + b] = ds.rtt_ms(assignment[a], assignment[b]);
        }
    }
    let system = SystemConfig::new(n);

    let mut hs_cfg = HotStuffConfig::new(n, Pacemaker::Fixed { leader: 0 });
    hs_cfg.run_for = Duration::from_secs(20);
    let hs = run(&hs_cfg, matrix(n, &rtt), FaultPlan::none()).0;

    let mut kauri_cfg = KauriConfig::new(n);
    kauri_cfg.run_for = Duration::from_secs(20);
    let kauri = run(
        &KauriCluster::new(kauri_cfg, |_| Box::new(KauriBinsPolicy::new(n, 4, 1))),
        matrix(n, &rtt),
        FaultPlan::none(),
    )
    .0;

    let mut opti_cfg = KauriConfig::new(n);
    opti_cfg.run_for = Duration::from_secs(20);
    let opti = run(
        &KauriCluster::new(opti_cfg, |_| {
            Box::new(OptiTreePolicy::new(system, rtt.clone(), 7))
        }),
        matrix(n, &rtt),
        FaultPlan::none(),
    )
    .0;

    assert!(hs.summary.committed_blocks > 10);
    assert!(kauri.summary.committed_blocks > 10);
    assert!(opti.summary.committed_blocks > 10);
    // Pipelined tree protocols are at least competitive with HotStuff on
    // throughput at WAN latencies (the simulator does not charge the leader's
    // CPU/bandwidth, which is where most of Kauri's advantage comes from).
    assert!(kauri.summary.throughput_ops > hs.summary.throughput_ops * 0.8);
    // OptiTree's selected tree should not be slower than Kauri's random tree.
    assert!(opti.summary.mean_latency_ms <= kauri.summary.mean_latency_ms * 1.1);
}

/// Table 1's consistency property: replicas that feed the same committed
/// measurements, in log order, to their own monitors derive the same latency
/// matrix, candidate set and fault estimate.
#[test]
fn optilog_instances_converge_across_replicas() {
    use optilog::{LatencyMonitor, LatencyVector, Suspicion, SuspicionKind, SuspicionMonitor};
    let n = 7;
    let latency = LatencyVector::new(0, vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
    let suspicions = [
        Suspicion {
            kind: SuspicionKind::Slow,
            accuser: 2,
            accused: 5,
            round: 3,
            phase: 1,
            accuser_is_leader: false,
        },
        Suspicion {
            kind: SuspicionKind::False,
            accuser: 5,
            accused: 2,
            round: 3,
            phase: 1,
            accuser_is_leader: false,
        },
    ];
    let mut replicas: Vec<(LatencyMonitor, SuspicionMonitor)> = (0..n)
        .map(|_| {
            (
                LatencyMonitor::new(n),
                SuspicionMonitor::new(SuspicionMonitorParams::new(n, 2)),
            )
        })
        .collect();
    for (latency_monitor, suspicion_monitor) in replicas.iter_mut() {
        latency_monitor.on_vector(&latency);
        for s in &suspicions {
            suspicion_monitor.on_suspicion(s);
        }
    }
    let matrices: Vec<_> = replicas.iter().map(|(l, _)| l.matrix().clone()).collect();
    let selections: Vec<_> = replicas
        .iter_mut()
        .map(|(_, s)| s.selection().clone())
        .collect();
    assert!(matrices.windows(2).all(|w| w[0] == w[1]));
    assert!(selections.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(matrices[0].rtt(0, 6), 60.0);
    assert_eq!(selections[0].estimate_u, 1);
}

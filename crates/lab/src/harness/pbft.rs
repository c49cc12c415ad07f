//! The PBFT family through the one harness: `n` replicas plus co-located
//! clients over a city RTT matrix, client-observed latency timelines (Fig 7)
//! and replica-side throughput/latency.

use super::{colocated_latency, run};
use netsim::{Duration, FaultPlan, SimTime};
use optiaware::OptiAwarePolicy;
use pbft::{PbftConfig, PbftRoles, ReconfigPolicy, StaticPolicy};
use rsm::RunReport;

/// A 4-replica matrix with a fast cluster {1,2,3} and a slow replica 0.
fn skewed_matrix(n: usize) -> Vec<f64> {
    let mut m = vec![0.0; n * n];
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let slow = a == 0 || b == 0;
            m[a * n + b] = if slow { 120.0 } else { 20.0 };
        }
    }
    m
}

/// Run `config` over the skewed matrix, fault-free.
fn run_skewed<F: Fn(usize) -> Box<dyn ReconfigPolicy>>(
    config: &PbftConfig<F>,
) -> RunReport<PbftRoles> {
    let latency = colocated_latency(&skewed_matrix(config.n), config.n, config.clients);
    run(config, Box::new(latency), FaultPlan::none()).0
}

#[test]
fn static_run_commits_requests() {
    let config =
        PbftConfig::new(4, 1, 2, |_| Box::new(StaticPolicy)).run_for(Duration::from_secs(20));
    let report = run_skewed(&config);
    assert!(report.summary.committed_blocks > 10);
    assert!(report.roles.client_completed.iter().all(|&c| c > 5));
    assert!(report.roles.reconfigurations.is_empty());
    assert!(report.roles.mean_client_latency(1.0, 20.0) > 0.0);
}

#[test]
fn aware_reconfigures_away_from_slow_leader() {
    let config = PbftConfig::new(4, 1, 2, |_| {
        Box::new(OptiAwarePolicy::aware(4, 1, SimTime::from_secs(15)))
    })
    .run_for(Duration::from_secs(60));
    let report = run_skewed(&config);
    assert!(
        !report.roles.reconfigurations.is_empty(),
        "Aware should optimise once the matrix is complete"
    );
    let (_, new_leader) = report.roles.reconfigurations[0];
    assert_ne!(new_leader, 0, "slow replica should lose the leader role");
    // Latency after optimisation should beat latency before it.
    let before = report.roles.mean_client_latency(2.0, 14.0);
    let after = report.roles.mean_client_latency(30.0, 60.0);
    assert!(
        after < before,
        "expected improvement, before={before:.1}ms after={after:.1}ms"
    );
}

/// Two delay stages on the same replica accumulate (attack → quiet →
/// attack): the quiet gap between them must return to clean latency.
#[test]
fn phased_delay_attacker_goes_quiet_between_stages() {
    let mut cfg =
        PbftConfig::new(4, 1, 2, |_| Box::new(StaticPolicy)).run_for(Duration::from_secs(40));
    cfg.misbehavior
        .delay_proposals_during(
            0,
            Duration::from_millis(500),
            SimTime::from_secs(5),
            SimTime::from_secs(12),
        )
        .delay_proposals_during(
            0,
            Duration::from_millis(500),
            SimTime::from_secs(25),
            SimTime::from_secs(33),
        );
    let report = run_skewed(&cfg);
    let first = report.roles.mean_client_latency(6.0, 12.0);
    let quiet = report.roles.mean_client_latency(14.0, 24.0);
    let second = report.roles.mean_client_latency(26.0, 33.0);
    assert!(
        first > quiet * 2.0,
        "first stage should inflate: first={first:.1}ms quiet={quiet:.1}ms"
    );
    assert!(
        second > quiet * 2.0,
        "second stage should inflate again: second={second:.1}ms quiet={quiet:.1}ms"
    );
}

#[test]
fn open_loop_traffic_commits_offered_load_below_saturation() {
    let spec = rsm::TrafficSpec::poisson(300.0)
        .with_clients(4)
        .with_batching(60, Duration::from_millis(40));
    let queue = traffic::SharedTrafficQueue::generate(
        &spec,
        &[1.0, 5.0, 10.0, 20.0],
        17,
        SimTime::from_secs(20),
    );
    let mut config =
        PbftConfig::new(4, 1, 0, |_| Box::new(StaticPolicy)).run_for(Duration::from_secs(22));
    config.traffic = Some(queue.clone());
    let report = run_skewed(&config);
    let tr = queue.report(20);
    assert!(tr.offered > 4_500, "~6000 arrivals, got {}", tr.offered);
    assert_eq!(tr.rejected, 0, "no backpressure below saturation");
    assert!(
        tr.committed >= tr.offered - 200,
        "committed {} of {}",
        tr.committed,
        tr.offered
    );
    // Rounds keep rolling (heartbeats between batches), and committed
    // traffic blocks are demand-sized.
    assert!(report.summary.committed_blocks > 20);
    assert!(
        report.roles.client_completed.is_empty(),
        "no client nodes in traffic mode"
    );
    // e2e covers ingress + queueing + consensus + reply: well above the
    // bare consensus latency, bounded by the batching delay + rounds.
    assert!(tr.e2e_mean_ms > report.summary.mean_latency_ms);
}

#[test]
#[should_panic(expected = "clients = 0")]
fn traffic_mode_rejects_simulated_clients() {
    let spec = rsm::TrafficSpec::poisson(100.0).with_clients(2);
    let queue = traffic::SharedTrafficQueue::generate(&spec, &[1.0, 1.0], 0, SimTime::from_secs(1));
    let mut config = PbftConfig::new(4, 1, 2, |_| Box::new(StaticPolicy));
    config.traffic = Some(queue);
    run_skewed(&config);
}

#[test]
fn delay_attack_inflates_latency_for_static_policy() {
    let config =
        || PbftConfig::new(4, 1, 2, |_| Box::new(StaticPolicy)).run_for(Duration::from_secs(40));
    let clean = run_skewed(&config());
    let mut attacked_cfg = config();
    attacked_cfg.misbehavior.delay_proposals_during(
        0,
        Duration::from_millis(500),
        SimTime::from_secs(10),
        SimTime::MAX,
    );
    let attacked = run_skewed(&attacked_cfg);

    let clean_late = clean.roles.mean_client_latency(15.0, 40.0);
    let attacked_late = attacked.roles.mean_client_latency(15.0, 40.0);
    assert!(
        attacked_late > clean_late * 1.5,
        "attack should inflate latency: clean={clean_late:.1}ms attacked={attacked_late:.1}ms"
    );
}

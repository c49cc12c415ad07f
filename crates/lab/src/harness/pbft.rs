//! The PBFT family through the one harness: `n` replicas over a city RTT
//! matrix fed by an open-loop traffic queue, client-observed latency
//! timelines (Fig 7) and replica-side throughput/latency.

use super::run;
use netsim::{Duration, FaultPlan, MatrixLatency, SimTime};
use optiaware::OptiAwarePolicy;
use pbft::{PbftConfig, PbftRoles, ReconfigPolicy, StaticPolicy};
use rsm::{timeline_mean, RunReport, TrafficSpec};
use traffic::{SharedTrafficQueue, TrafficReport};

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

/// Clients of the open-loop load: one per replica.
const CLIENTS: usize = 4;

/// Poisson load at `rate` cmd/s until `secs` from [`CLIENTS`] clients 1 ms
/// from their replica, batches of 60 or 40 ms.
fn load(rate: f64, secs: u64) -> SharedTrafficQueue {
    let spec = TrafficSpec::poisson(rate)
        .with_clients(CLIENTS)
        .with_batching(60, Duration::from_millis(40));
    SharedTrafficQueue::generate(&spec, &[1.0; CLIENTS], 17, SimTime::from_secs(secs))
}

/// The light load the latency tests run under: far below what even a
/// leader holding each proposal 500 ms commits, so latency shows the
/// protocol rather than queue growth.
const RATE: f64 = 50.0;

/// Run `config` over the skewed matrix, fault-free, and read back what its
/// queue's clients saw.
fn run_skewed<F: Fn(usize) -> Box<dyn ReconfigPolicy>>(
    config: &PbftConfig<F>,
) -> (RunReport<PbftRoles>, TrafficReport) {
    let latency = MatrixLatency::from_rtt_millis(config.n, &skewed_matrix(config.n));
    let report = run(config, Box::new(latency), FaultPlan::none()).0;
    let traffic = config
        .traffic
        .report(config.run_for.as_micros() / 1_000_000);
    (report, traffic)
}

/// Mean end-to-end latency (ms) of the commands committed in `[from, to)` s.
fn e2e(traffic: &TrafficReport, from: f64, to: f64) -> f64 {
    timeline_mean(&traffic.e2e_timeline, from, to)
}

#[test]
fn static_run_commits_requests() {
    let config = PbftConfig::new(4, 1, load(RATE, 20), |_| Box::new(StaticPolicy))
        .run_for(Duration::from_secs(20));
    let (report, traffic) = run_skewed(&config);
    assert!(report.summary.committed_blocks > 10);
    assert!(
        traffic.committed > 5 * CLIENTS as u64,
        "committed {} of {}",
        traffic.committed,
        traffic.offered
    );
    assert!(report.roles.reconfigurations.is_empty());
    assert!(e2e(&traffic, 1.0, 20.0) > 0.0);
}

#[test]
fn aware_reconfigures_away_from_slow_leader() {
    let config = PbftConfig::new(4, 1, load(RATE, 60), |_| {
        Box::new(OptiAwarePolicy::aware(4, 1, SimTime::from_secs(15)))
    })
    .run_for(Duration::from_secs(60));
    let (report, traffic) = run_skewed(&config);
    assert!(
        !report.roles.reconfigurations.is_empty(),
        "Aware should optimise once the matrix is complete"
    );
    let (_, new_leader) = report.roles.reconfigurations[0];
    assert_ne!(new_leader, 0, "slow replica should lose the leader role");
    // Latency after optimisation should beat latency before it.
    let before = e2e(&traffic, 2.0, 14.0);
    let after = e2e(&traffic, 30.0, 60.0);
    assert!(
        after < before,
        "expected improvement, before={before:.1}ms after={after:.1}ms"
    );
}

/// Two delay stages on the same replica accumulate (attack → quiet →
/// attack): the quiet gap between them must return to clean latency.
#[test]
fn phased_delay_attacker_goes_quiet_between_stages() {
    let mut cfg = PbftConfig::new(4, 1, load(RATE, 40), |_| Box::new(StaticPolicy))
        .run_for(Duration::from_secs(40));
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
    let (_, traffic) = run_skewed(&cfg);
    let first = e2e(&traffic, 6.0, 12.0);
    let quiet = e2e(&traffic, 14.0, 24.0);
    let second = e2e(&traffic, 26.0, 33.0);
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
    let spec = TrafficSpec::poisson(300.0)
        .with_clients(4)
        .with_batching(60, Duration::from_millis(40));
    let queue =
        SharedTrafficQueue::generate(&spec, &[1.0, 5.0, 10.0, 20.0], 17, SimTime::from_secs(20));
    let config = PbftConfig::new(4, 1, queue.clone(), |_| Box::new(StaticPolicy))
        .run_for(Duration::from_secs(22));
    let (report, _) = run_skewed(&config);
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
    assert_eq!(
        report.checkpoints.len(),
        4,
        "the run's nodes are its replicas, no client nodes"
    );
    // e2e covers ingress + queueing + consensus + reply: well above the
    // bare consensus latency, bounded by the batching delay + rounds.
    assert!(tr.e2e_mean_ms > report.summary.mean_latency_ms);
}

#[test]
fn delay_attack_inflates_latency_for_static_policy() {
    let config = || {
        PbftConfig::new(4, 1, load(RATE, 40), |_| Box::new(StaticPolicy))
            .run_for(Duration::from_secs(40))
    };
    let (_, clean) = run_skewed(&config());
    let mut attacked_cfg = config();
    attacked_cfg.misbehavior.delay_proposals_during(
        0,
        Duration::from_millis(500),
        SimTime::from_secs(10),
        SimTime::MAX,
    );
    let (_, attacked) = run_skewed(&attacked_cfg);

    let clean_late = e2e(&clean, 15.0, 40.0);
    let attacked_late = e2e(&attacked, 15.0, 40.0);
    assert!(
        attacked_late > clean_late * 1.5,
        "attack should inflate latency: clean={clean_late:.1}ms attacked={attacked_late:.1}ms"
    );
}

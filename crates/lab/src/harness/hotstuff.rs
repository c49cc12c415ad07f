//! Chained HotStuff through the one harness: throughput, consensus latency
//! (one row of Fig 9), the protocol-level delay attack and open-loop load.

use super::run;
use hotstuff::{HotStuffConfig, HotStuffRoles, Pacemaker};
use netsim::{Duration, FaultPlan, LatencyModel, SimTime, UniformLatency};
use rsm::RunReport;
use traffic::SharedTrafficQueue;

fn uniform(n: usize, ms: u64) -> Box<dyn LatencyModel> {
    Box::new(UniformLatency::new(n, Duration::from_millis(ms)))
}

#[test]
fn fixed_leader_commits_blocks() {
    let cfg = HotStuffConfig {
        run_for: Duration::from_secs(20),
        ..HotStuffConfig::new(4, Pacemaker::Fixed { leader: 0 })
    };
    let report = run(&cfg, uniform(4, 25), FaultPlan::none()).0;
    // One view per ~2 one-way delays (50 ms); 20 s → ~400 views, each
    // committing a 1000-command block two views later.
    assert!(report.summary.committed_blocks > 200, "{report:?}");
    assert!(report.summary.throughput_ops > 5_000.0);
    // Commit latency ≈ 2–3 view rounds (≥ 100 ms at the leader).
    assert!(report.summary.mean_latency_ms >= 99.0);
    assert!(report.summary.mean_latency_ms < 400.0);
}

#[test]
fn latency_timeline_is_nonempty_monotone_and_consistent() {
    let cfg = HotStuffConfig {
        run_for: Duration::from_secs(20),
        ..HotStuffConfig::new(4, Pacemaker::Fixed { leader: 0 })
    };
    let report = run(&cfg, uniform(4, 25), FaultPlan::none()).0;
    let tl = &report.latency_timeline;
    assert_eq!(tl.len() as u64, report.summary.committed_blocks);
    assert!(
        tl.windows(2).all(|w| w[0].0 <= w[1].0),
        "commit times must be monotone"
    );
    // On a quiet run, the timeline's mean matches the summary's mean.
    let mean = tl.iter().map(|&(_, v)| v).sum::<f64>() / tl.len() as f64;
    assert!(
        (mean - report.summary.mean_latency_ms).abs() < 1.0,
        "timeline mean {mean:.1} vs summary {:.1}",
        report.summary.mean_latency_ms
    );
}

#[test]
fn scripted_leader_delay_inflates_latency_protocol_side() {
    let mk = |attack: bool| {
        let mut cfg = HotStuffConfig {
            run_for: Duration::from_secs(30),
            ..HotStuffConfig::new(4, Pacemaker::Fixed { leader: 0 })
        };
        if attack {
            cfg.misbehavior.delay_proposals_during(
                0,
                Duration::from_millis(500),
                SimTime::from_secs(10),
                SimTime::from_secs(20),
            );
        }
        run(&cfg, uniform(4, 25), FaultPlan::none()).0
    };
    let clean = mk(false);
    let attacked = mk(true);
    let window_mean = |r: &RunReport<HotStuffRoles>, from: f64, to: f64| {
        rsm::timeline_mean(&r.latency_timeline, from, to)
    };
    // During the stage every commit pays the 500 ms hold (several times
    // over, since the three-chain stretches across held views)…
    let clean_mid = window_mean(&clean, 12.0, 22.0);
    let attacked_mid = window_mean(&attacked, 12.0, 22.0);
    assert!(
        attacked_mid > clean_mid + 400.0,
        "hold should inflate latency: clean={clean_mid:.1}ms attacked={attacked_mid:.1}ms"
    );
    // …and once the stage closes the protocol drains back to clean latency.
    let attacked_late = window_mean(&attacked, 25.0, 30.0);
    assert!(
        attacked_late < clean_mid * 2.0,
        "latency should recover after the stage: {attacked_late:.1}ms"
    );
}

#[test]
fn open_loop_traffic_commits_offered_load_below_saturation() {
    // 200 cmd/s offered against a capacity of thousands: every command
    // should commit, and blocks should be timeout-flushed partials (the
    // saturated source would commit 1000-command blocks instead).
    let spec = rsm::TrafficSpec::poisson(200.0)
        .with_clients(4)
        .with_batching(100, Duration::from_millis(40));
    let queue =
        SharedTrafficQueue::generate(&spec, &[1.0, 2.0, 5.0, 10.0], 99, SimTime::from_secs(20));
    let mut cfg = HotStuffConfig {
        run_for: Duration::from_secs(22),
        ..HotStuffConfig::new(4, Pacemaker::Fixed { leader: 0 })
    };
    cfg.traffic = queue.clone();
    let report = run(&cfg, uniform(4, 10), FaultPlan::none()).0;
    let tr = queue.report(20);
    assert!(
        tr.offered > 3_000,
        "~4000 arrivals over 20 s, got {}",
        tr.offered
    );
    assert_eq!(tr.rejected, 0, "no backpressure below saturation");
    // All but the last in-flight views' worth of commands commit.
    assert!(
        tr.committed >= tr.offered - 300,
        "committed {} of {}",
        tr.committed,
        tr.offered
    );
    assert_eq!(tr.committed, tr.goodput, "all commits meet a 1 s SLO here");
    // Blocks are demand-sized, far below the saturated 1000.
    let per_block =
        report.summary.committed_commands as f64 / report.summary.committed_blocks as f64;
    assert!(per_block < 150.0, "mean block size {per_block}");
    // End-to-end latency includes ingress, batching wait, and commit.
    assert!(tr.e2e_mean_ms > 40.0, "e2e mean {}", tr.e2e_mean_ms);
}

#[test]
fn bursty_traffic_tail_commits_before_the_next_burst() {
    // On/off load with a 3 s silence between bursts: the final batch of
    // each burst must commit via empty chain-flush blocks right away,
    // not wait out the off-phase for two more batches to arrive.
    let spec = rsm::TrafficSpec::poisson(0.0)
        .with_arrivals(rsm::ArrivalProcess::OnOff {
            rate: 800.0,
            on: Duration::from_secs(1),
            off: Duration::from_secs(3),
        })
        .with_clients(4)
        .with_batching(100, Duration::from_millis(40))
        .with_slo(Duration::from_secs(1));
    let queue = SharedTrafficQueue::generate(&spec, &[1.0; 4], 13, SimTime::from_secs(16));
    let mut cfg = HotStuffConfig {
        run_for: Duration::from_secs(18),
        ..HotStuffConfig::new(4, Pacemaker::Fixed { leader: 0 })
    };
    cfg.traffic = queue.clone();
    run(&cfg, uniform(4, 10), FaultPlan::none());
    let tr = queue.report(16);
    assert!(
        tr.offered > 2_000,
        "four bursts of ~800, got {}",
        tr.offered
    );
    assert!(
        tr.committed >= tr.offered - 120,
        "committed {} of {}",
        tr.committed,
        tr.goodput
    );
    // Without the chain flush every burst tail waits ~3 s and blows the
    // 1 s SLO; with it, virtually everything is goodput.
    assert!(
        tr.goodput as f64 >= tr.committed as f64 * 0.95,
        "burst tails must not wait out the off-phase: goodput {} of {} committed (p99 {:.0} ms)",
        tr.goodput,
        tr.committed,
        tr.e2e_p99_ms
    );
}

#[test]
fn round_robin_leaders_share_the_traffic_queue() {
    let spec = rsm::TrafficSpec::poisson(500.0)
        .with_clients(4)
        .with_batching(50, Duration::from_millis(30));
    let queue = SharedTrafficQueue::generate(&spec, &[1.0; 4], 3, SimTime::from_secs(10));
    let mut cfg = HotStuffConfig {
        run_for: Duration::from_secs(12),
        ..HotStuffConfig::new(4, Pacemaker::RoundRobin)
    };
    cfg.traffic = queue.clone();
    run(&cfg, uniform(4, 10), FaultPlan::none());
    let tr = queue.report(10);
    assert!(
        tr.committed >= tr.offered.saturating_sub(200),
        "rotating leaders must drain the shared queue: {} of {}",
        tr.committed,
        tr.offered
    );
}

#[test]
fn round_robin_also_makes_progress() {
    let cfg = HotStuffConfig {
        run_for: Duration::from_secs(10),
        ..HotStuffConfig::new(4, Pacemaker::RoundRobin)
    };
    let report = run(&cfg, uniform(4, 25), FaultPlan::none()).0;
    assert!(report.summary.committed_blocks > 50);
}

#[test]
fn slower_network_lowers_throughput() {
    let mk = |ms| {
        let cfg = HotStuffConfig {
            run_for: Duration::from_secs(15),
            ..HotStuffConfig::new(4, Pacemaker::Fixed { leader: 0 })
        };
        run(&cfg, uniform(4, ms), FaultPlan::none())
            .0
            .summary
            .throughput_ops
    };
    assert!(mk(10) > mk(80) * 2.0);
}

//! Loopback cluster tests: real sockets, real clocks, in-process.
//!
//! These run actual `RealCluster` deployments on 127.0.0.1 and therefore
//! take wall-clock seconds; they are the satellite coverage for the deployd
//! runtime — agreement across replicas, commit progress under open-loop
//! load, and a sim-vs-real throughput comparison kept inside a deliberately
//! generous tolerance band (CI machines are noisy; consensus safety is not).

use deployd::{run_cluster, DeployConfig, Substrate};
use runtime::Duration;
use telemetry::Telemetry;

fn never_stop() -> bool {
    false
}

/// Satellite: 4-replica deployd cluster in-process; all replicas commit the
/// same prefix (no divergent commits), and the per-replica
/// `hotstuff.node.commits` counters all advance.
#[test]
fn loopback_hotstuff_replicas_agree_on_committed_prefix() {
    let mut cfg = DeployConfig::new(Substrate::HotStuff, 4);
    cfg.run_for = Duration::from_secs(2);
    cfg.rate = 200.0;
    cfg.telemetry = Telemetry::recording();
    let report = run_cluster(&cfg, &never_stop).expect("cluster launches");

    // Progress: every replica's commit counter advanced.
    assert_eq!(report.per_replica_commits.len(), 4);
    for (id, &commits) in report.per_replica_commits.iter().enumerate() {
        assert!(commits > 0, "replica {id} committed nothing: {report:?}");
    }
    // The counters may differ by the in-flight tail at shutdown, but never
    // wildly: everyone tracks the same chain.
    let max = *report.per_replica_commits.iter().max().unwrap();
    let min = *report.per_replica_commits.iter().min().unwrap();
    assert!(
        max - min <= 4,
        "commit counts diverged: {:?}",
        report.per_replica_commits
    );
    // Agreement: any view stored by two replicas has one digest.
    assert_eq!(report.view_digests.len(), 4);
    assert!(report.digests_agree(), "divergent commits: {report:?}");
    // The open-loop load actually committed.
    let tr = report.traffic.expect("rate > 0 builds a queue");
    assert!(tr.committed > 0, "no client load committed: {tr:?}");
}

/// Kauri's tree overlay also deploys: the root commits real load over
/// sockets with identically-seeded tree policies on every replica.
#[test]
fn loopback_kauri_commits_over_real_sockets() {
    let mut cfg = DeployConfig::new(Substrate::Kauri, 7);
    cfg.run_for = Duration::from_secs(2);
    cfg.rate = 150.0;
    cfg.telemetry = Telemetry::recording();
    let report = run_cluster(&cfg, &never_stop).expect("cluster launches");
    // Kauri counts commits at the serving root.
    let total: u64 = report.per_replica_commits.iter().sum();
    assert!(total > 0, "no commits: {report:?}");
    let tr = report.traffic.expect("rate > 0 builds a queue");
    assert!(
        tr.committed as f64 >= tr.offered as f64 * 0.5,
        "most offered load should commit on localhost: {tr:?}"
    );
}

/// `--rate 0` proposes from the saturated queue: full batches commit on
/// every replica, and there is no client load to report or to balance.
#[test]
fn loopback_saturated_run_commits_full_batches() {
    let mut cfg = DeployConfig::new(Substrate::HotStuff, 4);
    cfg.run_for = Duration::from_secs(1);
    cfg.rate = 0.0;
    cfg.telemetry = Telemetry::recording();
    let report = run_cluster(&cfg, &never_stop).expect("cluster launches");
    assert!(report.traffic.is_none(), "no clients, no traffic report");
    assert!(
        report.per_replica_commits.iter().all(|&c| c > 0),
        "every replica commits: {:?}",
        report.per_replica_commits
    );
    assert_eq!(
        report.summary.committed_commands,
        report.summary.committed_blocks * cfg.batch_size as u64,
        "every block is a full batch"
    );
    assert!(report.digests_agree() && report.audit.ok(), "{report:?}");
}

/// A stop request mid-run shuts the cluster down cleanly and still yields a
/// consistent report — the SIGTERM path deployd's binary takes.
#[test]
fn loopback_early_stop_shuts_down_cleanly() {
    let mut cfg = DeployConfig::new(Substrate::HotStuff, 4);
    cfg.run_for = Duration::from_secs(30); // would be far too long…
    cfg.rate = 100.0;
    cfg.telemetry = Telemetry::recording();
    let started = std::time::Instant::now();
    // …but the stop predicate fires after ~1 s.
    let report =
        run_cluster(&cfg, &|| started.elapsed().as_secs_f64() > 1.0).expect("cluster launches");
    assert!(
        report.wall_secs < 10.0,
        "stop request must end the run early, ran {:.1}s",
        report.wall_secs
    );
    assert!(report.digests_agree());
    assert!(
        report.per_replica_commits.iter().all(|&c| c > 0),
        "clean shutdown still reports commits: {:?}",
        report.per_replica_commits
    );
}

/// Satellite: the sim-vs-real comparison. ONE `HotStuffConfig` value is the
/// cluster both runners get — `deployd::run_on` over localhost sockets and
/// wall-clock timers, `lab::harness::run` over netsim virtual time — with the
/// same open-loop schedule regenerated for each (a traffic queue is consumed
/// by the run that drains it). Below the saturation knee both must commit
/// essentially all of it, and their committed/offered ratios must sit in the
/// same generous band. This is the like-for-like anchor for the measured
/// throughput–latency knee.
#[test]
fn sim_vs_real_committed_ratio_within_tolerance() {
    let n = 4;
    let secs = 2;
    let base = {
        let mut hs = hotstuff::HotStuffConfig::new(n, hotstuff::Pacemaker::Fixed { leader: 0 });
        hs.run_for = Duration::from_secs(secs);
        hs
    };
    let spec = rsm::TrafficSpec::poisson(200.0)
        .with_clients(4)
        .with_batching(100, Duration::from_millis(40))
        .with_slo(Duration::from_secs(1));
    let offered_to = |runner: &dyn Fn(&hotstuff::HotStuffConfig)| {
        let queue = traffic::SharedTrafficQueue::generate(
            &spec,
            &[1.0; 4],
            7,
            runtime::SimTime::from_secs(secs),
        );
        let mut cluster = base.clone();
        cluster.traffic = queue.clone();
        runner(&cluster);
        let tr = queue.report(secs);
        (tr.committed as f64 / tr.offered.max(1) as f64, tr)
    };

    // Real: localhost sockets, wall-clock timers.
    let (real_ratio, real_tr) = offered_to(&|cluster| {
        let mut cfg = DeployConfig::new(Substrate::HotStuff, n);
        cfg.run_for = cluster.run_for;
        deployd::run_on(
            &cfg,
            cluster,
            Some(cluster.traffic.clone()),
            &never_stop,
            |roles| roles.view_digests,
        )
        .expect("cluster launches");
    });
    // Sim: a small uniform network latency standing in for loopback.
    let (sim_ratio, sim_tr) = offered_to(&|cluster| {
        lab::harness::run(
            cluster,
            Box::new(netsim::UniformLatency::new(n, Duration::from_millis(1))),
            netsim::FaultPlan::none(),
        );
    });

    // Generous band: below the knee both worlds commit ≥ 70 % of offered
    // load and agree within 30 percentage points.
    assert!(
        sim_ratio >= 0.7,
        "sim should commit sub-knee load: {sim_ratio:.2} ({sim_tr:?})"
    );
    assert!(
        real_ratio >= 0.7,
        "real cluster should commit sub-knee load: {real_ratio:.2} ({real_tr:?})"
    );
    assert!(
        (sim_ratio - real_ratio).abs() <= 0.3,
        "sim {sim_ratio:.2} vs real {real_ratio:.2} drifted outside the band"
    );
}

//! Kauri and its tree-policy variants through the one harness: commits on a
//! tree, pipelining, reconfiguration under crashes and delays, committed pair
//! evidence, and open-loop load across root changes.

use super::run;
use kauri::{KauriBinsPolicy, KauriCluster, KauriConfig, KauriRoles, TreeCommand, TreePolicy};
use netsim::{Duration, FaultPlan, LatencyModel, SimTime, UniformLatency};
use rsm::RunReport;

fn uniform(n: usize, ms: u64) -> Box<dyn LatencyModel> {
    Box::new(UniformLatency::new(n, Duration::from_millis(ms)))
}

fn small_config(n: usize, secs: u64) -> KauriConfig {
    let mut c = KauriConfig::new(n);
    c.run_for = Duration::from_secs(secs);
    c
}

#[test]
fn kauri_commits_blocks_on_a_tree() {
    let cfg = small_config(13, 20);
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(13, 3, 42))),
        uniform(13, 20),
        FaultPlan::none(),
    )
    .0;
    assert!(
        report.summary.committed_blocks > 50,
        "{}",
        report.summary.committed_blocks
    );
    assert!(report.summary.throughput_ops > 1_000.0);
    assert_eq!(
        report.roles.reconfigurations, 0,
        "no faults, no reconfiguration"
    );
    // Clean run: no reconfiguration, so the genesis tree never needs a
    // committed successor and no evidence ever flows.
    assert_eq!(report.roles.adopted_epochs, 0);
    assert!(report.roles.committed_pairs.is_empty());
    // Tree latency: proposal down two hops, votes up two hops ≈ 4 one-way
    // delays = 80 ms.
    assert!(report.summary.mean_latency_ms >= 75.0);
}

#[test]
fn pipelining_improves_throughput() {
    let base = small_config(13, 20);
    let no_pipe = {
        let cfg = small_config(13, 20).without_pipelining();
        run(
            &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(13, 3, 42))),
            uniform(13, 20),
            FaultPlan::none(),
        )
        .0
    };
    let piped = run(
        &KauriCluster::new(base, |_| Box::new(KauriBinsPolicy::new(13, 3, 42))),
        uniform(13, 20),
        FaultPlan::none(),
    )
    .0;
    assert!(
        piped.summary.throughput_ops > no_pipe.summary.throughput_ops * 1.5,
        "pipelined {} vs unpipelined {}",
        piped.summary.throughput_ops,
        no_pipe.summary.throughput_ops
    );
}

#[test]
fn latency_timeline_is_nonempty_monotone_and_consistent() {
    let cfg = small_config(13, 20);
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(13, 3, 42))),
        uniform(13, 20),
        FaultPlan::none(),
    )
    .0;
    let tl = &report.latency_timeline;
    assert_eq!(tl.len() as u64, report.summary.committed_blocks);
    assert!(
        tl.windows(2).all(|w| w[0].0 <= w[1].0),
        "commit times must be monotone"
    );
    // On a quiet run the timeline's mean matches the aggregated mean.
    let mean = tl.iter().map(|&(_, v)| v).sum::<f64>() / tl.len() as f64;
    assert!(
        (mean - report.summary.mean_latency_ms).abs() < 1.0,
        "timeline mean {mean:.1} vs summary {:.1}",
        report.summary.mean_latency_ms
    );
}

#[test]
fn delaying_root_is_detected_and_replaced() {
    let n = 13;
    let mut cfg = small_config(n, 60);
    let probe_tree = KauriBinsPolicy::new(n, 3, 9).next_tree(n, 3);
    // The initial root withholds every dissemination by more than the
    // view timeout, from t = 10 s on, and never stops on its own.
    cfg.misbehavior.delay_proposals_during(
        probe_tree.root,
        Duration::from_millis(2_500),
        SimTime::from_secs(10),
        SimTime::MAX,
    );
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(n, 3, 9))),
        uniform(n, 20),
        FaultPlan::none(),
    )
    .0;
    assert!(
        report.roles.reconfigurations >= 1,
        "stale proposals must fail the tree"
    );
    // The successor tree was adopted through the committed log, and the
    // staleness evidence is reciprocal pairs, not root blame: the pairs
    // accuse the delayer's downstream-visible hops, with the attacker
    // (here the root itself) as the accused of every phase-1 pair.
    assert!(
        report.roles.adopted_epochs >= 1,
        "adoption must flow through the log"
    );
    assert!(
        !report.roles.committed_pairs.is_empty(),
        "staleness must leave committed pair evidence"
    );
    assert!(
        report
            .roles
            .committed_pairs
            .iter()
            .filter(|p| !p.reciprocal && p.phase == 1)
            .all(|p| p.accused == probe_tree.root),
        "phase-1 pairs name the withholding root: {:?}",
        report.roles.committed_pairs
    );
    let window = |from: f64, to: f64| -> Vec<f64> {
        report
            .latency_timeline
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect()
    };
    // The withheld views that did commit show the hold as a latency spike…
    let spike = window(10.0, 20.0).into_iter().fold(0.0f64, f64::max);
    assert!(
        spike > 2_000.0,
        "withheld commits should carry the hold, max was {spike:.1}ms"
    );
    // …and the tail of the run is back to clean tree latency.
    let late = window(40.0, 60.0);
    assert!(!late.is_empty(), "no commits after recovery");
    let late_mean = late.iter().sum::<f64>() / late.len() as f64;
    assert!(
        late_mean < 500.0,
        "latency should recover after the root is replaced, got {late_mean:.1}ms"
    );
}

#[test]
fn delaying_intermediate_holds_forwarded_payloads() {
    // n = 7, branch 2: the tree is root + 2 intermediates + 4 leaves, so
    // the quorum of 5 cannot form without the delayed subtree and the
    // hold is visible in commit latency.
    let n = 7;
    let run = |attack: bool| {
        let mut cfg = small_config(n, 20);
        cfg.pipeline = 1;
        let b = cfg.branch;
        let probe_tree = KauriBinsPolicy::new(n, b, 7).next_tree(n, b);
        let victim = probe_tree.intermediates[0];
        if attack {
            // A short, sub-timeout hold: latency inflates but nothing
            // reconfigures (the hold stays under the view timeout, like
            // the paper's covert performance adversary).
            cfg.misbehavior.delay_proposals_during(
                victim,
                Duration::from_millis(300),
                SimTime::from_secs(5),
                SimTime::from_secs(15),
            );
        }
        run(
            &KauriCluster::new(cfg, move |_| Box::new(KauriBinsPolicy::new(n, b, 7))),
            uniform(n, 20),
            FaultPlan::none(),
        )
        .0
    };
    let clean = run(false);
    let attacked = run(true);
    assert_eq!(
        attacked.roles.reconfigurations, 0,
        "sub-timeout holds stay covert"
    );
    let mean_in = |r: &RunReport<KauriRoles, Vec<(u64, TreeCommand)>>, from: f64, to: f64| {
        rsm::timeline_mean(&r.latency_timeline, from, to)
    };
    let clean_mid = mean_in(&clean, 5.0, 15.0);
    let attacked_mid = mean_in(&attacked, 5.0, 15.0);
    assert!(
        attacked_mid > clean_mid + 200.0,
        "held forwards should inflate commit latency: clean={clean_mid:.1}ms attacked={attacked_mid:.1}ms"
    );
    // The aggregate's percentiles come from the merged commit timeline, not
    // from the mean: under the hold the distribution is skewed, so they
    // must straddle it.
    let s = &attacked.summary;
    assert!(
        s.p99_latency_ms > s.p50_latency_ms && s.p50_latency_ms > 0.0,
        "p50 {} p99 {}",
        s.p50_latency_ms,
        s.p99_latency_ms
    );
    assert!(s.p99_latency_ms >= s.mean_latency_ms);
    // Outside the stage the two runs are equally fast.
    let attacked_late = mean_in(&attacked, 16.0, 20.0);
    assert!(
        attacked_late < clean_mid + 50.0,
        "latency should return to clean once the stage closes: {attacked_late:.1}ms"
    );
}

#[test]
fn open_loop_traffic_commits_offered_load_below_saturation() {
    let spec = rsm::TrafficSpec::poisson(300.0)
        .with_clients(4)
        .with_batching(60, Duration::from_millis(40));
    let queue = traffic::SharedTrafficQueue::generate(
        &spec,
        &[1.0, 3.0, 6.0, 9.0],
        21,
        SimTime::from_secs(20),
    );
    let mut cfg = small_config(13, 22);
    cfg.traffic = queue.clone();
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(13, 3, 42))),
        uniform(13, 20),
        FaultPlan::none(),
    )
    .0;
    let tr = queue.report(20);
    assert!(tr.offered > 4_000, "~6000 arrivals, got {}", tr.offered);
    assert_eq!(tr.rejected, 0);
    assert!(
        tr.committed >= tr.offered - 400,
        "committed {} of {}",
        tr.committed,
        tr.offered
    );
    // Demand-sized blocks, not saturated 1000-command ones.
    let per_block =
        report.summary.committed_commands as f64 / report.summary.committed_blocks as f64;
    assert!(per_block < 100.0, "mean block size {per_block}");
}

#[test]
fn traffic_queue_survives_root_crash_and_reconfiguration() {
    // The root crashes mid-run; after the progress timer moves everyone
    // to the next tree, the *new* root keeps draining the shared queue.
    let n = 13;
    let probe_tree = KauriBinsPolicy::new(n, 3, 9).next_tree(n, 3);
    let spec = rsm::TrafficSpec::poisson(300.0)
        .with_clients(4)
        .with_batching(60, Duration::from_millis(40));
    let queue = traffic::SharedTrafficQueue::generate(&spec, &[1.0; 4], 5, SimTime::from_secs(40));
    let mut cfg = small_config(n, 40);
    cfg.traffic = queue.clone();
    let mut faults = FaultPlan::none();
    faults.crash(probe_tree.root, SimTime::from_secs(10));
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(n, 3, 9))),
        uniform(n, 20),
        faults,
    )
    .0;
    assert!(report.roles.reconfigurations >= 1);
    let tr = queue.report(40);
    // The blackout around the crash loses throughput, but the batches
    // in flight when the tree failed are *retried* by the clients, so
    // the tail of the run commits at the offered rate again.
    let late: f64 = tr
        .goodput_timeline
        .iter()
        .filter(|&&(t, _)| t >= 25.0)
        .map(|&(_, v)| v)
        .sum::<f64>()
        / 15.0;
    assert!(
        late > 150.0,
        "post-recovery goodput should approach the 300/s offered rate, got {late:.0}/s"
    );
}

#[test]
fn reconfiguration_retries_dropped_batches() {
    // The root crashes: the views in flight (their batches included) die
    // with the old tree, and the client retry path re-enqueues them —
    // nearly everything offered before and after the blackout commits.
    let n = 13;
    let probe_tree = KauriBinsPolicy::new(n, 3, 9).next_tree(n, 3);
    let spec = rsm::TrafficSpec::poisson(200.0)
        .with_clients(4)
        .with_batching(50, Duration::from_millis(40));
    let queue = traffic::SharedTrafficQueue::generate(&spec, &[1.0; 4], 5, SimTime::from_secs(35));
    let mut cfg = small_config(n, 50);
    cfg.traffic = queue.clone();
    let mut faults = FaultPlan::none();
    faults.crash(probe_tree.root, SimTime::from_secs(10));
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(n, 3, 9))),
        uniform(n, 20),
        faults,
    )
    .0;
    assert!(report.roles.reconfigurations >= 1);
    let tr = queue.report(50);
    assert!(tr.retried > 0, "the dropped views' batches must be retried");
    // A retried batch is counted once: commits can never exceed offers.
    assert!(tr.committed <= tr.offered);
    assert!(
        tr.committed + tr.abandoned >= tr.offered - spec.batching.max_batch as u64,
        "retries must recover the dropped batches: committed {} + abandoned {} of {}",
        tr.committed,
        tr.abandoned,
        tr.offered
    );
}

#[test]
fn onoff_burst_gap_is_not_read_as_a_silent_root() {
    // An OnOff process whose off-phase (12 s) dwarfs the progress window
    // (6 s): without the flushable-work guard every replica would walk
    // off to the next tree mid-gap and the run would show spurious
    // reconfigurations.
    let n = 13;
    let spec = rsm::TrafficSpec::poisson(300.0)
        .with_arrivals(rsm::ArrivalProcess::OnOff {
            rate: 300.0,
            on: Duration::from_secs(6),
            off: Duration::from_secs(12),
        })
        .with_clients(4)
        .with_batching(60, Duration::from_millis(40));
    let queue = traffic::SharedTrafficQueue::generate(&spec, &[1.0; 4], 5, SimTime::from_secs(38));
    let mut cfg = small_config(n, 40);
    cfg.traffic = queue.clone();
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(n, 3, 9))),
        uniform(n, 20),
        FaultPlan::none(),
    )
    .0;
    assert_eq!(
        report.roles.reconfigurations, 0,
        "a burst gap with no flushable work must not strike the root"
    );
    let tr = queue.report(40);
    assert!(
        tr.offered > 1_000,
        "bursts offered load, got {}",
        tr.offered
    );
    assert!(
        tr.committed >= tr.offered - 200,
        "bursty offered load must commit: {} of {}",
        tr.committed,
        tr.offered
    );
}

#[test]
fn crashed_intermediate_triggers_reconfiguration_and_recovery() {
    let cfg = small_config(13, 30);
    // The initial conformity tree for seed 7 has some intermediate; crash
    // one of its internal nodes shortly after start. One crashed subtree
    // (4 of 13) leaves exactly a quorum, so views keep committing — the
    // tree absorbs the crash without failing.
    let probe_tree = KauriBinsPolicy::new(13, 3, 7).next_tree(13, 3);
    let victim = probe_tree.intermediates[0];
    let mut faults = FaultPlan::none();
    faults.crash(victim, SimTime::from_secs(5));
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(13, 3, 7))),
        uniform(13, 20),
        faults,
    )
    .0;
    // The system keeps committing after the crash…
    assert!(report.summary.committed_blocks > 20);
    // …and throughput exists in the second half of the run.
    let late: u64 = report.throughput_timeline[20..].iter().sum();
    assert!(
        late > 0,
        "no progress after the crash: {:?}",
        report.throughput_timeline
    );
}

#[test]
fn view_failure_commits_pairs_against_unresponsive_intermediates() {
    // Crash *two* intermediates: their subtrees (8 of 13) break the
    // quorum of 9, the root's view timeout fires, and the root feeds
    // §6.4 pairs (root, unresponsive-internal) through the log — the
    // replicas left waiting converge on the committed evidence instead
    // of any out-of-band blame.
    let cfg = small_config(13, 30);
    let probe_tree = KauriBinsPolicy::new(13, 3, 7).next_tree(13, 3);
    let (v1, v2) = (probe_tree.intermediates[0], probe_tree.intermediates[1]);
    let mut faults = FaultPlan::none();
    faults.crash(v1, SimTime::from_secs(5));
    faults.crash(v2, SimTime::from_secs(5));
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(13, 3, 7))),
        uniform(13, 20),
        faults,
    )
    .0;
    assert!(
        report.roles.reconfigurations >= 1,
        "quorum loss must fail the tree"
    );
    assert!(
        report.roles.adopted_epochs >= 1,
        "the successor tree must commit"
    );
    let late: u64 = report.throughput_timeline[15..].iter().sum();
    assert!(
        late > 0,
        "no progress after the crash: {:?}",
        report.throughput_timeline
    );
    for victim in [v1, v2] {
        assert!(
            report
                .roles
                .committed_pairs
                .iter()
                .any(|p| p.accused == victim && !p.reciprocal),
            "view failure must leave committed pair evidence against \
             intermediate {victim}: {:?}",
            report.roles.committed_pairs
        );
    }
    // Crashed replicas cannot reciprocate: their pairs stay one-way.
    assert!(report
        .roles
        .committed_pairs
        .iter()
        .all(|p| !(p.reciprocal && (p.accuser == v1 || p.accuser == v2))));
}

#[test]
fn root_crash_is_survived_via_progress_timer() {
    let cfg = small_config(13, 40);
    let probe_tree = KauriBinsPolicy::new(13, 3, 9).next_tree(13, 3);
    let root = probe_tree.root;
    let mut faults = FaultPlan::none();
    faults.crash(root, SimTime::from_secs(10));
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(13, 3, 9))),
        uniform(13, 20),
        faults,
    )
    .0;
    assert!(
        report.roles.reconfigurations >= 1,
        "replicas must move to a new tree"
    );
    let late: u64 = report.throughput_timeline[25..].iter().sum();
    assert!(
        late > 0,
        "no progress after root crash: {:?}",
        report.throughput_timeline
    );
    // The successor tree reached every replica as committed log content.
    assert!(report.roles.adopted_epochs >= 1);
    assert_ne!(
        report.roles.final_tree.root, root,
        "the crashed root cannot lead"
    );
}

/// The acceptance property of the configuration-log migration: a replica
/// never adopts a tree whose command has not committed. A replica that
/// misses the local failure detection (modelled here by a replica whose
/// progress view is fed by the new tree's proposals) still converges —
/// through the committed prefix, not through any epoch-in-proposal
/// shortcut.
#[test]
fn trees_are_adopted_only_through_committed_commands() {
    let n = 13;
    let probe_tree = KauriBinsPolicy::new(n, 3, 9).next_tree(n, 3);
    let mut faults = FaultPlan::none();
    faults.crash(probe_tree.root, SimTime::from_secs(8));
    let cfg = small_config(n, 30);
    // Run once to observe: every replica's config log must agree on the
    // adopted epochs (committed data is identical everywhere).
    let report = run(
        &KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(n, 3, 9))),
        uniform(n, 20),
        faults,
    )
    .0;
    assert!(report.roles.adopted_epochs >= 1);
    assert_ne!(report.roles.final_tree.root, probe_tree.root);
    // The committed successor is the shared policy's next tree, i.e. the
    // adoption came from the log replaying the same committed command at
    // every replica.
    let mut policy = KauriBinsPolicy::new(n, 3, 9);
    let _ = policy.next_tree(n, 3);
    let successor = policy.next_tree(n, 3);
    assert_eq!(report.roles.final_tree, successor);
}

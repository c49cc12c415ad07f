//! deployd: launch real-clock localhost clusters of the consensus substrates.
//!
//! This is the deployment counterpart of `lab::harness::run`: the *same*
//! [`rsm::Cluster`] value the simulator accepts (a `HotStuffConfig`, a
//! `KauriCluster`) builds the same replica structs, and [`run_on`] hands them
//! to [`runtime::RealCluster`], which runs them over real TCP sockets on
//! 127.0.0.1 with wall-clock timers, then reads them back through the
//! cluster's own report. Nothing in the protocol code changes — the node API
//! is runtime-agnostic, and the wire bound (`Serialize`/`Deserialize` on the
//! message enum) is the only opt-in. [`run_cluster`] is the flag-driven front:
//! it turns a [`DeployConfig`] into the protocol configuration and calls
//! [`run_on`].
//!
//! Load comes from the same `traffic` crate the simulation scenarios use: an
//! open-loop arrival schedule pre-generated against the run horizon. Arrival
//! offsets that the simulator interprets as virtual microseconds are here
//! wall-clock microseconds since cluster launch — the schedule is identical,
//! only the clock underneath differs, which is what makes the simulated and
//! measured throughput–latency knees comparable like-for-like.
//!
//! Telemetry: pass `Telemetry::recording()` (counters only) or
//! `Telemetry::tracing()` (plus a Perfetto/Chrome trace with wall-clock µs
//! timestamps) in [`DeployConfig::telemetry`]; the substrates' existing
//! instrumentation does the rest — deployd adds none of its own.
//!
//! Auditing: every run is watched by an [`audit::Auditor`]. The monitor beat
//! polls the live registry (commit-digest gauge pairs, batch conservation
//! with an in-flight slack of four batches) and publishes the rolling verdict
//! as `audit.*` gauges and to the ops endpoint's `/audit` feed; after
//! shutdown the exact per-replica checkpoint sequences are replayed through
//! the oracles and the strict final [`audit::AuditReport`] lands in
//! [`RealRunReport::audit`]. Configure [`DeployConfig::flight_dir`] to get a
//! flight-recorder dump (Perfetto trace + oracle report) on the first live
//! oracle violation and on a failed final verdict.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod ops;

use crypto::Digest;
use hotstuff::{HotStuffConfig, Pacemaker};
use kauri::{KauriBinsPolicy, KauriCluster, KauriConfig};
use rsm::{Cluster, RunSummary, TrafficSpec};
use runtime::{Duration, Node, RealCluster, SimTime, WireMsg};
use telemetry::Telemetry;
use traffic::{SharedTrafficQueue, TrafficReport};

/// Which consensus substrate to deploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Chained HotStuff (star topology).
    HotStuff,
    /// Kauri (tree overlay with pipelining).
    Kauri,
}

impl Substrate {
    /// Parse a `--substrate` flag value.
    pub fn parse(s: &str) -> Option<Substrate> {
        match s {
            "hotstuff" => Some(Substrate::HotStuff),
            "kauri" => Some(Substrate::Kauri),
            _ => None,
        }
    }

    /// The substrate's name as used in flags, reports and thread names.
    pub fn name(self) -> &'static str {
        match self {
            Substrate::HotStuff => "hotstuff",
            Substrate::Kauri => "kauri",
        }
    }
}

/// Configuration for one real-cluster run.
#[derive(Clone)]
pub struct DeployConfig {
    /// Which substrate to run.
    pub substrate: Substrate,
    /// Number of replicas.
    pub n: usize,
    /// Wall-clock run duration.
    pub run_for: Duration,
    /// Offered open-loop load in commands per second; `0.0` proposes from
    /// the saturated queue (full batches of `batch_size`, no clients).
    pub rate: f64,
    /// Number of load-generating clients behind the shared queue.
    pub clients: usize,
    /// Commands per block.
    pub batch_size: usize,
    /// Arrival-schedule seed.
    pub seed: u64,
    /// Telemetry handle installed on every replica.
    pub telemetry: Telemetry,
    /// Directory for flight-recorder dumps; `None` disables dumping.
    pub flight_dir: Option<String>,
    /// Live feed the ops endpoint serves as `GET /audit`, refreshed every
    /// monitor beat with the auditor's rolling verdict.
    pub audit_feed: Option<ops::AuditFeed>,
}

impl DeployConfig {
    /// Defaults: 5 s of 200 cmd/s from 4 clients, batches of 100.
    pub fn new(substrate: Substrate, n: usize) -> Self {
        DeployConfig {
            substrate,
            n,
            run_for: Duration::from_secs(5),
            rate: 200.0,
            clients: 4,
            batch_size: 100,
            seed: 7,
            telemetry: Telemetry::disabled(),
            flight_dir: None,
            audit_feed: None,
        }
    }

    fn auditor(&self) -> audit::Auditor {
        // Live polls race the pipeline: a command can be counted admitted
        // while its batch's commit/abandon counters are still being written
        // under a different registry lock. A few batches of slack absorbs
        // that; the post-shutdown check in `finish_audit` is strict.
        audit::Auditor::new().with_conservation_slack(self.batch_size as u64 * 4)
    }

    /// The flight recorder this config's runs dump through, if
    /// [`DeployConfig::flight_dir`] is set (also used by the binary's panic
    /// hook and SIGTERM path, so all dumps land in one directory).
    pub fn flight_recorder(&self) -> Option<audit::FlightRecorder> {
        self.flight_dir.as_ref().map(|dir| {
            audit::FlightRecorder::new(self.telemetry.clone(), dir.as_str()).with_process_labels(
                (0..self.n)
                    .map(|id| (id, format!("{}-{id}", self.substrate.name())))
                    .collect(),
            )
        })
    }

    fn traffic_queue(&self) -> Option<SharedTrafficQueue> {
        if self.rate <= 0.0 {
            return None;
        }
        let spec = TrafficSpec::poisson(self.rate)
            .with_clients(self.clients)
            .with_batching(self.batch_size, Duration::from_millis(40))
            .with_slo(Duration::from_secs(1));
        // Localhost ingress: ~1 ms from every client to the leader.
        let ingress = vec![1.0; self.clients];
        let queue =
            SharedTrafficQueue::generate(&spec, &ingress, self.seed, SimTime::ZERO + self.run_for);
        // Same discipline as the simulation scenarios: the queue records its
        // admission/dispatch counters and client spans into the run's
        // registry, so live scrapes and knee attribution see the client path.
        queue.set_telemetry(self.telemetry.clone());
        Some(queue)
    }
}

/// What a real-cluster run measured.
#[derive(Debug, Clone)]
pub struct RealRunReport {
    /// The substrate that ran.
    pub substrate: Substrate,
    /// Number of replicas.
    pub n: usize,
    /// Wall-clock seconds actually elapsed between launch and shutdown.
    pub wall_secs: f64,
    /// Throughput / latency summary from the cluster's own report:
    /// [`rsm::CommitStats::summary`] over the vantage point's commit records
    /// (the merged records of every root, for the trees), derived exactly as
    /// a simulated run of the same configuration derives it.
    pub summary: RunSummary,
    /// Per-replica `telemetry::CommitMetrics::commits` counters — the
    /// agreement oracles' view of progress (all zero when telemetry is
    /// disabled).
    pub per_replica_commits: Vec<u64>,
    /// Open-loop traffic accounting, when a rate was configured.
    pub traffic: Option<TrafficReport>,
    /// HotStuff only: per-replica committed `(view, digest)` sequences, for
    /// agreement checks (empty for other substrates).
    pub view_digests: Vec<Vec<(u64, Digest)>>,
    /// The run's final oracle verdicts: the exact per-replica checkpoint
    /// sequences replayed through the consensus auditor after shutdown, plus
    /// a strict (zero-slack) batch-conservation check.
    pub audit: audit::AuditReport,
}

impl RealRunReport {
    /// True when every pair of replicas agrees on the digest of every view
    /// both have stored (the HotStuff agreement oracle; trivially true for
    /// substrates that do not expose digests here).
    pub fn digests_agree(&self) -> bool {
        use std::collections::BTreeMap;
        let maps: Vec<BTreeMap<u64, Digest>> = self
            .view_digests
            .iter()
            .map(|vd| vd.iter().copied().collect())
            .collect();
        for a in &maps {
            for b in &maps {
                for (view, digest) in a {
                    if let Some(other) = b.get(view) {
                        if other != digest {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

/// Run a cluster to completion (the configured duration), polling
/// `should_stop` about every 50 ms so a signal handler can end the run
/// early with a clean shutdown.
pub fn run_cluster(
    config: &DeployConfig,
    should_stop: &dyn Fn() -> bool,
) -> std::io::Result<RealRunReport> {
    let queue = config.traffic_queue();
    let traffic = queue
        .clone()
        .unwrap_or_else(|| SharedTrafficQueue::saturated(config.batch_size));
    match config.substrate {
        Substrate::HotStuff => {
            let mut hs = HotStuffConfig::new(config.n, Pacemaker::Fixed { leader: 0 });
            hs.run_for = config.run_for;
            hs.traffic = traffic;
            hs.telemetry = config.telemetry.clone();
            run_on(config, &hs, queue, should_stop, |roles| roles.view_digests)
        }
        Substrate::Kauri => {
            let mut ka = KauriConfig::new(config.n);
            ka.run_for = config.run_for;
            ka.traffic = traffic;
            ka.telemetry = config.telemetry.clone();
            // Identically-seeded policies so every replica derives the same
            // trees — the same discipline the simulation scenarios apply.
            let (n, branch, seed) = (config.n, ka.branch, config.seed);
            let cluster =
                KauriCluster::new(ka, move |_| Box::new(KauriBinsPolicy::new(n, branch, seed)));
            run_on(config, &cluster, queue, should_stop, |_| Vec::new())
        }
    }
}

/// Launch `cluster` — any [`rsm::Cluster`], the same value
/// `lab::harness::run` accepts — on real sockets, wait out the run under the
/// live monitor, shut down, read the replicas back through the cluster's own
/// report, and seal the audit. This is the only launch path: it never names
/// a protocol. `config` supplies what the deployment (not the protocol)
/// owns: run length, telemetry, flight recorder, audit feed, and the
/// substrate name metrics are filed under. `view_digests` picks the
/// HotStuff-style digest sequences out of the roles section for the
/// [`RealRunReport::digests_agree`] check (empty for families without one).
pub fn run_on<C>(
    config: &DeployConfig,
    cluster: &C,
    queue: Option<SharedTrafficQueue>,
    should_stop: &dyn Fn() -> bool,
    view_digests: impl FnOnce(C::Roles) -> Vec<Vec<(u64, Digest)>>,
) -> std::io::Result<RealRunReport>
where
    C: Cluster,
    C::Node: Send + 'static,
    <C::Node as Node>::Msg: WireMsg + Clone,
    C::Provenance: audit::Provenance,
{
    // One-second telemetry windows, on the wall clock (the simulator uses the
    // same cadence on virtual time, so the series line up side by side).
    config.telemetry.install_timeseries(1_000_000);
    let mut auditor = config.auditor();
    let recorder = config.flight_recorder();
    let commits_metric = match config.substrate {
        Substrate::HotStuff => telemetry::HOTSTUFF_COMMITS.commits,
        Substrate::Kauri => telemetry::KAURI_COMMITS.commits,
    };
    let nodes = cluster.build();
    let started = std::time::Instant::now();
    let running = RealCluster::launch(nodes)?;
    wait_out(
        config,
        should_stop,
        queue.as_ref(),
        commits_metric,
        &mut auditor,
        recorder.as_ref(),
    );
    let mut nodes = running.shutdown();
    let wall_secs = started.elapsed().as_secs_f64();
    config
        .telemetry
        .tick_timeseries(started.elapsed().as_micros() as u64);

    let run_secs = wall_secs.max(1.0) as u64;
    let report = cluster.report(&mut nodes, run_secs);
    audit::feed_auditor(
        &mut auditor,
        report.oracle,
        &report.checkpoints,
        &report.provenance,
    );
    let snapshot = config.telemetry.registry_snapshot();
    let mut real = RealRunReport {
        substrate: config.substrate,
        n: config.n,
        wall_secs,
        summary: report.summary,
        per_replica_commits: (0..config.n)
            .map(|id| snapshot.counter(commits_metric, Some(id)))
            .collect(),
        traffic: queue.map(|q| q.report(run_secs)),
        view_digests: view_digests(report.roles),
        audit: audit::AuditReport::default(),
    };
    finish_audit(config, &mut real, auditor, recorder.as_ref());
    Ok(real)
}

/// Sleep out the run in ~50 ms slices, returning early if asked to stop.
///
/// Each slice is also the cluster's *monitor beat*: the time-series sampler
/// is ticked with wall-clock microseconds since launch (the real-clock
/// counterpart of the simulator's virtual-second tick), the live health
/// gauges the ops endpoint derives `/healthz` from are refreshed —
/// admission-queue depth vs bound, and how long the substrate's commit
/// counters have been stale — and the consensus auditor polls the registry's
/// commit-digest checkpoint gauges, publishing its rolling verdict as
/// `audit.*` gauges and to the `/audit` feed. The first live oracle
/// violation triggers one flight-recorder dump mid-run, so the evidence
/// survives even if the process never reaches a clean shutdown.
fn wait_out(
    config: &DeployConfig,
    should_stop: &dyn Fn() -> bool,
    queue: Option<&SharedTrafficQueue>,
    commits_metric: &str,
    auditor: &mut audit::Auditor,
    recorder: Option<&audit::FlightRecorder>,
) {
    let telemetry = &config.telemetry;
    let started = std::time::Instant::now();
    let deadline = started + std::time::Duration::from_micros(config.run_for.as_micros());
    let mut last_commits = 0u64;
    let mut last_progress = started;
    let mut dumped_live_violation = false;
    while std::time::Instant::now() < deadline && !should_stop() {
        std::thread::sleep(std::time::Duration::from_millis(50));
        let now = std::time::Instant::now();
        telemetry.tick_timeseries(started.elapsed().as_micros() as u64);
        if let Some(q) = queue {
            telemetry.gauge_set("deployd.queue.depth", None, q.depth() as f64);
            telemetry.gauge_set("deployd.queue.capacity", None, q.capacity() as f64);
        }
        if telemetry.is_enabled() {
            let mut commits = 0u64;
            telemetry.with_registry(|reg| {
                commits = reg
                    .counters()
                    .filter(|(k, _)| k.name == commits_metric)
                    .map(|(_, v)| v)
                    .sum();
            });
            if commits > last_commits {
                last_commits = commits;
                last_progress = now;
            }
            telemetry.gauge_set(
                "deployd.health.commit_stale_ms",
                None,
                now.duration_since(last_progress).as_millis() as f64,
            );
            telemetry.gauge_set("deployd.uptime_secs", None, started.elapsed().as_secs_f64());

            auditor.poll(&telemetry.registry_snapshot());
            let live = auditor.report();
            live.publish(telemetry);
            if let Some(feed) = &config.audit_feed {
                feed.publish(live.to_json());
            }
            if !live.ok() && !dumped_live_violation {
                dumped_live_violation = true;
                if let Some(rec) = recorder {
                    let _ = rec.dump("live-oracle-violation", &live);
                }
            }
        }
    }
}

/// Seal the auditor over the final registry (strict conservation), record
/// whether the exact digest sequences agreed, publish the verdict everywhere
/// it is served from, and dump the flight ring if the run failed its oracles.
fn finish_audit(
    config: &DeployConfig,
    report: &mut RealRunReport,
    auditor: audit::Auditor,
    recorder: Option<&audit::FlightRecorder>,
) {
    let agree = report.digests_agree();
    config.telemetry.gauge_set(
        "deployd.health.digests_agree",
        None,
        if agree { 1.0 } else { 0.0 },
    );
    let verdict = auditor.finish(&config.telemetry.registry_snapshot());
    verdict.publish(&config.telemetry);
    if let Some(feed) = &config.audit_feed {
        feed.publish(verdict.to_json());
    }
    if !verdict.ok() {
        if let Some(rec) = recorder {
            let _ = rec.dump("oracle-violation", &verdict);
        }
    }
    report.audit = verdict;
}

/// One point of a measured throughput–latency curve.
#[derive(Debug, Clone)]
pub struct KneePoint {
    /// Offered load (cmd/s).
    pub offered_rate: f64,
    /// Commands the schedule offered.
    pub offered: u64,
    /// Commands whose batch committed.
    pub committed: u64,
    /// Committed commands that met the SLO.
    pub goodput: u64,
    /// Mean end-to-end latency (ms).
    pub e2e_mean_ms: f64,
    /// Median end-to-end latency (ms).
    pub e2e_p50_ms: f64,
    /// p99 end-to-end latency (ms).
    pub e2e_p99_ms: f64,
    /// Critical-path anatomy of this rate point's committed commands,
    /// attributed from the per-rate trace.
    pub breakdown: telemetry::LatencyBreakdown,
}

/// Sweep offered load and measure the throughput–latency knee on the real
/// cluster: one short run per rate, the same shape as the simulated
/// `sweep_load_latency` sweep. Stops early (returning the points measured so
/// far) if `should_stop` reports true between runs.
///
/// Each rate runs under its own `Telemetry::tracing()` handle so the commit
/// critical path can be attributed per point, and every measured point is
/// recorded into `base.telemetry`'s registry as `deployd.knee.*` gauges
/// (replica label = rate-point index) — a live `--metrics-addr` scrape sees
/// the curve grow as the sweep walks up the rate axis.
pub fn measure_knee(
    base: &DeployConfig,
    rates: &[f64],
    should_stop: &dyn Fn() -> bool,
) -> std::io::Result<Vec<KneePoint>> {
    let mut points = Vec::with_capacity(rates.len());
    for (idx, &rate) in rates.iter().enumerate() {
        if should_stop() {
            break;
        }
        let mut cfg = base.clone();
        cfg.rate = rate;
        cfg.telemetry = Telemetry::tracing();
        let report = run_cluster(&cfg, should_stop)?;
        let tr = report
            .traffic
            .expect("knee sweep runs with a traffic queue");
        let breakdown = telemetry::LatencyBreakdown::from_paths(&cfg.telemetry.command_paths());
        let point = KneePoint {
            offered_rate: rate,
            offered: tr.offered,
            committed: tr.committed,
            goodput: tr.goodput,
            e2e_mean_ms: tr.e2e_mean_ms,
            e2e_p50_ms: tr.e2e_p50_ms,
            e2e_p99_ms: tr.e2e_p99_ms,
            breakdown,
        };
        record_knee_point(&base.telemetry, idx, &point);
        points.push(point);
    }
    Ok(points)
}

/// Publish one measured knee point into the long-lived registry the ops
/// endpoint serves, labelled by rate-point index.
fn record_knee_point(telemetry: &Telemetry, idx: usize, p: &KneePoint) {
    let r = Some(idx);
    telemetry.gauge_set("deployd.knee.offered_rate", r, p.offered_rate);
    telemetry.gauge_set("deployd.knee.offered", r, p.offered as f64);
    telemetry.gauge_set("deployd.knee.committed", r, p.committed as f64);
    telemetry.gauge_set("deployd.knee.goodput", r, p.goodput as f64);
    telemetry.gauge_set("deployd.knee.e2e_p50_ms", r, p.e2e_p50_ms);
    telemetry.gauge_set("deployd.knee.e2e_p99_ms", r, p.e2e_p99_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrate_parses_known_names_only() {
        assert_eq!(Substrate::parse("hotstuff"), Some(Substrate::HotStuff));
        assert_eq!(Substrate::parse("kauri"), Some(Substrate::Kauri));
        assert_eq!(Substrate::parse("pbft"), None);
        assert_eq!(Substrate::HotStuff.name(), "hotstuff");
    }

    #[test]
    fn traffic_queue_only_built_for_positive_rates() {
        let mut cfg = DeployConfig::new(Substrate::HotStuff, 4);
        cfg.rate = 0.0;
        assert!(cfg.traffic_queue().is_none());
        cfg.rate = 100.0;
        assert!(cfg.traffic_queue().is_some());
    }

    #[test]
    fn digests_agree_detects_divergence() {
        let d = |b: u8| Digest([b; 32]);
        let mut r = RealRunReport {
            substrate: Substrate::HotStuff,
            n: 2,
            wall_secs: 1.0,
            summary: rsm::CommitStats::default().summary(1),
            per_replica_commits: vec![1, 1],
            traffic: None,
            view_digests: vec![vec![(1, d(1)), (2, d(2))], vec![(1, d(1))]],
            audit: audit::AuditReport::default(),
        };
        assert!(r.digests_agree(), "prefix agreement must pass");
        r.view_digests[1] = vec![(1, d(9))];
        assert!(!r.digests_agree(), "divergent view 1 must fail");
    }
}

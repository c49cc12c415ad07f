//! The simulation harness: one generic runner for every consensus family.
//!
//! The substrate crates (`pbft`, `hotstuff`, `kauri`, `optitree`) are written
//! against the runtime-agnostic `runtime` node API and never import the
//! simulator; each describes a run as an [`rsm::Cluster`] value (its
//! existing configuration) that can build its replicas and read them back
//! into an [`rsm::RunReport`]. [`run`] is where such a value meets
//! `netsim::Simulation` — the only place in this crate that constructs one:
//! it builds the nodes, drives them for the configured virtual duration over
//! a latency model and a fault plan, and hands the finished nodes back to the
//! cluster to report. It never names a protocol. (The other runtime —
//! `runtime::RealCluster` — is driven the same way by `deployd::run_on`.)

use netsim::{FaultPlan, LatencyModel, MatrixLatency, SimTime, Simulation, SimulationConfig};
use rsm::{Cluster, RunReport};
use telemetry::Instrumented;

#[cfg(test)]
mod hotstuff;
#[cfg(test)]
mod kauri;
#[cfg(test)]
mod pbft;

/// Run `cluster` in the simulator over `latency` with the network-level
/// adversary stages in `faults` (crashes, delays), and return its report plus
/// the number of simulator events processed (the engine-throughput metric).
/// The simulator shares the cluster's telemetry handle: its time-series
/// sampler is ticked on virtual seconds and the engine profile drains into
/// the registry the replicas record into.
pub fn run<C: Cluster + Instrumented>(
    cluster: &C,
    latency: Box<dyn LatencyModel>,
    faults: FaultPlan,
) -> (RunReport<C::Roles, C::Provenance>, u64) {
    let run_for = cluster.run_for();
    let telemetry = cluster.telemetry();
    let mut sim = Simulation::new(cluster.build(), latency)
        .with_faults(faults)
        .with_telemetry(telemetry.clone())
        .with_config(SimulationConfig {
            horizon: SimTime::ZERO + run_for,
            max_events: 500_000_000,
        });
    sim.run();
    sim.record_engine_metrics(telemetry);
    let report = cluster.report(sim.nodes_mut(), run_for.as_micros() / 1_000_000);
    (report, sim.events_processed())
}

/// The one-way latency matrix of a PBFT run with closed-loop clients: `n`
/// replicas over the symmetric `rtt_ms` matrix (n × n) followed by `clients`
/// client nodes, client `i` sharing the city of replica `i % n`.
pub fn colocated_latency(rtt_ms: &[f64], n: usize, clients: usize) -> MatrixLatency {
    assert_eq!(rtt_ms.len(), n * n, "RTT matrix must be n*n");
    let total = n + clients;
    let city_of = |node: usize| if node < n { node } else { (node - n) % n };
    let mut rtt = vec![0.0; total * total];
    for a in 0..total {
        for b in 0..total {
            if a == b {
                continue;
            }
            let (ca, cb) = (city_of(a), city_of(b));
            // Same city: 2 ms local RTT; otherwise city RTT.
            rtt[a * total + b] = if ca == cb { 2.0 } else { rtt_ms[ca * n + cb] };
        }
    }
    MatrixLatency::from_rtt_millis(total, &rtt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ::hotstuff::{HotStuffConfig, Pacemaker};
    use ::kauri::{KauriBinsPolicy, KauriCluster, KauriConfig};
    use ::pbft::{PbftConfig, StaticPolicy};
    use netsim::{Duration, UniformLatency};
    use optitree::OptiTreePolicy;
    use rsm::SystemConfig;

    /// The trait's contract, checked the same way for every family: the
    /// common report sections are populated and the one audit feed accepts
    /// them.
    fn conforms<C: Cluster + Instrumented>(cluster: &C, nodes: usize, replicas: usize)
    where
        C::Provenance: audit::Provenance,
    {
        let latency = Box::new(UniformLatency::new(nodes, Duration::from_millis(10)));
        let (report, events) = run(cluster, latency, FaultPlan::none());
        assert!(events > 0);
        assert!(report.summary.committed_blocks > 0, "nothing committed");
        assert_eq!(
            report.latency_timeline.len() as u64,
            report.summary.committed_blocks,
            "one latency point per committed block"
        );
        assert_eq!(
            report.throughput_timeline.iter().sum::<u64>(),
            report.summary.committed_commands
        );
        assert_eq!(
            report.checkpoints.len(),
            replicas,
            "checkpoints for every replica"
        );
        let mut auditor = audit::Auditor::new();
        audit::feed_auditor(
            &mut auditor,
            report.oracle,
            &report.checkpoints,
            &report.provenance,
        );
        let verdict = auditor.finish(&telemetry::Registry::default());
        assert!(verdict.ok(), "{}", verdict.render());
    }

    #[test]
    fn every_family_conforms_to_the_cluster_contract() {
        let secs = Duration::from_secs(8);
        conforms(
            &HotStuffConfig {
                run_for: secs,
                ..HotStuffConfig::new(4, Pacemaker::RoundRobin)
            },
            4,
            4,
        );
        let mut tree = KauriConfig::new(7);
        tree.run_for = secs;
        conforms(
            &KauriCluster::new(tree, |_| Box::new(KauriBinsPolicy::new(7, 2, 3))),
            7,
            7,
        );
        conforms(
            &PbftConfig::new(4, 1, 2, |_| Box::new(StaticPolicy)).run_for(secs),
            6,
            4,
        );

        // All four families at n = 100 over a quarter second: HotStuff with
        // a fixed leader, Kauri bins, OptiTree searching over a uniform
        // 20 ms RTT matrix, and PBFT with 2n closed-loop clients.
        let (n, secs) = (100, Duration::from_millis(250));
        conforms(
            &HotStuffConfig {
                run_for: secs,
                ..HotStuffConfig::new(n, Pacemaker::Fixed { leader: 0 })
            },
            n,
            n,
        );
        let tree = || KauriConfig {
            run_for: secs,
            ..KauriConfig::new(n)
        };
        conforms(
            &KauriCluster::new(tree(), |_| Box::new(KauriBinsPolicy::new(n, 4, 1))),
            n,
            n,
        );
        let system = SystemConfig::new(n);
        conforms(
            &KauriCluster::new(tree(), |_| {
                Box::new(OptiTreePolicy::new(system, vec![20.0; n * n], 7))
            }),
            n,
            n,
        );
        conforms(
            &PbftConfig::new(n, system.f, 2 * n, |_| Box::new(StaticPolicy)).run_for(secs),
            3 * n,
            n,
        );
    }
}

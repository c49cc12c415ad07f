//! Criterion bench timing one second of simulated consensus for all four
//! substrate families (BFT-SMaRt/PBFT, HotStuff, Kauri, OptiTree) at
//! n ∈ {7, 25, 100} replicas, with an events/sec engine-throughput metric.
//!
//! Replicas are placed on the Europe21 city sample (round-robin, so any `n`
//! is valid). Each benchmark simulates `sim_run_for(n)` of virtual time —
//! one second at n ∈ {7, 25}, a quarter second at n = 100 so the big
//! configurations stay inside CI smoke time. Before timing, each
//! configuration prints one `events:` line (simulator events processed and
//! events/sec over a probe run) — the engine-throughput view of the same
//! runs; `bench_engine` records the wheel-vs-heap comparison to
//! `BENCH_engine.json`.
//!
//! Run with `cargo bench --bench protocol_throughput`.

use bench::Deployment;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotstuff::{HotStuffConfig, Pacemaker};
use kauri::{KauriBinsPolicy, KauriCluster, KauriConfig};
use lab::harness::{colocated_latency, run};
use netsim::{Duration, FaultPlan, LatencyModel, MatrixLatency};
use optitree::OptiTreePolicy;
use pbft::{PbftConfig, StaticPolicy};
use rsm::{Cluster, SystemConfig};
use std::time::Instant;
use telemetry::Instrumented;

const SIZES: [usize; 3] = [7, 25, 100];

fn sim_run_for(n: usize) -> Duration {
    if n >= 100 {
        Duration::from_millis(250)
    } else {
        Duration::from_secs(1)
    }
}

fn latency(n: usize, rtt: &[f64]) -> Box<MatrixLatency> {
    Box::new(MatrixLatency::from_rtt_millis(n, rtt))
}

/// Simulator events one fault-free run of `cluster` processes.
fn events(cluster: &(impl Cluster + Instrumented), latency: Box<dyn LatencyModel>) -> u64 {
    run(cluster, latency, FaultPlan::none()).1
}

fn pbft_events(n: usize, rtt: &[f64]) -> u64 {
    let (f, clients) = ((n - 1) / 3, 2 * n);
    let cfg = PbftConfig::new(n, f, clients, |_| Box::new(StaticPolicy)).run_for(sim_run_for(n));
    events(&cfg, Box::new(colocated_latency(rtt, n, clients)))
}

fn hotstuff_events(n: usize, rtt: &[f64]) -> u64 {
    let mut cfg = HotStuffConfig::new(n, Pacemaker::Fixed { leader: 0 });
    cfg.run_for = sim_run_for(n);
    events(&cfg, latency(n, rtt))
}

fn kauri_events(n: usize, rtt: &[f64]) -> u64 {
    let mut cfg = KauriConfig::new(n);
    cfg.run_for = sim_run_for(n);
    let cluster = KauriCluster::new(cfg, |_| Box::new(KauriBinsPolicy::new(n, 4, 1)));
    events(&cluster, latency(n, rtt))
}

fn optitree_events(n: usize, rtt: &[f64]) -> u64 {
    let system = SystemConfig::new(n);
    let mut cfg = KauriConfig::new(n);
    cfg.run_for = sim_run_for(n);
    let cluster = KauriCluster::new(cfg, |_| {
        Box::new(OptiTreePolicy::new(system, rtt.to_vec(), 7))
    });
    events(&cluster, latency(n, rtt))
}

type FamilyRunner = fn(usize, &[f64]) -> u64;

fn bench_protocols(c: &mut Criterion) {
    let families: [(&str, FamilyRunner); 4] = [
        ("pbft_static", pbft_events),
        ("hotstuff_fixed", hotstuff_events),
        ("kauri_pipeline", kauri_events),
        ("optitree_pipeline", optitree_events),
    ];
    let mut group = c.benchmark_group("protocol_throughput_europe21");
    group.sample_size(10);
    for &n in &SIZES {
        let rtt = Deployment::Europe21.rtt_matrix(n, 0);
        for (name, runner) in families {
            // Engine-throughput probe: events processed and events/sec for
            // one run of this configuration.
            let start = Instant::now();
            let events = runner(n, &rtt);
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            println!(
                "events: {name}/n={n:<3} {events:>9} events  {:>12.0} events/sec",
                events as f64 / secs
            );
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                b.iter(|| runner(n, &rtt))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);

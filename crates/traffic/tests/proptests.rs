//! Property-based tests for the open-loop traffic subsystem: every arrival
//! process is seed-deterministic and hits its configured mean rate within
//! tolerance, for arbitrary (bounded) parameters — not just the hand-picked
//! unit-test cases.

use netsim::{Duration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsm::{ArrivalProcess, TrafficSpec};
use traffic::{ArrivalSampler, TrafficQueue};

/// Collect the process's arrivals below `horizon` seconds.
fn arrivals(process: ArrivalProcess, horizon: f64, seed: u64) -> Vec<f64> {
    let mut sampler = ArrivalSampler::new(process);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    while let Some(t) = sampler.next_arrival(&mut rng) {
        if t >= horizon {
            break;
        }
        out.push(t);
    }
    out
}

fn check_process(process: ArrivalProcess, horizon: f64, seed: u64) {
    let a = arrivals(process, horizon, seed);
    // Seed-deterministic, seed-sensitive, monotone.
    prop_assert_eq!(&a, &arrivals(process, horizon, seed));
    prop_assert_ne!(&a, &arrivals(process, horizon, seed.wrapping_add(1)));
    prop_assert!(a.windows(2).all(|w| w[0] <= w[1]));
    // Mean rate within tolerance of the declared mean (5 σ of a Poisson
    // count, floored at 10% for small expectations).
    let expect = process.mean_rate() * horizon;
    let tolerance = (5.0 * expect.sqrt()).max(expect * 0.1);
    prop_assert!(
        (a.len() as f64 - expect).abs() <= tolerance,
        "{:?}: {} arrivals vs expected {:.0} ± {:.0}",
        process,
        a.len(),
        expect,
        tolerance
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn poisson_hits_its_rate(rate in 50.0f64..3000.0, seed in 0u64..1000) {
        check_process(ArrivalProcess::Poisson { rate }, 40.0, seed);
    }

    #[test]
    fn onoff_hits_its_duty_cycled_rate(
        rate in 100.0f64..2000.0,
        on_ms in 200u64..2000,
        off_ms in 200u64..2000,
        seed in 0u64..1000,
    ) {
        let process = ArrivalProcess::OnOff {
            rate,
            on: Duration::from_millis(on_ms),
            off: Duration::from_millis(off_ms),
        };
        // Whole number of cycles so the duty-cycle mean is exact.
        let cycle = (on_ms + off_ms) as f64 / 1000.0;
        let horizon = cycle * (30.0 / cycle).ceil();
        check_process(process, horizon, seed);
    }

    /// Conservation law of the admission queue: every offered command is
    /// eventually admitted or rejected, and every admitted command is
    /// batched, re-batched after a client retry, or still waiting — nothing
    /// is created or lost. (This driver never commits, so every dispatched
    /// batch eventually rides the client retry clock back into the queue
    /// until its budget runs out.)
    #[test]
    fn queue_conserves_commands(
        rate in 200.0f64..4000.0,
        max_batch in 10usize..200,
        capacity_factor in 1usize..10,
        seed in 0u64..1000,
    ) {
        let spec = TrafficSpec::poisson(rate)
            .with_clients(16)
            .with_batching(max_batch, Duration::from_millis(40))
            .with_capacity(max_batch * capacity_factor);
        let ingress = vec![3.0; 16];
        let mut q = TrafficQueue::generate(&spec, &ingress, seed, SimTime::from_secs(10));
        let mut batched = 0u64;
        let mut now = SimTime::ZERO;
        while let Some(at) = q.next_ready_at(now) {
            now = at;
            if let Some(b) = q.try_batch(now) {
                prop_assert!(b.commands.len() <= max_batch);
                batched += b.commands.len() as u64;
            }
        }
        prop_assert_eq!(q.admitted() + q.rejected(), q.offered());
        prop_assert_eq!(batched + q.depth() as u64, q.admitted() + q.retried());

        // With prompt commits the retry clock never fires and the original
        // law holds exactly.
        let mut q = TrafficQueue::generate(&spec, &ingress, seed, SimTime::from_secs(10));
        let mut batched = 0u64;
        let mut now = SimTime::ZERO;
        while let Some(at) = q.next_ready_at(now) {
            now = at;
            if let Some(b) = q.try_batch(now) {
                batched += b.commands.len() as u64;
                q.commit_batch(b.id, now);
            }
        }
        prop_assert_eq!(q.retried(), 0);
        prop_assert_eq!(batched + q.depth() as u64, q.admitted());
    }
}

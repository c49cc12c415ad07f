//! Property-based tests for the open-loop traffic subsystem: every arrival
//! process is seed-deterministic and hits its configured mean rate within
//! tolerance, for arbitrary (bounded) parameters — not just the hand-picked
//! unit-test cases — a generated queue, which draws its schedule on demand,
//! behaves exactly like the same schedule drawn up front, and both admit and
//! refuse exactly as a one-at-a-time reference does.

use netsim::{Duration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rsm::{ArrivalProcess, TrafficSpec};
use std::collections::VecDeque;
use traffic::{ArrivalSampler, ScheduledArrival, TrafficQueue, TrafficReport};

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

/// The queue `TrafficQueue::generate` builds, with the whole schedule drawn
/// up front and handed to `from_schedule`: the same draws in the same order
/// (the instant, then the client), stopping at the first instant at or past
/// the horizon.
fn eager(spec: &TrafficSpec, ingress_ms: &[f64], seed: u64, horizon: SimTime) -> TrafficQueue {
    let schedule = eager_schedule(spec, ingress_ms, seed, horizon);
    TrafficQueue::from_schedule(spec.batching, spec.queue_capacity, spec.slo, schedule)
        .with_max_retries(spec.max_retries)
}

/// The whole schedule `TrafficQueue::generate` draws on demand, in send
/// order.
fn eager_schedule(
    spec: &TrafficSpec,
    ingress_ms: &[f64],
    seed: u64,
    horizon: SimTime,
) -> Vec<ScheduledArrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = ArrivalSampler::new(spec.arrivals);
    let mut schedule = Vec::new();
    while let Some(t) = sampler.next_arrival(&mut rng) {
        if t >= horizon.as_secs_f64() {
            break;
        }
        let client = rng.gen_range(0..ingress_ms.len());
        schedule.push(ScheduledArrival {
            send: SimTime::from_micros((t * 1e6).round() as u64),
            client: client as u64,
            ingress_ms: ingress_ms[client],
        });
    }
    schedule
}

/// What a driven queue showed: every `next_ready_at` instant, and every batch
/// as its id and `(command id, client)` pairs.
type Trace = (Vec<SimTime>, Vec<(u64, Vec<(u64, u64)>)>);

/// Drive `q` as a proposer would, on a clock that may lag the queue by
/// `step` (so arrivals pile up and meet the capacity bound). Every fifth
/// batch is dropped and retried; the rest commit after `commit`. Checks
/// `offered()` against `offered` before, during and after the drive.
fn drive(q: &mut TrafficQueue, step: Duration, commit: Duration, offered: u64) -> Trace {
    prop_assert_eq!(q.offered(), offered);
    let (mut instants, mut batches) = (Vec::new(), Vec::new());
    let mut now = SimTime::ZERO;
    while let Some(at) = q.next_ready_at(now) {
        instants.push(at);
        now = at.max(now + step);
        if let Some(b) = q.try_batch(now) {
            let ids = b.commands.iter().map(|c| (c.seq, c.client)).collect();
            if b.id % 5 == 4 {
                q.retry_batch(b.id, now);
            } else {
                q.commit_batch(b.id, now + commit);
            }
            batches.push((b.id, ids));
        }
        if batches.len() == 10 {
            prop_assert_eq!(q.offered(), offered);
        }
    }
    prop_assert_eq!(q.offered(), offered);
    (instants, batches)
}

/// A client's ingress leg: zero, a value every such client shares exactly,
/// or any value up to 50 ms.
fn leg(kind: u64, ms: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => 1.0,
        _ => ms,
    }
}

proptest! {
    /// The on-demand schedule is the eager one: same batches, same command
    /// ids and clients, same wake-up instants, same report. Default case
    /// count, so `PROPTEST_CASES` can raise it.
    #[test]
    fn streamed_schedule_matches_the_eager_one(
        (poisson, rate, on_ms, off_ms) in (any::<bool>(), 50.0f64..3000.0, 20u64..500, 20u64..500),
        (clients, single, legs) in (
            1usize..65,
            0u64..4,
            prop::collection::vec((0u64..3, 0.0f64..50.0), 64),
        ),
        (max_batch, capacity_factor, horizon_ms) in (1usize..120, 1usize..6, 1u64..4000),
        (step_ms, commit_ms, seed) in (0u64..30, 0u64..300, 0u64..1000),
    ) {
        let arrivals = if poisson {
            ArrivalProcess::Poisson { rate }
        } else {
            ArrivalProcess::OnOff {
                rate,
                on: Duration::from_millis(on_ms),
                off: Duration::from_millis(off_ms),
            }
        };
        let clients = if single == 0 { 1 } else { clients };
        let ingress: Vec<f64> = legs[..clients].iter().map(|&(k, ms)| leg(k, ms)).collect();
        let spec = TrafficSpec::poisson(rate)
            .with_arrivals(arrivals)
            .with_clients(clients)
            .with_batching(max_batch, Duration::from_millis(40))
            .with_capacity(max_batch * capacity_factor);
        let horizon = SimTime::from_millis(horizon_ms);
        let mut reference = eager(&spec, &ingress, seed, horizon);
        let offered = reference.offered();
        let mut streamed = TrafficQueue::generate(&spec, &ingress, seed, horizon);
        let (step, commit) = (Duration::from_millis(step_ms), Duration::from_millis(commit_ms));
        prop_assert_eq!(
            drive(&mut streamed, step, commit, offered),
            drive(&mut reference, step, commit, offered)
        );
        let secs = horizon_ms.div_ceil(1000);
        prop_assert_eq!(streamed.report(secs), reference.report(secs));
    }
}

/// The admission queue by its definition: the whole schedule sorted by
/// `(ingress, send, client)`, every arrival due by `now` taken in turn with
/// the next id and admitted while fewer than `capacity` wait, refused
/// otherwise; batches leave in FIFO order on size or timeout, and each
/// commits at the instant it is handed.
struct Reference {
    spec: TrafficSpec,
    /// `(ingress, send, client, leg ms)` in ingress order.
    arrivals: Vec<(SimTime, SimTime, u64, f64)>,
    taken: usize,
    waiting: VecDeque<usize>,
    batches: u64,
    admitted: u64,
    rejected: u64,
    max_depth: usize,
    depth_timeline: Vec<(f64, f64)>,
    /// `(commit, e2e)` of every committed command, in commit order.
    replies: Vec<(SimTime, Duration)>,
}

impl Reference {
    fn new(spec: &TrafficSpec, schedule: &[ScheduledArrival]) -> Self {
        let mut arrivals: Vec<_> = schedule
            .iter()
            .map(|s| {
                let ingress = s.send + Duration::from_millis_f64(s.ingress_ms);
                (ingress, s.send, s.client, s.ingress_ms)
            })
            .collect();
        arrivals.sort_by_key(|&(ingress, send, client, _)| (ingress, send, client));
        Reference {
            spec: *spec,
            arrivals,
            taken: 0,
            waiting: VecDeque::new(),
            batches: 0,
            admitted: 0,
            rejected: 0,
            max_depth: 0,
            depth_timeline: Vec::new(),
            replies: Vec::new(),
        }
    }

    fn admit(&mut self, now: SimTime) {
        while self.arrivals.get(self.taken).is_some_and(|a| a.0 <= now) {
            if self.waiting.len() < self.spec.queue_capacity {
                self.waiting.push_back(self.taken);
                self.admitted += 1;
            } else {
                self.rejected += 1;
            }
            self.taken += 1;
        }
        self.max_depth = self.max_depth.max(self.waiting.len());
    }

    /// The batch `try_batch(now)` hands out, as its id and `(command id,
    /// client)` pairs, committed at `commit`.
    fn try_batch(&mut self, now: SimTime, commit: SimTime) -> Option<(u64, Vec<(u64, u64)>)> {
        self.admit(now);
        let oldest = self.arrivals[*self.waiting.front()?].0;
        let batching = self.spec.batching;
        if self.waiting.len() < batching.max_batch && now < oldest + batching.max_delay {
            return None;
        }
        let take = self.waiting.len().min(batching.max_batch);
        let commands = self
            .waiting
            .drain(..take)
            .map(|i| {
                let (_, send, client, leg) = self.arrivals[i];
                let e2e = commit.since(send) + Duration::from_millis_f64(leg);
                self.replies.push((commit, e2e));
                (i as u64, client)
            })
            .collect();
        self.depth_timeline
            .push((now.as_secs_f64(), self.waiting.len() as f64));
        self.batches += 1;
        Some((self.batches - 1, commands))
    }

    fn report(&self, run_secs: u64) -> TrafficReport {
        let offered = self.arrivals.len() as u64;
        let committed = self.replies.len() as u64;
        let mut goodput_timeline: Vec<(f64, f64)> = Vec::new();
        for &(commit, e2e) in &self.replies {
            if e2e <= self.spec.slo {
                let sec = (commit.as_micros() / 1_000_000) as usize;
                while goodput_timeline.len() <= sec {
                    goodput_timeline.push((goodput_timeline.len() as f64, 0.0));
                }
                goodput_timeline[sec].1 += 1.0;
            }
        }
        let goodput = goodput_timeline.iter().map(|&(_, ops)| ops as u64).sum();
        let mut e2e_us: Vec<u64> = self
            .replies
            .iter()
            .map(|&(_, e2e)| e2e.as_micros())
            .collect();
        e2e_us.sort_unstable();
        // Mean truncated to whole µs; R-7 percentiles rounded to whole µs.
        let ms = |us: u64| us as f64 / 1e3;
        let mean_us = e2e_us
            .iter()
            .sum::<u64>()
            .checked_div(committed)
            .unwrap_or(0);
        let r7 = |p: f64| match e2e_us.len() {
            0 => 0,
            n => {
                let rank = (n - 1) as f64 * p;
                let (lo, hi) = (e2e_us[rank.floor() as usize], e2e_us[rank.ceil() as usize]);
                (lo as f64 + rank.fract() * (hi as f64 - lo as f64)).round() as u64
            }
        };
        let secs = run_secs.max(1) as f64;
        TrafficReport {
            offered,
            admitted: self.admitted,
            rejected: self.rejected,
            retried: 0,
            abandoned: 0,
            committed,
            goodput,
            offered_ops: offered as f64 / secs,
            committed_ops: committed as f64 / secs,
            goodput_ops: goodput as f64 / secs,
            e2e_mean_ms: ms(mean_us),
            e2e_p50_ms: ms(r7(0.5)),
            e2e_p99_ms: ms(r7(0.99)),
            e2e_timeline: (self.replies.iter())
                .map(|&(commit, e2e)| (commit.as_secs_f64(), e2e.as_millis_f64()))
                .collect(),
            goodput_timeline,
            depth_timeline: self.depth_timeline.clone(),
            max_depth: self.max_depth,
        }
    }
}

proptest! {
    /// A small queue on a coarse clock, mostly overloaded, admits and
    /// refuses exactly as the one-at-a-time reference: same batches with the
    /// same command ids and clients, same counts, same report. Both the
    /// on-demand schedule and the one given up front are checked, so a
    /// fault they share cannot hide behind their agreement.
    #[test]
    fn full_queue_refuses_as_the_one_at_a_time_reference(
        (poisson, rate, on_ms, off_ms) in (any::<bool>(), 50.0f64..12000.0, 20u64..500, 20u64..500),
        (clients, single, legs) in (
            1usize..33,
            0u64..4,
            prop::collection::vec((0u64..3, 0.0f64..50.0), 32),
        ),
        (max_batch, capacity_factor, horizon_ms) in (1usize..60, 1usize..=3, 1u64..2500),
        (step_ms, commit_ms, seed) in (20u64..=200, 0u64..300, 0u64..1000),
    ) {
        let arrivals = if poisson {
            ArrivalProcess::Poisson { rate }
        } else {
            ArrivalProcess::OnOff {
                rate,
                on: Duration::from_millis(on_ms),
                off: Duration::from_millis(off_ms),
            }
        };
        let clients = if single == 0 { 1 } else { clients };
        let ingress: Vec<f64> = legs[..clients].iter().map(|&(k, ms)| leg(k, ms)).collect();
        let spec = TrafficSpec::poisson(rate)
            .with_arrivals(arrivals)
            .with_clients(clients)
            .with_batching(max_batch, Duration::from_millis(40))
            .with_capacity(max_batch * capacity_factor);
        let horizon = SimTime::from_millis(horizon_ms);
        let schedule = eager_schedule(&spec, &ingress, seed, horizon);
        let (step, commit) = (Duration::from_millis(step_ms), Duration::from_millis(commit_ms));
        let secs = horizon_ms.div_ceil(1000);
        for mut q in [
            TrafficQueue::generate(&spec, &ingress, seed, horizon),
            eager(&spec, &ingress, seed, horizon),
        ] {
            let mut reference = Reference::new(&spec, &schedule);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            while let Some(at) = q.next_ready_at(now) {
                reference.admit(now);
                now = at.max(now + step);
                if let Some(b) = q.try_batch(now) {
                    got.push((b.id, b.commands.iter().map(|c| (c.seq, c.client)).collect()));
                    q.commit_batch(b.id, now + commit);
                }
                want.extend(reference.try_batch(now, now + commit));
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(q.admitted(), reference.admitted);
            prop_assert_eq!(q.rejected(), reference.rejected);
            prop_assert_eq!(q.report(secs), reference.report(secs));
        }
    }
}

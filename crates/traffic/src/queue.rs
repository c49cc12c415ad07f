//! The leader-side admission queue: bounded buffering, size-or-timeout
//! batching, and end-to-end goodput accounting.
//!
//! A [`TrafficQueue`] is compiled once per run from a [`rsm::TrafficSpec`],
//! a client placement, and a seed. The arrival schedule is drawn from the
//! seeded process on demand, only as far ahead as the queue looks, so a
//! run's memory does not grow with rate × duration; the order and ids of the
//! arrivals are those of the whole schedule sorted by ingress instant.
//! Requests *enter* the queue one one-way client→nearest-replica latency
//! after they were issued (the ingress hop), wait under the
//! [`rsm::BatchingPolicy`], and — once their batch commits — are accounted
//! with the full client-observed latency: ingress leg + queueing +
//! consensus + reply leg.
//!
//! The queue is bounded: arrivals beyond `queue_capacity` are *rejected*
//! (admission-control backpressure) rather than buffered, so a saturated
//! run shows a latency plateau plus a goodput gap instead of an unbounded
//! latency explosion. A full queue refuses the arrivals due at that instant
//! in bulk: they are counted off the schedule without being ranked, so an
//! overloaded run pays for what it admits rather than for what it offers.
//! Each refused arrival still uses up the id it would have carried, so the
//! ids of admitted commands are those of the one-at-a-time admission.
//!
//! Substrates share one queue per run ([`SharedTrafficQueue`]) — the queue
//! logically follows whichever replica currently holds the proposer role,
//! exactly as a leader-side ingress proxy would.

use crate::sampler::ArrivalSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsm::{BatchingPolicy, Command, TrafficSpec};
use runtime::{Duration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use telemetry::{Registry, Stage, Telemetry, CLIENTS_PID};

/// One scheduled request, before admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledArrival {
    /// When the client issued the request.
    pub send: SimTime,
    /// Issuing client (only used to tag commands).
    pub client: u64,
    /// One-way client → nearest-replica latency in ms (paid on ingress and
    /// again on the reply).
    pub ingress_ms: f64,
}

/// A batch handed to a substrate, with the id it must echo on commit.
#[derive(Debug, Clone)]
pub struct TrafficBatch {
    /// Opaque batch id; pass to [`TrafficQueue::commit_batch`] when the
    /// block carrying these commands commits.
    pub id: u64,
    /// The batched commands.
    pub commands: Vec<Command>,
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    send: SimTime,
    ingress: SimTime,
    client: u64,
    reply_ms: f64,
}

/// An arrival taken off the schedule, with its rank in ingress order: the
/// id its command carries.
#[derive(Debug, Clone, Copy)]
struct Queued {
    idx: u64,
    arrival: Arrival,
}

/// A batch handed out but not yet committed.
#[derive(Debug, Clone)]
struct InFlight {
    /// When the batch was dispatched (starts the client retry clock).
    at: SimTime,
    /// The commands in the batch.
    commands: Vec<Queued>,
    /// Per-command ingress→proposer forwarding charge (ms), fixed at
    /// dispatch, aligned with `commands`. The commit accounting and the
    /// `ingress_forward` trace span both read *this* value, so the charged
    /// hop and the observed hop can never drift apart.
    forward_ms: Vec<f64>,
}

/// The seeded arrival process of a generated schedule.
#[derive(Debug, Clone)]
struct Source {
    sampler: ArrivalSampler,
    rng: StdRng,
    clients: usize,
    horizon_s: f64,
    /// The shortest ingress leg over all clients.
    min_ingress: Duration,
    /// No later draw enters the queue before this instant: the latest send
    /// plus the shortest leg.
    frontier: SimTime,
}

impl Source {
    /// The next request below the horizon as `(send, client)`: the instant
    /// is drawn first, then the client. `None` from the first instant at or
    /// past the horizon on; the caller stops drawing there.
    fn draw(&mut self) -> Option<(SimTime, u64)> {
        let t = self.sampler.next_arrival(&mut self.rng)?;
        if t >= self.horizon_s {
            return None;
        }
        let client = self.rng.gen_range(0..self.clients);
        let send = SimTime::from_micros((t * 1e6).round() as u64);
        self.frontier = send + self.min_ingress;
        Some((send, client as u64))
    }
}

/// The arrival schedule in ingress order, drawn only as far as the queue
/// looks ahead.
///
/// Draws come in send order, but a draw with a short ingress leg can enter
/// the queue before an earlier draw with a long one. A drawn arrival
/// therefore waits in `pending` until no later draw can precede it: every
/// later draw is sent no earlier than the latest one, so it enters no
/// earlier than the source's `frontier`. The order released is the stable
/// sort of the whole schedule by `(ingress, send, client)`, which is what
/// an explicit schedule is sorted by.
#[derive(Debug)]
struct Schedule {
    /// The process still to draw from; `None` once it has passed the
    /// horizon, and from the start for an explicit schedule.
    source: Option<Source>,
    /// Per-client one-way ingress latency (ms) of a generated schedule.
    ingress_ms: Vec<f64>,
    /// Drawn arrivals whose rank is not final yet, keyed `(ingress, send,
    /// client)`. Equal keys are equal arrivals, so the heap may release
    /// them in any order.
    pending: BinaryHeap<Reverse<(SimTime, SimTime, u64)>>,
    /// Arrivals whose rank is final, in ingress order.
    ready: VecDeque<Arrival>,
    /// Arrivals drawn so far (an explicit schedule is drawn in full).
    drawn: u64,
    /// Arrivals taken so far: the next one taken gets this as its id.
    taken: u64,
}

impl Schedule {
    fn generated(spec: &TrafficSpec, ingress_ms: &[f64], seed: u64, horizon: SimTime) -> Self {
        assert!(
            !ingress_ms.is_empty(),
            "traffic needs at least one placed client"
        );
        let min_ingress = ingress_ms
            .iter()
            .map(|&ms| Duration::from_millis_f64(ms))
            .min()
            .expect("at least one client");
        Schedule {
            source: Some(Source {
                sampler: ArrivalSampler::new(spec.arrivals),
                rng: StdRng::seed_from_u64(seed),
                clients: ingress_ms.len(),
                horizon_s: horizon.as_secs_f64(),
                min_ingress,
                frontier: SimTime::ZERO,
            }),
            ingress_ms: ingress_ms.to_vec(),
            pending: BinaryHeap::new(),
            ready: VecDeque::new(),
            drawn: 0,
            taken: 0,
        }
    }

    /// A schedule given in full, already in ingress order.
    fn explicit(sorted: Vec<Arrival>) -> Self {
        Schedule {
            source: None,
            ingress_ms: Vec::new(),
            pending: BinaryHeap::new(),
            drawn: sorted.len() as u64,
            ready: sorted.into(),
            taken: 0,
        }
    }

    /// Draw the next arrival as its `(ingress, send, client)` key, or retire
    /// the source at the horizon.
    fn draw(&mut self) -> Option<(SimTime, SimTime, u64)> {
        let Some((send, client)) = self.source.as_mut().and_then(Source::draw) else {
            self.source = None;
            return None;
        };
        self.drawn += 1;
        let leg = Duration::from_millis_f64(self.ingress_ms[client as usize]);
        Some((send + leg, send, client))
    }

    /// Move the next arrival in ingress order into `ready`, drawing until
    /// its rank is final; false once the schedule is exhausted.
    fn release_next(&mut self) -> bool {
        loop {
            match self.pending.peek() {
                Some(&Reverse((ingress, send, client)))
                    if self.source.as_ref().is_none_or(|s| ingress < s.frontier) =>
                {
                    self.pending.pop();
                    self.ready.push_back(Arrival {
                        send,
                        ingress,
                        client,
                        reply_ms: self.ingress_ms[client as usize],
                    });
                    return true;
                }
                None if self.source.is_none() => return false,
                _ => {
                    if let Some(key) = self.draw() {
                        self.pending.push(Reverse(key));
                    }
                }
            }
        }
    }

    /// The `k`-th arrival not yet taken (0 is the next one).
    fn get(&mut self, k: usize) -> Option<&Arrival> {
        while self.ready.len() <= k && self.release_next() {}
        self.ready.get(k)
    }

    /// Take the next arrival if it has entered the queue by `now`.
    fn take_due(&mut self, now: SimTime) -> Option<Queued> {
        self.get(0).filter(|a| a.ingress <= now)?;
        let arrival = self.ready.pop_front()?;
        let idx = self.taken;
        self.taken += 1;
        Some(Queued { idx, arrival })
    }

    /// Count off every arrival not yet taken that has entered the queue by
    /// `now`, as if each were taken and then refused: `taken` ends where
    /// [`Schedule::take_due`] called until `None` would leave it, so later
    /// ids do not move, and every draw counts in `drawn`, so `offered()` does
    /// not either. None of the refused arrivals is ranked or kept.
    ///
    /// `ready` is counted first, then — only if it empties — the due head of
    /// `pending`, then fresh draws while the source's frontier is due. If
    /// `ready` still holds an entry, its ingress is past `now`, and every
    /// arrival in `pending` or drawn later enters no earlier than it, so none
    /// of them is due; once the frontier passes `now`, no later draw is.
    fn refuse_due(&mut self, now: SimTime) -> u64 {
        let mut refused = 0;
        while self.ready.front().is_some_and(|a| a.ingress <= now) {
            self.ready.pop_front();
            refused += 1;
        }
        if self.ready.is_empty() {
            while self
                .pending
                .peek()
                .is_some_and(|&Reverse((ingress, ..))| ingress <= now)
            {
                self.pending.pop();
                refused += 1;
            }
            while self.source.as_ref().is_some_and(|s| s.frontier <= now) {
                match self.draw() {
                    Some((ingress, ..)) if ingress <= now => refused += 1,
                    Some(key) => self.pending.push(Reverse(key)),
                    None => {}
                }
            }
        }
        self.taken += refused;
        refused
    }

    /// Total arrivals the schedule offers: the drawn prefix plus whatever a
    /// copy of the process draws up to the horizon, storing none of it.
    fn offered(&self) -> u64 {
        let mut rest = self.source.clone();
        let undrawn = rest
            .as_mut()
            .map_or(0, |s| std::iter::from_fn(|| s.draw()).count());
        self.drawn + undrawn as u64
    }
}

/// The ingress→leader forwarding leg of the request path.
///
/// A request enters through its client's *nearest* replica; when the current
/// proposer is a different replica, the request pays one more one-way hop
/// before it can be batched. Without this model that hop was silently folded
/// into consensus latency — under-charging exactly the far-leader placements
/// the role policies are supposed to be judged on.
#[derive(Debug, Clone)]
pub struct ForwardingModel {
    /// Per-client ingress replica (see [`crate::placement::place_clients`]).
    nearest: Vec<usize>,
    /// Row-major `n × n` one-way replica-to-replica latency (ms).
    hop_ms: Vec<f64>,
    n: usize,
}

impl ForwardingModel {
    /// Build from client placements and the deployment's replica RTT matrix
    /// (row-major `n × n`, ms round-trip — halved into one-way hops).
    pub fn from_rtt(nearest: Vec<usize>, rtt_ms: &[f64], n: usize) -> Self {
        assert_eq!(rtt_ms.len(), n * n, "rtt matrix must be n×n");
        assert!(
            nearest.iter().all(|&r| r < n),
            "ingress replica out of range"
        );
        ForwardingModel {
            nearest,
            hop_ms: rtt_ms.iter().map(|&rtt| rtt / 2.0).collect(),
            n,
        }
    }

    /// One-way forwarding latency (ms) for `client`'s requests when
    /// `proposer` holds the leader role. Zero when the client's ingress
    /// replica *is* the proposer.
    pub fn forward_ms(&self, client: u64, proposer: usize) -> f64 {
        let ingress = self.nearest[client as usize % self.nearest.len()];
        self.hop_ms[ingress * self.n + proposer]
    }

    /// The replica `client`'s requests enter through.
    pub fn ingress_of(&self, client: u64) -> usize {
        self.nearest[client as usize % self.nearest.len()]
    }
}

/// The admission queue for one run.
#[derive(Debug)]
pub struct TrafficQueue {
    batching: BatchingPolicy,
    capacity: usize,
    /// The goodput SLO; also anchors the client retry clock.
    slo: Duration,
    /// Arrivals not yet admitted or rejected, in ingress order.
    schedule: Schedule,
    /// Admitted commands waiting to be batched.
    waiting: VecDeque<Queued>,
    /// Batches handed out but not yet committed.
    in_flight: BTreeMap<u64, InFlight>,
    /// Commands inside `in_flight`, kept as a running count.
    in_flight_commands: u64,
    next_batch_id: u64,
    admitted: u64,
    rejected: u64,
    /// Client retry bound for dropped batches.
    max_retries: u32,
    /// Per-command (command id) retry counts.
    retries: BTreeMap<u64, u32>,
    /// Commands re-enqueued after their batch was dropped.
    retried: u64,
    /// Commands whose retry budget ran out (lost for good).
    abandoned: u64,
    /// Ingress→leader forwarding accounting; `None` charges no hop (clients
    /// co-located with the proposer, or unit tests with explicit schedules).
    forwarding: Option<ForwardingModel>,
    /// One `(commit instant, end-to-end latency)` per committed command,
    /// in commit order: every client-side figure is derived from these.
    replies: Vec<(SimTime, Duration)>,
    depth_timeline: Vec<(f64, f64)>,
    max_depth: usize,
    /// Observability handle; disabled by default (zero-cost no-op).
    telemetry: Telemetry,
}

impl TrafficQueue {
    /// Build the queue from an explicit schedule (tests, replays). Arrivals
    /// may be given in any order; they are sorted by ingress instant.
    pub fn from_schedule(
        batching: BatchingPolicy,
        capacity: usize,
        slo: Duration,
        schedule: Vec<ScheduledArrival>,
    ) -> Self {
        let mut arrivals: Vec<Arrival> = schedule
            .into_iter()
            .map(|s| Arrival {
                send: s.send,
                ingress: s.send + Duration::from_millis_f64(s.ingress_ms),
                client: s.client,
                reply_ms: s.ingress_ms,
            })
            .collect();
        arrivals.sort_by_key(|a| (a.ingress, a.send, a.client));
        Self::new(batching, capacity, slo, Schedule::explicit(arrivals))
    }

    fn new(batching: BatchingPolicy, capacity: usize, slo: Duration, schedule: Schedule) -> Self {
        assert!(
            capacity >= batching.max_batch,
            "queue capacity {capacity} below batch size {} would starve the size flush",
            batching.max_batch
        );
        TrafficQueue {
            batching,
            capacity,
            slo,
            schedule,
            waiting: VecDeque::new(),
            in_flight: BTreeMap::new(),
            in_flight_commands: 0,
            next_batch_id: 0,
            admitted: 0,
            rejected: 0,
            max_retries: 3,
            retries: BTreeMap::new(),
            retried: 0,
            abandoned: 0,
            forwarding: None,
            replies: Vec::new(),
            depth_timeline: Vec::new(),
            max_depth: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Override the client retry bound (see [`rsm::TrafficSpec::max_retries`]).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Install the ingress→leader forwarding model: batches dispatched via
    /// [`TrafficQueue::try_batch_at`] charge each command one extra one-way
    /// hop from its ingress replica to the proposer.
    pub fn with_forwarding(mut self, forwarding: ForwardingModel) -> Self {
        self.forwarding = Some(forwarding);
        self
    }

    /// Install a telemetry handle: client-side spans (`client_emit`,
    /// `admission`, `ingress_forward`, `reply`) and queue metrics are
    /// recorded through it. Disabled by default.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Compile a [`TrafficSpec`] into a queue that samples the arrival
    /// process up to `horizon`, spreading arrivals over the placed clients
    /// (`ingress_ms[c]` = client `c`'s one-way latency to its nearest
    /// replica, see [`crate::placement::client_ingress_ms`]). Nothing is
    /// drawn here: the queue draws as it is driven, and its arrivals, ids
    /// and batches are those of the whole schedule drawn up front and
    /// passed to [`TrafficQueue::from_schedule`].
    pub fn generate(spec: &TrafficSpec, ingress_ms: &[f64], seed: u64, horizon: SimTime) -> Self {
        let schedule = Schedule::generated(spec, ingress_ms, seed, horizon);
        Self::new(spec.batching, spec.queue_capacity, spec.slo, schedule)
            .with_max_retries(spec.max_retries)
    }

    /// Total requests the schedule offers. Counts the undrawn rest of a
    /// generated schedule by sampling it, so its cost grows with the time
    /// left to the horizon.
    pub fn offered(&self) -> u64 {
        self.schedule.offered()
    }

    /// The client retry clock: a batch that has been in flight this long is
    /// presumed lost (e.g. its proposer crashed with the views holding it)
    /// and its commands are re-submitted. Generous relative to the SLO so a
    /// slow-but-alive proposer never races its own clients.
    fn retry_timeout(&self) -> Duration {
        self.slo * 4
    }

    /// Let clients whose batch has been in flight beyond the retry clock
    /// re-submit — the backstop for batches lost at a *crashed* proposer,
    /// which can never return them itself; then move every arrival whose
    /// ingress instant has passed into the waiting queue, in ingress order,
    /// until it is full. Nothing leaves `waiting` in here, so every arrival
    /// still due then finds it full and is rejected: those are counted off
    /// in bulk ([`Schedule::refuse_due`]), each using up its id as a
    /// one-at-a-time refusal would, so later ids do not move.
    fn admit(&mut self, now: SimTime) {
        let timeout = self.retry_timeout();
        let expired: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, f)| f.at + timeout <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.retry_batch(id, now);
        }
        let mut admitted = 0u64;
        while self.waiting.len() < self.capacity {
            let Some(queued) = self.schedule.take_due(now) else {
                break;
            };
            self.waiting.push_back(queued);
            admitted += 1;
        }
        // The loop stops with nothing due or with `waiting` full. `waiting`
        // only grows in here, so in the second case every arrival still due
        // is refused whatever its rank, and only their number matters.
        let rejected = self.schedule.refuse_due(now);
        self.admitted += admitted;
        self.rejected += rejected;
        self.max_depth = self.max_depth.max(self.waiting.len());
        // One registry visit per call, however many arrivals it swept up.
        self.telemetry.with_registry(|reg| {
            if admitted > 0 {
                reg.counter_add("traffic.queue.admitted", None, admitted);
            }
            if rejected > 0 {
                reg.counter_add("traffic.queue.rejected", None, rejected);
            }
            self.publish_conservation_gauges(reg);
        });
    }

    /// Publish the live conservation terms the audit oracle balances:
    /// `admitted = committed + abandoned + waiting + in_flight` (retried
    /// commands re-enter `waiting` without re-counting as admitted, so the
    /// retry flow cancels out of the identity).
    fn publish_conservation_gauges(&self, reg: &mut Registry) {
        reg.gauge_set("traffic.queue.waiting", None, self.waiting.len() as f64);
        reg.gauge_set(
            "traffic.queue.in_flight",
            None,
            self.in_flight_commands as f64,
        );
    }

    /// Ask for a batch as of `now`: flushes when the waiting queue holds a
    /// full batch *or* its oldest command has waited `max_delay`. Returns
    /// `None` while neither condition holds (the substrate should re-ask at
    /// [`TrafficQueue::next_ready_at`]).
    pub fn try_batch(&mut self, now: SimTime) -> Option<TrafficBatch> {
        self.dispatch(now, None)
    }

    /// Like [`TrafficQueue::try_batch`], but records *which* replica is
    /// proposing: with a [`ForwardingModel`] installed, every command in the
    /// batch is charged the ingress→proposer forwarding hop at commit time.
    /// Substrates that know their identity should always use this entry
    /// point; a retried batch re-dispatched by a new proposer is re-charged
    /// against that proposer.
    pub fn try_batch_at(&mut self, now: SimTime, proposer: usize) -> Option<TrafficBatch> {
        self.dispatch(now, Some(proposer))
    }

    fn dispatch(&mut self, now: SimTime, proposer: Option<usize>) -> Option<TrafficBatch> {
        self.admit(now);
        let oldest = self.waiting.front()?.arrival.ingress;
        let full = self.waiting.len() >= self.batching.max_batch;
        let timed_out = now >= oldest + self.batching.max_delay;
        if !full && !timed_out {
            return None;
        }
        let take = self.waiting.len().min(self.batching.max_batch);
        let queued: Vec<Queued> = self.waiting.drain(..take).collect();
        let commands = queued
            .iter()
            .map(|q| Command::empty(q.arrival.client, q.idx))
            .collect();
        // The forwarding charge is fixed here, at dispatch: the commit
        // accounting and the trace span below both consume these values.
        let forward_ms: Vec<f64> = queued
            .iter()
            .map(|q| match (&self.forwarding, proposer) {
                (Some(f), Some(p)) => f.forward_ms(q.arrival.client, p),
                _ => 0.0,
            })
            .collect();
        if self.telemetry.is_tracing() {
            for (&Queued { idx: i, arrival: a }, &fwd) in queued.iter().zip(&forward_ms) {
                self.telemetry.span(
                    Stage::ClientEmit,
                    CLIENTS_PID,
                    i,
                    a.send.as_micros(),
                    a.ingress.since(a.send).as_micros(),
                    &[("client", a.client as f64)],
                );
                self.telemetry.span(
                    Stage::Admission,
                    CLIENTS_PID,
                    i,
                    a.ingress.as_micros(),
                    now.since(a.ingress).as_micros(),
                    &[],
                );
                if fwd > 0.0 {
                    let ingress_pid = self
                        .forwarding
                        .as_ref()
                        .map_or(CLIENTS_PID, |f| f.ingress_of(a.client));
                    self.telemetry.span(
                        Stage::IngressForward,
                        ingress_pid,
                        i,
                        now.as_micros(),
                        Duration::from_millis_f64(fwd).as_micros(),
                        &[("proposer", proposer.unwrap_or(0) as f64)],
                    );
                }
            }
        }
        self.in_flight_commands += queued.len() as u64;
        self.telemetry.with_registry(|reg| {
            reg.observe_each(
                "traffic.queue.wait_us",
                None,
                queued
                    .iter()
                    .map(|q| now.since(q.arrival.ingress).as_micros()),
            );
            reg.counter_add("traffic.queue.dispatched", None, queued.len() as u64);
            reg.gauge_max("traffic.queue.depth_peak", None, self.max_depth as f64);
            self.publish_conservation_gauges(reg);
        });
        let id = self.next_batch_id;
        self.next_batch_id += 1;
        self.in_flight.insert(
            id,
            InFlight {
                at: now,
                commands: queued,
                forward_ms,
            },
        );
        self.depth_timeline
            .push((now.as_secs_f64(), self.waiting.len() as f64));
        Some(TrafficBatch { id, commands })
    }

    /// The earliest instant at which [`TrafficQueue::try_batch`] could next
    /// succeed, or `None` when the schedule is exhausted and nothing waits.
    /// Always strictly after `now`, so a timer armed on it makes progress.
    pub fn next_ready_at(&mut self, now: SimTime) -> Option<SimTime> {
        self.admit(now);
        let tick = Duration::from_micros(1);
        if self.waiting.len() >= self.batching.max_batch {
            return Some(now + tick);
        }
        // Size path: the ingress instant of the arrival that completes a
        // full batch (future arrivals beyond the capacity bound cannot be
        // rejected before then because capacity ≥ max_batch).
        let need = self.batching.max_batch - self.waiting.len();
        let size_at = self.schedule.get(need - 1).map(|a| a.ingress);
        // Timeout path: the oldest waiting — or else the next future —
        // command's ingress plus the batching delay.
        let oldest = match self.waiting.front() {
            Some(q) => Some(q.arrival.ingress),
            None => self.schedule.get(0).map(|a| a.ingress),
        };
        let timeout_at = oldest.map(|o| o + self.batching.max_delay);
        let at = match (size_at, timeout_at) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        Some(at.max(now + tick))
    }

    /// True when [`TrafficQueue::try_batch`] would return a batch at `now`:
    /// the waiting queue holds a full batch or its oldest command has waited
    /// out the batching delay. Tree substrates consult this before reading
    /// root silence as failure — an `OnOff` burst gap longer than a progress
    /// window must not look like a crashed root.
    pub fn has_flushable(&mut self, now: SimTime) -> bool {
        self.admit(now);
        let Some(oldest) = self.waiting.front().map(|q| q.arrival.ingress) else {
            return false;
        };
        self.waiting.len() >= self.batching.max_batch || now >= oldest + self.batching.max_delay
    }

    /// The batch carrying `id` was dropped before committing (e.g. a tree
    /// reconfiguration discarded the in-flight view): the client population
    /// re-submits every command still inside its retry budget, re-enqueued
    /// at the front of the waiting queue (they are the oldest outstanding
    /// work). Commands keep their original send time, so an eventual commit
    /// is accounted once, with the full client-observed latency including
    /// the lost round trip.
    pub fn retry_batch(&mut self, id: u64, _now: SimTime) {
        let Some(flight) = self.in_flight.remove(&id) else {
            return;
        };
        self.in_flight_commands -= flight.commands.len() as u64;
        let mut requeue = Vec::new();
        let mut dropped = 0;
        for q in flight.commands {
            let tries = self.retries.entry(q.idx).or_insert(0);
            if *tries < self.max_retries {
                *tries += 1;
                requeue.push(q);
            } else {
                self.abandoned += 1;
                dropped += 1;
            }
        }
        self.retried += requeue.len() as u64;
        // Front of the queue, original order preserved: retried commands are
        // older than anything still waiting. Capacity is not re-checked —
        // these commands were already admitted once.
        for &q in requeue.iter().rev() {
            self.waiting.push_front(q);
        }
        self.max_depth = self.max_depth.max(self.waiting.len());
        self.telemetry.with_registry(|reg| {
            reg.counter_add("traffic.queue.retried", None, requeue.len() as u64);
            if dropped > 0 {
                reg.counter_add("traffic.queue.abandoned", None, dropped);
            }
            self.publish_conservation_gauges(reg);
        });
    }

    /// Report that the block carrying batch `id` committed at `committed`:
    /// every command in it is accounted with its client-observed latency
    /// (ingress leg + forwarding hop + queueing + consensus + reply leg)
    /// against the SLO.
    pub fn commit_batch(&mut self, id: u64, committed: SimTime) {
        self.commit_batch_impl(id, committed, None);
    }

    /// Like [`TrafficQueue::commit_batch`], additionally naming the
    /// consensus view / sequence ordinal that committed the batch. The
    /// `reply` trace span then carries a `view` argument, which is the link
    /// critical-path attribution uses to join the client-side span chain to
    /// the consensus-side spans of the committing proposal.
    pub fn commit_batch_in(&mut self, id: u64, committed: SimTime, view: u64) {
        self.commit_batch_impl(id, committed, Some(view));
    }

    fn commit_batch_impl(&mut self, id: u64, committed: SimTime, view: Option<u64>) {
        let Some(flight) = self.in_flight.remove(&id) else {
            return;
        };
        self.in_flight_commands -= flight.commands.len() as u64;
        let first_reply = self.replies.len();
        let tracing = self.telemetry.is_tracing();
        for (&Queued { idx: i, arrival: a }, &forward_ms) in
            flight.commands.iter().zip(&flight.forward_ms)
        {
            let e2e = committed.since(a.send) + Duration::from_millis_f64(a.reply_ms + forward_ms);
            self.replies.push((committed, e2e));
            if tracing {
                let view_arg = view.map(|v| ("view", v as f64));
                self.telemetry.span(
                    Stage::Reply,
                    CLIENTS_PID,
                    i,
                    committed.as_micros(),
                    Duration::from_millis_f64(a.reply_ms).as_micros(),
                    view_arg.as_slice(),
                );
            }
        }
        self.telemetry.with_registry(|reg| {
            reg.observe_each(
                "traffic.client.e2e_us",
                None,
                self.replies[first_reply..]
                    .iter()
                    .map(|&(_, e2e)| e2e.as_micros()),
            );
            reg.counter_add(
                "traffic.client.committed",
                None,
                flight.commands.len() as u64,
            );
            self.publish_conservation_gauges(reg);
        });
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected by backpressure so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Commands re-enqueued after a dropped batch so far.
    pub fn retried(&self) -> u64 {
        self.retried
    }

    /// Commands lost for good after exhausting their retry budget.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Current waiting-queue depth.
    pub fn depth(&self) -> usize {
        self.waiting.len()
    }

    /// Commands inside batches handed out but not yet committed, retried,
    /// or abandoned — the in-flight term of the conservation identity.
    pub fn in_flight_commands(&self) -> u64 {
        self.in_flight_commands
    }

    /// Summarise the run. A command counts towards goodput iff its
    /// end-to-end latency meets the SLO.
    pub fn report(&self, run_secs: u64) -> TrafficReport {
        let offered = self.offered();
        let committed = self.replies.len() as u64;
        let within_slo = || self.replies.iter().filter(|&&(_, e2e)| e2e <= self.slo);
        let goodput = within_slo().count() as u64;
        let mut e2e_us: Vec<u64> = self.replies.iter().map(|r| r.1.as_micros()).collect();
        let [e2e_mean_ms, e2e_p50_ms, e2e_p99_ms] = rsm::latency_ms(&mut e2e_us);
        // Freed before the timelines are built, to keep the report's peak low.
        drop(e2e_us);
        let secs = run_secs.max(1) as f64;
        TrafficReport {
            offered,
            admitted: self.admitted,
            rejected: self.rejected,
            retried: self.retried,
            abandoned: self.abandoned,
            committed,
            goodput,
            offered_ops: offered as f64 / secs,
            committed_ops: committed as f64 / secs,
            goodput_ops: goodput as f64 / secs,
            e2e_mean_ms,
            e2e_p50_ms,
            e2e_p99_ms,
            e2e_timeline: (self.replies.iter())
                .map(|&(at, e2e)| (at.as_secs_f64(), e2e.as_millis_f64()))
                .collect(),
            goodput_timeline: rsm::per_second(within_slo().map(|&(at, _)| (at, 1)))
                .into_iter()
                .enumerate()
                .map(|(sec, ops)| (sec as f64, ops as f64))
                .collect(),
            depth_timeline: self.depth_timeline.clone(),
            max_depth: self.max_depth,
        }
    }
}

/// Client-side results of one run under offered load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficReport {
    /// Requests the schedule offered.
    pub offered: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Commands re-enqueued after their batch was dropped (each counted per
    /// retry, so one command retried twice contributes 2).
    pub retried: u64,
    /// Commands lost after exhausting the retry budget.
    pub abandoned: u64,
    /// Requests whose batch committed.
    pub committed: u64,
    /// Committed requests that met the SLO.
    pub goodput: u64,
    /// Offered load in commands per second (nominal horizon).
    pub offered_ops: f64,
    /// Committed throughput in commands per second (nominal horizon).
    pub committed_ops: f64,
    /// Goodput in commands per second (nominal horizon).
    pub goodput_ops: f64,
    /// Mean end-to-end latency (ms).
    pub e2e_mean_ms: f64,
    /// Median end-to-end latency (ms).
    pub e2e_p50_ms: f64,
    /// 99th-percentile end-to-end latency (ms).
    pub e2e_p99_ms: f64,
    /// Per-command (commit time s, e2e ms) timeline.
    pub e2e_timeline: Vec<(f64, f64)>,
    /// Per-second within-SLO committed counts as (second, ops).
    pub goodput_timeline: Vec<(f64, f64)>,
    /// Queue depth sampled after each batch flush: (time s, depth).
    pub depth_timeline: Vec<(f64, f64)>,
    /// Deepest the waiting queue ever got.
    pub max_depth: usize,
}

/// The one proposal source every replica of a run shares: an open-loop
/// [`TrafficQueue`] (the mutex only satisfies `Send` in the simulation) or
/// the paper's saturated workload ([`SharedTrafficQueue::saturated`]).
/// Substrates drive both through the same calls; only this type tells them
/// apart.
#[derive(Debug, Clone)]
pub struct SharedTrafficQueue(Shared);

#[derive(Debug, Clone)]
enum Shared {
    Open(Arc<Mutex<TrafficQueue>>),
    /// Batches of `max_batch` commands; `batches` counts those handed out.
    Saturated {
        max_batch: u64,
        batches: Arc<AtomicU64>,
    },
}

impl SharedTrafficQueue {
    /// Wrap a queue for sharing.
    pub fn new(queue: TrafficQueue) -> Self {
        SharedTrafficQueue(Shared::Open(Arc::new(Mutex::new(queue))))
    }

    /// Compile a spec; see [`TrafficQueue::generate`].
    pub fn generate(spec: &TrafficSpec, ingress_ms: &[f64], seed: u64, horizon: SimTime) -> Self {
        Self::new(TrafficQueue::generate(spec, ingress_ms, seed, horizon))
    }

    /// The saturated workload (§7.3): always flushable, each batch
    /// `max_batch` empty commands from client 0 with a running `seq` and a
    /// fresh id, whichever replica asks. It has no clients, so committing
    /// or dropping a batch does nothing and it records no metric or span.
    pub fn saturated(max_batch: usize) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        SharedTrafficQueue(Shared::Saturated {
            max_batch: max_batch as u64,
            batches: Arc::default(),
        })
    }

    /// The open-loop queue, locked; `None` for the saturated workload,
    /// which every call below but a batch request leaves alone.
    fn open(&self) -> Option<MutexGuard<'_, TrafficQueue>> {
        match &self.0 {
            Shared::Open(q) => Some(q.lock().expect("traffic queue poisoned")),
            Shared::Saturated { .. } => None,
        }
    }

    fn dispatch(&self, now: SimTime, proposer: Option<usize>) -> Option<TrafficBatch> {
        let Shared::Saturated { max_batch, batches } = &self.0 else {
            return self.open()?.dispatch(now, proposer);
        };
        // The count publishes no other data: each caller only needs an id
        // no other caller gets.
        let id = batches.fetch_add(1, Ordering::Relaxed);
        let commands = (id * max_batch..(id + 1) * max_batch)
            .map(|seq| Command::empty(0, seq))
            .collect();
        Some(TrafficBatch { id, commands })
    }

    /// Install a telemetry handle; see [`TrafficQueue::with_telemetry`].
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        if let Some(mut q) = self.open() {
            q.telemetry = telemetry;
        }
    }

    /// See [`TrafficQueue::try_batch`].
    pub fn try_batch(&self, now: SimTime) -> Option<TrafficBatch> {
        self.dispatch(now, None)
    }

    /// See [`TrafficQueue::try_batch_at`].
    pub fn try_batch_at(&self, now: SimTime, proposer: usize) -> Option<TrafficBatch> {
        self.dispatch(now, Some(proposer))
    }

    /// See [`TrafficQueue::next_ready_at`]; the next microsecond when
    /// saturated.
    pub fn next_ready_at(&self, now: SimTime) -> Option<SimTime> {
        match self.open() {
            Some(mut q) => q.next_ready_at(now),
            None => Some(now + Duration::from_micros(1)),
        }
    }

    /// See [`TrafficQueue::commit_batch`].
    pub fn commit_batch(&self, id: u64, committed: SimTime) {
        if let Some(mut q) = self.open() {
            q.commit_batch(id, committed)
        }
    }

    /// See [`TrafficQueue::commit_batch_in`].
    pub fn commit_batch_in(&self, id: u64, committed: SimTime, view: u64) {
        if let Some(mut q) = self.open() {
            q.commit_batch_in(id, committed, view)
        }
    }

    /// See [`TrafficQueue::retry_batch`].
    pub fn retry_batch(&self, id: u64, now: SimTime) {
        if let Some(mut q) = self.open() {
            q.retry_batch(id, now)
        }
    }

    /// See [`TrafficQueue::has_flushable`]; always true when saturated.
    pub fn has_flushable(&self, now: SimTime) -> bool {
        self.open().is_none_or(|mut q| q.has_flushable(now))
    }

    /// See [`TrafficQueue::depth`] — the live waiting-queue depth, exposed
    /// for health derivation (depth vs the admission bound).
    pub fn depth(&self) -> usize {
        self.open().map_or(0, |q| q.depth())
    }

    /// The queue's admission capacity (waiting-command bound).
    pub fn capacity(&self) -> usize {
        self.open().map_or(0, |q| q.capacity)
    }

    /// See [`TrafficQueue::report`]; all zeros when saturated.
    pub fn report(&self, run_secs: u64) -> TrafficReport {
        self.open()
            .map_or_else(TrafficReport::default, |q| q.report(run_secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn policy(max_batch: usize, max_delay_ms: u64) -> BatchingPolicy {
        BatchingPolicy {
            max_batch,
            max_delay: Duration::from_millis(max_delay_ms),
        }
    }

    /// `count` arrivals, one per `spacing_ms`, zero ingress latency.
    fn steady(count: usize, spacing_ms: u64) -> Vec<ScheduledArrival> {
        (0..count)
            .map(|i| ScheduledArrival {
                send: SimTime::from_millis(i as u64 * spacing_ms),
                client: i as u64 % 4,
                ingress_ms: 0.0,
            })
            .collect()
    }

    #[test]
    fn size_flush_fires_when_the_batch_fills() {
        let mut q = TrafficQueue::from_schedule(
            policy(5, 10_000),
            100,
            Duration::from_secs(10),
            steady(12, 10),
        );
        // 4 arrivals in: not full, timeout far away → no batch.
        assert!(q.try_batch(SimTime::from_millis(35)).is_none());
        // 5th arrival crosses the size threshold.
        let b = q.try_batch(SimTime::from_millis(40)).expect("size flush");
        assert_eq!(b.commands.len(), 5);
        // The next five commands flush as soon as they are all in.
        let b2 = q.try_batch(SimTime::from_millis(90)).expect("second flush");
        assert_eq!(b2.commands.len(), 5);
        assert_ne!(b.id, b2.id);
        // Commands carry distinct, schedule-stable ids.
        assert_eq!(b.commands[0].seq, 0);
        assert_eq!(b2.commands[0].seq, 5);
    }

    #[test]
    fn timeout_flush_takes_whatever_is_waiting() {
        let mut q = TrafficQueue::from_schedule(
            policy(100, 50),
            1000,
            Duration::from_secs(10),
            steady(3, 10),
        );
        assert!(
            q.try_batch(SimTime::from_millis(30)).is_none(),
            "no flush before the delay"
        );
        let b = q
            .try_batch(SimTime::from_millis(55))
            .expect("timeout flush");
        assert_eq!(b.commands.len(), 3, "partial batch on timeout");
    }

    #[test]
    fn backpressure_rejects_beyond_capacity() {
        // 50 arrivals at t=0, capacity 20: 30 rejected.
        let schedule: Vec<ScheduledArrival> = (0..50)
            .map(|i| ScheduledArrival {
                send: SimTime::ZERO,
                client: i,
                ingress_ms: 0.0,
            })
            .collect();
        let mut q =
            TrafficQueue::from_schedule(policy(10, 50), 20, Duration::from_secs(10), schedule);
        let b = q.try_batch(SimTime::from_millis(1)).expect("full batch");
        assert_eq!(b.commands.len(), 10);
        assert_eq!(q.admitted(), 20);
        assert_eq!(q.rejected(), 30);
        assert_eq!(q.depth(), 10);
        // The rejected commands never appear in later batches.
        let b2 = q.try_batch(SimTime::from_millis(2)).expect("drain");
        assert_eq!(b2.commands.len(), 10);
        assert!(
            q.try_batch(SimTime::from_secs(1)).is_none(),
            "queue drained"
        );
    }

    #[test]
    fn next_ready_at_predicts_size_and_timeout_paths() {
        let mut q = TrafficQueue::from_schedule(
            policy(5, 200),
            100,
            Duration::from_secs(10),
            steady(10, 10),
        );
        // At t=0 one arrival is in; batch of 5 completes at ingress of the
        // 5th arrival (t = 40 ms) — earlier than 0 + 200 ms timeout.
        let at = q.next_ready_at(SimTime::ZERO).expect("ready eventually");
        assert_eq!(at, SimTime::from_millis(40));
        assert!(q.try_batch(at).is_some(), "prediction must be achievable");

        // Drain the remainder: 5 waiting-or-future arrivals left → size path
        // again at the 10th arrival's ingress (t = 90 ms).
        let at2 = q.next_ready_at(SimTime::from_millis(41)).expect("second");
        assert_eq!(at2, SimTime::from_millis(90));

        // Once the schedule is exhausted and the queue drained: never again.
        assert!(q.try_batch(SimTime::from_millis(90)).is_some());
        assert!(q.next_ready_at(SimTime::from_secs(5)).is_none());
    }

    #[test]
    fn next_ready_at_is_strictly_in_the_future() {
        let mut q =
            TrafficQueue::from_schedule(policy(5, 50), 100, Duration::from_secs(10), steady(3, 10));
        let now = SimTime::from_secs(2);
        // Timeout long passed: the prediction clamps to just after `now`.
        let at = q.next_ready_at(now).expect("stale timeout");
        assert!(at > now);
        assert!(q.try_batch(at).is_some());
    }

    #[test]
    fn goodput_counts_only_within_slo_commits() {
        let mut q = TrafficQueue::from_schedule(
            policy(2, 1000),
            100,
            Duration::from_millis(500),
            steady(4, 10),
        );
        let b1 = q.try_batch(SimTime::from_millis(10)).expect("first pair");
        // Commits quickly: e2e = commit - send ≤ 500 ms for both commands.
        q.commit_batch(b1.id, SimTime::from_millis(200));
        let b2 = q.try_batch(SimTime::from_millis(30)).expect("second pair");
        // Commits late: e2e = 2000 - 20/30 ms > SLO.
        q.commit_batch(b2.id, SimTime::from_millis(2000));
        let report = q.report(2);
        assert_eq!(report.committed, 4);
        assert_eq!(report.goodput, 2, "only the fast batch is goodput");
        assert_eq!(report.offered, 4);
        assert_eq!(report.rejected, 0);
        assert!(report.e2e_p99_ms > 1900.0);
        assert_eq!(report.e2e_timeline.len(), 4);
        // Unknown batch ids are ignored (e.g. batches lost to a tree
        // reconfiguration report nothing).
        q.commit_batch(999, SimTime::from_secs(3));
        assert_eq!(q.report(2).committed, 4);
    }

    #[test]
    fn end_to_end_samples_split_into_goodput_by_slo() {
        let schedule = [(1_000, 0), (1_000, 1), (1_200, 2)]
            .map(|(send_ms, client)| ScheduledArrival {
                send: SimTime::from_millis(send_ms),
                client,
                ingress_ms: 0.0,
            })
            .to_vec();
        let mut q =
            TrafficQueue::from_schedule(policy(1, 100), 10, Duration::from_millis(500), schedule);
        // End-to-end 200, 500 (exactly the SLO) and 900 ms.
        for commit_ms in [1_200, 1_500, 2_100] {
            let b = q
                .try_batch(SimTime::from_millis(1_200))
                .expect("one command");
            q.commit_batch(b.id, SimTime::from_millis(commit_ms));
        }
        let report = q.report(2);
        assert_eq!(report.committed, 3);
        assert_eq!(report.goodput, 2, "only within-SLO commands count");
        assert_eq!(report.goodput_timeline, vec![(0.0, 0.0), (1.0, 2.0)]);
        assert_eq!(report.goodput_ops, 1.0);
        assert_eq!(
            report.e2e_timeline,
            vec![(1.2, 200.0), (1.5, 500.0), (2.1, 900.0)]
        );
        assert_eq!(report.e2e_p50_ms, 500.0);
    }

    #[test]
    fn e2e_includes_both_ingress_and_reply_legs() {
        let schedule = vec![ScheduledArrival {
            send: SimTime::ZERO,
            client: 0,
            ingress_ms: 40.0,
        }];
        let mut q =
            TrafficQueue::from_schedule(policy(1, 100), 10, Duration::from_secs(1), schedule);
        // Ingress at 40 ms; batch of 1 flushes immediately at the size path.
        let b = q.try_batch(SimTime::from_millis(40)).expect("single");
        q.commit_batch(b.id, SimTime::from_millis(100));
        let report = q.report(1);
        // e2e = (100 − 0) commit delta + 40 reply = 140 ms.
        assert!((report.e2e_mean_ms - 140.0).abs() < 1e-6);
    }

    #[test]
    fn forwarding_hop_is_charged_against_the_proposer() {
        // 2 replicas 80 ms RTT apart; client 0 enters through replica 0.
        let rtt = vec![0.0, 80.0, 80.0, 0.0];
        let model = ForwardingModel::from_rtt(vec![0], &rtt, 2);
        assert_eq!(model.forward_ms(0, 0), 0.0);
        assert_eq!(model.forward_ms(0, 1), 40.0);

        let schedule = vec![ScheduledArrival {
            send: SimTime::ZERO,
            client: 0,
            ingress_ms: 10.0,
        }];
        let mk = || {
            TrafficQueue::from_schedule(
                policy(1, 100),
                10,
                Duration::from_secs(1),
                schedule.clone(),
            )
            .with_forwarding(ForwardingModel::from_rtt(vec![0], &rtt, 2))
        };

        // Proposed by the ingress replica itself: no forwarding charge.
        // e2e = (100 − 0) commit delta + 10 reply = 110 ms.
        let mut near = mk();
        let b = near
            .try_batch_at(SimTime::from_millis(10), 0)
            .expect("near");
        near.commit_batch(b.id, SimTime::from_millis(100));
        assert!((near.report(1).e2e_mean_ms - 110.0).abs() < 1e-6);

        // Proposed by the far replica: one extra 40 ms one-way hop.
        let mut far = mk();
        let b = far.try_batch_at(SimTime::from_millis(10), 1).expect("far");
        far.commit_batch(b.id, SimTime::from_millis(100));
        assert!((far.report(1).e2e_mean_ms - 150.0).abs() < 1e-6);

        // Proposer unknown (plain try_batch): conservatively uncharged —
        // the behaviour every pre-forwarding unit test and harness relies on.
        let mut anon = mk();
        let b = anon.try_batch(SimTime::from_millis(10)).expect("anon");
        anon.commit_batch(b.id, SimTime::from_millis(100));
        assert!((anon.report(1).e2e_mean_ms - 110.0).abs() < 1e-6);
    }

    #[test]
    fn forwarding_charge_and_trace_span_are_the_same_value() {
        // The satellite invariant: the e2e accounting and the exported
        // `ingress_forward` span must read one stored number, so they can
        // never drift. 80 ms RTT → 40 ms hop → 40_000 µs span.
        let rtt = vec![0.0, 80.0, 80.0, 0.0];
        let schedule = vec![ScheduledArrival {
            send: SimTime::ZERO,
            client: 0,
            ingress_ms: 0.0,
        }];
        let tel = Telemetry::tracing();
        let mut q =
            TrafficQueue::from_schedule(policy(1, 100), 10, Duration::from_secs(1), schedule)
                .with_forwarding(ForwardingModel::from_rtt(vec![0], &rtt, 2))
                .with_telemetry(tel.clone());
        let b = q
            .try_batch_at(SimTime::from_millis(10), 1)
            .expect("far batch");
        q.commit_batch(b.id, SimTime::from_millis(100));
        // Charged: 100 ms commit delta + 40 ms forward + 0 reply = 140 ms.
        assert!((q.report(1).e2e_mean_ms - 140.0).abs() < 1e-6);
        // Observed: exactly one ingress_forward span of 40_000 µs at the
        // ingress replica's track.
        let json = tel.chrome_trace_json(&[]).expect("tracing handle");
        assert!(json.contains("\"name\":\"ingress_forward\""));
        assert!(
            json.contains("\"dur\":40000"),
            "span is the charged hop: {json}"
        );
        assert_eq!(tel.stage_counts()["ingress_forward"], 1);
        assert_eq!(tel.stage_counts()["client_emit"], 1);
        assert_eq!(tel.stage_counts()["admission"], 1);
        assert_eq!(tel.stage_counts()["reply"], 1);
        // The registry saw the e2e observation too.
        assert_eq!(
            tel.registry_snapshot()
                .counter("traffic.client.committed", None),
            1
        );
    }

    #[test]
    fn telemetry_does_not_perturb_queue_behaviour() {
        let run = |telemetry: Telemetry| {
            let mut q = TrafficQueue::from_schedule(
                policy(3, 50),
                100,
                Duration::from_secs(1),
                steady(9, 10),
            )
            .with_telemetry(telemetry);
            let mut sig = Vec::new();
            let mut now = SimTime::ZERO;
            while let Some(at) = q.next_ready_at(now) {
                now = at;
                if let Some(b) = q.try_batch(now) {
                    sig.push((b.id, b.commands.len(), now));
                    q.commit_batch(b.id, now + Duration::from_millis(20));
                }
            }
            (sig, q.report(1))
        };
        assert_eq!(run(Telemetry::disabled()), run(Telemetry::tracing()));
    }

    #[test]
    fn retried_batch_is_recharged_against_its_new_proposer() {
        let rtt = vec![0.0, 80.0, 80.0, 0.0];
        let schedule = vec![ScheduledArrival {
            send: SimTime::ZERO,
            client: 0,
            ingress_ms: 0.0,
        }];
        let mut q =
            TrafficQueue::from_schedule(policy(1, 100), 10, Duration::from_secs(10), schedule)
                .with_forwarding(ForwardingModel::from_rtt(vec![0], &rtt, 2));
        // Dispatched by the far proposer, lost, re-dispatched by the near
        // one: the commit charges the *new* proposer's hop (zero), not the
        // lost flight's.
        let b1 = q
            .try_batch_at(SimTime::from_millis(1), 1)
            .expect("far flight");
        q.retry_batch(b1.id, SimTime::from_millis(200));
        let b2 = q
            .try_batch_at(SimTime::from_millis(201), 0)
            .expect("re-dispatch");
        q.commit_batch(b2.id, SimTime::from_millis(300));
        // e2e = 300 ms commit delta + 0 reply + 0 forward.
        assert!((q.report(1).e2e_mean_ms - 300.0).abs() < 1e-6);
    }

    #[test]
    fn generated_queue_is_seed_deterministic() {
        let spec = rsm::TrafficSpec::poisson(2000.0).with_clients(8);
        let ingress = vec![5.0; 8];
        let horizon = SimTime::from_secs(5);
        let mk = |seed| {
            let mut q = TrafficQueue::generate(&spec, &ingress, seed, horizon);
            let mut sig = Vec::new();
            let mut now = SimTime::ZERO;
            while let Some(at) = q.next_ready_at(now) {
                now = at;
                if let Some(b) = q.try_batch(now) {
                    sig.push((b.id, b.commands.len(), now));
                    q.commit_batch(b.id, now + Duration::from_millis(30));
                }
            }
            (q.offered(), sig, q.report(5))
        };
        let a = mk(7);
        assert_eq!(a, mk(7));
        assert_ne!(a.0, mk(8).0);
        // Offered load is close to the configured rate.
        let rate = a.0 as f64 / 5.0;
        assert!((rate - 2000.0).abs() < 200.0, "offered {rate}/s");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_below_batch_size_is_rejected() {
        TrafficQueue::from_schedule(policy(100, 50), 10, Duration::from_secs(1), vec![]);
    }

    #[test]
    fn dropped_batch_is_retried_and_committed_once() {
        let mut q = TrafficQueue::from_schedule(
            policy(3, 1000),
            100,
            Duration::from_secs(10),
            steady(3, 10),
        );
        let b = q.try_batch(SimTime::from_millis(20)).expect("full batch");
        assert_eq!(b.commands.len(), 3);
        // The view carrying the batch is discarded by a reconfiguration:
        // the clients re-submit, and the next flush carries the same
        // commands in their original order.
        q.retry_batch(b.id, SimTime::from_millis(500));
        assert_eq!(q.retried(), 3);
        assert_eq!(q.depth(), 3);
        let b2 = q.try_batch(SimTime::from_millis(600)).expect("retry flush");
        let seqs: Vec<u64> = b2.commands.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        q.commit_batch(b2.id, SimTime::from_millis(700));
        // Committing the stale original id later changes nothing — the
        // retried batch is accounted exactly once, with the original send
        // times (e2e spans the lost round trip).
        q.commit_batch(b.id, SimTime::from_millis(900));
        let report = q.report(1);
        assert_eq!(report.committed, 3);
        assert_eq!(report.retried, 3);
        assert_eq!(report.abandoned, 0);
        assert!(report.e2e_mean_ms >= 650.0, "e2e includes the retry detour");
    }

    #[test]
    fn retry_budget_bounds_resubmission() {
        let mut q = TrafficQueue::from_schedule(
            policy(2, 1000),
            100,
            Duration::from_secs(10),
            steady(2, 1),
        )
        .with_max_retries(2);
        for round in 0..3 {
            let b = q
                .try_batch(SimTime::from_millis(10 + round * 10))
                .unwrap_or_else(|| panic!("flush {round}"));
            q.retry_batch(b.id, SimTime::from_millis(15 + round * 10));
        }
        // Two retries allowed; the third drop abandons both commands.
        assert_eq!(q.retried(), 4);
        assert_eq!(q.abandoned(), 2);
        assert!(q.try_batch(SimTime::from_secs(5)).is_none(), "nothing left");
        assert_eq!(q.report(1).committed, 0);
    }

    #[test]
    fn conservation_terms_balance_in_the_registry() {
        // admitted = committed + abandoned + waiting + in_flight, readable
        // from the registry alone — the identity the audit oracle checks.
        let tel = Telemetry::recording();
        let mut q = TrafficQueue::from_schedule(
            policy(2, 1000),
            100,
            Duration::from_secs(10),
            steady(6, 1),
        )
        .with_max_retries(0)
        .with_telemetry(tel.clone());
        let b1 = q.try_batch(SimTime::from_millis(10)).expect("pair 1");
        q.commit_batch(b1.id, SimTime::from_millis(50));
        let b2 = q.try_batch(SimTime::from_millis(60)).expect("pair 2");
        q.retry_batch(b2.id, SimTime::from_millis(70)); // budget 0 → abandoned
        let _b3 = q
            .try_batch(SimTime::from_millis(80))
            .expect("pair 3 in flight");
        let reg = tel.registry_snapshot();
        let admitted = reg.counter("traffic.queue.admitted", None);
        let committed = reg.counter("traffic.client.committed", None);
        let abandoned = reg.counter("traffic.queue.abandoned", None);
        let waiting = reg.gauge("traffic.queue.waiting", None).unwrap_or(0.0) as u64;
        let in_flight = reg.gauge("traffic.queue.in_flight", None).unwrap_or(0.0) as u64;
        assert_eq!(admitted, 6);
        assert_eq!(committed, 2);
        assert_eq!(abandoned, 2);
        assert_eq!(waiting, 0);
        assert_eq!(in_flight, 2);
        assert_eq!(in_flight, q.in_flight_commands());
        assert_eq!(admitted, committed + abandoned + waiting + in_flight);
    }

    #[test]
    fn has_flushable_tracks_try_batch_without_draining() {
        let mut q =
            TrafficQueue::from_schedule(policy(5, 50), 100, Duration::from_secs(10), steady(3, 10));
        assert!(
            !q.has_flushable(SimTime::from_millis(5)),
            "partial and fresh"
        );
        assert!(q.has_flushable(SimTime::from_millis(55)), "timeout path");
        assert!(q.try_batch(SimTime::from_millis(55)).is_some());
        // Drained and schedule exhausted: never flushable again — the idle
        // signal the tree staleness clock keys off.
        assert!(!q.has_flushable(SimTime::from_secs(9)));
    }

    #[test]
    fn arrivals_entering_at_the_admit_instant_are_refused_with_it() {
        // 5 M cmd/s from one co-located client: several arrivals share each
        // microsecond, so some enter exactly at the instant a full queue
        // admits at, after the source's frontier has reached that instant.
        let spec = TrafficSpec::poisson(5e6)
            .with_batching(4, Duration::from_secs(1))
            .with_capacity(4);
        let (seed, horizon) = (7, SimTime::from_micros(40));
        let mut reference = Schedule::generated(&spec, &[0.0], seed, horizon);
        while reference.release_next() {}
        let ingress: Vec<SimTime> = reference.ready.iter().map(|a| a.ingress).collect();
        // The first instant, past the first batch's lookahead, that at least
        // two arrivals enter at.
        let due = |now: SimTime| ingress.iter().filter(|&&at| at <= now).count();
        let now = (10..ingress.len())
            .map(|i| ingress[i])
            .find(|&at| due(at) - ingress.partition_point(|&i| i < at) >= 2)
            .expect("a shared microsecond");
        let refused = (due(now) - 4) as u64;

        let mut q = TrafficQueue::generate(&spec, &[0.0], seed, horizon);
        let first = q.try_batch(now).expect("four admitted fill a batch");
        let seqs: Vec<u64> = first.commands.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        assert_eq!(q.rejected(), refused, "every arrival due at {now:?}");
        // The next admitted command is the first to enter after `now`: none
        // of the arrivals refused at `now` is admitted later.
        let later = ingress[due(now) + 3];
        let next = q.try_batch(later).expect("a second full batch");
        assert_eq!(next.commands[0].seq, due(now) as u64);
    }

    #[test]
    fn saturated_queue_produces_full_batches() {
        let q = SharedTrafficQueue::saturated(1000);
        let batch = q.try_batch_at(SimTime::ZERO, 0).expect("always full");
        assert_eq!(batch.commands.len(), 1000);
        assert!(batch
            .commands
            .iter()
            .all(|c| c.payload.is_empty() && c.client == 0));
    }

    #[test]
    fn saturated_sequence_numbers_run_on_across_batches() {
        let q = SharedTrafficQueue::saturated(10);
        let a = q.try_batch(SimTime::ZERO).expect("always full");
        let b = q.try_batch(SimTime::ZERO).expect("always full");
        assert_eq!(a.commands[9].seq, 9);
        assert_eq!(b.commands[0].seq, 10);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn proposers_sharing_a_saturated_queue_draw_distinct_commands() {
        let q = SharedTrafficQueue::saturated(7);
        let proposers = [q.clone(), q];
        let mut ids = BTreeSet::new();
        let mut commands = BTreeSet::new();
        for round in 0..10 {
            for (p, queue) in proposers.iter().enumerate() {
                let batch = queue
                    .try_batch_at(SimTime::from_millis(round), p)
                    .expect("always full");
                assert!(ids.insert(batch.id), "batch id {} twice", batch.id);
                for c in batch.commands {
                    assert!(commands.insert((c.client, c.seq)), "{c:?} twice");
                }
            }
        }
        assert_eq!(commands.len(), 2 * 10 * 7);
    }

    #[test]
    fn saturated_queue_ignores_commits_and_drops() {
        let q = SharedTrafficQueue::saturated(5);
        let now = SimTime::from_millis(3);
        assert!(q.has_flushable(SimTime::ZERO));
        let a = q.try_batch_at(now, 0).expect("always full");
        let b = q.try_batch_at(now, 0).expect("always full");
        q.commit_batch_in(a.id, now, 1);
        q.commit_batch(a.id, now);
        q.retry_batch(b.id, now);
        // Neither re-enqueued nor accounted: the next batch follows on.
        let c = q.try_batch_at(now, 1).expect("always full");
        assert_eq!(c.id, b.id + 1);
        assert_eq!(c.commands[0].seq, 10);
        assert!(q.has_flushable(now));
        assert!(q.has_flushable(SimTime::from_secs(3600)));
        assert_eq!(q.next_ready_at(now), Some(now + Duration::from_micros(1)));
        assert_eq!((q.depth(), q.capacity()), (0, 0));
        assert_eq!(q.report(1), TrafficReport::default());
    }

    #[test]
    fn saturated_queue_records_nothing() {
        let tel = Telemetry::recording();
        let q = SharedTrafficQueue::saturated(100);
        q.set_telemetry(tel.clone());
        for view in 0..20 {
            let now = SimTime::from_millis(view);
            let batch = q.try_batch_at(now, 0).expect("always full");
            if view % 2 == 0 {
                q.commit_batch_in(batch.id, now, view);
            } else {
                q.retry_batch(batch.id, now);
            }
            assert!(q.has_flushable(now));
        }
        let reg = tel.registry_snapshot();
        assert!(reg.is_empty(), "a saturated source recorded metrics");
        // What the audit's conservation oracle reads as "no admission queue".
        assert_eq!(reg.counter("traffic.queue.admitted", None), 0);
        assert_eq!(reg.gauge("traffic.queue.waiting", None), None);
        assert_eq!(reg.gauge("traffic.queue.in_flight", None), None);
    }

    #[test]
    fn generated_schedule_holds_only_the_lookahead() {
        // An hour at 150 000 cmd/s from 4 clients 1 ms away, as the
        // real-socket runtime builds it: 540 M arrivals up front if drawn
        // eagerly, none until the queue is driven.
        let (rate, max_batch) = (150_000.0, 100);
        let spec = TrafficSpec::poisson(rate)
            .with_clients(4)
            .with_batching(max_batch, Duration::from_millis(40));
        let mut q = TrafficQueue::generate(&spec, &[1.0; 4], 7, SimTime::from_secs(3600));
        assert_eq!(q.schedule.drawn, 0);
        assert!(q.schedule.ready.is_empty() && q.schedule.pending.is_empty());

        // Drive 5 simulated seconds with prompt commits. `ready` never
        // holds more than the `max_batch` lookahead of `next_ready_at`, and
        // `pending` only draws sent within the ingress spread (zero here) of
        // the latest one, i.e. ties on its microsecond: about 0.15 each.
        let bound = max_batch + 16;
        let mut held = 0;
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(5) {
            now = q.next_ready_at(now).expect("an hour-long schedule");
            if let Some(b) = q.try_batch_at(now, 0) {
                q.commit_batch(b.id, now);
            }
            held = held.max(q.schedule.ready.len() + q.schedule.pending.len());
        }
        assert!(q.admitted() > 700_000, "admitted {}", q.admitted());
        assert!(held <= bound, "held {held} drawn arrivals, bound {bound}");
    }
}

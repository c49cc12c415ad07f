//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a set of [`Node`]s, a [`LatencyModel`], and a
//! [`FaultPlan`]. Nodes interact with the world exclusively through the
//! [`Context`] handed to their callbacks: they can send messages, broadcast,
//! set timers, and read the current virtual time. The engine delivers
//! messages after the modelled link latency (possibly modified by the fault
//! plan) and fires timers, advancing virtual time from event to event.
//!
//! Internally the engine runs on a pluggable [`EventScheduler`] — the
//! hierarchical [`TimerWheel`] by default, or any other implementation via
//! [`Simulation::with_scheduler`] (the heap baseline is kept for benchmarks
//! and equivalence tests). Broadcast payloads are interned behind one `Arc`
//! per send ([`Payload`]), so the fan-out cost is reference counting, not
//! deep clones.

use crate::event::EventKind;
use crate::faults::FaultPlan;
use crate::latency::LatencyModel;
use crate::sched::{EventHandle, EventScheduler, TimerWheel};
use crate::time::SimTime;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

// The node-facing API — `Node`, `Context`, `Action`, `NodeId`, `TimerId`,
// `Payload` — lives in the runtime-agnostic `runtime` crate; `Simulation` is
// one runtime interpreting the buffered actions (the other is
// `runtime::RealCluster`). Re-exported here so every historical
// `netsim::{Context, Node, …}` path keeps compiling.
pub use runtime::{Action, Context, Node, NodeId, TimerId};

/// Configuration of a simulation run.
pub struct SimulationConfig {
    /// Stop once virtual time reaches this horizon.
    pub horizon: SimTime,
    /// Safety valve: stop after this many events even if the horizon has not
    /// been reached (guards against event storms in buggy protocols).
    pub max_events: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            horizon: SimTime::from_secs(120),
            max_events: 200_000_000,
        }
    }
}

/// The discrete-event simulation engine, generic over its [`EventScheduler`]
/// (the [`TimerWheel`] by default).
pub struct Simulation<N: Node, S: EventScheduler<N::Msg> = TimerWheel<<N as Node>::Msg>> {
    nodes: Vec<N>,
    latency: Box<dyn LatencyModel>,
    faults: FaultPlan,
    sched: S,
    /// Pending timers: engine-assigned id → scheduler handle. An entry is
    /// removed when its timer fires or is cancelled, so bookkeeping is
    /// bounded by the number of *outstanding* timers, not the total ever set.
    /// The hasher's keys are fixed, so when the map grows (and allocates)
    /// is the same in every process; it is never iterated.
    live_timers: HashMap<u64, EventHandle, BuildHasherDefault<DefaultHasher>>,
    crashed: Vec<bool>,
    now: SimTime,
    next_timer: u64,
    /// The action buffer each callback's `Context` takes and hands back
    /// drained, so buffering a callback's actions allocates nothing.
    actions: Vec<Action<N::Msg>>,
    events_processed: u64,
    /// Events processed per virtual second (index = ⌊now⌋ in seconds) — the
    /// windowed events/sec series the telemetry registry surfaces.
    events_timeline: Vec<u64>,
    /// True once the safety valve tripped: the event budget ran out while
    /// deliverable events were still queued. Surfaced as the
    /// `netsim.sim.max_events_hit` counter so a truncated run is never
    /// mistaken for a converged one.
    max_events_hit: bool,
    config: SimulationConfig,
    /// Telemetry handle whose time-series sampler is ticked at simulated
    /// second boundaries (the same boundaries the events timeline rolls
    /// over on). Disabled by default — the tick is then a no-op branch.
    telemetry: telemetry::Telemetry,
}

impl<N: Node> Simulation<N> {
    /// Create a simulation over `nodes` with the given latency model, running
    /// on the default [`TimerWheel`] scheduler.
    pub fn new(nodes: Vec<N>, latency: Box<dyn LatencyModel>) -> Self {
        Self::with_scheduler(nodes, latency, TimerWheel::new())
    }
}

impl<N: Node, S: EventScheduler<N::Msg>> Simulation<N, S> {
    /// Create a simulation running on an explicit scheduler (used by the
    /// engine benchmarks to compare the wheel against the heap baseline).
    pub fn with_scheduler(nodes: Vec<N>, latency: Box<dyn LatencyModel>, sched: S) -> Self {
        let n = nodes.len();
        assert!(
            latency.len() >= n,
            "latency model covers {} nodes, need {n}",
            latency.len()
        );
        Simulation {
            crashed: vec![false; n],
            nodes,
            latency,
            faults: FaultPlan::none(),
            sched,
            live_timers: HashMap::default(),
            now: SimTime::ZERO,
            next_timer: 0,
            actions: Vec::new(),
            events_processed: 0,
            events_timeline: Vec::new(),
            max_events_hit: false,
            config: SimulationConfig::default(),
            telemetry: telemetry::Telemetry::disabled(),
        }
    }

    /// Install a telemetry handle to drive with simulated time: its
    /// windowed time-series sampler (if installed) is ticked whenever the
    /// simulation crosses a virtual-second boundary, so window contents are
    /// a pure function of the event sequence — identical across worker
    /// threads and merge orders.
    pub fn with_telemetry(mut self, telemetry: telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Install a fault plan. Crash and recovery faults are scheduled as events.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        for (node, at) in faults.crash_schedule() {
            self.sched.schedule(at, node, EventKind::Crash);
        }
        for (node, at) in faults.recovery_schedule() {
            self.sched.schedule(at, node, EventKind::Recover);
        }
        self.faults = faults;
        self
    }

    /// Override the default run configuration.
    pub fn with_config(mut self, config: SimulationConfig) -> Self {
        self.config = config;
        self
    }

    /// Extend (or shrink) the horizon of an in-progress run. Events beyond
    /// the old horizon are still queued — [`Simulation::step`] never drops
    /// them — so stepping again after an extension resumes cleanly.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.config.horizon = horizon;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node (e.g. to read statistics after the run).
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id]
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// All nodes, mutably, in node-id order (percentile queries on a node's
    /// statistics sort in place, so reading a run back needs `&mut`).
    pub fn nodes_mut(&mut self) -> &mut [N] {
        &mut self.nodes
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// True if the run was truncated by [`SimulationConfig::max_events`]
    /// while deliverable events were still pending.
    pub fn max_events_hit(&self) -> bool {
        self.max_events_hit
    }

    /// Number of outstanding (set, not yet fired or cancelled) timers the
    /// engine is tracking. Bounded by live timers — test hook for the
    /// bounded-bookkeeping regression tests.
    pub fn timer_bookkeeping(&self) -> usize {
        self.live_timers.len()
    }

    /// Number of events currently pending in the scheduler.
    pub fn pending_events(&self) -> usize {
        self.sched.len()
    }

    /// Events processed per virtual second; index `i` covers `[i, i+1)`
    /// seconds of simulated time.
    pub fn events_per_sec(&self) -> &[u64] {
        &self.events_timeline
    }

    /// Drain the engine profile and event-rate timeline into a telemetry
    /// registry under `netsim.engine.*` / `netsim.sim.*`. Every value is a
    /// deterministic function of the run (simulated time, not wall clock),
    /// so recorded metrics are identical across worker-thread counts.
    pub fn record_engine_metrics(&self, telemetry: &telemetry::Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        // Close any window still open at the end of the run *before* the
        // engine profile lands in the registry: engine metrics describe the
        // whole run and must never be attributed to the final window.
        telemetry.tick_timeseries(self.now.as_micros());
        let p = self.sched.profile();
        telemetry.counter_add("netsim.engine.scheduled", None, p.scheduled);
        telemetry.counter_add("netsim.engine.cancelled", None, p.cancelled);
        telemetry.counter_add("netsim.engine.cascades", None, p.cascades);
        telemetry.counter_add("netsim.engine.cascade_entries", None, p.cascade_entries);
        telemetry.gauge_max(
            "netsim.engine.live_high_water",
            None,
            p.live_high_water as f64,
        );
        telemetry.gauge_max(
            "netsim.engine.slots_high_water",
            None,
            p.bookkeeping_slots as f64,
        );
        telemetry.counter_add("netsim.sim.events", None, self.events_processed);
        if self.max_events_hit {
            telemetry.counter_add("netsim.sim.max_events_hit", None, 1);
        }
        let peak = self.events_timeline.iter().copied().max().unwrap_or(0);
        telemetry.gauge_max("netsim.sim.events_per_sec_peak", None, peak as f64);
        for &eps in &self.events_timeline {
            telemetry.observe("netsim.sim.events_per_sec", None, eps);
        }
    }

    /// A context for one callback of node `id`, lending it the action
    /// buffer.
    fn context(&mut self, id: NodeId) -> Context<N::Msg> {
        let actions = std::mem::take(&mut self.actions);
        Context::new(id, self.now, self.nodes.len(), self.next_timer, actions)
    }

    fn dispatch_actions(&mut self, from: NodeId, ctx: Context<N::Msg>) {
        // One timer-id allocator: the context mints ids from the engine's
        // counter and hands the advanced value back — the id inside each
        // `SetTimer` action *is* the allocation, nothing to re-derive here.
        let (actions, next_timer) = ctx.finish(|action| self.apply(from, action));
        self.next_timer = next_timer;
        self.actions = actions;
    }

    fn apply(&mut self, from: NodeId, action: Action<N::Msg>) {
        match action {
            Action::Send { to, payload } => {
                if to >= self.nodes.len() {
                    return;
                }
                let base = self.latency.latency(from, to);
                if let Some(delay) = self.faults.effective_delay(self.now, from, to, base) {
                    self.sched
                        .schedule(self.now + delay, to, EventKind::Deliver { from, payload });
                }
            }
            Action::SetTimer { timer, delay, tag } => {
                let handle =
                    self.sched
                        .schedule(self.now + delay, from, EventKind::Timer { timer, tag });
                self.live_timers.insert(timer.0, handle);
            }
            Action::CancelTimer { timer } => {
                // Already-fired (or double-cancelled) timers have no
                // entry: the cancel is a no-op and leaves no tombstone.
                if let Some(handle) = self.live_timers.remove(&timer.0) {
                    self.sched.cancel(handle);
                }
            }
        }
    }

    /// Initialise every node (calls `on_start` at time zero). Called
    /// automatically by [`Simulation::run`], but exposed for step-wise runs.
    pub fn start(&mut self) {
        for id in 0..self.nodes.len() {
            if self.crashed[id] {
                continue;
            }
            let mut ctx = self.context(id);
            self.nodes[id].on_start(&mut ctx);
            self.dispatch_actions(id, ctx);
        }
    }

    /// Process a single event. Returns `false` when the queue is exhausted or
    /// the horizon / event budget is reached.
    ///
    /// An event beyond the horizon stays queued (peek before pop): extending
    /// the horizon with [`Simulation::set_horizon`] and stepping again
    /// delivers it.
    pub fn step(&mut self) -> bool {
        if self.events_processed >= self.config.max_events {
            // The safety valve tripped with deliverable work still queued:
            // remember it, so reports can flag the truncation.
            if self
                .sched
                .next_time()
                .is_some_and(|t| t <= self.config.horizon)
            {
                self.max_events_hit = true;
            }
            return false;
        }
        let next = match self.sched.next_time() {
            Some(t) => t,
            None => return false,
        };
        if next > self.config.horizon {
            self.now = self.config.horizon;
            return false;
        }
        let event = self.sched.pop().expect("peeked event pops");
        self.now = event.at;
        self.events_processed += 1;
        let sec = (self.now.as_micros() / 1_000_000) as usize;
        if sec >= self.events_timeline.len() {
            self.events_timeline.resize(sec + 1, 0);
            // First event in a fresh virtual second: close elapsed
            // time-series windows against the registry as it stood before
            // this event is processed.
            self.telemetry.tick_timeseries(self.now.as_micros());
        }
        self.events_timeline[sec] += 1;
        let id = event.target;
        match event.kind {
            EventKind::Deliver { from, payload } => {
                if self.crashed[id] {
                    // Dropped on the floor: the shared payload is never
                    // unwrapped, so crashed recipients pay no clone.
                    return true;
                }
                let mut ctx = self.context(id);
                let msg = payload.into_msg();
                self.nodes[id].on_message(&mut ctx, from, msg);
                self.dispatch_actions(id, ctx);
            }
            EventKind::Timer { timer, tag } => {
                // Cancelled timers never reach this point (the scheduler
                // drops them); firing retires the bookkeeping entry.
                self.live_timers.remove(&timer.0);
                if self.crashed[id] {
                    return true;
                }
                let mut ctx = self.context(id);
                self.nodes[id].on_timer(&mut ctx, timer, tag);
                self.dispatch_actions(id, ctx);
            }
            EventKind::Crash => {
                self.crashed[id] = true;
                self.nodes[id].on_crash(self.now);
            }
            EventKind::Recover => {
                self.crashed[id] = false;
            }
        }
        true
    }

    /// Run to completion: start all nodes, then process events until the
    /// queue drains, the horizon is reached, or the event budget is exhausted.
    pub fn run(&mut self) {
        self.start();
        while self.step() {}
    }

    /// Run until virtual time reaches `until` (starting nodes if needed).
    pub fn run_until(&mut self, until: SimTime) {
        if self.events_processed == 0 && self.now == SimTime::ZERO {
            self.start();
        }
        while let Some(t) = self.sched.next_time() {
            if t > until {
                self.now = until;
                break;
            }
            if !self.step() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::UniformLatency;
    use crate::sched::HeapScheduler;
    use crate::time::Duration;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A node that floods a token around a ring a fixed number of times.
    struct RingNode {
        hops_seen: u32,
        max_hops: u32,
        deliveries: Vec<(SimTime, u32)>,
    }

    impl Node for RingNode {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<u32>) {
            if ctx.id == 0 {
                ctx.send((ctx.id + 1) % ctx.n, 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, hop: u32) {
            self.hops_seen += 1;
            self.deliveries.push((ctx.now, hop));
            if hop < self.max_hops {
                ctx.send((ctx.id + 1) % ctx.n, hop + 1);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<u32>, _timer: TimerId, _tag: u64) {}
    }

    fn ring(n: usize, max_hops: u32) -> Vec<RingNode> {
        (0..n)
            .map(|_| RingNode {
                hops_seen: 0,
                max_hops,
                deliveries: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn ring_token_passes_with_latency() {
        let n = 5;
        let mut sim = Simulation::new(
            ring(n, 9),
            Box::new(UniformLatency::new(n, Duration::from_millis(10))),
        );
        sim.run();
        // Hops 0..=9 delivered, each 10ms apart.
        let total: u32 = sim.nodes().map(|nd| nd.hops_seen).sum();
        assert_eq!(total, 10);
        assert_eq!(sim.now().as_millis(), 100);
        // First delivery is to node 1 at t=10ms.
        assert_eq!(sim.node(1).deliveries[0].0.as_millis(), 10);
    }

    #[test]
    fn crash_stops_processing() {
        let n = 3;
        let mut faults = FaultPlan::none();
        faults.crash(2, SimTime::from_millis(15));
        let mut sim = Simulation::new(
            ring(n, 100),
            Box::new(UniformLatency::new(n, Duration::from_millis(10))),
        )
        .with_faults(faults);
        sim.run();
        // Token: 0 ->10ms-> 1 ->20ms-> 2 (crashed at 15ms, never delivers).
        assert_eq!(sim.node(1).hops_seen, 1);
        assert_eq!(sim.node(2).hops_seen, 0);
    }

    struct TimerNode {
        fired: Vec<(u64, SimTime)>,
        cancel_second: bool,
    }

    impl Node for TimerNode {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<()>) {
            ctx.set_timer(Duration::from_millis(5), 1);
            let t2 = ctx.set_timer(Duration::from_millis(10), 2);
            if self.cancel_second {
                ctx.cancel_timer(t2);
            }
        }

        fn on_message(&mut self, _ctx: &mut Context<()>, _from: NodeId, _msg: ()) {}

        fn on_timer(&mut self, ctx: &mut Context<()>, _timer: TimerId, tag: u64) {
            self.fired.push((tag, ctx.now));
        }
    }

    #[test]
    fn timers_fire_with_tags() {
        let mut sim = Simulation::new(
            vec![TimerNode {
                fired: vec![],
                cancel_second: false,
            }],
            Box::new(UniformLatency::new(1, Duration::ZERO)),
        );
        sim.run();
        assert_eq!(sim.node(0).fired.len(), 2);
        assert_eq!(sim.node(0).fired[0].0, 1);
        assert_eq!(sim.node(0).fired[0].1.as_millis(), 5);
        assert_eq!(sim.node(0).fired[1].0, 2);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim = Simulation::new(
            vec![TimerNode {
                fired: vec![],
                cancel_second: true,
            }],
            Box::new(UniformLatency::new(1, Duration::ZERO)),
        );
        sim.run();
        assert_eq!(sim.node(0).fired.len(), 1);
        assert_eq!(sim.node(0).fired[0].0, 1);
        assert_eq!(sim.timer_bookkeeping(), 0, "fired + cancelled both retired");
    }

    #[test]
    fn horizon_limits_run() {
        let n = 3;
        let mut sim = Simulation::new(
            ring(n, u32::MAX),
            Box::new(UniformLatency::new(n, Duration::from_millis(10))),
        )
        .with_config(SimulationConfig {
            horizon: SimTime::from_millis(55),
            max_events: u64::MAX,
        });
        sim.run();
        assert!(sim.now() <= SimTime::from_millis(55));
        let total: u32 = sim.nodes().map(|nd| nd.hops_seen).sum();
        assert_eq!(total, 5, "one hop per 10ms until the 55ms horizon");
    }

    /// Regression test for the horizon-drop bug: the seed engine *popped*
    /// the first over-horizon event before noticing it was late and silently
    /// dropped it, so extending the horizon lost one delivery forever.
    #[test]
    fn horizon_extension_keeps_over_horizon_event() {
        let n = 3;
        let mut sim = Simulation::new(
            ring(n, 5),
            Box::new(UniformLatency::new(n, Duration::from_millis(10))),
        )
        .with_config(SimulationConfig {
            horizon: SimTime::from_millis(15),
            max_events: u64::MAX,
        });
        sim.run();
        let mid: u32 = sim.nodes().map(|nd| nd.hops_seen).sum();
        assert_eq!(mid, 1, "only the 10ms hop fits under the 15ms horizon");
        assert_eq!(sim.now().as_millis(), 15);
        assert_eq!(sim.pending_events(), 1, "the 20ms hop must stay queued");

        // Extend the horizon mid-run and resume: the 20ms delivery — and the
        // whole chain behind it — must still happen.
        sim.set_horizon(SimTime::from_millis(100));
        while sim.step() {}
        let total: u32 = sim.nodes().map(|nd| nd.hops_seen).sum();
        assert_eq!(total, 6, "hops 0..=5 all delivered after the extension");
        assert_eq!(sim.now().as_millis(), 60);
    }

    /// The `max_events` safety valve must leave an audit trail: the flag is
    /// set when the budget truncates a run with work still queued, and
    /// `record_engine_metrics` surfaces it as `netsim.sim.max_events_hit`.
    #[test]
    fn max_events_budget_hit_is_recorded_not_silent() {
        let n = 3;
        let mut sim = Simulation::new(
            ring(n, u32::MAX),
            Box::new(UniformLatency::new(n, Duration::from_millis(10))),
        )
        .with_config(SimulationConfig {
            horizon: SimTime::from_secs(1_000_000),
            max_events: 10,
        });
        sim.run();
        assert_eq!(sim.events_processed(), 10);
        assert!(sim.max_events_hit(), "budget tripped with events pending");
        let t = telemetry::Telemetry::recording();
        sim.record_engine_metrics(&t);
        assert_eq!(
            t.registry_snapshot()
                .counter("netsim.sim.max_events_hit", None),
            1
        );

        // A run that drains naturally must not raise the flag, even though
        // it also stops stepping.
        let mut clean = Simulation::new(
            ring(n, 5),
            Box::new(UniformLatency::new(n, Duration::from_millis(10))),
        );
        clean.run();
        assert!(!clean.max_events_hit());
        let t = telemetry::Telemetry::recording();
        clean.record_engine_metrics(&t);
        assert_eq!(
            t.registry_snapshot()
                .counter("netsim.sim.max_events_hit", None),
            0
        );
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let n = 4;
        let mut sim = Simulation::new(
            ring(n, 7),
            Box::new(UniformLatency::new(n, Duration::from_millis(10))),
        );
        sim.run_until(SimTime::from_millis(35));
        let mid: u32 = sim.nodes().map(|nd| nd.hops_seen).sum();
        assert_eq!(mid, 3);
        sim.run_until(SimTime::from_secs(10));
        let total: u32 = sim.nodes().map(|nd| nd.hops_seen).sum();
        assert_eq!(total, 8);
    }

    /// Node 0 pings node 1 every 10 ms; node 1 is crashed between 25 ms and
    /// 55 ms, so pings landing in that window are lost and later ones resume.
    struct PingNode {
        received: Vec<SimTime>,
        horizon: SimTime,
    }

    impl Node for PingNode {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<()>) {
            if ctx.id == 0 {
                ctx.set_timer(Duration::from_millis(10), 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<()>, _from: NodeId, _msg: ()) {
            self.received.push(ctx.now);
        }

        fn on_timer(&mut self, ctx: &mut Context<()>, _timer: TimerId, _tag: u64) {
            ctx.send(1, ());
            if ctx.now < self.horizon {
                ctx.set_timer(Duration::from_millis(10), 0);
            }
        }
    }

    #[test]
    fn crashed_node_recovers_and_resumes_processing() {
        let mk = || PingNode {
            received: Vec::new(),
            horizon: SimTime::from_millis(100),
        };
        let mut faults = FaultPlan::none();
        faults.crash_between(1, SimTime::from_millis(25), SimTime::from_millis(55));
        let mut sim = Simulation::new(
            vec![mk(), mk()],
            Box::new(UniformLatency::new(2, Duration::ZERO)),
        )
        .with_faults(faults);
        sim.run();
        let received: Vec<u64> = sim.node(1).received.iter().map(|t| t.as_millis()).collect();
        // Pings at 10..=100 every 10 ms; 30, 40, 50 fall into the crash window.
        assert_eq!(received, vec![10, 20, 60, 70, 80, 90, 100]);
    }

    #[test]
    fn determinism_same_seedless_run() {
        let n = 5;
        let mk = || {
            let mut sim = Simulation::new(
                ring(n, 20),
                Box::new(UniformLatency::new(n, Duration::from_millis(3))),
            );
            sim.run();
            sim.nodes()
                .flat_map(|nd| nd.deliveries.iter().map(|&(t, h)| (t.as_micros(), h)))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn wheel_and_heap_drive_identical_traces() {
        let n = 6;
        fn collect<S: EventScheduler<u32>>(sim: &Simulation<RingNode, S>) -> Vec<(u64, u32)> {
            sim.nodes()
                .flat_map(|nd| nd.deliveries.iter().map(|&(t, h)| (t.as_micros(), h)))
                .collect()
        }
        let trace = |heap: bool| {
            let latency = Box::new(UniformLatency::new(n, Duration::from_millis(7)));
            if heap {
                let mut sim =
                    Simulation::with_scheduler(ring(n, 30), latency, HeapScheduler::default());
                sim.run();
                collect(&sim)
            } else {
                let mut sim = Simulation::new(ring(n, 30), latency);
                sim.run();
                collect(&sim)
            }
        };
        assert_eq!(trace(false), trace(true));
    }

    /// Each round sets the next keeper timer plus a far-future decoy and
    /// immediately cancels the decoy: the seed engine retained every decoy id
    /// in `cancelled` (and every timer ever set in `timer_seq`) forever.
    struct ChurnNode {
        rounds: u32,
        fired: u32,
    }

    impl Node for ChurnNode {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<()>) {
            ctx.set_timer(Duration::from_millis(1), 0);
        }

        fn on_message(&mut self, _ctx: &mut Context<()>, _from: NodeId, _msg: ()) {}

        fn on_timer(&mut self, ctx: &mut Context<()>, _timer: TimerId, tag: u64) {
            assert_eq!(tag, 0, "cancelled decoy timers must never fire");
            self.fired += 1;
            if self.fired < self.rounds {
                ctx.set_timer(Duration::from_millis(1), 0);
                let decoy = ctx.set_timer(Duration::from_secs(3600), 1);
                ctx.cancel_timer(decoy);
            }
        }
    }

    #[test]
    fn timer_bookkeeping_stays_bounded_across_churn() {
        let mut sim = Simulation::new(
            vec![ChurnNode {
                rounds: 5_000,
                fired: 0,
            }],
            Box::new(UniformLatency::new(1, Duration::ZERO)),
        );
        sim.run();
        assert_eq!(sim.node(0).fired, 5_000);
        assert_eq!(
            sim.timer_bookkeeping(),
            0,
            "bookkeeping must not grow with total timers set"
        );
        assert_eq!(sim.pending_events(), 0);
    }

    /// A message that counts how many times it is deep-cloned.
    #[derive(Debug)]
    struct CountedMsg {
        clones: Arc<AtomicUsize>,
        v: u64,
    }

    impl Clone for CountedMsg {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::SeqCst);
            CountedMsg {
                clones: self.clones.clone(),
                v: self.v,
            }
        }
    }

    struct BroadcastNode {
        received: Vec<u64>,
    }

    impl Node for BroadcastNode {
        type Msg = CountedMsg;

        fn on_start(&mut self, ctx: &mut Context<CountedMsg>) {
            if ctx.id == 0 {
                ctx.broadcast(CountedMsg {
                    clones: Arc::new(AtomicUsize::new(0)),
                    v: 42,
                });
            }
        }

        fn on_message(&mut self, _ctx: &mut Context<CountedMsg>, _from: NodeId, msg: CountedMsg) {
            self.received.push(msg.v);
        }

        fn on_timer(&mut self, _ctx: &mut Context<CountedMsg>, _timer: TimerId, _tag: u64) {}
    }

    #[test]
    fn broadcast_interns_payload_instead_of_cloning_per_recipient() {
        // All 4 recipients alive: the payload is cloned lazily at delivery,
        // and the last holder takes the original — n-2 clones total, versus
        // n-1 eager deep clones at schedule time in the seed engine.
        let n = 5;
        let mut sim = Simulation::new(
            (0..n).map(|_| BroadcastNode { received: vec![] }).collect(),
            Box::new(UniformLatency::new(n, Duration::from_millis(1))),
        );
        sim.run();
        let received: usize = sim.nodes().map(|nd| nd.received.len()).sum();
        assert_eq!(received, n - 1);
        assert!(sim.nodes().all(|nd| nd.received.iter().all(|&v| v == 42)));
    }

    #[test]
    fn broadcast_to_mostly_crashed_recipients_pays_zero_clones() {
        // Nodes 1..=3 crash before the broadcast lands; node 4 is the only
        // live recipient and is delivered last, so every shared reference is
        // already dropped and it unwraps the original without any clone.
        let n = 5;
        let clones = Arc::new(AtomicUsize::new(0));
        let probe = clones.clone();
        struct CrashedFanout {
            clones: Arc<AtomicUsize>,
            received: usize,
        }
        impl Node for CrashedFanout {
            type Msg = CountedMsg;
            fn on_start(&mut self, ctx: &mut Context<CountedMsg>) {
                if ctx.id == 0 {
                    ctx.broadcast(CountedMsg {
                        clones: self.clones.clone(),
                        v: 7,
                    });
                }
            }
            fn on_message(
                &mut self,
                _ctx: &mut Context<CountedMsg>,
                _from: NodeId,
                msg: CountedMsg,
            ) {
                assert_eq!(msg.v, 7);
                self.received += 1;
            }
            fn on_timer(&mut self, _ctx: &mut Context<CountedMsg>, _t: TimerId, _tag: u64) {}
        }
        let mut faults = FaultPlan::none();
        for node in 1..=3 {
            faults.crash(node, SimTime::from_micros(1));
        }
        let mut sim = Simulation::new(
            (0..n)
                .map(|_| CrashedFanout {
                    clones: clones.clone(),
                    received: 0,
                })
                .collect(),
            Box::new(UniformLatency::new(n, Duration::from_millis(1))),
        )
        .with_faults(faults);
        sim.run();
        assert_eq!(sim.node(4).received, 1);
        assert_eq!(
            probe.load(Ordering::SeqCst),
            0,
            "dropped deliveries must not deep-clone the payload"
        );
    }
}

//! Event schedulers: the hierarchical timer wheel the engine runs on, and
//! the reference binary-heap scheduler it is benchmarked and property-tested
//! against.
//!
//! Both implement [`EventScheduler`] and pop events in exactly `(time, seq)`
//! order — the determinism contract every `BENCH_*.json` byte depends on.
//! The wheel wins on the hot path:
//!
//! * **O(1) schedule and pop.** An event lands in the bucket of the wheel
//!   level covering its delay (64 slots per level, 6 bits per level, 11
//!   levels cover all of `u64` microseconds). Occupancy bitmasks make
//!   finding the next bucket a couple of `trailing_zeros` instructions
//!   instead of a `log n` heap sift that moves whole events around.
//! * **Slab storage with generation-stamped slots.** Event bodies live in a
//!   free-listed arena; buckets hold `(slot, generation)` handles. Memory is
//!   bounded by the *peak* number of in-flight events, and cancelling a
//!   timer is O(1): bump the slot generation and the stale bucket handle
//!   prunes itself when the wheel reaches it — no grow-forever tombstone
//!   set, no hash lookup per fired timer.
//!
//! Within one bucket, handles are kept in insertion order, which *is* `seq`
//! order: direct schedules arrive with monotonically increasing sequence
//! numbers, and a cascade from a higher level dumps its (already ordered)
//! entries into a lower bucket before any later schedule can append to it.

use crate::event::{Event, EventKind, EventQueue};
use crate::sim::NodeId;
use crate::time::SimTime;
use std::collections::{HashSet, VecDeque};

/// Opaque handle to a scheduled event, used for O(1) cancellation.
pub type EventHandle = u64;

/// Engine-level profiling counters, maintained unconditionally (they are a
/// handful of integer bumps on paths that already touch the same cache
/// lines) and drained into the telemetry registry by the lab. All values
/// are functions of the deterministic event sequence, never of wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Total events cancelled before firing.
    pub cancelled: u64,
    /// Higher-level bucket redistributions (timer-wheel cascades).
    pub cascades: u64,
    /// Handles moved by cascades (cascade work, not just occurrences).
    pub cascade_entries: u64,
    /// High-water mark of concurrently pending events (queue depth).
    pub live_high_water: u64,
    /// Slab slots allocated (wheel) or peak tombstones (heap) — the
    /// scheduler's bookkeeping footprint.
    pub bookkeeping_slots: u64,
}

/// A deterministic pending-event store: pops in `(time, seq)` order, where
/// `seq` is the order of `schedule` calls.
///
/// `cancel` may be called at most once per handle and only while the event
/// is still pending (the engine guarantees this by tracking live timers).
pub trait EventScheduler<M>: Default {
    /// Schedule `kind` to fire at `at` (clamped to the current time).
    fn schedule(&mut self, at: SimTime, target: NodeId, kind: EventKind<M>) -> EventHandle;
    /// Cancel a pending event in O(1). Returns false if the handle is stale.
    fn cancel(&mut self, handle: EventHandle) -> bool;
    /// Remove and return the earliest pending event.
    fn pop(&mut self) -> Option<Event<M>>;
    /// The instant of the earliest pending event (may advance internal
    /// cursors, hence `&mut`).
    fn next_time(&mut self) -> Option<SimTime>;
    /// Number of live (scheduled, not yet popped or cancelled) events.
    fn len(&self) -> usize;
    /// True when no live events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Engine profiling counters accumulated so far.
    fn profile(&self) -> EngineProfile {
        EngineProfile::default()
    }
}

const BITS: usize = 6;
const SLOTS: usize = 1 << BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// 11 levels of 6 bits each cover the full 64-bit microsecond range.
const LEVELS: usize = 11;

struct Slot<M> {
    gen: u32,
    at: u64,
    seq: u64,
    target: NodeId,
    kind: Option<EventKind<M>>,
}

fn handle(idx: u32, gen: u32) -> EventHandle {
    ((idx as u64) << 32) | gen as u64
}

fn split(h: EventHandle) -> (u32, u32) {
    ((h >> 32) as u32, h as u32)
}

/// The hierarchical timer-wheel scheduler the engine runs on.
pub struct TimerWheel<M> {
    slab: Vec<Slot<M>>,
    free: Vec<u32>,
    /// `buckets[level * SLOTS + slot]` holds event handles.
    buckets: Vec<VecDeque<EventHandle>>,
    /// Empty between cascades. A cascade swaps it with the bucket it
    /// redistributes, so the bucket keeps a buffer (this one's) and the
    /// drained buffer serves the next cascade; taking the bucket instead
    /// would free its storage and regrow it from nothing every rotation.
    cascade_scratch: VecDeque<EventHandle>,
    /// Per-level bucket-occupancy bitmask (bit = slot may hold entries;
    /// entries can be stale until pruned).
    occ: [u64; LEVELS],
    /// Wheel cursor in microsecond ticks; never moves backwards.
    now: u64,
    next_seq: u64,
    live: usize,
    /// Memoised result of `next_tick` (invalidated by schedule/cancel).
    peeked: Option<u64>,
    cancelled: u64,
    cascades: u64,
    cascade_entries: u64,
    live_high_water: usize,
}

impl<M> Default for TimerWheel<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> TimerWheel<M> {
    /// Create an empty wheel positioned at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            buckets: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            cascade_scratch: VecDeque::new(),
            occ: [0; LEVELS],
            now: 0,
            next_seq: 0,
            live: 0,
            peeked: None,
            cancelled: 0,
            cascades: 0,
            cascade_entries: 0,
            live_high_water: 0,
        }
    }

    /// Slab capacity: peak concurrent events ever held (bookkeeping is
    /// bounded by this, not by the total number of events scheduled).
    pub fn slab_capacity(&self) -> usize {
        self.slab.len()
    }

    /// The level whose bucket granularity covers `at` as seen from `now`:
    /// the highest 6-bit group in which they differ.
    fn level_for(now: u64, at: u64) -> usize {
        let diff = now ^ at;
        if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros() as usize) / BITS
        }
    }

    fn bucket_index(now: u64, at: u64) -> (usize, usize) {
        let level = Self::level_for(now, at);
        let slot = ((at >> (BITS * level)) & SLOT_MASK) as usize;
        (level, slot)
    }

    fn insert(&mut self, idx: u32) {
        let slot = &self.slab[idx as usize];
        let (level, s) = Self::bucket_index(self.now, slot.at);
        let h = handle(idx, slot.gen);
        self.buckets[level * SLOTS + s].push_back(h);
        self.occ[level] |= 1 << s;
    }

    fn is_live(&self, h: EventHandle) -> bool {
        let (idx, gen) = split(h);
        let slot = &self.slab[idx as usize];
        slot.gen == gen && slot.kind.is_some()
    }

    /// Drop stale (cancelled) handles from the front and back of a bucket;
    /// returns true when a live entry remains. Interior stale entries are
    /// skipped at pop time.
    fn prune_bucket(&mut self, level: usize, s: usize) -> bool {
        loop {
            let Some(&h) = self.buckets[level * SLOTS + s].front() else {
                self.occ[level] &= !(1 << s);
                return false;
            };
            if self.is_live(h) {
                return true;
            }
            self.buckets[level * SLOTS + s].pop_front();
        }
    }

    /// Advance the cursor to the earliest live event, cascading higher-level
    /// buckets down as windows are entered, and return its tick.
    fn next_tick(&mut self) -> Option<u64> {
        if let Some(t) = self.peeked {
            return Some(t);
        }
        if self.live == 0 {
            return None;
        }
        'scan: loop {
            // Level 0: buckets hold exactly one tick each within the current
            // 64-tick window; the first occupied bucket at or after the
            // cursor is the next event.
            let cur0 = (self.now & SLOT_MASK) as usize;
            let mut mask = (self.occ[0] >> cur0) << cur0;
            while mask != 0 {
                let s = mask.trailing_zeros() as usize;
                if self.prune_bucket(0, s) {
                    let tick = (self.now & !SLOT_MASK) | s as u64;
                    debug_assert!(tick >= self.now);
                    self.peeked = Some(tick);
                    return Some(tick);
                }
                mask &= !(1 << s);
            }
            // Higher levels: the lowest occupied level holds the earliest
            // window (level l's current rotation ends where level l+1's
            // begins). Cascade its first occupied bucket and rescan.
            for level in 1..LEVELS {
                let shift = BITS * level;
                let cur = ((self.now >> shift) & SLOT_MASK) as usize;
                let mut mask = (self.occ[level] >> cur) << cur;
                while mask != 0 {
                    let s = mask.trailing_zeros() as usize;
                    if !self.prune_bucket(level, s) {
                        mask &= !(1 << s);
                        continue;
                    }
                    // Enter the window: jump the cursor to its start and
                    // redistribute the bucket to strictly lower levels.
                    let above = BITS * (level + 1);
                    let base = if above >= 64 {
                        0
                    } else {
                        (self.now >> above) << above
                    };
                    let window_start = base | ((s as u64) << shift);
                    self.now = self.now.max(window_start);
                    self.occ[level] &= !(1 << s);
                    let mut entries = std::mem::take(&mut self.cascade_scratch);
                    std::mem::swap(&mut entries, &mut self.buckets[level * SLOTS + s]);
                    self.cascades += 1;
                    self.cascade_entries += entries.len() as u64;
                    for h in entries.drain(..) {
                        if self.is_live(h) {
                            let (idx, _) = split(h);
                            debug_assert!(
                                Self::level_for(self.now, self.slab[idx as usize].at) < level
                            );
                            self.insert(idx);
                        }
                    }
                    self.cascade_scratch = entries;
                    continue 'scan;
                }
            }
            debug_assert_eq!(self.live, 0, "live events but no occupied bucket");
            return None;
        }
    }
}

impl<M> EventScheduler<M> for TimerWheel<M> {
    fn schedule(&mut self, at: SimTime, target: NodeId, kind: EventKind<M>) -> EventHandle {
        let at = at.as_micros().max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slab[idx as usize];
                slot.at = at;
                slot.seq = seq;
                slot.target = target;
                slot.kind = Some(kind);
                idx
            }
            None => {
                let idx = u32::try_from(self.slab.len()).expect("slab overflow");
                self.slab.push(Slot {
                    gen: 0,
                    at,
                    seq,
                    target,
                    kind: Some(kind),
                });
                idx
            }
        };
        self.insert(idx);
        self.live += 1;
        self.live_high_water = self.live_high_water.max(self.live);
        if self.peeked.is_some_and(|t| at < t) {
            self.peeked = None;
        }
        handle(idx, self.slab[idx as usize].gen)
    }

    fn cancel(&mut self, h: EventHandle) -> bool {
        let (idx, gen) = split(h);
        let Some(slot) = self.slab.get_mut(idx as usize) else {
            return false;
        };
        if slot.gen != gen || slot.kind.is_none() {
            return false;
        }
        slot.kind = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.cancelled += 1;
        self.peeked = None;
        true
    }

    fn pop(&mut self) -> Option<Event<M>> {
        let tick = self.next_tick()?;
        self.peeked = None;
        self.now = tick;
        let s = (tick & SLOT_MASK) as usize;
        // `next_tick` pruned the front; the head entry is live and, by the
        // insertion-order invariant, has the smallest seq at this tick.
        let h = self.buckets[s]
            .pop_front()
            .expect("next_tick reported an empty bucket");
        let (idx, gen) = split(h);
        let slot = &mut self.slab[idx as usize];
        debug_assert_eq!(slot.gen, gen);
        debug_assert_eq!(slot.at, tick, "level-0 bucket holds a single tick");
        let kind = slot.kind.take().expect("live handle with empty slot");
        let event = Event {
            at: SimTime::from_micros(slot.at),
            seq: slot.seq,
            target: slot.target,
            kind,
        };
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        if self.buckets[s].is_empty() {
            self.occ[0] &= !(1 << s);
        }
        Some(event)
    }

    fn next_time(&mut self) -> Option<SimTime> {
        self.next_tick().map(SimTime::from_micros)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn profile(&self) -> EngineProfile {
        EngineProfile {
            scheduled: self.next_seq,
            cancelled: self.cancelled,
            cascades: self.cascades,
            cascade_entries: self.cascade_entries,
            live_high_water: self.live_high_water as u64,
            bookkeeping_slots: self.slab.len() as u64,
        }
    }
}

/// The reference scheduler: the original `BinaryHeap` event queue plus a
/// tombstone set for cancellations.
///
/// Unlike the seed engine, the tombstone set is *bounded*: an id is removed
/// when its event is skipped at the head of the heap, so bookkeeping decays
/// back to zero instead of growing for the life of the simulation.
pub struct HeapScheduler<M> {
    queue: EventQueue<M>,
    cancelled: HashSet<u64>,
    live: usize,
    scheduled: u64,
    cancelled_total: u64,
    live_high_water: usize,
    tombstone_high_water: usize,
}

impl<M> Default for HeapScheduler<M> {
    fn default() -> Self {
        HeapScheduler {
            queue: EventQueue::new(),
            cancelled: HashSet::new(),
            live: 0,
            scheduled: 0,
            cancelled_total: 0,
            live_high_water: 0,
            tombstone_high_water: 0,
        }
    }
}

impl<M> HeapScheduler<M> {
    /// Outstanding cancellation tombstones (test hook for the bounded-
    /// bookkeeping regression test).
    pub fn tombstones(&self) -> usize {
        self.cancelled.len()
    }

    /// Drop cancelled events sitting at the head of the heap, reclaiming
    /// their tombstones.
    fn skip_cancelled(&mut self) {
        while let Some(e) = self.queue.peek() {
            if self.cancelled.remove(&e.seq) {
                self.queue.pop();
            } else {
                return;
            }
        }
    }
}

impl<M> EventScheduler<M> for HeapScheduler<M> {
    fn schedule(&mut self, at: SimTime, target: NodeId, kind: EventKind<M>) -> EventHandle {
        self.live += 1;
        self.scheduled += 1;
        self.live_high_water = self.live_high_water.max(self.live);
        self.queue.schedule(at, target, kind)
    }

    fn cancel(&mut self, h: EventHandle) -> bool {
        self.cancelled.insert(h);
        self.live -= 1;
        self.cancelled_total += 1;
        self.tombstone_high_water = self.tombstone_high_water.max(self.cancelled.len());
        true
    }

    fn pop(&mut self) -> Option<Event<M>> {
        self.skip_cancelled();
        let e = self.queue.pop()?;
        self.live -= 1;
        Some(e)
    }

    fn next_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.queue.next_time()
    }

    fn len(&self) -> usize {
        self.live
    }

    fn profile(&self) -> EngineProfile {
        EngineProfile {
            scheduled: self.scheduled,
            cancelled: self.cancelled_total,
            cascades: 0,
            cascade_entries: 0,
            live_high_water: self.live_high_water as u64,
            bookkeeping_slots: self.tombstone_high_water as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(at: u64) -> (SimTime, EventKind<()>) {
        (SimTime::from_micros(at), EventKind::Crash)
    }

    fn drain<S: EventScheduler<()>>(s: &mut S) -> Vec<(u64, u64, NodeId)> {
        std::iter::from_fn(|| s.pop())
            .map(|e| (e.at.as_micros(), e.seq, e.target))
            .collect()
    }

    #[test]
    fn wheel_pops_in_time_then_seq_order() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        for (i, at) in [30u64, 10, 20, 10, 1_000_000, 65, 64, 4097]
            .iter()
            .enumerate()
        {
            let (t, k) = crash(*at);
            w.schedule(t, i, k);
        }
        let order = drain(&mut w);
        let ats: Vec<u64> = order.iter().map(|&(at, _, _)| at).collect();
        assert_eq!(ats, vec![10, 10, 20, 30, 64, 65, 4097, 1_000_000]);
        // The two ties at t=10 pop in schedule order (targets 1 then 3).
        assert_eq!(order[0].2, 1);
        assert_eq!(order[1].2, 3);
    }

    #[test]
    fn wheel_handles_wide_delay_spread() {
        // One event per decade of delay, scheduled in reverse: exercises
        // every wheel level and the cascade path.
        let mut w: TimerWheel<()> = TimerWheel::new();
        let delays: Vec<u64> = (0..12).rev().map(|d| 7 * 10u64.pow(d)).collect();
        for (i, &at) in delays.iter().enumerate() {
            let (t, k) = crash(at);
            w.schedule(t, i, k);
        }
        let ats: Vec<u64> = drain(&mut w).iter().map(|&(at, _, _)| at).collect();
        let mut expect = delays;
        expect.sort_unstable();
        assert_eq!(ats, expect);
    }

    #[test]
    fn wheel_interleaves_schedule_and_pop() {
        // Popping an event schedules a follow-up: the ring-of-pings shape.
        let mut w: TimerWheel<()> = TimerWheel::new();
        let (t, k) = crash(5);
        w.schedule(t, 0, k);
        let mut seen = Vec::new();
        while let Some(e) = w.pop() {
            seen.push(e.at.as_micros());
            if seen.len() < 200 {
                // Mixed short and long hops, including same-tick follow-ups.
                let hop = match seen.len() % 4 {
                    0 => 0,
                    1 => 3,
                    2 => 150,
                    _ => 70_000,
                };
                let (t, k) = crash(e.at.as_micros() + hop);
                w.schedule(t, e.target, k);
            }
        }
        assert_eq!(seen.len(), 200);
        assert!(seen.windows(2).all(|p| p[0] <= p[1]), "non-decreasing pops");
    }

    #[test]
    fn wheel_cancellation_is_o1_and_bounded() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        // Many set/cancel cycles with everything cancelled: bookkeeping must
        // stay at the tiny peak of *concurrently* live events, not grow with
        // the total ever scheduled.
        for round in 0..10_000u64 {
            let (t, k) = crash(round * 10 + 5);
            let a = w.schedule(t, 0, k);
            let (t, k) = crash(round * 10 + 7);
            let b = w.schedule(t, 1, k);
            assert!(w.cancel(b));
            assert!(!w.cancel(b), "double cancel is a stale no-op");
            assert!(w.cancel(a));
        }
        assert_eq!(w.len(), 0);
        assert!(
            w.slab_capacity() <= 4,
            "slab reuses freed slots: {}",
            w.slab_capacity()
        );
        // Cancelled events are really gone; survivors still pop in order.
        let (t, k) = crash(123);
        w.schedule(t, 0, k);
        let (t, k) = crash(45);
        let h = w.schedule(t, 1, k);
        assert!(w.cancel(h));
        let popped = drain(&mut w);
        assert_eq!(popped.len(), 1);
        assert_eq!(popped[0], (123, 20_000, 0));
        assert!(w.slab_capacity() <= 4);
    }

    #[test]
    fn wheel_next_time_matches_pop_and_is_stable() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        for at in [500u64, 20, 300_000] {
            let (t, k) = crash(at);
            w.schedule(t, 0, k);
        }
        while let Some(t) = EventScheduler::<()>::next_time(&mut w) {
            assert_eq!(EventScheduler::<()>::next_time(&mut w), Some(t));
            let e = w.pop().expect("peeked event pops");
            assert_eq!(e.at, t);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_schedule_in_the_past_clamps_to_now() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        let (t, k) = crash(100);
        w.schedule(t, 0, k);
        assert_eq!(w.pop().unwrap().at.as_micros(), 100);
        let (_, k) = crash(0);
        w.schedule(SimTime::from_micros(10), 1, k);
        assert_eq!(
            w.pop().unwrap().at.as_micros(),
            100,
            "clamped to the cursor"
        );
    }

    #[test]
    fn profiles_count_schedules_cancels_and_cascades() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        // A long delay forces at least one cascade when the window is
        // entered; a cancelled short timer counts without firing.
        let (t, k) = crash(1_000_000);
        w.schedule(t, 0, k);
        let (t, k) = crash(10);
        let h = w.schedule(t, 1, k);
        assert!(w.cancel(h));
        let _ = drain(&mut w);
        let p = EventScheduler::<()>::profile(&w);
        assert_eq!(p.scheduled, 2);
        assert_eq!(p.cancelled, 1);
        assert!(p.cascades >= 1, "long delay cascades down: {p:?}");
        assert!(p.cascade_entries >= 1);
        assert_eq!(p.live_high_water, 2);
        assert_eq!(p.bookkeeping_slots, 2);

        let mut s: HeapScheduler<()> = HeapScheduler::default();
        let (t, k) = crash(5);
        s.schedule(t, 0, k);
        let (t, k) = crash(9);
        let h = s.schedule(t, 0, k);
        s.cancel(h);
        let _ = drain(&mut s);
        let p = EventScheduler::<()>::profile(&s);
        assert_eq!((p.scheduled, p.cancelled, p.live_high_water), (2, 1, 2));
        assert_eq!(p.cascades, 0);
        assert_eq!(p.bookkeeping_slots, 1, "peak tombstones");
    }

    #[test]
    fn heap_scheduler_reclaims_tombstones() {
        let mut s: HeapScheduler<()> = HeapScheduler::default();
        let mut handles = Vec::new();
        for at in 0..100u64 {
            let (t, k) = crash(at);
            handles.push(s.schedule(t, 0, k));
        }
        for h in handles.iter().skip(1).step_by(2) {
            s.cancel(*h);
        }
        assert_eq!(s.tombstones(), 50);
        assert_eq!(s.len(), 50);
        let popped = drain(&mut s);
        assert_eq!(popped.len(), 50);
        assert_eq!(s.tombstones(), 0, "tombstones are reclaimed on skip");
    }
}

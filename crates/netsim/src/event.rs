//! Events and payload interning for the discrete-event simulator.
//!
//! Events are ordered by `(time, sequence)`. The sequence number is a
//! monotonically increasing tie-breaker so that two events scheduled for the
//! same instant are delivered in the order they were scheduled, which keeps
//! the simulation deterministic across runs. Both schedulers (the production
//! [`crate::sched::TimerWheel`] and the reference [`EventQueue`] binary heap)
//! implement exactly this total order.
//!
//! Broadcast payloads are *interned*: one [`Payload::Shared`] `Arc` is
//! created per send and every per-recipient event holds a reference to it,
//! so a 100-replica broadcast costs one allocation instead of 100 deep
//! clones. The payload is unwrapped lazily at delivery — the last recipient
//! takes the original value back out of the `Arc`, and deliveries dropped on
//! the floor (crashed nodes, horizon cutoff) never pay the clone at all.

use crate::sim::{NodeId, TimerId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

// Payload interning is part of the runtime-agnostic node API (the `Context`
// buffers `Payload`-carrying actions), so the type lives in `runtime`;
// re-exported here to keep `netsim::event::Payload` / `netsim::Payload`
// paths working.
pub use runtime::Payload;

/// What happens when an event fires.
#[derive(Debug, Clone)]
pub enum EventKind<M> {
    /// Deliver the payload from `from` to the target node.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// The (possibly broadcast-shared) message.
        payload: Payload<M>,
    },
    /// Fire timer `timer` (with an opaque `tag` chosen by the node) at the target node.
    Timer {
        /// Engine-assigned timer identity.
        timer: TimerId,
        /// Opaque tag echoed back to the node.
        tag: u64,
    },
    /// Crash the target node: it stops processing all further events.
    Crash,
    /// Recover a previously crashed node.
    Recover,
}

/// A scheduled event.
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Virtual time at which the event fires.
    pub at: SimTime,
    /// Tie-breaking sequence number (scheduling order).
    pub seq: u64,
    /// Node the event is delivered to.
    pub target: NodeId,
    /// Payload.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference priority queue of simulation events: a binary heap ordered
/// by `(time, seq)`.
///
/// This is the original engine data structure, kept as the executable
/// specification of the determinism contract — the proptests drive it and
/// the [`crate::sched::TimerWheel`] with identical schedules and assert
/// identical pop order — and as the baseline the engine benchmarks compare
/// against ([`crate::sched::HeapScheduler`] wraps the same heap discipline).
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule an event; returns its sequence number.
    pub fn schedule(&mut self, at: SimTime, target: NodeId, kind: EventKind<M>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            at,
            seq,
            target,
            kind,
        });
        seq
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    /// Peek at the earliest event, if any.
    pub fn peek(&self) -> Option<&Event<M>> {
        self.heap.peek()
    }

    /// Peek at the time of the earliest event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn timer(at: u64) -> (SimTime, EventKind<()>) {
        (
            SimTime::from_micros(at),
            EventKind::Timer {
                timer: TimerId(0),
                tag: 0,
            },
        )
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let (t3, k3) = timer(30);
        let (t1, k1) = timer(10);
        let (t2, k2) = timer(20);
        q.schedule(t3, 0, k3);
        q.schedule(t1, 1, k1);
        q.schedule(t2, 2, k2);
        assert_eq!(q.pop().unwrap().at.as_micros(), 10);
        assert_eq!(q.pop().unwrap().at.as_micros(), 20);
        assert_eq!(q.pop().unwrap().at.as_micros(), 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_broken_by_schedule_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        for target in 0..5 {
            q.schedule(SimTime::from_micros(100), target, EventKind::Crash);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.target).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn next_time_peeks_earliest() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.next_time().is_none());
        q.schedule(SimTime::from_micros(50), 0, EventKind::Crash);
        q.schedule(SimTime::from_micros(5), 0, EventKind::Crash);
        assert_eq!(q.next_time().unwrap().as_micros(), 5);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
    // (Payload's unwrap-without-clone semantics are tested where it now
    // lives, in runtime::node.)
}

//! The runtime-agnostic node API.
//!
//! A protocol participant is a [`Node`]: a state machine driven entirely by
//! `on_start` / `on_message` / `on_timer` / `on_crash` callbacks. During a
//! callback the node interacts with the world exclusively through the
//! [`Context`] it is handed — it can send, broadcast, multicast, set and
//! cancel timers, and read the current time. The context *buffers* these
//! requests as [`Action`]s; whichever runtime owns the node drains the buffer
//! after the callback returns and makes the actions real:
//!
//! * `netsim::Simulation` schedules them as discrete events on virtual time —
//!   the deterministic simulator used by every experiment harness;
//! * [`crate::RealCluster`] executes them over localhost TCP sockets and a
//!   wall-clock timer thread.
//!
//! Because nodes only ever see `Context`, the *same* replica struct runs
//! unmodified in both worlds; nothing in the protocol code can tell virtual
//! microseconds from wall-clock microseconds.
//!
//! The action buffer is the runtime's and is recycled: each callback's
//! `Context` takes it in [`Context::new`], and [`Context::finish`] hands it
//! back drained with its capacity kept. Once a node has made its widest
//! callback, buffering actions allocates nothing — a 20-way multicast costs
//! its one payload `Arc`, not a `Vec` regrown from empty every time.

use crate::time::{Duration, SimTime};
use std::sync::Arc;

/// Identifier of a node (index into the cluster's node vector).
pub type NodeId = usize;

/// Identifier of a timer set by a node. Unique per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// A message payload carried by a delivery: either owned outright (unicast)
/// or shared between all recipients of one broadcast.
///
/// Transparent to [`Node::on_message`] — the runtime unwraps the payload into
/// an owned message at delivery time. Interning broadcasts behind one `Arc`
/// means a 100-replica fan-out costs one allocation, not 100 deep clones.
#[derive(Debug, Clone)]
pub enum Payload<M> {
    /// A unicast payload, owned by its single delivery event.
    Owned(M),
    /// One broadcast payload shared by every recipient's delivery event.
    Shared(Arc<M>),
}

impl<M: Clone> Payload<M> {
    /// Unwrap into an owned message. The last holder of a shared payload
    /// recovers the original value without cloning.
    pub fn into_msg(self) -> M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()),
        }
    }
}

impl<M> Payload<M> {
    /// Borrow the message.
    pub fn as_msg(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(arc) => arc,
        }
    }
}

/// An action a node requests from its runtime during a callback.
#[derive(Debug, Clone)]
pub enum Action<M> {
    /// Send `payload` to node `to`.
    Send {
        /// Recipient node.
        to: NodeId,
        /// Owned for unicast, `Arc`-shared for broadcast/multicast fan-out.
        payload: Payload<M>,
    },
    /// Set a timer firing after `delay`, with an opaque `tag` echoed back.
    SetTimer {
        /// The id minted by [`Context::set_timer`] — the one source of truth;
        /// runtimes key their bookkeeping on it and never re-allocate.
        timer: TimerId,
        /// Delay from the current instant.
        delay: Duration,
        /// Opaque tag echoed back to `on_timer`.
        tag: u64,
    },
    /// Cancel a previously set timer.
    CancelTimer {
        /// The timer to cancel.
        timer: TimerId,
    },
}

/// The interface nodes use to interact with the world.
///
/// A `Context` is created for each callback; actions are buffered and
/// applied by the runtime after the callback returns, in order. Runtimes
/// construct one with [`Context::new`], handing it their action buffer, and
/// get the buffer back from [`Context::finish`] once every action has been
/// applied.
pub struct Context<M> {
    /// Identity of the node being called.
    pub id: NodeId,
    /// Current time (virtual in the simulator, wall-clock µs since cluster
    /// launch in the real runtime).
    pub now: SimTime,
    /// Total number of nodes in the cluster.
    pub n: usize,
    actions: Vec<Action<M>>,
    next_timer: u64,
}

impl<M> Context<M> {
    /// Create a context for one callback. `next_timer` is the runtime's
    /// persistent timer-id allocator state; ids minted during the callback
    /// continue from it, and [`Context::finish`] hands the advanced value
    /// back so the runtime can thread it into the next context. `actions` is
    /// the runtime's action buffer, as the previous [`Context::finish`]
    /// returned it (`Vec::new()` the first time); its capacity is what lets a
    /// callback buffer its actions without allocating.
    pub fn new(
        id: NodeId,
        now: SimTime,
        n: usize,
        next_timer: u64,
        actions: Vec<Action<M>>,
    ) -> Self {
        debug_assert!(actions.is_empty(), "the action buffer comes back drained");
        Context {
            id,
            now,
            n,
            actions,
            next_timer,
        }
    }

    /// Send a message to a single node. Sending to self is allowed and is
    /// delivered with zero latency (next event at the same instant).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send {
            to,
            payload: Payload::Owned(msg),
        });
    }

    /// Send a message to every node except the sender.
    ///
    /// The payload is interned behind one `Arc` shared by all recipients:
    /// a broadcast costs O(1) payload clones regardless of fan-out.
    pub fn broadcast(&mut self, msg: M) {
        let shared = Arc::new(msg);
        for to in 0..self.n {
            if to != self.id {
                self.actions.push(Action::Send {
                    to,
                    payload: Payload::Shared(shared.clone()),
                });
            }
        }
    }

    /// Send a message to every node in `targets` (skipping self-sends is the
    /// caller's choice; they are allowed). Like [`Context::broadcast`], the
    /// payload is shared, not cloned per recipient.
    pub fn multicast(&mut self, targets: &[NodeId], msg: M) {
        match targets {
            [] => {}
            [to] => self.actions.push(Action::Send {
                to: *to,
                payload: Payload::Owned(msg),
            }),
            _ => {
                let shared = Arc::new(msg);
                for &to in targets {
                    self.actions.push(Action::Send {
                        to,
                        payload: Payload::Shared(shared.clone()),
                    });
                }
            }
        }
    }

    /// Set a timer firing `delay` from now. The `tag` is echoed back to
    /// `on_timer` so a node can multiplex many logical timers.
    ///
    /// The context mints the [`TimerId`] and embeds it in the buffered
    /// [`Action::SetTimer`], so the id returned here and the id the runtime
    /// schedules are one and the same allocation.
    pub fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerId {
        let timer = TimerId(self.next_timer);
        self.next_timer += 1;
        self.actions.push(Action::SetTimer { timer, delay, tag });
        timer
    }

    /// Cancel a previously set timer. Cancelling an already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.actions.push(Action::CancelTimer { timer });
    }

    /// Consume the context: hand every buffered action to `apply`, in order,
    /// then return the drained action buffer (capacity kept, for the next
    /// [`Context::new`]) and the advanced timer-id allocator state.
    pub fn finish(mut self, apply: impl FnMut(Action<M>)) -> (Vec<Action<M>>, u64) {
        self.actions.drain(..).for_each(apply);
        (self.actions, self.next_timer)
    }
}

/// A protocol participant driven by a runtime.
pub trait Node {
    /// Message type exchanged between nodes of this cluster.
    type Msg: Clone;

    /// Called once at cluster start (time zero).
    fn on_start(&mut self, ctx: &mut Context<Self::Msg>);

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Context<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set by this node fires.
    fn on_timer(&mut self, ctx: &mut Context<Self::Msg>, timer: TimerId, tag: u64);

    /// Called when the node is crashed by a fault plan. Default: no-op.
    fn on_crash(&mut self, _now: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finish `ctx`, collecting what it buffered.
    fn collect<M>(ctx: Context<M>) -> (Vec<Action<M>>, u64) {
        let mut actions = Vec::new();
        let (_, next) = ctx.finish(|a| actions.push(a));
        (actions, next)
    }

    #[test]
    fn set_timer_mints_sequential_ids_and_embeds_them() {
        let mut ctx: Context<()> = Context::new(0, SimTime::ZERO, 3, 41, Vec::new());
        let a = ctx.set_timer(Duration::from_millis(5), 7);
        let b = ctx.set_timer(Duration::from_millis(9), 8);
        assert_eq!(a, TimerId(41));
        assert_eq!(b, TimerId(42));
        let (actions, next) = collect(ctx);
        assert_eq!(next, 43, "allocator state advances past minted ids");
        match (&actions[0], &actions[1]) {
            (
                Action::SetTimer {
                    timer: t0, tag: 7, ..
                },
                Action::SetTimer {
                    timer: t1, tag: 8, ..
                },
            ) => {
                assert_eq!(*t0, a, "the buffered action carries the minted id");
                assert_eq!(*t1, b);
            }
            other => panic!("unexpected actions: {other:?}"),
        }
    }

    #[test]
    fn broadcast_skips_self_and_shares_one_arc() {
        let mut ctx: Context<u32> = Context::new(1, SimTime::ZERO, 4, 0, Vec::new());
        ctx.broadcast(99);
        let (actions, _) = collect(ctx);
        let targets: Vec<NodeId> = actions
            .iter()
            .map(|a| match a {
                Action::Send { to, payload } => {
                    assert!(matches!(payload, Payload::Shared(_)));
                    assert_eq!(*payload.as_msg(), 99);
                    *to
                }
                other => panic!("unexpected action: {other:?}"),
            })
            .collect();
        assert_eq!(targets, vec![0, 2, 3]);
    }

    #[test]
    fn multicast_owns_singleton_and_shares_fanout() {
        let mut ctx: Context<u32> = Context::new(0, SimTime::ZERO, 5, 0, Vec::new());
        ctx.multicast(&[], 1);
        ctx.multicast(&[3], 2);
        ctx.multicast(&[1, 4], 3);
        let (actions, _) = collect(ctx);
        assert_eq!(actions.len(), 3);
        assert!(matches!(
            &actions[0],
            Action::Send {
                to: 3,
                payload: Payload::Owned(2)
            }
        ));
        assert!(matches!(
            &actions[1],
            Action::Send {
                to: 1,
                payload: Payload::Shared(_)
            }
        ));
        assert!(matches!(
            &actions[2],
            Action::Send {
                to: 4,
                payload: Payload::Shared(_)
            }
        ));
    }

    #[test]
    fn finish_hands_the_buffer_back_drained_with_its_capacity() {
        let mut ctx: Context<u32> = Context::new(0, SimTime::ZERO, 21, 0, Vec::new());
        ctx.broadcast(5);
        let mut applied = 0;
        let (buffer, _) = ctx.finish(|_| applied += 1);
        assert_eq!(applied, 20);
        assert!(buffer.is_empty());
        let capacity = buffer.capacity();
        assert!(capacity >= 20);

        let mut ctx: Context<u32> = Context::new(3, SimTime::ZERO, 21, 0, buffer);
        ctx.broadcast(6);
        let (buffer, _) = ctx.finish(|_| {});
        assert_eq!(
            buffer.capacity(),
            capacity,
            "the same fan-out does not regrow"
        );
    }

    #[test]
    fn shared_payload_unwraps_without_clone_for_last_holder() {
        let shared = Arc::new(vec![1u8, 2, 3]);
        let a: Payload<Vec<u8>> = Payload::Shared(shared.clone());
        let b: Payload<Vec<u8>> = Payload::Shared(shared);
        assert_eq!(a.as_msg(), &vec![1, 2, 3]);
        // First holder clones (the Arc is still shared)…
        assert_eq!(a.into_msg(), vec![1, 2, 3]);
        // …the last holder takes the original value back out.
        assert_eq!(b.into_msg(), vec![1, 2, 3]);
        assert_eq!(Payload::Owned(7u32).into_msg(), 7);
    }
}

//! A failure-free PBFT round allocates per round, never per vote: once the
//! proposal is in, a `Write` or `Accept` that completes no quorum lands in a
//! bitset of voters and an arrival record sized for the round, and the
//! runtime's recycled action buffer absorbs any multicast. Its own test
//! binary, because the counting allocator below is process-wide; the one
//! test keeps its readings on a single thread.

use crypto::Digest;
use pbft::{PbftMessage, ReplicaState, StaticPolicy};
use rsm::{Block, Command, SealedBlock, TrafficSpec};
use runtime::{Action, Context, Node, NodeId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use traffic::SharedTrafficQueue;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Europe21's size, as in the OptiAware benchmark cell.
const N: usize = 21;
const F: usize = 6;
/// The replica under test; replica 0 leads the initial configuration.
const ME: NodeId = 5;

/// Drives one replica by hand, the way a runtime does: one `Context` per
/// callback over a recycled action buffer.
struct Runtime {
    node: ReplicaState,
    actions: Vec<Action<PbftMessage>>,
    next_timer: u64,
    now: SimTime,
}

impl Runtime {
    /// Deliver `msg`; returns the bytes allocated, the messages sent and
    /// whether the replica committed.
    fn deliver(&mut self, from: NodeId, msg: PbftMessage) -> (u64, usize, bool) {
        let commits = self.node.commit_checkpoints().len();
        let before = ALLOCATED.load(Ordering::Relaxed);
        let buffer = std::mem::take(&mut self.actions);
        let mut ctx = Context::new(ME, self.now, N, self.next_timer, buffer);
        self.node.on_message(&mut ctx, from, msg);
        let mut sent = 0;
        let (buffer, next_timer) = ctx.finish(|action| {
            if matches!(action, Action::Send { .. }) {
                sent += 1;
            }
        });
        self.actions = buffer;
        self.next_timer = next_timer;
        let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
        (bytes, sent, self.node.commit_checkpoints().len() > commits)
    }
}

/// A queue with nothing scheduled.
fn idle_queue() -> SharedTrafficQueue {
    SharedTrafficQueue::generate(&TrafficSpec::poisson(1.0), &[1.0], 0, SimTime::ZERO)
}

#[test]
fn votes_that_complete_no_quorum_allocate_nothing() {
    let mut rt = Runtime {
        // Only the leader reads the queue, and this replica never leads.
        node: ReplicaState::new(ME, N, F, idle_queue(), Box::new(StaticPolicy)),
        actions: Vec::new(),
        next_timer: 0,
        now: SimTime::ZERO,
    };
    let voters = || (0..N).filter(|&v| v != ME);
    for seq in 1..=4u64 {
        rt.now = SimTime::from_millis(100 * seq);
        let commands = (0..100)
            .map(|i| Command::empty(i % 4, 100 * seq + i))
            .collect();
        let block = Arc::new(SealedBlock::seal(Block::new(
            Digest::ZERO,
            seq,
            seq,
            0,
            commands,
        )));
        let digest = block.digest();
        let (_, sent, _) = rt.deliver(
            0,
            PbftMessage::Propose {
                seq,
                epoch: 0,
                block,
                timestamp_us: rt.now.as_micros(),
                measurements: Vec::new(),
            },
        );
        assert_eq!(
            sent,
            N - 1,
            "the proposal is answered with a Write to every peer"
        );

        // Exactly one Write completes the write quorum (and multicasts this
        // replica's Accept), exactly one Accept completes the accept quorum
        // (and commits); no other vote allocates, including the Accepts that
        // arrive after the commit.
        let mut completions = 0;
        for voter in voters() {
            let (bytes, sent, committed) =
                rt.deliver(voter, PbftMessage::Write { seq, digest, voter });
            if sent > 0 || committed {
                completions += 1;
            } else {
                assert_eq!(
                    bytes, 0,
                    "round {seq}: Write from {voter} allocated {bytes} B"
                );
            }
        }
        for voter in voters() {
            let (bytes, sent, committed) =
                rt.deliver(voter, PbftMessage::Accept { seq, digest, voter });
            if sent > 0 || committed {
                completions += 1;
            } else {
                assert_eq!(
                    bytes, 0,
                    "round {seq}: Accept from {voter} allocated {bytes} B"
                );
            }
        }
        assert_eq!(
            completions, 2,
            "round {seq}: one write quorum, one accept quorum"
        );
    }
}

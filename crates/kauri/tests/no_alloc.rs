//! A failure-free Kauri view allocates per view at an intermediate, never
//! per leaf vote: once the proposal is in, a vote that completes no
//! aggregate lands in the view's voter set and is checked against the
//! children of the tree the proposal carried, in place. Its own test binary,
//! because the counting allocator below is process-wide; the one test keeps
//! its readings on a single thread.

use crypto::Digest;
use kauri::{KauriBinsPolicy, KauriMessage, KauriNode, Tree};
use rsm::SystemConfig;
use runtime::{Action, Context, Duration, Node, NodeId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Europe21's size and branch factor.
const N: usize = 21;
const B: usize = 4;
/// The replica under test: the first intermediate of the tree below, whose
/// leaves are 5, 9, 13 and 17.
const ME: NodeId = 1;

/// Drives one replica by hand, the way a runtime does: one `Context` per
/// callback over a recycled action buffer.
struct Runtime {
    node: KauriNode,
    actions: Vec<Action<KauriMessage>>,
    next_timer: u64,
    now: SimTime,
}

impl Runtime {
    /// Deliver `msg`; returns the bytes allocated and the messages sent.
    fn deliver(&mut self, from: NodeId, msg: KauriMessage) -> (u64, usize) {
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
        (ALLOCATED.load(Ordering::Relaxed) - before, sent)
    }
}

#[test]
fn leaf_votes_that_complete_no_aggregate_allocate_nothing() {
    let order: Vec<usize> = (0..N).collect();
    let tree = Tree::from_ordering(&order, B);
    let leaves = tree.leaves_of(ME).to_vec();
    assert_eq!(leaves, [5, 9, 13, 17], "test setup: the tree's shape");
    let node = KauriNode::new(
        ME,
        SystemConfig::new(N),
        tree.clone(),
        Box::new(KauriBinsPolicy::new(N, B, 0)),
        100,
        3,
        B,
        Duration::from_secs(1),
    );
    let mut rt = Runtime {
        node,
        actions: Vec::new(),
        next_timer: 0,
        now: SimTime::ZERO,
    };
    let tree = Arc::new(tree);
    let committed = Arc::new(Vec::new());
    for view in 1..=4u64 {
        rt.now = SimTime::from_millis(100 * view);
        let (_, sent) = rt.deliver(
            0,
            KauriMessage::Proposal {
                view,
                digest: Digest::ZERO,
                commands: 100,
                timestamp_us: rt.now.as_micros(),
                epoch: 0,
                tree: tree.clone(),
                committed: committed.clone(),
            },
        );
        assert_eq!(sent, leaves.len(), "view {view}: forwarded to every leaf");

        // The last leaf's vote completes the aggregate and sends it to the
        // root; every other vote, and a repeat after the forward, allocates
        // nothing.
        for (i, &leaf) in leaves.iter().enumerate() {
            let (bytes, sent) = rt.deliver(leaf, KauriMessage::Vote { view, voter: leaf });
            if i + 1 == leaves.len() {
                assert_eq!(sent, 1, "view {view}: the aggregate goes to the root");
            } else {
                assert_eq!(sent, 0);
                assert_eq!(
                    bytes, 0,
                    "view {view}: vote from {leaf} allocated {bytes} B"
                );
            }
        }
        let (bytes, sent) = rt.deliver(
            leaves[0],
            KauriMessage::Vote {
                view,
                voter: leaves[0],
            },
        );
        assert_eq!(
            (bytes, sent),
            (0, 0),
            "view {view}: a repeat vote after the forward"
        );
    }
}

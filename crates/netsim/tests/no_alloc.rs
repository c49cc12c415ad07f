//! The engine lends every callback its recycled action buffer, so once the
//! widest callback has been seen, buffering actions allocates nothing: a
//! node that multicasts to 20 peers per callback pays the one payload `Arc`
//! per callback and no more. Its own test binary, because the counting
//! allocator below is process-wide; the one test keeps its readings on a
//! single thread.

use netsim::{Context, Duration, Node, NodeId, SimTime, Simulation, TimerId, UniformLatency};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 21;

/// Node 0 multicasts a tick to the other 20 nodes every millisecond; the
/// others only receive.
struct Fanout {
    peers: Vec<NodeId>,
    ticks: u64,
}

impl Node for Fanout {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<u64>) {
        if ctx.id == 0 {
            ctx.set_timer(Duration::from_millis(1), 0);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, _tick: u64) {}

    fn on_timer(&mut self, ctx: &mut Context<u64>, _timer: TimerId, _tag: u64) {
        self.ticks += 1;
        ctx.multicast(&self.peers, self.ticks);
        ctx.set_timer(Duration::from_millis(1), 0);
    }
}

#[test]
fn a_multicast_callback_allocates_only_its_payload() {
    let nodes = (0..N)
        .map(|id| Fanout {
            peers: (0..N).filter(|&p| p != id).collect(),
            ticks: 0,
        })
        .collect();
    let latency = Box::new(UniformLatency::new(N, Duration::from_micros(300)));
    let mut sim = Simulation::new(nodes, latency);
    // Warm-up: the action buffer, the slab and the timer map reach their
    // working size within the first tick; the timer wheel's buckets only
    // once it has turned through its third level (64 x 262 ms), since a
    // bucket first filled later allocates then.
    sim.run_until(SimTime::from_secs(20));

    let ticks_before = sim.node(0).ticks;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_until(SimTime::from_millis(20_200));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let ticks = sim.node(0).ticks - ticks_before;

    assert_eq!(ticks, 200);
    assert_eq!(
        allocations, ticks,
        "one payload Arc per multicasting callback; the 20 deliveries each allocate nothing"
    );
}

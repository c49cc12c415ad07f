//! Recording into a key the registry already holds must not touch the heap,
//! one value at a time or a batch of them through `observe_each`: the lookup
//! borrows the caller's `&str`, and the `String` is built on first insert
//! only. Its own test binary, because the counting allocator below is
//! process-wide; the one test keeps its readings on a single thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::{Registry, Telemetry};

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

fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

#[test]
fn a_hit_on_an_existing_key_allocates_nothing() {
    let mut reg = Registry::new();
    let first = allocated_by(|| {
        reg.counter_add("t.alloc.count", Some(3), 1);
        reg.gauge_set("t.alloc.depth", None, 1.0);
        reg.gauge_max("t.alloc.peak", Some(0), 1.0);
        reg.observe("t.alloc.lat_us", Some(3), 700);
        reg.observe_each("t.alloc.lat_us", Some(3), [40, 700, 90_000]);
    });
    assert!(first > 0, "first insert builds the key");
    let hit = allocated_by(|| {
        reg.counter_add("t.alloc.count", Some(3), 5);
        reg.gauge_set("t.alloc.depth", None, 2.0);
        reg.gauge_max("t.alloc.peak", Some(0), 9.0);
        reg.observe("t.alloc.lat_us", Some(3), 700);
        reg.observe_each("t.alloc.lat_us", Some(3), [40, 700, 90_000]);
        reg.observe_each("t.alloc.lat_us", Some(3), std::iter::repeat_n(700, 1000));
        assert_eq!(reg.counter("t.alloc.count", Some(3)), 6);
        assert_eq!(reg.gauge("t.alloc.depth", None), Some(2.0));
        assert_eq!(reg.gauge("t.alloc.peak", Some(0)), Some(9.0));
        let hist = reg.histogram("t.alloc.lat_us", Some(3));
        assert_eq!(hist.map(|h| h.count()), Some(4 + 1 + 3 + 1000));
    });
    assert_eq!(hit, 0, "hits on existing keys must not allocate");

    // The same through the shared handle the replicas record with.
    let tel = Telemetry::recording();
    tel.counter_add("t.alloc.count", None, 1);
    tel.observe("t.alloc.lat_us", None, 700);
    let hit = allocated_by(|| {
        tel.counter_add("t.alloc.count", None, 1);
        tel.observe("t.alloc.lat_us", None, 700);
    });
    assert_eq!(hit, 0);
}

//! A full admission queue refuses its due arrivals without touching the
//! heap: they are counted off the schedule, never collected, so the cost of
//! an overloaded run does not grow with what it refuses. Its own test
//! binary, because the counting allocator below is process-wide; the one
//! test keeps its readings on a single thread.

use rsm::TrafficSpec;
use runtime::{Duration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::Telemetry;
use traffic::TrafficQueue;

/// Allocation calls (fresh blocks and resizes) so far.
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

fn allocations_by<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn refusing_a_flood_allocates_nothing_once_warm() {
    // 16 000 cmd/s from 16 clients with zero, shared and distinct ingress
    // legs, against a 100-command queue cut into batches of 50: an
    // overloaded cell, recorded into a live registry.
    let spec = TrafficSpec::poisson(16_000.0)
        .with_clients(16)
        .with_batching(50, Duration::from_millis(40))
        .with_capacity(100);
    let ingress: Vec<f64> = (0..16).map(|c| [0.0, 1.0, 7.5, 23.25][c % 4]).collect();
    let mut q = TrafficQueue::generate(&spec, &ingress, 7, SimTime::from_secs(60))
        .with_telemetry(Telemetry::recording());

    // Warm up: a second of 20 ms proposer steps with prompt commits, then a
    // second of a stalled proposer, so every registry key exists and the
    // schedule's buffers have reached their working size.
    let mut now = SimTime::ZERO;
    for _ in 0..50 {
        now += Duration::from_millis(20);
        if let Some(b) = q.try_batch_at(now, 0) {
            q.commit_batch(b.id, now);
        }
    }
    for _ in 0..50 {
        now += Duration::from_millis(20);
        assert!(q.has_flushable(now));
    }

    // Stalled proposer: each 200 ms step finds the queue full and refuses
    // about 3 200 arrivals.
    for _ in 0..20 {
        now += Duration::from_millis(200);
        let before = q.rejected();
        let (allocations, flushable) = allocations_by(|| q.has_flushable(now));
        assert!(flushable);
        assert!(q.rejected() - before > 2_000, "the step refuses a flood");
        assert_eq!(allocations, 0, "refusing arrivals must not allocate");
    }

    // A proposer step that cuts one batch and refuses thousands allocates
    // only the batch's own: the command list, the in-flight record's two
    // vectors, at most one in-flight map node and one depth-timeline growth.
    for _ in 0..20 {
        now += Duration::from_millis(200);
        let before = q.rejected();
        let (allocations, batch) = allocations_by(|| q.try_batch_at(now, 0));
        let batch = batch.expect("a full queue flushes");
        assert_eq!(batch.commands.len(), 50);
        assert!(q.rejected() - before > 2_000, "the step refuses a flood");
        assert!(allocations <= 5, "{allocations} allocations for one batch");
        q.commit_batch(batch.id, now);
    }
}

//! An OptiTree search allocates per search, never per iteration: a move
//! swaps two positions of the ordering in place, membership in the candidate
//! set is a mask, and the score is read off the ordering without building a
//! tree. Its own test binary, because the counting allocator below is
//! process-wide; the one test keeps its readings on a single thread.

use optilog::AnnealingParams;
use optitree::{search_tree, TreeSearchSpace};
use rsm::SystemConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are relaxed statistics on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Global73's size; every replica a candidate except a few, so both kinds
/// of move (internal swap, leaf swap) are exercised against the mask.
const N: usize = 73;

/// `(bytes, allocations)` of one search of `iterations` iterations.
fn cost(space: &TreeSearchSpace, iterations: usize) -> (u64, u64) {
    let params = AnnealingParams {
        iterations,
        ..Default::default()
    };
    let (bytes, count) = (
        ALLOCATED.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
    );
    let (tree, score) = search_tree(space, params, 12);
    let spent = (
        ALLOCATED.load(Ordering::Relaxed) - bytes,
        ALLOCATIONS.load(Ordering::Relaxed) - count,
    );
    assert_eq!(tree.size(), N);
    assert!(score.is_finite());
    spent
}

#[test]
fn a_longer_search_allocates_no_more() {
    let system = SystemConfig::new(N);
    // A deterministic, irregular RTT matrix (no ties to speak of).
    let mut matrix = vec![0.0; N * N];
    for a in 0..N {
        for b in 0..N {
            if a != b {
                matrix[a * N + b] = 5.0 + ((a * 37 + b * 11) % 97) as f64 * 3.1;
            }
        }
    }
    let space = TreeSearchSpace {
        n: N,
        branch: system.tree_branch_factor(),
        matrix_rtt_ms: matrix,
        candidates: (0..N).filter(|r| r % 7 != 3).collect(),
        k: system.quorum(),
    };
    let short = cost(&space, 1_000);
    let long = cost(&space, 4_000);
    assert_eq!(
        short, long,
        "(bytes, allocations) of 1 000 vs 4 000 iterations"
    );
}

//! A frame's length prefix is the peer's word, not a promise: reading a frame
//! must not reserve what the prefix claims before the bytes arrive, and a
//! small frame that does arrive costs one block for its body.
//! Its own test binary, because the counting allocator below is process-wide;
//! the one test keeps its readings on a single thread.

use runtime::{encode_frame, read_frame, NodeId, MAX_FRAME_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, ErrorKind};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);
static BLOCKS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are relaxed statistics on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes and blocks (allocations plus reallocations) `f` asks the heap for.
fn allocated_by(f: impl FnOnce()) -> (u64, u64) {
    let (bytes, blocks) = (BYTES.load(Ordering::Relaxed), BLOCKS.load(Ordering::Relaxed));
    f();
    (
        BYTES.load(Ordering::Relaxed) - bytes,
        BLOCKS.load(Ordering::Relaxed) - blocks,
    )
}

#[test]
fn a_frame_reserves_what_arrives_not_what_its_prefix_claims() {
    // The largest prefix the reader accepts, then 10 body bytes and EOF.
    let mut lying = MAX_FRAME_BYTES.to_le_bytes().to_vec();
    lying.extend_from_slice(b"[0,\"abcd\"]");
    let mut input = Cursor::new(lying);
    let (bytes, _) = allocated_by(|| {
        let err = read_frame::<String, _>(&mut input).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    });
    assert!(bytes < 1 << 20, "a 64 MiB claim cost {bytes} bytes");

    // An honest 200-byte frame: one block for its body, then what decoding
    // the message costs on its own.
    let frame = encode_frame(3, &"x".repeat(194)).unwrap();
    assert_eq!(frame.len(), 4 + 200);
    let (_, decoding) = allocated_by(|| {
        let (from, msg): (NodeId, String) = serde_json::from_slice(&frame[4..]).unwrap();
        assert_eq!((from, msg.len()), (3, 194));
    });
    let mut input = Cursor::new(&frame);
    let (bytes, blocks) = allocated_by(|| {
        let (from, msg) = read_frame::<String, _>(&mut input).unwrap();
        assert_eq!((from, msg.len()), (3, 194));
    });
    assert_eq!(blocks, decoding + 1, "{bytes} bytes in {blocks} blocks");
}

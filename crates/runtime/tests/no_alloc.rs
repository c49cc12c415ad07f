//! A frame's length prefix is the peer's word, not a promise: reading a frame
//! must not reserve what the prefix claims before the bytes arrive, and a
//! small frame that does arrive costs one block for its body. Through warm
//! reused buffers a frame costs no block of its own at all, only the `serde`
//! value tree between message and bytes.
//! Its own test binary, because the counting allocator below is process-wide;
//! it counts per thread, so tests running side by side keep apart.

use runtime::{
    encode_frame, encode_frame_into, read_frame, read_frame_into, NodeId, MAX_FRAME_BYTES,
};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Cursor, ErrorKind};

std::thread_local! {
    /// Bytes, blocks (allocations plus reallocations) and the largest block
    /// this thread asked the heap for.
    static COUNTS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

fn count(size: usize) {
    let size = size as u64;
    // `try_with`: a thread may still allocate while it is torn down.
    let _ = COUNTS.try_with(|c| {
        let (bytes, blocks, largest) = c.get();
        c.set((bytes + size, blocks + 1, largest.max(size)));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics on the side, kept in a
// `const`-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes, blocks and the largest block `f` asks the heap for.
fn allocated_by(f: impl FnOnce()) -> (u64, u64, u64) {
    COUNTS.with(|c| c.set((0, 0, 0)));
    f();
    COUNTS.with(Cell::get)
}

#[test]
fn a_frame_reserves_what_arrives_not_what_its_prefix_claims() {
    // The largest prefix the reader accepts, then 10 body bytes and EOF.
    let mut lying = MAX_FRAME_BYTES.to_le_bytes().to_vec();
    lying.extend_from_slice(b"[0,\"abcd\"]");
    let mut input = Cursor::new(lying);
    let (bytes, _, _) = allocated_by(|| {
        let err = read_frame::<String, _>(&mut input).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    });
    assert!(bytes < 1 << 20, "a 64 MiB claim cost {bytes} bytes");

    // An honest 200-byte frame: one block for its body, then what decoding
    // the message costs on its own.
    let frame = encode_frame(3, &"x".repeat(194)).unwrap();
    assert_eq!(frame.len(), 4 + 200);
    let (_, decoding, _) = allocated_by(|| {
        let (from, msg): (NodeId, String) = serde_json::from_slice(&frame[4..]).unwrap();
        assert_eq!((from, msg.len()), (3, 194));
    });
    let mut input = Cursor::new(&frame);
    let (bytes, blocks, _) = allocated_by(|| {
        let (from, msg) = read_frame::<String, _>(&mut input).unwrap();
        assert_eq!((from, msg.len()), (3, 194));
    });
    assert_eq!(blocks, decoding + 1, "{bytes} bytes in {blocks} blocks");
}

#[test]
fn a_warm_buffer_leaves_a_frame_only_its_value_tree() {
    // Four long strings: each block of the value tree is a fraction of the
    // frame, so a block as large as the frame could only be the frame's.
    let msg: Vec<String> = (0..4).map(|i| i.to_string().repeat(100)).collect();
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, 3, &msg).unwrap();
    let tree = allocated_by(|| drop((3usize, &msg).to_value()));
    let encoding = allocated_by(|| encode_frame_into(&mut frame, 3, &msg).unwrap());
    assert_eq!(encoding, tree, "a warm encode: (bytes, blocks, largest)");
    assert!(
        encoding.2 < frame.len() as u64 / 2,
        "{encoding:?} for {} bytes",
        frame.len()
    );

    let decoding = allocated_by(|| {
        let _: (NodeId, Vec<String>) = serde_json::from_slice(&frame[4..]).unwrap();
    });
    let mut body = Vec::new();
    read_frame_into::<Vec<String>, _>(&mut Cursor::new(&frame), &mut body).unwrap();
    let mut read = None;
    let reading = allocated_by(|| {
        read = Some(read_frame_into::<Vec<String>, _>(
            &mut Cursor::new(&frame),
            &mut body,
        ));
    });
    assert_eq!(read.unwrap().unwrap(), (3, msg));
    assert_eq!(reading, decoding, "a warm read: (bytes, blocks, largest)");
    assert!(
        reading.2 < frame.len() as u64 / 2,
        "{reading:?} for {} bytes",
        frame.len()
    );
}

//! The counting allocator's totals against a hand-counted fixture. Built
//! without the test harness (`harness = false`), so this `main` is the only
//! thread and nothing else allocates between the two readings.

use optilog_benchmark::alloc::{totals, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let (allocs_before, bytes_before) = totals();

    let boxed = black_box(Box::new(7u64)); // alloc: 8 bytes
    let mut bytes: Vec<u8> = black_box(Vec::with_capacity(100)); // alloc: 100 bytes
    bytes.extend_from_slice(&[1; 100]); // fits, no allocation
    bytes.reserve_exact(100); // realloc to 200 bytes
    let zeroed = black_box(vec![0u32; 16]); // alloc_zeroed: 64 bytes

    let (allocs_after, bytes_after) = totals();
    drop((boxed, bytes, zeroed)); // frees are not counted

    assert_eq!(allocs_after - allocs_before, 4, "allocations");
    assert_eq!(
        bytes_after - bytes_before,
        8 + 100 + 200 + 64,
        "bytes requested"
    );
    assert_eq!(
        totals(),
        (allocs_after, bytes_after),
        "dealloc must not count"
    );
    println!("alloc fixture: ok");
}

//! Allocation tripwire for the histogram record path.
//!
//! The enumeration tripwire (the counting allocator of
//! `tests/frontier_alloc_tripwire.rs`) asserts the hot loop never
//! allocates; the observability layer must not break that contract by
//! allocating on `record`. This test installs a counting global allocator and asserts
//! that recording into an [`AtomicHistogram`] (shared, atomic) and a
//! [`LocalHistogram`] (per-cursor) performs **zero** allocations once the
//! instrument exists. Lock-freedom is by construction — the record path
//! is a single relaxed `fetch_add` — so allocation is the only way it
//! could ever block or take a fault-prone slow path.
//!
//! The count is **per thread**: libtest runs this file's tests on parallel
//! threads (and allocates on its own), so a process-wide counter sees the
//! neighbours' allocations and fails at random.

use re_obs::{AtomicHistogram, LocalHistogram};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations belong to no test.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn record_is_allocation_free() {
    // Instruments are created up front, as production code does (resolve
    // once, record many).
    let shared = AtomicHistogram::new();
    let mut local = LocalHistogram::new();

    let before = allocs();
    for i in 0..10_000u64 {
        shared.record(i * 31);
        local.record(i * 17);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "histogram record path allocated {} times",
        after - before
    );
    assert_eq!(shared.snapshot().count(), 10_000);
}

#[test]
fn span_timing_record_is_allocation_free_after_entry() {
    // Span::enter resolves the registry histogram (may allocate); the
    // recording on drop must not.
    let hist = re_obs::global().histogram("test.tripwire.span_ns");
    let before = allocs();
    for i in 0..1_000u64 {
        hist.record(i);
    }
    assert_eq!(allocs() - before, 0);
}

#[test]
fn the_counter_sees_this_threads_allocations_only() {
    let before = allocs();
    let noisy = std::thread::spawn(|| {
        let v: Vec<Vec<u8>> = (0..1_000).map(|i| vec![0u8; i + 1]).collect();
        (v.len(), allocs())
    });
    let (len, theirs) = noisy.join().unwrap();
    assert_eq!(len, 1_000);
    assert!(theirs >= 1_000, "the other thread counted its own");
    // Spawning and joining allocate here, a thousand vectors do not.
    assert!(allocs() - before < 100);
    let boxed = std::hint::black_box(Box::new(7u64));
    assert!(allocs() - before >= 1);
    drop(boxed);
}

//! A counting global allocator: live and peak heap bytes of the process.
//!
//! Peak resident memory (`VmHWM`) of the same workload differs by a third
//! between runs — which thread's malloc arena a freed bag returns to
//! decides whether the next `OPEN` can reuse it — so it cannot carry a
//! regression bound. Live heap bytes are what the program asked for, and
//! repeat.
//!
//! Counting must not slow the program it watches: a shared counter bumped
//! on every allocation cost `open-churn` a fifth of its throughput. Each
//! thread therefore keeps its own running balance and folds it into the
//! shared total only when it has drifted by [`FLUSH`] bytes, which makes
//! the common path a thread-local add and bounds the error of the peak by
//! `FLUSH` per live thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Drift at which a thread publishes its balance.
const FLUSH: isize = 16 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Bytes this thread allocated minus bytes it freed since it last
    /// published. Const-initialised and without a destructor, so touching
    /// it never allocates.
    static BALANCE: Cell<isize> = const { Cell::new(0) };
}

fn publish(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn note(delta: isize) {
    let due = BALANCE.try_with(|balance| {
        let drift = balance.get() + delta;
        if drift.abs() >= FLUSH {
            balance.set(0);
            Some(drift)
        } else {
            balance.set(drift);
            None
        }
    });
    match due {
        Ok(Some(drift)) => publish(drift),
        Ok(None) => {}
        // The thread is exiting and its slot is gone.
        Err(_) => publish(delta),
    }
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Forget the peak so far: the next [`peak_mb`] covers what follows.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}

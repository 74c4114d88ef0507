//! A counting global allocator: live and peak heap bytes, plus the bytes and
//! number of allocations since the last reset, for every thread of the
//! process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts what passes through.
pub struct Counting;

// The counters publish no other data, so `Relaxed` is enough: each is a
// statistic read after the work it describes has been joined.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

fn shrink(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout`'s alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size() as u64);
            grow(new_size as u64);
        }
        p
    }
}

/// Heap figures since the last [`reset`].
#[derive(Debug, Clone, Copy)]
pub struct HeapWindow {
    /// Highest live heap of the process in the window, bytes.
    pub peak: u64,
    /// Bytes requested in the window (reallocations count their new size).
    pub allocated: u64,
    /// Allocation calls in the window.
    pub allocs: u64,
}

/// Starts a new window: the peak restarts from the current live heap.
pub fn reset() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    ALLOCATED.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
}

/// The figures of the current window.
pub fn window() -> HeapWindow {
    HeapWindow {
        peak: PEAK.load(Ordering::Relaxed),
        allocated: ALLOCATED.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
    }
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

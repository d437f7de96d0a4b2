//! A counting global allocator: how many heap calls a span made and how
//! many bytes a set-up left live. The counters are process-wide on
//! purpose — the wire plane's receiver threads are part of the program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: nothing is published through them, so Relaxed.
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees for the allocator that handed it out.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, who
        // guarantees they describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocating calls (alloc, alloc_zeroed, realloc) since process start.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Relaxed)
}

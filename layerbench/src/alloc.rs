//! A counting global allocator: the harness reads allocation counts
//! around in-process calls (the fast path must read 0 per `check`; the
//! parse and build paths report allocations per row).
//!
//! Counts are per thread, so a measured call on the calling thread is
//! not charged for what background threads (the registry journal's
//! flusher) allocate meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (allocs and reallocs) made by this thread.
    /// Const-initialised and without a destructor, so reading it never
    /// allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to [`System`] and counts every allocation and reallocation.
pub struct CountingAllocator;

// SAFETY: every method forwards the exact (ptr, layout, new_size)
// contract to `System`, a correct `GlobalAlloc`; the only addition is
// a thread-local counter bump, which cannot break allocator
// invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` comes verbatim from our caller, who upholds
        // `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` (every allocating path
        // above forwards to it) with this exact `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` describe a live `System`
        // allocation and `new_size` is our caller's responsibility per
        // `GlobalAlloc::realloc`; all three are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations this thread has made so far; take the difference
/// across a measured call.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

//! The counting global allocator shared by the allocation tests
//! (`zero_alloc.rs`, `scan_allocs.rs`): each test binary that declares
//! `mod counting_alloc;` routes every heap allocation of its process
//! through [`CountingAllocator`], which bumps [`ALLOCATIONS`].

// The workspace denies `unsafe_code`, and rightly so — but a
// `GlobalAlloc` impl is unavoidably unsafe. This module is the one
// sanctioned exception; every unsafe block carries its SAFETY
// argument.
#![allow(unsafe_code)]
#![warn(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations observed process-wide (allocs and growing
/// reallocs; frees are irrelevant to the claim).
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards the exact same (ptr, layout,
// new_size) contract to `System`, which is a correct `GlobalAlloc`;
// the only addition is a relaxed counter bump, which cannot violate
// allocator invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded verbatim from our caller, who
        // upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` (every alloc path
        // above forwards to it) with this exact `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: contract forwarded verbatim; `ptr`/`layout` describe
        // a live `System` allocation and `new_size` is our caller's
        // responsibility per `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

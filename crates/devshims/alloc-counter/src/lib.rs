#![deny(unsafe_op_in_unsafe_fn)] // lint:allow(forbid-unsafe): GlobalAlloc is an unsafe trait
//! Per-thread allocation counting for the workspace's `no_alloc` tests.
//!
//! Those tests pin hot paths (onion wrap/peel, ChaCha20, in-place AEAD,
//! sealing, disabled obs call sites) as allocation-free. Each test
//! binary installs [`CountingAlloc`] as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;
//! ```
//!
//! and measures a closure with [`allocations_in`]. The count is kept
//! per thread: the test harness runs tests on parallel threads, and a
//! process-global counter would let one test's (legitimate) warm-up
//! allocations land inside another test's measurement window.
//!
//! This is the workspace's one home for the allocator shim, so its
//! reasoned `forbid-unsafe` suppressions live in one place. It is also
//! the one crate root without `#![forbid(unsafe_code)]`: a global
//! allocator is an `unsafe impl`, so the root denies unsafe operations
//! outside explicit `unsafe {}` blocks instead, and the only such
//! blocks are the two pass-throughs to [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. `Cell<usize>` needs no drop
    /// glue, so the TLS access itself never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// A global allocator that delegates to [`System`] and counts every
/// allocation (reallocations included, via the trait's default
/// `realloc`) on the allocating thread.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` that never allocates, so counting cannot
// re-enter the allocator.
// lint:allow(forbid-unsafe): GlobalAlloc is an unsafe trait; this counting shim only delegates to System
unsafe impl GlobalAlloc for CountingAlloc {
    // lint:allow(forbid-unsafe): signature dictated by the GlobalAlloc contract
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) } // lint:allow(forbid-unsafe): direct pass-through to the System allocator
    }
    // lint:allow(forbid-unsafe): signature dictated by the GlobalAlloc contract
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) } // lint:allow(forbid-unsafe): direct pass-through to the System allocator
    }
}

fn count() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns how many heap allocations this thread performed
/// while it ran.
///
/// # Panics
///
/// If the calling binary has not installed [`CountingAlloc`] as its
/// global allocator — every count would read zero, and an
/// allocation-freedom assertion would pass vacuously.
pub fn allocations_in(f: impl FnOnce()) -> usize {
    let before = count();
    drop(std::hint::black_box(Box::new(0u8)));
    assert!(
        count() > before,
        "alloc_counter::CountingAlloc is not this binary's #[global_allocator]"
    );
    let before = count();
    f();
    count() - before
}

//! Dev-only support: the one counting `#[global_allocator]` behind every
//! "this path performs N heap allocations" test in the workspace (the
//! pipeline benchmark keeps its own copy — it must build from outside
//! the workspace).
//!
//! Linking this crate **installs** the allocator: a test that calls
//! [`allocs`] / [`allocs_during`] cannot forget to, and so cannot pass a
//! "zero allocations" assertion vacuously.
//!
//! The count is process-wide — one relaxed `fetch_add` per allocation.
//! A test binary that counts therefore holds a **single** `#[test]`:
//! libtest runs tests on parallel threads, and a second one would pollute
//! the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the added atomic counter has no effect on layout or pointer
// validity.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) the process has
/// made so far. Relaxed: a thread reading before and after its own work
/// sees its own allocations in program order.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap allocations made while `f` runs (by any thread).
pub fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_reallocations() {
        assert_eq!(allocs_during(|| {}), 0);
        assert_eq!(allocs_during(|| drop(std::hint::black_box(Box::new(7u64)))), 1);
        let mut v: Vec<u8> = Vec::with_capacity(4);
        assert_eq!(allocs_during(|| v.extend_from_slice(&[0; 64])), 1, "a realloc counts");
        assert_eq!(allocs_during(|| drop(v)), 0, "a free does not");
    }
}

//! A counting global allocator for tests that turn "allocates nothing" or
//! "never allocates more than N bytes" into exact numbers. Shared by
//! `crates/sim/tests/snap_alloc.rs` and the root `tests/checkpoint_codec.rs`
//! (included by path; one per test binary, since it installs itself as
//! the `#[global_allocator]`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (fresh or growing) made by this thread. Per thread, so
    /// tests running beside each other do not count one another's.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// The largest single allocation (or reallocation target) this thread
    /// made since the last reset, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone; those allocations are nobody's to count.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are `const`-initialised
// `Cell`s without destructors, so touching them neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What this thread allocated while a closure ran.
#[derive(Debug, Clone, Copy)]
pub struct Allocs {
    /// Allocations and reallocations.
    pub count: usize,
    /// The largest of them, in bytes.
    pub largest: usize,
}

/// Runs `f`, returning its result and what this thread allocated meanwhile.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    let before = ALLOCS.with(Cell::get);
    LARGEST.with(|n| n.set(0));
    let out = f();
    let count = ALLOCS.with(Cell::get) - before;
    (out, Allocs { count, largest: LARGEST.with(Cell::get) })
}

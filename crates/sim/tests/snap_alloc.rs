//! What a snapshot field costs, as an exact count: the writer and reader
//! resolve a section's name once per scope, so primitive writes and reads
//! inside a scope allocate nothing beyond the section buffer's own
//! growth. A counting global allocator makes that a number instead of a
//! timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smappic_sim::{SnapReader, SnapWriter, Snapshot};

thread_local! {
    /// Allocations (fresh or growing) made by this thread. Per thread, so
    /// tests running beside each other do not count one another's.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note() {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone; those allocations are nobody's to count.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// `Cell` without a destructor, so touching it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const FIELDS: u64 = 10_000;

#[test]
fn ten_thousand_writes_in_one_scope_allocate_only_buffer_growth() {
    let mut w = SnapWriter::new();
    let mut inside = 0;
    w.scoped("fpga0.node0.tile0.bpc", |w| {
        inside = allocations(|| {
            for i in 0..FIELDS {
                w.u64(i);
            }
        });
    });
    // 80,000 bytes of doubling growth is 15 reallocations; a writer that
    // names its section per field makes at least one per write.
    assert!(inside <= 32, "{inside} allocations for {FIELDS} u64 writes");
    let snap = Snapshot::new(0, 0, w);
    assert_eq!(snap.payload_bytes() as u64, 8 * FIELDS);
}

#[test]
fn ten_thousand_reads_in_one_scope_allocate_nothing() {
    let mut w = SnapWriter::new();
    w.scoped("fpga0.node0.tile0.bpc", |w| {
        for i in 0..FIELDS {
            w.u64(i);
        }
        w.bytes(&[7; 4096]);
    });
    let snap = Snapshot::new(0, 0, w);
    let mut r = SnapReader::new(&snap);
    let (mut inside, mut sum) = (0, 0);
    r.scoped("fpga0.node0.tile0.bpc", |r| {
        inside = allocations(|| {
            for _ in 0..FIELDS {
                sum += r.u64();
            }
            sum += r.byte_slice().len() as u64;
        });
    });
    r.finish().expect("clean restore");
    assert_eq!(sum, FIELDS * (FIELDS - 1) / 2 + 4096);
    assert_eq!(inside, 0, "{inside} allocations for {FIELDS} u64 reads");
}

#[test]
fn opening_scopes_costs_a_bounded_number_of_allocations_each() {
    const SCOPES: usize = 100;
    let names: Vec<String> = (0..SCOPES).map(|i| format!("tile{i}")).collect();
    let mut w = SnapWriter::new();
    let writing = allocations(|| {
        w.scoped("fpga0", |w| {
            for name in &names {
                w.scoped(name, |w| w.u64(1));
            }
        });
    });
    // Per new section: its name twice (section list and name index) and
    // an 8-byte buffer; the two tables themselves grow geometrically.
    assert!(writing <= 4 * SCOPES, "{writing} allocations to write {SCOPES} scopes");

    let snap = Snapshot::new(0, 0, w);
    let mut r = SnapReader::new(&snap);
    let reading = allocations(|| {
        r.scoped("fpga0", |r| {
            for name in &names {
                r.scoped(name, |r| assert_eq!(r.u64(), 1));
            }
        });
    });
    r.finish().expect("clean restore");
    // The reader borrows names and bytes from the snapshot: opening a
    // scope only extends the path string in place.
    assert!(reading <= 8, "{reading} allocations to read {SCOPES} scopes");
}

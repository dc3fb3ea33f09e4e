//! What a snapshot field costs, as an exact count: the writer and reader
//! resolve a section's name once per scope, so primitive writes and reads
//! inside a scope allocate nothing beyond the section buffer's own
//! growth, and a collection whose count lies preallocates a bounded amount.
//! A counting global allocator makes that a number instead of a timing.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::collections::BTreeMap;

use counting_alloc::Allocs;
use smappic_sim::{Pack, SnapError, SnapReader, SnapWriter, Snapshot};

/// Allocations this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> usize {
    counting_alloc::measured(f).1.count
}

const FIELDS: u64 = 10_000;

#[test]
fn ten_thousand_writes_in_one_scope_allocate_only_buffer_growth() {
    let mut w = SnapWriter::new();
    let mut inside = None;
    w.scoped("fpga0.node0.tile0.bpc", |w| {
        inside = Some(counting_alloc::measured(|| {
            for i in 0..FIELDS {
                w.u64(i);
            }
        }));
    });
    let ((), inside) = inside.expect("the scope ran");
    // 80,000 bytes of doubling growth is 15 reallocations; a writer that
    // names its section per field makes at least one per write.
    assert!(inside.count <= 32, "{} allocations for {FIELDS} u64 writes", inside.count);
    // And the largest is the section buffer, at most twice what it holds.
    assert!(inside.largest <= 2 * 8 * FIELDS as usize, "{} bytes at once", inside.largest);
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

/// A section whose count declares 2^40 items but whose bytes hold 16.
fn hostile_section(payload: [u64; 2]) -> Snapshot {
    let mut w = SnapWriter::new();
    w.scoped("hostile", |w| {
        w.usize(1 << 40);
        for v in payload {
            w.u64(v);
        }
    });
    Snapshot::new(0, 0, w)
}

/// Decodes `T` from [`hostile_section`], returning it, the reader's verdict
/// and what decoding allocated.
fn decode_hostile<T: Pack>(payload: [u64; 2]) -> (T, Result<(), SnapError>, Allocs) {
    let snap = hostile_section(payload);
    let mut r = SnapReader::new(&snap);
    let mut decoded = None;
    r.scoped("hostile", |r| decoded = Some(counting_alloc::measured(|| T::unpack(r))));
    let (value, allocs) = decoded.expect("the scope ran");
    (value, r.finish(), allocs)
}

#[test]
fn a_map_declaring_a_trillion_entries_reads_what_is_there_and_fails_within_a_mebibyte() {
    let (map, verdict, allocs) = decode_hostile::<BTreeMap<u64, u64>>([7, 70]);
    assert_eq!(map.get(&7), Some(&70), "the one entry the section holds is read");
    assert_eq!(verdict, Err(SnapError::Truncated("hostile".into())));
    assert!(allocs.largest <= 1 << 20, "{} bytes at once", allocs.largest);
}

#[test]
#[allow(clippy::disallowed_types)] // the decoder under test
fn a_deque_declaring_a_trillion_items_reads_what_is_there_and_fails_within_a_mebibyte() {
    let (deque, verdict, allocs) = decode_hostile::<std::collections::VecDeque<u64>>([1, 2]);
    assert_eq!(deque.iter().take(2).copied().collect::<Vec<_>>(), [1, 2]);
    assert_eq!(verdict, Err(SnapError::Truncated("hostile".into())));
    assert!(allocs.largest <= 1 << 20, "{} bytes at once", allocs.largest);
}

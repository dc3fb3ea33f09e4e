//! Property tests for the sparse copy-on-write DRAM store: random
//! read/write/snapshot sequences checked against a byte-map reference
//! model, resident-page proportionality, and COW isolation.

use std::collections::{HashMap, HashSet};

use smappic_mem::{Dram, DramConfig, PAGE_SIZE};
use smappic_sim::{SaveState, SimRng, SnapReader, SnapWriter, Snapshot};

/// Guest window the random traffic lands in (64 pages above a base that is
/// not page 0, so address/page-index arithmetic is exercised off-origin).
const BASE: u64 = 0x4000_0000;
const SPAN: u64 = 64 * PAGE_SIZE as u64;

fn sparse(capacity: u64) -> Dram {
    Dram::new(DramConfig { capacity, ..Default::default() })
}

/// One random backdoor op applied identically to the store and its model.
enum Op {
    Write { addr: u64, data: Vec<u8> },
    Read { addr: u64, len: usize },
}

fn random_ops(rng: &mut SimRng, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let addr = BASE + rng.gen_range(SPAN - 512);
            if rng.chance(0.6) {
                let len = 1 + rng.gen_range(300) as usize;
                let data: Vec<u8> = if rng.chance(0.25) {
                    vec![0; len] // all-zero writes exercise elision
                } else {
                    (0..len).map(|_| rng.gen_range(256) as u8).collect()
                };
                Op::Write { addr, data }
            } else {
                Op::Read { addr, len: 1 + rng.gen_range(400) as usize }
            }
        })
        .collect()
}

/// A trivially-correct byte map the real store is differenced against.
#[derive(Default)]
struct Model {
    bytes: HashMap<u64, u8>,
}

impl Model {
    fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.bytes.insert(addr + i as u64, b);
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| *self.bytes.get(&(addr + i as u64)).unwrap_or(&0)).collect()
    }
}

#[test]
fn sparse_store_matches_the_reference_model() {
    for seed in 0..4u64 {
        let mut rng = SimRng::new(0xD1A0 + seed);
        let mut model = Model::default();
        let mut s = sparse(BASE + SPAN);
        for op in random_ops(&mut rng, 400) {
            match op {
                Op::Write { addr, data } => {
                    model.write(addr, &data);
                    s.write_bytes(addr, &data);
                }
                Op::Read { addr, len } => {
                    let want = model.read(addr, len);
                    assert_eq!(s.read_bytes(addr, len), want, "sparse diverged (seed {seed})");
                }
            }
        }
        // Full-window sweep at the end.
        for page in 0..SPAN / PAGE_SIZE as u64 {
            let addr = BASE + page * PAGE_SIZE as u64;
            assert_eq!(
                s.read_bytes(addr, PAGE_SIZE),
                model.read(addr, PAGE_SIZE),
                "page {page} differs from the model (seed {seed})"
            );
        }
    }
}

#[test]
fn resident_pages_track_touched_pages_exactly() {
    let mut rng = SimRng::new(77);
    let mut d = sparse(BASE + SPAN);
    let mut touched = HashSet::new();
    for _ in 0..300 {
        let addr = BASE + rng.gen_range(SPAN - 8);
        if rng.chance(0.3) {
            // Zero writes to untouched pages must not allocate.
            d.write_bytes(addr, &[0; 8]);
        } else {
            d.write_bytes(addr, &[1 + rng.gen_range(255) as u8; 8]);
            touched.insert(addr >> 12);
            if (addr + 7) >> 12 != addr >> 12 {
                touched.insert((addr + 7) >> 12);
            }
        }
    }
    assert!(
        d.resident_pages() <= touched.len(),
        "resident ({}) exceeds nonzero-touched pages ({})",
        d.resident_pages(),
        touched.len()
    );
    assert_eq!(d.resident_pages(), touched.len(), "every nonzero-touched page must be resident");
    // Reading never materializes pages.
    let before = d.resident_pages();
    let _ = d.read_bytes(BASE, SPAN as usize);
    assert_eq!(d.resident_pages(), before);
}

#[test]
fn cow_shared_pages_isolate_writers() {
    let mut origin = sparse(BASE + SPAN);
    let image: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    origin.write_bytes(BASE, &image);

    // Broadcast the image to two siblings: O(1) per page, no byte copies.
    let shared = origin.share_resident_pages();
    assert_eq!(shared.len(), 3);
    let mut a = sparse(BASE + SPAN);
    let mut b = sparse(BASE + SPAN);
    for (idx, page) in &shared {
        a.install_page(*idx, page);
        b.install_page(*idx, page);
    }
    assert_eq!(a.read_bytes(BASE, image.len()), image);
    assert_eq!(b.read_bytes(BASE, image.len()), image);

    // A write through one sibling copies only its own view.
    a.write_bytes(BASE + 100, &[0xEE; 8]);
    assert_eq!(a.read_bytes(BASE + 100, 8), vec![0xEE; 8]);
    assert_eq!(b.read_bytes(BASE + 100, 8), image[100..108].to_vec());
    assert_eq!(origin.read_bytes(BASE + 100, 8), image[100..108].to_vec());
}

fn snapshot_of(d: &Dram) -> Snapshot {
    let mut w = SnapWriter::new();
    w.scoped("dram", |w| d.save(w));
    Snapshot::new(0, 0, w)
}

fn restore_into(d: &mut Dram, snap: &Snapshot) {
    let mut r = SnapReader::new(snap);
    r.scoped("dram", |r| d.restore(r));
    r.finish().expect("clean restore");
}

#[test]
fn random_snapshots_round_trip_byte_exact() {
    for seed in 0..4u64 {
        let mut rng = SimRng::new(0x5A9 + seed);
        let mut d = sparse(BASE + SPAN);
        for op in random_ops(&mut rng, 250) {
            if let Op::Write { addr, data } = op {
                d.write_bytes(addr, &data);
            }
        }
        // Also park an all-zero resident page: write nonzero, then zero it
        // back. Save must skip it so save→restore→save is a fixed point.
        d.write_bytes(BASE + 5 * PAGE_SIZE as u64, &[9; 16]);
        d.write_bytes(BASE + 5 * PAGE_SIZE as u64, &[0; 16]);

        let snap = snapshot_of(&d);
        let mut restored = sparse(BASE + SPAN);
        restore_into(&mut restored, &snap);
        assert_eq!(
            restored.read_bytes(BASE, SPAN as usize),
            d.read_bytes(BASE, SPAN as usize),
            "contents diverged (seed {seed})"
        );
        let again = snapshot_of(&restored);
        assert_eq!(snap.sections(), again.sections(), "not a byte fixed point (seed {seed})");
    }
}

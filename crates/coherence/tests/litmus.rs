//! Coherence litmus suite: classic memory-model patterns (MP, SB, LB) run
//! end to end through [`TraceCore`] engines on whole platforms, plus MESI
//! directory invariants probed at quiescence.
//!
//! The simulated cores issue *blocking* stores (`StoreVal` waits for global
//! visibility), so the architecture is sequentially consistent: the
//! forbidden outcome of each litmus pattern must never appear, on one FPGA
//! or across the PCIe boundary.

use smappic_core::{Config, Platform, DRAM_BASE};
use smappic_noc::line_of;
use smappic_tile::{TraceCore, TraceOp};

/// The checksum fold constant of [`TraceCore`]; a program whose only
/// `Checksum` op observed `v` reports `v * K` (wrapping).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

const BUDGET: u64 = 2_000_000;

fn platform(fpgas: usize, nodes: usize, tiles: usize) -> Platform {
    Platform::new(Config::new(fpgas, nodes, tiles))
}

/// Installs a trace program on global tile `g`.
fn install(p: &mut Platform, g: usize, ops: Vec<TraceOp>) {
    let tiles = p.config().tiles_per_node;
    p.set_engine(g / tiles, (g % tiles) as u16, Box::new(TraceCore::new(format!("t{g}"), ops)));
}

/// The trace core on global tile `g`.
fn core(p: &Platform, g: usize) -> &TraceCore {
    let tiles = p.config().tiles_per_node;
    p.node(g / tiles)
        .tile((g % tiles) as u16)
        .engine()
        .as_any()
        .downcast_ref::<TraceCore>()
        .expect("trace core installed")
}

/// Asserts the MESI single-writer invariant for `addr` across every
/// private cache, and that no LLC slice is stuck mid-transaction.
fn assert_mesi_invariants(p: &Platform, addrs: &[u64]) {
    let cfg = p.config();
    for &addr in addrs {
        let line = line_of(addr);
        let mut exclusive = 0usize;
        let mut shared = 0usize;
        for g in 0..cfg.total_nodes() {
            let n = p.node(g);
            for t in 0..n.tile_count() {
                match n.tile(t as u16).bpc().line_state(line) {
                    Some('E') | Some('M') => exclusive += 1,
                    Some('S') => shared += 1,
                    Some(other) => panic!("unexpected line state {other:?}"),
                    None => {}
                }
            }
        }
        assert!(exclusive <= 1, "line {line:#x}: {exclusive} caches claim E/M (single-writer)");
        assert!(
            exclusive == 0 || shared == 0,
            "line {line:#x}: E/M holder coexists with {shared} S copies"
        );
    }
    for g in 0..cfg.total_nodes() {
        let n = p.node(g);
        for t in 0..n.tile_count() {
            let stuck = n.tile(t as u16).llc().transient_lines();
            assert!(stuck.is_empty(), "LLC slice {g}.{t} stuck in transients: {stuck:?}");
        }
    }
}

/// Message passing: the writer publishes data then raises a flag; a reader
/// that observes the flag must observe the data (no stale read after the
/// invalidation round that the flag store forces).
fn mp(p: &mut Platform, writer: usize, reader: usize) {
    let data = DRAM_BASE + 0x1_0000;
    let flag = DRAM_BASE + 0x2_0000;
    let rdy = DRAM_BASE + 0x8_0000;
    // The reader caches the stale data line first (via the checksum load)
    // and only then releases the writer, so the writer's store must
    // invalidate or recall the reader's copy.
    install(
        p,
        reader,
        vec![
            TraceOp::Checksum(data),
            TraceOp::StoreVal(rdy, 1),
            TraceOp::SpinUntilEq(flag, 1),
            TraceOp::Checksum(data),
        ],
    );
    install(
        p,
        writer,
        vec![TraceOp::SpinUntilEq(rdy, 1), TraceOp::StoreVal(data, 42), TraceOp::StoreVal(flag, 1)],
    );
    let spent = p.run_preemptible(BUDGET);
    assert!(spent < BUDGET && p.is_idle(), "MP did not quiesce within {BUDGET} cycles");
    let r = core(p, reader);
    assert_eq!(r.last_load(), 42, "reader saw the flag but stale data");
    // Fold of the two checksummed observations: 0 (stale) then 42.
    assert_eq!(r.checksum(), 42u64.wrapping_mul(K), "checksum must fold (0, then 42)");
    assert_mesi_invariants(p, &[data, flag]);
    assert!(
        p.stats().get("bpc.invalidated") + p.stats().get("bpc.recalled") > 0,
        "publishing over a cached stale copy must invalidate or recall it"
    );
}

#[test]
fn mp_message_passing_single_fpga() {
    let mut p = platform(1, 1, 2);
    mp(&mut p, 0, 1);
}

#[test]
fn mp_message_passing_four_tiles() {
    let mut p = platform(1, 1, 4);
    // Bystander tiles also cache the data line, widening the
    // invalidation fanout.
    let data = DRAM_BASE + 0x1_0000;
    for g in [1, 2] {
        install(&mut p, g, vec![TraceOp::Checksum(data), TraceOp::Compute(50)]);
    }
    mp(&mut p, 0, 3);
}

#[test]
fn mp_message_passing_across_two_fpgas() {
    // Writer on FPGA 0, reader on FPGA 1: the invalidation and the flag
    // propagate over the PCIe fabric — the same simulation under the
    // epoch driver and the per-cycle reference.
    let (mut driven, mut reference) = (platform(2, 1, 2), platform(2, 1, 2));
    reference.set_fast_path(false);
    mp(&mut driven, 0, 2);
    mp(&mut reference, 0, 2);
    assert_eq!(driven.now(), reference.now(), "steppers stopped at different cycles");
    assert_eq!(driven.stats().to_string(), reference.stats().to_string());
    assert_eq!(driven.snapshot().first_divergence(&reference.snapshot()), None);
}

#[test]
fn sb_store_buffering_forbidden_outcome() {
    // SB: t0: x=1; read y.   t1: y=1; read x.   Forbidden: both read 0.
    let x = DRAM_BASE + 0x3_0000;
    let y = DRAM_BASE + 0x4_0000;
    for (fpgas, nodes) in [(1, 1), (2, 1)] {
        let mut p = platform(fpgas, nodes, 2);
        let t1 = if fpgas == 2 { 2 } else { 1 };
        install(&mut p, 0, vec![TraceOp::StoreVal(x, 1), TraceOp::Checksum(y)]);
        install(&mut p, t1, vec![TraceOp::StoreVal(y, 1), TraceOp::Checksum(x)]);
        assert!(p.run_until_idle(BUDGET), "SB did not quiesce");
        let (a, b) = (core(&p, 0).last_load(), core(&p, t1).last_load());
        assert!(!(a == 0 && b == 0), "SB forbidden outcome: both readers saw 0 (fpgas={fpgas})");
        assert_mesi_invariants(&p, &[x, y]);
    }
}

#[test]
fn lb_load_buffering_forbidden_outcome() {
    // LB: t0: read y; x=1.   t1: read x; y=1.   Forbidden: both read 1.
    let x = DRAM_BASE + 0x5_0000;
    let y = DRAM_BASE + 0x6_0000;
    for (fpgas, nodes) in [(1, 1), (2, 1)] {
        let mut p = platform(fpgas, nodes, 2);
        let t1 = if fpgas == 2 { 2 } else { 1 };
        install(&mut p, 0, vec![TraceOp::Checksum(y), TraceOp::StoreVal(x, 1)]);
        install(&mut p, t1, vec![TraceOp::Checksum(x), TraceOp::StoreVal(y, 1)]);
        assert!(p.run_until_idle(BUDGET), "LB did not quiesce");
        let (a, b) = (core(&p, 0).last_load(), core(&p, t1).last_load());
        assert!(
            !(a == 1 && b == 1),
            "LB forbidden outcome: both loads observed the other's store (fpgas={fpgas})"
        );
        assert_mesi_invariants(&p, &[x, y]);
    }
}

#[test]
fn amo_contention_keeps_single_writer() {
    // Four tiles hammer one counter line with atomics while loading it;
    // the directory must never let two caches hold it writable.
    let counter = DRAM_BASE + 0x7_0000;
    let mut p = platform(1, 1, 4);
    for g in 0..4 {
        let mut ops = Vec::new();
        for _ in 0..32 {
            ops.push(TraceOp::AmoAdd(counter, 1));
            ops.push(TraceOp::Checksum(counter));
        }
        install(&mut p, g, ops);
    }
    assert!(p.run_until_idle(BUDGET), "AMO contention did not quiesce");
    assert_mesi_invariants(&p, &[counter]);
    // Every core's final checksummed read is at least its own contribution
    // and at most the global total.
    for g in 0..4 {
        let v = core(&p, g).last_load();
        assert!((32..=128).contains(&v), "tile {g} read {v}, outside [32, 128]");
    }
}

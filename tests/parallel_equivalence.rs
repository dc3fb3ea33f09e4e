//! Differential tests: the epoch-parallel stepper must be bit-identical to
//! the serial reference — same cycle count, same statistics, same memory,
//! same console bytes — on multi-FPGA prototypes.

use smappic::platform::{Config, Platform, DRAM_BASE};
use smappic::sim::SimRng;
use smappic::tile::{TraceCore, TraceOp};

/// Builds one instance of a cross-FPGA contention workload: every tile
/// hammers one shared counter (homed on node 0) with atomic increments,
/// interleaved with private traffic, then checks in on a done-counter.
/// Construction is deterministic, so two calls produce identical twins.
fn contention_platform(fpgas: usize, tiles: usize, incs: u64, seed: u64) -> Platform {
    let cfg = Config::new(fpgas, 1, tiles);
    let total = cfg.total_tiles();
    let counter = DRAM_BASE + 0x9000;
    let done_ctr = DRAM_BASE + 0x9040;
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(seed);
    for g in 0..total {
        let (node, tile) = (g / tiles, (g % tiles) as u16);
        let mut ops = Vec::new();
        let private = DRAM_BASE + 0x20_0000 + g as u64 * 4096;
        for i in 0..incs {
            if rng.chance(0.4) {
                ops.push(TraceOp::Compute(rng.gen_range(30) + 1));
            }
            ops.push(TraceOp::AmoAdd(counter, 1));
            if rng.chance(0.3) {
                ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g as u64 ^ i));
            }
        }
        ops.push(TraceOp::AmoAdd(done_ctr, 1));
        if g == 0 {
            ops.push(TraceOp::SpinUntilGe(done_ctr, total as u64));
            ops.push(TraceOp::Load(counter));
        }
        p.set_engine(node, tile, Box::new(TraceCore::new(format!("c{g}"), ops)));
    }
    p
}

/// Deep observable snapshot: simulated time, all counters, and the shared
/// counter's memory cell.
fn snapshot(p: &Platform) -> (u64, String, Vec<u8>) {
    (p.now(), p.stats().to_string(), p.read_mem(DRAM_BASE + 0x9000, 8))
}

fn assert_equivalent(serial: &Platform, parallel: &Platform, label: &str) {
    let (sn, ss, sm) = snapshot(serial);
    let (pn, ps, pm) = snapshot(parallel);
    assert_eq!(sn, pn, "{label}: cycle counts diverged");
    assert_eq!(ss, ps, "{label}: statistics diverged");
    assert_eq!(sm, pm, "{label}: memory diverged");
    // The full metrics registry — counters *and* latency histograms — must
    // be bit-identical once host-side stepper diagnostics are stripped.
    let (sa, pa) = (serial.metrics().architectural(), parallel.metrics().architectural());
    assert_eq!(sa, pa, "{label}: architectural metrics diverged");
    assert_eq!(sa.snapshot_text(), pa.snapshot_text(), "{label}: metrics snapshots diverged");
}

#[test]
fn two_fpga_run_matches_serial_reference() {
    let cycles = 150_000;
    let mut serial = contention_platform(2, 2, 12, 0xD1FF);
    let mut parallel = contention_platform(2, 2, 12, 0xD1FF);
    serial.run(cycles);
    parallel.run_parallel(cycles);
    assert_equivalent(&serial, &parallel, "2-FPGA");
    // The workload must actually have crossed the fabric, or this test
    // proves nothing.
    assert!(serial.stats().get("shell.out_req") > 0, "no cross-FPGA traffic exercised");
}

#[test]
fn four_fpga_run_matches_serial_reference() {
    let cycles = 200_000;
    let mut serial = contention_platform(4, 1, 8, 0x4F4F);
    let mut parallel = contention_platform(4, 1, 8, 0x4F4F);
    serial.run(cycles);
    parallel.run_parallel(cycles);
    assert_equivalent(&serial, &parallel, "4-FPGA");
    assert!(serial.stats().get("shell.out_req") > 0, "no cross-FPGA traffic exercised");
}

#[test]
fn one_epoch_parallel_runs_tile_a_serial_run() {
    let mut serial = contention_platform(2, 1, 6, 0x57E9);
    let mut parallel = contention_platform(2, 1, 6, 0x57E9);
    let l = parallel.lookahead();
    assert!(l > 0, "multi-FPGA platforms must expose PCIe lookahead");
    // One drive (and one set of worker threads) per epoch.
    for _ in 0..40 {
        parallel.run_parallel(l);
    }
    assert_eq!(parallel.now(), 40 * l);
    serial.run(40 * l);
    assert_equivalent(&serial, &parallel, "one-epoch parallel runs");
}

#[test]
fn parallel_handles_epoch_tails_and_odd_cycle_counts() {
    // A run length that is not a multiple of the lookahead exercises the
    // short trailing epoch.
    let mut serial = contention_platform(2, 2, 5, 0x7A11);
    let mut parallel = contention_platform(2, 2, 5, 0x7A11);
    let cycles = 10 * parallel.lookahead() + 17;
    serial.run(cycles);
    parallel.run_parallel(cycles);
    assert_equivalent(&serial, &parallel, "odd tail");
}

#[test]
fn preemptible_parallel_quiesces_where_preemptible_serial_does() {
    const BUDGET: u64 = 5_000_000;
    let mut exact = contention_platform(2, 2, 8, 0x1D1E);
    let mut serial = contention_platform(2, 2, 8, 0x1D1E);
    let mut parallel = contention_platform(2, 2, 8, 0x1D1E);
    let spent = serial.run_preemptible(BUDGET, false);
    assert_eq!(spent, parallel.run_preemptible(BUDGET, true), "executors spent differently");
    assert!(serial.is_idle() && parallel.is_idle(), "both executors must reach quiescence");
    assert_equivalent(&serial, &parallel, "preemptible until idle");
    assert_eq!(serial.snapshot().first_divergence(&parallel.snapshot()), None);
    // The stop is the first grain boundary at or after the exact
    // quiescent cycle, which the per-cycle idle loop finds.
    assert!(exact.run_until_idle(BUDGET), "workload hung");
    assert_eq!(spent, exact.now().next_multiple_of(exact.preemption_grain()));
}

#[test]
fn run_until_idle_stops_at_the_exact_quiescent_cycle() {
    // The fixed run_until_idle must not overshoot: stepping a twin
    // platform cycle-by-cycle and checking idleness every cycle has to
    // arrive at the same `now`.
    let mut warped = contention_platform(2, 1, 6, 0xC1C1);
    let mut stepped = contention_platform(2, 1, 6, 0xC1C1);
    assert!(warped.run_until_idle(5_000_000), "workload hung");
    let mut budget = 5_000_000u64;
    while !stepped.is_idle() && budget > 0 {
        stepped.step();
        budget -= 1;
    }
    assert!(stepped.is_idle(), "reference loop hung");
    assert_eq!(warped.now(), stepped.now(), "idle warp changed the quiescence cycle");
    assert_eq!(warped.stats().to_string(), stepped.stats().to_string());
}

#[test]
fn idle_ticks_are_observable_noops() {
    // The idle-warp's precondition: once quiescent, extra ticks change no
    // counter and wake nothing (mtime aging is compensated separately).
    let mut p = contention_platform(2, 1, 4, 0x1D7E);
    assert!(p.run_until_idle(5_000_000), "workload hung");
    let before = p.stats().to_string();
    p.run(5_000);
    assert!(p.is_idle(), "an idle platform must stay idle");
    assert_eq!(p.stats().to_string(), before, "idle ticks mutated counters");
}

#[test]
fn metrics_histograms_are_populated_and_host_lane_is_stepper_specific() {
    let mut serial = contention_platform(2, 2, 8, 0x3E7A);
    let mut parallel = contention_platform(2, 2, 8, 0x3E7A);
    serial.run(120_000);
    parallel.run_parallel(120_000);

    // The architectural equality above must not be vacuous: the cross-FPGA
    // workload has to populate the latency histograms.
    let m = serial.metrics();
    for name in ["pcie.rtt", "bpc.miss_latency", "llc.miss_latency", "dram.latency", "noc.hops"] {
        let h = m.histogram(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(h.count() > 0, "{name} recorded no samples");
    }

    // The epoch-width histogram is a host-side diagnostic: populated by
    // both epoch drivers (the fast serial path epoch-steps multi-FPGA
    // prototypes too), absent in reference mode, and always stripped by
    // `architectural()`.
    let mut reference = contention_platform(2, 2, 8, 0x3E7A);
    reference.set_fast_path(false);
    reference.run(120_000);
    assert_eq!(reference.metrics().histogram("host.epoch_width").map_or(0, |h| h.count()), 0);
    let sw = serial.metrics().histogram("host.epoch_width").map_or(0, |h| h.count());
    assert!(sw > 0, "fast serial run must epoch-step a multi-FPGA prototype");
    let pw = parallel.metrics().histogram("host.epoch_width").map_or(0, |h| h.count());
    assert!(pw > 0, "parallel stepper must record epoch widths");
    assert!(parallel.metrics().architectural().histogram("host.epoch_width").is_none());
    assert_eq!(serial.metrics().architectural(), parallel.metrics().architectural());
    assert_eq!(serial.metrics().architectural(), reference.metrics().architectural());
    assert_eq!(serial.stats().to_string(), reference.stats().to_string());
}

#[test]
fn link_index_table_covers_the_four_fpga_full_mesh() {
    let p = Platform::new(Config::new(4, 1, 1));
    // Lexicographic link enumeration: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
    let expected = [((0, 1), 0), ((0, 2), 1), ((0, 3), 2), ((1, 2), 3), ((1, 3), 4), ((2, 3), 5)];
    for ((a, b), li) in expected {
        assert_eq!(p.link_index(a, b), Some(li), "({a},{b})");
        assert_eq!(p.link_index(b, a), Some(li), "table must be symmetric ({b},{a})");
    }
    for f in 0..4 {
        assert_eq!(p.link_index(f, f), None, "no self-links");
    }
    assert_eq!(p.link_index(0, 4), None, "out of range");
    assert_eq!(p.link_index(9, 1), None, "out of range");
}

#[test]
fn parallel_is_a_noop_fallback_on_single_fpga() {
    let mut serial = contention_platform(1, 2, 6, 0x0F0F);
    let mut parallel = contention_platform(1, 2, 6, 0x0F0F);
    assert_eq!(parallel.lookahead(), 0);
    serial.run(50_000);
    parallel.run_parallel(50_000);
    assert_equivalent(&serial, &parallel, "1-FPGA fallback");
}

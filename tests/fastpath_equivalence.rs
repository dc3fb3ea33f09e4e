//! Differential tests for the host fast path (decoded basic-block ISS +
//! per-component event scheduling): every run here is executed twice, once
//! with the fast path on and once in reference mode (decode every
//! instruction, tick every component every cycle), and the two must be
//! bit-identical — same cycle count, statistics, architectural metrics,
//! and architectural snapshot sections.
//!
//! The programs target exactly the places where a decoded-block cache can
//! go wrong: self-modifying stores into a hot block (with and without
//! `fence.i`), a block straddling a page boundary, MMIO reads inside a
//! replayed block, and exceptions raised mid-block.

use smappic::platform::{Config, Platform, DRAM_BASE};
use smappic::tile::{ArianeConfig, ArianeCore, TraceCore, TraceOp};

/// CLINT mtime register: `CLINT_BASE` (0x6100_0000) + 0xBFF8.
const MTIME: u64 = 0x6100_BFF8;

/// Builds a single-tile platform running `src` on an Ariane core.
fn ariane_platform(src: &str) -> Platform {
    let mut p = Platform::new(Config::new(1, 1, 1));
    let base = DRAM_BASE + 0x1_0000;
    let img = smappic::isa::assemble(src, base).expect("test kernel assembles");
    p.load_image(&img);
    let map = p.addr_map(0);
    p.set_engine(0, 0, Box::new(ArianeCore::new(ArianeConfig::new(0, base, map))));
    p
}

fn ariane_core(p: &Platform) -> &ArianeCore {
    p.node(0).tile(0).engine().as_any().downcast_ref::<ArianeCore>().expect("ariane installed")
}

/// Runs `src` for `cycles` with the fast path on and off; asserts the two
/// runs are bit-identical and returns them as `(fast, reference)`.
fn run_pair(src: &str, cycles: u64, label: &str) -> (Platform, Platform) {
    let mut fast = ariane_platform(src);
    let mut reference = ariane_platform(src);
    reference.set_fast_path(false);
    fast.run(cycles);
    reference.run(cycles);
    assert_bit_identical(&fast, &reference, label);
    let (f, r) = (ariane_core(&fast), ariane_core(&reference));
    assert_eq!(f.exit_code(), r.exit_code(), "{label}: exit codes diverged");
    assert_eq!(f.hart().pc(), r.hart().pc(), "{label}: pc diverged");
    let perf = fast.host_perf();
    assert!(perf.block_cache_hits > 0, "{label}: fast run never hit the block cache (vacuous)");
    assert_eq!(
        reference.host_perf().block_cache_hits,
        0,
        "{label}: reference run must not use the block cache"
    );
    (fast, reference)
}

/// [`run_pair`], returning the (shared) exit code.
fn run_both(src: &str, cycles: u64, label: &str) -> Option<u64> {
    ariane_core(&run_pair(src, cycles, label).0).exit_code()
}

/// Full observable equality: simulated time, every stats counter, the
/// architectural metrics registry, and every architectural snapshot
/// section (host-side stepper diagnostics excluded — the two runs
/// legitimately schedule differently).
fn assert_bit_identical(a: &Platform, b: &Platform, label: &str) {
    assert_eq!(a.now(), b.now(), "{label}: cycle counts diverged");
    assert_eq!(a.stats().to_string(), b.stats().to_string(), "{label}: statistics diverged");
    let (ma, mb) = (a.metrics().architectural(), b.metrics().architectural());
    assert_eq!(ma, mb, "{label}: architectural metrics diverged");
    if let Some(section) = a.snapshot().first_divergence(&b.snapshot()) {
        panic!("{label}: architectural snapshots diverged at {section}");
    }
}

#[test]
fn smc_store_with_fencei_replaces_the_cached_block() {
    // Two passes over a hot loop; between them the program overwrites the
    // loop's first instruction (addi a0,a0,1 -> addi a0,a0,2) and issues
    // fence.i. Pass one adds 40, pass two must add 80.
    let exit = run_both(
        r#"
            li   a0, 0
            li   s2, 0
            la   s0, hot
        again:
            li   t0, 40
        hot:
            addi a0, a0, 1
            addi t0, t0, -1
            bnez t0, hot
            addi s2, s2, 1
            li   t1, 2
            bge  s2, t1, done
            li   t1, 0x00250513      # addi a0, a0, 2
            sw   t1, 0(s0)
            fence.i
            j    again
        done:
            li   a7, 93
            ecall
        "#,
        60_000,
        "smc+fence.i",
    );
    assert_eq!(exit, Some(120), "patched instruction must take effect after fence.i");
}

#[test]
fn smc_store_without_fencei_stays_bit_identical() {
    // Same self-modifying store, no fence.i: the store invalidates the
    // decoded block (it mirrors the L1I), but the stale L1I itself is the
    // modeled behaviour — whatever instruction stream the reference
    // interpreter sees, the fast path must see the same one.
    let exit = run_both(
        r#"
            li   a0, 0
            li   s2, 0
            la   s0, hot
        again:
            li   t0, 40
        hot:
            addi a0, a0, 1
            addi t0, t0, -1
            bnez t0, hot
            addi s2, s2, 1
            li   t1, 2
            bge  s2, t1, done
            li   t1, 0x00250513      # addi a0, a0, 2
            sw   t1, 0(s0)
            j    again
        done:
            li   a7, 93
            ecall
        "#,
        60_000,
        "smc, no fence.i",
    );
    assert!(exit.is_some(), "program must still exit");
}

#[test]
fn block_straddling_a_page_boundary_is_invalidated_across_it() {
    // `hot` sits 8 bytes before a 4 KiB page boundary, so its decoded
    // block spans two pages. The program warms it, then patches the
    // instruction on the *second* page (hot+8): the range invalidation
    // must catch a block whose start lies on the previous page.
    let exit = run_both(
        r#"
            j    main
            .zero 4084
        hot:                         # base+4088: last 8 bytes of page 0
            addi a0, a0, 1
            addi a0, a0, 10
            addi a0, a0, 100         # base+4096: first slot of page 1
            jr   ra
        main:
            li   a0, 0
            li   s1, 10
            la   s0, hot
        warm:
            jalr ra, 0(s0)
            addi s1, s1, -1
            bnez s1, warm            # a0 = 10 * 111 = 1110
            li   t1, 0x0C850513      # addi a0, a0, 200
            sw   t1, 8(s0)
            fence.i
            li   s1, 10
        rerun:
            jalr ra, 0(s0)
            addi s1, s1, -1
            bnez s1, rerun           # a0 += 10 * 211 = 2110
            li   a7, 93
            ecall
        "#,
        120_000,
        "page-straddling block",
    );
    assert_eq!(exit, Some(3220), "patch on the second page must invalidate the straddling block");
}

#[test]
fn mmio_read_inside_a_hot_block_stays_bit_identical() {
    // The hot loop reads CLINT mtime (an MMIO access that suspends the
    // block mid-replay and whose value is the guest clock itself). The
    // accumulated sum is exquisitely sensitive to any clock skew the
    // scheduler's sleep/warp machinery might introduce: one elided mtime
    // tick and the exit codes diverge.
    let exit = run_both(
        &format!(
            r#"
            li   s0, {MTIME:#x}
            li   t0, 30
            li   a0, 0
        poll:
            ld   t1, 0(s0)
            add  a0, a0, t1
            addi t0, t0, -1
            bnez t0, poll
            li   a7, 93
            ecall
        "#
        ),
        60_000,
        "mmio in block",
    );
    assert!(exit.is_some(), "mtime loop must exit");
    assert_ne!(exit, Some(0), "mtime must be advancing");
}

#[test]
fn exception_mid_block_vectors_and_resumes_bit_identically() {
    // Every loop iteration raises a load-misaligned exception from the
    // middle of the hot block; the handler skips the faulting instruction
    // and execution resumes inside the same block. 20 iterations of
    // (+3, trap, +5) must leave a0 = 160 in both modes.
    let exit = run_both(
        r#"
            la   t0, handler
            csrw mtvec, t0
            li   a0, 0
            li   s1, 20
            li   s2, 0x2001          # misaligned for ld
        loop:
            addi a0, a0, 3
            ld   t2, 0(s2)           # traps every iteration
            addi a0, a0, 5
            addi s1, s1, -1
            bnez s1, loop
            li   a7, 93
            ecall
        handler:
            csrr t3, mepc
            addi t3, t3, 4
            csrw mepc, t3
            mret
        "#,
        60_000,
        "exception mid-block",
    );
    assert_eq!(exit, Some(160), "handler must skip exactly the faulting load each iteration");
}

#[test]
fn unhandled_exception_mid_block_halts_identically() {
    // Same fault with no trap vector installed: the core must halt, at
    // the same cycle and with the same architectural state, under both
    // decode modes.
    let exit = run_both(
        r#"
            li   a0, 0
            li   s1, 20
            li   s2, 0x2001
        loop:
            addi a0, a0, 3
            addi s1, s1, -1
            bnez s1, loop
            ld   t2, 0(s2)           # first fault halts the core
            li   a7, 93
            ecall
        "#,
        60_000,
        "unhandled exception",
    );
    assert_eq!(exit, Some(u64::MAX - 2), "unhandled trap must halt with the trap exit code");
}

/// Builds a 2-FPGA TraceCore contention platform (cross-FPGA atomics with
/// interleaved compute), deterministic so twins are identical.
fn contention_platform() -> Platform {
    let cfg = Config::new(2, 1, 2);
    let total = cfg.total_tiles();
    let counter = DRAM_BASE + 0x9000;
    let mut p = Platform::new(cfg);
    for g in 0..total {
        let (node, tile) = (g / 2, (g % 2) as u16);
        let mut ops = Vec::new();
        let private = DRAM_BASE + 0x20_0000 + g as u64 * 4096;
        for i in 0..400u64 {
            ops.push(TraceOp::Compute((g as u64 * 7 + i * 13) % 90 + 10));
            ops.push(TraceOp::AmoAdd(counter, 1));
            if i % 3 == 0 {
                ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g as u64 ^ i));
            }
        }
        p.set_engine(node, tile, Box::new(TraceCore::new(format!("c{g}"), ops)));
    }
    p
}

#[test]
fn snapshot_restore_with_fast_path_stays_bit_exact() {
    // The block cache and every sleep/warp schedule are *derived* state:
    // a snapshot taken mid-run with the fast path on, restored into a
    // fresh platform, must continue bit-exactly — against both the
    // uninterrupted fast run and an uninterrupted reference-mode run.
    let mut live = contention_platform();
    live.run(30_000);
    let snap = live.snapshot();

    let mut restored = contention_platform();
    restored.restore(&snap).expect("clean restore");
    assert_bit_identical(&live, &restored, "post-restore");

    live.run(30_000);
    restored.run(30_000);
    assert_bit_identical(&live, &restored, "restored fast run");

    let mut reference = contention_platform();
    reference.set_fast_path(false);
    reference.run(60_000);
    assert_bit_identical(&live, &reference, "fast vs reference after restore");

    // And a cross-mode restore: the same snapshot read back into a
    // reference-mode platform must land on the same state again.
    let mut ref_restored = contention_platform();
    ref_restored.set_fast_path(false);
    ref_restored.restore(&snap).expect("clean restore into reference mode");
    ref_restored.run(30_000);
    assert_bit_identical(&live, &ref_restored, "reference continuation of a fast snapshot");
}

#[test]
fn fast_serial_fast_parallel_and_reference_agree() {
    // The satellite matrix in one place: fast-serial ≡ fast-parallel ≡
    // reference-serial on a cross-FPGA contention workload.
    let mut fast_serial = contention_platform();
    let mut fast_parallel = contention_platform();
    let mut reference = contention_platform();
    reference.set_fast_path(false);
    fast_serial.run(120_000);
    fast_parallel.run_parallel(120_000);
    reference.run(120_000);
    assert_bit_identical(&fast_serial, &fast_parallel, "fast serial vs fast parallel");
    assert_bit_identical(&fast_serial, &reference, "fast serial vs reference serial");
    let perf = fast_serial.host_perf();
    assert!(
        perf.skipped_tile_cycles > 0,
        "contention workload must let the scheduler elide some tile ticks"
    );
}

// ---- The quiet-run horizon -------------------------------------------------
//
// A fast-path Ariane tile sleeps through runs of register-only instructions
// (`Engine::next_event_after` in `State::Run`) and executes them lazily in
// `advance_idle`. These cases sit on the window's edges; each must leave the
// fast run bit-identical to the reference, which never sleeps.

/// CLINT `mtimecmp[0]`.
const MTIMECMP: u64 = 0x6100_4000;

/// `n` register-only instructions: one straight-line run of a decoded block.
fn straight_line(n: usize) -> String {
    "addi a0, a0, 1\n".repeat(n)
}

/// Tile ticks the fast run skipped; the windows are what skips them here.
fn slept_cycles(fast: &Platform) -> u64 {
    fast.host_perf().skipped_tile_cycles
}

#[test]
fn timer_interrupt_lands_mid_window_at_its_exact_cycle() {
    // The guest arms the CLINT 1500 cycles out and spins in a 57-op block
    // (56 addi + the jump back). The Irq packet reaches the tile while it
    // sleeps somewhere inside the block; the trap must be taken at the same
    // instruction as in the reference — a0 (addis retired) is the exit code
    // and a1 the byte offset of mepc into the block.
    let src = format!(
        r#"
            la   t0, handler
            csrw mtvec, t0
            li   s0, {MTIME:#x}
            ld   t2, 0(s0)
            li   t3, 1500
            add  t2, t2, t3
            li   s1, {MTIMECMP:#x}
            sd   t2, 0(s1)
            li   t0, 0x80            # MTIE
            csrw mie, t0
            li   t0, 8               # mstatus.MIE
            csrs mstatus, t0
            li   a0, 0
        spin:
            {}
            j    spin
        handler:
            csrr a1, mepc
            la   a2, spin
            sub  a1, a1, a2
            li   a7, 93
            ecall
        "#,
        straight_line(56)
    );
    let (fast, _) = run_pair(&src, 20_000, "timer mid-window");
    let core = ariane_core(&fast);
    assert!(core.exit_code().is_some_and(|n| n > 500), "the timer must fire well into the spin");
    let landed = core.hart().reg(11) / 4;
    assert!((1..56).contains(&landed), "mepc must fall inside the run, not on its edge: {landed}");
    assert!(slept_cycles(&fast) > 500, "the spin must have been slept through");
}

#[test]
fn aliasing_loops_evict_a_cached_blocks_dword() {
    // Two hot loops 16 KiB apart share direct-mapped L1I slots: `far`
    // evicts the tail doublewords of `a`'s block while the block itself
    // stays cached (only a *refill* invalidates it). Re-entering `a` the
    // horizon must stop at the evicted doubleword — the fetch there goes to
    // the BPC, which a quiet window must never reach.
    let base = DRAM_BASE + 0x1_0000;
    let src = format!(
        r#"
            li   a0, 0
            li   s1, 6
        outer:
            li   t0, 10
        a:
            {}
            addi t0, t0, -1
            bnez t0, a
            j    far
            .org {:#x}
        far:
            li   t0, 10
        b:
            addi a0, a0, 2
            addi a0, a0, 2
            addi a0, a0, 2
            addi a0, a0, 2
            addi t0, t0, -1
            bnez t0, b
            addi s1, s1, -1
            beqz s1, done
            j    outer
        done:
            li   a7, 93
            ecall
        "#,
        straight_line(24),
        base + 0x4040
    );
    let img = smappic::isa::assemble(&src, base).expect("assembles");
    let overlap = (img.symbols["far"] - img.symbols["a"]) % 0x4000;
    assert!((8..96).contains(&overlap), "`far` must alias the middle of `a`'s block: {overlap}");

    let (fast, _) = run_pair(&src, 60_000, "aliasing loops");
    assert_eq!(ariane_core(&fast).exit_code(), Some(6 * (10 * 24 + 10 * 4 * 2)));
    assert!(slept_cycles(&fast) > 1000, "both loops must have been slept through");
}

#[test]
fn mul_div_penalties_inside_a_window() {
    // Long-latency ops are register-only, so they sit inside the window and
    // their stalls drain there: the horizon is a lower bound, the wake tick
    // finds the core mid-stall or mid-run, and every cycle must still count.
    let src = format!(
        r#"
            li   a0, 1
            li   a2, 7
            li   s1, 200
        loop:
            {}
            mul  a3, a0, a2
            div  a4, a3, a2
            remu a5, a3, s1
            add  a0, a4, a5
            mulw a3, a3, a2
            addi s1, s1, -1
            bnez s1, loop
            li   a7, 93
            ecall
        "#,
        straight_line(8)
    );
    let (fast, _) = run_pair(&src, 60_000, "mul/div in window");
    assert!(ariane_core(&fast).exit_code().is_some(), "loop must finish");
    assert!(slept_cycles(&fast) > 4000, "stall cycles and the ops around them are skippable");
}

/// An endless register-only loop: the tile is inside a window almost always.
fn endless_alu_loop() -> String {
    format!("li a0, 0\nli a2, 3\nspin:\n{}mul a3, a0, a2\nj spin\n", straight_line(40))
}

#[test]
fn snapshot_taken_mid_window_resumes_bit_exactly() {
    let src = endless_alu_loop();
    let mut live = ariane_platform(&src);
    // Stop with the tile asleep inside a window (not on a wake tick).
    live.run(5_000);
    while !live.node(0).tile(0).is_sleeping(live.now()) {
        live.run(1);
    }
    let snap = live.snapshot();

    let mut restored = ariane_platform(&src);
    restored.restore(&snap).expect("clean restore");
    assert_bit_identical(&live, &restored, "post-restore");
    let resumed_for = 5_000;
    live.run(resumed_for);
    restored.run(resumed_for);
    assert_bit_identical(&live, &restored, "restored vs uninterrupted fast run");
    assert!(slept_cycles(&restored) > resumed_for / 2, "the restored tile must sleep again");

    let mut reference = ariane_platform(&src);
    reference.set_fast_path(false);
    reference.run(live.now());
    assert_bit_identical(&restored, &reference, "restored vs uninterrupted reference run");
}

#[test]
fn single_cycle_runs_equal_one_long_run() {
    // `run(1)` × N drives every skipped tick through the per-cycle skip path
    // (`advance_idle(1)`); `run(N)` lets the FPGA warp whole windows
    // (`advance_idle(delta)`). Same machine either way.
    const N: u64 = 4_000;
    let src = endless_alu_loop();
    let mut stepped = ariane_platform(&src);
    let mut warped = ariane_platform(&src);
    for _ in 0..N {
        stepped.run(1);
    }
    warped.run(N);
    assert_bit_identical(&stepped, &warped, "run(1) x N vs run(N)");
    assert_eq!(slept_cycles(&stepped), slept_cycles(&warped), "same ticks skipped either way");
    assert!(slept_cycles(&warped) > N / 2, "the loop must be slept through");

    // Fast-path liveness in exact counters, so a dead block cache or a
    // lost horizon fails on any host: once warm, every block of the loop
    // comes from the cache and the tile sleeps through at least 90% of its
    // cycles.
    let warm = warped.host_perf();
    warped.run(N);
    let hot = warped.host_perf();
    let hits = hot.block_cache_hits - warm.block_cache_hits;
    let misses = hot.block_cache_misses - warm.block_cache_misses;
    assert!(hits > 0 && hits * 100 >= (hits + misses) * 99, "block cache dead: {hits}/{misses}");
    let slept = hot.skipped_tile_cycles - warm.skipped_tile_cycles;
    assert!(slept * 10 >= N * 9, "quiet-run horizon lost: {slept} of {N} cycles slept");
}

// ---- Saturated message traffic ---------------------------------------------
//
// The mesh arbiter's candidate masks, the crossbar's queued count and the
// epoch driver's warp-probe gating are all derived, host-side state. These
// cases keep every mesh, crossbar and PCIe link moving messages (or, with
// long compute bursts, flipping between busy and quiet) and hold the fast
// path to the reference under each way of driving it.

/// A 2x2x2 platform, a `TraceCore` on every tile: `rounds` times, compute
/// for up to `max_compute` cycles then add to one counter all eight share
/// across both FPGAs, storing to a private line every other round.
fn amo_platform(rounds: u64, max_compute: u64) -> Platform {
    let cfg = Config::new(2, 2, 2);
    let total = cfg.total_tiles() as u64;
    let counter = DRAM_BASE + 0x9000;
    let mut p = Platform::new(cfg);
    for g in 0..total {
        let private = DRAM_BASE + 0x20_0000 + g * 4096;
        let mut ops = Vec::new();
        for i in 0..rounds {
            ops.push(TraceOp::Compute((g * 7 + i * 13) % max_compute + 1));
            ops.push(TraceOp::AmoAdd(counter, 1));
            if i % 2 == 0 {
                ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g ^ i));
            }
        }
        p.set_engine(
            (g / 2) as usize,
            (g % 2) as u16,
            Box::new(TraceCore::new(format!("c{g}"), ops)),
        );
    }
    p
}

#[test]
fn saturated_single_cycle_runs_equal_one_long_run_and_the_reference() {
    // `run(1)` x N opens a one-cycle window per call, so the epoch driver
    // asks for a warp on every cycle; `run(N)` asks only after a quiet tick.
    // Fast-path liveness rides along as exact counters: the saturated fleet
    // still skips some tile and chipset ticks, the bursty one (compute
    // bursts of up to 400 cycles) more than 90% of its tile ticks — a lost
    // sleep predicate fails here on any host, no wall clock involved.
    for (max_compute, min_tile_skip_pct) in [(20, 0), (400, 90)] {
        const N: u64 = 6_000;
        let mut stepped = amo_platform(400, max_compute);
        let mut driven = amo_platform(400, max_compute);
        let mut reference = amo_platform(400, max_compute);
        reference.set_fast_path(false);
        for _ in 0..N {
            stepped.run(1);
        }
        driven.run(N);
        reference.run(N);
        assert_bit_identical(&stepped, &driven, "run(1) x N vs run(N)");
        assert_bit_identical(&driven, &reference, "run(N) vs reference");
        let (s, d) = (stepped.host_perf(), driven.host_perf());
        assert_eq!(s.skipped_tile_cycles, d.skipped_tile_cycles, "same tile ticks skipped");
        assert_eq!(
            s.skipped_chipset_cycles, d.skipped_chipset_cycles,
            "same chipset ticks skipped"
        );
        assert!(driven.stats().get("bridge.sent") > 100, "atomics must cross the FPGAs");
        let tile_cycles = driven.config().total_tiles() as u64 * N;
        assert!(
            d.skipped_tile_cycles * 100 > tile_cycles * min_tile_skip_pct,
            "compute<={max_compute}: {} of {tile_cycles} tile ticks skipped",
            d.skipped_tile_cycles
        );
        assert!(d.skipped_chipset_cycles > 0, "compute<={max_compute}: no chipset tick skipped");
    }
}

#[test]
fn saturated_parallel_idle_detection_stops_where_serial_does() {
    // The drive's idle probe sits at the barrier behind the same gated
    // quiet-bound probes: both executors must stop at the same grain
    // boundary — the first one at or after the cycle `run_until_idle`
    // (per-cycle stepping, no epochs) finds.
    for max_compute in [20, 400] {
        const BUDGET: u64 = 2_000_000;
        let mut exact = amo_platform(60, max_compute);
        let mut serial = amo_platform(60, max_compute);
        let mut parallel = amo_platform(60, max_compute);
        let spent = serial.run_preemptible(BUDGET, false);
        assert_eq!(spent, parallel.run_preemptible(BUDGET, true), "executors spent differently");
        assert!(serial.is_idle() && parallel.is_idle(), "both executors must quiesce");
        assert_eq!(serial.now(), parallel.now(), "stop cycle diverged");
        assert_eq!(serial.snapshot().first_divergence(&parallel.snapshot()), None);
        assert_eq!(serial.stats().to_string(), parallel.stats().to_string());
        assert_eq!(serial.metrics().architectural(), parallel.metrics().architectural());
        assert!(exact.run_until_idle(BUDGET), "serial run must quiesce");
        assert_eq!(spent, exact.now().next_multiple_of(exact.preemption_grain()));
        assert!(exact.now() > 1_000 && exact.stats().get("bpc.amo") == 8 * 60);
        assert_eq!(exact.stats().to_string(), serial.stats().to_string());
    }
}

#[test]
fn snapshot_taken_mid_saturation_resumes_bit_exactly() {
    // Occupancy masks and queued counts are never serialized: a snapshot
    // cut while routers and crossbars hold traffic must rebuild them.
    let mut live = amo_platform(400, 20);
    let mut cut_with_traffic = 0;
    for cut in [2_003, 1_508, 1_489] {
        live.run(cut);
        let snap = live.snapshot();
        let mut restored = amo_platform(400, 20);
        restored.restore(&snap).expect("clean restore");
        assert_bit_identical(&live, &restored, "post-restore");
        let meshes_hold_packets =
            (0..4).filter(|&g| !restored.node_mut(g).mesh_mut().is_drained()).count();
        cut_with_traffic += usize::from(meshes_hold_packets > 0);
        live.run(1_500);
        restored.run(1_500);
        assert_bit_identical(&live, &restored, "restored vs uninterrupted fast run");
    }
    assert!(cut_with_traffic > 0, "no snapshot caught a mesh holding packets (vacuous)");
    let mut reference = amo_platform(400, 20);
    reference.set_fast_path(false);
    reference.run(live.now());
    assert_bit_identical(&live, &reference, "restored chain vs uninterrupted reference run");
}

//! Chaos/differential suite for the deterministic fault-injection layer.
//!
//! The invariant under test: injected faults are *timing* faults only.
//! A faulted run must terminate with the same architectural state as the
//! clean run — same per-core checksums, same console bytes, same final
//! memory — and a faulted run replayed under the epoch-parallel stepper
//! must be *bit-identical* (cycle count, every counter, memory) to the
//! same plan replayed under the serial stepper. Unrecoverable faults
//! (a blackholed link) must surface as a structured [`FaultReport`]
//! from the Watchdog instead of a hang.

use std::sync::Arc;

use smappic::platform::{
    Config, FaultSpec, Platform, Topology, WatchdogConfig, DRAM_BASE, UART0_BASE,
};
use smappic::sim::{EthParams, FaultPlan, FaultProfile, SimRng};
use smappic::tile::{Engine, TraceCore, TraceOp};

const COUNTER: u64 = DRAM_BASE + 0xA000;
const DONE: u64 = DRAM_BASE + 0xA040;
const PRIVATE_BASE: u64 = DRAM_BASE + 0x40_0000;

/// Builds one instance of the chaos workload on an Ax1xC prototype:
/// every tile hammers a shared counter homed on node 0 with atomic
/// increments interleaved with private blocking stores that are read
/// back through [`TraceOp::Checksum`] (coherent, order-sensitive loads
/// folded into a per-core checksum). After a barrier on a done-counter,
/// every tile checksums the shared state — whose value is then
/// timing-independent — and tile 0 of each node prints to its console
/// UART. Construction is deterministic: two calls with the same
/// arguments produce identical twins, so a clean and a faulted instance
/// differ only in the injected fault plan.
fn chaos_platform(
    fpgas: usize,
    tiles: usize,
    rounds: u64,
    seed: u64,
    fault: Option<FaultSpec>,
) -> Platform {
    chaos_on(Config::new(fpgas, 1, tiles), tiles, rounds, seed, fault)
}

/// The chaos workload on a network-attached rack: same traffic, but the
/// FPGAs reach each other over a switched-Ethernet (or hybrid) fabric,
/// so the injected link faults ride the Ethernet streams instead of (or
/// alongside) the PCIe ones. Small-format latencies keep runs short.
fn rack_chaos_platform(
    fpgas: usize,
    rounds: u64,
    seed: u64,
    topology: Topology,
    fault: Option<FaultSpec>,
) -> Platform {
    chaos_on(Config::rack(fpgas, 1, 1, topology), 1, rounds, seed, fault)
}

fn rack_eth_params(group_size: usize) -> EthParams {
    EthParams {
        link_latency: 12,
        link_bytes_per_cycle: 32,
        switch_latency: 4,
        uplink_latency: 40,
        uplink_bytes_per_cycle: 128,
        group_size,
        frame_overhead_bytes: 38,
    }
}

fn chaos_on(
    mut cfg: Config,
    tiles: usize,
    rounds: u64,
    seed: u64,
    fault: Option<FaultSpec>,
) -> Platform {
    if let Some(spec) = fault {
        cfg = cfg.with_faults(spec);
    }
    let total = cfg.total_tiles();
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(seed ^ 0xC0FFEE);
    build_chaos_cores(&mut p, tiles, total, rounds, &mut rng);
    p
}

fn build_chaos_cores(p: &mut Platform, tiles: usize, total: usize, rounds: u64, rng: &mut SimRng) {
    for g in 0..total {
        let (node, tile) = (g / tiles, (g % tiles) as u16);
        let private = PRIVATE_BASE + g as u64 * 8192;
        let mut ops = Vec::new();
        for i in 0..rounds {
            if rng.chance(0.35) {
                ops.push(TraceOp::Compute(rng.gen_range(24) + 1));
            }
            ops.push(TraceOp::AmoAdd(COUNTER, 1));
            // A blocking store this core immediately checksums: the value
            // observed is fixed by program order, not by timing, so it is
            // a valid clean-vs-faulted observable even mid-contention.
            let a = private + (i % 16) * 64;
            ops.push(TraceOp::StoreVal(a, (g as u64) ^ (i.wrapping_mul(0x9E37))));
            if rng.chance(0.5) {
                ops.push(TraceOp::Checksum(a));
            }
        }
        ops.push(TraceOp::AmoAdd(DONE, 1));
        // Barrier: after every tile arrived, the shared counters hold
        // timing-independent values — checksum them through coherence.
        ops.push(TraceOp::SpinUntilGe(DONE, total as u64));
        ops.push(TraceOp::Checksum(COUNTER));
        ops.push(TraceOp::Checksum(DONE));
        if tile == 0 {
            // One writer per UART: a single core's stores to one device
            // arrive in program order regardless of injected delays.
            for &b in b"ok" {
                ops.push(TraceOp::NcStore(UART0_BASE, u64::from(b)));
            }
        }
        let map = p.addr_map(node);
        p.set_engine(node, tile, Box::new(TraceCore::with_addr_map(format!("x{g}"), ops, map)));
    }
}

/// The architectural observables a faulted run must reproduce exactly:
/// per-core checksums and retirement counts, per-node console bytes, and
/// the shared + private memory images. Deliberately excludes cycle
/// counts and microarchitectural statistics, which timing faults are
/// allowed to change.
#[derive(Debug, PartialEq, Eq)]
struct ArchState {
    checksums: Vec<u64>,
    retired: Vec<u64>,
    console: Vec<Vec<u8>>,
    counter: Vec<u8>,
    done: Vec<u8>,
    private: Vec<Vec<u8>>,
}

fn arch_state(p: &mut Platform) -> ArchState {
    let nodes = p.config().total_nodes();
    let tiles = p.config().tiles_per_node;
    let mut checksums = Vec::new();
    let mut retired = Vec::new();
    let mut private = Vec::new();
    for n in 0..nodes {
        for t in 0..tiles {
            let g = n * tiles + t;
            let core = p
                .node(n)
                .tile(t as u16)
                .engine()
                .as_any()
                .downcast_ref::<TraceCore>()
                .expect("chaos workload installs trace cores");
            checksums.push(core.checksum());
            retired.push(core.progress());
            private.push(p.read_mem(PRIVATE_BASE + g as u64 * 8192, 16 * 64));
        }
    }
    let console = (0..nodes).map(|n| p.console_mut(n).take_output()).collect();
    ArchState {
        checksums,
        retired,
        console,
        counter: p.read_mem(COUNTER, 8),
        done: p.read_mem(DONE, 8),
        private,
    }
}

/// Full bit-level snapshot for faulted-serial vs faulted-parallel
/// comparisons (same plan ⇒ everything must match, timing included).
fn snapshot(p: &Platform) -> (u64, String, Vec<u8>, Vec<u8>) {
    (p.now(), p.stats().to_string(), p.read_mem(COUNTER, 8), p.read_mem(DONE, 8))
}

/// Drain budget after quiescence so console UARTs (baud-paced) finish
/// transmitting; identical across compared runs, so determinism holds.
const BUDGET: u64 = 20_000_000;

/// Serial, to the exact first quiescent cycle.
fn run_to_idle(p: &mut Platform, label: &str) {
    assert!(p.run_until_idle(BUDGET), "{label}: workload failed to quiesce within {BUDGET} cycles");
}

/// To the first preemption-grain boundary at which the platform is idle —
/// the stop both executors of the epoch driver share. Returns the cycles
/// spent.
fn run_preemptible_to_idle(p: &mut Platform, parallel: bool, label: &str) -> u64 {
    let spent = p.run_preemptible(BUDGET, parallel);
    assert!(p.is_idle(), "{label}: workload failed to quiesce within {BUDGET} cycles");
    assert!(spent < BUDGET, "{label}: quiescence must cut the run short");
    spent
}

#[test]
fn quiet_plan_is_bitwise_transparent() {
    // A quiet plan threads the whole fault machinery — link fault stage,
    // shell sequence guard, stall/spike hooks — through the platform but
    // never fires. The run must be *cycle-identical* to a clean build,
    // proving the plumbing itself perturbs nothing.
    let quiet = Arc::new(FaultPlan::seeded(7, FaultProfile::quiet()));
    let mut clean = chaos_platform(2, 2, 4, 11, None);
    let mut faulted = chaos_platform(2, 2, 4, 11, Some(FaultSpec::all(quiet)));
    run_to_idle(&mut clean, "clean");
    run_to_idle(&mut faulted, "quiet-faulted");
    assert_eq!(clean.now(), faulted.now(), "quiet fault plumbing changed the cycle count");
    assert_eq!(arch_state(&mut clean), arch_state(&mut faulted));
    let s = faulted.stats();
    assert_eq!(s.get("fault.link_delayed"), 0);
    assert_eq!(s.get("fault.link_duplicated"), 0);
    assert_eq!(s.get("shell.guard_ooo"), 0);
    // Clean stats must equal faulted stats minus the (zero) fault keys.
    let stripped: String = faulted
        .stats()
        .to_string()
        .lines()
        .filter(|l| !l.trim_start().starts_with("fault."))
        .collect::<Vec<_>>()
        .join("\n");
    let clean_s = clean.stats().to_string();
    assert_eq!(clean_s.trim_end(), stripped.trim_end(), "quiet plan perturbed a counter");
    // The latency histograms must be untouched too: a quiet plan may not
    // shift a single sample in any distribution. (Counters are compared
    // above — the faulted registry legitimately carries zero-valued
    // `fault.*` keys the clean build never registers.)
    let (ch, fh) = (clean.metrics().architectural(), faulted.metrics().architectural());
    assert_eq!(
        ch.histograms().map(|(n, _)| n).collect::<Vec<_>>(),
        fh.histograms().map(|(n, _)| n).collect::<Vec<_>>(),
        "quiet plan changed the set of recorded histograms"
    );
    for (name, h) in ch.histograms() {
        assert_eq!(
            Some(h),
            fh.histogram(name),
            "quiet plan perturbed the {name} latency histogram"
        );
    }
}

#[test]
fn faulted_serial_matches_faulted_parallel_bit_for_bit() {
    // The heart of the differential suite: the same fault plan replayed
    // under both steppers is one simulation — every cycle, counter, and
    // byte identical. Fault decisions are stateless hashes, so epoch
    // boundaries cannot change what fires.
    for fpgas in [1usize, 2, 4] {
        for seed in 0..4u64 {
            let plan = Arc::new(FaultPlan::seeded(seed, FaultProfile::light()));
            let mut serial = chaos_platform(fpgas, 2, 3, seed, Some(FaultSpec::all(plan.clone())));
            let mut parallel = chaos_platform(fpgas, 2, 3, seed, Some(FaultSpec::all(plan)));
            let spent = run_preemptible_to_idle(&mut serial, false, "serial");
            assert_eq!(spent, run_preemptible_to_idle(&mut parallel, true, "parallel"));
            assert_eq!(
                snapshot(&serial),
                snapshot(&parallel),
                "steppers diverged: {fpgas} FPGAs, seed {seed}"
            );
            assert_eq!(serial.snapshot().first_divergence(&parallel.snapshot()), None);
            assert_eq!(
                arch_state(&mut serial),
                arch_state(&mut parallel),
                "architectural divergence: {fpgas} FPGAs, seed {seed}"
            );
            // Metrics — counters *and* every latency histogram — must be
            // bit-identical once the host-side stepper lane is stripped.
            let (sm, pm) = (serial.metrics().architectural(), parallel.metrics().architectural());
            assert_eq!(sm, pm, "faulted metrics diverged: {fpgas} FPGAs, seed {seed}");
            assert_eq!(sm.snapshot_text(), pm.snapshot_text());
        }
    }
}

#[test]
fn faulted_fast_path_matches_faulted_reference_bit_for_bit() {
    // The host scheduler's skip/warp machinery must stay invisible even
    // while faults are firing. A faulted run with the fast path enabled
    // (the default) is the same simulation as one ticking every component
    // naively: fault decisions key on simulated cycles and packet
    // identity, never on which host loop reached them, so elided ticks
    // cannot change what fires — or what any fired fault corrupts.
    for seed in [1u64, 3] {
        let plan = Arc::new(FaultPlan::seeded(seed, FaultProfile::light()));
        let mut fast = chaos_platform(2, 2, 3, seed, Some(FaultSpec::all(plan.clone())));
        let mut fast_cut = chaos_platform(2, 2, 3, seed, Some(FaultSpec::all(plan.clone())));
        let mut fast_par = chaos_platform(2, 2, 3, seed, Some(FaultSpec::all(plan.clone())));
        let mut reference = chaos_platform(2, 2, 3, seed, Some(FaultSpec::all(plan)));
        reference.set_fast_path(false);
        run_to_idle(&mut fast, "fast-serial");
        run_to_idle(&mut reference, "reference-serial");
        assert_eq!(
            snapshot(&fast),
            snapshot(&reference),
            "fast path diverged from reference under faults: seed {seed}"
        );
        // Both executors of the epoch driver stop at the same grain
        // boundary: the first one at or after the exact quiescent cycle.
        let spent = run_preemptible_to_idle(&mut fast_cut, false, "fast-serial, preemptible");
        assert_eq!(spent, run_preemptible_to_idle(&mut fast_par, true, "fast-parallel"));
        assert_eq!(spent, fast.now().next_multiple_of(fast.preemption_grain()));
        assert_eq!(
            snapshot(&fast_cut),
            snapshot(&fast_par),
            "fast steppers diverged under faults: seed {seed}"
        );
        assert_eq!(fast_cut.snapshot().first_divergence(&fast_par.snapshot()), None);
        let want = arch_state(&mut reference);
        assert_eq!(want, arch_state(&mut fast), "fast-serial arch divergence: seed {seed}");
        assert_eq!(want, arch_state(&mut fast_par), "fast-parallel arch divergence: seed {seed}");
        // Architectural metrics agree; the fast run must actually have
        // elided work, or this equivalence is vacuous.
        assert_eq!(
            fast.metrics().architectural(),
            reference.metrics().architectural(),
            "faulted fast-vs-reference metrics diverged: seed {seed}"
        );
        assert!(fast.host_perf().skipped_tile_cycles > 0, "fast faulted run never skipped");
        assert_eq!(reference.host_perf().skipped_tile_cycles, 0, "reference run skipped ticks");
    }
}

#[test]
fn quiet_plan_stays_transparent_without_the_fast_path() {
    // Same clean ≡ quiet-fault contract as above, but with the host fast
    // path disabled on both sides: the fault plumbing must be inert in
    // the reference simulator too, not just when skips hide its cost.
    let quiet = Arc::new(FaultPlan::seeded(7, FaultProfile::quiet()));
    let mut clean = chaos_platform(2, 2, 4, 11, None);
    let mut faulted = chaos_platform(2, 2, 4, 11, Some(FaultSpec::all(quiet)));
    clean.set_fast_path(false);
    faulted.set_fast_path(false);
    run_to_idle(&mut clean, "clean-reference");
    run_to_idle(&mut faulted, "quiet-faulted-reference");
    assert_eq!(clean.now(), faulted.now(), "quiet plan changed reference cycle count");
    assert_eq!(arch_state(&mut clean), arch_state(&mut faulted));
}

#[test]
fn faulted_runs_preserve_architectural_state_vs_clean() {
    // Timing faults may change *when*; never *what*. Across seeds and
    // topologies the faulted run's architectural observables must equal
    // the clean twin's, and the faults must actually have fired — a
    // vacuous pass proves nothing.
    let mut link_faults = 0u64;
    let mut local_faults = 0u64;
    for fpgas in [1usize, 2, 4] {
        for seed in 0..4u64 {
            let plan = Arc::new(FaultPlan::seeded(seed, FaultProfile::heavy()));
            let mut clean = chaos_platform(fpgas, 2, 3, seed, None);
            let mut faulted = chaos_platform(fpgas, 2, 3, seed, Some(FaultSpec::all(plan)));
            run_to_idle(&mut clean, "clean");
            run_preemptible_to_idle(&mut faulted, true, "faulted");
            assert_eq!(
                arch_state(&mut clean),
                arch_state(&mut faulted),
                "faults corrupted architectural state: {fpgas} FPGAs, seed {seed}"
            );
            let s = faulted.stats();
            link_faults += s.get("fault.link_delayed") + s.get("fault.link_duplicated");
            local_faults +=
                s.get("xbar.fault_stall") + s.get("noc.fault_stall") + s.get("dram.spike");
        }
    }
    assert!(link_faults > 0, "no PCIe link faults fired across the whole matrix");
    assert!(local_faults > 0, "no intra-FPGA faults fired across the whole matrix");
}

#[test]
fn duplicate_and_reorder_recovery_leaves_no_trace() {
    // Sanity on the shell guard's visible counters: under a heavy plan on
    // a multi-FPGA run, duplicates arrive (and are dropped) and deliveries
    // arrive out of order (and are resequenced) — yet the run still
    // quiesces with clean-equal architectural state (checked above). Here
    // we assert the recovery machinery itself was exercised.
    let plan = Arc::new(FaultPlan::seeded(3, FaultProfile::heavy()));
    let mut p = chaos_platform(4, 2, 4, 3, Some(FaultSpec::links_only(plan)));
    run_to_idle(&mut p, "heavy links");
    let s = p.stats();
    assert!(s.get("fault.link_delayed") > 0, "plan injected no delays");
    assert!(s.get("fault.link_duplicated") > 0, "plan injected no duplicates");
    assert_eq!(
        s.get("shell.guard_dup"),
        s.get("fault.link_duplicated"),
        "every duplicate must be dropped by the guard, none delivered twice"
    );
    assert!(s.get("shell.guard_ooo") > 0, "delays never reordered anything — profile too weak");
}

#[test]
fn watchdog_converts_blackhole_livelock_into_a_report() {
    // An unrecoverable fault: every PCIe link goes dark at cycle 2000,
    // stranding cross-FPGA AMOs and leaving spinning cores with a frozen
    // progress signature. The watched run must convert the hang into a
    // structured FaultReport within the configured bound.
    let plan = Arc::new(FaultPlan::seeded(0, FaultProfile::blackhole(2_000)));
    let mut p = chaos_platform(2, 2, 4, 5, Some(FaultSpec::links_only(plan)));
    let wcfg = WatchdogConfig { stall_limit: 30_000, check_interval: 1_000 };
    let report = p
        .run_until_idle_watched(BUDGET, &wcfg)
        .expect_err("a blackholed link must be reported as livelock, not quiescence");
    // Detection latency bound: stall_limit plus one sampling interval
    // (plus the chunk that straddles the freeze point).
    assert!(report.stalled_for >= wcfg.stall_limit, "fired early: {report}");
    assert!(
        report.detected_at - report.stalled_since <= wcfg.stall_limit + 2 * wcfg.check_interval,
        "fired late: {report}"
    );
    assert!(report.links_in_flight > 0, "blackholed items should be stuck in flight");
    assert!(!report.fpga_idle.iter().all(|i| *i), "a livelocked platform is not idle");
    let text = report.to_string();
    assert!(text.contains("LIVELOCK"), "report must be self-describing: {text}");
}

#[test]
fn watchdog_passes_clean_runs_through() {
    // The same supervision on a clean run must report quiescence, not a
    // false livelock, and leave the result identical to an unwatched run.
    let mut watched = chaos_platform(2, 2, 4, 9, None);
    let mut plain = chaos_platform(2, 2, 4, 9, None);
    let wcfg = WatchdogConfig { stall_limit: 200_000, check_interval: 1_000 };
    assert!(watched.run_until_idle_watched(BUDGET, &wcfg).expect("no livelock"));
    run_to_idle(&mut plain, "plain");
    assert_eq!(watched.now(), plain.now(), "supervision changed the simulation");
    assert_eq!(arch_state(&mut watched), arch_state(&mut plain));
}

#[test]
fn stats_survive_a_stepper_switch_mid_run() {
    // Regression for the Platform::stats() merge: Hard Shell and crossbar
    // counters must be identical whether the run used one stepper
    // throughout or switched serial → epoch-parallel mid-flight (the
    // counters live in the components, not the steppers; the old code
    // dropped the crossbar's entirely).
    let mut switched = chaos_platform(2, 2, 4, 13, None);
    let mut reference = chaos_platform(2, 2, 4, 13, None);
    switched.run(25_000); // serial prefix...
    switched.run_parallel(60_000); // ...then the parallel stepper
    reference.run(85_000);
    let spent = run_preemptible_to_idle(&mut switched, true, "switched");
    assert_eq!(spent, run_preemptible_to_idle(&mut reference, false, "reference"));
    assert_eq!(switched.now(), reference.now());
    assert_eq!(switched.snapshot().first_divergence(&reference.snapshot()), None);
    let (s, r) = (switched.stats(), reference.stats());
    assert!(s.get("shell.out_req") > 0, "workload never crossed the fabric");
    assert!(s.get("xbar.req") > 0, "crossbar counters missing from Platform::stats()");
    assert_eq!(s.get("shell.out_req"), r.get("shell.out_req"), "shell counters diverged");
    assert_eq!(s.get("shell.in_req"), r.get("shell.in_req"), "shell counters diverged");
    assert_eq!(s.to_string(), r.to_string(), "full statistics diverged across the switch");
}

#[test]
fn ethernet_faults_preserve_architectural_state_and_the_guard_recovers() {
    // Clean ≡ faulted over the switched fabric: delays and duplicates on
    // the Ethernet streams are timing faults only, and the receiving
    // shells' sequence guards absorb them — every ghost copy dropped,
    // every reordered frame resequenced.
    let mut delayed = 0u64;
    let mut duplicated = 0u64;
    for seed in 0..3u64 {
        let plan = Arc::new(FaultPlan::seeded(seed, FaultProfile::heavy()));
        let topo = || Topology::Ethernet(rack_eth_params(2));
        let mut clean = rack_chaos_platform(4, 3, seed, topo(), None);
        let mut faulted =
            rack_chaos_platform(4, 3, seed, topo(), Some(FaultSpec::links_only(plan)));
        run_to_idle(&mut clean, "eth-clean");
        run_to_idle(&mut faulted, "eth-faulted");
        assert_eq!(
            arch_state(&mut clean),
            arch_state(&mut faulted),
            "Ethernet faults corrupted architectural state: seed {seed}"
        );
        let s = faulted.stats();
        // A pure Ethernet topology has no PCIe links: every link fault is
        // an Ethernet fault, and every duplicate the fabric minted must
        // have died at a shell guard.
        assert_eq!(s.get("fault.link_delayed"), 0, "no PCIe links exist to fault");
        assert_eq!(
            s.get("shell.guard_dup"),
            s.get("fault.eth_duplicated"),
            "a ghost frame was delivered twice: seed {seed}"
        );
        delayed += s.get("fault.eth_delayed");
        duplicated += s.get("fault.eth_duplicated");
    }
    assert!(delayed > 0, "no Ethernet delays fired across the sweep");
    assert!(duplicated > 0, "no Ethernet duplicates fired across the sweep");
}

#[test]
fn faulted_ethernet_serial_matches_faulted_parallel_bit_for_bit() {
    // The grouped drivers under fire: the same Ethernet fault plan
    // replayed serial vs parallel (and against the per-cycle reference)
    // is one simulation. Fault decisions key on frame identity and
    // maturity cycles, so group-local windows cannot change what fires.
    for seed in [2u64, 5] {
        let plan = Arc::new(FaultPlan::seeded(seed, FaultProfile::light()));
        let spec = || Some(FaultSpec::links_only(plan.clone()));
        let topo = || Topology::Hybrid(rack_eth_params(2));
        let mut reference = rack_chaos_platform(4, 3, seed, topo(), spec());
        let mut serial = rack_chaos_platform(4, 3, seed, topo(), spec());
        let mut parallel = rack_chaos_platform(4, 3, seed, topo(), spec());
        reference.set_fast_path(false);
        reference.run(30_000);
        serial.run(30_000);
        parallel.run_parallel(30_000);
        assert_eq!(
            snapshot(&reference),
            snapshot(&serial),
            "faulted grouped-serial diverged from reference: seed {seed}"
        );
        assert_eq!(
            snapshot(&serial),
            snapshot(&parallel),
            "faulted grouped steppers diverged: seed {seed}"
        );
        assert_eq!(serial.stats().to_string(), parallel.stats().to_string());
    }
}

#[test]
fn watchdog_reports_a_blackholed_ethernet_fabric() {
    // Every Ethernet stream goes dark at cycle 2000: frames park in the
    // switches' jitter stages forever, spinning cores freeze, and the
    // watchdog must convert the livelock into a report that counts the
    // stranded frames.
    let plan = Arc::new(FaultPlan::seeded(0, FaultProfile::blackhole(2_000)));
    let mut p = rack_chaos_platform(
        4,
        4,
        5,
        Topology::Ethernet(rack_eth_params(2)),
        Some(FaultSpec::links_only(plan)),
    );
    let wcfg = WatchdogConfig { stall_limit: 30_000, check_interval: 1_000 };
    let report = p
        .run_until_idle_watched(BUDGET, &wcfg)
        .expect_err("a blackholed fabric must be reported as livelock, not quiescence");
    assert!(report.links_in_flight > 0, "blackholed frames should be stuck in the fabric");
    assert!(!report.fpga_idle.iter().all(|i| *i), "a livelocked rack is not idle");
    assert!(report.to_string().contains("LIVELOCK"));
}

/// The full acceptance matrix — 8 seeds × {serial, parallel} × {1, 2, 4}
/// FPGAs, light *and* heavy profiles — run in release by the CI chaos
/// job (`--include-ignored`). On failure the panic message carries the
/// seed/topology coordinates for replay; Watchdog reports land in
/// `target/chaos/` via [`watchdog_report_artifacts`].
#[test]
#[ignore = "heavy matrix: run with --include-ignored (CI chaos job)"]
fn full_chaos_matrix() {
    for profile in [FaultProfile::light(), FaultProfile::heavy()] {
        for fpgas in [1usize, 2, 4] {
            for seed in 0..8u64 {
                let plan = Arc::new(FaultPlan::seeded(seed, profile));
                let spec = FaultSpec::all(plan);
                let mut clean = chaos_platform(fpgas, 2, 4, seed, None);
                let mut serial = chaos_platform(fpgas, 2, 4, seed, Some(spec.clone()));
                let mut parallel = chaos_platform(fpgas, 2, 4, seed, Some(spec));
                run_to_idle(&mut clean, "clean");
                let spent = run_preemptible_to_idle(&mut serial, false, "serial");
                assert_eq!(spent, run_preemptible_to_idle(&mut parallel, true, "parallel"));
                assert_eq!(
                    snapshot(&serial),
                    snapshot(&parallel),
                    "steppers diverged: {fpgas} FPGAs, seed {seed}"
                );
                let want = arch_state(&mut clean);
                assert_eq!(
                    want,
                    arch_state(&mut serial),
                    "serial faulted run corrupted state: {fpgas} FPGAs, seed {seed}"
                );
                assert_eq!(
                    want,
                    arch_state(&mut parallel),
                    "parallel faulted run corrupted state: {fpgas} FPGAs, seed {seed}"
                );
            }
        }
    }
}

/// Writes every livelock report of a blackhole sweep into
/// `target/chaos/` so the CI job can upload them as artifacts.
#[test]
#[ignore = "heavy matrix: run with --include-ignored (CI chaos job)"]
fn watchdog_report_artifacts() {
    let dir = std::path::Path::new("target/chaos");
    std::fs::create_dir_all(dir).expect("create target/chaos");
    for seed in 0..4u64 {
        let plan = Arc::new(FaultPlan::seeded(seed, FaultProfile::blackhole(1_500)));
        let mut p = chaos_platform(2, 2, 4, seed, Some(FaultSpec::links_only(plan)));
        let wcfg = WatchdogConfig { stall_limit: 30_000, check_interval: 1_000 };
        let report = p.run_until_idle_watched(BUDGET, &wcfg).expect_err("blackhole must livelock");
        std::fs::write(dir.join(format!("fault_report_seed{seed}.txt")), report.to_string())
            .expect("write report");
    }
}

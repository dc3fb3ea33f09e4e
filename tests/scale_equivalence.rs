//! Scale differential suite: rack-scale topologies must preserve every
//! equivalence the 4-FPGA platform already proves.
//!
//! Two families of invariants:
//!
//! - **Bit-identity within a topology**: on a network-attached platform
//!   the per-cycle reference and the grouped-epoch driver are one
//!   simulation — same cycle count,
//!   same counters, same memory, byte-identical architectural snapshots
//!   ([`Snapshot::first_divergence`] finds nothing) — at 16 and 64 FPGAs.
//! - **Architectural equivalence across topologies**: the same logical
//!   SoC run over a PCIe star, a switched-Ethernet fabric, or a hybrid of
//!   the two reaches the same architectural state (checksums, retirement,
//!   memory, console bytes). Timing differs — the fabrics have different
//!   latencies — but no committed value may.

use smappic::platform::{Config, Platform, Topology, DRAM_BASE, UART0_BASE};
use smappic::sim::{EthParams, SimRng};
use smappic::tile::{Engine, TraceCore, TraceOp};

const COUNTER: u64 = DRAM_BASE + 0xB000;
const DONE: u64 = DRAM_BASE + 0xB040;
const PRIVATE_BASE: u64 = DRAM_BASE + 0x80_0000;

/// Builds the scale workload on an Ax1x1 prototype under `cfg`'s
/// topology: every FPGA's single core hammers a shared counter homed on
/// node 0 (so all traffic from FPGA > 0 crosses the interconnect),
/// interleaved with private checksummed stores; after a done-counter
/// barrier every core checksums the shared state, and core 0 prints to
/// its console. Construction is deterministic: identical arguments build
/// identical twins, so two topologies differ only in the fabric.
fn scale_platform(cfg: Config, rounds: u64, seed: u64) -> Platform {
    let total = cfg.total_tiles();
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(seed ^ 0x5CA1E);
    for g in 0..total {
        let private = PRIVATE_BASE + g as u64 * 4096;
        let mut ops = Vec::new();
        for i in 0..rounds {
            if rng.chance(0.35) {
                ops.push(TraceOp::Compute(rng.gen_range(24) + 1));
            }
            ops.push(TraceOp::AmoAdd(COUNTER, 1));
            let a = private + (i % 8) * 64;
            ops.push(TraceOp::StoreVal(a, (g as u64) ^ (i.wrapping_mul(0x9E37))));
            if rng.chance(0.5) {
                ops.push(TraceOp::Checksum(a));
            }
        }
        ops.push(TraceOp::AmoAdd(DONE, 1));
        ops.push(TraceOp::SpinUntilGe(DONE, total as u64));
        ops.push(TraceOp::Checksum(COUNTER));
        if g == 0 {
            for &b in b"ok" {
                ops.push(TraceOp::NcStore(UART0_BASE, u64::from(b)));
            }
        }
        let map = p.addr_map(g);
        p.set_engine(g, 0, Box::new(TraceCore::with_addr_map(format!("s{g}"), ops, map)));
    }
    p
}

/// A rack config over `fpgas` FPGAs with a small-format Ethernet fabric:
/// latencies shrunk ~10x from the 25G/100G defaults so fixed-cycle
/// differential runs cross the spine many times without needing long
/// simulations. DRAM stays sparse (the rack default).
fn eth_cfg(fpgas: usize, group_size: usize) -> Config {
    Config::rack(fpgas, 1, 1, Topology::Ethernet(test_params(group_size)))
}

fn hybrid_cfg(fpgas: usize, group_size: usize) -> Config {
    Config::rack(fpgas, 1, 1, Topology::Hybrid(test_params(group_size)))
}

fn test_params(group_size: usize) -> EthParams {
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

/// Asserts two platforms are the *same simulation*: cycle count, full
/// statistics, architectural metrics, and a byte-level architectural
/// snapshot diff that names the first diverging component on failure.
fn assert_bit_identical(a: &Platform, b: &Platform, label: &str) {
    assert_eq!(a.now(), b.now(), "{label}: cycle counts diverged");
    if let Some(section) = a.snapshot().first_divergence(&b.snapshot()) {
        panic!("{label}: architectural state diverged first at `{section}`");
    }
    assert_eq!(a.stats().to_string(), b.stats().to_string(), "{label}: statistics diverged");
    let (am, bm) = (a.metrics().architectural(), b.metrics().architectural());
    assert_eq!(am, bm, "{label}: architectural metrics diverged");
}

/// The cross-topology observables: per-core checksums and retirement,
/// console bytes, and the shared counters. Excludes timing and
/// microarchitectural statistics, which legitimately differ per fabric.
#[derive(Debug, PartialEq, Eq)]
struct ArchState {
    checksums: Vec<u64>,
    retired: Vec<u64>,
    console: Vec<u8>,
    counter: Vec<u8>,
    done: Vec<u8>,
}

fn arch_state(p: &mut Platform) -> ArchState {
    let total = p.config().total_tiles();
    let mut checksums = Vec::new();
    let mut retired = Vec::new();
    for g in 0..total {
        let core = p
            .node(g)
            .tile(0)
            .engine()
            .as_any()
            .downcast_ref::<TraceCore>()
            .expect("scale workload installs trace cores");
        checksums.push(core.checksum());
        retired.push(core.progress());
    }
    let console = p.console_mut(0).take_output();
    ArchState {
        checksums,
        retired,
        console,
        counter: p.read_mem(COUNTER, 8),
        done: p.read_mem(DONE, 8),
    }
}

/// Fixed-cycle stepper differential at `fpgas` FPGAs: per-cycle reference
/// vs the grouped epoch driver.
fn stepper_check(cfg: impl Fn() -> Config, fpgas: usize, cycles: u64, label: &str) {
    let mut reference = scale_platform(cfg(), 2, 0xE7B0);
    reference.set_fast_path(false);
    let mut serial = scale_platform(cfg(), 2, 0xE7B0);
    reference.run(cycles);
    serial.run(cycles);
    assert_bit_identical(&reference, &serial, &format!("{label}: reference vs serial"));
    // The equivalence must not be vacuous: frames crossed the fabric and
    // (at 16+ FPGAs with group_size < fpgas) the spine.
    let s = reference.stats();
    assert!(s.get("eth.frames") > 0, "{label}: no Ethernet traffic exercised");
    if fpgas > 8 {
        let uplink = reference.metrics().counters().get("host.port.eth.sw0.uplink.pushes");
        assert!(uplink > 0, "{label}: no cross-group (spine) traffic exercised");
    }
    // The grouped drivers must have actually epoch-stepped.
    let widths = serial.metrics().histogram("host.epoch_width").map_or(0, |h| h.count());
    assert!(widths > 0, "{label}: serial driver never recorded a grouped epoch");
    // Host memory follows touched pages, not configured capacity: the
    // workload writes one private page per core plus the shared-counter
    // page, so that bounds what the whole rack keeps resident.
    let resident: usize =
        (0..fpgas).map(|n| serial.node(n).chipset().memctl().dram().resident_pages()).sum();
    assert!((1..=fpgas + 1).contains(&resident), "{label}: {resident} DRAM pages resident");
}

#[test]
fn sixteen_fpga_ethernet_reference_and_epoch_driver_bit_identical() {
    stepper_check(|| eth_cfg(16, 8), 16, 12_000, "16-FPGA eth");
}

#[test]
fn sixteen_fpga_hybrid_reference_and_epoch_driver_bit_identical() {
    stepper_check(|| hybrid_cfg(16, 4), 16, 12_000, "16-FPGA hybrid");
    // Hybrid must have used both transports, or the mixed routing path
    // was never exercised.
    let mut p = scale_platform(hybrid_cfg(16, 4), 2, 0xE7B0);
    p.run(12_000);
    let s = p.stats();
    assert!(s.get("eth.frames") > 0, "hybrid: no Ethernet traffic");
    assert!(s.get("shell.out_req") > 0, "hybrid: shells never sent");
    assert!(p.links_in_flight() == 0 || s.get("eth.frames") > 0);
    assert!(p.link_index(0, 1).is_some(), "intra-group pair must keep its PCIe link");
    assert_eq!(p.link_index(3, 4), None, "cross-group pair must not get a PCIe link");
}

#[test]
fn sixty_four_fpga_ethernet_reference_and_epoch_driver_bit_identical() {
    stepper_check(|| eth_cfg(64, 8), 64, 6_000, "64-FPGA eth");
}

#[test]
fn one_epoch_runs_tile_a_reference_run_on_ethernet() {
    let mut serial = scale_platform(eth_cfg(8, 4), 2, 0x57EB);
    serial.set_fast_path(false);
    let mut stepped = scale_platform(eth_cfg(8, 4), 2, 0x57EB);
    let (local, global) = stepped.grouped_lookaheads();
    assert_eq!(local, 12, "local lookahead is the NIC link latency");
    assert_eq!(global, 40, "global lookahead is the spine latency");
    // One drive per epoch.
    for _ in 0..100 {
        stepped.run(global);
    }
    assert_eq!(stepped.now(), 100 * global);
    serial.run(100 * global);
    assert_bit_identical(&serial, &stepped, "one-epoch runs on eth");
}

#[test]
fn topologies_agree_architecturally() {
    // The same logical 4x1x1 SoC over three interconnects: a PCIe star,
    // a pure switched fabric (two switches + spine), and a hybrid (two
    // PCIe-linked pairs joined by Ethernet). Everything guest-visible
    // must agree; cycle counts must not (the fabrics are really
    // different, or this test is comparing a platform to itself).
    let star = Config::new(4, 1, 1);
    let mut a = scale_platform(star, 3, 0x70B3);
    let mut b = scale_platform(eth_cfg(4, 2), 3, 0x70B3);
    let mut c = scale_platform(hybrid_cfg(4, 2), 3, 0x70B3);
    assert!(a.run_until_idle(20_000_000), "PCIe-star run hung");
    assert!(b.run_until_idle(20_000_000), "Ethernet run hung");
    assert!(c.run_until_idle(20_000_000), "hybrid run hung");
    let want = arch_state(&mut a);
    assert_eq!(want, arch_state(&mut b), "Ethernet reached different architectural state");
    assert_eq!(want, arch_state(&mut c), "hybrid reached different architectural state");
    assert_ne!(a.now(), b.now(), "star and fabric quiesced on the same cycle — suspicious");
    // The agreement must not be vacuous: the fabric runs really moved
    // their traffic over Ethernet (the checksums each core folded over
    // COUNTER prove every increment arrived exactly once).
    assert!(b.stats().get("eth.frames") > 0, "Ethernet run never used the fabric");
    assert!(c.stats().get("eth.frames") > 0, "hybrid run never used the fabric");
    assert!(c.stats().get("shell.out_req") > 0, "hybrid run never used its PCIe links");
}

#[test]
fn grouped_idle_warp_lands_on_the_exact_quiescent_cycle() {
    // run_until_idle with an Ethernet fabric must stop on the same cycle
    // a naive step-and-check loop does: the fabric's earliest-event bound
    // may not warp past a switch forwarding step.
    let mut warped = scale_platform(eth_cfg(4, 2), 2, 0x1D7E);
    let mut stepped = scale_platform(eth_cfg(4, 2), 2, 0x1D7E);
    assert!(warped.run_until_idle(20_000_000), "workload hung");
    let mut budget = 20_000_000u64;
    while !stepped.is_idle() && budget > 0 {
        stepped.step();
        budget -= 1;
    }
    assert!(stepped.is_idle(), "reference loop hung");
    assert_eq!(warped.now(), stepped.now(), "idle warp changed the quiescence cycle");
    assert_bit_identical(&warped, &stepped, "idle warp vs stepped");
}

#[test]
fn ethernet_metrics_expose_the_fabric() {
    let mut p = scale_platform(eth_cfg(16, 8), 2, 0x3E7B);
    p.run(12_000);
    let s = p.stats();
    assert!(s.get("eth.frames") > 0, "no frames counted");
    assert!(s.get("eth.bytes") > s.get("eth.frames"), "frame bytes must include payloads");
    let m = p.metrics();
    let port_keys: Vec<_> = m
        .counters()
        .iter()
        .filter(|(n, _)| n.starts_with("host.port.eth."))
        .map(|(n, _)| n)
        .collect();
    assert!(!port_keys.is_empty(), "Ethernet ports must publish flow-control metrics");
    // ... and they must be stepper diagnostics, stripped from the
    // architectural view (pump batching legitimately shifts them).
    assert!(
        !m.architectural().counters().iter().any(|(n, _)| n.contains("port.eth.")),
        "fabric hop meters leaked into architectural metrics"
    );
}

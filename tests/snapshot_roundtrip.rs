//! Snapshot round-trip property suite: a platform restored from a
//! mid-workload snapshot must be indistinguishable from one that never
//! stopped — same architectural state, same `stats()`, same
//! `architectural()` metrics — under the serial stepper, across the
//! per-cycle reference and the epoch driver, and in a (quiet)
//! fault-injected run. Plus the
//! format-evolution guards: unknown trailing fields, unknown sections,
//! version skew, and config skew are typed errors, never UB.

mod common;

use std::sync::Arc;

use common::pinned_platform;
use smappic::platform::{Config, FaultSpec, Platform, Topology, DRAM_BASE};
use smappic::sim::codec;
use smappic::sim::{
    read_stream, CountingSink, EthParams, FaultPlan, FaultProfile, MemorySink, SimRng, SnapDelta,
    SnapError, SnapSink, Snapshot, StreamSink,
};
use smappic::tile::{TraceCore, TraceOp};

const COUNTER: u64 = DRAM_BASE + 0x9000;
const DONE: u64 = DRAM_BASE + 0x9040;

/// Deterministic cross-FPGA contention workload; two calls with the same
/// arguments build identical twins.
fn workload(
    fpgas: usize,
    tiles: usize,
    incs: u64,
    seed: u64,
    fault: Option<FaultSpec>,
) -> Platform {
    let mut cfg = Config::new(fpgas, 1, tiles);
    if let Some(spec) = fault {
        cfg = cfg.with_faults(spec);
    }
    let total = cfg.total_tiles();
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
            ops.push(TraceOp::AmoAdd(COUNTER, 1));
            if rng.chance(0.3) {
                ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g as u64 ^ i));
            }
            if rng.chance(0.25) {
                ops.push(TraceOp::Checksum(private + (i % 8) * 64));
            }
        }
        ops.push(TraceOp::AmoAdd(DONE, 1));
        ops.push(TraceOp::SpinUntilGe(DONE, total as u64));
        ops.push(TraceOp::Checksum(COUNTER));
        p.set_engine(node, tile, Box::new(TraceCore::new(format!("c{g}"), ops)));
    }
    p
}

/// Everything observable about a finished run.
fn observe(p: &Platform) -> (u64, String, Vec<u8>, String) {
    (
        p.now(),
        p.stats().to_string(),
        p.read_mem(COUNTER, 8),
        p.metrics().architectural().snapshot_text(),
    )
}

/// The core property: run `total` cycles straight vs snapshot at `cut`,
/// restore into a *fresh* platform, and finish there. `step` drives every
/// run segment.
fn assert_resume_transparent(
    mk: impl Fn() -> Platform,
    cut: u64,
    total: u64,
    step: impl Fn(&mut Platform, u64),
    label: &str,
) {
    let mut reference = mk();
    step(&mut reference, total);

    let mut first = mk();
    step(&mut first, cut);
    let snap = first.snapshot();
    assert_eq!(snap.cycle(), cut, "{label}: snapshot cycle");

    // Cross-process shape: the snapshot survives its wire form.
    let snap = read_stream(&snap.to_stream_bytes(true)[..]).expect("wire round-trip");

    let mut resumed = mk();
    resumed.restore(&snap).unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    assert_eq!(resumed.now(), cut, "{label}: restored cycle");

    // Restore must be a fixed point: re-snapshotting the restored
    // platform reproduces the identical bytes.
    assert!(resumed.snapshot() == snap, "{label}: save/restore/save is not a fixed point");

    step(&mut resumed, total - cut);
    assert_eq!(observe(&reference), observe(&resumed), "{label}: resumed run diverged");
}

/// A rack twin of [`workload`]: the same contention pattern on an Ax1x1
/// prototype whose FPGAs attach over a switched-Ethernet (or hybrid)
/// fabric. Small-format latencies keep frames crossing the spine many
/// times inside short runs.
fn rack_workload(
    fpgas: usize,
    incs: u64,
    seed: u64,
    topology: Topology,
    fault: Option<FaultSpec>,
) -> Platform {
    let mut cfg = Config::rack(fpgas, 1, 1, topology);
    if let Some(spec) = fault {
        cfg = cfg.with_faults(spec);
    }
    let total = cfg.total_tiles();
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(seed);
    for g in 0..total {
        let mut ops = Vec::new();
        let private = DRAM_BASE + 0x20_0000 + g as u64 * 4096;
        for i in 0..incs {
            if rng.chance(0.4) {
                ops.push(TraceOp::Compute(rng.gen_range(30) + 1));
            }
            ops.push(TraceOp::AmoAdd(COUNTER, 1));
            if rng.chance(0.3) {
                ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g as u64 ^ i));
            }
            if rng.chance(0.25) {
                ops.push(TraceOp::Checksum(private + (i % 8) * 64));
            }
        }
        ops.push(TraceOp::AmoAdd(DONE, 1));
        ops.push(TraceOp::SpinUntilGe(DONE, total as u64));
        ops.push(TraceOp::Checksum(COUNTER));
        let map = p.addr_map(g);
        p.set_engine(g, 0, Box::new(TraceCore::with_addr_map(format!("r{g}"), ops, map)));
    }
    p
}

fn rack_eth_params() -> EthParams {
    EthParams {
        link_latency: 12,
        link_bytes_per_cycle: 32,
        switch_latency: 4,
        uplink_latency: 40,
        uplink_bytes_per_cycle: 128,
        group_size: 2,
        frame_overhead_bytes: 38,
    }
}

#[test]
fn serial_roundtrip_at_random_mid_workload_cycles() {
    let mk = || workload(2, 2, 10, 0x5EED, None);
    // "Random" = drawn from the deterministic sim RNG, so failures replay.
    let mut rng = SimRng::new(0xCAFE);
    let total = 60_000;
    for trial in 0..3 {
        let cut = 1 + rng.gen_range(total - 1);
        assert_resume_transparent(mk, cut, total, |p, n| p.run(n), &format!("serial#{trial}"));
    }
}

#[test]
fn epoch_parallel_roundtrip_at_random_mid_workload_cycles() {
    // `run_parallel` is the name the benchmark drives the epoch driver
    // by; a run it cuts at a random cycle resumes as if never stopped.
    let mk = || workload(2, 2, 10, 0xF00D, None);
    let mut rng = SimRng::new(0xBEEF);
    let total = 60_000;
    for trial in 0..2 {
        let cut = 1 + rng.gen_range(total - 1);
        assert_resume_transparent(
            mk,
            cut,
            total,
            |p, n| p.run_parallel(n),
            &format!("parallel#{trial}"),
        );
    }
}

#[test]
fn quiet_fault_roundtrip_mid_workload() {
    // Fault machinery threaded through every transport, quiet profile:
    // the injectors and the shell sequence guard carry live state
    // (sequence cursors, reorder windows) that the snapshot must cover.
    let plan = Arc::new(FaultPlan::seeded(77, FaultProfile::quiet()));
    let mk = || workload(2, 1, 8, 0xFA17, Some(FaultSpec::all(plan.clone())));
    assert_resume_transparent(mk, 20_011, 50_000, |p, n| p.run(n), "quiet-fault");
}

#[test]
fn light_fault_roundtrip_mid_workload() {
    let plan = Arc::new(FaultPlan::seeded(3, FaultProfile::light()));
    let mk = || workload(2, 1, 6, 0x1167, Some(FaultSpec::all(plan.clone())));
    assert_resume_transparent(mk, 17_777, 60_000, |p, n| p.run(n), "light-fault");
}

/// `mk()` in reference mode: `run` steps every cycle.
fn per_cycle(mk: impl Fn() -> Platform) -> Platform {
    let mut p = mk();
    p.set_fast_path(false);
    p
}

#[test]
fn snapshot_of_an_epoch_driven_run_resumes_to_the_reference_run() {
    // Cut a run the epoch driver advances mid-epoch, finish it the same
    // way from the restored image: the result is the per-cycle
    // reference's uninterrupted run.
    let mk = || workload(2, 2, 8, 0xABCD, None);
    let total = 50_000;
    let cut = 23_456;

    let mut reference = per_cycle(mk);
    reference.run(total);

    let mut first = mk();
    first.run(cut);
    let snap = first.snapshot();

    let mut resumed = mk();
    resumed.restore(&snap).expect("restore");
    resumed.run(total - cut);

    assert_eq!(reference.now(), resumed.now());
    assert_eq!(reference.stats().to_string(), resumed.stats().to_string());
    assert_eq!(
        reference.metrics().architectural().snapshot_text(),
        resumed.metrics().architectural().snapshot_text(),
        "cut-and-resumed epoch-driven run diverged from the reference"
    );
    assert_eq!(reference.snapshot().first_divergence(&resumed.snapshot()), None);
}

#[test]
fn ethernet_serial_roundtrip_cuts_through_in_flight_switch_queues() {
    // The cut must land while frames sit inside the fabric — switch
    // ingress/egress hops, the spine, the remote queues — so the `eth.*`
    // snapshot sections carry real in-flight state, not empty rings.
    let mk = || rack_workload(4, 10, 0xE7A0, Topology::Ethernet(rack_eth_params()), None);
    // Deterministic probe for a cut with traffic mid-fabric: identical
    // twins replay the same schedule, so the cycle found here is stable.
    let mut probe = mk();
    let mut cut = 0;
    while probe.links_in_flight() == 0 {
        probe.run(50);
        cut += 50;
        assert!(cut < 40_000, "workload never put a frame in flight");
    }
    assert!(probe.links_in_flight() > 0, "cut must land with frames in flight");
    let snap = probe.snapshot();
    assert!(
        snap.sections().iter().any(|(n, _)| n.starts_with("eth.sw")),
        "snapshot must carry the fabric's switch sections"
    );
    assert_resume_transparent(mk, cut, 40_000, |p, n| p.run(n), "eth-serial");
}

#[test]
fn ethernet_grouped_roundtrip_mid_workload() {
    // Same property under the grouped-epoch driver, cut mid-epoch:
    // snapshot mid-flight, restore into a fresh platform, finish there —
    // indistinguishable from never having stopped.
    let mk = || rack_workload(4, 10, 0x6E77, Topology::Ethernet(rack_eth_params()), None);
    assert_resume_transparent(mk, 17_401, 40_000, |p, n| p.run(n), "eth-grouped");
}

#[test]
fn hybrid_snapshot_of_an_epoch_driven_run_resumes_to_the_reference_run() {
    // The same on a mixed fabric: PCIe links inside each group, Ethernet
    // between them. The snapshot covers both transports; the grouped
    // driver must pick up exactly where it stopped and land where the
    // per-cycle reference does.
    let mk = || rack_workload(4, 8, 0x4B1D, Topology::Hybrid(rack_eth_params()), None);
    let (total, cut) = (40_000, 21_111);

    let mut reference = per_cycle(mk);
    reference.run(total);

    let mut first = mk();
    first.run(cut);
    let snap = first.snapshot();

    let mut resumed = mk();
    resumed.restore(&snap).expect("restore");
    resumed.run(total - cut);

    assert_eq!(reference.now(), resumed.now());
    assert_eq!(reference.stats().to_string(), resumed.stats().to_string());
    assert_eq!(
        reference.metrics().architectural().snapshot_text(),
        resumed.metrics().architectural().snapshot_text(),
        "hybrid cut-and-resumed run diverged from the reference"
    );
    assert_eq!(reference.snapshot().first_divergence(&resumed.snapshot()), None);
}

#[test]
fn ethernet_fault_roundtrip_covers_jitter_and_sequence_state() {
    // With link faults on the Ethernet streams the switches carry live
    // injector state — jitter buffers holding deferred/ghost frames and
    // per-pair sequence counters — that the `eth.*` sections must
    // round-trip, or the resumed run replays different faults.
    let plan = Arc::new(FaultPlan::seeded(19, FaultProfile::light()));
    let mk = || {
        rack_workload(
            4,
            8,
            0xFAB5,
            Topology::Ethernet(rack_eth_params()),
            Some(FaultSpec::links_only(plan.clone())),
        )
    };
    assert_resume_transparent(mk, 15_973, 45_000, |p, n| p.run(n), "eth-fault");
    let mut p = mk();
    p.run(45_000);
    assert!(
        p.stats().get("fault.eth_delayed") + p.stats().get("fault.eth_duplicated") > 0,
        "fault plan never fired on the Ethernet streams — round-trip was vacuous"
    );
}

// ---------------------------------------------------------------------------
// Format evolution: every mismatch is a typed error.
// ---------------------------------------------------------------------------

/// What a newer build would capture: the real walk of a platform into a
/// [`MemorySink`], with `trailing` bytes appended to the first section (a
/// field this build does not know) and `extra` sections after the walk (a
/// component this build does not have).
struct NewerBuild<'a> {
    inner: MemorySink,
    trailing: &'a [u8],
    extra: &'a [(&'a str, &'a [u8])],
    seen: usize,
}

impl SnapSink for NewerBuild<'_> {
    fn begin(&mut self, version: u32, config_digest: u64, cycle: u64) -> Result<(), SnapError> {
        self.inner.begin(version, config_digest, cycle)
    }

    fn section(&mut self, name: &str, data: &[u8]) -> Result<(), SnapError> {
        self.seen += 1;
        if self.seen == 1 {
            self.inner.section(name, &[data, self.trailing].concat())
        } else {
            self.inner.section(name, data)
        }
    }

    fn finish(&mut self) -> Result<(), SnapError> {
        for (name, data) in self.extra {
            self.inner.section(name, data)?;
        }
        self.inner.finish()
    }
}

fn newer_build_image(p: &Platform, trailing: &[u8], extra: &[(&str, &[u8])]) -> Snapshot {
    let mut sink = NewerBuild { inner: MemorySink::new(), trailing, extra, seen: 0 };
    p.snapshot_to(&mut sink).expect("memory capture");
    sink.inner.into_snapshot()
}

#[test]
fn unknown_trailing_fields_are_a_versioned_error_not_ub() {
    let mut p = workload(1, 2, 4, 0x71, None);
    p.run(5_000);
    let grown = newer_build_image(&p, &[0xA5], &[]);
    let mut fresh = workload(1, 2, 4, 0x71, None);
    match fresh.restore(&grown) {
        Err(SnapError::TrailingBytes(section)) => {
            assert!(!section.is_empty(), "error must name the offending section");
        }
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}

#[test]
fn unknown_sections_are_rejected_by_name() {
    let mut p = workload(1, 1, 4, 0x72, None);
    p.run(5_000);
    let grown = newer_build_image(&p, &[], &[("fpga0.node0.l2_prefetcher", &[1, 2, 3, 4])]);
    let mut fresh = workload(1, 1, 4, 0x72, None);
    match fresh.restore(&grown) {
        Err(SnapError::UnexpectedSection(s)) => assert_eq!(s, "fpga0.node0.l2_prefetcher"),
        other => panic!("expected UnexpectedSection, got {other:?}"),
    }
}

#[test]
fn version_skew_is_rejected_at_the_container() {
    let mut p = workload(1, 1, 4, 0x73, None);
    p.run(1_000);
    let mut wire = p.snapshot().to_stream_bytes(false);
    wire[8..12].copy_from_slice(&999u32.to_le_bytes());
    match read_stream(&wire[..]) {
        Err(SnapError::VersionMismatch { found: 999, .. }) => {}
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn config_skew_is_rejected_before_any_state_is_touched() {
    let mut p = workload(2, 1, 4, 0x74, None);
    p.run(1_000);
    let snap = p.snapshot();
    // Same shape, different Table 2 parameter: digest must differ.
    let mut cfg = Config::new(2, 1, 4);
    cfg.params.dram_latency += 1;
    let mut other = Platform::new(cfg);
    match other.restore(&snap) {
        Err(SnapError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    // And a different shape entirely.
    let mut different = Platform::new(Config::new(1, 1, 4));
    assert!(matches!(different.restore(&snap), Err(SnapError::ConfigMismatch { .. })));
}

#[test]
fn truncated_container_is_a_corrupt_error() {
    let mut p = workload(1, 1, 2, 0x75, None);
    p.run(500);
    let wire = p.snapshot().to_stream_bytes(false);
    for cut in [7, 20, wire.len() / 2, wire.len() - 1] {
        assert!(read_stream(&wire[..cut]).is_err(), "truncation at {cut} must not parse");
    }
}

// ---------------------------------------------------------------------------
// Incremental snapshots: base + delta chain ≡ full snapshot, byte for byte.
// ---------------------------------------------------------------------------

/// The incremental-checkpoint property: drive `mk()` in `strides`
/// segments, emitting a delta at each boundary; applying the chain must
/// reproduce the full snapshot *byte-for-byte* at every boundary, and a
/// fresh platform restored through [`Platform::restore_chain`] must
/// finish the run indistinguishably from the uninterrupted twin, which
/// is returned.
fn assert_delta_chain_equals_full(
    mk: impl Fn() -> Platform,
    stride: u64,
    strides: u64,
    tail: u64,
    step: impl Fn(&mut Platform, u64),
    label: &str,
) -> Platform {
    let mut p = mk();
    let base = p.snapshot();
    let mut prev = base.clone();
    let mut deltas = Vec::new();
    let mut fulls = Vec::new();
    for _ in 0..strides {
        step(&mut p, stride);
        let full = p.snapshot();
        let delta = p.snapshot_delta(&prev).expect("delta between consecutive boundaries");
        // The streamed delta is the one between the two whole snapshots.
        assert_eq!(
            Ok(&delta),
            SnapDelta::between(&prev, &full).as_ref(),
            "{label}: streamed delta"
        );
        deltas.push(delta);
        fulls.push(full.clone());
        prev = full;
    }

    // Byte-for-byte equivalence at every chain boundary.
    let mut acc = base.clone();
    for (i, (d, full)) in deltas.iter().zip(&fulls).enumerate() {
        acc = acc.apply_delta(d).unwrap_or_else(|e| panic!("{label}: delta {i} applies: {e}"));
        assert!(acc == *full, "{label}: base+chain differs from the full snapshot at boundary {i}");
    }

    // Restore a fresh platform through the chain and finish the run.
    let mut resumed = mk();
    resumed
        .restore_chain(&base, &deltas)
        .unwrap_or_else(|e| panic!("{label}: restore_chain failed: {e}"));
    assert_eq!(resumed.now(), stride * strides, "{label}: chain-restored cycle");
    step(&mut resumed, tail);
    step(&mut p, tail);
    assert_eq!(observe(&p), observe(&resumed), "{label}: chain-restored run diverged");
    p
}

/// A bursty 2x2x2 trace fleet: every core alternates a 100–500-cycle
/// compute burst with an atomic on one shared counter, so tiles spend
/// most of the run asleep.
fn bursty_fleet() -> Platform {
    let cfg = Config::new(2, 2, 2);
    let total = cfg.total_tiles();
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(0xB025_7EE9);
    for g in 0..total {
        let ops = (0..150)
            .flat_map(|_| [TraceOp::Compute(rng.gen_range(400) + 100), TraceOp::AmoAdd(COUNTER, 1)])
            .collect();
        p.set_engine(g / 2, (g % 2) as u16, Box::new(TraceCore::new(format!("b{g}"), ops)));
    }
    p
}

#[test]
fn an_llc_slice_whose_tile_sleeps_through_a_stretch_stays_out_of_the_delta() {
    // A tile that skips every cycle of a stretch received no packet in it,
    // so nothing in its LLC slice moved: the slice's section must be
    // byte-identical at both ends, and the delta must leave it out. The
    // stretches are shorter than most compute bursts and end well before
    // the programs do, so the sleepers are cores mid-run.
    const STRETCH: u64 = 250;
    let mut p = bursty_fleet();
    let skipped = |p: &Platform| -> Vec<u64> {
        (0..8).map(|g| p.node(g / 2).tile((g % 2) as u16).skipped_cycles()).collect()
    };
    let mut prev = p.snapshot();
    let mut slept = 0;
    for cut in 0..40 {
        let before = skipped(&p);
        p.run(STRETCH);
        let delta = p.snapshot_delta(&prev).expect("delta between consecutive cuts");
        let full = p.snapshot();
        for (g, (b, a)) in before.into_iter().zip(skipped(&p)).enumerate() {
            if a - b < STRETCH {
                continue; // the tile woke at least once
            }
            let llc = format!("fpga{}.node{}.tile{}.llc", g / 4, g / 2, g % 2);
            assert!(full.section(&llc) == prev.section(&llc), "cut {cut}: {llc} changed");
            assert!(delta.sections().iter().all(|(n, _)| *n != llc), "cut {cut}: {llc} in delta");
            slept += 1;
        }
        prev = full;
    }
    assert!(slept > 0, "no tile slept through a whole stretch: the check has no teeth");
}

/// Counts what a [`StreamSink`] hands its writer, keeping nothing.
#[derive(Default)]
struct WriteMeter {
    total: usize,
    largest: usize,
}

impl std::io::Write for WriteMeter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.total += buf.len();
        self.largest = self.largest.max(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn delta_chain_equals_full_at_16_fpgas_with_light_faults() {
    // Serial stepper, switched-Ethernet rack, link faults live: the
    // deltas must carry dirty injector/sequence state, not just DRAM.
    let plan = Arc::new(FaultPlan::seeded(11, FaultProfile::light()));
    let mk = || {
        rack_workload(
            16,
            6,
            0xD317,
            Topology::Ethernet(rack_eth_params()),
            Some(FaultSpec::links_only(plan.clone())),
        )
    };
    assert_delta_chain_equals_full(mk, 2_000, 4, 6_000, |p, n| p.run(n), "delta-16");
}

#[test]
fn delta_chain_equals_full_at_64_fpgas_under_the_epoch_driver() {
    // The scale point the checkpoint layer was rebuilt for, driven by the
    // grouped-epoch driver.
    let plan = Arc::new(FaultPlan::seeded(29, FaultProfile::light()));
    let mk = || {
        rack_workload(
            64,
            3,
            0xD364,
            Topology::Ethernet(rack_eth_params()),
            Some(FaultSpec::links_only(plan.clone())),
        )
    };
    let p = assert_delta_chain_equals_full(mk, 1_000, 3, 4_000, |p, n| p.run(n), "delta-64");

    // The rack's image streams compressed and in bounded memory: the
    // stored payload stays below 40% of raw, and the sink never hands its
    // writer more than one section at a time — a small fraction of the
    // image, which is why a file-backed checkpoint peaks below an owned
    // `Snapshot` of the same platform.
    let mut meter = WriteMeter::default();
    let mut sink = StreamSink::new(&mut meter, true);
    p.snapshot_to(&mut sink).expect("streaming snapshot");
    let (raw, stored) = (sink.raw_bytes(), sink.stored_bytes());
    assert!(stored * 100 < raw * 40, "64-FPGA image: {stored} B stored vs {raw} B raw");
    assert!(
        meter.largest * 16 < meter.total,
        "largest single write {} B of a {} B stream",
        meter.largest,
        meter.total
    );
}

#[test]
fn out_of_order_deltas_are_rejected_by_base_digest() {
    let mk = || workload(2, 2, 8, 0xD0, None);
    let mut p = mk();
    let s0 = p.snapshot();
    p.run(4_000);
    let s1 = p.snapshot();
    let d01 = p.snapshot_delta(&s0).expect("first delta");
    p.run(4_000);
    let d12 = p.snapshot_delta(&s1).expect("second delta");

    // Skipping a link in the chain must fail, not silently mis-apply.
    match s0.apply_delta(&d12) {
        Err(SnapError::DeltaBaseMismatch { .. }) => {}
        other => panic!("expected DeltaBaseMismatch, got {other:?}"),
    }
    let mut fresh = mk();
    assert!(
        matches!(
            fresh.restore_chain(&s0, &[d12.clone(), d01.clone()]),
            Err(SnapError::DeltaBaseMismatch { .. })
        ),
        "restore_chain must reject a misordered chain"
    );
    // The same links in order restore cleanly.
    let mut fresh = mk();
    fresh.restore_chain(&s0, &[d01, d12]).expect("in-order chain restores");
    assert_eq!(fresh.now(), 8_000);
}

#[test]
fn config_skewed_deltas_are_rejected() {
    let mut p = workload(2, 1, 6, 0xD1, None);
    let s0 = p.snapshot();
    p.run(3_000);
    let d = p.snapshot_delta(&s0).expect("delta");

    // A base from a twin with one Table 2 parameter changed digests
    // differently; the delta must refuse it before touching any section.
    let mut cfg = Config::new(2, 1, 6);
    cfg.params.dram_latency += 1;
    let skewed = Platform::new(cfg).snapshot();
    match skewed.apply_delta(&d) {
        Err(SnapError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    // Nor is a delta taken against it.
    match p.snapshot_delta(&skewed) {
        Err(SnapError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Deltas against a restored image skip the DRAM pages nothing wrote since.
// ---------------------------------------------------------------------------

/// Where [`with_patterned_dram`] puts node `g`'s pages.
fn pattern_addr(p: &Platform, g: usize) -> u64 {
    DRAM_BASE + g as u64 * p.config().params.bytes_per_node + 0x10_0000
}

/// `p` with 32 KiB of seeded bytes in every node's DRAM window, clear of
/// the workloads' addresses, so every `pages` section carries pages.
fn with_patterned_dram(mut p: Platform) -> Platform {
    let mut rng = SimRng::new(0x9A6E_D3A4);
    for g in 0..p.config().total_nodes() {
        let bytes: Vec<u8> = (0..32 * 1024).map(|_| rng.gen_range(256) as u8).collect();
        p.write_mem(pattern_addr(&p, g), &bytes);
    }
    p
}

fn pages_section(g: usize, nodes_per_fpga: usize) -> String {
    format!("fpga{}.node{g}.chipset.memctl.dram.pages", g / nodes_per_fpga)
}

/// The `pages` sections a delta carries, sorted.
fn pages_in(d: &SnapDelta) -> Vec<String> {
    let mut names: Vec<String> = d
        .sections()
        .iter()
        .map(|(n, _)| n)
        .filter(|n| n.ends_with(".dram.pages"))
        .cloned()
        .collect();
    names.sort();
    names
}

fn sorted(mut names: Vec<String>) -> Vec<String> {
    names.sort();
    names
}

/// Cuts `mk()` at `cut`, restores a fresh twin from the stream image and
/// runs it `stride` cycles. Deltas against that image leave out exactly
/// the `pages` sections of the nodes nothing wrote to, a backdoor write
/// puts its node's section back, and a delta against any other image
/// leaves out nothing; each delta reproduces `snapshot()` byte for byte.
fn assert_untouched_pages_are_elided(
    mk: impl Fn() -> Platform,
    cut: u64,
    stride: u64,
    label: &str,
) {
    let mut src = mk();
    src.run(cut);
    let wire = src.snapshot().to_stream_bytes(true);
    let base = read_stream(&wire[..]).expect("wire round-trip");
    let mut p = mk();
    p.restore_from(&wire[..]).unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    p.run(stride);

    let (nodes, per_fpga) = (p.config().total_nodes(), p.config().nodes_per_fpga);
    let dram = |p: &Platform, g: usize| p.node(g).chipset().memctl().dram().pages_match();
    let untouched: Vec<usize> =
        (0..nodes).filter(|&g| dram(&p, g) == Some(base.state_digest())).collect();
    assert!(!untouched.is_empty(), "{label}: every node's DRAM was written: no teeth");
    let delta = p.snapshot_delta(&base).expect("delta against the restored image");
    let full = p.snapshot();
    assert!(base.apply_delta(&delta).expect("applies") == full, "{label}: base + delta");
    let carried = pages_in(&delta);
    for &g in &untouched {
        let name = pages_section(g, per_fpga);
        assert!(full.section(&name).is_some_and(|s| s.len() > 32 * 1024), "{label}: {name}");
        assert!(!carried.contains(&name), "{label}: untouched {name} in the delta");
    }

    // A backdoor write puts exactly its node's section back.
    let g = untouched[untouched.len() / 2];
    p.write_mem(pattern_addr(&p, g), &[0x5A; 8]);
    assert_eq!(dram(&p, g), None, "{label}: node {g} still claims its image");
    let dirtied = p.snapshot_delta(&base).expect("delta after a backdoor write");
    let full = p.snapshot();
    assert!(base.apply_delta(&dirtied).expect("applies") == full, "{label}: base + dirtied");
    let mut expected = carried;
    expected.push(pages_section(g, per_fpga));
    assert_eq!(pages_in(&dirtied), sorted(expected), "{label}: pages after the write");

    // Against another image every node's pages differ, and every one of
    // them is compared and sent.
    let mut twin = mk();
    for g in 0..nodes {
        twin.write_mem(pattern_addr(&twin, g) + 8, &[0xC3; 8]);
    }
    twin.run(cut);
    let other = read_stream(&twin.snapshot().to_stream_bytes(true)[..]).expect("twin image");
    let d = p.snapshot_delta(&other).expect("delta against another image");
    assert!(other.apply_delta(&d).expect("applies") == full, "{label}: other + delta");
    let all: Vec<String> = (0..nodes).map(|g| pages_section(g, per_fpga)).collect();
    assert_eq!(pages_in(&d), sorted(all), "{label}: pages against another image");
}

/// The checkpoint benchmark's rounds as a chain: each round restores a
/// fresh twin from the last image, runs it `stride` cycles and takes the
/// delta against that image, untouched pages elided. Restoring the first
/// image plus the chain must land where the uninterrupted run does.
fn assert_restored_rounds_chain_to_the_uninterrupted_run(
    mk: impl Fn() -> Platform,
    cut: u64,
    stride: u64,
    rounds: usize,
    label: &str,
) {
    let mut reference = mk();
    reference.run(cut);
    let mut wire = reference.snapshot().to_stream_bytes(true);
    let first = read_stream(&wire[..]).expect("first image");
    let mut deltas = Vec::new();
    for _ in 0..rounds {
        let image = read_stream(&wire[..]).expect("round image");
        let mut next = mk();
        next.restore_from(&wire[..]).expect("round restore");
        next.run(stride);
        reference.run(stride);
        deltas.push(next.snapshot_delta(&image).expect("round delta"));
        wire = next.snapshot().to_stream_bytes(true);
    }
    let mut resumed = mk();
    resumed.restore_chain(&first, &deltas).expect("restore_chain");
    assert_eq!(resumed.snapshot().first_divergence(&reference.snapshot()), None, "{label}");
    resumed.run(stride);
    reference.run(stride);
    assert_eq!(observe(&reference), observe(&resumed), "{label}: chain-restored run diverged");
}

#[test]
fn deltas_against_a_restored_image_skip_untouched_pages_on_a_2x2x2() {
    let mk = || with_patterned_dram(bursty_fleet());
    assert_untouched_pages_are_elided(mk, 3_000, 1_500, "2x2x2");
    assert_restored_rounds_chain_to_the_uninterrupted_run(mk, 3_000, 1_500, 3, "2x2x2 chain");
}

#[test]
fn deltas_against_a_restored_image_skip_untouched_pages_on_the_16_fpga_rack() {
    let mk = || {
        with_patterned_dram(rack_workload(
            16,
            6,
            0xE1DE,
            Topology::Ethernet(rack_eth_params()),
            None,
        ))
    };
    assert_untouched_pages_are_elided(mk, 2_000, 1_500, "rack16");
    assert_restored_rounds_chain_to_the_uninterrupted_run(mk, 2_000, 1_500, 3, "rack16 chain");
}

/// A real walk of a platform into a [`MemorySink`], with an all-zero page
/// appended to the `pages` section `padded`: a valid image that restore
/// reads back (it elides the page) but that no save writes.
struct ZeroPagePadded<'a> {
    inner: MemorySink,
    padded: &'a str,
}

impl SnapSink for ZeroPagePadded<'_> {
    fn begin(&mut self, version: u32, config_digest: u64, cycle: u64) -> Result<(), SnapError> {
        self.inner.begin(version, config_digest, cycle)
    }

    fn section(&mut self, name: &str, data: &[u8]) -> Result<(), SnapError> {
        if name != self.padded {
            return self.inner.section(name, data);
        }
        // `count: u64`, then `(index: u64, len: u32, 4 KiB)` per page in
        // ascending index order: append the page after the last one.
        let record = 8 + 4 + 4096;
        let count = u64::from_le_bytes(data[..8].try_into().expect("count"));
        let last = &data[data.len() - record..][..8];
        let idx = u64::from_le_bytes(last.try_into().expect("index")) + 1;
        let mut grown = (count + 1).to_le_bytes().to_vec();
        grown.extend_from_slice(&data[8..]);
        grown.extend_from_slice(&idx.to_le_bytes());
        grown.extend_from_slice(&4096u32.to_le_bytes());
        grown.extend_from_slice(&[0; 4096]);
        self.inner.section(name, &grown)
    }

    fn finish(&mut self) -> Result<(), SnapError> {
        self.inner.finish()
    }
}

/// An image whose `pages` section holds a page restore drops and save
/// never writes names no DRAM that restores it: a delta against it, and a
/// compressed re-save, treat that section like any written one, whether
/// the image was restored from the stream or from the snapshot read back.
#[test]
fn a_pages_section_holding_a_zero_page_is_never_declared_unchanged() {
    let mk = || with_patterned_dram(bursty_fleet());
    let mut src = mk();
    src.run(3_000);
    let padded = pages_section(1, src.config().nodes_per_fpga);
    let mut sink = ZeroPagePadded { inner: MemorySink::new(), padded: &padded };
    src.snapshot_to(&mut sink).expect("memory capture");
    let wire = sink.inner.into_snapshot().to_stream_bytes(true);
    let base = read_stream(&wire[..]).expect("the padded image reads back");

    let from_stream = {
        let mut p = mk();
        p.restore_from(&wire[..]).expect("restore_from accepts the padded image");
        p
    };
    let from_snapshot = {
        let mut p = mk();
        p.restore(&read_stream(&wire[..]).expect("reads back")).expect("restore accepts it");
        p
    };
    for (p, how) in [(from_stream, "restore_from"), (from_snapshot, "restore")] {
        let delta = p.snapshot_delta(&read_stream(&wire[..]).expect("base")).expect("delta");
        let full = p.snapshot();
        assert_eq!(Ok(&delta), SnapDelta::between(&base, &full).as_ref(), "{how}: delta");
        assert_eq!(pages_in(&delta), std::slice::from_ref(&padded), "{how}: pages in the delta");
        assert!(base.apply_delta(&delta).expect("applies") == full, "{how}: base + delta");
        let dram = |g: usize| p.node(g).chipset().memctl().dram().pages_match();
        assert_eq!(dram(1), None, "{how}: the padded node claims the image");
        assert_eq!(dram(0), Some(base.state_digest()), "{how}: an untouched node lost it");
        let (resaved, _) = compressed_save(&p);
        assert!(read_stream(&resaved[..]) == Ok(full), "{how}: the re-save reads back");
    }
}

// ---------------------------------------------------------------------------
// A compressed save of a restored platform writes the untouched pages as
// the payload they were restored from.
// ---------------------------------------------------------------------------

/// `p` with [`with_patterned_dram`]'s 32 KiB per node filled with runs of
/// 16 equal bytes instead, and one seeded byte per page, so every `pages`
/// section is stored compressed.
fn with_compressible_dram(mut p: Platform) -> Platform {
    let mut rng = SimRng::new(0xC0DE_D4A3);
    for g in 0..p.config().total_nodes() {
        let mut bytes: Vec<u8> = (0..32 * 1024).map(|i| (g + i / 16) as u8).collect();
        for page in bytes.chunks_mut(4096) {
            page[0] = rng.gen_range(256) as u8;
        }
        p.write_mem(pattern_addr(&p, g), &bytes);
    }
    p
}

/// A compressed save of `p`, and how many of its stored bytes were
/// handed-off payloads rather than encoder output.
fn compressed_save(p: &Platform) -> (Vec<u8>, u64) {
    let mut wire = Vec::new();
    let mut sink = StreamSink::new(&mut wire, true);
    p.snapshot_to(&mut sink).expect("compressed save");
    let reused = sink.reused_bytes();
    (wire, reused)
}

/// The payload bytes a compressed stream stores section `name` of `snap`
/// as, when the encoder shrinks it; 0 when it is stored raw.
fn compressed_len(snap: &Snapshot, name: &str) -> u64 {
    let raw = snap.section(name).unwrap_or_else(|| panic!("no section {name}"));
    let packed = codec::compress(raw);
    if packed.len() < raw.len() {
        packed.len() as u64
    } else {
        0
    }
}

/// Cuts `mk()` at `cut` and restores two fresh twins from the compressed
/// image; they and the uninterrupted platform run `stride` cycles. A
/// twin's compressed save is byte-identical to the uninterrupted
/// platform's and writes each untouched node's `pages` section as the
/// payload it was restored from, after a counting walk, a raw save, two
/// in-memory captures and a delta have all left that payload in place.
/// The save spends it: the next one compresses again, to the same bytes.
/// A one-byte write into one node, in both platforms, re-encodes exactly
/// that node's section.
fn assert_resaves_reuse_the_restored_pages(
    mk: impl Fn() -> Platform,
    cut: u64,
    stride: u64,
    label: &str,
) {
    let mut reference = mk();
    reference.run(cut);
    let (wire, reused) = compressed_save(&reference);
    assert_eq!(reused, 0, "{label}: a platform never restored has nothing to reuse");
    let base = read_stream(&wire[..]).expect("wire round-trip");
    let twin = || {
        let mut p = mk();
        p.restore_from(&wire[..]).unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
        p.run(stride);
        p
    };
    let (p, mut q) = (twin(), twin());
    reference.run(stride);

    let (nodes, per_fpga) = (p.config().total_nodes(), p.config().nodes_per_fpga);
    let dram = |p: &Platform, g: usize| p.node(g).chipset().memctl().dram().pages_match();
    let untouched: Vec<usize> =
        (0..nodes).filter(|&g| dram(&p, g) == Some(base.state_digest())).collect();
    assert!(!untouched.is_empty(), "{label}: every node's DRAM was written: no teeth");
    let pages_len = |g: usize| compressed_len(&base, &pages_section(g, per_fpga));
    let expected: u64 = untouched.iter().map(|&g| pages_len(g)).sum();
    assert!(expected > 0, "{label}: no untouched pages section was stored compressed");

    // Only a compressing sink spends the hand-off.
    p.snapshot_to(&mut CountingSink::new()).expect("counting walk");
    p.snapshot_to(&mut StreamSink::new(Vec::new(), false)).expect("raw save");
    p.snapshot_to(&mut MemorySink::new()).expect("memory sink");
    let _ = p.snapshot();
    p.snapshot_delta(&base).expect("delta against the restored image");

    let (uninterrupted, _) = compressed_save(&reference);
    let (resaved, reused) = compressed_save(&p);
    assert!(resaved == uninterrupted, "{label}: the re-save differs from the uninterrupted save");
    assert_eq!(reused, expected, "{label}: payload bytes written as restored");
    let (again, reused) = compressed_save(&p);
    assert!(again == uninterrupted, "{label}: the second re-save differs");
    assert_eq!(reused, 0, "{label}: the first save spent the hand-off");

    let g = untouched[untouched.len() / 2];
    let at = pattern_addr(&q, g);
    let flipped = [!q.read_mem(at, 1)[0]];
    q.write_mem(at, &flipped);
    reference.write_mem(at, &flipped);
    let (uninterrupted, _) = compressed_save(&reference);
    let (resaved, reused) = compressed_save(&q);
    assert!(resaved == uninterrupted, "{label}: the re-save after a write differs");
    assert_eq!(reused, expected - pages_len(g), "{label}: only node {g}'s pages re-encoded");
}

#[test]
fn resaving_a_restored_image_reuses_the_untouched_pages_on_a_2x2x2() {
    let mk = || with_compressible_dram(bursty_fleet());
    assert_resaves_reuse_the_restored_pages(mk, 3_000, 1_500, "2x2x2");
}

#[test]
fn resaving_a_restored_image_reuses_the_untouched_pages_on_the_16_fpga_rack() {
    let mk = || {
        with_compressible_dram(rack_workload(
            16,
            6,
            0xE1DE,
            Topology::Ethernet(rack_eth_params()),
            None,
        ))
    };
    assert_resaves_reuse_the_restored_pages(mk, 2_000, 1_500, "rack16");
}

// ---------------------------------------------------------------------------
// Streaming sinks: checkpoint through a file, restore from it.
// ---------------------------------------------------------------------------

#[test]
fn streaming_sink_round_trips_through_a_file_and_rejects_truncation() {
    let mk = || workload(2, 2, 8, 0x57E4, None);
    let mut p = mk();
    p.run(12_000);

    let path =
        std::env::temp_dir().join(format!("smappic-roundtrip-{}.smapstrm", std::process::id()));
    {
        let file = std::fs::File::create(&path).expect("create stream file");
        let mut sink = StreamSink::new(std::io::BufWriter::new(file), true);
        p.snapshot_to(&mut sink).expect("streaming snapshot");
        assert!(
            sink.stored_bytes() < sink.raw_bytes(),
            "compression must pay on this image ({} stored vs {} raw)",
            sink.stored_bytes(),
            sink.raw_bytes()
        );
    }

    let bytes = std::fs::read(&path).expect("read stream back");
    let mut resumed = mk();
    resumed.restore_from(&bytes[..]).expect("streaming restore");
    assert!(resumed.snapshot() == p.snapshot(), "a streamed image must restore bit-identically");

    // A truncated stream never validates: the count/digest trailer is
    // gone, so restore fails instead of resuming half a platform.
    for cut in [7, 20, bytes.len() / 2, bytes.len() - 1] {
        let mut victim = mk();
        assert!(
            victim.restore_from(&bytes[..cut]).is_err(),
            "stream truncation at {cut} must not restore"
        );
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// The pinned image: one fixed platform, captured every way there is. Its
// size, section count and state digest are pinned in the behaviour ledger
// (`results/ledger/pinned_image.txt`, `tests/ledger.rs`).
// ---------------------------------------------------------------------------

#[test]
fn pinned_image_is_byte_stable_and_every_capture_path_agrees() {
    let p = pinned_platform();
    let mut count = CountingSink::new();
    p.snapshot_to(&mut count).expect("counting walk");
    assert!(!p.is_idle(), "the pin must cut a platform with work in flight");
    let mut again = CountingSink::new();
    p.snapshot_to(&mut again).expect("second counting walk");
    assert_eq!(
        (again.raw_bytes(), again.sections(), again.state_digest()),
        (count.raw_bytes(), count.sections(), count.state_digest()),
        "capturing an image must not change it"
    );

    // snapshot() == snapshot_to(MemorySink) == stream round trip, section
    // for section.
    let walked = p.snapshot();
    let mut mem = MemorySink::new();
    p.snapshot_to(&mut mem).expect("memory sink");
    let streamed = mem.into_snapshot();
    let mut wire = Vec::new();
    p.snapshot_to(&mut StreamSink::new(&mut wire, true)).expect("stream sink");
    let read_back = read_stream(&wire[..]).expect("stream reads back");
    for other in [&streamed, &read_back] {
        assert_eq!(walked.sections().len(), other.sections().len());
        for (a, b) in walked.sections().iter().zip(other.sections()) {
            assert_eq!(a.0, b.0, "section order");
            assert_eq!(a.1, b.1, "section '{}' bytes", a.0);
        }
    }
    assert_eq!(walked.state_digest(), count.state_digest());
    assert_eq!(read_back.state_digest(), count.state_digest());
}

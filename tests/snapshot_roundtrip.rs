//! Snapshot round-trip property suite: a platform restored from a
//! mid-workload snapshot must be indistinguishable from one that never
//! stopped — same architectural state, same `stats()`, same
//! `architectural()` metrics — under the serial stepper, the
//! epoch-parallel stepper, and a (quiet) fault-injected run. Plus the
//! format-evolution guards: unknown trailing fields, unknown sections,
//! version skew, and config skew are typed errors, never UB.

mod common;

use std::sync::Arc;

use common::pinned_platform;
use smappic::platform::{Config, FaultSpec, Platform, Topology, DRAM_BASE};
use smappic::sim::{
    CountingSink, EthParams, FaultPlan, FaultProfile, MemorySink, SimRng, SnapDelta, SnapError,
    Snapshot, StreamSink,
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
/// run segment (serial or epoch-parallel).
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
    assert_eq!(snap.cycle, cut, "{label}: snapshot cycle");

    // Cross-process shape: the snapshot survives its wire form.
    let wire = snap.to_bytes();
    let snap = Snapshot::from_bytes(&wire).expect("wire round-trip");

    let mut resumed = mk();
    resumed.restore(&snap).unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    assert_eq!(resumed.now(), cut, "{label}: restored cycle");

    // Restore must be a fixed point: re-snapshotting the restored
    // platform reproduces the identical bytes.
    let again = resumed.snapshot();
    assert_eq!(again.to_bytes(), wire, "{label}: save/restore/save is not a fixed point");

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

#[test]
fn snapshot_under_serial_resumes_under_parallel() {
    // Cross-stepper resume: checkpoint a serial run, finish it
    // epoch-parallel. Architectural equality must still hold.
    let mk = || workload(2, 2, 8, 0xABCD, None);
    let total = 50_000;
    let cut = 23_456;

    let mut reference = mk();
    reference.run(total);

    let mut first = mk();
    first.run(cut);
    let snap = first.snapshot();

    let mut resumed = mk();
    resumed.restore(&snap).expect("restore");
    resumed.run_parallel(total - cut);

    assert_eq!(reference.now(), resumed.now());
    assert_eq!(reference.stats().to_string(), resumed.stats().to_string());
    assert_eq!(
        reference.metrics().architectural().snapshot_text(),
        resumed.metrics().architectural().snapshot_text(),
        "cross-stepper resume diverged"
    );
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
fn ethernet_parallel_grouped_roundtrip_mid_workload() {
    // Same property under the parallel grouped-epoch driver: snapshot a
    // parallel run mid-flight, restore into a fresh platform, finish in
    // parallel — indistinguishable from never having stopped.
    let mk = || rack_workload(4, 10, 0x6E77, Topology::Ethernet(rack_eth_params()), None);
    assert_resume_transparent(mk, 17_401, 40_000, |p, n| p.run_parallel(n), "eth-parallel");
}

#[test]
fn hybrid_snapshot_under_serial_resumes_under_parallel() {
    // Cross-stepper resume on a mixed fabric: PCIe links inside each
    // group, Ethernet between them. The snapshot covers both transports;
    // the grouped-parallel driver must pick up exactly where the serial
    // one stopped.
    let mk = || rack_workload(4, 8, 0x4B1D, Topology::Hybrid(rack_eth_params()), None);
    let (total, cut) = (40_000, 21_111);

    let mut reference = mk();
    reference.run(total);

    let mut first = mk();
    first.run(cut);
    let snap = first.snapshot();

    let mut resumed = mk();
    resumed.restore(&snap).expect("restore");
    resumed.run_parallel(total - cut);

    assert_eq!(reference.now(), resumed.now());
    assert_eq!(reference.stats().to_string(), resumed.stats().to_string());
    assert_eq!(
        reference.metrics().architectural().snapshot_text(),
        resumed.metrics().architectural().snapshot_text(),
        "hybrid cross-stepper resume diverged"
    );
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

/// Offset of the section table in the wire form: magic(8) + version(4) +
/// digest(8) + cycle(8) + count(4).
const WIRE_SECTIONS_AT: usize = 32;
const WIRE_COUNT_AT: usize = 28;

/// Appends one unknown trailing byte to the first section of a serialized
/// snapshot (simulating a field written by a newer build).
fn grow_first_section(wire: &[u8]) -> Vec<u8> {
    let mut out = wire.to_vec();
    let nlen = u32::from_le_bytes(out[WIRE_SECTIONS_AT..WIRE_SECTIONS_AT + 4].try_into().unwrap())
        as usize;
    let dlen_at = WIRE_SECTIONS_AT + 4 + nlen;
    let dlen = u32::from_le_bytes(out[dlen_at..dlen_at + 4].try_into().unwrap()) as usize;
    out[dlen_at..dlen_at + 4].copy_from_slice(&((dlen + 1) as u32).to_le_bytes());
    out.insert(dlen_at + 4 + dlen, 0xA5);
    out
}

/// Appends a whole unknown section (a component a newer build snapshots).
fn append_unknown_section(wire: &[u8], name: &str) -> Vec<u8> {
    let mut out = wire.to_vec();
    let count = u32::from_le_bytes(out[WIRE_COUNT_AT..WIRE_COUNT_AT + 4].try_into().unwrap());
    out[WIRE_COUNT_AT..WIRE_COUNT_AT + 4].copy_from_slice(&(count + 1).to_le_bytes());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&4u32.to_le_bytes());
    out.extend_from_slice(&[1, 2, 3, 4]);
    out
}

#[test]
fn unknown_trailing_fields_are_a_versioned_error_not_ub() {
    let mut p = workload(1, 2, 4, 0x71, None);
    p.run(5_000);
    let wire = p.snapshot().to_bytes();
    let grown = Snapshot::from_bytes(&grow_first_section(&wire)).expect("container still parses");
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
    let wire = p.snapshot().to_bytes();
    let grown = Snapshot::from_bytes(&append_unknown_section(&wire, "fpga0.node0.l2_prefetcher"))
        .expect("container still parses");
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
    let mut wire = p.snapshot().to_bytes();
    wire[8..12].copy_from_slice(&999u32.to_le_bytes());
    match Snapshot::from_bytes(&wire) {
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
    let wire = p.snapshot().to_bytes();
    for cut in [7, 20, wire.len() / 2, wire.len() - 1] {
        assert!(Snapshot::from_bytes(&wire[..cut]).is_err(), "truncation at {cut} must not parse");
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

    // Deltas survive their wire form, like full snapshots do.
    let deltas: Vec<SnapDelta> = deltas
        .iter()
        .map(|d| SnapDelta::from_bytes(&d.to_bytes()).expect("delta wire round-trip"))
        .collect();

    // Byte-for-byte equivalence at every chain boundary.
    let mut acc = base.clone();
    for (i, (d, full)) in deltas.iter().zip(&fulls).enumerate() {
        acc = acc.apply_delta(d).unwrap_or_else(|e| panic!("{label}: delta {i} applies: {e}"));
        assert_eq!(
            acc.to_bytes(),
            full.to_bytes(),
            "{label}: base+chain differs from the full snapshot at boundary {i}"
        );
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
fn delta_chain_equals_full_at_64_fpgas_under_the_parallel_stepper() {
    // The scale point the checkpoint layer was rebuilt for, driven by the
    // grouped-epoch parallel stepper.
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
    let p =
        assert_delta_chain_equals_full(mk, 1_000, 3, 4_000, |p, n| p.run_parallel(n), "delta-64");

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
    let wire = p.snapshot_delta(&s0).expect("delta").to_bytes();
    let d = SnapDelta::from_bytes(&wire).expect("delta wire round-trip");

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

    // And a truncated delta wire never parses.
    for cut in [7, 20, wire.len() / 2, wire.len() - 1] {
        assert!(
            SnapDelta::from_bytes(&wire[..cut]).is_err(),
            "delta truncation at {cut} must not parse"
        );
    }
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
    assert_eq!(
        resumed.snapshot().to_bytes(),
        p.snapshot().to_bytes(),
        "a streamed image must restore bit-identically"
    );

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
// Wire pin: the image of one fixed platform, recorded before the
// cursor-based writer/reader replaced the map-keyed ones.
// ---------------------------------------------------------------------------

/// `CountingSink::{raw_bytes, sections, state_digest}` of
/// [`pinned_platform`] (a seeded 2x2x2 prototype cut mid-contention at
/// cycle 2,500; `tests/common`). The sizes were recorded at commit 4fb281e; the
/// digest was re-pinned when `SNAP_VERSION` 2 replaced the byte-serial
/// FNV-1a state digest with the word-at-a-time one (the bytes it covers
/// did not change). These move only when the image format does, and then
/// `SNAP_VERSION` moves with them.
const PINNED_RAW_BYTES: u64 = 236_454;
const PINNED_SECTIONS: usize = 102;
const PINNED_STATE_DIGEST: u64 = 0x2082_059d_c51b_fbaf;

#[test]
fn pinned_image_is_byte_stable_and_every_capture_path_agrees() {
    let p = pinned_platform();
    let mut count = CountingSink::new();
    p.snapshot_to(&mut count).expect("counting walk");
    assert!(!p.is_idle(), "the pin must cut a platform with work in flight");
    assert_eq!(count.raw_bytes(), PINNED_RAW_BYTES);
    assert_eq!(count.sections(), PINNED_SECTIONS);
    assert_eq!(count.state_digest(), PINNED_STATE_DIGEST);

    // snapshot() == snapshot_to(MemorySink) == stream round trip, section
    // for section.
    let walked = p.snapshot();
    let mut mem = MemorySink::new();
    p.snapshot_to(&mut mem).expect("memory sink");
    let streamed = mem.into_snapshot();
    let mut wire = Vec::new();
    p.snapshot_to(&mut StreamSink::new(&mut wire, true)).expect("stream sink");
    let read_back = Snapshot::from_stream_bytes(&wire).expect("stream reads back");
    for other in [&streamed, &read_back] {
        assert_eq!(walked.sections().len(), other.sections().len());
        for (a, b) in walked.sections().iter().zip(other.sections()) {
            assert_eq!(a.0, b.0, "section order");
            assert_eq!(a.1, b.1, "section '{}' bytes", a.0);
        }
    }
    assert_eq!(walked.state_digest(), PINNED_STATE_DIGEST);
    assert_eq!(read_back.state_digest(), PINNED_STATE_DIGEST);
}

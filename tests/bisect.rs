//! First-divergence bisector tests: on perturbed twins the bisector must
//! report exactly the epoch, cycle, and component a brute-force
//! cycle-by-cycle scan finds, at logarithmic snapshot-comparison cost.

use smappic::platform::{bisect_first_divergence, Config, Platform, DRAM_BASE};
use smappic::tile::{TraceCore, TraceOp};

/// A small two-node workload: each tile increments a shared counter and
/// walks a private buffer. Deterministic construction.
fn workload(cfg: Config) -> Platform {
    let tiles = cfg.tiles_per_node;
    let total = cfg.total_tiles();
    let counter = DRAM_BASE + 0x9000;
    let mut p = Platform::new(cfg);
    for g in 0..total {
        let (node, tile) = (g / tiles, (g % tiles) as u16);
        let private = DRAM_BASE + 0x10_0000 + g as u64 * 4096;
        let mut ops = Vec::new();
        for i in 0..20u64 {
            ops.push(TraceOp::Compute(3 + (g as u64 % 5)));
            ops.push(TraceOp::AmoAdd(counter, 1));
            ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g as u64 ^ i));
            ops.push(TraceOp::Load(private + (i % 8) * 64));
        }
        p.set_engine(node, tile, Box::new(TraceCore::new(format!("b{g}"), ops)));
    }
    p
}

/// Brute-force reference: step both serially one cycle at a time and
/// return the first divergent (cycle, component).
fn linear_first_divergence(
    a: &mut Platform,
    b: &mut Platform,
    max_cycles: u64,
) -> Option<(u64, String)> {
    if let Some(c) = a.snapshot().first_divergence(&b.snapshot()) {
        return Some((a.now(), c));
    }
    for _ in 0..max_cycles {
        a.run(1);
        b.run(1);
        let (x, y) = (a.snapshot(), b.snapshot());
        if let Some(c) = x.first_divergence(&y) {
            return Some((x.cycle, c));
        }
    }
    None
}

#[test]
fn identical_twins_report_no_divergence() {
    let mut a = workload(Config::new(2, 1, 2));
    let mut b = workload(Config::new(2, 1, 2));
    let report = bisect_first_divergence(&mut a, &mut b, 20_000, 1_000).expect("no restore errors");
    assert!(report.is_none(), "identical twins must not diverge: {report:?}");
}

#[test]
fn fast_and_reference_twins_are_equivalent_under_the_bisector() {
    // The bisector's headline use: checking the epoch driver against the
    // per-cycle reference. They are bit-identical by contract, so no
    // divergence.
    let mut a = workload(Config::new(2, 1, 2));
    let mut b = workload(Config::new(2, 1, 2));
    b.set_fast_path(false);
    let report = bisect_first_divergence(&mut a, &mut b, 30_000, 2_000).expect("no restore errors");
    assert!(report.is_none(), "steppers diverged: {report:?}");
}

#[test]
fn perturbed_dram_latency_is_pinpointed_to_the_memory_controller() {
    // Two configs someone might believe equivalent: identical except one
    // cycle of DRAM latency. Architectural state starts identical and
    // diverges the moment the first request is queued with a different
    // ready time. The bisector must land on the exact cycle and name a
    // memory-path component — matching the brute-force scan.
    let slow = || {
        let mut cfg = Config::new(2, 1, 2);
        cfg.params.dram_latency += 1;
        cfg
    };
    let mut ra = workload(Config::new(2, 1, 2));
    let mut rb = workload(slow());
    let (ref_cycle, ref_component) =
        linear_first_divergence(&mut ra, &mut rb, 20_000).expect("perturbed twin must diverge");

    let mut a = workload(Config::new(2, 1, 2));
    let mut b = workload(slow());
    let report = bisect_first_divergence(&mut a, &mut b, 20_000, 1_000)
        .expect("no restore errors")
        .expect("perturbed twin must diverge");

    assert_eq!(report.cycle, ref_cycle, "bisector missed the first divergent cycle");
    assert_eq!(report.component, ref_component, "bisector named the wrong component");
    assert_eq!(report.epoch, ref_cycle / 1_000, "epoch must contain the divergent cycle");
    assert!(
        report.component.contains("memctl") || report.component.contains("chipset"),
        "a DRAM latency perturbation should surface in the memory path, got '{}'",
        report.component
    );
    // Logarithmic probing: a 20-boundary pass needs ~7 probes, far fewer
    // than the 20 a linear boundary walk would spend.
    assert!(report.probes <= 8, "binary search regressed to {} probes", report.probes);
    // Both platforms are parked at the divergent cycle for inspection.
    assert_eq!(a.now(), report.cycle);
    assert_eq!(b.now(), report.cycle);
}

#[test]
fn perturbed_initial_memory_diverges_at_the_starting_state() {
    let mut a = workload(Config::new(1, 1, 2));
    let mut b = workload(Config::new(1, 1, 2));
    // One byte of pre-loaded memory differs: the starting snapshots
    // already disagree, which the bisector reports as epoch 0 with no
    // lockstep pass.
    a.write_mem(DRAM_BASE + 0x9100, &[1]);
    b.write_mem(DRAM_BASE + 0x9100, &[2]);
    let report = bisect_first_divergence(&mut a, &mut b, 5_000, 500)
        .expect("no restore errors")
        .expect("twins differ from the start");
    assert_eq!(report.epoch, 0);
    assert_eq!(report.cycle, 0);
    assert!(
        report.component.contains("memctl") || report.component.contains("dram"),
        "expected the divergent DRAM page's component, got '{}'",
        report.component
    );
}

//! The MAPLE engine reevaluation (Fig 11): SPMV, SPMM, SDHP, and BFS in
//! single-thread, MAPLE, and two-thread modes (§4.3).
//!
//! The kernels are Decoupled Access/Execute programs with irregular memory
//! access (`A[B[i]]` indirection over arrays far larger than the caches).
//! In MAPLE mode the *Access* side runs on a MAPLE tile programmed over
//! MMIO; the *Execute* core pops the hardware queue with non-cacheable
//! loads. The kernels differ in compute-per-element, which is exactly what
//! separates the latency-bound wins from the compute-bound tie in the
//! paper's chart.

use smappic_accel::{
    Maple, MAPLE_REG_BASE_A, MAPLE_REG_BASE_B, MAPLE_REG_COUNT, MAPLE_REG_MODE, MAPLE_REG_QUEUE,
    MAPLE_REG_START,
};
use smappic_core::{Config, Platform, DRAM_BASE, MAPLE_MMIO_BASE};
use smappic_noc::{Gid, NodeId};
use smappic_sim::SimRng;
use smappic_tile::{AddrMap, TraceCore, TraceOp};

use crate::sync::set_flag;

/// The four kernels of Fig 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Sparse matrix-vector product: pure gather, latency-bound.
    Spmv,
    /// Sparse matrix-matrix product: heavy compute per element.
    Spmm,
    /// Sparse data hash probe: gather plus moderate hashing work.
    Sdhp,
    /// Breadth-first search: gather with light visit work.
    Bfs,
}

impl Kernel {
    /// All kernels in figure order.
    pub const ALL: [Kernel; 4] = [Kernel::Spmv, Kernel::Spmm, Kernel::Sdhp, Kernel::Bfs];

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Spmv => "SPMV",
            Kernel::Spmm => "SPMM",
            Kernel::Sdhp => "SDHP",
            Kernel::Bfs => "BFS",
        }
    }

    /// Modeled compute cycles per gathered element (the Execute side).
    fn work_per_element(self) -> u64 {
        match self {
            Kernel::Spmv => 4,
            Kernel::Spmm => 700, // dense inner-product tile per element
            Kernel::Sdhp => 60,
            Kernel::Bfs => 16,
        }
    }
}

/// Execution modes of Fig 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapleMode {
    /// One thread doing both access and execute.
    SingleThread,
    /// One thread plus the MAPLE engine doing the access side.
    Maple,
    /// Two threads splitting the iteration space.
    TwoThreads,
}

impl MapleMode {
    /// All modes in figure order.
    pub const ALL: [MapleMode; 3] =
        [MapleMode::SingleThread, MapleMode::Maple, MapleMode::TwoThreads];

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            MapleMode::SingleThread => "1 thread",
            MapleMode::Maple => "MAPLE",
            MapleMode::TwoThreads => "2 threads",
        }
    }
}

/// Layout of the kernel's arrays.
struct Arrays {
    /// Index array B (sequential reads).
    b_base: u64,
    /// Data array A (gathered).
    a_base: u64,
    /// Permutation defining B's contents (the irregular pattern).
    indices: Vec<u64>,
}

fn build_arrays(elements: usize, span: usize, seed: u64) -> Arrays {
    let mut rng = SimRng::new(seed);
    // Random gather targets over a span much larger than BPC+LLC.
    let indices = (0..elements).map(|_| rng.gen_range(span as u64)).collect();
    Arrays { b_base: DRAM_BASE + 0x40_0000, a_base: DRAM_BASE + 0x100_0000, indices }
}

/// Single-threaded access+execute program over `range`.
fn thread_ops(arr: &Arrays, range: std::ops::Range<usize>, work: u64) -> Vec<TraceOp> {
    let mut ops = Vec::with_capacity(range.len() * 3);
    for i in range {
        // Load B[i] (mostly sequential → cache friendly).
        ops.push(TraceOp::Load(arr.b_base + i as u64 * 8));
        // Dependent gather A[B[i]] (random → misses).
        ops.push(TraceOp::Load(arr.a_base + arr.indices[i] * 8));
        ops.push(TraceOp::Compute(work));
    }
    ops
}

/// Runs one (kernel, mode) cell of Fig 11, returning cycles.
pub fn run_maple(kernel: Kernel, mode: MapleMode, elements: usize) -> u64 {
    // The paper's 1x1x6: cores in tiles 0,1,4,5 and MAPLE engines in 2,3.
    let mut p = Platform::new(Config::new(1, 1, 6));
    let work = kernel.work_per_element();
    // Gather span: 1 M elements (8 MB) — far beyond the 64 KB LLC slice.
    let arr = build_arrays(elements, 1 << 20, 0xACCE55);

    // The index array contents matter to MAPLE (it dereferences B), so
    // write them into memory.
    let b_bytes: Vec<u8> = arr.indices.iter().flat_map(|v| v.to_le_bytes()).collect();
    p.write_mem(arr.b_base, &b_bytes);

    let done_flag = DRAM_BASE + 0x200;
    let mut done_targets: Vec<(usize, u16)> = Vec::new();

    match mode {
        MapleMode::SingleThread => {
            let mut ops = thread_ops(&arr, 0..elements, work);
            set_flag(&mut ops, done_flag, 1);
            p.set_engine(0, 0, Box::new(TraceCore::new("exec", ops)));
            done_targets.push((0, 0));
        }
        MapleMode::TwoThreads => {
            let half = elements / 2;
            let mut ops0 = thread_ops(&arr, 0..half, work);
            set_flag(&mut ops0, done_flag, 1);
            let mut ops1 = thread_ops(&arr, half..elements, work);
            set_flag(&mut ops1, done_flag + 64, 1);
            p.set_engine(0, 0, Box::new(TraceCore::new("exec0", ops0)));
            p.set_engine(0, 1, Box::new(TraceCore::new("exec1", ops1)));
            done_targets.push((0, 0));
            done_targets.push((0, 1));
        }
        MapleMode::Maple => {
            p.set_engine(0, 2, Box::new(Maple::new()));
            let maple_gid = Gid::tile(NodeId(0), 2);
            let mut map = AddrMap::new();
            map.add_device(MAPLE_MMIO_BASE, 0x1000, maple_gid);
            // Program the engine over MMIO, then pop `elements` values.
            let mut ops = vec![
                TraceOp::NcStore(MAPLE_MMIO_BASE + MAPLE_REG_MODE, 0), // indirect
                TraceOp::NcStore(MAPLE_MMIO_BASE + MAPLE_REG_BASE_A, arr.a_base),
                TraceOp::NcStore(MAPLE_MMIO_BASE + MAPLE_REG_BASE_B, arr.b_base),
                TraceOp::NcStore(MAPLE_MMIO_BASE + MAPLE_REG_COUNT, elements as u64),
                TraceOp::NcStore(MAPLE_MMIO_BASE + MAPLE_REG_START, 1),
            ];
            for _ in 0..elements {
                ops.push(TraceOp::NcLoad(MAPLE_MMIO_BASE + MAPLE_REG_QUEUE));
                ops.push(TraceOp::Compute(work));
            }
            set_flag(&mut ops, done_flag, 1);
            p.set_engine(0, 0, Box::new(TraceCore::with_addr_map("exec", ops, map)));
            done_targets.push((0, 0));
        }
    }

    // A watcher is unnecessary — poll the trace cores directly.
    let all_done = move |p: &Platform| {
        done_targets.iter().all(|&(n, t)| {
            p.node(n)
                .tile(t)
                .engine()
                .as_any()
                .downcast_ref::<TraceCore>()
                .is_some_and(|c| c.finished_at().is_some())
        })
    };
    let budget = elements as u64 * 10_000 + 2_000_000;
    assert!(p.run_until(budget, all_done), "MAPLE kernel hung ({kernel:?}, {mode:?})");
    p.now()
}

/// One kernel's bars: speedups over single-thread.
#[derive(Debug, Clone)]
pub struct MapleFigure {
    /// Cycles per mode in [1-thread, MAPLE, 2-thread] order.
    pub cycles: [u64; 3],
    /// Speedups relative to single-thread.
    pub speedup: [f64; 3],
}

/// Runs all three modes of one kernel.
pub fn run_maple_figure(kernel: Kernel, elements: usize) -> MapleFigure {
    let cycles: Vec<u64> = MapleMode::ALL.iter().map(|&m| run_maple(kernel, m, elements)).collect();
    let base = cycles[0] as f64;
    MapleFigure {
        cycles: [cycles[0], cycles[1], cycles[2]],
        speedup: [1.0, base / cycles[1] as f64, base / cycles[2] as f64],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maple_accelerates_latency_bound_spmv() {
        let f = run_maple_figure(Kernel::Spmv, 96);
        assert!(
            f.speedup[1] > 1.3,
            "MAPLE must speed up the latency-bound kernel: {:?}",
            f.speedup
        );
    }

    #[test]
    fn compute_bound_spmm_gains_little_from_maple() {
        let f = run_maple_figure(Kernel::Spmm, 48);
        assert!(
            f.speedup[1] < 1.3,
            "SPMM is compute-bound; MAPLE cannot help much: {:?}",
            f.speedup
        );
        assert!(f.speedup[2] > 1.4, "a second thread splits the compute: {:?}", f.speedup);
    }

    #[test]
    fn maple_beats_second_thread_on_spmv() {
        let f = run_maple_figure(Kernel::Spmv, 96);
        assert!(
            f.speedup[1] > f.speedup[2] * 0.9,
            "MAPLE should rival/beat 2 threads in latency-bound code: {:?}",
            f.speedup
        );
    }
}

//! Platforms more than one test binary checkpoints.

use smappic::platform::{Config, Platform, DRAM_BASE};
use smappic::sim::SimRng;
use smappic::tile::{TraceCore, TraceOp};

/// A seeded 2x2x2 prototype (two FPGAs, two nodes each, two tiles per
/// node) with its contention workload installed, not yet run.
pub fn pinned_fresh() -> Platform {
    let counter = DRAM_BASE + 0x9000;
    let cfg = Config::new(2, 2, 2);
    let total = cfg.total_tiles();
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(0x22_5EED);
    for g in 0..total {
        let mut ops = Vec::new();
        let private = DRAM_BASE + 0x20_0000 + g as u64 * 4096;
        for i in 0..12u64 {
            ops.push(TraceOp::Compute(rng.gen_range(40) + 1));
            ops.push(TraceOp::AmoAdd(counter, 1));
            if rng.chance(0.5) {
                ops.push(TraceOp::StoreVal(private + (i % 8) * 64, g as u64 ^ i));
            }
        }
        ops.push(TraceOp::Checksum(counter));
        p.set_engine(g / 2, (g % 2) as u16, Box::new(TraceCore::new(format!("c{g}"), ops)));
    }
    p
}

/// [`pinned_fresh`] cut mid-contention at cycle 2,500: the image
/// `tests/snapshot_roundtrip.rs` pins.
pub fn pinned_platform() -> Platform {
    let mut p = pinned_fresh();
    p.run(2_500);
    p
}

//! Workload installation for service jobs, plus the chaos-test
//! [`PoisonEngine`].
//!
//! The trace workloads mirror the benchmark's `amo_saturated` /
//! `bursty_sleep` duty-cycle profiles but are *finite*: every core runs
//! its program, arrives at a shared barrier, checksums the contended
//! line, and quiesces — so a completed job is detectable via
//! [`smappic_core::Platform::is_idle`] and its architectural digest is a
//! pure function of the [`JobSpec`].

use smappic_core::{Platform, DRAM_BASE};
use smappic_sim::{Cycle, SaveState, SimRng, SnapReader, SnapWriter};
use smappic_tile::{Engine, TraceCore, TraceOp, Tri};
use smappic_workloads::is_sort::{build_sort, Placement, SortParams};

use crate::spec::{JobSpec, WorkloadSpec};

/// Shared contention counter every trace core hammers.
const COUNTER: u64 = DRAM_BASE + 0xA000;
/// Barrier arrival counter (cores quiesce once everyone arrived).
const DONE: u64 = DRAM_BASE + 0xA100;

/// Builds the platform for a spec: config + engines. Deterministic — two
/// calls with the same spec build bit-identical twins.
pub(crate) fn build_platform(spec: &JobSpec) -> Platform {
    let cfg = spec.config();
    match spec.workload {
        WorkloadSpec::Sort { keys, threads } => {
            build_sort(&SortParams::scaling(cfg, keys, threads, Placement::NumaAware)).0
        }
        WorkloadSpec::AmoHeavy { ops, seed } => trace_fleet(cfg, ops, seed, false),
        WorkloadSpec::Bursty { ops, seed } => trace_fleet(cfg, ops, seed, true),
        WorkloadSpec::Poison { after } => {
            let mut p = Platform::new(cfg);
            p.set_engine(0, 0, Box::new(PoisonEngine::new(after)));
            p
        }
    }
}

/// The finite duty-cycle trace fleet: per-core programs of compute +
/// shared-counter atomics (+ private stores), ending in a global barrier
/// and a checksum of the contended line.
fn trace_fleet(cfg: smappic_core::Config, ops: u64, seed: u64, bursty: bool) -> Platform {
    let tiles = cfg.tiles_per_node;
    let total = cfg.total_tiles();
    let mut p = Platform::new(cfg);
    let mut rng = SimRng::new(seed);
    for g in 0..total {
        let (node, tile) = (g / tiles, (g % tiles) as u16);
        let private = DRAM_BASE + 0x40_0000 + g as u64 * 4096;
        let mut program = Vec::new();
        for i in 0..ops {
            let compute = if bursty { rng.gen_range(400) + 100 } else { rng.gen_range(20) + 1 };
            program.push(TraceOp::Compute(compute));
            program.push(TraceOp::AmoAdd(COUNTER, 1));
            if rng.chance(if bursty { 0.25 } else { 0.5 }) {
                program.push(TraceOp::StoreVal(private + (i % 16) * 64, g as u64 ^ i));
            }
            if rng.chance(0.2) {
                program.push(TraceOp::Checksum(private + (i % 16) * 64));
            }
        }
        program.push(TraceOp::AmoAdd(DONE, 1));
        program.push(TraceOp::SpinUntilGe(DONE, total as u64));
        program.push(TraceOp::Checksum(COUNTER));
        p.set_engine(node, tile, Box::new(TraceCore::new(format!("job{g}"), program)));
    }
    p
}

/// An engine that panics after a configured number of executed ticks —
/// the chaos suite's stand-in for a job that kills its worker mid-run.
///
/// The tick counter is *executed* ticks, not a wall cycle, so a poison
/// job that is preempted, migrated, and resumed still detonates at the
/// same simulated point: the counter rides in the snapshot via
/// [`SaveState`]. It reports itself permanently busy
/// (`next_event_after == now`) so the fast path can never warp past the
/// detonation, and its [`Engine::progress`] advances every tick so the
/// fuse is not mistaken for a livelock.
#[derive(Debug)]
pub struct PoisonEngine {
    /// Detonation fuse, in executed ticks (configuration, not state).
    after: u64,
    /// Executed ticks so far (snapshotted state).
    ticks: u64,
}

impl PoisonEngine {
    /// An engine that panics on its `after`-th tick.
    pub fn new(after: u64) -> Self {
        Self { after, ticks: 0 }
    }
}

impl SaveState for PoisonEngine {
    fn save(&self, w: &mut SnapWriter) {
        let Self { after: _, ticks } = self; // the fuse is configuration
        w.u64(*ticks);
    }
    fn restore(&mut self, r: &mut SnapReader) {
        self.ticks = r.u64();
    }
}

impl Engine for PoisonEngine {
    fn tick(&mut self, _now: Cycle, _tri: &mut dyn Tri) {
        self.ticks += 1;
        if self.ticks >= self.after {
            panic!("poison engine detonated after {} ticks", self.after);
        }
    }

    fn progress(&self) -> u64 {
        self.ticks
    }

    fn label(&self) -> &str {
        "poison"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StepperSpec;

    #[test]
    fn trace_fleet_quiesces_within_budget() {
        let spec = JobSpec::small("t", WorkloadSpec::AmoHeavy { ops: 40, seed: 7 });
        let mut p = spec.build();
        p.run_until_idle(2_000_000);
        assert!(p.is_idle(), "finite fleet must quiesce");
        let mut q = spec.build();
        q.run_until_idle(2_000_000);
        assert_eq!(p.now(), q.now(), "twin builds are deterministic");
    }

    #[test]
    fn poison_engine_detonates_at_its_fuse() {
        let mut spec = JobSpec::small("boom", WorkloadSpec::Poison { after: 700 });
        spec.stepper = StepperSpec::Reference;
        let mut p = spec.build();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.run(10_000)))
            .expect_err("must detonate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("poison engine detonated"), "got {msg:?}");
    }
}

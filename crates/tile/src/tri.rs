//! The TRI and Engine traits.

use smappic_coherence::{CoreReq, CoreResp};
use smappic_noc::Addr;
use smappic_sim::{Cycle, SnapReader, SnapWriter};

/// The Transaction-Response Interface a compute element sees.
///
/// Backed by the tile's BPC; requests may be rejected under back-pressure
/// (MSHRs full), in which case the engine retries next cycle.
pub trait Tri {
    /// Submits a memory request; returns it back when the cache cannot
    /// accept it this cycle.
    fn try_request(&mut self, now: Cycle, req: CoreReq) -> Result<(), CoreReq>;

    /// Collects the next completed response.
    fn pop_resp(&mut self) -> Option<CoreResp>;
}

/// Result of an MMIO access to a tile-resident device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmioResp {
    /// Loaded data (or ignored for stores that want a generic ack).
    Data(u64),
    /// Store acknowledged.
    Ack,
    /// Not ready; the tile retries the access next cycle (this is how the
    /// MAPLE queue makes consumers wait for data).
    Pending,
}

/// A compute element occupying a tile: a core model or an accelerator.
///
/// Engines are `Send` because the platform's parallel stepper moves whole
/// FPGAs (tiles included) onto worker threads at epoch boundaries; an engine
/// is still only ever ticked by one thread at a time.
pub trait Engine: Send {
    /// Advances one cycle; memory transactions go through `tri`.
    fn tick(&mut self, now: Cycle, tri: &mut dyn Tri);

    /// True when the engine has run to completion (used by harnesses to
    /// detect quiescence; long-running cores simply return false).
    fn is_done(&self) -> bool {
        false
    }

    /// A monotone counter of *architectural* progress — retired operations,
    /// committed instructions — that the platform Watchdog folds into its
    /// progress signature for livelock detection. Spin-wait polls must NOT
    /// advance it (a core stuck polling a value that never changes is
    /// exactly the livelock the Watchdog exists to catch). Engines without
    /// a meaningful notion of retirement report a constant.
    fn progress(&self) -> u64 {
        0
    }

    /// Drives an interrupt wire (from the interrupt depacketizer, §3.3).
    fn set_irq(&mut self, _line: u16, _level: bool) {}

    /// The engine's contribution to per-component event scheduling: the end
    /// of a *closed window* starting at `now` — a stretch of ticks that touch
    /// neither the TRI nor anything the tile observes, assuming no external
    /// input arrives in between. What such ticks do inside the engine is the
    /// engine's business — aging a counter, or retiring register-only
    /// instructions — as long as [`Engine::advance_idle`] reproduces it
    /// exactly.
    ///
    /// - `Some(t)` with `t == now`: busy — the engine must be ticked now.
    /// - `Some(t)` with `t > now`: ticks in `[now, t)` form a closed window;
    ///   a sleeping container may skip them and compensate with
    ///   [`Engine::advance_idle`] before the tick at `t`. `t` may be a lower
    ///   bound: the tick at `t` is a real one and may well find nothing to
    ///   do outside the engine either.
    /// - `None`: the window never closes by itself; only external input
    ///   ([`Engine::set_irq`], a memory response pushed into its tile) can
    ///   make future ticks matter.
    ///
    /// External input ends a window early: the container applies the ticks
    /// skipped so far, delivers the input, and asks again.
    ///
    /// The default is conservatively busy, so engines that don't opt in are
    /// never skipped.
    fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// Executes `delta` skipped ticks of a closed window in one step —
    /// exactly what `delta` consecutive calls of [`Engine::tick`] would have
    /// done in a stretch [`Engine::next_event_after`] declared skippable
    /// (`mcycle` advancing, stall/compute counters draining, closed
    /// instructions retiring), without a TRI. Must leave the engine
    /// bit-identical to having been ticked, for every split of the window
    /// into calls (`advance_idle(1)` × n ≡ `advance_idle(n)`): a container
    /// may be interrupted, snapshotted or inspected at any cycle boundary.
    fn advance_idle(&mut self, _delta: u64) {}

    /// Enables or disables host-side fast paths (decoded-block dispatch).
    /// Purely a host-performance switch: architectural behavior must be
    /// identical either way. Engines without a fast path ignore it.
    fn set_fast_path(&mut self, _on: bool) {}

    /// Host-side fast-path statistics: `(hits, misses)` of the decoded
    /// basic-block cache, for engines that have one. Diagnostics only —
    /// never part of architectural stats or snapshots.
    fn block_cache_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Handles a non-cacheable access addressed to this tile (accelerator
    /// register files, queues). Core tiles have no device registers and
    /// answer zero.
    fn mmio(&mut self, _now: Cycle, _store: bool, _addr: Addr, _size: u8, _data: u64) -> MmioResp {
        MmioResp::Data(0)
    }

    /// Serializes the engine's mutable state into a snapshot section (the
    /// tile opens an `engine` scope around this call). Stateless engines
    /// keep the default no-op; stateful engines MUST override both this and
    /// [`Engine::restore_state`] symmetrically, or restore fails the
    /// scope-exit exact-consumption check.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restores state written by [`Engine::save_state`] into an engine of
    /// the same configuration.
    fn restore_state(&mut self, _r: &mut SnapReader) {}

    /// A short label for diagnostics.
    fn label(&self) -> &str;

    /// Downcasting support so harnesses can inspect concrete engines
    /// (exit codes, completion times) behind the trait object.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// An engine that does nothing: the placeholder occupying tiles before the
/// user installs cores/accelerators, and the natural model for disabled
/// tiles in partially-populated prototypes.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdleEngine;

impl Engine for IdleEngine {
    fn tick(&mut self, _now: Cycle, _tri: &mut dyn Tri) {}
    fn is_done(&self) -> bool {
        true
    }
    fn next_event_after(&self, _now: Cycle) -> Option<Cycle> {
        None // ticks are no-ops; nothing ever happens here
    }
    fn label(&self) -> &str {
        "idle"
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

    #[test]
    fn default_engine_behaviour() {
        let mut e = IdleEngine;
        assert!(e.is_done());
        assert_eq!(e.mmio(0, false, 0x100, 8, 0), MmioResp::Data(0));
        e.set_irq(7, true); // no-op by default
        assert_eq!(e.label(), "idle");
    }
}

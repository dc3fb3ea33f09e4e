//! One tile: an engine, its BPC, and an LLC slice behind a mesh port.

use smappic_coherence::{Bpc, CoreReq, CoreResp, LlcSlice};
use smappic_noc::{Gid, Msg, Packet};
use smappic_sim::{Cycle, MetricsRegistry, Port, SaveState, SnapReader, SnapWriter};

use crate::tri::{Engine, MmioResp, Tri};

/// Shim giving the engine TRI access to the tile's BPC.
struct BpcTri<'a>(&'a mut Bpc);

impl Tri for BpcTri<'_> {
    fn try_request(&mut self, now: Cycle, req: CoreReq) -> Result<(), CoreReq> {
        self.0.request(now, req)
    }
    fn pop_resp(&mut self) -> Option<CoreResp> {
        self.0.pop_resp()
    }
}

/// A BYOC tile: compute engine + private cache + LLC slice + NoC routers
/// (the routers live in the node's [`Mesh`](smappic_noc::Mesh); the tile
/// exposes push/pop endpoints the node wires to its mesh port).
///
/// Incoming packets are dispatched by message type: coherence responses go
/// to the BPC, coherence requests and directory traffic to the LLC slice,
/// interrupt packets to the engine's wires, and non-cacheable accesses to
/// the engine's MMIO handler (this is how accelerator tiles expose their
/// register files, §4.2).
pub struct Tile {
    id: Gid,
    bpc: Bpc,
    llc: LlcSlice,
    engine: Box<dyn Engine>,
    /// MMIO accesses answered `Pending` by the device, retried each tick:
    /// (requester, is_store, addr, size, data).
    pending_mmio: Port<(Gid, bool, u64, u8, u64)>,
    /// Per-virtual-network egress queues: requests blocked by congestion
    /// must never stall the responses queued behind them (protocol
    /// deadlock freedom depends on it).
    out: [Port<Packet>; 3],
    /// Per-component event scheduling: `Some(wake_at)` while ticks are
    /// being skipped because every queue is drained and the engine declared
    /// itself event-free until `wake_at` (see [`Engine::next_event_after`]).
    /// Host-side *derived* state — never serialized, cleared by any
    /// [`Tile::push_noc`] and on restore. Skipped ticks still age the
    /// engine ([`Engine::advance_idle`]), so architectural counters are
    /// never stale.
    sleep_until: Option<Cycle>,
    /// Host-side count of ticks skipped by the scheduler (a diagnostic,
    /// not an architectural stat).
    skipped_cycles: u64,
    /// Host fast-path switch. When false the tile never sleeps (every tick
    /// runs the full component pipeline) and the engine decodes every
    /// instruction — the plain reference simulator. Bit-identical either
    /// way; this only changes how much host work each cycle costs.
    fast_path: bool,
}

impl Tile {
    /// Assembles a tile.
    pub fn new(id: Gid, bpc: Bpc, llc: LlcSlice, engine: Box<dyn Engine>) -> Self {
        let out = std::array::from_fn(|vn| Port::elastic_with(format!("out.vn{vn}"), 8));
        Self {
            id,
            bpc,
            llc,
            engine,
            pending_mmio: Port::elastic_with("pending_mmio", 4),
            out,
            sleep_until: None,
            skipped_cycles: 0,
            fast_path: true,
        }
    }

    /// The tile's NoC identity.
    pub fn id(&self) -> Gid {
        self.id
    }

    /// The compute engine (for result inspection).
    pub fn engine(&self) -> &dyn Engine {
        self.engine.as_ref()
    }

    /// Replaces the compute engine (cores and accelerators are installed
    /// into freshly-built nodes before the run starts).
    pub fn set_engine(&mut self, engine: Box<dyn Engine>) {
        self.sleep_until = None;
        self.engine = engine;
    }

    /// The private cache (stats).
    pub fn bpc(&self) -> &Bpc {
        &self.bpc
    }

    /// Mutable private-cache access (trace enablement and harvest). Cancels
    /// any sleep, since the caller may change state the scheduler assumed
    /// quiescent (waking early is always safe; staying asleep is not).
    pub fn bpc_mut(&mut self) -> &mut Bpc {
        self.sleep_until = None;
        &mut self.bpc
    }

    /// The LLC slice (stats).
    pub fn llc(&self) -> &LlcSlice {
        &self.llc
    }

    /// Mutable LLC-slice access (trace enablement and harvest). Cancels any
    /// sleep, like [`Tile::bpc_mut`].
    pub fn llc_mut(&mut self) -> &mut LlcSlice {
        self.sleep_until = None;
        &mut self.llc
    }

    /// True when the engine finished and all cache machinery is quiescent.
    pub fn is_idle(&self) -> bool {
        self.engine.is_done()
            && self.bpc.is_idle()
            && self.llc.is_idle()
            && self.pending_mmio.is_empty()
            && self.out.iter().all(Port::is_empty)
    }

    /// Merges every port meter in the tile (egress VN queues, MMIO retry
    /// queue, then the BPC's and LLC slice's ports under `.bpc` / `.llc`)
    /// into `m` under `port.{prefix}...`.
    pub fn merge_port_metrics(&self, prefix: &str, m: &mut MetricsRegistry) {
        for q in &self.out {
            q.meter().merge_into(prefix, m);
        }
        self.pending_mmio.meter().merge_into(prefix, m);
        self.bpc.merge_port_metrics(&format!("{prefix}.bpc"), m);
        self.llc.merge_port_metrics(&format!("{prefix}.llc"), m);
    }

    /// Ticks skipped by the per-component scheduler (host diagnostics).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// True when the tick at `now` is guaranteed to take the skip path
    /// (sleep armed and not yet due). Lets the node elide the surrounding
    /// queue pumping too: a sleeping tile's egress queues are empty by the
    /// sleep predicate.
    pub fn is_sleeping(&self, now: Cycle) -> bool {
        self.sleep_until.is_some_and(|w| now < w)
    }

    /// The armed wake cycle, if the tile is sleeping. While armed, every
    /// tick strictly before it takes the skip path, so a caller may batch
    /// those ticks with [`Tile::warp_quiet`]. `Cycle::MAX` encodes "only
    /// external input wakes this tile".
    pub fn wake_at(&self) -> Option<Cycle> {
        self.sleep_until
    }

    /// Applies the `delta` skipped ticks of `[now, now + delta)` in one
    /// step: exactly what that many per-cycle skip paths would have done
    /// (engine aging, the LLC slice clock, the host skip counter). Caller
    /// guarantees the sleep covers the whole window.
    pub fn warp_quiet(&mut self, now: Cycle, delta: u64) {
        debug_assert!(self.sleep_until.is_some(), "warp_quiet requires an armed sleep");
        self.engine.advance_idle(delta);
        self.llc.sync_quiet(now + delta - 1);
        self.skipped_cycles += delta;
    }

    /// Toggles the tile's host-side fast path: the engine's decoded-block
    /// dispatch *and* the per-component sleep scheduling. Off yields the
    /// plain reference simulator (decode every instruction, tick every
    /// component every cycle). Cancels any sleep immediately.
    pub fn set_fast_path(&mut self, on: bool) {
        self.sleep_until = None;
        self.fast_path = on;
        self.engine.set_fast_path(on);
    }

    /// Decides whether the tick at `next` (and ticks after it, until the
    /// returned cycle) can be skipped: every queue must be drained — so a
    /// tick provably moves nothing — and the engine must schedule no event
    /// before then. `Cycle::MAX` encodes "only external input matters".
    fn sleep_check(&self, next: Cycle) -> Option<Cycle> {
        if !self.bpc.is_quiet()
            || !self.llc.is_quiet()
            || !self.pending_mmio.is_empty()
            || self.out.iter().any(|q| !q.is_empty())
        {
            return None;
        }
        match self.engine.next_event_after(next) {
            None => Some(Cycle::MAX),
            Some(t) if t > next => Some(t),
            Some(_) => None,
        }
    }

    /// Advances one cycle.
    pub fn tick(&mut self, now: Cycle) {
        if let Some(wake) = self.sleep_until {
            if now < wake {
                // Skipped tick: provably a no-op except for engine aging
                // and the LLC slice clock, which are applied eagerly so
                // architectural state (mcycle, compute budgets, the
                // serialized `cur`) is never stale.
                self.engine.advance_idle(1);
                self.llc.sync_quiet(now);
                self.skipped_cycles += 1;
                return;
            }
            self.sleep_until = None;
        }
        self.engine.tick(now, &mut BpcTri(&mut self.bpc));
        self.bpc.tick(now);
        self.llc.tick(now);

        // Retry the oldest pending MMIO access.
        if let Some((src, store, addr, size, data)) = self.pending_mmio.pop() {
            match self.engine.mmio(now, store, addr, size, data) {
                MmioResp::Pending => self.pending_mmio.push_front((src, store, addr, size, data)),
                resp => self.answer_mmio(src, store, addr, resp),
            }
        }

        // Drain cache outputs into the per-VN egress queues.
        while let Some(p) = self.bpc.noc_pop() {
            self.out[p.vn.index()].push(p);
        }
        while let Some(p) = self.llc.noc_pop() {
            self.out[p.vn.index()].push(p);
        }

        self.sleep_until = if self.fast_path { self.sleep_check(now + 1) } else { None };
    }

    fn answer_mmio(&mut self, src: Gid, store: bool, addr: u64, resp: MmioResp) {
        let msg = match (store, resp) {
            (false, MmioResp::Data(d)) => Msg::NcData { addr, data: d },
            (true, _) => Msg::NcAck { addr },
            (false, MmioResp::Ack) => Msg::NcData { addr, data: 0 },
            (_, MmioResp::Pending) => unreachable!("caller filters Pending"),
        };
        let pkt = Packet::on_canonical_vn(src, self.id, msg);
        self.out[pkt.vn.index()].push(pkt);
    }

    /// Delivers a packet from the mesh.
    pub fn push_noc(&mut self, now: Cycle, pkt: Packet) {
        // External input is exactly what a sleeping tile waits for.
        self.sleep_until = None;
        match &pkt.msg {
            // Responses and probes for the private cache.
            Msg::Data { .. }
            | Msg::UpgradeAck { .. }
            | Msg::Inv { .. }
            | Msg::Recall { .. }
            | Msg::Downgrade { .. }
            | Msg::AmoResp { .. }
            | Msg::NcData { .. }
            | Msg::NcAck { .. } => self.bpc.noc_push(pkt),
            // Interrupt wires.
            Msg::Irq { line_no, level } => self.engine.set_irq(*line_no, *level),
            // Device register file.
            Msg::NcLoad { addr, size } => {
                let (addr, size, src) = (*addr, *size, pkt.src);
                match self.engine.mmio(now, false, addr, size, 0) {
                    MmioResp::Pending => self.pending_mmio.push((src, false, addr, size, 0)),
                    resp => self.answer_mmio(src, false, addr, resp),
                }
            }
            Msg::NcStore { addr, size, data } => {
                let (addr, size, data, src) = (*addr, *size, *data, pkt.src);
                match self.engine.mmio(now, true, addr, size, data) {
                    MmioResp::Pending => self.pending_mmio.push((src, true, addr, size, data)),
                    resp => self.answer_mmio(src, true, addr, resp),
                }
            }
            // Everything else belongs to the LLC slice / directory.
            _ => self.llc.noc_push(now, pkt),
        }
    }

    /// Collects the next outgoing packet for the mesh, round-robining over
    /// virtual networks (a blocked VN must not starve the others).
    pub fn pop_noc(&mut self) -> Option<Packet> {
        for q in &mut self.out {
            if let Some(p) = q.pop() {
                return Some(p);
            }
        }
        None
    }

    /// Collects the next outgoing packet on one virtual network.
    pub fn pop_noc_vn(&mut self, vn: usize) -> Option<Packet> {
        self.out[vn].pop()
    }

    /// Returns a popped packet to the head of its egress queue (used when
    /// the mesh refuses injection this cycle).
    pub fn unpop_noc(&mut self, pkt: Packet) {
        self.out[pkt.vn.index()].push_front(pkt);
    }
}

impl SaveState for Tile {
    fn save(&self, w: &mut SnapWriter) {
        w.scoped("bpc", |w| self.bpc.save(w));
        w.scoped("llc", |w| self.llc.save(w));
        w.scoped("engine", |w| self.engine.save_state(w));
        self.pending_mmio.save(w);
        for q in &self.out {
            q.save(w);
        }
    }

    fn restore(&mut self, r: &mut SnapReader) {
        // Scheduler state is derived, never serialized: wake up and let the
        // restored machine re-establish its own sleep schedule.
        self.sleep_until = None;
        r.scoped("bpc", |r| self.bpc.restore(r));
        r.scoped("llc", |r| self.llc.restore(r));
        r.scoped("engine", |r| self.engine.restore_state(r));
        self.pending_mmio.restore(r);
        for q in &mut self.out {
            q.restore(r);
        }
    }
}

impl std::fmt::Debug for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tile")
            .field("id", &self.id)
            .field("engine", &self.engine.label())
            .field("pending_mmio", &self.pending_mmio.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_core::{TraceCore, TraceOp};
    use smappic_coherence::{BpcConfig, Homing, HomingMode, LlcConfig};
    use smappic_noc::{LineData, NodeId};

    fn tile_with(engine: Box<dyn Engine>) -> Tile {
        let id = Gid::tile(NodeId(0), 0);
        let homing = Homing::new(HomingMode::StripeAllNodes, 1, 1);
        let bpc = Bpc::new(BpcConfig::new(id, homing));
        let llc = LlcSlice::new(LlcConfig::new(id));
        Tile::new(id, bpc, llc, engine)
    }

    /// Runs a single-tile "node": packets loop back from the tile to
    /// itself, with MemRd/MemWr answered like a zero DRAM.
    fn run_selfcontained(tile: &mut Tile, max: Cycle) {
        for now in 0..max {
            tile.tick(now);
            let mut moved = Vec::new();
            while let Some(p) = tile.pop_noc() {
                moved.push(p);
            }
            for p in moved {
                match &p.msg {
                    Msg::MemRd { line } => {
                        let reply = Packet::on_canonical_vn(
                            p.src,
                            Gid::chipset(NodeId(0)),
                            Msg::MemData { line: *line, data: LineData::zeroed() },
                        );
                        tile.push_noc(now, reply);
                    }
                    Msg::MemWr { .. } => {}
                    _ => tile.push_noc(now, p),
                }
            }
            if tile.engine().is_done() {
                return;
            }
        }
        panic!("tile program did not finish");
    }

    #[test]
    fn trace_core_runs_against_local_slice() {
        let core = TraceCore::new(
            "t0",
            vec![TraceOp::StoreVal(0x40, 123), TraceOp::Load(0x40), TraceOp::Compute(10)],
        );
        let mut tile = tile_with(Box::new(core));
        run_selfcontained(&mut tile, 50_000);
        assert!(tile.bpc().stats().get("bpc.miss") >= 1);
    }

    #[test]
    fn mmio_pending_is_retried() {
        struct SlowDevice {
            countdown: u32,
        }
        impl Engine for SlowDevice {
            fn tick(&mut self, _now: Cycle, _tri: &mut dyn Tri) {
                self.countdown = self.countdown.saturating_sub(1);
            }
            fn mmio(&mut self, _now: Cycle, _s: bool, _a: u64, _sz: u8, _d: u64) -> MmioResp {
                if self.countdown == 0 {
                    MmioResp::Data(99)
                } else {
                    MmioResp::Pending
                }
            }
            fn label(&self) -> &str {
                "slow"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut tile = tile_with(Box::new(SlowDevice { countdown: 10 }));
        let requester = Gid::tile(NodeId(0), 5);
        tile.push_noc(
            0,
            Packet::on_canonical_vn(tile.id(), requester, Msg::NcLoad { addr: 0xF0, size: 8 }),
        );
        let mut got = None;
        for now in 0..100 {
            tile.tick(now);
            while let Some(p) = tile.pop_noc() {
                if let Msg::NcData { data, .. } = p.msg {
                    assert_eq!(p.dst, requester);
                    got = Some((now, data));
                }
            }
            if got.is_some() {
                break;
            }
        }
        let (t, data) = got.expect("mmio answered");
        assert_eq!(data, 99);
        assert!(t >= 9, "Pending must delay the answer, answered at {t}");
    }

    #[test]
    fn snapshot_round_trip_mid_program_matches_uninterrupted_run() {
        use smappic_sim::{SnapReader, SnapWriter, Snapshot};

        let program = || {
            vec![
                TraceOp::StoreVal(0x40, 11),
                TraceOp::Compute(5),
                TraceOp::StoreVal(0x80, 22),
                TraceOp::Checksum(0x40),
                TraceOp::Checksum(0x80),
                TraceOp::Compute(3),
            ]
        };
        // Uninterrupted reference run.
        let mut reference = tile_with(Box::new(TraceCore::new("t0", program())));
        run_selfcontained(&mut reference, 50_000);

        // Snapshot mid-program (the store has been issued but the checksums
        // have not run), restore into a fresh tile, finish both.
        let mut live = tile_with(Box::new(TraceCore::new("t0", program())));
        for now in 0..40 {
            live.tick(now);
            let mut moved = Vec::new();
            while let Some(p) = live.pop_noc() {
                moved.push(p);
            }
            for p in moved {
                match &p.msg {
                    Msg::MemRd { line } => live.push_noc(
                        now,
                        Packet::on_canonical_vn(
                            p.src,
                            Gid::chipset(NodeId(0)),
                            Msg::MemData { line: *line, data: LineData::zeroed() },
                        ),
                    ),
                    Msg::MemWr { .. } => {}
                    _ => live.push_noc(now, p),
                }
            }
        }
        let mut w = SnapWriter::new();
        w.scoped("tile", |w| live.save(w));
        let snap = Snapshot::new(1, 40, w);

        let mut restored = tile_with(Box::new(TraceCore::new("t0", program())));
        let mut r = SnapReader::new(&snap);
        r.scoped("tile", |r| restored.restore(r));
        r.finish().expect("clean restore");

        // Drive both forward in lockstep from cycle 40; they must finish
        // identically (and identically to the uninterrupted run).
        for tile in [&mut live, &mut restored] {
            for now in 40..50_000 {
                tile.tick(now);
                let mut moved = Vec::new();
                while let Some(p) = tile.pop_noc() {
                    moved.push(p);
                }
                for p in moved {
                    match &p.msg {
                        Msg::MemRd { line } => tile.push_noc(
                            now,
                            Packet::on_canonical_vn(
                                p.src,
                                Gid::chipset(NodeId(0)),
                                Msg::MemData { line: *line, data: LineData::zeroed() },
                            ),
                        ),
                        Msg::MemWr { .. } => {}
                        _ => tile.push_noc(now, p),
                    }
                }
                if tile.engine().is_done() {
                    break;
                }
            }
        }
        let core = |t: &Tile| {
            let c = t.engine().as_any().downcast_ref::<TraceCore>().unwrap();
            (c.finished_at(), c.checksum(), c.mem_ops())
        };
        let (ref_f, ref_c, ref_m) = core(&reference);
        assert_eq!(core(&live), (ref_f, ref_c, ref_m));
        assert_eq!(core(&restored), (ref_f, ref_c, ref_m), "restored run must be bit-exact");
        assert_eq!(
            restored.bpc().stats().get("bpc.miss"),
            live.bpc().stats().get("bpc.miss"),
            "cache counters travel with the snapshot"
        );
    }

    #[test]
    fn irq_packets_reach_the_engine() {
        use std::sync::{Arc, Mutex};
        struct IrqProbe {
            seen: Arc<Mutex<Option<(u16, bool)>>>,
        }
        impl Engine for IrqProbe {
            fn tick(&mut self, _now: Cycle, _tri: &mut dyn Tri) {}
            fn set_irq(&mut self, line: u16, level: bool) {
                *self.seen.lock().unwrap() = Some((line, level));
            }
            fn label(&self) -> &str {
                "probe"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let seen = Arc::new(Mutex::new(None));
        let mut tile = tile_with(Box::new(IrqProbe { seen: Arc::clone(&seen) }));
        tile.push_noc(
            0,
            Packet::on_canonical_vn(
                tile.id(),
                Gid::chipset(NodeId(0)),
                Msg::Irq { line_no: 11, level: true },
            ),
        );
        tile.tick(0);
        assert_eq!(*seen.lock().unwrap(), Some((11, true)));
    }
}

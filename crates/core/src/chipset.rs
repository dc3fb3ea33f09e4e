//! The node chipset: memory controller, UARTs, CLINT, virtual SD card,
//! interrupt packetizer, and the inter-node bridge attachment.

use smappic_mem::MemController;
use smappic_noc::{Gid, Msg, NodeId, Packet, TileId};
use smappic_sim::{
    meter_slots, Cycle, Meters, MetersBuilder, Pack, Port, SaveState, SnapReader, SnapWriter, Stats,
};

use crate::bridge::InterNodeBridge;
use crate::config::{CLINT_BASE, PLIC_BASE, SD_CTL_BASE, SD_DATA_BASE, UART0_BASE, UART1_BASE};
use crate::plic::{Plic, PLIC_SRC_UART0, PLIC_SRC_UART1};
use crate::uart::Uart16550;

/// The RISC-V core-local interruptor: software (IPI) and timer interrupts
/// for every hart in the node. Its output wires feed the interrupt
/// packetizer (§3.3) instead of running across the die.
#[derive(Debug)]
pub struct Clint {
    msip: Vec<bool>,
    mtimecmp: Vec<u64>,
    mtime: u64,
}

/// MTIMECMP registers: 8 bytes per hart at offset 0x4000 (MSIP registers
/// occupy 4 bytes per hart from offset 0).
const CLINT_MTIMECMP: u64 = 0x4000;
/// MTIME register at offset 0xBFF8.
const CLINT_MTIME: u64 = 0xBFF8;

impl Clint {
    /// Creates a CLINT for `harts` harts. `mtimecmp` resets to the maximum
    /// value so no timer fires before software programs it.
    pub fn new(harts: usize) -> Self {
        Self { msip: vec![false; harts], mtimecmp: vec![u64::MAX; harts], mtime: 0 }
    }

    /// Advances mtime (we tick it every cycle; the divider is the
    /// platform's choice and the guest reads the same clock).
    pub fn tick(&mut self) {
        self.mtime += 1;
    }

    /// Advances mtime by `delta` cycles in one go, as if [`Clint::tick`]
    /// had run that many times. Used by the idle-skip path: a warped-over
    /// cycle must still age the guest clock.
    pub fn advance(&mut self, delta: u64) {
        self.mtime += delta;
    }

    /// Guest MMIO read.
    pub fn read(&self, offset: u64) -> u64 {
        if offset >= CLINT_MTIME {
            return self.mtime;
        }
        if offset >= CLINT_MTIMECMP {
            let hart = ((offset - CLINT_MTIMECMP) / 8) as usize;
            return self.mtimecmp.get(hart).copied().unwrap_or(u64::MAX);
        }
        let hart = (offset / 4) as usize;
        u64::from(self.msip.get(hart).copied().unwrap_or(false))
    }

    /// Guest MMIO write.
    pub fn write(&mut self, offset: u64, data: u64) {
        if offset >= CLINT_MTIME {
            self.mtime = data;
        } else if offset >= CLINT_MTIMECMP {
            let hart = ((offset - CLINT_MTIMECMP) / 8) as usize;
            if let Some(c) = self.mtimecmp.get_mut(hart) {
                *c = data;
            }
        } else {
            let hart = (offset / 4) as usize;
            if let Some(m) = self.msip.get_mut(hart) {
                *m = data & 1 != 0;
            }
        }
    }

    /// Timer-interrupt wire level for `hart` (mip.MTIP, bit 7).
    pub fn timer_level(&self, hart: usize) -> bool {
        self.mtime >= self.mtimecmp[hart]
    }

    /// Software-interrupt wire level for `hart` (mip.MSIP, bit 3).
    pub fn soft_level(&self, hart: usize) -> bool {
        self.msip[hart]
    }

    /// Number of harts served.
    pub fn harts(&self) -> usize {
        self.msip.len()
    }

    /// The first cycle at or after `next` whose tick makes some hart's
    /// timer wire rise, assuming mtime keeps counting one per cycle (and
    /// has already counted the tick before `next`). Harts whose wire is
    /// already high are excluded: a high level is stable until software
    /// reprograms mtimecmp, and that write arrives as an MMIO packet which
    /// wakes the chipset anyway.
    pub fn next_timer_crossing(&self, next: Cycle) -> Option<Cycle> {
        // The tick at cycle t reads mtime = M + (t - (next - 1)), so hart
        // h first sees mtime >= cmp at t = (next - 1) + (cmp - M).
        self.mtimecmp
            .iter()
            .filter(|&&cmp| cmp > self.mtime)
            .map(|&cmp| (next - 1).saturating_add(cmp - self.mtime))
            .min()
    }
}

impl SaveState for Clint {
    fn save(&self, w: &mut SnapWriter) {
        let Self { msip, mtimecmp, mtime } = self;
        msip.pack(w);
        for c in mtimecmp {
            w.u64(*c);
        }
        w.u64(*mtime);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        if r.usize() != self.msip.len() {
            r.corrupt("CLINT hart count does not match this node's configuration");
            return;
        }
        for m in &mut self.msip {
            *m = r.bool();
        }
        for c in &mut self.mtimecmp {
            *c = r.u64();
        }
        self.mtime = r.u64();
    }
}

/// SD controller register offsets.
const SD_REG_LBA: u64 = 0x0;
const SD_REG_BUF: u64 = 0x8;
const SD_REG_START: u64 = 0x10;
const SD_REG_STATUS: u64 = 0x18;
/// Bytes per SD block.
const SD_BLOCK: u64 = 512;

/// The virtual SD controller (§3.4.2).
///
/// F1 has no SD slot, so the card is *virtual*: its contents live in the
/// top half of the node's DRAM ([`SD_DATA_BASE`]) where the host's driver
/// injects the disk image. A block read shuttles 512 bytes from the SD
/// region into the guest's buffer through the memory controller — only
/// functionality, not device timing, exactly as the paper scopes virtual
/// devices.
#[derive(Debug, Default)]
struct SdController {
    lba: u64,
    buf: u64,
    /// Bytes copied so far in the active transfer; None when idle.
    progress: Option<u64>,
    /// Value loaded from the SD region awaiting the store leg.
    loaded: Option<u64>,
    waiting: bool,
}

impl SdController {
    fn read(&self, offset: u64) -> u64 {
        match offset & 0x18 {
            SD_REG_LBA => self.lba,
            SD_REG_BUF => self.buf,
            SD_REG_STATUS => u64::from(self.progress.is_some()),
            _ => 0,
        }
    }

    fn write(&mut self, offset: u64, data: u64) {
        match offset & 0x18 {
            SD_REG_LBA => self.lba = data,
            SD_REG_BUF => self.buf = data,
            SD_REG_START if data != 0 && self.progress.is_none() => {
                self.progress = Some(0);
                self.loaded = None;
                self.waiting = false;
            }
            _ => {}
        }
    }
}

impl SaveState for SdController {
    fn save(&self, w: &mut SnapWriter) {
        let Self { lba, buf, progress, loaded, waiting } = self;
        w.u64(*lba);
        w.u64(*buf);
        progress.pack(w);
        loaded.pack(w);
        w.bool(*waiting);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.lba = r.u64();
        self.buf = r.u64();
        self.progress = Option::unpack(r);
        self.loaded = Option::unpack(r);
        self.waiting = r.bool();
    }
}

meter_slots! {
    /// The chipset's own counters.
    struct ChipsetMeters {
        sd_blocks_read: counter("sd.blocks_read"),
        irq_packets: counter("irq.packets"),
    }
}

/// The interrupt lines the packetizer drives into each hart — machine
/// software, timer and external — in ascending order; a line's position
/// here is its slot in `Chipset::irq_prev`.
const IRQ_LINES: [u16; 3] = [3, 7, 11];

/// The chipset of one node.
///
/// Packets leaving the mesh through tile 0's north edge land here and are
/// routed by destination and address: remote-node traffic into the
/// [`InterNodeBridge`], device accesses into the UARTs/CLINT/SD, and
/// everything else into the NoC-AXI4 memory controller. The interrupt
/// packetizer watches the CLINT and UART wires and converts level changes
/// into [`Msg::Irq`] packets (§3.3, Fig 6).
#[derive(Debug)]
pub struct Chipset {
    node: NodeId,
    tiles: usize,
    memctl: MemController,
    /// Console UART (115200 baud).
    pub uart0: Uart16550,
    /// Data UART (~1 Mbit/s, the prototype's network link).
    pub uart1: Uart16550,
    clint: Clint,
    sd: SdController,
    plic: Plic,
    bridge: InterNodeBridge,
    /// Packetizer edge detector: per hart, the last level sent on each of
    /// [`IRQ_LINES`]; `None` until a line first rises (a snapshot lists
    /// exactly the lines that have).
    irq_prev: Vec<[Option<bool>; 3]>,
    /// Per-virtual-network egress toward the mesh (deadlock freedom).
    to_mesh: [Port<Packet>; 3],
    memctl_retry: Port<Packet>,
    meters: Meters,
    slots: ChipsetMeters,
    /// Component sleep (host-side, derived — never serialized): when
    /// `Some(w)`, ticks before cycle `w` reduce to the CLINT's mtime
    /// increment plus cheap wake probes, provided the bridge and UARTs
    /// stay quiet. Set by `sleep_check` at the end of a full tick, cleared
    /// by any external input or mutable access.
    sleep_until: Option<Cycle>,
    /// Host-side diagnostic: full ticks elided by the component sleep.
    /// Never part of architectural stats or snapshots.
    skipped_cycles: u64,
    /// Host fast-path switch: when false the chipset never arms the
    /// component sleep, reproducing the plain reference simulator's
    /// tick-everything behaviour (bit-identical results either way).
    fast_path: bool,
}

impl Chipset {
    /// Assembles a chipset.
    pub fn new(node: NodeId, tiles: usize, memctl: MemController, bridge: InterNodeBridge) -> Self {
        let mut meters = MetersBuilder::new();
        Self {
            node,
            tiles,
            memctl,
            uart0: Uart16550::console(),
            uart1: Uart16550::data(),
            clint: Clint::new(tiles),
            sd: SdController::default(),
            plic: Plic::new(tiles),
            bridge,
            irq_prev: vec![[None; 3]; tiles],
            to_mesh: std::array::from_fn(|vn| {
                Port::elastic_with(meters.port(format!("to_mesh.vn{vn}")), 8)
            }),
            memctl_retry: Port::elastic_with(meters.port("memctl_retry"), 8),
            slots: ChipsetMeters::register(&mut meters),
            meters: meters.build(),
            sleep_until: None,
            skipped_cycles: 0,
            fast_path: true,
        }
    }

    /// Toggles the host-side fast path (component sleep). Off = plain
    /// reference ticking. Cancels any armed sleep immediately.
    pub fn set_fast_path(&mut self, on: bool) {
        self.sleep_until = None;
        self.fast_path = on;
    }

    /// The memory controller (host backdoor goes through here).
    pub fn memctl_mut(&mut self) -> &mut MemController {
        self.sleep_until = None; // external mutation may create work
        &mut self.memctl
    }

    /// Read-only memory controller access.
    pub fn memctl(&self) -> &MemController {
        &self.memctl
    }

    /// The inter-node bridge (the FPGA pumps its AXI side). Deliberately
    /// does NOT clear the component sleep — the FPGA calls this every
    /// cycle; deliveries the sleep must notice are caught by the per-cycle
    /// [`InterNodeBridge::has_incoming`] probe instead.
    pub fn bridge_mut(&mut self) -> &mut InterNodeBridge {
        &mut self.bridge
    }

    /// Read-only inter-node bridge access.
    pub fn bridge(&self) -> &InterNodeBridge {
        &self.bridge
    }

    /// Read-only probe of the bridge's AXI side for the FPGA's quiet
    /// path; see [`InterNodeBridge::axi_quiet`].
    pub fn bridge_axi_quiet(&self, now: Cycle) -> bool {
        self.bridge.axi_quiet(now)
    }

    /// When the bridge's next shaped AXI request matures, if any; see
    /// [`InterNodeBridge::next_axi_ready`].
    pub fn bridge_next_axi_ready(&self) -> Option<Cycle> {
        self.bridge.next_axi_ready()
    }

    /// Counters (`sd.blocks_read`, `irq.packets`), rendered.
    pub fn stats(&self) -> Stats {
        self.meters.stats()
    }

    /// The chipset's own meters: its counters and the meters of its mesh
    /// egress VN queues and memory-controller staging queue (the memory
    /// controller, bridge and UARTs keep theirs).
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    fn me(&self) -> Gid {
        Gid::chipset(self.node)
    }

    /// A packet arriving from the mesh edge.
    pub fn push_from_mesh(&mut self, now: Cycle, pkt: Packet) {
        self.sleep_until = None; // external input: exactly what sleep waits for
        if pkt.dst.node != self.node {
            self.bridge.send(now, pkt);
            return;
        }
        self.handle_local(now, pkt);
    }

    fn handle_local(&mut self, now: Cycle, pkt: Packet) {
        debug_assert_eq!(pkt.dst, self.me(), "chipset handles only its own Gid");
        match &pkt.msg {
            Msg::NcLoad { addr, size } => {
                let (addr, size, src) = (*addr, *size, pkt.src);
                match self.device_read(now, addr) {
                    Some(data) => {
                        let msg = Msg::NcData { addr, data };
                        self.push_to_mesh(Packet::on_canonical_vn(src, self.me(), msg));
                    }
                    None => {
                        // DRAM (incl. the SD data region): memory controller.
                        let fwd =
                            Packet::on_canonical_vn(self.me(), src, Msg::NcLoad { addr, size });
                        self.push_memctl(fwd);
                    }
                }
            }
            Msg::NcStore { addr, size, data } => {
                let (addr, size, data, src) = (*addr, *size, *data, pkt.src);
                if self.device_write(now, addr, data) {
                    let msg = Msg::NcAck { addr };
                    self.push_to_mesh(Packet::on_canonical_vn(src, self.me(), msg));
                } else {
                    let fwd =
                        Packet::on_canonical_vn(self.me(), src, Msg::NcStore { addr, size, data });
                    self.push_memctl(fwd);
                }
            }
            Msg::MemRd { .. } | Msg::MemWr { .. } => {
                self.push_memctl(pkt);
            }
            other => panic!("chipset received unexpected message {other:?}"),
        }
    }

    fn push_memctl(&mut self, pkt: Packet) {
        // Staged through an elastic queue so controller back-pressure never
        // forces the chipset to drop or reorder traffic; `tick` drains it
        // as buffer slots free up.
        self.memctl_retry.push(pkt, &mut self.meters);
    }

    /// Reads a device register; `None` when the address is DRAM.
    fn device_read(&mut self, _now: Cycle, addr: u64) -> Option<u64> {
        match addr {
            a if (UART0_BASE..UART0_BASE + 0x1000).contains(&a) => {
                Some(self.uart0.read(a - UART0_BASE))
            }
            a if (UART1_BASE..UART1_BASE + 0x1000).contains(&a) => {
                Some(self.uart1.read(a - UART1_BASE))
            }
            a if (CLINT_BASE..CLINT_BASE + 0x10000).contains(&a) => {
                Some(self.clint.read(a - CLINT_BASE))
            }
            a if (SD_CTL_BASE..SD_CTL_BASE + 0x1000).contains(&a) => {
                Some(self.sd.read(a - SD_CTL_BASE))
            }
            a if (PLIC_BASE..PLIC_BASE + 0x40_0000).contains(&a) => {
                Some(self.plic.read(a - PLIC_BASE))
            }
            _ => None,
        }
    }

    /// Writes a device register; false when the address is DRAM.
    fn device_write(&mut self, now: Cycle, addr: u64, data: u64) -> bool {
        match addr {
            a if (UART0_BASE..UART0_BASE + 0x1000).contains(&a) => {
                self.uart0.write(now, a - UART0_BASE, data);
                true
            }
            a if (UART1_BASE..UART1_BASE + 0x1000).contains(&a) => {
                self.uart1.write(now, a - UART1_BASE, data);
                true
            }
            a if (CLINT_BASE..CLINT_BASE + 0x10000).contains(&a) => {
                self.clint.write(a - CLINT_BASE, data);
                true
            }
            a if (SD_CTL_BASE..SD_CTL_BASE + 0x1000).contains(&a) => {
                self.sd.write(a - SD_CTL_BASE, data);
                true
            }
            a if (PLIC_BASE..PLIC_BASE + 0x40_0000).contains(&a) => {
                self.plic.write(a - PLIC_BASE, data);
                true
            }
            _ => false,
        }
    }

    fn push_to_mesh(&mut self, pkt: Packet) {
        self.to_mesh[pkt.vn.index()].push(pkt, &mut self.meters);
    }

    /// Debug: depths of the per-VN mesh egress queues and the memory
    /// controller staging queue.
    pub fn queue_depths(&self) -> ([usize; 3], usize) {
        (
            [self.to_mesh[0].len(), self.to_mesh[1].len(), self.to_mesh[2].len()],
            self.memctl_retry.len(),
        )
    }

    /// Next packet to inject into the mesh edge (any virtual network).
    pub fn pop_to_mesh(&mut self) -> Option<Packet> {
        self.to_mesh.iter_mut().find_map(Port::pop)
    }

    /// Next packet to inject on one virtual network.
    pub fn pop_to_mesh_vn(&mut self, vn: usize) -> Option<Packet> {
        self.to_mesh[vn].pop()
    }

    /// Returns a packet the mesh refused this cycle.
    pub fn unpop_to_mesh(&mut self, pkt: Packet) {
        self.to_mesh[pkt.vn.index()].push_front(pkt, &mut self.meters);
    }

    /// Advances the chipset one cycle.
    ///
    /// When the component sleep is armed (`sleep_until`), a tick before
    /// the wake cycle reduces to the CLINT's mtime increment — the only
    /// architectural effect a quiescent chipset tick has — guarded by
    /// exact per-cycle probes of the two channels that can receive work
    /// without going through [`Chipset::push_from_mesh`]: bridge
    /// deliveries (the FPGA pumps the AXI side independently) and UART
    /// wire/host-input events. Everything else the full tick does is a
    /// provable no-op while the sleep predicate holds, and the interrupt
    /// wires are stable by construction (timer crossings are folded into
    /// the wake cycle; MSIP/PLIC/mtimecmp changes arrive as MMIO packets
    /// which clear the sleep).
    pub fn tick(&mut self, now: Cycle) {
        if let Some(wake) = self.sleep_until {
            if now < wake
                && !self.bridge.has_incoming()
                && self.uart0.tick_is_noop(now)
                && self.uart1.tick_is_noop(now)
            {
                self.clint.advance(1);
                self.skipped_cycles += 1;
                return;
            }
            self.sleep_until = None;
        }
        self.uart0.tick(now);
        self.uart1.tick(now);
        self.clint.tick();
        // Drain staged memory traffic into the controller as space frees.
        while self.memctl.can_push() {
            let Some(pkt) = self.memctl_retry.pop() else { break };
            self.memctl.push_noc(pkt).expect("can_push checked");
        }
        self.memctl.tick(now);
        self.sd_tick(now);

        // Memory controller responses: back into the mesh, except the SD
        // controller's own transfers (addressed to the chipset).
        while let Some(pkt) = self.memctl.pop_noc() {
            if pkt.dst == self.me() {
                self.sd_complete(pkt);
            } else {
                self.push_to_mesh(pkt);
            }
        }

        // Bridge deliveries from remote nodes.
        while let Some(pkt) = self.bridge.recv() {
            if pkt.dst.node == self.node && pkt.dst.elem == smappic_noc::Elem::Chipset {
                self.handle_local(now, pkt);
            } else {
                self.push_to_mesh(pkt);
            }
        }

        // Interrupt packetizer: diff wire levels, emit packets on change.
        self.packetize_irqs();

        self.sleep_until = if self.fast_path { self.sleep_check(now + 1) } else { None };
    }

    /// Decides whether the next ticks can be elided, and until when.
    ///
    /// Sleep requires every queue the tick drains to be empty and every
    /// state machine it advances to be at rest; the wake cycle is the
    /// earliest scheduled event — a UART wire byte maturing or a CLINT
    /// timer wire rising. `None` means the chipset is busy and must tick.
    fn sleep_check(&self, next: Cycle) -> Option<Cycle> {
        if !self.to_mesh.iter().all(Port::is_empty)
            || !self.memctl_retry.is_empty()
            || !self.memctl.is_idle()
            || self.sd.progress.is_some()
            || self.bridge.has_incoming()
        {
            return None;
        }
        let mut wake = Cycle::MAX;
        if let Some(t) = self.uart0.next_event_after(next) {
            wake = wake.min(t);
        }
        if let Some(t) = self.uart1.next_event_after(next) {
            wake = wake.min(t);
        }
        if let Some(t) = self.clint.next_timer_crossing(next) {
            wake = wake.min(t);
        }
        (wake > next).then_some(wake)
    }

    /// Host-side diagnostic: how many full ticks the component sleep has
    /// elided so far. Not architectural — excluded from stats, metrics,
    /// and snapshots.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// True when the tick at `now` is guaranteed to take the skip path:
    /// sleep armed, not yet due, and the per-cycle wake probes (bridge
    /// deliveries, UART wire/host events) all quiet. While this holds the
    /// chipset's mesh-egress queues are empty by the sleep predicate, so
    /// the node may also skip the pumping around the tick.
    pub fn tick_is_noop(&self, now: Cycle) -> bool {
        self.sleep_until.is_some_and(|w| now < w)
            && !self.bridge.has_incoming()
            && self.uart0.tick_is_noop(now)
            && self.uart1.tick_is_noop(now)
    }

    /// The first cycle after `now` at which a tick may do real work, when
    /// every tick until then is provably a skip; `None` when the chipset
    /// must tick at `now`. Unlike `sleep_until` alone, the UART event
    /// horizon is re-derived here: host console input pushed after the
    /// sleep was armed does not clear it (the per-cycle probes catch
    /// that), so a multi-cycle warp must re-ask the UARTs directly.
    pub fn quiet_bound(&self, now: Cycle) -> Option<Cycle> {
        if !self.tick_is_noop(now) {
            return None;
        }
        let mut bound = self.sleep_until.expect("tick_is_noop checked");
        if let Some(t) = self.uart0.next_event_after(now) {
            bound = bound.min(t);
        }
        if let Some(t) = self.uart1.next_event_after(now) {
            bound = bound.min(t);
        }
        (bound > now).then_some(bound)
    }

    /// Applies `delta` skipped ticks in one step: exactly what `delta`
    /// per-cycle skip paths would have done (the mtime increments plus the
    /// host skip counter). Caller guarantees [`Chipset::quiet_bound`]
    /// covers the whole window.
    pub fn warp_quiet(&mut self, delta: u64) {
        debug_assert!(self.sleep_until.is_some(), "warp_quiet requires an armed sleep");
        self.clint.advance(delta);
        self.skipped_cycles += delta;
    }

    /// The SD state machine: alternating 8-byte load (SD region) and store
    /// (guest buffer) legs through the memory controller.
    fn sd_tick(&mut self, _now: Cycle) {
        let Some(done) = self.sd.progress else { return };
        if self.sd.waiting {
            return; // a leg is in flight
        }
        if done >= SD_BLOCK {
            self.sd.progress = None;
            self.meters.incr(self.slots.sd_blocks_read);
            return;
        }
        let me = self.me();
        match self.sd.loaded.take() {
            None => {
                let addr = SD_DATA_BASE + self.sd.lba * SD_BLOCK + done;
                let req = Packet::on_canonical_vn(me, me, Msg::NcLoad { addr, size: 8 });
                self.sd.waiting = true;
                self.push_memctl(req);
            }
            Some(v) => {
                let addr = self.sd.buf + done;
                let req = Packet::on_canonical_vn(me, me, Msg::NcStore { addr, size: 8, data: v });
                self.sd.waiting = true;
                self.push_memctl(req);
            }
        }
    }

    fn sd_complete(&mut self, pkt: Packet) {
        match pkt.msg {
            Msg::NcData { data, .. } => {
                self.sd.loaded = Some(data);
                self.sd.waiting = false;
            }
            Msg::NcAck { .. } => {
                self.sd.waiting = false;
                if let Some(p) = self.sd.progress.as_mut() {
                    *p += 8;
                }
            }
            other => panic!("SD controller got unexpected completion {other:?}"),
        }
    }

    fn packetize_irqs(&mut self) {
        // Device wires feed the PLIC; the PLIC's per-hart outputs and the
        // CLINT's wires are what the packetizer watches.
        self.plic.set_source_level(PLIC_SRC_UART0, self.uart0.rx_irq_level());
        self.plic.set_source_level(PLIC_SRC_UART1, self.uart1.rx_irq_level());
        let me = self.me();
        for hart in 0..self.tiles {
            let tile = hart as TileId;
            // `IRQ_LINES` slots in emission order: timer, software, external.
            let wires = [
                (1, self.clint.timer_level(hart)),
                (0, self.clint.soft_level(hart)),
                (2, self.plic.ext_level(hart)),
            ];
            for (slot, level) in wires {
                let prev = &mut self.irq_prev[hart][slot];
                if prev.unwrap_or(false) != level {
                    *prev = Some(level);
                    let msg = Msg::Irq { line_no: IRQ_LINES[slot], level };
                    self.push_to_mesh(Packet::on_canonical_vn(Gid::tile(self.node, tile), me, msg));
                    self.meters.incr(self.slots.irq_packets);
                }
            }
        }
    }

    /// True when the chipset has no work in flight (SD idle, queues empty,
    /// memory controller drained).
    pub fn is_idle(&self) -> bool {
        self.to_mesh.iter().all(Port::is_empty)
            && self.memctl_retry.is_empty()
            && self.memctl.is_idle()
            && self.sd.progress.is_none()
            && self.bridge.is_idle()
    }
}

impl SaveState for Chipset {
    fn save(&self, w: &mut SnapWriter) {
        // Node id, tile count and meter slots are configuration; sleep,
        // skip count and fast-path switch are host-side scheduler state.
        let Self {
            node: _,
            tiles: _,
            memctl,
            uart0,
            uart1,
            clint,
            sd,
            plic,
            bridge,
            irq_prev,
            to_mesh,
            memctl_retry,
            meters,
            slots: _,
            sleep_until: _,
            skipped_cycles: _,
            fast_path: _,
        } = self;
        w.scoped("memctl", |w| memctl.save(w));
        w.scoped("uart0", |w| uart0.save(w));
        w.scoped("uart1", |w| uart1.save(w));
        w.scoped("clint", |w| clint.save(w));
        w.scoped("sd", |w| sd.save(w));
        w.scoped("plic", |w| plic.save(w));
        w.scoped("bridge", |w| bridge.save(w));
        // Packetizer edge-detector state: the lines seen so far, in
        // (hart, line) order — a `Vec<(TileId, u16, bool)>` on the wire.
        w.usize(irq_prev.iter().flatten().flatten().count());
        for (hart, slots) in irq_prev.iter().enumerate() {
            for (line_no, level) in IRQ_LINES.iter().zip(slots) {
                if let Some(level) = level {
                    w.u16(hart as TileId);
                    w.u16(*line_no);
                    w.bool(*level);
                }
            }
        }
        for q in to_mesh {
            q.save(w);
        }
        memctl_retry.save(w);
        meters.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.sleep_until = None; // derived: rebuilt by the next full tick
        r.scoped("memctl", |r| self.memctl.restore(r));
        r.scoped("uart0", |r| self.uart0.restore(r));
        r.scoped("uart1", |r| self.uart1.restore(r));
        r.scoped("clint", |r| self.clint.restore(r));
        r.scoped("sd", |r| self.sd.restore(r));
        r.scoped("plic", |r| self.plic.restore(r));
        r.scoped("bridge", |r| self.bridge.restore(r));
        self.irq_prev.fill([None; 3]);
        for (hart, line, level) in Vec::<(TileId, u16, bool)>::unpack(r) {
            let hart = usize::from(hart);
            let slot = IRQ_LINES.iter().position(|&l| l == line);
            match (self.irq_prev.get_mut(hart), slot) {
                (Some(slots), Some(slot)) => slots[slot] = Some(level),
                _ => {
                    r.corrupt("irq edge-detector entry names a hart or line this chipset lacks");
                    break;
                }
            }
        }
        for q in &mut self.to_mesh {
            q.restore(r);
        }
        self.memctl_retry.restore(r);
        self.meters.restore(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smappic_mem::{Dram, MemControllerConfig};

    fn chipset(tiles: usize) -> Chipset {
        let node = NodeId(0);
        let memctl =
            MemController::new(MemControllerConfig::new(Gid::chipset(node)), Dram::default());
        let bridge = InterNodeBridge::new(node, 0, 64);
        Chipset::new(node, tiles, memctl, bridge)
    }

    fn nc_store(addr: u64, data: u64) -> Packet {
        Packet::on_canonical_vn(
            Gid::chipset(NodeId(0)),
            Gid::tile(NodeId(0), 0),
            Msg::NcStore { addr, size: 4, data },
        )
    }

    fn nc_load(addr: u64) -> Packet {
        Packet::on_canonical_vn(
            Gid::chipset(NodeId(0)),
            Gid::tile(NodeId(0), 0),
            Msg::NcLoad { addr, size: 4 },
        )
    }

    #[test]
    fn uart_write_reaches_host_console() {
        let mut c = chipset(2);
        c.push_from_mesh(0, nc_store(UART0_BASE, u64::from(b'A')));
        let mut out = Vec::new();
        for now in 0..20_000 {
            c.tick(now);
            out.extend(c.uart0.host_mut().take_output());
        }
        assert_eq!(out, b"A");
        // The guest got its ack.
        let acked =
            std::iter::from_fn(|| c.pop_to_mesh()).any(|p| matches!(p.msg, Msg::NcAck { .. }));
        assert!(acked);
    }

    #[test]
    fn clint_timer_interrupt_is_packetized() {
        let mut c = chipset(2);
        // Program hart 1's mtimecmp to fire almost immediately.
        c.push_from_mesh(0, nc_store(CLINT_BASE + CLINT_MTIMECMP + 8, 5));
        let mut irqs = Vec::new();
        for now in 0..100 {
            c.tick(now);
            while let Some(p) = c.pop_to_mesh() {
                if let Msg::Irq { line_no, level } = p.msg {
                    irqs.push((p.dst, line_no, level));
                }
            }
        }
        assert!(
            irqs.contains(&(Gid::tile(NodeId(0), 1), 7, true)),
            "timer irq packet for tile 1 missing: {irqs:?}"
        );
    }

    #[test]
    fn msip_write_sends_ipi_packet() {
        let mut c = chipset(4);
        c.push_from_mesh(0, nc_store(CLINT_BASE + 4 * 3, 1));
        let mut got = false;
        for now in 0..100 {
            c.tick(now);
            while let Some(p) = c.pop_to_mesh() {
                if matches!(p.msg, Msg::Irq { line_no: 3, level: true }) {
                    assert_eq!(p.dst, Gid::tile(NodeId(0), 3));
                    got = true;
                }
            }
        }
        assert!(got, "IPI packet must be sent");
    }

    #[test]
    fn sd_block_read_copies_from_image_to_buffer() {
        let mut c = chipset(1);
        // Host injects a disk image: block 3 holds a pattern.
        let img: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        c.memctl_mut().dram_mut().write_bytes(SD_DATA_BASE + 3 * SD_BLOCK, &img);
        // Guest programs a read of LBA 3 into buffer 0x9000_0000.
        c.push_from_mesh(0, nc_store(SD_CTL_BASE + SD_REG_LBA, 3));
        c.push_from_mesh(0, nc_store(SD_CTL_BASE + SD_REG_BUF, 0x9000_0000));
        c.push_from_mesh(0, nc_store(SD_CTL_BASE + SD_REG_START, 1));
        for now in 0..200_000 {
            c.tick(now);
            while c.pop_to_mesh().is_some() {}
            if c.stats().get("sd.blocks_read") == 1 {
                break;
            }
        }
        assert_eq!(c.stats().get("sd.blocks_read"), 1, "transfer must finish");
        assert_eq!(c.memctl().dram().read_bytes(0x9000_0000, 512), img);
        // Status reads back idle.
        c.push_from_mesh(0, nc_load(SD_CTL_BASE + SD_REG_STATUS));
        c.tick(999_999);
        let status = std::iter::from_fn(|| c.pop_to_mesh()).find_map(|p| match p.msg {
            Msg::NcData { data, .. } => Some(data),
            _ => None,
        });
        assert_eq!(status, Some(0));
    }

    #[test]
    fn remote_traffic_goes_to_the_bridge() {
        let mut c = chipset(1);
        let remote = Packet::on_canonical_vn(
            Gid::tile(NodeId(2), 0),
            Gid::tile(NodeId(0), 0),
            Msg::ReqS { line: 0x40 },
        );
        c.push_from_mesh(0, remote);
        let mut found = false;
        for now in 0..50 {
            c.tick(now);
            if let Some(req) = c.bridge_mut().axi_pop_req(now) {
                assert_eq!(crate::bridge::addr_dst(req.addr()), NodeId(2));
                found = true;
                break;
            }
        }
        assert!(found, "bridge must emit the encapsulated AXI write");
    }
}

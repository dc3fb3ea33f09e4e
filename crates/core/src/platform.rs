//! The full prototype: FPGAs, PCIe fabric, and the host machine.
//!
//! # Execution model
//!
//! The platform has one reference stepper and one epoch driver:
//!
//! - **Reference** ([`Platform::step`]): every cycle ticks all FPGAs in
//!   index order, then pumps the fabric. Runs without lookahead and
//!   [`Platform::run_until`] use it, with globally quiet stretches warped;
//!   after [`Platform::set_fast_path`]`(false)` every run uses it and
//!   never warps. Everything else is proven bit-identical against it.
//! - **Epoch driver**: a conservative parallel-discrete-event scheme that
//!   exploits link latency as *lookahead*. Anything sent at cycle `t` over
//!   a link of one-way latency `L` cannot be observed before `t + L`, so
//!   the two sides may each advance `L` cycles without looking at the
//!   other. It cuts time into windows no longer than any link latency:
//!   each window pulls what the links deliver inside it, advances every
//!   FPGA through it on its own, and routes the sends, which cannot mature
//!   before the window ends. [`Platform::run`] drives it for a fixed
//!   budget, [`Platform::run_preemptible`] a grain at a time, stopping
//!   early at the first grain boundary where the platform is idle; same
//!   cycle count, same stats, same snapshot bytes as the reference. It
//!   runs on the calling thread; parallelism lives across runs instead
//!   (the service layer's worker pool): a thread per FPGA or switch group
//!   lost to the inline driver on every measured shape.
//!
//! # Topologies and windows
//!
//! [`Topology::PcieStar`] joins every FPGA pair with a PCIe link — the
//! paper's single-instance shape, capped by how many endpoints one host
//! bridge fans out to. Its window and epoch are both the minimum PCIe
//! one-way latency. [`Topology::Ethernet`] attaches every FPGA to a
//! switched-Ethernet fabric instead, and [`Topology::Hybrid`] mixes the
//! two: PCIe inside each instance-sized group, Ethernet across groups. On
//! these a window is the NIC-link latency (and any intra-group PCIe
//! latency), and switch groups meet only at spine-latency epoch
//! boundaries ([`Platform::grouped_lookaheads`]), where the spine is
//! exchanged.
//!
//! Quiet stretches are warped over: when every FPGA is provably on its
//! skip paths, the per-cycle stepper jumps straight to the next cycle that
//! may do work (a component wake, PCIe delivery, Ethernet fabric event,
//! or UART wire edge) with one [`Fpga::warp_quiet`], which applies exactly
//! what the skipped ticks would have: engine and CLINT aging, and the
//! crossbars' round-robin advance.

use smappic_axi::{AxiReq, Flight, HardShell, PcieItem, PcieLink, ShellRoute};
use smappic_coherence::Homing;
use smappic_isa::Image;
use smappic_noc::{line_of, Gid, NodeId, TileId};
use smappic_sim::{
    fault_streams, fnv1a, Cycle, EthFabric, FaultInjector, Histogram, Meters, MetricsRegistry,
    SaveState, SnapDelta, SnapError, SnapReader, SnapSink, SnapWriter, Snapshot, Stats,
    StreamSource, TraceBuf, TraceEventKind, TraceSink,
};
use smappic_tile::{AddrMap, Engine};

#[cfg(doc)]
use crate::config::Topology;
use crate::config::{Config, CLINT_BASE, PLIC_BASE, SD_CTL_BASE, UART0_BASE, UART1_BASE};
use crate::fpga::Fpga;
use crate::node::Node;
use crate::uart::HostSerial;
use crate::watchdog::{FaultReport, Watchdog, WatchdogConfig};

/// Host-side fast-path diagnostics aggregated by [`Platform::host_perf`]:
/// how much work the decoded-block ISS and the per-component scheduler
/// elided. Purely observational — never architectural state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HostPerf {
    /// Tile ticks elided by the per-component scheduler.
    pub skipped_tile_cycles: u64,
    /// Chipset ticks elided by the per-component scheduler.
    pub skipped_chipset_cycles: u64,
    /// Decoded basic-block cache hits across all cores.
    pub block_cache_hits: u64,
    /// Decoded basic-block cache misses (fresh decodes) across all cores.
    pub block_cache_misses: u64,
}

impl HostPerf {
    /// Block-cache hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn block_cache_hit_rate(&self) -> f64 {
        let total = self.block_cache_hits + self.block_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.block_cache_hits as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for HostPerf {
    /// Accumulates counters across platform incarnations. The service
    /// layer rebuilds a `Platform` on every resume (host state is derived,
    /// never serialized), so a migrated job sums the per-segment
    /// diagnostics instead of losing them at each preemption.
    fn add_assign(&mut self, rhs: Self) {
        self.skipped_tile_cycles += rhs.skipped_tile_cycles;
        self.skipped_chipset_cycles += rhs.skipped_chipset_cycles;
        self.block_cache_hits += rhs.block_cache_hits;
        self.block_cache_misses += rhs.block_cache_misses;
    }
}

/// The assembled SMAPPIC prototype plus its host machine.
///
/// The host side models what the paper's host programs do: create virtual
/// serial devices for the UART tunnels, load programs and disk images into
/// FPGA DRAM over PCIe, and start/stop runs. The loader uses a functional
/// backdoor (it does not consume simulated cycles), mirroring how the real
/// flow loads memory before releasing reset.
#[derive(Debug)]
pub struct Platform {
    cfg: Config,
    homing: Homing,
    fpgas: Vec<Fpga>,
    /// links[i][j] for i < j — the pairs [`Topology::pcie_linked`] joins
    /// (every pair under [`Topology::PcieStar`], intra-group pairs under
    /// [`Topology::Hybrid`], none under [`Topology::Ethernet`]).
    links: Vec<((usize, usize), PcieLink)>,
    /// `(from, to) → index into links`, row-major over `fpgas × fpgas`,
    /// `usize::MAX` on the diagonal and on unlinked pairs. Keeps the
    /// per-item send path O(1) instead of scanning the link list.
    link_idx: Vec<usize>,
    /// The switched-Ethernet fabric, for network-attached topologies. Every
    /// FPGA not reachable over a PCIe link exchanges traffic through it.
    eth: Option<EthFabric<PcieItem>>,
    now: Cycle,
    /// Epoch widths chosen by the epoch driver (host-side metric; not part
    /// of the architectural state — see [`MetricsRegistry::architectural`]).
    host_epochs: Histogram,
    /// Host-side trace lane: epoch boundaries.
    host_trace: TraceBuf,
    /// Epochs executed so far (trace-event index).
    epoch_count: u64,
    /// Host-side switch mirroring [`Platform::set_fast_path`]: the serial
    /// [`Platform::run`] epoch-steps multi-FPGA prototypes only while the
    /// fast path is on, so reference mode stays strictly per-cycle.
    fast_path: bool,
}

/// The lookahead figures of the platform's shape, derived when a drive
/// starts; the single owner of every lookahead number.
///
/// - PCIe star (no Ethernet fabric): `local == global == pcie`, so every
///   window is a whole epoch.
/// - Ethernet / Hybrid: windows of `local` (the NIC-link latency, and any
///   intra-group PCIe latency) inside epochs of `global` (the uplink
///   latency): switch groups interact only through the spine, which is
///   exchanged at epoch boundaries.
#[derive(Debug, Clone, Copy)]
struct EpochPlan {
    /// Minimum PCIe one-way latency over all links; 0 without links.
    pcie: u64,
    /// Cycles every FPGA may advance between PCIe and switch rendezvous
    /// (one window); 0 when there is no lookahead to exploit.
    local: u64,
    /// Cycles between spine exchanges (one epoch).
    global: u64,
}

impl EpochPlan {
    /// [`Platform::preemption_grain`] of a platform with this plan.
    fn preemption_grain(&self) -> u64 {
        let natural = self.global.max(1);
        natural * Platform::PREEMPT_GRAIN_FLOOR.div_ceil(natural)
    }
}

/// When a run stops: after `budget` cycles, or where its probe holds.
struct Stop<'p> {
    budget: u64,
    probe: Probe<'p>,
}

/// What a run checks besides its budget, and where.
enum Probe<'p> {
    /// Nothing: the run spends its whole budget.
    None,
    /// Quiescence ([`Platform::is_idle`]) at every multiple of
    /// [`Platform::preemption_grain`] past the start, and at the budget.
    Idle,
    /// A predicate, before every move and once at the budget.
    Until(&'p mut dyn FnMut(&Platform) -> bool),
}

/// A PCIe link and the `(lower, higher)` FPGA pair it joins.
type Link = ((usize, usize), PcieLink);

/// One FPGA's share of a window.
struct EpochJob {
    /// First cycle of the window.
    start: Cycle,
    /// First cycle after the window (at most [`EpochPlan::local`] past
    /// `start`).
    end: Cycle,
    /// Pre-extracted PCIe deliveries as `(arrival, sending fpga, flight)`,
    /// sorted by `(arrival, from)` — the per-receiver order the serial
    /// pump produces. One flat list instead of a `Vec` per peer: at rack
    /// scale a per-peer layout cost `nf` allocations per job and an
    /// `O(nf)` scan per quiet-warp probe.
    inbound: Vec<(Cycle, usize, Flight)>,
    /// Pre-extracted Ethernet deliveries as `(release, src, seq, item)`,
    /// oldest first (the fabric's `(release, src, seq, copy)` order).
    /// Delivered after any same-cycle PCIe flights, matching the serial
    /// pump.
    eth_inbound: Vec<(Cycle, u32, u64, PcieItem)>,
}

/// Drains the shell's outbound side exactly like the serial pump: all
/// requests (with the PCIe window stripped back to bridge offsets), then
/// all responses. `sink` receives `(destination fpga, item)`.
fn drain_shell_outbound(fpga: &mut Fpga, mut sink: impl FnMut(usize, PcieItem)) {
    while let Some((route, req)) = fpga.shell_mut().pop_outbound() {
        match route {
            ShellRoute::Fpga(peer) => {
                let stripped = match req {
                    AxiReq::Write(mut w) => {
                        w.addr =
                            HardShell::window_offset(peer, w.addr).expect("shell routed by window");
                        AxiReq::Write(w)
                    }
                    AxiReq::Read(mut r) => {
                        r.addr =
                            HardShell::window_offset(peer, r.addr).expect("shell routed by window");
                        AxiReq::Read(r)
                    }
                };
                sink(peer, PcieItem::Req(stripped));
            }
            ShellRoute::Host => {
                // Host-directed writes (management) are absorbed.
            }
        }
    }
    while let Some((peer, resp)) = fpga.shell_mut().pop_outbound_resp() {
        sink(peer, PcieItem::Resp(resp));
    }
}

/// Hands one link delivery to the receiving shell.
///
/// Clean path (no guard): direct FIFO pushes; a full inbound FIFO drops
/// the item (PCIe back-pressure is modeled at the shell boundary, not the
/// link). Fault path (guard enabled): the shell's sequenced entry point
/// restores send order, drops duplicate copies, and retries instead of
/// dropping. Both steppers route every delivery through this one function,
/// so the choice is identical under each.
fn deliver_flight(fpga: &mut Fpga, now: Cycle, from: usize, flight: Flight) {
    let shell = fpga.shell_mut();
    if shell.guard_enabled() {
        shell.push_sequenced(now, from, flight.seq, flight.item);
        return;
    }
    match flight.item {
        PcieItem::Req(req) => {
            let _ = shell.push_inbound(from, req);
        }
        PcieItem::Resp(resp) => {
            let _ = shell.push_inbound_resp(resp);
        }
    }
}

/// Routes one send from FPGA `from` to FPGA `to` at cycle `now`: onto link
/// `li` (the pair's `link_idx` entry) where the pair has one, into the
/// Ethernet fabric otherwise. Both steppers route every send through this.
fn route(
    links: &mut [Link],
    eth: Option<&mut EthFabric<PcieItem>>,
    li: usize,
    now: Cycle,
    from: usize,
    to: usize,
    item: PcieItem,
) {
    if li == usize::MAX {
        let eth = eth.expect("unlinked pair implies an Ethernet fabric");
        eth.send(now, from, to, item.wire_bytes(), item);
        return;
    }
    let ((a, _), link) = &mut links[li];
    if from == *a {
        link.send_from_a(now, item);
    } else {
        link.send_from_b(now, item);
    }
}

/// One FPGA's window: advance through `job` cycle by cycle (or in quiet
/// warps), delivering the pre-extracted inbound flights at their exact
/// cycles and handing each outbound send to `send` as `(cycle, to, item)`,
/// in send order.
fn fpga_epoch(fpga: &mut Fpga, job: EpochJob, mut send: impl FnMut(Cycle, usize, PcieItem)) {
    // Oldest-first lists, consumed from the front: flip them once so
    // each delivery is an O(1) pop from the back.
    let mut inbound = job.inbound;
    inbound.reverse();
    let mut eth_inbound = job.eth_inbound;
    eth_inbound.reverse();
    let (end, mut t) = (job.end, job.start);
    // Whether to ask for a warp at `t`: at the window's start, and after
    // any cycle that ticked quietly. A busy cycle is almost always followed
    // by another, so asking after one buys nothing; not asking costs at
    // most one quiet cycle ticked instead of warped, which is the
    // reference behaviour.
    let mut probe = true;
    while t < end {
        // Quiet warp, per FPGA: within a window no external input can
        // arrive except the pre-extracted deliveries below, so when
        // the FPGA is provably quiet the skip ticks up to the earliest
        // of (component wake, next delivery, window end) batch into one
        // warp — bit-identical to ticking through them.
        if let Some(bound) = probe.then(|| fpga.quiet_bound(t)).flatten() {
            let mut stop = bound.min(end);
            if let Some(&(ready, _, _)) = inbound.last() {
                stop = stop.min(ready);
            }
            if let Some(&(ready, _, _, _)) = eth_inbound.last() {
                stop = stop.min(ready);
            }
            if stop > t {
                fpga.warp_quiet(stop - t);
                t = stop;
                continue;
            }
        }
        probe = fpga.tick(t);
        drain_shell_outbound(fpga, |to, item| send(t, to, item));
        // `(arrival, from)` sort order reproduces the serial pump's
        // ascending-peer order at each cycle; Ethernet releases follow
        // same-cycle PCIe flights, as in the serial fabric pump.
        while inbound.last().is_some_and(|&(ready, _, _)| ready <= t) {
            let (_, from, flight) = inbound.pop().expect("last checked");
            deliver_flight(fpga, t, from, flight);
        }
        while eth_inbound.last().is_some_and(|&(ready, _, _, _)| ready <= t) {
            let (_, src, seq, item) = eth_inbound.pop().expect("last checked");
            deliver_flight(fpga, t, src as usize, Flight { seq, item });
        }
        t += 1;
    }
}

impl Platform {
    /// Builds the prototype described by `cfg`, with idle engines in every
    /// tile; install cores with [`Platform::set_engine`] (the workload
    /// layer provides builders that do this for whole experiments).
    pub fn new(cfg: Config) -> Self {
        let homing =
            Homing::new(cfg.homing_mode(), cfg.total_nodes() as u16, cfg.tiles_per_node as u16);
        let mut fpgas: Vec<Fpga> = (0..cfg.fpgas).map(|i| Fpga::new(&cfg, i, homing)).collect();
        let p = &cfg.params;
        let mut links = Vec::new();
        for i in 0..cfg.fpgas {
            for j in (i + 1)..cfg.fpgas {
                if !cfg.topology.pcie_linked(i, j) {
                    continue;
                }
                let mut link = PcieLink::new(p.pcie_one_way_latency, p.pcie_bytes_per_cycle);
                link.set_endpoints(i as u8, j as u8);
                links.push(((i, j), link));
            }
        }
        let eth_plan = cfg.fault.as_ref().filter(|s| s.links).map(|s| s.plan.clone());
        let eth = cfg.topology.eth_params().map(|p| EthFabric::new(cfg.fpgas, p.clone(), eth_plan));
        let mut link_idx = vec![usize::MAX; cfg.fpgas * cfg.fpgas];
        for (li, ((i, j), _)) in links.iter().enumerate() {
            link_idx[i * cfg.fpgas + j] = li;
            link_idx[j * cfg.fpgas + i] = li;
        }
        if let Some(spec) = &cfg.fault {
            // Every injector draws from the shared plan on its own stream,
            // so each fault decision is a pure function of (seed, stream,
            // seq) — identical under the per-cycle reference and the
            // epoch driver regardless of evaluation order.
            let plan = &spec.plan;
            if spec.links {
                for ((i, j), link) in &mut links {
                    link.set_faults(
                        FaultInjector::new(plan.clone(), fault_streams::link(*i, *j)),
                        FaultInjector::new(plan.clone(), fault_streams::link(*j, *i)),
                    );
                }
                // The recovery side: scrambled/duplicated deliveries are
                // straightened back out at the receiving shell.
                for f in &mut fpgas {
                    f.shell_mut().enable_guard();
                }
            }
            for (fi, f) in fpgas.iter_mut().enumerate() {
                if spec.xbar {
                    f.xbar_mut()
                        .set_faults(FaultInjector::new(plan.clone(), fault_streams::xbar(fi)));
                }
                for li in 0..f.nodes().len() {
                    let g = fi * cfg.nodes_per_fpga + li;
                    let node = f.node_mut(li);
                    if spec.noc {
                        node.mesh_mut()
                            .set_faults(FaultInjector::new(plan.clone(), fault_streams::noc(g)));
                    }
                    if spec.dram {
                        node.chipset_mut()
                            .memctl_mut()
                            .dram_mut()
                            .set_faults(FaultInjector::new(plan.clone(), fault_streams::dram(g)));
                    }
                }
            }
        }
        Self {
            cfg,
            homing,
            fpgas,
            links,
            link_idx,
            eth,
            now: 0,
            host_epochs: Histogram::new(),
            host_trace: TraceBuf::new(4096),
            epoch_count: 0,
            fast_path: true,
        }
    }

    /// Index into the platform's link list for the pair `(a, b)`, or
    /// [`None`] when the pair shares no link (`a == b` or out of range).
    /// The table is symmetric: both orderings return the same link.
    pub fn link_index(&self, a: usize, b: usize) -> Option<usize> {
        let nf = self.fpgas.len();
        if a >= nf || b >= nf || a == b {
            return None;
        }
        let li = self.link_idx[a * nf + b];
        (li != usize::MAX).then_some(li)
    }

    /// The configuration this platform was built from.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The homing function (workload builders use it for placement).
    pub fn homing(&self) -> Homing {
        self.homing
    }

    /// Current simulation time in cycles.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Wall-clock seconds the modeled prototype would have taken.
    pub fn modeled_seconds(&self) -> f64 {
        self.now as f64 / (f64::from(self.cfg.params.frequency_mhz) * 1e6)
    }

    fn locate(&self, node: usize) -> (usize, usize) {
        (node / self.cfg.nodes_per_fpga, node % self.cfg.nodes_per_fpga)
    }

    /// Access node `g` (global index).
    pub fn node(&self, g: usize) -> &Node {
        let (f, l) = self.locate(g);
        &self.fpgas[f].nodes()[l]
    }

    /// Mutable access to node `g`.
    pub fn node_mut(&mut self, g: usize) -> &mut Node {
        let (f, l) = self.locate(g);
        self.fpgas[f].node_mut(l)
    }

    /// Installs an engine into tile `t` of node `g`.
    pub fn set_engine(&mut self, g: usize, t: TileId, engine: Box<dyn Engine>) {
        self.node_mut(g).set_engine(t, engine);
    }

    /// Toggles every engine's host-side fast path (decoded basic-block
    /// dispatch). On by default; turning it off yields the plain
    /// decode-every-instruction reference interpreter. Purely a host
    /// switch — runs must be bit-identical either way (the differential
    /// suites assert exactly that), so this is NOT part of [`Config`] and
    /// does not enter the config digest.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
        for f in &mut self.fpgas {
            f.set_fast_path(on);
        }
    }

    /// Host-side performance diagnostics of the fast path: ticks elided by
    /// the per-component scheduler and decoded-block cache totals. Never
    /// part of architectural stats, metrics, or snapshots — the reference
    /// and fast steppers legitimately differ here.
    pub fn host_perf(&self) -> HostPerf {
        let mut p = HostPerf::default();
        for f in &self.fpgas {
            for n in f.nodes() {
                let (tiles, chipset, hits, misses) = n.host_perf();
                p.skipped_tile_cycles += tiles;
                p.skipped_chipset_cycles += chipset;
                p.block_cache_hits += hits;
                p.block_cache_misses += misses;
            }
        }
        p
    }

    /// The standard address map for a core on node `g`: UARTs, CLINT, and
    /// the SD controller of its own chipset. Accelerator windows are added
    /// by the caller with [`AddrMap::add_device`].
    pub fn addr_map(&self, g: usize) -> AddrMap {
        let chipset = Gid::chipset(NodeId(g as u16));
        let mut m = AddrMap::new();
        m.add_device(UART0_BASE, 0x1000, chipset);
        m.add_device(UART1_BASE, 0x1000, chipset);
        m.add_device(CLINT_BASE, 0x10000, chipset);
        m.add_device(SD_CTL_BASE, 0x1000, chipset);
        m.add_device(PLIC_BASE, 0x40_0000, chipset);
        m
    }

    /// Host backdoor: writes bytes into the prototype's unified memory,
    /// scattering each cache line into its home node's DRAM.
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) {
        let mut off = 0usize;
        while off < bytes.len() {
            let a = addr + off as u64;
            let line_end = line_of(a) + 64;
            let chunk = ((line_end - a) as usize).min(bytes.len() - off);
            let home = self.homing.home_node(line_of(a), NodeId(0));
            self.node_mut(home.0 as usize)
                .chipset_mut()
                .memctl_mut()
                .dram_mut()
                .write_bytes(a, &bytes[off..off + chunk]);
            off += chunk;
        }
    }

    /// Host backdoor: reads bytes from unified memory (gathering across
    /// home nodes). Only meaningful when caches are clean/quiescent.
    pub fn read_mem(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut off = 0usize;
        while off < len {
            let a = addr + off as u64;
            let line_end = line_of(a) + 64;
            let chunk = ((line_end - a) as usize).min(len - off);
            let home = self.homing.home_node(line_of(a), NodeId(0));
            out.extend(self.node(home.0 as usize).chipset().memctl().dram().read_bytes(a, chunk));
            off += chunk;
        }
        out
    }

    /// Loads an assembled image at its base address.
    pub fn load_image(&mut self, img: &Image) {
        self.write_mem(img.base, &img.bytes);
    }

    /// Host SD driver: injects a disk image into node `g`'s SD data region
    /// (the top half of that node's DRAM, §3.4.2).
    pub fn load_disk(&mut self, g: usize, image: &[u8]) {
        self.node_mut(g)
            .chipset_mut()
            .memctl_mut()
            .dram_mut()
            .write_bytes(crate::config::SD_DATA_BASE, image);
    }

    /// The host's virtual serial device for node `g`'s console UART.
    pub fn console_mut(&mut self, g: usize) -> &mut HostSerial {
        self.node_mut(g).chipset_mut().uart0.host_mut()
    }

    /// The host's virtual serial device for node `g`'s data UART (the
    /// prototype's network link).
    pub fn serial_mut(&mut self, g: usize) -> &mut HostSerial {
        self.node_mut(g).chipset_mut().uart1.host_mut()
    }

    /// Runs for `cycles` cycles.
    ///
    /// Globally quiet stretches are warped: while every FPGA reports a
    /// [`Fpga::quiet_bound`] (all components provably on their skip paths)
    /// and no PCIe delivery matures, the per-cycle skip ticks are batched
    /// into one [`Fpga::warp_quiet`] — bit-identical to stepping, just
    /// without touching every component every cycle. Reference mode
    /// (fast path off) never warps.
    pub fn run(&mut self, cycles: u64) {
        self.run_to(Stop { budget: cycles, probe: Probe::None });
    }

    /// The one run loop behind every `run*` entry point; returns the
    /// cycles advanced and whether the probe held where it stopped. Each
    /// move ends at the next probe point at the latest: a
    /// [`Platform::drive`] when the fast path is on, the platform has
    /// lookahead and the probe is not a predicate (inside an epoch each
    /// FPGA warps its own quiet stretches), else a [`Platform::advance`]
    /// (which warps only when every FPGA is quiet at once). Only aging
    /// happens in a warp, so debug builds assert that it leaves a false
    /// predicate false.
    fn run_to(&mut self, stop: Stop) -> (u64, bool) {
        let Stop { budget, mut probe } = stop;
        let plan = self.plan();
        let grain = plan.preemption_grain();
        let drive = plan.local > 0 && self.fast_path && !matches!(probe, Probe::Until(_));
        let mut spent = 0u64;
        // Each pass starts at a probe point: the start, a grain multiple
        // or the budget under `Idle`, every move under `Until`.
        loop {
            let held = match &mut probe {
                Probe::None => false,
                Probe::Idle => spent > 0 && self.is_idle(),
                Probe::Until(pred) => pred(self),
            };
            if held || spent == budget {
                return (spent, held);
            }
            let next = match probe {
                Probe::Idle => (spent + 1).next_multiple_of(grain).min(budget),
                _ => budget,
            };
            if drive {
                self.drive(plan, next - spent);
                spent = next;
            }
            while spent < next {
                let (moved, warped) = self.advance(next - spent);
                spent += moved;
                if let Probe::Until(pred) = &mut probe {
                    debug_assert!(
                        !warped || !pred(self),
                        "a quiet warp changed a run_until predicate"
                    );
                    break;
                }
            }
        }
    }

    /// One move of the per-cycle stepper: a quiet warp of at most `budget`
    /// cycles where [`Platform::quiet_delta`] proves one, otherwise one
    /// [`Platform::step`]. Returns the cycles advanced and whether they
    /// were a warp.
    fn advance(&mut self, budget: u64) -> (u64, bool) {
        let Some(delta) = self.quiet_delta(budget) else {
            self.step();
            return (1, false);
        };
        for f in &mut self.fpgas {
            f.warp_quiet(delta);
        }
        self.now += delta;
        (delta, true)
    }

    /// The epoch plan of this platform's topology; see [`EpochPlan`].
    fn plan(&self) -> EpochPlan {
        let min_pcie = self.links.iter().map(|(_, l)| l.one_way_latency()).min();
        let pcie = min_pcie.unwrap_or(0);
        match &self.eth {
            None => EpochPlan { pcie, local: pcie, global: pcie },
            Some(eth) => EpochPlan {
                pcie,
                local: eth.local_lookahead().min(min_pcie.unwrap_or(Cycle::MAX)),
                global: eth.global_lookahead(),
            },
        }
    }

    /// The grouped lookaheads of a network-attached platform as
    /// `(local, global)`: how far a switch group may advance between local
    /// rendezvous (bounded by the NIC-to-switch link latency and by any
    /// intra-group PCIe latency under [`Topology::Hybrid`]), and how far
    /// all groups may advance between spine exchanges (the uplink
    /// latency). `(0, 0)` without an Ethernet fabric.
    pub fn grouped_lookaheads(&self) -> (u64, u64) {
        let plan = self.plan();
        if self.eth.is_some() {
            (plan.local, plan.global)
        } else {
            (0, 0)
        }
    }

    /// The epoch driver: advances `cycles` cycles in epochs of at most
    /// `plan.global` cycles, each cut into windows of at most `plan.local`.
    ///
    /// An epoch records itself and exchanges the spine. A window extracts
    /// what every PCIe link delivers before its end, in link order,
    /// advances every FPGA through it with [`fpga_epoch`], routes each send
    /// as it comes, and forwards the switches to its end. No window is
    /// longer than a PCIe or NIC-link latency, so nothing sent inside it
    /// is seen before it ends, and switch groups interact only through the
    /// spine, at epoch boundaries: bit-identical to the per-cycle
    /// reference.
    fn drive(&mut self, plan: EpochPlan, cycles: u64) {
        debug_assert!(plan.local > 0, "the epoch driver needs lookahead");
        let (stop, nf) = (self.now + cycles, self.fpgas.len());
        let mut inbound: Vec<Vec<(Cycle, usize, Flight)>> = (0..nf).map(|_| Vec::new()).collect();
        while self.now < stop {
            let len = plan.global.min(stop - self.now);
            let end = self.now + len;
            self.host_epochs.record(len);
            let index = self.epoch_count;
            self.epoch_count += 1;
            self.host_trace.record(self.now, || TraceEventKind::Epoch { index, width: len });
            if let Some(eth) = &mut self.eth {
                // Complete even for a truncated epoch: a frame arriving
                // before `end` left its source group an uplink latency
                // earlier, i.e. before this epoch — already forwarded.
                eth.exchange(end);
            }
            while self.now < end {
                let horizon = end.min(self.now + plan.local);
                for ((a, b), link) in &mut self.links {
                    for (c, fl) in link.take_flights_to_b_before(horizon) {
                        inbound[*b].push((c, *a, fl));
                    }
                    for (c, fl) in link.take_flights_to_a_before(horizon) {
                        inbound[*a].push((c, *b, fl));
                    }
                }
                let (links, eth) = (&mut self.links, &mut self.eth);
                for (m, fpga) in self.fpgas.iter_mut().enumerate() {
                    let mut inbound = std::mem::take(&mut inbound[m]);
                    // Stable: same-(cycle, from) flights keep their send order.
                    inbound.sort_by_key(|&(c, f, _)| (c, f));
                    let eth_inbound =
                        eth.as_mut().map_or_else(Vec::new, |e| e.take_delivered(m, horizon));
                    let job = EpochJob { start: self.now, end: horizon, inbound, eth_inbound };
                    fpga_epoch(fpga, job, |at, to, item| {
                        let li = self.link_idx[m * nf + to];
                        route(links, eth.as_mut(), li, at, m, to, item);
                        // The lookahead argument: nothing sent in this
                        // window is due before it ends.
                        debug_assert!(
                            li == usize::MAX
                                || links[li].1.next_delivery_at().is_none_or(|d| d >= horizon),
                            "a PCIe send matures inside the window it was sent in"
                        );
                    });
                }
                if let Some(eth) = eth {
                    eth.process_all(horizon);
                }
                self.now = horizon;
            }
        }
    }

    /// How many upcoming cycles are provably skippable from the current
    /// cycle (capped at `budget`), or `None` when the next cycle must be
    /// stepped. Skippable means: every FPGA quiet through the window and
    /// no PCIe link or Ethernet fabric event maturing inside it.
    fn quiet_delta(&self, budget: u64) -> Option<u64> {
        let now = self.now;
        let mut bound = Cycle::MAX;
        for f in &self.fpgas {
            bound = bound.min(f.quiet_bound(now)?);
        }
        for (_, l) in &self.links {
            if let Some(t) = l.next_delivery_at() {
                if t <= now {
                    return None;
                }
                bound = bound.min(t);
            }
        }
        if let Some(eth) = &self.eth {
            // Conservative: the earliest *fabric* event (an ingress frame
            // maturing into the switch, not only a final delivery) bounds
            // the warp, so every forwarding step happens on the cycle the
            // per-cycle pump would perform it.
            if let Some(t) = eth.earliest_event() {
                if t <= now {
                    return None;
                }
                bound = bound.min(t);
            }
        }
        // `bound` is the first cycle that may do real work; everything
        // strictly before it is a skip.
        Some((bound - now).min(budget)).filter(|&d| d > 0)
    }

    /// Runs until `pred` returns true, up to `max` cycles. Returns true
    /// when the predicate fired, with [`Platform::now`] at the first cycle
    /// at which it holds.
    ///
    /// Globally quiet stretches are warped as in [`Platform::run`] (never
    /// in reference mode) and `pred` is checked between moves, so it must
    /// read only state that aging leaves alone (engine completion, exit
    /// codes, console bytes, [`Platform::is_idle`]), not
    /// [`Platform::now`] or a timer. Debug builds assert that a predicate
    /// false before a warp is still false after it.
    pub fn run_until(&mut self, max: u64, mut pred: impl FnMut(&Platform) -> bool) -> bool {
        self.run_to(Stop { budget: max, probe: Probe::Until(&mut pred) }).1
    }

    /// Runs until every engine finished and all machinery drained, up to
    /// `max` cycles of simulated time: [`Platform::run_until`] with
    /// [`Platform::is_idle`]. Returns true on quiescence, with
    /// [`Platform::now`] at the exact first quiescent cycle.
    pub fn run_until_idle(&mut self, max: u64) -> bool {
        self.run_until(max, Platform::is_idle)
    }

    /// True when every FPGA, link, and switch is quiescent.
    pub fn is_idle(&self) -> bool {
        self.fpgas.iter().all(Fpga::is_idle)
            && self.links.iter().all(|(_, l)| l.is_idle())
            && self.eth.as_ref().is_none_or(EthFabric::is_idle)
    }

    /// Advances the platform one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        for f in &mut self.fpgas {
            f.tick(now);
        }
        self.pump_fabric(now);
        self.now += 1;
    }

    /// Moves traffic between Hard Shells: over the PCIe links and, on
    /// network-attached topologies, through the Ethernet fabric.
    fn pump_fabric(&mut self, now: Cycle) {
        let nf = self.fpgas.len();
        if let Some(eth) = &mut self.eth {
            // Spine hand-off first: a cross-group frame delivered at this
            // cycle crossed the uplink long ago, and anything sent below
            // matures at `now + 2` or later, so ordering against the rest
            // of the pump is immaterial.
            eth.exchange(now + 1);
        }
        // Outbound requests and responses onto the fabric, FPGA by FPGA.
        // PCIe-linked pairs use their link; everything else rides Ethernet.
        for (fi, fpga) in self.fpgas.iter_mut().enumerate() {
            drain_shell_outbound(fpga, |to, item| {
                let li = self.link_idx[fi * nf + to];
                route(&mut self.links, self.eth.as_mut(), li, now, fi, to, item);
            });
        }
        // Deliveries off links, in lexicographic link order (which any
        // single receiver observes as ascending-peer order).
        for li in 0..self.links.len() {
            let (a, b) = self.links[li].0;
            while let Some(flight) = self.links[li].1.recv_flight_at_b(now) {
                deliver_flight(&mut self.fpgas[b], now, a, flight);
            }
            while let Some(flight) = self.links[li].1.recv_flight_at_a(now) {
                deliver_flight(&mut self.fpgas[a], now, b, flight);
            }
        }
        // Ethernet deliveries follow same-cycle PCIe flights at each
        // receiver, then the switches forward one cycle's worth of events.
        if let Some(eth) = &mut self.eth {
            for (m, fpga) in self.fpgas.iter_mut().enumerate() {
                for (_, src, seq, item) in eth.take_delivered(m, now + 1) {
                    deliver_flight(fpga, now, src as usize, Flight { seq, item });
                }
            }
            eth.process_all(now + 1);
        }
    }

    /// The conservative lookahead of the PCIe fabric: the minimum one-way
    /// link latency, i.e. how many cycles FPGAs can run without observing
    /// each other. Zero when the platform has no usable lookahead (single
    /// FPGA, or a zero-latency link configuration).
    pub fn lookahead(&self) -> u64 {
        self.plan().pcie
    }

    /// [`Platform::run`] under the name the benchmark harness still calls
    /// it by; the epoch driver has one executor, the calling thread. Kept
    /// only until the benchmark's call sites move to `run`.
    pub fn run_parallel(&mut self, cycles: u64) {
        self.run(cycles);
    }

    /// The cooperative preemption grain: the smallest run-length multiple
    /// at which the platform may be cut, snapshotted, and later resumed
    /// with the *same* snapshot bytes an uninterrupted run would produce.
    ///
    /// A drive records each epoch's width in the `host.stepper` section,
    /// so a cut inside an epoch would log a truncated one. The grain is a
    /// whole number of epochs (one cycle for a single FPGA), at least
    /// [`Platform::PREEMPT_GRAIN_FLOOR`] cycles so that idle and yield
    /// checks stay off the hot path.
    pub fn preemption_grain(&self) -> u64 {
        self.plan().preemption_grain()
    }

    /// Minimum cycles between cooperative preemption checkpoints; see
    /// [`Platform::preemption_grain`].
    pub const PREEMPT_GRAIN_FLOOR: u64 = 512;

    /// Runs up to `budget` cycles, stopping early at the first multiple of
    /// [`Platform::preemption_grain`] where the platform is quiescent;
    /// returns the cycles actually advanced. It moves as [`Platform::run`]
    /// does.
    ///
    /// This is the service layer's execution primitive: a job advanced by
    /// any sequence of `run_preemptible` calls whose budgets are
    /// grain-multiples (plus one final remainder) produces snapshots
    /// bit-identical to a single uninterrupted call — the property
    /// `tests/service_equivalence.rs` proves.
    pub fn run_preemptible(&mut self, budget: u64) -> u64 {
        self.run_to(Stop { budget, probe: Probe::Idle }).0
    }

    /// FNV-1a digest of this platform's configuration, embedded in every
    /// snapshot. Restore refuses a snapshot whose digest differs: the
    /// format stores only mutable state, so reading it back into a
    /// platform with different capacities/topology would misalign.
    ///
    /// The digest hashes the `Debug` rendering of [`Config`], which covers
    /// the shape, every Table 2 parameter, the homing policy, and the
    /// fault plan.
    pub fn config_digest(&self) -> u64 {
        fnv1a(format!("{:?}", self.cfg).as_bytes())
    }

    /// Captures the platform's complete architectural state at the current
    /// cycle into a named-section [`Snapshot`].
    ///
    /// Sections are keyed by the same topology-rooted dotted names the
    /// metrics layer uses (`fpga0.node2.tile1.bpc`, `pcie0-1`, ...), so
    /// two snapshots can be diffed with [`Snapshot::first_divergence`] and
    /// the first differing component named. Host-side stepper diagnostics
    /// live under the `host.` prefix, which that comparison skips.
    pub fn snapshot(&self) -> Snapshot {
        let mut w = SnapWriter::new();
        self.save_walk(&mut w);
        Snapshot::new(self.config_digest(), self.now, w)
    }

    /// The deterministic save walk shared by [`Platform::snapshot`] and
    /// [`Platform::snapshot_to`]: every FPGA, every PCIe link, the
    /// optional Ethernet fabric, then host stepper state.
    fn save_walk(&self, w: &mut SnapWriter) {
        for (fi, f) in self.fpgas.iter().enumerate() {
            w.scoped(&format!("fpga{fi}"), |w| f.save(w));
        }
        for ((a, b), link) in &self.links {
            w.scoped(&format!("pcie{a}-{b}"), |w| link.save(w));
        }
        if let Some(eth) = &self.eth {
            w.scoped("eth", |w| eth.save(w));
        }
        w.scoped("host.stepper", |w| {
            self.host_epochs.save(w);
            w.u64(self.epoch_count);
        });
    }

    /// Streams the platform's state into `sink` section-by-section —
    /// same walk, same sections, same bytes as [`Platform::snapshot`],
    /// but at most one top-level component's sections are resident at a
    /// time, so a 64-FPGA rack checkpoints to a file (or a
    /// [`smappic_sim::CountingSink`]) in bounded memory.
    ///
    /// A DRAM channel restored by [`Platform::restore_from`] may hold the
    /// [`smappic_sim::Restored`] record of its `pages` section (see
    /// there). A compressing [`smappic_sim::StreamSink`] writes that
    /// section as the payload the record holds instead of compressing it
    /// again, and spends it, so the next save compresses; every other sink
    /// leaves it in place. The pages are still walked and digested either
    /// way.
    ///
    /// # Errors
    ///
    /// Propagates the first sink error (e.g. I/O failure of a file-backed
    /// [`smappic_sim::StreamSink`]).
    pub fn snapshot_to(&self, sink: &mut dyn SnapSink) -> Result<(), SnapError> {
        sink.begin(smappic_sim::SNAP_VERSION, self.config_digest(), self.now)?;
        let mut w = SnapWriter::streaming(sink);
        self.save_walk(&mut w);
        w.finish()?;
        sink.finish()
    }

    /// The incremental snapshot: only the sections that changed since
    /// `base`, pinned to `base` by state digest so chains apply in order
    /// or not at all. `base.apply_delta(..)` (or
    /// [`Platform::restore_chain`]) reproduces the full snapshot
    /// byte-for-byte. The walk streams into the comparison, so the
    /// current state is never held as a whole snapshot; only the dirty
    /// sections are copied.
    ///
    /// A DRAM channel whose [`smappic_sim::Restored`] record names `base`
    /// declares its `pages` section unchanged: it is neither serialised
    /// nor compared. A channel holds that record from a restore of `base`
    /// (by [`Platform::restore_from`], or by [`Platform::restore`] of a
    /// snapshot read from a stream) that read back exactly what save
    /// writes, until its first page write.
    ///
    /// # Errors
    ///
    /// [`SnapError::ConfigMismatch`] when `base` came from a different
    /// config (delegated to [`SnapDelta::streamed`]).
    pub fn snapshot_delta(&self, base: &Snapshot) -> Result<SnapDelta, SnapError> {
        SnapDelta::streamed(base, |sink| self.snapshot_to(sink))
    }

    /// Restores a snapshot taken from a platform with the same [`Config`],
    /// leaving this platform bit-identical to the one that saved it: same
    /// architectural state, same [`Platform::stats`], same
    /// [`MetricsRegistry::architectural`] metrics, under both steppers.
    ///
    /// # Errors
    ///
    /// Returns the first [`SnapError`] encountered — config digest
    /// mismatch, format version skew, a missing/trailing/unknown section,
    /// or a component-level validation failure. On error the platform's
    /// state is unspecified (possibly partially restored): rebuild it or
    /// restore a valid snapshot before further use.
    ///
    /// A snapshot read from a stream carries its verified state digest;
    /// each DRAM channel whose `pages` section read back exactly what save
    /// writes then records it, so [`Platform::snapshot_delta`] against
    /// that snapshot skips the section until a page is written.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapError> {
        if snap.version() != smappic_sim::SNAP_VERSION {
            return Err(SnapError::VersionMismatch {
                found: snap.version(),
                expected: smappic_sim::SNAP_VERSION,
            });
        }
        let expected = self.config_digest();
        if snap.config_digest() != expected {
            return Err(SnapError::ConfigMismatch { found: snap.config_digest(), expected });
        }
        let mut r = SnapReader::new(snap);
        self.restore_walk(&mut r);
        r.finish()?;
        self.now = snap.cycle();
        if let Some(digest) = snap.carried_digest() {
            self.note_pages_match(digest);
        }
        Ok(())
    }

    /// Stamps `digest`, the state digest of the image just restored, on
    /// every DRAM channel that kept the record of its `pages` section.
    fn note_pages_match(&mut self, digest: u64) {
        for f in &mut self.fpgas {
            for li in 0..f.nodes().len() {
                f.node_mut(li).chipset_mut().memctl_mut().dram_mut().note_pages_match(digest);
            }
        }
    }

    /// The restore walk shared by [`Platform::restore`] and
    /// [`Platform::restore_from`]; mirrors [`Platform::save_walk`].
    fn restore_walk(&mut self, r: &mut SnapReader) {
        for (fi, f) in self.fpgas.iter_mut().enumerate() {
            r.scoped(&format!("fpga{fi}"), |r| f.restore(r));
        }
        for ((a, b), link) in &mut self.links {
            r.scoped(&format!("pcie{a}-{b}"), |r| link.restore(r));
        }
        if let Some(eth) = &mut self.eth {
            r.scoped("eth", |r| eth.restore(r));
        }
        let (host_epochs, epoch_count) = (&mut self.host_epochs, &mut self.epoch_count);
        r.scoped("host.stepper", |r| {
            host_epochs.restore(r);
            *epoch_count = r.u64();
        });
    }

    /// Restores from a `SMAPSTRM` checkpoint stream (the
    /// [`smappic_sim::StreamSink`] wire form) without materializing the
    /// whole snapshot: sections are pulled, validated, and freed as the
    /// restore walk consumes them, so memory stays bounded just like the
    /// [`Platform::snapshot_to`] capture path.
    ///
    /// Each DRAM channel whose `pages` section read back exactly what save
    /// writes keeps one [`smappic_sim::Restored`] record of it, until a
    /// page is written: the image's state digest, which
    /// [`Platform::snapshot_delta`] against that image skips the section
    /// by, and the compressed payload the section was stored as, which
    /// the next compressed [`Platform::snapshot_to`] writes out again
    /// instead of recompressing the pages. A re-saved image therefore
    /// carries the payload it was restored from.
    ///
    /// # Errors
    ///
    /// Any [`StreamSource`] validation failure (magic/version/flags,
    /// truncation, codec corruption, count/digest trailer mismatch),
    /// config digest skew, or the usual restore-walk format errors. On
    /// error the platform's state is unspecified, as with
    /// [`Platform::restore`].
    pub fn restore_from(&mut self, reader: impl std::io::Read) -> Result<(), SnapError> {
        let mut src = StreamSource::open(reader)?;
        let expected = self.config_digest();
        if src.config_digest() != expected {
            return Err(SnapError::ConfigMismatch { found: src.config_digest(), expected });
        }
        let cycle = src.cycle();
        let mut r = SnapReader::from_source(Box::new(|| src.next_section()));
        self.restore_walk(&mut r);
        r.finish()?;
        self.now = cycle;
        // `finish` drained the source, so its trailer digest is verified.
        let digest = src.verified_digest().expect("a finished restore read the trailer");
        self.note_pages_match(digest);
        Ok(())
    }

    /// Restores a base snapshot plus an in-order delta chain — the
    /// incremental-checkpoint path. Equivalent to materializing the final
    /// snapshot with [`Snapshot::apply_delta`] and restoring it, and
    /// proven byte-for-byte identical to a full-snapshot restore by the
    /// round-trip suites.
    ///
    /// # Errors
    ///
    /// Any [`Snapshot::apply_delta`] failure — including
    /// [`SnapError::DeltaBaseMismatch`] for out-of-order chains — or any
    /// [`Platform::restore`] failure on the materialized snapshot.
    pub fn restore_chain(
        &mut self,
        base: &Snapshot,
        deltas: &[SnapDelta],
    ) -> Result<(), SnapError> {
        if deltas.is_empty() {
            return self.restore(base);
        }
        let mut snap = base.apply_delta(&deltas[0])?;
        for d in &deltas[1..] {
            snap = snap.apply_delta(d)?;
        }
        self.restore(&snap)
    }

    /// Every [`Meters`] block on the platform, with the root its ports
    /// render under: the one topology walk [`Platform::stats`] and
    /// [`Platform::metrics`] render from. Roots are stable dotted names
    /// (`port.fpga0.shell`, `port.node3.tile1.bpc`, ...); the Ethernet hop
    /// meters sample occupancy at pump-call time, which the grouped drivers
    /// batch differently from the per-cycle reference, so they render
    /// under `host.` and [`MetricsRegistry::architectural`] strips them.
    fn meter_blocks(&self, mut visit: impl FnMut(&str, &Meters)) {
        for (fi, f) in self.fpgas.iter().enumerate() {
            visit(&format!("port.fpga{fi}.shell"), f.shell().meters());
            visit(&format!("port.fpga{fi}.xbar"), f.xbar().meters());
            for (li, n) in f.nodes().iter().enumerate() {
                let node = format!("port.node{}", fi * self.cfg.nodes_per_fpga + li);
                visit(&format!("{node}.noc"), n.mesh().meters());
                for t in 0..n.tile_count() {
                    let (tile, root) = (n.tile(t as TileId), format!("{node}.tile{t}"));
                    visit(&root, tile.meters());
                    visit(&format!("{root}.bpc"), tile.bpc().meters());
                    visit(&format!("{root}.llc"), tile.llc().meters());
                }
                let (c, root) = (n.chipset(), format!("{node}.chipset"));
                visit(&root, c.meters());
                visit(&format!("{root}.memctl"), c.memctl().meters());
                visit(&format!("{root}.memctl.dram"), c.memctl().dram().meters());
                visit(&format!("{root}.bridge"), c.bridge().meters());
                visit(&format!("{root}.uart0"), c.uart0.meters());
                visit(&format!("{root}.uart1"), c.uart1.meters());
            }
        }
        for ((a, b), link) in &self.links {
            visit(&format!("port.pcie{a}-{b}"), link.meters());
        }
        for sw in self.eth.iter().flat_map(EthFabric::switches) {
            visit("port.eth", sw.meters());
            visit("host.port.eth", sw.hop_meters());
        }
    }

    /// Aggregated statistics across the whole platform: every touched
    /// counter of every component, plus the fault counts of a platform
    /// built with link faults.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        self.meter_blocks(|_, m| m.add_counters_to(&mut s));
        self.add_fault_counts(&mut s);
        s
    }

    /// `fault.link_*` (and, with an Ethernet fabric, `fault.eth_*`): the
    /// links' delayed and duplicated items, rendered whenever link faults
    /// are configured, even at zero.
    fn add_fault_counts(&self, s: &mut Stats) {
        if self.cfg.fault.as_ref().is_some_and(|spec| spec.links) {
            let (delayed, duplicated) = self.links.iter().fold((0, 0), |(d, u), (_, l)| {
                let (ld, lu) = l.fault_counts();
                (d + ld, u + lu)
            });
            s.add("fault.link_delayed", delayed);
            s.add("fault.link_duplicated", duplicated);
            if let Some(eth) = &self.eth {
                let (d, u) = eth.fault_counts();
                s.add("fault.eth_delayed", d);
                s.add("fault.eth_duplicated", u);
            }
        }
    }

    /// Enables or disables cycle-stamped event tracing in every component:
    /// PCIe links, crossbars, meshes, memory controllers, private caches,
    /// LLC slices, and the host-side epoch lane.
    ///
    /// Tracing defaults to off; with the `trace` feature compiled out of
    /// `smappic-sim` this call is a no-op and recording costs nothing.
    pub fn set_tracing(&mut self, on: bool) {
        self.host_trace.set_enabled(on);
        for (_, link) in &mut self.links {
            link.trace_mut().set_enabled(on);
        }
        for f in &mut self.fpgas {
            f.xbar_mut().trace_mut().set_enabled(on);
            for li in 0..f.nodes().len() {
                let node = f.node_mut(li);
                node.mesh_mut().trace_mut().set_enabled(on);
                node.chipset_mut().memctl_mut().trace_mut().set_enabled(on);
                for t in 0..node.tile_count() {
                    let tile = node.tile_mut(t as TileId);
                    tile.bpc_mut().trace_mut().set_enabled(on);
                    tile.llc_mut().trace_mut().set_enabled(on);
                }
            }
        }
    }

    /// Drains every component's trace buffer into one [`TraceSink`],
    /// labelled `(fpga, lane)`. Lane names are stable across runs:
    /// `pcie:a-b`, `xbar`, `nodeN.noc`, `nodeN.dram`, `nodeN.tileT.bpc`,
    /// `nodeN.tileT.llc`, and `host` (epoch boundaries, on FPGA 0).
    pub fn take_trace(&mut self) -> TraceSink {
        let mut sink = TraceSink::new();
        sink.absorb(0, "host", &mut self.host_trace);
        for ((a, b), link) in &mut self.links {
            sink.absorb(*a as u32, &format!("pcie:{a}-{b}"), link.trace_mut());
        }
        for fi in 0..self.fpgas.len() {
            let f = &mut self.fpgas[fi];
            sink.absorb(fi as u32, "xbar", f.xbar_mut().trace_mut());
            for li in 0..f.nodes().len() {
                let g = fi * self.cfg.nodes_per_fpga + li;
                let node = f.node_mut(li);
                sink.absorb(fi as u32, &format!("node{g}.noc"), node.mesh_mut().trace_mut());
                sink.absorb(
                    fi as u32,
                    &format!("node{g}.dram"),
                    node.chipset_mut().memctl_mut().trace_mut(),
                );
                for t in 0..node.tile_count() {
                    let tile = node.tile_mut(t as TileId);
                    sink.absorb(
                        fi as u32,
                        &format!("node{g}.tile{t}.bpc"),
                        tile.bpc_mut().trace_mut(),
                    );
                    sink.absorb(
                        fi as u32,
                        &format!("node{g}.tile{t}.llc"),
                        tile.llc_mut().trace_mut(),
                    );
                }
            }
        }
        sink
    }

    /// The platform's unified metrics: every counter from
    /// [`Platform::stats`], every component histogram, every port's
    /// `pushes`/`stalls`/`peak` counters and occupancy histogram, and the
    /// epoch-width histogram, all rendered from one walk of the meter
    /// blocks. Counters add and histograms merge order-insensitively, so
    /// two equivalent runs produce bit-identical registries.
    ///
    /// Architectural entries (everything except the `host.`-prefixed
    /// stepper diagnostics) are identical between the per-cycle reference
    /// and the epoch driver; compare with
    /// [`MetricsRegistry::architectural`].
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        self.meter_blocks(|root, meters| meters.render(root, &mut m));
        let mut faults = Stats::new();
        self.add_fault_counts(&mut faults);
        m.merge_counters(&faults);
        m.merge_histogram("host.epoch_width", &self.host_epochs);
        m
    }

    /// Items currently in flight across the interconnect: PCIe links
    /// (shapers plus fault-stage jitter buffers) and, when present, the
    /// Ethernet fabric (NIC links, switch queues, spine, jitter).
    pub fn links_in_flight(&self) -> usize {
        self.links.iter().map(|(_, l)| l.in_flight()).sum::<usize>()
            + self.eth.as_ref().map_or(0, EthFabric::in_flight)
    }

    /// A hash of every monotone architectural-progress indicator: engine
    /// retirement and completion, shell traffic counts, NoC deliveries,
    /// and link byte/occupancy state. Two samples with equal signatures
    /// mean no observable forward progress happened between them — the
    /// Watchdog's livelock criterion. (Equal signatures on *different*
    /// states would need an FNV collision on top of frozen counters;
    /// acceptable for a diagnostic.)
    pub fn progress_signature(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(FNV_PRIME);
        let mut h = FNV_OFFSET;
        for f in &self.fpgas {
            let (in_req, out_req) = f.shell().request_counts();
            h = fold(h, in_req);
            h = fold(h, out_req);
            for n in f.nodes() {
                h = fold(h, n.mesh().delivered());
                for t in 0..n.tile_count() {
                    let tile = n.tile(t as TileId);
                    h = fold(h, tile.engine().progress());
                    h = fold(h, u64::from(tile.engine().is_done()));
                }
            }
        }
        for (_, l) in &self.links {
            h = fold(h, l.bytes_transferred());
            h = fold(h, l.in_flight() as u64);
        }
        if let Some(eth) = &self.eth {
            h = fold(h, eth.bytes_transferred());
            h = fold(h, eth.in_flight() as u64);
        }
        h
    }

    /// [`Platform::run_until_idle`] under Watchdog supervision: runs in
    /// chunks of one [`Platform::preemption_grain`], sampling the progress
    /// signature between chunks, so a livelock is reported at most
    /// `stall_limit` plus one grain after the signature froze.
    ///
    /// Returns `Ok(true)` on quiescence, `Ok(false)` when `max` ran out
    /// while still making progress, and `Err(report)` when the signature
    /// froze for `stall_limit` cycles — a livelock (e.g. a core spinning
    /// on a flag stuck behind a blackholed link) converted into a
    /// structured [`FaultReport`] instead of a hang.
    pub fn run_until_idle_watched(
        &mut self,
        max: u64,
        wcfg: &WatchdogConfig,
    ) -> Result<bool, Box<FaultReport>> {
        let grain = self.preemption_grain();
        let mut wd = Watchdog::new(wcfg.clone());
        wd.observe(self.now, self.progress_signature());
        let mut spent = 0u64;
        while spent < max {
            let chunk = grain.min(max - spent);
            if self.run_until_idle(chunk) {
                return Ok(true);
            }
            spent += chunk;
            if let Some(stalled_since) = wd.observe(self.now, self.progress_signature()) {
                return Err(Box::new(FaultReport {
                    detected_at: self.now,
                    stalled_since,
                    stalled_for: self.now - stalled_since,
                    signature: self.progress_signature(),
                    fpga_idle: self.fpgas.iter().map(Fpga::is_idle).collect(),
                    links_in_flight: self.links_in_flight(),
                    stats: self.stats().to_string(),
                }));
            }
        }
        Ok(self.is_idle())
    }
}

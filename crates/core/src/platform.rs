//! The full prototype: FPGAs, PCIe fabric, and the host machine.
//!
//! # Execution model
//!
//! The platform has one reference stepper and one epoch driver:
//!
//! - **Reference** ([`Platform::step`]): every cycle ticks all FPGAs in
//!   index order, then pumps the fabric. [`Platform::run`] falls back to it
//!   (with globally quiet stretches warped) on single-FPGA and
//!   zero-lookahead platforms and after [`Platform::set_fast_path`]`(false)`;
//!   [`Platform::run_until`] and [`Platform::run_until_idle`] always use it.
//!   Everything else is proven bit-identical against it.
//! - **Epoch driver**: a conservative parallel-discrete-event scheme that
//!   exploits link latency as *lookahead*. Anything sent at cycle `t` over
//!   a link of one-way latency `L` cannot be observed before `t + L`, so
//!   the two sides may each advance `L` cycles without looking at the
//!   other; traffic is buffered with its send timestamp and exchanged at
//!   the epoch barrier in a fixed order. The topology is cut into *units*
//!   that advance independently for one epoch (`UnitPlan`), and an
//!   executor decides which thread advances them: [`Platform::run`] walks
//!   the units on the calling thread, [`Platform::run_parallel`] gives
//!   every unit a worker thread, [`Platform::run_preemptible`] does either
//!   and also stops at the first grain boundary where the platform is
//!   idle. Within an epoch no unit can observe another, so the order they
//!   run in is immaterial: same cycle count, same stats, same snapshot
//!   bytes as the reference.
//!
//! # Topologies and units
//!
//! [`Topology::PcieStar`] joins every FPGA pair with a PCIe link — the
//! paper's single-instance shape, capped by how many endpoints one host
//! bridge fans out to. Each FPGA is a unit; every link crosses units, so
//! the barrier owns them all and the epoch is the minimum PCIe one-way
//! latency. [`Topology::Ethernet`] attaches every FPGA to a
//! switched-Ethernet fabric instead, and [`Topology::Hybrid`] mixes the
//! two: PCIe inside each instance-sized group, Ethernet across groups. On
//! these a unit is a switch group, which owns its switch and its internal
//! PCIe links: members rendezvous every NIC-link latency inside the unit,
//! units synchronize only at spine-latency boundaries
//! ([`Platform::grouped_lookaheads`]) — global coordination cost scales
//! with the number of groups, not the number of FPGAs.
//!
//! Idle stretches are warped over: when every FPGA is quiescent, the
//! platform jumps straight to the next scheduled event (PCIe delivery,
//! Ethernet fabric event, or UART wire edge), aging the guest-visible
//! CLINT clock by the skipped cycle count so software still observes one
//! mtime tick per cycle.

use std::sync::mpsc;

use smappic_axi::{AxiReq, Flight, HardShell, PcieItem, PcieLink, ShellRoute};
use smappic_coherence::Homing;
use smappic_isa::Image;
use smappic_noc::{line_of, Gid, NodeId, TileId};
use smappic_sim::{
    fault_streams, fnv1a, Cycle, EthFabric, EthSwitch, FaultInjector, Histogram, MetricsRegistry,
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
    /// Epoch widths chosen by the parallel stepper (host-side metric; not
    /// part of the architectural state — see [`MetricsRegistry::architectural`]).
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

/// How the topology decomposes into *units*: sets of FPGAs that advance
/// one epoch without observing each other. Derived from the platform shape
/// when a drive starts; the single owner of every lookahead figure.
///
/// - PCIe star (no Ethernet fabric): every FPGA is a unit, `local ==
///   global == pcie`, and every link crosses units, so the barrier owns
///   all of them.
/// - Ethernet / Hybrid: every switch group is a unit that owns its switch
///   and its internal PCIe links; no link crosses units — groups interact
///   only through the spine, which the barrier exchanges.
#[derive(Debug, Clone, Copy)]
struct UnitPlan {
    /// FPGAs per unit (the last unit may be smaller).
    unit_size: usize,
    /// Minimum PCIe one-way latency over all links; 0 without links.
    pcie: u64,
    /// Cycles a unit's members may advance between rendezvous inside the
    /// unit; 0 when there is no lookahead to exploit.
    local: u64,
    /// Cycles all units may advance between barriers.
    global: u64,
}

/// Which threads advance the units of an epoch.
#[derive(Debug, Clone, Copy)]
enum Exec {
    /// The calling thread, one unit after another.
    Inline,
    /// One worker thread per unit, alive for the whole drive.
    Threads,
}

/// When a drive stops: after `budget` cycles, or earlier at an idle probe.
#[derive(Debug, Clone, Copy)]
struct Stop {
    budget: u64,
    /// Probe for quiescence at every barrier that closes a multiple of
    /// this many cycles (a multiple of [`UnitPlan::global`]) or the budget,
    /// and stop there when every FPGA, link and switch is idle.
    idle_every: Option<u64>,
}

/// A PCIe link and the `(lower, higher)` FPGA pair it joins.
type Link = ((usize, usize), PcieLink);

/// What one unit exclusively owns for the length of a drive.
struct Unit<'a> {
    /// Global index of `fpgas[0]`.
    first: usize,
    fpgas: &'a mut [Fpga],
    /// The unit's internal links; `links[0]` is platform link `link_base`.
    links: &'a mut [Link],
    link_base: usize,
    link_idx: &'a [usize],
    /// Total FPGAs: the row stride of `link_idx`.
    nf: usize,
    /// [`UnitPlan::local`].
    local: u64,
}

/// One unit's share of an epoch: filled in by the barrier, advanced
/// through by [`unit_epoch`], read back by the barrier.
#[derive(Default)]
struct Turn {
    /// First cycle of the epoch.
    start: Cycle,
    /// Epoch length in cycles (at most [`UnitPlan::global`]).
    len: u64,
    /// In: deliveries off the cross-unit links as `(arrival, sending fpga,
    /// flight)`, in link order. Cross-unit links join single-FPGA units,
    /// so these are all for the sole member.
    inbound: Vec<(Cycle, usize, Flight)>,
    /// Out: sends over cross-unit links as `(cycle, from, to, item)`, in
    /// send order per member. The barrier drains them into the links.
    sends: Vec<(Cycle, usize, usize, PcieItem)>,
    /// In: this epoch ends at an idle probe ([`Stop::idle_every`]). Out:
    /// it does, and the unit's members and links were all idle after it.
    idle: bool,
}

/// One FPGA's share of a unit's local window.
struct EpochJob {
    /// First cycle of the window.
    start: Cycle,
    /// Window length in cycles (at most [`UnitPlan::local`]).
    len: u64,
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

/// Sends `item` from endpoint `from` over `link`.
fn link_send(((a, _), link): &mut Link, now: Cycle, from: usize, item: PcieItem) {
    if from == *a {
        link.send_from_a(now, item);
    } else {
        link.send_from_b(now, item);
    }
}

/// O(1) link send using the precomputed `(from, to) → link` table.
fn link_send_indexed(
    links: &mut [Link],
    link_idx: &[usize],
    nf: usize,
    now: Cycle,
    from: usize,
    to: usize,
    item: PcieItem,
) {
    let li = link_idx[from * nf + to];
    debug_assert!(li != usize::MAX, "links form a full mesh over the FPGAs");
    link_send(&mut links[li], now, from, item);
}

/// One FPGA's window: advance through `job` cycle by cycle (or in quiet
/// warps), delivering the pre-extracted inbound flights at their exact
/// cycles and buffering outbound sends for [`unit_epoch`] to route:
/// `(cycle, to, item)` in send order.
fn fpga_epoch(fpga: &mut Fpga, job: EpochJob) -> Vec<(Cycle, usize, PcieItem)> {
    // Oldest-first lists, consumed from the front: flip them once so
    // each delivery is an O(1) pop from the back.
    let mut inbound = job.inbound;
    inbound.reverse();
    let mut eth_inbound = job.eth_inbound;
    eth_inbound.reverse();
    let mut sends: Vec<(Cycle, usize, PcieItem)> = Vec::new();
    let end = job.start + job.len;
    let mut t = job.start;
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
                fpga.warp_quiet(t, stop - t);
                t = stop;
                continue;
            }
        }
        probe = fpga.tick(t);
        drain_shell_outbound(fpga, |to, item| sends.push((t, to, item)));
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
    sends
}

/// The unit body: advances one unit through `turn`, in local windows of at
/// most [`UnitPlan::local`] cycles. Each window gathers every member's PCIe
/// and Ethernet deliveries, advances the member with [`fpga_epoch`], and
/// routes its sends: into the unit's switch (`sw`) where the pair shares no
/// link, onto the unit's own link where it has one, back to the barrier
/// otherwise. The switch forwards at the window boundary.
///
/// Within a window no member can observe a peer (the PCIe and NIC-link
/// latencies both bound it), and units interact only through what the
/// barrier exchanges, whose latency bounds the epoch — so this schedule is
/// bit-identical to the per-cycle reference on any thread, in any unit order.
fn unit_epoch(unit: &mut Unit<'_>, mut sw: Option<&mut EthSwitch<PcieItem>>, turn: &mut Turn) {
    let end = turn.start + turn.len;
    debug_assert!(
        turn.inbound.is_empty() || (unit.fpgas.len() == 1 && unit.local >= turn.len),
        "cross-unit links join single-FPGA units whose window is the epoch"
    );
    let mut t = turn.start;
    while t < end {
        let horizon = end.min(t + unit.local);
        for lm in 0..unit.fpgas.len() {
            let m = unit.first + lm;
            // A send routed below matures at or after `horizon` (link
            // latency >= window), so interleaving extraction with member
            // advancement changes nothing.
            let mut inbound = std::mem::take(&mut turn.inbound);
            for ((a, b), link) in unit.links.iter_mut() {
                if *a == m {
                    for (c, fl) in link.take_flights_to_a_before(horizon) {
                        inbound.push((c, *b, fl));
                    }
                } else if *b == m {
                    for (c, fl) in link.take_flights_to_b_before(horizon) {
                        inbound.push((c, *a, fl));
                    }
                }
            }
            // Stable: same-(cycle, from) flights keep their send order.
            inbound.sort_by_key(|&(c, f, _)| (c, f));
            let eth_inbound = sw.as_mut().map_or_else(Vec::new, |sw| sw.take_delivered(m, horizon));
            let job = EpochJob { start: t, len: horizon - t, inbound, eth_inbound };
            for (u, to, item) in fpga_epoch(&mut unit.fpgas[lm], job) {
                let li = unit.link_idx[m * unit.nf + to];
                if li == usize::MAX {
                    let sw = sw.as_mut().expect("unlinked pair implies an Ethernet fabric");
                    sw.send(u, m, to, item.wire_bytes(), item);
                } else if let Some(own) =
                    li.checked_sub(unit.link_base).and_then(|i| unit.links.get_mut(i))
                {
                    link_send(own, u, m, item);
                } else {
                    turn.sends.push((u, m, to, item));
                }
            }
        }
        if let Some(sw) = sw.as_mut() {
            sw.process(horizon);
        }
        t = horizon;
    }
    turn.idle = turn.idle
        && unit.fpgas.iter().all(Fpga::is_idle)
        && unit.links.iter().all(|(_, l)| l.is_idle());
}

/// What the barrier of the epoch driver owns for the length of a drive:
/// everything units may not touch while they advance.
struct Barrier<'a> {
    plan: UnitPlan,
    start_now: Cycle,
    /// The cross-unit links (all of them on a star, none on a rack).
    links: &'a mut [Link],
    link_idx: &'a [usize],
    nf: usize,
    eth: Option<&'a mut EthFabric<PcieItem>>,
    host_epochs: &'a mut Histogram,
    host_trace: &'a mut TraceBuf,
    epoch_count: &'a mut u64,
}

impl Barrier<'_> {
    /// The epoch loop, once for every topology and executor: record the
    /// epoch, exchange the spine, pre-extract what the cross-unit links
    /// deliver inside it, let `run_units` advance unit `u` through
    /// `turns[u]`, then replay the units' buffered sends into the links
    /// and, at an idle probe, stop if nothing is left to do.
    ///
    /// Returns the cycles advanced.
    fn epochs(
        mut self,
        units: usize,
        stop: Stop,
        mut run_units: impl FnMut(Option<&mut EthFabric<PcieItem>>, &mut Vec<Turn>),
    ) -> u64 {
        let mut turns: Vec<Turn> = (0..units).map(|_| Turn::default()).collect();
        let mut spent = 0u64;
        while spent < stop.budget {
            let len = self.plan.global.min(stop.budget - spent);
            let start = self.start_now + spent;
            let horizon = start + len;
            self.host_epochs.record(len);
            let index = *self.epoch_count;
            *self.epoch_count += 1;
            self.host_trace.record(start, || TraceEventKind::Epoch { index, width: len });
            if let Some(eth) = self.eth.as_deref_mut() {
                // Complete even for a truncated epoch: a frame arriving
                // before `horizon` left its source group an uplink latency
                // earlier, i.e. before `start` — already forwarded by the
                // previous epoch.
                eth.exchange(horizon);
            }
            let probe = stop
                .idle_every
                .is_some_and(|g| (spent + len).is_multiple_of(g) || spent + len == stop.budget);
            for turn in &mut turns {
                (turn.start, turn.len, turn.idle) = (start, len, probe);
            }
            for ((a, b), link) in self.links.iter_mut() {
                for (c, fl) in link.take_flights_to_b_before(horizon) {
                    turns[*b / self.plan.unit_size].inbound.push((c, *a, fl));
                }
                for (c, fl) in link.take_flights_to_a_before(horizon) {
                    turns[*a / self.plan.unit_size].inbound.push((c, *b, fl));
                }
            }
            run_units(self.eth.as_deref_mut(), &mut turns);
            // Replay sends in fixed (unit, send) order. Each link direction
            // has a single sending FPGA, so replaying one unit's buffer in
            // timestamp order reproduces the serial shaper state exactly.
            for turn in &mut turns {
                for (t, from, to, item) in turn.sends.drain(..) {
                    link_send_indexed(self.links, self.link_idx, self.nf, t, from, to, item);
                }
            }
            spent += len;
            if probe
                && turns.iter().all(|t| t.idle)
                && self.links.iter().all(|(_, l)| l.is_idle())
                && self.eth.as_deref().is_none_or(EthFabric::is_idle)
            {
                break;
            }
        }
        spent
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
            // seq) — identical under the serial and epoch-parallel
            // steppers regardless of evaluation order.
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
    /// part of architectural stats, metrics, or snapshots — serial and
    /// parallel steppers may legitimately differ here.
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

    /// Host backdoor for independent-node prototypes (§4.5's 1x4x2): writes
    /// into one specific node's DRAM, since without unified memory each
    /// node is a separate system with its own address space.
    pub fn write_mem_node(&mut self, g: usize, addr: u64, bytes: &[u8]) {
        self.node_mut(g).chipset_mut().memctl_mut().dram_mut().write_bytes(addr, bytes);
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
        // Multi-FPGA fast path: the epoch driver, on this thread. Inside an
        // epoch each FPGA warps its own quiet stretches independently — the
        // cycle-interleaved loop below can only warp when *every* FPGA is
        // quiet at once, so one busy FPGA pins all of its peers to
        // per-cycle stepping.
        if let Some((plan, exec)) = self.epoch_exec(false) {
            self.drive(plan, Stop { budget: cycles, idle_every: None }, exec);
            return;
        }
        let mut spent = 0u64;
        while spent < cycles {
            if let Some(delta) = self.quiet_delta(cycles - spent) {
                let now = self.now;
                for f in &mut self.fpgas {
                    f.warp_quiet(now, delta);
                }
                self.now += delta;
                spent += delta;
                continue;
            }
            self.step();
            spent += 1;
        }
    }

    /// The unit plan of this platform's topology; see [`UnitPlan`].
    fn unit_plan(&self) -> UnitPlan {
        let min_pcie = self.links.iter().map(|(_, l)| l.one_way_latency()).min();
        let pcie = min_pcie.unwrap_or(0);
        match &self.eth {
            None => UnitPlan { unit_size: 1, pcie, local: pcie, global: pcie },
            Some(eth) => UnitPlan {
                unit_size: eth.params().group_size,
                pcie,
                local: eth.local_lookahead().min(min_pcie.unwrap_or(Cycle::MAX)),
                global: eth.global_lookahead(),
            },
        }
    }

    /// How the epoch driver advances this platform — the unit plan and the
    /// executor `parallel` selects — or `None` when the per-cycle stepper
    /// must: no lookahead to exploit, or a serial run in reference mode
    /// (fast path off), which stays strictly per-cycle.
    fn epoch_exec(&self, parallel: bool) -> Option<(UnitPlan, Exec)> {
        let plan = self.unit_plan();
        let exec = if parallel { Exec::Threads } else { Exec::Inline };
        (plan.local > 0 && (parallel || self.fast_path)).then_some((plan, exec))
    }

    /// The grouped lookaheads of a network-attached platform as
    /// `(local, global)`: how far a switch group may advance between local
    /// rendezvous (bounded by the NIC-to-switch link latency and by any
    /// intra-group PCIe latency under [`Topology::Hybrid`]), and how far
    /// all groups may advance between spine exchanges (the uplink
    /// latency). `(0, 0)` without an Ethernet fabric.
    pub fn grouped_lookaheads(&self) -> (u64, u64) {
        let plan = self.unit_plan();
        if self.eth.is_some() {
            (plan.local, plan.global)
        } else {
            (0, 0)
        }
    }

    /// The epoch driver: advances until `stop` says so in epochs of at most
    /// `plan.global`, the units of `plan` advanced by `exec`; returns the
    /// cycles advanced.
    ///
    /// Units are disjoint slices of the FPGAs and of the links between
    /// their own members (links are ordered by lower endpoint, units are
    /// FPGA ranges, so each unit's links are contiguous); the [`Barrier`]
    /// keeps the rest. [`Exec::Threads`] spawns its workers once per drive:
    /// they own their unit until the budget is spent, and a unit's switch
    /// travels to its worker and back by value each epoch, because the
    /// barrier needs the whole fabric for the spine exchange in between.
    fn drive(&mut self, plan: UnitPlan, stop: Stop, exec: Exec) -> u64 {
        debug_assert!(plan.local > 0, "the epoch driver needs lookahead");
        if stop.budget == 0 {
            return 0;
        }
        let (start_now, nf) = (self.now, self.fpgas.len());
        let link_idx = &self.link_idx[..];
        let owned = if self.eth.is_some() { self.links.len() } else { 0 };
        let (mut own_links, cross_links) = self.links.split_at_mut(owned);
        let mut units = Vec::with_capacity(nf.div_ceil(plan.unit_size));
        let mut link_base = 0;
        for fpgas in self.fpgas.chunks_mut(plan.unit_size) {
            let first = units.len() * plan.unit_size;
            let n = own_links.iter().take_while(|((a, _), _)| *a < first + fpgas.len()).count();
            let (links, rest) = own_links.split_at_mut(n);
            own_links = rest;
            let local = plan.local;
            units.push(Unit { first, fpgas, links, link_base, link_idx, nf, local });
            link_base += n;
        }
        let n_units = units.len();
        let barrier = Barrier {
            plan,
            start_now,
            links: cross_links,
            link_idx,
            nf,
            eth: self.eth.as_mut(),
            host_epochs: &mut self.host_epochs,
            host_trace: &mut self.host_trace,
            epoch_count: &mut self.epoch_count,
        };
        let spent = match exec {
            Exec::Inline => barrier.epochs(n_units, stop, |mut eth, turns| {
                for (u, (unit, turn)) in units.iter_mut().zip(turns).enumerate() {
                    unit_epoch(unit, eth.as_deref_mut().map(|e| e.switch_mut(u)), turn);
                }
            }),
            Exec::Threads => std::thread::scope(|s| {
                let workers: Vec<_> = units
                    .into_iter()
                    .map(|mut unit| {
                        let (job_tx, job_rx) =
                            mpsc::channel::<(Turn, Option<EthSwitch<PcieItem>>)>();
                        let (out_tx, out_rx) = mpsc::channel();
                        s.spawn(move || {
                            while let Ok((mut turn, mut sw)) = job_rx.recv() {
                                unit_epoch(&mut unit, sw.as_mut(), &mut turn);
                                if out_tx.send((turn, sw)).is_err() {
                                    break;
                                }
                            }
                        });
                        (job_tx, out_rx)
                    })
                    .collect();
                barrier.epochs(n_units, stop, |mut eth, turns| {
                    for (u, ((tx, _), turn)) in workers.iter().zip(turns.drain(..)).enumerate() {
                        let sw = eth
                            .as_deref_mut()
                            .map(|e| std::mem::replace(e.switch_mut(u), EthSwitch::placeholder()));
                        tx.send((turn, sw)).expect("worker alive");
                    }
                    // A channel per worker: turns come back in unit order,
                    // and a worker that panicked fails its `recv` here
                    // instead of leaving the barrier waiting.
                    for (u, (_, rx)) in workers.iter().enumerate() {
                        let (turn, sw) = rx.recv().expect("worker alive");
                        if let (Some(eth), Some(sw)) = (eth.as_deref_mut(), sw) {
                            *eth.switch_mut(u) = sw;
                        }
                        turns.push(turn);
                    }
                })
            }),
        };
        self.now = start_now + spent;
        spent
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
    /// when the predicate fired.
    pub fn run_until(&mut self, max: u64, mut pred: impl FnMut(&Platform) -> bool) -> bool {
        for _ in 0..max {
            if pred(self) {
                return true;
            }
            self.step();
        }
        pred(self)
    }

    /// Runs until every engine finished and all machinery drained, up to
    /// `max` cycles of simulated time. Returns true on quiescence, with
    /// [`Platform::now`] at the exact first quiescent cycle.
    ///
    /// Dead stretches are skipped: while every FPGA is idle and the only
    /// pending work sits in PCIe links or UART wires, time warps straight
    /// to the next scheduled event, aging the guest clocks by the skipped
    /// cycles (each skipped cycle's tick would have been a no-op apart
    /// from the mtime increment, which [`Fpga::advance_idle`] reproduces).
    pub fn run_until_idle(&mut self, max: u64) -> bool {
        let mut spent = 0u64;
        while spent < max {
            if self.is_idle() {
                return true;
            }
            if self.fpgas.iter().all(Fpga::is_idle) {
                let now = self.now;
                let fpga_ev = self.fpgas.iter().filter_map(|f| f.next_event_after(now)).min();
                let link_ev = self.links.iter().filter_map(|(_, l)| l.next_delivery_at()).min();
                let eth_ev = self.eth.as_ref().and_then(EthFabric::earliest_event);
                let target = [fpga_ev, link_ev, eth_ev].into_iter().flatten().min();
                // Warp to the event cycle; the normal step below executes
                // it. `target <= now` means a link item matured for this
                // very cycle's pump — just step.
                if let Some(target) = target {
                    if target > now {
                        let warp = (target - now).min(max - spent);
                        for f in &mut self.fpgas {
                            f.advance_idle(warp);
                        }
                        self.now += warp;
                        spent += warp;
                        continue;
                    }
                }
            }
            self.step();
            spent += 1;
        }
        self.is_idle()
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
        for fi in 0..nf {
            let (fpgas, links, eth) = (&mut self.fpgas, &mut self.links, &mut self.eth);
            let link_idx = &self.link_idx;
            drain_shell_outbound(&mut fpgas[fi], |to, item| {
                if link_idx[fi * nf + to] != usize::MAX {
                    link_send_indexed(links, link_idx, nf, now, fi, to, item);
                } else {
                    let eth = eth.as_mut().expect("unlinked pair implies an Ethernet fabric");
                    eth.send(now, fi, to, item.wire_bytes(), item);
                }
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
        self.unit_plan().pcie
    }

    /// Runs for `cycles` cycles on worker threads, one per FPGA, advancing
    /// in epochs of [`Platform::lookahead`] cycles. Falls back to the
    /// serial stepper when there is no lookahead to exploit.
    ///
    /// The execution is bit-identical to [`Platform::run`]: identical
    /// cycle count, statistics, memory, and console output.
    pub fn run_parallel(&mut self, cycles: u64) {
        match self.epoch_exec(true) {
            Some((plan, exec)) => {
                self.drive(plan, Stop { budget: cycles, idle_every: None }, exec);
            }
            None => self.run(cycles),
        }
    }

    /// The cooperative preemption grain: the smallest run-length multiple
    /// at which the platform may be cut, snapshotted, and later resumed
    /// with the *same* snapshot bytes an uninterrupted run would produce.
    ///
    /// The epoch drivers record each epoch's width as
    /// `lookahead.min(remaining_budget)`, so a run sliced at arbitrary
    /// points would log truncated epochs at every slice boundary and the
    /// `host.stepper` snapshot section would diverge from the unsliced
    /// run. Cutting only at multiples of the natural epoch width (the
    /// global lookahead for network-attached topologies, the PCIe
    /// lookahead for star/hybrid, one cycle for a single FPGA) keeps the
    /// epoch schedule — and therefore every snapshot byte — identical.
    ///
    /// Tiny natural grains (1-cycle single-FPGA, 62-cycle PCIe) are
    /// batched up to at least [`Platform::PREEMPT_GRAIN_FLOOR`] cycles,
    /// in whole-epoch multiples, so yield/idle checks stay off the hot
    /// path.
    pub fn preemption_grain(&self) -> u64 {
        let natural = self.unit_plan().global.max(1);
        natural * Self::PREEMPT_GRAIN_FLOOR.div_ceil(natural)
    }

    /// Minimum cycles between cooperative preemption checkpoints; see
    /// [`Platform::preemption_grain`].
    pub const PREEMPT_GRAIN_FLOOR: u64 = 512;

    /// Runs up to `budget` cycles, stopping early at the first multiple of
    /// [`Platform::preemption_grain`] where the platform is quiescent;
    /// returns the cycles actually advanced. `parallel` selects the
    /// executor of [`Platform::run_parallel`] over that of
    /// [`Platform::run`]: either way it is one drive whose barrier probes
    /// for idleness at grain boundaries, and only a platform the epoch
    /// driver cannot advance steps grain by grain instead.
    ///
    /// This is the service layer's execution primitive: a job advanced by
    /// any sequence of `run_preemptible` calls whose budgets are
    /// grain-multiples (plus one final remainder) produces snapshots
    /// bit-identical to a single uninterrupted call — the property
    /// `tests/service_equivalence.rs` proves.
    pub fn run_preemptible(&mut self, budget: u64, parallel: bool) -> u64 {
        let grain = self.preemption_grain();
        if let Some((plan, exec)) = self.epoch_exec(parallel) {
            return self.drive(plan, Stop { budget, idle_every: Some(grain) }, exec);
        }
        let mut spent = 0u64;
        while spent < budget {
            let step = grain.min(budget - spent);
            self.run(step);
            spent += step;
            if self.is_idle() {
                break;
            }
        }
        spent
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
    /// byte-for-byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::ConfigMismatch`] when `base` came from a different
    /// config (delegated to [`SnapDelta::between`]).
    pub fn snapshot_delta(&self, base: &Snapshot) -> Result<SnapDelta, SnapError> {
        SnapDelta::between(base, &self.snapshot())
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
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapError> {
        if snap.version != smappic_sim::SNAP_VERSION {
            return Err(SnapError::VersionMismatch {
                found: snap.version,
                expected: smappic_sim::SNAP_VERSION,
            });
        }
        let expected = self.config_digest();
        if snap.config_digest != expected {
            return Err(SnapError::ConfigMismatch { found: snap.config_digest, expected });
        }
        let mut r = SnapReader::new(snap);
        self.restore_walk(&mut r);
        r.finish()?;
        self.now = snap.cycle;
        Ok(())
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
        let mut r = SnapReader::from_source(Box::new(move || src.next_section()));
        self.restore_walk(&mut r);
        r.finish()?;
        self.now = cycle;
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

    /// Aggregated statistics across the whole platform.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        for f in &self.fpgas {
            s.merge(f.shell().stats());
            s.merge(f.xbar().stats());
            for n in f.nodes() {
                s.merge(n.chipset().stats());
                s.merge(n.chipset().memctl().stats());
                // The DRAM model's own counters (`dram.req`, `dram.bytes`,
                // `dram.oob`, fault spikes) were historically dropped here
                // — only the controller's `memctl.*` made it up.
                s.merge(n.chipset().memctl().dram().stats());
                s.merge(n.chipset().bridge_stats());
                n.merge_mesh_stats_into(&mut s);
                for t in 0..n.tile_count() {
                    n.tile(t as TileId).bpc().merge_stats_into(&mut s);
                    n.tile(t as TileId).llc().merge_stats_into(&mut s);
                }
            }
        }
        if let Some(eth) = &self.eth {
            eth.merge_stats(&mut s);
        }
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
        s
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
    /// [`Platform::stats`] plus the latency/shape histograms, merged in a
    /// fixed component order so two equivalent runs produce bit-identical
    /// registries.
    ///
    /// Architectural entries (everything except the `host.`-prefixed
    /// stepper diagnostics) are identical between the serial and
    /// epoch-parallel steppers; compare with
    /// [`MetricsRegistry::architectural`].
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.merge_counters(&self.stats());
        for (_, link) in &self.links {
            m.merge_histogram("pcie.rtt", link.rtt());
        }
        for f in &self.fpgas {
            for n in f.nodes() {
                m.merge_histogram("noc.hops", n.mesh_hops());
                m.merge_histogram("dram.latency", n.chipset().memctl().latency());
                for t in 0..n.tile_count() {
                    m.merge_histogram("bpc.miss_latency", n.tile(t as TileId).bpc().miss_latency());
                    m.merge_histogram("llc.miss_latency", n.tile(t as TileId).llc().miss_latency());
                }
            }
        }
        m.merge_histogram("host.epoch_width", &self.host_epochs);
        // Flow-control layer: every Port's pushes/stalls/peak counters and
        // occupancy histogram, under stable dotted names rooted in the
        // topology (`port.fpga0.shell.in_req.*`, `port.node3.tile1.bpc
        // .noc_out.*`, ...). Same fixed walk order as the stats merge, so
        // equivalent runs produce bit-identical registries.
        for (fi, f) in self.fpgas.iter().enumerate() {
            f.shell().merge_port_metrics(&format!("fpga{fi}.shell"), &mut m);
            f.xbar().merge_port_metrics(&format!("fpga{fi}.xbar"), &mut m);
            for (li, n) in f.nodes().iter().enumerate() {
                let g = fi * self.cfg.nodes_per_fpga + li;
                n.merge_port_metrics(&format!("node{g}"), &mut m);
            }
        }
        if let Some(eth) = &self.eth {
            // Fabric hop meters sample occupancy at pump-call time, which
            // the grouped drivers batch differently from the per-cycle
            // reference — stepper diagnostics, so they live under `host.`
            // and are stripped by [`MetricsRegistry::architectural`]. The
            // deterministic fabric counters (`eth.frames`, `eth.bytes`)
            // come in through [`Platform::stats`] above.
            let mut fabric = MetricsRegistry::new();
            eth.merge_port_metrics("eth", &mut fabric);
            for (name, v) in fabric.counters().iter() {
                m.add_counter(&format!("host.{name}"), v);
            }
            for (name, h) in fabric.histograms() {
                m.merge_histogram(&format!("host.{name}"), h);
            }
        }
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
            h = fold(h, f.shell().stats().get("shell.in_req"));
            h = fold(h, f.shell().stats().get("shell.out_req"));
            for n in f.nodes() {
                h = fold(h, n.mesh_stats("noc.delivered"));
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
    /// `check_interval` chunks, sampling the progress signature between
    /// chunks.
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
        let mut wd = Watchdog::new(wcfg.clone());
        wd.observe(self.now, self.progress_signature());
        let mut spent = 0u64;
        while spent < max {
            let chunk = wcfg.check_interval.max(1).min(max - spent);
            let before = self.now;
            if self.run_until_idle(chunk) {
                return Ok(true);
            }
            // Guarantee termination even if a stepper made no visible
            // cycle progress (cannot happen today; belt and braces).
            spent += (self.now - before).max(1);
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

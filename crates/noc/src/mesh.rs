//! The node-level mesh: routers, buffers, arbitration, and the edge port.

use smappic_sim::{
    meter_slots, Cycle, FaultInjector, Meters, MetersBuilder, Port as FlowPort, SaveState,
    SnapReader, SnapWriter, Stats, TraceBuf, TraceEventKind,
};

use crate::packet::Packet;
use crate::router::{Port, Router};
use crate::types::{NodeId, TileId, VirtNet};

/// Port-name fragments for the five router input directions, indexed by
/// [`Port::index`].
const DIR_NAMES: [&str; 5] = ["north", "south", "east", "west", "local"];

meter_slots! {
    /// The mesh's counters, bumped on the per-flit hot path.
    struct MeshMeters {
        injected: counter("noc.injected"),
        edge_in: counter("noc.edge_in"),
        flits: counter("noc.flits"),
        edge_out: counter("noc.edge_out"),
        delivered: counter("noc.delivered"),
        fault_stall: counter("noc.fault_stall"),
        /// Manhattan hop count of every packet leaving the mesh (tile
        /// delivery or edge exit), measured from its entry router — the XY
        /// route length, independent of congestion stalls.
        hops: histogram("noc.hops"),
    }
}

/// Geometry and timing of one node's mesh.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// The node this mesh belongs to.
    pub node: NodeId,
    /// Number of tiles.
    pub tiles: usize,
    /// Mesh width in columns (defaults to ⌈√tiles⌉).
    pub width: u16,
    /// Link traversal latency per hop, in cycles (router pipeline + wire).
    pub hop_latency: Cycle,
    /// Capacity of each (input port, virtual network) buffer, in packets.
    pub input_buffer_capacity: usize,
    /// Capacity of the edge-out queue toward the chipset, in packets.
    pub edge_capacity: usize,
}

impl MeshConfig {
    /// A mesh for `tiles` tiles with default timing (1-cycle hops, 4-packet
    /// buffers) — the defaults used by the SMAPPIC platform crate.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn new(node: NodeId, tiles: usize) -> Self {
        assert!(tiles > 0, "a node needs at least one tile");
        let width = (tiles as f64).sqrt().ceil() as u16;
        Self {
            node,
            tiles,
            width: width.max(1),
            hop_latency: 1,
            input_buffer_capacity: 4,
            edge_capacity: 64,
        }
    }

    /// Sets the per-hop latency.
    pub fn with_hop_latency(mut self, hop_latency: Cycle) -> Self {
        assert!(hop_latency >= 1, "hop latency below 1 would let packets teleport within a tick");
        self.hop_latency = hop_latency;
        self
    }
}

/// One (input-port, virtual-network) buffer: packets with arrival times,
/// held in a named bounded flow-control port.
#[derive(Debug, Clone)]
struct InBuf {
    q: FlowPort<(Cycle, Packet)>,
}

impl InBuf {
    fn head_ready(&self, now: Cycle) -> Option<&Packet> {
        self.q.peek().filter(|(t, _)| *t <= now).map(|(_, p)| p)
    }
}

/// Where a router output leads.
#[derive(Debug, Clone, Copy)]
enum Sink {
    /// The facing input port of a neighbouring router.
    Router(usize),
    /// The edge-out queue toward the chipset (router 0's North).
    Edge,
    /// The attached tile's eject queues.
    Tile,
}

/// Per-router state: 5 input ports × 3 VNs of buffering, output link
/// occupancy, and a round-robin arbitration pointer per output.
#[derive(Debug, Clone)]
struct RouterState {
    bufs: [[InBuf; 3]; 5],
    busy_until: [Cycle; 5],
    rr: [usize; 5],
    /// Bit `3 * port + vn` is set exactly when that buffer holds a packet
    /// (the candidate index arbitration uses). Lets the tick loop skip
    /// idle routers — the common case in large meshes — and route only
    /// the heads that exist. Derived state: recomputed on restore, never
    /// serialized.
    nonempty: u16,
}

impl RouterState {
    fn new(router: usize, capacity: usize, meters: &mut MetersBuilder) -> Self {
        let bufs = std::array::from_fn(|p| {
            std::array::from_fn(|vn| {
                let slot = meters.port(format!("r{router}.{}.vc{vn}", DIR_NAMES[p]));
                InBuf { q: FlowPort::bounded(slot, capacity) }
            })
        });
        Self { bufs, busy_until: [0; 5], rr: [0; 5], nonempty: 0 }
    }

    /// `nonempty` recomputed from the queues themselves.
    fn scan_nonempty(&self) -> u16 {
        let bufs = self.bufs.iter().flatten().enumerate();
        bufs.fold(0, |m, (c, b)| m | u16::from(!b.q.is_empty()) << c)
    }
}

/// A 2-D mesh of routers forming one node's NoC.
///
/// Tiles inject with [`Mesh::inject`] and drain with [`Mesh::eject`]; the
/// chipset attaches at the *edge port* ([`Mesh::inject_edge`] /
/// [`Mesh::eject_edge`]), which is the north edge of router (0,0).
///
/// Call [`Mesh::tick`] once per cycle. Determinism: arbitration is
/// round-robin with fixed tie-breaking, so identical inputs yield identical
/// schedules.
#[derive(Debug, Clone)]
pub struct Mesh {
    cfg: MeshConfig,
    routers: Vec<RouterState>,
    route_fns: Vec<Router>,
    eject_q: Vec<[FlowPort<Packet>; 3]>,
    eject_rr: Vec<usize>,
    edge_out: FlowPort<Packet>,
    /// Packets buffered across the whole mesh (sum of router occupancies);
    /// lets [`Mesh::tick`] return in O(1) when the mesh is fully drained —
    /// the dominant case once components sleep between bursts. Derived
    /// state: recomputed on restore, never serialized.
    total_occupancy: usize,
    /// Packets sitting in the output queues (per-tile eject queues and the
    /// edge-out port), which `total_occupancy` does not count. Together
    /// they make [`Mesh::is_drained`] O(1). Derived state, like
    /// `total_occupancy`.
    output_occupancy: usize,
    /// Host fast-path switch: when false the tick always performs the full
    /// router scan, reproducing the plain reference simulator's work (the
    /// scan is a no-op on an empty mesh either way, so results are
    /// bit-identical).
    fast_path: bool,
    meters: Meters,
    slots: MeshMeters,
    faults: Option<FaultInjector>,
    trace: TraceBuf,
}

impl Mesh {
    /// Builds the mesh for `cfg`.
    pub fn new(cfg: MeshConfig) -> Self {
        let n = cfg.tiles;
        let route_fns = (0..n as u16)
            .map(|t| {
                let (x, y) = Router::coords_of(t, cfg.width);
                Router::new(x, y, cfg.width, cfg.tiles as u16, cfg.node)
            })
            .collect();
        let mut meters = MetersBuilder::new();
        let slots = MeshMeters::register(&mut meters);
        Self {
            routers: (0..n)
                .map(|r| RouterState::new(r, cfg.input_buffer_capacity, &mut meters))
                .collect(),
            route_fns,
            eject_q: (0..n)
                .map(|t| {
                    std::array::from_fn(|vn| {
                        FlowPort::elastic_with(meters.port(format!("eject.t{t}.vc{vn}")), 8)
                    })
                })
                .collect(),
            eject_rr: vec![0; n],
            edge_out: FlowPort::bounded(meters.port("edge_out"), cfg.edge_capacity),
            total_occupancy: 0,
            output_occupancy: 0,
            fast_path: true,
            cfg,
            meters: meters.build(),
            slots,
            faults: None,
            trace: TraceBuf::new(4096),
        }
    }

    /// The mesh's meters: `noc.*` counters, the `noc.hops` histogram and
    /// every buffer's port meter.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// Packets delivered to tiles so far (`noc.delivered`).
    pub fn delivered(&self) -> u64 {
        self.meters.get(self.slots.delivered)
    }

    /// The mesh's trace lane (delivery events).
    pub fn trace_mut(&mut self) -> &mut TraceBuf {
        &mut self.trace
    }

    /// The router a packet entered the mesh at: its source tile's router
    /// for local injections, router 0 (the edge port) for everything
    /// arriving from the chipset or off-node.
    fn entry_router(&self, pkt: &Packet) -> usize {
        if pkt.src.node == self.cfg.node {
            if let Some(t) = pkt.src.tile_id() {
                if (t as usize) < self.cfg.tiles {
                    return t as usize;
                }
            }
        }
        0
    }

    /// XY route length between two routers (Manhattan distance).
    fn manhattan(&self, a: usize, b: usize) -> u16 {
        let w = self.cfg.width as usize;
        let (ax, ay) = (a % w, a / w);
        let (bx, by) = (b % w, b / w);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u16
    }

    /// Installs a fault injector that transiently freezes router output
    /// ports: while a port's stall window hits, that link forwards nothing
    /// (pure back-pressure into the input buffers — no loss, no reorder).
    /// Stalls at routers holding traffic count as `noc.fault_stall`.
    pub fn set_faults(&mut self, inj: FaultInjector) {
        self.faults = Some(inj);
    }

    /// The mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Injects a packet from tile `tile`'s local port. Fails with the packet
    /// when the local input buffer is full (back-pressure to the tile).
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn inject(&mut self, tile: TileId, pkt: Packet) -> Result<(), Packet> {
        // Local injection is immediately visible to the router.
        self.push_input(tile as usize, Port::Local, 0, pkt)?;
        self.meters.incr(self.slots.injected);
        Ok(())
    }

    /// Queues `pkt`, arriving at cycle `at`, on router `r`'s input `port`;
    /// hands the packet back when that buffer is full.
    fn push_input(&mut self, r: usize, port: Port, at: Cycle, pkt: Packet) -> Result<(), Packet> {
        let (pi, vn) = (port.index(), pkt.vn.index());
        let rt = &mut self.routers[r];
        rt.bufs[pi][vn].q.try_push((at, pkt), &mut self.meters).map_err(|(_, pkt)| pkt)?;
        rt.nonempty |= 1 << (3 * pi + vn);
        self.total_occupancy += 1;
        Ok(())
    }

    /// True when tile `tile` can inject on `vn` this cycle.
    pub fn can_inject(&self, tile: TileId, vn: VirtNet) -> bool {
        !self.routers[tile as usize].bufs[Port::Local.index()][vn.index()].q.is_full()
    }

    /// Removes the next packet delivered to tile `tile`, round-robining over
    /// virtual networks.
    pub fn eject(&mut self, tile: TileId) -> Option<Packet> {
        if self.output_occupancy == 0 {
            return None; // every eject queue is empty: the usual answer
        }
        let t = tile as usize;
        for i in 0..3 {
            let vn = (self.eject_rr[t] + i) % 3;
            if let Some(p) = self.eject_q[t][vn].pop() {
                self.eject_rr[t] = (vn + 1) % 3;
                self.output_occupancy -= 1;
                return Some(p);
            }
        }
        None
    }

    /// Injects a packet arriving from the chipset through the edge port.
    /// Fails with the packet when the edge input buffer is full.
    pub fn inject_edge(&mut self, pkt: Packet) -> Result<(), Packet> {
        self.push_input(0, Port::North, 0, pkt)?;
        self.meters.incr(self.slots.edge_in);
        Ok(())
    }

    /// Removes the next packet leaving the node through the edge port.
    pub fn eject_edge(&mut self) -> Option<Packet> {
        let p = self.edge_out.pop();
        if p.is_some() {
            self.output_occupancy -= 1;
        }
        p
    }

    /// True when no packet is buffered anywhere — router inputs, eject
    /// queues, or the edge port — in O(1). Equivalent to [`Mesh::is_idle`]
    /// but cheap enough to probe every cycle.
    pub fn is_drained(&self) -> bool {
        self.total_occupancy == 0 && self.output_occupancy == 0
    }

    /// Counters collected so far (`noc.injected`, `noc.delivered`,
    /// `noc.flits`, `noc.edge_in`, `noc.edge_out`), rendered.
    pub fn stats(&self) -> Stats {
        self.meters.stats()
    }

    /// True when no packet is buffered anywhere in the mesh.
    pub fn is_idle(&self) -> bool {
        self.edge_out.is_empty()
            && self.eject_q.iter().all(|qs| qs.iter().all(|q| q.is_empty()))
            && self
                .routers
                .iter()
                .all(|r| r.bufs.iter().all(|pb| pb.iter().all(|b| b.q.is_empty())))
    }

    fn neighbor(&self, tile: usize, port: Port) -> Option<usize> {
        let w = self.cfg.width as usize;
        let (x, y) = (tile % w, tile / w);
        let n = self.cfg.tiles;
        match port {
            Port::North => (y > 0).then(|| tile - w),
            Port::South => (tile + w < n).then(|| tile + w),
            Port::East => {
                let nx = x + 1;
                (nx < w && tile + 1 < n).then(|| tile + 1)
            }
            Port::West => (x > 0).then(|| tile - 1),
            Port::Local => None,
        }
    }

    /// Toggles the host fast path (the empty-mesh tick elision). Purely a
    /// host-side switch; the simulated behaviour is identical either way.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
    }

    /// Advances the mesh by one cycle: every router moves at most one packet
    /// per output port, subject to link occupancy (flit serialization) and
    /// downstream buffer space.
    ///
    /// Per visited router each ready head is routed once into a 15-bit
    /// candidate mask per output (bit `3 * input + vn`); an output then
    /// walks only its own mask, in round-robin order.
    pub fn tick(&mut self, now: Cycle) {
        if self.fast_path && self.total_occupancy == 0 {
            return; // nothing buffered anywhere: the whole scan is a no-op
        }
        for r in 0..self.cfg.tiles {
            let rt = &self.routers[r];
            debug_assert_eq!(rt.nonempty, rt.scan_nonempty(), "router {r} occupancy mask");
            let mut heads = rt.nonempty;
            if heads == 0 {
                continue;
            }
            let mut cand = [0u16; 5];
            while heads != 0 {
                let c = heads.trailing_zeros() as usize;
                heads &= heads - 1;
                if let Some(o) = self.head_route(now, r, c) {
                    cand[o] |= 1 << c;
                }
            }
            for &out in &Port::ALL {
                self.try_forward(now, r, out, &mut cand);
            }
        }
    }

    /// The output index the head of router `r`'s buffer `c` leaves through,
    /// when that head has arrived by `now`.
    fn head_route(&self, now: Cycle, r: usize, c: usize) -> Option<usize> {
        let pkt = self.routers[r].bufs[c / 3][c % 3].head_ready(now)?;
        Some(self.route_fns[r].route(pkt.dst).index())
    }

    /// Where router `r`'s output `out` leads, when it may send this cycle:
    /// `None` while the link is serializing an earlier packet, is
    /// fault-stalled, or does not exist (an off-chip side).
    fn open_output(&mut self, now: Cycle, r: usize, out: Port) -> Option<Sink> {
        let oi = out.index();
        if now < self.routers[r].busy_until[oi] {
            return None;
        }
        if let Some(inj) = &self.faults {
            // Lane = flattened (router, output port); the tick loop only
            // reaches routers with buffered traffic, so every counted stall
            // is a cycle where the fault could actually hold something up.
            if inj.stalled((r * 5 + oi) as u64, now) {
                self.meters.incr(self.slots.fault_stall);
                return None;
            }
        }
        match out {
            Port::Local => Some(Sink::Tile),
            Port::North if r == 0 => Some(Sink::Edge),
            _ => self.neighbor(r, out).map(Sink::Router),
        }
    }

    /// True when `sink`, fed through `out`, can take a packet on `vn`.
    fn has_space(&self, sink: Sink, out: Port, vn: usize) -> bool {
        match sink {
            Sink::Router(nb) => !self.routers[nb].bufs[out.opposite().index()][vn].q.is_full(),
            Sink::Edge => !self.edge_out.is_full(),
            Sink::Tile => true, // eject queues are drained by the tile every cycle
        }
    }

    /// Attempts to forward one packet out of router `r` through `out`,
    /// keeping the candidate masks current.
    fn try_forward(&mut self, now: Cycle, r: usize, out: Port, cand: &mut [u16; 5]) {
        // Ahead of the candidate check: a fault stall counts whenever the
        // router holds traffic, whether or not any of it wants this output.
        let Some(sink) = self.open_output(now, r, out) else { return };
        let oi = out.index();
        // This output's candidates, rotated so bit `k` is candidate
        // `(start + k) % 15`: ascending bits are round-robin order.
        let start = self.routers[r].rr[oi];
        let mask = u32::from(cand[oi]);
        let mut rotated = ((mask >> start) | (mask << (15 - start))) & 0x7FFF;
        while rotated != 0 {
            let c = (start + rotated.trailing_zeros() as usize) % 15;
            rotated &= rotated - 1;
            if !self.has_space(sink, out, c % 3) {
                continue; // this candidate blocked; try others (adaptive VC arbitration)
            }
            self.forward(now, r, out, sink, c);
            // The buffer's next packet is a head now. It may already have
            // arrived and leave through a later output this same cycle, so
            // route it at once rather than at the next visit.
            cand[oi] &= !(1 << c);
            if let Some(o) = self.head_route(now, r, c) {
                cand[o] |= 1 << c;
            }
            return;
        }
    }

    /// Moves the head of router `r`'s buffer `c` through `out` into `sink`;
    /// the caller checked [`Mesh::has_space`].
    fn forward(&mut self, now: Cycle, r: usize, out: Port, sink: Sink, c: usize) {
        let (oi, vn) = (out.index(), c % 3);
        let rt = &mut self.routers[r];
        let buf = &mut rt.bufs[c / 3][vn].q;
        let (_, pkt) = buf.pop().expect("candidate buffers hold a head");
        if buf.is_empty() {
            rt.nonempty &= !(1 << c);
        }
        self.total_occupancy -= 1;
        let flits = pkt.flits();
        rt.busy_until[oi] = now + Cycle::from(flits);
        rt.rr[oi] = (c + 1) % 15;
        self.meters.add(self.slots.flits, u64::from(flits));
        if let Sink::Router(nb) = sink {
            self.push_input(nb, out.opposite(), now + self.cfg.hop_latency, pkt)
                .expect("space checked by the arbiter");
            return;
        }
        let edge = matches!(sink, Sink::Edge);
        let h = self.manhattan(self.entry_router(&pkt), r);
        self.meters.record(self.slots.hops, u64::from(h));
        self.trace.record(now, || TraceEventKind::NocDeliver {
            dst: if edge { 0 } else { r as u16 },
            hops: h,
            vn: vn as u8,
            edge,
        });
        if edge {
            self.edge_out.push(pkt, &mut self.meters);
            self.meters.incr(self.slots.edge_out);
        } else {
            self.eject_q[r][vn].push(pkt, &mut self.meters);
            self.meters.incr(self.slots.delivered);
        }
        self.output_occupancy += 1;
    }
}

impl SaveState for Mesh {
    fn save(&self, w: &mut SnapWriter) {
        // Shape, routing functions, meter slots and fault hook are
        // configuration; the occupancy counts and masks are derived
        // (recomputed on restore), and the fast-path switch and trace lane
        // are host-side. Every buffer's meter is in the one block saved
        // here, so an idle router's section does not change.
        let Self {
            cfg: _,
            routers,
            route_fns: _,
            eject_q,
            eject_rr,
            edge_out,
            total_occupancy: _,
            output_occupancy: _,
            fast_path: _,
            meters,
            slots: _,
            faults: _,
            trace: _,
        } = self;
        meters.save(w);
        edge_out.save(w);
        for rr in eject_rr {
            w.usize(*rr);
        }
        for (t, qs) in eject_q.iter().enumerate() {
            w.scoped(&format!("eject{t}"), |w| {
                for q in qs {
                    q.save(w);
                }
            });
        }
        for (ri, r) in routers.iter().enumerate() {
            let RouterState { bufs, busy_until, rr, nonempty: _ } = r;
            w.scoped(&format!("r{ri}"), |w| {
                for InBuf { q } in bufs.iter().flatten() {
                    q.save(w);
                }
                for busy in busy_until {
                    w.u64(*busy);
                }
                for rr in rr {
                    w.usize(*rr);
                }
            });
        }
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.meters.restore(r);
        self.edge_out.restore(r);
        for rr in &mut self.eject_rr {
            *rr = r.usize();
        }
        for (t, qs) in self.eject_q.iter_mut().enumerate() {
            r.scoped(&format!("eject{t}"), |r| {
                for q in qs {
                    q.restore(r);
                }
            });
        }
        let mut total = 0;
        for (ri, rt) in self.routers.iter_mut().enumerate() {
            r.scoped(&format!("r{ri}"), |r| {
                for b in rt.bufs.iter_mut().flatten() {
                    b.q.restore(r);
                    total += b.q.len();
                }
                for busy in &mut rt.busy_until {
                    *busy = r.u64();
                }
                for rr in &mut rt.rr {
                    // Arbitration only ever reads a pointer modulo the 15
                    // candidates; an out-of-range one is untrusted input.
                    *rr = r.usize() % 15;
                }
                // Occupancy is derivable from the restored queues.
                rt.nonempty = rt.scan_nonempty();
            });
        }
        self.total_occupancy = total;
        self.output_occupancy = self.edge_out.len()
            + self
                .eject_q
                .iter()
                .map(|qs| qs.iter().map(|q| q.len()).sum::<usize>())
                .sum::<usize>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Msg;
    use crate::types::{Gid, LineData};

    fn mesh(tiles: usize) -> Mesh {
        Mesh::new(MeshConfig::new(NodeId(0), tiles))
    }

    fn req(dst: Gid, src: Gid, line: u64) -> Packet {
        Packet::on_canonical_vn(dst, src, Msg::ReqS { line })
    }

    /// Runs the mesh until `tile` ejects a packet, returning (packet, cycles).
    fn run_until_eject(m: &mut Mesh, tile: TileId, max: Cycle) -> (Packet, Cycle) {
        for now in 0..max {
            m.tick(now);
            if let Some(p) = m.eject(tile) {
                return (p, now);
            }
        }
        panic!("packet not delivered within {max} cycles");
    }

    /// The arbiter as it was before the candidate masks: every output
    /// rescans all 15 `(input, VN)` buffers, peeking and routing each head
    /// again, and a router is visited when any of its queues holds a
    /// packet. The oracle [`Mesh::tick`] is checked against.
    impl Mesh {
        fn tick_by_scan(&mut self, now: Cycle) {
            for r in 0..self.cfg.tiles {
                if self.routers[r].bufs.iter().flatten().all(|b| b.q.is_empty()) {
                    continue;
                }
                for &out in &Port::ALL {
                    let Some(sink) = self.open_output(now, r, out) else { continue };
                    let start = self.routers[r].rr[out.index()];
                    for k in 0..15 {
                        let c = (start + k) % 15;
                        let routed = self.routers[r].bufs[c / 3][c % 3]
                            .head_ready(now)
                            .is_some_and(|pkt| self.route_fns[r].route(pkt.dst) == out);
                        if routed && self.has_space(sink, out, c % 3) {
                            self.forward(now, r, out, sink, c);
                            break;
                        }
                    }
                }
            }
        }

        fn saved(&self) -> smappic_sim::Snapshot {
            let mut w = SnapWriter::new();
            w.scoped("mesh", |w| self.save(w));
            smappic_sim::Snapshot::new(0, 0, w)
        }
    }

    /// One seeded packet: 1-flit requests and 9-flit line transfers on all
    /// three virtual networks, for a tile, the chipset or another node.
    fn random_packet(rng: &mut smappic_sim::SimRng, tiles: usize, src: Gid) -> Packet {
        let dst = match rng.gen_range(8) {
            0 => Gid::chipset(NodeId(0)),
            1 => Gid::tile(NodeId(3), 0),
            _ => Gid::tile(NodeId(0), rng.gen_range(tiles as u64) as u16),
        };
        let line = rng.gen_range(1 << 20) * 64;
        let msg = match rng.gen_range(5) {
            0 => Msg::ReqS { line },
            1 => Msg::Data { line, data: LineData::zeroed(), excl: false },
            2 => Msg::InvAck { line },
            3 => Msg::WbData { line, data: LineData::zeroed() },
            _ => Msg::Inv { line },
        };
        Packet::on_canonical_vn(dst, src, msg)
    }

    /// Drives a mask-arbiter mesh and a scan-arbiter mesh with the same
    /// seeded traffic and holds them equal at every cycle. With
    /// `drain_edge` off nothing pops `edge_out`: it fills and back-pressures
    /// router 0. A `save` walks some 40 fields for each of up to 217 ports,
    /// so unoptimized builds compare its bytes on every 8th cycle only.
    fn run_differential(tiles: usize, hop_latency: Cycle, drain_edge: bool, faulted: bool) {
        use smappic_sim::{FaultPlan, FaultProfile, SimRng};
        use std::sync::Arc;

        let build = || {
            let mut cfg = MeshConfig::new(NodeId(0), tiles).with_hop_latency(hop_latency);
            cfg.edge_capacity = 8;
            let mut m = Mesh::new(cfg);
            if faulted {
                let profile =
                    FaultProfile { stall_prob: 0.3, stall_window: 4, ..FaultProfile::quiet() };
                m.set_faults(FaultInjector::new(Arc::new(FaultPlan::seeded(9, profile)), 0x100));
            }
            m
        };
        let (mut masks, mut scan) = (build(), build());
        let case =
            format!("{tiles} tiles, hop {hop_latency}, drain {drain_edge}, faults {faulted}");
        let mut rng = SimRng::new(0xA4B1 + tiles as u64 * 8 + hop_latency);
        let mut edge_filled = false;
        let save_stride = if cfg!(debug_assertions) { 8 } else { 1 };
        for now in 0..240 {
            // Offered load stops before the end so the meshes also drain.
            if now < 200 {
                for t in 0..tiles as TileId {
                    if rng.chance(0.45) {
                        let pkt = random_packet(&mut rng, tiles, Gid::tile(NodeId(0), t));
                        let got = masks.inject(t, pkt.clone()).is_ok();
                        assert_eq!(got, scan.inject(t, pkt).is_ok(), "inject at {now} ({case})");
                    }
                }
                if rng.chance(0.3) {
                    let mut pkt = random_packet(&mut rng, tiles, Gid::chipset(NodeId(0)));
                    pkt.dst = Gid::tile(NodeId(0), rng.gen_range(tiles as u64) as u16);
                    let got = masks.inject_edge(pkt.clone()).is_ok();
                    assert_eq!(got, scan.inject_edge(pkt).is_ok(), "edge inject at {now} ({case})");
                }
            }
            masks.tick(now);
            scan.tick_by_scan(now);
            for t in 0..tiles as TileId {
                loop {
                    let got = masks.eject(t);
                    assert_eq!(got, scan.eject(t), "eject at tile {t}, cycle {now} ({case})");
                    if got.is_none() {
                        break;
                    }
                }
            }
            edge_filled |= masks.edge_out.is_full();
            if drain_edge {
                assert_eq!(masks.eject_edge(), scan.eject_edge(), "edge at {now} ({case})");
            }
            for (a, b) in masks.routers.iter().zip(&scan.routers) {
                assert_eq!((a.rr, a.busy_until), (b.rr, b.busy_until), "cycle {now} ({case})");
            }
            assert_eq!(masks.stats(), scan.stats(), "counters at {now} ({case})");
            if now % save_stride == 0 {
                assert_eq!(masks.saved(), scan.saved(), "saved state at {now} ({case})");
            }
        }
        assert_eq!(masks.saved(), scan.saved(), "final saved state ({case})");
        let stats = masks.stats();
        assert!(stats.get("noc.flits") > 500, "traffic must flow ({case}): {stats:?}");
        assert_eq!(stats.get("noc.fault_stall") > 0, faulted, "fault stalls ({case})");
        assert_eq!(edge_filled, !drain_edge, "edge back-pressure ({case})");
    }

    #[test]
    fn mask_arbiter_matches_the_scan_oracle_cycle_for_cycle() {
        // 1x2, 2x2, ragged 3 and 7 tiles, 3x4.
        for tiles in [2, 4, 3, 7, 12] {
            for hop_latency in [1, 3] {
                run_differential(tiles, hop_latency, true, false);
            }
        }
        run_differential(4, 1, false, false);
        run_differential(7, 3, false, true);
        run_differential(12, 1, true, true);
    }

    #[test]
    fn a_buffers_second_packet_can_leave_through_a_later_output_the_same_cycle() {
        // Tile 0's local Req buffer holds a packet for tile 2 (South) then
        // one for tile 1 (East). South arbitrates first and pops the first;
        // the second is a ready head by the time East, a later output,
        // arbitrates in the same cycle.
        let run = |scan: bool| {
            let mut m = mesh(4);
            let src = Gid::tile(NodeId(0), 0);
            m.inject(0, req(Gid::tile(NodeId(0), 2), src, 0x40)).unwrap();
            m.inject(0, req(Gid::tile(NodeId(0), 1), src, 0x80)).unwrap();
            if scan {
                m.tick_by_scan(0);
            } else {
                m.tick(0);
            }
            let r0 = &m.routers[0];
            (r0.busy_until, r0.rr, r0.nonempty, m.routers[1].nonempty, m.routers[2].nonempty)
        };
        let masks = run(false);
        assert_eq!(masks, run(true));
        let (busy, _, left, east, south) = masks;
        assert_eq!(left, 0, "both packets left router 0 in cycle 0");
        assert_eq!((busy[Port::South.index()], busy[Port::East.index()]), (1, 1));
        assert_eq!((east, south), (1 << (3 * Port::West.index()), 1 << (3 * Port::North.index())));
    }

    #[test]
    fn single_hop_delivery() {
        let mut m = mesh(4);
        m.inject(0, req(Gid::tile(NodeId(0), 1), Gid::tile(NodeId(0), 0), 0x40)).unwrap();
        let (p, t) = run_until_eject(&mut m, 1, 50);
        assert_eq!(p.msg, Msg::ReqS { line: 0x40 });
        assert!(t <= 5, "one hop should take a handful of cycles, took {t}");
    }

    #[test]
    fn corner_to_corner_in_12_tile_mesh() {
        // 12 tiles → 4-wide, 3 rows. Tile 0 = (0,0), tile 11 = (3,2).
        let mut m = mesh(12);
        m.inject(0, req(Gid::tile(NodeId(0), 11), Gid::tile(NodeId(0), 0), 0x80)).unwrap();
        let (_, t) = run_until_eject(&mut m, 11, 100);
        // 5 hops; each hop ~1 cycle latency + arbitration.
        assert!((5..=20).contains(&t), "corner-to-corner took {t} cycles");
        // Tile 0 = (0,0) to tile 11 = (3,2): Manhattan distance 5.
        let hops = m.meters.histogram_of(m.slots.hops);
        assert_eq!(hops.count(), 1);
        assert_eq!(hops.max(), 5, "hop histogram must see the XY route length");
    }

    #[test]
    fn hop_histogram_distinguishes_local_and_edge_paths() {
        let mut m = mesh(4); // 2x2
                             // Self-delivery: 0 hops.
        m.inject(2, req(Gid::tile(NodeId(0), 2), Gid::tile(NodeId(0), 2), 0)).unwrap();
        run_until_eject(&mut m, 2, 20);
        // Off-node: tile 3 = (1,1) to the edge at router 0 = 2 hops.
        m.inject(3, req(Gid::tile(NodeId(2), 0), Gid::tile(NodeId(0), 3), 0x40)).unwrap();
        for now in 0..100 {
            m.tick(now);
            if m.eject_edge().is_some() {
                break;
            }
        }
        // Edge injection toward tile 3: enters at router 0, 2 hops.
        let pkt = Packet::on_canonical_vn(
            Gid::tile(NodeId(0), 3),
            Gid::chipset(NodeId(0)),
            Msg::Data { line: 0, data: LineData::zeroed(), excl: false },
        );
        m.inject_edge(pkt).unwrap();
        run_until_eject(&mut m, 3, 100);
        let hops = m.meters.histogram_of(m.slots.hops);
        assert_eq!(hops.count(), 3);
        assert_eq!(hops.min(), 0, "self-delivery is zero hops");
        assert_eq!(hops.max(), 2);
        assert_eq!(hops.bucket(1), 2, "both cross-mesh trips were 2 hops");
    }

    #[test]
    fn self_delivery_works() {
        let mut m = mesh(4);
        m.inject(2, req(Gid::tile(NodeId(0), 2), Gid::tile(NodeId(0), 2), 0)).unwrap();
        let (p, _) = run_until_eject(&mut m, 2, 20);
        assert_eq!(p.dst, Gid::tile(NodeId(0), 2));
    }

    #[test]
    fn chipset_traffic_leaves_through_edge() {
        let mut m = mesh(12);
        m.inject(7, req(Gid::chipset(NodeId(0)), Gid::tile(NodeId(0), 7), 0xC0)).unwrap();
        let mut got = None;
        for now in 0..100 {
            m.tick(now);
            if let Some(p) = m.eject_edge() {
                got = Some(p);
                break;
            }
        }
        assert_eq!(got.expect("edge packet").dst, Gid::chipset(NodeId(0)));
    }

    #[test]
    fn off_node_traffic_leaves_through_edge() {
        let mut m = mesh(4);
        m.inject(3, req(Gid::tile(NodeId(2), 0), Gid::tile(NodeId(0), 3), 0)).unwrap();
        let mut got = false;
        for now in 0..100 {
            m.tick(now);
            if m.eject_edge().is_some() {
                got = true;
                break;
            }
        }
        assert!(got);
    }

    #[test]
    fn edge_injection_reaches_tile() {
        let mut m = mesh(12);
        let pkt = Packet::on_canonical_vn(
            Gid::tile(NodeId(0), 10),
            Gid::chipset(NodeId(0)),
            Msg::Data { line: 0, data: LineData::zeroed(), excl: false },
        );
        m.inject_edge(pkt).unwrap();
        let (p, _) = run_until_eject(&mut m, 10, 100);
        assert!(matches!(p.msg, Msg::Data { .. }));
    }

    #[test]
    fn back_pressure_on_full_local_buffer() {
        let mut m = mesh(4);
        let cap = m.config().input_buffer_capacity;
        for i in 0..cap {
            m.inject(0, req(Gid::tile(NodeId(0), 3), Gid::tile(NodeId(0), 0), i as u64 * 64))
                .unwrap();
        }
        assert!(!m.can_inject(0, VirtNet::Req));
        let extra = req(Gid::tile(NodeId(0), 3), Gid::tile(NodeId(0), 0), 0x999);
        assert!(m.inject(0, extra).is_err());
    }

    #[test]
    fn per_pair_ordering_is_preserved() {
        let mut m = mesh(9);
        let dst = Gid::tile(NodeId(0), 8);
        let src = Gid::tile(NodeId(0), 0);
        let mut sent = 0u64;
        let mut received = Vec::new();
        let mut now = 0;
        while received.len() < 20 {
            if sent < 20 && m.can_inject(0, VirtNet::Req) {
                m.inject(0, req(dst, src, sent * 64)).unwrap();
                sent += 1;
            }
            m.tick(now);
            while let Some(p) = m.eject(8) {
                if let Msg::ReqS { line } = p.msg {
                    received.push(line / 64);
                }
            }
            now += 1;
            assert!(now < 10_000, "packets stuck");
        }
        assert_eq!(received, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn big_packets_occupy_links_longer() {
        // Send two 9-flit packets; second is serialized behind the first.
        let mut m = mesh(2);
        let dst = Gid::tile(NodeId(0), 1);
        let src = Gid::tile(NodeId(0), 0);
        let data = Msg::Data { line: 0, data: LineData::zeroed(), excl: false };
        m.inject(0, Packet::on_canonical_vn(dst, src, data.clone())).unwrap();
        m.inject(0, Packet::on_canonical_vn(dst, src, data)).unwrap();
        let mut arrivals = Vec::new();
        for now in 0..100 {
            m.tick(now);
            while m.eject(1).is_some() {
                arrivals.push(now);
            }
            if arrivals.len() == 2 {
                break;
            }
        }
        assert_eq!(arrivals.len(), 2);
        assert!(arrivals[1] - arrivals[0] >= 8, "9-flit serialization gap missing: {arrivals:?}");
    }

    #[test]
    fn is_idle_reflects_buffered_state() {
        let mut m = mesh(4);
        assert!(m.is_idle());
        m.inject(0, req(Gid::tile(NodeId(0), 3), Gid::tile(NodeId(0), 0), 0)).unwrap();
        assert!(!m.is_idle());
        for now in 0..50 {
            m.tick(now);
            m.eject(3);
        }
        assert!(m.is_idle());
    }

    #[test]
    fn stats_count_traffic() {
        let mut m = mesh(4);
        m.inject(0, req(Gid::tile(NodeId(0), 1), Gid::tile(NodeId(0), 0), 0)).unwrap();
        for now in 0..20 {
            m.tick(now);
            m.eject(1);
        }
        assert_eq!(m.stats().get("noc.injected"), 1);
        assert_eq!(m.stats().get("noc.delivered"), 1);
        assert!(m.stats().get("noc.flits") >= 1);
    }
}

//! The BYOC Private Cache (BPC): the core-side end of the coherence
//! protocol, behind the Transaction-Response Interface.

use std::collections::BTreeMap;

use smappic_noc::{line_of, line_offset, Addr, AmoOp, Gid, LineData, Msg, Packet};
use smappic_sim::{
    meter_slots, Cycle, DelayPort, Meters, MetersBuilder, Pack, Port, Ring, SaveState, SnapReader,
    SnapWriter, Stats, TraceBuf, TraceEventKind,
};

use crate::homing::Homing;
use crate::Geometry;

meter_slots! {
    /// The cache's counters, bumped on the per-access hot path, and its
    /// miss latency.
    struct BpcMeters {
        nc: counter("bpc.nc"),
        mshr_merge: counter("bpc.mshr_merge"),
        hit: counter("bpc.hit"),
        upgrade: counter("bpc.upgrade"),
        miss: counter("bpc.miss"),
        wb: counter("bpc.wb"),
        amo: counter("bpc.amo"),
        invalidated: counter("bpc.invalidated"),
        recalled: counter("bpc.recalled"),
        recall_nack: counter("bpc.recall_nack"),
        downgraded: counter("bpc.downgraded"),
        /// Issue-to-retire latency of every miss/upgrade MSHR. For a line
        /// homed on a remote node this spans the full NoC + PCIe round
        /// trip, so local-vs-remote NUMA structure is readable from this
        /// histogram alone (the paper-fidelity latency suite relies on it).
        miss_latency: histogram("bpc.miss_latency"),
    }
}

/// A memory operation issued by a core (or accelerator) through the TRI.
#[derive(Debug, Clone, PartialEq)]
pub enum MemOp {
    /// Cacheable load of `size` bytes (1/2/4/8).
    Load {
        /// Byte address.
        addr: Addr,
        /// Access width.
        size: u8,
    },
    /// Cacheable store.
    Store {
        /// Byte address.
        addr: Addr,
        /// Access width.
        size: u8,
        /// Store data in the low `size` bytes.
        data: u64,
    },
    /// Atomic read-modify-write (executed at the home LLC slice).
    Amo {
        /// Byte address (4- or 8-byte aligned).
        addr: Addr,
        /// Access width (4 or 8).
        size: u8,
        /// Operation.
        op: AmoOp,
        /// Operand.
        val: u64,
        /// Expected value for CAS.
        expected: u64,
    },
    /// Non-cacheable load addressed to a device (MMIO).
    NcLoad {
        /// Byte address.
        addr: Addr,
        /// Access width.
        size: u8,
        /// The device's NoC identity (resolved by the tile's address map).
        dst: Gid,
    },
    /// Non-cacheable store addressed to a device.
    NcStore {
        /// Byte address.
        addr: Addr,
        /// Access width.
        size: u8,
        /// Store data.
        data: u64,
        /// The device's NoC identity.
        dst: Gid,
    },
}

impl MemOp {
    /// The address this operation touches.
    pub fn addr(&self) -> Addr {
        match self {
            MemOp::Load { addr, .. }
            | MemOp::Store { addr, .. }
            | MemOp::Amo { addr, .. }
            | MemOp::NcLoad { addr, .. }
            | MemOp::NcStore { addr, .. } => *addr,
        }
    }
}

/// A core request: an operation plus a token echoed back in the response.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreReq {
    /// Caller-chosen tag to match the response.
    pub token: u64,
    /// The operation.
    pub op: MemOp,
}

/// A completed core request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreResp {
    /// The request's token.
    pub token: u64,
    /// Loaded / old value (zero for plain stores).
    pub data: u64,
}

/// MESI states a BPC line can hold (I is absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Shared,
    Exclusive,
    Modified,
}

#[derive(Debug, Clone)]
struct Way {
    line: Addr,
    state: LineState,
    data: LineData,
    lru: u64,
    /// Lines with an in-flight upgrade must not be evicted.
    locked: bool,
}

#[derive(Debug)]
struct Mshr {
    /// Merged requests for one line; an unmetered micro-list (capped at 16
    /// by the merge path), not an architectural flow-control queue.
    pending: Ring<CoreReq>,
    /// Cycle the miss (or upgrade) was issued; the miss-latency histogram
    /// records `drain cycle − since` when the MSHR fully retires.
    since: Cycle,
}

/// BPC configuration.
#[derive(Debug, Clone)]
pub struct BpcConfig {
    /// This cache's NoC identity (its tile).
    pub identity: Gid,
    /// Geometry (Table 2 default: 8 KB, 4 ways).
    pub geometry: Geometry,
    /// Maximum outstanding line misses.
    pub mshrs: usize,
    /// Hit latency in cycles.
    pub hit_latency: Cycle,
    /// The system homing function.
    pub homing: Homing,
}

impl BpcConfig {
    /// Table 2 defaults: 8 KB 4-way, 4 MSHRs, 2-cycle hits.
    pub fn new(identity: Gid, homing: Homing) -> Self {
        Self { identity, geometry: Geometry::new(8 * 1024, 4), mshrs: 4, hit_latency: 2, homing }
    }
}

/// The BYOC Private Cache.
///
/// Sits between a core (via [`CoreReq`]/[`CoreResp`]) and the NoC (via
/// [`Packet`]s). Implements MESI with write-back, write-allocate policy,
/// MSHRs with request merging, silent E→M upgrade, and the recall/nack
/// dance that keeps eviction races sound (see crate docs).
#[derive(Debug)]
pub struct Bpc {
    cfg: BpcConfig,
    sets: Vec<Vec<Way>>,
    mshrs: BTreeMap<Addr, Mshr>,
    /// Outstanding non-cacheable / atomic operations, matched by address.
    nc_pending: Port<(Addr, u64)>,
    noc_in: Port<Packet>,
    noc_out: Port<Packet>,
    resp_delay: DelayPort<CoreResp>,
    resp_ready: Port<CoreResp>,
    lru_clock: u64,
    meters: Meters,
    slots: BpcMeters,
    trace: TraceBuf,
}

impl Bpc {
    /// Creates a BPC.
    pub fn new(cfg: BpcConfig) -> Self {
        let sets = (0..cfg.geometry.sets()).map(|_| Vec::new()).collect();
        let hit_latency = cfg.hit_latency;
        let mut meters = MetersBuilder::new();
        Self {
            cfg,
            sets,
            mshrs: BTreeMap::new(),
            nc_pending: Port::elastic_with(meters.port("nc_pending"), 8),
            noc_in: Port::elastic_with(meters.port("noc_in"), 16),
            noc_out: Port::bounded(meters.port("noc_out"), 64),
            resp_delay: DelayPort::new(meters.port("resp_delay"), hit_latency),
            resp_ready: Port::elastic_with(meters.port("resp_ready"), 8),
            lru_clock: 0,
            slots: BpcMeters::register(&mut meters),
            meters: meters.build(),
            trace: TraceBuf::new(2048),
        }
    }

    /// The cache's trace lane (MESI transitions, miss completions).
    pub fn trace_mut(&mut self) -> &mut TraceBuf {
        &mut self.trace
    }

    /// The MESI state this cache holds `line` in: `'S'`, `'E'`, `'M'`, or
    /// [`None`] for Invalid (absent). A litmus-suite probe — never used
    /// by the protocol itself.
    pub fn line_state(&self, line: Addr) -> Option<char> {
        let set = self.cfg.geometry.set_of(line);
        self.sets[set].iter().find(|w| w.line == line).map(|w| match w.state {
            LineState::Shared => 'S',
            LineState::Exclusive => 'E',
            LineState::Modified => 'M',
        })
    }

    fn tile(&self) -> u16 {
        self.cfg.identity.tile_id().unwrap_or(0)
    }

    fn state_byte(s: LineState) -> u8 {
        match s {
            LineState::Shared => b'S',
            LineState::Exclusive => b'E',
            LineState::Modified => b'M',
        }
    }

    /// This cache's NoC identity.
    pub fn identity(&self) -> Gid {
        self.cfg.identity
    }

    /// Counters (`bpc.hit`, `bpc.miss`, `bpc.wb`, `bpc.upgrade`, ...),
    /// rendered.
    pub fn stats(&self) -> Stats {
        self.meters.stats()
    }

    /// The cache's meters: `bpc.*` counters, the `bpc.miss_latency`
    /// histogram and every port's meter.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// True when ticking this cache cannot do anything: no queued protocol
    /// input and no responses maturing or waiting. Weaker than
    /// [`Bpc::is_idle`] — outstanding MSHRs and NC operations are allowed,
    /// because their completions arrive via [`Bpc::noc_push`], which is
    /// exactly the event that wakes a sleeping tile.
    pub fn is_quiet(&self) -> bool {
        self.noc_in.is_empty()
            && self.noc_out.is_empty()
            && self.resp_delay.is_empty()
            && self.resp_ready.is_empty()
    }

    /// True when nothing is in flight (no MSHRs, queues empty).
    pub fn is_idle(&self) -> bool {
        self.mshrs.is_empty()
            && self.nc_pending.is_empty()
            && self.noc_in.is_empty()
            && self.noc_out.is_empty()
            && self.resp_delay.is_empty()
            && self.resp_ready.is_empty()
    }

    /// Submits a core request. Returns it back when the cache cannot accept
    /// it this cycle (MSHRs full, output back-pressure); the core retries.
    pub fn request(&mut self, now: Cycle, req: CoreReq) -> Result<(), CoreReq> {
        // Always keep headroom in the out queue for protocol responses
        // (invalidation acks, recall data) triggered from noc_in.
        if self.noc_out.free_slots() < 4 {
            return Err(req);
        }
        match req.op {
            MemOp::Load { addr, size } => self.cacheable(now, req.token, addr, size, None),
            MemOp::Store { addr, size, data } => {
                self.cacheable(now, req.token, addr, size, Some(data))
            }
            MemOp::Amo { addr, size, op, val, expected } => {
                self.amo(now, req.token, addr, size, op, val, expected)
            }
            MemOp::NcLoad { addr, size, dst } => {
                self.nc_pending.push((addr, req.token), &mut self.meters);
                self.send(dst, Msg::NcLoad { addr, size });
                self.meters.incr(self.slots.nc);
                Ok(())
            }
            MemOp::NcStore { addr, size, data, dst } => {
                self.nc_pending.push((addr, req.token), &mut self.meters);
                self.send(dst, Msg::NcStore { addr, size, data });
                self.meters.incr(self.slots.nc);
                Ok(())
            }
        }
    }

    fn cacheable(
        &mut self,
        now: Cycle,
        token: u64,
        addr: Addr,
        size: u8,
        store: Option<u64>,
    ) -> Result<(), CoreReq> {
        let line = line_of(addr);
        let rebuild = move |store: Option<u64>| CoreReq {
            token,
            op: match store {
                None => MemOp::Load { addr, size },
                Some(data) => MemOp::Store { addr, size, data },
            },
        };

        // Merge into an existing MSHR for this line.
        if let Some(m) = self.mshrs.get_mut(&line) {
            if m.pending.len() >= 16 {
                return Err(rebuild(store));
            }
            m.pending.push_back(rebuild(store));
            self.meters.incr(self.slots.mshr_merge);
            return Ok(());
        }

        let set = self.cfg.geometry.set_of(line);
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.line == line) {
            // Hit paths.
            self.lru_clock += 1;
            w.lru = self.lru_clock;
            match (store, w.state) {
                (None, _) => {
                    let data = w.data.read(line_offset(addr), size as usize);
                    self.resp_delay.push(now, CoreResp { token, data }, &mut self.meters);
                    self.meters.incr(self.slots.hit);
                    return Ok(());
                }
                (Some(data), LineState::Modified | LineState::Exclusive) => {
                    w.data.write(line_offset(addr), size as usize, data);
                    w.state = LineState::Modified;
                    self.resp_delay.push(now, CoreResp { token, data: 0 }, &mut self.meters);
                    self.meters.incr(self.slots.hit);
                    return Ok(());
                }
                (Some(data), LineState::Shared) => {
                    // Upgrade: lock the line and request M.
                    if self.mshrs.len() >= self.cfg.mshrs {
                        return Err(rebuild(Some(data)));
                    }
                    w.locked = true;
                    let mut pending = Ring::new();
                    pending.push_back(rebuild(Some(data)));
                    self.mshrs.insert(line, Mshr { pending, since: now });
                    let home = self.cfg.homing.home(line, self.cfg.identity.node);
                    self.send(home, Msg::ReqM { line });
                    self.meters.incr(self.slots.upgrade);
                    return Ok(());
                }
            }
        }

        // Miss.
        if self.mshrs.len() >= self.cfg.mshrs {
            return Err(rebuild(store));
        }
        let mut pending = Ring::new();
        pending.push_back(rebuild(store));
        self.mshrs.insert(line, Mshr { pending, since: now });
        let home = self.cfg.homing.home(line, self.cfg.identity.node);
        let msg = if store.is_some() { Msg::ReqM { line } } else { Msg::ReqS { line } };
        self.send(home, msg);
        self.meters.incr(self.slots.miss);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn amo(
        &mut self,
        _now: Cycle,
        token: u64,
        addr: Addr,
        size: u8,
        op: AmoOp,
        val: u64,
        expected: u64,
    ) -> Result<(), CoreReq> {
        let line = line_of(addr);
        // An AMO must not race a miss/upgrade we have in flight on the line.
        if self.mshrs.contains_key(&line) {
            return Err(CoreReq { token, op: MemOp::Amo { addr, size, op, val, expected } });
        }
        // Flush our own copy first; the home slice revokes everyone else's.
        let set = self.cfg.geometry.set_of(line);
        if let Some(pos) = self.sets[set].iter().position(|w| w.line == line) {
            let w = self.sets[set].remove(pos);
            let home = self.cfg.homing.home(line, self.cfg.identity.node);
            let msg = if w.state == LineState::Modified {
                Msg::WbData { line, data: w.data }
            } else {
                Msg::WbClean { line }
            };
            self.send(home, msg);
            self.meters.incr(self.slots.wb);
        }
        let home = self.cfg.homing.home(line, self.cfg.identity.node);
        self.nc_pending.push((addr, token), &mut self.meters);
        self.send(home, Msg::Amo { addr, size, op, val, expected });
        self.meters.incr(self.slots.amo);
        Ok(())
    }

    fn send(&mut self, dst: Gid, msg: Msg) {
        let pkt = Packet::on_canonical_vn(dst, self.cfg.identity, msg);
        // `Port::push` panics on a full bounded port; every send site is
        // guarded by the protocol-headroom checks in `request` and `tick`.
        self.noc_out.push(pkt, &mut self.meters);
    }

    /// Delivers a NoC packet addressed to this cache.
    pub fn noc_push(&mut self, pkt: Packet) {
        self.noc_in.push(pkt, &mut self.meters);
    }

    /// Collects the next outgoing NoC packet.
    pub fn noc_pop(&mut self) -> Option<Packet> {
        self.noc_out.pop()
    }

    /// Collects the next completed core response.
    pub fn pop_resp(&mut self) -> Option<CoreResp> {
        self.resp_ready.pop()
    }

    /// Advances one cycle: handles incoming protocol traffic and matures
    /// hit responses.
    pub fn tick(&mut self, now: Cycle) {
        while let Some(r) = self.resp_delay.pop_ready(now) {
            self.resp_ready.push(r, &mut self.meters);
        }
        // Process incoming packets; a fill that cannot allocate (every way
        // in its set locked by upgrades) is deferred, so scan for the first
        // processable packet instead of blocking on the head.
        let mut budget = 2;
        let mut i = 0;
        while budget > 0 && i < self.noc_in.len() {
            if self.noc_out.free_slots() < 2 {
                break;
            }
            if self.try_handle(now, i) {
                budget -= 1;
            } else {
                i += 1;
            }
        }
    }

    /// Attempts to handle `noc_in[idx]`; returns true when consumed.
    fn try_handle(&mut self, now: Cycle, idx: usize) -> bool {
        let pkt = self.noc_in.get(idx).expect("index in range");
        if let Msg::Data { line, .. } = &pkt.msg {
            // Need an allocatable way.
            let line = *line;
            let set = self.cfg.geometry.set_of(line);
            let full = self.sets[set].len() >= self.cfg.geometry.ways;
            let has_victim = !full || self.sets[set].iter().any(|w| !w.locked);
            if !has_victim {
                return false;
            }
        }
        let pkt = self.noc_in.remove(idx).expect("index in range");
        match pkt.msg {
            Msg::Data { line, data, excl } => self.fill(now, line, data, excl),
            Msg::UpgradeAck { line } => self.upgrade_ack(now, line),
            Msg::Inv { line } => {
                let set = self.cfg.geometry.set_of(line);
                if let Some(pos) = self.sets[set].iter().position(|w| w.line == line) {
                    // Directory never invalidates an exclusive owner (it
                    // recalls instead), so the copy here is clean.
                    let w = self.sets[set].remove(pos);
                    let (tile, from) = (self.tile(), Self::state_byte(w.state));
                    self.trace.record(now, || TraceEventKind::BpcState {
                        tile,
                        line,
                        from,
                        to: b'I',
                    });
                }
                // A locked (upgrading) line loses its data but keeps its
                // MSHR; the grant will arrive as full Data later.
                let home = self.cfg.homing.home(line, self.cfg.identity.node);
                self.send(home, Msg::InvAck { line });
                self.meters.incr(self.slots.invalidated);
            }
            Msg::Recall { line } => {
                let set = self.cfg.geometry.set_of(line);
                let home = self.cfg.homing.home(line, self.cfg.identity.node);
                if let Some(pos) = self.sets[set].iter().position(|w| w.line == line) {
                    let w = self.sets[set].remove(pos);
                    let dirty = w.state == LineState::Modified;
                    let (tile, from) = (self.tile(), Self::state_byte(w.state));
                    self.trace.record(now, || TraceEventKind::BpcState {
                        tile,
                        line,
                        from,
                        to: b'I',
                    });
                    self.send(home, Msg::RecallData { line, data: w.data, dirty });
                    self.meters.incr(self.slots.recalled);
                } else {
                    // Our writeback is already in flight ahead of this nack.
                    self.send(home, Msg::RecallNack { line });
                    self.meters.incr(self.slots.recall_nack);
                }
            }
            Msg::Downgrade { line } => {
                let set = self.cfg.geometry.set_of(line);
                let home = self.cfg.homing.home(line, self.cfg.identity.node);
                if let Some(w) = self.sets[set].iter_mut().find(|w| w.line == line) {
                    let dirty = w.state == LineState::Modified;
                    let from = Self::state_byte(w.state);
                    w.state = LineState::Shared;
                    let data = w.data;
                    let tile = self.tile();
                    self.trace.record(now, || TraceEventKind::BpcState {
                        tile,
                        line,
                        from,
                        to: b'S',
                    });
                    self.send(home, Msg::RecallData { line, data, dirty });
                    self.meters.incr(self.slots.downgraded);
                } else {
                    self.send(home, Msg::RecallNack { line });
                    self.meters.incr(self.slots.recall_nack);
                }
            }
            Msg::AmoResp { addr, old } => self.nc_complete(now, addr, old),
            Msg::NcData { addr, data } => self.nc_complete(now, addr, data),
            Msg::NcAck { addr } => self.nc_complete(now, addr, 0),
            other => panic!("BPC received unexpected message {other:?}"),
        }
        true
    }

    fn nc_complete(&mut self, now: Cycle, addr: Addr, data: u64) {
        let pos = self
            .nc_pending
            .iter()
            .position(|(a, _)| *a == addr)
            .unwrap_or_else(|| panic!("unmatched NC/AMO response for {addr:#x}"));
        let (_, token) = self.nc_pending.remove(pos).expect("position valid");
        self.resp_delay.push(now, CoreResp { token, data }, &mut self.meters);
    }

    /// Installs a line and drains its MSHR in order; stops at the first
    /// store if the grant was only Shared, re-requesting M for the rest.
    fn fill(&mut self, now: Cycle, line: Addr, data: LineData, excl: bool) {
        let set = self.cfg.geometry.set_of(line);
        // An upgrade may be granted as full Data (e.g. the directory dropped
        // us from the sharer list first); refresh the existing way in place.
        if let Some(pos) = self.sets[set].iter().position(|w| w.line == line) {
            let w = &mut self.sets[set][pos];
            w.data = data;
            let from = Self::state_byte(w.state);
            w.state = if excl { LineState::Exclusive } else { LineState::Shared };
            w.locked = false;
            let (tile, to) = (self.tile(), if excl { b'E' } else { b'S' });
            self.trace.record(now, || TraceEventKind::BpcState { tile, line, from, to });
            self.drain_mshr(now, line, set);
            return;
        }
        // Make room: evict an unlocked LRU victim.
        if self.sets[set].len() >= self.cfg.geometry.ways {
            let victim = self.sets[set]
                .iter()
                .enumerate()
                .filter(|(_, w)| !w.locked)
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("try_handle checked an unlocked way exists");
            let w = self.sets[set].remove(victim);
            let home = self.cfg.homing.home(w.line, self.cfg.identity.node);
            let msg = if w.state == LineState::Modified {
                Msg::WbData { line: w.line, data: w.data }
            } else {
                Msg::WbClean { line: w.line }
            };
            self.send(home, msg);
            self.meters.incr(self.slots.wb);
        }
        self.lru_clock += 1;
        let state = if excl { LineState::Exclusive } else { LineState::Shared };
        self.sets[set].push(Way { line, state, data, lru: self.lru_clock, locked: false });
        let (tile, to) = (self.tile(), Self::state_byte(state));
        self.trace.record(now, || TraceEventKind::BpcState { tile, line, from: b'I', to });
        self.drain_mshr(now, line, set);
    }

    fn upgrade_ack(&mut self, now: Cycle, line: Addr) {
        let set = self.cfg.geometry.set_of(line);
        let w = self.sets[set]
            .iter_mut()
            .find(|w| w.line == line)
            .expect("upgrade ack for a line we no longer hold");
        let from = Self::state_byte(w.state);
        w.state = LineState::Modified;
        w.locked = false;
        let tile = self.tile();
        self.trace.record(now, || TraceEventKind::BpcState { tile, line, from, to: b'M' });
        self.drain_mshr(now, line, set);
    }

    /// Completes this line's queued core requests in order; a store that
    /// finds only S re-arms the MSHR with an upgrade request.
    fn drain_mshr(&mut self, now: Cycle, line: Addr, set: usize) {
        let Some(mut mshr) = self.mshrs.remove(&line) else {
            panic!("grant for {line:#x} without an MSHR");
        };
        while let Some(req) = mshr.pending.pop_front() {
            let w = self.sets[set].iter_mut().find(|w| w.line == line).expect("line present");
            match req.op {
                MemOp::Load { addr, size } => {
                    let data = w.data.read(line_offset(addr), size as usize);
                    let resp = CoreResp { token: req.token, data };
                    self.resp_delay.push(now, resp, &mut self.meters);
                }
                MemOp::Store { addr, size, data } => {
                    if matches!(w.state, LineState::Exclusive | LineState::Modified) {
                        w.data.write(line_offset(addr), size as usize, data);
                        w.state = LineState::Modified;
                        let resp = CoreResp { token: req.token, data: 0 };
                        self.resp_delay.push(now, resp, &mut self.meters);
                    } else {
                        // Got S but a store waits: upgrade with the rest.
                        w.locked = true;
                        mshr.pending.push_front(req);
                        let home = self.cfg.homing.home(line, self.cfg.identity.node);
                        self.send(home, Msg::ReqM { line });
                        self.meters.incr(self.slots.upgrade);
                        self.mshrs.insert(line, mshr);
                        return;
                    }
                }
                other => panic!("non-cacheable op {other:?} in a line MSHR"),
            }
        }
        // Fully retired (the re-arm path above returns early and keeps the
        // original `since`, so a store that found S counts once, with the
        // complete issue-to-M latency).
        let lat = now.saturating_sub(mshr.since);
        self.meters.record(self.slots.miss_latency, lat);
        let tile = self.tile();
        self.trace.record(now, || TraceEventKind::BpcMiss { tile, line, lat });
    }
}

// Snapshot tags for enums are part of the format: append-only, never
// renumbered.

impl Pack for MemOp {
    fn pack(&self, w: &mut SnapWriter) {
        match self {
            MemOp::Load { addr, size } => {
                w.u8(0);
                w.u64(*addr);
                w.u8(*size);
            }
            MemOp::Store { addr, size, data } => {
                w.u8(1);
                w.u64(*addr);
                w.u8(*size);
                w.u64(*data);
            }
            MemOp::Amo { addr, size, op, val, expected } => {
                w.u8(2);
                w.u64(*addr);
                w.u8(*size);
                op.pack(w);
                w.u64(*val);
                w.u64(*expected);
            }
            MemOp::NcLoad { addr, size, dst } => {
                w.u8(3);
                w.u64(*addr);
                w.u8(*size);
                dst.pack(w);
            }
            MemOp::NcStore { addr, size, data, dst } => {
                w.u8(4);
                w.u64(*addr);
                w.u8(*size);
                w.u64(*data);
                dst.pack(w);
            }
        }
    }
    fn unpack(r: &mut SnapReader) -> Self {
        match r.u8() {
            0 => MemOp::Load { addr: r.u64(), size: r.u8() },
            1 => MemOp::Store { addr: r.u64(), size: r.u8(), data: r.u64() },
            2 => MemOp::Amo {
                addr: r.u64(),
                size: r.u8(),
                op: AmoOp::unpack(r),
                val: r.u64(),
                expected: r.u64(),
            },
            3 => MemOp::NcLoad { addr: r.u64(), size: r.u8(), dst: Gid::unpack(r) },
            4 => MemOp::NcStore { addr: r.u64(), size: r.u8(), data: r.u64(), dst: Gid::unpack(r) },
            t => {
                r.corrupt(&format!("unknown MemOp tag {t}"));
                MemOp::Load { addr: 0, size: 8 }
            }
        }
    }
}

impl Pack for CoreReq {
    fn pack(&self, w: &mut SnapWriter) {
        w.u64(self.token);
        self.op.pack(w);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        CoreReq { token: r.u64(), op: MemOp::unpack(r) }
    }
}

impl Pack for CoreResp {
    fn pack(&self, w: &mut SnapWriter) {
        w.u64(self.token);
        w.u64(self.data);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        CoreResp { token: r.u64(), data: r.u64() }
    }
}

impl Pack for Way {
    fn pack(&self, w: &mut SnapWriter) {
        w.u64(self.line);
        w.u8(Bpc::state_byte(self.state));
        self.data.pack(w);
        w.u64(self.lru);
        w.bool(self.locked);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        let line = r.u64();
        let state = match r.u8() {
            b'S' => LineState::Shared,
            b'E' => LineState::Exclusive,
            b'M' => LineState::Modified,
            t => {
                r.corrupt(&format!("unknown BPC line state {t}"));
                LineState::Shared
            }
        };
        Way { line, state, data: LineData::unpack(r), lru: r.u64(), locked: r.bool() }
    }
}

impl Pack for Mshr {
    fn pack(&self, w: &mut SnapWriter) {
        self.pending.pack(w);
        w.u64(self.since);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        Mshr { pending: Ring::unpack(r), since: r.u64() }
    }
}

impl SaveState for Bpc {
    fn save(&self, w: &mut SnapWriter) {
        // Set count, geometry and meter slots are config; each set's
        // occupancy is state. The trace lane is host-side observability.
        let Self {
            cfg: _,
            sets,
            mshrs,
            nc_pending,
            noc_in,
            noc_out,
            resp_delay,
            resp_ready,
            lru_clock,
            meters,
            slots: _,
            trace: _,
        } = self;
        for set in sets {
            set.pack(w);
        }
        mshrs.pack(w);
        nc_pending.save(w);
        noc_in.save(w);
        noc_out.save(w);
        resp_delay.save(w);
        resp_ready.save(w);
        w.u64(*lru_clock);
        meters.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        for set in &mut self.sets {
            *set = Vec::<Way>::unpack(r);
            if set.len() > self.cfg.geometry.ways {
                r.corrupt("restored BPC set exceeds its configured associativity");
            }
        }
        self.mshrs = BTreeMap::unpack(r);
        self.nc_pending.restore(r);
        self.noc_in.restore(r);
        self.noc_out.restore(r);
        self.resp_delay.restore(r);
        self.resp_ready.restore(r);
        self.lru_clock = r.u64();
        self.meters.restore(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homing::HomingMode;
    use smappic_noc::NodeId;
    use std::collections::HashMap;

    fn bpc() -> Bpc {
        let homing = Homing::new(HomingMode::StripeAllNodes, 1, 4);
        Bpc::new(BpcConfig::new(Gid::tile(NodeId(0), 0), homing))
    }

    /// Pumps the BPC's outgoing request and answers it like a trivial LLC
    /// that always grants from `backing`.
    fn pump(b: &mut Bpc, now: &mut Cycle, backing: &mut HashMap<Addr, LineData>) {
        b.tick(*now);
        while let Some(pkt) = b.noc_pop() {
            let reply = match pkt.msg {
                Msg::ReqS { line } => {
                    Some(Msg::Data { line, data: *backing.entry(line).or_default(), excl: false })
                }
                Msg::ReqM { line } => {
                    Some(Msg::Data { line, data: *backing.entry(line).or_default(), excl: true })
                }
                Msg::WbData { line, data } => {
                    backing.insert(line, data);
                    None
                }
                Msg::WbClean { .. } | Msg::InvAck { .. } => None,
                other => panic!("unexpected {other:?}"),
            };
            if let Some(msg) = reply {
                b.noc_push(Packet::on_canonical_vn(pkt.src, pkt.dst, msg));
            }
        }
        *now += 1;
    }

    fn run_op(
        b: &mut Bpc,
        now: &mut Cycle,
        backing: &mut HashMap<Addr, LineData>,
        req: CoreReq,
    ) -> CoreResp {
        while b.request(*now, req.clone()).is_err() {
            pump(b, now, backing);
        }
        for _ in 0..1_000 {
            pump(b, now, backing);
            if let Some(resp) = b.pop_resp() {
                return resp;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn miss_then_hit_load() {
        let mut b = bpc();
        let mut backing = HashMap::new();
        let mut line = LineData::zeroed();
        line.write(8, 8, 0xCAFE);
        backing.insert(0x1000, line);
        let mut now = 0;
        let r = run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 1, op: MemOp::Load { addr: 0x1008, size: 8 } },
        );
        assert_eq!(r.data, 0xCAFE);
        assert_eq!(b.stats().get("bpc.miss"), 1);
        // Second access hits.
        let r2 = run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 2, op: MemOp::Load { addr: 0x1008, size: 4 } },
        );
        assert_eq!(r2.data, 0xCAFE);
        assert_eq!(b.stats().get("bpc.hit"), 1);
    }

    #[test]
    fn store_then_load_returns_stored_value() {
        let mut b = bpc();
        let mut backing = HashMap::new();
        let mut now = 0;
        run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 1, op: MemOp::Store { addr: 0x2000, size: 8, data: 0x1234_5678 } },
        );
        let r = run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 2, op: MemOp::Load { addr: 0x2000, size: 8 } },
        );
        assert_eq!(r.data, 0x1234_5678);
    }

    #[test]
    fn shared_store_triggers_upgrade() {
        let mut b = bpc();
        let mut backing = HashMap::new();
        let mut now = 0;
        // Load first: line arrives Shared (our pump grants S for ReqS).
        run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 1, op: MemOp::Load { addr: 0x3000, size: 8 } },
        );
        run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 2, op: MemOp::Store { addr: 0x3000, size: 8, data: 5 } },
        );
        assert_eq!(b.stats().get("bpc.upgrade"), 1);
    }

    #[test]
    fn eviction_writes_back_dirty_lines() {
        let mut b = bpc();
        let mut backing = HashMap::new();
        let mut now = 0;
        // 8 KB 4-way, 32 sets: lines 64*32 apart collide in set 0.
        let stride = 64 * 32;
        for i in 0..5u64 {
            run_op(
                &mut b,
                &mut now,
                &mut backing,
                CoreReq { token: i, op: MemOp::Store { addr: i * stride, size: 8, data: i + 100 } },
            );
        }
        assert!(b.stats().get("bpc.wb") >= 1, "a dirty line must have been written back");
        // The evicted line's data survived in backing store.
        let r = run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 99, op: MemOp::Load { addr: 0, size: 8 } },
        );
        assert_eq!(r.data, 100);
    }

    #[test]
    fn recall_returns_dirty_data_and_invalidates() {
        let mut b = bpc();
        let mut backing = HashMap::new();
        let mut now = 0;
        run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 1, op: MemOp::Store { addr: 0x4000, size: 8, data: 77 } },
        );
        // Home recalls the line.
        let home = Gid::tile(NodeId(0), 0);
        b.noc_push(Packet::on_canonical_vn(
            Gid::tile(NodeId(0), 0),
            home,
            Msg::Recall { line: 0x4000 },
        ));
        b.tick(now);
        let out = b.noc_pop().expect("recall response");
        match out.msg {
            Msg::RecallData { line, data, dirty } => {
                assert_eq!(line, 0x4000);
                assert!(dirty);
                assert_eq!(data.read(0, 8), 77);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Line is gone: next access misses.
        let before = b.stats().get("bpc.miss");
        run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 2, op: MemOp::Load { addr: 0x4000, size: 8 } },
        );
        assert_eq!(b.stats().get("bpc.miss"), before + 1);
    }

    #[test]
    fn recall_for_absent_line_nacks() {
        let mut b = bpc();
        let home = Gid::tile(NodeId(0), 0);
        b.noc_push(Packet::on_canonical_vn(
            Gid::tile(NodeId(0), 0),
            home,
            Msg::Recall { line: 0x9000 },
        ));
        b.tick(0);
        assert!(matches!(b.noc_pop().map(|p| p.msg), Some(Msg::RecallNack { line: 0x9000 })));
    }

    #[test]
    fn inv_removes_line_and_acks() {
        let mut b = bpc();
        let mut backing = HashMap::new();
        let mut now = 0;
        run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 1, op: MemOp::Load { addr: 0x5000, size: 8 } },
        );
        let home = Gid::tile(NodeId(0), 0);
        b.noc_push(Packet::on_canonical_vn(
            Gid::tile(NodeId(0), 0),
            home,
            Msg::Inv { line: 0x5000 },
        ));
        b.tick(now);
        assert!(matches!(b.noc_pop().map(|p| p.msg), Some(Msg::InvAck { line: 0x5000 })));
        let before = b.stats().get("bpc.miss");
        run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 2, op: MemOp::Load { addr: 0x5000, size: 8 } },
        );
        assert_eq!(b.stats().get("bpc.miss"), before + 1);
    }

    #[test]
    fn mshr_merges_requests_to_same_line() {
        let mut b = bpc();
        b.request(0, CoreReq { token: 1, op: MemOp::Load { addr: 0x6000, size: 8 } }).unwrap();
        b.request(0, CoreReq { token: 2, op: MemOp::Load { addr: 0x6008, size: 8 } }).unwrap();
        assert_eq!(b.stats().get("bpc.miss"), 1);
        assert_eq!(b.stats().get("bpc.mshr_merge"), 1);
        // Only one ReqS went out.
        let mut reqs = 0;
        while let Some(p) = b.noc_pop() {
            assert!(matches!(p.msg, Msg::ReqS { line: 0x6000 }));
            reqs += 1;
        }
        assert_eq!(reqs, 1);
        // Fill completes both.
        b.noc_push(Packet::on_canonical_vn(
            Gid::tile(NodeId(0), 0),
            Gid::tile(NodeId(0), 1),
            Msg::Data { line: 0x6000, data: LineData::zeroed(), excl: false },
        ));
        b.tick(1);
        let mut done = Vec::new();
        for now in 2..20 {
            b.tick(now);
            while let Some(r) = b.pop_resp() {
                done.push(r.token);
            }
        }
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn mshr_limit_back_pressures() {
        let mut b = bpc();
        for i in 0..4u64 {
            b.request(0, CoreReq { token: i, op: MemOp::Load { addr: i * 0x1000, size: 8 } })
                .unwrap();
        }
        let r = b.request(0, CoreReq { token: 9, op: MemOp::Load { addr: 0x9000, size: 8 } });
        assert!(r.is_err(), "5th outstanding miss must be rejected");
    }

    #[test]
    fn nc_load_routes_to_device_and_completes() {
        let mut b = bpc();
        let dev = Gid::tile(NodeId(0), 1);
        b.request(
            0,
            CoreReq { token: 5, op: MemOp::NcLoad { addr: 0xF000_0000, size: 4, dst: dev } },
        )
        .unwrap();
        let out = b.noc_pop().expect("NC load sent");
        assert_eq!(out.dst, dev);
        b.noc_push(Packet::on_canonical_vn(
            Gid::tile(NodeId(0), 0),
            dev,
            Msg::NcData { addr: 0xF000_0000, data: 42 },
        ));
        let mut resp = None;
        for now in 1..20 {
            b.tick(now);
            if let Some(r) = b.pop_resp() {
                resp = Some(r);
                break;
            }
        }
        let resp = resp.expect("NC response");
        assert_eq!(resp.token, 5);
        assert_eq!(resp.data, 42);
        assert!(b.is_idle());
    }

    #[test]
    fn amo_flushes_local_copy_first() {
        let mut b = bpc();
        let mut backing = HashMap::new();
        let mut now = 0;
        run_op(
            &mut b,
            &mut now,
            &mut backing,
            CoreReq { token: 1, op: MemOp::Store { addr: 0x7000, size: 8, data: 10 } },
        );
        b.request(
            now,
            CoreReq {
                token: 2,
                op: MemOp::Amo { addr: 0x7000, size: 8, op: AmoOp::Add, val: 5, expected: 0 },
            },
        )
        .unwrap();
        // First a writeback, then the AMO.
        let first = b.noc_pop().expect("wb first");
        assert!(matches!(first.msg, Msg::WbData { line: 0x7000, .. }));
        let second = b.noc_pop().expect("amo second");
        assert!(matches!(second.msg, Msg::Amo { addr: 0x7000, .. }));
    }
}

//! A distributed last-level cache slice with the coherence directory.

use smappic_noc::{line_of, line_offset, Addr, Gid, LineData, Msg, Packet};
use smappic_sim::{
    meter_slots, Cycle, DelayPort, Meters, MetersBuilder, Pack, Port, Ring, SaveState, SnapReader,
    SnapWriter, Stats, TraceBuf, TraceEventKind,
};

use crate::Geometry;

meter_slots! {
    /// The slice's counters, bumped on the per-access hot path, and its
    /// miss latency.
    struct LlcMeters {
        recall_nack: counter("llc.recall_nack"),
        miss: counter("llc.miss"),
        evict: counter("llc.evict"),
        evict_inv: counter("llc.evict_inv"),
        evict_recall: counter("llc.evict_recall"),
        hit: counter("llc.hit"),
        downgrade: counter("llc.downgrade"),
        recall: counter("llc.recall"),
        inv: counter("llc.inv"),
        amo: counter("llc.amo"),
        stale_wbclean: counter("llc.stale_wbclean"),
        wb: counter("llc.wb"),
        memdata: counter("llc.memdata"),
        /// Memory-fetch latency of LLC misses, issue to `MemData` arrival.
        miss_latency: histogram("llc.miss_latency"),
    }
}

/// Directory state of a line resident in this slice.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Dir {
    /// No private cache holds the line.
    Uncached,
    /// One or more caches hold the line in S.
    Shared(Vec<Gid>),
    /// One cache holds the line in E or M.
    Exclusive(Gid),
}

/// In-flight protocol action on a line.
#[derive(Debug, Clone, PartialEq)]
enum Transient {
    /// MemRd outstanding; waiters replay once data arrives.
    FetchMem,
    /// Recall sent to the exclusive owner to serve a waiter.
    Recall,
    /// Downgrade sent to the exclusive owner; it keeps an S copy.
    Downgrade,
    /// Invalidations outstanding; `pending` acks remain.
    Inv { pending: u32 },
    /// Evicting this line: invalidations/recall outstanding; when done the
    /// way is freed and waiters replay (they will re-miss and allocate).
    /// `via_recall` distinguishes a single-owner recall (a concurrent
    /// writeback doubles as its response) from sharer invalidations (each
    /// sharer still acks, even after its own clean eviction).
    Evict { pending: u32, via_recall: bool },
}

#[derive(Debug, Clone)]
struct Way {
    line: Addr,
    data: LineData,
    dirty: bool,
    dir: Dir,
    transient: Option<Transient>,
    /// Requests parked on an in-flight transient; an unmetered micro-list
    /// private to the way, not an architectural flow-control queue.
    waiters: Ring<(Gid, Msg)>,
    lru: u64,
    /// Cycle the memory fetch for this way was issued (miss latency base).
    fetch_at: Cycle,
}

/// LLC slice configuration.
#[derive(Debug, Clone)]
pub struct LlcConfig {
    /// The slice's NoC identity (its tile).
    pub identity: Gid,
    /// The node's memory controller identity (the chipset).
    pub memctl: Gid,
    /// Geometry (Table 2 default: 64 KB, 4 ways per slice).
    pub geometry: Geometry,
    /// Pipeline latency from packet arrival to processing, in cycles.
    pub latency: Cycle,
}

impl LlcConfig {
    /// Table 2 defaults (64 KB 4-way, 4-cycle pipeline).
    pub fn new(identity: Gid) -> Self {
        Self {
            identity,
            memctl: Gid::chipset(identity.node),
            geometry: Geometry::new(64 * 1024, 4),
            latency: 4,
        }
    }
}

/// One slice of the distributed, directory-based LLC.
///
/// The slice owns both the cached data and the directory for every line it
/// homes. Requests for lines held exclusively elsewhere are served by
/// *recalling* the line through the home (a 3-hop protocol); write requests
/// to shared lines invalidate all other sharers first. Atomics execute here,
/// after all cached copies are revoked, which makes them globally ordered —
/// the property the workload layer's barriers and locks rely on.
#[derive(Debug)]
pub struct LlcSlice {
    cfg: LlcConfig,
    sets: Vec<Vec<Way>>,
    in_delay: DelayPort<Packet>,
    /// Requests replayed after a transient resolves.
    replay: Port<(Gid, Msg)>,
    noc_out: Port<Packet>,
    lru_clock: u64,
    meters: Meters,
    slots: LlcMeters,
    trace: TraceBuf,
}

impl LlcSlice {
    /// Creates a slice.
    pub fn new(cfg: LlcConfig) -> Self {
        let sets = (0..cfg.geometry.sets()).map(|_| Vec::new()).collect();
        let latency = cfg.latency;
        let mut meters = MetersBuilder::new();
        Self {
            cfg,
            sets,
            in_delay: DelayPort::new(meters.port("in_delay"), latency),
            replay: Port::elastic_with(meters.port("replay"), 8),
            // Sized for worst-case waiter bursts: a resolve can serve every
            // core's parked request (plus invalidation fanout) in one tick.
            noc_out: Port::bounded(meters.port("noc_out"), 1024),
            lru_clock: 0,
            slots: LlcMeters::register(&mut meters),
            meters: meters.build(),
            trace: TraceBuf::new(2048),
        }
    }

    /// The slice's NoC identity.
    pub fn identity(&self) -> Gid {
        self.cfg.identity
    }

    /// Counters (`llc.hit`, `llc.miss`, `llc.recall`, `llc.inv`, `llc.amo`),
    /// rendered.
    pub fn stats(&self) -> Stats {
        self.meters.stats()
    }

    /// The slice's meters: `llc.*` counters, the `llc.miss_latency`
    /// histogram and every port's meter.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// Debug: lines currently in a transient state, with their waiter
    /// counts — `(line, transient-description, waiters)`.
    pub fn transient_lines(&self) -> Vec<(Addr, String, usize)> {
        let mut out = Vec::new();
        for set in &self.sets {
            for w in set {
                if let Some(t) = &w.transient {
                    out.push((w.line, format!("{t:?} dir={:?}", w.dir), w.waiters.len()));
                }
            }
        }
        out
    }

    /// The slice's trace buffer, for enabling tracing and draining events.
    pub fn trace_mut(&mut self) -> &mut TraceBuf {
        &mut self.trace
    }

    /// This slice's tile index, for trace-event labelling.
    fn tile(&self) -> u16 {
        self.cfg.identity.tile_id().unwrap_or(0)
    }

    /// Delivers a packet addressed to this slice.
    pub fn noc_push(&mut self, now: Cycle, pkt: Packet) {
        self.in_delay.push(now, pkt, &mut self.meters);
    }

    /// Collects the next outgoing packet.
    pub fn noc_pop(&mut self) -> Option<Packet> {
        self.noc_out.pop()
    }

    /// True when ticking this slice cannot do anything: no delayed input
    /// and no replays. Weaker than [`LlcSlice::is_idle`] — transient lines
    /// are allowed, because they only resolve when a packet arrives via
    /// [`LlcSlice::noc_push`], which wakes the sleeping tile.
    pub fn is_quiet(&self) -> bool {
        self.in_delay.is_empty() && self.replay.is_empty() && self.noc_out.is_empty()
    }

    /// True when no transaction is in flight in this slice.
    pub fn is_idle(&self) -> bool {
        self.in_delay.is_empty()
            && self.replay.is_empty()
            && self.noc_out.is_empty()
            && self.sets.iter().all(|s| s.iter().all(|w| w.transient.is_none()))
    }

    /// Advances one cycle. The protocol handlers run inside the tick, and
    /// `now` is the clock they stamp latency observations with.
    pub fn tick(&mut self, now: Cycle) {
        // Keep protocol headroom: each handled message can emit a few
        // packets, and a resolve burst can serve every waiter at once
        // (data + invalidation fanout, bounded by core count).
        if self.noc_out.free_slots() < 256 {
            return;
        }
        // Fresh input first: it carries the acks/data that resolve
        // transients. Replayed requests that keep re-stalling must never
        // starve it, or the slice deadlocks (a full set of in-flight ways
        // would wait forever for a MemData stuck in the input queue).
        let mut budget = 2;
        while budget > 0 {
            match self.in_delay.pop_ready(now) {
                Some(pkt) => {
                    self.handle(now, pkt.src, pkt.msg);
                    budget -= 1;
                }
                None => break,
            }
        }
        // Then one bounded pass over the replay queue; an item that
        // re-stalls (handle() pushes it back) is not retried this cycle.
        let mut rbudget = self.replay.len().min(2);
        while rbudget > 0 {
            let Some((src, msg)) = self.replay.pop() else { break };
            self.handle(now, src, msg);
            rbudget -= 1;
        }
    }

    fn send(&mut self, dst: Gid, msg: Msg) {
        let pkt = Packet::on_canonical_vn(dst, self.cfg.identity, msg);
        // `Port::push` panics on a full bounded port; `tick` guarantees the
        // 256-slot protocol headroom before any handler runs.
        self.noc_out.push(pkt, &mut self.meters);
    }

    fn find(&mut self, line: Addr) -> Option<(usize, usize)> {
        let set = self.cfg.geometry.set_of(line);
        self.sets[set].iter().position(|w| w.line == line).map(|i| (set, i))
    }

    fn handle(&mut self, now: Cycle, src: Gid, msg: Msg) {
        match msg {
            Msg::ReqS { .. } | Msg::ReqM { .. } | Msg::Amo { .. } => {
                let line = match &msg {
                    Msg::Amo { addr, .. } => line_of(*addr),
                    Msg::ReqS { line } | Msg::ReqM { line } => *line,
                    _ => unreachable!(),
                };
                self.request(now, src, line, msg);
            }
            Msg::WbData { line, data } => self.writeback(now, src, line, Some(data)),
            Msg::WbClean { line } => self.writeback(now, src, line, None),
            Msg::InvAck { line } => self.inv_ack(now, line),
            Msg::RecallData { line, data, dirty } => {
                self.recall_done(now, src, line, Some((data, dirty)))
            }
            Msg::RecallNack { line } => {
                // The owner's writeback travels the same VN and arrived
                // first, clearing the transient; nothing to do.
                let _ = line;
                self.meters.incr(self.slots.recall_nack);
            }
            Msg::MemData { line, data } => self.mem_data(now, line, data),
            other => panic!("LLC slice received unexpected message {other:?}"),
        }
    }

    /// Handles ReqS / ReqM / Amo.
    fn request(&mut self, now: Cycle, src: Gid, line: Addr, msg: Msg) {
        if let Some((set, i)) = self.find(line) {
            if self.sets[set][i].transient.is_some() {
                self.sets[set][i].waiters.push_back((src, msg));
                return;
            }
            self.lru_clock += 1;
            self.sets[set][i].lru = self.lru_clock;
            self.serve_resident(set, i, src, msg);
            return;
        }
        // Miss: allocate a way, possibly evicting.
        self.meters.incr(self.slots.miss);
        let set = self.cfg.geometry.set_of(line);
        if self.sets[set].len() >= self.cfg.geometry.ways {
            // Pick a non-transient LRU victim.
            let victim = self.sets[set]
                .iter()
                .enumerate()
                .filter(|(_, w)| w.transient.is_none())
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i);
            let Some(vi) = victim else {
                // Every way mid-transaction: retry when something resolves.
                self.replay.push((src, msg), &mut self.meters);
                return;
            };
            match self.evict(set, vi, (src, msg)) {
                Some(park) => {
                    // Way freed synchronously; continue allocating below.
                    return self.allocate(now, set, park.0, line, park.1);
                }
                None => return, // eviction in progress; request parked
            }
        }
        self.allocate(now, set, src, line, msg);
    }

    /// Allocates a fresh way for `line` and fetches it from memory.
    fn allocate(&mut self, now: Cycle, set: usize, src: Gid, line: Addr, msg: Msg) {
        self.lru_clock += 1;
        let mut waiters = Ring::with_prealloc(2);
        waiters.push_back((src, msg));
        self.sets[set].push(Way {
            line,
            data: LineData::zeroed(),
            dirty: false,
            dir: Dir::Uncached,
            transient: Some(Transient::FetchMem),
            waiters,
            lru: self.lru_clock,
            fetch_at: now,
        });
        self.send(self.cfg.memctl, Msg::MemRd { line });
    }

    /// Starts (or completes) eviction of `sets[set][vi]`. Returns `park`
    /// back if the way was freed synchronously; otherwise the request is
    /// parked on the evicting way and `None` is returned.
    fn evict(&mut self, set: usize, vi: usize, park: (Gid, Msg)) -> Option<(Gid, Msg)> {
        let dir = self.sets[set][vi].dir.clone();
        match dir {
            Dir::Uncached => {
                let w = self.sets[set].remove(vi);
                if w.dirty {
                    self.send(self.cfg.memctl, Msg::MemWr { line: w.line, data: w.data });
                }
                self.meters.incr(self.slots.evict);
                Some(park)
            }
            Dir::Shared(sharers) => {
                let n = sharers.len() as u32;
                let line = self.sets[set][vi].line;
                for s in sharers {
                    self.send(s, Msg::Inv { line });
                }
                let w = &mut self.sets[set][vi];
                w.transient = Some(Transient::Evict { pending: n, via_recall: false });
                w.waiters.push_back(park);
                self.meters.incr(self.slots.evict_inv);
                None
            }
            Dir::Exclusive(owner) => {
                let line = self.sets[set][vi].line;
                self.send(owner, Msg::Recall { line });
                let w = &mut self.sets[set][vi];
                w.transient = Some(Transient::Evict { pending: 1, via_recall: true });
                w.waiters.push_back(park);
                self.meters.incr(self.slots.evict_recall);
                None
            }
        }
    }

    /// Serves a request for a resident, non-transient line.
    fn serve_resident(&mut self, set: usize, i: usize, src: Gid, msg: Msg) {
        let line = self.sets[set][i].line;
        match (&msg, self.sets[set][i].dir.clone()) {
            // --- ReqS ---
            (Msg::ReqS { .. }, Dir::Uncached) => {
                let data = self.sets[set][i].data;
                self.sets[set][i].dir = Dir::Exclusive(src);
                self.send(src, Msg::Data { line, data, excl: true });
                self.meters.incr(self.slots.hit);
            }
            (Msg::ReqS { .. }, Dir::Shared(mut sharers)) => {
                let data = self.sets[set][i].data;
                if !sharers.contains(&src) {
                    sharers.push(src);
                }
                self.sets[set][i].dir = Dir::Shared(sharers);
                self.send(src, Msg::Data { line, data, excl: false });
                self.meters.incr(self.slots.hit);
            }
            (Msg::ReqS { .. }, Dir::Exclusive(owner)) => {
                // Downgrade the owner so it keeps a readable copy, pull any
                // dirty data through the home, then replay the read.
                self.send(owner, Msg::Downgrade { line });
                let w = &mut self.sets[set][i];
                w.transient = Some(Transient::Downgrade);
                w.waiters.push_front((src, msg));
                self.meters.incr(self.slots.downgrade);
            }
            (Msg::ReqM { .. }, Dir::Exclusive(owner)) => {
                // Recall the line through the home, then replay.
                self.send(owner, Msg::Recall { line });
                let w = &mut self.sets[set][i];
                w.transient = Some(Transient::Recall);
                w.waiters.push_front((src, msg));
                self.meters.incr(self.slots.recall);
            }
            // --- ReqM ---
            (Msg::ReqM { .. }, Dir::Uncached) => {
                let data = self.sets[set][i].data;
                self.sets[set][i].dir = Dir::Exclusive(src);
                self.send(src, Msg::Data { line, data, excl: true });
                self.meters.incr(self.slots.hit);
            }
            (Msg::ReqM { .. }, Dir::Shared(sharers)) => {
                let others: Vec<Gid> = sharers.iter().copied().filter(|s| *s != src).collect();
                let requester_was_sharer = sharers.contains(&src);
                if others.is_empty() {
                    // Requester is the only sharer: grant in place.
                    self.sets[set][i].dir = Dir::Exclusive(src);
                    if requester_was_sharer {
                        self.send(src, Msg::UpgradeAck { line });
                    } else {
                        let data = self.sets[set][i].data;
                        self.send(src, Msg::Data { line, data, excl: true });
                    }
                    self.meters.incr(self.slots.hit);
                } else {
                    for s in &others {
                        self.send(*s, Msg::Inv { line });
                    }
                    let w = &mut self.sets[set][i];
                    // Keep only the requester (if it was a sharer) so the
                    // replay resolves to the grant-in-place path above.
                    w.dir =
                        if requester_was_sharer { Dir::Shared(vec![src]) } else { Dir::Uncached };
                    w.transient = Some(Transient::Inv { pending: others.len() as u32 });
                    w.waiters.push_front((src, msg));
                    self.meters.incr(self.slots.inv);
                }
            }
            // --- Amo ---
            (Msg::Amo { .. }, Dir::Uncached) => {
                let Msg::Amo { addr, size, op, val, expected } = msg else { unreachable!() };
                let w = &mut self.sets[set][i];
                let off = line_offset(addr);
                let old = w.data.read(off, size as usize);
                let new = op.apply(old, val, expected, size as usize);
                w.data.write(off, size as usize, new);
                w.dirty = true;
                self.send(src, Msg::AmoResp { addr, old });
                self.meters.incr(self.slots.amo);
            }
            (Msg::Amo { .. }, Dir::Shared(sharers)) => {
                for s in &sharers {
                    self.send(*s, Msg::Inv { line });
                }
                let w = &mut self.sets[set][i];
                w.dir = Dir::Uncached;
                w.transient = Some(Transient::Inv { pending: sharers.len() as u32 });
                w.waiters.push_front((src, msg));
                self.meters.incr(self.slots.inv);
            }
            (Msg::Amo { .. }, Dir::Exclusive(owner)) => {
                self.send(owner, Msg::Recall { line });
                let w = &mut self.sets[set][i];
                w.transient = Some(Transient::Recall);
                w.waiters.push_front((src, msg));
                self.meters.incr(self.slots.recall);
            }
            (m, d) => panic!("unhandled resident request {m:?} with dir {d:?}"),
        }
    }

    fn writeback(&mut self, now: Cycle, src: Gid, line: Addr, data: Option<LineData>) {
        let Some((set, i)) = self.find(line) else {
            panic!("writeback for a line the home does not hold: {line:#x}");
        };
        let w = &mut self.sets[set][i];
        match &w.transient {
            Some(Transient::Recall)
            | Some(Transient::Downgrade)
            | Some(Transient::Evict { via_recall: true, .. }) => {
                // The writeback doubles as the recall response.
                if let Some(d) = data {
                    w.data = d;
                    w.dirty = true;
                }
                w.dir = Dir::Uncached;
                match w.transient.take() {
                    // A downgraded owner that raced an eviction holds no
                    // copy anymore, so the line ends Uncached either way.
                    Some(Transient::Recall) | Some(Transient::Downgrade) => {
                        self.resolve(now, set, i)
                    }
                    Some(Transient::Evict { .. }) => self.finish_evict(now, set, i),
                    _ => unreachable!(),
                }
            }
            Some(Transient::Evict { via_recall: false, .. }) => {
                // Invalidation-based eviction of a shared line: the evicting
                // sharer still answers our Inv with an InvAck, so only fold
                // its departure into the (already superseded) sharer list.
                debug_assert!(data.is_none(), "shared lines cannot be dirty");
                if let Dir::Shared(sharers) = &mut w.dir {
                    sharers.retain(|s| *s != src);
                }
            }
            Some(Transient::Inv { .. }) => {
                // A sharer evicted while we were invalidating; its InvAck
                // still arrives separately. Just fold the eviction in.
                if let Dir::Shared(sharers) = &mut w.dir {
                    sharers.retain(|s| *s != src);
                }
            }
            Some(Transient::FetchMem) | None => {
                match &mut w.dir {
                    Dir::Exclusive(owner) if *owner == src => {
                        if let Some(d) = data {
                            w.data = d;
                            w.dirty = true;
                        }
                        w.dir = Dir::Uncached;
                    }
                    Dir::Shared(sharers) if sharers.contains(&src) => {
                        debug_assert!(data.is_none(), "shared lines cannot be dirty");
                        sharers.retain(|s| *s != src);
                        if sharers.is_empty() {
                            w.dir = Dir::Uncached;
                        }
                    }
                    d => {
                        // A *clean* writeback from a source the directory no
                        // longer tracks is a legal cross-VN race: the BPC's
                        // AMO flush sends WbClean on VN3 and the Amo on VN1;
                        // when the Amo wins, its invalidation round removes
                        // the source before the WbClean lands. Dirty data
                        // from an untracked source can never happen, though.
                        if data.is_some() {
                            panic!("dirty writeback from {src} but directory is {d:?}");
                        }
                        self.meters.incr(self.slots.stale_wbclean);
                    }
                }
            }
        }
        self.meters.incr(self.slots.wb);
    }

    fn inv_ack(&mut self, now: Cycle, line: Addr) {
        let Some((set, i)) = self.find(line) else {
            panic!("InvAck for a line the home does not hold: {line:#x}");
        };
        let w = &mut self.sets[set][i];
        match &mut w.transient {
            Some(Transient::Inv { pending }) => {
                *pending -= 1;
                if *pending == 0 {
                    w.transient = None;
                    self.resolve(now, set, i);
                }
            }
            Some(Transient::Evict { pending, .. }) => {
                *pending -= 1;
                if *pending == 0 {
                    w.transient = None;
                    self.finish_evict(now, set, i);
                }
            }
            other => panic!("InvAck with transient {other:?}"),
        }
    }

    fn recall_done(&mut self, now: Cycle, src: Gid, line: Addr, payload: Option<(LineData, bool)>) {
        let Some((set, i)) = self.find(line) else {
            panic!("RecallData for a line the home does not hold: {line:#x}");
        };
        let w = &mut self.sets[set][i];
        if let Some((data, dirty)) = payload {
            if dirty {
                w.data = data;
                w.dirty = true;
            }
        }
        match w.transient.take() {
            Some(Transient::Recall) => {
                w.dir = Dir::Uncached;
                self.resolve(now, set, i);
            }
            Some(Transient::Downgrade) => {
                // The old owner keeps an S copy.
                w.dir = Dir::Shared(vec![src]);
                self.resolve(now, set, i);
            }
            Some(Transient::Evict { .. }) => {
                w.dir = Dir::Uncached;
                self.finish_evict(now, set, i);
            }
            other => panic!("RecallData with transient {other:?}"),
        }
    }

    fn mem_data(&mut self, now: Cycle, line: Addr, data: LineData) {
        let Some((set, i)) = self.find(line) else {
            panic!("MemData for a line the LLC did not request: {line:#x}");
        };
        self.meters.incr(self.slots.memdata);
        let w = &mut self.sets[set][i];
        assert_eq!(w.transient, Some(Transient::FetchMem), "MemData without FetchMem");
        w.data = data;
        w.dirty = false;
        w.transient = None;
        let lat = now.saturating_sub(w.fetch_at);
        self.meters.record(self.slots.miss_latency, lat);
        let slice = self.tile();
        self.trace.record(now, || TraceEventKind::LlcMiss { slice, line, lat });
        self.resolve(now, set, i);
    }

    /// Serves a resolved line's waiters immediately through the request
    /// path. Synchronous service is load-bearing: deferring waiters to the
    /// replay queue lets fresh misses evict the just-filled line (it has
    /// the oldest LRU stamp in a hot set) before its waiters run — a
    /// thrash livelock under heavy set conflicts. Serving in place either
    /// completes each waiter or re-parks it on a new transient of the same
    /// line, which preserves order.
    fn resolve(&mut self, now: Cycle, set: usize, i: usize) {
        self.lru_clock += 1;
        self.sets[set][i].lru = self.lru_clock;
        let mut waiters = std::mem::take(&mut self.sets[set][i].waiters);
        for (src, msg) in waiters.drain_all() {
            self.handle(now, src, msg);
        }
    }

    /// Completes an eviction: write back if dirty, free the way, then
    /// serve the parked requests (they re-miss and claim the freed way).
    fn finish_evict(&mut self, now: Cycle, set: usize, i: usize) {
        let mut w = self.sets[set].remove(i);
        if w.dirty {
            self.send(self.cfg.memctl, Msg::MemWr { line: w.line, data: w.data });
        }
        self.meters.incr(self.slots.evict);
        for (src, msg) in w.waiters.drain_all() {
            self.handle(now, src, msg);
        }
    }
}

// Snapshot tags for enums are part of the format: append-only, never
// renumbered.

impl Pack for Dir {
    fn pack(&self, w: &mut SnapWriter) {
        match self {
            Dir::Uncached => w.u8(0),
            Dir::Shared(sharers) => {
                w.u8(1);
                sharers.pack(w);
            }
            Dir::Exclusive(owner) => {
                w.u8(2);
                owner.pack(w);
            }
        }
    }
    fn unpack(r: &mut SnapReader) -> Self {
        match r.u8() {
            0 => Dir::Uncached,
            1 => Dir::Shared(Vec::unpack(r)),
            2 => Dir::Exclusive(Gid::unpack(r)),
            t => {
                r.corrupt(&format!("unknown directory tag {t}"));
                Dir::Uncached
            }
        }
    }
}

impl Pack for Transient {
    fn pack(&self, w: &mut SnapWriter) {
        match self {
            Transient::FetchMem => w.u8(0),
            Transient::Recall => w.u8(1),
            Transient::Downgrade => w.u8(2),
            Transient::Inv { pending } => {
                w.u8(3);
                w.u32(*pending);
            }
            Transient::Evict { pending, via_recall } => {
                w.u8(4);
                w.u32(*pending);
                w.bool(*via_recall);
            }
        }
    }
    fn unpack(r: &mut SnapReader) -> Self {
        match r.u8() {
            0 => Transient::FetchMem,
            1 => Transient::Recall,
            2 => Transient::Downgrade,
            3 => Transient::Inv { pending: r.u32() },
            4 => Transient::Evict { pending: r.u32(), via_recall: r.bool() },
            t => {
                r.corrupt(&format!("unknown transient tag {t}"));
                Transient::FetchMem
            }
        }
    }
}

impl Pack for Way {
    fn pack(&self, w: &mut SnapWriter) {
        w.u64(self.line);
        self.data.pack(w);
        w.bool(self.dirty);
        self.dir.pack(w);
        self.transient.pack(w);
        self.waiters.pack(w);
        w.u64(self.lru);
        w.u64(self.fetch_at);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        let line = r.u64();
        let data = LineData::unpack(r);
        let dirty = r.bool();
        let dir = Dir::unpack(r);
        let transient = Option::<Transient>::unpack(r);
        let waiters = Ring::unpack(r);
        Way { line, data, dirty, dir, transient, waiters, lru: r.u64(), fetch_at: r.u64() }
    }
}

impl SaveState for LlcSlice {
    fn save(&self, w: &mut SnapWriter) {
        // Set count, geometry and meter slots are config; each set's
        // occupancy is state. The trace lane is host-side observability.
        let Self { cfg: _, sets, in_delay, replay, noc_out, lru_clock, meters, slots: _, trace: _ } =
            self;
        for set in sets {
            set.pack(w);
        }
        in_delay.save(w);
        replay.save(w);
        noc_out.save(w);
        w.u64(*lru_clock);
        meters.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        for set in &mut self.sets {
            *set = Vec::<Way>::unpack(r);
            if set.len() > self.cfg.geometry.ways {
                r.corrupt("restored LLC set exceeds its configured associativity");
            }
        }
        self.in_delay.restore(r);
        self.replay.restore(r);
        self.noc_out.restore(r);
        self.lru_clock = r.u64();
        self.meters.restore(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smappic_noc::NodeId;

    fn slice() -> LlcSlice {
        LlcSlice::new(LlcConfig::new(Gid::tile(NodeId(0), 0)))
    }

    fn core(t: u16) -> Gid {
        Gid::tile(NodeId(0), t)
    }

    /// Drives the slice, answering MemRd/MemWr like a zero-filled DRAM.
    fn pump(llc: &mut LlcSlice, now: &mut Cycle, out: &mut Vec<Packet>) {
        llc.tick(*now);
        while let Some(p) = llc.noc_pop() {
            match &p.msg {
                Msg::MemRd { line } => {
                    let line = *line;
                    llc.noc_push(
                        *now,
                        Packet::on_canonical_vn(
                            llc.identity(),
                            Gid::chipset(NodeId(0)),
                            Msg::MemData { line, data: LineData::zeroed() },
                        ),
                    );
                }
                Msg::MemWr { .. } => {}
                _ => out.push(p),
            }
        }
        *now += 1;
    }

    fn push_req(llc: &mut LlcSlice, now: Cycle, src: Gid, msg: Msg) {
        llc.noc_push(now, Packet::on_canonical_vn(llc.identity(), src, msg));
    }

    #[test]
    fn first_reader_gets_exclusive() {
        let mut llc = slice();
        let mut now = 0;
        let mut out = Vec::new();
        push_req(&mut llc, now, core(1), Msg::ReqS { line: 0x1000 });
        while out.is_empty() {
            pump(&mut llc, &mut now, &mut out);
            assert!(now < 1_000);
        }
        match &out[0].msg {
            Msg::Data { line, excl, .. } => {
                assert_eq!(*line, 0x1000);
                assert!(excl, "sole reader should get E");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(out[0].dst, core(1));
    }

    #[test]
    fn second_reader_triggers_downgrade_then_shares() {
        let mut llc = slice();
        let mut now = 0;
        let mut out = Vec::new();
        push_req(&mut llc, now, core(1), Msg::ReqS { line: 0x1000 });
        while out.is_empty() {
            pump(&mut llc, &mut now, &mut out);
        }
        out.clear();
        // Second reader: home downgrades core 1, which keeps an S copy.
        push_req(&mut llc, now, core(2), Msg::ReqS { line: 0x1000 });
        while out.is_empty() {
            pump(&mut llc, &mut now, &mut out);
            assert!(now < 1_000);
        }
        assert!(matches!(out[0].msg, Msg::Downgrade { line: 0x1000 }));
        assert_eq!(out[0].dst, core(1));
        out.clear();
        // Core 1 returns dirty data; core 2 then gets it as Shared.
        let mut d = LineData::zeroed();
        d.write(0, 8, 777);
        push_req(&mut llc, now, core(1), Msg::RecallData { line: 0x1000, data: d, dirty: true });
        while out.is_empty() {
            pump(&mut llc, &mut now, &mut out);
            assert!(now < 1_000);
        }
        match &out[0].msg {
            Msg::Data { data, excl, .. } => {
                assert_eq!(data.read(0, 8), 777);
                assert!(!excl, "second reader must not get an exclusive copy");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(out[0].dst, core(2));
    }

    #[test]
    fn writer_invalidates_other_sharers() {
        let mut llc = slice();
        let mut now = 0;
        let mut out = Vec::new();
        // Two sharers: first gets E, then a downgrade leaves both in S.
        push_req(&mut llc, now, core(1), Msg::ReqS { line: 0x2000 });
        while out.is_empty() {
            pump(&mut llc, &mut now, &mut out);
        }
        out.clear();
        push_req(&mut llc, now, core(2), Msg::ReqS { line: 0x2000 });
        // Answer the downgrade.
        loop {
            pump(&mut llc, &mut now, &mut out);
            if let Some(p) = out.iter().find(|p| matches!(p.msg, Msg::Downgrade { .. })) {
                assert_eq!(p.dst, core(1));
                push_req(
                    &mut llc,
                    now,
                    core(1),
                    Msg::RecallData { line: 0x2000, data: LineData::zeroed(), dirty: false },
                );
                break;
            }
            assert!(now < 1_000);
        }
        out.clear();
        // Core 2 receives its Shared copy.
        while !out.iter().any(|p| matches!(p.msg, Msg::Data { excl: false, .. })) {
            pump(&mut llc, &mut now, &mut out);
            assert!(now < 1_000);
        }
        out.clear();
        // Core 2 upgrades: core 1 must receive Inv; ack it; core 2 gets ack.
        push_req(&mut llc, now, core(2), Msg::ReqM { line: 0x2000 });
        loop {
            pump(&mut llc, &mut now, &mut out);
            if let Some(p) = out.iter().find(|p| matches!(p.msg, Msg::Inv { .. })) {
                assert_eq!(p.dst, core(1));
                push_req(&mut llc, now, core(1), Msg::InvAck { line: 0x2000 });
                break;
            }
            assert!(now < 1_000);
        }
        out.clear();
        while out.is_empty() {
            pump(&mut llc, &mut now, &mut out);
        }
        assert!(
            matches!(out[0].msg, Msg::UpgradeAck { line: 0x2000 }),
            "sharer upgrading should get UpgradeAck, got {:?}",
            out[0].msg
        );
        assert_eq!(out[0].dst, core(2));
        assert!(llc.is_idle());
    }

    #[test]
    fn amo_executes_at_home_and_orders() {
        let mut llc = slice();
        let mut now = 0;
        let mut out = Vec::new();
        for k in 0..10u64 {
            push_req(
                &mut llc,
                now,
                core(1),
                Msg::Amo {
                    addr: 0x3000,
                    size: 8,
                    op: smappic_noc::AmoOp::Add,
                    val: 1,
                    expected: 0,
                },
            );
            let before = out.len();
            while out.len() == before {
                pump(&mut llc, &mut now, &mut out);
                assert!(now < 10_000);
            }
            match &out[out.len() - 1].msg {
                Msg::AmoResp { old, .. } => assert_eq!(*old, k),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn recall_nack_after_writeback_resolves() {
        let mut llc = slice();
        let mut now = 0;
        let mut out = Vec::new();
        // Core 1 takes the line exclusively.
        push_req(&mut llc, now, core(1), Msg::ReqS { line: 0x4000 });
        while out.is_empty() {
            pump(&mut llc, &mut now, &mut out);
        }
        out.clear();
        // Core 2 requests; home sends Downgrade to core 1.
        push_req(&mut llc, now, core(2), Msg::ReqS { line: 0x4000 });
        while !out.iter().any(|p| matches!(p.msg, Msg::Downgrade { .. })) {
            pump(&mut llc, &mut now, &mut out);
            assert!(now < 1_000);
        }
        out.clear();
        // Meanwhile core 1 had evicted: WbData arrives first, then the nack
        // (same VN, ordered).
        let mut d = LineData::zeroed();
        d.write(0, 8, 31337);
        push_req(&mut llc, now, core(1), Msg::WbData { line: 0x4000, data: d });
        push_req(&mut llc, now, core(1), Msg::RecallNack { line: 0x4000 });
        while out.is_empty() {
            pump(&mut llc, &mut now, &mut out);
            assert!(now < 1_000);
        }
        match &out[0].msg {
            Msg::Data { data, .. } => assert_eq!(data.read(0, 8), 31337),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(out[0].dst, core(2));
        // Drain the trailing nack, then the slice must be quiescent.
        for _ in 0..20 {
            pump(&mut llc, &mut now, &mut out);
        }
        assert!(llc.is_idle());
    }

    #[test]
    fn miss_latency_histogram_counts_each_memory_fetch_once() {
        let mut llc = slice();
        let mut now = 0;
        let mut out = Vec::new();
        // Two distinct lines miss; a re-read of the first hits.
        for line in [0x1000u64, 0x9000] {
            push_req(&mut llc, now, core(1), Msg::ReqS { line });
            let before = out.len();
            while out.len() == before {
                pump(&mut llc, &mut now, &mut out);
                assert!(now < 1_000);
            }
        }
        let miss_latency = llc.meters.histogram_of(llc.slots.miss_latency);
        assert_eq!(miss_latency.count(), 2, "one sample per memory fetch");
        // The fetch spans at least the pipeline delay on each side.
        assert!(miss_latency.min() >= 1, "fetch latency must be nonzero");
    }

    #[test]
    fn capacity_eviction_writes_dirty_lines_to_memory() {
        let mut llc = slice();
        let mut now = 0;
        let mut out = Vec::new();
        let mut mem_writes = 0;
        // 64 KB 4-way = 256 sets; lines 64*256 apart collide in set 0.
        let stride = 64 * 256;
        for k in 0..6u64 {
            // Dirty each line via AMO (executes at home, marks dirty).
            push_req(
                &mut llc,
                now,
                core(1),
                Msg::Amo {
                    addr: k * stride,
                    size: 8,
                    op: smappic_noc::AmoOp::Add,
                    val: 1,
                    expected: 0,
                },
            );
            let t0 = now;
            loop {
                llc.tick(now);
                while let Some(p) = llc.noc_pop() {
                    match &p.msg {
                        Msg::MemRd { line } => {
                            let line = *line;
                            llc.noc_push(
                                now,
                                Packet::on_canonical_vn(
                                    llc.identity(),
                                    Gid::chipset(NodeId(0)),
                                    Msg::MemData { line, data: LineData::zeroed() },
                                ),
                            );
                        }
                        Msg::MemWr { .. } => mem_writes += 1,
                        _ => out.push(p),
                    }
                }
                if out.len() as u64 == k + 1 {
                    break;
                }
                now += 1;
                assert!(now < t0 + 10_000);
            }
        }
        assert!(mem_writes >= 2, "evictions must write dirty lines back, saw {mem_writes}");
    }
}

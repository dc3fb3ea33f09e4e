//! Address-decoded AXI4 crossbar with ID remapping.

use std::collections::BTreeMap;

use smappic_sim::{
    meter_slots, Cycle, FaultInjector, Meters, MetersBuilder, Pack, Port, SaveState, SnapReader,
    SnapWriter, Stats, TraceBuf, TraceEventKind,
};

use crate::txn::{AxiReq, AxiResp};

meter_slots! {
    /// The crossbar's counters.
    struct XbarMeters {
        req: counter("xbar.req"),
        resp: counter("xbar.resp"),
        decerr: counter("xbar.decerr"),
        orphan_resp: counter("xbar.orphan_resp"),
        fault_stall: counter("xbar.fault_stall"),
    }
}

/// An N-master × M-slave AXI4 crossbar.
///
/// The paper uses the Xilinx AXI crossbar to bind nodes located on the same
/// FPGA (§3.1: *"connecting nodes on the same FPGA using the AXI4
/// crossbar"*). This model:
///
/// - decodes the request address against a range map to select the slave,
/// - remaps transaction IDs so concurrent masters cannot collide, and
///   restores the original ID on the response path,
/// - arbitrates round-robin over the masters, forwarding at most one
///   request per master and one response per slave port per cycle.
///
/// Unmapped addresses complete with a DECERR-style error response instead
/// of vanishing, matching AXI semantics.
#[derive(Debug)]
pub struct Crossbar {
    masters: usize,
    ranges: Vec<(u64, u64, usize)>, // base, size, slave
    m_req_in: Vec<Port<AxiReq>>,
    m_resp_out: Vec<Port<AxiResp>>,
    s_req_out: Vec<Port<AxiReq>>,
    s_resp_in: Vec<Port<AxiResp>>,
    // remapped id -> (master index, original id)
    inflight: BTreeMap<u16, (usize, u16)>,
    /// Requests and responses queued across all four port banks, so the
    /// per-cycle [`Crossbar::pump_is_noop`] probe is a compare. Derived
    /// state: recomputed on restore, never serialized.
    queued: usize,
    next_tag: u16,
    rr_master: usize,
    meters: Meters,
    slots: XbarMeters,
    trace: TraceBuf,
}

impl Crossbar {
    /// Creates a crossbar with `masters` master ports and `slaves` slave
    /// ports, all with 16-entry queues.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(masters: usize, slaves: usize) -> Self {
        assert!(masters > 0 && slaves > 0, "crossbar needs at least one master and one slave");
        /// `n` 16-entry ports named `{side}{i}.{queue}`.
        fn bank<T>(m: &mut MetersBuilder, n: usize, side: char, queue: &str) -> Vec<Port<T>> {
            (0..n).map(|i| Port::bounded(m.port(format!("{side}{i}.{queue}")), 16)).collect()
        }
        let mut meters = MetersBuilder::new();
        Self {
            masters,
            ranges: Vec::new(),
            m_req_in: bank(&mut meters, masters, 'm', "req_in"),
            m_resp_out: bank(&mut meters, masters, 'm', "resp_out"),
            s_req_out: bank(&mut meters, slaves, 's', "req_out"),
            s_resp_in: bank(&mut meters, slaves, 's', "resp_in"),
            inflight: BTreeMap::new(),
            queued: 0,
            next_tag: 0,
            rr_master: 0,
            slots: XbarMeters::register(&mut meters),
            meters: meters.build(),
            trace: TraceBuf::new(4096),
        }
    }

    /// The crossbar's trace lane (grant events).
    pub fn trace_mut(&mut self) -> &mut TraceBuf {
        &mut self.trace
    }

    /// Installs a fault injector that transiently stalls master ports:
    /// while a port's stall window hits, its queued requests wait (pure
    /// back-pressure — nothing is dropped or reordered per-master, so the
    /// stall is a timing fault only). Stalled-with-traffic cycles count as
    /// `xbar.fault_stall`.
    ///
    /// Interposition lives on the ports: each master request port carries a
    /// clone of the injector keyed by its master index, so the arbiter asks
    /// the port ([`Port::fault_stalled`]) instead of carrying per-site
    /// injector plumbing. Decisions stay pure functions of
    /// `(seed, stream, lane, cycle)` — bit-identical across steppers.
    pub fn set_faults(&mut self, inj: FaultInjector) {
        for (m, port) in self.m_req_in.iter_mut().enumerate() {
            port.set_faults(inj.clone(), m as u64);
        }
    }

    /// Maps `[base, base + size)` to slave `slave`. Ranges must not overlap.
    ///
    /// # Panics
    ///
    /// Panics on a zero-size range, an out-of-range slave index, or an
    /// overlap with an existing range.
    pub fn map_range(&mut self, base: u64, size: u64, slave: usize) {
        assert!(size > 0, "empty address range");
        assert!(slave < self.s_req_out.len(), "slave index out of range");
        for &(b, s, _) in &self.ranges {
            let overlap = base < b + s && b < base + size;
            assert!(!overlap, "address range overlaps an existing mapping");
        }
        self.ranges.push((base, size, slave));
    }

    /// Decodes `addr` to a slave index.
    pub fn decode(&self, addr: u64) -> Option<usize> {
        self.ranges.iter().find(|(b, s, _)| addr >= *b && addr < b + s).map(|&(_, _, slave)| slave)
    }

    /// Master `m` submits a request. Errors with the request when the input
    /// queue is full.
    pub fn master_push(&mut self, m: usize, req: AxiReq) -> Result<(), AxiReq> {
        self.m_req_in[m].try_push(req, &mut self.meters)?;
        self.queued += 1;
        Ok(())
    }

    /// True when master `m` may push a request this cycle.
    pub fn master_can_push(&self, m: usize) -> bool {
        !self.m_req_in[m].is_full()
    }

    /// Master `m` collects its next response.
    pub fn master_pop(&mut self, m: usize) -> Option<AxiResp> {
        let resp = self.m_resp_out[m].pop()?;
        self.queued -= 1;
        Some(resp)
    }

    /// Slave `s` takes its next routed request.
    pub fn slave_pop(&mut self, s: usize) -> Option<AxiReq> {
        let req = self.s_req_out[s].pop()?;
        self.queued -= 1;
        Some(req)
    }

    /// Slave `s` returns a response. Errors with the response when full.
    pub fn slave_push(&mut self, s: usize, resp: AxiResp) -> Result<(), AxiResp> {
        self.s_resp_in[s].try_push(resp, &mut self.meters)?;
        self.queued += 1;
        Ok(())
    }

    /// True when slave `s` may push a response this cycle.
    pub fn slave_can_push(&self, s: usize) -> bool {
        !self.s_resp_in[s].is_full()
    }

    /// Counters (`xbar.req`, `xbar.resp`, `xbar.decerr`), rendered.
    pub fn stats(&self) -> Stats {
        self.meters.stats()
    }

    /// The crossbar's meters: `xbar.*` counters and every port's meter.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// True when a [`Crossbar::tick`] would move nothing: every request
    /// and response port is empty. Transactions may still be outstanding
    /// at slaves (`inflight` non-empty) — the tick touches those only via
    /// the ports. The round-robin pointer still advances every cycle; use
    /// [`Crossbar::tick_quiet`] when eliding a tick under this predicate.
    pub fn pump_is_noop(&self) -> bool {
        self.queued == 0
    }

    /// `queued` recomputed from the ports themselves.
    fn scan_queued(&self) -> usize {
        let reqs = self.m_req_in.iter().chain(&self.s_req_out).map(Port::len);
        let resps = self.m_resp_out.iter().chain(&self.s_resp_in).map(Port::len);
        reqs.sum::<usize>() + resps.sum::<usize>()
    }

    /// A [`Crossbar::tick`] reduced to its only state change when
    /// [`Crossbar::pump_is_noop`] holds: the round-robin pointer advance
    /// (kept so snapshot bytes match a reference run that ticks fully).
    pub fn tick_quiet(&mut self) {
        debug_assert!(self.pump_is_noop(), "tick_quiet requires empty ports");
        self.rr_master = (self.rr_master + 1) % self.masters;
    }

    /// `delta` consecutive [`Crossbar::tick_quiet`]s in one step, keeping
    /// the round-robin pointer bit-identical to a run that ticked through
    /// the same window cycle by cycle.
    pub fn advance_quiet(&mut self, delta: u64) {
        debug_assert!(self.pump_is_noop(), "advance_quiet requires empty ports");
        self.rr_master = (self.rr_master + (delta % self.masters as u64) as usize) % self.masters;
    }

    /// True when no transaction is queued or outstanding.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.pump_is_noop()
    }

    fn alloc_tag(&mut self) -> u16 {
        // Linear probe for a free tag; 64K in-flight transactions would be
        // a bug elsewhere, so this terminates in practice immediately.
        loop {
            let t = self.next_tag;
            self.next_tag = self.next_tag.wrapping_add(1);
            if !self.inflight.contains_key(&t) {
                return t;
            }
        }
    }

    /// Advances the crossbar one cycle.
    pub fn tick(&mut self, now: Cycle) {
        debug_assert_eq!(self.queued, self.scan_queued(), "crossbar queued count");
        // Request path: round-robin over masters; forward when the decoded
        // slave queue has space.
        for i in 0..self.masters {
            let m = (self.rr_master + i) % self.masters;
            let Some(req) = self.m_req_in[m].peek() else { continue };
            if self.m_req_in[m].fault_stalled(now) {
                self.meters.incr(self.slots.fault_stall);
                continue;
            }
            match self.decode(req.addr()) {
                Some(s) if !self.s_req_out[s].is_full() => {
                    let req = self.m_req_in[m].pop().expect("peeked");
                    let orig = req.id();
                    let tag = self.alloc_tag();
                    self.inflight.insert(tag, (m, orig));
                    self.s_req_out[s].push(req.with_id(tag), &mut self.meters); // space checked above
                    self.meters.incr(self.slots.req);
                    self.trace.record(now, || TraceEventKind::XbarGrant {
                        master: m as u8,
                        slave: s as u8,
                    });
                }
                Some(_) => {} // blocked, retry next cycle
                None => {
                    // Decode error: complete immediately with an error. A
                    // full response port drops the error reply (as before);
                    // the rejection shows up as a port stall.
                    let req = self.m_req_in[m].pop().expect("peeked");
                    let resp = match req {
                        AxiReq::Write(w) => {
                            AxiResp::Write(crate::txn::AxiWriteResp { id: w.id, ok: false })
                        }
                        AxiReq::Read(r) => {
                            AxiResp::Read(crate::txn::AxiReadResp { id: r.id, data: vec![] })
                        }
                    };
                    let replied = self.m_resp_out[m].try_push_traced(
                        resp,
                        now,
                        &mut self.trace,
                        &mut self.meters,
                    );
                    // The request left the ports; its reply took its place
                    // in the count unless it was dropped.
                    self.queued -= usize::from(replied.is_err());
                    self.meters.incr(self.slots.decerr);
                }
            }
        }
        self.rr_master = (self.rr_master + 1) % self.masters;

        // Response path: restore original IDs and deliver to owners.
        for s in 0..self.s_resp_in.len() {
            let Some(resp) = self.s_resp_in[s].peek() else { continue };
            let Some(&(m, orig)) = self.inflight.get(&resp.id()) else {
                // Response to an unknown tag: drop defensively.
                self.s_resp_in[s].pop();
                self.queued -= 1;
                self.meters.incr(self.slots.orphan_resp);
                continue;
            };
            if self.m_resp_out[m].is_full() {
                continue;
            }
            let resp = self.s_resp_in[s].pop().expect("peeked");
            self.inflight.remove(&resp.id());
            self.m_resp_out[m].push(resp.with_id(orig), &mut self.meters); // space checked above
            self.meters.incr(self.slots.resp);
        }
    }
}

impl SaveState for Crossbar {
    fn save(&self, w: &mut SnapWriter) {
        // Masters, ranges and meter slots are config, `queued` is derived
        // from the ports, the trace lane is host-side.
        let Self {
            masters: _,
            ranges: _,
            m_req_in,
            m_resp_out,
            s_req_out,
            s_resp_in,
            inflight,
            queued: _,
            next_tag,
            rr_master,
            meters,
            slots: _,
            trace: _,
        } = self;
        for p in m_req_in {
            p.save(w);
        }
        for p in m_resp_out {
            p.save(w);
        }
        for p in s_req_out {
            p.save(w);
        }
        for p in s_resp_in {
            p.save(w);
        }
        inflight.pack(w);
        w.u16(*next_tag);
        w.usize(*rr_master);
        meters.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        for p in &mut self.m_req_in {
            p.restore(r);
        }
        for p in &mut self.m_resp_out {
            p.restore(r);
        }
        for p in &mut self.s_req_out {
            p.restore(r);
        }
        for p in &mut self.s_resp_in {
            p.restore(r);
        }
        self.queued = self.scan_queued();
        self.inflight = BTreeMap::unpack(r);
        if self.inflight.values().any(|&(m, _)| m >= self.masters) {
            r.corrupt("inflight entry names a master this crossbar does not have");
        }
        self.next_tag = r.u16();
        self.rr_master = r.usize() % self.masters.max(1);
        self.meters.restore(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{AxiRead, AxiReadResp, AxiWrite, AxiWriteResp};

    fn xbar2x2() -> Crossbar {
        let mut x = Crossbar::new(2, 2);
        x.map_range(0x0000, 0x1000, 0);
        x.map_range(0x1000, 0x1000, 1);
        x
    }

    #[test]
    fn decodes_by_address() {
        let x = xbar2x2();
        assert_eq!(x.decode(0x0800), Some(0));
        assert_eq!(x.decode(0x1800), Some(1));
        assert_eq!(x.decode(0x2000), None);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_ranges_panic() {
        let mut x = Crossbar::new(1, 2);
        x.map_range(0, 0x100, 0);
        x.map_range(0x80, 0x100, 1);
    }

    #[test]
    fn routes_and_restores_ids() {
        let mut x = xbar2x2();
        x.master_push(0, AxiReq::Read(AxiRead::new(0x1000, 8, 42))).unwrap();
        x.master_push(1, AxiReq::Read(AxiRead::new(0x1008, 8, 42))).unwrap();
        x.tick(0);
        // Both requests target slave 1; IDs must be distinct there.
        let a = x.slave_pop(1).unwrap();
        let b = x.slave_pop(1).unwrap();
        assert_ne!(a.id(), b.id());
        // Answer in reverse order; responses route back to the right masters
        // with the original ID restored.
        x.slave_push(1, AxiResp::Read(AxiReadResp { id: b.id(), data: vec![2; 8] })).unwrap();
        x.slave_push(1, AxiResp::Read(AxiReadResp { id: a.id(), data: vec![1; 8] })).unwrap();
        x.tick(1);
        x.tick(2);
        let r0 = x.master_pop(0).unwrap();
        let r1 = x.master_pop(1).unwrap();
        assert_eq!(r0.id(), 42);
        assert_eq!(r1.id(), 42);
        match (r0, r1) {
            (AxiResp::Read(a), AxiResp::Read(b)) => {
                assert_eq!(a.data, vec![1; 8]);
                assert_eq!(b.data, vec![2; 8]);
            }
            other => panic!("unexpected responses {other:?}"),
        }
        assert!(x.is_idle());
    }

    #[test]
    fn unmapped_address_gets_error_response() {
        let mut x = xbar2x2();
        x.master_push(0, AxiReq::Write(AxiWrite::new(0xFFFF_0000, vec![1], 7))).unwrap();
        x.tick(0);
        match x.master_pop(0) {
            Some(AxiResp::Write(AxiWriteResp { id: 7, ok: false })) => {}
            other => panic!("expected decerr, got {other:?}"),
        }
        assert_eq!(x.stats().get("xbar.decerr"), 1);
    }

    #[test]
    fn writes_complete_with_acks() {
        let mut x = xbar2x2();
        x.master_push(0, AxiReq::Write(AxiWrite::new(0x10, vec![9; 24], 5))).unwrap();
        x.tick(0);
        let req = x.slave_pop(0).unwrap();
        x.slave_push(0, AxiResp::Write(AxiWriteResp { id: req.id(), ok: true })).unwrap();
        x.tick(1);
        assert_eq!(x.master_pop(0), Some(AxiResp::Write(AxiWriteResp { id: 5, ok: true })));
    }

    #[test]
    fn many_outstanding_transactions() {
        let mut x = Crossbar::new(1, 1);
        x.map_range(0, 0x10000, 0);
        let mut sent = 0u64;
        let mut done = 0u64;
        let mut now = 0;
        while done < 100 {
            if sent < 100 && x.master_can_push(0) {
                x.master_push(0, AxiReq::Read(AxiRead::new(sent * 8, 8, (sent % 4) as u16)))
                    .unwrap();
                sent += 1;
            }
            x.tick(now);
            if let Some(req) = x.slave_pop(0) {
                x.slave_push(0, AxiResp::Read(AxiReadResp { id: req.id(), data: vec![0; 8] }))
                    .unwrap();
            }
            while x.master_pop(0).is_some() {
                done += 1;
            }
            now += 1;
            assert!(now < 5_000, "crossbar stuck at sent={sent} done={done}");
        }
        assert!(x.is_idle());
    }

    #[test]
    fn snapshot_round_trip_preserves_outstanding_transactions() {
        use smappic_sim::Snapshot;

        let mut original = xbar2x2();
        original.master_push(0, AxiReq::Read(AxiRead::new(0x0040, 8, 7))).unwrap();
        original.master_push(1, AxiReq::Write(AxiWrite::new(0x1040, vec![5; 16], 7))).unwrap();
        original.tick(0);
        // Both requests are now outstanding at the slaves (inflight map
        // populated, queues non-empty).
        let mut w = SnapWriter::new();
        w.scoped("xbar", |w| original.save(w));
        let snap = Snapshot::new(1, 1, w);

        let mut restored = xbar2x2();
        let mut r = SnapReader::new(&snap);
        r.scoped("xbar", |r| restored.restore(r));
        r.finish().expect("clean restore");

        // Drive both to completion identically.
        for x in [&mut original, &mut restored] {
            while let Some(req) = x.slave_pop(0) {
                x.slave_push(0, AxiResp::Read(AxiReadResp { id: req.id(), data: vec![1; 8] }))
                    .unwrap();
            }
            while let Some(req) = x.slave_pop(1) {
                x.slave_push(1, AxiResp::Write(AxiWriteResp { id: req.id(), ok: true })).unwrap();
            }
            x.tick(1);
        }
        assert_eq!(original.master_pop(0), restored.master_pop(0));
        assert_eq!(original.master_pop(1), restored.master_pop(1));
        assert!(original.is_idle() && restored.is_idle());
        assert_eq!(original.stats().get("xbar.req"), restored.stats().get("xbar.req"));
    }

    #[test]
    fn queued_count_tracks_the_ports_through_every_path() {
        use smappic_sim::{SimRng, Snapshot};

        let build = || {
            let mut x = Crossbar::new(3, 3);
            for slave in 0..3 {
                x.map_range(slave as u64 * 0x1000, 0x1000, slave);
            }
            x
        };
        let mut x = build();
        let mut rng = SimRng::new(0xC0B4);
        let mut taken: Vec<(usize, u16)> = Vec::new(); // (slave, remapped id) awaiting a response
        let mut now = 0;
        for step in 0..6_000 {
            let port = rng.gen_range(3) as usize;
            match rng.gen_range(8) {
                // Master 0 sends only unmapped addresses and never collects,
                // so its response port fills and later DECERR replies to it
                // are dropped.
                0 | 1 => {
                    let addr = if port == 0 { 0x9000 } else { rng.gen_range(0x3000) };
                    let _ = x.master_push(port, AxiReq::Read(AxiRead::new(addr, 8, step as u16)));
                }
                2 => {
                    if let Some(req) = x.slave_pop(port) {
                        taken.push((port, req.id()));
                    }
                }
                3 if !taken.is_empty() => {
                    let (s, id) = taken.swap_remove(rng.gen_range(taken.len() as u64) as usize);
                    if x.slave_push(s, AxiResp::Read(AxiReadResp { id, data: vec![] })).is_err() {
                        taken.push((s, id));
                    }
                }
                // A response nobody asked for.
                4 if rng.chance(0.1) => {
                    let _ =
                        x.slave_push(port, AxiResp::Write(AxiWriteResp { id: 0xFFFF, ok: true }));
                }
                5 if port != 0 => {
                    x.master_pop(port);
                }
                6 if rng.chance(0.02) => {
                    let mut w = SnapWriter::new();
                    w.scoped("xbar", |w| x.save(w));
                    let snap = Snapshot::new(0, now, w);
                    x = build();
                    let mut r = SnapReader::new(&snap);
                    r.scoped("xbar", |r| x.restore(r));
                    r.finish().expect("clean restore");
                }
                _ => {
                    x.tick(now);
                    now += 1;
                }
            }
            assert_eq!(x.queued, x.scan_queued(), "after step {step}");
            assert_eq!(x.pump_is_noop(), x.scan_queued() == 0, "after step {step}");
        }
        let moved = (x.stats().get("xbar.req"), x.stats().get("xbar.resp"));
        assert!(moved.0 > 500 && moved.1 > 300, "requests and responses must flow: {moved:?}");
        assert!(x.stats().get("xbar.orphan_resp") > 0, "an orphan response was dropped");
        assert!(x.m_resp_out[0].is_full() && x.meters.stalls(x.m_resp_out[0].slot()) > 0);
        assert!(x.stats().get("xbar.decerr") > 16, "DECERR replies met the full port");
    }

    #[test]
    fn fault_stalls_delay_but_never_drop() {
        use smappic_sim::{FaultPlan, FaultProfile};
        use std::sync::Arc;

        let profile = FaultProfile { stall_prob: 0.5, stall_window: 8, ..FaultProfile::quiet() };
        let plan = Arc::new(FaultPlan::seeded(21, profile));
        let mut x = Crossbar::new(1, 1);
        x.map_range(0, 0x10000, 0);
        x.set_faults(FaultInjector::new(plan, 0x300));
        let mut sent = 0u64;
        let mut done = 0u64;
        let mut now = 0;
        while done < 100 {
            if sent < 100 && x.master_can_push(0) {
                x.master_push(0, AxiReq::Read(AxiRead::new(sent * 8, 8, (sent % 4) as u16)))
                    .unwrap();
                sent += 1;
            }
            x.tick(now);
            if let Some(req) = x.slave_pop(0) {
                x.slave_push(0, AxiResp::Read(AxiReadResp { id: req.id(), data: vec![0; 8] }))
                    .unwrap();
            }
            while x.master_pop(0).is_some() {
                done += 1;
            }
            now += 1;
            assert!(now < 20_000, "crossbar livelocked at sent={sent} done={done}");
        }
        assert!(x.is_idle());
        assert!(x.stats().get("xbar.fault_stall") > 0, "stalls must have fired");
    }
}

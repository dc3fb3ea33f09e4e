//! The NoC-AXI4 memory controller (Fig 5 of the paper).

use std::collections::BTreeMap;

use smappic_axi::{AxiRead, AxiReq, AxiResp, AxiWrite};
use smappic_noc::{line_of, line_offset, Gid, LineData, Msg, Packet, LINE_BYTES};
use smappic_sim::{
    meter_slots, Cycle, Meters, MetersBuilder, Pack, Port, SaveState, SnapReader, SnapWriter,
    Stats, TraceBuf, TraceEventKind,
};

use crate::dram::Dram;

/// Configuration of the memory controller.
#[derive(Debug, Clone)]
pub struct MemControllerConfig {
    /// This controller's NoC identity (the chipset Gid of its node).
    pub identity: Gid,
    /// Management-module buffer depth (outstanding requests).
    pub buffer_depth: usize,
}

impl MemControllerConfig {
    /// Default: 16 outstanding requests.
    pub fn new(identity: Gid) -> Self {
        Self { identity, buffer_depth: 16 }
    }
}

meter_slots! {
    /// The controller's counters and latency histogram.
    struct MemctlMeters {
        rd: counter("memctl.rd"),
        wr: counter("memctl.wr"),
        nc: counter("memctl.nc"),
        /// Accept-to-response latency of DRAM transactions, in cycles.
        latency: histogram("dram.latency"),
    }
}

/// The origin bookkeeping an engine stores per in-flight AXI transaction
/// (the paper's MSHR + ID-MSHR mapping).
#[derive(Debug, Clone)]
enum Origin {
    /// A cache-line fill for the LLC (`MemRd`).
    Line { requester: Gid, line: u64 },
    /// A cache-line writeback (`MemWr`); completion is silent.
    LineWb,
    /// A non-cacheable load smaller than a line; byte select on return.
    NcLoad { requester: Gid, addr: u64, size: u8 },
    /// A non-cacheable store; acked to the requester.
    NcStore { requester: Gid, addr: u64 },
}

/// An in-flight AXI transaction: its origin plus the observability stamps
/// needed to report DRAM latency when the response returns.
#[derive(Debug, Clone)]
struct Inflight {
    origin: Origin,
    started: Cycle,
    bytes: u32,
}

/// The SMAPPIC NoC-AXI4 memory controller.
///
/// Implements the Fig 5 pipeline: NoC deserializer → management module
/// (buffering for non-blocking operation) → read/write engines (AXI-ID
/// allocation, MSHR/origin bookkeeping, 64-byte alignment) → AXI4 to DRAM;
/// responses restore the origin and are serialized back onto the NoC.
///
/// The controller owns its DRAM channel: on F1, each node's memory
/// controller drives one of the four DDR4 interfaces exclusively (§3.2,
/// §4.8 limit 2 — at most four nodes per FPGA *because* there are four
/// memory slots).
#[derive(Debug)]
pub struct MemController {
    cfg: MemControllerConfig,
    dram: Dram,
    noc_in: Port<Packet>,
    noc_out: Port<Packet>,
    inflight: BTreeMap<u16, Inflight>,
    next_id: u16,
    meters: Meters,
    slots: MemctlMeters,
    trace: TraceBuf,
}

impl MemController {
    /// Creates a controller in front of `dram`.
    pub fn new(cfg: MemControllerConfig, dram: Dram) -> Self {
        let depth = cfg.buffer_depth;
        let mut meters = MetersBuilder::new();
        Self {
            cfg,
            dram,
            noc_in: Port::bounded(meters.port("noc_in"), depth),
            noc_out: Port::bounded(meters.port("noc_out"), depth.max(16)),
            inflight: BTreeMap::new(),
            next_id: 0,
            slots: MemctlMeters::register(&mut meters),
            meters: meters.build(),
            trace: TraceBuf::new(2048),
        }
    }

    /// Functional backdoor into the DRAM behind this controller.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Read-only view of the DRAM behind this controller.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Submits a NoC packet addressed to this controller. Errors with the
    /// packet when the deserializer buffer is full (back-pressure).
    pub fn push_noc(&mut self, pkt: Packet) -> Result<(), Packet> {
        self.noc_in.try_push(pkt, &mut self.meters)
    }

    /// True when a packet can be pushed this cycle.
    pub fn can_push(&self) -> bool {
        !self.noc_in.is_full()
    }

    /// Collects the next response packet to inject back into the NoC.
    pub fn pop_noc(&mut self) -> Option<Packet> {
        self.noc_out.pop()
    }

    /// Counters (`memctl.rd`, `memctl.wr`, `memctl.nc`), rendered.
    pub fn stats(&self) -> Stats {
        self.meters.stats()
    }

    /// The controller's meters: `memctl.*` counters, the `dram.latency`
    /// histogram and its NoC ports' meters.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// The controller's trace buffer, for enabling tracing and draining.
    pub fn trace_mut(&mut self) -> &mut TraceBuf {
        &mut self.trace
    }

    /// Debug: (noc_in, noc_out, inflight, dram in-flight) depths.
    pub fn queue_depths(&self) -> (usize, usize, usize, bool) {
        (self.noc_in.len(), self.noc_out.len(), self.inflight.len(), self.dram.is_idle())
    }

    /// True when no request is anywhere in the pipeline.
    pub fn is_idle(&self) -> bool {
        self.noc_in.is_empty()
            && self.noc_out.is_empty()
            && self.inflight.is_empty()
            && self.dram.is_idle()
    }

    fn alloc_id(&mut self) -> u16 {
        loop {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            if !self.inflight.contains_key(&id) {
                return id;
            }
        }
    }

    /// Advances the controller one cycle: accept one NoC request into the
    /// engines and drain one DRAM response.
    pub fn tick(&mut self, now: Cycle) {
        // Management module → engines: one request per cycle, only while we
        // have MSHR space and room to eventually respond.
        if self.inflight.len() < self.cfg.buffer_depth && !self.noc_out.is_full() {
            if let Some(pkt) = self.noc_in.pop() {
                self.accept(now, pkt);
            }
        }

        // Response path: restore origin, select bytes, serialize to NoC.
        if !self.noc_out.is_full() {
            if let Some(resp) = self.dram.pop_resp(now) {
                self.complete(now, resp);
            }
        }
    }

    fn accept(&mut self, now: Cycle, pkt: Packet) {
        let src = pkt.src;
        match pkt.msg {
            Msg::MemRd { line } => {
                self.meters.incr(self.slots.rd);
                let id = self.alloc_id();
                let origin = Origin::Line { requester: src, line };
                self.inflight
                    .insert(id, Inflight { origin, started: now, bytes: LINE_BYTES as u32 });
                self.dram.push_req(now, AxiReq::Read(AxiRead::new(line, LINE_BYTES as u32, id)));
            }
            Msg::MemWr { line, data } => {
                self.meters.incr(self.slots.wr);
                let id = self.alloc_id();
                self.inflight.insert(
                    id,
                    Inflight { origin: Origin::LineWb, started: now, bytes: LINE_BYTES as u32 },
                );
                self.dram.push_req(now, AxiReq::Write(AxiWrite::new(line, data.0.to_vec(), id)));
            }
            Msg::NcLoad { addr, size } => {
                self.meters.incr(self.slots.nc);
                let id = self.alloc_id();
                let origin = Origin::NcLoad { requester: src, addr, size };
                self.inflight.insert(id, Inflight { origin, started: now, bytes: size as u32 });
                // Fig 5: requests are aligned to a 64-byte boundary; the
                // needed bytes are selected when the response returns.
                let line = line_of(addr);
                self.dram.push_req(now, AxiReq::Read(AxiRead::new(line, LINE_BYTES as u32, id)));
            }
            Msg::NcStore { addr, size, data } => {
                self.meters.incr(self.slots.nc);
                let id = self.alloc_id();
                let origin = Origin::NcStore { requester: src, addr };
                self.inflight.insert(id, Inflight { origin, started: now, bytes: size as u32 });
                // Narrow write: AXI write strobes carry exact bytes.
                let mut bytes = vec![0u8; size as usize];
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = (data >> (8 * i)) as u8;
                }
                self.dram.push_req(now, AxiReq::Write(AxiWrite::new(addr, bytes, id)));
            }
            other => {
                // Protocol violation: the chipset should only route memory
                // traffic here.
                panic!("memory controller received non-memory message {other:?}");
            }
        }
    }

    fn complete(&mut self, now: Cycle, resp: AxiResp) {
        let id = resp.id();
        let inflight =
            self.inflight.remove(&id).expect("DRAM produced a response for an unknown AXI ID");
        let lat = now.saturating_sub(inflight.started);
        self.meters.record(self.slots.latency, lat);
        let (node, bytes) = (self.cfg.identity.node.0, inflight.bytes);
        self.trace.record(now, || TraceEventKind::Dram { node, bytes, lat });
        let me = self.cfg.identity;
        match (inflight.origin, resp) {
            (Origin::Line { requester, line }, AxiResp::Read(r)) => {
                let mut data = LineData::zeroed();
                data.0.copy_from_slice(&r.data);
                let msg = Msg::MemData { line, data };
                self.noc_out.push(Packet::on_canonical_vn(requester, me, msg), &mut self.meters);
            }
            (Origin::LineWb, AxiResp::Write(_)) => {
                // Writebacks complete silently (posted).
            }
            (Origin::NcLoad { requester, addr, size }, AxiResp::Read(r)) => {
                let mut line = LineData::zeroed();
                line.0.copy_from_slice(&r.data);
                let data = line.read(line_offset(addr), size as usize);
                let msg = Msg::NcData { addr, data };
                self.noc_out.push(Packet::on_canonical_vn(requester, me, msg), &mut self.meters);
            }
            (Origin::NcStore { requester, addr }, AxiResp::Write(_)) => {
                let ack = Packet::on_canonical_vn(requester, me, Msg::NcAck { addr });
                self.noc_out.push(ack, &mut self.meters);
            }
            (origin, resp) => {
                panic!("mismatched DRAM response {resp:?} for origin {origin:?}");
            }
        }
    }
}

// Snapshot tags for enums are part of the format: append-only, never
// renumbered.

impl Pack for Origin {
    fn pack(&self, w: &mut SnapWriter) {
        match self {
            Origin::Line { requester, line } => {
                w.u8(0);
                requester.pack(w);
                w.u64(*line);
            }
            Origin::LineWb => w.u8(1),
            Origin::NcLoad { requester, addr, size } => {
                w.u8(2);
                requester.pack(w);
                w.u64(*addr);
                w.u8(*size);
            }
            Origin::NcStore { requester, addr } => {
                w.u8(3);
                requester.pack(w);
                w.u64(*addr);
            }
        }
    }
    fn unpack(r: &mut SnapReader) -> Self {
        match r.u8() {
            0 => Origin::Line { requester: Gid::unpack(r), line: r.u64() },
            1 => Origin::LineWb,
            2 => Origin::NcLoad { requester: Gid::unpack(r), addr: r.u64(), size: r.u8() },
            3 => Origin::NcStore { requester: Gid::unpack(r), addr: r.u64() },
            t => {
                r.corrupt(&format!("unknown memctl origin tag {t}"));
                Origin::LineWb
            }
        }
    }
}

impl Pack for Inflight {
    fn pack(&self, w: &mut SnapWriter) {
        self.origin.pack(w);
        w.u64(self.started);
        w.u32(self.bytes);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        Inflight { origin: Origin::unpack(r), started: r.u64(), bytes: r.u32() }
    }
}

impl SaveState for MemController {
    fn save(&self, w: &mut SnapWriter) {
        // The config and meter slots are fixed; the trace lane is host-side
        // observability.
        let Self { cfg: _, dram, noc_in, noc_out, inflight, next_id, meters, slots: _, trace: _ } =
            self;
        w.scoped("dram", |w| dram.save(w));
        noc_in.save(w);
        noc_out.save(w);
        inflight.pack(w);
        w.u16(*next_id);
        meters.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        r.scoped("dram", |r| self.dram.restore(r));
        self.noc_in.restore(r);
        self.noc_out.restore(r);
        self.inflight = BTreeMap::unpack(r);
        self.next_id = r.u16();
        self.meters.restore(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smappic_noc::NodeId;

    fn ctl() -> MemController {
        let identity = Gid::chipset(NodeId(0));
        MemController::new(MemControllerConfig::new(identity), Dram::default())
    }

    fn requester() -> Gid {
        Gid::tile(NodeId(0), 3)
    }

    fn run_until_resp(c: &mut MemController, max: Cycle) -> Packet {
        for now in 0..max {
            c.tick(now);
            if let Some(p) = c.pop_noc() {
                return p;
            }
        }
        panic!("no response within {max} cycles");
    }

    #[test]
    fn line_fill_roundtrip() {
        let mut c = ctl();
        c.dram_mut().write_bytes(0x1000, &[0xAB; 64]);
        let req = Packet::on_canonical_vn(
            Gid::chipset(NodeId(0)),
            requester(),
            Msg::MemRd { line: 0x1000 },
        );
        c.push_noc(req).unwrap();
        let resp = run_until_resp(&mut c, 500);
        assert_eq!(resp.dst, requester());
        match resp.msg {
            Msg::MemData { line, data } => {
                assert_eq!(line, 0x1000);
                assert_eq!(data.0, [0xAB; 64]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.is_idle());
    }

    #[test]
    fn writeback_is_posted_and_lands() {
        let mut c = ctl();
        let mut data = LineData::zeroed();
        data.write(0, 8, 0xDEAD_BEEF);
        let req = Packet::on_canonical_vn(
            Gid::chipset(NodeId(0)),
            requester(),
            Msg::MemWr { line: 0x2000, data },
        );
        c.push_noc(req).unwrap();
        for now in 0..500 {
            c.tick(now);
            if c.is_idle() {
                break;
            }
        }
        assert!(c.is_idle());
        assert_eq!(c.dram().read_bytes(0x2000, 4), vec![0xEF, 0xBE, 0xAD, 0xDE]);
    }

    #[test]
    fn nc_load_selects_bytes_within_line() {
        let mut c = ctl();
        c.dram_mut().write_bytes(0x3000, &(0u8..64).collect::<Vec<_>>());
        let req = Packet::on_canonical_vn(
            Gid::chipset(NodeId(0)),
            requester(),
            Msg::NcLoad { addr: 0x3000 + 10, size: 4 },
        );
        c.push_noc(req).unwrap();
        let resp = run_until_resp(&mut c, 500);
        match resp.msg {
            Msg::NcData { addr, data } => {
                assert_eq!(addr, 0x300A);
                assert_eq!(data, u64::from_le_bytes([10, 11, 12, 13, 0, 0, 0, 0]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nc_store_writes_exact_bytes_and_acks() {
        let mut c = ctl();
        c.dram_mut().write_bytes(0x4000, &[0xFF; 16]);
        let req = Packet::on_canonical_vn(
            Gid::chipset(NodeId(0)),
            requester(),
            Msg::NcStore { addr: 0x4004, size: 2, data: 0xBEEF },
        );
        c.push_noc(req).unwrap();
        let resp = run_until_resp(&mut c, 500);
        assert!(matches!(resp.msg, Msg::NcAck { addr: 0x4004 }));
        // Only the two target bytes changed.
        assert_eq!(
            c.dram().read_bytes(0x4000, 8),
            vec![0xFF, 0xFF, 0xFF, 0xFF, 0xEF, 0xBE, 0xFF, 0xFF]
        );
    }

    #[test]
    fn many_outstanding_reads_complete() {
        let mut c = ctl();
        for i in 0..8u64 {
            c.dram_mut().write_bytes(i * 64, &[i as u8; 64]);
        }
        let mut pushed = 0u64;
        let mut got = Vec::new();
        let mut now = 0;
        while got.len() < 8 {
            if pushed < 8 && c.can_push() {
                c.push_noc(Packet::on_canonical_vn(
                    Gid::chipset(NodeId(0)),
                    requester(),
                    Msg::MemRd { line: pushed * 64 },
                ))
                .unwrap();
                pushed += 1;
            }
            c.tick(now);
            while let Some(p) = c.pop_noc() {
                if let Msg::MemData { line, data } = p.msg {
                    assert_eq!(data.0[0], (line / 64) as u8);
                    got.push(line);
                }
            }
            now += 1;
            assert!(now < 5_000, "stuck");
        }
        assert_eq!(c.stats().get("memctl.rd"), 8);
    }

    #[test]
    fn latency_histogram_records_each_transaction() {
        let mut c = ctl();
        c.dram_mut().write_bytes(0x1000, &[1; 64]);
        c.push_noc(Packet::on_canonical_vn(
            Gid::chipset(NodeId(0)),
            requester(),
            Msg::MemRd { line: 0x1000 },
        ))
        .unwrap();
        let _ = run_until_resp(&mut c, 500);
        let mut data = LineData::zeroed();
        data.write(0, 8, 7);
        c.push_noc(Packet::on_canonical_vn(
            Gid::chipset(NodeId(0)),
            requester(),
            Msg::MemWr { line: 0x2000, data },
        ))
        .unwrap();
        for now in 500..1_000 {
            c.tick(now);
            if c.is_idle() {
                break;
            }
        }
        let latency = c.meters.histogram_of(c.slots.latency);
        assert_eq!(latency.count(), 2, "read and writeback both sampled");
        assert!(latency.min() > 0, "DRAM latency must be nonzero");
    }

    #[test]
    #[should_panic(expected = "non-memory message")]
    fn non_memory_message_panics() {
        let mut c = ctl();
        c.push_noc(Packet::on_canonical_vn(
            Gid::chipset(NodeId(0)),
            requester(),
            Msg::ReqS { line: 0 },
        ))
        .unwrap();
        for now in 0..10 {
            c.tick(now);
        }
    }
}

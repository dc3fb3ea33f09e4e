//! The inter-node bridge: NoC ↔ AXI4 encapsulation with credit-based flow
//! control (§3.1, Fig 4).

use std::collections::BTreeMap;

use smappic_axi::{AxiRead, AxiReadResp, AxiReq, AxiResp, AxiWrite, AxiWriteResp};
use smappic_noc::{NodeId, Packet};
use smappic_sim::{
    Cycle, MetricsRegistry, Port, Ring, SaveState, SnapReader, SnapWriter, Stats, TrafficShaper,
};

use crate::codec::{decode_packet, encode_packet};

/// Byte offset window each destination node owns in the bridge address
/// space (16 MiB per node; well under an FPGA's PCIe window).
pub const NODE_WINDOW: u64 = 1 << 24;

/// Bit set in the address of credit-return read requests (the paper's
/// "ar channel: request for credits return").
const CREDIT_FLAG: u64 = 1 << 4;

/// Encodes the bridge address carrying transfer info: destination node,
/// source node, and flags — Fig 4's "aw channel: transfer info".
pub fn bridge_addr(dst: NodeId, src: NodeId, credit_req: bool) -> u64 {
    (u64::from(dst.0) * NODE_WINDOW)
        | (u64::from(src.0) << 8)
        | if credit_req { CREDIT_FLAG } else { 0 }
}

/// Destination node encoded in a bridge address.
pub fn addr_dst(addr: u64) -> NodeId {
    NodeId((addr / NODE_WINDOW) as u16)
}

/// Source node encoded in a bridge address. The source field spans bits
/// 8..24 — the full `u16` node-id space — so rack-scale prototypes with
/// more than 256 nodes encode losslessly (the old 8-bit mask aliased node
/// 256 onto node 0 and broke credit returns).
pub fn addr_src(addr: u64) -> NodeId {
    NodeId(((addr >> 8) & 0xFFFF) as u16)
}

/// Initial send credits per destination node (receive-buffer slots the
/// peer guarantees).
const INITIAL_CREDITS: u32 = 32;
/// Below this many remaining credits the sender asks for returns.
const LOW_WATER: u32 = 12;

/// The inter-node bridge of one node.
///
/// **Send path**: NoC packets whose destination is another node are
/// encoded ([`encode_packet`]) into AXI4 write bursts whose address carries
/// dest/source node IDs; a [`TrafficShaper`] applies the §3.5 performance
/// model. Writes consume *credits*; when they run low the bridge issues an
/// AXI read to the peer, which answers with the number of freed slots —
/// deadlock-free flow control exactly as the paper describes.
///
/// **Receive path**: incoming writes are decoded back into NoC packets and
/// handed to the chipset; draining them frees credits reported on the next
/// credit read.
#[derive(Debug)]
pub struct InterNodeBridge {
    node: NodeId,
    shaper: TrafficShaper<AxiReq>,
    out_req: Port<AxiReq>,
    /// Packets blocked on credits, per destination node — unmetered
    /// micro-queues (the `bridge.credit_stall` counter already reports
    /// this congestion).
    blocked: BTreeMap<u16, Ring<Packet>>,
    credits: BTreeMap<u16, u32>,
    credit_req_outstanding: BTreeMap<u16, bool>,
    /// Freed receive slots per source node, returned on credit reads.
    freed: BTreeMap<u16, u32>,
    incoming: Port<Packet>,
    resp_for_peer: Port<(u16, AxiResp)>,
    next_id: u16,
    /// Outstanding credit reads: AXI id → destination node.
    pending_reads: BTreeMap<u16, u16>,
    stats: Stats,
}

impl InterNodeBridge {
    /// Creates the bridge for `node` with the given shaper parameters
    /// (`extra_latency` cycles, `bytes_per_cycle` bandwidth).
    pub fn new(node: NodeId, extra_latency: Cycle, bytes_per_cycle: u64) -> Self {
        Self {
            node,
            shaper: TrafficShaper::new(bytes_per_cycle.max(1), 1, extra_latency),
            out_req: Port::elastic_with("out_req", 8),
            blocked: BTreeMap::new(),
            credits: BTreeMap::new(),
            credit_req_outstanding: BTreeMap::new(),
            freed: BTreeMap::new(),
            incoming: Port::elastic_with("incoming", 8),
            resp_for_peer: Port::elastic_with("resp_for_peer", 8),
            next_id: 0,
            pending_reads: BTreeMap::new(),
            stats: Stats::new(),
        }
    }

    /// Counters (`bridge.sent`, `bridge.recv`, `bridge.credit_stall`).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Merges the bridge's port meters (AXI egress, decoded ingress, peer
    /// responses) into `m` under `port.{prefix}...`.
    pub fn merge_port_metrics(&self, prefix: &str, m: &mut MetricsRegistry) {
        self.out_req.meter().merge_into(prefix, m);
        self.incoming.meter().merge_into(prefix, m);
        self.resp_for_peer.meter().merge_into(prefix, m);
    }

    fn alloc_id(&mut self) -> u16 {
        loop {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            if !self.pending_reads.contains_key(&id) {
                return id;
            }
        }
    }

    /// Node side: sends a packet to another node. Always accepted; credits
    /// and shaping happen inside.
    pub fn send(&mut self, now: Cycle, pkt: Packet) {
        debug_assert_ne!(pkt.dst.node, self.node, "bridge only carries inter-node traffic");
        let dst = pkt.dst.node.0;
        let credits = self.credits.entry(dst).or_insert(INITIAL_CREDITS);
        if *credits == 0 || self.blocked.get(&dst).is_some_and(|q| !q.is_empty()) {
            self.blocked.entry(dst).or_default().push_back(pkt);
            self.stats.incr("bridge.credit_stall");
        } else {
            *credits -= 1;
            self.encode_and_ship(now, pkt);
        }
        self.maybe_request_credits(now);
    }

    fn encode_and_ship(&mut self, now: Cycle, pkt: Packet) {
        let bytes = encode_packet(&pkt);
        let addr = bridge_addr(pkt.dst.node, self.node, false);
        let wire = bytes.len() as u64;
        let req = AxiReq::Write(AxiWrite::new(addr, bytes, 0));
        self.shaper.push(now, wire, req);
        self.stats.incr("bridge.sent");
    }

    fn maybe_request_credits(&mut self, now: Cycle) {
        let dsts: Vec<u16> = self.credits.keys().copied().collect();
        for dst in dsts {
            let c = self.credits[&dst];
            let blocked = self.blocked.get(&dst).map_or(0, Ring::len);
            if (c < LOW_WATER || blocked > 0)
                && !self.credit_req_outstanding.get(&dst).copied().unwrap_or(false)
            {
                let id = self.alloc_id();
                self.pending_reads.insert(id, dst);
                self.credit_req_outstanding.insert(dst, true);
                let addr = bridge_addr(NodeId(dst), self.node, true);
                self.shaper.push(now, 8, AxiReq::Read(AxiRead::new(addr, 8, id)));
            }
        }
    }

    /// Node side: next packet received from a remote node.
    pub fn recv(&mut self) -> Option<Packet> {
        let pkt = self.incoming.pop()?;
        // Draining frees a receive slot: report it on the next credit read.
        *self.freed.entry(pkt.src.node.0).or_insert(0) += 1;
        Some(pkt)
    }

    /// AXI side: next outgoing request (after shaping), for the FPGA's
    /// crossbar. Addresses are bridge offsets; the FPGA adds the PCIe
    /// window when leaving the chip.
    pub fn axi_pop_req(&mut self, now: Cycle) -> Option<AxiReq> {
        if let Some(req) = self.shaper.pop_ready(now) {
            self.out_req.push(req);
        }
        self.out_req.pop()
    }

    /// AXI side: a request from a peer bridge arrives.
    pub fn axi_push_req(&mut self, _now: Cycle, req: AxiReq) {
        match req {
            AxiReq::Write(w) => {
                match decode_packet(&w.data) {
                    Some(pkt) => {
                        self.incoming.push(pkt);
                        self.stats.incr("bridge.recv");
                    }
                    None => self.stats.incr("bridge.decode_error"),
                }
                self.resp_for_peer.push((
                    addr_src(w.addr).0,
                    AxiResp::Write(AxiWriteResp { id: w.id, ok: true }),
                ));
            }
            AxiReq::Read(r) => {
                // Credit-return request: answer with freed slots.
                let src = addr_src(r.addr).0;
                let freed = self.freed.insert(src, 0).unwrap_or(0);
                self.resp_for_peer.push((
                    src,
                    AxiResp::Read(AxiReadResp {
                        id: r.id,
                        data: u64::from(freed).to_le_bytes().to_vec(),
                    }),
                ));
                self.stats.add("bridge.credits_returned", u64::from(freed));
            }
        }
    }

    /// AXI side: responses this bridge owes to peers (b-channel acks and
    /// r-channel credit returns), tagged with the peer node.
    pub fn axi_pop_resp_for_peer(&mut self) -> Option<(u16, AxiResp)> {
        self.resp_for_peer.pop()
    }

    /// AXI side: a response to one of our own requests arrives.
    pub fn axi_push_resp(&mut self, now: Cycle, resp: AxiResp) {
        match resp {
            AxiResp::Write(_) => {} // posted writes: acks are bookkeeping
            AxiResp::Read(r) => {
                let Some(dst) = self.pending_reads.remove(&r.id) else {
                    self.stats.incr("bridge.orphan_resp");
                    return;
                };
                self.credit_req_outstanding.insert(dst, false);
                let freed = r
                    .data
                    .get(..8)
                    .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")) as u32);
                let entry = self.credits.entry(dst).or_insert(0);
                *entry = (*entry + freed).min(INITIAL_CREDITS);
                // Release blocked packets with the new credits.
                while *self.credits.get(&dst).expect("entry exists") > 0 {
                    let Some(q) = self.blocked.get_mut(&dst) else { break };
                    let Some(pkt) = q.pop_front() else { break };
                    *self.credits.get_mut(&dst).expect("entry exists") -= 1;
                    self.encode_and_ship(now, pkt);
                }
                self.maybe_request_credits(now);
            }
        }
    }

    /// True when decoded packets from remote nodes are waiting for the
    /// chipset to collect via [`InterNodeBridge::recv`]. This is the only
    /// bridge channel the chipset's own tick drains (the FPGA pumps the
    /// AXI side every cycle regardless), so it is the exact per-cycle
    /// probe of the chipset's component sleep.
    pub fn has_incoming(&self) -> bool {
        !self.incoming.is_empty()
    }

    /// True when the FPGA's per-cycle AXI pump would move nothing at this
    /// bridge on cycle `now`: no queued egress request, no shaped request
    /// matured, and no response owed to a peer. Exact — under this
    /// predicate [`InterNodeBridge::axi_pop_req`] and
    /// [`InterNodeBridge::axi_pop_resp_for_peer`] return `None` with no
    /// side effects, so the pump may be skipped bit-identically.
    pub fn axi_quiet(&self, now: Cycle) -> bool {
        self.out_req.is_empty()
            && self.resp_for_peer.is_empty()
            && self.shaper.front_ready_at().is_none_or(|t| t > now)
    }

    /// When the next shaped request matures, if any — the cycle at which
    /// [`InterNodeBridge::axi_quiet`] stops holding on its own.
    pub fn next_axi_ready(&self) -> Option<Cycle> {
        self.shaper.front_ready_at()
    }

    /// True when nothing is queued or in flight at this bridge.
    pub fn is_idle(&self) -> bool {
        self.shaper.is_empty()
            && self.out_req.is_empty()
            && self.incoming.is_empty()
            && self.resp_for_peer.is_empty()
            && self.blocked.values().all(Ring::is_empty)
    }
}

impl SaveState for InterNodeBridge {
    fn save(&self, w: &mut SnapWriter) {
        // Every map is serialized in key order. The node id and shaper
        // timing are configuration.
        self.shaper.save(w);
        self.out_req.save(w);
        w.usize(self.blocked.len());
        for (&dst, ring) in &self.blocked {
            w.u16(dst);
            ring.save(w);
        }
        let u32_map = |w: &mut SnapWriter, m: &BTreeMap<u16, u32>| {
            w.usize(m.len());
            for (&k, &v) in m {
                w.u16(k);
                w.u32(v);
            }
        };
        u32_map(w, &self.credits);
        w.usize(self.credit_req_outstanding.len());
        for (&k, &v) in &self.credit_req_outstanding {
            w.u16(k);
            w.bool(v);
        }
        u32_map(w, &self.freed);
        self.incoming.save(w);
        self.resp_for_peer.save(w);
        w.u16(self.next_id);
        w.usize(self.pending_reads.len());
        for (&id, &dst) in &self.pending_reads {
            w.u16(id);
            w.u16(dst);
        }
        self.stats.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.shaper.restore(r);
        self.out_req.restore(r);
        self.blocked.clear();
        for _ in 0..r.usize() {
            if !r.ok() {
                break;
            }
            let dst = r.u16();
            let mut ring = Ring::default();
            ring.restore(r);
            self.blocked.insert(dst, ring);
        }
        let restore_u32_map = |r: &mut SnapReader, m: &mut BTreeMap<u16, u32>| {
            m.clear();
            for _ in 0..r.usize() {
                if !r.ok() {
                    break;
                }
                let k = r.u16();
                let v = r.u32();
                m.insert(k, v);
            }
        };
        restore_u32_map(r, &mut self.credits);
        self.credit_req_outstanding.clear();
        for _ in 0..r.usize() {
            if !r.ok() {
                break;
            }
            let k = r.u16();
            let v = r.bool();
            self.credit_req_outstanding.insert(k, v);
        }
        restore_u32_map(r, &mut self.freed);
        self.incoming.restore(r);
        self.resp_for_peer.restore(r);
        self.next_id = r.u16();
        self.pending_reads.clear();
        for _ in 0..r.usize() {
            if !r.ok() {
                break;
            }
            let id = r.u16();
            let dst = r.u16();
            self.pending_reads.insert(id, dst);
        }
        self.stats.restore(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smappic_noc::{Gid, Msg};

    fn pkt(dst: u16, src: u16, line: u64) -> Packet {
        Packet::on_canonical_vn(
            Gid::tile(NodeId(dst), 0),
            Gid::tile(NodeId(src), 0),
            Msg::ReqS { line },
        )
    }

    /// Wires two bridges back to back and pumps until quiescent.
    fn pump_pair(a: &mut InterNodeBridge, b: &mut InterNodeBridge, now: &mut Cycle, cycles: u64) {
        for _ in 0..cycles {
            while let Some(req) = a.axi_pop_req(*now) {
                b.axi_push_req(*now, req);
            }
            while let Some(req) = b.axi_pop_req(*now) {
                a.axi_push_req(*now, req);
            }
            while let Some((peer, resp)) = a.axi_pop_resp_for_peer() {
                assert_eq!(peer, 1);
                b.axi_push_resp(*now, resp);
            }
            while let Some((peer, resp)) = b.axi_pop_resp_for_peer() {
                assert_eq!(peer, 0);
                a.axi_push_resp(*now, resp);
            }
            *now += 1;
        }
    }

    #[test]
    fn address_encoding_roundtrips() {
        let a = bridge_addr(NodeId(3), NodeId(1), false);
        assert_eq!(addr_dst(a), NodeId(3));
        assert_eq!(addr_src(a), NodeId(1));
        assert_eq!(a & CREDIT_FLAG, 0);
        let c = bridge_addr(NodeId(2), NodeId(0), true);
        assert_ne!(c & CREDIT_FLAG, 0);
    }

    #[test]
    fn address_encoding_survives_wide_node_ids() {
        // Pinned regression: the source mask was 8 bits, so node 300's
        // credit-return requests looked like node 44's at rack scale.
        let a = bridge_addr(NodeId(4000), NodeId(300), true);
        assert_eq!(addr_dst(a), NodeId(4000));
        assert_eq!(addr_src(a), NodeId(300));
        assert_ne!(a & CREDIT_FLAG, 0);
        let b = bridge_addr(NodeId(1), NodeId(u16::MAX), false);
        assert_eq!(addr_src(b), NodeId(u16::MAX));
    }

    #[test]
    fn packet_crosses_bridges_intact() {
        let mut a = InterNodeBridge::new(NodeId(0), 0, 64);
        let mut b = InterNodeBridge::new(NodeId(1), 0, 64);
        let original = pkt(1, 0, 0x1040);
        let mut now = 0;
        a.send(now, original.clone());
        pump_pair(&mut a, &mut b, &mut now, 50);
        let got = b.recv().expect("delivered");
        assert_eq!(got, original);
    }

    #[test]
    fn shaper_latency_delays_delivery() {
        let mut a = InterNodeBridge::new(NodeId(0), 100, 64);
        let mut b = InterNodeBridge::new(NodeId(1), 0, 64);
        let mut now = 0;
        a.send(now, pkt(1, 0, 0x40));
        pump_pair(&mut a, &mut b, &mut now, 99);
        assert!(b.recv().is_none(), "must respect the 100-cycle shaper");
        pump_pair(&mut a, &mut b, &mut now, 10);
        assert!(b.recv().is_some());
    }

    #[test]
    fn credits_throttle_and_recover() {
        let mut a = InterNodeBridge::new(NodeId(0), 0, 1_000);
        let mut b = InterNodeBridge::new(NodeId(1), 0, 1_000);
        let mut now = 0;
        // Send 3x the credit budget without draining the receiver.
        let total = INITIAL_CREDITS * 3;
        for i in 0..total {
            a.send(now, pkt(1, 0, u64::from(i) * 64));
        }
        assert!(a.stats().get("bridge.credit_stall") > 0, "must hit the credit wall");
        // Pump while the receiver drains: all packets eventually arrive.
        let mut got = 0;
        for _ in 0..10_000 {
            pump_pair(&mut a, &mut b, &mut now, 1);
            while b.recv().is_some() {
                got += 1;
            }
            if got == total {
                break;
            }
        }
        assert_eq!(got, total, "credit recovery must release blocked packets");
        assert!(a.is_idle());
    }

    #[test]
    fn credit_read_ids_survive_two_u16_wraps() {
        let mut a = InterNodeBridge::new(NodeId(0), 0, 1_000);
        // Park three credit reads for the whole run: their ids (0..=2) stay
        // in `pending_reads`, so `alloc_id` must skip them at every wrap.
        let mut parked = Vec::new();
        for dst in [10u16, 11, 12] {
            let id = a.alloc_id();
            a.pending_reads.insert(id, dst);
            a.credit_req_outstanding.insert(dst, true);
            parked.push((id, dst));
        }
        // Keep the looping destinations above LOW_WATER so responses don't
        // trigger fresh credit reads of their own.
        for dst in 1..=3u16 {
            a.credits.insert(dst, INITIAL_CREDITS);
        }
        // 140k allocations: `next_id` crosses the u16 space twice while
        // the parked ids remain outstanding.
        for i in 0..140_000u64 {
            let dst = 1 + (i % 3) as u16;
            let id = a.alloc_id();
            assert!(
                !parked.iter().any(|&(p, _)| p == id),
                "iteration {i}: allocator reused a live id"
            );
            a.pending_reads.insert(id, dst);
            a.credit_req_outstanding.insert(dst, true);
            a.axi_push_resp(
                i,
                AxiResp::Read(AxiReadResp { id, data: 2u64.to_le_bytes().to_vec() }),
            );
            assert!(!a.pending_reads.contains_key(&id), "iteration {i}: response unmatched");
            assert!(!a.credit_req_outstanding[&dst], "iteration {i}: wrong destination");
        }
        assert_eq!(a.stats().get("bridge.orphan_resp"), 0);
        // The parked reads, answered after two full wraps, still credit
        // their own destinations.
        for (id, dst) in parked {
            a.axi_push_resp(
                0,
                AxiResp::Read(AxiReadResp {
                    id,
                    data: u64::from(INITIAL_CREDITS).to_le_bytes().to_vec(),
                }),
            );
            assert!(!a.credit_req_outstanding[&dst]);
            assert_eq!(a.credits[&dst], INITIAL_CREDITS);
        }
        assert!(a.pending_reads.is_empty());
    }

    #[test]
    fn per_destination_ordering_is_preserved() {
        let mut a = InterNodeBridge::new(NodeId(0), 5, 32);
        let mut b = InterNodeBridge::new(NodeId(1), 0, 32);
        let mut now = 0;
        for i in 0..100u64 {
            a.send(now, pkt(1, 0, i * 64));
        }
        let mut lines = Vec::new();
        for _ in 0..100_000 {
            pump_pair(&mut a, &mut b, &mut now, 1);
            while let Some(p) = b.recv() {
                if let Msg::ReqS { line } = p.msg {
                    lines.push(line / 64);
                }
            }
            if lines.len() == 100 {
                break;
            }
        }
        assert_eq!(lines, (0..100).collect::<Vec<_>>());
    }
}

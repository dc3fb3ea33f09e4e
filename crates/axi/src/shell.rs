//! The AWS F1 Hard Shell model: the fixed partition between Custom Logic
//! and the outside world.

use std::collections::BTreeMap;

use smappic_sim::{Cycle, MetricsRegistry, Pack, Port, SaveState, SnapReader, SnapWriter, Stats};

use crate::pcie::PcieItem;
use crate::txn::{AxiReq, AxiResp};

/// Where the Hard Shell steers an outbound request.
///
/// §2.1: *"Depending on the target address, the outbound AXI4 request is
/// routed to one of the FPGAs connected to the host or to the host
/// itself."*
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShellRoute {
    /// Peer FPGA `i` in the same F1 instance (0-based global FPGA index).
    Fpga(usize),
    /// The host CPU's PCIe address space.
    Host,
}

/// Retry backoff ceiling for the inbound guard, in cycles. Reaching the
/// ceiling counts one `shell.guard_timeout` per stall episode; retries
/// continue (giving up would drop data — livelock is the Watchdog's job
/// to report).
const GUARD_BACKOFF_CAP: Cycle = 32;

/// Per-peer state of the inbound fault guard: a reorder buffer keyed by
/// link sequence number plus the retry/backoff state for deliveries the
/// full inbound FIFO rejected.
#[derive(Debug, Default)]
struct PeerStream {
    /// Next sequence number to hand to Custom Logic.
    expected: u64,
    /// Arrived-but-not-delivered items (out-of-order or FIFO-blocked).
    pending: BTreeMap<u64, PcieItem>,
    /// When set, the head item hit a full FIFO; retry at this cycle.
    retry_at: Option<Cycle>,
    /// Current backoff; doubles per failed retry up to [`GUARD_BACKOFF_CAP`].
    backoff: Cycle,
    /// Whether this stall episode already counted `shell.guard_timeout`.
    timed_out: bool,
}

/// The inbound fault guard: per-peer streams, keyed by peer FPGA index.
/// BTreeMap so pump order is deterministic across runs and steppers.
#[derive(Debug, Default)]
struct Guard {
    streams: BTreeMap<usize, PeerStream>,
}

/// The Hard Shell of one FPGA.
///
/// The shell owns the PCIe address map: each FPGA in the instance gets a
/// window ([`HardShell::fpga_window`]); everything else is host space.
/// Custom Logic pushes outbound requests ([`HardShell::cl_push_outbound`])
/// and the platform drains them ([`HardShell::pop_outbound`]) into PCIe
/// links; traffic arriving from links is pushed inbound and the CL drains
/// it. Response paths mirror the request paths.
///
/// # Inbound fault guard
///
/// With [`HardShell::enable_guard`] on, PCIe deliveries enter through
/// [`HardShell::push_sequenced`] instead of the raw push methods. The guard
/// restores each peer's send order from the [`crate::Flight`] sequence
/// numbers (undoing fault-injected reordering), drops duplicate copies,
/// and — where the raw path would drop an item on a full inbound FIFO —
/// holds it and retries with exponential backoff from
/// [`HardShell::pump_guard`]. Downstream of the guard, Custom Logic sees
/// exactly the clean run's traffic: timing faults never become value or
/// ordering faults.
#[derive(Debug)]
pub struct HardShell {
    fpga_index: usize,
    /// Number of FPGAs on the platform: the routable peer-window range.
    /// Configuration, not state (set at construction, never serialized).
    /// Defaults to 8 — the pre-rack hardcoded cap, kept as the default so
    /// shells built outside a `Platform` behave as before.
    fpga_count: usize,
    outbound_req: Port<AxiReq>,
    outbound_resp: Port<(usize, AxiResp)>,
    inbound_req: Port<AxiReq>,
    inbound_resp: Port<AxiResp>,
    /// Inbound-request ID remap: shell id → (source peer, original id).
    /// Two peers may use colliding IDs; the shell, like the real XDMA
    /// bridge, keeps per-source context to route completions back.
    inbound_ids: BTreeMap<u16, (usize, u16)>,
    next_inbound_id: u16,
    guard: Option<Guard>,
    stats: Stats,
}

/// Size of each FPGA's PCIe window (64 GiB, matching F1's per-card DRAM).
pub const FPGA_WINDOW_SIZE: u64 = 1 << 36;

/// Base of the FPGA windows in the PCIe address map.
pub const FPGA_WINDOW_BASE: u64 = 0x8000_0000_0000;

impl HardShell {
    /// Creates the shell for global FPGA index `fpga_index`.
    pub fn new(fpga_index: usize) -> Self {
        Self {
            fpga_index,
            fpga_count: 8,
            outbound_req: Port::bounded("outbound_req", 32),
            outbound_resp: Port::bounded("outbound_resp", 32),
            inbound_req: Port::bounded("inbound_req", 32),
            inbound_resp: Port::bounded("inbound_resp", 32),
            inbound_ids: BTreeMap::new(),
            next_inbound_id: 0,
            guard: None,
            stats: Stats::new(),
        }
    }

    /// Turns on the inbound fault guard (idempotent; existing streams are
    /// kept). Required before [`HardShell::push_sequenced`].
    pub fn enable_guard(&mut self) {
        if self.guard.is_none() {
            self.guard = Some(Guard::default());
        }
    }

    /// Whether the inbound fault guard is active.
    pub fn guard_enabled(&self) -> bool {
        self.guard.is_some()
    }

    /// Delivers a PCIe flight from peer `from` through the fault guard.
    /// Never rejects: duplicates are dropped (`shell.guard_dup`),
    /// out-of-order arrivals buffered (`shell.guard_ooo`), and FIFO-blocked
    /// deliveries retried from [`HardShell::pump_guard`].
    ///
    /// # Panics
    ///
    /// Panics if the guard was not enabled.
    pub fn push_sequenced(&mut self, now: Cycle, from: usize, seq: u64, item: PcieItem) {
        let mut guard = self.guard.take().expect("push_sequenced requires enable_guard");
        let stream = guard.streams.entry(from).or_default();
        if seq < stream.expected || stream.pending.contains_key(&seq) {
            self.stats.incr("shell.guard_dup");
        } else {
            if seq > stream.expected {
                self.stats.incr("shell.guard_ooo");
            }
            stream.pending.insert(seq, item);
            // Respect an in-progress backoff: pump_guard owns the retry.
            if stream.retry_at.is_none() {
                self.deliver_ready(stream, from, now);
            }
        }
        self.guard = Some(guard);
    }

    /// Retries FIFO-blocked guard deliveries whose backoff has elapsed.
    /// Call once per cycle (both steppers tick the owning FPGA every
    /// simulated cycle, so retry timing is identical under each).
    pub fn pump_guard(&mut self, now: Cycle) {
        let Some(mut guard) = self.guard.take() else { return };
        for (&from, stream) in guard.streams.iter_mut() {
            if stream.retry_at.is_some_and(|t| t <= now) {
                self.deliver_ready(stream, from, now);
            }
        }
        self.guard = Some(guard);
    }

    /// Cascades in-order deliveries for one peer stream until the next
    /// expected item is missing or the inbound FIFO refuses it.
    fn deliver_ready(&mut self, stream: &mut PeerStream, from: usize, now: Cycle) {
        loop {
            let Some(item) = stream.pending.remove(&stream.expected) else {
                stream.retry_at = None;
                break;
            };
            let rejected = match item {
                PcieItem::Req(r) => self.push_inbound(from, r).err().map(PcieItem::Req),
                PcieItem::Resp(r) => self.push_inbound_resp(r).err().map(PcieItem::Resp),
            };
            match rejected {
                None => {
                    stream.expected += 1;
                    stream.retry_at = None;
                    stream.backoff = 0;
                    stream.timed_out = false;
                }
                Some(item) => {
                    stream.pending.insert(stream.expected, item);
                    stream.backoff = if stream.backoff == 0 {
                        1
                    } else {
                        (stream.backoff * 2).min(GUARD_BACKOFF_CAP)
                    };
                    if stream.backoff == GUARD_BACKOFF_CAP && !stream.timed_out {
                        stream.timed_out = true;
                        self.stats.incr("shell.guard_timeout");
                    }
                    stream.retry_at = Some(now + stream.backoff);
                    self.stats.incr("shell.guard_retry");
                    break;
                }
            }
        }
    }

    /// The PCIe window base address of FPGA `f`.
    pub fn fpga_window(f: usize) -> u64 {
        FPGA_WINDOW_BASE + (f as u64) * FPGA_WINDOW_SIZE
    }

    /// Translates an address within FPGA `f`'s window back to a local
    /// address, if it falls in that window.
    pub fn window_offset(f: usize, addr: u64) -> Option<u64> {
        let base = Self::fpga_window(f);
        (addr >= base && addr < base + FPGA_WINDOW_SIZE).then(|| addr - base)
    }

    /// Sets the platform's FPGA count, widening (or narrowing) the range
    /// of peer windows [`HardShell::route`] resolves. The pre-rack shell
    /// hardcoded `f < 8` here, silently routing peers ≥ 8 to the host on
    /// larger platforms.
    pub fn set_fpga_count(&mut self, count: usize) {
        self.fpga_count = count;
    }

    /// Routing decision for an outbound address.
    pub fn route(&self, addr: u64) -> ShellRoute {
        if addr >= FPGA_WINDOW_BASE {
            let f = ((addr - FPGA_WINDOW_BASE) / FPGA_WINDOW_SIZE) as usize;
            if f < self.fpga_count && f != self.fpga_index {
                return ShellRoute::Fpga(f);
            }
        }
        ShellRoute::Host
    }

    /// This shell's global FPGA index.
    pub fn fpga_index(&self) -> usize {
        self.fpga_index
    }

    /// Custom Logic submits an outbound request.
    pub fn cl_push_outbound(&mut self, req: AxiReq) -> Result<(), AxiReq> {
        self.outbound_req.try_push(req)
    }

    /// True when the CL may push an outbound request.
    pub fn cl_can_push(&self) -> bool {
        !self.outbound_req.is_full()
    }

    /// True when a response can be accepted this cycle.
    pub fn cl_can_push_resp(&self) -> bool {
        !self.outbound_resp.is_full()
    }

    /// Custom Logic submits a response to an inbound request; the shell
    /// restores the peer's original ID and remembers which link to answer.
    pub fn cl_push_resp(&mut self, resp: AxiResp) -> Result<(), AxiResp> {
        let Some((peer, orig)) = self.inbound_ids.remove(&resp.id()) else {
            return Err(resp); // response to an unknown inbound request
        };
        self.outbound_resp.try_push((peer, resp.with_id(orig))).map_err(|(_, r)| r)
    }

    /// Custom Logic collects the next inbound request.
    pub fn cl_pop_inbound(&mut self) -> Option<AxiReq> {
        self.inbound_req.pop()
    }

    /// Custom Logic collects the next response to its outbound requests.
    pub fn cl_pop_resp(&mut self) -> Option<AxiResp> {
        self.inbound_resp.pop()
    }

    /// Platform drains the next outbound request with its routing decision.
    pub fn pop_outbound(&mut self) -> Option<(ShellRoute, AxiReq)> {
        let req = self.outbound_req.pop()?;
        let route = self.route(req.addr());
        self.stats.incr("shell.out_req");
        Some((route, req))
    }

    /// Platform drains the next outbound response (answering a peer's
    /// inbound request), tagged with the peer FPGA to send it to.
    pub fn pop_outbound_resp(&mut self) -> Option<(usize, AxiResp)> {
        self.outbound_resp.pop()
    }

    /// Platform delivers a request arriving over PCIe from peer FPGA
    /// `from`. The shell remaps the transaction ID so concurrent peers
    /// cannot collide.
    pub fn push_inbound(&mut self, from: usize, req: AxiReq) -> Result<(), AxiReq> {
        if self.inbound_req.is_full() {
            return Err(req);
        }
        let orig = req.id();
        let id = loop {
            let id = self.next_inbound_id;
            self.next_inbound_id = self.next_inbound_id.wrapping_add(1);
            if !self.inbound_ids.contains_key(&id) {
                break id;
            }
        };
        self.inbound_ids.insert(id, (from, orig));
        self.stats.incr("shell.in_req");
        self.inbound_req.try_push(req.with_id(id)).map_err(|r| {
            self.inbound_ids.remove(&id);
            r.with_id(orig)
        })
    }

    /// Platform delivers a response arriving over PCIe.
    pub fn push_inbound_resp(&mut self, resp: AxiResp) -> Result<(), AxiResp> {
        self.inbound_resp.try_push(resp)
    }

    /// Counters (`shell.out_req`, `shell.in_req`).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Merges every port meter into `m` under `port.<prefix>.<name>.*`.
    pub fn merge_port_metrics(&self, prefix: &str, m: &mut MetricsRegistry) {
        self.outbound_req.meter().merge_into(prefix, m);
        self.outbound_resp.meter().merge_into(prefix, m);
        self.inbound_req.meter().merge_into(prefix, m);
        self.inbound_resp.meter().merge_into(prefix, m);
    }

    /// True when Custom Logic's per-cycle drain would move nothing: no
    /// inbound request or response is queued for the CL side. Outbound
    /// queues and the guard are irrelevant to the CL drain loops.
    pub fn cl_quiet(&self) -> bool {
        self.inbound_req.is_empty() && self.inbound_resp.is_empty()
    }

    /// True when neither the per-cycle CL drain, the platform's PCIe
    /// outbound pump, nor the guard's retry pump would move anything —
    /// and, since the shell holds no timed state of its own, would keep
    /// moving nothing until external traffic arrives. Outstanding inbound
    /// IDs are allowed: their responses arrive from the crossbar side.
    pub fn warp_quiet_ok(&self) -> bool {
        self.cl_quiet()
            && self.outbound_req.is_empty()
            && self.outbound_resp.is_empty()
            && self.guard.as_ref().is_none_or(|g| {
                g.streams.values().all(|s| s.pending.is_empty() && s.retry_at.is_none())
            })
    }

    /// True when all queues are empty, no inbound request awaits its
    /// response, and the fault guard holds no undelivered items.
    pub fn is_idle(&self) -> bool {
        self.outbound_req.is_empty()
            && self.outbound_resp.is_empty()
            && self.inbound_req.is_empty()
            && self.inbound_resp.is_empty()
            && self.inbound_ids.is_empty()
            && self.guard.as_ref().is_none_or(|g| g.streams.values().all(|s| s.pending.is_empty()))
    }
}

impl SaveState for HardShell {
    fn save(&self, w: &mut SnapWriter) {
        self.outbound_req.save(w);
        self.outbound_resp.save(w);
        self.inbound_req.save(w);
        self.inbound_resp.save(w);
        w.usize(self.inbound_ids.len());
        for (&id, &(peer, orig)) in &self.inbound_ids {
            w.u16(id);
            w.usize(peer);
            w.u16(orig);
        }
        w.u16(self.next_inbound_id);
        match &self.guard {
            None => w.bool(false),
            Some(g) => {
                w.bool(true);
                w.usize(g.streams.len());
                for (&from, s) in &g.streams {
                    w.usize(from);
                    w.u64(s.expected);
                    w.usize(s.pending.len());
                    for (&seq, item) in &s.pending {
                        w.u64(seq);
                        item.pack(w);
                    }
                    s.retry_at.pack(w);
                    w.u64(s.backoff);
                    w.bool(s.timed_out);
                }
            }
        }
        self.stats.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.outbound_req.restore(r);
        self.outbound_resp.restore(r);
        self.inbound_req.restore(r);
        self.inbound_resp.restore(r);
        self.inbound_ids.clear();
        let n = r.usize();
        for _ in 0..n {
            if !r.ok() {
                break;
            }
            let id = r.u16();
            let peer = r.usize();
            let orig = r.u16();
            self.inbound_ids.insert(id, (peer, orig));
        }
        self.next_inbound_id = r.u16();
        if r.bool() {
            let mut guard = Guard::default();
            let n = r.usize();
            for _ in 0..n {
                if !r.ok() {
                    break;
                }
                let from = r.usize();
                let mut s = PeerStream { expected: r.u64(), ..PeerStream::default() };
                let pending = r.usize();
                for _ in 0..pending {
                    if !r.ok() {
                        break;
                    }
                    let seq = r.u64();
                    s.pending.insert(seq, PcieItem::unpack(r));
                }
                s.retry_at = Option::<Cycle>::unpack(r);
                s.backoff = r.u64();
                s.timed_out = r.bool();
                guard.streams.insert(from, s);
            }
            self.guard = Some(guard);
        } else {
            self.guard = None;
        }
        self.stats.restore(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::AxiRead;

    #[test]
    fn windows_do_not_overlap() {
        for f in 0..8 {
            let base = HardShell::fpga_window(f);
            assert_eq!(HardShell::window_offset(f, base), Some(0));
            assert_eq!(
                HardShell::window_offset(f, base + FPGA_WINDOW_SIZE - 1),
                Some(FPGA_WINDOW_SIZE - 1)
            );
            if f > 0 {
                assert_eq!(HardShell::window_offset(f, base - 1), None);
            }
        }
    }

    #[test]
    fn routes_by_window() {
        let shell = HardShell::new(1);
        assert_eq!(shell.route(HardShell::fpga_window(0) + 0x40), ShellRoute::Fpga(0));
        assert_eq!(shell.route(HardShell::fpga_window(3)), ShellRoute::Fpga(3));
        // Addresses below the FPGA windows go to the host.
        assert_eq!(shell.route(0x1000), ShellRoute::Host);
        // The shell's own window also resolves to Host (loopback is not a
        // thing on F1; a request to yourself is a software bug surfaced to
        // the host).
        assert_eq!(shell.route(HardShell::fpga_window(1)), ShellRoute::Host);
    }

    #[test]
    fn routes_every_peer_window_at_rack_scale() {
        // Pinned regression: route() hardcoded `f < 8`, so on a 64-FPGA
        // platform every request to peers 8..63 silently went to the host.
        let mut shell = HardShell::new(1);
        assert_eq!(
            shell.route(HardShell::fpga_window(63)),
            ShellRoute::Host,
            "default shells keep the pre-rack 8-window range"
        );
        shell.set_fpga_count(64);
        assert_eq!(shell.route(HardShell::fpga_window(8)), ShellRoute::Fpga(8));
        assert_eq!(shell.route(HardShell::fpga_window(63) + 0x40), ShellRoute::Fpga(63));
        // One past the platform still resolves to the host.
        assert_eq!(shell.route(HardShell::fpga_window(64)), ShellRoute::Host);
        assert_eq!(shell.route(HardShell::fpga_window(1)), ShellRoute::Host);
    }

    #[test]
    fn outbound_flow() {
        let mut shell = HardShell::new(0);
        shell
            .cl_push_outbound(AxiReq::Read(AxiRead::new(HardShell::fpga_window(2) + 8, 8, 1)))
            .unwrap();
        let (route, req) = shell.pop_outbound().unwrap();
        assert_eq!(route, ShellRoute::Fpga(2));
        assert_eq!(req.id(), 1);
        assert!(shell.is_idle());
    }

    #[test]
    fn inbound_requests_are_remapped_and_answered_to_their_link() {
        use crate::txn::AxiReadResp;
        let mut shell = HardShell::new(0);
        // Two peers use the same transaction ID 9.
        shell.push_inbound(2, AxiReq::Read(AxiRead::new(0x40, 8, 9))).unwrap();
        shell.push_inbound(3, AxiReq::Read(AxiRead::new(0x80, 8, 9))).unwrap();
        let a = shell.cl_pop_inbound().unwrap();
        let b = shell.cl_pop_inbound().unwrap();
        assert_ne!(a.id(), b.id(), "shell must de-collide peer IDs");
        // Answer in reverse order; responses carry the right peer + ID.
        shell.cl_push_resp(AxiResp::Read(AxiReadResp { id: b.id(), data: vec![2] })).unwrap();
        shell.cl_push_resp(AxiResp::Read(AxiReadResp { id: a.id(), data: vec![1] })).unwrap();
        let (to_b, rb) = shell.pop_outbound_resp().unwrap();
        let (to_a, ra) = shell.pop_outbound_resp().unwrap();
        assert_eq!((to_b, rb.id()), (3, 9));
        assert_eq!((to_a, ra.id()), (2, 9));
        assert!(shell.is_idle());
    }

    fn read_item(addr: u64, id: u16) -> PcieItem {
        PcieItem::Req(AxiReq::Read(AxiRead::new(addr, 8, id)))
    }

    #[test]
    fn guard_restores_send_order_and_drops_duplicates() {
        let mut shell = HardShell::new(0);
        shell.enable_guard();
        // Scrambled arrival: 2, 0, dup 0, 1 — CL must see 0, 1, 2.
        shell.push_sequenced(10, 1, 2, read_item(0x200, 2));
        shell.push_sequenced(11, 1, 0, read_item(0x000, 0));
        shell.push_sequenced(12, 1, 0, read_item(0x000, 0));
        shell.push_sequenced(13, 1, 1, read_item(0x100, 1));
        let addrs: Vec<u64> =
            std::iter::from_fn(|| shell.cl_pop_inbound()).map(|r| r.addr()).collect();
        assert_eq!(addrs, vec![0x000, 0x100, 0x200]);
        assert_eq!(shell.stats().get("shell.guard_dup"), 1);
        assert_eq!(shell.stats().get("shell.guard_ooo"), 1);
    }

    #[test]
    fn guard_retries_when_inbound_fifo_is_full() {
        let mut shell = HardShell::new(0);
        shell.enable_guard();
        // Fill the 32-deep inbound FIFO through the guard.
        for i in 0..33u64 {
            shell.push_sequenced(0, 1, i, read_item(i * 8, i as u16));
        }
        assert!(!shell.is_idle(), "33rd item must be held, not dropped");
        assert!(shell.stats().get("shell.guard_retry") >= 1);
        // CL drains one; the held item lands on a later pump.
        assert!(shell.cl_pop_inbound().is_some());
        for now in 1..200 {
            shell.pump_guard(now);
        }
        let mut drained = 1;
        while shell.cl_pop_inbound().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 33, "every item must eventually be delivered");
    }

    #[test]
    fn snapshot_round_trip_preserves_guard_and_id_state() {
        use smappic_sim::Snapshot;

        let mut original = HardShell::new(0);
        original.enable_guard();
        // Outstanding inbound request (populates inbound_ids) plus an
        // out-of-order guard arrival (populates a pending stream).
        original.push_sequenced(0, 1, 0, read_item(0x000, 9));
        original.push_sequenced(1, 1, 2, read_item(0x200, 2));
        let mut w = SnapWriter::new();
        w.scoped("shell", |w| original.save(w));
        let snap = Snapshot::new(1, 2, w);

        let mut restored = HardShell::new(0);
        restored.enable_guard();
        let mut r = SnapReader::new(&snap);
        r.scoped("shell", |r| restored.restore(r));
        r.finish().expect("clean restore");

        // The missing seq 1 arrives at both: delivery cascades identically.
        original.push_sequenced(2, 1, 1, read_item(0x100, 1));
        restored.push_sequenced(2, 1, 1, read_item(0x100, 1));
        loop {
            let (a, b) = (original.cl_pop_inbound(), restored.cl_pop_inbound());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // Answering the first request routes to the same peer with the
        // original ID restored in both.
        use crate::txn::AxiReadResp;
        let id = 0; // first remapped inbound id
        original.cl_push_resp(AxiResp::Read(AxiReadResp { id, data: vec![1] })).unwrap();
        restored.cl_push_resp(AxiResp::Read(AxiReadResp { id, data: vec![1] })).unwrap();
        assert_eq!(original.pop_outbound_resp(), restored.pop_outbound_resp());
    }

    #[test]
    fn inbound_id_remap_survives_two_u16_wraps() {
        use crate::txn::AxiReadResp;
        let mut shell = HardShell::new(0);
        // Park five requests from peer 7 for the whole run: their shell ids
        // (0..=4) stay live in the remap table, so the allocator must skip
        // them every time `next_inbound_id` wraps past zero.
        let mut parked = Vec::new();
        for i in 0..5u16 {
            shell
                .push_inbound(7, AxiReq::Read(AxiRead::new(0x7000 + u64::from(i) * 8, 8, 1000 + i)))
                .unwrap();
            parked.push(shell.cl_pop_inbound().unwrap().id());
        }
        // 140k iterations x 2 allocations: the id counter crosses the u16
        // space four times while colliding original ids are in play.
        for i in 0..140_000u64 {
            let orig = (i % 65_536) as u16;
            shell.push_inbound(2, AxiReq::Read(AxiRead::new(0x2000, 8, orig))).unwrap();
            shell.push_inbound(3, AxiReq::Read(AxiRead::new(0x3000, 8, orig))).unwrap();
            let a = shell.cl_pop_inbound().unwrap();
            let b = shell.cl_pop_inbound().unwrap();
            assert_ne!(a.id(), b.id(), "iteration {i}: remap collided");
            assert!(
                !parked.contains(&a.id()) && !parked.contains(&b.id()),
                "iteration {i}: allocator reused a live id"
            );
            // Answer in reverse order; each response must route back to its
            // own peer with the original id restored.
            shell.cl_push_resp(AxiResp::Read(AxiReadResp { id: b.id(), data: vec![3] })).unwrap();
            shell.cl_push_resp(AxiResp::Read(AxiReadResp { id: a.id(), data: vec![2] })).unwrap();
            let (to_b, rb) = shell.pop_outbound_resp().unwrap();
            let (to_a, ra) = shell.pop_outbound_resp().unwrap();
            assert_eq!((to_b, rb.id()), (3, orig), "iteration {i}: misrouted");
            assert_eq!((to_a, ra.id()), (2, orig), "iteration {i}: misrouted");
        }
        // The parked requests still answer correctly after four full wraps.
        for (i, id) in parked.into_iter().enumerate() {
            shell.cl_push_resp(AxiResp::Read(AxiReadResp { id, data: vec![9] })).unwrap();
            let (peer, resp) = shell.pop_outbound_resp().unwrap();
            assert_eq!((peer, resp.id()), (7, 1000 + i as u16));
        }
        assert!(shell.is_idle());
    }

    #[test]
    fn guard_in_order_path_is_transparent() {
        // In-order, no-fault traffic through the guard must behave exactly
        // like the raw push path (same-cycle delivery, no counters).
        let mut guarded = HardShell::new(0);
        guarded.enable_guard();
        let mut raw = HardShell::new(0);
        for i in 0..4u64 {
            guarded.push_sequenced(i, 2, i, read_item(i * 8, i as u16));
            let PcieItem::Req(req) = read_item(i * 8, i as u16) else { unreachable!() };
            raw.push_inbound(2, req).unwrap();
        }
        loop {
            let (g, r) = (guarded.cl_pop_inbound(), raw.cl_pop_inbound());
            assert_eq!(g, r);
            if g.is_none() {
                break;
            }
        }
        assert_eq!(guarded.stats().get("shell.guard_dup"), 0);
        assert_eq!(guarded.stats().get("shell.guard_retry"), 0);
    }
}

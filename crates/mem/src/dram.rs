//! Sparse copy-on-write DRAM with a latency + bandwidth performance model.

use std::collections::HashMap;
use std::sync::Arc;

use smappic_axi::{AxiReadResp, AxiReq, AxiResp, AxiWriteResp};
use smappic_sim::{
    meter_slots, Cycle, FaultInjector, Meters, MetersBuilder, Pack, SaveState, SnapReader,
    SnapWriter, Stats, TrafficShaper,
};

/// log2 of the backing-page size.
pub const PAGE_SHIFT: u32 = 12;
/// Granularity of DRAM backing allocation: 4 KiB pages.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A shared, copy-on-write backing page. Cloning the handle is O(1);
/// writes go through `Arc::make_mut`, copying only when the page is
/// actually shared — so a boot image broadcast to 64 nodes costs one
/// physical copy until a node dirties its view.
pub type DramPage = Arc<[u8; PAGE_SIZE]>;

/// Timing parameters of one DRAM channel.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Fixed access latency in cycles (Table 2 default: 80).
    pub latency: Cycle,
    /// Bandwidth in bytes per cycle (DDR4-2400 at a 100 MHz fabric clock is
    /// generously above this; 32 B/cycle keeps the shaper meaningful).
    pub bytes_per_cycle: u64,
    /// Capacity in bytes (F1 cards carry 64 GiB across 4 channels; one
    /// channel default is 16 GiB).
    pub capacity: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self { latency: 80, bytes_per_cycle: 32, capacity: 16 << 30 }
    }
}

meter_slots! {
    /// The channel's counters.
    struct DramMeters {
        req: counter("dram.req"),
        bytes: counter("dram.bytes"),
        spike: counter("dram.spike"),
        oob: counter("dram.oob"),
    }
}

/// One DRAM channel: a sparse byte store behind an AXI4 slave interface.
///
/// Pages are allocated on first touch and read back as zeroes before that,
/// like freshly trained DDR, so host memory scales with *touched* pages,
/// not configured capacity. The functional backdoor
/// ([`Dram::write_bytes`]/[`Dram::read_bytes`]) is used by the host model to
/// load programs and disk images without consuming simulated time.
///
/// ```
/// use smappic_mem::Dram;
/// let mut d = Dram::default();
/// d.write_bytes(0x1000, &[1, 2, 3]);
/// assert_eq!(d.read_bytes(0x0FFF, 5), vec![0, 1, 2, 3, 0]);
/// ```
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    pages: HashMap<u64, DramPage>,
    pending: TrafficShaper<AxiReq>,
    responses: Vec<AxiResp>,
    faults: Option<FaultInjector>,
    /// Requests accepted so far; the per-request sequence number feeding
    /// the fault injector's spike decision.
    req_seq: u64,
    meters: Meters,
    slots: DramMeters,
}

impl Dram {
    /// Creates a DRAM channel with the given timing.
    pub fn new(cfg: DramConfig) -> Self {
        let pending = TrafficShaper::new(cfg.bytes_per_cycle, 1, cfg.latency);
        let mut meters = MetersBuilder::new();
        Self {
            cfg,
            pages: HashMap::new(),
            pending,
            responses: Vec::new(),
            faults: None,
            req_seq: 0,
            slots: DramMeters::register(&mut meters),
            meters: meters.build(),
        }
    }

    /// Installs a fault injector that adds latency spikes (e.g. a refresh
    /// storm or a row-buffer pathological pattern) to individual requests.
    /// The channel stays FIFO, so a spiked request also delays its
    /// followers — a pure timing fault. Spiked requests count as
    /// `dram.spike`.
    pub fn set_faults(&mut self, inj: FaultInjector) {
        self.faults = Some(inj);
    }

    /// The configured timing parameters.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Functional write, bypassing timing (host/backdoor use). Allocates
    /// page-granularly on first touch, copy-on-write when the page is
    /// shared, and elides allocation entirely when an all-zero chunk lands
    /// on an untouched page (zeroing fresh DDR is a no-op).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut off = 0usize;
        while off < bytes.len() {
            let a = addr + off as u64;
            let in_page = (a & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk_len = (PAGE_SIZE - in_page).min(bytes.len() - off);
            let chunk = &bytes[off..off + chunk_len];
            let idx = a >> PAGE_SHIFT;
            match self.pages.get_mut(&idx) {
                Some(page) => {
                    Arc::make_mut(page)[in_page..in_page + chunk_len].copy_from_slice(chunk)
                }
                None if chunk.iter().all(|&b| b == 0) => {}
                None => {
                    let mut page = [0u8; PAGE_SIZE];
                    page[in_page..in_page + chunk_len].copy_from_slice(chunk);
                    self.pages.insert(idx, Arc::new(page));
                }
            }
            off += chunk_len;
        }
    }

    /// Functional read, bypassing timing. Untouched bytes read as zero.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut off = 0usize;
        while off < len {
            let a = addr + off as u64;
            let in_page = (a & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk_len = (PAGE_SIZE - in_page).min(len - off);
            if let Some(page) = self.pages.get(&(a >> PAGE_SHIFT)) {
                out[off..off + chunk_len].copy_from_slice(&page[in_page..in_page + chunk_len]);
            }
            off += chunk_len;
        }
        out
    }

    /// Shares every resident page as a cheap copy-on-write handle. The
    /// broadcast-load primitive: install the handles into sibling channels
    /// with [`Dram::install_page`] and all of them back the image with one
    /// physical copy until somebody writes.
    pub fn share_resident_pages(&self) -> Vec<(u64, DramPage)> {
        let mut out: Vec<(u64, DramPage)> =
            self.pages.iter().map(|(&idx, p)| (idx, Arc::clone(p))).collect();
        out.sort_unstable_by_key(|&(idx, _)| idx);
        out
    }

    /// Installs a shared page at page index `idx` (guest address
    /// `idx * PAGE_SIZE`), aliasing the handle: O(1), copy-on-write on
    /// later writes.
    pub fn install_page(&mut self, idx: u64, page: &DramPage) {
        self.pages.insert(idx, Arc::clone(page));
    }

    /// Submits an AXI request; the response appears after the modeled
    /// latency and serialization delay.
    ///
    /// Requests beyond the configured capacity complete with an error
    /// response (`ok == false` / empty data) and are counted in
    /// `dram.oob`.
    pub fn push_req(&mut self, now: Cycle, req: AxiReq) {
        let bytes = match &req {
            AxiReq::Read(r) => u64::from(r.len),
            AxiReq::Write(w) => w.data.len() as u64,
        };
        self.meters.incr(self.slots.req);
        self.meters.add(self.slots.bytes, bytes);
        let seq = self.req_seq;
        self.req_seq += 1;
        let mut at = now;
        if let Some(inj) = &self.faults {
            let extra = inj.extra_latency(seq);
            if extra > 0 {
                self.meters.incr(self.slots.spike);
                // Pushing at an inflated `now` delays this request by
                // `extra`; the shaper's monotone link-free time keeps the
                // channel FIFO, so later requests queue behind the spike.
                at += extra;
            }
        }
        self.pending.push(at, bytes.max(8), req);
    }

    /// Collects the next completed response, if any.
    pub fn pop_resp(&mut self, now: Cycle) -> Option<AxiResp> {
        if let Some(req) = self.pending.pop_ready(now) {
            let resp = self.complete(req);
            self.responses.push(resp);
        }
        if self.responses.is_empty() {
            None
        } else {
            Some(self.responses.remove(0))
        }
    }

    fn complete(&mut self, req: AxiReq) -> AxiResp {
        match req {
            AxiReq::Read(r) => {
                if u64::from(r.len) + r.addr > self.cfg.capacity {
                    self.meters.incr(self.slots.oob);
                    return AxiResp::Read(AxiReadResp { id: r.id, data: vec![] });
                }
                let data = self.read_bytes(r.addr, r.len as usize);
                AxiResp::Read(AxiReadResp { id: r.id, data })
            }
            AxiReq::Write(w) => {
                if w.data.len() as u64 + w.addr > self.cfg.capacity {
                    self.meters.incr(self.slots.oob);
                    return AxiResp::Write(AxiWriteResp { id: w.id, ok: false });
                }
                self.write_bytes(w.addr, &w.data);
                AxiResp::Write(AxiWriteResp { id: w.id, ok: true })
            }
        }
    }

    /// Counters (`dram.req`, `dram.bytes`, `dram.oob`), rendered.
    pub fn stats(&self) -> Stats {
        self.meters.stats()
    }

    /// The channel's meters: its `dram.*` counters.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// True when no request is in flight.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.responses.is_empty()
    }

    /// Number of 4 KiB pages materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

impl Default for Dram {
    fn default() -> Self {
        Self::new(DramConfig::default())
    }
}

impl SaveState for Dram {
    fn save(&self, w: &mut SnapWriter) {
        // Pages in sorted index order for deterministic bytes. The
        // injector is a pure function of (seed, stream, seq) and lives in
        // configuration; req_seq is the mutable cursor into its stream.
        // All-zero pages are skipped: restore re-elides them (zero writes
        // allocate nothing), so emitting them would break the
        // save→restore→save byte fixed-point.
        let Self { cfg: _, pages, pending, responses, faults: _, req_seq, meters, slots: _ } = self;
        let mut idxs: Vec<u64> =
            pages.iter().filter(|(_, p)| p.iter().any(|&b| b != 0)).map(|(&idx, _)| idx).collect();
        idxs.sort_unstable();
        w.usize(idxs.len());
        for idx in idxs {
            w.u64(idx);
            w.bytes(&pages[&idx][..]);
        }
        pending.save(w);
        responses.pack(w);
        w.u64(*req_seq);
        meters.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.pages = HashMap::new();
        r.seq(|r| {
            let idx = r.u64();
            // Borrowed read: pages go straight from the section buffer
            // into the backing store without an intermediate Vec.
            let raw = r.byte_slice();
            if raw.len() > PAGE_SIZE {
                r.corrupt("DRAM page exceeds 4 KiB");
            } else {
                // write_bytes re-elides all-zero pages.
                self.write_bytes(idx << PAGE_SHIFT, raw);
            }
        })
        .for_each(drop);
        self.pending.restore(r);
        self.responses = Vec::unpack(r);
        self.req_seq = r.u64();
        self.meters.restore(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smappic_axi::{AxiRead, AxiWrite};

    #[test]
    fn backdoor_roundtrip_across_pages() {
        let mut d = Dram::default();
        let data: Vec<u8> = (0..=255).collect();
        d.write_bytes(PAGE_SIZE as u64 - 128, &data);
        assert_eq!(d.read_bytes(PAGE_SIZE as u64 - 128, 256), data);
        assert_eq!(d.resident_pages(), 2);
    }

    #[test]
    fn timed_read_respects_latency() {
        let mut d = Dram::new(DramConfig { latency: 80, ..Default::default() });
        d.write_bytes(0x40, &[7; 64]);
        d.push_req(0, AxiReq::Read(AxiRead::new(0x40, 64, 1)));
        for now in 0..80 {
            assert!(d.pop_resp(now).is_none(), "response arrived early at {now}");
        }
        // 64 bytes at 32 B/cycle = 2 cycles serialization + 80 latency.
        let resp = d.pop_resp(82).expect("response due");
        match resp {
            AxiResp::Read(r) => assert_eq!(r.data, vec![7; 64]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn timed_write_then_read_observes_data() {
        let mut d = Dram::default();
        d.push_req(0, AxiReq::Write(AxiWrite::new(0x100, vec![9; 64], 2)));
        let mut now = 0;
        loop {
            if let Some(AxiResp::Write(w)) = d.pop_resp(now) {
                assert!(w.ok);
                break;
            }
            now += 1;
            assert!(now < 1_000);
        }
        assert_eq!(d.read_bytes(0x100, 64), vec![9; 64]);
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let mut d = Dram::new(DramConfig { capacity: 0x1000, ..Default::default() });
        d.push_req(0, AxiReq::Write(AxiWrite::new(0xFFF, vec![1, 2], 3)));
        let mut now = 0;
        loop {
            if let Some(AxiResp::Write(w)) = d.pop_resp(now) {
                assert!(!w.ok);
                break;
            }
            now += 1;
            assert!(now < 1_000);
        }
        assert_eq!(d.stats().get("dram.oob"), 1);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let d = Dram::default();
        assert_eq!(d.read_bytes(0xDEAD_0000, 8), vec![0; 8]);
    }

    #[test]
    fn latency_spikes_delay_but_preserve_data() {
        use smappic_sim::{FaultPlan, FaultProfile};
        use std::sync::Arc;

        let profile = FaultProfile { spike_prob: 1.0, spike_max: 200, ..FaultProfile::quiet() };
        let plan = Arc::new(FaultPlan::seeded(4, profile));
        let mut d = Dram::new(DramConfig { latency: 80, ..Default::default() });
        d.set_faults(FaultInjector::new(plan, 0x400));
        d.write_bytes(0x40, &[5; 64]);
        d.push_req(0, AxiReq::Read(AxiRead::new(0x40, 64, 1)));
        let mut got_at = None;
        for now in 0..1_000 {
            if let Some(AxiResp::Read(r)) = d.pop_resp(now) {
                assert_eq!(r.data, vec![5; 64], "spikes must never corrupt data");
                got_at = Some(now);
                break;
            }
        }
        let t = got_at.expect("spiked request still completes");
        assert!(t > 82, "spike_prob 1.0 must push past the clean 82-cycle time, got {t}");
        assert_eq!(d.stats().get("dram.spike"), 1);
    }
}

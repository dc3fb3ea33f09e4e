//! The MAPLE decoupled-access engine (§4.3 of the paper).

use smappic_coherence::{CoreReq, CoreResp, MemOp};
use smappic_sim::{Cycle, Pack, Ring, SaveState, SnapReader, SnapWriter};
use smappic_tile::{Engine, MmioResp, Tri};

/// Register offsets within MAPLE's MMIO window.
/// Access-pattern mode (see [`MapleMode`]).
pub const MAPLE_REG_MODE: u64 = 0x00;
/// Base address of the data array `A`.
pub const MAPLE_REG_BASE_A: u64 = 0x08;
/// Base address of the index array `B` (indirect mode).
pub const MAPLE_REG_BASE_B: u64 = 0x10;
/// Number of elements to fetch.
pub const MAPLE_REG_COUNT: u64 = 0x18;
/// Stride in elements (strided mode).
pub const MAPLE_REG_STRIDE: u64 = 0x20;
/// Writing 1 starts the engine.
pub const MAPLE_REG_START: u64 = 0x28;
/// Reads 1 while the engine is running, 0 when finished.
pub const MAPLE_REG_STATUS: u64 = 0x30;
/// Reading 8 bytes pops the next prefetched value (waits when empty).
pub const MAPLE_REG_QUEUE: u64 = 0x38;

/// Access patterns MAPLE can be programmed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapleMode {
    /// `A[B[i]]` — the irregular, latency-bound pattern (SPMV, BFS).
    Indirect,
    /// `A[i * stride]` — regular streaming.
    Strided,
}

#[derive(Debug, Clone, Copy)]
enum Inflight {
    /// Waiting for `B[i]`; the data load follows.
    Index { slot: u64 },
    /// Waiting for `A[...]`; the value goes into the queue in order.
    Data { slot: u64 },
}

// Snapshot tags for enums are part of the format: append-only, never
// renumbered.
impl Pack for Inflight {
    fn pack(&self, w: &mut SnapWriter) {
        match *self {
            Inflight::Index { slot } => {
                w.u8(0);
                w.u64(slot);
            }
            Inflight::Data { slot } => {
                w.u8(1);
                w.u64(slot);
            }
        }
    }

    fn unpack(r: &mut SnapReader) -> Self {
        match r.u8() {
            0 => Inflight::Index { slot: r.u64() },
            1 => Inflight::Data { slot: r.u64() },
            _ => {
                r.corrupt("unknown MAPLE inflight tag");
                Inflight::Data { slot: 0 }
            }
        }
    }
}

/// The MAPLE engine: programmed over MMIO, fetches through its own TRI
/// port, and feeds an in-order hardware queue.
///
/// The *Execute* core runs ahead popping [`MAPLE_REG_QUEUE`]; the *Access*
/// side (this engine) tolerates memory latency by keeping several loads in
/// flight — exactly the decoupling the paper reevaluates in §4.3.
#[derive(Debug)]
pub struct Maple {
    mode: MapleMode,
    base_a: u64,
    base_b: u64,
    count: u64,
    stride: u64,
    running: bool,
    /// Next element index to start fetching.
    next_slot: u64,
    inflight: Vec<(u64, Inflight)>, // (token, stage)
    /// Second-hop data loads that hit TRI back-pressure: (slot, addr).
    retry: Ring<(u64, u64)>,
    /// Completed values, ordered by slot.
    done: Vec<(u64, u64)>, // (slot, value)
    /// Next slot to release to the queue (in-order delivery).
    next_release: u64,
    queue: Ring<u64>,
    queue_capacity: usize,
    max_inflight: usize,
    next_token: u64,
    popped: u64,
}

impl Maple {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self {
            mode: MapleMode::Indirect,
            base_a: 0,
            base_b: 0,
            count: 0,
            stride: 1,
            running: false,
            next_slot: 0,
            inflight: Vec::new(),
            retry: Ring::new(),
            done: Vec::new(),
            next_release: 0,
            queue: Ring::new(),
            queue_capacity: 16,
            max_inflight: 4,
            next_token: 0,
            popped: 0,
        }
    }

    /// True while programmed work remains.
    pub fn busy(&self) -> bool {
        self.running
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn element_addr(&self, slot: u64) -> u64 {
        match self.mode {
            MapleMode::Indirect => self.base_b + slot * 8,
            MapleMode::Strided => self.base_a + slot * self.stride * 8,
        }
    }
}

impl Default for Maple {
    fn default() -> Self {
        Self::new()
    }
}

impl SaveState for Maple {
    fn save(&self, w: &mut SnapWriter) {
        // queue_capacity and max_inflight are configuration; the MMIO
        // registers are architectural state (guests program them at runtime).
        let Self {
            mode,
            base_a,
            base_b,
            count,
            stride,
            running,
            next_slot,
            inflight,
            retry,
            done,
            next_release,
            queue,
            queue_capacity: _,
            max_inflight: _,
            next_token,
            popped,
        } = self;
        w.u8(matches!(mode, MapleMode::Strided) as u8);
        w.u64(*base_a);
        w.u64(*base_b);
        w.u64(*count);
        w.u64(*stride);
        w.bool(*running);
        w.u64(*next_slot);
        inflight.pack(w);
        retry.save(w);
        done.pack(w);
        w.u64(*next_release);
        queue.save(w);
        w.u64(*next_token);
        w.u64(*popped);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.mode = match r.u8() {
            0 => MapleMode::Indirect,
            1 => MapleMode::Strided,
            _ => {
                r.corrupt("unknown MAPLE mode tag");
                MapleMode::Indirect
            }
        };
        self.base_a = r.u64();
        self.base_b = r.u64();
        self.count = r.u64();
        self.stride = r.u64();
        self.running = r.bool();
        self.next_slot = r.u64();
        self.inflight = Vec::unpack(r);
        self.retry.restore(r);
        self.done = Vec::unpack(r);
        self.next_release = r.u64();
        self.queue.restore(r);
        self.next_token = r.u64();
        self.popped = r.u64();
    }
}

impl Engine for Maple {
    fn tick(&mut self, now: Cycle, tri: &mut dyn Tri) {
        if !self.running {
            return;
        }
        // Collect completions.
        while let Some(CoreResp { token, data }) = tri.pop_resp() {
            let pos = self
                .inflight
                .iter()
                .position(|(t, _)| *t == token)
                .expect("response matches an in-flight fetch");
            let (_, stage) = self.inflight.remove(pos);
            match stage {
                Inflight::Index { slot } => {
                    // Second hop: A[B[i]]; under back-pressure it parks in
                    // the retry queue and reissues below.
                    self.retry.push_back((slot, self.base_a + data * 8));
                }
                Inflight::Data { slot } => {
                    self.done.push((slot, data));
                }
            }
        }

        // Reissue parked second-hop loads first (they gate in-order release).
        while let Some(&(slot, addr)) = self.retry.front() {
            let t = self.token();
            let req = CoreReq { token: t, op: MemOp::Load { addr, size: 8 } };
            match tri.try_request(now, req) {
                Ok(()) => {
                    self.retry.pop_front();
                    self.inflight.push((t, Inflight::Data { slot }));
                }
                Err(_) => {
                    self.next_token -= 1;
                    break;
                }
            }
        }

        // Release completed values in slot order.
        while self.queue.len() < self.queue_capacity {
            let Some(pos) = self.done.iter().position(|(s, _)| *s == self.next_release) else {
                break;
            };
            let (_, v) = self.done.remove(pos);
            self.queue.push_back(v);
            self.next_release += 1;
        }

        // Launch new element fetches.
        while self.next_slot < self.count
            && self.inflight.len() + self.retry.len() < self.max_inflight
            && self.queue.len() + self.inflight.len() + self.retry.len() + self.done.len()
                < self.queue_capacity
        {
            let slot = self.next_slot;
            let addr = self.element_addr(slot);
            let t = self.token();
            let req = CoreReq { token: t, op: MemOp::Load { addr, size: 8 } };
            if tri.try_request(now, req).is_err() {
                self.next_token -= 1;
                break;
            }
            let stage = match self.mode {
                MapleMode::Indirect => Inflight::Index { slot },
                MapleMode::Strided => Inflight::Data { slot },
            };
            self.inflight.push((t, stage));
            self.next_slot += 1;
        }

        // The engine stays busy until the consumer has popped every value
        // (the pop path clears `running` when the last value leaves).
    }

    fn mmio(&mut self, _now: Cycle, store: bool, addr: u64, _size: u8, data: u64) -> MmioResp {
        let off = addr & 0xFFF;
        if store {
            match off {
                MAPLE_REG_MODE => {
                    self.mode = if data == 0 { MapleMode::Indirect } else { MapleMode::Strided };
                }
                MAPLE_REG_BASE_A => self.base_a = data,
                MAPLE_REG_BASE_B => self.base_b = data,
                MAPLE_REG_COUNT => self.count = data,
                MAPLE_REG_STRIDE => self.stride = data.max(1),
                MAPLE_REG_START if data != 0 => {
                    self.running = true;
                    self.next_slot = 0;
                    self.next_release = 0;
                    self.popped = 0;
                    self.inflight.clear();
                    self.retry.clear();
                    self.done.clear();
                    self.queue.clear();
                }
                _ => {}
            }
            MmioResp::Ack
        } else {
            match off {
                MAPLE_REG_STATUS => MmioResp::Data(u64::from(self.running)),
                MAPLE_REG_QUEUE => match self.queue.pop_front() {
                    Some(v) => {
                        self.popped += 1;
                        if self.popped >= self.count {
                            self.running = false;
                        }
                        MmioResp::Data(v)
                    }
                    None => {
                        if self.popped >= self.count {
                            // Over-pop after completion: surface a sentinel
                            // instead of deadlocking the consumer.
                            MmioResp::Data(u64::MAX)
                        } else {
                            MmioResp::Pending
                        }
                    }
                },
                MAPLE_REG_MODE => MmioResp::Data(matches!(self.mode, MapleMode::Strided) as u64),
                MAPLE_REG_COUNT => MmioResp::Data(self.count),
                _ => MmioResp::Data(0),
            }
        }
    }

    fn label(&self) -> &str {
        "maple"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smappic_noc::{line_of, line_offset, LineData};
    use std::collections::HashMap;

    /// A Tri that answers loads from a flat map after a fixed delay,
    /// emulating a high-latency memory system.
    struct SlowMem {
        data: HashMap<u64, LineData>,
        latency: u64,
        pending: Ring<(u64, u64, u64)>, // (ready, token, addr)
        now: u64,
    }

    impl SlowMem {
        fn new(latency: u64) -> Self {
            Self { data: HashMap::new(), latency, pending: Ring::new(), now: 0 }
        }
        fn put(&mut self, addr: u64, v: u64) {
            self.data.entry(line_of(addr)).or_default().write(line_offset(addr), 8, v);
        }
        fn get(&self, addr: u64) -> u64 {
            self.data.get(&line_of(addr)).map_or(0, |l| l.read(line_offset(addr), 8))
        }
    }

    impl Tri for SlowMem {
        fn try_request(&mut self, now: Cycle, req: CoreReq) -> Result<(), CoreReq> {
            if self.pending.len() >= 4 {
                return Err(req);
            }
            let MemOp::Load { addr, .. } = req.op else { panic!("maple only loads") };
            self.pending.push_back((now + self.latency, req.token, addr));
            Ok(())
        }
        fn pop_resp(&mut self) -> Option<CoreResp> {
            if self.pending.front().is_some_and(|(r, _, _)| *r <= self.now) {
                let (_, token, addr) = self.pending.pop_front().unwrap();
                let data = self.get(addr);
                return Some(CoreResp { token, data });
            }
            None
        }
    }

    fn program(m: &mut Maple, mode: MapleMode, a: u64, b: u64, count: u64) {
        m.mmio(0, true, MAPLE_REG_MODE, 8, matches!(mode, MapleMode::Strided) as u64);
        m.mmio(0, true, MAPLE_REG_BASE_A, 8, a);
        m.mmio(0, true, MAPLE_REG_BASE_B, 8, b);
        m.mmio(0, true, MAPLE_REG_COUNT, 8, count);
        m.mmio(0, true, MAPLE_REG_START, 8, 1);
    }

    #[test]
    fn indirect_fetch_delivers_a_of_b_in_order() {
        let mut mem = SlowMem::new(50);
        // B = [3, 0, 2, 1]; A[i] = 1000 + i.
        for (i, &bi) in [3u64, 0, 2, 1].iter().enumerate() {
            mem.put(0x2000 + i as u64 * 8, bi);
        }
        for i in 0..4u64 {
            mem.put(0x1000 + i * 8, 1000 + i);
        }
        let mut m = Maple::new();
        program(&mut m, MapleMode::Indirect, 0x1000, 0x2000, 4);
        let mut popped = Vec::new();
        for now in 0..100_000 {
            mem.now = now;
            m.tick(now, &mut mem);
            if let MmioResp::Data(v) = m.mmio(now, false, MAPLE_REG_QUEUE, 8, 0) {
                popped.push(v);
                if popped.len() == 4 {
                    break;
                }
            }
        }
        assert_eq!(popped, vec![1003, 1000, 1002, 1001]);
        assert!(!m.busy());
    }

    #[test]
    fn strided_fetch_streams() {
        let mut mem = SlowMem::new(20);
        for i in 0..8u64 {
            mem.put(0x4000 + i * 16, 7 + i);
        }
        let mut m = Maple::new();
        m.mmio(0, true, MAPLE_REG_STRIDE, 8, 2); // stride 2 elements = 16 B
        program(&mut m, MapleMode::Strided, 0x4000, 0, 8);
        let mut popped = Vec::new();
        for now in 0..100_000 {
            mem.now = now;
            m.tick(now, &mut mem);
            if let MmioResp::Data(v) = m.mmio(now, false, MAPLE_REG_QUEUE, 8, 0) {
                popped.push(v);
                if popped.len() == 8 {
                    break;
                }
            }
        }
        assert_eq!(popped, (7..15).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_round_trip_mid_gather_continues_in_order() {
        use smappic_sim::{SnapReader, SnapWriter, Snapshot};

        let mut mem = SlowMem::new(50);
        for (i, &bi) in [3u64, 0, 2, 1, 3, 2].iter().enumerate() {
            mem.put(0x2000 + i as u64 * 8, bi);
        }
        for i in 0..4u64 {
            mem.put(0x1000 + i * 8, 1000 + i);
        }
        let mut m = Maple::new();
        program(&mut m, MapleMode::Indirect, 0x1000, 0x2000, 6);
        // Advance into the gather: loads in flight, maybe some done.
        for now in 0..120 {
            mem.now = now;
            m.tick(now, &mut mem);
        }
        assert!(m.busy(), "snapshot must land mid-gather");

        let mut w = SnapWriter::new();
        w.scoped("maple", |w| m.save(w));
        let snap = Snapshot::new(1, 120, w);

        let mut m2 = Maple::new();
        let mut r = SnapReader::new(&snap);
        r.scoped("maple", |r| m2.restore(r));
        r.finish().expect("clean restore");

        // The restored engine talks to an identical memory (SlowMem pending
        // responses are part of the memory system, re-created by cloning the
        // rig's pending list).
        let mut mem2 = SlowMem::new(50);
        mem2.data = mem.data.clone();
        mem2.pending = mem.pending.clone();
        mem2.now = mem.now;

        let drain = |m: &mut Maple, mem: &mut SlowMem| {
            let mut popped = Vec::new();
            for now in 120..100_000 {
                mem.now = now;
                m.tick(now, mem);
                if let MmioResp::Data(v) = m.mmio(now, false, MAPLE_REG_QUEUE, 8, 0) {
                    popped.push(v);
                    if popped.len() == 6 {
                        break;
                    }
                }
            }
            popped
        };
        let a = drain(&mut m, &mut mem);
        let b = drain(&mut m2, &mut mem2);
        assert_eq!(a, vec![1003, 1000, 1002, 1001, 1003, 1002]);
        assert_eq!(a, b, "restored MAPLE must deliver the same in-order stream");
        assert!(!m2.busy());
    }

    #[test]
    fn queue_pop_pends_until_data_arrives() {
        let mut mem = SlowMem::new(200);
        mem.put(0x2000, 0);
        mem.put(0x1000, 42);
        let mut m = Maple::new();
        program(&mut m, MapleMode::Indirect, 0x1000, 0x2000, 1);
        // Immediately popping pends (nothing fetched yet).
        assert_eq!(m.mmio(0, false, MAPLE_REG_QUEUE, 8, 0), MmioResp::Pending);
        let mut got = None;
        for now in 0..10_000 {
            mem.now = now;
            m.tick(now, &mut mem);
            if let MmioResp::Data(v) = m.mmio(now, false, MAPLE_REG_QUEUE, 8, 0) {
                got = Some((now, v));
                break;
            }
        }
        let (t, v) = got.expect("value arrives");
        assert_eq!(v, 42);
        assert!(t >= 400, "two dependent 200-cycle loads, got {t}");
    }

    #[test]
    fn status_register_reflects_lifecycle() {
        let mut mem = SlowMem::new(5);
        mem.put(0x2000, 0);
        mem.put(0x1000, 9);
        let mut m = Maple::new();
        assert_eq!(m.mmio(0, false, MAPLE_REG_STATUS, 8, 0), MmioResp::Data(0));
        program(&mut m, MapleMode::Indirect, 0x1000, 0x2000, 1);
        assert_eq!(m.mmio(0, false, MAPLE_REG_STATUS, 8, 0), MmioResp::Data(1));
        for now in 0..1_000 {
            mem.now = now;
            m.tick(now, &mut mem);
            let _ = m.mmio(now, false, MAPLE_REG_QUEUE, 8, 0);
        }
        assert_eq!(m.mmio(0, false, MAPLE_REG_STATUS, 8, 0), MmioResp::Data(0));
    }

    #[test]
    fn overpop_returns_sentinel() {
        let mut mem = SlowMem::new(1);
        mem.put(0x2000, 0);
        mem.put(0x1000, 5);
        let mut m = Maple::new();
        program(&mut m, MapleMode::Indirect, 0x1000, 0x2000, 1);
        let mut first = None;
        for now in 0..1_000 {
            mem.now = now;
            m.tick(now, &mut mem);
            if first.is_none() {
                if let MmioResp::Data(v) = m.mmio(now, false, MAPLE_REG_QUEUE, 8, 0) {
                    first = Some(v);
                }
            }
        }
        assert_eq!(first, Some(5));
        assert_eq!(m.mmio(0, false, MAPLE_REG_QUEUE, 8, 0), MmioResp::Data(u64::MAX));
    }
}

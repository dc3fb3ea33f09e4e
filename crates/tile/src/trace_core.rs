//! The abstract-op trace core.

use smappic_coherence::{CoreReq, CoreResp, MemOp};
use smappic_noc::{Addr, AmoOp};
use smappic_sim::{Cycle, Pack, SaveState, SnapReader, SnapWriter};

use crate::addrmap::AddrMap;
use crate::tri::{Engine, Tri};

/// One operation of a trace program.
///
/// Trace programs express a workload's *memory behaviour* — what the NUMA,
/// latency, and MAPLE experiments measure — without an instruction stream.
/// All accesses are 8 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Busy-execute for `n` cycles (models the compute between accesses).
    Compute(u64),
    /// Cacheable 8-byte load.
    Load(Addr),
    /// Cacheable 8-byte *posted* store of an arbitrary marker value: the
    /// core does not wait for completion (store-buffer semantics, bounded
    /// by the BPC's MSHRs). Use for data; synchronization operations fence
    /// all posted stores first.
    Store(Addr),
    /// Cacheable 8-byte *blocking* store of a specific value (flags,
    /// mailboxes — release stores that must be globally visible).
    StoreVal(Addr, u64),
    /// Atomic fetch-and-add; the old value is discarded.
    AmoAdd(Addr, u64),
    /// Spin (cached polling loads) until the 8 bytes at `addr` equal `v`.
    SpinUntilEq(Addr, u64),
    /// Spin until the value is ≥ `v` (barrier arrival counters).
    SpinUntilGe(Addr, u64),
    /// Non-cacheable 8-byte load from a device (resolved through the
    /// core's [`AddrMap`]; falls back to a cacheable load when the address
    /// is not a device — keeping programs valid on device-less builds).
    NcLoad(Addr),
    /// Non-cacheable store to a device.
    NcStore(Addr, u64),
    /// Cacheable 8-byte *blocking* load folded into the core's running
    /// checksum ([`TraceCore::checksum`]). Because the value travels
    /// through the coherence protocol (not a DRAM backdoor), checksums
    /// observe dirty cache lines — the tool the differential fault suite
    /// uses to compare architectural state between runs whose cache/timing
    /// behaviour differs. Fences posted stores like other sync ops.
    Checksum(Addr),
}

// Snapshot tags for enums are part of the format: append-only, never
// renumbered.
impl Pack for TraceOp {
    fn pack(&self, w: &mut SnapWriter) {
        match self {
            TraceOp::Compute(n) => {
                w.u8(0);
                w.u64(*n);
            }
            TraceOp::Load(a) => {
                w.u8(1);
                w.u64(*a);
            }
            TraceOp::Store(a) => {
                w.u8(2);
                w.u64(*a);
            }
            TraceOp::StoreVal(a, v) => {
                w.u8(3);
                w.u64(*a);
                w.u64(*v);
            }
            TraceOp::AmoAdd(a, v) => {
                w.u8(4);
                w.u64(*a);
                w.u64(*v);
            }
            TraceOp::SpinUntilEq(a, v) => {
                w.u8(5);
                w.u64(*a);
                w.u64(*v);
            }
            TraceOp::SpinUntilGe(a, v) => {
                w.u8(6);
                w.u64(*a);
                w.u64(*v);
            }
            TraceOp::NcLoad(a) => {
                w.u8(7);
                w.u64(*a);
            }
            TraceOp::NcStore(a, v) => {
                w.u8(8);
                w.u64(*a);
                w.u64(*v);
            }
            TraceOp::Checksum(a) => {
                w.u8(9);
                w.u64(*a);
            }
        }
    }

    fn unpack(r: &mut SnapReader) -> Self {
        match r.u8() {
            0 => TraceOp::Compute(r.u64()),
            1 => TraceOp::Load(r.u64()),
            2 => TraceOp::Store(r.u64()),
            3 => TraceOp::StoreVal(r.u64(), r.u64()),
            4 => TraceOp::AmoAdd(r.u64(), r.u64()),
            5 => TraceOp::SpinUntilEq(r.u64(), r.u64()),
            6 => TraceOp::SpinUntilGe(r.u64(), r.u64()),
            7 => TraceOp::NcLoad(r.u64()),
            8 => TraceOp::NcStore(r.u64(), r.u64()),
            9 => TraceOp::Checksum(r.u64()),
            _ => {
                r.corrupt("unknown TraceOp tag");
                TraceOp::Compute(0)
            }
        }
    }
}

/// State of the in-flight operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    None,
    /// Waiting for the response with this token.
    Mem(u64),
    /// Waiting for a spin-poll load; re-check the condition on arrival.
    Spin(u64),
}

/// A core that executes a [`TraceOp`] program against the memory system.
///
/// One op is in flight at a time (matching an in-order, blocking core).
/// `Compute(n)` consumes `n` cycles without memory traffic. The core
/// records when it finished ([`TraceCore::finished_at`]) and how many
/// memory operations it performed.
#[derive(Debug)]
pub struct TraceCore {
    label: String,
    /// The full program; ops before `pc` have retired. A plain Vec with a
    /// cursor — the program is never mutated, only advanced through.
    program: Vec<TraceOp>,
    pc: usize,
    wait: Wait,
    compute_left: u64,
    next_token: u64,
    /// Spin op currently being polled (kept until satisfied).
    spinning: Option<TraceOp>,
    /// Tokens of posted (fire-and-forget) stores still in flight.
    posted: Vec<u64>,
    finished_at: Option<Cycle>,
    mem_ops: u64,
    /// Program ops retired (spin re-polls do not count) — the engine's
    /// architectural-progress counter for the platform Watchdog.
    retired: u64,
    /// Last loaded value (inspectable by tests).
    last_load: u64,
    /// Order-sensitive fold of every [`TraceOp::Checksum`] load.
    checksum: u64,
    /// The blocking op in flight is a Checksum load.
    checksum_pending: bool,
    /// Device map for NC operations.
    addr_map: AddrMap,
}

impl TraceCore {
    /// Creates a trace core with the given program.
    pub fn new(label: impl Into<String>, program: Vec<TraceOp>) -> Self {
        Self::with_addr_map(label, program, AddrMap::new())
    }

    /// Creates a trace core with a device map for NC operations.
    pub fn with_addr_map(
        label: impl Into<String>,
        program: Vec<TraceOp>,
        addr_map: AddrMap,
    ) -> Self {
        Self {
            label: label.into(),
            program,
            pc: 0,
            wait: Wait::None,
            compute_left: 0,
            next_token: 0,
            spinning: None,
            posted: Vec::new(),
            finished_at: None,
            mem_ops: 0,
            retired: 0,
            last_load: 0,
            checksum: 0,
            checksum_pending: false,
            addr_map,
        }
    }

    /// Cycle at which the program completed, if it has.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// Memory operations issued so far.
    pub fn mem_ops(&self) -> u64 {
        self.mem_ops
    }

    /// The value returned by the most recent load.
    pub fn last_load(&self) -> u64 {
        self.last_load
    }

    /// The running fold of every [`TraceOp::Checksum`] load, in program
    /// order. Two runs that observed the same values in the same order have
    /// equal checksums.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// True when `op` cannot issue until posted stores complete:
    /// synchronization ops fence the whole store buffer, and posted stores
    /// themselves block once the 3-entry window is full.
    fn blocked_on_posted(&self, op: &TraceOp) -> bool {
        match op {
            TraceOp::Compute(_) | TraceOp::Load(_) => false,
            TraceOp::Store(_) => self.posted.len() >= 3,
            _ => !self.posted.is_empty(),
        }
    }

    fn issue(&mut self, now: Cycle, tri: &mut dyn Tri, op: &TraceOp) -> bool {
        let token = self.token();
        let (req, spin) = match *op {
            TraceOp::Load(addr) => (MemOp::Load { addr, size: 8 }, false),
            TraceOp::Store(addr) => (MemOp::Store { addr, size: 8, data: 0xD1CE }, false),
            TraceOp::StoreVal(addr, v) => (MemOp::Store { addr, size: 8, data: v }, false),
            TraceOp::AmoAdd(addr, v) => {
                (MemOp::Amo { addr, size: 8, op: AmoOp::Add, val: v, expected: 0 }, false)
            }
            TraceOp::SpinUntilEq(addr, _) | TraceOp::SpinUntilGe(addr, _) => {
                (MemOp::Load { addr, size: 8 }, true)
            }
            TraceOp::Checksum(addr) => (MemOp::Load { addr, size: 8 }, false),
            TraceOp::NcLoad(addr) => match self.addr_map.device_for(addr) {
                Some(dst) => (MemOp::NcLoad { addr, size: 8, dst }, false),
                None => (MemOp::Load { addr, size: 8 }, false),
            },
            TraceOp::NcStore(addr, data) => match self.addr_map.device_for(addr) {
                Some(dst) => (MemOp::NcStore { addr, size: 8, data, dst }, false),
                None => (MemOp::Store { addr, size: 8, data }, false),
            },
            TraceOp::Compute(_) => unreachable!("handled by caller"),
        };
        match tri.try_request(now, CoreReq { token, op: req }) {
            Ok(()) => {
                self.mem_ops += 1;
                self.checksum_pending = matches!(op, TraceOp::Checksum(_));
                self.wait = if spin { Wait::Spin(token) } else { Wait::Mem(token) };
                true
            }
            Err(_) => {
                self.next_token -= 1;
                false
            }
        }
    }
}

impl SaveState for TraceCore {
    fn save(&self, w: &mut SnapWriter) {
        // The label, program and device map are configuration; everything
        // a running core mutates is here. Wait tags: 0=None, 1=Mem, 2=Spin.
        let Self {
            label: _,
            program: _,
            pc,
            wait,
            compute_left,
            next_token,
            spinning,
            posted,
            finished_at,
            mem_ops,
            retired,
            last_load,
            checksum,
            checksum_pending,
            addr_map: _,
        } = self;
        w.usize(*pc);
        match *wait {
            Wait::None => {
                w.u8(0);
                w.u64(0);
            }
            Wait::Mem(t) => {
                w.u8(1);
                w.u64(t);
            }
            Wait::Spin(t) => {
                w.u8(2);
                w.u64(t);
            }
        }
        w.u64(*compute_left);
        w.u64(*next_token);
        spinning.pack(w);
        posted.pack(w);
        finished_at.pack(w);
        w.u64(*mem_ops);
        w.u64(*retired);
        w.u64(*last_load);
        w.u64(*checksum);
        w.bool(*checksum_pending);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.pc = r.usize();
        if self.pc > self.program.len() {
            r.corrupt("trace pc beyond program end");
            self.pc = self.program.len();
        }
        let tag = r.u8();
        let token = r.u64();
        self.wait = match tag {
            0 => Wait::None,
            1 => Wait::Mem(token),
            2 => Wait::Spin(token),
            _ => {
                r.corrupt("unknown trace-core wait tag");
                Wait::None
            }
        };
        self.compute_left = r.u64();
        self.next_token = r.u64();
        self.spinning = Option::unpack(r);
        self.posted = Vec::unpack(r);
        self.finished_at = Option::unpack(r);
        self.mem_ops = r.u64();
        self.retired = r.u64();
        self.last_load = r.u64();
        self.checksum = r.u64();
        self.checksum_pending = r.bool();
    }
}

impl Engine for TraceCore {
    fn tick(&mut self, now: Cycle, tri: &mut dyn Tri) {
        // Drain every available response: posted-store completions are
        // discarded; the blocking transaction (if any) finishes its wait.
        while let Some(CoreResp { token, data }) = tri.pop_resp() {
            if let Some(pos) = self.posted.iter().position(|t| *t == token) {
                self.posted.swap_remove(pos);
                continue;
            }
            match self.wait {
                Wait::Mem(expect) => {
                    debug_assert_eq!(token, expect, "single outstanding blocking op");
                    self.last_load = data;
                    if self.checksum_pending {
                        self.checksum = self
                            .checksum
                            .rotate_left(7)
                            .wrapping_add(data.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        self.checksum_pending = false;
                    }
                    self.wait = Wait::None;
                }
                Wait::Spin(expect) => {
                    debug_assert_eq!(token, expect);
                    let done = match self.spinning.as_ref().expect("spin op retained") {
                        TraceOp::SpinUntilEq(_, v) => data == *v,
                        TraceOp::SpinUntilGe(_, v) => data >= *v,
                        other => unreachable!("non-spin op retained: {other:?}"),
                    };
                    self.last_load = data;
                    self.wait = Wait::None;
                    if done {
                        self.spinning = None;
                    }
                }
                Wait::None => panic!("response {token} with no waiter"),
            }
        }
        if self.wait != Wait::None {
            return;
        }

        // Busy compute.
        if self.compute_left > 0 {
            self.compute_left -= 1;
            return;
        }

        // Re-poll an unsatisfied spin.
        if let Some(op) = self.spinning.clone() {
            self.issue(now, tri, &op);
            return;
        }

        // Next program op.
        let Some(op) = self.program.get(self.pc).cloned() else {
            if self.posted.is_empty() && self.finished_at.is_none() {
                self.finished_at = Some(now);
            }
            return;
        };
        // Synchronization ops fence all posted stores first; a posted store
        // itself waits for a free store-buffer slot.
        if self.blocked_on_posted(&op) {
            return;
        }
        match op {
            TraceOp::Compute(n) => {
                self.pc += 1;
                self.retired += 1;
                self.compute_left = n.saturating_sub(1); // this tick counts
            }
            TraceOp::SpinUntilEq(..) | TraceOp::SpinUntilGe(..) => {
                if self.issue(now, tri, &op) {
                    self.pc += 1;
                    // Retires once on issue; the re-polls a never-satisfied
                    // spin keeps sending do NOT count as progress, so a
                    // livelocked spin freezes this counter for the Watchdog.
                    self.retired += 1;
                    self.spinning = Some(op);
                }
            }
            TraceOp::Store(addr) => {
                // Posted store: issue and continue (store-buffer model,
                // bounded by the window blocked_on_posted enforces).
                let token = self.token();
                let req = CoreReq { token, op: MemOp::Store { addr, size: 8, data: 0xD1CE } };
                if tri.try_request(now, req).is_ok() {
                    self.mem_ops += 1;
                    self.posted.push(token);
                    self.pc += 1;
                    self.retired += 1;
                } else {
                    self.next_token -= 1;
                }
            }
            _ => {
                if self.issue(now, tri, &op) {
                    self.pc += 1;
                    self.retired += 1;
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn progress(&self) -> u64 {
        self.retired
    }

    fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        if self.finished_at.is_some() {
            // Finished ticks drain nothing and set nothing: pure no-ops.
            return None;
        }
        if self.wait != Wait::None {
            // Blocked on a response; ticks until the tile delivers one do
            // nothing (the drain loop pops from an empty queue).
            return None;
        }
        if self.compute_left > 0 {
            // Busy compute: ticks in the burst only decrement the counter;
            // the next program op issues when it reaches zero.
            return Some(now + self.compute_left);
        }
        if self.spinning.is_some() {
            return Some(now); // re-polls every cycle
        }
        match self.program.get(self.pc) {
            // Fenced behind posted stores: progress resumes only when their
            // completions arrive through the tile.
            Some(op) if self.blocked_on_posted(op) => None,
            // Program done but posted stores outstanding: finished_at is
            // recorded only after they complete.
            None if !self.posted.is_empty() => None,
            // An op is ready to issue (or finished_at is due to be set).
            _ => Some(now),
        }
    }

    fn advance_idle(&mut self, delta: u64) {
        // The only aging a skippable stretch performs is draining the
        // compute burst.
        self.compute_left -= self.compute_left.min(delta);
    }

    fn label(&self) -> &str {
        &self.label
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
    use smappic_coherence::{Bpc, BpcConfig, Homing, HomingMode};
    use smappic_noc::{Gid, LineData, Msg, NodeId, Packet};
    use std::collections::HashMap;

    /// A Tri implementation backed by a BPC with an instant fake home.
    struct Rig {
        bpc: Bpc,
        backing: HashMap<u64, LineData>,
    }

    impl Rig {
        fn new() -> Self {
            let homing = Homing::new(HomingMode::StripeAllNodes, 1, 4);
            Self {
                bpc: Bpc::new(BpcConfig::new(Gid::tile(NodeId(0), 0), homing)),
                backing: HashMap::new(),
            }
        }

        fn pump(&mut self, now: Cycle) {
            self.bpc.tick(now);
            while let Some(pkt) = self.bpc.noc_pop() {
                let reply = match pkt.msg {
                    Msg::ReqS { line } => Some(Msg::Data {
                        line,
                        data: *self.backing.entry(line).or_default(),
                        excl: false,
                    }),
                    Msg::ReqM { line } => Some(Msg::Data {
                        line,
                        data: *self.backing.entry(line).or_default(),
                        excl: true,
                    }),
                    Msg::Amo { addr, size, op, val, expected } => {
                        let line = smappic_noc::line_of(addr);
                        let entry = self.backing.entry(line).or_default();
                        let off = smappic_noc::line_offset(addr);
                        let old = entry.read(off, size as usize);
                        entry.write(
                            off,
                            size as usize,
                            op.apply(old, val, expected, size as usize),
                        );
                        Some(Msg::AmoResp { addr, old })
                    }
                    Msg::WbData { line, data } => {
                        self.backing.insert(line, data);
                        None
                    }
                    Msg::WbClean { .. } | Msg::InvAck { .. } => None,
                    other => panic!("unexpected {other:?}"),
                };
                if let Some(msg) = reply {
                    self.bpc.noc_push(Packet::on_canonical_vn(pkt.src, pkt.dst, msg));
                }
            }
        }
    }

    impl Tri for Rig {
        fn try_request(&mut self, now: Cycle, req: CoreReq) -> Result<(), CoreReq> {
            self.bpc.request(now, req)
        }
        fn pop_resp(&mut self) -> Option<CoreResp> {
            self.bpc.pop_resp()
        }
    }

    fn run(core: &mut TraceCore, rig: &mut Rig, max: Cycle) -> Cycle {
        for now in 0..max {
            core.tick(now, rig);
            rig.pump(now);
            if core.is_done() {
                return core.finished_at().unwrap();
            }
        }
        panic!("trace program did not finish in {max} cycles");
    }

    #[test]
    fn compute_consumes_exact_cycles() {
        let mut rig = Rig::new();
        let mut core = TraceCore::new("t", vec![TraceOp::Compute(100)]);
        let t = run(&mut core, &mut rig, 1_000);
        assert_eq!(t, 100);
    }

    #[test]
    fn store_then_load_roundtrips() {
        let mut rig = Rig::new();
        let mut core =
            TraceCore::new("t", vec![TraceOp::StoreVal(0x100, 4242), TraceOp::Load(0x100)]);
        run(&mut core, &mut rig, 10_000);
        assert_eq!(core.last_load(), 4242);
        assert_eq!(core.mem_ops(), 2);
    }

    #[test]
    fn spin_until_eq_waits_for_writer() {
        let mut rig = Rig::new();
        let mut core = TraceCore::new("t", vec![TraceOp::SpinUntilEq(0x200, 7)]);
        // Run a while: not done (flag is 0).
        for now in 0..2_000 {
            core.tick(now, &mut rig);
            rig.pump(now);
        }
        assert!(!core.is_done());
        // Another agent sets the flag via the backing store — but the line
        // is cached Shared in our BPC, so flip it through an invalidation,
        // as a real writer would.
        let mut d = LineData::zeroed();
        d.write(0, 8, 7);
        rig.backing.insert(0x200, d);
        rig.bpc.noc_push(Packet::on_canonical_vn(
            Gid::tile(NodeId(0), 0),
            Gid::tile(NodeId(0), 0),
            Msg::Inv { line: 0x200 },
        ));
        for now in 2_000..10_000 {
            core.tick(now, &mut rig);
            rig.pump(now);
            if core.is_done() {
                return;
            }
        }
        panic!("spin never satisfied");
    }

    #[test]
    fn checksum_folds_loaded_values_in_order() {
        let run_program = |vals: &[u64]| {
            let mut rig = Rig::new();
            let mut prog = Vec::new();
            for (i, &v) in vals.iter().enumerate() {
                prog.push(TraceOp::StoreVal(0x400 + i as u64 * 8, v));
            }
            for i in 0..vals.len() {
                prog.push(TraceOp::Checksum(0x400 + i as u64 * 8));
            }
            let mut core = TraceCore::new("t", prog);
            run(&mut core, &mut rig, 100_000);
            core.checksum()
        };
        let a = run_program(&[1, 2, 3]);
        assert_eq!(a, run_program(&[1, 2, 3]), "checksum must be deterministic");
        assert_ne!(a, run_program(&[3, 2, 1]), "checksum must be order-sensitive");
        assert_ne!(a, run_program(&[1, 2, 4]), "checksum must be value-sensitive");
    }

    #[test]
    fn spin_polls_do_not_advance_progress() {
        let mut rig = Rig::new();
        let mut core =
            TraceCore::new("t", vec![TraceOp::Compute(1), TraceOp::SpinUntilEq(0x200, 7)]);
        for now in 0..2_000 {
            core.tick(now, &mut rig);
            rig.pump(now);
        }
        let frozen = core.progress();
        assert_eq!(frozen, 2, "compute + spin issue retire exactly once each");
        for now in 2_000..4_000 {
            core.tick(now, &mut rig);
            rig.pump(now);
        }
        assert_eq!(core.progress(), frozen, "unsatisfied spin must not count as progress");
    }

    #[test]
    fn amo_add_counts_as_mem_op() {
        let mut rig = Rig::new();
        let mut core = TraceCore::new(
            "t",
            vec![TraceOp::AmoAdd(0x300, 5), TraceOp::AmoAdd(0x300, 5), TraceOp::Load(0x300)],
        );
        run(&mut core, &mut rig, 10_000);
        assert_eq!(core.last_load(), 10);
        assert_eq!(core.mem_ops(), 3);
    }
}

//! The Ariane core model: the RV64 interpreter behind a timing pipeline.

use smappic_coherence::{CoreReq, CoreResp, MemOp};
use smappic_isa::{BlockCache, Csr, DecodedOp, Hart, MemAmoOp, Outcome};
use smappic_noc::{Addr, AmoOp};
use smappic_sim::{Cycle, Pack, SaveState, SnapReader, SnapWriter};

use crate::addrmap::AddrMap;
use crate::tri::{Engine, Tri};

/// Timing parameters of the Ariane model.
///
/// Table 2 of the paper: in-order, 6-stage, single-issue pipeline. We model
/// it as 1 instruction per cycle plus explicit stalls: memory operations
/// block until the BPC answers, taken control flow pays a redirect penalty
/// (no BHT modeled — documented deviation #2), and long-latency integer
/// ops (mul/div) pay fixed penalties.
#[derive(Debug, Clone)]
pub struct ArianeConfig {
    /// Hart ID exposed in `mhartid`.
    pub hartid: u64,
    /// Reset program counter.
    pub reset_pc: u64,
    /// The node's MMIO address map.
    pub addr_map: AddrMap,
    /// Instruction cache capacity in 8-byte doublewords (16 KB default).
    pub icache_dwords: usize,
    /// Branch-history-table entries (Table 2: 128; 2-bit counters).
    /// Zero disables prediction (every taken branch pays the penalty).
    pub bht_entries: usize,
    /// Extra cycles on mispredicted branches/jumps (front-end redirect).
    pub taken_branch_penalty: u64,
    /// Extra cycles for multiplications.
    pub mul_penalty: u64,
    /// Extra cycles for divisions/remainders.
    pub div_penalty: u64,
}

impl ArianeConfig {
    /// Defaults matching Table 2 (16 KB L1I; modest fixed penalties).
    pub fn new(hartid: u64, reset_pc: u64, addr_map: AddrMap) -> Self {
        Self {
            hartid,
            reset_pc,
            addr_map,
            icache_dwords: 2048,
            bht_entries: 128,
            taken_branch_penalty: 2,
            mul_penalty: 1,
            div_penalty: 10,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Pend {
    IFetch { dword: Addr },
    Load { rd: u8, size: u8, signed: bool, reserve: bool, addr: Addr },
    Store,
    Amo { rd: u8, size: u8, is_sc: bool, expected: u64 },
}

// Snapshot tags for enums are part of the format: append-only, never
// renumbered.
impl Pack for Pend {
    fn pack(&self, w: &mut SnapWriter) {
        match *self {
            Pend::IFetch { dword } => {
                w.u8(0);
                w.u64(dword);
            }
            Pend::Load { rd, size, signed, reserve, addr } => {
                w.u8(1);
                w.u8(rd);
                w.u8(size);
                w.bool(signed);
                w.bool(reserve);
                w.u64(addr);
            }
            Pend::Store => w.u8(2),
            Pend::Amo { rd, size, is_sc, expected } => {
                w.u8(3);
                w.u8(rd);
                w.u8(size);
                w.bool(is_sc);
                w.u64(expected);
            }
        }
    }

    fn unpack(r: &mut SnapReader) -> Self {
        match r.u8() {
            0 => Pend::IFetch { dword: r.u64() },
            1 => Pend::Load {
                rd: r.u8(),
                size: r.u8(),
                signed: r.bool(),
                reserve: r.bool(),
                addr: r.u64(),
            },
            2 => Pend::Store,
            3 => Pend::Amo { rd: r.u8(), size: r.u8(), is_sc: r.bool(), expected: r.u64() },
            _ => {
                r.corrupt("unknown Pend tag");
                Pend::Store
            }
        }
    }
}

#[derive(Debug)]
enum State {
    /// Ready to fetch/execute.
    Run,
    /// A memory transaction could not be issued yet (BPC busy); retry.
    Issue(CoreReq, Pend),
    /// Waiting for a response with this token.
    Wait(u64, Pend),
    /// Waiting for an interrupt.
    Wfi,
    /// Stopped (exit ecall, ebreak, or unhandled trap).
    Halted,
}

/// The TRI of a quiet window ([`Engine::advance_idle`] in `State::Run`): the
/// horizon promised that no tick in the window reaches the TRI, so reaching
/// it is a bug in the horizon, never something to paper over.
struct QuietTri;

impl Tri for QuietTri {
    fn try_request(&mut self, _now: Cycle, req: CoreReq) -> Result<(), CoreReq> {
        unreachable!("memory request inside a quiet window: {req:?}")
    }
    fn pop_resp(&mut self) -> Option<CoreResp> {
        unreachable!("response poll inside a quiet window")
    }
}

/// Ops that retire from registers alone: no TRI, no trap, no redirect, no CSR
/// and no wrapper state beyond the stall counter. Loads, stores and CSR ops
/// sit mid-block ([`DecodedOp::ends_block`] stops at none of them), so the
/// quiet-run horizon cannot lean on block boundaries and keeps its own list.
fn is_closed(d: &DecodedOp) -> bool {
    matches!(
        d,
        DecodedOp::Lui { .. }
            | DecodedOp::Auipc { .. }
            | DecodedOp::Alu { .. }
            | DecodedOp::AluImm { .. }
    )
}

/// The Ariane core model.
///
/// Drives a [`Hart`] one instruction at a time through the TRI. Guest
/// programs stop with the SMAPPIC bare-metal convention:
/// `a7 = 93, ecall` halts the core with `a0` as the exit code, and
/// `a7 = 1, ecall` appends the low byte of `a0` to the core's debug
/// console (examples normally use the real UART instead).
#[derive(Debug)]
pub struct ArianeCore {
    cfg: ArianeConfig,
    label: String,
    hart: Hart,
    icache: Vec<Option<(Addr, u64)>>,
    /// 2-bit saturating counters, indexed by pc (Table 2's 128-entry BHT).
    bht: Vec<u8>,
    /// Decoded-block cache. Host-side *derived* state: it mirrors the
    /// I-cache's pc→bits mapping, is never serialized, and is rebuilt from
    /// scratch after restore — see `smappic_isa::BlockCache`.
    blocks: BlockCache,
    /// Dispatch decoded blocks instead of re-decoding every fetch. Purely a
    /// host-speed switch; architectural behavior is identical either way.
    fast_decode: bool,
    state: State,
    stall: u64,
    next_token: u64,
    console: Vec<u8>,
    exit_code: Option<u64>,
    retired_loads: u64,
    branches: u64,
    mispredicts: u64,
}

impl ArianeCore {
    /// Creates a core.
    pub fn new(cfg: ArianeConfig) -> Self {
        let hart = Hart::new(cfg.hartid, cfg.reset_pc);
        let icache = vec![None; cfg.icache_dwords];
        let bht = vec![1u8; cfg.bht_entries.max(1)]; // weakly not-taken
        Self {
            label: format!("ariane{}", cfg.hartid),
            cfg,
            hart,
            icache,
            bht,
            blocks: BlockCache::new(),
            fast_decode: true,
            state: State::Run,
            stall: 0,
            next_token: 0,
            console: Vec::new(),
            exit_code: None,
            retired_loads: 0,
            branches: 0,
            mispredicts: 0,
        }
    }

    /// Architectural state access (registers, CSRs, pc).
    pub fn hart(&self) -> &Hart {
        &self.hart
    }

    /// Mutable architectural state (loaders set sp/argv here).
    pub fn hart_mut(&mut self) -> &mut Hart {
        &mut self.hart
    }

    /// The exit code passed to the halt ecall, if the program ended.
    pub fn exit_code(&self) -> Option<u64> {
        self.exit_code
    }

    /// Bytes printed through the debug-console ecall.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Loads retired (for IPC diagnostics).
    pub fn retired_loads(&self) -> u64 {
        self.retired_loads
    }

    /// (conditional branches retired, mispredictions) — BHT diagnostics.
    pub fn branch_stats(&self) -> (u64, u64) {
        (self.branches, self.mispredicts)
    }

    /// (hits, misses) of the decoded-block cache — host-side diagnostics,
    /// never part of architectural stats or snapshots.
    pub fn block_cache_stats(&self) -> (u64, u64) {
        (self.blocks.hits(), self.blocks.misses())
    }

    /// Drops any instruction-cache doublewords and decoded blocks covering
    /// `[addr, addr + len)`. Called on every retired store so self-modifying
    /// code observes its own writes on the next fetch (store → fetch through
    /// the same BPC returns the new bytes once the stale L1I line is gone).
    fn invalidate_code(&mut self, addr: Addr, len: u64) {
        let first = addr & !7;
        let last = (addr.saturating_add(len.max(1)) - 1) & !7;
        let mut dword = first;
        loop {
            let slot = self.icache_slot(dword);
            if matches!(self.icache[slot], Some((a, _)) if a == dword) {
                self.icache[slot] = None;
            }
            if dword == last {
                break;
            }
            dword += 8;
        }
        self.blocks.invalidate_range(addr, len.max(1));
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn icache_slot(&self, dword: Addr) -> usize {
        ((dword >> 3) as usize) % self.cfg.icache_dwords
    }

    fn icache_lookup(&self, dword: Addr) -> Option<u64> {
        match self.icache[self.icache_slot(dword)] {
            Some((a, bits)) if a == dword => Some(bits),
            _ => None,
        }
    }

    /// The instruction word at `pc`, if its doubleword is L1I-resident.
    fn fetch(&self, pc: u64) -> Option<u32> {
        let bits = self.icache_lookup(pc & !7)?;
        Some(if pc & 4 == 0 { bits as u32 } else { (bits >> 32) as u32 })
    }

    /// The quiet run: how many of the next instructions are certain to retire
    /// one per `Run` dispatch without the core touching the TRI or anything
    /// the tile observes. Those are the leading ops at the block cursor (or,
    /// between blocks, of the block keyed at the pc) that are [`is_closed`]
    /// and whose L1I-resident bits equal the bits the block was decoded from
    /// (a block outlives a direct-mapped eviction of its doubleword:
    /// `complete(IFetch)` invalidates only the *refilled* one), with no
    /// interrupt deliverable. Inside the run nothing can change that: closed
    /// ops write neither the L1I nor `mie`/`mstatus`, and `mip` moves only
    /// through `set_irq`, which the tile wakes up for.
    fn quiet_run(&self) -> u64 {
        if self.hart.csrs().pending_interrupt().is_some() {
            return 0;
        }
        let quiet = |pc, raw, d: &DecodedOp| is_closed(d) && self.fetch(pc) == Some(raw);
        self.blocks.quiet_run(self.hart.pc(), quiet) as u64
    }

    /// WFI resumes whenever an interrupt is pending and locally enabled,
    /// whatever `mstatus.MIE` says (privileged spec §3.3.3); only *taking*
    /// the trap needs the global enable.
    fn wfi_wakes(&self) -> bool {
        let csrs = self.hart.csrs();
        csrs.read(Csr::Mip) & csrs.read(Csr::Mie) != 0
    }

    fn mem_req(&mut self, op: MemOp, pend: Pend) -> (CoreReq, Pend) {
        let token = self.token();
        (CoreReq { token, op }, pend)
    }

    /// Builds the memory request for an instruction outcome.
    fn outcome_to_req(&mut self, outcome: Outcome) -> Option<(CoreReq, Pend)> {
        match outcome {
            Outcome::Load { addr, size, signed, rd, reserve } => {
                let pend = Pend::Load { rd, size, signed, reserve, addr };
                let op = match self.cfg.addr_map.device_for(addr) {
                    Some(dst) => MemOp::NcLoad { addr, size, dst },
                    None => MemOp::Load { addr, size },
                };
                Some(self.mem_req(op, pend))
            }
            Outcome::Store { addr, size, data } => {
                let op = match self.cfg.addr_map.device_for(addr) {
                    Some(dst) => MemOp::NcStore { addr, size, data, dst },
                    None => MemOp::Store { addr, size, data },
                };
                Some(self.mem_req(op, Pend::Store))
            }
            Outcome::Amo { addr, size, op, val, expected, rd, is_sc } => {
                let noc_op = match op {
                    MemAmoOp::Swap => AmoOp::Swap,
                    MemAmoOp::Add => AmoOp::Add,
                    MemAmoOp::Xor => AmoOp::Xor,
                    MemAmoOp::And => AmoOp::And,
                    MemAmoOp::Or => AmoOp::Or,
                    MemAmoOp::Min => AmoOp::Min,
                    MemAmoOp::Max => AmoOp::Max,
                    MemAmoOp::MinU => AmoOp::MinU,
                    MemAmoOp::MaxU => AmoOp::MaxU,
                    MemAmoOp::Cas => AmoOp::Cas,
                };
                let mem = MemOp::Amo { addr, size, op: noc_op, val, expected };
                Some(self.mem_req(mem, Pend::Amo { rd, size, is_sc, expected }))
            }
            _ => None,
        }
    }

    fn complete(&mut self, pend: Pend, data: u64) {
        match pend {
            Pend::IFetch { dword } => {
                // The pc→bits mapping for this doubleword may change on a
                // refill (e.g. code written by another hart); decoded blocks
                // mirror the I-cache, so they go first.
                self.blocks.invalidate_range(dword, 8);
                let slot = self.icache_slot(dword);
                self.icache[slot] = Some((dword, data));
            }
            Pend::Load { rd, size, signed, reserve, addr } => {
                self.hart.finish_load(rd, data, size, signed, reserve, addr);
                self.retired_loads += 1;
            }
            Pend::Store => self.hart.finish_store(),
            Pend::Amo { rd, size, is_sc, expected } => {
                self.hart.finish_amo(rd, data, size, is_sc, expected);
            }
        }
    }

    fn run_one(&mut self, now: Cycle, tri: &mut dyn Tri) {
        // Deliverable interrupts preempt between instructions.
        if self.hart.take_interrupt().is_some() {
            self.stall += self.cfg.taken_branch_penalty;
            return;
        }
        let pc = self.hart.pc();
        let Some(instr) = self.fetch(pc) else {
            // L1I miss: fetch the doubleword through the BPC.
            let dword = pc & !7;
            let (req, pend) =
                self.mem_req(MemOp::Load { addr: dword, size: 8 }, Pend::IFetch { dword });
            self.state = match tri.try_request(now, req) {
                Ok(()) => State::Wait(self.next_token, pend),
                Err(req) => State::Issue(req, pend),
            };
            return;
        };
        let d = if self.fast_decode { self.blocks.lookup(pc, instr) } else { Hart::decode(instr) };
        let outcome = self.hart.execute_decoded(&d);
        if matches!(d, DecodedOp::Fence { fencei: true }) {
            // fence.i: the guest demands a coherent instruction stream.
            // Flush the L1I and every decoded block (both decode modes, so
            // fast and reference timing stay bit-identical).
            self.icache.iter_mut().for_each(|slot| *slot = None);
            self.blocks.invalidate_all();
        }
        if let Outcome::Store { addr, size, .. } = outcome {
            self.invalidate_code(addr, u64::from(size));
        }
        match outcome {
            Outcome::Retired => {
                let op = instr & 0x7F;
                let taken = self.hart.pc() != pc + 4;
                if op == 0x63 {
                    // Conditional branch: consult and train the BHT; only
                    // mispredictions pay the front-end redirect.
                    self.branches += 1;
                    let slot = ((pc >> 2) as usize) % self.bht.len();
                    let predict_taken = self.cfg.bht_entries > 0 && self.bht[slot] >= 2;
                    if predict_taken != taken {
                        self.mispredicts += 1;
                        self.stall += self.cfg.taken_branch_penalty;
                    }
                    let c = &mut self.bht[slot];
                    *c = if taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
                } else if taken {
                    // Jumps and other redirects always pay (no BTB modeled).
                    self.stall += self.cfg.taken_branch_penalty;
                }
                // Long-latency integer ops.
                let f7 = instr >> 25;
                let f3 = (instr >> 12) & 7;
                if (op == 0x33 || op == 0x3B) && f7 == 1 {
                    self.stall += if f3 >= 4 { self.cfg.div_penalty } else { self.cfg.mul_penalty };
                }
            }
            Outcome::Wfi => self.state = State::Wfi,
            Outcome::Ecall => {
                let a7 = self.hart.reg(17);
                let a0 = self.hart.reg(10);
                match a7 {
                    93 => {
                        self.exit_code = Some(a0);
                        self.state = State::Halted;
                    }
                    1 => {
                        self.console.push(a0 as u8);
                        self.hart.skip_instruction();
                    }
                    _ => {
                        if self.hart.csrs().read(Csr::Mtvec) != 0 {
                            self.hart.raise_ecall();
                        } else {
                            self.exit_code = Some(u64::MAX);
                            self.state = State::Halted;
                        }
                    }
                }
            }
            Outcome::Ebreak => {
                self.exit_code = Some(u64::MAX - 1);
                self.state = State::Halted;
            }
            Outcome::Exception(t) => {
                if self.hart.csrs().read(Csr::Mtvec) != 0 {
                    self.hart.raise(t);
                    self.stall += self.cfg.taken_branch_penalty;
                } else {
                    self.exit_code = Some(u64::MAX - 2);
                    self.state = State::Halted;
                }
            }
            mem => {
                if let Some((req, pend)) = self.outcome_to_req(mem) {
                    self.state = match tri.try_request(now, req) {
                        Ok(()) => State::Wait(self.next_token, pend),
                        Err(req) => State::Issue(req, pend),
                    };
                }
            }
        }
    }
}

impl SaveState for ArianeCore {
    fn save(&self, w: &mut SnapWriter) {
        // The configuration and label are fixed at construction; the block
        // cache and its switch are host-side derived state, rebuilt after
        // restore.
        let Self {
            cfg: _,
            label: _,
            hart,
            icache,
            bht,
            blocks: _,
            fast_decode: _,
            state,
            stall,
            next_token,
            console,
            exit_code,
            retired_loads,
            branches,
            mispredicts,
        } = self;
        hart.save(w);
        icache.pack(w);
        bht.pack(w);
        // State tags: 0=Run, 1=Issue, 2=Wait, 3=Wfi, 4=Halted.
        match state {
            State::Run => w.u8(0),
            State::Issue(req, pend) => {
                w.u8(1);
                req.pack(w);
                pend.pack(w);
            }
            State::Wait(token, pend) => {
                w.u8(2);
                w.u64(*token);
                pend.pack(w);
            }
            State::Wfi => w.u8(3),
            State::Halted => w.u8(4),
        }
        w.u64(*stall);
        w.u64(*next_token);
        w.bytes(console);
        exit_code.pack(w);
        w.u64(*retired_loads);
        w.u64(*branches);
        w.u64(*mispredicts);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.hart.restore(r);
        self.icache = Vec::unpack(r);
        if self.icache.len() != self.cfg.icache_dwords {
            r.corrupt("icache size does not match this core's configuration");
            self.icache = vec![None; self.cfg.icache_dwords];
        }
        let bht = Vec::unpack(r);
        if bht.len() == self.bht.len() {
            self.bht = bht;
        } else {
            r.corrupt("BHT size does not match this core's configuration");
        }
        self.state = match r.u8() {
            0 => State::Run,
            1 => {
                let req = CoreReq::unpack(r);
                let pend = Pend::unpack(r);
                State::Issue(req, pend)
            }
            2 => {
                let token = r.u64();
                let pend = Pend::unpack(r);
                State::Wait(token, pend)
            }
            3 => State::Wfi,
            4 => State::Halted,
            _ => {
                r.corrupt("unknown Ariane state tag");
                State::Run
            }
        };
        self.stall = r.u64();
        self.next_token = r.u64();
        self.console = r.bytes();
        self.exit_code = Option::unpack(r);
        self.retired_loads = r.u64();
        self.branches = r.u64();
        self.mispredicts = r.u64();
        // The block cache is derived state: rebuild it from the restored
        // machine rather than trusting blocks decoded from pre-restore code.
        self.blocks.invalidate_all();
    }
}

impl Engine for ArianeCore {
    fn tick(&mut self, now: Cycle, tri: &mut dyn Tri) {
        if matches!(self.state, State::Halted) {
            return;
        }
        self.hart.csrs_mut().mcycle += 1;
        if self.stall > 0 {
            self.stall -= 1;
            return;
        }
        match std::mem::replace(&mut self.state, State::Run) {
            State::Run => self.run_one(now, tri),
            State::Issue(req, pend) => {
                self.state = match tri.try_request(now, req) {
                    Ok(()) => State::Wait(self.next_token, pend),
                    Err(req) => State::Issue(req, pend),
                };
            }
            State::Wait(token, pend) => match tri.pop_resp() {
                Some(CoreResp { token: t, data }) => {
                    debug_assert_eq!(t, token, "single outstanding transaction");
                    self.complete(pend, data);
                    self.state = State::Run;
                }
                None => self.state = State::Wait(token, pend),
            },
            State::Wfi => {
                if self.wfi_wakes() {
                    // Resume after the wfi (state is already `Run`); with
                    // `mstatus.MIE` set the trap is taken on the spot.
                    self.hart.take_interrupt();
                } else {
                    self.state = State::Wfi;
                }
            }
            State::Halted => unreachable!("checked above"),
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.state, State::Halted)
    }

    fn progress(&self) -> u64 {
        // Retired instructions. Note: a software spin loop retires
        // instructions each iteration, so an Ariane core busy-polling reads
        // as "making progress" — livelock detection for RISC-V workloads
        // relies on the rest of the platform signature going quiet.
        self.hart.csrs().minstret
    }

    fn set_irq(&mut self, line: u16, level: bool) {
        self.hart.csrs_mut().set_mip_bit(u32::from(line), level);
    }

    fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        match self.state {
            // Halted ticks return before touching anything: pure no-ops.
            State::Halted => None,
            // Waiting for a memory response: every tick until the tile
            // delivers one only ages mcycle (and drains any residual stall).
            State::Wait(..) => None,
            // WFI with nothing pending-and-enabled: woken by set_irq only.
            State::Wfi if !self.wfi_wakes() => None,
            // Run dispatches once the stall counter drains, and then stays
            // inside the core for the quiet run: a lower bound on the first
            // cycle it can need the TRI (mul/div penalties only push that
            // cycle out), so sleeping to it is exact.
            State::Run => Some(now + self.stall + self.quiet_run()),
            // Issue (and WFI about to resume) act as soon as the stall
            // counter drains.
            State::Issue(..) | State::Wfi => Some(now + self.stall),
        }
    }

    fn advance_idle(&mut self, delta: u64) {
        match self.state {
            State::Halted => {}
            // A quiet window is executed, lazily and cycle by cycle, by the
            // one per-cycle body there is: architectural state is current at
            // every cycle boundary (an IRQ landing mid-block is taken at its
            // exact cycle), and a TRI access the horizon failed to foresee
            // panics. `now` only ever reaches the TRI.
            State::Run => (0..delta).for_each(|_| self.tick(0, &mut QuietTri)),
            // What `delta` skipped ticks would have done: count the cycles,
            // drain the stall counter.
            _ => {
                self.hart.csrs_mut().mcycle += delta;
                self.stall -= self.stall.min(delta);
            }
        }
    }

    fn set_fast_path(&mut self, on: bool) {
        self.fast_decode = on;
        if !on {
            self.blocks.invalidate_all();
        }
    }

    fn block_cache_stats(&self) -> Option<(u64, u64)> {
        Some(ArianeCore::block_cache_stats(self))
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
    use crate::testkit::Rig;
    use smappic_isa::assemble;
    use smappic_noc::{Gid, NodeId};

    fn boot(src: &str) -> (ArianeCore, Rig) {
        let img = assemble(src, 0x1_0000).expect("assembles");
        let mut rig = Rig::new();
        rig.load_bytes(img.base, &img.bytes);
        let cfg = ArianeConfig::new(0, 0x1_0000, AddrMap::new());
        let mut core = ArianeCore::new(cfg);
        core.hart_mut().set_reg(2, 0x8_0000); // sp
        (core, rig)
    }

    fn run(core: &mut ArianeCore, rig: &mut Rig, max: Cycle) -> Cycle {
        for now in 0..max {
            core.tick(now, rig);
            rig.pump(now);
            if core.is_done() {
                return now;
            }
        }
        panic!("program did not halt within {max} cycles (pc={:#x})", core.hart().pc());
    }

    #[test]
    fn computes_through_the_cache_hierarchy() {
        let (mut core, mut rig) = boot(
            r#"
            li   a0, 0
            li   t0, 1
        loop:
            add  a0, a0, t0
            addi t0, t0, 1
            li   t1, 101
            blt  t0, t1, loop
            li   a7, 93
            ecall
        "#,
        );
        run(&mut core, &mut rig, 100_000);
        assert_eq!(core.exit_code(), Some(5050));
    }

    #[test]
    fn loads_and_stores_hit_memory() {
        let (mut core, mut rig) = boot(
            r#"
            li   t0, 0x2000
            li   t1, 0xABCD
            sd   t1, 0(t0)
            ld   a0, 0(t0)
            li   a7, 93
            ecall
        "#,
        );
        run(&mut core, &mut rig, 100_000);
        assert_eq!(core.exit_code(), Some(0xABCD));
        // The value eventually lands in backing store via writeback...
        // or stays dirty in the BPC; the architectural result is what counts.
    }

    #[test]
    fn debug_console_ecall() {
        let (mut core, mut rig) = boot(
            r#"
            li a0, 72      # 'H'
            li a7, 1
            ecall
            li a0, 105     # 'i'
            ecall
            li a7, 93
            li a0, 0
            ecall
        "#,
        );
        run(&mut core, &mut rig, 100_000);
        assert_eq!(core.console(), b"Hi");
    }

    #[test]
    fn mmio_loads_route_to_devices() {
        let img = assemble(
            r#"
            li   t0, 0xF0000000
            ld   a0, 0(t0)
            li   a7, 93
            ecall
        "#,
            0x1_0000,
        )
        .unwrap();
        let mut rig = Rig::new();
        rig.load_bytes(img.base, &img.bytes);
        let mut map = AddrMap::new();
        map.add_device(0xF000_0000, 0x1000, Gid::tile(NodeId(0), 1));
        let mut core = ArianeCore::new(ArianeConfig::new(0, 0x1_0000, map));
        let t = {
            let mut done = None;
            for now in 0..100_000 {
                core.tick(now, &mut rig);
                rig.pump(now);
                if core.is_done() {
                    done = Some(now);
                    break;
                }
            }
            done.expect("halts")
        };
        let _ = t;
        assert_eq!(core.exit_code(), Some(0x5151), "rig answers NC loads with 0x5151");
        assert_eq!(rig.nc_log.len(), 1);
        assert!(!rig.nc_log[0].0, "it was a load");
        assert_eq!(rig.nc_log[0].1, 0xF000_0000);
    }

    #[test]
    fn wfi_wakes_on_interrupt() {
        let (mut core, mut rig) = boot(
            r#"
            la   t0, handler
            csrw mtvec, t0
            li   t0, 0x80      # MTI enable
            csrw mie, t0
            li   t0, 8         # mstatus.MIE
            csrs mstatus, t0
            wfi
            li   a7, 93        # falls through only if no interrupt taken
            li   a0, 111
            ecall
        handler:
            li   a7, 93
            li   a0, 222
            ecall
        "#,
        );
        let mut fired = false;
        for now in 0..200_000 {
            core.tick(now, &mut rig);
            rig.pump(now);
            if now == 5_000 && !fired {
                // The interrupt depacketizer asserts the timer wire.
                core.set_irq(7, true);
                fired = true;
            }
            if core.is_done() {
                assert_eq!(core.exit_code(), Some(222), "interrupt handler must run");
                return;
            }
        }
        panic!("core never halted");
    }

    #[test]
    fn wfi_resumes_without_trapping_when_mie_is_clear() {
        // The idle-loop idiom: interrupts globally off, `wfi`, then poll.
        // A pending-and-locally-enabled interrupt ends the wait; with
        // mstatus.MIE clear it is not taken and execution falls through.
        let (mut core, mut rig) = boot(
            r#"
            la   t0, handler
            csrw mtvec, t0
            li   t0, 0x80      # MTI enable; mstatus.MIE stays clear
            csrw mie, t0
            wfi
            li   a7, 93
            li   a0, 111
            ecall
        handler:
            li   a7, 93
            li   a0, 222
            ecall
        "#,
        );
        for now in 0..200_000 {
            core.tick(now, &mut rig);
            rig.pump(now);
            if now == 5_000 {
                assert!(matches!(core.state, State::Wfi), "must be parked in wfi by now");
                assert_eq!(core.next_event_after(now + 1), None, "nothing pending: sleeps");
                core.set_irq(7, true);
                assert_eq!(core.next_event_after(now + 1), Some(now + 1), "pending: resumes");
            }
            if core.is_done() {
                assert!(now > 5_000, "wfi must wait for the interrupt");
                assert_eq!(core.exit_code(), Some(111), "MIE clear: resume, do not trap");
                return;
            }
        }
        panic!("core slept through a pending, locally enabled interrupt");
    }

    #[test]
    fn snapshot_restore_reproduces_identical_bytes() {
        use smappic_sim::{SnapReader, SnapWriter, Snapshot};

        let src = r#"
            li   t0, 0x2000
            li   t1, 0
            li   t2, 2000
        loop:
            sd   t1, 0(t0)
            ld   t3, 0(t0)
            addi t1, t1, 1
            blt  t1, t2, loop
            li   a7, 93
            ecall
        "#;
        let (mut core, mut rig) = boot(src);
        // Stop mid-loop: in-flight pipeline state, warm BHT and I-cache.
        for now in 0..700 {
            core.tick(now, &mut rig);
            rig.pump(now);
        }
        assert!(!core.is_done(), "must snapshot mid-program");

        let mut w = SnapWriter::new();
        w.scoped("engine", |w| core.save(w));
        let snap = Snapshot::new(1, 700, w);

        let img = assemble(src, 0x1_0000).unwrap();
        let _ = img;
        let mut core2 = ArianeCore::new(ArianeConfig::new(0, 0x1_0000, AddrMap::new()));
        let mut r = SnapReader::new(&snap);
        r.scoped("engine", |r| core2.restore(r));
        r.finish().expect("clean restore");

        assert_eq!(core2.hart().pc(), core.hart().pc());
        assert_eq!(core2.hart().csrs().minstret, core.hart().csrs().minstret);
        assert_eq!(core2.branch_stats(), core.branch_stats());

        // A re-save of the restored core must reproduce the exact bytes:
        // restore consumed every field and lost nothing.
        let mut w2 = SnapWriter::new();
        w2.scoped("engine", |w| core2.save(w));
        let snap2 = Snapshot::new(1, 700, w2);
        assert_eq!(snap, snap2, "save/restore/save must be a fixed point");
    }

    #[test]
    fn bht_learns_a_hot_loop() {
        let (mut core, mut rig) = boot(
            r#"
            li t0, 0
            li t1, 200
        loop:
            addi t0, t0, 1
            blt  t0, t1, loop
            li a7, 93
            ecall
        "#,
        );
        run(&mut core, &mut rig, 200_000);
        let (branches, miss) = core.branch_stats();
        assert_eq!(branches, 200);
        // A 2-bit counter mispredicts the first couple and the exit; a hot
        // loop must be overwhelmingly predicted.
        assert!(miss <= 5, "BHT should learn the loop: {miss}/{branches} mispredicted");
    }

    #[test]
    fn disabling_the_bht_costs_cycles() {
        let src = r#"
            li t0, 0
            li t1, 300
        loop:
            addi t0, t0, 1
            blt  t0, t1, loop
            li a7, 93
            ecall
        "#;
        let run_with = |bht: usize| -> u64 {
            let img = assemble(src, 0x1_0000).unwrap();
            let mut rig = Rig::new();
            rig.load_bytes(img.base, &img.bytes);
            let mut cfg = ArianeConfig::new(0, 0x1_0000, AddrMap::new());
            cfg.bht_entries = bht;
            let mut core = ArianeCore::new(cfg);
            run(&mut core, &mut rig, 200_000)
        };
        let with = run_with(128);
        let without = run_with(0);
        assert!(
            without > with + 300,
            "no-BHT ({without}) must pay ~2 cycles per taken branch over BHT ({with})"
        );
    }

    #[test]
    fn ipc_is_near_one_for_arithmetic() {
        let (mut core, mut rig) = boot(
            r#"
            li t0, 0
            li t1, 0
            li t2, 0
            addi t0, t0, 1
            addi t1, t1, 2
            addi t2, t2, 3
            add  t0, t0, t1
            add  t1, t1, t2
            add  t2, t2, t0
            xor  t0, t0, t1
            or   t1, t1, t2
            and  t2, t2, t0
            li a7, 93
            ecall
        "#,
        );
        let cycles = run(&mut core, &mut rig, 100_000);
        let instret = core.hart().csrs().minstret;
        // Some cycles go to I-cache miss fills; but the loop body should
        // retire near 1 IPC: total cycles within 4x instruction count.
        assert!(cycles < instret * 4, "IPC too low: {instret} instructions in {cycles} cycles");
    }
}

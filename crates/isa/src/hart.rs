//! The RV64IMA_Zicsr architectural state machine.

use crate::csr::{Csr, CsrFile};

/// Atomic operations surfaced to the memory system (mirrors the NoC's
/// near-directory AMO set; the tile layer maps between the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum MemAmoOp {
    Swap,
    Add,
    Xor,
    And,
    Or,
    Min,
    Max,
    MinU,
    MaxU,
    /// Compare-and-swap, used to implement SC.
    Cas,
}

/// Synchronous exceptions the interpreter can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Unknown or unsupported encoding (the raw instruction is attached).
    IllegalInstruction(u32),
    /// Load address not naturally aligned.
    LoadMisaligned(u64),
    /// Store/AMO address not naturally aligned.
    StoreMisaligned(u64),
}

impl Trap {
    /// The mcause exception code.
    pub fn cause(self) -> u64 {
        match self {
            Trap::IllegalInstruction(_) => 2,
            Trap::LoadMisaligned(_) => 4,
            Trap::StoreMisaligned(_) => 6,
        }
    }

    /// The mtval value.
    pub fn tval(self) -> u64 {
        match self {
            Trap::IllegalInstruction(i) => u64::from(i),
            Trap::LoadMisaligned(a) | Trap::StoreMisaligned(a) => a,
        }
    }
}

/// What an instruction needs from the outside world.
///
/// `Retired` means the instruction fully completed (pc already advanced).
/// Memory outcomes leave a writeback pending; the wrapper performs the
/// access and calls the matching `finish_*` method before executing the
/// next instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Instruction completed; fetch the next one.
    Retired,
    /// A load is required.
    Load {
        /// Byte address.
        addr: u64,
        /// Access width (1/2/4/8).
        size: u8,
        /// Sign-extend the loaded value into rd.
        signed: bool,
        /// Destination register.
        rd: u8,
        /// This is an LR: record a reservation on completion.
        reserve: bool,
    },
    /// A store is required (no writeback).
    Store {
        /// Byte address.
        addr: u64,
        /// Access width.
        size: u8,
        /// Data in the low `size` bytes.
        data: u64,
    },
    /// An atomic read-modify-write is required.
    Amo {
        /// Byte address.
        addr: u64,
        /// Access width (4/8).
        size: u8,
        /// Operation.
        op: MemAmoOp,
        /// Operand value.
        val: u64,
        /// Expected value (CAS only; used by SC).
        expected: u64,
        /// Destination register.
        rd: u8,
        /// True when this AMO implements SC (rd gets 0/1, not the old
        /// value).
        is_sc: bool,
    },
    /// WFI: stall until an interrupt is pending.
    Wfi,
    /// ECALL at the current pc (not yet advanced); the wrapper decides
    /// between a host call and an architectural trap.
    Ecall,
    /// EBREAK at the current pc.
    Ebreak,
    /// A synchronous exception; the wrapper calls [`Hart::raise`].
    Exception(Trap),
}

/// One RV64IMA_Zicsr hart: registers, pc, CSRs, and an LR/SC reservation.
///
/// See the crate docs for the split-transaction driving protocol.
#[derive(Debug, Clone)]
pub struct Hart {
    regs: [u64; 32],
    pc: u64,
    csrs: CsrFile,
    /// LR reservation: (address, value observed). SC succeeds iff memory
    /// still holds the observed value (CAS; ABA-tolerant, documented).
    reservation: Option<(u64, u64)>,
}

impl Hart {
    /// Creates a hart with the given ID and reset pc.
    pub fn new(hartid: u64, reset_pc: u64) -> Self {
        Self { regs: [0; 32], pc: reset_pc, csrs: CsrFile::new(hartid), reservation: None }
    }

    /// Current program counter (the next fetch address).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Reads register `x{i}`.
    pub fn reg(&self, i: usize) -> u64 {
        self.regs[i]
    }

    /// Writes register `x{i}` (x0 stays zero).
    pub fn set_reg(&mut self, i: usize, v: u64) {
        if i != 0 {
            self.regs[i] = v;
        }
    }

    /// The CSR file (for interrupt wires and counters).
    pub fn csrs_mut(&mut self) -> &mut CsrFile {
        &mut self.csrs
    }

    /// Read-only CSR access.
    pub fn csrs(&self) -> &CsrFile {
        &self.csrs
    }

    /// Takes the highest-priority pending interrupt if one is deliverable,
    /// redirecting the pc to the trap vector. Returns the cause taken.
    pub fn take_interrupt(&mut self) -> Option<u64> {
        let cause = self.csrs.pending_interrupt()?;
        self.pc = self.csrs.enter_trap(self.pc, cause, true, 0);
        Some(cause)
    }

    /// Raises a synchronous exception at the current pc.
    pub fn raise(&mut self, trap: Trap) {
        self.pc = self.csrs.enter_trap(self.pc, trap.cause(), false, trap.tval());
    }

    /// Raises an environment call exception (when the wrapper routes ECALL
    /// architecturally instead of treating it as a host call).
    pub fn raise_ecall(&mut self) {
        self.pc = self.csrs.enter_trap(self.pc, 11, false, 0);
    }

    /// Skips the current instruction (used by host-call conventions to
    /// step past an ECALL).
    pub fn skip_instruction(&mut self) {
        self.pc += 4;
    }

    /// Completes a pending [`Outcome::Load`].
    pub fn finish_load(
        &mut self,
        rd: u8,
        raw: u64,
        size: u8,
        signed: bool,
        reserve: bool,
        addr: u64,
    ) {
        let v = extend(raw, size, signed);
        self.set_reg(rd as usize, v);
        if reserve {
            self.reservation = Some((addr, raw & mask(size)));
        }
        self.csrs.minstret += 1;
    }

    /// Completes a pending [`Outcome::Store`].
    pub fn finish_store(&mut self) {
        self.csrs.minstret += 1;
    }

    /// Completes a pending [`Outcome::Amo`]: `old` is the prior memory
    /// value (masked to the access width).
    pub fn finish_amo(&mut self, rd: u8, old: u64, size: u8, is_sc: bool, expected: u64) {
        if is_sc {
            let success = (old & mask(size)) == (expected & mask(size));
            self.set_reg(rd as usize, u64::from(!success));
        } else {
            self.set_reg(rd as usize, extend(old, size, true));
        }
        self.csrs.minstret += 1;
    }

    /// Decodes and executes one instruction. The pc advances for
    /// everything except exceptions, ECALL, EBREAK, and WFI.
    ///
    /// This is exactly `execute_decoded(&Hart::decode(instr))` — the plain
    /// interpreter and the decoded-block fast path share one semantic
    /// implementation, so they cannot drift apart.
    pub fn execute(&mut self, instr: u32) -> Outcome {
        self.execute_decoded(&Self::decode(instr))
    }

    /// Pre-decodes one instruction into its semantic form.
    ///
    /// Pure function of the 32 raw bits: register reads, pc arithmetic,
    /// alignment checks, and reservation state all stay dynamic in
    /// [`Hart::execute_decoded`], so a [`DecodedOp`] can be cached and
    /// replayed any number of times.
    pub fn decode(instr: u32) -> DecodedOp {
        let rd = ((instr >> 7) & 0x1F) as u8;
        let rs1 = ((instr >> 15) & 0x1F) as u8;
        let rs2 = ((instr >> 20) & 0x1F) as u8;
        let f3 = (instr >> 12) & 0x7;
        let f7 = instr >> 25;
        match instr & 0x7F {
            0x37 => DecodedOp::Lui { rd, imm: imm_u(instr) },
            0x17 => DecodedOp::Auipc { rd, imm: imm_u(instr) },
            0x6F => DecodedOp::Jal { rd, off: imm_j(instr) },
            0x67 => DecodedOp::Jalr { rd, rs1, imm: imm_i(instr) },
            0x63 => {
                let cond = match f3 {
                    0 => BranchCond::Eq,
                    1 => BranchCond::Ne,
                    4 => BranchCond::Lt,
                    5 => BranchCond::Ge,
                    6 => BranchCond::Ltu,
                    7 => BranchCond::Geu,
                    _ => return DecodedOp::Illegal(instr),
                };
                DecodedOp::Branch { cond, rs1, rs2, off: imm_b(instr) }
            }
            0x03 => {
                let (size, signed) = match f3 {
                    0 => (1, true),
                    1 => (2, true),
                    2 => (4, true),
                    3 => (8, true),
                    4 => (1, false),
                    5 => (2, false),
                    6 => (4, false),
                    _ => return DecodedOp::Illegal(instr),
                };
                DecodedOp::Load { rd, rs1, imm: imm_i(instr), size, signed }
            }
            0x23 => {
                let size = match f3 {
                    0 => 1,
                    1 => 2,
                    2 => 4,
                    3 => 8,
                    _ => return DecodedOp::Illegal(instr),
                };
                DecodedOp::Store { rs1, rs2, imm: imm_s(instr), size }
            }
            0x13 => {
                let shamt = u64::from((instr >> 20) & 0x3F);
                let (f, imm) = match f3 {
                    0 => (AluImmOp::Add, imm_i(instr)),
                    1 if f7 >> 1 == 0 => (AluImmOp::Sll, shamt),
                    2 => (AluImmOp::Slt, imm_i(instr)),
                    3 => (AluImmOp::Sltu, imm_i(instr)),
                    4 => (AluImmOp::Xor, imm_i(instr)),
                    5 if instr >> 26 == 0 => (AluImmOp::Srl, shamt),
                    5 if instr >> 26 == 0x10 => (AluImmOp::Sra, shamt),
                    6 => (AluImmOp::Or, imm_i(instr)),
                    7 => (AluImmOp::And, imm_i(instr)),
                    _ => return DecodedOp::Illegal(instr),
                };
                DecodedOp::AluImm { f, rd, rs1, imm }
            }
            0x1B => {
                let shamt = u64::from((instr >> 20) & 0x1F);
                let (f, imm) = match (f3, f7) {
                    (0, _) => (AluImmOp::AddW, imm_i(instr)),
                    (1, 0) => (AluImmOp::SllW, shamt),
                    (5, 0) => (AluImmOp::SrlW, shamt),
                    (5, 0x20) => (AluImmOp::SraW, shamt),
                    _ => return DecodedOp::Illegal(instr),
                };
                DecodedOp::AluImm { f, rd, rs1, imm }
            }
            0x33 => {
                let f = match (f3, f7) {
                    (0, 0x00) => AluOp::Add,
                    (0, 0x20) => AluOp::Sub,
                    (0, 0x01) => AluOp::Mul,
                    (1, 0x00) => AluOp::Sll,
                    (1, 0x01) => AluOp::Mulh,
                    (2, 0x00) => AluOp::Slt,
                    (2, 0x01) => AluOp::Mulhsu,
                    (3, 0x00) => AluOp::Sltu,
                    (3, 0x01) => AluOp::Mulhu,
                    (4, 0x00) => AluOp::Xor,
                    (4, 0x01) => AluOp::Div,
                    (5, 0x00) => AluOp::Srl,
                    (5, 0x20) => AluOp::Sra,
                    (5, 0x01) => AluOp::Divu,
                    (6, 0x00) => AluOp::Or,
                    (6, 0x01) => AluOp::Rem,
                    (7, 0x00) => AluOp::And,
                    (7, 0x01) => AluOp::Remu,
                    _ => return DecodedOp::Illegal(instr),
                };
                DecodedOp::Alu { f, rd, rs1, rs2 }
            }
            0x3B => {
                let f = match (f3, f7) {
                    (0, 0x00) => AluOp::AddW,
                    (0, 0x20) => AluOp::SubW,
                    (0, 0x01) => AluOp::MulW,
                    (1, 0x00) => AluOp::SllW,
                    (4, 0x01) => AluOp::DivW,
                    (5, 0x00) => AluOp::SrlW,
                    (5, 0x20) => AluOp::SraW,
                    (5, 0x01) => AluOp::DivuW,
                    (6, 0x01) => AluOp::RemW,
                    (7, 0x01) => AluOp::RemuW,
                    _ => return DecodedOp::Illegal(instr),
                };
                DecodedOp::Alu { f, rd, rs1, rs2 }
            }
            // FENCE / FENCE.I: our per-hart memory pipeline is in-order and
            // blocking, so fences retire as architectural no-ops (FENCE.I
            // additionally flushes the wrapper's instruction caches).
            0x0F => DecodedOp::Fence { fencei: f3 == 1 },
            0x2F => {
                let size = match f3 {
                    2 => 4u8,
                    3 => 8u8,
                    _ => return DecodedOp::Illegal(instr),
                };
                match f7 >> 2 {
                    0x02 => DecodedOp::Lr { rd, rs1, size },
                    0x03 => DecodedOp::Sc { rd, rs1, rs2, size },
                    funct5 => {
                        let op = match funct5 {
                            0x01 => MemAmoOp::Swap,
                            0x00 => MemAmoOp::Add,
                            0x04 => MemAmoOp::Xor,
                            0x0C => MemAmoOp::And,
                            0x08 => MemAmoOp::Or,
                            0x10 => MemAmoOp::Min,
                            0x14 => MemAmoOp::Max,
                            0x18 => MemAmoOp::MinU,
                            0x1C => MemAmoOp::MaxU,
                            // The alignment check still precedes the
                            // illegal-funct5 trap, matching hardware
                            // priority — this needs a dedicated variant.
                            _ => return DecodedOp::AmoIllegal { raw: instr, rs1, size },
                        };
                        DecodedOp::Amo { op, rd, rs1, rs2, size }
                    }
                }
            }
            0x73 => match f3 {
                0 => match instr {
                    0x0000_0073 => DecodedOp::Ecall,
                    0x0010_0073 => DecodedOp::Ebreak,
                    0x3020_0073 => DecodedOp::Mret,
                    0x1050_0073 => DecodedOp::Wfi,
                    _ => DecodedOp::Illegal(instr),
                },
                1..=3 | 5..=7 => {
                    let Some(csr) = Csr::from_addr(instr >> 20) else {
                        return DecodedOp::Illegal(instr);
                    };
                    DecodedOp::Csr { csr, rd, rs1, kind: (f3 & 3) as u8, uimm: f3 >= 5 }
                }
                _ => DecodedOp::Illegal(instr),
            },
            _ => DecodedOp::Illegal(instr),
        }
    }

    /// Executes one pre-decoded instruction (see [`Hart::decode`]).
    pub fn execute_decoded(&mut self, d: &DecodedOp) -> Outcome {
        macro_rules! retire {
            ($rd:expr, $e:expr) => {{
                self.set_reg($rd as usize, $e);
                self.pc += 4;
                self.csrs.minstret += 1;
                Outcome::Retired
            }};
        }

        match *d {
            DecodedOp::Lui { rd, imm } => retire!(rd, imm),
            DecodedOp::Auipc { rd, imm } => retire!(rd, self.pc.wrapping_add(imm)),
            DecodedOp::Jal { rd, off } => {
                let target = self.pc.wrapping_add(off);
                let link = self.pc + 4;
                self.set_reg(rd as usize, link);
                self.pc = target;
                self.csrs.minstret += 1;
                Outcome::Retired
            }
            DecodedOp::Jalr { rd, rs1, imm } => {
                let target = self.regs[rs1 as usize].wrapping_add(imm) & !1;
                let link = self.pc + 4;
                self.set_reg(rd as usize, link);
                self.pc = target;
                self.csrs.minstret += 1;
                Outcome::Retired
            }
            DecodedOp::Branch { cond, rs1, rs2, off } => {
                let (x1, x2) = (self.regs[rs1 as usize], self.regs[rs2 as usize]);
                let taken = match cond {
                    BranchCond::Eq => x1 == x2,
                    BranchCond::Ne => x1 != x2,
                    BranchCond::Lt => (x1 as i64) < (x2 as i64),
                    BranchCond::Ge => (x1 as i64) >= (x2 as i64),
                    BranchCond::Ltu => x1 < x2,
                    BranchCond::Geu => x1 >= x2,
                };
                self.pc = if taken { self.pc.wrapping_add(off) } else { self.pc + 4 };
                self.csrs.minstret += 1;
                Outcome::Retired
            }
            DecodedOp::Load { rd, rs1, imm, size, signed } => {
                let addr = self.regs[rs1 as usize].wrapping_add(imm);
                if !addr.is_multiple_of(u64::from(size)) {
                    return Outcome::Exception(Trap::LoadMisaligned(addr));
                }
                self.pc += 4;
                Outcome::Load { addr, size, signed, rd, reserve: false }
            }
            DecodedOp::Store { rs1, rs2, imm, size } => {
                let addr = self.regs[rs1 as usize].wrapping_add(imm);
                if !addr.is_multiple_of(u64::from(size)) {
                    return Outcome::Exception(Trap::StoreMisaligned(addr));
                }
                self.pc += 4;
                Outcome::Store { addr, size, data: self.regs[rs2 as usize] & mask(size) }
            }
            DecodedOp::AluImm { f, rd, rs1, imm } => {
                let x1 = self.regs[rs1 as usize];
                let v = match f {
                    AluImmOp::Add => x1.wrapping_add(imm),
                    AluImmOp::Sll => x1 << imm,
                    AluImmOp::Slt => u64::from((x1 as i64) < (imm as i64)),
                    AluImmOp::Sltu => u64::from(x1 < imm),
                    AluImmOp::Xor => x1 ^ imm,
                    AluImmOp::Srl => x1 >> imm,
                    AluImmOp::Sra => ((x1 as i64) >> imm) as u64,
                    AluImmOp::Or => x1 | imm,
                    AluImmOp::And => x1 & imm,
                    AluImmOp::AddW => ((x1 as u32).wrapping_add(imm as u32) as i32 as i64) as u64,
                    AluImmOp::SllW => (((x1 as u32) << imm) as i32 as i64) as u64,
                    AluImmOp::SrlW => (((x1 as u32) >> imm) as i32 as i64) as u64,
                    AluImmOp::SraW => ((((x1 as u32) as i32) >> imm) as i64) as u64,
                };
                retire!(rd, v)
            }
            DecodedOp::Alu { f, rd, rs1, rs2 } => {
                let (x1, x2) = (self.regs[rs1 as usize], self.regs[rs2 as usize]);
                let (w1, w2) = (x1 as u32, x2 as u32);
                let v = match f {
                    AluOp::Add => x1.wrapping_add(x2),
                    AluOp::Sub => x1.wrapping_sub(x2),
                    AluOp::Mul => x1.wrapping_mul(x2),
                    AluOp::Sll => x1 << (x2 & 0x3F),
                    AluOp::Mulh => (((x1 as i64 as i128) * (x2 as i64 as i128)) >> 64) as u64,
                    AluOp::Slt => u64::from((x1 as i64) < (x2 as i64)),
                    AluOp::Mulhsu => (((x1 as i64 as i128) * (x2 as i128)) >> 64) as u64,
                    AluOp::Sltu => u64::from(x1 < x2),
                    AluOp::Mulhu => ((u128::from(x1) * u128::from(x2)) >> 64) as u64,
                    AluOp::Xor => x1 ^ x2,
                    AluOp::Div => div_s(x1 as i64, x2 as i64) as u64,
                    AluOp::Srl => x1 >> (x2 & 0x3F),
                    AluOp::Sra => ((x1 as i64) >> (x2 & 0x3F)) as u64,
                    AluOp::Divu => x1.checked_div(x2).unwrap_or(u64::MAX),
                    AluOp::Or => x1 | x2,
                    AluOp::Rem => rem_s(x1 as i64, x2 as i64) as u64,
                    AluOp::And => x1 & x2,
                    AluOp::Remu => {
                        if x2 == 0 {
                            x1
                        } else {
                            x1 % x2
                        }
                    }
                    AluOp::AddW => (w1.wrapping_add(w2) as i32 as i64) as u64,
                    AluOp::SubW => (w1.wrapping_sub(w2) as i32 as i64) as u64,
                    AluOp::MulW => (w1.wrapping_mul(w2) as i32 as i64) as u64,
                    AluOp::SllW => ((w1 << (w2 & 0x1F)) as i32 as i64) as u64,
                    AluOp::DivW => (div_s32(w1 as i32, w2 as i32) as i64) as u64,
                    AluOp::SrlW => ((w1 >> (w2 & 0x1F)) as i32 as i64) as u64,
                    AluOp::SraW => (((w1 as i32) >> (w2 & 0x1F)) as i64) as u64,
                    AluOp::DivuW => (w1.checked_div(w2).unwrap_or(u32::MAX) as i32 as i64) as u64,
                    AluOp::RemW => (rem_s32(w1 as i32, w2 as i32) as i64) as u64,
                    AluOp::RemuW => {
                        let r = if w2 == 0 { w1 } else { w1 % w2 };
                        (r as i32 as i64) as u64
                    }
                };
                retire!(rd, v)
            }
            DecodedOp::Fence { .. } => {
                self.pc += 4;
                self.csrs.minstret += 1;
                Outcome::Retired
            }
            DecodedOp::Lr { rd, rs1, size } => {
                let addr = self.regs[rs1 as usize];
                if !addr.is_multiple_of(u64::from(size)) {
                    return Outcome::Exception(Trap::StoreMisaligned(addr));
                }
                self.pc += 4;
                Outcome::Load { addr, size, signed: true, rd, reserve: true }
            }
            DecodedOp::Sc { rd, rs1, rs2, size } => {
                let addr = self.regs[rs1 as usize];
                if !addr.is_multiple_of(u64::from(size)) {
                    return Outcome::Exception(Trap::StoreMisaligned(addr));
                }
                let x2 = self.regs[rs2 as usize];
                self.pc += 4;
                match self.reservation.take() {
                    Some((raddr, rval)) if raddr == addr => Outcome::Amo {
                        addr,
                        size,
                        op: MemAmoOp::Cas,
                        val: x2 & mask(size),
                        expected: rval,
                        rd,
                        is_sc: true,
                    },
                    _ => {
                        // No valid reservation: fail without touching memory.
                        self.set_reg(rd as usize, 1);
                        self.csrs.minstret += 1;
                        Outcome::Retired
                    }
                }
            }
            DecodedOp::Amo { op, rd, rs1, rs2, size } => {
                let addr = self.regs[rs1 as usize];
                if !addr.is_multiple_of(u64::from(size)) {
                    return Outcome::Exception(Trap::StoreMisaligned(addr));
                }
                let x2 = self.regs[rs2 as usize];
                self.pc += 4;
                Outcome::Amo { addr, size, op, val: x2 & mask(size), expected: 0, rd, is_sc: false }
            }
            DecodedOp::AmoIllegal { raw, rs1, size } => {
                let addr = self.regs[rs1 as usize];
                if !addr.is_multiple_of(u64::from(size)) {
                    return Outcome::Exception(Trap::StoreMisaligned(addr));
                }
                Outcome::Exception(Trap::IllegalInstruction(raw))
            }
            DecodedOp::Ecall => Outcome::Ecall,
            DecodedOp::Ebreak => Outcome::Ebreak,
            DecodedOp::Mret => {
                self.pc = self.csrs.mret();
                self.csrs.minstret += 1;
                Outcome::Retired
            }
            DecodedOp::Wfi => {
                // WFI: pc advances; the wrapper idles.
                self.pc += 4;
                self.csrs.minstret += 1;
                Outcome::Wfi
            }
            DecodedOp::Csr { csr, rd, rs1, kind, uimm } => {
                let old = self.csrs.read(csr);
                let src = if uimm { u64::from(rs1) } else { self.regs[rs1 as usize] };
                let new = match kind {
                    1 => Some(src),                        // CSRRW(I)
                    2 => (src != 0).then_some(old | src),  // CSRRS(I)
                    3 => (src != 0).then_some(old & !src), // CSRRC(I)
                    _ => unreachable!(),
                };
                if let Some(v) = new {
                    self.csrs.write(csr, v);
                }
                self.set_reg(rd as usize, old);
                self.pc += 4;
                self.csrs.minstret += 1;
                Outcome::Retired
            }
            DecodedOp::Illegal(raw) => Outcome::Exception(Trap::IllegalInstruction(raw)),
        }
    }
}

/// Branch comparison selector for [`DecodedOp::Branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Register-register ALU function selector (RV64 OP and OP-32 spaces,
/// including the M extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Sll,
    Mulh,
    Slt,
    Mulhsu,
    Sltu,
    Mulhu,
    Xor,
    Div,
    Srl,
    Sra,
    Divu,
    Or,
    Rem,
    And,
    Remu,
    AddW,
    SubW,
    MulW,
    SllW,
    DivW,
    SrlW,
    SraW,
    DivuW,
    RemW,
    RemuW,
}

/// Immediate ALU function selector (OP-IMM and OP-IMM-32 spaces). Shift
/// variants carry the shamt in the `imm` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluImmOp {
    Add,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    AddW,
    SllW,
    SrlW,
    SraW,
}

/// One pre-decoded instruction: everything the interpreter can learn from
/// the raw bits alone, with register reads and dynamic checks deferred to
/// [`Hart::execute_decoded`].
///
/// `Copy` and small by design — decoded basic blocks store these by value
/// and replay them straight-line without re-matching encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum DecodedOp {
    Lui {
        rd: u8,
        imm: u64,
    },
    Auipc {
        rd: u8,
        imm: u64,
    },
    Jal {
        rd: u8,
        off: u64,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        imm: u64,
    },
    Branch {
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        off: u64,
    },
    Load {
        rd: u8,
        rs1: u8,
        imm: u64,
        size: u8,
        signed: bool,
    },
    Store {
        rs1: u8,
        rs2: u8,
        imm: u64,
        size: u8,
    },
    Alu {
        f: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    AluImm {
        f: AluImmOp,
        rd: u8,
        rs1: u8,
        imm: u64,
    },
    Fence {
        fencei: bool,
    },
    Lr {
        rd: u8,
        rs1: u8,
        size: u8,
    },
    Sc {
        rd: u8,
        rs1: u8,
        rs2: u8,
        size: u8,
    },
    Amo {
        op: MemAmoOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
        size: u8,
    },
    /// Reserved AMO funct5 with a valid width: alignment still traps first.
    AmoIllegal {
        raw: u32,
        rs1: u8,
        size: u8,
    },
    Ecall,
    Ebreak,
    Mret,
    Wfi,
    Csr {
        csr: Csr,
        rd: u8,
        rs1: u8,
        kind: u8,
        uimm: bool,
    },
    Illegal(u32),
}

impl DecodedOp {
    /// True when this op ends a decoded basic block: anything that can
    /// redirect the pc or change instruction memory semantics (branches,
    /// jumps, traps, system ops, fences). Straight-line ALU and memory ops
    /// continue the block.
    pub fn ends_block(&self) -> bool {
        matches!(
            self,
            DecodedOp::Jal { .. }
                | DecodedOp::Jalr { .. }
                | DecodedOp::Branch { .. }
                | DecodedOp::Fence { .. }
                | DecodedOp::AmoIllegal { .. }
                | DecodedOp::Ecall
                | DecodedOp::Ebreak
                | DecodedOp::Mret
                | DecodedOp::Wfi
                | DecodedOp::Illegal(_)
        )
    }
}

impl smappic_sim::SaveState for Hart {
    fn save(&self, w: &mut smappic_sim::SnapWriter) {
        for reg in &self.regs {
            w.u64(*reg);
        }
        w.u64(self.pc);
        self.csrs.save(w);
        smappic_sim::Pack::pack(&self.reservation, w);
    }

    fn restore(&mut self, r: &mut smappic_sim::SnapReader) {
        for reg in &mut self.regs {
            *reg = r.u64();
        }
        self.regs[0] = 0; // x0 is hardwired
        self.pc = r.u64();
        self.csrs.restore(r);
        self.reservation = <Option<(u64, u64)> as smappic_sim::Pack>::unpack(r);
    }
}

fn mask(size: u8) -> u64 {
    match size {
        8 => u64::MAX,
        _ => (1u64 << (8 * size)) - 1,
    }
}

fn extend(raw: u64, size: u8, signed: bool) -> u64 {
    let raw = raw & mask(size);
    if !signed || size == 8 {
        return raw;
    }
    let shift = 64 - 8 * u32::from(size);
    (((raw << shift) as i64) >> shift) as u64
}

fn div_s(a: i64, b: i64) -> i64 {
    if b == 0 {
        -1
    } else if a == i64::MIN && b == -1 {
        i64::MIN
    } else {
        a / b
    }
}

fn rem_s(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else if a == i64::MIN && b == -1 {
        0
    } else {
        a % b
    }
}

fn div_s32(a: i32, b: i32) -> i32 {
    if b == 0 {
        -1
    } else if a == i32::MIN && b == -1 {
        i32::MIN
    } else {
        a / b
    }
}

fn rem_s32(a: i32, b: i32) -> i32 {
    if b == 0 {
        a
    } else if a == i32::MIN && b == -1 {
        0
    } else {
        a % b
    }
}

fn imm_i(instr: u32) -> u64 {
    ((instr as i32) >> 20) as i64 as u64
}

fn imm_s(instr: u32) -> u64 {
    let v = (((instr >> 25) << 5) | ((instr >> 7) & 0x1F)) as i32;
    ((v << 20) >> 20) as i64 as u64
}

fn imm_b(instr: u32) -> u64 {
    let v = (((instr >> 31) & 1) << 12)
        | (((instr >> 7) & 1) << 11)
        | (((instr >> 25) & 0x3F) << 5)
        | (((instr >> 8) & 0xF) << 1);
    (((v as i32) << 19) >> 19) as i64 as u64
}

fn imm_u(instr: u32) -> u64 {
    (instr & 0xFFFF_F000) as i32 as i64 as u64
}

fn imm_j(instr: u32) -> u64 {
    let v = (((instr >> 31) & 1) << 20)
        | (((instr >> 12) & 0xFF) << 12)
        | (((instr >> 20) & 1) << 11)
        | (((instr >> 21) & 0x3FF) << 1);
    (((v as i32) << 11) >> 11) as i64 as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediates_sign_extend() {
        // addi x1, x0, -1 = 0xFFF00093
        assert_eq!(imm_i(0xFFF0_0093), u64::MAX);
        // lui x1, 0xFFFFF (negative upper immediate)
        assert_eq!(imm_u(0xFFFF_F0B7), 0xFFFF_FFFF_FFFF_F000);
    }

    #[test]
    fn x0_is_hardwired() {
        let mut h = Hart::new(0, 0);
        // addi x0, x0, 5
        h.execute(0x0050_0013);
        assert_eq!(h.reg(0), 0);
    }

    #[test]
    fn add_sub_work() {
        let mut h = Hart::new(0, 0);
        h.set_reg(1, 10);
        h.set_reg(2, 3);
        // add x3, x1, x2
        assert_eq!(h.execute(0x0020_81B3), Outcome::Retired);
        assert_eq!(h.reg(3), 13);
        // sub x4, x1, x2
        h.execute(0x4020_8233);
        assert_eq!(h.reg(4), 7);
    }

    #[test]
    fn load_yields_split_transaction() {
        let mut h = Hart::new(0, 0x100);
        h.set_reg(1, 0x2000);
        // lw x5, 4(x1)
        let o = h.execute(0x0040_A283);
        assert_eq!(o, Outcome::Load { addr: 0x2004, size: 4, signed: true, rd: 5, reserve: false });
        assert_eq!(h.pc(), 0x104, "pc advances past the load");
        h.finish_load(5, 0xFFFF_FFFF, 4, true, false, 0x2004);
        assert_eq!(h.reg(5), u64::MAX, "lw sign-extends");
    }

    #[test]
    fn misaligned_load_traps() {
        let mut h = Hart::new(0, 0x100);
        h.set_reg(1, 0x2001);
        // lw x5, 0(x1)
        let o = h.execute(0x0000_A283);
        assert_eq!(o, Outcome::Exception(Trap::LoadMisaligned(0x2001)));
        assert_eq!(h.pc(), 0x100, "pc unchanged on exception");
    }

    #[test]
    fn division_edge_cases() {
        let mut h = Hart::new(0, 0);
        h.set_reg(1, 7);
        h.set_reg(2, 0);
        // div x3, x1, x2 → -1
        h.execute(0x0220_C1B3);
        assert_eq!(h.reg(3) as i64, -1);
        // rem x4, x1, x2 → 7
        h.execute(0x0220_E233);
        assert_eq!(h.reg(4), 7);
        // i64::MIN / -1 → i64::MIN
        h.set_reg(1, i64::MIN as u64);
        h.set_reg(2, u64::MAX);
        h.execute(0x0220_C1B3);
        assert_eq!(h.reg(3), i64::MIN as u64);
    }

    #[test]
    fn mulh_variants() {
        let mut h = Hart::new(0, 0);
        h.set_reg(1, u64::MAX); // -1 signed
        h.set_reg(2, u64::MAX);
        // mulhu x3, x1, x2: (2^64-1)^2 >> 64 = 2^64 - 2
        h.execute(0x0220_B1B3);
        assert_eq!(h.reg(3), u64::MAX - 1);
        // mulh x4, x1, x2: (-1)*(-1) >> 64 = 0
        h.execute(0x0220_9233);
        assert_eq!(h.reg(4), 0);
    }

    #[test]
    fn word_ops_sign_extend_results() {
        let mut h = Hart::new(0, 0);
        h.set_reg(1, 0x7FFF_FFFF);
        h.set_reg(2, 1);
        // addw x3, x1, x2 → 0x80000000 sign-extended
        h.execute(0x0020_81BB);
        assert_eq!(h.reg(3), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let mut h = Hart::new(0, 0x100);
        h.set_reg(1, 5);
        h.set_reg(2, 5);
        // beq x1, x2, +16
        h.execute(0x0020_8863);
        assert_eq!(h.pc(), 0x110);
        // bne x1, x2, +16 (not taken)
        h.execute(0x0020_9863);
        assert_eq!(h.pc(), 0x114);
    }

    #[test]
    fn jal_and_jalr_link() {
        let mut h = Hart::new(0, 0x100);
        // jal x1, +0x20
        h.execute(0x020000EF);
        assert_eq!(h.pc(), 0x120);
        assert_eq!(h.reg(1), 0x104);
        // jalr x0, 0(x1) — return
        h.execute(0x0000_8067);
        assert_eq!(h.pc(), 0x104);
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let mut h = Hart::new(0, 0x100);
        h.set_reg(1, 0x1000);
        h.set_reg(2, 99);
        // lr.d x3, (x1)
        let o = h.execute(0x1000_B1AF);
        assert!(matches!(o, Outcome::Load { reserve: true, .. }));
        h.finish_load(3, 7, 8, true, true, 0x1000);
        // sc.d x4, x2, (x1)
        let o = h.execute(0x1820_B22F);
        match o {
            Outcome::Amo {
                op: MemAmoOp::Cas, expected: 7, val: 99, is_sc: true, rd: 4, ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        h.finish_amo(4, 7, 8, true, 7);
        assert_eq!(h.reg(4), 0, "sc success writes 0");
        // A second SC without a reservation fails immediately.
        let o = h.execute(0x1820_B22F);
        assert_eq!(o, Outcome::Retired);
        assert_eq!(h.reg(4), 1, "sc without reservation writes 1");
    }

    #[test]
    fn amoadd_returns_old_value() {
        let mut h = Hart::new(0, 0x100);
        h.set_reg(1, 0x1000);
        h.set_reg(2, 5);
        // amoadd.d x3, x2, (x1)
        let o = h.execute(0x0020_B1AF);
        match o {
            Outcome::Amo { op: MemAmoOp::Add, val: 5, is_sc: false, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        h.finish_amo(3, 37, 8, false, 0);
        assert_eq!(h.reg(3), 37);
    }

    #[test]
    fn amow_sign_extends_old_value() {
        let mut h = Hart::new(0, 0x100);
        h.set_reg(1, 0x1000);
        h.set_reg(2, 1);
        // amoadd.w x3, x2, (x1)
        h.execute(0x0020_A1AF);
        h.finish_amo(3, 0xFFFF_FFFF, 4, false, 0);
        assert_eq!(h.reg(3), u64::MAX);
    }

    #[test]
    fn csr_read_write_set_clear() {
        let mut h = Hart::new(3, 0);
        // csrr x5, mhartid = csrrs x5, mhartid, x0
        h.execute(0xF140_22F3);
        assert_eq!(h.reg(5), 3);
        // csrrw x0, mscratch, x5
        h.execute(0x3402_9073);
        assert_eq!(h.csrs().read(Csr::Mscratch), 3);
        // csrrsi x0, mscratch, 4
        h.execute(0x3402_6073);
        assert_eq!(h.csrs().read(Csr::Mscratch), 7);
        // csrrci x0, mscratch, 1
        h.execute(0x3400_F073);
        assert_eq!(h.csrs().read(Csr::Mscratch), 6);
    }

    #[test]
    fn interrupt_entry_and_mret() {
        let mut h = Hart::new(0, 0x400);
        h.csrs_mut().write(Csr::Mtvec, 0x80);
        h.csrs_mut().write(Csr::Mie, 1 << 7);
        h.csrs_mut().write(Csr::Mstatus, crate::csr::MSTATUS_MIE);
        h.csrs_mut().set_mip_bit(7, true);
        assert_eq!(h.take_interrupt(), Some(7));
        assert_eq!(h.pc(), 0x80);
        // MRET returns to the interrupted pc.
        h.execute(0x3020_0073);
        assert_eq!(h.pc(), 0x400);
        assert_eq!(h.take_interrupt(), Some(7), "still pending after mret");
    }

    #[test]
    fn illegal_instruction_detected() {
        let mut h = Hart::new(0, 0);
        assert!(matches!(h.execute(0xFFFF_FFFF), Outcome::Exception(Trap::IllegalInstruction(_))));
    }

    #[test]
    fn wfi_and_ecall_surface() {
        let mut h = Hart::new(0, 0x100);
        assert_eq!(h.execute(0x1050_0073), Outcome::Wfi);
        assert_eq!(h.pc(), 0x104);
        assert_eq!(h.execute(0x0000_0073), Outcome::Ecall);
        assert_eq!(h.pc(), 0x104, "ecall leaves pc for mepc");
        h.skip_instruction();
        assert_eq!(h.pc(), 0x108);
    }

    #[test]
    fn snapshot_round_trips_architectural_state() {
        use smappic_sim::{SaveState, SnapReader, SnapWriter, Snapshot};

        let mut h = Hart::new(3, 0x1000);
        for i in 1..32 {
            h.set_reg(i, (i as u64) * 0x1111);
        }
        h.csrs_mut().write(Csr::Mtvec, 0x80);
        h.csrs_mut().write(Csr::Mie, 1 << 7);
        h.csrs_mut().mcycle = 555;
        h.csrs_mut().minstret = 444;
        h.finish_load(5, 0xAB, 8, false, true, 0x2000); // sets a reservation

        let mut w = SnapWriter::new();
        w.scoped("hart", |w| h.save(w));
        let snap = Snapshot::new(1, 1, w);

        let mut h2 = Hart::new(3, 0);
        let mut r = SnapReader::new(&snap);
        r.scoped("hart", |r| h2.restore(r));
        r.finish().expect("clean restore");

        assert_eq!(h2.pc(), h.pc());
        for i in 0..32 {
            assert_eq!(h2.reg(i), h.reg(i), "x{i}");
        }
        assert_eq!(h2.csrs().read(Csr::Mtvec), 0x80);
        assert_eq!(h2.csrs().minstret, h.csrs().minstret);
        assert_eq!(h2.reservation, h.reservation);
    }

    #[test]
    fn snapshot_from_other_hart_is_rejected() {
        use smappic_sim::{SaveState, SnapReader, SnapWriter, Snapshot};

        let h = Hart::new(1, 0);
        let mut w = SnapWriter::new();
        w.scoped("hart", |w| h.save(w));
        let snap = Snapshot::new(1, 1, w);

        let mut other = Hart::new(2, 0);
        let mut r = SnapReader::new(&snap);
        r.scoped("hart", |r| other.restore(r));
        assert!(r.finish().is_err(), "hart id mismatch must be flagged");
    }
}

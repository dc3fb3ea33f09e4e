//! Machine-mode control and status registers.

/// The CSRs the SMAPPIC prototype exposes (machine mode only, the subset
/// the Ariane-based prototypes and our interrupt machinery need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Csr {
    Mstatus,
    Mie,
    Mtvec,
    Mscratch,
    Mepc,
    Mcause,
    Mtval,
    Mip,
    Mhartid,
    Mcycle,
    Minstret,
}

impl Csr {
    /// Decodes a 12-bit CSR address.
    pub fn from_addr(addr: u32) -> Option<Csr> {
        Some(match addr {
            0x300 => Csr::Mstatus,
            0x304 => Csr::Mie,
            0x305 => Csr::Mtvec,
            0x340 => Csr::Mscratch,
            0x341 => Csr::Mepc,
            0x342 => Csr::Mcause,
            0x343 => Csr::Mtval,
            0x344 => Csr::Mip,
            0xF14 => Csr::Mhartid,
            0xB00 | 0xC00 => Csr::Mcycle,
            0xB02 | 0xC02 => Csr::Minstret,
            _ => return None,
        })
    }

    /// The architectural CSR address (canonical encoding).
    pub fn addr(self) -> u32 {
        match self {
            Csr::Mstatus => 0x300,
            Csr::Mie => 0x304,
            Csr::Mtvec => 0x305,
            Csr::Mscratch => 0x340,
            Csr::Mepc => 0x341,
            Csr::Mcause => 0x342,
            Csr::Mtval => 0x343,
            Csr::Mip => 0x344,
            Csr::Mhartid => 0xF14,
            Csr::Mcycle => 0xB00,
            Csr::Minstret => 0xB02,
        }
    }
}

/// mstatus.MIE bit.
pub const MSTATUS_MIE: u64 = 1 << 3;
/// mstatus.MPIE bit.
pub const MSTATUS_MPIE: u64 = 1 << 7;

/// The machine-mode CSR file.
#[derive(Debug, Clone, Default)]
pub struct CsrFile {
    mstatus: u64,
    mie: u64,
    mtvec: u64,
    mscratch: u64,
    mepc: u64,
    mcause: u64,
    mtval: u64,
    mip: u64,
    mhartid: u64,
    /// Cycle counter, advanced by the timing wrapper.
    pub mcycle: u64,
    /// Retired-instruction counter, advanced on each retire.
    pub minstret: u64,
}

impl CsrFile {
    /// Creates the CSR file for hart `hartid`.
    pub fn new(hartid: u64) -> Self {
        Self { mhartid: hartid, ..Default::default() }
    }

    /// Reads a CSR.
    pub fn read(&self, csr: Csr) -> u64 {
        match csr {
            Csr::Mstatus => self.mstatus,
            Csr::Mie => self.mie,
            Csr::Mtvec => self.mtvec,
            Csr::Mscratch => self.mscratch,
            Csr::Mepc => self.mepc,
            Csr::Mcause => self.mcause,
            Csr::Mtval => self.mtval,
            Csr::Mip => self.mip,
            Csr::Mhartid => self.mhartid,
            Csr::Mcycle => self.mcycle,
            Csr::Minstret => self.minstret,
        }
    }

    /// Writes a CSR (read-only CSRs ignore writes, as hardware does for
    /// the hardwired hart ID).
    pub fn write(&mut self, csr: Csr, value: u64) {
        match csr {
            Csr::Mstatus => self.mstatus = value,
            Csr::Mie => self.mie = value,
            Csr::Mtvec => self.mtvec = value,
            Csr::Mscratch => self.mscratch = value,
            Csr::Mepc => self.mepc = value,
            Csr::Mcause => self.mcause = value,
            Csr::Mtval => self.mtval = value,
            Csr::Mip => self.mip = value,
            Csr::Mhartid => {}
            Csr::Mcycle => self.mcycle = value,
            Csr::Minstret => self.minstret = value,
        }
    }

    /// True when machine interrupts are globally enabled.
    pub fn mie_enabled(&self) -> bool {
        self.mstatus & MSTATUS_MIE != 0
    }

    /// Sets or clears a bit in `mip` (driven by the interrupt
    /// depacketizer's wires, §3.3 of the paper).
    pub fn set_mip_bit(&mut self, bit: u32, level: bool) {
        if level {
            self.mip |= 1 << bit;
        } else {
            self.mip &= !(1 << bit);
        }
    }

    /// The highest-priority pending-and-enabled interrupt cause, if the
    /// global enable allows taking it.
    pub fn pending_interrupt(&self) -> Option<u64> {
        if !self.mie_enabled() {
            return None;
        }
        let pending = self.mip & self.mie;
        // Priority order per the privileged spec: MEI (11), MSI (3), MTI (7).
        for bit in [11u64, 3, 7] {
            if pending & (1 << bit) != 0 {
                return Some(bit);
            }
        }
        // Platform-custom interrupt lines (16+) in declaration order.
        (16..64).find(|b| pending & (1u64 << b) != 0)
    }

    /// Enters a trap: saves state, disables interrupts, returns the new pc.
    pub fn enter_trap(&mut self, pc: u64, cause: u64, is_interrupt: bool, tval: u64) -> u64 {
        self.mepc = pc;
        self.mcause = if is_interrupt { cause | (1 << 63) } else { cause };
        self.mtval = tval;
        let mie = (self.mstatus & MSTATUS_MIE) != 0;
        self.mstatus &= !MSTATUS_MIE;
        if mie {
            self.mstatus |= MSTATUS_MPIE;
        } else {
            self.mstatus &= !MSTATUS_MPIE;
        }
        self.mtvec & !3 // direct mode
    }

    /// Executes MRET: restores the interrupt enable, returns mepc.
    pub fn mret(&mut self) -> u64 {
        let mpie = (self.mstatus & MSTATUS_MPIE) != 0;
        if mpie {
            self.mstatus |= MSTATUS_MIE;
        } else {
            self.mstatus &= !MSTATUS_MIE;
        }
        self.mstatus |= MSTATUS_MPIE;
        self.mepc
    }
}

impl smappic_sim::SaveState for CsrFile {
    fn save(&self, w: &mut smappic_sim::SnapWriter) {
        let Self {
            mstatus,
            mie,
            mtvec,
            mscratch,
            mepc,
            mcause,
            mtval,
            mip,
            mhartid,
            mcycle,
            minstret,
        } = self;
        let csrs =
            [mstatus, mie, mtvec, mscratch, mepc, mcause, mtval, mip, mhartid, mcycle, minstret];
        for csr in csrs {
            w.u64(*csr);
        }
    }

    fn restore(&mut self, r: &mut smappic_sim::SnapReader) {
        self.mstatus = r.u64();
        self.mie = r.u64();
        self.mtvec = r.u64();
        self.mscratch = r.u64();
        self.mepc = r.u64();
        self.mcause = r.u64();
        self.mtval = r.u64();
        self.mip = r.u64();
        // mhartid is hardwired at construction; a snapshot taken on a
        // different hart cannot restore here.
        if r.u64() != self.mhartid {
            r.corrupt("snapshot hart id does not match this hart");
        }
        self.mcycle = r.u64();
        self.minstret = r.u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_roundtrip() {
        for csr in [
            Csr::Mstatus,
            Csr::Mie,
            Csr::Mtvec,
            Csr::Mscratch,
            Csr::Mepc,
            Csr::Mcause,
            Csr::Mtval,
            Csr::Mip,
            Csr::Mhartid,
            Csr::Mcycle,
            Csr::Minstret,
        ] {
            assert_eq!(Csr::from_addr(csr.addr()), Some(csr));
        }
        assert_eq!(Csr::from_addr(0x7C0), None);
    }

    #[test]
    fn hartid_is_read_only() {
        let mut f = CsrFile::new(5);
        f.write(Csr::Mhartid, 99);
        assert_eq!(f.read(Csr::Mhartid), 5);
    }

    #[test]
    fn interrupt_gating() {
        let mut f = CsrFile::new(0);
        f.set_mip_bit(7, true); // timer pending
        assert_eq!(f.pending_interrupt(), None, "mie bit not set");
        f.write(Csr::Mie, 1 << 7);
        assert_eq!(f.pending_interrupt(), None, "global enable off");
        f.write(Csr::Mstatus, MSTATUS_MIE);
        assert_eq!(f.pending_interrupt(), Some(7));
        f.set_mip_bit(7, false);
        assert_eq!(f.pending_interrupt(), None);
    }

    #[test]
    fn external_beats_timer() {
        let mut f = CsrFile::new(0);
        f.write(Csr::Mstatus, MSTATUS_MIE);
        f.write(Csr::Mie, (1 << 7) | (1 << 11));
        f.set_mip_bit(7, true);
        f.set_mip_bit(11, true);
        assert_eq!(f.pending_interrupt(), Some(11));
    }

    #[test]
    fn trap_and_mret_roundtrip() {
        let mut f = CsrFile::new(0);
        f.write(Csr::Mstatus, MSTATUS_MIE);
        f.write(Csr::Mtvec, 0x800);
        let target = f.enter_trap(0x1234, 7, true, 0);
        assert_eq!(target, 0x800);
        assert!(!f.mie_enabled(), "traps disable interrupts");
        assert_eq!(f.read(Csr::Mepc), 0x1234);
        assert_eq!(f.read(Csr::Mcause), 7 | (1 << 63));
        let back = f.mret();
        assert_eq!(back, 0x1234);
        assert!(f.mie_enabled(), "mret restores MIE");
    }
}

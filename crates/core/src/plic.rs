//! A platform-level interrupt controller (RISC-V PLIC subset).
//!
//! Routes device interrupt sources (the UARTs' RX lines) to harts with
//! per-source priorities, per-hart enables and thresholds, and the
//! claim/complete protocol. Its per-hart external-interrupt outputs feed
//! the interrupt packetizer (§3.3) like every other wire in the node.

/// Number of interrupt sources supported (source 0 is reserved, as the
/// spec requires).
pub const PLIC_SOURCES: usize = 32;

/// Source ID of the console UART's RX interrupt.
pub const PLIC_SRC_UART0: u32 = 1;
/// Source ID of the data UART's RX interrupt.
pub const PLIC_SRC_UART1: u32 = 2;

const REG_PENDING: u64 = 0x1000;
const REG_ENABLE_BASE: u64 = 0x2000;
const ENABLE_STRIDE: u64 = 0x80;
const REG_CONTEXT_BASE: u64 = 0x20_0000;
const CONTEXT_STRIDE: u64 = 0x1000;

/// The PLIC state for one node.
#[derive(Debug)]
pub struct Plic {
    priority: [u32; PLIC_SOURCES],
    /// Level of each source's input wire.
    level: u32,
    /// Pending bits (edge-latched from levels; cleared on claim).
    pending: u32,
    /// Claimed-but-not-completed sources, per source.
    claimed: u32,
    enable: Vec<u32>,
    threshold: Vec<u32>,
}

impl Plic {
    /// Creates a PLIC serving `harts` harts. Everything starts masked
    /// (priority 0, enables clear), like hardware out of reset.
    pub fn new(harts: usize) -> Self {
        Self {
            priority: [0; PLIC_SOURCES],
            level: 0,
            pending: 0,
            claimed: 0,
            enable: vec![0; harts],
            threshold: vec![0; harts],
        }
    }

    /// Drives one source's input wire. A rising edge latches the pending
    /// bit; level-sensitive re-pend happens on completion while high.
    pub fn set_source_level(&mut self, src: u32, high: bool) {
        // Sources beyond the supported range have no wire: ignore them
        // rather than shifting out of range (panic in debug, aliasing a
        // low source in release).
        if src >= PLIC_SOURCES as u32 {
            return;
        }
        let bit = 1u32 << src;
        if high {
            if self.level & bit == 0 {
                self.level |= bit;
                if self.claimed & bit == 0 {
                    self.pending |= bit;
                }
            }
        } else {
            self.level &= !bit;
        }
    }

    /// Best pending source for `hart`: enabled, priority above threshold,
    /// highest priority wins (lowest ID breaks ties).
    ///
    /// Walks only the set bits of `pending & enable` — the packetizer calls
    /// this for every hart every cycle, and the common case (no pending
    /// enabled source) must cost one AND. Ascending bit order plus the
    /// strict `>` keeps the lowest-ID tie-break of the scalar loop; bit 0
    /// can never be set because source 0's enable is masked on write.
    fn best(&self, hart: usize) -> Option<u32> {
        let mut cand = self.pending & self.enable[hart];
        let mut best: Option<(u32, u32)> = None;
        while cand != 0 {
            let src = cand.trailing_zeros();
            cand &= cand - 1;
            let prio = self.priority[src as usize];
            if prio > self.threshold[hart] && best.is_none_or(|(bp, _)| prio > bp) {
                best = Some((prio, src));
            }
        }
        best.map(|(_, src)| src)
    }

    /// The external-interrupt wire level for `hart` (mip.MEIP, line 11).
    pub fn ext_level(&self, hart: usize) -> bool {
        self.best(hart).is_some()
    }

    /// Guest MMIO read at `offset` within the PLIC window.
    pub fn read(&mut self, offset: u64) -> u64 {
        if offset < REG_PENDING {
            let src = (offset / 4) as usize;
            return u64::from(*self.priority.get(src).unwrap_or(&0));
        }
        if offset < REG_ENABLE_BASE {
            return u64::from(self.pending);
        }
        if offset < REG_CONTEXT_BASE {
            let hart = ((offset - REG_ENABLE_BASE) / ENABLE_STRIDE) as usize;
            return u64::from(self.enable.get(hart).copied().unwrap_or(0));
        }
        let hart = ((offset - REG_CONTEXT_BASE) / CONTEXT_STRIDE) as usize;
        let reg = (offset - REG_CONTEXT_BASE) % CONTEXT_STRIDE;
        if hart >= self.threshold.len() {
            return 0;
        }
        match reg {
            0 => u64::from(self.threshold[hart]),
            4 => {
                // Claim: atomically take the best pending source.
                match self.best(hart) {
                    Some(src) => {
                        let bit = 1u32 << src;
                        self.pending &= !bit;
                        self.claimed |= bit;
                        u64::from(src)
                    }
                    None => 0,
                }
            }
            _ => 0,
        }
    }

    /// Guest MMIO write.
    pub fn write(&mut self, offset: u64, data: u64) {
        if offset < REG_PENDING {
            let src = (offset / 4) as usize;
            if (1..PLIC_SOURCES).contains(&src) {
                self.priority[src] = data as u32;
            }
            return;
        }
        if offset < REG_CONTEXT_BASE {
            if offset >= REG_ENABLE_BASE {
                let hart = ((offset - REG_ENABLE_BASE) / ENABLE_STRIDE) as usize;
                if let Some(e) = self.enable.get_mut(hart) {
                    *e = data as u32 & !1; // source 0 cannot be enabled
                }
            }
            return;
        }
        let hart = ((offset - REG_CONTEXT_BASE) / CONTEXT_STRIDE) as usize;
        let reg = (offset - REG_CONTEXT_BASE) % CONTEXT_STRIDE;
        if hart >= self.threshold.len() {
            return;
        }
        match reg {
            0 => self.threshold[hart] = data as u32,
            4 => {
                // Complete: release the source; re-pend if still high.
                let src = data as u32;
                if (1..PLIC_SOURCES as u32).contains(&src) {
                    let bit = 1u32 << src;
                    self.claimed &= !bit;
                    if self.level & bit != 0 {
                        self.pending |= bit;
                    }
                }
            }
            _ => {}
        }
    }
}

impl smappic_sim::SaveState for Plic {
    fn save(&self, w: &mut smappic_sim::SnapWriter) {
        let Self { priority, level, pending, claimed, enable, threshold } = self;
        for p in priority {
            w.u32(*p);
        }
        w.u32(*level);
        w.u32(*pending);
        w.u32(*claimed);
        smappic_sim::Pack::pack(enable, w);
        for t in threshold {
            w.u32(*t);
        }
    }

    fn restore(&mut self, r: &mut smappic_sim::SnapReader) {
        for p in &mut self.priority {
            *p = r.u32();
        }
        self.level = r.u32();
        self.pending = r.u32();
        self.claimed = r.u32();
        if r.usize() != self.enable.len() {
            r.corrupt("PLIC hart count does not match this node's configuration");
            return;
        }
        for e in &mut self.enable {
            *e = r.u32();
        }
        for t in &mut self.threshold {
            *t = r.u32();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_plic() -> Plic {
        let mut p = Plic::new(2);
        p.write(4 * u64::from(PLIC_SRC_UART0), 3); // priority 3
        p.write(4 * u64::from(PLIC_SRC_UART1), 5);
        p.write(REG_ENABLE_BASE, 0b110); // hart 0: sources 1 and 2
        p
    }

    #[test]
    fn masked_out_of_reset() {
        let mut p = Plic::new(1);
        p.set_source_level(PLIC_SRC_UART0, true);
        assert!(!p.ext_level(0), "nothing enabled yet");
    }

    #[test]
    fn claim_returns_highest_priority_source() {
        let mut p = armed_plic();
        p.set_source_level(PLIC_SRC_UART0, true);
        p.set_source_level(PLIC_SRC_UART1, true);
        assert!(p.ext_level(0));
        let claimed = p.read(REG_CONTEXT_BASE + 4);
        assert_eq!(claimed, u64::from(PLIC_SRC_UART1), "priority 5 beats 3");
        let second = p.read(REG_CONTEXT_BASE + 4);
        assert_eq!(second, u64::from(PLIC_SRC_UART0));
        assert_eq!(p.read(REG_CONTEXT_BASE + 4), 0, "nothing left");
    }

    #[test]
    fn claimed_source_does_not_retrigger_until_complete() {
        let mut p = armed_plic();
        p.set_source_level(PLIC_SRC_UART0, true);
        assert_eq!(p.read(REG_CONTEXT_BASE + 4), 1);
        assert!(!p.ext_level(0), "claimed: wire must drop");
        // Completion while the level is still high re-pends (level-
        // sensitive source).
        p.write(REG_CONTEXT_BASE + 4, 1);
        assert!(p.ext_level(0));
        // Completion after the level dropped stays quiet.
        assert_eq!(p.read(REG_CONTEXT_BASE + 4), 1);
        p.set_source_level(PLIC_SRC_UART0, false);
        p.write(REG_CONTEXT_BASE + 4, 1);
        assert!(!p.ext_level(0));
    }

    #[test]
    fn threshold_masks_low_priorities() {
        let mut p = armed_plic();
        p.write(REG_CONTEXT_BASE, 4); // hart 0 threshold = 4
        p.set_source_level(PLIC_SRC_UART0, true); // priority 3 ≤ 4
        assert!(!p.ext_level(0));
        p.set_source_level(PLIC_SRC_UART1, true); // priority 5 > 4
        assert!(p.ext_level(0));
    }

    #[test]
    fn per_hart_enables_are_independent() {
        let mut p = armed_plic();
        p.write(REG_ENABLE_BASE + ENABLE_STRIDE, 1 << PLIC_SRC_UART1); // hart 1
        p.set_source_level(PLIC_SRC_UART1, true);
        assert!(p.ext_level(0));
        assert!(p.ext_level(1));
        p.set_source_level(PLIC_SRC_UART0, true);
        assert!(p.ext_level(1), "hart 1 only sees UART1");
        // Hart 1 claims UART1; hart 0 still has UART0 pending.
        assert_eq!(p.read(REG_CONTEXT_BASE + CONTEXT_STRIDE + 4), u64::from(PLIC_SRC_UART1));
        assert!(p.ext_level(0));
    }

    #[test]
    fn source_zero_cannot_be_enabled() {
        let mut p = Plic::new(1);
        p.write(REG_ENABLE_BASE, u64::from(u32::MAX));
        p.set_source_level(0, true);
        assert!(!p.ext_level(0));
    }

    #[test]
    fn out_of_range_sources_are_ignored() {
        let mut p = armed_plic();
        // src == 32 would previously compute `1u32 << 32`: a debug panic,
        // and in release an alias of source 0. Both must be plain no-ops.
        p.set_source_level(32, true);
        p.set_source_level(33, true);
        p.set_source_level(u32::MAX, true);
        assert!(!p.ext_level(0), "phantom sources must not pend anything");
        // The complete path ignores out-of-range ids too.
        p.write(REG_CONTEXT_BASE + 4, 32);
        p.write(REG_CONTEXT_BASE + 4, u64::from(u32::MAX));
        assert!(!p.ext_level(0));
        // And a real source still works afterwards.
        p.set_source_level(PLIC_SRC_UART0, true);
        assert!(p.ext_level(0));
    }

    #[test]
    fn snapshot_round_trip_preserves_claim_state() {
        use smappic_sim::{SaveState, SnapReader, SnapWriter, Snapshot};

        let mut p = armed_plic();
        p.set_source_level(PLIC_SRC_UART0, true);
        p.set_source_level(PLIC_SRC_UART1, true);
        assert_eq!(p.read(REG_CONTEXT_BASE + 4), u64::from(PLIC_SRC_UART1)); // claim

        let mut w = SnapWriter::new();
        w.scoped("plic", |w| p.save(w));
        let snap = Snapshot::new(1, 0, w);

        let mut p2 = Plic::new(2);
        let mut r = SnapReader::new(&snap);
        r.scoped("plic", |r| p2.restore(r));
        r.finish().expect("clean restore");

        // The claimed source stays suppressed; the other stays pending.
        assert_eq!(p2.read(REG_CONTEXT_BASE + 4), u64::from(PLIC_SRC_UART0));
        // Completing the claimed source while its level is high re-pends.
        p2.write(REG_CONTEXT_BASE + 4, u64::from(PLIC_SRC_UART1));
        assert!(p2.ext_level(0));
    }

    #[test]
    fn snapshot_with_wrong_hart_count_is_rejected() {
        use smappic_sim::{SaveState, SnapReader, SnapWriter, Snapshot};

        let p = Plic::new(2);
        let mut w = SnapWriter::new();
        w.scoped("plic", |w| p.save(w));
        let snap = Snapshot::new(1, 0, w);

        let mut p2 = Plic::new(3);
        let mut r = SnapReader::new(&snap);
        r.scoped("plic", |r| p2.restore(r));
        assert!(r.finish().is_err());
    }
}

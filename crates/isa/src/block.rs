//! Decoded basic-block cache: decode each instruction once, replay forever.
//!
//! The cycle-level core wrappers fetch the same instruction bits every time
//! the pc revisits an address, and re-decoding them dominates the host cost
//! of tight guest loops. A [`BlockCache`] remembers runs of pre-decoded
//! instructions ([`DecodedOp`]) keyed by the **physical pc of the run's
//! first instruction**, terminated at block boundaries
//! ([`DecodedOp::ends_block`]: branches, jumps, system ops, fences) or at
//! [`MAX_BLOCK_OPS`].
//!
//! Blocks are built from the execution trace itself: the first walk through
//! a run of sequential pcs records `(raw bits, decoded op)` pairs, and the
//! block is sealed when the run ends. Later visits dispatch straight-line
//! from the cached block via an internal cursor that holds a handle to the
//! block itself, so a hit is an array index plus one raw-bits comparison —
//! no re-decode, and one map probe per block *entry*, not per instruction.
//!
//! # Correctness
//!
//! A cached op is replayed only when the raw bits the wrapper fetched this
//! cycle equal the bits the op was decoded from (checked on every hit), so
//! a stale entry can never execute. On top of that belt-and-braces check,
//! callers invalidate eagerly:
//!
//! - **Self-modifying stores** — [`BlockCache::invalidate_range`] for the
//!   stored bytes (a page-level index makes the no-code-on-this-page case
//!   a single hash probe);
//! - **`fence.i`** and **instruction-cache refills** that may change the
//!   pc→bits mapping — [`BlockCache::invalidate_range`] /
//!   [`BlockCache::invalidate_all`];
//! - **Snapshot restore** — the cache is *derived* state: it is never
//!   serialized, and wrappers call [`BlockCache::invalidate_all`] on
//!   restore so blocks are rebuilt from the restored machine.
//!
//! The cache changes no architectural behavior: every fetch still goes
//! through the wrapper's timing model (instruction-cache lookups, misses,
//! stalls), and [`Hart::execute_decoded`] on a cached op is the same
//! function the plain interpreter runs. Only host-side decode work is
//! saved, so fast and reference paths stay bit-identical.

use std::collections::HashMap;
use std::sync::Arc;

use crate::hart::{DecodedOp, Hart};

/// Longest run of instructions a single block may hold.
pub const MAX_BLOCK_OPS: usize = 64;

/// Page granule of the invalidation index (one probe answers "does this
/// store touch any cached code?").
const PAGE: u64 = 4096;

/// Blocks held before the cache wholesale-resets to bound memory.
const MAX_BLOCKS: usize = 1 << 16;

/// `(raw bits, decoded op)` of every instruction of one sealed block.
type Ops = Arc<[(u32, DecodedOp)]>;

/// Straight-line dispatch position inside one sealed block.
///
/// Holds the block itself, not its key, so advancing never probes the map.
/// Whatever drops the block from the map drops the cursor with it
/// ([`BlockCache::remove_block`], [`BlockCache::invalidate_all`]): a handle
/// never outlives its block's residency.
#[derive(Debug)]
struct Cursor {
    base: u64,
    ops: Ops,
    /// Index of the next op to dispatch; always `< ops.len()`.
    idx: usize,
}

impl Cursor {
    fn pc(&self) -> u64 {
        self.base + 4 * self.idx as u64
    }
}

/// A trace-built cache of decoded basic blocks (see the module docs).
#[derive(Debug, Default)]
pub struct BlockCache {
    /// Sealed blocks keyed by the pc of their first instruction.
    blocks: HashMap<u64, Ops>,
    /// `page → bases of blocks overlapping that page`; the store-side
    /// invalidation filter.
    page_index: HashMap<u64, Vec<u64>>,
    /// The block currently being recorded from the execution trace.
    building: Option<(u64, Vec<(u32, DecodedOp)>)>,
    /// Straight-line dispatch position, while inside a sealed block.
    cursor: Option<Cursor>,
    hits: u64,
    misses: u64,
    built: u64,
    invalidated: u64,
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the decoded form of `instr` at `pc`, from cache when a
    /// current block covers `pc` with the same raw bits, otherwise by
    /// decoding now (and growing a block from the trace).
    pub fn lookup(&mut self, pc: u64, instr: u32) -> DecodedOp {
        if let Some(cur) = self.cursor.as_mut().filter(|c| c.pc() == pc) {
            let (raw, d) = cur.ops[cur.idx];
            if raw == instr {
                self.hits += 1;
                cur.idx += 1;
                if cur.idx == cur.ops.len() {
                    self.cursor = None;
                }
                return d;
            }
            // Stale bits that escaped eager invalidation: the raw
            // comparison catches them; drop the whole block.
            let base = cur.base;
            self.remove_block(base);
        }
        self.cursor = None;
        if let Some(ops) = self.blocks.get(&pc) {
            let (raw, d) = ops[0];
            if raw == instr {
                self.hits += 1;
                if ops.len() > 1 {
                    self.cursor = Some(Cursor { base: pc, ops: Arc::clone(ops), idx: 1 });
                }
                return d;
            }
            self.remove_block(pc);
        }
        self.misses += 1;
        let d = Hart::decode(instr);
        self.record(pc, instr, d);
        d
    }

    /// How many ops the next `lookup`s, starting at `pc`, will dispatch from
    /// one cached block — the cursor's, or the one keyed at `pc` — that all
    /// satisfy `quiet(pc, raw bits, op)`; zero when no cached block is next.
    /// Lets a wrapper bound a run of instructions it can retire without
    /// consulting anything outside itself. Counts nothing as dispatched.
    pub fn quiet_run(&self, pc: u64, quiet: impl Fn(u64, u32, &DecodedOp) -> bool) -> usize {
        let ops = match self.cursor.as_ref().filter(|c| c.pc() == pc) {
            Some(cur) => &cur.ops[cur.idx..],
            // Between blocks: the next `lookup` enters the block keyed at
            // `pc`, if there is one.
            None => self.blocks.get(&pc).map_or(&[][..], |ops| ops),
        };
        let ahead = ops.iter().zip((pc..).step_by(4));
        ahead.take_while(|&(&(raw, ref d), pc)| quiet(pc, raw, d)).count()
    }

    /// Appends `(pc, instr, d)` to the block under construction, starting or
    /// sealing blocks as the trace dictates.
    fn record(&mut self, pc: u64, instr: u32, d: DecodedOp) {
        match &mut self.building {
            Some((base, ops)) if *base + 4 * ops.len() as u64 == pc => ops.push((instr, d)),
            _ => {
                // Control arrived from elsewhere: the interrupted prefix is
                // still a valid run, keep it.
                self.seal();
                self.building = Some((pc, vec![(instr, d)]));
            }
        }
        let len = self.building.as_ref().map_or(0, |(_, ops)| ops.len());
        if d.ends_block() || len >= MAX_BLOCK_OPS {
            self.seal();
        }
    }

    /// Moves the block under construction into the cache.
    fn seal(&mut self) {
        let Some((base, ops)) = self.building.take() else { return };
        if self.blocks.len() >= MAX_BLOCKS {
            self.invalidate_all();
        }
        let end = base + 4 * ops.len() as u64;
        for page in (base / PAGE)..=((end - 1) / PAGE) {
            let v = self.page_index.entry(page).or_default();
            if !v.contains(&base) {
                v.push(base);
            }
        }
        self.blocks.insert(base, ops.into());
        self.built += 1;
    }

    fn remove_block(&mut self, base: u64) {
        if let Some(b) = self.blocks.remove(&base) {
            let end = base + 4 * b.len() as u64;
            for page in (base / PAGE)..=((end - 1) / PAGE) {
                if let Some(v) = self.page_index.get_mut(&page) {
                    v.retain(|&x| x != base);
                    if v.is_empty() {
                        self.page_index.remove(&page);
                    }
                }
            }
            self.invalidated += 1;
        }
        if self.cursor.as_ref().is_some_and(|c| c.base == base) {
            self.cursor = None;
        }
    }

    /// Drops every block overlapping `[addr, addr + len)` — the hook for
    /// self-modifying stores and instruction-cache refills. When no cached
    /// code touches the affected pages this is one hash probe per page.
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        let end = addr.saturating_add(len.max(1));
        if let Some((base, ops)) = &self.building {
            let bend = base + 4 * ops.len() as u64;
            if *base < end && addr < bend {
                self.building = None;
            }
        }
        let mut victims: Vec<u64> = Vec::new();
        for page in (addr / PAGE)..=((end - 1) / PAGE) {
            let Some(bases) = self.page_index.get(&page) else { continue };
            for &base in bases {
                let blen = self.blocks.get(&base).map_or(0, |b| b.len());
                let bend = base + 4 * blen as u64;
                if base < end && addr < bend && !victims.contains(&base) {
                    victims.push(base);
                }
            }
        }
        for base in victims {
            self.remove_block(base);
        }
    }

    /// Drops everything — `fence.i` and snapshot restore.
    pub fn invalidate_all(&mut self) {
        self.invalidated += self.blocks.len() as u64;
        self.blocks.clear();
        self.page_index.clear();
        self.building = None;
        self.cursor = None;
    }

    /// Cached-dispatch hits (an op replayed without re-decoding).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell back to a fresh decode.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Blocks sealed over the cache's lifetime.
    pub fn built(&self) -> u64 {
        self.built
    }

    /// Blocks dropped by invalidation (any cause).
    pub fn invalidated(&self) -> u64 {
        self.invalidated
    }

    /// Sealed blocks currently resident.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// addi x1, x1, 1 — a straight-line op.
    const ADDI: u32 = 0x0010_8093;
    /// jal x0, 0 — ends a block.
    const JAL: u32 = 0x0000_006F;

    #[test]
    fn trace_builds_blocks_and_replays_them() {
        let mut c = BlockCache::new();
        // First walk: all misses, builds a 3-op block sealed by the jump.
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            let d = c.lookup(0x1000 + 4 * i as u64, instr);
            assert_eq!(d, Hart::decode(instr));
        }
        assert_eq!((c.hits(), c.misses(), c.built()), (0, 3, 1));
        // Second walk: straight-line hits from the cursor.
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            let d = c.lookup(0x1000 + 4 * i as u64, instr);
            assert_eq!(d, Hart::decode(instr));
        }
        assert_eq!((c.hits(), c.misses()), (3, 3));
    }

    #[test]
    fn changed_bits_never_replay_stale_ops() {
        let mut c = BlockCache::new();
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            c.lookup(0x1000 + 4 * i as u64, instr);
        }
        // Same pc, different bits (self-modified without invalidation):
        // the raw comparison rejects the cached op.
        let d = c.lookup(0x1000, JAL);
        assert_eq!(d, Hart::decode(JAL));
        assert_eq!(c.hits(), 0, "stale block must not hit");
    }

    #[test]
    fn range_invalidation_targets_overlapping_blocks_only() {
        let mut c = BlockCache::new();
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            c.lookup(0x1000 + 4 * i as u64, instr);
        }
        for (i, &instr) in [ADDI, JAL].iter().enumerate() {
            c.lookup(0x9000 + 4 * i as u64, instr);
        }
        assert_eq!(c.len(), 2);
        c.invalidate_range(0x1004, 4);
        assert_eq!(c.len(), 1, "only the overlapped block goes");
        c.invalidate_range(0x5000, 8); // no code there: no-op
        assert_eq!(c.len(), 1);
        c.invalidate_all();
        assert!(c.is_empty());
    }

    #[test]
    fn mid_block_entry_builds_an_overlapping_block() {
        let mut c = BlockCache::new();
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            c.lookup(0x1000 + 4 * i as u64, instr);
        }
        // Jump into the middle: miss, then a new block from 0x1004.
        let d = c.lookup(0x1004, ADDI);
        assert_eq!(d, Hart::decode(ADDI));
        c.lookup(0x1008, JAL);
        assert_eq!(c.len(), 2);
        // Both entry points now hit.
        c.lookup(0x1000, ADDI);
        c.lookup(0x1004, ADDI);
        assert!(c.hits() >= 2);
    }

    /// Warms `[ADDI, ADDI, ADDI, JAL]` at 0x1000 and replays its first two
    /// ops, leaving the cursor (and its block handle) live at 0x1008.
    fn cursor_mid_block() -> BlockCache {
        let mut c = BlockCache::new();
        for (i, &instr) in [ADDI, ADDI, ADDI, JAL].iter().enumerate() {
            c.lookup(0x1000 + 4 * i as u64, instr);
        }
        c.lookup(0x1000, ADDI);
        c.lookup(0x1004, ADDI);
        assert_eq!((c.hits(), c.misses(), c.len()), (2, 4, 1));
        c
    }

    #[test]
    fn invalidating_the_block_under_the_cursor_drops_the_handle_too() {
        let mut c = cursor_mid_block();
        c.invalidate_range(0x1000, 4);
        assert!(c.is_empty());
        // The cursor's handle kept the ops alive; it must not dispatch them.
        // New bits at the cursor's pc prove it: a replay would return ADDI.
        assert_eq!(c.lookup(0x1008, JAL), Hart::decode(JAL));
        assert_eq!((c.hits(), c.misses()), (2, 5), "dropped block must decode afresh");
        assert_eq!(c.lookup(0x1000, ADDI), Hart::decode(ADDI));
        assert_eq!((c.hits(), c.misses()), (2, 6), "one count per dispatched op");
    }

    #[test]
    fn raw_bits_mismatch_at_the_cursor_drops_the_block() {
        let mut c = cursor_mid_block();
        assert_eq!(c.lookup(0x1008, JAL), Hart::decode(JAL));
        assert_eq!((c.hits(), c.misses()), (2, 5));
        assert_eq!(c.invalidated(), 1);
        // The whole block went, not just the op: its head misses again.
        c.lookup(0x1000, ADDI);
        assert_eq!((c.hits(), c.misses()), (2, 6));
    }

    #[test]
    fn wholesale_reset_drops_a_live_cursor() {
        let mut c = cursor_mid_block();
        // Single-op blocks far from 0x1000 until the next seal resets.
        let mut pc = 0x10_0000;
        while c.len() < MAX_BLOCKS {
            c.lookup(pc, JAL);
            pc += 4;
        }
        c.lookup(0x1000, ADDI);
        c.lookup(0x1004, ADDI); // cursor live at 0x1008 again
        let (hits, misses) = (c.hits(), c.misses());
        c.lookup(pc, JAL); // this seal finds the cache full
        assert_eq!(c.len(), 1, "reset keeps only the block that triggered it");
        assert_eq!(c.lookup(0x1008, JAL), Hart::decode(JAL));
        assert_eq!((c.hits(), c.misses()), (hits, misses + 2));
    }

    #[test]
    fn quiet_run_counts_from_the_cursor_or_a_block_head() {
        let straight = |_, _, d: &DecodedOp| !d.ends_block();
        let mut c = cursor_mid_block();
        // At the cursor: the one ADDI left before the JAL.
        assert_eq!(c.quiet_run(0x1008, straight), 1);
        // Between blocks (cursor elsewhere): the block keyed at `pc`.
        assert_eq!(c.quiet_run(0x1000, straight), 3);
        assert_eq!(c.quiet_run(0x1004, straight), 0, "no block starts here");
        // The count follows the cursor as ops dispatch.
        c.lookup(0x1008, ADDI);
        assert_eq!(c.quiet_run(0x100C, straight), 0);
        assert_eq!((c.hits(), c.misses()), (3, 4), "asking is not dispatching");
        // The predicate sees each op's own pc and raw bits.
        assert_eq!(c.quiet_run(0x1000, |pc, raw, _| raw == ADDI && pc < 0x1008), 2);
    }
}

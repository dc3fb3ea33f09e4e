//! First-divergence bisector: pinpoint where two supposedly-equivalent
//! runs first disagree, by epoch, cycle, and component.
//!
//! Two platform builds that *should* behave identically — the fast path
//! vs the per-cycle reference ([`Platform::set_fast_path`]), a refactored
//! component vs its reference, twin configs that differ in something
//! believed non-architectural — can
//! silently diverge millions of cycles into a run. Diffing final state
//! says *that* they diverged; this module says *where*:
//!
//! 1. **Checkpoint pass.** Both platforms advance in `interval`-cycle
//!    strides, taking a full [`Platform::snapshot`] at every boundary and
//!    keeping it as a [`SnapDelta`] against the previous one
//!    ([`SnapDelta::between`]): a base snapshot plus a delta chain. Only
//!    dirty sections are retained per boundary, so long forward passes no
//!    longer hold one full platform image per stride.
//! 2. **Binary search.** Simulation is deterministic, so bit-equal states
//!    have bit-equal futures: "boundary `i` diverged" is monotone in `i`,
//!    and the first divergent boundary is found in `O(log n)` snapshot
//!    comparisons instead of `n`.
//! 3. **Lockstep refinement.** Both platforms restore to the last equal
//!    boundary and re-execute the divergent stride one cycle at a time,
//!    snapshotting each cycle. The first differing cycle and the first
//!    differing *component section* (named by the same topology-rooted
//!    dotted path the metrics layer uses) are reported.
//!
//! Host-side stepper diagnostics (`host.*` sections) are excluded from
//! every comparison — the fast and reference steppers legitimately
//! disagree there.

use smappic_sim::{Cycle, SnapDelta, SnapError, Snapshot};

use crate::platform::Platform;

/// Interval checkpoints as a base snapshot plus a delta chain: boundary
/// `i` is `base + deltas[..i]`. Only dirty sections are retained per
/// boundary; the running tip is kept so appending stays `O(sections)`.
struct Chain {
    base: Snapshot,
    deltas: Vec<SnapDelta>,
    tip: Snapshot,
}

impl Chain {
    fn new(base: Snapshot) -> Self {
        Self { tip: base.clone(), base, deltas: Vec::new() }
    }

    /// Appends the next boundary state as a delta against the tip.
    fn push(&mut self, snap: Snapshot) -> Result<(), SnapError> {
        self.deltas.push(SnapDelta::between(&self.tip, &snap)?);
        self.tip = snap;
        Ok(())
    }

    /// Number of boundaries (the base counts as boundary 0).
    fn len(&self) -> usize {
        self.deltas.len() + 1
    }

    /// Materializes boundary `i` by replaying the chain prefix.
    fn materialize(&self, i: usize) -> Result<Snapshot, SnapError> {
        let mut s = self.base.clone();
        for d in &self.deltas[..i] {
            s = s.apply_delta(d)?;
        }
        Ok(s)
    }
}

/// Where two runs first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectReport {
    /// Index of the first checkpoint interval whose end-of-stride states
    /// differ (interval `e` spans cycles `[e*interval, (e+1)*interval)`).
    pub epoch: u64,
    /// The first cycle whose *post-tick* state differs: after both
    /// platforms executed this cycle, their snapshots disagree.
    pub cycle: Cycle,
    /// Topology-rooted section name of the first differing component
    /// (e.g. `fpga0.node1.tile0.bpc`), in snapshot walk order.
    pub component: String,
    /// Snapshot comparisons spent by the binary search (diagnostic).
    pub probes: u64,
}

impl std::fmt::Display for BisectReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence in epoch {} at cycle {}: component '{}' ({} probes)",
            self.epoch, self.cycle, self.component, self.probes
        )
    }
}

/// True when the two snapshots disagree on any architectural section.
fn differs(a: &Snapshot, b: &Snapshot) -> bool {
    a.first_divergence(b).is_some()
}

/// Runs `a` and `b` forward `max_cycles` cycles with [`Platform::run`] and
/// reports where their architectural state first diverges, or
/// [`Ok`]`(None)` when they agree at every checkpoint boundary. Each
/// platform keeps its own stepper mode: set one's fast path off to check
/// the fast path against the per-cycle reference.
///
/// `interval` is the checkpoint stride: smaller strides cost more
/// snapshot memory in the forward pass but bound the lockstep
/// re-execution; `interval = 0` is clamped to 1. Both platforms are left
/// at the divergent cycle (on divergence) or at `max_cycles` (on
/// agreement), so the caller can immediately inspect the disagreeing
/// state.
///
/// The monotonicity the binary search relies on — once bit-equal, always
/// bit-equal forward — holds because both platforms step as deterministic
/// functions of architectural state. A transiently-divergent-then-
/// reconverged pair (possible only if the divergent state is unobservable
/// forward) is reported as equal, which is the right answer for "do these
/// runs behave identically?".
///
/// # Errors
///
/// Propagates any [`SnapError`] from restoring a checkpoint into its own
/// platform — impossible unless a component's `save`/`restore` pair is
/// asymmetric, which is exactly worth surfacing loudly.
pub fn bisect_first_divergence(
    a: &mut Platform,
    b: &mut Platform,
    max_cycles: u64,
    interval: u64,
) -> Result<Option<BisectReport>, SnapError> {
    let interval = interval.max(1);
    let mut probes: u64 = 0;

    // Checkpoint pass: boundary 0 is the starting state; every further
    // boundary is a delta against its predecessor.
    let mut chain_a = Chain::new(a.snapshot());
    let mut chain_b = Chain::new(b.snapshot());
    let mut remaining = max_cycles;
    while remaining > 0 {
        let len = interval.min(remaining);
        a.run(len);
        b.run(len);
        chain_a.push(a.snapshot())?;
        chain_b.push(b.snapshot())?;
        remaining -= len;
    }
    let last = chain_a.len() - 1;

    probes += 1;
    if !differs(&chain_a.tip, &chain_b.tip) {
        return Ok(None);
    }
    probes += 1;
    if differs(&chain_a.base, &chain_b.base) {
        // The starting states already disagree; no stride to refine.
        let component = chain_a.base.first_divergence(&chain_b.base).expect("probed divergent");
        a.restore(&chain_a.base)?;
        b.restore(&chain_b.base)?;
        return Ok(Some(BisectReport { epoch: 0, cycle: chain_a.base.cycle(), component, probes }));
    }

    // Invariant: boundary `lo` equal, boundary `hi` divergent.
    let (mut lo, mut hi) = (0usize, last);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if differs(&chain_a.materialize(mid)?, &chain_b.materialize(mid)?) {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    // Lockstep refinement inside the divergent stride, restoring each
    // platform through its delta chain (the incremental-restore path).
    a.restore_chain(&chain_a.base, &chain_a.deltas[..lo])?;
    b.restore_chain(&chain_b.base, &chain_b.deltas[..lo])?;
    let (snap_a_hi, snap_b_hi) = (chain_a.materialize(hi)?, chain_b.materialize(hi)?);
    let lo_cycle = if lo == 0 { chain_a.base.cycle() } else { chain_a.deltas[lo - 1].cycle };
    let (epoch, stride) = (lo as u64, snap_a_hi.cycle() - lo_cycle);
    for _ in 0..stride {
        a.run(1);
        b.run(1);
        let (x, y) = (a.snapshot(), b.snapshot());
        if let Some(component) = x.first_divergence(&y) {
            return Ok(Some(BisectReport { epoch, cycle: x.cycle(), component, probes }));
        }
    }
    // The boundary disagreed but no cycle inside the stride did — only
    // reachable if save/restore is not a fixed point. Fall back to the
    // boundary-level report rather than papering over it.
    let component = snap_a_hi.first_divergence(&snap_b_hi).expect("boundary probed divergent");
    Ok(Some(BisectReport { epoch, cycle: snap_a_hi.cycle(), component, probes }))
}

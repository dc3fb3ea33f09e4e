//! Deterministic, seed-driven *timing*-fault injection.
//!
//! SMAPPIC's multi-FPGA story leans on the PCIe fabric behaving like a
//! lossless fixed-latency pipe (§4: the 1250 ns round trip). This module
//! provides the machinery to bend that assumption on purpose: a
//! [`FaultPlan`] describes when transport items are delayed, duplicated,
//! or held behind a transient stall, and when ports/channels freeze for a
//! window of cycles. Every decision is a *pure function* of
//! `(plan, stream, sequence-or-cycle)` — no mutable RNG state is consumed
//! at injection time — so the per-cycle reference and the epoch driver,
//! which evaluate the decisions in different orders, see exactly the same
//! faults.
//!
//! Faults are strictly timing faults: an item's payload is never touched,
//! and the platform's recovery layer (sequence-restoring Hard Shell guard)
//! turns duplication and reordering back into pure delays before anything
//! architectural observes them. A faulted run must therefore terminate
//! with bit-identical architectural state to the clean run.
//!
//! ```
//! use smappic_sim::{FaultPlan, FaultProfile, FaultInjector};
//! use std::sync::Arc;
//!
//! let plan = Arc::new(FaultPlan::seeded(42, FaultProfile::light()));
//! let inj = FaultInjector::new(plan, smappic_sim::fault_streams::link(0, 1));
//! // Same (seq, cycle) → same action, forever.
//! assert_eq!(inj.link_action(7, 100), inj.link_action(7, 100));
//! ```

use std::sync::Arc;

use crate::{Cycle, SimRng};

/// The delay applied to an item swallowed by a black-holed link: far
/// beyond any realistic run length, but finite so arithmetic stays sound.
pub const BLACKHOLE_DELAY: Cycle = 1 << 44;

/// What happens to one transported item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultAction {
    /// Extra cycles added on top of the item's clean delivery time.
    pub delay: Cycle,
    /// When set, a ghost copy of the item is also delivered, this many
    /// cycles after the clean delivery time. The recovery layer is
    /// responsible for dropping whichever copy arrives second.
    pub duplicate: Option<Cycle>,
}

impl FaultAction {
    /// The identity action: deliver on time, once.
    pub const NONE: FaultAction = FaultAction { delay: 0, duplicate: None };

    /// True when this action leaves the item untouched.
    pub fn is_noop(&self) -> bool {
        self.delay == 0 && self.duplicate.is_none()
    }
}

/// Probabilities and magnitudes of a seeded fault mix.
///
/// All probabilities are per-item (or per stall window); magnitudes are
/// uniform in `1..=max`. A zero probability disables that fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability an item is delayed.
    pub delay_prob: f64,
    /// Maximum extra delay in cycles.
    pub delay_max: Cycle,
    /// Probability an item is duplicated.
    pub dup_prob: f64,
    /// Maximum extra delay of the ghost copy in cycles.
    pub dup_delay_max: Cycle,
    /// Probability a given stall window is frozen (transient stall).
    pub stall_prob: f64,
    /// Stall window length in cycles (0 disables stalls).
    pub stall_window: Cycle,
    /// Probability a DRAM request takes a latency spike.
    pub spike_prob: f64,
    /// Maximum spike magnitude in cycles.
    pub spike_max: Cycle,
    /// When set, every link item maturing at or after this cycle is
    /// black-holed (delayed by [`BLACKHOLE_DELAY`]) — the hand-built
    /// unrecoverable fault the Watchdog must convert into a report.
    pub blackhole_after: Option<Cycle>,
}

impl FaultProfile {
    /// No faults at all. Useful to verify the fault plumbing itself is
    /// timing-neutral: a run with a quiet profile must be bit-identical
    /// to a clean run, including cycle counts.
    pub fn quiet() -> Self {
        Self {
            delay_prob: 0.0,
            delay_max: 0,
            dup_prob: 0.0,
            dup_delay_max: 0,
            stall_prob: 0.0,
            stall_window: 0,
            spike_prob: 0.0,
            spike_max: 0,
            blackhole_after: None,
        }
    }

    /// Mild perturbation: occasional short delays and rare duplicates.
    pub fn light() -> Self {
        Self {
            delay_prob: 0.10,
            delay_max: 40,
            dup_prob: 0.05,
            dup_delay_max: 60,
            spike_prob: 0.05,
            spike_max: 50,
            ..Self::quiet()
        }
    }

    /// Aggressive perturbation: frequent long delays, duplicates, port
    /// stalls, and DRAM spikes.
    pub fn heavy() -> Self {
        Self {
            delay_prob: 0.35,
            delay_max: 300,
            dup_prob: 0.20,
            dup_delay_max: 250,
            stall_prob: 0.20,
            stall_window: 64,
            spike_prob: 0.25,
            spike_max: 400,
            ..Self::quiet()
        }
    }

    /// A clean profile whose links swallow everything from `at` onward.
    pub fn blackhole(at: Cycle) -> Self {
        Self { blackhole_after: Some(at), ..Self::quiet() }
    }
}

/// One entry of an explicit fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The transport stream this entry applies to (see [`fault_streams`]).
    pub stream: u64,
    /// The per-stream sequence number of the targeted item.
    pub seq: u64,
    /// What to do to it.
    pub action: FaultAction,
}

/// A complete, replayable description of every fault in a run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlan {
    /// Faults are derived on demand by hashing `(seed, stream, seq)`
    /// against a [`FaultProfile`] — constant-space, any run length.
    Seeded {
        /// The master seed.
        seed: u64,
        /// Fault mix.
        profile: FaultProfile,
    },
    /// An explicit list of per-item actions (everything not listed is
    /// delivered cleanly). Sorted by `(stream, seq)`.
    Schedule {
        /// The entries, sorted by `(stream, seq)`.
        entries: Vec<ScheduleEntry>,
    },
}

/// splitmix64 finalizer: the bit mixer behind all stateless draws.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from 64 hashed bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn hit(h: u64, p: f64) -> bool {
    p > 0.0 && unit(h) < p
}

/// Uniform in `[0, bound)` from hashed bits (Lemire multiply-shift).
fn bounded(h: u64, bound: u64) -> u64 {
    ((u128::from(h) * u128::from(bound.max(1))) >> 64) as u64
}

impl FaultPlan {
    /// A seeded plan.
    pub fn seeded(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan::Seeded { seed, profile }
    }

    /// An explicit schedule (entries are sorted internally).
    pub fn schedule(mut entries: Vec<ScheduleEntry>) -> Self {
        entries.sort_by_key(|e| (e.stream, e.seq));
        FaultPlan::Schedule { entries }
    }

    /// Materializes an explicit schedule by sampling `profile` with a
    /// [`SimRng`]: for each listed stream, the first `seqs_per_stream`
    /// items are drawn against the delay/duplicate probabilities. Only
    /// non-noop actions are recorded.
    pub fn sample_schedule(
        rng: &mut SimRng,
        profile: &FaultProfile,
        streams: &[u64],
        seqs_per_stream: u64,
    ) -> Self {
        let mut entries = Vec::new();
        for &stream in streams {
            for seq in 0..seqs_per_stream {
                let delay = if rng.chance(profile.delay_prob) {
                    1 + rng.gen_range(profile.delay_max.max(1))
                } else {
                    0
                };
                let duplicate = rng
                    .chance(profile.dup_prob)
                    .then(|| rng.gen_range(profile.dup_delay_max.max(1)));
                let action = FaultAction { delay, duplicate };
                if !action.is_noop() {
                    entries.push(ScheduleEntry { stream, seq, action });
                }
            }
        }
        Self::schedule(entries)
    }

    fn draw(seed: u64, stream: u64, a: u64, channel: u64) -> u64 {
        mix(seed
            ^ mix(stream
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(a.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                .wrapping_add(channel.wrapping_mul(0x1656_67B1_9E37_79F9))))
    }

    /// The base action for item `seq` of `stream` (delay/duplicate only;
    /// link stall windows and black-holing are layered on by
    /// [`FaultInjector::link_action`], which knows the item's timing).
    pub fn action_for(&self, stream: u64, seq: u64) -> FaultAction {
        match self {
            FaultPlan::Seeded { seed, profile } => {
                let mut action = FaultAction::NONE;
                if hit(Self::draw(*seed, stream, seq, 0), profile.delay_prob) {
                    action.delay =
                        1 + bounded(Self::draw(*seed, stream, seq, 1), profile.delay_max);
                }
                if hit(Self::draw(*seed, stream, seq, 2), profile.dup_prob) {
                    action.duplicate =
                        Some(bounded(Self::draw(*seed, stream, seq, 3), profile.dup_delay_max));
                }
                action
            }
            FaultPlan::Schedule { entries } => entries
                .binary_search_by_key(&(stream, seq), |e| (e.stream, e.seq))
                .map_or(FaultAction::NONE, |i| entries[i].action),
        }
    }

    /// True when `stall window` of lane `lane` on `stream` is frozen at
    /// window index `window` (schedules never stall).
    fn window_stalled(&self, stream: u64, lane: u64, window: u64) -> bool {
        match self {
            FaultPlan::Seeded { seed, profile } => {
                profile.stall_window > 0
                    && hit(
                        Self::draw(
                            *seed,
                            stream,
                            lane.wrapping_mul(0x2545_F491).wrapping_add(window),
                            4,
                        ),
                        profile.stall_prob,
                    )
            }
            FaultPlan::Schedule { .. } => false,
        }
    }

    /// Serializes the plan to a line-oriented text form that
    /// [`FaultPlan::from_text`] parses back exactly (probabilities are
    /// stored as raw `f64` bits, so the round trip is lossless).
    pub fn to_text(&self) -> String {
        let mut out = String::from("smappic-faultplan v1\n");
        match self {
            FaultPlan::Seeded { seed, profile } => {
                out.push_str(&format!("seeded {seed:#x}\n"));
                out.push_str(&format!(
                    "delay {:#x} {}\n",
                    profile.delay_prob.to_bits(),
                    profile.delay_max
                ));
                out.push_str(&format!(
                    "dup {:#x} {}\n",
                    profile.dup_prob.to_bits(),
                    profile.dup_delay_max
                ));
                out.push_str(&format!(
                    "stall {:#x} {}\n",
                    profile.stall_prob.to_bits(),
                    profile.stall_window
                ));
                out.push_str(&format!(
                    "spike {:#x} {}\n",
                    profile.spike_prob.to_bits(),
                    profile.spike_max
                ));
                match profile.blackhole_after {
                    Some(t) => out.push_str(&format!("blackhole {t}\n")),
                    None => out.push_str("blackhole -\n"),
                }
            }
            FaultPlan::Schedule { entries } => {
                out.push_str("schedule\n");
                for e in entries {
                    let dup = e.action.duplicate.map_or("-".to_string(), |d| d.to_string());
                    out.push_str(&format!("{} {} {} {}\n", e.stream, e.seq, e.action.delay, dup));
                }
            }
        }
        out
    }

    /// Parses [`FaultPlan::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        fn parse_u64(tok: &str) -> Result<u64, String> {
            let r = match tok.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => tok.parse(),
            };
            r.map_err(|e| format!("bad number {tok:?}: {e}"))
        }
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        match lines.next() {
            Some("smappic-faultplan v1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let kind = lines.next().ok_or("missing plan kind")?;
        if kind == "schedule" {
            let mut entries = Vec::new();
            for line in lines {
                let t: Vec<&str> = line.split_whitespace().collect();
                if t.len() != 4 {
                    return Err(format!("bad schedule line {line:?}"));
                }
                let duplicate = if t[3] == "-" { None } else { Some(parse_u64(t[3])?) };
                entries.push(ScheduleEntry {
                    stream: parse_u64(t[0])?,
                    seq: parse_u64(t[1])?,
                    action: FaultAction { delay: parse_u64(t[2])?, duplicate },
                });
            }
            return Ok(Self::schedule(entries));
        }
        let seed = match kind.split_whitespace().collect::<Vec<_>>()[..] {
            ["seeded", s] => parse_u64(s)?,
            _ => return Err(format!("bad plan kind {kind:?}")),
        };
        let mut profile = FaultProfile::quiet();
        for line in lines {
            let t: Vec<&str> = line.split_whitespace().collect();
            match t[..] {
                ["delay", p, m] => {
                    profile.delay_prob = f64::from_bits(parse_u64(p)?);
                    profile.delay_max = parse_u64(m)?;
                }
                ["dup", p, m] => {
                    profile.dup_prob = f64::from_bits(parse_u64(p)?);
                    profile.dup_delay_max = parse_u64(m)?;
                }
                ["stall", p, w] => {
                    profile.stall_prob = f64::from_bits(parse_u64(p)?);
                    profile.stall_window = parse_u64(w)?;
                }
                ["spike", p, m] => {
                    profile.spike_prob = f64::from_bits(parse_u64(p)?);
                    profile.spike_max = parse_u64(m)?;
                }
                ["blackhole", "-"] => profile.blackhole_after = None,
                ["blackhole", t0] => profile.blackhole_after = Some(parse_u64(t0)?),
                _ => return Err(format!("bad profile line {line:?}")),
            }
        }
        Ok(FaultPlan::Seeded { seed, profile })
    }
}

/// A component's handle into a shared [`FaultPlan`]: the plan plus the
/// stream identity of the transport it is wired into. Cheap to clone.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: Arc<FaultPlan>,
    stream: u64,
}

impl FaultInjector {
    /// Binds `plan` to transport stream `stream` (see [`fault_streams`]).
    pub fn new(plan: Arc<FaultPlan>, stream: u64) -> Self {
        Self { plan, stream }
    }

    /// This injector's stream identity.
    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// The full action for a *link* item: the base delay/duplicate for
    /// `seq`, pushed further by any stalled windows the delivery would
    /// land in, or black-holed wholesale after the profile's cutoff.
    /// `mature` is the item's clean delivery cycle.
    pub fn link_action(&self, seq: u64, mature: Cycle) -> FaultAction {
        if let FaultPlan::Seeded { profile, .. } = &*self.plan {
            if profile.blackhole_after.is_some_and(|t| mature >= t) {
                return FaultAction { delay: BLACKHOLE_DELAY, duplicate: None };
            }
        }
        let mut action = self.plan.action_for(self.stream, seq);
        if let FaultPlan::Seeded { profile, .. } = &*self.plan {
            // Ride out consecutive frozen windows (bounded sweep; the
            // probability of 64 consecutive stalls is negligible and a
            // deterministic cap keeps this total). A zero window size
            // disables stalls (checked_div yields None).
            let mut release = mature + action.delay;
            for _ in 0..64 {
                let Some(w) = release.checked_div(profile.stall_window) else { break };
                if self.plan.window_stalled(self.stream, 0, w) {
                    release = (w + 1) * profile.stall_window;
                } else {
                    break;
                }
            }
            action.delay = release - mature;
        }
        action
    }

    /// True when lane `lane` (a port/master index) of this stream is
    /// frozen at cycle `now`. Used for NoC port and crossbar stalls.
    pub fn stalled(&self, lane: u64, now: Cycle) -> bool {
        match &*self.plan {
            FaultPlan::Seeded { profile, .. } if profile.stall_window > 0 => {
                self.plan.window_stalled(self.stream, lane + 1, now / profile.stall_window)
            }
            _ => false,
        }
    }

    /// Extra latency injected into request `seq` of a DRAM channel.
    pub fn extra_latency(&self, seq: u64) -> Cycle {
        match &*self.plan {
            FaultPlan::Seeded { seed, profile } => {
                if hit(FaultPlan::draw(*seed, self.stream, seq, 5), profile.spike_prob) {
                    1 + bounded(FaultPlan::draw(*seed, self.stream, seq, 6), profile.spike_max)
                } else {
                    0
                }
            }
            FaultPlan::Schedule { .. } => self.plan.action_for(self.stream, seq).delay,
        }
    }
}

/// Canonical stream identities for the platform's transports. Keeping the
/// numbering here (rather than in the platform crate) lets plans be
/// written and replayed without referencing platform internals.
pub mod fault_streams {
    /// The inter-FPGA link direction from FPGA `from` to FPGA `to` —
    /// shared by the PCIe and switched-Ethernet transports (a pair of
    /// FPGAs communicates over exactly one of them, so the stream space
    /// needs no transport tag). The stride gives every ordered pair of a
    /// 1024-FPGA platform a distinct stream; the old `0x100 + from*8 + to`
    /// numbering collided as soon as a platform had 8 FPGAs
    /// (`link(0,8) == link(1,0)`).
    pub fn link(from: usize, to: usize) -> u64 {
        0x1_0000 + (from as u64) * 0x400 + to as u64
    }

    /// The NoC mesh of global node `node`.
    pub fn noc(node: usize) -> u64 {
        0x200 + node as u64
    }

    /// The AXI crossbar of FPGA `fpga`.
    pub fn xbar(fpga: usize) -> u64 {
        0x300 + fpga as u64
    }

    /// The DRAM channel of global node `node`.
    pub fn dram(node: usize) -> u64 {
        0x400 + node as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_actions_are_stable() {
        let plan = FaultPlan::seeded(7, FaultProfile::heavy());
        for seq in 0..100 {
            assert_eq!(plan.action_for(0x101, seq), plan.action_for(0x101, seq));
        }
    }

    #[test]
    fn quiet_profile_is_a_noop() {
        let plan = FaultPlan::seeded(9, FaultProfile::quiet());
        let inj = FaultInjector::new(Arc::new(plan), fault_streams::link(0, 1));
        for seq in 0..200 {
            assert!(inj.link_action(seq, seq * 10).is_noop());
            assert_eq!(inj.extra_latency(seq), 0);
            assert!(!inj.stalled(0, seq * 10));
        }
    }

    #[test]
    fn delays_respect_profile_bounds() {
        let profile = FaultProfile { delay_prob: 1.0, delay_max: 10, ..FaultProfile::quiet() };
        let plan = FaultPlan::seeded(3, profile);
        for seq in 0..500 {
            let a = plan.action_for(1, seq);
            assert!((1..=10).contains(&a.delay), "delay {} out of bounds", a.delay);
        }
    }

    #[test]
    fn blackhole_swallows_late_items_only() {
        let plan = FaultPlan::seeded(1, FaultProfile::blackhole(1_000));
        let inj = FaultInjector::new(Arc::new(plan), fault_streams::link(0, 1));
        assert!(inj.link_action(0, 999).is_noop());
        assert_eq!(inj.link_action(1, 1_000).delay, BLACKHOLE_DELAY);
    }

    #[test]
    fn schedule_replays_exact_entries() {
        let plan = FaultPlan::schedule(vec![
            ScheduleEntry { stream: 5, seq: 2, action: FaultAction { delay: 30, duplicate: None } },
            ScheduleEntry {
                stream: 5,
                seq: 0,
                action: FaultAction { delay: 0, duplicate: Some(12) },
            },
        ]);
        assert_eq!(plan.action_for(5, 0).duplicate, Some(12));
        assert_eq!(plan.action_for(5, 2).delay, 30);
        assert!(plan.action_for(5, 1).is_noop());
        assert!(plan.action_for(6, 0).is_noop());
    }

    #[test]
    fn link_streams_are_unique_at_rack_scale() {
        // Pinned regression: with the pre-rack numbering (stride 8),
        // link(0, 8) aliased link(1, 0), so an 8+-FPGA platform fed two
        // different links from one fault stream. Every ordered pair of a
        // 64-FPGA platform must map to a distinct stream, disjoint from
        // the noc/xbar/dram ranges.
        let mut seen = std::collections::HashSet::new();
        for from in 0..64 {
            for to in 0..64 {
                if from == to {
                    continue;
                }
                let s = fault_streams::link(from, to);
                assert!(seen.insert(s), "stream collision for link({from},{to})");
                for node in 0..256 {
                    assert_ne!(s, fault_streams::noc(node));
                    assert_ne!(s, fault_streams::dram(node));
                }
                for fpga in 0..64 {
                    assert_ne!(s, fault_streams::xbar(fpga));
                }
            }
        }
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let seeded = FaultPlan::seeded(0xDEAD, FaultProfile::heavy());
        assert_eq!(FaultPlan::from_text(&seeded.to_text()).unwrap(), seeded);

        let sched = FaultPlan::sample_schedule(
            &mut SimRng::new(11),
            &FaultProfile::light(),
            &[fault_streams::link(0, 1), fault_streams::link(1, 0)],
            64,
        );
        assert_eq!(FaultPlan::from_text(&sched.to_text()).unwrap(), sched);
    }

    #[test]
    fn stall_windows_defer_into_the_next_free_window() {
        let profile = FaultProfile { stall_prob: 0.5, stall_window: 32, ..FaultProfile::quiet() };
        let plan = Arc::new(FaultPlan::seeded(21, profile));
        let inj = FaultInjector::new(plan, fault_streams::link(0, 1));
        for seq in 0..200 {
            let mature = seq * 17;
            let a = inj.link_action(seq, mature);
            let release = mature + a.delay;
            // The release cycle must not sit inside a frozen window.
            assert!(
                !inj.plan.window_stalled(inj.stream, 0, release / 32),
                "seq {seq} released into a stalled window"
            );
        }
    }
}

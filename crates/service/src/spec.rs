//! Declarative job descriptions and their replay text format.
//!
//! A [`JobSpec`] is everything a tenant submits: the prototype shape and
//! topology, the workload, an optional deterministic fault plan, the
//! stepper, and a cycle budget. Specs are pure data — two builds of the
//! same spec produce bit-identical platforms — and round-trip losslessly
//! through a line-oriented text format (the same idiom as
//! [`FaultPlan::to_text`]), so the spec printed into a [`crate::JobReport`]
//! is sufficient to replay the job exactly.
//!
//! `stepper parallel`, the name of a threaded epoch executor that no longer
//! exists, still parses, as a synonym of `stepper serial`: it always ran
//! the same simulation. [`JobSpec::to_text`] writes it back as `serial`,
//! so the text, its digest and the job's checkpoint directory change. A
//! checkpoint persisted under the old text therefore no longer matches its
//! spec and the job restarts from cycle 0, which is safe because jobs are
//! deterministic.

use std::sync::Arc;

use smappic_core::resources::MAX_TILES_PER_NODE;
use smappic_core::{Config, FaultSpec, Platform, Topology};
use smappic_sim::{fnv1a, EthParams, FaultPlan, FaultProfile};

use crate::workload;

/// Inter-FPGA topology selection, mirroring [`Topology`] without carrying
/// the full [`EthParams`] (the service uses the calibrated defaults; only
/// the switch-group fan-in is a tenant knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// All-to-all PCIe links ([`Topology::PcieStar`], 1..=4 FPGAs).
    Star,
    /// Switched-Ethernet rack with leaf switches of `group_size` FPGAs.
    Ethernet {
        /// FPGAs per leaf switch.
        group_size: usize,
    },
    /// Ethernet between groups, PCIe inside each group of `group_size`.
    Hybrid {
        /// FPGAs per PCIe island (at most 4).
        group_size: usize,
    },
}

/// Which stepper drives the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepperSpec {
    /// Serial stepper with the host fast path disabled (the bit-exact
    /// per-cycle reference).
    Reference,
    /// Serial stepper with the fast path on (epoch driver + quiet warps).
    /// Spec text may also name it `parallel`.
    Serial,
}

/// Workload selection. The trace workloads mirror the benchmark's
/// `amo_saturated` / `bursty_sleep` duty-cycle profiles; `Sort` is the
/// NPB-IS bucket sort from `crates/workloads`; `Poison` is the chaos-test
/// job that panics mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Saturated atomic contention: every core hammers a shared counter.
    AmoHeavy {
        /// Shared-counter increments per core.
        ops: u64,
        /// Program-generation seed.
        seed: u64,
    },
    /// Bursty duty cycle: long compute stretches between accesses.
    Bursty {
        /// Shared-counter increments per core.
        ops: u64,
        /// Program-generation seed.
        seed: u64,
    },
    /// NPB Integer Sort (Fig 8 scaling shape, NUMA-aware placement).
    Sort {
        /// Total keys to sort.
        keys: usize,
        /// Worker threads (at most the tile count).
        threads: usize,
    },
    /// A [`crate::PoisonEngine`] on tile 0 that panics after `after`
    /// executed ticks — the chaos suite's worker-kill stand-in.
    Poison {
        /// Ticks until detonation.
        after: u64,
    },
}

/// Fault-plan profile selection, mirroring the [`FaultProfile`]
/// constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfileSpec {
    /// No faults (plumbing enabled, timing-neutral).
    Quiet,
    /// Occasional short delays and rare duplicates.
    Light,
    /// Frequent long delays, duplicates, stalls, DRAM spikes.
    Heavy,
    /// Permanently black-hole link items maturing at or after `at` — the
    /// unrecoverable fault the per-job Watchdog must report.
    Blackhole {
        /// First black-holed cycle.
        at: u64,
    },
}

/// A job's deterministic fault plan: profile, seed, and scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobFaults {
    /// Which [`FaultProfile`] to instantiate.
    pub profile: FaultProfileSpec,
    /// The plan seed (decisions are pure functions of `(seed, stream, seq)`).
    pub seed: u64,
    /// Restrict injection to the PCIe/Ethernet links ([`FaultSpec::links_only`])
    /// instead of every transport ([`FaultSpec::all`]).
    pub links_only: bool,
}

/// A declarative prototyping job: everything needed to rebuild the
/// platform bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Tenant-chosen label (one whitespace-free token).
    pub name: String,
    /// FPGAs in the prototype.
    pub fpgas: usize,
    /// Nodes per FPGA (1..=4).
    pub nodes: usize,
    /// Tiles per node.
    pub tiles: usize,
    /// Inter-FPGA topology.
    pub topology: TopoSpec,
    /// Stepper choice.
    pub stepper: StepperSpec,
    /// The workload to install.
    pub workload: WorkloadSpec,
    /// Optional deterministic fault plan.
    pub faults: Option<JobFaults>,
    /// Maximum cycles to run; the job also ends early on quiescence.
    pub budget: u64,
    /// Collect a Perfetto trace of the job's final segment.
    pub trace: bool,
    /// Tenant this job is accounted to (one whitespace-free token). The
    /// scheduler's quotas ([`crate::TenantQuota`]) key on it. Old v1 spec
    /// texts without a `tenant` line parse as [`JobSpec::DEFAULT_TENANT`].
    pub tenant: String,
    /// Scheduling priority, `0..=`[`JobSpec::MAX_PRIORITY`]; higher runs
    /// first and may preempt lower. Defaults to
    /// [`JobSpec::DEFAULT_PRIORITY`]; the scheduler's aging rule boosts a
    /// waiting job's *effective* priority, so low means later, never never.
    pub priority: u8,
    /// Optional completion deadline in simulated cycles. Used as the
    /// earliest-deadline-first tiebreak within a priority class; a
    /// terminal report whose cycle count exceeds it is flagged
    /// `deadline_missed`.
    pub deadline_cycles: Option<u64>,
}

impl JobSpec {
    /// Tenant a spec belongs to when no `tenant` line names one.
    pub const DEFAULT_TENANT: &'static str = "default";
    /// Priority assigned when no `priority` line names one (mid-scale,
    /// so tenants can go both above and below the default).
    pub const DEFAULT_PRIORITY: u8 = 4;
    /// Highest (most urgent) priority; aging saturates here.
    pub const MAX_PRIORITY: u8 = 7;

    /// A small single-FPGA default: handy starting point for builders.
    pub fn small(name: &str, workload: WorkloadSpec) -> Self {
        Self {
            name: name.to_string(),
            fpgas: 2,
            nodes: 1,
            tiles: 2,
            topology: TopoSpec::Star,
            stepper: StepperSpec::Serial,
            workload,
            faults: None,
            budget: 2_000_000,
            trace: false,
            tenant: Self::DEFAULT_TENANT.to_string(),
            priority: Self::DEFAULT_PRIORITY,
            deadline_cycles: None,
        }
    }

    /// Validates the spec against the platform's construction limits, so
    /// a malformed submission is a typed error instead of a panic inside
    /// [`Config`].
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.split_whitespace().count() != 1 {
            return Err(format!("job name must be one non-empty token, got {:?}", self.name));
        }
        if !(1..=4).contains(&self.nodes) {
            return Err(format!("nodes per FPGA must be 1..=4, got {}", self.nodes));
        }
        if self.tiles == 0 {
            return Err("a node needs at least one tile".into());
        }
        match self.topology {
            TopoSpec::Star => {
                if !(1..=4).contains(&self.fpgas) {
                    return Err(format!("star topologies span 1..=4 FPGAs, got {}", self.fpgas));
                }
            }
            TopoSpec::Ethernet { group_size } => {
                if group_size == 0 {
                    return Err("ethernet group_size must be >= 1".into());
                }
                if !(1..=256).contains(&self.fpgas) {
                    return Err(format!("rack topologies span 1..=256 FPGAs, got {}", self.fpgas));
                }
            }
            TopoSpec::Hybrid { group_size } => {
                if !(1..=4).contains(&group_size) {
                    return Err(format!("hybrid group_size must be 1..=4, got {group_size}"));
                }
                if !(1..=256).contains(&self.fpgas) {
                    return Err(format!("rack topologies span 1..=256 FPGAs, got {}", self.fpgas));
                }
            }
        }
        if let WorkloadSpec::Sort { keys, threads } = self.workload {
            let total = self.fpgas.checked_mul(self.nodes).and_then(|n| n.checked_mul(self.tiles));
            let total = total.ok_or("the shape's tile count overflows")?;
            if threads == 0 || threads > total {
                return Err(format!("sort threads must be 1..={total}, got {threads}"));
            }
            if keys == 0 {
                return Err("sort needs at least one key".into());
            }
        }
        if self.tiles > MAX_TILES_PER_NODE {
            return Err(format!(
                "tiles per node must be 1..={MAX_TILES_PER_NODE}, got {}",
                self.tiles
            ));
        }
        if self.budget == 0 {
            return Err("cycle budget must be positive".into());
        }
        if self.tenant.is_empty() || self.tenant.split_whitespace().count() != 1 {
            return Err(format!("tenant must be one non-empty token, got {:?}", self.tenant));
        }
        if self.priority > Self::MAX_PRIORITY {
            return Err(format!(
                "priority must be 0..={}, got {}",
                Self::MAX_PRIORITY,
                self.priority
            ));
        }
        if self.deadline_cycles == Some(0) {
            return Err("deadline_cycles must be positive when set".into());
        }
        Ok(())
    }

    /// The platform [`Config`] this spec describes (topology + faults).
    pub fn config(&self) -> Config {
        let mut cfg = match self.topology {
            TopoSpec::Star => Config::new(self.fpgas, self.nodes, self.tiles),
            TopoSpec::Ethernet { group_size } => Config::rack(
                self.fpgas,
                self.nodes,
                self.tiles,
                Topology::Ethernet(EthParams { group_size, ..EthParams::default() }),
            ),
            TopoSpec::Hybrid { group_size } => Config::rack(
                self.fpgas,
                self.nodes,
                self.tiles,
                Topology::Hybrid(EthParams { group_size, ..EthParams::default() }),
            ),
        };
        if let Some(jf) = &self.faults {
            let profile = match jf.profile {
                FaultProfileSpec::Quiet => FaultProfile::quiet(),
                FaultProfileSpec::Light => FaultProfile::light(),
                FaultProfileSpec::Heavy => FaultProfile::heavy(),
                FaultProfileSpec::Blackhole { at } => FaultProfile::blackhole(at),
            };
            let plan = Arc::new(FaultPlan::seeded(jf.seed, profile));
            cfg = cfg.with_faults(if jf.links_only {
                FaultSpec::links_only(plan)
            } else {
                FaultSpec::all(plan)
            });
        }
        cfg
    }

    /// Builds the job's platform: config, workload engines, stepper mode.
    /// Two calls build bit-identical twins — the property the scheduler's
    /// park/rebuild/restore migration relies on.
    ///
    /// # Panics
    ///
    /// On an invalid spec; call [`JobSpec::validate`] first at service
    /// boundaries.
    pub fn build(&self) -> Platform {
        if let Err(e) = self.validate() {
            panic!("invalid JobSpec: {e}");
        }
        let mut p = workload::build_platform(self);
        if self.stepper == StepperSpec::Reference {
            p.set_fast_path(false);
        }
        if self.trace {
            p.set_tracing(true);
        }
        p
    }

    /// A stable fingerprint of the spec text — names replay artifacts.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_text().as_bytes())
    }

    /// Serializes the spec into the line-oriented replay format.
    /// [`JobSpec::from_text`] parses it back losslessly.
    pub fn to_text(&self) -> String {
        let mut out = String::from("smappic-jobspec v1\n");
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("shape {} {} {}\n", self.fpgas, self.nodes, self.tiles));
        match self.topology {
            TopoSpec::Star => out.push_str("topology star\n"),
            TopoSpec::Ethernet { group_size } => {
                out.push_str(&format!("topology eth {group_size}\n"))
            }
            TopoSpec::Hybrid { group_size } => {
                out.push_str(&format!("topology hybrid {group_size}\n"))
            }
        }
        let stepper = match self.stepper {
            StepperSpec::Reference => "reference",
            StepperSpec::Serial => "serial",
        };
        out.push_str(&format!("stepper {stepper}\n"));
        match self.workload {
            WorkloadSpec::AmoHeavy { ops, seed } => {
                out.push_str(&format!("workload amoheavy {ops} {seed:#x}\n"))
            }
            WorkloadSpec::Bursty { ops, seed } => {
                out.push_str(&format!("workload bursty {ops} {seed:#x}\n"))
            }
            WorkloadSpec::Sort { keys, threads } => {
                out.push_str(&format!("workload sort {keys} {threads}\n"))
            }
            WorkloadSpec::Poison { after } => out.push_str(&format!("workload poison {after}\n")),
        }
        match &self.faults {
            None => out.push_str("faults none\n"),
            Some(jf) => {
                let profile = match jf.profile {
                    FaultProfileSpec::Quiet => "quiet".to_string(),
                    FaultProfileSpec::Light => "light".to_string(),
                    FaultProfileSpec::Heavy => "heavy".to_string(),
                    FaultProfileSpec::Blackhole { at } => format!("blackhole:{at}"),
                };
                let scope = if jf.links_only { "links" } else { "all" };
                out.push_str(&format!("faults {profile} {:#x} {scope}\n", jf.seed));
            }
        }
        out.push_str(&format!("budget {}\n", self.budget));
        out.push_str(&format!("trace {}\n", if self.trace { "on" } else { "off" }));
        // Multi-tenancy fields are emitted only when non-default, so a
        // default spec's text (and digest) is byte-identical to the
        // pre-tenancy v1 format and old readers keep parsing new specs
        // that never opted in.
        if self.tenant != Self::DEFAULT_TENANT {
            out.push_str(&format!("tenant {}\n", self.tenant));
        }
        if self.priority != Self::DEFAULT_PRIORITY {
            out.push_str(&format!("priority {}\n", self.priority));
        }
        if let Some(d) = self.deadline_cycles {
            out.push_str(&format!("deadline {d}\n"));
        }
        out
    }

    /// Parses [`JobSpec::to_text`] output. Line order is fixed; every
    /// field is mandatory. `stepper parallel` parses as
    /// [`StepperSpec::Serial`] (see the module docs).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        fn parse_u64(tok: &str) -> Result<u64, String> {
            let r = match tok.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => tok.parse(),
            };
            r.map_err(|e| format!("bad number {tok:?}: {e}"))
        }
        fn parse_usize(tok: &str) -> Result<usize, String> {
            tok.parse().map_err(|e| format!("bad number {tok:?}: {e}"))
        }
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let mut field = |key: &str| -> Result<Vec<String>, String> {
            let line = lines.next().ok_or_else(|| format!("missing {key:?} line"))?;
            let mut toks = line.split_whitespace().map(str::to_string);
            let found = toks.next().unwrap_or_default();
            if found != key {
                return Err(format!("expected {key:?} line, found {line:?}"));
            }
            Ok(toks.collect())
        };

        let header = field("smappic-jobspec")?;
        if header != ["v1"] {
            return Err(format!("unsupported jobspec version {header:?}"));
        }
        let name_toks = field("name")?;
        let [name] = name_toks.as_slice() else {
            return Err(format!("name wants one token, got {name_toks:?}"));
        };
        let shape = field("shape")?;
        let [f, n, t] = shape.as_slice() else {
            return Err(format!("shape wants <fpgas> <nodes> <tiles>, got {shape:?}"));
        };
        let (fpgas, nodes, tiles) = (parse_usize(f)?, parse_usize(n)?, parse_usize(t)?);
        let topo = field("topology")?;
        let topology = match topo.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
            ["star"] => TopoSpec::Star,
            ["eth", g] => TopoSpec::Ethernet { group_size: parse_usize(g)? },
            ["hybrid", g] => TopoSpec::Hybrid { group_size: parse_usize(g)? },
            _ => return Err(format!("bad topology {topo:?}")),
        };
        let st = field("stepper")?;
        let stepper = match st.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
            ["reference"] => StepperSpec::Reference,
            ["serial" | "parallel"] => StepperSpec::Serial,
            _ => return Err(format!("bad stepper {st:?}")),
        };
        let wl = field("workload")?;
        let workload = match wl.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
            ["amoheavy", ops, seed] => {
                WorkloadSpec::AmoHeavy { ops: parse_u64(ops)?, seed: parse_u64(seed)? }
            }
            ["bursty", ops, seed] => {
                WorkloadSpec::Bursty { ops: parse_u64(ops)?, seed: parse_u64(seed)? }
            }
            ["sort", keys, threads] => {
                WorkloadSpec::Sort { keys: parse_usize(keys)?, threads: parse_usize(threads)? }
            }
            ["poison", after] => WorkloadSpec::Poison { after: parse_u64(after)? },
            _ => return Err(format!("bad workload {wl:?}")),
        };
        let fl = field("faults")?;
        let faults = match fl.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
            ["none"] => None,
            [profile, seed, scope] => {
                let profile = match profile.split_once(':') {
                    Some(("blackhole", at)) => FaultProfileSpec::Blackhole { at: parse_u64(at)? },
                    None => match *profile {
                        "quiet" => FaultProfileSpec::Quiet,
                        "light" => FaultProfileSpec::Light,
                        "heavy" => FaultProfileSpec::Heavy,
                        other => return Err(format!("bad fault profile {other:?}")),
                    },
                    _ => return Err(format!("bad fault profile {profile:?}")),
                };
                let links_only = match *scope {
                    "links" => true,
                    "all" => false,
                    other => return Err(format!("bad fault scope {other:?}")),
                };
                Some(JobFaults { profile, seed: parse_u64(seed)?, links_only })
            }
            _ => return Err(format!("bad faults line {fl:?}")),
        };
        let bd = field("budget")?;
        let [budget] = bd.as_slice() else {
            return Err(format!("budget wants one number, got {bd:?}"));
        };
        let tr = field("trace")?;
        let trace = match tr.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
            ["on"] => true,
            ["off"] => false,
            _ => return Err(format!("bad trace flag {tr:?}")),
        };
        // Optional multi-tenancy trailer: absent in old v1 texts, which
        // therefore parse with the defaults. Each key appears at most
        // once, in canonical order.
        let mut tenant = Self::DEFAULT_TENANT.to_string();
        let mut priority = Self::DEFAULT_PRIORITY;
        let mut deadline_cycles = None;
        let mut seen = 0u8;
        for line in lines {
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks.as_slice() {
                ["tenant", t] if seen < 1 => {
                    tenant = t.to_string();
                    seen = 1;
                }
                ["priority", p] if seen < 2 => {
                    priority = p.parse().map_err(|e| format!("bad priority {p:?}: {e}"))?;
                    seen = 2;
                }
                ["deadline", d] if seen < 3 => {
                    deadline_cycles = Some(parse_u64(d)?);
                    seen = 3;
                }
                _ => return Err(format!("trailing line {line:?}")),
            }
        }
        let spec = Self {
            name: name.clone(),
            fpgas,
            nodes,
            tiles,
            topology,
            stepper,
            workload,
            faults,
            budget: parse_u64(budget)?,
            trace,
            tenant,
            priority,
            deadline_cycles,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips() {
        let spec = JobSpec {
            name: "tenant-7".into(),
            fpgas: 8,
            nodes: 1,
            tiles: 2,
            topology: TopoSpec::Ethernet { group_size: 4 },
            stepper: StepperSpec::Reference,
            workload: WorkloadSpec::AmoHeavy { ops: 500, seed: 0xBEEF },
            faults: Some(JobFaults {
                profile: FaultProfileSpec::Blackhole { at: 9000 },
                seed: 42,
                links_only: true,
            }),
            budget: 1_000_000,
            trace: true,
            tenant: "acme".into(),
            priority: 6,
            deadline_cycles: Some(750_000),
        };
        let parsed = JobSpec::from_text(&spec.to_text()).expect("round-trips");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.digest(), spec.digest());
    }

    #[test]
    fn old_v1_text_parses_with_tenancy_defaults() {
        // A default spec's text carries no tenancy trailer at all, so it
        // is exactly what a pre-tenancy writer produced.
        let spec = JobSpec::small("legacy", WorkloadSpec::Bursty { ops: 9, seed: 3 });
        let text = spec.to_text();
        assert!(!text.contains("tenant") && !text.contains("priority"));
        let parsed = JobSpec::from_text(&text).expect("old v1 text parses");
        assert_eq!(parsed.tenant, JobSpec::DEFAULT_TENANT);
        assert_eq!(parsed.priority, JobSpec::DEFAULT_PRIORITY);
        assert_eq!(parsed.deadline_cycles, None);
        assert_eq!(parsed, spec);
        // Non-default tenancy extends the digest.
        let mut pri = spec.clone();
        pri.priority = 7;
        assert_ne!(pri.digest(), spec.digest());
        // Duplicate or out-of-order trailer keys are rejected.
        assert!(JobSpec::from_text(&(text.clone() + "tenant a\ntenant b\n")).is_err());
        assert!(JobSpec::from_text(&(text + "deadline 5\npriority 1\n")).is_err());
    }

    #[test]
    fn stepper_parallel_parses_as_serial_and_writes_back_as_serial() {
        let serial = JobSpec::small("old", WorkloadSpec::AmoHeavy { ops: 9, seed: 3 });
        let text = serial.to_text();
        assert!(text.contains("\nstepper serial\n"));
        let old = text.replace("\nstepper serial\n", "\nstepper parallel\n");
        let parsed = JobSpec::from_text(&old).expect("the old stepper name still parses");
        assert_eq!(parsed, serial);
        assert_eq!(parsed.to_text(), text, "to_text writes the synonym as serial");
        assert_ne!(parsed.digest(), fnv1a(old.as_bytes()), "the old text names another job");
    }

    #[test]
    fn malformed_text_is_a_typed_error() {
        assert!(JobSpec::from_text("").is_err());
        assert!(JobSpec::from_text("smappic-jobspec v2\n").is_err());
        let good = JobSpec::small("a", WorkloadSpec::Bursty { ops: 1, seed: 1 }).to_text();
        assert!(JobSpec::from_text(&good.replace("shape 2 1 2", "shape 9 1 2")).is_err());
        // Shapes too large to build are rejected before anything is
        // allocated, and a sort's thread ceiling never overflows.
        assert!(JobSpec::from_text(&good.replace("shape 2 1 2", "shape 1 1 4000000000")).is_err());
        let sort = JobSpec::small("s", WorkloadSpec::Sort { keys: 64, threads: 4 }).to_text();
        let huge = sort.replace("shape 2 1 2", "shape 4 4 2305843009213693952");
        assert!(JobSpec::from_text(&huge).is_err());
        assert!(JobSpec::from_text(&(good.clone() + "extra line\n")).is_err());
        assert!(JobSpec::from_text(&good.replace("faults none", "faults maybe 1 all")).is_err());
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut s = JobSpec::small("ok", WorkloadSpec::Sort { keys: 64, threads: 4 });
        assert!(s.validate().is_ok());
        s.workload = WorkloadSpec::Sort { keys: 64, threads: 500 };
        assert!(s.validate().is_err());
        s.workload = WorkloadSpec::Bursty { ops: 1, seed: 1 };
        s.name = "two words".into();
        assert!(s.validate().is_err());
        s.name = "ok".into();
        s.topology = TopoSpec::Hybrid { group_size: 9 };
        assert!(s.validate().is_err());
        s.topology = TopoSpec::Star;
        s.priority = JobSpec::MAX_PRIORITY + 1;
        assert!(s.validate().is_err());
        s.priority = JobSpec::DEFAULT_PRIORITY;
        s.tenant = "two words".into();
        assert!(s.validate().is_err());
        s.tenant = "ok".into();
        s.deadline_cycles = Some(0);
        assert!(s.validate().is_err());
    }
}

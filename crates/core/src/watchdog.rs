//! Livelock detection: the platform Watchdog and its structured report.
//!
//! Injected timing faults must never hang a run silently — a blackholed
//! link, for example, leaves a core spinning on a flag that will never be
//! written. The Watchdog samples the platform's *progress signature* (a
//! hash of every monotone architectural-progress counter: engine
//! retirement, shell traffic, NoC deliveries, link bytes) at a fixed
//! interval; when the signature freezes for longer than the configured
//! bound while the platform is not quiescent, the run is declared
//! livelocked and a [`FaultReport`] describes the stuck state instead of
//! the test timing out.

use smappic_sim::Cycle;

/// Watchdog tuning.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Declare livelock after this many cycles without any change in the
    /// progress signature (must comfortably exceed the longest legitimate
    /// quiet stretch — PCIe + DRAM + injected delays).
    pub stall_limit: Cycle,
    /// How often (in cycles) the signature is sampled. Detection latency
    /// is `stall_limit + check_interval` in the worst case. Read only by
    /// [`Platform::run_until_idle_watched`]; the service scheduler samples
    /// once per quantum instead and ignores it.
    ///
    /// [`Platform::run_until_idle_watched`]: crate::Platform::run_until_idle_watched
    pub check_interval: Cycle,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self { stall_limit: 50_000, check_interval: 1_000 }
    }
}

/// A structured description of a detected livelock.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Cycle at which the Watchdog declared livelock.
    pub detected_at: Cycle,
    /// Last cycle at which the progress signature changed.
    pub stalled_since: Cycle,
    /// `detected_at - stalled_since`.
    pub stalled_for: Cycle,
    /// The frozen progress signature (diagnostic fingerprint).
    pub signature: u64,
    /// Per-FPGA idle flags at detection time.
    pub fpga_idle: Vec<bool>,
    /// Items stuck in PCIe links (shapers + fault-stage jitter buffers).
    pub links_in_flight: usize,
    /// Full platform statistics at detection time.
    pub stats: String,
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "LIVELOCK detected at cycle {}", self.detected_at)?;
        writeln!(
            f,
            "  no architectural progress since cycle {} ({} cycles)",
            self.stalled_since, self.stalled_for
        )?;
        writeln!(f, "  progress signature: {:#018x}", self.signature)?;
        let idle: Vec<String> =
            self.fpga_idle.iter().map(|i| if *i { "idle" } else { "busy" }.into()).collect();
        writeln!(f, "  fpgas: [{}]", idle.join(", "))?;
        writeln!(f, "  pcie items in flight: {}", self.links_in_flight)?;
        write!(f, "  stats:\n{}", self.stats)
    }
}

/// The stall detector: feed it `(now, signature)` samples; it reports when
/// the signature has been frozen past the limit.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    last_sig: Option<u64>,
    last_change_at: Cycle,
}

impl Watchdog {
    /// Creates a watchdog; the first observation initializes the baseline.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Self { cfg, last_sig: None, last_change_at: 0 }
    }

    /// The configured tuning.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// The current stall-tracking state as `(last_signature,
    /// last_change_at)`. Together with [`Watchdog::resume`] this lets a
    /// scheduler park a watched job and re-arm an equivalent watchdog on
    /// another worker without resetting the stall clock — a job frozen
    /// across a migration stays frozen, it does not get a fresh
    /// `stall_limit` per resume.
    pub fn state(&self) -> (Option<u64>, Cycle) {
        (self.last_sig, self.last_change_at)
    }

    /// Reconstructs a watchdog from a parked [`Watchdog::state`], so
    /// detection behaves as if the same watchdog had observed the whole
    /// run.
    pub fn resume(cfg: WatchdogConfig, last_sig: Option<u64>, last_change_at: Cycle) -> Self {
        Self { cfg, last_sig, last_change_at }
    }

    /// Records a sample. Returns `Some(stalled_since)` when the signature
    /// has not changed for at least `stall_limit` cycles.
    pub fn observe(&mut self, now: Cycle, signature: u64) -> Option<Cycle> {
        match self.last_sig {
            Some(prev) if prev == signature => (now.saturating_sub(self.last_change_at)
                >= self.cfg.stall_limit)
                .then_some(self.last_change_at),
            _ => {
                self.last_sig = Some(signature);
                self.last_change_at = now;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_only_after_the_limit() {
        let mut wd = Watchdog::new(WatchdogConfig { stall_limit: 100, check_interval: 10 });
        assert_eq!(wd.observe(0, 7), None);
        assert_eq!(wd.observe(50, 7), None);
        assert_eq!(wd.observe(99, 7), None);
        assert_eq!(wd.observe(100, 7), Some(0));
    }

    #[test]
    fn progress_resets_the_clock() {
        let mut wd = Watchdog::new(WatchdogConfig { stall_limit: 100, check_interval: 10 });
        assert_eq!(wd.observe(0, 1), None);
        assert_eq!(wd.observe(90, 2), None); // progress
        assert_eq!(wd.observe(180, 2), None); // only 90 stalled
        assert_eq!(wd.observe(190, 2), Some(90));
    }

    #[test]
    fn report_renders_human_readably() {
        let r = FaultReport {
            detected_at: 60_000,
            stalled_since: 10_000,
            stalled_for: 50_000,
            signature: 0xDEAD_BEEF,
            fpga_idle: vec![false, true],
            links_in_flight: 1,
            stats: "shell.out_req: 4".into(),
        };
        let s = r.to_string();
        assert!(s.contains("LIVELOCK"));
        assert!(s.contains("60000"));
        assert!(s.contains("busy, idle"));
    }
}

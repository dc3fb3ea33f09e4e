//! The scheduler's aging rule, pinned at the quantum it decides.
//!
//! One worker, `PreemptMode::WhenOutranked`, default `aging_quanta` (64).
//! A priority-6 job runs while a priority-5 job waits. The waiter's
//! effective priority rises one step per 64 fleet-wide quanta and saturates
//! at `JobSpec::MAX_PRIORITY` (7), so after exactly 128 quanta it outranks
//! the runner, which yields at that quantum boundary. The parked runner
//! (priority 6) then outranks the waiter's base 5 and takes the worker
//! back after one quantum, so a runner still busy at quantum 128 costs two
//! preemptions, and one that finishes on quantum 128 costs none. A boost
//! capped at 6, or a period of 65 quanta, leaves both runs unpreempted.

use smappic::service::{
    JobSpec, PreemptMode, Scheduler, SchedulerConfig, StepperSpec, TopoSpec, WorkloadSpec,
};

/// A one-tile job that stays busy for its whole budget: a poison engine
/// whose fuse never burns down.
fn spinner(name: &str, priority: u8, quanta: u64, grain: u64) -> JobSpec {
    JobSpec {
        name: name.into(),
        fpgas: 1,
        nodes: 1,
        tiles: 1,
        topology: TopoSpec::Star,
        stepper: StepperSpec::Serial,
        workload: WorkloadSpec::Poison { after: u64::MAX },
        faults: None,
        budget: quanta * grain,
        trace: false,
        tenant: JobSpec::DEFAULT_TENANT.into(),
        priority,
        deadline_cycles: None,
    }
}

/// Runs a priority-6 job of `runner_quanta` quanta beside a waiting
/// priority-5 job of two, and returns the preemptions of each and the
/// fleet's `sched.preemptions`.
fn preemptions(runner_quanta: u64) -> (u64, u64, u64) {
    let grain = spinner("probe", 0, 1, 1).build().preemption_grain();
    let cfg = SchedulerConfig {
        workers: 1,
        quantum: grain,
        preempt: PreemptMode::WhenOutranked,
        ..SchedulerConfig::default()
    };
    assert_eq!(cfg.aging_quanta, 64, "the default aging period is under test");
    let fleet = [spinner("runner", 6, runner_quanta, grain), spinner("waiter", 5, 2, grain)];
    let result = Scheduler::new(cfg).run_fleet(&fleet);
    for r in &result.reports {
        assert!(r.is_completed(), "{} must complete: {:?}", r.name, r.exit);
    }
    assert_eq!(result.reports[0].cycles, runner_quanta * grain);
    assert_eq!(result.reports[1].cycles, 2 * grain);
    let total = result.metrics.counter("sched.preemptions");
    (result.reports[0].preemptions, result.reports[1].preemptions, total)
}

#[test]
fn a_waiter_outranks_the_runner_after_exactly_two_aging_periods() {
    assert_eq!(preemptions(129), (1, 1, 2), "busy at quantum 128: the waiter cuts in");
}

#[test]
fn a_runner_finishing_on_the_boundary_quantum_is_never_preempted() {
    assert_eq!(preemptions(128), (0, 0, 0), "done at quantum 128: nothing to yield to");
}

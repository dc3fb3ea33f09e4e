//! Service chaos suite: a job that kills its worker mid-run (a panic
//! deep inside the platform's engine tick path) must be isolated into a
//! structured per-job error report while every sibling job completes
//! with results identical to an undisturbed fleet. Same for a job that
//! livelocks on an unrecoverable fault: the per-job Watchdog converts it
//! into a structured exit instead of hanging the pool.

use smappic_core::WatchdogConfig;
use smappic_service::{
    FaultProfileSpec, JobExit, JobFaults, JobSpec, PreemptMode, Scheduler, SchedulerConfig,
    StepperSpec, TopoSpec, WorkloadSpec,
};

fn good_job(i: usize) -> JobSpec {
    JobSpec::small(
        &format!("tenant-{i}"),
        WorkloadSpec::AmoHeavy { ops: 35 + 5 * i as u64, seed: 0xC0FFEE + i as u64 },
    )
}

#[test]
fn a_panicking_job_is_isolated_and_siblings_are_untouched() {
    let mut fleet: Vec<JobSpec> = (0..4).map(good_job).collect();
    // Detonate mid-run, after the scheduler has had a chance to park and
    // resume the job at least once (the fuse spans several quanta).
    let mut saboteur = JobSpec::small("saboteur", WorkloadSpec::Poison { after: 9_000 });
    saboteur.budget = 1_000_000;
    fleet.insert(2, saboteur);
    let cfg = SchedulerConfig {
        workers: 2,
        quantum: 3_000,
        preempt: PreemptMode::Always,
        ..SchedulerConfig::default()
    };
    let reports = Scheduler::new(cfg).run(&fleet);
    assert_eq!(reports.len(), fleet.len(), "every job reports, even the saboteur");

    let saboteur = &reports[2];
    let JobExit::Panicked { message } = &saboteur.exit else {
        panic!("the poison job must end Panicked, got {:?}", saboteur.exit);
    };
    assert!(
        message.contains("poison engine detonated after 9000 ticks"),
        "the report must carry the panic payload, got {message:?}"
    );
    assert!(
        saboteur.preemptions > 0,
        "the fuse outlives several quanta, so the saboteur must have been parked and resumed \
         before detonating (the panic unwound from a *resumed* platform)"
    );

    // Every sibling completed, with exactly the results of a fleet that
    // never contained the saboteur.
    let undisturbed = Scheduler::new(SchedulerConfig {
        workers: 1,
        preempt: PreemptMode::Never,
        ..SchedulerConfig::default()
    })
    .run(&(0..4).map(good_job).collect::<Vec<_>>());
    for (i, clean) in undisturbed.iter().enumerate() {
        let r = &reports[if i < 2 { i } else { i + 1 }];
        assert!(
            matches!(r.exit, JobExit::Completed { idle: true }),
            "sibling {i} must quiesce, got {:?}",
            r.exit
        );
        assert_eq!(r.digest, clean.digest, "sibling {i} was perturbed by the saboteur");
        assert_eq!(r.cycles, clean.cycles, "sibling {i} cycle count drifted");
    }
}

#[test]
fn a_livelocked_job_reports_structured_error_while_the_pool_drains() {
    let stuck = JobSpec {
        name: "stuck".into(),
        fpgas: 2,
        nodes: 1,
        tiles: 2,
        topology: TopoSpec::Star,
        stepper: StepperSpec::Serial,
        workload: WorkloadSpec::AmoHeavy { ops: 4_000, seed: 11 },
        faults: Some(JobFaults {
            profile: FaultProfileSpec::Blackhole { at: 2_000 },
            seed: 1,
            links_only: true,
        }),
        budget: 10_000_000,
        trace: false,
        tenant: JobSpec::DEFAULT_TENANT.into(),
        priority: JobSpec::DEFAULT_PRIORITY,
        deadline_cycles: None,
    };
    let fleet = vec![good_job(0), stuck, good_job(1)];
    let reports = Scheduler::new(SchedulerConfig {
        workers: 2,
        quantum: 4_000,
        watchdog: WatchdogConfig { stall_limit: 30_000 },
        preempt: PreemptMode::WhenOutranked,
        ..SchedulerConfig::default()
    })
    .run(&fleet);

    let JobExit::Livelocked { stalled_since, detected_at } = reports[1].exit else {
        panic!("the blackholed job must be Livelocked, got {:?}", reports[1].exit);
    };
    assert!(stalled_since >= 2_000, "progress froze only after the blackhole cut in");
    assert!(detected_at >= stalled_since + 30_000, "the stall limit gates detection");
    assert!(
        reports[1].cycles < 10_000_000,
        "the watchdog must fire long before the budget is burned"
    );
    for i in [0usize, 2] {
        assert!(
            matches!(reports[i].exit, JobExit::Completed { idle: true }),
            "sibling {i} must complete, got {:?}",
            reports[i].exit
        );
    }
}

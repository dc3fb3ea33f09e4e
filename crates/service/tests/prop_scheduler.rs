//! Scheduler property suite (hand-rolled property loops over `SimRng`,
//! the workspace's in-tree proptest idiom):
//!
//! 1. every submitted job reaches a terminal state exactly once — no
//!    lost and no duplicated jobs, however hard the pool preempts;
//! 2. `JobSpec` text round-trips losslessly for randomized specs;
//! 3. reports are independent of worker count and dispatch order: the
//!    same fleet produces the same digests/cycles/exits on 1, 2, and 3
//!    workers with maximal preemption churn.

use smappic_core::WatchdogConfig;
use smappic_service::{
    FaultProfileSpec, JobExit, JobFaults, JobSpec, PreemptMode, Scheduler, SchedulerConfig,
    StepperSpec, TopoSpec, WorkloadSpec,
};
use smappic_sim::SimRng;

/// A randomized — but always valid — job spec.
fn random_spec(rng: &mut SimRng, i: usize) -> JobSpec {
    let topology = match rng.gen_range(3) {
        0 => TopoSpec::Star,
        1 => TopoSpec::Ethernet { group_size: rng.gen_range(3) as usize + 1 },
        _ => TopoSpec::Hybrid { group_size: rng.gen_range(2) as usize + 1 },
    };
    let fpgas = match topology {
        TopoSpec::Star => rng.gen_range(2) as usize + 1,
        _ => rng.gen_range(4) as usize + 1,
    };
    let nodes = 1;
    let tiles = rng.gen_range(2) as usize + 1;
    let stepper = match rng.gen_range(3) {
        0 => StepperSpec::Reference,
        _ => StepperSpec::Serial,
    };
    let workload = match rng.gen_range(3) {
        0 => WorkloadSpec::AmoHeavy { ops: rng.gen_range(30) + 5, seed: rng.next_u64() },
        1 => WorkloadSpec::Bursty { ops: rng.gen_range(12) + 3, seed: rng.next_u64() },
        _ => WorkloadSpec::Sort {
            keys: rng.gen_range(48) as usize + 16,
            threads: (rng.gen_range(2) as usize + 1).min(fpgas * nodes * tiles),
        },
    };
    let faults = if rng.chance(0.4) {
        Some(JobFaults {
            profile: if rng.chance(0.5) {
                FaultProfileSpec::Quiet
            } else {
                FaultProfileSpec::Light
            },
            seed: rng.next_u64(),
            links_only: rng.chance(0.5),
        })
    } else {
        None
    };
    let budget = 1_500_000 + rng.gen_range(500_000);
    JobSpec {
        name: format!("prop-{i}"),
        fpgas,
        nodes,
        tiles,
        topology,
        stepper,
        workload,
        faults,
        budget,
        trace: false,
        tenant: format!("tenant-{}", rng.gen_range(3)),
        priority: rng.gen_range(JobSpec::MAX_PRIORITY as u64 + 1) as u8,
        deadline_cycles: rng.chance(0.3).then_some(budget / 2 + rng.gen_range(budget)),
    }
}

#[test]
fn jobspec_text_round_trips_for_random_specs() {
    let mut rng = SimRng::new(0x0b_57_ac_1e);
    for i in 0..300 {
        let mut spec = random_spec(&mut rng, i);
        spec.trace = rng.chance(0.3);
        if rng.chance(0.2) {
            spec.faults = Some(JobFaults {
                profile: FaultProfileSpec::Blackhole { at: rng.next_u64() >> 32 },
                seed: rng.next_u64(),
                links_only: false,
            });
        }
        let text = spec.to_text();
        let parsed = JobSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("iteration {i}: {e}\nspec text:\n{text}"));
        assert_eq!(parsed, spec, "iteration {i} round-trip mismatch");
        assert_eq!(parsed.to_text(), text, "iteration {i} re-serialization mismatch");
    }
}

#[test]
fn every_job_reaches_a_terminal_state_exactly_once() {
    let mut rng = SimRng::new(0x7e_2a_11);
    for round in 0..4 {
        let n = rng.gen_range(4) as usize + 3;
        let mut specs: Vec<JobSpec> = (0..n).map(|i| random_spec(&mut rng, i)).collect();
        // One poison job per fleet: a panicking tenant must not cost any
        // other tenant its report.
        let poison_at = rng.gen_range(n as u64) as usize;
        specs[poison_at] = JobSpec {
            stepper: StepperSpec::Serial,
            workload: WorkloadSpec::Poison { after: 3_000 + rng.gen_range(4_000) },
            faults: None,
            ..specs[poison_at].clone()
        };
        let cfg = SchedulerConfig {
            workers: rng.gen_range(3) as usize + 1,
            quantum: 3_000,
            preempt: PreemptMode::Always,
            ..SchedulerConfig::default()
        };
        let reports = Scheduler::new(cfg).run(&specs);

        assert_eq!(reports.len(), n, "round {round}: one report per job, none lost");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.job, i, "round {round}: no duplicated/missorted jobs");
            assert_eq!(r.name, specs[i].name);
            if i == poison_at {
                let JobExit::Panicked { message } = &r.exit else {
                    panic!("round {round}: poison job must report Panicked, got {:?}", r.exit);
                };
                assert!(message.contains("poison engine detonated"), "got {message:?}");
            } else {
                assert!(
                    matches!(r.exit, JobExit::Completed { .. }),
                    "round {round}: job {i} must complete, got {:?}",
                    r.exit
                );
                assert_ne!(r.digest, 0, "round {round}: completed jobs carry a digest");
            }
        }
    }
}

#[test]
fn reports_are_independent_of_worker_count_and_steal_order() {
    let mut rng = SimRng::new(0xd1_6e_57);
    let specs: Vec<JobSpec> = (0..4).map(|i| random_spec(&mut rng, i)).collect();
    let outcomes: Vec<Vec<(u64, u64, bool)>> = [
        SchedulerConfig { workers: 1, preempt: PreemptMode::Never, ..SchedulerConfig::default() },
        SchedulerConfig {
            workers: 2,
            quantum: 4_000,
            preempt: PreemptMode::Always,
            ..SchedulerConfig::default()
        },
        SchedulerConfig {
            workers: 3,
            quantum: 9_000,
            preempt: PreemptMode::Always,
            ..SchedulerConfig::default()
        },
        // Fast aging makes outranked preemption depend on what is
        // waiting in the queue, yet it must still land on the same
        // architectural outcome.
        SchedulerConfig {
            workers: 2,
            quantum: 6_000,
            preempt: PreemptMode::WhenOutranked,
            aging_quanta: 2,
            ..SchedulerConfig::default()
        },
    ]
    .into_iter()
    .map(|cfg| {
        Scheduler::new(cfg)
            .run(&specs)
            .iter()
            .map(|r| (r.digest, r.cycles, r.is_completed()))
            .collect()
    })
    .collect();
    for (i, other) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(
            &outcomes[0], other,
            "pool variant {i} changed architectural outcomes — scheduling leaked into results"
        );
    }
}

#[test]
fn livelock_detection_is_schedule_invariant() {
    // A blackholed link freezes cross-FPGA progress; the per-job
    // watchdog must report the livelock at the same simulated cycle
    // whether the job ran straight or was parked and resumed throughout.
    let spec = JobSpec {
        name: "stuck".into(),
        fpgas: 2,
        nodes: 1,
        tiles: 2,
        topology: TopoSpec::Star,
        stepper: StepperSpec::Serial,
        workload: WorkloadSpec::AmoHeavy { ops: 4_000, seed: 9 },
        faults: Some(JobFaults {
            profile: FaultProfileSpec::Blackhole { at: 2_000 },
            seed: 0,
            links_only: true,
        }),
        budget: 5_000_000,
        trace: false,
        tenant: JobSpec::DEFAULT_TENANT.into(),
        priority: JobSpec::DEFAULT_PRIORITY,
        deadline_cycles: None,
    };
    let wd = WatchdogConfig { stall_limit: 30_000, check_interval: 1_000 };
    let straight = Scheduler::new(SchedulerConfig {
        workers: 1,
        preempt: PreemptMode::Never,
        watchdog: wd.clone(),
        quantum: 5_000,
        ..SchedulerConfig::default()
    })
    .run(std::slice::from_ref(&spec));
    let churned = Scheduler::new(SchedulerConfig {
        workers: 2,
        preempt: PreemptMode::Always,
        watchdog: wd,
        quantum: 5_000,
        ..SchedulerConfig::default()
    })
    .run(std::slice::from_ref(&spec));
    let (s, c) = (&straight[0], &churned[0]);
    let JobExit::Livelocked { stalled_since: s_since, detected_at: s_at } = s.exit else {
        panic!("straight run must livelock, got {:?}", s.exit);
    };
    let JobExit::Livelocked { stalled_since: c_since, detected_at: c_at } = c.exit else {
        panic!("churned run must livelock, got {:?}", c.exit);
    };
    assert!(c.preemptions > 0, "the churned run must actually park and resume");
    assert_eq!((s_since, s_at), (c_since, c_at), "watchdog state must survive migration");
    assert_eq!(s.digest, c.digest, "the stuck state itself must be identical");
}

//! Property suite for the multi-tenant policies (hand-rolled property
//! loops over `SimRng`, the workspace's in-tree proptest idiom):
//!
//! 1. quotas are never exceeded under random fleets — per-tenant
//!    in-flight peaks respect `max_in_flight`, executed cycles respect
//!    `cycle_budget`, and admission never loses a job;
//! 2. no starvation — under sustained high-priority churn with aging on,
//!    every admitted low-priority job still reaches a terminal state and
//!    actually executes;
//! 3. rejection determinism — the same fleet + config rejects the same
//!    jobs with the same typed reasons regardless of worker count or
//!    elastic resizing;
//! 4. digest identity across 1/2/4 workers with elastic resizing on —
//!    the core determinism contract survives the resource manager.

use smappic_service::{
    ElasticPolicy, JobExit, JobSpec, PreemptMode, RejectReason, Scheduler, SchedulerConfig,
    TenantQuota, WorkloadSpec,
};
use smappic_sim::SimRng;

/// A small randomized job for a named tenant.
fn tenant_job(rng: &mut SimRng, i: usize, tenant: &str) -> JobSpec {
    let mut spec = JobSpec::small(
        &format!("pol-{i}"),
        WorkloadSpec::AmoHeavy { ops: rng.gen_range(25) + 5, seed: rng.next_u64() },
    );
    spec.tenant = tenant.to_string();
    spec.priority = rng.gen_range(JobSpec::MAX_PRIORITY as u64 + 1) as u8;
    spec.budget = 1_000_000 + rng.gen_range(1_000_000);
    if rng.chance(0.25) {
        spec.deadline_cycles = Some(spec.budget / 2 + rng.gen_range(spec.budget));
    }
    spec
}

#[test]
fn quotas_are_never_exceeded_under_random_fleets() {
    let mut rng = SimRng::new(0x9_07_a5);
    for round in 0..4 {
        let tenants = ["alpha", "beta", "gamma"];
        let n = rng.gen_range(6) as usize + 6;
        let specs: Vec<JobSpec> = (0..n)
            .map(|i| {
                let t = tenants[rng.gen_range(3) as usize];
                tenant_job(&mut rng, i, t)
            })
            .collect();
        let quota_budget = 2_000_000 + rng.gen_range(4_000_000);
        let max_in_flight = rng.gen_range(2) as usize + 1;
        let max_pending = rng.gen_range(n as u64) as usize + 2;
        let cfg = SchedulerConfig {
            workers: rng.gen_range(3) as usize + 2,
            quantum: 4_000,
            preempt: PreemptMode::Always,
            max_pending,
            quotas: vec![TenantQuota {
                tenant: "alpha".into(),
                max_in_flight,
                cycle_budget: Some(quota_budget),
            }],
            ..SchedulerConfig::default()
        };
        let fleet = Scheduler::new(cfg).run_fleet(&specs);

        // Zero lost jobs: exactly one report per spec, in order.
        assert_eq!(fleet.reports.len(), n, "round {round}: no lost jobs");
        for (i, r) in fleet.reports.iter().enumerate() {
            assert_eq!(r.job, i, "round {round}: reports in submission order");
        }
        // The bounded queue held.
        let admitted = fleet.reports.iter().filter(|r| !r.is_rejected()).count();
        assert!(admitted <= max_pending, "round {round}: admitted {admitted} > {max_pending}");
        assert_eq!(fleet.metrics.counter("sched.admitted"), admitted as u64);
        // Alpha's cycle quota held: executed cycles across its admitted
        // jobs never exceed the budget (full-budget reservation makes
        // this a hard invariant, not a race).
        let alpha_cycles: u64 = fleet
            .reports
            .iter()
            .filter(|r| r.tenant == "alpha" && !r.is_rejected())
            .map(|r| r.cycles)
            .sum();
        assert!(
            alpha_cycles <= quota_budget,
            "round {round}: alpha executed {alpha_cycles} of a {quota_budget} quota"
        );
        assert!(fleet.metrics.counter("sched.tenant.alpha.reserved_cycles") <= quota_budget);
        assert!(fleet.metrics.counter("sched.tenant.alpha.spent_cycles") <= quota_budget);
        // Alpha's in-flight cap held at every dispatch.
        let peak = fleet.metrics.counter("sched.tenant.alpha.peak_in_flight");
        assert!(
            peak <= max_in_flight as u64,
            "round {round}: alpha peak in-flight {peak} > cap {max_in_flight}"
        );
        // Every rejection is structured and consistent with the config.
        for r in &fleet.reports {
            if let JobExit::Rejected { reason } = &r.exit {
                match reason {
                    RejectReason::QueueFull { limit } => assert_eq!(*limit, max_pending),
                    RejectReason::CycleQuota { tenant, needed, remaining } => {
                        assert_eq!(tenant, "alpha", "only alpha carries a cycle quota");
                        assert!(needed > remaining, "round {round}: rejection must be justified");
                    }
                }
            }
        }
    }
}

#[test]
fn no_starvation_under_sustained_high_priority_churn() {
    // A wall of priority-7 jobs plus a few priority-0 jobs. Under
    // WhenOutranked with aging on, low priority must mean *later*, never
    // *never*: every admitted job reaches a terminal state and actually
    // executes its cycles.
    let mut rng = SimRng::new(0x57_a2_4e);
    let mut specs = Vec::new();
    for i in 0..10 {
        let mut s = JobSpec::small(
            &format!("hi-{i}"),
            WorkloadSpec::AmoHeavy { ops: rng.gen_range(20) + 10, seed: rng.next_u64() },
        );
        s.tenant = "pushy".into();
        s.priority = JobSpec::MAX_PRIORITY;
        s.budget = 2_000_000;
        specs.push(s);
    }
    for i in 0..3 {
        let mut s =
            JobSpec::small(&format!("lo-{i}"), WorkloadSpec::AmoHeavy { ops: 15, seed: 0x10 + i });
        s.tenant = "patient".into();
        s.priority = 0;
        s.budget = 2_000_000;
        specs.push(s);
    }
    let cfg = SchedulerConfig {
        workers: 2,
        quantum: 3_000,
        preempt: PreemptMode::WhenOutranked,
        aging_quanta: 8,
        ..SchedulerConfig::default()
    };
    let fleet = Scheduler::new(cfg).run_fleet(&specs);
    assert_eq!(fleet.reports.len(), specs.len());
    for r in &fleet.reports {
        assert!(r.is_completed(), "{} must reach a terminal state, got {:?}", r.name, r.exit);
        assert!(r.cycles > 0, "{} must actually execute", r.name);
    }
    let lo_wait = fleet.metrics.histogram("sched.tenant.patient.wait_us");
    assert!(lo_wait.is_some_and(|h| h.count() >= 3), "low-priority jobs were dispatched");
}

#[test]
fn priority_preemption_parks_a_running_lower_priority_job() {
    // One worker, so the schedule is a function of the quanta clock alone
    // — no thread races another for a dispatch. `top` (max priority) runs
    // first: others can tie it, never outrank it. Then `urgent` (priority
    // 1) runs while `filler` (priority 0) waits, aging one step every
    // AGING quanta, until the filler's effective priority passes 1 and
    // `urgent` parks. Now the filler runs at base priority 0 while
    // `urgent` waits at 1 or more: under WhenOutranked it must park (via
    // the ordinary snapshot path) after its first quantum.
    const AGING: u64 = 3;
    let mk = |name: &str, priority: u8| {
        let mut s = JobSpec::small(name, WorkloadSpec::AmoHeavy { ops: 60, seed: 0xCAFE });
        s.priority = priority;
        s.budget = 6_000_000;
        s
    };
    let specs = vec![mk("top", JobSpec::MAX_PRIORITY), mk("urgent", 1), mk("filler", 0)];
    let cfg = SchedulerConfig {
        workers: 1,
        quantum: 2_000,
        preempt: PreemptMode::WhenOutranked,
        aging_quanta: AGING,
        ..SchedulerConfig::default()
    };
    let fleet = Scheduler::new(cfg.clone()).run_fleet(&specs);
    for r in &fleet.reports {
        assert!(r.is_completed(), "{} must complete, got {:?}", r.name, r.exit);
    }
    let [top, urgent, filler] = &fleet.reports[..] else { panic!("three reports") };
    assert!(
        filler.preemptions > 0,
        "the low-priority filler must be parked while a higher-priority job waits"
    );
    assert!(urgent.preemptions > 0, "the aged filler must outrank the running priority-1 job");
    // The max-priority job was never outranked, so it never parked.
    assert_eq!(top.preemptions, 0);
    // The schedule is reproducible, park for park.
    let again = Scheduler::new(cfg).run(&specs);
    for (r, a) in fleet.reports.iter().zip(&again) {
        assert_eq!(r.preemptions, a.preemptions, "{}: one worker, one schedule", r.name);
    }
    // And determinism survives the preemption churn.
    let baseline = Scheduler::serial().run(&specs);
    for (r, b) in fleet.reports.iter().zip(&baseline) {
        assert_eq!(r.digest, b.digest, "{}: preemption leaked into results", r.name);
    }
}

#[test]
fn rejection_is_deterministic_across_pool_shapes() {
    let mut rng = SimRng::new(0xde_7e_21);
    let specs: Vec<JobSpec> = (0..12)
        .map(|i| tenant_job(&mut rng, i, ["quotad", "free"][(i % 2 != 0) as usize]))
        .collect();
    let policy = |workers: usize, elastic: Option<ElasticPolicy>| SchedulerConfig {
        workers,
        quantum: 4_000,
        preempt: PreemptMode::WhenContended,
        max_pending: 7,
        quotas: vec![TenantQuota {
            tenant: "quotad".into(),
            max_in_flight: 1,
            cycle_budget: Some(5_000_000),
        }],
        elastic,
        ..SchedulerConfig::default()
    };
    let outcomes: Vec<Vec<Option<RejectReason>>> = [
        policy(1, None),
        policy(2, None),
        policy(4, Some(ElasticPolicy { eval_ms: 0, ..ElasticPolicy::range(1, 4) })),
    ]
    .into_iter()
    .map(|cfg| {
        Scheduler::new(cfg)
            .run(&specs)
            .into_iter()
            .map(|r| match r.exit {
                JobExit::Rejected { reason } => Some(reason),
                _ => None,
            })
            .collect()
    })
    .collect();
    assert!(outcomes[0].iter().any(Option::is_some), "the scenario must actually reject something");
    assert_eq!(outcomes[0], outcomes[1], "worker count changed the rejected set");
    assert_eq!(outcomes[0], outcomes[2], "elastic resizing changed the rejected set");
}

#[test]
fn digests_are_identical_across_1_2_4_workers_with_elastic_resizing() {
    let mut rng = SimRng::new(0xe1_a5_7c);
    let specs: Vec<JobSpec> =
        (0..5).map(|i| tenant_job(&mut rng, i, ["a", "b"][(i % 2 != 0) as usize])).collect();
    let outcomes: Vec<Vec<(u64, u64, bool)>> = [
        SchedulerConfig { workers: 1, preempt: PreemptMode::Never, ..SchedulerConfig::default() },
        SchedulerConfig {
            workers: 2,
            quantum: 4_000,
            preempt: PreemptMode::Always,
            force_migrate: true,
            quotas: vec![TenantQuota::in_flight("a", 1)],
            ..SchedulerConfig::default()
        },
        SchedulerConfig {
            workers: 4,
            quantum: 6_000,
            preempt: PreemptMode::WhenOutranked,
            aging_quanta: 4,
            elastic: Some(ElasticPolicy { eval_ms: 0, ..ElasticPolicy::range(1, 4) }),
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
            "pool variant {i} changed architectural outcomes — the resource manager \
             leaked into results"
        );
    }
}

/// Drives an oversubscribed fleet and checks what saturation must never
/// break: every spec reports exactly once, in order, as completed or as a
/// typed rejection the metrics agree with; the recorded queue depth stays
/// within the bound; and a sample of pooled digests matches isolated
/// serial reruns. Returns `(completed, queue_full, cycle_quota)` counts.
fn saturate(specs: &[JobSpec], cfg: SchedulerConfig) -> (usize, usize, usize) {
    let bound = cfg.max_pending;
    let fleet = Scheduler::new(cfg).run_fleet(specs);
    assert_eq!(fleet.reports.len(), specs.len(), "zero lost jobs");
    let (mut completed, mut queue_full, mut cycle_quota) = (Vec::new(), 0, 0);
    for (i, r) in fleet.reports.iter().enumerate() {
        assert_eq!(r.job, i);
        match &r.exit {
            JobExit::Completed { .. } => completed.push(r),
            JobExit::Rejected { reason: RejectReason::QueueFull { limit } } => {
                assert_eq!(*limit, bound);
                queue_full += 1;
            }
            JobExit::Rejected { reason: RejectReason::CycleQuota { .. } } => cycle_quota += 1,
            other => panic!("job {i}: unexpected exit {other:?}"),
        }
    }
    let m = &fleet.metrics;
    assert!(m.counter("sched.queue.peak_depth") <= bound as u64, "the queue bound must hold");
    assert_eq!(m.counter("sched.rejected.queue_full"), queue_full as u64);
    assert_eq!(m.counter("sched.rejected.cycle_quota"), cycle_quota as u64);
    assert_eq!(m.counter("sched.rejected"), (queue_full + cycle_quota) as u64);
    let sample: Vec<_> = completed.iter().step_by((completed.len() / 6).max(1)).take(6).collect();
    let reruns: Vec<JobSpec> = sample.iter().map(|r| specs[r.job].clone()).collect();
    for (serial, pooled) in Scheduler::serial().run(&reruns).iter().zip(sample) {
        assert_eq!(serial.digest, pooled.digest, "job {}: pool digest != serial rerun", pooled.job);
    }
    (completed.len(), queue_full, cycle_quota)
}

#[test]
fn saturation_gate_oversubscribed_fleet_bounded_queue_zero_lost_jobs() {
    // The CI saturation gate: submit far more jobs than the queue bound
    // admits. Every spec must come back exactly once — admitted jobs
    // complete, the surplus is rejected with a structured reason — and
    // the recorded queue depth never exceeds the bound.
    let mut rng = SimRng::new(0x5a_70);
    let specs: Vec<JobSpec> = (0..40)
        .map(|i| {
            let mut s = tenant_job(&mut rng, i, ["t0", "t1", "t2"][i % 3]);
            s.workload = WorkloadSpec::AmoHeavy { ops: 8, seed: i as u64 };
            s
        })
        .collect();
    let bound = 10;
    let cfg = SchedulerConfig {
        workers: 3,
        quantum: 5_000,
        preempt: PreemptMode::WhenOutranked,
        max_pending: bound,
        ..SchedulerConfig::default()
    };
    let (completed, queue_full, cycle_quota) = saturate(&specs, cfg);
    assert_eq!(completed, bound, "exactly the queue bound runs");
    assert_eq!(queue_full, specs.len() - bound, "the surplus is rejected, not dropped");
    assert_eq!(cycle_quota, 0);

    // The same gate under the full policy stack: four tenants in priority
    // order (interactive jobs carry deadlines and an in-flight cap, batch a
    // cycle budget covering half its share), preemption when outranked, an
    // elastic pool, and a queue bound at three quarters of the fleet.
    let tenants = [("interactive", 6), ("ci", 4), ("batch", 2), ("best-effort", 0)];
    let budget = 400_000;
    let specs: Vec<JobSpec> = (0..240)
        .map(|i| {
            let (tenant, priority) = tenants[i % tenants.len()];
            let ops = 15 + (i as u64 % 5) * 5;
            let mut s = JobSpec::small(
                &format!("sat-{i}"),
                WorkloadSpec::AmoHeavy { ops, seed: 0xA7_00 + i as u64 },
            );
            s.tenant = tenant.to_string();
            s.priority = priority;
            s.budget = budget;
            s.deadline_cycles = (tenant == "interactive").then_some(budget);
            s
        })
        .collect();
    let per_tenant = (specs.len() / tenants.len()) as u64;
    let cfg = SchedulerConfig {
        quantum: 5_000,
        preempt: PreemptMode::WhenOutranked,
        max_pending: specs.len() * 3 / 4,
        quotas: vec![
            TenantQuota::in_flight("interactive", 2),
            TenantQuota {
                tenant: "batch".into(),
                max_in_flight: 4,
                cycle_budget: Some(per_tenant / 2 * budget),
            },
        ],
        elastic: Some(ElasticPolicy::range(2, 4)),
        ..SchedulerConfig::default()
    };
    let (_, queue_full, cycle_quota) = saturate(&specs, cfg);
    assert_eq!(cycle_quota as u64, per_tenant / 2, "half of batch's share fits its budget");
    assert!(queue_full > 0, "the fleet must overrun the queue bound");
}

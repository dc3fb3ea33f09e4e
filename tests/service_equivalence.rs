//! Service-layer determinism proof: a job that is preempted, snapshotted,
//! and resumed on whichever worker dispatches it next must be
//! *bit-identical* — full [`Snapshot`] equality, every section byte, not
//! just digest equality — to the same job run uninterrupted. Proven for
//! the serial fast-path stepper, the per-cycle reference stepper, and an
//! Ethernet rack topology, all with a light deterministic `FaultPlan`
//! active (faults must not break the preemption protocol: injector state
//! rides in the snapshot like everything else).
//!
//! The churned run uses `PreemptMode::Always` with a tiny quantum on a
//! two-worker pool. Every segment rebuilds the platform from its spec and
//! restores the parked image, so a resume on the same worker runs exactly
//! the code a migration does; the uninterrupted baseline is a one-worker,
//! never-preempting scheduler, cross-checked against driving the bare
//! platform directly.

use smappic::service::{
    digest_platform, FaultProfileSpec, JobFaults, JobSpec, PreemptMode, Scheduler, SchedulerConfig,
    StepperSpec, TopoSpec, WorkloadSpec,
};
use smappic::sim::StreamSink;

/// A cross-FPGA contention job with a light fault plan.
fn job(stepper: StepperSpec, topology: TopoSpec, fpgas: usize) -> JobSpec {
    JobSpec {
        name: "equiv".into(),
        fpgas,
        nodes: 1,
        tiles: 2,
        topology,
        stepper,
        workload: WorkloadSpec::AmoHeavy { ops: 45, seed: 0xE0_17 },
        faults: Some(JobFaults {
            profile: FaultProfileSpec::Light,
            seed: 0xFA_57,
            links_only: false,
        }),
        budget: 3_000_000,
        trace: false,
        tenant: JobSpec::DEFAULT_TENANT.into(),
        priority: JobSpec::DEFAULT_PRIORITY,
        deadline_cycles: None,
    }
}

fn churn_config() -> SchedulerConfig {
    SchedulerConfig {
        workers: 2,
        quantum: 2_000,
        preempt: PreemptMode::Always,
        capture_final_snapshots: true,
        ..SchedulerConfig::default()
    }
}

fn baseline_config() -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        preempt: PreemptMode::Never,
        capture_final_snapshots: true,
        ..SchedulerConfig::default()
    }
}

/// The core property: churned (preempted + resumed) ≡ uninterrupted,
/// to the last snapshot byte, and both ≡ driving the platform directly.
fn assert_migrated_equals_uninterrupted(spec: JobSpec, label: &str) {
    let churned = Scheduler::new(churn_config()).run(std::slice::from_ref(&spec));
    let baseline = Scheduler::new(baseline_config()).run(std::slice::from_ref(&spec));
    let (c, b) = (&churned[0], &baseline[0]);

    assert!(c.is_completed(), "[{label}] churned job must complete: {:?}", c.exit);
    assert!(b.is_completed(), "[{label}] baseline job must complete: {:?}", b.exit);
    assert!(c.preemptions > 0, "[{label}] the tiny quantum must force preemptions");
    assert!(b.preemptions == 0 && b.migrations == 0, "[{label}] baseline must run straight");

    // Bit-exact: every snapshot section, architectural and host-stepper
    // alike.
    let cs = c.final_snapshot().expect("stored stream parses").expect("churned captured");
    let bs = b.final_snapshot().expect("stored stream parses").expect("baseline captured");
    if cs != bs {
        panic!(
            "[{label}] migrated run diverged from uninterrupted run; first divergent \
             section: {:?}",
            cs.first_divergence(&bs)
        );
    }
    assert_eq!(c.digest, b.digest, "[{label}] digests must agree");
    assert_eq!(c.cycles, b.cycles, "[{label}] cycle counts must agree");

    // The scheduler is transparent over the bare platform: driving the
    // same spec directly produces the same bytes again.
    let mut p = spec.build();
    p.run_preemptible(spec.budget);
    assert!(p.snapshot() == bs, "[{label}] scheduler must match a directly-driven platform");
    assert_eq!(digest_platform(&p), b.digest, "[{label}] direct digest must agree");
}

#[test]
fn migrated_resume_is_bit_identical_serial_stepper() {
    assert_migrated_equals_uninterrupted(job(StepperSpec::Serial, TopoSpec::Star, 2), "serial");
}

#[test]
fn migrated_resume_is_bit_identical_parallel_stepper() {
    // A spec written as `stepper parallel`, the name of the retired
    // threaded executor, parses as the serial stepper and migrates as
    // bit-exactly as one, here on a four-FPGA star.
    let text = job(StepperSpec::Serial, TopoSpec::Star, 4).to_text();
    let old = text.replace("\nstepper serial\n", "\nstepper parallel\n");
    assert_ne!(old, text, "the spec text names its stepper");
    let spec = JobSpec::from_text(&old).expect("the old stepper name parses");
    assert_eq!(spec.stepper, StepperSpec::Serial);
    assert_migrated_equals_uninterrupted(spec, "parallel");
}

#[test]
fn migrated_resume_is_bit_identical_reference_stepper() {
    let mut spec = job(StepperSpec::Reference, TopoSpec::Star, 2);
    // The per-cycle reference is the slowest stepper; keep the job short.
    spec.workload = WorkloadSpec::AmoHeavy { ops: 25, seed: 0xE0_17 };
    assert_migrated_equals_uninterrupted(spec, "reference");
}

#[test]
fn migrated_resume_is_bit_identical_on_an_ethernet_rack() {
    // Grouped-barrier topology: the preemption grain is the global
    // (spine) lookahead, exercising the rack-scale epoch schedule.
    assert_migrated_equals_uninterrupted(
        job(StepperSpec::Serial, TopoSpec::Ethernet { group_size: 2 }, 4),
        "ethernet",
    );
}

#[test]
fn parked_wire_bytes_resume_in_a_fresh_process_image() {
    // The snapshot a report carries is the same wire format the CI
    // checkpoint job ships across processes: parse it from bytes,
    // restore into a freshly built twin, and finish the run — the digest
    // must match the uninterrupted one.
    let spec = job(StepperSpec::Serial, TopoSpec::Star, 2);
    let baseline = Scheduler::new(baseline_config()).run(std::slice::from_ref(&spec));

    // Run roughly half the job directly and park it as bytes. The cut
    // must land on a preemption-grain multiple — the same rule the
    // scheduler's quantum alignment enforces — or the sliced epoch
    // schedule would differ from the straight run's.
    let mut first = spec.build();
    let grain = first.preemption_grain();
    let cut = (spec.budget / 2 / grain).max(1) * grain;
    first.run_preemptible(cut);
    let mut parked = Vec::new();
    first.snapshot_to(&mut StreamSink::new(&mut parked, true)).expect("parks to memory");
    drop(first);

    // "Another process": a fresh platform built from the replayed spec.
    let replayed = JobSpec::from_text(&spec.to_text()).expect("spec replays");
    let mut second = replayed.build();
    second.restore_from(&parked[..]).expect("restores");
    let already = second.now();
    let mut spent = already;
    while spent < spec.budget && !second.is_idle() {
        spent += second.run_preemptible(spec.budget - spent);
        if second.is_idle() {
            break;
        }
    }
    assert_eq!(digest_platform(&second), baseline[0].digest);
    assert!(
        second.snapshot()
            == baseline[0].final_snapshot().expect("stored stream parses").expect("captured"),
        "resumed-from-bytes run must be bit-identical to the uninterrupted one"
    );
    assert!(already > 0, "the parked snapshot must carry real progress");
}

//! Crash-recoverable checkpoints: a fleet that dies mid-run resumes from
//! its per-job checkpoint directories and finishes with digests
//! identical to an uninterrupted run.
//!
//! The "crash" is the scheduler's hidden abandon knob: after N disk
//! checkpoints have been written fleet-wide, every worker stops dead —
//! no parks, no reports — which is exactly what SIGKILL leaves behind.
//! One test delivers the real thing: it re-executes this test binary as
//! a child process, SIGKILLs it mid-fleet and recovers from its
//! directories.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use smappic_service::{
    CheckpointPolicy, JobReport, JobSpec, PreemptMode, Scheduler, SchedulerConfig, WorkloadSpec,
};

fn fleet() -> Vec<JobSpec> {
    (0..4)
        .map(|i| {
            let mut s = JobSpec::small(
                &format!("ckpt{i}"),
                WorkloadSpec::AmoHeavy { ops: 60, seed: 0xC0 + i },
            );
            s.budget = 4_000_000;
            s
        })
        .collect()
}

fn ckpt_config(dir: PathBuf) -> SchedulerConfig {
    SchedulerConfig {
        workers: 2,
        quantum: 2_000,
        preempt: PreemptMode::Always,
        checkpoint: Some(CheckpointPolicy { every_quanta: 1, dir }),
        ..SchedulerConfig::default()
    }
}

/// A scratch directory unique to this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smappic-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every job recovered to exactly what the uninterrupted `baseline` run
/// reported.
fn assert_recovered(resumed: &[JobReport], baseline: &[JobReport]) {
    assert_eq!(resumed.len(), baseline.len(), "every job must report after recovery");
    for (r, b) in resumed.iter().zip(baseline) {
        assert_eq!(r.job, b.job);
        assert!(r.is_completed(), "job {} must complete after recovery: {:?}", r.job, r.exit);
        assert_eq!(r.digest, b.digest, "job {} digest must match the uninterrupted run", r.job);
        assert_eq!(r.cycles, b.cycles, "job {} cycle count must match", r.job);
    }
}

/// The per-job checkpoint directories under `root` (none before the
/// first spill creates it).
fn job_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(root) else { return Vec::new() };
    entries.map(|e| e.expect("dir entry").path()).collect()
}

/// Runs `specs` under [`ckpt_config`] until `k` checkpoints have been
/// spilled, then simulates a crash; returns the checkpoint root. Every
/// job must still be mid-flight.
fn crashed_after(tag: &str, specs: &[JobSpec], k: u64) -> PathBuf {
    let dir = scratch(tag);
    let cfg = SchedulerConfig { abandon_after_checkpoints: Some(k), ..ckpt_config(dir.clone()) };
    assert!(Scheduler::new(cfg).run(specs).is_empty(), "the job must die mid-flight");
    dir
}

#[test]
fn a_crashed_fleet_resumes_from_disk_with_identical_digests() {
    let specs = fleet();
    let baseline = Scheduler::serial().run(&specs);
    assert!(baseline.iter().all(|r| r.is_completed()));

    let dir = scratch("crash");
    let crashed = Scheduler::new(SchedulerConfig {
        abandon_after_checkpoints: Some(3),
        ..ckpt_config(dir.clone())
    })
    .run(&specs);
    assert!(
        crashed.len() < specs.len(),
        "the simulated crash must leave jobs unreported ({} of {} reported)",
        crashed.len(),
        specs.len()
    );
    // A crash mid-write also strands the staging files; recovery reads
    // only what a rename published.
    for job in job_dirs(&dir) {
        for tmp in ["state.bin.tmp", "meta.txt.tmp"] {
            std::fs::write(job.join(tmp), b"torn mid-write").expect("strand a staging file");
        }
    }

    assert_recovered(&Scheduler::new(ckpt_config(dir.clone())).resume(&specs), &baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn terminal_markers_short_circuit_a_second_resume() {
    let specs = fleet();
    let dir = scratch("markers");
    let first = Scheduler::new(ckpt_config(dir.clone())).run(&specs);
    assert!(first.iter().all(|r| r.is_completed()));

    // Every job left a report.txt marker; resuming must return all of
    // them from disk without executing a single segment.
    let resumed = Scheduler::new(ckpt_config(dir.clone())).resume(&specs);
    assert_eq!(resumed.len(), specs.len());
    for (r, f) in resumed.iter().zip(&first) {
        assert_eq!(r.digest, f.digest);
        assert_eq!(r.cycles, f.cycles);
        assert_eq!(r.exit, f.exit);
        assert!(r.workers.is_empty(), "a marker-recovered report never touched a worker");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoints_fall_back_to_a_fresh_deterministic_run() {
    let specs = fleet();
    let baseline = Scheduler::serial().run(&specs);

    let dir = scratch("torn");
    let _ = Scheduler::new(SchedulerConfig {
        abandon_after_checkpoints: Some(4),
        ..ckpt_config(dir.clone())
    })
    .run(&specs);

    // Tear every spilled image: truncate state.bin to half its size. The
    // stream trailer (count + state digest) never arrives, so recovery
    // must reject each of them and restart the jobs from cycle 0.
    let mut torn = 0;
    for job in job_dirs(&dir) {
        let state = job.join("state.bin");
        if let Ok(bytes) = std::fs::read(&state) {
            std::fs::write(&state, &bytes[..bytes.len() / 2]).expect("truncate");
            torn += 1;
        }
    }
    assert!(torn > 0, "the crashed run must have spilled at least one image");

    let resumed = Scheduler::new(ckpt_config(dir.clone())).resume(&specs);
    assert_eq!(resumed.len(), specs.len());
    for (r, b) in resumed.iter().zip(&baseline) {
        assert!(r.is_completed());
        assert_eq!(r.digest, b.digest, "job {} must rerun to the same digest", r.job);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_state_one_checkpoint_ahead_of_its_meta_restarts_from_cycle_zero() {
    // `write_checkpoint` publishes state.bin, then meta.txt. A crash
    // between the two renames leaves checkpoint k+1's image beside
    // checkpoint k's meta; the meta's state digest must reject the pair.
    let specs = &fleet()[..1];
    let whole_dir = scratch("window-whole");
    let whole = Scheduler::new(ckpt_config(whole_dir.clone())).run_fleet(specs);
    let quanta = whole.metrics.counter("sched.quanta");
    let (behind, ahead) =
        (crashed_after("window-1", specs, 1), crashed_after("window-2", specs, 2));
    let state = |root: &Path| job_dirs(root)[0].join("state.bin");
    std::fs::copy(state(&ahead), state(&behind)).expect("state k+1 beside meta k");

    // Control: an intact pair resumes where it stopped, two quanta in.
    let intact = Scheduler::new(ckpt_config(ahead.clone())).resume_fleet(specs);
    assert_eq!(intact.metrics.counter("sched.quanta"), quanta - 2);
    // The mismatched pair runs every quantum again and reports the
    // uninterrupted run's result.
    let rerun = Scheduler::new(ckpt_config(behind.clone())).resume_fleet(specs);
    assert_eq!(rerun.metrics.counter("sched.quanta"), quanta, "must restart from cycle 0");
    assert_recovered(&intact.reports, &whole.reports);
    assert_recovered(&rerun.reports, &whole.reports);
    for dir in [behind, ahead, whole_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_meta_whose_spent_disagrees_with_its_image_restarts_from_cycle_zero() {
    // The meta's state digest covers the image, the image's cycle
    // included, but not the meta's own `spent` line. A `spent` that is
    // off by one grain, or past the budget, must not be trusted: the job
    // restarts from cycle 0 and reports the uninterrupted run's result.
    let specs = &fleet()[..1];
    let whole_dir = scratch("spent-whole");
    let whole = Scheduler::new(ckpt_config(whole_dir.clone())).run_fleet(specs);
    let quanta = whole.metrics.counter("sched.quanta");
    let grain = specs[0].build().preemption_grain();
    for tag in ["ahead", "over"] {
        let dir = crashed_after(&format!("spent-{tag}"), specs, 1);
        let meta = job_dirs(&dir)[0].join("meta.txt");
        let text = std::fs::read_to_string(&meta).expect("one checkpoint was published");
        let spent: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("spent "))
            .and_then(|v| v.parse().ok())
            .expect("meta records spent");
        let forged = if tag == "ahead" { spent + grain } else { specs[0].budget + 1 };
        let text = text.replace(&format!("\nspent {spent}\n"), &format!("\nspent {forged}\n"));
        std::fs::write(&meta, text).expect("rewrite the spent line");

        let rerun = Scheduler::new(ckpt_config(dir.clone())).resume_fleet(specs);
        assert_eq!(rerun.metrics.counter("sched.quanta"), quanta, "[{tag}] must restart from 0");
        assert_recovered(&rerun.reports, &whole.reports);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&whole_dir);
}

/// `wall_secs` values `f64::from_str` accepts but no writer records.
const FORGED_WALL_SECS: [&str; 4] = ["NaN", "inf", "-inf", "-1.5"];

/// `text` with the value on its `wall_secs` line replaced by `forged`.
fn forge_wall_secs(text: &str, forged: &str) -> String {
    let forged_line = format!("wall_secs {forged}");
    let lines: Vec<&str> = text
        .lines()
        .map(|l| if l.starts_with("wall_secs ") { forged_line.as_str() } else { l })
        .collect();
    assert!(lines.contains(&forged_line.as_str()), "the text records wall_secs");
    lines.join("\n") + "\n"
}

/// Every report's wall time is a finite, non-negative number, so its JSON
/// rendering parses.
fn assert_finite_wall_secs(reports: &[JobReport], forged: &str) {
    for r in reports {
        assert!(r.wall_secs.is_finite() && r.wall_secs >= 0.0, "[{forged}] wall {}", r.wall_secs);
        let json = r.to_json();
        for bad in ["NaN", "inf"] {
            assert!(!json.contains(bad), "[{forged}] job {} renders {bad}:\n{json}", r.job);
        }
    }
}

#[test]
fn a_meta_whose_wall_secs_no_writer_records_restarts_from_cycle_zero() {
    let specs = &fleet()[..1];
    let whole_dir = scratch("wall-whole");
    let whole = Scheduler::new(ckpt_config(whole_dir.clone())).run_fleet(specs);
    let quanta = whole.metrics.counter("sched.quanta");
    for (i, forged) in FORGED_WALL_SECS.into_iter().enumerate() {
        let dir = crashed_after(&format!("wall-meta-{i}"), specs, 1);
        let meta = job_dirs(&dir)[0].join("meta.txt");
        let text = std::fs::read_to_string(&meta).expect("one checkpoint was published");
        std::fs::write(&meta, forge_wall_secs(&text, forged)).expect("forge the meta");

        let rerun = Scheduler::new(ckpt_config(dir.clone())).resume_fleet(specs);
        assert_eq!(rerun.metrics.counter("sched.quanta"), quanta, "[{forged}] must restart from 0");
        assert_recovered(&rerun.reports, &whole.reports);
        assert_finite_wall_secs(&rerun.reports, forged);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&whole_dir);
}

#[test]
fn a_report_marker_whose_wall_secs_no_writer_records_reruns_the_job() {
    let specs = &fleet()[..1];
    for (i, forged) in FORGED_WALL_SECS.into_iter().enumerate() {
        let dir = scratch(&format!("wall-marker-{i}"));
        let first = Scheduler::new(ckpt_config(dir.clone())).run(specs);
        let marker = job_dirs(&dir)[0].join("report.txt");
        let text = std::fs::read_to_string(&marker).expect("the job left a marker");
        std::fs::write(&marker, forge_wall_secs(&text, forged)).expect("forge the marker");

        // The forged marker is not trusted: the job runs again, on a
        // worker, to the same result.
        let resumed = Scheduler::new(ckpt_config(dir.clone())).resume(specs);
        assert_recovered(&resumed, &first);
        assert!(!resumed[0].workers.is_empty(), "[{forged}] the job must run again");
        assert_finite_wall_secs(&resumed, forged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Names the checkpoint root for [`killed_child_runs_the_long_fleet`];
/// nothing else reads it.
const KILL_DIR_VAR: &str = "SMAPPIC_RECOVERY_KILL_DIR";

/// [`fleet`] with enough work per job that a process running it is still
/// mid-flight when its first checkpoint appears.
fn long_fleet() -> Vec<JobSpec> {
    let mut specs = fleet();
    for (i, s) in specs.iter_mut().enumerate() {
        s.workload = WorkloadSpec::AmoHeavy { ops: 1_000, seed: 0xD0 + i as u64 };
        s.budget = 100_000_000;
    }
    specs
}

/// The process [`a_sigkilled_fleet_process_resumes_with_identical_digests`]
/// kills: a no-op unless that test re-executed this binary with
/// [`KILL_DIR_VAR`] set.
#[test]
#[ignore = "child half of a_sigkilled_fleet_process_resumes_with_identical_digests"]
fn killed_child_runs_the_long_fleet() {
    if let Some(dir) = std::env::var_os(KILL_DIR_VAR) {
        let _ = Scheduler::new(ckpt_config(dir.into())).run(&long_fleet());
    }
}

#[test]
fn a_sigkilled_fleet_process_resumes_with_identical_digests() {
    let specs = long_fleet();
    let baseline = Scheduler::serial().run(&specs);
    assert!(baseline.iter().all(|r| r.is_completed()));

    let dir = scratch("sigkill");
    let mut child = std::process::Command::new(std::env::current_exe().expect("own path"))
        .args(["--ignored", "--exact", "killed_child_runs_the_long_fleet"])
        .env(KILL_DIR_VAR, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("re-execute the test binary");
    let gave_up = Instant::now() + Duration::from_secs(120);
    while !job_dirs(&dir).iter().any(|job| job.join("meta.txt").exists()) {
        assert!(child.try_wait().expect("poll child").is_none(), "child exited before a spill");
        assert!(Instant::now() < gave_up, "child never spilled a checkpoint");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL the child");
    child.wait().expect("reap the child");
    let finished = job_dirs(&dir).iter().filter(|job| job.join("report.txt").exists()).count();
    assert!(finished < specs.len(), "the kill must land mid-fleet ({finished} jobs had finished)");

    assert_recovered(&Scheduler::new(ckpt_config(dir.clone())).resume(&specs), &baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

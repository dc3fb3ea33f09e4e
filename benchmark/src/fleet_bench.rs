//! `fleet_mixed`: a closed batch of mixed-tenant jobs through the
//! scheduler. Admission, dispatch, `JobSpec::build`, park/restore and
//! per-job digesting carry the contested time.

use std::time::Instant;

use smappic_service::{JobReport, JobSpec, PreemptMode, Scheduler, SchedulerConfig, TenantQuota};

use crate::checkpoint::Chain;
use crate::programs::{fleet_text, parse_fleet};
use crate::stat::{best, highest_supported_percentile, median, percentile};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

/// Jobs per fleet, all submitted at t=0 (a closed batch).
const JOBS: usize = 120;
/// Worker threads of the measured pool. One: this sandbox's two vCPUs
/// deliver between 1.0 and 1.6 cores from one minute to the next, so a
/// two-worker fleet's throughput says more about the neighbours than
/// about the scheduler. A traced run adds one two-worker fleet, ungated.
const WORKERS: usize = 1;
/// Cycles per scheduling quantum: small enough that outranked jobs are
/// preempted dozens of times per fleet, large enough that the quantum
/// boundary's own cost does not drown the jobs.
const QUANTUM: u64 = 20_000;
/// Times set-up is repeated; the fastest is reported.
const SETUP_REPS: usize = 20;
/// Checkpoint rounds per repetition on one job's platform after its
/// first quantum: the park the scheduler takes at every preemption.
const ROUNDS_PER_REP: usize = 2;

fn scheduler(workers: usize) -> Scheduler {
    Scheduler::new(SchedulerConfig {
        workers,
        quantum: QUANTUM,
        preempt: PreemptMode::WhenOutranked,
        quotas: vec![TenantQuota::in_flight("interactive", 1)],
        ..SchedulerConfig::default()
    })
}

/// What a service does before it accepts a batch: parse and validate
/// every spec, construct the scheduler, and build each distinct job shape
/// once.
fn set_up(text: &[String], tr: &mut Tracer) -> (Vec<JobSpec>, Scheduler) {
    let specs = tr.scope("service.spec_parse", || parse_fleet(text));
    let sched = scheduler(WORKERS);
    for spec in specs.iter().take(4) {
        drop(tr.scope("service.build", || spec.build()));
    }
    (specs, sched)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(opts.trace);
    let scale = opts.scaled(1_000) as f64 / 1_000.0;
    let text = fleet_text(opts.seed, JOBS, scale);

    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        ready = Some(set_up(&text, &mut tr));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (specs, sched) = ready.expect("set-up ran");

    // The serial, never-preempting rerun every pooled job must match.
    let t = Instant::now();
    let serial: Vec<JobReport> = tr.scope("service.serial_run", || Scheduler::serial().run(&specs));
    let serial_wall = t.elapsed().as_secs_f64();

    let workers = sched.config().workers as f64;
    let (mut wall_s, mut busy_s, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut waits: [Vec<f64>; 2] = Default::default();
    let mut last = None;
    let mut cycles = 0u64;
    let victim = &specs[1];
    let mut fresh = |tr: &mut Tracer| tr.scope("service.build", || victim.build());
    let mut ckpt = Chain::default();
    let started = Instant::now();
    let mut rep = 0u32;
    while rep < opts.min_reps().max(2) || started.elapsed().as_secs_f64() < opts.seconds {
        rep += 1;
        tr.rep = rep;
        // Every other repetition of a traced run goes unrecorded: the
        // difference between the two kinds is the cost of tracing.
        let record = rep % 2 == 1;
        let open = record.then(|| tr.begin("service.run_fleet"));
        let t = Instant::now();
        let fleet = sched.run_fleet(&specs);
        let wall = t.elapsed().as_secs_f64();
        if let Some(open) = open {
            tr.end(open);
        }
        if record { &mut traced_s } else { &mut plain_s }.push(wall);

        cycles = 0;
        let mut busy = 0.0;
        for (got, want) in fleet.reports.iter().zip(&serial) {
            let ok = got.is_completed() && got.digest == want.digest && got.cycles == want.cycles;
            if !ok {
                println!(
                    "MISMATCH job {}: {:?} digest {:#x} cycles {} (serial rerun {:#x}, {})",
                    got.name, got.exit, got.digest, got.cycles, want.digest, want.cycles
                );
            }
            out.check(ok);
            cycles += got.cycles;
            busy += got.wall_secs;
            run_ms.push(got.wall_secs * 1e3);
        }
        wall_s.push(wall);
        busy_s.push(busy);
        for (slot, tenant) in ["interactive", "batch"].into_iter().enumerate() {
            let h = fleet.metrics.histogram(&format!("sched.tenant.{tenant}.wait_us"));
            waits[slot].push(h.map_or(0.0, |h| h.mean() / 1e3));
        }
        last = Some(fleet);

        // One job's platform after its first quantum, parked and resumed.
        let mut reference = victim.build();
        reference.run(QUANTUM);
        ckpt.restart();
        for _ in 0..ROUNDS_PER_REP {
            ckpt.round(&mut reference, &mut fresh, false, &mut tr, &mut out);
        }
    }

    let mcyc = cycles as f64 / 1e6;
    if opts.trace {
        let t = Instant::now();
        let pooled = tr.scope("service.run_fleet_2", || scheduler(2).run_fleet(&specs));
        out.set("service.two_worker_jobs_per_s", JOBS as f64 / t.elapsed().as_secs_f64());
        out.set("sched.migrations", pooled.metrics.counter("sched.migrations") as f64);
        for (got, want) in pooled.reports.iter().zip(&serial) {
            out.check(got.is_completed() && got.digest == want.digest);
        }

        let fleet = last.expect("at least one repetition ran");
        let wall = best(&wall_s);
        out.set("service.jobs_per_s", JOBS as f64 / wall);
        out.set("service.job_run_ms_p50", median(&run_ms));
        let tail = highest_supported_percentile(run_ms.len()).unwrap_or(50.0).min(90.0);
        out.set("service.job_run_ms_p90", percentile(&run_ms, tail));
        out.set("sched.interactive_wait_ms_mean", median(&waits[0]));
        out.set("sched.batch_wait_ms_mean", median(&waits[1]));
        out.set("service.serial_jobs_per_s", JOBS as f64 / serial_wall);
        out.set("service.busy_share", best(&busy_s) / (wall * workers));
        out.set("service.worker_mcps", mcyc / best(&busy_s));
        let parse = best(&tr.durations("service.spec_parse"));
        out.set("service.spec_parse_us", parse * 1e6 / JOBS as f64);
        out.set("service.build_ms_p50", median(&tr.durations("service.build")) * 1e3);
        for (metric, counter) in [
            ("sched.preemptions", "sched.preemptions"),
            ("sched.dispatches", "sched.dispatches"),
            ("sched.quanta", "sched.quanta"),
            ("sched.queue_peak_depth", "sched.queue.peak_depth"),
        ] {
            out.set(metric, fleet.metrics.counter(counter) as f64);
        }
        let parked = |f: fn(&JobReport) -> u64| fleet.reports.iter().map(f).sum::<u64>() as f64;
        out.set("sched.park_raw_bytes", parked(|r| r.park_raw_bytes));
        out.set("sched.park_stored_bytes", parked(|r| r.park_stored_bytes));
        out.set("core.trace_overhead_pct", (best(&traced_s) / best(&plain_s) - 1.0) * 100.0);
        ckpt.layer_metrics(&tr, &mut out);
        out.span_metrics(&tr);
    } else {
        out.set("sim_mcps", mcyc / best(&wall_s));
        ckpt.end_to_end(&mut out);
        out.set("setup_s", best(&setup_s));
    }
    out.finish(tr, opts)
}

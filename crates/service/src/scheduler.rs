//! The job scheduler: a multi-tenant resource manager over a pool of OS
//! worker threads, with admission control, per-tenant quotas, priority
//! scheduling with aging, cooperative epoch-boundary preemption, and an
//! elastic pool sized against a live cost model.
//!
//! ## Execution model
//!
//! Each submitted [`JobSpec`] first passes *admission control*: a pure
//! function of the fleet and the [`SchedulerConfig`], evaluated in
//! submission order, that reserves each job's full cycle budget against
//! its tenant's quota and bounds the pending queue. A refused job gets a
//! [`JobExit::Rejected`] report with a typed [`RejectReason`] — it never
//! executes a cycle, and the same fleet is refused identically on every
//! run (including [`Scheduler::resume`]).
//!
//! Admitted jobs become tasks in one central ready queue ordered by
//! *effective priority* (base priority plus an aging boost, see below),
//! then earliest deadline, then submission order. An idle worker
//! dispatches the best runnable task — skipping tasks whose tenant is
//! already at its in-flight cap — and executes it in *segments*: it
//! builds the platform from the spec (or restores the parked image),
//! then advances in quantum slices aligned to
//! [`Platform::preemption_grain`] until the job quiesces, exhausts its
//! budget, livelocks (per-job [`Watchdog`]), or a preemption point
//! decides to yield — at which point the platform is parked, the task
//! re-queued, and the worker moves on. A resumed task may land on any
//! worker: host state (fast-path caches, sleep schedules) is derived,
//! never serialized, so rebuilding the platform elsewhere and restoring
//! the image is a *complete* migration.
//!
//! ## Priorities, aging, preemption
//!
//! Priorities span `0..=`[`JobSpec::MAX_PRIORITY`]; higher dispatches
//! first. Every [`SchedulerConfig::aging_quanta`] fleet-wide executed
//! quanta a waiting task's effective priority rises one step (saturating
//! at the maximum), so low priority means *later*, never *never* — the
//! no-starvation property test pins this. Under
//! [`PreemptMode::WhenOutranked`] a running job parks as soon as a
//! strictly higher-effective-priority task is waiting, freeing its
//! worker (and its tenant's in-flight slot) for the outranking job via
//! the ordinary snapshot/park path.
//!
//! ## Tenant quotas
//!
//! A [`TenantQuota`] caps a tenant two ways: `max_in_flight` bounds how
//! many of its jobs execute concurrently (enforced at dispatch), and
//! `cycle_budget` bounds its aggregate simulated cycles (enforced at
//! admission by reserving each job's full budget up front — a job can
//! never out-spend its own budget, so the quota can never be exceeded
//! mid-flight; per-quantum epoch-grain spend accounting feeds the
//! metrics that prove it).
//!
//! ## Elastic pool
//!
//! With an [`ElasticPolicy`] the pool spans `min_workers..=max_workers`
//! OS threads; surplus workers sleep. Between quanta the scheduler
//! re-evaluates a simple live cost model: demand is the queue depth plus
//! the jobs in flight, and capacity beyond the floor is kept only while
//! the marginal worker's measured throughput (an EWMA of simulated
//! cyc/s, fed by segment wall times and [`HostPerf`]-informed cycle
//! counts) values above `worker_cost`. Resizing moves one worker per
//! evaluation to damp oscillation. Because parking is deterministic and
//! jobs are pure functions of their specs, elasticity never leaks into
//! results — only into wall time.
//!
//! ## Parked images
//!
//! A parked task holds a compressed `SMAPSTRM` full image plus, when it
//! pays, a compressed [`SnapDelta`] against that image: after the first
//! park only the sections the segment actually dirtied are re-stored.
//! When the delta grows past half the base's size the park rebases to a
//! fresh full image. The base uses the same wire format the checkpoint
//! policy spills to disk, so parking and crash recovery share one path.
//!
//! ## Crash-recoverable checkpoints
//!
//! With a [`CheckpointPolicy`], every job spills its state to a private
//! directory every N executed quanta — streamed straight to disk
//! (bounded memory) and published with an atomic rename, metadata last,
//! so a torn write is always detectable. [`Scheduler::resume`] rebuilds
//! a fleet from those directories after a crash: terminal jobs are
//! returned from their `report.txt` markers without re-execution, validly
//! spilled jobs restore mid-flight, and anything torn or missing restarts
//! from cycle 0 — correct because jobs are deterministic.
//!
//! ## Determinism
//!
//! Quantum slices are rounded up to grain multiples, so every cut lands
//! on an epoch boundary and the epoch schedule — and with it every
//! snapshot byte — matches an uninterrupted run (proven in
//! `tests/service_equivalence.rs`). Watchdog stall state rides in the
//! parked task and the on-disk metadata, so livelock detection is
//! independent of where segments execute. Admission and quota decisions
//! are pure functions of `(specs, config)`, so rejection is as
//! deterministic as execution.
//!
//! ## Failure isolation
//!
//! The whole segment (build, restore, run) executes under
//! `catch_unwind`; a panicking job — a [`crate::PoisonEngine`], a bug in
//! an engine — becomes a [`JobExit::Panicked`] report and the worker
//! keeps serving the remaining jobs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use smappic_core::{HostPerf, Platform, Watchdog, WatchdogConfig};
use smappic_sim::{
    codec, fnv1a, Cycle, Histogram, MetricsRegistry, SnapDelta, Snapshot, StreamSink,
};

use crate::report::{JobExit, JobReport, RejectReason};
use crate::spec::JobSpec;

/// When a running job offers its preemption points to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptMode {
    /// Run every segment to completion (serial batch semantics).
    Never,
    /// Yield only while other tasks are waiting in a queue — the
    /// fair-sharing default.
    WhenContended,
    /// Yield only while a *strictly higher* effective-priority task is
    /// waiting — the multi-tenant priority-preemption policy. Equal
    /// priorities run to quantum exhaustion without churn.
    WhenOutranked,
    /// Yield at every quantum boundary (maximum churn; what the
    /// determinism suites use to stress migration).
    Always,
}

/// Per-tenant resource limits, keyed by [`JobSpec::tenant`]. Tenants
/// without a quota entry are unlimited.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// The tenant this quota binds.
    pub tenant: String,
    /// Maximum jobs of this tenant executing concurrently (0 =
    /// unlimited). Enforced at dispatch.
    pub max_in_flight: usize,
    /// Aggregate simulated-cycle budget across the tenant's admitted
    /// jobs. Each job's full spec budget is reserved at admission, so
    /// the cap is never exceeded mid-flight.
    pub cycle_budget: Option<u64>,
}

impl TenantQuota {
    /// A quota with only an in-flight cap.
    pub fn in_flight(tenant: &str, max_in_flight: usize) -> Self {
        Self { tenant: tenant.to_string(), max_in_flight, cycle_budget: None }
    }
}

/// Elastic worker-pool policy: the pool spans `min_workers..=max_workers`
/// threads and resizes between quanta against a live cost model (queue
/// depth + measured throughput). See the module docs.
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// Pool floor (always-on workers).
    pub min_workers: usize,
    /// Pool ceiling (OS threads actually spawned).
    pub max_workers: usize,
    /// Milliseconds between cost-model evaluations.
    pub eval_ms: u64,
    /// Cost of keeping one worker active, in abstract value units per
    /// second.
    pub worker_cost: f64,
    /// Value of one million simulated cycles, in the same units. Growth
    /// beyond the floor happens only while the marginal worker's EWMA
    /// throughput times this value covers `worker_cost`.
    pub mcycle_value: f64,
}

impl ElasticPolicy {
    /// A policy spanning `min..=max` workers with the default cost model
    /// (growth is worthwhile whenever measured throughput clears one
    /// worker-cost per million cycles per second).
    pub fn range(min_workers: usize, max_workers: usize) -> Self {
        Self { min_workers, max_workers, eval_ms: 2, worker_cost: 1.0, mcycle_value: 1.0 }
    }
}

/// Periodic spill-to-disk of every running job's state, for crash
/// recovery via [`Scheduler::resume`].
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Write a disk checkpoint every this many executed quanta (0
    /// disables periodic spills; terminal `report.txt` markers are still
    /// written).
    pub every_quanta: u64,
    /// Root directory; each job gets `job{id:04}-{spec digest:016x}/`
    /// beneath it.
    pub dir: PathBuf,
}

/// Scheduler tuning.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// OS worker threads in the pool. Ignored when `elastic` is set (the
    /// policy's `max_workers` is spawned instead).
    pub workers: usize,
    /// Target cycles per scheduling quantum; rounded up to the job's
    /// [`Platform::preemption_grain`] so cuts stay on epoch boundaries.
    pub quantum: u64,
    /// Per-job livelock detection (state persists across migrations).
    pub watchdog: WatchdogConfig,
    /// Preemption policy.
    pub preempt: PreemptMode,
    /// Admission bound on the pending queue: at most this many jobs are
    /// admitted per fleet; the rest get [`JobExit::Rejected`] reports
    /// with [`RejectReason::QueueFull`]. 0 = unbounded.
    pub max_pending: usize,
    /// Per-tenant quotas. Tenants without an entry are unlimited.
    pub quotas: Vec<TenantQuota>,
    /// Aging rate: a waiting task's effective priority rises one step
    /// every this many fleet-wide executed quanta (0 disables aging).
    pub aging_quanta: u64,
    /// Elastic worker-pool policy; `None` keeps a fixed pool of
    /// `workers` threads.
    pub elastic: Option<ElasticPolicy>,
    /// Forbid the worker that parked a job from resuming it while peers
    /// exist — guarantees every preemption is a migration. Test knob.
    pub force_migrate: bool,
    /// Keep each completed job's final image (compressed) in its report
    /// (the equivalence suite compares them; costs memory on big
    /// platforms).
    pub capture_final_snapshots: bool,
    /// Spill job state to disk for crash recovery.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Directory for per-job Perfetto traces (jobs with `trace: true`).
    pub trace_dir: Option<PathBuf>,
    /// Simulate a crash: after this many disk checkpoints have been
    /// written fleet-wide, every worker stops dead — no parks, no
    /// reports — as if the process had been killed. Recovery-test knob.
    #[doc(hidden)]
    pub abandon_after_checkpoints: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            quantum: 50_000,
            watchdog: WatchdogConfig::default(),
            preempt: PreemptMode::WhenContended,
            max_pending: 0,
            quotas: Vec::new(),
            aging_quanta: 64,
            elastic: None,
            force_migrate: false,
            capture_final_snapshots: false,
            checkpoint: None,
            trace_dir: None,
            abandon_after_checkpoints: None,
        }
    }
}

/// A fleet's full outcome: one report per submitted spec (in submission
/// order) plus the scheduler's own observability registry — queue-depth
/// and per-tenant wait/run histograms, admission and preemption
/// counters, elastic-pool sizing — in the same [`MetricsRegistry`] idiom
/// the platform uses for architectural metrics.
#[derive(Debug)]
pub struct FleetResult {
    /// One report per submitted spec, in submission order.
    pub reports: Vec<JobReport>,
    /// Scheduler metrics (`sched.*` namespace).
    pub metrics: MetricsRegistry,
}

/// Fingerprint of a platform's architectural outcome: final cycle,
/// aggregated statistics, and the architectural metrics registry. Host
/// diagnostics (wall time, fast-path counters) are deliberately excluded,
/// so the digest is a pure function of the job spec — identical across
/// worker counts, steal orders, and preemption patterns.
pub fn digest_platform(p: &Platform) -> u64 {
    let text = format!("{}\n{}\n{}", p.now(), p.stats(), p.metrics().architectural_text());
    fnv1a(text.as_bytes())
}

/// A parked job's state: a compressed full image (the same `SMAPSTRM`
/// wire form the checkpoint policy spills) plus, when it pays, a
/// compressed delta against it holding only the dirty sections.
#[derive(Debug)]
struct ParkState {
    /// Compressed stream bytes of the last full image.
    base: Vec<u8>,
    /// Codec-compressed `SMAPDLTA` wire bytes against `base`.
    delta: Option<Vec<u8>>,
}

impl ParkState {
    fn stored_bytes(&self) -> u64 {
        (self.base.len() + self.delta.as_ref().map_or(0, Vec::len)) as u64
    }
}

/// A job in flight: the spec plus everything a resume needs.
#[derive(Debug)]
struct Task {
    id: usize,
    spec: JobSpec,
    /// Interned index into [`Shared::tenants`].
    tenant: usize,
    /// Parked image; `None` before the first segment.
    state: Option<ParkState>,
    /// Cycles executed so far.
    spent: u64,
    preemptions: u64,
    migrations: u64,
    /// Workers that executed segments, repeats collapsed.
    workers: Vec<usize>,
    /// Worker that parked the last segment (migration accounting).
    last_worker: Option<usize>,
    /// Worker forbidden from resuming this task (`force_migrate`).
    banned: Option<usize>,
    /// Watchdog stall state carried across segments.
    wd_sig: Option<u64>,
    wd_change_at: Cycle,
    wall_secs: f64,
    perf: HostPerf,
    /// Cumulative raw wire bytes a full snapshot would have cost at each
    /// park (the baseline the compression ratio is measured against).
    park_raw_bytes: u64,
    /// Cumulative bytes actually held while parked (base + delta).
    park_stored_bytes: u64,
}

impl Task {
    fn fresh(id: usize, spec: JobSpec) -> Self {
        Self {
            id,
            spec,
            tenant: 0,
            state: None,
            spent: 0,
            preemptions: 0,
            migrations: 0,
            workers: Vec::new(),
            last_worker: None,
            banned: None,
            wd_sig: None,
            wd_change_at: 0,
            wall_secs: 0.0,
            perf: HostPerf::default(),
            park_raw_bytes: 0,
            park_stored_bytes: 0,
        }
    }
}

/// How one execution segment ended.
enum Segment {
    Done {
        p: Box<Platform>,
        idle: bool,
        spent: u64,
    },
    Livelocked {
        p: Box<Platform>,
        since: Cycle,
        spent: u64,
    },
    Parked {
        park: ParkState,
        raw: u64,
        spent: u64,
        wd: (Option<u64>, Cycle),
        perf: HostPerf,
    },
    /// The abandon knob fired mid-segment: drop the task without a
    /// report, simulating a killed process.
    Abandoned,
}

/// One tenant's immutable limits plus its epoch-grain spend accounting.
struct TenantState {
    name: String,
    max_in_flight: usize,
    /// Cycles reserved at admission across this tenant's admitted jobs.
    reserved: u64,
    /// Cycles actually executed so far, bumped once per quantum slice
    /// (epoch grain). Always <= `reserved` <= the quota's cycle budget.
    spent: AtomicU64,
}

/// A task waiting in the ready queue.
struct Queued {
    task: Task,
    /// Submission-order tiebreak (monotonic enqueue sequence).
    seq: u64,
    /// Fleet-wide quanta clock at enqueue; drives the aging boost.
    enq_quanta: u64,
    since: Instant,
}

/// The central priority ready queue plus the dispatch-side accounting
/// that must move atomically with it (per-tenant in-flight counts,
/// queue-depth and latency histograms).
struct ReadyQueue {
    items: Vec<Queued>,
    seq: u64,
    /// In-flight jobs per tenant (indexes [`Shared::tenants`]).
    running: Vec<usize>,
    /// High-water in-flight mark per tenant (proves caps held).
    running_peak: Vec<usize>,
    depth: Histogram,
    depth_peak: u64,
    wait_us: Vec<Histogram>,
    run_us: Vec<Histogram>,
    dispatches: u64,
}

/// Elastic-pool state behind its own lock (touched at eval cadence, not
/// per dispatch).
struct ElasticState {
    last_eval: Option<Instant>,
    /// EWMA of fleet-aggregate simulated cycles per wall second.
    ewma_cps: f64,
    grow: u64,
    shrink: u64,
    sizes: Histogram,
}

struct Shared {
    ready: Mutex<ReadyQueue>,
    tenants: Vec<TenantState>,
    /// OS threads actually spawned (the elastic ceiling, or `workers`).
    pool: usize,
    /// Workers currently allowed to dispatch; indexes >= this sleep.
    active: AtomicUsize,
    /// Tasks currently sitting in the ready queue (drives `WhenContended`).
    queued: AtomicUsize,
    /// Best waiting effective priority + 1; 0 when the queue is empty
    /// (drives `WhenOutranked` without taking the queue lock).
    top_waiting: AtomicU64,
    /// Segments executing right now (demand signal for the cost model).
    running: AtomicUsize,
    /// Fleet-wide executed quanta: the aging clock.
    quanta: AtomicU64,
    /// Jobs not yet reported; workers exit when it reaches zero.
    outstanding: AtomicUsize,
    /// Disk checkpoints written fleet-wide (feeds the abandon knob).
    ckpts: AtomicU64,
    /// Simulated-crash flag: when set, workers stop dead.
    abandoned: AtomicBool,
    elastic: Mutex<ElasticState>,
    reports: Mutex<Vec<JobReport>>,
}

/// The multi-tenant job scheduler. See the module docs for the execution
/// model; construct with a [`SchedulerConfig`] and call
/// [`Scheduler::run`] (or [`Scheduler::run_fleet`] for the reports plus
/// the scheduler's own metrics).
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
}

impl Scheduler {
    /// A scheduler with the given tuning.
    pub fn new(cfg: SchedulerConfig) -> Self {
        assert!(cfg.workers >= 1, "the pool needs at least one worker");
        assert!(cfg.quantum >= 1, "the quantum must be positive");
        if let Some(e) = &cfg.elastic {
            assert!(e.min_workers >= 1, "the elastic pool needs at least one worker");
            assert!(e.max_workers >= e.min_workers, "elastic max_workers must be >= min_workers");
        }
        Self { cfg }
    }

    /// A one-worker, never-preempting scheduler: the serial
    /// job-at-a-time baseline every pooled run's digests are checked
    /// against.
    pub fn serial() -> Self {
        Self::new(SchedulerConfig {
            workers: 1,
            preempt: PreemptMode::Never,
            ..SchedulerConfig::default()
        })
    }

    /// The configured tuning.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Runs every job to a terminal state and returns one report per
    /// spec, in submission order. Panicking jobs are isolated into
    /// [`JobExit::Panicked`] reports, refused jobs into
    /// [`JobExit::Rejected`]; the pool shuts down gracefully once every
    /// job has reported.
    pub fn run(&self, specs: &[JobSpec]) -> Vec<JobReport> {
        self.run_fleet(specs).reports
    }

    /// Like [`Scheduler::run`], but also returns the scheduler's own
    /// [`MetricsRegistry`] (queue depth, per-tenant wait/run histograms,
    /// admission/preemption counters, elastic sizing).
    pub fn run_fleet(&self, specs: &[JobSpec]) -> FleetResult {
        self.launch(specs, false)
    }

    /// Like [`Scheduler::run`], but first scans the checkpoint directory
    /// for prior progress: jobs with a terminal `report.txt` marker are
    /// returned without re-execution, jobs with a valid
    /// `state.bin`/`meta.txt` pair resume from the spilled image, and
    /// everything else — missing, truncated, or digest-mismatched
    /// artifacts, or a directory whose `spec.txt` no longer matches the
    /// submitted spec — restarts from cycle 0, which is always correct
    /// because jobs are deterministic functions of their specs.
    /// Admission is re-evaluated over the full fleet, so a job rejected
    /// in the original run is rejected identically on resume.
    ///
    /// # Panics
    ///
    /// Panics when no [`SchedulerConfig::checkpoint`] policy is
    /// configured — resuming without a directory to resume from is a
    /// caller bug.
    pub fn resume(&self, specs: &[JobSpec]) -> Vec<JobReport> {
        self.resume_fleet(specs).reports
    }

    /// [`Scheduler::resume`] with the scheduler metrics included.
    pub fn resume_fleet(&self, specs: &[JobSpec]) -> FleetResult {
        assert!(self.cfg.checkpoint.is_some(), "resume requires a checkpoint policy");
        self.launch(specs, true)
    }

    fn launch(&self, specs: &[JobSpec], resume: bool) -> FleetResult {
        for (i, s) in specs.iter().enumerate() {
            if let Err(e) = s.validate() {
                panic!("job {i} ({:?}) is invalid: {e}", s.name);
            }
        }
        let (tenants, tenant_of) = intern_tenants(specs, &self.cfg.quotas);
        let rejections = admit(specs, &tenant_of, &tenants, &self.cfg);
        let mut tenants: Vec<TenantState> = tenants;
        let mut preloaded: Vec<JobReport> = Vec::new();
        let mut tasks: Vec<Task> = Vec::new();
        let mut rejected_queue_full = 0u64;
        let mut rejected_quota = 0u64;
        let mut tenant_admitted = vec![0u64; tenants.len()];
        let mut tenant_rejected = vec![0u64; tenants.len()];
        for (id, spec) in specs.iter().enumerate() {
            let tid = tenant_of[id];
            if let Some(reason) = &rejections[id] {
                match reason {
                    RejectReason::QueueFull { .. } => rejected_queue_full += 1,
                    RejectReason::CycleQuota { .. } => rejected_quota += 1,
                }
                tenant_rejected[tid] += 1;
                let report = rejected_report(id, spec, reason.clone());
                persist_terminal(&self.cfg, spec, &report);
                preloaded.push(report);
                continue;
            }
            tenant_admitted[tid] += 1;
            tenants[tid].reserved += spec.budget;
            if resume {
                let policy = self.cfg.checkpoint.as_ref().expect("checked in resume");
                match recover_job(&policy.dir, id, spec) {
                    Recovered::Terminal(r) => {
                        // Cycles already executed in the prior run count
                        // against the tenant's epoch-grain spend.
                        tenants[tid].spent.fetch_add(r.cycles, Ordering::SeqCst);
                        preloaded.push(*r);
                        continue;
                    }
                    Recovered::Parked(mut t) => {
                        tenants[tid].spent.fetch_add(t.spent, Ordering::SeqCst);
                        t.tenant = tid;
                        tasks.push(*t);
                        continue;
                    }
                    Recovered::Fresh => {}
                }
            }
            let mut t = Task::fresh(id, spec.clone());
            t.tenant = tid;
            tasks.push(t);
        }
        let pool = self.cfg.elastic.as_ref().map_or(self.cfg.workers, |e| e.max_workers);
        let active0 = self.cfg.elastic.as_ref().map_or(pool, |e| e.min_workers);
        let n_tenants = tenants.len();
        let shared = Shared {
            ready: Mutex::new(ReadyQueue {
                items: Vec::with_capacity(tasks.len()),
                seq: 0,
                running: vec![0; n_tenants],
                running_peak: vec![0; n_tenants],
                depth: Histogram::new(),
                depth_peak: 0,
                wait_us: (0..n_tenants).map(|_| Histogram::new()).collect(),
                run_us: (0..n_tenants).map(|_| Histogram::new()).collect(),
                dispatches: 0,
            }),
            tenants,
            pool,
            active: AtomicUsize::new(active0),
            queued: AtomicUsize::new(0),
            top_waiting: AtomicU64::new(0),
            running: AtomicUsize::new(0),
            quanta: AtomicU64::new(0),
            outstanding: AtomicUsize::new(tasks.len()),
            ckpts: AtomicU64::new(0),
            abandoned: AtomicBool::new(false),
            elastic: Mutex::new(ElasticState {
                last_eval: None,
                ewma_cps: 0.0,
                grow: 0,
                shrink: 0,
                sizes: Histogram::new(),
            }),
            reports: Mutex::new(Vec::with_capacity(specs.len())),
        };
        for task in tasks {
            enqueue(&shared, &self.cfg, task);
        }
        std::thread::scope(|scope| {
            for w in 0..pool {
                let shared = &shared;
                let cfg = &self.cfg;
                scope.spawn(move || worker_loop(w, shared, cfg));
            }
        });
        let mut reports = shared.reports.into_inner().expect("report lock");
        reports.extend(preloaded);
        reports.sort_by_key(|r| r.job);

        // Scheduler observability, in the platform's MetricsRegistry
        // idiom. Counters are architectural-determinism-free by nature
        // (they describe the host-side schedule), so everything lives
        // under the `sched.` namespace.
        let rq = shared.ready.into_inner().expect("queue lock");
        let es = shared.elastic.into_inner().expect("elastic lock");
        let mut m = MetricsRegistry::new();
        m.add_counter("sched.jobs", specs.len() as u64);
        m.add_counter("sched.admitted", (specs.len() - rejections.iter().flatten().count()) as u64);
        m.add_counter("sched.rejected", rejections.iter().flatten().count() as u64);
        m.add_counter("sched.rejected.queue_full", rejected_queue_full);
        m.add_counter("sched.rejected.cycle_quota", rejected_quota);
        m.add_counter("sched.dispatches", rq.dispatches);
        m.add_counter("sched.queue.peak_depth", rq.depth_peak);
        m.add_counter("sched.quanta", shared.quanta.load(Ordering::SeqCst));
        m.add_counter("sched.workers.pool", pool as u64);
        m.merge_histogram("sched.queue.depth", &rq.depth);
        m.add_counter("sched.preemptions", reports.iter().map(|r| r.preemptions).sum());
        m.add_counter("sched.migrations", reports.iter().map(|r| r.migrations).sum());
        if self.cfg.elastic.is_some() {
            m.add_counter("sched.elastic.grow", es.grow);
            m.add_counter("sched.elastic.shrink", es.shrink);
            m.merge_histogram("sched.workers.active", &es.sizes);
        }
        for (tid, t) in shared.tenants.iter().enumerate() {
            let k = |suffix: &str| format!("sched.tenant.{}.{suffix}", t.name);
            m.add_counter(&k("admitted"), tenant_admitted[tid]);
            m.add_counter(&k("rejected"), tenant_rejected[tid]);
            m.add_counter(&k("reserved_cycles"), t.reserved);
            m.add_counter(&k("spent_cycles"), t.spent.load(Ordering::SeqCst));
            m.add_counter(&k("peak_in_flight"), rq.running_peak[tid] as u64);
            m.merge_histogram(&k("wait_us"), &rq.wait_us[tid]);
            m.merge_histogram(&k("run_us"), &rq.run_us[tid]);
        }
        FleetResult { reports, metrics: m }
    }
}

/// Interns every tenant named by the fleet or by a quota (so quota'd
/// tenants report metrics even when the fleet never references them).
/// Returns the tenant table plus each spec's tenant index.
fn intern_tenants(specs: &[JobSpec], quotas: &[TenantQuota]) -> (Vec<TenantState>, Vec<usize>) {
    let mut tenants: Vec<TenantState> = Vec::new();
    let mut index = |name: &str| -> usize {
        if let Some(i) = tenants.iter().position(|t| t.name == name) {
            return i;
        }
        let quota = quotas.iter().find(|q| q.tenant == name);
        tenants.push(TenantState {
            name: name.to_string(),
            max_in_flight: quota.map_or(0, |q| q.max_in_flight),
            reserved: 0,
            spent: AtomicU64::new(0),
        });
        tenants.len() - 1
    };
    for q in quotas {
        index(&q.tenant);
    }
    let tenant_of = specs.iter().map(|s| index(&s.tenant)).collect();
    (tenants, tenant_of)
}

/// Admission control: a pure function of `(specs, config)` evaluated in
/// submission order. Per job: first the tenant cycle quota (the full
/// spec budget must fit in what the tenant has left — reserved only if
/// the job is actually admitted), then the pending-queue bound. Pure and
/// order-deterministic, so original and resumed runs refuse identically.
fn admit(
    specs: &[JobSpec],
    tenant_of: &[usize],
    tenants: &[TenantState],
    cfg: &SchedulerConfig,
) -> Vec<Option<RejectReason>> {
    let mut remaining: Vec<Option<u64>> = tenants
        .iter()
        .map(|t| cfg.quotas.iter().find(|q| q.tenant == t.name).and_then(|q| q.cycle_budget))
        .collect();
    let mut admitted = 0usize;
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let tid = tenant_of[i];
            if let Some(rem) = remaining[tid] {
                if spec.budget > rem {
                    return Some(RejectReason::CycleQuota {
                        tenant: spec.tenant.clone(),
                        needed: spec.budget,
                        remaining: rem,
                    });
                }
            }
            if cfg.max_pending > 0 && admitted >= cfg.max_pending {
                return Some(RejectReason::QueueFull { limit: cfg.max_pending });
            }
            if let Some(rem) = &mut remaining[tid] {
                *rem -= spec.budget;
            }
            admitted += 1;
            None
        })
        .collect()
}

/// The terminal report for a job admission refused: zero cycles, zero
/// digest, a typed reason.
fn rejected_report(id: usize, spec: &JobSpec, reason: RejectReason) -> JobReport {
    JobReport {
        job: id,
        name: spec.name.clone(),
        tenant: spec.tenant.clone(),
        priority: spec.priority,
        exit: JobExit::Rejected { reason },
        cycles: 0,
        deadline_missed: false,
        wall_secs: 0.0,
        preemptions: 0,
        migrations: 0,
        workers: Vec::new(),
        host_perf: HostPerf::default(),
        digest: 0,
        snapshot_bytes: 0,
        compressed_bytes: 0,
        park_raw_bytes: 0,
        park_stored_bytes: 0,
        final_snapshot_z: None,
        trace_path: None,
    }
}

/// Effective priority: the base boosted one step per `aging` fleet-wide
/// quanta spent waiting, saturating at the maximum — the no-starvation
/// rule.
fn effective_priority(base: u8, enq_quanta: u64, now_quanta: u64, aging: u64) -> u8 {
    if aging == 0 {
        return base;
    }
    let boost = now_quanta.saturating_sub(enq_quanta) / aging;
    (base as u64 + boost).min(JobSpec::MAX_PRIORITY as u64) as u8
}

/// Recomputes [`Shared::top_waiting`] from the queue contents.
fn refresh_top(rq: &ReadyQueue, sh: &Shared, cfg: &SchedulerConfig) {
    let now_q = sh.quanta.load(Ordering::SeqCst);
    let best = rq
        .items
        .iter()
        .map(|q| effective_priority(q.task.spec.priority, q.enq_quanta, now_q, cfg.aging_quanta))
        .max();
    sh.top_waiting.store(best.map_or(0, |b| b as u64 + 1), Ordering::SeqCst);
}

/// Parks a task into the ready queue (initial submission and preemption
/// share this path).
fn enqueue(sh: &Shared, cfg: &SchedulerConfig, task: Task) {
    let mut rq = sh.ready.lock().expect("queue lock");
    rq.seq += 1;
    let q = Queued {
        seq: rq.seq,
        enq_quanta: sh.quanta.load(Ordering::SeqCst),
        since: Instant::now(),
        task,
    };
    rq.items.push(q);
    let depth = rq.items.len() as u64;
    rq.depth.record(depth);
    rq.depth_peak = rq.depth_peak.max(depth);
    sh.queued.fetch_add(1, Ordering::SeqCst);
    refresh_top(&rq, sh, cfg);
}

/// Dispatches the best runnable task for worker `w`: highest effective
/// priority, then earliest deadline, then submission order — skipping
/// tasks whose tenant is at its in-flight cap and tasks banned for this
/// worker (force-migrate; void when only one worker could ever run them).
fn next_task(w: usize, sh: &Shared, cfg: &SchedulerConfig) -> Option<Task> {
    /// Dispatch order: effective priority, then EDF, then submission.
    type DispatchKey = (u8, std::cmp::Reverse<u64>, std::cmp::Reverse<u64>);
    let mut rq = sh.ready.lock().expect("queue lock");
    if rq.items.is_empty() {
        return None;
    }
    let now_q = sh.quanta.load(Ordering::SeqCst);
    let many = sh.pool > 1 && sh.active.load(Ordering::SeqCst) > 1;
    let mut best: Option<(usize, DispatchKey)> = None;
    for (i, q) in rq.items.iter().enumerate() {
        let t = &q.task;
        if many && t.banned == Some(w) {
            continue;
        }
        let ts = &sh.tenants[t.tenant];
        if ts.max_in_flight > 0 && rq.running[t.tenant] >= ts.max_in_flight {
            continue;
        }
        let eff = effective_priority(t.spec.priority, q.enq_quanta, now_q, cfg.aging_quanta);
        let key = (
            eff,
            std::cmp::Reverse(t.spec.deadline_cycles.unwrap_or(u64::MAX)),
            std::cmp::Reverse(q.seq),
        );
        if best.as_ref().is_none_or(|(_, bk)| key > *bk) {
            best = Some((i, key));
        }
    }
    let (i, _) = best?;
    let q = rq.items.swap_remove(i);
    let tid = q.task.tenant;
    rq.running[tid] += 1;
    rq.running_peak[tid] = rq.running_peak[tid].max(rq.running[tid]);
    rq.dispatches += 1;
    let wait = q.since.elapsed().as_micros().min(u64::MAX as u128) as u64;
    rq.wait_us[tid].record(wait);
    sh.queued.fetch_sub(1, Ordering::SeqCst);
    sh.running.fetch_add(1, Ordering::SeqCst);
    refresh_top(&rq, sh, cfg);
    Some(q.task)
}

/// Dispatch-side bookkeeping when a segment ends for any reason: the
/// tenant's in-flight slot frees and the segment wall time is recorded.
fn segment_finished(sh: &Shared, tid: usize, wall_secs: f64) {
    sh.running.fetch_sub(1, Ordering::SeqCst);
    let mut rq = sh.ready.lock().expect("queue lock");
    rq.running[tid] = rq.running[tid].saturating_sub(1);
    rq.run_us[tid].record((wall_secs * 1e6) as u64);
}

/// One cost-model evaluation: resize the active pool toward demand,
/// gated on the marginal worker paying for itself. Cheap enough to call
/// every loop iteration — the time gate and `try_lock` make it a no-op
/// almost always.
fn elastic_tick(sh: &Shared, pol: &ElasticPolicy) {
    let Ok(mut st) = sh.elastic.try_lock() else { return };
    let now = Instant::now();
    if let Some(last) = st.last_eval {
        if now.duration_since(last) < Duration::from_millis(pol.eval_ms) {
            return;
        }
    }
    st.last_eval = Some(now);
    let demand = sh.queued.load(Ordering::SeqCst) + sh.running.load(Ordering::SeqCst);
    let active = sh.active.load(Ordering::SeqCst);
    let mut desired = demand.clamp(pol.min_workers, pol.max_workers);
    if desired > active && st.ewma_cps > 0.0 {
        // The live cost model: growth is worthwhile only while the
        // marginal worker's expected throughput share values above its
        // cost. Before any measurement exists the model is optimistic
        // (a fleet that never runs can never measure).
        let per_worker_value = st.ewma_cps / active.max(1) as f64 / 1e6 * pol.mcycle_value;
        if per_worker_value < pol.worker_cost {
            desired = active;
        }
    }
    // One step per evaluation damps oscillation.
    let next = match desired.cmp(&active) {
        std::cmp::Ordering::Greater => active + 1,
        std::cmp::Ordering::Less => active - 1,
        std::cmp::Ordering::Equal => active,
    }
    .clamp(pol.min_workers, pol.max_workers);
    match next.cmp(&active) {
        std::cmp::Ordering::Greater => st.grow += 1,
        std::cmp::Ordering::Less => st.shrink += 1,
        std::cmp::Ordering::Equal => {}
    }
    if next != active {
        sh.active.store(next, Ordering::SeqCst);
    }
    st.sizes.record(next as u64);
}

/// Feeds the cost model one finished segment's measured throughput.
fn note_throughput(sh: &Shared, cycles: u64, wall: f64) {
    if cycles == 0 || wall <= 0.0 {
        return;
    }
    if let Ok(mut st) = sh.elastic.lock() {
        let cps = cycles as f64 / wall;
        st.ewma_cps = if st.ewma_cps > 0.0 { 0.7 * st.ewma_cps + 0.3 * cps } else { cps };
    }
}

fn worker_loop(w: usize, sh: &Shared, cfg: &SchedulerConfig) {
    loop {
        if sh.abandoned.load(Ordering::SeqCst) {
            return; // simulated crash: stop serving immediately
        }
        if sh.outstanding.load(Ordering::SeqCst) == 0 {
            return; // graceful shutdown: every job reported
        }
        if let Some(pol) = &cfg.elastic {
            elastic_tick(sh, pol);
            if w >= sh.active.load(Ordering::SeqCst) {
                // Deactivated by the cost model: sleep until re-grown.
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
        }
        match next_task(w, sh, cfg) {
            Some(task) => run_segment(w, task, sh, cfg),
            None => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

/// Parks `snap`, preferring a compressed delta against the previous
/// park's full image; rebases to a fresh compressed stream when there is
/// no base or the delta stops paying (more than half the base's size).
fn park_state(prev: Option<&ParkState>, snap: &Snapshot) -> ParkState {
    if let Some(prev) = prev {
        if let Ok(base) = Snapshot::from_stream_bytes(&prev.base) {
            if let Ok(d) = SnapDelta::between(&base, snap) {
                let dz = codec::compress(&d.to_bytes());
                if dz.len().saturating_mul(2) <= prev.base.len() {
                    return ParkState { base: prev.base.clone(), delta: Some(dz) };
                }
            }
        }
    }
    ParkState { base: snap.to_stream_bytes(true), delta: None }
}

/// Final-image capture and size accounting: the compressed bytes (when
/// the scheduler keeps them), the raw wire size, and the compressed
/// size. All zero/absent when neither snapshots nor checkpoints were
/// requested — measuring would cost a full serialization walk.
fn final_sizes(p: &Platform, cfg: &SchedulerConfig) -> (Option<Vec<u8>>, u64, u64) {
    if !cfg.capture_final_snapshots && cfg.checkpoint.is_none() {
        return (None, 0, 0);
    }
    let snap = p.snapshot();
    let raw = snap.wire_len() as u64;
    let z = snap.to_stream_bytes(true);
    let zlen = z.len() as u64;
    (cfg.capture_final_snapshots.then_some(z), raw, zlen)
}

/// Executes one segment of `task` on worker `w` and either files its
/// report or parks it back into the ready queue.
fn run_segment(w: usize, mut task: Task, sh: &Shared, cfg: &SchedulerConfig) {
    if task.workers.last() != Some(&w) {
        task.workers.push(w);
    }
    if let Some(prev) = task.last_worker {
        if prev != w {
            task.migrations += 1;
        }
    }
    task.banned = None;
    let spec = task.spec.clone();
    let budget = spec.budget;
    let tid = task.tenant;
    let resumed_from = task.state.take();
    let spent0 = task.spent;
    let wd_state = (task.wd_sig, task.wd_change_at);
    // Frozen copies for checkpoint metadata written mid-segment.
    let (job_id, ck_preempt, ck_migr, ck_wall) =
        (task.id, task.preemptions, task.migrations, task.wall_secs);
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut p = Box::new(spec.build());
        if let Some(park) = &resumed_from {
            let base = Snapshot::from_stream_bytes(&park.base).expect("parked stream parses");
            let snap = match &park.delta {
                Some(dz) => {
                    let raw = codec::decompress(dz).expect("parked delta decompresses");
                    let d = SnapDelta::from_bytes(&raw).expect("parked delta parses");
                    base.apply_delta(&d).expect("parked delta applies to its base")
                }
                None => base,
            };
            p.restore(&snap).expect("parked snapshot restores");
        }
        let parallel = spec.parallel();
        let mut wd = Watchdog::resume(cfg.watchdog.clone(), wd_state.0, wd_state.1);
        if resumed_from.is_none() {
            // Baseline sample so `stalled_since` is exact from cycle 0.
            let sig = p.progress_signature();
            let _ = wd.observe(p.now(), sig);
        }
        // Align the quantum to the grain: every cut lands on an epoch
        // boundary, keeping sliced and unsliced runs byte-identical.
        let grain = p.preemption_grain();
        let quantum = grain * cfg.quantum.div_ceil(grain).max(1);
        let mut spent = spent0;
        let mut quanta: u64 = 0;
        loop {
            let slice = quantum.min(budget - spent);
            let before = spent;
            spent += p.run_preemptible(slice, parallel);
            quanta += 1;
            // Epoch-grain accounting: the aging clock ticks and the
            // tenant's spend advances once per quantum slice.
            sh.quanta.fetch_add(1, Ordering::SeqCst);
            sh.tenants[tid].spent.fetch_add(spent - before, Ordering::SeqCst);
            if cfg.aging_quanta > 0 {
                // Keep `top_waiting` fresh as waiting tasks age, without
                // blocking on the queue lock in the hot loop.
                if let Ok(rq) = sh.ready.try_lock() {
                    refresh_top(&rq, sh, cfg);
                }
            }
            if p.is_idle() {
                return Segment::Done { p, idle: true, spent };
            }
            if spent >= budget {
                return Segment::Done { p, idle: false, spent };
            }
            if let Some(since) = wd.observe(p.now(), p.progress_signature()) {
                return Segment::Livelocked { p, since, spent };
            }
            if let Some(policy) = &cfg.checkpoint {
                if policy.every_quanta > 0 && quanta.is_multiple_of(policy.every_quanta) {
                    let meta = CkptMeta {
                        spent,
                        preemptions: ck_preempt,
                        migrations: ck_migr,
                        wall_secs: ck_wall + t0.elapsed().as_secs_f64(),
                        wd: wd.state(),
                    };
                    if write_checkpoint(&policy.dir, job_id, &spec, &p, &meta).is_ok() {
                        let n = sh.ckpts.fetch_add(1, Ordering::SeqCst) + 1;
                        if cfg.abandon_after_checkpoints.is_some_and(|k| n >= k) {
                            sh.abandoned.store(true, Ordering::SeqCst);
                        }
                    }
                }
            }
            if sh.abandoned.load(Ordering::SeqCst) {
                return Segment::Abandoned;
            }
            let yield_now = match cfg.preempt {
                PreemptMode::Never => false,
                PreemptMode::Always => true,
                PreemptMode::WhenContended => sh.queued.load(Ordering::SeqCst) > 0,
                PreemptMode::WhenOutranked => {
                    let top = sh.top_waiting.load(Ordering::SeqCst);
                    top > 0 && top - 1 > spec.priority as u64
                }
            };
            if yield_now {
                let snap = p.snapshot();
                let raw = snap.wire_len() as u64;
                let park = park_state(resumed_from.as_ref(), &snap);
                return Segment::Parked { park, raw, spent, wd: wd.state(), perf: p.host_perf() };
            }
        }
    }));
    let seg_wall = t0.elapsed().as_secs_f64();
    task.wall_secs += seg_wall;
    segment_finished(sh, tid, seg_wall);
    let deadline_missed = |cycles: u64| spec.deadline_cycles.is_some_and(|d| cycles > d);
    match result {
        Err(payload) => {
            let message = payload_message(payload.as_ref());
            let report = JobReport {
                job: task.id,
                name: task.spec.name.clone(),
                tenant: task.spec.tenant.clone(),
                priority: task.spec.priority,
                exit: JobExit::Panicked { message },
                cycles: task.spent,
                deadline_missed: deadline_missed(task.spent),
                wall_secs: task.wall_secs,
                preemptions: task.preemptions,
                migrations: task.migrations,
                workers: task.workers,
                host_perf: task.perf,
                digest: 0,
                snapshot_bytes: 0,
                compressed_bytes: 0,
                park_raw_bytes: task.park_raw_bytes,
                park_stored_bytes: task.park_stored_bytes,
                final_snapshot_z: None,
                trace_path: None,
            };
            persist_terminal(cfg, &spec, &report);
            file_report(sh, report);
        }
        Ok(Segment::Done { mut p, idle, spent }) => {
            if cfg.elastic.is_some() {
                note_throughput(sh, spent - spent0, seg_wall);
            }
            let digest = digest_platform(&p);
            let (final_snapshot_z, snapshot_bytes, compressed_bytes) = final_sizes(&p, cfg);
            let trace_path = if task.spec.trace {
                cfg.trace_dir.as_deref().and_then(|d| write_trace(&mut p, d, task.id, &spec.name))
            } else {
                None
            };
            let mut perf = task.perf;
            perf += p.host_perf();
            let report = JobReport {
                job: task.id,
                name: task.spec.name.clone(),
                tenant: task.spec.tenant.clone(),
                priority: task.spec.priority,
                exit: JobExit::Completed { idle },
                cycles: spent,
                deadline_missed: deadline_missed(spent),
                wall_secs: task.wall_secs,
                preemptions: task.preemptions,
                migrations: task.migrations,
                workers: task.workers,
                host_perf: perf,
                digest,
                snapshot_bytes,
                compressed_bytes,
                park_raw_bytes: task.park_raw_bytes,
                park_stored_bytes: task.park_stored_bytes,
                final_snapshot_z,
                trace_path,
            };
            persist_terminal(cfg, &spec, &report);
            file_report(sh, report);
        }
        Ok(Segment::Livelocked { p, since, spent }) => {
            let (final_snapshot_z, snapshot_bytes, compressed_bytes) = final_sizes(&p, cfg);
            let mut perf = task.perf;
            perf += p.host_perf();
            let report = JobReport {
                job: task.id,
                name: task.spec.name.clone(),
                tenant: task.spec.tenant.clone(),
                priority: task.spec.priority,
                exit: JobExit::Livelocked { stalled_since: since, detected_at: p.now() },
                cycles: spent,
                deadline_missed: deadline_missed(spent),
                wall_secs: task.wall_secs,
                preemptions: task.preemptions,
                migrations: task.migrations,
                workers: task.workers,
                host_perf: perf,
                digest: digest_platform(&p),
                snapshot_bytes,
                compressed_bytes,
                park_raw_bytes: task.park_raw_bytes,
                park_stored_bytes: task.park_stored_bytes,
                final_snapshot_z,
                trace_path: None,
            };
            persist_terminal(cfg, &spec, &report);
            file_report(sh, report);
        }
        Ok(Segment::Parked { park, raw, spent, wd, perf }) => {
            if cfg.elastic.is_some() {
                note_throughput(sh, spent - spent0, seg_wall);
            }
            task.park_raw_bytes += raw;
            task.park_stored_bytes += park.stored_bytes();
            task.state = Some(park);
            task.spent = spent;
            task.preemptions += 1;
            (task.wd_sig, task.wd_change_at) = wd;
            task.perf += perf;
            task.last_worker = Some(w);
            task.banned = cfg.force_migrate.then_some(w);
            enqueue(sh, cfg, task);
        }
        Ok(Segment::Abandoned) => {
            // Simulated crash: the task vanishes unreported, exactly as
            // if the process had been killed. `outstanding` never
            // reaches zero; workers exit via the abandoned flag.
        }
    }
}

fn file_report(sh: &Shared, report: JobReport) {
    sh.reports.lock().expect("report lock").push(report);
    sh.outstanding.fetch_sub(1, Ordering::SeqCst);
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

fn write_trace(p: &mut Platform, dir: &Path, job: usize, name: &str) -> Option<String> {
    std::fs::create_dir_all(dir).ok()?;
    let json = p.take_trace().to_perfetto_json(100);
    // The name is tenant-submitted and only validated as one non-empty
    // token: keep path separators (and anything else exotic) out of the
    // file name so the trace always lands directly inside `dir`.
    let safe: String = name
        .bytes()
        .map(|b| if b.is_ascii_alphanumeric() || b"._-".contains(&b) { b as char } else { '_' })
        .collect();
    let path = dir.join(format!("job{job}-{safe}.trace.json"));
    std::fs::write(&path, json).ok()?;
    Some(path.to_string_lossy().into_owned())
}

// ---------------------------------------------------------------------
// Disk checkpoints
// ---------------------------------------------------------------------

/// Progress metadata spilled alongside `state.bin`.
struct CkptMeta {
    spent: u64,
    preemptions: u64,
    migrations: u64,
    wall_secs: f64,
    wd: (Option<u64>, Cycle),
}

/// The per-job checkpoint directory: id for human navigation, spec
/// digest so a stale directory from a different fleet can never be
/// mistaken for this job's.
fn job_dir(root: &Path, id: usize, spec: &JobSpec) -> PathBuf {
    root.join(format!("job{id:04}-{:016x}", spec.digest()))
}

/// Streams the platform to `state.bin` (compressed, bounded memory) and
/// then writes `meta.txt`, each published with an atomic rename. Meta
/// goes second: a crash between the two renames leaves a stale meta
/// whose state digest no longer matches the stream, which recovery
/// rejects in favor of a fresh deterministic run.
fn write_checkpoint(
    root: &Path,
    id: usize,
    spec: &JobSpec,
    p: &Platform,
    meta: &CkptMeta,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let dir = job_dir(root, id, spec);
    std::fs::create_dir_all(&dir).map_err(io)?;
    let spec_path = dir.join("spec.txt");
    if !spec_path.exists() {
        std::fs::write(&spec_path, spec.to_text()).map_err(io)?;
    }
    let tmp = dir.join("state.bin.tmp");
    let digest = {
        let file = std::fs::File::create(&tmp).map_err(io)?;
        let mut sink = StreamSink::new(std::io::BufWriter::new(file), true);
        p.snapshot_to(&mut sink).map_err(|e| e.to_string())?;
        sink.state_digest()
    };
    std::fs::rename(&tmp, dir.join("state.bin")).map_err(io)?;
    let wd_sig = meta.wd.0.map_or_else(|| "-".to_string(), |s| format!("{s:#x}"));
    let text = format!(
        "smappic-ckpt v1\nstate_digest {digest:#018x}\nspent {}\npreemptions {}\n\
         migrations {}\nwall_secs {:.6}\nwd {wd_sig} {}\n",
        meta.spent, meta.preemptions, meta.migrations, meta.wall_secs, meta.wd.1
    );
    let mtmp = dir.join("meta.txt.tmp");
    std::fs::write(&mtmp, text).map_err(io)?;
    std::fs::rename(&mtmp, dir.join("meta.txt")).map_err(io)
}

/// Writes the terminal `report.txt` marker so a later
/// [`Scheduler::resume`] returns this job without re-executing it.
fn persist_terminal(cfg: &SchedulerConfig, spec: &JobSpec, r: &JobReport) {
    let Some(policy) = &cfg.checkpoint else { return };
    let _ = write_report_marker(&job_dir(&policy.dir, r.job, spec), spec, r);
}

fn write_report_marker(dir: &Path, spec: &JobSpec, r: &JobReport) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(dir).map_err(io)?;
    let spec_path = dir.join("spec.txt");
    if !spec_path.exists() {
        std::fs::write(&spec_path, spec.to_text()).map_err(io)?;
    }
    let exit = match &r.exit {
        JobExit::Completed { idle } => format!("completed {idle}"),
        JobExit::Livelocked { stalled_since, detected_at } => {
            format!("livelocked {stalled_since} {detected_at}")
        }
        JobExit::Panicked { message } => format!("panicked {}", message.replace('\n', " ")),
        JobExit::Rejected { reason } => match reason {
            RejectReason::QueueFull { limit } => format!("rejected queue_full {limit}"),
            RejectReason::CycleQuota { tenant, needed, remaining } => {
                format!("rejected cycle_quota {tenant} {needed} {remaining}")
            }
        },
    };
    let text = format!(
        "smappic-report v1\nexit {exit}\ncycles {}\ndigest {:#018x}\nwall_secs {:.6}\n\
         preemptions {}\nmigrations {}\nsnapshot_bytes {}\ncompressed_bytes {}\n",
        r.cycles,
        r.digest,
        r.wall_secs,
        r.preemptions,
        r.migrations,
        r.snapshot_bytes,
        r.compressed_bytes
    );
    let tmp = dir.join("report.txt.tmp");
    std::fs::write(&tmp, text).map_err(io)?;
    std::fs::rename(&tmp, dir.join("report.txt")).map_err(io)
}

/// What recovery found in one job's checkpoint directory.
enum Recovered {
    /// The job already reached a terminal state; its report was rebuilt
    /// from the `report.txt` marker.
    Terminal(Box<JobReport>),
    /// A valid mid-flight spill; the task resumes from it.
    Parked(Box<Task>),
    /// Nothing usable; the job restarts from cycle 0.
    Fresh,
}

/// Inspects one job's checkpoint directory. Accepts only artifacts that
/// fully validate — the spec text matches the submitted spec, the
/// spilled stream parses (its trailer digest rejects truncation), and
/// the meta's state digest matches the stream — and falls back to a
/// fresh run otherwise, which is always correct because jobs are
/// deterministic.
fn recover_job(root: &Path, id: usize, spec: &JobSpec) -> Recovered {
    let dir = job_dir(root, id, spec);
    match std::fs::read_to_string(dir.join("spec.txt")) {
        Ok(text) if text == spec.to_text() => {}
        _ => return Recovered::Fresh,
    }
    if let Ok(text) = std::fs::read_to_string(dir.join("report.txt")) {
        if let Some(r) = parse_report_marker(id, spec, &text) {
            return Recovered::Terminal(Box::new(r));
        }
    }
    let Ok(state) = std::fs::read(dir.join("state.bin")) else { return Recovered::Fresh };
    let Ok(meta_text) = std::fs::read_to_string(dir.join("meta.txt")) else {
        return Recovered::Fresh;
    };
    let Some((digest, meta)) = parse_meta(&meta_text) else { return Recovered::Fresh };
    let Ok(snap) = Snapshot::from_stream_bytes(&state) else { return Recovered::Fresh };
    if snap.state_digest() != digest {
        return Recovered::Fresh;
    }
    let mut task = Task::fresh(id, spec.clone());
    task.state = Some(ParkState { base: state, delta: None });
    task.spent = meta.spent;
    task.preemptions = meta.preemptions;
    task.migrations = meta.migrations;
    task.wall_secs = meta.wall_secs;
    (task.wd_sig, task.wd_change_at) = meta.wd;
    Recovered::Parked(Box::new(task))
}

/// `key value...` lookup over the line-oriented checkpoint text formats.
fn kv<'a>(lines: &[&'a str], key: &str) -> Option<&'a str> {
    lines.iter().find_map(|l| l.strip_prefix(key)?.strip_prefix(' ').map(str::trim))
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_meta(text: &str) -> Option<(u64, CkptMeta)> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.first() != Some(&"smappic-ckpt v1") {
        return None;
    }
    let digest = parse_u64(kv(&lines, "state_digest")?)?;
    let spent = parse_u64(kv(&lines, "spent")?)?;
    let preemptions = parse_u64(kv(&lines, "preemptions")?)?;
    let migrations = parse_u64(kv(&lines, "migrations")?)?;
    let wall_secs: f64 = kv(&lines, "wall_secs")?.parse().ok()?;
    let mut wd_parts = kv(&lines, "wd")?.split_whitespace();
    let sig = wd_parts.next()?;
    let wd_sig = if sig == "-" { None } else { Some(parse_u64(sig)?) };
    let wd_at = parse_u64(wd_parts.next()?)?;
    Some((digest, CkptMeta { spent, preemptions, migrations, wall_secs, wd: (wd_sig, wd_at) }))
}

fn parse_report_marker(job: usize, spec: &JobSpec, text: &str) -> Option<JobReport> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.first() != Some(&"smappic-report v1") {
        return None;
    }
    let exit_line = kv(&lines, "exit")?;
    let exit = if let Some(rest) = exit_line.strip_prefix("completed ") {
        JobExit::Completed { idle: rest.trim() == "true" }
    } else if let Some(rest) = exit_line.strip_prefix("livelocked ") {
        let mut it = rest.split_whitespace();
        JobExit::Livelocked {
            stalled_since: parse_u64(it.next()?)?,
            detected_at: parse_u64(it.next()?)?,
        }
    } else if let Some(rest) = exit_line.strip_prefix("panicked ") {
        JobExit::Panicked { message: rest.to_string() }
    } else if let Some(rest) = exit_line.strip_prefix("rejected ") {
        let mut it = rest.split_whitespace();
        match it.next()? {
            "queue_full" => JobExit::Rejected {
                reason: RejectReason::QueueFull { limit: parse_u64(it.next()?)? as usize },
            },
            "cycle_quota" => JobExit::Rejected {
                reason: RejectReason::CycleQuota {
                    tenant: it.next()?.to_string(),
                    needed: parse_u64(it.next()?)?,
                    remaining: parse_u64(it.next()?)?,
                },
            },
            _ => return None,
        }
    } else {
        return None;
    };
    let cycles = parse_u64(kv(&lines, "cycles")?)?;
    Some(JobReport {
        job,
        name: spec.name.clone(),
        tenant: spec.tenant.clone(),
        priority: spec.priority,
        exit,
        cycles,
        deadline_missed: spec.deadline_cycles.is_some_and(|d| cycles > d),
        wall_secs: kv(&lines, "wall_secs")?.parse().ok()?,
        preemptions: parse_u64(kv(&lines, "preemptions")?)?,
        migrations: parse_u64(kv(&lines, "migrations")?)?,
        workers: Vec::new(),
        host_perf: HostPerf::default(),
        digest: parse_u64(kv(&lines, "digest")?)?,
        snapshot_bytes: parse_u64(kv(&lines, "snapshot_bytes")?)?,
        compressed_bytes: parse_u64(kv(&lines, "compressed_bytes")?)?,
        park_raw_bytes: 0,
        park_stored_bytes: 0,
        final_snapshot_z: None,
        trace_path: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    #[test]
    fn a_single_job_completes_and_digests_deterministically() {
        let spec = JobSpec::small("solo", WorkloadSpec::AmoHeavy { ops: 30, seed: 3 });
        let a = Scheduler::serial().run(std::slice::from_ref(&spec));
        let b = Scheduler::serial().run(std::slice::from_ref(&spec));
        assert_eq!(a.len(), 1);
        assert!(a[0].is_completed());
        assert!(matches!(a[0].exit, JobExit::Completed { idle: true }));
        assert_eq!(a[0].digest, b[0].digest);
        assert_eq!(a[0].cycles, b[0].cycles);
        assert_eq!(a[0].preemptions, 0);
    }

    #[test]
    fn a_traced_job_with_a_path_like_name_writes_inside_trace_dir() {
        let dir = std::env::temp_dir().join(format!("smappic-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = JobSpec::small("a/b", WorkloadSpec::AmoHeavy { ops: 10, seed: 9 });
        spec.trace = true;
        spec.validate().expect("a name with a slash is one valid token");
        let cfg = SchedulerConfig { trace_dir: Some(dir.clone()), ..SchedulerConfig::default() };
        let reports = Scheduler::new(cfg).run(&[spec]);
        let path = reports[0].trace_path.as_deref().expect("a traced job reports its trace");
        let path = Path::new(path);
        assert!(path.is_file(), "{} must exist", path.display());
        assert_eq!(path.parent(), Some(dir.as_path()), "the trace sits directly in trace_dir");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preemption_re_queues_and_still_completes() {
        let mut spec = JobSpec::small("churn", WorkloadSpec::AmoHeavy { ops: 60, seed: 5 });
        spec.budget = 4_000_000;
        let cfg = SchedulerConfig {
            workers: 2,
            quantum: 2_000,
            preempt: PreemptMode::Always,
            force_migrate: true,
            ..SchedulerConfig::default()
        };
        let reports = Scheduler::new(cfg).run(&[spec.clone()]);
        assert!(reports[0].is_completed());
        assert!(reports[0].preemptions > 0, "Always must preempt a long job");
        assert!(reports[0].migrations > 0, "force_migrate must move it across workers");
        let baseline = Scheduler::serial().run(&[spec]);
        assert_eq!(reports[0].digest, baseline[0].digest);
        assert_eq!(reports[0].cycles, baseline[0].cycles);
    }

    #[test]
    fn parked_tasks_store_compressed_state() {
        let mut spec = JobSpec::small("parked", WorkloadSpec::AmoHeavy { ops: 60, seed: 7 });
        spec.budget = 4_000_000;
        let cfg = SchedulerConfig {
            workers: 2,
            quantum: 2_000,
            preempt: PreemptMode::Always,
            force_migrate: true,
            ..SchedulerConfig::default()
        };
        let reports = Scheduler::new(cfg).run(&[spec]);
        let r = &reports[0];
        assert!(r.is_completed());
        assert!(r.preemptions > 0);
        assert!(r.park_raw_bytes > 0, "parks must account their raw baseline");
        assert!(
            r.park_stored_bytes < r.park_raw_bytes,
            "parked images (compressed stream + deltas, {} B) must undercut \
             the raw wire baseline ({} B)",
            r.park_stored_bytes,
            r.park_raw_bytes
        );
    }

    #[test]
    fn admission_bounds_the_queue_and_quotas_reserve_cycles() {
        let mk = |name: &str, tenant: &str| {
            let mut s = JobSpec::small(name, WorkloadSpec::AmoHeavy { ops: 10, seed: 1 });
            s.tenant = tenant.into();
            s.budget = 1_000_000;
            s
        };
        let specs = vec![mk("a0", "a"), mk("a1", "a"), mk("b0", "b"), mk("b1", "b")];
        let cfg = SchedulerConfig {
            workers: 2,
            max_pending: 3,
            quotas: vec![TenantQuota {
                tenant: "a".into(),
                max_in_flight: 1,
                cycle_budget: Some(1_500_000),
            }],
            ..SchedulerConfig::default()
        };
        let fleet = Scheduler::new(cfg).run_fleet(&specs);
        // a1 falls to tenant a's cycle quota (1.5M budget, 1M reserved by
        // a0); b1 falls off the bounded queue (a0, b0, b1 would be the
        // 3 admitted... a1 is quota-rejected first so b1 is admitted).
        assert!(fleet.reports[0].is_completed());
        assert!(matches!(
            &fleet.reports[1].exit,
            JobExit::Rejected { reason: RejectReason::CycleQuota { tenant, needed, remaining } }
                if tenant == "a" && *needed == 1_000_000 && *remaining == 500_000
        ));
        assert!(fleet.reports[2].is_completed());
        assert!(fleet.reports[3].is_completed());
        assert_eq!(fleet.metrics.counter("sched.admitted"), 3);
        assert_eq!(fleet.metrics.counter("sched.rejected.cycle_quota"), 1);
        assert_eq!(fleet.metrics.counter("sched.tenant.a.peak_in_flight"), 1);
        assert!(fleet.metrics.counter("sched.tenant.a.spent_cycles") <= 1_500_000);
    }

    #[test]
    fn aging_boosts_effective_priority_monotonically() {
        assert_eq!(effective_priority(0, 0, 0, 64), 0);
        assert_eq!(effective_priority(0, 0, 64, 64), 1);
        assert_eq!(effective_priority(0, 0, 64 * 99, 64), JobSpec::MAX_PRIORITY);
        assert_eq!(effective_priority(0, 0, u64::MAX, 0), 0, "aging 0 disables the boost");
        assert_eq!(effective_priority(6, 100, 164, 64), 7);
    }

    #[test]
    fn elastic_pool_completes_the_fleet_with_identical_digests() {
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| {
                let mut s = JobSpec::small(
                    &format!("e{i}"),
                    WorkloadSpec::AmoHeavy { ops: 40, seed: 10 + i },
                );
                s.budget = 3_000_000;
                s
            })
            .collect();
        let cfg = SchedulerConfig {
            workers: 1, // ignored: elastic policy wins
            quantum: 5_000,
            preempt: PreemptMode::Always,
            elastic: Some(ElasticPolicy { eval_ms: 0, ..ElasticPolicy::range(1, 3) }),
            ..SchedulerConfig::default()
        };
        let fleet = Scheduler::new(cfg).run_fleet(&specs);
        let baseline = Scheduler::serial().run(&specs);
        for (e, b) in fleet.reports.iter().zip(&baseline) {
            assert!(e.is_completed());
            assert_eq!(e.digest, b.digest, "elastic resizing must not leak into results");
            assert_eq!(e.cycles, b.cycles);
        }
        assert!(fleet.metrics.counter("sched.elastic.grow") > 0, "demand of 4 must grow the pool");
    }
}

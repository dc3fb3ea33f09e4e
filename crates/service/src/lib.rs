//! # smappic-service — the multi-tenant prototyping service
//!
//! SMAPPIC's pitch is architecture prototyping *as a cloud service*: many
//! tenants submit prototype jobs, a resource manager rents out platforms
//! on demand (cloudFPGA's cFRM is the shape), and throughput is measured
//! in jobs/hour, not in the latency of any one platform. This crate is
//! that service layer over the simulated platform:
//!
//! - [`JobSpec`] — a declarative job description: topology (star /
//!   Ethernet rack / hybrid via [`smappic_core::Config`]), workload,
//!   optional deterministic fault plan, stepper choice, a cycle budget,
//!   and the multi-tenancy fields (tenant, priority, optional deadline).
//!   Round-trips losslessly through a line-oriented text format
//!   ([`JobSpec::to_text`] / [`JobSpec::from_text`]) so any job can be
//!   replayed from its report.
//! - [`Scheduler`] — a multi-tenant resource manager over a pool of OS
//!   worker threads. Fleets pass *admission control* (a bounded pending
//!   queue plus per-tenant [`TenantQuota`]s; refused jobs get typed
//!   [`JobExit::Rejected`] reports), then dispatch from one central
//!   ready queue ordered by effective priority (base priority + aging)
//!   and deadline. Jobs are preempted cooperatively at epoch-grain
//!   boundaries ([`smappic_core::Platform::run_preemptible`]) — under
//!   [`PreemptMode::WhenOutranked`], as soon as a higher-priority task
//!   waits — parked as one compressed stream image, and may resume on
//!   any worker — bit-identically, proven by
//!   `tests/service_equivalence.rs` at the repo root. A per-job
//!   [`smappic_core::Watchdog`] converts livelocks into structured
//!   exits, and a panicking job (see [`PoisonEngine`]) is isolated into
//!   its own error report while sibling jobs complete untouched. With a [`CheckpointPolicy`], jobs
//!   spill their state to disk every N quanta and a killed fleet resumes
//!   from those directories via [`Scheduler::resume`].
//! - [`JobReport`] — the per-job artifact: exit status, cycles, cyc/s,
//!   [`smappic_core::HostPerf`] accumulated across migrations, an
//!   architectural digest (identical for identical specs regardless of
//!   worker count or dispatch order), snapshot size accounting (raw vs
//!   compressed), and optionally the final image and a Perfetto trace
//!   path. [`Scheduler::run_fleet`] additionally returns a
//!   [`FleetResult`] carrying the scheduler's own metrics registry
//!   (queue depth, per-tenant wait/run histograms, admission counters).
//!
//! ## Determinism contract
//!
//! A job's architectural results depend only on its [`JobSpec`] — never
//! on the worker pool size, preemption pattern, or dispatch order. The
//! scheduler guarantees this by (1) cutting jobs only at multiples of
//! [`smappic_core::Platform::preemption_grain`], so the epoch schedule of
//! a sliced run matches an unsliced one byte-for-byte, and (2) parking
//! jobs as full snapshots, which PR 5 proved restore bit-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod scheduler;
mod spec;
mod workload;

pub use report::{JobExit, JobReport, RejectReason};
pub use scheduler::{
    digest_platform, CheckpointPolicy, FleetResult, PreemptMode, Scheduler, SchedulerConfig,
    TenantQuota,
};
pub use spec::{FaultProfileSpec, JobFaults, JobSpec, StepperSpec, TopoSpec, WorkloadSpec};
pub use workload::PoisonEngine;

//! # smappic-sim — deterministic cycle-level simulation kernel
//!
//! This crate is the foundation every other SMAPPIC crate builds on. It
//! provides the handful of primitives a cycle-driven hardware model needs:
//!
//! - [`Port`]/[`DelayPort`]/[`Ring`] — the credit-accounted flow-control
//!   layer every architectural queue sits behind: ring-backed bounded
//!   queues and their fixed-latency variant, each metered through a slot in
//!   its owner's [`Meters`] block,
//! - [`TrafficShaper`] — a latency + bandwidth model used by SMAPPIC for
//!   everything that leaves the FPGA (inter-node links, DRAM interfaces),
//! - [`SimRng`] — a tiny, deterministic xorshift RNG so whole-platform runs
//!   are reproducible bit-for-bit,
//! - [`Meters`] — one component's counters, histograms and port meters,
//!   registered through a [`MetersBuilder`] ([`meter_slots!`] names them):
//!   every event is one indexed add into a slot, rendered cold into a
//!   [`Stats`] of counters or a [`MetricsRegistry`] with [`Histogram`]s
//!   and `port.*` lines,
//! - [`FaultPlan`]/[`FaultInjector`] — deterministic, seed-driven *timing*
//!   fault injection (delays, duplicates, stalls, latency spikes) whose
//!   decisions are pure functions of `(seed, stream, seq)`, identical
//!   under the per-cycle reference and the epoch driver,
//! - [`TraceBuf`]/[`TraceSink`]/[`MetricsRegistry`] — the cycle-stamped
//!   observability layer: per-component ring-buffered trace events with a
//!   compile-out fast path (`trace` feature), the rendered counter +
//!   histogram registry, and Perfetto/text exporters.
//!
//! Everything here is sequential and allocation-light; the platform crate
//! ticks components in a fixed order each cycle, on the calling thread
//! (for multi-FPGA prototypes, one FPGA after another in each epoch-driver
//! window).
//!
//! ```
//! use smappic_sim::{DelayPort, MetersBuilder, Port};
//!
//! let mut names = MetersBuilder::new();
//! let mut f: Port<u32> = Port::bounded(names.port("fifo"), 2);
//! let mut d: DelayPort<&str> = DelayPort::new(names.port("wire"), 3);
//! let mut meters = names.build();
//! assert!(f.try_push(1, &mut meters).is_ok());
//! assert!(f.try_push(2, &mut meters).is_ok());
//! assert!(f.try_push(3, &mut meters).is_err()); // full: back-pressure
//! assert_eq!(f.pop(), Some(1));
//! assert_eq!(meters.stalls(f.slot()), 1);
//!
//! d.push(0, "hello", &mut meters);
//! assert_eq!(d.pop_ready(2), None);      // not yet visible
//! assert_eq!(d.pop_ready(3), Some("hello"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod eth;
mod fault;
mod obs;
mod port;
mod rng;
mod shaper;
mod snap;
mod stats;

pub use eth::{EthFabric, EthLink, EthParams, EthSwitch, Frame};
pub use fault::{
    fault_streams, FaultAction, FaultInjector, FaultPlan, FaultProfile, ScheduleEntry,
    BLACKHOLE_DELAY,
};
pub use obs::{MetricsRegistry, TraceBuf, TraceEvent, TraceEventKind, TraceSink, TRACE_COMPILED};
pub use port::{DelayPort, Port, Ring, ELASTIC_PREALLOC_CAP};
pub use rng::SimRng;
pub use shaper::TrafficShaper;
pub use snap::{
    fnv1a, read_stream, CountingSink, MemorySink, Pack, Restored, SaveState, SectionSource, Seq,
    SnapDelta, SnapError, SnapReader, SnapSink, SnapWriter, Snapshot, StreamSection, StreamSink,
    StreamSource, HOST_SECTION_PREFIX, SNAP_VERSION,
};
pub use stats::{CounterSlot, Histogram, HistogramSlot, Meters, MetersBuilder, PortSlot, Stats};

/// A simulation timestamp in clock cycles of the component's own clock domain.
pub type Cycle = u64;

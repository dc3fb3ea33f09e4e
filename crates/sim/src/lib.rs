//! # smappic-sim — deterministic cycle-level simulation kernel
//!
//! This crate is the foundation every other SMAPPIC crate builds on. It
//! provides the handful of primitives a cycle-driven hardware model needs:
//!
//! - [`Port`]/[`DelayPort`]/[`Ring`] — the credit-accounted flow-control
//!   layer every architectural queue sits behind: named, metered,
//!   ring-backed bounded queues ([`PortMeter`] publishes per-port stall /
//!   peak / occupancy metrics) and their fixed-latency variant,
//! - [`TrafficShaper`] — a latency + bandwidth model used by SMAPPIC for
//!   everything that leaves the FPGA (inter-node links, DRAM interfaces),
//! - [`SimRng`] — a tiny, deterministic xorshift RNG so whole-platform runs
//!   are reproducible bit-for-bit,
//! - [`Stats`]/[`Histogram`] — counters and latency histograms used by the
//!   benchmark harnesses,
//! - [`CounterSet`] — pre-interned fixed-key counters for per-cycle hot
//!   paths (NoC flits, cache hits) that merge back into [`Stats`] cold,
//! - [`FaultPlan`]/[`FaultInjector`] — deterministic, seed-driven *timing*
//!   fault injection (delays, duplicates, stalls, latency spikes) whose
//!   decisions are pure functions of `(seed, stream, seq)`, identical
//!   under the serial and epoch-parallel steppers,
//! - [`TraceBuf`]/[`TraceSink`]/[`MetricsRegistry`] — the cycle-stamped
//!   observability layer: per-component ring-buffered trace events with a
//!   compile-out fast path (`trace` feature), a unified counter +
//!   histogram registry, and Perfetto/text exporters.
//!
//! Everything here is sequential and allocation-light; the platform crate
//! ticks components in a fixed order each cycle (and, for multi-FPGA
//! prototypes, may tick whole FPGAs on worker threads — each component is
//! still only ever touched by one thread at a time).
//!
//! ```
//! use smappic_sim::{DelayPort, Port};
//!
//! let mut f: Port<u32> = Port::bounded("fifo", 2);
//! assert!(f.try_push(1).is_ok());
//! assert!(f.try_push(2).is_ok());
//! assert!(f.try_push(3).is_err()); // full: back-pressure
//! assert_eq!(f.pop(), Some(1));
//!
//! let mut d: DelayPort<&str> = DelayPort::new("wire", 3);
//! d.push(0, "hello");
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
pub use port::{DelayPort, Port, PortMeter, Ring, ELASTIC_PREALLOC_CAP};
pub use rng::SimRng;
pub use shaper::TrafficShaper;
pub use snap::{
    fnv1a, read_stream, CountingSink, MemorySink, Pack, SaveState, SectionSource, SnapDelta,
    SnapError, SnapReader, SnapSink, SnapWriter, Snapshot, StreamSink, StreamSource,
    HOST_SECTION_PREFIX, SNAP_VERSION,
};
pub use stats::{CounterSet, Histogram, Stats};

/// A simulation timestamp in clock cycles of the component's own clock domain.
pub type Cycle = u64;

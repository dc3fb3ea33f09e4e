//! Cycle-stamped observability: structured trace events, a unified
//! metrics registry, and Perfetto / text exporters.
//!
//! Three layers, each independently usable:
//!
//! - [`TraceBuf`] — a fixed-capacity, drop-oldest ring buffer of
//!   [`TraceEvent`]s owned by one component. Recording is guarded by a
//!   single branch when the `trace` feature is on and compiles to a no-op
//!   when it is off ([`TRACE_COMPILED`]), so hot-path timing is unaffected
//!   with tracing disabled.
//! - [`MetricsRegistry`] — named counters plus named [`Histogram`]s,
//!   rendered from every component's [`Meters`](crate::Meters) block into
//!   sorted maps, so a snapshot is deterministic and comparable
//!   bit-for-bit across the per-cycle reference and the epoch driver.
//! - Exporters — [`TraceSink::to_perfetto_json`] emits Chrome
//!   `trace_event` JSON loadable in `ui.perfetto.dev`;
//!   [`MetricsRegistry::snapshot_text`] emits a sorted text dump.
//!
//! # Determinism rules
//!
//! Every event carries the cycle it happened at, never a host timestamp.
//! A `TraceBuf` is owned by exactly one component, which is only ever
//! ticked by one thread at a time, so no locks are involved and the
//! per-buffer event order is the component's own deterministic tick
//! order. Histograms are order-insensitive accumulators, so metrics are
//! bit-identical across steppers even where window drains reorder
//! work *between* components. Host-side measurements (epoch widths) are
//! namespaced under `host.` and excluded by
//! [`MetricsRegistry::architectural`] so architectural snapshots compare
//! equal across steppers.

use std::collections::BTreeMap;
#[allow(clippy::disallowed_types)] // the trace buffer, below
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

use crate::{Cycle, Histogram, Stats};

/// Compile-time master switch for event tracing.
///
/// When the `trace` cargo feature (on by default) is disabled,
/// [`TraceBuf::record`] constant-folds to a no-op: the closure building
/// the event is never called and the buffer never grows, so benchmarks
/// built with `--no-default-features` carry zero tracing overhead.
pub const TRACE_COMPILED: bool = cfg!(feature = "trace");

/// What happened. Small, `Copy`, and cycle-free — the timestamp lives in
/// the enclosing [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A PCIe flight entered a link's traffic shaper.
    PcieSend {
        /// Sending FPGA index.
        from: u8,
        /// Receiving FPGA index.
        to: u8,
        /// Wire bytes (header + payload).
        bytes: u32,
        /// Request (true) or response (false).
        is_req: bool,
    },
    /// A PCIe flight left the link; `sent_at` is when it entered, so the
    /// pair renders as a duration span.
    PcieDeliver {
        /// Sending FPGA index.
        from: u8,
        /// Receiving FPGA index.
        to: u8,
        /// Cycle the flight entered the shaper.
        sent_at: Cycle,
        /// Request (true) or response (false).
        is_req: bool,
    },
    /// The AXI crossbar granted a master port's request to a slave port.
    XbarGrant {
        /// Master port index.
        master: u8,
        /// Slave port index.
        slave: u8,
    },
    /// A NoC packet ejected at its destination router's local port (or
    /// exited at the mesh edge when `edge` is set).
    NocDeliver {
        /// Destination tile (local index), or 0 for an edge exit.
        dst: u16,
        /// Manhattan hop count from the injection router.
        hops: u16,
        /// Virtual network the packet travelled on.
        vn: u8,
        /// True when the packet left through the edge port toward the
        /// chipset rather than a tile.
        edge: bool,
    },
    /// A private-cache (BPC) line changed MESI state. States are the
    /// ASCII bytes `b'I'`, `b'S'`, `b'E'`, `b'M'`.
    BpcState {
        /// Owning tile (local index).
        tile: u16,
        /// Line address.
        line: u64,
        /// Previous state.
        from: u8,
        /// New state.
        to: u8,
    },
    /// A BPC miss completed: the MSHR drained `lat` cycles after the
    /// miss was issued.
    BpcMiss {
        /// Owning tile (local index).
        tile: u16,
        /// Line address.
        line: u64,
        /// Miss-to-fill latency in cycles.
        lat: Cycle,
    },
    /// An LLC slice finished a memory fetch `lat` cycles after issuing
    /// it.
    LlcMiss {
        /// LLC slice (tile) index.
        slice: u16,
        /// Line address.
        line: u64,
        /// Fetch latency in cycles.
        lat: Cycle,
    },
    /// A DRAM request completed after `lat` cycles in the channel.
    Dram {
        /// Node index.
        node: u16,
        /// Request payload bytes.
        bytes: u32,
        /// Channel latency in cycles.
        lat: Cycle,
    },
    /// The epoch driver committed an epoch `width` cycles wide.
    Epoch {
        /// Monotonic epoch index within the run.
        index: u64,
        /// Cycles advanced in this epoch.
        width: Cycle,
    },
    /// A flow-control port rejected a push: the upstream producer observed
    /// back-pressure. The port identity comes from the lane the owning
    /// component's buffer is absorbed under.
    PortStall {
        /// Occupancy at the moment of rejection (the port's capacity).
        occupancy: u32,
    },
}

/// One cycle-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event happened at (end of the span for duration-like
    /// kinds — see [`TraceEventKind::PcieDeliver`]).
    pub cycle: Cycle,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A fixed-capacity, drop-oldest ring buffer of trace events.
///
/// Owned by one component; recording is a single branch when disabled
/// (the default) and a constant-folded no-op when the `trace` feature is
/// off. When full, the oldest event is dropped and counted, so the
/// buffer always holds the most recent window of activity.
///
/// ```
/// use smappic_sim::{TraceBuf, TraceEventKind, TRACE_COMPILED};
/// let mut t = TraceBuf::new(2);
/// t.record(10, || TraceEventKind::XbarGrant { master: 0, slave: 1 });
/// assert!(t.events().is_empty()); // disabled by default
/// t.set_enabled(true);
/// for c in 0..3 {
///     t.record(c, || TraceEventKind::XbarGrant { master: 0, slave: 1 });
/// }
/// // Capacity 2, oldest dropped — or nothing at all when the `trace`
/// // feature is compiled out.
/// assert_eq!(t.events().len(), if TRACE_COMPILED { 2 } else { 0 });
/// assert_eq!(t.dropped(), if TRACE_COMPILED { 1 } else { 0 });
/// ```
#[derive(Debug, Clone, Default)]
#[allow(clippy::disallowed_types)] // host-side event log, outside the simulated machine
pub struct TraceBuf {
    enabled: bool,
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

#[allow(clippy::disallowed_types)] // the event log above
impl TraceBuf {
    /// Creates a disabled buffer holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Self { enabled: false, cap, events: VecDeque::new(), dropped: 0 }
    }

    /// Enables or disables recording. Disabling does not clear
    /// already-recorded events.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on && self.cap > 0;
    }

    /// Whether recording is currently active (always false when the
    /// `trace` feature is compiled out).
    pub fn is_enabled(&self) -> bool {
        TRACE_COMPILED && self.enabled
    }

    /// Records one event. The closure runs only when tracing is both
    /// compiled in and enabled, so argument construction costs nothing
    /// on the disabled path.
    #[inline]
    pub fn record(&mut self, cycle: Cycle, f: impl FnOnce() -> TraceEventKind) {
        if !TRACE_COMPILED || !self.enabled {
            return;
        }
        self.push(TraceEvent { cycle, kind: f() });
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// How many events were evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Moves all buffered events out, leaving the buffer empty (still
    /// enabled). The drop counter is returned alongside and reset.
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let ev = self.events.drain(..).collect();
        let d = std::mem::take(&mut self.dropped);
        (ev, d)
    }
}

/// An aggregated, labelled trace harvested from many [`TraceBuf`]s —
/// the unit the exporters operate on.
///
/// Each event carries the FPGA it came from (Perfetto `pid`) and a lane
/// label (Perfetto `tid`, e.g. `"pcie"`, `"noc.n0"`).
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    events: Vec<(u32, String, TraceEvent)>,
    dropped: u64,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains a component's buffer into the sink under `(fpga, lane)`.
    pub fn absorb(&mut self, fpga: u32, lane: &str, buf: &mut TraceBuf) {
        let (events, dropped) = buf.drain();
        self.dropped += dropped;
        self.events.extend(events.into_iter().map(|e| (fpga, lane.to_owned(), e)));
    }

    /// Total events collected.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from ring buffers before harvest (across all
    /// absorbed buffers).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The collected `(fpga, lane, event)` triples in harvest order.
    pub fn events(&self) -> &[(u32, String, TraceEvent)] {
        &self.events
    }

    /// Renders the trace as Chrome `trace_event` JSON (the format
    /// `ui.perfetto.dev` and `chrome://tracing` load). `freq_mhz` maps
    /// cycles to wall time (1 cycle = `1/freq_mhz` µs ticks of the
    /// modeled clock).
    ///
    /// Duration-like kinds (PCIe flights, cache misses, DRAM requests)
    /// become `"X"` complete events spanning their latency; the rest are
    /// `"i"` instants. FPGAs map to processes, lanes to threads.
    pub fn to_perfetto_json(&self, freq_mhz: u32) -> String {
        let us_per_cycle = 1.0 / f64::from(freq_mhz.max(1));
        // Stable lane numbering: sorted by (fpga, lane name).
        let mut lanes: BTreeMap<(u32, &str), u32> = BTreeMap::new();
        for (fpga, lane, _) in &self.events {
            let next = lanes.len() as u32 + 1;
            lanes.entry((*fpga, lane)).or_insert(next);
        }
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut item = |s: &str, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(s);
        };
        let mut pids: Vec<u32> = lanes.keys().map(|(p, _)| *p).collect();
        pids.dedup();
        for pid in pids {
            item(
                &format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"fpga{pid}\"}}}}"
                ),
                &mut out,
            );
        }
        for ((pid, lane), tid) in &lanes {
            item(
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{lane}\"}}}}"
                ),
                &mut out,
            );
        }
        // Chronological body; the sort is stable so same-cycle events
        // keep their deterministic harvest order.
        let mut ordered: Vec<&(u32, String, TraceEvent)> = self.events.iter().collect();
        ordered.sort_by_key(|(_, _, e)| e.cycle);
        for (pid, lane, ev) in ordered {
            let tid = lanes[&(*pid, lane.as_str())];
            let mut s = String::with_capacity(96);
            let ts = |c: Cycle| c as f64 * us_per_cycle;
            match ev.kind {
                TraceEventKind::PcieSend { from, to, bytes, is_req } => {
                    let k = if is_req { "req" } else { "resp" };
                    let _ = write!(
                        s,
                        "{{\"name\":\"pcie send {from}->{to} {k}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"bytes\":{bytes}}}}}",
                        ts(ev.cycle)
                    );
                }
                TraceEventKind::PcieDeliver { from, to, sent_at, is_req } => {
                    let k = if is_req { "req" } else { "resp" };
                    let dur = ev.cycle.saturating_sub(sent_at);
                    let _ = write!(
                        s,
                        "{{\"name\":\"pcie {from}->{to} {k}\",\"ph\":\"X\",\"ts\":{:.3},\
                         \"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\
                         \"args\":{{\"latency_cycles\":{dur}}}}}",
                        ts(sent_at),
                        dur as f64 * us_per_cycle
                    );
                }
                TraceEventKind::XbarGrant { master, slave } => {
                    let _ = write!(
                        s,
                        "{{\"name\":\"xbar m{master}->s{slave}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{:.3},\"pid\":{pid},\"tid\":{tid}}}",
                        ts(ev.cycle)
                    );
                }
                TraceEventKind::NocDeliver { dst, hops, vn, edge } => {
                    let name = if edge { "noc edge-out" } else { "noc deliver" };
                    let _ = write!(
                        s,
                        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\
                         \"pid\":{pid},\"tid\":{tid},\
                         \"args\":{{\"dst\":{dst},\"hops\":{hops},\"vn\":{vn}}}}}",
                        ts(ev.cycle)
                    );
                }
                TraceEventKind::BpcState { tile, line, from, to } => {
                    let _ = write!(
                        s,
                        "{{\"name\":\"bpc t{tile} {}->{}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{:.3},\"pid\":{pid},\"tid\":{tid},\
                         \"args\":{{\"line\":\"{line:#x}\"}}}}",
                        from as char,
                        to as char,
                        ts(ev.cycle)
                    );
                }
                TraceEventKind::BpcMiss { tile, line, lat } => {
                    let _ = write!(
                        s,
                        "{{\"name\":\"bpc miss t{tile}\",\"ph\":\"X\",\"ts\":{:.3},\
                         \"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\
                         \"args\":{{\"line\":\"{line:#x}\",\"latency_cycles\":{lat}}}}}",
                        ts(ev.cycle.saturating_sub(lat)),
                        lat as f64 * us_per_cycle
                    );
                }
                TraceEventKind::LlcMiss { slice, line, lat } => {
                    let _ = write!(
                        s,
                        "{{\"name\":\"llc fetch s{slice}\",\"ph\":\"X\",\"ts\":{:.3},\
                         \"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\
                         \"args\":{{\"line\":\"{line:#x}\",\"latency_cycles\":{lat}}}}}",
                        ts(ev.cycle.saturating_sub(lat)),
                        lat as f64 * us_per_cycle
                    );
                }
                TraceEventKind::Dram { node, bytes, lat } => {
                    let _ = write!(
                        s,
                        "{{\"name\":\"dram n{node}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                         \"pid\":{pid},\"tid\":{tid},\
                         \"args\":{{\"bytes\":{bytes},\"latency_cycles\":{lat}}}}}",
                        ts(ev.cycle.saturating_sub(lat)),
                        lat as f64 * us_per_cycle
                    );
                }
                TraceEventKind::PortStall { occupancy } => {
                    let _ = write!(
                        s,
                        "{{\"name\":\"port stall\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"occupancy\":{occupancy}}}}}",
                        ts(ev.cycle)
                    );
                }
                TraceEventKind::Epoch { index, width } => {
                    let _ = write!(
                        s,
                        "{{\"name\":\"epoch {index}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"width_cycles\":{width}}}}}",
                        ts(ev.cycle.saturating_sub(width)),
                        width as f64 * us_per_cycle
                    );
                }
            }
            item(&s, &mut out);
        }
        out.push_str("]}");
        out
    }
}

/// Named counters plus named latency histograms, merged deterministically.
///
/// The rendered form of the platform's meters: every component's
/// [`Meters`](crate::Meters) block contributes its counters, its
/// histograms (PCIe RTT, NoC hop counts, cache miss latencies) and its
/// `port.*` lines, beside host-side histograms such as epoch widths.
/// Counters add and histograms merge order-insensitively, so two
/// registries from equivalent runs compare bit-identical via `==`.
///
/// Host-side (non-architectural) metrics use the reserved `host.` name
/// prefix — [`MetricsRegistry::architectural`] strips them so a
/// reference-stepper registry can be compared to an epoch-driven one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Stats,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges a counter set into the registry (summing shared names).
    pub fn merge_counters(&mut self, stats: &Stats) {
        self.counters.merge(stats);
    }

    /// Adds `delta` to a single named counter (creating it at zero when
    /// absent) — the entry point a [`Meters`](crate::Meters) block renders
    /// its counters and port meters through.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        self.counters.add(name, delta);
    }

    /// Merges a histogram under `name`, creating it when absent. Repeated
    /// merges under one name accumulate ([`Histogram::merge`]).
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        if let Some(cur) = self.histograms.get_mut(name) {
            cur.merge(h);
        } else {
            self.histograms.insert(name.to_owned(), h.clone());
        }
    }

    /// Reads a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name)
    }

    /// The counter side of the registry.
    pub fn counters(&self) -> &Stats {
        &self.counters
    }

    /// Reads a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates `(name, histogram)` pairs in sorted order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The registry with every `host.`-prefixed entry removed: the
    /// architectural view, identical across the per-cycle reference and
    /// the epoch driver (host metrics like `host.epoch_width` exist only
    /// under the epoch driver).
    pub fn architectural(&self) -> MetricsRegistry {
        let mut counters = Stats::new();
        for (k, v) in self.counters.iter().filter(|(k, _)| is_architectural(k)) {
            counters.add(k, v);
        }
        let histograms = self
            .histograms
            .iter()
            .filter(|(k, _)| is_architectural(k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        MetricsRegistry { counters, histograms }
    }

    /// A deterministic, sorted text dump: counters first (the familiar
    /// [`Stats`] format), then one summary line per histogram with its
    /// populated log2 buckets.
    pub fn snapshot_text(&self) -> String {
        self.text(|_| true)
    }

    /// `self.architectural().snapshot_text()`, byte for byte, rendered
    /// from this registry without copying it first.
    pub fn architectural_text(&self) -> String {
        self.text(is_architectural)
    }

    fn text(&self, keep: impl Fn(&str) -> bool) -> String {
        let mut out = String::new();
        for (k, v) in self.counters.iter().filter(|(k, _)| keep(k)) {
            let _ = writeln!(out, "{k:<40} {v}");
        }
        for (name, h) in self.histograms.iter().filter(|(k, _)| keep(k)) {
            if h.count() == 0 {
                let _ = writeln!(out, "{name:<40} count=0");
                continue;
            }
            let _ = write!(
                out,
                "{name:<40} count={} min={} max={} mean={:.2} p50<={} p99<={} |",
                h.count(),
                h.min(),
                h.max(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0),
            );
            for b in 0..64 {
                if h.bucket(b) != 0 {
                    let _ = write!(out, " [2^{b}]={}", h.bucket(b));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// True for every metric name outside the reserved `host.` lane.
fn is_architectural(name: &str) -> bool {
    !name.starts_with("host.")
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.snapshot_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant() -> TraceEventKind {
        TraceEventKind::XbarGrant { master: 1, slave: 2 }
    }

    #[test]
    fn disabled_buffer_records_nothing_and_skips_the_closure() {
        let mut t = TraceBuf::new(8);
        let mut called = false;
        t.record(1, || {
            called = true;
            grant()
        });
        assert!(t.events().is_empty());
        assert!(!called, "closure must not run while disabled");
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn compiled_out_recording_is_a_no_op_even_when_enabled() {
        let mut t = TraceBuf::new(8);
        t.set_enabled(true);
        assert!(!t.is_enabled());
        let mut called = false;
        t.record(1, || {
            called = true;
            grant()
        });
        assert!(t.events().is_empty());
        assert!(!called, "closure must not run when the trace feature is off");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let mut t = TraceBuf::new(3);
        t.set_enabled(true);
        for c in 0..5u64 {
            t.record(c, grant);
        }
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<Cycle> = t.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "keeps the most recent window");
        let (ev, dropped) = t.drain();
        assert_eq!((ev.len(), dropped), (3, 2));
        assert_eq!(t.dropped(), 0, "drain resets the drop counter");
    }

    #[test]
    fn zero_capacity_buffer_cannot_be_enabled() {
        let mut t = TraceBuf::new(0);
        t.set_enabled(true);
        t.record(1, grant);
        assert!(t.events().is_empty());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn perfetto_export_is_valid_shape_and_chronological() {
        let mut buf = TraceBuf::new(16);
        buf.set_enabled(true);
        buf.record(200, || TraceEventKind::PcieDeliver {
            from: 0,
            to: 1,
            sent_at: 138,
            is_req: true,
        });
        buf.record(50, grant);
        let mut sink = TraceSink::new();
        sink.absorb(0, "pcie", &mut buf);
        let json = sink.to_perfetto_json(100);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        // 100 MHz: cycle 138 = 1.38 µs; the grant at cycle 50 sorts first.
        assert!(json.contains("\"ts\":1.380"));
        assert!(json.find("xbar").unwrap() < json.find("pcie 0->1").unwrap());
        // Balanced braces — cheap structural sanity without a JSON parser.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn registry_merges_and_filters_host_prefix() {
        let mut a = MetricsRegistry::new();
        let mut s = Stats::new();
        s.add("noc.flits", 3);
        s.add("host.steps", 9);
        a.merge_counters(&s);
        let mut h = Histogram::new();
        h.record(125);
        a.merge_histogram("pcie.rtt", &h);
        a.merge_histogram("host.epoch_width", &h);
        let mut b = MetricsRegistry::new();
        b.merge_counters(&s);
        b.merge_histogram("pcie.rtt", &h);
        b.merge_histogram("host.epoch_width", &h);
        assert_eq!(a, b, "same build order must compare equal");
        let arch = a.architectural();
        assert_eq!(arch.counter("noc.flits"), 3);
        assert_eq!(arch.counter("host.steps"), 0);
        assert!(arch.histogram("pcie.rtt").is_some());
        assert!(arch.histogram("host.epoch_width").is_none());
        // Different host metrics, same architectural view.
        let mut c = b.clone();
        c.merge_histogram("host.epoch_width", &h);
        assert_ne!(b, c);
        assert_eq!(b.architectural(), c.architectural());
    }

    #[test]
    fn architectural_text_is_the_text_of_the_architectural_view() {
        let mut r = MetricsRegistry::new();
        let mut s = Stats::new();
        s.add("noc.flits", 3);
        s.add("host.steps", 9);
        s.add("xbar.req", 0);
        r.merge_counters(&s);
        let mut h = Histogram::new();
        h.record(125);
        h.record(7);
        r.merge_histogram("pcie.rtt", &h);
        r.merge_histogram("host.epoch_width", &h);
        r.merge_histogram("bpc.miss_latency", &Histogram::new());
        assert_eq!(r.architectural_text(), r.architectural().snapshot_text());
        assert_ne!(r.architectural_text(), r.snapshot_text());
        // Counters render exactly as `Stats` prints them.
        assert!(r.snapshot_text().starts_with(&r.counters().to_string()));
    }

    #[test]
    fn snapshot_text_is_deterministic_and_sorted() {
        let mut r = MetricsRegistry::new();
        let mut s = Stats::new();
        s.add("zeta", 1);
        s.add("alpha", 2);
        r.merge_counters(&s);
        let mut h = Histogram::new();
        for v in [100u64, 120, 125] {
            h.record(v);
        }
        r.merge_histogram("pcie.rtt", &h);
        let text = r.snapshot_text();
        assert_eq!(text, r.snapshot_text());
        assert!(text.find("alpha").unwrap() < text.find("zeta").unwrap());
        assert!(text.contains("pcie.rtt"));
        assert!(text.contains("count=3"));
        assert!(text.contains("[2^6]=3"), "100..=125 all land in bucket 6: {text}");
    }
}

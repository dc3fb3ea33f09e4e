//! Credit-accounted flow-control ports: the one queue substrate every
//! architectural buffer in the platform sits behind.
//!
//! SMAPPIC's scaling behavior (§3.2, Fig 9–10 of the paper) is a
//! flow-control story: each inter-chip hop is a chain of bounded buffers —
//! NoC virtual-channel FIFOs, Hard Shell AXI queues, PCIe flight buffers —
//! and the NUMA ratios emerge from where those buffers back up. This module
//! gives all of them one substrate:
//!
//! - [`Ring`] — preallocated ring storage, the unmetered primitive. A
//!   drop-in replacement for a grow-on-push `VecDeque` that allocates its
//!   slots up front and doubles only when an elastic queue actually
//!   overflows its preallocation.
//! - [`Port`] — a named, credit-accounted queue over a [`Ring`], with
//!   stall/peak-occupancy counters and an occupancy histogram
//!   ([`PortMeter`]), optional [`FaultInjector`] interposition, and
//!   [`TraceBuf`] stall events.
//! - [`DelayPort`] — the cycle-stamped variant: a fixed-latency pipe whose
//!   elements mature `latency` cycles after they are pushed, carrying the
//!   same meter.
//!
//! Ports have *local* dotted names (`"noc_out"`, `"r0.east.vc1"`); the
//! platform composes them with topology prefixes when merging meters into a
//! [`MetricsRegistry`], yielding stable global names such as
//! `port.node0.noc.r1.east.vc1.occupancy` and
//! `port.fpga0.shell.inbound_req.stalls`.
//!
//! # Capacity policy
//!
//! Bounded ports preallocate **exactly** their capacity — a port can never
//! reallocate mid-run, so hot-path pushes are a store plus counter updates.
//! Elastic ports (queues the architecture treats as unbounded: retry
//! staging, egress spill buffers) preallocate at most
//! [`ELASTIC_PREALLOC_CAP`] slots and double geometrically beyond it; the
//! cap keeps platforms with thousands of ports from paying for depth they
//! never reach, while growth keeps elastic semantics exact.

use crate::{
    Cycle, FaultInjector, Histogram, MetricsRegistry, Pack, SaveState, SnapReader, SnapWriter,
    TraceBuf, TraceEventKind,
};

/// Preallocation cap for elastic (unbounded-ish) ports and rings.
///
/// An elastic queue preallocates `hint.min(ELASTIC_PREALLOC_CAP)` slots and
/// grows by doubling if it ever exceeds them. Bounded ports ignore this cap
/// and preallocate exactly their capacity.
pub const ELASTIC_PREALLOC_CAP: usize = 1024;

/// Default preallocation for elastic rings and ports constructed without an
/// explicit hint. Most elastic queues in the platform idle near-empty.
const ELASTIC_PREALLOC_DEFAULT: usize = 16;

/// Preallocated ring storage: the unmetered queue primitive under [`Port`].
///
/// Use `Ring` directly only for micro-queues where a named, metered port
/// makes no sense — per-MSHR merge lists, per-cache-way waiter queues,
/// link-internal flight trackers whose occupancy is stepper-dependent.
/// Everything architectural should sit behind a [`Port`].
///
/// `push_back`/`push_front` always succeed: the ring doubles when full.
/// Callers that model bounded buffers enforce their capacity before
/// pushing (or use a bounded [`Port`], which does it for them).
///
/// ```
/// use smappic_sim::Ring;
/// let mut r: Ring<u32> = Ring::with_prealloc(2);
/// r.push_back(1);
/// r.push_back(2);
/// r.push_back(3); // grows; elastic semantics are exact
/// assert_eq!(r.pop_front(), Some(1));
/// assert_eq!(r.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Ring<T> {
    /// Slot storage. `VecDeque` is the one raw deque the platform keeps:
    /// everything architectural wraps it behind this type's preallocation
    /// policy (and [`Port`]'s credit accounting on top).
    buf: std::collections::VecDeque<T>,
}

impl<T> Ring<T> {
    /// Creates a ring preallocating [`ELASTIC_PREALLOC_DEFAULT`] slots.
    pub fn new() -> Self {
        Self::with_prealloc(ELASTIC_PREALLOC_DEFAULT)
    }

    /// Creates a ring preallocating `prealloc.min(ELASTIC_PREALLOC_CAP)`
    /// slots (at least one). The ring still grows on demand; the hint only
    /// sizes the up-front allocation.
    pub fn with_prealloc(prealloc: usize) -> Self {
        let slots = prealloc.clamp(1, ELASTIC_PREALLOC_CAP);
        Self { buf: std::collections::VecDeque::with_capacity(slots) }
    }

    /// Creates a ring preallocating exactly `capacity` slots, bypassing the
    /// elastic cap — for bounded [`Port`]s whose capacity is architectural.
    fn with_exact(capacity: usize) -> Self {
        Self { buf: std::collections::VecDeque::with_capacity(capacity) }
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Currently allocated slot count (grows; never shrinks).
    pub fn slots(&self) -> usize {
        self.buf.capacity()
    }

    /// Appends an element, growing the ring when full.
    pub fn push_back(&mut self, item: T) {
        self.buf.push_back(item);
    }

    /// Prepends an element (returns it to the head of the queue), growing
    /// the ring when full.
    pub fn push_front(&mut self, item: T) {
        self.buf.push_front(item);
    }

    /// Removes and returns the oldest element.
    pub fn pop_front(&mut self) -> Option<T> {
        self.buf.pop_front()
    }

    /// The oldest element, if any.
    pub fn front(&self) -> Option<&T> {
        self.buf.front()
    }

    /// The newest element, if any.
    pub fn back(&self) -> Option<&T> {
        self.buf.back()
    }

    /// The element at logical index `i` (0 = oldest).
    pub fn get(&self, i: usize) -> Option<&T> {
        self.buf.get(i)
    }

    /// Removes and returns the element at logical index `i`, shifting later
    /// elements forward (O(n)).
    pub fn remove(&mut self, i: usize) -> Option<T> {
        self.buf.remove(i)
    }

    /// Iterates queued elements from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Removes all elements, oldest first, returning them as a vector.
    pub fn drain_all(&mut self) -> Vec<T> {
        self.buf.drain(..).collect()
    }
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FromIterator<T> for Ring<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let items: Vec<T> = iter.into_iter().collect();
        let mut r = Ring::with_prealloc(items.len());
        for item in items {
            r.push_back(item);
        }
        r
    }
}

/// A port's observability state: stable local name, stall and peak-occupancy
/// counters, and an occupancy histogram sampled on every accepted push.
///
/// Meters merge into a [`MetricsRegistry`] under
/// `port.<prefix>.<name>.{occupancy,stalls,peak,pushes}` via
/// [`PortMeter::merge_into`]; the prefix carries the topology path
/// (`node0.tile1.bpc`), the name the component-local queue identity
/// (`noc_out`), so backpressure is attributable to one buffer.
#[derive(Debug, Clone)]
pub struct PortMeter {
    name: String,
    pushes: u64,
    pops: u64,
    stalls: u64,
    peak: u64,
    /// Boxed: a [`Histogram`] is ~600 bytes of mostly-cold bucket state,
    /// and platforms embed hundreds of ports in hot structs (every router
    /// direction x VC). One indirection per push keeps `Port<T>` small
    /// enough that queue traffic stays cache-resident.
    occupancy: Box<Histogram>,
}

impl PortMeter {
    fn new(name: String) -> Self {
        Self { name, pushes: 0, pops: 0, stalls: 0, peak: 0, occupancy: Box::new(Histogram::new()) }
    }

    /// The port's component-local dotted name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Accepted pushes.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Completed pops.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Rejected pushes (back-pressure observed by the upstream producer).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// High-watermark occupancy over the port's lifetime.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Occupancy histogram: one sample per accepted push, of the occupancy
    /// including the pushed element.
    pub fn occupancy(&self) -> &Histogram {
        &self.occupancy
    }

    #[inline]
    fn on_push(&mut self, occupancy: usize) {
        self.pushes += 1;
        let occ = occupancy as u64;
        if occ > self.peak {
            self.peak = occ;
        }
        self.occupancy.record(occ);
    }

    /// Merges this meter into `m` under `port.<prefix>.<name>.*`.
    ///
    /// Build registries in a fixed component order (as
    /// `Platform::metrics()` does) so snapshots stay bit-comparable.
    pub fn merge_into(&self, prefix: &str, m: &mut MetricsRegistry) {
        let base = if prefix.is_empty() {
            format!("port.{}", self.name)
        } else {
            format!("port.{prefix}.{}", self.name)
        };
        m.add_counter(&format!("{base}.pushes"), self.pushes);
        m.add_counter(&format!("{base}.stalls"), self.stalls);
        m.add_counter(&format!("{base}.peak"), self.peak);
        m.merge_histogram(&format!("{base}.occupancy"), &self.occupancy);
    }
}

/// How a port bounds its occupancy.
#[derive(Debug, Clone)]
enum Bound {
    /// Remaining credits; `0` means a push would be rejected. Invariant:
    /// `credits + len == capacity`.
    Credits(usize),
    /// Logically unbounded: pushes always succeed, storage grows on demand.
    Elastic,
}

/// A named, credit-accounted FIFO over preallocated ring storage.
///
/// The flow-control substrate of the platform: every architectural queue —
/// NoC input buffers, Hard Shell AXI FIFOs, cache egress queues, bridge
/// staging — is a `Port`, so capacity conventions, back-pressure counters,
/// and fault interposition live in exactly one place.
///
/// Bounded ports hold explicit *credits* (free slots); [`Port::try_push`]
/// consumes one and returns the rejected item when none remain, counting
/// the stall. Elastic ports (see [`ELASTIC_PREALLOC_CAP`]) never reject.
///
/// ```
/// use smappic_sim::Port;
/// let mut p = Port::bounded("xbar.req_in", 2);
/// assert_eq!(p.credits(), 2);
/// p.try_push('a').unwrap();
/// p.try_push('b').unwrap();
/// assert_eq!(p.try_push('c'), Err('c')); // full: back-pressure
/// assert_eq!(p.meter().stalls(), 1);
/// assert_eq!(p.pop(), Some('a'));
/// assert_eq!(p.credits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Port<T> {
    ring: Ring<T>,
    bound: Bound,
    meter: PortMeter,
    /// Optional fault hook: `(injector, lane)` consulted by
    /// [`Port::fault_stalled`].
    faults: Option<(FaultInjector, u64)>,
}

impl<T> Port<T> {
    /// Creates a bounded port holding at most `capacity` elements, with all
    /// storage preallocated exactly (a bounded port never reallocates).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-capacity port cannot transfer
    /// data.
    pub fn bounded(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity port cannot transfer data");
        Self {
            ring: Ring::with_exact(capacity),
            bound: Bound::Credits(capacity),
            meter: PortMeter::new(name.into()),
            faults: None,
        }
    }

    /// Creates an elastic (logically unbounded) port preallocating the
    /// default hint; see [`Port::elastic_with`].
    pub fn elastic(name: impl Into<String>) -> Self {
        Self::elastic_with(name, ELASTIC_PREALLOC_DEFAULT)
    }

    /// Creates an elastic port preallocating
    /// `prealloc.min(`[`ELASTIC_PREALLOC_CAP`]`)` slots. Elastic ports
    /// model queues the architecture treats as unbounded (retry staging,
    /// egress spill); pushes always succeed and storage doubles on
    /// overflow.
    pub fn elastic_with(name: impl Into<String>, prealloc: usize) -> Self {
        Self {
            ring: Ring::with_prealloc(prealloc),
            bound: Bound::Elastic,
            meter: PortMeter::new(name.into()),
            faults: None,
        }
    }

    /// Attaches a fault injector; [`Port::fault_stalled`] then consults it
    /// on `lane`. Fault decisions stay pure functions of
    /// `(seed, stream, lane, cycle)`, identical across steppers.
    pub fn set_faults(&mut self, inj: FaultInjector, lane: u64) {
        self.faults = Some((inj, lane));
    }

    /// True when the attached fault injector stalls this port at `now`
    /// (always false without an injector). The deterministic interposition
    /// point: arbiters ask the port instead of carrying per-site injector
    /// plumbing.
    pub fn fault_stalled(&self, now: Cycle) -> bool {
        self.faults.as_ref().is_some_and(|(inj, lane)| inj.stalled(*lane, now))
    }

    /// Appends `item`, or returns it back when the port is out of credits,
    /// counting the stall.
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        match &mut self.bound {
            Bound::Credits(0) => {
                self.meter.stalls += 1;
                Err(item)
            }
            Bound::Credits(c) => {
                *c -= 1;
                self.ring.push_back(item);
                self.meter.on_push(self.ring.len());
                Ok(())
            }
            Bound::Elastic => {
                self.ring.push_back(item);
                self.meter.on_push(self.ring.len());
                Ok(())
            }
        }
    }

    /// [`Port::try_push`] that records a [`TraceEventKind::PortStall`]
    /// event into `trace` when the push is rejected.
    pub fn try_push_traced(&mut self, item: T, now: Cycle, trace: &mut TraceBuf) -> Result<(), T> {
        let occupancy = self.ring.len() as u32;
        match self.try_push(item) {
            Ok(()) => Ok(()),
            Err(item) => {
                trace.record(now, || TraceEventKind::PortStall { occupancy });
                Err(item)
            }
        }
    }

    /// Appends `item` unconditionally. Elastic ports grow; a full bounded
    /// port panics (use [`Port::try_push`] where back-pressure is real).
    ///
    /// # Panics
    ///
    /// Panics when a bounded port is out of credits.
    pub fn push(&mut self, item: T) {
        match &mut self.bound {
            Bound::Credits(0) => panic!("push on a full bounded port '{}'", self.meter.name),
            Bound::Credits(c) => *c -= 1,
            Bound::Elastic => {}
        }
        self.ring.push_back(item);
        self.meter.on_push(self.ring.len());
    }

    /// Returns `item` to the head of the queue (the "un-pop" used when a
    /// downstream consumer refuses an element already popped). Consumes a
    /// credit like [`Port::push`] but records no occupancy sample — the
    /// element was already sampled when first pushed.
    ///
    /// # Panics
    ///
    /// Panics when a bounded port is out of credits.
    pub fn push_front(&mut self, item: T) {
        match &mut self.bound {
            Bound::Credits(0) => panic!("push_front on a full bounded port '{}'", self.meter.name),
            Bound::Credits(c) => *c -= 1,
            Bound::Elastic => {}
        }
        self.ring.push_front(item);
        let occ = self.ring.len() as u64;
        if occ > self.meter.peak {
            self.meter.peak = occ;
        }
    }

    /// Removes and returns the oldest element, returning its credit.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.ring.pop_front();
        if item.is_some() {
            self.meter.pops += 1;
            if let Bound::Credits(c) = &mut self.bound {
                *c += 1;
            }
        }
        item
    }

    /// The oldest element without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.ring.front()
    }

    /// The element at logical index `i` (0 = oldest).
    pub fn get(&self, i: usize) -> Option<&T> {
        self.ring.get(i)
    }

    /// Removes the element at logical index `i`, returning its credit
    /// (O(n); for the scan-and-extract patterns of MSHR-style consumers).
    pub fn remove(&mut self, i: usize) -> Option<T> {
        let item = self.ring.remove(i);
        if item.is_some() {
            self.meter.pops += 1;
            if let Bound::Credits(c) = &mut self.bound {
                *c += 1;
            }
        }
        item
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// True when a [`Port::try_push`] would be rejected (never for elastic
    /// ports).
    pub fn is_full(&self) -> bool {
        matches!(self.bound, Bound::Credits(0))
    }

    /// Remaining credits: how many more pushes the port accepts. Elastic
    /// ports report [`usize::MAX`].
    pub fn credits(&self) -> usize {
        match self.bound {
            Bound::Credits(c) => c,
            Bound::Elastic => usize::MAX,
        }
    }

    /// Alias for [`Port::credits`], matching RTL FIFO terminology.
    pub fn free_slots(&self) -> usize {
        self.credits()
    }

    /// The configured capacity; elastic ports report [`usize::MAX`].
    pub fn capacity(&self) -> usize {
        match self.bound {
            // credits + occupancy is the configured capacity by the credit
            // invariant, independent of how much the ring over-allocated.
            Bound::Credits(c) => c + self.ring.len(),
            Bound::Elastic => usize::MAX,
        }
    }

    /// Iterates queued elements from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.ring.iter()
    }

    /// The port's meter: name, stall/peak counters, occupancy histogram.
    pub fn meter(&self) -> &PortMeter {
        &self.meter
    }

    /// A port holds no timed state — queued items are already poppable —
    /// so it never schedules a future event. Exists so containers can fold
    /// ports and delay ports through one idle-skip scan uniformly.
    pub fn next_event_after(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    #[cfg(test)]
    fn check_invariant(&self) -> bool {
        match self.bound {
            // The ring may over-allocate but never under-allocates the
            // configured capacity, and credits account for every slot.
            Bound::Credits(c) => c + self.ring.len() <= self.ring.slots(),
            Bound::Elastic => true,
        }
    }
}

/// A cycle-stamped port: elements pushed at cycle `t` become poppable at
/// `t + latency`, in push order. The flow-control layer's delay element,
/// with the same meter and naming scheme as [`Port`].
///
/// ```
/// use smappic_sim::DelayPort;
/// let mut d = DelayPort::new("bpc.resp", 2);
/// d.push(10, 'x');
/// assert_eq!(d.pop_ready(11), None);
/// assert_eq!(d.pop_ready(12), Some('x'));
/// ```
#[derive(Debug, Clone)]
pub struct DelayPort<T> {
    latency: Cycle,
    /// `(cycle the element matures, element)`, ready times monotone.
    ring: Ring<(Cycle, T)>,
    meter: PortMeter,
}

impl<T> DelayPort<T> {
    /// Creates a delay port with the given latency in cycles.
    pub fn new(name: impl Into<String>, latency: Cycle) -> Self {
        Self {
            latency,
            ring: Ring::with_prealloc(ELASTIC_PREALLOC_DEFAULT),
            meter: PortMeter::new(name.into()),
        }
    }

    /// Inserts `item` at cycle `now`; it matures at `now + latency`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if pushes go backwards in time, which would
    /// violate the ordering invariant.
    pub fn push(&mut self, now: Cycle, item: T) {
        let ready = now + self.latency;
        debug_assert!(
            self.ring.back().is_none_or(|(r, _)| *r <= ready),
            "DelayPort pushes must be monotone in time"
        );
        self.ring.push_back((ready, item));
        self.meter.on_push(self.ring.len());
    }

    /// Removes and returns the oldest element whose delay has elapsed.
    /// Equal-stamp elements pop in push order.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.ring.front().is_some_and(|(ready, _)| *ready <= now) {
            self.meter.pops += 1;
            self.ring.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Removes and returns the oldest element maturing *strictly before*
    /// `horizon`, together with its ready cycle. The epoch-extraction
    /// primitive: drivers drain everything below a lookahead horizon while
    /// leaving later traffic in flight (mirrors
    /// [`TrafficShaper::pop_before`](crate::TrafficShaper::pop_before)).
    pub fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, T)> {
        if self.ring.front().is_some_and(|(ready, _)| *ready < horizon) {
            self.meter.pops += 1;
            self.ring.pop_front()
        } else {
            None
        }
    }

    /// The oldest matured element without removing it.
    pub fn peek_ready(&self, now: Cycle) -> Option<&T> {
        self.ring.front().filter(|(ready, _)| *ready <= now).map(|(_, item)| item)
    }

    /// Total elements in flight (matured or not).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// The port's meter.
    pub fn meter(&self) -> &PortMeter {
        &self.meter
    }

    /// Saves only the in-flight ring, without the meter. For hops pumped
    /// in batched horizons (the Ethernet fabric), where pop *call* times —
    /// and with them the meter's occupancy samples — are artifacts of the
    /// stepper schedule while the ring contents are bit-identical across
    /// steppers. Restore with [`DelayPort::restore_ring_only`], which
    /// leaves the meter untouched (zeroed on a fresh platform), keeping
    /// save → restore → save a byte fixed point.
    pub fn save_ring_only(&self, w: &mut SnapWriter)
    where
        T: Pack,
    {
        self.ring.save(w);
    }

    /// Restores a [`DelayPort::save_ring_only`] image.
    pub fn restore_ring_only(&mut self, r: &mut SnapReader)
    where
        T: Pack,
    {
        self.ring.restore(r);
    }

    /// Cycle at which the oldest in-flight element matures, if any — the
    /// delay port's contribution to the idle-skip scan.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.ring.front().map(|(r, _)| *r)
    }

    /// The next cycle strictly after `now` at which a pop could newly
    /// succeed, or [`None`] when the port is empty.
    pub fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        self.next_ready_at().map(|r| r.max(now + 1))
    }
}

impl<T: Pack> SaveState for Ring<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for item in self.iter() {
            item.pack(w);
        }
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.buf.clear();
        let n = r.usize();
        for _ in 0..n {
            if !r.ok() {
                break;
            }
            self.buf.push_back(T::unpack(r));
        }
    }
}

impl SaveState for PortMeter {
    fn save(&self, w: &mut SnapWriter) {
        // The name is configuration (it comes from the component's
        // constructor), so only the counters and histogram are state.
        w.u64(self.pushes);
        w.u64(self.pops);
        w.u64(self.stalls);
        w.u64(self.peak);
        self.occupancy.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.pushes = r.u64();
        self.pops = r.u64();
        self.stalls = r.u64();
        self.peak = r.u64();
        self.occupancy.restore(r);
    }
}

impl<T: Pack> SaveState for Port<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.ring.save(w);
        self.meter.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        // Capacity is configuration; credits are derived from it by the
        // `credits + len == capacity` invariant once the ring is restored.
        let cap = match self.bound {
            Bound::Credits(c) => Some(c + self.ring.len()),
            Bound::Elastic => None,
        };
        self.ring.restore(r);
        if let Some(cap) = cap {
            if self.ring.len() > cap {
                r.corrupt("restored port exceeds its configured capacity");
            }
            self.bound = Bound::Credits(cap.saturating_sub(self.ring.len()));
        }
        self.meter.restore(r);
    }
}

impl<T: Pack> SaveState for DelayPort<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.ring.save(w);
        self.meter.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.ring.restore(r);
        self.meter.restore(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_grows_preserving_order() {
        let mut r: Ring<u32> = Ring::with_prealloc(4);
        assert_eq!(r.slots(), 4);
        for i in 0..3 {
            r.push_back(i);
        }
        assert_eq!(r.pop_front(), Some(0));
        assert_eq!(r.pop_front(), Some(1));
        // Wrap around the backing slice, then grow past it.
        for i in 3..10 {
            r.push_back(i);
        }
        assert!(r.slots() >= 8, "ring must have grown");
        let drained = r.drain_all();
        assert_eq!(drained, (2..10).collect::<Vec<_>>());
    }

    #[test]
    fn ring_push_front_and_remove() {
        let mut r: Ring<char> = Ring::with_prealloc(2);
        r.push_back('b');
        r.push_front('a');
        r.push_back('c');
        assert_eq!(r.iter().collect::<Vec<_>>(), [&'a', &'b', &'c']);
        assert_eq!(r.remove(1), Some('b'));
        assert_eq!(r.remove(5), None);
        assert_eq!(r.iter().collect::<Vec<_>>(), [&'a', &'c']);
        assert_eq!(r.get(1), Some(&'c'));
        assert_eq!(r.back(), Some(&'c'));
    }

    #[test]
    fn bounded_port_preallocates_exactly_and_rejects_when_full() {
        let mut p = Port::bounded("t.q", 3);
        assert_eq!(p.capacity(), 3);
        assert_eq!(p.ring.slots(), 3, "bounded ports preallocate exactly");
        for i in 0..3 {
            p.try_push(i).unwrap();
        }
        assert!(p.is_full());
        assert_eq!(p.try_push(9), Err(9));
        assert_eq!(p.meter().stalls(), 1);
        assert_eq!(p.pop(), Some(0));
        assert_eq!(p.credits(), 1);
        assert!(p.check_invariant());
    }

    #[test]
    fn large_bounded_port_does_not_start_small() {
        // Bounded ports preallocate their whole capacity: a deep FIFO must
        // never reallocate mid-run.
        let p: Port<u64> = Port::bounded("llc.noc_out", 1024);
        assert_eq!(p.ring.slots(), 1024);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_port_panics() {
        let _ = Port::<u8>::bounded("t.zero", 0);
    }

    #[test]
    fn elastic_port_grows_and_never_stalls() {
        let mut p = Port::elastic_with("t.elastic", 2);
        for i in 0..100 {
            p.try_push(i).unwrap();
        }
        assert_eq!(p.meter().stalls(), 0);
        assert_eq!(p.meter().peak(), 100);
        assert_eq!(p.credits(), usize::MAX);
        for i in 0..100 {
            assert_eq!(p.pop(), Some(i));
        }
    }

    #[test]
    fn port_meter_tracks_occupancy_and_merges() {
        let mut p = Port::bounded("bpc.noc_out", 4);
        p.try_push('a').unwrap();
        p.try_push('b').unwrap();
        p.pop();
        let mut m = MetricsRegistry::new();
        p.meter().merge_into("node0.tile1", &mut m);
        assert_eq!(m.counter("port.node0.tile1.bpc.noc_out.pushes"), 2);
        assert_eq!(m.counter("port.node0.tile1.bpc.noc_out.peak"), 2);
        assert_eq!(m.counter("port.node0.tile1.bpc.noc_out.stalls"), 0);
        let h = m.histogram("port.node0.tile1.bpc.noc_out.occupancy").expect("histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 2);
    }

    #[test]
    fn unpop_restores_head_position() {
        let mut p = Port::bounded("noc.out", 2);
        p.try_push(1).unwrap();
        p.try_push(2).unwrap();
        let head = p.pop().unwrap();
        p.push_front(head);
        assert_eq!(p.iter().copied().collect::<Vec<_>>(), [1, 2]);
        assert!(p.is_full());
    }

    #[test]
    fn delay_port_matches_delay_line_semantics() {
        let mut d = DelayPort::new("t.delay", 5);
        d.push(100, 1u32);
        d.push(101, 2u32);
        assert_eq!(d.pop_ready(104), None);
        assert_eq!(d.next_ready_at(), Some(105));
        assert_eq!(d.next_event_after(104), Some(105));
        assert_eq!(d.pop_ready(105), Some(1));
        assert_eq!(d.pop_ready(105), None);
        assert_eq!(d.pop_ready(106), Some(2));
        assert!(d.is_empty());
        assert_eq!(d.meter().pushes(), 2);
    }

    #[test]
    fn fault_hook_defaults_to_clear() {
        let p = Port::<u8>::bounded("t.q", 1);
        assert!(!p.fault_stalled(0));
    }
}

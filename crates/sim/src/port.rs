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
//! - [`Port`] — a credit-accounted queue over a [`Ring`], with optional
//!   [`FaultInjector`] interposition and [`TraceBuf`] stall events.
//! - [`DelayPort`] — the cycle-stamped variant: a fixed-latency pipe whose
//!   elements mature `latency` cycles after they are pushed.
//!
//! Every port holds a [`PortSlot`] in its owner's [`Meters`] block, and a
//! push records into that block: pushes, stalls, peak occupancy and an
//! occupancy histogram. The slot carries the port's *local* dotted name
//! (`"noc_out"`, `"r0.east.vc1"`); the platform renders each block under
//! its topology root, yielding stable global names such as
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
    Cycle, FaultInjector, Meters, Pack, PortSlot, SaveState, SnapReader, SnapWriter, TraceBuf,
    TraceEventKind,
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
#[allow(clippy::disallowed_types)] // the one deque every architectural queue wraps
pub struct Ring<T> {
    /// Slot storage. `VecDeque` is the one raw deque the platform keeps:
    /// everything architectural wraps it behind this type's preallocation
    /// policy (and [`Port`]'s credit accounting on top).
    buf: std::collections::VecDeque<T>,
}

#[allow(clippy::disallowed_types)] // `Ring`'s own buffer
impl<T> Ring<T> {
    /// Creates a ring preallocating the default elastic hint (16 slots).
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

    /// Removes all elements, keeping the allocated slots.
    pub fn clear(&mut self) {
        self.buf.clear();
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

/// How a port bounds its occupancy.
#[derive(Debug, Clone)]
enum Bound {
    /// Remaining credits; `0` means a push would be rejected. Invariant:
    /// `credits + len == capacity`.
    Credits(usize),
    /// Logically unbounded: pushes always succeed, storage grows on demand.
    Elastic,
}

/// A credit-accounted FIFO over preallocated ring storage.
///
/// The flow-control substrate of the platform: every architectural queue —
/// NoC input buffers, Hard Shell AXI FIFOs, cache egress queues, bridge
/// staging — is a `Port`, so capacity conventions, back-pressure counters,
/// and fault interposition live in exactly one place. Pushes record into
/// the port's slot in its owner's [`Meters`] block.
///
/// Bounded ports hold explicit *credits* (free slots); [`Port::try_push`]
/// consumes one and returns the rejected item when none remain, counting
/// the stall. Elastic ports (see [`ELASTIC_PREALLOC_CAP`]) never reject.
///
/// ```
/// use smappic_sim::{MetersBuilder, Port};
/// let mut names = MetersBuilder::new();
/// let mut p = Port::bounded(names.port("xbar.req_in"), 2);
/// let mut meters = names.build();
/// assert_eq!(p.credits(), 2);
/// p.try_push('a', &mut meters).unwrap();
/// p.try_push('b', &mut meters).unwrap();
/// assert_eq!(p.try_push('c', &mut meters), Err('c')); // full: back-pressure
/// assert_eq!(meters.stalls(p.slot()), 1);
/// assert_eq!(p.pop(), Some('a'));
/// assert_eq!(p.credits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Port<T> {
    ring: Ring<T>,
    bound: Bound,
    slot: PortSlot,
    /// Optional fault hook: `(injector, lane)` consulted by
    /// [`Port::fault_stalled`].
    faults: Option<(FaultInjector, u64)>,
}

impl<T> Port<T> {
    /// Creates a bounded port holding at most `capacity` elements, with all
    /// storage preallocated exactly (a bounded port never reallocates),
    /// metered through `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-capacity port cannot transfer
    /// data.
    pub fn bounded(slot: PortSlot, capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity port cannot transfer data");
        Self {
            ring: Ring::with_exact(capacity),
            bound: Bound::Credits(capacity),
            slot,
            faults: None,
        }
    }

    /// Creates an elastic port metered through `slot`, preallocating
    /// `prealloc.min(`[`ELASTIC_PREALLOC_CAP`]`)` slots. Elastic ports
    /// model queues the architecture treats as unbounded (retry staging,
    /// egress spill); pushes always succeed and storage doubles on
    /// overflow.
    pub fn elastic_with(slot: PortSlot, prealloc: usize) -> Self {
        Self { ring: Ring::with_prealloc(prealloc), bound: Bound::Elastic, slot, faults: None }
    }

    /// The port's slot in its owner's [`Meters`] block.
    pub fn slot(&self) -> PortSlot {
        self.slot
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
    /// counting the stall in `meters`.
    pub fn try_push(&mut self, item: T, meters: &mut Meters) -> Result<(), T> {
        match &mut self.bound {
            Bound::Credits(0) => {
                meters.port_stall(self.slot);
                return Err(item);
            }
            Bound::Credits(c) => *c -= 1,
            Bound::Elastic => {}
        }
        self.ring.push_back(item);
        meters.port_push(self.slot, self.ring.len());
        Ok(())
    }

    /// [`Port::try_push`] that records a [`TraceEventKind::PortStall`]
    /// event into `trace` when the push is rejected.
    pub fn try_push_traced(
        &mut self,
        item: T,
        now: Cycle,
        trace: &mut TraceBuf,
        meters: &mut Meters,
    ) -> Result<(), T> {
        let occupancy = self.ring.len() as u32;
        self.try_push(item, meters).inspect_err(|_| {
            trace.record(now, || TraceEventKind::PortStall { occupancy });
        })
    }

    /// Appends `item` unconditionally. Elastic ports grow; a full bounded
    /// port panics (use [`Port::try_push`] where back-pressure is real).
    ///
    /// # Panics
    ///
    /// Panics when a bounded port is out of credits.
    pub fn push(&mut self, item: T, meters: &mut Meters) {
        match &mut self.bound {
            Bound::Credits(0) => panic!("push on a full bounded port {:?}", self.slot),
            Bound::Credits(c) => *c -= 1,
            Bound::Elastic => {}
        }
        self.ring.push_back(item);
        meters.port_push(self.slot, self.ring.len());
    }

    /// Returns `item` to the head of the queue (the "un-pop" used when a
    /// downstream consumer refuses an element already popped). Consumes a
    /// credit like [`Port::push`] but records no occupancy sample — the
    /// element was already sampled when first pushed.
    ///
    /// # Panics
    ///
    /// Panics when a bounded port is out of credits.
    pub fn push_front(&mut self, item: T, meters: &mut Meters) {
        match &mut self.bound {
            Bound::Credits(0) => panic!("push_front on a full bounded port {:?}", self.slot),
            Bound::Credits(c) => *c -= 1,
            Bound::Elastic => {}
        }
        self.ring.push_front(item);
        meters.port_refill(self.slot, self.ring.len());
    }

    /// Removes and returns the oldest element, returning its credit.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.ring.pop_front();
        if item.is_some() {
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
/// metered like a [`Port`].
///
/// ```
/// use smappic_sim::{DelayPort, MetersBuilder};
/// let mut names = MetersBuilder::new();
/// let mut d = DelayPort::new(names.port("bpc.resp"), 2);
/// let mut meters = names.build();
/// d.push(10, 'x', &mut meters);
/// assert_eq!(d.pop_ready(11), None);
/// assert_eq!(d.pop_ready(12), Some('x'));
/// assert_eq!(meters.pushes(d.slot()), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DelayPort<T> {
    latency: Cycle,
    /// `(cycle the element matures, element)`, ready times monotone.
    ring: Ring<(Cycle, T)>,
    slot: PortSlot,
}

impl<T> DelayPort<T> {
    /// Creates a delay port with the given latency in cycles, metered
    /// through `slot`.
    pub fn new(slot: PortSlot, latency: Cycle) -> Self {
        Self { latency, ring: Ring::with_prealloc(ELASTIC_PREALLOC_DEFAULT), slot }
    }

    /// The port's slot in its owner's [`Meters`] block.
    pub fn slot(&self) -> PortSlot {
        self.slot
    }

    /// Inserts `item` at cycle `now`; it matures at `now + latency`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if pushes go backwards in time, which would
    /// violate the ordering invariant.
    pub fn push(&mut self, now: Cycle, item: T, meters: &mut Meters) {
        let ready = now + self.latency;
        debug_assert!(
            self.ring.back().is_none_or(|(r, _)| *r <= ready),
            "DelayPort pushes must be monotone in time"
        );
        self.ring.push_back((ready, item));
        meters.port_push(self.slot, self.ring.len());
    }

    /// Removes and returns the oldest element whose delay has elapsed.
    /// Equal-stamp elements pop in push order.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        self.pop_before(now + 1).map(|(_, item)| item)
    }

    /// Removes and returns the oldest element maturing *strictly before*
    /// `horizon`, together with its ready cycle. The epoch-extraction
    /// primitive: drivers drain everything below a lookahead horizon while
    /// leaving later traffic in flight (mirrors
    /// [`TrafficShaper::pop_before`](crate::TrafficShaper::pop_before)).
    pub fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, T)> {
        if self.ring.front().is_some_and(|(ready, _)| *ready < horizon) {
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
        let Self { buf } = self;
        buf.pack(w);
    }

    /// Restores in place, so the ring keeps the slots it preallocated.
    fn restore(&mut self, r: &mut SnapReader) {
        self.buf.clear();
        self.buf.extend(r.seq(T::unpack));
    }
}

/// A ring held inside another container (a map of per-destination
/// queues, a cache way's waiters) packs as its [`SaveState`] image.
impl<T: Pack> Pack for Ring<T> {
    fn pack(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    fn unpack(r: &mut SnapReader) -> Self {
        let mut ring = Ring::new();
        ring.restore(r);
        ring
    }
}

impl<T: Pack> SaveState for Port<T> {
    fn save(&self, w: &mut SnapWriter) {
        // The bound's capacity is configuration and its credits follow from
        // the ring; the slot and the fault hook are configuration.
        let Self { ring, bound: _, slot: _, faults: _ } = self;
        ring.save(w);
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
    }
}

impl<T: Pack> SaveState for DelayPort<T> {
    fn save(&self, w: &mut SnapWriter) {
        let Self { latency: _, ring, slot: _ } = self; // latency, slot: configuration
        ring.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.ring.restore(r);
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

    /// A fresh block and one port slot in it.
    fn block(name: &'static str) -> (Meters, PortSlot) {
        let mut m = crate::MetersBuilder::new();
        let slot = m.port(name);
        (m.build(), slot)
    }

    #[test]
    fn bounded_port_preallocates_exactly_and_rejects_when_full() {
        let (mut m, slot) = block("t.q");
        let mut p = Port::bounded(slot, 3);
        assert_eq!(p.capacity(), 3);
        assert_eq!(p.ring.slots(), 3, "bounded ports preallocate exactly");
        for i in 0..3 {
            p.try_push(i, &mut m).unwrap();
        }
        assert!(p.is_full());
        assert_eq!(p.try_push(9, &mut m), Err(9));
        assert_eq!(m.stalls(slot), 1);
        assert_eq!(p.pop(), Some(0));
        assert_eq!(p.credits(), 1);
        assert!(p.check_invariant());
    }

    #[test]
    fn large_bounded_port_does_not_start_small() {
        // Bounded ports preallocate their whole capacity: a deep FIFO must
        // never reallocate mid-run.
        let p: Port<u64> = Port::bounded(block("llc.noc_out").1, 1024);
        assert_eq!(p.ring.slots(), 1024);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_port_panics() {
        let _ = Port::<u8>::bounded(block("t.zero").1, 0);
    }

    #[test]
    fn elastic_port_grows_and_never_stalls() {
        let (mut m, slot) = block("t.elastic");
        let mut p = Port::elastic_with(slot, 2);
        for i in 0..100 {
            p.try_push(i, &mut m).unwrap();
        }
        assert_eq!(m.stalls(slot), 0);
        assert_eq!(m.peak(slot), 100);
        assert_eq!(p.credits(), usize::MAX);
        for i in 0..100 {
            assert_eq!(p.pop(), Some(i));
        }
    }

    #[test]
    fn port_meter_tracks_occupancy_and_renders() {
        let (mut m, slot) = block("noc_out");
        let mut p = Port::bounded(slot, 4);
        p.try_push('a', &mut m).unwrap();
        p.try_push('b', &mut m).unwrap();
        p.pop();
        let mut r = crate::MetricsRegistry::new();
        m.render("port.node0.tile1.bpc", &mut r);
        assert_eq!(r.counter("port.node0.tile1.bpc.noc_out.pushes"), 2);
        assert_eq!(r.counter("port.node0.tile1.bpc.noc_out.peak"), 2);
        assert_eq!(r.counter("port.node0.tile1.bpc.noc_out.stalls"), 0);
        let h = r.histogram("port.node0.tile1.bpc.noc_out.occupancy").expect("histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 2);
    }

    #[test]
    fn unpop_restores_head_position() {
        let (mut m, slot) = block("noc.out");
        let mut p = Port::bounded(slot, 2);
        p.try_push(1, &mut m).unwrap();
        p.try_push(2, &mut m).unwrap();
        let head = p.pop().unwrap();
        p.push_front(head, &mut m);
        assert_eq!(p.iter().copied().collect::<Vec<_>>(), [1, 2]);
        assert!(p.is_full());
        assert_eq!((m.pushes(slot), m.peak(slot)), (2, 2), "an un-pop is not a push");
    }

    #[test]
    fn delay_port_matches_delay_line_semantics() {
        let (mut m, slot) = block("t.delay");
        let mut d = DelayPort::new(slot, 5);
        d.push(100, 1u32, &mut m);
        d.push(101, 2u32, &mut m);
        assert_eq!(d.pop_ready(104), None);
        assert_eq!(d.next_ready_at(), Some(105));
        assert_eq!(d.next_event_after(104), Some(105));
        assert_eq!(d.pop_ready(105), Some(1));
        assert_eq!(d.pop_ready(105), None);
        assert_eq!(d.pop_ready(106), Some(2));
        assert!(d.is_empty());
        assert_eq!(m.pushes(slot), 2);
    }

    #[test]
    fn fault_hook_defaults_to_clear() {
        let p = Port::<u8>::bounded(block("t.q").1, 1);
        assert!(!p.fault_stalled(0));
    }
}

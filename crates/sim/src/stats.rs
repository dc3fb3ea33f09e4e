//! Instrumentation: every component's [`Meters`] block, and the [`Stats`]
//! and [`Histogram`] types it renders into.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use crate::{MetricsRegistry, SaveState, SnapReader, SnapWriter};

/// A rendered, named set of counters: what [`Meters::stats`] and
/// `Platform::stats()` return for harnesses to read and print.
///
/// `BTreeMap` keeps output deterministic and sorted.
///
/// ```
/// use smappic_sim::Stats;
/// let mut s = Stats::new();
/// s.add("noc.flits", 3);
/// s.incr("noc.flits");
/// assert_eq!(s.get("noc.flits"), 4);
/// assert_eq!(s.get("unknown"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
}

impl Stats {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads counter `name`, returning zero if it was never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another counter set into this one (summing shared names).
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k:<40} {v}")?;
        }
        Ok(())
    }
}

/// A counter slot in a [`Meters`] block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSlot(u32);

/// A histogram slot in a [`Meters`] block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSlot(u32);

/// A port slot in a [`Meters`] block: one flow-control port's pushes,
/// stalls and peak occupancy (three consecutive counts) and its occupancy
/// histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSlot {
    counts: u32,
    occupancy: u32,
}

/// Offsets of a port slot's counts.
const PUSHES: usize = 0;
const STALLS: usize = 1;
const PEAK: usize = 2;

/// Top bit of a counter's count: set by its first add, even of zero. A
/// counter renders once touched, like a [`Stats`] key does.
const TOUCHED: u64 = 1 << 63;

/// How a name-table entry renders.
#[derive(Debug, Clone, Copy)]
enum Meter {
    Counter(CounterSlot),
    Histogram(HistogramSlot),
    Port(PortSlot),
}

/// The names a component's meters render under, registered while the
/// component is built; [`MetersBuilder::build`] then allocates the
/// [`Meters`] block that holds them, exactly sized.
///
/// Registering returns a slot: [`MetersBuilder::counter`],
/// [`MetersBuilder::histogram`], [`MetersBuilder::port`].
#[derive(Debug, Default)]
pub struct MetersBuilder {
    counts: u32,
    histograms: u32,
    names: Vec<(Cow<'static, str>, Meter)>,
}

impl MetersBuilder {
    /// No meters yet, with room for a typical component's names so that
    /// registering seldom reallocates.
    pub fn new() -> Self {
        Self { names: Vec::with_capacity(16), ..Self::default() }
    }

    /// Registers a counter that renders as `name`.
    pub fn counter(&mut self, name: &'static str) -> CounterSlot {
        let slot = CounterSlot(self.alloc_counts(1));
        self.names.push((Cow::Borrowed(name), Meter::Counter(slot)));
        slot
    }

    /// Registers a histogram that renders as `name`.
    pub fn histogram(&mut self, name: &'static str) -> HistogramSlot {
        let slot = HistogramSlot(self.alloc_histogram());
        self.names.push((Cow::Borrowed(name), Meter::Histogram(slot)));
        slot
    }

    /// Registers a port meter under the port's component-local dotted
    /// `name` (`"noc_out"`, `"r0.east.vc1"`).
    pub fn port(&mut self, name: impl Into<Cow<'static, str>>) -> PortSlot {
        let slot = PortSlot { counts: self.alloc_counts(3), occupancy: self.alloc_histogram() };
        self.names.push((name.into(), Meter::Port(slot)));
        slot
    }

    fn alloc_counts(&mut self, n: u32) -> u32 {
        self.counts += n;
        self.counts - n
    }

    fn alloc_histogram(&mut self) -> u32 {
        self.histograms += 1;
        self.histograms - 1
    }

    /// The block every registered slot indexes, all meters at zero.
    pub fn build(self) -> Meters {
        Meters {
            counts: vec![0; self.counts as usize],
            histograms: vec![Histogram::new(); self.histograms as usize],
            names: self.names,
        }
    }
}

/// One component's counters, histograms and port meters: a `Vec<u64>` of
/// counts and a `Vec<Histogram>`, named by a table filled once, by the
/// [`MetersBuilder`] the component registered its slots with.
///
/// Every event is one indexed add into the block. A component owns its
/// block beside the ports that record into it, so a push such as
/// `self.noc_out.push(pkt, &mut self.meters)` borrows two fields of one
/// component and nothing crosses a component boundary.
///
/// Rendering ([`Meters::stats`], [`Meters::render`]) is the cold path: a
/// counter renders once it has been added to, even when it sums to zero;
/// histograms and ports always render, ports under
/// `{root}.{name}.{pushes,stalls,peak,occupancy}`. The block is saved
/// inside its owner's snapshot section; the names are configuration.
///
/// ```
/// use smappic_sim::{MetersBuilder, MetricsRegistry, Port};
/// let mut names = MetersBuilder::new();
/// let req = names.counter("xbar.req");
/// let mut q = Port::bounded(names.port("m0.req_in"), 2);
/// let mut meters = names.build();
/// q.try_push('a', &mut meters).unwrap();
/// meters.incr(req);
/// assert_eq!(meters.stats().get("xbar.req"), 1);
/// let mut m = MetricsRegistry::new();
/// meters.render("port.fpga0.xbar", &mut m);
/// assert_eq!(m.counter("port.fpga0.xbar.m0.req_in.pushes"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Meters {
    counts: Vec<u64>,
    histograms: Vec<Histogram>,
    names: Vec<(Cow<'static, str>, Meter)>,
}

impl Meters {
    /// Adds `delta` to counter `c`.
    #[inline]
    pub fn add(&mut self, c: CounterSlot, delta: u64) {
        let v = &mut self.counts[c.0 as usize];
        *v = (*v | TOUCHED) + delta;
    }

    /// Adds one to counter `c`.
    #[inline]
    pub fn incr(&mut self, c: CounterSlot) {
        self.add(c, 1);
    }

    /// Counter `c`'s value.
    pub fn get(&self, c: CounterSlot) -> u64 {
        self.counts[c.0 as usize] & !TOUCHED
    }

    /// Records one sample into histogram `h`.
    #[inline]
    pub fn record(&mut self, h: HistogramSlot, value: u64) {
        self.histograms[h.0 as usize].record(value);
    }

    /// Histogram `h`.
    pub fn histogram_of(&self, h: HistogramSlot) -> &Histogram {
        &self.histograms[h.0 as usize]
    }

    /// Counts an accepted push that left port `p` holding `occupancy`
    /// elements.
    #[inline]
    pub(crate) fn port_push(&mut self, p: PortSlot, occupancy: usize) {
        let occ = occupancy as u64;
        let c = &mut self.counts[p.counts as usize..p.counts as usize + 3];
        c[PUSHES] += 1;
        c[PEAK] = c[PEAK].max(occ);
        self.histograms[p.occupancy as usize].record(occ);
    }

    /// Counts a push port `p` rejected.
    #[inline]
    pub(crate) fn port_stall(&mut self, p: PortSlot) {
        self.counts[p.counts as usize + STALLS] += 1;
    }

    /// Raises port `p`'s peak to `occupancy` without sampling it (an
    /// element returned to the head was sampled when first pushed).
    #[inline]
    pub(crate) fn port_refill(&mut self, p: PortSlot, occupancy: usize) {
        let peak = &mut self.counts[p.counts as usize + PEAK];
        *peak = (*peak).max(occupancy as u64);
    }

    /// Pushes port `p` accepted.
    pub fn pushes(&self, p: PortSlot) -> u64 {
        self.counts[p.counts as usize + PUSHES]
    }

    /// Pushes port `p` rejected (back-pressure seen by its producer).
    pub fn stalls(&self, p: PortSlot) -> u64 {
        self.counts[p.counts as usize + STALLS]
    }

    /// Port `p`'s high-watermark occupancy.
    pub fn peak(&self, p: PortSlot) -> u64 {
        self.counts[p.counts as usize + PEAK]
    }

    /// Port `p`'s occupancy histogram: one sample per accepted push, of
    /// the occupancy including the pushed element.
    pub fn occupancy(&self, p: PortSlot) -> &Histogram {
        &self.histograms[p.occupancy as usize]
    }

    /// Adds every touched counter into `s` under its name.
    pub fn add_counters_to(&self, s: &mut Stats) {
        for (name, meter) in &self.names {
            if let Meter::Counter(c) = meter {
                if self.counts[c.0 as usize] != 0 {
                    s.add(name, self.get(*c));
                }
            }
        }
    }

    /// The touched counters, rendered.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        self.add_counters_to(&mut s);
        s
    }

    /// Renders the whole block into `m`: touched counters and histograms
    /// under their own names, ports under `{port_root}.{name}.*`.
    pub fn render(&self, port_root: &str, m: &mut MetricsRegistry) {
        for (name, meter) in &self.names {
            match *meter {
                Meter::Counter(c) => {
                    if self.counts[c.0 as usize] != 0 {
                        m.add_counter(name, self.get(c));
                    }
                }
                Meter::Histogram(h) => m.merge_histogram(name, self.histogram_of(h)),
                Meter::Port(p) => {
                    let base = format!("{port_root}.{name}");
                    m.add_counter(&format!("{base}.pushes"), self.pushes(p));
                    m.add_counter(&format!("{base}.stalls"), self.stalls(p));
                    m.add_counter(&format!("{base}.peak"), self.peak(p));
                    m.merge_histogram(&format!("{base}.occupancy"), self.occupancy(p));
                }
            }
        }
    }
}

/// Declares a component's named meter slots: a struct of
/// [`CounterSlot`]s and [`HistogramSlot`]s whose `register` adds each one
/// to a [`MetersBuilder`] under its name, in declaration order.
///
/// ```
/// smappic_sim::meter_slots! {
///     /// The crossbar's meters.
///     struct XbarMeters {
///         req: counter("xbar.req"),
///         wait: histogram("xbar.wait"),
///     }
/// }
/// let mut names = smappic_sim::MetersBuilder::new();
/// let m = XbarMeters::register(&mut names);
/// let mut meters = names.build();
/// meters.incr(m.req);
/// meters.record(m.wait, 12);
/// assert_eq!(meters.stats().get("xbar.req"), 1);
/// assert_eq!(meters.histogram_of(m.wait).max(), 12);
/// ```
#[macro_export]
macro_rules! meter_slots {
    (
        $(#[$doc:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fdoc:meta])* $field:ident: $kind:ident($label:literal)),* $(,)?
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        $vis struct $name { $($(#[$fdoc])* $field: $crate::meter_slots!(@slot $kind)),* }

        impl $name {
            /// Registers every slot in `meters`, in declaration order.
            $vis fn register(meters: &mut $crate::MetersBuilder) -> Self {
                Self { $($field: meters.$kind($label)),* }
            }
        }
    };
    (@slot counter) => { $crate::CounterSlot };
    (@slot histogram) => { $crate::HistogramSlot };
}

/// A simple sample accumulator with min/max/mean and fixed log2 buckets.
///
/// Used by the latency-probe harness (Fig 7) and memory controller to
/// characterize request latencies.
///
/// ```
/// use smappic_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 110, 250] { h.record(v); }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.min(), 100);
/// assert_eq!(h.max(), 250);
/// assert!((h.mean() - 153.33).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// buckets\[i\] counts samples with floor(log2(v)) == i (v=0 goes to 0).
    buckets: [u64; 64],
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; 64] }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let b = if value == 0 { 0 } else { 63 - value.leading_zeros() as usize };
        self.buckets[b] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn min(&self) -> u64 {
        assert!(self.count > 0, "histogram is empty");
        self.min
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Count of samples whose floor(log2) equals `bucket`.
    pub fn bucket(&self, bucket: usize) -> u64 {
        self.buckets[bucket]
    }

    /// Merges another histogram into this one.
    ///
    /// Counts, sums, and per-bucket tallies add *saturating* — a merge
    /// never wraps, it pins at the type maximum (`u64::MAX` for counts
    /// and buckets, `u128::MAX` for the sum) and therefore never panics.
    /// `min`/`max` take the tighter bound; merging an empty histogram is
    /// a no-op (the empty side's `u64::MAX` min sentinel cannot leak
    /// because `min` is monotone under `min()`). Saturating addition is
    /// commutative and associative, so merge order never changes the
    /// result — the property the cross-stepper metrics comparison
    /// relies on.
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// An *upper bound* on the `p`-th percentile sample.
    ///
    /// Samples are only retained at floor(log2) resolution, so the exact
    /// order statistic is gone; this returns the inclusive upper edge of
    /// the bucket holding the sample of rank `ceil(p/100 · count)`
    /// (rank is clamped to at least 1, `p` to `0.0..=100.0`). Edge
    /// behaviour, explicitly:
    ///
    /// - empty histogram → 0;
    /// - bucket `i` reports edge `2^(i+1) − 1`; bucket 63's edge
    ///   saturates at `u64::MAX` instead of overflowing;
    /// - the result is additionally clamped to [`Histogram::max`], so a
    ///   histogram whose largest sample is 125 reports `p100 = 125`,
    ///   not bucket 6's raw edge 127;
    /// - a value exactly on a bucket edge (a power of two) counts in the
    ///   *higher* bucket — `record(64)` then `percentile(100.0)` is 64
    ///   via the max clamp, but with a larger co-resident sample the
    ///   bound would be 127.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*b);
            if seen >= rank {
                let edge = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)).saturating_sub(1) };
                return edge.min(self.max);
            }
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl SaveState for Meters {
    fn save(&self, w: &mut SnapWriter) {
        let Self { counts, histograms, names: _ } = self; // names: configuration
        w.usize(counts.len());
        for v in counts {
            w.u64(*v);
        }
        w.usize(histograms.len());
        for h in histograms {
            h.save(w);
        }
    }

    fn restore(&mut self, r: &mut SnapReader) {
        if r.usize() != self.counts.len() {
            r.corrupt("meter count does not match this component's configuration");
            return;
        }
        for v in &mut self.counts {
            *v = r.u64();
        }
        if r.usize() != self.histograms.len() {
            r.corrupt("histogram count does not match this component's configuration");
            return;
        }
        for h in &mut self.histograms {
            h.restore(r);
        }
    }
}

impl SaveState for Histogram {
    fn save(&self, w: &mut SnapWriter) {
        let Self { count, sum, min, max, buckets } = self;
        w.u64(*count);
        w.u128(*sum);
        w.u64(*min);
        w.u64(*max);
        for b in buckets {
            w.u64(*b);
        }
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.count = r.u64();
        self.sum = r.u128();
        self.min = r.u64();
        self.max = r.u64();
        for b in &mut self.buckets {
            *b = r.u64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Stats::new();
        a.add("x", 2);
        a.incr("x");
        let mut b = Stats::new();
        b.add("x", 10);
        b.add("y", 1);
        a.merge(&b);
        assert_eq!(a.get("x"), 13);
        assert_eq!(a.get("y"), 1);
    }

    #[test]
    fn stats_display_is_sorted() {
        let mut s = Stats::new();
        s.add("zeta", 1);
        s.add("alpha", 2);
        let out = s.to_string();
        assert!(out.find("alpha").unwrap() < out.find("zeta").unwrap());
    }

    #[test]
    fn histogram_basic_moments() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(10), 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn histogram_min_of_empty_panics() {
        Histogram::new().min();
    }

    #[test]
    fn histogram_merge_sums_moments_and_buckets() {
        let mut a = Histogram::new();
        for v in [4u64, 5, 100] {
            a.record(v);
        }
        let mut b = Histogram::new();
        for v in [1u64, 1000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.sum(), 1110);
        assert_eq!(a.bucket(0), 1); // 1
        assert_eq!(a.bucket(2), 2); // 4, 5
        assert_eq!(a.bucket(6), 1); // 100
        assert_eq!(a.bucket(9), 1); // 1000
    }

    #[test]
    fn histogram_merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before, "merging an empty histogram changed something");
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before, "empty.merge(x) must equal x");
        assert_eq!(e.min(), 42, "empty side's MAX sentinel leaked into min");
    }

    #[test]
    fn histogram_merge_is_order_insensitive() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [7u64, 300] {
            a.record(v);
        }
        for v in [2u64, 9000] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_merge_saturates_instead_of_wrapping() {
        let mut a = Histogram::new();
        a.record(u64::MAX); // bucket 63, sum near u64::MAX (held in u128)
        let mut b = a.clone();
        // Repeated self-merge doubles every tally; 70 doublings would
        // overflow u64 buckets without saturation.
        for _ in 0..70 {
            let snap = b.clone();
            b.merge(&snap);
        }
        assert_eq!(b.count(), u64::MAX, "count must pin at MAX, not wrap");
        assert_eq!(b.bucket(63), u64::MAX, "bucket must pin at MAX, not wrap");
        assert_eq!(b.max(), u64::MAX);
        a.merge(&b); // merging a saturated histogram also must not panic
        assert_eq!(a.count(), u64::MAX);
    }

    #[test]
    fn percentile_empty_and_clamping() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0, "empty histogram reports 0");
        let mut h = Histogram::new();
        h.record(10);
        // Out-of-range p clamps; rank clamps to at least 1.
        assert_eq!(h.percentile(-5.0), 10);
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(h.percentile(250.0), 10);
    }

    #[test]
    fn percentile_reports_bucket_upper_edges() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Rank 50 falls in bucket 5 (32..=63): upper edge 63.
        assert_eq!(h.percentile(50.0), 63);
        // Rank 100 is the max sample: edge 127 clamps to max() = 100.
        assert_eq!(h.percentile(100.0), 100);
        // A lone power-of-two sits on a bucket edge: it counts in the
        // higher bucket but the max clamp keeps the bound tight.
        let mut e = Histogram::new();
        e.record(64);
        assert_eq!(e.percentile(100.0), 64);
        e.record(100);
        assert_eq!(e.percentile(50.0), 100, "co-resident bucket 6 bound clamps to max");
    }

    #[test]
    fn percentile_top_bucket_saturates() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX, "bucket 63 edge must not overflow");
        let mut g = Histogram::new();
        g.record(1u64 << 63);
        assert_eq!(g.percentile(100.0), 1u64 << 63, "clamped to max below the saturated edge");
    }

    /// Two blocks that share every name, as two tiles' caches do.
    fn twin_blocks() -> [(Meters, CounterSlot, HistogramSlot, PortSlot); 2] {
        std::array::from_fn(|_| {
            let mut m = MetersBuilder::new();
            let c = m.counter("bpc.hit");
            let h = m.histogram("bpc.miss_latency");
            let p = m.port("noc_out");
            (m.build(), c, h, p)
        })
    }

    #[test]
    fn same_named_counters_from_several_blocks_sum() {
        let [(mut a, ca, ..), (mut b, cb, ..)] = twin_blocks();
        a.add(ca, 3);
        b.incr(cb);
        let mut s = Stats::new();
        a.add_counters_to(&mut s);
        b.add_counters_to(&mut s);
        assert_eq!(s.get("bpc.hit"), 4);
        let mut m = MetricsRegistry::new();
        a.render("port.a", &mut m);
        b.render("port.b", &mut m);
        assert_eq!(m.counter("bpc.hit"), 4);
    }

    #[test]
    fn same_named_histograms_merge() {
        let [(mut a, _, ha, _), (mut b, _, hb, _)] = twin_blocks();
        a.record(ha, 5);
        b.record(hb, 700);
        let mut m = MetricsRegistry::new();
        a.render("port.a", &mut m);
        b.render("port.b", &mut m);
        let h = m.histogram("bpc.miss_latency").expect("merged histogram");
        assert_eq!((h.count(), h.min(), h.max()), (2, 5, 700));
    }

    #[test]
    fn ports_render_under_their_root_with_four_suffixes() {
        let [(mut a, _, _, p), _] = twin_blocks();
        a.port_push(p, 1);
        a.port_push(p, 2);
        a.port_stall(p);
        let mut m = MetricsRegistry::new();
        a.render("port.node0.tile1.bpc", &mut m);
        assert_eq!(m.counter("port.node0.tile1.bpc.noc_out.pushes"), 2);
        assert_eq!(m.counter("port.node0.tile1.bpc.noc_out.stalls"), 1);
        assert_eq!(m.counter("port.node0.tile1.bpc.noc_out.peak"), 2);
        let h = m.histogram("port.node0.tile1.bpc.noc_out.occupancy").expect("occupancy");
        assert_eq!((h.count(), h.max()), (2, 2));
        assert!(a.stats().iter().all(|(k, _)| !k.contains("noc_out")), "ports stay out of stats");
    }

    #[test]
    fn a_never_touched_counter_is_absent_and_an_added_zero_is_present() {
        let [(mut a, c, h, p), (mut b, cb, ..)] = twin_blocks();
        let mut m = MetricsRegistry::new();
        a.render("port.a", &mut m);
        assert!(!m.snapshot_text().contains("bpc.hit"), "untouched counter rendered");
        // Histograms and ports render even when empty.
        assert_eq!(m.histogram("bpc.miss_latency").map(Histogram::count), Some(0));
        assert_eq!(m.counter("port.a.noc_out.pushes"), 0);
        assert!(m.snapshot_text().contains("port.a.noc_out.peak"));
        // An add of zero creates the line, as `Stats::add` does.
        b.add(cb, 0);
        assert_eq!(b.stats().iter().collect::<Vec<_>>(), vec![("bpc.hit", 0)]);
        a.add(c, 7);
        assert_eq!((a.get(c), a.histogram_of(h).count(), a.pushes(p)), (7, 0, 0));
    }

    #[test]
    fn a_block_round_trips_with_its_touched_flags() {
        use crate::Snapshot;
        let [(mut a, c, h, p), (mut b, ..)] = twin_blocks();
        a.add(c, 0);
        a.record(h, 9);
        a.port_push(p, 3);
        let mut w = SnapWriter::new();
        w.scoped("m", |w| a.save(w));
        let snap = Snapshot::new(0, 0, w);
        let mut r = SnapReader::new(&snap);
        r.scoped("m", |r| b.restore(r));
        r.finish().expect("clean restore");
        assert_eq!(b.stats(), a.stats());
        let (mut ma, mut mb) = (MetricsRegistry::new(), MetricsRegistry::new());
        a.render("port.x", &mut ma);
        b.render("port.x", &mut mb);
        assert_eq!(ma, mb);
    }
}

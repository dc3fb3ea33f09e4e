//! Counters and histograms for instrumentation.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Pack, SaveState, SnapReader, SnapWriter};

/// A named set of monotonically increasing counters.
///
/// Components register events by name; harnesses read them back to print the
/// paper's tables. `BTreeMap` keeps output deterministic and sorted.
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

    /// Removes all counters.
    pub fn clear(&mut self) {
        self.counters.clear();
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

/// Fixed-key counters for per-cycle hot paths.
///
/// [`Stats`] keys counters by string, which costs an `O(log n)` string-keyed
/// map walk per increment — fine for cold events (shell requests, SD blocks),
/// but too slow for counters bumped on every NoC flit or cache access. A
/// `CounterSet` is built once from a *static* key table, pre-interning every
/// key to a dense index so the hot path is a single array add with no
/// allocation and no comparisons. The cold path ([`CounterSet::merge_into`])
/// materializes the counters back into a [`Stats`] under the same names, so
/// harnesses see no difference.
///
/// ```
/// use smappic_sim::{CounterSet, Stats};
/// static KEYS: &[&str] = &["noc.flits", "noc.delivered"];
/// const FLITS: usize = 0;
/// const DELIVERED: usize = 1;
/// let mut c = CounterSet::new(KEYS);
/// c.add(FLITS, 3);
/// c.bump(DELIVERED);
/// assert_eq!(c.get(FLITS), 3);
/// let mut s = Stats::new();
/// c.merge_into(&mut s);
/// assert_eq!(s.get("noc.delivered"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CounterSet {
    keys: &'static [&'static str],
    slots: Box<[u64]>,
}

impl CounterSet {
    /// Creates a counter set over a static key table; one slot per key,
    /// all starting at zero.
    pub fn new(keys: &'static [&'static str]) -> Self {
        Self { keys, slots: vec![0; keys.len()].into_boxed_slice() }
    }

    /// Adds `delta` to the counter at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the key table.
    #[inline]
    pub fn add(&mut self, idx: usize, delta: u64) {
        self.slots[idx] += delta;
    }

    /// Increments the counter at `idx` by one.
    #[inline]
    pub fn bump(&mut self, idx: usize) {
        self.slots[idx] += 1;
    }

    /// Reads the counter at `idx`.
    pub fn get(&self, idx: usize) -> u64 {
        self.slots[idx]
    }

    /// Reads a counter by key name (cold path; linear scan). Returns zero
    /// for unknown names, mirroring [`Stats::get`].
    pub fn get_by_name(&self, name: &str) -> u64 {
        self.keys.iter().position(|k| *k == name).map_or(0, |i| self.slots[i])
    }

    /// The static key table this set was built over.
    pub fn keys(&self) -> &'static [&'static str] {
        self.keys
    }

    /// Adds every *touched* counter into `stats` under its key name.
    /// Untouched (zero) counters are skipped so the merged [`Stats`] looks
    /// exactly like one fed by [`Stats::incr`] calls.
    pub fn merge_into(&self, stats: &mut Stats) {
        for (k, v) in self.keys.iter().zip(self.slots.iter()) {
            if *v != 0 {
                stats.add(k, *v);
            }
        }
    }

    /// Materializes the touched counters as an owned [`Stats`].
    pub fn to_stats(&self) -> Stats {
        let mut s = Stats::new();
        self.merge_into(&mut s);
        s
    }
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

impl SaveState for Stats {
    fn save(&self, w: &mut SnapWriter) {
        // BTreeMap iteration is already sorted, so identical states
        // serialize to identical bytes.
        let Self { counters } = self;
        counters.pack(w);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.counters = BTreeMap::unpack(r);
    }
}

impl SaveState for CounterSet {
    fn save(&self, w: &mut SnapWriter) {
        let Self { keys: _, slots } = self; // keys: the static key table
        w.usize(slots.len());
        for v in slots.iter() {
            w.u64(*v);
        }
    }

    fn restore(&mut self, r: &mut SnapReader) {
        let n = r.usize();
        if n != self.slots.len() {
            r.corrupt("counter-set slot count does not match this build's key table");
            return;
        }
        for v in self.slots.iter_mut() {
            *v = r.u64();
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

    #[test]
    fn counter_set_matches_string_stats() {
        static KEYS: &[&str] = &["a.x", "a.y", "a.z"];
        let mut c = CounterSet::new(KEYS);
        c.bump(0);
        c.add(0, 4);
        c.add(2, 7);
        assert_eq!(c.get(0), 5);
        assert_eq!(c.get_by_name("a.z"), 7);
        assert_eq!(c.get_by_name("missing"), 0);
        // Merging skips untouched keys, like string-keyed Stats would.
        let mut s = Stats::new();
        s.add("a.x", 5);
        s.add("a.z", 7);
        assert_eq!(c.to_stats().to_string(), s.to_string());
    }
}

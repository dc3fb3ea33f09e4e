//! Traffic shaping: the latency + bandwidth performance model SMAPPIC puts in
//! front of everything that leaves the FPGA fabric (§3.5 of the paper).

use std::collections::VecDeque;

use crate::{Cycle, Pack, SaveState, SnapReader, SnapWriter};

/// A combined latency + bandwidth model for an off-chip interface.
///
/// The paper (§3.5): *"we include a traffic shaper with configurable
/// bandwidth and latency in the inter-node bridge and memory controller"*.
///
/// Each item carries a size in bytes. An item becomes visible downstream
/// after (a) waiting for the link to have transmitted all earlier bytes at
/// the configured bandwidth and (b) the fixed latency. Bandwidth is expressed
/// as bytes per cycle in fixed-point (numerator/denominator) so sub-byte-per-
/// cycle rates (slow serial links) are representable exactly.
///
/// ```
/// use smappic_sim::TrafficShaper;
/// // 8 bytes/cycle, 10-cycle latency.
/// let mut s = TrafficShaper::new(8, 1, 10);
/// s.push(0, 64, "pkt0"); // 64 bytes: 8 cycles of serialization
/// assert_eq!(s.pop_ready(17), None);
/// assert_eq!(s.pop_ready(18), Some("pkt0"));
/// ```
#[derive(Debug, Clone)]
pub struct TrafficShaper<T> {
    /// Bandwidth = `bytes_per_cycle_num / bytes_per_cycle_den` bytes/cycle.
    bw_num: u64,
    bw_den: u64,
    latency: Cycle,
    /// Cycle at which the link becomes free to start serializing a new item,
    /// scaled by `bw_num` to stay in integers (units: cycle × bw_num).
    link_free_scaled: u128,
    inflight: VecDeque<(Cycle, T)>,
    bytes_sent: u64,
}

impl<T> TrafficShaper<T> {
    /// Creates a shaper with bandwidth `bw_num / bw_den` bytes per cycle and
    /// a fixed `latency` in cycles.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth component is zero.
    pub fn new(bw_num: u64, bw_den: u64, latency: Cycle) -> Self {
        assert!(bw_num > 0 && bw_den > 0, "bandwidth must be positive");
        Self {
            bw_num,
            bw_den,
            latency,
            link_free_scaled: 0,
            inflight: VecDeque::new(),
            bytes_sent: 0,
        }
    }

    /// A shaper that only applies latency (infinite bandwidth).
    pub fn latency_only(latency: Cycle) -> Self {
        Self::new(u64::MAX / 2, 1, latency)
    }

    /// Submits an item of `bytes` size at cycle `now`; returns the cycle at
    /// which it will be visible downstream.
    pub fn push(&mut self, now: Cycle, bytes: u64, item: T) -> Cycle {
        // Serialization starts when both the item has arrived and the link
        // has drained all earlier items.
        let now_scaled = u128::from(now) * u128::from(self.bw_num);
        let start = self.link_free_scaled.max(now_scaled);
        // Time to put `bytes` on the link: bytes / (num/den) = bytes*den/num
        // cycles, i.e. bytes*den in scaled units.
        let tx = u128::from(bytes) * u128::from(self.bw_den);
        self.link_free_scaled = start + tx;
        // Visible once fully serialized plus propagation latency. Floor
        // division: an item finishing mid-cycle is visible at that cycle,
        // which also makes `latency_only` exactly match a `DelayPort`.
        let done = self.link_free_scaled / u128::from(self.bw_num);
        let ready = done as Cycle + self.latency;
        self.bytes_sent += bytes;
        // Ordering is guaranteed because link_free_scaled is monotone.
        self.inflight.push_back((ready, item));
        ready
    }

    /// Removes and returns the oldest item whose delivery time has arrived.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.inflight.front().is_some_and(|(ready, _)| *ready <= now) {
            self.inflight.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Removes the oldest item maturing strictly before `horizon`, returning
    /// it with its delivery cycle.
    ///
    /// This is the epoch-extraction primitive of the parallel stepper: at an
    /// epoch barrier the platform pulls every item that will arrive inside
    /// the next epoch out of the link (with its exact timestamp) so a worker
    /// thread can replay the deliveries cycle-accurately without touching
    /// shared link state.
    pub fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, T)> {
        if self.inflight.front().is_some_and(|(ready, _)| *ready < horizon) {
            self.inflight.pop_front()
        } else {
            None
        }
    }

    /// Returns the oldest ready item without removing it.
    pub fn peek_ready(&self, now: Cycle) -> Option<&T> {
        self.inflight.front().filter(|(ready, _)| *ready <= now).map(|(_, item)| item)
    }

    /// Items currently in flight.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Delivery time of the oldest in-flight item, if any (diagnostics).
    pub fn front_ready_at(&self) -> Option<Cycle> {
        self.inflight.front().map(|(r, _)| *r)
    }

    /// The next cycle strictly after `now` at which a pop could newly
    /// succeed, or [`None`] when nothing is in flight.
    ///
    /// This is the shaper's contribution to the platform's idle-skip scan:
    /// between `now` and the returned cycle the shaper emits nothing, so a
    /// quiescent simulation may warp straight there.
    pub fn next_event_after(&self, now: Cycle) -> Option<Cycle> {
        self.front_ready_at().map(|r| r.max(now + 1))
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Total bytes ever submitted; used by harnesses to report link usage.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// The fixed latency component in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }
}

impl<T: Pack> SaveState for TrafficShaper<T> {
    fn save(&self, w: &mut SnapWriter) {
        // Bandwidth and latency are configuration; the link's drain point,
        // in-flight items (with exact delivery cycles), and byte counter
        // are the mutable state.
        w.u128(self.link_free_scaled);
        w.u64(self.bytes_sent);
        w.usize(self.inflight.len());
        for (ready, item) in &self.inflight {
            w.u64(*ready);
            item.pack(w);
        }
    }

    fn restore(&mut self, r: &mut SnapReader) {
        self.link_free_scaled = r.u128();
        self.bytes_sent = r.u64();
        self.inflight.clear();
        let n = r.usize();
        for _ in 0..n {
            if !r.ok() {
                break;
            }
            let ready = r.u64();
            let item = T::unpack(r);
            self.inflight.push_back((ready, item));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_only_shaper_behaves_like_delay_line() {
        let mut s = TrafficShaper::latency_only(5);
        s.push(10, 1_000_000, 'a');
        assert_eq!(s.pop_ready(14), None);
        assert_eq!(s.pop_ready(15), Some('a'));
    }

    #[test]
    fn bandwidth_serializes_back_to_back_items() {
        // 1 byte/cycle, zero latency: two 10-byte packets pushed together
        // arrive at t=10 and t=20.
        let mut s = TrafficShaper::new(1, 1, 0);
        s.push(0, 10, 1);
        s.push(0, 10, 2);
        assert_eq!(s.pop_ready(9), None);
        assert_eq!(s.pop_ready(10), Some(1));
        assert_eq!(s.pop_ready(19), None);
        assert_eq!(s.pop_ready(20), Some(2));
    }

    #[test]
    fn fractional_bandwidth() {
        // 1/4 byte per cycle: a 2-byte item takes 8 cycles.
        let mut s = TrafficShaper::new(1, 4, 0);
        let ready = s.push(0, 2, ());
        assert_eq!(ready, 8);
    }

    #[test]
    fn idle_link_does_not_accumulate_credit() {
        let mut s = TrafficShaper::new(1, 1, 0);
        s.push(0, 4, 1);
        // Link idle from t=4..100; a push at t=100 starts then, not earlier.
        let ready = s.push(100, 4, 2);
        assert_eq!(ready, 104);
    }

    #[test]
    fn reports_bytes_sent() {
        let mut s = TrafficShaper::new(8, 1, 1);
        s.push(0, 64, ());
        s.push(0, 32, ());
        assert_eq!(s.bytes_sent(), 96);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        let _ = TrafficShaper::<()>::new(0, 1, 0);
    }
}

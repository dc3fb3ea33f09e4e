//! Deterministic pseudo-random number generation for reproducible runs.

/// A small, fast, deterministic RNG (xorshift64\*).
///
/// The whole platform must be reproducible bit-for-bit from a seed so that
/// tests and benchmark harnesses regenerate identical figures. This RNG is
/// not cryptographic; it exists purely to drive workload generators and
/// arbitration tie-breaking.
///
/// ```
/// use smappic_sim::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates an RNG from a seed. A zero seed is remapped to a fixed
    /// non-zero constant because xorshift has an all-zero fixed point.
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed };
        Self { state }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna 2016)
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        // Multiply-shift bounded generation (Lemire); bias is negligible for
        // simulation purposes and determinism is what matters.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a pseudo-random `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Derives an independent child RNG; useful for giving each component
    /// its own stream without correlating them.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() | 1)
    }
}

impl Default for SimRng {
    fn default() -> Self {
        Self::new(0xC0FF_EE11)
    }
}

impl crate::SaveState for SimRng {
    fn save(&self, w: &mut crate::SnapWriter) {
        let Self { state } = self;
        w.u64(*state);
    }

    fn restore(&mut self, r: &mut crate::SnapReader) {
        let s = r.u64();
        if s == 0 {
            r.corrupt("RNG state cannot be zero (xorshift fixed point)");
        }
        self.state = if s == 0 { 0x9E37_79B9_7F4A_7C15 } else { s };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SimRng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            assert!(r.gen_range(17) < 17);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn gen_range_zero_bound_panics() {
        SimRng::new(1).gen_range(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut r = SimRng::new(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50-element shuffle should move something");
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = SimRng::new(21);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}

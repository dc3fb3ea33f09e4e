//! The Gaussian Noise Generator accelerator (§4.2 of the paper).

use smappic_sim::{Cycle, Ring, SaveState, SnapReader, SnapWriter};
use smappic_tile::{Engine, MmioResp, Tri};

/// Byte offset of the sample-fetch register within the GNG's MMIO window.
/// Reading 2/4/8 bytes returns 1/2/4 packed 16-bit samples.
pub const GNG_FETCH_OFFSET: u64 = 0x0;

/// The combined Tausworthe uniform generator the GNG is built on
/// (Tausworthe 1965; the OpenCores GNG uses the same three-stage
/// construction from L'Ecuyer's taus88).
///
/// ```
/// use smappic_accel::Tausworthe;
/// let mut a = Tausworthe::new(1);
/// let mut b = Tausworthe::new(1);
/// assert_eq!(a.next_u32(), b.next_u32());
/// ```
#[derive(Debug, Clone)]
pub struct Tausworthe {
    s: [u32; 3],
}

impl Tausworthe {
    /// Seeds the generator; state words are forced above the taus88
    /// minimums so the recurrence never degenerates.
    pub fn new(seed: u32) -> Self {
        let mut x = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        let mut word = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let s = [word() | 0x100, word() | 0x1000, word() | 0x10000];
        Self { s }
    }

    /// The next 32 uniform bits.
    pub fn next_u32(&mut self) -> u32 {
        // taus88 component steps.
        let b0 = ((self.s[0] << 13) ^ self.s[0]) >> 19;
        self.s[0] = ((self.s[0] & 0xFFFF_FFFE) << 12) ^ b0;
        let b1 = ((self.s[1] << 2) ^ self.s[1]) >> 25;
        self.s[1] = ((self.s[1] & 0xFFFF_FFF8) << 4) ^ b1;
        let b2 = ((self.s[2] << 3) ^ self.s[2]) >> 11;
        self.s[2] = ((self.s[2] & 0xFFFF_FFF0) << 17) ^ b2;
        self.s[0] ^ self.s[1] ^ self.s[2]
    }
}

/// Generates one 16-bit Gaussian sample via the central-limit construction
/// (sum of 12 uniform bytes, recentred): integer-only, matching what the
/// hardware pipeline produces per cycle.
fn gaussian_sample(rng: &mut Tausworthe) -> i16 {
    // Three u32 draws provide 12 uniform bytes; their sum is ~N(1530, σ≈256).
    let mut sum: i32 = 0;
    for _ in 0..3 {
        let w = rng.next_u32();
        sum += (w & 0xFF) as i32
            + ((w >> 8) & 0xFF) as i32
            + ((w >> 16) & 0xFF) as i32
            + ((w >> 24) & 0xFF) as i32;
    }
    // Centre on zero. Mean of 12 bytes is 12*127.5 = 1530.
    (sum - 1530) as i16
}

/// Software reference: `n` samples from the same construction (used by the
/// benchmark harness to validate the hardware path and as the "SW" mode's
/// golden output).
pub fn gng_reference(seed: u32, n: usize) -> Vec<i16> {
    let mut rng = Tausworthe::new(seed);
    (0..n).map(|_| gaussian_sample(&mut rng)).collect()
}

/// The GNG accelerator engine.
///
/// Occupies a tile (tile 1 in the paper's 1x1x2 prototype); cores fetch
/// samples with non-cacheable loads of 2, 4, or 8 bytes, receiving 1, 2,
/// or 4 packed samples — the base and optimized integration schemes of
/// §4.2. An internal FIFO refills at a fixed rate; an empty FIFO makes the
/// fetch wait, modeling the generator's real throughput.
#[derive(Debug)]
pub struct Gng {
    rng: Tausworthe,
    fifo: Ring<i16>,
    capacity: usize,
    samples_per_cycle: u32,
    produced: u64,
    fetched: u64,
}

impl Gng {
    /// Creates a GNG with the given seed (FIFO of 32 samples, 2 samples
    /// generated per cycle).
    pub fn new(seed: u32) -> Self {
        Self {
            rng: Tausworthe::new(seed),
            fifo: Ring::new(),
            capacity: 32,
            samples_per_cycle: 2,
            produced: 0,
            fetched: 0,
        }
    }

    /// Total samples handed to consumers.
    pub fn samples_fetched(&self) -> u64 {
        self.fetched
    }

    /// Total samples generated.
    pub fn samples_produced(&self) -> u64 {
        self.produced
    }
}

impl SaveState for Gng {
    fn save(&self, w: &mut SnapWriter) {
        // capacity and samples_per_cycle are configuration.
        let Self { rng, fifo, capacity: _, samples_per_cycle: _, produced, fetched } = self;
        for s in &rng.s {
            w.u32(*s);
        }
        fifo.save(w);
        w.u64(*produced);
        w.u64(*fetched);
    }

    fn restore(&mut self, r: &mut SnapReader) {
        for s in &mut self.rng.s {
            *s = r.u32();
        }
        self.fifo.restore(r);
        if self.fifo.len() > self.capacity {
            r.corrupt("GNG FIFO deeper than its configured capacity");
        }
        self.produced = r.u64();
        self.fetched = r.u64();
    }
}

impl Engine for Gng {
    fn tick(&mut self, _now: Cycle, _tri: &mut dyn Tri) {
        for _ in 0..self.samples_per_cycle {
            if self.fifo.len() >= self.capacity {
                break;
            }
            self.fifo.push_back(gaussian_sample(&mut self.rng));
            self.produced += 1;
        }
    }

    fn mmio(&mut self, _now: Cycle, store: bool, _addr: u64, size: u8, _data: u64) -> MmioResp {
        if store {
            // Writes are configuration no-ops in this generator.
            return MmioResp::Ack;
        }
        let wanted = usize::from(size / 2).max(1);
        if self.fifo.len() < wanted {
            return MmioResp::Pending;
        }
        let mut packed: u64 = 0;
        for i in 0..wanted {
            let s = self.fifo.pop_front().expect("len checked") as u16;
            packed |= u64::from(s) << (16 * i);
        }
        self.fetched += wanted as u64;
        MmioResp::Data(packed)
    }

    fn label(&self) -> &str {
        "gng"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoTri;
    impl Tri for NoTri {
        fn try_request(
            &mut self,
            _now: Cycle,
            req: smappic_coherence::CoreReq,
        ) -> Result<(), smappic_coherence::CoreReq> {
            Err(req)
        }
        fn pop_resp(&mut self) -> Option<smappic_coherence::CoreResp> {
            None
        }
    }

    #[test]
    fn tausworthe_is_deterministic_and_nondegenerate() {
        let mut t = Tausworthe::new(7);
        let first: Vec<u32> = (0..100).map(|_| t.next_u32()).collect();
        let mut t2 = Tausworthe::new(7);
        let second: Vec<u32> = (0..100).map(|_| t2.next_u32()).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&v| v != first[0]), "stream must vary");
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let samples = gng_reference(3, 100_000);
        let mean: f64 = samples.iter().map(|&s| f64::from(s)).sum::<f64>() / samples.len() as f64;
        let var: f64 = samples.iter().map(|&s| (f64::from(s) - mean).powi(2)).sum::<f64>()
            / samples.len() as f64;
        let sd = var.sqrt();
        assert!(mean.abs() < 3.0, "mean {mean} too far from 0");
        // 12-uniform-byte CLT: σ = sqrt(12 * (256²-1)/12) ≈ 256.
        assert!((sd - 256.0).abs() < 10.0, "σ {sd} should be ≈256");
        // Roughly symmetric tails.
        let pos = samples.iter().filter(|&&s| s > 0).count();
        let frac = pos as f64 / samples.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "positive fraction {frac}");
    }

    #[test]
    fn fetch_sizes_return_packed_samples() {
        let mut g = Gng::new(1);
        let mut tri = NoTri;
        for now in 0..32 {
            g.tick(now, &mut tri);
        }
        let expected = gng_reference(1, 7);
        // One sample (2 bytes).
        let MmioResp::Data(d1) = g.mmio(100, false, 0, 2, 0) else { panic!("ready") };
        assert_eq!(d1 as u16, expected[0] as u16);
        // Two samples (4 bytes).
        let MmioResp::Data(d2) = g.mmio(100, false, 0, 4, 0) else { panic!("ready") };
        assert_eq!(d2 as u16, expected[1] as u16);
        assert_eq!((d2 >> 16) as u16, expected[2] as u16);
        // Four samples (8 bytes).
        let MmioResp::Data(d4) = g.mmio(100, false, 0, 8, 0) else { panic!("ready") };
        for i in 0..4 {
            assert_eq!((d4 >> (16 * i)) as u16, expected[3 + i] as u16);
        }
        assert_eq!(g.samples_fetched(), 7);
    }

    #[test]
    fn empty_fifo_reports_pending() {
        let mut g = Gng::new(1);
        assert_eq!(g.mmio(0, false, 0, 8, 0), MmioResp::Pending);
        let mut tri = NoTri;
        g.tick(0, &mut tri);
        assert!(matches!(g.mmio(1, false, 0, 2, 0), MmioResp::Data(_)));
    }

    #[test]
    fn snapshot_round_trip_preserves_the_sample_stream() {
        use smappic_sim::Snapshot;

        let mut g = Gng::new(9);
        let mut tri = NoTri;
        for now in 0..10 {
            g.tick(now, &mut tri);
        }
        // Drain a few samples so the FIFO is mid-stream.
        let _ = g.mmio(10, false, 0, 8, 0);

        let mut w = SnapWriter::new();
        w.scoped("gng", |w| g.save(w));
        let snap = Snapshot::new(1, 10, w);

        let mut g2 = Gng::new(0); // different seed: state must come from the snapshot
        let mut r = SnapReader::new(&snap);
        r.scoped("gng", |r| g2.restore(r));
        r.finish().expect("clean restore");

        assert_eq!(g2.samples_fetched(), g.samples_fetched());
        assert_eq!(g2.samples_produced(), g.samples_produced());
        // Both generators must now produce identical futures.
        for now in 10..40 {
            g.tick(now, &mut tri);
            g2.tick(now, &mut tri);
        }
        let MmioResp::Data(a) = g.mmio(40, false, 0, 8, 0) else { panic!("ready") };
        let MmioResp::Data(b) = g2.mmio(40, false, 0, 8, 0) else { panic!("ready") };
        assert_eq!(a, b, "restored RNG and FIFO must continue the same stream");
    }

    #[test]
    fn fifo_refills_up_to_capacity() {
        let mut g = Gng::new(2);
        let mut tri = NoTri;
        for now in 0..1_000 {
            g.tick(now, &mut tri);
        }
        assert_eq!(g.samples_produced(), 32, "bounded by FIFO capacity");
    }
}

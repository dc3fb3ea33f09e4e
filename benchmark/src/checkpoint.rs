//! Checkpoint rounds: compressed save, restore into a fresh platform, a
//! short resumed run, and the delta a preemption park would take.
//!
//! The checkpoint workload spends its whole window here; every other
//! workload runs a couple of rounds on each repetition's end state, so the
//! checkpoint metrics exist for every platform shape the benchmark has
//! and are sampled across the whole run, not in one burst.

use std::time::Instant;

use smappic_core::Platform;
use smappic_service::digest_platform;
use smappic_sim::{read_stream, CountingSink, StreamSink};

use crate::stat::best;
use crate::trace::Tracer;
use crate::Outcome;

/// Cycles a restored platform runs before its delta is taken: one
/// scheduler-quantum-sized slice of progress between parks.
pub const SEGMENT: u64 = 5_000;

/// A chain of checkpoint rounds and what they measured.
///
/// Each round saves the chain's current platform (at first the
/// reference, which is never restored and so stays the uninterrupted
/// run), restores the image into a fresh platform, resumes that for
/// [`SEGMENT`] cycles and takes its delta; the restored platform is the
/// next round's source. After every round the chain's digest must equal
/// the reference's.
#[derive(Debug, Default)]
pub struct Chain {
    source: Option<Platform>,
    image: Vec<u8>,
    pub save_s: Vec<f64>,
    pub restore_s: Vec<f64>,
    pub delta_s: Vec<f64>,
    /// Host seconds of the resumed segments under `run` / `run_parallel`.
    pub serial_segment_s: Vec<f64>,
    pub parallel_segment_s: Vec<f64>,
    /// Sizes of the first round's image and delta.
    pub raw_bytes: u64,
    pub stored_bytes: u64,
    pub sections: u64,
    pub delta_bytes: u64,
}

impl Chain {
    /// Starts a new chain: the next round saves the reference again.
    pub fn restart(&mut self) {
        self.source = None;
    }

    /// One round against `reference`; `fresh` builds an identical, not yet
    /// run platform to restore into, and `parallel` resumes it under
    /// `run_parallel` (a resumed run may switch steppers). With tracing on
    /// the round also takes the save and restore paths apart (`snap.walk`,
    /// `snap.save_raw`, `snap.restore_decode`, `snap.restore_apply`).
    pub fn round(
        &mut self,
        reference: &mut Platform,
        fresh: &mut dyn FnMut(&mut Tracer) -> Platform,
        parallel: bool,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) {
        let first = self.save_s.is_empty();
        let source: &Platform = self.source.as_ref().unwrap_or(&*reference);

        if tr.enabled() {
            let mut walk = CountingSink::new();
            tr.scope("snap.walk", || source.snapshot_to(&mut walk)).expect("counting walk");
            let mut raw = StreamSink::new(Vec::new(), false);
            tr.scope("snap.save_raw", || source.snapshot_to(&mut raw)).expect("raw stream");
        }

        self.image.clear();
        let mut sink = StreamSink::new(&mut self.image, true);
        let open = tr.begin("snap.save");
        let t = Instant::now();
        source.snapshot_to(&mut sink).expect("stream to memory cannot fail");
        self.save_s.push(t.elapsed().as_secs_f64());
        tr.end(open);
        if first {
            self.raw_bytes = sink.raw_bytes();
            self.stored_bytes = sink.stored_bytes();
        }

        let mut next = fresh(tr);
        let open = tr.begin("snap.restore");
        let t = Instant::now();
        let restored = next.restore_from(&self.image[..]);
        self.restore_s.push(t.elapsed().as_secs_f64());
        tr.end(open);

        let base = tr.scope("snap.restore_decode", || read_stream(&self.image[..]));
        let base = base.expect("a stream just written reads back");
        if first {
            self.sections = base.sections().len() as u64;
        }
        if tr.enabled() {
            tr.scope("snap.restore_apply", || next.restore(&base)).expect("same-config restore");
        }

        let open = tr.begin(if parallel { "core.run_parallel" } else { "core.run" });
        let t = Instant::now();
        if parallel {
            next.run_parallel(SEGMENT);
            self.parallel_segment_s.push(t.elapsed().as_secs_f64());
        } else {
            next.run(SEGMENT);
            self.serial_segment_s.push(t.elapsed().as_secs_f64());
        }
        tr.end(open);
        reference.run(SEGMENT);

        let open = tr.begin("snap.delta");
        let t = Instant::now();
        let delta = next.snapshot_delta(&base);
        self.delta_s.push(t.elapsed().as_secs_f64());
        tr.end(open);
        if first {
            self.delta_bytes = delta.as_ref().map_or(0, |d| d.payload_bytes() as u64);
        }

        let same =
            tr.scope("core.stats_collect", || digest_platform(&next) == digest_platform(reference));
        if let Some(e) = restored.err().or(delta.err()) {
            println!("checkpoint round at cycle {}: {e}", reference.now());
            out.check(false);
        } else {
            if !same {
                println!(
                    "MISMATCH checkpoint: the restored chain at cycle {} diverged from the \
                     uninterrupted run at cycle {}",
                    next.now(),
                    reference.now()
                );
            }
            out.check(same);
        }
        self.source = Some(next);
    }

    /// The four checkpoint metrics a user sees, from the fastest rounds.
    pub fn end_to_end(&self, out: &mut Outcome) {
        let raw_mb = self.raw_bytes as f64 / 1e6;
        out.set("snap_save_mbps", raw_mb / best(&self.save_s));
        out.set("snap_restore_mbps", raw_mb / best(&self.restore_s));
        out.set("snap_delta_ms", best(&self.delta_s) * 1e3);
        out.set("snap_stored_ratio", self.stored_bytes as f64 / self.raw_bytes as f64);
    }

    /// Sizes, and the save path taken apart from the traced rounds: the
    /// counting walk (walk and state digest, nothing stored), what framing
    /// and storing the raw stream adds to it, and what compressing adds to
    /// that; the three sum to the compressed save.
    pub fn layer_metrics(&self, tr: &Tracer, out: &mut Outcome) {
        out.set("snap.raw_bytes", self.raw_bytes as f64);
        out.set("snap.stored_bytes", self.stored_bytes as f64);
        out.set("snap.sections", self.sections as f64);
        out.set("snap.delta_bytes", self.delta_bytes as f64);
        let ms = |name: &str| best(&tr.durations(name)) * 1e3;
        out.set("snap.walk_ms", ms("snap.walk"));
        out.set("snap.encode_ms", ms("snap.save_raw") - ms("snap.walk"));
        out.set("snap.compress_ms", ms("snap.save") - ms("snap.save_raw"));
        out.set("snap.restore_decode_ms", ms("snap.restore_decode"));
        out.set("snap.restore_apply_ms", ms("snap.restore_apply"));
    }
}

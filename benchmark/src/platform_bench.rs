//! The five platform workloads: one prototype under `Platform::run` and
//! `Platform::run_parallel`, checked against the per-cycle reference.

use std::time::Instant;

use smappic_core::Platform;
use smappic_service::digest_platform;
use smappic_tile::ArianeCore;

use crate::checkpoint::Chain;
use crate::programs::{Install, Shape};
use crate::stat::{best, best_window, median, percentile};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

/// `Platform::preemption_grain()` of the two fabrics: nine 62-cycle PCIe
/// epochs, two 300-cycle Ethernet spine epochs. A run cut only at
/// multiples of it has the epoch schedule of an uncut run.
const PCIE_GRAIN: u64 = 558;
const ETH_GRAIN: u64 = 600;
/// Timed parts of one repetition. Each part is timed on its own and a
/// window's time is its parts' fastest repetitions summed, so host noise
/// has to cover one part of every repetition to move the result.
const PARTS: usize = 8;

/// Simulated cycles of one timed part: a whole number of grains, sized so
/// a repetition of [`PARTS`] parts takes a quarter to half a host second
/// under `run` here - cache warm-up is under 1% of it, and a run holds
/// a dozen or more repetitions.
fn part_cycles(shape: Shape, opts: &Opts) -> u64 {
    let (grains, grain) = match shape {
        Shape::AmoSaturated | Shape::ArianeAlu | Shape::ArianeMemwalk => (135, PCIE_GRAIN),
        Shape::BurstySleep => (270, PCIE_GRAIN),
        Shape::RackEth16 | Shape::CkptRack16 => (63, ETH_GRAIN),
    };
    opts.scaled(grains) * grain
}

/// Cycles of the untimed three-way equivalence check.
const GATE_WINDOW: u64 = 300_000;
/// Checkpoint rounds on the end state of every repetition.
const ROUNDS_PER_REP: usize = 2;

/// Everything that must agree between steppers, as comparable text.
fn observe(p: &Platform) -> String {
    format!("cycle {}\n{}\n{}", p.now(), p.stats(), p.metrics().architectural().snapshot_text())
}

/// Compares two observations; on a mismatch prints the first differing
/// line and returns false.
fn same_observation(what: &str, a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let (mut la, mut lb) = (a.lines(), b.lines());
    let mut n = 0;
    loop {
        n += 1;
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => {
                println!(
                    "MISMATCH {what}: first differing line {n}:\n  left:  {}\n  right: {}",
                    x.unwrap_or("<end>"),
                    y.unwrap_or("<end>")
                );
                return false;
            }
        }
    }
}

/// Runs `cycles` in `preemption_grain()` slices, one span per slice.
fn run_sliced(p: &mut Platform, cycles: u64, tr: &mut Tracer) {
    let grain = p.preemption_grain();
    let mut left = cycles;
    while left > 0 {
        let step = grain.min(left);
        tr.scope("core.slice", || p.run(step));
        left -= step;
    }
}

/// Runs [`PARTS`] parts of `part` cycles under one stepper, pushing each
/// part's host seconds onto `secs`.
fn run_parts(p: &mut Platform, part: u64, parallel: bool, secs: &mut Vec<f64>) {
    for _ in 0..PARTS {
        let t = Instant::now();
        if parallel {
            p.run_parallel(part);
        } else {
            p.run(part);
        }
        secs.push(t.elapsed().as_secs_f64());
    }
}

/// Exact simulated counts at the end of a window, read from outside.
pub fn layer_counts(p: &Platform, cycles: u64, out: &mut Outcome) {
    let stats = p.stats();
    let all = p.metrics();
    let arch = all.architectural();
    let perf = p.host_perf();
    let cfg = p.config();

    let blocks = perf.block_cache_hits + perf.block_cache_misses;
    out.set("isa.blocks_dispatched", blocks as f64);
    out.set("isa.block_hit_rate", perf.block_cache_hit_rate());
    let mut loads = 0u64;
    let mut pages = 0usize;
    for n in 0..cfg.total_nodes() {
        let node = p.node(n);
        pages += node.chipset().memctl().dram().resident_pages();
        for t in 0..node.tile_count() {
            if let Some(core) = node.tile(t as u16).engine().as_any().downcast_ref::<ArianeCore>() {
                loads += core.retired_loads();
            }
        }
    }
    out.set("isa.retired_loads", loads as f64);
    out.set("tile.skipped_cycles", perf.skipped_tile_cycles as f64);
    let tile_cycles = cycles * cfg.total_tiles() as u64;
    out.set("tile.skip_share", perf.skipped_tile_cycles as f64 / tile_cycles.max(1) as f64);
    out.set("core.skipped_chipset_cycles", perf.skipped_chipset_cycles as f64);

    for key in [
        "bpc.hit",
        "bpc.miss",
        "bpc.amo",
        "llc.hit",
        "llc.miss",
        "llc.amo",
        "noc.flits",
        "noc.injected",
        "memctl.rd",
        "memctl.wr",
        "dram.req",
        "xbar.req",
        "shell.out_req",
        "bridge.sent",
        "eth.frames",
        "eth.bytes",
    ] {
        out.set(key, stats.get(key) as f64);
    }
    out.set("dram.resident_pages", pages as f64);
    for (metric, histogram) in [
        ("bpc.miss_latency_mean", "bpc.miss_latency"),
        ("llc.miss_latency_mean", "llc.miss_latency"),
        ("noc.hops_mean", "noc.hops"),
        ("pcie.rtt_mean", "pcie.rtt"),
    ] {
        out.set(metric, arch.histogram(histogram).map_or(0.0, |h| h.mean()));
    }
    let (mut pushes, mut stalls, mut active) = (0u64, 0u64, 0u64);
    for (k, v) in arch.counters().iter() {
        let Some(port) = k.strip_prefix("port.") else { continue };
        if port.ends_with(".pushes") {
            pushes += v;
        } else if port.ends_with(".stalls") {
            stalls += v;
        } else if port.ends_with(".peak") && v > 0 {
            active += 1;
        }
    }
    out.set("port.pushes", pushes as f64);
    out.set("port.stalls", stalls as f64);
    out.set("port.active", active as f64);
    let epochs = all.histogram("host.epoch_width");
    out.set("core.epochs", epochs.map_or(0.0, |h| h.count() as f64));
    out.set("core.epoch_width_mean", epochs.map_or(0.0, |h| h.mean()));
}

/// The untimed correctness gate: reference, fast-serial and parallel must
/// agree on cycle count, statistics and architectural metrics.
fn gate(install: &Install, cycles: u64, tr: &mut Tracer, out: &mut Outcome) {
    let mut reference = install.platform(tr);
    reference.set_fast_path(false);
    let mut fast = install.platform(tr);
    let mut parallel = install.platform(tr);
    tr.scope("gate.reference", || reference.run(cycles));
    tr.scope("gate.fast", || fast.run(cycles));
    tr.scope("gate.parallel", || parallel.run_parallel(cycles));
    let want = observe(&fast);
    out.check(same_observation("fast-serial vs reference", &want, &observe(&reference)));
    out.check(same_observation("fast-serial vs parallel", &want, &observe(&parallel)));
}

pub fn run(shape: Shape, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(opts.trace);
    let part = part_cycles(shape, opts);
    let cycles = part * PARTS as u64;
    let install = Install::generate(shape, opts.seed, cycles);

    gate(&install, opts.scaled(GATE_WINDOW), &mut tr, &mut out);

    let mut setup_s = Vec::new();
    let mut build = |tr: &mut Tracer| {
        let t = Instant::now();
        let p = install.platform(tr);
        setup_s.push(t.elapsed().as_secs_f64());
        p
    };

    let mut fresh = |tr: &mut Tracer| install.platform(tr);
    let mut ckpt = Chain::default();

    let (mut serial_s, mut parallel_s, mut sliced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_digest = None;
    let started = Instant::now();
    let mut rep = 0u32;
    // Whole repetitions only, each on a fresh platform, so every one is
    // the same computation and must end in the same state.
    while rep < opts.min_reps() || started.elapsed().as_secs_f64() < opts.seconds {
        rep += 1;
        tr.rep = rep;

        let mut p = build(&mut tr);
        assert_eq!(part % p.preemption_grain(), 0, "parts are whole grains");
        tr.scope("core.run", || run_parts(&mut p, part, false, &mut serial_s));
        let digest = tr.scope("core.stats_collect", || digest_platform(&p));
        let want = *first_digest.get_or_insert(digest);
        out.check(digest == want && p.now() == cycles);
        if rep == 1 && opts.trace {
            layer_counts(&p, cycles, &mut out);
        }

        // The parallel stepper runs only in traced runs: two worker
        // threads on two cores leave its speed to the OS scheduler (and
        // slow the serial repetitions after them), so it is a per-layer
        // number, while the gate above holds serial == parallel always.
        if opts.trace {
            let mut q = build(&mut tr);
            tr.scope("core.run_parallel", || run_parts(&mut q, part, true, &mut parallel_s));
            let same = tr.scope("core.stats_collect", || digest_platform(&q) == want);
            if !same {
                same_observation("serial vs parallel repetition", &observe(&p), &observe(&q));
            }
            out.check(same);
            drop(q);

            let mut s = build(&mut tr);
            let open = tr.begin("core.run_sliced");
            let t = Instant::now();
            run_sliced(&mut s, cycles, &mut tr);
            sliced_s.push(t.elapsed().as_secs_f64());
            tr.end(open);
            out.check(digest_platform(&s) == want);
        }

        // Checkpoint this repetition's end state: the same image every
        // time, sampled across the whole run.
        ckpt.restart();
        for _ in 0..ROUNDS_PER_REP {
            ckpt.round(&mut p, &mut fresh, false, &mut tr, &mut out);
        }
    }

    if opts.trace {
        let s = best_window(&serial_s, PARTS);
        let par = best_window(&parallel_s, PARTS);
        out.set("core.host_ns_per_cycle", s * 1e9 / cycles as f64);
        out.per_event("noc.host_ns_per_flit", s * 1e9, "noc.flits");
        out.per_event("isa.host_ns_per_block", s * 1e9, "isa.blocks_dispatched");
        out.per_event("core.host_us_per_epoch", s * 1e6, "core.epochs");
        out.per_event("core.par_overhead_us_per_epoch", (par - s) * 1e6, "core.epochs");
        out.set("core.parallel_mcps", cycles as f64 / 1e6 / par);
        let slices: Vec<f64> = tr.durations("core.slice").iter().map(|s| s * 1e6).collect();
        out.set("core.slice_us_p50", median(&slices));
        out.set("core.slice_us_p99", percentile(&slices, 99.0));
        out.set("core.trace_overhead_pct", (best(&sliced_s) / s - 1.0) * 100.0);
        ckpt.layer_metrics(&tr, &mut out);
        out.span_metrics(&tr);
    } else {
        out.set("sim_mcps", cycles as f64 / 1e6 / best_window(&serial_s, PARTS));
        ckpt.end_to_end(&mut out);
        out.set("setup_s", best(&setup_s));
    }
    out.finish(tr, opts)
}

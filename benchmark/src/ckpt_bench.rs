//! `ckpt_rack16`: the snapshot walk and codec under load. A 16-FPGA
//! Ethernet rack with patterned guest DRAM and live traffic is saved,
//! restored into a fresh platform, resumed and delta'd, round after round.

use std::time::Instant;

use smappic_core::Platform;

use crate::checkpoint::{Chain, SEGMENT};
use crate::platform_bench::layer_counts;
use crate::programs::{Install, Shape};
use crate::stat::best;
use crate::trace::Tracer;
use crate::{Opts, Outcome};

/// Cycles of live traffic before the first checkpoint.
const WARM_UP: u64 = 20_000;
/// Cycles the generated programs cover: more than any run's rounds reach.
const PROGRAM_CYCLES: u64 = 2_000_000;

/// Checkpoint rounds for `secs` host seconds (and at least `min` of them),
/// every other one resumed under `run_parallel` when `alternate`.
fn chain_for(
    secs: f64,
    min: u32,
    alternate: bool,
    reference: &mut Platform,
    fresh: &mut dyn FnMut(&mut Tracer) -> Platform,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Chain {
    let mut chain = Chain::default();
    let started = Instant::now();
    let mut round = 0;
    while round < min || started.elapsed().as_secs_f64() < secs {
        round += 1;
        tr.rep = round;
        chain.round(reference, fresh, alternate && round % 2 == 0, tr, out);
    }
    chain
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(opts.trace);
    let install = Install::generate(Shape::CkptRack16, opts.seed, opts.scaled(PROGRAM_CYCLES));

    let mut setup_s = Vec::new();
    let mut build = |tr: &mut Tracer| {
        let t = Instant::now();
        let p = install.platform(tr);
        setup_s.push(t.elapsed().as_secs_f64());
        p
    };
    let mut reference = build(&mut tr);
    tr.scope("core.run", || reference.run(WARM_UP));

    let min = opts.min_reps() * 2;
    let segment_mcps = |secs: &[f64]| SEGMENT as f64 / 1e6 / best(secs);
    let mut off = Tracer::new(false);
    if opts.trace {
        // Counts and image sizes are taken at this fixed cycle, so they
        // repeat exactly however many rounds the host then has time for.
        layer_counts(&reference, WARM_UP, &mut out);
        // Half the window traced, half not: the same rounds give both the
        // span breakdown and the cost of taking it.
        let secs = opts.seconds / 2.0;
        let traced = chain_for(secs, min, true, &mut reference, &mut build, &mut tr, &mut out);
        let plain = chain_for(secs, min, false, &mut reference, &mut build, &mut off, &mut out);
        let s = best(&plain.serial_segment_s);
        out.set("core.host_ns_per_cycle", s * 1e9 / SEGMENT as f64);
        out.set("core.parallel_mcps", segment_mcps(&traced.parallel_segment_s));
        let round = |c: &Chain| best(&c.save_s) + best(&c.restore_s);
        out.set("core.trace_overhead_pct", (round(&traced) / round(&plain) - 1.0) * 100.0);
        traced.layer_metrics(&tr, &mut out);
        out.span_metrics(&tr);
    } else {
        let secs = opts.seconds;
        let plain = chain_for(secs, min, false, &mut reference, &mut build, &mut off, &mut out);
        out.set("sim_mcps", segment_mcps(&plain.serial_segment_s));
        plain.end_to_end(&mut out);
        out.set("setup_s", best(&setup_s));
    }
    out.finish(tr, opts)
}

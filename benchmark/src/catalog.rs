//! The benchmark's names: workloads and metrics, with unit, direction and
//! (for end-to-end metrics) the regression bound. `BENCHMARK.json` at the
//! repository root states the same, and a test holds the two together.

use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "amo_saturated",
        why: "2x2x2 PCIe star, a cross-FPGA atomic every 1-20 cycles per tile: mesh, BPC/LLC, crossbar/shell and PCIe pump messages every cycle, nothing sleeps",
    },
    Workload {
        name: "bursty_sleep",
        why: "same shape, 100-500-cycle compute bursts between atomics: component sleep and idle-warp do the work, the mesh is nearly idle",
    },
    Workload {
        name: "ariane_alu",
        why: "an Ariane core per tile in a taus88 ALU loop: the decoded-block ISS and engine-tick dispatch do everything, memory is idle after I-fetch",
    },
    Workload {
        name: "ariane_memwalk",
        why: "same cores walking a private 4 KiB array: blocks end at a memory op every few instructions and the tile-BPC request path is hot",
    },
    Workload {
        name: "rack_eth16",
        why: "16-FPGA Ethernet rack, every core on a counter homed on node 0: Ethernet fabric and grouped epoch barriers, the shape with exactly 2 group workers",
    },
    Workload {
        name: "ckpt_rack16",
        why: "the rack with 16 MiB of patterned DRAM, saved, restored, resumed and delta'd round after round: snapshot walk and codec do all the work",
    },
    Workload {
        name: "fleet_mixed",
        why: "120 mixed-tenant jobs through a 2-worker preempting scheduler as a closed batch: admission, dispatch, build, park/restore and digesting",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
    /// A simulated count: identical across repetitions, steppers, hosts
    /// and host-only optimisations for the same seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound), exact: false }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None, exact: true }
}

/// What a user of the system sees. Host time unless the unit says
/// otherwise; every workload reports every one of them.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("sim_mcps", "Mcyc/s", Higher, 0.25),
    e2e("snap_save_mbps", "MB/s", Higher, 0.25),
    e2e("snap_restore_mbps", "MB/s", Higher, 0.25),
    e2e("snap_delta_ms", "ms", Lower, 0.25),
    e2e("snap_stored_ratio", "ratio", Lower, 0.05),
];

/// Single layers, read from outside. Zero where a layer is not part of
/// the workload (no Ethernet on a PCIe star, no scheduler outside the
/// fleet).
pub const PER_LAYER: &[Metric] = &[
    // Exact simulated counts at the end of the window.
    exact("isa.blocks_dispatched", "count", Lower),
    exact("isa.block_hit_rate", "ratio", Higher),
    exact("isa.retired_loads", "count", Higher),
    exact("tile.skipped_cycles", "cycles", Higher),
    exact("tile.skip_share", "ratio", Higher),
    exact("bpc.hit", "count", Higher),
    exact("bpc.miss", "count", Lower),
    exact("bpc.amo", "count", Higher),
    exact("bpc.miss_latency_mean", "cycles", Lower),
    exact("llc.hit", "count", Higher),
    exact("llc.miss", "count", Lower),
    exact("llc.amo", "count", Higher),
    exact("llc.miss_latency_mean", "cycles", Lower),
    exact("noc.flits", "count", Lower),
    exact("noc.injected", "count", Lower),
    exact("noc.hops_mean", "count", Lower),
    exact("port.pushes", "count", Lower),
    exact("port.stalls", "count", Lower),
    exact("port.active", "count", Lower),
    exact("memctl.rd", "count", Lower),
    exact("memctl.wr", "count", Lower),
    exact("dram.req", "count", Lower),
    exact("dram.resident_pages", "count", Lower),
    exact("xbar.req", "count", Lower),
    exact("shell.out_req", "count", Lower),
    exact("bridge.sent", "count", Lower),
    exact("pcie.rtt_mean", "cycles", Lower),
    exact("eth.frames", "count", Lower),
    exact("eth.bytes", "B", Lower),
    exact("core.epochs", "count", Lower),
    exact("core.epoch_width_mean", "cycles", Higher),
    exact("core.skipped_chipset_cycles", "cycles", Higher),
    exact("snap.raw_bytes", "B", Lower),
    exact("snap.stored_bytes", "B", Lower),
    exact("snap.sections", "count", Lower),
    exact("snap.delta_bytes", "B", Lower),
    exact("model.pcie_rtt_err_pct", "%", Lower),
    exact("model.numa_ratio_err_pct", "%", Lower),
    // Host time per simulated event, derived.
    layer("core.host_ns_per_cycle", "ns", Lower),
    layer("noc.host_ns_per_flit", "ns", Lower),
    layer("isa.host_ns_per_block", "ns", Lower),
    layer("core.host_us_per_epoch", "us", Lower),
    layer("core.par_overhead_us_per_epoch", "us", Lower),
    layer("core.parallel_mcps", "Mcyc/s", Higher),
    // Spans from the traced run.
    layer("core.build_s", "s", Lower),
    layer("core.install_s", "s", Lower),
    layer("core.slice_us_p50", "us", Lower),
    layer("core.slice_us_p99", "us", Lower),
    layer("core.stats_collect_ms", "ms", Lower),
    layer("core.trace_overhead_pct", "%", Lower),
    layer("snap.walk_ms", "ms", Lower),
    layer("snap.encode_ms", "ms", Lower),
    layer("snap.compress_ms", "ms", Lower),
    layer("snap.restore_decode_ms", "ms", Lower),
    layer("snap.restore_apply_ms", "ms", Lower),
    // The service, as reported by the fleet.
    layer("service.jobs_per_s", "1/s", Higher),
    layer("service.job_run_ms_p50", "ms", Lower),
    layer("service.job_run_ms_p90", "ms", Lower),
    layer("service.serial_jobs_per_s", "1/s", Higher),
    layer("service.two_worker_jobs_per_s", "1/s", Higher),
    layer("service.busy_share", "ratio", Higher),
    layer("service.worker_mcps", "Mcyc/s", Higher),
    layer("service.spec_parse_us", "us", Lower),
    layer("service.build_ms_p50", "ms", Lower),
    layer("sched.interactive_wait_ms_mean", "ms", Lower),
    layer("sched.batch_wait_ms_mean", "ms", Lower),
    layer("sched.preemptions", "count", Lower),
    layer("sched.migrations", "count", Lower),
    layer("sched.dispatches", "count", Lower),
    layer("sched.quanta", "count", Lower),
    layer("sched.queue_peak_depth", "count", Lower),
    layer("sched.park_raw_bytes", "B", Lower),
    layer("sched.park_stored_bytes", "B", Lower),
    // Isolated layer kernels.
    layer("isa.kernel_minst_per_s", "Minst/s", Higher),
    layer("noc.kernel_mflits_per_s", "Mflit/s", Higher),
    layer("pcie.kernel_mitems_per_s", "Mitem/s", Higher),
    layer("eth.kernel_mframes_per_s", "Mframe/s", Higher),
    layer("codec.kernel_compress_mbps", "MB/s", Higher),
    layer("codec.kernel_decompress_mbps", "MB/s", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// harness prints. They must not drift apart.
    #[test]
    fn benchmark_json_states_exactly_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let listed = doc.get("workloads").unwrap().items();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (j, w) in listed.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
                assert_eq!(j.get("better").and_then(Json::as_str), Some(m.better.as_str()));
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
                assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            }
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}

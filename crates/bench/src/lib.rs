//! # smappic-bench — harnesses regenerating every table and figure
//!
//! Each `tableN`/`figN` binary reproduces one artifact of the paper's
//! evaluation section and prints it in the paper's shape (same rows, same
//! series). Absolute numbers come from the simulated platform and the
//! calibrated cost models; the DESIGN.md experiment index maps each to its
//! implementing modules. The simulator's own performance is measured in
//! one place only, the `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use smappic_core::{resources, Config, SystemParams};
use smappic_costmodel::catalog::{F1, HOSTS};
use smappic_costmodel::figures::{fig13, fig14, fig14_crossover_days, verilator_comparison};
use smappic_costmodel::spec::SPECINT2017;
use smappic_costmodel::tools::tool_models;
use smappic_workloads::gng::{run_gng_figure, GngBenchmark};
use smappic_workloads::hello::run_hello;
use smappic_workloads::is_sort::{run_sort, Placement, SortParams};
use smappic_workloads::latency::latency_matrix;
use smappic_workloads::maple::{run_maple_figure, Kernel};

/// Parses `--key value` style arguments with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Renders Table 1 (the F1 instance family).
pub fn table1() -> String {
    let mut out = String::from(
        "Table 1: Available AWS EC2 F1 instances\n\
         Instance      #vCPUs  HostMem  Storage  #FPGAs  FPGAMem  Price/hr  HW price\n",
    );
    for i in &F1 {
        out.push_str(&format!(
            "{:<13} {:>6} {:>7}GB {:>7}GB {:>6} {:>7}GB {:>8.2} {:>9.0}\n",
            i.name,
            i.vcpus,
            i.memory_gb,
            i.storage_gb,
            i.fpgas,
            i.fpga_memory_gb,
            i.price_per_hour,
            i.hardware_price
        ));
    }
    out
}

/// Renders Table 2 (prototyped system parameters).
pub fn table2() -> String {
    let p = SystemParams::default();
    format!(
        "Table 2: Prototyped System Parameters\n\
         Instruction set              RISC-V 64-bit\n\
         Frequency                    {} MHz\n\
         Core                         Ariane (in-order, single-issue model)\n\
         L1I cache                    {} KB\n\
         BPC cache                    {} KB, {} ways\n\
         LLC cache slice              {} KB, {} ways\n\
         DRAM latency                 {} cycles\n\
         Inter-node round-trip        {} cycles\n",
        p.frequency_mhz,
        p.l1i_bytes / 1024,
        p.bpc_bytes / 1024,
        p.bpc_ways,
        p.llc_slice_bytes / 1024,
        p.llc_ways,
        p.dram_latency,
        2 * p.pcie_one_way_latency + 1,
    )
}

/// Renders Table 3 (host requirements and cheapest instances per tool).
pub fn table3() -> String {
    let mut out = String::from(
        "Table 3: Requirements for host machines and cheapest suitable instances\n\
         Tool                  #vCPUs  Memory  FPGAs  Instance     Price/hr\n",
    );
    for m in tool_models() {
        let host = m.host();
        out.push_str(&format!(
            "{:<21} {:>6} {:>5}GB {:>6}  {:<12} {:>7.2}\n",
            m.name, m.vcpus, m.memory_gb, m.fpgas, host.name, host.price_per_hour
        ));
    }
    out.push_str("\n(Host catalog also offers: ");
    for h in &HOSTS {
        out.push_str(&format!("{} ", h.name));
    }
    out.push_str(")\n");
    out
}

/// Renders Table 4 (configurations, frequencies, LUT utilizations).
pub fn table4() -> String {
    let mut out = String::from(
        "Table 4: SMAPPIC configurations with frequencies and LUT utilization\n\
         Configuration  Frequency  LUT Utilization\n",
    );
    for &(b, c, _, _) in &resources::TABLE4 {
        let s = resources::synthesize(b, c);
        out.push_str(&format!(
            "{:<14} {:>6} MHz {:>14.0}%\n",
            format!("{b}x{c}"),
            s.frequency_mhz,
            s.lut_utilization
        ));
    }
    out.push_str(&format!(
        "\nMax Ariane tiles in one FPGA: {} (paper: 12)\n",
        resources::max_tiles(1)
    ));
    out
}

/// Runs the Fig 7 experiment and renders the latency summary plus a
/// small-scale heatmap. `fpgas` × 1 × `tiles` configuration.
pub fn fig7(fpgas: usize, tiles: usize, iters: u64) -> String {
    let cfg = Config::new(fpgas, 1, tiles);
    let m = latency_matrix(&cfg, iters);
    let mut out = format!(
        "Fig 7: inter-core round-trip latencies ({}) in cycles\n\
         intra-node mean: {:>6.0} cycles   (paper: ~100)\n\
         inter-node mean: {:>6.0} cycles   (paper: ~250)\n\
         NUMA ratio:      {:>6.2}x         (paper: ~2.5x)\n\nheatmap:\n",
        cfg.notation(),
        m.intra_node_mean(),
        m.inter_node_mean(),
        m.inter_node_mean() / m.intra_node_mean(),
    );
    for s in 0..m.cores {
        for r in 0..m.cores {
            out.push_str(&format!("{:>5}", m.cycles[s][r]));
        }
        out.push('\n');
    }
    out
}

/// Runs the Fig 8 experiment: IS runtime vs thread count, NUMA on/off.
pub fn fig8(cfg: Config, keys: usize, threads: &[usize]) -> String {
    let mut out = format!(
        "Fig 8: integer sort (bucket sort, {keys} keys) on {}, NUMA on vs off\n\
         Threads   NUMA-on(cycles)  NUMA-off(cycles)  off/on\n",
        cfg.notation()
    );
    for &t in threads {
        let on = run_sort(&SortParams::scaling(cfg.clone(), keys, t, Placement::NumaAware));
        let off = run_sort(&SortParams::scaling(cfg.clone(), keys, t, Placement::Interleaved));
        out.push_str(&format!(
            "{:>7} {:>16} {:>17} {:>7.2}\n",
            t,
            on.cycles,
            off.cycles,
            off.cycles as f64 / on.cycles as f64
        ));
    }
    out.push_str("(paper: NUMA mode reduces runtimes 1.6-2.8x, growing with thread count)\n");
    out
}

/// Runs the Fig 9 experiment: 12 threads pinned on 1..=nodes nodes.
pub fn fig9(cfg: Config, keys: usize) -> String {
    let nodes = cfg.total_nodes();
    let mut out = format!(
        "Fig 9: 12 threads on {} distributed over 1..{} nodes ({keys} keys)\n\
         Active nodes   NUMA-on(cycles)  NUMA-off(cycles)\n",
        cfg.notation(),
        nodes
    );
    for active in 1..=nodes {
        let on = run_sort(&SortParams::pinned(cfg.clone(), keys, active, Placement::NumaAware));
        let off = run_sort(&SortParams::pinned(cfg.clone(), keys, active, Placement::Interleaved));
        out.push_str(&format!("{:>12} {:>16} {:>17}\n", active, on.cycles, off.cycles));
    }
    out.push_str(
        "(paper: NUMA-on degrades slightly with more nodes; NUMA-off improves slightly)\n",
    );
    out
}

/// Runs the Fig 10 experiment: GNG speedups.
pub fn fig10(samples: usize) -> String {
    let mut out = format!(
        "Fig 10: GNG accelerator speedup over software ({samples} samples)\n\
         Benchmark          SW      1       2       4\n"
    );
    for (bench, name, paper) in [
        (GngBenchmark::Generator, "A: Noise generator", "paper: 1.0 / 12 / 21 / 32"),
        (GngBenchmark::Applier, "B: Noise applier  ", "paper: 1.0 / 7.4 / 10 / 13"),
    ] {
        let f = run_gng_figure(bench, samples);
        out.push_str(&format!(
            "{name} {:>6.1} {:>7.1} {:>7.1} {:>7.1}   ({paper})\n",
            f.speedup[0], f.speedup[1], f.speedup[2], f.speedup[3]
        ));
    }
    out
}

/// Runs the Fig 11 experiment: MAPLE speedups per kernel.
pub fn fig11(elements: usize) -> String {
    let mut out = format!(
        "Fig 11: MAPLE engine evaluation ({elements} elements/kernel)\n\
         Kernel   1-thread   MAPLE   2-threads\n"
    );
    for k in Kernel::ALL {
        let f = run_maple_figure(k, elements);
        out.push_str(&format!(
            "{:<8} {:>8.1} {:>7.2} {:>10.2}\n",
            k.label(),
            f.speedup[0],
            f.speedup[1],
            f.speedup[2]
        ));
    }
    out.push_str(
        "(paper: MAPLE beats the 2nd thread in latency-bound kernels; SPMM is compute-bound)\n",
    );
    out
}

/// Renders the Fig 13 cost matrix.
pub fn fig13_render() -> String {
    let cells = fig13();
    let mut out = String::from("Fig 13: modeling costs in dollars (test inputs)\n");
    let tools = ["SMAPPIC", "FireSim single-node", "FireSim supernode", "Sniper", "gem5"];
    out.push_str(&format!("{:<12}", "Benchmark"));
    for t in tools {
        out.push_str(&format!("{t:>21}"));
    }
    out.push('\n');
    let mut benchmarks: Vec<&str> = SPECINT2017.iter().map(|b| b.name).collect();
    benchmarks.push("SPECint 2017");
    for b in benchmarks {
        out.push_str(&format!("{b:<12}"));
        for t in tools {
            let cell = cells.iter().find(|c| c.benchmark == b && c.tool == t).expect("cell");
            match cell.cost {
                Some(c) if c >= 0.01 => out.push_str(&format!("{c:>21.2}")),
                Some(_) => out.push_str(&format!("{:>21}", "<0.01")),
                None => out.push_str(&format!("{:>21}", "n/a")),
            }
        }
        out.push('\n');
    }
    out.push_str("(paper: SMAPPIC best cloud cost-efficiency; ~4x vs FireSim single-node; gem5 4-5 orders worse)\n");
    out
}

/// Renders the hello-world Verilator comparison (§4.5).
pub fn fig13_hello() -> String {
    let (text, cycles) = run_hello("Hello World");
    let c = verilator_comparison(cycles, 100);
    format!(
        "Hello-world comparison (§4.5): printed {:?} in {} cycles\n\
         SMAPPIC:   {:>10.4} s of host time\n\
         Verilator: {:>10.1} s of host time (paper: 65 s)\n\
         SMAPPIC cost-efficiency advantage: {:>6.0}x (paper: ~1600x)\n",
        String::from_utf8_lossy(&text),
        cycles,
        c.smappic_seconds,
        c.verilator_seconds,
        c.cost_efficiency_ratio
    )
}

/// Renders the design-space sweep over one F1 FPGA: every feasible BxC
/// arrangement scored by core-MHz per rental dollar (the §4.5
/// cost-efficiency argument, generalized). Printed by the `sweep` bin.
pub fn design_sweep() -> String {
    let mut out = String::from("Design-space sweep over one F1 FPGA ($1.65/hr):\n");
    out.push_str(&format!(
        "{:<8} {:>6} {:>7} {:>12} {:>16}\n",
        "Config", "MHz", "LUT%", "core-MHz", "core-MHz per $/hr"
    ));
    let mut best: Option<(String, f64)> = None;
    for nodes in 1..=4usize {
        for tiles in 1..=12usize {
            let s = resources::synthesize(nodes, tiles);
            if !s.feasible {
                continue;
            }
            let core_mhz = (nodes * tiles) as f64 * f64::from(s.frequency_mhz);
            let per_dollar = core_mhz / 1.65;
            out.push_str(&format!(
                "{:<8} {:>6} {:>6.0}% {:>12.0} {:>16.0}\n",
                format!("{nodes}x{tiles}"),
                s.frequency_mhz,
                s.lut_utilization,
                core_mhz,
                per_dollar
            ));
            if best.as_ref().is_none_or(|(_, b)| per_dollar > *b) {
                best = Some((format!("{nodes}x{tiles}"), per_dollar));
            }
        }
    }
    let (cfg, v) = best.expect("at least one feasible config");
    out.push_str(&format!("\nbest core-MHz per dollar: {cfg} ({v:.0})\n"));
    out.push_str(
        "(the paper's 1x4x2 packing argument: more independent nodes per FPGA\n \
         amortize the rental; big single nodes trade frequency for tiles)\n",
    );
    out
}

/// Renders the Fig 14 series.
pub fn fig14_render() -> String {
    let mut out = String::from(
        "Fig 14: cost of FPGA modeling in the cloud vs on-premises\n\
         Days    Cloud($)   On-premises($)\n",
    );
    for p in fig14(350, 50) {
        out.push_str(&format!("{:>4.0} {:>10.0} {:>16.0}\n", p.days, p.cloud, p.on_premises));
    }
    out.push_str(&format!(
        "crossover: {:.0} days of continuous modeling (paper: >200 days)\n",
        fig14_crossover_days()
    ));
    out
}

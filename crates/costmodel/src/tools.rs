//! The modeling tools compared in §4.5.

use crate::catalog::{cheapest_instance, Instance};

/// A modeling approach compared in Fig 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// SMAPPIC in the cost-efficient 1x4x2 configuration: four independent
    /// prototypes share one FPGA at 100 MHz.
    Smappic,
    /// FireSim, one quad-core RocketChip instance, no network simulation.
    FireSimSingleNode,
    /// FireSim supernode: four single-core instances plus network
    /// simulation, at a lower clock.
    FireSimSupernode,
    /// Sniper, interval-core parallel simulator (x86-64 binaries; the
    /// paper could not run RISC-V on it either).
    Sniper,
    /// gem5, cycle-level.
    Gem5,
    /// Verilator RTL simulation.
    Verilator,
}

/// Performance/footprint model of one tool.
#[derive(Debug, Clone)]
pub struct ToolModel {
    /// The tool.
    pub tool: Tool,
    /// Display name.
    pub name: &'static str,
    /// Host requirements (vCPUs, memory GB, FPGAs) per Table 3.
    pub vcpus: u32,
    /// Memory requirement in GB.
    pub memory_gb: u32,
    /// FPGAs required.
    pub fpgas: u32,
    /// Effective slowdown versus the SiFive U740 silicon baseline
    /// (1.2 GHz): how many seconds of tool time model one native second.
    pub slowdown: f64,
    /// Independent simulations sharing one host (SMAPPIC's 1x4x2 packs
    /// four prototypes per FPGA; FireSim supernode likewise).
    pub instances_per_host: u32,
}

impl ToolModel {
    /// The cheapest EC2 instance this tool runs on.
    pub fn host(&self) -> &'static Instance {
        cheapest_instance(self.vcpus, self.memory_gb, self.fpgas)
            .expect("every modeled tool fits an offered instance")
    }

    /// Cost in dollars to model a workload that runs `native_seconds` on
    /// real silicon.
    pub fn modeling_cost(&self, native_seconds: f64) -> f64 {
        let tool_seconds = native_seconds * self.slowdown;
        let hours = tool_seconds / 3600.0;
        hours * self.host().price_per_hour / f64::from(self.instances_per_host)
    }
}

/// The calibrated tool models.
///
/// Slowdowns are anchored to the paper's relationships: SMAPPIC and
/// single-node FireSim run at similar (~100 MHz) frequencies, i.e. a 12×
/// slowdown against 1.2 GHz silicon; SMAPPIC's 4-per-FPGA packing makes it
/// ≈4× more cost-efficient; supernode FireSim packs 4 but clocks lower;
/// Sniper runs at interval-simulation speed on a cheap host; gem5 is 4–5
/// orders of magnitude more expensive end-to-end; Verilator simulates RTL
/// at ~100 kHz-equivalent.
pub fn tool_models() -> Vec<ToolModel> {
    vec![
        ToolModel {
            tool: Tool::Smappic,
            name: "SMAPPIC",
            vcpus: 1,
            memory_gb: 8,
            fpgas: 1,
            slowdown: 12.0, // 100 MHz vs 1.2 GHz
            instances_per_host: 4,
        },
        ToolModel {
            tool: Tool::FireSimSingleNode,
            name: "FireSim single-node",
            vcpus: 1,
            memory_gb: 8,
            fpgas: 1,
            slowdown: 12.0,
            instances_per_host: 1,
        },
        ToolModel {
            tool: Tool::FireSimSupernode,
            name: "FireSim supernode",
            vcpus: 1,
            memory_gb: 8,
            fpgas: 1,
            slowdown: 30.0, // ~40 MHz with network simulation
            instances_per_host: 4,
        },
        ToolModel {
            tool: Tool::Sniper,
            name: "Sniper",
            vcpus: 2,
            memory_gb: 8,
            fpgas: 0,
            slowdown: 1_500.0, // ~1 MIPS-per-core interval simulation
            instances_per_host: 1,
        },
        ToolModel {
            tool: Tool::Gem5,
            name: "gem5",
            vcpus: 1,
            memory_gb: 64,
            fpgas: 0,
            slowdown: 60_000.0, // ~20 KIPS cycle-level
            instances_per_host: 1,
        },
        ToolModel {
            tool: Tool::Verilator,
            name: "Verilator",
            vcpus: 1,
            memory_gb: 8,
            fpgas: 0,
            // Whole-SoC RTL simulates at ~6 kHz: calibrated so the §4.5
            // hello-world (4 ms on SMAPPIC) takes the paper's 65 s.
            slowdown: 200_000.0,
            instances_per_host: 1,
        },
    ]
}

/// Looks up one tool's model.
pub fn model(tool: Tool) -> ToolModel {
    tool_models().into_iter().find(|m| m.tool == tool).expect("all tools modeled")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hosts_match_table3() {
        assert_eq!(model(Tool::Sniper).host().name, "t3.medium");
        assert_eq!(model(Tool::Gem5).host().name, "r5.2xlarge");
        assert_eq!(model(Tool::Verilator).host().name, "t3.medium");
        assert_eq!(model(Tool::Smappic).host().name, "f1.2xlarge");
        assert_eq!(model(Tool::FireSimSingleNode).host().name, "f1.2xlarge");
    }

    #[test]
    fn smappic_is_about_4x_cheaper_than_firesim_single() {
        let s = model(Tool::Smappic).modeling_cost(100.0);
        let f = model(Tool::FireSimSingleNode).modeling_cost(100.0);
        let ratio = f / s;
        assert!((3.5..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn supernode_sits_between_smappic_and_single_node() {
        let s = model(Tool::Smappic).modeling_cost(100.0);
        let sup = model(Tool::FireSimSupernode).modeling_cost(100.0);
        let single = model(Tool::FireSimSingleNode).modeling_cost(100.0);
        assert!(s < sup && sup < single, "{s} {sup} {single}");
    }

    #[test]
    fn gem5_is_4_to_5_orders_worse_than_smappic() {
        let s = model(Tool::Smappic).modeling_cost(100.0);
        let g = model(Tool::Gem5).modeling_cost(100.0);
        let orders = (g / s).log10();
        assert!((3.5..=5.5).contains(&orders), "gem5 is 10^{orders:.1} worse");
    }

    #[test]
    fn smappic_wins_against_every_cloud_alternative() {
        let s = model(Tool::Smappic).modeling_cost(50.0);
        for m in tool_models() {
            if m.tool != Tool::Smappic {
                assert!(m.modeling_cost(50.0) > s, "{} must cost more than SMAPPIC", m.name);
            }
        }
    }
}

//! Platform configuration: AxBxC shape, Table 2 parameters, address map.

use std::sync::Arc;

use smappic_coherence::HomingMode;
use smappic_sim::{Cycle, EthParams, FaultPlan};

/// Base of cacheable DRAM in the guest physical address space.
pub const DRAM_BASE: u64 = 0x8000_0000;

/// Console UART (16550, 115200 baud) MMIO base, per node.
pub const UART0_BASE: u64 = 0x6000_0000;

/// Data UART ("overclocked" ~1 Mbit/s, §3.4.1) MMIO base, per node.
pub const UART1_BASE: u64 = 0x6001_0000;

/// CLINT (timer + software interrupts) MMIO base, per node.
pub const CLINT_BASE: u64 = 0x6100_0000;

/// Virtual SD controller MMIO base, per node (§3.4.2).
pub const SD_CTL_BASE: u64 = 0x6200_0000;

/// Platform-level interrupt controller MMIO base, per node.
pub const PLIC_BASE: u64 = 0x6400_0000;

/// Start of the SD-card data region: the "top half" of the node's DRAM
/// where the host's SD driver injects the disk image.
pub const SD_DATA_BASE: u64 = 0x2_0000_0000;

/// MMIO window of a GNG accelerator occupying a tile (per-tile windows of
/// 4 KiB starting here, indexed by tile).
pub const GNG_MMIO_BASE: u64 = 0x7000_0000;

/// MMIO window base for MAPLE engines (per-tile 4 KiB windows).
pub const MAPLE_MMIO_BASE: u64 = 0x7100_0000;

/// Table 2: the prototyped system parameters.
#[derive(Debug, Clone)]
pub struct SystemParams {
    /// Fabric frequency in MHz (Table 2: 100 MHz).
    pub frequency_mhz: u32,
    /// L1I capacity in bytes (16 KB).
    pub l1i_bytes: usize,
    /// BPC capacity in bytes (8 KB, 4 ways).
    pub bpc_bytes: usize,
    /// BPC associativity.
    pub bpc_ways: usize,
    /// LLC slice capacity in bytes (64 KB, 4 ways).
    pub llc_slice_bytes: usize,
    /// LLC associativity.
    pub llc_ways: usize,
    /// DRAM latency in cycles (80).
    pub dram_latency: Cycle,
    /// One-way PCIe latency in cycles (62 ⇒ ~125-cycle round trip).
    pub pcie_one_way_latency: Cycle,
    /// PCIe bandwidth in bytes per cycle.
    pub pcie_bytes_per_cycle: u64,
    /// Extra traffic-shaper latency in the inter-node bridge (models
    /// slower interconnects like Ampere Altra, §4.1).
    pub bridge_extra_latency: Cycle,
    /// Bridge bandwidth in bytes per cycle.
    pub bridge_bytes_per_cycle: u64,
    /// Per-node DRAM bytes (defines the NUMA regions of partitioned
    /// homing; 256 MiB keeps the simulation light).
    pub bytes_per_node: u64,
    /// BPC miss-status-holding registers.
    pub bpc_mshrs: usize,
    /// BPC hit latency (cycles).
    pub bpc_hit_latency: Cycle,
    /// LLC pipeline latency (cycles).
    pub llc_latency: Cycle,
    /// Mesh hop latency (cycles).
    pub hop_latency: Cycle,
}

impl Default for SystemParams {
    fn default() -> Self {
        Self {
            frequency_mhz: 100,
            l1i_bytes: 16 * 1024,
            bpc_bytes: 8 * 1024,
            bpc_ways: 4,
            llc_slice_bytes: 64 * 1024,
            llc_ways: 4,
            dram_latency: 80,
            pcie_one_way_latency: 62,
            pcie_bytes_per_cycle: 160,
            bridge_extra_latency: 0,
            // The traffic shaper models the *target* inter-socket link
            // (§3.5), not raw PCIe: 8 B/cycle ≈ 6.4 GB/s per direction at
            // 100 MHz, an inter-socket-class per-link bandwidth. This is
            // what makes inter-node congestion visible at high thread
            // counts (Fig 8).
            bridge_bytes_per_cycle: 8,
            bytes_per_node: 256 << 20,
            bpc_mshrs: 4,
            bpc_hit_latency: 2,
            llc_latency: 4,
            hop_latency: 1,
        }
    }
}

/// How the prototype's FPGAs are interconnected.
///
/// An F1 instance gives at most four FPGAs low-latency PCIe peer links
/// (§4.8); past that, SMAPPIC scales out over the datacenter network. The
/// switched-Ethernet fabric models that path: higher latency, serialized
/// frames, store-and-forward switches — but the same deterministic,
/// snapshottable, fault-injectable contract as the PCIe links, so every
/// differential suite runs unchanged at rack scale.
#[derive(Debug, Clone)]
pub enum Topology {
    /// Full-mesh PCIe peer links between all FPGAs (the classic ≤4-FPGA
    /// F1 instance).
    PcieStar,
    /// Every FPGA attaches to a switched-Ethernet fabric: one switch per
    /// group of [`EthParams::group_size`] FPGAs, switches joined by a
    /// spine. No PCIe links exist.
    Ethernet(EthParams),
    /// F1 instances joined by Ethernet: FPGAs within one instance (one
    /// group) keep their PCIe full mesh; cross-group traffic rides the
    /// Ethernet fabric. `group_size` must be ≤ 4 (an instance's PCIe
    /// reach).
    Hybrid(EthParams),
}

impl Topology {
    /// The Ethernet fabric parameters, when the topology has a fabric.
    pub fn eth_params(&self) -> Option<&EthParams> {
        match self {
            Topology::PcieStar => None,
            Topology::Ethernet(p) | Topology::Hybrid(p) => Some(p),
        }
    }

    /// True when a pair of distinct FPGAs is joined by a direct PCIe link
    /// under this topology.
    pub fn pcie_linked(&self, a: usize, b: usize) -> bool {
        match self {
            Topology::PcieStar => true,
            Topology::Ethernet(_) => false,
            Topology::Hybrid(p) => a / p.group_size == b / p.group_size,
        }
    }
}

/// Which transports a [`FaultPlan`] is threaded through.
///
/// All injected faults are *timing* faults: they delay, duplicate, or
/// back-pressure traffic but never corrupt committed values, so a faulted
/// run terminates with the same architectural state as the clean run (the
/// invariant the chaos suite in `tests/fault_equivalence.rs` enforces).
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// The deterministic plan every injector draws from.
    pub plan: Arc<FaultPlan>,
    /// Delay/duplicate/blackhole items on the PCIe links, with the Hard
    /// Shell inbound guard (reorder + dedup + retry) enabled to recover.
    pub links: bool,
    /// Transient stalls on NoC mesh router output ports.
    pub noc: bool,
    /// Transient stalls on AXI crossbar master ports.
    pub xbar: bool,
    /// Latency spikes on DRAM channel requests.
    pub dram: bool,
}

impl FaultSpec {
    /// Faults on every transport.
    pub fn all(plan: Arc<FaultPlan>) -> Self {
        Self { plan, links: true, noc: true, xbar: true, dram: true }
    }

    /// Faults on the PCIe links only (plus the shell guard).
    pub fn links_only(plan: Arc<FaultPlan>) -> Self {
        Self { plan, links: true, noc: false, xbar: false, dram: false }
    }
}

/// An AxBxC prototype configuration.
///
/// ```
/// use smappic_core::Config;
/// let c = Config::new(4, 1, 12); // the 48-core flagship (Fig 1c)
/// assert_eq!(c.total_nodes(), 4);
/// assert_eq!(c.total_tiles(), 48);
/// assert_eq!(c.notation(), "4x1x12");
/// ```
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of FPGAs (A). At most 4 — only four FPGAs in an F1 instance
    /// are connected with low-latency PCIe links (§4.8).
    pub fpgas: usize,
    /// Nodes per FPGA (B). At most 4 — one DDR4 controller per node.
    pub nodes_per_fpga: usize,
    /// Tiles per node (C).
    pub tiles_per_node: usize,
    /// Table 2 parameters.
    pub params: SystemParams,
    /// Homing policy; `None` selects partitioned homing over
    /// `params.bytes_per_node` (the multi-node default).
    pub homing: Option<HomingMode>,
    /// When false, nodes are independent prototypes with no inter-node
    /// interconnect (the cost-efficient 1x4x2 of §4.5).
    pub unified_memory: bool,
    /// Deterministic timing-fault injection; `None` (the default) builds a
    /// clean platform with zero fault machinery on any hot path.
    pub fault: Option<FaultSpec>,
    /// How the FPGAs are interconnected. [`Config::new`] always selects
    /// [`Topology::PcieStar`]; rack-scale shapes come from
    /// [`Config::rack`].
    pub topology: Topology,
}

impl Config {
    /// Creates an AxBxC configuration with default parameters.
    ///
    /// # Panics
    ///
    /// Panics when the shape violates the F1 limits of §4.8 (A ≤ 4,
    /// B ≤ 4, C ≥ 1).
    pub fn new(fpgas: usize, nodes_per_fpga: usize, tiles_per_node: usize) -> Self {
        assert!((1..=4).contains(&fpgas), "one SMAPPIC prototype spans at most 4 FPGAs");
        assert!(
            (1..=4).contains(&nodes_per_fpga),
            "at most four nodes per FPGA (four DDR4 controllers)"
        );
        assert!(tiles_per_node >= 1, "a node needs at least one tile");
        Self {
            fpgas,
            nodes_per_fpga,
            tiles_per_node,
            params: SystemParams::default(),
            homing: None,
            unified_memory: true,
            fault: None,
            topology: Topology::PcieStar,
        }
    }

    /// Creates a rack-scale configuration: `fpgas` FPGAs joined by the
    /// given network topology instead of (or in addition to) PCIe. This is
    /// the only constructor that lifts the 4-FPGA F1 ceiling — the
    /// network, not PCIe peer windows, is what carries cross-instance
    /// traffic, exactly as §4.8 sketches scaling beyond one instance.
    ///
    /// # Panics
    ///
    /// Panics when `fpgas` exceeds 256 (PCIe link endpoints are `u8`),
    /// when total nodes exceed `u16` node-id space, when the topology is
    /// [`Topology::PcieStar`] (use [`Config::new`]), or — for
    /// [`Topology::Hybrid`] — when the Ethernet group size exceeds the
    /// 4-FPGA PCIe reach of one instance.
    pub fn rack(
        fpgas: usize,
        nodes_per_fpga: usize,
        tiles_per_node: usize,
        topology: Topology,
    ) -> Self {
        assert!((1..=256).contains(&fpgas), "rack configurations span 1..=256 FPGAs");
        assert!(
            (1..=4).contains(&nodes_per_fpga),
            "at most four nodes per FPGA (four DDR4 controllers)"
        );
        assert!(tiles_per_node >= 1, "a node needs at least one tile");
        assert!(fpgas * nodes_per_fpga <= usize::from(u16::MAX), "node ids are u16");
        match &topology {
            Topology::PcieStar => panic!("PCIe-star racks are plain Config::new platforms"),
            Topology::Ethernet(p) => p.validate(),
            Topology::Hybrid(p) => {
                p.validate();
                assert!(
                    p.group_size <= 4,
                    "hybrid groups are F1 instances: at most 4 PCIe-linked FPGAs"
                );
            }
        }
        Self {
            fpgas,
            nodes_per_fpga,
            tiles_per_node,
            params: SystemParams::default(),
            homing: None,
            unified_memory: true,
            fault: None,
            topology,
        }
    }

    /// Threads a fault plan through the selected transports.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }

    /// Total nodes in the prototype.
    pub fn total_nodes(&self) -> usize {
        self.fpgas * self.nodes_per_fpga
    }

    /// Total tiles.
    pub fn total_tiles(&self) -> usize {
        self.total_nodes() * self.tiles_per_node
    }

    /// The paper's AxBxC notation string.
    pub fn notation(&self) -> String {
        format!("{}x{}x{}", self.fpgas, self.nodes_per_fpga, self.tiles_per_node)
    }

    /// The effective homing mode. Without unified memory (§4.5's
    /// cost-efficient multi-prototype packing) every node homes its own
    /// lines — the nodes are fully independent systems.
    pub fn homing_mode(&self) -> HomingMode {
        if !self.unified_memory {
            return HomingMode::NodeLocal;
        }
        self.homing.unwrap_or(HomingMode::Partitioned {
            dram_base: DRAM_BASE,
            bytes_per_node: self.params.bytes_per_node,
        })
    }

    /// Marks the prototype as independent nodes (no inter-node
    /// interconnect): the 1x4x2 configuration of §4.5 that packs four
    /// prototypes into one FPGA for cost efficiency.
    pub fn independent_nodes(mut self) -> Self {
        self.unified_memory = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notation_matches_paper() {
        assert_eq!(Config::new(1, 4, 2).notation(), "1x4x2");
        assert_eq!(Config::new(4, 4, 2).total_tiles(), 32);
    }

    #[test]
    #[should_panic(expected = "4 FPGAs")]
    fn more_than_four_fpgas_rejected() {
        Config::new(5, 1, 1);
    }

    #[test]
    #[should_panic(expected = "DDR4")]
    fn more_than_four_nodes_per_fpga_rejected() {
        Config::new(1, 5, 1);
    }

    #[test]
    fn rack_configs_span_beyond_one_instance() {
        let eth = Config::rack(64, 1, 1, Topology::Ethernet(EthParams::default()));
        assert_eq!(eth.total_nodes(), 64);
        assert!(!eth.topology.pcie_linked(0, 1), "pure Ethernet has no PCIe links");
        let hy = Config::rack(
            16,
            1,
            1,
            Topology::Hybrid(EthParams { group_size: 4, ..Default::default() }),
        );
        assert!(hy.topology.pcie_linked(0, 3), "same instance keeps PCIe");
        assert!(!hy.topology.pcie_linked(3, 4), "cross-instance rides Ethernet");
    }

    #[test]
    #[should_panic(expected = "PCIe-linked")]
    fn hybrid_groups_cannot_exceed_pcie_reach() {
        Config::rack(16, 1, 1, Topology::Hybrid(EthParams { group_size: 8, ..Default::default() }));
    }

    #[test]
    #[should_panic(expected = "256 FPGAs")]
    fn racks_cap_at_pcie_endpoint_width() {
        Config::rack(257, 1, 1, Topology::Ethernet(EthParams::default()));
    }

    #[test]
    fn default_homing_is_partitioned() {
        let c = Config::new(2, 1, 2);
        match c.homing_mode() {
            HomingMode::Partitioned { dram_base, bytes_per_node } => {
                assert_eq!(dram_base, DRAM_BASE);
                assert_eq!(bytes_per_node, c.params.bytes_per_node);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

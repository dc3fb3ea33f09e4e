//! # smappic-core — the SMAPPIC platform
//!
//! The paper's primary contribution: a scalable multi-FPGA prototype
//! platform. A prototype is described in **AxBxC** notation — A FPGAs,
//! B nodes per FPGA, C tiles per node (Fig 1) — and assembled from the
//! substrate crates:
//!
//! - each [`Node`] is a BYOC instance: a tile mesh (`smappic-noc`,
//!   `smappic-tile`, `smappic-coherence`) plus a chipset with the NoC-AXI4
//!   memory controller (`smappic-mem`), two UART16550s tunneled over
//!   AXI-Lite (§3.4.1), a virtual SD controller (§3.4.2), a CLINT with the
//!   interrupt packetizer (§3.3), and the inter-node bridge (§3.1, Fig 4),
//! - each [`Fpga`] hosts up to four nodes (one DDR4 controller each — the
//!   F1 limit), an AXI crossbar binding co-located nodes, and the AWS Hard
//!   Shell,
//! - the [`Platform`] connects up to four FPGAs with PCIe links (1250 ns
//!   round trip) and models the host: console access, program loading,
//!   disk-image injection, and run control,
//! - [`resources`] is the Table 4 synthesis model (LUT utilization and
//!   achievable frequency per configuration).
//!
//! ```no_run
//! use smappic_core::{Config, Platform};
//!
//! // A 1x1x2 prototype (the paper's GNG case-study shape).
//! let mut platform = Platform::new(Config::new(1, 1, 2));
//! platform.run(1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod bridge;
mod chipset;
mod codec;
mod config;
mod fpga;
mod node;
mod platform;
mod plic;
pub mod resources;
mod uart;
mod watchdog;

pub use bisect::{bisect_first_divergence, BisectReport};
pub use bridge::{addr_dst, addr_src, bridge_addr, InterNodeBridge, NODE_WINDOW};
pub use chipset::{Chipset, Clint};
pub use codec::{decode_packet, encode_packet};
pub use config::{
    Config, FaultSpec, SystemParams, Topology, CLINT_BASE, DRAM_BASE, GNG_MMIO_BASE,
    MAPLE_MMIO_BASE, PLIC_BASE, SD_CTL_BASE, SD_DATA_BASE, UART0_BASE, UART1_BASE,
};
pub use fpga::Fpga;
pub use node::Node;
pub use platform::{HostPerf, Platform};
pub use plic::{Plic, PLIC_SRC_UART0, PLIC_SRC_UART1};
pub use uart::{HostSerial, Uart16550};
pub use watchdog::{FaultReport, Watchdog, WatchdogConfig};

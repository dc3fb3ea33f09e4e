//! # SMAPPIC — Scalable Multi-FPGA Architecture Prototype Platform (in Rust)
//!
//! A from-scratch, cycle-level reproduction of the SMAPPIC platform
//! (Chirkov & Wentzlaff, ASPLOS 2023). This facade crate re-exports the
//! workspace crates under stable module names; see the README for a tour and
//! DESIGN.md for the system inventory.
//!
//! ```
//! // The facade re-exports every subsystem:
//! use smappic::sim::SimRng;
//! let mut rng = SimRng::new(1);
//! assert_ne!(rng.next_u64(), 0);
//! ```

#![forbid(unsafe_code)]

/// Simulation kernel: credit-accounted ports, shapers, RNG, statistics.
pub use smappic_sim as sim;

/// Network-on-Chip: routers, mesh, NoC protocol messages.
pub use smappic_noc as noc;

/// AXI4/AXI-Lite transaction models, crossbar, Hard Shell, PCIe links.
pub use smappic_axi as axi;

/// DRAM model and the NoC-AXI4 memory controller.
pub use smappic_mem as mem;

/// BPC private caches and the directory-MESI LLC with SMAPPIC homing.
pub use smappic_coherence as coherence;

/// RV64IMA interpreter and assembler.
pub use smappic_isa as isa;

/// TRI interface, core models, and tile assembly.
pub use smappic_tile as tile;

/// GNG and MAPLE accelerators.
pub use smappic_accel as accel;

/// The SMAPPIC platform itself: configurations, nodes, FPGAs, host.
pub use smappic_core as platform;

/// Workload generators and guest programs.
pub use smappic_workloads as workloads;

/// Cloud cost and FPGA resource models.
pub use smappic_costmodel as costmodel;

/// Multi-tenant prototyping service: job specs, scheduler, reports.
pub use smappic_service as service;

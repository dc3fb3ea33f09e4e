//! # smappic-mem — DRAM and the SMAPPIC NoC-AXI4 memory controller
//!
//! F1 gives Custom Logic four DDR4 controllers that speak AXI4, but BYOC's
//! native memory controller does not (§3.2). SMAPPIC therefore introduces a
//! **NoC-AXI4 memory controller** (Fig 5 of the paper): NoC requests are
//! deserialized, buffered in a management module for non-blocking operation,
//! steered into read/write engines that allocate AXI IDs and record
//! MSHR/origin state, aligned to 64-byte boundaries, and issued to DRAM;
//! responses restore the original request context and are serialized back
//! onto the NoC.
//!
//! This crate provides both ends of that path:
//!
//! - [`Dram`] — a sparse, byte-addressed backing store behind a
//!   latency + bandwidth traffic shaper (Table 2: 80-cycle DRAM latency),
//!   with a functional backdoor for host-side program loading,
//! - [`MemController`] — the Fig 5 pipeline, serving cache-line fills and
//!   writebacks ([`Msg::MemRd`]/[`Msg::MemWr`]) as well as non-cacheable
//!   accesses that bypass the cache hierarchy (the virtual SD card region,
//!   §3.4.2).
//!
//! [`Msg::MemRd`]: smappic_noc::Msg::MemRd
//! [`Msg::MemWr`]: smappic_noc::Msg::MemWr

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod dram;

pub use controller::{MemController, MemControllerConfig};
pub use dram::{Dram, DramConfig, DramPage, PAGE_SHIFT, PAGE_SIZE};

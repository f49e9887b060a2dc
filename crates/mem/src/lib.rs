//! # dsa-mem — memory-system model
//!
//! Models the parts of a Sapphire-Rapids-class (and Ice-Lake-class) memory
//! system that the DSA paper's experiments exercise:
//!
//! * [`buffer`] — simulated virtual address space, buffer allocation with a
//!   declared [`Location`] (local/remote DRAM, CXL, LLC)
//!   and page size, with *real* backing bytes so operations stay functional.
//! * [`topology`] — platform presets reproducing Table 2 of the paper
//!   (SPR: 56 cores, 105 MB LLC, 8×DDR5; ICX: 40 cores, 57 MB LLC, 6×DDR4)
//!   plus all calibrated latency/bandwidth parameters.
//! * [`cache`] — a set-associative LLC with way partitioning (CAT) and
//!   dedicated DDIO ways, with per-agent occupancy accounting (paper
//!   Fig. 12) and a leaky-DMA overflow tracker (paper Fig. 10).
//! * [`translate`] — page tables, core TLB / device ATC models, IOMMU page
//!   walks, 4 KiB vs 2 MiB pages (paper Fig. 8), and page-fault costs.
//! * [`memsys`] — the central timing façade: bandwidth-shaped, latency-
//!   annotated reads/writes against every location, shared by the CPU
//!   software baselines and the device models.
//!
//! Timing is *transaction-level and calibrated*, not cycle-accurate; see
//! `DESIGN.md` §1 for what each simplification preserves.
//!
//! ```
//! use dsa_mem::{Memory, MemSystem, Platform};
//! use dsa_mem::buffer::Location;
//! use dsa_mem::memsys::{AgentId, WritePolicy};
//! use dsa_sim::SimTime;
//!
//! let mut memory = Memory::new();
//! let mut memsys = MemSystem::new(Platform::spr());
//! let buf = memory.alloc(4096, Location::local_dram());
//! memory.write(buf.addr(), b"hello").unwrap();
//!
//! // Timing: a 4 KiB read of local DRAM costs bandwidth + latency.
//! let iv = memsys.read(AgentId::core(0), Location::local_dram(), SimTime::ZERO, 4096);
//! assert!(iv.end.as_ns_f64() > 100.0);
//! let w = memsys.write(AgentId::core(0), Location::local_dram(), iv.end, 4096,
//!                      WritePolicy::Memory);
//! assert!(w.interval.end > iv.end);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod agent;
pub mod buffer;
pub mod cache;
pub mod memory;
pub mod memsys;
pub mod topology;
pub mod translate;

pub use agent::AgentId;
pub use buffer::{AddressSpace, Location, SimBuffer};
pub use memory::{BufferHandle, MemError, Memory};
pub use memsys::MemSystem;
pub use topology::Platform;

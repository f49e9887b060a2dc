//! # dsa-device — the accelerator models
//!
//! Transaction-level, functionally-exact models of:
//!
//! * [`device::DsaDevice`] — one Intel DSA instance: portals, dedicated and
//!   shared work queues, flexible groups with processing engines, batch
//!   processing, the ATC/IOMMU translation path, page-fault semantics,
//!   cache-control write steering, and PCM-style telemetry.
//! * [`cbdma::CbdmaDevice`] — the Ice Lake CBDMA predecessor (memory-ring
//!   descriptors, pinning requirement, no batching), the paper's §4.2
//!   comparison baseline.
//!
//! Descriptors and completion records ([`descriptor`]) follow the DSA
//! architecture specification's shapes; configurations ([`config`]) are
//! validated with the IDXD driver's rules; all timing constants live in
//! [`timing`] with their calibration anchors documented.
//!
//! ```rust
//! use dsa_device::config::DeviceConfig;
//! use dsa_device::descriptor::Descriptor;
//! use dsa_device::device::{DsaDevice, WqId};
//! use dsa_mem::{buffer::Location, memory::Memory, memsys::MemSystem, topology::Platform};
//! use dsa_sim::SimTime;
//!
//! let platform = Platform::spr();
//! let mut memory = Memory::new();
//! let mut memsys = MemSystem::new(platform.clone());
//! let mut dev = DsaDevice::new(0, DeviceConfig::single_engine(), &platform);
//!
//! let src = memory.alloc(4096, Location::local_dram());
//! let dst = memory.alloc(4096, Location::local_dram());
//! memory.write(src.addr(), &[0xAB; 4096]).unwrap();
//! memsys.page_table_mut().map_range(src.addr(), 4096, dsa_mem::buffer::PageSize::Base4K);
//! memsys.page_table_mut().map_range(dst.addr(), 4096, dsa_mem::buffer::PageSize::Base4K);
//!
//! let desc = Descriptor::memmove(src.addr(), dst.addr(), 4096);
//! let exec = dev.submit(&mut memory, &mut memsys, WqId(0), &desc, SimTime::ZERO).unwrap();
//! assert!(exec.record.status.is_ok());
//! assert_eq!(memory.read(dst.addr(), 4096).unwrap()[0], 0xAB);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cbdma;
pub mod config;
pub mod descriptor;
pub mod device;
pub mod timing;

pub use config::{DeviceCaps, DeviceConfig, GroupConfig, WqConfig, WqMode};
pub use descriptor::{BatchDescriptor, CompletionRecord, Descriptor, Flags, Opcode, Status};
pub use device::{DsaDevice, Execution, SubmitError, WqId};
pub use timing::{CbdmaTiming, DsaTiming};

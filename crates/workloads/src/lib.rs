//! # dsa-workloads — applications around the DSA library
//!
//! Rebuilds the application-level studies of the paper:
//!
//! * [`xmem`] — X-Mem latency probes under co-running copy traffic
//!   (Figs. 12/13, §4.5).
//! * [`vhost`] — the DPDK-Vhost VirtIO backend with batched asynchronous
//!   DSA packet-copy offload and in-order delivery (Fig. 16, §6.4).
//! * [`cachesvc`] — a CacheLib-style caching service whose `memcpy`s route
//!   through the transparent-offload layer (Fig. 19, Appendix B).
//! * [`nvmetcp`] — an SPDK-style NVMe/TCP target with CRC32 Data Digest
//!   offload (Fig. 21, Appendix C).
//! * [`fabric`] — libfabric-style SAR messaging: pingpong, RMA, and
//!   AllReduce with copy offload (Fig. 17, Appendix A).
//! * [`migration`] — VM live migration with delta-record shipping (§5's
//!   "datacenter tax": VM/container migration offload).

//!
//! All workloads pick their data mover through the shared
//! [`dsa_core::backend::Engine`] (or a [`dsa_core::dispatch::DispatchPolicy`]
//! where routing is per-call) instead of per-workload engine enums.
//!
//! ```
//! use dsa_core::backend::Engine;
//! use dsa_core::runtime::DsaRuntime;
//! use dsa_workloads::vhost::{Virtqueue, Vhost};
//! use dsa_mem::buffer::Location;
//!
//! let mut rt = DsaRuntime::spr_default();
//! let vq = Virtqueue::new(&mut rt, 16, 2048);
//! let mut vhost = Vhost::new(vq, Engine::Dsa { device: 0, wq: 0 });
//! let pkt = rt.alloc(2048, Location::Llc);
//! rt.fill_pattern(&pkt, 0x42);
//! vhost.enqueue_burst(&mut rt, &[(pkt, 1024)]).unwrap();
//! vhost.drain(&mut rt);
//! assert_eq!(vhost.stats().delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cachesvc;
pub mod fabric;
pub mod migration;
pub mod nvmetcp;
pub mod vhost;
pub mod xmem;

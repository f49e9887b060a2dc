//! # dsa-core — the user-facing DSA library
//!
//! The layer a program links against, mirroring the real software
//! ecosystem the paper describes (§3.3, §5):
//!
//! | Real component      | Here                                            |
//! |---------------------|-------------------------------------------------|
//! | `libaccel-config`   | [`config::AccelConfig`] — validated group/WQ/engine setup |
//! | DML (Data Mover Library) | [`job::Job`], [`job::Batch`], [`job::AsyncQueue`] |
//! | `MOVDIR64B`/`ENQCMD`/`UMWAIT` | [`submit`] — submission & wait models |
//! | Guidelines G1–G6    | [`guidelines`] — executable advisors            |
//! | DML hardware/software paths | [`backend::DsaBackend`] — the device pool; [`runtime::DsaRuntime::cpu_op`] — the same op on the core |
//! | G2/G3 as live policy | [`dispatch::Dispatcher`] — per-call CPU/DSA routing |
//! | DTO (transparent offload) | [`dispatch::DispatchPolicy::Threshold`] — threshold-routed `mem*` calls |
//! | Pre-allocated descriptors (Fig. 5) | [`job::Job::count_alloc`] — off by default, so no allocation cost is charged |
//! | Replay verification  | [`digest::Fnv1a`] / [`digest::Digestible`] — the one FNV-1a digest primitive |
//!
//! Everything runs against a [`runtime::DsaRuntime`]: the simulated SPR
//! (or ICX) platform with its memory system and DSA instances.
//!
//! ```
//! use dsa_core::prelude::*;
//! use dsa_mem::buffer::Location;
//!
//! let mut rt = DsaRuntime::spr_default();
//! let src = rt.alloc(16 << 10, Location::local_dram());
//! let dst = rt.alloc(16 << 10, Location::local_dram());
//! rt.fill_random(&src);
//!
//! // Synchronous offload…
//! let report = Job::memcpy(&src, &dst).execute(&mut rt)?;
//! assert!(report.record.status.is_ok());
//!
//! // …or queue-depth-32 asynchronous streaming.
//! let mut q = AsyncQueue::new(32);
//! for _ in 0..100 {
//!     q.submit(&mut rt, Job::memcpy(&src, &dst))?;
//! }
//! q.drain(&mut rt);
//! # Ok::<(), dsa_core::DsaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod backend;
pub mod config;
pub mod digest;
pub mod dispatch;
pub mod error;
pub mod guidelines;
pub mod job;
pub mod runtime;
pub mod submit;

/// The types most programs need.
pub mod prelude {
    pub use crate::backend::{DsaBackend, Engine, PoolPolicy};
    pub use crate::config::AccelConfig;
    pub use crate::digest::{Digestible, Fnv1a};
    pub use crate::dispatch::{Decision, DispatchPolicy, DispatchStats, Dispatcher};
    pub use crate::error::DsaError;
    pub use crate::job::{AsyncQueue, Batch, Job, JobReport};
    pub use crate::runtime::{DsaRuntime, RuntimeBuilder};
    pub use crate::submit::{SubmitMethod, WaitMethod};
    pub use dsa_device::descriptor::Status;
}

pub use error::DsaError;
pub use job::{AsyncQueue, Batch, Job, JobHandle, JobReport};
pub use runtime::DsaRuntime;

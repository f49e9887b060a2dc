//! # dsa-repro — umbrella crate
//!
//! Re-exports the workspace crates that reproduce the ASPLOS'24 paper
//! *"A Quantitative Analysis and Guideline of Data Streaming Accelerator in
//! Intel 4th Gen Xeon Scalable Processors"*. See `README.md` for the tour and
//! `DESIGN.md` for the system inventory.
//!
//! ```
//! use dsa_repro::prelude::*;
//!
//! // Build an SPR-like platform with one DSA instance and copy 64 KiB.
//! let mut rt = DsaRuntime::spr_default();
//! let src = rt.alloc(65536, Location::local_dram());
//! let dst = rt.alloc(65536, Location::local_dram());
//! rt.fill_pattern(&src, 0xA5);
//! let report = Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
//! assert!(report.record.status.is_ok());
//! assert!(report.elapsed().as_ns_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use dsa_bench as bench;
pub use dsa_core as core;
pub use dsa_ctl as ctl;
pub use dsa_device as device;
pub use dsa_mem as mem;
pub use dsa_ops as ops;
pub use dsa_sim as sim;
pub use dsa_svc as svc;
pub use dsa_workloads as workloads;

/// Convenient glob-import surface used by the examples.
///
/// One `use dsa_repro::prelude::*;` brings in the runtime and job API
/// ([`DsaRuntime`](dsa_core::runtime::DsaRuntime), `Job`, `Batch`,
/// `AsyncQueue`), where operations run (`Engine`, the `DsaBackend` device
/// pool, and the `Dispatcher` with its `DispatchPolicy`), configuration
/// (`AccelConfig`, the [`presets`] module, `DeviceConfig`/`DeviceCaps`),
/// the guideline advisors ([`guidelines`]), operation kinds
/// ([`OpKind`]), the service layer (`DsaService`,
/// `TenantSpec`, …), the plan/SLO objects and the `dsa-ctl` control
/// plane (`Plan`, `PlanSpec`, `SloTarget`, `Governor`), measurement
/// helpers (`Measure`/`Mode`), and the simulated clock
/// (`SimTime`/`SimDuration`).
pub mod prelude {
    pub use dsa_bench::{Measure, Mode, Sweep};
    pub use dsa_core::config::presets;
    pub use dsa_core::guidelines;
    pub use dsa_core::prelude::*;
    pub use dsa_ctl::prelude::{
        ControlReport, ControllerConfig, Decision, GovernedFleet, Governor,
    };
    pub use dsa_device::config::{DeviceCaps, DeviceConfig};
    pub use dsa_mem::buffer::Location;
    pub use dsa_ops::OpKind;
    pub use dsa_sim::{SimDuration, SimTime};
    pub use dsa_svc::prelude::{
        Arrival, DsaService, Fleet, FleetConfig, FleetReport, JobOutcome, Plan, PlanSpec,
        PoolPolicy, QosClass, ServiceBuilder, ServiceConfig, ServiceReport, ShardAssignment,
        ShardPlan, ShardReport, SloTarget, SloViolation, TenantProfile, TenantSpec,
        TransitionCosts,
    };
}

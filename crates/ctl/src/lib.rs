//! # dsa-ctl — the SLO-driven control plane
//!
//! The service layer (`dsa-svc`) answers *how a chosen plan behaves*;
//! this crate closes the loop on *which plan to run*. A [`Governor`]
//! watches a live [`DsaService`](dsa_svc::service::DsaService) through
//! per-epoch deltas of each tenant's own
//! [`TenantStats`](dsa_svc::tenant::TenantStats) (it reads no telemetry:
//! this crate does not depend on `dsa-telemetry`), detects pressure
//! against the service's typed [`SloTarget`](dsa_svc::slo::SloTarget),
//! generates candidate reconfigurations over the first-class
//! [`Plan`](dsa_svc::plan::Plan) API (re-carved groups/WQs, shifted
//! read buffers, tenant promotions), scores each with a deterministic
//! **digital twin** — a cheap forked replay of the remaining workload —
//! and applies the winner through the live plan-transition path, with a
//! hysteresis margin damping thrash.
//!
//! Determinism is load-bearing: every observation, twin score, and
//! [`Decision`] is a pure function of simulation state and seeds, and
//! the decision sequence folds into the replay digest
//! ([`ControlReport::digest`]). Same seed ⇒ bit-identical closed-loop
//! run, across fleet thread counts ([`GovernedFleet`]); no decisions ⇒
//! the digest of the ungoverned run, bit for bit.
//!
//! ```
//! use dsa_ctl::prelude::*;
//! use dsa_svc::prelude::*;
//!
//! let cfg = ServiceConfig::builder()
//!     .plan(PlanSpec::Shared)
//!     .slo(SloTarget::new().with_deadline_miss_frac(0.05))
//!     .tenant(
//!         TenantSpec::new("latency", 4 << 10, 60)
//!             .with_class(QosClass::Latency)
//!             .with_deadline(SimDuration::from_us(50))
//!             .with_arrival(Arrival::open(SimDuration::from_us(2))),
//!     )
//!     .tenant(TenantSpec::new("bulk", 256 << 10, 40))
//!     .build()?;
//! let mut svc = DsaService::from_config(cfg)?;
//! let ctl = Governor::new(ControllerConfig::default()).govern(&mut svc);
//! assert_eq!(ctl.report.offered(), 100);
//! // Same seed ⇒ same decisions ⇒ same digest (bit-identical replay).
//! # Ok::<(), dsa_core::DsaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod candidates;
pub mod controller;
pub mod decision;
pub mod fleet;

pub use controller::{ControllerConfig, Governor, Observation};
pub use decision::{ControlReport, Decision};
pub use fleet::{GovernedFleet, GovernedFleetReport};

/// The types most control-plane programs need.
pub mod prelude {
    pub use crate::controller::{ControllerConfig, Governor, Observation};
    pub use crate::decision::{ControlReport, Decision};
    pub use crate::fleet::{GovernedFleet, GovernedFleetReport};
}

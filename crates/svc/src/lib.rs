//! # dsa-svc — the multi-tenant DSA service layer
//!
//! The paper's §3.4/§4.1 QoS knobs (dedicated vs shared WQs, group/engine
//! partitioning) answer *how hardware arbitrates* once descriptors are
//! enqueued. This crate supplies the missing software half: a
//! [`DsaService`] that owns a [`DsaRuntime`](dsa_core::runtime::DsaRuntime)
//! and multiplexes N tenant job streams over it with explicit policy:
//!
//! * **Arrival generation** ([`Arrival`]) — seeded open-loop (Poisson) or
//!   closed-loop streams on the simulated timeline; no wall clock anywhere.
//! * **Admission control** ([`TokenBucket`]) — per-tenant rate/burst
//!   metering plus a max-outstanding in-flight window, so a tenant's burst
//!   is bounded before it reaches the portal.
//! * **Placement** ([`Plan`] / [`PlanSpec`]) — tenants map onto dedicated
//!   WQs, one shared WQ, by QoS class ([`QosClass`]), or any explicit
//!   layout built through [`Plan::builder`]; the service builds the
//!   matching device configuration itself, and a live service can
//!   [`transition`](DsaService::transition) between plans with the stall
//!   priced by [`Plan::diff`].
//! * **Objectives** ([`SloTarget`]) — typed p99 / miss-rate / fairness
//!   targets on the config; [`ServiceReport::slo_violations`] and the
//!   `dsa-ctl` control plane both check against the same object.
//! * **Deadlines and bounded retry** — jobs whose queueing delay exceeds
//!   their deadline are shed
//!   ([`DsaError::DeadlineExceeded`](dsa_core::DsaError)); `WqFull` portal
//!   rejections retry with exponential backoff until a budget runs out
//!   ([`DsaError::RetryExhausted`](dsa_core::DsaError)).
//! * **Graceful degradation** — exhausted submissions optionally complete
//!   on the cores (the runtime's CPU cost model), so saturation degrades
//!   throughput instead of correctness.
//! * **Fairness accounting** ([`ServiceReport`]) — per-tenant latency
//!   percentiles plus a Jain index over accelerator-served shares, with an
//!   FNV digest for bit-identical replay checks.
//!
//! Services are timing-only: [`DsaService::from_config`], which twins and
//! fleet shards go through too, builds a runtime whose tenant buffers are
//! placed and timed but hold no bytes. Byte exactness is tested below the
//! service: `cpu_and_device_agree_op_by_op` and the ops and memory property
//! tests; this crate's unit tests replay services against a backed one.
//!
//! ```
//! use dsa_svc::prelude::*;
//!
//! let cfg = ServiceConfig::builder()
//!     .plan(PlanSpec::ByClass)
//!     .tenant(
//!         TenantSpec::new("latency", 4 << 10, 40)
//!             .with_class(QosClass::Latency)
//!             .with_arrival(Arrival::open(SimDuration::from_us(2))),
//!     )
//!     .tenant(TenantSpec::new("bulk", 64 << 10, 40))
//!     .build()?;
//! let mut svc = DsaService::from_config(cfg)?;
//! let report = svc.run();
//! assert_eq!(report.tenants[0].offered, 40);
//! assert!(report.fairness > 0.0 && report.fairness <= 1.0);
//! // Same config ⇒ bit-identical digest.
//! # Ok::<(), dsa_core::DsaError>(())
//! ```
//!
//! At rack scale, [`Fleet`] shards the tenant space across N sockets × M
//! DSA devices, runs one isolated `DsaService` per shard (optionally on K
//! threads), and proves the parallel run bit-identical to a sequential
//! replay through per-shard digests merged in shard order.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod actionq;
pub mod admission;
pub mod arrival;
pub mod fleet;
pub mod plan;
pub mod service;
pub mod shard;
pub mod slo;
pub mod tenant;

pub use admission::TokenBucket;
pub use arrival::Arrival;
pub use fleet::{Fleet, FleetConfig, FleetReport, ShardReport, TenantProfile};
pub use plan::{
    Plan, PlanBuilder, PlanDelta, PlanGroup, PlanSpec, PlanWq, TransitionCosts, Wiring,
};
pub use service::{
    DsaService, JobOutcome, PlanTransition, ServiceBuilder, ServiceConfig, ServiceReport, Session,
};
pub use shard::{ShardAssignment, ShardPlan};
pub use slo::{SloTarget, SloViolation};
pub use tenant::{QosClass, TenantReport, TenantSpec, TenantStats};

/// The types most service-layer programs need.
pub mod prelude {
    pub use crate::admission::TokenBucket;
    pub use crate::arrival::Arrival;
    pub use crate::fleet::{Fleet, FleetConfig, FleetReport, ShardReport, TenantProfile};
    pub use crate::plan::{Plan, PlanDelta, PlanSpec, TransitionCosts};
    pub use crate::service::{
        DsaService, JobOutcome, PlanTransition, ServiceBuilder, ServiceConfig, ServiceReport,
        Session,
    };
    pub use crate::shard::{ShardAssignment, ShardPlan};
    pub use crate::slo::{SloTarget, SloViolation};
    pub use crate::tenant::{QosClass, TenantReport, TenantSpec, TenantStats};
    pub use dsa_core::backend::PoolPolicy;
    pub use dsa_sim::time::{SimDuration, SimTime};
}

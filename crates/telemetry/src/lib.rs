//! Unified observability for the DSA reproduction: descriptor lifecycle
//! **spans**, a labelled **metrics registry**, and **exporters**.
//!
//! The paper's methodology is observability: it reads PCM hardware
//! counters to chart per-DSA traffic (§5) and decomposes offload latency
//! into software/queueing/processing phases (Fig. 5). This crate gives
//! the model stack one shared sink for the same signals:
//!
//! * [`Hub`] — a cheaply cloneable handle the runtime and workloads hold
//!   (devices hold none); single-threaded interior mutability matches
//!   the deterministic simulation.
//! * [`record`] — the one fixed-size [`JobRecord`] the job layer writes
//!   per job. Every view below is derived from the records when read.
//! * [`span`] — per-descriptor lifecycle spans (submit → WQ wait →
//!   address translate → read → write → completion record) plus generic
//!   named spans for jobs and workload stages.
//! * [`metrics`] — counters and log-linear histograms
//!   (p50/p90/p99/p999) keyed by device/WQ/PE labels, plus utilization
//!   time series (WQ depth, PE occupancy).
//! * [`causal`] — critical-path attribution: per-job critical paths
//!   attributed to typed segments, and per-tenant/WQ [`CritPathProfile`]
//!   breakdowns.
//! * [`export`] — Chrome trace-event JSON loadable in Perfetto /
//!   `chrome://tracing` (with causal flow arrows), flamegraph-style
//!   folded stacks, a machine-readable metrics CSV, and a PCM-style
//!   text dashboard.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod causal;
pub mod export;
pub mod hub;
pub mod metrics;
pub mod record;
pub mod span;

pub use causal::{Breakdown, CritPathProfile, JobTrace, SegmentKind, SegmentStat};
pub use export::{chrome_trace_json, folded_stacks, metrics_csv, pcm_dashboard};
pub use hub::{Hub, StepContext};
pub use metrics::{Labels, Metric, Metrics};
pub use record::{JobRecord, RecordKind};
pub use span::{DescriptorSpan, Event, Phase, Span, Track};

//! # dsa-sim — deterministic simulation substrate
//!
//! The building blocks every other crate in this workspace stands on:
//!
//! * [`time`] — picosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) with exact integer arithmetic, so every experiment is
//!   bit-for-bit reproducible.
//! * [`timeline`] — *resource timelines*: contended resources (a processing
//!   engine, a memory channel, the I/O fabric, a submission port) served in
//!   ready-time order. Queueing, saturation, and pipelining emerge from
//!   chained reservations instead of being hand-coded per experiment.
//! * [`stats`] — counters, log-linear latency histograms with exact
//!   percentiles (up to p99.999), and time-series samplers.
//! * [`rng`] — a small, seedable, splittable PRNG (SplitMix64) so inner-loop
//!   simulation code stays deterministic and dependency-free.
//!
//! # Example
//!
//! ```rust
//! use dsa_sim::time::{SimTime, SimDuration};
//! use dsa_sim::timeline::Timeline;
//!
//! // A single-server resource: requests queue in ready order.
//! let mut port = Timeline::new();
//! let a = port.reserve(SimTime::ZERO, SimDuration::from_ns(100));
//! let b = port.reserve(SimTime::ZERO, SimDuration::from_ns(100));
//! assert_eq!(a.end, SimTime::from_ns(100));
//! assert_eq!(b.start, SimTime::from_ns(100)); // queued behind `a`
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;

pub use time::{SimDuration, SimTime};

//! # dsa-bench — experiment harnesses
//!
//! One bench target per table/figure of the paper (see `DESIGN.md` §5 for
//! the index). Each target is a `harness = false` binary that prints the
//! figure's rows/series; `cargo bench` runs them all. [`measure`] holds the
//! shared measurement machinery; [`sweep`] the grid-shaped experiment
//! builder most figure harnesses use; [`table`] the output formatting.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod measure;
pub mod sweep;
pub mod table;

pub use measure::{Measure, MeasureResult, Mode};
pub use sweep::Sweep;

//! R6 two-hop corpus, hop 0: a simulation entry point.
//!
//! Spotless itself: no wall clocks, no hash containers. The
//! nondeterminism is two calls away, in `leaf_hash`. Clippy does not
//! follow the calls; it bans the source in every crate, so no simulation
//! function can reach one.

use super::relay_fixture::relay_delay;

/// Picks the next event delay, through `relay_delay`, from the
/// hash-iterating leaf.
pub fn schedule_next(seed: u64) -> u64 {
    relay_delay(seed)
}

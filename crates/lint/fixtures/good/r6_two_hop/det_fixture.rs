//! Good twin of the R6 two-hop corpus, hop 0. Same shape as the bad
//! chain; the leaf is deterministic.

use super::relay_fixture::relay_delay;

/// Same entry point as the bad corpus; must stay silent.
pub fn schedule_next(seed: u64) -> u64 {
    relay_delay(seed)
}

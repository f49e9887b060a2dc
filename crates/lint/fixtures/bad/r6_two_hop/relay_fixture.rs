//! R6 two-hop corpus, hop 1: an innocent-looking helper that forwards to
//! the leaf. Nothing here is a source; it must stay silent.

use super::leaf_hash::coarse_stamp;

/// Forwards to the leaf.
pub fn relay_delay(seed: u64) -> u64 {
    coarse_stamp(seed) | 1
}

//! Good twin of the R6 two-hop corpus, hop 1.

use super::leaf_hash::coarse_stamp;

/// Forwards to the ordered leaf.
pub fn relay_delay(seed: u64) -> u64 {
    coarse_stamp(seed) | 1
}

//! Good twin of the R6 two-hop corpus, hop 2. Identical fold, but over a
//! `BTreeMap`, whose iteration order is defined.

use std::collections::BTreeMap;

/// Folds a map in key order — the same u64 every run.
pub fn coarse_stamp(seed: u64) -> u64 {
    let mut m = BTreeMap::new();
    m.insert(seed, seed ^ 0x9e37_79b9);
    m.insert(seed.rotate_left(7), seed);
    let mut acc = 0u64;
    for (k, v) in m.iter() {
        acc = acc.wrapping_mul(31).wrapping_add(k ^ v);
    }
    acc
}

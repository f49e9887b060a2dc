//! R6 two-hop corpus, hop 2, the source: iterates a `HashMap`. dsa-lint
//! allowed this outside the simulation core and needed a call graph to
//! see a simulation function reach it; `disallowed_types` flags it here.

use std::collections::HashMap;

/// Folds a map in iteration order — a different u64 per process run.
pub fn coarse_stamp(seed: u64) -> u64 {
    let mut m = HashMap::new();
    m.insert(seed, seed ^ 0x9e37_79b9);
    m.insert(seed.rotate_left(7), seed);
    let mut acc = 0u64;
    for (k, v) in m.iter() {
        acc = acc.wrapping_mul(31).wrapping_add(k ^ v);
    }
    acc
}

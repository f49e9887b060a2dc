// Fixture: R1 — clippy's disallowed_types must flag unordered hash
// containers.
use std::collections::HashMap;
use std::collections::HashSet;

fn build() -> (HashMap<u32, u32>, HashSet<u32>) {
    (HashMap::new(), HashSet::new())
}

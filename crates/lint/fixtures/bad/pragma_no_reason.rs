// Fixture: a reasonless pragma still suppresses, but is itself flagged.
fn nanos(ns_f64: f64) -> u64 {
    // dsa-lint: allow(float-cast)
    ns_f64 as u64
}

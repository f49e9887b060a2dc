// Fixture: documented pragmas silence their rule without other findings.
fn percentile_rank(samples: u64, q: f64) -> u64 {
    // dsa-lint: allow(float-cast, a percentile rank is a count, not a time)
    (samples as f64 * q) as u64
}

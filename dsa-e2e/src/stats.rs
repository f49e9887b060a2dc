//! The benchmark's one wall clock and the order statistics it reports.

/// Wall-clock seconds spent in `f`, alongside its result. The only clock
/// the benchmark reads: the rep loop's time budget is the sum of these
/// intervals, so nothing else needs `Instant`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // dsa-lint: allow(nondeterminism, the benchmark measures host wall time around deterministic simulation calls)
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// First quartile, median and third quartile of `xs`, by the same rule
/// as Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the spread the benchmark reports is the spread a reader
/// recomputes from its samples. One sample gives that sample three times.
///
/// # Panics
///
/// Panics on an empty slice: every caller records at least one sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 1 {
        return [d[0]; 3];
    }
    let m = n + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// Median of `xs` (the middle quartile).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// True when a percentile of `count` samples has at least ten samples
/// beyond it, the least the benchmark will report a tail from.
/// `permille` names the percentile in tenths of a percent (990 = p99,
/// 999 = p99.9), which keeps the test in integers.
pub fn tail_ok(count: u64, permille: u64) -> bool {
    count * (1000 - permille) / 1000 >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert!(!tail_ok(999, 990));
        assert!(tail_ok(1_000, 990));
        assert!(!tail_ok(9_999, 999));
        assert!(tail_ok(10_000, 999));
        assert!(tail_ok(20, 500));
        assert!(!tail_ok(19, 500));
    }
}

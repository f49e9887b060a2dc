//! Measurement plumbing: counters, latency histograms, time series.
//!
//! The paper reports averages, throughput curves, latency percentiles up to
//! p99.999 (CacheLib), and occupancy-over-time traces (LLC occupancy). This
//! module provides the corresponding instruments.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A monotonically increasing event/byte counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
    sum: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event carrying `value` (bytes, cycles, …).
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of events recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A log-linear histogram of durations with exact min/max/mean and
/// approximate (bucketed) percentiles.
///
/// Buckets: 64 logarithmic majors (one per leading-bit position of the
/// picosecond value) × 16 linear minors, giving ≤ ~6% relative error —
/// plenty for reproducing figure shapes. Only the window of buckets from
/// the lowest to the highest one ever touched is stored, so an empty
/// histogram allocates nothing and a typical latency histogram holds a
/// few hundred buckets rather than all 1,024.
///
/// ```
/// use dsa_sim::stats::DurationHistogram;
/// use dsa_sim::time::SimDuration;
/// let mut h = DurationHistogram::new();
/// for i in 1..=1000u64 {
///     h.record(SimDuration::from_ns(i));
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0).expect("non-empty").as_ns_f64();
/// assert!((p50 - 500.0).abs() < 40.0, "p50 was {p50}");
/// ```
#[derive(Clone)]
pub struct DurationHistogram {
    /// Bucket index of `buckets[0]`.
    lo: usize,
    /// Counts of buckets `lo..lo + buckets.len()`.
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    min: SimDuration,
    max: SimDuration,
}

const MINORS: usize = 16;
const MAJORS: usize = 64;

impl DurationHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            lo: 0,
            buckets: Vec::new(),
            count: 0,
            sum_ps: 0,
            min: SimDuration::from_ps(u64::MAX),
            max: SimDuration::ZERO,
        }
    }

    fn bucket_index(ps: u64) -> usize {
        if ps < MINORS as u64 {
            return ps as usize;
        }
        let major = 63 - ps.leading_zeros() as usize;
        let shift = major.saturating_sub(4);
        let minor = ((ps >> shift) & 0xF) as usize;
        major * MINORS + minor
    }

    fn bucket_value(index: usize) -> u64 {
        let major = index / MINORS;
        let minor = (index % MINORS) as u64;
        if major < 4 {
            // Small values land in buckets addressed directly by magnitude.
            return index as u64;
        }
        let shift = major - 4;
        ((1u64 << 4) | minor) << shift
    }

    /// The stored count of bucket `index` (0 outside the window).
    fn bucket(&self, index: usize) -> u64 {
        index.checked_sub(self.lo).and_then(|i| self.buckets.get(i)).copied().unwrap_or(0)
    }

    /// Widens the window to cover buckets `lo..=hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.buckets.is_empty() {
            self.lo = lo;
        } else if lo < self.lo {
            self.buckets.splice(0..0, std::iter::repeat_n(0, self.lo - lo));
            self.lo = lo;
        }
        if hi >= self.lo + self.buckets.len() {
            self.buckets.resize(hi - self.lo + 1, 0);
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        let index = Self::bucket_index(ps);
        self.cover(index, index);
        self.buckets[index - self.lo] += 1;
        self.count += 1;
        self.sum_ps += ps as u128;
        if d < self.min {
            self.min = d;
        }
        if d > self.max {
            self.max = d;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (ZERO when empty).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ps((self.sum_ps / self.count as u128) as u64)
    }

    /// The `p`-th percentile (0 < p <= 100), using bucket lower bounds.
    /// Returns `None` for an empty histogram — an empty distribution has
    /// no percentiles, and the old silent-`ZERO` sentinel let callers
    /// mistake "no samples" for "zero latency".
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        self.percentile_detail(p).map(|d| d.value)
    }

    /// Like [`percentile`](Self::percentile), but makes the estimator's
    /// resolution limit explicit: when every sample landed in a single
    /// bucket, the log-linear histogram has no resolution left and every
    /// percentile collapses to the same clamped value
    /// ([`Percentile::saturated`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile_detail(&self, p: f64) -> Option<Percentile> {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
        if self.count == 0 {
            return None;
        }
        let saturated = self.buckets.iter().filter(|&&n| n > 0).count() == 1;
        // dsa-lint: allow(float-cast, percentile rank is a count computation, not timeline math)
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let value = if rank >= self.count {
            self.max
        } else {
            let mut seen = 0u64;
            let mut value = self.max;
            for (i, &n) in self.buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    let lower = Self::bucket_value(self.lo + i);
                    value = SimDuration::from_ps(lower).min(self.max).max(self.min);
                    break;
                }
            }
            value
        };
        Some(Percentile { value, saturated })
    }

    /// The distribution of samples recorded since `earlier` was snapshot
    /// from this histogram: bucketwise `self - earlier`, with count/sum
    /// recomputed from the delta buckets.
    ///
    /// `earlier` must be a past snapshot (clone) of this histogram —
    /// histograms only ever grow, so every delta bucket is non-negative;
    /// unrelated histograms give a meaningless (saturating) result. The
    /// exact per-sample min/max are not recoverable from buckets alone,
    /// so the delta's min/max are the tightest *bucket bounds* containing
    /// the window's samples (clamped into the parent's observed range) —
    /// good enough for the percentile queries windows exist to serve.
    pub fn delta_since(&self, earlier: &DurationHistogram) -> DurationHistogram {
        let mut out = DurationHistogram::new();
        for (offset, &now) in self.buckets.iter().enumerate() {
            let i = self.lo + offset;
            let d = now.saturating_sub(earlier.bucket(i));
            if d == 0 {
                continue;
            }
            out.cover(i, i);
            out.buckets[i - out.lo] = d;
            out.count += d;
            out.sum_ps += (Self::bucket_value(i) as u128) * d as u128;
            let lo = SimDuration::from_ps(Self::bucket_value(i)).max(self.min);
            let hi = SimDuration::from_ps(Self::bucket_value((i + 1).min(MAJORS * MINORS - 1)))
                .min(self.max);
            if lo < out.min {
                out.min = lo;
            }
            if hi > out.max {
                out.max = hi.max(lo);
            }
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &DurationHistogram) {
        if !other.buckets.is_empty() {
            self.cover(other.lo, other.lo + other.buckets.len() - 1);
            let at = other.lo - self.lo;
            for (a, b) in self.buckets[at..].iter_mut().zip(&other.buckets) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A percentile estimate together with its resolution caveat.
///
/// Returned by [`DurationHistogram::percentile_detail`]. `saturated`
/// replaces the old behaviour where a single-bucket histogram silently
/// reported the same clamped value for every percentile — callers that
/// care (e.g. tail-latency SLO checks) can now tell "the p999 really is
/// the p50" apart from "the histogram can't resolve the difference".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Percentile {
    /// The estimated value: the bucket's lower bound, clamped to the
    /// exact observed `[min, max]` range.
    pub value: SimDuration,
    /// True when every recorded sample landed in one bucket, so all
    /// percentiles collapse to this single value.
    pub saturated: bool,
}

impl fmt::Debug for DurationHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurationHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

/// A `(time, value)` series sampled during a run — e.g. per-core LLC
/// occupancy over time (paper Fig. 12).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample. Times should be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(lt, _)| lt <= t),
            "time series must be sampled in order"
        );
        self.points.push((t, v));
    }

    /// The recorded samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest sampled value (0.0 when empty).
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Mean of the sampled values (0.0 when empty).
    pub fn mean_value(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }
}

/// Jain's fairness index over a set of per-client allocations:
/// `J = (Σx)² / (n · Σx²)`.
///
/// Ranges from `1/n` (one client gets everything) to `1.0` (perfectly
/// equal). The paper's shared-vs-dedicated WQ QoS discussion (Fig. 9/10)
/// is quantified with this index in the multi-tenant service experiments.
/// Returns 1.0 for an empty or all-zero slice (a degenerate share vector
/// is trivially "fair").
pub fn jain_fairness(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

/// Accumulates throughput observations and reports GB/s.
#[derive(Clone, Copy, Debug, Default)]
pub struct Throughput {
    bytes: u64,
    elapsed: SimDuration,
}

impl Throughput {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` moved over `elapsed`.
    pub fn record(&mut self, bytes: u64, elapsed: SimDuration) {
        self.bytes += bytes;
        self.elapsed += elapsed;
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Achieved bandwidth in GB/s (bytes per nanosecond).
    pub fn gbps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.bytes as f64 / self.elapsed.as_ns_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_tracks_mean() {
        let mut c = Counter::new();
        c.record(10);
        c.record(20);
        assert_eq!(c.count(), 2);
        assert_eq!(c.sum(), 30);
        assert!((c.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bounds_are_exact() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_ns(10));
        h.record(SimDuration::from_ns(90));
        h.record(SimDuration::from_ns(50));
        assert_eq!(h.min(), SimDuration::from_ns(10));
        assert_eq!(h.max(), SimDuration::from_ns(90));
        assert_eq!(h.mean(), SimDuration::from_ns(50));
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_percentiles_monotone() {
        let mut h = DurationHistogram::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_ns(i));
        }
        let p50 = h.percentile(50.0).unwrap();
        let p90 = h.percentile(90.0).unwrap();
        let p999 = h.percentile(99.9).unwrap();
        assert!(p50 <= p90 && p90 <= p999);
        let err = (p90.as_ns_f64() - 9000.0).abs() / 9000.0;
        assert!(err < 0.07, "p90 relative error {err}");
    }

    #[test]
    fn histogram_tail_percentile_hits_outlier() {
        let mut h = DurationHistogram::new();
        for _ in 0..99_999 {
            h.record(SimDuration::from_ns(100));
        }
        h.record(SimDuration::from_ms(5)); // one huge outlier
        let p99999 = h.percentile(99.999).unwrap();
        assert!(p99999 >= SimDuration::from_ns(100));
        let p100 = h.percentile(100.0).unwrap();
        assert_eq!(p100, SimDuration::from_ms(5).min(h.max()));
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = DurationHistogram::new();
        let mut b = DurationHistogram::new();
        a.record(SimDuration::from_ns(1));
        b.record(SimDuration::from_ns(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimDuration::from_ns(1));
        assert_eq!(a.max(), SimDuration::from_ns(1000));
    }

    #[test]
    fn delta_since_isolates_the_window() {
        let mut h = DurationHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_ns(i));
        }
        let snap = h.clone();
        for i in 1..=500u64 {
            h.record(SimDuration::from_us(10 + i));
        }
        let win = h.delta_since(&snap);
        assert_eq!(win.count(), 500, "only post-snapshot samples in the window");
        // The window's samples all live above 10 µs; its p50 must too,
        // while the cumulative histogram's p50 stays down in the ns range.
        assert!(win.percentile(50.0).unwrap() >= SimDuration::from_us(9));
        assert!(h.percentile(50.0).unwrap() < SimDuration::from_us(2));
        // An unchanged histogram yields an empty window.
        let none = h.delta_since(&h.clone());
        assert_eq!(none.count(), 0);
        assert_eq!(none.percentile(99.0), None);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = DurationHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), None, "empty histograms have no percentiles");
        assert_eq!(h.percentile_detail(50.0), None);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_zero_rejected() {
        let _ = DurationHistogram::new().percentile(0.0);
    }

    #[test]
    fn single_bucket_saturation_is_reported() {
        let mut h = DurationHistogram::new();
        for _ in 0..1000 {
            h.record(SimDuration::from_ns(100));
        }
        // Identical samples: every percentile collapses to the one value,
        // and the detail API says so instead of pretending to resolve it.
        for p in [50.0, 99.0, 99.9] {
            let d = h.percentile_detail(p).unwrap();
            assert_eq!(d.value, SimDuration::from_ns(100));
            assert!(d.saturated, "p{p} must report single-bucket saturation");
        }
    }

    #[test]
    fn multi_bucket_histogram_is_not_saturated() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_ns(10));
        h.record(SimDuration::from_us(10));
        let d = h.percentile_detail(99.0).unwrap();
        assert!(!d.saturated);
        assert_eq!(d.value, h.max());
    }

    #[test]
    fn percentile_boundaries_clamp_to_observed_range() {
        // Two samples whose bucket lower bounds lie OUTSIDE the observed
        // values: p50 must clamp up to min, p99.9 must clamp down to max.
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_ps(1_023)); // bucket lower bound < 1023
        h.record(SimDuration::from_ps(1_999_999));
        assert_eq!(h.percentile(50.0).unwrap(), h.min(), "p50 clamps to min at the low boundary");
        assert_eq!(h.percentile(99.9).unwrap(), h.max(), "p999 rank beyond count returns max");
        assert!(h.percentile(50.0).unwrap() >= h.min());
        assert!(h.percentile(99.9).unwrap() <= h.max());
    }

    #[test]
    fn timeseries_stats() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(SimTime::from_ns(0), 1.0);
        ts.push(SimTime::from_ns(10), 3.0);
        assert_eq!(ts.len(), 2);
        assert!((ts.max_value() - 3.0).abs() < 1e-12);
        assert!((ts.mean_value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_gbps() {
        let mut t = Throughput::new();
        t.record(1_000_000, SimDuration::from_us(100)); // 10 GB/s
        assert!((t.gbps() - 10.0).abs() < 1e-9);
        assert_eq!(t.bytes(), 1_000_000);
        assert_eq!(Throughput::new().gbps(), 0.0);
    }

    #[test]
    fn jain_index_brackets() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One hog among four clients → J = 1/4.
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Mild skew lands strictly between the extremes.
        let j = jain_fairness(&[1.0, 0.8, 0.9, 0.7]);
        assert!(j > 0.25 && j < 1.0);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn bucket_roundtrip_error_bounded() {
        for ps in [1u64, 15, 16, 100, 1000, 123_456, 10_000_000_000] {
            let idx = DurationHistogram::bucket_index(ps);
            let lower = DurationHistogram::bucket_value(idx);
            assert!(lower <= ps, "lower bound {lower} above sample {ps}");
            let rel = (ps - lower) as f64 / ps as f64;
            assert!(rel < 0.0625 + 1e-9, "relative error {rel} for {ps}");
        }
    }
}

//! A labelled metrics registry: counters, log-linear latency histograms,
//! and utilization time series, keyed by device/WQ/PE.

use dsa_sim::stats::{DurationHistogram, TimeSeries};
use dsa_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Metric labels: which device/WQ/PE a sample belongs to. `None`
/// means the dimension does not apply (e.g. a job-level counter).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    /// Device index.
    pub device: Option<u16>,
    /// WQ index within the device.
    pub wq: Option<u16>,
    /// Processing-engine index within the device.
    pub pe: Option<u16>,
}

impl Labels {
    /// No labels (global / software-side metrics).
    pub fn none() -> Labels {
        Labels::default()
    }

    /// Device-scoped.
    pub fn device(device: u16) -> Labels {
        Labels { device: Some(device), ..Labels::default() }
    }

    /// WQ-scoped.
    pub fn wq(device: u16, wq: u16) -> Labels {
        Labels { device: Some(device), wq: Some(wq), ..Labels::default() }
    }

    /// PE-scoped.
    pub fn pe(device: u16, pe: u16) -> Labels {
        Labels { device: Some(device), pe: Some(pe), ..Labels::default() }
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// Monotonically increasing count.
    Counter(u64),
    /// Log-linear latency distribution (p50/p90/p99/p999).
    Histogram(DurationHistogram),
    /// Sampled utilization timeline (WQ depth, PE occupancy).
    Series(TimeSeries),
}

/// The registry. Metrics are created on first touch; a name+labels pair
/// always maps to one kind (mixing kinds under one key panics, which
/// catches instrumentation typos early).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    map: BTreeMap<(&'static str, Labels), Metric>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to a counter.
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, n: u64) {
        match self.map.entry((name, labels)).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += n,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Records a duration into a histogram.
    pub fn observe(&mut self, name: &'static str, labels: Labels, d: SimDuration) {
        match self
            .map
            .entry((name, labels))
            .or_insert_with(|| Metric::Histogram(DurationHistogram::new()))
        {
            Metric::Histogram(h) => h.record(d),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Appends a point to a utilization time series.
    pub fn series_push(&mut self, name: &'static str, labels: Labels, at: SimTime, v: f64) {
        match self.map.entry((name, labels)).or_insert_with(|| Metric::Series(TimeSeries::new())) {
            Metric::Series(s) => s.push(at, v),
            other => panic!("metric {name} is not a series: {other:?}"),
        }
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, name: &'static str, labels: Labels) -> u64 {
        match self.map.get(&(name, labels)) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// A histogram, if one exists under this key.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Option<&DurationHistogram> {
        match self.map.get(&(name, labels)) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// A time series, if one exists under this key.
    pub fn series(&self, name: &'static str, labels: Labels) -> Option<&TimeSeries> {
        match self.map.get(&(name, labels)) {
            Some(Metric::Series(s)) => Some(s),
            _ => None,
        }
    }

    /// Histogram percentile shortcut (`p` in (0, 100]).
    pub fn percentile(&self, name: &'static str, labels: Labels, p: f64) -> Option<SimDuration> {
        self.histogram(name, labels).and_then(|h| h.percentile(p))
    }

    /// Iterates all metrics in deterministic (name, labels) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Labels, &Metric)> + '_ {
        self.map.iter().map(|((n, l), m)| (*n, *l, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = Metrics::new();
        m.counter_add("descriptors", Labels::wq(0, 0), 3);
        m.counter_add("descriptors", Labels::wq(0, 1), 5);
        m.counter_add("descriptors", Labels::wq(0, 0), 4);
        assert_eq!(m.counter("descriptors", Labels::wq(0, 0)), 7);
        assert_eq!(m.counter("descriptors", Labels::wq(0, 1)), 5);
        assert_eq!(m.counter("descriptors", Labels::none()), 0);
    }

    #[test]
    fn histograms_expose_tail_percentiles() {
        let mut m = Metrics::new();
        for i in 1..=1000u64 {
            m.observe("latency", Labels::wq(0, 0), SimDuration::from_ns(i * 100));
        }
        let p50 = m.percentile("latency", Labels::wq(0, 0), 50.0).unwrap();
        let p99 = m.percentile("latency", Labels::wq(0, 0), 99.0).unwrap();
        let p999 = m.percentile("latency", Labels::wq(0, 0), 99.9).unwrap();
        assert!(p50 < p99 && p99 <= p999);
        // Log-linear buckets: ≤ ~6% relative error on the p99 target.
        let err = (p99.as_ns_f64() - 99_000.0).abs() / 99_000.0;
        assert!(err < 0.07, "p99 off by {err}");
        assert!(m.percentile("latency", Labels::wq(0, 1), 99.0).is_none());
    }

    #[test]
    fn series_roundtrip() {
        let mut m = Metrics::new();
        m.series_push("wq_depth", Labels::wq(0, 0), SimTime::from_ns(10), 3.0);
        m.series_push("wq_depth", Labels::wq(0, 0), SimTime::from_ns(20), 7.0);
        assert_eq!(m.series("wq_depth", Labels::wq(0, 0)).unwrap().len(), 2);
        assert_eq!(m.series("wq_depth", Labels::wq(0, 0)).unwrap().max_value(), 7.0);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_is_caught() {
        let mut m = Metrics::new();
        m.observe("x", Labels::none(), SimDuration::from_ns(1));
        m.counter_add("x", Labels::none(), 1);
    }
}

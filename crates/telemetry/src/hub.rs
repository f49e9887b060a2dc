//! The [`Hub`]: one cloneable handle that every layer records into.

use crate::causal::{CritPathProfile, JobTrace};
use crate::metrics::{Labels, Metrics};
use crate::span::{DescriptorSpan, Event, Phase, Span, Track};
use dsa_sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    metrics: Metrics,
    traces: Vec<JobTrace>,
    // Tenant context stamped onto traces recorded without one (set by the
    // service layer around each tenant step).
    tenant: Option<u16>,
    next_trace_id: u64,
}

/// A shared tracing + metrics sink.
///
/// Cloning is cheap (one `Rc`); all clones feed the same buffers. The
/// simulation is single-threaded, so interior mutability via `RefCell`
/// is sufficient and keeps recording calls `&self`.
#[derive(Clone, Debug, Default)]
pub struct Hub {
    inner: Rc<RefCell<Inner>>,
}

impl Hub {
    /// A fresh, empty hub.
    pub fn new() -> Hub {
        Hub::default()
    }

    /// Records a full descriptor lifecycle and derives the standard
    /// metrics from it: per-WQ and per-PE completion-latency histograms,
    /// per-phase histograms, and byte/descriptor counters.
    pub fn record_descriptor(&self, d: DescriptorSpan) {
        let mut inner = self.inner.borrow_mut();
        let wq = Labels::wq(d.device, d.wq);
        let pe = Labels::pe(d.device, d.pe);
        inner.metrics.counter_add("descriptors", wq, 1);
        inner.metrics.counter_add("bytes", wq, d.xfer_size as u64);
        inner.metrics.observe("descriptor_latency", wq, d.total());
        inner.metrics.observe("descriptor_latency", pe, d.total());
        for p in Phase::ALL {
            inner.metrics.observe(p.metric(), wq, d.phase_duration(p));
        }
        inner.events.push(Event::Descriptor(d));
    }

    /// Records a generic named span.
    pub fn span(&self, track: Track, name: &'static str, start: SimTime, end: SimTime) {
        self.inner.borrow_mut().events.push(Event::Span(Span { track, name, start, end }));
    }

    /// Records a zero-duration marker.
    pub fn instant(&self, track: Track, name: &'static str, at: SimTime) {
        self.inner.borrow_mut().events.push(Event::Instant { track, name, at });
    }

    /// Adds to a counter.
    pub fn counter_add(&self, name: &'static str, labels: Labels, n: u64) {
        self.inner.borrow_mut().metrics.counter_add(name, labels, n);
    }

    /// Records a histogram sample.
    pub fn observe(&self, name: &'static str, labels: Labels, d: SimDuration) {
        self.inner.borrow_mut().metrics.observe(name, labels, d);
    }

    /// Appends a utilization time-series point.
    pub fn series_push(&self, name: &'static str, labels: Labels, at: SimTime, v: f64) {
        self.inner.borrow_mut().metrics.series_push(name, labels, at, v);
    }

    /// Histogram percentile under a key (`None` if absent or empty).
    pub fn percentile(&self, name: &'static str, labels: Labels, p: f64) -> Option<SimDuration> {
        self.inner.borrow().metrics.percentile(name, labels, p)
    }

    /// Current counter value.
    pub fn counter(&self, name: &'static str, labels: Labels) -> u64 {
        self.inner.borrow().metrics.counter(name, labels)
    }

    /// Number of recorded trace events.
    pub fn event_count(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Snapshot of every recorded descriptor lifecycle, oldest first.
    pub fn descriptor_spans(&self) -> Vec<DescriptorSpan> {
        self.inner
            .borrow()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Descriptor(d) => Some(*d),
                _ => None,
            })
            .collect()
    }

    /// Runs `f` over the raw event log (cheaper than cloning it).
    pub fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        f(&self.inner.borrow().events)
    }

    /// Runs `f` over the metrics registry.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&Metrics) -> R) -> R {
        f(&self.inner.borrow().metrics)
    }

    /// Hands out the next deterministic trace ID (1-based, insertion
    /// order — no wall clock, so replays mint identical IDs).
    pub fn next_trace_id(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.next_trace_id += 1;
        inner.next_trace_id
    }

    /// Sets the tenant context stamped onto subsequently recorded job
    /// traces that carry no tenant of their own. The service layer brackets
    /// each tenant step with this so device-layer recording stays
    /// tenant-agnostic.
    pub fn set_tenant(&self, tenant: Option<u16>) {
        self.inner.borrow_mut().tenant = tenant;
    }

    /// Records one job's attributed critical path. A trace without a
    /// tenant inherits the current tenant context.
    pub fn record_job_trace(&self, trace: JobTrace) {
        let mut inner = self.inner.borrow_mut();
        let tenant = inner.tenant;
        inner.traces.push(if trace.tenant.is_none() { trace.with_tenant(tenant) } else { trace });
    }

    /// Snapshot of every recorded job trace, oldest first.
    pub fn job_traces(&self) -> Vec<JobTrace> {
        self.inner.borrow().traces.clone()
    }

    /// Number of recorded job traces.
    pub fn trace_count(&self) -> usize {
        self.inner.borrow().traces.len()
    }

    /// Aggregates every recorded job trace into a per-(tenant, device,
    /// WQ) critical-path profile.
    pub fn critpath_profile(&self) -> CritPathProfile {
        let inner = self.inner.borrow();
        let mut profile = CritPathProfile::new();
        for trace in &inner.traces {
            profile.record(trace);
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_descriptor(seq: u64, wq: u16) -> DescriptorSpan {
        DescriptorSpan {
            device: 0,
            wq,
            pe: 1,
            seq,
            op: "memmove",
            xfer_size: 4096,
            marks: [100, 140, 200, 230, 700, 900, 955].map(SimTime::from_ns),
        }
    }

    #[test]
    fn clones_share_the_sink() {
        let hub = Hub::new();
        let clone = hub.clone();
        clone.record_descriptor(sample_descriptor(1, 0));
        hub.span(Track::Job, "job", SimTime::from_ns(0), SimTime::from_ns(10));
        assert_eq!(hub.event_count(), 2);
        assert_eq!(clone.event_count(), 2);
    }

    #[test]
    fn descriptor_feeds_standard_metrics() {
        let hub = Hub::new();
        for seq in 0..10 {
            hub.record_descriptor(sample_descriptor(seq, 0));
        }
        hub.record_descriptor(sample_descriptor(10, 3));
        assert_eq!(hub.counter("descriptors", Labels::wq(0, 0)), 10);
        assert_eq!(hub.counter("descriptors", Labels::wq(0, 3)), 1);
        assert_eq!(hub.counter("bytes", Labels::wq(0, 0)), 10 * 4096);
        let p99 = hub.percentile("descriptor_latency", Labels::wq(0, 0), 99.0).unwrap();
        assert!(p99 >= SimDuration::from_ns(800), "855ns total, got {p99:?}");
        // Per-PE view exists too.
        assert!(hub.percentile("descriptor_latency", Labels::pe(0, 1), 50.0).is_some());
        // Every phase histogram recorded.
        hub.with_metrics(|m| {
            for p in Phase::ALL {
                assert_eq!(m.histogram(p.metric(), Labels::wq(0, 0)).unwrap().count(), 10);
            }
        });
    }

    fn sample_trace(hub: &Hub) -> crate::causal::JobTrace {
        crate::causal::JobTrace::from_boundaries(
            hub.next_trace_id(),
            0,
            0,
            "memcpy",
            4096,
            [100, 140, 200, 230, 900, 955].map(SimTime::from_ns),
        )
    }

    #[test]
    fn trace_ids_are_deterministic_and_tenant_context_sticks() {
        let hub = Hub::new();
        assert_eq!(hub.next_trace_id(), 1);
        assert_eq!(hub.next_trace_id(), 2);

        hub.record_job_trace(sample_trace(&hub));
        hub.set_tenant(Some(7));
        hub.record_job_trace(sample_trace(&hub));
        // An explicit tenant wins over the context.
        hub.record_job_trace(sample_trace(&hub).with_tenant(Some(2)));
        hub.set_tenant(None);
        let traces = hub.job_traces();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].tenant, None);
        assert_eq!(traces[1].tenant, Some(7));
        assert_eq!(traces[2].tenant, Some(2));
        assert_eq!(traces[0].trace_id, 3);
        assert_eq!(traces[1].trace_id, 4);

        let profile = hub.critpath_profile();
        assert_eq!(profile.jobs(), 3);
        assert_eq!(profile.keys().len(), 3, "distinct tenants land in distinct cells");
    }
}

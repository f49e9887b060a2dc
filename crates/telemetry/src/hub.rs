//! The [`Hub`]: one cloneable handle that every layer records into.

use crate::causal::{CritPathProfile, JobTrace};
use crate::metrics::{Labels, Metrics};
use crate::record::JobRecord;
use crate::span::{DescriptorSpan, Event, Span, Track};
use dsa_sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// The service step a job is submitted under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepContext {
    /// The stepping tenant.
    pub tenant: u16,
    /// When the step began: the job's critical path starts here, so
    /// rejected attempts and their backoff count as software prep.
    pub start: SimTime,
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    // Metrics recorded directly (counters and histograms no job record
    // carries); the standard per-job metrics are derived on read.
    metrics: Metrics,
    step: Option<StepContext>,
}

/// A shared tracing + metrics sink.
///
/// Cloning is cheap (one `Rc`); all clones feed the same buffers. The
/// simulation is single-threaded, so interior mutability via `RefCell`
/// is sufficient and keeps recording calls `&self`.
///
/// The log holds one [`JobRecord`] per job next to generic spans and
/// markers. Descriptor lifecycles, job-track spans, the standard metrics
/// and critical paths are derived from the records when read.
#[derive(Clone, Debug, Default)]
pub struct Hub {
    inner: Rc<RefCell<Inner>>,
}

impl Hub {
    /// A fresh, empty hub.
    pub fn new() -> Hub {
        Hub::default()
    }

    /// Appends one job's record. Inside a service step (see
    /// [`set_step`](Self::set_step)) the record takes the step's tenant
    /// and starts its critical path at the step's start.
    pub fn record(&self, mut r: JobRecord) {
        let mut inner = self.inner.borrow_mut();
        if let Some(step) = inner.step {
            r.tenant = Some(step.tenant);
            r.requested = step.start;
        }
        inner.events.push(Event::Job(r));
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

    /// Histogram percentile under a key (`None` if absent or empty).
    pub fn percentile(&self, name: &'static str, labels: Labels, p: f64) -> Option<SimDuration> {
        self.with_metrics(|m| m.percentile(name, labels, p))
    }

    /// Current counter value.
    pub fn counter(&self, name: &'static str, labels: Labels) -> u64 {
        self.with_metrics(|m| m.counter(name, labels))
    }

    /// Number of entries in the log: job records plus generic spans and
    /// markers.
    pub fn event_count(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Every recorded descriptor lifecycle, oldest first.
    pub fn descriptor_spans(&self) -> Vec<DescriptorSpan> {
        self.with_records(|records| records.filter_map(JobRecord::descriptor).collect())
    }

    /// Runs `f` over the raw event log (cheaper than cloning it).
    pub fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        f(&self.inner.borrow().events)
    }

    fn with_records<R>(&self, f: impl FnOnce(&mut dyn Iterator<Item = &JobRecord>) -> R) -> R {
        self.with_events(|events| {
            f(&mut events.iter().filter_map(|e| match e {
                Event::Job(r) => Some(r),
                _ => None,
            }))
        })
    }

    /// Runs `f` over the metrics registry: the directly recorded metrics
    /// plus the standard ones derived from every job record.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&Metrics) -> R) -> R {
        let mut metrics = self.inner.borrow().metrics.clone();
        self.with_records(|records| records.for_each(|r| r.add_to(&mut metrics)));
        f(&metrics)
    }

    /// Sets (or, with `None`, clears) the service step that records
    /// written from now on belong to. The service layer brackets each
    /// tenant step with this, so the job layer stays tenant-agnostic.
    pub fn set_step(&self, step: Option<StepContext>) {
        self.inner.borrow_mut().step = step;
    }

    /// Every job's attributed critical path, oldest first. Trace IDs are
    /// 1-based in insertion order, so replays mint identical IDs.
    pub fn job_traces(&self) -> Vec<JobTrace> {
        self.with_records(|records| {
            records.filter(|r| r.is_traced()).zip(1..).filter_map(|(r, id)| r.trace(id)).collect()
        })
    }

    /// Number of jobs with a critical path.
    pub fn trace_count(&self) -> usize {
        self.with_records(|records| records.filter(|r| r.is_traced()).count())
    }

    /// Aggregates every job's critical path into a per-(tenant, device,
    /// WQ) profile.
    pub fn critpath_profile(&self) -> CritPathProfile {
        let mut profile = CritPathProfile::new();
        for trace in self.job_traces() {
            profile.record(&trace);
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::record;
    use crate::record::RecordKind;
    use crate::span::Phase;

    const MARKS: [u64; 9] = [60, 100, 100, 100, 200, 230, 700, 900, 955];

    #[test]
    fn clones_share_the_sink() {
        let hub = Hub::new();
        let clone = hub.clone();
        clone.record(record(RecordKind::Job, 0, MARKS));
        hub.span(Track::Job, "job", SimTime::from_ns(0), SimTime::from_ns(10));
        assert_eq!(hub.event_count(), 2);
        assert_eq!(clone.event_count(), 2);
    }

    #[test]
    fn records_feed_standard_metrics() {
        let hub = Hub::new();
        for _ in 0..10 {
            hub.record(record(RecordKind::Job, 0, MARKS));
        }
        hub.record(record(RecordKind::Job, 3, MARKS));
        hub.counter_add("wq_full", Labels::wq(0, 0), 2);
        assert_eq!(hub.counter("descriptors", Labels::wq(0, 0)), 10);
        assert_eq!(hub.counter("descriptors", Labels::wq(0, 3)), 1);
        assert_eq!(hub.counter("jobs", Labels::wq(0, 0)), 10);
        assert_eq!(hub.counter("bytes", Labels::wq(0, 0)), 10 * 4096);
        assert_eq!(hub.counter("wq_full", Labels::wq(0, 0)), 2, "direct counters survive");
        let p99 = hub.percentile("descriptor_latency", Labels::wq(0, 0), 99.0).unwrap();
        assert!(p99 >= SimDuration::from_ns(800), "855ns total, got {p99:?}");
        // Per-PE view exists too.
        assert!(hub.percentile("descriptor_latency", Labels::pe(0, 1), 50.0).is_some());
        hub.with_metrics(|m| {
            for p in Phase::ALL {
                assert_eq!(m.histogram(p.metric(), Labels::wq(0, 0)).unwrap().count(), 10);
            }
            assert_eq!(m.series("wq_depth", Labels::wq(0, 0)).unwrap().len(), 10);
            assert_eq!(m.series("pe_occupancy", Labels::device(0)).unwrap().len(), 11);
        });
    }

    #[test]
    fn trace_ids_count_traced_records_and_the_step_context_is_scoped() {
        let hub = Hub::new();
        hub.record(record(RecordKind::Job, 0, MARKS));
        hub.set_step(Some(StepContext { tenant: 7, start: SimTime::from_ns(20) }));
        hub.record(record(RecordKind::Batch, 0, MARKS));
        hub.record(record(RecordKind::Member, 0, MARKS));
        hub.record(record(RecordKind::Job, 0, MARKS));
        hub.set_step(None);
        hub.record(record(RecordKind::Job, 0, MARKS));
        assert_eq!(hub.event_count(), 5);
        assert_eq!(hub.trace_count(), 4, "batch members carry no critical path");
        let traces = hub.job_traces();
        let ids: Vec<u64> = traces.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        let tenants: Vec<Option<u16>> = traces.iter().map(|t| t.tenant).collect();
        assert_eq!(tenants, [None, Some(7), Some(7), None], "a cleared step stamps nothing");
        let starts: Vec<u64> = traces.iter().map(|t| t.start.as_ps() / 1000).collect();
        assert_eq!(starts, [60, 20, 20, 60], "a step's critical paths start with the step");

        let profile = hub.critpath_profile();
        assert_eq!(profile.jobs(), 4);
        assert_eq!(profile.keys().len(), 2, "distinct tenants land in distinct cells");
    }
}

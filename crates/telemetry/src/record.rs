//! [`JobRecord`]: the one fixed-size record the job layer writes per job.
//!
//! Everything the exporters show about a job is derived from its record
//! when the hub is read: the six-phase descriptor lifecycle, the job-track
//! alloc/prepare/submit spans, the per-WQ/per-PE counters, histograms and
//! utilization series, and the attributed critical path.

use crate::causal::JobTrace;
use crate::metrics::{Labels, Metrics};
use crate::span::{DescriptorSpan, Phase, Span, Track};
use dsa_sim::time::{SimDuration, SimTime};

/// What a [`JobRecord`] describes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecordKind {
    /// One descriptor submitted as a job: its device lifecycle, its
    /// job-track spans and its critical path.
    #[default]
    Job,
    /// A batch descriptor: its descriptor-list fetch and its critical
    /// path. Its members follow it as [`Member`](Self::Member) records.
    Batch,
    /// One member descriptor of a batch: its device lifecycle only.
    Member,
}

/// One job as the layer that saw all of it recorded it.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobRecord {
    /// What the record describes.
    pub kind: RecordKind,
    /// Owning tenant, when the job ran under the service layer.
    pub tenant: Option<u16>,
    /// The descriptor's ids, op, size and device-side lifecycle (for a
    /// batch, the batch descriptor's).
    pub desc: DescriptorSpan,
    /// When the job first asked for a WQ slot: the critical path starts
    /// here. Equal to `start` unless rejected attempts came first.
    pub requested: SimTime,
    /// When the job started on the core (before descriptor allocation).
    pub start: SimTime,
    /// When the core finished the accepted portal write.
    pub submitted: SimTime,
    /// Descriptor allocation charged to the job (zero when the descriptor
    /// was pre-allocated, which records no alloc span).
    pub alloc: SimDuration,
    /// Descriptor preparation charged to the job.
    pub prepare: SimDuration,
    /// Descriptors the WQ held at admission.
    pub wq_depth: u32,
    /// Cumulative busy time of the group's engines at completion.
    pub engines_busy: SimDuration,
    /// Engines in the group.
    pub engines: u16,
}

impl JobRecord {
    /// Whether the record yields a critical path (and a trace ID).
    pub fn is_traced(&self) -> bool {
        self.kind != RecordKind::Member
    }

    /// The descriptor lifecycle, for records that ran one descriptor.
    pub fn descriptor(&self) -> Option<DescriptorSpan> {
        (self.kind != RecordKind::Batch).then_some(self.desc)
    }

    /// The named spans the record shows besides its descriptor phases:
    /// a job's alloc (when charged), prepare and submit on the job
    /// track, or a batch's descriptor-list fetch on its WQ.
    pub fn spans(&self) -> impl Iterator<Item = Span> {
        let span = |track, name, start, end| Some(Span { track, name, start, end });
        let (m, prepared) = (self.desc.marks, self.start + self.alloc);
        match self.kind {
            RecordKind::Job => [
                span(Track::Job, "alloc", self.start, prepared).filter(|_| !self.alloc.is_zero()),
                span(Track::Job, "prepare", prepared, prepared + self.prepare),
                span(Track::Job, "submit", prepared + self.prepare, self.submitted),
            ],
            RecordKind::Batch => {
                let wq = Track::Wq { device: self.desc.device, wq: self.desc.wq };
                [span(wq, "batch_fetch", m[1], m[2]), None, None]
            }
            RecordKind::Member => [None; 3],
        }
        .into_iter()
        .flatten()
    }

    /// The attributed critical path, for jobs and batches.
    pub fn trace(&self, trace_id: u64) -> Option<JobTrace> {
        let (d, m) = (&self.desc, self.desc.marks);
        let bounds = [self.requested, m[1], m[2], m[3], m[5], m[6]];
        self.is_traced().then(|| {
            JobTrace::from_boundaries(trace_id, d.device, d.wq, d.op, d.xfer_size, bounds)
                .with_tenant(self.tenant)
        })
    }

    /// Folds the record into the standard metrics: per-WQ descriptor,
    /// byte, job and batch counters; per-WQ and per-PE completion
    /// latency; per-phase histograms; WQ depth and PE occupancy series.
    pub fn add_to(&self, metrics: &mut Metrics) {
        let wq = Labels::wq(self.desc.device, self.desc.wq);
        match self.kind {
            RecordKind::Job => metrics.counter_add("jobs", wq, 1),
            RecordKind::Batch => metrics.counter_add("batches", wq, 1),
            RecordKind::Member => {}
        }
        let Some(d) = self.descriptor() else { return };
        metrics.counter_add("descriptors", wq, 1);
        metrics.counter_add("bytes", wq, u64::from(d.xfer_size));
        metrics.observe("descriptor_latency", wq, d.total());
        metrics.observe("descriptor_latency", Labels::pe(d.device, d.pe), d.total());
        for p in Phase::ALL {
            metrics.observe(p.metric(), wq, d.phase_duration(p));
        }
        metrics.series_push("wq_depth", wq, d.marks[1], f64::from(self.wq_depth));
        let completed = d.marks[6];
        let capacity = f64::from(self.engines) * completed.as_ns_f64();
        let util = self.engines_busy.as_ns_f64() / capacity.max(1.0);
        metrics.series_push("pe_occupancy", Labels::device(d.device), completed, util.min(1.0));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::causal::SegmentKind;

    /// A 4 KiB memmove on device 0, PE 1: job start, core-side portal
    /// write done, then the seven device marks, in nanoseconds.
    pub(crate) fn record(kind: RecordKind, wq: u16, ns: [u64; 9]) -> JobRecord {
        let t = ns.map(SimTime::from_ns);
        let mut marks = [SimTime::ZERO; 7];
        marks.copy_from_slice(&t[2..]);
        let desc =
            DescriptorSpan { device: 0, wq, pe: 1, seq: 7, op: "memmove", xfer_size: 4096, marks };
        JobRecord {
            kind,
            desc,
            requested: t[0],
            start: t[0],
            submitted: t[1],
            prepare: SimDuration::from_ns(12),
            wq_depth: 1,
            engines_busy: SimDuration::from_ns(500),
            engines: 1,
            ..JobRecord::default()
        }
    }

    fn bounds(spans: impl Iterator<Item = Span>) -> Vec<(&'static str, u64, u64)> {
        spans.map(|s| (s.name, s.start.as_ps() / 1000, s.end.as_ps() / 1000)).collect()
    }

    #[test]
    fn a_job_derives_its_lifecycle_spans_and_critical_path() {
        let mut r = record(RecordKind::Job, 0, [40, 90, 100, 100, 200, 230, 700, 900, 955]);
        r.alloc = SimDuration::from_ns(20);
        let d = r.descriptor().expect("a job ran one descriptor");
        assert_eq!(d.marks[0], SimTime::from_ns(100), "the device clock starts at the portal");
        assert_eq!(d.total(), SimDuration::from_ns(855));
        assert_eq!(bounds(r.spans()), [("alloc", 40, 60), ("prepare", 60, 72), ("submit", 72, 90)]);
        let t = r.trace(3).expect("a job has a critical path");
        assert_eq!((t.trace_id, t.start, t.end), (3, SimTime::from_ns(40), SimTime::from_ns(955)));
        assert_eq!(t.segment(SegmentKind::SoftwarePrep), SimDuration::from_ns(60));
        assert_eq!(t.segment(SegmentKind::MemoryHop), SimDuration::from_ns(670));

        // Rejected attempts before this one widen software prep only.
        r.requested = SimTime::from_ns(10);
        let t = r.trace(3).expect("a job has a critical path");
        assert_eq!(t.segment(SegmentKind::SoftwarePrep), SimDuration::from_ns(90));
        assert_eq!(bounds(r.spans())[0], ("alloc", 40, 60));

        r.alloc = SimDuration::ZERO;
        assert_eq!(bounds(r.spans()), [("prepare", 40, 52), ("submit", 52, 90)]);
    }

    #[test]
    fn batches_and_members_split_the_views() {
        let ns = [40, 60, 100, 100, 200, 200, 700, 900, 955];
        let batch = record(RecordKind::Batch, 2, ns);
        assert!(batch.descriptor().is_none());
        assert_eq!(bounds(batch.spans()), [("batch_fetch", 100, 200)]);
        assert!(batch.trace(1).is_some());
        let member = record(RecordKind::Member, 2, ns);
        assert!(member.descriptor().is_some());
        assert_eq!(member.spans().count(), 0);
        assert!(member.trace(1).is_none());

        let mut m = Metrics::new();
        batch.add_to(&mut m);
        member.add_to(&mut m);
        let wq = Labels::wq(0, 2);
        assert_eq!((m.counter("batches", wq), m.counter("descriptors", wq)), (1, 1));
        assert_eq!(m.counter("jobs", wq), 0);
    }
}

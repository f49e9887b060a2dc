//! Span types: the descriptor lifecycle and generic named intervals.

use crate::record::JobRecord;
use dsa_sim::time::{SimDuration, SimTime};

/// The six phases of a descriptor's trip through the device pipeline,
/// in order. Together they partition `[submitted, completed]` exactly,
/// so per-phase durations always sum to the descriptor's total latency
/// (the invariant Fig. 5's breakdown relies on).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// ENQCMD/MOVDIR64B portal write until WQ admission.
    Submit,
    /// Waiting in the WQ for a processing engine (queueing + arbitration).
    Wait,
    /// Address translation: ATC lookup, IOMMU page walk, fault service.
    Translate,
    /// Source read streaming through the read buffers.
    Read,
    /// Destination write (overlap beyond the read critical path).
    Write,
    /// Completion-record write until it is visible to the poller.
    Complete,
}

impl Phase {
    /// All phases, pipeline order.
    pub const ALL: [Phase; 6] =
        [Phase::Submit, Phase::Wait, Phase::Translate, Phase::Read, Phase::Write, Phase::Complete];

    /// Position in [`Phase::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name used in trace events and metric keys.
    pub fn name(self) -> &'static str {
        ["submit", "wait", "translate", "read", "write", "complete"][self.index()]
    }

    /// The histogram this phase's durations feed in the metrics registry.
    pub fn metric(self) -> &'static str {
        match self {
            Phase::Submit => "phase_submit",
            Phase::Wait => "phase_wait",
            Phase::Translate => "phase_translate",
            Phase::Read => "phase_read",
            Phase::Write => "phase_write",
            Phase::Complete => "phase_complete",
        }
    }
}

/// Where a span lives in the exported trace (the pid/tid grouping of the
/// Chrome trace-event format).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Software activity on the submitting core (job phases).
    Job,
    /// A DSA work queue on one device.
    Wq {
        /// Device index.
        device: u16,
        /// WQ index on that device.
        wq: u16,
    },
    /// A named workload lane (e.g. `"vhost"`, `"migration"`).
    Workload(&'static str),
}

/// One descriptor's trip through the device pipeline: seven boundary
/// timestamps delimiting the six [`Phase`]s. The device-side part of a
/// [`JobRecord`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DescriptorSpan {
    /// Device index.
    pub device: u16,
    /// WQ the descriptor was submitted to.
    pub wq: u16,
    /// Processing engine that executed it.
    pub pe: u16,
    /// Device-wide submission sequence number.
    pub seq: u64,
    /// Operation mnemonic (e.g. `"memmove"`, `"batch"`).
    pub op: &'static str,
    /// Transfer size in bytes (clamped to `u32::MAX` for jumbo batches).
    pub xfer_size: u32,
    /// Phase boundaries: submitted, admitted, dispatched, translated,
    /// read done, data done, completion visible. Must be nondecreasing.
    pub marks: [SimTime; 7],
}

impl DescriptorSpan {
    /// Start and end of one phase.
    pub fn phase_bounds(&self, p: Phase) -> (SimTime, SimTime) {
        let i = p.index();
        (self.marks[i], self.marks[i + 1])
    }

    /// Duration of one phase.
    pub fn phase_duration(&self, p: Phase) -> SimDuration {
        let (start, end) = self.phase_bounds(p);
        end - start
    }

    /// Total latency: submission to completion-record visibility. Equal
    /// to the sum of the six phase durations by construction.
    pub fn total(&self) -> SimDuration {
        self.marks[6] - self.marks[0]
    }
}

/// A named interval on a track (job phases, workload stages).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Trace grouping.
    pub track: Track,
    /// Display name.
    pub name: &'static str,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
}

/// A recorded trace event.
#[derive(Clone, Debug)]
pub enum Event {
    /// One job's record.
    Job(JobRecord),
    /// A generic named span.
    Span(Span),
    /// A zero-duration marker.
    Instant {
        /// Trace grouping.
        track: Track,
        /// Display name.
        name: &'static str,
        /// When it happened.
        at: SimTime,
    },
}

impl Event {
    /// The descriptor lifecycle a job record derives, if any.
    pub fn descriptor(&self) -> Option<DescriptorSpan> {
        match self {
            Event::Job(r) => r.descriptor(),
            _ => None,
        }
    }

    /// The named spans the event shows: a generic span itself, or the
    /// ones a job record derives.
    pub fn spans(&self) -> impl Iterator<Item = Span> {
        let (own, derived) = match self {
            Event::Job(r) => (None, Some(r.spans())),
            Event::Span(s) => (Some(*s), None),
            Event::Instant { .. } => (None, None),
        };
        own.into_iter().chain(derived.into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_with_marks(ns: [u64; 7]) -> DescriptorSpan {
        DescriptorSpan {
            device: 0,
            wq: 0,
            pe: 0,
            seq: 1,
            op: "memmove",
            xfer_size: 4096,
            marks: ns.map(SimTime::from_ns),
        }
    }

    #[test]
    fn phases_partition_total_latency() {
        let s = span_with_marks([10, 15, 40, 47, 90, 120, 131]);
        let sum: SimDuration = Phase::ALL.iter().map(|&p| s.phase_duration(p)).sum();
        assert_eq!(sum, s.total());
        assert_eq!(s.total(), SimDuration::from_ns(121));
    }

    #[test]
    fn phase_bounds_are_contiguous() {
        let s = span_with_marks([0, 1, 2, 3, 5, 8, 13]);
        for w in Phase::ALL.windows(2) {
            assert_eq!(s.phase_bounds(w[0]).1, s.phase_bounds(w[1]).0);
        }
    }

    #[test]
    fn names_and_indices_are_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(p.metric().ends_with(p.name()));
        }
    }
}

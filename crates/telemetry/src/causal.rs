//! Causal tracing and critical-path latency attribution.
//!
//! The paper's methodology is latency *decomposition*: Fig. 5 splits each
//! offload into software preparation, WQ queueing, and device processing,
//! and §5 attributes throughput per device from PCM counters. This module
//! connects those signals causally, so a p999-violating completion can be
//! asked "*which* segment put you on the critical path?":
//!
//! * [`JobTrace`] attributes one completed job's end-to-end latency to
//!   five typed [`SegmentKind`]s that partition it picosecond-exactly and
//!   reconcile with the six device [`Phase`]s.
//! * [`CritPathProfile`] aggregates traces per (tenant, device, WQ) into
//!   p50/p99/p999 attributed breakdowns with dominant-bottleneck
//!   classification.
//!
//! Everything here is deterministic and replay-safe: IDs are insertion
//! order, containers are ordered (`BTreeMap`, arrays), and no wall clock
//! is consulted. The
//! module sits inside the dsa-lint det-core scope (R1/R3), so hash-order
//! containers and float->int timeline casts are rejected at lint time.

use std::collections::BTreeMap;

use dsa_sim::stats::DurationHistogram;
use dsa_sim::time::{SimDuration, SimTime};

use crate::span::Phase;

/// A typed segment of a job's critical path. The five segments partition
/// the interval from software job start to completion-record visibility
/// with no gaps or overlaps, so their sum is the end-to-end latency
/// exactly (picosecond arithmetic, no floats).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// Software preparation: descriptor allocation, population, portal
    /// write, plus any retry/backoff spent before the WQ accepted the
    /// descriptor. Superset of the device-side [`Phase::Submit`].
    SoftwarePrep,
    /// Queued in the work queue awaiting a processing engine
    /// (= [`Phase::Wait`]).
    WqWait,
    /// PE-side setup before data moves: address translation / ATS-ATC
    /// walk (= [`Phase::Translate`]).
    PeService,
    /// The data movement itself — memory reads plus writes, including any
    /// UPI hop for remote-socket buffers (= [`Phase::Read`] +
    /// [`Phase::Write`]).
    MemoryHop,
    /// Completion-record write-back until visible to software
    /// (= [`Phase::Complete`]).
    CompletionWrite,
}

impl SegmentKind {
    /// All segments, in critical-path order.
    pub const ALL: [SegmentKind; 5] = [
        SegmentKind::SoftwarePrep,
        SegmentKind::WqWait,
        SegmentKind::PeService,
        SegmentKind::MemoryHop,
        SegmentKind::CompletionWrite,
    ];

    /// Positional index in [`ALL`](Self::ALL).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (used in folded stacks and report tables).
    pub fn name(self) -> &'static str {
        ["software_prep", "wq_wait", "pe_service", "memory_hop", "completion_write"][self.index()]
    }

    /// The descriptor-lifecycle [`Phase`]s this segment covers.
    /// [`SoftwarePrep`](Self::SoftwarePrep) additionally includes
    /// core-side time (alloc, prepare, failed submission attempts) that
    /// happens before the device clock starts, which no phase records.
    pub fn phases(self) -> &'static [Phase] {
        match self {
            SegmentKind::SoftwarePrep => &[Phase::Submit],
            SegmentKind::WqWait => &[Phase::Wait],
            SegmentKind::PeService => &[Phase::Translate],
            SegmentKind::MemoryHop => &[Phase::Read, Phase::Write],
            SegmentKind::CompletionWrite => &[Phase::Complete],
        }
    }
}

/// One completed job's attributed critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobTrace {
    /// Deterministic trace ID (insertion-order counter from the hub).
    pub trace_id: u64,
    /// Owning tenant, when the job ran under the service layer.
    pub tenant: Option<u16>,
    /// Device that executed the job.
    pub device: u16,
    /// Work queue the descriptor landed in.
    pub wq: u16,
    /// Operation mnemonic ("memmove", "batch", ...).
    pub op: &'static str,
    /// Bytes moved (clamped to `u32::MAX` for jumbo batches).
    pub xfer_size: u32,
    /// When the job first asked for a WQ slot (before descriptor
    /// allocation and any rejected attempts).
    pub start: SimTime,
    /// Completion record visible to software.
    pub end: SimTime,
    /// Per-segment durations, indexed by [`SegmentKind::index`].
    pub segments: [SimDuration; 5],
}

impl JobTrace {
    /// Builds a trace from the six boundary timestamps
    /// `[job_start, admitted, dispatched, translated, data_done,
    /// completed]`. Consecutive differences become the five segments, so
    /// the partition is exact by construction. Boundaries must be
    /// nondecreasing.
    pub fn from_boundaries(
        trace_id: u64,
        device: u16,
        wq: u16,
        op: &'static str,
        xfer_size: u32,
        bounds: [SimTime; 6],
    ) -> JobTrace {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "critical-path boundaries must be nondecreasing: {bounds:?}"
        );
        let segments = std::array::from_fn(|i| bounds[i + 1].saturating_duration_since(bounds[i]));
        JobTrace {
            trace_id,
            tenant: None,
            device,
            wq,
            op,
            xfer_size,
            start: bounds[0],
            end: bounds[5],
            segments,
        }
    }

    /// Returns the trace tagged with a tenant.
    pub fn with_tenant(mut self, tenant: Option<u16>) -> JobTrace {
        self.tenant = tenant;
        self
    }

    /// Measured end-to-end latency (job start to completion visibility).
    pub fn total(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }

    /// Sum of the attributed segments — equals [`total`](Self::total)
    /// exactly, by the partition invariant.
    pub fn attributed_total(&self) -> SimDuration {
        self.segments.iter().copied().sum()
    }

    /// Duration attributed to one segment.
    pub fn segment(&self, kind: SegmentKind) -> SimDuration {
        self.segments[kind.index()]
    }

    /// The segment with the largest share of this job's latency (ties go
    /// to the earlier segment in path order).
    pub fn dominant(&self) -> SegmentKind {
        let mut best = SegmentKind::SoftwarePrep;
        for kind in SegmentKind::ALL {
            if self.segment(kind) > self.segment(best) {
                best = kind;
            }
        }
        best
    }
}

/// Aggregation key: (tenant, device, work queue).
pub type ProfileKey = (Option<u16>, u16, u16);

struct Cell {
    count: u64,
    total: DurationHistogram,
    total_ps: u128,
    segment_hist: [DurationHistogram; 5],
    segment_ps: [u128; 5],
    dominant_counts: [u64; 5],
}

impl Cell {
    fn new() -> Cell {
        Cell {
            count: 0,
            total: DurationHistogram::new(),
            total_ps: 0,
            segment_hist: std::array::from_fn(|_| DurationHistogram::new()),
            segment_ps: [0; 5],
            dominant_counts: [0; 5],
        }
    }

    fn record(&mut self, trace: &JobTrace) {
        self.count += 1;
        self.total.record(trace.total());
        self.total_ps += u128::from(trace.total().as_ps());
        for kind in SegmentKind::ALL {
            let d = trace.segment(kind);
            self.segment_hist[kind.index()].record(d);
            self.segment_ps[kind.index()] += u128::from(d.as_ps());
        }
        self.dominant_counts[trace.dominant().index()] += 1;
    }

    fn merge(&mut self, other: &Cell) {
        self.count += other.count;
        self.total.merge(&other.total);
        self.total_ps += other.total_ps;
        for i in 0..5 {
            self.segment_hist[i].merge(&other.segment_hist[i]);
            self.segment_ps[i] += other.segment_ps[i];
            self.dominant_counts[i] += other.dominant_counts[i];
        }
    }

    fn breakdown(&self) -> Breakdown {
        let pct = |h: &DurationHistogram, p: f64| h.percentile(p);
        let segments = std::array::from_fn(|i| {
            let kind = SegmentKind::ALL[i];
            let h = &self.segment_hist[i];
            SegmentStat {
                kind,
                sum_ps: self.segment_ps[i],
                share: if self.total_ps == 0 {
                    0.0
                } else {
                    self.segment_ps[i] as f64 / self.total_ps as f64
                },
                p50: pct(h, 50.0),
                p99: pct(h, 99.0),
                p999: pct(h, 99.9),
            }
        });
        Breakdown {
            count: self.count,
            total_ps: self.total_ps,
            total_p50: pct(&self.total, 50.0),
            total_p99: pct(&self.total, 99.0),
            total_p999: pct(&self.total, 99.9),
            segments,
            dominant_counts: self.dominant_counts,
        }
    }
}

/// Aggregate statistics for one segment within a [`Breakdown`].
#[derive(Clone, Copy, Debug)]
pub struct SegmentStat {
    /// Which segment.
    pub kind: SegmentKind,
    /// Exact attributed picoseconds summed over all jobs.
    pub sum_ps: u128,
    /// `sum_ps` as a fraction of the end-to-end total (0 when no time
    /// elapsed at all).
    pub share: f64,
    /// Median attributed duration (None when the cell has no jobs).
    pub p50: Option<SimDuration>,
    /// 99th-percentile attributed duration.
    pub p99: Option<SimDuration>,
    /// 99.9th-percentile attributed duration.
    pub p999: Option<SimDuration>,
}

/// An attributed latency breakdown for one profile cell (or the merged
/// profile).
#[derive(Clone, Copy, Debug)]
pub struct Breakdown {
    /// Jobs aggregated.
    pub count: u64,
    /// Exact end-to-end picoseconds summed over all jobs.
    pub total_ps: u128,
    /// End-to-end latency percentiles.
    pub total_p50: Option<SimDuration>,
    /// 99th percentile of end-to-end latency.
    pub total_p99: Option<SimDuration>,
    /// 99.9th percentile of end-to-end latency.
    pub total_p999: Option<SimDuration>,
    /// Per-segment statistics, in path order.
    pub segments: [SegmentStat; 5],
    /// How many jobs each segment dominated, indexed by
    /// [`SegmentKind::index`].
    pub dominant_counts: [u64; 5],
}

impl Breakdown {
    /// Sum of attributed picoseconds across segments. Equals
    /// [`total_ps`](Self::total_ps) exactly — the partition invariant,
    /// surfaced so report tables can assert it.
    pub fn attributed_ps(&self) -> u128 {
        self.segments.iter().map(|s| s.sum_ps).sum()
    }

    /// The segment carrying the largest attributed time (ties go to the
    /// earlier segment in path order).
    pub fn dominant(&self) -> SegmentKind {
        let mut best = 0;
        for i in 1..5 {
            if self.segments[i].sum_ps > self.segments[best].sum_ps {
                best = i;
            }
        }
        SegmentKind::ALL[best]
    }
}

/// Per-(tenant, device, WQ) aggregation of [`JobTrace`]s: attributed
/// p50/p99/p999 breakdowns and dominant-bottleneck classification.
#[derive(Default)]
pub struct CritPathProfile {
    cells: BTreeMap<ProfileKey, Cell>,
}

impl CritPathProfile {
    /// Creates an empty profile.
    pub fn new() -> CritPathProfile {
        CritPathProfile::default()
    }

    /// Folds one job trace into its cell.
    pub fn record(&mut self, trace: &JobTrace) {
        self.cells
            .entry((trace.tenant, trace.device, trace.wq))
            .or_insert_with(Cell::new)
            .record(trace);
    }

    /// All populated cell keys, in deterministic (BTree) order.
    pub fn keys(&self) -> Vec<ProfileKey> {
        self.cells.keys().copied().collect()
    }

    /// Total jobs recorded across all cells.
    pub fn jobs(&self) -> u64 {
        self.cells.values().map(|c| c.count).sum()
    }

    /// The breakdown for one cell.
    pub fn breakdown(&self, key: ProfileKey) -> Option<Breakdown> {
        self.cells.get(&key).map(Cell::breakdown)
    }

    /// The breakdown merged across every cell (None when no jobs were
    /// recorded).
    pub fn overall(&self) -> Option<Breakdown> {
        if self.cells.is_empty() {
            return None;
        }
        let mut merged = Cell::new();
        for cell in self.cells.values() {
            merged.merge(cell);
        }
        Some(merged.breakdown())
    }

    /// The dominant segment of the merged profile.
    pub fn overall_dominant(&self) -> Option<SegmentKind> {
        self.overall().map(|b| b.dominant())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_sim::time::SimTime;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    fn trace(bounds: [u64; 6]) -> JobTrace {
        JobTrace::from_boundaries(1, 0, 0, "memcpy", 4096, bounds.map(ns))
    }

    #[test]
    fn segments_partition_the_interval_exactly() {
        let t = trace([100, 130, 190, 205, 800, 812]);
        assert_eq!(t.attributed_total(), t.total());
        assert_eq!(t.segment(SegmentKind::SoftwarePrep), SimDuration::from_ns(30));
        assert_eq!(t.segment(SegmentKind::WqWait), SimDuration::from_ns(60));
        assert_eq!(t.segment(SegmentKind::PeService), SimDuration::from_ns(15));
        assert_eq!(t.segment(SegmentKind::MemoryHop), SimDuration::from_ns(595));
        assert_eq!(t.segment(SegmentKind::CompletionWrite), SimDuration::from_ns(12));
        assert_eq!(t.dominant(), SegmentKind::MemoryHop);
    }

    #[test]
    fn segment_phase_reconciliation_covers_all_phases_once() {
        let mut seen = Vec::new();
        for kind in SegmentKind::ALL {
            seen.extend_from_slice(kind.phases());
        }
        // Every device phase is claimed by exactly one segment.
        assert_eq!(seen.len(), Phase::ALL.len());
        for p in Phase::ALL {
            assert_eq!(seen.iter().filter(|&&q| q == p).count(), 1, "{p:?}");
        }
    }

    #[test]
    fn profile_aggregates_per_tenant_and_detects_dominants() {
        let mut p = CritPathProfile::new();
        // Tenant 0: memory-bound. Tenant 1: queue-bound.
        for i in 0..10u64 {
            p.record(
                &trace([
                    i * 1000,
                    i * 1000 + 20,
                    i * 1000 + 40,
                    i * 1000 + 50,
                    i * 1000 + 500,
                    i * 1000 + 510,
                ])
                .with_tenant(Some(0)),
            );
            p.record(
                &JobTrace::from_boundaries(
                    100 + i,
                    0,
                    1,
                    "memcpy",
                    4096,
                    [
                        ns(i * 1000),
                        ns(i * 1000 + 20),
                        ns(i * 1000 + 800),
                        ns(i * 1000 + 810),
                        ns(i * 1000 + 900),
                        ns(i * 1000 + 910),
                    ],
                )
                .with_tenant(Some(1)),
            );
        }
        assert_eq!(p.jobs(), 20);
        assert_eq!(p.keys(), vec![(Some(0), 0, 0), (Some(1), 0, 1)]);
        let b0 = p.breakdown((Some(0), 0, 0)).unwrap();
        let b1 = p.breakdown((Some(1), 0, 1)).unwrap();
        assert_eq!(b0.dominant(), SegmentKind::MemoryHop);
        assert_eq!(b1.dominant(), SegmentKind::WqWait);
        assert_eq!(b0.attributed_ps(), b0.total_ps, "partition invariant survives aggregation");
        assert_eq!(b1.attributed_ps(), b1.total_ps);
        let overall = p.overall().unwrap();
        assert_eq!(overall.count, 20);
        assert_eq!(overall.attributed_ps(), overall.total_ps);
        // Shares sum to ~1.
        let share_sum: f64 = overall.segments.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12, "shares sum to 1, got {share_sum}");
    }

    #[test]
    fn dominant_tie_goes_to_the_earlier_segment() {
        let t = trace([0, 100, 200, 200, 200, 200]);
        assert_eq!(t.dominant(), SegmentKind::SoftwarePrep);
    }
}

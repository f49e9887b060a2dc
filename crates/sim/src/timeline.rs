//! Resource timelines: the reservation calculus used by the device models.
//!
//! A *timeline* represents a contended resource that serves requests in the
//! order they become ready. Reserving capacity returns the interval during
//! which the request actually holds the resource; queueing delay, saturation
//! and pipelining then *emerge* from chains of reservations rather than being
//! hand-coded in each experiment.
//!
//! Three flavours are provided:
//!
//! * [`Timeline`] — a single server (e.g. an ENQCMD submission port).
//! * [`MultiServer`] — `k` identical servers (e.g. the processing engines of
//!   a DSA group).
//! * [`BwResource`] — a bandwidth-shaped pipe (e.g. a DRAM channel set, the
//!   on-die I/O fabric, a UPI or CXL link). Occupancy per request is
//!   `bytes / bandwidth`; latency is added by the caller so that the same
//!   pipe can be shared by requestors with different distances.
//! * [`SlidingWindow`] — a capacity window (e.g. "at most N descriptors in
//!   flight in a work queue", "at most QD outstanding jobs").

use crate::time::{transfer_time_mgbps, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// The interval during which a reservation holds its resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Interval {
    /// When service began (>= the requested ready time).
    pub start: SimTime,
    /// When the resource becomes free again.
    pub end: SimTime,
}

impl Interval {
    /// Length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// A single-server FIFO resource.
///
/// Requests are served in the order [`reserve`](Timeline::reserve) is called;
/// the caller is responsible for calling it in non-decreasing *logical*
/// order (the natural case when one producer drives the resource).
///
/// ```
/// use dsa_sim::time::{SimTime, SimDuration};
/// use dsa_sim::timeline::Timeline;
/// let mut t = Timeline::new();
/// let a = t.reserve(SimTime::from_ns(10), SimDuration::from_ns(5));
/// assert_eq!(a.start, SimTime::from_ns(10));
/// let b = t.reserve(SimTime::ZERO, SimDuration::from_ns(5));
/// // b was ready earlier but arrived second: it queues behind a.
/// assert_eq!(b.start, SimTime::from_ns(15));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    free_at: SimTime,
    busy: SimDuration,
}

impl Timeline {
    /// Creates an idle timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `dur` starting no earlier than `ready`.
    pub fn reserve(&mut self, ready: SimTime, dur: SimDuration) -> Interval {
        let start = ready.max(self.free_at);
        let end = start + dur;
        self.free_at = end;
        self.busy += dur;
        Interval { start, end }
    }

    /// The earliest instant a new reservation could begin service.
    pub fn next_free(&self) -> SimTime {
        self.free_at
    }

    /// Total time the resource has been held.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Fraction of `[0, horizon]` during which the resource was held.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_ps() as f64 / horizon.as_ps() as f64).min(1.0)
    }
}

/// `k` identical servers fed from one FIFO queue.
///
/// Models the engine pool of a DSA group: a descriptor at the head of a work
/// queue is dispatched to *any* free engine.
#[derive(Clone, Debug)]
pub struct MultiServer {
    free_at: BinaryHeap<Reverse<SimTime>>,
    servers: usize,
    busy: SimDuration,
}

impl MultiServer {
    /// Creates a pool of `servers` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a server pool needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(SimTime::ZERO));
        }
        Self { free_at, servers, busy: SimDuration::ZERO }
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Reserves *one* server for `dur`, starting no earlier than `ready`.
    pub fn reserve(&mut self, ready: SimTime, dur: SimDuration) -> Interval {
        #[expect(
            clippy::expect_used,
            reason = "constructors require servers >= 1, so the heap is never empty"
        )]
        let Reverse(earliest) = self.free_at.pop().expect("pool is never empty");
        let start = ready.max(earliest);
        let end = start + dur;
        self.free_at.push(Reverse(end));
        self.busy += dur;
        Interval { start, end }
    }

    /// The earliest instant any server could begin a new reservation.
    pub fn next_free(&self) -> SimTime {
        self.free_at.peek().map(|Reverse(t)| *t).unwrap_or(SimTime::ZERO)
    }

    /// Total busy time across all servers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }
}

/// A bandwidth-shaped pipe.
///
/// Each request occupies the pipe for `bytes / bandwidth`; concurrent
/// requestors therefore share the bandwidth by interleaving (callers should
/// chunk very large transfers — the device models do, mirroring how DSA
/// streams data through its read buffers).
///
/// Unlike [`Timeline`], the pipe is **work-conserving**: a request that was
/// ready *earlier* than the pipe's current tail may be backfilled into an
/// idle gap left by a later-ready request, so interleaved read/write
/// streams from independent requesters do not serialize artificially.
///
/// Bandwidth is expressed in milli-GB/s (`mgbps`) to allow fractional rates
/// with integer arithmetic: 30 GB/s == `30_000` mGB/s.
#[derive(Clone, Debug)]
pub struct BwResource {
    mgbps: u64,
    free_at: SimTime,
    busy: SimDuration,
    bytes_served: u64,
    gaps: VecDeque<(SimTime, SimTime)>,
}

/// Most idle gaps remembered for backfilling. `transfer` keeps
/// `gaps.len() <= MAX_GAPS` on every path (a new tail gap and a backfill
/// split alike) by forgetting the oldest gaps first.
const MAX_GAPS: usize = 4096;

impl BwResource {
    /// Creates a pipe with the given bandwidth in milli-GB/s.
    ///
    /// # Panics
    ///
    /// Panics if `mgbps == 0`.
    pub fn new(mgbps: u64) -> Self {
        assert!(mgbps > 0, "bandwidth must be positive");
        Self {
            mgbps,
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
            bytes_served: 0,
            gaps: VecDeque::new(),
        }
    }

    /// The configured bandwidth in milli-GB/s.
    pub fn mgbps(&self) -> u64 {
        self.mgbps
    }

    /// Reserves pipe occupancy for `bytes`, ready at `ready`.
    pub fn transfer(&mut self, ready: SimTime, bytes: u64) -> Interval {
        self.bytes_served += bytes;
        let dur = transfer_time_mgbps(bytes, self.mgbps);
        self.busy += dur;
        // Backfill: fit into the earliest idle gap that can hold the whole
        // transfer at or after `ready`. Gaps are disjoint and sorted, so
        // every gap ending before `ready` is skipped by one binary search
        // (or none, when even the newest gap does); a gap ending exactly
        // at `ready` still holds a zero-byte transfer.
        let first = match self.gaps.back() {
            Some(&(_, ge)) if ge >= ready => self.gaps.partition_point(|&(_, ge)| ge < ready),
            _ => self.gaps.len(),
        };
        for i in first..self.gaps.len() {
            let (gs, ge) = self.gaps[i];
            let start = gs.max(ready);
            let end = start + dur;
            if end <= ge {
                // Consume the used part, keeping remainders as gaps.
                match (start > gs, end < ge) {
                    (true, true) => {
                        self.gaps[i].1 = start;
                        self.gaps.insert(i + 1, (end, ge));
                        self.forget_oldest_gaps();
                    }
                    (true, false) => self.gaps[i].1 = start,
                    (false, true) => self.gaps[i].0 = end,
                    (false, false) => {
                        self.gaps.remove(i);
                    }
                }
                return Interval { start, end };
            }
        }
        let start = ready.max(self.free_at);
        if start > self.free_at {
            self.gaps.push_back((self.free_at, start));
            self.forget_oldest_gaps();
        }
        self.free_at = start + dur;
        Interval { start, end: self.free_at }
    }

    /// Drops the oldest gaps until at most `MAX_GAPS` remain.
    fn forget_oldest_gaps(&mut self) {
        while self.gaps.len() > MAX_GAPS {
            self.gaps.pop_front();
        }
    }

    /// The earliest instant a new transfer could begin at the tail
    /// (backfilling may still place work earlier).
    pub fn next_free(&self) -> SimTime {
        self.free_at
    }

    /// Total bytes moved through the pipe.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Fraction of `[0, horizon]` during which the pipe was occupied.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_ps() as f64 / horizon.as_ps() as f64).min(1.0)
    }
}

/// A FIFO capacity window: at most `capacity` items in flight.
///
/// `acquire(ready)` returns the instant a slot is actually available (the
/// later of `ready` and the release of the oldest of the last `capacity`
/// holders); the caller then reports when the item will `release` its slot.
///
/// Models finite work-queue storage and software queue depths.
#[derive(Clone, Debug)]
pub struct SlidingWindow {
    releases: VecDeque<SimTime>,
    capacity: usize,
    max_in_flight: usize,
}

impl SlidingWindow {
    /// Creates a window admitting at most `capacity` concurrent holders.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self { releases: VecDeque::with_capacity(capacity), capacity, max_in_flight: 0 }
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// When a slot would be available for a request ready at `ready`,
    /// without acquiring it (ENQCMD-style full/retry probing).
    pub fn available_at(&self, ready: SimTime) -> SimTime {
        if self.releases.len() < self.capacity {
            return ready;
        }
        match self.releases.front() {
            Some(&gate) => ready.max(gate),
            None => ready,
        }
    }

    /// Number of slots currently tracked as held (monotone FIFO view).
    pub fn in_flight(&self) -> usize {
        self.releases.len()
    }

    /// Number of tracked holders whose release lies after `now` — the true
    /// occupancy at `now` (unlike [`in_flight`](SlidingWindow::in_flight),
    /// which never shrinks below the high-water FIFO view).
    pub fn pending_at(&self, now: SimTime) -> usize {
        self.releases.iter().filter(|&&t| t > now).count()
    }

    /// Returns the earliest instant >= `ready` at which a slot is free.
    ///
    /// Must be paired with exactly one later call to
    /// [`release`](SlidingWindow::release).
    pub fn acquire(&mut self, ready: SimTime) -> SimTime {
        if self.releases.len() < self.capacity {
            self.max_in_flight = self.max_in_flight.max(self.releases.len() + 1);
            return ready;
        }
        // The oldest outstanding holder gates admission (FIFO credit return).
        match self.releases.front() {
            Some(&gate) => ready.max(gate),
            None => ready,
        }
    }

    /// Records that the item admitted by the matching `acquire` releases its
    /// slot at `at`.
    pub fn release(&mut self, at: SimTime) {
        if self.releases.len() == self.capacity {
            self.releases.pop_front();
        }
        // Keep the queue sorted by insertion order; FIFO semantics assume the
        // caller acquires/releases in submission order, which all device
        // models in this workspace do.
        self.releases.push_back(at);
        self.max_in_flight = self.max_in_flight.max(self.releases.len());
    }

    /// Highest concurrency observed so far.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    fn ns(x: u64) -> SimTime {
        SimTime::from_ns(x)
    }
    fn dns(x: u64) -> SimDuration {
        SimDuration::from_ns(x)
    }

    #[test]
    fn timeline_queues_back_to_back() {
        let mut t = Timeline::new();
        let a = t.reserve(ns(0), dns(10));
        let b = t.reserve(ns(0), dns(10));
        let c = t.reserve(ns(50), dns(10));
        assert_eq!((a.start, a.end), (ns(0), ns(10)));
        assert_eq!((b.start, b.end), (ns(10), ns(20)));
        // idle gap honoured
        assert_eq!((c.start, c.end), (ns(50), ns(60)));
        assert_eq!(t.busy_time(), dns(30));
        assert!((t.utilization(ns(60)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multiserver_uses_free_servers() {
        let mut m = MultiServer::new(2);
        let a = m.reserve(ns(0), dns(100));
        let b = m.reserve(ns(0), dns(100));
        let c = m.reserve(ns(0), dns(100));
        assert_eq!(a.start, ns(0));
        assert_eq!(b.start, ns(0)); // second server
        assert_eq!(c.start, ns(100)); // queues behind the earliest finisher
        assert_eq!(m.next_free(), ns(100));
        assert_eq!(m.servers(), 2);
    }

    #[test]
    fn multiserver_matches_single_when_k_is_one() {
        let mut m = MultiServer::new(1);
        let mut t = Timeline::new();
        for i in 0..10u64 {
            let a = m.reserve(ns(i * 3), dns(7));
            let b = t.reserve(ns(i * 3), dns(7));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bw_resource_rate_limits() {
        // 10 GB/s pipe: 10 bytes per ns.
        let mut p = BwResource::new(10_000);
        let a = p.transfer(ns(0), 1000);
        assert_eq!(a.end, ns(100));
        let b = p.transfer(ns(0), 1000);
        assert_eq!(b.end, ns(200));
        assert_eq!(p.bytes_served(), 2000);
        // aggregate rate over the busy period == configured bandwidth
        assert!((p.utilization(ns(200)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sliding_window_admits_up_to_capacity() {
        let mut w = SlidingWindow::new(2);
        // two immediate admissions
        assert_eq!(w.acquire(ns(0)), ns(0));
        w.release(ns(100));
        assert_eq!(w.acquire(ns(0)), ns(0));
        w.release(ns(150));
        // third must wait for the first release
        assert_eq!(w.acquire(ns(0)), ns(100));
        w.release(ns(300));
        // fourth waits for the second release
        assert_eq!(w.acquire(ns(0)), ns(150));
        w.release(ns(320));
        assert_eq!(w.max_in_flight(), 2);
    }

    #[test]
    fn sliding_window_depth_one_serializes() {
        let mut w = SlidingWindow::new(1);
        let s1 = w.acquire(ns(0));
        w.release(ns(10));
        let s2 = w.acquire(ns(5));
        w.release(ns(25));
        let s3 = w.acquire(ns(6));
        w.release(ns(40));
        assert_eq!((s1, s2, s3), (ns(0), ns(10), ns(25)));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        let _ = MultiServer::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_window_panics() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn interval_duration() {
        let i = Interval { start: ns(5), end: ns(9) };
        assert_eq!(i.duration(), dns(4));
    }
}

#[cfg(test)]
mod backfill_tests {
    use super::*;
    use crate::time::SimTime;

    fn ns(x: u64) -> SimTime {
        SimTime::from_ns(x)
    }

    #[test]
    fn backfill_uses_idle_gaps() {
        // 1 GB/s: 100 bytes take 100 ns.
        let mut p = BwResource::new(1_000);
        let a = p.transfer(ns(0), 100); // 0..100
        let b = p.transfer(ns(500), 100); // 500..600, gap 100..500
        let c = p.transfer(ns(50), 100); // backfills into the gap at 100
        assert_eq!((a.start, a.end), (ns(0), ns(100)));
        assert_eq!((b.start, b.end), (ns(500), ns(600)));
        assert_eq!((c.start, c.end), (ns(100), ns(200)));
        // Another backfill lands after c within the same gap.
        let d = p.transfer(ns(0), 100);
        assert_eq!((d.start, d.end), (ns(200), ns(300)));
    }

    #[test]
    fn backfill_never_starts_before_ready() {
        let mut p = BwResource::new(1_000);
        p.transfer(ns(0), 100);
        p.transfer(ns(1000), 100); // gap 100..1000
        let x = p.transfer(ns(400), 100);
        assert_eq!(x.start, ns(400));
    }

    #[test]
    fn backfill_splits_keep_the_gap_cap() {
        // 1 GB/s: 100 bytes take 100 ns. Fill the list with gaps
        // 100..1000, 1100..2000, ...; then split every one in the middle,
        // which turns one gap into two.
        let mut p = BwResource::new(1_000);
        for k in 0..=MAX_GAPS as u64 {
            p.transfer(ns(k * 1000), 100);
        }
        assert_eq!(p.gaps.len(), MAX_GAPS);
        for k in 0..MAX_GAPS as u64 {
            let ready = ns(k * 1000 + 500);
            let iv = p.transfer(ready, 100);
            assert_eq!(iv.start, ready, "gap {k} has room in its middle");
            assert!(p.gaps.len() <= MAX_GAPS, "{} gaps after split {k}", p.gaps.len());
        }
        assert_eq!(p.gaps.len(), MAX_GAPS);
        // The cap forgot the oldest gaps: the first kept one starts after 0.
        assert!(p.gaps[0].0 > ns(100));
    }

    #[test]
    fn capacity_is_conserved_under_interleaving() {
        // Interleaved early/late-ready requests must still aggregate to
        // the configured bandwidth, not half of it.
        let mut p = BwResource::new(1_000); // 1 byte/ns
        let mut max_end = SimTime::ZERO;
        for i in 0..100u64 {
            let r = p.transfer(ns(i * 10), 10);
            let w = p.transfer(ns(i * 10 + 200), 10); // writes lag reads
            max_end = max_end.max(r.end).max(w.end);
        }
        // 2000 bytes at 1 byte/ns from t=0 with last ready at ~1200:
        // must finish well before a strictly serial 100*(10+10+idle) chain.
        assert!(max_end <= ns(2300), "got {max_end:?}");
        assert_eq!(p.bytes_served(), 2000);
    }
}

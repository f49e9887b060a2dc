//! Property-style tests for the simulation substrate: conservation laws
//! and ordering invariants that must hold for arbitrary request streams.
//!
//! Randomized inputs come from the in-repo deterministic [`SplitMix64`]
//! generator so the suite runs offline with no external test-harness
//! dependency; every case is reproducible from the fixed seeds below.

use dsa_sim::rng::SplitMix64;
use dsa_sim::stats::{DurationHistogram, Percentile};
use dsa_sim::time::{transfer_time_mgbps, SimDuration, SimTime};
use dsa_sim::timeline::{BwResource, Interval, MultiServer, SlidingWindow, Timeline};
use std::collections::VecDeque;

const CASES: usize = 48;

#[test]
fn timeline_never_overlaps_and_conserves_busy() {
    let mut rng = SplitMix64::new(0x51AD_0001);
    for _ in 0..CASES {
        let reqs = 1 + rng.next_below(99) as usize;
        let mut t = Timeline::new();
        let mut last_end = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for _ in 0..reqs {
            let ready = rng.next_below(10_000);
            let dur = 1 + rng.next_below(499);
            let iv = t.reserve(SimTime::from_ns(ready), SimDuration::from_ns(dur));
            // FIFO: intervals are disjoint and ordered.
            assert!(iv.start >= last_end);
            assert!(iv.start >= SimTime::from_ns(ready));
            assert_eq!(iv.duration(), SimDuration::from_ns(dur));
            last_end = iv.end;
            total += SimDuration::from_ns(dur);
        }
        assert_eq!(t.busy_time(), total);
    }
}

#[test]
fn multiserver_start_after_ready_and_k_bounded() {
    let mut rng = SplitMix64::new(0x51AD_0002);
    for _ in 0..CASES {
        let k = 1 + rng.next_below(7) as usize;
        let reqs = 1 + rng.next_below(79) as usize;
        let mut m = MultiServer::new(k);
        let mut intervals = Vec::new();
        for _ in 0..reqs {
            let ready = rng.next_below(5_000);
            let dur = 1 + rng.next_below(299);
            let iv = m.reserve(SimTime::from_ns(ready), SimDuration::from_ns(dur));
            assert!(iv.start >= SimTime::from_ns(ready));
            intervals.push(iv);
        }
        // At any interval start, at most k intervals are concurrently open.
        for iv in &intervals {
            let overlapping =
                intervals.iter().filter(|o| o.start <= iv.start && iv.start < o.end).count();
            assert!(overlapping <= k, "{overlapping} concurrent on {k} servers");
        }
    }
}

/// `BwResource`'s cap on remembered idle gaps.
const GAP_CAP: usize = 4096;

/// The reference `BwResource::transfer` must match exactly: first fit
/// found by scanning every remembered gap from the oldest, with the same
/// oldest-first forgetting once more than `GAP_CAP` gaps are held.
struct FirstFitPipe {
    mgbps: u64,
    free_at: SimTime,
    gaps: VecDeque<(SimTime, SimTime)>,
    forgotten: usize,
}

impl FirstFitPipe {
    fn new(mgbps: u64) -> Self {
        Self { mgbps, free_at: SimTime::ZERO, gaps: VecDeque::new(), forgotten: 0 }
    }

    fn transfer(&mut self, ready: SimTime, bytes: u64) -> Interval {
        let dur = transfer_time_mgbps(bytes, self.mgbps);
        let fit = self.gaps.iter().position(|&(gs, ge)| gs.max(ready) + dur <= ge);
        let iv = match fit {
            Some(i) => {
                let (gs, ge) = self.gaps.remove(i).expect("position is in range");
                let start = gs.max(ready);
                let end = start + dur;
                if end < ge {
                    self.gaps.insert(i, (end, ge));
                }
                if start > gs {
                    self.gaps.insert(i, (gs, start));
                }
                Interval { start, end }
            }
            None => {
                let start = ready.max(self.free_at);
                if start > self.free_at {
                    self.gaps.push_back((self.free_at, start));
                }
                self.free_at = start + dur;
                Interval { start, end: self.free_at }
            }
        };
        while self.gaps.len() > GAP_CAP {
            self.gaps.pop_front();
            self.forgotten += 1;
        }
        iv
    }
}

#[test]
fn bw_resource_conserves_capacity() {
    let mut rng = SplitMix64::new(0x51AD_0003);
    for _ in 0..CASES {
        let mgbps = 1_000 + rng.next_below(99_000);
        let reqs = 1 + rng.next_below(59) as usize;
        let mut p = BwResource::new(mgbps);
        let mut reference = FirstFitPipe::new(mgbps);
        let mut total_bytes = 0u64;
        let mut max_end = SimTime::ZERO;
        let mut min_ready = u64::MAX;
        for _ in 0..reqs {
            let ready = rng.next_below(100_000);
            let bytes = 64 + rng.next_below((1 << 20) - 64);
            let iv = p.transfer(SimTime::from_ns(ready), bytes);
            assert_eq!(iv, reference.transfer(SimTime::from_ns(ready), bytes));
            assert!(iv.start >= SimTime::from_ns(ready), "never starts before ready");
            assert_eq!(iv.duration(), transfer_time_mgbps(bytes, mgbps));
            total_bytes += bytes;
            max_end = max_end.max(iv.end);
            min_ready = min_ready.min(ready);
        }
        assert_eq!(p.bytes_served(), total_bytes);
        // Work conservation: finishing no later than serial service after
        // the last ready time, and no earlier than perfect pipelining.
        let serial = transfer_time_mgbps(total_bytes, mgbps);
        assert!(max_end <= SimTime::from_ns(100_000) + serial);
        assert!(max_end >= SimTime::from_ns(min_ready) + transfer_time_mgbps(64, mgbps));
    }

    // Long runs: enough tail gaps and backfill splits that the cap
    // forgets gaps, with zero-byte transfers and `ready` landing exactly
    // on a remembered gap's end. Every interval must match first fit.
    for _ in 0..2 {
        let mgbps = 10_000;
        let mut p = BwResource::new(mgbps);
        let mut reference = FirstFitPipe::new(mgbps);
        let mut clock = 0u64;
        for _ in 0..12_000 {
            let ready = match rng.next_below(10) {
                0..=5 => {
                    clock += rng.next_below(400);
                    SimTime::from_ns(clock)
                }
                6..=7 => SimTime::from_ns(clock.saturating_sub(rng.next_below(200_000))),
                _ => match reference.gaps.len() {
                    0 => SimTime::from_ns(clock),
                    n => reference.gaps[rng.next_below(n as u64) as usize].1,
                },
            };
            let bytes = match rng.next_below(4) {
                0 => 0,
                _ => 64 + rng.next_below(2_048),
            };
            assert_eq!(p.transfer(ready, bytes), reference.transfer(ready, bytes));
        }
        assert!(reference.forgotten > 0, "the run must outgrow the gap cap");
    }
}

#[test]
fn sliding_window_never_exceeds_capacity() {
    let mut rng = SplitMix64::new(0x51AD_0004);
    for _ in 0..CASES {
        let cap = 1 + rng.next_below(15) as usize;
        let items = 1 + rng.next_below(59) as usize;
        let mut w = SlidingWindow::new(cap);
        let mut clock = SimTime::ZERO;
        for _ in 0..items {
            let gap = rng.next_below(1_000);
            let hold = 1 + rng.next_below(499);
            clock += SimDuration::from_ns(gap);
            let admitted = w.acquire(clock);
            assert!(admitted >= clock);
            w.release(admitted + SimDuration::from_ns(hold));
        }
        assert!(w.max_in_flight() <= cap);
    }
}

#[test]
fn histogram_percentiles_are_monotone_and_bounded() {
    let mut rng = SplitMix64::new(0x51AD_0005);
    for _ in 0..CASES {
        let n = 1 + rng.next_below(499) as usize;
        let mut h = DurationHistogram::new();
        for _ in 0..n {
            h.record(SimDuration::from_ns(1 + rng.next_below(9_999_999)));
        }
        let mut last = SimDuration::ZERO;
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.999, 100.0] {
            let v = h.percentile(p).expect("histogram is non-empty");
            assert!(v >= last, "percentile must be monotone in p");
            assert!(v >= h.min() && v <= h.max());
            last = v;
        }
        assert_eq!(h.count(), n as u64);
        let mean = h.mean();
        assert!(mean >= h.min() && mean <= h.max());
    }
}

#[test]
fn transfer_time_is_linear_in_bytes() {
    let mut rng = SplitMix64::new(0x51AD_0006);
    for _ in 0..256 {
        let bytes = 1 + rng.next_below((1 << 24) - 1);
        let mgbps = 100 + rng.next_below(199_900);
        let one = transfer_time_mgbps(bytes, mgbps);
        let two = transfer_time_mgbps(bytes * 2, mgbps);
        // Within integer rounding of a factor of two.
        let diff = (two.as_ps() as i128 - 2 * one.as_ps() as i128).abs();
        assert!(diff <= 2, "doubling bytes doubles time (got diff {diff})");
    }
}

/// Every query a histogram answers: count, mean, min, max and
/// `percentile_detail` (value and saturation) at p = 1..=100.
fn queries(
    h: &DurationHistogram,
) -> (u64, SimDuration, SimDuration, SimDuration, Vec<Option<Percentile>>) {
    let pcts = (1..=100).map(|p| h.percentile_detail(f64::from(p))).collect();
    (h.count(), h.mean(), h.min(), h.max(), pcts)
}

/// A duration anywhere from 0 ps to ~1 s, spread evenly over the
/// histogram's logarithmic majors.
fn any_duration(rng: &mut SplitMix64) -> SimDuration {
    let bits = rng.next_below(41);
    SimDuration::from_ps(rng.next_below(1 << bits))
}

fn histogram_of(samples: &[SimDuration]) -> DurationHistogram {
    let mut h = DurationHistogram::new();
    for &d in samples {
        h.record(d);
    }
    h
}

#[test]
fn histogram_merge_matches_one_histogram() {
    let mut rng = SplitMix64::new(0x51AD_0007);
    for case in 0..CASES {
        let n = rng.next_below(400) as usize;
        let samples: Vec<SimDuration> = (0..n).map(|_| any_duration(&mut rng)).collect();
        let whole = histogram_of(&samples);
        // Random splits, splits at a threshold (the two windows do not
        // overlap), and splits that leave one side empty.
        let threshold = any_duration(&mut rng);
        let (left, right): (Vec<SimDuration>, Vec<SimDuration>) = match case % 3 {
            0 => samples.iter().partition(|_| rng.next_below(2) == 0),
            1 => samples.iter().partition(|&&d| d < threshold),
            _ => (samples.clone(), Vec::new()),
        };
        for (first, second) in [(&left, &right), (&right, &left)] {
            let mut merged = histogram_of(first);
            merged.merge(&histogram_of(second));
            assert_eq!(queries(&merged), queries(&whole), "case {case}");
        }
    }
}

/// The log-linear bucket layout `DurationHistogram` documents, as one
/// dense array of 64 majors × 16 minors.
const DENSE_BUCKETS: usize = 64 * 16;

fn dense_index(ps: u64) -> usize {
    if ps < 16 {
        return ps as usize;
    }
    let major = 63 - ps.leading_zeros() as usize;
    major * 16 + ((ps >> (major - 4)) & 0xF) as usize
}

fn dense_value(index: usize) -> u64 {
    let (major, minor) = (index / 16, (index % 16) as u64);
    if major < 4 {
        return index as u64;
    }
    (16 | minor) << (major - 4)
}

/// What `delta_since` documents for a window holding `post`, computed
/// over a dense bucket array: bucket-lower-bound sum, min/max as the
/// bucket bounds of the lowest and highest used bucket clamped into the
/// parent's `[parent_min, parent_max]`.
fn dense_delta_queries(
    post: &[SimDuration],
    parent_min: SimDuration,
    parent_max: SimDuration,
) -> (u64, SimDuration, SimDuration, SimDuration, Vec<Option<Percentile>>) {
    let mut buckets = vec![0u64; DENSE_BUCKETS];
    for d in post {
        buckets[dense_index(d.as_ps())] += 1;
    }
    let used: Vec<usize> = (0..DENSE_BUCKETS).filter(|&i| buckets[i] > 0).collect();
    let (Some(&first), Some(&last)) = (used.first(), used.last()) else {
        return (0, SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO, vec![None; 100]);
    };
    let count = post.len() as u64;
    let sum: u128 = used.iter().map(|&i| u128::from(dense_value(i)) * u128::from(buckets[i])).sum();
    let mean = SimDuration::from_ps((sum / u128::from(count)) as u64);
    let min = SimDuration::from_ps(dense_value(first)).max(parent_min);
    let last_lo = SimDuration::from_ps(dense_value(last)).max(parent_min);
    let last_hi =
        SimDuration::from_ps(dense_value((last + 1).min(DENSE_BUCKETS - 1))).min(parent_max);
    let max = last_hi.max(last_lo);
    let pcts = (1..=100)
        .map(|p| {
            let rank = ((f64::from(p) / 100.0) * count as f64).ceil() as u64;
            let mut value = max;
            if rank < count {
                let mut seen = 0;
                let i = used.iter().find(|&&i| {
                    seen += buckets[i];
                    seen >= rank
                });
                value =
                    SimDuration::from_ps(dense_value(*i.expect("rank < count"))).min(max).max(min);
            }
            Some(Percentile { value, saturated: used.len() == 1 })
        })
        .collect();
    (count, mean, min, max, pcts)
}

#[test]
fn histogram_delta_matches_the_post_snapshot_samples() {
    let mut rng = SplitMix64::new(0x51AD_0008);
    for case in 0..CASES {
        // Half the cases record before the snapshot only in 1..2 µs and
        // after it only below or only above that band, so the window
        // grows past the snapshot's on one side.
        let band = |d: SimDuration| match case % 4 {
            0 | 1 => SimDuration::from_us(1) + SimDuration::from_ps(d.as_ps() % 1_000_000),
            _ => d,
        };
        let pre: Vec<SimDuration> =
            (0..rng.next_below(300)).map(|_| band(any_duration(&mut rng))).collect();
        let post: Vec<SimDuration> = (0..rng.next_below(300))
            .map(|_| {
                let d = any_duration(&mut rng);
                match case % 4 {
                    0 => SimDuration::from_ps(d.as_ps() % 1_000_000),
                    1 => d + SimDuration::from_us(2),
                    _ => d,
                }
            })
            .collect();
        let mut h = histogram_of(&pre);
        let snapshot = h.clone();
        for &d in &post {
            h.record(d);
        }
        let delta = h.delta_since(&snapshot);
        let fresh = histogram_of(&post);
        // Bucket counts carry over exactly, so the sample count and
        // every percentile's saturation match a fresh histogram...
        assert_eq!(delta.count(), fresh.count(), "case {case}");
        for p in 1..=100 {
            let saturated =
                |h: &DurationHistogram| h.percentile_detail(f64::from(p)).map(|d| d.saturated);
            assert_eq!(saturated(&delta), saturated(&fresh), "case {case} p{p}");
        }
        // ...while values are bucket bounds clamped into the parent's
        // range, exactly as over the dense bucket layout.
        assert_eq!(queries(&delta), dense_delta_queries(&post, h.min(), h.max()), "case {case}");
    }
}

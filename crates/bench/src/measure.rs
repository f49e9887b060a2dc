//! Shared measurement machinery for the figure harnesses.
//!
//! Mirrors how `dsa-perf-micros` drives the real device (§4.1): a
//! configurable sweep over transfer sizes, batch sizes, synchronous vs.
//! asynchronous submission (queue depth 32 by default), buffer rings large
//! enough that the write footprint is realistic, and per-op software
//! baselines.

use dsa_core::job::{AsyncQueue, Batch, Job};
use dsa_core::runtime::DsaRuntime;
use dsa_core::DsaError;
use dsa_mem::buffer::Location;
use dsa_mem::memory::BufferHandle;
use dsa_ops::dif::{DifBlockSize, DifConfig};
use dsa_ops::OpKind;
use dsa_sim::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The canonical transfer-size sweep used across the paper's figures.
pub const SIZES: &[u64] = &[256, 1024, 4096, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20];

/// Submission mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One descriptor at a time, wait for each completion.
    Sync,
    /// Streaming submission with a software queue depth.
    Async {
        /// Outstanding descriptors kept in flight (paper default: 32).
        qd: usize,
    },
    /// One batch descriptor per iteration, waited on synchronously.
    SyncBatch {
        /// Descriptors per batch.
        bs: u32,
    },
    /// Batches kept in flight with a small window.
    AsyncBatch {
        /// Descriptors per batch.
        bs: u32,
        /// Outstanding batches.
        window: usize,
    },
}

/// Result of one measurement point.
#[derive(Clone, Copy, Debug)]
pub struct MeasureResult {
    /// Achieved rate against the nominal transfer bytes, in GB/s.
    pub gbps: f64,
    /// Mean per-operation (or per-batch) completion latency.
    pub avg_latency: SimDuration,
    /// Median per-operation latency (sync modes; ZERO otherwise).
    pub p50_latency: SimDuration,
    /// Tail per-operation latency (sync modes; ZERO otherwise).
    pub p99_latency: SimDuration,
}

/// A configurable measurement point.
#[derive(Clone, Debug)]
pub struct Measure {
    op: OpKind,
    size: u64,
    iters: u64,
    mode: Mode,
    src_loc: Location,
    dst_loc: Location,
    cache_control: bool,
    devices: usize,
}

/// Cap on the total bytes of ring buffers allocated per measurement.
const RING_BYTE_CAP: u64 = 512 << 20;

impl Measure {
    /// A memcpy measurement of `size` bytes, sync, local DRAM.
    pub fn new(op: OpKind, size: u64) -> Measure {
        Measure {
            op,
            size,
            iters: 64,
            mode: Mode::Sync,
            src_loc: Location::local_dram(),
            dst_loc: Location::local_dram(),
            cache_control: false,
            devices: 1,
        }
    }

    /// Sets the iteration count.
    pub fn iters(mut self, n: u64) -> Measure {
        self.iters = n.max(1);
        self
    }

    /// Sets the submission mode.
    pub fn mode(mut self, mode: Mode) -> Measure {
        self.mode = mode;
        self
    }

    /// Sets buffer placements.
    pub fn locations(mut self, src: Location, dst: Location) -> Measure {
        self.src_loc = src;
        self.dst_loc = dst;
        self
    }

    /// Steers destination writes to the LLC (cache control = 1).
    pub fn cache_control(mut self, on: bool) -> Measure {
        self.cache_control = on;
        self
    }

    /// Spreads descriptors round-robin over the first `n` devices.
    pub fn devices(mut self, n: usize) -> Measure {
        self.devices = n.max(1);
        self
    }

    /// Rounds a size to the op's granularity (DIF needs whole blocks).
    fn effective_size(&self) -> u64 {
        match self.op {
            OpKind::DifInsert | OpKind::DifCheck | OpKind::DifStrip | OpKind::DifUpdate => {
                (self.size / 512).max(1) * 512
            }
            OpKind::DeltaCreate | OpKind::DeltaApply => ((self.size / 8).max(1) * 8).min(512 << 10),
            _ => self.size.max(1),
        }
    }

    fn ring_len(&self) -> usize {
        let wanted = match self.mode {
            Mode::Sync => 2,
            Mode::Async { qd } => qd + 1,
            Mode::SyncBatch { bs } => bs as usize + 1,
            Mode::AsyncBatch { bs, window } => bs as usize * window + 1,
        };
        // Without cache control the ring only provides variety; with it the
        // ring determines the DDIO write footprint (Fig. 10), so keep the
        // full realistic size then.
        let wanted = if self.cache_control { wanted } else { wanted.min(9) };
        let per_slot = self.effective_size() * 2 + 16;
        let cap = (RING_BYTE_CAP / per_slot.max(1)) as usize;
        wanted.min(cap).max(1)
    }

    /// Builds the job for ring slot `i`.
    fn job(&self, slots: &[OpSlots], i: usize) -> Job {
        let s = &slots[i % slots.len()];
        let job = match self.op {
            OpKind::Nop => Job::nop(),
            OpKind::Memcpy => Job::memcpy(&s.src, &s.dst),
            OpKind::Dualcast => Job::dualcast(&s.src, &s.dst, &s.dst2),
            OpKind::Fill => Job::fill(&s.dst, 0xA5A5_A5A5_A5A5_A5A5),
            OpKind::NtFill => Job::fill(&s.dst, 0x5A5A_5A5A_5A5A_5A5A),
            OpKind::Compare => Job::compare(&s.src, &s.dst),
            OpKind::ComparePattern => Job::compare_pattern(&s.src, 0),
            OpKind::Crc32 => Job::crc32(&s.src),
            OpKind::CopyCrc => Job::copy_crc(&s.src, &s.dst),
            OpKind::DifInsert => {
                Job::dif_insert(&s.src, &s.dst, DifConfig::new(DifBlockSize::B512))
            }
            OpKind::DifCheck => Job::dif_check(&s.dif, DifConfig::new(DifBlockSize::B512)),
            OpKind::DifStrip => Job::dif_strip(&s.dif, &s.dst, DifConfig::new(DifBlockSize::B512)),
            OpKind::DifUpdate => {
                Job::dif_update(&s.dif, &s.dst, DifConfig::new(DifBlockSize::B512))
            }
            OpKind::DeltaCreate => Job::delta_create(&s.src, &s.dst, &s.record),
            OpKind::DeltaApply => Job::delta_apply(&s.record, 10, &s.dst),
            OpKind::CacheFlush => Job::cache_flush(&s.dst),
        };
        let job = job.on_device(i % self.devices);
        // Fill is the *allocating* variant (cache control set); NtFill the
        // non-allocating one — matching Fig. 2's two fill flavours.
        if self.cache_control || self.op == OpKind::Fill {
            job.cache_control()
        } else {
            job
        }
    }

    /// Runs the measurement.
    ///
    /// # Panics
    ///
    /// Panics on non-retryable device errors (a bench-harness bug).
    #[expect(
        clippy::expect_used,
        reason = "documented panicking wrapper; try_run is the fallible path"
    )]
    pub fn run(&self, rt: &mut DsaRuntime) -> MeasureResult {
        self.try_run(rt).expect("measurement failed")
    }

    /// Runs the measurement, surfacing submission errors.
    ///
    /// # Errors
    ///
    /// Propagates [`DsaError`] from the job layer.
    pub fn try_run(&self, rt: &mut DsaRuntime) -> Result<MeasureResult, DsaError> {
        let size = self.effective_size();
        let slots: Vec<OpSlots> = (0..self.ring_len())
            .map(|_| OpSlots::alloc(rt, self.op, size, self.src_loc, self.dst_loc))
            .collect();

        let start = rt.now();
        let mut total_bytes = 0u64;
        let mut latency_sum = SimDuration::ZERO;
        let mut latency_n = 0u64;
        let mut hist = dsa_sim::stats::DurationHistogram::new();
        match self.mode {
            Mode::Sync => {
                for i in 0..self.iters {
                    let before = rt.now();
                    let report = self.job(&slots, i as usize).execute(rt)?;
                    debug_assert!(report.record.status.is_ok(), "{:?}", report.record.status);
                    let lat = rt.now().duration_since(before);
                    latency_sum += lat;
                    hist.record(lat);
                    latency_n += 1;
                    total_bytes += size;
                }
            }
            Mode::Async { qd } => {
                let mut q = AsyncQueue::new(qd.max(1));
                for i in 0..self.iters {
                    q.submit(rt, self.job(&slots, i as usize))?;
                }
                let end = q.drain(rt);
                rt.advance_to(end);
                total_bytes += size * self.iters;
                latency_sum = rt.now().duration_since(start);
                latency_n = 1;
            }
            Mode::SyncBatch { bs } => {
                for i in 0..self.iters {
                    let mut batch = Batch::new().on_device(i as usize % self.devices);
                    if self.cache_control || self.op == OpKind::Fill {
                        batch = batch.cache_control();
                    }
                    for j in 0..bs {
                        batch.push(self.job(&slots, (i * bs as u64 + j as u64) as usize));
                    }
                    let before = rt.now();
                    let report = batch.execute(rt)?;
                    let lat = rt.now().duration_since(before);
                    latency_sum += lat;
                    hist.record(lat);
                    latency_n += 1;
                    total_bytes += size * bs as u64;
                    debug_assert!(report.batch_record.status.is_ok());
                }
            }
            Mode::AsyncBatch { bs, window } => {
                let mut inflight: Vec<SimTime> = Vec::new();
                for i in 0..self.iters {
                    if inflight.len() >= window.max(1) {
                        let oldest = inflight.remove(0);
                        rt.advance_to(oldest);
                    }
                    let mut batch = Batch::new().on_device(i as usize % self.devices);
                    if self.cache_control || self.op == OpKind::Fill {
                        batch = batch.cache_control();
                    }
                    for j in 0..bs {
                        batch.push(self.job(&slots, (i * bs as u64 + j as u64) as usize));
                    }
                    let handle = batch.submit(rt)?;
                    inflight.push(handle.completion_time());
                    total_bytes += size * bs as u64;
                }
                for t in inflight {
                    rt.advance_to(t);
                }
                latency_sum = rt.now().duration_since(start);
                latency_n = 1;
            }
        }
        let elapsed = rt.now().duration_since(start);
        let zero = SimDuration::ZERO;
        let (p50, p99) =
            (hist.percentile(50.0).unwrap_or(zero), hist.percentile(99.0).unwrap_or(zero));
        Ok(MeasureResult {
            gbps: total_bytes as f64 / elapsed.as_ns_f64(),
            avg_latency: if latency_n == 0 { SimDuration::ZERO } else { latency_sum / latency_n },
            p50_latency: p50,
            p99_latency: p99,
        })
    }

    /// The matching single-core software rate in GB/s.
    pub fn cpu_gbps(&self, rt: &DsaRuntime) -> f64 {
        let size = self.effective_size();
        let t = rt.cpu_time(self.op, size, self.src_loc, self.dst_loc);
        size as f64 / t.as_ns_f64()
    }
}

/// Buffer set for one ring slot.
struct OpSlots {
    src: BufferHandle,
    dst: BufferHandle,
    dst2: BufferHandle,
    record: BufferHandle,
    dif: BufferHandle,
}

impl OpSlots {
    fn alloc(
        rt: &mut DsaRuntime,
        op: OpKind,
        size: u64,
        src_loc: Location,
        dst_loc: Location,
    ) -> OpSlots {
        // Operations whose record reports nothing computed from operand
        // bytes run on unbacked operands: the same addresses and timing,
        // and no host time spent on bytes nobody reads.
        let write_only = matches!(
            op,
            OpKind::Memcpy | OpKind::Dualcast | OpKind::Fill | OpKind::NtFill | OpKind::DifInsert
        );
        let mut operand = |len, loc| {
            if write_only {
                rt.alloc_unbacked(len, loc)
            } else {
                rt.alloc(len, loc)
            }
        };
        let src = operand(size, src_loc);
        // DIF insert/update write size + 8 bytes per 512-B block.
        let dst_len = match op {
            OpKind::DifInsert | OpKind::DifUpdate => size + size / 512 * 8,
            _ => size,
        };
        let dst = operand(dst_len, dst_loc);
        let dst2 = match op {
            OpKind::Dualcast => operand(size, dst_loc),
            _ => operand(8, dst_loc),
        };
        let record = match op {
            OpKind::DeltaCreate | OpKind::DeltaApply => rt.alloc(size / 8 * 10 + 10, dst_loc),
            _ => rt.alloc(16, dst_loc),
        };
        let dif = match op {
            OpKind::DifCheck | OpKind::DifStrip | OpKind::DifUpdate => {
                // Pre-protect data so checks succeed.
                let raw = vec![0x77u8; size as usize];
                #[expect(
                    clippy::expect_used,
                    reason = "slot sizes are whole 512-byte blocks by construction"
                )]
                let protected = dsa_ops::dif::dif_insert(&DifConfig::new(DifBlockSize::B512), &raw)
                    .expect("whole blocks");
                let h = rt.alloc(protected.len() as u64, src_loc);
                #[expect(
                    clippy::expect_used,
                    reason = "handle was allocated by the runtime one line up"
                )]
                rt.memory_mut().write(h.addr(), &protected).expect("mapped");
                h
            }
            _ => rt.alloc(8, src_loc),
        };
        OpSlots { src, dst, dst2, record, dif }
    }
}

/// Aggregate copy rate for `threads` submitters, each with its own clock
/// cursor and queue, targeting `wq_of(thread) -> (device, wq)`.
///
/// Used by the Fig. 9 WQ-configuration comparison: N threads to N DWQs vs.
/// N threads to one SWQ.
///
/// # Panics
///
/// Panics on non-retryable submission errors.
pub fn multi_thread_copy_gbps(
    rt: &mut DsaRuntime,
    threads: usize,
    size: u64,
    per_thread: u64,
    qd: usize,
    wq_of: impl Fn(usize) -> (usize, usize),
) -> f64 {
    let slots: Vec<(BufferHandle, BufferHandle)> = (0..threads * 2)
        .map(|_| (rt.alloc(size, Location::local_dram()), rt.alloc(size, Location::local_dram())))
        .collect();
    let mut queues: Vec<AsyncQueue> = (0..threads).map(|_| AsyncQueue::new(qd)).collect();
    let mut heap: BinaryHeap<Reverse<(SimTime, usize, u64)>> =
        (0..threads).map(|t| Reverse((SimTime::ZERO, t, 0u64))).collect();
    let mut finish = SimTime::ZERO;
    while let Some(Reverse((cursor, t, done))) = heap.pop() {
        if done >= per_thread {
            let end = queues[t].drain(rt);
            finish = finish.max(end).max(cursor);
            continue;
        }
        rt.set_now(cursor);
        let (src, dst) = &slots[(t * 2 + (done % 2) as usize) % slots.len()];
        let (dev, wq) = wq_of(t);
        #[expect(
            clippy::expect_used,
            reason = "documented panicking bench helper; a reject here is a harness bug"
        )]
        queues[t]
            .submit(rt, Job::memcpy(src, dst).on_device(dev).on_wq(wq))
            .expect("submission failed");
        heap.push(Reverse((rt.now(), t, done + 1)));
    }
    let total = threads as u64 * per_thread * size;
    total as f64 / finish.as_ns_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::config::presets;
    use dsa_mem::topology::Platform;

    #[test]
    fn sync_copy_measurement_sane() {
        let mut rt = DsaRuntime::spr_default();
        let r = Measure::new(OpKind::Memcpy, 1 << 20).iters(8).run(&mut rt);
        assert!((20.0..31.0).contains(&r.gbps), "1 MiB sync copies near fabric: {}", r.gbps);
        assert!(r.avg_latency.as_us_f64() > 10.0);
    }

    #[test]
    fn async_beats_sync_small() {
        let mut rt = DsaRuntime::spr_default();
        let sync = Measure::new(OpKind::Memcpy, 1024).iters(32).run(&mut rt);
        let mut rt = DsaRuntime::spr_default();
        let asyn =
            Measure::new(OpKind::Memcpy, 1024).iters(256).mode(Mode::Async { qd: 32 }).run(&mut rt);
        assert!(asyn.gbps > 3.0 * sync.gbps, "async {} vs sync {}", asyn.gbps, sync.gbps);
    }

    #[test]
    fn all_fig2_ops_measurable() {
        for op in OpKind::figure2_set() {
            let mut rt = DsaRuntime::spr_default();
            let r = Measure::new(op, 4096).iters(4).run(&mut rt);
            assert!(r.gbps > 0.0, "{op:?}");
            let cpu = Measure::new(op, 4096).cpu_gbps(&rt);
            assert!(cpu > 0.0, "{op:?}");
        }
    }

    #[test]
    fn batch_modes_run() {
        let mut rt = DsaRuntime::spr_default();
        let sb = Measure::new(OpKind::Memcpy, 4096)
            .iters(8)
            .mode(Mode::SyncBatch { bs: 8 })
            .run(&mut rt);
        assert!(sb.gbps > 0.0);
        let mut rt = DsaRuntime::spr_default();
        let ab = Measure::new(OpKind::Memcpy, 4096)
            .iters(16)
            .mode(Mode::AsyncBatch { bs: 8, window: 4 })
            .run(&mut rt);
        assert!(ab.gbps > sb.gbps, "async batches {} vs sync batches {}", ab.gbps, sb.gbps);
    }

    #[test]
    fn multi_thread_pump_scales_with_dwqs() {
        let mut rt =
            DsaRuntime::builder(Platform::spr()).device(presets::n_dwqs_n_engines(4)).build();
        let g4 = multi_thread_copy_gbps(&mut rt, 4, 16 << 10, 200, 16, |t| (0, t));
        assert!(g4 > 10.0, "4 threads on 4 DWQs: {g4}");
    }
}

#[cfg(test)]
mod dif_mode_tests {
    use super::*;

    #[test]
    fn strip_and_update_modes_measure() {
        for op in [OpKind::DifStrip, OpKind::DifUpdate, OpKind::DifCheck] {
            let mut rt = DsaRuntime::spr_default();
            let r = Measure::new(op, 2048).iters(4).run(&mut rt);
            assert!(r.gbps > 0.0, "{op:?}");
        }
    }

    #[test]
    fn sync_mode_reports_percentiles() {
        let mut rt = DsaRuntime::spr_default();
        let r = Measure::new(OpKind::Memcpy, 4096).iters(16).run(&mut rt);
        assert!(r.p50_latency > SimDuration::ZERO);
        assert!(r.p99_latency >= r.p50_latency);
        let mut rt = DsaRuntime::spr_default();
        let a =
            Measure::new(OpKind::Memcpy, 4096).iters(16).mode(Mode::Async { qd: 8 }).run(&mut rt);
        assert_eq!(a.p50_latency, SimDuration::ZERO, "async modes skip percentiles");
    }
}

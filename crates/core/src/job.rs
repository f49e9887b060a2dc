//! The high-level job API — the crate's DML equivalent.
//!
//! A [`Job`] wraps one descriptor with its submission policy. Synchronous
//! execution reproduces the paper's offload phases (Fig. 5): *allocate* the
//! descriptor, *prepare* its fields, *submit* (`MOVDIR64B`/`ENQCMD`), and
//! *wait* for completion. Asynchronous submission plus [`AsyncQueue`]
//! reproduce the queue-depth-32 streaming mode used throughout §4.
//!
//! # The submission entry path
//!
//! All descriptor traffic funnels through this module; the layers above
//! only add policy:
//!
//! * [`Job`] / [`Batch`] — the **mechanism**: one descriptor (or batch
//!   descriptor) onto one WQ, paying the true instruction costs.
//!   [`Job::try_submit`] is the single-attempt primitive (a full WQ
//!   surfaces as an error); [`Job::submit`]/[`Job::execute`] wrap it in
//!   the hardware retry loop.
//! * [`AsyncQueue`] — depth-bounded streaming over `Job`, built on
//!   [`InflightWindow`].
//! * [`Dispatcher`](crate::dispatch::Dispatcher) — **placement policy**
//!   (CPU vs DSA, sync vs async) over the same mechanism.
//! * `DsaService` (the `dsa-svc` crate) — **multi-tenant policy**
//!   (admission control, priorities, deadlines) over `try_submit`.
//!
//! Raw `DsaDevice::submit` remains available for device-model tests but
//! skips the core-side instruction and phase accounting; application code
//! should enter through one of the layers above.
//!
//! ```
//! use dsa_core::prelude::*;
//! use dsa_mem::buffer::Location;
//!
//! let mut rt = DsaRuntime::spr_default();
//! let src = rt.alloc(4096, Location::local_dram());
//! let dst = rt.alloc(4096, Location::local_dram());
//! rt.fill_pattern(&src, 7);
//! let report = Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
//! assert!(report.record.status.is_ok());
//! assert_eq!(rt.read(&dst).unwrap()[0], 7);
//! ```

use crate::error::DsaError;
use crate::runtime::DsaRuntime;
use crate::submit::{InflightWindow, SubmitMethod, WaitMethod};
use dsa_device::config::WqMode;
use dsa_device::descriptor::{BatchDescriptor, CompletionRecord, Descriptor};
use dsa_device::device::{BatchExecution, ExecTimeline, Execution, SubmitError, WqId};
use dsa_mem::memory::BufferHandle;
use dsa_ops::dif::DifConfig;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_telemetry::{DescriptorSpan, JobRecord, Labels, RecordKind, Track};

/// Descriptor allocation cost when not amortized (paper Fig. 5: "the
/// descriptor allocation time is where most time is spent, though in
/// real-world use these descriptors are often pre-allocated").
const DESC_ALLOC: SimDuration = SimDuration::from_ns(900);
/// Writing the handful of descriptor fields (two stores in the amortized
/// case; §4.2 calls this "low-cost"). Shared with the backend layer so
/// dispatch estimates track what submission actually charges.
pub(crate) const DESC_PREPARE: SimDuration = SimDuration::from_ns(12);

/// Durations of the offload phases (Fig. 5's stacked bars).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Phases {
    /// Descriptor allocation (zero when amortized).
    pub alloc: SimDuration,
    /// Descriptor preparation.
    pub prepare: SimDuration,
    /// Submission instruction (including ENQCMD retries).
    pub submit: SimDuration,
    /// Waiting for the completion record.
    pub wait: SimDuration,
}

impl Phases {
    /// Total offload latency.
    pub fn total(&self) -> SimDuration {
        self.alloc + self.prepare + self.submit + self.wait
    }
}

/// Result of a completed job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Completion record contents.
    pub record: CompletionRecord,
    /// Core-side phase breakdown.
    pub phases: Phases,
    /// Device-side phase timestamps.
    pub device_timeline: ExecTimeline,
    /// When the job began (clock at `execute` entry).
    pub started: SimTime,
    /// When the core observed completion.
    pub finished: SimTime,
    /// Core cycles spent in the optimized-wait state (Fig. 11).
    pub idle_wait: SimDuration,
}

impl JobReport {
    /// End-to-end elapsed time.
    pub fn elapsed(&self) -> SimDuration {
        self.finished.duration_since(self.started)
    }

    /// Achieved rate for `bytes` of nominal transfer.
    pub fn gbps(&self, bytes: u64) -> f64 {
        bytes as f64 / self.elapsed().as_ns_f64()
    }
}

/// A configured offload job.
#[derive(Clone, Debug)]
pub struct Job {
    desc: Descriptor,
    device: usize,
    wq: usize,
    wait: WaitMethod,
    amortized: bool,
}

impl Job {
    /// Wraps a raw descriptor.
    pub fn from_descriptor(desc: Descriptor) -> Job {
        Job { desc, device: 0, wq: 0, wait: WaitMethod::SpinPoll, amortized: true }
    }

    /// A no-op descriptor (useful for probing offload overheads).
    pub fn nop() -> Job {
        Job::from_descriptor(Descriptor::nop())
    }

    /// A drain descriptor: completes after everything previously submitted
    /// to the device has completed (ordering barrier).
    pub fn drain() -> Job {
        Job::from_descriptor(Descriptor::drain())
    }

    /// Memory copy.
    pub fn memcpy(src: &BufferHandle, dst: &BufferHandle) -> Job {
        let len = src.len().min(dst.len()) as u32;
        Job::from_descriptor(Descriptor::memmove(src.addr(), dst.addr(), len))
    }

    /// Memory fill with an 8-byte pattern.
    pub fn fill(dst: &BufferHandle, pattern: u64) -> Job {
        Job::from_descriptor(Descriptor::fill(dst.addr(), dst.len() as u32, pattern))
    }

    /// Memory compare.
    pub fn compare(a: &BufferHandle, b: &BufferHandle) -> Job {
        let len = a.len().min(b.len()) as u32;
        Job::from_descriptor(Descriptor::compare(a.addr(), b.addr(), len))
    }

    /// Compare against an 8-byte pattern.
    pub fn compare_pattern(buf: &BufferHandle, pattern: u64) -> Job {
        Job::from_descriptor(Descriptor::compare_pattern(buf.addr(), buf.len() as u32, pattern))
    }

    /// CRC32-C generation over `src`.
    pub fn crc32(src: &BufferHandle) -> Job {
        Job::from_descriptor(Descriptor::crc_gen(src.addr(), src.len() as u32))
    }

    /// Copy with CRC32-C of the transferred data.
    pub fn copy_crc(src: &BufferHandle, dst: &BufferHandle) -> Job {
        let len = src.len().min(dst.len()) as u32;
        Job::from_descriptor(Descriptor::copy_crc(src.addr(), dst.addr(), len))
    }

    /// Dualcast to two destinations.
    pub fn dualcast(src: &BufferHandle, dst1: &BufferHandle, dst2: &BufferHandle) -> Job {
        Job::from_descriptor(Descriptor::dualcast(
            src.addr(),
            dst1.addr(),
            dst2.addr(),
            src.len() as u32,
        ))
    }

    /// Create a delta record of `original` vs `modified` into `record`.
    pub fn delta_create(
        original: &BufferHandle,
        modified: &BufferHandle,
        record: &BufferHandle,
    ) -> Job {
        Job::from_descriptor(Descriptor::delta_create(
            original.addr(),
            modified.addr(),
            original.len() as u32,
            record.addr(),
            record.len() as u32,
        ))
    }

    /// Apply a delta record (of `record_len` bytes) to `target`.
    pub fn delta_apply(record: &BufferHandle, record_len: u32, target: &BufferHandle) -> Job {
        Job::from_descriptor(Descriptor::delta_apply(
            record.addr(),
            record_len,
            target.addr(),
            target.len() as u32,
        ))
    }

    /// DIF insert from raw blocks in `src` to protected blocks in `dst`.
    pub fn dif_insert(src: &BufferHandle, dst: &BufferHandle, cfg: DifConfig) -> Job {
        Job::from_descriptor(Descriptor::dif_insert(src.addr(), dst.addr(), src.len() as u32, cfg))
    }

    /// DIF check of protected blocks in `src`.
    pub fn dif_check(src: &BufferHandle, cfg: DifConfig) -> Job {
        Job::from_descriptor(Descriptor::dif_check(src.addr(), src.len() as u32, cfg))
    }

    /// DIF strip: verify protected blocks in `src`, write raw data to `dst`.
    pub fn dif_strip(src: &BufferHandle, dst: &BufferHandle, cfg: DifConfig) -> Job {
        Job::from_descriptor(Descriptor::dif_strip(src.addr(), dst.addr(), src.len() as u32, cfg))
    }

    /// DIF update: verify protected blocks in `src`, rewrite tuples to `dst`.
    pub fn dif_update(src: &BufferHandle, dst: &BufferHandle, cfg: DifConfig) -> Job {
        Job::from_descriptor(Descriptor::dif_update(src.addr(), dst.addr(), src.len() as u32, cfg))
    }

    /// Cache flush of the range behind `buf`.
    pub fn cache_flush(buf: &BufferHandle) -> Job {
        Job::from_descriptor(Descriptor::cache_flush(buf.addr(), buf.len() as u32))
    }

    /// Targets device `i` (default 0).
    pub fn on_device(mut self, i: usize) -> Job {
        self.device = i;
        self
    }

    /// Targets WQ `i` of the device (default 0).
    pub fn on_wq(mut self, i: usize) -> Job {
        self.wq = i;
        self
    }

    /// Chooses the completion wait method (default spin-poll, as in
    /// `dsa-perf-micros`).
    pub fn wait_method(mut self, w: WaitMethod) -> Job {
        self.wait = w;
        self
    }

    /// Steers destination writes into the LLC (cache control = 1, G3).
    pub fn cache_control(mut self) -> Job {
        self.desc = self.desc.with_cache_control();
        self
    }

    /// Blocks on page faults instead of partially completing.
    pub fn block_on_fault(mut self) -> Job {
        self.desc = self.desc.with_block_on_fault();
        self
    }

    /// Counts descriptor allocation in the phase breakdown (`false` =
    /// pre-allocated descriptors, the paper's default assumption).
    pub fn count_alloc(mut self, count: bool) -> Job {
        self.amortized = !count;
        self
    }

    /// The wrapped descriptor.
    pub fn descriptor(&self) -> &Descriptor {
        &self.desc
    }

    /// Executes synchronously: submit, wait, advance the runtime clock.
    ///
    /// # Errors
    ///
    /// Propagates non-retryable submission failures.
    pub fn execute(self, rt: &mut DsaRuntime) -> Result<JobReport, DsaError> {
        let started = rt.now();
        let wait = self.wait;
        let (handle, phases_pre) = self.issue(rt, true)?;
        let report = handle.wait_with(rt, wait, phases_pre, started);
        Ok(report)
    }

    /// Submits asynchronously, retrying a full WQ until accepted: the
    /// clock advances only past the submission cost; completion is awaited
    /// through the returned handle.
    ///
    /// # Errors
    ///
    /// Propagates non-retryable submission failures.
    pub fn submit(self, rt: &mut DsaRuntime) -> Result<JobHandle, DsaError> {
        Ok(self.issue(rt, true)?.0)
    }

    /// Submits with a *single* portal attempt: a full WQ surfaces as
    /// [`DsaError::Submit`]([`SubmitError::WqFull`]) instead of being
    /// retried internally. Admission-controlled callers (the service
    /// layer's bounded retry-backoff) build on this; [`Job::submit`] is
    /// the retry-until-accepted convenience.
    ///
    /// The clock still advances past the preparation and the cost of the
    /// failed submission instruction — a rejected `ENQCMD` round trip is
    /// not free.
    ///
    /// # Errors
    ///
    /// `WqFull { retry_at }` when the WQ has no free slot, plus every
    /// non-retryable failure `submit` can return.
    pub fn try_submit(self, rt: &mut DsaRuntime) -> Result<JobHandle, DsaError> {
        Ok(self.issue(rt, false)?.0)
    }

    /// Prepares the descriptor and submits it, retrying a full WQ when
    /// `retry` is set; writes the job's record once the WQ accepts.
    fn issue(self, rt: &mut DsaRuntime, retry: bool) -> Result<(JobHandle, Phases), DsaError> {
        let job_start = rt.now();
        let mut phases = self.preflight(rt)?;
        let mut submit_cost = SimDuration::ZERO;
        let exec = loop {
            let (outcome, cost) = self.attempt(rt);
            submit_cost += cost;
            match outcome {
                Ok(exec) => break exec,
                // The submitter retries when a slot frees (ENQCMD retry
                // loop / software occupancy tracking for DWQs).
                Err(SubmitError::WqFull { retry_at }) if retry => rt.advance_to(retry_at),
                Err(e) => return Err(e.into()),
            }
        };
        phases.submit = submit_cost;
        self.note_job(rt, job_start, &exec);
        let handle = JobHandle {
            record: exec.record,
            device_timeline: exec.timeline,
            submit_end: rt.now(),
            xfer_size: self.desc.xfer_size(),
        };
        Ok((handle, phases))
    }

    /// Validates targets and charges the alloc/prepare phases.
    fn preflight(&self, rt: &mut DsaRuntime) -> Result<Phases, DsaError> {
        if self.device >= rt.device_count() {
            return Err(DsaError::UnknownDevice { device: self.device });
        }
        if self.wq >= rt.device(self.device).wq_count() {
            return Err(DsaError::Submit(SubmitError::UnknownWq { wq: self.wq }));
        }
        let mut phases = Phases::default();
        if !self.amortized {
            phases.alloc = DESC_ALLOC;
            rt.advance(DESC_ALLOC);
        }
        phases.prepare = DESC_PREPARE;
        rt.advance(DESC_PREPARE);
        Ok(phases)
    }

    /// One submission-instruction attempt. The core cost (and the ENQCMD
    /// port serialization for shared WQs) is charged to the clock whether
    /// or not the device accepts — a rejected `ENQCMD` still completed
    /// with Retry status — and returned alongside the outcome.
    fn attempt(&self, rt: &mut DsaRuntime) -> (Result<Execution, SubmitError>, SimDuration) {
        let method = match rt.device(self.device).wq_mode(WqId(self.wq)) {
            WqMode::Dedicated => SubmitMethod::Movdir64b,
            WqMode::Shared => SubmitMethod::Enqcmd,
        };
        let issue = rt.now();
        let accept_at = if method.is_posted() {
            issue + method.core_cost()
        } else {
            let port = match rt.parts(self.device).0.enqcmd_accept(WqId(self.wq), issue) {
                Ok(port) => port,
                Err(e) => return (Err(e), SimDuration::ZERO),
            };
            port + (method.core_cost() - SimDuration::from_ns(40))
        };
        let (dev, memory, memsys) = rt.parts(self.device);
        let cost = accept_at.duration_since(issue);
        let outcome = dev.submit(memory, memsys, WqId(self.wq), &self.desc, accept_at);
        rt.advance(cost);
        if let Err(SubmitError::WqFull { .. }) = outcome {
            note_wq_full(rt, self.device, self.wq);
        }
        (outcome, cost)
    }

    /// Writes the job's one telemetry record. The timeline is analytic,
    /// so the full path is known at submission — this covers sync, async,
    /// and service callers alike (the service never calls `wait`; it
    /// reads `completion_time` directly).
    fn note_job(&self, rt: &DsaRuntime, job_start: SimTime, exec: &Execution) {
        if let Some(hub) = rt.hub() {
            let target = (self.device, self.wq);
            hub.record(JobRecord {
                alloc: if self.amortized { SimDuration::ZERO } else { DESC_ALLOC },
                prepare: DESC_PREPARE,
                ..exec_record(RecordKind::Job, target, &self.desc, exec, job_start, rt)
            });
        }
    }
}

/// Counts a submission the WQ refused.
fn note_wq_full(rt: &DsaRuntime, device: usize, wq: usize) {
    if let Some(hub) = rt.hub() {
        hub.counter_add("wq_full", Labels::wq(device as u16, wq as u16), 1);
    }
}

/// The record of a descriptor (or batch) the device ran for a job that
/// started at `start` and finished its portal write by `rt.now()`.
fn device_record(
    kind: RecordKind,
    target: (usize, usize),
    start: SimTime,
    rt: &DsaRuntime,
    t: &ExecTimeline,
) -> JobRecord {
    let desc = DescriptorSpan {
        device: target.0 as u16,
        wq: target.1 as u16,
        marks: [
            t.submitted,
            t.admitted,
            t.dispatched,
            t.translated,
            t.read_done,
            t.data_done,
            t.completed,
        ],
        ..DescriptorSpan::default()
    };
    JobRecord { kind, desc, requested: start, start, submitted: rt.now(), ..JobRecord::default() }
}

/// The record of one descriptor the device executed: a job, or a member
/// of a batch that started at `start`.
fn exec_record(
    kind: RecordKind,
    target: (usize, usize),
    desc: &Descriptor,
    exec: &Execution,
    start: SimTime,
    rt: &DsaRuntime,
) -> JobRecord {
    let mut r = device_record(kind, target, start, rt, &exec.timeline);
    (r.desc.op, r.desc.xfer_size) = (desc.opcode().mnemonic(), desc.xfer_size());
    (r.desc.pe, r.desc.seq) = (exec.pe, exec.seq);
    (r.wq_depth, r.engines_busy, r.engines) = (exec.wq_depth, exec.engines_busy, exec.engines);
    r
}

/// An in-flight asynchronous job.
#[derive(Clone, Debug)]
pub struct JobHandle {
    record: CompletionRecord,
    device_timeline: ExecTimeline,
    submit_end: SimTime,
    xfer_size: u32,
}

impl JobHandle {
    /// When the device will have completed this job.
    pub fn completion_time(&self) -> SimTime {
        self.device_timeline.completed
    }

    /// The completion record the device will have written by
    /// [`completion_time`](Self::completion_time) — lets async callers
    /// check for page-faulted partial completion without blocking.
    pub fn record(&self) -> &CompletionRecord {
        &self.record
    }

    /// The nominal transfer size.
    pub fn xfer_size(&self) -> u32 {
        self.xfer_size
    }

    /// True if the completion record would already be visible at `now`.
    pub fn is_complete(&self, now: SimTime) -> bool {
        now >= self.device_timeline.completed
    }

    /// Waits (spin-poll) and advances the clock.
    pub fn wait(self, rt: &mut DsaRuntime) -> JobReport {
        let started = self.submit_end;
        self.wait_with(rt, WaitMethod::SpinPoll, Phases::default(), started)
    }

    fn wait_with(
        self,
        rt: &mut DsaRuntime,
        wait: WaitMethod,
        mut phases: Phases,
        started: SimTime,
    ) -> JobReport {
        let w = wait.wait(rt.now(), self.device_timeline.completed);
        phases.wait = w.observed_at.saturating_duration_since(rt.now());
        if let Some(hub) = rt.hub().cloned() {
            hub.span(Track::Job, "wait", rt.now(), w.observed_at);
            hub.observe(
                "job_latency",
                Labels::none(),
                w.observed_at.saturating_duration_since(started),
            );
        }
        rt.advance_to(w.observed_at);
        JobReport {
            record: self.record,
            phases,
            device_timeline: self.device_timeline,
            started,
            finished: rt.now(),
            idle_wait: w.idle,
        }
    }
}

/// A software queue keeping up to `depth` jobs in flight — the paper's
/// asynchronous mode ("a queue depth of 32 unless otherwise stated", §4.1).
///
/// Built on the shared [`InflightWindow`] primitive, so its queue-depth
/// semantics are identical to the dispatcher's async path and the service
/// layer's sessions.
#[derive(Debug)]
pub struct AsyncQueue {
    window: InflightWindow<JobHandle>,
    bytes: u64,
}

impl AsyncQueue {
    /// Creates a queue with the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> AsyncQueue {
        AsyncQueue { window: InflightWindow::new(depth), bytes: 0 }
    }

    /// Submits `job`, first reaping the oldest in-flight job if the queue
    /// is at depth (advancing the clock to its completion when needed).
    ///
    /// # Errors
    ///
    /// Propagates submission failures.
    pub fn submit(&mut self, rt: &mut DsaRuntime, job: Job) -> Result<(), DsaError> {
        if self.window.is_full() {
            if let Some((t, h)) = self.window.pop_oldest() {
                rt.advance_to(t);
                self.bytes += h.xfer_size() as u64;
            }
        }
        // Reap anything already finished (free bookkeeping, like checking
        // completion records opportunistically).
        while let Some((_, h)) = self.window.pop_completed(rt.now()) {
            self.bytes += h.xfer_size() as u64;
        }
        let handle = job.submit(rt)?;
        self.window.push(handle.completion_time(), handle);
        Ok(())
    }

    /// Waits for everything outstanding; returns the last completion time.
    pub fn drain(&mut self, rt: &mut DsaRuntime) -> SimTime {
        while let Some((t, h)) = self.window.pop_oldest() {
            rt.advance_to(t);
            self.bytes += h.xfer_size() as u64;
        }
        self.window.last_completion()
    }

    /// Jobs fully completed and reaped.
    pub fn completed(&self) -> u64 {
        self.window.retired()
    }

    /// Bytes across completed jobs.
    pub fn completed_bytes(&self) -> u64 {
        self.bytes
    }
}

/// A batch of descriptors submitted through one batch descriptor (§3.4/F2).
#[derive(Clone, Debug, Default)]
pub struct Batch {
    descs: Vec<Descriptor>,
    device: usize,
    wq: usize,
    cache_control: bool,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Adds a job's descriptor to the batch.
    pub fn push(&mut self, job: Job) -> &mut Batch {
        self.descs.push(job.desc);
        self
    }

    /// Number of descriptors queued.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Targets device `i`.
    pub fn on_device(mut self, i: usize) -> Batch {
        self.device = i;
        self
    }

    /// Targets WQ `i`.
    pub fn on_wq(mut self, i: usize) -> Batch {
        self.wq = i;
        self
    }

    /// Applies cache control to every member descriptor.
    pub fn cache_control(mut self) -> Batch {
        self.cache_control = true;
        self
    }

    /// Submits the batch asynchronously: the clock advances past the
    /// per-descriptor preparation and the single submission instruction;
    /// the returned handle carries per-member completion info.
    ///
    /// # Errors
    ///
    /// Propagates submission failures.
    pub fn submit(mut self, rt: &mut DsaRuntime) -> Result<BatchHandle, DsaError> {
        if self.device >= rt.device_count() {
            return Err(DsaError::UnknownDevice { device: self.device });
        }
        let job_start = rt.now();
        if self.cache_control {
            for d in &mut self.descs {
                *d = d.clone().with_cache_control();
            }
        }
        rt.advance(DESC_PREPARE.saturating_mul(self.descs.len() as u64));
        let list = rt.alloc(64 * self.descs.len() as u64, dsa_mem::buffer::Location::local_dram());
        rt.advance(SubmitMethod::Movdir64b.core_cost());
        let batch = BatchDescriptor::new(list.addr(), self.descs.len() as u32);
        let exec = loop {
            let now = rt.now();
            let (dev, memory, memsys) = rt.parts(self.device);
            match dev.submit_batch(memory, memsys, WqId(self.wq), &batch, &self.descs, now) {
                Ok(exec) => break exec,
                Err(SubmitError::WqFull { retry_at }) => {
                    note_wq_full(rt, self.device, self.wq);
                    rt.advance_to(retry_at);
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.note_batch(rt, job_start, &exec);
        Ok(BatchHandle {
            records: exec.members.iter().map(|m| m.record).collect(),
            batch_record: exec.batch_record,
            member_done: exec.timeline.data_done,
            completed: exec.completed,
            submit_end: rt.now(),
        })
    }

    /// Submits the batch and waits for the batch completion record.
    ///
    /// # Errors
    ///
    /// Propagates submission failures.
    pub fn execute(self, rt: &mut DsaRuntime) -> Result<BatchReport, DsaError> {
        let started = rt.now();
        let h = self.submit(rt)?;
        let w = WaitMethod::SpinPoll.wait(rt.now(), h.completion_time());
        rt.advance_to(w.observed_at);
        Ok(BatchReport {
            records: h.records,
            batch_record: h.batch_record,
            started,
            finished: rt.now(),
        })
    }

    /// Writes the batch's record, then one per member. The batch record
    /// carries the descriptor-list fetch and one critical path for the
    /// whole batch (its timeline is batch-granular: member fetches count
    /// as PE-side work, member data movement as the memory hop).
    fn note_batch(&self, rt: &DsaRuntime, job_start: SimTime, exec: &BatchExecution) {
        let Some(hub) = rt.hub() else { return };
        let bytes: u64 = self.descs.iter().map(|d| u64::from(d.xfer_size())).sum();
        let target = (self.device, self.wq);
        let mut r = device_record(RecordKind::Batch, target, job_start, rt, &exec.timeline);
        (r.desc.op, r.desc.xfer_size) = ("batch", u32::try_from(bytes).unwrap_or(u32::MAX));
        hub.record(r);
        for (desc, m) in self.descs.iter().zip(&exec.members) {
            hub.record(exec_record(RecordKind::Member, target, desc, m, job_start, rt));
        }
    }
}

/// An in-flight asynchronous batch.
#[derive(Clone, Debug)]
pub struct BatchHandle {
    /// Per-member completion records (in submission order).
    pub records: Vec<CompletionRecord>,
    /// The batch-granular record.
    pub batch_record: CompletionRecord,
    member_done: SimTime,
    completed: SimTime,
    submit_end: SimTime,
}

impl BatchHandle {
    /// When the batch completion record becomes visible.
    pub fn completion_time(&self) -> SimTime {
        self.completed
    }

    /// When the last member's data landed.
    pub fn data_done(&self) -> SimTime {
        self.member_done
    }

    /// True if complete at `now`.
    pub fn is_complete(&self, now: SimTime) -> bool {
        now >= self.completed
    }

    /// When submission finished (core free again).
    pub fn submit_end(&self) -> SimTime {
        self.submit_end
    }
}

/// Result of a completed batch.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-member completion records.
    pub records: Vec<CompletionRecord>,
    /// The batch-granular record.
    pub batch_record: CompletionRecord,
    /// Clock at submission start.
    pub started: SimTime,
    /// Clock when the batch record was observed.
    pub finished: SimTime,
}

impl BatchReport {
    /// End-to-end elapsed time.
    pub fn elapsed(&self) -> SimDuration {
        self.finished.duration_since(self.started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_device::config::{DeviceConfig, GroupConfig, WqConfig};
    use dsa_device::descriptor::Status;
    use dsa_mem::buffer::Location;
    use dsa_mem::topology::Platform;
    use dsa_ops::crc32::Crc32c;

    #[test]
    fn sync_memcpy_end_to_end() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(8192, Location::local_dram());
        let dst = rt.alloc(8192, Location::local_dram());
        rt.fill_random(&src);
        let report = Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
        assert_eq!(report.record.status, Status::Success);
        assert_eq!(rt.read(&src).unwrap(), rt.read(&dst).unwrap());
        assert!(report.elapsed().as_ns_f64() > 200.0);
        assert_eq!(report.phases.alloc, SimDuration::ZERO, "amortized by default");
        assert!(report.phases.wait > report.phases.submit);
    }

    #[test]
    fn count_alloc_adds_dominant_phase() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(4096, Location::local_dram());
        let dst = rt.alloc(4096, Location::local_dram());
        let report = Job::memcpy(&src, &dst).count_alloc(true).execute(&mut rt).unwrap();
        // Fig. 5: allocation is the single largest component.
        assert!(report.phases.alloc >= report.phases.prepare);
        assert!(report.phases.alloc >= report.phases.submit);
    }

    #[test]
    fn crc_job_returns_value() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(1024, Location::local_dram());
        rt.fill_random(&src);
        let expected = Crc32c::checksum(rt.read(&src).unwrap());
        let report = Job::crc32(&src).execute(&mut rt).unwrap();
        assert_eq!(report.record.result as u32, expected);
    }

    #[test]
    fn async_queue_streams_and_drains() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(65536, Location::local_dram());
        let dst = rt.alloc(65536, Location::local_dram());
        let mut q = AsyncQueue::new(32);
        for _ in 0..100 {
            q.submit(&mut rt, Job::memcpy(&src, &dst)).unwrap();
        }
        let end = q.drain(&mut rt);
        assert_eq!(q.completed(), 100);
        assert_eq!(q.completed_bytes(), 100 * 65536);
        assert!(end > SimTime::ZERO);
        // Async streaming beats one-at-a-time by a wide margin.
        let gbps = q.completed_bytes() as f64 / end.as_ns_f64();
        assert!(gbps > 15.0, "async 64 KiB copies reached only {gbps} GB/s");
    }

    #[test]
    fn async_faster_than_sync_for_small_transfers() {
        let size = 1024u64;
        let n = 64;

        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(size, Location::local_dram());
        let dst = rt.alloc(size, Location::local_dram());
        for _ in 0..n {
            Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
        }
        let sync_elapsed = rt.now();

        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(size, Location::local_dram());
        let dst = rt.alloc(size, Location::local_dram());
        let mut q = AsyncQueue::new(32);
        for _ in 0..n {
            q.submit(&mut rt, Job::memcpy(&src, &dst)).unwrap();
        }
        let async_elapsed = q.drain(&mut rt);
        assert!(
            async_elapsed.as_ns_f64() < sync_elapsed.as_ns_f64() / 3.0,
            "async {async_elapsed:?} vs sync {sync_elapsed:?}"
        );
    }

    #[test]
    fn batch_executes_members() {
        let mut rt = DsaRuntime::spr_default();
        let mut batch = Batch::new();
        let mut dsts = Vec::new();
        for _ in 0..8 {
            let src = rt.alloc(2048, Location::local_dram());
            let dst = rt.alloc(2048, Location::local_dram());
            rt.fill_pattern(&src, 0xCD);
            batch.push(Job::memcpy(&src, &dst));
            dsts.push(dst);
        }
        let report = batch.execute(&mut rt).unwrap();
        assert_eq!(report.records.len(), 8);
        assert_eq!(report.batch_record.status, Status::Success);
        for dst in &dsts {
            assert!(rt.read(dst).unwrap().iter().all(|&b| b == 0xCD));
        }
    }

    #[test]
    fn shared_wq_uses_enqcmd_cost() {
        let cfg = DeviceConfig {
            groups: vec![GroupConfig::with_engines(1)],
            wqs: vec![WqConfig::shared(32, 0)],
        };
        let mut rt = DsaRuntime::builder(Platform::spr()).device(cfg).build();
        let src = rt.alloc(4096, Location::local_dram());
        let dst = rt.alloc(4096, Location::local_dram());
        let swq = Job::memcpy(&src, &dst).execute(&mut rt).unwrap();

        let mut rt2 = DsaRuntime::spr_default();
        let src2 = rt2.alloc(4096, Location::local_dram());
        let dst2 = rt2.alloc(4096, Location::local_dram());
        let dwq = Job::memcpy(&src2, &dst2).execute(&mut rt2).unwrap();

        assert!(
            swq.phases.submit > dwq.phases.submit,
            "ENQCMD {:?} should cost more than MOVDIR64B {:?}",
            swq.phases.submit,
            dwq.phases.submit
        );
    }

    #[test]
    fn unknown_device_rejected() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(64, Location::local_dram());
        let dst = rt.alloc(64, Location::local_dram());
        let err = Job::memcpy(&src, &dst).on_device(3).execute(&mut rt).unwrap_err();
        assert_eq!(err, DsaError::UnknownDevice { device: 3 });
    }

    #[test]
    fn umwait_reports_idle_cycles() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(1 << 20, Location::local_dram());
        let dst = rt.alloc(1 << 20, Location::local_dram());
        let report =
            Job::memcpy(&src, &dst).wait_method(WaitMethod::Umwait).execute(&mut rt).unwrap();
        // Large transfer: almost the whole wait is spent in UMWAIT.
        let frac = report.idle_wait.as_ns_f64() / report.elapsed().as_ns_f64();
        assert!(frac > 0.9, "idle fraction {frac}");
    }
}

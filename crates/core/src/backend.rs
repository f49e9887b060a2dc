//! The unified offload-backend layer.
//!
//! One [`OffloadBackend`] trait abstracts *where* a data-movement operation
//! runs: on the calling core ([`CpuBackend`], wrapping the runtime's shared
//! [`SwCost`](dsa_ops::swcost::SwCost) model), on one of the platform's DSA
//! instances ([`DsaBackend`], which owns a device *pool* with selection
//! policies so Fig. 10's multi-instance scaling is a first-class runtime
//! capability). Workloads that used to hand-roll
//! private `Cpu|Dsa` enums now share [`Engine`]; the
//! [`Dispatcher`](crate::dispatch::Dispatcher) chooses between backends per
//! call using each backend's [`estimate`](OffloadBackend::estimate).

use crate::error::DsaError;
use crate::job::{Job, DESC_PREPARE};
use crate::runtime::DsaRuntime;
use crate::submit::SubmitMethod;
use dsa_device::config::WqMode;
use dsa_device::descriptor::Status;
use dsa_device::device::WqId;
use dsa_mem::buffer::Location;
use dsa_mem::memory::BufferHandle;
use dsa_ops::crc32::Crc32c;
use dsa_ops::OpKind;
use dsa_sim::time::{transfer_time_mgbps, SimDuration, SimTime};

/// Where a workload's bulk operations run — the shared replacement for the
/// per-workload engine enums that earlier revisions carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Software on the calling core (the paper's one-core baseline).
    Cpu,
    /// A DSA instance.
    Dsa {
        /// Device index within the runtime.
        device: usize,
        /// WQ index within the device.
        wq: usize,
    },
}

impl Engine {
    /// The first DSA instance, WQ 0 — the common single-device setup.
    pub const fn dsa() -> Engine {
        Engine::Dsa { device: 0, wq: 0 }
    }

    /// True when operations leave the core.
    pub const fn is_offloaded(&self) -> bool {
        matches!(self, Engine::Dsa { .. })
    }
}

/// One operation handed to a backend.
#[derive(Clone, Copy, Debug)]
pub struct OffloadRequest {
    /// The operation.
    pub op: OpKind,
    /// Source operand (same handle as `dst` for single-operand ops).
    pub src: BufferHandle,
    /// Destination operand.
    pub dst: BufferHandle,
    /// 8-byte fill/compare pattern operand.
    pub pattern: u64,
    /// G3 hint: the destination is consumed soon — steer writes into the
    /// LLC (DSA `CACHE_CONTROL`).
    pub cache_control: bool,
}

impl OffloadRequest {
    /// A copy from `src` to `dst`.
    pub fn memcpy(src: &BufferHandle, dst: &BufferHandle) -> OffloadRequest {
        OffloadRequest {
            op: OpKind::Memcpy,
            src: *src,
            dst: *dst,
            pattern: 0,
            cache_control: false,
        }
    }

    /// A fill of `dst` with a repeated byte.
    pub fn memset(dst: &BufferHandle, byte: u8) -> OffloadRequest {
        OffloadRequest {
            op: OpKind::Fill,
            src: *dst,
            dst: *dst,
            pattern: u64::from_le_bytes([byte; 8]),
            cache_control: false,
        }
    }

    /// A byte-compare of two buffers.
    pub fn memcmp(a: &BufferHandle, b: &BufferHandle) -> OffloadRequest {
        OffloadRequest { op: OpKind::Compare, src: *a, dst: *b, pattern: 0, cache_control: false }
    }

    /// A CRC32-C over `src`.
    pub fn crc32(src: &BufferHandle) -> OffloadRequest {
        OffloadRequest { op: OpKind::Crc32, src: *src, dst: *src, pattern: 0, cache_control: false }
    }

    /// Sets the G3 cache-control hint.
    pub fn cache_control(mut self, on: bool) -> OffloadRequest {
        self.cache_control = on;
        self
    }

    /// Payload size the operation moves/scans.
    pub fn bytes(&self) -> u64 {
        match self.op {
            OpKind::Fill | OpKind::NtFill => self.dst.len(),
            OpKind::Memcpy | OpKind::Compare => self.src.len().min(self.dst.len()),
            _ => self.src.len(),
        }
    }
}

/// Outcome of a synchronous backend run.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Wall-clock time from call to completion.
    pub elapsed: SimDuration,
    /// Completion status (page faults and compare mismatches included).
    pub status: Status,
    /// Operation result operand (CRC value, mismatch offset, …).
    pub result: u64,
}

/// An in-flight asynchronous operation.
#[derive(Clone, Copy, Debug)]
pub struct Ticket {
    completion: SimTime,
    bytes: u64,
}

impl Ticket {
    pub(crate) fn from_parts(completion: SimTime, bytes: u64) -> Ticket {
        Ticket { completion, bytes }
    }

    /// When the operation's completion record becomes visible.
    pub fn completion_time(&self) -> SimTime {
        self.completion
    }

    /// Payload bytes in flight under this ticket.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the operation has completed by `now`.
    pub fn is_complete(&self, now: SimTime) -> bool {
        self.completion <= now
    }
}

/// An execution target for data-movement operations.
pub trait OffloadBackend {
    /// Short backend name for telemetry labels and reports.
    fn name(&self) -> &'static str;

    /// Predicted wall-clock cost of running `op` over `bytes` from `src`
    /// to `dst` *right now*, including queueing on currently busy backend
    /// resources. Does not mutate any state.
    fn estimate(
        &self,
        rt: &DsaRuntime,
        op: OpKind,
        bytes: u64,
        src: Location,
        dst: Location,
    ) -> SimDuration;

    /// Synchronous execution: performs the work functionally, advances the
    /// clock past completion, and reports the outcome.
    ///
    /// # Errors
    ///
    /// Propagates submission failures ([`DsaError`]).
    fn run(&mut self, rt: &mut DsaRuntime, req: &OffloadRequest) -> Result<Completion, DsaError>;

    /// Asynchronous submission: the clock advances past the *core-side*
    /// submission cost only; the returned ticket tracks completion.
    ///
    /// # Errors
    ///
    /// Propagates submission failures ([`DsaError`]).
    fn submit(&mut self, rt: &mut DsaRuntime, req: &OffloadRequest) -> Result<Ticket, DsaError>;

    /// Waits for `ticket`, advancing the clock to its completion. Returns
    /// the time the core spent blocked.
    fn wait(&mut self, rt: &mut DsaRuntime, ticket: Ticket) -> SimDuration {
        let idle = ticket.completion_time().saturating_duration_since(rt.now());
        rt.advance_to(ticket.completion_time());
        idle
    }
}

/// Performs `req` in software against the runtime's shared cost model —
/// the common fallback path for every backend. An operand range the CPU
/// cannot access (unmapped, crossing allocations, or holding no bytes on
/// a timing-only runtime) completes with `InvalidDescriptor`, as the
/// device reports it, after charging no time.
fn cpu_run(rt: &mut DsaRuntime, req: &OffloadRequest) -> Completion {
    let invalid =
        Completion { elapsed: SimDuration::ZERO, status: Status::InvalidDescriptor, result: 0 };
    // Results the caller reads come from the operands before the clock
    // is charged.
    let (status, result) = match req.op {
        OpKind::Compare => {
            let (Ok(a), Ok(b)) = (rt.read(&req.src), rt.read(&req.dst)) else { return invalid };
            match dsa_ops::memops::compare(a, b) {
                Some(off) => (Status::CompareMismatch, off as u64),
                None => (Status::Success, 0),
            }
        }
        OpKind::Crc32 => {
            let Ok(src) = rt.read(&req.src) else { return invalid };
            (Status::Success, u64::from(Crc32c::checksum(src)))
        }
        _ => (Status::Success, 0),
    };
    let Ok(elapsed) = rt.cpu_op(req.op, &req.src, &req.dst) else { return invalid };
    if matches!(req.op, OpKind::Fill | OpKind::NtFill) {
        // `cpu_op` fills with zero, so the range is writable; honour the
        // requested pattern.
        let pattern = req.pattern.to_le_bytes();
        if let Ok(b) = rt.memory_mut().read_mut(req.dst.addr(), req.dst.len()) {
            for (i, byte) in b.iter_mut().enumerate() {
                *byte = pattern[i % 8];
            }
        }
    }
    Completion { elapsed, status, result }
}

/// The single-core software backend.
///
/// All cost lookups route through [`DsaRuntime::swcost`] — one shared
/// `SwCost` per runtime, never a per-workload copy.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuBackend;

impl OffloadBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn estimate(
        &self,
        rt: &DsaRuntime,
        op: OpKind,
        bytes: u64,
        src: Location,
        dst: Location,
    ) -> SimDuration {
        rt.cpu_time(op, bytes, src, dst)
    }

    fn run(&mut self, rt: &mut DsaRuntime, req: &OffloadRequest) -> Result<Completion, DsaError> {
        Ok(cpu_run(rt, req))
    }

    fn submit(&mut self, rt: &mut DsaRuntime, req: &OffloadRequest) -> Result<Ticket, DsaError> {
        // The core *is* the backend: the work happens inline.
        let bytes = req.bytes();
        cpu_run(rt, req);
        Ok(Ticket { completion: rt.now(), bytes })
    }
}

/// Device selection policy for a [`DsaBackend`] pool (Fig. 10:
/// multi-instance scaling).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Rotate through the pool regardless of state.
    RoundRobin,
    /// Pick the instance with the fewest in-flight descriptors (engine
    /// availability breaks ties).
    LeastLoaded,
    /// Prefer instances on the destination's socket, then least-loaded
    /// among them (UPI-crossing writes are the expensive direction).
    NumaLocal,
}

/// A pool of DSA instances behind one backend.
#[derive(Clone, Debug)]
pub struct DsaBackend {
    pool: Vec<usize>,
    wq: usize,
    policy: PoolPolicy,
    cursor: usize,
}

impl Default for DsaBackend {
    fn default() -> Self {
        DsaBackend::new()
    }
}

impl DsaBackend {
    /// A backend pinned to device 0, WQ 0.
    pub fn new() -> DsaBackend {
        DsaBackend { pool: vec![0], wq: 0, policy: PoolPolicy::RoundRobin, cursor: 0 }
    }

    /// A backend pooling every device of `rt`.
    pub fn all_devices(rt: &DsaRuntime) -> DsaBackend {
        DsaBackend::with_pool((0..rt.device_count()).collect())
    }

    /// A backend over an explicit device pool.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty.
    pub fn with_pool(pool: Vec<usize>) -> DsaBackend {
        assert!(!pool.is_empty(), "a DSA backend needs at least one device");
        DsaBackend { pool, wq: 0, policy: PoolPolicy::RoundRobin, cursor: 0 }
    }

    /// Targets WQ `wq` on every pool device.
    pub fn on_wq(mut self, wq: usize) -> DsaBackend {
        self.wq = wq;
        self
    }

    /// Sets the pool selection policy.
    pub fn with_policy(mut self, policy: PoolPolicy) -> DsaBackend {
        self.policy = policy;
        self
    }

    /// The device pool.
    pub fn pool(&self) -> &[usize] {
        &self.pool
    }

    /// The targeted WQ index.
    pub fn wq(&self) -> usize {
        self.wq
    }

    /// The device the current policy would pick for a request writing to
    /// `dst`, without advancing any policy state.
    pub fn peek(&self, rt: &DsaRuntime, dst: Location) -> usize {
        let live: Vec<usize> =
            self.pool.iter().copied().filter(|&d| d < rt.device_count()).collect();
        if live.is_empty() {
            return self.pool[0];
        }
        let least_loaded = |candidates: &[usize]| {
            candidates
                .iter()
                .copied()
                .min_by_key(|&d| {
                    let dev = rt.device(d);
                    (dev.pending_descriptors(rt.now()), dev.engines_next_free())
                })
                .unwrap_or(self.pool[0])
        };
        match self.policy {
            PoolPolicy::RoundRobin => live[self.cursor % live.len()],
            PoolPolicy::LeastLoaded => least_loaded(&live),
            PoolPolicy::NumaLocal => {
                let target = match dst {
                    Location::Dram { socket } => socket,
                    _ => 0,
                };
                let local: Vec<usize> =
                    live.iter().copied().filter(|&d| rt.device(d).socket() == target).collect();
                if local.is_empty() {
                    least_loaded(&live)
                } else {
                    least_loaded(&local)
                }
            }
        }
    }

    /// Chooses a device for a request writing to `dst` and advances the
    /// policy state.
    pub fn select(&mut self, rt: &DsaRuntime, dst: Location) -> usize {
        let pick = self.peek(rt, dst);
        self.cursor = self.cursor.wrapping_add(1);
        pick
    }

    /// Core-side cost of one asynchronous submission to this backend's WQ
    /// (descriptor prepare + portal write; G2's async break-even anchor).
    pub fn submit_cost(&self, rt: &DsaRuntime, dst: Location) -> SimDuration {
        let dev = self.peek(rt, dst).min(rt.device_count().saturating_sub(1));
        let method = match rt.device(dev).wq_mode(WqId(self.wq.min(rt.device(dev).wq_count() - 1)))
        {
            WqMode::Dedicated => SubmitMethod::Movdir64b,
            WqMode::Shared => SubmitMethod::Enqcmd,
        };
        DESC_PREPARE + method.core_cost()
    }

    fn job_for(req: &OffloadRequest) -> Job {
        let job = match req.op {
            OpKind::Fill | OpKind::NtFill => Job::fill(&req.dst, req.pattern),
            OpKind::Compare => Job::compare(&req.src, &req.dst),
            OpKind::ComparePattern => Job::compare_pattern(&req.src, req.pattern),
            OpKind::Crc32 => Job::crc32(&req.src),
            _ => Job::memcpy(&req.src, &req.dst),
        };
        if req.cache_control {
            job.cache_control()
        } else {
            job
        }
    }
}

impl OffloadBackend for DsaBackend {
    fn name(&self) -> &'static str {
        "dsa"
    }

    /// Mirrors the device pipeline for an amortized-descriptor sync job:
    /// prepare + portal write on the core, then accept → dispatch → engine
    /// (pipeline fill + rate-limited streaming) → completion write, plus
    /// queueing for a busy engine. The streaming rate is capped by the
    /// engine, the fabric, and the read-buffer MLP limit for the source
    /// medium (F3); the pipeline fill is the memory round-trip the first
    /// chunk pays before streaming overlaps — it dominates small
    /// transfers and is what puts the sync break-even near 4 KiB.
    fn estimate(
        &self,
        rt: &DsaRuntime,
        op: OpKind,
        bytes: u64,
        src: Location,
        dst: Location,
    ) -> SimDuration {
        let dev_idx = self.peek(rt, dst).min(rt.device_count().saturating_sub(1));
        let dev = rt.device(dev_idx);
        let t = dev.timing();
        let queue = dev.engines_next_free().saturating_duration_since(rt.now());
        let mlp = t.read_mlp_mgbps(rt.memsys().read_latency(src));
        let rate = t.pe_mgbps.min(t.fabric_mgbps).min(mlp);
        // Fills only write; compares/CRCs only read; copies chase writes
        // behind reads chunk by chunk.
        let streamed = transfer_time_mgbps(bytes, rate);
        let fill = match op {
            OpKind::Fill | OpKind::NtFill => rt.memsys().write_latency(dst),
            OpKind::Compare | OpKind::ComparePattern | OpKind::Crc32 => {
                rt.memsys().read_latency(src)
            }
            _ => rt.memsys().read_latency(src) + rt.memsys().write_latency(dst),
        };
        self.submit_cost(rt, dst)
            + queue
            + t.portal_accept
            + t.dispatch
            + t.pe_fixed
            + fill
            + streamed
            + t.completion_write
            + rt.platform().llc_latency
    }

    fn run(&mut self, rt: &mut DsaRuntime, req: &OffloadRequest) -> Result<Completion, DsaError> {
        let device = self.select(rt, location_of(rt, &req.dst));
        let report = Self::job_for(req).on_device(device).on_wq(self.wq).execute(rt)?;
        Ok(Completion {
            elapsed: report.elapsed(),
            status: report.record.status,
            result: report.record.result,
        })
    }

    fn submit(&mut self, rt: &mut DsaRuntime, req: &OffloadRequest) -> Result<Ticket, DsaError> {
        let bytes = req.bytes();
        let device = self.select(rt, location_of(rt, &req.dst));
        let handle = Self::job_for(req).on_device(device).on_wq(self.wq).submit(rt)?;
        Ok(Ticket { completion: handle.completion_time(), bytes })
    }
}

fn location_of(rt: &DsaRuntime, buf: &BufferHandle) -> Location {
    rt.memory().location_of(buf.addr()).unwrap_or(Location::local_dram())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;
    use dsa_mem::topology::Platform;

    fn rt_with_devices(n: usize) -> DsaRuntime {
        DsaRuntime::builder(Platform::spr())
            .devices(n, presets::engines_behind_one_dwq(1, 32))
            .build()
    }

    #[test]
    fn cpu_backend_estimate_matches_runtime_swcost() {
        let rt = DsaRuntime::spr_default();
        let cpu = CpuBackend;
        let d = Location::local_dram();
        assert_eq!(
            cpu.estimate(&rt, OpKind::Memcpy, 4096, d, d),
            rt.cpu_time(OpKind::Memcpy, 4096, d, d)
        );
    }

    #[test]
    fn cpu_backend_runs_functionally() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(1024, Location::local_dram());
        let dst = rt.alloc(1024, Location::local_dram());
        rt.fill_random(&src);
        let mut cpu = CpuBackend;
        cpu.run(&mut rt, &OffloadRequest::memcpy(&src, &dst)).unwrap();
        assert_eq!(rt.read(&src).unwrap(), rt.read(&dst).unwrap());

        cpu.run(&mut rt, &OffloadRequest::memset(&dst, 0x5A)).unwrap();
        assert!(rt.read(&dst).unwrap().iter().all(|&b| b == 0x5A));

        let c = cpu.run(&mut rt, &OffloadRequest::memcmp(&src, &dst)).unwrap();
        assert_eq!(c.status, Status::CompareMismatch);
    }

    #[test]
    fn dsa_estimate_tracks_measured_sync_latency() {
        // The estimate must stay close enough to a measured execution for
        // break-even decisions to be trustworthy.
        for bytes in [1u64 << 10, 4 << 10, 64 << 10, 1 << 20] {
            let mut rt = DsaRuntime::spr_default();
            let src = rt.alloc(bytes, Location::local_dram());
            let dst = rt.alloc(bytes, Location::local_dram());
            // Warm the ATC: the first execution pays IOMMU walks that
            // steady-state dispatch (what the estimate predicts) does not.
            Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
            let backend = DsaBackend::new();
            let d = Location::local_dram();
            let est = backend.estimate(&rt, OpKind::Memcpy, bytes, d, d).as_ns_f64();
            let measured = Job::memcpy(&src, &dst).execute(&mut rt).unwrap().elapsed().as_ns_f64();
            let ratio = est / measured;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{bytes} B: estimate {est} ns vs measured {measured} ns"
            );
        }
    }

    #[test]
    fn round_robin_rotates_across_pool() {
        let rt = rt_with_devices(3);
        let mut b = DsaBackend::all_devices(&rt);
        let d = Location::local_dram();
        let picks: Vec<usize> = (0..6).map(|_| b.select(&rt, d)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_avoids_busy_device() {
        let mut rt = rt_with_devices(2);
        // Load device 0 with a large sync copy so its engine stays busy.
        let src = rt.alloc(4 << 20, Location::local_dram());
        let dst = rt.alloc(4 << 20, Location::local_dram());
        let handle = Job::memcpy(&src, &dst).on_device(0).submit(&mut rt).unwrap();
        assert!(!handle.is_complete(rt.now()));

        let b = DsaBackend::all_devices(&rt).with_policy(PoolPolicy::LeastLoaded);
        assert_eq!(b.peek(&rt, Location::local_dram()), 1, "busy device 0 must be avoided");

        // Once the transfer drains, device 0 reports no pending work (the
        // policy may still prefer device 1's never-used engines).
        rt.advance_to(handle.completion_time());
        assert_eq!(rt.device(0).pending_descriptors(rt.now()), 0);
    }

    #[test]
    fn numa_local_prefers_destination_socket() {
        // Devices alternate sockets (0, 1, 0, 1) on the two-socket SPR.
        let rt = rt_with_devices(4);
        assert_eq!(rt.device(0).socket(), 0);
        assert_eq!(rt.device(1).socket(), 1);
        let b = DsaBackend::all_devices(&rt).with_policy(PoolPolicy::NumaLocal);
        assert_eq!(rt.device(b.peek(&rt, Location::Dram { socket: 0 })).socket(), 0);
        assert_eq!(rt.device(b.peek(&rt, Location::Dram { socket: 1 })).socket(), 1);
    }
}

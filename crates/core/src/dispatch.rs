//! The policy dispatcher: guidelines G2 and G3 as *live* routing policy.
//!
//! A [`Dispatcher`] decides per call whether an operation runs on the
//! calling core ([`DsaRuntime::cpu_op`]) or on its [`DsaBackend`] device
//! pool, synchronously or asynchronously:
//!
//! * **G2** — the sync break-even (≈ 4 KB) and async break-even (≈ 256 B)
//!   emerge from comparing the runtime's software cost model with the
//!   pool's [`estimate`](DsaBackend::estimate) rather than from a
//!   hard-coded size table;
//! * **G3** — the [`consumed_soon`](Dispatcher::consumed_soon) hint steers
//!   offloaded writes into the LLC via `CACHE_CONTROL`.
//!
//! Both sides run the same [`Job`]: the device executes its descriptor,
//! the core runs the descriptor's operation with the device's byte
//! semantics, so a call returns the same result wherever it lands.
//!
//! Every decision is mirrored into local [`DispatchStats`] and, when the
//! runtime carries a telemetry [`Hub`](dsa_telemetry::Hub), into labelled
//! counters (`dispatch_cpu`, `dispatch_dsa_sync`, `dispatch_dsa_async`,
//! `dispatch_cache_control`, `dispatch_fault_fallbacks`).

use crate::backend::DsaBackend;
use crate::error::DsaError;
use crate::job::Job;
use crate::runtime::DsaRuntime;
use crate::submit::InflightWindow;
use dsa_device::descriptor::{CompletionRecord, Status};
use dsa_mem::buffer::Location;
use dsa_mem::memory::BufferHandle;
use dsa_ops::OpKind;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_telemetry::Labels;

/// How the dispatcher routes operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Estimate-driven: compare the software and device models per call
    /// (G2's break-evens become emergent behaviour).
    Adaptive,
    /// DTO-style fixed byte threshold: offload at or above the threshold.
    Threshold(u64),
    /// Never offload.
    CpuOnly,
    /// Always offload (asynchronously when an async depth is set).
    DsaOnly,
}

/// Where one operation was routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Software on the calling core.
    Cpu,
    /// Synchronous descriptor: submit and poll to completion.
    DsaSync,
    /// Asynchronous descriptor: submit and continue.
    DsaAsync,
}

/// Decision counters a dispatcher accumulates.
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchStats {
    /// Calls routed to the core.
    pub cpu_calls: u64,
    /// Calls offloaded synchronously.
    pub sync_offloads: u64,
    /// Calls offloaded asynchronously.
    pub async_offloads: u64,
    /// Bytes moved by the core.
    pub cpu_bytes: u64,
    /// Bytes moved by the device.
    pub offloaded_bytes: u64,
    /// Offloaded operations carrying `CACHE_CONTROL` (G3).
    pub cache_controlled: u64,
    /// Offloads that hit a page fault and were redone in software.
    pub fault_fallbacks: u64,
}

impl DispatchStats {
    /// Total calls routed.
    pub fn calls(&self) -> u64 {
        self.cpu_calls + self.sync_offloads + self.async_offloads
    }

    /// Calls that left the core.
    pub fn offloaded_calls(&self) -> u64 {
        self.sync_offloads + self.async_offloads
    }

    /// Fraction of calls offloaded.
    pub fn call_fraction(&self) -> f64 {
        if self.calls() == 0 {
            0.0
        } else {
            self.offloaded_calls() as f64 / self.calls() as f64
        }
    }

    /// Fraction of bytes offloaded.
    pub fn byte_fraction(&self) -> f64 {
        let total = self.cpu_bytes + self.offloaded_bytes;
        if total == 0 {
            0.0
        } else {
            self.offloaded_bytes as f64 / total as f64
        }
    }
}

/// Routes data-movement operations between the core and a DSA pool per
/// policy.
#[derive(Clone, Debug)]
pub struct Dispatcher {
    dsa: DsaBackend,
    policy: DispatchPolicy,
    async_depth: usize,
    consumed_soon: bool,
    /// Completion times of outstanding asynchronous offloads.
    inflight: InflightWindow<()>,
    stats: DispatchStats,
}

impl Default for Dispatcher {
    fn default() -> Self {
        Dispatcher::new()
    }
}

impl Dispatcher {
    /// An adaptive, synchronous-only dispatcher over device 0.
    pub fn new() -> Dispatcher {
        Dispatcher {
            dsa: DsaBackend::new(),
            policy: DispatchPolicy::Adaptive,
            async_depth: 0,
            consumed_soon: false,
            inflight: InflightWindow::new(1),
            stats: DispatchStats::default(),
        }
    }

    /// An adaptive dispatcher pooling every device of `rt`.
    pub fn all_devices(rt: &DsaRuntime) -> Dispatcher {
        Dispatcher::new().with_backend(DsaBackend::all_devices(rt))
    }

    /// Sets the routing policy.
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Dispatcher {
        self.policy = policy;
        self
    }

    /// Replaces the DSA backend (pool, WQ, selection policy).
    pub fn with_backend(mut self, dsa: DsaBackend) -> Dispatcher {
        self.dsa = dsa;
        self
    }

    /// Allows asynchronous offload up to `depth` outstanding operations
    /// (0 disables async; G2's "if asynchronous offload is possible").
    pub fn with_async_depth(mut self, depth: usize) -> Dispatcher {
        self.async_depth = depth;
        self.inflight = InflightWindow::new(depth.max(1));
        self
    }

    /// G3 hint: offloaded destinations are consumed soon, so writes should
    /// allocate into the LLC.
    pub fn consumed_soon(mut self, yes: bool) -> Dispatcher {
        self.consumed_soon = yes;
        self
    }

    /// Decision counters so far.
    pub fn stats(&self) -> DispatchStats {
        self.stats
    }

    /// The active routing policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The DSA backend.
    pub fn dsa(&self) -> &DsaBackend {
        &self.dsa
    }

    /// Where the dispatcher would route `op` over `bytes` with the given
    /// placements, right now. Compares, pattern compares and CRCs never go
    /// asynchronous: the caller reads their result, so they complete
    /// before the call returns.
    pub fn decide(
        &self,
        rt: &DsaRuntime,
        op: OpKind,
        bytes: u64,
        src: Location,
        dst: Location,
    ) -> Decision {
        let yields_result = matches!(op, OpKind::Compare | OpKind::ComparePattern | OpKind::Crc32);
        let offload = if self.async_depth > 0 && !yields_result {
            Decision::DsaAsync
        } else {
            Decision::DsaSync
        };
        match self.policy {
            DispatchPolicy::CpuOnly => Decision::Cpu,
            DispatchPolicy::DsaOnly => offload,
            DispatchPolicy::Threshold(t) => {
                if bytes >= t {
                    offload
                } else {
                    Decision::Cpu
                }
            }
            DispatchPolicy::Adaptive => {
                let cpu = rt.cpu_time(op, bytes, src, dst);
                // Async: the core only pays the submission, so offload as
                // soon as software costs more than preparing a descriptor
                // (the ≈ 256 B break-even of Fig. 2b).
                if offload == Decision::DsaAsync && cpu > self.dsa.submit_cost(rt, dst) {
                    return Decision::DsaAsync;
                }
                // Sync: offload when the full device round-trip beats the
                // core (the ≈ 4 KB break-even of Fig. 2a).
                if self.dsa.estimate(rt, op, bytes, src, dst) < cpu {
                    Decision::DsaSync
                } else {
                    Decision::Cpu
                }
            }
        }
    }

    fn count(&self, rt: &DsaRuntime, name: &'static str, n: u64) {
        if let Some(hub) = rt.hub() {
            hub.counter_add(name, Labels::none(), n);
        }
    }

    fn note_decision(&mut self, rt: &DsaRuntime, decision: Decision, bytes: u64) {
        match decision {
            Decision::Cpu => {
                self.stats.cpu_calls += 1;
                self.stats.cpu_bytes += bytes;
                self.count(rt, "dispatch_cpu", 1);
            }
            Decision::DsaSync => {
                self.stats.sync_offloads += 1;
                self.stats.offloaded_bytes += bytes;
                self.count(rt, "dispatch_dsa_sync", 1);
            }
            Decision::DsaAsync => {
                self.stats.async_offloads += 1;
                self.stats.offloaded_bytes += bytes;
                self.count(rt, "dispatch_dsa_async", 1);
            }
        }
        if decision != Decision::Cpu && self.consumed_soon {
            self.stats.cache_controlled += 1;
            self.count(rt, "dispatch_cache_control", 1);
        }
    }

    /// Routes one job and returns its completion record (for an async
    /// offload, the record the device will have written on completion).
    fn execute(&mut self, rt: &mut DsaRuntime, job: Job) -> Result<CompletionRecord, DsaError> {
        let desc = job.descriptor();
        let (op, bytes) = (desc.opcode().op_kind(), u64::from(desc.xfer_size()));
        let (src, dst) = rt.placements(desc);
        let decision = self.decide(rt, op, bytes, src, dst);
        self.note_decision(rt, decision, bytes);
        if decision == Decision::Cpu {
            return Ok(rt.cpu_op(&job).0);
        }
        if decision == Decision::DsaAsync {
            self.make_room(rt);
        }
        let device = self.dsa.select(rt, dst);
        let mut offload = job.clone().on_device(device).on_wq(self.dsa.wq());
        if self.consumed_soon {
            offload = offload.cache_control();
        }
        if decision == Decision::DsaAsync {
            let handle = offload.submit(rt)?;
            self.inflight.push(handle.completion_time(), ());
            return Ok(*handle.record());
        }
        let record = offload.execute(rt)?.record;
        if matches!(record.status, Status::PageFault { .. }) {
            // Partial completion: software finishes the job (the paper's
            // recommended fault handling).
            self.stats.fault_fallbacks += 1;
            self.count(rt, "dispatch_fault_fallbacks", 1);
            return Ok(rt.cpu_op(&job).0);
        }
        Ok(record)
    }

    /// Copies `src` to `dst`; returns elapsed core time.
    ///
    /// # Errors
    ///
    /// Propagates submission failures ([`DsaError`]).
    pub fn memcpy(
        &mut self,
        rt: &mut DsaRuntime,
        src: &BufferHandle,
        dst: &BufferHandle,
    ) -> Result<SimDuration, DsaError> {
        let start = rt.now();
        self.execute(rt, Job::memcpy(src, dst))?;
        Ok(rt.now().duration_since(start))
    }

    /// Fills `dst` with `byte`; returns elapsed core time.
    ///
    /// # Errors
    ///
    /// Propagates submission failures ([`DsaError`]).
    pub fn memset(
        &mut self,
        rt: &mut DsaRuntime,
        dst: &BufferHandle,
        byte: u8,
    ) -> Result<SimDuration, DsaError> {
        let start = rt.now();
        self.execute(rt, Job::fill(dst, u64::from_le_bytes([byte; 8])))?;
        Ok(rt.now().duration_since(start))
    }

    /// Compares two buffers; returns the first mismatch offset (if any)
    /// and elapsed core time. The compare has completed when this
    /// returns, whatever the async depth.
    ///
    /// # Errors
    ///
    /// Propagates submission failures ([`DsaError`]).
    pub fn memcmp(
        &mut self,
        rt: &mut DsaRuntime,
        a: &BufferHandle,
        b: &BufferHandle,
    ) -> Result<(Option<u64>, SimDuration), DsaError> {
        let start = rt.now();
        let record = self.execute(rt, Job::compare(a, b))?;
        let diff = (record.status == Status::CompareMismatch).then_some(record.result);
        Ok((diff, rt.now().duration_since(start)))
    }

    /// Reaps completed offloads and, when the window is at depth, blocks
    /// on the oldest outstanding one.
    fn make_room(&mut self, rt: &mut DsaRuntime) {
        while self.inflight.pop_completed(rt.now()).is_some() {}
        if self.inflight.is_full() {
            if let Some((t, ())) = self.inflight.pop_oldest() {
                rt.advance_to(t);
            }
        }
    }

    /// Waits for every outstanding asynchronous operation; returns the
    /// drain completion time.
    pub fn drain(&mut self, rt: &mut DsaRuntime) -> SimTime {
        while let Some((t, ())) = self.inflight.pop_oldest() {
            rt.advance_to(t);
        }
        rt.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_mem::buffer::Location;

    #[test]
    fn cpu_only_and_dsa_only_follow_policy() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(64 << 10, Location::local_dram());
        let dst = rt.alloc(64 << 10, Location::local_dram());
        rt.fill_random(&src);

        let mut cpu = Dispatcher::new().with_policy(DispatchPolicy::CpuOnly);
        cpu.memcpy(&mut rt, &src, &dst).unwrap();
        assert_eq!(cpu.stats().cpu_calls, 1);
        assert_eq!(cpu.stats().offloaded_calls(), 0);
        assert_eq!(rt.read(&src).unwrap(), rt.read(&dst).unwrap());

        let mut dsa = Dispatcher::new().with_policy(DispatchPolicy::DsaOnly);
        dsa.memcpy(&mut rt, &src, &dst).unwrap();
        assert_eq!(dsa.stats().sync_offloads, 1);
    }

    #[test]
    fn adaptive_routes_small_to_cpu_large_to_dsa() {
        let mut rt = DsaRuntime::spr_default();
        let small_s = rt.alloc(256, Location::local_dram());
        let small_d = rt.alloc(256, Location::local_dram());
        let big_s = rt.alloc(1 << 20, Location::local_dram());
        let big_d = rt.alloc(1 << 20, Location::local_dram());
        let mut d = Dispatcher::new();
        d.memcpy(&mut rt, &small_s, &small_d).unwrap();
        d.memcpy(&mut rt, &big_s, &big_d).unwrap();
        assert_eq!(d.stats().cpu_calls, 1, "256 B should stay on the core");
        assert_eq!(d.stats().sync_offloads, 1, "1 MiB should offload");
    }

    #[test]
    fn async_depth_enables_async_offload() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(16 << 10, Location::local_dram());
        let dst = rt.alloc(16 << 10, Location::local_dram());
        let mut d = Dispatcher::new().with_async_depth(32);
        for _ in 0..64 {
            d.memcpy(&mut rt, &src, &dst).unwrap();
        }
        d.drain(&mut rt);
        assert_eq!(d.stats().async_offloads, 64);
    }

    #[test]
    fn memcmp_reports_a_difference_under_an_async_depth() {
        for mut d in [
            Dispatcher::new().with_policy(DispatchPolicy::DsaOnly).with_async_depth(8),
            Dispatcher::new().with_async_depth(32),
        ] {
            let mut rt = DsaRuntime::spr_default();
            let a = rt.alloc(64 << 10, Location::local_dram());
            let b = rt.alloc(64 << 10, Location::local_dram());
            rt.fill_pattern(&a, 0x01);
            rt.fill_pattern(&b, 0x02);
            let (diff, _) = d.memcmp(&mut rt, &a, &b).unwrap();
            assert_eq!(diff, Some(0), "{:?}", d.policy());
            assert_eq!(d.stats().async_offloads, 0, "a compare completes before memcmp returns");
        }
    }

    #[test]
    fn cache_control_hint_is_counted() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(1 << 20, Location::local_dram());
        let dst = rt.alloc(1 << 20, Location::local_dram());
        let mut d = Dispatcher::new().with_policy(DispatchPolicy::DsaOnly).consumed_soon(true);
        d.memcpy(&mut rt, &src, &dst).unwrap();
        assert_eq!(d.stats().cache_controlled, 1);
    }
}

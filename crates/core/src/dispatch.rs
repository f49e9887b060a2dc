//! The policy dispatcher: guidelines G1–G3 as *live* routing policy.
//!
//! A [`Dispatcher`] fronts a [`CpuBackend`] and a [`DsaBackend`] and decides
//! per call where each operation runs:
//!
//! * **G2** — the sync break-even (≈ 4 KB) and async break-even (≈ 256 B)
//!   emerge from comparing the backends' [`estimate`](OffloadBackend::estimate)s
//!   rather than from a hard-coded size table;
//! * **G1** — [`copy_burst`](Dispatcher::copy_burst) assembles scattered
//!   transfers into batch descriptors instead of submitting one descriptor
//!   per element;
//! * **G3** — the [`consumed_soon`](Dispatcher::consumed_soon) hint steers
//!   offloaded writes into the LLC via `CACHE_CONTROL`.
//!
//! Every decision is mirrored into local [`DispatchStats`] and, when the
//! runtime carries a telemetry [`Hub`](dsa_telemetry::Hub), into labelled
//! counters (`dispatch_cpu`, `dispatch_dsa_sync`, `dispatch_dsa_async`,
//! `dispatch_g1_batches`, `dispatch_cache_control`, `dispatch_fault_fallbacks`).

use crate::backend::{CpuBackend, DsaBackend, Engine, OffloadBackend, OffloadRequest, Ticket};
use crate::error::DsaError;
use crate::guidelines;
use crate::job::{Batch, Job};
use crate::runtime::DsaRuntime;
use crate::submit::InflightWindow;
use dsa_device::descriptor::Status;
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
    /// Batch descriptors assembled by burst submission (G1).
    pub batch_descriptors: u64,
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

/// Routes data-movement operations across backends per policy.
#[derive(Clone, Debug)]
pub struct Dispatcher {
    cpu: CpuBackend,
    dsa: DsaBackend,
    policy: DispatchPolicy,
    async_depth: usize,
    consumed_soon: bool,
    inflight: InflightWindow<Ticket>,
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
            cpu: CpuBackend,
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

    /// Builds a dispatcher matching `engine`: `Engine::Cpu` never offloads;
    /// `Engine::Dsa` always offloads to the named device/WQ. The bridge for
    /// workloads migrated off their private enums.
    pub fn for_engine(engine: Engine) -> Dispatcher {
        match engine {
            Engine::Cpu => Dispatcher::new().with_policy(DispatchPolicy::CpuOnly),
            Engine::Dsa { device, wq } => Dispatcher::new()
                .with_policy(DispatchPolicy::DsaOnly)
                .with_backend(DsaBackend::with_pool(vec![device]).on_wq(wq)),
        }
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
    /// placements, right now.
    pub fn decide(
        &self,
        rt: &DsaRuntime,
        op: OpKind,
        bytes: u64,
        src: Location,
        dst: Location,
    ) -> Decision {
        match self.policy {
            DispatchPolicy::CpuOnly => Decision::Cpu,
            DispatchPolicy::DsaOnly => {
                if self.async_depth > 0 {
                    Decision::DsaAsync
                } else {
                    Decision::DsaSync
                }
            }
            DispatchPolicy::Threshold(t) => {
                if bytes >= t {
                    if self.async_depth > 0 {
                        Decision::DsaAsync
                    } else {
                        Decision::DsaSync
                    }
                } else {
                    Decision::Cpu
                }
            }
            DispatchPolicy::Adaptive => {
                let cpu = self.cpu.estimate(rt, op, bytes, src, dst);
                // Async: the core only pays the submission, so offload as
                // soon as software costs more than preparing a descriptor
                // (the ≈ 256 B break-even of Fig. 2b).
                if self.async_depth > 0 && cpu > self.dsa.submit_cost(rt, dst) {
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

    /// Routes one request; returns its completion outcome (for async
    /// decisions, the outcome of the submission).
    fn execute(
        &mut self,
        rt: &mut DsaRuntime,
        req: &OffloadRequest,
    ) -> Result<(Status, u64), DsaError> {
        let bytes = req.bytes();
        let src = location_of(rt, &req.src);
        let dst = location_of(rt, &req.dst);
        let decision = self.decide(rt, req.op, bytes, src, dst);
        self.note_decision(rt, decision, bytes);
        let req = req.cache_control(self.consumed_soon);
        match decision {
            Decision::Cpu => {
                let c = self.cpu.run(rt, &req)?;
                Ok((c.status, c.result))
            }
            Decision::DsaSync => {
                let c = self.dsa.run(rt, &req)?;
                if matches!(c.status, Status::PageFault { .. }) {
                    // Partial completion: software finishes the job
                    // (the paper's recommended fault handling).
                    self.stats.fault_fallbacks += 1;
                    self.count(rt, "dispatch_fault_fallbacks", 1);
                    let c = self.cpu.run(rt, &req)?;
                    return Ok((c.status, c.result));
                }
                Ok((c.status, c.result))
            }
            Decision::DsaAsync => {
                let ticket = {
                    self.make_room(rt);
                    self.dsa.submit(rt, &req)?
                };
                self.inflight.push(ticket.completion_time(), ticket);
                Ok((Status::Success, 0))
            }
        }
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
        self.execute(rt, &OffloadRequest::memcpy(src, dst))?;
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
        self.execute(rt, &OffloadRequest::memset(dst, byte))?;
        Ok(rt.now().duration_since(start))
    }

    /// Compares two buffers; returns the first mismatch offset (if any)
    /// and elapsed core time.
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
        let (status, result) = self.execute(rt, &OffloadRequest::memcmp(a, b))?;
        let diff = (status == Status::CompareMismatch).then_some(result);
        Ok((diff, rt.now().duration_since(start)))
    }

    /// G1: copies a burst of scattered `(src, dst)` pairs, assembling them
    /// into batch descriptors (one descriptor per pair, batched up to the
    /// device limit) instead of submitting each pair individually. Returns
    /// elapsed core time.
    ///
    /// # Errors
    ///
    /// Propagates submission failures ([`DsaError`]).
    pub fn copy_burst(
        &mut self,
        rt: &mut DsaRuntime,
        pairs: &[(BufferHandle, BufferHandle)],
    ) -> Result<SimDuration, DsaError> {
        let start = rt.now();
        if pairs.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        if pairs.len() == 1 {
            self.execute(rt, &OffloadRequest::memcpy(&pairs[0].0, &pairs[0].1))?;
            return Ok(rt.now().duration_since(start));
        }
        let total: u64 = pairs.iter().map(|(s, d)| s.len().min(d.len())).sum();
        let src = location_of(rt, &pairs[0].0);
        let dst = location_of(rt, &pairs[0].1);
        // The advisor confirms scattered data should not be coalesced; its
        // batch-size guidance is informational here because the descriptor
        // boundaries are fixed by the caller's scatter list.
        let (_ts, _bs) = guidelines::g1_split(total, false);
        let decision = self.decide(rt, OpKind::Memcpy, total, src, dst);
        self.note_decision(rt, decision, total);
        match decision {
            Decision::Cpu => {
                for (s, d) in pairs {
                    self.cpu.run(rt, &OffloadRequest::memcpy(s, d))?;
                }
            }
            Decision::DsaSync | Decision::DsaAsync => {
                let max_batch = 1024usize;
                let device = self.dsa.select(rt, dst);
                for chunk in pairs.chunks(max_batch) {
                    let mut batch = Batch::new().on_device(device).on_wq(self.dsa.wq());
                    if self.consumed_soon {
                        batch = batch.cache_control();
                    }
                    for (s, d) in chunk {
                        batch.push(Job::memcpy(s, d));
                    }
                    self.stats.batch_descriptors += 1;
                    self.count(rt, "dispatch_g1_batches", 1);
                    let handle = batch.submit(rt)?;
                    if decision == Decision::DsaSync {
                        rt.advance_to(handle.completion_time());
                    } else {
                        self.make_room(rt);
                        let ticket = ticket_at(handle.completion_time(), total);
                        self.inflight.push(ticket.completion_time(), ticket);
                    }
                }
            }
        }
        Ok(rt.now().duration_since(start))
    }

    /// Reaps completed operations and, when the window is at depth, blocks
    /// on the oldest outstanding ticket — shared between the async submit
    /// path and burst submission so both obey the configured depth.
    fn make_room(&mut self, rt: &mut DsaRuntime) {
        while self.inflight.pop_completed(rt.now()).is_some() {}
        if self.inflight.is_full() {
            if let Some((_, oldest)) = self.inflight.pop_oldest() {
                self.dsa.wait(rt, oldest);
            }
        }
    }

    /// Waits for every outstanding asynchronous operation; returns the
    /// drain completion time.
    pub fn drain(&mut self, rt: &mut DsaRuntime) -> SimTime {
        while let Some((_, ticket)) = self.inflight.pop_oldest() {
            self.dsa.wait(rt, ticket);
        }
        rt.now()
    }
}

fn location_of(rt: &DsaRuntime, buf: &BufferHandle) -> Location {
    rt.memory().location_of(buf.addr()).unwrap_or(Location::local_dram())
}

fn ticket_at(completion: SimTime, bytes: u64) -> Ticket {
    // Tickets are plain (completion, bytes) records; reconstruct one for a
    // batch handle so bursts share the same drain path.
    Ticket::from_parts(completion, bytes)
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
    fn burst_assembles_batches() {
        let mut rt = DsaRuntime::spr_default();
        let pairs: Vec<_> = (0..16)
            .map(|_| {
                (
                    rt.alloc(4 << 10, Location::local_dram()),
                    rt.alloc(4 << 10, Location::local_dram()),
                )
            })
            .collect();
        let mut d = Dispatcher::new().with_policy(DispatchPolicy::DsaOnly);
        d.copy_burst(&mut rt, &pairs).unwrap();
        assert_eq!(d.stats().batch_descriptors, 1, "16 pairs fit one batch descriptor");
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

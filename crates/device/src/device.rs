//! The DSA device model: portals, work queues, group arbitration, engines,
//! batch processing, address translation, and functional execution.
//!
//! One [`DsaDevice`] models one DSA instance (an RCiEP on the SoC). Its
//! datapath follows the paper's §3.2: a descriptor lands in a WQ via a
//! portal write, the group arbiter dispatches it to a free engine, the
//! engine translates addresses through the ATC/IOMMU, streams source data
//! through its read buffers, performs the operation, writes the
//! destination (steered by the cache-control flag), and finally writes the
//! completion record.
//!
//! Timing emerges from resource timelines (engines, the device fabric, the
//! platform memory system); the *work* is executed functionally against
//! [`Memory`], so offloaded CRCs, DIFs and delta records are bit-exact.

use crate::config::{ConfigError, DeviceCaps, DeviceConfig, WqMode};
use crate::descriptor::{
    BatchDescriptor, CompletionRecord, Descriptor, DescriptorError, Flags, OpParams, Opcode, Status,
};
use crate::timing::DsaTiming;
use dsa_mem::buffer::Location;
use dsa_mem::memory::{MemError, Memory};
use dsa_mem::memsys::{AgentId, MemSystem, WritePolicy};
use dsa_mem::topology::Platform;
use dsa_mem::translate::TranslationCache;
use dsa_ops::{crc32::Crc32c, delta, dif, memops};
use dsa_sim::time::{scale_bytes, transfer_time_mgbps, SimDuration, SimTime};
use dsa_sim::timeline::{BwResource, MultiServer, SlidingWindow};

/// Identifies a WQ within one device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WqId(pub usize);

/// Why a submission was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// No such WQ.
    UnknownWq {
        /// Offending index.
        wq: usize,
    },
    /// The WQ has no free entry; retry at (or after) `retry_at`.
    /// For shared WQs this is the ENQCMD "Retry" status.
    WqFull {
        /// Earliest instant a slot frees up.
        retry_at: SimTime,
    },
    /// Transfer size exceeds device capability.
    TooLarge {
        /// Requested size.
        size: u64,
        /// Device maximum.
        max: u32,
    },
    /// Batch must contain at least 2 and at most `max_batch` descriptors.
    BadBatchSize {
        /// Requested count.
        count: usize,
    },
    /// Nested batches are not allowed by the architecture.
    NestedBatch,
    /// The descriptor failed [`Descriptor::validate`]'s spec-conformance
    /// checks (bad flags for the opcode, misaligned completion record,
    /// operand-layout mismatch, ...).
    Rejected(DescriptorError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownWq { wq } => write!(f, "unknown work queue {wq}"),
            SubmitError::WqFull { retry_at } => write!(f, "work queue full until {retry_at}"),
            SubmitError::TooLarge { size, max } => {
                write!(f, "transfer of {size} bytes exceeds device max of {max}")
            }
            SubmitError::BadBatchSize { count } => {
                write!(f, "batch of {count} descriptors outside 2..=max_batch")
            }
            SubmitError::NestedBatch => write!(f, "batch descriptors may not contain batches"),
            SubmitError::Rejected(e) => write!(f, "descriptor rejected: {e}"),
        }
    }
}

impl From<DescriptorError> for SubmitError {
    fn from(e: DescriptorError) -> SubmitError {
        SubmitError::Rejected(e)
    }
}

impl std::error::Error for SubmitError {}

/// Phase timestamps of one processed descriptor (paper Fig. 5's breakdown
/// is built from these plus the core-side submit cost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecTimeline {
    /// Portal write accepted by the device.
    pub submitted: SimTime,
    /// Entered a WQ slot.
    pub admitted: SimTime,
    /// Dispatched to an engine.
    pub dispatched: SimTime,
    /// Address translation (ATS/ATC walk) finished; data movement starts.
    pub translated: SimTime,
    /// Last source byte read.
    pub read_done: SimTime,
    /// Last destination byte landed.
    pub data_done: SimTime,
    /// Completion record visible to the polling core.
    pub completed: SimTime,
}

impl ExecTimeline {
    /// Total device-side latency.
    pub fn total(&self) -> SimDuration {
        self.completed.saturating_duration_since(self.submitted)
    }
}

/// Result of one accepted descriptor.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The completion record contents.
    pub record: CompletionRecord,
    /// Phase timestamps.
    pub timeline: ExecTimeline,
    /// Device-wide sequence number (1-based) of this descriptor.
    pub seq: u64,
    /// Engine credited with the work: the group's engines are
    /// interchangeable (earliest-free wins), so credit goes round-robin.
    pub pe: u16,
    /// Descriptors the WQ held at admission (FIFO view of its slots).
    pub wq_depth: u32,
    /// Cumulative busy time of the group's engines at completion.
    pub engines_busy: SimDuration,
    /// Engines in the group.
    pub engines: u16,
}

/// Result of an accepted batch.
#[derive(Clone, Debug)]
pub struct BatchExecution {
    /// Per-descriptor executions, in submission order.
    pub members: Vec<Execution>,
    /// The batch-granular completion record.
    pub batch_record: CompletionRecord,
    /// When the batch completion record became visible.
    pub completed: SimTime,
    /// Batch phase timestamps (descriptor fetch treated as processing).
    pub timeline: ExecTimeline,
}

/// PCM-style device telemetry (paper §5: "DSA performance telemetry ...
/// provided by the PCM library").
#[derive(Clone, Copy, Debug, Default)]
pub struct Telemetry {
    /// Work descriptors processed (batch members included).
    pub descriptors: u64,
    /// Batch descriptors processed.
    pub batches: u64,
    /// Inbound (read) bytes.
    pub bytes_read: u64,
    /// Outbound (written) bytes.
    pub bytes_written: u64,
    /// Page faults encountered.
    pub page_faults: u64,
    /// Descriptors that ended in a non-success status.
    pub errors: u64,
    /// Address-translation-cache hits.
    pub atc_hits: u64,
    /// Address-translation-cache misses (IOMMU walks).
    pub atc_misses: u64,
    /// Submissions refused with [`SubmitError::WqFull`] (ENQCMD Retry for
    /// shared WQs; software occupancy violations for dedicated WQs). The
    /// shared-WQ contention signal behind the paper's Fig. 9/10 QoS story.
    pub wq_rejections: u64,
}

struct GroupState {
    engines: MultiServer,
    read_buffers: u32,
    /// Shared MLP cursor: the group's read buffers stream reads at most at
    /// `engines x buffers x entry / latency` in aggregate.
    mlp_free: SimTime,
}

struct WqState {
    cfg: crate::config::WqConfig,
    window: SlidingWindow,
    enqcmd_port: dsa_sim::timeline::Timeline,
}

/// One DSA instance.
pub struct DsaDevice {
    id: u16,
    socket: u8,
    caps: DeviceCaps,
    timing: DsaTiming,
    fabric_rd: BwResource,
    fabric_wr: BwResource,
    groups: Vec<GroupState>,
    wqs: Vec<WqState>,
    atc: TranslationCache,
    telemetry: Telemetry,
    last_completion: SimTime,
}

/// Chunk size for the intra-descriptor read→write pipeline.
const PIPE_CHUNK: u64 = 16 * 1024;

impl DsaDevice {
    /// Builds device `id` with `config` (validated against DSA 1.0 caps).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — construct through
    /// `dsa-core::config` for error handling.
    pub fn new(id: u16, config: DeviceConfig, platform: &Platform) -> DsaDevice {
        Self::with_timing(id, config, platform, DsaTiming::spr())
    }

    /// Builds with explicit timing (ablations, CBDMA-style derates).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation;
    /// [`try_with_timing`](Self::try_with_timing) is the fallible path.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking constructor; try_with_timing is the fallible path"
    )]
    pub fn with_timing(
        id: u16,
        config: DeviceConfig,
        platform: &Platform,
        timing: DsaTiming,
    ) -> DsaDevice {
        Self::try_with_timing(id, config, platform, timing).expect("invalid device configuration")
    }

    /// Builds with explicit timing, surfacing configuration errors instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from validating `config` against the
    /// DSA 1.0 capabilities.
    pub fn try_with_timing(
        id: u16,
        config: DeviceConfig,
        platform: &Platform,
        timing: DsaTiming,
    ) -> Result<DsaDevice, ConfigError> {
        let caps = DeviceCaps::dsa1();
        config.validate(&caps)?;
        let groups = config
            .groups
            .iter()
            .map(|g| GroupState {
                engines: MultiServer::new(g.engines.max(1) as usize),
                read_buffers: g.read_buffers_per_engine.unwrap_or(timing.read_buffers),
                mlp_free: SimTime::ZERO,
            })
            .collect();
        let wqs = config
            .wqs
            .iter()
            .map(|&cfg| WqState {
                cfg,
                window: SlidingWindow::new(cfg.size as usize),
                enqcmd_port: dsa_sim::timeline::Timeline::new(),
            })
            .collect();
        Ok(DsaDevice {
            id,
            socket: (id % u16::from(platform.sockets.max(1))) as u8,
            caps,
            timing,
            fabric_rd: BwResource::new(timing.fabric_mgbps),
            fabric_wr: BwResource::new(timing.fabric_mgbps),
            groups,
            wqs,
            atc: TranslationCache::new(128, platform.iommu_walk),
            telemetry: Telemetry::default(),
            last_completion: SimTime::ZERO,
        })
    }

    /// Device instance id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// The memory-system agent identity of this device.
    pub fn agent(&self) -> AgentId {
        AgentId::dsa(self.id)
    }

    /// Device timing parameters.
    pub fn timing(&self) -> &DsaTiming {
        &self.timing
    }

    /// Telemetry counters.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry
    }

    /// Number of configured WQs.
    pub fn wq_count(&self) -> usize {
        self.wqs.len()
    }

    /// The mode of WQ `wq`.
    ///
    /// # Panics
    ///
    /// Panics if `wq` is out of range.
    pub fn wq_mode(&self, wq: WqId) -> WqMode {
        self.wqs[wq.0].cfg.mode
    }

    /// Completion time of the most recently finished descriptor
    /// (drain semantics).
    pub fn last_completion(&self) -> SimTime {
        self.last_completion
    }

    /// The socket this instance hangs off (instances are distributed
    /// round-robin across the platform's sockets, as on real two-die SPR
    /// parts with two DSA instances per socket).
    pub fn socket(&self) -> u8 {
        self.socket
    }

    /// Descriptors occupying slots of WQ `wq` whose completion lies after
    /// `now` — the WQ occupancy a load balancer sees.
    ///
    /// # Panics
    ///
    /// Panics if `wq` is out of range.
    pub fn wq_pending(&self, wq: WqId, now: SimTime) -> usize {
        self.wqs[wq.0].window.pending_at(now)
    }

    /// Descriptors still in flight across all WQs at `now`.
    pub fn pending_descriptors(&self, now: SimTime) -> usize {
        self.wqs.iter().map(|w| w.window.pending_at(now)).sum()
    }

    /// The earliest instant any engine of any group could begin new work.
    pub fn engines_next_free(&self) -> SimTime {
        self.groups.iter().map(|g| g.engines.next_free()).min().unwrap_or(SimTime::ZERO)
    }

    /// Cumulative busy time summed over every engine of every group.
    pub fn engines_busy_time(&self) -> SimDuration {
        self.groups.iter().map(|g| g.engines.busy_time()).fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Total engines across all groups.
    pub fn engine_count(&self) -> usize {
        self.groups.iter().map(|g| g.engines.servers()).sum()
    }

    /// Reserves the device-side ENQCMD acceptance port of `wq` for a
    /// non-posted submission issued at `issue`; returns when the device
    /// has accepted (or rejected) the command.
    ///
    /// Shared WQs serialize ENQCMD acceptance at the portal; with many
    /// submitting threads the aggregate rate is bounded by this port
    /// (paper Fig. 9: `SWQ: N` scaling).
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownWq`] if `wq` is out of range.
    pub fn enqcmd_accept(&mut self, wq: WqId, issue: SimTime) -> Result<SimTime, SubmitError> {
        self.check_wq(wq)?;
        let occupancy = SimDuration::from_ns(40);
        Ok(self.wqs[wq.0].enqcmd_port.reserve(issue, occupancy).end)
    }

    /// Submits one work descriptor to `wq` at `now` and processes it to
    /// completion (timing computed against `memsys`; contents mutated in
    /// `memory`).
    ///
    /// # Errors
    ///
    /// See [`SubmitError`]. A full WQ returns [`SubmitError::WqFull`]
    /// (ENQCMD Retry for shared WQs; software-tracked occupancy violation
    /// for dedicated WQs).
    pub fn submit(
        &mut self,
        memory: &mut Memory,
        memsys: &mut MemSystem,
        wq: WqId,
        desc: &Descriptor,
        now: SimTime,
    ) -> Result<Execution, SubmitError> {
        self.check_wq(wq)?;
        if desc.xfer_size as u64 > self.caps.max_transfer as u64 {
            return Err(SubmitError::TooLarge {
                size: desc.xfer_size as u64,
                max: self.caps.max_transfer,
            });
        }
        if desc.opcode == Opcode::Batch {
            return Err(SubmitError::NestedBatch);
        }
        // Structural spec violations are refused at the portal; content
        // errors fall through so the engine reports InvalidDescriptor in
        // the completion record, as hardware does.
        if let Err(e) = desc.validate(&self.caps) {
            if !e.reported_in_completion() {
                return Err(SubmitError::Rejected(e));
            }
        }
        let submitted = now + self.timing.portal_accept;
        let slot = self.wqs[wq.0].window.available_at(submitted);
        if slot > submitted {
            self.telemetry.wq_rejections += 1;
            return Err(SubmitError::WqFull { retry_at: slot });
        }
        let admitted = self.wqs[wq.0].window.acquire(submitted);
        let exec = self.process(memory, memsys, wq, desc, submitted, admitted);
        self.wqs[wq.0].window.release(exec.timeline.data_done);
        Ok(exec)
    }

    /// Submits a batch of descriptors (one batch descriptor occupying one
    /// WQ slot; paper §3.4/F2).
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit_batch(
        &mut self,
        memory: &mut Memory,
        memsys: &mut MemSystem,
        wq: WqId,
        batch: &BatchDescriptor,
        descs: &[Descriptor],
        now: SimTime,
    ) -> Result<BatchExecution, SubmitError> {
        self.check_wq(wq)?;
        if descs.len() < 2 || descs.len() > self.caps.max_batch as usize {
            return Err(SubmitError::BadBatchSize { count: descs.len() });
        }
        if descs.iter().any(|d| d.opcode == Opcode::Batch) {
            return Err(SubmitError::NestedBatch);
        }
        if let Some(d) = descs.iter().find(|d| d.xfer_size as u64 > self.caps.max_transfer as u64) {
            return Err(SubmitError::TooLarge {
                size: d.xfer_size as u64,
                max: self.caps.max_transfer,
            });
        }
        batch.validate(&self.caps)?;
        for d in descs {
            if let Err(e) = d.validate_in_batch(&self.caps) {
                if !e.reported_in_completion() {
                    return Err(SubmitError::Rejected(e));
                }
            }
        }
        let submitted = now + self.timing.portal_accept;
        let slot = self.wqs[wq.0].window.available_at(submitted);
        if slot > submitted {
            self.telemetry.wq_rejections += 1;
            return Err(SubmitError::WqFull { retry_at: slot });
        }
        let admitted = self.wqs[wq.0].window.acquire(submitted);

        // Batch engine fetches the descriptor array from memory in one read.
        let list_loc = memory.location_of(batch.desc_list_addr).unwrap_or(Location::local_dram());
        let fetch = memsys.read(
            self.agent(),
            list_loc,
            admitted + self.timing.batch_fixed,
            64 * descs.len() as u64,
        );
        self.telemetry.batches += 1;
        self.telemetry.bytes_read += 64 * descs.len() as u64;

        // Sub-descriptors dispatch across the group's engines; a FENCE flag
        // orders a descriptor after all prior completions in the batch.
        let mut members = Vec::with_capacity(descs.len());
        let mut max_done = fetch.end;
        let mut all_ok = true;
        let mut completed_count = 0u32;
        for d in descs {
            let ready = if d.flags.contains(Flags::FENCE) { max_done } else { fetch.end };
            let exec = self.process(memory, memsys, wq, d, ready, ready);
            max_done = max_done.max(exec.timeline.data_done);
            if exec.record.status.is_ok() {
                completed_count += 1;
            } else {
                all_ok = false;
            }
            members.push(exec);
        }
        let completed = max_done + self.timing.completion_write + memsys.platform().llc_latency;
        self.wqs[wq.0].window.release(max_done);
        self.last_completion = self.last_completion.max(completed);
        let batch_record = CompletionRecord {
            status: if all_ok { Status::Success } else { Status::InvalidDescriptor },
            bytes_completed: completed_count,
            result: descs.len() as u64,
        };
        Ok(BatchExecution {
            members,
            batch_record,
            completed,
            timeline: ExecTimeline {
                submitted,
                admitted,
                dispatched: fetch.end,
                // Batches do their translation per child descriptor; the
                // batch-granular view folds it into the streaming window.
                translated: fetch.end,
                read_done: max_done,
                data_done: max_done,
                completed,
            },
        })
    }

    fn check_wq(&self, wq: WqId) -> Result<(), SubmitError> {
        if wq.0 >= self.wqs.len() {
            return Err(SubmitError::UnknownWq { wq: wq.0 });
        }
        Ok(())
    }

    /// Core datapath: queue → arbiter → engine → memory → completion.
    fn process(
        &mut self,
        memory: &mut Memory,
        memsys: &mut MemSystem,
        wq: WqId,
        desc: &Descriptor,
        submitted: SimTime,
        admitted: SimTime,
    ) -> Execution {
        self.telemetry.descriptors += 1;
        let agent = self.agent();
        let group_idx = self.wqs[wq.0].cfg.group;
        let priority = self.wqs[wq.0].cfg.priority;

        // Functional execution first: produces the completion record
        // contents and the fault information that shapes timing.
        let outcome = self.execute_functional(memory, memsys, desc);

        // Arbitration: higher-priority WQs get a small dispatch head start
        // (weighted arbitration approximation; see DESIGN.md §7).
        let bias = SimDuration::from_ns(2 * (priority as u64));
        let arb_ready = (admitted + self.timing.dispatch).max(admitted + bias) - bias;

        let bytes_read = desc.bytes_read();
        let bytes_written = (desc.xfer_size as u64).min(outcome.bytes_valid as u64)
            * desc.bytes_written()
            / (desc.xfer_size as u64).max(1);
        let pe_busy = self.timing.pe_fixed
            + transfer_time_mgbps(bytes_read.max(bytes_written), self.timing.pe_mgbps);
        let engines = self.groups[group_idx].engines.servers();
        let pe = self.groups[group_idx].engines.reserve(arb_ready, pe_busy);
        let dispatched = pe.start;

        // Address translation: the first ATC miss exposes one IOMMU walk;
        // later walks pipeline behind data streaming. Page faults expose
        // their full service time (block-on-fault) or truncate the
        // operation (partial completion) — `execute_functional` already
        // decided which.
        let mut ready = dispatched;
        let pt_cost = self.translate_cost(memsys, desc);
        ready += pt_cost;
        if outcome.faults > 0 {
            self.telemetry.page_faults += outcome.faults;
            if desc.flags.contains(Flags::BLOCK_ON_FAULT) {
                ready += memsys.platform().page_fault.saturating_mul(outcome.faults);
            }
        }
        // Span boundary: translation (ATC/IOMMU walks + fault service) ends
        // here; data streaming starts.
        let translated = ready;

        // Stream the data: read chunks race the engine's MLP limit and the
        // platform memory system; writes chase the reads chunk by chunk.
        let src_loc = memory.location_of(desc.src).unwrap_or(Location::local_dram());
        let dst_loc = memory.location_of(desc.dst).unwrap_or(Location::local_dram());
        let mlp_mgbps = {
            let t = &self.timing;
            let g = &self.groups[group_idx];
            let buffers = g.read_buffers as u64 * g.engines.servers() as u64;
            let lat = memsys.read_latency(src_loc);
            if lat.is_zero() {
                t.fabric_mgbps
            } else {
                (buffers * t.read_buffer_bytes as u64) * 1_000_000 / lat.as_ps().max(1)
            }
        };
        let write_policy = if desc.flags.contains(Flags::CACHE_CONTROL) {
            WritePolicy::AllocateLlc
        } else {
            WritePolicy::Memory
        };
        let same_channel = matches!((src_loc, dst_loc),
            (Location::Dram { socket: a }, Location::Dram { socket: b }) if a == b);

        let mut data_done = ready;
        let mut read_done = ready;
        let mut remaining_r = bytes_read;
        let mut remaining_w = bytes_written;
        let mut chunk_ready = ready;
        while remaining_r > 0 || remaining_w > 0 {
            let r = remaining_r.min(PIPE_CHUNK);
            let w = remaining_w.min(PIPE_CHUNK);
            remaining_r -= r;
            remaining_w -= w;
            let mut arrived = chunk_ready;
            if r > 0 {
                let f = self.fabric_rd.transfer(chunk_ready, r);
                let m = memsys.read(agent, src_loc, chunk_ready, r);
                let g = &mut self.groups[group_idx];
                g.mlp_free = g.mlp_free.max(chunk_ready) + transfer_time_mgbps(r, mlp_mgbps);
                arrived = f.end.max(m.end).max(g.mlp_free);
                read_done = read_done.max(arrived);
                self.telemetry.bytes_read += r;
            }
            if w > 0 {
                let waddr = desc.dst + (bytes_written - remaining_w - w);
                let wo = memsys.write_at(agent, dst_loc, arrived, waddr, w, write_policy);
                // DDIO spill causes write-allocate stalls on the fabric;
                // same-channel read+write streams contend slightly.
                let mut derate = 1.0 + self.timing.spill_derate * wo.ddio_spill;
                if same_channel {
                    derate *= self.timing.same_channel_penalty;
                }
                let fw = self.fabric_wr.transfer(arrived, scale_bytes(w, derate));
                arrived = wo.interval.end.max(fw.end);
                self.telemetry.bytes_written += w;
            }
            data_done = data_done.max(arrived);
            chunk_ready =
                arrived.min(chunk_ready + transfer_time_mgbps(r.max(w), self.timing.pe_mgbps));
        }
        let mut data_done = data_done.max(pe.end);
        // Drain semantics: completes only after everything previously
        // submitted to the device has completed.
        if desc.opcode == Opcode::Drain {
            data_done = data_done.max(self.last_completion);
        }

        // Completion record: always LLC-directed (paper §6.2/G3).
        let completed = data_done + self.timing.completion_write + memsys.platform().llc_latency;
        self.last_completion = self.last_completion.max(completed);
        if !outcome.record.status.is_ok() {
            self.telemetry.errors += 1;
        }
        // Write the completion record to its memory address (the real
        // mechanism polling and UMONITOR observe). Best-effort: an
        // unmapped completion address simply produces no record, exactly
        // like hardware writing into a torn-down mapping.
        if desc.completion_addr != 0 && desc.flags.contains(Flags::REQUEST_COMPLETION) {
            let _ = memory.write(desc.completion_addr, &outcome.record.to_bytes());
        }
        Execution {
            record: outcome.record,
            timeline: ExecTimeline {
                submitted,
                admitted,
                dispatched,
                translated,
                read_done,
                data_done,
                completed,
            },
            seq: self.telemetry.descriptors,
            pe: ((self.telemetry.descriptors - 1) % engines as u64) as u16,
            wq_depth: self.wqs[wq.0].window.in_flight() as u32,
            engines_busy: self.groups[group_idx].engines.busy_time(),
            engines: engines as u16,
        }
    }

    /// Exposed translation cost: one walk if the leading page missed the
    /// ATC (subsequent sequential walks hide behind streaming).
    fn translate_cost(&mut self, memsys: &MemSystem, desc: &Descriptor) -> SimDuration {
        let mut cost = SimDuration::ZERO;
        let mut first = true;
        for addr in [desc.src, desc.dst] {
            if addr == 0 {
                continue;
            }
            let out = self.atc.translate(memsys.page_table(), addr);
            if out.hit {
                self.telemetry.atc_hits += 1;
            } else {
                self.telemetry.atc_misses += 1;
            }
            if first && !out.hit {
                cost += out.cost;
            }
            first = false;
        }
        cost
    }

    /// Runs the operation functionally and classifies faults.
    fn execute_functional(
        &mut self,
        memory: &mut Memory,
        memsys: &mut MemSystem,
        desc: &Descriptor,
    ) -> FunctionalOutcome {
        let len = desc.xfer_size as u64;
        // Fault scan: the device stops at the first non-present page
        // (partial completion) or, with BLOCK_ON_FAULT, waits for service.
        let mut faults = 0u64;
        let mut fault_addr = None;
        for base in [desc.src, desc.dst] {
            if base == 0 || len == 0 {
                continue;
            }
            let (n, first) = memsys.page_table().scan_faults(base, len);
            faults += n;
            fault_addr = fault_addr.or(first);
        }
        // Partial completion at the first faulting page (fault_addr is set
        // exactly when faults > 0).
        if let Some(fa) = fault_addr.filter(|_| !desc.flags.contains(Flags::BLOCK_ON_FAULT)) {
            let done = if fa >= desc.src && fa < desc.src + len.max(1) {
                fa - desc.src
            } else if fa >= desc.dst && fa < desc.dst + len.max(1) {
                fa - desc.dst
            } else {
                0
            };
            return FunctionalOutcome {
                record: CompletionRecord {
                    status: Status::PageFault { addr: fa },
                    bytes_completed: done as u32,
                    result: 0,
                },
                bytes_valid: done as u32,
                faults,
            };
        }
        if faults > 0 {
            // Block-on-fault: service every fault, then run normally.
            for base in [desc.src, desc.dst] {
                if base == 0 || len == 0 {
                    continue;
                }
                let mut a = base;
                while a < base + len {
                    memsys.page_table_mut().service_fault(a);
                    a += 4096;
                }
            }
        }

        let record = run_op(memory, memsys, desc);
        let bytes_valid = record.bytes_completed;
        FunctionalOutcome { record, bytes_valid, faults }
    }
}

/// Performs `desc`'s operation on the bytes in `memory` and returns the
/// completion record — the one place an operation touches bytes. The
/// device runs it after its fault scan; the CPU path
/// (`DsaRuntime::cpu_op` in `dsa-core`) runs it directly, since a core
/// faults pages in transparently.
///
/// An operand range that is unmapped or crosses allocations yields
/// `InvalidDescriptor`, and no byte moves. Operations whose record
/// reports nothing computed from operand bytes (memmove, dualcast, fill,
/// DIF insert) validate every operand range first, then drop the write to
/// an unbacked destination and succeed, as [`Memory::copy`] does. Reading
/// bytes an unbacked operand does not hold (compare, CRC, DIF check,
/// delta, ... or an unbacked source feeding a backed destination) yields
/// `InvalidDescriptor`: nothing fakes a read.
pub fn run_op(memory: &mut Memory, memsys: &mut MemSystem, desc: &Descriptor) -> CompletionRecord {
    let len = desc.xfer_size as u64;
    let invalid =
        CompletionRecord { status: Status::InvalidDescriptor, bytes_completed: 0, result: 0 };
    match desc.opcode {
        Opcode::Nop | Opcode::Drain => CompletionRecord::success(0),
        Opcode::Batch => invalid,
        Opcode::Memmove => match memory.copy(desc.src, desc.dst, len) {
            Ok(()) => CompletionRecord::success(desc.xfer_size),
            Err(_) => invalid,
        },
        Opcode::Fill => {
            let OpParams::Pattern(p) = desc.params else { return invalid };
            match memory.read_mut(desc.dst, len) {
                Ok(buf) => {
                    memops::fill(buf, p);
                    CompletionRecord::success(desc.xfer_size)
                }
                Err(MemError::NoBytes { .. }) => CompletionRecord::success(desc.xfer_size),
                Err(_) => invalid,
            }
        }
        Opcode::Compare => {
            let (Ok(a), Ok(b)) = (memory.read(desc.src, len), memory.read(desc.dst, len)) else {
                return invalid;
            };
            match memops::compare(a, b) {
                None => CompletionRecord::success(desc.xfer_size),
                Some(off) => CompletionRecord {
                    status: Status::CompareMismatch,
                    bytes_completed: desc.xfer_size,
                    result: off as u64,
                },
            }
        }
        Opcode::ComparePattern => {
            let OpParams::Pattern(p) = desc.params else { return invalid };
            let Ok(buf) = memory.read(desc.src, len) else { return invalid };
            match memops::compare_pattern(buf, p) {
                None => CompletionRecord::success(desc.xfer_size),
                Some(off) => CompletionRecord {
                    status: Status::CompareMismatch,
                    bytes_completed: desc.xfer_size,
                    result: off as u64,
                },
            }
        }
        Opcode::Dualcast => {
            let OpParams::Dest2(d2) = desc.params else { return invalid };
            // Every range is checked before any byte moves. A copy over
            // valid ranges then fails only for an unbacked source, and
            // then neither copy writes.
            if [desc.src, desc.dst, d2].into_iter().any(|a| memory.holds_bytes(a, len).is_err())
                || memory.copy(desc.src, desc.dst, len).is_err()
                || memory.copy(desc.src, d2, len).is_err()
            {
                return invalid;
            }
            CompletionRecord::success(desc.xfer_size)
        }
        Opcode::CrcGen | Opcode::CopyCrc => {
            let seed = match desc.params {
                OpParams::CrcSeed(s) => s,
                _ => 0,
            };
            let Ok(src) = memory.read(desc.src, len) else { return invalid };
            let mut crc = if seed == 0 { Crc32c::new() } else { Crc32c::with_seed(seed) };
            crc.update(src);
            let value = crc.finish();
            if desc.opcode == Opcode::CopyCrc && memory.copy(desc.src, desc.dst, len).is_err() {
                return invalid;
            }
            CompletionRecord {
                status: Status::Success,
                bytes_completed: desc.xfer_size,
                result: value as u64,
            }
        }
        Opcode::CreateDelta => {
            let OpParams::Delta { record_addr, max_size } = desc.params else {
                return invalid;
            };
            let (Ok(a), Ok(b)) = (memory.read(desc.src, len), memory.read(desc.dst, len)) else {
                return invalid;
            };
            match delta::delta_create(a, b, max_size as usize) {
                Ok(rec) => {
                    let size = rec.size_bytes();
                    if memory.write(record_addr, rec.as_bytes()).is_err() {
                        return invalid;
                    }
                    CompletionRecord {
                        status: Status::Success,
                        bytes_completed: desc.xfer_size,
                        result: size as u64,
                    }
                }
                Err(delta::DeltaError::RecordOverflow { needed, .. }) => CompletionRecord {
                    status: Status::DeltaOverflow,
                    bytes_completed: 0,
                    result: needed as u64,
                },
                Err(_) => invalid,
            }
        }
        Opcode::ApplyDelta => {
            let OpParams::Delta { record_addr, max_size } = desc.params else {
                return invalid;
            };
            let Ok(raw) = memory.read(record_addr, max_size as u64) else { return invalid };
            let Ok(rec) = delta::DeltaRecord::from_bytes(raw) else { return invalid };
            let rec = rec.clone();
            let Ok(target) = memory.read_mut(desc.dst, len) else { return invalid };
            match delta::delta_apply(&rec, target) {
                Ok(()) => CompletionRecord::success(desc.xfer_size),
                Err(_) => invalid,
            }
        }
        Opcode::DifInsert => {
            let OpParams::Dif(cfg) = &desc.params else { return invalid };
            // Whole blocks in, and room for their tuples out, before any
            // byte is read.
            let Ok(out_len) = dif::dif_insert_len(cfg, len as usize) else { return invalid };
            let (Ok(_), Ok(dst_backed)) =
                (memory.holds_bytes(desc.src, len), memory.holds_bytes(desc.dst, out_len as u64))
            else {
                return invalid;
            };
            if dst_backed {
                let Ok(src) = memory.read(desc.src, len) else { return invalid };
                let Ok(out) = dif::dif_insert(cfg, src) else { return invalid };
                if memory.write(desc.dst, &out).is_err() {
                    return invalid;
                }
            }
            CompletionRecord::success(desc.xfer_size)
        }
        Opcode::DifCheck | Opcode::DifStrip | Opcode::DifUpdate => {
            let OpParams::Dif(cfg) = &desc.params else { return invalid };
            let Ok(src) = memory.read(desc.src, len) else { return invalid };
            match desc.opcode {
                Opcode::DifCheck => match dif::dif_check(cfg, src) {
                    Ok(()) => CompletionRecord::success(desc.xfer_size),
                    Err(dif::DifCheckError::Dif(e)) => CompletionRecord {
                        status: Status::DifError,
                        bytes_completed: (e.block * (cfg.block.bytes() + 8)) as u32,
                        result: e.block as u64,
                    },
                    Err(_) => invalid,
                },
                Opcode::DifStrip => match dif::dif_strip(cfg, src) {
                    Ok(out) => {
                        if memory.write(desc.dst, &out).is_err() {
                            return invalid;
                        }
                        CompletionRecord::success(desc.xfer_size)
                    }
                    Err(dif::DifCheckError::Dif(e)) => CompletionRecord {
                        status: Status::DifError,
                        bytes_completed: 0,
                        result: e.block as u64,
                    },
                    Err(_) => invalid,
                },
                Opcode::DifUpdate => match dif::dif_update(cfg, cfg, src) {
                    Ok(out) => {
                        if memory.write(desc.dst, &out).is_err() {
                            return invalid;
                        }
                        CompletionRecord::success(desc.xfer_size)
                    }
                    Err(dif::DifCheckError::Dif(e)) => CompletionRecord {
                        status: Status::DifError,
                        bytes_completed: 0,
                        result: e.block as u64,
                    },
                    Err(_) => invalid,
                },
                _ => unreachable!("outer match restricts opcodes"),
            }
        }
        Opcode::CacheFlush => {
            let flushed = memsys.llc_mut().flush_range(desc.dst, len);
            CompletionRecord {
                status: Status::Success,
                bytes_completed: desc.xfer_size,
                result: flushed,
            }
        }
    }
}

struct FunctionalOutcome {
    record: CompletionRecord,
    bytes_valid: u32,
    faults: u64,
}

impl std::fmt::Debug for DsaDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsaDevice")
            .field("id", &self.id)
            .field("wqs", &self.wqs.len())
            .field("groups", &self.groups.len())
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GroupConfig, WqConfig};
    use dsa_mem::buffer::PageSize;
    use dsa_ops::dif::{DifBlockSize, DifConfig};

    struct Rig {
        memory: Memory,
        memsys: MemSystem,
        dev: DsaDevice,
    }

    impl Rig {
        fn new(config: DeviceConfig) -> Rig {
            let platform = Platform::spr();
            Rig {
                memory: Memory::new(),
                memsys: MemSystem::new(platform.clone()),
                dev: DsaDevice::new(0, config, &platform),
            }
        }

        fn alloc(&mut self, len: u64, loc: Location) -> u64 {
            let h = self.memory.alloc(len, loc);
            self.memsys.page_table_mut().map_range(h.addr(), len.max(1), PageSize::Base4K);
            h.addr()
        }

        fn submit(&mut self, desc: &Descriptor, now: SimTime) -> Result<Execution, SubmitError> {
            self.dev.submit(&mut self.memory, &mut self.memsys, WqId(0), desc, now)
        }

        /// Submit, retrying when the WQ is full (what real submitters do).
        fn submit_retry(&mut self, desc: &Descriptor, now: SimTime) -> Execution {
            let mut at = now;
            loop {
                match self.submit(desc, at) {
                    Ok(exec) => return exec,
                    Err(SubmitError::WqFull { retry_at }) => at = retry_at,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
    }

    #[test]
    fn memmove_copies_and_completes() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let src = rig.alloc(4096, Location::local_dram());
        let dst = rig.alloc(4096, Location::local_dram());
        rig.memory.read_mut(src, 4096).unwrap().fill(0x42);
        let exec = rig.submit(&Descriptor::memmove(src, dst, 4096), SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::Success);
        assert_eq!(exec.record.bytes_completed, 4096);
        assert!(rig.memory.read(dst, 4096).unwrap().iter().all(|&b| b == 0x42));
        // Ordering of phases.
        let t = exec.timeline;
        assert!(t.submitted <= t.admitted);
        assert!(t.admitted <= t.dispatched);
        assert!(t.dispatched < t.data_done);
        assert!(t.data_done < t.completed);
    }

    #[test]
    fn sync_4k_latency_in_microsecond_range() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let src = rig.alloc(4096, Location::local_dram());
        let dst = rig.alloc(4096, Location::local_dram());
        let exec = rig.submit(&Descriptor::memmove(src, dst, 4096), SimTime::ZERO).unwrap();
        let us = exec.timeline.total().as_us_f64();
        // The paper's sync break-even with a cold-cache CPU memcpy sits at
        // ~4 KB, i.e. device latency of roughly a microsecond.
        assert!((0.3..3.0).contains(&us), "4 KiB sync latency was {us} us");
    }

    #[test]
    fn async_streaming_approaches_fabric_cap() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let size = 1u64 << 20;
        let src = rig.alloc(size, Location::local_dram());
        let dst = rig.alloc(size, Location::local_dram());
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        let n = 64u64;
        for _ in 0..n {
            let exec = rig.submit_retry(&Descriptor::memmove(src, dst, size as u32), now);
            last = exec.timeline.completed;
            // Stream submissions without waiting (async, QD within WQ size).
            now += SimDuration::from_ns(60);
        }
        let gbps = (n * size) as f64 / last.as_ns_f64();
        assert!((25.0..31.0).contains(&gbps), "async copy rate {gbps} GB/s");
    }

    #[test]
    fn wq_full_returns_retry_time() {
        let mut rig = Rig::new(DeviceConfig {
            groups: vec![GroupConfig::with_engines(1)],
            wqs: vec![WqConfig::dedicated(2, 0)],
        });
        let size = 1u64 << 20;
        let src = rig.alloc(size, Location::local_dram());
        let dst = rig.alloc(size, Location::local_dram());
        let d = Descriptor::memmove(src, dst, size as u32);
        rig.submit(&d, SimTime::ZERO).unwrap();
        rig.submit(&d, SimTime::ZERO).unwrap();
        match rig.submit(&d, SimTime::ZERO) {
            Err(SubmitError::WqFull { retry_at }) => assert!(retry_at > SimTime::ZERO),
            other => panic!("expected WqFull, got {other:?}"),
        }
        assert_eq!(rig.dev.telemetry().wq_rejections, 1);
    }

    #[test]
    fn crc_gen_returns_checksum() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let src = rig.alloc(512, Location::local_dram());
        let data: Vec<u8> = (0..512u32).map(|i| (i * 3) as u8).collect();
        rig.memory.write(src, &data).unwrap();
        let exec = rig.submit(&Descriptor::crc_gen(src, 512), SimTime::ZERO).unwrap();
        assert_eq!(exec.record.result as u32, Crc32c::checksum(&data));
    }

    #[test]
    fn compare_reports_mismatch_offset() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let a = rig.alloc(256, Location::local_dram());
        let b = rig.alloc(256, Location::local_dram());
        rig.memory.read_mut(b, 256).unwrap()[100] = 1;
        let exec = rig.submit(&Descriptor::compare(a, b, 256), SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::CompareMismatch);
        assert_eq!(exec.record.result, 100);
        assert!(exec.record.status.is_ok());
    }

    #[test]
    fn fill_and_compare_pattern() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let dst = rig.alloc(128, Location::local_dram());
        let exec =
            rig.submit(&Descriptor::fill(dst, 128, 0x1122_3344_5566_7788), SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::Success);
        let d = Descriptor {
            opcode: Opcode::ComparePattern,
            flags: Flags::REQUEST_COMPLETION,
            src: dst,
            dst: 0,
            xfer_size: 128,
            completion_addr: 0,
            params: OpParams::Pattern(0x1122_3344_5566_7788),
        };
        let exec = rig.submit(&d, SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::Success);
    }

    #[test]
    fn dualcast_writes_two_destinations() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let src = rig.alloc(64, Location::local_dram());
        let d1 = rig.alloc(64, Location::local_dram());
        let d2 = rig.alloc(64, Location::local_dram());
        rig.memory.read_mut(src, 64).unwrap().fill(9);
        let d = Descriptor {
            opcode: Opcode::Dualcast,
            flags: Flags::REQUEST_COMPLETION,
            src,
            dst: d1,
            xfer_size: 64,
            completion_addr: 0,
            params: OpParams::Dest2(d2),
        };
        rig.submit(&d, SimTime::ZERO).unwrap();
        assert_eq!(rig.memory.read(d1, 64).unwrap(), rig.memory.read(d2, 64).unwrap());
        assert_eq!(rig.memory.read(d1, 64).unwrap()[0], 9);
    }

    #[test]
    fn delta_create_and_apply_through_device() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let orig = rig.alloc(256, Location::local_dram());
        let modv = rig.alloc(256, Location::local_dram());
        let rec = rig.alloc(1024, Location::local_dram());
        rig.memory.read_mut(modv, 256).unwrap()[16] = 0xEE;
        let create = Descriptor {
            opcode: Opcode::CreateDelta,
            flags: Flags::REQUEST_COMPLETION,
            src: orig,
            dst: modv,
            xfer_size: 256,
            completion_addr: 0,
            params: OpParams::Delta { record_addr: rec, max_size: 1024 },
        };
        let exec = rig.submit(&create, SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::Success);
        let rec_size = exec.record.result as u32;
        assert_eq!(rec_size, 10);
        // Apply onto a copy of the original.
        let target = rig.alloc(256, Location::local_dram());
        let apply = Descriptor {
            opcode: Opcode::ApplyDelta,
            flags: Flags::REQUEST_COMPLETION,
            src: 0,
            dst: target,
            xfer_size: 256,
            completion_addr: 0,
            params: OpParams::Delta { record_addr: rec, max_size: rec_size },
        };
        rig.submit(&apply, SimTime::ZERO).unwrap();
        assert_eq!(rig.memory.read(target, 256).unwrap()[16], 0xEE);
    }

    #[test]
    fn delta_overflow_is_reported() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let orig = rig.alloc(160, Location::local_dram());
        let modv = rig.alloc(160, Location::local_dram());
        let rec = rig.alloc(64, Location::local_dram());
        rig.memory.read_mut(modv, 160).unwrap().fill(1);
        let create = Descriptor {
            opcode: Opcode::CreateDelta,
            flags: Flags::REQUEST_COMPLETION,
            src: orig,
            dst: modv,
            xfer_size: 160,
            completion_addr: 0,
            params: OpParams::Delta { record_addr: rec, max_size: 64 },
        };
        let exec = rig.submit(&create, SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::DeltaOverflow);
        assert_eq!(exec.record.result, 200); // 20 units x 10 bytes
    }

    #[test]
    fn dif_insert_check_through_device() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let src = rig.alloc(512, Location::local_dram());
        let dst = rig.alloc(520, Location::local_dram());
        rig.memory.read_mut(src, 512).unwrap().fill(0x33);
        let cfg = DifConfig::new(DifBlockSize::B512);
        let insert = Descriptor {
            opcode: Opcode::DifInsert,
            flags: Flags::REQUEST_COMPLETION,
            src,
            dst,
            xfer_size: 512,
            completion_addr: 0,
            params: OpParams::Dif(cfg),
        };
        assert_eq!(rig.submit(&insert, SimTime::ZERO).unwrap().record.status, Status::Success);
        let check = Descriptor {
            opcode: Opcode::DifCheck,
            flags: Flags::REQUEST_COMPLETION,
            src: dst,
            dst: 0,
            xfer_size: 520,
            completion_addr: 0,
            params: OpParams::Dif(cfg),
        };
        assert_eq!(rig.submit(&check, SimTime::ZERO).unwrap().record.status, Status::Success);
        // Corrupt and re-check.
        rig.memory.read_mut(dst, 520).unwrap()[5] ^= 1;
        let exec = rig.submit(&check, SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::DifError);
        assert!(!exec.record.status.is_ok());
    }

    #[test]
    fn page_fault_partial_completion() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let src = rig.alloc(16384, Location::local_dram());
        let dst = rig.alloc(16384, Location::local_dram());
        // Second source page is not present.
        rig.memsys.page_table_mut().unmap_page(src + 4096);
        let exec = rig.submit(&Descriptor::memmove(src, dst, 16384), SimTime::ZERO).unwrap();
        match exec.record.status {
            Status::PageFault { addr } => assert_eq!(addr, src + 4096),
            other => panic!("expected page fault, got {other:?}"),
        }
        assert_eq!(exec.record.bytes_completed, 4096);
        assert_eq!(rig.dev.telemetry().page_faults, 1);
    }

    #[test]
    fn block_on_fault_completes_fully_but_slower() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let src = rig.alloc(16384, Location::local_dram());
        let dst = rig.alloc(16384, Location::local_dram());
        rig.memory.read_mut(src, 16384).unwrap().fill(7);
        rig.memsys.page_table_mut().unmap_page(src + 4096);
        let desc = Descriptor::memmove(src, dst, 16384).with_block_on_fault();
        let exec = rig.submit(&desc, SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::Success);
        assert!(rig.memory.read(dst, 16384).unwrap().iter().all(|&b| b == 7));
        // The exposed fault service time dominates.
        assert!(exec.timeline.total() > Platform::spr().page_fault);
    }

    #[test]
    fn batch_completes_all_members() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let size = 4096u64;
        let n = 8;
        let mut descs = Vec::new();
        let list = rig.alloc(64 * n as u64, Location::local_dram());
        for _ in 0..n {
            let s = rig.alloc(size, Location::local_dram());
            let d = rig.alloc(size, Location::local_dram());
            rig.memory.read_mut(s, size).unwrap().fill(5);
            descs.push(Descriptor::memmove(s, d, size as u32));
        }
        let batch = BatchDescriptor {
            desc_list_addr: list,
            count: n as u32,
            completion_addr: 0,
            flags: Flags::REQUEST_COMPLETION,
        };
        let exec = rig
            .dev
            .submit_batch(&mut rig.memory, &mut rig.memsys, WqId(0), &batch, &descs, SimTime::ZERO)
            .unwrap();
        assert_eq!(exec.members.len(), n);
        assert!(exec.members.iter().all(|m| m.record.status == Status::Success));
        assert_eq!(exec.batch_record.status, Status::Success);
        assert_eq!(exec.batch_record.bytes_completed, n as u32);
        assert_eq!(rig.dev.telemetry().batches, 1);
        assert_eq!(rig.dev.telemetry().descriptors, n as u64);
    }

    #[test]
    fn batch_amortizes_offload_cost() {
        // Total bytes equal; the batch should finish sooner than serial
        // sync submissions (paper §3.4/F2).
        let size = 1024u32;
        let n = 32;

        let mut rig = Rig::new(DeviceConfig::single_engine());
        let mut serial_done = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            let s = rig.alloc(size as u64, Location::local_dram());
            let d = rig.alloc(size as u64, Location::local_dram());
            let exec = rig.submit(&Descriptor::memmove(s, d, size), now).unwrap();
            serial_done = exec.timeline.completed;
            now = serial_done; // sync: wait for completion before next
        }

        let mut rig2 = Rig::new(DeviceConfig::single_engine());
        let list = rig2.alloc(64 * n as u64, Location::local_dram());
        let mut descs = Vec::new();
        for _ in 0..n {
            let s = rig2.alloc(size as u64, Location::local_dram());
            let d = rig2.alloc(size as u64, Location::local_dram());
            descs.push(Descriptor::memmove(s, d, size));
        }
        let batch = BatchDescriptor {
            desc_list_addr: list,
            count: n as u32,
            completion_addr: 0,
            flags: Flags::REQUEST_COMPLETION,
        };
        let exec = rig2
            .dev
            .submit_batch(
                &mut rig2.memory,
                &mut rig2.memsys,
                WqId(0),
                &batch,
                &descs,
                SimTime::ZERO,
            )
            .unwrap();
        assert!(
            exec.completed < serial_done,
            "batch {:?} should beat serial sync {:?}",
            exec.completed,
            serial_done
        );
    }

    #[test]
    fn more_engines_help_small_transfers() {
        let run = |engines: u32| -> f64 {
            let mut rig = Rig::new(DeviceConfig {
                groups: vec![GroupConfig::with_engines(engines)],
                wqs: vec![WqConfig::dedicated(64, 0)],
            });
            let size = 1024u64;
            let src = rig.alloc(size, Location::local_dram());
            let dst = rig.alloc(size, Location::local_dram());
            let n = 512u64;
            let mut last = SimTime::ZERO;
            let mut now = SimTime::ZERO;
            for _ in 0..n {
                let exec = rig.submit_retry(&Descriptor::memmove(src, dst, size as u32), now);
                last = exec.timeline.completed;
                now += SimDuration::from_ns(55);
            }
            (n * size) as f64 / last.as_ns_f64()
        };
        let one = run(1);
        let four = run(4);
        assert!(four > 1.4 * one, "4 engines {four} GB/s vs 1 engine {one} GB/s");
    }

    #[test]
    fn cache_flush_evicts_lines() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let buf = rig.alloc(4096, Location::local_dram());
        // Warm the lines into the LLC model.
        for line in 0..64u64 {
            rig.memsys.llc_mut().access(
                AgentId::core(0),
                buf + line * 64,
                dsa_mem::cache::AllocPolicy::AllocOnMiss,
                dsa_mem::cache::WayMask::ALL,
            );
        }
        let d = Descriptor {
            opcode: Opcode::CacheFlush,
            flags: Flags::REQUEST_COMPLETION,
            src: 0,
            dst: buf,
            xfer_size: 4096,
            completion_addr: 0,
            params: OpParams::None,
        };
        let exec = rig.submit(&d, SimTime::ZERO).unwrap();
        assert_eq!(exec.record.result, 64);
        assert_eq!(rig.memsys.llc().occupancy_bytes(AgentId::core(0)), 0);
    }

    #[test]
    fn invalid_descriptor_and_submit_errors() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        // Unmapped memory -> invalid descriptor status.
        let d = Descriptor::memmove(0xdead_0000, 0xbeef_0000, 64);
        let exec = rig.submit(&d, SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::InvalidDescriptor);
        assert_eq!(rig.dev.telemetry().errors, 1);
        // Unknown WQ.
        let err = rig
            .dev
            .submit(&mut rig.memory, &mut rig.memsys, WqId(7), &d, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SubmitError::UnknownWq { wq: 7 }));
        // Batch size limits.
        let batch = BatchDescriptor {
            desc_list_addr: 0,
            count: 1,
            completion_addr: 0,
            flags: Flags::empty(),
        };
        let err = rig
            .dev
            .submit_batch(
                &mut rig.memory,
                &mut rig.memsys,
                WqId(0),
                &batch,
                std::slice::from_ref(&d),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, SubmitError::BadBatchSize { count: 1 }));
    }

    #[test]
    fn telemetry_counts_bytes() {
        let mut rig = Rig::new(DeviceConfig::single_engine());
        let src = rig.alloc(8192, Location::local_dram());
        let dst = rig.alloc(8192, Location::local_dram());
        rig.submit(&Descriptor::memmove(src, dst, 8192), SimTime::ZERO).unwrap();
        let t = rig.dev.telemetry();
        assert_eq!(t.bytes_read, 8192);
        assert_eq!(t.bytes_written, 8192);
        assert_eq!(t.descriptors, 1);
    }

    #[test]
    fn enqcmd_port_serializes() {
        let mut rig = Rig::new(DeviceConfig {
            groups: vec![GroupConfig::with_engines(1)],
            wqs: vec![WqConfig::shared(32, 0)],
        });
        let a = rig.dev.enqcmd_accept(WqId(0), SimTime::ZERO).unwrap();
        let b = rig.dev.enqcmd_accept(WqId(0), SimTime::ZERO).unwrap();
        assert!(b > a, "second ENQCMD must queue behind the first");
        assert_eq!(rig.dev.wq_mode(WqId(0)), WqMode::Shared);
    }

    #[test]
    fn remote_and_cxl_destinations_order_throughput() {
        let gbps = |dst_loc: Location| -> f64 {
            let mut rig = Rig::new(DeviceConfig::single_engine());
            let size = 1u64 << 20;
            let src = rig.alloc(size, Location::local_dram());
            let dst = rig.alloc(size, dst_loc);
            let mut last = SimTime::ZERO;
            let mut now = SimTime::ZERO;
            for _ in 0..16 {
                let exec = rig.submit_retry(&Descriptor::memmove(src, dst, size as u32), now);
                last = exec.timeline.completed;
                now += SimDuration::from_ns(60);
            }
            (16 * size) as f64 / last.as_ns_f64()
        };
        let local = gbps(Location::local_dram());
        let remote = gbps(Location::remote_dram());
        let cxl = gbps(Location::Cxl);
        assert!(cxl < remote * 0.8, "CXL dst {cxl} should trail remote {remote}");
        assert!(remote <= local * 1.05, "remote {remote} should not beat local {local}");
    }
}

#[cfg(test)]
mod drain_tests {
    use super::*;
    use dsa_mem::buffer::PageSize;

    #[test]
    fn drain_waits_for_prior_descriptors() {
        let platform = Platform::spr();
        let mut memory = Memory::new();
        let mut memsys = MemSystem::new(platform.clone());
        let mut dev = DsaDevice::new(0, DeviceConfig::single_engine(), &platform);
        let src = memory.alloc(1 << 20, Location::local_dram());
        let dst = memory.alloc(1 << 20, Location::local_dram());
        memsys.page_table_mut().map_range(src.addr(), 1 << 20, PageSize::Base4K);
        memsys.page_table_mut().map_range(dst.addr(), 1 << 20, PageSize::Base4K);

        let copy = Descriptor::memmove(src.addr(), dst.addr(), 1 << 20);
        let exec = dev.submit(&mut memory, &mut memsys, WqId(0), &copy, SimTime::ZERO).unwrap();
        let drain = Descriptor {
            opcode: Opcode::Drain,
            flags: Flags::REQUEST_COMPLETION,
            src: 0,
            dst: 0,
            xfer_size: 0,
            completion_addr: 0,
            params: crate::descriptor::OpParams::None,
        };
        let d = dev.submit(&mut memory, &mut memsys, WqId(0), &drain, SimTime::ZERO).unwrap();
        assert!(
            d.timeline.completed >= exec.timeline.completed,
            "drain must not complete before in-flight work: {:?} vs {:?}",
            d.timeline.completed,
            exec.timeline.completed
        );
        assert_eq!(d.record.status, Status::Success);
    }

    #[test]
    fn fence_orders_batch_members() {
        let platform = Platform::spr();
        let mut memory = Memory::new();
        let mut memsys = MemSystem::new(platform.clone());
        let mut dev = DsaDevice::new(0, DeviceConfig::full_device(), &platform);
        let a = memory.alloc(256 << 10, Location::local_dram());
        let b = memory.alloc(256 << 10, Location::local_dram());
        let c = memory.alloc(256 << 10, Location::local_dram());
        for h in [&a, &b, &c] {
            memsys.page_table_mut().map_range(h.addr(), 256 << 10, PageSize::Base4K);
        }
        memory.read_mut(a.addr(), 256 << 10).unwrap().fill(7);

        // Copy a->b, then (fenced) b->c: the fence makes the second copy
        // observe the first's result even across a multi-engine group.
        let first = Descriptor::memmove(a.addr(), b.addr(), 256 << 10);
        let mut second = Descriptor::memmove(b.addr(), c.addr(), 256 << 10);
        second.flags = second.flags | Flags::FENCE;
        let batch = BatchDescriptor {
            desc_list_addr: a.addr(),
            count: 2,
            completion_addr: 0,
            flags: Flags::REQUEST_COMPLETION,
        };
        let exec = dev
            .submit_batch(
                &mut memory,
                &mut memsys,
                WqId(0),
                &batch,
                &[first, second],
                SimTime::ZERO,
            )
            .unwrap();
        assert!(exec.members.iter().all(|m| m.record.status == Status::Success));
        assert!(memory.read(c.addr(), 256 << 10).unwrap().iter().all(|&x| x == 7));
    }

    #[test]
    fn atc_telemetry_counts() {
        let platform = Platform::spr();
        let mut memory = Memory::new();
        let mut memsys = MemSystem::new(platform.clone());
        let mut dev = DsaDevice::new(0, DeviceConfig::single_engine(), &platform);
        let src = memory.alloc(4096, Location::local_dram());
        let dst = memory.alloc(4096, Location::local_dram());
        memsys.page_table_mut().map_range(src.addr(), 4096, PageSize::Base4K);
        memsys.page_table_mut().map_range(dst.addr(), 4096, PageSize::Base4K);
        let d = Descriptor::memmove(src.addr(), dst.addr(), 4096);
        dev.submit(&mut memory, &mut memsys, WqId(0), &d, SimTime::ZERO).unwrap();
        let t1 = dev.telemetry();
        assert_eq!(t1.atc_misses, 2, "first touch misses for src and dst");
        dev.submit(&mut memory, &mut memsys, WqId(0), &d, SimTime::ZERO).unwrap();
        let t2 = dev.telemetry();
        assert_eq!(t2.atc_hits, 2, "repeat touch hits");
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;
    use dsa_mem::buffer::PageSize;

    /// Every opcode that requires op-specific params must reject a
    /// descriptor carrying the wrong variant with InvalidDescriptor —
    /// never panic, never silently succeed.
    #[test]
    fn wrong_params_yield_invalid_descriptor() {
        let platform = Platform::spr();
        let mut memory = Memory::new();
        let mut memsys = MemSystem::new(platform.clone());
        let mut dev = DsaDevice::new(0, DeviceConfig::single_engine(), &platform);
        let buf = memory.alloc(4096, Location::local_dram());
        memsys.page_table_mut().map_range(buf.addr(), 4096, PageSize::Base4K);

        let cases = [
            Opcode::Fill,           // needs Pattern
            Opcode::ComparePattern, // needs Pattern
            Opcode::Dualcast,       // needs Dest2
            Opcode::CreateDelta,    // needs Delta
            Opcode::ApplyDelta,     // needs Delta
            Opcode::DifInsert,      // needs Dif
            Opcode::DifCheck,       // needs Dif
            Opcode::DifStrip,       // needs Dif
            Opcode::DifUpdate,      // needs Dif
        ];
        for opcode in cases {
            let d = Descriptor {
                opcode,
                flags: Flags::REQUEST_COMPLETION,
                src: buf.addr(),
                dst: buf.addr(),
                xfer_size: 512,
                completion_addr: 0,
                params: OpParams::None, // deliberately wrong for all cases
            };
            let exec = dev.submit(&mut memory, &mut memsys, WqId(0), &d, SimTime::ZERO).unwrap();
            assert_eq!(
                exec.record.status,
                Status::InvalidDescriptor,
                "{opcode:?} with missing params must be invalid"
            );
        }
        assert_eq!(dev.telemetry().errors, cases.len() as u64);
    }

    /// Zero-length operations complete successfully without touching data.
    #[test]
    fn zero_length_ops_are_benign() {
        let platform = Platform::spr();
        let mut memory = Memory::new();
        let mut memsys = MemSystem::new(platform.clone());
        let mut dev = DsaDevice::new(0, DeviceConfig::single_engine(), &platform);
        let buf = memory.alloc(64, Location::local_dram());
        memsys.page_table_mut().map_range(buf.addr(), 64, PageSize::Base4K);
        memory.read_mut(buf.addr(), 64).unwrap().fill(0x3C);

        let d = Descriptor::memmove(buf.addr(), buf.addr(), 0);
        let exec = dev.submit(&mut memory, &mut memsys, WqId(0), &d, SimTime::ZERO).unwrap();
        assert_eq!(exec.record.status, Status::Success);
        assert_eq!(exec.record.bytes_completed, 0);
        assert!(memory.read(buf.addr(), 64).unwrap().iter().all(|&b| b == 0x3C));
    }

    /// Oversized transfers are rejected at submission, before any work.
    #[test]
    fn oversized_transfer_rejected_at_submit() {
        let platform = Platform::spr();
        let mut memory = Memory::new();
        let mut memsys = MemSystem::new(platform.clone());
        let mut dev = DsaDevice::new(0, DeviceConfig::single_engine(), &platform);
        let mut d = Descriptor::memmove(0x1000, 0x2000, 64);
        d.xfer_size = u32::MAX; // 4 GiB - 1 > 2 GiB cap
        let err = dev.submit(&mut memory, &mut memsys, WqId(0), &d, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, SubmitError::TooLarge { .. }));
        assert_eq!(dev.telemetry().descriptors, 0, "nothing was processed");
    }
}

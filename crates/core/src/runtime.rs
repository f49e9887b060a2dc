//! The simulated platform a user program runs against.
//!
//! [`DsaRuntime`] bundles everything one experiment needs: the platform
//! description, the byte store ([`Memory`]), the timing model
//! ([`MemSystem`]), one or more DSA instances, the software-baseline cost
//! model, and a global clock. The [`Job`] API drives it
//! the way DML drives real hardware.

use crate::job::Job;
use dsa_device::config::DeviceConfig;
use dsa_device::descriptor::{CompletionRecord, Descriptor, Status};
use dsa_device::device::{run_op, DsaDevice};
use dsa_mem::buffer::{Location, PageSize};
use dsa_mem::memory::{BufferHandle, MemError, Memory};
use dsa_mem::memsys::MemSystem;
use dsa_mem::topology::Platform;
use dsa_ops::swcost::SwCost;
use dsa_ops::OpKind;
use dsa_sim::rng::SplitMix64;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_telemetry::Hub;

/// Builder for a [`DsaRuntime`].
#[derive(Debug)]
pub struct RuntimeBuilder {
    platform: Platform,
    device_configs: Vec<DeviceConfig>,
    page_size: PageSize,
    timing_only: bool,
}

impl RuntimeBuilder {
    /// Starts from a platform (usually [`Platform::spr`]).
    pub fn new(platform: Platform) -> RuntimeBuilder {
        RuntimeBuilder {
            platform,
            device_configs: Vec::new(),
            page_size: PageSize::Base4K,
            timing_only: false,
        }
    }

    /// Adds one DSA instance with `config`.
    pub fn device(mut self, config: DeviceConfig) -> RuntimeBuilder {
        self.device_configs.push(config);
        self
    }

    /// Adds `n` DSA instances sharing the same `config`.
    pub fn devices(mut self, n: usize, config: DeviceConfig) -> RuntimeBuilder {
        for _ in 0..n {
            self.device_configs.push(config.clone());
        }
        self
    }

    /// Default page size for allocations (paper Fig. 8).
    pub fn page_size(mut self, ps: PageSize) -> RuntimeBuilder {
        self.page_size = ps;
        self
    }

    /// Backs the runtime with a [`Memory::timing_only`] byte store, in
    /// which every buffer is unbacked (see
    /// [`DsaRuntime::alloc_unbacked`]): buffers get the same addresses and
    /// the same timing but hold no bytes. Operations whose completion
    /// record reports nothing computed from operand bytes (memmove,
    /// dualcast, fill, DIF insert) time exactly as on a backed runtime;
    /// operations that read operand bytes (compare, CRC, DIF check, ...)
    /// complete with `InvalidDescriptor`, on the device and on the CPU
    /// fallback alike, and no completion record lands in memory. For
    /// simulations whose results nobody reads.
    pub fn timing_only(mut self) -> RuntimeBuilder {
        self.timing_only = true;
        self
    }

    /// Builds the runtime. At least one device is always present.
    pub fn build(mut self) -> DsaRuntime {
        if self.device_configs.is_empty() {
            self.device_configs.push(DeviceConfig::single_engine());
        }
        let memsys = MemSystem::new(self.platform.clone());
        let devices = self
            .device_configs
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| DsaDevice::new(i as u16, cfg, &self.platform))
            .collect();
        DsaRuntime {
            swcost: SwCost::new(self.platform.clone()),
            platform: self.platform,
            memory: if self.timing_only { Memory::timing_only() } else { Memory::new() },
            memsys,
            devices,
            page_size: self.page_size,
            now: SimTime::ZERO,
            rng: SplitMix64::new(0xD5A0_5EED),
            hub: None,
        }
    }
}

/// The simulated platform: memory + devices + clock.
pub struct DsaRuntime {
    platform: Platform,
    memory: Memory,
    memsys: MemSystem,
    devices: Vec<DsaDevice>,
    swcost: SwCost,
    page_size: PageSize,
    now: SimTime,
    rng: SplitMix64,
    hub: Option<Hub>,
}

impl DsaRuntime {
    /// An SPR platform with one single-engine DSA (the paper's §4.1 setup).
    pub fn spr_default() -> DsaRuntime {
        RuntimeBuilder::new(Platform::spr()).device(DeviceConfig::single_engine()).build()
    }

    /// Starts a builder.
    pub fn builder(platform: Platform) -> RuntimeBuilder {
        RuntimeBuilder::new(platform)
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The software-baseline cost model.
    pub fn swcost(&self) -> &SwCost {
        &self.swcost
    }

    /// Attaches a telemetry hub: the job layer writes one record per job
    /// into it (descriptor lifecycle, job phases and critical path are
    /// derived from that record), plus a wait span per awaited job.
    /// Devices hold no hub.
    pub fn attach_hub(&mut self, hub: Hub) {
        self.hub = Some(hub);
    }

    /// Enables tracing with a fresh hub and returns a handle to it.
    pub fn trace(&mut self) -> Hub {
        let hub = Hub::default();
        self.attach_hub(hub.clone());
        hub
    }

    /// The attached telemetry hub, if any.
    pub fn hub(&self) -> Option<&Hub> {
        self.hub.as_ref()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `d`.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Moves the clock forward to `t` (no-op if already past).
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Sets the clock outright — for multi-agent harnesses that juggle
    /// per-core cursors and hand the runtime to whichever agent acts next.
    /// Drive agents in (approximately) time order: device resource
    /// timelines tolerate small reorderings but not wholesale rewinds.
    pub fn set_now(&mut self, t: SimTime) {
        self.now = t;
    }

    /// Number of DSA instances.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Access to device `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device(&self, i: usize) -> &DsaDevice {
        &self.devices[i]
    }

    /// Mutable device access (used by the job layer).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device_mut(&mut self, i: usize) -> &mut DsaDevice {
        &mut self.devices[i]
    }

    /// Rebuilds device `i` under a new configuration — the plan-transition
    /// path: a fresh device with empty WQs, as after a real drain +
    /// re-enable cycle. In-flight work must already be accounted for by
    /// the caller (the service layer quiesces to a barrier first). The
    /// runtime's hub, if any, keeps recording the new device's jobs.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn replace_device(&mut self, i: usize, config: DeviceConfig) {
        assert!(i < self.devices.len(), "no device {i}");
        self.devices[i] = DsaDevice::new(i as u16, config, &self.platform);
    }

    /// Destructured mutable access for submission paths that need the
    /// device, memory, and memory system simultaneously.
    pub(crate) fn parts(&mut self, dev: usize) -> (&mut DsaDevice, &mut Memory, &mut MemSystem) {
        (&mut self.devices[dev], &mut self.memory, &mut self.memsys)
    }

    /// The byte store.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable byte store.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// The timing model.
    pub fn memsys(&self) -> &MemSystem {
        &self.memsys
    }

    /// Mutable timing model.
    pub fn memsys_mut(&mut self) -> &mut MemSystem {
        &mut self.memsys
    }

    /// Allocates a zeroed buffer and maps its pages.
    pub fn alloc(&mut self, len: u64, loc: Location) -> BufferHandle {
        let ps = self.page_size;
        self.alloc_with_pages(len, loc, ps)
    }

    /// Allocates with an explicit page size and maps its pages.
    pub fn alloc_with_pages(&mut self, len: u64, loc: Location, ps: PageSize) -> BufferHandle {
        let h = self.memory.alloc_with_pages(len, loc, ps);
        self.memsys.page_table_mut().map_range(h.addr(), len.max(1), ps);
        h
    }

    /// Allocates a buffer that holds no bytes and maps its pages: the
    /// address, page size, location and mapping [`alloc`](Self::alloc)
    /// would give it, so operations on it time the same. Writes into it
    /// are dropped and reads fail (see [`dsa_mem::memory`]); for operands
    /// whose contents nobody reads.
    pub fn alloc_unbacked(&mut self, len: u64, loc: Location) -> BufferHandle {
        let ps = self.page_size;
        let h = self.memory.alloc_unbacked_with_pages(len, loc, ps);
        self.memsys.page_table_mut().map_range(h.addr(), len.max(1), ps);
        h
    }

    /// The bytes of a buffer, or `None` if it is unbacked.
    fn bytes_mut(&mut self, buf: &BufferHandle) -> Option<&mut [u8]> {
        match self.memory.read_mut(buf.addr(), buf.len()) {
            Ok(bytes) => Some(bytes),
            Err(MemError::NoBytes { .. }) => None,
            Err(e) => panic!("buffer {buf:?} is not from this runtime: {e}"),
        }
    }

    /// Fills a buffer with one byte value (a no-op on an unbacked buffer).
    ///
    /// # Panics
    ///
    /// Panics if the buffer was not allocated by this runtime.
    pub fn fill_pattern(&mut self, buf: &BufferHandle, byte: u8) {
        if let Some(bytes) = self.bytes_mut(buf) {
            bytes.fill(byte);
        }
    }

    /// Fills a buffer with reproducible pseudo-random bytes (a no-op on an
    /// unbacked buffer, which still advances the seed stream).
    ///
    /// # Panics
    ///
    /// Panics if the buffer was not allocated by this runtime.
    pub fn fill_random(&mut self, buf: &BufferHandle) {
        let mut rng = self.rng.split();
        if let Some(bytes) = self.bytes_mut(buf) {
            rng.fill_bytes(bytes);
        }
    }

    /// Reads buffer contents.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] for invalid ranges.
    pub fn read(&self, buf: &BufferHandle) -> Result<&[u8], MemError> {
        self.memory.read(buf.addr(), buf.len())
    }

    /// The placements the cost models price `desc` at: the allocations
    /// holding its source and destination. An operand the descriptor does
    /// not use (address 0) takes the other operand's placement; an
    /// unmapped one defaults to local DRAM.
    pub(crate) fn placements(&self, desc: &Descriptor) -> (Location, Location) {
        let loc = |addr| self.memory.location_of(addr).unwrap_or(Location::local_dram());
        let (s, d) = (desc.src(), desc.dst());
        let src = if s == 0 { d } else { s };
        let dst = if d == 0 { s } else { d };
        (loc(src), loc(dst))
    }

    /// Runs `job` in software on the calling core: performs its operation
    /// with the device's byte semantics ([`run_op`]) and advances the
    /// clock by the calibrated software time for the descriptor's
    /// operation and transfer size. Returns the completion record and the
    /// elapsed time. A record of `InvalidDescriptor` (an operand range the
    /// core cannot access, or operand bytes an unbacked buffer does not
    /// hold) charges no time.
    pub fn cpu_op(&mut self, job: &Job) -> (CompletionRecord, SimDuration) {
        let desc = job.descriptor();
        let record = run_op(&mut self.memory, &mut self.memsys, desc);
        if record.status == Status::InvalidDescriptor {
            return (record, SimDuration::ZERO);
        }
        let (src, dst) = self.placements(desc);
        let t = self.swcost.op_time(desc.opcode().op_kind(), u64::from(desc.xfer_size()), src, dst);
        self.now += t;
        (record, t)
    }

    /// The calibrated software time for `kind` over `bytes` with explicit
    /// placements, without executing or advancing the clock.
    pub fn cpu_time(&self, kind: OpKind, bytes: u64, src: Location, dst: Location) -> SimDuration {
        self.swcost.op_time(kind, bytes, src, dst)
    }
}

impl std::fmt::Debug for DsaRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsaRuntime")
            .field("platform", &self.platform.name)
            .field("devices", &self.devices.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runtime_has_one_device() {
        let rt = DsaRuntime::spr_default();
        assert_eq!(rt.device_count(), 1);
        assert_eq!(rt.platform().name, "SPR");
    }

    #[test]
    fn builder_adds_devices() {
        let rt =
            DsaRuntime::builder(Platform::spr()).devices(4, DeviceConfig::single_engine()).build();
        assert_eq!(rt.device_count(), 4);
    }

    #[test]
    fn empty_builder_gets_default_device() {
        let rt = DsaRuntime::builder(Platform::spr()).build();
        assert_eq!(rt.device_count(), 1);
    }

    #[test]
    fn alloc_maps_pages() {
        let mut rt = DsaRuntime::spr_default();
        let b = rt.alloc(10_000, Location::local_dram());
        assert!(rt.memsys().page_table().is_present(b.addr()));
        assert!(rt.memsys().page_table().is_present(b.addr() + 9_999));
    }

    #[test]
    fn fill_helpers_work() {
        let mut rt = DsaRuntime::spr_default();
        let b = rt.alloc(64, Location::local_dram());
        rt.fill_pattern(&b, 0x5A);
        assert!(rt.read(&b).unwrap().iter().all(|&x| x == 0x5A));
        rt.fill_random(&b);
        assert!(rt.read(&b).unwrap().iter().any(|&x| x != 0x5A));
    }

    #[test]
    fn clock_advances() {
        let mut rt = DsaRuntime::spr_default();
        rt.advance(SimDuration::from_us(3));
        assert_eq!(rt.now(), SimTime::from_us(3));
        rt.advance_to(SimTime::from_us(2));
        assert_eq!(rt.now(), SimTime::from_us(3), "advance_to never rewinds");
    }

    #[test]
    fn cpu_op_copies_and_charges_time() {
        let mut rt = DsaRuntime::spr_default();
        let a = rt.alloc(4096, Location::local_dram());
        let b = rt.alloc(4096, Location::local_dram());
        rt.fill_pattern(&a, 9);
        let (record, t) = rt.cpu_op(&Job::memcpy(&a, &b));
        assert_eq!(record.status, Status::Success);
        assert!(t.as_ns_f64() > 100.0);
        assert_eq!(rt.now(), SimTime::ZERO + t);
        assert!(rt.read(&b).unwrap().iter().all(|&x| x == 9));
    }

    #[test]
    fn cpu_op_charges_the_bytes_it_moves() {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(4 << 10, Location::local_dram());
        let dst = rt.alloc(64 << 10, Location::local_dram());
        let (_, t) = rt.cpu_op(&Job::memcpy(&src, &dst));
        let d = Location::local_dram();
        assert_eq!(t, rt.cpu_time(OpKind::Memcpy, 4096, d, d));
    }

    #[test]
    fn timing_only_runtime_times_copies_without_bytes() {
        let mut rt = DsaRuntime::builder(Platform::spr()).timing_only().build();
        let a = rt.alloc(4096, Location::local_dram());
        let b = rt.alloc(4096, Location::local_dram());
        rt.fill_pattern(&a, 9);
        rt.fill_random(&b);
        assert_eq!(rt.read(&a), Err(MemError::NoBytes { addr: a.addr() }));
        let (record, t) = rt.cpu_op(&Job::memcpy(&a, &b));
        assert_eq!(record.status, Status::Success);
        assert_eq!(rt.now(), SimTime::ZERO + t);
        // A fill reads no bytes: it succeeds and charges the software time.
        let (record, t_fill) = rt.cpu_op(&Job::fill(&a, 0));
        assert_eq!(record.status, Status::Success);
        let d = Location::local_dram();
        assert_eq!(t_fill, rt.cpu_time(OpKind::Fill, 4096, d, d));
        assert_eq!(rt.now(), SimTime::ZERO + t + t_fill);
        let mut elsewhere = Memory::new();
        elsewhere.alloc(64 << 20, d);
        let wild = elsewhere.alloc(4096, d);
        let (record, t_wild) = rt.cpu_op(&Job::fill(&wild, 0));
        assert_eq!(record.status, Status::InvalidDescriptor);
        assert_eq!(
            (t_wild, rt.now()),
            (SimDuration::ZERO, SimTime::ZERO + t + t_fill),
            "a failed op charges nothing"
        );
    }

    #[test]
    fn unbacked_buffers_get_the_backed_layout_and_mapping() {
        let mut backed = DsaRuntime::spr_default();
        let mut mixed = DsaRuntime::spr_default();
        let d = Location::local_dram();
        for len in [1u64, 4096, 10_000] {
            let h = backed.alloc(len, d);
            assert_eq!(mixed.alloc_unbacked(len, d), h);
            assert!(mixed.memsys().page_table().is_present(h.addr() + len - 1));
        }
        let b = mixed.alloc(64, d);
        let u = mixed.alloc_unbacked(64, d);
        mixed.fill_pattern(&u, 1);
        mixed.fill_random(&u);
        mixed.fill_pattern(&b, 0x5A);
        assert_eq!(mixed.read(&u), Err(MemError::NoBytes { addr: u.addr() }));
        assert!(mixed.read(&b).unwrap().iter().all(|&x| x == 0x5A));
    }

    #[test]
    fn huge_page_allocation() {
        let mut rt = DsaRuntime::builder(Platform::spr()).page_size(PageSize::Huge2M).build();
        let b = rt.alloc(100, Location::local_dram());
        assert_eq!(rt.memory().page_size_of(b.addr()).unwrap(), PageSize::Huge2M);
    }
}

//! The CBDMA baseline: the Ice Lake generation's Crystal Beach DMA engine.
//!
//! The paper's §2 and §4.2 compare DSA against CBDMA with matched resources
//! (one CBDMA channel vs. one DSA engine), reporting DSA at ≈ 2.1× average
//! throughput. The model captures CBDMA's structural differences:
//!
//! * descriptors live in a memory ring — the device *fetches* them (no
//!   low-latency portal write), and the doorbell write is costlier than
//!   `MOVDIR64B`;
//! * no shared virtual memory: buffers must be **pinned** before use, a
//!   restriction the paper calls out as a key adoption barrier (§2);
//! * a small operation set (copy/fill), no batching, no cache-control.

use crate::timing::CbdmaTiming;
use dsa_mem::buffer::Location;
use dsa_mem::memory::Memory;
use dsa_mem::memsys::{AgentId, MemSystem, WritePolicy};
use dsa_sim::time::{transfer_time_mgbps, SimDuration, SimTime};
use dsa_sim::timeline::{BwResource, Timeline};

/// Errors from CBDMA usage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CbdmaError {
    /// The channel index is out of range.
    UnknownChannel {
        /// Offending index.
        channel: usize,
    },
    /// The source or destination range was not pinned.
    NotPinned {
        /// Offending address.
        addr: u64,
    },
    /// The address range is invalid.
    BadRange {
        /// Offending address.
        addr: u64,
    },
}

impl std::fmt::Display for CbdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CbdmaError::UnknownChannel { channel } => write!(f, "unknown channel {channel}"),
            CbdmaError::NotPinned { addr } => {
                write!(f, "range at {addr:#x} must be pinned before CBDMA use")
            }
            CbdmaError::BadRange { addr } => write!(f, "invalid range at {addr:#x}"),
        }
    }
}

impl std::error::Error for CbdmaError {}

/// A completed CBDMA transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CbdmaExecution {
    /// When the doorbell write finished (core-side cost).
    pub submitted: SimTime,
    /// When the status write became visible to the polling core.
    pub completed: SimTime,
}

/// One CBDMA device (16 channels on ICX, paper Table 2).
pub struct CbdmaDevice {
    id: u16,
    timing: CbdmaTiming,
    channels: Vec<Timeline>,
    fabric: BwResource,
    pinned: Vec<(u64, u64)>,
}

impl CbdmaDevice {
    /// Builds a CBDMA with `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(id: u16, channels: usize, timing: CbdmaTiming) -> CbdmaDevice {
        assert!(channels > 0, "CBDMA needs at least one channel");
        CbdmaDevice {
            id,
            timing,
            channels: (0..channels).map(|_| Timeline::new()).collect(),
            fabric: BwResource::new(timing.fabric_mgbps),
            pinned: Vec::new(),
        }
    }

    /// Device id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Device timing parameters.
    pub fn timing(&self) -> &CbdmaTiming {
        &self.timing
    }

    /// Registers `[addr, addr+len)` as pinned (the `get_user_pages`-style
    /// setup CBDMA required).
    pub fn pin(&mut self, addr: u64, len: u64) {
        self.pinned.push((addr, len));
    }

    fn is_pinned(&self, addr: u64, len: u64) -> bool {
        self.pinned.iter().any(|&(base, plen)| addr >= base && addr + len <= base + plen)
    }

    /// Submits a copy of `len` bytes on `channel` at `now`.
    ///
    /// # Errors
    ///
    /// Fails if the channel is unknown, either range is unpinned, or the
    /// addresses are invalid.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_copy(
        &mut self,
        memory: &mut Memory,
        memsys: &mut MemSystem,
        channel: usize,
        src: u64,
        dst: u64,
        len: u64,
        now: SimTime,
    ) -> Result<CbdmaExecution, CbdmaError> {
        if channel >= self.channels.len() {
            return Err(CbdmaError::UnknownChannel { channel });
        }
        for addr in [src, dst] {
            if !self.is_pinned(addr, len) {
                return Err(CbdmaError::NotPinned { addr });
            }
        }
        memory.copy(src, dst, len).map_err(|_| CbdmaError::BadRange { addr: src })?;

        let agent = AgentId::dsa(self.id);
        let submitted = now + self.timing.doorbell;
        // The device fetches the ring descriptor, then streams.
        let fetch_done = submitted + self.timing.ring_fetch;
        let busy = self.timing.chan_fixed + transfer_time_mgbps(len, self.timing.chan_mgbps);
        let chan = self.channels[channel].reserve(fetch_done, busy);
        let src_loc = memory.location_of(src).unwrap_or(Location::local_dram());
        let dst_loc = memory.location_of(dst).unwrap_or(Location::local_dram());
        let fr = self.fabric.transfer(chan.start, len);
        let mr = memsys.read(agent, src_loc, chan.start, len);
        let arrived = fr.end.max(mr.end);
        let fw = self.fabric.transfer(arrived, len);
        let mw = memsys.write(agent, dst_loc, arrived, len, WritePolicy::Memory);
        let data_done = fw.end.max(mw.interval.end).max(chan.end);
        let completed = data_done + self.timing.completion + memsys.platform().llc_latency;
        Ok(CbdmaExecution { submitted, completed })
    }

    /// End-to-end latency of a single synchronous copy (descriptor build +
    /// doorbell through completion polling), without pinning checks — the
    /// steady-state cost used in sweeps.
    pub fn sync_copy_latency(
        &mut self,
        memsys: &mut MemSystem,
        channel: usize,
        len: u64,
        now: SimTime,
    ) -> SimDuration {
        let submitted = now + self.timing.doorbell;
        let fetch_done = submitted + self.timing.ring_fetch;
        let busy = self.timing.chan_fixed + transfer_time_mgbps(len, self.timing.chan_mgbps);
        let idx = channel.min(self.channels.len() - 1);
        let chan = self.channels[idx].reserve(fetch_done, busy);
        let agent = AgentId::dsa(self.id);
        let fr = self.fabric.transfer(chan.start, len);
        let mr = memsys.read(agent, Location::local_dram(), chan.start, len);
        let arrived = fr.end.max(mr.end);
        let fw = self.fabric.transfer(arrived, len);
        let mw = memsys.write(agent, Location::local_dram(), arrived, len, WritePolicy::Memory);
        let done = fw.end.max(mw.interval.end).max(chan.end);
        (done + self.timing.completion + memsys.platform().llc_latency).duration_since(now)
    }
}

impl std::fmt::Debug for CbdmaDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CbdmaDevice")
            .field("id", &self.id)
            .field("channels", &self.channels.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_mem::topology::Platform;

    fn setup() -> (Memory, MemSystem, CbdmaDevice) {
        (
            Memory::new(),
            MemSystem::new(Platform::icx()),
            CbdmaDevice::new(0, 16, CbdmaTiming::icx()),
        )
    }

    #[test]
    fn unpinned_rejected() {
        let (mut mem, mut sys, mut dev) = setup();
        let a = mem.alloc(4096, Location::local_dram());
        let b = mem.alloc(4096, Location::local_dram());
        let err = dev
            .submit_copy(&mut mem, &mut sys, 0, a.addr(), b.addr(), 4096, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, CbdmaError::NotPinned { .. }));
    }

    #[test]
    fn pinned_copy_works_functionally() {
        let (mut mem, mut sys, mut dev) = setup();
        let a = mem.alloc(4096, Location::local_dram());
        let b = mem.alloc(4096, Location::local_dram());
        mem.read_mut(a.addr(), 4096).unwrap().fill(0x7E);
        dev.pin(a.addr(), 4096);
        dev.pin(b.addr(), 4096);
        let exec = dev
            .submit_copy(&mut mem, &mut sys, 0, a.addr(), b.addr(), 4096, SimTime::ZERO)
            .unwrap();
        assert!(exec.completed > exec.submitted);
        assert!(mem.read(b.addr(), 4096).unwrap().iter().all(|&x| x == 0x7E));
    }

    #[test]
    fn unknown_channel_rejected() {
        let (mut mem, mut sys, mut dev) = setup();
        let a = mem.alloc(64, Location::local_dram());
        dev.pin(a.addr(), 64);
        let err = dev
            .submit_copy(&mut mem, &mut sys, 99, a.addr(), a.addr(), 64, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, CbdmaError::UnknownChannel { channel: 99 });
    }

    #[test]
    fn latency_grows_with_size() {
        let (_, mut sys, mut dev) = setup();
        let small = dev.sync_copy_latency(&mut sys, 0, 256, SimTime::ZERO);
        let mut sys2 = MemSystem::new(Platform::icx());
        let mut dev2 = CbdmaDevice::new(0, 16, CbdmaTiming::icx());
        let large = dev2.sync_copy_latency(&mut sys2, 0, 1 << 20, SimTime::ZERO);
        assert!(large > small);
        // Small transfers are dominated by the fixed offload cost.
        assert!(small.as_ns_f64() > 500.0, "offload overhead should dominate: {small}");
    }
}

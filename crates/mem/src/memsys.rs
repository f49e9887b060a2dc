//! The memory-system timing façade shared by CPU and device models.
//!
//! [`MemSystem`] owns the bandwidth resources of every memory medium (per-
//! socket DRAM, the CXL expander's asymmetric read/write paths, UPI), the
//! LLC model with its DDIO tracker, and the process page table. Requesters
//! reserve chunk transfers against it; queueing and bandwidth sharing then
//! emerge from the underlying [`timeline`](dsa_sim::timeline) calculus.
//!
//! Design note: the *throughput* path works on declared buffer locations
//! (a streaming copy does not need per-line cache simulation), while the
//! *pollution* path (paper Figs. 12/13) drives the line-granular
//! `Llc` model explicitly. `DESIGN.md` §1 records this
//! split.

pub use crate::agent::AgentId;
use crate::buffer::Location;
use crate::cache::{DdioTracker, Llc};
use crate::topology::Platform;
use crate::translate::PageTable;
use dsa_sim::time::{scale_bytes, SimDuration, SimTime};
use dsa_sim::timeline::{BwResource, Interval};

/// How a write interacts with the cache hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Cache-control = 1: allocate into the DDIO share of the LLC
    /// (spilling to DRAM past the DDIO capacity — the leaky-DMA effect).
    AllocateLlc,
    /// Cache-control = 0: write to memory, invalidating stale LLC lines.
    Memory,
}

/// A completed write reservation.
#[derive(Clone, Copy, Debug)]
pub struct WriteOutcome {
    /// Service interval (start of bandwidth occupancy to data landed).
    pub interval: Interval,
    /// Fraction of the bytes that spilled past the DDIO ways (0 for
    /// [`WritePolicy::Memory`] writes and for non-LLC destinations).
    pub ddio_spill: f64,
}

/// The platform memory system.
pub struct MemSystem {
    platform: Platform,
    /// One combined read+write channel-set per socket (DDR is effectively
    /// shared between directions).
    dram: Vec<BwResource>,
    cxl_read: Option<BwResource>,
    cxl_write: Option<BwResource>,
    upi: BwResource,
    llc_pipe: BwResource,
    llc: Llc,
    ddio: DdioTracker,
    page_table: PageTable,
}

/// Averaging window for the DDIO footprint tracker. ~0.4 ms of writes at
/// the 30 GB/s fabric cap is ≈ 12 MB — just under the 14 MB DDIO share of
/// the SPR LLC, so a single device does not leak but several do (Fig. 10).
const DDIO_WINDOW: SimDuration = SimDuration::from_us(400);

/// Extra DRAM traffic charged per spilled byte, in halves: the write
/// itself plus a displaced writeback (the "leaky
/// DMA" penalty). 4 halves = 2x.
const SPILL_TRAFFIC_HALVES: u64 = 4;

impl MemSystem {
    /// Builds the memory system of `platform`.
    pub fn new(platform: Platform) -> MemSystem {
        let dram =
            (0..platform.sockets).map(|_| BwResource::new(platform.dram.read_mgbps)).collect();
        let cxl_read = platform.cxl.map(|m| BwResource::new(m.read_mgbps));
        let cxl_write = platform.cxl.map(|m| BwResource::new(m.write_mgbps));
        let upi = BwResource::new(platform.upi_mgbps);
        let llc_pipe = BwResource::new(platform.llc_mgbps);
        // Line-granular LLC for occupancy experiments; 64-B lines.
        let llc = Llc::new(platform.llc_bytes, platform.llc_ways, 64);
        let ddio = DdioTracker::new(platform.ddio_bytes(), DDIO_WINDOW);
        MemSystem {
            platform,
            dram,
            cxl_read,
            cxl_write,
            upi,
            llc_pipe,
            llc,
            ddio,
            page_table: PageTable::new(),
        }
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Shared process page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable access to the page table (mapping buffers, injecting faults).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// The line-granular LLC model (pollution experiments).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Mutable access to the LLC model.
    pub fn llc_mut(&mut self) -> &mut Llc {
        &mut self.llc
    }

    /// Read latency of a location.
    pub fn read_latency(&self, loc: Location) -> SimDuration {
        self.platform.medium(loc).read_latency
    }

    /// Write latency of a location.
    pub fn write_latency(&self, loc: Location) -> SimDuration {
        self.platform.medium(loc).write_latency
    }

    /// Reserves a chunk read of `bytes` from `loc`, ready at `ready`.
    ///
    /// The returned interval ends when the data is available at the
    /// requester (bandwidth occupancy plus load-to-use latency).
    pub fn read(&mut self, _agent: AgentId, loc: Location, ready: SimTime, bytes: u64) -> Interval {
        let lat = self.read_latency(loc);
        let iv = match loc {
            Location::Dram { socket } => {
                let s = socket.min(self.platform.sockets - 1) as usize;
                let iv = self.dram[s].transfer(ready, bytes);
                if socket != 0 {
                    // Remote reads also occupy the UPI link.
                    let upi_iv = self.upi.transfer(ready, bytes);
                    Interval { start: iv.start.max(upi_iv.start), end: iv.end.max(upi_iv.end) }
                } else {
                    iv
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "CXL traffic only reaches here on platforms built with a CXL device"
            )]
            Location::Cxl => self
                .cxl_read
                .as_mut()
                .expect("platform has no CXL memory device")
                .transfer(ready, bytes),
            Location::Llc => self.llc_pipe.transfer(ready, bytes),
        };
        Interval { start: iv.start, end: iv.end + lat }
    }

    /// Reserves a chunk write of `bytes` to `loc`, ready at `ready`.
    ///
    /// For LLC-destined writes ([`WritePolicy::AllocateLlc`] to any
    /// location, or explicit [`Location::Llc`]) the DDIO tracker may spill
    /// part of the footprint to DRAM, charging extra channel traffic.
    pub fn write(
        &mut self,
        _agent: AgentId,
        loc: Location,
        ready: SimTime,
        bytes: u64,
        policy: WritePolicy,
    ) -> WriteOutcome {
        self.write_at(_agent, loc, ready, 0, bytes, policy)
    }

    /// Like [`write`](Self::write), with the destination address known so
    /// the DDIO tracker can account *footprint* (buffer reuse does not
    /// leak; streaming over large regions does).
    pub fn write_at(
        &mut self,
        _agent: AgentId,
        loc: Location,
        ready: SimTime,
        addr: u64,
        bytes: u64,
        policy: WritePolicy,
    ) -> WriteOutcome {
        let lat = self.write_latency(loc);
        match loc {
            Location::Cxl => {
                #[expect(
                    clippy::expect_used,
                    reason = "CXL traffic only reaches here on platforms built with a CXL device"
                )]
                let iv = self
                    .cxl_write
                    .as_mut()
                    .expect("platform has no CXL memory device")
                    .transfer(ready, bytes);
                WriteOutcome {
                    interval: Interval { start: iv.start, end: iv.end + lat },
                    ddio_spill: 0.0,
                }
            }
            Location::Dram { socket } => {
                let s = socket.min(self.platform.sockets - 1) as usize;
                match policy {
                    WritePolicy::Memory => {
                        let iv = self.dram[s].transfer(ready, bytes);
                        let iv = if socket != 0 {
                            let upi_iv = self.upi.transfer(ready, bytes);
                            Interval {
                                start: iv.start.max(upi_iv.start),
                                end: iv.end.max(upi_iv.end),
                            }
                        } else {
                            iv
                        };
                        WriteOutcome {
                            interval: Interval { start: iv.start, end: iv.end + lat },
                            ddio_spill: 0.0,
                        }
                    }
                    WritePolicy::AllocateLlc => {
                        // Destination data is steered into the local LLC's
                        // DDIO ways; past their capacity it leaks to DRAM.
                        let spill = self.ddio.write(ready, addr, bytes);
                        let kept = scale_bytes(bytes, 1.0 - spill);
                        let spilled = bytes - kept;
                        let mut end = ready;
                        let mut start = SimTime::MAX;
                        if kept > 0 {
                            let iv = self.llc_pipe.transfer(ready, kept);
                            start = start.min(iv.start);
                            end = end.max(iv.end + self.platform.llc_latency);
                        }
                        if spilled > 0 {
                            let iv =
                                self.dram[s].transfer(ready, spilled * SPILL_TRAFFIC_HALVES / 2);
                            start = start.min(iv.start);
                            end = end.max(iv.end + lat);
                        }
                        if start == SimTime::MAX {
                            start = ready;
                        }
                        WriteOutcome { interval: Interval { start, end }, ddio_spill: spill }
                    }
                }
            }
            Location::Llc => {
                let spill = match policy {
                    WritePolicy::AllocateLlc => self.ddio.write(ready, addr, bytes),
                    WritePolicy::Memory => 0.0,
                };
                let kept = scale_bytes(bytes, 1.0 - spill);
                let spilled = bytes - kept;
                let mut iv = self.llc_pipe.transfer(ready, kept.max(1));
                if spilled > 0 {
                    let div = self.dram[0].transfer(ready, spilled * SPILL_TRAFFIC_HALVES / 2);
                    iv = Interval { start: iv.start.min(div.start), end: iv.end.max(div.end) };
                }
                WriteOutcome {
                    interval: Interval { start: iv.start, end: iv.end + lat },
                    ddio_spill: spill,
                }
            }
        }
    }

    /// Total bytes served by the local-socket DRAM channels.
    pub fn local_dram_bytes(&self) -> u64 {
        self.dram[0].bytes_served()
    }
}

impl std::fmt::Debug for MemSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSystem")
            .field("platform", &self.platform.name)
            .field("local_dram_bytes", &self.local_dram_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_sim::time::achieved_gbps;

    fn sys() -> MemSystem {
        MemSystem::new(Platform::spr())
    }

    #[test]
    fn read_includes_latency_and_bandwidth() {
        let mut m = sys();
        let iv = m.read(AgentId::dsa(0), Location::local_dram(), SimTime::ZERO, 4096);
        // 4 KiB at 220 GB/s ≈ 18.6 ns occupancy + 114 ns latency.
        let total = iv.end.as_ns_f64();
        assert!(total > 114.0 && total < 150.0, "got {total} ns");
    }

    #[test]
    fn streaming_reads_share_bandwidth() {
        let mut m = sys();
        let chunk = 1 << 20;
        let mut end = SimTime::ZERO;
        for _ in 0..64 {
            end = m.read(AgentId::dsa(0), Location::local_dram(), SimTime::ZERO, chunk).end;
        }
        let g = achieved_gbps(64 * chunk, end.duration_since(SimTime::ZERO));
        assert!((g - 220.0).abs() < 25.0, "aggregate {g} GB/s should approach channel bw");
    }

    #[test]
    fn remote_read_slower_latency_and_upi_capped() {
        let mut m = sys();
        let local = m.read(AgentId::dsa(0), Location::local_dram(), SimTime::ZERO, 64);
        let mut m2 = sys();
        let remote = m2.read(AgentId::dsa(0), Location::remote_dram(), SimTime::ZERO, 64);
        assert!(remote.end > local.end);
    }

    #[test]
    fn cxl_write_slower_than_read() {
        let mut m = sys();
        let r = m.read(AgentId::dsa(0), Location::Cxl, SimTime::ZERO, 1 << 20);
        let mut m2 = sys();
        let w =
            m2.write(AgentId::dsa(0), Location::Cxl, SimTime::ZERO, 1 << 20, WritePolicy::Memory);
        assert!(w.interval.end > r.end, "CXL writes are the slow direction");
    }

    #[test]
    fn ddio_writes_spill_after_footprint_exceeds_capacity() {
        let mut m = sys();
        let cap = m.platform().ddio_bytes();
        // Writing a footprint equal to capacity does not spill…
        let first = m.write_at(
            AgentId::dsa(0),
            Location::local_dram(),
            SimTime::ZERO,
            0,
            cap,
            WritePolicy::AllocateLlc,
        );
        assert_eq!(first.ddio_spill, 0.0);
        // …but extending it far past capacity does.
        let second = m.write_at(
            AgentId::dsa(0),
            Location::local_dram(),
            SimTime::ZERO,
            cap * 2,
            cap,
            WritePolicy::AllocateLlc,
        );
        assert!(second.ddio_spill > 0.3, "footprint 2x capacity spills: {}", second.ddio_spill);
        // Re-writing the same region keeps the same steady-state miss rate
        // without growing the footprint.
        let third = m.write_at(
            AgentId::dsa(0),
            Location::local_dram(),
            SimTime::ZERO,
            0,
            cap,
            WritePolicy::AllocateLlc,
        );
        assert!((third.ddio_spill - second.ddio_spill).abs() < 1e-9);
    }

    #[test]
    fn memory_policy_never_spills() {
        let mut m = sys();
        let w = m.write(
            AgentId::dsa(0),
            Location::local_dram(),
            SimTime::ZERO,
            1 << 26,
            WritePolicy::Memory,
        );
        assert_eq!(w.ddio_spill, 0.0);
    }

    #[test]
    fn page_table_shared_access() {
        let mut m = sys();
        m.page_table_mut().map_range(0x1000, 0x1000, crate::buffer::PageSize::Base4K);
        assert!(m.page_table().is_present(0x1800));
    }

    #[test]
    #[should_panic(expected = "no CXL")]
    fn icx_cxl_read_panics() {
        let mut m = MemSystem::new(Platform::icx());
        m.read(AgentId::dsa(0), Location::Cxl, SimTime::ZERO, 64);
    }

    #[test]
    fn llc_location_uses_llc_pipe() {
        let mut m = sys();
        let llc = m.read(AgentId::core(0), Location::Llc, SimTime::ZERO, 4096);
        let mut m2 = sys();
        let dram = m2.read(AgentId::core(0), Location::local_dram(), SimTime::ZERO, 4096);
        assert!(llc.end < dram.end, "LLC reads are faster");
    }
}

#[cfg(test)]
mod coverage_tests {
    use super::*;
    use dsa_sim::time::achieved_gbps;

    #[test]
    fn remote_write_occupies_upi() {
        // A stream of remote writes is bounded by the UPI link, not the
        // remote DRAM channels.
        let mut m = MemSystem::new(Platform::spr());
        let chunk = 1u64 << 20;
        let mut end = SimTime::ZERO;
        for _ in 0..64 {
            end = m
                .write(
                    AgentId::dsa(0),
                    Location::remote_dram(),
                    SimTime::ZERO,
                    chunk,
                    WritePolicy::Memory,
                )
                .interval
                .end;
        }
        let g = achieved_gbps(64 * chunk, end.duration_since(SimTime::ZERO));
        let upi = Platform::spr().upi_mgbps as f64 / 1000.0;
        assert!(g <= upi * 1.05, "remote writes capped by UPI: {g} vs {upi}");
    }

    #[test]
    fn cxl_read_and_write_paths_are_independent() {
        // Full-duplex CXL link model: concurrent read and write streams do
        // not halve each other.
        let mut m = MemSystem::new(Platform::spr());
        let chunk = 1u64 << 20;
        let mut r_end = SimTime::ZERO;
        let mut w_end = SimTime::ZERO;
        for _ in 0..16 {
            r_end = m.read(AgentId::dsa(0), Location::Cxl, SimTime::ZERO, chunk).end;
            w_end = m
                .write(AgentId::dsa(0), Location::Cxl, SimTime::ZERO, chunk, WritePolicy::Memory)
                .interval
                .end;
        }
        let rg = achieved_gbps(16 * chunk, r_end.duration_since(SimTime::ZERO));
        let wg = achieved_gbps(16 * chunk, w_end.duration_since(SimTime::ZERO));
        assert!(rg > 15.0, "CXL reads near their 18 GB/s: {rg}");
        assert!(wg > 9.0, "CXL writes near their 11 GB/s: {wg}");
    }

    #[test]
    fn llc_destined_memory_policy_writes_do_not_track_ddio() {
        let mut m = MemSystem::new(Platform::spr());
        // Location::Llc with Memory policy: charged on the LLC pipe but no
        // DDIO accounting (completion records behave this way).
        let w = m.write_at(
            AgentId::dsa(0),
            Location::Llc,
            SimTime::ZERO,
            0x1000,
            4096,
            WritePolicy::Memory,
        );
        assert_eq!(w.ddio_spill, 0.0);
    }

    #[test]
    fn local_dram_bytes_counts_all_local_traffic() {
        let mut m = MemSystem::new(Platform::spr());
        m.read(AgentId::core(0), Location::local_dram(), SimTime::ZERO, 1000);
        m.write(AgentId::core(0), Location::local_dram(), SimTime::ZERO, 500, WritePolicy::Memory);
        assert_eq!(m.local_dram_bytes(), 1500);
        // Remote traffic does not count as local.
        m.read(AgentId::core(0), Location::remote_dram(), SimTime::ZERO, 4096);
        assert_eq!(m.local_dram_bytes(), 1500);
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let m = MemSystem::new(Platform::spr());
        assert!(format!("{m:?}").contains("SPR"));
    }
}

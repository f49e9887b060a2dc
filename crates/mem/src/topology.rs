//! Platform descriptions and calibrated timing parameters.
//!
//! [`Platform::spr`] and [`Platform::icx`] reproduce Table 2 of the paper:
//!
//! | Generation       | Ice Lake (ICX)    | Sapphire Rapids (SPR) |
//! |------------------|-------------------|-----------------------|
//! | Number of cores  | 40                | 56                    |
//! | L1I/L1D/L2 (KB)  | 32 / 48 / 1280    | 32 / 48 / 2048        |
//! | Shared LLC (MB)  | 57                | 105                   |
//! | Memory           | 6× DDR4 channels  | 8× DDR5 channels      |
//! | DMA engine       | CBDMA, 16 channels| DSA, 8 WQs, 4 engines |
//!
//! All latency/bandwidth constants are *calibrated model parameters*: they
//! are chosen so the reproduction matches the paper's anchors (single-DSA
//! fabric cap ≈ 30 GB/s, sync break-even ≈ 4 KB, async break-even ≈ 256 B,
//! DSA ≈ 2.1× CBDMA, leaky-DMA knee beyond the DDIO share of the LLC), and
//! each is documented with its provenance.

use crate::buffer::Location;
use dsa_sim::time::SimDuration;

/// Memory-medium timing parameters (one per [`Location`] class).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MediumParams {
    /// Loaded read latency seen by a streaming requester.
    pub read_latency: SimDuration,
    /// Loaded write latency (posted writes still occupy queues).
    pub write_latency: SimDuration,
    /// Sustainable read bandwidth in milli-GB/s.
    pub read_mgbps: u64,
    /// Sustainable write bandwidth in milli-GB/s.
    pub write_mgbps: u64,
}

/// Full platform description: core counts, cache geometry, memory media,
/// interconnects, and the CPU-side microarchitectural constants the
/// software-baseline models need.
#[derive(Clone, Debug, PartialEq)]
pub struct Platform {
    /// Marketing-generation label ("SPR", "ICX").
    pub name: &'static str,
    /// Physical cores per socket (Table 2).
    pub cores: u32,
    /// Core frequency in MHz (used to convert cycles to time).
    pub core_mhz: u32,
    /// Number of sockets modelled.
    pub sockets: u8,
    /// Shared LLC capacity in bytes (Table 2).
    pub llc_bytes: u64,
    /// LLC associativity (ways). SPR LLC is 15-way; ICX is 12-way.
    pub llc_ways: u32,
    /// Number of LLC ways reserved for DDIO / cache-control-1 writes.
    ///
    /// Intel platforms default to 2 ways for inbound I/O; the leaky-DMA
    /// literature (ref. \[64\] in the paper) studies exactly this knob.
    pub ddio_ways: u32,
    /// LLC load-to-use latency.
    pub llc_latency: SimDuration,
    /// Aggregate LLC streaming bandwidth in milli-GB/s across all agents
    /// (the mesh sustains several hundred GB/s; the device fabric, not the
    /// LLC, is the binding per-device constraint).
    pub llc_mgbps: u64,
    /// Socket-local DRAM parameters.
    pub dram: MediumParams,
    /// Extra one-way latency added by a UPI hop to remote DRAM.
    pub upi_latency: SimDuration,
    /// UPI per-direction bandwidth in milli-GB/s.
    pub upi_mgbps: u64,
    /// CXL memory-expander parameters (only present on SPR; `None` on ICX).
    pub cxl: Option<MediumParams>,
    /// IOTLB/ATC-missing page-walk latency (first-touch translation).
    pub iommu_walk: SimDuration,
    /// Core TLB miss page-walk latency.
    pub tlb_walk: SimDuration,
    /// OS page-fault service time (minor fault on touched-first pages).
    pub page_fault: SimDuration,
}

impl Platform {
    /// Sapphire Rapids preset (the paper's DSA system, Table 2).
    pub fn spr() -> Platform {
        Platform {
            name: "SPR",
            cores: 56,
            core_mhz: 2000,
            sockets: 2,
            llc_bytes: 105 << 20,
            llc_ways: 15,
            ddio_ways: 2,
            // ~33 ns LLC load-to-use on SPR mesh.
            llc_latency: SimDuration::from_ns(33),
            llc_mgbps: 240_000,
            dram: MediumParams {
                // Loaded DDR5-4800 latencies on SPR.
                read_latency: SimDuration::from_ns(114),
                write_latency: SimDuration::from_ns(118),
                // 8 channels DDR5-4800 ≈ 307 GB/s peak; ~72% sustained for
                // mixed streams.
                read_mgbps: 220_000,
                write_mgbps: 200_000,
            },
            // UPI 2.0 hop adds ~70 ns; ~62 GB/s per direction across links.
            upi_latency: SimDuration::from_ns(70),
            upi_mgbps: 62_000,
            cxl: Some(MediumParams {
                // Agilex-I CXL 1.1 FPGA expander with DDR4: reads ~250 ns
                // over loaded link; writes notably slower (paper §4.2:
                // "longer write latency of CXL-attached memory").
                read_latency: SimDuration::from_ns(350),
                write_latency: SimDuration::from_ns(560),
                read_mgbps: 18_000,
                write_mgbps: 11_000,
            }),
            iommu_walk: SimDuration::from_ns(240),
            tlb_walk: SimDuration::from_ns(85),
            page_fault: SimDuration::from_us(4),
        }
    }

    /// Ice Lake preset (the paper's CBDMA system, Table 2).
    pub fn icx() -> Platform {
        Platform {
            name: "ICX",
            cores: 40,
            core_mhz: 2300,
            sockets: 2,
            llc_bytes: 57 << 20,
            llc_ways: 12,
            ddio_ways: 2,
            llc_latency: SimDuration::from_ns(31),
            llc_mgbps: 200_000,
            dram: MediumParams {
                read_latency: SimDuration::from_ns(102),
                write_latency: SimDuration::from_ns(108),
                // 6 channels DDR4-3200 ≈ 154 GB/s peak.
                read_mgbps: 115_000,
                write_mgbps: 105_000,
            },
            upi_latency: SimDuration::from_ns(66),
            upi_mgbps: 56_000,
            cxl: None,
            iommu_walk: SimDuration::from_ns(260),
            tlb_walk: SimDuration::from_ns(80),
            page_fault: SimDuration::from_us(4),
        }
    }

    /// Returns a copy whose DDIO way allocation is divided among `sharers`
    /// co-resident device contexts (never below one way).
    ///
    /// The DDIO ways are a per-socket resource: when the fleet layer packs
    /// several shards' devices onto one socket, each shard's inbound
    /// writes see only a slice of the LLC's I/O share, so the leaky-DMA
    /// knee (paper Fig. 12 / ref. \[64\]) arrives proportionally earlier.
    ///
    /// # Panics
    ///
    /// Panics if `sharers == 0`.
    pub fn with_ddio_share(mut self, sharers: u32) -> Platform {
        assert!(sharers > 0, "DDIO sharer count must be positive");
        self.ddio_ways = (self.ddio_ways / sharers).max(1);
        self
    }

    /// Returns a copy whose UPI bandwidth is divided among `sharers`
    /// concurrent cross-socket streams (never below 1 milli-GB/s).
    ///
    /// The UPI link is a per-link resource: remote-socket placements from
    /// several shards contend for the same directionally-shared lanes
    /// (paper Fig. 8's cross-socket penalty), so each stream's remote-DRAM
    /// bandwidth cap shrinks with the number of crossers. Latency is
    /// unchanged — the hop count does not grow with contention in this
    /// static model, only the share of lane bandwidth does.
    ///
    /// # Panics
    ///
    /// Panics if `sharers == 0`.
    pub fn with_upi_share(mut self, sharers: u32) -> Platform {
        assert!(sharers > 0, "UPI sharer count must be positive");
        self.upi_mgbps = (self.upi_mgbps / u64::from(sharers)).max(1);
        self
    }

    /// The timing parameters of a [`Location`].
    ///
    /// # Panics
    ///
    /// Panics if `loc` is [`Location::Cxl`] on a platform without CXL.
    pub fn medium(&self, loc: Location) -> MediumParams {
        match loc {
            Location::Dram { socket: 0 } => self.dram,
            Location::Dram { .. } => MediumParams {
                read_latency: self.dram.read_latency + self.upi_latency,
                write_latency: self.dram.write_latency + self.upi_latency,
                // Remote DRAM bandwidth is min(DRAM, UPI); UPI binds.
                read_mgbps: self.dram.read_mgbps.min(self.upi_mgbps),
                write_mgbps: self.dram.write_mgbps.min(self.upi_mgbps),
            },
            #[expect(
                clippy::expect_used,
                reason = "documented panic — the method contract forbids Cxl on CXL-less platforms"
            )]
            Location::Cxl => self.cxl.expect("platform has no CXL memory device"),
            Location::Llc => MediumParams {
                read_latency: self.llc_latency,
                write_latency: self.llc_latency,
                read_mgbps: self.llc_mgbps,
                write_mgbps: self.llc_mgbps,
            },
        }
    }

    /// Bytes of LLC capacity available to cache-control-1 (DDIO-style)
    /// writes.
    pub fn ddio_bytes(&self) -> u64 {
        self.llc_bytes * self.ddio_ways as u64 / self.llc_ways as u64
    }

    /// Converts core cycles to time at this platform's frequency.
    pub fn cycles(&self, n: u64) -> SimDuration {
        // ps per cycle = 1e6 / MHz
        SimDuration::from_ps(n * 1_000_000 / self.core_mhz as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        let spr = Platform::spr();
        assert_eq!(spr.cores, 56);
        assert_eq!(spr.llc_bytes, 105 << 20);
        let icx = Platform::icx();
        assert_eq!(icx.cores, 40);
        assert_eq!(icx.llc_bytes, 57 << 20);
        assert!(icx.cxl.is_none() && spr.cxl.is_some());
        // DDR5 (SPR) outruns DDR4 (ICX).
        assert!(spr.dram.read_mgbps > icx.dram.read_mgbps);
    }

    #[test]
    fn remote_dram_adds_upi_hop() {
        let spr = Platform::spr();
        let local = spr.medium(Location::local_dram());
        let remote = spr.medium(Location::remote_dram());
        assert_eq!(remote.read_latency, local.read_latency + spr.upi_latency);
        assert!(remote.read_mgbps <= spr.upi_mgbps);
    }

    #[test]
    fn cxl_is_slower_to_write_than_read() {
        let cxl = Platform::spr().medium(Location::Cxl);
        assert!(cxl.write_latency > cxl.read_latency);
        assert!(cxl.write_mgbps < cxl.read_mgbps);
    }

    #[test]
    #[should_panic(expected = "no CXL")]
    fn icx_has_no_cxl() {
        Platform::icx().medium(Location::Cxl);
    }

    #[test]
    fn ddio_share_is_two_fifteenths_on_spr() {
        let spr = Platform::spr();
        assert_eq!(spr.ddio_bytes(), (105 << 20) * 2 / 15);
    }

    #[test]
    fn llc_is_faster_than_dram_than_cxl() {
        let spr = Platform::spr();
        let llc = spr.medium(Location::Llc);
        let dram = spr.medium(Location::local_dram());
        let cxl = spr.medium(Location::Cxl);
        assert!(llc.read_latency < dram.read_latency);
        assert!(dram.read_latency < cxl.read_latency);
    }

    #[test]
    fn cycles_at_2ghz() {
        let spr = Platform::spr(); // 2000 MHz -> 0.5 ns per cycle
        assert_eq!(spr.cycles(2), SimDuration::from_ns(1));
        assert_eq!(spr.cycles(2000), SimDuration::from_us(1));
    }

    #[test]
    fn ddio_share_splits_ways_with_a_floor() {
        let spr = Platform::spr(); // 2 DDIO ways
        assert_eq!(spr.clone().with_ddio_share(1).ddio_ways, 2);
        assert_eq!(spr.clone().with_ddio_share(2).ddio_ways, 1);
        // Oversubscribed sockets floor at one way, never zero.
        assert_eq!(spr.clone().with_ddio_share(8).ddio_ways, 1);
        assert!(spr.clone().with_ddio_share(2).ddio_bytes() < spr.ddio_bytes());
    }

    #[test]
    fn upi_share_caps_remote_bandwidth() {
        let spr = Platform::spr();
        let split = spr.clone().with_upi_share(4);
        assert_eq!(split.upi_mgbps, spr.upi_mgbps / 4);
        let remote = split.medium(Location::remote_dram());
        assert_eq!(remote.read_mgbps, split.upi_mgbps, "UPI share binds remote reads");
        // Latency is a hop property, not a contention property, here.
        assert_eq!(remote.read_latency, spr.medium(Location::remote_dram()).read_latency);
    }
}

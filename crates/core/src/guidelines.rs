//! Executable encodings of the paper's guidelines G1–G6 (§6).
//!
//! Each advisor turns a guideline's prose into a function a program can
//! call; the integration tests check that following the advice actually
//! wins in the simulated system (and the `g*` ablation series in the
//! benches show the margins).

use dsa_device::config::{DeviceCaps, DeviceConfig};
use dsa_mem::topology::MediumParams;

/// G1 — "Keep a balanced batch size and transfer size."
///
/// For a fixed total of `total_bytes`, recommends a `(transfer_size,
/// batch_size)` split. Contiguous data coalesces into one big descriptor;
/// otherwise modest batching (4–8) balances descriptor-management overhead
/// against fetch pipelining (Fig. 14).
pub fn g1_split(total_bytes: u64, contiguous: bool) -> (u64, u32) {
    if contiguous || total_bytes <= 4096 {
        return (total_bytes, 1);
    }
    // Modest batch: grow with total size, capped at 8.
    let bs = match total_bytes {
        0..=65_535 => 4u32,
        _ => 8,
    };
    (total_bytes / bs as u64, bs)
}

/// Where G2 routes an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionAdvice {
    /// Offload asynchronously (best throughput and core efficiency).
    DsaAsync,
    /// Offload synchronously (above break-even but no async potential).
    DsaSync,
    /// Run on the CPU core.
    Cpu,
}

/// G2 — "Use DSA asynchronously when possible."
///
/// Below ~4 KiB with no async potential, the core wins — *if* cache
/// pollution is acceptable (Fig. 2/15).
pub fn g2_execution(bytes: u64, can_async: bool, pollution_ok: bool) -> ExecutionAdvice {
    if can_async {
        return ExecutionAdvice::DsaAsync;
    }
    if bytes < 4096 && pollution_ok {
        return ExecutionAdvice::Cpu;
    }
    ExecutionAdvice::DsaSync
}

/// G3 — "Control the data destination wisely."
///
/// Returns the cache-control flag: write to LLC when the data is consumed
/// soon (temporal locality); stream to memory otherwise to avoid evicting
/// co-runners (Figs. 10/12).
pub fn g3_cache_control(consumed_soon: bool) -> bool {
    consumed_soon
}

/// Which buffer goes on which medium for a cross-tier move (G4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierPlacement {
    /// Put the *destination* on medium A (A has the faster writes).
    DestOnA,
    /// Put the *destination* on medium B.
    DestOnB,
    /// The media are equivalent; split source/destination across them for
    /// channel parallelism.
    Split,
}

/// G4 — "DSA as a good candidate of moving data across a heterogeneous
/// memory system."
///
/// "The memory type with faster write latency exhibits better performance
/// when used as DSA destination" (§6.2).
pub fn g4_tier_placement(a: &MediumParams, b: &MediumParams) -> TierPlacement {
    let a_ps = a.write_latency.as_ps() as i128;
    let b_ps = b.write_latency.as_ps() as i128;
    let diff = a_ps - b_ps;
    // Within 10%: treat as symmetric and split for channel parallelism.
    if diff.unsigned_abs() * 10 <= a_ps.max(b_ps) as u128 {
        TierPlacement::Split
    } else if diff < 0 {
        TierPlacement::DestOnA
    } else {
        TierPlacement::DestOnB
    }
}

/// G5 — "Leverage PE-level parallelism."
///
/// Small transfers are bounded by per-descriptor engine overhead, so give
/// their group more engines; a single engine already saturates the fabric
/// for large transfers (Fig. 7).
pub fn g5_engines(typical_transfer: u64) -> u32 {
    match typical_transfer {
        0..=16_384 => 4,
        16_385..=262_144 => 2,
        _ => 1,
    }
}

/// WQ strategy recommended by G6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WqStrategy {
    /// One dedicated WQ per submitter.
    DedicatedPerThread {
        /// How many DWQs to configure.
        wqs: u32,
    },
    /// One shared WQ; hardware manages the concurrency.
    SharedSingle,
}

/// G6 — "Optimize WQ configuration."
///
/// DWQs (or batching to one DWQ) win while submitters fit in the WQ
/// budget; with more threads than WQs, a shared WQ "offloads concurrency
/// management to hardware" (Fig. 9).
pub fn g6_wq_strategy(threads: u32, available_wqs: u32) -> WqStrategy {
    if threads <= available_wqs {
        WqStrategy::DedicatedPerThread { wqs: threads }
    } else {
        WqStrategy::SharedSingle
    }
}

/// G6 addendum: "assigning 32 entries for a single WQ can provide almost
/// the maximum throughput possible."
pub fn g6_wq_size() -> u32 {
    32
}

/// Builds a device configuration following G5+G6 for a workload described
/// by its typical transfer size and submitter count.
///
/// Submitters that fit in the WQ budget each get a dedicated WQ. The WQs
/// open one group each while the device's groups last and share them
/// round-robin after that; G5's engine count is raised to one engine per
/// group. More submitters than WQs share one WQ.
#[expect(
    clippy::expect_used,
    reason = "both shapes fit DSA 1.0: at most 8 WQs sharing 128 entries, at most 4 groups and 4 engines"
)]
pub fn recommended_config(typical_transfer: u64, threads: u32) -> DeviceConfig {
    use crate::config::AccelConfig;
    let caps = DeviceCaps::dsa1();
    let engines = g5_engines(typical_transfer);
    let cfg = match g6_wq_strategy(threads, caps.wqs) {
        WqStrategy::DedicatedPerThread { wqs } => {
            let wqs = wqs.max(1);
            let groups = wqs.min(caps.groups);
            let engines = engines.max(groups).min(caps.engines);
            let mut cfg = AccelConfig::builder();
            for g in 0..groups {
                cfg = cfg.group(engines / groups + u32::from(g < engines % groups));
            }
            for w in 0..wqs {
                cfg = cfg.dedicated_wq_in(caps.wq_total_entries / wqs, (w % groups) as usize);
            }
            cfg
        }
        WqStrategy::SharedSingle => {
            AccelConfig::builder().group(engines.min(caps.engines)).shared_wq(g6_wq_size())
        }
    };
    cfg.build().expect("recommended shapes are within DSA 1.0 capabilities")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_mem::buffer::Location;
    use dsa_mem::topology::Platform;

    #[test]
    fn g1_coalesces_contiguous() {
        assert_eq!(g1_split(1 << 20, true), (1 << 20, 1));
        let (ts, bs) = g1_split(1 << 20, false);
        assert_eq!(bs, 8);
        assert_eq!(ts * bs as u64, 1 << 20);
    }

    #[test]
    fn g1_small_totals_stay_single() {
        assert_eq!(g1_split(2048, false).1, 1);
    }

    #[test]
    fn g2_prefers_async() {
        assert_eq!(g2_execution(256, true, true), ExecutionAdvice::DsaAsync);
        assert_eq!(g2_execution(256, false, true), ExecutionAdvice::Cpu);
        assert_eq!(g2_execution(256, false, false), ExecutionAdvice::DsaSync);
        assert_eq!(g2_execution(1 << 20, false, true), ExecutionAdvice::DsaSync);
    }

    #[test]
    fn g4_picks_faster_write_side() {
        let spr = Platform::spr();
        let dram = spr.medium(Location::local_dram());
        let cxl = spr.medium(Location::Cxl);
        // DRAM writes are faster: destination should be DRAM.
        assert_eq!(g4_tier_placement(&dram, &cxl), TierPlacement::DestOnA);
        assert_eq!(g4_tier_placement(&cxl, &dram), TierPlacement::DestOnB);
        // Symmetric media: split.
        assert_eq!(g4_tier_placement(&dram, &dram), TierPlacement::Split);
    }

    #[test]
    fn g5_scales_engines_inversely_with_size() {
        assert_eq!(g5_engines(1024), 4);
        assert_eq!(g5_engines(64 << 10), 2);
        assert_eq!(g5_engines(2 << 20), 1);
    }

    #[test]
    fn g6_switches_to_shared_when_oversubscribed() {
        assert_eq!(g6_wq_strategy(4, 8), WqStrategy::DedicatedPerThread { wqs: 4 });
        assert_eq!(g6_wq_strategy(16, 8), WqStrategy::SharedSingle);
        assert_eq!(g6_wq_size(), 32);
    }

    #[test]
    fn recommended_configs_are_valid() {
        for (ts, threads) in [(1024u64, 1u32), (1024, 4), (1 << 20, 2), (4096, 32)] {
            let cfg = recommended_config(ts, threads);
            cfg.validate(&DeviceCaps::dsa1()).unwrap();
        }
    }
}

//! An SPDK-style NVMe/TCP target with CRC32 Data Digest offload
//! (paper Appendix C, Fig. 21).
//!
//! For every read I/O the target produces a PDU whose Data Digest is a
//! CRC32-C over the payload. The digest strategy is `Option<Engine>`:
//! skipped entirely (`None`), computed with an ISA-L-style vectorized
//! software kernel on the target core (`Some(Engine::Cpu)`), or offloaded
//! to DSA through the acceleration framework (`Some(Engine::Dsa { .. })`,
//! batched when possible, polled in user space; the framework falls back
//! to software when the device is unavailable).
//!
//! The harness measures IOPS versus the number of target cores, with the
//! aggregate capped by the network/SSD path, and the average request
//! latency — reproducing Fig. 21's "DSA ≈ no-digest, both saturate with
//! fewer cores than ISA-L" result.

use dsa_core::backend::Engine;
use dsa_core::job::Job;
use dsa_core::runtime::DsaRuntime;
use dsa_core::DsaError;
use dsa_mem::buffer::Location;
use dsa_ops::crc32::Crc32c;
use dsa_sim::time::SimDuration;

/// Target configuration.
#[derive(Clone, Copy, Debug)]
pub struct NvmeTcpTarget {
    /// I/O size in bytes (Fig. 21: 16 KiB random / 128 KiB sequential).
    pub io_size: u64,
    /// Target cores polling for work.
    pub cores: u32,
    /// Digest strategy: `None` disables the Data Digest, `Some(Engine::Cpu)`
    /// runs the ISA-L-style software kernel, `Some(Engine::Dsa { .. })`
    /// offloads to the named device/WQ.
    pub digest: Option<Engine>,
}

/// Results of a target run.
#[derive(Clone, Copy, Debug)]
pub struct NvmeTcpReport {
    /// Achieved thousands of I/O operations per second.
    pub kiops: f64,
    /// Average request latency.
    pub avg_latency: SimDuration,
    /// Whether the network/SSD path (not the cores) was the bottleneck.
    pub saturated: bool,
}

/// Base per-I/O CPU cost: TCP/PDU processing, NVMe command handling,
/// buffer management (SPDK polled mode, calibrated so saturation core
/// counts track Fig. 21).
fn base_io_time(io_size: u64) -> SimDuration {
    SimDuration::from_ns(5_000) + SimDuration::from_ns(io_size / 10) // +0.1 ns/B
}

/// Effective ISA-L digest rate on the target core: the vectorized CRC is
/// fast in isolation, but the digest path re-touches cold payload data
/// while assembling PDUs, so the calibrated system rate is lower (matches
/// Fig. 21's ISA-L saturation at >8 cores for 16 KiB reads).
const ISAL_CRC_MGBPS: u64 = 3_000;

/// Line/SSD path cap in mGB/s (100 GbE with protocol overheads).
const PATH_MGBPS: u64 = 11_000;

impl NvmeTcpTarget {
    /// Runs `ios` read requests through the target model. A sample of
    /// real descriptors flows through the device (or software CRC) to keep
    /// the datapath honest; steady-state rates extrapolate from measured
    /// per-I/O costs.
    ///
    /// # Errors
    ///
    /// Propagates DSA submission failures.
    pub fn run(&self, rt: &mut DsaRuntime, ios: u64) -> Result<NvmeTcpReport, DsaError> {
        // --- measured per-I/O digest cost (sampled functionally) ---
        let payload = rt.alloc(self.io_size, Location::local_dram());
        rt.fill_random(&payload);
        #[expect(clippy::unwrap_used, reason = "payload was allocated by the runtime two lines up")]
        let expected = Crc32c::checksum(rt.read(&payload).unwrap());

        let digest_core_cost = match self.digest {
            None => SimDuration::ZERO,
            #[expect(clippy::unwrap_used, reason = "payload was allocated by the runtime above")]
            Some(Engine::Cpu) => {
                // Verify once functionally, then charge the ISA-L rate.
                assert_eq!(Crc32c::checksum(rt.read(&payload).unwrap()), expected);
                dsa_sim::time::transfer_time_mgbps(self.io_size, ISAL_CRC_MGBPS)
            }
            Some(Engine::Dsa { device, wq }) => {
                // Offloaded: the core pays submit + poll; the checksum is
                // produced by the device. Measure it on a real descriptor.
                let before = rt.now();
                let report = Job::crc32(&payload).on_device(device).on_wq(wq).execute(rt)?;
                assert_eq!(report.record.result as u32, expected, "device CRC must match");
                let sync_cost = rt.now().duration_since(before);
                // Batched + polled asynchronously in steady state: the
                // core-visible share is submission + completion check.
                SimDuration::from_ns(250).min(sync_cost)
            }
        };

        // --- steady-state rates ---
        let per_io = base_io_time(self.io_size) + digest_core_cost;
        let per_core_iops = 1e9 / per_io.as_ns_f64(); // I/O per second
        let path_iops = (PATH_MGBPS as f64 * 1e6) / self.io_size as f64;
        let offered = per_core_iops * self.cores as f64;
        let achieved = offered.min(path_iops);
        let saturated = offered >= path_iops;

        // Latency: service time plus queueing inflation near saturation.
        let rho = (offered / path_iops).min(0.95);
        let queue_factor = 1.0 / (1.0 - rho * 0.5);
        let avg_latency = SimDuration::from_ns_f64(per_io.as_ns_f64() * queue_factor);

        // Run a token number of real I/Os through the device path so the
        // functional pipeline is exercised end to end.
        if let Some(Engine::Dsa { device, wq }) = self.digest {
            for _ in 0..ios.min(8) {
                let report = Job::crc32(&payload).on_device(device).on_wq(wq).execute(rt)?;
                assert_eq!(report.record.result as u32, expected);
            }
        }

        Ok(NvmeTcpReport { kiops: achieved / 1e3, avg_latency, saturated })
    }

    /// The minimum core count at which this configuration saturates the
    /// network/SSD path.
    pub fn saturation_cores(&self, rt: &mut DsaRuntime) -> u32 {
        for cores in 1..=32 {
            let t = NvmeTcpTarget { cores, ..*self };
            if let Ok(r) = t.run(rt, 1) {
                if r.saturated {
                    return cores;
                }
            }
        }
        33
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> DsaRuntime {
        DsaRuntime::spr_default()
    }

    #[test]
    fn digest_ordering_none_dsa_isal() {
        let mut r = rt();
        let mk = |digest| NvmeTcpTarget { io_size: 16 << 10, cores: 4, digest };
        let none = mk(None).run(&mut r, 4).unwrap();
        let dsa = mk(Some(Engine::dsa())).run(&mut r, 4).unwrap();
        let isal = mk(Some(Engine::Cpu)).run(&mut r, 4).unwrap();
        assert!(none.kiops >= dsa.kiops, "no digest is the upper bound");
        assert!(dsa.kiops > isal.kiops, "DSA should beat ISA-L: {} vs {}", dsa.kiops, isal.kiops);
        // DSA latency close to no-digest (Fig. 21b: "nearly equivalent").
        let ratio = dsa.avg_latency.as_ns_f64() / none.avg_latency.as_ns_f64();
        assert!(ratio < 1.10, "DSA latency should track no-digest: {ratio}");
        assert!(isal.avg_latency > dsa.avg_latency);
    }

    #[test]
    fn saturation_cores_ordering_16k() {
        let mut r = rt();
        let mk = |digest| NvmeTcpTarget { io_size: 16 << 10, cores: 1, digest };
        let none = mk(None).saturation_cores(&mut r);
        let dsa = mk(Some(Engine::dsa())).saturation_cores(&mut r);
        let isal = mk(Some(Engine::Cpu)).saturation_cores(&mut r);
        assert!(dsa <= none + 1, "DSA saturates about as early as no-digest");
        assert!(isal > dsa, "ISA-L needs more cores: {isal} vs {dsa}");
        // Fig. 21: saturation around 6 cores for 16 KiB random reads.
        assert!((4..=8).contains(&dsa), "DSA saturation at {dsa} cores");
        assert!(isal > 8, "ISA-L saturates above 8 cores, got {isal}");
    }

    #[test]
    fn large_sequential_needs_fewer_cores() {
        let mut r = rt();
        let small = NvmeTcpTarget { io_size: 16 << 10, cores: 1, digest: Some(Engine::dsa()) }
            .saturation_cores(&mut r);
        let large = NvmeTcpTarget { io_size: 128 << 10, cores: 1, digest: Some(Engine::dsa()) }
            .saturation_cores(&mut r);
        assert!(large < small, "128 KiB saturates with fewer cores: {large} vs {small}");
        assert!(large <= 3, "Fig. 21: ~2 cores for 128 KiB sequential, got {large}");
    }

    #[test]
    fn iops_scale_until_saturation() {
        let mut r = rt();
        let mk = |cores| NvmeTcpTarget { io_size: 16 << 10, cores, digest: Some(Engine::dsa()) };
        let one = mk(1).run(&mut r, 1).unwrap();
        let two = mk(2).run(&mut r, 1).unwrap();
        assert!((two.kiops / one.kiops - 2.0).abs() < 0.05, "linear below saturation");
        let many = mk(16).run(&mut r, 1).unwrap();
        assert!(many.saturated);
        let cap = (PATH_MGBPS as f64 * 1e6) / (16 << 10) as f64 / 1e3;
        assert!((many.kiops - cap).abs() < 1.0, "capped at the path limit");
    }
}

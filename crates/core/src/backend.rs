//! Where a data-movement operation runs.
//!
//! [`Engine`] names the two places — the calling core or a DSA instance —
//! for workloads that pick one statically. [`DsaBackend`] is the device
//! side of the per-call choice the
//! [`Dispatcher`](crate::dispatch::Dispatcher) makes: a *pool* of DSA
//! instances with selection policies (so Fig. 10's multi-instance scaling
//! is a first-class runtime capability) plus the cost
//! [`estimate`](DsaBackend::estimate) the dispatcher weighs against the
//! runtime's software model ([`DsaRuntime::cpu_time`]).

use crate::job::DESC_PREPARE;
use crate::runtime::DsaRuntime;
use crate::submit::SubmitMethod;
use dsa_device::config::WqMode;
use dsa_device::device::WqId;
use dsa_mem::buffer::Location;
use dsa_ops::OpKind;
use dsa_sim::time::{transfer_time_mgbps, SimDuration};

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

    /// Mirrors the device pipeline for an amortized-descriptor sync job:
    /// prepare + portal write on the core, then accept → dispatch → engine
    /// (pipeline fill + rate-limited streaming) → completion write, plus
    /// queueing for a busy engine. The streaming rate is capped by the
    /// engine, the fabric, and the read-buffer MLP limit for the source
    /// medium (F3); the pipeline fill is the memory round-trip the first
    /// chunk pays before streaming overlaps — it dominates small
    /// transfers and is what puts the sync break-even near 4 KiB.
    pub fn estimate(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;
    use crate::job::Job;
    use dsa_mem::topology::Platform;

    fn rt_with_devices(n: usize) -> DsaRuntime {
        DsaRuntime::builder(Platform::spr())
            .devices(n, presets::engines_behind_one_dwq(1, 32))
            .build()
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

//! The governed fleet: one private [`Governor`] per shard, riding the
//! fleet layer's shard isolation.
//!
//! Each shard's governor owns its service, its telemetry window, and its
//! twin scoring — nothing crosses shards, so the parallel-determinism
//! proof carries over unchanged: [`GovernedFleet::run_parallel`] merges
//! per-shard **control** digests (service digest ⊕ decision sequence) in
//! shard order, and the result is bit-identical across thread counts.
//! A governed fleet whose shards never decide anything digests exactly
//! like the plain [`Fleet`] — the controller is provably a no-op until
//! it acts.

use crate::controller::{ControllerConfig, Governor};
use dsa_core::error::DsaError;
use dsa_svc::fleet::{Fleet, FleetReport, ShardReport};

/// A [`Fleet`] driven shard-by-shard under a [`Governor`].
pub struct GovernedFleet {
    fleet: Fleet,
    cfg: ControllerConfig,
}

/// A governed fleet run's outcome: the merged fleet report (per-shard
/// digests are control digests) plus fleet-wide decision counts.
#[derive(Clone, Debug)]
pub struct GovernedFleetReport {
    /// The merged per-shard rows and order-merged control digest.
    pub fleet: FleetReport,
    /// Re-plan evaluations across all shards.
    pub decisions: u64,
    /// Plan transitions actually applied across all shards.
    pub transitions: u64,
    /// [`ControlReport::twin_jobs`](crate::decision::ControlReport::twin_jobs)
    /// summed over the shards.
    pub twin_jobs: u64,
    /// [`ControlReport::twins_pruned`](crate::decision::ControlReport::twins_pruned)
    /// summed over the shards.
    pub twins_pruned: u64,
}

impl GovernedFleet {
    /// Wraps `fleet` with one governor tuning shared by every shard
    /// (each shard still gets its own governor instance and twin seeds).
    pub fn new(fleet: Fleet, cfg: ControllerConfig) -> GovernedFleet {
        GovernedFleet { fleet, cfg }
    }

    /// The underlying fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The controller tuning in force.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Governs every shard on the calling thread, in shard order.
    ///
    /// # Errors
    ///
    /// Propagates shard construction errors like
    /// [`Fleet::run_sequential`].
    pub fn run_sequential(&self) -> Result<GovernedFleetReport, DsaError> {
        self.run_parallel(1)
    }

    /// Governs the shards on up to `threads` workers via
    /// [`Fleet::map_shards`] and merges in shard order. The merged digest
    /// is bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's error, in shard order.
    pub fn run_parallel(&self, threads: usize) -> Result<GovernedFleetReport, DsaError> {
        let rows = self.fleet.map_shards(threads, |i, mut svc| {
            let ctl = Governor::new(self.cfg.clone()).govern(&mut svc);
            let mut shard =
                ShardReport::from_service(self.fleet.shard_assignment(i), &svc, &ctl.report);
            // The shard's digest-merge slot carries the CONTROL digest:
            // service digest with the decision sequence folded in. With
            // zero decisions the two coincide, so a pressure-free
            // governed fleet digests exactly like a plain one.
            shard.digest = ctl.digest();
            Ok((shard, ctl))
        })?;
        let (mut decisions, mut transitions, mut twin_jobs, mut twins_pruned) = (0, 0, 0, 0);
        let mut shards = Vec::with_capacity(rows.len());
        for (shard, ctl) in rows {
            decisions += ctl.decisions.len() as u64;
            transitions += ctl.transitions();
            twin_jobs += ctl.twin_jobs;
            twins_pruned += ctl.twins_pruned;
            shards.push(shard);
        }
        let fleet = FleetReport::from_shards(self.fleet.config().placement(), shards);
        Ok(GovernedFleetReport { fleet, decisions, transitions, twin_jobs, twins_pruned })
    }
}

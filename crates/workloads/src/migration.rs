//! VM live migration with DSA offload — one of the paper's §5 "datacenter
//! tax" reductions ("offloading routines in memory compaction, VM/container
//! boot-up and migration").
//!
//! Iterative pre-copy: round 0 ships every guest block; while the guest
//! keeps dirtying memory, later rounds ship only what changed — either a
//! full block copy or, when few words changed, a **delta record**
//! (Create Delta Record at the source, Apply Delta Record at the
//! destination — the two Table-1 operations built for exactly this).
//! When the dirty set is small enough the VM pauses and the final round's
//! duration is the migration *downtime*.

use dsa_core::backend::Engine;
use dsa_core::job::{Batch, Job};
use dsa_core::runtime::DsaRuntime;
use dsa_core::DsaError;
use dsa_mem::buffer::Location;
use dsa_mem::memory::BufferHandle;
use dsa_sim::rng::SplitMix64;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_telemetry::Track;

/// Migration parameters.
#[derive(Clone, Copy, Debug)]
pub struct MigrationConfig {
    /// Guest memory blocks (granularity of dirty tracking).
    pub blocks: usize,
    /// Bytes per block (<= 512 KiB so delta records stay in range).
    pub block_size: u64,
    /// Blocks the guest dirties between rounds.
    pub dirtied_per_round: usize,
    /// Within a dirty block, fraction of 8-byte words rewritten (small
    /// fractions favour delta records over full copies).
    pub dirty_density: f64,
    /// Stop-and-copy once the dirty set is at most this many blocks.
    pub downtime_threshold: usize,
    /// Safety bound on pre-copy rounds.
    pub max_rounds: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MigrationConfig {
    fn default() -> MigrationConfig {
        MigrationConfig {
            blocks: 64,
            block_size: 64 << 10,
            dirtied_per_round: 12,
            dirty_density: 0.05,
            downtime_threshold: 4,
            max_rounds: 10,
            seed: 0x516_AA7E,
        }
    }
}

/// Outcome of one migration.
#[derive(Clone, Copy, Debug)]
pub struct MigrationReport {
    /// Pre-copy rounds executed (excluding the stop-and-copy round).
    pub rounds: u32,
    /// Total bytes moved as full block copies.
    pub copied_bytes: u64,
    /// Total bytes moved as delta records.
    pub delta_bytes: u64,
    /// Blocks shipped as deltas instead of copies.
    pub delta_blocks: u64,
    /// Wall time of the stop-and-copy round (guest paused).
    pub downtime: SimDuration,
    /// End-to-end migration time.
    pub total_time: SimDuration,
}

/// A migrating guest: source memory, destination memory, dirty tracking.
pub struct Migration {
    cfg: MigrationConfig,
    src_blocks: Vec<BufferHandle>,
    dst_blocks: Vec<BufferHandle>,
    scratch_records: Vec<BufferHandle>,
    dirty: Vec<bool>,
    rng: SplitMix64,
}

impl Migration {
    /// Allocates guest and destination memory and seeds the guest with
    /// reproducible content.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a positive multiple of 8 or exceeds
    /// the delta-record range (512 KiB).
    pub fn new(rt: &mut DsaRuntime, cfg: MigrationConfig) -> Migration {
        assert!(
            cfg.block_size > 0 && cfg.block_size.is_multiple_of(8),
            "blocks must be 8-byte multiples"
        );
        assert!(cfg.block_size <= 512 << 10, "delta records address at most 512 KiB");
        let mut rng = SplitMix64::new(cfg.seed);
        let src_blocks: Vec<BufferHandle> = (0..cfg.blocks)
            .map(|_| {
                let b = rt.alloc(cfg.block_size, Location::local_dram());
                rt.fill_random(&b);
                b
            })
            .collect();
        let dst_blocks =
            (0..cfg.blocks).map(|_| rt.alloc(cfg.block_size, Location::remote_dram())).collect();
        // Room for a worst-case record per block: 10 bytes per 8-byte unit.
        let scratch_records = (0..cfg.blocks)
            .map(|_| rt.alloc(cfg.block_size / 8 * 10 + 16, Location::local_dram()))
            .collect();
        let dirty = vec![true; cfg.blocks]; // everything "dirty" initially
        let _ = rng.next_u64();
        Migration { cfg, src_blocks, dst_blocks, scratch_records, dirty, rng }
    }

    /// The guest mutates memory between rounds.
    fn guest_dirties(&mut self, rt: &mut DsaRuntime) {
        for _ in 0..self.cfg.dirtied_per_round {
            let b = self.rng.next_below(self.cfg.blocks as u64) as usize;
            self.dirty[b] = true;
            let words = (self.cfg.block_size / 8) as f64 * self.cfg.dirty_density;
            for _ in 0..words.max(1.0) as u64 {
                let off = self.rng.next_below(self.cfg.block_size / 8) * 8;
                let v = self.rng.next_u64().to_le_bytes();
                #[expect(
                    clippy::expect_used,
                    reason = "guest blocks were allocated by this workload's setup"
                )]
                rt.memory_mut()
                    .write(self.src_blocks[b].addr() + off, &v)
                    .expect("guest memory is mapped");
            }
        }
    }

    /// Ships every dirty block; returns (copied, delta) byte counts.
    fn ship_dirty(
        &mut self,
        rt: &mut DsaRuntime,
        engine: Engine,
    ) -> Result<(u64, u64, u64), DsaError> {
        let dirty: Vec<usize> = (0..self.cfg.blocks).filter(|&b| self.dirty[b]).collect();
        let mut copied = 0u64;
        let mut delta = 0u64;
        let mut delta_blocks = 0u64;
        match engine {
            Engine::Cpu => {
                for &b in &dirty {
                    // A core diffs and copies: charge a compare + a copy of
                    // the block (conservative software pre-copy).
                    let (src, dst) = (&self.src_blocks[b], &self.dst_blocks[b]);
                    for job in [Job::compare(src, dst), Job::memcpy(src, dst)] {
                        let (record, _) = rt.cpu_op(&job);
                        assert!(
                            record.status.is_ok(),
                            "guest memory is mapped: {:?}",
                            record.status
                        );
                    }
                    copied += self.cfg.block_size;
                }
            }
            Engine::Dsa { device, wq } => {
                for &b in &dirty {
                    // Create a delta against the destination's last copy.
                    let rec = self.scratch_records[b];
                    let report = Job::delta_create(&self.dst_blocks[b], &self.src_blocks[b], &rec)
                        .on_device(device)
                        .on_wq(wq)
                        .execute(rt)?;
                    match report.record.status {
                        dsa_device::descriptor::Status::Success => {
                            let rec_len = report.record.result as u32;
                            if (rec_len as u64) < self.cfg.block_size / 2 {
                                // Ship the record, apply remotely.
                                Job::delta_apply(&rec, rec_len, &self.dst_blocks[b])
                                    .on_device(device)
                                    .on_wq(wq)
                                    .execute(rt)?;
                                delta += rec_len as u64;
                                delta_blocks += 1;
                            } else {
                                Job::memcpy(&self.src_blocks[b], &self.dst_blocks[b])
                                    .on_device(device)
                                    .on_wq(wq)
                                    .execute(rt)?;
                                copied += self.cfg.block_size;
                            }
                        }
                        _ => {
                            Job::memcpy(&self.src_blocks[b], &self.dst_blocks[b])
                                .on_device(device)
                                .on_wq(wq)
                                .execute(rt)?;
                            copied += self.cfg.block_size;
                        }
                    }
                }
            }
        }
        for b in dirty {
            self.dirty[b] = false;
        }
        Ok((copied, delta, delta_blocks))
    }

    /// Runs the full iterative pre-copy + stop-and-copy migration.
    ///
    /// # Errors
    ///
    /// Propagates DSA submission failures.
    pub fn run(mut self, rt: &mut DsaRuntime, engine: Engine) -> Result<MigrationReport, DsaError> {
        let start = rt.now();
        let mut copied = 0u64;
        let mut delta = 0u64;
        let mut delta_blocks = 0u64;
        let mut rounds = 0u32;

        // Round 0: bulk copy of everything — batched when offloaded.
        let round0_start = rt.now();
        if let Engine::Dsa { device, wq } = engine {
            let mut batch = Batch::new().on_device(device).on_wq(wq);
            for (s, d) in self.src_blocks.iter().zip(&self.dst_blocks) {
                batch.push(Job::memcpy(s, d));
            }
            batch.execute(rt)?;
            copied += self.cfg.blocks as u64 * self.cfg.block_size;
            self.dirty.iter_mut().for_each(|d| *d = false);
        } else {
            let (c, d, db) = self.ship_dirty(rt, engine)?;
            copied += c;
            delta += d;
            delta_blocks += db;
        }
        if let Some(hub) = rt.hub().cloned() {
            hub.span(Track::Workload("migration"), "round 0 (bulk)", round0_start, rt.now());
        }

        // Iterative pre-copy while the guest runs: the guest keeps
        // dirtying; we ship until the residual dirty set is small (or we
        // give up and eat a bigger stop-and-copy).
        loop {
            self.guest_dirties(rt);
            let dirty_now = self.dirty.iter().filter(|&&d| d).count();
            if dirty_now <= self.cfg.downtime_threshold || rounds >= self.cfg.max_rounds {
                break;
            }
            let round_start = rt.now();
            let (c, d, db) = self.ship_dirty(rt, engine)?;
            copied += c;
            delta += d;
            delta_blocks += db;
            rounds += 1;
            if let Some(hub) = rt.hub().cloned() {
                hub.span(Track::Workload("migration"), "pre-copy round", round_start, rt.now());
            }
        }

        // Stop-and-copy: the guest is paused; this round is the downtime.
        let pause: SimTime = rt.now();
        let (c, d, db) = self.ship_dirty(rt, engine)?;
        copied += c;
        delta += d;
        delta_blocks += db;
        let downtime = rt.now().duration_since(pause);
        if let Some(hub) = rt.hub().cloned() {
            hub.span(Track::Workload("migration"), "stop-and-copy", pause, rt.now());
        }

        // Verify: destination is byte-identical to the (now quiescent) guest.
        for (s, dst) in self.src_blocks.iter().zip(&self.dst_blocks) {
            #[expect(clippy::unwrap_used, reason = "self-check over workload-allocated blocks")]
            let src_bytes = rt.memory().read(s.addr(), self.cfg.block_size).unwrap();
            #[expect(clippy::unwrap_used, reason = "self-check over workload-allocated blocks")]
            let dst_bytes = rt.memory().read(dst.addr(), self.cfg.block_size).unwrap();
            assert_eq!(src_bytes, dst_bytes, "migrated memory must be identical");
        }

        Ok(MigrationReport {
            rounds,
            copied_bytes: copied,
            delta_bytes: delta,
            delta_blocks,
            downtime,
            total_time: rt.now().duration_since(start),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_device::config::DeviceConfig;
    use dsa_mem::topology::Platform;

    fn rt() -> DsaRuntime {
        DsaRuntime::builder(Platform::spr()).device(DeviceConfig::full_device()).build()
    }

    fn small_cfg() -> MigrationConfig {
        MigrationConfig {
            blocks: 16,
            block_size: 16 << 10,
            dirtied_per_round: 4,
            ..MigrationConfig::default()
        }
    }

    #[test]
    fn migration_verifies_byte_exact_dsa() {
        let mut r = rt();
        let m = Migration::new(&mut r, small_cfg());
        let report = m.run(&mut r, Engine::dsa()).unwrap();
        assert!(report.copied_bytes > 0);
        assert!(report.total_time > SimDuration::ZERO);
    }

    #[test]
    fn migration_verifies_byte_exact_cpu() {
        let mut r = rt();
        let m = Migration::new(&mut r, small_cfg());
        let report = m.run(&mut r, Engine::Cpu).unwrap();
        assert!(report.copied_bytes > 0);
        assert_eq!(report.delta_bytes, 0, "CPU path ships full blocks");
    }

    #[test]
    fn sparse_dirtying_uses_delta_records() {
        let mut r = rt();
        let cfg = MigrationConfig {
            dirty_density: 0.01, // 1% of words -> records are tiny
            ..small_cfg()
        };
        let m = Migration::new(&mut r, cfg);
        let report = m.run(&mut r, Engine::dsa()).unwrap();
        assert!(report.delta_blocks > 0, "sparse dirt must ship as deltas");
        assert!(
            report.delta_bytes < report.copied_bytes,
            "deltas {} should be small next to copies {}",
            report.delta_bytes,
            report.copied_bytes
        );
    }

    #[test]
    fn dense_dirtying_falls_back_to_copies() {
        let mut r = rt();
        let cfg = MigrationConfig { dirty_density: 0.9, ..small_cfg() };
        let m = Migration::new(&mut r, cfg);
        let report = m.run(&mut r, Engine::dsa()).unwrap();
        assert_eq!(report.delta_blocks, 0, "dense dirt makes records larger than copies");
    }

    #[test]
    fn dsa_migrates_faster_than_cpu() {
        let cfg =
            MigrationConfig { blocks: 32, block_size: 64 << 10, ..MigrationConfig::default() };
        let mut r1 = rt();
        let cpu = Migration::new(&mut r1, cfg).run(&mut r1, Engine::Cpu).unwrap();
        let mut r2 = rt();
        let dsa = Migration::new(&mut r2, cfg).run(&mut r2, Engine::dsa()).unwrap();
        assert!(
            dsa.total_time < cpu.total_time,
            "DSA {:?} vs CPU {:?}",
            dsa.total_time,
            cpu.total_time
        );
        assert!(dsa.downtime < cpu.downtime, "downtime should shrink with offload");
    }

    #[test]
    #[should_panic(expected = "8-byte multiples")]
    fn odd_block_size_rejected() {
        let mut r = rt();
        let cfg = MigrationConfig { block_size: 1001, ..MigrationConfig::default() };
        let _ = Migration::new(&mut r, cfg);
    }
}

//! fleet_scale — rack-scale sharded simulation throughput and QoS sweep.
//!
//! The `Fleet` layer shards the tenant space across 2 sockets × 4 DSA
//! devices (32 shards, one isolated `DsaService` each) and runs the
//! shards on worker threads. This bench sweeps tenant count × placement
//! policy and reports, per cell:
//!
//! * simulated jobs completed per wall-clock second (the perf lane the
//!   perfgate tracks),
//! * the fleet-wide Jain fairness index over accelerator-served shares,
//! * the p999 arrival-to-completion latency,
//! * the deadline-miss rate (completions past deadline + admission sheds
//!   over offered jobs),
//! * ATC misses summed over every shard device — a deterministic work
//!   counter the perfgate holds exactly, like the digest.
//!
//! The QoS story: devices do NOT scale with tenants, so the miss-rate and
//! p999 curves rise with scale, and placement moves them — NUMA-local
//! keeps every shard on its home socket, round-robin pays UPI crossings
//! (paper Fig. 8 / guideline G4), least-loaded spreads by population.
//!
//! Determinism checked on every run: the smallest cell is executed
//! twice in parallel and once sequentially and must fold bit-identical
//! fleet digests (per-shard FNV-1a digests merged in shard order).
//!
//! Writes `BENCH_fleet_scale.json` at the repo root; lanes are
//! `fleet_scale/<placement>-<tenants>` in the perfgate's format. Set
//! `FLEET_SCALE_SMOKE=1` for a CI-sized sweep.

use dsa_bench::table;
use dsa_svc::fleet::placement_label;
use dsa_svc::prelude::*;

const SOCKETS: u32 = 2;
const DEVICES_PER_SOCKET: u32 = 4;
/// Shards = 4× the execution slots, so every policy has placement
/// decisions to make (co-residency, crossings) instead of a 1:1 map.
const SHARDS: u32 = 4 * SOCKETS * DEVICES_PER_SOCKET;
/// Worker threads for the parallel runs: fixed (not host-dependent) so
/// the tracked events/sec lane measures the same configuration
/// everywhere.
const THREADS: usize = 8;

const POLICIES: [PoolPolicy; 3] =
    [PoolPolicy::NumaLocal, PoolPolicy::LeastLoaded, PoolPolicy::RoundRobin];

/// Wall-clock seconds elapsed while running `f` — the one deliberately
/// nondeterministic probe; everything it times is bit-reproducible.
#[expect(clippy::disallowed_types, reason = "self-benchmark measures real wall time")]
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The sweep's per-tenant workload: small 2 KiB closed-loop transfers
/// with a fleet-wide deadline, every 4th tenant latency-class. Small on
/// purpose — the variable under test is scale, not transfer size.
fn profile() -> TenantProfile {
    let mut p = TenantProfile::small();
    p.deadline = Some(SimDuration::from_us(100));
    p.latency_every = 4;
    p
}

fn fleet(tenants: u64, placement: PoolPolicy) -> Fleet {
    let cfg = FleetConfig::builder()
        .sockets(SOCKETS)
        .devices_per_socket(DEVICES_PER_SOCKET)
        .shards(SHARDS)
        .tenants(tenants)
        .placement(placement)
        .seed(0x00F1_EE75_CA1E)
        .profile(profile())
        .build()
        .expect("the sweep shape is valid");
    Fleet::new(cfg)
}

struct Cell {
    tenants: u64,
    placement: PoolPolicy,
    completed: u64,
    digest: u64,
    fairness: f64,
    p999_us: f64,
    miss_rate: f64,
    upi_crossers: u32,
    atc_misses: u64,
    wall_s: f64,
}

impl Cell {
    fn lane(&self) -> String {
        format!("{}-{}", placement_label(self.placement), self.tenants)
    }

    fn jobs_per_sec(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(1e-9)
    }

    fn json_row(&self) -> String {
        format!(
            "    {{\"workload\": \"fleet_scale\", \"scheduler\": \"{}\", \"events\": {}, \
             \"wall_s\": {:.6}, \"events_per_sec\": {:.0}, \"digest\": \"{:#018x}\", \
             \"jain\": {:.6}, \"p999_us\": {:.3}, \"miss_rate\": {:.6}, \"atc_misses\": {}}}",
            self.lane(),
            self.completed,
            self.wall_s,
            self.jobs_per_sec(),
            self.digest,
            self.fairness,
            self.p999_us,
            self.miss_rate,
            self.atc_misses
        )
    }
}

fn run_cell(tenants: u64, placement: PoolPolicy) -> Cell {
    let f = fleet(tenants, placement);
    let upi_crossers = f.plan().upi_crossers();
    let (rep, wall_s) = timed(|| f.run_parallel(THREADS).expect("fleet run"));
    Cell {
        tenants,
        placement,
        completed: rep.completed(),
        digest: rep.digest,
        fairness: rep.fairness,
        p999_us: rep.p999().map(|d| d.as_ps() as f64 / 1e6).unwrap_or(0.0),
        miss_rate: rep.deadline_miss_rate(),
        upi_crossers,
        atc_misses: rep.atc_misses(),
        wall_s,
    }
}

fn main() {
    let smoke = std::env::var("FLEET_SCALE_SMOKE").is_ok_and(|v| v == "1");
    let scales: &[u64] = if smoke { &[500, 2_000] } else { &[1_000, 10_000, 100_000] };

    table::banner(
        "fleet_scale",
        "sharded multi-socket fleet: tenant scale × placement (32 shards on 2×4 devices)",
    );
    table::header(&[
        "tenants",
        "placement",
        "upi-x",
        "jobs done",
        "wall ms",
        "kjobs/s",
        "Jain",
        "p999 us",
        "miss rate",
        "atc misses",
    ]);

    // Determinism proof on the smallest cell: two parallel runs and the
    // sequential replay must fold the same merged digest.
    {
        let f = fleet(scales[0], PoolPolicy::NumaLocal);
        let a = f.run_parallel(THREADS).expect("parallel run");
        let b = f.run_parallel(2).expect("second parallel run");
        let s = f.run_sequential().expect("sequential replay");
        assert_eq!(a.digest, b.digest, "8-thread and 2-thread runs diverged");
        assert_eq!(a.digest, s.digest, "parallel run diverged from the sequential replay");
    }

    let mut cells = Vec::new();
    for &tenants in scales {
        for placement in POLICIES {
            let c = run_cell(tenants, placement);
            table::row(&[
                c.tenants.to_string(),
                placement_label(c.placement).to_string(),
                c.upi_crossers.to_string(),
                c.completed.to_string(),
                table::f2(c.wall_s * 1e3),
                table::f2(c.jobs_per_sec() / 1e3),
                table::f2(c.fairness),
                table::f2(c.p999_us),
                table::f2(c.miss_rate),
                c.atc_misses.to_string(),
            ]);
            cells.push(c);
        }
    }

    // The curves must carry signal: every cell completed work, fairness
    // is a valid Jain index, and round-robin actually paid UPI crossings
    // while NUMA-local never did.
    for c in &cells {
        assert!(c.completed > 0, "{}: no jobs completed", c.lane());
        assert!(c.fairness > 0.0 && c.fairness <= 1.0 + 1e-9, "{}: bad Jain", c.lane());
        match c.placement {
            PoolPolicy::NumaLocal => assert_eq!(c.upi_crossers, 0, "NUMA-local crossed the UPI"),
            PoolPolicy::RoundRobin => {
                assert!(c.upi_crossers > 0, "round-robin at 4× slots must cross sockets")
            }
            PoolPolicy::LeastLoaded => {}
        }
    }

    let body = format!(
        "{{\n  \"bench\": \"fleet_scale\",\n  \"schema_version\": 1,\n  \"smoke\": {},\n  \
         \"shards\": {},\n  \"threads\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        smoke,
        SHARDS,
        THREADS,
        cells.iter().map(Cell::json_row).collect::<Vec<_>>().join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet_scale.json");
    std::fs::write(path, body).expect("write BENCH_fleet_scale.json at the repo root");
    println!("wrote {path}");
}

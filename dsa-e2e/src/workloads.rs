//! The four workloads: what one rep builds and runs, and the checks every
//! rep must pass before its numbers count.

use crate::stats::{median, tail_ok, timed};
use dsa_bench::measure::{Measure, MeasureResult, Mode, SIZES};
use dsa_core::digest::Fnv1a;
use dsa_core::runtime::DsaRuntime;
use dsa_ctl::prelude::*;
use dsa_ops::OpKind;
use dsa_sim::stats::DurationHistogram;
use dsa_svc::prelude::*;

/// Every fallible step reports a message; any error fails the run.
pub type Res<T> = Result<T, String>;

/// Seed of the legacy `ctl_churn` bench; default for `svc_churn`, and the
/// seed `ctl_governed` always times (see [`Workload::CtlGoverned`]).
pub const CHURN_SEED: u64 = 0xC10C_0DE5;
/// Seed of the legacy `fleet_scale` bench; default for `fleet_100k`.
pub const FLEET_SEED: u64 = 0x00F1_EE75_CA1E;
/// Worker threads of `fleet_100k`: the only multi-threaded workload.
pub const THREADS: usize = 2;

/// `svc_churn` is the `ctl_churn` roster at 30x its jobs (36,180 jobs).
pub const SVC_SCALE: u64 = 30;
/// `ctl_governed` is the `ctl_churn` governed lane at its own scale.
pub const CTL_SCALE: u64 = 4;
/// The latency class's deadline and the governed lane's p99 target.
const LAT_DEADLINE: SimDuration = SimDuration::from_us(60);
/// Tenants in `fleet_100k`.
const FLEET_TENANTS: u64 = 100_000;

/// One benchmark workload. See the crate docs for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One long-lived `DsaService` under the churn roster.
    SvcChurn,
    /// The governed churn lane. Its timed reps always run [`CHURN_SEED`]:
    /// the governor's plan choices flip on small input changes, so other
    /// seeds move host time by up to 3x and no spread bound could hold.
    /// `--seed` drives the checks of [`ctl_seed_check`].
    CtlGoverned,
    /// A 100k-tenant sharded fleet on two threads.
    Fleet100k,
    /// The Fig. 2 operation-by-size grid on fresh runtimes.
    Fig02Grid,
}

impl Workload {
    /// All workloads, in the order the all-workloads mode runs them.
    pub const ALL: [Workload; 4] =
        [Workload::SvcChurn, Workload::CtlGoverned, Workload::Fleet100k, Workload::Fig02Grid];

    /// The name used on the command line and in every output line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcChurn => "svc_churn",
            Workload::CtlGoverned => "ctl_governed",
            Workload::Fleet100k => "fleet_100k",
            Workload::Fig02Grid => "fig02_grid",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The reference seed, used when `--seed` is absent: the legacy bench
    /// seeds. The simulated metrics are always taken at this seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::SvcChurn | Workload::CtlGoverned => CHURN_SEED,
            Workload::Fleet100k => FLEET_SEED,
            Workload::Fig02Grid => 0,
        }
    }

    /// The seed the timed reps run when the caller asks for `seed`.
    pub fn timed_seed(self, seed: u64) -> u64 {
        match self {
            Workload::CtlGoverned => CHURN_SEED,
            _ => seed,
        }
    }

    /// Builds and runs one rep at `seed`, timing the two phases separately.
    pub fn rep(self, seed: u64) -> Res<Rep> {
        match self {
            Workload::SvcChurn => svc_rep(seed),
            Workload::CtlGoverned => ctl_rep(seed),
            Workload::Fleet100k => fleet_rep(seed),
            Workload::Fig02Grid => fig02_rep(),
        }
    }
}

/// One timed rep: host seconds spent building and running, and what the
/// run produced.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub outcome: Outcome,
}

/// Job accounting summed over services (or a fleet's shards).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub offered: u64,
    pub dsa: u64,
    pub cpu: u64,
    pub shed: u64,
    pub failed: u64,
    /// Completed past their deadline.
    pub late: u64,
    /// Rejected portal attempts; a fleet report does not carry them.
    pub retries: u64,
    pub dsa_bytes: u64,
    /// Latest completion on any timeline, in simulated picoseconds.
    pub makespan_ps: u64,
    /// Arrival-to-completion latency of every completed job.
    pub latency: DurationHistogram,
}

impl Tally {
    /// Jobs completed on either path.
    pub fn served(&self) -> u64 {
        self.dsa + self.cpu
    }

    /// Adds every tenant of a finished service.
    pub fn add_service(&mut self, svc: &DsaService) {
        for i in 0..svc.tenant_count() {
            let st = svc.stats(i);
            self.offered += st.offered;
            self.dsa += st.dsa_completed;
            self.cpu += st.cpu_completed;
            self.shed += st.shed;
            self.failed += st.failed;
            self.late += st.deadline_misses;
            self.retries += st.retries;
            self.dsa_bytes += st.dsa_bytes;
            self.makespan_ps = self.makespan_ps.max(st.last_completion.as_ps());
            self.latency.merge(&st.latency);
        }
    }

    fn from_fleet(rep: &FleetReport) -> Tally {
        let mut t = Tally {
            makespan_ps: rep.makespan.as_ps(),
            latency: rep.latency.clone(),
            ..Tally::default()
        };
        for s in &rep.shards {
            t.offered += s.offered;
            t.dsa += s.dsa_completed;
            t.cpu += s.cpu_completed;
            t.shed += s.shed;
            t.failed += s.failed;
            t.late += s.deadline_misses;
            t.dsa_bytes += s.dsa_bytes;
        }
        t
    }
}

/// Fails unless `offered == dsa + cpu + shed + failed` for `who`.
fn conserved(who: &str, offered: u64, dsa: u64, cpu: u64, shed: u64, failed: u64) -> Res<()> {
    if offered == dsa + cpu + shed + failed {
        Ok(())
    } else {
        Err(format!(
            "{who}: offered {offered} != dsa {dsa} + cpu {cpu} + shed {shed} + failed {failed}"
        ))
    }
}

/// Every tenant of a service report accounts for each offered job.
pub fn check_conservation(rep: &ServiceReport) -> Res<()> {
    for t in &rep.tenants {
        conserved(
            &format!("tenant {}", t.name),
            t.offered,
            t.dsa_completed,
            t.cpu_completed,
            t.shed,
            t.failed,
        )?;
    }
    Ok(())
}

fn check_fleet_conservation(rep: &FleetReport) -> Res<()> {
    for s in &rep.shards {
        conserved(
            &format!("shard {}", s.shard),
            s.offered,
            s.dsa_completed,
            s.cpu_completed,
            s.shed,
            s.failed,
        )?;
    }
    Ok(())
}

/// What a rep produced, reduced to what the metrics and checks need.
pub struct Outcome {
    /// Replay digest; identical across the reps of one run.
    pub digest: u64,
    pub tally: Tally,
    /// Simulated latency percentiles, microseconds.
    pub p50_us: f64,
    pub p99_us: f64,
    /// None when fewer than ten samples lie beyond p99.9.
    pub p999_us: Option<f64>,
    /// Simulated GB/s (see the crate docs for each workload's definition).
    pub sim_gbps: f64,
    pub jain: f64,
    /// Governor counts; zero off `ctl_governed`.
    pub decisions: u64,
    pub transitions: u64,
    pub epochs: u64,
    /// Fig. 2 break-even error; zero off `fig02_grid`.
    pub breakeven_err_log2: f64,
}

impl Outcome {
    /// Outcome of the service paths: percentiles come from the merged
    /// latency histogram and need ten samples beyond them.
    fn service(digest: u64, tally: Tally, jain: f64) -> Res<Outcome> {
        let n = tally.latency.count();
        if !tail_ok(n, 990) {
            return Err(format!("{n} latency samples are too few for a p99"));
        }
        let pct = |p| tally.latency.percentile(p).map_or(0.0, |d| d.as_us_f64());
        let makespan_ns = tally.makespan_ps as f64 / 1e3;
        Ok(Outcome {
            digest,
            p50_us: pct(50.0),
            p99_us: pct(99.0),
            p999_us: tail_ok(n, 999).then(|| pct(99.9)),
            sim_gbps: if makespan_ns > 0.0 { tally.dsa_bytes as f64 / makespan_ns } else { 0.0 },
            tally,
            jain,
            decisions: 0,
            transitions: 0,
            epochs: 0,
            breakeven_err_log2: 0.0,
        })
    }

    /// Fraction of offered jobs completed within their deadline. Shed and
    /// failed jobs count as late.
    pub fn ontime_frac(&self) -> f64 {
        let t = &self.tally;
        (t.served() - t.late) as f64 / t.offered.max(1) as f64
    }
}

fn churn_roster(scale: u64) -> Vec<TenantSpec> {
    let mut specs = Vec::new();
    for i in 0..4 {
        specs.push(
            TenantSpec::new(&format!("lat{i}"), 4 << 10, 240 * scale)
                .with_class(QosClass::Latency)
                .with_deadline(LAT_DEADLINE)
                .with_arrival(Arrival::open(SimDuration::from_ns(3_500))),
        );
    }
    for i in 0..2 {
        specs.push(
            TenantSpec::new(&format!("bulk{i}"), 64 << 10, 120 * scale)
                .with_arrival(Arrival::open(SimDuration::from_us(12))),
        );
    }
    for i in 0..2 {
        specs.push(
            TenantSpec::new(&format!("agg{i}"), 512 << 10, 3 * scale)
                .with_start(SimDuration::from_us(225 * scale))
                .with_outstanding(8)
                .with_arrival(Arrival::closed(SimDuration::ZERO)),
        );
    }
    specs
}

/// A churn-roster service, built and primed but not run. With `governed`
/// it carries the governed lane's SLO.
pub fn churn_service(scale: u64, seed: u64, governed: bool) -> Res<DsaService> {
    let mut b =
        ServiceConfig::builder().plan(PlanSpec::Shared).seed(seed).tenants(churn_roster(scale));
    if governed {
        b = b.slo(SloTarget::new().with_p99(LAT_DEADLINE).with_deadline_miss_frac(0.02));
    }
    let cfg = b.build().map_err(|e| e.to_string())?;
    DsaService::from_config(cfg).map_err(|e| e.to_string())
}

/// The governed lane's controller: a 10 us epoch, as in `ctl_churn`.
pub fn governor() -> Governor {
    Governor::new(ControllerConfig {
        epoch: SimDuration::from_us(10),
        ..ControllerConfig::default()
    })
}

fn svc_rep(seed: u64) -> Res<Rep> {
    let (svc, setup_s) = timed(|| churn_service(SVC_SCALE, seed, false));
    let mut svc = svc?;
    let (rep, run_s) = timed(|| svc.run());
    check_conservation(&rep)?;
    let mut tally = Tally::default();
    tally.add_service(&svc);
    Ok(Rep { setup_s, run_s, outcome: Outcome::service(rep.digest(), tally, rep.fairness)? })
}

/// One governed run of the churn lane at `seed`: the service (for its
/// stats and hub) and the governor's report.
fn governed(seed: u64) -> Res<(DsaService, ControlReport, f64, f64)> {
    let (svc, setup_s) = timed(|| churn_service(CTL_SCALE, seed, true));
    let mut svc = svc?;
    let (ctl, run_s) = timed(|| governor().govern(&mut svc));
    check_conservation(&ctl.report)?;
    Ok((svc, ctl, setup_s, run_s))
}

fn ctl_rep(seed: u64) -> Res<Rep> {
    let (svc, ctl, setup_s, run_s) = governed(seed)?;
    let mut tally = Tally::default();
    tally.add_service(&svc);
    let mut outcome = Outcome::service(ctl.digest(), tally, ctl.report.fairness)?;
    outcome.decisions = ctl.decisions.len() as u64;
    outcome.transitions = ctl.transitions();
    outcome.epochs = u64::from(ctl.epochs);
    Ok(Rep { setup_s, run_s, outcome })
}

/// The governor must re-plan at least once at the caller's seed. At
/// [`CHURN_SEED`] the reference rep (`at_churn_seed`) shows it; any other
/// seed gets one checked, untimed governed replay, which must also conserve
/// jobs. Returns a one-line summary.
pub fn ctl_seed_check(seed: u64, at_churn_seed: &Outcome) -> Res<String> {
    let (decisions, transitions, digest) = if seed == CHURN_SEED {
        (at_churn_seed.decisions, at_churn_seed.transitions, at_churn_seed.digest)
    } else {
        let (_, ctl, _, _) = governed(seed)?;
        (ctl.decisions.len() as u64, ctl.transitions(), ctl.digest())
    };
    if transitions == 0 {
        return Err(format!("governed run at seed {seed:#x} never changed plan"));
    }
    Ok(format!(
        "governed run at seed {seed:#x}: {decisions} decisions, {transitions} transitions, digest {digest:#018x}"
    ))
}

/// The `fleet_scale` shape: 2 sockets x 4 devices, 32 shards, NUMA-local
/// placement, small closed-loop tenants with a 100 us deadline.
pub fn fleet(seed: u64) -> Res<Fleet> {
    let mut profile = TenantProfile::small();
    profile.deadline = Some(SimDuration::from_us(100));
    profile.latency_every = 4;
    let cfg = FleetConfig::builder()
        .sockets(2)
        .devices_per_socket(4)
        .shards(32)
        .tenants(FLEET_TENANTS)
        .placement(PoolPolicy::NumaLocal)
        .seed(seed)
        .profile(profile)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Fleet::new(cfg))
}

fn fleet_rep(seed: u64) -> Res<Rep> {
    let (f, setup_s) = timed(|| fleet(seed));
    let f = f?;
    let (rep, run_s) = timed(|| f.run_parallel(THREADS));
    let rep = rep.map_err(|e| e.to_string())?;
    check_fleet_conservation(&rep)?;
    let outcome = Outcome::service(rep.digest, Tally::from_fleet(&rep), rep.fairness)?;
    Ok(Rep { setup_s, run_s, outcome })
}

/// One point of the Fig. 2 grid.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub op: OpKind,
    pub size: u64,
    pub mode: Mode,
}

impl Point {
    /// Descriptors the point submits: the figure's own iteration counts.
    pub fn iters(self) -> u64 {
        if self.size >= 1 << 20 {
            10
        } else {
            40
        }
    }

    pub fn measure(self) -> Measure {
        Measure::new(self.op, self.size).iters(self.iters()).mode(self.mode)
    }
}

/// The 128 points of Fig. 2: both panels, every operation, every size.
pub fn fig02_points() -> Vec<Point> {
    let mut out = Vec::new();
    for mode in [Mode::Sync, Mode::Async { qd: 32 }] {
        for &size in SIZES {
            for op in OpKind::figure2_set() {
                out.push(Point { op, size, mode });
            }
        }
    }
    out
}

/// A measured point: its result and the matching software rate.
pub struct PointResult {
    pub point: Point,
    pub result: MeasureResult,
    pub cpu_gbps: f64,
}

/// Runs `p` on `rt`, timing the measurement; fails unless the point
/// reports a finite, positive rate.
pub fn run_point(p: Point, rt: &mut DsaRuntime) -> Res<(PointResult, f64)> {
    let m = p.measure();
    let (r, run_s) = timed(|| m.try_run(rt));
    let result = r.map_err(|e| format!("{p:?}: {e}"))?;
    if !(result.gbps.is_finite() && result.gbps > 0.0) {
        return Err(format!("{p:?}: rate {} GB/s is not finite and positive", result.gbps));
    }
    Ok((PointResult { point: p, result, cpu_gbps: m.cpu_gbps(rt) }, run_s))
}

/// Digest of a point's simulated results.
pub fn fold_point(h: &mut Fnv1a, r: &MeasureResult) {
    h.write_u64(r.gbps.to_bits());
    h.write_u64(r.avg_latency.as_ps());
    h.write_u64(r.p50_latency.as_ps());
    h.write_u64(r.p99_latency.as_ps());
}

fn fig02_rep() -> Res<Rep> {
    let (mut setup_s, mut run_s) = (0.0, 0.0);
    let mut points = Vec::new();
    for p in fig02_points() {
        let (mut rt, b) = timed(DsaRuntime::spr_default);
        let (r, t) = run_point(p, &mut rt)?;
        setup_s += b;
        run_s += t;
        points.push(r);
    }
    Ok(Rep { setup_s, run_s, outcome: fig02_outcome(&points) })
}

/// The grid's outcome: one digest over every point, descriptors as jobs,
/// the geometric-mean rate, and latency as the median over the sync
/// points of each point's own p50 and p99 (a point runs 40 ops, 10 at
/// 1 MiB and up, so its p99 is near its maximum).
pub fn fig02_outcome(points: &[PointResult]) -> Outcome {
    let mut h = Fnv1a::new();
    let mut tally = Tally::default();
    let (mut log_sum, mut p50s, mut p99s) = (0.0, Vec::new(), Vec::new());
    for r in points {
        fold_point(&mut h, &r.result);
        tally.offered += r.point.iters();
        tally.dsa += r.point.iters();
        log_sum += r.result.gbps.ln();
        if r.point.mode == Mode::Sync {
            p50s.push(r.result.p50_latency.as_us_f64());
            p99s.push(r.result.p99_latency.as_us_f64());
        }
    }
    Outcome {
        digest: h.finish(),
        tally,
        p50_us: median(&p50s),
        p99_us: median(&p99s),
        p999_us: None,
        sim_gbps: (log_sum / points.len() as f64).exp(),
        jain: 1.0,
        decisions: 0,
        transitions: 0,
        epochs: 0,
        breakeven_err_log2: breakeven_err_log2(points),
    }
}

/// Distance, in powers of two, of the model's memcpy break-even sizes from
/// the paper's Fig. 2 anchors (4 KiB synchronous, 256 B asynchronous).
/// The break-even is the smallest swept size where DSA matches the
/// software rate; a mode that never breaks even counts as twice the
/// largest size.
fn breakeven_err_log2(points: &[PointResult]) -> f64 {
    let breakeven = |sync: bool| {
        points
            .iter()
            .filter(|r| r.point.op == OpKind::Memcpy && (r.point.mode == Mode::Sync) == sync)
            .find(|r| r.result.gbps >= r.cpu_gbps)
            .map_or(2.0 * SIZES[SIZES.len() - 1] as f64, |r| r.point.size as f64)
    };
    (breakeven(true) / 4096.0).log2().abs() + (breakeven(false) / 256.0).log2().abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_rejects_a_doctored_report() {
        let mut svc = churn_service(1, CHURN_SEED, false).expect("churn roster builds");
        let mut rep = svc.run();
        check_conservation(&rep).expect("a real report conserves jobs");
        rep.tenants[0].shed += 1;
        let err = check_conservation(&rep).expect_err("a doctored report must be rejected");
        assert!(err.contains("lat0"), "names the tenant: {err}");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn grid_has_128_points_and_4160_descriptors() {
        let points = fig02_points();
        assert_eq!(points.len(), 128);
        assert_eq!(points.iter().map(|p| p.iters()).sum::<u64>(), 4_160);
    }
}

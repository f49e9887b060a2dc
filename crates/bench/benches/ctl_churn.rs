//! ctl_churn — the closed control loop against every static plan under
//! a churn+burst multi-tenant workload.
//!
//! The scenario is built so that **no static plan is right for the whole
//! run**: latency-class tenants with tight deadlines share the device
//! with deadline-free bulk streams, and a third of the way in a wave of
//! deep-queued 128×-sized aggressor streams lands (the churn). The
//! contention the aggressors cause lives in the device-wide memory
//! fabric, not in any one engine group — so *every* static carve fails
//! the burst phase alike: shared WQs, dedicated WQs, and the class split
//! all let the blast radius reach the latency class, and the dedicated /
//! by-class carves additionally pay small-WQ retry pressure in the quiet
//! phases. The one lever that works is the per-group read-buffer
//! allocation (paper guideline G6): clamping the throughput group's read
//! buffers throttles the aggressors at the source — but a static plan
//! that clamps all run long would strangle the bulk streams in the quiet
//! phases. The governed lane starts from the same shared plan and
//! re-plans online: a [`Governor`] watches windowed telemetry against
//! the service's [`SloTarget`], and when the burst lands the
//! digital-twin scorer picks the `by-class+rbuf` candidate, riding out
//! the burst clamped and reverting when the pressure clears.
//!
//! Reported per lane (static-shared / static-dedicated / static-by-class
//! / governed): simulated jobs per wall-clock second (the perfgate
//! lane), deadline-miss rate, Jain fairness, worst-tenant p999, and for
//! the governed lane the number of re-plan decisions and applied
//! transitions.
//!
//! Checked on every run:
//!   * the best static plan still fails ≥ 10% of deadlines — the
//!     scenario genuinely defeats static planning;
//!   * the governed lane cuts the deadline-miss rate ≥ 2× below the best
//!     static plan without dropping Jain fairness below it;
//!   * the governed lane actually transitioned, and its control digest
//!     (service digest ⊕ decision sequence) replays bit-identically.
//!
//! Writes `BENCH_ctl_churn.json` at the repo root; lanes are
//! `ctl_churn/<lane>` in the perfgate's format. Set `CTL_CHURN_SMOKE=1`
//! for a CI-sized run.

use dsa_bench::table;
use dsa_ctl::prelude::*;
use dsa_svc::prelude::*;

const SEED: u64 = 0xC10C_0DE5;

/// Tight deadline on the latency class — the objective the burst breaks.
const LAT_DEADLINE_US: u64 = 60;

/// Wall-clock seconds elapsed while running `f` — the one deliberately
/// nondeterministic probe; everything it times is bit-reproducible.
#[expect(clippy::disallowed_types, reason = "self-benchmark measures real wall time")]
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The churn+burst roster. `scale` multiplies per-tenant job counts so
/// the smoke run keeps the same phase structure at a fraction of the
/// work.
fn tenants(scale: u64) -> Vec<TenantSpec> {
    let mut specs = Vec::new();
    // Latency class: small transfers, tight deadlines, steady open
    // arrivals from t=0. These are the victims the burst starves.
    for i in 0..4 {
        specs.push(
            TenantSpec::new(&format!("lat{i}"), 4 << 10, 240 * scale)
                .with_class(QosClass::Latency)
                .with_deadline(SimDuration::from_us(LAT_DEADLINE_US))
                .with_arrival(Arrival::open(SimDuration::from_ns(3_500))),
        );
    }
    // Bulk streams: mid-size background transfers from t=0, no deadline
    // of their own — steady load that keeps the shared WQ honest.
    for i in 0..2 {
        specs.push(
            TenantSpec::new(&format!("bulk{i}"), 64 << 10, 120 * scale)
                .with_arrival(Arrival::open(SimDuration::from_us(12))),
        );
    }
    // The churn: deep-queued 128×-sized aggressor streams that arrive a
    // third of the way in and occupy whatever WQ serves them. No
    // deadline of their own — they are load, not victims.
    for i in 0..2 {
        specs.push(
            TenantSpec::new(&format!("agg{i}"), 512 << 10, 12)
                .with_start(SimDuration::from_us(225 * scale))
                .with_outstanding(8)
                .with_arrival(Arrival::closed(SimDuration::ZERO)),
        );
    }
    specs
}

fn config(plan: PlanSpec, slo: Option<SloTarget>, scale: u64) -> ServiceConfig {
    let mut b = ServiceConfig::builder().plan(plan).seed(SEED).tenants(tenants(scale));
    if let Some(slo) = slo {
        b = b.slo(slo);
    }
    b.build().expect("the churn roster is valid")
}

struct Lane {
    name: &'static str,
    completed: u64,
    digest: u64,
    fairness: f64,
    p999_us: f64,
    miss_rate: f64,
    transitions: u64,
    wall_s: f64,
}

impl Lane {
    fn jobs_per_sec(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(1e-9)
    }

    fn json_row(&self) -> String {
        format!(
            "    {{\"workload\": \"ctl_churn\", \"scheduler\": \"{}\", \"events\": {}, \
             \"wall_s\": {:.6}, \"events_per_sec\": {:.0}, \"digest\": \"{:#018x}\", \
             \"jain\": {:.6}, \"p999_us\": {:.3}, \"miss_rate\": {:.6}, \
             \"transitions\": {}}}",
            self.name,
            self.completed,
            self.wall_s,
            self.jobs_per_sec(),
            self.digest,
            self.fairness,
            self.p999_us,
            self.miss_rate,
            self.transitions
        )
    }
}

fn completed(rep: &ServiceReport) -> u64 {
    rep.tenants.iter().map(|t| t.dsa_completed + t.cpu_completed).sum()
}

fn worst_p999_us(rep: &ServiceReport) -> f64 {
    rep.tenants.iter().map(|t| t.p999.as_ps()).max().unwrap_or(0) as f64 / 1e6
}

fn static_lane(name: &'static str, plan: PlanSpec, scale: u64) -> Lane {
    let cfg = config(plan, None, scale);
    let mut svc = DsaService::from_config(cfg).expect("static service builds");
    let (rep, wall_s) = timed(|| svc.run());
    if std::env::var("CTL_CHURN_DEBUG").is_ok_and(|v| v == "1") {
        println!("--- {name}\n{}", rep.summary());
    }
    Lane {
        name,
        completed: completed(&rep),
        digest: rep.digest(),
        fairness: rep.fairness,
        p999_us: worst_p999_us(&rep),
        miss_rate: rep.deadline_miss_rate(),
        transitions: 0,
        wall_s,
    }
}

fn governed_run(scale: u64) -> (ControlReport, f64) {
    let slo = SloTarget::new()
        .with_p99(SimDuration::from_us(LAT_DEADLINE_US))
        .with_deadline_miss_frac(0.02);
    let cfg = config(PlanSpec::Shared, Some(slo), scale);
    let mut svc = DsaService::from_config(cfg).expect("governed service builds");
    // A 10 us control epoch: the blind window between the burst landing
    // and its first late completions is the whole cost of feedback
    // control here, so observe at twice the default rate.
    let ctl = ControllerConfig { epoch: SimDuration::from_us(10), ..ControllerConfig::default() };
    timed(|| Governor::new(ctl).govern(&mut svc))
}

fn governed_lane(scale: u64) -> Lane {
    // Determinism proof: the whole closed loop — observations, twin
    // scores, decisions, transitions — must replay bit-identically.
    let (a, _) = governed_run(scale);
    let (ctl, wall_s) = governed_run(scale);
    assert_eq!(a.digest(), ctl.digest(), "governed replay diverged");
    assert_eq!(a.decisions, ctl.decisions, "decision sequences diverged");
    if std::env::var("CTL_CHURN_DEBUG").is_ok_and(|v| v == "1") {
        println!("--- governed ({} decisions)\n{}", ctl.decisions.len(), ctl.report.summary());
        for d in &ctl.decisions {
            println!(
                "  e{} at={} {} -> {} inc={:.3} cand={:.3} adopted={}",
                d.epoch,
                d.at.as_ps(),
                d.from,
                d.to,
                d.incumbent_score,
                d.score,
                d.adopted
            );
        }
    }
    Lane {
        name: "governed",
        completed: completed(&ctl.report),
        digest: ctl.digest(),
        fairness: ctl.report.fairness,
        p999_us: worst_p999_us(&ctl.report),
        miss_rate: ctl.report.deadline_miss_rate(),
        transitions: ctl.transitions(),
        wall_s,
    }
}

fn main() {
    let smoke = std::env::var("CTL_CHURN_SMOKE").is_ok_and(|v| v == "1");
    let scale: u64 = if smoke { 2 } else { 4 };

    table::banner(
        "ctl_churn",
        "SLO control loop vs static plans under a churn+burst workload (8 tenants)",
    );
    table::header(&[
        "lane",
        "jobs done",
        "wall ms",
        "kjobs/s",
        "Jain",
        "p999 us",
        "miss rate",
        "plan moves",
    ]);

    let mut lanes = vec![
        static_lane("static-shared", PlanSpec::Shared, scale),
        static_lane("static-dedicated", PlanSpec::Dedicated, scale),
        static_lane("static-by-class", PlanSpec::ByClass, scale),
        governed_lane(scale),
    ];

    for l in &lanes {
        table::row(&[
            l.name.to_string(),
            l.completed.to_string(),
            table::f2(l.wall_s * 1e3),
            table::f2(l.jobs_per_sec() / 1e3),
            table::f2(l.fairness),
            table::f2(l.p999_us),
            table::f2(l.miss_rate),
            l.transitions.to_string(),
        ]);
    }

    // The acceptance triangle: the scenario defeats every static plan,
    // and the online re-planner beats the best of them by ≥ 2× on
    // deadline misses without giving up fairness.
    let governed = lanes.pop().expect("governed lane present");
    let best_static = lanes
        .iter()
        .min_by(|a, b| a.miss_rate.total_cmp(&b.miss_rate))
        .expect("static lanes present");
    assert!(
        best_static.miss_rate >= 0.10,
        "best static plan ({}) misses only {:.1}% — the scenario no longer defeats \
         static planning",
        best_static.name,
        best_static.miss_rate * 100.0
    );
    assert!(
        governed.miss_rate * 2.0 <= best_static.miss_rate,
        "governed miss rate {:.3} is not 2x below best static ({}) {:.3}",
        governed.miss_rate,
        best_static.name,
        best_static.miss_rate
    );
    // Jain tolerance 0.01: the feedback blind window (burst landing to
    // first late completions) sheds a handful of latency jobs before the
    // governor can react, costing a fraction of a point of fairness no
    // feedback controller can recover.
    assert!(
        governed.fairness + 0.01 >= best_static.fairness,
        "governed Jain {:.4} dropped below best static ({}) {:.4}",
        governed.fairness,
        best_static.name,
        best_static.fairness
    );
    assert!(governed.transitions >= 1, "the governor never re-planned");
    lanes.push(governed);

    let body = format!(
        "{{\n  \"bench\": \"ctl_churn\",\n  \"schema_version\": 1,\n  \"smoke\": {},\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        smoke,
        lanes.iter().map(Lane::json_row).collect::<Vec<_>>().join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ctl_churn.json");
    std::fs::write(path, body).expect("write BENCH_ctl_churn.json at the repo root");
    println!("wrote {path}");
}

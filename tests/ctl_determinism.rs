//! The control plane's headline guarantee (ISSUE 10 acceptance): the
//! whole closed loop — windowed observations, digital-twin scores,
//! decisions, plan transitions — is a pure function of the seed. A
//! governed fleet's merged control digest is bit-identical across
//! repeat runs and across worker-thread counts, and a governor with
//! nothing to do is provably a no-op: with no SLO it digests exactly
//! like the plain fleet.

use dsa_repro::prelude::*;

/// A fleet shape whose shards come under genuine SLO pressure: tight
/// deadlines on open-arrival latency tenants, with 8×-sized aggressor
/// streams landing mid-run (the churn that makes the boot plan stale).
fn churn_fleet(slo: bool, seed: u64) -> Fleet {
    let profile = TenantProfile {
        xfer: 32 << 10,
        jobs: 200,
        open_gap: Some(SimDuration::from_us(2)),
        deadline: Some(SimDuration::from_us(30)),
        latency_every: 2,
        outstanding: 4,
        aggressor_every: 3,
        aggressor_start: SimDuration::from_us(100),
    };
    let mut b = FleetConfig::builder()
        .sockets(1)
        .devices_per_socket(2)
        .shards(4)
        .tenants(12)
        .seed(seed)
        .profile(profile);
    if slo {
        b = b
            .slo(SloTarget::new().with_p99(SimDuration::from_us(30)).with_deadline_miss_frac(0.02));
    }
    Fleet::new(b.build().expect("a 1×2, 4-shard, 12-tenant fleet is a valid shape"))
}

fn governed(slo: bool, seed: u64) -> GovernedFleet {
    GovernedFleet::new(
        churn_fleet(slo, seed),
        ControllerConfig { epoch: SimDuration::from_us(10), ..ControllerConfig::default() },
    )
}

/// The pressured scenarios the replay proof runs: seed, pinned merged
/// control digest, and whether some shard re-plans its live device.
/// Seed 0x0C71_5EED decides without ever transitioning; seed 2
/// transitions, so windows read after a plan change (migrated tenants
/// included) are covered too.
const PRESSURED: [(u64, u64, bool); 2] =
    [(0x0C71_5EED, 0x4232_9915_c6b7_d1cf, false), (2, 0xac00_450d_3c8c_f662, true)];

/// Sequential vs K ∈ {1, 2, 8} worker threads, twice each: every run of
/// the closed loop replays to the same merged control digest, the same
/// fleet-wide decision/transition counts and the same twin-search work
/// counters — and decisions actually
/// happen, so the proof covers the loop acting, not idling.
#[test]
fn governed_fleet_replays_bit_identically_across_thread_counts() {
    for (seed, digest, transitions) in PRESSURED {
        let g = governed(true, seed);
        let seq = g.run_sequential().expect("sequential governed run");
        assert!(seq.fleet.offered() > 0, "the proof needs a non-trivial run");
        assert!(
            seq.decisions > 0,
            "seed {seed:#x}: no shard governor ever evaluated a re-plan — the churn \
             scenario is not pressuring the SLO and the determinism proof is vacuous"
        );
        assert_eq!(seq.fleet.digest, digest, "seed {seed:#x}: control digest drifted");
        if transitions {
            assert!(seq.transitions > 0, "seed {seed:#x} must re-plan the live device");
        }
        for k in [1usize, 2, 8] {
            for round in 0..2 {
                let par = g.run_parallel(k).expect("parallel governed run");
                assert_eq!(
                    par.fleet.digest, seq.fleet.digest,
                    "{k} thread(s), round {round}: control digest diverged from sequential"
                );
                assert_eq!(par.decisions, seq.decisions, "{k}/{round}: decision count drifted");
                assert_eq!(par.transitions, seq.transitions, "{k}/{round}: transitions drifted");
                assert_eq!(par.twin_jobs, seq.twin_jobs, "{k}/{round}: twin jobs drifted");
                assert_eq!(par.twins_pruned, seq.twins_pruned, "{k}/{round}: pruned twins drifted");
                assert_eq!(
                    par.fleet.offered(),
                    seq.fleet.offered(),
                    "{k}/{round}: offered drifted"
                );
                assert_eq!(
                    par.fleet.completed(),
                    seq.fleet.completed(),
                    "{k}/{round}: completed drifted"
                );
            }
        }
    }
}

/// The governor folds its decisions into the digest: a governed run
/// under SLO pressure must NOT digest like the ungoverned fleet (the
/// control digest would be vacuous if it ignored the control).
#[test]
fn control_digest_reflects_decisions() {
    let plain = churn_fleet(true, 0x0C71_5EED).run_sequential().expect("plain run");
    let gov = governed(true, 0x0C71_5EED).run_sequential().expect("governed run");
    assert!(gov.decisions > 0, "scenario must pressure the SLO");
    assert_ne!(
        gov.fleet.digest, plain.digest,
        "decisions were made but the merged digest is indistinguishable from the \
         ungoverned fleet"
    );
}

/// With no SLO there is no pressure, no decisions, no transitions — and
/// the governed fleet's merged digest coincides exactly with the plain
/// fleet's. The control plane is provably inert until it acts.
#[test]
fn governor_without_slo_is_a_bit_identical_no_op() {
    let plain = churn_fleet(false, 77).run_sequential().expect("plain run");
    let gov = governed(false, 77).run_sequential().expect("governed run");
    assert_eq!(gov.decisions, 0, "a pressure-free governor must not decide");
    assert_eq!(gov.transitions, 0, "a pressure-free governor must not transition");
    assert_eq!(
        gov.fleet.digest, plain.digest,
        "an idle governor must digest exactly like the plain fleet"
    );
    assert_eq!(gov.fleet.offered(), plain.offered());
    assert_eq!(gov.fleet.completed(), plain.completed());
}

/// The governed churn lane the `ctl_governed` benchmark workload times:
/// the churn roster at scale 4 (4,824 jobs) on the shared plan, seed
/// `0xC10C0DE5`, SLO p99 60 µs and miss fraction 0.02, 10 µs epochs.
fn governed_churn_lane() -> DsaService {
    const SCALE: u64 = 4;
    let deadline = SimDuration::from_us(60);
    let mut specs = Vec::new();
    for i in 0..4 {
        specs.push(
            TenantSpec::new(&format!("lat{i}"), 4 << 10, 240 * SCALE)
                .with_class(QosClass::Latency)
                .with_deadline(deadline)
                .with_arrival(Arrival::open(SimDuration::from_ns(3_500))),
        );
    }
    for i in 0..2 {
        specs.push(
            TenantSpec::new(&format!("bulk{i}"), 64 << 10, 120 * SCALE)
                .with_arrival(Arrival::open(SimDuration::from_us(12))),
        );
    }
    for i in 0..2 {
        specs.push(
            TenantSpec::new(&format!("agg{i}"), 512 << 10, 3 * SCALE)
                .with_start(SimDuration::from_us(225 * SCALE))
                .with_outstanding(8)
                .with_arrival(Arrival::closed(SimDuration::ZERO)),
        );
    }
    let cfg = ServiceConfig::builder()
        .plan(PlanSpec::Shared)
        .seed(0xC10C_0DE5)
        .tenants(specs)
        .slo(SloTarget::new().with_p99(deadline).with_deadline_miss_frac(0.02))
        .build()
        .expect("the churn roster is valid");
    DsaService::from_config(cfg).expect("the shared plan builds")
}

/// The governor's search work is a deterministic counter, pinned next to
/// the benchmark lane's control digest. Running every challenger twin to
/// the end offers 68,215 twin jobs on this lane; the branch and bound
/// offers 48,526 and drops 135 challenger twins early, with the same 45
/// decisions and so the same digest. The floor, the incumbents plus each
/// decision's best challenger run in full, is 27,286.
#[test]
fn governed_lane_pins_its_search_work() {
    let mut svc = governed_churn_lane();
    let ctl = Governor::new(ControllerConfig {
        epoch: SimDuration::from_us(10),
        ..ControllerConfig::default()
    })
    .govern(&mut svc);
    assert_eq!(ctl.digest(), 0x8db9_cde3_92f4_19e0, "control digest drifted");
    assert_eq!((ctl.decisions.len(), ctl.transitions()), (45, 1));
    assert_eq!((ctl.twin_jobs, ctl.twins_pruned), (48_526, 135), "search work drifted");
}

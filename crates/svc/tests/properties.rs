//! Property-style tests of the service layer, driven by seeded
//! `SplitMix64` schedules: token conservation, typed failure on retry
//! exhaustion, bit-identical replay, and the dedicated-vs-shared fairness
//! claim under saturation.

use dsa_core::error::DsaError;
use dsa_sim::rng::SplitMix64;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_svc::prelude::*;
use dsa_svc::TokenBucket;

/// Over any request schedule, a bucket with rate R and burst B grants at
/// most `B + elapsed·R` tokens — conservation no interleaving can violate.
#[test]
fn token_bucket_conserves_rate() {
    for seed in [3u64, 17, 0xBEEF] {
        let mut rng = SplitMix64::new(seed);
        let rate = 1_000_000u64; // 1 token per µs
        let interval_ps = 1_000_000u64;
        let burst = 5u64;
        let mut bucket = TokenBucket::new(rate, burst);
        let mut granted = 0u64;
        let mut t_ps = 0u64;
        let mut requests = 0u64;
        for _ in 0..20_000 {
            // Random gaps between 0 and 3 µs, so demand oscillates around
            // the metered rate.
            t_ps += rng.next_below(3_000_000);
            requests += 1;
            if bucket.try_acquire(SimTime::from_ps(t_ps)) {
                granted += 1;
            }
        }
        let ceiling = burst + t_ps / interval_ps;
        assert!(
            granted <= ceiling,
            "seed {seed}: granted {granted} > burst + elapsed·rate = {ceiling}"
        );
        // Liveness: with mean demand 1.5× the rate, well over half the
        // requests must still be granted.
        assert!(
            granted * 2 > requests,
            "seed {seed}: granted only {granted} of {requests} requests"
        );
    }
}

/// A tenant with no CPU fallback and a zero retry budget surfaces WQ
/// saturation as the typed `RetryExhausted` error, not a panic or a hang.
#[test]
fn retry_exhaustion_is_a_typed_error() {
    let specs = vec![
        TenantSpec::new("flood", 1 << 20, 500)
            .with_arrival(Arrival::open(SimDuration::from_ns(100)))
            .with_outstanding(256)
            .with_retry_budget(0)
            .with_cpu_fallback(false),
        TenantSpec::new("idle", 4 << 10, 1),
    ];
    let cfg =
        ServiceConfig::builder().plan(PlanSpec::Dedicated).seed(11).tenants(specs).build().unwrap();
    let mut svc = DsaService::from_config(cfg).unwrap();
    let mut sess = svc.session(0);
    let mut exhausted = None;
    for _ in 0..300 {
        match sess.submit() {
            Err(e @ DsaError::RetryExhausted { .. }) => {
                exhausted = Some(e);
                break;
            }
            Err(e) => panic!("unexpected error before exhaustion: {e}"),
            Ok(_) => {}
        }
    }
    assert_eq!(
        exhausted,
        Some(DsaError::RetryExhausted { attempts: 1 }),
        "a zero-budget tenant must fail typed after its first WqFull"
    );
    let stats = svc.stats(0);
    assert!(stats.failed > 0);
    assert_eq!(stats.cpu_completed, 0, "no fallback was configured");
}

fn polite(name: &str) -> TenantSpec {
    TenantSpec::new(name, 16 << 10, 200)
        .with_class(QosClass::Latency)
        .with_arrival(Arrival::open(SimDuration::from_us(4)))
        .with_outstanding(8)
        .with_retry_budget(1)
}

/// One aggressor flooding 64 KiB jobs for the whole run (offered load far
/// beyond device bandwidth) next to three polite latency-class tenants.
fn mixed_four_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("aggr", 64 << 10, 2700)
            .with_arrival(Arrival::open(SimDuration::from_ns(300)))
            .with_outstanding(256)
            .with_retry_budget(32)
            .with_backoff(SimDuration::from_ns(100)),
        polite("polite0"),
        polite("polite1"),
        polite("polite2").with_deadline(SimDuration::from_ms(1)),
    ]
}

/// Two services built from identical specs and seed replay bit-identically:
/// same summary string, same digest.
#[test]
fn four_tenant_replay_is_bit_identical() {
    let cfg = ServiceConfig::builder()
        .plan(PlanSpec::Shared)
        .seed(0xFEED)
        .tenants(mixed_four_tenants())
        .build()
        .unwrap();
    let a = DsaService::from_config(cfg.clone()).unwrap().run();
    let b = DsaService::from_config(cfg).unwrap().run();
    assert_eq!(a.summary(), b.summary());
    assert_eq!(a.digest(), b.digest());
    // And the run actually exercised contention, not a trivial timeline.
    assert!(a.tenants[0].retries > 0, "aggressor never saw WqFull:\n{}", a.summary());

    // One more input: a dedicated-WQ cell whose aggressor retries with
    // backoff beside a latency-class tenant with a one-retry budget.
    let cfg = ServiceConfig::builder()
        .plan(PlanSpec::Dedicated)
        .seed(0xFA1C_0DE5)
        .tenants(vec![
            TenantSpec::new("aggr", 64 << 10, 400)
                .with_arrival(Arrival::open(SimDuration::from_ns(300)))
                .with_outstanding(64)
                .with_retry_budget(8)
                .with_backoff(SimDuration::from_ns(100)),
            TenantSpec::new("polite", 16 << 10, 100)
                .with_class(QosClass::Latency)
                .with_arrival(Arrival::open(SimDuration::from_us(4)))
                .with_outstanding(8)
                .with_retry_budget(1),
        ])
        .build()
        .unwrap();
    let a = DsaService::from_config(cfg.clone()).unwrap().run();
    let b = DsaService::from_config(cfg).unwrap().run();
    assert_eq!(a.summary(), b.summary());
    assert_eq!(a.digest(), b.digest());
}

/// The paper's isolation claim as a service-level property: at saturation,
/// dedicated per-tenant WQs yield a higher Jain fairness index over
/// accelerator-served shares than one fully shared WQ.
#[test]
fn dedicated_wqs_are_fairer_than_shared_at_saturation() {
    let at_saturation = |plan: PlanSpec| {
        let cfg = ServiceConfig::builder()
            .plan(plan)
            .seed(7)
            .tenants(mixed_four_tenants())
            .build()
            .unwrap();
        DsaService::from_config(cfg).unwrap().run()
    };
    let ded = at_saturation(PlanSpec::Dedicated);
    let sha = at_saturation(PlanSpec::Shared);
    assert!(
        ded.fairness > sha.fairness,
        "dedicated {:.4} must beat shared {:.4}\n--- dedicated ---\n{}\n--- shared ---\n{}",
        ded.fairness,
        sha.fairness,
        ded.summary(),
        sha.summary()
    );
}

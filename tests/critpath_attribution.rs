//! Critical-path attribution gates (ISSUE 6 acceptance criteria).
//!
//! Three invariants the critical-path layer must uphold:
//!
//! 1. **Exact partition** — a job's five attributed segments sum to its
//!    end-to-end latency, picosecond-exact, across submission modes
//!    (sync, async, batch) and placements (local, remote+LLC-steered).
//! 2. **Phase reconciliation** — the coarse segments agree with the
//!    fine-grained descriptor [`Phase`] spans recorded by the device.
//! 3. **Digest neutrality** — tracing a multi-tenant
//!    [`DsaService`] replay leaves its report digest bit-identical and
//!    yields per-tenant critical-path profiles.
//! 4. **Retries count** — a service job's critical path starts at its
//!    step, so portal rejections and their backoff land in software prep.

use dsa_bench::measure::{Measure, Mode};
use dsa_core::runtime::DsaRuntime;
use dsa_mem::buffer::Location;
use dsa_ops::OpKind;
use dsa_sim::time::SimDuration;
use dsa_svc::prelude::*;
use dsa_telemetry::{Phase, SegmentKind};

// ---------------------------------------------------------------------
// 1. Exact partition across submission modes and placements.
// ---------------------------------------------------------------------

#[test]
fn attributed_segments_partition_end_to_end_latency() {
    let points: Vec<(&str, Measure)> = vec![
        ("sync memcpy 4K", Measure::new(OpKind::Memcpy, 4096).iters(32)),
        (
            "async memcpy 256K qd16",
            Measure::new(OpKind::Memcpy, 256 << 10).iters(48).mode(Mode::Async { qd: 16 }),
        ),
        ("sync crc32 64K", Measure::new(OpKind::Crc32, 64 << 10).iters(16)),
        (
            "sync batch memcpy bs4",
            Measure::new(OpKind::Memcpy, 16 << 10).iters(16).mode(Mode::SyncBatch { bs: 4 }),
        ),
        (
            "remote dst + cache control",
            Measure::new(OpKind::Memcpy, 64 << 10)
                .iters(16)
                .locations(Location::local_dram(), Location::remote_dram())
                .cache_control(true),
        ),
    ];
    for (name, m) in points {
        let mut rt = DsaRuntime::spr_default();
        let hub = rt.trace();
        m.try_run(&mut rt).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let traces = hub.job_traces();
        assert!(!traces.is_empty(), "{name}: no job traces recorded");
        for t in &traces {
            assert!(t.end >= t.start, "{name}: trace #{} runs backwards", t.trace_id);
            assert_eq!(
                t.attributed_total(),
                t.total(),
                "{name}: trace #{} segments must partition [start, end] exactly",
                t.trace_id
            );
        }
        // The aggregate partition check must hold too (u128 ps sums).
        let overall = hub.critpath_profile().overall().expect("profile is non-empty");
        assert_eq!(overall.attributed_ps(), overall.total_ps, "{name}: aggregate partition");
    }
}

// ---------------------------------------------------------------------
// 2. Segments reconcile with the descriptor phase spans.
// ---------------------------------------------------------------------

#[test]
fn segments_reconcile_with_descriptor_phase_spans() {
    let mut rt = DsaRuntime::spr_default();
    let hub = rt.trace();
    Measure::new(OpKind::Memcpy, 64 << 10).iters(24).try_run(&mut rt).expect("sync run");

    let traces = hub.job_traces();
    let spans = hub.descriptor_spans();
    assert_eq!(traces.len(), spans.len(), "one trace per descriptor in sync mode");
    for (t, s) in traces.iter().zip(spans.iter()) {
        assert_eq!(t.segment(SegmentKind::WqWait), s.phase_duration(Phase::Wait));
        assert_eq!(t.segment(SegmentKind::PeService), s.phase_duration(Phase::Translate));
        assert_eq!(
            t.segment(SegmentKind::MemoryHop),
            s.phase_duration(Phase::Read) + s.phase_duration(Phase::Write)
        );
        assert_eq!(t.segment(SegmentKind::CompletionWrite), s.phase_duration(Phase::Complete));
        // Software prep covers descriptor alloc/prepare *plus* the portal
        // write the Submit phase times, so it can only be wider.
        assert!(t.segment(SegmentKind::SoftwarePrep) >= s.phase_duration(Phase::Submit));
        assert_eq!(t.end, s.marks[6], "trace and span agree on completion visibility");
    }
}

// ---------------------------------------------------------------------
// 3. Service-level tracing is digest-neutral and per-tenant.
// ---------------------------------------------------------------------

fn tenant_specs() -> Vec<TenantSpec> {
    vec![
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
    ]
}

#[test]
fn service_digest_is_identical_with_tracing_enabled() {
    let cfg = || {
        ServiceConfig::builder()
            .plan(PlanSpec::Dedicated)
            .seed(0xFA1C_0DE5)
            .tenants(tenant_specs())
            .build()
            .expect("plan fits the envelope")
    };

    let plain = DsaService::from_config(cfg()).expect("validated config builds").run().digest();

    let mut svc = DsaService::from_config(cfg()).expect("validated config builds");
    let hub = svc.trace();
    let traced = svc.run().digest();
    assert_eq!(plain, traced, "tracing must not perturb the replay digest");

    // Both tenants produced attributed critical paths, keyed by tenant id.
    let profile = hub.critpath_profile();
    assert!(profile.jobs() > 0, "traces were recorded");
    let tenants: Vec<Option<u16>> = profile.keys().iter().map(|k| k.0).collect();
    assert!(tenants.contains(&Some(0)), "aggressor tenant profiled: {tenants:?}");
    assert!(tenants.contains(&Some(1)), "polite tenant profiled: {tenants:?}");
    // And every service-path trace obeys the exact-partition invariant.
    for t in hub.job_traces() {
        assert_eq!(t.attributed_total(), t.total(), "trace #{} partitions exactly", t.trace_id);
    }
}

// ---------------------------------------------------------------------
// 4. A retried service job's critical path keeps its rejected attempts.
// ---------------------------------------------------------------------

#[test]
fn retried_service_jobs_attribute_their_backoff_to_software_prep() {
    let backoff = SimDuration::from_ns(500);
    let tenants = (0..6).map(|i| {
        TenantSpec::new(&format!("t{i}"), 64 << 10, 300)
            .with_arrival(Arrival::open(SimDuration::from_ns(100)))
            .with_backoff(backoff)
    });
    let cfg = ServiceConfig::builder()
        .plan(PlanSpec::Shared)
        .seed(7)
        .tenants(tenants)
        .build()
        .expect("plan fits the envelope");
    let mut svc = DsaService::from_config(cfg).expect("validated config builds");
    let hub = svc.trace();
    svc.run();

    let total = |f: fn(&TenantStats) -> u64| (0..svc.tenant_count()).map(|i| f(svc.stats(i))).sum();
    let rejections: u64 = total(|s| s.retries);
    assert!(rejections > 1000, "the shared WQ must push back hard, saw {rejections}");
    assert_eq!(total(|s| s.exhausted), 0, "every job eventually gets a slot");
    // So every rejection is followed by at least one base backoff before
    // the job's next attempt, all inside some traced job's software prep.
    let prep_ps: u128 = hub
        .job_traces()
        .iter()
        .map(|t| u128::from(t.segment(SegmentKind::SoftwarePrep).as_ps()))
        .sum();
    let floor = u128::from(rejections) * u128::from(backoff.as_ps());
    assert!(prep_ps >= floor, "software prep {prep_ps} ps < {rejections} x base backoff");
}

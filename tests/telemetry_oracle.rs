//! Telemetry oracle: every exporter's bytes, pinned per scenario.
//!
//! Each scenario runs a traced workload and folds the four exporters'
//! output (`chrome_trace_json`, `metrics_csv`, `folded_stacks`,
//! `pcm_dashboard`) into FNV-1a digests, next to the hub's trace and
//! event counts. The pins hold the exported bytes still while the way the
//! hub stores what it records changes underneath.

use dsa_bench::measure::{Measure, Mode};
use dsa_core::backend::Engine;
use dsa_core::digest::Fnv1a;
use dsa_core::job::{AsyncQueue, Job};
use dsa_core::runtime::DsaRuntime;
use dsa_device::config::DeviceConfig;
use dsa_mem::buffer::Location;
use dsa_mem::topology::Platform;
use dsa_ops::OpKind;
use dsa_sim::time::SimDuration;
use dsa_svc::prelude::*;
use dsa_telemetry::{chrome_trace_json, folded_stacks, metrics_csv, pcm_dashboard, Hub};
use dsa_workloads::migration::{Migration, MigrationConfig};

/// What one scenario pins: the four exporter digests, then the trace and
/// event counts.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    chrome: u64,
    csv: u64,
    folded: u64,
    dashboard: u64,
    traces: usize,
    events: usize,
}

fn pins(hub: &Hub) -> Pins {
    Pins {
        chrome: Fnv1a::digest(chrome_trace_json(hub).as_bytes()),
        csv: Fnv1a::digest(metrics_csv(hub).as_bytes()),
        folded: Fnv1a::digest(folded_stacks(hub).as_bytes()),
        dashboard: Fnv1a::digest(pcm_dashboard(hub).as_bytes()),
        traces: hub.trace_count(),
        events: hub.event_count(),
    }
}

fn measured(m: Measure) -> Pins {
    let mut rt = DsaRuntime::spr_default();
    let hub = rt.trace();
    m.try_run(&mut rt).expect("measure point runs");
    pins(&hub)
}

#[test]
fn sync_memcpy_with_counted_alloc() {
    let mut rt = DsaRuntime::spr_default();
    let hub = rt.trace();
    let src = rt.alloc(16 << 10, Location::local_dram());
    let dst = rt.alloc(16 << 10, Location::local_dram());
    for _ in 0..12 {
        Job::memcpy(&src, &dst).count_alloc(true).execute(&mut rt).expect("sync job");
    }
    assert_eq!(
        pins(&hub),
        Pins {
            chrome: 0xf28280e8be5b276d,
            csv: 0xaed107b1a748d0a0,
            folded: 0xfaaa2e235363b8a2,
            dashboard: 0x404b09e6bdbb27c7,
            traces: 12,
            events: 24
        }
    );
}

#[test]
fn async_memcpy_at_qd16() {
    let mut rt = DsaRuntime::spr_default();
    let hub = rt.trace();
    let src = rt.alloc(32 << 10, Location::local_dram());
    let dst = rt.alloc(32 << 10, Location::local_dram());
    let mut q = AsyncQueue::new(16);
    for _ in 0..64 {
        q.submit(&mut rt, Job::memcpy(&src, &dst)).expect("async job");
    }
    q.drain(&mut rt);
    assert_eq!(
        pins(&hub),
        Pins {
            chrome: 0x2087d503f3c14163,
            csv: 0xac14defd9cdf574e,
            folded: 0xfce706dd7bae838d,
            dashboard: 0x85edc021fafc00d6,
            traces: 64,
            events: 64
        }
    );
}

#[test]
fn sync_batch_memcpy_bs4() {
    let p =
        measured(Measure::new(OpKind::Memcpy, 16 << 10).iters(16).mode(Mode::SyncBatch { bs: 4 }));
    assert_eq!(
        p,
        Pins {
            chrome: 0xd5a93956cda84c57,
            csv: 0x40cac8d368756063,
            folded: 0x42ca5c479784c600,
            dashboard: 0xfa869eb81b0cfae6,
            traces: 16,
            events: 80
        }
    );
}

#[test]
fn remote_dram_cache_control_point() {
    let p = measured(
        Measure::new(OpKind::Memcpy, 64 << 10)
            .iters(16)
            .locations(Location::local_dram(), Location::remote_dram())
            .cache_control(true),
    );
    assert_eq!(
        p,
        Pins {
            chrome: 0x3e85a3f2a86ff87d,
            csv: 0x5175ecb9d9a7ab48,
            folded: 0x9511c846a8f01e22,
            dashboard: 0x7d1008cbcb410677,
            traces: 16,
            events: 32
        }
    );
}

#[test]
fn traced_vm_migration() {
    let cfg = MigrationConfig {
        blocks: 16,
        block_size: 16 << 10,
        dirtied_per_round: 4,
        dirty_density: 0.03,
        ..MigrationConfig::default()
    };
    let mut rt = DsaRuntime::builder(Platform::spr()).device(DeviceConfig::full_device()).build();
    let hub = rt.trace();
    Migration::new(&mut rt, cfg).run(&mut rt, Engine::dsa()).expect("migration runs");
    assert_eq!(
        pins(&hub),
        Pins {
            chrome: 0x578f7ea55f9e1db9,
            csv: 0x7aad0784e8b191e9,
            folded: 0xa57e124acc7772c8,
            dashboard: 0xdac37d36f6b7ae3a,
            traces: 9,
            events: 35
        }
    );
}

/// Two tenants on one shared WQ, loaded hard enough that the portal
/// refuses descriptors and the service retries them.
fn shared_wq_service() -> DsaService {
    let tenants = vec![
        TenantSpec::new("aggr", 64 << 10, 300)
            .with_arrival(Arrival::open(SimDuration::from_ns(100)))
            .with_outstanding(96)
            .with_backoff(SimDuration::from_ns(500)),
        TenantSpec::new("bulk", 64 << 10, 200)
            .with_class(QosClass::Latency)
            .with_arrival(Arrival::open(SimDuration::from_ns(200)))
            .with_outstanding(96)
            .with_retry_budget(2),
    ];
    let cfg = ServiceConfig::builder()
        .plan(PlanSpec::Shared)
        .seed(7)
        .tenants(tenants)
        .build()
        .expect("plan fits the envelope");
    DsaService::from_config(cfg).expect("validated config builds")
}

#[test]
fn shared_wq_two_tenant_service_with_rejections() {
    let mut svc = shared_wq_service();
    let hub = svc.trace();
    svc.run();
    let rejections: u64 = (0..svc.tenant_count()).map(|i| svc.stats(i).retries).sum();
    assert!(rejections > 0, "the shared WQ must refuse some descriptors");
    assert_eq!(
        pins(&hub),
        Pins {
            chrome: 0x63e5f933b1f94d75,
            csv: 0x50a5cf7d599f1e94,
            folded: 0x748e76252dea4bc8,
            dashboard: 0x5f1f63c92244beec,
            traces: 498,
            events: 498
        }
    );
}

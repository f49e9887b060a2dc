//! Live services hold no bytes. Every `DsaService` — built from a config,
//! forked as a digital twin, or built for a fleet shard — runs on a
//! timing-only runtime: its tenant buffers are allocated (addresses,
//! pages and locations are real, so every job is timed) but none of them
//! holds a byte, before or after a run. Byte exactness of the operations
//! is tested below the service layer (`tests/fault_injection.rs`'s
//! `cpu_and_device_agree_op_by_op`, the ops and memory property tests),
//! and `dsa-svc`'s unit tests replay timing-only services against a
//! backed one.

use dsa_repro::prelude::*;

fn roster() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("lat", 4 << 10, 40)
            .with_class(QosClass::Latency)
            .with_arrival(Arrival::open(SimDuration::from_us(2))),
        TenantSpec::new("bulk", 64 << 10, 20),
    ]
}

/// Runs `svc` and asserts it allocated buffers but backed none of them,
/// both before and after the run.
fn assert_holds_no_bytes(label: &str, mut svc: DsaService) {
    let mem = svc.runtime().memory();
    assert!(mem.allocated_bytes() > 0, "{label}: no tenant buffers allocated");
    assert_eq!(mem.backed_bytes(), 0, "{label}: a fresh service holds bytes");
    let rep = svc.run();
    assert!(rep.tenants.iter().all(|t| t.dsa_completed > 0), "{label}: nothing ran");
    let mem = svc.runtime().memory();
    assert!(mem.allocated_bytes() > 0, "{label}: buffers vanished");
    assert_eq!(mem.backed_bytes(), 0, "{label}: the run backed a buffer");
}

#[test]
fn services_twins_and_fleet_shards_hold_no_bytes() {
    let cfg = ServiceConfig::builder()
        .plan(PlanSpec::ByClass)
        .location(Location::remote_dram())
        .tenants(roster())
        .build()
        .expect("a valid two-tenant config");
    let live = DsaService::from_config(cfg).expect("the by-class plan builds");
    let twin = live.fork_twin(live.plan(), roster(), 7).expect("the twin builds");
    assert_holds_no_bytes("fork_twin", twin);
    assert_holds_no_bytes("from_config", live);

    let fleet = Fleet::new(
        FleetConfig::builder()
            .sockets(2)
            .devices_per_socket(1)
            .shards(2)
            .tenants(16)
            .build()
            .expect("a 2-shard, 16-tenant fleet is a valid shape"),
    );
    assert_holds_no_bytes("shard 0", fleet.shard_service(0).expect("shard 0 builds"));
}

//! Steady-state allocation audit of the service's action queue, of
//! building its submission jobs, and of digesting its report.
//!
//! The zero-allocation properties are *measured*, not comments: this
//! binary installs a counting global allocator and asserts that once an
//! [`ActionQueue`] has warmed up, tens of thousands of further
//! pop/peek/re-schedule rounds — the service loop's pattern — touch the
//! heap exactly zero times, that building a tenant's `Job::memcpy` and
//! validating its descriptor does not either, and that digesting a
//! finished report with thousands of tenants (once per fleet shard) hashes
//! its summary as it is formatted, without building the string. It audits
//! those pieces only, not `DsaService::step` as a whole (device execution
//! keeps its own records per submission).
//!
//! One `#[test]` only: the counter is process-global, so a second parallel
//! test would count its own allocations into ours.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use dsa_core::digest::Fnv1a;
use dsa_core::job::Job;
use dsa_core::runtime::DsaRuntime;
use dsa_device::config::DeviceCaps;
use dsa_mem::buffer::Location;
use dsa_sim::rng::SplitMix64;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_svc::actionq::ActionQueue;
use dsa_svc::prelude::{DsaService, PlanSpec, ServiceConfig, TenantProfile};

/// Wraps the system allocator, counting every heap acquisition
/// (alloc/realloc/alloc_zeroed). Deallocations are free to happen — the
/// property under test is "no new heap memory in steady state".
struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TENANTS: usize = 256;
/// Tenants in the digested report: one fleet shard's share of 100k.
const REPORT_TENANTS: u64 = 3_125;

/// One service-loop round: pop the earliest tenant and re-schedule it a
/// seeded delay later (on a coarse grid, so ties are common); every
/// fourth round also peeks, as `run_until` does at epoch boundaries.
fn round(q: &mut ActionQueue, rng: &mut SplitMix64, n: u64) {
    if n.is_multiple_of(4) {
        assert!(q.peek().is_some());
    }
    let (at, tenant) = q.pop().expect("every tenant stays scheduled");
    q.schedule(tenant, at + SimDuration::from_ns(10 * (1 + rng.next_below(64))));
}

#[test]
fn action_queue_steady_state_is_allocation_free() {
    // All set-up allocation happens before either audit window opens.
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(4096, Location::local_dram());
    let dst = rt.alloc(4096, Location::local_dram());
    let caps = DeviceCaps::dsa1();
    let report = DsaService::from_config(
        ServiceConfig::builder()
            .plan(PlanSpec::Shared)
            .tenants((0..REPORT_TENANTS).map(|gid| TenantProfile::small().spec(gid)))
            .build()
            .expect("a shared-WQ roster of small tenants is valid"),
    )
    .expect("the service builds")
    .run();
    let mut q = ActionQueue::with_tenants(TENANTS);
    let mut rng = SplitMix64::new(0xA110_C8ED);
    for tenant in 0..TENANTS {
        q.schedule(tenant, SimTime::from_ns(rng.next_below(1_000)));
    }
    for n in 0..10_000 {
        round(&mut q, &mut rng, n);
    }

    // Steady state: from here on, schedule/peek/pop must not touch the heap.
    let before = HEAP_OPS.load(Ordering::SeqCst);
    for n in 0..50_000 {
        round(&mut q, &mut rng, n);
    }
    let after = HEAP_OPS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "{} heap allocation(s) in 50000 steady-state rounds",
        after - before
    );
    assert_eq!(q.len(), TENANTS, "one live entry per tenant, no stale build-up");

    // Each submission attempt builds the tenant's job afresh: a stack
    // descriptor on the tenant's WQ, validated against the device caps.
    let before = HEAP_OPS.load(Ordering::SeqCst);
    for _ in 0..50_000 {
        let job = Job::memcpy(&src, &dst).on_wq(1);
        assert_eq!(job.descriptor().validate(&caps), Ok(()));
        black_box(job);
    }
    let after = HEAP_OPS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "{} heap allocation(s) building 50000 submission jobs",
        after - before
    );

    // Digesting a report folds its summary straight into the hasher.
    let before = HEAP_OPS.load(Ordering::SeqCst);
    let digest = report.digest();
    let after = HEAP_OPS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "{} heap allocation(s) digesting a {REPORT_TENANTS}-tenant report",
        after - before
    );
    assert_eq!(report.tenants.len() as u64, REPORT_TENANTS);
    assert_eq!(digest, Fnv1a::digest(report.summary().as_bytes()));
}

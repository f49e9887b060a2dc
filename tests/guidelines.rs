//! The paper's guidelines G1–G6, checked against the simulated system:
//! following each advisor's advice must actually win in measurement.

use dsa_core::backend::{DsaBackend, PoolPolicy};
use dsa_core::config::presets;
use dsa_core::dispatch::{Decision, DispatchPolicy, Dispatcher};
use dsa_core::guidelines::{self, ExecutionAdvice, TierPlacement, WqStrategy};
use dsa_core::job::{AsyncQueue, Batch, Job};
use dsa_core::runtime::DsaRuntime;
use dsa_device::config::{DeviceConfig, WqMode};
use dsa_mem::buffer::Location;
use dsa_mem::topology::Platform;
use dsa_ops::OpKind;
use dsa_sim::time::SimDuration;

fn copy_total_with_split(total: u64, bs: u32) -> SimDuration {
    let mut rt = DsaRuntime::spr_default();
    let ts = total / bs as u64;
    let start = rt.now();
    if bs == 1 {
        let src = rt.alloc(ts, Location::local_dram());
        let dst = rt.alloc(ts, Location::local_dram());
        Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
    } else {
        let mut batch = Batch::new();
        for _ in 0..bs {
            let src = rt.alloc(ts, Location::local_dram());
            let dst = rt.alloc(ts, Location::local_dram());
            batch.push(Job::memcpy(&src, &dst));
        }
        batch.execute(&mut rt).unwrap();
    }
    rt.now().duration_since(start)
}

#[test]
fn g1_coalescing_contiguous_data_wins() {
    // One 1 MiB descriptor beats 64 x 16 KiB descriptors for the same total.
    let single = copy_total_with_split(1 << 20, 1);
    let split = copy_total_with_split(1 << 20, 64);
    assert!(single < split, "coalesced {single:?} vs split {split:?}");
    let (ts, bs) = guidelines::g1_split(1 << 20, true);
    assert_eq!((ts, bs), (1 << 20, 1), "advisor agrees: coalesce");
}

#[test]
fn g1_modest_batches_beat_extremes_for_scattered_data() {
    // For scattered (non-coalescable) data, the advisor's modest batch
    // should beat very large batches of tiny descriptors.
    let modest = copy_total_with_split(512 << 10, guidelines::g1_split(512 << 10, false).1);
    let extreme = copy_total_with_split(512 << 10, 256);
    assert!(modest < extreme, "modest {modest:?} vs extreme {extreme:?}");
}

#[test]
fn g2_async_advice_matches_measurement() {
    assert_eq!(guidelines::g2_execution(1 << 20, true, true), ExecutionAdvice::DsaAsync);
    // Async measured faster than sync for the same stream of work:
    let sync_time = {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(16 << 10, Location::local_dram());
        let dst = rt.alloc(16 << 10, Location::local_dram());
        let start = rt.now();
        for _ in 0..32 {
            Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
        }
        rt.now().duration_since(start)
    };
    let async_time = {
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(16 << 10, Location::local_dram());
        let dst = rt.alloc(16 << 10, Location::local_dram());
        let start = rt.now();
        let mut q = AsyncQueue::new(32);
        for _ in 0..32 {
            q.submit(&mut rt, Job::memcpy(&src, &dst)).unwrap();
        }
        let end = q.drain(&mut rt);
        end.duration_since(start)
    };
    assert!(async_time.as_ns_f64() < sync_time.as_ns_f64() / 2.0);

    // Below 4 KiB with no async potential the core is advised (and is
    // genuinely faster when data may stay cache-warm).
    assert_eq!(guidelines::g2_execution(1024, false, true), ExecutionAdvice::Cpu);
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(1024, Location::local_dram());
    let dst = rt.alloc(1024, Location::local_dram());
    let dsa = Job::memcpy(&src, &dst).execute(&mut rt).unwrap().elapsed();
    let cpu =
        rt.cpu_time(dsa_ops::OpKind::Memcpy, 1024, Location::local_dram(), Location::local_dram());
    assert!(cpu < dsa, "1 KiB: CPU {cpu:?} should beat sync DSA {dsa:?}");
}

#[test]
fn g3_cache_control_is_a_locality_switch() {
    assert!(guidelines::g3_cache_control(true));
    assert!(!guidelines::g3_cache_control(false));
}

#[test]
fn g4_placement_advice_matches_measured_ordering() {
    let platform = Platform::spr();
    let dram = platform.medium(Location::local_dram());
    let cxl = platform.medium(Location::Cxl);
    assert_eq!(guidelines::g4_tier_placement(&dram, &cxl), TierPlacement::DestOnA);

    // Measured: CXL->DRAM beats DRAM->CXL.
    let gbps = |src, dst| -> f64 {
        let mut rt = DsaRuntime::spr_default();
        let s = rt.alloc(1 << 20, src);
        let d = rt.alloc(1 << 20, dst);
        let start = rt.now();
        let mut q = AsyncQueue::new(32);
        for _ in 0..16 {
            q.submit(&mut rt, Job::memcpy(&s, &d)).unwrap();
        }
        let end = q.drain(&mut rt);
        q.completed_bytes() as f64 / end.duration_since(start).as_ns_f64()
    };
    let to_dram = gbps(Location::Cxl, Location::local_dram());
    let to_cxl = gbps(Location::local_dram(), Location::Cxl);
    assert!(to_dram > 1.3 * to_cxl, "dest on DRAM {to_dram} vs dest on CXL {to_cxl}");
}

#[test]
fn g5_engine_advice_matches_measured_scaling() {
    assert_eq!(guidelines::g5_engines(1024), 4);
    assert_eq!(guidelines::g5_engines(2 << 20), 1);
    let gbps = |engines: u32, size: u64| -> f64 {
        let mut rt = DsaRuntime::builder(Platform::spr())
            .device(presets::engines_behind_one_dwq(engines, 128))
            .build();
        let src = rt.alloc(size, Location::local_dram());
        let dst = rt.alloc(size, Location::local_dram());
        let start = rt.now();
        let mut inflight = Vec::new();
        for _ in 0..48 {
            if inflight.len() >= 8 {
                let t: dsa_sim::SimTime = inflight.remove(0);
                rt.advance_to(t);
            }
            let mut b = Batch::new();
            for _ in 0..16 {
                b.push(Job::memcpy(&src, &dst));
            }
            inflight.push(b.submit(&mut rt).unwrap().completion_time());
        }
        for t in inflight {
            rt.advance_to(t);
        }
        (48u64 * 16 * size) as f64 / rt.now().duration_since(start).as_ns_f64()
    };
    // Small transfers: engines matter.
    assert!(gbps(4, 1024) > 1.5 * gbps(1, 1024));
    // Large transfers: one engine already saturates.
    let one = gbps(1, 1 << 20);
    let four = gbps(4, 1 << 20);
    assert!(four < 1.15 * one, "large TS should not scale: {one} -> {four}");
}

/// Mean steady-state per-copy time at `size` under a fixed routing policy.
fn measured_per_copy(policy: DispatchPolicy, size: u64) -> f64 {
    let mut rt = DsaRuntime::spr_default();
    let mut d = Dispatcher::new().with_policy(policy);
    let src = rt.alloc(size, Location::local_dram());
    let dst = rt.alloc(size, Location::local_dram());
    rt.fill_random(&src);
    // Warm the ATC: the first execution pays IOMMU walks that steady-state
    // dispatch (what the estimates predict) does not.
    d.memcpy(&mut rt, &src, &dst).unwrap();
    let start = rt.now();
    for _ in 0..16 {
        d.memcpy(&mut rt, &src, &dst).unwrap();
    }
    rt.now().duration_since(start).as_ns_f64() / 16.0
}

#[test]
fn dispatcher_sync_choice_matches_measured_faster_option() {
    // G2 as live policy: across the ≈4 KiB sync break-even, the adaptive
    // dispatcher must route each size to whichever side measures faster
    // (ties near the crossover may go either way within 10%).
    let d = Location::local_dram();
    for size in [512u64, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10] {
        let cpu = measured_per_copy(DispatchPolicy::CpuOnly, size);
        let dsa = measured_per_copy(DispatchPolicy::DsaOnly, size);
        let rt = DsaRuntime::spr_default();
        let dispatcher = Dispatcher::new(); // Adaptive, sync-only
        let decision = dispatcher.decide(&rt, OpKind::Memcpy, size, d, d);
        let measured_faster = if cpu <= dsa { Decision::Cpu } else { Decision::DsaSync };
        if decision != measured_faster {
            // Disagreement is only tolerable when the two options are
            // within 10% of each other (estimate noise at the crossover).
            let ratio = cpu.max(dsa) / cpu.min(dsa);
            assert!(
                ratio < 1.10,
                "{size} B: dispatcher chose {decision:?} but measurement says \
                 cpu {cpu:.0} ns vs dsa {dsa:.0} ns"
            );
        }
    }
    // Anchor points are unambiguous: 1 KiB stays on the core, 16 KiB
    // offloads (Fig. 2a's sync break-even sits near 4 KiB between them).
    let rt = DsaRuntime::spr_default();
    let dispatcher = Dispatcher::new();
    assert_eq!(dispatcher.decide(&rt, OpKind::Memcpy, 1 << 10, d, d), Decision::Cpu);
    assert_eq!(dispatcher.decide(&rt, OpKind::Memcpy, 16 << 10, d, d), Decision::DsaSync);
}

#[test]
fn dispatcher_async_break_even_near_256b() {
    // With async offload available, the core only pays descriptor prepare
    // + portal write, so the break-even drops to ≈256 B (Fig. 2b).
    let rt = DsaRuntime::spr_default();
    let d = Location::local_dram();
    let dispatcher = Dispatcher::new().with_async_depth(32);
    assert_eq!(
        dispatcher.decide(&rt, OpKind::Memcpy, 64, d, d),
        Decision::Cpu,
        "64 B: software memcpy is cheaper than a descriptor submission"
    );
    assert_eq!(
        dispatcher.decide(&rt, OpKind::Memcpy, 256, d, d),
        Decision::DsaAsync,
        "256 B: submission is already cheaper than copying on the core"
    );
}

#[test]
fn dispatcher_pool_policies_follow_load_and_locality() {
    let mut rt = DsaRuntime::builder(Platform::spr())
        .device(DeviceConfig::full_device())
        .device(DeviceConfig::full_device())
        .build();

    // Least-loaded: queue work onto device 0, the policy must steer the
    // next pick to the idle device 1.
    let src = rt.alloc(1 << 20, Location::local_dram());
    let dst = rt.alloc(1 << 20, Location::local_dram());
    Job::memcpy(&src, &dst).on_device(0).submit(&mut rt).unwrap();
    let ll = DsaBackend::all_devices(&rt).with_policy(PoolPolicy::LeastLoaded);
    assert_eq!(ll.peek(&rt, Location::local_dram()), 1, "avoid the busy instance");

    // NUMA-local: device sockets alternate on the SPR platform, so the
    // destination socket selects its local instance.
    let nl = DsaBackend::all_devices(&rt).with_policy(PoolPolicy::NumaLocal);
    let s0 = nl.peek(&rt, Location::Dram { socket: 0 });
    let s1 = nl.peek(&rt, Location::Dram { socket: 1 });
    assert_eq!(rt.device(s0).socket(), 0);
    assert_eq!(rt.device(s1).socket(), 1);
}

#[test]
fn recommended_config_gives_each_submitter_a_dwq_within_the_device() {
    // The device has 8 WQs but only 4 groups: 5 to 8 submitters must
    // share groups, not fall back to one shared WQ.
    let caps = dsa_device::config::DeviceCaps::dsa1();
    for size in [1u64 << 10, 64 << 10, 1 << 20] {
        for threads in 1..=8u32 {
            let cfg = guidelines::recommended_config(size, threads);
            cfg.validate(&caps).unwrap();
            let dwqs = cfg.wqs.iter().filter(|w| w.mode == WqMode::Dedicated).count();
            assert_eq!(dwqs, threads as usize, "{threads} submitters, {size} B: {cfg:?}");
            let engines: u32 = cfg.groups.iter().map(|g| g.engines).sum();
            let want = guidelines::g5_engines(size).min(caps.engines);
            assert!(engines >= want, "{threads} submitters, {size} B: {engines} < {want} engines");
        }
    }
}

#[test]
fn g6_wq_strategy_matches_measured_crossover() {
    assert_eq!(guidelines::g6_wq_strategy(4, 8), WqStrategy::DedicatedPerThread { wqs: 4 });
    assert_eq!(guidelines::g6_wq_strategy(16, 8), WqStrategy::SharedSingle);
    assert_eq!(guidelines::g6_wq_size(), 32);
    // The recommended config is always enableable.
    for (ts, threads) in [(1024u64, 2u32), (1 << 20, 12)] {
        let cfg = guidelines::recommended_config(ts, threads);
        cfg.validate(&dsa_device::config::DeviceCaps::dsa1()).unwrap();
    }
}

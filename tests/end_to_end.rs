//! Cross-crate integration: the full stack from the job API down through
//! the device model and memory system, with functional verification.

use dsa_core::config::{presets, AccelConfig};
use dsa_core::job::{AsyncQueue, Batch, Job};
use dsa_core::runtime::DsaRuntime;
use dsa_core::submit::WaitMethod;
use dsa_mem::buffer::Location;
use dsa_mem::topology::Platform;
use dsa_ops::crc32::Crc32c;
use dsa_ops::OpKind;
use dsa_repro::prelude::Status;

#[test]
fn every_operation_round_trips_through_the_device() {
    let mut rt = DsaRuntime::spr_default();
    let d = Location::local_dram();

    // Copy.
    let src = rt.alloc(4096, d);
    let dst = rt.alloc(4096, d);
    rt.fill_random(&src);
    assert!(Job::memcpy(&src, &dst).execute(&mut rt).unwrap().record.status.is_ok());
    assert_eq!(rt.read(&src).unwrap(), rt.read(&dst).unwrap());

    // Fill + compare-pattern.
    let buf = rt.alloc(4096, d);
    Job::fill(&buf, 0x1111_2222_3333_4444).execute(&mut rt).unwrap();
    let r = Job::compare_pattern(&buf, 0x1111_2222_3333_4444).execute(&mut rt).unwrap();
    assert_eq!(r.record.status, Status::Success);

    // Compare: equal then different.
    let r = Job::compare(&src, &dst).execute(&mut rt).unwrap();
    assert_eq!(r.record.status, Status::Success);
    let other = rt.alloc(4096, d);
    let r = Job::compare(&src, &other).execute(&mut rt).unwrap();
    assert_eq!(r.record.status, Status::CompareMismatch);

    // CRC and copy+CRC agree with software.
    let sw = Crc32c::checksum(rt.read(&src).unwrap());
    assert_eq!(Job::crc32(&src).execute(&mut rt).unwrap().record.result as u32, sw);
    let ccdst = rt.alloc(4096, d);
    let r = Job::copy_crc(&src, &ccdst).execute(&mut rt).unwrap();
    assert_eq!(r.record.result as u32, sw);
    assert_eq!(rt.read(&ccdst).unwrap(), rt.read(&src).unwrap());

    // Dualcast.
    let d1 = rt.alloc(4096, d);
    let d2 = rt.alloc(4096, d);
    Job::dualcast(&src, &d1, &d2).execute(&mut rt).unwrap();
    assert_eq!(rt.read(&d1).unwrap(), rt.read(&d2).unwrap());

    // Delta create/apply round trip.
    let orig = rt.alloc(4096, d);
    let modv = rt.alloc(4096, d);
    rt.fill_random(&modv);
    let record = rt.alloc(4096 / 8 * 10, d);
    let r = Job::delta_create(&orig, &modv, &record).execute(&mut rt).unwrap();
    assert_eq!(r.record.status, Status::Success);
    let rec_len = r.record.result as u32;
    let target = rt.alloc(4096, d);
    Job::delta_apply(&record, rec_len, &target).execute(&mut rt).unwrap();
    assert_eq!(rt.read(&target).unwrap(), rt.read(&modv).unwrap());

    // Cache flush completes.
    assert!(Job::cache_flush(&src).execute(&mut rt).unwrap().record.status.is_ok());
}

#[test]
fn async_streaming_reaches_the_fabric_cap() {
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(1 << 20, Location::local_dram());
    let dst = rt.alloc(1 << 20, Location::local_dram());
    let start = rt.now();
    let mut q = AsyncQueue::new(32);
    for _ in 0..64 {
        q.submit(&mut rt, Job::memcpy(&src, &dst)).unwrap();
    }
    let end = q.drain(&mut rt);
    let gbps = q.completed_bytes() as f64 / end.duration_since(start).as_ns_f64();
    assert!((26.0..31.0).contains(&gbps), "expected ~30 GB/s, got {gbps}");
}

#[test]
fn four_devices_scale_nearly_linearly_below_the_ddio_knee() {
    let run = |n: usize| -> f64 {
        let mut rt = DsaRuntime::builder(Platform::spr())
            .devices(n, dsa_device::config::DeviceConfig::full_device())
            .build();
        let srcs: Vec<_> = (0..n).map(|_| rt.alloc(16 << 10, Location::local_dram())).collect();
        let dsts: Vec<_> = (0..n).map(|_| rt.alloc(16 << 10, Location::local_dram())).collect();
        let start = rt.now();
        let mut batches: Vec<dsa_sim::SimTime> = Vec::new();
        let mut bytes = 0u64;
        for i in 0..96 * n {
            if batches.len() >= 4 * n {
                let t = batches.remove(0);
                rt.advance_to(t);
            }
            let mut b = Batch::new().on_device(i % n);
            for _ in 0..8 {
                b.push(Job::memcpy(&srcs[i % n], &dsts[i % n]));
                bytes += 16 << 10;
            }
            batches.push(b.submit(&mut rt).unwrap().completion_time());
        }
        for t in batches {
            rt.advance_to(t);
        }
        bytes as f64 / rt.now().duration_since(start).as_ns_f64()
    };
    let one = run(1);
    let four = run(4);
    assert!(four > 3.3 * one, "4 devices {four} GB/s vs 1 device {one} GB/s");
}

#[test]
fn swq_is_shared_across_processes_without_locks() {
    // Two "processes" (interleaved submitters) share one SWQ; both make
    // progress and all data lands correctly.
    let mut rt = DsaRuntime::builder(Platform::spr()).device(presets::one_swq_one_engine()).build();
    let a_src = rt.alloc(8192, Location::local_dram());
    let a_dst = rt.alloc(8192, Location::local_dram());
    let b_src = rt.alloc(8192, Location::local_dram());
    let b_dst = rt.alloc(8192, Location::local_dram());
    rt.fill_pattern(&a_src, 0xAA);
    rt.fill_pattern(&b_src, 0xBB);
    let mut qa = AsyncQueue::new(8);
    let mut qb = AsyncQueue::new(8);
    for _ in 0..20 {
        qa.submit(&mut rt, Job::memcpy(&a_src, &a_dst)).unwrap();
        qb.submit(&mut rt, Job::memcpy(&b_src, &b_dst)).unwrap();
    }
    qa.drain(&mut rt);
    qb.drain(&mut rt);
    assert!(rt.read(&a_dst).unwrap().iter().all(|&x| x == 0xAA));
    assert!(rt.read(&b_dst).unwrap().iter().all(|&x| x == 0xBB));
    assert_eq!(rt.device(0).telemetry().descriptors, 40);
}

#[test]
fn umwait_saves_cycles_interrupt_frees_core() {
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(1 << 20, Location::local_dram());
    let dst = rt.alloc(1 << 20, Location::local_dram());
    let spin = Job::memcpy(&src, &dst).wait_method(WaitMethod::SpinPoll).execute(&mut rt).unwrap();
    let umwait = Job::memcpy(&src, &dst).wait_method(WaitMethod::Umwait).execute(&mut rt).unwrap();
    let intr = Job::memcpy(&src, &dst).wait_method(WaitMethod::Interrupt).execute(&mut rt).unwrap();
    assert_eq!(spin.idle_wait.as_ps(), 0);
    assert!(umwait.idle_wait.as_ns_f64() > 0.9 * umwait.phases.wait.as_ns_f64());
    // Interrupts are slowest to observe but fully idle.
    assert!(intr.phases.wait > umwait.phases.wait);
}

#[test]
fn accel_config_to_runtime_flow() {
    // Configure like the paper's Fig. 9 "DWQ: 4" and use every WQ.
    let mut cfg = AccelConfig::builder();
    for _ in 0..4 {
        cfg = cfg.group(1).dedicated_wq(32);
    }
    let mut rt = DsaRuntime::builder(Platform::spr()).device(cfg.build().unwrap()).build();
    assert_eq!(rt.device(0).wq_count(), 4);
    let src = rt.alloc(4096, Location::local_dram());
    let dst = rt.alloc(4096, Location::local_dram());
    for wq in 0..4 {
        let r = Job::memcpy(&src, &dst).on_wq(wq).execute(&mut rt).unwrap();
        assert!(r.record.status.is_ok());
    }
}

#[test]
fn icx_platform_runs_the_same_stack() {
    let mut rt = DsaRuntime::builder(Platform::icx()).build();
    let src = rt.alloc(65536, Location::local_dram());
    let dst = rt.alloc(65536, Location::local_dram());
    rt.fill_random(&src);
    let r = Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
    assert!(r.record.status.is_ok());
    assert_eq!(rt.read(&src).unwrap(), rt.read(&dst).unwrap());
    // And the software model knows DDR4 is slower than DDR5.
    let spr = DsaRuntime::spr_default();
    let d = Location::local_dram();
    assert!(
        rt.cpu_time(OpKind::Memcpy, 1 << 20, d, d) > spr.cpu_time(OpKind::Memcpy, 1 << 20, d, d)
    );
}

#[test]
fn cbdma_copies_and_costs_more_than_dsa() {
    // §4.2 baseline: the same 16 KiB copy on one ICX CBDMA (pinned
    // buffers, ring-fetched descriptor) and as a DSA job.
    use dsa_device::cbdma::CbdmaDevice;
    use dsa_device::timing::CbdmaTiming;
    use dsa_mem::memory::Memory;
    use dsa_mem::memsys::MemSystem;
    use dsa_sim::SimTime;

    let len = 16 << 10;
    let mut memory = Memory::new();
    let mut memsys = MemSystem::new(Platform::spr());
    let src = memory.alloc(len, Location::local_dram());
    let dst = memory.alloc(len, Location::local_dram());
    for (i, b) in memory.read_mut(src.addr(), len).unwrap().iter_mut().enumerate() {
        *b = (i * 31) as u8;
    }
    let mut cbdma = CbdmaDevice::new(0, 4, CbdmaTiming::icx());
    cbdma.pin(src.addr(), len);
    cbdma.pin(dst.addr(), len);
    let exec = cbdma
        .submit_copy(&mut memory, &mut memsys, 0, src.addr(), dst.addr(), len, SimTime::ZERO)
        .unwrap();
    assert_eq!(memory.read(src.addr(), len).unwrap(), memory.read(dst.addr(), len).unwrap());
    let cb = exec.completed.duration_since(SimTime::ZERO);

    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(len, Location::local_dram());
    let dst = rt.alloc(len, Location::local_dram());
    let dsa = Job::memcpy(&src, &dst).execute(&mut rt).unwrap().elapsed();
    assert!(cb > dsa, "CBDMA {cb:?} should be slower than DSA {dsa:?}");
}

#[test]
fn completion_record_lands_in_memory_for_polling() {
    // The real synchronization mechanism: software allocates a completion
    // record, points the descriptor at it, and polls/UMONITORs the status
    // byte — all observable through simulated memory.
    use dsa_device::descriptor::{CompletionRecord, Descriptor};

    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(4096, Location::local_dram());
    let dst = rt.alloc(4096, Location::local_dram());
    let record_buf = rt.alloc(32, Location::Llc); // records are LLC-directed
    rt.fill_random(&src);

    // Status byte starts 0 (not complete).
    assert_eq!(rt.memory().read(record_buf.addr(), 1).unwrap()[0], 0);

    let desc =
        Descriptor::memmove(src.addr(), dst.addr(), 4096).with_completion_addr(record_buf.addr());
    let report = Job::from_descriptor(desc).execute(&mut rt).unwrap();
    assert!(report.record.status.is_ok());

    // The record is now visible in memory and parses back.
    let raw: [u8; 32] = rt.memory().read(record_buf.addr(), 32).unwrap().try_into().unwrap();
    assert_ne!(raw[0], 0, "status byte flipped — this is what UMONITOR arms on");
    let parsed = CompletionRecord::from_bytes(&raw).expect("valid record");
    assert_eq!(parsed.status, Status::Success);
    assert_eq!(parsed.bytes_completed, 4096);
}

#[test]
fn dif_strip_and_update_through_the_job_api() {
    use dsa_ops::dif::{dif_check, DifBlockSize, DifConfig};

    let mut rt = DsaRuntime::spr_default();
    let cfg = DifConfig { block: DifBlockSize::B512, app_tag: 0x11, starting_ref_tag: 5 };
    let raw = rt.alloc(4 * 512, Location::local_dram());
    let protected = rt.alloc(4 * 520, Location::local_dram());
    rt.fill_random(&raw);
    Job::dif_insert(&raw, &protected, cfg).execute(&mut rt).unwrap();

    // Strip back to raw data.
    let stripped = rt.alloc(4 * 512, Location::local_dram());
    let r = Job::dif_strip(&protected, &stripped, cfg).execute(&mut rt).unwrap();
    assert_eq!(r.record.status, Status::Success);
    assert_eq!(rt.read(&stripped).unwrap(), rt.read(&raw).unwrap());

    // Update in place (same tags in this model's device path).
    let updated = rt.alloc(4 * 520, Location::local_dram());
    let r = Job::dif_update(&protected, &updated, cfg).execute(&mut rt).unwrap();
    assert_eq!(r.record.status, Status::Success);
    let out = rt.read(&updated).unwrap().to_vec();
    dif_check(&cfg, &out).expect("updated blocks verify");
}

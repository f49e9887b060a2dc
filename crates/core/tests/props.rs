//! Property-style tests for the user-facing library: conservation and
//! routing laws over arbitrary job streams.
//!
//! Randomized inputs come from the in-repo deterministic [`SplitMix64`]
//! generator so the suite runs offline with no external test-harness
//! dependency; every case is reproducible from the fixed seeds below.

use dsa_core::dispatch::{DispatchPolicy, Dispatcher};
use dsa_core::job::{AsyncQueue, Batch, Job};
use dsa_core::runtime::DsaRuntime;
use dsa_mem::buffer::Location;
use dsa_sim::rng::SplitMix64;
use dsa_sim::time::SimTime;

const CASES: usize = 16;

#[test]
fn async_queue_conserves_jobs_and_bytes() {
    let mut rng = SplitMix64::new(0xC03E_0001);
    for _ in 0..CASES {
        let jobs = 1 + rng.next_below(39) as usize;
        let qd = 1 + rng.next_below(47) as usize;
        let mut rt = DsaRuntime::spr_default();
        let mut q = AsyncQueue::new(qd);
        let mut expected = 0u64;
        for _ in 0..jobs {
            let size = 64 + rng.next_below(65_472);
            let src = rt.alloc(size, Location::local_dram());
            let dst = rt.alloc(size, Location::local_dram());
            q.submit(&mut rt, Job::memcpy(&src, &dst)).unwrap();
            expected += size;
        }
        let end = q.drain(&mut rt);
        assert_eq!(q.completed(), jobs as u64);
        assert_eq!(q.completed_bytes(), expected);
        assert!(end > SimTime::ZERO);
        assert!(rt.now() >= end);
    }
}

#[test]
fn sync_phase_sum_equals_elapsed() {
    let mut rng = SplitMix64::new(0xC03E_0002);
    for _ in 0..CASES {
        let size = 64 + rng.next_below((1 << 20) - 64);
        let count_alloc = rng.next_u64() & 1 == 0;
        let mut rt = DsaRuntime::spr_default();
        let src = rt.alloc(size, Location::local_dram());
        let dst = rt.alloc(size, Location::local_dram());
        let report = Job::memcpy(&src, &dst).count_alloc(count_alloc).execute(&mut rt).unwrap();
        assert_eq!(report.phases.total(), report.elapsed());
        assert_eq!(report.phases.alloc.is_zero(), !count_alloc);
    }
}

#[test]
fn batch_reports_one_record_per_member() {
    let mut rng = SplitMix64::new(0xC03E_0003);
    for _ in 0..CASES {
        let members = 2 + rng.next_below(22) as usize;
        let mut rt = DsaRuntime::spr_default();
        let mut batch = Batch::new();
        for _ in 0..members {
            let size = 64 + rng.next_below(16_320);
            let src = rt.alloc(size, Location::local_dram());
            let dst = rt.alloc(size, Location::local_dram());
            batch.push(Job::memcpy(&src, &dst));
        }
        assert_eq!(batch.len(), members);
        let report = batch.execute(&mut rt).unwrap();
        assert_eq!(report.records.len(), members);
        assert!(report.records.iter().all(|r| r.status.is_ok()));
        assert_eq!(report.batch_record.bytes_completed as usize, members);
    }
}

#[test]
fn dto_routes_exactly_by_threshold() {
    let mut rng = SplitMix64::new(0xC03E_0004);
    for _ in 0..CASES {
        let calls = 1 + rng.next_below(39) as usize;
        let threshold = 512 + rng.next_below(32_256);
        let mut rt = DsaRuntime::spr_default();
        let mut dto = Dispatcher::new().with_policy(DispatchPolicy::Threshold(threshold));
        let pool = rt.alloc(65_536, Location::local_dram());
        let dstp = rt.alloc(65_536, Location::local_dram());
        let mut want_offloaded = 0u64;
        let mut want_bytes = 0u64;
        let mut want_off_bytes = 0u64;
        for _ in 0..calls {
            let size = 256 + rng.next_below(65_280);
            let src = pool.slice(0, size);
            let dst = dstp.slice(0, size);
            dto.memcpy(&mut rt, &src, &dst).unwrap();
            want_bytes += size;
            if size >= threshold {
                want_offloaded += 1;
                want_off_bytes += size;
            }
        }
        let s = dto.stats();
        assert_eq!(s.calls(), calls as u64);
        assert_eq!(s.offloaded_calls(), want_offloaded);
        assert_eq!(s.cpu_bytes + s.offloaded_bytes, want_bytes);
        assert_eq!(s.offloaded_bytes, want_off_bytes);
    }
}

#[test]
fn drain_is_a_barrier_for_any_prior_stream() {
    let mut rng = SplitMix64::new(0xC03E_0005);
    for _ in 0..CASES {
        let jobs = 1 + rng.next_below(11) as usize;
        let mut rt = DsaRuntime::spr_default();
        let mut last_completion = SimTime::ZERO;
        for _ in 0..jobs {
            let size = 1024 + rng.next_below(261_120);
            let src = rt.alloc(size, Location::local_dram());
            let dst = rt.alloc(size, Location::local_dram());
            let handle = Job::memcpy(&src, &dst).submit(&mut rt).unwrap();
            last_completion = last_completion.max(handle.completion_time());
        }
        let drain = Job::drain().submit(&mut rt).unwrap();
        assert!(
            drain.completion_time() >= last_completion,
            "drain {:?} must follow the last copy {:?}",
            drain.completion_time(),
            last_completion
        );
    }
}

#[test]
fn clock_is_monotone_across_arbitrary_job_mixes() {
    let mut rng = SplitMix64::new(0xC03E_0006);
    for _ in 0..CASES {
        let ops = 1 + rng.next_below(29) as usize;
        let mut rt = DsaRuntime::spr_default();
        let a = rt.alloc(8192, Location::local_dram());
        let b = rt.alloc(8192, Location::local_dram());
        let mut last = rt.now();
        for _ in 0..ops {
            match rng.next_below(4) {
                0 => {
                    Job::memcpy(&a, &b).execute(&mut rt).unwrap();
                }
                1 => {
                    Job::crc32(&a).execute(&mut rt).unwrap();
                }
                2 => {
                    Job::fill(&b, 0x11).execute(&mut rt).unwrap();
                }
                _ => {
                    Job::compare(&a, &b).execute(&mut rt).unwrap();
                }
            }
            assert!(rt.now() > last, "every sync job advances time");
            last = rt.now();
        }
    }
}

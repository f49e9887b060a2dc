//! Heap audit of building a runtime.
//!
//! Installs a counting global allocator and measures the bytes runtime
//! builds acquire. The LLC tag array (65,536 sets × 15 ways, 23.6 MB) is
//! built only once something allocates a line into the cache, so a fresh
//! runtime must stay far below it; a timing-only runtime holds no buffer
//! bytes, so its buffers cost only their bookkeeping. A backed runtime's
//! buffers hold no heap bytes until written: reading them with device
//! jobs, whose operands miss the device ATC, costs one zero slab as long
//! as the longest of them, and a write costs that buffer's bytes.
//!
//! One `#[test]` only: the counter is process-global, so a second parallel
//! test would count its own allocations into ours.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsa_core::job::Job;
use dsa_core::runtime::DsaRuntime;
use dsa_device::descriptor::Status;
use dsa_mem::buffer::Location;
use dsa_mem::memory::BufferHandle;
use dsa_mem::topology::Platform;
use dsa_ops::crc32::Crc32c;

/// Wraps the system allocator, counting the bytes of every heap
/// acquisition (alloc/alloc_zeroed, and the full new size of a realloc).
struct CountingAlloc;

static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`, returning the heap bytes it acquired and its result.
fn heap_bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = HEAP_BYTES.load(Ordering::Relaxed);
    let out = f();
    (HEAP_BYTES.load(Ordering::Relaxed) - before, out)
}

#[test]
fn runtime_builds_allocate_no_bulk_state() {
    let (bytes, rt) = heap_bytes(DsaRuntime::spr_default);
    drop(rt);
    assert!(bytes < 1 << 20, "a fresh runtime allocated {bytes} B, expected under 1 MiB");

    let (bytes, rt) = heap_bytes(|| {
        let mut rt = DsaRuntime::builder(Platform::spr()).timing_only().build();
        for _ in 0..64 {
            let buf = rt.alloc(1 << 20, Location::local_dram());
            rt.fill_pattern(&buf, 0xA5);
        }
        rt
    });
    assert_eq!(rt.memory().allocated_bytes(), 64 << 20);
    drop(rt);
    assert!(
        bytes < 64 << 10,
        "a timing-only runtime with 64 MiB of buffers allocated {bytes} B, expected under 64 KiB"
    );

    let zeros_crc = |len: usize| u64::from(Crc32c::checksum(&vec![0; len]));
    let (half_crc, full_crc) = (zeros_crc(1 << 19), zeros_crc(1 << 20));
    // CRC and compare of each buffer as device jobs, each translating its
    // operands' leading pages through the device ATC; every buffer reads
    // as zeros, whose CRC is `crc`.
    let read_all = |rt: &mut DsaRuntime, bufs: &[BufferHandle], crc: u64| {
        for (i, buf) in bufs.iter().enumerate() {
            let rec = Job::crc32(buf).execute(rt).expect("a CRC job runs").record;
            assert_eq!((rec.status, rec.result), (Status::Success, crc));
            let other = &bufs[(i + 1) % bufs.len()];
            let cmp = Job::compare(buf, other).execute(rt).expect("a compare job runs").record;
            assert_eq!(cmp.status, Status::Success);
        }
    };
    let mut rt = DsaRuntime::spr_default();
    // The memory model's bandwidth pipes each remember up to 4,096 idle
    // gaps. A warm-up pass over half-size buffers grows those bounded
    // lists (and a half-size zero slab) before the window opens.
    let warm: Vec<_> = (0..64).map(|_| rt.alloc(1 << 19, Location::local_dram())).collect();
    read_all(&mut rt, &warm, half_crc);
    let (bytes, bufs) = heap_bytes(|| {
        let bufs: Vec<_> = (0..64).map(|_| rt.alloc(1 << 20, Location::local_dram())).collect();
        read_all(&mut rt, &bufs, full_crc);
        bufs
    });
    assert!(
        bytes < (1 << 20) + (64 << 10),
        "reading 64 never-written 1 MiB buffers allocated {bytes} B, expected under 1 MiB + 64 KiB"
    );
    let (bytes, ()) = heap_bytes(|| rt.fill_pattern(&bufs[7], 0xA5));
    assert!(bytes >= 1 << 20, "writing a 1 MiB buffer allocated {bytes} B, expected its bytes");
}

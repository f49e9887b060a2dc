//! Heap audit of building a runtime.
//!
//! Installs a counting global allocator and measures the bytes
//! `DsaRuntime::spr_default()` acquires. The LLC tag array (65,536 sets ×
//! 15 ways, 23.6 MB) is built only once something allocates a line into
//! the cache, so a fresh runtime must stay far below it.
//!
//! One `#[test]` only: the counter is process-global, so a second parallel
//! test would count its own allocations into ours.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsa_core::runtime::DsaRuntime;

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

#[test]
fn default_runtime_builds_without_the_llc_tag_array() {
    let before = HEAP_BYTES.load(Ordering::Relaxed);
    let rt = DsaRuntime::spr_default();
    let bytes = HEAP_BYTES.load(Ordering::Relaxed) - before;
    drop(rt);
    assert!(bytes < 1 << 20, "a fresh runtime allocated {bytes} B, expected under 1 MiB");
}

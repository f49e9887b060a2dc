//! Heap audit of device ATC misses.
//!
//! Installs a counting global allocator and asserts that a full
//! 128-entry translation cache (the device ATC's size) takes 10,000
//! misses, evictions and faulting pages included, without acquiring a
//! byte: its index and slab are sized once, when it is built.
//!
//! The counter is process-global, so the binary runs without the test
//! harness (`harness = false`): the harness's main thread keeps its own
//! books while a test runs, and those allocations would land in the
//! window. Here the audit is the only thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsa_mem::buffer::PageSize;
use dsa_mem::translate::{PageTable, TranslationCache};
use dsa_sim::time::SimDuration;

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

fn main() {
    const CAPACITY: u64 = 128;
    const MISSES: u64 = 10_000;
    let mut pt = PageTable::new();
    pt.map_range(0, (CAPACITY + MISSES) * 4096, PageSize::Base4K);
    // Every seventh page faults: its miss evicts and is not cached, so
    // the slab shrinks and the next present page grows it again.
    for page in (CAPACITY..CAPACITY + MISSES).step_by(7) {
        pt.unmap_page(page * 4096);
    }
    let mut atc = TranslationCache::new(CAPACITY as usize, SimDuration::from_ns(240));
    for page in 0..CAPACITY {
        atc.translate(&pt, page * 4096);
    }
    assert_eq!(atc.cached(), CAPACITY as usize);

    let before = HEAP_BYTES.load(Ordering::Relaxed);
    let mut faults = 0;
    for page in CAPACITY..CAPACITY + MISSES {
        let out = atc.translate(&pt, page * 4096 + page % 4096);
        assert!(!out.hit);
        faults += u64::from(out.fault);
    }
    let bytes = HEAP_BYTES.load(Ordering::Relaxed) - before;

    assert_eq!(atc.misses(), CAPACITY + MISSES);
    assert_eq!(faults, MISSES.div_ceil(7));
    assert_eq!(bytes, 0, "{MISSES} misses on a full ATC allocated {bytes} B");
    println!("atc_alloc: {MISSES} misses on a full {CAPACITY}-entry ATC acquired {bytes} B");
}

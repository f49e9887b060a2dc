//! Address translation: page tables, core TLBs, device ATCs, IOMMU walks.
//!
//! DSA operates on user virtual addresses through shared virtual memory
//! (SVM): its address translation cache (ATC) asks the IOMMU to walk page
//! tables on a miss, and page faults are either blocked on or reported as
//! partial completions (paper §3.2/F1). Huge pages enlarge the reach of
//! each cached translation (paper Fig. 8).

use crate::buffer::{PageSize, SimBuffer};
use dsa_sim::time::SimDuration;
use std::collections::{BTreeMap, BTreeSet};

/// A process page table mapping virtual ranges with their page size.
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    // start -> (len, page size); ranges are disjoint.
    ranges: BTreeMap<u64, (u64, PageSize)>,
    // Bases of pages marked not present.
    unmapped_pages: BTreeSet<u64>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Maps `[base, base+len)` with the given page size.
    pub fn map_range(&mut self, base: u64, len: u64, ps: PageSize) {
        if len == 0 {
            return;
        }
        self.ranges.insert(base, (len, ps));
    }

    /// Convenience: maps a buffer's range with its page size.
    pub fn map_buffer(&mut self, buf: &SimBuffer) {
        self.map_range(buf.base(), buf.len() as u64, buf.page_size());
    }

    /// Marks the page containing `addr` as *not present* (fault injection —
    /// models lazily-allocated or swapped-out pages).
    pub fn unmap_page(&mut self, addr: u64) {
        if let Some(ps) = self.lookup(addr) {
            let page = addr / ps.bytes() * ps.bytes();
            self.unmapped_pages.insert(page);
        }
    }

    /// Makes the page containing `addr` present again (fault serviced).
    pub fn service_fault(&mut self, addr: u64) {
        if let Some(ps) = self.lookup(addr) {
            let page = addr / ps.bytes() * ps.bytes();
            self.unmapped_pages.remove(&page);
        }
    }

    /// Page size of the mapping covering `addr`, if any.
    pub fn lookup(&self, addr: u64) -> Option<PageSize> {
        let (&base, &(len, ps)) = self.ranges.range(..=addr).next_back()?;
        if addr < base + len {
            Some(ps)
        } else {
            None
        }
    }

    /// True if `addr` is mapped *and* present (would not fault).
    pub fn is_present(&self, addr: u64) -> bool {
        match self.lookup(addr) {
            None => false,
            Some(ps) => {
                let page = addr / ps.bytes() * ps.bytes();
                !self.unmapped_pages.contains(&page)
            }
        }
    }

    /// The device's fault scan over `[base, base+len)`: probes one
    /// address per 4 KiB step from `base` and returns how many probes hit
    /// a mapped, not-present page, plus the first such probe. A huge page
    /// marked not present counts once per 4 KiB step inside it. Answers
    /// `(0, None)` without probing while no page is marked not present.
    pub fn scan_faults(&self, base: u64, len: u64) -> (u64, Option<u64>) {
        if self.unmapped_pages.is_empty() {
            return (0, None);
        }
        let (mut faults, mut first) = (0, None);
        let mut a = base;
        while a < base + len {
            if self.lookup(a).is_some() && !self.is_present(a) {
                faults += 1;
                first.get_or_insert(a);
            }
            a += 4096;
        }
        (faults, first)
    }

    /// The base address of the page containing `addr`, if mapped.
    pub fn page_base(&self, addr: u64) -> Option<u64> {
        let ps = self.lookup(addr)?;
        Some(addr / ps.bytes() * ps.bytes())
    }
}

/// Outcome of a translation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslateOutcome {
    /// Time spent translating (zero on a cache hit).
    pub cost: SimDuration,
    /// Whether the page was missing (caller decides: block on fault or
    /// partially complete).
    pub fault: bool,
    /// Whether the translation cache hit.
    pub hit: bool,
}

/// An LRU translation cache — models both core TLBs and the device ATC.
///
/// ```
/// use dsa_mem::translate::{PageTable, TranslationCache};
/// use dsa_mem::buffer::PageSize;
/// use dsa_sim::time::SimDuration;
///
/// let mut pt = PageTable::new();
/// pt.map_range(0, 1 << 20, PageSize::Base4K);
/// let mut atc = TranslationCache::new(64, SimDuration::from_ns(240));
/// let first = atc.translate(&pt, 0x1234);
/// assert!(!first.hit && !first.fault);
/// let second = atc.translate(&pt, 0x1fff); // same 4 KiB page
/// assert!(second.hit && second.cost.is_zero());
/// ```
#[derive(Clone, Debug)]
pub struct TranslationCache {
    // BTreeMap, not HashMap: eviction scans the entries, and the R6
    // det-taint rule is right that hash iteration order would leak into
    // the victim choice (ticks break ties deterministically only because
    // they are unique — the *scan order* must still be stable).
    entries: BTreeMap<u64, u64>, // page base -> last use tick
    capacity: usize,
    walk_latency: SimDuration,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl TranslationCache {
    /// Creates a cache holding `capacity` translations with the given
    /// miss (walk) latency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, walk_latency: SimDuration) -> TranslationCache {
        assert!(capacity > 0, "translation cache needs capacity");
        TranslationCache {
            entries: BTreeMap::new(),
            capacity,
            walk_latency,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates `addr` against `pt`, charging a walk on a miss.
    pub fn translate(&mut self, pt: &PageTable, addr: u64) -> TranslateOutcome {
        self.tick += 1;
        let Some(ps) = pt.lookup(addr) else {
            // Unmapped address: full walk that ends in a fault.
            self.misses += 1;
            return TranslateOutcome { cost: self.walk_latency, fault: true, hit: false };
        };
        let page = addr / ps.bytes() * ps.bytes();
        let present = pt.is_present(addr);
        if let Some(t) = self.entries.get_mut(&page) {
            *t = self.tick;
            self.hits += 1;
            return TranslateOutcome { cost: SimDuration::ZERO, fault: !present, hit: true };
        }
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            // Evict the LRU entry.
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &t)| t) {
                self.entries.remove(&victim);
            }
        }
        if present {
            self.entries.insert(page, self.tick);
        }
        TranslateOutcome { cost: self.walk_latency, fault: !present, hit: false }
    }

    /// Drops every cached translation (e.g. TLB shootdown).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Hit count since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since creation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio in `[0, 1]` (zero when unused).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{AddressSpace, Location};

    fn walk() -> SimDuration {
        SimDuration::from_ns(240)
    }

    #[test]
    fn unmapped_faults() {
        let pt = PageTable::new();
        let mut atc = TranslationCache::new(4, walk());
        let o = atc.translate(&pt, 0xdead_beef);
        assert!(o.fault);
        assert_eq!(o.cost, walk());
    }

    #[test]
    fn huge_pages_extend_reach() {
        let mut pt = PageTable::new();
        pt.map_range(0, 4 << 20, PageSize::Huge2M);
        let mut atc = TranslationCache::new(4, walk());
        assert!(!atc.translate(&pt, 0).hit);
        // 1 MiB away: same 2 MiB page -> hit.
        assert!(atc.translate(&pt, 1 << 20).hit);
        // 3 MiB away: next huge page -> miss.
        assert!(!atc.translate(&pt, 3 << 20).hit);
    }

    #[test]
    fn base_pages_miss_every_4k() {
        let mut pt = PageTable::new();
        pt.map_range(0, 1 << 20, PageSize::Base4K);
        let mut atc = TranslationCache::new(512, walk());
        for page in 0..16u64 {
            assert!(!atc.translate(&pt, page * 4096).hit);
            assert!(atc.translate(&pt, page * 4096 + 64).hit);
        }
        assert_eq!(atc.misses(), 16);
        assert_eq!(atc.hits(), 16);
        assert!((atc.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_bounds_size() {
        let mut pt = PageTable::new();
        pt.map_range(0, 1 << 30, PageSize::Base4K);
        let mut atc = TranslationCache::new(8, walk());
        for page in 0..100u64 {
            atc.translate(&pt, page * 4096);
        }
        // Recently-used pages stay; ancient ones were evicted.
        assert!(atc.translate(&pt, 99 * 4096).hit);
        assert!(!atc.translate(&pt, 0).hit);
    }

    #[test]
    fn fault_injection_roundtrip() {
        let mut pt = PageTable::new();
        pt.map_range(0, 1 << 20, PageSize::Base4K);
        pt.unmap_page(0x2345);
        assert!(!pt.is_present(0x2345));
        assert!(pt.is_present(0x8000));
        let mut atc = TranslationCache::new(8, walk());
        assert!(atc.translate(&pt, 0x2345).fault);
        pt.service_fault(0x2345);
        assert!(pt.is_present(0x2345));
        assert!(!atc.translate(&pt, 0x2345).fault);
    }

    #[test]
    fn map_buffer_covers_whole_range() {
        let mut asid = AddressSpace::new();
        let b = asid.alloc(10_000, Location::local_dram());
        let mut pt = PageTable::new();
        pt.map_buffer(&b);
        assert!(pt.is_present(b.base()));
        assert!(pt.is_present(b.base() + 9_999));
        assert!(!pt.is_present(b.base() + 20_000));
        assert_eq!(pt.page_base(b.base() + 5000), Some(b.base() + 4096));
    }

    #[test]
    fn flush_empties_cache() {
        let mut pt = PageTable::new();
        pt.map_range(0, 1 << 20, PageSize::Base4K);
        let mut atc = TranslationCache::new(8, walk());
        atc.translate(&pt, 0);
        atc.flush();
        assert!(!atc.translate(&pt, 0).hit);
    }

    #[test]
    fn zero_len_map_ignored() {
        let mut pt = PageTable::new();
        pt.map_range(0x1000, 0, PageSize::Base4K);
        assert!(pt.lookup(0x1000).is_none());
    }
}

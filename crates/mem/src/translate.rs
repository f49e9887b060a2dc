//! Address translation: page tables, core TLBs, device ATCs, IOMMU walks.
//!
//! DSA operates on user virtual addresses through shared virtual memory
//! (SVM): its address translation cache (ATC) asks the IOMMU to walk page
//! tables on a miss, and page faults are either blocked on or reported as
//! partial completions (paper §3.2/F1). Huge pages enlarge the reach of
//! each cached translation (paper Fig. 8).

use crate::buffer::PageSize;
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

    /// Marks the page containing `addr` as *not present* (fault injection —
    /// models lazily-allocated or swapped-out pages).
    pub fn unmap_page(&mut self, addr: u64) {
        if let Some(page) = self.page_base(addr) {
            self.unmapped_pages.insert(page);
        }
    }

    /// Makes the page containing `addr` present again (fault serviced).
    pub fn service_fault(&mut self, addr: u64) {
        if let Some(page) = self.page_base(addr) {
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

    /// The base of the page containing `addr` and whether that page is
    /// present, from one range lookup; `None` when `addr` is unmapped.
    /// Answers `present` without a probe while no page is marked not
    /// present.
    pub fn resolve(&self, addr: u64) -> Option<(u64, bool)> {
        let page = self.page_base(addr)?;
        Some((page, self.unmapped_pages.is_empty() || !self.unmapped_pages.contains(&page)))
    }

    /// True if `addr` is mapped *and* present (would not fault).
    pub fn is_present(&self, addr: u64) -> bool {
        matches!(self.resolve(addr), Some((_, true)))
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
            if let Some((_, false)) = self.resolve(a) {
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
/// A translation costs O(log capacity) host time, with no scan over the
/// cached translations: LRU order lives in an intrusive doubly-linked
/// list over a slab of at most `capacity` nodes (front = most recently
/// touched), and an index maps each cached page base to its slot. A hit
/// moves its node to the front; a miss on a full cache evicts the tail,
/// which is exactly the least recently touched translation.
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
    // Page base -> slot in `nodes`. Nothing iterates it, so its order
    // never reaches a result.
    index: BTreeMap<u64, u32>,
    // The slab: exactly one node per cached translation, so
    // `nodes.len() == index.len() <= capacity`.
    nodes: Vec<Node>,
    // Most and least recently touched slots (`NIL` when empty).
    head: u32,
    tail: u32,
    capacity: usize,
    walk_latency: SimDuration,
    hits: u64,
    misses: u64,
}

/// One cached translation and its LRU neighbours (`NIL` at either end).
#[derive(Clone, Copy, Debug)]
struct Node {
    page: u64,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

impl TranslationCache {
    /// Creates a cache holding `capacity` translations with the given
    /// miss (walk) latency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity >= u32::MAX`.
    pub fn new(capacity: usize, walk_latency: SimDuration) -> TranslationCache {
        assert!(capacity > 0, "translation cache needs capacity");
        assert!(capacity < NIL as usize, "translation cache slots are u32");
        TranslationCache {
            index: BTreeMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            walk_latency,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates `addr` against `pt`, charging a walk on a miss.
    ///
    /// A miss on a full cache evicts the least recently touched
    /// translation even when `addr`'s page is not present and so is not
    /// cached in its place.
    pub fn translate(&mut self, pt: &PageTable, addr: u64) -> TranslateOutcome {
        let Some((page, present)) = pt.resolve(addr) else {
            // Unmapped address: full walk that ends in a fault.
            self.misses += 1;
            return TranslateOutcome { cost: self.walk_latency, fault: true, hit: false };
        };
        if let Some(&slot) = self.index.get(&page) {
            self.unlink(slot);
            self.push_front(slot);
            self.hits += 1;
            return TranslateOutcome { cost: SimDuration::ZERO, fault: !present, hit: true };
        }
        self.misses += 1;
        let freed = (self.nodes.len() >= self.capacity).then(|| self.evict_lru());
        if present {
            let slot = match freed {
                Some(slot) => {
                    self.nodes[slot as usize].page = page;
                    slot
                }
                None => {
                    self.nodes.push(Node { page, prev: NIL, next: NIL });
                    (self.nodes.len() - 1) as u32
                }
            };
            self.push_front(slot);
            self.index.insert(page, slot);
        } else if let Some(slot) = freed {
            self.release(slot);
        }
        TranslateOutcome { cost: self.walk_latency, fault: !present, hit: false }
    }

    /// Translations currently cached (the slab's length, never above
    /// the capacity).
    pub fn cached(&self) -> usize {
        self.nodes.len()
    }

    /// Unlinks the least recently touched node and drops it from the
    /// index, returning its now-free slot.
    fn evict_lru(&mut self) -> u32 {
        let slot = self.tail;
        self.unlink(slot);
        self.index.remove(&self.nodes[slot as usize].page);
        slot
    }

    /// Detaches `slot` from the LRU list.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Links a detached `slot` in as the most recently touched node.
    fn push_front(&mut self, slot: u32) {
        let old = self.head;
        self.nodes[slot as usize].prev = NIL;
        self.nodes[slot as usize].next = old;
        match old {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Removes a detached, unindexed `slot` from the slab by moving the
    /// last node into it, so the slab stays one node per translation.
    fn release(&mut self, slot: u32) {
        self.nodes.swap_remove(slot as usize);
        let Some(&moved) = self.nodes.get(slot as usize) else { return };
        match moved.prev {
            NIL => self.head = slot,
            p => self.nodes[p as usize].next = slot,
        }
        match moved.next {
            NIL => self.tail = slot,
            n => self.nodes[n as usize].prev = slot,
        }
        self.index.insert(moved.page, slot);
    }

    /// Drops every cached translation (e.g. TLB shootdown).
    pub fn flush(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
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

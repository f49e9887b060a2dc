//! Address translation: page tables, core TLBs, device ATCs, IOMMU walks.
//!
//! DSA operates on user virtual addresses through shared virtual memory
//! (SVM): its address translation cache (ATC) asks the IOMMU to walk page
//! tables on a miss, and page faults are either blocked on or reported as
//! partial completions (paper §3.2/F1). Huge pages enlarge the reach of
//! each cached translation (paper Fig. 8).

use crate::buffer::PageSize;
use dsa_sim::time::SimDuration;
use std::collections::BTreeSet;

/// A process page table mapping virtual ranges with their page size.
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    // (start, len, page size), sorted by start with one entry per start;
    // ranges are disjoint.
    ranges: Vec<(u64, u64, PageSize)>,
    // Bases of pages marked not present.
    unmapped_pages: BTreeSet<u64>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Maps `[base, base+len)` with the given page size, replacing any
    /// mapping that starts at `base`. Zero-length maps are ignored.
    pub fn map_range(&mut self, base: u64, len: u64, ps: PageSize) {
        if len == 0 {
            return;
        }
        // Buffers are bump-allocated, so a new range almost always starts
        // above every mapped one and appends.
        if self.ranges.last().is_none_or(|&(last, ..)| last < base) {
            self.ranges.push((base, len, ps));
            return;
        }
        let at = self.ranges.partition_point(|&(start, ..)| start < base);
        match self.ranges.get_mut(at) {
            Some(r) if r.0 == base => *r = (base, len, ps),
            _ => self.ranges.insert(at, (base, len, ps)),
        }
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
        let at = self.ranges.partition_point(|&(start, ..)| start <= addr);
        let &(base, len, ps) = self.ranges.get(at.checked_sub(1)?)?;
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
/// A translation costs O(1) expected host time and never touches the
/// heap: both structures are allocated once, when the cache is built.
/// LRU order lives in an intrusive doubly-linked list over a slab of at
/// most `capacity` nodes (front = most recently touched), and a fixed
/// open-addressing table indexes each cached page base to its slot. The
/// table holds a power-of-two number of entries, at least twice the
/// capacity, so it is never more than half full; a page probes linearly
/// from a fixed multiplicative hash of its page number, and a removal
/// shifts the rest of its probe chain back. A hit moves its node to the
/// front; a miss on a full cache evicts the tail, which is exactly the
/// least recently touched translation.
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
    // Open-addressing index: each entry is a slot in `nodes`, or `NIL`
    // when empty. Nothing iterates it, so its order never reaches a
    // result.
    index: Box<[u32]>,
    // `64 - log2(index.len())`: a hash's top bits pick the home entry.
    shift: u32,
    // The slab: exactly one node per cached translation, so
    // `nodes.len()` is the number of indexed slots, at most `capacity`.
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
        let entries = (2 * capacity).next_power_of_two();
        TranslationCache {
            index: vec![NIL; entries].into_boxed_slice(),
            shift: 64 - entries.trailing_zeros(),
            nodes: Vec::with_capacity(capacity),
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
        if let Ok(at) = self.probe(page) {
            let slot = self.index[at];
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
            // The eviction may have shifted entries, so probe again.
            let (Ok(at) | Err(at)) = self.probe(page);
            self.index[at] = slot;
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

    /// The index entry a probe for `page` starts at.
    fn home(&self, page: u64) -> usize {
        ((page >> 12).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The index entry holding `page`'s slot, or else the empty entry
    /// that ends its probe chain. Terminates because the index is never
    /// full.
    fn probe(&self, page: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut at = self.home(page);
        loop {
            match self.index[at] {
                NIL => return Err(at),
                slot if self.nodes[slot as usize].page == page => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Empties index entry `hole`, shifting back each later entry of the
    /// probe chain whose home lies at or before the hole, so every cached
    /// page stays reachable from its home without tombstones.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let slot = self.index[at];
            if slot == NIL {
                break;
            }
            let home = self.home(self.nodes[slot as usize].page);
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = at;
            }
        }
        self.index[hole] = NIL;
    }

    /// Unlinks the least recently touched node and drops it from the
    /// index, returning its now-free slot.
    fn evict_lru(&mut self) -> u32 {
        let slot = self.tail;
        self.unlink(slot);
        if let Ok(at) = self.probe(self.nodes[slot as usize].page) {
            self.unindex(at);
        }
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
    /// last node into it, so the slab stays one node per translation,
    /// and re-points the moved node's index entry.
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
        // Found by its old slot, which no longer names a node.
        let (mask, old) = (self.index.len() - 1, self.nodes.len() as u32);
        let mut at = self.home(moved.page);
        while self.index[at] != old {
            at = (at + 1) & mask;
        }
        self.index[at] = slot;
    }

    /// Drops every cached translation (e.g. TLB shootdown).
    pub fn flush(&mut self) {
        self.index.fill(NIL);
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

    /// Every cached node is indexed exactly once and its probe finds it;
    /// returns whether some entry sits before its home, its chain having
    /// wrapped past the end of the table.
    fn check_index(atc: &TranslationCache) -> bool {
        let indexed = atc.index.iter().filter(|&&slot| slot != NIL).count();
        assert_eq!(indexed, atc.nodes.len());
        for (slot, node) in atc.nodes.iter().enumerate() {
            let at = atc.probe(node.page).expect("cached page is indexed");
            assert_eq!(atc.index[at], slot as u32);
        }
        atc.index
            .iter()
            .enumerate()
            .any(|(at, &slot)| slot != NIL && atc.home(atc.nodes[slot as usize].page) > at)
    }

    #[test]
    fn dense_streams_wrap_probe_chains_and_keep_the_index_exact() {
        let mut rng = dsa_sim::rng::SplitMix64::new(0x7AB1E);
        for capacity in [1usize, 3, 127, 129, 512] {
            // A few more pages than the cache holds, scattered (a run of
            // consecutive pages hashes evenly and seldom collides), one
            // of them swapped for a fresh one at every other step, so the
            // cache stays full while the set of homes keeps changing.
            let space = 1u64 << 18;
            let mut pool: Vec<u64> = (0..capacity + 3).map(|_| rng.next_below(space)).collect();
            let mut pt = PageTable::new();
            pt.map_range(0, space * 4096, PageSize::Base4K);
            let mut atc = TranslationCache::new(capacity, walk());
            let mut wrapped = 0;
            for step in 0..20 * capacity.max(8) {
                let pick = rng.next_below(pool.len() as u64) as usize;
                if rng.next_below(2) == 0 {
                    pool[pick] = rng.next_below(space);
                }
                let addr = pool[pick] * 4096;
                match rng.next_below(16) {
                    0 => pt.unmap_page(addr),
                    1 => pt.service_fault(addr),
                    _ => {}
                }
                atc.translate(&pt, addr);
                if step % 7 == 0 || capacity < 8 {
                    wrapped += usize::from(check_index(&atc));
                }
            }
            assert!(capacity == 1 || wrapped > 0, "capacity {capacity}: no chain wrapped");
        }
    }
}

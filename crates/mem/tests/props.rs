//! Property-style tests for the memory-system model: cache conservation
//! laws, address-space safety, translation consistency, DDIO spill bounds.
//!
//! Randomized inputs come from the in-repo deterministic [`SplitMix64`]
//! generator so the suite runs offline with no external test-harness
//! dependency; every case is reproducible from the fixed seeds below.

use dsa_mem::agent::AgentId;
use dsa_mem::buffer::{Location, PageSize};
use dsa_mem::cache::{AllocPolicy, DdioTracker, Llc, WayMask};
use dsa_mem::memory::{MemError, Memory};
use dsa_mem::translate::{PageTable, TranslateOutcome, TranslationCache};
use dsa_sim::rng::SplitMix64;
use dsa_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

const CASES: usize = 32;

#[test]
fn llc_occupancy_is_conserved() {
    let mut rng = SplitMix64::new(0x3E3_0001);
    for _ in 0..CASES {
        let accesses = 1 + rng.next_below(499) as usize;
        let mut llc = Llc::new(64 << 10, 8, 64);
        for _ in 0..accesses {
            let agent = rng.next_below(4) as u16;
            let addr = rng.next_below(1 << 16);
            let policy = if rng.next_u64() & 1 == 0 {
                AllocPolicy::NoAllocInvalidate
            } else {
                AllocPolicy::AllocOnMiss
            };
            llc.access(AgentId::core(agent), addr, policy, WayMask::ALL);
            // Invariants after every access:
            assert!(llc.total_occupancy_bytes() <= llc.capacity_bytes());
            let per_agent: u64 = (0..4).map(|a| llc.occupancy_bytes(AgentId::core(a))).sum();
            assert_eq!(per_agent, llc.total_occupancy_bytes());
        }
    }
}

#[test]
fn llc_way_mask_confines_each_agent() {
    let mut rng = SplitMix64::new(0x3E3_0002);
    for _ in 0..CASES {
        // Agent 0 restricted to 2 of 8 ways; it can never hold more than
        // 2/8 of the cache.
        let mut llc = Llc::new(32 << 10, 8, 64);
        let mask = WayMask::range(0, 2);
        for _ in 0..1 + rng.next_below(399) {
            let addr = rng.next_below(1 << 18);
            llc.access(AgentId::io(0), addr, AllocPolicy::AllocOnMiss, mask);
            assert!(llc.occupancy_bytes(AgentId::io(0)) <= llc.capacity_bytes() / 4);
        }
    }
}

#[test]
fn llc_flush_leaves_no_trace() {
    let mut rng = SplitMix64::new(0x3E3_0003);
    for _ in 0..CASES {
        let base = rng.next_below(1 << 20);
        let lines = 1 + rng.next_below(63);
        let mut llc = Llc::new(64 << 10, 8, 64);
        let a = AgentId::core(0);
        for i in 0..lines {
            llc.access(a, base + i * 64, AllocPolicy::AllocOnMiss, WayMask::ALL);
        }
        llc.flush_range(base, lines * 64);
        for i in 0..lines {
            let r = llc.access(a, base + i * 64, AllocPolicy::NoAlloc, WayMask::ALL);
            assert!(!r.hit, "line {i} survived a flush");
        }
    }
}

#[test]
fn memory_roundtrips_at_arbitrary_offsets() {
    let mut rng = SplitMix64::new(0x3E3_0004);
    for _ in 0..CASES {
        let len = 1 + rng.next_below(8191);
        let mut m = Memory::new();
        let buf = m.alloc(len, Location::local_dram());
        let mut shadow = vec![0u8; len as usize];
        for _ in 0..1 + rng.next_below(49) {
            let off = rng.next_below(len);
            let val = rng.next_u64() as u8;
            m.write(buf.addr() + off, &[val]).unwrap();
            shadow[off as usize] = val;
        }
        assert_eq!(m.read(buf.addr(), len).unwrap(), &shadow[..]);
    }
}

#[test]
fn memory_copy_is_memmove() {
    let mut rng = SplitMix64::new(0x3E3_0005);
    for _ in 0..CASES {
        let len = 8 + rng.next_below(248);
        let src_off = rng.next_below(64);
        let dst_off = rng.next_below(64);
        let mut m = Memory::new();
        let buf = m.alloc(512, Location::local_dram());
        let data: Vec<u8> = (0..512u32).map(|i| i as u8).collect();
        m.write(buf.addr(), &data).unwrap();
        let mut shadow = data.clone();
        m.copy(buf.addr() + src_off, buf.addr() + dst_off, len).unwrap();
        shadow.copy_within(src_off as usize..(src_off + len) as usize, dst_off as usize);
        assert_eq!(m.read(buf.addr(), 512).unwrap(), &shadow[..]);
    }
}

#[test]
fn out_of_range_accesses_always_fail() {
    let mut rng = SplitMix64::new(0x3E3_0006);
    for _ in 0..CASES {
        let len = 1 + rng.next_below(4095);
        let over = 1 + rng.next_below(4095);
        let mut m = Memory::new();
        let buf = m.alloc(len, Location::local_dram());
        assert!(m.read(buf.addr() + len + over + (4 << 20), 1).is_err());
        assert!(m.read(buf.addr(), len + (4 << 20)).is_err());
    }
}

#[test]
fn translation_hits_iff_page_cached() {
    let mut rng = SplitMix64::new(0x3E3_0007);
    for _ in 0..CASES {
        let mut pt = PageTable::new();
        pt.map_range(0, 32 * 4096, PageSize::Base4K);
        let mut atc = TranslationCache::new(64, SimDuration::from_ns(100));
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1 + rng.next_below(99) {
            let p = rng.next_below(32);
            let out = atc.translate(&pt, p * 4096 + 123);
            assert!(!out.fault);
            // With capacity 64 > 32 pages, a page hits iff seen before.
            assert_eq!(out.hit, seen.contains(&p));
            assert_eq!(out.cost.is_zero(), out.hit);
            seen.insert(p);
        }
    }
}

/// [`TranslationCache`] as it stood before its linked-list LRU: each
/// cached page base carries the tick of its last touch, and a miss on a
/// full cache scans every entry for the minimum tick. Also counts the
/// capacity evictions it makes.
struct MinTickCache {
    entries: BTreeMap<u64, u64>,
    capacity: usize,
    walk_latency: SimDuration,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl MinTickCache {
    fn new(capacity: usize, walk_latency: SimDuration) -> MinTickCache {
        MinTickCache {
            entries: BTreeMap::new(),
            capacity,
            walk_latency,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn translate(&mut self, pt: &PageTable, addr: u64) -> TranslateOutcome {
        self.tick += 1;
        let Some(ps) = pt.lookup(addr) else {
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
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &t)| t) {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        if present {
            self.entries.insert(page, self.tick);
        }
        TranslateOutcome { cost: self.walk_latency, fault: !present, hit: false }
    }

    fn flush(&mut self) {
        self.entries.clear();
    }
}

#[test]
fn lru_translation_cache_matches_the_min_tick_reference() {
    let mut rng = SplitMix64::new(0x3E3_000D);
    let (mut hits, mut faults, mut evictions, mut flushes) = (0u64, 0u64, 0u64, 0u64);
    for capacity in [1usize, 2, 8, 128] {
        for _ in 0..8 {
            // A 4 KiB mapping with half again as many pages as the cache
            // holds, a hole, then eight 2 MiB pages.
            let small_pages = (capacity + capacity / 2 + 2) as u64;
            let (small, hole, huge) = (1u64 << 30, 1u64 << 31, 1u64 << 32);
            let mut pt = PageTable::new();
            pt.map_range(small, small_pages * 4096, PageSize::Base4K);
            pt.map_range(huge, 8 << 21, PageSize::Huge2M);
            let pick = |rng: &mut SplitMix64| {
                if rng.next_below(4) == 0 {
                    huge + rng.next_below(8 << 21)
                } else {
                    small + rng.next_below(small_pages * 4096)
                }
            };
            let walk = SimDuration::from_ns(100 + capacity as u64);
            let mut lru = TranslationCache::new(capacity, walk);
            let mut reference = MinTickCache::new(capacity, walk);
            let mut marked = Vec::new();
            for step in 0..3_000 {
                let addr = match rng.next_below(32) {
                    0 | 1 => hole + rng.next_below(1 << 20),
                    2 | 3 => {
                        let a = pick(&mut rng);
                        pt.unmap_page(a);
                        marked.push(a);
                        continue;
                    }
                    4 | 5 => {
                        if let Some(a) = marked.pop() {
                            pt.service_fault(a);
                        }
                        continue;
                    }
                    6 if rng.next_below(16) == 0 => {
                        lru.flush();
                        reference.flush();
                        flushes += 1;
                        continue;
                    }
                    _ => pick(&mut rng),
                };
                let want = reference.translate(&pt, addr);
                assert_eq!(
                    lru.translate(&pt, addr),
                    want,
                    "capacity {capacity}, step {step}, addr {addr:#x}"
                );
                assert_eq!(lru.cached(), reference.entries.len());
                assert!(lru.cached() <= capacity, "slab outgrew the capacity");
                hits += u64::from(want.hit);
                faults += u64::from(want.fault);
            }
            assert_eq!((lru.hits(), lru.misses()), (reference.hits, reference.misses));
            evictions += reference.evictions;
        }
    }
    assert!(
        hits > 0 && faults > 0 && evictions > 0 && flushes > 0,
        "hits {hits}, faults {faults}, evictions {evictions}, flushes {flushes}"
    );
}

#[test]
fn huge_pages_never_translate_slower() {
    let mut rng = SplitMix64::new(0x3E3_0008);
    for _ in 0..CASES {
        let mut pt4k = PageTable::new();
        pt4k.map_range(0, 8 << 20, PageSize::Base4K);
        let mut pt2m = PageTable::new();
        pt2m.map_range(0, 8 << 20, PageSize::Huge2M);
        let mut atc4k = TranslationCache::new(32, SimDuration::from_ns(100));
        let mut atc2m = TranslationCache::new(32, SimDuration::from_ns(100));
        for _ in 0..1 + rng.next_below(199) {
            let a = rng.next_below(8 << 20);
            atc4k.translate(&pt4k, a);
            atc2m.translate(&pt2m, a);
        }
        assert!(
            atc2m.misses() <= atc4k.misses(),
            "2M pages can only reduce walk count: {} vs {}",
            atc2m.misses(),
            atc4k.misses()
        );
    }
}

#[test]
fn ddio_spill_fraction_is_bounded_and_monotone() {
    let mut rng = SplitMix64::new(0x3E3_0009);
    for _ in 0..CASES {
        let mut t = DdioTracker::new(1 << 20, SimDuration::from_ms(10));
        let mut last = 0.0f64;
        for _ in 0..1 + rng.next_below(99) {
            let addr = rng.next_below(1 << 24);
            let bytes = 1 + rng.next_below((1 << 18) - 1);
            let f = t.write(SimTime::ZERO, addr, bytes);
            assert!((0.0..=1.0).contains(&f), "spill fraction {f}");
            // Within one window the footprint only grows, so the spill
            // fraction is non-decreasing.
            assert!(f >= last - 1e-12);
            last = f;
        }
    }
}

/// A random allocation: length 0..3 MiB, either page size, any location.
fn random_alloc(rng: &mut SplitMix64) -> (u64, Location, PageSize) {
    let len = rng.next_below(3 << 20);
    let ps = if rng.next_below(4) == 0 { PageSize::Huge2M } else { PageSize::Base4K };
    let loc = [Location::local_dram(), Location::remote_dram(), Location::Cxl, Location::Llc]
        [rng.next_below(4) as usize];
    (len, loc, ps)
}

#[test]
fn timing_only_memory_hands_out_the_backed_layout() {
    let mut rng = SplitMix64::new(0x3E3_000A);
    for _ in 0..CASES {
        let mut backed = Memory::new();
        let mut timing = Memory::timing_only();
        for _ in 0..1 + rng.next_below(12) {
            let (len, loc, ps) = random_alloc(&mut rng);
            let h = backed.alloc_with_pages(len, loc, ps);
            assert_eq!(timing.alloc_with_pages(len, loc, ps), h);
            if len > 0 {
                let a = h.addr() + rng.next_below(len);
                assert_eq!(timing.location_of(a), backed.location_of(a));
                assert_eq!(timing.page_size_of(a), backed.page_size_of(a));
            }
        }
        assert!(timing.iter_segments().eq(backed.iter_segments()));
        assert_eq!(timing.allocated_bytes(), backed.allocated_bytes());
    }
}

/// A copy fails on a bad range wherever its allocations hold bytes: a
/// timing-only memory fails exactly where a backed one does, and so does a
/// memory mixing backed and unbacked allocations, which may add only
/// `NoBytes` for an unbacked source feeding a backed destination.
#[test]
fn timing_only_copy_fails_exactly_where_a_backed_copy_fails() {
    let mut rng = SplitMix64::new(0x3E3_000B);
    let mut outcomes = [0u32; 4];
    for _ in 0..CASES {
        let mut backed = Memory::new();
        let mut timing = Memory::timing_only();
        let mut mixed = Memory::new();
        let mut bufs = Vec::new();
        for _ in 0..2 + rng.next_below(4) {
            let len = 1 + rng.next_below(64 << 10);
            let h = backed.alloc(len, Location::local_dram());
            let unbacked = rng.next_below(2) == 0;
            let (t, m) = if unbacked {
                let ub = |m: &mut Memory| {
                    m.alloc_unbacked_with_pages(len, Location::local_dram(), PageSize::Base4K)
                };
                (ub(&mut timing), ub(&mut mixed))
            } else {
                (
                    timing.alloc(len, Location::local_dram()),
                    mixed.alloc(len, Location::local_dram()),
                )
            };
            assert_eq!((t, m), (h, h));
            bufs.push(h);
        }
        for _ in 0..64 {
            // Addresses in, just past, and far outside the buffers, so
            // valid, unmapped and cross-segment ranges all come up.
            let pick = |rng: &mut SplitMix64| {
                let b = bufs[rng.next_below(bufs.len() as u64) as usize];
                match rng.next_below(8) {
                    0 => rng.next_below(1 << 20),
                    1 => b.addr() + b.len() + rng.next_below(1 << 13),
                    _ => b.addr() + rng.next_below(b.len()),
                }
            };
            let (src, dst) = (pick(&mut rng), pick(&mut rng));
            let len = rng.next_below(16 << 10);
            let got = backed.copy(src, dst, len);
            assert_eq!(timing.copy(src, dst, len), got);
            let starves = got.is_ok()
                && mixed.holds_bytes(dst, len) == Ok(true)
                && mixed.holds_bytes(src, len) == Ok(false);
            let want = if starves { Err(MemError::NoBytes { addr: src }) } else { got };
            assert_eq!(mixed.copy(src, dst, len), want);
            outcomes[match want {
                Ok(()) => 0,
                Err(MemError::Unmapped { .. }) => 1,
                Err(MemError::CrossesSegments { .. }) => 2,
                Err(MemError::NoBytes { .. }) => 3,
            }] += 1;
        }
    }
    assert!(outcomes.iter().all(|&n| n > 0), "ok/unmapped/crossing/no-bytes counts {outcomes:?}");
}

/// In one memory, a backed buffer never takes bytes from an unbacked one
/// and an unbacked one never holds any: backed -> unbacked succeeds and
/// moves nothing, unbacked -> backed fails with `NoBytes` and leaves the
/// destination as it was, and backed -> backed copies across an unbacked
/// allocation in between. A never-written backed buffer holds zeros: it
/// zero-fills what it is copied into, takes bytes copied into it, and
/// copies between two of them (or within one) leave zeros.
#[test]
fn mixed_memory_copies_never_invent_bytes() {
    let mut m = Memory::new();
    let d = Location::local_dram();
    let lo = m.alloc(64, d);
    let hole = m.alloc_unbacked_with_pages(64, d, PageSize::Base4K);
    let hi = m.alloc(64, d);
    assert_eq!(m.holds_bytes(lo.addr(), 64), Ok(true));
    assert_eq!(m.holds_bytes(hole.addr(), 64), Ok(false));
    assert_eq!(
        m.holds_bytes(hole.addr() + 60, 8),
        Err(MemError::CrossesSegments { addr: hole.addr() + 60 })
    );
    m.write(lo.addr(), &[7; 64]).unwrap();
    m.write(hi.addr(), &[9; 64]).unwrap();

    assert_eq!(m.copy(lo.addr(), hole.addr(), 64), Ok(()));
    assert_eq!(m.read(hole.addr(), 1), Err(MemError::NoBytes { addr: hole.addr() }));
    assert_eq!(m.read(lo.addr(), 64).unwrap(), &[7; 64]);

    assert_eq!(
        m.copy(hole.addr() + 8, hi.addr(), 32),
        Err(MemError::NoBytes { addr: hole.addr() + 8 })
    );
    assert_eq!(m.read(hi.addr(), 64).unwrap(), &[9; 64]);
    // Range errors still come first.
    assert_eq!(
        m.copy(hole.addr(), hi.addr() + 40, 32),
        Err(MemError::CrossesSegments { addr: hi.addr() + 40 })
    );

    m.copy(lo.addr(), hi.addr() + 16, 32).unwrap();
    assert_eq!(m.read(hi.addr(), 64).unwrap(), [[9; 16], [7; 16], [7; 16], [9; 16]].concat());
    m.copy(hi.addr(), lo.addr(), 16).unwrap();
    assert_eq!(m.read(lo.addr(), 32).unwrap(), [[9; 16], [7; 16]].concat());

    // Never-written backed buffers, one of them between two written ones.
    let fresh = m.alloc(64, d);
    let fresh2 = m.alloc(64, d);
    let top = m.alloc(64, d);
    m.write(top.addr(), &[5; 64]).unwrap();
    assert_eq!(m.holds_bytes(fresh.addr(), 64), Ok(true));
    assert_eq!(m.copy(fresh.addr(), hole.addr(), 64), Ok(()));
    assert_eq!(m.copy(hole.addr(), fresh.addr(), 64), Err(MemError::NoBytes { addr: hole.addr() }));
    m.copy(fresh.addr(), fresh2.addr() + 8, 32).unwrap();
    m.copy(fresh2.addr() + 8, fresh2.addr(), 32).unwrap();
    m.copy(fresh.addr() + 4, hi.addr() + 8, 8).unwrap();
    assert_eq!(m.read(hi.addr(), 24).unwrap(), [[9; 8], [0; 8], [7; 8]].concat());
    // Across the never-written buffers, in both directions.
    m.copy(top.addr(), lo.addr() + 48, 16).unwrap();
    assert_eq!(m.read(lo.addr() + 32, 32).unwrap(), [[7; 16], [5; 16]].concat());
    m.copy(lo.addr(), top.addr(), 16).unwrap();
    assert_eq!(m.read(top.addr(), 32).unwrap(), [[9; 16], [5; 16]].concat());
    m.copy(lo.addr(), fresh2.addr() + 16, 16).unwrap();
    assert_eq!(m.read(fresh2.addr(), 48).unwrap(), [[0; 16], [9; 16], [0; 16]].concat());
    assert!(m.read(fresh.addr(), 64).unwrap().iter().all(|&x| x == 0));
    assert_eq!(m.backed_bytes(), 5 * 64);
}

/// The device's fault scan as it stood before [`PageTable::scan_faults`]:
/// probe every 4 KiB step, count mapped-but-not-present probes.
fn scan_faults_reference(pt: &PageTable, base: u64, len: u64) -> (u64, Option<u64>) {
    let (mut faults, mut first) = (0, None);
    let mut a = base;
    while a < base + len {
        if pt.lookup(a).is_some() && !pt.is_present(a) {
            faults += 1;
            if first.is_none() {
                first = Some(a);
            }
        }
        a += 4096;
    }
    (faults, first)
}

#[test]
fn scan_faults_matches_the_per_page_reference() {
    let mut rng = SplitMix64::new(0x3E3_000C);
    let mut faulted = 0u32;
    for _ in 0..CASES {
        // Random 4 KiB and 2 MiB mappings at page-aligned bases, with
        // holes between them.
        let mut pt = PageTable::new();
        let mut ranges = Vec::new();
        let mut next = 1u64 << 30;
        for _ in 0..1 + rng.next_below(6) {
            let ps = if rng.next_below(3) == 0 { PageSize::Huge2M } else { PageSize::Base4K };
            let base = next.div_ceil(ps.bytes()) * ps.bytes();
            let len = 1 + rng.next_below(6 << 20);
            pt.map_range(base, len, ps);
            ranges.push((base, len));
            next = base + len + rng.next_below(1 << 20);
        }
        let probe = |rng: &mut SplitMix64| {
            let (base, len) = ranges[rng.next_below(ranges.len() as u64) as usize];
            base + rng.next_below(len + (64 << 10))
        };
        let check = |pt: &PageTable, rng: &mut SplitMix64, faulted: &mut u32| {
            for _ in 0..16 {
                // Unaligned bases, lengths from empty to past the mapping.
                let base = probe(rng) - rng.next_below(8 << 10);
                let len = rng.next_below(3 << 20);
                let got = pt.scan_faults(base, len);
                assert_eq!(got, scan_faults_reference(pt, base, len));
                *faulted += u32::from(got.0 > 0);
            }
        };
        check(&pt, &mut rng, &mut faulted);
        // 0–16 pages marked not present, then serviced one by one.
        let marked: Vec<u64> = (0..rng.next_below(17)).map(|_| probe(&mut rng)).collect();
        for &a in &marked {
            pt.unmap_page(a);
        }
        check(&pt, &mut rng, &mut faulted);
        for &a in &marked {
            pt.service_fault(a);
            check(&pt, &mut rng, &mut faulted);
        }
        assert_eq!(pt.scan_faults(ranges[0].0, 8 << 20), (0, None), "every fault serviced");
    }
    assert!(faulted > CASES as u32, "only {faulted} scans met a not-present page");
}

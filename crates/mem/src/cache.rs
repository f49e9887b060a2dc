//! Last-level cache model: set-associative, way-partitioned, with DDIO ways
//! and per-agent occupancy accounting.
//!
//! Reproduces the cache-side phenomena the paper measures:
//!
//! * **Cache pollution** (Figs. 12/13): software `memcpy()` allocates both
//!   its source reads and destination writes into the shared LLC, evicting
//!   co-running applications' data; DSA reads *never* allocate and DSA
//!   writes with the cache-control flag set are confined to the DDIO ways.
//! * **Way partitioning / CAT** (§4.1): experiments isolate cores to subsets
//!   of ways via a per-access [`WayMask`], mirroring `pqos`.
//! * **The leaky-DMA problem** (Fig. 10): when the inbound write footprint
//!   outruns the DDIO share of the LLC, writes spill to DRAM and throughput
//!   becomes memory-bound. [`DdioTracker`] measures the spill fraction.

use crate::agent::AgentId;
use dsa_sim::time::{SimDuration, SimTime};

/// A bitmask over LLC ways an access is allowed to allocate into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WayMask(pub u32);

impl WayMask {
    /// Allows allocation into every way.
    pub const ALL: WayMask = WayMask(u32::MAX);

    /// A mask covering ways `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `hi > 32`.
    pub fn range(lo: u32, hi: u32) -> WayMask {
        assert!(lo < hi && hi <= 32, "invalid way range {lo}..{hi}");
        let width = hi - lo;
        let bits = if width == 32 { u32::MAX } else { ((1u32 << width) - 1) << lo };
        WayMask(bits)
    }

    /// True if way `w` is allowed.
    pub fn allows(self, w: u32) -> bool {
        self.0 & (1 << w) != 0
    }
}

/// How an access interacts with allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Allocate the line on a miss (normal core load/store).
    AllocOnMiss,
    /// Never allocate; serve from cache on hit, memory on miss
    /// (DSA source reads, non-temporal core loads).
    NoAlloc,
    /// Never allocate and *invalidate* the line if present
    /// (DSA destination writes with cache-control = 0).
    NoAllocInvalidate,
}

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was found in the cache.
    pub hit: bool,
    /// Whether the access evicted a valid line owned by a *different* agent
    /// (the pollution signal).
    pub evicted_other: bool,
}

/// One LLC way: `(key, last_use, owner)`. `key` is `line + 1` of the line
/// the way holds, or 0 when the way is invalid; `last_use` is the `tick`
/// of its last use (LRU order); `owner` is the [`AgentId::slot`] of the
/// agent that allocated it. All-zero is the invalid way, so the tag
/// array is built with one zeroed allocation. That is still a memset of
/// the whole array (23.6 MB for the SPR LLC: the allocator hands back
/// reused, dirty heap), which is why [`Llc`] builds it only on the first
/// access that allocates a line.
type Way = (u64, u64, u16);

/// The set-associative LLC.
///
/// ```
/// use dsa_mem::cache::{AllocPolicy, Llc, WayMask};
/// use dsa_mem::agent::AgentId;
/// let mut llc = Llc::new(1 << 20, 16, 64); // 1 MiB, 16-way, 64-B lines
/// let core = AgentId::core(0);
/// let miss = llc.access(core, 0x1000, AllocPolicy::AllocOnMiss, WayMask::ALL);
/// assert!(!miss.hit);
/// let hit = llc.access(core, 0x1000, AllocPolicy::AllocOnMiss, WayMask::ALL);
/// assert!(hit.hit);
/// assert_eq!(llc.occupancy_bytes(core), 64);
/// ```
#[derive(Clone, Debug)]
pub struct Llc {
    /// Every way of every set, indexed `set * ways + way`; empty until
    /// the first allocating access, as an empty cache misses every probe.
    entries: Vec<Way>,
    sets: u64,
    ways: u32,
    line_size: u64,
    tick: u64,
    occupancy: Vec<u64>, // lines held, indexed by AgentId slot
}

impl Llc {
    /// Creates a cache of `capacity_bytes` with `ways` ways and
    /// `line_size`-byte lines. The set count is rounded down to a power of
    /// two so indexing stays a shift.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets, ways > 32, …).
    pub fn new(capacity_bytes: u64, ways: u32, line_size: u64) -> Llc {
        assert!((1..=32).contains(&ways), "ways must be in 1..=32");
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        let raw_sets = capacity_bytes / (ways as u64 * line_size);
        assert!(raw_sets >= 1, "cache too small for its geometry");
        let sets = 1u64 << (63 - raw_sets.leading_zeros());
        Llc {
            entries: Vec::new(),
            sets,
            ways,
            line_size,
            tick: 0,
            occupancy: vec![0; AgentId::SLOTS],
        }
    }

    /// Effective capacity in bytes (after set rounding).
    pub fn capacity_bytes(&self) -> u64 {
        self.sets * self.ways as u64 * self.line_size
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of ways.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    fn set_index(&self, addr: u64) -> u64 {
        // Mix the upper bits so page-strided streams spread over sets.
        let line = addr / self.line_size;
        let h = line ^ (line >> 13) ^ (line >> 29);
        h & (self.sets - 1)
    }

    /// The nonzero key a way holds for the line containing `addr`.
    fn line_key(&self, addr: u64) -> u64 {
        addr / self.line_size + 1
    }

    /// The per-way indices of `addr`'s set.
    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let base = (self.set_index(addr) * self.ways as u64) as usize;
        base..base + self.ways as usize
    }

    /// Performs one line-granular access.
    pub fn access(
        &mut self,
        owner: AgentId,
        addr: u64,
        policy: AllocPolicy,
        mask: WayMask,
    ) -> AccessResult {
        self.tick += 1;
        if self.entries.is_empty() {
            if policy != AllocPolicy::AllocOnMiss {
                return AccessResult { hit: false, evicted_other: false };
            }
            self.entries = vec![(0, 0, 0); (self.sets * self.ways as u64) as usize];
        }
        let key = self.line_key(addr);
        let ways = self.set_range(addr);

        // Probe every way (data may live outside the allocation mask).
        if let Some(way) = self.entries[ways.clone()].iter_mut().find(|w| w.0 == key) {
            match policy {
                AllocPolicy::NoAllocInvalidate => {
                    way.0 = 0;
                    self.occupancy[usize::from(way.2)] -= 1;
                }
                _ => way.1 = self.tick,
            }
            return AccessResult { hit: true, evicted_other: false };
        }

        // Miss.
        if matches!(policy, AllocPolicy::NoAlloc | AllocPolicy::NoAllocInvalidate) {
            return AccessResult { hit: false, evicted_other: false };
        }

        // Choose a victim: an invalid allowed way, else LRU among allowed.
        let mut victim: Option<usize> = None;
        let mut victim_lru = u64::MAX;
        let slots = &mut self.entries[ways];
        for (w, &(k, last_use, _)) in slots.iter().enumerate() {
            if !mask.allows(w as u32) {
                continue;
            }
            if k == 0 {
                victim = Some(w);
                break;
            }
            if last_use < victim_lru {
                victim_lru = last_use;
                victim = Some(w);
            }
        }
        let Some(w) = victim else {
            // Mask allows no way present in this cache: treat as uncached.
            return AccessResult { hit: false, evicted_other: false };
        };
        // Slots are below `AgentId::SLOTS`, so they fit a u16.
        let slot = owner.slot() as u16;
        let (old_key, _, old_owner) = slots[w];
        let mut evicted_other = false;
        if old_key != 0 {
            self.occupancy[usize::from(old_owner)] -= 1;
            evicted_other = old_owner != slot;
        }
        slots[w] = (key, self.tick, slot);
        self.occupancy[owner.slot()] += 1;
        AccessResult { hit: false, evicted_other }
    }

    /// Invalidates every line in `[start, start+len)` (the DSA Cache Flush
    /// operation / `clflush` loops).
    ///
    /// Returns the number of lines invalidated.
    pub fn flush_range(&mut self, start: u64, len: u64) -> u64 {
        if len == 0 || self.entries.is_empty() {
            return 0;
        }
        let first = start / self.line_size;
        let last = (start + len - 1) / self.line_size;
        let mut flushed = 0;
        for line in first..=last {
            let addr = line * self.line_size;
            let key = self.line_key(addr);
            let ways = self.set_range(addr);
            for way in &mut self.entries[ways] {
                if way.0 == key {
                    way.0 = 0;
                    self.occupancy[usize::from(way.2)] -= 1;
                    flushed += 1;
                }
            }
        }
        flushed
    }

    /// Bytes currently resident that were allocated by `owner`.
    pub fn occupancy_bytes(&self, owner: AgentId) -> u64 {
        self.occupancy[owner.slot()] * self.line_size
    }

    /// Bytes currently resident across all owners.
    pub fn total_occupancy_bytes(&self) -> u64 {
        self.occupancy.iter().sum::<u64>() * self.line_size
    }
}

/// Sliding-window tracker for the DDIO share of the LLC.
///
/// Inbound allocating writes (cache-control = 1) land in the DDIO ways.
/// When the *unique write footprint* per window exceeds the DDIO capacity,
/// lines start evicting each other and the excess "leaks" to DRAM (the
/// *leaky DMA* problem, paper Fig. 10 and its ref. \[64\]). Footprint is what matters,
/// not volume: re-writing the same buffers (small-transfer benchmarks with
/// reused rings) stays within the DDIO ways no matter the byte rate.
///
/// Footprint is tracked at a coarse granule so the tracker stays O(1) per
/// write; the returned spill fraction is the steady-state miss probability
/// `1 - capacity/footprint` once the footprint exceeds capacity.
#[derive(Clone, Debug)]
pub struct DdioTracker {
    capacity: u64,
    window: SimDuration,
    window_start: SimTime,
    #[expect(
        clippy::disallowed_types,
        reason = "never iterated: only `insert`, `clear` and `len` touch it"
    )]
    granules: std::collections::HashSet<u64>,
}

/// Footprint tracking granule.
const DDIO_GRANULE: u64 = 16 * 1024;

impl DdioTracker {
    /// Tracks a DDIO share of `capacity` bytes with the given averaging
    /// window.
    #[expect(
        clippy::disallowed_types,
        reason = "builds the granule set, which is never iterated: only `insert`, `clear` and `len` touch it"
    )]
    pub fn new(capacity: u64, window: SimDuration) -> DdioTracker {
        DdioTracker {
            capacity,
            window,
            window_start: SimTime::ZERO,
            granules: std::collections::HashSet::new(),
        }
    }

    /// Capacity being tracked.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current unique footprint within the window, in bytes.
    pub fn footprint(&self) -> u64 {
        self.granules.len() as u64 * DDIO_GRANULE
    }

    /// Records an allocating write of `bytes` at `[addr, addr+bytes)` at
    /// `now`; returns the fraction (0.0..=1.0) expected to spill past the
    /// DDIO ways to DRAM.
    pub fn write(&mut self, now: SimTime, addr: u64, bytes: u64) -> f64 {
        if now.saturating_duration_since(self.window_start) > self.window {
            self.window_start = now;
            self.granules.clear();
        }
        if bytes == 0 {
            return 0.0;
        }
        let first = addr / DDIO_GRANULE;
        let last = (addr + bytes - 1) / DDIO_GRANULE;
        for g in first..=last {
            self.granules.insert(g);
        }
        let footprint = self.footprint();
        if footprint <= self.capacity {
            0.0
        } else {
            1.0 - self.capacity as f64 / footprint as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentId;

    fn small_llc() -> Llc {
        Llc::new(8 * 1024, 4, 64) // 32 sets x 4 ways x 64 B
    }

    #[test]
    fn hit_after_alloc() {
        let mut c = small_llc();
        let a = AgentId::core(0);
        assert!(!c.access(a, 0x40, AllocPolicy::AllocOnMiss, WayMask::ALL).hit);
        assert!(c.access(a, 0x40, AllocPolicy::AllocOnMiss, WayMask::ALL).hit);
        assert!(c.access(a, 0x7f, AllocPolicy::AllocOnMiss, WayMask::ALL).hit, "same line");
    }

    #[test]
    fn no_alloc_never_allocates() {
        let mut c = small_llc();
        let d = AgentId::dsa(0);
        assert!(!c.access(d, 0x40, AllocPolicy::NoAlloc, WayMask::ALL).hit);
        assert!(!c.access(d, 0x40, AllocPolicy::NoAlloc, WayMask::ALL).hit);
        assert_eq!(c.occupancy_bytes(d), 0);
    }

    #[test]
    fn no_alloc_hits_existing_lines() {
        let mut c = small_llc();
        let core = AgentId::core(0);
        let d = AgentId::dsa(0);
        c.access(core, 0x40, AllocPolicy::AllocOnMiss, WayMask::ALL);
        assert!(c.access(d, 0x40, AllocPolicy::NoAlloc, WayMask::ALL).hit);
    }

    #[test]
    fn invalidating_write_removes_line() {
        let mut c = small_llc();
        let core = AgentId::core(0);
        c.access(core, 0x40, AllocPolicy::AllocOnMiss, WayMask::ALL);
        assert_eq!(c.occupancy_bytes(core), 64);
        let r = c.access(AgentId::dsa(0), 0x40, AllocPolicy::NoAllocInvalidate, WayMask::ALL);
        assert!(r.hit);
        assert_eq!(c.occupancy_bytes(core), 0);
        // Subsequent access misses.
        assert!(!c.access(core, 0x40, AllocPolicy::NoAlloc, WayMask::ALL).hit);
    }

    #[test]
    fn lru_evicts_oldest_and_tracks_pollution() {
        let mut c = Llc::new(256, 4, 64); // exactly one set
        assert_eq!(c.capacity_bytes(), 256);
        let a = AgentId::core(0);
        let b = AgentId::core(1);
        // Fill the set with agent a.
        for i in 0..4u64 {
            c.access(a, i * 64 * c_sets_stride(&c), AllocPolicy::AllocOnMiss, WayMask::ALL);
        }
        assert_eq!(c.occupancy_bytes(a), 256);
        // Agent b allocates: must evict a's oldest.
        let r = c.access(b, 4 * 64 * c_sets_stride(&c), AllocPolicy::AllocOnMiss, WayMask::ALL);
        assert!(r.evicted_other);
        assert_eq!(c.occupancy_bytes(a), 192);
        assert_eq!(c.occupancy_bytes(b), 64);
    }

    /// Stride (in lines) that maps successive allocations onto set 0 for a
    /// single-set cache — with one set every address maps to set 0, so the
    /// stride is simply 1.
    fn c_sets_stride(_c: &Llc) -> u64 {
        1
    }

    #[test]
    fn way_mask_confines_allocations() {
        let mut c = Llc::new(256, 4, 64); // one set, 4 ways
        let io = AgentId::dsa(0);
        let mask = WayMask::range(0, 2); // DDIO-style: 2 of 4 ways
        for i in 0..8u64 {
            c.access(io, i * 64, AllocPolicy::AllocOnMiss, mask);
        }
        // Never occupies more than its 2 ways.
        assert!(c.occupancy_bytes(io) <= 2 * 64);
    }

    #[test]
    fn flush_range_invalidates() {
        let mut c = small_llc();
        let a = AgentId::core(0);
        for i in 0..16u64 {
            c.access(a, i * 64, AllocPolicy::AllocOnMiss, WayMask::ALL);
        }
        assert_eq!(c.occupancy_bytes(a), 16 * 64);
        let flushed = c.flush_range(0, 16 * 64);
        assert_eq!(flushed, 16);
        assert_eq!(c.occupancy_bytes(a), 0);
        assert_eq!(c.flush_range(0, 0), 0);
    }

    #[test]
    fn fresh_cache_probes_miss_until_something_allocates() {
        let mut c = Llc::new(32 << 20, 15, 64);
        let a = AgentId::core(0);
        assert_eq!(c.flush_range(0, 1 << 20), 0);
        assert!(!c.access(a, 0x40, AllocPolicy::NoAlloc, WayMask::ALL).hit);
        assert!(!c.access(a, 0x40, AllocPolicy::NoAllocInvalidate, WayMask::ALL).hit);
        assert!(c.entries.is_empty(), "non-allocating probes leave the tag array unbuilt");
        assert!(!c.access(a, 0x40, AllocPolicy::AllocOnMiss, WayMask::ALL).hit);
        assert!(c.access(a, 0x40, AllocPolicy::AllocOnMiss, WayMask::ALL).hit);
        assert_eq!(c.occupancy_bytes(a), 64);
        assert_eq!(c.flush_range(0, 1 << 20), 1);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small_llc();
        let a = AgentId::core(0);
        for i in 0..10_000u64 {
            c.access(a, i * 64, AllocPolicy::AllocOnMiss, WayMask::ALL);
        }
        assert!(c.total_occupancy_bytes() <= c.capacity_bytes());
    }

    #[test]
    fn way_mask_range_bits() {
        assert_eq!(WayMask::range(0, 2).0, 0b11);
        assert_eq!(WayMask::range(2, 4).0, 0b1100);
        assert!(WayMask::range(0, 32).allows(31));
        assert!(!WayMask::range(1, 3).allows(0));
    }

    #[test]
    #[should_panic(expected = "invalid way range")]
    fn bad_way_range_panics() {
        WayMask::range(3, 3);
    }

    #[test]
    fn ddio_tracker_footprint_not_volume() {
        let cap = 1 << 20; // 1 MiB of DDIO
        let mut t = DdioTracker::new(cap, SimDuration::from_us(1));
        let now = SimTime::ZERO;
        // Re-writing the same 256 KiB buffer forever never spills.
        for _ in 0..100 {
            assert_eq!(t.write(now, 0x10000, 256 << 10), 0.0);
        }
        assert_eq!(t.footprint(), 256 << 10);
        // Streaming over a 4 MiB region does spill.
        let mut spilled = 0.0;
        for i in 0..256u64 {
            spilled = t.write(now, 0x100_0000 + i * (16 << 10), 16 << 10);
        }
        assert!(spilled > 0.7, "footprint >> capacity must spill: {spilled}");
    }

    #[test]
    fn ddio_tracker_window_resets() {
        let cap = 1 << 20;
        let mut t = DdioTracker::new(cap, SimDuration::from_us(1));
        for i in 0..256u64 {
            t.write(SimTime::ZERO, i * (16 << 10), 16 << 10);
        }
        assert!(t.footprint() > cap);
        // After the window passes, the footprint is forgotten.
        assert_eq!(t.write(SimTime::from_us(5), 0, 4096), 0.0);
        assert_eq!(t.capacity(), cap);
    }
}

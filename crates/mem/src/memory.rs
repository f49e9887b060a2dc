//! Shared-virtual-memory contents: the byte store devices and cores access.
//!
//! DSA operates directly on user virtual addresses (SVM, paper §3.2/F1).
//! [`Memory`] is the process address space as a *content* store: buffers are
//! allocated at page-aligned virtual addresses with a declared
//! [`Location`], and both CPU-side code and the device models read/write
//! them through plain addresses — exactly how descriptors reference data.
//!
//! Timing lives in [`MemSystem`](crate::memsys::MemSystem); contents live
//! here. The two are kept separate so functional execution can never
//! accidentally depend on timing state or vice versa.
//!
//! Whether an allocation holds bytes is a property of that allocation.
//! A *backed* one holds no heap bytes until something writes it: while
//! never written it reads as zeros from one zero slab the [`Memory`]
//! owns (as long as its longest backed allocation). Its first
//! [`Memory::read_mut`] or [`Memory::write`], or a [`Memory::copy`] of
//! written bytes into it, materializes that allocation alone. A copy from
//! a never-written source zero-fills the destination range, which a
//! never-written destination already is, so it stays unmaterialized.
//! Reading a never-written buffer therefore costs what its arithmetic
//! costs, without faulting in pages nobody has written, and every read
//! still returns the bytes the allocation holds.
//!
//! An *unbacked* one ([`Memory::alloc_unbacked_with_pages`]) gets the
//! address, length, page size and location a backed one would, but no
//! bytes: every byte access to it fails with [`MemError::NoBytes`], and a
//! copy into it validates both ranges and moves nothing. A copy from an
//! unbacked source into a backed destination fails with
//! [`MemError::NoBytes`], so a backed buffer never silently keeps stale
//! bytes. Buffers whose contents nobody reads (the write-only operands of
//! the figure sweeps) are unbacked; in a [`Memory::timing_only`] address
//! space (the control plane's digital twins) every allocation is.

use crate::buffer::{Location, PageSize};
use std::collections::BTreeMap;
use std::fmt;

/// A handle to an allocated region (cheap to copy, like a pointer+len).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufferHandle {
    base: u64,
    len: u64,
}

impl BufferHandle {
    /// Starting virtual address.
    pub fn addr(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-range of this buffer.
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds the buffer.
    pub fn slice(&self, offset: u64, len: u64) -> BufferHandle {
        assert!(offset + len <= self.len, "slice {offset}+{len} outside buffer of {}", self.len);
        BufferHandle { base: self.base + offset, len }
    }
}

#[derive(Debug)]
struct Segment {
    /// Declared length. `data` holds that many bytes in a backed
    /// allocation that has been written, and is `None` otherwise. (A
    /// boxed slice, not a `Vec`, so the segment is no larger than when the
    /// `Vec` carried the length.)
    len: u64,
    data: Option<Box<[u8]>>,
    /// Backed but never written: reads come from the zero slab. A flag in
    /// the struct's padding rather than a third state of `data`, so the
    /// segment stays 32 bytes.
    zero: bool,
    location: Location,
    page_size: PageSize,
}

impl Segment {
    fn holds_bytes(&self) -> bool {
        self.zero || self.data.is_some()
    }

    /// All of the segment's bytes, or `None` when it is unbacked.
    fn bytes<'a>(&'a self, zeros: &'a [u8]) -> Option<&'a [u8]> {
        match &self.data {
            Some(data) => Some(data),
            None => self.zero.then(|| &zeros[..self.len as usize]),
        }
    }

    /// Gives a never-written segment bytes of its own, all zero.
    fn materialize(&mut self) {
        if self.zero {
            self.zero = false;
            self.data = Some(vec![0; self.len as usize].into());
        }
    }
}

/// Errors from address-based access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// The range touches unallocated address space.
    Unmapped {
        /// Offending address.
        addr: u64,
    },
    /// The range spans more than one allocation (descriptors may not).
    CrossesSegments {
        /// Start of the offending range.
        addr: u64,
    },
    /// The range is valid but its allocation is unbacked: it holds no
    /// bytes to read or write.
    NoBytes {
        /// Start of the range.
        addr: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemError::CrossesSegments { addr } => {
                write!(f, "range at {addr:#x} crosses allocation boundaries")
            }
            MemError::NoBytes { addr } => {
                write!(f, "range at {addr:#x} is in an unbacked allocation that holds no bytes")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// The process address space as a content store.
///
/// ```
/// use dsa_mem::memory::Memory;
/// use dsa_mem::buffer::Location;
/// let mut mem = Memory::new();
/// let buf = mem.alloc(64, Location::local_dram());
/// mem.write(buf.addr(), &[1, 2, 3]).unwrap();
/// assert_eq!(mem.read(buf.addr(), 3).unwrap(), &[1, 2, 3]);
/// ```
#[derive(Debug, Default)]
pub struct Memory {
    segments: BTreeMap<u64, Segment>,
    next_base: u64,
    timing_only: bool,
    /// Zeros as long as the longest backed allocation: the bytes of every
    /// never-written one.
    zeros: Box<[u8]>,
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory { next_base: 0x1000_0000, ..Memory::default() }
    }

    /// Creates an empty address space in which every allocation is
    /// unbacked: allocations get the addresses [`new`](Memory::new) would
    /// give them, copies only validate their ranges, and reads and writes
    /// fail with [`MemError::NoBytes`].
    pub fn timing_only() -> Memory {
        Memory { timing_only: true, ..Memory::new() }
    }

    /// Whether the range at `addr` holds bytes: false in an unbacked
    /// allocation.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or spans allocations.
    pub fn holds_bytes(&self, addr: u64, len: u64) -> Result<bool, MemError> {
        Ok(self.segment_of(addr, len)?.1.holds_bytes())
    }

    /// Allocates `len` bytes in `location` with 4 KiB pages.
    ///
    /// Every byte of a fresh allocation reads as zero, whatever its length
    /// or page size, so callers that want a zeroed buffer need not fill
    /// it.
    pub fn alloc(&mut self, len: u64, location: Location) -> BufferHandle {
        self.alloc_with_pages(len, location, PageSize::Base4K)
    }

    /// Allocates with an explicit page size; zeroed like
    /// [`alloc`](Memory::alloc).
    pub fn alloc_with_pages(
        &mut self,
        len: u64,
        location: Location,
        page_size: PageSize,
    ) -> BufferHandle {
        self.insert(len, location, page_size, !self.timing_only)
    }

    /// Allocates like [`alloc_with_pages`](Memory::alloc_with_pages) —
    /// same address, length, page size and location — but holds no bytes:
    /// reads and writes fail with [`MemError::NoBytes`] and copies into
    /// it move nothing.
    pub fn alloc_unbacked_with_pages(
        &mut self,
        len: u64,
        location: Location,
        page_size: PageSize,
    ) -> BufferHandle {
        self.insert(len, location, page_size, false)
    }

    fn insert(
        &mut self,
        len: u64,
        location: Location,
        page_size: PageSize,
        backed: bool,
    ) -> BufferHandle {
        let align = page_size.bytes();
        let base = self.next_base.div_ceil(align) * align;
        let span = (len.div_ceil(align) * align).max(align);
        self.next_base = base + span;
        if backed && len as usize > self.zeros.len() {
            self.zeros = vec![0; len as usize].into();
        }
        self.segments.insert(base, Segment { len, data: None, zero: backed, location, page_size });
        BufferHandle { base, len }
    }

    fn segment_of(&self, addr: u64, len: u64) -> Result<(u64, &Segment), MemError> {
        let (&base, seg) =
            self.segments.range(..=addr).next_back().ok_or(MemError::Unmapped { addr })?;
        if addr >= base + seg.len {
            return Err(MemError::Unmapped { addr });
        }
        if addr + len > base + seg.len {
            return Err(MemError::CrossesSegments { addr });
        }
        Ok((base, seg))
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or spans allocations, or with
    /// [`MemError::NoBytes`] in an unbacked allocation.
    pub fn read(&self, addr: u64, len: u64) -> Result<&[u8], MemError> {
        let (base, seg) = self.segment_of(addr, len)?;
        let data = seg.bytes(&self.zeros).ok_or(MemError::NoBytes { addr })?;
        let off = (addr - base) as usize;
        Ok(&data[off..off + len as usize])
    }

    /// Writes `bytes` at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or spans allocations, or with
    /// [`MemError::NoBytes`] in an unbacked allocation.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        self.read_mut(addr, bytes.len() as u64)?.copy_from_slice(bytes);
        Ok(())
    }

    /// Mutable view of a range.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or spans allocations, or with
    /// [`MemError::NoBytes`] in an unbacked allocation.
    pub fn read_mut(&mut self, addr: u64, len: u64) -> Result<&mut [u8], MemError> {
        let (base, _) = self.segment_of(addr, len)?;
        let seg = self.segments.get_mut(&base).ok_or(MemError::Unmapped { addr })?;
        seg.materialize();
        let data = seg.data.as_deref_mut().ok_or(MemError::NoBytes { addr })?;
        let off = (addr - base) as usize;
        Ok(&mut data[off..off + len as usize])
    }

    /// Copies `len` bytes from `src` to `dst` (may be in different
    /// allocations; overlapping ranges have `memmove` semantics).
    ///
    /// A copy into an unbacked destination validates both ranges and
    /// moves nothing. A copy from a never-written source zero-fills the
    /// destination range, which a never-written destination already is.
    ///
    /// # Errors
    ///
    /// Fails if either range is invalid, or with [`MemError::NoBytes`]
    /// when an unbacked source would feed a backed destination; no byte
    /// moves unless the copy succeeds.
    pub fn copy(&mut self, src: u64, dst: u64, len: u64) -> Result<(), MemError> {
        let (src_base, src_seg) = self.segment_of(src, len)?;
        let (src_backed, src_zero) = (src_seg.holds_bytes(), src_seg.zero);
        let (dst_base, dst_seg) = self.segment_of(dst, len)?;
        if !dst_seg.holds_bytes() {
            return Ok(());
        }
        if !src_backed {
            return Err(MemError::NoBytes { addr: src });
        }
        if src_zero {
            if !dst_seg.zero {
                self.read_mut(dst, len)?.fill(0);
            }
            return Ok(());
        }
        let (from, to, n) = ((src - src_base) as usize, (dst - dst_base) as usize, len as usize);
        if let Some(seg) = self.segments.get_mut(&dst_base) {
            seg.materialize();
        }
        // Both ends now hold written bytes, so skipping the allocations in
        // between that hold none leaves the ends as the first and last
        // items.
        let mut ends = self
            .segments
            .range_mut(src_base.min(dst_base)..=src_base.max(dst_base))
            .filter_map(|(_, seg)| seg.data.as_deref_mut());
        let Some(first) = ends.next() else { return Err(MemError::Unmapped { addr: src }) };
        match ends.next_back() {
            // Same allocation: the ranges may overlap.
            None => first.copy_within(from..from + n, to),
            Some(last) => {
                let (s, d) = if src_base < dst_base { (first, last) } else { (last, first) };
                d[to..to + n].copy_from_slice(&s[from..from + n]);
            }
        }
        Ok(())
    }

    /// The declared location of the allocation containing `addr`.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is unmapped.
    pub fn location_of(&self, addr: u64) -> Result<Location, MemError> {
        Ok(self.segment_of(addr, 1)?.1.location)
    }

    /// The page size of the allocation containing `addr`.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is unmapped.
    pub fn page_size_of(&self, addr: u64) -> Result<PageSize, MemError> {
        Ok(self.segment_of(addr, 1)?.1.page_size)
    }

    /// Re-declares the location of the allocation containing `addr`
    /// (data warmed into the LLC, or migrated between tiers).
    ///
    /// # Errors
    ///
    /// Fails if `addr` is unmapped.
    pub fn set_location(&mut self, addr: u64, location: Location) -> Result<(), MemError> {
        let (base, _) = self.segment_of(addr, 1)?;
        self.segments.get_mut(&base).ok_or(MemError::Unmapped { addr })?.location = location;
        Ok(())
    }

    /// Iterates over `(base, len, location, page_size)` of all allocations —
    /// used to populate page tables.
    pub fn iter_segments(&self) -> impl Iterator<Item = (u64, u64, Location, PageSize)> + '_ {
        self.segments.iter().map(|(&b, s)| (b, s.len, s.location, s.page_size))
    }

    /// Total allocated bytes (declared lengths, unbacked allocations
    /// included).
    pub fn allocated_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.len).sum()
    }

    /// Total bytes held: the lengths of the allocations that hold bytes
    /// (0 in a timing-only address space).
    pub fn backed_bytes(&self) -> u64 {
        self.segments.values().filter(|s| s.holds_bytes()).map(|s| s.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new();
        let b = m.alloc(100, Location::local_dram());
        m.write(b.addr() + 10, &[5, 6, 7]).unwrap();
        assert_eq!(m.read(b.addr() + 10, 3).unwrap(), &[5, 6, 7]);
        assert_eq!(m.read(b.addr(), 1).unwrap(), &[0]);
    }

    #[test]
    fn fresh_allocations_read_as_zeros() {
        let mut m = Memory::new();
        for (i, len) in [1u64, 7, 100, 2049, 4095, 4097, 65_537].into_iter().enumerate() {
            let ps = if i % 2 == 0 { PageSize::Base4K } else { PageSize::Huge2M };
            let b = m.alloc_with_pages(len, Location::local_dram(), ps);
            assert!(m.read(b.addr(), len).unwrap().iter().all(|&x| x == 0), "len {len}");
            // Dirty it, so the next allocation cannot pass by reusing it.
            m.read_mut(b.addr(), len).unwrap().fill(0xA5);
        }
    }

    /// Which of `m`'s allocations hold bytes of their own, in address
    /// order.
    fn materialized(m: &Memory) -> Vec<bool> {
        m.segments.values().map(|s| s.data.is_some()).collect()
    }

    #[test]
    fn segment_stays_32_bytes() {
        // A fleet holds hundreds of thousands of segments.
        assert_eq!(std::mem::size_of::<Segment>(), 32);
    }

    #[test]
    fn writing_materializes_only_its_own_allocation() {
        let mut m = Memory::new();
        let bufs: Vec<_> = (0..3).map(|_| m.alloc(4096, Location::local_dram())).collect();
        assert!(m.read(bufs[1].addr(), 4096).unwrap().iter().all(|&x| x == 0));
        assert_eq!(materialized(&m), [false; 3], "reading holds no bytes");
        assert_eq!(m.backed_bytes(), 3 * 4096);
        m.write(bufs[1].addr() + 100, &[7]).unwrap();
        assert_eq!(materialized(&m), [false, true, false]);
        assert_eq!(m.read(bufs[1].addr() + 99, 3).unwrap(), &[0, 7, 0]);
        m.read_mut(bufs[2].addr(), 1).unwrap();
        assert_eq!(materialized(&m), [false, true, true]);
        assert_eq!(m.backed_bytes(), 3 * 4096);
    }

    #[test]
    fn copy_from_a_never_written_source_zeroes_the_destination_range() {
        let mut m = Memory::new();
        let zero = m.alloc(64, Location::local_dram());
        let dirty = m.alloc(64, Location::local_dram());
        m.write(dirty.addr(), &[0xEE; 64]).unwrap();
        m.copy(zero.addr() + 8, dirty.addr() + 16, 32).unwrap();
        assert_eq!(m.read(dirty.addr(), 16).unwrap(), &[0xEE; 16]);
        assert_eq!(m.read(dirty.addr() + 16, 32).unwrap(), &[0; 32]);
        assert_eq!(m.read(dirty.addr() + 48, 16).unwrap(), &[0xEE; 16]);
        assert_eq!(materialized(&m), [false, true], "the source stays unwritten");
        // A written source materializes a never-written destination.
        let fresh = m.alloc(64, Location::Cxl);
        m.copy(dirty.addr(), fresh.addr(), 64).unwrap();
        assert_eq!(m.read(fresh.addr(), 64).unwrap(), m.read(dirty.addr(), 64).unwrap());
        assert_eq!(materialized(&m), [false, true, true]);
    }

    #[test]
    fn zero_to_zero_copies_move_nothing() {
        let mut m = Memory::new();
        let a = m.alloc(64, Location::local_dram());
        let between = m.alloc(16, Location::local_dram());
        let b = m.alloc(64, Location::Cxl);
        m.write(between.addr(), &[3; 16]).unwrap();
        m.copy(a.addr(), b.addr() + 8, 56).unwrap();
        m.copy(b.addr(), a.addr(), 64).unwrap();
        m.copy(a.addr(), a.addr() + 4, 60).unwrap();
        assert_eq!(materialized(&m), [false, true, false]);
        assert!(m.read(a.addr(), 64).unwrap().iter().all(|&x| x == 0));
        assert!(m.read(b.addr(), 64).unwrap().iter().all(|&x| x == 0));
        // Bad ranges still fail.
        assert_eq!(
            m.copy(a.addr(), b.addr() + 32, 64),
            Err(MemError::CrossesSegments { addr: b.addr() + 32 })
        );
    }

    #[test]
    fn the_zero_slab_grows_with_the_longest_backed_allocation() {
        let mut m = Memory::new();
        m.alloc_unbacked_with_pages(1 << 20, Location::local_dram(), PageSize::Base4K);
        assert_eq!(m.zeros.len(), 0, "unbacked allocations need no zeros");
        let small = m.alloc(100, Location::local_dram());
        let big = m.alloc(10_000, Location::local_dram());
        m.alloc(50, Location::local_dram());
        assert_eq!(m.zeros.len(), 10_000);
        assert_eq!(m.read(small.addr(), 100).unwrap().len(), 100);
        assert!(m.read(big.addr() + 9_000, 1_000).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn unmapped_access_fails() {
        let m = Memory::new();
        assert_eq!(m.read(0x123, 1), Err(MemError::Unmapped { addr: 0x123 }));
    }

    #[test]
    fn cross_segment_access_fails() {
        let mut m = Memory::new();
        let b = m.alloc(100, Location::local_dram());
        assert!(matches!(
            m.read(b.addr() + 90, 20),
            Err(MemError::CrossesSegments { .. }) | Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn copy_between_allocations() {
        let mut m = Memory::new();
        let a = m.alloc(64, Location::local_dram());
        let b = m.alloc(64, Location::Cxl);
        m.write(a.addr(), &[9u8; 64]).unwrap();
        m.copy(a.addr(), b.addr(), 64).unwrap();
        assert_eq!(m.read(b.addr(), 64).unwrap(), &[9u8; 64]);
    }

    #[test]
    fn overlapping_copy_is_memmove() {
        let mut m = Memory::new();
        let b = m.alloc(16, Location::local_dram());
        m.write(b.addr(), &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        m.copy(b.addr(), b.addr() + 2, 6).unwrap();
        assert_eq!(m.read(b.addr(), 8).unwrap(), &[1, 2, 1, 2, 3, 4, 5, 6]);
        m.copy(b.addr() + 2, b.addr(), 6).unwrap();
        assert_eq!(m.read(b.addr(), 8).unwrap(), &[1, 2, 3, 4, 5, 6, 5, 6]);
    }

    #[test]
    fn copy_across_segments_in_both_directions() {
        let mut m = Memory::new();
        let lo = m.alloc(64, Location::local_dram());
        let mid = m.alloc(16, Location::local_dram());
        let hi = m.alloc(64, Location::Cxl);
        let pattern: Vec<u8> = (0..32).collect();
        m.write(lo.addr() + 8, &pattern).unwrap();
        // Source below the destination, with a segment in between.
        m.copy(lo.addr() + 8, hi.addr() + 16, 32).unwrap();
        assert_eq!(m.read(hi.addr() + 16, 32).unwrap(), &pattern[..]);
        assert_eq!(m.read(hi.addr(), 16).unwrap(), &[0; 16]);
        assert_eq!(m.read(hi.addr() + 48, 16).unwrap(), &[0; 16]);
        // Source above the destination.
        m.write(hi.addr(), &[7; 8]).unwrap();
        m.copy(hi.addr(), lo.addr(), 24).unwrap();
        assert_eq!(m.read(lo.addr(), 8).unwrap(), &[7; 8]);
        assert_eq!(m.read(lo.addr() + 8, 8).unwrap(), &[0; 8]);
        assert_eq!(m.read(lo.addr() + 16, 8).unwrap(), &pattern[..8]);
        assert_eq!(m.read(lo.addr() + 24, 16).unwrap(), &pattern[16..], "past the copy");
        assert_eq!(m.read(mid.addr(), 16).unwrap(), &[0; 16], "segment between is untouched");
    }

    #[test]
    fn zero_length_copy_moves_nothing() {
        let mut m = Memory::new();
        let a = m.alloc(8, Location::local_dram());
        let b = m.alloc(8, Location::local_dram());
        m.write(a.addr(), &[1; 8]).unwrap();
        m.copy(a.addr(), b.addr(), 0).unwrap();
        m.copy(a.addr() + 3, a.addr() + 1, 0).unwrap();
        assert_eq!(m.read(b.addr(), 8).unwrap(), &[0; 8]);
        assert_eq!(m.read(a.addr(), 8).unwrap(), &[1; 8]);
    }

    #[test]
    fn invalid_copy_reports_the_error_and_writes_nothing() {
        let mut m = Memory::new();
        let a = m.alloc(32, Location::local_dram());
        let b = m.alloc(32, Location::local_dram());
        m.write(a.addr(), &[5; 32]).unwrap();
        let unmapped = 0x10;
        let crossing = a.addr() + 16;
        // Bad source: the destination keeps its bytes.
        assert_eq!(m.copy(unmapped, b.addr(), 8), Err(MemError::Unmapped { addr: unmapped }));
        assert_eq!(
            m.copy(crossing, b.addr(), 32),
            Err(MemError::CrossesSegments { addr: crossing })
        );
        assert_eq!(m.read(b.addr(), 32).unwrap(), &[0; 32]);
        // Bad destination: nothing lands in the part that is mapped.
        let crossing = b.addr() + 16;
        assert_eq!(m.copy(a.addr(), unmapped, 8), Err(MemError::Unmapped { addr: unmapped }));
        assert_eq!(
            m.copy(a.addr(), crossing, 32),
            Err(MemError::CrossesSegments { addr: crossing })
        );
        assert_eq!(m.read(b.addr(), 32).unwrap(), &[0; 32]);
    }

    #[test]
    fn location_metadata() {
        let mut m = Memory::new();
        let b = m.alloc(10, Location::Cxl);
        assert_eq!(m.location_of(b.addr()).unwrap(), Location::Cxl);
        m.set_location(b.addr(), Location::Llc).unwrap();
        assert_eq!(m.location_of(b.addr() + 5).unwrap(), Location::Llc);
    }

    #[test]
    fn handle_slicing() {
        let mut m = Memory::new();
        let b = m.alloc(100, Location::local_dram());
        let s = b.slice(10, 20);
        assert_eq!(s.addr(), b.addr() + 10);
        assert_eq!(s.len(), 20);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside buffer")]
    fn oversized_slice_panics() {
        let mut m = Memory::new();
        let b = m.alloc(10, Location::local_dram());
        b.slice(5, 10);
    }

    #[test]
    fn segments_iteration_and_accounting() {
        let mut m = Memory::new();
        m.alloc(10, Location::local_dram());
        m.alloc(20, Location::Cxl);
        m.alloc_unbacked_with_pages(40, Location::local_dram(), PageSize::Base4K);
        assert_eq!(m.allocated_bytes(), 70);
        assert_eq!(m.backed_bytes(), 30);
        assert_eq!(m.iter_segments().count(), 3);
    }

    #[test]
    fn timing_only_byte_access_is_a_typed_error() {
        let mut m = Memory::timing_only();
        let b = m.alloc(64, Location::local_dram());
        assert_eq!(m.holds_bytes(b.addr(), 64), Ok(false));
        assert_eq!((m.allocated_bytes(), m.backed_bytes()), (64, 0));
        let no_bytes = MemError::NoBytes { addr: b.addr() + 8 };
        assert_eq!(m.read(b.addr() + 8, 16), Err(no_bytes));
        assert_eq!(m.read(b.addr() + 8, 0), Err(no_bytes), "never an empty slice");
        assert_eq!(m.read_mut(b.addr() + 8, 16).err(), Some(no_bytes));
        assert_eq!(m.write(b.addr() + 8, &[1, 2]), Err(no_bytes));
        // Bad ranges keep their own errors.
        assert_eq!(m.read(0x10, 1), Err(MemError::Unmapped { addr: 0x10 }));
        assert_eq!(
            m.write(b.addr() + 60, &[0; 8]),
            Err(MemError::CrossesSegments { addr: b.addr() + 60 })
        );
        assert_eq!(m.copy(b.addr(), b.addr() + 32, 32), Ok(()));
        assert!(MemError::NoBytes { addr: 0x40 }.to_string().contains("unbacked"));
    }

    #[test]
    fn huge_page_allocation_alignment() {
        let mut m = Memory::new();
        let b = m.alloc_with_pages(10, Location::local_dram(), PageSize::Huge2M);
        assert_eq!(b.addr() % PageSize::Huge2M.bytes(), 0);
        assert_eq!(m.page_size_of(b.addr()).unwrap(), PageSize::Huge2M);
    }
}

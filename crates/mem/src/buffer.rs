//! Simulated buffers and the virtual address space they live in.
//!
//! Every buffer is backed by real bytes (operations in this workspace are
//! functional, not mocked) and carries *placement metadata*: which memory
//! medium holds it, which NUMA socket, and the page size it was mapped with.
//! The timing models consume the metadata; the operations consume the bytes.

use std::fmt;

/// Where a buffer's backing memory lives.
///
/// Mirrors the placements evaluated in the paper: local/remote DRAM
/// (Fig. 6a), CXL-attached memory (Fig. 6b), and LLC-resident data
/// (Fig. 15).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Location {
    /// Socket-attached DRAM.
    Dram {
        /// NUMA socket id; socket 0 is "local" to the cores and devices used
        /// in the experiments.
        socket: u8,
    },
    /// CXL type-3 memory expander (exposed as a CPU-less NUMA node).
    Cxl,
    /// Data currently resident in the last-level cache of socket 0.
    Llc,
}

impl Location {
    /// DRAM on the local socket (socket 0).
    pub const fn local_dram() -> Location {
        Location::Dram { socket: 0 }
    }

    /// DRAM on the remote socket (socket 1), reached over UPI.
    pub const fn remote_dram() -> Location {
        Location::Dram { socket: 1 }
    }

    /// Short label used in experiment output, matching the paper's figures
    /// (`L` = LLC, `D` = local DRAM, `R` = remote DRAM, `C` = CXL).
    pub fn label(&self) -> &'static str {
        match self {
            Location::Dram { socket: 0 } => "D",
            Location::Dram { .. } => "R",
            Location::Cxl => "C",
            Location::Llc => "L",
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Dram { socket } => write!(f, "DRAM(socket {socket})"),
            Location::Cxl => write!(f, "CXL"),
            Location::Llc => write!(f, "LLC"),
        }
    }
}

/// Page size a mapping was created with (paper Fig. 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageSize {
    /// Base 4 KiB pages.
    Base4K,
    /// 2 MiB huge pages.
    Huge2M,
}

impl PageSize {
    /// The size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base4K => 4 << 10,
            PageSize::Huge2M => 2 << 20,
        }
    }
}

/// A buffer in the simulated address space.
///
/// Holds real bytes plus placement metadata. Cloning is deliberately not
/// provided: buffers model unique memory regions; use
/// [`AddressSpace::alloc`] for more.
pub struct SimBuffer {
    base: u64,
    data: Vec<u8>,
    location: Location,
    page_size: PageSize,
}

impl SimBuffer {
    /// Starting virtual address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Placement of the backing memory.
    pub fn location(&self) -> Location {
        self.location
    }

    /// Page size of the mapping.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Read-only view of the bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Reinterprets the buffer as living elsewhere (used by experiments that
    /// "warm" data into the LLC or migrate it between tiers).
    pub fn set_location(&mut self, location: Location) {
        self.location = location;
    }

    /// The virtual address range `[base, base+len)`.
    pub fn range(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.data.len() as u64
    }
}

impl fmt::Debug for SimBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuffer")
            .field("base", &format_args!("{:#x}", self.base))
            .field("len", &self.data.len())
            .field("location", &self.location)
            .field("page_size", &self.page_size)
            .finish()
    }
}

/// A process-style virtual address space that hands out page-aligned
/// buffers.
///
/// ```
/// use dsa_mem::buffer::{AddressSpace, Location, PageSize};
/// let mut asid = AddressSpace::new();
/// let b = asid.alloc(100, Location::local_dram());
/// assert_eq!(b.len(), 100);
/// assert_eq!(b.base() % PageSize::Base4K.bytes(), 0);
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    next_base: u64,
    allocated_bytes: u64,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        // Start well above the null page, mimicking a real heap.
        Self { next_base: 0x1000_0000, allocated_bytes: 0 }
    }

    /// Allocates a zero-filled buffer mapped with 4 KiB pages.
    pub fn alloc(&mut self, len: usize, location: Location) -> SimBuffer {
        self.alloc_with_pages(len, location, PageSize::Base4K)
    }

    /// Allocates a zero-filled buffer mapped with `page_size` pages.
    pub fn alloc_with_pages(
        &mut self,
        len: usize,
        location: Location,
        page_size: PageSize,
    ) -> SimBuffer {
        let align = page_size.bytes();
        let base = self.next_base.div_ceil(align) * align;
        let span = ((len as u64).div_ceil(align) * align).max(align);
        self.next_base = base + span;
        self.allocated_bytes += span;
        SimBuffer { base, data: vec![0u8; len], location, page_size }
    }

    /// Total bytes of address space handed out (page-rounded).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut asid = AddressSpace::new();
        let a = asid.alloc(5000, Location::local_dram());
        let b = asid.alloc(100, Location::Cxl);
        assert_eq!(a.base() % 4096, 0);
        assert_eq!(b.base() % 4096, 0);
        assert!(a.range().end <= b.range().start, "ranges must not overlap");
        assert_eq!(a.len(), 5000);
        assert_eq!(b.location(), Location::Cxl);
    }

    #[test]
    fn huge_page_alignment() {
        let mut asid = AddressSpace::new();
        let b = asid.alloc_with_pages(10, Location::local_dram(), PageSize::Huge2M);
        assert_eq!(b.base() % (2 << 20), 0);
        assert_eq!(b.page_size(), PageSize::Huge2M);
    }

    #[test]
    fn buffer_bytes_are_real_and_zeroed() {
        let mut asid = AddressSpace::new();
        let mut b = asid.alloc(64, Location::local_dram());
        assert!(b.bytes().iter().all(|&x| x == 0));
        b.bytes_mut()[0] = 0xAB;
        assert_eq!(b.bytes()[0], 0xAB);
        assert!(!b.is_empty());
    }

    #[test]
    fn location_labels_match_paper() {
        assert_eq!(Location::local_dram().label(), "D");
        assert_eq!(Location::remote_dram().label(), "R");
        assert_eq!(Location::Cxl.label(), "C");
        assert_eq!(Location::Llc.label(), "L");
    }

    #[test]
    fn page_size_bytes() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn set_location_reinterprets() {
        let mut asid = AddressSpace::new();
        let mut b = asid.alloc(64, Location::local_dram());
        b.set_location(Location::Llc);
        assert_eq!(b.location(), Location::Llc);
    }

    #[test]
    fn allocated_bytes_accumulates() {
        let mut asid = AddressSpace::new();
        asid.alloc(1, Location::local_dram());
        asid.alloc(4097, Location::local_dram());
        // 4 KiB + 8 KiB after page rounding
        assert_eq!(asid.allocated_bytes(), 4096 + 8192);
    }
}

//! # dsa-ops — functional data-streaming operations
//!
//! Bit-exact implementations of every operation in Table 1 of the paper
//! (the DSA operation set), used by *both* sides of every experiment:
//!
//! * the device model executes them when it processes a descriptor, so
//!   offloaded work is real work (copies copy, CRCs check out, DIFs verify);
//! * the CPU baselines execute the same code, with calibrated software
//!   timing from [`swcost`] standing in for glibc/AVX-512/ISA-L kernels.
//!
//! | Paper op                      | Module                               |
//! |-------------------------------|--------------------------------------|
//! | Memory Copy / Dualcast        | [`memops`]                           |
//! | Memory Fill (8/16-B pattern)  | [`memops`]                           |
//! | Memory Compare / Compare Pattern | [`memops`]                        |
//! | CRC Generation (CRC32-C)      | [`crc32`]                            |
//! | DIF check/insert/strip/update | [`dif`]                              |
//! | Create/Apply Delta Record     | [`delta`]                            |
//! | Cache Flush                   | executed against the LLC model (see `dsa-device`) |
//!
//! ```
//! use dsa_ops::crc32::Crc32c;
//! use dsa_ops::delta::{delta_create, delta_apply};
//!
//! assert_eq!(Crc32c::checksum(b"123456789"), 0xE306_9283);
//!
//! let original = vec![0u8; 64];
//! let mut modified = original.clone();
//! modified[8] = 0xFF;
//! let record = delta_create(&original, &modified, 1024).unwrap();
//! let mut patched = original.clone();
//! delta_apply(&record, &mut patched).unwrap();
//! assert_eq!(patched, modified);
//! ```

#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod crc32;
pub mod delta;
pub mod dif;
pub mod memops;
pub mod swcost;

/// The operation kinds DSA supports (paper Table 1), as scheduled through
/// descriptors and costed by the software baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// No-op descriptor (used for drain/fence semantics).
    Nop,
    /// Copy `len` bytes from source to destination.
    Memcpy,
    /// Copy source to two destinations.
    Dualcast,
    /// Fill destination with an 8-byte pattern.
    Fill,
    /// Fill destination with non-temporal (non-allocating) writes.
    NtFill,
    /// Byte-compare two buffers.
    Compare,
    /// Compare a buffer against an 8-byte pattern.
    ComparePattern,
    /// CRC32-C over the source.
    Crc32,
    /// Copy + CRC32-C of the transferred data.
    CopyCrc,
    /// Insert T10-DIF tuples per block.
    DifInsert,
    /// Verify T10-DIF tuples.
    DifCheck,
    /// Remove T10-DIF tuples.
    DifStrip,
    /// Verify then rewrite T10-DIF tuples.
    DifUpdate,
    /// Produce a delta record between two buffers.
    DeltaCreate,
    /// Apply a delta record to a buffer.
    DeltaApply,
    /// Evict an address range from the cache hierarchy.
    CacheFlush,
}

impl OpKind {
    /// Bytes *read* by the device per byte of nominal transfer size.
    pub fn read_amplification(self) -> f64 {
        match self {
            OpKind::Nop | OpKind::Fill | OpKind::NtFill => 0.0,
            OpKind::Compare | OpKind::DeltaCreate => 2.0,
            _ => 1.0,
        }
    }

    /// Bytes *written* by the device per byte of nominal transfer size.
    pub fn write_amplification(self) -> f64 {
        match self {
            OpKind::Nop
            | OpKind::Compare
            | OpKind::ComparePattern
            | OpKind::Crc32
            | OpKind::DifCheck
            | OpKind::CacheFlush => 0.0,
            OpKind::Dualcast => 2.0,
            OpKind::DeltaCreate => 0.2, // record is a fraction of the input
            _ => 1.0,
        }
    }

    /// All kinds evaluated in the paper's Fig. 2 sweep.
    pub fn figure2_set() -> [OpKind; 8] {
        [
            OpKind::Memcpy,
            OpKind::Dualcast,
            OpKind::Fill,
            OpKind::NtFill,
            OpKind::Compare,
            OpKind::ComparePattern,
            OpKind::Crc32,
            OpKind::DifInsert,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_factors() {
        assert_eq!(OpKind::Memcpy.read_amplification(), 1.0);
        assert_eq!(OpKind::Memcpy.write_amplification(), 1.0);
        assert_eq!(OpKind::Fill.read_amplification(), 0.0);
        assert_eq!(OpKind::Dualcast.write_amplification(), 2.0);
        assert_eq!(OpKind::Compare.read_amplification(), 2.0);
        assert_eq!(OpKind::Crc32.write_amplification(), 0.0);
    }

    #[test]
    fn figure2_set_is_distinct() {
        let set = OpKind::figure2_set();
        for (i, a) in set.iter().enumerate() {
            for b in &set[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

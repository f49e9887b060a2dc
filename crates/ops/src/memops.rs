//! Move/fill/compare operations (paper Table 1).
//!
//! These mirror the semantics of the DSA Memory Copy, Dualcast, Memory
//! Fill, Memory Compare and Compare Pattern operations, operating on plain
//! byte slices. The device model calls them when processing descriptors;
//! the CPU baselines call them directly.

/// Copies `src` into `dst` (Memory Copy).
///
/// # Panics
///
/// Panics if lengths differ — descriptors carry one transfer size.
pub fn copy(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    dst.copy_from_slice(src);
}

/// Copies `src` into both destinations (Dualcast).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dualcast(src: &[u8], dst1: &mut [u8], dst2: &mut [u8]) {
    assert_eq!(src.len(), dst1.len(), "dualcast dst1 length mismatch");
    assert_eq!(src.len(), dst2.len(), "dualcast dst2 length mismatch");
    dst1.copy_from_slice(src);
    dst2.copy_from_slice(src);
}

/// Fills `dst` with a repeating 8-byte little-endian `pattern`
/// (Memory Fill). The pattern repeats from the start of the buffer; a
/// trailing partial pattern is written for non-multiple lengths.
pub fn fill(dst: &mut [u8], pattern: u64) {
    let bytes = pattern.to_le_bytes();
    let mut chunks = dst.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&bytes);
    }
    let rem = chunks.into_remainder();
    let n = rem.len();
    rem.copy_from_slice(&bytes[..n]);
}

/// Compares two buffers (Memory Compare); returns the byte offset of the
/// first difference, or `None` if equal.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn compare(a: &[u8], b: &[u8]) -> Option<usize> {
    assert_eq!(a.len(), b.len(), "compare length mismatch");
    if a == b {
        return None;
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// Compares `buf` against a repeating 8-byte pattern (Compare Pattern);
/// returns the byte offset of the first mismatch, or `None` if it matches
/// throughout.
pub fn compare_pattern(buf: &[u8], pattern: u64) -> Option<usize> {
    // ORing a whole 64-byte block's differences before branching lets the
    // compiler vectorize the matching case; a block that mismatches is
    // rescanned word by word for the first differing byte.
    let mut blocks = buf.chunks_exact(64);
    for (i, block) in (&mut blocks).enumerate() {
        let diff = block.chunks_exact(8).fold(0, |acc, w| acc | (word(w) ^ pattern));
        if diff != 0 {
            return first_mismatch(block, pattern).map(|j| i * 64 + j);
        }
    }
    let tail = blocks.remainder();
    first_mismatch(tail, pattern).map(|j| buf.len() - tail.len() + j)
}

/// The little-endian word in the first eight bytes of `w`.
pub(crate) fn word(w: &[u8]) -> u64 {
    u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]])
}

/// The first byte of `buf` that differs from the pattern repeated from
/// its start.
fn first_mismatch(buf: &[u8], pattern: u64) -> Option<usize> {
    let mut words = buf.chunks_exact(8);
    for (i, w) in (&mut words).enumerate() {
        let diff = word(w) ^ pattern;
        if diff != 0 {
            // Little-endian: the lowest differing byte comes first in memory.
            return Some(i * 8 + diff.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let bytes = pattern.to_le_bytes();
    tail.iter().zip(bytes).position(|(&b, p)| b != p).map(|j| buf.len() - tail.len() + j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_copies() {
        let src = [1u8, 2, 3, 4];
        let mut dst = [0u8; 4];
        copy(&src, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_length_checked() {
        copy(&[1, 2], &mut [0u8; 3]);
    }

    #[test]
    fn dualcast_writes_both() {
        let src = [9u8; 16];
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        dualcast(&src, &mut a, &mut b);
        assert_eq!(a, src);
        assert_eq!(b, src);
    }

    #[test]
    fn fill_repeats_pattern() {
        let mut buf = [0u8; 20];
        fill(&mut buf, 0x0807_0605_0403_0201);
        assert_eq!(&buf[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(&buf[8..16], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(&buf[16..], &[1, 2, 3, 4]); // partial tail
    }

    #[test]
    fn compare_finds_first_difference() {
        let a = [0u8, 1, 2, 3];
        let b = [0u8, 1, 9, 3];
        assert_eq!(compare(&a, &b), Some(2));
        assert_eq!(compare(&a, &a), None);
    }

    #[test]
    fn compare_pattern_positions() {
        let mut buf = [0u8; 24];
        fill(&mut buf, 0xABCD);
        assert_eq!(compare_pattern(&buf, 0xABCD), None);
        buf[17] ^= 1;
        assert_eq!(compare_pattern(&buf, 0xABCD), Some(17));
    }

    #[test]
    fn empty_buffers_are_trivially_equal() {
        assert_eq!(compare(&[], &[]), None);
        assert_eq!(compare_pattern(&[], 0), None);
        let mut empty: [u8; 0] = [];
        fill(&mut empty, 0xFF);
    }
}

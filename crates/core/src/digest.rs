//! The workspace's one replay-digest primitive.
//!
//! Every determinism claim in this repository reduces to "two runs fold
//! the same FNV-1a 64-bit value". Before this module the hasher existed
//! three times — inline in `ServiceReport::digest`, as a test helper in
//! the scheduler-equivalence suite, and as an awk reimplementation in
//! `scripts/perfgate` — and the fleet layer would have added a fourth.
//! Now there is exactly one [`Fnv1a`] plus a [`Digestible`] trait for
//! anything that wants a canonical digest, and
//! [`merge_in_order`] composes per-shard digests into a fleet digest in
//! shard order (the merged value is what the parallel-determinism proof
//! pins).
//!
//! FNV-1a is deliberate: cheap, dependency-free, stable across platforms
//! and Rust versions, so a digest recorded in EXPERIMENTS.md or a
//! `BENCH_*.json` artifact stays comparable bit-for-bit forever.

/// An incremental FNV-1a 64-bit hasher.
///
/// ```
/// use dsa_core::digest::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write(b"hello");
/// let a = h.finish();
/// assert_eq!(a, Fnv1a::digest(b"hello"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// `PRIME^n mod 2^64` for `n` in `0..=8`: xor-ing a zero byte leaves
    /// the state unchanged, so a run of `n` trailing zero bytes folds into
    /// one multiply by `PRIME^n`.
    const PRIME_POW: [u64; 9] = {
        let mut p = [1u64; 9];
        let mut i = 1;
        while i < 9 {
            p[i] = p[i - 1].wrapping_mul(Fnv1a::PRIME);
            i += 1;
        }
        p
    };

    /// Folds one little-endian `u64` into the hash.
    ///
    /// Bit-identical to `write(&v.to_le_bytes())`, but high zero bytes —
    /// the common case for times, sequence numbers, and small payload
    /// fields — collapse into a single multiply instead of eight
    /// xor-multiply rounds.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let nz = (8 - v.leading_zeros() / 8) as usize;
        let mut x = v;
        for _ in 0..nz {
            self.0 ^= x & 0xff;
            self.0 = self.0.wrapping_mul(Self::PRIME);
            x >>= 8;
        }
        self.0 = self.0.wrapping_mul(Self::PRIME_POW[8 - nz]);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot convenience.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Formatting straight into the hash folds exactly the bytes the same
/// `write!` into a `String` would produce, without building the string.
impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Something with a canonical byte-stable digest representation.
///
/// Implementors fold their canonical form into the hasher; `digest64`
/// provides the one-number replay check every report type exposes.
pub trait Digestible {
    /// Folds the canonical representation into `h`.
    fn fold(&self, h: &mut Fnv1a);

    /// The standalone FNV-1a digest of this value.
    fn digest64(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fold(&mut h);
        h.finish()
    }
}

/// Composes per-part digests into one, folding `(index, digest)` pairs in
/// slice order. This is the fleet merge rule: shard digests combined in
/// shard order, so the K-thread run and the sequential replay agree iff
/// every shard agrees — and a shard permutation cannot collide.
pub fn merge_in_order(digests: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for (i, &d) in digests.iter().enumerate() {
        h.write_u64(i as u64);
        h.write_u64(d);
    }
    h.finish()
}

/// Renders a digest exactly as the `BENCH_*.json` artifacts and
/// EXPERIMENTS.md record it: `0x`-prefixed, zero-padded to 16 hex digits.
pub fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_write_u64_fast_path_is_bit_identical() {
        use dsa_sim::rng::SplitMix64;
        let bytewise = |v: u64| {
            let mut h = Fnv1a::new();
            h.write(&v.to_le_bytes());
            h.finish()
        };
        let fast = |v: u64| {
            let mut h = Fnv1a::new();
            h.write_u64(v);
            h.finish()
        };
        for v in [0, 1, 0xff, 0x100, u64::MAX, u64::MAX >> 1, 1 << 63, 0x0102_0304_0506_0708] {
            assert_eq!(fast(v), bytewise(v), "v = {v:#x}");
        }
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.next_u64() >> (rng.next_u64() % 64);
            assert_eq!(fast(v), bytewise(v), "v = {v:#x}");
        }
    }

    #[test]
    fn known_vector() {
        // FNV-1a("") is the offset basis; "a" is a published test vector.
        assert_eq!(Fnv1a::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn merge_is_order_sensitive() {
        let a = merge_in_order(&[1, 2, 3]);
        let b = merge_in_order(&[3, 2, 1]);
        assert_ne!(a, b, "shard order must be part of the merged digest");
        assert_eq!(a, merge_in_order(&[1, 2, 3]));
    }

    #[test]
    fn merge_distinguishes_empty_prefixes() {
        assert_ne!(merge_in_order(&[]), merge_in_order(&[0]));
        assert_ne!(merge_in_order(&[0]), merge_in_order(&[0, 0]));
    }

    #[test]
    fn hex_matches_artifact_convention() {
        assert_eq!(hex(0x1234), "0x0000000000001234");
        assert_eq!(hex(u64::MAX), "0xffffffffffffffff");
    }

    #[test]
    fn formatting_into_the_hasher_folds_the_formatted_bytes() {
        use std::fmt::Write as _;
        let mut h = Fnv1a::new();
        let plan = "shared";
        write!(h, "plan={plan} share={:.4} class={:?}", 0.25, Some(7)).unwrap();
        assert_eq!(h.finish(), Fnv1a::digest(b"plan=shared share=0.2500 class=Some(7)"));
    }

    #[test]
    fn digestible_default_digest64() {
        struct Tag(u64);
        impl Digestible for Tag {
            fn fold(&self, h: &mut Fnv1a) {
                h.write_u64(self.0);
            }
        }
        let mut h = Fnv1a::new();
        h.write_u64(42);
        assert_eq!(Tag(42).digest64(), h.finish());
    }
}

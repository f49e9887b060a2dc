//! CRC32 checksums.
//!
//! DSA's CRC Generation operation computes CRC32-C (Castagnoli polynomial,
//! the iSCSI/storage CRC that `ISA-L` accelerates with `PCLMULQDQ` and SSE
//! `crc32` instructions). [`Crc32c`] supports incremental update, so the
//! device model can checksum streams chunk by chunk exactly like the
//! hardware does. On x86-64 with SSE4.2 it runs the `crc32` instruction,
//! as ISA-L does; elsewhere it falls back to a table-driven slice-by-8
//! implementation, which also serves as the oracle for the instruction
//! path ([`Crc32c::update_table`]).
//!
//! One chain of `crc32` instructions runs at the instruction's latency,
//! a third of its throughput, so the instruction path splits the input
//! into blocks of three equal lanes (3 × 8,192 bytes, then 3 × 256) and
//! runs one chain per lane: the first lane from the running state, the
//! other two from zero. CRC is linear, so the block's state is
//! `shift(shift(a) ^ b) ^ c`, where `shift` advances a state over one
//! lane's length of zero bytes. `shift` is a 32 × 32 matrix over GF(2)
//! applied through four byte-indexed tables per lane length, built at
//! compile time. What no block covers runs as one chain.
//!
//! The classic IEEE 802.3 polynomial is provided as [`Crc32Ieee`] for
//! workloads (e.g. packet processing) that need it.

/// Reflected Castagnoli polynomial.
const POLY_C: u32 = 0x82F6_3B78;
/// Reflected IEEE 802.3 polynomial.
const POLY_IEEE: u32 = 0xEDB8_8320;

/// Builds the 8 slice-by-8 lookup tables for a reflected polynomial.
const fn build_tables(poly: u32) -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ poly } else { crc >> 1 };
            b += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES_C: [[u32; 256]; 8] = build_tables(POLY_C);
static TABLES_IEEE: [[u32; 256]; 8] = build_tables(POLY_IEEE);

fn update(tables: &[[u32; 256]; 8], mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The lane lengths of the three-lane blocks, longest first.
const LANE_LONG: usize = 8192;
const LANE_SHORT: usize = 256;

/// `a · b mod P` for reflected polynomials over GF(2) (bit 31 is `x^0`).
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY_C } else { b >> 1 };
        bit += 1;
    }
    product
}

/// The tables of `shift` over `len` zero bytes: the CRC state `s` becomes
/// `s · x^(8·len) mod P`, which is `t[0][s & 0xFF] ^ t[1][(s >> 8) & 0xFF]
/// ^ t[2][(s >> 16) & 0xFF] ^ t[3][s >> 24]`.
const fn shift_tables(len: usize) -> [[u32; 256]; 4] {
    // x^(8·len) by square-and-multiply, starting from x^8 = x^(8·1).
    let mut power = 1u32 << 31;
    let mut square = 1u32 << 23;
    let mut n = len;
    while n > 0 {
        if n & 1 != 0 {
            power = mul_mod(power, square);
        }
        square = mul_mod(square, square);
        n >>= 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut t = 0;
    while t < 4 {
        let mut i = 0;
        while i < 256 {
            tables[t][i] = mul_mod(power, (i as u32) << (8 * t));
            i += 1;
        }
        t += 1;
    }
    tables
}

static SHIFT_LONG: [[u32; 256]; 4] = shift_tables(LANE_LONG);
static SHIFT_SHORT: [[u32; 256]; 4] = shift_tables(LANE_SHORT);

/// Advances `crc` over one lane's length of zero bytes.
fn shift(tables: &[[u32; 256]; 4], crc: u32) -> u32 {
    tables[0][(crc & 0xFF) as usize]
        ^ tables[1][((crc >> 8) & 0xFF) as usize]
        ^ tables[2][((crc >> 16) & 0xFF) as usize]
        ^ tables[3][(crc >> 24) as usize]
}

/// CRC32-C over `data` with the SSE4.2 `crc32` instruction: the same
/// state transition as [`update`] over `TABLES_C`, in three-lane blocks
/// (see the module docs) and then eight bytes at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(mut crc: u32, data: &[u8]) -> u32 {
    use crate::memops::word;
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut rest = data;
    for (lane, tables) in [(LANE_LONG, &SHIFT_LONG), (LANE_SHORT, &SHIFT_SHORT)] {
        let mut blocks = rest.chunks_exact(3 * lane);
        for block in &mut blocks {
            let (a, bc) = block.split_at(lane);
            let (b, c) = bc.split_at(lane);
            let (mut x, mut y, mut z) = (u64::from(crc), 0, 0);
            for ((p, q), r) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)) {
                x = _mm_crc32_u64(x, word(p));
                y = _mm_crc32_u64(y, word(q));
                z = _mm_crc32_u64(z, word(r));
            }
            // The instruction zero-extends its 32-bit result.
            crc = shift(tables, shift(tables, x as u32) ^ y as u32) ^ z as u32;
        }
        rest = blocks.remainder();
    }
    let mut chunks = rest.chunks_exact(8);
    let mut wide = u64::from(crc);
    for c in &mut chunks {
        wide = _mm_crc32_u64(wide, word(c));
    }
    let mut crc = wide as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Streaming CRC32-C (Castagnoli) state.
///
/// ```
/// use dsa_ops::crc32::Crc32c;
/// let mut crc = Crc32c::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xE306_9283); // standard check value
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Starts a checksum with the standard seed (all ones).
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Resumes from a previously [`finish`](Crc32c::finish)ed value —
    /// matches DSA's "CRC seed" descriptor field for chained descriptors.
    pub fn with_seed(seed: u32) -> Self {
        Self { state: !seed }
    }

    /// Absorbs more data.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the CPU supports SSE4.2, the only feature
            // `update_sse42` enables.
            #[expect(
                unsafe_code,
                reason = "calls the SSE4.2 CRC kernel only after detecting SSE4.2"
            )]
            let state = unsafe { update_sse42(self.state, data) };
            self.state = state;
            return;
        }
        self.update_table(data);
    }

    /// Absorbs more data with the slice-by-8 table, whatever the CPU: the
    /// fallback of [`update`](Crc32c::update) and its oracle.
    pub fn update_table(&mut self, data: &[u8]) {
        self.state = update(&TABLES_C, self.state, data);
    }

    /// Produces the final checksum (the state stays reusable).
    pub fn finish(&self) -> u32 {
        !self.state
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut c = Self::new();
        c.update(data);
        c.finish()
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming CRC32 (IEEE 802.3) state; same interface as [`Crc32c`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32Ieee {
    state: u32,
}

impl Crc32Ieee {
    /// Starts a checksum with the standard seed (all ones).
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorbs more data.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(&TABLES_IEEE, self.state, data);
    }

    /// Produces the final checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut c = Self::new();
        c.update(data);
        c.finish()
    }
}

impl Default for Crc32Ieee {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn castagnoli_check_value() {
        // From the CRC catalogue: CRC-32C("123456789") == 0xE3069283.
        assert_eq!(Crc32c::checksum(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn ieee_check_value() {
        // CRC-32("123456789") == 0xCBF43926.
        assert_eq!(Crc32Ieee::checksum(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(Crc32c::checksum(b""), 0);
        assert_eq!(Crc32Ieee::checksum(b""), 0);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let oneshot = Crc32c::checksum(&data);
        for split in [1, 7, 8, 63, 500, 999] {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn seed_chaining_matches_contiguous() {
        let data: Vec<u8> = (0..512u32).map(|i| (i ^ 0x5A) as u8).collect();
        let oneshot = Crc32c::checksum(&data);
        // Descriptor 1 checksums the first half; its result seeds
        // descriptor 2 — the DSA chained-CRC pattern.
        let first = {
            let mut c = Crc32c::new();
            c.update(&data[..256]);
            c.finish()
        };
        let mut second = Crc32c::with_seed(first);
        second.update(&data[256..]);
        assert_eq!(second.finish(), oneshot);
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(Crc32c::checksum(b"hello"), Crc32c::checksum(b"hellp"));
        assert_ne!(Crc32c::checksum(b"hello"), Crc32Ieee::checksum(b"hello"));
    }

    #[test]
    fn single_bit_sensitivity() {
        let a = vec![0u8; 4096];
        let mut b = a.clone();
        b[4095] ^= 1;
        assert_ne!(Crc32c::checksum(&a), Crc32c::checksum(&b));
    }

    #[test]
    fn known_zero_block_crc32c() {
        // 32 zero bytes: CRC-32C == 0x8A9136AA (well-known vector used in
        // iSCSI conformance tests).
        assert_eq!(Crc32c::checksum(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn shift_tables_advance_over_zero_bytes() {
        for (len, tables) in [(LANE_LONG, &SHIFT_LONG), (LANE_SHORT, &SHIFT_SHORT)] {
            let zeros = vec![0u8; len];
            for (t, table) in tables.iter().enumerate() {
                for (i, &entry) in table.iter().enumerate() {
                    let state = (i as u32) << (8 * t);
                    assert_eq!(entry, update(&TABLES_C, state, &zeros), "len {len} [{t}][{i}]");
                }
            }
        }
    }

    #[test]
    fn known_ff_block_crc32c() {
        // 32 x 0xFF: CRC-32C == 0x62a8ab43.
        assert_eq!(Crc32c::checksum(&[0xFFu8; 32]), 0x62A8_AB43);
    }
}

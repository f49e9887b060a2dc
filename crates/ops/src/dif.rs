//! T10 Data Integrity Field (DIF) operations.
//!
//! Storage stacks protect each logical block with an 8-byte protection
//! information (PI) tuple: a CRC16 *guard tag* over the block data, a
//! 2-byte *application tag*, and a 4-byte *reference tag* (typically the
//! lower bits of the LBA, incremented per block). DSA processes DIF at
//! stream rate for 512/520/4096/4104-byte blocks (paper Table 1); software
//! implementations run at a few GB/s, which is why DIF shows some of the
//! largest offload speedups.
//!
//! The guard uses CRC-16/T10-DIF: polynomial `0x8BB7`, no reflection, zero
//! init/xorout (check value `0xD0DB` over `"123456789"`).

/// Source-block sizes DSA supports for DIF operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DifBlockSize {
    /// 512-byte blocks (classic sector).
    B512,
    /// 520-byte blocks (sector + legacy 8-byte trailer kept as data).
    B520,
    /// 4096-byte blocks (4K-native sector).
    B4096,
    /// 4104-byte blocks.
    B4104,
}

impl DifBlockSize {
    /// Block size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            DifBlockSize::B512 => 512,
            DifBlockSize::B520 => 520,
            DifBlockSize::B4096 => 4096,
            DifBlockSize::B4104 => 4104,
        }
    }

    /// Stable 2-bit code for the descriptor wire format.
    pub const fn code(self) -> u8 {
        match self {
            DifBlockSize::B512 => 0,
            DifBlockSize::B520 => 1,
            DifBlockSize::B4096 => 2,
            DifBlockSize::B4104 => 3,
        }
    }
}

/// The 8-byte protection-information tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DifTuple {
    /// CRC-16/T10-DIF over the block data.
    pub guard: u16,
    /// Application tag (opaque to the device).
    pub app_tag: u16,
    /// Reference tag (usually low LBA bits; incremented per block).
    pub ref_tag: u32,
}

impl DifTuple {
    /// Serializes to the on-wire big-endian layout.
    pub fn to_bytes(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..2].copy_from_slice(&self.guard.to_be_bytes());
        out[2..4].copy_from_slice(&self.app_tag.to_be_bytes());
        out[4..].copy_from_slice(&self.ref_tag.to_be_bytes());
        out
    }

    /// Parses from the on-wire layout.
    pub fn from_bytes(b: &[u8; 8]) -> DifTuple {
        DifTuple {
            guard: u16::from_be_bytes([b[0], b[1]]),
            app_tag: u16::from_be_bytes([b[2], b[3]]),
            ref_tag: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
        }
    }
}

/// A DIF verification failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DifError {
    /// Index of the offending block.
    pub block: usize,
    /// Which tag mismatched.
    pub kind: DifErrorKind,
}

/// The tag that failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DifErrorKind {
    /// Guard (CRC) mismatch — data corruption.
    Guard,
    /// Reference-tag mismatch — misplaced block.
    RefTag,
    /// Application-tag mismatch.
    AppTag,
}

impl std::fmt::Display for DifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DIF {:?} mismatch in block {}", self.kind, self.block)
    }
}

impl std::error::Error for DifError {}

/// CRC-16/T10-DIF (non-reflected, poly 0x8BB7, init 0), slice-by-8.
pub fn crc16_t10(data: &[u8]) -> u16 {
    static TABLES: [[u16; 256]; 8] = build_t10_tables();
    let mut crc: u16 = 0;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        // The running CRC folds into the first two (most significant) bytes.
        let [h0, h1] = crc.to_be_bytes();
        crc = TABLES[7][(c[0] ^ h0) as usize]
            ^ TABLES[6][(c[1] ^ h1) as usize]
            ^ TABLES[5][c[2] as usize]
            ^ TABLES[4][c[3] as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc << 8) ^ TABLES[0][((crc >> 8) as u8 ^ b) as usize];
    }
    crc
}

/// Builds the slice-by-8 tables: `tables[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes.
const fn build_t10_tables() -> [[u16; 256]; 8] {
    let mut tables = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x8BB7 } else { crc << 1 };
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
            tables[t][i] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Seed tags for a DIF pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DifConfig {
    /// Block size.
    pub block: DifBlockSize,
    /// Application tag written/expected on every block.
    pub app_tag: u16,
    /// Reference tag of the first block; increments per block.
    pub starting_ref_tag: u32,
}

impl DifConfig {
    /// A common default: 512-byte blocks, zero tags.
    pub fn new(block: DifBlockSize) -> DifConfig {
        DifConfig { block, app_tag: 0, starting_ref_tag: 0 }
    }
}

/// Inserts DIF tuples: `src` must be whole blocks; returns blocks with an
/// 8-byte PI appended to each (the DIF Insert operation).
///
/// # Errors
///
/// Returns `Err` if `src` is not a multiple of the block size.
pub fn dif_insert(cfg: &DifConfig, src: &[u8]) -> Result<Vec<u8>, DifLayoutError> {
    let bs = cfg.block.bytes();
    let mut out = Vec::with_capacity(dif_insert_len(cfg, src.len())?);
    for (i, chunk) in src.chunks_exact(bs).enumerate() {
        out.extend_from_slice(chunk);
        let tuple = DifTuple {
            guard: crc16_t10(chunk),
            app_tag: cfg.app_tag,
            ref_tag: cfg.starting_ref_tag.wrapping_add(i as u32),
        };
        out.extend_from_slice(&tuple.to_bytes());
    }
    Ok(out)
}

/// The length [`dif_insert`] produces from `len` bytes of input.
///
/// # Errors
///
/// Returns `Err` if `len` is not a non-zero multiple of the block size.
pub fn dif_insert_len(cfg: &DifConfig, len: usize) -> Result<usize, DifLayoutError> {
    let bs = cfg.block.bytes();
    if len == 0 || !len.is_multiple_of(bs) {
        return Err(DifLayoutError { len, block: bs });
    }
    Ok(len + len / bs * 8)
}

/// Verifies DIF tuples in `protected` (the DIF Check operation).
///
/// # Errors
///
/// Returns the first [`DifError`] encountered, or a layout error if the
/// input is not a whole number of protected blocks.
pub fn dif_check(cfg: &DifConfig, protected: &[u8]) -> Result<(), DifCheckError> {
    let bs = cfg.block.bytes() + 8;
    if protected.is_empty() || !protected.len().is_multiple_of(bs) {
        return Err(DifCheckError::Layout(DifLayoutError { len: protected.len(), block: bs }));
    }
    for (i, chunk) in protected.chunks_exact(bs).enumerate() {
        let (data, pi) = chunk.split_at(cfg.block.bytes());
        #[expect(
            clippy::expect_used,
            reason = "split_at of a (block + 8)-byte chunk leaves exactly 8 PI bytes"
        )]
        let tuple = DifTuple::from_bytes(pi.try_into().expect("8-byte PI"));
        if tuple.guard != crc16_t10(data) {
            return Err(DifCheckError::Dif(DifError { block: i, kind: DifErrorKind::Guard }));
        }
        if tuple.ref_tag != cfg.starting_ref_tag.wrapping_add(i as u32) {
            return Err(DifCheckError::Dif(DifError { block: i, kind: DifErrorKind::RefTag }));
        }
        if tuple.app_tag != cfg.app_tag {
            return Err(DifCheckError::Dif(DifError { block: i, kind: DifErrorKind::AppTag }));
        }
    }
    Ok(())
}

/// Strips DIF tuples, returning the raw data (the DIF Strip operation).
/// Verification is performed first, as the hardware does.
///
/// # Errors
///
/// Propagates verification/layout failures.
pub fn dif_strip(cfg: &DifConfig, protected: &[u8]) -> Result<Vec<u8>, DifCheckError> {
    dif_check(cfg, protected)?;
    let bs = cfg.block.bytes() + 8;
    let mut out = Vec::with_capacity(protected.len() / bs * cfg.block.bytes());
    for chunk in protected.chunks_exact(bs) {
        out.extend_from_slice(&chunk[..cfg.block.bytes()]);
    }
    Ok(out)
}

/// Re-tags protected data: verifies against `src_cfg`, then rewrites the
/// tuples for `dst_cfg` (the DIF Update operation, used when blocks move to
/// a new LBA range).
///
/// # Errors
///
/// Propagates verification/layout failures against `src_cfg`.
pub fn dif_update(
    src_cfg: &DifConfig,
    dst_cfg: &DifConfig,
    protected: &[u8],
) -> Result<Vec<u8>, DifCheckError> {
    dif_check(src_cfg, protected)?;
    let bs = src_cfg.block.bytes() + 8;
    let mut out = Vec::with_capacity(protected.len());
    for (i, chunk) in protected.chunks_exact(bs).enumerate() {
        let data = &chunk[..src_cfg.block.bytes()];
        out.extend_from_slice(data);
        let tuple = DifTuple {
            guard: crc16_t10(data),
            app_tag: dst_cfg.app_tag,
            ref_tag: dst_cfg.starting_ref_tag.wrapping_add(i as u32),
        };
        out.extend_from_slice(&tuple.to_bytes());
    }
    Ok(out)
}

/// Input length is not a whole number of blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DifLayoutError {
    /// Offending input length.
    pub len: usize,
    /// Required block granularity.
    pub block: usize,
}

impl std::fmt::Display for DifLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input length {} is not a positive multiple of {}", self.len, self.block)
    }
}

impl std::error::Error for DifLayoutError {}

/// Failure modes of DIF verification passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DifCheckError {
    /// The input shape was wrong.
    Layout(DifLayoutError),
    /// A tag failed to verify.
    Dif(DifError),
}

impl std::fmt::Display for DifCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DifCheckError::Layout(e) => write!(f, "{e}"),
            DifCheckError::Dif(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DifCheckError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_t10_check_value() {
        assert_eq!(crc16_t10(b"123456789"), 0xD0DB);
    }

    #[test]
    fn crc16_zero_block() {
        // CRC of zeros with zero init is zero (non-reflected, no xorout).
        assert_eq!(crc16_t10(&[0u8; 512]), 0);
    }

    #[test]
    fn insert_check_strip_roundtrip() {
        let cfg = DifConfig { block: DifBlockSize::B512, app_tag: 0xBEEF, starting_ref_tag: 7 };
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31) as u8).collect();
        let protected = dif_insert(&cfg, &data).unwrap();
        assert_eq!(protected.len(), 1024 + 2 * 8);
        dif_check(&cfg, &protected).unwrap();
        let stripped = dif_strip(&cfg, &protected).unwrap();
        assert_eq!(stripped, data);
    }

    #[test]
    fn corruption_detected_as_guard_error() {
        let cfg = DifConfig::new(DifBlockSize::B512);
        let data = vec![0xA5u8; 512];
        let mut protected = dif_insert(&cfg, &data).unwrap();
        protected[100] ^= 0x01;
        match dif_check(&cfg, &protected) {
            Err(DifCheckError::Dif(e)) => {
                assert_eq!(e.kind, DifErrorKind::Guard);
                assert_eq!(e.block, 0);
            }
            other => panic!("expected guard error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_ref_tag_detected() {
        let cfg = DifConfig { block: DifBlockSize::B512, app_tag: 0, starting_ref_tag: 0 };
        let data = vec![1u8; 512];
        let protected = dif_insert(&cfg, &data).unwrap();
        let wrong = DifConfig { starting_ref_tag: 5, ..cfg };
        match dif_check(&wrong, &protected) {
            Err(DifCheckError::Dif(e)) => assert_eq!(e.kind, DifErrorKind::RefTag),
            other => panic!("expected ref tag error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_app_tag_detected() {
        let cfg = DifConfig { block: DifBlockSize::B512, app_tag: 1, starting_ref_tag: 0 };
        let protected = dif_insert(&cfg, &vec![1u8; 512]).unwrap();
        let wrong = DifConfig { app_tag: 2, ..cfg };
        match dif_check(&wrong, &protected) {
            Err(DifCheckError::Dif(e)) => assert_eq!(e.kind, DifErrorKind::AppTag),
            other => panic!("expected app tag error, got {other:?}"),
        }
    }

    #[test]
    fn update_retags_blocks() {
        let src = DifConfig { block: DifBlockSize::B4096, app_tag: 1, starting_ref_tag: 100 };
        let dst = DifConfig { block: DifBlockSize::B4096, app_tag: 2, starting_ref_tag: 900 };
        let data = vec![0x5Au8; 8192];
        let protected = dif_insert(&src, &data).unwrap();
        let updated = dif_update(&src, &dst, &protected).unwrap();
        dif_check(&dst, &updated).unwrap();
        assert!(dif_check(&src, &updated).is_err());
    }

    #[test]
    fn bad_layout_rejected() {
        let cfg = DifConfig::new(DifBlockSize::B512);
        assert!(dif_insert(&cfg, &[0u8; 100]).is_err());
        assert!(dif_insert(&cfg, &[]).is_err());
        assert!(matches!(dif_check(&cfg, &[0u8; 100]), Err(DifCheckError::Layout(_))));
    }

    #[test]
    fn all_block_sizes_roundtrip() {
        for bs in [DifBlockSize::B512, DifBlockSize::B520, DifBlockSize::B4096, DifBlockSize::B4104]
        {
            let cfg = DifConfig::new(bs);
            let data: Vec<u8> = (0..bs.bytes() * 3).map(|i| (i % 251) as u8).collect();
            let protected = dif_insert(&cfg, &data).unwrap();
            assert_eq!(dif_strip(&cfg, &protected).unwrap(), data);
        }
    }

    #[test]
    fn tuple_serialization_roundtrip() {
        let t = DifTuple { guard: 0x1234, app_tag: 0xABCD, ref_tag: 0xDEAD_BEEF };
        assert_eq!(DifTuple::from_bytes(&t.to_bytes()), t);
    }
}

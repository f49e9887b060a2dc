//! Delta records: compact encodings of the difference between two buffers.
//!
//! DSA's Create Delta Record operation compares two equal-length buffers in
//! 8-byte units and emits a 10-byte record entry — a 2-byte offset (in
//! 8-byte units) plus the 8 differing bytes from the second buffer — for
//! every mismatching unit. Apply Delta Record patches the original buffer
//! back to the modified one. The 2-byte offset limits a single descriptor
//! to 512 KiB of compared data, exactly as the DSA specification does.

/// One entry of a delta record: `offset` is in 8-byte units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaEntry {
    /// Offset of the differing 8-byte unit, in units (byte offset / 8).
    pub offset: u16,
    /// The replacement bytes (from the modified buffer).
    pub data: [u8; 8],
}

impl DeltaEntry {
    /// Size of a serialized entry in bytes.
    pub const SIZE: usize = 10;

    /// Serializes to the 10-byte wire layout.
    pub fn to_bytes(self) -> [u8; 10] {
        let mut out = [0u8; 10];
        out[..2].copy_from_slice(&self.offset.to_le_bytes());
        out[2..].copy_from_slice(&self.data);
        out
    }

    /// Parses from the wire layout.
    #[expect(clippy::expect_used, reason = "slice of a [u8; 10] from index 2 is exactly 8 bytes")]
    pub fn from_bytes(b: &[u8; 10]) -> DeltaEntry {
        DeltaEntry {
            offset: u16::from_le_bytes([b[0], b[1]]),
            data: b[2..].try_into().expect("8 bytes"),
        }
    }
}

/// A delta record: the serialized entry list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaRecord {
    bytes: Vec<u8>,
}

impl DeltaRecord {
    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.bytes.len() / DeltaEntry::SIZE
    }

    /// Serialized size in bytes (what the device writes to memory).
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Raw serialized form.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs a record from its serialized form.
    ///
    /// # Errors
    ///
    /// Fails if `bytes` is not a multiple of the entry size.
    pub fn from_bytes(bytes: &[u8]) -> Result<DeltaRecord, DeltaError> {
        if !bytes.len().is_multiple_of(DeltaEntry::SIZE) {
            return Err(DeltaError::MalformedRecord { len: bytes.len() });
        }
        Ok(DeltaRecord { bytes: bytes.to_vec() })
    }

    /// Iterates over decoded entries.
    #[expect(clippy::expect_used, reason = "chunks_exact yields exactly SIZE-byte slices")]
    pub fn iter(&self) -> impl Iterator<Item = DeltaEntry> + '_ {
        self.bytes
            .chunks_exact(DeltaEntry::SIZE)
            .map(|c| DeltaEntry::from_bytes(c.try_into().expect("10 bytes")))
    }
}

/// Failures of delta operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// Buffers differ in length or are not 8-byte multiples.
    BadShape {
        /// First buffer length.
        original: usize,
        /// Second buffer length.
        modified: usize,
    },
    /// Input exceeds the 512 KiB addressable by 16-bit unit offsets.
    TooLarge {
        /// Offending length in bytes.
        len: usize,
    },
    /// The differences did not fit in `max_record_bytes`.
    ///
    /// Mirrors the device's partial-completion status; `needed` reports the
    /// full record size so the caller can retry or fall back to a copy.
    RecordOverflow {
        /// Bytes the complete record would need.
        needed: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A serialized record had a length that is not a multiple of 10.
    MalformedRecord {
        /// Offending length.
        len: usize,
    },
    /// An entry's offset points outside the target buffer.
    OffsetOutOfRange {
        /// Offending unit offset.
        offset: u16,
        /// Target buffer length in bytes.
        target_len: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BadShape { original, modified } => {
                write!(f, "buffers must be equal 8-byte multiples (got {original} and {modified})")
            }
            DeltaError::TooLarge { len } => {
                write!(f, "input of {len} bytes exceeds the 512 KiB delta limit")
            }
            DeltaError::RecordOverflow { needed, limit } => {
                write!(f, "delta record needs {needed} bytes but only {limit} were provided")
            }
            DeltaError::MalformedRecord { len } => {
                write!(f, "record length {len} is not a multiple of 10")
            }
            DeltaError::OffsetOutOfRange { offset, target_len } => {
                write!(f, "entry offset {offset} outside target of {target_len} bytes")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Maximum input size a single delta descriptor can cover.
pub const MAX_DELTA_INPUT: usize = (u16::MAX as usize + 1) * 8;

/// Creates a delta record turning `original` into `modified`
/// (the Create Delta Record operation).
///
/// `max_record_bytes` bounds the record, mirroring the descriptor's
/// maximum-delta-record-size field.
///
/// # Errors
///
/// See [`DeltaError`].
pub fn delta_create(
    original: &[u8],
    modified: &[u8],
    max_record_bytes: usize,
) -> Result<DeltaRecord, DeltaError> {
    if original.len() != modified.len() || !original.len().is_multiple_of(8) {
        return Err(DeltaError::BadShape { original: original.len(), modified: modified.len() });
    }
    if original.len() > MAX_DELTA_INPUT {
        return Err(DeltaError::TooLarge { len: original.len() });
    }
    let mut bytes = Vec::new();
    let mut needed = 0usize;
    for (i, (a, b)) in original.chunks_exact(8).zip(modified.chunks_exact(8)).enumerate() {
        if a != b {
            needed += DeltaEntry::SIZE;
            if needed <= max_record_bytes {
                #[expect(
                    clippy::expect_used,
                    reason = "chunks_exact(8) yields exactly 8-byte slices"
                )]
                let entry = DeltaEntry { offset: i as u16, data: b.try_into().expect("8 bytes") };
                bytes.extend_from_slice(&entry.to_bytes());
            }
        }
    }
    if needed > max_record_bytes {
        return Err(DeltaError::RecordOverflow { needed, limit: max_record_bytes });
    }
    Ok(DeltaRecord { bytes })
}

/// Applies a delta record to `target` in place
/// (the Apply Delta Record operation).
///
/// # Errors
///
/// Fails without touching `target` if any entry is out of range.
pub fn delta_apply(record: &DeltaRecord, target: &mut [u8]) -> Result<(), DeltaError> {
    // Validate first: hardware reports the error without partial effects
    // visible to the completion record consumer.
    for e in record.iter() {
        let start = e.offset as usize * 8;
        if start + 8 > target.len() {
            return Err(DeltaError::OffsetOutOfRange {
                offset: e.offset,
                target_len: target.len(),
            });
        }
    }
    for e in record.iter() {
        let start = e.offset as usize * 8;
        target[start..start + 8].copy_from_slice(&e.data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_buffers_give_empty_record() {
        let a = vec![7u8; 64];
        let rec = delta_create(&a, &a, 1024).unwrap();
        assert_eq!(rec.entries(), 0);
        assert_eq!(rec.size_bytes(), 0);
    }

    #[test]
    fn create_apply_roundtrip() {
        let original: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let mut modified = original.clone();
        modified[8] = 0xFF;
        modified[9] = 0xFE;
        modified[200] ^= 0x80;
        let rec = delta_create(&original, &modified, 4096).unwrap();
        assert_eq!(rec.entries(), 2); // two distinct 8-byte units changed
        let mut patched = original.clone();
        delta_apply(&rec, &mut patched).unwrap();
        assert_eq!(patched, modified);
    }

    #[test]
    fn record_overflow_reports_needed() {
        let original = vec![0u8; 80];
        let modified = vec![1u8; 80]; // all 10 units differ -> 100 bytes
        match delta_create(&original, &modified, 50) {
            Err(DeltaError::RecordOverflow { needed, limit }) => {
                assert_eq!(needed, 100);
                assert_eq!(limit, 50);
            }
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn shape_validation() {
        assert!(matches!(delta_create(&[0; 8], &[0; 16], 100), Err(DeltaError::BadShape { .. })));
        assert!(matches!(delta_create(&[0; 7], &[0; 7], 100), Err(DeltaError::BadShape { .. })));
        let big = vec![0u8; MAX_DELTA_INPUT + 8];
        assert!(matches!(delta_create(&big, &big, 100), Err(DeltaError::TooLarge { .. })));
    }

    #[test]
    fn max_size_input_works() {
        let a = vec![0u8; MAX_DELTA_INPUT];
        let mut b = a.clone();
        let last = MAX_DELTA_INPUT - 8;
        b[last] = 1;
        let rec = delta_create(&a, &b, 1024).unwrap();
        assert_eq!(rec.entries(), 1);
        assert_eq!(rec.iter().next().unwrap().offset, u16::MAX);
        let mut patched = a.clone();
        delta_apply(&rec, &mut patched).unwrap();
        assert_eq!(patched, b);
    }

    #[test]
    fn apply_out_of_range_leaves_target_untouched() {
        let entry = DeltaEntry { offset: 100, data: [9; 8] };
        let rec = DeltaRecord::from_bytes(&entry.to_bytes()).unwrap();
        let mut target = vec![0u8; 64];
        let before = target.clone();
        assert!(matches!(delta_apply(&rec, &mut target), Err(DeltaError::OffsetOutOfRange { .. })));
        assert_eq!(target, before);
    }

    #[test]
    fn record_serialization_roundtrip() {
        let original = vec![0u8; 64];
        let mut modified = original.clone();
        modified[0] = 1;
        modified[63] = 2;
        let rec = delta_create(&original, &modified, 4096).unwrap();
        let rec2 = DeltaRecord::from_bytes(rec.as_bytes()).unwrap();
        assert_eq!(rec, rec2);
        assert!(DeltaRecord::from_bytes(&[0u8; 7]).is_err());
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(DeltaError::BadShape { original: 1, modified: 2 }),
            Box::new(DeltaError::TooLarge { len: 1 << 30 }),
            Box::new(DeltaError::RecordOverflow { needed: 10, limit: 5 }),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

//! Property-style tests for the functional operations: round-trip and
//! consistency laws over arbitrary data.
//!
//! Randomized inputs come from the in-repo deterministic [`SplitMix64`]
//! generator so the suite runs offline with no external test-harness
//! dependency; every case is reproducible from the fixed seeds below.

use dsa_ops::crc32::{Crc32Ieee, Crc32c};
use dsa_ops::delta::{delta_apply, delta_create};
use dsa_ops::dif::{
    crc16_t10, dif_check, dif_insert, dif_strip, dif_update, DifBlockSize, DifConfig,
};
use dsa_ops::memops;
use dsa_sim::rng::SplitMix64;

const CASES: usize = 48;

fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn crc32c_incremental_equals_oneshot() {
    let mut rng = SplitMix64::new(0x0B5_0001);
    for _ in 0..CASES {
        let n_data = rng.next_below(4096) as usize;
        let data = random_bytes(&mut rng, n_data);
        let split = (rng.next_below(4096) as usize).min(data.len());
        let oneshot = Crc32c::checksum(&data);
        let mut inc = Crc32c::new();
        inc.update(&data[..split]);
        inc.update(&data[split..]);
        assert_eq!(inc.finish(), oneshot);
        // Same property for the IEEE polynomial.
        let oneshot = Crc32Ieee::checksum(&data);
        let mut inc = Crc32Ieee::new();
        inc.update(&data[..split]);
        inc.update(&data[split..]);
        assert_eq!(inc.finish(), oneshot);
    }
}

#[test]
fn crc32c_seed_chaining() {
    let mut rng = SplitMix64::new(0x0B5_0002);
    for _ in 0..CASES {
        let n_a = 1 + rng.next_below(2047) as usize;
        let a = random_bytes(&mut rng, n_a);
        let n_b = 1 + rng.next_below(2047) as usize;
        let b = random_bytes(&mut rng, n_b);
        let mut whole = Crc32c::new();
        whole.update(&a);
        whole.update(&b);
        let first = Crc32c::checksum(&a);
        let mut chained = Crc32c::with_seed(first);
        chained.update(&b);
        assert_eq!(chained.finish(), whole.finish());
    }
}

/// The instruction path's block sizes: three lanes of 8,192 bytes, then
/// three of 256.
const CRC_LONG_BLOCK: usize = 3 * 8192;
const CRC_SHORT_BLOCK: usize = 3 * 256;

/// A length within 16 bytes of a block edge: up to two long blocks, then
/// up to a long block's worth of short ones.
fn crc_edge_len(rng: &mut SplitMix64) -> usize {
    let edge =
        rng.next_below(3) as usize * CRC_LONG_BLOCK + rng.next_below(33) as usize * CRC_SHORT_BLOCK;
    (edge + rng.next_below(33) as usize).saturating_sub(16)
}

/// `Crc32c::update` (the SSE4.2 `crc32` path where the CPU has it) agrees
/// with the slice-by-8 table over random seeds and start offsets 0–7
/// (which misalign the 8-byte steps), at lengths from empty to three long
/// blocks (near block edges in half the cases), and over chains of
/// `with_seed` updates whose links end near every block edge.
#[test]
fn crc32c_update_matches_the_table() {
    let mut rng = SplitMix64::new(0x0B5_000A);
    let max_len = 3 * CRC_LONG_BLOCK + 16;
    let buf = random_bytes(&mut rng, max_len + 8);
    for case in 0..4 * CASES {
        let start = case % 8;
        let len = match case % 4 {
            0 => rng.next_below(4101) as usize,
            1 => rng.next_below(max_len as u64 + 1) as usize,
            _ => crc_edge_len(&mut rng),
        };
        let data = &buf[start..start + len];
        let seed = rng.next_u64() as u32;
        let (mut fast, mut table) = (Crc32c::with_seed(seed), Crc32c::with_seed(seed));
        fast.update(data);
        table.update_table(data);
        assert_eq!(fast.finish(), table.finish(), "start {start} len {len} seed {seed:#x}");

        // The same bytes as a chain of descriptors, each seeded with the
        // previous one's result, checked link by link.
        let (mut fast_seed, mut table_seed, mut at) = (seed, seed, 0);
        while at < len {
            let link = if rng.next_below(2) == 0 {
                1 + rng.next_below(600) as usize
            } else {
                crc_edge_len(&mut rng).max(1)
            };
            let end = (at + link).min(len);
            let mut f = Crc32c::with_seed(fast_seed);
            f.update(&data[at..end]);
            let mut t = Crc32c::with_seed(table_seed);
            t.update_table(&data[at..end]);
            (fast_seed, table_seed) = (f.finish(), t.finish());
            assert_eq!(fast_seed, table_seed, "link {at}..{end} of start {start} len {len}");
            at = end;
        }
        assert_eq!(fast_seed, fast.finish(), "chained equals one-shot");
    }
    // Every block edge itself, from every start offset.
    for long in 0..3 {
        for short in [0, 1, 2, 31, 32] {
            for extra in [0, 1, 7, 8, 9, 15] {
                let len = long * CRC_LONG_BLOCK + short * CRC_SHORT_BLOCK + extra;
                for start in 0..8 {
                    let data = &buf[start..start + len];
                    let mut table = Crc32c::new();
                    table.update_table(data);
                    assert_eq!(Crc32c::checksum(data), table.finish(), "start {start} len {len}");
                }
            }
        }
    }
    let mut table = Crc32c::new();
    table.update_table(b"123456789");
    assert_eq!(table.finish(), 0xE306_9283, "the oracle itself is CRC32-C");
}

#[test]
fn crc_detects_any_single_bit_flip() {
    let mut rng = SplitMix64::new(0x0B5_0003);
    for _ in 0..CASES {
        let n_data = 1 + rng.next_below(1023) as usize;
        let data = random_bytes(&mut rng, n_data);
        let i = rng.next_below(data.len() as u64) as usize;
        let bit = rng.next_below(8) as u8;
        let mut corrupted = data.clone();
        corrupted[i] ^= 1 << bit;
        assert_ne!(Crc32c::checksum(&data), Crc32c::checksum(&corrupted));
    }
}

#[test]
fn delta_roundtrip_arbitrary_mutations() {
    let mut rng = SplitMix64::new(0x0B5_0004);
    for _ in 0..CASES {
        let n_base = 1 + rng.next_below(63) as usize;
        let base = random_bytes(&mut rng, n_base);
        let original: Vec<u8> = base.iter().copied().cycle().take(base.len() * 8).collect();
        let mut modified = original.clone();
        for _ in 0..rng.next_below(32) {
            let i = rng.next_below(modified.len() as u64) as usize;
            modified[i] = rng.next_u64() as u8;
        }
        let record = delta_create(&original, &modified, original.len() / 8 * 10).unwrap();
        let mut patched = original.clone();
        delta_apply(&record, &mut patched).unwrap();
        // Record is minimal: one entry per differing 8-byte unit.
        let diff_units = original.chunks(8).zip(modified.chunks(8)).filter(|(a, b)| a != b).count();
        assert_eq!(record.entries(), diff_units);
        assert_eq!(patched, modified);
    }
}

#[test]
fn delta_record_size_field_is_exact() {
    let mut rng = SplitMix64::new(0x0B5_0005);
    for _ in 0..CASES {
        let len_units = 1 + rng.next_below(63) as usize;
        let original = vec![0u8; len_units * 8];
        let mut modified = original.clone();
        for _ in 0..rng.next_below(16) {
            let i = rng.next_below(len_units as u64) as usize;
            modified[i * 8] = 0xFF;
        }
        let record = delta_create(&original, &modified, len_units * 10).unwrap();
        assert_eq!(record.size_bytes(), record.entries() * 10);
    }
}

#[test]
fn dif_roundtrip_all_block_sizes() {
    let mut rng = SplitMix64::new(0x0B5_0006);
    for _ in 0..12 {
        let blocks = 1 + rng.next_below(3) as usize;
        let app_tag = rng.next_u64() as u16;
        let ref_tag = rng.next_u64() as u32;
        for bs in [DifBlockSize::B512, DifBlockSize::B520, DifBlockSize::B4096] {
            let cfg = DifConfig { block: bs, app_tag, starting_ref_tag: ref_tag };
            let data = random_bytes(&mut rng, bs.bytes() * blocks);
            let protected = dif_insert(&cfg, &data).unwrap();
            assert_eq!(protected.len(), data.len() + blocks * 8);
            dif_check(&cfg, &protected).unwrap();
            let stripped = dif_strip(&cfg, &protected).unwrap();
            assert_eq!(&stripped, &data);
            // Update to new tags verifies under the new config only.
            let dst = DifConfig {
                block: bs,
                app_tag: app_tag.wrapping_add(1),
                starting_ref_tag: ref_tag.wrapping_add(7),
            };
            let updated = dif_update(&cfg, &dst, &protected).unwrap();
            dif_check(&dst, &updated).unwrap();
        }
    }
}

#[test]
fn dif_detects_any_payload_corruption() {
    let mut rng = SplitMix64::new(0x0B5_0007);
    for _ in 0..CASES {
        let block_data = random_bytes(&mut rng, 512);
        let cfg = DifConfig::new(DifBlockSize::B512);
        let mut protected = dif_insert(&cfg, &block_data).unwrap();
        let i = rng.next_below(512) as usize; // corrupt payload, not the PI
        protected[i] ^= 1 << rng.next_below(8);
        assert!(dif_check(&cfg, &protected).is_err());
    }
}

#[test]
fn fill_then_compare_pattern_always_matches() {
    let mut rng = SplitMix64::new(0x0B5_0008);
    for _ in 0..CASES {
        let len = rng.next_below(512) as usize;
        let pattern = rng.next_u64();
        let mut buf = vec![0u8; len];
        memops::fill(&mut buf, pattern);
        assert_eq!(memops::compare_pattern(&buf, pattern), None);
    }
}

/// One table step per byte: the reference the slice-by-8 kernel must match.
fn crc16_t10_bytewise(data: &[u8]) -> u16 {
    let mut table = [0u16; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut crc = (i as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x8BB7 } else { crc << 1 };
        }
        *entry = crc;
    }
    let mut crc: u16 = 0;
    for &b in data {
        let idx = ((crc >> 8) ^ b as u16) & 0xFF;
        crc = (crc << 8) ^ table[idx as usize];
    }
    crc
}

#[test]
fn crc16_t10_matches_bytewise_reference() {
    let mut rng = SplitMix64::new(0x0B5_000B);
    assert_eq!(crc16_t10_bytewise(b"123456789"), 0xD0DB);
    // Every length up to three words covers every remainder after 0, 1
    // and 2 full words; then random lengths up to 4,096.
    let lens =
        (0..=24).chain((0..CASES).map(|_| rng.next_below(4097) as usize)).collect::<Vec<_>>();
    for len in lens {
        let data = random_bytes(&mut rng, len);
        assert_eq!(crc16_t10(&data), crc16_t10_bytewise(&data), "len {len}");
    }
}

#[test]
fn dif_insert_check_strip_roundtrip_over_blocks() {
    let mut rng = SplitMix64::new(0x0B5_000C);
    let sizes = [DifBlockSize::B512, DifBlockSize::B520, DifBlockSize::B4096, DifBlockSize::B4104];
    for _ in 0..CASES {
        let block = sizes[rng.next_below(4) as usize];
        let blocks = 1 + rng.next_below(8) as usize;
        let cfg = DifConfig {
            block,
            app_tag: rng.next_u64() as u16,
            starting_ref_tag: rng.next_u64() as u32,
        };
        let data = random_bytes(&mut rng, blocks * block.bytes());
        let protected = dif_insert(&cfg, &data).unwrap();
        assert_eq!(protected.len(), data.len() + blocks * 8);
        for (chunk, raw) in
            protected.chunks_exact(block.bytes() + 8).zip(data.chunks(block.bytes()))
        {
            let guard = u16::from_be_bytes([chunk[block.bytes()], chunk[block.bytes() + 1]]);
            assert_eq!(guard, crc16_t10_bytewise(raw));
        }
        dif_check(&cfg, &protected).unwrap();
        assert_eq!(dif_strip(&cfg, &protected).unwrap(), data);
    }
}

#[test]
fn compare_pattern_reports_the_mutated_offset() {
    let mut rng = SplitMix64::new(0x0B5_000D);
    for case in 0..CASES {
        let len = 1 + rng.next_below(1024) as usize;
        let pattern = rng.next_u64();
        let mut buf = vec![0u8; len];
        memops::fill(&mut buf, pattern);
        // Every fourth case lands in the tail after the last full word
        // (or the last byte when the length is a multiple of 8).
        let i = if case % 4 == 0 {
            let tail = len % 8;
            if tail == 0 {
                len - 1
            } else {
                len - tail + rng.next_below(tail as u64) as usize
            }
        } else {
            rng.next_below(len as u64) as usize
        };
        buf[i] ^= 1 + rng.next_below(255) as u8;
        assert_eq!(memops::compare_pattern(&buf, pattern), Some(i), "len {len}");
    }
}

/// Byte by byte: the reference the blocked kernel must match.
fn compare_pattern_bytewise(buf: &[u8], pattern: u64) -> Option<usize> {
    let bytes = pattern.to_le_bytes();
    buf.iter().enumerate().position(|(i, &b)| b != bytes[i % 8])
}

/// The 64-byte-block kernel agrees with the byte-by-byte oracle over
/// random patterns and lengths, with one flipped bit at a block's first
/// byte, at its last byte, in the tail after the last block, or anywhere,
/// and on buffers of random bytes.
#[test]
fn compare_pattern_matches_the_bytewise_oracle() {
    let mut rng = SplitMix64::new(0x0B5_000F);
    for case in 0..4 * CASES {
        let len = rng.next_below(1100) as usize;
        let pattern = rng.next_u64();
        let mut buf = vec![0u8; len];
        memops::fill(&mut buf, pattern);
        assert_eq!(memops::compare_pattern(&buf, pattern), None, "len {len}");
        let (blocks, tail) = (len / 64, len % 64);
        let flip = match case % 5 {
            0 if blocks > 0 => Some(rng.next_below(blocks as u64) as usize * 64),
            1 if blocks > 0 => Some(rng.next_below(blocks as u64) as usize * 64 + 63),
            2 if tail > 0 => Some(blocks * 64 + rng.next_below(tail as u64) as usize),
            4 => {
                rng.fill_bytes(&mut buf);
                None
            }
            _ if len > 0 => Some(rng.next_below(len as u64) as usize),
            _ => None,
        };
        if let Some(i) = flip {
            buf[i] ^= 1 << rng.next_below(8);
        }
        let want = compare_pattern_bytewise(&buf, pattern);
        if case % 5 != 4 {
            assert_eq!(want, flip, "the oracle finds the flip");
        }
        assert_eq!(memops::compare_pattern(&buf, pattern), want, "len {len} flip {flip:?}");
    }
}

#[test]
fn compare_reports_the_mutated_offset_in_large_buffers() {
    let mut rng = SplitMix64::new(0x0B5_000E);
    for _ in 0..CASES {
        let len = 513 + rng.next_below(8192) as usize;
        let a = random_bytes(&mut rng, len);
        let mut b = a.clone();
        assert_eq!(memops::compare(&a, &b), None);
        let i = rng.next_below(len as u64) as usize;
        b[i] ^= 1 + rng.next_below(255) as u8;
        assert_eq!(memops::compare(&a, &b), Some(i));
    }
}

#[test]
fn compare_agrees_with_std() {
    let mut rng = SplitMix64::new(0x0B5_0009);
    for _ in 0..CASES {
        let n_a = rng.next_below(512) as usize;
        let a = random_bytes(&mut rng, n_a);
        // Derive b from a with a possible mutation.
        let b_seed = rng.next_u64();
        let mut b = a.clone();
        if !b.is_empty() && b_seed.is_multiple_of(3) {
            let i = (b_seed as usize / 3) % b.len();
            b[i] = b[i].wrapping_add(1);
        }
        let expected = a.iter().zip(&b).position(|(x, y)| x != y);
        assert_eq!(memops::compare(&a, &b), expected);
    }
}

#[test]
fn dualcast_produces_identical_copies() {
    let mut rng = SplitMix64::new(0x0B5_000A);
    for _ in 0..CASES {
        let n_src = rng.next_below(512) as usize;
        let src = random_bytes(&mut rng, n_src);
        let mut d1 = vec![0u8; src.len()];
        let mut d2 = vec![0xFFu8; src.len()];
        memops::dualcast(&src, &mut d1, &mut d2);
        assert_eq!(&d1, &src);
        assert_eq!(&d2, &src);
    }
}

//! CRC-32 (IEEE 802.3): the checksum on every page image and wire frame.
//!
//! The heap layer stamps a CRC over each page's row count and payload
//! before it writes the page, and verifies it the first time a handle
//! reads the page; the mmap path verifies every page once at open; the
//! serving layer's wire frames carry one too. A torn or corrupted page
//! therefore surfaces as a typed error instead of silently decoding
//! garbage. Cube relations are written once and read many times, so the
//! check sits on hot paths at both ends, and its speed matters.
//!
//! This is the standard reflected CRC-32 (polynomial `0xEDB88320`,
//! initial value and final XOR `0xFFFFFFFF`; `crc32(b"123456789") ==
//! 0xCBF43926`), computed by *slicing-by-16*: sixteen 256-entry tables,
//! built at compile time, fold sixteen input bytes per step with
//! independent lookups, where a byte-at-a-time loop carries a serial
//! dependency through every byte. Bytes past the last whole 16-byte block
//! go through table 0 one at a time. The value of every checksum is the
//! same as the byte-at-a-time definition's, so no on-disk or wire format
//! depends on which one computed it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC of byte `b`; `TABLES[k][b]` is that CRC
/// advanced through `k` further zero bytes, so a lookup in table `k`
/// accounts for a byte that sits `k` bytes before the end of a block.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Streaming CRC-32, for checksums over non-contiguous regions (the page
/// layer covers the row-count header and the payload but not the checksum
/// field between them).
#[derive(Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state (no bytes consumed).
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed more bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut c = self.0;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            let w = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(w & 0xFF) as usize]
                ^ t[14][((w >> 8) & 0xFF) as usize]
                ^ t[13][((w >> 16) & 0xFF) as usize]
                ^ t[12][(w >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The definition: the reflected CRC-32 one bit at a time, with no
    /// table. Slicing-by-16 must agree with it on every input.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic bytes from a seed (xorshift64).
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn table_zero_is_the_classic_table() {
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
        assert_eq!(Crc32::new().finish(), crc32(b""));
    }

    #[test]
    fn long_input() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let c1 = crc32(&data);
        assert_eq!(c1, reference_crc32(&data));
        let mut mutated = data.clone();
        mutated[50_000] ^= 0x40;
        assert_ne!(c1, crc32(&mutated));
        assert_eq!(c1, crc32(&data), "deterministic");
    }

    #[test]
    fn every_length_around_the_block_size_matches_the_reference() {
        let data = bytes(0x5EED, 64);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), reference_crc32(&data[..len]), "length {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Slicing-by-16 equals the bitwise definition on random inputs
        /// of every length class: empty, shorter than one block, and up
        /// to two and a half pages.
        #[test]
        fn slicing_matches_reference(seed in any::<u64>(), len in 0usize..20_001) {
            let data = bytes(seed, len);
            prop_assert_eq!(crc32(&data), reference_crc32(&data));
        }

        /// Feeding the same bytes in pieces, split at random points, gives
        /// the one-shot checksum: block alignment is per call, not per
        /// stream, so each split restarts the 16-byte blocking.
        #[test]
        fn split_updates_match_one_shot(
            seed in any::<u64>(),
            len in 0usize..20_001,
            cuts in proptest::collection::vec(any::<u32>(), 0..8),
        ) {
            let data = bytes(seed, len);
            let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (len + 1)).collect();
            at.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for to in at.into_iter().chain([len]) {
                c.update(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(c.finish(), crc32(&data));
        }
    }
}

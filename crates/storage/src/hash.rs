//! A fast, non-cryptographic hasher for integer-keyed hot paths.
//!
//! The cubing algorithms hash dimension-value tuples billions of times
//! (e.g. the single-pass construction of node *N* during external
//! partitioning, §4 of the paper). The standard library's SipHash is
//! collision-resistant but slow for short integer keys; following the Rust
//! Performance Book we ship an FxHash-style multiply-rotate hasher. HashDoS
//! is not a concern: all keys are internally generated dimension ids.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit "Fx" multiplication constant (golden-ratio derived).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: `state = (state.rotate_left(5) ^ word) * SEED`.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8-byte words, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add_word(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash an arbitrary byte slice with [`FxHasher`] in one call.
///
/// Used to hash dimension-id key prefixes of raw fixed-width rows without
/// materializing a key struct.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_bytes(b"hello world"), hash_bytes(b"hello world"));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"b"));
        assert_ne!(hash_bytes(&7u64.to_le_bytes()), hash_bytes(&8u64.to_le_bytes()));
    }

    #[test]
    fn tail_bytes_affect_hash() {
        // 9 bytes: one full word plus a 1-byte tail.
        let mut a = [0u8; 9];
        let mut b = [0u8; 9];
        a[8] = 1;
        b[8] = 2;
        assert_ne!(hash_bytes(&a), hash_bytes(&b));
    }

    #[test]
    fn write_u32_matches_word_path() {
        let mut h1 = FxHasher::default();
        h1.write_u32(42);
        let mut h2 = FxHasher::default();
        h2.write_u64(42);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn usable_in_hashmap() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }

    #[test]
    fn distribution_sanity() {
        // Hash 10k consecutive integers into 64 buckets; no bucket should be
        // empty and none should hold more than 4x the average.
        let mut buckets = [0u32; 64];
        for i in 0..10_000u64 {
            let h = {
                let mut hasher = FxHasher::default();
                hasher.write_u64(i);
                hasher.finish()
            };
            buckets[(h % 64) as usize] += 1;
        }
        let avg = 10_000 / 64;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(b > 0, "bucket {i} empty");
            assert!(b < 4 * avg, "bucket {i} overloaded: {b}");
        }
    }
}

//! RLE-compressed bitmap indexes over row-ids.
//!
//! §5.3 of the paper proposes storing each cube node's trivial-tuple (TT)
//! row-id list as a bitmap over the original fact table "if the underlying
//! ROLAP engine supports bitmap indexing". The CURE+ variant measured in
//! the evaluation uses exactly this. A bitmap also sorts row-ids implicitly,
//! which the paper notes produces sequential scans at query time.
//!
//! Encoding: the sorted set of row-ids is stored as alternating
//! `(gap, run)` pairs of LEB128 varints — `gap` zero bits skipped, then
//! `run` consecutive one bits. This is compact both for sparse sets (large
//! gaps) and for dense sets (long runs), the two regimes TT lists occupy.
//!
//! [`BitmapIndex::from_bytes`] decodes every run once and rejects a blob
//! whose positions overflow a row-id or disagree with its count, so the
//! other operations decode a validated body.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::{Result, StorageError};
use crate::heap::RowId;

/// A compressed, immutable set of row-ids.
///
/// ```
/// use cure_storage::BitmapIndex;
/// let bm = BitmapIndex::from_sorted(&[3, 4, 5, 100]);
/// assert_eq!(bm.count(), 4);
/// assert!(bm.contains(4) && !bm.contains(6));
/// let rt = BitmapIndex::from_bytes(&bm.to_bytes()).unwrap();
/// assert_eq!(rt.iter().collect::<Vec<_>>(), vec![3, 4, 5, 100]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapIndex {
    /// (gap, run) varint pairs.
    bytes: Vec<u8>,
    count: u64,
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| StorageError::Corrupt("truncated varint in bitmap".into()))?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(StorageError::Corrupt("varint overflow in bitmap".into()));
        }
    }
}

impl BitmapIndex {
    /// Build from a **strictly increasing** slice of row-ids.
    ///
    /// # Panics
    /// Debug-asserts strict monotonicity; callers sort & dedup first (the
    /// CURE+ post-processing step is precisely that sort).
    pub fn from_sorted(rowids: &[RowId]) -> Self {
        let mut bytes = Vec::new();
        let mut i = 0usize;
        let mut next_expected: u64 = 0;
        while i < rowids.len() {
            let start = rowids[i];
            debug_assert!(start >= next_expected, "row-ids must be strictly increasing");
            let mut run = 1u64;
            while i + (run as usize) < rowids.len() && rowids[i + run as usize] == start + run {
                run += 1;
            }
            push_varint(&mut bytes, start - next_expected);
            push_varint(&mut bytes, run);
            next_expected = start + run;
            i += run as usize;
        }
        BitmapIndex { bytes, count: rowids.len() as u64 }
    }

    /// Build from an unsorted list (sorts and dedups a copy).
    pub fn from_unsorted(rowids: &[RowId]) -> Self {
        let mut sorted = rowids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Self::from_sorted(&sorted)
    }

    /// Number of row-ids in the set.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Compressed size in bytes (what the storage-space figures charge).
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Iterate the row-ids in increasing order.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter { bytes: &self.bytes, pos: 0, current: 0, remaining_run: 0 }
    }

    /// Membership test (linear in the number of runs).
    pub fn contains(&self, rowid: RowId) -> bool {
        let mut pos = 0usize;
        let mut next = 0u64;
        while pos < self.bytes.len() {
            let (Ok(gap), Ok(run)) =
                (read_varint(&self.bytes, &mut pos), read_varint(&self.bytes, &mut pos))
            else {
                return false;
            };
            let start = next + gap;
            if rowid < start {
                return false;
            }
            if rowid < start + run {
                return true;
            }
            next = start + run;
        }
        false
    }

    /// Intersect with another bitmap (both iterate in sorted order; the
    /// result is re-encoded). Used by selective queries to combine a
    /// node's TT list with a value-index bitmap.
    pub fn intersect(&self, other: &BitmapIndex) -> BitmapIndex {
        let mut a = self.iter().peekable();
        let mut b = other.iter().peekable();
        let mut out = Vec::new();
        while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    out.push(x);
                    a.next();
                    b.next();
                }
            }
        }
        BitmapIndex::from_sorted(&out)
    }

    /// Union with another bitmap.
    pub fn union(&self, other: &BitmapIndex) -> BitmapIndex {
        let mut out: Vec<u64> = self.iter().chain(other.iter()).collect();
        out.sort_unstable();
        out.dedup();
        BitmapIndex::from_sorted(&out)
    }

    /// Serialize: `count` varint followed by the run bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes.len() + 10);
        push_varint(&mut out, self.count);
        out.extend_from_slice(&self.bytes);
        out
    }

    /// Deserialize a buffer produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let count = read_varint(bytes, &mut pos)?;
        let body = bytes[pos..].to_vec();
        // Validate: decode all runs, check that every position fits a
        // row-id and that the run total matches `count`.
        let overflow = || StorageError::Corrupt("bitmap run overflows the row-id range".into());
        let mut check_pos = 0usize;
        let (mut total, mut next) = (0u64, 0u64);
        while check_pos < body.len() {
            let gap = read_varint(&body, &mut check_pos)?;
            let run = read_varint(&body, &mut check_pos)?;
            total = total.checked_add(run).ok_or_else(overflow)?;
            next = next.checked_add(gap).and_then(|s| s.checked_add(run)).ok_or_else(overflow)?;
        }
        if total != count {
            return Err(StorageError::Corrupt(format!(
                "bitmap count {count} disagrees with decoded runs total {total}"
            )));
        }
        Ok(BitmapIndex { bytes: body, count })
    }
}

/// Iterator over the row-ids of a [`BitmapIndex`].
pub struct BitmapIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    current: u64,
    remaining_run: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        if self.remaining_run == 0 {
            if self.pos >= self.bytes.len() {
                return None;
            }
            let gap = read_varint(self.bytes, &mut self.pos).ok()?;
            let run = read_varint(self.bytes, &mut self.pos).ok()?;
            self.current += gap;
            self.remaining_run = run;
        }
        let id = self.current;
        self.current += 1;
        self.remaining_run -= 1;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_sparse() {
        let ids = vec![0, 5, 100, 1_000_000, 1_000_001];
        let bm = BitmapIndex::from_sorted(&ids);
        assert_eq!(bm.count(), 5);
        assert_eq!(bm.iter().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn roundtrip_dense_run() {
        let ids: Vec<u64> = (10..10_000).collect();
        let bm = BitmapIndex::from_sorted(&ids);
        assert_eq!(bm.count(), ids.len() as u64);
        assert_eq!(bm.iter().collect::<Vec<_>>(), ids);
        // One gap varint + one run varint: tiny.
        assert!(bm.size_bytes() < 8, "dense run should compress to a few bytes");
    }

    #[test]
    fn empty_bitmap() {
        let bm = BitmapIndex::from_sorted(&[]);
        assert!(bm.is_empty());
        assert_eq!(bm.iter().count(), 0);
        assert!(!bm.contains(0));
        let rt = BitmapIndex::from_bytes(&bm.to_bytes()).unwrap();
        assert!(rt.is_empty());
    }

    #[test]
    fn contains_matches_iter() {
        let ids = vec![3, 4, 5, 9, 20, 21];
        let bm = BitmapIndex::from_sorted(&ids);
        for i in 0..30u64 {
            assert_eq!(bm.contains(i), ids.contains(&i), "id {i}");
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let ids = vec![1, 2, 3, 50, 51, 52, 53, 1000];
        let bm = BitmapIndex::from_sorted(&ids);
        let rt = BitmapIndex::from_bytes(&bm.to_bytes()).unwrap();
        assert_eq!(rt, bm);
        assert_eq!(rt.iter().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn corrupt_count_rejected() {
        // Body encodes {1,2,3} (gap 1, run 3) but the count claims 5.
        let mut bytes = Vec::new();
        push_varint(&mut bytes, 5); // wrong count
        push_varint(&mut bytes, 1); // gap
        push_varint(&mut bytes, 3); // run
        assert!(BitmapIndex::from_bytes(&bytes).is_err());
    }

    #[test]
    fn overflowing_runs_rejected() {
        // count 0, then (gap 0, run 2^63) twice: the run total wraps to 0.
        let mut bytes = Vec::new();
        push_varint(&mut bytes, 0);
        for _ in 0..2 {
            push_varint(&mut bytes, 0);
            push_varint(&mut bytes, 1 << 63);
        }
        assert!(matches!(BitmapIndex::from_bytes(&bytes), Err(StorageError::Corrupt(_))));
        // One run ending past u64::MAX overflows the position instead.
        let mut bytes = Vec::new();
        push_varint(&mut bytes, 1 << 63);
        push_varint(&mut bytes, u64::MAX);
        push_varint(&mut bytes, 1 << 63);
        assert!(matches!(BitmapIndex::from_bytes(&bytes), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn truncated_varint_rejected() {
        // A lone continuation byte is an unterminated varint.
        assert!(BitmapIndex::from_bytes(&[0x80]).is_err());
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let bm = BitmapIndex::from_unsorted(&[9, 1, 9, 4, 1]);
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![1, 4, 9]);
        assert_eq!(bm.count(), 3);
    }

    #[test]
    fn varint_boundaries() {
        // Values straddling 1- and 2-byte varint encodings.
        let ids = vec![126, 127, 128, 129, 16_383, 16_384];
        let bm = BitmapIndex::from_sorted(&ids);
        assert_eq!(bm.iter().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn intersect_and_union() {
        let a = BitmapIndex::from_sorted(&[1, 2, 3, 10, 11, 50]);
        let b = BitmapIndex::from_sorted(&[2, 3, 4, 11, 49, 50]);
        assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), vec![2, 3, 11, 50]);
        assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 10, 11, 49, 50]);
        let empty = BitmapIndex::from_sorted(&[]);
        assert!(a.intersect(&empty).is_empty());
        assert_eq!(a.union(&empty), a);
    }

    #[test]
    fn intersect_disjoint_runs() {
        let a = BitmapIndex::from_sorted(&(0..100).collect::<Vec<u64>>());
        let b = BitmapIndex::from_sorted(&(100..200).collect::<Vec<u64>>());
        assert!(a.intersect(&b).is_empty());
        assert_eq!(a.union(&b).count(), 200);
    }

    #[test]
    fn large_gap_and_u32_max_plus() {
        let ids = vec![0, u32::MAX as u64 + 5];
        let bm = BitmapIndex::from_sorted(&ids);
        assert_eq!(bm.iter().collect::<Vec<_>>(), ids);
        assert!(bm.contains(u32::MAX as u64 + 5));
        assert!(!bm.contains(u32::MAX as u64 + 4));
    }
}

//! Fixed-size pages holding fixed-width rows.
//!
//! A page is the unit of disk I/O and of buffer caching. Layout:
//!
//! ```text
//! +----------------+---------------------------------------------+
//! | nrows: u16 LE  | row 0 | row 1 | ... | row nrows-1 | padding  |
//! +----------------+---------------------------------------------+
//! ```
//!
//! Rows are fixed-width, so slot arithmetic is `HEADER + i * width`. Pages
//! never contain partial rows: the number of rows per page for a relation of
//! row width `w` is `(PAGE_SIZE - HEADER) / w`.
//!
//! The header also carries a CRC-32 over the row count and the payload
//! (see [`crate::checksum`]); the heap layer stamps it on every write and
//! verifies it on first read, and the mmap path at open, so torn or
//! corrupted pages fail loudly. `verify_image` is the one definition of
//! that check, shared by [`Page::verify_checksum`] and the mmap path.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::checksum::Crc32;
use crate::error::{Result, StorageError};

/// Page size in bytes. 8 KiB, a common RDBMS default.
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved for the page header: `nrows: u16`, 2 bytes padding,
/// `crc32: u32` over the payload.
pub const PAGE_HEADER: usize = 8;

/// Checksum over a page image's row count *and* payload, but not the
/// checksum field itself. Covering `nrows` matters for torn-write
/// detection: a write cut short after the header would otherwise pair a
/// new row count with old row bytes and verify clean.
fn content_crc(image: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&image[0..2]);
    c.update(&image[PAGE_HEADER..]);
    c.finish()
}

/// Verify a page image's stored checksum against its content, returning
/// the mismatch as a message.
///
/// A zero stored checksum is accepted as "never stamped", so pages
/// written by older builds (and fresh all-zero pages) stay readable.
pub(crate) fn verify_image(image: &[u8]) -> std::result::Result<(), String> {
    let stored = u32::from_le_bytes([image[4], image[5], image[6], image[7]]);
    if stored == 0 {
        return Ok(());
    }
    let actual = content_crc(image);
    if actual != stored {
        return Err(format!(
            "page checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        ));
    }
    Ok(())
}

/// An in-memory page image.
///
/// `Page` owns a `PAGE_SIZE` buffer; the heap file reads/writes these images
/// verbatim. Helper methods interpret the header and row slots for a given
/// row width.
#[derive(Clone)]
pub struct Page {
    buf: Box<[u8]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Create an empty page (zero rows).
    pub fn new() -> Self {
        Page { buf: vec![0u8; PAGE_SIZE].into_boxed_slice() }
    }

    /// Wrap an existing `PAGE_SIZE` buffer read from disk.
    pub fn from_bytes(bytes: Box<[u8]>) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image is {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        Ok(Page { buf: bytes })
    }

    /// Maximum number of rows of width `row_width` a page can hold.
    #[inline]
    pub fn capacity(row_width: usize) -> usize {
        (PAGE_SIZE - PAGE_HEADER) / row_width
    }

    /// Number of rows currently stored.
    #[inline]
    pub fn nrows(&self) -> usize {
        u16::from_le_bytes([self.buf[0], self.buf[1]]) as usize
    }

    #[inline]
    fn set_nrows(&mut self, n: usize) {
        let n = n as u16;
        self.buf[0..2].copy_from_slice(&n.to_le_bytes());
    }

    /// Borrow row `i` (of width `row_width`).
    ///
    /// # Panics
    /// Panics if `i >= nrows()` in debug builds; in release the slice is
    /// still bounds-checked against the page buffer.
    #[inline]
    pub fn row(&self, row_width: usize, i: usize) -> &[u8] {
        debug_assert!(i < self.nrows(), "row index {i} out of page bounds");
        let off = PAGE_HEADER + i * row_width;
        &self.buf[off..off + row_width]
    }

    /// Append a row; returns `false` (without modifying the page) when full.
    #[inline]
    pub fn push_row(&mut self, row: &[u8]) -> bool {
        let n = self.nrows();
        if n >= Self::capacity(row.len()) {
            return false;
        }
        let off = PAGE_HEADER + n * row.len();
        self.buf[off..off + row.len()].copy_from_slice(row);
        self.set_nrows(n + 1);
        true
    }

    /// Clear the page back to zero rows (buffer contents are left stale).
    #[inline]
    pub fn reset(&mut self) {
        self.set_nrows(0);
    }

    /// The raw page image (for writing to disk).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Zero the unused payload region beyond the last row.
    ///
    /// The heap layer calls this before every disk write so a page image is
    /// a pure function of its row contents — crash recovery compares and
    /// reconstructs sealed pages byte-for-byte, which stale padding (left
    /// behind by [`reset`](Self::reset)) would break.
    pub fn zero_padding(&mut self, row_width: usize) {
        let end = PAGE_HEADER + self.nrows() * row_width;
        if end < PAGE_SIZE {
            self.buf[end..].fill(0);
        }
    }

    /// Stamp the content checksum into the header (done by the heap layer
    /// immediately before a disk write).
    pub fn stamp_checksum(&mut self) {
        let c = content_crc(&self.buf);
        self.buf[4..8].copy_from_slice(&c.to_le_bytes());
    }

    /// Verify the stored checksum against the page content (see
    /// `verify_image`; a zero stored checksum means "never stamped").
    pub fn verify_checksum(&self) -> Result<()> {
        verify_image(&self.buf).map_err(StorageError::Corrupt)
    }

    /// Iterate over the rows of this page.
    pub fn rows(&self, row_width: usize) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.nrows()).map(move |i| self.row(row_width, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math() {
        assert_eq!(Page::capacity(20), (PAGE_SIZE - PAGE_HEADER) / 20);
        assert!(Page::capacity(PAGE_SIZE) == 0);
    }

    #[test]
    fn push_and_read() {
        let mut p = Page::new();
        assert_eq!(p.nrows(), 0);
        assert!(p.push_row(&[1, 2, 3, 4]));
        assert!(p.push_row(&[5, 6, 7, 8]));
        assert_eq!(p.nrows(), 2);
        assert_eq!(p.row(4, 0), &[1, 2, 3, 4]);
        assert_eq!(p.row(4, 1), &[5, 6, 7, 8]);
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let w = 512;
        let mut p = Page::new();
        let row = vec![0xabu8; w];
        let cap = Page::capacity(w);
        for _ in 0..cap {
            assert!(p.push_row(&row));
        }
        assert!(!p.push_row(&row));
        assert_eq!(p.nrows(), cap);
    }

    #[test]
    fn reset_empties() {
        let mut p = Page::new();
        p.push_row(&[0u8; 8]);
        p.reset();
        assert_eq!(p.nrows(), 0);
        assert!(p.push_row(&[1u8; 8]));
        assert_eq!(p.row(8, 0), &[1u8; 8]);
    }

    #[test]
    fn from_bytes_validates_len() {
        assert!(Page::from_bytes(vec![0u8; 10].into_boxed_slice()).is_err());
        let ok = Page::from_bytes(vec![0u8; PAGE_SIZE].into_boxed_slice()).unwrap();
        assert_eq!(ok.nrows(), 0);
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = Page::new();
        p.push_row(&[9u8; 16]);
        let img = p.as_bytes().to_vec().into_boxed_slice();
        let q = Page::from_bytes(img).unwrap();
        assert_eq!(q.nrows(), 1);
        assert_eq!(q.row(16, 0), &[9u8; 16]);
    }

    #[test]
    fn checksum_covers_row_count() {
        let mut p = Page::new();
        p.push_row(&[7u8; 8]);
        p.stamp_checksum();
        p.verify_checksum().unwrap();
        // A torn write that lands a new row count over old payload must not
        // verify: simulate by bumping nrows without restamping.
        let mut torn = p.clone();
        torn.set_nrows(2);
        assert!(torn.verify_checksum().is_err());
    }

    #[test]
    fn zero_stored_checksum_means_never_stamped() {
        // Pages written before checksums existed (and fresh all-zero
        // pages) carry a zero checksum field and must stay readable even
        // though their content CRC is nonzero.
        let mut p = Page::new();
        p.push_row(&[3u8; 8]);
        // never stamped: stored field is still zero, content is not
        assert_eq!(p.as_bytes()[4..8], [0, 0, 0, 0]);
        p.verify_checksum().unwrap();
    }

    #[test]
    fn stamped_then_flipped_bit_is_rejected() {
        let mut p = Page::new();
        p.push_row(&[0x5Au8; 8]);
        p.stamp_checksum();
        p.verify_checksum().unwrap();
        // Flip one payload bit in the on-disk image: verification must
        // fail no matter which covered byte was hit.
        for &off in &[PAGE_HEADER, PAGE_HEADER + 7, PAGE_SIZE - 1] {
            let mut img = p.as_bytes().to_vec();
            img[off] ^= 0x10;
            let bad = Page::from_bytes(img.into_boxed_slice()).unwrap();
            let err = bad.verify_checksum().unwrap_err();
            assert!(err.to_string().contains("checksum mismatch"), "offset {off}: {err}");
        }
        // Flipping a row-count bit (covered via the header prefix) also fails.
        let mut img = p.as_bytes().to_vec();
        img[0] ^= 0x01;
        let bad = Page::from_bytes(img.into_boxed_slice()).unwrap();
        assert!(bad.verify_checksum().is_err());
    }

    /// A partial page of 300 deterministic 16-byte rows.
    fn golden_rows() -> Page {
        let mut p = Page::new();
        for i in 0..300u64 {
            let mut row = [0u8; 16];
            row[..8].copy_from_slice(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
            row[8..].copy_from_slice(&(i as i64 * 37 - 1000).to_le_bytes());
            assert!(p.push_row(&row));
        }
        p.zero_padding(16);
        p
    }

    /// The stored checksum of [`golden_rows`] as the byte-at-a-time CRC
    /// wrote it (also `zlib.crc32` of the row count + payload bytes). The
    /// page format is unchanged, so that image must verify and stamp
    /// identically forever.
    const GOLDEN_CRC: u32 = 0x5928_5D8D;

    #[test]
    fn golden_page_image_verifies() {
        let mut img = golden_rows().as_bytes().to_vec();
        img[4..8].copy_from_slice(&GOLDEN_CRC.to_le_bytes());
        let golden = Page::from_bytes(img.clone().into_boxed_slice()).unwrap();
        golden.verify_checksum().unwrap();
        assert_eq!(verify_image(&img), Ok(()));
        let mut restamped = golden_rows();
        restamped.stamp_checksum();
        assert_eq!(restamped.as_bytes(), &img[..], "stamping reproduces the golden image");
        img[PAGE_SIZE - 1] ^= 1;
        assert!(verify_image(&img).is_err());
    }

    #[test]
    fn zero_padding_canonicalizes() {
        let mut a = Page::new();
        a.push_row(&[1u8; 8]);
        a.push_row(&[2u8; 8]);
        a.reset(); // leaves stale row bytes in the buffer
        a.push_row(&[1u8; 8]);
        a.zero_padding(8);
        a.stamp_checksum();
        let mut b = Page::new();
        b.push_row(&[1u8; 8]);
        b.zero_padding(8);
        b.stamp_checksum();
        assert_eq!(a.as_bytes(), b.as_bytes(), "image depends only on live rows");
    }

    #[test]
    fn rows_iterator() {
        let mut p = Page::new();
        for i in 0..5u8 {
            p.push_row(&[i; 4]);
        }
        let collected: Vec<Vec<u8>> = p.rows(4).map(|r| r.to_vec()).collect();
        assert_eq!(collected.len(), 5);
        assert_eq!(collected[3], vec![3u8; 4]);
    }
}

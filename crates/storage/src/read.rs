//! The one checked page read every reader of a page file goes through.
//!
//! A heap file ([`crate::heap`]), a segment read with `pread` and a
//! mapped file ([`crate::mmap`], [`crate::segment`]) all read a data page
//! by the same rule, written once here in [`PageFile`]:
//!
//! 1. **Read** ([`PageFile::read`]): ask the [`IoPolicy`], apply an
//!    injected bit flip or torn tail to the returned bytes, retry
//!    transient errors with backoff (the `pread` itself runs inside the
//!    retry loop, so real transient I/O errors are retried too), and
//!    count the extra attempts. A clean read of a mapping borrows the
//!    mapped bytes; only a tampered one is copied.
//! 2. **Check** ([`PageFile::check`]): the row count against a cap, then
//!    the CRC-32 — strict for segments, whose pages are all stamped, so
//!    a zero ("never stamped") checksum is damage — counting every
//!    verification and failure, and naming the file (its stem) in a
//!    typed [`StorageError::CorruptPage`]. The two `pread` readers verify
//!    a page once per handle through a [`VerifiedPages`] memo; a mapping
//!    verifies at open, on a tampered access and in a repair probe.
//! 3. A segment page must also hold exactly the rows its extent puts on
//!    it ([`PageFile::expect_rows`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Result, StorageError};
use crate::io::{with_write_retries, IoPolicy, ReadFault};
use crate::page::verify_image;
use crate::stats::StorageStats;

/// The file stem of `path`: the relation name corrupt-page errors carry
/// and the serving layer's quarantine keys by.
fn file_stem(path: &Path) -> String {
    path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
}

/// Row count stored in a raw page image's header.
pub(crate) fn page_nrows(image: &[u8]) -> usize {
    u16::from_le_bytes([image[0], image[1]]) as usize
}

/// The checksum check of one page image. `strict` (segment pages, all
/// stamped when written) makes a zero, never-stamped checksum damage;
/// otherwise it is accepted, as on heap pages.
pub(crate) fn check_checksum(image: &[u8], strict: bool) -> std::result::Result<(), String> {
    if strict && image[4..8] == [0; 4] {
        return Err("page checksum never stamped".into());
    }
    verify_image(image)
}

/// The extent check of one segment page: it holds exactly `want` rows.
pub(crate) fn check_rows(image: &[u8], want: usize) -> std::result::Result<(), String> {
    let got = page_nrows(image);
    if got != want {
        return Err(format!("page holds {got} rows, extent says {want}"));
    }
    Ok(())
}

/// Where [`PageFile::read`] takes the bytes from.
#[derive(Clone, Copy)]
pub(crate) enum Origin<'a> {
    /// `pread` from the open file.
    File(&'a File),
    /// The whole file, mapped.
    Map(&'a [u8]),
}

/// The pages of one handle that passed verification (one bit each):
/// pages are immutable once written, so a clean re-read skips the CRC.
#[derive(Default)]
pub(crate) struct VerifiedPages(Mutex<Vec<u64>>);

impl VerifiedPages {
    /// Forget that `page_no` was verified, so its next read verifies it.
    pub(crate) fn forget(&self, page_no: u64) {
        let (word, bit) = ((page_no / 64) as usize, page_no % 64);
        if let Some(w) = self.0.lock().get_mut(word) {
            *w &= !(1 << bit);
        }
    }
}

/// How [`PageFile::check`] decides whether to verify a page's checksum.
pub(crate) enum Verify<'m> {
    /// Every time: a mapping checks at open, on a tampered access and in
    /// a repair probe, and serves clean accesses without a check.
    Always,
    /// On first sight through this handle or when the read was tampered
    /// with: the `pread` readers. A tampered read never marks the page
    /// verified, so injected damage on a re-read cannot pass.
    Once {
        /// The handle's memo.
        memo: &'m VerifiedPages,
        /// Whether the policy tampered with this read.
        tampered: bool,
    },
}

/// One page file's identity and I/O plumbing: its path and name, the
/// I/O policy and the counters its reads (and its owner's writes) go
/// through.
pub(crate) struct PageFile {
    pub(crate) path: PathBuf,
    /// The file stem: the relation [`StorageError::CorruptPage`] names.
    pub(crate) name: String,
    pub(crate) policy: Arc<dyn IoPolicy>,
    /// Catalog-wide counters; `None` for standalone files.
    pub(crate) stats: Option<Arc<StorageStats>>,
    /// Checksums must be stamped (segment pages).
    strict: bool,
}

impl PageFile {
    pub(crate) fn new(
        path: &Path,
        policy: Arc<dyn IoPolicy>,
        stats: Option<Arc<StorageStats>>,
        strict: bool,
    ) -> Self {
        PageFile { path: path.to_path_buf(), name: file_stem(path), policy, stats, strict }
    }

    /// Apply `f` to the counters, when attached.
    pub(crate) fn count(&self, f: impl FnOnce(&StorageStats)) {
        if let Some(stats) = &self.stats {
            f(stats);
        }
    }

    /// A typed corrupt-page error naming this file.
    pub(crate) fn corrupt(&self, page_no: u64, detail: impl Into<String>) -> StorageError {
        StorageError::CorruptPage {
            relation: self.name.clone(),
            page: page_no,
            detail: detail.into(),
        }
    }

    /// Read `len` bytes at `offset` of `from` through the policy (see the
    /// module docs). Returns the bytes and whether the policy tampered
    /// with them; retries are counted even when the read fails.
    pub(crate) fn read<'a>(
        &self,
        from: Origin<'a>,
        offset: u64,
        len: usize,
    ) -> Result<(Cow<'a, [u8]>, bool)> {
        let mut attempts = 0u64;
        let result = with_write_retries(|| {
            attempts += 1;
            let fault = match self.policy.on_read(&self.path, offset, len) {
                ReadFault::Fail(e) => return Err(e),
                fault => fault,
            };
            let mut image = match from {
                Origin::File(file) => {
                    let mut buf = vec![0u8; len];
                    file.read_exact_at(&mut buf, offset)?;
                    Cow::Owned(buf)
                }
                Origin::Map(bytes) => Cow::Borrowed(&bytes[offset as usize..offset as usize + len]),
            };
            match fault {
                ReadFault::FlipBit { offset: byte, mask } => {
                    image.to_mut()[byte % len] ^= mask.max(1)
                }
                ReadFault::Torn { keep } => image.to_mut()[keep.min(len)..].fill(0),
                ReadFault::Proceed | ReadFault::Fail(_) => return Ok((image, false)),
            }
            Ok((image, true))
        });
        self.count(|s| s.count_read_retries(attempts.saturating_sub(1)));
        Ok(result?)
    }

    /// Check data page `page_no`'s image: its row count against
    /// `max_rows`, then its checksum, as `verify` says. Each checksum
    /// check counts one verification and each failed one a failure.
    ///
    /// A `pread` reader indexes rows by the count on every read, verified
    /// or not, so under [`Verify::Once`] a count over the cap fails
    /// first, outside the counters; under [`Verify::Always`] it is part
    /// of the counted verification.
    pub(crate) fn check(
        &self,
        page_no: u64,
        image: &[u8],
        verify: Verify<'_>,
        max_rows: Option<usize>,
    ) -> Result<()> {
        let nrows = page_nrows(image);
        let over = max_rows
            .filter(|&cap| nrows > cap)
            .map(|cap| format!("row count {nrows} exceeds capacity {cap}"));
        let (mut memo, tampered) = match verify {
            // No memo to consult or mark: verify as a tampered read would.
            Verify::Always => (None, true),
            Verify::Once { memo, tampered } => {
                if let Some(detail) = over {
                    return Err(self.corrupt(page_no, detail));
                }
                (Some(memo.0.lock()), tampered)
            }
        };
        let (word, bit) = ((page_no / 64) as usize, page_no % 64);
        if let Some(m) = memo.as_mut() {
            if m.len() <= word {
                m.resize(word + 1, 0);
            }
            if !tampered && m[word] & (1 << bit) != 0 {
                return Ok(());
            }
        }
        self.count(|s| s.count_checksum_verification());
        match over.map_or_else(|| check_checksum(image, self.strict), Err) {
            Ok(()) => {
                if let (Some(m), false) = (memo.as_mut(), tampered) {
                    m[word] |= 1 << bit;
                }
                Ok(())
            }
            Err(detail) => {
                self.count(|s| s.count_checksum_failure());
                // A page seen corrupt must be re-verified on its next read.
                if let Some(m) = memo.as_mut() {
                    m[word] &= !(1 << bit);
                }
                Err(self.corrupt(page_no, detail))
            }
        }
    }

    /// The extent check of segment page `page_no` (see [`check_rows`]),
    /// as a typed corrupt-page error. Not counted as a verification.
    pub(crate) fn expect_rows(&self, page_no: u64, image: &[u8], want: usize) -> Result<()> {
        check_rows(image, want).map_err(|detail| self.corrupt(page_no, detail))
    }
}

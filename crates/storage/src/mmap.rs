//! Zero-copy serving over sealed heap files: [`MmapRelation`].
//!
//! Cube relations are immutable once construction (or an ingest epoch)
//! finishes, so the serving layer does not need a user-space page cache
//! at all: the kernel page cache already holds the hot pages, and a
//! read-only memory map exposes them to every worker thread with no
//! locking and no copying. An [`MmapRelation`]:
//!
//! * maps the whole heap file `MAP_SHARED`/`PROT_READ` at open and reads
//!   the schema from the mapped header slot (one open of the file),
//! * verifies every page checksum **once** at open, recording failures
//!   in an atomic bad-page bitset (open degrades per page instead of
//!   failing — the serving layer quarantines and repairs),
//! * serves rows as borrowed `&[u8]` slices of the mapping (zero-copy;
//!   `Cow::Owned` only appears when the I/O fault policy tampers with a
//!   read),
//! * consults the catalog's [`IoPolicy`] on every page access, so the
//!   deterministic chaos fault schedules that drive the cache path's
//!   conformance engine work unchanged against the mmap path: a bit
//!   flip or torn read surfaces as a typed
//!   [`StorageError::CorruptPage`], never as wrong rows,
//! * re-verifies pages in place via [`reverify_page`]
//!   (`MAP_SHARED` means an on-disk repair is visible through the
//!   mapping), the hook behind the serve layer's quarantine repair.
//!
//! The map is only valid for *sealed* relations — every row on disk,
//! no in-memory tail. Cube files are flushed at the end of every build
//! and ingest epoch, so the serving layer can always use this path; the
//! shared-cache path remains the fallback for relations still being
//! written.
//!
//! [`reverify_page`]: MmapRelation::reverify_page

use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::catalog::{not_found, Catalog};
use crate::checksum::Crc32;
use crate::error::{Result, StorageError};
use crate::heap::{decode_header, page_offset, RowId};
use crate::io::{with_write_retries, IoPolicy, ReadFault};
use crate::page::{Page, PAGE_HEADER, PAGE_SIZE};
use crate::schema::Schema;
use crate::stats::StorageStats;

/// Minimal raw bindings: the toolchain vendors no libc crate, and the
/// storage engine is already unix-only (positioned I/O via
/// `std::os::unix::fs::FileExt`), so declare the two syscalls we need.
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_SHARED: i32 = 0x01;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// Row count stored in a raw page image's header.
fn page_nrows(bytes: &[u8]) -> usize {
    u16::from_le_bytes([bytes[0], bytes[1]]) as usize
}

/// [`Page::verify_checksum`] over a raw page image: CRC of the row count
/// plus the payload, checked against the stored header field (zero is
/// accepted as "never stamped").
fn verify_page_bytes(bytes: &[u8]) -> std::result::Result<(), String> {
    let stored = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if stored == 0 {
        return Ok(());
    }
    let mut c = Crc32::new();
    c.update(&bytes[0..2]);
    c.update(&bytes[PAGE_HEADER..]);
    let actual = c.finish();
    if actual != stored {
        return Err(format!(
            "page checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        ));
    }
    Ok(())
}

/// A sealed heap relation served zero-copy through a read-only memory
/// map (see module docs).
pub struct MmapRelation {
    /// Base of the mapping (the header slot, then the data pages).
    ptr: *const u8,
    map_len: usize,
    path: PathBuf,
    name: String,
    schema: Schema,
    rows_per_page: usize,
    disk_pages: u64,
    num_rows: u64,
    policy: Arc<dyn IoPolicy>,
    stats: Option<Arc<StorageStats>>,
    /// Bitset over disk pages: a set bit marks a page that failed
    /// verification (at open or at a repair probe) and is served as a
    /// typed [`StorageError::CorruptPage`] until re-verified clean.
    bad: Vec<AtomicU64>,
    /// Keeps the fd alive for the mapping's lifetime (not required by
    /// the kernel, but it keeps repair tooling able to reopen by path
    /// while we serve).
    _file: File,
}

// SAFETY: the mapping is PROT_READ and never remapped after open; all
// interior mutability goes through atomics (`bad`). Raw-pointer reads of
// immutable, process-lifetime-stable memory are safe to share.
unsafe impl Send for MmapRelation {}
unsafe impl Sync for MmapRelation {}

impl std::fmt::Debug for MmapRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRelation")
            .field("name", &self.name)
            .field("pages", &self.disk_pages)
            .field("rows", &self.num_rows)
            .finish()
    }
}

impl Drop for MmapRelation {
    fn drop(&mut self) {
        // SAFETY: ptr/map_len came from a successful mmap of exactly
        // this length and are unmapped exactly once.
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.map_len);
        }
    }
}

impl MmapRelation {
    /// Map the relation `name` from `catalog`, inheriting the catalog's
    /// I/O fault policy and storage counters. Every page is
    /// checksum-verified once here; pages that fail are recorded (and
    /// later served as typed corrupt errors) rather than failing the
    /// open, so one bad page degrades one page, not the whole cube.
    pub fn open(catalog: &Catalog, name: &str) -> Result<Self> {
        let path = catalog.relation_heap_path(name);
        Self::open_at(&path, Arc::clone(catalog.policy()), Some(Arc::clone(catalog.stats())))
            .map_err(|e| not_found(e, name))
    }

    /// [`open`](Self::open) from an explicit path, policy, and stats
    /// sink.
    pub fn open_at(
        path: &Path,
        policy: Arc<dyn IoPolicy>,
        stats: Option<Arc<StorageStats>>,
    ) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < page_offset(0) {
            return Err(StorageError::Corrupt(format!(
                "{}: header slot cut short at {len} bytes",
                path.display()
            )));
        }
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "{}: {len} bytes is not a whole number of pages",
                path.display()
            )));
        }
        let disk_pages = (len - page_offset(0)) / PAGE_SIZE as u64;
        let ptr = {
            // SAFETY: fd is a freshly opened readable file of `len`
            // bytes; a PROT_READ/MAP_SHARED mapping of it has no aliasing
            // hazards (we never write through it).
            let p = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len as usize,
                    sys::PROT_READ,
                    sys::MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if p as usize == usize::MAX {
                return Err(StorageError::Io(io::Error::last_os_error()));
            }
            p as *const u8
        };
        let name = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let bad = (0..disk_pages.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        let mut rel = MmapRelation {
            ptr,
            map_len: len as usize,
            path: path.to_path_buf(),
            name,
            schema: Schema::new(Vec::new()),
            rows_per_page: 0,
            disk_pages,
            num_rows: 0,
            policy,
            stats,
            bad,
            _file: file,
        };
        // The mapping is owned by `rel` from here, so an error below unmaps it.
        // SAFETY: the mapping is at least one header slot long.
        let header = unsafe { std::slice::from_raw_parts(rel.ptr, PAGE_SIZE) };
        rel.schema = decode_header(header, path)?;
        rel.rows_per_page = Page::capacity(rel.schema.row_width());
        if rel.rows_per_page == 0 {
            return Err(StorageError::Layout(format!(
                "row width {} exceeds page capacity",
                rel.schema.row_width()
            )));
        }
        rel.verify_all_pages()?;
        Ok(rel)
    }

    /// Raw mapped bytes of `page_no` (no policy, no verification).
    fn raw_page(&self, page_no: u64) -> &[u8] {
        debug_assert!(page_no < self.disk_pages);
        // SAFETY: page_no is within the mapping (page_offset(disk_pages)
        // == map_len) and the mapping lives as long as &self.
        unsafe {
            std::slice::from_raw_parts(self.ptr.add(page_offset(page_no) as usize), PAGE_SIZE)
        }
    }

    fn bad_bit(&self, page_no: u64) -> bool {
        let (word, bit) = ((page_no / 64) as usize, page_no % 64);
        self.bad.get(word).is_some_and(|w| w.load(Ordering::Acquire) & (1 << bit) != 0)
    }

    fn set_bad(&self, page_no: u64, bad: bool) {
        let (word, bit) = ((page_no / 64) as usize, page_no % 64);
        if let Some(w) = self.bad.get(word) {
            if bad {
                w.fetch_or(1 << bit, Ordering::AcqRel);
            } else {
                w.fetch_and(!(1 << bit), Ordering::AcqRel);
            }
        }
    }

    /// Consult the I/O policy for one page access, mirroring the heap
    /// layer's read semantics: transient failures are retried with
    /// backoff (and counted), hard failures surface as I/O errors, and
    /// tampering faults (bit flip / torn read) are applied to a private
    /// copy of the mapped page. Returns the page image to serve from.
    fn policy_page(&self, page_no: u64) -> Result<Cow<'_, [u8]>> {
        let offset = page_offset(page_no);
        let mut attempts = 0u64;
        let result = with_write_retries(|| {
            attempts += 1;
            match self.policy.on_read(&self.path, offset, PAGE_SIZE) {
                ReadFault::Proceed => Ok(None),
                ReadFault::Fail(e) => Err(e),
                ReadFault::FlipBit { offset: byte, mask } => {
                    let mut copy = self.raw_page(page_no).to_vec();
                    copy[byte % PAGE_SIZE] ^= mask.max(1);
                    Ok(Some(copy))
                }
                ReadFault::Torn { keep } => {
                    let mut copy = self.raw_page(page_no).to_vec();
                    copy[keep.min(PAGE_SIZE)..].fill(0);
                    Ok(Some(copy))
                }
            }
        });
        if let Some(stats) = &self.stats {
            stats.count_read_retries(attempts.saturating_sub(1));
        }
        match result? {
            None => Ok(Cow::Borrowed(self.raw_page(page_no))),
            Some(copy) => Ok(Cow::Owned(copy)),
        }
    }

    fn corrupt(&self, page_no: u64, detail: impl Into<String>) -> StorageError {
        StorageError::CorruptPage {
            relation: self.name.clone(),
            page: page_no,
            detail: detail.into(),
        }
    }

    /// Verify a page image (header sanity + checksum), counting into the
    /// storage stats. Used at open and by [`reverify_page`](Self::reverify_page).
    fn verify_bytes(&self, page_no: u64, bytes: &[u8]) -> Result<()> {
        if let Some(stats) = &self.stats {
            stats.count_checksum_verification();
        }
        let fail = |detail: String| {
            if let Some(stats) = &self.stats {
                stats.count_checksum_failure();
            }
            Err(self.corrupt(page_no, detail))
        };
        let nrows = page_nrows(bytes);
        if nrows > self.rows_per_page {
            return fail(format!("row count {nrows} exceeds capacity {}", self.rows_per_page));
        }
        if let Err(detail) = verify_page_bytes(bytes) {
            return fail(detail);
        }
        Ok(())
    }

    /// Open-time pass: policy-consult and verify every page once,
    /// recording failures in the bad-page bitset, and derive the row
    /// count (all pages but the last are full in a sealed heap).
    fn verify_all_pages(&mut self) -> Result<()> {
        for p in 0..self.disk_pages {
            let sound = match self.policy_page(p) {
                Ok(bytes) => self.verify_bytes(p, &bytes).is_ok(),
                // A hard read fault at open degrades the page, not the
                // open; the repair probe re-verifies it later.
                Err(_) => false,
            };
            if !sound {
                self.set_bad(p, true);
            }
            // Every page except the last must be full, or row-id
            // arithmetic is impossible. A clean short middle page means
            // this is not a sealed heap file — refuse the mapping.
            if sound
                && p + 1 < self.disk_pages
                && page_nrows(self.raw_page(p)) != self.rows_per_page
            {
                return Err(StorageError::Corrupt(format!(
                    "{}: page {p} holds {} rows but only the last page may be partial — \
                     relation is not sealed",
                    self.path.display(),
                    page_nrows(self.raw_page(p)),
                )));
            }
        }
        self.num_rows = if self.disk_pages == 0 {
            0
        } else {
            let tail = page_nrows(self.raw_page(self.disk_pages - 1)).min(self.rows_per_page);
            (self.disk_pages - 1) * self.rows_per_page as u64 + tail as u64
        };
        Ok(())
    }

    /// The relation name (file stem) — the identity corrupt errors and
    /// the serving layer's quarantine key by.
    pub fn relation_name(&self) -> &str {
        &self.name
    }

    /// The relation's row schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows on disk.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// Rows per full page (for row-id ↔ page arithmetic).
    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page
    }

    /// Pages on disk (the last may be partial).
    pub fn num_pages(&self) -> u64 {
        self.disk_pages
    }

    /// Pages currently marked bad (failed verification, pending repair).
    pub fn bad_pages(&self) -> u64 {
        self.bad.iter().map(|w| w.load(Ordering::Acquire).count_ones() as u64).sum()
    }

    /// One page image, policy-consulted and gated on the bad-page set.
    /// Borrowed from the mapping on the clean path (zero-copy); owned
    /// only when the fault policy tampered with the access, in which
    /// case the tampered image is re-verified and surfaces as a typed
    /// corrupt error on mismatch — a corrupt mapped page can produce an
    /// error, never wrong rows.
    pub fn page(&self, page_no: u64) -> Result<Cow<'_, [u8]>> {
        if page_no >= self.disk_pages {
            return Err(
                self.corrupt(page_no, format!("page beyond file ({} pages)", self.disk_pages))
            );
        }
        if self.bad_bit(page_no) {
            return Err(self.corrupt(page_no, "page failed verification (pending repair)"));
        }
        let bytes = self.policy_page(page_no)?;
        if let Cow::Owned(_) = bytes {
            // Tampered access: always verify, never trust. (The clean
            // borrowed path was verified once at open.)
            self.verify_bytes(page_no, &bytes)?;
        }
        Ok(bytes)
    }

    /// Row count of one page (via [`page`](Self::page), so gated and
    /// policy-consulted like any other access).
    pub fn page_rows(&self, page_no: u64) -> Result<(Cow<'_, [u8]>, usize)> {
        let bytes = self.page(page_no)?;
        let n = page_nrows(&bytes);
        Ok((bytes, n))
    }

    /// Fetch row `rowid` as a byte slice — borrowed straight from the
    /// mapping on the clean path.
    pub fn row(&self, rowid: RowId) -> Result<Cow<'_, [u8]>> {
        if rowid >= self.num_rows {
            return Err(StorageError::RowOutOfBounds { rowid, num_rows: self.num_rows });
        }
        let w = self.schema.row_width();
        let page_no = rowid / self.rows_per_page as u64;
        let slot = (rowid % self.rows_per_page as u64) as usize;
        let off = PAGE_HEADER + slot * w;
        match self.page(page_no)? {
            Cow::Borrowed(bytes) => Ok(Cow::Borrowed(&bytes[off..off + w])),
            Cow::Owned(bytes) => Ok(Cow::Owned(bytes[off..off + w].to_vec())),
        }
    }

    /// Copying fetch with the same signature shape as
    /// [`HeapFile::fetch_into`](crate::heap::HeapFile::fetch_into), for
    /// differential testing against the cache path.
    pub fn fetch_into(&self, rowid: RowId, out: &mut [u8]) -> Result<()> {
        let w = self.schema.row_width();
        if out.len() != w {
            return Err(StorageError::Layout(format!(
                "fetch_into: buffer {} bytes, row width {w}",
                out.len()
            )));
        }
        out.copy_from_slice(&self.row(rowid)?);
        Ok(())
    }

    /// Iterate every row (page at a time, policy-consulted per page) —
    /// the zero-copy scan behind NT/CAT resolution on the mmap path.
    pub fn try_for_each_row(&self, mut f: impl FnMut(RowId, &[u8]) -> Result<()>) -> Result<()> {
        let w = self.schema.row_width();
        let mut rowid: RowId = 0;
        for p in 0..self.disk_pages {
            let (bytes, nrows) = self.page_rows(p)?;
            for i in 0..nrows {
                let off = PAGE_HEADER + i * w;
                f(rowid, &bytes[off..off + w])?;
                rowid += 1;
            }
        }
        Ok(())
    }

    /// Repair probe: re-verify `page_no` against the live mapping
    /// (`MAP_SHARED`, so an on-disk rewrite is visible here) and update
    /// the bad-page set to match. `Ok` means the page now serves clean.
    pub fn reverify_page(&self, page_no: u64) -> Result<()> {
        if page_no >= self.disk_pages {
            // Parity with the heap layer's in-memory tail: nothing on
            // disk to verify.
            return Ok(());
        }
        let bytes = self.policy_page(page_no)?;
        match self.verify_bytes(page_no, &bytes) {
            Ok(()) => {
                // Only a clean *untampered* image clears the bad bit —
                // a faulted probe proves nothing about the mapping.
                if matches!(bytes, Cow::Borrowed(_)) {
                    self.set_bad(page_no, false);
                }
                Ok(())
            }
            Err(e) => {
                self.set_bad(page_no, true);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::os::unix::fs::FileExt;

    use super::*;
    use crate::io::{no_faults, FaultInjector, ReadFaultKind};
    use crate::schema::{ColType, Column, Value};
    use crate::Catalog;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cure_mmap_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn test_schema() -> Schema {
        Schema::new(vec![Column::new("k", ColType::U64), Column::new("v", ColType::I64)])
    }

    fn build_relation(catalog: &Catalog, name: &str, rows: u64) {
        let mut heap = catalog.create_or_replace(name, test_schema()).unwrap();
        for i in 0..rows {
            heap.append(&[Value::U64(i), Value::I64(i as i64 * 3 - 7)]).unwrap();
        }
        heap.flush().unwrap();
        heap.sync().unwrap();
    }

    #[test]
    fn rows_match_heap_file_byte_for_byte() {
        let dir = tmpdir("diff");
        let catalog = Catalog::open(&dir).unwrap();
        // 2000 rows of 16 bytes: several full pages plus a partial tail.
        build_relation(&catalog, "rel", 2000);
        let heap = catalog.open_relation("rel").unwrap();
        let map = MmapRelation::open(&catalog, "rel").unwrap();
        assert_eq!(map.num_rows(), heap.num_rows());
        assert_eq!(map.rows_per_page(), heap.rows_per_page());
        assert_eq!(map.relation_name(), "rel");
        let w = heap.schema().row_width();
        let mut buf = vec![0u8; w];
        for rowid in 0..heap.num_rows() {
            heap.fetch_into(rowid, &mut buf).unwrap();
            assert_eq!(&*map.row(rowid).unwrap(), &buf[..], "row {rowid} diverged");
        }
        assert!(map.row(heap.num_rows()).is_err(), "out of bounds accepted");
        // The scan sees the same bytes in row order.
        let mut seen = 0u64;
        map.try_for_each_row(|rowid, row| {
            assert_eq!(rowid, seen);
            heap.fetch_into(rowid, &mut buf).unwrap();
            assert_eq!(row, &buf[..]);
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, heap.num_rows());
    }

    #[test]
    fn empty_relation_maps_to_zero_rows() {
        let dir = tmpdir("empty");
        let catalog = Catalog::open(&dir).unwrap();
        build_relation(&catalog, "rel", 0);
        let map = MmapRelation::open(&catalog, "rel").unwrap();
        assert_eq!(map.num_rows(), 0);
        assert!(map.row(0).is_err());
        map.try_for_each_row(|_, _| panic!("no rows expected")).unwrap();
    }

    #[test]
    fn disk_corruption_is_caught_at_open_and_repairable() {
        let dir = tmpdir("corrupt");
        let catalog = Catalog::open(&dir).unwrap();
        build_relation(&catalog, "rel", 1500);
        let path = catalog.relation_heap_path("rel");
        // Save data page 1, then flip a payload byte on disk.
        let file = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        let mut good = vec![0u8; PAGE_SIZE];
        file.read_exact_at(&mut good, page_offset(1)).unwrap();
        let mut evil = good.clone();
        evil[PAGE_HEADER + 11] ^= 0x40;
        file.write_all_at(&evil, page_offset(1)).unwrap();
        file.sync_all().unwrap();

        let map = MmapRelation::open(&catalog, "rel").unwrap();
        assert_eq!(map.bad_pages(), 1, "exactly the tampered page is bad");
        // Rows on the bad page fail typed; other pages serve fine.
        let rpp = map.rows_per_page() as u64;
        assert!(map.row(0).is_ok());
        match map.row(rpp) {
            Err(StorageError::CorruptPage { relation, page, .. }) => {
                assert_eq!(relation, "rel");
                assert_eq!(page, 1);
            }
            other => panic!("expected CorruptPage, got {other:?}"),
        }
        assert!(map.reverify_page(1).is_err(), "still corrupt on disk");
        // Repair on disk; MAP_SHARED makes the fix visible in place.
        file.write_all_at(&good, page_offset(1)).unwrap();
        file.sync_all().unwrap();
        map.reverify_page(1).unwrap();
        assert_eq!(map.bad_pages(), 0);
        assert!(map.row(rpp).is_ok(), "repaired page serves again");
    }

    #[test]
    fn policy_faults_surface_typed_never_wrong_rows() {
        let dir = tmpdir("faults");
        let catalog = Catalog::open(&dir).unwrap();
        build_relation(&catalog, "rel", 1000);
        let path = catalog.relation_heap_path("rel");
        let pages = (std::fs::metadata(&path).unwrap().len() - page_offset(0)) / PAGE_SIZE as u64;

        // Bit flip on the first post-open access → typed corrupt.
        let policy = Arc::new(FaultInjector::fail_nth_read(pages, ReadFaultKind::FlipBit));
        let map = MmapRelation::open_at(&path, policy, None).unwrap();
        assert_eq!(map.bad_pages(), 0, "open consumed exactly {pages} policy reads");
        match map.row(0) {
            Err(StorageError::CorruptPage { page: 0, .. }) => {}
            other => panic!("expected CorruptPage on page 0, got {other:?}"),
        }
        // The fault budget is spent: the same row now serves clean (the
        // mapping itself was never damaged).
        assert!(map.row(0).is_ok());

        // Hard read error → typed I/O error, and transient → absorbed.
        let policy = Arc::new(FaultInjector::fail_nth_read(pages, ReadFaultKind::Error));
        let map = MmapRelation::open_at(&path, policy, None).unwrap();
        assert!(matches!(map.row(0), Err(StorageError::Io(_))));
        assert!(map.row(0).is_ok());

        let policy =
            Arc::new(FaultInjector::fail_nth_read(pages, ReadFaultKind::Transient { failures: 2 }));
        let map = MmapRelation::open_at(&path, policy, None).unwrap();
        assert!(map.row(0).is_ok(), "bounded retry absorbs transient faults");
    }

    #[test]
    fn open_survives_faults_during_verification() {
        let dir = tmpdir("openfault");
        let catalog = Catalog::open(&dir).unwrap();
        build_relation(&catalog, "rel", 1500);
        let path = catalog.relation_heap_path("rel");
        // A bit flip during the open-time verify pass marks that page bad
        // without failing the open; a later repair probe clears it.
        let policy = Arc::new(FaultInjector::fail_nth_read(1, ReadFaultKind::FlipBit));
        let map = MmapRelation::open_at(&path, policy, None).unwrap();
        assert_eq!(map.bad_pages(), 1);
        map.reverify_page(1).unwrap();
        assert_eq!(map.bad_pages(), 0);
        let _ = no_faults();
    }
}

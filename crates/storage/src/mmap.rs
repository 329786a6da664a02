//! Zero-copy serving over sealed files: [`MmapRelation`] and the page
//! map a cube segment is served through.
//!
//! Cube relations are immutable once construction (or an ingest epoch)
//! finishes, so the serving layer does not need a user-space page cache
//! at all: the kernel page cache already holds the hot pages, and a
//! read-only memory map exposes them to every worker thread with no
//! locking and no copying. A mapped file (a heap relation here, a node
//! segment in [`crate::segment`]):
//!
//! * is mapped whole, `MAP_SHARED`/`PROT_READ`, at open (one open of the
//!   file, one mapping),
//! * has every data page checksum-verified **once** at open, with
//!   failures recorded in an atomic bad-page bitset (open degrades per
//!   page instead of failing — the serving layer quarantines and repairs),
//! * serves rows as borrowed `&[u8]` slices of the mapping (zero-copy;
//!   `Cow::Owned` only appears when the I/O fault policy tampers with a
//!   read),
//! * consults the catalog's [`IoPolicy`] on every page access, so the
//!   deterministic chaos fault schedules that drive the cache path's
//!   conformance engine work unchanged against the mmap path: a bit
//!   flip or torn read surfaces as a typed
//!   [`StorageError::CorruptPage`], never as wrong rows — every access
//!   and check goes through the crate's one checked page read (the
//!   crate-private `read` module, shared with heap files and segments),
//! * re-verifies pages in place via [`reverify_page`]
//!   (`MAP_SHARED` means an on-disk repair is visible through the
//!   mapping), the hook behind the serve layer's quarantine repair.
//!
//! The map is only valid for *sealed* files — every row on disk, no
//! in-memory tail. Cube files are sealed at the end of every build and
//! ingest epoch, and a serving handle covers one sealed epoch (live
//! ingest opens a new handle per epoch), so the serving layer can use
//! this path or the shared-cache path on any cube it serves.
//!
//! [`reverify_page`]: MmapRelation::reverify_page

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::catalog::{not_found, Catalog};
use crate::error::{Result, StorageError};
use crate::heap::{decode_header, page_offset, RowId};
use crate::io::IoPolicy;
use crate::page::{Page, PAGE_HEADER, PAGE_SIZE};
use crate::read::{page_nrows, Origin, PageFile, Verify};
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

/// A whole file mapped read-only, whose data pages start at
/// [`page_offset`]`(0)`: the page-level core shared by [`MmapRelation`]
/// and the segment map. It reads and checks pages through the one
/// checked page read ([`PageFile`]) and owns the bad-page set; what the
/// pages hold is the owner's business.
pub(crate) struct Mapping {
    /// Base of the mapping (the header slot, then the data pages).
    ptr: *const u8,
    map_len: usize,
    /// Path, name (the identity corrupt errors and the quarantine key
    /// by), I/O policy and counters.
    pub(crate) io: PageFile,
    /// Data pages the owner serves (set by the owner after open).
    pages: u64,
    /// Bitset over data pages: a set bit marks a page that failed
    /// verification (at open or at a repair probe) and is served as a
    /// typed [`StorageError::CorruptPage`] until re-verified clean.
    bad: Vec<AtomicU64>,
}

// SAFETY: the mapping is PROT_READ and never remapped after open; all
// interior mutability goes through atomics (`bad`). Raw-pointer reads of
// immutable, process-lifetime-stable memory are safe to share.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Drop for Mapping {
    fn drop(&mut self) {
        if self.map_len > 0 {
            // SAFETY: ptr/map_len came from a successful mmap of exactly
            // this length and are unmapped exactly once.
            unsafe {
                sys::munmap(self.ptr as *mut std::ffi::c_void, self.map_len);
            }
        }
    }
}

impl Mapping {
    /// Map the file at `path` whole. At least one header slot must be
    /// there; the caller decides how many data pages follow it. `strict`
    /// pages must carry a stamped checksum (segments).
    pub(crate) fn open(
        path: &Path,
        policy: Arc<dyn IoPolicy>,
        stats: Option<Arc<StorageStats>>,
        strict: bool,
    ) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < page_offset(0) {
            return Err(StorageError::Corrupt(format!(
                "{}: header slot cut short at {len} bytes",
                path.display()
            )));
        }
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
        // The mapping outlives the descriptor, so a handle holds no open
        // file.
        drop(file);
        Ok(Mapping {
            ptr,
            map_len: len as usize,
            io: PageFile::new(path, policy, stats, strict),
            pages: 0,
            bad: Vec::new(),
        })
    }

    /// The whole mapped file.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: the mapping is `map_len` bytes and lives as long as &self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.map_len) }
    }

    /// Serve data pages `0..pages`, all presumed clean until verified.
    pub(crate) fn set_pages(&mut self, pages: u64) {
        debug_assert!(page_offset(pages) as usize <= self.map_len);
        self.pages = pages;
        self.bad = (0..pages.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
    }

    pub(crate) fn pages(&self) -> u64 {
        self.pages
    }

    /// Raw mapped bytes of `page_no` (no policy, no verification).
    pub(crate) fn raw_page(&self, page_no: u64) -> &[u8] {
        debug_assert!(page_no < self.pages);
        let off = page_offset(page_no) as usize;
        &self.bytes()[off..off + PAGE_SIZE]
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

    /// Pages currently marked bad.
    pub(crate) fn bad_pages(&self) -> u64 {
        self.bad.iter().map(|w| w.load(Ordering::Acquire).count_ones() as u64).sum()
    }

    /// Data page `page_no` through the checked page read: borrowed from
    /// the mapping, or a private tampered copy when the policy injected
    /// a fault (then `true`).
    fn read(&self, page_no: u64) -> Result<(Cow<'_, [u8]>, bool)> {
        self.io.read(Origin::Map(self.bytes()), page_offset(page_no), PAGE_SIZE)
    }

    /// Open-time check of one page (at most `max_rows` rows): read and
    /// verified, and marked bad (not failed) when it does not pass.
    /// Returns whether it passed.
    pub(crate) fn verify_at_open(&self, page_no: u64, max_rows: usize) -> bool {
        let sound = self
            .read(page_no)
            .and_then(|(image, _)| self.io.check(page_no, &image, Verify::Always, Some(max_rows)))
            // A hard read fault at open degrades the page, not the open;
            // the repair probe re-verifies it later.
            .is_ok();
        if !sound {
            self.set_bad(page_no, true);
        }
        sound
    }

    /// One page image, gated on the bad-page set. Borrowed from the
    /// mapping on the clean path (zero-copy, verified at open); owned
    /// only when the fault policy tampered with the access, in which
    /// case the tampered image is verified and surfaces as a typed
    /// corrupt error on mismatch.
    pub(crate) fn page(&self, page_no: u64, max_rows: usize) -> Result<Cow<'_, [u8]>> {
        if page_no >= self.pages {
            return Err(self
                .io
                .corrupt(page_no, format!("page beyond file ({} pages)", self.pages)));
        }
        if self.bad_bit(page_no) {
            return Err(self.io.corrupt(page_no, "page failed verification (pending repair)"));
        }
        let (image, tampered) = self.read(page_no)?;
        if tampered {
            self.io.check(page_no, &image, Verify::Always, Some(max_rows))?;
        }
        Ok(image)
    }

    /// Repair probe: re-verify `page_no` (at most `max_rows` rows)
    /// against the live mapping and update the bad-page set to match.
    /// `Ok` means the page serves clean.
    pub(crate) fn reverify_page(&self, page_no: u64, max_rows: usize) -> Result<()> {
        if page_no >= self.pages {
            // Parity with the heap layer's in-memory tail: nothing on
            // disk to verify.
            return Ok(());
        }
        let (image, tampered) = self.read(page_no)?;
        match self.io.check(page_no, &image, Verify::Always, Some(max_rows)) {
            Ok(()) => {
                // Only a clean *untampered* image clears the bad bit —
                // a faulted probe proves nothing about the mapping.
                if !tampered {
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

/// A sealed heap relation served zero-copy through a read-only memory
/// map (see module docs).
pub struct MmapRelation {
    map: Mapping,
    schema: Schema,
    rows_per_page: usize,
    num_rows: u64,
}

impl std::fmt::Debug for MmapRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRelation")
            .field("name", &self.map.io.name)
            .field("pages", &self.map.pages)
            .field("rows", &self.num_rows)
            .finish()
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
        let mut map = Mapping::open(path, policy, stats, false)?;
        let len = map.map_len as u64;
        if !len.is_multiple_of(PAGE_SIZE as u64) {
            return Err(StorageError::Corrupt(format!(
                "{}: {len} bytes is not a whole number of pages",
                path.display()
            )));
        }
        map.set_pages((len - page_offset(0)) / PAGE_SIZE as u64);
        let schema = decode_header(&map.bytes()[..PAGE_SIZE], path)?;
        let rows_per_page = Page::capacity(schema.row_width());
        if rows_per_page == 0 {
            return Err(StorageError::Layout(format!(
                "row width {} exceeds page capacity",
                schema.row_width()
            )));
        }
        let mut rel = MmapRelation { map, schema, rows_per_page, num_rows: 0 };
        rel.verify_all_pages()?;
        Ok(rel)
    }

    /// Open-time pass: policy-consult and verify every page once,
    /// recording failures in the bad-page bitset, and derive the row
    /// count (all pages but the last are full in a sealed heap).
    fn verify_all_pages(&mut self) -> Result<()> {
        let pages = self.map.pages;
        for p in 0..pages {
            let sound = self.map.verify_at_open(p, self.rows_per_page);
            // Every page except the last must be full, or row-id
            // arithmetic is impossible. A clean short middle page means
            // this is not a sealed heap file — refuse the mapping.
            if sound && p + 1 < pages && page_nrows(self.map.raw_page(p)) != self.rows_per_page {
                return Err(StorageError::Corrupt(format!(
                    "{}: page {p} holds {} rows but only the last page may be partial — \
                     relation is not sealed",
                    self.map.io.path.display(),
                    page_nrows(self.map.raw_page(p)),
                )));
            }
        }
        self.num_rows = if pages == 0 {
            0
        } else {
            let tail = page_nrows(self.map.raw_page(pages - 1)).min(self.rows_per_page);
            (pages - 1) * self.rows_per_page as u64 + tail as u64
        };
        Ok(())
    }

    /// The relation name (file stem) — the identity corrupt errors and
    /// the serving layer's quarantine key by.
    pub fn relation_name(&self) -> &str {
        &self.map.io.name
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

    /// Pages currently marked bad (failed verification, pending repair).
    pub fn bad_pages(&self) -> u64 {
        self.map.bad_pages()
    }

    /// One page image, policy-consulted and gated on the bad-page set.
    /// Borrowed from the mapping on the clean path (zero-copy); owned
    /// only when the fault policy tampered with the access, in which
    /// case the tampered image is re-verified and surfaces as a typed
    /// corrupt error on mismatch — a corrupt mapped page can produce an
    /// error, never wrong rows.
    pub fn page(&self, page_no: u64) -> Result<Cow<'_, [u8]>> {
        self.map.page(page_no, self.rows_per_page)
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

    /// Iterate every row (page at a time, each page read through
    /// [`page`](Self::page)).
    pub fn try_for_each_row(&self, mut f: impl FnMut(RowId, &[u8]) -> Result<()>) -> Result<()> {
        let w = self.schema.row_width();
        let mut rowid: RowId = 0;
        for p in 0..self.map.pages {
            let bytes = self.page(p)?;
            for i in 0..page_nrows(&bytes) {
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
        self.map.reverify_page(page_no, self.rows_per_page)
    }
}

#[cfg(test)]
mod tests {
    use std::os::unix::fs::FileExt;
    use std::path::PathBuf;

    use super::*;
    use crate::io::{no_faults, FaultInjector, ReadFaultKind};
    use crate::schema::{ColType, Column, Value};
    use crate::Catalog;

    fn tmpdir(tag: &str) -> PathBuf {
        crate::scratch::scratch_dir(&format!("mmap_test_{tag}"))
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

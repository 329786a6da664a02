//! Append-only heap files: page-structured relations on disk.
//!
//! A [`HeapFile`] stores fixed-width rows (described by a [`Schema`]) in
//! [`Page`]s. It supports the three access paths the cubing algorithms need:
//!
//! 1. **Append** — cube construction is write-mostly; appends are buffered
//!    in a tail page and flushed when the page fills.
//! 2. **Sequential scan** — partitioning and monolithic-format query
//!    answering scan entire relations ([`HeapFile::for_each_row`]).
//! 3. **Random fetch by row-id** — CURE's NT/TT/CAT formats replace data
//!    with R-rowid/A-rowid references that are resolved at query time,
//!    optionally through a [`BufferCache`](crate::cache::BufferCache), or
//!    a page-ordered batch at a time through a
//!    [`SharedBufferCache`](crate::shared_cache::SharedBufferCache)
//!    ([`HeapFile::gather_shared`]).
//!
//! Row-ids are dense `0..num_rows`, so `rowid ↔ (page, slot)` is pure
//! arithmetic. The file also keeps I/O counters (`pages_read` /
//! `pages_written`) used by the experiment harness to report I/O volumes.
//! Every data page is read through the crate's one checked page read
//! (the crate-private `read` module, shared with segments and mappings):
//! policy-consulted with retries, at most a page's capacity of rows, and
//! checksum-verified once per handle.
//!
//! ## File layout
//!
//! A heap file describes itself: page slot 0 holds the schema, so a
//! relation is one file and creating it costs one create and one write.
//!
//! ```text
//! offset 0            PAGE_SIZE          2·PAGE_SIZE          (n+1)·PAGE_SIZE
//! +-------------------+------------------+-----   ---+------------------+
//! | header slot       | data page 0      |   ...     | data page n      |
//! +-------------------+------------------+-----   ---+------------------+
//!
//! header slot: magic (8) | text_len: u32 LE | crc32(text): u32 LE | text | zeros
//! text:        one "<column name> <type>\n" line per column
//! ```
//!
//! Data page `n` starts at [`page_offset`]`(n)`, so data pages stay
//! page-aligned for `mmap`. The header is written once, at creation,
//! through the [`IoPolicy`] write hook, and is not fsynced there: it
//! becomes durable with the relation's first [`HeapFile::sync`]. Opening
//! reads the first 512 bytes of it (a longer schema text costs one more
//! read) and checks the CRC over the text only. A header slot cut
//! short, a bad magic or a CRC mismatch is [`StorageError::Corrupt`]
//! naming the file. The header write does not count in `pages_written`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Borrow;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::checksum::crc32;
use crate::error::{Result, StorageError};
use crate::io::{fsync_file, with_write_retries, IoPolicy, WriteFault};
use crate::page::{Page, PAGE_HEADER, PAGE_SIZE};
use crate::read::{Origin, PageFile, VerifiedPages, Verify};
use crate::schema::{ColType, Column, Schema, Value};
use crate::stats::StorageStats;

/// Identifies a row within a heap file: dense, starting at 0.
pub type RowId = u64;

/// First bytes of every heap file (format version in the last two).
const MAGIC: &[u8; 8] = b"CUREHP01";

/// Magic, text length and text CRC: the fixed part of the header slot.
const HEADER_FIXED: usize = MAGIC.len() + 8;

/// Bytes of the header slot an open reads up front.
const HEADER_READ: usize = 512;

/// Byte offset of data page `page_no`: the header takes page slot 0.
pub fn page_offset(page_no: u64) -> u64 {
    (page_no + 1) * PAGE_SIZE as u64
}

/// The header slot image for `schema` (see the module docs).
fn encode_header(schema: &Schema) -> Result<Vec<u8>> {
    let text = schema_text(schema);
    if HEADER_FIXED + text.len() > PAGE_SIZE {
        return Err(StorageError::Layout(format!(
            "schema text of {} bytes does not fit the header slot",
            text.len()
        )));
    }
    let mut slot = vec![0u8; PAGE_SIZE];
    slot[..MAGIC.len()].copy_from_slice(MAGIC);
    slot[8..12].copy_from_slice(&(text.len() as u32).to_le_bytes());
    slot[12..16].copy_from_slice(&crc32(text.as_bytes()).to_le_bytes());
    slot[HEADER_FIXED..HEADER_FIXED + text.len()].copy_from_slice(text.as_bytes());
    Ok(slot)
}

/// The schema text length a header prefix declares, after checking the
/// magic.
fn header_text_len(bytes: &[u8], path: &Path) -> Result<usize> {
    if bytes.len() < HEADER_FIXED || &bytes[..MAGIC.len()] != MAGIC {
        return Err(header_corrupt(path, "bad magic: not a heap file of this format"));
    }
    let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    if HEADER_FIXED + len > PAGE_SIZE {
        return Err(header_corrupt(path, &format!("schema text length {len} overflows the slot")));
    }
    Ok(len)
}

/// Decode the schema from a header prefix holding at least the fixed part
/// and the whole schema text.
pub(crate) fn decode_header(bytes: &[u8], path: &Path) -> Result<Schema> {
    let len = header_text_len(bytes, path)?;
    let text = bytes
        .get(HEADER_FIXED..HEADER_FIXED + len)
        .ok_or_else(|| header_corrupt(path, "header cut short"))?;
    let stored = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    let actual = crc32(text);
    if stored != actual {
        return Err(header_corrupt(
            path,
            &format!("schema checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        ));
    }
    let text = std::str::from_utf8(text).map_err(|_| header_corrupt(path, "schema not UTF-8"))?;
    parse_schema_text(text).map_err(|detail| header_corrupt(path, &detail))
}

/// A schema as text: one `"<column name> <type>\n"` line per column (the
/// heap header's and the segment directory's schema encoding).
pub(crate) fn schema_text(schema: &Schema) -> String {
    let mut text = String::new();
    for col in schema.columns() {
        text.push_str(&col.name);
        text.push(' ');
        text.push_str(col.ty.name());
        text.push('\n');
    }
    text
}

/// Parse [`schema_text`]'s encoding back into a schema.
pub(crate) fn parse_schema_text(text: &str) -> std::result::Result<Schema, String> {
    let mut cols = Vec::new();
    for line in text.lines() {
        let (name, ty) =
            line.rsplit_once(' ').ok_or_else(|| format!("bad schema line '{line}'"))?;
        let ty = ColType::parse(ty).ok_or_else(|| format!("bad column type '{ty}'"))?;
        cols.push(Column::new(name, ty));
    }
    Ok(Schema::new(cols))
}

/// Read and decode the schema header of `file`, whose length is `len`.
pub(crate) fn read_header(file: &File, path: &Path, len: u64) -> Result<Schema> {
    if len < page_offset(0) {
        return Err(header_corrupt(path, &format!("header slot cut short at {len} bytes")));
    }
    let mut buf = vec![0u8; HEADER_READ];
    file.read_exact_at(&mut buf, 0)?;
    let need = HEADER_FIXED + header_text_len(&buf, path)?;
    if need > HEADER_READ {
        buf.resize(need, 0);
        file.read_exact_at(&mut buf[HEADER_READ..], HEADER_READ as u64)?;
    }
    decode_header(&buf, path)
}

/// Check that `file` (of length `len`) holds `schema` in its header. A
/// header slot shorter than a page can only be a creation cut short
/// before any data page was written, so it is rewritten from `schema`
/// (which extends the file to one slot); returns whether it was.
fn expect_header(
    policy: &dyn IoPolicy,
    file: &File,
    path: &Path,
    len: u64,
    schema: &Schema,
) -> Result<bool> {
    if len < page_offset(0) {
        write_slot(policy, file, path, 0, &encode_header(schema)?).1?;
        return Ok(true);
    }
    let found = read_header(file, path, len)?;
    if &found != schema {
        return Err(StorageError::Layout(format!(
            "{}: file holds schema {:?}, not the expected {:?}",
            path.display(),
            found.columns(),
            schema.columns()
        )));
    }
    Ok(false)
}

fn header_corrupt(path: &Path, detail: &str) -> StorageError {
    StorageError::Corrupt(format!("{}: {detail}", path.display()))
}

/// Write `bytes` at `offset` through `policy`'s write hook, retrying
/// transient faults. An injected torn write lands a prefix (as a crashed
/// kernel would) and fails. Returns the attempts made.
pub(crate) fn write_slot(
    policy: &dyn IoPolicy,
    file: &File,
    path: &Path,
    offset: u64,
    bytes: &[u8],
) -> (u64, io::Result<()>) {
    let mut attempts = 0u64;
    let result = with_write_retries(|| {
        attempts += 1;
        match policy.on_write(path, offset, bytes.len()) {
            WriteFault::Proceed => file.write_all_at(bytes, offset),
            WriteFault::Torn { keep } => {
                file.write_all_at(&bytes[..keep.min(bytes.len())], offset)?;
                let _ = file.sync_data();
                Err(io::Error::other("injected torn page write"))
            }
            WriteFault::Fail(e) => Err(e),
        }
    });
    (attempts, result)
}

static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// The concurrent serving path shares immutable heap files across worker
/// threads (`Arc<HeapFile>` + [`gather_shared`](HeapFile::gather_shared)).
const _: () = {
    const fn assert_sync<T: Sync + Send>() {}
    assert_sync::<HeapFile>();
};

/// What [`HeapFile::open`] had to discard to recover a clean tail after
/// a crash left a torn final page.
#[derive(Debug, Clone)]
pub struct TailRepair {
    /// Trailing bytes removed because the file length was not a page
    /// multiple (a page write cut short while extending the file).
    pub truncated_bytes: u64,
    /// Whether a whole final page was dropped (header/checksum damage from
    /// a torn in-place rewrite of the tail page).
    pub dropped_page: bool,
    /// Human-readable description of what was found.
    pub reason: String,
}

/// An append-only relation stored as a sequence of pages.
pub struct HeapFile {
    file: File,
    /// Path, name, I/O policy and counters: every page write, fsync and
    /// read goes through them. The counters are attached by
    /// [`Catalog`](crate::Catalog); a standalone file counts per file
    /// only.
    io: PageFile,
    schema: Schema,
    /// Process-unique id used as the buffer-cache key namespace.
    file_id: u64,
    rows_per_page: usize,
    /// Number of *full* pages already written to disk.
    full_pages: u64,
    /// The partially filled tail page (rows not yet on disk unless flushed).
    tail: Page,
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    /// The pages this handle has verified (full pages are immutable, so
    /// one check per handle suffices; clean re-reads skip the CRC).
    verified: VerifiedPages,
}

impl HeapFile {
    /// Create a new, empty heap file at `path` with I/O policy `policy`,
    /// truncating any existing file.
    pub fn create(
        path: impl AsRef<Path>,
        schema: Schema,
        policy: Arc<dyn IoPolicy>,
    ) -> Result<Self> {
        Self::create_at(path.as_ref(), schema, policy, false)
    }

    /// Create the file at `path` and write its header slot. `exclusive`
    /// fails with [`io::ErrorKind::AlreadyExists`] instead of truncating
    /// an existing file.
    pub(crate) fn create_at(
        path: &Path,
        schema: Schema,
        policy: Arc<dyn IoPolicy>,
        exclusive: bool,
    ) -> Result<Self> {
        if Page::capacity(schema.row_width()) == 0 {
            return Err(too_wide(&schema));
        }
        let header = encode_header(&schema)?;
        let mut opts = OpenOptions::new();
        opts.read(true).write(true);
        if exclusive {
            opts.create_new(true);
        } else {
            opts.create(true).truncate(true);
        }
        let file = opts.open(path)?;
        write_slot(policy.as_ref(), &file, path, 0, &header).1?;
        Ok(HeapFile::with_pages(file, path, schema, 0, policy, None))
    }

    /// Open the heap file at `path`, created with `schema`, through I/O
    /// policy `policy`: its header must hold that schema
    /// ([`StorageError::Layout`] otherwise), and a header cut short by a
    /// crash during creation is rewritten from it. Returns the file and
    /// the torn-tail repair applied, if any.
    ///
    /// The last page on disk, if partially filled, becomes the in-memory
    /// tail so appends can resume. Tail recovery distinguishes two
    /// torn-write shapes: a file length that is not a page multiple (the
    /// crash interrupted a write that was extending the file) and a final
    /// page whose checksum or row count is invalid (the crash interrupted
    /// an in-place rewrite of the tail page). Both are repaired by
    /// truncating to the last sealed page. Because truncation is
    /// destructive, a checksum-invalid tail is confirmed by a second read
    /// first: corruption that a re-read does not reproduce was a
    /// transient read-side fault, and the page is kept. Corruption
    /// *before* the final page is not repaired — it cannot have been
    /// produced by a single torn tail write — and surfaces as
    /// [`StorageError::CorruptPage`] on first read of the damaged page.
    pub fn open(
        path: impl AsRef<Path>,
        schema: Schema,
        policy: Arc<dyn IoPolicy>,
    ) -> Result<(Self, Option<TailRepair>)> {
        Self::open_at(path.as_ref(), Some(schema), policy, None)
    }

    /// Open the heap file at `path`, taking its schema from the header.
    ///
    /// With `expected` set, the header must hold that schema (else
    /// [`StorageError::Layout`]), and a header slot cut short by a crash
    /// during creation is rewritten from it and reported as a repair.
    /// Without it, such a header is [`StorageError::Corrupt`]. `stats` is attached *before*
    /// the open-time tail reads, so retries and checksum verifications
    /// spent while opening are counted too (relations open lazily under
    /// live traffic, where those reads are part of serving).
    pub(crate) fn open_at(
        path: &Path,
        expected: Option<Schema>,
        policy: Arc<dyn IoPolicy>,
        stats: Option<Arc<StorageStats>>,
    ) -> Result<(Self, Option<TailRepair>)> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut len = file.metadata()?.len();
        let mut repair: Option<TailRepair> = None;
        let schema = match expected {
            Some(schema) => {
                if expect_header(policy.as_ref(), &file, path, len, &schema)? {
                    fsync_file(policy.as_ref(), &file, path).map_err(StorageError::Io)?;
                    repair = Some(TailRepair {
                        truncated_bytes: 0,
                        dropped_page: false,
                        reason: format!(
                            "torn creation: header slot cut short at {len} bytes; rewritten"
                        ),
                    });
                    len = page_offset(0);
                }
                schema
            }
            None => read_header(&file, path, len)?,
        };
        if Page::capacity(schema.row_width()) == 0 {
            return Err(too_wide(&schema));
        }
        let data_len = len - page_offset(0);
        let excess = data_len % PAGE_SIZE as u64;
        if excess != 0 {
            file.set_len(len - excess)?;
            fsync_file(policy.as_ref(), &file, path).map_err(StorageError::Io)?;
            repair = Some(TailRepair {
                truncated_bytes: excess,
                dropped_page: false,
                reason: format!(
                    "torn tail: length {len} is not a page multiple; \
                     truncated {excess} trailing bytes"
                ),
            });
        }
        let pages = (data_len - excess) / PAGE_SIZE as u64;
        let mut hf = HeapFile::with_pages(file, path, schema, pages, policy, stats);
        match hf.adopt_tail() {
            Err(StorageError::Corrupt(_) | StorageError::CorruptPage { .. }) => {
                // Truncation is destructive, so distinguish persistent
                // on-media damage (a torn tail write — drop the page)
                // from a transient read-side fault (keep it) by
                // re-reading before acting.
                match hf.adopt_tail() {
                    Err(
                        StorageError::Corrupt(detail) | StorageError::CorruptPage { detail, .. },
                    ) => {
                        // One torn write damages at most the final page;
                        // drop it. The preceding page must be sound: it
                        // is verified and adopted as the tail if partial.
                        hf.full_pages -= 1;
                        hf.file.set_len(page_offset(hf.full_pages))?;
                        fsync_file(hf.io.policy.as_ref(), &hf.file, &hf.io.path)
                            .map_err(StorageError::Io)?;
                        repair = Some(TailRepair {
                            truncated_bytes: PAGE_SIZE as u64
                                + repair.as_ref().map_or(0, |r| r.truncated_bytes),
                            dropped_page: true,
                            reason: format!("torn tail: dropped invalid final page ({detail})"),
                        });
                        hf.adopt_tail()?;
                    }
                    other => other?,
                }
            }
            other => other?,
        }
        Ok((hf, repair))
    }

    /// Open the sealed heap file at `path` for reading only: nothing is
    /// written, truncated or fsynced. The header supplies the schema, and
    /// the last page is read and checksum-verified so a partial one can
    /// serve as the in-memory tail. A length that is not a whole number
    /// of pages is [`StorageError::Corrupt`], and a last page that fails
    /// verification is the read's typed error — a reader reports damage
    /// and leaves tail repair to the writer's recovery.
    pub(crate) fn open_sealed_at(
        path: &Path,
        policy: Arc<dyn IoPolicy>,
        stats: Option<Arc<StorageStats>>,
    ) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let schema = read_header(&file, path, len)?;
        if Page::capacity(schema.row_width()) == 0 {
            return Err(too_wide(&schema));
        }
        let data_len = len - page_offset(0);
        if !data_len.is_multiple_of(PAGE_SIZE as u64) {
            return Err(StorageError::Corrupt(format!(
                "{}: {len} bytes is not a whole number of pages",
                path.display()
            )));
        }
        let pages = data_len / PAGE_SIZE as u64;
        let mut hf = HeapFile::with_pages(file, path, schema, pages, policy, stats);
        hf.adopt_tail()?;
        Ok(hf)
    }

    /// A handle over `file`, whose `pages` data pages are all on disk.
    fn with_pages(
        file: File,
        path: &Path,
        schema: Schema,
        pages: u64,
        policy: Arc<dyn IoPolicy>,
        stats: Option<Arc<StorageStats>>,
    ) -> Self {
        HeapFile {
            file,
            io: PageFile::new(path, policy, stats, false),
            rows_per_page: Page::capacity(schema.row_width()),
            schema,
            file_id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            full_pages: pages,
            tail: Page::new(),
            pages_read: AtomicU64::new(0),
            pages_written: AtomicU64::new(0),
            verified: VerifiedPages::default(),
        }
    }

    /// Read the last page on disk and, if it is partially filled, make it
    /// the in-memory tail so appends can resume on it.
    fn adopt_tail(&mut self) -> Result<()> {
        if self.full_pages > 0 {
            let last = self.read_page(self.full_pages - 1)?;
            if last.nrows() < self.rows_per_page {
                self.full_pages -= 1;
                self.tail = last;
            }
        }
        Ok(())
    }

    /// The schema this file was created with.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Filesystem path of the backing file.
    pub fn path(&self) -> &Path {
        &self.io.path
    }

    /// Process-unique id, namespacing this file's pages in a buffer cache.
    pub fn file_id(&self) -> u64 {
        self.file_id
    }

    /// Total number of rows (including unflushed tail rows).
    pub fn num_rows(&self) -> u64 {
        self.full_pages * self.rows_per_page as u64 + self.tail.nrows() as u64
    }

    /// Logical size in bytes: rows × row width (the paper reports cube sizes
    /// as data volume, not file-system allocation).
    pub fn data_bytes(&self) -> u64 {
        self.num_rows() * self.schema.row_width() as u64
    }

    /// Attach a catalog-wide [`StorageStats`] registry: subsequent page
    /// reads/writes, fsyncs and write retries are mirrored into it in
    /// addition to the per-file counters.
    pub fn attach_stats(&mut self, stats: Arc<StorageStats>) {
        self.io.stats = Some(stats);
    }

    /// Pages read from disk since creation (cache hits do not count).
    pub fn pages_read(&self) -> u64 {
        self.pages_read.load(Ordering::Relaxed)
    }

    /// Pages written to disk since creation.
    pub fn pages_written(&self) -> u64 {
        self.pages_written.load(Ordering::Relaxed)
    }

    /// Append a raw, already-encoded row. Returns its [`RowId`].
    pub fn append_raw(&mut self, row: &[u8]) -> Result<RowId> {
        if row.len() != self.schema.row_width() {
            return Err(StorageError::Layout(format!(
                "append_raw: row {} bytes, schema width {}",
                row.len(),
                self.schema.row_width()
            )));
        }
        let rowid = self.num_rows();
        if !self.tail.push_row(row) {
            self.write_page_at(self.full_pages, &self.tail.clone())?;
            self.full_pages += 1;
            self.tail.reset();
            assert!(self.tail.push_row(row), "fresh page rejected a row");
        }
        Ok(rowid)
    }

    /// Append a row of [`Value`]s (convenience path; hot loops pre-encode).
    pub fn append(&mut self, values: &[Value]) -> Result<RowId> {
        let encoded = self.schema.encode_row_vec(values)?;
        self.append_raw(&encoded)
    }

    /// Persist the tail page so every appended row is durable on disk.
    ///
    /// Safe to call repeatedly; appends may continue afterwards. Does not
    /// fsync — pair with [`sync`](Self::sync) for durability.
    pub fn flush(&mut self) -> Result<()> {
        if self.tail.nrows() > 0 {
            let tail = self.tail.clone();
            self.write_page_at(self.full_pages, &tail)?;
        }
        Ok(())
    }

    /// Fsync the backing file, making previously flushed pages durable.
    pub fn sync(&self) -> Result<()> {
        fsync_file(self.io.policy.as_ref(), &self.file, &self.io.path).map_err(StorageError::Io)?;
        self.io.count(StorageStats::count_fsync);
        Ok(())
    }

    fn write_page_at(&self, page_no: u64, page: &Page) -> Result<()> {
        let mut stamped = page.clone();
        stamped.zero_padding(self.schema.row_width());
        stamped.stamp_checksum();
        let (attempts, result) = write_slot(
            self.io.policy.as_ref(),
            &self.file,
            &self.io.path,
            page_offset(page_no),
            stamped.as_bytes(),
        );
        // Retries are counted even when the write ultimately fails.
        self.io.count(|s| s.count_write_retries(attempts.saturating_sub(1)));
        result?;
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        self.io.count(StorageStats::count_page_written);
        Ok(())
    }

    /// Read data page `page_no` through the checked page read: at most a
    /// page's capacity of rows, checksum verified once per handle.
    fn read_page(&self, page_no: u64) -> Result<Page> {
        let (image, tampered) =
            self.io.read(Origin::File(&self.file), page_offset(page_no), PAGE_SIZE)?;
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        self.io.count(StorageStats::count_page_read);
        let verify = Verify::Once { memo: &self.verified, tampered };
        self.io.check(page_no, &image, verify, Some(self.rows_per_page))?;
        Page::from_bytes(image.into_owned().into_boxed_slice())
    }

    /// The relation name this heap file stores (its file stem) — the
    /// identity [`StorageError::CorruptPage`] and the serving layer's
    /// quarantine key by.
    pub fn relation_name(&self) -> &str {
        &self.io.name
    }

    /// Rows per full page for this file's row width (so callers can map a
    /// row-id to the page that holds it).
    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page
    }

    /// Drop the checksum memo for `page_no` and re-read the page from
    /// disk, verifying its checksum: the repair probe behind the serving
    /// layer's quarantine. `Ok` means the on-disk bytes are sound again.
    pub fn reverify_page(&self, page_no: u64) -> Result<()> {
        self.verified.forget(page_no);
        if page_no >= self.full_pages {
            // The tail page lives in memory and has no on-disk checksum.
            return Ok(());
        }
        self.read_page(page_no).map(|_| ())
    }

    /// Truncate the heap file at `path` to exactly `rows` rows, rebuilding
    /// a possibly-torn tail page from its intact row prefix.
    ///
    /// This is the crash-recovery primitive: `rows` comes from a durable
    /// manifest, and every journaled row was flushed and fsynced before the
    /// manifest recorded it. Because pages are append-only, every on-disk
    /// image of the tail page — including a torn rewrite from a later,
    /// unjournaled append — agrees byte-for-byte on the first `rows`
    /// journaled row slots, so the sealed prefix can always be
    /// reconstructed even when the page header and checksum are garbage.
    /// The rebuilt file is byte-identical to one that stopped at `rows`.
    /// The file's header must hold `schema`; with `rows == 0`, a header
    /// slot cut short by a crash during creation is rewritten from it.
    pub fn repair_to_rows(
        path: impl AsRef<Path>,
        schema: &Schema,
        rows: u64,
        policy: &dyn IoPolicy,
    ) -> Result<()> {
        let path = path.as_ref();
        let w = schema.row_width();
        let rows_per_page = Page::capacity(w);
        if rows_per_page == 0 {
            return Err(too_wide(schema));
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let full = rows / rows_per_page as u64;
        let rem = (rows % rows_per_page as u64) as usize;
        let needed_pages = full + u64::from(rem > 0);
        let needed_len = page_offset(needed_pages);
        if rows > 0 && len < needed_len {
            return Err(StorageError::Corrupt(format!(
                "{}: {len} bytes on disk, but {needed_len} are journaled as sealed",
                path.display()
            )));
        }
        expect_header(policy, &file, path, len, schema)?;
        if rem > 0 {
            // Rebuild the tail page from the raw row bytes; do not trust
            // its header or checksum (a torn rewrite may have wrecked both).
            let mut raw = vec![0u8; PAGE_SIZE];
            file.read_exact_at(&mut raw, page_offset(full))?;
            let mut page = Page::new();
            for i in 0..rem {
                let off = PAGE_HEADER + i * w;
                if !page.push_row(&raw[off..off + w]) {
                    return Err(StorageError::Corrupt(format!(
                        "{}: tail rebuild overflowed a page",
                        path.display()
                    )));
                }
            }
            page.zero_padding(w);
            page.stamp_checksum();
            write_slot(policy, &file, path, page_offset(full), page.as_bytes()).1?;
        }
        file.set_len(needed_len)?;
        fsync_file(policy, &file, path).map_err(StorageError::Io)?;
        Ok(())
    }

    /// Copy row `rowid` into `out`, after checking that `out` holds one
    /// row and that the row exists: from the in-memory tail without I/O,
    /// else from the page `load` returns.
    fn fetch_with<P: Borrow<Page>>(
        &self,
        rowid: RowId,
        out: &mut [u8],
        load: impl FnOnce(u64) -> Result<P>,
    ) -> Result<()> {
        let w = self.schema.row_width();
        if out.len() != w {
            return Err(StorageError::Layout(format!(
                "row fetch: buffer {} bytes, row width {w}",
                out.len()
            )));
        }
        if rowid >= self.num_rows() {
            return Err(StorageError::RowOutOfBounds { rowid, num_rows: self.num_rows() });
        }
        let page_no = rowid / self.rows_per_page as u64;
        let slot = (rowid % self.rows_per_page as u64) as usize;
        if page_no == self.full_pages {
            out.copy_from_slice(self.tail.row(w, slot));
        } else {
            out.copy_from_slice(load(page_no)?.borrow().row(w, slot));
        }
        Ok(())
    }

    /// Fetch row `rowid`, copying its bytes into `out`.
    ///
    /// Rows in the in-memory tail are served without I/O. Disk pages are
    /// read directly; see [`fetch_cached`](Self::fetch_cached) for the
    /// cache-mediated path used during query answering.
    pub fn fetch_into(&self, rowid: RowId, out: &mut [u8]) -> Result<()> {
        self.fetch_with(rowid, out, |page_no| self.read_page(page_no))
    }

    /// Fetch row `rowid` through a [`BufferCache`](crate::cache::BufferCache).
    ///
    /// On a cache hit no I/O is performed; on a miss the page is read and
    /// inserted. This is the access path whose behaviour the paper studies
    /// in Figure 17 (caching the original fact table and `AGGREGATES`).
    pub fn fetch_cached(
        &self,
        rowid: RowId,
        cache: &mut crate::cache::BufferCache,
        out: &mut [u8],
    ) -> Result<()> {
        self.fetch_with(rowid, out, |page_no| {
            cache.get_or_load(self.file_id, page_no, || self.read_page(page_no))
        })
    }

    /// Fetch many rows through a [`SharedBufferCache`](crate::shared_cache::SharedBufferCache),
    /// visiting each distinct page once: the `&self` fetch of the
    /// concurrent serving path, which reads pread-style and shares pages
    /// across threads, so an immutable (fully flushed) heap file can be
    /// fetched from many threads at once.
    ///
    /// Row `rowids[i]` is copied to `out[i * w..(i + 1) * w]` (`w` the row
    /// width), so callers see rows in input order while the file is read
    /// in page order: row-ids are bucketed by page with a counting sort
    /// (O(n + pages spanned)), then every page costs one shard lock, one
    /// LRU lookup and, on a miss, one checksum-verified load. Rows in the
    /// in-memory tail page are served without I/O. Duplicate row-ids are
    /// allowed.
    ///
    /// `before_page(page_no)` runs before each page (the tail included)
    /// is touched; its error aborts the gather, so a caller can stop
    /// between pages. Every row-id is bounds-checked before any page is
    /// read.
    pub fn gather_shared<E: From<StorageError>>(
        &self,
        rowids: &[RowId],
        cache: &crate::shared_cache::SharedBufferCache,
        out: &mut [u8],
        mut before_page: impl FnMut(u64) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let w = self.schema.row_width();
        if out.len() != rowids.len() * w {
            return Err(StorageError::Layout(format!(
                "gather_shared: buffer {} bytes, {} rows of width {w}",
                out.len(),
                rowids.len()
            ))
            .into());
        }
        let num_rows = self.num_rows();
        let rpp = self.rows_per_page as u64;
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &rowid in rowids {
            if rowid >= num_rows {
                return Err(StorageError::RowOutOfBounds { rowid, num_rows }.into());
            }
            lo = lo.min(rowid / rpp);
            hi = hi.max(rowid / rpp);
        }
        if rowids.is_empty() {
            return Ok(());
        }
        // Counting sort of input positions by page: `ends[b]` starts as
        // bucket b's first slot in `order` and ends one past its last.
        let span = (hi - lo + 1) as usize;
        let mut ends = vec![0usize; span + 1];
        for &rowid in rowids {
            ends[(rowid / rpp - lo) as usize + 1] += 1;
        }
        for b in 1..=span {
            ends[b] += ends[b - 1];
        }
        let mut order = vec![0usize; rowids.len()];
        for (i, &rowid) in rowids.iter().enumerate() {
            let b = (rowid / rpp - lo) as usize;
            order[ends[b]] = i;
            ends[b] += 1;
        }
        let copy_rows = |page: &Page, slots: &[usize], out: &mut [u8]| {
            for &i in slots {
                let slot = (rowids[i] % rpp) as usize;
                out[i * w..(i + 1) * w].copy_from_slice(page.row(w, slot));
            }
        };
        let mut begin = 0;
        for (b, &end) in ends[..span].iter().enumerate() {
            if begin == end {
                continue;
            }
            let slots = &order[begin..end];
            begin = end;
            let page_no = lo + b as u64;
            before_page(page_no)?;
            if page_no == self.full_pages {
                copy_rows(&self.tail, slots, out);
            } else {
                cache.with_page_or_load(
                    self.file_id,
                    page_no,
                    || self.read_page(page_no),
                    |page| copy_rows(page, slots, out),
                )?;
            }
        }
        Ok(())
    }

    /// Decoded convenience fetch (tests and examples).
    pub fn fetch_values(&self, rowid: RowId) -> Result<Vec<Value>> {
        let mut buf = vec![0u8; self.schema.row_width()];
        self.fetch_into(rowid, &mut buf)?;
        self.schema.decode_row(&buf)
    }

    /// Run `f` over every row, in row-id order. Returns the number of rows
    /// visited. The closure receives a borrow of the page buffer with no
    /// per-row copy.
    pub fn for_each_row(&self, mut f: impl FnMut(RowId, &[u8])) -> Result<u64> {
        self.try_for_each_row(|rowid, row| {
            f(rowid, row);
            Ok(())
        })
    }

    /// Fallible variant of [`for_each_row`](Self::for_each_row): the
    /// closure's first error aborts the scan and propagates. Use this when
    /// the per-row work itself performs I/O (e.g. partitioning appends rows
    /// to spill relations) so an injected fault surfaces as an error
    /// instead of a panic inside an infallible closure.
    pub fn try_for_each_row(&self, mut f: impl FnMut(RowId, &[u8]) -> Result<()>) -> Result<u64> {
        let w = self.schema.row_width();
        let mut rowid: RowId = 0;
        for page_no in 0..self.full_pages {
            let page = self.read_page(page_no)?;
            for row in page.rows(w) {
                f(rowid, row)?;
                rowid += 1;
            }
        }
        for row in self.tail.rows(w) {
            f(rowid, row)?;
            rowid += 1;
        }
        Ok(rowid)
    }
}

/// The error for a schema whose rows do not fit a page.
fn too_wide(schema: &Schema) -> StorageError {
    StorageError::Layout(format!("row width {} exceeds page capacity", schema.row_width()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BufferCache;
    use crate::io::no_faults;
    use crate::schema::{ColType, Column};
    use crate::scratch::scratch_dir;

    fn small_schema() -> Schema {
        Schema::new(vec![Column::new("k", ColType::U32), Column::new("v", ColType::I64)])
    }

    #[test]
    fn append_fetch_roundtrip() {
        let path = scratch_dir("heap").join("roundtrip.heap");
        let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
        for i in 0..10_000u32 {
            let rid = hf.append(&[Value::U32(i), Value::I64(-(i as i64))]).unwrap();
            assert_eq!(rid, i as u64);
        }
        assert_eq!(hf.num_rows(), 10_000);
        let vals = hf.fetch_values(9_999).unwrap();
        assert_eq!(vals[0], Value::U32(9_999));
        assert_eq!(vals[1], Value::I64(-9_999));
        let vals = hf.fetch_values(0).unwrap();
        assert_eq!(vals[0], Value::U32(0));
    }

    #[test]
    fn out_of_bounds_fetch_errors() {
        let path = scratch_dir("heap").join("oob.heap");
        let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
        hf.append(&[Value::U32(1), Value::I64(2)]).unwrap();
        assert!(matches!(
            hf.fetch_values(1).unwrap_err(),
            StorageError::RowOutOfBounds { rowid: 1, num_rows: 1 }
        ));
    }

    #[test]
    fn scan_sees_all_rows_in_order() {
        let path = scratch_dir("heap").join("scan.heap");
        let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
        let n = 5_000u32;
        for i in 0..n {
            hf.append(&[Value::U32(i), Value::I64(i as i64)]).unwrap();
        }
        let mut count = 0u32;
        hf.for_each_row(|_, row| {
            assert_eq!(Schema::read_u32_at(row, 0), count);
            count += 1;
        })
        .unwrap();
        assert_eq!(count, n);
    }

    #[test]
    fn for_each_row_matches_scan() {
        let path = scratch_dir("heap").join("foreach.heap");
        let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
        for i in 0..3_000u32 {
            hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
        }
        let mut seen = Vec::new();
        let visited = hf
            .for_each_row(|rid, row| {
                assert_eq!(rid as u32, Schema::read_u32_at(row, 0));
                seen.push(rid);
            })
            .unwrap();
        assert_eq!(visited, 3_000);
        assert_eq!(seen.len(), 3_000);
    }

    #[test]
    fn reopen_resumes_appends() {
        let path = scratch_dir("heap").join("reopen.heap");
        {
            let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
            for i in 0..1_234u32 {
                hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
            }
            hf.flush().unwrap();
        }
        let mut hf = HeapFile::open(&path, small_schema(), no_faults()).unwrap().0;
        assert_eq!(hf.num_rows(), 1_234);
        let rid = hf.append(&[Value::U32(9_999), Value::I64(1)]).unwrap();
        assert_eq!(rid, 1_234);
        assert_eq!(hf.fetch_values(1_234).unwrap()[0], Value::U32(9_999));
        // Earlier rows still intact.
        assert_eq!(hf.fetch_values(100).unwrap()[0], Value::U32(100));
    }

    #[test]
    fn cached_fetch_counts_hits() {
        let path = scratch_dir("heap").join("cached.heap");
        let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
        for i in 0..50_000u32 {
            hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
        }
        hf.flush().unwrap();
        let mut cache = BufferCache::new(64);
        let mut buf = vec![0u8; hf.schema().row_width()];
        hf.fetch_cached(0, &mut cache, &mut buf).unwrap();
        hf.fetch_cached(1, &mut cache, &mut buf).unwrap(); // same page → hit
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(Schema::read_u32_at(&buf, 0), 1);
    }

    #[test]
    fn data_bytes_reports_logical_volume() {
        let path = scratch_dir("heap").join("bytes.heap");
        let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
        for i in 0..10u32 {
            hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
        }
        assert_eq!(hf.data_bytes(), 10 * 12);
    }

    #[test]
    fn corrupted_page_detected() {
        use std::io::{Read, Seek, SeekFrom, Write};
        let path = scratch_dir("heap").join("corrupt.heap");
        let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
        let rows_per_page = Page::capacity(hf.schema().row_width());
        for i in 0..(rows_per_page as u32 + 10) {
            hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
        }
        hf.flush().unwrap();
        drop(hf);
        // Flip one payload byte in the first data page on disk.
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(page_offset(0) + 100)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(page_offset(0) + 100)).unwrap();
        f.write_all(&[b[0] ^ 0x55]).unwrap();
        drop(f);
        let hf = HeapFile::open(&path, small_schema(), no_faults()).unwrap().0;
        let err = hf.fetch_values(0).unwrap_err();
        match err {
            StorageError::CorruptPage { relation, page, .. } => {
                assert_eq!(relation, "corrupt");
                assert_eq!(page, 0);
            }
            other => panic!("expected CorruptPage, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_partial_page_truncated_on_open() {
        // A crash mid-write while extending the file leaves a length that
        // is not a page multiple; reopen must truncate back to the last
        // sealed page instead of erroring (old behaviour) or silently
        // adopting garbage.
        use std::io::Write;
        let path = scratch_dir("heap").join("torn_partial.heap");
        let rows_per_page = Page::capacity(12);
        let sealed = rows_per_page as u32 * 2;
        {
            let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
            for i in 0..sealed {
                hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
            }
            hf.flush().unwrap();
        }
        // Append 100 torn bytes, as if a third page write died early.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAAu8; 100]).unwrap();
        drop(f);
        let (hf, repair) = HeapFile::open(&path, small_schema(), no_faults()).unwrap();
        let repair = repair.expect("torn tail must be reported");
        assert_eq!(repair.truncated_bytes, 100);
        assert!(!repair.dropped_page);
        assert_eq!(hf.num_rows(), sealed as u64);
        assert_eq!(hf.fetch_values(sealed as u64 - 1).unwrap()[0], Value::U32(sealed - 1));
    }

    #[test]
    fn torn_tail_checksum_failing_last_page_dropped_on_open() {
        // A torn in-place rewrite of the tail page leaves a full-length
        // file whose last page fails its checksum; reopen must drop that
        // page and resume from the sealed prefix.
        use std::io::{Seek, SeekFrom, Write};
        let path = scratch_dir("heap").join("torn_rewrite.heap");
        let rows_per_page = Page::capacity(12);
        let total = rows_per_page as u32 + 10; // one sealed page + tail
        {
            let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
            for i in 0..total {
                hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
            }
            hf.flush().unwrap();
        }
        // Corrupt the *last* page's payload without restamping.
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(page_offset(1) + 20)).unwrap();
        f.write_all(&[0xFF; 8]).unwrap();
        drop(f);
        let (mut hf, repair) = HeapFile::open(&path, small_schema(), no_faults()).unwrap();
        let repair = repair.expect("dropped page must be reported");
        assert!(repair.dropped_page);
        assert_eq!(hf.num_rows(), rows_per_page as u64, "sealed page survives");
        // The file is usable again: appends resume at the sealed boundary.
        let rid = hf.append(&[Value::U32(7), Value::I64(7)]).unwrap();
        assert_eq!(rid, rows_per_page as u64);
    }

    #[test]
    fn garbage_row_count_detected_on_open() {
        // Header-only damage with a zeroed (legacy "never stamped")
        // checksum: the row-count sanity check must reject it rather than
        // let row() index out of the page.
        use std::io::{Seek, SeekFrom, Write};
        let path = scratch_dir("heap").join("garbage_nrows.heap");
        {
            let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
            hf.append(&[Value::U32(1), Value::I64(1)]).unwrap();
            hf.flush().unwrap();
        }
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(page_offset(0))).unwrap();
        // nrows = u16::MAX, checksum field zeroed.
        f.write_all(&[0xFF, 0xFF, 0, 0, 0, 0, 0, 0]).unwrap();
        drop(f);
        let (hf, repair) = HeapFile::open(&path, small_schema(), no_faults()).unwrap();
        assert!(repair.expect("reported").dropped_page);
        assert_eq!(hf.num_rows(), 0);
    }

    fn write_rows(path: &std::path::Path, n: u32) {
        let mut hf = HeapFile::create(path, small_schema(), no_faults()).unwrap();
        for i in 0..n {
            hf.append(&[Value::U32(i), Value::I64(i as i64)]).unwrap();
        }
        hf.flush().unwrap();
    }

    #[test]
    fn repair_to_rows_discards_unsealed_suffix() {
        use crate::io::NoFaults;
        let path = scratch_dir("heap").join("repair.heap");
        let reference = scratch_dir("heap").join("repair_ref.heap");
        let rows_per_page = Page::capacity(12) as u32;
        let sealed = rows_per_page + 7; // one full page + 7 sealed tail rows
                                        // The crashed build wrote well past the seal point before dying.
        write_rows(&path, sealed + 40);
        HeapFile::repair_to_rows(&path, &small_schema(), sealed as u64, &NoFaults).unwrap();
        write_rows(&reference, sealed);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&reference).unwrap(),
            "repaired file is byte-identical to a build that stopped at the seal"
        );
        let hf = HeapFile::open(&path, small_schema(), no_faults()).unwrap().0;
        assert_eq!(hf.num_rows(), sealed as u64);
        assert_eq!(hf.fetch_values(sealed as u64 - 1).unwrap()[0], Value::U32(sealed - 1));
    }

    #[test]
    fn repair_to_rows_survives_wrecked_tail_header() {
        // A torn rewrite of the tail page can destroy its header and
        // checksum, but the journaled row slots are append-only and thus
        // intact; repair must rebuild the canonical page from them.
        use crate::io::NoFaults;
        use std::io::{Seek, SeekFrom, Write};
        let path = scratch_dir("heap").join("repair_torn.heap");
        let reference = scratch_dir("heap").join("repair_torn_ref.heap");
        let rows_per_page = Page::capacity(12) as u32;
        let sealed = rows_per_page + 7;
        write_rows(&path, sealed + 3);
        // Wreck the tail page's header in place (rows untouched).
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(page_offset(1))).unwrap();
        f.write_all(&[0xEE; PAGE_HEADER]).unwrap();
        drop(f);
        HeapFile::repair_to_rows(&path, &small_schema(), sealed as u64, &NoFaults).unwrap();
        write_rows(&reference, sealed);
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&reference).unwrap());
    }

    #[test]
    fn repair_to_rows_rejects_short_file() {
        use crate::io::NoFaults;
        let path = scratch_dir("heap").join("repair_short.heap");
        write_rows(&path, 10);
        // Claiming more sealed rows than the file can hold is unrepairable.
        let err = HeapFile::repair_to_rows(
            &path,
            &small_schema(),
            Page::capacity(12) as u64 * 5,
            &NoFaults,
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn injected_fault_surfaces_as_error_and_counts() {
        use crate::io::{FaultInjector, FaultKind};
        use std::sync::Arc;
        let path = scratch_dir("heap").join("injected.heap");
        // Write 0 is the header slot, so write 2 is the second data page.
        let policy = Arc::new(FaultInjector::fail_nth_write(2, FaultKind::Enospc));
        let mut hf = HeapFile::create(&path, small_schema(), policy.clone()).unwrap();
        let rows_per_page = Page::capacity(12) as u32;
        let mut result = Ok(0);
        for i in 0..rows_per_page * 3 {
            result = hf.append(&[Value::U32(i), Value::I64(0)]);
            if result.is_err() {
                break;
            }
        }
        let err = result.expect_err("second page write must fail with ENOSPC");
        match err {
            StorageError::Io(e) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("expected Io(ENOSPC), got {other:?}"),
        }
        assert!(policy.fired());
    }

    #[test]
    fn transient_fault_retried_transparently() {
        use crate::io::{FaultInjector, FaultKind};
        use std::sync::Arc;
        let path = scratch_dir("heap").join("transient.heap");
        // Write 0 is the header slot; the faults land on the first data page.
        let policy =
            Arc::new(FaultInjector::fail_nth_write(1, FaultKind::Transient { failures: 2 }));
        let mut hf = HeapFile::create(&path, small_schema(), policy).unwrap();
        for i in 0..(Page::capacity(12) as u32 + 1) {
            hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
        }
        hf.flush().unwrap();
        hf.sync().unwrap();
        let hf = HeapFile::open(&path, small_schema(), no_faults()).unwrap().0;
        assert_eq!(hf.num_rows(), Page::capacity(12) as u64 + 1);
    }

    #[test]
    fn attached_stats_mirror_file_io() {
        let path = scratch_dir("heap").join("stats.heap");
        let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
        let stats = Arc::new(StorageStats::new());
        hf.attach_stats(Arc::clone(&stats));
        let rows_per_page = Page::capacity(hf.schema().row_width());
        for i in 0..(rows_per_page as u32 * 2 + 5) {
            hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
        }
        hf.flush().unwrap();
        hf.sync().unwrap();
        hf.fetch_values(0).unwrap();
        assert_eq!(stats.pages_written(), hf.pages_written());
        assert_eq!(stats.pages_read(), hf.pages_read());
        assert_eq!(stats.fsyncs(), 1);
        assert_eq!(stats.write_retries(), 0);
    }

    #[test]
    fn attached_stats_count_transient_retries() {
        use crate::io::{FaultInjector, FaultKind};
        let path = scratch_dir("heap").join("stats_retry.heap");
        // Write 0 is the header slot, written before the stats attach.
        let policy =
            Arc::new(FaultInjector::fail_nth_write(1, FaultKind::Transient { failures: 2 }));
        let mut hf = HeapFile::create(&path, small_schema(), policy).unwrap();
        let stats = Arc::new(StorageStats::new());
        hf.attach_stats(Arc::clone(&stats));
        for i in 0..(Page::capacity(12) as u32 + 1) {
            hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
        }
        assert_eq!(stats.write_retries(), 2, "two injected transient failures were retried");
        assert_eq!(stats.pages_written(), 1);
    }

    #[test]
    fn hard_read_fault_during_open_surfaces_as_io_error() {
        use crate::io::{FaultInjector, ReadFaultKind};
        let path = scratch_dir("heap").join("read_fault_open.heap");
        write_rows(&path, 10);
        // Opening reads the partial tail page back; a hard fault there is
        // not a torn tail and must surface, not be repaired away.
        let policy = Arc::new(FaultInjector::fail_nth_read(0, ReadFaultKind::Error));
        let err = match HeapFile::open(&path, small_schema(), policy) {
            Ok(_) => panic!("open must fail on a hard read fault"),
            Err(e) => e,
        };
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
    }

    #[test]
    fn hard_read_fault_on_sealed_page_errors() {
        use crate::io::{FaultInjector, ReadFaultKind};
        let path = scratch_dir("heap").join("read_fault_sealed.heap");
        let rows_per_page = Page::capacity(12) as u32;
        write_rows(&path, rows_per_page * 2 + 3);
        let policy = Arc::new(FaultInjector::counting());
        let hf = HeapFile::open(&path, small_schema(), policy.clone()).unwrap().0;
        let reads_at_open = policy.reads();
        drop(hf);
        // Re-open with a fault scheduled at the first post-open read.
        let policy = Arc::new(FaultInjector::fail_nth_read(reads_at_open, ReadFaultKind::Error));
        let hf = HeapFile::open(&path, small_schema(), policy).unwrap().0;
        let err = hf.fetch_values(0).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
        // The failed load is not cached anywhere: the next read succeeds.
        assert_eq!(hf.fetch_values(0).unwrap()[0], Value::U32(0));
    }

    #[test]
    fn transient_read_fault_retried_and_counted() {
        use crate::io::{FaultInjector, ReadFaultKind};
        let path = scratch_dir("heap").join("read_transient.heap");
        let rows_per_page = Page::capacity(12) as u32;
        write_rows(&path, rows_per_page + 3);
        let policy = Arc::new(FaultInjector::counting());
        let hf = HeapFile::open(&path, small_schema(), policy.clone()).unwrap().0;
        let reads_at_open = policy.reads();
        drop(hf);
        let policy = Arc::new(FaultInjector::fail_nth_read(
            reads_at_open,
            ReadFaultKind::Transient { failures: 2 },
        ));
        let mut hf = HeapFile::open(&path, small_schema(), policy).unwrap().0;
        let stats = Arc::new(StorageStats::new());
        hf.attach_stats(Arc::clone(&stats));
        assert_eq!(hf.fetch_values(0).unwrap()[0], Value::U32(0), "retries absorb the fault");
        assert_eq!(stats.read_retries(), 2, "two extra attempts recorded");
        assert_eq!(stats.pages_read(), 1);
    }

    #[test]
    fn chaos_schedule_transient_read_counts_a_retry() {
        use crate::io::{FaultInjector, ReadFaultKind};
        let path = scratch_dir("heap").join("read_chaos_retry.heap");
        let rows_per_page = Page::capacity(12) as u32;
        write_rows(&path, rows_per_page + 3);
        let policy = Arc::new(FaultInjector::counting());
        let hf = HeapFile::open(&path, small_schema(), policy.clone()).unwrap().0;
        let reads_at_open = policy.reads();
        drop(hf);
        // Chaos ordinal 0 is a one-shot transient: the bounded retry
        // must absorb it and the retry must land in the stats.
        let policy =
            Arc::new(FaultInjector::chaos_reads(reads_at_open, 2, 1, ReadFaultKind::Chaos));
        let mut hf = HeapFile::open(&path, small_schema(), policy.clone()).unwrap().0;
        let stats = Arc::new(StorageStats::new());
        hf.attach_stats(Arc::clone(&stats));
        assert_eq!(hf.fetch_values(0).unwrap()[0], Value::U32(0), "retry absorbs the fault");
        assert_eq!(policy.read_faults_fired(), 1);
        assert_eq!(stats.read_retries(), 1, "the extra attempt is recorded");
    }

    #[test]
    fn flipped_bit_on_reread_is_detected_despite_memo() {
        use crate::io::{FaultInjector, ReadFaultKind};
        let path = scratch_dir("heap").join("read_flip.heap");
        let rows_per_page = Page::capacity(12) as u32;
        write_rows(&path, rows_per_page + 3);
        let policy = Arc::new(FaultInjector::counting());
        let hf = HeapFile::open(&path, small_schema(), policy.clone()).unwrap().0;
        let reads_at_open = policy.reads();
        drop(hf);
        // Clean first read memoizes the page; the *second* read is
        // corrupted in flight and must still fail the checksum.
        let policy =
            Arc::new(FaultInjector::fail_nth_read(reads_at_open + 1, ReadFaultKind::FlipBit));
        let mut hf = HeapFile::open(&path, small_schema(), policy).unwrap().0;
        let stats = Arc::new(StorageStats::new());
        hf.attach_stats(Arc::clone(&stats));
        assert!(hf.fetch_values(0).is_ok(), "clean read verifies and memoizes");
        let err = hf.fetch_values(0).unwrap_err();
        assert!(matches!(err, StorageError::CorruptPage { page: 0, .. }), "got {err:?}");
        assert_eq!(stats.checksum_failures(), 1);
        // The disk itself is sound: repair re-verifies and reads recover.
        hf.reverify_page(0).unwrap();
        assert_eq!(hf.fetch_values(0).unwrap()[0], Value::U32(0));
        assert!(stats.checksum_verifications() >= 3);
    }

    #[test]
    fn torn_read_of_tail_page_repairs_through_open() {
        use crate::io::{FaultInjector, ReadFaultKind};
        let path = scratch_dir("heap").join("read_torn_open.heap");
        let rows_per_page = Page::capacity(12) as u32;
        // The tail must hold enough rows that zeroing the back half of the
        // page destroys CRC-covered data (a near-empty tail stores nothing
        // past the midpoint, so a torn read of it would verify clean).
        write_rows(&path, rows_per_page + 400);
        // Every read of the final page comes back torn (period 1, budget
        // 2 covers the read and the confirmation re-read) — that is what
        // persistent on-media damage looks like, so open must drop the
        // page and resume from the sealed one.
        let policy = Arc::new(FaultInjector::chaos_reads(0, 1, 2, ReadFaultKind::Torn));
        let (hf, repair) = HeapFile::open(&path, small_schema(), policy).unwrap();
        let repair = repair.expect("torn read of the tail page must be reported");
        assert!(repair.dropped_page);
        assert_eq!(hf.num_rows(), rows_per_page as u64, "sealed page survives");
    }

    #[test]
    fn transient_torn_read_at_open_does_not_drop_the_tail_page() {
        use crate::io::{FaultInjector, ReadFaultKind};
        let path = scratch_dir("heap").join("read_torn_once_open.heap");
        let rows_per_page = Page::capacity(12) as u32;
        let total = rows_per_page + 400;
        write_rows(&path, total);
        // Only the *first* read is torn; the confirmation re-read comes
        // back clean, proving the media is fine — truncating would lose
        // real data, so open must keep every row.
        let policy = Arc::new(FaultInjector::fail_nth_read(0, ReadFaultKind::Torn));
        let (hf, repair) = HeapFile::open(&path, small_schema(), policy).unwrap();
        assert!(repair.is_none(), "transient read fault must not trigger a repair: {repair:?}");
        assert_eq!(hf.num_rows(), total as u64, "no rows may be dropped");
    }

    /// Three sealed pages plus a partial tail page; row `i` is `(i, i)`.
    fn gather_fixture(tag: &str) -> (HeapFile, u64) {
        let path = scratch_dir("heap").join(format!("gather_{tag}.heap"));
        let rows_per_page = Page::capacity(12) as u32;
        write_rows(&path, rows_per_page * 3 + 17);
        (HeapFile::open(&path, small_schema(), no_faults()).unwrap().0, rows_per_page as u64)
    }

    fn gather(
        hf: &HeapFile,
        rowids: &[RowId],
        cache: &crate::shared_cache::SharedBufferCache,
        pages: &mut Vec<u64>,
    ) -> Result<Vec<u8>> {
        let mut out = vec![0u8; rowids.len() * hf.schema().row_width()];
        hf.gather_shared(rowids, cache, &mut out, |p| {
            pages.push(p);
            Ok::<(), StorageError>(())
        })?;
        Ok(out)
    }

    #[test]
    fn gather_returns_rows_in_input_order_one_visit_per_page() {
        use crate::shared_cache::SharedBufferCache;
        let (hf, rpp) = gather_fixture("order");
        let w = hf.schema().row_width();
        // Descending, interleaved across pages, with duplicates and rows
        // on the in-memory tail page (page 3).
        let rowids: Vec<RowId> =
            vec![3 * rpp + 16, 5, 2 * rpp + 1, 5, rpp, 3 * rpp, 0, 2 * rpp + 1, rpp - 1, 3 * rpp];
        for capacity in [0usize, 1, 64] {
            let cache = SharedBufferCache::new(capacity, 2);
            let mut pages = Vec::new();
            let out = gather(&hf, &rowids, &cache, &mut pages).unwrap();
            for (i, &rowid) in rowids.iter().enumerate() {
                let mut expect = vec![0u8; w];
                hf.fetch_into(rowid, &mut expect).unwrap();
                assert_eq!(&out[i * w..(i + 1) * w], &expect[..], "cap {capacity}: row {i}");
            }
            assert_eq!(pages, vec![0, 1, 2, 3], "cap {capacity}: each page once, in page order");
            // One cache access per distinct sealed page; the tail is
            // served without one.
            assert_eq!(cache.hits() + cache.misses(), 3, "cap {capacity}");
        }
    }

    #[test]
    fn gather_of_nothing_touches_nothing() {
        use crate::shared_cache::SharedBufferCache;
        let (hf, _) = gather_fixture("empty");
        let cache = SharedBufferCache::new(4, 1);
        let mut pages = Vec::new();
        let before = hf.pages_read();
        assert!(gather(&hf, &[], &cache, &mut pages).unwrap().is_empty());
        assert!(pages.is_empty());
        assert_eq!((hf.pages_read(), cache.hits() + cache.misses()), (before, 0));
    }

    #[test]
    fn gather_rejects_bad_input_before_reading_a_page() {
        use crate::shared_cache::SharedBufferCache;
        let (hf, _) = gather_fixture("reject");
        let cache = SharedBufferCache::new(4, 1);
        let before = hf.pages_read();
        let n = hf.num_rows();
        let mut pages = Vec::new();
        let err = gather(&hf, &[0, 1, n, 2], &cache, &mut pages).unwrap_err();
        assert!(
            matches!(err, StorageError::RowOutOfBounds { rowid, num_rows: m } if rowid == n && m == n),
            "got {err:?}"
        );
        let mut short = vec![0u8; 1];
        let err = hf
            .gather_shared(&[0, 1], &cache, &mut short, |p| {
                pages.push(p);
                Ok::<(), StorageError>(())
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::Layout(_)), "got {err:?}");
        assert!(pages.is_empty(), "no page may be touched: {pages:?}");
        assert_eq!((hf.pages_read(), cache.hits() + cache.misses()), (before, 0));
    }

    #[test]
    fn gather_stops_at_the_first_refused_page() {
        use crate::shared_cache::SharedBufferCache;
        let (hf, rpp) = gather_fixture("refuse");
        let cache = SharedBufferCache::new(4, 1);
        let before = hf.pages_read();
        let mut out = vec![0u8; 3 * hf.schema().row_width()];
        let err = hf
            .gather_shared(&[2 * rpp, 0, rpp], &cache, &mut out, |p| {
                if p == 1 {
                    Err(StorageError::Corrupt(format!("refused page {p}")))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(ref m) if m == "refused page 1"), "{err:?}");
        // Page 0 was read; pages 1 and 2 never were.
        assert_eq!(hf.pages_read(), before + 1);
    }

    #[test]
    fn io_counters_advance() {
        let path = scratch_dir("heap").join("io.heap");
        let mut hf = HeapFile::create(&path, small_schema(), no_faults()).unwrap();
        let rows_per_page = Page::capacity(hf.schema().row_width());
        for i in 0..(rows_per_page as u32 * 3) {
            hf.append(&[Value::U32(i), Value::I64(0)]).unwrap();
        }
        // Three pages filled → at least two full-page writes happened
        // (the third fills exactly and is written when a fourth row arrives;
        // here it stays as a full tail until flush).
        assert!(hf.pages_written() >= 2);
        let before = hf.pages_read();
        hf.fetch_values(0).unwrap();
        assert_eq!(hf.pages_read(), before + 1);
    }
}

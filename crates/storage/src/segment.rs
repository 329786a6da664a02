//! One file per cube epoch: the node segment.
//!
//! §5 of the paper makes NT, TT and CAT *logical* relations, up to three
//! per cube node. A segment stores all of them for one cube prefix in a
//! single append-only file, `<prefix>nodes.seg`: each relation is an
//! ordered list of **extents**, runs of pages in the unchanged
//! [`HeapFile`](crate::HeapFile) page format (row count, CRC-32, fixed
//! width rows). A build or an ingest therefore creates one file, fsyncs
//! it once, and a superseded epoch is dropped with one unlink.
//!
//! ## Layout
//!
//! ```text
//! offset 0        PAGE_SIZE                    page_offset(P)
//! +--------------+---------+---------+-- ... --+-----------+--------+
//! | header slot  | extent  | extent  |         | directory | footer |
//! | "CURESG01"   | (pages) | (pages) |         | (CRC'd)   | 32 B   |
//! +--------------+---------+---------+-- ... --+-----------+--------+
//!
//! directory: u32 entries, then per entry (sorted by name):
//!   u16 name_len | name | u16 schema_len | schema text |
//!   u32 extents | per extent: u64 first_page | u32 pages | u64 rows
//! footer:    "CURESGFT" | u64 P | u64 dir_len | u32 crc32(directory) |
//!            u32 crc32(the 28 footer bytes before it)
//! ```
//!
//! Data page `n` sits at [`page_offset`]`(n)`, exactly as in a heap file,
//! so pages stay aligned for `mmap`. Within an extent every page is full
//! except possibly the last, so an extent's row count fixes each page's
//! row count, and a scan checks it. The extents of all entries tile the
//! data pages `0..P` exactly, in write order.
//!
//! ## Commit rule
//!
//! Extents are appended through the [`IoPolicy`] write hook as the cube
//! is built, one write per extent and no fsync. The directory and then
//! the footer are written last, and one fsync seals the file
//! ([`SegmentWriter::seal`]). A segment is readable only through a valid
//! footer: a file with no footer, a bad footer CRC, a length that
//! disagrees with the footer, a directory CRC mismatch or a directory
//! whose extents do not tile the pages is [`StorageError::Corrupt`].
//!
//! An unsealed segment is resumable: a durable build journals a
//! [`SegmentCheckpoint`] (the page count and the directory so far, after
//! an fsync), and `Catalog::resume_segment` truncates the file back to
//! it. Because every extent is a fresh run of whole pages, nothing
//! behind the journaled page count is ever rewritten.
//!
//! Two readers serve a sealed segment: [`Segment`] reads one extent with
//! one `pread` (checksums verified on first sight per handle), and
//! [`SegmentMap`] maps the file once and verifies every page at open.
//! Both read and check pages through the crate's one checked page read
//! (the crate-private `read` module, shared with heap files), which holds
//! segment pages to a stamped checksum and the exact row count their
//! extent implies, and both scans take a `before_page` hook, as
//! [`HeapFile::gather_shared`](crate::HeapFile::gather_shared) does.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::checksum::crc32;
use crate::error::{Result, StorageError};
use crate::heap::{page_offset, parse_schema_text, schema_text, write_slot};
use crate::io::{fsync_file, IoPolicy};
use crate::mmap::Mapping;
use crate::page::{stamp_image, Page, PAGE_HEADER, PAGE_SIZE};
use crate::read::{check_checksum, check_rows, Origin, PageFile, VerifiedPages, Verify};
use crate::schema::Schema;
use crate::stats::StorageStats;

/// First bytes of every segment file (format version in the last two).
const MAGIC: &[u8; 8] = b"CURESG01";

/// First bytes of the footer.
const FOOTER_MAGIC: &[u8; 8] = b"CURESGFT";

/// Bytes of the footer at the end of a sealed segment.
pub const FOOTER_LEN: usize = 32;

/// Bytes one encoded extent takes in the directory.
const EXTENT_LEN: usize = 20;

/// The segment of the cube stored under `prefix`, as a catalog name
/// (its file is `<name>.seg`).
pub fn segment_name(prefix: &str) -> String {
    format!("{prefix}nodes")
}

/// A run of pages holding consecutive rows of one relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Data page number of the first page.
    pub first_page: u64,
    /// Pages in the run; all full except possibly the last.
    pub pages: u32,
    /// Rows in the run.
    pub rows: u64,
}

impl Extent {
    /// Rows on page `i` of this extent, for `rows_per_page` rows a page.
    fn rows_on(&self, i: u64, rows_per_page: usize) -> usize {
        (self.rows - i * rows_per_page as u64).min(rows_per_page as u64) as usize
    }
}

/// One logical relation of a segment: its rows are its extents' rows,
/// in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The relation name (a node's NT, CAT or TT name).
    pub name: String,
    /// The row schema.
    pub schema: Schema,
    /// The extents, in row order.
    pub extents: Vec<Extent>,
}

impl SegmentEntry {
    /// Total rows.
    pub fn rows(&self) -> u64 {
        self.extents.iter().map(|e| e.rows).sum()
    }

    /// Logical size in bytes: rows × row width.
    pub fn data_bytes(&self) -> u64 {
        self.rows() * self.schema.row_width() as u64
    }

    /// Rows per full page at this relation's row width.
    pub fn rows_per_page(&self) -> usize {
        Page::capacity(self.schema.row_width())
    }
}

/// The segment's table of contents: relation name → schema and extents,
/// sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Directory {
    entries: Vec<SegmentEntry>,
}

impl Directory {
    /// Every relation, sorted by name.
    pub fn entries(&self) -> &[SegmentEntry] {
        &self.entries
    }

    /// The relation named `name`, if the segment stores one.
    pub fn get(&self, name: &str) -> Option<&SegmentEntry> {
        self.position(name).map(|i| &self.entries[i])
    }

    /// Index of relation `name` in [`entries`](Self::entries).
    pub fn position(&self, name: &str) -> Option<usize> {
        self.entries.binary_search_by(|e| e.name.as_str().cmp(name)).ok()
    }

    /// Logical bytes of every relation.
    pub fn data_bytes(&self) -> u64 {
        self.entries.iter().map(SegmentEntry::data_bytes).sum()
    }

    /// Record `extent` as the next run of relation `name`.
    fn push(&mut self, name: &str, schema: &Schema, extent: Extent) -> Result<()> {
        match self.entries.binary_search_by(|e| e.name.as_str().cmp(name)) {
            Ok(i) => {
                let entry = &mut self.entries[i];
                if &entry.schema != schema {
                    return Err(StorageError::Layout(format!(
                        "segment relation '{name}' holds schema {:?}, not {:?}",
                        entry.schema.columns(),
                        schema.columns()
                    )));
                }
                entry.extents.push(extent);
            }
            Err(i) => self.entries.insert(
                i,
                SegmentEntry {
                    name: name.to_string(),
                    schema: schema.clone(),
                    extents: vec![extent],
                },
            ),
        }
        Ok(())
    }

    /// The directory's byte encoding (see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            let text = schema_text(&e.schema);
            out.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
            out.extend_from_slice(e.name.as_bytes());
            out.extend_from_slice(&(text.len() as u16).to_le_bytes());
            out.extend_from_slice(text.as_bytes());
            out.extend_from_slice(&(e.extents.len() as u32).to_le_bytes());
            for x in &e.extents {
                out.extend_from_slice(&x.first_page.to_le_bytes());
                out.extend_from_slice(&x.pages.to_le_bytes());
                out.extend_from_slice(&x.rows.to_le_bytes());
            }
        }
        out
    }

    /// Decode a directory over `pages` data pages, checking everything a
    /// reader relies on: names sorted and unique, schemas canonical and
    /// page-sized, each extent's row count consistent with its pages,
    /// and the extents tiling pages `0..pages` exactly. Whatever the
    /// counts claim, allocation is bounded by the input and by `pages`
    /// (every extent holds a page), so a hostile directory cannot make a
    /// reader allocate more than its file holds. An error is the reason,
    /// for the caller to attach to a path.
    pub fn decode(bytes: &[u8], pages: u64) -> std::result::Result<Directory, String> {
        let mut r = Cursor { bytes, pos: 0 };
        let count = r.u32()? as usize;
        let most = usize::try_from(pages).unwrap_or(usize::MAX);
        let mut entries: Vec<SegmentEntry> =
            Vec::with_capacity(count.min(most).min(bytes.len() / (8 + EXTENT_LEN)));
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut claimed = 0u64;
        for _ in 0..count {
            let len = r.u16()? as usize;
            let name = std::str::from_utf8(r.take(len)?)
                .map_err(|_| "relation name is not UTF-8".to_string())?
                .to_string();
            if let Some(prev) = entries.last() {
                if prev.name >= name {
                    return Err(format!("relation '{name}' out of order after '{}'", prev.name));
                }
            }
            let len = r.u16()? as usize;
            let text = std::str::from_utf8(r.take(len)?)
                .map_err(|_| format!("'{name}': schema is not UTF-8"))?;
            let schema = parse_schema_text(text).map_err(|e| format!("'{name}': {e}"))?;
            if schema.arity() == 0 || schema_text(&schema) != text {
                return Err(format!("'{name}': schema text is not canonical"));
            }
            let rpp = Page::capacity(schema.row_width());
            if rpp == 0 {
                return Err(format!("'{name}': row width exceeds a page"));
            }
            let n = r.u32()? as usize;
            let mut extents = Vec::with_capacity(n.min(r.remaining() / EXTENT_LEN).min(most));
            for _ in 0..n {
                let x = Extent { first_page: r.u64()?, pages: r.u32()?, rows: r.u64()? };
                claimed += u64::from(x.pages);
                if claimed > pages {
                    return Err(format!("extents claim more than the segment's {pages} pages"));
                }
                let full = u64::from(x.pages) * rpp as u64;
                if x.pages == 0 || x.rows > full || x.rows + rpp as u64 <= full {
                    return Err(format!(
                        "'{name}': extent at page {} claims {} rows in {} pages",
                        x.first_page, x.rows, x.pages
                    ));
                }
                runs.push((x.first_page, u64::from(x.pages)));
                extents.push(x);
            }
            if extents.is_empty() {
                return Err(format!("'{name}' has no extents"));
            }
            entries.push(SegmentEntry { name, schema, extents });
        }
        if r.remaining() != 0 {
            return Err(format!("{} trailing bytes after the directory", r.remaining()));
        }
        runs.sort_unstable();
        let mut next = 0u64;
        for (first, len) in runs {
            if first != next {
                return Err(format!("extents do not tile the pages: page {next} vs {first}"));
            }
            next = first.checked_add(len).ok_or("extent past the end of the file")?;
        }
        if next != pages {
            return Err(format!("extents cover {next} pages, the segment holds {pages}"));
        }
        Ok(Directory { entries })
    }
}

/// Bounds-checked little-endian reads over the directory bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!("directory cut short at byte {}", self.pos));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> std::result::Result<u16, String> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> std::result::Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> std::result::Result<u64, String> {
        let mut a = [0u8; 8];
        a.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(a))
    }
}

fn corrupt(path: &Path, detail: &str) -> StorageError {
    StorageError::Corrupt(format!("{}: {detail}", path.display()))
}

/// The header slot image: the magic, then zeros.
fn header_slot() -> Vec<u8> {
    let mut slot = vec![0u8; PAGE_SIZE];
    slot[..MAGIC.len()].copy_from_slice(MAGIC);
    slot
}

fn encode_footer(pages: u64, dir: &[u8]) -> [u8; FOOTER_LEN] {
    let mut f = [0u8; FOOTER_LEN];
    f[..8].copy_from_slice(FOOTER_MAGIC);
    f[8..16].copy_from_slice(&pages.to_le_bytes());
    f[16..24].copy_from_slice(&(dir.len() as u64).to_le_bytes());
    f[24..28].copy_from_slice(&crc32(dir).to_le_bytes());
    let c = crc32(&f[..28]);
    f[28..].copy_from_slice(&c.to_le_bytes());
    f
}

/// Check a sealed segment's header and footer against the file length
/// `len`; returns the data page count and the directory's offset,
/// length and CRC.
fn parse_tail(path: &Path, len: u64, header: &[u8], footer: &[u8]) -> Result<(u64, u64, u64, u32)> {
    if header.get(..MAGIC.len()) != Some(&MAGIC[..]) {
        return Err(corrupt(path, "bad magic: not a segment of this format"));
    }
    if len < page_offset(0) + FOOTER_LEN as u64 || footer.len() != FOOTER_LEN {
        return Err(corrupt(path, &format!("no footer in {len} bytes: the segment is not sealed")));
    }
    if &footer[..8] != FOOTER_MAGIC {
        return Err(corrupt(path, "no valid footer: the segment is not sealed"));
    }
    let word = |at: usize| {
        let mut a = [0u8; 8];
        a.copy_from_slice(&footer[at..at + 8]);
        u64::from_le_bytes(a)
    };
    let crc_at = |at: usize| {
        u32::from_le_bytes([footer[at], footer[at + 1], footer[at + 2], footer[at + 3]])
    };
    if crc_at(28) != crc32(&footer[..28]) {
        return Err(corrupt(path, "footer checksum mismatch"));
    }
    let (pages, dir_len) = (word(8), word(16));
    let dir_off = pages
        .checked_add(1)
        .and_then(|p| p.checked_mul(PAGE_SIZE as u64))
        .filter(|&off| off.checked_add(dir_len) == Some(len - FOOTER_LEN as u64))
        .ok_or_else(|| {
            corrupt(
                path,
                &format!(
                    "footer claims {pages} pages and a {dir_len}-byte directory in {len} bytes"
                ),
            )
        })?;
    Ok((pages, dir_off, dir_len, crc_at(24)))
}

/// Decode the directory bytes of a sealed segment, checking their CRC.
fn parse_directory(path: &Path, bytes: &[u8], crc: u32, pages: u64) -> Result<Directory> {
    if crc32(bytes) != crc {
        return Err(corrupt(path, "directory checksum mismatch"));
    }
    Directory::decode(bytes, pages).map_err(|e| corrupt(path, &format!("directory: {e}")))
}

/// What a durable build journals of an unsealed segment: after an fsync,
/// everything up to `pages` is on stable storage and `directory` says
/// what it holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentCheckpoint {
    /// Data pages written.
    pub pages: u64,
    /// The extents written, per relation.
    pub directory: Directory,
}

/// The writer of one segment: appends extents, then seals.
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    policy: Arc<dyn IoPolicy>,
    stats: Arc<StorageStats>,
    pages: u64,
    dir: Directory,
    /// Writes since the last fsync.
    unsynced: bool,
    sealed: bool,
    /// Reused image of the next extent's pages.
    buf: Vec<u8>,
    /// Seconds spent in fsync.
    sync_secs: f64,
}

impl SegmentWriter {
    /// Create (or truncate) the segment at `path` and write its header
    /// slot through `policy`; nothing is fsynced.
    pub(crate) fn create(
        path: &Path,
        policy: Arc<dyn IoPolicy>,
        stats: Arc<StorageStats>,
    ) -> Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        write_slot(policy.as_ref(), &file, path, 0, &header_slot()).1?;
        Ok(SegmentWriter {
            file,
            path: path.to_path_buf(),
            policy,
            stats,
            pages: 0,
            dir: Directory::default(),
            unsynced: true,
            sealed: false,
            buf: Vec::new(),
            sync_secs: 0.0,
        })
    }

    /// Reopen the unsealed segment at `path` at checkpoint `cp`: the
    /// file is truncated back to `cp.pages` data pages and fsynced, and
    /// appends continue from there. A checkpoint with no pages starts
    /// the file afresh. A file shorter than the checkpoint, or with a
    /// damaged header, is [`StorageError::Corrupt`].
    pub(crate) fn resume(
        path: &Path,
        policy: Arc<dyn IoPolicy>,
        stats: Arc<StorageStats>,
        cp: &SegmentCheckpoint,
    ) -> Result<Self> {
        if cp.pages == 0 {
            return Self::create(path, policy, stats);
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let want = page_offset(cp.pages);
        if len < want {
            return Err(corrupt(
                path,
                &format!("{len} bytes on disk, but {} pages are journaled", cp.pages),
            ));
        }
        let mut magic = [0u8; 8];
        file.read_exact_at(&mut magic, 0)?;
        if &magic != MAGIC {
            return Err(corrupt(path, "bad magic: not a segment of this format"));
        }
        file.set_len(want)?;
        fsync_file(policy.as_ref(), &file, path)?;
        stats.count_fsync();
        Ok(SegmentWriter {
            file,
            path: path.to_path_buf(),
            policy,
            stats,
            pages: cp.pages,
            dir: cp.directory.clone(),
            unsynced: false,
            sealed: false,
            buf: Vec::new(),
            sync_secs: 0.0,
        })
    }

    /// The relations written so far.
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Append `rows` (encoded rows of `schema`, back to back) to relation
    /// `name` as one extent: the rows are packed into pages and written
    /// with one write through the I/O policy. An empty `rows` is a no-op.
    pub fn append(&mut self, name: &str, schema: &Schema, rows: &[u8]) -> Result<()> {
        if self.sealed {
            return Err(StorageError::Layout(format!(
                "{}: append to a sealed segment",
                self.path.display()
            )));
        }
        let w = schema.row_width();
        let rpp = Page::capacity(w);
        if w == 0 || rpp == 0 || !rows.len().is_multiple_of(w) {
            return Err(StorageError::Layout(format!(
                "segment append to '{name}': {} bytes of {w}-byte rows",
                rows.len()
            )));
        }
        if rows.is_empty() {
            return Ok(());
        }
        let n = rows.len() / w;
        let pages = n.div_ceil(rpp);
        let pages_u32 = u32::try_from(pages)
            .map_err(|_| StorageError::Layout(format!("extent of {pages} pages")))?;
        self.buf.clear();
        self.buf.resize(pages * PAGE_SIZE, 0);
        for (page, chunk) in self.buf.chunks_exact_mut(PAGE_SIZE).zip(rows.chunks(rpp * w)) {
            page[..2].copy_from_slice(&((chunk.len() / w) as u16).to_le_bytes());
            page[PAGE_HEADER..PAGE_HEADER + chunk.len()].copy_from_slice(chunk);
            stamp_image(page);
        }
        let (attempts, result) = write_slot(
            self.policy.as_ref(),
            &self.file,
            &self.path,
            page_offset(self.pages),
            &self.buf,
        );
        self.stats.count_write_retries(attempts.saturating_sub(1));
        result?;
        self.stats.count_pages_written(pages as u64);
        let extent = Extent { first_page: self.pages, pages: pages_u32, rows: n as u64 };
        self.dir.push(name, schema, extent)?;
        self.pages += pages as u64;
        self.unsynced = true;
        Ok(())
    }

    /// What a journal needs to resume here (call after [`sync`](Self::sync)).
    pub fn checkpoint(&self) -> SegmentCheckpoint {
        SegmentCheckpoint { pages: self.pages, directory: self.dir.clone() }
    }

    /// Fsync the file if anything was written since the last fsync.
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced {
            let t = std::time::Instant::now();
            fsync_file(self.policy.as_ref(), &self.file, &self.path)?;
            self.sync_secs += t.elapsed().as_secs_f64();
            self.stats.count_fsync();
            self.unsynced = false;
        }
        Ok(())
    }

    /// Seconds this writer has spent in fsync.
    pub fn sync_secs(&self) -> f64 {
        self.sync_secs
    }

    /// Write the directory, then the footer, then fsync once: the commit
    /// point. Sealing twice is a no-op.
    pub fn seal(&mut self) -> Result<()> {
        if self.sealed {
            return Ok(());
        }
        let dir = self.dir.encode();
        let at = page_offset(self.pages);
        let (attempts, result) = write_slot(self.policy.as_ref(), &self.file, &self.path, at, &dir);
        self.stats.count_write_retries(attempts.saturating_sub(1));
        result?;
        let footer = encode_footer(self.pages, &dir);
        let (attempts, result) = write_slot(
            self.policy.as_ref(),
            &self.file,
            &self.path,
            at + dir.len() as u64,
            &footer,
        );
        self.stats.count_write_retries(attempts.saturating_sub(1));
        result?;
        self.unsynced = true;
        self.sync()?;
        self.sealed = true;
        Ok(())
    }
}

/// A sealed segment read through `pread`: one read per extent, each
/// page's checksum verified the first time this handle sees it.
pub struct Segment {
    file: File,
    io: PageFile,
    pages: u64,
    dir: Directory,
    verified: VerifiedPages,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("name", &self.io.name).field("pages", &self.pages).finish()
    }
}

impl Segment {
    /// Open the sealed segment at `path` read-only: the header, footer
    /// and directory are read and checked; no data page is.
    pub(crate) fn open_at(
        path: &Path,
        policy: Arc<dyn IoPolicy>,
        stats: Option<Arc<StorageStats>>,
    ) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut header = [0u8; 8];
        let mut footer = [0u8; FOOTER_LEN];
        if len >= page_offset(0) + FOOTER_LEN as u64 {
            file.read_exact_at(&mut header, 0)?;
            file.read_exact_at(&mut footer, len - FOOTER_LEN as u64)?;
        }
        let (pages, dir_off, dir_len, crc) = parse_tail(path, len, &header, &footer)?;
        let mut bytes = vec![0u8; dir_len as usize];
        file.read_exact_at(&mut bytes, dir_off)?;
        let dir = parse_directory(path, &bytes, crc, pages)?;
        Ok(Segment {
            file,
            io: PageFile::new(path, policy, stats, true),
            pages,
            dir,
            verified: VerifiedPages::default(),
        })
    }

    /// The segment's name (file stem): the relation named by its typed
    /// corrupt-page errors and the serving layer's quarantine key.
    pub fn name(&self) -> &str {
        &self.io.name
    }

    /// Data pages in the file.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The relations this segment stores.
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Run `f` over every row of `entry` (a relation of this segment's
    /// directory), in row order: one read per extent.
    ///
    /// `before_page(page_no)` runs before each page is read — for all of
    /// an extent's pages before its one read — and its error aborts the
    /// scan, as in [`HeapFile::gather_shared`](crate::HeapFile::gather_shared).
    pub fn for_each_row<E: From<StorageError>>(
        &self,
        entry: &SegmentEntry,
        mut before_page: impl FnMut(u64) -> std::result::Result<(), E>,
        mut f: impl FnMut(&[u8]),
    ) -> std::result::Result<(), E> {
        let (w, rpp) = (entry.schema.row_width(), entry.rows_per_page());
        for x in &entry.extents {
            (x.first_page..x.first_page + u64::from(x.pages)).try_for_each(&mut before_page)?;
            let len = x.pages as usize * PAGE_SIZE;
            let (buf, tampered) =
                self.io.read(Origin::File(&self.file), page_offset(x.first_page), len)?;
            self.io.count(|s| s.count_pages_read(u64::from(x.pages)));
            for (i, image) in buf.chunks_exact(PAGE_SIZE).enumerate() {
                let (p, rows) = (x.first_page + i as u64, x.rows_on(i as u64, rpp));
                self.io.check(p, image, Verify::Once { memo: &self.verified, tampered }, None)?;
                self.io.expect_rows(p, image, rows)?;
                for row in image[PAGE_HEADER..PAGE_HEADER + rows * w].chunks_exact(w) {
                    f(row);
                }
            }
        }
        Ok(())
    }

    /// Every row of relation `name` back to back (empty when the segment
    /// has no such relation).
    pub fn rows_of(&self, name: &str) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        if let Some(entry) = self.dir.get(name) {
            self.for_each_row(
                entry,
                |_| Ok::<(), StorageError>(()),
                |row| out.extend_from_slice(row),
            )?;
        }
        Ok(out)
    }

    /// Forget that data page `page_no` was verified and re-read it from
    /// disk, checking its checksum: the repair probe behind the serving
    /// layer's quarantine. `Ok` means the page is sound on disk.
    pub fn reverify_page(&self, page_no: u64) -> Result<()> {
        self.verified.forget(page_no);
        if page_no >= self.pages {
            return Err(self
                .io
                .corrupt(page_no, format!("page beyond file ({} pages)", self.pages)));
        }
        let (image, tampered) =
            self.io.read(Origin::File(&self.file), page_offset(page_no), PAGE_SIZE)?;
        self.io.count(StorageStats::count_page_read);
        self.io.check(page_no, &image, Verify::Once { memo: &self.verified, tampered }, None)
    }
}

/// A sealed segment mapped once, read-only, every data page verified at
/// open (the mmap read path: one mapping per epoch).
pub struct SegmentMap {
    map: Mapping,
    dir: Directory,
}

impl std::fmt::Debug for SegmentMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentMap")
            .field("name", &self.map.io.name)
            .field("pages", &self.map.pages())
            .finish()
    }
}

impl SegmentMap {
    /// Map the sealed segment at `path`: the header, footer and
    /// directory are checked, then every data page is verified once. A
    /// page that fails is marked bad and served as a typed
    /// [`StorageError::CorruptPage`] until a repair probe clears it; it
    /// does not fail the open.
    pub(crate) fn open_at(
        path: &Path,
        policy: Arc<dyn IoPolicy>,
        stats: Option<Arc<StorageStats>>,
    ) -> Result<Self> {
        let mut map = Mapping::open(path, policy, stats, true)?;
        let bytes = map.bytes();
        let len = bytes.len() as u64;
        let footer = bytes.get(bytes.len().saturating_sub(FOOTER_LEN)..).unwrap_or_default();
        let (pages, dir_off, dir_len, crc) = parse_tail(path, len, bytes, footer)?;
        let dir_bytes = &bytes[dir_off as usize..(dir_off + dir_len) as usize];
        let dir = parse_directory(path, dir_bytes, crc, pages)?;
        map.set_pages(pages);
        for entry in dir.entries() {
            let rpp = entry.rows_per_page();
            for x in &entry.extents {
                for p in x.first_page..x.first_page + u64::from(x.pages) {
                    map.verify_at_open(p, rpp);
                }
            }
        }
        Ok(SegmentMap { map, dir })
    }

    /// The segment's name (file stem), as [`Segment::name`].
    pub fn name(&self) -> &str {
        &self.map.io.name
    }

    /// The relations this segment stores.
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Pages currently marked bad (failed verification, pending repair).
    pub fn bad_pages(&self) -> u64 {
        self.map.bad_pages()
    }

    /// Run `f` over every row of `entry`, in row order, each row a
    /// borrowed slice of the mapping on the clean path. `before_page`
    /// runs before each page is touched, as in [`Segment::for_each_row`].
    pub fn for_each_row<E: From<StorageError>>(
        &self,
        entry: &SegmentEntry,
        mut before_page: impl FnMut(u64) -> std::result::Result<(), E>,
        mut f: impl FnMut(&[u8]),
    ) -> std::result::Result<(), E> {
        let (w, rpp) = (entry.schema.row_width(), entry.rows_per_page());
        for x in &entry.extents {
            for i in 0..u64::from(x.pages) {
                let (p, rows) = (x.first_page + i, x.rows_on(i, rpp));
                before_page(p)?;
                let image = self.map.page(p, rpp)?;
                self.map.io.expect_rows(p, &image, rows)?;
                for row in image[PAGE_HEADER..PAGE_HEADER + rows * w].chunks_exact(w) {
                    f(row);
                }
            }
        }
        Ok(())
    }

    /// Repair probe: re-verify data page `page_no` against the live
    /// mapping and update the bad-page set to match.
    pub fn reverify_page(&self, page_no: u64) -> Result<()> {
        if page_no >= self.map.pages() {
            return Err(self
                .map
                .io
                .corrupt(page_no, format!("page beyond file ({} pages)", self.map.pages())));
        }
        self.map.reverify_page(page_no, Page::capacity(1))
    }
}

/// Verify the sealed segment file image `bytes` (named `name`, read from
/// `path`) end to end without opening it as a reader: header, footer,
/// directory CRC and layout, then every data page's checksum and row
/// count. Returns the verified directory.
pub(crate) fn verify_image_bytes(path: &Path, name: &str, bytes: &[u8]) -> Result<Directory> {
    let len = bytes.len() as u64;
    let footer = bytes.get(bytes.len().saturating_sub(FOOTER_LEN)..).unwrap_or_default();
    let (pages, dir_off, dir_len, crc) = parse_tail(path, len, bytes, footer)?;
    let dir =
        parse_directory(path, &bytes[dir_off as usize..(dir_off + dir_len) as usize], crc, pages)?;
    for entry in dir.entries() {
        let rpp = entry.rows_per_page();
        for x in &entry.extents {
            for i in 0..u64::from(x.pages) {
                let p = x.first_page + i;
                let off = page_offset(p) as usize;
                let image = &bytes[off..off + PAGE_SIZE];
                check_checksum(image, true)
                    .and_then(|()| check_rows(image, x.rows_on(i, rpp)))
                    .map_err(|detail| StorageError::CorruptPage {
                        relation: name.to_string(),
                        page: p,
                        detail,
                    })?;
            }
        }
    }
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{no_faults, FaultInjector, FaultKind, ReadFaultKind};
    use crate::schema::{ColType, Column};
    use crate::scratch::scratch_dir;

    fn schema(cols: usize) -> Schema {
        Schema::new((0..cols).map(|i| Column::new(format!("c{i}"), ColType::U64)).collect())
    }

    fn rows(n: u64, cols: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            for c in 0..cols as u64 {
                out.extend_from_slice(&(seed * 1_000_000 + i * 10 + c).to_le_bytes());
            }
        }
        out
    }

    fn writer(path: &Path) -> SegmentWriter {
        SegmentWriter::create(path, no_faults(), Arc::new(StorageStats::new())).unwrap()
    }

    /// Two relations of different widths, three extents interleaved.
    fn sample(path: &Path) -> (Vec<u8>, Vec<u8>) {
        let mut w = writer(path);
        let (a1, b1, a2) = (rows(1500, 1, 1), rows(10, 3, 2), rows(7, 1, 3));
        w.append("n1_tt", &schema(1), &a1).unwrap();
        w.append("n0_nt", &schema(3), &b1).unwrap();
        w.append("n1_tt", &schema(1), &a2).unwrap();
        w.seal().unwrap();
        ([a1, a2].concat(), b1)
    }

    #[test]
    fn extents_roundtrip_on_both_readers() {
        let path = scratch_dir("segment_roundtrip").join("c_nodes.seg");
        let (a, b) = sample(&path);
        let seg = Segment::open_at(&path, no_faults(), None).unwrap();
        assert_eq!(seg.name(), "c_nodes");
        assert_eq!(seg.directory().entries().len(), 2);
        assert_eq!(seg.rows_of("n1_tt").unwrap(), a);
        assert_eq!(seg.rows_of("n0_nt").unwrap(), b);
        assert!(seg.rows_of("absent").unwrap().is_empty());
        assert_eq!(seg.directory().get("n1_tt").unwrap().extents.len(), 2);
        let map = SegmentMap::open_at(&path, no_faults(), None).unwrap();
        assert_eq!(map.bad_pages(), 0);
        for entry in map.directory().entries() {
            let mut got = Vec::new();
            map.for_each_row(entry, |_| Ok::<(), StorageError>(()), |r| got.extend_from_slice(r))
                .unwrap();
            assert_eq!(got, seg.rows_of(&entry.name).unwrap(), "{}", entry.name);
        }
        assert_eq!(seg.directory().data_bytes(), (a.len() + b.len()) as u64);
    }

    #[test]
    fn unsealed_or_damaged_segments_are_typed_corrupt() {
        let dir = scratch_dir("segment_unsealed");
        let path = dir.join("u_nodes.seg");
        let mut w = writer(&path);
        w.append("r", &schema(1), &rows(10, 1, 0)).unwrap();
        w.sync().unwrap();
        for open in [
            Segment::open_at(&path, no_faults(), None).map(|_| ()),
            SegmentMap::open_at(&path, no_faults(), None).map(|_| ()),
        ] {
            assert!(matches!(open, Err(StorageError::Corrupt(_))), "{open:?}");
        }
        w.seal().unwrap();
        let good = std::fs::read(&path).unwrap();
        let n = good.len();
        for (what, at) in [("footer", n - 5), ("directory", n - FOOTER_LEN - 3), ("header", 2)] {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            let e = Segment::open_at(&path, no_faults(), None).map(|_| ()).unwrap_err();
            assert!(matches!(e, StorageError::Corrupt(_)), "{what}: {e:?}");
        }
    }

    #[test]
    fn a_flipped_data_byte_is_a_corrupt_page_and_repairable() {
        let path = scratch_dir("segment_flip").join("f_nodes.seg");
        sample(&path);
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        let at = page_offset(1) as usize + PAGE_HEADER + 9;
        bad[at] ^= 0x04;
        std::fs::write(&path, &bad).unwrap();
        let seg = Segment::open_at(&path, no_faults(), None).unwrap();
        match seg.rows_of("n1_tt") {
            Err(StorageError::CorruptPage { relation, page: 1, .. }) => {
                assert_eq!(relation, "f_nodes")
            }
            other => panic!("expected CorruptPage on page 1, got {other:?}"),
        }
        let map = SegmentMap::open_at(&path, no_faults(), None).unwrap();
        assert_eq!(map.bad_pages(), 1);
        assert!(seg.reverify_page(1).is_err());
        std::fs::write(&path, &good).unwrap();
        seg.reverify_page(1).unwrap();
        map.reverify_page(1).unwrap();
        assert_eq!(map.bad_pages(), 0);
        assert!(seg.rows_of("n1_tt").is_ok());
    }

    #[test]
    fn policy_read_faults_surface_typed() {
        let path = scratch_dir("segment_policy").join("p_nodes.seg");
        sample(&path);
        let policy = Arc::new(FaultInjector::fail_nth_read(0, ReadFaultKind::FlipBit));
        let seg = Segment::open_at(&path, policy, None).unwrap();
        assert!(matches!(seg.rows_of("n1_tt"), Err(StorageError::CorruptPage { .. })));
        assert!(seg.rows_of("n1_tt").is_ok(), "the fault was one-shot");
    }

    #[test]
    fn resume_truncates_to_the_checkpoint_and_reproduces_the_bytes() {
        let dir = scratch_dir("segment_resume");
        let (want_path, path) = (dir.join("a.seg"), dir.join("b.seg"));
        let mut whole = writer(&want_path);
        whole.append("x", &schema(1), &rows(900, 1, 0)).unwrap();
        whole.append("y", &schema(2), &rows(50, 2, 1)).unwrap();
        whole.seal().unwrap();
        let stats = Arc::new(StorageStats::new());
        let mut first = SegmentWriter::create(&path, no_faults(), Arc::clone(&stats)).unwrap();
        first.append("x", &schema(1), &rows(900, 1, 0)).unwrap();
        first.sync().unwrap();
        let cp = first.checkpoint();
        // Work after the checkpoint that a crash loses, torn mid-write.
        first.append("z", &schema(1), &rows(3000, 1, 9)).unwrap();
        drop(first);
        let torn = Arc::new(FaultInjector::fail_nth_write(0, FaultKind::Torn));
        let mut dead = SegmentWriter::resume(&path, no_faults(), Arc::clone(&stats), &cp).unwrap();
        dead.policy = torn;
        assert!(dead.append("y", &schema(2), &rows(50, 2, 1)).is_err());
        drop(dead);
        let mut again = SegmentWriter::resume(&path, no_faults(), stats, &cp).unwrap();
        again.append("y", &schema(2), &rows(50, 2, 1)).unwrap();
        again.seal().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&want_path).unwrap());
        // A checkpoint beyond the file is corrupt, not silently padded.
        let cp = SegmentCheckpoint { pages: 99, directory: Directory::default() };
        let e = SegmentWriter::resume(&path, no_faults(), Arc::new(StorageStats::new()), &cp);
        assert!(matches!(e, Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn one_write_per_extent_and_one_fsync_to_seal() {
        let path = scratch_dir("segment_counts").join("k_nodes.seg");
        let policy = Arc::new(FaultInjector::counting());
        let mut w =
            SegmentWriter::create(&path, policy.clone(), Arc::new(StorageStats::new())).unwrap();
        for i in 0..10 {
            w.append(&format!("r{i}"), &schema(1), &rows(2000, 1, i)).unwrap();
        }
        w.seal().unwrap();
        // Header, ten extents, directory, footer; one fsync.
        assert_eq!((policy.writes(), policy.fsyncs()), (13, 1));
    }

    #[test]
    fn schema_mismatch_and_ragged_rows_are_rejected() {
        let path = scratch_dir("segment_layout").join("l_nodes.seg");
        let mut w = writer(&path);
        w.append("r", &schema(1), &rows(3, 1, 0)).unwrap();
        assert!(matches!(w.append("r", &schema(2), &rows(1, 2, 0)), Err(StorageError::Layout(_))));
        assert!(matches!(w.append("s", &schema(1), &[0u8; 7]), Err(StorageError::Layout(_))));
        w.seal().unwrap();
        assert!(w.append("r", &schema(1), &rows(1, 1, 0)).is_err(), "sealed");
    }

    #[test]
    fn directory_decode_rejects_overlap_and_gaps() {
        let mut d = Directory::default();
        d.push("a", &schema(1), Extent { first_page: 0, pages: 1, rows: 3 }).unwrap();
        d.push("b", &schema(1), Extent { first_page: 1, pages: 2, rows: 1100 }).unwrap();
        let bytes = d.encode();
        assert_eq!(Directory::decode(&bytes, 3).unwrap(), d);
        assert!(Directory::decode(&bytes, 4).is_err(), "a gap at the end");
        let mut overlap = Directory::default();
        overlap.push("a", &schema(1), Extent { first_page: 0, pages: 2, rows: 1100 }).unwrap();
        overlap.push("b", &schema(1), Extent { first_page: 1, pages: 1, rows: 1 }).unwrap();
        assert!(Directory::decode(&overlap.encode(), 2).is_err());
        let short = Directory::default();
        let mut e = short.encode();
        e[0] = 200; // claims 200 entries in 4 bytes
        assert!(Directory::decode(&e, 0).is_err());
    }
}

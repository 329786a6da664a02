//! The catalog: a directory of named relations.
//!
//! A [`Catalog`] is the "database" the ROLAP engine exposes: a filesystem
//! directory in which every relation `R` is one self-describing file,
//! `R.heap`, whose header slot holds the schema (layout in [`crate::heap`]).
//! CURE creates large numbers of relations (up to three per cube node, plus
//! `AGGREGATES`, plus spill partitions), so creation and lookup are kept
//! cheap: creating a relation is one exclusive create and one header
//! write, with no fsync (the header becomes durable with the relation's
//! first sync), and names are sanitized into filenames deterministically.
//! Opaque byte blobs live beside the relations as `<name>.blob`.

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::heap::{read_header, HeapFile};
use crate::io::{atomic_write, fsync_file, no_faults, sync_dir, IoPolicy};
use crate::schema::Schema;
use crate::stats::StorageStats;

/// A directory of named heap-file relations.
pub struct Catalog {
    dir: PathBuf,
    /// Fault-injection hook inherited by every relation this catalog
    /// creates or opens, and consulted for metadata/blob writes.
    policy: Arc<dyn IoPolicy>,
    /// Counter registry inherited by every relation this catalog creates
    /// or opens, so one snapshot covers the catalog's whole I/O traffic.
    stats: Arc<StorageStats>,
}

impl Catalog {
    /// Open (creating if necessary) a catalog rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_policy(dir, no_faults())
    }

    /// [`open`](Self::open) with an explicit I/O policy: every relation
    /// created or opened through this catalog inherits it, so a single
    /// [`FaultInjector`](crate::io::FaultInjector) observes the build's
    /// complete write schedule.
    pub fn open_with_policy(dir: impl AsRef<Path>, policy: Arc<dyn IoPolicy>) -> Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(Catalog {
            dir: dir.as_ref().to_path_buf(),
            policy,
            stats: Arc::new(StorageStats::new()),
        })
    }

    /// Root directory of this catalog.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The I/O policy relations and metadata writes go through.
    pub fn policy(&self) -> &Arc<dyn IoPolicy> {
        &self.policy
    }

    /// The counter registry shared by every relation this catalog created
    /// or opened. Snapshot it with [`StorageStats::snapshot`].
    pub fn stats(&self) -> &Arc<StorageStats> {
        &self.stats
    }

    /// Fsync the catalog directory, making file creations, removals and
    /// renames within it durable.
    pub fn sync_dir(&self) -> Result<()> {
        sync_dir(self.policy.as_ref(), &self.dir).map_err(StorageError::Io)
    }

    fn heap_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{}.heap", sanitize(name)))
    }

    /// Whether a relation named `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.heap_path(name).exists()
    }

    /// Create a new relation; errors if one with this name already exists.
    pub fn create_relation(&self, name: &str, schema: Schema) -> Result<HeapFile> {
        let mut hf = HeapFile::create_at(&self.heap_path(name), schema, self.policy.clone(), true)
            .map_err(|e| match e {
                StorageError::Io(io) if io.kind() == io::ErrorKind::AlreadyExists => {
                    StorageError::Catalog(format!("relation '{name}' already exists"))
                }
                e => e,
            })?;
        hf.attach_stats(Arc::clone(&self.stats));
        Ok(hf)
    }

    /// Create a relation, replacing any existing one with the same name.
    pub fn create_or_replace(&self, name: &str, schema: Schema) -> Result<HeapFile> {
        let mut hf =
            HeapFile::create_at(&self.heap_path(name), schema, self.policy.clone(), false)?;
        hf.attach_stats(Arc::clone(&self.stats));
        Ok(hf)
    }

    /// Open an existing relation, reading its schema from its header.
    pub fn open_relation(&self, name: &str) -> Result<HeapFile> {
        let path = self.heap_path(name);
        // Stats ride along from the start so open-time reads (tail page,
        // torn-tail checks) count retries and verifications too.
        let (hf, repair) =
            HeapFile::open_at(&path, None, self.policy.clone(), Some(Arc::clone(&self.stats)))
                .map_err(|e| not_found(e, name))?;
        if let Some(r) = &repair {
            eprintln!("cure-storage: warning: {}: {}", path.display(), r.reason);
        }
        Ok(hf)
    }

    /// Filesystem path of a relation's heap file (recovery tooling).
    pub fn relation_heap_path(&self, name: &str) -> PathBuf {
        self.heap_path(name)
    }

    /// Read a relation's schema from its header, without reading any page.
    pub fn relation_schema(&self, name: &str) -> Result<Schema> {
        let path = self.heap_path(name);
        let file = File::open(&path).map_err(|e| not_found(e.into(), name))?;
        read_header(&file, &path, file.metadata()?.len())
    }

    /// Fsync a relation's file without opening it as a relation (no
    /// header or page is read), counted like [`HeapFile::sync`].
    pub fn sync_relation(&self, name: &str) -> Result<()> {
        let path = self.heap_path(name);
        let file = File::open(&path).map_err(|e| not_found(e.into(), name))?;
        fsync_file(self.policy.as_ref(), &file, &path)?;
        self.stats.count_fsync();
        Ok(())
    }

    /// Remove a relation. Missing relations are an error.
    pub fn drop_relation(&self, name: &str) -> Result<()> {
        fs::remove_file(self.heap_path(name)).map_err(|e| not_found(e.into(), name))
    }

    /// All relation names in this catalog, sorted.
    pub fn list(&self) -> Result<Vec<String>> {
        self.list_ext("heap")
    }

    /// Stems of the files with extension `ext`, sorted.
    fn list_ext(&self, ext: &str) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(ext) {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn blob_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{}.blob", sanitize(name)))
    }

    /// Store an opaque byte blob under `name` (used for bitmap indexes and
    /// cube metadata). Overwrites any existing blob of the same name.
    /// The write is atomic (temp + fsync + rename + dir fsync): readers
    /// never observe a torn blob, even across a crash.
    pub fn write_blob(&self, name: &str, bytes: &[u8]) -> Result<()> {
        atomic_write(self.policy.as_ref(), &self.blob_path(name), bytes)?;
        Ok(())
    }

    /// Read a blob written by [`write_blob`](Self::write_blob).
    pub fn read_blob(&self, name: &str) -> Result<Vec<u8>> {
        fs::read(self.blob_path(name))
            .map_err(|_| StorageError::Catalog(format!("blob '{name}' not found")))
    }

    /// Whether a blob named `name` exists.
    pub fn blob_exists(&self, name: &str) -> bool {
        self.blob_path(name).exists()
    }

    /// All blob names in this catalog, sorted.
    pub fn list_blobs(&self) -> Result<Vec<String>> {
        self.list_ext("blob")
    }

    /// Drop every relation and blob whose name starts with `prefix` —
    /// the cleanup primitive for replacing a cube (e.g. after an
    /// incremental update wrote its successor under a new prefix).
    /// Returns how many objects were removed.
    pub fn drop_prefix(&self, prefix: &str) -> Result<usize> {
        let mut dropped = 0usize;
        for name in self.list()? {
            if name.starts_with(prefix) {
                self.drop_relation(&name)?;
                dropped += 1;
            }
        }
        for name in self.list_blobs()? {
            if name.starts_with(prefix) {
                fs::remove_file(self.blob_path(&name))?;
                dropped += 1;
            }
        }
        Ok(dropped)
    }

    /// Total logical data volume (bytes of rows) across relations whose name
    /// starts with `prefix` — the measure used for the paper's "storage
    /// space" figures.
    pub fn data_bytes_with_prefix(&self, prefix: &str) -> Result<u64> {
        let mut total = 0u64;
        for name in self.list()? {
            if name.starts_with(prefix) {
                let rel = self.open_relation(&name)?;
                total += rel.data_bytes();
            }
        }
        Ok(total)
    }
}

/// Replace filesystem-hostile characters so any node name is a valid stem.
pub(crate) fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
        .collect()
}

/// A missing file is an unknown relation; every other error passes through.
pub(crate) fn not_found(e: StorageError, name: &str) -> StorageError {
    match e {
        StorageError::Io(io) if io.kind() == io::ErrorKind::NotFound => {
            StorageError::Catalog(format!("relation '{name}' not found"))
        }
        e => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Value;

    fn fresh_catalog(tag: &str) -> Catalog {
        let dir = std::env::temp_dir().join(format!("cure_catalog_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Catalog::open(&dir).unwrap()
    }

    #[test]
    fn create_open_roundtrip() {
        let cat = fresh_catalog("roundtrip");
        let schema = Schema::fact(2, 1);
        {
            let mut rel = cat.create_relation("facts", schema.clone()).unwrap();
            rel.append(&[Value::U32(1), Value::U32(2), Value::I64(3)]).unwrap();
            rel.flush().unwrap();
        }
        let rel = cat.open_relation("facts").unwrap();
        assert_eq!(rel.schema(), &schema);
        assert_eq!(rel.num_rows(), 1);
        assert_eq!(rel.fetch_values(0).unwrap()[2], Value::I64(3));
    }

    #[test]
    fn duplicate_create_rejected() {
        let cat = fresh_catalog("dup");
        cat.create_relation("r", Schema::fact(1, 1)).unwrap();
        assert!(cat.create_relation("r", Schema::fact(1, 1)).is_err());
        // create_or_replace succeeds and truncates.
        let rel = cat.create_or_replace("r", Schema::fact(1, 1)).unwrap();
        assert_eq!(rel.num_rows(), 0);
    }

    #[test]
    fn open_missing_fails() {
        let cat = fresh_catalog("missing");
        assert!(cat.open_relation("nope").is_err());
    }

    #[test]
    fn drop_removes() {
        let cat = fresh_catalog("drop");
        cat.create_relation("r", Schema::fact(1, 1)).unwrap();
        assert!(cat.exists("r"));
        cat.drop_relation("r").unwrap();
        assert!(!cat.exists("r"));
        assert!(cat.drop_relation("r").is_err());
    }

    #[test]
    fn list_is_sorted() {
        let cat = fresh_catalog("list");
        for n in ["zeta", "alpha", "mid"] {
            cat.create_relation(n, Schema::fact(1, 1)).unwrap();
        }
        assert_eq!(cat.list().unwrap(), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn sanitize_handles_node_names() {
        let cat = fresh_catalog("sanitize");
        // Node names like "node:12/NT" must become valid file stems.
        let mut rel = cat.create_relation("node:12/NT", Schema::fact(1, 1)).unwrap();
        rel.append(&[Value::U32(1), Value::I64(1)]).unwrap();
        rel.flush().unwrap();
        let rel = cat.open_relation("node:12/NT").unwrap();
        assert_eq!(rel.num_rows(), 1);
    }

    #[test]
    fn blob_roundtrip() {
        let cat = fresh_catalog("blob");
        assert!(!cat.blob_exists("bm"));
        cat.write_blob("bm", &[1, 2, 3]).unwrap();
        assert!(cat.blob_exists("bm"));
        assert_eq!(cat.read_blob("bm").unwrap(), vec![1, 2, 3]);
        cat.write_blob("bm", &[9]).unwrap(); // overwrite
        assert_eq!(cat.read_blob("bm").unwrap(), vec![9]);
        assert!(cat.read_blob("missing").is_err());
        // Blobs do not pollute the relation listing.
        assert!(cat.list().unwrap().is_empty());
    }

    #[test]
    fn drop_prefix_removes_relations_and_blobs() {
        let cat = fresh_catalog("dropprefix");
        cat.create_relation("old_n1_nt", Schema::fact(1, 1)).unwrap();
        cat.create_relation("old_n2_tt", Schema::fact(1, 1)).unwrap();
        cat.create_relation("keep_me", Schema::fact(1, 1)).unwrap();
        cat.write_blob("old_meta", b"x").unwrap();
        cat.write_blob("other", b"y").unwrap();
        let dropped = cat.drop_prefix("old_").unwrap();
        assert_eq!(dropped, 3);
        assert!(!cat.exists("old_n1_nt"));
        assert!(cat.exists("keep_me"));
        assert!(!cat.blob_exists("old_meta"));
        assert!(cat.blob_exists("other"));
        assert_eq!(cat.drop_prefix("old_").unwrap(), 0);
    }

    #[test]
    fn stats_aggregate_across_relations() {
        let cat = fresh_catalog("stats");
        let mut a = cat.create_relation("a", Schema::fact(1, 1)).unwrap();
        let mut b = cat.create_relation("b", Schema::fact(1, 1)).unwrap();
        // Two full pages each, so a reopened file serves row 0 from disk
        // (not the in-memory tail) and the read below is observable.
        let rows = crate::page::Page::capacity(12) as u32 * 2;
        for i in 0..rows {
            a.append(&[Value::U32(i), Value::I64(0)]).unwrap();
            b.append(&[Value::U32(i), Value::I64(0)]).unwrap();
        }
        a.flush().unwrap();
        b.flush().unwrap();
        a.sync().unwrap();
        let snap = cat.stats().snapshot();
        assert_eq!(snap.pages_written, a.pages_written() + b.pages_written());
        assert_eq!(snap.fsyncs, 1);
        // Reopening through the catalog keeps feeding the same registry.
        drop(a);
        let a = cat.open_relation("a").unwrap();
        let before = cat.stats().pages_read();
        a.fetch_values(0).unwrap();
        assert_eq!(cat.stats().pages_read(), before + 1);
    }

    #[test]
    fn policy_observes_all_catalog_writes() {
        use crate::io::FaultInjector;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("cure_catalog_policy_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let policy = Arc::new(FaultInjector::counting());
        let cat = Catalog::open_with_policy(&dir, policy.clone()).unwrap();
        let mut rel = cat.create_relation("r", Schema::fact(1, 1)).unwrap();
        rel.append(&[Value::U32(1), Value::I64(1)]).unwrap();
        rel.flush().unwrap();
        rel.sync().unwrap();
        cat.write_blob("b", b"payload").unwrap();
        // header write + page write + blob write at minimum, plus fsyncs.
        assert!(policy.writes() >= 3, "writes seen: {}", policy.writes());
        assert!(policy.fsyncs() >= 3, "fsyncs seen: {}", policy.fsyncs());
    }

    #[test]
    fn faulted_blob_write_leaves_old_content() {
        use crate::io::{FaultInjector, FaultKind};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("cure_catalog_fault_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let clean = Catalog::open(&dir).unwrap();
        clean.write_blob("meta", b"v1").unwrap();
        let policy = Arc::new(FaultInjector::fail_nth_write(0, FaultKind::Torn));
        let faulty = Catalog::open_with_policy(&dir, policy).unwrap();
        assert!(faulty.write_blob("meta", b"v2-much-longer-content").is_err());
        assert_eq!(clean.read_blob("meta").unwrap(), b"v1", "old blob intact after torn write");
    }

    /// A relation's file, damaged the three ways a header can be: cut
    /// short by a crash during creation, one CRC byte flipped, and a
    /// header-less heap of the earlier two-file layout (data page 0 at
    /// offset 0).
    fn damaged_relations(cat: &Catalog) -> Vec<&'static str> {
        use crate::heap::page_offset;
        use crate::page::{Page, PAGE_SIZE};
        for name in ["bad_short", "bad_crc"] {
            let mut rel = cat.create_relation(name, Schema::fact(1, 1)).unwrap();
            rel.append(&[Value::U32(1), Value::I64(1)]).unwrap();
            rel.flush().unwrap();
        }
        let short = fs::OpenOptions::new().write(true).open(cat.heap_path("bad_short")).unwrap();
        short.set_len(20).unwrap();
        let mut bytes = fs::read(cat.heap_path("bad_crc")).unwrap();
        bytes[12] ^= 0x01;
        fs::write(cat.heap_path("bad_crc"), &bytes).unwrap();
        let mut page = Page::new();
        assert!(page.push_row(&[0u8; 12]));
        page.stamp_checksum();
        fs::write(cat.heap_path("bad_old"), page.as_bytes()).unwrap();
        assert_eq!(page_offset(0), PAGE_SIZE as u64);
        vec!["bad_crc", "bad_old", "bad_short"]
    }

    #[test]
    fn damaged_headers_are_typed_corrupt_and_still_droppable() {
        use crate::mmap::MmapRelation;
        let cat = fresh_catalog("damaged");
        cat.create_relation("good", Schema::fact(1, 1)).unwrap();
        let damaged = damaged_relations(&cat);
        for &name in &damaged {
            let path = cat.heap_path(name).display().to_string();
            let corrupt = |what: &str, e: StorageError| match e {
                StorageError::Corrupt(msg) => assert!(msg.contains(&path), "{what}: {msg}"),
                other => panic!("{name}: {what} gave {other:?}, not Corrupt"),
            };
            corrupt("open_relation", cat.open_relation(name).map(|_| ()).unwrap_err());
            corrupt("relation_schema", cat.relation_schema(name).map(|_| ()).unwrap_err());
            corrupt("MmapRelation::open", MmapRelation::open(&cat, name).map(|_| ()).unwrap_err());
        }
        // The damaged files are still relations: listed, and dropped by
        // prefix without reading their headers.
        assert_eq!(cat.list().unwrap(), vec!["bad_crc", "bad_old", "bad_short", "good"]);
        assert_eq!(cat.drop_prefix("bad_").unwrap(), damaged.len());
        assert_eq!(cat.list().unwrap(), vec!["good"]);
    }

    #[test]
    fn creating_a_relation_writes_one_file_and_no_fsync() {
        use crate::io::FaultInjector;
        let dir = std::env::temp_dir().join(format!("cure_catalog_onefile_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let policy = Arc::new(FaultInjector::counting());
        let cat = Catalog::open_with_policy(&dir, policy.clone()).unwrap();
        let schema = Schema::fact(3, 2);
        drop(cat.create_relation("r", schema.clone()).unwrap());
        assert_eq!((policy.writes(), policy.fsyncs()), (1, 0), "one header write, no fsync");
        let files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, vec!["r.heap"]);
        assert_eq!(cat.relation_schema("r").unwrap(), schema);
        assert_eq!(cat.open_relation("r").unwrap().num_rows(), 0);
        assert_eq!(cat.stats().snapshot().pages_written, 0, "the header is not a data page");
    }

    #[test]
    fn prefix_volume_accounting() {
        let cat = fresh_catalog("prefix");
        let mut a = cat.create_relation("cube_n1_NT", Schema::fact(0, 1)).unwrap();
        a.append(&[Value::I64(5)]).unwrap();
        a.flush().unwrap();
        let mut b = cat.create_relation("cube_n2_NT", Schema::fact(0, 1)).unwrap();
        b.append(&[Value::I64(5)]).unwrap();
        b.append(&[Value::I64(6)]).unwrap();
        b.flush().unwrap();
        let mut other = cat.create_relation("facts", Schema::fact(0, 1)).unwrap();
        other.append(&[Value::I64(1)]).unwrap();
        other.flush().unwrap();
        assert_eq!(cat.data_bytes_with_prefix("cube_").unwrap(), 3 * 8);
    }
}

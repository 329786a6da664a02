//! Snapshot export and CRC verification: the replication primitive.
//!
//! A sealed cube is a closed family of catalog files under one name
//! prefix — one self-describing `<rel>.heap` per relation, `<name>.blob`
//! metadata blobs, and the durable `<prefix>manifest.json` journal. Shipping a
//! replica is therefore a *file-level* copy of that family into another
//! catalog directory ([`export_snapshot`]), followed by an end-to-end
//! integrity check on the receiving side ([`verify_snapshot`]): the
//! schema header and every data page of every replicated relation are
//! re-read from disk and their CRC32s verified, so a replica that passes
//! verification serves byte-identical
//! rows or it is rejected before it ever serves a query.
//!
//! The export deliberately skips `.tmp` files (in-flight atomic writes)
//! and fsyncs the destination directory once at the end, so a crash
//! mid-export leaves a partial replica that simply fails verification.

use std::fs;
use std::path::Path;

use crate::catalog::{sanitize, Catalog};
use crate::error::{Result, StorageError};
use crate::heap::{decode_header, page_offset};
use crate::page::{Page, PAGE_SIZE};

/// What a snapshot export or verification covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Files copied (export) or relations opened (verify).
    pub files: usize,
    /// Relations in the prefix family (`.heap` files on export, verified
    /// relations on verify).
    pub relations: usize,
    /// Bytes copied (export) or pages CRC-verified (verify).
    pub bytes: u64,
    /// Pages whose checksum was verified (verify only).
    pub pages_verified: u64,
}

/// Copy every sealed catalog file whose name starts with `prefix` from
/// `src` into `dest_dir` (created if needed). Covers heap files, blobs,
/// and the build manifest uniformly; skips `.tmp`
/// leftovers of in-flight atomic writes. The destination directory is
/// fsynced once after the last copy.
pub fn export_snapshot(src: &Catalog, prefix: &str, dest_dir: &Path) -> Result<SnapshotReport> {
    let fs_prefix = sanitize(prefix);
    fs::create_dir_all(dest_dir)?;
    let mut report = SnapshotReport::default();
    for entry in fs::read_dir(src.dir())? {
        let entry = entry?;
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
            continue;
        };
        if !name.starts_with(&fs_prefix) || name.ends_with(".tmp") {
            continue;
        }
        let copied = fs::copy(&path, dest_dir.join(&name))?;
        report.files += 1;
        report.bytes += copied;
        if name.ends_with(".heap") {
            report.relations += 1;
        }
    }
    if report.files == 0 {
        return Err(StorageError::Catalog(format!(
            "snapshot export found no files under prefix '{prefix}'"
        )));
    }
    crate::io::sync_dir(src.policy().as_ref(), dest_dir)?;
    Ok(report)
}

/// Verify a shipped snapshot end to end: re-read every `.heap` file under
/// `prefix` in `dir` straight from disk, check its schema header's CRC32,
/// then every data page's. This deliberately bypasses the
/// relation-open path — its torn-tail repair would silently *truncate* a
/// corrupt tail page, and a replica is either bit-faithful or rejected.
/// Returns the verified page/byte counts, or the first corruption as a
/// typed [`StorageError`].
pub fn verify_snapshot(dir: &Path, prefix: &str) -> Result<SnapshotReport> {
    let catalog = Catalog::open(dir)?;
    let mut report = SnapshotReport::default();
    for name in catalog.list()? {
        if !name.starts_with(prefix) {
            continue;
        }
        let path = catalog.relation_heap_path(&name);
        let bytes = fs::read(&path)?;
        let data_start = page_offset(0) as usize;
        if bytes.len() < data_start || !bytes.len().is_multiple_of(PAGE_SIZE) {
            return Err(StorageError::Corrupt(format!(
                "replica relation '{name}': {} bytes is not a header slot and whole pages",
                bytes.len()
            )));
        }
        decode_header(&bytes[..data_start], &path)?;
        for (page_no, chunk) in bytes[data_start..].chunks(PAGE_SIZE).enumerate() {
            let page = Page::from_bytes(chunk.to_vec().into_boxed_slice())
                .map_err(|e| corrupt_page(&name, page_no as u64, e))?;
            page.verify_checksum().map_err(|e| corrupt_page(&name, page_no as u64, e))?;
            report.pages_verified += 1;
        }
        report.bytes += bytes.len() as u64;
        report.files += 1;
        report.relations += 1;
    }
    if report.relations == 0 {
        return Err(StorageError::Catalog(format!(
            "snapshot verification found no relations under prefix '{prefix}'"
        )));
    }
    Ok(report)
}

/// Attribute a raw page failure to its relation and page number.
fn corrupt_page(relation: &str, page: u64, e: StorageError) -> StorageError {
    StorageError::CorruptPage { relation: relation.to_string(), page, detail: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Column, Schema, Value};

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cure_snapshot_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn two_col_schema() -> Schema {
        Schema::new(vec![
            Column { name: "d".into(), ty: ColType::U32 },
            Column { name: "m".into(), ty: ColType::I64 },
        ])
    }

    fn seed_catalog(dir: &Path) -> Catalog {
        let catalog = Catalog::open(dir).unwrap();
        let mut rel = catalog.create_relation("shard0_facts", two_col_schema()).unwrap();
        for i in 0..500u32 {
            rel.append(&[Value::U32(i), Value::I64(i as i64 * 3)]).unwrap();
        }
        rel.flush().unwrap();
        rel.sync().unwrap();
        catalog.write_blob("shard0_cube_meta", b"fact_rel=shard0_facts\n").unwrap();
        // An unrelated relation that must not be exported.
        let mut other = catalog.create_relation("other", two_col_schema()).unwrap();
        other.append(&[Value::U32(1), Value::I64(1)]).unwrap();
        other.flush().unwrap();
        catalog
    }

    #[test]
    fn export_copies_only_the_prefix_family() {
        let src_dir = fresh_dir("exp_src");
        let dst_dir = fresh_dir("exp_dst");
        seed_catalog(&src_dir);
        let report =
            export_snapshot(&Catalog::open(&src_dir).unwrap(), "shard0_", &dst_dir).unwrap();
        // facts heap + meta blob.
        assert_eq!(report.files, 2);
        assert_eq!(report.relations, 1);
        let names: Vec<String> = fs::read_dir(&dst_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().all(|n| n.starts_with("shard0_")), "stray files: {names:?}");
    }

    #[test]
    fn verify_accepts_a_clean_replica() {
        let src_dir = fresh_dir("ok_src");
        let dst_dir = fresh_dir("ok_dst");
        seed_catalog(&src_dir);
        export_snapshot(&Catalog::open(&src_dir).unwrap(), "shard0_", &dst_dir).unwrap();
        let report = verify_snapshot(&dst_dir, "shard0_").unwrap();
        assert_eq!(report.relations, 1);
        assert!(report.pages_verified > 0);
        // Replica bytes are bit-identical to the source.
        let src_bytes = fs::read(src_dir.join("shard0_facts.heap")).unwrap();
        let dst_bytes = fs::read(dst_dir.join("shard0_facts.heap")).unwrap();
        assert_eq!(src_bytes, dst_bytes);
    }

    #[test]
    fn verify_rejects_a_flipped_bit() {
        let src_dir = fresh_dir("bad_src");
        let dst_dir = fresh_dir("bad_dst");
        seed_catalog(&src_dir);
        export_snapshot(&Catalog::open(&src_dir).unwrap(), "shard0_", &dst_dir).unwrap();
        let heap = dst_dir.join("shard0_facts.heap");
        let mut bytes = fs::read(&heap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&heap, bytes).unwrap();
        let err = verify_snapshot(&dst_dir, "shard0_").unwrap_err();
        assert!(
            matches!(err, StorageError::CorruptPage { .. } | StorageError::Corrupt(_)),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn verify_rejects_a_flipped_header_byte() {
        let src_dir = fresh_dir("badhdr_src");
        let dst_dir = fresh_dir("badhdr_dst");
        seed_catalog(&src_dir);
        export_snapshot(&Catalog::open(&src_dir).unwrap(), "shard0_", &dst_dir).unwrap();
        let heap = dst_dir.join("shard0_facts.heap");
        let mut bytes = fs::read(&heap).unwrap();
        // A byte of the schema text: only the header CRC covers it.
        bytes[20] ^= 0x01;
        fs::write(&heap, bytes).unwrap();
        let err = verify_snapshot(&dst_dir, "shard0_").unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "unexpected error: {err:?}");
    }

    #[test]
    fn export_of_missing_prefix_errors() {
        let src_dir = fresh_dir("missing_src");
        let dst_dir = fresh_dir("missing_dst");
        seed_catalog(&src_dir);
        assert!(export_snapshot(&Catalog::open(&src_dir).unwrap(), "nope_", &dst_dir).is_err());
    }

    #[test]
    fn export_skips_tmp_files() {
        let src_dir = fresh_dir("tmp_src");
        let dst_dir = fresh_dir("tmp_dst");
        seed_catalog(&src_dir);
        fs::write(src_dir.join("shard0_facts.heap.tmp"), b"torn").unwrap();
        export_snapshot(&Catalog::open(&src_dir).unwrap(), "shard0_", &dst_dir).unwrap();
        assert!(!dst_dir.join("shard0_facts.heap.tmp").exists());
    }
}

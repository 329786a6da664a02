//! Differential test for the zero-copy read path: for every relation of
//! a built cube — in all three storage schemes (CURE, CURE+, CURE DR) —
//! mmap reads, per-row `fetch_shared` cache reads and the page-ordered
//! `gather_shared` batch must return byte-identical rows, and the mmap
//! query path must answer every node exactly like the cache query path:
//! the same rows in the same order, and the same typed error when a
//! fact page is quarantined.
//! The two paths share nothing below the file: one goes through `pread`
//! into a lock-guarded user-space cache, the other through a
//! `MAP_SHARED` mapping, so byte equality here pins the mmap
//! implementation to the storage engine's on-disk format.

use std::sync::Arc;

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::meta::CubeMeta;
use cure_core::sink::{DiskSink, RowResolver};
use cure_core::{CubeError, CubeSchema, Dimension, Tuples};
use cure_query::{
    Attribution, CacheConfig, ConcurrentCube, CubeRow, PageQuarantine, QueryGuard, ReadPath,
};
use cure_storage::scratch::scratch_dir;
use cure_storage::{Catalog, MmapRelation, SharedBufferCache, StorageError};

fn make_schema() -> CubeSchema {
    let a = Dimension::linear(
        "A",
        18,
        &[(0..18).map(|v| v / 6).collect(), (0..3).map(|v| v / 3).collect()],
    )
    .unwrap();
    let b = Dimension::linear("B", 10, &[(0..10).map(|v| v / 5).collect()]).unwrap();
    let c = Dimension::flat("C", 6);
    CubeSchema::new(vec![a, b, c], 2).unwrap()
}

fn make_tuples(schema: &CubeSchema, n: usize, seed: u64) -> Tuples {
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let mut t = Tuples::new(d, y);
    let mut x = seed | 1;
    let mut dims = vec![0u32; d];
    let mut aggs = vec![0i64; y];
    for i in 0..n {
        for (j, v) in dims.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x % schema.dims()[j].leaf_cardinality() as u64) as u32;
        }
        for a in aggs.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *a = (x % 30) as i64;
        }
        t.push_fact(&dims, &aggs, i as u64);
    }
    t
}

/// Build one cube variant on disk and return its opened catalog.
fn build_variant(dr: bool, plus: bool, tag: &str) -> (Arc<Catalog>, Arc<CubeSchema>) {
    let dir = scratch_dir(&format!("mmapdiff_{tag}"));
    let catalog = Catalog::open(&dir).unwrap();
    let schema = make_schema();
    let t = make_tuples(&schema, 2_000, 0xD1FF);
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let mut heap = catalog.create_or_replace("facts", Tuples::fact_schema(d, y)).unwrap();
    t.store_fact(&mut heap).unwrap();
    drop(heap);
    let resolver: Option<RowResolver> = if dr {
        let fact = catalog.open_relation("facts").unwrap();
        let fs = fact.schema().clone();
        Some(Box::new(move |rowid, out: &mut [u32]| {
            let mut buf = vec![0u8; fs.row_width()];
            fact.fetch_into(rowid, &mut buf)?;
            for (i, o) in out.iter_mut().enumerate().take(d) {
                *o = cure_storage::Schema::read_u32_at(&buf, fs.offset(i));
            }
            Ok(())
        }))
    } else {
        None
    };
    let report = {
        let mut sink = DiskSink::new(&catalog, "c_", &schema, dr, plus, resolver).unwrap();
        CubeBuilder::new(&schema, CubeConfig::default()).build_in_memory(&t, &mut sink).unwrap()
    };
    CubeMeta {
        prefix: "c_".into(),
        fact_rel: "facts".into(),
        n_dims: d,
        n_measures: y,
        dr,
        plus,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    (Arc::new(catalog), Arc::new(schema))
}

/// Every row of every relation, byte-for-byte: mmap vs `fetch_shared`
/// vs one `gather_shared` of all rows in a scrambled order for the heap
/// relations, and the segment read by `pread` vs through its mapping for
/// every node relation.
fn assert_relations_byte_identical(catalog: &Catalog, tag: &str) {
    let read = catalog.open_segment("c_").unwrap();
    let mapped = catalog.map_segment("c_").unwrap();
    assert_eq!(mapped.bad_pages(), 0, "{tag}: clean segment has bad pages");
    assert!(!read.directory().entries().is_empty(), "{tag}: segment has no relations");
    for entry in mapped.directory().entries() {
        let mut rows = Vec::new();
        mapped.for_each_row(entry, |row| rows.extend_from_slice(row)).unwrap();
        assert_eq!(rows, read.rows_of(&entry.name).unwrap(), "{tag}/{}: diverged", entry.name);
    }
    let relations = catalog.list().unwrap();
    assert!(!relations.is_empty(), "{tag}: catalog has no relations");
    for name in relations {
        let heap = catalog.open_relation(&name).unwrap();
        let mapped = MmapRelation::open(catalog, &name).unwrap();
        assert_eq!(heap.num_rows(), mapped.num_rows(), "{tag}/{name}: row counts diverge");
        assert_eq!(mapped.bad_pages(), 0, "{tag}/{name}: clean relation has bad pages");
        let cache = SharedBufferCache::new(8, 2);
        let mut buf = vec![0u8; heap.schema().row_width()];
        for rowid in 0..heap.num_rows() {
            heap.fetch_shared(rowid, &cache, &mut buf).unwrap();
            let row = mapped.row(rowid).unwrap();
            assert_eq!(
                &buf[..],
                &row[..],
                "{tag}/{name}: row {rowid} bytes diverge between cache and mmap"
            );
        }
        // Odd strides visit the pages out of order and revisit them.
        let n = heap.num_rows();
        let rowids: Vec<u64> = (0..n).map(|i| (i * 7919 + 13) % n).collect();
        let w = heap.schema().row_width();
        let mut gathered = vec![0u8; rowids.len() * w];
        heap.gather_shared(&rowids, &cache, &mut gathered, |_| Ok::<(), StorageError>(())).unwrap();
        for (i, &rowid) in rowids.iter().enumerate() {
            assert_eq!(
                &gathered[i * w..(i + 1) * w],
                &mapped.row(rowid).unwrap()[..],
                "{tag}/{name}: row {rowid} bytes diverge between gather and mmap"
            );
        }
    }
}

/// Quarantines one page of one relation.
struct QuarantineOne {
    relation: String,
    page: u64,
}

impl PageQuarantine for QuarantineOne {
    fn is_quarantined(&self, relation: &str, page: u64) -> bool {
        relation == self.relation && page == self.page
    }
}

/// What a guarded query returned: its rows, or the corrupt page that
/// stopped it (any other error fails the test).
fn outcome(
    res: cure_core::Result<(Vec<CubeRow>, Attribution)>,
    tag: &str,
) -> Result<Vec<CubeRow>, (String, u64)> {
    match res {
        Ok((rows, _)) => Ok(rows),
        Err(CubeError::Storage(StorageError::CorruptPage { relation, page, .. })) => {
            Err((relation, page))
        }
        Err(e) => panic!("{tag}: unexpected error {e}"),
    }
}

/// Query-level differential: every node answered on both read paths,
/// the same rows in the same order, and the same typed failure when the
/// guard's quarantine holds a fact page.
fn assert_queries_identical(catalog: Arc<Catalog>, schema: Arc<CubeSchema>, tag: &str) {
    let cache = ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), "c_").unwrap();
    let mmap = ConcurrentCube::open_with_read_path(
        catalog,
        schema,
        "c_",
        CacheConfig::default(),
        ReadPath::Mmap,
    )
    .unwrap();
    let quarantine = QuarantineOne { relation: cache.fact_relation(), page: 0 };
    let guard = QueryGuard { deadline: None, quarantine: Some(&quarantine) };
    let mut rejected = 0;
    for node in cache.coder().all_ids() {
        let a = cache.node_query(node).unwrap();
        assert_eq!(
            a,
            mmap.node_query(node).unwrap(),
            "{tag}: node {node} diverged between read paths"
        );
        let a = outcome(cache.node_query_attributed(node, &guard), tag);
        let b = outcome(mmap.node_query_attributed(node, &guard), tag);
        assert_eq!(a, b, "{tag}: node {node} diverged under a quarantined fact page");
        rejected += usize::from(a.is_err());
    }
    assert!(rejected > 0, "{tag}: no node read the quarantined fact page");
}

#[test]
fn cure_plain_mmap_matches_cache_byte_for_byte() {
    let (catalog, schema) = build_variant(false, false, "plain");
    assert_relations_byte_identical(&catalog, "plain");
    assert_queries_identical(catalog, schema, "plain");
}

#[test]
fn cure_plus_mmap_matches_cache_byte_for_byte() {
    let (catalog, schema) = build_variant(false, true, "plus");
    assert_relations_byte_identical(&catalog, "plus");
    assert_queries_identical(catalog, schema, "plus");
}

#[test]
fn cure_dr_mmap_matches_cache_byte_for_byte() {
    let (catalog, schema) = build_variant(true, false, "dr");
    assert_relations_byte_identical(&catalog, "dr");
    assert_queries_identical(catalog, schema, "dr");
}

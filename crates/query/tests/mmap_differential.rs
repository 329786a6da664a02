//! Differential test for the zero-copy read path: for every relation of
//! a built cube — in all three storage schemes (CURE, CURE+, CURE DR) —
//! mmap reads, per-row `fetch_shared` cache reads and the page-ordered
//! `gather_shared` batch must return byte-identical rows, and the mmap
//! query path must answer every node exactly like the cache query path.
//! The two paths share nothing below the file: one goes through `pread`
//! into a lock-guarded user-space cache, the other through a
//! `MAP_SHARED` mapping, so byte equality here pins the mmap
//! implementation to the storage engine's on-disk format.

use std::sync::Arc;

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::meta::CubeMeta;
use cure_core::sink::{DiskSink, RowResolver};
use cure_core::{CubeSchema, Dimension, Tuples};
use cure_query::{CacheConfig, ConcurrentCube, ReadPath};
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
    let dir = std::env::temp_dir().join(format!("cure_mmapdiff_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
/// vs one `gather_shared` of all rows in a scrambled order.
fn assert_relations_byte_identical(catalog: &Catalog, tag: &str) {
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

/// Query-level differential: every node answered on both read paths.
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
    for node in cache.coder().all_ids() {
        let mut a = cache.node_query(node).unwrap();
        let mut b = mmap.node_query(node).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b, "{tag}: node {node} diverged between read paths");
    }
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

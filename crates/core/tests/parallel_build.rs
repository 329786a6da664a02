//! Sequential-vs-parallel byte-identity for the on-disk build.
//!
//! The parallel driver's contract is not "same cube up to reordering"
//! but **the same bytes**: for any thread count the NT/TT/CAT relations
//! and the shared `AGGREGATES` heap must be byte-for-byte what the
//! sequential build writes, for both the row-id (CURE) and
//! data-resolved (CURE_DR) formats. That makes the sequential build a
//! complete oracle — any scheduling bug that reorders a flush, a CAT
//! group, or an `AGGREGATES` row-id shows up as a file diff.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cure_core::sink::RowResolver;
use cure_core::{build_cure_cube, CubeConfig, CubeSchema, Dimension, DiskSink, Tuples};
use cure_storage::{Catalog, Schema};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cure_parbuild_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_schema() -> CubeSchema {
    // A: 40 -> 8 -> 2 (linear), B: 12 -> 3, C: flat 6.
    let a = Dimension::linear(
        "A",
        40,
        &[(0..40).map(|v| v / 5).collect(), (0..8).map(|v| v / 4).collect()],
    )
    .unwrap();
    let b = Dimension::linear("B", 12, &[(0..12).map(|v| v / 4).collect()]).unwrap();
    let c = Dimension::flat("C", 6);
    CubeSchema::new(vec![a, b, c], 2).unwrap()
}

fn store_fact(catalog: &Catalog, schema: &CubeSchema, n: usize, seed: u64) {
    let d = schema.num_dims();
    let y = schema.num_measures();
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
            *a = (x % 50) as i64;
        }
        t.push_fact(&dims, &aggs, i as u64);
    }
    let mut heap = catalog.create_relation("facts", Tuples::fact_schema(d, y)).unwrap();
    t.store_fact(&mut heap).unwrap();
    heap.sync().unwrap();
}

fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with("manifest.json") || name.ends_with(".tmp") {
            continue;
        }
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

/// CURE_DR materializes grouping values by re-reading the fact rows.
fn dr_resolver(catalog: &Catalog, schema: &CubeSchema) -> RowResolver<'static> {
    let fact = catalog.open_relation("facts").unwrap();
    let fs = fact.schema().clone();
    let d = schema.num_dims();
    let mut buf = vec![0u8; fs.row_width()];
    Box::new(move |rowid, vals: &mut [u32]| {
        fact.fetch_into(rowid, &mut buf)?;
        for (i, o) in vals.iter_mut().enumerate().take(d) {
            *o = Schema::read_u32_at(&buf, fs.offset(i));
        }
        Ok(())
    })
}

fn build(dir: &Path, dr: bool, threads: usize) -> BTreeMap<String, Vec<u8>> {
    let schema = test_schema();
    let catalog = Catalog::open(dir).unwrap();
    store_fact(&catalog, &schema, 1_200, 7);
    // Small budget so the build partitions (the parallel path is the
    // partition passes; in-memory builds short-circuit it).
    let cfg = CubeConfig { memory_budget_bytes: 8 << 10, ..CubeConfig::default() };
    let resolver = dr.then(|| dr_resolver(&catalog, &schema));
    let mut sink = DiskSink::new(&catalog, "cube_", &schema, dr, false, resolver).unwrap();
    let report =
        build_cure_cube(&catalog, "facts", &schema, &cfg, &mut sink, "tmp_", threads).unwrap();
    assert!(report.partition.is_some(), "budget must force partitioning");
    drop(sink);
    drop(catalog);
    snapshot(dir)
}

#[test]
fn parallel_cure_build_is_byte_identical_to_sequential() {
    let reference = build(&fresh_dir("cure_seq"), false, 1);
    for threads in [1usize, 2, 4, 8] {
        let got = build(&fresh_dir(&format!("cure_t{threads}")), false, threads);
        assert_eq!(got, reference, "CURE, {threads} threads");
    }
}

#[test]
fn parallel_cure_dr_build_is_byte_identical_to_sequential() {
    let reference = build(&fresh_dir("dr_seq"), true, 1);
    for threads in [1usize, 2, 4, 8] {
        let got = build(&fresh_dir(&format!("dr_t{threads}")), true, threads);
        assert_eq!(got, reference, "CURE_DR, {threads} threads");
    }
}

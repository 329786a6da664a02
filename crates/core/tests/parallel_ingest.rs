//! Sequential-vs-parallel byte-identity for the ingest merge.
//!
//! The update walk runs plan subtrees on workers and replays their logged
//! TT writes and pool pushes in DFS order on the calling thread, so every
//! thread count must store **the same bytes** as the one-thread walk:
//! the merged cube's segment, its `AGGREGATES` heap and its meta blob.
//! The old cubes cover both storage variants (CURE, CURE+), both plan
//! shapes (in-memory, partitioned) and a three-signature pool whose
//! flushes fall in the middle of replayed logs.

use std::collections::BTreeMap;
use std::path::Path;

use cure_core::delta::{ingest_cube_into, IngestOptions};
use cure_core::sink::nt_rel_name;
use cure_core::update::update_cube;
use cure_core::{
    build_cure_cube, CubeConfig, CubeError, CubeMeta, CubeSchema, Dimension, DiskSink, MemSink,
    NodeId, PlanSpec, Tuples,
};
use cure_storage::{Catalog, StorageError};

const THREADS: [usize; 4] = [1, 2, 4, 8];

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

fn make_tuples(schema: &CubeSchema, n: usize, seed: u64, rowid_base: u64) -> Tuples {
    let d = schema.num_dims();
    let y = schema.num_measures();
    let mut t = Tuples::new(d, y);
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..n {
        let dims: Vec<u32> = (0..d)
            .map(|dd| (step() % schema.dims()[dd].leaf_cardinality() as u64) as u32)
            .collect();
        let aggs: Vec<i64> = (0..y).map(|_| (step() % 20) as i64).collect();
        t.push(&dims, &aggs, 1, rowid_base + i as u64);
    }
    t
}

/// How the old cube is stored.
#[derive(Debug, Clone, Copy)]
struct OldCube {
    plus: bool,
    partitioned: bool,
}

const BASE_ROWS: usize = 1_500;

/// Store the base facts and build the old cube under `cube_`, meta
/// included.
fn build_old(catalog: &Catalog, schema: &CubeSchema, old: OldCube) {
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let base = make_tuples(schema, BASE_ROWS, 0xBA5E, 0);
    let mut heap = catalog.create_relation("facts", Tuples::fact_schema(d, y)).unwrap();
    base.store_fact(&mut heap).unwrap();
    heap.sync().unwrap();
    drop(heap);
    // A budget of a fifth of the facts forces the partitioned plan.
    let budget = if old.partitioned { 12 << 10 } else { 256 << 20 };
    let cfg = CubeConfig { memory_budget_bytes: budget, ..CubeConfig::default() };
    let mut sink = DiskSink::new(catalog, "cube_", schema, false, old.plus, None).unwrap();
    let report = build_cure_cube(catalog, "facts", schema, &cfg, &mut sink, "tmp_", 1).unwrap();
    assert_eq!(report.partition.is_some(), old.partitioned, "{old:?}");
    drop(sink);
    CubeMeta {
        prefix: "cube_".into(),
        fact_rel: "facts".into(),
        n_dims: d,
        n_measures: y,
        dr: false,
        plus: old.plus,
        cat_format: report.stats.cat_format,
        partition_level: report.partition.map(|p| p.choice.level),
        min_support: 1,
    }
    .write(catalog)
    .unwrap();
}

/// Every file of the catalog at `dir`, by name.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

/// Build the old cube, ingest one delta at `threads` merge threads under
/// `cubeB_`, and return every file plus the report's counters.
fn ingest(old: OldCube, cfg: &CubeConfig, threads: usize) -> (BTreeMap<String, Vec<u8>>, String) {
    let schema = test_schema();
    let dir = cure_storage::scratch::scratch_dir(&format!(
        "parallel_ingest_{}_{}_{}_{threads}",
        old.plus, old.partitioned, cfg.pool_capacity
    ));
    let catalog = Catalog::open(&dir).unwrap();
    build_old(&catalog, &schema, old);
    let delta = make_tuples(&schema, 150, 0xDE17A, 0);
    let report = ingest_cube_into(
        &catalog,
        &schema,
        "cube_",
        "cubeB_",
        &delta,
        cfg,
        &IngestOptions { drop_old: false },
        threads,
    )
    .unwrap();
    assert!(report.update.merged_groups > 0 && report.update.new_groups > 0, "{report:?}");
    drop(catalog);
    let files = snapshot(&dir);
    for name in ["cubeB_nodes.seg", "cubeB_aggregates.heap"] {
        assert!(files.contains_key(name), "{old:?}: no {name} in {:?}", files.keys());
    }
    assert!(files.keys().any(|n| n.starts_with("cubeB_meta")), "{:?}", files.keys());
    (files, format!("{:?}", report.update))
}

fn assert_identical_at_every_thread_count(old: OldCube, cfg: &CubeConfig) {
    let (reference, counters) = ingest(old, cfg, 1);
    for threads in &THREADS[1..] {
        let (got, got_counters) = ingest(old, cfg, *threads);
        assert_eq!(got.keys().collect::<Vec<_>>(), reference.keys().collect::<Vec<_>>());
        for (name, bytes) in &reference {
            assert!(got[name] == *bytes, "{old:?}, {threads} threads: {name} differs");
        }
        assert_eq!(got_counters, counters, "{old:?}, {threads} threads");
    }
}

#[test]
fn plain_cube_merges_identically_at_every_thread_count() {
    for partitioned in [false, true] {
        let old = OldCube { plus: false, partitioned };
        assert_identical_at_every_thread_count(old, &CubeConfig::default());
    }
}

#[test]
fn cure_plus_cube_merges_identically_at_every_thread_count() {
    for partitioned in [false, true] {
        let old = OldCube { plus: true, partitioned };
        assert_identical_at_every_thread_count(old, &CubeConfig::default());
    }
}

#[test]
fn tiny_pool_flushes_mid_replay_identically() {
    // Three signatures a flush: the merger's pool flushes inside almost
    // every replayed log, between a unit's pushes.
    let cfg = CubeConfig { pool_capacity: 3, ..CubeConfig::default() };
    for plus in [false, true] {
        for partitioned in [false, true] {
            assert_identical_at_every_thread_count(OldCube { plus, partitioned }, &cfg);
        }
    }
}

/// A node at the bottom of the plan, which a worker always walks (a unit's
/// root is split only when it has children), that stores NT rows.
fn leaf_node_with_nts(catalog: &Catalog, schema: &CubeSchema) -> NodeId {
    let tree = PlanSpec::new(schema).build_tree();
    let parents: std::collections::HashSet<NodeId> =
        tree.parent.values().flatten().copied().collect();
    let seg = catalog.open_segment("cube_").unwrap();
    tree.order
        .iter()
        .copied()
        .filter(|n| !parents.contains(n))
        .find(|&n| seg.directory().get(&nt_rel_name("cube_", n)).is_some_and(|e| e.rows() > 0))
        .unwrap()
}

/// Rewrite the old cube's segment with the first row-id of relation
/// `name` set to `rowid`.
fn set_first_rowid(catalog: &Catalog, name: &str, rowid: u64) {
    let seg = catalog.open_segment("cube_").unwrap();
    let rels: Vec<_> = seg
        .directory()
        .entries()
        .iter()
        .map(|e| (e.name.clone(), e.schema.clone(), seg.rows_of(&e.name).unwrap()))
        .collect();
    drop(seg);
    let mut out = catalog.create_segment("cube_").unwrap();
    for (rel, rel_schema, mut rows) in rels {
        if rel == name {
            rows[..8].copy_from_slice(&rowid.to_le_bytes());
        }
        out.append(&rel, &rel_schema, &rows).unwrap();
    }
    out.seal().unwrap();
}

#[test]
fn out_of_range_rowid_in_a_worker_unit_is_a_typed_error() {
    let schema = test_schema();
    let catalog =
        Catalog::open(cure_storage::scratch::scratch_dir("parallel_ingest_badrowid")).unwrap();
    build_old(&catalog, &schema, OldCube { plus: false, partitioned: false });
    let delta = make_tuples(&schema, 150, 0xDE17A, BASE_ROWS as u64);
    let mut heap = catalog.open_relation("facts").unwrap();
    delta.store_fact(&mut heap).unwrap();
    drop(heap);
    let rows = (BASE_ROWS + delta.len()) as u64;
    let node = leaf_node_with_nts(&catalog, &schema);
    set_first_rowid(&catalog, &nt_rel_name("cube_", node), rows + 7);
    for threads in THREADS {
        let mut sink = MemSink::new(schema.num_measures());
        let err = update_cube(
            &catalog,
            &schema,
            "cube_",
            &delta,
            &CubeConfig::default(),
            &mut sink,
            threads,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                CubeError::Storage(StorageError::RowOutOfBounds { rowid, num_rows })
                    if rowid == rows + 7 && num_rows == rows
            ),
            "{threads} threads: {err}"
        );
    }
}

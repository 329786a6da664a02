//! Dedicated integration coverage for incremental updates
//! (`cure_core::update`): the updated cube must be *indistinguishable*
//! from a cube rebuilt from scratch over base ∪ delta — node contents,
//! DAG hierarchies included — and the documented preconditions must be
//! enforced as errors, not silent wrong answers.

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::meta::CubeMeta;
use cure_core::sink::{nt_rel_name, tt_rel_name, DiskSink};
use cure_core::update::update_cube;
use cure_core::{
    reference, CatFormat, CatFormatPolicy, CubeError, CubeSchema, CubeSink, Dimension, Level,
    MemCubeReader, MemSink, NodeCoder, NodeId, SinkStats, Tuples,
};
use cure_storage::{Catalog, HeapFile, StorageError};

fn fresh_catalog(tag: &str) -> Catalog {
    Catalog::open(cure_storage::scratch::scratch_dir(&format!("upd_it_{tag}"))).unwrap()
}

/// Linear 3-dim schema, two measures.
fn linear_schema() -> CubeSchema {
    let a = Dimension::linear("A", 16, &[(0..16).map(|v| v / 4).collect()]).unwrap();
    let b = Dimension::linear("B", 10, &[(0..10).map(|v| v / 5).collect()]).unwrap();
    let c = Dimension::flat("C", 4);
    CubeSchema::new(vec![a, b, c], 2).unwrap()
}

/// Linear dim plus a DAG time dimension (day → week/month → year).
fn dag_schema() -> CubeSchema {
    let a = Dimension::linear("A", 10, &[(0..10).map(|v| v / 5).collect()]).unwrap();
    let days = 12u32;
    let time = Dimension::from_levels(
        "T",
        vec![
            Level { name: "day".into(), cardinality: days, parents: vec![1, 2], leaf_map: vec![] },
            Level {
                name: "week".into(),
                cardinality: days / 2,
                parents: vec![3],
                leaf_map: (0..days).map(|d| d / 2).collect(),
            },
            Level {
                name: "month".into(),
                cardinality: days / 6,
                parents: vec![3],
                leaf_map: (0..days).map(|d| d / 6).collect(),
            },
            Level {
                name: "year".into(),
                cardinality: 1,
                parents: vec![],
                leaf_map: (0..days).map(|d| d / 12).collect(),
            },
        ],
    )
    .unwrap();
    CubeSchema::new(vec![a, time], 1).unwrap()
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
        let aggs: Vec<i64> = (0..y).map(|_| (step() % 30) as i64 - 10).collect();
        t.push(&dims, &aggs, 1, rowid_base + i as u64);
    }
    t
}

fn combine(schema: &CubeSchema, parts: &[&Tuples]) -> Tuples {
    let mut all = Tuples::new(schema.num_dims(), schema.num_measures());
    for src in parts {
        for i in 0..src.len() {
            all.push(src.dims_of(i), src.aggs_of(i), 1, src.rowid(i));
        }
    }
    all
}

/// Per-node sorted rows, keyed by node id.
type NodeRows = Vec<(u64, Vec<(Vec<u32>, Vec<i64>)>)>;

/// All node contents of a MemSink cube, sorted, keyed by node id.
fn node_rows(schema: &CubeSchema, sink: &MemSink, fact: &Tuples) -> NodeRows {
    let reader = MemCubeReader::new(schema, sink, fact, None).unwrap();
    let coder = NodeCoder::new(schema);
    coder
        .all_ids()
        .map(|id| {
            let mut rows = reader.node_contents(id).unwrap();
            rows.sort();
            (id, rows)
        })
        .collect()
}

/// Store `base` as relation `facts` and build a cube of it on disk under
/// `prefix` with `cfg`, meta included. Returns the open fact heap (for
/// appending a delta) and the build's sink statistics.
fn build_on_disk(
    catalog: &Catalog,
    schema: &CubeSchema,
    base: &Tuples,
    prefix: &str,
    plus: bool,
    cfg: &CubeConfig,
) -> (HeapFile, SinkStats) {
    let y = schema.num_measures();
    let mut heap =
        catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), y)).unwrap();
    base.store_fact(&mut heap).unwrap();
    let mut sink = DiskSink::new(catalog, prefix, schema, false, plus, None).unwrap();
    let report = CubeBuilder::new(schema, cfg.clone()).build_in_memory(base, &mut sink).unwrap();
    CubeMeta {
        prefix: prefix.into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: y,
        dr: false,
        plus,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(catalog)
    .unwrap();
    (heap, report.stats)
}

/// Build base on disk (CURE+ when `plus`) under `cfg`, append delta,
/// update — and also rebuild from scratch over base ∪ delta. The two
/// cubes must agree node by node, and both must agree with the oracle.
/// Returns the old cube's sink statistics.
fn check_update_equals_rebuild(
    schema: &CubeSchema,
    n_base: usize,
    n_delta: usize,
    plus: bool,
    cfg: &CubeConfig,
    tag: &str,
) -> SinkStats {
    let y = schema.num_measures();
    let catalog = fresh_catalog(tag);
    let base = make_tuples(schema, n_base, 0x5EED ^ tag.len() as u64, 0);
    let delta = make_tuples(schema, n_delta, 0xDE17A, n_base as u64);
    let (mut heap, old) = build_on_disk(&catalog, schema, &base, "old_", plus, cfg);
    if plus && old.cat_format == Some(CatFormat::CommonSource) && old.cat_tuples > 0 {
        // CURE+ stores format-(a) CAT rows as bitmaps: that is the branch
        // the update reads back.
        assert!(catalog.list_blobs().unwrap().iter().any(|b| b.ends_with("_catbm")), "{tag}");
    }
    delta.store_fact(&mut heap).unwrap();
    drop(heap);

    // Path 1: incremental update.
    let mut updated = MemSink::new(y);
    let up = update_cube(&catalog, schema, "old_", &delta, cfg, &mut updated, 1).unwrap();
    if let CatFormatPolicy::Force(format) = cfg.cat_policy {
        assert_eq!(updated.cat_format(), Some(format), "{tag}");
    }
    // Path 2: fresh rebuild over everything.
    let all = combine(schema, &[&base, &delta]);
    let mut rebuilt = MemSink::new(y);
    CubeBuilder::new(schema, cfg.clone()).build_in_memory(&all, &mut rebuilt).unwrap();

    let got = node_rows(schema, &updated, &all);
    let want = node_rows(schema, &rebuilt, &all);
    let coder = NodeCoder::new(schema);
    assert_eq!(up.nodes, coder.num_nodes(), "{tag}: update must visit the full lattice");
    for ((id_g, rows_g), (id_w, rows_w)) in got.iter().zip(want.iter()) {
        assert_eq!(id_g, id_w);
        assert_eq!(
            rows_g,
            rows_w,
            "{tag}: updated cube differs from fresh rebuild at node {} ({})",
            id_g,
            coder.name(schema, *id_g)
        );
        // Both must equal the oracle, too.
        let levels = coder.decode(*id_g).unwrap();
        let oracle: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(schema, &all, &levels)
            .into_iter()
            .map(|r| (r.dims, r.aggs))
            .collect();
        assert_eq!(rows_g, &oracle, "{tag}: node {id_g} differs from oracle");
    }
    old
}

#[test]
fn insert_then_update_equals_rebuild_linear() {
    check_update_equals_rebuild(
        &linear_schema(),
        600,
        120,
        false,
        &CubeConfig::default(),
        "linear",
    );
}

#[test]
fn insert_then_update_equals_rebuild_dag() {
    check_update_equals_rebuild(&dag_schema(), 300, 80, false, &CubeConfig::default(), "dag");
}

#[test]
fn update_equals_rebuild_under_each_forced_cat_format() {
    // Every CAT read-back branch — format (a) through AGGREGATES, as a
    // relation and as a CURE+ bitmap; format (b) from the node's CAT
    // rows — and the CAT-free AsNt cube, on disk-built old cubes.
    for format in [CatFormat::CommonSource, CatFormat::Coincidental, CatFormat::AsNt] {
        for plus in [false, true] {
            let cfg =
                CubeConfig { cat_policy: CatFormatPolicy::Force(format), ..CubeConfig::default() };
            let tag = format!("forced-{format:?}-{plus}");
            let old = check_update_equals_rebuild(&linear_schema(), 600, 120, plus, &cfg, &tag);
            assert_eq!(old.cat_format, Some(format), "{tag}");
            assert_eq!(old.cat_tuples > 0, format != CatFormat::AsNt, "{tag}: {old:?}");
        }
    }
}

/// Rewrite the segment of the cube under `prefix` with the leading
/// row-id column of relation `name`'s first row set to `rowid`.
fn set_first_rowid(catalog: &Catalog, prefix: &str, name: &str, rowid: u64) {
    let seg = catalog.open_segment(prefix).unwrap();
    let rels: Vec<_> = seg
        .directory()
        .entries()
        .iter()
        .map(|e| (e.name.clone(), e.schema.clone(), seg.rows_of(&e.name).unwrap()))
        .collect();
    drop(seg);
    let mut out = catalog.create_segment(prefix).unwrap();
    for (rel, rel_schema, mut rows) in rels {
        if rel == name {
            rows[..8].copy_from_slice(&rowid.to_le_bytes());
        }
        out.append(&rel, &rel_schema, &rows).unwrap();
    }
    out.seal().unwrap();
}

/// The first of the lattice's node relations named by `rel_name` that
/// the segment of the cube under `prefix` holds rows for.
fn first_nonempty(
    catalog: &Catalog,
    prefix: &str,
    schema: &CubeSchema,
    rel_name: impl Fn(NodeId) -> String,
) -> String {
    let seg = catalog.open_segment(prefix).unwrap();
    NodeCoder::new(schema)
        .all_ids()
        .map(rel_name)
        .find(|n| seg.directory().get(n).is_some_and(|e| e.rows() > 0))
        .unwrap()
}

#[test]
fn out_of_range_rowids_are_typed_errors() {
    // An old cube whose NT row-id, or separately whose TT row-id, points
    // at or past the fact row count: the update returns RowOutOfBounds
    // instead of panicking.
    let schema = linear_schema();
    let cfg = CubeConfig::default();
    let base = make_tuples(&schema, 400, 101, 0);
    let delta = make_tuples(&schema, 40, 103, 400);
    let rows = 440u64;
    for (kind, rel_name) in [("nt", nt_rel_name as fn(&str, NodeId) -> String), ("tt", tt_rel_name)]
    {
        for bad in [rows, rows + 1_000] {
            let tag = format!("badrowid-{kind}-{bad}");
            let catalog = fresh_catalog(&tag);
            let (mut heap, _) = build_on_disk(&catalog, &schema, &base, "old_", false, &cfg);
            delta.store_fact(&mut heap).unwrap();
            drop(heap);
            let name = first_nonempty(&catalog, "old_", &schema, |n| rel_name("old_", n));
            set_first_rowid(&catalog, "old_", &name, bad);
            let mut sink = MemSink::new(2);
            let err =
                update_cube(&catalog, &schema, "old_", &delta, &cfg, &mut sink, 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    CubeError::Storage(StorageError::RowOutOfBounds { rowid, num_rows })
                        if rowid == bad && num_rows == rows
                ),
                "{tag}: {err}"
            );
        }
    }
}

#[test]
fn failed_merge_leaves_the_active_prefix_unmoved() {
    use cure_core::delta::{abort_ingest, active_prefix, ingest_cube, IngestOptions};
    let schema = linear_schema();
    let cfg = CubeConfig::default();
    let catalog = fresh_catalog("badingest");
    let base = make_tuples(&schema, 300, 107, 0);
    drop(build_on_disk(&catalog, &schema, &base, "cube_", false, &cfg));
    let name = first_nonempty(&catalog, "cube_", &schema, |n| nt_rel_name("cube_", n));
    set_first_rowid(&catalog, "cube_", &name, 1 << 40);
    let delta = make_tuples(&schema, 20, 109, 0);
    let err = ingest_cube(&catalog, &schema, &delta, &cfg, &IngestOptions::default()).unwrap_err();
    assert!(matches!(err, CubeError::Storage(StorageError::RowOutOfBounds { .. })), "{err}");
    assert_eq!(active_prefix(&catalog), "cube_");
    // The journal still records the half-done ingest; aborting it
    // truncates the appended delta away.
    abort_ingest(&catalog).unwrap().unwrap();
    assert_eq!(catalog.open_relation("facts").unwrap().num_rows(), 300);
    assert_eq!(active_prefix(&catalog), "cube_");
}

#[test]
fn update_with_duplicate_heavy_delta_equals_rebuild() {
    // Deltas that mostly duplicate existing leaf groups stress TT
    // demotion and CAT re-detection across old/new data.
    let schema = linear_schema();
    let catalog = fresh_catalog("dups");
    let base = make_tuples(&schema, 400, 9, 0);
    let mut delta = Tuples::new(schema.num_dims(), 2);
    for i in 0..100usize {
        let j = (i * 3) % base.len();
        delta.push(base.dims_of(j), base.aggs_of(j), 1, 400 + i as u64);
    }
    let (mut heap, _) =
        build_on_disk(&catalog, &schema, &base, "old_", false, &CubeConfig::default());
    delta.store_fact(&mut heap).unwrap();
    drop(heap);

    let mut updated = MemSink::new(2);
    let up =
        update_cube(&catalog, &schema, "old_", &delta, &CubeConfig::default(), &mut updated, 1)
            .unwrap();
    assert!(up.tt_demotions > 0, "duplicate-heavy delta must demote TTs: {up:?}");
    assert!(up.merged_groups > 0, "duplicate-heavy delta must merge groups: {up:?}");

    let all = combine(&schema, &[&base, &delta]);
    let mut rebuilt = MemSink::new(2);
    CubeBuilder::new(&schema, CubeConfig::default()).build_in_memory(&all, &mut rebuilt).unwrap();
    assert_eq!(node_rows(&schema, &updated, &all), node_rows(&schema, &rebuilt, &all));
}

#[test]
fn empty_delta_carries_every_group() {
    let schema = linear_schema();
    let catalog = fresh_catalog("emptyd");
    let base = make_tuples(&schema, 300, 17, 0);
    drop(build_on_disk(&catalog, &schema, &base, "old_", false, &CubeConfig::default()));

    let delta = Tuples::new(schema.num_dims(), 2);
    let mut updated = MemSink::new(2);
    let up =
        update_cube(&catalog, &schema, "old_", &delta, &CubeConfig::default(), &mut updated, 1)
            .unwrap();
    assert_eq!(up.tt_demotions, 0, "empty delta cannot demote: {up:?}");
    assert_eq!(up.merged_groups, 0, "empty delta cannot merge: {up:?}");
    assert_eq!(up.new_groups, 0, "empty delta cannot add groups: {up:?}");
    assert!(up.carried_groups > 0, "non-empty cube must carry groups: {up:?}");
    assert_eq!(node_rows(&schema, &updated, &base).len(), {
        let coder = NodeCoder::new(&schema);
        coder.num_nodes() as usize
    });
}

mod ingest_props {
    //! Property coverage for the ingest pipeline: splitting a fact table
    //! into base + k random delta batches (k ∈ 1..=4, applied
    //! sequentially through the durable `ingest_cube` pipeline) always
    //! equals the fresh build over the whole table — for linear *and* DAG
    //! hierarchies — and iceberg cubes are rejected without side effects.

    use std::sync::atomic::{AtomicU64, Ordering};

    use cure_core::delta::{active_prefix, ingest_cube, IngestManifest, IngestOptions};
    use proptest::prelude::*;

    use super::*;

    static CASE: AtomicU64 = AtomicU64::new(0);

    fn case_catalog() -> Catalog {
        let n = CASE.fetch_add(1, Ordering::Relaxed);
        fresh_catalog(&format!("prop{n}"))
    }

    /// Build `base` fresh on disk under `cube_` with facts + meta.
    fn seed_cube(catalog: &Catalog, schema: &CubeSchema, base: &Tuples) {
        drop(build_on_disk(catalog, schema, base, "cube_", false, &CubeConfig::default()));
    }

    /// Read the active disk cube back into a MemSink via an empty-delta
    /// update (proven exact by the tests above) for node comparison.
    fn read_back(catalog: &Catalog, schema: &CubeSchema) -> MemSink {
        let empty = Tuples::new(schema.num_dims(), schema.num_measures());
        let mut sink = MemSink::new(schema.num_measures());
        update_cube(
            catalog,
            schema,
            &active_prefix(catalog),
            &empty,
            &CubeConfig::default(),
            &mut sink,
            1,
        )
        .unwrap();
        sink
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn base_plus_k_deltas_equals_fresh_build(
            dag in any::<bool>(),
            n_total in 40usize..140,
            cuts in proptest::collection::vec(0.05f64..0.95, 1..5),
            seed in 1u64..1 << 48,
        ) {
            let schema = if dag { dag_schema() } else { linear_schema() };
            let all = make_tuples(&schema, n_total, seed, 0);
            // Random sorted split points → base + k delta batches.
            let mut idx: Vec<usize> = cuts.iter().map(|f| (f * n_total as f64) as usize).collect();
            idx.sort_unstable();
            let mut bounds = vec![0usize];
            bounds.extend(idx);
            bounds.push(n_total);

            let slice = |lo: usize, hi: usize| {
                let mut t = Tuples::new(schema.num_dims(), schema.num_measures());
                for i in lo..hi {
                    t.push(all.dims_of(i), all.aggs_of(i), 1, (i - lo) as u64);
                }
                t
            };

            let catalog = case_catalog();
            seed_cube(&catalog, &schema, &slice(bounds[0], bounds[1]));
            for w in bounds[1..].windows(2) {
                let delta = slice(w[0], w[1]);
                ingest_cube(
                    &catalog,
                    &schema,
                    &delta,
                    &CubeConfig::default(),
                    &IngestOptions::default(),
                )
                .unwrap();
            }

            // Every batch went through the durable pipeline; the final
            // cube must equal a fresh build over the whole fact table.
            let updated = read_back(&catalog, &schema);
            let mut rebuilt = MemSink::new(schema.num_measures());
            CubeBuilder::new(&schema, CubeConfig::default())
                .build_in_memory(&all, &mut rebuilt)
                .unwrap();
            prop_assert_eq!(
                node_rows(&schema, &updated, &all),
                node_rows(&schema, &rebuilt, &all),
                "base + {} deltas differs from fresh build (dag={}, n={}, seed={})",
                bounds.len() - 2, dag, n_total, seed
            );
        }

        #[test]
        fn iceberg_cubes_reject_ingest_without_side_effects(
            min_sup in 2u64..6,
            n in 20usize..60,
            seed in 1u64..1 << 48,
        ) {
            let schema = linear_schema();
            let catalog = case_catalog();
            seed_cube(&catalog, &schema, &make_tuples(&schema, n, seed, 0));
            let mut meta = CubeMeta::read(&catalog, "cube_").unwrap();
            meta.min_support = min_sup;
            meta.write(&catalog).unwrap();

            let delta = make_tuples(&schema, 10, seed ^ 0xD, 0);
            let err = ingest_cube(
                &catalog,
                &schema,
                &delta,
                &CubeConfig::default(),
                &IngestOptions::default(),
            );
            prop_assert!(err.is_err(), "iceberg cube must reject ingest");
            // Rejection happens before the append: fact rows untouched,
            // no journal left behind, old cube still active.
            prop_assert_eq!(catalog.open_relation("facts").unwrap().num_rows(), n as u64);
            prop_assert!(!IngestManifest::exists(&catalog));
            prop_assert_eq!(active_prefix(&catalog), "cube_");
        }
    }
}

#[test]
fn iceberg_cubes_are_rejected() {
    // An iceberg cube has pruned groups; merging a delta into it could
    // resurrect them with wrong (partial) aggregates, so update_cube must
    // refuse up front.
    let schema = linear_schema();
    let catalog = fresh_catalog("icereject");
    let base = make_tuples(&schema, 100, 7, 0);
    let mut heap =
        catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
    base.store_fact(&mut heap).unwrap();
    drop(heap);
    CubeMeta {
        prefix: "ice_".into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: 2,
        dr: false,
        plus: false,
        cat_format: None,
        partition_level: None,
        min_support: 3,
    }
    .write(&catalog)
    .unwrap();
    let delta = make_tuples(&schema, 10, 8, 100);
    let mut sink = MemSink::new(2);
    let err = update_cube(&catalog, &schema, "ice_", &delta, &CubeConfig::default(), &mut sink, 1);
    assert!(err.is_err(), "iceberg cube must be rejected by update_cube");
}

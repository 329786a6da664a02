//! End-to-end disk tests: generate data → build cubes (every variant and
//! every format) → answer node queries → compare against the naive oracle.
//!
//! These are the tests that pin the whole pipeline together: generator →
//! heap files → CURE construction → NT/TT/CAT relations → query answering.

use cure_baselines::bubst::BubstDiskCube;
use cure_baselines::buc::BucDiskCube;
use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::meta::CubeMeta;
use cure_core::partition::build_cure_cube;
use cure_core::sink::{fact_row_resolver, CatFormatPolicy, DiskSink};
use cure_core::{reference, CubeSchema, Dimension, NodeCoder, Tuples};
use cure_query::rollup::{flat_node_for, rollup};
use cure_query::{BubstCube, BucCube, CureCube};
use cure_storage::scratch::scratch_dir;
use cure_storage::Catalog;

fn fresh_catalog(tag: &str) -> Catalog {
    let dir = scratch_dir(&format!("e2e_{tag}"));
    Catalog::open(&dir).unwrap()
}

fn hier_schema() -> CubeSchema {
    let a = Dimension::linear(
        "A",
        30,
        &[(0..30).map(|v| v / 6).collect(), (0..5).map(|v| v / 3).collect()],
    )
    .unwrap();
    let b = Dimension::linear("B", 10, &[(0..10).map(|v| v / 5).collect()]).unwrap();
    let c = Dimension::flat("C", 6);
    CubeSchema::new(vec![a, b, c], 2).unwrap()
}

fn make_tuples(schema: &CubeSchema, n: usize, seed: u64) -> Tuples {
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
            *a = (x % 30) as i64;
        }
        t.push_fact(&dims, &aggs, i as u64);
    }
    t
}

fn store_fact(catalog: &Catalog, schema: &CubeSchema, t: &Tuples) {
    let mut heap = catalog
        .create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), schema.num_measures()))
        .unwrap();
    t.store_fact(&mut heap).unwrap();
}

/// Build a CURE cube on disk (in-memory construction path) and compare
/// every node query against the oracle.
fn check_disk_cube(dr: bool, plus: bool, policy: CatFormatPolicy, tag: &str) {
    let catalog = fresh_catalog(tag);
    let schema = hier_schema();
    let t = make_tuples(&schema, 1_500, 42);
    store_fact(&catalog, &schema, &t);
    let cfg = CubeConfig { cat_policy: policy, ..CubeConfig::default() };

    let resolver = dr.then(|| fact_row_resolver(&catalog, "facts").unwrap());
    let mut sink = DiskSink::new(&catalog, "c_", &schema, dr, plus, resolver).unwrap();
    let report = CubeBuilder::new(&schema, cfg.clone()).build_in_memory(&t, &mut sink).unwrap();
    CubeMeta {
        prefix: "c_".into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr,
        plus,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();

    let mut cube = CureCube::open(&catalog, &schema, "c_").unwrap();
    let coder = NodeCoder::new(&schema);
    for id in coder.all_ids() {
        let mut got = cube.node_query(id).unwrap();
        got.sort();
        let levels = coder.decode(id).unwrap();
        let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
            .into_iter()
            .map(|r| (r.dims, r.aggs))
            .collect();
        assert_eq!(got, want, "{tag}: node {} ({})", id, coder.name(&schema, id));
    }
    assert!(cube.stats().queries > 0);
}

#[test]
fn disk_cure_plain() {
    check_disk_cube(false, false, CatFormatPolicy::Auto, "plain");
}

#[test]
fn disk_cure_plus() {
    check_disk_cube(false, true, CatFormatPolicy::Auto, "plus");
}

#[test]
fn disk_cure_dr() {
    check_disk_cube(true, false, CatFormatPolicy::Auto, "dr");
}

#[test]
fn disk_cure_dr_plus() {
    check_disk_cube(true, true, CatFormatPolicy::Auto, "drplus");
}

#[test]
fn disk_cure_forced_format_a() {
    check_disk_cube(
        false,
        false,
        CatFormatPolicy::Force(cure_core::CatFormat::CommonSource),
        "fmta",
    );
}

#[test]
fn disk_cure_plus_with_format_a_bitmap_cats() {
    // CURE+ stores format-(a) CAT A-rowid lists as bitmaps (§5.3).
    check_disk_cube(
        false,
        true,
        CatFormatPolicy::Force(cure_core::CatFormat::CommonSource),
        "plusfmta",
    );
}

#[test]
fn plus_format_a_actually_writes_cat_bitmaps() {
    use cure_core::sink::cat_bitmap_name;
    let catalog = fresh_catalog("catbm");
    let schema = hier_schema();
    let t = make_tuples(&schema, 1_200, 8);
    store_fact(&catalog, &schema, &t);
    let cfg = CubeConfig {
        cat_policy: CatFormatPolicy::Force(cure_core::CatFormat::CommonSource),
        ..CubeConfig::default()
    };
    let mut sink = DiskSink::new(&catalog, "bm_", &schema, false, true, None).unwrap();
    let report = CubeBuilder::new(&schema, cfg).build_in_memory(&t, &mut sink).unwrap();
    assert!(report.stats.cat_tuples > 0, "workload must produce CATs");
    // At least one node has a CAT bitmap blob and no CAT relation.
    let coder = NodeCoder::new(&schema);
    let with_bitmap =
        coder.all_ids().filter(|&id| catalog.blob_exists(&cat_bitmap_name("bm_", id))).count();
    assert!(with_bitmap > 0, "no CAT bitmaps written");
    let segment = catalog.open_segment("bm_").unwrap();
    let with_relation = coder
        .all_ids()
        .filter(|&id| segment.directory().get(&cure_core::sink::cat_rel_name("bm_", id)).is_some())
        .count();
    assert_eq!(with_relation, 0, "format-(a) CURE+ must not write CAT relations");
}

#[test]
fn disk_cure_forced_format_b() {
    check_disk_cube(
        false,
        false,
        CatFormatPolicy::Force(cure_core::CatFormat::Coincidental),
        "fmtb",
    );
}

#[test]
fn disk_cure_forced_asnt() {
    check_disk_cube(false, false, CatFormatPolicy::Force(cure_core::CatFormat::AsNt), "fmtnt");
}

#[test]
fn disk_cure_partitioned() {
    // Force the out-of-core driver with a small memory budget, then verify
    // queries across both plan passes.
    let catalog = fresh_catalog("partitioned");
    let schema = hier_schema();
    let t = make_tuples(&schema, 2_000, 7);
    store_fact(&catalog, &schema, &t);
    let cfg = CubeConfig { memory_budget_bytes: 16 << 10, ..CubeConfig::default() };
    let mut sink = DiskSink::new(&catalog, "p_", &schema, false, false, None).unwrap();
    let report = build_cure_cube(&catalog, "facts", &schema, &cfg, &mut sink, "tmp_", 1).unwrap();
    let part = report.partition.expect("budget forces partitioning");
    CubeMeta {
        prefix: "p_".into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: Some(part.choice.level),
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();

    let mut cube = CureCube::open(&catalog, &schema, "p_").unwrap();
    let coder = NodeCoder::new(&schema);
    for id in coder.all_ids() {
        let mut got = cube.node_query(id).unwrap();
        got.sort();
        let levels = coder.decode(id).unwrap();
        let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
            .into_iter()
            .map(|r| (r.dims, r.aggs))
            .collect();
        assert_eq!(got, want, "partitioned node {id}");
    }
}

#[test]
fn buc_disk_queries_match_oracle() {
    let catalog = fresh_catalog("buc");
    let schema = hier_schema().flattened();
    let t = make_tuples(&schema, 1_000, 3);
    let cards: Vec<u32> = schema.dims().iter().map(|d| d.leaf_cardinality()).collect();
    let mut sink = BucDiskCube::new(&catalog, "b_", schema.num_measures());
    cure_baselines::buc::build_buc(&cards, &t, 1, &mut sink).unwrap();
    let cube = BucCube::open(&catalog, "b_", schema.num_measures());
    let coder = NodeCoder::new(&schema);
    for id in coder.all_ids() {
        let levels = coder.decode(id).unwrap();
        let grouped: Vec<usize> =
            (0..schema.num_dims()).filter(|&d| !coder.is_all(&levels, d)).collect();
        let flat_id = cure_baselines::flatnode::from_dims(&grouped);
        let mut got = cube.node_query(flat_id).unwrap();
        got.sort();
        let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
            .into_iter()
            .map(|r| (r.dims, r.aggs))
            .collect();
        assert_eq!(got, want, "BUC node {id}");
    }
}

#[test]
fn bubst_disk_queries_match_oracle() {
    let catalog = fresh_catalog("bubst");
    let schema = hier_schema().flattened();
    let t = make_tuples(&schema, 1_000, 5);
    store_fact(&catalog, &schema, &t);
    let cards: Vec<u32> = schema.dims().iter().map(|d| d.leaf_cardinality()).collect();
    let mut sink =
        BubstDiskCube::new(&catalog, "m_", schema.num_dims(), schema.num_measures()).unwrap();
    cure_baselines::bubst::build_bubst(&cards, &t, 1, &mut sink).unwrap();
    let cube =
        BubstCube::open(&catalog, "m_", "facts", schema.num_dims(), schema.num_measures()).unwrap();
    let coder = NodeCoder::new(&schema);
    for id in coder.all_ids() {
        let levels = coder.decode(id).unwrap();
        let grouped: Vec<usize> =
            (0..schema.num_dims()).filter(|&d| !coder.is_all(&levels, d)).collect();
        let flat_id = cure_baselines::flatnode::from_dims(&grouped);
        let mut got = cube.node_query(flat_id).unwrap();
        got.sort();
        let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
            .into_iter()
            .map(|r| (r.dims, r.aggs))
            .collect();
        assert_eq!(got, want, "BU-BST node {id}");
    }
}

#[test]
fn fcure_rollup_answers_hierarchical_queries() {
    // Build a flat cube over hierarchical data, then answer every
    // *hierarchical* node query by rolling up the flat node on the fly —
    // the Figure 28 code path.
    let catalog = fresh_catalog("fcure_rollup");
    let schema = hier_schema();
    let t = make_tuples(&schema, 1_200, 11);
    store_fact(&catalog, &schema, &t);
    let flat = schema.flattened();
    let mut sink = DiskSink::new(&catalog, "f_", &flat, false, false, None).unwrap();
    let report =
        CubeBuilder::new(&flat, CubeConfig::default()).build_in_memory(&t, &mut sink).unwrap();
    CubeMeta {
        prefix: "f_".into(),
        fact_rel: "facts".into(),
        n_dims: flat.num_dims(),
        n_measures: flat.num_measures(),
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let mut flat_cube = CureCube::open(&catalog, &flat, "f_").unwrap();
    let hier_coder = NodeCoder::new(&schema);
    let flat_coder = NodeCoder::new(&flat);
    for id in hier_coder.all_ids() {
        let levels = hier_coder.decode(id).unwrap();
        // The flat node with the same grouped dimensions, leaf levels.
        let flat_mask = flat_node_for(&hier_coder, &levels);
        let flat_levels: Vec<usize> = (0..flat.num_dims())
            .map(|d| if flat_mask & (1 << d) != 0 { 0 } else { flat_coder.all_level(d) })
            .collect();
        let leaf_rows = flat_cube.node_query(flat_coder.encode(&flat_levels)).unwrap();
        let mut got = rollup(&schema, &hier_coder, &levels, &leaf_rows);
        got.sort();
        let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
            .into_iter()
            .map(|r| (r.dims, r.aggs))
            .collect();
        assert_eq!(got, want, "rollup node {id}");
    }
}

#[test]
fn iceberg_count_queries_skip_tts() {
    // Fact table with an extra count measure (= 1 per tuple); iceberg
    // count queries must return exactly the oracle groups with count >
    // threshold, while touching no TT relations.
    let catalog = fresh_catalog("iceberg");
    let a = Dimension::linear("A", 12, &[(0..12).map(|v| v / 4).collect()]).unwrap();
    let b = Dimension::flat("B", 8);
    let schema = CubeSchema::new(vec![a, b], 2).unwrap(); // measures: value, count
    let d = schema.num_dims();
    let mut t = Tuples::new(d, 2);
    let mut x = 17u64;
    for i in 0..800usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let dims = [(x % 12) as u32, ((x >> 8) % 8) as u32];
        t.push_fact(&dims, &[(x % 30) as i64, 1], i as u64);
    }
    store_fact(&catalog, &schema, &t);
    let mut sink = DiskSink::new(&catalog, "i_", &schema, false, false, None).unwrap();
    let report =
        CubeBuilder::new(&schema, CubeConfig::default()).build_in_memory(&t, &mut sink).unwrap();
    CubeMeta {
        prefix: "i_".into(),
        fact_rel: "facts".into(),
        n_dims: d,
        n_measures: 2,
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let mut cube = CureCube::open(&catalog, &schema, "i_").unwrap();
    let coder = NodeCoder::new(&schema);
    let min_count = 3i64;
    for id in coder.all_ids() {
        let mut got = cube.iceberg_count_query(id, min_count, 1).unwrap();
        got.sort();
        let levels = coder.decode(id).unwrap();
        let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
            .into_iter()
            .filter(|r| r.count as i64 > min_count)
            .map(|r| (r.dims, r.aggs))
            .collect();
        assert_eq!(got, want, "iceberg node {id}");
    }
}

#[test]
fn larger_fact_cache_means_fewer_misses() {
    // The Figure 17 mechanism: repeating a workload with a larger fact
    // cache must strictly reduce page misses (and with a full-size cache,
    // the second pass over the same node should miss ~never).
    let catalog = fresh_catalog("cache");
    let schema = hier_schema();
    let t = make_tuples(&schema, 2_000, 23);
    store_fact(&catalog, &schema, &t);
    let mut sink = DiskSink::new(&catalog, "q_", &schema, false, false, None).unwrap();
    let report =
        CubeBuilder::new(&schema, CubeConfig::default()).build_in_memory(&t, &mut sink).unwrap();
    CubeMeta {
        prefix: "q_".into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let mut cube = CureCube::open(&catalog, &schema, "q_").unwrap();
    let coder = NodeCoder::new(&schema);
    let workload = cure_query::workload::random_nodes(&coder, 50, 3);

    let run = |cube: &mut CureCube, pages: usize| {
        cube.set_fact_cache_pages(pages);
        cube.reset_stats();
        for &n in &workload {
            cube.node_query(n).unwrap();
        }
        cube.stats().clone()
    };
    let cold = run(&mut cube, 0);
    let fact_pages = cube.fact_pages();
    let full = run(&mut cube, fact_pages as usize + 1);
    assert_eq!(cold.rows, full.rows, "cache size must not change results");
    assert!(
        full.fact_cache_misses < cold.fact_cache_misses,
        "full cache should miss less: {} vs {}",
        full.fact_cache_misses,
        cold.fact_cache_misses
    );
    // With the whole fact table cached, misses are bounded by the page
    // count (each page loaded at most once).
    assert!(full.fact_cache_misses <= fact_pages);
}

#[test]
fn selective_queries_match_post_filtering() {
    use cure_query::index::{Predicate, ValueIndex};

    let catalog = fresh_catalog("selective");
    let schema = hier_schema();
    let t = make_tuples(&schema, 2_000, 99);
    store_fact(&catalog, &schema, &t);
    ValueIndex::build_all(&catalog, "facts", &schema).unwrap();
    for plus in [false, true] {
        let prefix = if plus { "sp_" } else { "s_" };
        let mut sink = DiskSink::new(&catalog, prefix, &schema, false, plus, None).unwrap();
        let report = CubeBuilder::new(&schema, CubeConfig::default())
            .build_in_memory(&t, &mut sink)
            .unwrap();
        CubeMeta {
            prefix: prefix.into(),
            fact_rel: "facts".into(),
            n_dims: schema.num_dims(),
            n_measures: schema.num_measures(),
            dr: false,
            plus,
            cat_format: report.stats.cat_format,
            partition_level: None,
            min_support: 1,
        }
        .write(&catalog)
        .unwrap();
        let mut cube = CureCube::open(&catalog, &schema, prefix).unwrap();
        let coder = NodeCoder::new(&schema);
        // Node A0 B0 C0 with predicates at coarser levels of A and B.
        let node = coder.encode(&[0, 0, 0]);
        for (pa, pb) in [(0u32, 0u32), (2, 1), (4, 0)] {
            let preds = [
                Predicate { dim: 0, level: 1, value: pa },
                Predicate { dim: 1, level: 1, value: pb },
            ];
            let mut got = cube.selective_query(node, &preds).unwrap();
            got.sort();
            // Oracle: full node contents post-filtered by the predicate
            // (dims[0] is A at level 0; its level-1 value is leaf/6).
            let levels = coder.decode(node).unwrap();
            let mut want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .filter(|(dims, _)| {
                    schema.dims()[0].value_at(1, dims[0]) == pa
                        && schema.dims()[1].value_at(1, dims[1]) == pb
                })
                .collect();
            want.sort();
            assert_eq!(got, want, "plus={plus} preds=({pa},{pb})");
        }
        // A predicate at the node's own level also works (equality slice).
        let node = coder.encode(&[1, coder.all_level(1), 0]);
        let preds = [Predicate { dim: 0, level: 1, value: 3 }];
        let mut got = cube.selective_query(node, &preds).unwrap();
        got.sort();
        let levels = coder.decode(node).unwrap();
        let mut want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
            .into_iter()
            .map(|r| (r.dims, r.aggs))
            .filter(|(dims, _)| dims[0] == 3)
            .collect();
        want.sort();
        assert_eq!(got, want, "plus={plus} own-level predicate");
        // Invalid predicates are rejected.
        let too_fine = [Predicate { dim: 0, level: 0, value: 1 }];
        assert!(cube.selective_query(node, &too_fine).is_err(), "finer level must be rejected");
        let not_grouped = [Predicate { dim: 1, level: 0, value: 1 }];
        assert!(
            cube.selective_query(node, &not_grouped).is_err(),
            "ALL dimension must be rejected"
        );
    }
}

#[test]
fn selective_queries_fetch_fewer_fact_rows() {
    use cure_query::index::{Predicate, ValueIndex};

    let catalog = fresh_catalog("selective_io");
    let schema = hier_schema();
    let t = make_tuples(&schema, 3_000, 5);
    store_fact(&catalog, &schema, &t);
    ValueIndex::build_all(&catalog, "facts", &schema).unwrap();
    let mut sink = DiskSink::new(&catalog, "io_", &schema, false, false, None).unwrap();
    let report =
        CubeBuilder::new(&schema, CubeConfig::default()).build_in_memory(&t, &mut sink).unwrap();
    CubeMeta {
        prefix: "io_".into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let mut cube = CureCube::open(&catalog, &schema, "io_").unwrap();
    let coder = NodeCoder::new(&schema);
    let node = coder.encode(&[0, 0, 0]);
    cube.set_fact_cache_pages(0); // count raw fetches
    cube.reset_stats();
    let full = cube.node_query(node).unwrap();
    let full_fetches = cube.stats().fact_fetches;
    cube.reset_stats();
    // A at level 1 (cardinality 5): value 0 covers ~1/5 of the rows.
    let preds = [Predicate { dim: 0, level: 1, value: 0 }];
    let selective = cube.selective_query(node, &preds).unwrap();
    let sel_fetches = cube.stats().fact_fetches;
    assert!(selective.len() < full.len());
    assert!(
        sel_fetches < full_fetches / 2,
        "pushdown must avoid most fetches: {sel_fetches} vs {full_fetches}"
    );
    // The selective answer is exactly the qualifying subset.
    assert_eq!(selective.len() as u64, sel_fetches, "one fetch per qualifying row");
}

#[test]
fn open_error_paths() {
    let catalog = fresh_catalog("open_errors");
    let schema = hier_schema();
    // No meta blob at all.
    assert!(CureCube::open(&catalog, &schema, "nope_").is_err());
    // Meta present but shape mismatched.
    let t = make_tuples(&schema, 50, 1);
    store_fact(&catalog, &schema, &t);
    CubeMeta {
        prefix: "bad_".into(),
        fact_rel: "facts".into(),
        n_dims: 99,
        n_measures: 1,
        dr: false,
        plus: false,
        cat_format: None,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    assert!(CureCube::open(&catalog, &schema, "bad_").is_err());
    // Meta referencing a missing fact relation.
    CubeMeta {
        prefix: "ghost_".into(),
        fact_rel: "missing_facts".into(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: false,
        plus: false,
        cat_format: None,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    assert!(CureCube::open(&catalog, &schema, "ghost_").is_err());
}

#[test]
fn empty_cube_answers_empty() {
    // A cube built from zero tuples answers every node with no rows.
    let catalog = fresh_catalog("empty");
    let schema = hier_schema();
    let t = Tuples::new(schema.num_dims(), schema.num_measures());
    store_fact(&catalog, &schema, &t);
    let mut sink = DiskSink::new(&catalog, "e_", &schema, false, false, None).unwrap();
    let report =
        CubeBuilder::new(&schema, CubeConfig::default()).build_in_memory(&t, &mut sink).unwrap();
    assert_eq!(report.stats.total_tuples(), 0);
    CubeMeta {
        prefix: "e_".into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: false,
        plus: false,
        cat_format: None,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let mut cube = CureCube::open(&catalog, &schema, "e_").unwrap();
    let coder = NodeCoder::new(&schema);
    for id in coder.all_ids().step_by(5) {
        assert!(cube.node_query(id).unwrap().is_empty());
    }
}

#[test]
fn stats_accumulate_and_reset() {
    let catalog = fresh_catalog("stats");
    let schema = hier_schema();
    let t = make_tuples(&schema, 500, 77);
    store_fact(&catalog, &schema, &t);
    let mut sink = DiskSink::new(&catalog, "st_", &schema, false, false, None).unwrap();
    let report =
        CubeBuilder::new(&schema, CubeConfig::default()).build_in_memory(&t, &mut sink).unwrap();
    CubeMeta {
        prefix: "st_".into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let mut cube = CureCube::open(&catalog, &schema, "st_").unwrap();
    let coder = NodeCoder::new(&schema);
    let n1 = cube.node_query(coder.encode(&[0, 0, 0])).unwrap().len();
    assert_eq!(cube.stats().queries, 1);
    assert_eq!(cube.stats().rows, n1 as u64);
    assert!(cube.stats().fact_fetches > 0);
    cube.reset_stats();
    assert_eq!(cube.stats().queries, 0);
    assert_eq!(cube.stats().fact_fetches, 0);
}

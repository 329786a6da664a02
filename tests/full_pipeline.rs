//! Cross-crate integration: the full pipeline through the `cure` facade —
//! generators → storage engine → construction (all variants) → query
//! answering — verified against the naive oracle.

use cure::baselines::bubst::BubstDiskCube;
use cure::baselines::buc::BucDiskCube;
use cure::core::cube::{CubeBuilder, CubeConfig};
use cure::core::meta::CubeMeta;
use cure::core::sink::DiskSink;
use cure::core::{reference, NodeCoder};
use cure::data::apb::apb1_dense;
use cure::data::synthetic::{hierarchical, HierSpec};
use cure::query::{BubstCube, BucCube, CureCube};
use cure::storage::Catalog;

fn fresh_catalog(tag: &str) -> Catalog {
    let dir = std::env::temp_dir().join(format!("cure_root_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Catalog::open(&dir).unwrap()
}

#[test]
fn apb_cube_end_to_end() {
    let catalog = fresh_catalog("apb");
    let ds = apb1_dense(0.4, 2_000, 1);
    ds.store(&catalog, "facts").unwrap();
    let mut sink = DiskSink::new(&catalog, "c_", &ds.schema, false, false, None).unwrap();
    let report = CubeBuilder::new(&ds.schema, CubeConfig::default())
        .build_in_memory(&ds.tuples, &mut sink)
        .unwrap();
    CubeMeta {
        prefix: "c_".into(),
        fact_rel: "facts".into(),
        n_dims: 4,
        n_measures: 2,
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let mut cube = CureCube::open(&catalog, &ds.schema, "c_").unwrap();
    let coder = NodeCoder::new(&ds.schema);
    assert_eq!(coder.num_nodes(), 168, "APB-1 lattice");
    // Check every 7th node (24 nodes) against the oracle — the full sweep
    // lives in cure-query's own tests.
    for id in coder.all_ids().step_by(7) {
        let mut got = cube.node_query(id).unwrap();
        got.sort();
        let levels = coder.decode(id).unwrap();
        let want: Vec<(Vec<u32>, Vec<i64>)> =
            reference::compute_node(&ds.schema, &ds.tuples, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect();
        assert_eq!(got, want, "node {}", coder.name(&ds.schema, id));
    }
}

/// A cube epoch is one segment: after a durable partitioned build and
/// one ingest, the active cube's node relations all live in its
/// `nodes.seg`, no node relation has a `.heap` of its own, and the cube
/// is at most five files.
#[test]
fn one_segment_per_cube_after_durable_build_and_ingest() {
    let catalog = fresh_catalog("files_per_cube");
    let ds = apb1_dense(0.4, 2_000, 3);
    ds.store(&catalog, "facts").unwrap();
    let cfg = CubeConfig { memory_budget_bytes: 16 << 10, ..CubeConfig::default() };
    let mut sink = DiskSink::new(&catalog, "cube_", &ds.schema, false, false, None).unwrap();
    let built = cure::core::build_cure_cube_durable(
        &catalog,
        "facts",
        &ds.schema,
        &cfg,
        &mut sink,
        "cube_tmp_",
        &cure::core::DurableOptions::default(),
    )
    .unwrap();
    drop(sink);
    assert!(built.report.partition.is_some(), "the budget must force partitioning");
    CubeMeta {
        prefix: "cube_".into(),
        fact_rel: "facts".into(),
        n_dims: 4,
        n_measures: 2,
        dr: false,
        plus: false,
        cat_format: built.report.stats.cat_format,
        partition_level: built.report.partition.as_ref().map(|p| p.choice.level),
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let batch = apb1_dense(0.4, 2_000, 4).tuples;
    let mut delta = cure::core::Tuples::new(4, 2);
    for i in 0..batch.len() / 100 {
        delta.push_fact(batch.dims_of(i), batch.aggs_of(i), i as u64);
    }
    cure::core::ingest_cube(
        &catalog,
        &ds.schema,
        &delta,
        &CubeConfig::default(),
        &cure::core::IngestOptions { drop_old: true },
    )
    .unwrap();

    let active = cure::core::delta::active_prefix(&catalog);
    assert_eq!(active, "cubeB_");
    let segment = catalog.open_segment(&active).unwrap();
    let relations = segment.directory().entries().len();
    assert!(relations > 100, "{relations} node relations in the segment");
    let mut cube_files = Vec::new();
    for entry in std::fs::read_dir(catalog.dir()).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name.starts_with(&active) {
            cube_files.push(name.clone());
        }
        if let Some(stem) = name.strip_suffix(".heap") {
            assert!(stem == "facts" || stem.ends_with("aggregates"), "per-node heap {name}");
        } else {
            assert!(
                name.ends_with(".blob")
                    || name.ends_with(".seg")
                    || name.ends_with("manifest.json"),
                "unexpected file {name}"
            );
        }
    }
    cube_files.sort();
    assert!(cube_files.len() <= 5, "the cube is {} files: {cube_files:?}", cube_files.len());
    assert!(cube_files.contains(&"cubeB_nodes.seg".to_string()), "{cube_files:?}");
}

#[test]
fn three_formats_agree_on_hierarchical_data() {
    // BUC, BU-BST and CURE must return identical answers for leaf-level
    // node queries (they materialize the same flat cube content).
    let catalog = fresh_catalog("agree");
    let ds = hierarchical(
        &[
            HierSpec { name: "A".into(), level_cards: vec![30, 6, 2] },
            HierSpec { name: "B".into(), level_cards: vec![15, 3] },
            HierSpec { name: "C".into(), level_cards: vec![8] },
        ],
        1_500,
        0.7,
        1,
        42,
        "agree",
    );
    ds.store(&catalog, "facts").unwrap();
    let cards: Vec<u32> = ds.schema.dims().iter().map(|d| d.leaf_cardinality()).collect();

    let mut buc_sink = BucDiskCube::new(&catalog, "buc_", 1);
    cure::baselines::buc::build_buc(&cards, &ds.tuples, 1, &mut buc_sink).unwrap();
    let mut bb_sink = BubstDiskCube::new(&catalog, "bb_", 3, 1).unwrap();
    cure::baselines::bubst::build_bubst(&cards, &ds.tuples, 1, &mut bb_sink).unwrap();

    let flat = ds.schema.flattened();
    let mut cure_sink = DiskSink::new(&catalog, "fc_", &flat, false, false, None).unwrap();
    let report = CubeBuilder::new(&flat, CubeConfig::default())
        .build_in_memory(&ds.tuples, &mut cure_sink)
        .unwrap();
    CubeMeta {
        prefix: "fc_".into(),
        fact_rel: "facts".into(),
        n_dims: 3,
        n_measures: 1,
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();

    let buc = BucCube::open(&catalog, "buc_", 1);
    let bb = BubstCube::open(&catalog, "bb_", "facts", 3, 1).unwrap();
    let mut fcure = CureCube::open(&catalog, &flat, "fc_").unwrap();
    let flat_coder = NodeCoder::new(&flat);
    for mask in 0u64..8 {
        let levels: Vec<usize> = (0..3)
            .map(|d| if mask & (1 << d) != 0 { 0 } else { flat_coder.all_level(d) })
            .collect();
        let mut a = buc.node_query(mask).unwrap();
        let mut b = bb.node_query(mask).unwrap();
        let mut c = fcure.node_query(flat_coder.encode(&levels)).unwrap();
        a.sort();
        b.sort();
        c.sort();
        assert_eq!(a, b, "BUC vs BU-BST node {mask}");
        assert_eq!(a, c, "BUC vs FCURE node {mask}");
    }
}

#[test]
fn storage_ordering_matches_paper() {
    // The Figure 15/27 ordering: BUC ≥ BU-BST ≥ CURE ≥ CURE+ on sparse
    // hierarchical data.
    let catalog = fresh_catalog("ordering");
    let ds = hierarchical(
        &[
            HierSpec { name: "A".into(), level_cards: vec![400, 40, 4] },
            HierSpec { name: "B".into(), level_cards: vec![200, 20] },
            HierSpec { name: "C".into(), level_cards: vec![50] },
        ],
        4_000,
        0.4,
        1,
        9,
        "ordering",
    );
    ds.store(&catalog, "facts").unwrap();
    let cards: Vec<u32> = ds.schema.dims().iter().map(|d| d.leaf_cardinality()).collect();
    let mut buc_sink = BucDiskCube::new(&catalog, "buc_", 1);
    let buc = cure::baselines::buc::build_buc(&cards, &ds.tuples, 1, &mut buc_sink).unwrap();
    let mut bb_sink = BubstDiskCube::new(&catalog, "bb_", 3, 1).unwrap();
    let bb = cure::baselines::bubst::build_bubst(&cards, &ds.tuples, 1, &mut bb_sink).unwrap();
    let mut cure_sink = DiskSink::new(&catalog, "c_", &ds.schema, false, false, None).unwrap();
    let cure_rep = CubeBuilder::new(&ds.schema, CubeConfig::default())
        .build_in_memory(&ds.tuples, &mut cure_sink)
        .unwrap();
    let mut curep_sink = DiskSink::new(&catalog, "cp_", &ds.schema, false, true, None).unwrap();
    let curep_rep = CubeBuilder::new(&ds.schema, CubeConfig::default())
        .build_in_memory(&ds.tuples, &mut curep_sink)
        .unwrap();
    // NOTE: the CURE cubes here are *hierarchical* (a larger lattice)
    // while BUC/BU-BST are flat — and CURE still wins on size. At D = 3
    // the BU-BST monolithic row is wider than BUC's narrow per-node rows,
    // so compare BUC vs BU-BST on stored tuples (condensation) and the
    // CURE variants on bytes; the byte ordering across all four at D ≥ 9
    // is asserted in tests/paper_claims.rs.
    assert!(
        buc.total_rows() > bb.total_rows(),
        "BUC {} rows vs BU-BST {} rows",
        buc.total_rows(),
        bb.total_rows()
    );
    assert!(
        bb.bytes > cure_rep.stats.total_bytes(),
        "BU-BST {} vs CURE {}",
        bb.bytes,
        cure_rep.stats.total_bytes()
    );
    assert!(cure_rep.stats.total_bytes() >= curep_rep.stats.total_bytes());
}

#[test]
fn facade_reexports_compile_and_work() {
    // Small sanity pass touching every re-exported crate.
    let zipf = cure::data::zipf::ZipfSampler::new(10, 1.0);
    assert_eq!(zipf.n(), 10);
    let bm = cure::storage::BitmapIndex::from_sorted(&[1, 2, 3]);
    assert_eq!(bm.count(), 3);
    let dim = cure::core::Dimension::flat("X", 4);
    assert_eq!(dim.leaf_cardinality(), 4);
    assert_eq!(cure::baselines::flatnode::arity(0b101), 2);
}

//! Sharded scatter-gather serving: the router's merged answers must
//! equal the unsharded oracle for every lattice node, through every
//! edge the merge can hit — empty shards, groups present in only one
//! shard, iceberg thresholds that only clear the bar globally — and the
//! replication path must ship byte-identical, sealed shard families.

use std::path::PathBuf;
use std::sync::Arc;

use cure_core::{
    build_shard_cubes, shard_fact_rel, shard_prefix, CubeConfig, CubeSchema, Dimension, NodeCoder,
    Tuples,
};
use cure_serve::{replicate_shards, QueryOptions, ServeError, ShardRouter, ShardRouterConfig};
use cure_storage::scratch::scratch_dir;
use cure_storage::Catalog;

/// A fresh catalog directory seeded with `rows` deterministic facts
/// over a 2-dim (one hierarchical), `measures`-measure schema, plus the
/// sharded sub-cubes.
fn sharded_fixture(
    tag: &str,
    rows: usize,
    measures: usize,
    shards: usize,
) -> (PathBuf, Arc<CubeSchema>, Tuples) {
    let dir = cure_storage::scratch::scratch_dir(&format!("shard_it_{tag}"));
    let catalog = Catalog::open(&dir).unwrap();
    let a = Dimension::linear("A", 6, &[vec![0, 0, 0, 1, 1, 1]]).unwrap();
    let b = Dimension::flat("B", 4);
    let schema = CubeSchema::new(vec![a, b], measures).unwrap();
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let mut t = Tuples::new(d, y);
    let mut x = 0xDADAu64;
    for i in 0..rows {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let dims = [(x % 6) as u32, ((x >> 8) % 4) as u32];
        let aggs: Vec<i64> = (0..y).map(|k| ((x >> 16) % 50) as i64 - 10 + k as i64).collect();
        t.push_fact(&dims, &aggs, i as u64);
    }
    let mut rel = catalog.create_or_replace("facts", Tuples::fact_schema(d, y)).unwrap();
    t.store_fact(&mut rel).unwrap();
    rel.flush().unwrap();
    rel.sync().unwrap();
    build_shard_cubes(&catalog, "facts", &schema, &CubeConfig::default(), shards, 1).unwrap();
    (dir, Arc::new(schema), t)
}

fn sorted(mut rows: Vec<(Vec<u32>, Vec<i64>)>) -> Vec<(Vec<u32>, Vec<i64>)> {
    rows.sort();
    rows
}

/// The flat oracle: reference-compute `node` over the unsplit facts.
fn oracle(schema: &CubeSchema, t: &Tuples, node: u64) -> Vec<(Vec<u32>, Vec<i64>)> {
    let coder = NodeCoder::new(schema);
    let levels = coder.decode(node).unwrap();
    sorted(cure_core::reference::pairs(&cure_core::reference::compute_node(schema, t, &levels)))
}

#[test]
fn merged_answers_equal_the_unsharded_oracle_on_every_node() {
    let (dir, schema, t) = sharded_fixture("oracle", 600, 2, 3);
    let router =
        ShardRouter::open(&[&dir], Arc::clone(&schema), &ShardRouterConfig::default()).unwrap();
    let stats = router.shard_stats();
    assert_eq!(stats.len(), 3);
    assert!(stats.iter().all(|s| s.replicas == 1));
    for node in 0..router.num_nodes() {
        let got = sorted(router.query(node).unwrap().rows);
        assert_eq!(got, oracle(&schema, &t, node), "node {node}");
    }
    // Router metrics saw one merged query per node; shard sub-queries
    // are labelled per shard (3 sub-queries per merged query).
    assert_eq!(router.metrics().queries(), router.num_nodes());
    let stats = router.shard_stats();
    assert_eq!(stats.len(), 3);
    for s in &stats {
        assert_eq!(s.queries, router.num_nodes(), "shard {}", s.shard);
        assert_eq!(s.errors, 0);
        assert_eq!(s.failovers, 0);
    }
}

#[test]
fn empty_shards_are_neutral_in_the_merge() {
    // 5 shards over 3 rows: shards 3 and 4 hold no facts and answer
    // every node with zero rows; the merge must not be perturbed.
    let (dir, schema, t) = sharded_fixture("empty", 3, 1, 5);
    let catalog = Catalog::open(&dir).unwrap();
    for k in 3..5 {
        assert_eq!(catalog.open_relation(&shard_fact_rel(k)).unwrap().num_rows(), 0);
    }
    let router =
        ShardRouter::open(&[&dir], Arc::clone(&schema), &ShardRouterConfig::default()).unwrap();
    for node in 0..router.num_nodes() {
        let got = sorted(router.query(node).unwrap().rows);
        assert_eq!(got, oracle(&schema, &t, node), "node {node}");
    }
}

#[test]
fn groups_present_in_a_single_shard_pass_through_unchanged() {
    // Two facts with distinct groups land on different shards (row i →
    // shard i % 2), so every leaf group exists in exactly one sub-cube.
    let dir = scratch_dir("shard_it_single");
    let catalog = Catalog::open(&dir).unwrap();
    let schema = Arc::new(
        CubeSchema::new(vec![Dimension::flat("A", 4), Dimension::flat("B", 3)], 1).unwrap(),
    );
    let mut t = Tuples::new(2, 1);
    t.push_fact(&[0, 0], &[7], 0);
    t.push_fact(&[3, 2], &[-5], 1);
    let mut rel = catalog.create_or_replace("facts", Tuples::fact_schema(2, 1)).unwrap();
    t.store_fact(&mut rel).unwrap();
    rel.flush().unwrap();
    rel.sync().unwrap();
    build_shard_cubes(&catalog, "facts", &schema, &CubeConfig::default(), 2, 1).unwrap();
    let router =
        ShardRouter::open(&[&dir], Arc::clone(&schema), &ShardRouterConfig::default()).unwrap();
    // Leaf node: both groups, each from exactly one shard, untouched.
    let coder = NodeCoder::new(&schema);
    let leaf = coder.encode(&[0, 0]);
    let got = sorted(router.query(leaf).unwrap().rows);
    assert_eq!(got, vec![(vec![0, 0], vec![7]), (vec![3, 2], vec![-5])]);
    // ALL node: the two singleton partials merge into one global group.
    let all = coder.empty_node();
    assert_eq!(router.query(all).unwrap().rows, vec![(vec![], vec![2])]);
}

#[test]
fn iceberg_thresholds_apply_after_the_merge_not_per_shard() {
    // Measure 1 is a count column (every fact contributes 1). The group
    // (2, 2) appears twice — on rows 0 and 1, which land on *different*
    // shards — so its per-shard count is 1 everywhere but its global
    // count is 2.
    let dir = scratch_dir("shard_it_ice");
    let catalog = Catalog::open(&dir).unwrap();
    let schema = Arc::new(
        CubeSchema::new(vec![Dimension::flat("A", 4), Dimension::flat("B", 3)], 2).unwrap(),
    );
    let mut t = Tuples::new(2, 2);
    t.push_fact(&[2, 2], &[10, 1], 0);
    t.push_fact(&[2, 2], &[20, 1], 1);
    t.push_fact(&[1, 0], &[99, 1], 2);
    let mut rel = catalog.create_or_replace("facts", Tuples::fact_schema(2, 2)).unwrap();
    t.store_fact(&mut rel).unwrap();
    rel.flush().unwrap();
    rel.sync().unwrap();
    build_shard_cubes(&catalog, "facts", &schema, &CubeConfig::default(), 2, 1).unwrap();
    let router =
        ShardRouter::open(&[&dir], Arc::clone(&schema), &ShardRouterConfig::default()).unwrap();
    let coder = NodeCoder::new(&schema);
    let leaf = coder.encode(&[0, 0]);
    // min_count = 1 keeps groups with global count > 1: exactly (2, 2).
    let kept = router.iceberg_query(leaf, 1, 1, &QueryOptions::default()).unwrap().rows;
    assert_eq!(kept, vec![(vec![2, 2], vec![30, 2])]);
    // A per-shard filter would have dropped it: each sub-cube's count
    // for (2, 2) is exactly 1, not > 1.
    let full = sorted(router.query(leaf).unwrap().rows);
    assert_eq!(full.len(), 2, "complete sub-cubes still hold every group");
    // The threshold contract is strict and validated.
    assert!(matches!(
        router.iceberg_query(leaf, 0, 1, &QueryOptions::default()),
        Err(ServeError::Query(_))
    ));
}

#[test]
fn deadline_expiry_mid_gather_returns_typed_timeout() {
    let (dir, schema, _) = sharded_fixture("deadline", 400, 1, 4);
    let router =
        ShardRouter::open(&[&dir], Arc::clone(&schema), &ShardRouterConfig::default()).unwrap();
    let node = router.num_nodes() - 1;
    // A budget of zero is spent before (or during) the first shard
    // gather: the router must surface a typed timeout naming the node,
    // never a partial merge.
    let opts = QueryOptions { deadline: Some(std::time::Instant::now()) };
    match router.query_with_options(node, &opts) {
        Err(ServeError::Timeout { node: n }) => assert_eq!(n, node),
        other => panic!("expected typed timeout, got {other:?}"),
    }
    assert_eq!(router.metrics().timeouts(), 1);
    assert_eq!(router.metrics().queries(), 0);
    // With a generous budget the same query completes.
    let opts = QueryOptions::with_budget(std::time::Duration::from_secs(10));
    assert!(router.query_with_options(node, &opts).is_ok());
}

#[test]
fn replication_ships_byte_identical_shards_and_replicas_serve_reads() {
    let (dir, schema, t) = sharded_fixture("repl", 500, 2, 2);
    let replica_dir = dir.join("replica0");
    let src = Catalog::open(&dir).unwrap();
    let report = replicate_shards(&src, 2, &replica_dir).unwrap();
    assert_eq!(report.shards, 2);
    assert!(report.files > 0);
    assert!(report.pages_verified > 0);
    // Every shipped shard file is byte-identical to the primary's.
    for k in 0..2 {
        let prefix = shard_prefix(k);
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.starts_with(&prefix) || !entry.path().is_file() {
                continue;
            }
            let a = std::fs::read(entry.path()).unwrap();
            let b = std::fs::read(replica_dir.join(&name)).unwrap();
            assert_eq!(a, b, "replica file {name} differs from primary");
            checked += 1;
        }
        assert!(checked > 0, "no files compared for shard {k}");
    }
    // A replica-only router serves the same answers as the primary.
    let primary =
        ShardRouter::open(&[&dir], Arc::clone(&schema), &ShardRouterConfig::default()).unwrap();
    let replica =
        ShardRouter::open(&[&replica_dir], Arc::clone(&schema), &ShardRouterConfig::default())
            .unwrap();
    for node in 0..primary.num_nodes() {
        let p = sorted(primary.query(node).unwrap().rows);
        assert_eq!(p, sorted(replica.query(node).unwrap().rows), "node {node}");
        assert_eq!(p, oracle(&schema, &t, node), "node {node}");
    }
    // A two-replica router balances across both and still answers
    // identically.
    let both = ShardRouter::open(
        &[dir.clone(), replica_dir.clone()],
        Arc::clone(&schema),
        &ShardRouterConfig::default(),
    )
    .unwrap();
    assert!(both.shard_stats().iter().all(|s| s.replicas == 2));
    for node in 0..both.num_nodes() {
        assert_eq!(
            sorted(both.query(node).unwrap().rows),
            oracle(&schema, &t, node),
            "node {node}"
        );
    }
    // The shard-labelled counters account for the sweep: every shard is
    // backed by both replicas, answered sub-queries, and failed none.
    let stats = both.shard_stats();
    assert_eq!(stats.len(), 2, "{stats:?}");
    for s in &stats {
        assert_eq!(s.replicas, 2, "{stats:?}");
        assert_eq!(s.errors, 0, "{stats:?}");
        assert!(s.queries > 0, "{stats:?}");
    }
}

#[test]
fn replication_rejects_a_flipped_segment_directory_or_data_byte() {
    let (dir, _, _) = sharded_fixture("repl_flip", 500, 2, 2);
    let src = Catalog::open(&dir).unwrap();
    let segment = src.segment_path(&cure_core::shard::shard_cube_prefix(0));
    let good = std::fs::read(&segment).unwrap();
    let directory_byte = good.len() - cure_storage::segment::FOOTER_LEN - 2;
    let data_byte = cure_storage::heap::page_offset(0) as usize + 64;
    for (what, at) in [("directory", directory_byte), ("data page", data_byte)] {
        let mut bad = good.clone();
        bad[at] ^= 0x08;
        std::fs::write(&segment, &bad).unwrap();
        let replica_dir = dir.join(format!("replica_{at}"));
        let err = replicate_shards(&src, 2, &replica_dir).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{what}: {err}");
    }
    std::fs::write(&segment, &good).unwrap();
    replicate_shards(&src, 2, &dir.join("replica_clean")).unwrap();
}

#[test]
fn half_shipped_replicas_cannot_be_opened() {
    // Ship the shard files but *not* the topology blob — exactly the
    // state replicate_shards leaves behind if it dies before its final
    // verification gate — and the router must refuse to open it.
    let (dir, schema, _) = sharded_fixture("half", 60, 1, 2);
    let replica_dir = dir.join("replica_half");
    let src = Catalog::open(&dir).unwrap();
    for k in 0..2 {
        cure_storage::export_snapshot(&src, &shard_prefix(k), &replica_dir).unwrap();
    }
    let Err(err) =
        ShardRouter::open(&[&replica_dir], Arc::clone(&schema), &ShardRouterConfig::default())
    else {
        panic!("opening a half-shipped replica must fail");
    };
    assert!(err.to_string().contains("shard topology"), "unexpected error: {err}");
}

//! Multi-threaded serving stress test: the same workload answered by
//! [`CubeService`] from 8 client threads must be byte-identical to the
//! single-threaded [`CureCube`] path, and the shared cache's accounting
//! must balance exactly (every cache access is one hit or one miss, and
//! the accesses are the ones a single-threaded replay makes). The mmap
//! read path answers the same way and samples latency attribution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::sink::DiskSink;
use cure_core::{CubeSchema, Dimension, NodeId, Tuples};
use cure_query::{CacheConfig, ConcurrentCube, CubeRow, CureCube, ReadPath};
use cure_serve::{CubeService, NodePopularity, NodeSampler, QueryOptions};
use cure_storage::scratch::scratch_dir;
use cure_storage::Catalog;

fn build_cube(tag: &str) -> (Arc<Catalog>, Arc<CubeSchema>, String) {
    let dir = scratch_dir(&format!("serve_stress_{tag}"));
    let catalog = Catalog::open(dir).unwrap();
    let schema = CubeSchema::new(
        vec![
            Dimension::linear("prod", 8, &[vec![0, 0, 1, 1, 2, 2, 3, 3]]).unwrap(),
            Dimension::flat("store", 6),
            Dimension::flat("time", 5),
        ],
        2,
    )
    .unwrap();
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let mut tuples = Tuples::new(d, y);
    let mut x = 0xFACEu64;
    let mut dims = vec![0u32; d];
    for i in 0..6_000usize {
        for (j, v) in dims.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x % schema.dims()[j].leaf_cardinality() as u64) as u32;
        }
        let aggs: Vec<i64> = (0..y).map(|k| (x % 100) as i64 + k as i64).collect();
        tuples.push_fact(&dims, &aggs, i as u64);
    }
    let fact_rel = "fact";
    let mut heap = catalog.create_or_replace(fact_rel, Tuples::fact_schema(d, y)).unwrap();
    tuples.store_fact(&mut heap).unwrap();
    drop(heap);
    let prefix = "stress_";
    let report = {
        let mut sink = DiskSink::new(&catalog, prefix, &schema, false, false, None).unwrap();
        CubeBuilder::new(&schema, CubeConfig::default())
            .build_in_memory(&tuples, &mut sink)
            .unwrap()
    };
    cure_core::meta::CubeMeta {
        prefix: prefix.to_string(),
        fact_rel: fact_rel.to_string(),
        n_dims: d,
        n_measures: y,
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    (Arc::new(catalog), Arc::new(schema), prefix.to_string())
}

fn sorted(mut rows: Vec<CubeRow>) -> Vec<CubeRow> {
    rows.sort();
    rows
}

/// Answer `workload` from `threads` closed-loop clients sharing one
/// cursor, comparing every reply in the client itself so a mismatch
/// fails loudly with the node id.
fn serve_and_check(
    service: &CubeService,
    workload: &[NodeId],
    threads: usize,
    reference: &BTreeMap<NodeId, Vec<CubeRow>>,
) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while let Some(&node) = workload.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let rows = service.query(node, &QueryOptions::default()).unwrap();
                    assert_eq!(&sorted(rows), &reference[&node], "node {node} diverged");
                }
            });
        }
    });
}

#[test]
fn eight_threads_match_single_threaded_reference_exactly() {
    let (catalog, schema, prefix) = build_cube("match");

    // Deterministic 1,000-query workload over the whole lattice.
    let caches = CacheConfig { fact_pages: 256, agg_pages: 64, shards: 8 };
    let service = CubeService::open_with_read_path(
        Arc::clone(&catalog),
        Arc::clone(&schema),
        &prefix,
        caches,
        ReadPath::Cache,
    )
    .unwrap();
    assert_eq!(service.read_path(), ReadPath::Cache);
    let mut sampler = NodeSampler::new(service.num_nodes(), NodePopularity::Uniform, 99).unwrap();
    let workload: Vec<NodeId> = (0..1_000).map(|_| sampler.next_node()).collect();

    // Reference: replay the *full* workload through the exclusive
    // single-threaded path, capturing both the expected answers and the
    // expected fetch counts (a property of the workload).
    let mut reference: BTreeMap<NodeId, Vec<CubeRow>> = BTreeMap::new();
    let ref_stats = {
        let mut exclusive = CureCube::open(&catalog, &schema, &prefix).unwrap();
        for &node in &workload {
            let rows = sorted(exclusive.node_query(node).unwrap());
            reference.entry(node).or_insert(rows);
        }
        exclusive.stats().clone()
    };
    // The cache *accesses* — hits + misses — of the concurrent path are a
    // property of the workload too: each query gathers a source's fact
    // rows with one access per distinct sealed page and fetches each
    // non-tail `AGGREGATES` row with one access, whatever the eviction.
    // A single-threaded replay on a fresh concurrent handle counts them.
    let replay = ConcurrentCube::open_with_read_path(
        Arc::clone(&catalog),
        Arc::clone(&schema),
        &prefix,
        caches,
        ReadPath::Cache,
    )
    .unwrap();
    for &node in &workload {
        replay.node_query(node).unwrap();
    }
    let (replay_facts, replay_aggs) = (replay.fact_cache(), replay.agg_cache());

    // Serve the same workload from 8 threads.
    serve_and_check(&service, &workload, 8, &reference);

    // Nothing lost, nothing failed.
    assert_eq!(service.metrics().queries(), 1_000);
    assert_eq!(service.metrics().errors(), 0);
    assert_eq!(service.metrics().latency().count(), 1_000);

    // Shared-cache accounting balances exactly even under 8-way
    // contention: the concurrent path did the same fetches as the
    // exclusive reference and the same cache accesses as the
    // single-threaded replay.
    let stats = service.cube().stats_snapshot();
    assert_eq!(stats.queries, 1_000);
    assert_eq!(stats.fact_fetches, ref_stats.fact_fetches);
    assert_eq!(stats.agg_fetches, ref_stats.agg_fetches);
    assert_eq!(
        stats.fact_cache_hits + stats.fact_cache_misses,
        replay_facts.hits() + replay_facts.misses()
    );
    assert!(stats.fact_cache_hits + stats.fact_cache_misses <= stats.fact_fetches);
    let agg = service.cube().agg_cache();
    assert_eq!(agg.hits() + agg.misses(), replay_aggs.hits() + replay_aggs.misses());
    assert!(agg.hits() + agg.misses() <= stats.agg_fetches);

    // The per-shard breakdown sums to the global counters.
    let shard_total: u64 =
        service.cube().fact_cache().shard_stats().iter().map(|s| s.hits + s.misses).sum();
    assert_eq!(shard_total, stats.fact_cache_hits + stats.fact_cache_misses);
}

#[test]
fn mmap_service_matches_reference_and_samples_attribution() {
    let (catalog, schema, prefix) = build_cube("mmap");
    let service = CubeService::open_with_read_path(
        Arc::clone(&catalog),
        Arc::clone(&schema),
        &prefix,
        CacheConfig::default(),
        ReadPath::Mmap,
    )
    .unwrap();
    assert_eq!(service.read_path(), ReadPath::Mmap);

    // Zipf traffic, as dashboards send it; 128 queries is two
    // attribution samples at one sample per 64 queries.
    let mut sampler = NodeSampler::new(service.num_nodes(), NodePopularity::Zipf(1.0), 5).unwrap();
    let workload: Vec<NodeId> = (0..128).map(|_| sampler.next_node()).collect();
    let mut reference: BTreeMap<NodeId, Vec<CubeRow>> = BTreeMap::new();
    let mut exclusive = CureCube::open(&catalog, &schema, &prefix).unwrap();
    for &node in &workload {
        reference.entry(node).or_insert_with(|| sorted(exclusive.node_query(node).unwrap()));
    }

    serve_and_check(&service, &workload, 4, &reference);
    assert_eq!(service.metrics().queries(), 128);
    assert_eq!(service.metrics().errors(), 0);
    let attr = service.metrics().attribution();
    assert!(attr.samples > 0, "the mmap path took no attribution samples");
    assert!(attr.read_ns + attr.probe_ns + attr.compute_ns > 0);
}

//! Criterion micro-benchmarks for the load-bearing primitives.
//!
//! The full table/figure regenerations live in the `cure-bench` binaries
//! (they take minutes and produce the paper-shaped output); these benches
//! track the hot paths those experiments stand on:
//!
//! * `sort/*` — counting vs. comparison segment sort across skews (the
//!   §7 CountingSort observation, the Figures 21/22 mechanism),
//! * `signature/*` — pool flush (sort + classify),
//! * `bitmap/*` — CURE+ TT bitmap construction and iteration,
//! * `cube/*` — small end-to-end in-memory builds (flat, hierarchical),
//! * `query/*` — node-query answering over a small disk cube.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::meta::CubeMeta;
use cure_core::sink::DiskSink;
use cure_core::{CatFormatPolicy, MemSink, NodeCoder, SignaturePool, SortPolicy, Sorter, Tuples};
use cure_data::synthetic::{flat, hierarchical, FlatSpec, HierSpec};
use cure_storage::scratch::scratch_dir;
use cure_storage::{BitmapIndex, Catalog};

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort");
    let n = 100_000usize;
    let card = 1_000u32;
    for &z in &[0.0, 1.0, 2.0] {
        let ds = flat(&FlatSpec { dims: 1, tuples: n, zipf: z, measures: 1, seed: 1 });
        let keys: Vec<u32> = (0..n).map(|i| ds.tuples.dim(i, 0) % card).collect();
        for (name, policy) in
            [("counting", SortPolicy::ForceCounting), ("comparison", SortPolicy::ForceComparison)]
        {
            group.bench_with_input(BenchmarkId::new(name, format!("z={z}")), &keys, |b, keys| {
                let mut sorter = Sorter::new(policy);
                b.iter(|| {
                    let mut idx: Vec<u32> = (0..n as u32).collect();
                    sorter.sort_by_key(&mut idx, card, |t| keys[t as usize]);
                    black_box(idx[0])
                });
            });
        }
    }
    group.finish();
}

fn bench_signature_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("signature");
    let n = 100_000usize;
    group.bench_function("flush_100k", |b| {
        b.iter(|| {
            let mut sink = MemSink::new(2);
            let mut pool = SignaturePool::new(2, n + 1, CatFormatPolicy::Auto);
            let mut x = 7u64;
            for i in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // ~30% CAT rate.
                let agg = (x % (n as u64 * 2 / 3)) as i64;
                pool.push(&mut sink, &[agg, agg / 2], x % 1000, i as u64 % 64).unwrap();
            }
            pool.flush(&mut sink).unwrap();
            black_box(pool.total_signatures())
        });
    });
    group.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap");
    // Half-dense row-id set, the typical TT profile after sorting.
    let ids: Vec<u64> = (0..200_000u64).filter(|i| i % 3 != 0).collect();
    group.bench_function("build_133k", |b| {
        b.iter(|| black_box(BitmapIndex::from_sorted(&ids).size_bytes()));
    });
    let bm = BitmapIndex::from_sorted(&ids);
    group.bench_function("iterate_133k", |b| {
        b.iter(|| black_box(bm.iter().sum::<u64>()));
    });
    group.finish();
}

fn small_hier_dataset() -> cure_data::Dataset {
    hierarchical(
        &[
            HierSpec { name: "A".into(), level_cards: vec![500, 50, 5] },
            HierSpec { name: "B".into(), level_cards: vec![100, 10] },
            HierSpec { name: "C".into(), level_cards: vec![20] },
        ],
        20_000,
        0.6,
        2,
        0xBE,
        "bench",
    )
}

fn bench_cube_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube");
    group.sample_size(10);
    let flat_ds = flat(&FlatSpec { dims: 6, tuples: 20_000, zipf: 0.8, measures: 1, seed: 2 });
    group.bench_function("flat_d6_20k", |b| {
        b.iter(|| {
            let mut sink = MemSink::new(1);
            let report = CubeBuilder::new(&flat_ds.schema, CubeConfig::default())
                .build_in_memory(&flat_ds.tuples, &mut sink)
                .unwrap();
            black_box(report.stats.total_tuples())
        });
    });
    let hier_ds = small_hier_dataset();
    group.bench_function("hier_3dims_20k", |b| {
        b.iter(|| {
            let mut sink = MemSink::new(2);
            let report = CubeBuilder::new(&hier_ds.schema, CubeConfig::default())
                .build_in_memory(&hier_ds.tuples, &mut sink)
                .unwrap();
            black_box(report.stats.total_tuples())
        });
    });
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    let dir = scratch_dir("criterion");
    let catalog = Catalog::open(&dir).unwrap();
    let ds = small_hier_dataset();
    let mut heap = catalog.create_or_replace("facts", Tuples::fact_schema(3, 2)).unwrap();
    ds.tuples.store_fact(&mut heap).unwrap();
    drop(heap);
    let mut sink = DiskSink::new(&catalog, "q_", &ds.schema, false, false, None).unwrap();
    let report = CubeBuilder::new(&ds.schema, CubeConfig::default())
        .build_in_memory(&ds.tuples, &mut sink)
        .unwrap();
    CubeMeta {
        prefix: "q_".into(),
        fact_rel: "facts".into(),
        n_dims: 3,
        n_measures: 2,
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    let ds_schema = ds.schema.clone();
    let mut cube = cure_query::CureCube::open(&catalog, &ds_schema, "q_").unwrap();
    let coder = NodeCoder::new(&ds_schema);
    let workload = cure_query::workload::random_nodes(&coder, 20, 5);
    group.bench_function("node_queries_20", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for &n in &workload {
                rows += cube.node_query(n).unwrap().len();
            }
            black_box(rows)
        });
    });
    group.finish();
}

fn bench_storage_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    // CRC-32 over a full page payload (stamped on every page write).
    let payload = vec![0xA5u8; 8192 - 8];
    group.bench_function("crc32_page", |b| {
        b.iter(|| black_box(cure_storage::checksum::crc32(&payload)));
    });
    // Heap append throughput (buffered tail-page writes).
    let dir = scratch_dir("bench_heap");
    group.bench_function("heap_append_10k", |b| {
        let mut n = 0u32;
        b.iter(|| {
            n += 1;
            let path = dir.join(format!("b{n}.heap"));
            let mut hf =
                cure_storage::HeapFile::create(&path, cure_storage::Schema::fact(2, 1)).unwrap();
            let row = [0u8; 16];
            for _ in 0..10_000 {
                hf.append_raw(&row).unwrap();
            }
            hf.flush().unwrap();
            black_box(hf.num_rows())
        });
    });
    group.finish();
}

fn bench_partition_scan(c: &mut Criterion) {
    use cure_core::partition::{build_cure_cube, select_partition_level};
    let mut group = c.benchmark_group("partition");
    group.sample_size(10);
    let ds = small_hier_dataset();
    // Level selection alone (Table 1 logic) is nanoseconds; bench the full
    // partitioned build at a tight budget.
    group.bench_function("select_level", |b| {
        b.iter(|| {
            black_box(select_partition_level(&ds.schema, 1_000_000, 48, 1 << 20).unwrap().level)
        });
    });
    let dir = scratch_dir("bench_part");
    let catalog = Catalog::open(&dir).unwrap();
    let mut heap = catalog.create_or_replace("facts", Tuples::fact_schema(3, 2)).unwrap();
    ds.tuples.store_fact(&mut heap).unwrap();
    drop(heap);
    let budget = ds.tuples.mem_bytes() / 6;
    group.bench_function("partitioned_build_20k", |b| {
        b.iter(|| {
            let cfg = CubeConfig { memory_budget_bytes: budget, ..CubeConfig::default() };
            let mut sink = MemSink::new(2);
            let report =
                build_cure_cube(&catalog, "facts", &ds.schema, &cfg, &mut sink, "tmp_", 1).unwrap();
            black_box(report.stats.total_tuples())
        });
    });
    group.finish();
}

fn bench_value_index(c: &mut Criterion) {
    use cure_query::index::ValueIndex;
    let mut group = c.benchmark_group("value_index");
    group.sample_size(10);
    let ds = small_hier_dataset();
    let dir = scratch_dir("bench_vidx");
    let catalog = Catalog::open(&dir).unwrap();
    let mut heap = catalog.create_or_replace("facts", Tuples::fact_schema(3, 2)).unwrap();
    ds.tuples.store_fact(&mut heap).unwrap();
    let fact = catalog.open_relation("facts").unwrap();
    group.bench_function("build_d0_20k", |b| {
        b.iter(|| black_box(ValueIndex::build(&fact, 0, 500).unwrap().size_bytes()));
    });
    let idx = ValueIndex::build(&fact, 0, 500).unwrap();
    group.bench_function("rows_for_level", |b| {
        b.iter(|| black_box(idx.rows_for_level(&ds.schema, 0, 1, 7).unwrap().count()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sort,
    bench_signature_flush,
    bench_bitmap,
    bench_cube_build,
    bench_query,
    bench_storage_primitives,
    bench_partition_scan,
    bench_value_index
);
criterion_main!(benches);

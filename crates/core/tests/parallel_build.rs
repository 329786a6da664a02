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

use cure_core::sink::fact_row_resolver;
use cure_core::{
    build_cure_cube, CatFormat, CubeConfig, CubeSchema, CubeSink, Dimension, DiskSink, NodeId,
    SinkStats, Tuples,
};
use cure_storage::Catalog;

fn fresh_dir(tag: &str) -> PathBuf {
    cure_storage::scratch::scratch_dir(&format!("parbuild_{tag}"))
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

fn build(dir: &Path, dr: bool, threads: usize) -> BTreeMap<String, Vec<u8>> {
    let schema = test_schema();
    let catalog = Catalog::open(dir).unwrap();
    store_fact(&catalog, &schema, 1_200, 7);
    // Small budget so the build partitions (the parallel path is the
    // partition passes; in-memory builds short-circuit it).
    let cfg = CubeConfig { memory_budget_bytes: 8 << 10, ..CubeConfig::default() };
    let resolver = dr.then(|| fact_row_resolver(&catalog, "facts").unwrap());
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

/// One call a build made on its sink.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Format(CatFormat),
    Tt(NodeId, u64),
    Nt(NodeId, u64, Vec<i64>),
    Cat(Vec<(NodeId, u64)>, Vec<i64>),
    EndPartition,
}

/// A sink that records every call, in order.
struct LogSink {
    y: usize,
    format: Option<CatFormat>,
    calls: Vec<Call>,
}

impl CubeSink for LogSink {
    fn n_measures(&self) -> usize {
        self.y
    }

    fn set_cat_format(&mut self, f: CatFormat) {
        self.format = Some(f);
        self.calls.push(Call::Format(f));
    }

    fn cat_format(&self) -> Option<CatFormat> {
        self.format
    }

    fn write_tt(&mut self, node: NodeId, rowid: u64) -> cure_core::Result<()> {
        self.calls.push(Call::Tt(node, rowid));
        Ok(())
    }

    fn write_nt(&mut self, node: NodeId, rowid: u64, aggs: &[i64]) -> cure_core::Result<()> {
        self.calls.push(Call::Nt(node, rowid, aggs.to_vec()));
        Ok(())
    }

    fn write_cat_group(
        &mut self,
        members: &[(NodeId, u64)],
        aggs: &[i64],
    ) -> cure_core::Result<()> {
        self.calls.push(Call::Cat(members.to_vec(), aggs.to_vec()));
        Ok(())
    }

    fn end_partition(&mut self) -> cure_core::Result<()> {
        self.calls.push(Call::EndPartition);
        Ok(())
    }

    fn finish(&mut self) -> cure_core::Result<SinkStats> {
        Ok(SinkStats::default())
    }
}

/// The sink sees the same calls in the same order at every thread count:
/// the segment's extent order follows the call order, so TT writes must
/// interleave with pool flushes exactly as the sequential build made
/// them. A small pool flushes many times inside each partition.
#[test]
fn parallel_build_makes_the_sequential_sink_calls_in_order() {
    let schema = test_schema();
    let dir = fresh_dir("call_order");
    let catalog = Catalog::open(&dir).unwrap();
    store_fact(&catalog, &schema, 1_200, 11);
    let cfg =
        CubeConfig { memory_budget_bytes: 8 << 10, pool_capacity: 16, ..CubeConfig::default() };
    let calls = |threads: usize| {
        let mut sink = LogSink { y: schema.num_measures(), format: None, calls: Vec::new() };
        let report =
            build_cure_cube(&catalog, "facts", &schema, &cfg, &mut sink, "tmp_", threads).unwrap();
        assert!(report.partition.is_some(), "budget must force partitioning");
        sink.calls
    };
    let reference = calls(1);
    let tt_after_flush = reference
        .windows(2)
        .any(|w| matches!(w[0], Call::Nt(..) | Call::Cat(..)) && matches!(w[1], Call::Tt(..)));
    assert!(tt_after_flush, "no TT write follows a pool flush inside a partition");
    for threads in [2usize, 4] {
        assert!(calls(threads) == reference, "{threads} threads changed the sink call order");
    }
}

//! Exhaustive fault-injection sweeps for the durable build driver.
//!
//! Gated behind `--features fault-injection` (heavier than the bounded
//! harness in the workspace root): run with
//! `cargo test -p cure-core --features fault-injection`.
//!
//! Simulates a process death at **every** write index and **every** fsync
//! index of a partitioned durable build, under both clean-error and
//! torn-write fault shapes, and asserts that `resume` always recovers the
//! cube to the exact bytes of a build that never crashed.
#![cfg(feature = "fault-injection")]

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use cure_core::cube::CubeConfig;
use cure_core::sink::DiskSink;
use cure_core::{
    build_cure_cube_durable, CubeSchema, Dimension, DurableOptions, DurableReport, Tuples,
};
use cure_storage::io::{FaultInjector, FaultKind, IoPolicy};
use cure_storage::scratch::scratch_dir;
use cure_storage::Catalog;

fn test_schema() -> CubeSchema {
    let a = Dimension::linear(
        "A",
        16,
        &[(0..16).map(|v| v / 4).collect(), (0..4).map(|v| v / 2).collect()],
    )
    .unwrap();
    let b = Dimension::linear("B", 6, &[(0..6).map(|v| v / 3).collect()]).unwrap();
    let c = Dimension::flat("C", 4);
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

fn cfg() -> CubeConfig {
    CubeConfig { memory_budget_bytes: 6 << 10, ..CubeConfig::default() }
}

fn durable_build(
    catalog: &Catalog,
    schema: &CubeSchema,
    resume: bool,
) -> cure_core::Result<DurableReport> {
    let mut sink = DiskSink::new(catalog, "cube_", schema, false, false, None)?;
    build_cure_cube_durable(
        catalog,
        "facts",
        schema,
        &cfg(),
        &mut sink,
        "cube_tmp_",
        &DurableOptions { resume, threads: 1 },
    )
}

/// Fault-free reference build. Returns (cube bytes, writes, fsyncs).
///
/// Built once per test binary: the tests run on parallel threads, and
/// each rebuilding into the same directory would delete the catalog
/// another test is still reading.
fn reference() -> (BTreeMap<String, Vec<u8>>, u64, u64) {
    static REFERENCE: OnceLock<(BTreeMap<String, Vec<u8>>, u64, u64)> = OnceLock::new();
    REFERENCE.get_or_init(build_reference).clone()
}

fn build_reference() -> (BTreeMap<String, Vec<u8>>, u64, u64) {
    let dir = scratch_dir("reference");
    let schema = test_schema();
    {
        let plain = Catalog::open(&dir).unwrap();
        store_fact(&plain, &schema, 250, 42);
    }
    let counter = Arc::new(FaultInjector::counting());
    let catalog = Catalog::open_with_policy(&dir, counter.clone() as Arc<dyn IoPolicy>).unwrap();
    let report = durable_build(&catalog, &schema, false).unwrap();
    assert!(report.report.partition.is_some(), "budget must force partitioning");
    (snapshot(&dir), counter.writes(), counter.fsyncs())
}

fn sweep(tag: &str, make: impl Fn(u64) -> FaultInjector, points: u64) {
    let (want, _, _) = reference();
    let schema = test_schema();
    let dir = scratch_dir(tag);
    {
        let plain = Catalog::open(&dir).unwrap();
        store_fact(&plain, &schema, 250, 42);
    }
    for k in 0..points {
        let inj = Arc::new(make(k));
        let faulty = Catalog::open_with_policy(&dir, inj.clone() as Arc<dyn IoPolicy>).unwrap();
        let died = durable_build(&faulty, &schema, false);
        assert!(inj.fired(), "{tag}: fault point {k} must exist in the build");
        assert!(died.is_err(), "{tag}: sticky fault at {k} must abort the build");
        drop(faulty);
        let recovered = Catalog::open(&dir).unwrap();
        durable_build(&recovered, &schema, true).unwrap();
        assert_eq!(snapshot(&dir), want, "{tag}: crash at {k} not recovered byte-identically");
    }
}

#[test]
fn exhaustive_error_write_sweep() {
    let (_, writes, _) = reference();
    sweep("err_w", |k| FaultInjector::fail_nth_write(k, FaultKind::Error).sticky(), writes);
}

#[test]
fn exhaustive_torn_write_sweep() {
    let (_, writes, _) = reference();
    sweep("torn_w", |k| FaultInjector::fail_nth_write(k, FaultKind::Torn).sticky(), writes);
}

#[test]
fn exhaustive_torn_one_byte_write_sweep() {
    // The nastiest torn shape: exactly one byte of the page lands.
    let (_, writes, _) = reference();
    sweep(
        "torn1_w",
        |k| FaultInjector::fail_nth_write(k, FaultKind::Torn).sticky().torn_keep(1),
        writes,
    );
}

#[test]
fn exhaustive_fsync_sweep() {
    // A crash at every fsync point: data may have been written but never
    // made durable — the journal must not have advanced past it.
    let (_, _, fsyncs) = reference();
    sweep("fsync", |k| FaultInjector::fail_nth_fsync(k).sticky(), fsyncs);
}

#[test]
fn exhaustive_enospc_write_sweep() {
    let (_, writes, _) = reference();
    sweep("enospc_w", |k| FaultInjector::fail_nth_write(k, FaultKind::Enospc).sticky(), writes);
}

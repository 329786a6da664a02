//! Kill-and-resume harness for the crash-safe build driver.
//!
//! A fault-free durable build (under a counting I/O policy) learns the
//! total number of writes `W` the build performs and produces the
//! reference byte image of the finished cube. The sweep then simulates a
//! process death at *every* write index `k < W` — a sticky injected fault
//! fails write `k` and everything after it, exactly like the kernel never
//! seeing those writes — and asserts that `--resume` completes the build
//! to a byte-identical state without re-running partition passes the
//! journal recorded as complete.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use cure::core::cube::CubeConfig;
use cure::core::sink::DiskSink;
use cure::core::{
    build_cure_cube_durable, BuildManifest, CubeSchema, Dimension, DurableOptions, DurableReport,
    Tuples,
};
use cure::storage::scratch::scratch_dir;
use cure::storage::{Catalog, FaultInjector, FaultKind, IoPolicy};

fn test_schema() -> CubeSchema {
    // A: 16 -> 4 -> 2 (linear), B: 6 -> 2, C: flat 4.
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

/// Every file in the catalog directory except the manifest (it records
/// wall-clock timings) — the byte-identity comparison set.
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
    // 44 B/tuple x 250 tuples: a 6 KiB budget forces external partitioning.
    CubeConfig { memory_budget_bytes: 6 << 10, ..CubeConfig::default() }
}

fn durable_build(
    catalog: &Catalog,
    schema: &CubeSchema,
    resume: bool,
) -> cure::core::Result<DurableReport> {
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

/// Fault-free reference build. Returns (cube bytes, build writes W).
///
/// Built once per test binary: the tests run on parallel threads, and
/// each rebuilding into the same directory would delete the catalog
/// another test is still reading.
fn reference() -> (BTreeMap<String, Vec<u8>>, u64, DurableReport) {
    static REFERENCE: OnceLock<(BTreeMap<String, Vec<u8>>, u64, DurableReport)> = OnceLock::new();
    REFERENCE.get_or_init(build_reference).clone()
}

fn build_reference() -> (BTreeMap<String, Vec<u8>>, u64, DurableReport) {
    let dir = scratch_dir("reference");
    let schema = test_schema();
    {
        // Store the fact through a plain catalog so the counter below sees
        // only the build's own writes.
        let plain = Catalog::open(&dir).unwrap();
        store_fact(&plain, &schema, 250, 42);
    }
    let counter = Arc::new(FaultInjector::counting());
    let catalog = Catalog::open_with_policy(&dir, counter.clone() as Arc<dyn IoPolicy>).unwrap();
    let report = durable_build(&catalog, &schema, false).unwrap();
    assert!(report.report.partition.is_some(), "budget must force partitioning");
    (snapshot(&dir), counter.writes(), report)
}

/// Set up a catalog with the fact stored fault-free, ready for a faulty
/// build attempt.
fn crash_dir(tag: &str, schema: &CubeSchema) -> PathBuf {
    let dir = scratch_dir(tag);
    let plain = Catalog::open(&dir).unwrap();
    store_fact(&plain, schema, 250, 42);
    dir
}

/// Crash at write `k` with `kind`, then resume; assert byte-identity with
/// the reference and that journaled-complete partitions were skipped.
fn crash_and_resume(
    dir: &Path,
    schema: &CubeSchema,
    k: u64,
    kind: FaultKind,
    want: &BTreeMap<String, Vec<u8>>,
) {
    let inj = Arc::new(FaultInjector::fail_nth_write(k, kind).sticky());
    let faulty = Catalog::open_with_policy(dir, inj.clone() as Arc<dyn IoPolicy>).unwrap();
    let died = durable_build(&faulty, schema, false);
    assert!(inj.fired(), "write {k} must exist in the build");
    assert!(died.is_err(), "sticky fault at write {k} must abort the build");
    drop(faulty);

    // What the journal recorded as complete before the crash…
    let recovered = Catalog::open(dir).unwrap();
    let journaled = BuildManifest::load(&recovered, "cube_")
        .unwrap()
        .map(|m| m.completed_partitions)
        .unwrap_or(0);
    let r = durable_build(&recovered, schema, true).unwrap();
    // …must be exactly what resume skipped: no re-processing.
    assert_eq!(
        r.partitions_skipped, journaled,
        "crash at write {k}: resume re-ran journaled-complete partitions"
    );
    assert_eq!(&snapshot(dir), want, "crash at write {k}: recovery not byte-identical");
}

#[test]
fn kill_and_resume_at_every_write_index() {
    let (want, writes, _) = reference();
    assert!(writes > 20, "workload too small to be a meaningful sweep ({writes} writes)");
    let schema = test_schema();
    let dir = crash_dir("sweep_error", &schema);
    for k in 0..writes {
        // Reuse the directory across crash points: each iteration's resume
        // restored the reference image, and the next fresh (non-resume)
        // faulty build wipes the cube prefix first.
        crash_and_resume(&dir, &schema, k, FaultKind::Error, &want);
    }
}

#[test]
fn kill_and_resume_with_torn_writes() {
    // Torn writes land a prefix of the data before dying — the recovery
    // path must discard the unsealed suffix, not just absent writes.
    let (want, writes, _) = reference();
    let schema = test_schema();
    let dir = crash_dir("sweep_torn", &schema);
    for k in (0..writes).step_by(3) {
        crash_and_resume(&dir, &schema, k, FaultKind::Torn, &want);
    }
}

#[test]
fn kill_and_resume_with_enospc() {
    let (want, writes, _) = reference();
    let schema = test_schema();
    let dir = crash_dir("sweep_enospc", &schema);
    for k in (0..writes).step_by(7) {
        crash_and_resume(&dir, &schema, k, FaultKind::Enospc, &want);
    }
}

#[test]
fn transient_write_faults_are_retried_through() {
    // EINTR-class blips are retried inside the I/O layer: the build
    // succeeds outright and still matches the reference bytes.
    let (want, writes, reference_report) = reference();
    let schema = test_schema();
    for k in [0, writes / 2, writes - 1] {
        let dir = crash_dir(&format!("transient_{k}"), &schema);
        let inj = Arc::new(FaultInjector::fail_nth_write(k, FaultKind::Transient { failures: 2 }));
        let catalog = Catalog::open_with_policy(&dir, inj.clone() as Arc<dyn IoPolicy>).unwrap();
        let r = durable_build(&catalog, &schema, false).unwrap();
        assert!(inj.fired(), "transient fault at write {k} must fire");
        assert_eq!(r.report.stats, reference_report.report.stats);
        assert_eq!(snapshot(&dir), want, "transient fault at write {k}");
    }
}

#[test]
fn resume_of_untouched_complete_build_is_a_no_op() {
    let dir = scratch_dir("noop");
    let schema = test_schema();
    let plain = Catalog::open(&dir).unwrap();
    store_fact(&plain, &schema, 250, 42);
    let first = durable_build(&plain, &schema, false).unwrap();
    let before = snapshot(&dir);
    let again = durable_build(&plain, &schema, true).unwrap();
    assert!(again.already_complete);
    assert_eq!(again.report.stats, first.report.stats);
    assert_eq!(snapshot(&dir), before);
}

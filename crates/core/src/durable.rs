//! Crash-safe cube construction: the durable variant of the §4 driver.
//!
//! [`build_cure_cube_durable`] wraps the partitioned CURE build with a
//! write-ahead journal (the [`BuildManifest`]) so that a crash at *any*
//! point — mid-write, mid-fsync, mid-rename — loses at most the work since
//! the last checkpoint, and a subsequent `resume` run completes the build
//! producing **byte-identical** cube files to a run that never crashed.
//! This holds at any thread count: the journal is a hook on the same
//! partition passes, *N* pass and finish step as
//! [`build_cure_cube`](crate::partition::build_cure_cube), and it
//! checkpoints after every applied partition whether the passes run
//! serially or on workers behind the in-order merger.
//!
//! ## Protocol
//!
//! 1. **Partitioning.** A `Partitioning`-phase manifest is published before
//!    the scan; a crash here restarts from scratch (the scan is one pass —
//!    there is nothing worth saving). The partitions *and* the aggregated
//!    relation *N* (persisted to `<part prefix>nrel`, so resume never
//!    re-scans the fact table) are flushed, fsynced, and journaled with
//!    their row counts; then the manifest moves to `Passes`.
//! 2. **Passes.** After each partition pass the signature pool is flushed,
//!    the sink is checkpointed ([`DiskSink::checkpoint`]: every relation
//!    fsynced), and the manifest journals the [`SinkCheckpoint`], the
//!    pool's [`PoolDecisionState`] and the completed-partition count. The
//!    journal is strictly write-behind: it never references a row that is
//!    not already on stable storage.
//! 3. **Complete.** After the *N* pass and `finish`, a final checkpoint
//!    fsyncs everything, the manifest records the final stats, and only
//!    then are the temporary partitions dropped.
//!
//! ## Recovery
//!
//! On `resume`, a `Passes`-phase manifest drives recovery: the sealed
//! inputs (partitions, *N*) are re-validated by a full checksummed scan;
//! every journaled cube relation is truncated back to its journaled row
//! count ([`HeapFile::repair_to_rows`] — sound because journaled rows were
//! fsynced before journaling, and append-only pages agree byte-for-byte on
//! sealed row slots under any torn rewrite); unjournaled relations are
//! dropped. The build then resumes from the first incomplete partition. If
//! validation fails (sealed inputs damaged externally), the build restarts
//! from scratch with a warning rather than erroring.

// The journaling hook runs on the parallel pool's merger, so a panic
// here would poison the pool: return typed errors instead (clippy.toml
// exempts the test modules).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;

use cure_storage::{Catalog, HeapFile, StorageError};

use crate::cube::{finish_build, BuildReport, CubeConfig, RunStats};
use crate::error::{CubeError, Result};
use crate::hierarchy::CubeSchema;
use crate::lattice::NodeCoder;
use crate::manifest::{BuildManifest, BuildPhase};
use crate::partition::{
    build_in_memory_if_fits, partition_and_build_n, run_partition_passes, select_partition_level,
    PartitionChoice, PartitionReport,
};
use crate::signature::{PoolDecisionState, SignaturePool};
use crate::sink::{aggregates_rel_name, DiskSink, SinkCheckpoint};
use crate::stats::{PhaseTimes, PoolCounters};
use crate::tuples::Tuples;

/// Options for [`build_cure_cube_durable`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Resume from an existing manifest instead of starting fresh.
    pub resume: bool,
    /// Worker threads for the partition passes. `1` (the default) runs the
    /// serial driver. `> 1` cubes partitions on a worker pool while a
    /// single merger applies the buffered results in partition order —
    /// same bytes, same per-partition checkpoints, so a crash at any
    /// thread count resumes from the first unfinished partition.
    pub threads: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions { resume: false, threads: 1 }
    }
}

/// What [`build_cure_cube_durable`] did, beyond the ordinary report.
#[derive(Debug, Clone)]
pub struct DurableReport {
    /// The ordinary build report.
    pub report: BuildReport,
    /// Whether an existing manifest was resumed (vs a fresh build).
    pub resumed: bool,
    /// The manifest was already `Complete`; nothing was rebuilt.
    pub already_complete: bool,
    /// Partition passes skipped because they were journaled as complete.
    pub partitions_skipped: usize,
    /// Cube relations truncated back to their journaled row counts.
    pub relations_repaired: usize,
    /// Unjournaled relations dropped during recovery.
    pub relations_dropped: usize,
}

struct Recovery {
    repaired: usize,
    dropped: usize,
}

enum RecoverError {
    /// Sealed state failed validation; a fresh build is the remedy.
    Invalid(String),
    /// An environmental failure (I/O) that a rebuild would hit too.
    Fatal(CubeError),
}

/// Crash-safe, resumable version of
/// [`build_cure_cube`](crate::partition::build_cure_cube).
///
/// `sink` must be a freshly created [`DiskSink`] over the same catalog;
/// CURE+ sinks are rejected (their TT bitmaps live in memory until
/// `finish`, so no intermediate state is durable).
pub fn build_cure_cube_durable(
    catalog: &Catalog,
    fact_rel: &str,
    schema: &CubeSchema,
    cfg: &CubeConfig,
    sink: &mut DiskSink<'_>,
    part_prefix: &str,
    opts: &DurableOptions,
) -> Result<DurableReport> {
    if !sink.supports_checkpoint() {
        return Err(CubeError::Config(
            "durable builds do not support CURE+ (TT bitmaps are not checkpointable)".into(),
        ));
    }
    let cube_prefix = sink.prefix().to_string();
    let fact = catalog.open_relation(fact_rel)?;
    let d = schema.num_dims();
    let y = schema.num_measures();

    // ---- resume: load + validate the journal --------------------------
    let mut recovered: Option<(BuildManifest, Recovery)> = None;
    if opts.resume {
        if let Some(m) = BuildManifest::load(catalog, &cube_prefix)? {
            match m.phase {
                BuildPhase::Complete => {
                    // Idempotent: the cube is fully on disk. Clean up any
                    // partitions left by a crash between the Complete
                    // manifest and the temp drops, then report.
                    let mut dropped = 0usize;
                    for (name, _) in &m.partitions {
                        if catalog.exists(name) {
                            catalog.drop_relation(name)?;
                            dropped += 1;
                        }
                    }
                    if !m.n_rel.is_empty() && catalog.exists(&m.n_rel) {
                        catalog.drop_relation(&m.n_rel)?;
                        dropped += 1;
                    }
                    let skipped = m.partitions.len();
                    return Ok(DurableReport {
                        report: complete_report(&m)?,
                        resumed: true,
                        already_complete: true,
                        partitions_skipped: skipped,
                        relations_repaired: 0,
                        relations_dropped: dropped,
                    });
                }
                BuildPhase::Passes => {
                    check_compat(&m, fact_rel, part_prefix, cfg, sink)?;
                    match recover_sealed_state(catalog, &m) {
                        Ok(rec) => recovered = Some((m, rec)),
                        Err(RecoverError::Invalid(why)) => {
                            eprintln!(
                                "cure-core: warning: cannot resume cube '{cube_prefix}': {why}; \
                                 rebuilding from scratch"
                            );
                        }
                        Err(RecoverError::Fatal(e)) => return Err(e),
                    }
                }
                BuildPhase::Partitioning => {
                    eprintln!(
                        "cure-core: warning: cube '{cube_prefix}' crashed while partitioning; \
                         nothing was sealed — rebuilding from scratch"
                    );
                }
            }
        }
    }
    let resumed = recovered.is_some();

    // ---- establish sealed inputs (recovered or freshly built) ---------
    let (mut manifest, part_names, n_tuples, skip, repaired, dropped);
    match recovered {
        Some((m, rec)) => {
            repaired = rec.repaired;
            dropped = rec.dropped;
            sink.restore_checkpoint(&m.sink)?;
            let n_heap = catalog.open_relation(&m.n_rel)?;
            n_tuples = Tuples::load_partition(&n_heap, d, y)?;
            part_names = m.partitions.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
            skip = m.completed_partitions;
            manifest = m;
        }
        None => {
            repaired = 0;
            dropped = 0;
            // Fresh start: wipe every trace of previous attempts so the
            // result is identical to a first build on a clean catalog.
            BuildManifest::remove(catalog, &cube_prefix)?;
            catalog.drop_prefix(&cube_prefix)?;
            if !part_prefix.starts_with(&cube_prefix) {
                catalog.drop_prefix(part_prefix)?;
            }

            // In-memory fast path: all-or-nothing, one Complete manifest.
            if let Some(report) = build_in_memory_if_fits(&fact, schema, cfg, sink)? {
                let cp = sink.checkpoint()?;
                let m = BuildManifest {
                    phase: BuildPhase::Complete,
                    cube_prefix,
                    part_prefix: part_prefix.to_string(),
                    fact_rel: fact_rel.to_string(),
                    dr: sink.dr(),
                    pool_capacity: cfg.pool_capacity,
                    min_support: cfg.min_support,
                    choice: PartitionChoice {
                        level: 0,
                        num_partitions: 0,
                        est_partition_bytes: 0,
                        est_n_rows: 0,
                        est_n_bytes: 0,
                    },
                    partitions: Vec::new(),
                    n_rel: String::new(),
                    n_rows: 0,
                    max_partition_rows: 0,
                    partition_secs: 0.0,
                    completed_partitions: 0,
                    counting_sorts: report.counting_sorts,
                    comparison_sorts: report.comparison_sorts,
                    pool: PoolDecisionState {
                        decided: cp.format,
                        flushes: report.pool_flushes,
                        total_signatures: report.signatures,
                        ..Default::default()
                    },
                    sink: cp,
                    stats: Some(report.stats.clone()),
                };
                m.save(catalog)?;
                return Ok(DurableReport {
                    report,
                    resumed: false,
                    already_complete: false,
                    partitions_skipped: 0,
                    relations_repaired: 0,
                    relations_dropped: 0,
                });
            }

            // Partitioned path. Publish intent first: a crash during the
            // scan leaves a Partitioning-phase manifest → clean restart.
            let choice = select_partition_level(
                schema,
                fact.num_rows(),
                Tuples::tuple_bytes(d, y),
                cfg.memory_budget_bytes,
            )?;
            let mut m = BuildManifest {
                phase: BuildPhase::Partitioning,
                cube_prefix,
                part_prefix: part_prefix.to_string(),
                fact_rel: fact_rel.to_string(),
                dr: sink.dr(),
                pool_capacity: cfg.pool_capacity,
                min_support: cfg.min_support,
                choice: choice.clone(),
                partitions: Vec::new(),
                n_rel: format!("{part_prefix}nrel"),
                n_rows: 0,
                max_partition_rows: 0,
                partition_secs: 0.0,
                completed_partitions: 0,
                counting_sorts: 0,
                comparison_sorts: 0,
                pool: PoolDecisionState::default(),
                sink: SinkCheckpoint::default(),
                stats: None,
            };
            m.save(catalog)?;

            let start = Instant::now();
            let (names, n, max_partition_rows) =
                partition_and_build_n(catalog, &fact, schema, &choice, part_prefix)?;
            m.partition_secs = start.elapsed().as_secs_f64();

            // Seal: fsync every partition, persist N, fsync the directory,
            // then journal the sealed row counts.
            let mut partitions = Vec::with_capacity(names.len());
            for name in &names {
                let rel = catalog.open_relation(name)?;
                rel.sync()?;
                partitions.push((name.clone(), rel.num_rows()));
            }
            let mut n_heap = catalog.create_or_replace(&m.n_rel, Tuples::partition_schema(d, y))?;
            n.store_partition(&mut n_heap)?;
            n_heap.sync()?;
            catalog.sync_dir()?;
            m.phase = BuildPhase::Passes;
            m.partitions = partitions;
            m.n_rows = n.len() as u64;
            m.max_partition_rows = max_partition_rows;
            m.save(catalog)?;

            n_tuples = n;
            part_names = names;
            skip = 0;
            manifest = m;
        }
    }

    // ---- partition passes, N pass, finish -----------------------------
    // One decision-carrying pool for the whole build, restored from the
    // journal on resume. Every partition is checkpointed once applied:
    // the pool is empty then (durable state must be self-contained), so
    // fsync everything and journal. The sort counters and the pool's
    // flush and signature totals are journaled with each checkpoint, so a
    // resumed build reports the totals of one that never crashed; phase
    // timers and the TT/NT/CAT counters are not (they never steer the
    // build, so the manifest stays lean) and cover only this run's work.
    let coder = NodeCoder::new(schema);
    let mut pool = SignaturePool::new(y, cfg.pool_capacity, cfg.cat_policy);
    pool.restore_decision(&manifest.pool)?;
    let mut totals = RunStats {
        counting_sorts: manifest.counting_sorts,
        comparison_sorts: manifest.comparison_sorts,
        ..RunStats::default()
    };
    run_partition_passes(
        catalog,
        schema,
        &coder,
        cfg,
        sink,
        &part_names,
        manifest.choice.level,
        opts.threads,
        skip,
        &mut pool,
        &mut totals,
        |sink, pool, i, totals| {
            manifest.sink = sink.checkpoint()?;
            manifest.pool = pool.decision_state();
            manifest.completed_partitions = i + 1;
            manifest.counting_sorts = totals.counting_sorts;
            manifest.comparison_sorts = totals.comparison_sorts;
            manifest.save(catalog)
        },
    )?;
    let partition = PartitionReport {
        choice: manifest.choice.clone(),
        n_rows: manifest.n_rows,
        max_partition_rows: manifest.max_partition_rows,
        partition_secs: manifest.partition_secs,
    };
    let report =
        finish_build(schema, &coder, cfg, &n_tuples, &mut pool, sink, totals, Some(partition))?;

    // ---- final fsync, Complete manifest, then drop temps --------------
    manifest.pool = pool.decision_state();
    manifest.sink = sink.checkpoint()?;
    manifest.counting_sorts = report.counting_sorts;
    manifest.comparison_sorts = report.comparison_sorts;
    manifest.completed_partitions = part_names.len();
    manifest.phase = BuildPhase::Complete;
    manifest.stats = Some(report.stats.clone());
    manifest.save(catalog)?;
    for name in &part_names {
        catalog.drop_relation(name)?;
    }
    catalog.drop_relation(&manifest.n_rel)?;

    Ok(DurableReport {
        report,
        resumed,
        already_complete: false,
        partitions_skipped: skip,
        relations_repaired: repaired,
        relations_dropped: dropped,
    })
}

/// Reject resuming with build options that would change the stored bytes.
fn check_compat(
    m: &BuildManifest,
    fact_rel: &str,
    part_prefix: &str,
    cfg: &CubeConfig,
    sink: &DiskSink<'_>,
) -> Result<()> {
    let mismatch = |what: &str, was: String, now: String| {
        Err(CubeError::Config(format!(
            "cannot resume: {what} changed since the original build ({was} → {now}); \
             rebuild without --resume"
        )))
    };
    if m.fact_rel != fact_rel {
        return mismatch("fact relation", m.fact_rel.clone(), fact_rel.to_string());
    }
    if m.part_prefix != part_prefix {
        return mismatch("partition prefix", m.part_prefix.clone(), part_prefix.to_string());
    }
    if m.pool_capacity != cfg.pool_capacity {
        return mismatch(
            "signature pool capacity",
            m.pool_capacity.to_string(),
            cfg.pool_capacity.to_string(),
        );
    }
    if m.min_support != cfg.min_support {
        return mismatch("min support", m.min_support.to_string(), cfg.min_support.to_string());
    }
    if m.dr != sink.dr() {
        return mismatch("DR variant", m.dr.to_string(), sink.dr().to_string());
    }
    Ok(())
}

/// Reconstruct the build report journaled by a `Complete` manifest.
fn complete_report(m: &BuildManifest) -> Result<BuildReport> {
    let stats = m
        .stats
        .clone()
        .ok_or_else(|| CubeError::Config("complete manifest lacks final stats".into()))?;
    let partition = if m.choice.num_partitions == 0 {
        None
    } else {
        Some(PartitionReport {
            choice: m.choice.clone(),
            n_rows: m.n_rows,
            max_partition_rows: m.max_partition_rows,
            partition_secs: m.partition_secs,
        })
    };
    Ok(BuildReport {
        stats,
        pool_flushes: m.pool.flushes,
        signatures: m.pool.total_signatures,
        counting_sorts: m.counting_sorts,
        comparison_sorts: m.comparison_sorts,
        // Phase timers and pool counters are per-run observability, not
        // journaled state: an already-complete build reports only what
        // survives in the manifest (the partitioning time).
        phases: PhaseTimes { partition_secs: m.partition_secs, ..Default::default() },
        pool: PoolCounters::default(),
        partition,
    })
}

/// Validate the sealed inputs and truncate the cube back to the journal.
fn recover_sealed_state(
    catalog: &Catalog,
    m: &BuildManifest,
) -> std::result::Result<Recovery, RecoverError> {
    let fatal = |e: CubeError| RecoverError::Fatal(e);

    // 1. Sealed inputs (partitions + N) must exist, pass a full checksummed
    //    scan, and hold exactly their journaled row counts.
    let mut sealed: Vec<(String, u64)> = Vec::with_capacity(m.partitions.len() + 1);
    sealed.push((m.n_rel.clone(), m.n_rows));
    sealed.extend(m.partitions.iter().cloned());
    for (name, rows) in &sealed {
        if !catalog.exists(name) {
            return Err(RecoverError::Invalid(format!("sealed relation '{name}' is missing")));
        }
        let rel = catalog
            .open_relation(name)
            .map_err(|e| RecoverError::Invalid(format!("sealed relation '{name}': {e}")))?;
        let count = rel
            .try_for_each_row(|_, _| Ok(()))
            .map_err(|e| RecoverError::Invalid(format!("sealed relation '{name}': {e}")))?;
        if count != *rows {
            return Err(RecoverError::Invalid(format!(
                "sealed relation '{name}' has {count} rows, {rows} journaled"
            )));
        }
    }

    // 2. Truncate every journaled cube relation back to its sealed rows.
    let policy = catalog.policy().clone();
    let mut journaled = cure_storage::hash::FxHashSet::default();
    let mut to_repair: Vec<(String, u64)> = m.sink.relations.clone();
    if m.sink.agg_rows > 0 {
        to_repair.push((aggregates_rel_name(&m.cube_prefix), m.sink.agg_rows));
    }
    let mut repaired = 0usize;
    for (name, rows) in &to_repair {
        journaled.insert(name.clone());
        if !catalog.exists(name) {
            return Err(RecoverError::Invalid(format!("journaled relation '{name}' is missing")));
        }
        let schema = catalog.relation_schema(name).map_err(|e| fatal(e.into()))?;
        match HeapFile::repair_to_rows(
            catalog.relation_heap_path(name),
            &schema,
            *rows,
            policy.as_ref(),
        ) {
            Ok(()) => repaired += 1,
            Err(StorageError::Corrupt(msg)) => {
                return Err(RecoverError::Invalid(format!("journaled relation '{name}': {msg}")))
            }
            Err(e) => return Err(fatal(e.into())),
        }
    }

    // 3. Drop relations created after the last checkpoint (unjournaled).
    let mut dropped = 0usize;
    for name in catalog.list().map_err(|e| fatal(e.into()))? {
        if !name.starts_with(&m.cube_prefix)
            || name.starts_with(&m.part_prefix)
            || journaled.contains(&name)
        {
            continue;
        }
        catalog.drop_relation(&name).map_err(|e| fatal(e.into()))?;
        dropped += 1;
    }
    catalog.sync_dir().map_err(|e| fatal(e.into()))?;
    Ok(Recovery { repaired, dropped })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::sync::Arc;

    use cure_storage::io::{FaultInjector, FaultKind, IoPolicy};

    use super::*;
    use crate::hierarchy::Dimension;

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cure_durable_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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

    /// Every file in the catalog directory, minus the build manifest
    /// (timings differ run to run) — the byte-identity comparison set.
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

    fn durable_build(
        catalog: &Catalog,
        schema: &CubeSchema,
        cfg: &CubeConfig,
        opts: &DurableOptions,
    ) -> Result<DurableReport> {
        let mut sink = DiskSink::new(catalog, "cube_", schema, false, false, None)?;
        build_cure_cube_durable(catalog, "facts", schema, cfg, &mut sink, "cube_tmp_", opts)
    }

    fn small_cfg() -> CubeConfig {
        CubeConfig { memory_budget_bytes: 8 << 10, ..CubeConfig::default() }
    }

    /// A fault-free reference build: fact + completed durable cube.
    fn reference_build(tag: &str, cfg: &CubeConfig) -> (std::path::PathBuf, DurableReport) {
        let dir = fresh_dir(tag);
        let schema = test_schema();
        let catalog = Catalog::open(&dir).unwrap();
        store_fact(&catalog, &schema, 1_000, 99);
        let report = durable_build(&catalog, &schema, cfg, &DurableOptions::default()).unwrap();
        (dir, report)
    }

    #[test]
    fn durable_partitioned_build_is_deterministic() {
        let cfg = small_cfg();
        let (dir_a, ra) = reference_build("det_a", &cfg);
        let (dir_b, rb) = reference_build("det_b", &cfg);
        assert!(ra.report.partition.is_some(), "budget must force partitioning");
        assert_eq!(ra.report.stats, rb.report.stats);
        assert_eq!(snapshot(&dir_a), snapshot(&dir_b));
        // Temporary partitions and the persisted N were dropped.
        let catalog = Catalog::open(&dir_a).unwrap();
        assert!(catalog.list().unwrap().iter().all(|n| !n.starts_with("cube_tmp_")));
    }

    #[test]
    fn durable_build_matches_plain_build_exactly() {
        // Both drivers flush the pool at every partition boundary, so the
        // durable build (checkpoints and all) emits byte-for-byte the
        // same cube as the plain driver — same flush counts too.
        let cfg = small_cfg();
        let (dir, r) = reference_build("vs_plain", &cfg);
        let schema = test_schema();
        let plain_dir = fresh_dir("vs_plain_plain");
        let catalog = Catalog::open(&plain_dir).unwrap();
        store_fact(&catalog, &schema, 1_000, 99);
        let mut sink = DiskSink::new(&catalog, "cube_", &schema, false, false, None).unwrap();
        let plain = crate::partition::build_cure_cube(
            &catalog,
            "facts",
            &schema,
            &cfg,
            &mut sink,
            "cube_tmp_",
            1,
        )
        .unwrap();
        assert_eq!(r.report.stats, plain.stats);
        assert_eq!(r.report.pool_flushes, plain.pool_flushes);
        assert_eq!(r.report.signatures, plain.signatures);
        assert_eq!(
            r.report.partition.as_ref().unwrap().choice,
            plain.partition.as_ref().unwrap().choice
        );
        assert_eq!(snapshot(&dir), snapshot(&plain_dir), "durable vs plain bytes");
    }

    #[test]
    fn in_memory_fast_path_journals_and_resumes_idempotently() {
        let dir = fresh_dir("fastpath");
        let schema = test_schema();
        let catalog = Catalog::open(&dir).unwrap();
        store_fact(&catalog, &schema, 300, 7);
        let cfg = CubeConfig::default(); // big budget: in-memory path
        let first = durable_build(&catalog, &schema, &cfg, &DurableOptions::default()).unwrap();
        assert!(first.report.partition.is_none());
        assert!(!first.resumed);
        let m = BuildManifest::load(&catalog, "cube_").unwrap().expect("manifest written");
        assert_eq!(m.phase, BuildPhase::Complete);
        let before = snapshot(&dir);
        let again = durable_build(
            &catalog,
            &schema,
            &cfg,
            &DurableOptions { resume: true, ..Default::default() },
        )
        .unwrap();
        assert!(again.already_complete);
        assert_eq!(again.report.stats, first.report.stats);
        assert_eq!(again.report.signatures, first.report.signatures);
        assert_eq!(snapshot(&dir), before, "idempotent resume must not touch the cube");
    }

    #[test]
    fn resume_after_injected_crash_is_byte_identical() {
        let cfg = small_cfg();
        let (ref_dir, ref_report) = reference_build("crash_ref", &cfg);
        let reference = snapshot(&ref_dir);
        let schema = test_schema();
        // A spread of crash points: during partitioning, during early and
        // late passes. (The exhaustive every-write sweep lives in the
        // top-level crash_recovery harness.)
        for k in [0u64, 3, 10, 25, 60, 120, 250] {
            let dir = fresh_dir(&format!("crash_k{k}"));
            {
                let plain = Catalog::open(&dir).unwrap();
                store_fact(&plain, &schema, 1_000, 99);
            }
            let inj = Arc::new(FaultInjector::fail_nth_write(k, FaultKind::Error).sticky());
            let faulty = Catalog::open_with_policy(&dir, inj.clone() as Arc<dyn IoPolicy>).unwrap();
            let err = durable_build(&faulty, &schema, &cfg, &DurableOptions::default());
            if !inj.fired() {
                // k beyond the build's total writes: the build succeeded.
                err.unwrap();
            } else {
                assert!(err.is_err(), "sticky fault at write {k} must abort the build");
                let recovered = Catalog::open(&dir).unwrap();
                let r = durable_build(
                    &recovered,
                    &schema,
                    &cfg,
                    &DurableOptions { resume: true, ..Default::default() },
                )
                .unwrap();
                assert!(r.resumed || r.partitions_skipped == 0);
                assert_eq!(r.report.stats, ref_report.report.stats, "crash at write {k}");
            }
            assert_eq!(snapshot(&dir), reference, "crash at write {k}");
        }
    }

    /// Tears the `target`-th header write of a cube relation (a `cube_`
    /// heap file outside the partition prefix), then fails every later
    /// write and fsync, as a process killed there would.
    #[derive(Debug)]
    struct TearNthHeader {
        target: u64,
        keep: usize,
        seen: std::sync::atomic::AtomicU64,
        torn: std::sync::Mutex<Option<std::path::PathBuf>>,
    }

    impl TearNthHeader {
        fn new(target: u64, keep: usize) -> Self {
            TearNthHeader { target, keep, seen: Default::default(), torn: Default::default() }
        }

        fn crashed(&self) -> bool {
            self.torn.lock().unwrap().is_some()
        }
    }

    impl IoPolicy for TearNthHeader {
        fn on_write(&self, path: &Path, offset: u64, _len: usize) -> cure_storage::WriteFault {
            use std::sync::atomic::Ordering;
            if self.crashed() {
                return cure_storage::WriteFault::Fail(std::io::Error::other("killed"));
            }
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
            let cube_header = offset == 0
                && path.extension().is_some_and(|e| e == "heap")
                && stem.starts_with("cube_")
                && !stem.starts_with("cube_tmp_");
            if cube_header && self.seen.fetch_add(1, Ordering::SeqCst) == self.target {
                *self.torn.lock().unwrap() = Some(path.to_path_buf());
                return cure_storage::WriteFault::Torn { keep: self.keep };
            }
            cure_storage::WriteFault::Proceed
        }

        fn on_fsync(&self, _path: &Path) -> Option<std::io::Error> {
            self.crashed().then(|| std::io::Error::other("killed"))
        }
    }

    #[test]
    fn torn_header_of_an_unjournaled_relation_is_dropped_on_resume() {
        let cfg = small_cfg();
        let (ref_dir, _) = reference_build("torn_hdr_ref", &cfg);
        let reference = snapshot(&ref_dir);
        let schema = test_schema();
        let headers = {
            let dir = fresh_dir("torn_hdr_count");
            store_fact(&Catalog::open(&dir).unwrap(), &schema, 1_000, 99);
            let counter = Arc::new(TearNthHeader::new(u64::MAX, 0));
            let counted =
                Catalog::open_with_policy(&dir, counter.clone() as Arc<dyn IoPolicy>).unwrap();
            durable_build(&counted, &schema, &cfg, &DurableOptions::default()).unwrap();
            counter.seen.load(std::sync::atomic::Ordering::SeqCst)
        };
        // Tear a header mid-build and the last one, keeping part of the
        // magic or all of the schema text: both leave the slot short.
        for (k, keep) in [(headers / 2, 5), (headers - 1, 4096)] {
            let dir = fresh_dir(&format!("torn_hdr_{k}"));
            store_fact(&Catalog::open(&dir).unwrap(), &schema, 1_000, 99);
            let policy = Arc::new(TearNthHeader::new(k, keep));
            let faulty =
                Catalog::open_with_policy(&dir, policy.clone() as Arc<dyn IoPolicy>).unwrap();
            assert!(durable_build(&faulty, &schema, &cfg, &DurableOptions::default()).is_err());
            drop(faulty);
            let torn = policy.torn.lock().unwrap().clone().expect("header write torn");
            assert_eq!(std::fs::metadata(&torn).unwrap().len(), keep as u64);
            let catalog = Catalog::open(&dir).unwrap();
            let m = BuildManifest::load(&catalog, "cube_").unwrap().expect("journal");
            assert_eq!(m.phase, BuildPhase::Passes, "header {k} torn after a checkpoint");
            let stem = torn.file_stem().unwrap().to_string_lossy().into_owned();
            assert!(m.sink.relations.iter().all(|(n, _)| *n != stem), "{stem} is unjournaled");
            assert!(catalog.open_relation(&stem).is_err(), "torn header must not open");
            let r = durable_build(
                &catalog,
                &schema,
                &cfg,
                &DurableOptions { resume: true, ..Default::default() },
            )
            .unwrap();
            assert!(r.resumed && r.relations_dropped > 0, "header {k}: nothing dropped on resume");
            assert_eq!(snapshot(&dir), reference, "torn header {k}");
        }
    }

    #[test]
    fn crash_then_fresh_rebuild_also_matches() {
        let cfg = small_cfg();
        let (ref_dir, _) = reference_build("fresh_ref", &cfg);
        let reference = snapshot(&ref_dir);
        let schema = test_schema();
        let dir = fresh_dir("fresh_rebuild");
        {
            let plain = Catalog::open(&dir).unwrap();
            store_fact(&plain, &schema, 1_000, 99);
        }
        let inj = Arc::new(FaultInjector::fail_nth_write(40, FaultKind::Error).sticky());
        let faulty = Catalog::open_with_policy(&dir, inj.clone() as Arc<dyn IoPolicy>).unwrap();
        assert!(durable_build(&faulty, &schema, &cfg, &DurableOptions::default()).is_err());
        assert!(inj.fired());
        // resume: false wipes the partial state and rebuilds from scratch.
        let recovered = Catalog::open(&dir).unwrap();
        let r = durable_build(&recovered, &schema, &cfg, &DurableOptions::default()).unwrap();
        assert!(!r.resumed);
        assert_eq!(snapshot(&dir), reference);
    }

    #[test]
    fn resume_rejects_changed_build_options() {
        let cfg = small_cfg();
        let (dir, _) = reference_build("compat", &cfg);
        let catalog = Catalog::open(&dir).unwrap();
        // Rewind the manifest to mid-build so resume must check options.
        let mut m = BuildManifest::load(&catalog, "cube_").unwrap().unwrap();
        m.phase = BuildPhase::Passes;
        m.save(&catalog).unwrap();
        let bad = CubeConfig { min_support: cfg.min_support + 5, ..cfg.clone() };
        let err = durable_build(
            &catalog,
            &schema_of(&m),
            &bad,
            &DurableOptions { resume: true, ..Default::default() },
        )
        .unwrap_err();
        assert!(matches!(err, CubeError::Config(_)), "got {err:?}");
    }

    fn schema_of(_m: &BuildManifest) -> CubeSchema {
        test_schema()
    }

    #[test]
    fn durable_rejects_cure_plus() {
        let dir = fresh_dir("plus");
        let schema = test_schema();
        let catalog = Catalog::open(&dir).unwrap();
        store_fact(&catalog, &schema, 100, 3);
        let mut sink = DiskSink::new(&catalog, "cube_", &schema, false, true, None).unwrap();
        let err = build_cure_cube_durable(
            &catalog,
            "facts",
            &schema,
            &CubeConfig::default(),
            &mut sink,
            "cube_tmp_",
            &DurableOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CubeError::Config(_)));
    }

    #[test]
    fn parallel_durable_build_is_byte_identical_to_serial() {
        // The merger applies worker runs in partition order through one
        // decision-carrying pool, so a parallel durable build emits
        // byte-for-byte the serial cube at every thread count.
        let cfg = small_cfg();
        let (serial_dir, serial) = reference_build("par_serial", &cfg);
        let reference = snapshot(&serial_dir);
        for threads in [2usize, 4, 8] {
            let dir = fresh_dir(&format!("par_threads{threads}"));
            let schema = test_schema();
            let catalog = Catalog::open(&dir).unwrap();
            store_fact(&catalog, &schema, 1_000, 99);
            let r =
                durable_build(&catalog, &schema, &cfg, &DurableOptions { resume: false, threads })
                    .unwrap();
            assert_eq!(r.report.stats, serial.report.stats, "threads={threads}");
            assert_eq!(r.report.pool_flushes, serial.report.pool_flushes, "threads={threads}");
            assert_eq!(r.report.signatures, serial.report.signatures, "threads={threads}");
            assert_eq!(snapshot(&dir), reference, "threads={threads} bytes");
            // The parallel driver still finishes Complete and is resumable.
            let again =
                durable_build(&catalog, &schema, &cfg, &DurableOptions { resume: true, threads })
                    .unwrap();
            assert!(again.already_complete);
        }
    }

    #[test]
    fn resumed_report_keeps_journaled_totals_and_counts_only_its_own_run() {
        // The sort, flush and signature totals are journaled with every
        // checkpoint, so a resumed build reports those of a build that
        // never crashed. The TT/NT/CAT counters are not journaled: they
        // count exactly the rows this run wrote after the checkpoint.
        let cfg = small_cfg();
        let (_, clean) = reference_build("acct_ref", &cfg);
        let clean = clean.report;
        assert_eq!(clean.pool.nt_written, clean.stats.nt_tuples);
        assert_eq!(clean.pool.cat_tuples, clean.stats.cat_tuples);
        assert_eq!(clean.pool.tt_prunes, clean.stats.tt_tuples);
        let schema = test_schema();
        for threads in [1usize, 4] {
            let fresh = DurableOptions { resume: false, threads };
            let writes = {
                let dir = fresh_dir(&format!("acct_count{threads}"));
                {
                    let plain = Catalog::open(&dir).unwrap();
                    store_fact(&plain, &schema, 1_000, 99);
                }
                let counter = Arc::new(FaultInjector::counting());
                let counted =
                    Catalog::open_with_policy(&dir, counter.clone() as Arc<dyn IoPolicy>).unwrap();
                durable_build(&counted, &schema, &cfg, &fresh).unwrap();
                counter.writes()
            };
            let mut skipped_any = false;
            for k in [writes / 4, writes / 2, writes * 3 / 4] {
                let at = format!("threads={threads}, crash at write {k} of {writes}");
                let dir = fresh_dir(&format!("acct_t{threads}_k{k}"));
                {
                    let plain = Catalog::open(&dir).unwrap();
                    store_fact(&plain, &schema, 1_000, 99);
                }
                let inj = Arc::new(FaultInjector::fail_nth_write(k, FaultKind::Error).sticky());
                let faulty =
                    Catalog::open_with_policy(&dir, inj.clone() as Arc<dyn IoPolicy>).unwrap();
                assert!(durable_build(&faulty, &schema, &cfg, &fresh).is_err(), "{at}");
                drop(faulty);
                let recovered = Catalog::open(&dir).unwrap();
                let journaled = BuildManifest::load(&recovered, "cube_")
                    .unwrap()
                    .filter(|m| m.phase != BuildPhase::Partitioning)
                    .map(|m| m.sink)
                    .unwrap_or_default();
                let r = durable_build(
                    &recovered,
                    &schema,
                    &cfg,
                    &DurableOptions { resume: true, threads },
                )
                .unwrap();
                skipped_any |= r.partitions_skipped > 0;
                let got = &r.report;
                assert_eq!(got.counting_sorts, clean.counting_sorts, "{at}");
                assert_eq!(got.comparison_sorts, clean.comparison_sorts, "{at}");
                assert_eq!(got.pool_flushes, clean.pool_flushes, "{at}");
                assert_eq!(got.signatures, clean.signatures, "{at}");
                assert_eq!(
                    got.pool.nt_written,
                    clean.stats.nt_tuples - journaled.nt_tuples,
                    "{at}"
                );
                assert_eq!(
                    got.pool.cat_tuples,
                    clean.stats.cat_tuples - journaled.cat_tuples,
                    "{at}"
                );
                assert_eq!(got.pool.tt_prunes, clean.stats.tt_tuples - journaled.tt_tuples, "{at}");
            }
            assert!(skipped_any, "threads={threads}: no crash point resumed past a checkpoint");
        }
    }

    #[test]
    fn parallel_durable_crash_resumes_only_unfinished_partitions() {
        // Kill a 4-thread durable build at a write index past the first
        // few checkpoints; resume must skip the journaled partitions and
        // still land on the fault-free bytes.
        let cfg = small_cfg();
        let (ref_dir, _) = reference_build("par_crash_ref", &cfg);
        let reference = snapshot(&ref_dir);
        let schema = test_schema();
        // Count the build's writes so the fault points cover early,
        // middle and late stages whatever the exact write count is.
        let writes = {
            let dir = fresh_dir("par_crash_count");
            {
                let plain = Catalog::open(&dir).unwrap();
                store_fact(&plain, &schema, 1_000, 99);
            }
            let counter = Arc::new(FaultInjector::counting());
            let counted =
                Catalog::open_with_policy(&dir, counter.clone() as Arc<dyn IoPolicy>).unwrap();
            durable_build(&counted, &schema, &cfg, &DurableOptions { resume: false, threads: 4 })
                .unwrap();
            counter.writes()
        };
        let mut skipped_any = false;
        for k in [writes / 4, writes / 2, writes - 2] {
            let dir = fresh_dir(&format!("par_crash{k}"));
            {
                let plain = Catalog::open(&dir).unwrap();
                store_fact(&plain, &schema, 1_000, 99);
            }
            let inj = Arc::new(FaultInjector::fail_nth_write(k, FaultKind::Error).sticky());
            let faulty = Catalog::open_with_policy(&dir, inj.clone() as Arc<dyn IoPolicy>).unwrap();
            let died = durable_build(
                &faulty,
                &schema,
                &cfg,
                &DurableOptions { resume: false, threads: 4 },
            );
            assert!(inj.fired(), "write {k} must exist in the build");
            assert!(died.is_err(), "sticky fault at write {k} must abort");
            drop(faulty);
            let recovered = Catalog::open(&dir).unwrap();
            let r = durable_build(
                &recovered,
                &schema,
                &cfg,
                &DurableOptions { resume: true, threads: 4 },
            )
            .unwrap();
            assert!(r.resumed, "crash at write {k} must resume, not rebuild");
            skipped_any |= r.partitions_skipped > 0;
            assert_eq!(snapshot(&dir), reference, "crash at write {k}");
        }
        assert!(skipped_any, "at least one crash point must land past a partition checkpoint");
    }
}

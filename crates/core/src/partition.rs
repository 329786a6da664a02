//! External partitioning and the out-of-core driver (§4, Figure 13's
//! `Algorithm CURE`).
//!
//! When the fact table exceeds the memory budget, CURE cannot simply
//! partition on the first dimension's *top* level: coarse levels have tiny
//! cardinalities (the paper's example: `|A2| = 5` values cannot yield the
//! ≥10 memory-sized sound partitions a 10 GB table needs). Instead CURE
//! picks the **maximum** level `L` of dimension 0 such that
//!
//! 1. partitioning on `A_L` can produce memory-sized sound partitions
//!    (`⌈|R|/|M|⌉ ≤ |A_L|`, observation 1), and
//! 2. the aggregated relation `N = A_{L+1}·B_0·C_0·…` — built *during* the
//!    single partitioning scan with one hash table — fits in memory
//!    (`|N| ≈ |R|·|A_{L+1}|/|A_0| ≤ |M|`, observation 2).
//!
//! The partitions then produce every node containing `A_i, i ∈ [0, L]`,
//! and `N` produces all the rest (observation 3) — 2 reads + 1 write of
//! `R` in total, instead of the `D+1` reads and `D` writes of naive
//! per-dimension partitioning.

// A worker panic would poison the parallel build pool, so the build path
// must return typed errors instead of panicking (clippy.toml exempts the
// test modules).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;

use cure_storage::hash::FxHashMap;
use cure_storage::{Catalog, HeapFile, Schema};

use crate::cube::{finish_build, BuildReport, CubeBuilder, CubeConfig, Exec, RunStats};
use crate::error::{CubeError, Result};
use crate::hierarchy::{CubeSchema, LevelIdx};
use crate::lattice::NodeCoder;
use crate::signature::{SealedFlush, SignaturePool};
use crate::sink::CubeSink;
use crate::tuples::Tuples;

/// The outcome of partition-level selection (the paper's Table 1 columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionChoice {
    /// Chosen level `L` of dimension 0.
    pub level: LevelIdx,
    /// Number of sound partitions to create (`⌈|R|/|M|⌉`).
    pub num_partitions: usize,
    /// Expected bytes per partition (uniformity assumption).
    pub est_partition_bytes: u64,
    /// Estimated rows of `N` (`|R|·|A_{L+1}|/|A_0|`).
    pub est_n_rows: u64,
    /// Estimated bytes of `N`.
    pub est_n_bytes: u64,
}

/// What actually happened during a partitioned build.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// The selection that was made.
    pub choice: PartitionChoice,
    /// Actual rows in `N`.
    pub n_rows: u64,
    /// Rows in the largest partition (skew indicator).
    pub max_partition_rows: u64,
    /// Seconds spent in the partitioning scan.
    pub partition_secs: f64,
}

/// Select the partitioning level `L` for dimension 0 (§4).
///
/// `num_rows`/`tuple_bytes` describe the fact table's in-memory footprint;
/// `budget_bytes` is `|M|`. Scans levels from the top down and returns the
/// **maximum** feasible one; errors when none exists (the paper's rare
/// case, handled there by partitioning on dimension pairs — out of scope).
pub fn select_partition_level(
    schema: &CubeSchema,
    num_rows: u64,
    tuple_bytes: usize,
    budget_bytes: usize,
) -> Result<PartitionChoice> {
    let dim0 = &schema.dims()[0];
    if !dim0.is_linear() {
        return Err(CubeError::Partitioning(
            "partitioning requires a linear hierarchy on dimension 0 (reorder dimensions)".into(),
        ));
    }
    let r_bytes = num_rows.saturating_mul(tuple_bytes as u64);
    let budget = budget_bytes as u64;
    if budget == 0 {
        return Err(CubeError::Partitioning("zero memory budget".into()));
    }
    let needed = r_bytes.div_ceil(budget).max(1);
    let leaf_card = dim0.leaf_cardinality() as u64;
    let top = dim0.top_level();
    for l in (0..=top).rev() {
        let card_l = dim0.cardinality(l) as u64;
        if needed > card_l {
            continue; // cannot form enough sound partitions at this level
        }
        // |N| ≈ |R| · |A_{L+1}| / |A_0|; A_{top+1} ≡ ALL with cardinality 1.
        let card_l1 = if l == top { 1 } else { dim0.cardinality(l + 1) as u64 };
        let est_n_rows = (num_rows.saturating_mul(card_l1) / leaf_card.max(1)).max(1);
        // Checked: a huge |R| times a wide tuple must register as "does
        // not fit", not wrap around and look feasible.
        let est_n_bytes = match est_n_rows.checked_mul(tuple_bytes as u64) {
            Some(b) => b,
            None => continue,
        };
        if est_n_bytes <= budget {
            return Ok(PartitionChoice {
                level: l,
                num_partitions: needed as usize,
                est_partition_bytes: r_bytes / needed,
                est_n_rows,
                est_n_bytes,
            });
        }
    }
    Err(CubeError::Partitioning(format!(
        "no feasible partitioning level on dimension {} for |R| = {} bytes, |M| = {} bytes \
         (the pairs-of-dimensions extension of §4 is not implemented)",
        dim0.name(),
        r_bytes,
        budget
    )))
}

/// Build a cube from an on-disk fact relation, partitioning when it does
/// not fit the memory budget — the complete `Algorithm CURE`.
///
/// The per-partition passes run on `threads` workers; `1` runs them one
/// after another on the calling thread. The output is **byte-identical**
/// at any thread count (see `run_partition_passes`). `part_prefix`
/// namespaces the temporary partition relations, which are dropped
/// before returning.
pub fn build_cure_cube(
    catalog: &Catalog,
    fact_rel: &str,
    schema: &CubeSchema,
    cfg: &CubeConfig,
    sink: &mut dyn CubeSink,
    part_prefix: &str,
    threads: usize,
) -> Result<BuildReport> {
    let fact = catalog.open_relation(fact_rel)?;
    if let Some(report) = build_in_memory_if_fits(&fact, schema, cfg, sink)? {
        return Ok(report);
    }
    // Line 10: select L; line 11: partition and build N in one scan.
    let choice = select_partition_level(
        schema,
        fact.num_rows(),
        Tuples::tuple_bytes(schema.num_dims(), schema.num_measures()),
        cfg.memory_budget_bytes,
    )?;
    let start = Instant::now();
    let (part_names, n_tuples, max_partition_rows) =
        partition_and_build_n(catalog, &fact, schema, &choice, part_prefix)?;
    let partition = PartitionReport {
        n_rows: n_tuples.len() as u64,
        max_partition_rows,
        partition_secs: start.elapsed().as_secs_f64(),
        choice,
    };

    let coder = NodeCoder::new(schema);
    let mut pool = SignaturePool::new(schema.num_measures(), cfg.pool_capacity, cfg.cat_policy);
    let mut totals = RunStats::default();
    // Lines 12–16: the partition passes; lines 17–22: the N pass and the
    // final flush.
    run_partition_passes(
        catalog,
        schema,
        &coder,
        cfg,
        sink,
        &part_names,
        partition.choice.level,
        threads,
        0,
        &mut pool,
        &mut totals,
        |_, _, _, _| Ok(()),
    )?;
    let report =
        finish_build(schema, &coder, cfg, &n_tuples, &mut pool, sink, totals, Some(partition))?;
    for name in &part_names {
        catalog.drop_relation(name)?;
    }
    Ok(report)
}

/// Lines 6–8 of `Algorithm CURE`: when the fact relation fits the memory
/// budget, cube it in memory and return the report; `None` means the
/// build must partition.
pub(crate) fn build_in_memory_if_fits(
    fact: &HeapFile,
    schema: &CubeSchema,
    cfg: &CubeConfig,
    sink: &mut dyn CubeSink,
) -> Result<Option<BuildReport>> {
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let mem_needed = fact.num_rows().saturating_mul(Tuples::tuple_bytes(d, y) as u64);
    if mem_needed > cfg.memory_budget_bytes as u64 {
        return Ok(None);
    }
    let t = Tuples::load_fact(fact, d, y)?;
    CubeBuilder::new(schema, cfg.clone()).build_in_memory(&t, sink).map(Some)
}

/// One scan of the fact relation: route each tuple to its sound partition
/// (on dimension 0 at level `L`) and hash-aggregate `N` in memory.
pub(crate) fn partition_and_build_n(
    catalog: &Catalog,
    fact: &HeapFile,
    schema: &CubeSchema,
    choice: &PartitionChoice,
    part_prefix: &str,
) -> Result<(Vec<String>, Tuples, u64)> {
    let d = schema.num_dims();
    let y = schema.num_measures();
    let dim0 = &schema.dims()[0];
    let top = dim0.top_level();
    let l = choice.level;
    let project_out_dim0 = l == top;
    let p = choice.num_partitions;
    let part_schema = Tuples::partition_schema(d, y);
    let fact_schema = fact.schema().clone();

    // Create the partition relations up front (kept open: `p` is bounded
    // by ⌈|R|/|M|⌉, small at any realistic budget).
    let mut names = Vec::with_capacity(p);
    let mut parts = Vec::with_capacity(p);
    for i in 0..p {
        let name = format!("{part_prefix}part{i}");
        parts.push(catalog.create_or_replace(&name, part_schema.clone())?);
        names.push(name);
    }

    // N accumulator: key = (A at L+1 | absent, other dims at leaf level).
    struct NAcc {
        aggs: Vec<i64>,
        count: u64,
        min_rowid: u64,
        rep_leaf0: u32,
    }
    let mut n_map: FxHashMap<Vec<u32>, NAcc> = FxHashMap::default();

    let mut key_scratch: Vec<u32> = vec![0; d];
    let mut part_row = vec![0u8; part_schema.row_width()];
    let mut max_rows_per_part = vec![0u64; p];
    fact.try_for_each_row(|rowid, row| {
        // Decode leaf dims and measures straight from the raw row.
        let leaf0 = Schema::read_u32_at(row, fact_schema.offset(0));
        // Route to the sound partition: all tuples with the same A_L value
        // share a partition.
        let v_l = dim0.value_at(l, leaf0);
        let part = (v_l as usize) % p;
        // Partition row: dims ++ measures ++ count(1) ++ rowid.
        debug_assert_eq!(row.len() + 16, part_row.len());
        part_row[..row.len()].copy_from_slice(row);
        part_row[row.len()..row.len() + 8].copy_from_slice(&1u64.to_le_bytes());
        part_row[row.len() + 8..].copy_from_slice(&rowid.to_le_bytes());
        parts[part].append_raw(&part_row)?;
        max_rows_per_part[part] += 1;

        // Accumulate N.
        key_scratch[0] = if project_out_dim0 { 0 } else { dim0.value_at(l + 1, leaf0) };
        for (dd, k) in key_scratch.iter_mut().enumerate().take(d).skip(1) {
            *k = Schema::read_u32_at(row, fact_schema.offset(dd));
        }
        match n_map.get_mut(key_scratch.as_slice()) {
            Some(acc) => {
                let fns = schema.agg_fns();
                for (m, a) in acc.aggs.iter_mut().enumerate() {
                    fns[m].merge(a, Schema::read_i64_at(row, fact_schema.offset(d + m)));
                }
                acc.count += 1;
                acc.min_rowid = acc.min_rowid.min(rowid);
            }
            None => {
                let aggs: Vec<i64> =
                    (0..y).map(|m| Schema::read_i64_at(row, fact_schema.offset(d + m))).collect();
                n_map.insert(
                    key_scratch.clone(),
                    NAcc { aggs, count: 1, min_rowid: rowid, rep_leaf0: leaf0 },
                );
            }
        }
        Ok(())
    })?;
    for part in parts.iter_mut() {
        part.flush()?;
    }
    let max_partition_rows = max_rows_per_part.iter().copied().max().unwrap_or(0);

    // Materialize N as in-memory tuples. Dimension 0 carries the
    // *representative leaf* of its level-(L+1) group: every lookup the
    // N-pass performs is at level ≥ L+1, where all leaves of the group
    // agree (linear hierarchy), so the representative is sound.
    let mut n_tuples = Tuples::with_capacity(d, y, n_map.len());
    let mut dims = vec![0u32; d];
    for (key, acc) in n_map {
        dims[0] = if project_out_dim0 { 0 } else { acc.rep_leaf0 };
        dims[1..d].copy_from_slice(&key[1..d]);
        n_tuples.push(&dims, &acc.aggs, acc.count, acc.min_rowid);
    }
    Ok((names, n_tuples, max_partition_rows))
}

// ---------------------------------------------------------------------
// Partition passes (lines 12–16): serial, or recorded on workers and
// merged in order.
//
// Every sound partition can be cubed independently (§4), but three pieces
// of build state are order-sensitive: the §5.1 CAT-format statistics, the
// `AGGREGATES` row-id counter, and the append order of every node
// relation. Rather than serializing workers behind locks (which scrambles
// all three), workers run the Figure 13 recursion against *buffered*
// state — TT writes into a local vector, pool flushes sealed by a
// recording [`SignaturePool`] — and a single merger replays completed
// partitions strictly in partition order against the real sink and one
// decision-carrying pool. Since the pool is flushed at every partition
// boundary, the flush schedule is a pure function of the partition
// contents, so the merger performs the exact same writes in the exact
// same order as the serial loop: the output is byte-identical, at any
// thread count.

/// The buffered output of cubing one partition on a worker.
pub(crate) struct PartitionRun {
    /// TT writes in emission order.
    tts: Vec<(crate::lattice::NodeId, u64)>,
    /// The pool's sealed flushes, in flush order.
    flushes: Vec<SealedFlush>,
    stats: RunStats,
}

/// A [`CubeSink`] that buffers TT writes and rejects everything else.
/// Workers pair it with a recording pool, which never writes NTs or CATs.
struct RecordingSink {
    y: usize,
    tts: Vec<(crate::lattice::NodeId, u64)>,
}

impl CubeSink for RecordingSink {
    fn n_measures(&self) -> usize {
        self.y
    }

    fn set_cat_format(&mut self, _f: crate::sink::CatFormat) {}

    fn cat_format(&self) -> Option<crate::sink::CatFormat> {
        None
    }

    fn write_tt(&mut self, node: crate::lattice::NodeId, rowid: u64) -> Result<()> {
        self.tts.push((node, rowid));
        Ok(())
    }

    fn tts_written(&self) -> u64 {
        self.tts.len() as u64
    }

    fn write_nt(&mut self, _: crate::lattice::NodeId, _: u64, _: &[i64]) -> Result<()> {
        Err(CubeError::Config("recording sink accepts only TT writes".into()))
    }

    fn write_cat_group(&mut self, _: &[(crate::lattice::NodeId, u64)], _: &[i64]) -> Result<()> {
        Err(CubeError::Config("recording sink accepts only TT writes".into()))
    }

    fn finish(&mut self) -> Result<crate::sink::SinkStats> {
        Err(CubeError::Config("recording sink cannot finish".into()))
    }
}

/// Cube one partition through `pool` into `sink`, entering dimension 0 at
/// the partitioning level, then flush the pool: the per-partition flush
/// boundary. CATs spanning a boundary are stored redundantly — the same
/// working-set trade-off as the bounded pool itself — in exchange for
/// output that does not depend on the thread count, and for a durable
/// build that can checkpoint between partitions.
#[allow(clippy::too_many_arguments)]
fn cube_partition<S: CubeSink + ?Sized>(
    catalog: &Catalog,
    name: &str,
    schema: &CubeSchema,
    coder: &NodeCoder,
    cfg: &CubeConfig,
    level: LevelIdx,
    pool: &mut SignaturePool,
    sink: &mut S,
) -> Result<RunStats> {
    let rel = catalog.open_relation(name)?;
    if rel.num_rows() == 0 {
        return Ok(RunStats::default());
    }
    let t = Tuples::load_partition(&rel, schema.num_dims(), schema.num_measures())?;
    let mut exec = Exec::new(schema, coder, &t, cfg.min_support, cfg.sort_policy);
    exec.set_dim0_level(level);
    let t0 = Instant::now();
    exec.run_partition_pass(pool, sink)?;
    pool.flush(sink)?;
    Ok(exec.run_stats(t0.elapsed().as_secs_f64()))
}

/// Cube one partition into a buffered [`PartitionRun`] (worker side).
fn cube_partition_recorded(
    catalog: &Catalog,
    name: &str,
    schema: &CubeSchema,
    coder: &NodeCoder,
    cfg: &CubeConfig,
    level: LevelIdx,
) -> Result<PartitionRun> {
    let y = schema.num_measures();
    // Full pool capacity, not capacity/threads: the worker must reproduce
    // the serial loop's flush boundaries exactly (its pool is empty at
    // every partition start thanks to the per-partition flush, so a fresh
    // full-capacity pool sees identical push sequences).
    let mut pool = SignaturePool::new(y, cfg.pool_capacity, cfg.cat_policy).recording();
    let mut rec = RecordingSink { y, tts: Vec::new() };
    let stats = cube_partition(catalog, name, schema, coder, cfg, level, &mut pool, &mut rec)?;
    Ok(PartitionRun { tts: rec.tts, flushes: pool.take_recorded(), stats })
}

/// Coordination state shared between workers and the merger.
struct MergeState {
    /// Completed, not-yet-merged runs by partition index.
    runs: std::collections::BTreeMap<usize, PartitionRun>,
    /// Partitions merged so far (monotone; workers gate on it).
    merged: usize,
    /// First failure anywhere in the pool; stops everyone.
    failed: Option<CubeError>,
}

/// Run the per-partition passes of a partitioned build into `sink`
/// through `pool`, the build's one decision-carrying pool (possibly
/// restored from a manifest). Partitions `0..skip` are assumed already
/// applied (durable resume). Each partition's counters are added to
/// `totals`, then [`CubeSink::end_partition`] flushes the sink's
/// buffers (in both paths, so the stored bytes do not depend on the
/// driver), and `after_partition(sink, pool, i, totals)` runs once
/// partition `i` is fully applied and the pool is empty — the durable
/// build checkpoints there.
///
/// At `threads == 1` the partitions are cubed one after another on the
/// calling thread: the reference loop the parallel path must reproduce.
/// Above that, a fixed pool of `threads` workers cubes partitions into
/// buffered runs and the calling thread, as the single merger, applies
/// completed runs strictly in partition order: every order-sensitive
/// effect — NT/CAT classification, the §5.1 format decision,
/// `AGGREGATES` row-id assignment, relation appends — happens there, in
/// the serial loop's order. A backpressure window of `2 × threads`
/// partitions bounds the memory held in unmerged runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_partition_passes<S, F>(
    catalog: &Catalog,
    schema: &CubeSchema,
    coder: &NodeCoder,
    cfg: &CubeConfig,
    sink: &mut S,
    part_names: &[String],
    level: LevelIdx,
    threads: usize,
    skip: usize,
    pool: &mut SignaturePool,
    totals: &mut RunStats,
    mut after_partition: F,
) -> Result<()>
where
    S: CubeSink + ?Sized,
    F: FnMut(&mut S, &mut SignaturePool, usize, &RunStats) -> Result<()>,
{
    let n_parts = part_names.len();
    if threads <= 1 {
        for (i, name) in part_names.iter().enumerate().skip(skip) {
            totals.add(cube_partition(catalog, name, schema, coder, cfg, level, pool, sink)?);
            sink.end_partition()?;
            after_partition(sink, pool, i, totals)?;
        }
        return Ok(());
    }
    if skip >= n_parts {
        return Ok(());
    }
    let threads = threads.min(n_parts - skip);
    // Backpressure window: a worker may run at most this many partitions
    // ahead of the merge frontier, bounding buffered-run memory. The
    // window never deadlocks: claim indices are monotone, so the worker
    // holding the next-to-merge partition always satisfies `i < merged +
    // window` (window ≥ 1) and can proceed.
    let window = threads * 2;
    let next = std::sync::atomic::AtomicUsize::new(skip);
    let state = parking_lot::Mutex::new(MergeState {
        runs: std::collections::BTreeMap::new(),
        merged: skip,
        failed: None,
    });
    let cv = parking_lot::Condvar::new();

    let fail = |e: CubeError| {
        let mut st = state.lock();
        if st.failed.is_none() {
            st.failed = Some(e);
        }
        cv.notify_all();
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n_parts {
                    break;
                }
                {
                    let mut st = state.lock();
                    while st.failed.is_none() && i >= st.merged + window {
                        cv.wait(&mut st);
                    }
                    if st.failed.is_some() {
                        break;
                    }
                }
                match cube_partition_recorded(catalog, &part_names[i], schema, coder, cfg, level) {
                    Ok(run) => {
                        let mut st = state.lock();
                        st.runs.insert(i, run);
                        cv.notify_all();
                    }
                    Err(e) => {
                        fail(e);
                        break;
                    }
                }
            });
        }

        // Merger: the calling thread replays runs in partition order.
        for i in skip..n_parts {
            let run = {
                let mut st = state.lock();
                loop {
                    if let Some(run) = st.runs.remove(&i) {
                        break run;
                    }
                    if st.failed.is_some() {
                        return;
                    }
                    cv.wait(&mut st);
                }
            };
            let t0 = Instant::now();
            let applied = (|| -> Result<()> {
                // Replay TT writes and flushes interleaved as the worker
                // made them: the sink's buffer flushes, and so the order
                // of extents in the segment, follow the call sequence.
                // Marks are the worker's TT counts at each flush, so they
                // never decrease and never pass `run.tts.len()`.
                let mut written = 0usize;
                for f in &run.flushes {
                    let mark = f.tt_mark() as usize;
                    for &(node, rowid) in &run.tts[written..mark] {
                        sink.write_tt(node, rowid)?;
                    }
                    written = mark;
                    pool.apply_sealed(sink, f)?;
                }
                for &(node, rowid) in &run.tts[written..] {
                    sink.write_tt(node, rowid)?;
                }
                sink.end_partition()?;
                totals.add(run.stats);
                after_partition(sink, pool, i, totals)
            })();
            totals.merge_secs += t0.elapsed().as_secs_f64();
            if let Err(e) = applied {
                fail(e);
                return;
            }
            let mut st = state.lock();
            st.merged = i + 1;
            cv.notify_all();
        }
    });

    match state.into_inner().failed {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Dimension;

    /// The paper's Table 1 scenario: SALES with Product organized as
    /// barcode (10,000) → brand (1,000) → economic_strength (10), |M| = 1 GB.
    fn sales_schema() -> CubeSchema {
        let barcode_to_brand: Vec<u32> = (0..10_000).map(|v| v / 10).collect();
        let brand_to_strength: Vec<u32> = (0..1_000).map(|v| v / 100).collect();
        let product =
            Dimension::linear("Product", 10_000, &[barcode_to_brand, brand_to_strength]).unwrap();
        let store = Dimension::flat("Store", 100);
        CubeSchema::new(vec![product, store], 1).unwrap()
    }

    #[test]
    fn table_1_reproduction() {
        // Table 1 of the paper: rows |R| = 10 GB / 100 GB / 1 TB with
        // |M| = 1 GB give L = 2 / 1 / 1 and 10 / 100 / 1000 partitions.
        let schema = sales_schema();
        let gb = 1_000_000_000u64; // the paper uses decimal units
                                   // Use a nominal 1-byte tuple so num_rows equals |R| in bytes.
        let cases = [
            (10 * gb, 2usize, 10u64, 1_000_000u64 /* |N| = 1 MB */),
            (100 * gb, 1, 100, 100_000_000 /* 100 MB */),
            (1000 * gb, 1, 1000, gb /* 1 GB */),
        ];
        for (r_bytes, want_level, want_parts, want_n_bytes) in cases {
            let c = select_partition_level(&schema, r_bytes, 1, gb as usize).unwrap();
            assert_eq!(c.level, want_level, "|R| = {r_bytes}");
            assert_eq!(c.num_partitions as u64, want_parts, "|R| = {r_bytes}");
            // |N| estimates: |R| / (|A0|/|A_{L+1}|).
            assert_eq!(c.est_n_bytes, want_n_bytes, "|R| = {r_bytes}");
        }
    }

    #[test]
    fn in_memory_case_needs_no_partitioning_decision() {
        // A table within budget is loaded directly; the driver tests for
        // that path live in the partitioned-build integration tests.
        let schema = sales_schema();
        let c = select_partition_level(&schema, 100, 32, 1 << 30).unwrap();
        // Even trivially small tables get a valid (top-level) choice.
        assert_eq!(c.level, 2);
        assert_eq!(c.num_partitions, 1);
    }

    #[test]
    fn infeasible_when_budget_tiny_and_cardinalities_low() {
        // 1M tuples of 100 B with a 1 KB budget need 100,000 partitions —
        // more than the leaf cardinality (10,000) allows.
        let schema = sales_schema();
        let err = select_partition_level(&schema, 1_000_000, 100, 1024);
        assert!(err.is_err());
    }

    #[test]
    fn needed_partitions_bounded_by_level_cardinality() {
        let schema = sales_schema();
        // Needs 50 partitions: level 2 (card 10) infeasible, level 1 (card
        // 1,000) feasible.
        let c = select_partition_level(&schema, 50u64 << 30, 1, 1 << 30).unwrap();
        assert_eq!(c.level, 1);
        assert_eq!(c.num_partitions, 50);
    }

    #[test]
    fn zero_budget_rejected() {
        let schema = sales_schema();
        assert!(select_partition_level(&schema, 100, 1, 0).is_err());
    }

    #[test]
    fn memory_fit_estimate_survives_huge_products() {
        let schema = sales_schema();
        // |R| = 10^8 rows × 100 B: the naive `rows * row_width` product
        // (10^10) exceeds u32::MAX. The estimate must be computed in
        // wide arithmetic and still pick a sane level.
        let rows = 100_000_000u64;
        assert!(rows * 100 > u32::MAX as u64);
        let c = select_partition_level(&schema, rows, 100, 1 << 30).unwrap();
        assert_eq!(c.num_partitions as u64, (rows * 100).div_ceil(1 << 30));
        assert!(c.est_n_bytes <= 1 << 30);

        // And products that overflow even u64 must register as "does not
        // fit" (an error), never wrap around (or panic) into a bogus
        // feasible level: here every level's `est_n_rows * tuple_bytes`
        // exceeds u64::MAX even though one partition would suffice.
        let err = select_partition_level(&schema, u64::MAX, 65_536, usize::MAX);
        assert!(err.is_err());
    }

    // -- end-to-end partitioned builds ------------------------------------

    use crate::reader::MemCubeReader;
    use crate::reference;
    use crate::sink::MemSink;

    fn fresh_catalog(tag: &str) -> Catalog {
        Catalog::open(cure_storage::scratch::scratch_dir(&format!("partbuild_{tag}"))).unwrap()
    }

    fn hierarchical_schema() -> CubeSchema {
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

    fn store_random_fact(catalog: &Catalog, schema: &CubeSchema, n: usize, seed: u64) -> Tuples {
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
        t
    }

    /// Build with a budget small enough to force partitioning, then check
    /// every node against the oracle.
    fn assert_partitioned_build_matches_oracle(schema: CubeSchema, budget: usize, tag: &str) {
        let catalog = fresh_catalog(tag);
        let fact = store_random_fact(&catalog, &schema, 2_000, 12345);
        let cfg = CubeConfig { memory_budget_bytes: budget, ..CubeConfig::default() };
        let mut sink = MemSink::new(schema.num_measures());
        let report =
            build_cure_cube(&catalog, "facts", &schema, &cfg, &mut sink, "tmp_", 1).unwrap();
        let part = report.partition.as_ref().expect("budget must force partitioning");
        assert!(part.choice.num_partitions > 1);
        let reader = MemCubeReader::new(&schema, &sink, &fact, Some(part.choice.level)).unwrap();
        let oracle = reference::compute_cube(&schema, &fact);
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).unwrap();
            got.sort();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                oracle[&id].iter().map(|r| (r.dims.clone(), r.aggs.clone())).collect();
            assert_eq!(got, want, "node {} ({})", id, coder.name(&schema, id));
        }
        // Temporary partitions were dropped.
        assert!(catalog.list().unwrap().iter().all(|n| !n.starts_with("tmp_")));
    }

    #[test]
    fn partitioned_build_matches_oracle_low_level() {
        // A steep hierarchy (400 -> 10 -> 2) with a budget of |R|/20 needs
        // 20 partitions: levels 2 and 1 lack the cardinality, so L = 0 and
        // N (~|R|/40) still fits — the leaf-level partitioning path.
        let a = Dimension::linear(
            "A",
            400,
            &[(0..400).map(|v| v / 40).collect(), (0..10).map(|v| v / 5).collect()],
        )
        .unwrap();
        let b = Dimension::linear("B", 12, &[(0..12).map(|v| v / 4).collect()]).unwrap();
        let c = Dimension::flat("C", 6);
        let schema = CubeSchema::new(vec![a, b, c], 2).unwrap();
        // 2,000 tuples x 44 B = 88,000 B; budget 4,400 B -> 20 partitions.
        assert_partitioned_build_matches_oracle(schema, 4_400, "lowlevel");
    }

    #[test]
    fn partitioned_build_matches_oracle_top_level() {
        // A 45 KB budget needs 2 partitions: feasible at the top level
        // (cardinality 2), exercising the `L == top`, dimension-0-projected
        // N-pass.
        let catalog = fresh_catalog("toplevel");
        let schema = hierarchical_schema();
        let fact = store_random_fact(&catalog, &schema, 2_000, 777);
        let cfg = CubeConfig { memory_budget_bytes: 45 << 10, ..CubeConfig::default() };
        let mut sink = MemSink::new(schema.num_measures());
        let report =
            build_cure_cube(&catalog, "facts", &schema, &cfg, &mut sink, "tmp_", 1).unwrap();
        let part = report.partition.as_ref().unwrap();
        assert_eq!(part.choice.level, schema.dims()[0].top_level());
        let reader = MemCubeReader::new(&schema, &sink, &fact, Some(part.choice.level)).unwrap();
        let oracle = reference::compute_cube(&schema, &fact);
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).unwrap();
            got.sort();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                oracle[&id].iter().map(|r| (r.dims.clone(), r.aggs.clone())).collect();
            assert_eq!(got, want, "node {} ({})", id, coder.name(&schema, id));
        }
    }

    #[test]
    fn partitioned_build_matches_oracle_mid_level() {
        // ~12 KB budget -> ~8 partitions -> L = 1 (cardinality 8).
        assert_partitioned_build_matches_oracle(hierarchical_schema(), 12 << 10, "midlevel");
    }

    #[test]
    fn in_memory_fast_path_used_when_budget_allows() {
        let catalog = fresh_catalog("fastpath");
        let schema = hierarchical_schema();
        let _fact = store_random_fact(&catalog, &schema, 500, 5);
        let cfg = CubeConfig::default(); // 256 MB budget
        let mut sink = MemSink::new(schema.num_measures());
        let report =
            build_cure_cube(&catalog, "facts", &schema, &cfg, &mut sink, "tmp_", 1).unwrap();
        assert!(report.partition.is_none());
    }

    #[test]
    fn parallel_build_matches_oracle() {
        for threads in [1usize, 2, 4, 8] {
            let catalog = fresh_catalog(&format!("parallel{threads}"));
            let schema = hierarchical_schema();
            let fact = store_random_fact(&catalog, &schema, 2_000, 4242);
            let cfg = CubeConfig { memory_budget_bytes: 12 << 10, ..CubeConfig::default() };
            let mut sink = MemSink::new(schema.num_measures());
            let report =
                build_cure_cube(&catalog, "facts", &schema, &cfg, &mut sink, "tmp_", threads)
                    .unwrap();
            let part = report.partition.as_ref().expect("budget forces partitioning");
            assert!(part.choice.num_partitions > 1);
            let reader =
                MemCubeReader::new(&schema, &sink, &fact, Some(part.choice.level)).unwrap();
            let oracle = reference::compute_cube(&schema, &fact);
            let coder = NodeCoder::new(&schema);
            for id in coder.all_ids() {
                let mut got = reader.node_contents(id).unwrap();
                got.sort();
                let want: Vec<(Vec<u32>, Vec<i64>)> =
                    oracle[&id].iter().map(|r| (r.dims.clone(), r.aggs.clone())).collect();
                assert_eq!(got, want, "threads={threads} node {id}");
            }
        }
    }

    #[test]
    fn parallel_build_reports_same_counters_as_sequential() {
        // The instrumentation must not perturb determinism: every integer
        // counter of a parallel build (worker-summed or merger-side) must
        // equal the one-thread build's, at any thread count. Timers are
        // wall-clock and excluded.
        let schema = hierarchical_schema();
        let cfg = CubeConfig { memory_budget_bytes: 12 << 10, ..CubeConfig::default() };
        let seq_catalog = fresh_catalog("counters_seq");
        store_random_fact(&seq_catalog, &schema, 2_000, 4242);
        let mut seq_sink = MemSink::new(schema.num_measures());
        let seq = build_cure_cube(&seq_catalog, "facts", &schema, &cfg, &mut seq_sink, "tmp_", 1)
            .unwrap();
        assert!(seq.pool.tt_prunes > 0, "sparse data must hit the TT fast path");
        assert!(seq.pool.nt_written + seq.pool.cat_tuples > 0);
        for threads in [2usize, 4] {
            let catalog = fresh_catalog(&format!("counters_par{threads}"));
            store_random_fact(&catalog, &schema, 2_000, 4242);
            let mut sink = MemSink::new(schema.num_measures());
            let par = build_cure_cube(&catalog, "facts", &schema, &cfg, &mut sink, "tmp_", threads)
                .unwrap();
            assert_eq!(par.stats, seq.stats, "threads={threads}");
            assert_eq!(par.pool, seq.pool, "threads={threads}");
            assert_eq!(par.counting_sorts, seq.counting_sorts, "threads={threads}");
            assert_eq!(par.comparison_sorts, seq.comparison_sorts, "threads={threads}");
            assert_eq!(par.signatures, seq.signatures, "threads={threads}");
            assert_eq!(par.pool_flushes, seq.pool_flushes, "threads={threads}");
        }
    }

    #[test]
    fn parallel_build_in_memory_fast_path() {
        let catalog = fresh_catalog("parfast");
        let schema = hierarchical_schema();
        let _fact = store_random_fact(&catalog, &schema, 300, 77);
        let mut sink = MemSink::new(schema.num_measures());
        let report = build_cure_cube(
            &catalog,
            "facts",
            &schema,
            &CubeConfig::default(),
            &mut sink,
            "tmp_",
            4,
        )
        .unwrap();
        assert!(report.partition.is_none(), "small input skips partitioning");
    }

    #[test]
    fn partitioned_and_in_memory_cubes_store_same_logical_content() {
        // TT placement may differ across pass boundaries, but the logical
        // node contents must be identical between the two drivers.
        let catalog = fresh_catalog("samecontent");
        let schema = hierarchical_schema();
        let fact = store_random_fact(&catalog, &schema, 1_000, 99);
        let mut mem_sink = MemSink::new(2);
        CubeBuilder::new(&schema, CubeConfig::default())
            .build_in_memory(&fact, &mut mem_sink)
            .unwrap();
        let mut part_sink = MemSink::new(2);
        let cfg = CubeConfig { memory_budget_bytes: 8 << 10, ..CubeConfig::default() };
        let report =
            build_cure_cube(&catalog, "facts", &schema, &cfg, &mut part_sink, "tmp_", 1).unwrap();
        let l = report.partition.unwrap().choice.level;
        let mem_reader = MemCubeReader::new(&schema, &mem_sink, &fact, None).unwrap();
        let part_reader = MemCubeReader::new(&schema, &part_sink, &fact, Some(l)).unwrap();
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let mut a = mem_reader.node_contents(id).unwrap();
            let mut b = part_reader.node_contents(id).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "node {id}");
        }
    }
}

//! The CURE construction algorithm (Figure 13 of the paper).
//!
//! This module implements the in-memory heart of CURE: the mutually
//! recursive `ExecutePlan` / `FollowEdge` pair that traverses execution
//! plan **P3** bottom-up and depth-first, sharing every sort with as many
//! nodes as possible:
//!
//! * `execute_plan(input, dim)` — emits the aggregate of `input` for the
//!   current node. A total represented count of 1 is a **trivial tuple**:
//!   it is written immediately to the current node (the least detailed one
//!   it belongs to) and recursion is *pruned* — its projections in every
//!   more detailed node of the plan subtree are implied (§5.2). Otherwise
//!   a signature enters the [`SignaturePool`] for deferred NT/CAT
//!   classification, and the recursion follows all solid edges and then
//!   the dashed edge(s).
//! * `follow_edge(input, d)` — re-sorts the current segment by dimension
//!   `d` at its current hierarchy level and recurses into each equal-value
//!   run.
//!
//! Iceberg cubes (`min_support > 1`) prune any segment whose represented
//! count is below the threshold, exactly like BUC.
//!
//! The out-of-core driver (`Algorithm CURE` lines 9–21) lives in
//! [`crate::partition`]; it reuses the internal `Exec` state for the
//! per-partition passes, and ends, like the in-memory build, with the
//! finish step here: the last pass (over *N*, or the whole in-memory
//! input), the final flush and the one [`BuildReport`] assembly.

// A worker panic would poison the parallel build pool, so the build path
// must return typed errors instead of panicking (clippy.toml exempts the
// test modules).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;

use crate::error::{CubeError, Result};
use crate::hierarchy::{CubeSchema, LevelIdx};
use crate::lattice::NodeCoder;
use crate::partition::PartitionReport;
use crate::signature::SignaturePool;
use crate::sink::{CatFormatPolicy, CubeSink, SinkStats};
use crate::sorter::{SortPolicy, Sorter};
use crate::stats::{PhaseTimes, PoolCounters};
use crate::tuples::Tuples;

/// Construction parameters.
#[derive(Debug, Clone)]
pub struct CubeConfig {
    /// Memory budget in bytes: inputs estimated to exceed it are
    /// partitioned (§4). The paper's headline run used 256 MB.
    pub memory_budget_bytes: usize,
    /// Signature-pool capacity in signatures (the Figure 18 knob; the
    /// paper found 1,000,000 sufficient).
    pub pool_capacity: usize,
    /// Iceberg minimum support; 1 builds the complete cube.
    pub min_support: u64,
    /// CAT storage-format policy (§5.1).
    pub cat_policy: CatFormatPolicy,
    /// Segment-sorting policy (counting sort vs comparison sort).
    pub sort_policy: SortPolicy,
}

impl Default for CubeConfig {
    fn default() -> Self {
        CubeConfig {
            memory_budget_bytes: 256 << 20,
            pool_capacity: 1_000_000,
            min_support: 1,
            cat_policy: CatFormatPolicy::Auto,
            sort_policy: SortPolicy::Auto,
        }
    }
}

/// What a finished build reports back.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Storage statistics from the sink.
    pub stats: SinkStats,
    /// Signature-pool flushes performed.
    pub pool_flushes: u64,
    /// Signatures (non-trivial aggregates) produced.
    pub signatures: u64,
    /// Counting-sort invocations.
    pub counting_sorts: u64,
    /// Comparison-sort invocations.
    pub comparison_sorts: u64,
    /// Wall-clock phase breakdown.
    pub phases: PhaseTimes,
    /// TT-prune and NT/CAT classification counters.
    pub pool: PoolCounters,
    /// Present when the build was partitioned (§4).
    pub partition: Option<crate::partition::PartitionReport>,
}

/// In-memory cube builder.
pub struct CubeBuilder<'a> {
    schema: &'a CubeSchema,
    cfg: CubeConfig,
}

impl<'a> CubeBuilder<'a> {
    /// Create a builder for `schema` with `cfg`.
    pub fn new(schema: &'a CubeSchema, cfg: CubeConfig) -> Self {
        CubeBuilder { schema, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CubeConfig {
        &self.cfg
    }

    /// Build the complete (or iceberg) cube of an in-memory tuple set,
    /// writing classified tuples to `sink`.
    pub fn build_in_memory(&self, t: &Tuples, sink: &mut dyn CubeSink) -> Result<BuildReport> {
        if t.n_dims() != self.schema.num_dims() || t.n_measures() != self.schema.num_measures() {
            return Err(CubeError::Schema(format!(
                "tuple shape ({}, {}) does not match schema ({}, {})",
                t.n_dims(),
                t.n_measures(),
                self.schema.num_dims(),
                self.schema.num_measures()
            )));
        }
        let coder = NodeCoder::new(self.schema);
        let mut pool = SignaturePool::new(
            self.schema.num_measures(),
            self.cfg.pool_capacity,
            self.cfg.cat_policy,
        );
        finish_build(self.schema, &coder, &self.cfg, t, &mut pool, sink, RunStats::default(), None)
    }
}

/// Counters and timers of one or more cubing passes, summed into build
/// totals in partition order. The integer counters are deterministic
/// (sums over fixed partition contents); only the wall-clock fields vary
/// run to run, and nothing downstream of them touches the output bytes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunStats {
    pub counting_sorts: u64,
    pub comparison_sorts: u64,
    pub tt_prunes: u64,
    /// Wall-clock seconds of the recursion and its pool flushes (CPU
    /// seconds when summed across parallel workers, not elapsed time).
    pub pass_secs: f64,
    /// Seconds inside the segment sorter.
    pub sort_secs: f64,
    /// Merger replay of sealed worker runs (parallel passes only).
    pub merge_secs: f64,
}

impl RunStats {
    pub(crate) fn add(&mut self, o: RunStats) {
        self.counting_sorts += o.counting_sorts;
        self.comparison_sorts += o.comparison_sorts;
        self.tt_prunes += o.tt_prunes;
        self.pass_secs += o.pass_secs;
        self.sort_secs += o.sort_secs;
        self.merge_secs += o.merge_secs;
    }
}

/// The last pass of every build and its report (`Algorithm CURE` lines
/// 17–22): cube `t` from the root through `pool`, flush the pool, finish
/// the sink, and fold `totals` — the partition passes already run
/// through `pool` — into the [`BuildReport`]. With `partition` set, `t`
/// is the aggregated relation *N* and dimension 0 is restricted to
/// levels ≥ L+1 (skipped entirely when L was the top level); without it,
/// `t` is the whole fact table, cubed in memory.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_build<S: CubeSink + ?Sized>(
    schema: &CubeSchema,
    coder: &NodeCoder,
    cfg: &CubeConfig,
    t: &Tuples,
    pool: &mut SignaturePool,
    sink: &mut S,
    mut totals: RunStats,
    partition: Option<PartitionReport>,
) -> Result<BuildReport> {
    let mut exec = Exec::new(schema, coder, t, cfg.min_support, cfg.sort_policy);
    if let Some(p) = &partition {
        let level = p.choice.level;
        exec.restrict_dim0(level + 1, level == schema.dims()[0].top_level());
    }
    let t0 = Instant::now();
    exec.run_full(pool, sink)?;
    pool.flush(sink)?;
    totals.add(exec.run_stats(t0.elapsed().as_secs_f64()));
    let stats = sink.finish()?;
    Ok(BuildReport {
        stats,
        pool_flushes: pool.flushes(),
        signatures: pool.total_signatures(),
        counting_sorts: totals.counting_sorts,
        comparison_sorts: totals.comparison_sorts,
        phases: PhaseTimes {
            partition_secs: partition.as_ref().map_or(0.0, |p| p.partition_secs),
            pass_secs: totals.pass_secs,
            sort_secs: totals.sort_secs,
            flush_secs: pool.write_secs(),
            merge_secs: totals.merge_secs,
        },
        pool: PoolCounters {
            tt_prunes: totals.tt_prunes,
            nt_written: pool.nt_written(),
            cat_groups: pool.cat_groups(),
            cat_tuples: pool.cat_tuples(),
        },
        partition,
    })
}

/// The recursion state shared by the in-memory and partitioned drivers.
pub(crate) struct Exec<'a> {
    schema: &'a CubeSchema,
    coder: &'a NodeCoder,
    t: &'a Tuples,
    /// Current hierarchy level per dimension.
    levels: Vec<LevelIdx>,
    /// Which dimensions are grouped in the current recursion state.
    grouped: Vec<bool>,
    /// Dimension 0 never descends below this level (partitioned *N*-pass).
    base0: LevelIdx,
    /// Skip dimension 0 entirely (*N*-pass when `L` was the top level and
    /// dimension 0 is projected out of *N*).
    skip_dim0: bool,
    min_support: u64,
    sorter: Sorter,
    /// Sub-cubes pruned via the trivial-tuple fast path (Figure 13
    /// lines 1–4); one increment per `write_tt`.
    tt_prunes: u64,
    agg_scratch: Vec<i64>,
    node_scratch: Vec<LevelIdx>,
}

impl<'a> Exec<'a> {
    pub(crate) fn new(
        schema: &'a CubeSchema,
        coder: &'a NodeCoder,
        t: &'a Tuples,
        min_support: u64,
        sort_policy: SortPolicy,
    ) -> Self {
        let d = schema.num_dims();
        Exec {
            schema,
            coder,
            t,
            levels: schema.dims().iter().map(|dm| dm.top_level()).collect(),
            grouped: vec![false; d],
            base0: 0,
            skip_dim0: false,
            min_support,
            sorter: Sorter::new(sort_policy),
            tt_prunes: 0,
            agg_scratch: vec![0i64; schema.num_measures()],
            node_scratch: vec![0; d],
        }
    }

    /// Configure for the partitioned *N*-pass: dimension 0 enters at its
    /// top level but never descends below `base0 = L+1`; when `L` was the
    /// top level dimension 0 is skipped entirely.
    pub(crate) fn restrict_dim0(&mut self, base0: LevelIdx, skip_dim0: bool) {
        self.base0 = base0;
        self.skip_dim0 = skip_dim0;
    }

    /// Set dimension 0's entry level to `l` (the per-partition passes of
    /// the out-of-core driver enter at the partitioning level `L`).
    pub(crate) fn set_dim0_level(&mut self, l: LevelIdx) {
        self.levels[0] = l;
    }

    /// This recursion's counters, with `pass_secs` measured by the caller.
    pub(crate) fn run_stats(&self, pass_secs: f64) -> RunStats {
        RunStats {
            counting_sorts: self.sorter.counting_calls(),
            comparison_sorts: self.sorter.comparison_calls(),
            tt_prunes: self.tt_prunes,
            pass_secs,
            sort_secs: self.sorter.sort_secs(),
            merge_secs: 0.0,
        }
    }

    /// Run the full plan from the root: `ExecutePlan(input, 0, levels)`.
    pub(crate) fn run_full<S: CubeSink + ?Sized>(
        &mut self,
        pool: &mut SignaturePool,
        sink: &mut S,
    ) -> Result<()> {
        let mut idx: Vec<u32> = (0..self.t.len() as u32).collect();
        self.execute_plan(&mut idx, 0, pool, sink)
    }

    /// Run a partition pass: `FollowEdge(partition, 0, levels)` with
    /// `levels[0]` already set to the partitioning level `L`.
    pub(crate) fn run_partition_pass<S: CubeSink + ?Sized>(
        &mut self,
        pool: &mut SignaturePool,
        sink: &mut S,
    ) -> Result<()> {
        let mut idx: Vec<u32> = (0..self.t.len() as u32).collect();
        self.follow_edge(&mut idx, 0, pool, sink)
    }

    fn current_node(&mut self) -> u64 {
        for d in 0..self.schema.num_dims() {
            self.node_scratch[d] =
                if self.grouped[d] { self.levels[d] } else { self.coder.all_level(d) };
        }
        self.coder.encode(&self.node_scratch)
    }

    /// `ExecutePlan` of Figure 13.
    fn execute_plan<S: CubeSink + ?Sized>(
        &mut self,
        idx: &mut [u32],
        dim: usize,
        pool: &mut SignaturePool,
        sink: &mut S,
    ) -> Result<()> {
        // Aggregate the input in one pass: sums, total represented count,
        // minimum row-id.
        let y = self.agg_scratch.len();
        let fns = self.schema.agg_fns();
        for (a, f) in self.agg_scratch.iter_mut().zip(fns) {
            *a = f.identity();
        }
        let mut total: u64 = 0;
        let mut min_rowid = u64::MAX;
        for &u in idx.iter() {
            let u = u as usize;
            crate::aggfn::AggFn::merge_all(fns, &mut self.agg_scratch, self.t.aggs_of(u));
            total += self.t.count(u);
            min_rowid = min_rowid.min(self.t.rowid(u));
        }
        debug_assert_eq!(self.t.n_measures(), y);
        // Iceberg pruning (BUC semantics): groups below the support
        // threshold produce nothing, and neither do their refinements.
        if total < self.min_support {
            return Ok(());
        }
        let node = self.current_node();
        if total == 1 {
            // Trivial tuple: store once in the least detailed node and
            // prune the subtree (lines 1–4).
            self.tt_prunes += 1;
            sink.write_tt(node, min_rowid)?;
            return Ok(());
        }
        // Lines 5–7: aggregate → signature (pool flushes itself when full).
        let aggs = std::mem::take(&mut self.agg_scratch);
        pool.push(sink, &aggs, min_rowid, node)?;
        self.agg_scratch = aggs;

        // Lines 8–10: solid edges.
        let first = if self.skip_dim0 { dim.max(1) } else { dim };
        for d in first..self.schema.num_dims() {
            self.follow_edge(idx, d, pool, sink)?;
        }
        // Lines 11–15: dashed edge(s) — generalized to the descent tree so
        // complex hierarchies are covered (§3.2, modified Rule 2).
        if dim >= 1 {
            let d = dim - 1;
            debug_assert!(self.grouped[d], "dashed edge descends the last-grouped dimension");
            let cur = self.levels[d];
            let base = if d == 0 { self.base0 } else { 0 };
            // `schema` is a copy of the `&'a CubeSchema` reference, so the
            // children slice does not borrow `self` across the recursion.
            let schema: &'a CubeSchema = self.schema;
            let children = schema.dims()[d].descent_children(cur);
            for &c in children {
                if c < base {
                    continue;
                }
                self.levels[d] = c;
                self.follow_edge(idx, d, pool, sink)?;
                self.levels[d] = cur;
            }
        }
        Ok(())
    }

    /// `FollowEdge` of Figure 13: sort by dimension `d` at its current
    /// level, then recurse into each equal-value segment.
    fn follow_edge<S: CubeSink + ?Sized>(
        &mut self,
        idx: &mut [u32],
        d: usize,
        pool: &mut SignaturePool,
        sink: &mut S,
    ) -> Result<()> {
        let lv = self.levels[d];
        let schema: &'a CubeSchema = self.schema;
        let dim = &schema.dims()[d];
        let card = dim.cardinality(lv);
        let t = self.t;
        self.sorter.sort_by_key(idx, card, |u| dim.value_at(lv, t.dim(u as usize, d)));
        // Dashed edges re-enter follow_edge for an already-grouped
        // dimension; save and restore the flag rather than clearing it.
        let was_grouped = self.grouped[d];
        self.grouped[d] = true;
        let mut s = 0usize;
        while s < idx.len() {
            let k = dim.value_at(lv, t.dim(idx[s] as usize, d));
            let mut e = s + 1;
            while e < idx.len() && dim.value_at(lv, t.dim(idx[e] as usize, d)) == k {
                e += 1;
            }
            self.execute_plan(&mut idx[s..e], d + 1, pool, sink)?;
            s = e;
        }
        self.grouped[d] = was_grouped;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Dimension;
    use crate::reader::MemCubeReader;
    use crate::reference;
    use crate::sink::MemSink;

    fn flat_schema(cards: &[u32], y: usize) -> CubeSchema {
        let dims =
            cards.iter().enumerate().map(|(i, &c)| Dimension::flat(format!("d{i}"), c)).collect();
        CubeSchema::new(dims, y).unwrap()
    }

    fn pseudo_random_tuples(schema: &CubeSchema, n: usize, seed: u64) -> Tuples {
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
                *a = (x % 100) as i64;
            }
            t.push_fact(&dims, &aggs, i as u64);
        }
        t
    }

    /// Build with CURE into a MemSink, reconstruct every node through the
    /// reader, and compare against the naive oracle.
    fn assert_matches_oracle(schema: &CubeSchema, t: &Tuples, cfg: CubeConfig) {
        let builder = CubeBuilder::new(schema, cfg);
        let mut sink = MemSink::new(schema.num_measures());
        builder.build_in_memory(t, &mut sink).expect("build");
        let reader = MemCubeReader::new(schema, &sink, t, None).expect("reader");
        let oracle = reference::compute_cube(schema, t);
        let coder = NodeCoder::new(schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).expect("reconstruct");
            got.sort();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                oracle[&id].iter().map(|r| (r.dims.clone(), r.aggs.clone())).collect();
            assert_eq!(got, want, "node {} ({})", id, coder.name(schema, id));
        }
    }

    #[test]
    fn figure_9_flat_cube_matches_oracle() {
        let (schema, t) = reference::tests::figure_9_table();
        assert_matches_oracle(&schema, &t, CubeConfig::default());
    }

    #[test]
    fn random_flat_cube_matches_oracle() {
        let schema = flat_schema(&[7, 5, 3], 2);
        let t = pseudo_random_tuples(&schema, 500, 42);
        assert_matches_oracle(&schema, &t, CubeConfig::default());
    }

    #[test]
    fn hierarchical_cube_matches_oracle() {
        let a = Dimension::linear("A", 12, &[(0..12).map(|v| v / 3).collect(), vec![0, 0, 1, 1]])
            .unwrap();
        let b = Dimension::linear("B", 8, &[(0..8).map(|v| v / 4).collect()]).unwrap();
        let c = Dimension::flat("C", 5);
        let schema = CubeSchema::new(vec![a, b, c], 2).unwrap();
        let t = pseudo_random_tuples(&schema, 400, 7);
        assert_matches_oracle(&schema, &t, CubeConfig::default());
    }

    #[test]
    fn complex_hierarchy_cube_matches_oracle() {
        use crate::hierarchy::Level;
        let days = 24u32;
        let time = Dimension::from_levels(
            "time",
            vec![
                Level {
                    name: "day".into(),
                    cardinality: days,
                    parents: vec![1, 2],
                    leaf_map: vec![],
                },
                Level {
                    name: "week".into(),
                    cardinality: 12,
                    parents: vec![3],
                    leaf_map: (0..days).map(|d| d / 2).collect(),
                },
                Level {
                    name: "month".into(),
                    cardinality: 4,
                    parents: vec![3],
                    leaf_map: (0..days).map(|d| d / 6).collect(),
                },
                Level {
                    name: "year".into(),
                    cardinality: 2,
                    parents: vec![],
                    leaf_map: (0..days).map(|d| d / 12).collect(),
                },
            ],
        )
        .unwrap();
        let product = Dimension::linear("P", 10, &[(0..10).map(|v| v / 5).collect()]).unwrap();
        let schema = CubeSchema::new(vec![product, time], 1).unwrap();
        let t = pseudo_random_tuples(&schema, 300, 99);
        assert_matches_oracle(&schema, &t, CubeConfig::default());
    }

    #[test]
    fn min_max_aggregates_match_oracle() {
        use crate::aggfn::AggFn;
        let a = Dimension::linear("A", 12, &[(0..12).map(|v| v / 3).collect()]).unwrap();
        let b = Dimension::flat("B", 5);
        let schema = CubeSchema::new(vec![a, b], 3)
            .unwrap()
            .with_agg_fns(vec![AggFn::Sum, AggFn::Min, AggFn::Max])
            .unwrap();
        let t = pseudo_random_tuples(&schema, 400, 51);
        assert_matches_oracle(&schema, &t, CubeConfig::default());
    }

    #[test]
    fn min_max_rollup_consistency() {
        use crate::aggfn::AggFn;
        // The MAX at a coarse level equals the max of the fine-level MAXes
        // (distributivity through the hierarchy).
        let a = Dimension::linear("A", 8, &[vec![0, 0, 0, 0, 1, 1, 1, 1]]).unwrap();
        let schema = CubeSchema::new(vec![a], 1).unwrap().with_agg_fns(vec![AggFn::Max]).unwrap();
        let t = pseudo_random_tuples(&schema, 200, 3);
        let fine = crate::reference::compute_node(&schema, &t, &[0]);
        let coarse = crate::reference::compute_node(&schema, &t, &[1]);
        for c in &coarse {
            let expect = fine
                .iter()
                .filter(|f| f.dims[0] / 4 == c.dims[0])
                .map(|f| f.aggs[0])
                .max()
                .unwrap();
            assert_eq!(c.aggs[0], expect);
        }
    }

    #[test]
    fn mismatched_agg_fn_count_rejected() {
        use crate::aggfn::AggFn;
        let schema = CubeSchema::new(vec![Dimension::flat("A", 4)], 2).unwrap();
        assert!(schema.with_agg_fns(vec![AggFn::Sum]).is_err());
    }

    #[test]
    fn tiny_pool_still_correct() {
        let schema = flat_schema(&[5, 4], 1);
        let t = pseudo_random_tuples(&schema, 300, 3);
        assert_matches_oracle(
            &schema,
            &t,
            CubeConfig { pool_capacity: 3, ..CubeConfig::default() },
        );
    }

    #[test]
    fn zero_pool_still_correct() {
        let schema = flat_schema(&[5, 4], 1);
        let t = pseudo_random_tuples(&schema, 200, 5);
        assert_matches_oracle(
            &schema,
            &t,
            CubeConfig { pool_capacity: 0, ..CubeConfig::default() },
        );
    }

    #[test]
    fn forced_comparison_sort_still_correct() {
        let schema = flat_schema(&[6, 6], 1);
        let t = pseudo_random_tuples(&schema, 250, 11);
        assert_matches_oracle(
            &schema,
            &t,
            CubeConfig { sort_policy: SortPolicy::ForceComparison, ..CubeConfig::default() },
        );
    }

    #[test]
    fn single_tuple_input_is_one_tt() {
        let schema = flat_schema(&[4, 4], 1);
        let mut t = Tuples::new(2, 1);
        t.push_fact(&[1, 2], &[5], 0);
        let builder = CubeBuilder::new(&schema, CubeConfig::default());
        let mut sink = MemSink::new(1);
        let report = builder.build_in_memory(&t, &mut sink).unwrap();
        // The sole tuple is trivial at the ∅ node; nothing else is stored.
        assert_eq!(report.stats.tt_tuples, 1);
        assert_eq!(report.stats.nt_tuples + report.stats.cat_tuples, 0);
        let coder = NodeCoder::new(&schema);
        assert_eq!(sink.tts[&coder.empty_node()], vec![0]);
    }

    #[test]
    fn empty_input_builds_empty_cube() {
        let schema = flat_schema(&[4], 1);
        let t = Tuples::new(1, 1);
        let builder = CubeBuilder::new(&schema, CubeConfig::default());
        let mut sink = MemSink::new(1);
        let report = builder.build_in_memory(&t, &mut sink).unwrap();
        assert_eq!(report.stats.total_tuples(), 0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let schema = flat_schema(&[4], 1);
        let t = Tuples::new(2, 1);
        let builder = CubeBuilder::new(&schema, CubeConfig::default());
        let mut sink = MemSink::new(1);
        assert!(builder.build_in_memory(&t, &mut sink).is_err());
    }

    #[test]
    fn iceberg_cube_matches_filtered_oracle() {
        let schema = flat_schema(&[4, 3], 1);
        let t = pseudo_random_tuples(&schema, 300, 17);
        let min_sup = 5u64;
        let builder =
            CubeBuilder::new(&schema, CubeConfig { min_support: min_sup, ..CubeConfig::default() });
        let mut sink = MemSink::new(1);
        builder.build_in_memory(&t, &mut sink).unwrap();
        let reader = MemCubeReader::new(&schema, &sink, &t, None).unwrap();
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).unwrap();
            got.sort();
            let levels = coder.decode(id).unwrap();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                reference::iceberg_filter(&reference::compute_node(&schema, &t, &levels), min_sup)
                    .into_iter()
                    .map(|r| (r.dims, r.aggs))
                    .collect();
            assert_eq!(got, want, "iceberg node {id}");
        }
    }

    #[test]
    fn tt_pruning_saves_storage() {
        // Sparse data (many singletons) must produce far fewer stored
        // tuples than the uncompressed cube would have.
        let schema = flat_schema(&[1000, 1000, 1000], 1);
        let t = pseudo_random_tuples(&schema, 200, 23);
        let builder = CubeBuilder::new(&schema, CubeConfig::default());
        let mut sink = MemSink::new(1);
        let report = builder.build_in_memory(&t, &mut sink).unwrap();
        let oracle = reference::compute_cube(&schema, &t);
        let uncompressed: usize = oracle.values().map(|v| v.len()).sum();
        assert!(
            report.stats.total_tuples() < uncompressed as u64 / 2,
            "stored {} vs uncompressed {}",
            report.stats.total_tuples(),
            uncompressed
        );
    }

    #[test]
    fn report_counts_are_plausible() {
        let schema = flat_schema(&[8, 8], 1);
        let t = pseudo_random_tuples(&schema, 1000, 31);
        let builder = CubeBuilder::new(&schema, CubeConfig::default());
        let mut sink = MemSink::new(1);
        let report = builder.build_in_memory(&t, &mut sink).unwrap();
        assert!(report.signatures > 0);
        assert!(report.counting_sorts > 0);
        assert_eq!(report.pool_flushes, 1, "default pool flushes only at the end here");
        assert!(report.partition.is_none());
    }

    #[test]
    fn phase_and_pool_counters_are_consistent_with_sink_stats() {
        let schema = flat_schema(&[8, 8], 1);
        let t = pseudo_random_tuples(&schema, 1000, 31);
        let builder = CubeBuilder::new(&schema, CubeConfig::default());
        let mut sink = MemSink::new(1);
        let report = builder.build_in_memory(&t, &mut sink).unwrap();
        // Every TT prune produced exactly one stored TT and vice versa.
        assert_eq!(report.pool.tt_prunes, report.stats.tt_tuples);
        // Pool-side classification totals match the sink totals. (They
        // split differently under the AsNt CAT format, where the sink
        // stores CAT groups as NT rows, so only the sum is invariant.)
        assert_eq!(
            report.pool.nt_written + report.pool.cat_tuples,
            report.stats.nt_tuples + report.stats.cat_tuples
        );
        assert!(report.pool.nt_written > 0);
        assert!(report.pool.cat_groups <= report.pool.cat_tuples);
        // The sort and flush timers measure sub-intervals of the pass.
        assert!(report.phases.pass_secs > 0.0);
        assert!(report.phases.sort_secs + report.phases.flush_secs <= report.phases.pass_secs);
        assert_eq!(report.phases.partition_secs, 0.0);
        assert_eq!(report.phases.merge_secs, 0.0);
    }
}

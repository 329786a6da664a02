//! Node-query answering over on-disk CURE cubes.
//!
//! Opening a cube needs the catalog, the schema, and the cube's name
//! prefix; everything else (variant flags, CAT format, partition level)
//! comes from the persisted [`CubeMeta`]. Queries resolve three kinds of
//! reference:
//!
//! * **NT rows** — `(R-rowid, aggs)`: the grouping values come from
//!   fetching the original fact tuple and projecting it at the node's
//!   hierarchy levels (CURE_DR cubes store the values directly instead);
//! * **CAT rows** — the aggregates live in the shared `AGGREGATES`
//!   relation, addressed by A-rowid;
//! * **TT rows** — stored once at the least detailed node and shared along
//!   the execution-plan path (§5.1), so a node query walks
//!   [`PlanSpec::path_to`] and projects each TT's source tuple.
//!
//! Fact-table and `AGGREGATES` fetches go through LRU page caches whose
//! capacities are the knob of the paper's Figure 17 experiment. This
//! handle fetches rows one at a time, in resolution order, so the cache
//! sees the per-row access pattern that experiment measures (the
//! concurrent handle gathers them page by page instead). Like the
//! concurrent handle, it opens each node's NT, CAT and TT relations once
//! and keeps them for the handle's lifetime.
//!
//! The resolution semantics live in [`crate::resolve`], shared with the
//! thread-safe [`ConcurrentCube`](crate::concurrent::ConcurrentCube);
//! this type is the exclusive (`&mut self`) front end over them.

use cure_core::meta::CubeMeta;
use cure_core::sink::aggregates_rel_name;
use cure_core::{CubeError, CubeSchema, NodeCoder, NodeId, PlanSpec, Result, Tuples};
use cure_storage::{BitmapIndex, BufferCache, Catalog, HeapFile, Schema};

use crate::resolve::{self, NodeRelations, ResolveEnv, RowFetcher};
use crate::CubeRow;

/// Counters accumulated across queries (reset with
/// [`CureCube::reset_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries answered.
    pub queries: u64,
    /// Rows returned in total.
    pub rows: u64,
    /// Fact-table row fetches.
    pub fact_fetches: u64,
    /// `AGGREGATES` row fetches.
    pub agg_fetches: u64,
    /// Fact-cache page hits / misses.
    pub fact_cache_hits: u64,
    /// Fact-cache page misses.
    pub fact_cache_misses: u64,
}

/// An opened, queryable CURE cube (exclusive, single-threaded handle).
pub struct CureCube<'a> {
    catalog: &'a Catalog,
    schema: &'a CubeSchema,
    meta: CubeMeta,
    plan: PlanSpec,
    coder: NodeCoder,
    fact: HeapFile,
    fact_schema: Schema,
    aggregates: Option<HeapFile>,
    fact_cache: BufferCache,
    agg_cache: BufferCache,
    stats: QueryStats,
    /// Each node's opened NT, CAT and TT relations.
    relations: NodeRelations,
}

/// [`RowFetcher`] over the exclusive per-handle caches.
struct ExclusiveFetcher<'f> {
    fact: &'f HeapFile,
    fact_cache: &'f mut BufferCache,
    agg_cache: &'f mut BufferCache,
    stats: &'f mut QueryStats,
}

impl RowFetcher for ExclusiveFetcher<'_> {
    /// One cache lookup per row, in input order: the per-row fact access
    /// whose cache behaviour Figures 16 and 17 measure.
    fn fetch_facts(&mut self, rowids: &[u64], buf: &mut [u8]) -> Result<()> {
        let w = self.fact.schema().row_width();
        for (&rowid, row) in rowids.iter().zip(buf.chunks_exact_mut(w)) {
            self.stats.fact_fetches += 1;
            self.fact.fetch_cached(rowid, self.fact_cache, row)?;
        }
        Ok(())
    }

    fn fetch_aggs(&mut self, agg: &HeapFile, rowids: &[u64], buf: &mut [u8]) -> Result<()> {
        let w = agg.schema().row_width();
        for (&rowid, row) in rowids.iter().zip(buf.chunks_exact_mut(w)) {
            self.stats.agg_fetches += 1;
            agg.fetch_cached(rowid, self.agg_cache, row)?;
        }
        Ok(())
    }
}

impl<'a> CureCube<'a> {
    /// Open the cube stored under `prefix`.
    pub fn open(catalog: &'a Catalog, schema: &'a CubeSchema, prefix: &str) -> Result<Self> {
        let meta = CubeMeta::read(catalog, prefix)?;
        if meta.n_dims != schema.num_dims() || meta.n_measures != schema.num_measures() {
            return Err(CubeError::Schema(format!(
                "cube meta shape ({}, {}) does not match schema ({}, {})",
                meta.n_dims,
                meta.n_measures,
                schema.num_dims(),
                schema.num_measures()
            )));
        }
        let plan = match meta.partition_level {
            None => PlanSpec::new(schema),
            Some(l) => PlanSpec::partitioned(schema, l)?,
        };
        let coder = NodeCoder::new(schema);
        let fact = catalog.open_relation(&meta.fact_rel)?;
        let fact_schema = fact.schema().clone();
        let agg_name = aggregates_rel_name(prefix);
        let aggregates =
            if catalog.exists(&agg_name) { Some(catalog.open_relation(&agg_name)?) } else { None };
        Ok(CureCube {
            catalog,
            schema,
            meta,
            plan,
            relations: NodeRelations::new(coder.num_nodes()),
            coder,
            fact,
            fact_schema,
            aggregates,
            fact_cache: BufferCache::new(1024),
            agg_cache: BufferCache::new(256),
            stats: QueryStats::default(),
        })
    }

    /// The cube's metadata.
    pub fn meta(&self) -> &CubeMeta {
        &self.meta
    }

    /// The node id coder.
    pub fn coder(&self) -> &NodeCoder {
        &self.coder
    }

    /// Accumulated query counters.
    pub fn stats(&self) -> &QueryStats {
        let _ = &self.stats;
        &self.stats
    }

    /// Zero the counters (cache contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = QueryStats::default();
        self.fact_cache.reset_stats();
        self.agg_cache.reset_stats();
    }

    /// The fact-table page cache (for hit-rate reporting).
    pub fn fact_cache(&self) -> &BufferCache {
        &self.fact_cache
    }

    /// Resize the fact-table page cache (Figure 17's x-axis). Pass 0 to
    /// disable caching entirely. Clears current contents.
    pub fn set_fact_cache_pages(&mut self, pages: usize) {
        self.fact_cache = BufferCache::new(pages);
    }

    /// Number of pages the fact relation occupies (for cache-fraction
    /// sweeps).
    pub fn fact_pages(&self) -> u64 {
        let rows_per_page = cure_storage::Page::capacity(self.fact_schema.row_width()) as u64;
        self.fact.num_rows().div_ceil(rows_per_page.max(1))
    }

    /// Split the handle into the read-only resolution view and the
    /// mutable fetch state (disjoint fields, so both coexist).
    fn parts(&mut self) -> (ResolveEnv<'_>, ExclusiveFetcher<'_>) {
        let CureCube {
            catalog,
            schema,
            meta,
            plan,
            coder,
            fact,
            fact_schema,
            aggregates,
            fact_cache,
            agg_cache,
            stats,
            relations,
        } = self;
        (
            ResolveEnv {
                catalog,
                schema,
                meta,
                plan,
                coder,
                fact_schema,
                aggregates: aggregates.as_ref(),
                relations,
            },
            ExclusiveFetcher { fact, fact_cache, agg_cache, stats },
        )
    }

    /// Answer a full node query: every `(grouping values, aggregates)` row
    /// of `node`.
    pub fn node_query(&mut self, node: NodeId) -> Result<Vec<CubeRow>> {
        let levels = self.coder.decode(node)?;
        let mut out: Vec<CubeRow> = Vec::new();
        {
            let (env, mut fetcher) = self.parts();
            resolve::scan_node(&env, &mut fetcher, node, &levels, &mut out, None, true)?;
        }
        self.stats.queries += 1;
        self.stats.rows += out.len() as u64;
        self.stats.fact_cache_hits = self.fact_cache.hits();
        self.stats.fact_cache_misses = self.fact_cache.misses();
        Ok(out)
    }

    /// Answer a **count iceberg query**: rows of `node` whose count
    /// exceeds `min_count`, where measure `count_measure` holds the group
    /// count (a per-tuple `1` measure in the fact table).
    ///
    /// The paper (§7, final remark): over a CURE cube these are orders of
    /// magnitude faster than over other formats because TTs — whose count
    /// is always exactly 1 — can be *skipped without being read*. Only NT
    /// and CAT rows are touched.
    pub fn iceberg_count_query(
        &mut self,
        node: NodeId,
        min_count: i64,
        count_measure: usize,
    ) -> Result<Vec<CubeRow>> {
        if min_count < 1 {
            return Err(CubeError::Config("iceberg threshold must be ≥ 1".into()));
        }
        let levels = self.coder.decode(node)?;
        let mut out: Vec<CubeRow> = Vec::new();
        {
            // TTs all have count == 1 ≤ min_count: skip them without reading.
            let (env, mut fetcher) = self.parts();
            resolve::scan_node(&env, &mut fetcher, node, &levels, &mut out, None, false)?;
        }
        self.stats.queries += 1;
        out.retain(|(_, aggs)| aggs[count_measure] > min_count);
        self.stats.rows += out.len() as u64;
        Ok(out)
    }

    /// Answer a node query with equality predicates pushed down to the
    /// fact-table value indexes (§5.3/§8: index the fact table, not the
    /// cube). Each predicate is `dimension d at level l = v`, where `l`
    /// must be at or above the node's level for `d` (so every aggregated
    /// row has a single well-defined predicate value) and the node must
    /// group by `d`.
    ///
    /// Qualifying row-ids are computed once from the
    /// [`ValueIndex`](crate::index::ValueIndex) blobs (built with
    /// [`ValueIndex::build_all`](crate::index::ValueIndex::build_all));
    /// TT bitmaps are *intersected* with the qualifier and NT/CAT
    /// references are membership-tested, so rejected tuples never touch
    /// the fact table.
    pub fn selective_query(
        &mut self,
        node: NodeId,
        predicates: &[crate::index::Predicate],
    ) -> Result<Vec<CubeRow>> {
        if self.meta.dr {
            return Err(CubeError::Config("selective_query requires row-id (non-DR) cubes".into()));
        }
        let levels = self.coder.decode(node)?;
        if predicates.is_empty() {
            return self.node_query(node);
        }
        // Validate and build the qualifying row-id set.
        let mut qualifier: Option<BitmapIndex> = None;
        for p in predicates {
            if p.dim >= self.schema.num_dims() {
                return Err(CubeError::Config(format!("predicate on unknown dimension {}", p.dim)));
            }
            if self.coder.is_all(&levels, p.dim) {
                return Err(CubeError::Config(format!(
                    "predicate on dimension {} which the node does not group by",
                    p.dim
                )));
            }
            if levels[p.dim] > p.level {
                return Err(CubeError::Config(format!(
                    "predicate level {} is finer than the node's level {} on dimension {}",
                    p.level, levels[p.dim], p.dim
                )));
            }
            let idx = crate::index::ValueIndex::load(self.catalog, &self.meta.fact_rel, p.dim)?;
            let rows = idx.rows_for_level(self.schema, p.dim, p.level, p.value)?;
            qualifier = Some(match qualifier {
                None => rows,
                Some(q) => q.intersect(&rows),
            });
        }
        let Some(qualifier) = qualifier else {
            return Err(CubeError::Config("selective query lost its predicates".into()));
        };

        let mut out: Vec<CubeRow> = Vec::new();
        {
            let (env, mut fetcher) = self.parts();
            let q = Some(&qualifier);
            resolve::scan_node(&env, &mut fetcher, node, &levels, &mut out, q, true)?;
        }
        self.stats.queries += 1;
        self.stats.rows += out.len() as u64;
        Ok(out)
    }
}

/// Load the fact relation a cube references into memory (test helper and
/// roll-up substrate).
pub fn load_fact_tuples(catalog: &Catalog, meta: &CubeMeta) -> Result<Tuples> {
    let rel = catalog.open_relation(&meta.fact_rel)?;
    Tuples::load_fact(&rel, meta.n_dims, meta.n_measures)
}

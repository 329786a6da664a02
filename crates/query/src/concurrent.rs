//! Thread-safe node-query answering: [`ConcurrentCube`].
//!
//! The exclusive [`CureCube`](crate::cure_reader::CureCube) requires
//! `&mut self` because its per-handle LRU caches mutate on every fetch.
//! Serving workloads (many readers, one immutable cube) instead open a
//! `ConcurrentCube`: it owns `Arc`s of the catalog and schema, resolves
//! rows against sharded [`SharedBufferCache`]s, and counts work in
//! atomics — so `node_query` takes `&self` and the whole cube can sit
//! behind one `Arc` shared by a worker pool (see the `cure-serve` crate).
//!
//! On the cache read path a node query reads each relation once:
//!
//! * the node's NT, CAT and TT relations come from a per-epoch table
//!   keyed by node id, opened on first use, so a repeated query does no
//!   catalog probe, no open and no header read, and verifies no page
//!   checksum twice;
//! * every CAT reference of the query is fetched from `AGGREGATES` with
//!   one [`HeapFile::gather_shared`] call, and every fact row-id of every
//!   source (NT, CAT, each TT on the plan path) with one more. A gather
//!   reads its relation in page order — one cache lookup per distinct
//!   page rather than one per row, the page-ordered access CURE+ gets by
//!   sorting row-ids (§5.3) — and hands the rows back in resolution
//!   order.
//!
//! Query *semantics* are identical to the exclusive path by construction:
//! both drive the same [`crate::resolve`] engine and differ only in the
//! [`RowFetcher`] used, so both return the same rows in the same order.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cure_core::meta::CubeMeta;
use cure_core::sink::aggregates_rel_name;
use cure_core::{CubeError, CubeSchema, NodeCoder, NodeId, PlanSpec, Result};
use cure_storage::{Catalog, HeapFile, Schema, SharedBufferCache, StorageError};

use crate::cure_reader::QueryStats;
use crate::node_index::{Attribution, MmapNodeIndex};
use crate::resolve::{self, NodeRelations, ResolveEnv, RowFetcher};
use crate::CubeRow;

/// Lock-free counterpart of [`QueryStats`] (cache hit/miss counters live
/// in the [`SharedBufferCache`]s themselves).
#[derive(Debug, Default)]
pub(crate) struct SharedQueryStats {
    queries: AtomicU64,
    rows: AtomicU64,
    fact_fetches: AtomicU64,
    agg_fetches: AtomicU64,
}

impl SharedQueryStats {
    pub(crate) fn count_fact_fetch(&self) {
        self.fact_fetches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_agg_fetch(&self) {
        self.agg_fetches.fetch_add(1, Ordering::Relaxed);
    }
}

/// How a [`ConcurrentCube`] resolves rows.
///
/// On either path a handle serves one sealed epoch: the cube must stay
/// immutable for the lifetime of the handle, and live ingest swaps in a
/// *new* handle per epoch instead of mutating this one. `Cache` is the
/// original serving path — page-ordered gathers through the sharded
/// [`SharedBufferCache`]s, over relations opened once per handle.
/// `Mmap` memory-maps every sealed relation at open and serves borrowed
/// page slices with no locking and no copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Lock-guarded shared page caches over `HeapFile::gather_shared`
    /// (fact and `AGGREGATES` rows).
    Cache,
    /// Zero-copy mmap reads + the per-node point-query index.
    Mmap,
}

impl ReadPath {
    /// Stable label used in stats spines and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            ReadPath::Cache => "cache",
            ReadPath::Mmap => "mmap",
        }
    }

    /// Parse a CLI-style label (`"cache"` / `"mmap"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cache" => Some(ReadPath::Cache),
            "mmap" => Some(ReadPath::Mmap),
            _ => None,
        }
    }
}

/// Cache sizing for [`ConcurrentCube::open_with_caches`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total fact-table cache capacity in pages.
    pub fact_pages: usize,
    /// Total `AGGREGATES` cache capacity in pages.
    pub agg_pages: usize,
    /// Shards per cache (rounded up to a power of two).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // Same total capacities as the exclusive handle's defaults; 8
        // shards keeps lock contention negligible up to ~16 threads.
        CacheConfig { fact_pages: 1024, agg_pages: 256, shards: 8 }
    }
}

/// Pages the serving layer has marked as known-corrupt.
///
/// Consulted by [`ConcurrentCube::node_query_guarded`] *before* each fact
/// page or `AGGREGATES` row is fetched, so repeat reads of a page that
/// already failed its checksum become fast typed failures instead of
/// further disk I/O.
/// Implemented by the quarantine set in `cure-serve`.
pub trait PageQuarantine: Sync {
    /// Whether `(relation, page)` is currently quarantined.
    fn is_quarantined(&self, relation: &str, page: u64) -> bool;
}

/// Per-query resilience controls for
/// [`ConcurrentCube::node_query_guarded`].
///
/// The default guard (no deadline, no quarantine) makes the guarded path
/// behave exactly like [`ConcurrentCube::node_query`].
#[derive(Clone, Copy, Default)]
pub struct QueryGuard<'a> {
    /// Abort with [`CubeError::Timeout`] once this instant passes. The
    /// check runs between page fetches, so a query stops within one page
    /// fetch of its deadline rather than running to completion.
    pub deadline: Option<Instant>,
    /// Corrupt-page set to fail fast against (see [`PageQuarantine`]).
    pub quarantine: Option<&'a dyn PageQuarantine>,
}

/// An opened CURE cube that answers node queries through `&self`.
pub struct ConcurrentCube {
    catalog: Arc<Catalog>,
    schema: Arc<CubeSchema>,
    meta: CubeMeta,
    plan: PlanSpec,
    coder: NodeCoder,
    fact: HeapFile,
    fact_schema: Schema,
    aggregates: Option<HeapFile>,
    fact_cache: SharedBufferCache,
    agg_cache: SharedBufferCache,
    stats: SharedQueryStats,
    read_path: ReadPath,
    /// The per-node point-query index, present iff `read_path` is `Mmap`.
    mmap: Option<MmapNodeIndex>,
    /// Each node's opened NT, CAT and TT relations (cache path).
    relations: NodeRelations,
}

/// A `ConcurrentCube` is shared across worker threads behind an `Arc`.
const _: () = {
    const fn assert_sync<T: Sync + Send>() {}
    assert_sync::<ConcurrentCube>();
};

/// [`RowFetcher`] over the shared sharded caches.
struct SharedFetcher<'f> {
    fact: &'f HeapFile,
    fact_cache: &'f SharedBufferCache,
    agg_cache: &'f SharedBufferCache,
    stats: &'f SharedQueryStats,
}

impl SharedFetcher<'_> {
    /// Gather fact rows page by page, running `before_page` before each
    /// page is touched.
    fn gather_facts(
        &self,
        rowids: &[u64],
        buf: &mut [u8],
        before_page: impl FnMut(u64) -> Result<()>,
    ) -> Result<()> {
        self.stats.fact_fetches.fetch_add(rowids.len() as u64, Ordering::Relaxed);
        self.fact.gather_shared(rowids, self.fact_cache, buf, before_page)
    }

    /// [`gather_facts`](Self::gather_facts) over `AGGREGATES`.
    fn gather_aggs(
        &self,
        agg: &HeapFile,
        rowids: &[u64],
        buf: &mut [u8],
        before_page: impl FnMut(u64) -> Result<()>,
    ) -> Result<()> {
        self.stats.agg_fetches.fetch_add(rowids.len() as u64, Ordering::Relaxed);
        agg.gather_shared(rowids, self.agg_cache, buf, before_page)
    }
}

impl RowFetcher for SharedFetcher<'_> {
    fn fetch_facts(&mut self, rowids: &[u64], buf: &mut [u8]) -> Result<()> {
        self.gather_facts(rowids, buf, |_| Ok(()))
    }

    fn fetch_aggs(&mut self, agg: &HeapFile, rowids: &[u64], buf: &mut [u8]) -> Result<()> {
        self.gather_aggs(agg, rowids, buf, |_| Ok(()))
    }
}

/// [`SharedFetcher`] wrapped with deadline and quarantine checks.
struct GuardedFetcher<'f, 'g> {
    inner: SharedFetcher<'f>,
    guard: QueryGuard<'g>,
    fact_name: String,
    agg_name: String,
}

impl GuardedFetcher<'_, '_> {
    fn check_deadline(&self) -> Result<()> {
        if let Some(d) = self.guard.deadline {
            if Instant::now() >= d {
                return Err(CubeError::Timeout(
                    "query deadline exceeded between page fetches".into(),
                ));
            }
        }
        Ok(())
    }

    fn check_quarantine(&self, relation: &str, page: u64) -> Result<()> {
        if let Some(q) = self.guard.quarantine {
            if q.is_quarantined(relation, page) {
                return Err(CubeError::Storage(StorageError::CorruptPage {
                    relation: relation.to_string(),
                    page,
                    detail: "page is quarantined pending repair".into(),
                }));
            }
        }
        Ok(())
    }
}

impl RowFetcher for GuardedFetcher<'_, '_> {
    fn fetch_facts(&mut self, rowids: &[u64], buf: &mut [u8]) -> Result<()> {
        self.inner.gather_facts(rowids, buf, |page| {
            self.check_deadline()?;
            self.check_quarantine(&self.fact_name, page)
        })
    }

    fn fetch_aggs(&mut self, agg: &HeapFile, rowids: &[u64], buf: &mut [u8]) -> Result<()> {
        self.inner.gather_aggs(agg, rowids, buf, |page| {
            self.check_deadline()?;
            self.check_quarantine(&self.agg_name, page)
        })
    }
}

impl ConcurrentCube {
    /// Open the cube stored under `prefix` with default cache sizing.
    pub fn open(catalog: Arc<Catalog>, schema: Arc<CubeSchema>, prefix: &str) -> Result<Self> {
        Self::open_with_caches(catalog, schema, prefix, CacheConfig::default())
    }

    /// Open the cube stored under `prefix`, sizing the shared caches.
    pub fn open_with_caches(
        catalog: Arc<Catalog>,
        schema: Arc<CubeSchema>,
        prefix: &str,
        caches: CacheConfig,
    ) -> Result<Self> {
        Self::open_with_read_path(catalog, schema, prefix, caches, ReadPath::Cache)
    }

    /// Open the cube stored under `prefix` on the chosen [`ReadPath`].
    ///
    /// With [`ReadPath::Mmap`], every sealed relation (fact, `AGGREGATES`,
    /// all NTs) is memory-mapped and CRC-verified once here, and the
    /// per-node point-query index is built — one pass at open buys
    /// O(probe + result) node queries afterwards. The shared caches are
    /// still allocated (repair re-verifies through both views) but stay
    /// cold during serving.
    pub fn open_with_read_path(
        catalog: Arc<Catalog>,
        schema: Arc<CubeSchema>,
        prefix: &str,
        caches: CacheConfig,
        read_path: ReadPath,
    ) -> Result<Self> {
        let meta = CubeMeta::read(&catalog, prefix)?;
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
            None => PlanSpec::new(&schema),
            Some(l) => PlanSpec::partitioned(&schema, l)?,
        };
        let coder = NodeCoder::new(&schema);
        let fact = catalog.open_relation(&meta.fact_rel)?;
        let fact_schema = fact.schema().clone();
        let agg_name = aggregates_rel_name(prefix);
        let aggregates =
            if catalog.exists(&agg_name) { Some(catalog.open_relation(&agg_name)?) } else { None };
        let mmap = match read_path {
            ReadPath::Cache => None,
            ReadPath::Mmap => Some(MmapNodeIndex::build(&catalog, &meta, &plan, &coder)?),
        };
        Ok(ConcurrentCube {
            catalog,
            schema,
            meta,
            plan,
            relations: NodeRelations::new(coder.num_nodes()),
            coder,
            fact,
            fact_schema,
            aggregates,
            fact_cache: SharedBufferCache::new(caches.fact_pages, caches.shards),
            agg_cache: SharedBufferCache::new(caches.agg_pages, caches.shards),
            stats: SharedQueryStats::default(),
            read_path,
            mmap,
        })
    }

    /// The read path this handle was opened on.
    pub fn read_path(&self) -> ReadPath {
        self.read_path
    }

    /// The cube's metadata.
    pub fn meta(&self) -> &CubeMeta {
        &self.meta
    }

    /// The node id coder.
    pub fn coder(&self) -> &NodeCoder {
        &self.coder
    }

    /// The shared fact-table page cache (for hit-rate reporting).
    pub fn fact_cache(&self) -> &SharedBufferCache {
        &self.fact_cache
    }

    /// The shared `AGGREGATES` page cache.
    pub fn agg_cache(&self) -> &SharedBufferCache {
        &self.agg_cache
    }

    /// Point-in-time counter snapshot, shaped like the exclusive handle's
    /// [`QueryStats`] so call sites can compare the two paths directly.
    pub fn stats_snapshot(&self) -> QueryStats {
        QueryStats {
            queries: self.stats.queries.load(Ordering::Relaxed),
            rows: self.stats.rows.load(Ordering::Relaxed),
            fact_fetches: self.stats.fact_fetches.load(Ordering::Relaxed),
            agg_fetches: self.stats.agg_fetches.load(Ordering::Relaxed),
            fact_cache_hits: self.fact_cache.hits(),
            fact_cache_misses: self.fact_cache.misses(),
        }
    }

    /// Zero all counters (cache contents are kept).
    pub fn reset_stats(&self) {
        self.stats.queries.store(0, Ordering::Relaxed);
        self.stats.rows.store(0, Ordering::Relaxed);
        self.stats.fact_fetches.store(0, Ordering::Relaxed);
        self.stats.agg_fetches.store(0, Ordering::Relaxed);
        self.fact_cache.reset_stats();
        self.agg_cache.reset_stats();
    }

    fn resolve_env(&self) -> ResolveEnv<'_> {
        ResolveEnv {
            catalog: &self.catalog,
            schema: &self.schema,
            meta: &self.meta,
            plan: &self.plan,
            coder: &self.coder,
            fact_schema: &self.fact_schema,
            aggregates: self.aggregates.as_ref(),
            relations: &self.relations,
        }
    }

    fn env(&self) -> (ResolveEnv<'_>, SharedFetcher<'_>) {
        (
            self.resolve_env(),
            SharedFetcher {
                fact: &self.fact,
                fact_cache: &self.fact_cache,
                agg_cache: &self.agg_cache,
                stats: &self.stats,
            },
        )
    }

    /// Answer `node` through the mmap index. Callers must have checked
    /// that the handle was opened on [`ReadPath::Mmap`].
    fn node_query_mmap(
        &self,
        node: NodeId,
        guard: &QueryGuard<'_>,
        mut attr: Option<&mut Attribution>,
    ) -> Result<Vec<CubeRow>> {
        let idx = self
            .mmap
            .as_ref()
            .ok_or_else(|| CubeError::Config("mmap read path is not enabled".into()))?;
        let t = attr.is_some().then(Instant::now);
        let levels = self.coder.decode(node)?;
        if let (Some(t), Some(a)) = (t, attr.as_deref_mut()) {
            a.probe_ns += t.elapsed().as_nanos() as u64;
        }
        let env = self.resolve_env();
        let mut out: Vec<CubeRow> = Vec::new();
        idx.scan_nt_cat(&env, &self.stats, node, &levels, guard, &mut out, attr.as_deref_mut())?;
        idx.scan_tts(&env, &self.stats, node, &levels, guard, &mut out, attr)?;
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.stats.rows.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Answer a full node query: every `(grouping values, aggregates)` row
    /// of `node`. Callable from any number of threads concurrently.
    pub fn node_query(&self, node: NodeId) -> Result<Vec<CubeRow>> {
        if self.mmap.is_some() {
            return self.node_query_mmap(node, &QueryGuard::default(), None);
        }
        let levels = self.coder.decode(node)?;
        let mut out: Vec<CubeRow> = Vec::new();
        let (env, mut fetcher) = self.env();
        resolve::scan_node(&env, &mut fetcher, node, &levels, &mut out, None, true)?;
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.stats.rows.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// [`node_query`](Self::node_query) under a [`QueryGuard`]: the same
    /// answer when nothing intervenes, [`CubeError::Timeout`] when the
    /// guard's deadline passes mid-query (checked before each page
    /// fetch), and a typed [`StorageError::CorruptPage`] without touching
    /// disk when a fetch would land on a quarantined page.
    pub fn node_query_guarded(&self, node: NodeId, guard: &QueryGuard<'_>) -> Result<Vec<CubeRow>> {
        if self.mmap.is_some() {
            return self.node_query_mmap(node, guard, None);
        }
        let levels = self.coder.decode(node)?;
        let mut out: Vec<CubeRow> = Vec::new();
        let (env, inner) = self.env();
        let mut fetcher = GuardedFetcher {
            inner,
            guard: *guard,
            fact_name: self.fact.relation_name(),
            agg_name: self.aggregates.as_ref().map(|a| a.relation_name()).unwrap_or_default(),
        };
        resolve::scan_node(&env, &mut fetcher, node, &levels, &mut out, None, true)?;
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.stats.rows.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// [`node_query_guarded`](Self::node_query_guarded) that also reports
    /// where the query's time went (index probe vs page reads vs
    /// compute). Attribution is only measured on the mmap path — on the
    /// cache path the returned [`Attribution`] is all zeros and the
    /// `read_path` label in the stats spine disambiguates.
    pub fn node_query_attributed(
        &self,
        node: NodeId,
        guard: &QueryGuard<'_>,
    ) -> Result<(Vec<CubeRow>, Attribution)> {
        if self.mmap.is_none() {
            return Ok((self.node_query_guarded(node, guard)?, Attribution::default()));
        }
        let start = Instant::now();
        let mut attr = Attribution::default();
        let rows = self.node_query_mmap(node, guard, Some(&mut attr))?;
        let total = start.elapsed().as_nanos() as u64;
        attr.compute_ns = total.saturating_sub(attr.probe_ns + attr.read_ns);
        Ok((rows, attr))
    }

    /// Name of the fact relation backing R-rowid resolution (the circuit
    /// breaker in `cure-serve` keys its failure counts on this).
    pub fn fact_relation(&self) -> String {
        self.fact.relation_name()
    }

    /// Re-verify one page of `relation` from disk, evicting any cached
    /// copy first so a repaired page cannot be shadowed by a stale
    /// (possibly corrupt) in-memory image. Returns `Ok` when the page now
    /// reads and checksums clean; the quarantine repair hook uses this to
    /// decide whether an entry may leave the quarantine set.
    pub fn reverify_page(&self, relation: &str, page: u64) -> Result<()> {
        let mut known = false;
        if self.fact.relation_name() == relation {
            self.fact_cache.evict(self.fact.file_id(), page);
            self.fact.reverify_page(page)?;
            known = true;
        } else if let Some(agg) = &self.aggregates {
            if agg.relation_name() == relation {
                self.agg_cache.evict(agg.file_id(), page);
                agg.reverify_page(page)?;
                known = true;
            }
        }
        // On the mmap path the repaired bytes must also checksum clean
        // through the mapped view (MAP_SHARED makes an on-disk rewrite
        // visible in place); the index additionally covers NT relations,
        // which the cache path never quarantines.
        if let Some(idx) = &self.mmap {
            if let Some(res) = idx.reverify_page(relation, page) {
                res?;
                known = true;
            }
        }
        if known {
            Ok(())
        } else {
            Err(CubeError::Config(format!("unknown relation '{relation}' for page repair")))
        }
    }

    /// Count iceberg query (see
    /// [`CureCube::iceberg_count_query`](crate::cure_reader::CureCube::iceberg_count_query));
    /// TTs are skipped without being read.
    pub fn iceberg_count_query(
        &self,
        node: NodeId,
        min_count: i64,
        count_measure: usize,
    ) -> Result<Vec<CubeRow>> {
        if min_count < 1 {
            return Err(CubeError::Config("iceberg threshold must be ≥ 1".into()));
        }
        let levels = self.coder.decode(node)?;
        let mut out: Vec<CubeRow> = Vec::new();
        if let Some(idx) = &self.mmap {
            let env = self.resolve_env();
            idx.scan_nt_cat(
                &env,
                &self.stats,
                node,
                &levels,
                &QueryGuard::default(),
                &mut out,
                None,
            )?;
        } else {
            let (env, mut fetcher) = self.env();
            resolve::scan_node(&env, &mut fetcher, node, &levels, &mut out, None, false)?;
        }
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        out.retain(|(_, aggs)| aggs[count_measure] > min_count);
        self.stats.rows.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use cure_core::cube::{CubeBuilder, CubeConfig};
    use cure_core::sink::DiskSink;
    use cure_core::{CubeSchema, Dimension, Tuples};
    use cure_storage::Catalog;

    use super::*;
    use crate::CureCube;

    fn build_test_cube(tag: &str) -> (Arc<Catalog>, Arc<CubeSchema>, String) {
        let dir =
            std::env::temp_dir().join(format!("cure_concurrent_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(dir).unwrap();
        let schema = CubeSchema::new(
            vec![Dimension::flat("A", 6), Dimension::flat("B", 5), Dimension::flat("C", 4)],
            2,
        )
        .unwrap();
        let (d, y) = (schema.num_dims(), schema.num_measures());
        let mut tuples = Tuples::new(d, y);
        let mut x = 0xBEEFu64;
        let mut dims = vec![0u32; d];
        for i in 0..4_000usize {
            for (j, v) in dims.iter_mut().enumerate() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = (x % schema.dims()[j].leaf_cardinality() as u64) as u32;
            }
            let aggs: Vec<i64> = (0..y).map(|k| (x % 50) as i64 + k as i64).collect();
            tuples.push_fact(&dims, &aggs, i as u64);
        }
        let fact_rel = "fact";
        let mut heap = catalog.create_or_replace(fact_rel, Tuples::fact_schema(d, y)).unwrap();
        tuples.store_fact(&mut heap).unwrap();
        drop(heap);
        let prefix = "cc_";
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

    fn sorted(mut rows: Vec<crate::CubeRow>) -> Vec<crate::CubeRow> {
        rows.sort();
        rows
    }

    /// What one cache-path query of a node asks of the fact table.
    #[derive(Default)]
    struct FactAccess {
        /// Fact rows fetched.
        rows: u64,
        /// Fact-cache lookups the query's page-ordered gathers make: the
        /// distinct sealed pages of each gather, summed over gathers.
        lookups: u64,
        /// Fact gathers the query made.
        gathers: u64,
        /// Every sealed fact page read.
        pages: BTreeSet<u64>,
    }

    /// [`RowFetcher`] that records the fact pages each batch spans.
    struct PageRecorder<'f> {
        inner: SharedFetcher<'f>,
        rows_per_page: u64,
        sealed_pages: u64,
        access: FactAccess,
    }

    impl RowFetcher for PageRecorder<'_> {
        fn fetch_facts(&mut self, rowids: &[u64], buf: &mut [u8]) -> Result<()> {
            let pages: BTreeSet<u64> = rowids
                .iter()
                .map(|r| r / self.rows_per_page)
                .filter(|&p| p < self.sealed_pages)
                .collect();
            self.access.rows += rowids.len() as u64;
            self.access.lookups += pages.len() as u64;
            self.access.gathers += 1;
            self.access.pages.extend(pages);
            self.inner.fetch_facts(rowids, buf)
        }

        fn fetch_aggs(&mut self, agg: &HeapFile, rowids: &[u64], buf: &mut [u8]) -> Result<()> {
            self.inner.fetch_aggs(agg, rowids, buf)
        }
    }

    /// Resolve `node` on the cache path, recording its fact access.
    fn fact_access(cube: &ConcurrentCube, node: NodeId) -> FactAccess {
        let levels = cube.coder().decode(node).unwrap();
        let (env, inner) = cube.env();
        let rows_per_page = cube.fact.rows_per_page() as u64;
        let mut recorder = PageRecorder {
            inner,
            rows_per_page,
            sealed_pages: cube.fact.num_rows() / rows_per_page,
            access: FactAccess::default(),
        };
        let mut out = Vec::new();
        resolve::scan_node(&env, &mut recorder, node, &levels, &mut out, None, true).unwrap();
        recorder.access
    }

    #[test]
    fn matches_exclusive_path_on_every_node() {
        let (catalog, schema, prefix) = build_test_cube("match");
        let shared =
            ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap();
        let mut exclusive = CureCube::open(&catalog, &schema, &prefix).unwrap();
        for node in 0..shared.coder().num_nodes() {
            // Page-ordered reads still answer in resolution order.
            let a = shared.node_query(node).unwrap();
            let b = exclusive.node_query(node).unwrap();
            assert_eq!(a, b, "node {node} diverged");
        }
    }

    #[test]
    fn exclusive_fact_access_is_per_row_and_unchanged() {
        // `(fact_fetches, fact_cache_hits, fact_cache_misses)` of each
        // node, queried in id order on one handle with counters reset in
        // between: at the default cache size and at a one-page cache,
        // where the hit count depends on the order rows are fetched in.
        // The exclusive handle keeps the per-row, resolution-order fact
        // access that Figures 16 and 17 measure; these are its counts.
        const DEFAULT_CACHE: [(u64, u64, u64); 8] = [
            (120, 118, 2),
            (20, 20, 0),
            (24, 24, 0),
            (4, 4, 0),
            (30, 30, 0),
            (5, 5, 0),
            (6, 6, 0),
            (1, 1, 0),
        ];
        const ONE_PAGE_CACHE: [(u64, u64, u64); 8] = [
            (120, 105, 15),
            (20, 20, 0),
            (24, 24, 0),
            (4, 4, 0),
            (30, 30, 0),
            (5, 5, 0),
            (6, 6, 0),
            (1, 1, 0),
        ];
        let (catalog, schema, prefix) = build_test_cube("exclusive_pin");
        let mut cube = CureCube::open(&catalog, &schema, &prefix).unwrap();
        for (pages, expect) in [(None, DEFAULT_CACHE), (Some(1), ONE_PAGE_CACHE)] {
            if let Some(p) = pages {
                cube.set_fact_cache_pages(p);
            }
            let got: Vec<(u64, u64, u64)> = (0..cube.coder().num_nodes())
                .map(|node| {
                    cube.reset_stats();
                    cube.node_query(node).unwrap();
                    let s = cube.stats();
                    (s.fact_fetches, s.fact_cache_hits, s.fact_cache_misses)
                })
                .collect();
            assert_eq!(got, expect, "fact cache pages {pages:?}");
        }
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        let (catalog, schema, prefix) = build_test_cube("threads");
        let cube = Arc::new(
            ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap(),
        );
        let nodes = cube.coder().num_nodes();
        // Reference answers from the same shared handle, single-threaded.
        let reference: Vec<_> = (0..nodes).map(|n| sorted(cube.node_query(n).unwrap())).collect();
        let access: Vec<FactAccess> = (0..nodes).map(|n| fact_access(&cube, n)).collect();
        cube.reset_stats();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cube = Arc::clone(&cube);
                let reference = reference.clone();
                std::thread::spawn(move || {
                    for i in 0..nodes * 2 {
                        let node = (i + t) % nodes;
                        let got = sorted(cube.node_query(node).unwrap());
                        assert_eq!(got, reference[node as usize], "node {node} diverged");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cube.stats_snapshot();
        assert_eq!(stats.queries, 8 * nodes * 2);
        // Each thread queried every node twice. Every query fetches its
        // rows in one gather, and so makes exactly one shared-cache access
        // per distinct sealed fact page it reads, whatever the eviction and
        // interleaving (tail-page rows need no access).
        assert!(access.iter().all(|a| a.gathers == 1), "one fact gather per query");
        let per_sweep = |f: fn(&FactAccess) -> u64| access.iter().map(f).sum::<u64>();
        assert_eq!(stats.fact_fetches, 16 * per_sweep(|a| a.rows));
        assert_eq!(stats.fact_cache_hits + stats.fact_cache_misses, 16 * per_sweep(|a| a.lookups));
        let shard_total: u64 =
            cube.fact_cache().shard_stats().iter().map(|s| s.hits + s.misses).sum();
        assert_eq!(shard_total, stats.fact_cache_hits + stats.fact_cache_misses);
    }

    #[test]
    fn repeated_query_verifies_no_page_again() {
        let (catalog, schema, prefix) = build_test_cube("repeat");
        let cube =
            ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap();
        let nodes = cube.coder().num_nodes();
        let first: Vec<_> = (0..nodes).map(|n| cube.node_query(n).unwrap()).collect();
        let verified = catalog.stats().checksum_verifications();
        assert!(verified > 0, "the first sweep verified the pages it read");
        for node in 0..nodes {
            assert_eq!(cube.node_query(node).unwrap(), first[node as usize], "node {node}");
        }
        assert_eq!(
            catalog.stats().checksum_verifications(),
            verified,
            "a repeated query re-verified a page"
        );
    }

    #[test]
    fn guarded_query_without_guard_matches_plain_path() {
        let (catalog, schema, prefix) = build_test_cube("guard_plain");
        let cube =
            ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap();
        let guard = QueryGuard::default();
        for node in 0..cube.coder().num_nodes() {
            let a = cube.node_query(node).unwrap();
            let b = cube.node_query_guarded(node, &guard).unwrap();
            assert_eq!(a, b, "node {node} diverged under a default guard");
        }
    }

    #[test]
    fn expired_deadline_times_out_fetching_queries() {
        let (catalog, schema, prefix) = build_test_cube("guard_deadline");
        let cube =
            ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap();
        let guard = QueryGuard { deadline: Some(std::time::Instant::now()), quarantine: None };
        let mut timeouts = 0u32;
        for node in 0..cube.coder().num_nodes() {
            match cube.node_query_guarded(node, &guard) {
                Err(CubeError::Timeout(_)) => timeouts += 1,
                Err(e) => panic!("node {node}: expected timeout, got {e}"),
                Ok(rows) => assert!(
                    rows.is_empty() || rows == cube.node_query(node).unwrap(),
                    "node {node}: partial rows leaked past the deadline"
                ),
            }
        }
        assert!(timeouts > 0, "an already-expired deadline never fired");
    }

    struct QuarantineAll;
    impl PageQuarantine for QuarantineAll {
        fn is_quarantined(&self, _relation: &str, _page: u64) -> bool {
            true
        }
    }

    #[test]
    fn quarantined_pages_fail_fast_and_typed() {
        let (catalog, schema, prefix) = build_test_cube("guard_quarantine");
        let cube =
            ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap();
        let guard = QueryGuard { deadline: None, quarantine: Some(&QuarantineAll) };
        let mut rejected = 0u32;
        for node in 0..cube.coder().num_nodes() {
            match cube.node_query_guarded(node, &guard) {
                Err(CubeError::Storage(cure_storage::StorageError::CorruptPage {
                    detail, ..
                })) => {
                    assert!(detail.contains("quarantined"));
                    rejected += 1;
                }
                Err(e) => panic!("node {node}: unexpected error {e}"),
                Ok(rows) => {
                    assert!(rows.is_empty(), "node {node} read rows through the quarantine")
                }
            }
        }
        assert!(rejected > 0, "a fully quarantined cube answered every node");
        // Repair is a no-op on sound pages and clears the way for reads.
        cube.reverify_page(&cube.fact_relation(), 0).unwrap();
        assert!(cube.reverify_page("no_such_rel", 0).is_err());
    }

    struct QuarantineOne {
        relation: String,
        page: u64,
    }
    impl PageQuarantine for QuarantineOne {
        fn is_quarantined(&self, relation: &str, page: u64) -> bool {
            relation == self.relation && page == self.page
        }
    }

    #[test]
    fn one_quarantined_fact_page_fails_exactly_the_nodes_that_read_it() {
        let (catalog, schema, prefix) = build_test_cube("guard_one_page");
        let open =
            || ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap();
        let probe_cube = open();
        let nodes = probe_cube.coder().num_nodes();
        let reference: Vec<_> = (0..nodes).map(|n| probe_cube.node_query(n).unwrap()).collect();
        let pages: Vec<BTreeSet<u64>> =
            (0..nodes).map(|n| fact_access(&probe_cube, n).pages).collect();
        // A sealed page that some nodes read and some do not.
        let page = pages
            .iter()
            .flatten()
            .copied()
            .find(|p| pages.iter().any(|s| !s.contains(p)))
            .expect("test cube has no page that only some nodes read");

        // A fresh handle, so its fact cache starts cold.
        let cube = open();
        let quarantine = QuarantineOne { relation: cube.fact_relation(), page };
        let guard = QueryGuard { deadline: None, quarantine: Some(&quarantine) };
        let (mut answered, mut rejected) = (0, 0);
        for node in 0..nodes {
            let reads_page = pages[node as usize].contains(&page);
            match cube.node_query_guarded(node, &guard) {
                Ok(rows) => {
                    assert!(!reads_page, "node {node} answered through quarantined page {page}");
                    assert_eq!(rows, reference[node as usize], "node {node} diverged");
                    answered += 1;
                }
                Err(CubeError::Storage(StorageError::CorruptPage {
                    relation,
                    page: p,
                    detail,
                })) => {
                    assert!(reads_page, "node {node} rejected without reading page {page}");
                    assert_eq!((relation, p), (cube.fact_relation(), page));
                    assert!(detail.contains("quarantined"), "{detail}");
                    rejected += 1;
                }
                Err(e) => panic!("node {node}: unexpected error {e}"),
            }
        }
        assert!(answered > 0 && rejected > 0, "answered {answered}, rejected {rejected}");

        // Every shard of the cache can hold every fact page, so a page
        // loaded during the sweep is still resident; the quarantined one
        // costs a page read now because it was never loaded.
        let rows_per_page = cube.fact.rows_per_page() as u64;
        let fact_cache = cube.fact_cache();
        let per_shard = fact_cache.capacity() / fact_cache.num_shards();
        assert!(per_shard as u64 > cube.fact.num_rows() / rows_per_page);
        let mut buf = vec![0u8; cube.fact_schema.row_width()];
        let mut page_reads_to_fetch = |p: u64| {
            let before = catalog.stats().pages_read();
            cube.fact.fetch_shared(p * rows_per_page, &cube.fact_cache, &mut buf).unwrap();
            catalog.stats().pages_read() - before
        };
        let loaded = pages
            .iter()
            .filter(|s| !s.contains(&page))
            .flatten()
            .copied()
            .next()
            .expect("an answered node reads a sealed page");
        assert_eq!(page_reads_to_fetch(loaded), 0, "page {loaded} was loaded by the sweep");
        assert_eq!(page_reads_to_fetch(page), 1, "quarantined page {page} was loaded");
    }

    #[test]
    fn mmap_path_matches_cache_path_on_every_node() {
        let (catalog, schema, prefix) = build_test_cube("mmap_match");
        let cache =
            ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap();
        let mmap = ConcurrentCube::open_with_read_path(
            Arc::clone(&catalog),
            Arc::clone(&schema),
            &prefix,
            CacheConfig::default(),
            ReadPath::Mmap,
        )
        .unwrap();
        assert_eq!(cache.read_path(), ReadPath::Cache);
        assert_eq!(mmap.read_path(), ReadPath::Mmap);
        for node in 0..cache.coder().num_nodes() {
            let a = sorted(cache.node_query(node).unwrap());
            let b = sorted(mmap.node_query(node).unwrap());
            assert_eq!(a, b, "node {node} diverged between read paths");
            let guard = QueryGuard::default();
            let c = sorted(mmap.node_query_guarded(node, &guard).unwrap());
            assert_eq!(a, c, "node {node} diverged on the guarded mmap path");
            let (d, _attr) = mmap.node_query_attributed(node, &guard).unwrap();
            assert_eq!(a, sorted(d), "node {node} diverged on the attributed mmap path");
            let i1 = sorted(cache.iceberg_count_query(node, 2, 1).unwrap());
            let i2 = sorted(mmap.iceberg_count_query(node, 2, 1).unwrap());
            assert_eq!(i1, i2, "node {node} iceberg diverged between read paths");
        }
        // The mmap path never touches the user-space caches.
        let s = mmap.stats_snapshot();
        assert_eq!(s.fact_cache_hits + s.fact_cache_misses, 0);
        // Attribution on a non-trivial node reports probe + read time.
        let (_, attr) = mmap.node_query_attributed(0, &QueryGuard::default()).unwrap();
        assert!(attr.probe_ns + attr.read_ns + attr.compute_ns > 0);
        // Repair through the mmap view covers fact and NT relations.
        mmap.reverify_page(&mmap.fact_relation(), 0).unwrap();
        assert!(mmap.reverify_page("no_such_rel", 0).is_err());
    }

    #[test]
    fn iceberg_matches_exclusive() {
        let (catalog, schema, prefix) = build_test_cube("iceberg");
        let shared =
            ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap();
        let mut exclusive = CureCube::open(&catalog, &schema, &prefix).unwrap();
        for node in 0..shared.coder().num_nodes() {
            let a = sorted(shared.iceberg_count_query(node, 2, 1).unwrap());
            let b = sorted(exclusive.iceberg_count_query(node, 2, 1).unwrap());
            assert_eq!(a, b, "node {node} diverged");
        }
    }
}

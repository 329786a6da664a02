//! Thread-safe node-query answering: [`ConcurrentCube`].
//!
//! The exclusive [`CureCube`](crate::cure_reader::CureCube) requires
//! `&mut self` because its per-handle LRU caches mutate on every fetch.
//! Serving workloads (many readers, one immutable cube) instead open a
//! `ConcurrentCube`: it owns `Arc`s of the catalog and schema, counts
//! work in atomics and answers through `&self`, so the whole cube can sit
//! behind one `Arc` shared by any number of threads (see the `cure-serve`
//! crate).
//!
//! Both [`ReadPath`]s answer through the one resolution engine,
//! the crate-private `resolve` module; the read path only chooses where
//! pages come from:
//!
//! * [`ReadPath::Cache`] opens each relation read-only, reads node
//!   sources with `pread` (opened on first use and kept for the epoch),
//!   and fetches fact and `AGGREGATES` rows with one page-ordered
//!   [`HeapFile::gather_shared`](cure_storage::HeapFile::gather_shared) per relation per query through the
//!   sharded [`SharedBufferCache`]s — one cache lookup per distinct page,
//!   the page-ordered access CURE+ gets by sorting row-ids (§5.3);
//! * [`ReadPath::Mmap`] maps every relation read-only at open, verifies
//!   every page once there, and visits rows as borrowed slices of the
//!   mapping — no lock, no copy, and no open, map or verify cost in a
//!   query's latency.
//!
//! Either way a query returns the same rows in the same order as the
//! exclusive handle, and the [`QueryGuard`]'s deadline and quarantine
//! are checked before each page a query touches: each page of the
//! segment its node sources are read from, and each fact and
//! `AGGREGATES` page.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cure_core::meta::CubeMeta;
use cure_core::sink::aggregates_rel_name;
use cure_core::{CubeError, CubeSchema, NodeCoder, NodeId, PlanSpec, Result};
use cure_storage::page::PAGE_HEADER;
use cure_storage::{Catalog, Schema, SharedBufferCache, StorageError};

use crate::cure_reader::QueryStats;
use crate::resolve::{self, Attribution, NodeRelations, ResolveEnv, RowFetcher, Source};
use crate::CubeRow;

/// Lock-free counterpart of [`QueryStats`] (cache hit/miss counters live
/// in the [`SharedBufferCache`]s themselves).
#[derive(Debug, Default)]
struct SharedQueryStats {
    queries: AtomicU64,
    rows: AtomicU64,
    fact_fetches: AtomicU64,
    agg_fetches: AtomicU64,
}

/// Where a [`ConcurrentCube`] reads its pages from.
///
/// On either path a handle serves one sealed epoch: the cube must stay
/// immutable for the lifetime of the handle, and live ingest swaps in a
/// *new* handle per epoch instead of mutating this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Relations read with `pread`; fact and `AGGREGATES` rows gathered
    /// page by page through the shared page caches.
    Cache,
    /// Relations memory-mapped and verified at open; rows served as
    /// borrowed slices of the mapping.
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

/// Cache sizing for [`ConcurrentCube::open_with_read_path`].
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
/// Consulted by [`ConcurrentCube::node_query_guarded`] *before* each
/// segment, fact or `AGGREGATES` page is read, so repeat reads of a page
/// that already failed its checksum become fast typed failures instead
/// of further disk I/O. Implemented by the quarantine set in `cure-serve`.
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

impl QueryGuard<'_> {
    /// The check every fetch makes before it touches page `page` of
    /// `relation`: a passed deadline is [`CubeError::Timeout`], and a
    /// quarantined page a typed [`StorageError::CorruptPage`].
    fn check_page(&self, relation: &str, page: u64) -> Result<()> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(CubeError::Timeout("query deadline exceeded between page fetches".into()));
        }
        if self.quarantine.is_some_and(|q| q.is_quarantined(relation, page)) {
            return Err(CubeError::Storage(StorageError::CorruptPage {
                relation: relation.to_string(),
                page,
                detail: "page is quarantined pending repair".into(),
            }));
        }
        Ok(())
    }
}

/// An opened CURE cube that answers node queries through `&self`.
pub struct ConcurrentCube {
    catalog: Arc<Catalog>,
    schema: Arc<CubeSchema>,
    meta: CubeMeta,
    plan: PlanSpec,
    coder: NodeCoder,
    read_path: ReadPath,
    /// The fact table, opened on `read_path`.
    fact: Source,
    /// `AGGREGATES`, opened on `read_path`, or [`Source::Absent`].
    aggregates: Source,
    fact_schema: Schema,
    agg_schema: Option<Schema>,
    /// Relation names of `fact` and `aggregates` (the quarantine keys).
    fact_name: String,
    agg_name: String,
    fact_cache: SharedBufferCache,
    agg_cache: SharedBufferCache,
    stats: SharedQueryStats,
    /// The cube's segment and each node's NT, CAT and TT in it.
    relations: NodeRelations,
}

/// A `ConcurrentCube` is shared across worker threads behind an `Arc`.
const _: () = {
    const fn assert_sync<T: Sync + Send>() {}
    assert_sync::<ConcurrentCube>();
};

/// [`RowFetcher`] of a [`ConcurrentCube`]: each fetch reads the pages of
/// the relation's [`Source`] — gathered through a shared cache, or
/// borrowed from the mapping — after the guard's check on each page, and
/// the guard checks each segment page a source scan reads too.
struct SharedFetcher<'f, 'g> {
    cube: &'f ConcurrentCube,
    guard: &'f QueryGuard<'g>,
}

impl RowFetcher for SharedFetcher<'_, '_> {
    fn fetch_facts(
        &mut self,
        rowids: &[u64],
        visit: impl FnMut(usize, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let c = self.cube;
        c.stats.fact_fetches.fetch_add(rowids.len() as u64, Ordering::Relaxed);
        fetch(&c.fact, &c.fact_name, &c.fact_cache, self.guard, rowids, visit)
    }

    fn fetch_aggs(
        &mut self,
        rowids: &[u64],
        visit: impl FnMut(usize, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let c = self.cube;
        c.stats.agg_fetches.fetch_add(rowids.len() as u64, Ordering::Relaxed);
        fetch(&c.aggregates, &c.agg_name, &c.agg_cache, self.guard, rowids, visit)
    }

    fn before_segment_page(&self, page: u64) -> Result<()> {
        self.guard.check_page(self.cube.relations.segment_name(), page)
    }
}

/// Visit rows `rowids` of relation `src` (named `name`) in input order.
///
/// A heap relation is gathered page by page through `cache` into one
/// buffer, which is then visited. A mapped relation is visited in place:
/// each row is a borrowed slice of its page, and a page is looked up
/// once per run of row-ids that falls on it. Both check `guard` before
/// every page they touch.
fn fetch(
    src: &Source,
    name: &str,
    cache: &SharedBufferCache,
    guard: &QueryGuard<'_>,
    rowids: &[u64],
    mut visit: impl FnMut(usize, &[u8]) -> Result<()>,
) -> Result<()> {
    match src {
        Source::Relation(rel) => {
            let w = rel.schema().row_width();
            let mut buf = vec![0u8; rowids.len() * w];
            rel.gather_shared(rowids, cache, &mut buf, |page| guard.check_page(name, page))?;
            buf.chunks_exact(w).enumerate().try_for_each(|(i, row)| visit(i, row))
        }
        Source::Mapped(rel) => {
            let (w, rpp, n) =
                (rel.schema().row_width(), rel.rows_per_page() as u64, rel.num_rows());
            let mut page: (u64, Cow<'_, [u8]>) = (u64::MAX, Cow::Borrowed(&[]));
            for (i, &rowid) in rowids.iter().enumerate() {
                if rowid >= n {
                    return Err(StorageError::RowOutOfBounds { rowid, num_rows: n }.into());
                }
                if page.0 != rowid / rpp {
                    guard.check_page(name, rowid / rpp)?;
                    page = (rowid / rpp, rel.page(rowid / rpp)?);
                }
                let off = PAGE_HEADER + (rowid % rpp) as usize * w;
                visit(i, &page.1[off..off + w])?;
            }
            Ok(())
        }
        Source::Absent => {
            Err(CubeError::Schema(format!("no relation '{name}' to fetch rows from")))
        }
    }
}

impl ConcurrentCube {
    /// Open the cube stored under `prefix` on the cache read path with
    /// default cache sizing.
    pub fn open(catalog: Arc<Catalog>, schema: Arc<CubeSchema>, prefix: &str) -> Result<Self> {
        Self::open_with_read_path(catalog, schema, prefix, CacheConfig::default(), ReadPath::Cache)
    }

    /// Open the cube stored under `prefix` on the chosen [`ReadPath`].
    ///
    /// Every file is opened read-only; opening never writes the cube.
    /// The cube's segment is opened once, its directory read and every
    /// node resolved in it. With [`ReadPath::Mmap`], every file the cube
    /// reads (fact, `AGGREGATES`, the segment: one mapping each) is mapped
    /// and its pages verified here, once. The shared caches are allocated
    /// on both paths but stay cold on the mmap path.
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
        let fact = resolve::open_source(&catalog, &meta.fact_rel, read_path)?;
        let fact_schema = fact
            .schema()
            .cloned()
            .ok_or_else(|| CubeError::Schema("the fact table opened as no relation".into()))?;
        let agg_name = aggregates_rel_name(prefix);
        let aggregates = if catalog.exists(&agg_name) {
            resolve::open_source(&catalog, &agg_name, read_path)?
        } else {
            Source::Absent
        };
        let relations = NodeRelations::open(&catalog, &meta, &coder, read_path)?;
        let cube = ConcurrentCube {
            fact_schema,
            agg_schema: aggregates.schema().cloned(),
            fact_name: fact.relation_name(),
            agg_name: aggregates.relation_name(),
            catalog,
            schema,
            meta,
            plan,
            relations,
            coder,
            read_path,
            fact,
            aggregates,
            fact_cache: SharedBufferCache::new(caches.fact_pages, caches.shards),
            agg_cache: SharedBufferCache::new(caches.agg_pages, caches.shards),
            stats: SharedQueryStats::default(),
        };
        if read_path == ReadPath::Mmap {
            cube.resolve_env().fill_all()?;
        }
        Ok(cube)
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
            agg_schema: self.agg_schema.as_ref(),
            relations: &self.relations,
        }
    }

    /// Resolve `node` under `guard`, adding probe and read time to `attr`.
    fn answer(
        &self,
        node: NodeId,
        guard: &QueryGuard<'_>,
        attr: Option<&mut Attribution>,
    ) -> Result<Vec<CubeRow>> {
        let mut fetcher = SharedFetcher { cube: self, guard };
        let out = resolve::scan_node(&self.resolve_env(), &mut fetcher, node, None, true, attr)?;
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.stats.rows.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Answer a full node query: every `(grouping values, aggregates)` row
    /// of `node`. Callable from any number of threads concurrently.
    pub fn node_query(&self, node: NodeId) -> Result<Vec<CubeRow>> {
        self.answer(node, &QueryGuard::default(), None)
    }

    /// [`node_query`](Self::node_query) under a [`QueryGuard`]: the same
    /// answer when nothing intervenes, [`CubeError::Timeout`] when the
    /// guard's deadline passes mid-query (checked before each page read),
    /// and a typed [`StorageError::CorruptPage`] without touching the
    /// page when a read would land on a quarantined one — a segment,
    /// fact or `AGGREGATES` page.
    pub fn node_query_guarded(&self, node: NodeId, guard: &QueryGuard<'_>) -> Result<Vec<CubeRow>> {
        self.answer(node, guard, None)
    }

    /// [`node_query_guarded`](Self::node_query_guarded) that also reports
    /// where the query's time went (see [`Attribution`]), on either read
    /// path.
    pub fn node_query_attributed(
        &self,
        node: NodeId,
        guard: &QueryGuard<'_>,
    ) -> Result<(Vec<CubeRow>, Attribution)> {
        let start = Instant::now();
        let mut attr = Attribution::default();
        let rows = self.answer(node, guard, Some(&mut attr))?;
        let total = start.elapsed().as_nanos() as u64;
        attr.compute_ns = total.saturating_sub(attr.probe_ns + attr.read_ns);
        Ok((rows, attr))
    }

    /// Name of the fact relation backing R-rowid resolution (the circuit
    /// breaker in `cure-serve` keys its failure counts on this).
    pub fn fact_relation(&self) -> String {
        self.fact_name.clone()
    }

    /// Re-verify one page of `relation` — the fact table, `AGGREGATES` or
    /// the cube's segment (which holds every node's NT, CAT and TT; its
    /// pages are numbered across the file) — from disk, evicting any
    /// cached copy first so a repaired page cannot be shadowed by a stale
    /// in-memory image. Returns
    /// `Ok` when the page now reads and checksums clean; the quarantine
    /// repair hook uses this to decide whether an entry may leave the
    /// quarantine set.
    pub fn reverify_page(&self, relation: &str, page: u64) -> Result<()> {
        let src = if relation == self.fact_name {
            &self.fact
        } else if relation == self.agg_name {
            &self.aggregates
        } else if relation == self.relations.segment_name() {
            return self.relations.reverify_page(page);
        } else {
            &Source::Absent
        };
        match src {
            Source::Relation(rel) => {
                self.fact_cache.evict(rel.file_id(), page);
                self.agg_cache.evict(rel.file_id(), page);
                Ok(rel.reverify_page(page)?)
            }
            Source::Mapped(rel) => Ok(rel.reverify_page(page)?),
            Source::Absent => {
                Err(CubeError::Config(format!("unknown relation '{relation}' for page repair")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use cure_core::cube::{CubeBuilder, CubeConfig};
    use cure_core::sink::DiskSink;
    use cure_core::{CubeSchema, Dimension, Tuples};
    use cure_storage::scratch::scratch_dir;
    use cure_storage::Catalog;

    use super::*;
    use crate::CureCube;

    fn build_test_cube(tag: &str) -> (Arc<Catalog>, Arc<CubeSchema>, String) {
        let catalog = Catalog::open(scratch_dir(&format!("concurrent_{tag}"))).unwrap();
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

    /// The cache-path handle's fact table.
    fn fact_heap(cube: &ConcurrentCube) -> &cure_storage::HeapFile {
        match &cube.fact {
            Source::Relation(rel) => rel,
            _ => panic!("the cache path opens the fact table as a heap relation"),
        }
    }

    /// [`RowFetcher`] that records the fact pages each batch spans.
    struct PageRecorder<'f, 'g> {
        inner: SharedFetcher<'f, 'g>,
        rows_per_page: u64,
        sealed_pages: u64,
        access: FactAccess,
    }

    impl RowFetcher for PageRecorder<'_, '_> {
        fn fetch_facts(
            &mut self,
            rowids: &[u64],
            visit: impl FnMut(usize, &[u8]) -> Result<()>,
        ) -> Result<()> {
            let pages: BTreeSet<u64> = rowids
                .iter()
                .map(|r| r / self.rows_per_page)
                .filter(|&p| p < self.sealed_pages)
                .collect();
            self.access.rows += rowids.len() as u64;
            self.access.lookups += pages.len() as u64;
            self.access.gathers += 1;
            self.access.pages.extend(pages);
            self.inner.fetch_facts(rowids, visit)
        }

        fn fetch_aggs(
            &mut self,
            rowids: &[u64],
            visit: impl FnMut(usize, &[u8]) -> Result<()>,
        ) -> Result<()> {
            self.inner.fetch_aggs(rowids, visit)
        }

        fn before_segment_page(&self, page: u64) -> Result<()> {
            self.inner.before_segment_page(page)
        }
    }

    /// Resolve `node` on the cache path, recording its fact access.
    fn fact_access(cube: &ConcurrentCube, node: NodeId) -> FactAccess {
        let guard = QueryGuard::default();
        let rows_per_page = fact_heap(cube).rows_per_page() as u64;
        let mut recorder = PageRecorder {
            inner: SharedFetcher { cube, guard: &guard },
            rows_per_page,
            sealed_pages: fact_heap(cube).num_rows() / rows_per_page,
            access: FactAccess::default(),
        };
        resolve::scan_node(&cube.resolve_env(), &mut recorder, node, None, true, None).unwrap();
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

    /// Every page of the cube's segment a query of `node` reads, from
    /// the segment's directory: the extents of the node's NT and CAT and
    /// of the TT of each node on its plan path.
    fn segment_pages(
        cube: &ConcurrentCube,
        dir: &cure_storage::Directory,
        node: NodeId,
    ) -> BTreeSet<u64> {
        use cure_core::sink::{cat_rel_name, nt_rel_name, tt_rel_name};
        let p = &cube.meta.prefix;
        let mut names = vec![nt_rel_name(p, node), cat_rel_name(p, node)];
        names.extend(cube.plan.path_to(node).unwrap().into_iter().map(|m| tt_rel_name(p, m)));
        let extents = names.iter().filter_map(|name| dir.get(name)).flat_map(|e| &e.extents);
        extents.flat_map(|x| x.first_page..x.first_page + u64::from(x.pages)).collect()
    }

    #[test]
    fn one_quarantined_fact_page_fails_exactly_the_nodes_that_read_it() {
        let (catalog, schema, prefix) = build_test_cube("guard_one_page");
        let open = |read_path| {
            ConcurrentCube::open_with_read_path(
                Arc::clone(&catalog),
                Arc::clone(&schema),
                &prefix,
                CacheConfig::default(),
                read_path,
            )
            .unwrap()
        };
        let probe_cube = open(ReadPath::Cache);
        let nodes = probe_cube.coder().num_nodes();
        let reference: Vec<_> = (0..nodes).map(|n| probe_cube.node_query(n).unwrap()).collect();
        let fact_pages: Vec<BTreeSet<u64>> =
            (0..nodes).map(|n| fact_access(&probe_cube, n).pages).collect();
        let segment = catalog.open_segment(&prefix).unwrap();
        let segment_pages: Vec<BTreeSet<u64>> =
            (0..nodes).map(|n| segment_pages(&probe_cube, segment.directory(), n)).collect();
        // A page that some nodes read and some do not.
        let pick = |pages: &[BTreeSet<u64>]| {
            pages
                .iter()
                .flatten()
                .copied()
                .find(|p| pages.iter().any(|s| !s.contains(p)))
                .expect("test cube has no page that only some nodes read")
        };

        // Quarantine `page` of `relation` and query every node on `cube`:
        // exactly the nodes that read the page fail, typed and fast.
        let sweep = |cube: &ConcurrentCube, relation: &str, page: u64, pages: &[BTreeSet<u64>]| {
            let quarantine = QuarantineOne { relation: relation.to_string(), page };
            let guard = QueryGuard { deadline: None, quarantine: Some(&quarantine) };
            let (mut answered, mut rejected) = (0, 0);
            for node in 0..nodes {
                let reads_page = pages[node as usize].contains(&page);
                match cube.node_query_guarded(node, &guard) {
                    Ok(rows) => {
                        assert!(
                            !reads_page,
                            "node {node} answered through quarantined page {page} of {relation}"
                        );
                        assert_eq!(rows, reference[node as usize], "node {node} diverged");
                        answered += 1;
                    }
                    Err(CubeError::Storage(StorageError::CorruptPage {
                        relation: r,
                        page: p,
                        detail,
                    })) => {
                        assert!(reads_page, "node {node} rejected without reading page {page}");
                        assert_eq!((r.as_str(), p), (relation, page));
                        assert!(detail.contains("quarantined"), "{detail}");
                        rejected += 1;
                    }
                    Err(e) => panic!("node {node}: unexpected error {e}"),
                }
            }
            assert!(answered > 0 && rejected > 0, "answered {answered}, rejected {rejected}");
        };

        // A fresh handle, so its fact cache starts cold.
        let cube = open(ReadPath::Cache);
        sweep(&cube, &cube.fact_relation(), pick(&fact_pages), &fact_pages);
        // A page of the segment every node source is read from, on both
        // read paths.
        for read_path in [ReadPath::Cache, ReadPath::Mmap] {
            sweep(&open(read_path), segment.name(), pick(&segment_pages), &segment_pages);
        }

        // Every shard of the cache can hold every fact page, so a page
        // loaded during the sweep is still resident; the quarantined one
        // costs a page read now because it was never loaded.
        let page = pick(&fact_pages);
        let fact = fact_heap(&cube);
        let rows_per_page = fact.rows_per_page() as u64;
        let fact_cache = cube.fact_cache();
        let per_shard = fact_cache.capacity() / fact_cache.num_shards();
        assert!(per_shard as u64 > fact.num_rows() / rows_per_page);
        let mut buf = vec![0u8; cube.fact_schema.row_width()];
        let mut page_reads_to_fetch = |p: u64| {
            let before = catalog.stats().pages_read();
            fact.gather_shared(&[p * rows_per_page], &cube.fact_cache, &mut buf, |_| {
                Ok::<(), StorageError>(())
            })
            .unwrap();
            catalog.stats().pages_read() - before
        };
        let loaded = fact_pages
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
        let guard = QueryGuard::default();
        for node in 0..cache.coder().num_nodes() {
            // One engine: the same rows in the same order on both paths.
            let a = cache.node_query(node).unwrap();
            assert_eq!(a, mmap.node_query(node).unwrap(), "node {node} diverged");
            assert_eq!(a, mmap.node_query_guarded(node, &guard).unwrap(), "node {node} guarded");
            let (d, _) = mmap.node_query_attributed(node, &guard).unwrap();
            assert_eq!(a, d, "node {node} diverged on the attributed mmap path");
        }
        // The mmap path never touches the user-space caches.
        let s = mmap.stats_snapshot();
        assert_eq!(s.fact_cache_hits + s.fact_cache_misses, 0);
        // Repair through the mapped view covers the fact table and the
        // segment every node relation lives in.
        mmap.reverify_page(&mmap.fact_relation(), 0).unwrap();
        mmap.reverify_page(&some_nt(&catalog, &prefix, mmap.coder()), 0).unwrap();
        assert!(mmap.reverify_page("no_such_rel", 0).is_err());
    }

    /// The name of the test cube's segment, which holds every node's NT.
    fn some_nt(_catalog: &Catalog, prefix: &str, _coder: &NodeCoder) -> String {
        cure_storage::segment::segment_name(prefix)
    }

    #[test]
    fn attribution_measures_reads_on_both_paths() {
        let (catalog, schema, prefix) = build_test_cube("attr");
        for read_path in [ReadPath::Cache, ReadPath::Mmap] {
            let cube = ConcurrentCube::open_with_read_path(
                Arc::clone(&catalog),
                Arc::clone(&schema),
                &prefix,
                CacheConfig::default(),
                read_path,
            )
            .unwrap();
            // Node 0 groups by every dimension, so it fetches fact rows.
            let (rows, attr) = cube.node_query_attributed(0, &QueryGuard::default()).unwrap();
            assert!(!rows.is_empty());
            assert!(attr.read_ns > 0, "{read_path:?}: no read time attributed");
            assert!(attr.probe_ns > 0, "{read_path:?}: no probe time attributed");
        }
    }

    #[test]
    fn cache_path_repairs_segment_pages_before_any_query() {
        let (catalog, schema, prefix) = build_test_cube("repair_nodes");
        let cube =
            ConcurrentCube::open(Arc::clone(&catalog), Arc::clone(&schema), &prefix).unwrap();
        // Nothing has been queried yet: repair reads the page from disk.
        cube.reverify_page(&some_nt(&catalog, &prefix, cube.coder()), 0).unwrap();
        assert!(cube.reverify_page("no_such_rel", 0).is_err());
    }
}

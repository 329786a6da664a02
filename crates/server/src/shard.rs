//! [`ShardRouter`]: scatter-gather serving over partition-scoped
//! sub-cubes, with snapshot-replicated replicas.
//!
//! The paper's partition-level processing (§4) makes a fact subset an
//! independently cube-able unit; `cure_core::shard` builds one complete
//! sub-cube per disjoint fact shard. This module serves them as **one
//! logical cube**: a node query scatters to every shard, each shard
//! answers from one of its replicas, and the partial answers are merged
//! through [`cure_query::merge_partials`] — the distributive-aggregate
//! merge that makes the union of shard cubes equal the cube of the
//! union. Iceberg thresholds are applied *after* the merge
//! ([`ShardRouter::iceberg_query`]); per-shard support says nothing
//! about global support.
//!
//! Replicas are shipped with [`replicate_shards`]: a prefix-scoped
//! snapshot export of every shard family (facts, cube relations, meta
//! blob, sealed manifest), CRC-verified page by page on the receiving
//! side and admitted only when every shard's [`BuildManifest`] is
//! `Complete`. A replica directory that passes is byte-identical to the
//! primary, so any replica may serve any shard's reads; the router
//! round-robins across replicas per shard and fails over to the next
//! replica on a typed failure.
//!
//! Resilience composes per replica: every `(shard, replica)` pair is a
//! full [`CubeService`] with its own circuit breaker and quarantine, so
//! a corrupt replica degrades to its siblings instead of the whole
//! router.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cure_core::{
    read_shard_count, shard_cube_prefix, shard_prefix, write_shard_count, BuildManifest,
    BuildPhase, CubeError, CubeSchema, NodeId, Result, SCHEMA_BLOB,
};
use cure_query::{
    iceberg_filter_merged, merge_partials, CacheConfig, ConcurrentCube, CubeRow, ReadPath,
};
use cure_storage::{export_snapshot, verify_snapshot, Catalog};

use crate::backend::{ShardBackend, WireTotals};
use crate::metrics::ServeMetrics;
use crate::resilience::ResilienceConfig;
use crate::service::{CubeService, QueryOptions, ServeError};

/// How a [`ShardRouter`] opens its per-replica services.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouterConfig {
    /// Shared-cache sizing for every `(shard, replica)` cube.
    pub caches: CacheConfig,
    /// Read path for every cube (mmap requires sealed relations — which
    /// replication guarantees).
    pub read_path: ReadPath,
    /// Breaker tuning for every per-replica service.
    pub resilience: ResilienceConfig,
}

impl Default for ShardRouterConfig {
    fn default() -> Self {
        ShardRouterConfig {
            caches: CacheConfig::default(),
            read_path: ReadPath::Cache,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Point-in-time serving counters for one shard (summed over replicas).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Replicas backing the shard.
    pub replicas: usize,
    /// Sub-queries answered by this shard across replicas.
    pub queries: u64,
    /// Sub-query failures across replicas.
    pub errors: u64,
    /// Failovers: a replica failed and a sibling was tried.
    pub failovers: u64,
    /// Socket counters summed over replicas (all zero for in-process
    /// backends).
    pub wire: WireTotals,
}

/// One shard: its replica backends plus a round-robin cursor. A backend
/// is either an in-process [`CubeService`] or a socket
/// [`RemoteShardBackend`](crate::net::RemoteShardBackend) — the router
/// does not care which.
struct Shard {
    replicas: Vec<Arc<dyn ShardBackend>>,
    cursor: AtomicUsize,
    failovers: AtomicU64,
}

struct RouterInner {
    schema: Arc<CubeSchema>,
    shards: Vec<Shard>,
    metrics: Arc<ServeMetrics>,
    num_nodes: NodeId,
}

/// A thread-safe, clonable scatter-gather router over sharded sub-cubes.
///
/// Mirrors [`CubeService`]'s surface — one [`query`](Self::query) under
/// [`QueryOptions`] — so callers treat a router and a single service
/// interchangeably; [`iceberg_query`](Self::iceberg_query) adds a
/// post-merge threshold.
#[derive(Clone)]
pub struct ShardRouter {
    inner: Arc<RouterInner>,
}

impl ShardRouter {
    /// Open a router over one or more replica directories. Each
    /// directory must hold a full copy of every shard family (the
    /// primary catalog qualifies; so does any [`replicate_shards`]
    /// destination) and record the same shard count in its topology
    /// blob.
    pub fn open<P: AsRef<Path>>(
        replica_dirs: &[P],
        schema: Arc<CubeSchema>,
        cfg: &ShardRouterConfig,
    ) -> Result<Self> {
        if replica_dirs.is_empty() {
            return Err(CubeError::Config("shard router needs at least one replica dir".into()));
        }
        let mut catalogs = Vec::with_capacity(replica_dirs.len());
        let mut shards_n = None;
        for dir in replica_dirs {
            let catalog = Arc::new(Catalog::open(dir.as_ref())?);
            let n = read_shard_count(&catalog)?.ok_or_else(|| {
                CubeError::Config(format!(
                    "no shard topology in '{}' — not a sharded catalog",
                    dir.as_ref().display()
                ))
            })?;
            match shards_n {
                None => shards_n = Some(n),
                Some(m) if m != n => {
                    return Err(CubeError::Config(format!(
                        "replica '{}' has {n} shard(s), expected {m}",
                        dir.as_ref().display()
                    )));
                }
                Some(_) => {}
            }
            catalogs.push(catalog);
        }
        // A topology of zero shards is rejected by `from_backends`.
        let n = shards_n.unwrap_or(0);
        let mut backends = Vec::with_capacity(n);
        for k in 0..n {
            let mut replicas: Vec<Arc<dyn ShardBackend>> = Vec::with_capacity(catalogs.len());
            for catalog in &catalogs {
                let cube = ConcurrentCube::open_with_read_path(
                    Arc::clone(catalog),
                    Arc::clone(&schema),
                    &shard_cube_prefix(k),
                    cfg.caches,
                    cfg.read_path,
                )?;
                replicas.push(Arc::new(CubeService::from_cube_with_resilience(
                    Arc::new(cube),
                    cfg.resilience,
                )));
            }
            backends.push(replicas);
        }
        Self::from_backends(schema, backends)
    }

    /// Build a router over pre-constructed backends — one inner vec of
    /// replicas per shard. [`open`](Self::open) passes in-process
    /// [`CubeService`]s; the socket path passes
    /// [`RemoteShardBackend`](crate::net::RemoteShardBackend)s, each
    /// dialed to one shard-server process. Every backend must serve the
    /// same lattice (same schema ⇒ same node count); mixed in-process and
    /// socket replicas within one shard are allowed.
    pub fn from_backends(
        schema: Arc<CubeSchema>,
        backends: Vec<Vec<Arc<dyn ShardBackend>>>,
    ) -> Result<Self> {
        if backends.is_empty() {
            return Err(CubeError::Config("shard router needs at least one shard".into()));
        }
        let mut num_nodes = 0;
        for (k, replicas) in backends.iter().enumerate() {
            if replicas.is_empty() {
                return Err(CubeError::Config(format!("shard {k} has no replicas")));
            }
            for r in replicas {
                let n = r.num_nodes();
                if num_nodes == 0 {
                    num_nodes = n;
                } else if n != num_nodes {
                    return Err(CubeError::Config(format!(
                        "shard {k} replica '{}' serves {n} nodes, expected {num_nodes}",
                        r.describe()
                    )));
                }
            }
        }
        let shards = backends
            .into_iter()
            .map(|replicas| Shard {
                replicas,
                cursor: AtomicUsize::new(0),
                failovers: AtomicU64::new(0),
            })
            .collect();
        Ok(ShardRouter {
            inner: Arc::new(RouterInner {
                schema,
                shards,
                metrics: Arc::new(ServeMetrics::new()),
                num_nodes,
            }),
        })
    }

    /// Number of nodes in the logical cube's lattice.
    pub fn num_nodes(&self) -> NodeId {
        self.inner.num_nodes
    }

    /// The schema the shards were built over.
    pub fn schema(&self) -> &Arc<CubeSchema> {
        &self.inner.schema
    }

    /// Router-level metrics: one entry per *merged* query, timed across
    /// the whole scatter-gather (per-replica sub-query metrics live in
    /// the replica services).
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.inner.metrics
    }

    /// Per-shard serving counters, shard-labelled (index = shard).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(k, s)| ShardStats {
                shard: k,
                replicas: s.replicas.len(),
                queries: s.replicas.iter().map(|r| r.metrics().queries()).sum(),
                errors: s.replicas.iter().map(|r| r.metrics().errors()).sum(),
                failovers: s.failovers.load(Ordering::Relaxed),
                wire: s
                    .replicas
                    .iter()
                    .fold(WireTotals::default(), |acc, r| acc.merged(r.wire_totals())),
            })
            .collect()
    }

    /// Socket counters summed over every backend (all zero for a fully
    /// in-process router).
    pub fn wire_totals(&self) -> WireTotals {
        self.inner
            .shards
            .iter()
            .flat_map(|s| s.replicas.iter())
            .fold(WireTotals::default(), |acc, r| acc.merged(r.wire_totals()))
    }

    /// Zero the router metrics and every replica backend's counters
    /// (metrics, cache counters, wire counters — contents are kept).
    pub fn reset_stats(&self) {
        self.inner.metrics.reset();
        for s in &self.inner.shards {
            s.failovers.store(0, Ordering::Relaxed);
            for r in &s.replicas {
                r.reset_counters();
            }
        }
    }

    /// Ask shard `k` for its partial answer, round-robining over its
    /// replicas and failing over to the next replica on error. Returns
    /// the last replica's error when every replica fails; a typed
    /// timeout propagates immediately (the request's budget is spent —
    /// retrying a sibling cannot un-spend it).
    fn shard_partial(
        &self,
        k: usize,
        node: NodeId,
        opts: &QueryOptions,
    ) -> std::result::Result<Vec<CubeRow>, ServeError> {
        let shard = &self.inner.shards[k];
        let n = shard.replicas.len();
        let start = shard.cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut last: Option<ServeError> = None;
        for attempt in 0..n {
            match shard.replicas[(start + attempt) % n].query(node, opts) {
                Ok(rows) => return Ok(rows),
                Err(e @ ServeError::Timeout { .. }) => return Err(e),
                Err(e) => {
                    if attempt + 1 < n {
                        shard.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or(ServeError::Overloaded))
    }

    /// Scatter `node` to every shard and collect the partial answers.
    /// The request's deadline is re-checked *before each shard* so an
    /// expired budget surfaces as a typed [`ServeError::Timeout`]
    /// mid-gather instead of burning the remaining shards.
    fn gather(
        &self,
        node: NodeId,
        opts: &QueryOptions,
    ) -> std::result::Result<Vec<Vec<CubeRow>>, ServeError> {
        let mut parts = Vec::with_capacity(self.inner.shards.len());
        for k in 0..self.inner.shards.len() {
            if opts.expired() {
                return Err(ServeError::Timeout { node });
            }
            parts.push(self.shard_partial(k, node, opts)?);
        }
        Ok(parts)
    }

    /// Gather, merge, post-process with `finish`, and record the outcome
    /// in the router metrics.
    fn merged(
        &self,
        node: NodeId,
        opts: &QueryOptions,
        finish: impl FnOnce(Vec<CubeRow>) -> Vec<CubeRow>,
    ) -> std::result::Result<Vec<CubeRow>, ServeError> {
        let start = Instant::now();
        let res = self
            .gather(node, opts)
            .map(|parts| finish(merge_partials(self.inner.schema.agg_fns(), parts)));
        self.inner.metrics.record(start, res)
    }

    /// Answer a node query over the whole logical cube: scatter to every
    /// shard, merge the partials. The request's deadline is checked
    /// before each shard and inside each replica query; breaker admission
    /// and quarantine apply per replica, and every failure is a typed
    /// [`ServeError`].
    pub fn query(
        &self,
        node: NodeId,
        opts: &QueryOptions,
    ) -> std::result::Result<Vec<CubeRow>, ServeError> {
        self.merged(node, opts, |rows| rows)
    }

    /// Iceberg query with **post-merge** thresholding: every shard
    /// answers its complete partial, the partials are merged, and only
    /// then are groups with `aggs[count_measure] <= min_count` dropped by
    /// [`merge::iceberg_filter_merged`](cure_query::merge::iceberg_filter_merged).
    /// Filtering per shard would lose groups whose support only clears
    /// the bar globally.
    pub fn iceberg_query(
        &self,
        node: NodeId,
        min_count: i64,
        count_measure: usize,
        opts: &QueryOptions,
    ) -> std::result::Result<Vec<CubeRow>, ServeError> {
        if min_count < 1 {
            let e = ServeError::Query(CubeError::Config("iceberg threshold must be ≥ 1".into()));
            self.inner.metrics.record_error_kind(e.kind());
            return Err(e);
        }
        self.merged(node, opts, |rows| iceberg_filter_merged(rows, min_count, count_measure))
    }
}

/// What [`replicate_shards`] shipped and proved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Shard families replicated.
    pub shards: usize,
    /// Files copied across all shards.
    pub files: usize,
    /// Bytes copied.
    pub bytes: u64,
    /// Pages whose CRC32 was verified on the receiving side.
    pub pages_verified: u64,
}

/// Ship every shard family from `src` into the replica directory
/// `dest_dir` and prove the copy: per-page CRC verification of every
/// replicated relation (reading raw file bytes — the relation-open
/// path's torn-tail repair must never mask a bad copy), then a sealed
/// [`BuildManifest`] check per shard (`phase == Complete`). Only after
/// every check passes is the topology blob written, so a half-shipped
/// replica can never be opened by [`ShardRouter::open`].
pub fn replicate_shards(
    src: &Catalog,
    shards: usize,
    dest_dir: &Path,
) -> Result<ReplicationReport> {
    if shards == 0 {
        return Err(CubeError::Config("cannot replicate zero shards".into()));
    }
    let mut report = ReplicationReport { shards, ..ReplicationReport::default() };
    for k in 0..shards {
        let exp = export_snapshot(src, &shard_prefix(k), dest_dir)?;
        report.files += exp.files;
        report.bytes += exp.bytes;
    }
    for k in 0..shards {
        let ver = verify_snapshot(dest_dir, &shard_prefix(k))?;
        report.pages_verified += ver.pages_verified;
    }
    let dest = Catalog::open(dest_dir)?;
    for k in 0..shards {
        let manifest = BuildManifest::load(&dest, &shard_cube_prefix(k))?.ok_or_else(|| {
            CubeError::Config(format!("replica shard {k} is missing its build manifest"))
        })?;
        if manifest.phase != BuildPhase::Complete {
            return Err(CubeError::Config(format!(
                "replica shard {k} manifest is not sealed (phase {:?})",
                manifest.phase
            )));
        }
    }
    // Ship the self-describing schema blob too, so a replica directory
    // is sufficient on its own to start a shard-serve process.
    if src.blob_exists(SCHEMA_BLOB) {
        dest.write_blob(SCHEMA_BLOB, &src.read_blob(SCHEMA_BLOB)?)?;
    }
    write_shard_count(&dest, shards)?;
    Ok(report)
}

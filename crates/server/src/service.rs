//! [`CubeService`]: the shared handle worker threads answer queries
//! through.
//!
//! A service is a handful of `Arc`s — a [`ConcurrentCube`], a
//! [`ServeMetrics`] block, and the resilience state (one circuit breaker
//! and the corrupt-page quarantine) — so it is `Clone` and `Send`: open
//! it once, hand a clone to every worker, and each [`CubeService::query`]
//! call answers a node query through the shared page caches while timing
//! itself into the metrics histogram.
//!
//! [`CubeService::query`] is the one entry point: it honours the
//! request's deadline (if [`QueryOptions`] carries one), consults the
//! service's circuit breaker before doing any work, fails fast on
//! quarantined pages, and converts every failure into a typed
//! [`ServeError`] — the serve path never returns wrong rows and never
//! panics; it degrades. `QueryOptions::default()` asks for no deadline.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cure_core::{CubeError, CubeSchema, NodeId, Result};
use cure_query::{CacheConfig, ConcurrentCube, CubeRow, QueryGuard, ReadPath};
use cure_storage::{Catalog, StorageError};

use crate::metrics::{AttributionSample, ServeErrorKind, ServeMetrics};
use crate::resilience::{Breaker, BreakerState, QuarantineSet, ResilienceConfig};

/// Every `ATTR_SAMPLE_EVERY`-th query is answered through the attributed
/// entry point, so the metrics learn where latency goes (probe vs page
/// reads vs compute) without timing every query.
const ATTR_SAMPLE_EVERY: u64 = 64;

/// Per-request options for every serving type's `query`.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Fail with [`ServeError::Timeout`] once this instant passes —
    /// checked on entry (covering queue time when the caller dequeued
    /// late) and between page fetches while the query runs.
    pub deadline: Option<Instant>,
}

impl QueryOptions {
    /// Options with a deadline `budget` from now.
    pub fn with_budget(budget: Duration) -> Self {
        QueryOptions { deadline: Some(Instant::now() + budget) }
    }

    /// Whether the deadline, if any, has passed.
    pub(crate) fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Typed failures of the hardened serve path. The invariant callers get:
/// a query returns correct rows or one of these — never wrong data.
#[derive(Debug)]
pub enum ServeError {
    /// The request's deadline passed before or during execution.
    Timeout {
        /// The node that was being queried.
        node: NodeId,
    },
    /// Dropped by admission control: a shard server past its connection
    /// cap answers with this instead of serving the request.
    Overloaded,
    /// Rejected by `relation`'s open circuit breaker.
    Degraded {
        /// The relation whose breaker is open.
        relation: String,
    },
    /// A page of `relation` is corrupt (or quarantined from an earlier
    /// corrupt read); repair via [`CubeService::repair`].
    Corrupt {
        /// The relation holding the bad page.
        relation: String,
        /// Zero-based page number.
        page: u64,
    },
    /// A remote shard endpoint could not be reached (refused, reset, or
    /// hung up mid-request). Socket-path analogue of a dead disk.
    Unavailable {
        /// The endpoint that failed, e.g. `"shard0@127.0.0.1:4810"`.
        endpoint: String,
    },
    /// A socket peer violated the wire protocol (bad frame, bad CRC,
    /// unsupported version); the payload was discarded unread.
    Protocol {
        /// What was wrong with the frame.
        detail: String,
    },
    /// A remote shard answered with a typed failure that has no exact
    /// local variant; the remote classification is carried through so
    /// it counts under the same metrics kind on both sides.
    Upstream {
        /// The remote side's error classification.
        kind: ServeErrorKind,
        /// The remote error rendered as text.
        detail: String,
    },
    /// Any other query failure, carried through.
    Query(CubeError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Timeout { node } => write!(f, "query on node {node} exceeded deadline"),
            ServeError::Overloaded => write!(f, "service overloaded: request shed"),
            ServeError::Degraded { relation } => {
                write!(f, "service degraded: circuit breaker open for relation '{relation}'")
            }
            ServeError::Corrupt { relation, page } => {
                write!(f, "corrupt page {page} in relation '{relation}' (quarantined)")
            }
            ServeError::Unavailable { endpoint } => {
                write!(f, "shard endpoint '{endpoint}' unavailable")
            }
            ServeError::Protocol { detail } => write!(f, "wire protocol violation: {detail}"),
            ServeError::Upstream { kind, detail } => {
                write!(f, "remote shard failure ({kind:?}): {detail}")
            }
            ServeError::Query(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl ServeError {
    /// The metrics class this error is counted under.
    pub fn kind(&self) -> ServeErrorKind {
        match self {
            ServeError::Timeout { .. } => ServeErrorKind::Timeout,
            ServeError::Overloaded => ServeErrorKind::Shed,
            ServeError::Degraded { .. } => ServeErrorKind::Degraded,
            ServeError::Corrupt { .. } => ServeErrorKind::Corrupt,
            ServeError::Unavailable { .. } => ServeErrorKind::Io,
            ServeError::Protocol { .. } => ServeErrorKind::Protocol,
            ServeError::Upstream { kind, .. } => *kind,
            ServeError::Query(e) => classify_cube_error(e),
        }
    }
}

/// Map a raw query error onto the serve-side failure classes.
fn classify_cube_error(e: &CubeError) -> ServeErrorKind {
    match e {
        CubeError::Timeout(_) => ServeErrorKind::Timeout,
        CubeError::Storage(StorageError::Io(_)) => ServeErrorKind::Io,
        CubeError::Storage(StorageError::Corrupt(_))
        | CubeError::Storage(StorageError::CorruptPage { .. }) => ServeErrorKind::Corrupt,
        _ => ServeErrorKind::Other,
    }
}

/// Shared resilience state: one breaker and one quarantine per service
/// (shared across clones, like the metrics).
#[derive(Debug)]
struct Resilience {
    /// Guards the cube's reads; its `Degraded` errors name the fact
    /// relation.
    breaker: Breaker,
    quarantine: QuarantineSet,
}

/// A thread-safe, clonable query service over one stored CURE cube.
#[derive(Clone)]
pub struct CubeService {
    cube: Arc<ConcurrentCube>,
    metrics: Arc<ServeMetrics>,
    resilience: Arc<Resilience>,
    /// Shared query tick driving attribution sampling.
    sample_tick: Arc<AtomicU64>,
}

impl CubeService {
    /// Open the cube stored under `prefix` on an explicit
    /// [`ReadPath`] — [`ReadPath::Mmap`] for the zero-copy serving path
    /// over sealed cubes, [`ReadPath::Cache`] for the shared page caches.
    /// On either path the handle serves one sealed epoch.
    pub fn open_with_read_path(
        catalog: Arc<Catalog>,
        schema: Arc<CubeSchema>,
        prefix: &str,
        caches: CacheConfig,
        read_path: ReadPath,
    ) -> Result<Self> {
        let cube = ConcurrentCube::open_with_read_path(catalog, schema, prefix, caches, read_path)?;
        Ok(Self::from_cube_with_resilience(Arc::new(cube), ResilienceConfig::default()))
    }

    /// Serve an already opened cube (sharing its caches and stats) with
    /// explicit breaker tuning.
    pub fn from_cube_with_resilience(cube: Arc<ConcurrentCube>, cfg: ResilienceConfig) -> Self {
        CubeService {
            cube,
            metrics: Arc::new(ServeMetrics::new()),
            resilience: Arc::new(Resilience {
                breaker: Breaker::new(cfg),
                quarantine: QuarantineSet::default(),
            }),
            sample_tick: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The underlying cube (for cache/stat inspection).
    pub fn cube(&self) -> &Arc<ConcurrentCube> {
        &self.cube
    }

    /// The read path the underlying cube was opened on.
    pub fn read_path(&self) -> ReadPath {
        self.cube.read_path()
    }

    /// Answer through the cube, sampling latency attribution (every
    /// [`ATTR_SAMPLE_EVERY`]-th query per service).
    fn guarded_query(&self, node: NodeId, guard: &QueryGuard<'_>) -> Result<Vec<CubeRow>> {
        if self.sample_tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(ATTR_SAMPLE_EVERY) {
            let (rows, a) = self.cube.node_query_attributed(node, guard)?;
            self.metrics.record_attribution(AttributionSample {
                probe_ns: a.probe_ns,
                read_ns: a.read_ns,
                compute_ns: a.compute_ns,
            });
            Ok(rows)
        } else {
            self.cube.node_query_guarded(node, guard)
        }
    }

    /// The serving metrics shared by every clone of this service.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Number of nodes in the cube's lattice (valid query ids are
    /// `0..num_nodes()`).
    pub fn num_nodes(&self) -> NodeId {
        self.cube.coder().num_nodes()
    }

    /// Answer a node query under the full resilience policy: deadline on
    /// entry and between page fetches, circuit-breaker admission, quarantine
    /// fast-fail on known-corrupt pages, and a typed [`ServeError`] for
    /// every failure mode. The answer's row count and latency, or the
    /// failure's [`ServeErrorKind`], go into the shared metrics; corrupt
    /// pages discovered mid-query are added to the quarantine before
    /// returning.
    pub fn query(
        &self,
        node: NodeId,
        opts: &QueryOptions,
    ) -> std::result::Result<Vec<CubeRow>, ServeError> {
        let start = Instant::now();
        let res = self.answer(node, opts);
        self.metrics.record(start, res)
    }

    fn answer(
        &self,
        node: NodeId,
        opts: &QueryOptions,
    ) -> std::result::Result<Vec<CubeRow>, ServeError> {
        if opts.expired() {
            return Err(ServeError::Timeout { node });
        }
        let breaker = &self.resilience.breaker;
        if !breaker.admit() {
            return Err(ServeError::Degraded { relation: self.cube.fact_relation() });
        }
        let guard =
            QueryGuard { deadline: opts.deadline, quarantine: Some(&self.resilience.quarantine) };
        match self.guarded_query(node, &guard) {
            Ok(rows) => {
                breaker.record_success();
                Ok(rows)
            }
            Err(CubeError::Timeout(_)) => {
                // Slow, not dead: resolve an outstanding half-open probe
                // without counting toward the breaker's failure streak.
                breaker.record_timeout();
                Err(ServeError::Timeout { node })
            }
            Err(CubeError::Storage(StorageError::CorruptPage { relation, page, .. })) => {
                // Remember the bad page so the next query that would
                // touch it fails fast without disk I/O.
                self.resilience.quarantine.insert(&relation, page);
                Err(ServeError::Corrupt { relation, page })
            }
            Err(e @ CubeError::Storage(StorageError::Io(_))) => {
                if breaker.record_io_failure() {
                    self.metrics.record_breaker_trip();
                }
                Err(ServeError::Query(e))
            }
            Err(e) => Err(ServeError::Query(e)),
        }
    }

    /// Try to release a quarantined page by re-verifying it from disk
    /// (evicting any cached copy first). Returns `true` when the page
    /// verified clean and left the quarantine.
    pub fn repair(&self, relation: &str, page: u64) -> bool {
        if self.cube.reverify_page(relation, page).is_ok() {
            self.resilience.quarantine.remove(relation, page);
            true
        } else {
            false
        }
    }

    /// Run [`repair`](Self::repair) over every quarantined page; returns
    /// how many were released.
    pub fn repair_all(&self) -> usize {
        self.resilience
            .quarantine
            .entries()
            .into_iter()
            .filter(|(rel, page)| self.repair(rel, *page))
            .count()
    }

    /// Number of currently quarantined pages.
    pub fn quarantine_len(&self) -> usize {
        self.resilience.quarantine.len()
    }

    /// Snapshot of the quarantined `(relation, page)` pairs.
    pub fn quarantine_entries(&self) -> Vec<(String, u64)> {
        self.resilience.quarantine.entries()
    }

    /// Current state of the service's circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.resilience.breaker.state()
    }
}

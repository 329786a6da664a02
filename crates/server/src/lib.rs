//! cure-serve: concurrent serving of stored CURE cubes.
//!
//! The construction side of the repo (`cure-core`) is deliberately
//! single-threaded; this crate is the other half of the story — taking a
//! cube that has already been built and stored through the catalog and
//! turning it into a *query service*:
//!
//! * [`CubeService`] — a `Clone + Send` handle over one shared
//!   [`ConcurrentCube`](cure_query::ConcurrentCube), answering node
//!   queries through `&self` and timing every answer;
//! * [`ServeMetrics`] / [`LatencyHistogram`] — lock-free counters and a
//!   log₂-bucketed latency histogram with p50/p95/p99 extraction;
//! * [`NodeSampler`] — a deterministic uniform or Zipf-skewed stream of
//!   node ids for generated query traffic;
//! * [`LiveCubeService`] — live ingest: a single writer applies delta
//!   batches through the durable ingest pipeline while readers keep
//!   answering from pinned, immutable epoch snapshots;
//! * [`resilience`] — the serve-path hardening state: one circuit
//!   breaker per service (or per remote endpoint) and the corrupt-page
//!   quarantine behind [`CubeService::query`]'s typed-failure guarantee
//!   (correct rows or a typed error — never wrong data, never a panic);
//! * [`ShardRouter`] — scatter-gather serving over partition-scoped
//!   sub-cubes with round-robin replica balancing and failover, plus
//!   [`replicate_shards`], the CRC-verified snapshot-replication
//!   primitive that ships sealed shard families to replica directories.
//!
//! The hot state under all of it is the pair of
//! [`SharedBufferCache`](cure_storage::SharedBufferCache)s guarding the
//! paper's two hot relations (§5.3): the original fact table and
//! `AGGREGATES`.

#![forbid(unsafe_code)]

pub mod backend;
pub mod live;
pub mod metrics;
pub mod net;
pub mod resilience;
pub mod service;
pub mod shard;
pub mod stats;
pub mod wire;
pub mod workload;

pub use backend::{ShardBackend, WireCounters, WireTotals};
pub use live::LiveCubeService;
pub use metrics::{
    AttributionSample, AttributionTotals, LatencyHistogram, ServeErrorKind, ServeMetrics,
};
pub use net::{RemoteShardBackend, RemoteShardConfig, ShardServer, ShardServerConfig};
pub use resilience::{BreakerState, ResilienceConfig};
pub use service::{CubeService, QueryOptions, ServeError};
pub use shard::{replicate_shards, ReplicationReport, ShardRouter, ShardRouterConfig, ShardStats};
pub use stats::StatsSnapshot;
pub use wire::{ProtocolError, RemoteError, Request, Response, MAX_FRAME_LEN, WIRE_VERSION};
pub use workload::{NodePopularity, NodeSampler};

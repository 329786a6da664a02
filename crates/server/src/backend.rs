//! [`ShardBackend`]: the router's view of one shard replica.
//!
//! PR 9's router held `CubeService`s directly; the socket work
//! generalizes that to a trait so the same failover loop, round-robin
//! cursor, and deadline bookkeeping drive an in-process replica and a
//! remote shard-server process identically. Two implementations exist:
//!
//! * [`CubeService`] — the in-process backend;
//! * [`RemoteShardBackend`](crate::net::RemoteShardBackend) — a socket
//!   client speaking the [`wire`](crate::wire) protocol.
//!
//! The trait surface is exactly what `ShardRouter` consumes: the two
//! query paths, the shared metrics block (per-replica queries/errors
//! roll up into shard-labelled stats), counter reset, and two optional
//! counter families — cache totals (in-process only) and wire totals
//! (socket only).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cure_core::NodeId;
use cure_query::CubeRow;

use crate::metrics::ServeMetrics;
use crate::service::{CubeService, QueryOptions, ServeError};

/// Snapshot of one backend's socket counters. All zero for in-process
/// backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTotals {
    /// Payload bytes received (responses).
    pub bytes_in: u64,
    /// Payload bytes sent (requests).
    pub bytes_out: u64,
    /// Connections re-established after a failure or a redirect.
    pub reconnects: u64,
    /// Requests that hit the socket read/write timeout.
    pub timeouts: u64,
}

impl WireTotals {
    /// Element-wise sum, for aggregating replicas into shard stats.
    pub fn merged(self, other: WireTotals) -> WireTotals {
        WireTotals {
            bytes_in: self.bytes_in + other.bytes_in,
            bytes_out: self.bytes_out + other.bytes_out,
            reconnects: self.reconnects + other.reconnects,
            timeouts: self.timeouts + other.timeouts,
        }
    }
}

/// Lock-free socket counters a remote backend records into.
#[derive(Debug, Default)]
pub struct WireCounters {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    reconnects: AtomicU64,
    timeouts: AtomicU64,
}

impl WireCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `n` bytes received.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` bytes sent.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one re-established connection.
    pub fn add_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one socket timeout.
    pub fn add_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn totals(&self) -> WireTotals {
        WireTotals {
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }

    /// Zero the counters.
    pub fn reset(&self) {
        self.bytes_in.store(0, Ordering::Relaxed);
        self.bytes_out.store(0, Ordering::Relaxed);
        self.reconnects.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
    }
}

/// One shard replica as the router sees it: answer queries, expose the
/// shared metrics, reset counters. In-process and socket replicas are
/// interchangeable behind this trait — same failover, same round-robin,
/// same stats labels.
pub trait ShardBackend: Send + Sync {
    /// Answer a node query under the full resilience policy (deadline,
    /// breaker, quarantine — or their socket analogues).
    fn query_with_options(
        &self,
        node: NodeId,
        opts: &QueryOptions,
    ) -> Result<Vec<CubeRow>, ServeError>;

    /// Answer a node query on the trusted path (no deadline or breaker).
    fn query_plain(&self, node: NodeId) -> Result<Vec<CubeRow>, ServeError>;

    /// Lattice size of the served sub-cube.
    fn num_nodes(&self) -> NodeId;

    /// The backend's metrics block (sub-queries, typed errors).
    fn metrics(&self) -> &Arc<ServeMetrics>;

    /// Zero metrics and any cache/wire counters (contents are kept).
    fn reset_counters(&self);

    /// Socket counters, when this backend speaks the wire protocol.
    fn wire_totals(&self) -> WireTotals {
        WireTotals::default()
    }

    /// Human-readable label for stats output, e.g. `"in-process"` or
    /// `"socket://127.0.0.1:4810"`.
    fn describe(&self) -> String;
}

impl ShardBackend for CubeService {
    fn query_with_options(
        &self,
        node: NodeId,
        opts: &QueryOptions,
    ) -> Result<Vec<CubeRow>, ServeError> {
        CubeService::query_with_options(self, node, opts).map(|r| r.rows)
    }

    fn query_plain(&self, node: NodeId) -> Result<Vec<CubeRow>, ServeError> {
        CubeService::query(self, node).map(|r| r.rows).map_err(ServeError::Query)
    }

    fn num_nodes(&self) -> NodeId {
        CubeService::num_nodes(self)
    }

    fn metrics(&self) -> &Arc<ServeMetrics> {
        CubeService::metrics(self)
    }

    fn reset_counters(&self) {
        self.metrics().reset();
        self.cube().reset_stats();
    }

    fn describe(&self) -> String {
        "in-process".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_counters_accumulate_and_reset() {
        let c = WireCounters::new();
        c.add_bytes_in(10);
        c.add_bytes_in(5);
        c.add_bytes_out(7);
        c.add_reconnect();
        c.add_timeout();
        c.add_timeout();
        assert_eq!(
            c.totals(),
            WireTotals { bytes_in: 15, bytes_out: 7, reconnects: 1, timeouts: 2 }
        );
        let merged =
            c.totals().merged(WireTotals { bytes_in: 1, bytes_out: 1, reconnects: 1, timeouts: 1 });
        assert_eq!(merged.bytes_in, 16);
        assert_eq!(merged.timeouts, 3);
        c.reset();
        assert_eq!(c.totals(), WireTotals::default());
    }
}

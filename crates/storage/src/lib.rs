//! # cure-storage — a minimal relational (ROLAP) storage engine
//!
//! CURE ("Cubing Using a ROLAP Engine", Morfonios & Ioannidis, VLDB 2006) is
//! deliberately *relational*: every artifact it produces — cube nodes, the
//! shared `AGGREGATES` relation, trivial-tuple row-id lists, spill partitions
//! — is an ordinary relation of fixed-width tuples addressed by row-ids.
//! This crate provides that substrate from scratch:
//!
//! * [`schema`] — column types and fixed-width row layouts,
//! * [`heap`] — append-only page-structured heap files with sequential scan
//!   and random row fetch,
//! * [`catalog`] — a named-relation directory (the "database"),
//! * [`cache`] — an LRU page cache with hit/miss accounting (drives the
//!   paper's Figure 17 caching experiment),
//! * [`shared_cache`] — a thread-safe sharded wrapper over [`cache`] for
//!   the concurrent serving path (`cure-serve`),
//! * [`bitmap`] — RLE-compressed bitmap indexes over row-ids (the CURE+
//!   variant of §5.3),
//! * [`sort`] — an external merge sorter for relations larger than memory,
//! * [`hash`] — a fast FxHash-style hasher for integer-keyed hot paths.
//!
//! * [`io`] — a pluggable I/O fault layer ([`io::IoPolicy`]) with a
//!   deterministic [`io::FaultInjector`], retry-with-backoff for transient
//!   errors, and the [`io::atomic_write`] publish protocol backing
//!   crash-safe cube construction,
//!
//! Cube *construction* is synchronous and single-threaded by design: the
//! paper's algorithms are single-threaded, and keeping the engine simple
//! makes the measured construction costs attributable to the cubing
//! algorithms rather than to engine concurrency artifacts. Query *serving*
//! is concurrent: heap files are readable through `&self`
//! ([`heap::HeapFile::fetch_shared`] for one row,
//! [`heap::HeapFile::gather_shared`] for a page-ordered batch) and pages
//! are shared across worker threads via the sharded
//! [`shared_cache::SharedBufferCache`].

pub mod bitmap;
pub mod cache;
pub mod catalog;
pub mod checksum;
pub mod error;
pub mod hash;
pub mod heap;
pub mod io;
pub mod mmap;
pub mod page;
pub mod schema;
pub mod shared_cache;
pub mod snapshot;
pub mod sort;
pub mod stats;

pub use bitmap::BitmapIndex;
pub use cache::BufferCache;
pub use catalog::Catalog;
pub use error::{Result, StorageError};
pub use heap::{HeapFile, RowId, TailRepair};
pub use io::{
    atomic_write, FaultInjector, FaultKind, IoPolicy, NoFaults, ReadFault, ReadFaultKind,
    WriteFault,
};
pub use mmap::MmapRelation;
pub use page::{Page, PAGE_SIZE};
pub use schema::{ColType, Column, Schema, Value};
pub use shared_cache::{ShardStats, SharedBufferCache};
pub use snapshot::{export_snapshot, verify_snapshot, SnapshotReport};
pub use stats::{StorageCounters, StorageStats};

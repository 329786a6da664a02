//! # cure-query — answering node queries over stored cubes
//!
//! The paper's evaluation measures *query response time* as heavily as
//! construction (Figures 16, 17, 25, 28): a condensed cube is pointless if
//! it cannot be queried efficiently. This crate answers **node queries**
//! (the paper's workload: a full GROUP BY over one cube node, no
//! selection) against every storage format in the repository:
//!
//! * [`cure_reader::CureCube`] — CURE cubes: per-node NT/TT/CAT relations,
//!   R-rowid/A-rowid resolution through buffer-cached fetches of the fact
//!   table and `AGGREGATES` (the two hot relations §5.3 identifies), TT
//!   sharing along the execution-plan path, bitmap TTs for CURE+;
//! * [`baseline_reader::BucCube`] — BUC cubes: scan the node's relation;
//! * [`baseline_reader::BubstCube`] — BU-BST cubes: full scan of the
//!   monolithic relation (the format's inherent cost), expanding BSTs
//!   along the flat plan path;
//! * [`rollup`] — on-the-fly re-aggregation, used to answer hierarchical
//!   (roll-up) queries over flat cubes in the Figure 28 comparison;
//! * [`index`] — fact-table value indexes + predicate-pushdown selective
//!   queries (§5.3/§8);
//! * [`navigate`] — OLAP roll-up / drill-down / slice over node ids;
//! * [`workload`] — the paper's random node-query workloads;
//! * [`concurrent`] — the thread-safe [`ConcurrentCube`] (`&self` node
//!   queries over shared sharded caches or read-only memory maps), the
//!   substrate of the `cure-serve` serving subsystem.
//!
//! CURE reference resolution (NT/TT/CAT semantics) is implemented once in
//! the private `resolve` module and driven by both cube front ends, on
//! every read path.

#![forbid(unsafe_code)]

pub mod baseline_reader;
pub mod concurrent;
pub mod cure_reader;
pub mod error;
pub mod index;
pub mod merge;
pub mod navigate;
mod resolve;
pub mod rollup;
pub mod workload;

pub use baseline_reader::{BubstCube, BucCube};
pub use concurrent::{CacheConfig, ConcurrentCube, PageQuarantine, QueryGuard, ReadPath};
pub use cure_reader::{CureCube, QueryStats};
pub use error::QueryError;
pub use merge::{iceberg_filter_merged, merge_partials};
pub use resolve::Attribution;

/// A logical cube row: grouping values (node's dimensions only, in
/// dimension order) and aggregate values.
pub type CubeRow = (Vec<u32>, Vec<i64>);

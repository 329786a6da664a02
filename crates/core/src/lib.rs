//! # cure-core — CURE: Cubing Using a ROLAP Engine
//!
//! A from-scratch implementation of the CURE hierarchical data-cube
//! construction method (Morfonios & Ioannidis, VLDB 2006):
//!
//! * [`hierarchy`] — dimensions with linear or complex (DAG) hierarchies
//!   and O(1) rollup lookups;
//! * [`lattice`] — the hierarchical cube lattice and the paper's dense
//!   node enumeration (§3.3);
//! * [`plan`] — execution plan **P3** (Rules 1 & 2, modified Rule 2 for
//!   complex hierarchies), analytically and as a materialized tree, for
//!   both in-memory and partitioned executions;
//! * [`cube`] — the `ExecutePlan`/`FollowEdge` recursion of Figure 13 with
//!   trivial-tuple pruning and iceberg support;
//! * [`signature`] — the bounded signature pool classifying NTs vs CATs
//!   and choosing the CAT storage format dynamically (§5);
//! * [`sink`] — NT/TT/CAT relational storage (in-memory and on-disk),
//!   including the CURE_DR and CURE+ variants;
//! * [`partition`] — external partitioning and the one out-of-core build
//!   driver (§4, [`build_cure_cube`]), whose partition passes run serially
//!   or on `threads` workers with byte-identical output, including the
//!   paper's Table 1 level-selection logic;
//! * [`manifest`] — the durable, CRC-guarded build manifest journaling
//!   sealed partitions and checkpointed sink state;
//! * [`durable`] — [`build_cure_cube_durable`], the crash-safe, resumable
//!   journaling wrapper around the same driver steps;
//! * [`mod@reference`] — a naive full-cube oracle used by the test suite;
//! * [`reader`] — logical node reconstruction from an in-memory cube.
//!
//! Start with [`cube::CubeBuilder`] for in-memory construction or
//! [`build_cure_cube`] for the disk-based pipeline.
//!
//! ```
//! use cure_core::{CubeBuilder, CubeConfig, CubeSchema, Dimension, MemSink, Tuples};
//!
//! // Region: 4 cities → 2 countries; Product: flat.
//! let region = Dimension::linear("Region", 4, &[vec![0, 0, 1, 1]])?;
//! let product = Dimension::flat("Product", 3);
//! let schema = CubeSchema::new(vec![region, product], 1)?;
//! assert_eq!(schema.num_lattice_nodes(), (2 + 1) * (1 + 1));
//!
//! let mut facts = Tuples::new(2, 1);
//! facts.push_fact(&[0, 1], &[10], 0);
//! facts.push_fact(&[1, 1], &[20], 1);
//! facts.push_fact(&[3, 2], &[5], 2);
//!
//! let mut sink = MemSink::new(1);
//! let report = CubeBuilder::new(&schema, CubeConfig::default())
//!     .build_in_memory(&facts, &mut sink)?;
//! assert!(report.stats.total_tuples() > 0);
//! # Ok::<(), cure_core::CubeError>(())
//! ```

pub mod aggfn;
pub mod cube;
pub mod delta;
pub mod durable;
pub mod error;
pub mod hierarchy;
pub mod lattice;
pub mod manifest;
pub mod meta;
pub mod partition;
pub mod plan;
pub mod reader;
pub mod reference;
pub mod schema_blob;
pub mod shard;
pub mod signature;
pub mod sink;
pub mod sorter;
pub mod stats;
pub mod tuples;
pub mod update;

pub use aggfn::AggFn;
pub use cube::{BuildReport, CubeBuilder, CubeConfig};
pub use delta::{
    abort_ingest, active_prefix, ingest_cube, ingest_cube_into, other_prefix, parse_batch,
    recover_ingest, set_active_prefix, IngestManifest, IngestOptions, IngestPhase, IngestRecovery,
    IngestReport,
};
pub use durable::{build_cure_cube_durable, DurableOptions, DurableReport};
pub use error::{CubeError, Result};
pub use hierarchy::{CubeSchema, Dimension, Level, LevelIdx};
pub use lattice::{NodeCoder, NodeId, NodeLevels};
pub use manifest::{BuildManifest, BuildPhase};
pub use meta::CubeMeta;
pub use partition::{build_cure_cube, select_partition_level, PartitionChoice, PartitionReport};
pub use plan::{EdgeKind, Pass, PlanSpec, PlanTree};
pub use reader::MemCubeReader;
pub use schema_blob::{
    decode_schema, encode_schema, read_schema_blob, write_schema_blob, SCHEMA_BLOB,
};
pub use shard::{
    build_shard_cubes, read_shard_count, shard_cube_prefix, shard_fact_rel, shard_prefix,
    split_fact_shards, write_shard_count, ShardBuildReport,
};
pub use signature::{PoolDecisionState, SealedFlush, SignaturePool};
pub use sink::{
    CatFormat, CatFormatPolicy, CubeSink, DiskSink, MemSink, SinkCheckpoint, SinkStats,
};
pub use sorter::{SortAlgo, SortPolicy, Sorter};
pub use stats::{PhaseTimes, PoolCounters};
pub use tuples::Tuples;
pub use update::{update_cube, UpdateReport};

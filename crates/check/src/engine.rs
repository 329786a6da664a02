//! The engine matrix: one workload, every build path.
//!
//! Each [`Engine`] builds the workload through a different code path and
//! returns the same currency — per-node sorted `(grouping values,
//! aggregates)` rows — plus, for on-disk CURE builds, a byte snapshot of
//! the cube relations so the determinism contract (PR 3: parallel ≡
//! sequential; PR 2: resumed ≡ never-crashed) can be checked exactly.
//!
//! Coverage notes:
//!
//! * [`Engine::InMemory`] runs `CubeBuilder::build_in_memory` into a
//!   [`MemSink`] and reads back through [`MemCubeReader`] — the only
//!   engine that can host a deliberate [`Mutation`] (the harness's own
//!   smoke test that mismatches are caught and shrunk).
//! * [`Engine::DurableResume`] runs a fault-free durable build under a
//!   counting I/O policy to learn the write schedule, kills a second
//!   build at a seed-derived write index with a sticky fault, resumes it,
//!   and compares the resumed bytes against the fault-free reference.
//! * [`Engine::Buc`] / [`Engine::Bubst`] cube the *flat leaf projection*
//!   (the baselines know nothing about hierarchies), so they only report
//!   the lattice nodes whose levels are all leaf-or-ALL.
//! * [`Engine::DeltaIngest`] splits the facts at seed-derived cut points
//!   into a base build plus 1–2 delta batches run through the durable
//!   ingest pipeline (append → merge → swap → GC); the final cube must
//!   equal the oracle over *all* facts, the chain must be internally
//!   deterministic (run twice, byte-compared), and iceberg workloads
//!   must be rejected up front without side effects.
//! * [`Engine::Sharded`] builds 2–4 partition-scoped sub-cubes, serves
//!   every lattice node through the scatter-gather [`ShardRouter`]
//!   (iceberg thresholds applied post-merge via an extra count measure),
//!   then snapshot-replicates the shard families and asserts a
//!   replica-only router answers byte-for-byte like the primary.
//! * [`Engine::SocketSharded`] serves the same sharded topology through
//!   real `cure-shard-serve` processes on loopback sockets (2 replicas
//!   per shard), SIGKILLs one replica process mid-sweep, and asserts the
//!   router answers every node identically through failover — then
//!   respawns the replica, redirects its backend, and proves full
//!   recovery. When the server binary is not on disk it falls back to
//!   in-process [`ShardServer`]s whose `abort()` is wire-equivalent to a
//!   process kill.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cure_baselines::bubst::{build_bubst, BubstMemCube};
use cure_baselines::buc::{build_buc, BucMemCube};
use cure_core::cube::CubeBuilder;
use cure_core::meta::CubeMeta;
use cure_core::sink::{CatFormat, CubeSink, DiskSink, MemSink, RowResolver, SinkStats};
use cure_core::{
    active_prefix, build_cure_cube, build_cure_cube_durable, build_shard_cubes, ingest_cube,
    shard_cube_prefix, shard_prefix, BuildReport, CubeSchema, DurableOptions, IngestManifest,
    IngestOptions, MemCubeReader, NodeCoder, NodeId, Result as CoreResult, Tuples,
};
use cure_query::{CacheConfig, ConcurrentCube, CureCube, ReadPath};
use cure_serve::{
    replicate_shards, CubeService, QueryOptions, RemoteShardBackend, RemoteShardConfig,
    ResilienceConfig, ServeError, ServeErrorKind, ShardBackend, ShardRouter, ShardRouterConfig,
    ShardServer, ShardServerConfig,
};
use cure_storage::{Catalog, FaultInjector, FaultKind, IoPolicy, ReadFaultKind};

use crate::workload::{ShapeRng, Workload};
use crate::{CheckError, Result};

/// `(grouping values, aggregates)` rows per lattice node — the comparison
/// currency shared by every engine and the oracle.
pub type NodeMap = BTreeMap<NodeId, Vec<(Vec<u32>, Vec<i64>)>>;

/// One build path through the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `CubeBuilder::build_in_memory` into a `MemSink`.
    InMemory,
    /// `build_cure_cube` at one thread into a `DiskSink` (in-memory fast
    /// path or external partitioning, depending on the budget).
    Sequential,
    /// `build_cure_cube` at this many worker threads (more than one).
    Parallel(usize),
    /// Sequential CURE_DR: NTs materialize dimension values.
    Dr,
    /// Durable build killed at a fault-injected write index and resumed.
    DurableResume,
    /// BUC baseline over the flat leaf projection.
    Buc,
    /// BU-BST (condensed cube) baseline over the flat leaf projection.
    Bubst,
    /// Base build plus 1–2 delta-ingest batches (the incremental
    /// maintenance pipeline): base + delta must equal a fresh rebuild.
    DeltaIngest,
    /// Fault-free build served through the hardened serve path while a
    /// seed-derived read-fault schedule (transient EIO, hard EIO, bit
    /// flips) fires underneath: every query must return oracle-correct
    /// rows or a typed error — never wrong data — and the service must
    /// recover to 100% success once the fault budget is spent.
    ChaosServe,
    /// [`ChaosServe`](Engine::ChaosServe) with the zero-copy mmap read
    /// path: the same seed-derived fault schedule fires through
    /// `MmapRelation` page accesses instead of the shared page cache. A
    /// corrupted mapped page must surface as a typed `Corrupt` error,
    /// never wrong rows, and repair must re-verify through the live
    /// mapping.
    ChaosServeMmap,
    /// 2–4 partition-scoped sub-cubes served as one logical cube through
    /// the scatter-gather [`ShardRouter`], then snapshot-replicated:
    /// merged answers must equal the oracle on every lattice node
    /// (iceberg thresholds post-merge), the replica must be
    /// byte-identical to the primary, and a replica-only router must
    /// answer exactly like the primary one.
    Sharded,
    /// [`Sharded`](Engine::Sharded) across process and socket
    /// boundaries: every replica is a real `cure-shard-serve` child
    /// process on loopback (2 replicas per shard), queried through
    /// [`RemoteShardBackend`]s over the length-prefixed wire protocol.
    /// One replica process is SIGKILLed mid-sweep and every answer must
    /// still be byte-identical via failover — correct rows or a typed
    /// error, never wrong data — with the kill visible in the failover
    /// counters; the replica is then respawned, its backend redirected,
    /// and a final sweep must be clean.
    SocketSharded,
}

impl Engine {
    /// The full conformance matrix, in the order runs are reported.
    pub fn all() -> Vec<Engine> {
        vec![
            Engine::InMemory,
            Engine::Sequential,
            Engine::Parallel(2),
            Engine::Parallel(4),
            Engine::Parallel(8),
            Engine::Dr,
            Engine::DurableResume,
            Engine::Buc,
            Engine::Bubst,
            Engine::DeltaIngest,
            Engine::ChaosServe,
            Engine::ChaosServeMmap,
            Engine::Sharded,
            Engine::SocketSharded,
        ]
    }

    /// Short stable label (scratch directory name and mismatch reports).
    pub fn label(&self) -> String {
        match self {
            Engine::InMemory => "in-memory".into(),
            Engine::Sequential => "sequential".into(),
            Engine::Parallel(t) => format!("parallel-{t}"),
            Engine::Dr => "cure-dr".into(),
            Engine::DurableResume => "durable-resume".into(),
            Engine::Buc => "buc".into(),
            Engine::Bubst => "bubst".into(),
            Engine::DeltaIngest => "delta-ingest".into(),
            Engine::ChaosServe => "chaos-serve".into(),
            Engine::ChaosServeMmap => "chaos-serve-mmap".into(),
            Engine::Sharded => "sharded".into(),
            Engine::SocketSharded => "socket-sharded".into(),
        }
    }

    /// Parse a label produced by [`Self::label`].
    pub fn from_label(s: &str) -> Option<Engine> {
        match s {
            "in-memory" => Some(Engine::InMemory),
            "sequential" => Some(Engine::Sequential),
            "cure-dr" => Some(Engine::Dr),
            "durable-resume" => Some(Engine::DurableResume),
            "buc" => Some(Engine::Buc),
            "bubst" => Some(Engine::Bubst),
            "delta-ingest" => Some(Engine::DeltaIngest),
            "chaos-serve" => Some(Engine::ChaosServe),
            "chaos-serve-mmap" => Some(Engine::ChaosServeMmap),
            "sharded" => Some(Engine::Sharded),
            "socket-sharded" => Some(Engine::SocketSharded),
            other => {
                other.strip_prefix("parallel-").and_then(|t| t.parse().ok()).map(Engine::Parallel)
            }
        }
    }

    /// Whether this engine's cube-relation bytes participate in the
    /// cross-engine byte-identity check (plain CURE disk builds only:
    /// sequential, parallel at any thread count, and the durable resumed
    /// build all promise identical bytes). Delta ingest is semantically
    /// equal but physically merged in update order, so it checks its own
    /// determinism internally (two identical chains, byte-compared)
    /// instead of joining the fresh-build baseline.
    pub fn byte_comparable(&self) -> bool {
        matches!(self, Engine::Sequential | Engine::Parallel(_) | Engine::DurableResume)
    }
}

/// A deliberately injected aggregation bug, for the harness's own
/// mutation smoke test (applies to [`Engine::InMemory`] only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Every normal tuple's first aggregate is off by one.
    NtAggOffByOne,
}

/// Sink wrapper that applies a [`Mutation`] to an inner [`MemSink`].
struct MutatingSink<'a> {
    inner: &'a mut MemSink,
    mutation: Mutation,
}

impl CubeSink for MutatingSink<'_> {
    fn n_measures(&self) -> usize {
        self.inner.n_measures()
    }

    fn set_cat_format(&mut self, f: CatFormat) {
        self.inner.set_cat_format(f)
    }

    fn cat_format(&self) -> Option<CatFormat> {
        self.inner.cat_format()
    }

    fn write_tt(&mut self, node: NodeId, rowid: u64) -> CoreResult<()> {
        self.inner.write_tt(node, rowid)
    }

    fn write_nt(&mut self, node: NodeId, rowid: u64, aggs: &[i64]) -> CoreResult<()> {
        let Mutation::NtAggOffByOne = self.mutation;
        let mut corrupted = aggs.to_vec();
        if let Some(a) = corrupted.first_mut() {
            *a += 1;
        }
        self.inner.write_nt(node, rowid, &corrupted)
    }

    fn write_cat_group(&mut self, members: &[(NodeId, u64)], aggs: &[i64]) -> CoreResult<()> {
        self.inner.write_cat_group(members, aggs)
    }

    fn finish(&mut self) -> CoreResult<SinkStats> {
        self.inner.finish()
    }
}

/// Result of one engine run.
pub struct EngineRun {
    /// Sorted node contents; CURE engines cover every lattice node, the
    /// flat baselines only the leaf-or-ALL subset.
    pub nodes: NodeMap,
    /// Byte snapshot of the cube relations (disk CURE engines only).
    pub bytes: Option<BTreeMap<String, Vec<u8>>>,
    /// Engine-internal consistency violations (e.g. a resumed durable
    /// build whose bytes differ from the fault-free reference).
    pub internal: Vec<String>,
}

const CUBE_PREFIX: &str = "cube_";
const PART_PREFIX: &str = "part_";

/// Run `engine` over `workload`, building under `scratch` (a directory
/// private to this engine run; wiped before use).
pub fn run_engine(w: &Workload, engine: Engine, scratch: &Path) -> Result<EngineRun> {
    let schema = w.schema()?;
    let t = w.fact_tuples();
    match engine {
        Engine::InMemory => run_in_memory(w, &schema, &t, None),
        Engine::Sequential => run_disk(w, &schema, engine, scratch),
        Engine::Parallel(_) => run_disk(w, &schema, engine, scratch),
        Engine::Dr => run_disk(w, &schema, engine, scratch),
        Engine::DurableResume => run_durable_resume(w, &schema, scratch),
        Engine::Buc => run_buc_baseline(w, &schema, &t, false),
        Engine::Bubst => run_buc_baseline(w, &schema, &t, true),
        Engine::DeltaIngest => run_delta_ingest(w, &schema, scratch),
        Engine::ChaosServe => run_chaos_serve(w, &schema, scratch, ReadPath::Cache),
        Engine::ChaosServeMmap => run_chaos_serve(w, &schema, scratch, ReadPath::Mmap),
        Engine::Sharded => run_sharded(w, &schema, scratch),
        Engine::SocketSharded => run_socket_sharded(w, &schema, scratch),
    }
}

/// [`run_engine`] for [`Engine::InMemory`] with an optional injected bug
/// (the mutation smoke test's entry point).
pub fn run_in_memory_mutated(w: &Workload, mutation: Option<Mutation>) -> Result<EngineRun> {
    let schema = w.schema()?;
    let t = w.fact_tuples();
    run_in_memory(w, &schema, &t, mutation)
}

fn run_in_memory(
    w: &Workload,
    schema: &CubeSchema,
    t: &Tuples,
    mutation: Option<Mutation>,
) -> Result<EngineRun> {
    let mut sink = MemSink::new(w.measures);
    let builder = CubeBuilder::new(schema, w.config());
    match mutation {
        Some(m) => {
            let mut wrapped = MutatingSink { inner: &mut sink, mutation: m };
            builder.build_in_memory(t, &mut wrapped)?;
        }
        None => {
            builder.build_in_memory(t, &mut sink)?;
        }
    }
    let reader = MemCubeReader::new(schema, &sink, t, None)?;
    let coder = NodeCoder::new(schema);
    let mut nodes = NodeMap::new();
    for id in coder.all_ids() {
        let mut rows = reader.node_contents(id)?;
        rows.sort();
        nodes.insert(id, rows);
    }
    Ok(EngineRun { nodes, bytes: None, internal: Vec::new() })
}

fn fresh_dir(scratch: &Path, tag: &str) -> Result<PathBuf> {
    let dir = scratch.join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(CheckError::Io)?;
    }
    std::fs::create_dir_all(&dir).map_err(CheckError::Io)?;
    Ok(dir)
}

fn store_fact(catalog: &Catalog, w: &Workload) -> Result<()> {
    let d = w.dims.len();
    let y = w.measures;
    let t = w.fact_tuples();
    let mut heap = catalog
        .create_or_replace("facts", Tuples::fact_schema(d, y))
        .map_err(|e| CheckError::Cube(e.into()))?;
    t.store_fact(&mut heap)?;
    heap.sync().map_err(|e| CheckError::Cube(e.into()))?;
    Ok(())
}

fn dr_resolver<'a>(catalog: &'a Catalog, schema: &CubeSchema) -> Result<RowResolver<'a>> {
    let fact = catalog.open_relation("facts").map_err(|e| CheckError::Cube(e.into()))?;
    let fs = fact.schema().clone();
    let d = schema.num_dims();
    let mut buf = vec![0u8; fs.row_width()];
    Ok(Box::new(move |rowid, vals: &mut [u32]| {
        fact.fetch_into(rowid, &mut buf)?;
        for (i, v) in vals.iter_mut().enumerate().take(d) {
            *v = cure_storage::Schema::read_u32_at(&buf, fs.offset(i));
        }
        Ok(())
    }))
}

fn write_meta(
    catalog: &Catalog,
    w: &Workload,
    schema: &CubeSchema,
    report: &BuildReport,
    dr: bool,
) -> Result<()> {
    CubeMeta {
        prefix: CUBE_PREFIX.into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: report.partition.as_ref().map(|p| p.choice.level),
        min_support: w.min_support,
    }
    .write(catalog)?;
    Ok(())
}

/// Read every lattice node of an on-disk cube back through the query
/// layer (the same resolution path serving uses).
fn read_disk_nodes(catalog: &Catalog, schema: &CubeSchema, prefix: &str) -> Result<NodeMap> {
    let mut cube = CureCube::open(catalog, schema, prefix)
        .map_err(|e| CheckError::Case(format!("open cube: {e}")))?;
    let coder = NodeCoder::new(schema);
    let mut nodes = NodeMap::new();
    for id in coder.all_ids() {
        let mut rows =
            cube.node_query(id).map_err(|e| CheckError::Case(format!("node_query({id}): {e}")))?;
        rows.sort();
        nodes.insert(id, rows);
    }
    Ok(nodes)
}

/// Byte snapshot of the cube's relations: every catalog file whose name
/// starts with the cube prefix (heap files, schema header included; the
/// `meta` blob is identical across engines by construction).
fn snapshot_cube(dir: &Path, prefix: &str) -> Result<BTreeMap<String, Vec<u8>>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(CheckError::Io)? {
        let entry = entry.map_err(CheckError::Io)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with(prefix) || name.ends_with(".tmp") || name.ends_with("manifest.json") {
            continue;
        }
        out.insert(name, std::fs::read(entry.path()).map_err(CheckError::Io)?);
    }
    Ok(out)
}

fn run_disk(
    w: &Workload,
    schema: &CubeSchema,
    engine: Engine,
    scratch: &Path,
) -> Result<EngineRun> {
    let dir = fresh_dir(scratch, &engine.label())?;
    let catalog = Catalog::open(&dir).map_err(|e| CheckError::Cube(e.into()))?;
    store_fact(&catalog, w)?;
    let cfg = w.config();
    let dr = engine == Engine::Dr;
    let resolver = if dr { Some(dr_resolver(&catalog, schema)?) } else { None };
    let mut sink = DiskSink::new(&catalog, CUBE_PREFIX, schema, dr, false, resolver)?;
    let threads = if let Engine::Parallel(t) = engine { t } else { 1 };
    let report = build_cure_cube(&catalog, "facts", schema, &cfg, &mut sink, PART_PREFIX, threads)?;
    let mut internal = Vec::new();
    if w.partitioned && report.partition.is_none() {
        internal.push(format!(
            "{}: budget {} did not force partitioning (coverage degraded)",
            engine.label(),
            cfg.memory_budget_bytes
        ));
    }
    write_meta(&catalog, w, schema, &report, dr)?;
    let nodes = read_disk_nodes(&catalog, schema, CUBE_PREFIX)?;
    let bytes = if dr { None } else { Some(snapshot_cube(&dir, CUBE_PREFIX)?) };
    Ok(EngineRun { nodes, bytes, internal })
}

fn run_durable_resume(w: &Workload, schema: &CubeSchema, scratch: &Path) -> Result<EngineRun> {
    let cfg = w.config();
    // Thread count varies with the seed so resume composes with the
    // parallel partition passes too; bytes stay identical at any count.
    let threads = [1usize, 2, 4][ShapeRng::new(w.seed ^ 0xD0_0D).below(3) as usize];

    // Fault-free reference under a counting policy: learn the write
    // schedule and the expected byte image.
    let ref_dir = fresh_dir(scratch, "durable-ref")?;
    {
        let plain = Catalog::open(&ref_dir).map_err(|e| CheckError::Cube(e.into()))?;
        store_fact(&plain, w)?;
    }
    let counter = Arc::new(FaultInjector::counting());
    let catalog = Catalog::open_with_policy(&ref_dir, counter.clone() as Arc<dyn IoPolicy>)
        .map_err(|e| CheckError::Cube(e.into()))?;
    let mut sink = DiskSink::new(&catalog, CUBE_PREFIX, schema, false, false, None)?;
    let report = build_cure_cube_durable(
        &catalog,
        "facts",
        schema,
        &cfg,
        &mut sink,
        PART_PREFIX,
        &DurableOptions { resume: false, threads },
    )?;
    let writes = counter.writes();
    write_meta(&catalog, w, schema, &report.report, false)?;
    let ref_bytes = snapshot_cube(&ref_dir, CUBE_PREFIX)?;
    drop(sink);
    drop(catalog);

    let mut internal = Vec::new();
    if w.partitioned && report.report.partition.is_none() {
        internal.push("durable-resume: budget did not force partitioning".into());
    }

    // Kill at a seed-derived write index with a sticky fault (everything
    // after the fault fails too, like a process death), then resume.
    let k = ShapeRng::new(w.seed ^ 0xDEAD).below(writes.max(1));
    let crash_dir = fresh_dir(scratch, "durable-crash")?;
    {
        let plain = Catalog::open(&crash_dir).map_err(|e| CheckError::Cube(e.into()))?;
        store_fact(&plain, w)?;
    }
    let inj = Arc::new(FaultInjector::fail_nth_write(k, FaultKind::Error).sticky());
    {
        let faulty = Catalog::open_with_policy(&crash_dir, inj.clone() as Arc<dyn IoPolicy>)
            .map_err(|e| CheckError::Cube(e.into()))?;
        let mut sink = DiskSink::new(&faulty, CUBE_PREFIX, schema, false, false, None)?;
        let died = build_cure_cube_durable(
            &faulty,
            "facts",
            schema,
            &cfg,
            &mut sink,
            PART_PREFIX,
            &DurableOptions { resume: false, threads },
        );
        if died.is_ok() {
            internal.push(format!(
                "durable-resume: sticky fault at write {k}/{writes} did not abort the build"
            ));
        }
    }
    let recovered = Catalog::open(&crash_dir).map_err(|e| CheckError::Cube(e.into()))?;
    let mut sink = DiskSink::new(&recovered, CUBE_PREFIX, schema, false, false, None)?;
    let resumed = build_cure_cube_durable(
        &recovered,
        "facts",
        schema,
        &cfg,
        &mut sink,
        PART_PREFIX,
        &DurableOptions { resume: true, threads },
    )?;
    write_meta(&recovered, w, schema, &resumed.report, false)?;
    let resumed_bytes = snapshot_cube(&crash_dir, CUBE_PREFIX)?;
    if resumed_bytes != ref_bytes {
        internal.push(format!(
            "durable-resume: resumed cube (crash at write {k}/{writes}) is not byte-identical \
             to the fault-free durable build"
        ));
    }
    let nodes = read_disk_nodes(&recovered, schema, CUBE_PREFIX)?;
    Ok(EngineRun { nodes, bytes: Some(resumed_bytes), internal })
}

fn run_buc_baseline(
    w: &Workload,
    schema: &CubeSchema,
    t: &Tuples,
    condensed: bool,
) -> Result<EngineRun> {
    let cards = w.leaf_cards();
    let coder = NodeCoder::new(schema);
    let mut buc = BucMemCube::default();
    let mut bubst = BubstMemCube::default();
    if condensed {
        build_bubst(&cards, t, w.min_support, &mut bubst)?;
    } else {
        build_buc(&cards, t, w.min_support, &mut buc)?;
    }
    let mut nodes = NodeMap::new();
    for id in coder.all_ids() {
        let levels = coder.decode(id)?;
        // Baselines cube the flat leaf projection: only nodes with every
        // dimension at its leaf level or ALL exist there.
        let flat = (0..w.dims.len()).all(|d| levels[d] == 0 || coder.is_all(&levels, d));
        if !flat {
            continue;
        }
        let grouped: Vec<usize> =
            (0..w.dims.len()).filter(|&d| !coder.is_all(&levels, d)).collect();
        let rows =
            if condensed { bubst.node_contents(&grouped, t) } else { buc.node_contents(&grouped) };
        nodes.insert(id, rows);
    }
    Ok(EngineRun { nodes, bytes: None, internal: Vec::new() })
}

/// Split the workload's tuples at seed-derived cut points into a base
/// prefix plus 1–2 delta batches (row-ids rebased per slice; ingest
/// reassigns delta row-ids anyway).
fn split_for_ingest(w: &Workload, t: &Tuples) -> (Tuples, Vec<Tuples>) {
    let (d, y, n) = (t.n_dims(), t.n_measures(), t.len());
    let mut rng = ShapeRng::new(w.seed ^ 0xDE17A);
    let batches = 1 + rng.below(2) as usize;
    // Base keeps at least one tuple when there are any, so the delta walk
    // starts from a real cube rather than a degenerate empty one.
    let c0 = if n == 0 { 0 } else { 1 + rng.below(n as u64) as usize };
    let mut cuts = vec![c0];
    if batches == 2 {
        cuts.push(c0 + rng.below((n - c0 + 1) as u64) as usize);
    }
    cuts.push(n);
    let slice = |from: usize, to: usize| {
        let mut s = Tuples::new(d, y);
        for i in from..to {
            s.push_fact(t.dims_of(i), t.aggs_of(i), (i - from) as u64);
        }
        s
    };
    let base = slice(0, c0);
    let mut deltas = Vec::new();
    for pair in cuts.windows(2) {
        deltas.push(slice(pair[0], pair[1]));
    }
    (base, deltas)
}

/// One full base-build + delta-ingest chain under `dir`; returns the
/// final node contents and a byte snapshot of the active cube's files.
fn ingest_chain(
    w: &Workload,
    schema: &CubeSchema,
    dir: &Path,
    base: &Tuples,
    deltas: &[Tuples],
) -> Result<(NodeMap, BTreeMap<String, Vec<u8>>)> {
    let cfg = w.config();
    let catalog = Catalog::open(dir).map_err(|e| CheckError::Cube(e.into()))?;
    let mut heap = catalog
        .create_or_replace("facts", Tuples::fact_schema(w.dims.len(), w.measures))
        .map_err(|e| CheckError::Cube(e.into()))?;
    base.store_fact(&mut heap)?;
    heap.sync().map_err(|e| CheckError::Cube(e.into()))?;
    drop(heap);
    let report = {
        let mut sink = DiskSink::new(&catalog, CUBE_PREFIX, schema, false, false, None)?;
        build_cure_cube(&catalog, "facts", schema, &cfg, &mut sink, PART_PREFIX, 1)?
    };
    write_meta(&catalog, w, schema, &report, false)?;
    for delta in deltas {
        ingest_cube(&catalog, schema, delta, &cfg, &IngestOptions::default())?;
    }
    let active = active_prefix(&catalog);
    let nodes = read_disk_nodes(&catalog, schema, &active)?;
    let bytes = snapshot_cube(dir, &active)?;
    Ok((nodes, bytes))
}

/// [`Engine::DeltaIngest`]: the incremental maintenance pipeline.
///
/// Complete cubes: split the workload into base + 1–2 deltas, build the
/// base on disk, run each delta through the durable ingest (append,
/// merge under the partner prefix, swap, GC), and report the final
/// active cube's nodes — conformance then asserts base + deltas equals
/// the oracle over *all* facts. The whole chain runs twice and the two
/// final cubes are byte-compared (internal determinism; the merged
/// layout is deterministic but deliberately not byte-identical to a
/// fresh sequential build, so this engine stays out of the cross-engine
/// byte baseline).
///
/// Iceberg cubes cannot be incrementally maintained (groups that fell
/// below the threshold are unrecoverable from the stored cube), so the
/// engine instead asserts the ingest is *rejected up front* — no journal
/// left behind, active prefix unchanged — and falls back to a fresh
/// full build for the semantic comparison.
fn run_delta_ingest(w: &Workload, schema: &CubeSchema, scratch: &Path) -> Result<EngineRun> {
    let t = w.fact_tuples();
    let cfg = w.config();
    let mut internal = Vec::new();

    if w.min_support > 1 {
        let dir = fresh_dir(scratch, "delta-ingest")?;
        let catalog = Catalog::open(&dir).map_err(|e| CheckError::Cube(e.into()))?;
        store_fact(&catalog, w)?;
        let report = {
            let mut sink = DiskSink::new(&catalog, CUBE_PREFIX, schema, false, false, None)?;
            build_cure_cube(&catalog, "facts", schema, &cfg, &mut sink, PART_PREFIX, 1)?
        };
        write_meta(&catalog, w, schema, &report, false)?;
        let mut probe = Tuples::new(schema.num_dims(), schema.num_measures());
        if !t.is_empty() {
            probe.push_fact(t.dims_of(0), t.aggs_of(0), 0);
        }
        if ingest_cube(&catalog, schema, &probe, &cfg, &IngestOptions::default()).is_ok() {
            internal.push(format!(
                "delta-ingest: iceberg cube (min_support {}) accepted a delta ingest",
                w.min_support
            ));
        }
        if IngestManifest::exists(&catalog) {
            internal.push("delta-ingest: rejected ingest left a journal behind".into());
        }
        if active_prefix(&catalog) != CUBE_PREFIX {
            internal.push("delta-ingest: rejected ingest moved the active prefix".into());
        }
        let nodes = read_disk_nodes(&catalog, schema, CUBE_PREFIX)?;
        return Ok(EngineRun { nodes, bytes: None, internal });
    }

    let (base, deltas) = split_for_ingest(w, &t);
    let dir_a = fresh_dir(scratch, "delta-ingest-a")?;
    let (nodes, bytes_a) = ingest_chain(w, schema, &dir_a, &base, &deltas)?;
    let dir_b = fresh_dir(scratch, "delta-ingest-b")?;
    let (_, bytes_b) = ingest_chain(w, schema, &dir_b, &base, &deltas)?;
    if bytes_a != bytes_b {
        internal.push(format!(
            "delta-ingest: two identical base+delta chains are not byte-identical: {}",
            crate::first_byte_diff(&bytes_a, &bytes_b)
        ));
    }
    Ok(EngineRun { nodes, bytes: None, internal })
}

/// [`Engine::ChaosServe`]: the serve-path robustness invariant.
///
/// A fault-free sequential build is served through
/// [`CubeService::query_with_options`] (deliberately tiny page caches, so
/// queries keep going back to disk) while a seed-derived
/// [`FaultInjector::chaos_reads`] schedule cycles transient EIO, hard
/// EIO, and silent bit flips through the read path. Three things are
/// asserted:
///
/// 1. **Never wrong data** — every `Ok` answer during chaos is recorded
///    and reported as this engine's node contents, so the conformance
///    harness compares it against the oracle; an answer that changes
///    between passes is flagged immediately.
/// 2. **Typed failures only** — every `Err` must classify as a serve-side
///    failure class (I/O, corrupt, degraded, shed, timeout), never an
///    unclassified error; and nothing may panic.
/// 3. **Recovery** — once the fault budget is spent, repair loops
///    ([`CubeService::repair_all`] plus breaker cooldowns) must bring
///    every node back to success; a final sweep must be 100% clean.
fn run_chaos_serve(
    w: &Workload,
    schema: &CubeSchema,
    scratch: &Path,
    read_path: ReadPath,
) -> Result<EngineRun> {
    let tag = match read_path {
        ReadPath::Cache => "chaos-serve",
        ReadPath::Mmap => "chaos-serve-mmap",
    };
    let dir = fresh_dir(scratch, tag)?;
    {
        let catalog = Catalog::open(&dir).map_err(|e| CheckError::Cube(e.into()))?;
        store_fact(&catalog, w)?;
        let cfg = w.config();
        let report = {
            let mut sink = DiskSink::new(&catalog, CUBE_PREFIX, schema, false, false, None)?;
            build_cure_cube(&catalog, "facts", schema, &cfg, &mut sink, PART_PREFIX, 1)?
        };
        write_meta(&catalog, w, schema, &report, false)?;
    }

    // Tiny caches force queries back to disk so the fault schedule
    // actually intersects the serve path.
    let caches = CacheConfig { fact_pages: 8, agg_pages: 4, shards: 2 };
    let schema = Arc::new(schema.clone());
    let node_ids: Vec<NodeId> = NodeCoder::new(&schema).all_ids().collect();

    // Counting pass: how many policy-governed page reads does opening
    // the cube consume, and how many does one full lattice sweep issue?
    // The chaos schedule is placed after the open reads (the same
    // deterministic open sequence) so service startup stays fault-free.
    // The probe opens with the *same* read path as the chaos run: mmap
    // opens verify every page through the policy, so its read sequence
    // differs from the cache path's and the schedule must match it.
    let counter = Arc::new(FaultInjector::counting());
    let (open_reads, query_reads) = {
        let catalog = Arc::new(
            Catalog::open_with_policy(&dir, counter.clone() as Arc<dyn IoPolicy>)
                .map_err(|e| CheckError::Cube(e.into()))?,
        );
        let cube = ConcurrentCube::open_with_read_path(
            catalog,
            Arc::clone(&schema),
            CUBE_PREFIX,
            caches,
            read_path,
        )
        .map_err(|e| CheckError::Case(format!("{tag}: open cube: {e}")))?;
        let at_open = counter.reads();
        for &id in &node_ids {
            cube.node_query(id).map_err(|e| {
                CheckError::Case(format!("{tag}: fault-free node_query({id}): {e}"))
            })?;
        }
        (at_open, counter.reads() - at_open)
    };

    let mut rng = ShapeRng::new(w.seed ^ 0xC4A05);
    let mut internal = Vec::new();
    let mut nodes = NodeMap::new();
    let opts = QueryOptions::default();

    if query_reads == 0 {
        // Everything lives in in-memory tail pages: there is no disk
        // read to fault. Serve fault-free and report the answers.
        let catalog = Arc::new(Catalog::open(&dir).map_err(|e| CheckError::Cube(e.into()))?);
        let svc = CubeService::open_with_read_path(catalog, schema, CUBE_PREFIX, caches, read_path)
            .map_err(|e| CheckError::Case(format!("{tag}: open service: {e}")))?;
        for &id in &node_ids {
            let mut rows = svc
                .query_with_options(id, &opts)
                .map_err(|e| CheckError::Case(format!("{tag}: node {id}: {e}")))?
                .rows;
            rows.sort();
            nodes.insert(id, rows);
        }
        return Ok(EngineRun { nodes, bytes: None, internal });
    }

    // Seed-derived schedule. `period ≥ 2` so a transient fault's retried
    // read (which advances the global index) lands off-schedule.
    let period = 2 + rng.below(3);
    let count = (query_reads / period).clamp(1, 10);
    let start = open_reads + rng.below(query_reads);
    let policy = Arc::new(FaultInjector::chaos_reads(start, period, count, ReadFaultKind::Chaos));
    let catalog = Arc::new(
        Catalog::open_with_policy(&dir, policy.clone() as Arc<dyn IoPolicy>)
            .map_err(|e| CheckError::Cube(e.into()))?,
    );
    let cube = ConcurrentCube::open_with_read_path(catalog, schema, CUBE_PREFIX, caches, read_path)
        .map_err(|e| CheckError::Case(format!("{tag}: open under chaos policy: {e}")))?;
    let svc = CubeService::from_cube_with_resilience(
        Arc::new(cube),
        ResilienceConfig {
            breaker_threshold: 4,
            breaker_cooldown: std::time::Duration::from_millis(20),
            ..ResilienceConfig::default()
        },
    );

    // Chaos phase: sweep the lattice until the fault budget drains (the
    // pass cap only guards against a schedule the sweeps never reach).
    let record = |id: NodeId,
                  mut rows: Vec<(Vec<u32>, Vec<i64>)>,
                  nodes: &mut NodeMap,
                  internal: &mut Vec<String>| {
        rows.sort();
        match nodes.get(&id) {
            Some(prev) if prev != &rows => internal.push(format!(
                "{tag}: node {id} answered differently across passes (never-wrong-data \
                 violated)"
            )),
            Some(_) => {}
            None => {
                nodes.insert(id, rows);
            }
        }
    };
    let mut passes = 0;
    while passes < 6 && policy.read_faults_fired() < count {
        passes += 1;
        for &id in &node_ids {
            match svc.query_with_options(id, &opts) {
                Ok(reply) => record(id, reply.rows, &mut nodes, &mut internal),
                Err(e) => {
                    if e.kind() == ServeErrorKind::Other {
                        internal.push(format!(
                            "{tag}: untyped failure under read faults on node {id}: {e}"
                        ));
                    }
                }
            }
        }
    }
    if policy.read_faults_fired() == 0 {
        internal.push(format!(
            "{tag}: fault schedule never fired (start {start}, period {period}, count \
             {count}, reads seen {})",
            policy.reads()
        ));
    }

    // Recovery phase: with the budget spent, repair quarantined pages and
    // retry through breaker cooldowns until every node answers.
    for &id in &node_ids {
        let mut recovered = false;
        for _ in 0..50 {
            let _ = svc.repair_all();
            match svc.query_with_options(id, &opts) {
                Ok(reply) => {
                    record(id, reply.rows, &mut nodes, &mut internal);
                    recovered = true;
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        if !recovered {
            internal.push(format!("{tag}: node {id} never recovered after faults stopped"));
        }
    }

    // Final sweep: the service must be back to 100% success.
    let failures =
        node_ids.iter().filter(|&&id| svc.query_with_options(id, &opts).is_err()).count();
    if failures > 0 {
        internal.push(format!(
            "{tag}: {failures}/{} queries still failing after recovery",
            node_ids.len()
        ));
    }
    Ok(EngineRun { nodes, bytes: None, internal })
}

/// [`Engine::Sharded`]: scatter-gather serving plus snapshot replication.
///
/// The facts are split into a seed-derived number of disjoint shards,
/// each built into a **complete** sub-cube ([`build_shard_cubes`] forces
/// `min_support = 1` — per-shard support says nothing about global
/// support), and every lattice node is answered through the
/// [`ShardRouter`]'s distributive-aggregate merge. Iceberg workloads
/// carry an extra always-1 count measure through the shard builds so the
/// threshold can be applied *post-merge* ([`ShardRouter::iceberg_query`]
/// with `min_count = min_support - 1` keeps exactly the groups whose
/// global count reaches `min_support`); the helper measure is stripped
/// before comparison so the reported rows match the oracle's shape.
///
/// The shard families are then shipped with [`replicate_shards`] and two
/// invariants are asserted as engine-internal checks: the replica's
/// shard files are byte-identical to the primary's, and a router opened
/// on the replica directory alone answers every node exactly like the
/// primary router.
fn run_sharded(w: &Workload, schema: &CubeSchema, scratch: &Path) -> Result<EngineRun> {
    let mut rng = ShapeRng::new(w.seed ^ 0x54A8D);
    let shards = 2 + rng.below(3) as usize;
    let threads = [1usize, 2, 4][rng.below(3) as usize];
    let iceberg = w.min_support > 1;
    let d = w.dims.len();
    let y = w.measures;

    let serve_schema = if iceberg {
        let dims = w.dims.iter().map(|s| s.build()).collect();
        CubeSchema::new(dims, y + 1)?
    } else {
        schema.clone()
    };
    let t = w.fact_tuples();
    let dir = fresh_dir(scratch, "sharded")?;
    let catalog = Catalog::open(&dir).map_err(|e| CheckError::Cube(e.into()))?;
    {
        let n_meas = serve_schema.num_measures();
        let mut facts = Tuples::with_capacity(d, n_meas, t.len());
        for i in 0..t.len() {
            if iceberg {
                let mut aggs = t.aggs_of(i).to_vec();
                aggs.push(1);
                facts.push_fact(t.dims_of(i), &aggs, i as u64);
            } else {
                facts.push_fact(t.dims_of(i), t.aggs_of(i), i as u64);
            }
        }
        let mut heap = catalog
            .create_or_replace("facts", Tuples::fact_schema(d, n_meas))
            .map_err(|e| CheckError::Cube(e.into()))?;
        facts.store_fact(&mut heap)?;
        heap.sync().map_err(|e| CheckError::Cube(e.into()))?;
    }
    let report = build_shard_cubes(&catalog, "facts", &serve_schema, &w.config(), shards, threads)?;

    let mut internal = Vec::new();
    let covered: u64 = report.rows_per_shard.iter().sum();
    if covered != t.len() as u64 {
        internal.push(format!(
            "sharded: shard split covers {covered} rows, the fact table has {}",
            t.len()
        ));
    }

    let serve_schema = Arc::new(serve_schema);
    let router_cfg = ShardRouterConfig::default();
    let router = ShardRouter::open(&[&dir], Arc::clone(&serve_schema), &router_cfg)
        .map_err(|e| CheckError::Case(format!("sharded: open router: {e}")))?;
    let node_ids: Vec<NodeId> = NodeCoder::new(schema).all_ids().collect();
    let opts = QueryOptions::default();
    let answer = |router: &ShardRouter, id: NodeId| -> Result<Vec<(Vec<u32>, Vec<i64>)>> {
        let mut rows = if iceberg {
            router
                .iceberg_query(id, (w.min_support - 1) as i64, y, &opts)
                .map_err(|e| CheckError::Case(format!("sharded: iceberg node {id}: {e}")))?
                .rows
                .into_iter()
                .map(|(dims, mut aggs)| {
                    aggs.truncate(y);
                    (dims, aggs)
                })
                .collect()
        } else {
            router.query(id).map_err(|e| CheckError::Case(format!("sharded: node {id}: {e}")))?.rows
        };
        rows.sort();
        Ok(rows)
    };
    let mut nodes = NodeMap::new();
    for &id in &node_ids {
        nodes.insert(id, answer(&router, id)?);
    }

    // Replication: ship every shard family, then prove byte identity and
    // serve-equivalence from the replica alone.
    let replica_dir = fresh_dir(scratch, "sharded-replica")?;
    replicate_shards(&catalog, shards, &replica_dir)
        .map_err(|e| CheckError::Case(format!("sharded: replicate: {e}")))?;
    let shard_family = |root: &Path| -> Result<BTreeMap<String, Vec<u8>>> {
        let mut all = BTreeMap::new();
        for k in 0..shards {
            all.extend(snapshot_cube(root, &shard_prefix(k))?);
        }
        Ok(all)
    };
    let primary_bytes = shard_family(&dir)?;
    let replica_bytes = shard_family(&replica_dir)?;
    if primary_bytes != replica_bytes {
        internal.push(format!(
            "sharded: replica is not byte-identical to the primary: {}",
            crate::first_byte_diff(&primary_bytes, &replica_bytes)
        ));
    }
    let replica_router = ShardRouter::open(&[&replica_dir], Arc::clone(&serve_schema), &router_cfg)
        .map_err(|e| CheckError::Case(format!("sharded: open replica router: {e}")))?;
    for &id in &node_ids {
        let rows = answer(&replica_router, id)?;
        if nodes.get(&id) != Some(&rows) {
            internal.push(format!(
                "sharded: replica router answers differently from the primary on node {id}"
            ));
        }
    }
    Ok(EngineRun { nodes, bytes: None, internal })
}

/// One shard-serving replica: either a real `cure-shard-serve` child
/// process or an in-process [`ShardServer`] fallback. Killed on drop so
/// a failed run cannot leak servers.
enum ShardProc {
    /// A spawned `cure-shard-serve` process.
    Process(Option<std::process::Child>),
    /// In-process fallback (no server binary on disk); `abort()` is the
    /// client-visible equivalent of SIGKILL.
    Local(Option<ShardServer>),
}

impl ShardProc {
    /// Hard-stop this replica: SIGKILL for a process, `abort()` + drop
    /// (which closes the listener) for the in-process fallback.
    fn kill(&mut self) {
        match self {
            ShardProc::Process(slot) => {
                if let Some(mut c) = slot.take() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
            }
            ShardProc::Local(slot) => {
                if let Some(s) = slot.take() {
                    s.abort();
                }
            }
        }
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Locate the `cure-shard-serve` binary: the `CURE_SHARD_SERVE_BIN`
/// override first, then a walk up from the test/binary's own directory
/// (`target/{debug,release}` and their `deps/` both resolve).
fn shard_serve_binary() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("CURE_SHARD_SERVE_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    for dir in exe.ancestors().skip(1) {
        let cand = dir.join("cure-shard-serve");
        if cand.is_file() {
            return Some(cand);
        }
    }
    None
}

/// Start one replica server for `shard` over the catalog at `dir` and
/// return it with the loopback endpoint it bound.
fn spawn_socket_server(
    bin: Option<&Path>,
    dir: &Path,
    shard: usize,
    schema: &Arc<CubeSchema>,
) -> Result<(ShardProc, String)> {
    let Some(bin) = bin else {
        let catalog = Arc::new(Catalog::open(dir).map_err(|e| CheckError::Cube(e.into()))?);
        let cube = ConcurrentCube::open_with_read_path(
            catalog,
            Arc::clone(schema),
            &shard_cube_prefix(shard),
            CacheConfig::default(),
            ReadPath::Cache,
        )
        .map_err(|e| CheckError::Case(format!("socket-sharded: open shard {shard}: {e}")))?;
        let service =
            CubeService::from_cube_with_resilience(Arc::new(cube), ResilienceConfig::default());
        let server =
            ShardServer::spawn(service, shard as u32, "127.0.0.1:0", ShardServerConfig::default())
                .map_err(|e| {
                    CheckError::Case(format!("socket-sharded: bind shard {shard}: {e}"))
                })?;
        let addr = server.local_addr().to_string();
        return Ok((ShardProc::Local(Some(server)), addr));
    };
    use std::io::BufRead as _;
    let mut child = std::process::Command::new(bin)
        .arg("--dir")
        .arg(dir)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| CheckError::Case(format!("socket-sharded: spawn {}: {e}", bin.display())))?;
    let stdout = child.stdout.take();
    // Wrap immediately: any failure below must still reap the child.
    let proc = ShardProc::Process(Some(child));
    let Some(stdout) = stdout else {
        return Err(CheckError::Case("socket-sharded: no stdout pipe from server".into()));
    };
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| CheckError::Case(format!("socket-sharded: read server banner: {e}")))?;
    match line.trim().strip_prefix("LISTENING ") {
        Some(addr) if !addr.is_empty() => Ok((proc, addr.to_string())),
        _ => Err(CheckError::Case(format!("socket-sharded: bad server banner {line:?}"))),
    }
}

/// [`Engine::SocketSharded`]: multi-process sharded serving over the
/// socket wire protocol, proven against a process kill.
///
/// The same seed-derived sharded build as [`run_sharded`] is served by
/// **real server processes** — 2 replicas per shard (the primary
/// catalog and a [`replicate_shards`] copy), each behind its own
/// `cure-shard-serve` child on a loopback socket, queried through
/// [`RemoteShardBackend`]s. Three phases:
///
/// 1. **Identity over the wire** — every lattice node is answered
///    through the socket router and reported as this engine's node
///    contents, so the harness compares them against the oracle
///    (iceberg thresholds post-merge, exactly like the in-process
///    sharded engine).
/// 2. **Process kill** — one seed-chosen replica process is SIGKILLed
///    mid-sweep. Every subsequent answer must be byte-identical to
///    phase 1 (failover) or a *typed* error — never wrong data, never
///    an unclassified failure — and the kill must be visible in the
///    shard's failover counter.
/// 3. **Recovery** — the replica is respawned from its directory, the
///    backend redirected at the new endpoint, and after a bounded
///    retry loop a full sweep must again answer every node
///    identically.
fn run_socket_sharded(w: &Workload, schema: &CubeSchema, scratch: &Path) -> Result<EngineRun> {
    let mut rng = ShapeRng::new(w.seed ^ 0x50C4E7);
    let shards = 2 + rng.below(2) as usize;
    let threads = [1usize, 2][rng.below(2) as usize];
    let iceberg = w.min_support > 1;
    let d = w.dims.len();
    let y = w.measures;

    let serve_schema = if iceberg {
        let dims = w.dims.iter().map(|s| s.build()).collect();
        CubeSchema::new(dims, y + 1)?
    } else {
        schema.clone()
    };
    let t = w.fact_tuples();
    let dir = fresh_dir(scratch, "socket-sharded")?;
    let catalog = Catalog::open(&dir).map_err(|e| CheckError::Cube(e.into()))?;
    {
        let n_meas = serve_schema.num_measures();
        let mut facts = Tuples::with_capacity(d, n_meas, t.len());
        for i in 0..t.len() {
            if iceberg {
                let mut aggs = t.aggs_of(i).to_vec();
                aggs.push(1);
                facts.push_fact(t.dims_of(i), &aggs, i as u64);
            } else {
                facts.push_fact(t.dims_of(i), t.aggs_of(i), i as u64);
            }
        }
        let mut heap = catalog
            .create_or_replace("facts", Tuples::fact_schema(d, n_meas))
            .map_err(|e| CheckError::Cube(e.into()))?;
        facts.store_fact(&mut heap)?;
        heap.sync().map_err(|e| CheckError::Cube(e.into()))?;
    }
    build_shard_cubes(&catalog, "facts", &serve_schema, &w.config(), shards, threads)?;
    let replica_dir = fresh_dir(scratch, "socket-sharded-replica")?;
    replicate_shards(&catalog, shards, &replica_dir)
        .map_err(|e| CheckError::Case(format!("socket-sharded: replicate: {e}")))?;

    // 2 replicas per shard, each behind its own server process.
    let serve_schema = Arc::new(serve_schema);
    let bin = shard_serve_binary();
    let roots = [dir.clone(), replica_dir.clone()];
    let mut procs: Vec<ShardProc> = Vec::new();
    let mut backends: Vec<Vec<Arc<dyn ShardBackend>>> = Vec::new();
    let mut handles: Vec<Vec<RemoteShardBackend>> = Vec::new();
    for k in 0..shards {
        let mut reps: Vec<Arc<dyn ShardBackend>> = Vec::new();
        let mut hs = Vec::new();
        for root in &roots {
            let (proc, addr) = spawn_socket_server(bin.as_deref(), root, k, &serve_schema)?;
            procs.push(proc);
            let b =
                RemoteShardBackend::connect(&addr, RemoteShardConfig::default()).map_err(|e| {
                    CheckError::Case(format!("socket-sharded: connect shard {k} at {addr}: {e}"))
                })?;
            if b.shard() != k as u32 {
                return Err(CheckError::Case(format!(
                    "socket-sharded: server at {addr} announced shard {}, want {k}",
                    b.shard()
                )));
            }
            hs.push(b.clone());
            reps.push(Arc::new(b));
        }
        backends.push(reps);
        handles.push(hs);
    }
    let router = ShardRouter::from_backends(Arc::clone(&serve_schema), backends)
        .map_err(|e| CheckError::Case(format!("socket-sharded: open router: {e}")))?;

    let node_ids: Vec<NodeId> = NodeCoder::new(schema).all_ids().collect();
    let opts = QueryOptions::default();
    type ServedRows = std::result::Result<Vec<(Vec<u32>, Vec<i64>)>, ServeError>;
    let answer = |router: &ShardRouter, id: NodeId| -> ServedRows {
        let mut rows: Vec<(Vec<u32>, Vec<i64>)> = if iceberg {
            router
                .iceberg_query(id, (w.min_support - 1) as i64, y, &opts)?
                .rows
                .into_iter()
                .map(|(dims, mut aggs)| {
                    aggs.truncate(y);
                    (dims, aggs)
                })
                .collect()
        } else {
            router.query_with_options(id, &opts)?.rows
        };
        rows.sort();
        Ok(rows)
    };

    let mut internal = Vec::new();
    let mut nodes = NodeMap::new();
    // Phase 1: every node answered over the wire; the harness compares
    // these against the oracle.
    for &id in &node_ids {
        let rows = answer(&router, id)
            .map_err(|e| CheckError::Case(format!("socket-sharded: node {id}: {e}")))?;
        nodes.insert(id, rows);
    }

    // Phase 2: SIGKILL one seed-chosen replica process mid-sweep and
    // keep querying. Correct rows (failover) or a typed error — never
    // wrong data, never an unclassified failure.
    router.reset_stats();
    let victim_shard = rng.below(shards as u64) as usize;
    let victim = handles[victim_shard][1].clone();
    let kill_at = rng.below(node_ids.len() as u64) as usize;
    for (i, &id) in node_ids.iter().enumerate() {
        if i == kill_at {
            procs[victim_shard * 2 + 1].kill();
        }
        match answer(&router, id) {
            Ok(rows) => {
                if nodes.get(&id) != Some(&rows) {
                    internal.push(format!(
                        "socket-sharded: wrong data after process kill on node {id} \
                         (never-wrong-data violated)"
                    ));
                }
            }
            Err(e) if e.kind() == ServeErrorKind::Other => {
                internal.push(format!(
                    "socket-sharded: untyped failure after process kill on node {id}: {e}"
                ));
            }
            Err(_) => {} // typed failure: allowed; recovery is proven below
        }
    }
    // The kill must be visible. If the round-robin happened to dodge the
    // dead replica for the remaining sweep, push a few more queries
    // through until it cannot.
    let mut extra = 0;
    while router.shard_stats()[victim_shard].failovers == 0 && extra < 16 {
        let _ = answer(&router, node_ids[0]);
        extra += 1;
    }
    if router.shard_stats()[victim_shard].failovers == 0 {
        internal.push(format!(
            "socket-sharded: killed a shard {victim_shard} replica but no failover was recorded"
        ));
    }

    // Phase 3: respawn the replica from its (intact) directory, point
    // the backend at the new endpoint, and prove full recovery.
    let (proc, addr) =
        spawn_socket_server(bin.as_deref(), &replica_dir, victim_shard, &serve_schema)?;
    procs.push(proc);
    victim.redirect(&addr);
    let mut recovered = false;
    for _ in 0..50 {
        if victim.query_plain(node_ids[0]).is_ok() {
            recovered = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    if !recovered {
        internal.push("socket-sharded: respawned replica never answered after redirect".into());
    }
    for &id in &node_ids {
        match answer(&router, id) {
            Ok(rows) => {
                if nodes.get(&id) != Some(&rows) {
                    internal
                        .push(format!("socket-sharded: post-respawn answer differs on node {id}"));
                }
            }
            Err(e) => {
                internal.push(format!("socket-sharded: node {id} still failing after respawn: {e}"))
            }
        }
    }
    let wire = router.wire_totals();
    if wire.bytes_in == 0 || wire.bytes_out == 0 {
        internal.push("socket-sharded: no wire traffic recorded".into());
    }
    Ok(EngineRun { nodes, bytes: None, internal })
}

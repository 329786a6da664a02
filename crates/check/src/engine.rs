//! The engine matrix: one workload, every build and serve path.
//!
//! Each [`Engine`] is one row of the `ENGINES` table below: a label, a
//! build step, an access step that reads the built cube back, and whether
//! the row's cube bytes join the cross-engine byte-identity check. The
//! table is the list of engines; DESIGN §11 says what each row checks.
//! Every row returns the same currency — per-node sorted `(grouping
//! values, aggregates)` rows — plus the engine-internal invariant
//! violations its steps found and, for byte-comparable rows, a byte
//! snapshot of the cube relations, so the determinism contract (parallel
//! ≡ sequential; resumed ≡ never-crashed) is checked exactly.
//!
//! Each build step is written once and shared by the rows that use it:
//! the two chaos rows build exactly like `sequential`, and `sharded` and
//! `socket-sharded` share the shard build and replication, each drawing
//! its own shard and thread counts from the seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cure_baselines::bubst::{build_bubst, BubstMemCube};
use cure_baselines::buc::{build_buc, BucMemCube};
use cure_core::cube::CubeBuilder;
use cure_core::meta::CubeMeta;
use cure_core::sink::{fact_row_resolver, CatFormat, CubeSink, DiskSink, MemSink, SinkStats};
use cure_core::{
    active_prefix, build_cure_cube, build_cure_cube_durable, build_shard_cubes, ingest_cube,
    shard_cube_prefix, shard_prefix, BuildReport, CubeSchema, DurableOptions, IngestManifest,
    IngestOptions, MemCubeReader, NodeCoder, NodeId, Result as CoreResult, Tuples,
};
use cure_query::{CacheConfig, ConcurrentCube, CubeRow, CureCube, ReadPath};
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
pub type NodeMap = BTreeMap<NodeId, Vec<CubeRow>>;

/// One row of the conformance matrix.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    /// Short stable name (scratch directory and mismatch reports).
    label: &'static str,
    build: Build,
    access: Access,
    /// The row's cube-relation bytes must equal every other such row's:
    /// the plain CURE disk builds (sequential and parallel at any thread
    /// count) and the resumed durable build all promise identical bytes.
    byte_comparable: bool,
}

/// How a row builds the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Build {
    /// `CubeBuilder::build_in_memory` into a `MemSink`, read back through
    /// `MemCubeReader`; the only build a [`Mutation`] reaches.
    InMemory,
    /// The BUC (or, `condensed`, BU-BST) baseline over the flat leaf
    /// projection; the baselines know nothing about hierarchies, so only
    /// the lattice nodes whose levels are all leaf-or-ALL are reported.
    Flat { condensed: bool },
    /// `build_cure_cube` into a `DiskSink` at `threads` workers; `dr`
    /// selects CURE_DR, whose NTs materialize dimension values.
    Cure { threads: usize, dr: bool },
    /// A fault-free durable build under a counting I/O policy learns the
    /// write schedule, a second build dies at a seed-derived write index
    /// under a sticky fault, and its resumed bytes must equal the
    /// fault-free reference.
    DurableResume,
    /// The facts split at seed-derived cut points into a base build plus
    /// 1–2 delta batches through the durable ingest pipeline.
    DeltaIngest,
    /// Partition-scoped sub-cubes plus a snapshot replica of every shard
    /// family. The shard count and build threads are drawn, in that
    /// order, from `seed ^ salt` out of `shards` and `threads`.
    Shards { salt: u64, shards: &'static [usize], threads: &'static [usize] },
}

/// How a row reads its built cube back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// The build step's own reader ([`Build::InMemory`], [`Build::Flat`]).
    Direct,
    /// `CureCube::node_query` on every node of the active cube.
    Query,
    /// The hardened serve path under a seed-derived read-fault schedule.
    Chaos(ReadPath),
    /// The scatter-gather `ShardRouter` over the primary shards, then a
    /// router over the replica alone, which must answer identically.
    Router,
    /// Shard servers on loopback sockets, one replica killed mid-sweep
    /// and respawned.
    Socket,
}

const fn row(label: &'static str, build: Build, access: Access, byte_comparable: bool) -> Row {
    Row { label, build, access, byte_comparable }
}

/// The conformance matrix, in the order runs are reported: label, build
/// step, access step, byte-comparable. The delta-ingest cube is merged in
/// update order, equal to a fresh build but not byte-identical; its build
/// step compares two identical chains instead.
const ENGINES: &[Row] = &[
    row("in-memory", Build::InMemory, Access::Direct, false),
    row("sequential", Build::Cure { threads: 1, dr: false }, Access::Query, true),
    row("parallel-2", Build::Cure { threads: 2, dr: false }, Access::Query, true),
    row("parallel-4", Build::Cure { threads: 4, dr: false }, Access::Query, true),
    row("parallel-8", Build::Cure { threads: 8, dr: false }, Access::Query, true),
    row("cure-dr", Build::Cure { threads: 1, dr: true }, Access::Query, false),
    row("durable-resume", Build::DurableResume, Access::Query, true),
    row("buc", Build::Flat { condensed: false }, Access::Direct, false),
    row("bubst", Build::Flat { condensed: true }, Access::Direct, false),
    row("delta-ingest", Build::DeltaIngest, Access::Query, false),
    row(
        "chaos-serve",
        Build::Cure { threads: 1, dr: false },
        Access::Chaos(ReadPath::Cache),
        false,
    ),
    row(
        "chaos-serve-mmap",
        Build::Cure { threads: 1, dr: false },
        Access::Chaos(ReadPath::Mmap),
        false,
    ),
    row(
        "sharded",
        Build::Shards { salt: 0x54A8D, shards: &[2, 3, 4], threads: &[1, 2, 4] },
        Access::Router,
        false,
    ),
    row(
        "socket-sharded",
        Build::Shards { salt: 0x50C4E7, shards: &[2, 3], threads: &[1, 2] },
        Access::Socket,
        false,
    ),
];

/// The tail of the note a CURE disk row raises when a partitioned
/// workload is too small for its budget to force partitioning: a loss of
/// coverage, not a wrong answer.
pub(crate) const COVERAGE_NOTE: &str = "did not force partitioning (coverage degraded)";

/// One row of the conformance matrix (see [`Engine::all`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine(&'static Row);

impl Engine {
    /// The in-memory build (the table's first row), the only engine a
    /// [`Mutation`] applies to.
    pub const IN_MEMORY: Engine = Engine(&ENGINES[0]);

    /// The full conformance matrix, in the order runs are reported.
    pub fn all() -> Vec<Engine> {
        ENGINES.iter().map(Engine).collect()
    }

    /// Short stable label (scratch directory name and mismatch reports).
    pub fn label(&self) -> &'static str {
        self.0.label
    }
}

/// A deliberately injected aggregation bug, for the harness's own
/// mutation smoke test (applies to [`Engine::IN_MEMORY`] only).
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
    /// Byte snapshot of the cube relations (byte-comparable engines only).
    pub bytes: Option<BTreeMap<String, Vec<u8>>>,
    /// Engine-internal consistency violations (e.g. a resumed durable
    /// build whose bytes differ from the fault-free reference).
    pub internal: Vec<String>,
}

const CUBE_PREFIX: &str = "cube_";
const PART_PREFIX: &str = "part_";

/// What a build step leaves for the row's access step.
enum Built {
    /// Node contents the build's own reader produced.
    Nodes(NodeMap),
    /// A CURE cube on disk: its catalog directory and cube prefix.
    Cube { dir: PathBuf, prefix: String },
    /// A sharded build and its replica.
    Shards(ShardSet),
}

/// The state one row's steps share.
struct Run<'a> {
    w: &'a Workload,
    schema: &'a CubeSchema,
    scratch: &'a Path,
    label: &'static str,
    /// Engine-internal invariant violations found so far.
    internal: Vec<String>,
}

impl Run<'_> {
    /// This row's directory `suffix` under the scratch root: rows never
    /// share one.
    fn dir(&self, suffix: &str) -> PathBuf {
        self.scratch.join(format!("{}{suffix}", self.label))
    }

    /// A CURE disk build must have partitioned when the workload forces
    /// it, or the row silently covers the in-memory path instead.
    fn check_partitioned(&mut self, report: &BuildReport) {
        if self.w.partitioned && report.partition.is_none() {
            let budget = self.w.config().memory_budget_bytes;
            self.internal.push(format!("budget {budget} {COVERAGE_NOTE}"));
        }
    }
}

/// Run `engine` over `workload`, building under directories of `scratch`
/// named after the engine. `mutation` is injected into the in-memory
/// build and ignored by every other engine.
pub fn run_engine(
    w: &Workload,
    engine: Engine,
    scratch: &Path,
    mutation: Option<Mutation>,
) -> Result<EngineRun> {
    let row = engine.0;
    let schema = w.schema()?;
    let mut run = Run { w, schema: &schema, scratch, label: row.label, internal: Vec::new() };
    let mut built = match row.build {
        Build::InMemory => Built::Nodes(build_in_memory(&run, mutation)?),
        Build::Flat { condensed } => Built::Nodes(build_flat(&run, condensed)?),
        Build::Cure { threads, dr } => {
            let dir = run.dir("");
            let report = plain_cube(&run, &dir, &w.fact_tuples(), threads, dr)?;
            run.check_partitioned(&report);
            Built::Cube { dir, prefix: CUBE_PREFIX.into() }
        }
        Build::DurableResume => build_durable_resume(&mut run)?,
        Build::DeltaIngest => build_delta_ingest(&mut run)?,
        Build::Shards { salt, shards, threads } => {
            Built::Shards(build_shards(&mut run, salt, shards, threads)?)
        }
    };
    let nodes = match (row.access, &mut built) {
        (Access::Direct, Built::Nodes(nodes)) => std::mem::take(nodes),
        (Access::Query, Built::Cube { dir, prefix }) => {
            let catalog = Catalog::open(&*dir)?;
            let mut cube = CureCube::open(&catalog, &schema, prefix)
                .map_err(|e| CheckError::Case(format!("open cube: {e}")))?;
            every_node(&schema, |id| {
                cube.node_query(id).map_err(|e| CheckError::Case(format!("node_query({id}): {e}")))
            })?
        }
        (Access::Chaos(read_path), Built::Cube { dir, prefix }) => {
            serve_chaos(&mut run, dir, prefix, read_path)?
        }
        (Access::Router, Built::Shards(set)) => serve_router(&mut run, set)?,
        (Access::Socket, Built::Shards(set)) => serve_sockets(&mut run, set)?,
        _ => {
            return Err(CheckError::Case(format!(
                "{}: the access step cannot read this build",
                row.label
            )))
        }
    };
    let bytes = match &built {
        Built::Cube { dir, prefix } if row.byte_comparable => Some(snapshot_cube(dir, prefix)?),
        _ => None,
    };
    Ok(EngineRun { nodes, bytes, internal: run.internal })
}

/// Every lattice node's rows from `query`, sorted.
fn every_node(
    schema: &CubeSchema,
    mut query: impl FnMut(NodeId) -> Result<Vec<CubeRow>>,
) -> Result<NodeMap> {
    let mut nodes = NodeMap::new();
    for id in NodeCoder::new(schema).all_ids() {
        let mut rows = query(id)?;
        rows.sort();
        nodes.insert(id, rows);
    }
    Ok(nodes)
}

fn build_in_memory(run: &Run, mutation: Option<Mutation>) -> Result<NodeMap> {
    let t = run.w.fact_tuples();
    let mut sink = MemSink::new(run.w.measures);
    let builder = CubeBuilder::new(run.schema, run.w.config());
    match mutation {
        Some(mutation) => {
            builder.build_in_memory(&t, &mut MutatingSink { inner: &mut sink, mutation })?
        }
        None => builder.build_in_memory(&t, &mut sink)?,
    };
    let reader = MemCubeReader::new(run.schema, &sink, &t, None)?;
    every_node(run.schema, |id| Ok(reader.node_contents(id)?))
}

fn build_flat(run: &Run, condensed: bool) -> Result<NodeMap> {
    let (w, t) = (run.w, run.w.fact_tuples());
    let cards = w.leaf_cards();
    let coder = NodeCoder::new(run.schema);
    let mut buc = BucMemCube::default();
    let mut bubst = BubstMemCube::default();
    if condensed {
        build_bubst(&cards, &t, w.min_support, &mut bubst)?;
    } else {
        build_buc(&cards, &t, w.min_support, &mut buc)?;
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
            if condensed { bubst.node_contents(&grouped, &t) } else { buc.node_contents(&grouped) };
        nodes.insert(id, rows);
    }
    Ok(nodes)
}

fn fresh_dir(dir: &Path) -> Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(CheckError::Io)?;
    }
    std::fs::create_dir_all(dir).map_err(CheckError::Io)
}

/// Store `facts` as the `facts` relation of a fresh catalog at `dir`.
fn stage(dir: &Path, facts: &Tuples) -> Result<()> {
    fresh_dir(dir)?;
    let catalog = Catalog::open(dir)?;
    let mut heap = catalog
        .create_or_replace("facts", Tuples::fact_schema(facts.n_dims(), facts.n_measures()))?;
    facts.store_fact(&mut heap)?;
    heap.sync()?;
    Ok(())
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

/// The plain disk build: stage `facts` at `dir`, build the CURE cube over
/// them at `threads` workers and write its meta blob.
fn plain_cube(
    run: &Run,
    dir: &Path,
    facts: &Tuples,
    threads: usize,
    dr: bool,
) -> Result<BuildReport> {
    stage(dir, facts)?;
    let catalog = Catalog::open(dir)?;
    let resolver = if dr { Some(fact_row_resolver(&catalog, "facts")?) } else { None };
    let mut sink = DiskSink::new(&catalog, CUBE_PREFIX, run.schema, dr, false, resolver)?;
    let cfg = run.w.config();
    let report =
        build_cure_cube(&catalog, "facts", run.schema, &cfg, &mut sink, PART_PREFIX, threads)?;
    write_meta(&catalog, run.w, run.schema, &report, dr)?;
    Ok(report)
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

/// [`Build::DurableResume`]: reference build, crash, resume.
fn build_durable_resume(run: &mut Run) -> Result<Built> {
    let (w, schema) = (run.w, run.schema);
    let cfg = w.config();
    let facts = w.fact_tuples();
    // Thread count varies with the seed so resume composes with the
    // parallel partition passes too; bytes stay identical at any count.
    let threads = [1usize, 2, 4][ShapeRng::new(w.seed ^ 0xD0_0D).below(3) as usize];
    let build = |catalog: &Catalog, resume: bool| -> Result<BuildReport> {
        let mut sink = DiskSink::new(catalog, CUBE_PREFIX, schema, false, false, None)?;
        let opts = DurableOptions { resume, threads };
        let durable =
            build_cure_cube_durable(catalog, "facts", schema, &cfg, &mut sink, PART_PREFIX, &opts)?;
        Ok(durable.report)
    };

    // Fault-free reference under a counting policy: learn the write
    // schedule and the expected byte image.
    let ref_dir = run.dir("-ref");
    stage(&ref_dir, &facts)?;
    let counter = Arc::new(FaultInjector::counting());
    let catalog = Catalog::open_with_policy(&ref_dir, counter.clone() as Arc<dyn IoPolicy>)?;
    let report = build(&catalog, false)?;
    let writes = counter.writes();
    write_meta(&catalog, w, schema, &report, false)?;
    let ref_bytes = snapshot_cube(&ref_dir, CUBE_PREFIX)?;
    drop(catalog);
    run.check_partitioned(&report);

    // Kill at a seed-derived write index with a sticky fault (everything
    // after the fault fails too, like a process death), then resume.
    let k = ShapeRng::new(w.seed ^ 0xDEAD).below(writes.max(1));
    let crash_dir = run.dir("-crash");
    stage(&crash_dir, &facts)?;
    let inj = Arc::new(FaultInjector::fail_nth_write(k, FaultKind::Error).sticky());
    let faulty = Catalog::open_with_policy(&crash_dir, inj as Arc<dyn IoPolicy>)?;
    if build(&faulty, false).is_ok() {
        run.internal.push(format!("sticky fault at write {k}/{writes} did not abort the build"));
    }
    drop(faulty);
    let recovered = Catalog::open(&crash_dir)?;
    let resumed = build(&recovered, true)?;
    write_meta(&recovered, w, schema, &resumed, false)?;
    if snapshot_cube(&crash_dir, CUBE_PREFIX)? != ref_bytes {
        run.internal.push(format!(
            "resumed cube (crash at write {k}/{writes}) is not byte-identical to the fault-free \
             durable build"
        ));
    }
    Ok(Built::Cube { dir: crash_dir, prefix: CUBE_PREFIX.into() })
}

/// Split the workload's tuples at seed-derived cut points into a base
/// prefix plus 1–2 delta batches (row-ids rebased per slice; ingest
/// reassigns delta row-ids anyway).
fn split_for_ingest(w: &Workload, t: &Tuples) -> (Tuples, Vec<Tuples>) {
    let (d, y, n) = (t.n_dims(), t.n_measures(), t.len());
    let mut rng = ShapeRng::new(w.seed ^ 0xDE17A);
    let batches = 1 + rng.below(2) as usize;
    // Base keeps at least one tuple, so the delta walk starts from a real
    // cube rather than a degenerate empty one.
    let c0 = 1 + rng.below(n as u64) as usize;
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

/// [`Build::DeltaIngest`]: the incremental maintenance pipeline.
///
/// Complete cubes: split the workload into base + 1–2 deltas, build the
/// base on disk, run each delta through the durable ingest (append,
/// merge under the partner prefix, swap, GC), and hand the final active
/// cube to the access step — conformance then asserts base + deltas
/// equals the oracle over *all* facts. The whole chain runs twice and the
/// two final cubes are byte-compared (internal determinism; the merged
/// layout is deterministic but deliberately not byte-identical to a
/// fresh sequential build, so this engine stays out of the cross-engine
/// byte baseline).
///
/// Iceberg cubes cannot be incrementally maintained (groups that fell
/// below the threshold are unrecoverable from the stored cube), so the
/// engine instead asserts the ingest is *rejected up front* — no journal
/// left behind, active prefix unchanged — and falls back to a fresh
/// full build for the semantic comparison.
fn build_delta_ingest(run: &mut Run) -> Result<Built> {
    let (w, schema) = (run.w, run.schema);
    let t = w.fact_tuples();
    let cfg = w.config();

    if w.min_support > 1 {
        let dir = run.dir("");
        plain_cube(run, &dir, &t, 1, false)?;
        let catalog = Catalog::open(&dir)?;
        let mut probe = Tuples::new(schema.num_dims(), schema.num_measures());
        probe.push_fact(t.dims_of(0), t.aggs_of(0), 0);
        if ingest_cube(&catalog, schema, &probe, &cfg, &IngestOptions::default()).is_ok() {
            run.internal.push(format!(
                "iceberg cube (min_support {}) accepted a delta ingest",
                w.min_support
            ));
        }
        if IngestManifest::exists(&catalog) {
            run.internal.push("rejected ingest left a journal behind".into());
        }
        if active_prefix(&catalog) != CUBE_PREFIX {
            run.internal.push("rejected ingest moved the active prefix".into());
        }
        return Ok(Built::Cube { dir, prefix: CUBE_PREFIX.into() });
    }

    let (base, deltas) = split_for_ingest(w, &t);
    let chain = |suffix: &str| -> Result<(PathBuf, String, BTreeMap<String, Vec<u8>>)> {
        let dir = run.dir(suffix);
        plain_cube(run, &dir, &base, 1, false)?;
        let catalog = Catalog::open(&dir)?;
        for delta in &deltas {
            ingest_cube(&catalog, schema, delta, &cfg, &IngestOptions::default())?;
        }
        let prefix = active_prefix(&catalog);
        let bytes = snapshot_cube(&dir, &prefix)?;
        Ok((dir, prefix, bytes))
    };
    let (dir, prefix, bytes_a) = chain("-a")?;
    let (_, _, bytes_b) = chain("-b")?;
    if bytes_a != bytes_b {
        run.internal.push(format!(
            "two identical base+delta chains are not byte-identical: {}",
            crate::first_byte_diff(&bytes_a, &bytes_b)
        ));
    }
    Ok(Built::Cube { dir, prefix })
}

/// [`Access::Chaos`]: the serve-path robustness invariant.
///
/// A fault-free sequential build is served through
/// [`CubeService::query`] (deliberately tiny page caches, so
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
fn serve_chaos(run: &mut Run, dir: &Path, prefix: &str, read_path: ReadPath) -> Result<NodeMap> {
    // Tiny caches force queries back to disk so the fault schedule
    // actually intersects the serve path.
    let caches = CacheConfig { fact_pages: 8, agg_pages: 4, shards: 2 };
    let schema = Arc::new(run.schema.clone());
    let node_ids: Vec<NodeId> = NodeCoder::new(&schema).all_ids().collect();

    // Counting pass: how many policy-governed page reads does opening
    // the cube consume, and how many does one full lattice sweep issue?
    // The chaos schedule is placed after the open reads (the same
    // deterministic open sequence) so service startup stays fault-free.
    // The probe opens with the *same* read path as the chaos run: mmap
    // opens verify every page through the policy, so its read sequence
    // differs from the cache path's and the schedule must match it. A
    // sweep reads at least one page, since workloads hold at least one
    // fact (`Workload::validate`), so the ALL node has a row on disk.
    let counter = Arc::new(FaultInjector::counting());
    let (open_reads, query_reads) = {
        let catalog =
            Arc::new(Catalog::open_with_policy(dir, counter.clone() as Arc<dyn IoPolicy>)?);
        let cube = ConcurrentCube::open_with_read_path(
            catalog,
            Arc::clone(&schema),
            prefix,
            caches,
            read_path,
        )
        .map_err(|e| CheckError::Case(format!("open cube: {e}")))?;
        let at_open = counter.reads();
        for &id in &node_ids {
            cube.node_query(id)
                .map_err(|e| CheckError::Case(format!("fault-free node_query({id}): {e}")))?;
        }
        (at_open, counter.reads() - at_open)
    };

    // Seed-derived schedule. `period ≥ 2` so a transient fault's retried
    // read (which advances the global index) lands off-schedule.
    let mut rng = ShapeRng::new(run.w.seed ^ 0xC4A05);
    let period = 2 + rng.below(3);
    let count = (query_reads / period).clamp(1, 10);
    let start = open_reads + rng.below(query_reads);
    let policy = Arc::new(FaultInjector::chaos_reads(start, period, count, ReadFaultKind::Chaos));
    let catalog = Arc::new(Catalog::open_with_policy(dir, policy.clone() as Arc<dyn IoPolicy>)?);
    let cube = ConcurrentCube::open_with_read_path(catalog, schema, prefix, caches, read_path)
        .map_err(|e| CheckError::Case(format!("open under chaos policy: {e}")))?;
    let svc = CubeService::from_cube_with_resilience(
        Arc::new(cube),
        ResilienceConfig {
            breaker_threshold: 4,
            breaker_cooldown: std::time::Duration::from_millis(20),
        },
    );
    let opts = QueryOptions::default();
    let internal = &mut run.internal;
    let mut nodes = NodeMap::new();

    // Chaos phase: sweep the lattice until the fault budget drains (the
    // pass cap only guards against a schedule the sweeps never reach).
    let record =
        |id: NodeId, mut rows: Vec<CubeRow>, nodes: &mut NodeMap, internal: &mut Vec<String>| {
            rows.sort();
            match nodes.get(&id) {
                Some(prev) if prev != &rows => internal.push(format!(
                    "node {id} answered differently across passes (never-wrong-data violated)"
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
            match svc.query(id, &opts) {
                Ok(rows) => record(id, rows, &mut nodes, internal),
                Err(e) => {
                    if e.kind() == ServeErrorKind::Other {
                        internal
                            .push(format!("untyped failure under read faults on node {id}: {e}"));
                    }
                }
            }
        }
    }
    if policy.read_faults_fired() == 0 {
        internal.push(format!(
            "fault schedule never fired (start {start}, period {period}, count {count}, reads \
             seen {})",
            policy.reads()
        ));
    }

    // Recovery phase: with the budget spent, repair quarantined pages and
    // retry through breaker cooldowns until every node answers.
    for &id in &node_ids {
        let mut recovered = false;
        for _ in 0..50 {
            let _ = svc.repair_all();
            match svc.query(id, &opts) {
                Ok(rows) => {
                    record(id, rows, &mut nodes, internal);
                    recovered = true;
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        if !recovered {
            internal.push(format!("node {id} never recovered after faults stopped"));
        }
    }

    // Final sweep: the service must be back to 100% success.
    let failures = node_ids.iter().filter(|&&id| svc.query(id, &opts).is_err()).count();
    if failures > 0 {
        internal
            .push(format!("{failures}/{} queries still failing after recovery", node_ids.len()));
    }
    Ok(nodes)
}

/// A sharded build ([`Build::Shards`]) and its snapshot replica.
struct ShardSet {
    /// The primary catalog, then the [`replicate_shards`] copy.
    dirs: [PathBuf; 2],
    shards: usize,
    /// The workload's schema, plus a count measure on iceberg workloads.
    schema: Arc<CubeSchema>,
    /// The row's seed-derived draws, continued by the access step.
    rng: ShapeRng,
}

/// [`Build::Shards`]: the facts are split into a seed-derived number of
/// disjoint shards, each built into a **complete** sub-cube
/// ([`build_shard_cubes`] forces `min_support = 1` — per-shard support
/// says nothing about global support). Iceberg workloads carry an extra
/// always-1 count measure through the shard builds so the threshold can
/// be applied *post-merge* (see [`shard_answer`]). The shard families are
/// then shipped with [`replicate_shards`], and the replica's shard files
/// must be byte-identical to the primary's.
fn build_shards(
    run: &mut Run,
    salt: u64,
    shard_counts: &[usize],
    thread_counts: &[usize],
) -> Result<ShardSet> {
    let w = run.w;
    let mut rng = ShapeRng::new(w.seed ^ salt);
    let shards = shard_counts[rng.below(shard_counts.len() as u64) as usize];
    let threads = thread_counts[rng.below(thread_counts.len() as u64) as usize];
    let t = w.fact_tuples();
    let (schema, facts) = if w.min_support > 1 {
        let mut facts = Tuples::with_capacity(w.dims.len(), w.measures + 1, t.len());
        for i in 0..t.len() {
            let mut aggs = t.aggs_of(i).to_vec();
            aggs.push(1);
            facts.push_fact(t.dims_of(i), &aggs, i as u64);
        }
        let dims = w.dims.iter().map(|s| s.build()).collect();
        (CubeSchema::new(dims, w.measures + 1)?, facts)
    } else {
        (run.schema.clone(), t)
    };
    let dir = run.dir("");
    stage(&dir, &facts)?;
    let catalog = Catalog::open(&dir)?;
    let report = build_shard_cubes(&catalog, "facts", &schema, &w.config(), shards, threads)?;
    let covered: u64 = report.rows_per_shard.iter().sum();
    if covered != facts.len() as u64 {
        run.internal
            .push(format!("shard split covers {covered} rows, the fact table has {}", facts.len()));
    }

    let replica = run.dir("-replica");
    fresh_dir(&replica)?;
    replicate_shards(&catalog, shards, &replica)
        .map_err(|e| CheckError::Case(format!("replicate: {e}")))?;
    let shard_family = |root: &Path| -> Result<BTreeMap<String, Vec<u8>>> {
        let mut all = BTreeMap::new();
        for k in 0..shards {
            all.extend(snapshot_cube(root, &shard_prefix(k))?);
        }
        Ok(all)
    };
    let (primary_bytes, replica_bytes) = (shard_family(&dir)?, shard_family(&replica)?);
    if primary_bytes != replica_bytes {
        run.internal.push(format!(
            "replica is not byte-identical to the primary: {}",
            crate::first_byte_diff(&primary_bytes, &replica_bytes)
        ));
    }
    Ok(ShardSet { dirs: [dir, replica], shards, schema: Arc::new(schema), rng })
}

/// One node through `router`, sorted. Iceberg workloads keep exactly the
/// merged groups whose global count reaches `min_support`
/// ([`ShardRouter::iceberg_query`] with `min_count = min_support - 1`)
/// and strip the helper count measure, so the rows match the oracle's
/// shape.
fn shard_answer(
    router: &ShardRouter,
    id: NodeId,
    w: &Workload,
) -> std::result::Result<Vec<CubeRow>, ServeError> {
    let (opts, y) = (QueryOptions::default(), w.measures);
    let mut rows: Vec<CubeRow> = if w.min_support > 1 {
        router
            .iceberg_query(id, (w.min_support - 1) as i64, y, &opts)?
            .into_iter()
            .map(|(dims, mut aggs)| {
                aggs.truncate(y);
                (dims, aggs)
            })
            .collect()
    } else {
        router.query(id, &opts)?
    };
    rows.sort();
    Ok(rows)
}

/// [`Access::Router`]: every lattice node through the in-process
/// scatter-gather [`ShardRouter`] over the primary shards; a router
/// opened on the replica directory alone must answer every node exactly
/// like the primary one.
fn serve_router(run: &mut Run, set: &ShardSet) -> Result<NodeMap> {
    let answer_all = |dir: &Path| -> Result<NodeMap> {
        let router =
            ShardRouter::open(&[dir], Arc::clone(&set.schema), &ShardRouterConfig::default())
                .map_err(|e| CheckError::Case(format!("open router on {}: {e}", dir.display())))?;
        every_node(run.schema, |id| {
            shard_answer(&router, id, run.w)
                .map_err(|e| CheckError::Case(format!("node {id}: {e}")))
        })
    };
    let primary = answer_all(&set.dirs[0])?;
    let replica = answer_all(&set.dirs[1])?;
    for (id, rows) in &primary {
        if replica.get(id) != Some(rows) {
            run.internal
                .push(format!("replica router answers differently from the primary on node {id}"));
        }
    }
    Ok(primary)
}

/// Serve `shard` of the catalog at `dir` on a fresh loopback port.
fn serve_shard(dir: &Path, shard: usize, schema: &Arc<CubeSchema>) -> Result<ShardServer> {
    let catalog = Arc::new(Catalog::open(dir)?);
    let service = CubeService::open_with_read_path(
        catalog,
        Arc::clone(schema),
        &shard_cube_prefix(shard),
        CacheConfig::default(),
        ReadPath::Cache,
    )
    .map_err(|e| CheckError::Case(format!("open shard {shard}: {e}")))?;
    ShardServer::spawn(service, shard as u32, "127.0.0.1:0", ShardServerConfig::default())
        .map_err(|e| CheckError::Case(format!("bind shard {shard}: {e}")))
}

/// [`Access::Socket`]: sharded serving over the socket wire protocol,
/// proven against a replica kill.
///
/// Every shard is served by 2 replicas (the primary catalog and its
/// [`replicate_shards`] copy), each a [`ShardServer`] on its own loopback
/// socket, queried through [`RemoteShardBackend`]s in real wire frames.
/// A server's [`ShardServer::abort`] is, for the client, indistinguishable
/// from its process being SIGKILLed. Three phases:
///
/// 1. **Identity over the wire** — every lattice node is answered
///    through the socket router and reported as this engine's node
///    contents, so the harness compares them against the oracle
///    (iceberg thresholds post-merge, exactly like the in-process
///    sharded engine).
/// 2. **Kill** — one seed-chosen replica is aborted mid-sweep. Every
///    subsequent answer must be byte-identical to phase 1 (failover) or
///    a *typed* error — never wrong data, never an unclassified failure —
///    and the kill must be visible in the shard's failover counter.
/// 3. **Recovery** — the replica is respawned from its directory, the
///    backend redirected at the new endpoint, and after a bounded retry
///    loop a full sweep must again answer every node identically.
fn serve_sockets(run: &mut Run, set: &mut ShardSet) -> Result<NodeMap> {
    let mut servers: Vec<ShardServer> = Vec::new();
    let mut backends: Vec<Vec<Arc<dyn ShardBackend>>> = Vec::new();
    let mut handles: Vec<Vec<RemoteShardBackend>> = Vec::new();
    for k in 0..set.shards {
        let mut reps: Vec<Arc<dyn ShardBackend>> = Vec::new();
        let mut hs = Vec::new();
        for dir in &set.dirs {
            let server = serve_shard(dir, k, &set.schema)?;
            let addr = server.local_addr().to_string();
            servers.push(server);
            let b = RemoteShardBackend::connect(&addr, RemoteShardConfig::default())
                .map_err(|e| CheckError::Case(format!("connect shard {k} at {addr}: {e}")))?;
            if b.shard() != k as u32 {
                return Err(CheckError::Case(format!(
                    "server at {addr} announced shard {}, want {k}",
                    b.shard()
                )));
            }
            hs.push(b.clone());
            reps.push(Arc::new(b));
        }
        backends.push(reps);
        handles.push(hs);
    }
    let router = ShardRouter::from_backends(Arc::clone(&set.schema), backends)
        .map_err(|e| CheckError::Case(format!("open router: {e}")))?;
    let node_ids: Vec<NodeId> = NodeCoder::new(run.schema).all_ids().collect();
    let w = run.w;
    let internal = &mut run.internal;

    // Phase 1: every node answered over the wire; the harness compares
    // these against the oracle.
    let nodes = every_node(run.schema, |id| {
        shard_answer(&router, id, w).map_err(|e| CheckError::Case(format!("node {id}: {e}")))
    })?;

    // Phase 2: kill one seed-chosen replica mid-sweep and keep querying.
    // Correct rows (failover) or a typed error — never wrong data, never
    // an unclassified failure.
    router.reset_stats();
    let victim_shard = set.rng.below(set.shards as u64) as usize;
    let victim = handles[victim_shard][1].clone();
    let kill_at = set.rng.below(node_ids.len() as u64) as usize;
    for (i, &id) in node_ids.iter().enumerate() {
        if i == kill_at {
            // Dropped right after the abort, which closes the listener.
            servers.remove(victim_shard * 2 + 1).abort();
        }
        match shard_answer(&router, id, w) {
            Ok(rows) => {
                if nodes.get(&id) != Some(&rows) {
                    internal.push(format!(
                        "wrong data after replica kill on node {id} (never-wrong-data violated)"
                    ));
                }
            }
            Err(e) if e.kind() == ServeErrorKind::Other => {
                internal.push(format!("untyped failure after replica kill on node {id}: {e}"));
            }
            Err(_) => {} // typed failure: allowed; recovery is proven below
        }
    }
    // The kill must be visible. If the round-robin happened to dodge the
    // dead replica for the remaining sweep, push a few more queries
    // through until it cannot.
    let mut extra = 0;
    while router.shard_stats()[victim_shard].failovers == 0 && extra < 16 {
        let _ = shard_answer(&router, node_ids[0], w);
        extra += 1;
    }
    if router.shard_stats()[victim_shard].failovers == 0 {
        internal
            .push(format!("killed a shard {victim_shard} replica but no failover was recorded"));
    }

    // Phase 3: respawn the replica from its (intact) directory, point
    // the backend at the new endpoint, and prove full recovery.
    let server = serve_shard(&set.dirs[1], victim_shard, &set.schema)?;
    victim.redirect(&server.local_addr().to_string());
    servers.push(server);
    let mut recovered = false;
    for _ in 0..50 {
        if victim.query(node_ids[0], &QueryOptions::default()).is_ok() {
            recovered = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    if !recovered {
        internal.push("respawned replica never answered after redirect".into());
    }
    for &id in &node_ids {
        match shard_answer(&router, id, w) {
            Ok(rows) => {
                if nodes.get(&id) != Some(&rows) {
                    internal.push(format!("post-respawn answer differs on node {id}"));
                }
            }
            Err(e) => internal.push(format!("node {id} still failing after respawn: {e}")),
        }
    }
    let wire = router.wire_totals();
    if wire.bytes_in == 0 || wire.bytes_out == 0 {
        internal.push("no wire traffic recorded".into());
    }
    Ok(nodes)
}

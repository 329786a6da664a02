//! The node-resolution engine: the one code path that turns a lattice
//! node into rows, for every cube handle and every read path.
//!
//! A node query reads the node's stored sources — its NT relation, its
//! CAT references and the TTs along its execution-plan path (§5.1) —
//! and resolves them against the fact table and `AGGREGATES`.
//! [`CureCube`](crate::cure_reader::CureCube) (exclusive, `&mut self`)
//! and [`ConcurrentCube`](crate::concurrent::ConcurrentCube) (`&self`,
//! on either [`ReadPath`]) all answer through [`scan_node`]. Only two
//! things differ between them:
//!
//! * **where a source's pages come from** — a [`Source`] is a heap
//!   relation read through `pread` and the handle's checksum memo, a
//!   relation mapped read-only and verified at open, or a decoded CURE+
//!   bitmap. Every relation a reader opens goes through [`open_source`],
//!   which never writes, truncates or fsyncs the cube;
//! * **how fact and `AGGREGATES` rows are fetched** — a [`RowFetcher`]
//!   visits them through a per-row LRU, page-ordered gathers through the
//!   shared caches, or borrowed slices of the mapping.
//!
//! A query is one pass per source: the node's sources come from its
//! [`NodeRelations`] slots (opened on first use, or all at open on the
//! mmap path, and kept for the handle's epoch), each source is scanned
//! once to collect row-ids, all CAT references go to `AGGREGATES` in one
//! [`RowFetcher::fetch_aggs`] call, and every fact row-id of every source
//! goes to the fact table in one [`RowFetcher::fetch_facts`] call. Rows
//! are visited in row-id input order, so every handle returns the same
//! rows in the same order.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;
use std::time::Instant;

use cure_core::meta::CubeMeta;
use cure_core::sink::{
    cat_bitmap_name, cat_rel_name, nt_rel_name, tt_bitmap_name, tt_rel_name, CatFormat,
};
use cure_core::{CubeError, CubeSchema, NodeCoder, NodeId, PlanSpec, Result};
use cure_storage::{BitmapIndex, Catalog, HeapFile, MmapRelation, Schema};

use crate::concurrent::ReadPath;
use crate::error::QueryError;
use crate::CubeRow;

/// Where one query's time went, so the next bottleneck is measured
/// rather than guessed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    /// Node decode and source lookup (a first use opens the source).
    pub probe_ns: u64,
    /// Scanning the node's sources, and fetching its fact and
    /// `AGGREGATES` rows and decoding them into the answer.
    pub read_ns: u64,
    /// Everything else, chiefly allocating the answer's rows.
    pub compute_ns: u64,
}

/// Read-only view of everything resolution needs from an opened cube.
pub(crate) struct ResolveEnv<'e> {
    pub catalog: &'e Catalog,
    pub schema: &'e CubeSchema,
    pub meta: &'e CubeMeta,
    pub plan: &'e PlanSpec,
    pub coder: &'e NodeCoder,
    pub fact_schema: &'e Schema,
    /// `AGGREGATES`' row schema, when the cube has one.
    pub agg_schema: Option<&'e Schema>,
    /// How node sources are opened.
    pub read_path: ReadPath,
    pub relations: &'e NodeRelations,
}

/// How fact and `AGGREGATES` rows are fetched: the only behavioural
/// difference between handles besides where source pages come from.
///
/// Both calls visit the rows in input order: `visit(i, row)` receives
/// row `rowids[i]`. Each counts one fetch per row.
pub(crate) trait RowFetcher {
    /// Visit fact-table rows `rowids`.
    fn fetch_facts(
        &mut self,
        rowids: &[u64],
        visit: impl FnMut(usize, &[u8]) -> Result<()>,
    ) -> Result<()>;

    /// Visit `AGGREGATES` rows `rowids`.
    fn fetch_aggs(
        &mut self,
        rowids: &[u64],
        visit: impl FnMut(usize, &[u8]) -> Result<()>,
    ) -> Result<()>;
}

/// One stored source of a node's rows, as opened for a handle's epoch.
pub(crate) enum Source {
    /// The node stores no such relation or blob.
    Absent,
    /// A heap relation, opened read-only (cache read path).
    Relation(HeapFile),
    /// A relation mapped read-only, every page verified at open (mmap
    /// read path).
    Mapped(MmapRelation),
    /// A CURE+ row-id bitmap blob (CAT A-rowids or TT R-rowids), decoded.
    Bitmap(BitmapIndex),
}

impl Source {
    /// The row schema of a relation source.
    pub(crate) fn schema(&self) -> Option<&Schema> {
        match self {
            Source::Relation(rel) => Some(rel.schema()),
            Source::Mapped(rel) => Some(rel.schema()),
            Source::Absent | Source::Bitmap(_) => None,
        }
    }

    /// The relation name (file stem) of a relation source, the key typed
    /// corrupt-page errors carry; empty for other sources.
    pub(crate) fn relation_name(&self) -> String {
        match self {
            Source::Relation(rel) => rel.relation_name(),
            Source::Mapped(rel) => rel.relation_name().to_string(),
            Source::Absent | Source::Bitmap(_) => String::new(),
        }
    }
}

/// Open relation `name` for reading on `read_path`: the one open every
/// relation a reader uses goes through. Neither path writes the file: a
/// damaged page becomes a typed error (cache path) or is marked bad and
/// served as one (mmap path), never a truncation.
pub(crate) fn open_source(catalog: &Catalog, name: &str, read_path: ReadPath) -> Result<Source> {
    Ok(match read_path {
        ReadPath::Cache => Source::Relation(catalog.open_sealed(name)?),
        ReadPath::Mmap => Source::Mapped(MmapRelation::open(catalog, name)?),
    })
}

/// Run `f` over every row of a relation source, in row-id order.
/// Absent sources have no rows; bitmaps hold row-ids, not rows.
fn for_each_row(src: &Source, mut f: impl FnMut(&[u8])) -> Result<()> {
    match src {
        Source::Absent => Ok(()),
        Source::Relation(rel) => rel.for_each_row(|_, row| f(row)).map(|_| ()).map_err(Into::into),
        Source::Mapped(rel) => rel
            .try_for_each_row(|_, row| {
                f(row);
                Ok(())
            })
            .map_err(Into::into),
        Source::Bitmap(_) => {
            Err(QueryError::Malformed("a bitmap source has no rows".into()).into())
        }
    }
}

/// The NT, CAT and TT slots of one lattice node.
#[derive(Default)]
struct NodeSlots {
    nt: OnceLock<Source>,
    cat: OnceLock<Source>,
    tt: OnceLock<Source>,
}

/// Per-epoch relation table: every node's stored sources, keyed by node
/// id and filled on first use (or all at open, see
/// [`ResolveEnv::fill_all`]).
///
/// A handle serves one sealed epoch, so a slot never goes stale once it
/// is filled. A load that fails (an I/O fault while opening, say) fills
/// nothing, and the next query retries it. Two threads that race on an
/// empty slot may both open the relation; one handle is kept and the
/// other dropped.
pub(crate) struct NodeRelations {
    nodes: Vec<NodeSlots>,
}

impl NodeRelations {
    /// Empty slots for `num_nodes` lattice nodes.
    pub(crate) fn new(num_nodes: u64) -> Self {
        NodeRelations { nodes: (0..num_nodes).map(|_| NodeSlots::default()).collect() }
    }

    fn slots(&self, node: NodeId) -> Result<&NodeSlots> {
        self.nodes
            .get(node as usize)
            .ok_or_else(|| CubeError::Config(format!("node {node} beyond the lattice")))
    }
}

/// The source in `cell`, loading it first if the slot is empty.
fn filled(cell: &OnceLock<Source>, load: impl FnOnce() -> Result<Source>) -> Result<&Source> {
    if let Some(s) = cell.get() {
        return Ok(s);
    }
    let s = load()?;
    Ok(cell.get_or_init(|| s))
}

/// Adds the time `f` takes to `*ns` when `on`.
fn timed<T>(on: bool, ns: &mut u64, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let r = f();
    *ns += t.elapsed().as_nanos() as u64;
    r
}

impl<'e> ResolveEnv<'e> {
    /// Append the fact row in `buf`, projected onto the node's grouped
    /// dimensions, to `dims`.
    fn project_into(&self, levels: &[usize], buf: &[u8], dims: &mut Vec<u32>) {
        for (d, dim) in self.schema.dims().iter().enumerate() {
            if !self.coder.is_all(levels, d) {
                let leaf = Schema::read_u32_at(buf, self.fact_schema.offset(d));
                dims.push(dim.value_at(levels[d], leaf));
            }
        }
    }

    /// Append the measure columns of the fact row in `buf` to `aggs`.
    fn measures_into(&self, buf: &[u8], aggs: &mut Vec<i64>) {
        let d = self.schema.num_dims();
        let measures = 0..self.schema.num_measures();
        aggs.extend(measures.map(|m| Schema::read_i64_at(buf, self.fact_schema.offset(d + m))));
    }

    /// Relation `name`, opened, or [`Source::Absent`].
    fn relation(&self, name: &str) -> Result<Source> {
        if self.catalog.exists(name) {
            open_source(self.catalog, name, self.read_path)
        } else {
            Ok(Source::Absent)
        }
    }

    /// Blob `name`, decoded as a bitmap, or [`Source::Absent`].
    fn bitmap(&self, name: &str) -> Result<Source> {
        Ok(if self.catalog.blob_exists(name) {
            Source::Bitmap(BitmapIndex::from_bytes(&self.catalog.read_blob(name)?)?)
        } else {
            Source::Absent
        })
    }

    /// The node's NT relation.
    fn nt(&self, node: NodeId) -> Result<&'e Source> {
        let slot = &self.relations.slots(node)?.nt;
        filled(slot, || self.relation(&nt_rel_name(&self.meta.prefix, node)))
    }

    /// The node's CAT references: a CURE+ bitmap of format-(a) A-rowids
    /// when one exists, else the CAT relation.
    fn cat(&self, node: NodeId) -> Result<&'e Source> {
        let slot = &self.relations.slots(node)?.cat;
        filled(slot, || {
            if self.meta.plus {
                if let bm @ Source::Bitmap(_) =
                    self.bitmap(&cat_bitmap_name(&self.meta.prefix, node))?
                {
                    return Ok(bm);
                }
            }
            self.relation(&cat_rel_name(&self.meta.prefix, node))
        })
    }

    /// The TT stored at node `m`: a bitmap blob on CURE+ cubes, a
    /// relation otherwise.
    fn tt(&self, m: NodeId) -> Result<&'e Source> {
        let slot = &self.relations.slots(m)?.tt;
        filled(slot, || {
            if self.meta.plus {
                self.bitmap(&tt_bitmap_name(&self.meta.prefix, m))
            } else {
                self.relation(&tt_rel_name(&self.meta.prefix, m))
            }
        })
    }

    /// Fill every node's slots now, so no open, map or verification cost
    /// lands in a query's latency.
    pub(crate) fn fill_all(&self) -> Result<()> {
        for node in 0..self.coder.num_nodes() {
            self.nt(node)?;
            self.cat(node)?;
            self.tt(node)?;
        }
        Ok(())
    }

    /// The node source stored as relation `name`, opening its slot first
    /// if it is empty; `None` when no node stores a relation of that name.
    pub(crate) fn source_named(&self, name: &str) -> Result<Option<&'e Source>> {
        let prefix = &self.meta.prefix;
        for node in 0..self.coder.num_nodes() {
            if nt_rel_name(prefix, node) == name {
                return self.nt(node).map(Some);
            }
            if cat_rel_name(prefix, node) == name {
                return self.cat(node).map(Some);
            }
            if !self.meta.plus && tt_rel_name(prefix, node) == name {
                return self.tt(node).map(Some);
            }
        }
        Ok(None)
    }
}

/// Resolve `node`: its NT rows, then its CAT rows, then (with
/// `with_tts`) the rows of each TT on its plan path, in that order.
///
/// With a `qualifier`, rows whose source row-id is not in it are dropped
/// before any fact fetch: NT and TT row-ids are membership-tested (TT
/// bitmaps intersected), and format-(b) CAT rows, which carry their
/// source row-id, are dropped before `AGGREGATES` is touched.
///
/// With `attr`, the probe and read time of the query is added to it
/// (see [`Attribution`]).
pub(crate) fn scan_node(
    env: &ResolveEnv<'_>,
    fetcher: &mut impl RowFetcher,
    node: NodeId,
    qualifier: Option<&BitmapIndex>,
    with_tts: bool,
    attr: Option<&mut Attribution>,
) -> Result<Vec<CubeRow>> {
    let on = attr.is_some();
    let mut time = Attribution::default();
    let (levels, nt, cat, tts) = timed(on, &mut time.probe_ns, || -> Result<_> {
        let (levels, nt, cat) = (env.coder.decode(node)?, env.nt(node)?, env.cat(node)?);
        let mut tts = Vec::new();
        if with_tts {
            for m in env.plan.path_to(node)? {
                tts.push(env.tt(m)?);
            }
        }
        Ok((levels, nt, cat, tts))
    })?;
    let y = env.schema.num_measures();
    let keep = |rowid: u64| qualifier.is_none_or(|q| q.contains(rowid));
    let mut out: Vec<CubeRow> = Vec::new();
    // Row `start + i` of `out` is fact row `rowids[i]` projected: its
    // grouping values are filled in by the one fact fetch below.
    let mut rowids: Vec<u64> = Vec::new();
    let (mut start, mut tt_start) = (0, 0);

    timed(on, &mut time.read_ns, || -> Result<()> {
        if let Some(rs) = nt.schema() {
            if env.meta.dr {
                // CURE_DR NT rows hold their grouping values: no fetch.
                let arity = env.coder.grouping_arity(&levels);
                for_each_row(nt, |row| {
                    let dims = (0..arity).map(|i| Schema::read_u32_at(row, rs.offset(i)));
                    let aggs = (0..y).map(|m| Schema::read_i64_at(row, rs.offset(arity + m)));
                    out.push((dims.collect(), aggs.collect()));
                })?;
                start = out.len();
            } else {
                for_each_row(nt, |row| {
                    let rowid = Schema::read_u64_at(row, rs.offset(0));
                    if keep(rowid) {
                        rowids.push(rowid);
                        let aggs = (0..y).map(|m| Schema::read_i64_at(row, rs.offset(1 + m)));
                        out.push((Vec::new(), aggs.collect()));
                    }
                })?;
            }
        }

        scan_cat(env, fetcher, cat, &keep, &mut rowids, &mut out)?;

        // TT rows take their measures from the fact row too.
        tt_start = out.len();
        for tt in tts {
            let before = rowids.len();
            match (tt, qualifier) {
                (Source::Bitmap(bm), Some(q)) => rowids.extend(bm.intersect(q).iter()),
                (Source::Bitmap(bm), None) => rowids.extend(bm.iter()),
                (src, _) => for_each_row(src, |row| {
                    let rowid = Schema::read_u64_at(row, 0);
                    if keep(rowid) {
                        rowids.push(rowid);
                    }
                })?,
            }
            let added = rowids.len() - before;
            out.extend(std::iter::repeat_with(|| (Vec::new(), Vec::new())).take(added));
        }
        Ok(())
    })?;

    // The fact fetch fills rows in place. Their vectors are allocated
    // here, in one pass outside the timed reads: attribution counts the
    // allocation as compute, and one pass measured faster than
    // allocating inside the visitor.
    let arity = env.coder.grouping_arity(&levels);
    for (i, row) in out[start..].iter_mut().enumerate() {
        row.0.reserve_exact(arity);
        if start + i >= tt_start {
            row.1.reserve_exact(y);
        }
    }

    timed(on, &mut time.read_ns, || {
        fetcher.fetch_facts(&rowids, |i, fact| {
            let row = &mut out[start + i];
            env.project_into(&levels, fact, &mut row.0);
            if start + i >= tt_start {
                env.measures_into(fact, &mut row.1);
            }
            Ok(())
        })
    })?;
    if let Some(a) = attr {
        a.probe_ns += time.probe_ns;
        a.read_ns += time.read_ns;
    }
    Ok(out)
}

/// Resolve a node's CAT references against `AGGREGATES` in one fetch,
/// appending one row to `out` and its source row-id to `rowids` per
/// qualifying reference.
fn scan_cat(
    env: &ResolveEnv<'_>,
    fetcher: &mut impl RowFetcher,
    cat: &Source,
    keep: &impl Fn(u64) -> bool,
    rowids: &mut Vec<u64>,
    out: &mut Vec<CubeRow>,
) -> Result<()> {
    if matches!(cat, Source::Absent) {
        return Ok(());
    }
    let y = env.schema.num_measures();
    let format = env.meta.cat_format.ok_or_else(|| {
        CubeError::Schema("cube has a CAT relation but no CAT format in meta".into())
    })?;
    let ags = env
        .agg_schema
        .ok_or_else(|| CubeError::Schema("CAT rows but no AGGREGATES relation".into()))?;
    // Format (a) rows reference AGGREGATES rows that hold the source
    // row-id; format (b) rows carry it, so non-qualifying rows are
    // dropped here without touching AGGREGATES.
    let mut a_rowids: Vec<u64> = Vec::new();
    let mut sources: Vec<u64> = Vec::new();
    match (cat, format) {
        (_, CatFormat::AsNt) => {
            return Err(CubeError::Schema("AsNt format cannot have CAT relations".into()))
        }
        (Source::Bitmap(bm), CatFormat::CommonSource) => a_rowids.extend(bm.iter()),
        (src, CatFormat::CommonSource) => {
            for_each_row(src, |row| a_rowids.push(Schema::read_u64_at(row, 0)))?
        }
        // A bitmap has no source row-ids, so `for_each_row` rejects it.
        (src, CatFormat::Coincidental) => {
            let a_off = src.schema().map_or(0, |rs| rs.offset(1));
            for_each_row(src, |row| {
                let rowid = Schema::read_u64_at(row, 0);
                if keep(rowid) {
                    sources.push(rowid);
                    a_rowids.push(Schema::read_u64_at(row, a_off));
                }
            })?
        }
    }
    fetcher.fetch_aggs(&a_rowids, |i, agg_row| {
        let (rowid, first) = match format {
            CatFormat::Coincidental => (sources[i], 0),
            _ => (Schema::read_u64_at(agg_row, ags.offset(0)), 1),
        };
        if keep(rowid) {
            rowids.push(rowid);
            let aggs = (0..y).map(|m| Schema::read_i64_at(agg_row, ags.offset(first + m)));
            out.push((Vec::new(), aggs.collect()));
        }
        Ok(())
    })
}

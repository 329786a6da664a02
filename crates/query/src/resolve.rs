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
//! * **where a source's pages come from** — a node's NT, CAT and TT rows
//!   are extents of the cube's one segment ([`cure_storage::segment`]),
//!   read with one `pread` per extent and the handle's checksum memo, or
//!   borrowed from one mapping of the segment verified at open; CURE+
//!   bitmaps are decoded blobs. The fact table and `AGGREGATES` are heap
//!   [`Source`]s opened through [`open_source`]. Nothing a reader opens
//!   is ever written, truncated or fsynced;
//! * **how fact and `AGGREGATES` rows are fetched** — a [`RowFetcher`]
//!   visits them through a per-row LRU, page-ordered gathers through the
//!   shared caches, or borrowed slices of the mapping.
//!
//! A query is one pass per source: the node's sources are directory
//! lookups in its handle's [`NodeRelations`] (the segment is opened once
//! per epoch; CURE+ bitmaps are decoded on first use, or all at open on
//! the mmap path), each source is scanned
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
use cure_storage::{
    BitmapIndex, Catalog, HeapFile, MmapRelation, Schema, Segment, SegmentEntry, SegmentMap,
};

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

    /// The check before each page of the cube's segment that a source
    /// scan reads; its error aborts the query. None by default.
    fn before_segment_page(&self, _page: u64) -> Result<()> {
        Ok(())
    }
}

/// A heap relation a handle reads rows from by row-id: the fact table
/// or `AGGREGATES`, as opened for the handle's epoch.
pub(crate) enum Source {
    /// The cube stores no such relation.
    Absent,
    /// A heap relation, opened read-only (cache read path).
    Relation(HeapFile),
    /// A relation mapped read-only, every page verified at open (mmap
    /// read path).
    Mapped(MmapRelation),
}

impl Source {
    /// The row schema of a relation source.
    pub(crate) fn schema(&self) -> Option<&Schema> {
        match self {
            Source::Relation(rel) => Some(rel.schema()),
            Source::Mapped(rel) => Some(rel.schema()),
            Source::Absent => None,
        }
    }

    /// The relation name (file stem) of a relation source, the key typed
    /// corrupt-page errors carry; empty for an absent one.
    pub(crate) fn relation_name(&self) -> String {
        match self {
            Source::Relation(rel) => rel.relation_name().to_string(),
            Source::Mapped(rel) => rel.relation_name().to_string(),
            Source::Absent => String::new(),
        }
    }
}

/// Open relation `name` for reading on `read_path`: the one open every
/// heap relation a reader uses goes through. Neither path writes the
/// file: a damaged page becomes a typed error (cache path) or is marked
/// bad and served as one (mmap path), never a truncation.
pub(crate) fn open_source(catalog: &Catalog, name: &str, read_path: ReadPath) -> Result<Source> {
    Ok(match read_path {
        ReadPath::Cache => Source::Relation(catalog.open_sealed(name)?),
        ReadPath::Mmap => Source::Mapped(MmapRelation::open(catalog, name)?),
    })
}

/// One stored source of a node's rows.
pub(crate) enum NodeSource<'a> {
    /// The node stores no such relation or bitmap.
    Absent,
    /// A relation of the cube's segment.
    Rows(&'a SegmentEntry),
    /// A CURE+ row-id bitmap (CAT A-rowids or TT R-rowids), decoded.
    Bitmap(&'a BitmapIndex),
}

impl NodeSource<'_> {
    fn schema(&self) -> Option<&Schema> {
        match self {
            NodeSource::Rows(e) => Some(&e.schema),
            NodeSource::Absent | NodeSource::Bitmap(_) => None,
        }
    }
}

/// The cube's segment, as its handle's read path opened it.
enum Store {
    /// Read with one `pread` per extent (cache read path).
    Read(Segment),
    /// Mapped once, every page verified at open (mmap read path).
    Mapped(SegmentMap),
}

/// Per-epoch node table: the cube's segment, opened once, and every
/// node's NT, CAT and TT resolved to a directory entry at open. CURE+
/// bitmaps are decoded on first use (or all at open, see
/// [`ResolveEnv::fill_all`]).
///
/// A handle serves one sealed epoch, so nothing here goes stale. A
/// bitmap load that fails (an I/O fault, say) fills nothing, and the next
/// query retries it. Two threads that race on an empty bitmap slot may
/// both decode it; one copy is kept.
pub(crate) struct NodeRelations {
    store: Store,
    /// Per node: the directory index of its NT, CAT and TT.
    index: Vec<[Option<u32>; 3]>,
    /// Per node, CURE+ cubes only: its TT and CAT bitmaps.
    bitmaps: Vec<[OnceLock<Option<BitmapIndex>>; 2]>,
}

impl NodeRelations {
    /// Open the segment of the cube `meta` describes on `read_path` and
    /// resolve every node's relations in its directory.
    pub(crate) fn open(
        catalog: &Catalog,
        meta: &CubeMeta,
        coder: &NodeCoder,
        read_path: ReadPath,
    ) -> Result<Self> {
        let store = match read_path {
            ReadPath::Cache => Store::Read(catalog.open_segment(&meta.prefix)?),
            ReadPath::Mmap => Store::Mapped(catalog.map_segment(&meta.prefix)?),
        };
        let dir = match &store {
            Store::Read(seg) => seg.directory(),
            Store::Mapped(map) => map.directory(),
        };
        let p = &meta.prefix;
        let find = |name: String| dir.position(&name).map(|i| i as u32);
        let index = (0..coder.num_nodes())
            .map(|n| [find(nt_rel_name(p, n)), find(cat_rel_name(p, n)), find(tt_rel_name(p, n))])
            .collect();
        let slots = if meta.plus { coder.num_nodes() } else { 0 };
        let bitmaps = (0..slots).map(|_| Default::default()).collect();
        Ok(NodeRelations { store, index, bitmaps })
    }

    fn entries(&self) -> &[SegmentEntry] {
        match &self.store {
            Store::Read(seg) => seg.directory().entries(),
            Store::Mapped(map) => map.directory().entries(),
        }
    }

    /// Node `node`'s part `part` (0 NT, 1 CAT, 2 TT) as a source.
    fn part(&self, node: NodeId, part: usize) -> Result<NodeSource<'_>> {
        let slots = self
            .index
            .get(node as usize)
            .ok_or_else(|| CubeError::Config(format!("node {node} beyond the lattice")))?;
        Ok(match slots[part] {
            Some(i) => NodeSource::Rows(&self.entries()[i as usize]),
            None => NodeSource::Absent,
        })
    }

    /// Run `f` over every row of segment relation `entry`, in row order,
    /// after `before_page` on each page.
    fn for_each_row(
        &self,
        entry: &SegmentEntry,
        before_page: impl FnMut(u64) -> Result<()>,
        f: impl FnMut(&[u8]),
    ) -> Result<()> {
        match &self.store {
            Store::Read(seg) => seg.for_each_row(entry, before_page, f),
            Store::Mapped(map) => map.for_each_row(entry, before_page, f),
        }
    }

    /// The segment's name: the relation its corrupt-page errors carry.
    pub(crate) fn segment_name(&self) -> &str {
        match &self.store {
            Store::Read(seg) => seg.name(),
            Store::Mapped(map) => map.name(),
        }
    }

    /// Re-verify data page `page` of the segment from disk.
    pub(crate) fn reverify_page(&self, page: u64) -> Result<()> {
        match &self.store {
            Store::Read(seg) => seg.reverify_page(page)?,
            Store::Mapped(map) => map.reverify_page(page)?,
        }
        Ok(())
    }
}

/// Run `f` over every row of a relation source, in row-id order, with
/// `fetcher`'s check before each segment page. Absent sources have no
/// rows; bitmaps hold row-ids, not rows.
fn for_each_row(
    env: &ResolveEnv<'_>,
    fetcher: &impl RowFetcher,
    src: &NodeSource<'_>,
    f: impl FnMut(&[u8]),
) -> Result<()> {
    match src {
        NodeSource::Absent => Ok(()),
        NodeSource::Rows(entry) => {
            env.relations.for_each_row(entry, |page| fetcher.before_segment_page(page), f)
        }
        NodeSource::Bitmap(_) => {
            Err(QueryError::Malformed("a bitmap source has no rows".into()).into())
        }
    }
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

    /// CURE+ bitmap `kind` (0 TT, 1 CAT) of `node`, decoded on first use.
    fn bitmap(&self, node: NodeId, kind: usize) -> Result<NodeSource<'e>> {
        let slot = self
            .relations
            .bitmaps
            .get(node as usize)
            .ok_or_else(|| CubeError::Config(format!("node {node} beyond the lattice")))?;
        let cell = &slot[kind];
        let bm = match cell.get() {
            Some(bm) => bm,
            None => {
                let p = &self.meta.prefix;
                let name =
                    if kind == 0 { tt_bitmap_name(p, node) } else { cat_bitmap_name(p, node) };
                let bm = if self.catalog.blob_exists(&name) {
                    Some(BitmapIndex::from_bytes(&self.catalog.read_blob(&name)?)?)
                } else {
                    None
                };
                cell.get_or_init(|| bm)
            }
        };
        Ok(bm.as_ref().map_or(NodeSource::Absent, NodeSource::Bitmap))
    }

    /// The node's NT relation.
    fn nt(&self, node: NodeId) -> Result<NodeSource<'e>> {
        self.relations.part(node, 0)
    }

    /// The node's CAT references: a CURE+ bitmap of format-(a) A-rowids
    /// when one exists, else the CAT relation.
    fn cat(&self, node: NodeId) -> Result<NodeSource<'e>> {
        if self.meta.plus {
            if let bm @ NodeSource::Bitmap(_) = self.bitmap(node, 1)? {
                return Ok(bm);
            }
        }
        self.relations.part(node, 1)
    }

    /// The TT stored at node `m`: a bitmap blob on CURE+ cubes, a
    /// relation otherwise.
    fn tt(&self, m: NodeId) -> Result<NodeSource<'e>> {
        if self.meta.plus {
            self.bitmap(m, 0)
        } else {
            self.relations.part(m, 2)
        }
    }

    /// Decode every CURE+ bitmap now, so no decode cost lands in a
    /// query's latency (the segment itself is opened, or mapped and
    /// verified, when the handle opens).
    pub(crate) fn fill_all(&self) -> Result<()> {
        if self.meta.plus {
            for node in 0..self.coder.num_nodes() {
                self.bitmap(node, 0)?;
                self.bitmap(node, 1)?;
            }
        }
        Ok(())
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
                for_each_row(env, fetcher, &nt, |row| {
                    let dims = (0..arity).map(|i| Schema::read_u32_at(row, rs.offset(i)));
                    let aggs = (0..y).map(|m| Schema::read_i64_at(row, rs.offset(arity + m)));
                    out.push((dims.collect(), aggs.collect()));
                })?;
                start = out.len();
            } else {
                for_each_row(env, fetcher, &nt, |row| {
                    let rowid = Schema::read_u64_at(row, rs.offset(0));
                    if keep(rowid) {
                        rowids.push(rowid);
                        let aggs = (0..y).map(|m| Schema::read_i64_at(row, rs.offset(1 + m)));
                        out.push((Vec::new(), aggs.collect()));
                    }
                })?;
            }
        }

        scan_cat(env, fetcher, &cat, &keep, &mut rowids, &mut out)?;

        // TT rows take their measures from the fact row too.
        tt_start = out.len();
        for tt in tts {
            let before = rowids.len();
            match (&tt, qualifier) {
                (NodeSource::Bitmap(bm), Some(q)) => rowids.extend(bm.intersect(q).iter()),
                (NodeSource::Bitmap(bm), None) => rowids.extend(bm.iter()),
                (src, _) => for_each_row(env, fetcher, src, |row| {
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
    cat: &NodeSource<'_>,
    keep: &impl Fn(u64) -> bool,
    rowids: &mut Vec<u64>,
    out: &mut Vec<CubeRow>,
) -> Result<()> {
    if matches!(cat, NodeSource::Absent) {
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
        (NodeSource::Bitmap(bm), CatFormat::CommonSource) => a_rowids.extend(bm.iter()),
        (src, CatFormat::CommonSource) => {
            for_each_row(env, fetcher, src, |row| a_rowids.push(Schema::read_u64_at(row, 0)))?
        }
        // A bitmap has no source row-ids, so `for_each_row` rejects it.
        (src, CatFormat::Coincidental) => {
            let a_off = src.schema().map_or(0, |rs| rs.offset(1));
            for_each_row(env, fetcher, src, |row| {
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

//! Reference-resolution engine shared by the exclusive and concurrent
//! cache-path queries.
//!
//! [`CureCube`](crate::cure_reader::CureCube) (single-threaded, `&mut
//! self`, plain [`BufferCache`](cure_storage::BufferCache)) and
//! [`ConcurrentCube`](crate::concurrent::ConcurrentCube) (thread-safe,
//! `&self`, [`SharedBufferCache`](cure_storage::SharedBufferCache))
//! answer node queries with identical semantics: resolve NT rows against
//! the fact table, CAT rows against `AGGREGATES`, and TT row-id lists
//! along the execution-plan path (§5.1). This module holds that logic
//! once. The two cube types differ only in *how rows are fetched* —
//! which cache, which counters, in which order — so fetching is
//! abstracted behind [`RowFetcher`] while everything else borrows
//! through the read-only [`ResolveEnv`].
//!
//! A query is one pass per relation ([`scan_node`]):
//!
//! * the node's stored relations come from its [`NodeRelations`] slots,
//!   opened on first use and kept for the handle's epoch, so a repeated
//!   query does no catalog probe, no open and no header read, and its
//!   pages keep the handle's checksum memo (no page is verified twice);
//! * every source (NT, CAT, each TT on the plan path) is scanned once to
//!   collect row-ids;
//! * all CAT references go to `AGGREGATES` in one
//!   [`RowFetcher::fetch_aggs`] call, and then every fact row-id of every
//!   source goes to the fact table in one [`RowFetcher::fetch_facts`]
//!   call.
//!
//! Rows are projected in source order afterwards, so the answer is the
//! same rows in the same order whichever order the fetcher reads the
//! relations in.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;

use cure_core::meta::CubeMeta;
use cure_core::sink::{
    cat_bitmap_name, cat_rel_name, nt_rel_name, tt_bitmap_name, tt_rel_name, CatFormat,
};
use cure_core::{CubeError, CubeSchema, NodeCoder, NodeId, PlanSpec, Result};
use cure_storage::{BitmapIndex, Catalog, HeapFile, Schema};

use crate::error::QueryError;
use crate::CubeRow;

/// Read-only view of everything resolution needs from an opened cube.
pub(crate) struct ResolveEnv<'e> {
    pub catalog: &'e Catalog,
    pub schema: &'e CubeSchema,
    pub meta: &'e CubeMeta,
    pub plan: &'e PlanSpec,
    pub coder: &'e NodeCoder,
    pub fact_schema: &'e Schema,
    pub aggregates: Option<&'e HeapFile>,
    pub relations: &'e NodeRelations,
}

/// How rows are fetched: the only behavioural difference between the
/// exclusive and concurrent paths.
pub(crate) trait RowFetcher {
    /// Fetch fact-table rows `rowids` into `buf` (row `i` at
    /// `buf[i * w..(i + 1) * w]`, `w` the fact row width), counting one
    /// fetch per row.
    fn fetch_facts(&mut self, rowids: &[u64], buf: &mut [u8]) -> Result<()>;

    /// Fetch `AGGREGATES` rows `rowids` of `agg` into `buf`, laid out as
    /// in [`fetch_facts`](Self::fetch_facts), counting one fetch per row.
    fn fetch_aggs(&mut self, agg: &HeapFile, rowids: &[u64], buf: &mut [u8]) -> Result<()>;
}

/// One stored source of a node's rows, as opened for a handle's epoch.
pub(crate) enum Source {
    /// The node stores no such relation or blob.
    Absent,
    /// An opened heap relation (NT, CAT or TT).
    Relation(HeapFile),
    /// A CURE+ row-id bitmap blob (CAT A-rowids or TT R-rowids), decoded.
    Bitmap(BitmapIndex),
}

/// The NT, CAT and TT slots of one lattice node.
#[derive(Default)]
struct NodeSlots {
    nt: OnceLock<Source>,
    cat: OnceLock<Source>,
    tt: OnceLock<Source>,
}

/// Per-epoch relation table: every node's stored sources, keyed by node
/// id and filled on first use.
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

impl<'e> ResolveEnv<'e> {
    /// Project the fact row in `buf` onto the node's grouped dimensions.
    pub fn project(&self, levels: &[usize], buf: &[u8]) -> Vec<u32> {
        self.schema
            .dims()
            .iter()
            .enumerate()
            .filter(|(d, _)| !self.coder.is_all(levels, *d))
            .map(|(d, dim)| {
                let leaf = Schema::read_u32_at(buf, self.fact_schema.offset(d));
                dim.value_at(levels[d], leaf)
            })
            .collect()
    }

    /// Decode the measure columns of the fact row in `buf`.
    pub fn measures_of(&self, buf: &[u8]) -> Vec<i64> {
        let d = self.schema.num_dims();
        (0..self.schema.num_measures())
            .map(|m| Schema::read_i64_at(buf, self.fact_schema.offset(d + m)))
            .collect()
    }

    /// Relation `name`, opened, or [`Source::Absent`].
    fn relation(&self, name: &str) -> Result<Source> {
        Ok(if self.catalog.exists(name) {
            Source::Relation(self.catalog.open_relation(name)?)
        } else {
            Source::Absent
        })
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
}

/// Resolve `node` into `out`: its NT rows, then its CAT rows, then (with
/// `with_tts`) the rows of each TT on its plan path, in that order.
///
/// With a `qualifier`, rows whose source row-id is not in it are dropped
/// before any fact fetch: NT and TT row-ids are membership-tested (TT
/// bitmaps intersected), and format-(b) CAT rows, which carry their
/// source row-id, are dropped before `AGGREGATES` is touched.
pub(crate) fn scan_node(
    env: &ResolveEnv<'_>,
    fetcher: &mut impl RowFetcher,
    node: NodeId,
    levels: &[usize],
    out: &mut Vec<CubeRow>,
    qualifier: Option<&BitmapIndex>,
    with_tts: bool,
) -> Result<()> {
    let y = env.schema.num_measures();
    let keep = |rowid: u64| qualifier.is_none_or(|q| q.contains(rowid));

    // CURE_DR NT rows hold their grouping values: they need no fetch.
    let nt = env.nt(node)?;
    if let (true, Source::Relation(rel)) = (env.meta.dr, nt) {
        let rs = rel.schema();
        let arity = env.coder.grouping_arity(levels);
        let mut scan = rel.scan();
        while let Some(row) = scan.next_row()? {
            let dims: Vec<u32> =
                (0..arity).map(|i| Schema::read_u32_at(row, rs.offset(i))).collect();
            let aggs: Vec<i64> =
                (0..y).map(|m| Schema::read_i64_at(row, rs.offset(arity + m))).collect();
            out.push((dims, aggs));
        }
    }

    // From here on, row `start + i` of `out` is fact row `rowids[i]`
    // projected: its grouping values are filled in after the one fact
    // fetch below.
    let start = out.len();
    let mut rowids: Vec<u64> = Vec::new();

    if let (false, Source::Relation(rel)) = (env.meta.dr, nt) {
        let rs = rel.schema();
        let mut scan = rel.scan();
        while let Some(row) = scan.next_row()? {
            let rowid = Schema::read_u64_at(row, rs.offset(0));
            if keep(rowid) {
                rowids.push(rowid);
                out.push((
                    Vec::new(),
                    (0..y).map(|m| Schema::read_i64_at(row, rs.offset(1 + m))).collect(),
                ));
            }
        }
    }

    let cat = env.cat(node)?;
    if !matches!(cat, Source::Absent) {
        scan_cat(env, fetcher, cat, &keep, &mut rowids, out)?;
    }

    // TT rows take their measures from the fact row too.
    let tt_start = out.len();
    if with_tts {
        for m in env.plan.path_to(node)? {
            let before = rowids.len();
            match env.tt(m)? {
                Source::Absent => continue,
                Source::Bitmap(bm) => match qualifier {
                    Some(q) => rowids.extend(bm.intersect(q).iter()),
                    None => rowids.extend(bm.iter()),
                },
                Source::Relation(rel) => {
                    let mut scan = rel.scan();
                    while let Some(row) = scan.next_row()? {
                        let rid = Schema::read_u64_at(row, 0);
                        if keep(rid) {
                            rowids.push(rid);
                        }
                    }
                }
            }
            let added = rowids.len() - before;
            out.extend(std::iter::repeat_with(|| (Vec::new(), Vec::new())).take(added));
        }
    }

    let w = env.fact_schema.row_width();
    let mut facts = vec![0u8; rowids.len() * w];
    fetcher.fetch_facts(&rowids, &mut facts)?;
    for (i, (row, fact)) in out[start..].iter_mut().zip(facts.chunks_exact(w)).enumerate() {
        row.0 = env.project(levels, fact);
        if start + i >= tt_start {
            row.1 = env.measures_of(fact);
        }
    }
    Ok(())
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
    let y = env.schema.num_measures();
    let format = env.meta.cat_format.ok_or_else(|| {
        CubeError::Schema("cube has a CAT relation but no CAT format in meta".into())
    })?;
    // `(source row-id if the CAT row carries it, A-rowid)`; format (b)
    // exposes the source row-id, so non-qualifying rows are dropped here
    // without touching AGGREGATES.
    let mut refs: Vec<(Option<u64>, u64)> = Vec::new();
    match cat {
        Source::Absent => return Ok(()),
        Source::Bitmap(bm) => refs.extend(bm.iter().map(|a| (None, a))),
        Source::Relation(rel) => {
            let rs = rel.schema();
            let mut scan = rel.scan();
            while let Some(row) = scan.next_row()? {
                match format {
                    CatFormat::CommonSource => {
                        refs.push((None, Schema::read_u64_at(row, rs.offset(0))));
                    }
                    CatFormat::Coincidental => {
                        let rowid = Schema::read_u64_at(row, rs.offset(0));
                        if keep(rowid) {
                            refs.push((Some(rowid), Schema::read_u64_at(row, rs.offset(1))));
                        }
                    }
                    CatFormat::AsNt => {
                        return Err(CubeError::Schema(
                            "AsNt format cannot have CAT relations".into(),
                        ))
                    }
                }
            }
        }
    }
    let aggregates = env
        .aggregates
        .ok_or_else(|| CubeError::Schema("CAT rows but no AGGREGATES relation".into()))?;
    let ags = aggregates.schema();
    let aw = ags.row_width();
    let a_rowids: Vec<u64> = refs.iter().map(|&(_, a)| a).collect();
    let mut agg_rows = vec![0u8; a_rowids.len() * aw];
    fetcher.fetch_aggs(aggregates, &a_rowids, &mut agg_rows)?;
    for (&(rowid_opt, _), agg_row) in refs.iter().zip(agg_rows.chunks_exact(aw)) {
        let (rowid, aggs) = match format {
            CatFormat::CommonSource => {
                let rowid = Schema::read_u64_at(agg_row, ags.offset(0));
                let aggs: Vec<i64> =
                    (0..y).map(|m| Schema::read_i64_at(agg_row, ags.offset(1 + m))).collect();
                (rowid, aggs)
            }
            CatFormat::Coincidental => {
                let aggs: Vec<i64> =
                    (0..y).map(|m| Schema::read_i64_at(agg_row, ags.offset(m))).collect();
                let rowid = rowid_opt.ok_or_else(|| {
                    QueryError::Malformed("format (b) CAT row without a source row-id".into())
                })?;
                (rowid, aggs)
            }
            // Rejected while loading the refs above.
            CatFormat::AsNt => {
                return Err(CubeError::Schema("AsNt format cannot have CAT rows".into()))
            }
        };
        if keep(rowid) {
            rowids.push(rowid);
            out.push((Vec::new(), aggs));
        }
    }
    Ok(())
}

//! Incremental cube updates — the paper's §8 future work, implemented.
//!
//! "We will further study incremental updating for redundant tuples in
//! CURE cubes. Our initial investigation has resulted in efficient methods
//! for updating NTs and TTs, and we are currently working on CATs."
//!
//! [`update_cube`] merges a **delta batch** of new fact tuples into an
//! existing cube *without re-processing the original fact table*: the only
//! inputs are the stored cube (read back through its own relations) and
//! the delta. The interesting part is class transitions:
//!
//! * an existing **TT** whose group is hit by a delta tuple stops being
//!   trivial at that node — but may *remain* trivial deeper in the plan
//!   subtree where the delta does not follow it. The updater walks the
//!   execution-plan tree depth-first, carrying the set of row-ids already
//!   re-established as TTs on the current path, so each trivial tuple is
//!   again stored exactly once at its (possibly new, more detailed) least
//!   detailed node;
//! * an existing **NT/CAT** group hit by a delta group keeps its class
//!   family (its count was already ≥ 2) with summed aggregates;
//! * delta-only groups classify exactly like in a fresh build.
//!
//! All non-trivial tuples are re-classified through a fresh
//! [`SignaturePool`], which re-detects CATs across old and new data — so
//! unlike the paper's work-in-progress, CAT updating falls out of the
//! design for free.
//!
//! The merged cube is written under a **new prefix** (immutable-update
//! style); the caller can drop the old relations afterwards.
//!
//! **Cost.** Classification needs the leaf values of every row-id the old
//! cube stores. The walk reads the fact relation (which already holds the
//! delta) once, sequentially, into two dense columns indexed by row-id:
//! leaf values and measures, `|R|·(4d + 8y)` bytes. Each old node's
//! relations are then read once, in stored order, into reused buffers,
//! and each stored row-id is projected into one reused key buffer that
//! probes the node's delta map; old TTs inherited already covered are
//! not probed. Carrying an old group therefore costs no heap allocation,
//! and the walk is `O(|R| + cube size + |delta| · nodes)`, the `|R|` term
//! being one sequential scan.
//!
//! The walk runs on `threads` workers: the plan forest is cut into
//! subtrees of at most `1/(4·threads)` of the old cube's rows, each
//! walked into a log of its TT writes and pool pushes, and the calling
//! thread replays the logs in DFS order into the one pool and sink. The
//! final pool flush sorts every signature in place on the same `threads`
//! ([`SignaturePool::flush_on`]) and classifies and writes them on the
//! calling thread, so the serial share is the fact scan, the replay and
//! that classify-and-write; the stored bytes do not depend on `threads`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use cure_storage::hash::FxHashMap;
use cure_storage::{BitmapIndex, BufferCache, Catalog, HeapFile, Schema, Segment, StorageError};

use crate::aggfn::AggFn;
use crate::cube::CubeConfig;
use crate::error::{CubeError, Result};
use crate::hierarchy::{CubeSchema, LevelIdx};
use crate::lattice::{NodeCoder, NodeId};
use crate::meta::CubeMeta;
use crate::ordered::run_ordered;
use crate::plan::PlanSpec;
use crate::reference;
use crate::signature::SignaturePool;
use crate::sink::{CatFormat, CubeSink};
use crate::tuples::Tuples;

/// Statistics of an incremental update.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Nodes visited (always the full lattice).
    pub nodes: u64,
    /// Existing TTs that lost trivial status at some node (were re-placed
    /// deeper or became NT/CAT).
    pub tt_demotions: u64,
    /// Groups merged from both old cube and delta.
    pub merged_groups: u64,
    /// Groups taken unchanged from the old cube.
    pub carried_groups: u64,
    /// Groups introduced by the delta alone.
    pub new_groups: u64,
}

impl UpdateReport {
    fn add(&mut self, o: &UpdateReport) {
        self.nodes += o.nodes;
        self.tt_demotions += o.tt_demotions;
        self.merged_groups += o.merged_groups;
        self.carried_groups += o.carried_groups;
        self.new_groups += o.new_groups;
    }
}

/// The fact relation as two dense columns indexed by row-id: `d` leaf
/// dimension values and `y` measures per row.
struct FactColumns {
    rows: u64,
    d: usize,
    y: usize,
    leaf: Vec<u32>,
    measures: Vec<i64>,
}

impl FactColumns {
    /// Fill the columns with one sequential, CRC-verified scan.
    fn load(fact: &HeapFile, d: usize, y: usize) -> Result<Self> {
        let fs = fact.schema();
        if fs.arity() != d + y {
            return Err(CubeError::Schema(format!(
                "fact relation has {} columns, expected {}",
                fs.arity(),
                d + y
            )));
        }
        let n = fact.num_rows() as usize;
        let mut leaf = Vec::with_capacity(n * d);
        let mut measures = Vec::with_capacity(n * y);
        let rows = fact.for_each_row(|_, row| {
            leaf.extend((0..d).map(|i| Schema::read_u32_at(row, fs.offset(i))));
            measures.extend((0..y).map(|m| Schema::read_i64_at(row, fs.offset(d + m))));
        })?;
        Ok(FactColumns { rows, d, y, leaf, measures })
    }

    /// Position of `rowid`; a typed error when the relation does not hold
    /// it (a damaged cube, or a delta that was never appended).
    fn index(&self, rowid: u64) -> Result<usize> {
        if rowid < self.rows {
            Ok(rowid as usize)
        } else {
            Err(StorageError::RowOutOfBounds { rowid, num_rows: self.rows }.into())
        }
    }

    fn leaf(&self, rowid: u64) -> Result<&[u32]> {
        let i = self.index(rowid)?;
        Ok(&self.leaf[i * self.d..(i + 1) * self.d])
    }

    fn measures(&self, rowid: u64) -> Result<&[i64]> {
        let i = self.index(rowid)?;
        Ok(&self.measures[i * self.y..(i + 1) * self.y])
    }
}

/// Projects leaf tuples onto one node's grouping values (its non-ALL
/// dimensions, in dimension order) through one reused key buffer.
struct Projector<'s> {
    schema: &'s CubeSchema,
    grouped: Vec<(usize, LevelIdx)>,
    key: Vec<u32>,
}

impl<'s> Projector<'s> {
    fn new(schema: &'s CubeSchema) -> Self {
        Projector { schema, grouped: Vec::new(), key: Vec::new() }
    }

    fn set_node(&mut self, coder: &NodeCoder, levels: &[LevelIdx]) {
        self.grouped.clear();
        self.grouped.extend(
            (0..self.schema.num_dims())
                .filter(|&d| !coder.is_all(levels, d))
                .map(|d| (d, levels[d])),
        );
    }

    fn key(&mut self, leaf: &[u32]) -> &[u32] {
        let dims = self.schema.dims();
        self.key.clear();
        self.key.extend(self.grouped.iter().map(|&(d, l)| dims[d].value_at(l, leaf[d])));
        &self.key
    }
}

/// `out = a ⊕ b` under the schema's aggregate functions, in a reused buffer.
fn merge_into(out: &mut Vec<i64>, fns: &[AggFn], a: &[i64], b: &[i64]) {
    out.clear();
    out.extend_from_slice(a);
    AggFn::merge_all(fns, out, b);
}

/// Read-back of an existing cube, shared read-only by every walker: its
/// node relations through its segment's directory, its fact rows through
/// dense [`FactColumns`]. Each node's contents are split into non-trivial
/// groups and the TT row-ids stored *at* the node (not the shared ones
/// from ancestors — those are carried by the DFS).
struct OldCube<'a> {
    catalog: &'a Catalog,
    meta: CubeMeta,
    /// The old cube's segment: every node relation, opened once.
    segment: Segment,
    y: usize,
    facts: FactColumns,
    aggregates: Option<HeapFile>,
}

/// One walker's private read state over an [`OldCube`].
struct NodeReader {
    /// Page LRU for the `AGGREGATES` fetches behind CAT rows; each node's
    /// references are sorted into `AGGREGATES` order, so a small cache
    /// absorbs almost every repeated page read.
    pages: BufferCache,
    agg_buf: Vec<u8>,
    /// A node's CAT references: (fact row-id when the CAT row holds it,
    /// `AGGREGATES` row-id).
    cat_refs: Vec<(Option<u64>, u64)>,
}

impl<'a> OldCube<'a> {
    fn open(catalog: &'a Catalog, schema: &CubeSchema, prefix: &str) -> Result<Self> {
        let meta = CubeMeta::read(catalog, prefix)?;
        if meta.dr {
            return Err(CubeError::Config(
                "incremental update of CURE_DR cubes is not supported (NT rows lack row-ids)"
                    .into(),
            ));
        }
        if meta.min_support != 1 {
            return Err(CubeError::Config(
                "incremental update requires a complete (non-iceberg) cube".into(),
            ));
        }
        let y = schema.num_measures();
        let facts =
            FactColumns::load(&catalog.open_relation(&meta.fact_rel)?, schema.num_dims(), y)?;
        let agg_name = crate::sink::aggregates_rel_name(prefix);
        let aggregates =
            if catalog.exists(&agg_name) { Some(catalog.open_relation(&agg_name)?) } else { None };
        Ok(OldCube { catalog, segment: catalog.open_segment(prefix)?, meta, y, facts, aggregates })
    }

    fn reader(&self) -> NodeReader {
        NodeReader {
            pages: BufferCache::new(1024),
            agg_buf: vec![0u8; self.aggregates.as_ref().map_or(0, |a| a.schema().row_width())],
            cat_refs: Vec::new(),
        }
    }

    /// The rows the old cube stores at `node` (NT + CAT + TT relation
    /// rows, from the segment's directory): the walk's unit of weight.
    fn weight(&self, node: NodeId) -> u64 {
        let (dir, prefix) = (self.segment.directory(), &self.meta.prefix);
        [
            crate::sink::nt_rel_name(prefix, node),
            crate::sink::cat_rel_name(prefix, node),
            crate::sink::tt_rel_name(prefix, node),
        ]
        .iter()
        .filter_map(|name| dir.get(name))
        .map(|e| e.rows())
        .sum()
    }

    /// The node's non-trivial groups in stored order — NT rows, then CAT
    /// rows in `AGGREGATES` order — as their row-ids and flat aggregates
    /// (`y` per group). Non-trivial groups are unique per key in a node.
    fn non_trivial_groups(
        &self,
        rd: &mut NodeReader,
        node: NodeId,
        rowids: &mut Vec<u64>,
        aggs: &mut Vec<i64>,
    ) -> Result<()> {
        rowids.clear();
        aggs.clear();
        let y = self.y;
        let dir = self.segment.directory();
        if let Some(nt) = dir.get(&crate::sink::nt_rel_name(&self.meta.prefix, node)) {
            let rs = &nt.schema;
            self.segment.for_each_row(nt, any_page, |row| {
                rowids.push(Schema::read_u64_at(row, rs.offset(0)));
                aggs.extend((0..y).map(|m| Schema::read_i64_at(row, rs.offset(1 + m))));
            })?;
        }
        // CAT rows (CURE+ format-(a) cubes store them as bitmap blobs).
        let cat = dir.get(&crate::sink::cat_rel_name(&self.meta.prefix, node));
        let cat_bm_name = crate::sink::cat_bitmap_name(&self.meta.prefix, node);
        let bitmap_cats = self.meta.plus && self.catalog.blob_exists(&cat_bm_name);
        if !bitmap_cats && cat.is_none() {
            return Ok(());
        }
        let format = self
            .meta
            .cat_format
            .ok_or_else(|| CubeError::Schema("CAT relation without a format in meta".into()))?;
        // Format (a) stores the fact row-id in AGGREGATES, format (b) in
        // the node's CAT row.
        let first_agg = match format {
            CatFormat::CommonSource => 1,
            CatFormat::Coincidental => 0,
            CatFormat::AsNt => return Err(CubeError::Schema("AsNt cube has CAT relations".into())),
        };
        let aggrel = self
            .aggregates
            .as_ref()
            .ok_or_else(|| CubeError::Schema("CAT rows but no AGGREGATES".into()))?;
        let refs = &mut rd.cat_refs;
        refs.clear();
        if bitmap_cats {
            let bm = BitmapIndex::from_bytes(&self.catalog.read_blob(&cat_bm_name)?)?;
            refs.extend(bm.iter().map(|a| (None, a)));
        } else if let Some(cat) = cat {
            let rs = &cat.schema;
            self.segment.for_each_row(cat, any_page, |row| {
                refs.push(match format {
                    CatFormat::Coincidental => (
                        Some(Schema::read_u64_at(row, rs.offset(0))),
                        Schema::read_u64_at(row, rs.offset(1)),
                    ),
                    _ => (None, Schema::read_u64_at(row, rs.offset(0))),
                });
            })?;
        }
        // Ascending AGGREGATES order keeps the fetches page-local.
        refs.sort_unstable_by_key(|r| r.1);
        let ars = aggrel.schema();
        let buf = &mut rd.agg_buf;
        for &(cat_rowid, a_rowid) in refs.iter() {
            aggrel.fetch_cached(a_rowid, &mut rd.pages, buf)?;
            let rowid = match (format, cat_rowid) {
                (CatFormat::CommonSource, _) => Schema::read_u64_at(buf, ars.offset(0)),
                (_, Some(rowid)) => rowid,
                (_, None) => {
                    return Err(CubeError::Schema(format!(
                        "node {node}: format (b) CAT reference to AGGREGATES row {a_rowid} \
                         carries no fact row-id"
                    )))
                }
            };
            rowids.push(rowid);
            aggs.extend((0..y).map(|m| Schema::read_i64_at(buf, ars.offset(first_agg + m))));
        }
        Ok(())
    }

    /// The TT row-ids stored at `node`.
    fn own_tts(&self, node: NodeId, out: &mut Vec<u64>) -> Result<()> {
        out.clear();
        if self.meta.plus {
            let name = crate::sink::tt_bitmap_name(&self.meta.prefix, node);
            if self.catalog.blob_exists(&name) {
                out.extend(BitmapIndex::from_bytes(&self.catalog.read_blob(&name)?)?.iter());
            }
            return Ok(());
        }
        let name = crate::sink::tt_rel_name(&self.meta.prefix, node);
        if let Some(tt) = self.segment.directory().get(&name) {
            self.segment.for_each_row(tt, any_page, |row| out.push(Schema::read_u64_at(row, 0)))?;
        }
        Ok(())
    }
}

/// The per-page check of the walk's segment scans: none, since a merge
/// reads the whole old cube.
fn any_page(_page: u64) -> Result<()> {
    Ok(())
}

/// Where a walk's output goes: the two calls whose order fixes the
/// merged cube's bytes.
trait Emit {
    /// Store `rowid` as a trivial tuple of `node`.
    fn tt(&mut self, node: NodeId, rowid: u64) -> Result<()>;
    /// Defer a non-trivial group to the signature pool.
    fn push(&mut self, aggs: &[i64], rowid: u64, node: NodeId) -> Result<()>;
}

/// The real output: the one signature pool and the sink behind it.
struct Direct<'p, 's> {
    pool: &'p mut SignaturePool,
    sink: &'s mut dyn CubeSink,
}

impl Emit for Direct<'_, '_> {
    fn tt(&mut self, node: NodeId, rowid: u64) -> Result<()> {
        self.sink.write_tt(node, rowid)
    }

    fn push(&mut self, aggs: &[i64], rowid: u64, node: NodeId) -> Result<()> {
        self.pool.push(self.sink, aggs, rowid, node)
    }
}

/// One logged [`Emit`] call; a push's aggregates live in [`WalkLog::aggs`].
enum Op {
    Tt { node: NodeId, rowid: u64 },
    Push { node: NodeId, rowid: u64 },
}

/// A walk's output recorded in call order, for replay on the merger.
#[derive(Default)]
struct WalkLog {
    ops: Vec<Op>,
    /// Flat aggregates of the pushes, `y` each, in push order.
    aggs: Vec<i64>,
    report: UpdateReport,
}

impl Emit for WalkLog {
    fn tt(&mut self, node: NodeId, rowid: u64) -> Result<()> {
        self.ops.push(Op::Tt { node, rowid });
        Ok(())
    }

    fn push(&mut self, aggs: &[i64], rowid: u64, node: NodeId) -> Result<()> {
        self.ops.push(Op::Push { node, rowid });
        self.aggs.extend_from_slice(aggs);
        Ok(())
    }
}

impl WalkLog {
    /// Make every logged call on `out`, in order.
    fn replay(&self, out: &mut impl Emit, y: usize) -> Result<()> {
        let mut at = 0;
        for op in &self.ops {
            match *op {
                Op::Tt { node, rowid } => out.tt(node, rowid)?,
                Op::Push { node, rowid } => {
                    out.push(&self.aggs[at..at + y], rowid, node)?;
                    at += y;
                }
            }
        }
        Ok(())
    }
}

/// A tuple stored as a TT on the current DFS path (at this node or an
/// ancestor); its leaf values and measures come from the fact columns.
#[derive(Clone)]
struct PathTt {
    rowid: u64,
    /// Whether a TT row for this tuple has been written at an ancestor
    /// (then the whole subtree is covered and, because key collisions
    /// propagate upward, no deeper delta collision is possible).
    covered: bool,
}

/// How to restore the path TTs when leaving a node's subtree: pop the
/// `established` entries it added and uncover the inherited entries it
/// covered.
struct Leave {
    established: usize,
    covered_here: Vec<usize>,
}

impl Leave {
    fn undo(self, path: &mut Vec<PathTt>) {
        path.truncate(path.len() - self.established);
        for i in self.covered_here {
            path[i].covered = false;
        }
    }
}

/// Everything a walker reads and nothing it writes: shared by reference
/// between the calling thread and the workers.
struct WalkCtx<'a> {
    schema: &'a CubeSchema,
    coder: NodeCoder,
    old: OldCube<'a>,
    delta: &'a Tuples,
    /// The lowest delta row-id (`u64::MAX` for an empty delta). Every old
    /// TT lies below it, because the delta was appended after the rows
    /// the old cube stores.
    delta_first: u64,
    children: FxHashMap<Option<NodeId>, Vec<NodeId>>,
}

impl WalkCtx<'_> {
    fn children(&self, node: Option<NodeId>) -> &[NodeId] {
        self.children.get(&node).map_or(&[], Vec::as_slice)
    }

    fn walker(&self) -> Walker<'_> {
        Walker {
            ctx: self,
            rd: self.old.reader(),
            own_tts: Vec::new(),
            group_rowids: Vec::new(),
            group_aggs: Vec::new(),
            merged: Vec::with_capacity(self.old.y),
            proj: Projector::new(self.schema),
            report: UpdateReport::default(),
        }
    }
}

/// Merges the delta into plan subtrees of the old cube, node by node.
/// Its buffers are reused by every node it visits, so carrying a group
/// allocates nothing.
struct Walker<'c> {
    ctx: &'c WalkCtx<'c>,
    rd: NodeReader,
    own_tts: Vec<u64>,
    group_rowids: Vec<u64>,
    group_aggs: Vec<i64>,
    merged: Vec<i64>,
    proj: Projector<'c>,
    report: UpdateReport,
}

impl Walker<'_> {
    /// Walk the plan subtree under `root` depth-first into `out`, starting
    /// from the path TTs in `path` and leaving `path` as it found it.
    fn walk(&mut self, root: NodeId, path: &mut Vec<PathTt>, out: &mut impl Emit) -> Result<()> {
        enum Step {
            Enter(NodeId),
            Leave(Leave),
        }
        let mut stack = vec![Step::Enter(root)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Leave(leave) => leave.undo(path),
                Step::Enter(node) => {
                    let leave = self.visit(node, path, out)?;
                    stack.push(Step::Leave(leave));
                    stack.extend(
                        self.ctx.children(Some(node)).iter().rev().map(|&c| Step::Enter(c)),
                    );
                }
            }
        }
        Ok(())
    }

    /// Merge the delta into one node, extending `path` with the TTs it
    /// establishes; the returned [`Leave`] undoes that.
    fn visit(
        &mut self,
        node: NodeId,
        path: &mut Vec<PathTt>,
        out: &mut impl Emit,
    ) -> Result<Leave> {
        let ctx = self.ctx;
        let (fns, y) = (ctx.schema.agg_fns(), ctx.old.y);
        let levels = ctx.coder.decode(node)?;
        self.proj.set_node(&ctx.coder, &levels);
        self.report.nodes += 1;

        // Delta groups of this node, keyed by grouping values.
        let mut delta_map: FxHashMap<Vec<u32>, reference::GroupRow> = FxHashMap::default();
        for mut g in reference::compute_node(ctx.schema, ctx.delta, &levels) {
            delta_map.insert(std::mem::take(&mut g.dims), g);
        }
        // Old non-trivial groups and own TTs.
        ctx.old.non_trivial_groups(
            &mut self.rd,
            node,
            &mut self.group_rowids,
            &mut self.group_aggs,
        )?;
        ctx.old.own_tts(node, &mut self.own_tts)?;
        let facts = &ctx.old.facts;
        let (proj, merged, report) = (&mut self.proj, &mut self.merged, &mut self.report);

        // 1. Old TTs stored at this node: collision check against delta.
        //
        // A collision here demotes the tuple to a non-trivial group *at
        // this node* (its merged row is written), but its trivial status
        // may resurface deeper in the subtree where the delta diverges —
        // the tuple is carried on the path as *uncovered* and step 2
        // re-establishes its TT at the topmost divergence point of each
        // branch.
        let mut established = 0usize;
        for &rowid in &self.own_tts {
            match delta_map.remove(proj.key(facts.leaf(rowid)?)) {
                Some(dg) => {
                    report.tt_demotions += 1;
                    merge_into(merged, fns, facts.measures(rowid)?, &dg.aggs);
                    out.push(merged, rowid.min(dg.min_rowid), node)?;
                    report.merged_groups += 1;
                    path.push(PathTt { rowid, covered: false });
                }
                None => {
                    // Still trivial at this node: keep as TT and share below.
                    out.tt(node, rowid)?;
                    report.carried_groups += 1;
                    path.push(PathTt { rowid, covered: true });
                }
            }
            established += 1;
        }

        // 2. Uncovered path TTs (demoted at an ancestor): either the delta
        // keeps colliding here (merged row, still uncovered) or it has
        // diverged (this is the least detailed node where the tuple is
        // trivial again → write its TT and cover the subtree). Covered
        // entries need nothing: a collision below a TT-covered node is
        // impossible because equal keys at a finer node imply equal keys
        // at every coarser one.
        let inherited = path.len() - established;
        let mut covered_here: Vec<usize> = Vec::new();
        for (i, t) in path[..inherited].iter_mut().enumerate() {
            if t.covered {
                // A covered *old* TT cannot be hit by the delta here
                // (collisions propagate upward and were ruled out at the
                // covering node), so it is not even probed. A covered
                // *delta* TT, however, still appears in this node's
                // freshly computed delta groups — the removal consumes it
                // so step 4 does not store it twice.
                if t.rowid < ctx.delta_first {
                    continue;
                }
                if let Some(dg) = delta_map.remove(proj.key(facts.leaf(t.rowid)?)) {
                    debug_assert_eq!(dg.count, 1, "covered TT group must stay trivial");
                    debug_assert_eq!(dg.min_rowid, t.rowid);
                }
                continue;
            }
            match delta_map.remove(proj.key(facts.leaf(t.rowid)?)) {
                Some(dg) => {
                    merge_into(merged, fns, facts.measures(t.rowid)?, &dg.aggs);
                    out.push(merged, t.rowid.min(dg.min_rowid), node)?;
                    report.merged_groups += 1;
                }
                None => {
                    // Divergence point: re-establish the TT for this subtree.
                    out.tt(node, t.rowid)?;
                    t.covered = true;
                    covered_here.push(i);
                }
            }
        }

        // 3. Old non-trivial groups: merge with delta where keys match.
        for (j, &rowid) in self.group_rowids.iter().enumerate() {
            let aggs = &self.group_aggs[j * y..(j + 1) * y];
            match delta_map.remove(proj.key(facts.leaf(rowid)?)) {
                Some(dg) => {
                    merge_into(merged, fns, aggs, &dg.aggs);
                    out.push(merged, rowid.min(dg.min_rowid), node)?;
                    report.merged_groups += 1;
                }
                None => {
                    out.push(aggs, rowid, node)?;
                    report.carried_groups += 1;
                }
            }
        }

        // 4. Remaining delta-only groups.
        for (_, dg) in delta_map.drain() {
            if dg.count == 1 {
                // New trivial tuple: store here; shared with the subtree.
                // Its row must already be in the fact relation.
                facts.index(dg.min_rowid)?;
                out.tt(node, dg.min_rowid)?;
                path.push(PathTt { rowid: dg.min_rowid, covered: true });
                established += 1;
            } else {
                out.push(&dg.aggs, dg.min_rowid, node)?;
            }
            report.new_groups += 1;
        }
        Ok(Leave { established, covered_here })
    }
}

/// A plan subtree walked on a worker, entered with a copy of the path TTs
/// at its root. `before` holds what the calling thread logged while
/// visiting the split roots above it, which precede the subtree in DFS
/// order.
struct Unit {
    root: NodeId,
    path: Vec<PathTt>,
    before: WalkLog,
}

/// Cut the plan subtree under `node` into [`Unit`]s of at most `limit`
/// weight, in DFS order. A heavier subtree is split: its root is visited
/// on the calling thread (logged into `pending`, which the next unit
/// takes as its `before`) and each child becomes a unit or is split in
/// turn.
fn plan_units(
    walker: &mut Walker<'_>,
    node: NodeId,
    path: &mut Vec<PathTt>,
    weights: &FxHashMap<NodeId, u64>,
    limit: u64,
    pending: &mut WalkLog,
    units: &mut Vec<Unit>,
) -> Result<()> {
    let children = walker.ctx.children(Some(node));
    if weights.get(&node).copied().unwrap_or(0) <= limit || children.is_empty() {
        units.push(Unit { root: node, path: path.clone(), before: std::mem::take(pending) });
        return Ok(());
    }
    let leave = walker.visit(node, path, pending)?;
    for &child in children {
        plan_units(walker, child, path, weights, limit, pending, units)?;
    }
    leave.undo(path);
    Ok(())
}

/// Merge `delta` into the cube stored under `old_prefix`, writing the
/// merged cube through `sink` (typically a [`DiskSink`](crate::sink::DiskSink)
/// with a new prefix).
///
/// The plan walk runs on `threads` workers; `1` runs it on the calling
/// thread. The calls made on `sink`, and so the stored bytes, are the
/// same at every thread count.
///
/// Preconditions:
/// * `delta` tuples carry the row-ids they received when appended to the
///   fact relation (i.e. starting at the old relation's `num_rows()`);
///   the fact relation must already contain them (NT/TT references into
///   it must resolve).
/// * The old cube must be a complete (non-iceberg), non-DR cube.
///
/// A stored row-id the fact relation does not hold is a typed
/// [`CubeError`], never a panic.
pub fn update_cube(
    catalog: &Catalog,
    schema: &CubeSchema,
    old_prefix: &str,
    delta: &Tuples,
    cfg: &CubeConfig,
    sink: &mut dyn CubeSink,
    threads: usize,
) -> Result<UpdateReport> {
    let old = OldCube::open(catalog, schema, old_prefix)?;
    let plan = match old.meta.partition_level {
        None => PlanSpec::new(schema),
        Some(l) => PlanSpec::partitioned(schema, l)?,
    };
    let tree = plan.build_tree();
    let mut children: FxHashMap<Option<NodeId>, Vec<NodeId>> = FxHashMap::default();
    for &n in &tree.order {
        children.entry(tree.parent[&n]).or_default().push(n);
    }
    let ctx = WalkCtx {
        schema,
        coder: NodeCoder::new(schema),
        delta_first: (0..delta.len()).map(|i| delta.rowid(i)).min().unwrap_or(u64::MAX),
        old,
        delta,
        children,
    };
    let y = ctx.old.y;
    let mut pool = SignaturePool::new(y, cfg.pool_capacity, cfg.cat_policy);
    let mut out = Direct { pool: &mut pool, sink };
    let roots = ctx.children(None);
    let mut walker = ctx.walker();

    if threads <= 1 {
        // The reference walk: every call goes straight to the pool and sink.
        for &root in roots {
            walker.walk(root, &mut Vec::new(), &mut out)?;
        }
    } else {
        // Subtree weights: `tree.order` lists parents before children.
        let mut weights: FxHashMap<NodeId, u64> = FxHashMap::default();
        for &n in tree.order.iter().rev() {
            let w =
                ctx.old.weight(n) + ctx.children(Some(n)).iter().map(|c| weights[c]).sum::<u64>();
            weights.insert(n, w);
        }
        let total: u64 = roots.iter().map(|r| weights[r]).sum();
        let limit = total / (4 * threads as u64);
        let mut units = Vec::new();
        let mut pending = WalkLog::default();
        for &root in roots {
            plan_units(
                &mut walker,
                root,
                &mut Vec::new(),
                &weights,
                limit,
                &mut pending,
                &mut units,
            )?;
        }
        run_ordered(
            0..units.len(),
            threads,
            || {
                let mut w = ctx.walker();
                let units = &units;
                move |i: usize| {
                    let unit = &units[i];
                    let mut log = WalkLog::default();
                    w.walk(unit.root, &mut unit.path.clone(), &mut log)?;
                    log.report = std::mem::take(&mut w.report);
                    Ok(log)
                }
            },
            |i, log: WalkLog| {
                units[i].before.replay(&mut out, y)?;
                log.replay(&mut out, y)?;
                walker.report.add(&log.report);
                Ok(())
            },
        )?;
        // A root is split only when it has children, and the first of
        // them takes the pending log, so none is left over.
        debug_assert!(pending.ops.is_empty());
    }
    let Direct { pool, sink } = out;
    pool.flush_on(sink, threads)?;
    sink.finish()?;
    Ok(walker.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeBuilder;
    use crate::hierarchy::Dimension;
    use crate::reader::MemCubeReader;
    use crate::sink::{DiskSink, MemSink};

    fn fresh_catalog(tag: &str) -> Catalog {
        Catalog::open(cure_storage::scratch::scratch_dir(&format!("update_{tag}"))).unwrap()
    }

    fn schema() -> CubeSchema {
        let a = Dimension::linear("A", 20, &[(0..20).map(|v| v / 5).collect()]).unwrap();
        let b = Dimension::linear("B", 12, &[(0..12).map(|v| v / 4).collect()]).unwrap();
        let c = Dimension::flat("C", 5);
        CubeSchema::new(vec![a, b, c], 2).unwrap()
    }

    fn make_tuples(schema: &CubeSchema, n: usize, seed: u64, rowid_base: u64) -> Tuples {
        let d = schema.num_dims();
        let y = schema.num_measures();
        let mut t = Tuples::new(d, y);
        let mut x = seed | 1;
        let mut dims = vec![0u32; d];
        let mut aggs = vec![0i64; y];
        for i in 0..n {
            for (j, v) in dims.iter_mut().enumerate() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = (x % schema.dims()[j].leaf_cardinality() as u64) as u32;
            }
            for a in aggs.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *a = (x % 25) as i64;
            }
            t.push(&dims, &aggs, 1, rowid_base + i as u64);
        }
        t
    }

    fn concat(parts: &[&Tuples]) -> Tuples {
        let mut all = Tuples::new(parts[0].n_dims(), parts[0].n_measures());
        for src in parts {
            for i in 0..src.len() {
                all.push(src.dims_of(i), src.aggs_of(i), 1, src.rowid(i));
            }
        }
        all
    }

    fn meta(prefix: &str, plus: bool, cat_format: Option<CatFormat>) -> CubeMeta {
        CubeMeta {
            prefix: prefix.into(),
            fact_rel: "facts".into(),
            n_dims: 3,
            n_measures: 2,
            dr: false,
            plus,
            cat_format,
            partition_level: None,
            min_support: 1,
        }
    }

    /// Store `base` as relation `facts` and build a cube of it on disk
    /// under `prefix`, meta included. Returns the open fact heap, for
    /// appending a delta.
    fn build_old(
        catalog: &Catalog,
        schema: &CubeSchema,
        base: &Tuples,
        prefix: &str,
        plus: bool,
    ) -> HeapFile {
        let mut heap =
            catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
        base.store_fact(&mut heap).unwrap();
        let mut sink = DiskSink::new(catalog, prefix, schema, false, plus, None).unwrap();
        let report = CubeBuilder::new(schema, CubeConfig::default())
            .build_in_memory(base, &mut sink)
            .unwrap();
        meta(prefix, plus, report.stats.cat_format).write(catalog).unwrap();
        heap
    }

    /// Every node of `sink`'s cube equals the oracle over `facts`.
    fn assert_matches_oracle(
        schema: &CubeSchema,
        sink: &MemSink,
        facts: &Tuples,
        level: Option<usize>,
        tag: &str,
    ) {
        let reader = MemCubeReader::new(schema, sink, facts, level).unwrap();
        let coder = NodeCoder::new(schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).unwrap();
            got.sort();
            let levels = coder.decode(id).unwrap();
            let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(schema, facts, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect();
            assert_eq!(got, want, "{tag}: node {} ({})", id, coder.name(schema, id));
        }
    }

    /// Build base → update with delta → compare against a fresh oracle of
    /// the combined data, node by node.
    fn check_update(n_base: usize, n_delta: usize, seed: u64, tag: &str) {
        let catalog = fresh_catalog(tag);
        let schema = schema();
        let base = make_tuples(&schema, n_base, seed, 0);
        let delta = make_tuples(&schema, n_delta, seed.wrapping_mul(31) + 7, n_base as u64);
        let cfg = CubeConfig::default();
        let mut heap = build_old(&catalog, &schema, &base, "old_", false);
        // Append the delta to the fact relation (row-ids continue).
        delta.store_fact(&mut heap).unwrap();
        drop(heap);

        for threads in [1, 4] {
            let mut new_sink = MemSink::new(2);
            let up = update_cube(&catalog, &schema, "old_", &delta, &cfg, &mut new_sink, threads)
                .unwrap();
            assert_eq!(up.nodes, NodeCoder::new(&schema).num_nodes());
            let tag = format!("{tag}, {threads} threads");
            assert_matches_oracle(&schema, &new_sink, &concat(&[&base, &delta]), None, &tag);
        }
    }

    #[test]
    fn update_matches_full_rebuild_small_delta() {
        check_update(800, 50, 11, "small");
    }

    #[test]
    fn update_matches_full_rebuild_large_delta() {
        check_update(400, 400, 23, "large");
    }

    #[test]
    fn update_with_empty_delta_reproduces_cube() {
        check_update(500, 0, 5, "empty");
    }

    #[test]
    fn update_into_empty_cube_equals_fresh_build() {
        check_update(0, 300, 9, "fromscratch");
    }

    #[test]
    fn repeated_updates_accumulate() {
        // base + delta1 via update, then treat the merged MemSink as the
        // semantic target for base+delta1+delta2 computed by two chained
        // oracle checks (each check is independent; chaining disk rewrites
        // is exercised in the example).
        check_update(300, 100, 77, "chain1");
        check_update(400, 100, 78, "chain2");
    }

    #[test]
    fn chained_disk_updates_stay_correct() {
        // v1 (fresh build) → v2 (update) → v3 (update of the update):
        // exercises update_cube reading a cube that update_cube wrote,
        // including CAT references into the rewritten AGGREGATES.
        let catalog = fresh_catalog("chained");
        let schema = schema();
        let b0 = make_tuples(&schema, 500, 61, 0);
        let b1 = make_tuples(&schema, 120, 62, 500);
        let b2 = make_tuples(&schema, 120, 63, 620);
        let cfg = CubeConfig::default();
        let mut heap = build_old(&catalog, &schema, &b0, "v1_", false);

        b1.store_fact(&mut heap).unwrap();
        let mut s2 = DiskSink::new(&catalog, "v2_", &schema, false, false, None).unwrap();
        update_cube(&catalog, &schema, "v1_", &b1, &cfg, &mut s2, 1).unwrap();
        meta("v2_", false, s2.cat_format()).write(&catalog).unwrap();

        b2.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut s3 = MemSink::new(2);
        update_cube(&catalog, &schema, "v2_", &b2, &cfg, &mut s3, 1).unwrap();
        assert_matches_oracle(&schema, &s3, &concat(&[&b0, &b1, &b2]), None, "chained");
    }

    #[test]
    fn update_over_cure_plus_cube() {
        // The old cube stores TTs as bitmaps; own_tts must read them back.
        let catalog = fresh_catalog("plus");
        let schema = schema();
        let base = make_tuples(&schema, 600, 41, 0);
        let delta = make_tuples(&schema, 80, 43, 600);
        let cfg = CubeConfig::default();
        let mut heap = build_old(&catalog, &schema, &base, "old_", true);
        delta.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut new_sink = MemSink::new(2);
        update_cube(&catalog, &schema, "old_", &delta, &cfg, &mut new_sink, 1).unwrap();
        assert_matches_oracle(&schema, &new_sink, &concat(&[&base, &delta]), None, "plus");
    }

    #[test]
    fn update_over_partitioned_cube() {
        // The old cube was built out-of-core: its plan is a two-tree
        // forest, so the update DFS must walk both passes and the new
        // cube must keep the same partition level in its meta for query
        // paths to resolve.
        let catalog = fresh_catalog("partup");
        let schema = schema();
        let base = make_tuples(&schema, 1_500, 31, 0);
        let delta = make_tuples(&schema, 150, 33, 1_500);
        let mut heap =
            catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
        base.store_fact(&mut heap).unwrap();
        // 16 KB budget: 5 partitions needed → L = 0 (card 20), N ≈ 13 KB.
        let cfg = CubeConfig { memory_budget_bytes: 16 << 10, ..CubeConfig::default() };
        let mut old_sink = DiskSink::new(&catalog, "old_", &schema, false, false, None).unwrap();
        let report = crate::partition::build_cure_cube(
            &catalog,
            "facts",
            &schema,
            &cfg,
            &mut old_sink,
            "tmp_",
            1,
        )
        .unwrap();
        let level = report.partition.as_ref().expect("partitioned").choice.level;
        CubeMeta { partition_level: Some(level), ..meta("old_", false, report.stats.cat_format) }
            .write(&catalog)
            .unwrap();
        delta.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut new_sink = MemSink::new(2);
        update_cube(&catalog, &schema, "old_", &delta, &CubeConfig::default(), &mut new_sink, 1)
            .unwrap();
        // TT placement follows the OLD cube's (partitioned) plan forest.
        let all = concat(&[&base, &delta]);
        assert_matches_oracle(&schema, &new_sink, &all, Some(level), "partitioned-update");
    }

    #[test]
    fn dr_cubes_are_rejected() {
        let catalog = fresh_catalog("drreject");
        let schema = schema();
        let base = make_tuples(&schema, 50, 3, 0);
        let mut heap =
            catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
        base.store_fact(&mut heap).unwrap();
        CubeMeta { dr: true, ..meta("x_", false, None) }.write(&catalog).unwrap();
        let delta = make_tuples(&schema, 5, 4, 50);
        let mut sink = MemSink::new(2);
        assert!(update_cube(&catalog, &schema, "x_", &delta, &CubeConfig::default(), &mut sink, 1)
            .is_err());
    }

    #[test]
    fn demotions_are_detected() {
        // Delta duplicating base tuples exactly forces TT demotions.
        let catalog = fresh_catalog("demote");
        let schema = schema();
        let base = make_tuples(&schema, 200, 55, 0);
        let mut delta = Tuples::new(schema.num_dims(), 2);
        for i in 0..50 {
            delta.push(base.dims_of(i), base.aggs_of(i), 1, 200 + i as u64);
        }
        let cfg = CubeConfig::default();
        let mut heap = build_old(&catalog, &schema, &base, "old_", false);
        delta.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut sink = MemSink::new(2);
        let up = update_cube(&catalog, &schema, "old_", &delta, &cfg, &mut sink, 1).unwrap();
        assert!(up.tt_demotions > 0, "exact duplicates must demote TTs: {up:?}");
    }
}

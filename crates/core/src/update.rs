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
//! probes the node's delta map. Carrying an old group therefore costs no
//! heap allocation, and the walk is `O(|R| + cube size + |delta| ·
//! nodes)`, the `|R|` term being one sequential scan.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use cure_storage::hash::FxHashMap;
use cure_storage::{BitmapIndex, BufferCache, Catalog, HeapFile, Schema, StorageError};

use crate::aggfn::AggFn;
use crate::cube::CubeConfig;
use crate::error::{CubeError, Result};
use crate::hierarchy::{CubeSchema, LevelIdx};
use crate::lattice::{NodeCoder, NodeId};
use crate::meta::CubeMeta;
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

/// Read-back of an existing cube: its node relations through the catalog,
/// its fact rows through dense [`FactColumns`]. Each node's contents are
/// split into non-trivial groups and the TT row-ids stored *at* the node
/// (not the shared ones from ancestors — those are carried by the DFS).
struct DiskOldCube<'a> {
    catalog: &'a Catalog,
    meta: CubeMeta,
    y: usize,
    facts: FactColumns,
    aggregates: Option<HeapFile>,
    /// Page LRU for the `AGGREGATES` fetches behind CAT rows; each node's
    /// references are sorted into `AGGREGATES` order, so a small cache
    /// absorbs almost every repeated page read.
    pages: BufferCache,
    agg_buf: Vec<u8>,
    /// A node's CAT references: (fact row-id when the CAT row holds it,
    /// `AGGREGATES` row-id).
    cat_refs: Vec<(Option<u64>, u64)>,
}

impl<'a> DiskOldCube<'a> {
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
        let agg_buf = vec![0u8; aggregates.as_ref().map_or(0, |a| a.schema().row_width())];
        Ok(DiskOldCube {
            catalog,
            meta,
            y,
            facts,
            aggregates,
            pages: BufferCache::new(1024),
            agg_buf,
            cat_refs: Vec::new(),
        })
    }

    /// The node's non-trivial groups in stored order — NT rows, then CAT
    /// rows in `AGGREGATES` order — as their row-ids and flat aggregates
    /// (`y` per group). Non-trivial groups are unique per key in a node.
    fn non_trivial_groups(
        &mut self,
        node: NodeId,
        rowids: &mut Vec<u64>,
        aggs: &mut Vec<i64>,
    ) -> Result<()> {
        rowids.clear();
        aggs.clear();
        let y = self.y;
        let nt_name = crate::sink::nt_rel_name(&self.meta.prefix, node);
        if self.catalog.exists(&nt_name) {
            let rel = self.catalog.open_relation(&nt_name)?;
            let rs = rel.schema();
            rel.for_each_row(|_, row| {
                rowids.push(Schema::read_u64_at(row, rs.offset(0)));
                aggs.extend((0..y).map(|m| Schema::read_i64_at(row, rs.offset(1 + m))));
            })?;
        }
        // CAT rows (CURE+ format-(a) cubes store them as bitmap blobs).
        let cat_name = crate::sink::cat_rel_name(&self.meta.prefix, node);
        let cat_bm_name = crate::sink::cat_bitmap_name(&self.meta.prefix, node);
        let bitmap_cats = self.meta.plus && self.catalog.blob_exists(&cat_bm_name);
        if !bitmap_cats && !self.catalog.exists(&cat_name) {
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
        let refs = &mut self.cat_refs;
        refs.clear();
        if bitmap_cats {
            let bm = BitmapIndex::from_bytes(&self.catalog.read_blob(&cat_bm_name)?)?;
            refs.extend(bm.iter().map(|a| (None, a)));
        } else {
            let rel = self.catalog.open_relation(&cat_name)?;
            let rs = rel.schema();
            rel.for_each_row(|_, row| {
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
        let buf = &mut self.agg_buf;
        for &(cat_rowid, a_rowid) in refs.iter() {
            aggrel.fetch_cached(a_rowid, &mut self.pages, buf)?;
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
        if self.catalog.exists(&name) {
            self.catalog
                .open_relation(&name)?
                .for_each_row(|_, row| out.push(Schema::read_u64_at(row, 0)))?;
        }
        Ok(())
    }
}

/// Merge `delta` into the cube stored under `old_prefix`, writing the
/// merged cube through `sink` (typically a [`DiskSink`](crate::sink::DiskSink)
/// with a new prefix).
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
) -> Result<UpdateReport> {
    let mut old = DiskOldCube::open(catalog, schema, old_prefix)?;
    let plan = match old.meta.partition_level {
        None => PlanSpec::new(schema),
        Some(l) => PlanSpec::partitioned(schema, l)?,
    };
    let coder = NodeCoder::new(schema);
    let fns = schema.agg_fns();
    let y = schema.num_measures();
    let mut pool = SignaturePool::new(y, cfg.pool_capacity, cfg.cat_policy);
    let mut report = UpdateReport::default();

    let tree = plan.build_tree();
    let mut children: FxHashMap<Option<NodeId>, Vec<NodeId>> = FxHashMap::default();
    for &n in &tree.order {
        children.entry(tree.parent[&n]).or_default().push(n);
    }
    let roots = children.remove(&None).unwrap_or_default();

    /// A tuple stored as a TT on the current DFS path (at this node or an
    /// ancestor); its leaf values and measures come from the fact columns.
    struct PathTt {
        rowid: u64,
        /// Whether a TT row for this tuple has been written at an ancestor
        /// (then the whole subtree is covered and, because key collisions
        /// propagate upward, no deeper delta collision is possible).
        covered: bool,
    }

    /// One step of the iterative DFS over the plan forest.
    enum Step {
        Enter(NodeId),
        /// Leave a node's subtree: pop the `established` path TTs it added
        /// and uncover the inherited entries it covered.
        Leave {
            established: usize,
            covered_here: Vec<usize>,
        },
    }

    // Buffers reused by every node: carrying a group allocates nothing.
    let mut path_tts: Vec<PathTt> = Vec::new();
    let mut own_tts: Vec<u64> = Vec::new();
    let mut group_rowids: Vec<u64> = Vec::new();
    let mut group_aggs: Vec<i64> = Vec::new();
    let mut merged: Vec<i64> = Vec::with_capacity(y);
    let mut proj = Projector::new(schema);
    let mut stack: Vec<Step> = roots.iter().rev().map(|&r| Step::Enter(r)).collect();

    while let Some(step) = stack.pop() {
        let node = match step {
            Step::Enter(node) => node,
            Step::Leave { established, covered_here } => {
                path_tts.truncate(path_tts.len() - established);
                for i in covered_here {
                    path_tts[i].covered = false;
                }
                continue;
            }
        };
        let levels = coder.decode(node)?;
        proj.set_node(&coder, &levels);
        report.nodes += 1;

        // Delta groups of this node, keyed by grouping values.
        let mut delta_map: FxHashMap<Vec<u32>, reference::GroupRow> = FxHashMap::default();
        for mut g in reference::compute_node(schema, delta, &levels) {
            delta_map.insert(std::mem::take(&mut g.dims), g);
        }
        // Old non-trivial groups and own TTs.
        old.non_trivial_groups(node, &mut group_rowids, &mut group_aggs)?;
        old.own_tts(node, &mut own_tts)?;
        let facts = &old.facts;

        // 1. Old TTs stored at this node: collision check against delta.
        //
        // A collision here demotes the tuple to a non-trivial group *at
        // this node* (its merged row is written), but its trivial status
        // may resurface deeper in the subtree where the delta diverges —
        // the tuple is carried on the path as *uncovered* and step 2
        // re-establishes its TT at the topmost divergence point of each
        // branch.
        let mut established = 0usize;
        for &rowid in &own_tts {
            match delta_map.remove(proj.key(facts.leaf(rowid)?)) {
                Some(dg) => {
                    report.tt_demotions += 1;
                    merge_into(&mut merged, fns, facts.measures(rowid)?, &dg.aggs);
                    pool.push(sink, &merged, rowid.min(dg.min_rowid), node)?;
                    report.merged_groups += 1;
                    path_tts.push(PathTt { rowid, covered: false });
                }
                None => {
                    // Still trivial at this node: keep as TT and share below.
                    sink.write_tt(node, rowid)?;
                    report.carried_groups += 1;
                    path_tts.push(PathTt { rowid, covered: true });
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
        let inherited = path_tts.len() - established;
        let mut covered_here: Vec<usize> = Vec::new();
        for (i, t) in path_tts[..inherited].iter_mut().enumerate() {
            let hit = delta_map.remove(proj.key(facts.leaf(t.rowid)?));
            if t.covered {
                // A covered *old* TT cannot be hit by the delta here
                // (collisions propagate upward and were ruled out at the
                // covering node). A covered *delta* TT, however, still
                // appears in this node's freshly computed delta groups —
                // the removal above consumes it so step 4 does not store
                // it twice.
                if let Some(dg) = hit {
                    debug_assert_eq!(dg.count, 1, "covered TT group must stay trivial");
                    debug_assert_eq!(dg.min_rowid, t.rowid);
                }
                continue;
            }
            match hit {
                Some(dg) => {
                    merge_into(&mut merged, fns, facts.measures(t.rowid)?, &dg.aggs);
                    pool.push(sink, &merged, t.rowid.min(dg.min_rowid), node)?;
                    report.merged_groups += 1;
                }
                None => {
                    // Divergence point: re-establish the TT for this subtree.
                    sink.write_tt(node, t.rowid)?;
                    t.covered = true;
                    covered_here.push(i);
                }
            }
        }

        // 3. Old non-trivial groups: merge with delta where keys match.
        for (j, &rowid) in group_rowids.iter().enumerate() {
            let aggs = &group_aggs[j * y..(j + 1) * y];
            match delta_map.remove(proj.key(facts.leaf(rowid)?)) {
                Some(dg) => {
                    merge_into(&mut merged, fns, aggs, &dg.aggs);
                    pool.push(sink, &merged, rowid.min(dg.min_rowid), node)?;
                    report.merged_groups += 1;
                }
                None => {
                    pool.push(sink, aggs, rowid, node)?;
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
                sink.write_tt(node, dg.min_rowid)?;
                path_tts.push(PathTt { rowid: dg.min_rowid, covered: true });
                established += 1;
            } else {
                pool.push(sink, &dg.aggs, dg.min_rowid, node)?;
            }
            report.new_groups += 1;
        }

        stack.push(Step::Leave { established, covered_here });
        if let Some(ch) = children.get(&Some(node)) {
            stack.extend(ch.iter().rev().map(|&c| Step::Enter(c)));
        }
    }

    pool.flush(sink)?;
    sink.finish()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeBuilder;
    use crate::hierarchy::Dimension;
    use crate::reader::MemCubeReader;
    use crate::sink::{DiskSink, MemSink};

    fn fresh_catalog(tag: &str) -> Catalog {
        let dir = std::env::temp_dir().join(format!("cure_update_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Catalog::open(&dir).unwrap()
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

        let mut new_sink = MemSink::new(2);
        let up = update_cube(&catalog, &schema, "old_", &delta, &cfg, &mut new_sink).unwrap();
        assert_eq!(up.nodes, NodeCoder::new(&schema).num_nodes());
        assert_matches_oracle(&schema, &new_sink, &concat(&[&base, &delta]), None, tag);
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
        update_cube(&catalog, &schema, "v1_", &b1, &cfg, &mut s2).unwrap();
        meta("v2_", false, s2.cat_format()).write(&catalog).unwrap();

        b2.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut s3 = MemSink::new(2);
        update_cube(&catalog, &schema, "v2_", &b2, &cfg, &mut s3).unwrap();
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
        update_cube(&catalog, &schema, "old_", &delta, &cfg, &mut new_sink).unwrap();
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
        update_cube(&catalog, &schema, "old_", &delta, &CubeConfig::default(), &mut new_sink)
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
        assert!(update_cube(&catalog, &schema, "x_", &delta, &CubeConfig::default(), &mut sink)
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
        let up = update_cube(&catalog, &schema, "old_", &delta, &cfg, &mut sink).unwrap();
        assert!(up.tt_demotions > 0, "exact duplicates must demote TTs: {up:?}");
    }
}

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
//! style); the caller can drop the old relations afterwards. Cost is
//! `O(cube size + |delta| · nodes)`, independent of `|R|`.

use cure_storage::hash::FxHashMap;
use cure_storage::Catalog;

use crate::cube::CubeConfig;
use crate::error::{CubeError, Result};
use crate::hierarchy::CubeSchema;
use crate::lattice::{NodeCoder, NodeId};
use crate::meta::CubeMeta;
use crate::plan::PlanSpec;
use crate::reference;
use crate::signature::SignaturePool;
use crate::sink::CubeSink;
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

/// A read-back logical group of an existing cube node.
struct OldGroup {
    aggs: Vec<i64>,
    min_rowid: u64,
}

/// Reads the logical contents of an existing cube node, split into
/// non-trivial groups (keyed by grouping values) and the TT row-ids stored
/// *at* the node (not the shared ones from ancestors — those are carried
/// by the DFS).
trait OldCubeAccess {
    fn non_trivial_groups(&mut self, node: NodeId) -> Result<FxHashMap<Vec<u32>, OldGroup>>;
    fn own_tts(&mut self, node: NodeId) -> Result<Vec<u64>>;
    /// Leaf dimension values + measures of an original fact tuple.
    fn fact_row(&mut self, rowid: u64) -> Result<(Vec<u32>, Vec<i64>)>;
}

/// Access to an old cube through the catalog relations.
struct DiskOldCube<'a> {
    catalog: &'a Catalog,
    schema: &'a CubeSchema,
    meta: CubeMeta,
    coder: NodeCoder,
    fact: cure_storage::HeapFile,
    fact_schema: cure_storage::Schema,
    aggregates: Option<cure_storage::HeapFile>,
    /// Memoized fact rows. Every node of the lattice re-resolves the
    /// row-ids its groups reference, so without this the walk performs
    /// one random fact fetch *per group row per node* — the dominant cost
    /// of an update by far. The cache is bounded by the distinct row-ids
    /// the cube references (≤ |R|).
    fact_cache: FxHashMap<u64, (Vec<u32>, Vec<i64>)>,
    fact_buf: Vec<u8>,
    /// Page cache for the random fetches into the fact and `AGGREGATES`
    /// relations. `fetch_into` re-reads (and re-checksums) a whole page
    /// per row, which at cube scale means hundreds of thousands of
    /// redundant page reads; build order gives both relations strong
    /// locality, so a small LRU absorbs almost all of them.
    pages: cure_storage::BufferCache,
}

impl<'a> DiskOldCube<'a> {
    fn open(catalog: &'a Catalog, schema: &'a CubeSchema, prefix: &str) -> Result<Self> {
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
        let fact = catalog.open_relation(&meta.fact_rel)?;
        let fact_schema = fact.schema().clone();
        let agg_name = crate::sink::aggregates_rel_name(prefix);
        let aggregates =
            if catalog.exists(&agg_name) { Some(catalog.open_relation(&agg_name)?) } else { None };
        let row_width = fact_schema.row_width();
        Ok(DiskOldCube {
            catalog,
            schema,
            meta,
            coder: NodeCoder::new(schema),
            fact,
            fact_schema,
            aggregates,
            fact_cache: FxHashMap::default(),
            fact_buf: vec![0u8; row_width],
            pages: cure_storage::BufferCache::new(1024),
        })
    }

    fn project(&self, levels: &[usize], leaf: &[u32]) -> Vec<u32> {
        self.schema
            .dims()
            .iter()
            .enumerate()
            .filter(|(d, _)| !self.coder.is_all(levels, *d))
            .map(|(d, dim)| dim.value_at(levels[d], leaf[d]))
            .collect()
    }
}

impl OldCubeAccess for DiskOldCube<'_> {
    fn non_trivial_groups(&mut self, node: NodeId) -> Result<FxHashMap<Vec<u32>, OldGroup>> {
        use cure_storage::Schema;
        let levels = self.coder.decode(node)?;
        let y = self.schema.num_measures();
        let mut out: FxHashMap<Vec<u32>, OldGroup> = FxHashMap::default();
        // NT rows.
        let nt_name = crate::sink::nt_rel_name(&self.meta.prefix, node);
        let mut pending: Vec<(u64, Vec<i64>)> = Vec::new();
        if self.catalog.exists(&nt_name) {
            let rel = self.catalog.open_relation(&nt_name)?;
            let rs = rel.schema().clone();
            let mut scan = rel.scan();
            while let Some(row) = scan.next_row()? {
                let rowid = Schema::read_u64_at(row, rs.offset(0));
                let aggs: Vec<i64> =
                    (0..y).map(|m| Schema::read_i64_at(row, rs.offset(1 + m))).collect();
                pending.push((rowid, aggs));
            }
        }
        // CAT rows (CURE+ format-(a) cubes store them as bitmap blobs).
        let cat_name = crate::sink::cat_rel_name(&self.meta.prefix, node);
        let cat_bm_name = crate::sink::cat_bitmap_name(&self.meta.prefix, node);
        let bitmap_cats = self.meta.plus && self.catalog.blob_exists(&cat_bm_name);
        if bitmap_cats || self.catalog.exists(&cat_name) {
            let format = self
                .meta
                .cat_format
                .ok_or_else(|| CubeError::Schema("CAT relation without a format in meta".into()))?;
            let aggrel = self
                .aggregates
                .as_ref()
                .ok_or_else(|| CubeError::Schema("CAT rows but no AGGREGATES".into()))?;
            let ars = aggrel.schema().clone();
            let mut agg_buf = vec![0u8; ars.row_width()];
            let mut refs: Vec<(Option<u64>, u64)> = Vec::new();
            if bitmap_cats {
                let bm =
                    cure_storage::BitmapIndex::from_bytes(&self.catalog.read_blob(&cat_bm_name)?)?;
                refs.extend(bm.iter().map(|a| (None, a)));
            } else {
                let rel = self.catalog.open_relation(&cat_name)?;
                let rs = rel.schema().clone();
                let mut scan = rel.scan();
                while let Some(row) = scan.next_row()? {
                    match format {
                        crate::sink::CatFormat::CommonSource => {
                            refs.push((None, Schema::read_u64_at(row, rs.offset(0))));
                        }
                        crate::sink::CatFormat::Coincidental => {
                            refs.push((
                                Some(Schema::read_u64_at(row, rs.offset(0))),
                                Schema::read_u64_at(row, rs.offset(1)),
                            ));
                        }
                        crate::sink::CatFormat::AsNt => {
                            return Err(CubeError::Schema("AsNt cube has CAT relations".into()))
                        }
                    }
                }
            }
            // Ascending AGGREGATES order keeps the fetches page-local.
            refs.sort_unstable_by_key(|r| r.1);
            for (rowid_opt, a_rowid) in refs {
                aggrel.fetch_cached(a_rowid, &mut self.pages, &mut agg_buf)?;
                match format {
                    crate::sink::CatFormat::CommonSource => {
                        let rowid = Schema::read_u64_at(&agg_buf, ars.offset(0));
                        let aggs: Vec<i64> = (0..y)
                            .map(|m| Schema::read_i64_at(&agg_buf, ars.offset(1 + m)))
                            .collect();
                        pending.push((rowid, aggs));
                    }
                    crate::sink::CatFormat::Coincidental => {
                        let aggs: Vec<i64> =
                            (0..y).map(|m| Schema::read_i64_at(&agg_buf, ars.offset(m))).collect();
                        pending.push((rowid_opt.expect("format (b)"), aggs));
                    }
                    crate::sink::CatFormat::AsNt => unreachable!(),
                }
            }
        }
        for (rowid, aggs) in pending {
            let (leaf, _) = self.fact_row(rowid)?;
            let key = self.project(&levels, &leaf);
            // Non-trivial groups are unique per key within a node.
            out.insert(key, OldGroup { aggs, min_rowid: rowid });
        }
        Ok(out)
    }

    fn own_tts(&mut self, node: NodeId) -> Result<Vec<u64>> {
        use cure_storage::Schema;
        if self.meta.plus {
            let name = crate::sink::tt_bitmap_name(&self.meta.prefix, node);
            if self.catalog.blob_exists(&name) {
                let bm = cure_storage::BitmapIndex::from_bytes(&self.catalog.read_blob(&name)?)?;
                return Ok(bm.iter().collect());
            }
            return Ok(Vec::new());
        }
        let name = crate::sink::tt_rel_name(&self.meta.prefix, node);
        if !self.catalog.exists(&name) {
            return Ok(Vec::new());
        }
        let rel = self.catalog.open_relation(&name)?;
        let mut out = Vec::with_capacity(rel.num_rows() as usize);
        let mut scan = rel.scan();
        while let Some(row) = scan.next_row()? {
            out.push(Schema::read_u64_at(row, 0));
        }
        Ok(out)
    }

    fn fact_row(&mut self, rowid: u64) -> Result<(Vec<u32>, Vec<i64>)> {
        use cure_storage::Schema;
        if let Some(hit) = self.fact_cache.get(&rowid) {
            return Ok(hit.clone());
        }
        let d = self.schema.num_dims();
        let y = self.schema.num_measures();
        self.fact.fetch_cached(rowid, &mut self.pages, &mut self.fact_buf)?;
        let buf = &self.fact_buf;
        let leaf: Vec<u32> =
            (0..d).map(|i| Schema::read_u32_at(buf, self.fact_schema.offset(i))).collect();
        let measures: Vec<i64> =
            (0..y).map(|m| Schema::read_i64_at(buf, self.fact_schema.offset(d + m))).collect();
        self.fact_cache.insert(rowid, (leaf.clone(), measures.clone()));
        Ok((leaf, measures))
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
    let mut pool = SignaturePool::new(schema.num_measures(), cfg.pool_capacity, cfg.cat_policy);
    let mut report = UpdateReport::default();

    // DFS over the plan forest, carrying the TTs shared along the path:
    // (rowid, leaf dims, measures) of tuples already re-stored as TTs.
    let tree = plan.build_tree();
    let mut children: FxHashMap<Option<NodeId>, Vec<NodeId>> = FxHashMap::default();
    for &n in &tree.order {
        children.entry(tree.parent[&n]).or_default().push(n);
    }
    let roots = children.remove(&None).unwrap_or_default();

    struct PathTt {
        rowid: u64,
        leaf: Vec<u32>,
        measures: Vec<i64>,
        /// Whether a TT row for this tuple has been written at an ancestor
        /// (then the whole subtree is covered and, because key collisions
        /// propagate upward, no deeper delta collision is possible).
        covered: bool,
    }

    // Iterative DFS with explicit stack carrying the path-TT frames.
    struct Frame {
        node: NodeId,
        /// TTs established at this node (appended to the path while its
        /// subtree is processed).
        established: usize,
        /// Inherited path entries whose `covered` flag was set at this
        /// node (re-established TTs) — reset when leaving the subtree.
        covered_here: Vec<usize>,
    }
    let mut path_tts: Vec<PathTt> = Vec::new();
    let mut stack: Vec<(NodeId, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
    let mut frames: Vec<Frame> = Vec::new();

    while let Some((node, done)) = stack.pop() {
        if done {
            let f = frames.pop().expect("frame");
            debug_assert_eq!(f.node, node);
            path_tts.truncate(path_tts.len() - f.established);
            for i in f.covered_here {
                path_tts[i].covered = false;
            }
            continue;
        }
        stack.push((node, true));
        let levels = coder.decode(node)?;
        report.nodes += 1;

        // Delta groups of this node.
        let delta_groups = reference::compute_node(schema, delta, &levels);
        let mut delta_map: FxHashMap<Vec<u32>, reference::GroupRow> = FxHashMap::default();
        for g in delta_groups {
            delta_map.insert(g.dims.clone(), g);
        }
        // Old non-trivial groups and own TTs.
        let mut old_groups = old.non_trivial_groups(node)?;
        let own_tts = old.own_tts(node)?;

        // 1. Old TTs stored at this node: collision check against delta.
        //
        // A collision here demotes the tuple to a non-trivial group *at
        // this node* (its merged row is written), but its trivial status
        // may resurface deeper in the subtree where the delta diverges —
        // the tuple is carried on the path as *uncovered* and step 2
        // re-establishes its TT at the topmost divergence point of each
        // branch.
        let mut established = 0usize;
        for rowid in own_tts {
            let (leaf, measures) = old.fact_row(rowid)?;
            let key = old.project(&levels, &leaf);
            if let Some(dg) = delta_map.remove(&key) {
                report.tt_demotions += 1;
                let mut aggs = measures.clone();
                crate::aggfn::AggFn::merge_all(schema.agg_fns(), &mut aggs, &dg.aggs);
                let min_rowid = rowid.min(dg.min_rowid);
                pool.push(sink, &aggs, min_rowid, node)?;
                report.merged_groups += 1;
                path_tts.push(PathTt { rowid, leaf, measures, covered: false });
                established += 1;
            } else {
                // Still trivial at this node: keep as TT and share below.
                sink.write_tt(node, rowid)?;
                report.carried_groups += 1;
                path_tts.push(PathTt { rowid, leaf, measures, covered: true });
                established += 1;
            }
        }

        // 2. Uncovered path TTs (demoted at an ancestor): either the delta
        // keeps colliding here (merged row, still uncovered) or it has
        // diverged (this is the least detailed node where the tuple is
        // trivial again → write its TT and cover the subtree). Covered
        // entries need nothing: a collision below a TT-covered node is
        // impossible because equal keys at a finer node imply equal keys
        // at every coarser one.
        let inherited = path_tts.len() - established;
        let mut cover_on_exit: Vec<usize> = Vec::new();
        #[allow(clippy::needless_range_loop)] // index kept: `path_tts[i]` is mutated below
        for i in 0..inherited {
            let (key, rowid) = {
                let t = &path_tts[i];
                (old.project(&levels, &t.leaf), t.rowid)
            };
            if path_tts[i].covered {
                // A covered *old* TT cannot be hit by the delta here
                // (collisions propagate upward and were ruled out at the
                // covering node). A covered *delta* TT, however, still
                // appears in this node's freshly computed delta groups —
                // consume it so step 4 does not store it twice.
                if let Some(dg) = delta_map.remove(&key) {
                    debug_assert_eq!(dg.count, 1, "covered TT group must stay trivial");
                    debug_assert_eq!(dg.min_rowid, rowid);
                }
                continue;
            }
            if let Some(dg) = delta_map.remove(&key) {
                let t = &path_tts[i];
                let mut aggs = t.measures.clone();
                crate::aggfn::AggFn::merge_all(schema.agg_fns(), &mut aggs, &dg.aggs);
                pool.push(sink, &aggs, rowid.min(dg.min_rowid), node)?;
                report.merged_groups += 1;
            } else {
                // Divergence point: re-establish the TT for this subtree.
                sink.write_tt(node, rowid)?;
                path_tts[i].covered = true;
                cover_on_exit.push(i);
            }
        }

        // 3. Old non-trivial groups: merge with delta where keys match.
        for (key, og) in old_groups.drain() {
            match delta_map.remove(&key) {
                Some(dg) => {
                    let mut aggs = og.aggs;
                    crate::aggfn::AggFn::merge_all(schema.agg_fns(), &mut aggs, &dg.aggs);
                    pool.push(sink, &aggs, og.min_rowid.min(dg.min_rowid), node)?;
                    report.merged_groups += 1;
                }
                None => {
                    pool.push(sink, &og.aggs, og.min_rowid, node)?;
                    report.carried_groups += 1;
                }
            }
        }

        // 4. Remaining delta-only groups.
        for (_, dg) in delta_map.drain() {
            if dg.count == 1 {
                // New trivial tuple: store here; shared with the subtree.
                sink.write_tt(node, dg.min_rowid)?;
                let (leaf, measures) = old.fact_row(dg.min_rowid)?;
                path_tts.push(PathTt { rowid: dg.min_rowid, leaf, measures, covered: true });
                established += 1;
            } else {
                pool.push(sink, &dg.aggs, dg.min_rowid, node)?;
            }
            report.new_groups += 1;
        }

        frames.push(Frame { node, established, covered_here: cover_on_exit });
        if let Some(ch) = children.get(&Some(node)) {
            for &c in ch.iter().rev() {
                stack.push((c, false));
            }
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

    /// Build base → update with delta → compare against a fresh oracle of
    /// the combined data, node by node.
    fn check_update(n_base: usize, n_delta: usize, seed: u64, tag: &str) {
        let catalog = fresh_catalog(tag);
        let schema = schema();
        let base = make_tuples(&schema, n_base, seed, 0);
        let delta = make_tuples(&schema, n_delta, seed.wrapping_mul(31) + 7, n_base as u64);

        // Store base facts and build the original cube on disk.
        let mut heap =
            catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
        base.store_fact(&mut heap).unwrap();
        let mut old_sink = DiskSink::new(&catalog, "old_", &schema, false, false, None).unwrap();
        let report = CubeBuilder::new(&schema, CubeConfig::default())
            .build_in_memory(&base, &mut old_sink)
            .unwrap();
        CubeMeta {
            prefix: "old_".into(),
            fact_rel: "facts".into(),
            n_dims: schema.num_dims(),
            n_measures: 2,
            dr: false,
            plus: false,
            cat_format: report.stats.cat_format,
            partition_level: None,
            min_support: 1,
        }
        .write(&catalog)
        .unwrap();
        // Append the delta to the fact relation (row-ids continue).
        delta.store_fact(&mut heap).unwrap();
        drop(heap);

        // Incremental update into a MemSink.
        let mut new_sink = MemSink::new(2);
        let up =
            update_cube(&catalog, &schema, "old_", &delta, &CubeConfig::default(), &mut new_sink)
                .unwrap();
        assert_eq!(up.nodes, NodeCoder::new(&schema).num_nodes());

        // Oracle over base ∪ delta.
        let mut combined = Tuples::new(schema.num_dims(), 2);
        for src in [&base, &delta] {
            for i in 0..src.len() {
                combined.push(src.dims_of(i), src.aggs_of(i), 1, src.rowid(i));
            }
        }
        let reader = MemCubeReader::new(&schema, &new_sink, &combined, None).unwrap();
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).unwrap();
            got.sort();
            let levels = coder.decode(id).unwrap();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                reference::compute_node(&schema, &combined, &levels)
                    .into_iter()
                    .map(|r| (r.dims, r.aggs))
                    .collect();
            assert_eq!(got, want, "{tag}: node {} ({})", id, coder.name(&schema, id));
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
        let mut heap =
            catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
        b0.store_fact(&mut heap).unwrap();
        let mut s1 = DiskSink::new(&catalog, "v1_", &schema, false, false, None).unwrap();
        let r1 =
            CubeBuilder::new(&schema, CubeConfig::default()).build_in_memory(&b0, &mut s1).unwrap();
        let meta = |prefix: &str, fmt| CubeMeta {
            prefix: prefix.into(),
            fact_rel: "facts".into(),
            n_dims: schema.num_dims(),
            n_measures: 2,
            dr: false,
            plus: false,
            cat_format: fmt,
            partition_level: None,
            min_support: 1,
        };
        meta("v1_", r1.stats.cat_format).write(&catalog).unwrap();

        b1.store_fact(&mut heap).unwrap();
        let mut s2 = DiskSink::new(&catalog, "v2_", &schema, false, false, None).unwrap();
        update_cube(&catalog, &schema, "v1_", &b1, &CubeConfig::default(), &mut s2).unwrap();
        use crate::sink::CubeSink as _;
        meta("v2_", s2.cat_format()).write(&catalog).unwrap();

        b2.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut s3 = MemSink::new(2);
        update_cube(&catalog, &schema, "v2_", &b2, &CubeConfig::default(), &mut s3).unwrap();

        let mut combined = Tuples::new(schema.num_dims(), 2);
        for src in [&b0, &b1, &b2] {
            for i in 0..src.len() {
                combined.push(src.dims_of(i), src.aggs_of(i), 1, src.rowid(i));
            }
        }
        let reader = MemCubeReader::new(&schema, &s3, &combined, None).unwrap();
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).unwrap();
            got.sort();
            let levels = coder.decode(id).unwrap();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                reference::compute_node(&schema, &combined, &levels)
                    .into_iter()
                    .map(|r| (r.dims, r.aggs))
                    .collect();
            assert_eq!(got, want, "chained node {id}");
        }
    }

    #[test]
    fn update_over_cure_plus_cube() {
        // The old cube stores TTs as bitmaps; own_tts must read them back.
        let catalog = fresh_catalog("plus");
        let schema = schema();
        let base = make_tuples(&schema, 600, 41, 0);
        let delta = make_tuples(&schema, 80, 43, 600);
        let mut heap =
            catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
        base.store_fact(&mut heap).unwrap();
        let mut old_sink = DiskSink::new(&catalog, "old_", &schema, false, true, None).unwrap();
        let report = CubeBuilder::new(&schema, CubeConfig::default())
            .build_in_memory(&base, &mut old_sink)
            .unwrap();
        CubeMeta {
            prefix: "old_".into(),
            fact_rel: "facts".into(),
            n_dims: schema.num_dims(),
            n_measures: 2,
            dr: false,
            plus: true,
            cat_format: report.stats.cat_format,
            partition_level: None,
            min_support: 1,
        }
        .write(&catalog)
        .unwrap();
        delta.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut new_sink = MemSink::new(2);
        update_cube(&catalog, &schema, "old_", &delta, &CubeConfig::default(), &mut new_sink)
            .unwrap();
        let mut combined = Tuples::new(schema.num_dims(), 2);
        for src in [&base, &delta] {
            for i in 0..src.len() {
                combined.push(src.dims_of(i), src.aggs_of(i), 1, src.rowid(i));
            }
        }
        let reader = MemCubeReader::new(&schema, &new_sink, &combined, None).unwrap();
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).unwrap();
            got.sort();
            let levels = coder.decode(id).unwrap();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                reference::compute_node(&schema, &combined, &levels)
                    .into_iter()
                    .map(|r| (r.dims, r.aggs))
                    .collect();
            assert_eq!(got, want, "plus node {id}");
        }
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
        let mut old_sink =
            crate::sink::DiskSink::new(&catalog, "old_", &schema, false, false, None).unwrap();
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
        CubeMeta {
            prefix: "old_".into(),
            fact_rel: "facts".into(),
            n_dims: schema.num_dims(),
            n_measures: 2,
            dr: false,
            plus: false,
            cat_format: report.stats.cat_format,
            partition_level: Some(level),
            min_support: 1,
        }
        .write(&catalog)
        .unwrap();
        delta.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut new_sink = crate::sink::MemSink::new(2);
        update_cube(&catalog, &schema, "old_", &delta, &CubeConfig::default(), &mut new_sink)
            .unwrap();
        let mut combined = Tuples::new(schema.num_dims(), 2);
        for src in [&base, &delta] {
            for i in 0..src.len() {
                combined.push(src.dims_of(i), src.aggs_of(i), 1, src.rowid(i));
            }
        }
        // TT placement follows the OLD cube's (partitioned) plan forest.
        let reader =
            crate::reader::MemCubeReader::new(&schema, &new_sink, &combined, Some(level)).unwrap();
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).unwrap();
            got.sort();
            let levels = coder.decode(id).unwrap();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                reference::compute_node(&schema, &combined, &levels)
                    .into_iter()
                    .map(|r| (r.dims, r.aggs))
                    .collect();
            assert_eq!(got, want, "partitioned-update node {id}");
        }
    }

    #[test]
    fn dr_cubes_are_rejected() {
        let catalog = fresh_catalog("drreject");
        let schema = schema();
        let base = make_tuples(&schema, 50, 3, 0);
        let mut heap =
            catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
        base.store_fact(&mut heap).unwrap();
        CubeMeta {
            prefix: "x_".into(),
            fact_rel: "facts".into(),
            n_dims: schema.num_dims(),
            n_measures: 2,
            dr: true,
            plus: false,
            cat_format: None,
            partition_level: None,
            min_support: 1,
        }
        .write(&catalog)
        .unwrap();
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
        let mut heap =
            catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
        base.store_fact(&mut heap).unwrap();
        let mut old_sink = DiskSink::new(&catalog, "old_", &schema, false, false, None).unwrap();
        let report = CubeBuilder::new(&schema, CubeConfig::default())
            .build_in_memory(&base, &mut old_sink)
            .unwrap();
        CubeMeta {
            prefix: "old_".into(),
            fact_rel: "facts".into(),
            n_dims: schema.num_dims(),
            n_measures: 2,
            dr: false,
            plus: false,
            cat_format: report.stats.cat_format,
            partition_level: None,
            min_support: 1,
        }
        .write(&catalog)
        .unwrap();
        delta.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut sink = MemSink::new(2);
        let up = update_cube(&catalog, &schema, "old_", &delta, &CubeConfig::default(), &mut sink)
            .unwrap();
        assert!(up.tt_demotions > 0, "exact duplicates must demote TTs: {up:?}");
    }
}

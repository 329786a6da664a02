//! The per-node point-query index and the zero-copy (mmap) node-query
//! path behind [`ConcurrentCube`](crate::ConcurrentCube).
//!
//! The cache read path resolves a node query by *scanning*: it reads the
//! node's NT, CAT and TT relations (opened once per handle) to collect
//! row-ids, then gathers the `AGGREGATES` and fact rows page by page
//! through lock-guarded shared page caches, copying every row out of
//! them. On an immutable post-build cube all of that work but the final
//! row fetches is invariant across queries, so [`MmapNodeIndex`] hoists
//! it to open time:
//!
//! * group-by keys → node: the [`NodeCoder`] already encodes each
//!   grouping combination as a dense node id, so the index is a flat
//!   array keyed by node id — an O(1) probe over the group-by key
//!   space;
//! * per node, the index preresolves the *sources* of its rows: a
//!   checksum-verified [`MmapRelation`] over its NT relation, the CAT
//!   reference list (`(source rowid, AGGREGATES rowid)`) decoded from
//!   relation or bitmap form, and the TT row-id lists along its plan
//!   path (shared via `Arc` between nodes on the same path);
//! * the fact table and `AGGREGATES` are mapped once and every row is
//!   served as a borrowed slice — no lock, no copy, no user-space
//!   cache.
//!
//! A query is then O(probe + result): one array index, then exactly the
//! row accesses its answer needs. Deadline and quarantine guards are
//! enforced before every row fetch (the cache path checks them before
//! every page it gathers), and every mmap access keeps the
//! typed-corruption guarantee (a damaged page surfaces as
//! [`StorageError::CorruptPage`], never as wrong rows).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cure_core::meta::CubeMeta;
use cure_core::sink::{
    aggregates_rel_name, cat_bitmap_name, cat_rel_name, nt_rel_name, tt_bitmap_name, tt_rel_name,
    CatFormat,
};
use cure_core::{CubeError, NodeCoder, NodeId, PlanSpec, Result};
use cure_storage::page::PAGE_HEADER;
use cure_storage::{BitmapIndex, Catalog, MmapRelation, Schema, StorageError};

use crate::concurrent::{QueryGuard, SharedQueryStats};
use crate::resolve::ResolveEnv;
use crate::CubeRow;

/// Where one query's time went, sampled by the serving layer so the
/// next bottleneck is measured rather than guessed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    /// Index probe: node decode + source lookup.
    pub probe_ns: u64,
    /// Page reads: mmap row and page accesses (fact, `AGGREGATES`, NT).
    pub read_ns: u64,
    /// Everything else: projection, decoding, and result assembly.
    pub compute_ns: u64,
}

/// Preresolved row sources for one lattice node.
struct NodeSources {
    /// The node's NT relation, mapped and verified at open.
    nt: Option<MmapRelation>,
    /// CAT references: `(source fact rowid if known, AGGREGATES rowid)`,
    /// decoded once from the CAT relation or CURE+ bitmap blob.
    cat_refs: Vec<(Option<u64>, u64)>,
    /// TT row-id lists shared with this node along its plan path.
    tts: Vec<Arc<Vec<u64>>>,
}

/// The open-time index: every node's sources, plus the two hot
/// relations every query resolves against.
pub(crate) struct MmapNodeIndex {
    pub(crate) fact: MmapRelation,
    pub(crate) aggregates: Option<MmapRelation>,
    nodes: Vec<NodeSources>,
    /// NT relation name → node index, for quarantine repair routing.
    nt_by_name: HashMap<String, usize>,
}

impl MmapNodeIndex {
    /// Build the index: map + verify the fact table, `AGGREGATES`, and
    /// every NT relation; decode every CAT reference list; materialize
    /// every TT row-id list along the plan. One pass over the sealed
    /// cube at open buys O(probe + result) queries afterwards.
    pub(crate) fn build(
        catalog: &Catalog,
        meta: &CubeMeta,
        plan: &PlanSpec,
        coder: &NodeCoder,
    ) -> Result<Self> {
        let fact = MmapRelation::open(catalog, &meta.fact_rel)?;
        let agg_name = aggregates_rel_name(&meta.prefix);
        let aggregates = if catalog.exists(&agg_name) {
            Some(MmapRelation::open(catalog, &agg_name)?)
        } else {
            None
        };

        let mut tt_lists: HashMap<NodeId, Option<Arc<Vec<u64>>>> = HashMap::new();
        let mut nodes = Vec::with_capacity(coder.num_nodes() as usize);
        let mut nt_by_name = HashMap::new();
        for node in 0..coder.num_nodes() {
            let nt_name = nt_rel_name(&meta.prefix, node);
            let nt = if catalog.exists(&nt_name) {
                let rel = MmapRelation::open(catalog, &nt_name)?;
                nt_by_name.insert(nt_name, nodes.len());
                Some(rel)
            } else {
                None
            };
            let cat_refs = load_cat_refs(catalog, meta, node)?;
            let mut tts = Vec::new();
            for m in plan.path_to(node)? {
                let cached = match tt_lists.get(&m) {
                    Some(v) => v.clone(),
                    None => {
                        let v = load_tt_list(catalog, meta, m)?.map(Arc::new);
                        tt_lists.insert(m, v.clone());
                        v
                    }
                };
                if let Some(l) = cached {
                    tts.push(l);
                }
            }
            nodes.push(NodeSources { nt, cat_refs, tts });
        }
        Ok(MmapNodeIndex { fact, aggregates, nodes, nt_by_name })
    }

    /// Re-verify one page of a mapped relation (fact, `AGGREGATES`, or
    /// any NT), the repair hook behind the serving layer's quarantine.
    /// Returns `false` when `relation` is not served through this index.
    pub(crate) fn reverify_page(&self, relation: &str, page: u64) -> Option<Result<()>> {
        if self.fact.relation_name() == relation {
            return Some(self.fact.reverify_page(page).map_err(CubeError::from));
        }
        if let Some(agg) = &self.aggregates {
            if agg.relation_name() == relation {
                return Some(agg.reverify_page(page).map_err(CubeError::from));
            }
        }
        if let Some(&idx) = self.nt_by_name.get(relation) {
            if let Some(nt) = &self.nodes[idx].nt {
                return Some(nt.reverify_page(page).map_err(CubeError::from));
            }
        }
        None
    }

    /// Resolve the node's NT and CAT sources into `out` (the mmap
    /// counterpart of the NT and CAT part of `resolve::scan_node`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_nt_cat(
        &self,
        env: &ResolveEnv<'_>,
        stats: &SharedQueryStats,
        node: NodeId,
        levels: &[usize],
        guard: &QueryGuard<'_>,
        out: &mut Vec<CubeRow>,
        attr: Option<&mut Attribution>,
    ) -> Result<()> {
        let src = self.sources(node)?;
        let y = env.schema.num_measures();
        let timed = attr.is_some();
        let mut read_ns = 0u64;
        let fact_name = self.fact.relation_name();
        let fact_rpp = self.fact.rows_per_page() as u64;

        if let Some(nt) = &src.nt {
            let rs = nt.schema().clone();
            let w = rs.row_width();
            let arity = if env.meta.dr { env.coder.grouping_arity(levels) } else { 0 };
            for p in 0..nt.num_pages() {
                check_deadline(guard)?;
                let t = timed.then(Instant::now);
                let (bytes, nrows) = nt.page_rows(p)?;
                if let Some(t) = t {
                    read_ns += t.elapsed().as_nanos() as u64;
                }
                for i in 0..nrows {
                    let row = &bytes[PAGE_HEADER + i * w..PAGE_HEADER + (i + 1) * w];
                    if env.meta.dr {
                        let dims: Vec<u32> =
                            (0..arity).map(|c| Schema::read_u32_at(row, rs.offset(c))).collect();
                        let aggs: Vec<i64> = (0..y)
                            .map(|m| Schema::read_i64_at(row, rs.offset(arity + m)))
                            .collect();
                        out.push((dims, aggs));
                    } else {
                        let rowid = Schema::read_u64_at(row, rs.offset(0));
                        let aggs: Vec<i64> =
                            (0..y).map(|m| Schema::read_i64_at(row, rs.offset(1 + m))).collect();
                        check_deadline(guard)?;
                        check_quarantine(guard, fact_name, rowid, fact_rpp)?;
                        stats.count_fact_fetch();
                        let t = timed.then(Instant::now);
                        let fact_row = self.fact.row(rowid)?;
                        if let Some(t) = t {
                            read_ns += t.elapsed().as_nanos() as u64;
                        }
                        out.push((env.project(levels, &fact_row), aggs));
                    }
                }
            }
        }

        if !src.cat_refs.is_empty() {
            let format = env.meta.cat_format.ok_or_else(|| {
                CubeError::Schema("cube has a CAT relation but no CAT format in meta".into())
            })?;
            let aggregates = self
                .aggregates
                .as_ref()
                .ok_or_else(|| CubeError::Schema("CAT rows but no AGGREGATES relation".into()))?;
            let ags = aggregates.schema().clone();
            let agg_name = aggregates.relation_name().to_string();
            let agg_rpp = aggregates.rows_per_page() as u64;
            for &(rowid_opt, a_rowid) in &src.cat_refs {
                check_deadline(guard)?;
                check_quarantine(guard, &agg_name, a_rowid, agg_rpp)?;
                stats.count_agg_fetch();
                let t = timed.then(Instant::now);
                let agg_row = aggregates.row(a_rowid)?;
                if let Some(t) = t {
                    read_ns += t.elapsed().as_nanos() as u64;
                }
                let (rowid, aggs) = match format {
                    CatFormat::CommonSource => {
                        let rowid = Schema::read_u64_at(&agg_row, ags.offset(0));
                        let aggs: Vec<i64> = (0..y)
                            .map(|m| Schema::read_i64_at(&agg_row, ags.offset(1 + m)))
                            .collect();
                        (rowid, aggs)
                    }
                    CatFormat::Coincidental => {
                        let aggs: Vec<i64> =
                            (0..y).map(|m| Schema::read_i64_at(&agg_row, ags.offset(m))).collect();
                        let rowid = rowid_opt.ok_or_else(|| {
                            crate::error::QueryError::Malformed(
                                "format (b) CAT row without a source row-id".into(),
                            )
                        })?;
                        (rowid, aggs)
                    }
                    CatFormat::AsNt => {
                        return Err(CubeError::Schema("AsNt format cannot have CAT rows".into()))
                    }
                };
                drop(agg_row);
                check_deadline(guard)?;
                check_quarantine(guard, fact_name, rowid, fact_rpp)?;
                stats.count_fact_fetch();
                let t = timed.then(Instant::now);
                let fact_row = self.fact.row(rowid)?;
                if let Some(t) = t {
                    read_ns += t.elapsed().as_nanos() as u64;
                }
                out.push((env.project(levels, &fact_row), aggs));
            }
        }
        if let Some(a) = attr {
            a.read_ns += read_ns;
        }
        Ok(())
    }

    /// Resolve the node's TT row-id lists into `out` (the mmap
    /// counterpart of the TT part of `resolve::scan_node`; the lists themselves were
    /// materialized at open, so only the fact fetches remain).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_tts(
        &self,
        env: &ResolveEnv<'_>,
        stats: &SharedQueryStats,
        node: NodeId,
        levels: &[usize],
        guard: &QueryGuard<'_>,
        out: &mut Vec<CubeRow>,
        attr: Option<&mut Attribution>,
    ) -> Result<()> {
        let src = self.sources(node)?;
        let timed = attr.is_some();
        let mut read_ns = 0u64;
        let fact_name = self.fact.relation_name();
        let fact_rpp = self.fact.rows_per_page() as u64;
        for list in &src.tts {
            for &rowid in list.iter() {
                check_deadline(guard)?;
                check_quarantine(guard, fact_name, rowid, fact_rpp)?;
                stats.count_fact_fetch();
                let t = timed.then(Instant::now);
                let fact_row = self.fact.row(rowid)?;
                if let Some(t) = t {
                    read_ns += t.elapsed().as_nanos() as u64;
                }
                out.push((env.project(levels, &fact_row), env.measures_of(&fact_row)));
            }
        }
        if let Some(a) = attr {
            a.read_ns += read_ns;
        }
        Ok(())
    }

    fn sources(&self, node: NodeId) -> Result<&NodeSources> {
        self.nodes
            .get(node as usize)
            .ok_or_else(|| CubeError::Config(format!("node {node} beyond the index")))
    }
}

fn check_deadline(guard: &QueryGuard<'_>) -> Result<()> {
    if let Some(d) = guard.deadline {
        if Instant::now() >= d {
            return Err(CubeError::Timeout("query deadline exceeded between page fetches".into()));
        }
    }
    Ok(())
}

fn check_quarantine(
    guard: &QueryGuard<'_>,
    relation: &str,
    rowid: u64,
    rows_per_page: u64,
) -> Result<()> {
    if let Some(q) = guard.quarantine {
        let page = rowid / rows_per_page.max(1);
        if q.is_quarantined(relation, page) {
            return Err(CubeError::Storage(StorageError::CorruptPage {
                relation: relation.to_string(),
                page,
                detail: "page is quarantined pending repair".into(),
            }));
        }
    }
    Ok(())
}

/// Decode the CAT reference list for `node` once, from the CURE+ bitmap
/// blob or the CAT relation, exactly as the per-query resolver would.
fn load_cat_refs(
    catalog: &Catalog,
    meta: &CubeMeta,
    node: NodeId,
) -> Result<Vec<(Option<u64>, u64)>> {
    let mut refs = Vec::new();
    let bm_name = cat_bitmap_name(&meta.prefix, node);
    if meta.plus && catalog.blob_exists(&bm_name) {
        let bm = BitmapIndex::from_bytes(&catalog.read_blob(&bm_name)?)?;
        refs.extend(bm.iter().map(|a| (None, a)));
        return Ok(refs);
    }
    let cat_name = cat_rel_name(&meta.prefix, node);
    if !catalog.exists(&cat_name) {
        return Ok(refs);
    }
    let format = meta.cat_format.ok_or_else(|| {
        CubeError::Schema("cube has a CAT relation but no CAT format in meta".into())
    })?;
    if format == CatFormat::AsNt {
        return Err(CubeError::Schema("AsNt format cannot have CAT relations".into()));
    }
    let rel = MmapRelation::open(catalog, &cat_name)?;
    let rs = rel.schema().clone();
    rel.try_for_each_row(|_, row| {
        match format {
            CatFormat::CommonSource => refs.push((None, Schema::read_u64_at(row, rs.offset(0)))),
            _ => refs.push((
                Some(Schema::read_u64_at(row, rs.offset(0))),
                Schema::read_u64_at(row, rs.offset(1)),
            )),
        }
        Ok(())
    })?;
    Ok(refs)
}

/// Materialize the TT row-id list shared with node `m`, from the CURE+
/// bitmap blob or the TT relation; `None` when `m` stores no TT.
fn load_tt_list(catalog: &Catalog, meta: &CubeMeta, m: NodeId) -> Result<Option<Vec<u64>>> {
    if meta.plus {
        let name = tt_bitmap_name(&meta.prefix, m);
        if !catalog.blob_exists(&name) {
            return Ok(None);
        }
        let bm = BitmapIndex::from_bytes(&catalog.read_blob(&name)?)?;
        return Ok(Some(bm.iter().collect()));
    }
    let name = tt_rel_name(&meta.prefix, m);
    if !catalog.exists(&name) {
        return Ok(None);
    }
    let rel = MmapRelation::open(catalog, &name)?;
    let mut v = Vec::with_capacity(rel.num_rows() as usize);
    rel.try_for_each_row(|_, row| {
        v.push(Schema::read_u64_at(row, 0));
        Ok(())
    })?;
    Ok(Some(v))
}

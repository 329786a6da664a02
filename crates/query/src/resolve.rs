//! Reference-resolution engine shared by the exclusive and concurrent
//! query paths.
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
//! Each source (the NT relation, the CAT references, each TT on the plan
//! path) hands all of its fact row-ids to one
//! [`RowFetcher::fetch_facts`] call and then projects the rows in source
//! order, so the answer is the same rows in the same order whichever
//! order the fetcher reads the fact table in.

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
}

/// How rows are fetched: the only behavioural difference between the
/// exclusive and concurrent paths.
pub(crate) trait RowFetcher {
    /// Fetch fact-table rows `rowids` into `buf` (row `i` at
    /// `buf[i * w..(i + 1) * w]`, `w` the fact row width), counting one
    /// fetch per row.
    fn fetch_facts(&mut self, rowids: &[u64], buf: &mut [u8]) -> Result<()>;

    /// Fetch `AGGREGATES` row `rowid` into `buf`, counting the fetch.
    fn fetch_agg(&mut self, agg: &HeapFile, rowid: u64, buf: &mut [u8]) -> Result<()>;
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

    /// Fetch the fact rows `rowids` in one batch, row `i` at
    /// `[i * w..(i + 1) * w]` of the result.
    fn fetch_facts(&self, fetcher: &mut impl RowFetcher, rowids: &[u64]) -> Result<Vec<u8>> {
        let mut facts = vec![0u8; rowids.len() * self.fact_schema.row_width()];
        fetcher.fetch_facts(rowids, &mut facts)?;
        Ok(facts)
    }

    /// Fill `rows[i].0` with fact row `rowids[i]` projected onto the
    /// node's levels.
    fn project_facts(
        &self,
        fetcher: &mut impl RowFetcher,
        levels: &[usize],
        rowids: &[u64],
        rows: &mut [CubeRow],
    ) -> Result<()> {
        let facts = self.fetch_facts(fetcher, rowids)?;
        for (row, fact) in rows.iter_mut().zip(facts.chunks_exact(self.fact_schema.row_width())) {
            row.0 = self.project(levels, fact);
        }
        Ok(())
    }
}

/// Resolve the node's NT and CAT relations into `out`, dropping rows
/// whose source row-id is not in `qualifier` *before* the fact fetch.
pub(crate) fn scan_nt_cat(
    env: &ResolveEnv<'_>,
    fetcher: &mut impl RowFetcher,
    node: NodeId,
    levels: &[usize],
    out: &mut Vec<CubeRow>,
    qualifier: Option<&BitmapIndex>,
) -> Result<()> {
    let y = env.schema.num_measures();

    let nt_name = nt_rel_name(&env.meta.prefix, node);
    if env.catalog.exists(&nt_name) {
        let rel = env.catalog.open_relation(&nt_name)?;
        let rs = rel.schema().clone();
        let mut scan = rel.scan();
        if env.meta.dr {
            let arity = env.coder.grouping_arity(levels);
            while let Some(row) = scan.next_row()? {
                let dims: Vec<u32> =
                    (0..arity).map(|i| Schema::read_u32_at(row, rs.offset(i))).collect();
                let aggs: Vec<i64> =
                    (0..y).map(|m| Schema::read_i64_at(row, rs.offset(arity + m))).collect();
                out.push((dims, aggs));
            }
        } else {
            let start = out.len();
            let mut rowids = Vec::new();
            while let Some(row) = scan.next_row()? {
                let rowid = Schema::read_u64_at(row, rs.offset(0));
                if let Some(q) = qualifier {
                    if !q.contains(rowid) {
                        continue;
                    }
                }
                let aggs: Vec<i64> =
                    (0..y).map(|m| Schema::read_i64_at(row, rs.offset(1 + m))).collect();
                rowids.push(rowid);
                out.push((Vec::new(), aggs));
            }
            env.project_facts(fetcher, levels, &rowids, &mut out[start..])?;
        }
    }

    // CURE+ stores format-(a) CAT A-rowids as a sorted bitmap blob.
    let cat_bm_name = cat_bitmap_name(&env.meta.prefix, node);
    let cat_name = cat_rel_name(&env.meta.prefix, node);
    let bitmap_cats = env.meta.plus && env.catalog.blob_exists(&cat_bm_name);
    if bitmap_cats || env.catalog.exists(&cat_name) {
        let format = env.meta.cat_format.ok_or_else(|| {
            CubeError::Schema("cube has a CAT relation but no CAT format in meta".into())
        })?;
        let mut refs: Vec<(Option<u64>, u64)> = Vec::new(); // (rowid, a_rowid)
        if bitmap_cats {
            let bm = BitmapIndex::from_bytes(&env.catalog.read_blob(&cat_bm_name)?)?;
            refs.extend(bm.iter().map(|a| (None, a)));
        } else {
            let rel = env.catalog.open_relation(&cat_name)?;
            let rs = rel.schema().clone();
            let mut scan = rel.scan();
            while let Some(row) = scan.next_row()? {
                match format {
                    CatFormat::CommonSource => {
                        refs.push((None, Schema::read_u64_at(row, rs.offset(0))));
                    }
                    CatFormat::Coincidental => {
                        refs.push((
                            Some(Schema::read_u64_at(row, rs.offset(0))),
                            Schema::read_u64_at(row, rs.offset(1)),
                        ));
                    }
                    CatFormat::AsNt => {
                        return Err(CubeError::Schema(
                            "AsNt format cannot have CAT relations".into(),
                        ))
                    }
                }
            }
        }
        let aggregates = env
            .aggregates
            .ok_or_else(|| CubeError::Schema("CAT rows but no AGGREGATES relation".into()))?;
        let aggs_rel_schema = aggregates.schema().clone();
        let mut agg_buf = vec![0u8; aggs_rel_schema.row_width()];
        let start = out.len();
        let mut rowids = Vec::new();
        for (rowid_opt, a_rowid) in refs {
            // Format (b) exposes the source row-id before any fetch;
            // reject non-qualifying rows without touching AGGREGATES.
            if let (Some(q), Some(rid)) = (qualifier, rowid_opt) {
                if !q.contains(rid) {
                    continue;
                }
            }
            fetcher.fetch_agg(aggregates, a_rowid, &mut agg_buf)?;
            let (rowid, aggs) = match format {
                CatFormat::CommonSource => {
                    let rowid = Schema::read_u64_at(&agg_buf, aggs_rel_schema.offset(0));
                    let aggs: Vec<i64> = (0..y)
                        .map(|m| Schema::read_i64_at(&agg_buf, aggs_rel_schema.offset(1 + m)))
                        .collect();
                    (rowid, aggs)
                }
                CatFormat::Coincidental => {
                    let aggs: Vec<i64> = (0..y)
                        .map(|m| Schema::read_i64_at(&agg_buf, aggs_rel_schema.offset(m)))
                        .collect();
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
            if let Some(q) = qualifier {
                if !q.contains(rowid) {
                    continue;
                }
            }
            rowids.push(rowid);
            out.push((Vec::new(), aggs));
        }
        env.project_facts(fetcher, levels, &rowids, &mut out[start..])?;
    }
    Ok(())
}

/// Resolve the TTs shared with `node` along its plan path into `out`.
/// With a `qualifier`, TT row-id lists are intersected (bitmaps) or
/// membership-tested (relations) before any fact fetch.
pub(crate) fn scan_tts(
    env: &ResolveEnv<'_>,
    fetcher: &mut impl RowFetcher,
    node: NodeId,
    levels: &[usize],
    out: &mut Vec<CubeRow>,
    qualifier: Option<&BitmapIndex>,
) -> Result<()> {
    let w = env.fact_schema.row_width();
    for m in env.plan.path_to(node)? {
        let rowids: Vec<u64> = if env.meta.plus {
            let name = tt_bitmap_name(&env.meta.prefix, m);
            if env.catalog.blob_exists(&name) {
                let bm = BitmapIndex::from_bytes(&env.catalog.read_blob(&name)?)?;
                match qualifier {
                    Some(q) => bm.intersect(q).iter().collect(),
                    None => bm.iter().collect(),
                }
            } else {
                continue;
            }
        } else {
            let name = tt_rel_name(&env.meta.prefix, m);
            if env.catalog.exists(&name) {
                let rel = env.catalog.open_relation(&name)?;
                let mut v = Vec::with_capacity(rel.num_rows() as usize);
                let mut scan = rel.scan();
                while let Some(row) = scan.next_row()? {
                    let rid = Schema::read_u64_at(row, 0);
                    if qualifier.is_none_or(|q| q.contains(rid)) {
                        v.push(rid);
                    }
                }
                v
            } else {
                continue;
            }
        };
        let facts = env.fetch_facts(fetcher, &rowids)?;
        out.extend(
            facts.chunks_exact(w).map(|fact| (env.project(levels, fact), env.measures_of(fact))),
        );
    }
    Ok(())
}

//! Node-query answering over the baseline cube formats.
//!
//! * **BUC** cubes keep one fully-materialized relation per node, so a
//!   node query scans exactly that relation — cheap, which is why BUC
//!   holds its own at query time in the paper's Figure 16 despite its
//!   enormous storage footprint.
//! * **BU-BST** cubes are monolithic: answering *any* node query requires
//!   a sequential scan of the whole cube relation (the paper measures this
//!   at two to three orders of magnitude slower), plus fact-table fetches
//!   to expand the BSTs shared along the flat plan path.

use cure_baselines::bubst::{bubst_rel_name, BubstRow};
use cure_baselines::buc::buc_rel_name;
use cure_baselines::{flatnode, ALL_SENTINEL};
use cure_core::{NodeId, Result};
use cure_storage::{Catalog, HeapFile, Schema};

use crate::CubeRow;

/// Reader over a disk BUC cube (one relation per flat node).
pub struct BucCube<'a> {
    catalog: &'a Catalog,
    prefix: String,
    y: usize,
}

impl<'a> BucCube<'a> {
    /// Open a BUC cube stored under `prefix` with `y` aggregates.
    pub fn open(catalog: &'a Catalog, prefix: impl Into<String>, y: usize) -> Self {
        BucCube { catalog, prefix: prefix.into(), y }
    }

    /// Answer a node query: scan the node's own relation.
    pub fn node_query(&self, node: NodeId) -> Result<Vec<CubeRow>> {
        let name = buc_rel_name(&self.prefix, node);
        if !self.catalog.exists(&name) {
            return Ok(Vec::new());
        }
        let rel = self.catalog.open_sealed(&name)?;
        let rs = rel.schema().clone();
        let arity = rs.arity() - self.y;
        let mut out = Vec::with_capacity(rel.num_rows() as usize);
        rel.for_each_row(|_, row| {
            let dims: Vec<u32> =
                (0..arity).map(|i| Schema::read_u32_at(row, rs.offset(i))).collect();
            let aggs: Vec<i64> =
                (0..self.y).map(|m| Schema::read_i64_at(row, rs.offset(arity + m))).collect();
            out.push((dims, aggs));
        })?;
        Ok(out)
    }
}

/// Reader over a disk BU-BST (condensed, monolithic) cube.
pub struct BubstCube<'a> {
    catalog: &'a Catalog,
    rel_name: String,
    fact: HeapFile,
    fact_schema: Schema,
    d: usize,
    y: usize,
}

impl<'a> BubstCube<'a> {
    /// Open the monolithic cube under `prefix`; `fact_rel` is the original
    /// fact relation (needed to expand BSTs).
    pub fn open(
        catalog: &'a Catalog,
        prefix: &str,
        fact_rel: &str,
        d: usize,
        y: usize,
    ) -> Result<Self> {
        let fact = catalog.open_sealed(fact_rel)?;
        let fact_schema = fact.schema().clone();
        Ok(BubstCube { catalog, rel_name: bubst_rel_name(prefix), fact, fact_schema, d, y })
    }

    /// Answer a node query. **Scans the entire monolithic relation** — the
    /// format's inherent cost, faithfully reproduced.
    pub fn node_query(&self, node: NodeId) -> Result<Vec<CubeRow>> {
        let rel = self.catalog.open_sealed(&self.rel_name)?;
        let rs = rel.schema().clone();
        // BSTs stored at any node on the P1 path to `node` are members.
        let path = flatnode::path(node);
        let mut out = Vec::new();
        let mut fact_buf = vec![0u8; self.fact_schema.row_width()];
        rel.try_for_each_row(|_, raw| {
            let row: BubstRow = cure_baselines::bubst::decode_bubst_row(&rs, self.d, self.y, raw);
            if !row.is_bst {
                if row.node == node {
                    let dims: Vec<u32> =
                        row.vals.iter().copied().filter(|&v| v != ALL_SENTINEL).collect();
                    out.push((dims, row.aggs));
                }
            } else if path.contains(&row.node) {
                // Expand the shared BST: project the source tuple onto the
                // queried node's dimensions.
                self.fact.fetch_into(row.rowid, &mut fact_buf)?;
                let dims: Vec<u32> = (0..self.d)
                    .filter(|&dd| flatnode::has_dim(node, dd))
                    .map(|dd| Schema::read_u32_at(&fact_buf, self.fact_schema.offset(dd)))
                    .collect();
                out.push((dims, row.aggs));
            }
            Ok(())
        })?;
        Ok(out)
    }
}

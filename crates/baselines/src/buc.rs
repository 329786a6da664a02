//! BUC: Bottom-Up Computation of sparse and iceberg cubes.
//!
//! The paper's primary flat-cube baseline. BUC fully materializes every
//! node — dimension values plus aggregates, no redundancy elimination —
//! which makes construction output-bound and cubes large, but query
//! answering simple: each node is its own relation, so a node query scans
//! exactly one relation (this is why BUC beats the monolithic BU-BST at
//! query time in Figure 16 despite its size).

use cure_core::Result;
use cure_core::{NodeId, Tuples};
use cure_storage::hash::FxHashMap;
use cure_storage::{Catalog, ColType, Column, Schema};

use crate::{run_buc, BaselineConfig, BaselineStats, BucSink, ALL_SENTINEL};

/// Relation name of a BUC node relation.
pub fn buc_rel_name(prefix: &str, node: NodeId) -> String {
    format!("{prefix}n{node}")
}

/// Schema of a BUC node relation with `arity` grouped dimensions.
pub fn buc_node_schema(arity: usize, y: usize) -> Schema {
    let mut cols = Vec::with_capacity(arity + y);
    for i in 0..arity {
        cols.push(Column::new(format!("g{i}"), ColType::U32));
    }
    for i in 0..y {
        cols.push(Column::new(format!("aggr{i}"), ColType::I64));
    }
    Schema::new(cols)
}

/// Materialized rows of one node: `(grouped values, aggregates)` pairs.
pub type NodeRows = Vec<(Vec<u32>, Vec<i64>)>;

/// In-memory BUC cube: per-node materialized rows.
#[derive(Debug, Default)]
pub struct BucMemCube {
    /// node → (grouped values, aggregates).
    pub nodes: FxHashMap<NodeId, NodeRows>,
}

impl BucMemCube {
    /// Sorted contents of the node grouping `grouped_dims` — the
    /// comparison hook differential tests use against the oracle's
    /// leaf-level nodes (BUC knows nothing about hierarchy levels, so
    /// only leaf-or-ALL nodes exist here).
    pub fn node_contents(&self, grouped_dims: &[usize]) -> NodeRows {
        let flat_id = crate::flatnode::from_dims(grouped_dims);
        let mut rows = self.nodes.get(&flat_id).cloned().unwrap_or_default();
        rows.sort();
        rows
    }
}

impl BucSink for BucMemCube {
    fn write_row(&mut self, node: NodeId, vals: &[u32], aggs: &[i64]) -> Result<()> {
        let grouped: Vec<u32> = vals.iter().copied().filter(|&v| v != ALL_SENTINEL).collect();
        self.nodes.entry(node).or_default().push((grouped, aggs.to_vec()));
        Ok(())
    }

    fn write_bst(
        &mut self,
        _node: NodeId,
        _vals: &[u32],
        _rowid: u64,
        _aggs: &[i64],
    ) -> Result<()> {
        unreachable!("BUC never condenses BSTs")
    }

    fn finish(&mut self) -> Result<BaselineStats> {
        let mut s = BaselineStats::default();
        for rows in self.nodes.values() {
            s.rows += rows.len() as u64;
            for (g, a) in rows {
                s.bytes += (g.len() * 4 + a.len() * 8) as u64;
            }
        }
        s.relations = self.nodes.len() as u64;
        Ok(s)
    }
}

const FLUSH_BYTES: usize = 256 * 1024;

/// Disk-backed BUC cube: one relation per node, buffered writes.
pub struct BucDiskCube<'a> {
    catalog: &'a Catalog,
    prefix: String,
    y: usize,
    bufs: FxHashMap<NodeId, (usize, Vec<u8>, u64)>, // (arity, bytes, rows)
    stats: BaselineStats,
}

impl<'a> BucDiskCube<'a> {
    /// Create a disk sink writing relations under `prefix`.
    pub fn new(catalog: &'a Catalog, prefix: impl Into<String>, y: usize) -> Self {
        BucDiskCube {
            catalog,
            prefix: prefix.into(),
            y,
            bufs: FxHashMap::default(),
            stats: BaselineStats::default(),
        }
    }

    fn flush_node(&mut self, node: NodeId) -> Result<()> {
        let Some((arity, buf, _)) = self.bufs.get_mut(&node) else { return Ok(()) };
        if buf.is_empty() {
            return Ok(());
        }
        let schema = buc_node_schema(*arity, self.y);
        let name = buc_rel_name(&self.prefix, node);
        let mut rel = if self.catalog.exists(&name) {
            self.catalog.open_relation(&name)?
        } else {
            self.stats.relations += 1;
            self.catalog.create_relation(&name, schema.clone())?
        };
        let w = schema.row_width();
        for chunk in buf.chunks(w) {
            rel.append_raw(chunk)?;
        }
        rel.flush()?;
        buf.clear();
        Ok(())
    }
}

impl BucSink for BucDiskCube<'_> {
    fn write_row(&mut self, node: NodeId, vals: &[u32], aggs: &[i64]) -> Result<()> {
        let arity = vals.iter().filter(|&&v| v != ALL_SENTINEL).count();
        let entry = self.bufs.entry(node).or_insert_with(|| (arity, Vec::new(), 0));
        debug_assert_eq!(entry.0, arity, "node arity is constant");
        for &v in vals.iter().filter(|&&v| v != ALL_SENTINEL) {
            entry.1.extend_from_slice(&v.to_le_bytes());
        }
        for &a in aggs {
            entry.1.extend_from_slice(&a.to_le_bytes());
        }
        entry.2 += 1;
        self.stats.rows += 1;
        self.stats.bytes += (arity * 4 + aggs.len() * 8) as u64;
        if entry.1.len() >= FLUSH_BYTES {
            self.flush_node(node)?;
        }
        Ok(())
    }

    fn write_bst(
        &mut self,
        _node: NodeId,
        _vals: &[u32],
        _rowid: u64,
        _aggs: &[i64],
    ) -> Result<()> {
        unreachable!("BUC never condenses BSTs")
    }

    fn finish(&mut self) -> Result<BaselineStats> {
        let nodes: Vec<NodeId> = self.bufs.keys().copied().collect();
        for n in nodes {
            self.flush_node(n)?;
        }
        Ok(self.stats.clone())
    }
}

/// Build a complete (or iceberg) flat BUC cube over the leaf levels.
pub fn build_buc(
    cards: &[u32],
    t: &Tuples,
    min_support: u64,
    sink: &mut dyn BucSink,
) -> Result<BaselineStats> {
    let cfg = BaselineConfig { min_support, condense_bsts: false };
    run_buc(cards, t, &cfg, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cure_core::reference;
    use cure_core::{CubeSchema, Dimension};
    use cure_storage::scratch::scratch_dir;

    fn flat_schema(cards: &[u32]) -> CubeSchema {
        let dims =
            cards.iter().enumerate().map(|(i, &c)| Dimension::flat(format!("d{i}"), c)).collect();
        CubeSchema::new(dims, 1).unwrap()
    }

    fn random_tuples(cards: &[u32], n: usize, seed: u64) -> Tuples {
        let mut t = Tuples::new(cards.len(), 1);
        let mut x = seed | 1;
        let mut dims = vec![0u32; cards.len()];
        for i in 0..n {
            for (j, v) in dims.iter_mut().enumerate() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = (x % cards[j] as u64) as u32;
            }
            t.push_fact(&dims, &[(x % 100) as i64], i as u64);
        }
        t
    }

    #[test]
    fn buc_matches_oracle_on_every_node() {
        let cards = [6u32, 5, 4];
        let schema = flat_schema(&cards);
        let t = random_tuples(&cards, 400, 77);
        let mut sink = BucMemCube::default();
        build_buc(&cards, &t, 1, &mut sink).unwrap();
        // Compare against the oracle node by node. Flat node id: bitmask;
        // oracle id: NodeCoder. Map via grouped-dimension sets.
        let coder = cure_core::NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let levels = coder.decode(id).unwrap();
            let grouped: Vec<usize> = (0..3).filter(|&d| !coder.is_all(&levels, d)).collect();
            let flat_id = crate::flatnode::from_dims(&grouped);
            let mut got: Vec<(Vec<u32>, Vec<i64>)> =
                sink.nodes.get(&flat_id).cloned().unwrap_or_default();
            got.sort();
            let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect();
            assert_eq!(got, want, "node {id}");
        }
    }

    #[test]
    fn buc_materializes_everything() {
        // Total rows = Σ node sizes (no condensation at all).
        let cards = [10u32, 8];
        let schema = flat_schema(&cards);
        let t = random_tuples(&cards, 200, 5);
        let mut sink = BucMemCube::default();
        let stats = build_buc(&cards, &t, 1, &mut sink).unwrap();
        let oracle = reference::compute_cube(&schema, &t);
        let total: usize = oracle.values().map(|v| v.len()).sum();
        assert_eq!(stats.rows, total as u64);
        assert_eq!(stats.bst_rows, 0);
    }

    #[test]
    fn buc_iceberg_prunes() {
        let cards = [4u32, 4];
        let schema = flat_schema(&cards);
        let t = random_tuples(&cards, 300, 9);
        let mut sink = BucMemCube::default();
        build_buc(&cards, &t, 10, &mut sink).unwrap();
        let coder = cure_core::NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let levels = coder.decode(id).unwrap();
            let grouped: Vec<usize> = (0..2).filter(|&d| !coder.is_all(&levels, d)).collect();
            let flat_id = crate::flatnode::from_dims(&grouped);
            let mut got: Vec<(Vec<u32>, Vec<i64>)> =
                sink.nodes.get(&flat_id).cloned().unwrap_or_default();
            got.sort();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                reference::iceberg_filter(&reference::compute_node(&schema, &t, &levels), 10)
                    .into_iter()
                    .map(|r| (r.dims, r.aggs))
                    .collect();
            assert_eq!(got, want, "iceberg node {id}");
        }
    }

    #[test]
    fn disk_cube_roundtrips() {
        let dir = scratch_dir("buc");
        let catalog = Catalog::open(&dir).unwrap();
        let cards = [5u32, 4];
        let t = random_tuples(&cards, 300, 13);
        let mut mem = BucMemCube::default();
        build_buc(&cards, &t, 1, &mut mem).unwrap();
        let mut disk = BucDiskCube::new(&catalog, "b_", 1);
        let stats = build_buc(&cards, &t, 1, &mut disk).unwrap();
        assert_eq!(stats.rows, mem.finish().unwrap().rows);
        // Node {d0} on disk matches memory.
        let n = crate::flatnode::from_dims(&[0]);
        let rel = catalog.open_relation(&buc_rel_name("b_", n)).unwrap();
        assert_eq!(rel.num_rows() as usize, mem.nodes[&n].len());
        assert_eq!(rel.schema().arity(), 2); // 1 dim + 1 agg
    }
}

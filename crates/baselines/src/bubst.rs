//! BU-BST: the Condensed Cube baseline (Wang et al., ICDE 2002).
//!
//! BU-BST runs BUC's recursion but condenses **base single tuples**
//! (BSTs): a group produced by exactly one fact tuple is stored once, at
//! the least detailed node it belongs to, and conceptually shared with all
//! of that node's plan-tree descendants — the same observation CURE's TTs
//! generalize. Unlike CURE, however, BU-BST:
//!
//! * stores everything in a **single monolithic relation** with one column
//!   per dimension (NULL markers — here [`crate::ALL_SENTINEL`] — for absent
//!   dimensions), wasting space on narrow nodes, and
//! * stores aggregates inline even for BSTs, doing nothing about
//!   dimensional or common-aggregate redundancy.
//!
//! The paper measures the consequence: BU-BST cubes are an order of
//! magnitude larger than CURE cubes, and *two to three orders of
//! magnitude* slower to query, because every node query scans the entire
//! monolithic relation.

use cure_core::Result;
use cure_core::{NodeId, Tuples};
use cure_storage::{Catalog, ColType, Column, HeapFile, Schema};

use crate::{run_buc, BaselineConfig, BaselineStats, BucSink};

/// Relation name of the monolithic BU-BST cube.
pub fn bubst_rel_name(prefix: &str) -> String {
    format!("{prefix}bubst")
}

/// Schema of the monolithic relation: `(node, d0..dD-1, aggr0..aggrY-1,
/// is_bst, rowid)`.
pub fn bubst_schema(d: usize, y: usize) -> Schema {
    let mut cols = Vec::with_capacity(d + y + 3);
    cols.push(Column::new("node", ColType::U64));
    for i in 0..d {
        cols.push(Column::new(format!("d{i}"), ColType::U32));
    }
    for i in 0..y {
        cols.push(Column::new(format!("aggr{i}"), ColType::I64));
    }
    cols.push(Column::new("is_bst", ColType::U64));
    cols.push(Column::new("rowid", ColType::U64));
    Schema::new(cols)
}

/// One decoded row of the monolithic cube (test/reader convenience).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BubstRow {
    /// Flat node id (bitmask).
    pub node: NodeId,
    /// All `D` dimension values ([`crate::ALL_SENTINEL`] = ALL).
    pub vals: Vec<u32>,
    /// Aggregates.
    pub aggs: Vec<i64>,
    /// Whether this is a condensed BST row.
    pub is_bst: bool,
    /// Source fact row-id (BST rows only; 0 otherwise).
    pub rowid: u64,
}

/// In-memory monolithic BU-BST cube.
#[derive(Debug, Default)]
pub struct BubstMemCube {
    /// Every stored row in emission order.
    pub rows: Vec<BubstRow>,
}

impl BubstMemCube {
    /// Expand the condensed cube back to the sorted contents of the node
    /// grouping `grouped_dims` (the BST-sharing inverse): normal rows are
    /// taken as stored, and every BST journaled on the P1 plan path to
    /// this node is re-projected from its source fact tuple in `t`. This
    /// is the comparison hook differential tests use against the oracle.
    pub fn node_contents(&self, grouped_dims: &[usize], t: &Tuples) -> Vec<(Vec<u32>, Vec<i64>)> {
        let flat_id = crate::flatnode::from_dims(grouped_dims);
        let mut rows: Vec<(Vec<u32>, Vec<i64>)> = Vec::new();
        let on_path: Vec<NodeId> = crate::flatnode::path(flat_id);
        for r in &self.rows {
            if !r.is_bst && r.node == flat_id {
                let grouped: Vec<u32> =
                    r.vals.iter().copied().filter(|&v| v != crate::ALL_SENTINEL).collect();
                rows.push((grouped, r.aggs.clone()));
            } else if r.is_bst && on_path.contains(&r.node) {
                let vals: Vec<u32> =
                    grouped_dims.iter().map(|&d| t.dim(r.rowid as usize, d)).collect();
                rows.push((vals, r.aggs.clone()));
            }
        }
        rows.sort();
        rows
    }
}

impl BucSink for BubstMemCube {
    fn write_row(&mut self, node: NodeId, vals: &[u32], aggs: &[i64]) -> Result<()> {
        self.rows.push(BubstRow {
            node,
            vals: vals.to_vec(),
            aggs: aggs.to_vec(),
            is_bst: false,
            rowid: 0,
        });
        Ok(())
    }

    fn write_bst(&mut self, node: NodeId, vals: &[u32], rowid: u64, aggs: &[i64]) -> Result<()> {
        self.rows.push(BubstRow {
            node,
            vals: vals.to_vec(),
            aggs: aggs.to_vec(),
            is_bst: true,
            rowid,
        });
        Ok(())
    }

    fn finish(&mut self) -> Result<BaselineStats> {
        let mut s = BaselineStats::default();
        for r in &self.rows {
            if r.is_bst {
                s.bst_rows += 1;
            } else {
                s.rows += 1;
            }
            // Monolithic fixed-width rows: node + D dims + Y aggs + flag +
            // rowid.
            s.bytes += 8 + r.vals.len() as u64 * 4 + r.aggs.len() as u64 * 8 + 16;
        }
        s.relations = 1;
        Ok(s)
    }
}

/// Disk-backed monolithic BU-BST cube.
pub struct BubstDiskCube<'a> {
    rel: HeapFile,
    schema: Schema,
    d: usize,
    y: usize,
    stats: BaselineStats,
    row_buf: Vec<u8>,
    _catalog: &'a Catalog,
}

impl<'a> BubstDiskCube<'a> {
    /// Create (or replace) the monolithic relation under `prefix`.
    pub fn new(catalog: &'a Catalog, prefix: &str, d: usize, y: usize) -> Result<Self> {
        let schema = bubst_schema(d, y);
        let rel = catalog.create_or_replace(&bubst_rel_name(prefix), schema.clone())?;
        Ok(BubstDiskCube {
            rel,
            row_buf: vec![0u8; schema.row_width()],
            schema,
            d,
            y,
            stats: BaselineStats { relations: 1, ..Default::default() },
            _catalog: catalog,
        })
    }

    fn encode(&mut self, node: NodeId, vals: &[u32], aggs: &[i64], is_bst: bool, rowid: u64) {
        let s = &self.schema;
        self.row_buf[s.offset(0)..s.offset(0) + 8].copy_from_slice(&node.to_le_bytes());
        for (i, &v) in vals.iter().enumerate() {
            let off = s.offset(1 + i);
            self.row_buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
        }
        for (i, &a) in aggs.iter().enumerate() {
            let off = s.offset(1 + self.d + i);
            self.row_buf[off..off + 8].copy_from_slice(&a.to_le_bytes());
        }
        let off = s.offset(1 + self.d + self.y);
        self.row_buf[off..off + 8].copy_from_slice(&u64::from(is_bst).to_le_bytes());
        let off = s.offset(2 + self.d + self.y);
        self.row_buf[off..off + 8].copy_from_slice(&rowid.to_le_bytes());
    }
}

impl BucSink for BubstDiskCube<'_> {
    fn write_row(&mut self, node: NodeId, vals: &[u32], aggs: &[i64]) -> Result<()> {
        self.encode(node, vals, aggs, false, 0);
        let buf = std::mem::take(&mut self.row_buf);
        self.rel.append_raw(&buf)?;
        self.row_buf = buf;
        self.stats.rows += 1;
        self.stats.bytes += self.schema.row_width() as u64;
        Ok(())
    }

    fn write_bst(&mut self, node: NodeId, vals: &[u32], rowid: u64, aggs: &[i64]) -> Result<()> {
        self.encode(node, vals, aggs, true, rowid);
        let buf = std::mem::take(&mut self.row_buf);
        self.rel.append_raw(&buf)?;
        self.row_buf = buf;
        self.stats.bst_rows += 1;
        self.stats.bytes += self.schema.row_width() as u64;
        Ok(())
    }

    fn finish(&mut self) -> Result<BaselineStats> {
        self.rel.flush()?;
        Ok(self.stats.clone())
    }
}

/// Decode a raw monolithic row (used by the query layer).
pub fn decode_bubst_row(schema: &Schema, d: usize, y: usize, row: &[u8]) -> BubstRow {
    let node = Schema::read_u64_at(row, schema.offset(0));
    let vals = (0..d).map(|i| Schema::read_u32_at(row, schema.offset(1 + i))).collect();
    let aggs = (0..y).map(|i| Schema::read_i64_at(row, schema.offset(1 + d + i))).collect();
    let is_bst = Schema::read_u64_at(row, schema.offset(1 + d + y)) != 0;
    let rowid = Schema::read_u64_at(row, schema.offset(2 + d + y));
    BubstRow { node, vals, aggs, is_bst, rowid }
}

/// Build a complete (or iceberg) BU-BST condensed cube.
pub fn build_bubst(
    cards: &[u32],
    t: &Tuples,
    min_support: u64,
    sink: &mut dyn BucSink,
) -> Result<BaselineStats> {
    let cfg = BaselineConfig { min_support, condense_bsts: true };
    run_buc(cards, t, &cfg, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flatnode, ALL_SENTINEL};
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

    /// Expand the condensed cube back to full node contents and compare
    /// with the oracle (the BST-sharing inverse).
    fn assert_bubst_matches_oracle(cards: &[u32], n: usize, seed: u64) {
        let schema = flat_schema(cards);
        let t = random_tuples(cards, n, seed);
        let mut sink = BubstMemCube::default();
        build_bubst(cards, &t, 1, &mut sink).unwrap();
        let coder = cure_core::NodeCoder::new(&schema);
        let d = cards.len();
        for id in coder.all_ids() {
            let levels = coder.decode(id).unwrap();
            let grouped_dims: Vec<usize> =
                (0..d).filter(|&dd| !coder.is_all(&levels, dd)).collect();
            // The public BST-sharing inverse (differential-test hook).
            let got = sink.node_contents(&grouped_dims, &t);
            let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect();
            assert_eq!(got, want, "node {id}");
        }
    }

    #[test]
    fn bubst_matches_oracle_sparse() {
        assert_bubst_matches_oracle(&[40, 30, 20], 200, 3);
    }

    #[test]
    fn bubst_matches_oracle_dense() {
        assert_bubst_matches_oracle(&[3, 3, 3], 500, 11);
    }

    #[test]
    fn bubst_is_smaller_than_buc_on_sparse_data() {
        let cards = [1000u32, 1000, 1000];
        let t = random_tuples(&cards, 300, 21);
        let mut bubst = BubstMemCube::default();
        let s1 = build_bubst(&cards, &t, 1, &mut bubst).unwrap();
        let mut buc = crate::buc::BucMemCube::default();
        let s2 = crate::buc::build_buc(&cards, &t, 1, &mut buc).unwrap();
        assert!(
            s1.total_rows() < s2.total_rows() * 6 / 10,
            "condensation should shrink a sparse cube: {} vs {}",
            s1.total_rows(),
            s2.total_rows()
        );
    }

    #[test]
    fn bubst_iceberg_matches_filtered_oracle() {
        let cards = [5u32, 4];
        let schema = flat_schema(&cards);
        let t = random_tuples(&cards, 400, 17);
        let min_sup = 8u64;
        let mut sink = BubstMemCube::default();
        build_bubst(&cards, &t, min_sup, &mut sink).unwrap();
        // Iceberg cubes keep no BSTs (count 1 < min_sup).
        assert!(sink.rows.iter().all(|r| !r.is_bst));
        let coder = cure_core::NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let levels = coder.decode(id).unwrap();
            let grouped: Vec<usize> = (0..2).filter(|&d| !coder.is_all(&levels, d)).collect();
            let flat_id = flatnode::from_dims(&grouped);
            let mut got: Vec<(Vec<u32>, Vec<i64>)> = sink
                .rows
                .iter()
                .filter(|r| r.node == flat_id)
                .map(|r| {
                    (
                        r.vals.iter().copied().filter(|&v| v != ALL_SENTINEL).collect(),
                        r.aggs.clone(),
                    )
                })
                .collect();
            got.sort();
            let want: Vec<(Vec<u32>, Vec<i64>)> =
                reference::iceberg_filter(&reference::compute_node(&schema, &t, &levels), min_sup)
                    .into_iter()
                    .map(|r| (r.dims, r.aggs))
                    .collect();
            assert_eq!(got, want, "node {id}");
        }
    }

    #[test]
    fn disk_matches_memory() {
        let dir = scratch_dir("bubst");
        let catalog = Catalog::open(&dir).unwrap();
        let cards = [8u32, 6];
        let t = random_tuples(&cards, 200, 31);
        let mut mem = BubstMemCube::default();
        build_bubst(&cards, &t, 1, &mut mem).unwrap();
        let mut disk = BubstDiskCube::new(&catalog, "x_", 2, 1).unwrap();
        let stats = build_bubst(&cards, &t, 1, &mut disk).unwrap();
        assert_eq!(stats.total_rows() as usize, mem.rows.len());
        // Decode all disk rows and compare with memory rows in order.
        let rel = catalog.open_relation(&bubst_rel_name("x_")).unwrap();
        let schema = rel.schema().clone();
        let mut decoded = Vec::new();
        rel.for_each_row(|_, row| decoded.push(decode_bubst_row(&schema, 2, 1, row))).unwrap();
        assert_eq!(decoded, mem.rows);
    }
}

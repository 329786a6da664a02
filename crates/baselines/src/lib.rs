//! # cure-baselines — the comparison cubing algorithms of the paper
//!
//! The evaluation (§7) compares CURE against the two strongest prior
//! ROLAP methods, plus a flat variant of CURE itself:
//!
//! * [`buc`] — **BUC** (Beyer & Ramakrishnan, SIGMOD 1999): bottom-up,
//!   depth-first cube construction with shared sorting, *no* redundancy
//!   elimination; every node's tuples are fully materialized (dimension
//!   values + aggregates), one relation per node.
//! * [`bubst`] — **BU-BST** (Wang et al., ICDE 2002, "Condensed Cube"):
//!   BUC plus base-single-tuple (BST) condensation — a group produced by a
//!   single fact tuple is stored once, at its least detailed node — but
//!   with the *monolithic* storage the paper criticizes: one relation for
//!   the entire cube, NULL markers for absent dimensions, full scans at
//!   query time.
//! * [`fcure`] — **FCURE**: CURE run over the schema truncated to leaf
//!   levels (a flat cube over hierarchical data), used in the paper's
//!   Figures 26–28 trade-off study.
//!
//! All three run over the same [`cure_core::Tuples`] inputs as
//! CURE and report storage through [`BaselineStats`], so the experiment
//! harness can compare construction time, cube size and query response
//! time across methods.

#![forbid(unsafe_code)]

pub mod bubst;
pub mod buc;
pub mod fcure;

use cure_core::Result;
use cure_core::{NodeId, Tuples};

/// Sentinel dimension value meaning "this dimension is at ALL" in
/// materialized baseline rows (the paper's NULL markers).
pub const ALL_SENTINEL: u32 = u32::MAX;

/// Storage statistics for a baseline cube.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BaselineStats {
    /// Fully materialized rows.
    pub rows: u64,
    /// BST (condensed) rows, BU-BST only.
    pub bst_rows: u64,
    /// Logical bytes stored.
    pub bytes: u64,
    /// Relations created.
    pub relations: u64,
}

impl BaselineStats {
    /// Total stored tuples.
    pub fn total_rows(&self) -> u64 {
        self.rows + self.bst_rows
    }
}

/// Receives materialized rows from the shared BUC-style recursion.
///
/// `vals` always has one entry per dimension; ungrouped dimensions carry
/// [`ALL_SENTINEL`].
pub trait BucSink {
    /// A fully materialized aggregate row of `node`.
    fn write_row(&mut self, node: NodeId, vals: &[u32], aggs: &[i64]) -> Result<()>;

    /// A condensed BST row (BU-BST only): the group consists of the single
    /// fact tuple `rowid`; `aggs` are its measures.
    fn write_bst(&mut self, node: NodeId, vals: &[u32], rowid: u64, aggs: &[i64]) -> Result<()>;

    /// Flush and return the final statistics.
    fn finish(&mut self) -> Result<BaselineStats>;
}

/// Configuration shared by the baseline builders.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Iceberg minimum support (1 = complete cube).
    pub min_support: u64,
    /// Condense base single tuples (true = BU-BST semantics, false = BUC).
    pub condense_bsts: bool,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig { min_support: 1, condense_bsts: false }
    }
}

/// Shared driver: run the BUC recursion over the **leaf levels** of
/// `n_dims` dimensions with the given cardinalities.
///
/// This is plan P1: flat, bottom-up, depth-first, counting-sorted. Both
/// BUC and BU-BST use it; they differ only in `condense_bsts` and in the
/// sink layout.
pub fn run_buc(
    cards: &[u32],
    t: &Tuples,
    cfg: &BaselineConfig,
    sink: &mut dyn BucSink,
) -> Result<BaselineStats> {
    let d = cards.len();
    assert_eq!(t.n_dims(), d, "tuple shape mismatch");
    let mut rec = BucRec {
        cards,
        t,
        vals: vec![ALL_SENTINEL; d],
        agg_scratch: vec![0i64; t.n_measures()],
        sorter: cure_core::Sorter::new(cure_core::SortPolicy::Auto),
        cfg,
        sink,
        // Flat node ids: bit d set ⇔ dimension d grouped. (The flat
        // lattice is small enough for a bitmask; distinct from the
        // hierarchical NodeCoder ids on purpose — baseline cubes are flat.)
        node: 0,
    };
    let mut idx: Vec<u32> = (0..t.len() as u32).collect();
    rec.execute(&mut idx, 0)?;
    rec.sink.finish()
}

struct BucRec<'a> {
    cards: &'a [u32],
    t: &'a Tuples,
    vals: Vec<u32>,
    agg_scratch: Vec<i64>,
    sorter: cure_core::Sorter,
    cfg: &'a BaselineConfig,
    sink: &'a mut dyn BucSink,
    node: NodeId,
}

impl BucRec<'_> {
    fn execute(&mut self, idx: &mut [u32], dim: usize) -> Result<()> {
        // Aggregate the current group.
        self.agg_scratch.fill(0);
        let mut total = 0u64;
        let mut min_rowid = u64::MAX;
        for &u in idx.iter() {
            let u = u as usize;
            for (a, &v) in self.agg_scratch.iter_mut().zip(self.t.aggs_of(u)) {
                *a += v;
            }
            total += self.t.count(u);
            min_rowid = min_rowid.min(self.t.rowid(u));
        }
        if total < self.cfg.min_support {
            return Ok(());
        }
        if self.cfg.condense_bsts && total == 1 {
            let aggs = std::mem::take(&mut self.agg_scratch);
            self.sink.write_bst(self.node, &self.vals, min_rowid, &aggs)?;
            self.agg_scratch = aggs;
            return Ok(()); // prune: ancestors share this BST
        }
        let aggs = std::mem::take(&mut self.agg_scratch);
        self.sink.write_row(self.node, &self.vals, &aggs)?;
        self.agg_scratch = aggs;
        // Recurse into each remaining dimension (shared-sort order).
        for d in dim..self.cards.len() {
            let t = self.t;
            self.sorter.sort_by_key(idx, self.cards[d], |u| t.dim(u as usize, d));
            self.node |= 1 << d;
            let mut s = 0usize;
            while s < idx.len() {
                let k = t.dim(idx[s] as usize, d);
                let mut e = s + 1;
                while e < idx.len() && t.dim(idx[e] as usize, d) == k {
                    e += 1;
                }
                self.vals[d] = k;
                self.execute(&mut idx[s..e], d + 1)?;
                s = e;
            }
            self.vals[d] = ALL_SENTINEL;
            self.node &= !(1 << d);
        }
        Ok(())
    }
}

/// Flat node id helpers for the baselines' bitmask node ids.
pub mod flatnode {
    use super::NodeId;

    /// Node id with the given grouped dimensions.
    pub fn from_dims(dims: &[usize]) -> NodeId {
        dims.iter().fold(0, |acc, &d| acc | (1 << d))
    }

    /// Whether dimension `d` is grouped in `node`.
    pub fn has_dim(node: NodeId, d: usize) -> bool {
        node & (1 << d) != 0
    }

    /// Number of grouped dimensions.
    pub fn arity(node: NodeId) -> usize {
        node.count_ones() as usize
    }

    /// The BUC (P1) plan-tree parent of a flat node: drop the *highest*
    /// grouped dimension (solid-edge inverse). `None` for node ∅.
    pub fn parent(node: NodeId) -> Option<NodeId> {
        if node == 0 {
            return None;
        }
        let top = 63 - node.leading_zeros() as usize;
        Some(node & !(1 << top))
    }

    /// The P1 path from ∅ to `node` (inclusive, root first).
    pub fn path(node: NodeId) -> Vec<NodeId> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatnode_helpers() {
        let n = flatnode::from_dims(&[0, 2]);
        assert_eq!(n, 0b101);
        assert!(flatnode::has_dim(n, 0));
        assert!(!flatnode::has_dim(n, 1));
        assert_eq!(flatnode::arity(n), 2);
        assert_eq!(flatnode::parent(n), Some(0b001));
        assert_eq!(flatnode::parent(0), None);
        assert_eq!(flatnode::path(0b101), vec![0, 0b001, 0b101]);
    }

    #[test]
    fn flatnode_path_matches_buc_recursion_order() {
        // In BUC's plan, ABC's ancestors are ∅, A, AB.
        let abc = flatnode::from_dims(&[0, 1, 2]);
        assert_eq!(flatnode::path(abc), vec![0, 0b001, 0b011, 0b111]);
    }
}

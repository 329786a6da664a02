//! In-memory tuple sets: the unit of cubing work.
//!
//! CURE's recursion operates on a loaded tuple set — either the whole fact
//! table (when it fits in the memory budget), one sound partition, or the
//! small aggregated relation *N* built during partitioning (§4). To make
//! all three cases uniform, every in-memory tuple carries:
//!
//! * `dims` — leaf-level dimension ids (for *N*, dimension 0 holds a
//!   *representative leaf* of its level-`L+1` group, valid for lookups at
//!   levels ≥ L+1),
//! * `aggs` — the running aggregate values (original tuples: the measures),
//! * `count` — how many original fact tuples it represents (original: 1),
//! * `rowid` — the minimum original row-id it represents.
//!
//! `count` is what makes trivial-tuple detection correct when cubing over
//! *N*: a group is trivial only when the **total represented count** is 1,
//! not when the group has one (already aggregated) tuple.

use cure_storage::{ColType, Column, HeapFile, Schema};

use crate::error::{CubeError, Result};

/// A columnar-ish (row-major, flat-buffer) set of cube input tuples.
#[derive(Debug, Clone)]
pub struct Tuples {
    n_dims: usize,
    n_measures: usize,
    dims: Vec<u32>,
    aggs: Vec<i64>,
    counts: Vec<u64>,
    rowids: Vec<u64>,
}

impl Tuples {
    /// Create an empty set for `n_dims` dimensions and `n_measures`
    /// measures.
    pub fn new(n_dims: usize, n_measures: usize) -> Self {
        Tuples {
            n_dims,
            n_measures,
            dims: Vec::new(),
            aggs: Vec::new(),
            counts: Vec::new(),
            rowids: Vec::new(),
        }
    }

    /// Pre-allocate for `n` tuples.
    pub fn with_capacity(n_dims: usize, n_measures: usize, n: usize) -> Self {
        Tuples {
            n_dims,
            n_measures,
            dims: Vec::with_capacity(n * n_dims),
            aggs: Vec::with_capacity(n * n_measures),
            counts: Vec::with_capacity(n),
            rowids: Vec::with_capacity(n),
        }
    }

    /// Number of dimensions per tuple.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Number of measures per tuple.
    pub fn n_measures(&self) -> usize {
        self.n_measures
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the set holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Append an original fact tuple (count 1).
    pub fn push_fact(&mut self, dims: &[u32], measures: &[i64], rowid: u64) {
        self.push(dims, measures, 1, rowid);
    }

    /// Append a (possibly pre-aggregated) tuple.
    pub fn push(&mut self, dims: &[u32], aggs: &[i64], count: u64, rowid: u64) {
        debug_assert_eq!(dims.len(), self.n_dims);
        debug_assert_eq!(aggs.len(), self.n_measures);
        self.dims.extend_from_slice(dims);
        self.aggs.extend_from_slice(aggs);
        self.counts.push(count);
        self.rowids.push(rowid);
    }

    /// Dimension `d` of tuple `t` (leaf id).
    #[inline]
    pub fn dim(&self, t: usize, d: usize) -> u32 {
        self.dims[t * self.n_dims + d]
    }

    /// All dimension ids of tuple `t`.
    #[inline]
    pub fn dims_of(&self, t: usize) -> &[u32] {
        &self.dims[t * self.n_dims..(t + 1) * self.n_dims]
    }

    /// Aggregate values of tuple `t`.
    #[inline]
    pub fn aggs_of(&self, t: usize) -> &[i64] {
        &self.aggs[t * self.n_measures..(t + 1) * self.n_measures]
    }

    /// Represented fact-tuple count of tuple `t`.
    #[inline]
    pub fn count(&self, t: usize) -> u64 {
        self.counts[t]
    }

    /// Minimum original row-id of tuple `t`.
    #[inline]
    pub fn rowid(&self, t: usize) -> u64 {
        self.rowids[t]
    }

    /// Approximate in-memory footprint in bytes (used against the memory
    /// budget when deciding whether partitioning is needed).
    pub fn mem_bytes(&self) -> usize {
        self.dims.len() * 4 + self.aggs.len() * 8 + self.counts.len() * 8 + self.rowids.len() * 8
    }

    /// Per-tuple in-memory footprint for a given shape.
    pub fn tuple_bytes(n_dims: usize, n_measures: usize) -> usize {
        n_dims * 4 + n_measures * 8 + 8 + 8
    }

    /// The on-disk schema of a fact table with this shape: `d0..` `U32`
    /// columns then `m0..` `I64` columns. Row-ids are implicit (dense).
    pub fn fact_schema(n_dims: usize, n_measures: usize) -> Schema {
        Schema::fact(n_dims, n_measures)
    }

    /// The on-disk schema of a spill partition: dims, aggs, then explicit
    /// `count` and `rowid` columns (partitions lose positional row-ids).
    pub fn partition_schema(n_dims: usize, n_measures: usize) -> Schema {
        let mut cols = Vec::with_capacity(n_dims + n_measures + 2);
        for i in 0..n_dims {
            cols.push(Column::new(format!("d{i}"), ColType::U32));
        }
        for i in 0..n_measures {
            cols.push(Column::new(format!("m{i}"), ColType::I64));
        }
        cols.push(Column::new("count", ColType::U64));
        cols.push(Column::new("rowid", ColType::U64));
        Schema::new(cols)
    }

    /// Load a whole on-disk fact table (schema
    /// [`fact_schema`](Self::fact_schema)); row-ids are the dense
    /// positions.
    pub fn load_fact(heap: &HeapFile, n_dims: usize, n_measures: usize) -> Result<Self> {
        let schema = heap.schema();
        if schema.arity() != n_dims + n_measures {
            return Err(CubeError::Schema(format!(
                "fact relation has {} columns, expected {}",
                schema.arity(),
                n_dims + n_measures
            )));
        }
        let mut t = Tuples::with_capacity(n_dims, n_measures, heap.num_rows() as usize);
        let mut dims = vec![0u32; n_dims];
        let mut aggs = vec![0i64; n_measures];
        heap.for_each_row(|rowid, row| {
            for (d, v) in dims.iter_mut().enumerate() {
                *v = Schema::read_u32_at(row, schema.offset(d));
            }
            for (m, v) in aggs.iter_mut().enumerate() {
                *v = Schema::read_i64_at(row, schema.offset(n_dims + m));
            }
            t.push_fact(&dims, &aggs, rowid);
        })?;
        Ok(t)
    }

    /// Load a spill partition (schema
    /// [`partition_schema`](Self::partition_schema)).
    pub fn load_partition(heap: &HeapFile, n_dims: usize, n_measures: usize) -> Result<Self> {
        let schema = heap.schema();
        if schema.arity() != n_dims + n_measures + 2 {
            return Err(CubeError::Schema(format!(
                "partition relation has {} columns, expected {}",
                schema.arity(),
                n_dims + n_measures + 2
            )));
        }
        let mut t = Tuples::with_capacity(n_dims, n_measures, heap.num_rows() as usize);
        let mut dims = vec![0u32; n_dims];
        let mut aggs = vec![0i64; n_measures];
        heap.for_each_row(|_, row| {
            for (d, v) in dims.iter_mut().enumerate() {
                *v = Schema::read_u32_at(row, schema.offset(d));
            }
            for (m, v) in aggs.iter_mut().enumerate() {
                *v = Schema::read_i64_at(row, schema.offset(n_dims + m));
            }
            let count = Schema::read_u64_at(row, schema.offset(n_dims + n_measures));
            let rowid = Schema::read_u64_at(row, schema.offset(n_dims + n_measures + 1));
            t.push(&dims, &aggs, count, rowid);
        })?;
        Ok(t)
    }

    /// Write this set in the partition layout (schema
    /// [`partition_schema`](Self::partition_schema)), preserving counts and
    /// rowids so [`load_partition`](Self::load_partition) restores the set
    /// in the same order. Used to persist the aggregated relation *N* for
    /// crash recovery: a resumed build reloads *N* instead of re-scanning
    /// the fact table.
    pub fn store_partition(&self, heap: &mut HeapFile) -> Result<()> {
        let schema = heap.schema().clone();
        if schema.arity() != self.n_dims + self.n_measures + 2 {
            return Err(CubeError::Schema(format!(
                "partition relation has {} columns, expected {}",
                schema.arity(),
                self.n_dims + self.n_measures + 2
            )));
        }
        let mut row = vec![0u8; schema.row_width()];
        for t in 0..self.len() {
            for (d, &v) in self.dims_of(t).iter().enumerate() {
                row[schema.offset(d)..schema.offset(d) + 4].copy_from_slice(&v.to_le_bytes());
            }
            for (m, &v) in self.aggs_of(t).iter().enumerate() {
                let off = schema.offset(self.n_dims + m);
                row[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
            let off = schema.offset(self.n_dims + self.n_measures);
            row[off..off + 8].copy_from_slice(&self.count(t).to_le_bytes());
            let off = schema.offset(self.n_dims + self.n_measures + 1);
            row[off..off + 8].copy_from_slice(&self.rowid(t).to_le_bytes());
            heap.append_raw(&row)?;
        }
        heap.flush()?;
        Ok(())
    }

    /// Write this set as an on-disk fact table (counts/rowids dropped;
    /// intended for original, count-1 data — debug-asserted).
    pub fn store_fact(&self, heap: &mut HeapFile) -> Result<()> {
        let w = heap.schema().row_width();
        let mut row = vec![0u8; w];
        let schema = heap.schema().clone();
        for t in 0..self.len() {
            debug_assert_eq!(self.count(t), 1, "store_fact expects original tuples");
            for (d, &v) in self.dims_of(t).iter().enumerate() {
                row[schema.offset(d)..schema.offset(d) + 4].copy_from_slice(&v.to_le_bytes());
            }
            for (m, &v) in self.aggs_of(t).iter().enumerate() {
                let off = schema.offset(self.n_dims + m);
                row[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
            heap.append_raw(&row)?;
        }
        heap.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cure_storage::scratch::scratch_dir;
    use cure_storage::{Catalog, Value};

    fn fresh_catalog(tag: &str) -> Catalog {
        let dir = scratch_dir(&format!("tuples_{tag}"));
        Catalog::open(&dir).unwrap()
    }

    #[test]
    fn push_and_access() {
        let mut t = Tuples::new(3, 2);
        t.push_fact(&[1, 2, 3], &[10, 20], 0);
        t.push(&[4, 5, 6], &[30, 40], 7, 42);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dims_of(0), &[1, 2, 3]);
        assert_eq!(t.aggs_of(1), &[30, 40]);
        assert_eq!(t.count(0), 1);
        assert_eq!(t.count(1), 7);
        assert_eq!(t.rowid(1), 42);
        assert_eq!(t.dim(1, 2), 6);
    }

    #[test]
    fn mem_accounting() {
        let mut t = Tuples::new(2, 1);
        t.push_fact(&[0, 0], &[0], 0);
        assert_eq!(t.mem_bytes(), 2 * 4 + 8 + 8 + 8);
        assert_eq!(Tuples::tuple_bytes(2, 1), t.mem_bytes());
    }

    #[test]
    fn fact_store_load_roundtrip() {
        let cat = fresh_catalog("fact");
        let mut src = Tuples::new(2, 2);
        for i in 0..1000u32 {
            src.push_fact(&[i % 7, i % 11], &[i as i64, -(i as i64)], i as u64);
        }
        let mut heap = cat.create_relation("facts", Tuples::fact_schema(2, 2)).unwrap();
        src.store_fact(&mut heap).unwrap();
        let loaded = Tuples::load_fact(&heap, 2, 2).unwrap();
        assert_eq!(loaded.len(), 1000);
        for t in 0..1000 {
            assert_eq!(loaded.dims_of(t), src.dims_of(t));
            assert_eq!(loaded.aggs_of(t), src.aggs_of(t));
            assert_eq!(loaded.rowid(t), t as u64);
            assert_eq!(loaded.count(t), 1);
        }
    }

    #[test]
    fn partition_roundtrip_preserves_counts_and_rowids() {
        let cat = fresh_catalog("part");
        let schema = Tuples::partition_schema(2, 1);
        let mut heap = cat.create_relation("p0", schema.clone()).unwrap();
        // Write partition rows through the raw Value API.
        heap.append(&[
            Value::U32(3),
            Value::U32(4),
            Value::I64(99),
            Value::U64(5),
            Value::U64(1234),
        ])
        .unwrap();
        heap.flush().unwrap();
        let t = Tuples::load_partition(&heap, 2, 1).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.dims_of(0), &[3, 4]);
        assert_eq!(t.aggs_of(0), &[99]);
        assert_eq!(t.count(0), 5);
        assert_eq!(t.rowid(0), 1234);
    }

    #[test]
    fn partition_store_load_roundtrip_preserves_order() {
        let cat = fresh_catalog("partstore");
        let mut src = Tuples::new(2, 1);
        for i in 0..500u32 {
            src.push(&[i % 5, i % 9], &[i as i64 * 3], (i % 4) as u64 + 1, 1000 + i as u64);
        }
        let mut heap = cat.create_relation("n", Tuples::partition_schema(2, 1)).unwrap();
        src.store_partition(&mut heap).unwrap();
        let loaded = Tuples::load_partition(&heap, 2, 1).unwrap();
        assert_eq!(loaded.len(), src.len());
        for t in 0..src.len() {
            assert_eq!(loaded.dims_of(t), src.dims_of(t));
            assert_eq!(loaded.aggs_of(t), src.aggs_of(t));
            assert_eq!(loaded.count(t), src.count(t));
            assert_eq!(loaded.rowid(t), src.rowid(t));
        }
        // Shape mismatches are rejected up front.
        let mut wrong = cat.create_relation("w", Tuples::partition_schema(3, 1)).unwrap();
        assert!(src.store_partition(&mut wrong).is_err());
    }

    #[test]
    fn load_fact_arity_mismatch_rejected() {
        let cat = fresh_catalog("arity");
        let heap = cat.create_relation("f", Tuples::fact_schema(2, 1)).unwrap();
        assert!(Tuples::load_fact(&heap, 3, 1).is_err());
        assert!(Tuples::load_partition(&heap, 2, 1).is_err());
    }
}

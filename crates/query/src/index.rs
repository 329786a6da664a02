//! Value indexes on the fact table, and selective node queries.
//!
//! §5.3 / §8 of the paper: "instead of indexing the entire cube, which is
//! expensive, we can index just the original fact table consuming much
//! cheaper resources", and future work promises "indexing for
//! accelerating selective queries". This module implements that idea:
//!
//! * [`ValueIndex`] — for one dimension of a fact relation, a compressed
//!   bitmap of row-ids per leaf value, serialized as a single catalog blob
//!   (`<fact>_vidx_d<d>`): `[card u32][offsets…][bitmap bytes…]`.
//! * [`CureCube::selective_query`](crate::CureCube::selective_query) —
//!   a node query with equality predicates `dimension d at level l = v`,
//!   answered by *pushing the predicate down* to row-id sets: TT lists are
//!   intersected with the index bitmaps (no fact fetch for rejected
//!   tuples), NT/CAT references are membership-tested before the fact
//!   fetch. Only qualifying rows ever touch the fact table.
//!
//! A predicate's level must be **at or above** the node's level for that
//! dimension (otherwise a single aggregated row mixes predicate values
//! and the selection is not well defined on the node).

use cure_core::CubeSchema;
use cure_storage::{BitmapIndex, Catalog, HeapFile, Schema};

use crate::error::QueryError;

type Result<T> = std::result::Result<T, QueryError>;

/// Blob name of the value index for dimension `d` of relation `fact_rel`.
pub fn vidx_blob_name(fact_rel: &str, d: usize) -> String {
    format!("{fact_rel}_vidx_d{d}")
}

/// A per-leaf-value row-id index for one dimension of a fact relation.
pub struct ValueIndex {
    /// Bitmap per leaf value (index = leaf id).
    bitmaps: Vec<BitmapIndex>,
}

impl ValueIndex {
    /// Build the index for dimension `d` by scanning the fact relation.
    /// A fact value outside `0..cardinality` (a corrupt or mismatched
    /// fact table) is a [`QueryError::Malformed`], not a panic.
    pub fn build(fact: &HeapFile, d: usize, cardinality: u32) -> Result<Self> {
        let schema = fact.schema().clone();
        let off = schema.offset(d);
        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); cardinality as usize];
        let mut bad: Option<(u64, u32)> = None;
        fact.for_each_row(|rowid, row| {
            let v = Schema::read_u32_at(row, off);
            match lists.get_mut(v as usize) {
                Some(list) => list.push(rowid),
                None => bad = bad.or(Some((rowid, v))),
            }
        })?;
        if let Some((rowid, v)) = bad {
            return Err(QueryError::Malformed(format!(
                "fact row {rowid} holds value {v} for dimension {d}, \
                 past the declared cardinality {cardinality}"
            )));
        }
        Ok(ValueIndex { bitmaps: lists.iter().map(|l| BitmapIndex::from_sorted(l)).collect() })
    }

    /// Number of distinct leaf values covered.
    pub fn cardinality(&self) -> u32 {
        self.bitmaps.len() as u32
    }

    /// The row-id bitmap of one leaf value. Errors if `leaf` lies past
    /// the indexed cardinality (e.g. an index loaded from a truncated
    /// blob or built against a different schema).
    pub fn rows_for(&self, leaf: u32) -> Result<&BitmapIndex> {
        self.bitmaps.get(leaf as usize).ok_or_else(|| {
            QueryError::Malformed(format!(
                "leaf value {leaf} past the index cardinality {}",
                self.bitmaps.len()
            ))
        })
    }

    /// The row-id bitmap of every fact tuple whose dimension value *at
    /// level `l`* equals `value` — the union of the member leaves'
    /// bitmaps.
    pub fn rows_for_level(
        &self,
        schema: &CubeSchema,
        d: usize,
        l: usize,
        value: u32,
    ) -> Result<BitmapIndex> {
        let dim = schema
            .dims()
            .get(d)
            .ok_or_else(|| QueryError::Malformed(format!("no dimension {d} in the schema")))?;
        let mut acc = BitmapIndex::from_sorted(&[]);
        for leaf in 0..dim.leaf_cardinality() {
            if dim.value_at(l, leaf) == value {
                acc = acc.union(self.rows_for(leaf)?);
            }
        }
        Ok(acc)
    }

    /// Total compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bitmaps.iter().map(|b| b.size_bytes()).sum()
    }

    /// Serialize to one blob: `[card u32][len u32 per value][bitmaps…]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.bitmaps.len() as u32).to_le_bytes());
        let encoded: Vec<Vec<u8>> = self.bitmaps.iter().map(|b| b.to_bytes()).collect();
        for e in &encoded {
            out.extend_from_slice(&(e.len() as u32).to_le_bytes());
        }
        for e in &encoded {
            out.extend_from_slice(e);
        }
        out
    }

    /// Deserialize a blob produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let take_u32 = |pos: &mut usize| -> Result<u32> {
            let b = bytes
                .get(*pos..*pos + 4)
                .and_then(|s| <[u8; 4]>::try_from(s).ok())
                .ok_or_else(|| QueryError::Malformed("truncated value index".into()))?;
            *pos += 4;
            Ok(u32::from_le_bytes(b))
        };
        let mut pos = 0usize;
        let card = take_u32(&mut pos)? as usize;
        // Validate before allocating: the header alone needs 4 bytes per
        // value, so a corrupt cardinality cannot trigger a huge reserve.
        if bytes.len().saturating_sub(pos) / 4 < card {
            return Err(QueryError::Malformed(format!(
                "value index claims {card} values but holds only {} bytes",
                bytes.len()
            )));
        }
        let mut lens = Vec::with_capacity(card);
        for _ in 0..card {
            lens.push(take_u32(&mut pos)? as usize);
        }
        let mut bitmaps = Vec::with_capacity(card);
        for len in lens {
            let chunk = pos
                .checked_add(len)
                .and_then(|end| bytes.get(pos..end))
                .ok_or_else(|| QueryError::Malformed("truncated value index body".into()))?;
            bitmaps.push(BitmapIndex::from_bytes(chunk)?);
            pos += len;
        }
        Ok(ValueIndex { bitmaps })
    }

    /// Build indexes for every dimension of a fact relation and store them
    /// as catalog blobs. Returns total bytes written.
    pub fn build_all(catalog: &Catalog, fact_rel: &str, schema: &CubeSchema) -> Result<usize> {
        let fact = catalog.open_relation(fact_rel)?;
        let mut total = 0usize;
        for (d, dim) in schema.dims().iter().enumerate() {
            let idx = ValueIndex::build(&fact, d, dim.leaf_cardinality())?;
            let bytes = idx.to_bytes();
            total += bytes.len();
            catalog.write_blob(&vidx_blob_name(fact_rel, d), &bytes)?;
        }
        Ok(total)
    }

    /// Load the index of dimension `d` for `fact_rel`.
    pub fn load(catalog: &Catalog, fact_rel: &str, d: usize) -> Result<Self> {
        Self::from_bytes(&catalog.read_blob(&vidx_blob_name(fact_rel, d))?)
    }
}

/// An equality predicate: dimension `dim` at hierarchy level `level`
/// equals `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Schema dimension index.
    pub dim: usize,
    /// Hierarchy level the predicate value lives at.
    pub level: usize,
    /// The required value at that level.
    pub value: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cure_core::{Dimension, Tuples};
    use cure_storage::scratch::scratch_dir;

    fn fresh_catalog(tag: &str) -> Catalog {
        let dir = scratch_dir(&format!("vidx_{tag}"));
        Catalog::open(&dir).unwrap()
    }

    fn schema() -> CubeSchema {
        let a = Dimension::linear("A", 12, &[(0..12).map(|v| v / 4).collect()]).unwrap();
        let b = Dimension::flat("B", 6);
        CubeSchema::new(vec![a, b], 1).unwrap()
    }

    fn store_facts(catalog: &Catalog, schema: &CubeSchema, n: usize) -> Tuples {
        let mut t = Tuples::new(2, 1);
        let mut x = 17u64;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t.push_fact(&[(x % 12) as u32, ((x >> 8) % 6) as u32], &[(x % 50) as i64], i as u64);
        }
        let mut heap = catalog.create_or_replace("facts", Tuples::fact_schema(2, 1)).unwrap();
        t.store_fact(&mut heap).unwrap();
        let _ = schema;
        t
    }

    #[test]
    fn index_matches_scan() {
        let catalog = fresh_catalog("scan");
        let schema = schema();
        let t = store_facts(&catalog, &schema, 1_000);
        let fact = catalog.open_relation("facts").unwrap();
        let idx = ValueIndex::build(&fact, 0, 12).unwrap();
        for v in 0..12u32 {
            let expect: Vec<u64> =
                (0..t.len()).filter(|&i| t.dim(i, 0) == v).map(|i| i as u64).collect();
            assert_eq!(idx.rows_for(v).unwrap().iter().collect::<Vec<_>>(), expect, "value {v}");
        }
        // Coverage: every row-id appears exactly once across values.
        let total: u64 = (0..12u32).map(|v| idx.rows_for(v).unwrap().count()).sum();
        assert_eq!(total, 1_000);
        assert!(idx.rows_for(12).is_err(), "out-of-range leaf must not panic");
    }

    #[test]
    fn level_lookup_unions_leaves() {
        let catalog = fresh_catalog("level");
        let schema = schema();
        let t = store_facts(&catalog, &schema, 800);
        let fact = catalog.open_relation("facts").unwrap();
        let idx = ValueIndex::build(&fact, 0, 12).unwrap();
        // Level 1 value 2 = leaves 8..12.
        let bm = idx.rows_for_level(&schema, 0, 1, 2).unwrap();
        let expect: Vec<u64> =
            (0..t.len()).filter(|&i| t.dim(i, 0) / 4 == 2).map(|i| i as u64).collect();
        assert_eq!(bm.iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn serialization_roundtrip() {
        let catalog = fresh_catalog("serde");
        let schema = schema();
        store_facts(&catalog, &schema, 500);
        let written = ValueIndex::build_all(&catalog, "facts", &schema).unwrap();
        assert!(written > 0);
        let idx = ValueIndex::load(&catalog, "facts", 1).unwrap();
        assert_eq!(idx.cardinality(), 6);
        let total: u64 = (0..6u32).map(|v| idx.rows_for(v).unwrap().count()).sum();
        assert_eq!(total, 500);
        assert!(ValueIndex::load(&catalog, "facts", 5).is_err(), "no such dimension");
    }

    #[test]
    fn corrupt_blob_rejected() {
        assert!(ValueIndex::from_bytes(&[1, 0]).is_err());
        assert!(ValueIndex::from_bytes(&u32::MAX.to_le_bytes()).is_err());
    }

    #[test]
    fn undersized_cardinality_is_an_error() {
        // A fact table whose values exceed the declared cardinality (a
        // corrupt directory or a stale schema) must error, not panic.
        let catalog = fresh_catalog("badcard");
        let schema = schema();
        store_facts(&catalog, &schema, 100);
        let fact = catalog.open_relation("facts").unwrap();
        assert!(matches!(ValueIndex::build(&fact, 0, 4), Err(QueryError::Malformed(_))));
    }
}

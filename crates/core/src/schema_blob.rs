//! Self-describing sharded catalogs: a [`CubeSchema`] serialized into a
//! catalog blob.
//!
//! A shard server process (`cure-shard-serve`) is handed nothing but
//! a replica directory; it cannot re-derive the schema from the dataset
//! generator the way the CLI's bench paths do. `build_shard_cubes`
//! therefore writes the schema it built against into the catalog as the
//! `shard_schema` blob, and replication ships it, so any replica
//! directory is openable by itself.
//!
//! The format is a small versioned length-prefixed binary layout (all
//! integers little-endian). Reconstruction goes through
//! [`Dimension::from_levels`], which re-validates the hierarchy and
//! re-derives the descent tree — the blob only carries what validation
//! cannot recompute: per-level names, cardinalities, parent edges and
//! leaf maps, plus the measure count and aggregate functions.

use cure_storage::Catalog;

use crate::aggfn::AggFn;
use crate::error::{CubeError, Result};
use crate::hierarchy::{CubeSchema, Dimension, Level};

/// Catalog blob name the schema is stored under.
pub const SCHEMA_BLOB: &str = "shard_schema";

const MAGIC: &[u8; 4] = b"CSCH";
const VERSION: u8 = 1;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u32(out, v);
    }
}

/// Serialize `schema` into the blob byte layout.
pub fn encode_schema(schema: &CubeSchema) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_u32(&mut out, schema.num_measures() as u32);
    put_u32(&mut out, schema.agg_fns().len() as u32);
    for f in schema.agg_fns() {
        out.push(match f {
            AggFn::Sum => 0,
            AggFn::Min => 1,
            AggFn::Max => 2,
        });
    }
    put_u32(&mut out, schema.num_dims() as u32);
    for dim in schema.dims() {
        put_str(&mut out, dim.name());
        put_u32(&mut out, dim.num_levels() as u32);
        for lv in dim.levels() {
            put_str(&mut out, &lv.name);
            put_u32(&mut out, lv.cardinality);
            let parents: Vec<u32> = lv.parents.iter().map(|&p| p as u32).collect();
            put_u32s(&mut out, &parents);
            put_u32s(&mut out, &lv.leaf_map);
        }
    }
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CubeError::Schema("schema blob truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A length prefix that will be used to size an allocation; bounded
    /// by the bytes actually remaining so a corrupt prefix cannot force
    /// a huge reservation.
    fn len_prefix(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(CubeError::Schema(format!(
                "schema blob length prefix {n} exceeds remaining {} bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String> {
        let n = self.len_prefix()?;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec())
            .map_err(|_| CubeError::Schema("schema blob holds invalid utf-8".into()))
    }

    fn u32s(&mut self) -> Result<Vec<u32>> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return Err(CubeError::Schema(format!(
                "schema blob array prefix {n} exceeds remaining bytes"
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }
}

/// Reconstruct a schema from [`encode_schema`] bytes. Hierarchies are
/// re-validated by [`Dimension::from_levels`]; a tampered blob fails
/// typed, it does not build a bad schema.
pub fn decode_schema(bytes: &[u8]) -> Result<CubeSchema> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err(CubeError::Schema("schema blob has bad magic".into()));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(CubeError::Schema(format!("schema blob version {version} not supported")));
    }
    let n_measures = c.u32()? as usize;
    let n_fns = c.u32()? as usize;
    let mut agg_fns = Vec::with_capacity(n_fns.min(1024));
    for _ in 0..n_fns {
        agg_fns.push(match c.u8()? {
            0 => AggFn::Sum,
            1 => AggFn::Min,
            2 => AggFn::Max,
            t => return Err(CubeError::Schema(format!("schema blob has bad agg tag {t}"))),
        });
    }
    let n_dims = c.u32()? as usize;
    let mut dims = Vec::with_capacity(n_dims.min(1024));
    for _ in 0..n_dims {
        let name = c.string()?;
        let n_levels = c.u32()? as usize;
        let mut levels = Vec::with_capacity(n_levels.min(1024));
        for _ in 0..n_levels {
            let lname = c.string()?;
            let cardinality = c.u32()?;
            let parents = c.u32s()?.into_iter().map(|p| p as usize).collect();
            let leaf_map = c.u32s()?;
            levels.push(Level { name: lname, cardinality, parents, leaf_map });
        }
        dims.push(Dimension::from_levels(name, levels)?);
    }
    if c.pos != bytes.len() {
        return Err(CubeError::Schema("schema blob has trailing bytes".into()));
    }
    CubeSchema::new(dims, n_measures)?.with_agg_fns(agg_fns)
}

/// Write `schema` into `catalog` under [`SCHEMA_BLOB`].
pub fn write_schema_blob(catalog: &Catalog, schema: &CubeSchema) -> Result<()> {
    catalog.write_blob(SCHEMA_BLOB, &encode_schema(schema))?;
    Ok(())
}

/// Read the schema blob back, if one was written.
pub fn read_schema_blob(catalog: &Catalog) -> Result<Option<CubeSchema>> {
    if !catalog.blob_exists(SCHEMA_BLOB) {
        return Ok(None);
    }
    let bytes = catalog.read_blob(SCHEMA_BLOB)?;
    decode_schema(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> CubeSchema {
        let a = Dimension::linear("A", 6, &[vec![0, 0, 1, 1, 2, 2], vec![0, 0, 1]]).unwrap();
        let b = Dimension::flat("B", 4);
        CubeSchema::new(vec![a, b], 2).unwrap().with_agg_fns(vec![AggFn::Sum, AggFn::Max]).unwrap()
    }

    #[test]
    fn round_trips_through_bytes() {
        let schema = sample_schema();
        let decoded = decode_schema(&encode_schema(&schema)).unwrap();
        assert_eq!(decoded.num_dims(), schema.num_dims());
        assert_eq!(decoded.num_measures(), schema.num_measures());
        assert_eq!(decoded.agg_fns(), schema.agg_fns());
        assert_eq!(decoded.num_lattice_nodes(), schema.num_lattice_nodes());
        for (d1, d2) in schema.dims().iter().zip(decoded.dims()) {
            assert_eq!(d1.name(), d2.name());
            assert_eq!(d1.num_levels(), d2.num_levels());
            assert_eq!(d1.top_level(), d2.top_level());
            for l in 0..d1.num_levels() {
                assert_eq!(d1.cardinality(l), d2.cardinality(l));
                for leaf in 0..d1.leaf_cardinality() {
                    assert_eq!(d1.value_at(l, leaf), d2.value_at(l, leaf));
                }
            }
        }
    }

    #[test]
    fn round_trips_through_a_catalog() {
        let dir = std::env::temp_dir().join("cure_schema_blob_rt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let catalog = Catalog::open(&dir).unwrap();
        assert!(read_schema_blob(&catalog).unwrap().is_none());
        let schema = sample_schema();
        write_schema_blob(&catalog, &schema).unwrap();
        let back = read_schema_blob(&catalog).unwrap().unwrap();
        assert_eq!(back.num_lattice_nodes(), schema.num_lattice_nodes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_blobs_fail_typed() {
        let schema = sample_schema();
        let good = encode_schema(&schema);
        // Truncations at every boundary must error, never panic.
        for cut in 0..good.len() {
            assert!(decode_schema(&good[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decode_schema(&bad).is_err());
        // Bad version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(decode_schema(&bad).is_err());
        // Oversized length prefix must fail without allocating.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] = 0xFF;
        bad[n - 2] = 0xFF;
        assert!(decode_schema(&bad).is_err());
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert!(decode_schema(&bad).is_err());
    }
}

//! Column types, schemas and fixed-width row encoding.
//!
//! Every relation the engine stores — fact tables, cube-node NT/TT/CAT
//! relations, the shared `AGGREGATES` relation, spill partitions — uses a
//! *fixed-width* row layout: each column occupies a constant number of bytes
//! at a constant offset, little-endian. Fixed widths keep row-id ↔ byte
//! offset arithmetic trivial (`rowid * row_width`), which is exactly the
//! property the paper's R-rowid / A-rowid references rely on.

use crate::error::{Result, StorageError};

/// The primitive column types supported by the engine.
///
/// Dimension ids are `U32` (the paper's datasets never exceed 2³² distinct
/// values per level), row-ids are `U64`, and measures/aggregates are `I64`
/// (integer measures keep common-aggregate detection exact) or `F64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 32-bit unsigned integer (dimension ids at any hierarchy level).
    U32,
    /// 64-bit unsigned integer (row-ids, counts).
    U64,
    /// 64-bit signed integer (measures and distributive aggregates).
    I64,
    /// 64-bit IEEE float (ratio-style measures; not used for CAT matching).
    F64,
}

impl ColType {
    /// Width of the encoded value in bytes.
    #[inline]
    pub const fn width(self) -> usize {
        match self {
            ColType::U32 => 4,
            ColType::U64 | ColType::I64 | ColType::F64 => 8,
        }
    }

    /// Human-readable type name (for errors and catalog metadata).
    pub const fn name(self) -> &'static str {
        match self {
            ColType::U32 => "u32",
            ColType::U64 => "u64",
            ColType::I64 => "i64",
            ColType::F64 => "f64",
        }
    }

    /// Parse a type name produced by [`ColType::name`].
    pub fn parse(s: &str) -> Option<ColType> {
        match s {
            "u32" => Some(ColType::U32),
            "u64" => Some(ColType::U64),
            "i64" => Some(ColType::I64),
            "f64" => Some(ColType::F64),
            _ => None,
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within a schema by convention, not enforced).
    pub name: String,
    /// Column type.
    pub ty: ColType,
}

impl Column {
    /// Create a column.
    pub fn new(name: impl Into<String>, ty: ColType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// A dynamically typed value; the boundary type for row encoding.
///
/// Hot paths (the cubing inner loops) never materialize `Value`s — they read
/// and write raw little-endian bytes via [`Schema::read_u32_at`] and friends.
/// `Value` exists for the convenience API, tests and examples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// See [`ColType::U32`].
    U32(u32),
    /// See [`ColType::U64`].
    U64(u64),
    /// See [`ColType::I64`].
    I64(i64),
    /// See [`ColType::F64`].
    F64(f64),
}

impl Value {
    /// The [`ColType`] this value encodes as.
    pub const fn col_type(self) -> ColType {
        match self {
            Value::U32(_) => ColType::U32,
            Value::U64(_) => ColType::U64,
            Value::I64(_) => ColType::I64,
            Value::F64(_) => ColType::F64,
        }
    }

    /// Extract a `u64`, panicking on type mismatch (test/example helper).
    pub fn as_u64(self) -> u64 {
        match self {
            Value::U64(v) => v,
            other => panic!("expected U64, got {other:?}"),
        }
    }
}

/// An ordered list of columns with a precomputed fixed-width layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    cols: Vec<Column>,
    offsets: Vec<usize>,
    row_width: usize,
}

impl Schema {
    /// Build a schema from columns, computing offsets and total row width.
    pub fn new(cols: Vec<Column>) -> Self {
        let mut offsets = Vec::with_capacity(cols.len());
        let mut off = 0usize;
        for c in &cols {
            offsets.push(off);
            off += c.ty.width();
        }
        Schema { cols, offsets, row_width: off }
    }

    /// Shorthand: a schema of `n_dims` `U32` dimension columns named
    /// `d0..d{n-1}` followed by `n_measures` `I64` measure columns named
    /// `m0..` — the standard fact-table layout in this codebase.
    pub fn fact(n_dims: usize, n_measures: usize) -> Self {
        let mut cols = Vec::with_capacity(n_dims + n_measures);
        for i in 0..n_dims {
            cols.push(Column::new(format!("d{i}"), ColType::U32));
        }
        for i in 0..n_measures {
            cols.push(Column::new(format!("m{i}"), ColType::I64));
        }
        Schema::new(cols)
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Total encoded row width in bytes.
    #[inline]
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Byte offset of column `i` within a row.
    #[inline]
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Encode `values` into `out` (which must be exactly `row_width` long).
    pub fn encode_row(&self, values: &[Value], out: &mut [u8]) -> Result<()> {
        if values.len() != self.cols.len() {
            return Err(StorageError::Layout(format!(
                "encode_row: {} values for {}-column schema",
                values.len(),
                self.cols.len()
            )));
        }
        if out.len() != self.row_width {
            return Err(StorageError::Layout(format!(
                "encode_row: buffer {} bytes, row width {}",
                out.len(),
                self.row_width
            )));
        }
        for (i, v) in values.iter().enumerate() {
            if v.col_type() != self.cols[i].ty {
                return Err(StorageError::TypeMismatch {
                    column: i,
                    expected: self.cols[i].ty.name(),
                });
            }
            let off = self.offsets[i];
            match *v {
                Value::U32(x) => out[off..off + 4].copy_from_slice(&x.to_le_bytes()),
                Value::U64(x) => out[off..off + 8].copy_from_slice(&x.to_le_bytes()),
                Value::I64(x) => out[off..off + 8].copy_from_slice(&x.to_le_bytes()),
                Value::F64(x) => out[off..off + 8].copy_from_slice(&x.to_le_bytes()),
            }
        }
        Ok(())
    }

    /// Encode `values` into a fresh buffer.
    pub fn encode_row_vec(&self, values: &[Value]) -> Result<Vec<u8>> {
        let mut out = vec![0u8; self.row_width];
        self.encode_row(values, &mut out)?;
        Ok(out)
    }

    /// Decode a raw row into `Value`s.
    pub fn decode_row(&self, row: &[u8]) -> Result<Vec<Value>> {
        if row.len() != self.row_width {
            return Err(StorageError::Corrupt(format!(
                "decode_row: row {} bytes, expected {}",
                row.len(),
                self.row_width
            )));
        }
        let mut out = Vec::with_capacity(self.cols.len());
        for (i, c) in self.cols.iter().enumerate() {
            let off = self.offsets[i];
            let v = match c.ty {
                ColType::U32 => {
                    Value::U32(u32::from_le_bytes(row[off..off + 4].try_into().unwrap()))
                }
                ColType::U64 => {
                    Value::U64(u64::from_le_bytes(row[off..off + 8].try_into().unwrap()))
                }
                ColType::I64 => {
                    Value::I64(i64::from_le_bytes(row[off..off + 8].try_into().unwrap()))
                }
                ColType::F64 => {
                    Value::F64(f64::from_le_bytes(row[off..off + 8].try_into().unwrap()))
                }
            };
            out.push(v);
        }
        Ok(out)
    }

    /// Read the `U32` column at byte offset `off` directly from a raw row.
    #[inline]
    pub fn read_u32_at(row: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(row[off..off + 4].try_into().unwrap())
    }

    /// Read a `U64` column at byte offset `off` directly from a raw row.
    #[inline]
    pub fn read_u64_at(row: &[u8], off: usize) -> u64 {
        u64::from_le_bytes(row[off..off + 8].try_into().unwrap())
    }

    /// Read an `I64` column at byte offset `off` directly from a raw row.
    #[inline]
    pub fn read_i64_at(row: &[u8], off: usize) -> i64 {
        i64::from_le_bytes(row[off..off + 8].try_into().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Column::new("a", ColType::U32),
            Column::new("b", ColType::U64),
            Column::new("c", ColType::I64),
            Column::new("d", ColType::F64),
        ])
    }

    #[test]
    fn widths_and_offsets() {
        let s = sample_schema();
        assert_eq!(s.row_width(), 4 + 8 + 8 + 8);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 4);
        assert_eq!(s.offset(2), 12);
        assert_eq!(s.offset(3), 20);
    }

    #[test]
    fn roundtrip() {
        let s = sample_schema();
        let vals = [Value::U32(7), Value::U64(1 << 40), Value::I64(-5), Value::F64(2.5)];
        let enc = s.encode_row_vec(&vals).unwrap();
        let dec = s.decode_row(&enc).unwrap();
        assert_eq!(dec.as_slice(), &vals);
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = sample_schema();
        let vals = [Value::U64(7), Value::U64(0), Value::I64(0), Value::F64(0.0)];
        let err = s.encode_row_vec(&vals).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { column: 0, .. }));
    }

    #[test]
    fn wrong_arity_rejected() {
        let s = sample_schema();
        assert!(s.encode_row_vec(&[Value::U32(1)]).is_err());
    }

    #[test]
    fn wrong_row_len_rejected() {
        let s = sample_schema();
        assert!(s.decode_row(&[0u8; 3]).is_err());
    }

    #[test]
    fn fact_schema_layout() {
        let s = Schema::fact(3, 2);
        assert_eq!(s.arity(), 5);
        assert_eq!(s.row_width(), 3 * 4 + 2 * 8);
        assert_eq!(s.columns()[0].name, "d0");
        assert_eq!(s.columns()[4].name, "m1");
        assert_eq!(s.columns()[3].ty, ColType::I64);
    }

    #[test]
    fn raw_readers_match_decode() {
        let s = sample_schema();
        let vals = [Value::U32(9), Value::U64(11), Value::I64(-13), Value::F64(0.0)];
        let enc = s.encode_row_vec(&vals).unwrap();
        assert_eq!(Schema::read_u32_at(&enc, s.offset(0)), 9);
        assert_eq!(Schema::read_u64_at(&enc, s.offset(1)), 11);
        assert_eq!(Schema::read_i64_at(&enc, s.offset(2)), -13);
    }

    #[test]
    fn coltype_name_parse_roundtrip() {
        for t in [ColType::U32, ColType::U64, ColType::I64, ColType::F64] {
            assert_eq!(ColType::parse(t.name()), Some(t));
        }
        assert_eq!(ColType::parse("bogus"), None);
    }
}

//! Persisted cube metadata.
//!
//! A CURE cube on disk is a family of relations under a name prefix; the
//! query layer additionally needs to know which build options produced it
//! (variant flags, CAT format, partition level, the fact relation it
//! references). [`CubeMeta`] serializes those as a small key=value blob in
//! the catalog, so a cube can be opened with nothing but the catalog, the
//! schema and the prefix.

use cure_storage::Catalog;

use crate::error::{CubeError, Result};
use crate::hierarchy::LevelIdx;
use crate::sink::CatFormat;

/// Build options needed to interpret a stored cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeMeta {
    /// Relation-name prefix of the cube.
    pub prefix: String,
    /// Name of the original fact relation (NT/TT row-ids point into it).
    pub fact_rel: String,
    /// Number of dimensions.
    pub n_dims: usize,
    /// Number of measures.
    pub n_measures: usize,
    /// CURE_DR: NTs store materialized dimension values.
    pub dr: bool,
    /// CURE+: TT lists stored as sorted bitmaps.
    pub plus: bool,
    /// CAT format in use (None when the cube contains no CATs).
    pub cat_format: Option<CatFormat>,
    /// Partition level of the build (None for in-memory builds).
    pub partition_level: Option<LevelIdx>,
    /// Iceberg minimum support used at build time.
    pub min_support: u64,
}

fn fmt_cat(f: Option<CatFormat>) -> &'static str {
    match f {
        None => "none",
        Some(CatFormat::CommonSource) => "a",
        Some(CatFormat::Coincidental) => "b",
        Some(CatFormat::AsNt) => "nt",
    }
}

fn parse_cat(s: &str) -> Result<Option<CatFormat>> {
    match s {
        "none" => Ok(None),
        "a" => Ok(Some(CatFormat::CommonSource)),
        "b" => Ok(Some(CatFormat::Coincidental)),
        "nt" => Ok(Some(CatFormat::AsNt)),
        other => Err(CubeError::Schema(format!("unknown cat format '{other}'"))),
    }
}

impl CubeMeta {
    fn blob_name(prefix: &str) -> String {
        format!("{prefix}meta")
    }

    /// Persist into `catalog` under `<prefix>meta`.
    pub fn write(&self, catalog: &Catalog) -> Result<()> {
        let mut s = String::new();
        s.push_str(&format!("fact_rel={}\n", self.fact_rel));
        s.push_str(&format!("n_dims={}\n", self.n_dims));
        s.push_str(&format!("n_measures={}\n", self.n_measures));
        s.push_str(&format!("dr={}\n", self.dr));
        s.push_str(&format!("plus={}\n", self.plus));
        s.push_str(&format!("cat_format={}\n", fmt_cat(self.cat_format)));
        s.push_str(&format!(
            "partition_level={}\n",
            self.partition_level.map_or("none".to_string(), |l| l.to_string())
        ));
        s.push_str(&format!("min_support={}\n", self.min_support));
        catalog.write_blob(&Self::blob_name(&self.prefix), s.as_bytes())?;
        Ok(())
    }

    /// Load the metadata of the cube stored under `prefix`.
    pub fn read(catalog: &Catalog, prefix: &str) -> Result<CubeMeta> {
        let bytes = catalog.read_blob(&Self::blob_name(prefix))?;
        let text = String::from_utf8(bytes)
            .map_err(|_| CubeError::Schema("cube meta is not UTF-8".into()))?;
        let mut map = std::collections::HashMap::new();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                map.insert(k.to_string(), v.to_string());
            }
        }
        let get = |k: &str| -> Result<String> {
            map.get(k).cloned().ok_or_else(|| CubeError::Schema(format!("cube meta missing '{k}'")))
        };
        let parse_usize = |k: &str| -> Result<usize> {
            get(k)?.parse().map_err(|_| CubeError::Schema(format!("cube meta: bad '{k}'")))
        };
        Ok(CubeMeta {
            prefix: prefix.to_string(),
            fact_rel: get("fact_rel")?,
            n_dims: parse_usize("n_dims")?,
            n_measures: parse_usize("n_measures")?,
            dr: get("dr")? == "true",
            plus: get("plus")? == "true",
            cat_format: parse_cat(&get("cat_format")?)?,
            partition_level: match get("partition_level")?.as_str() {
                "none" => None,
                s => Some(
                    s.parse()
                        .map_err(|_| CubeError::Schema("cube meta: bad partition_level".into()))?,
                ),
            },
            min_support: get("min_support")?
                .parse()
                .map_err(|_| CubeError::Schema("cube meta: bad min_support".into()))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cure_storage::scratch::scratch_dir;

    fn fresh_catalog(tag: &str) -> Catalog {
        let dir = scratch_dir(&format!("meta_{tag}"));
        Catalog::open(&dir).unwrap()
    }

    #[test]
    fn roundtrip_all_fields() {
        let catalog = fresh_catalog("rt");
        let meta = CubeMeta {
            prefix: "c_".into(),
            fact_rel: "facts".into(),
            n_dims: 4,
            n_measures: 2,
            dr: true,
            plus: true,
            cat_format: Some(CatFormat::CommonSource),
            partition_level: Some(1),
            min_support: 5,
        };
        meta.write(&catalog).unwrap();
        assert_eq!(CubeMeta::read(&catalog, "c_").unwrap(), meta);
    }

    #[test]
    fn roundtrip_none_fields() {
        let catalog = fresh_catalog("none");
        let meta = CubeMeta {
            prefix: "x_".into(),
            fact_rel: "f".into(),
            n_dims: 1,
            n_measures: 1,
            dr: false,
            plus: false,
            cat_format: None,
            partition_level: None,
            min_support: 1,
        };
        meta.write(&catalog).unwrap();
        assert_eq!(CubeMeta::read(&catalog, "x_").unwrap(), meta);
    }

    #[test]
    fn every_cat_format_roundtrips() {
        let catalog = fresh_catalog("cats");
        for f in [
            None,
            Some(CatFormat::CommonSource),
            Some(CatFormat::Coincidental),
            Some(CatFormat::AsNt),
        ] {
            let meta = CubeMeta {
                prefix: format!("p{}_", fmt_cat(f)),
                fact_rel: "f".into(),
                n_dims: 2,
                n_measures: 1,
                dr: false,
                plus: false,
                cat_format: f,
                partition_level: None,
                min_support: 1,
            };
            meta.write(&catalog).unwrap();
            assert_eq!(CubeMeta::read(&catalog, &meta.prefix).unwrap().cat_format, f);
        }
    }

    #[test]
    fn missing_meta_errors() {
        let catalog = fresh_catalog("missing");
        assert!(CubeMeta::read(&catalog, "nope_").is_err());
    }
}

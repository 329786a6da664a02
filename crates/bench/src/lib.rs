//! # cure-bench — the experiment harness
//!
//! One runnable binary per table/figure of the paper's evaluation (§7);
//! see DESIGN.md for the full experiment index. Every binary:
//!
//! * generates its workload with `cure-data` (deterministic seeds),
//! * builds the cubes under test on disk through the real storage engine,
//! * prints a human-readable table shaped like the paper's figure, and
//! * writes a machine-readable JSON series to `results/<figure>.json`.
//!
//! ## Scaling
//!
//! The paper's largest runs (496 M tuples) are scaled down by a divisor so
//! every figure regenerates in minutes; set `CURE_SCALE` to trade time for
//! fidelity (1 = the paper's sizes). What matters for the reproduction is
//! the *shape* of each figure — method ordering, crossover points,
//! monotonicity — which is scale-stable; EXPERIMENTS.md records the scale
//! used for the committed results.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cure_core::cube::{BuildReport, CubeBuilder, CubeConfig};
use cure_core::meta::CubeMeta;
use cure_core::partition::build_cure_cube;
use cure_core::sink::{DiskSink, RowResolver};
use cure_core::{CubeSchema, Result};
use cure_query::CureCube;
use cure_storage::{Catalog, Schema};

/// The CURE variants the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CureVariant {
    /// Plain CURE.
    Cure,
    /// CURE+ (sorted bitmap TTs, §5.3 post-processing).
    CurePlus,
    /// CURE_DR (NTs keep materialized dimension values).
    CureDr,
    /// CURE_DR+ (both).
    CureDrPlus,
}

impl CureVariant {
    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            CureVariant::Cure => "CURE",
            CureVariant::CurePlus => "CURE+",
            CureVariant::CureDr => "CURE_DR",
            CureVariant::CureDrPlus => "CURE_DR+",
        }
    }

    /// Whether this variant materializes NT dimension values.
    pub fn dr(self) -> bool {
        matches!(self, CureVariant::CureDr | CureVariant::CureDrPlus)
    }

    /// Whether this variant post-processes TTs into bitmaps.
    pub fn plus(self) -> bool {
        matches!(self, CureVariant::CurePlus | CureVariant::CureDrPlus)
    }

    /// All four variants.
    pub fn all() -> [CureVariant; 4] {
        [CureVariant::Cure, CureVariant::CurePlus, CureVariant::CureDr, CureVariant::CureDrPlus]
    }
}

/// Read the global scale divisor (default per experiment; `CURE_SCALE`
/// overrides).
pub fn scale_from_env(default: u64) -> u64 {
    std::env::var("CURE_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(default).max(1)
}

/// A fresh working directory + catalog for one experiment.
pub fn experiment_catalog(tag: &str) -> Result<Catalog> {
    let dir = std::env::temp_dir().join(format!("cure_bench_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Catalog::open(dir)?)
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Build a CURE-variant cube on disk from a stored fact relation, via the
/// full `Algorithm CURE` driver (partitions when the budget demands it),
/// and persist its metadata. Returns the build report and wall seconds.
pub fn build_cure_variant(
    catalog: &Catalog,
    schema: &CubeSchema,
    fact_rel: &str,
    prefix: &str,
    variant: CureVariant,
    cfg: &CubeConfig,
) -> Result<(BuildReport, f64)> {
    let resolver: Option<RowResolver> = if variant.dr() {
        let fact = catalog.open_relation(fact_rel)?;
        let fs = fact.schema().clone();
        let d = schema.num_dims();
        let mut buf = vec![0u8; fs.row_width()];
        Some(Box::new(move |rowid, out: &mut [u32]| {
            fact.fetch_into(rowid, &mut buf)?;
            for (i, o) in out.iter_mut().enumerate().take(d) {
                *o = Schema::read_u32_at(&buf, fs.offset(i));
            }
            Ok(())
        }))
    } else {
        None
    };
    let start = Instant::now();
    let mut sink = DiskSink::new(catalog, prefix, schema, variant.dr(), variant.plus(), resolver)?;
    let report =
        build_cure_cube(catalog, fact_rel, schema, cfg, &mut sink, &format!("{prefix}tmp_"), 1)?;
    let secs = start.elapsed().as_secs_f64();
    CubeMeta {
        prefix: prefix.to_string(),
        fact_rel: fact_rel.to_string(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: variant.dr(),
        plus: variant.plus(),
        cat_format: report.stats.cat_format,
        partition_level: report.partition.as_ref().map(|p| p.choice.level),
        min_support: cfg.min_support,
    }
    .write(catalog)?;
    Ok((report, secs))
}

/// Build a CURE-variant cube from in-memory tuples (skipping the driver's
/// load; used when the experiment times pure construction).
pub fn build_cure_variant_in_memory(
    catalog: &Catalog,
    schema: &CubeSchema,
    tuples: &cure_core::Tuples,
    fact_rel: &str,
    prefix: &str,
    variant: CureVariant,
    cfg: &CubeConfig,
) -> Result<(BuildReport, f64)> {
    let resolver: Option<RowResolver> = if variant.dr() {
        let fact = catalog.open_relation(fact_rel)?;
        let fs = fact.schema().clone();
        let d = schema.num_dims();
        let mut buf = vec![0u8; fs.row_width()];
        Some(Box::new(move |rowid, out: &mut [u32]| {
            fact.fetch_into(rowid, &mut buf)?;
            for (i, o) in out.iter_mut().enumerate().take(d) {
                *o = Schema::read_u32_at(&buf, fs.offset(i));
            }
            Ok(())
        }))
    } else {
        None
    };
    let start = Instant::now();
    let mut sink = DiskSink::new(catalog, prefix, schema, variant.dr(), variant.plus(), resolver)?;
    let report = CubeBuilder::new(schema, cfg.clone()).build_in_memory(tuples, &mut sink)?;
    let secs = start.elapsed().as_secs_f64();
    CubeMeta {
        prefix: prefix.to_string(),
        fact_rel: fact_rel.to_string(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: variant.dr(),
        plus: variant.plus(),
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: cfg.min_support,
    }
    .write(catalog)?;
    Ok((report, secs))
}

/// Average per-query wall seconds over a node workload.
pub fn avg_query_secs(cube: &mut CureCube, workload: &[u64]) -> Result<f64> {
    let start = Instant::now();
    for &n in workload {
        let _ = cube.node_query(n)?;
    }
    Ok(start.elapsed().as_secs_f64() / workload.len().max(1) as f64)
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

/// A data series for the JSON output: one line of a figure.
#[derive(Debug)]
pub struct Series {
    /// Legend label ("CURE+", "BU-BST", …).
    pub label: String,
    /// X values (dataset names, dimension counts, skews, …).
    pub x: Vec<serde_json::Value>,
    /// Y values.
    pub y: Vec<f64>,
}

/// A figure result: id, axis descriptions, and its series.
#[derive(Debug)]
pub struct FigureResult {
    /// Figure/table id ("fig14", "table1", …).
    pub id: String,
    /// Short description.
    pub title: String,
    /// X-axis meaning.
    pub x_axis: String,
    /// Y-axis meaning.
    pub y_axis: String,
    /// Scale divisor used.
    pub scale: u64,
    /// The series.
    pub series: Vec<Series>,
}

impl serde_json::ToJson for Series {
    fn to_json(&self) -> serde_json::Value {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("label".to_string(), serde_json::Value::from(&self.label));
        obj.insert("x".to_string(), serde_json::Value::Array(self.x.clone()));
        obj.insert("y".to_string(), serde_json::Value::from(self.y.clone()));
        serde_json::Value::Object(obj)
    }
}

impl serde_json::ToJson for FigureResult {
    fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("id".to_string(), Value::from(&self.id));
        obj.insert("title".to_string(), Value::from(&self.title));
        obj.insert("x_axis".to_string(), Value::from(&self.x_axis));
        obj.insert("y_axis".to_string(), Value::from(&self.y_axis));
        obj.insert("scale".to_string(), Value::from(self.scale));
        obj.insert(
            "series".to_string(),
            Value::Array(self.series.iter().map(|s| s.to_json()).collect()),
        );
        Value::Object(obj)
    }
}

/// Where figure JSON results are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("CURE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Persist a figure result as pretty JSON.
pub fn write_result(result: &FigureResult) {
    let path = results_dir().join(format!("{}.json", result.id));
    match serde_json::to_vec_pretty(result) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(&path, bytes) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[wrote {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {}: {e}", result.id),
    }
}

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = std::io::stdout().lock();
    let _ = write!(out, "  ");
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(out, "{h:>w$}  ");
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "  ");
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(out, "{cell:>w$}  ");
        }
        let _ = writeln!(out);
    }
}

/// Format seconds for tables.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Format bytes for tables.
pub fn fmt_bytes(b: u64) -> String {
    const KB: f64 = 1e3;
    const MB: f64 = 1e6;
    const GB: f64 = 1e9;
    let b = b as f64;
    if b >= GB {
        format!("{:.2}GB", b / GB)
    } else if b >= MB {
        format!("{:.2}MB", b / MB)
    } else if b >= KB {
        format!("{:.1}KB", b / KB)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_flags() {
        assert!(!CureVariant::Cure.dr() && !CureVariant::Cure.plus());
        assert!(CureVariant::CurePlus.plus() && !CureVariant::CurePlus.dr());
        assert!(CureVariant::CureDr.dr() && !CureVariant::CureDr.plus());
        assert!(CureVariant::CureDrPlus.dr() && CureVariant::CureDrPlus.plus());
        assert_eq!(CureVariant::all().len(), 4);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(0.0000005), "0.5µs");
        assert_eq!(fmt_secs(0.0025), "2.5ms");
        assert_eq!(fmt_secs(3.25), "3.25s");
        assert_eq!(fmt_bytes(500), "500B");
        assert_eq!(fmt_bytes(2_500), "2.5KB");
        assert_eq!(fmt_bytes(3_000_000), "3.00MB");
        assert_eq!(fmt_bytes(7_500_000_000), "7.50GB");
    }

    #[test]
    fn scale_env_default() {
        std::env::remove_var("CURE_SCALE");
        assert_eq!(scale_from_env(40), 40);
    }

    #[test]
    fn end_to_end_variant_build() {
        // Smoke-test the shared builder across all four variants.
        let catalog = experiment_catalog("libtest").unwrap();
        let ds = cure_data::synthetic::hierarchical(
            &[
                cure_data::synthetic::HierSpec { name: "A".into(), level_cards: vec![40, 8, 2] },
                cure_data::synthetic::HierSpec { name: "B".into(), level_cards: vec![10, 2] },
            ],
            1_000,
            0.5,
            1,
            3,
            "libtest",
        );
        ds.store(&catalog, "facts").unwrap();
        for v in CureVariant::all() {
            let prefix = format!("{}_", v.name().to_lowercase().replace('+', "p"));
            let (report, secs) = build_cure_variant(
                &catalog,
                &ds.schema,
                "facts",
                &prefix,
                v,
                &CubeConfig::default(),
            )
            .unwrap();
            assert!(report.stats.total_tuples() > 0, "{}", v.name());
            assert!(secs >= 0.0);
            let mut cube = CureCube::open(&catalog, &ds.schema, &prefix).unwrap();
            let coder = cure_core::NodeCoder::new(&ds.schema);
            let workload = cure_query::workload::random_nodes(&coder, 10, 1);
            let avg = avg_query_secs(&mut cube, &workload).unwrap();
            assert!(avg >= 0.0);
        }
    }
}

pub mod experiments;

/// Build a flat BUC cube on disk; returns (stats, seconds).
pub fn build_buc_disk(
    catalog: &Catalog,
    cards: &[u32],
    tuples: &cure_core::Tuples,
    prefix: &str,
) -> Result<(cure_baselines::BaselineStats, f64)> {
    let start = Instant::now();
    let mut sink = cure_baselines::buc::BucDiskCube::new(catalog, prefix, tuples.n_measures());
    let stats = cure_baselines::buc::build_buc(cards, tuples, 1, &mut sink)?;
    Ok((stats, start.elapsed().as_secs_f64()))
}

/// Build a BU-BST condensed cube on disk; returns (stats, seconds).
pub fn build_bubst_disk(
    catalog: &Catalog,
    cards: &[u32],
    tuples: &cure_core::Tuples,
    prefix: &str,
) -> Result<(cure_baselines::BaselineStats, f64)> {
    let start = Instant::now();
    let mut sink = cure_baselines::bubst::BubstDiskCube::new(
        catalog,
        prefix,
        tuples.n_dims(),
        tuples.n_measures(),
    )?;
    let stats = cure_baselines::bubst::build_bubst(cards, tuples, 1, &mut sink)?;
    Ok((stats, start.elapsed().as_secs_f64()))
}

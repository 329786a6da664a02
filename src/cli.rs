//! Implementation of the `cure` command-line tool.
//!
//! The binary (`src/bin/cure-cli.rs`) is a thin wrapper over these
//! functions so the argument handling and command logic are unit-testable.
//! Supported commands:
//!
//! ```text
//! cure-cli gen   <dir> --dataset apb|covtype|sep85l --scale N [--density F]
//! cure-cli build <dir> [--variant cure|cure+|dr|dr+] [--budget-mb N] [--min-sup N] [--resume] [--threads N]
//! cure-cli query <dir> --node A2,B1 | --node-id 17 [--iceberg N]
//! cure-cli info  <dir>
//! ```
//!
//! The schema travels with the directory as a small spec blob so `build`,
//! `query` and `info` can run without repeating generator parameters.

use std::fmt::Write as _;

use cure_baselines as _;
use cure_core::cube::CubeConfig;
use cure_core::meta::CubeMeta;
use cure_core::sink::DiskSink;
use cure_core::{CubeError, CubeSchema, NodeCoder, Result};
use cure_data::Dataset;
use cure_query::CureCube;
use cure_storage::Catalog;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a dataset into a catalog directory.
    Gen { dir: String, dataset: String, scale: u64, density: f64 },
    /// Build a CURE cube over a generated catalog.
    Build {
        dir: String,
        variant: String,
        budget_mb: usize,
        min_sup: u64,
        resume: bool,
        threads: usize,
        /// Write a JSON [`StatsSnapshot`](cure_serve::StatsSnapshot)
        /// (phase timers, pool counters, storage I/O) to this path.
        stats: Option<String>,
    },
    /// Query one node of a built cube.
    Query {
        dir: String,
        node: Option<String>,
        node_id: Option<u64>,
        iceberg: Option<i64>,
        /// Equality predicates like "Product1=3,Time2=1" (needs `index`).
        filter: Option<String>,
    },
    /// Show catalog/cube information.
    Info { dir: String },
    /// Print the P3 execution plan tree for the catalog's schema.
    Plan { dir: String },
    /// Build fact-table value indexes (enables `query --where`).
    Index { dir: String },
    /// Append freshly generated tuples and merge them into the cube
    /// incrementally (no rebuild), then swap the active cube.
    Append { dir: String, tuples: usize, seed: u64 },
    /// Ingest a delta batch file through the durable ingest pipeline
    /// (append → merge → swap → GC); crash-safe and resumable.
    Ingest {
        dir: String,
        /// Batch file: one `dims | measures` line per tuple, `#` comments.
        batch: String,
        /// Keep the previous cube's relations instead of dropping them.
        keep_old: bool,
        /// Write a JSON [`StatsSnapshot`](cure_serve::StatsSnapshot)
        /// (ingest counters, storage I/O) to this path.
        stats: Option<String>,
    },
    /// Run the differential conformance sweep (`cure-check`): randomized
    /// workloads through every engine configuration, failures shrunk and
    /// written as `.case` repros.
    Check {
        dir: String,
        /// Number of seeds to sweep, starting at `start_seed`.
        seeds: u64,
        /// First seed (lets nightly runs explore fresh regions).
        start_seed: u64,
        /// Wall-clock budget in seconds; None = run all seeds.
        budget_secs: Option<u64>,
        /// Where minimized repros are written (default `<dir>/corpus`).
        corpus: Option<String>,
    },
}

/// Parse `args` (without the program name).
pub fn parse_args(args: &[String]) -> std::result::Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    let dir = it.next().ok_or_else(usage)?.clone();
    let mut opts = std::collections::HashMap::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i].strip_prefix("--").ok_or_else(|| format!("unexpected '{}'", rest[i]))?;
        // Valueless flags.
        if key == "resume" || key == "keep-old" {
            opts.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let val = rest.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), (*val).clone());
        i += 2;
    }
    let get = |k: &str, default: &str| opts.get(k).cloned().unwrap_or_else(|| default.to_string());
    match cmd.as_str() {
        "gen" => Ok(Command::Gen {
            dir,
            dataset: get("dataset", "apb"),
            scale: get("scale", "1000").parse().map_err(|_| "bad --scale".to_string())?,
            density: get("density", "0.4").parse().map_err(|_| "bad --density".to_string())?,
        }),
        "build" => Ok(Command::Build {
            dir,
            variant: get("variant", "cure"),
            budget_mb: get("budget-mb", "256")
                .parse()
                .map_err(|_| "bad --budget-mb".to_string())?,
            min_sup: get("min-sup", "1").parse().map_err(|_| "bad --min-sup".to_string())?,
            resume: opts.contains_key("resume"),
            threads: match get("threads", "1").parse() {
                Ok(t) if t >= 1 => t,
                _ => return Err("bad --threads (want an integer ≥ 1)".to_string()),
            },
            stats: opts.get("stats").cloned(),
        }),
        "query" => Ok(Command::Query {
            dir,
            node: opts.get("node").cloned(),
            node_id: match opts.get("node-id") {
                Some(v) => Some(v.parse().map_err(|_| "bad --node-id".to_string())?),
                None => None,
            },
            iceberg: match opts.get("iceberg") {
                Some(v) => Some(v.parse().map_err(|_| "bad --iceberg".to_string())?),
                None => None,
            },
            filter: opts.get("where").cloned(),
        }),
        "info" => Ok(Command::Info { dir }),
        "plan" => Ok(Command::Plan { dir }),
        "index" => Ok(Command::Index { dir }),
        "append" => Ok(Command::Append {
            dir,
            tuples: get("tuples", "1000").parse().map_err(|_| "bad --tuples".to_string())?,
            seed: get("seed", "1").parse().map_err(|_| "bad --seed".to_string())?,
        }),
        "ingest" => Ok(Command::Ingest {
            dir,
            batch: opts.get("batch").cloned().ok_or_else(|| "--batch is required".to_string())?,
            keep_old: opts.contains_key("keep-old"),
            stats: opts.get("stats").cloned(),
        }),
        "check" => Ok(Command::Check {
            dir,
            seeds: get("seeds", "32").parse().map_err(|_| "bad --seeds".to_string())?,
            start_seed: get("start-seed", "0")
                .parse()
                .map_err(|_| "bad --start-seed".to_string())?,
            budget_secs: match opts.get("budget-secs") {
                Some(v) => Some(v.parse().map_err(|_| "bad --budget-secs".to_string())?),
                None => None,
            },
            corpus: opts.get("corpus").cloned(),
        }),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

/// Usage string.
pub fn usage() -> String {
    "usage:\n  cure-cli gen   <dir> [--dataset apb|covtype|sep85l] [--scale N] [--density F]\n  \
     cure-cli build <dir> [--variant cure|cure+|dr|dr+] [--budget-mb N] [--min-sup N] [--resume] [--threads N] [--stats F.json]\n  \
     cure-cli query <dir> (--node Product2,Time1 | --node-id 17) [--iceberg N] [--where Product1=3]\n  \
     cure-cli index <dir>\n  \
     cure-cli append <dir> [--tuples N] [--seed S]\n  \
     cure-cli ingest <dir> --batch FILE [--keep-old] [--stats F.json]\n  \
     cure-cli check <dir> [--seeds N] [--start-seed S] [--budget-secs T] [--corpus DIR]\n  \
     cure-cli info  <dir>\n  \
     cure-cli plan  <dir>"
        .to_string()
}

const SPEC_BLOB: &str = "dataset_spec";

/// The prefix of the currently active cube ("cube_" by default; `append`
/// and `ingest` swap between "cube_" and "cubeB_"). Delegates to the core
/// ingest module so the CLI and the durable ingest pipeline can never
/// disagree about which cube is live.
pub fn active_prefix(catalog: &Catalog) -> String {
    cure_core::active_prefix(catalog)
}

/// Resolve any interrupted ingest before touching the catalog, reporting
/// what recovery did (nothing, rolled back, or completed the swap).
fn report_recovery(out: &mut String, catalog: &Catalog, schema: &CubeSchema) -> Result<()> {
    match cure_core::recover_ingest(catalog, schema, &CubeConfig::default())? {
        None => {}
        Some(cure_core::IngestRecovery::RolledBack { discarded_rows }) => {
            let _ = writeln!(
                out,
                "recovered interrupted ingest: rolled back ({discarded_rows} appended row(s) \
                 discarded)"
            );
        }
        Some(cure_core::IngestRecovery::Completed { new_prefix }) => {
            let _ = writeln!(out, "recovered interrupted ingest: completed swap to {new_prefix}");
        }
    }
    Ok(())
}

fn write_spec(catalog: &Catalog, dataset: &str, scale: u64, density: f64) -> Result<()> {
    catalog.write_blob(SPEC_BLOB, format!("{dataset}\n{scale}\n{density}").as_bytes())?;
    Ok(())
}

/// Recreate the schema recorded by `gen` (generators are deterministic).
pub fn load_schema(catalog: &Catalog) -> Result<CubeSchema> {
    let raw = catalog.read_blob(SPEC_BLOB)?;
    let text = String::from_utf8(raw).map_err(|_| CubeError::Schema("bad spec blob".into()))?;
    let mut lines = text.lines();
    let dataset = lines.next().unwrap_or("apb").to_string();
    let scale: u64 = lines.next().and_then(|s| s.parse().ok()).unwrap_or(1000);
    let density: f64 = lines.next().and_then(|s| s.parse().ok()).unwrap_or(0.4);
    Ok(make_dataset(&dataset, scale, density)?.schema)
}

fn make_dataset(name: &str, scale: u64, density: f64) -> Result<Dataset> {
    match name {
        "apb" => Ok(cure_data::apb::apb1_dense(density, scale, 0xC11)),
        "covtype" => Ok(cure_data::surrogates::covtype_like(scale as usize)),
        "sep85l" => Ok(cure_data::surrogates::sep85l_like(scale as usize)),
        other => Err(CubeError::Config(format!("unknown dataset '{other}'"))),
    }
}

/// Execute a parsed command; returns the text to print.
pub fn run(cmd: Command) -> Result<String> {
    let mut out = String::new();
    match cmd {
        Command::Gen { dir, dataset, scale, density } => {
            let catalog = Catalog::open(&dir)?;
            let ds = make_dataset(&dataset, scale, density)?;
            ds.store(&catalog, "facts")?;
            write_spec(&catalog, &dataset, scale, density)?;
            let _ = writeln!(
                out,
                "generated {}: {} tuples, {} dimensions → {}/facts",
                ds.name,
                ds.tuples.len(),
                ds.schema.num_dims(),
                dir
            );
        }
        Command::Build { dir, variant, budget_mb, min_sup, resume, threads, stats } => {
            let catalog = Catalog::open(&dir)?;
            let schema = load_schema(&catalog)?;
            // Counters are registry-scoped to this catalog; zero them so
            // the snapshot covers exactly this build.
            catalog.stats().reset();
            let (dr, plus) = match variant.as_str() {
                "cure" => (false, false),
                "cure+" => (false, true),
                "dr" => (true, false),
                "dr+" => (true, true),
                other => return Err(CubeError::Config(format!("unknown variant '{other}'"))),
            };
            if resume && plus {
                return Err(CubeError::Config(
                    "--resume is not supported for CURE+ variants (no durable checkpoints)".into(),
                ));
            }
            let cfg = CubeConfig {
                memory_budget_bytes: budget_mb << 20,
                min_support: min_sup,
                ..CubeConfig::default()
            };
            let resolver: Option<cure_core::sink::RowResolver> = if dr {
                let fact = catalog.open_relation("facts")?;
                let fs = fact.schema().clone();
                let d = schema.num_dims();
                let mut buf = vec![0u8; fs.row_width()];
                Some(Box::new(move |rowid, vals: &mut [u32]| {
                    fact.fetch_into(rowid, &mut buf)?;
                    for (i, o) in vals.iter_mut().enumerate().take(d) {
                        *o = cure_storage::Schema::read_u32_at(&buf, fs.offset(i));
                    }
                    Ok(())
                }))
            } else {
                None
            };
            let start = std::time::Instant::now();
            let mut sink = DiskSink::new(&catalog, "cube_", &schema, dr, plus, resolver)?;
            // CURE and CURE_DR run through the crash-safe driver (the
            // build journals its progress and `--resume` picks up where a
            // crash left off); CURE+ buffers TT bitmaps in memory until
            // `finish`, so it keeps the plain driver.
            let (report, durable_note) = if plus {
                let report = cure_core::build_cure_cube(
                    &catalog,
                    "facts",
                    &schema,
                    &cfg,
                    &mut sink,
                    "cube_tmp_",
                    threads,
                )?;
                (report, None)
            } else {
                let d = cure_core::build_cure_cube_durable(
                    &catalog,
                    "facts",
                    &schema,
                    &cfg,
                    &mut sink,
                    "cube_tmp_",
                    &cure_core::DurableOptions { resume, threads },
                )?;
                let note = if d.already_complete {
                    Some("already complete (resumed manifest)".to_string())
                } else if d.resumed {
                    Some(format!(
                        "resumed: {} partition pass(es) skipped, {} relation(s) repaired, \
                         {} dropped",
                        d.partitions_skipped, d.relations_repaired, d.relations_dropped
                    ))
                } else {
                    None
                };
                (d.report, note)
            };
            if let Some(note) = durable_note {
                let _ = writeln!(out, "{note}");
            }
            CubeMeta {
                prefix: "cube_".into(),
                fact_rel: "facts".into(),
                n_dims: schema.num_dims(),
                n_measures: schema.num_measures(),
                dr,
                plus,
                cat_format: report.stats.cat_format,
                partition_level: report.partition.as_ref().map(|p| p.choice.level),
                min_support: min_sup,
            }
            .write(&catalog)?;
            if let Some(path) = &stats {
                let mut snap = cure_serve::StatsSnapshot::new();
                snap.set_build(&report);
                snap.set_storage(catalog.stats().snapshot());
                std::fs::write(path, snap.to_pretty_bytes())
                    .map_err(|e| CubeError::Config(format!("cannot write --stats {path}: {e}")))?;
                let _ = writeln!(out, "stats snapshot → {path}");
            }
            let _ = writeln!(
                out,
                "built {variant} cube in {:.2}s: {} tuples ({} TT / {} NT / {} CAT), {} bytes, {}",
                start.elapsed().as_secs_f64(),
                report.stats.total_tuples(),
                report.stats.tt_tuples,
                report.stats.nt_tuples,
                report.stats.cat_tuples,
                report.stats.total_bytes(),
                report
                    .partition
                    .map(|p| format!(
                        "partitioned at L={} ({} parts)",
                        p.choice.level, p.choice.num_partitions
                    ))
                    .unwrap_or_else(|| "in-memory".into()),
            );
        }
        Command::Query { dir, node, node_id, iceberg, filter } => {
            let catalog = Catalog::open(&dir)?;
            let schema = load_schema(&catalog)?;
            let coder = NodeCoder::new(&schema);
            let id = match (node, node_id) {
                (_, Some(id)) => id,
                (Some(spec), None) => parse_node(&schema, &coder, &spec)?,
                (None, None) => {
                    return Err(CubeError::Config("query needs --node or --node-id".into()))
                }
            };
            let mut cube = CureCube::open(&catalog, &schema, &active_prefix(&catalog))?;
            let rows = match (&filter, iceberg) {
                (Some(spec), None) => {
                    let preds = parse_predicates(&schema, spec)?;
                    cube.selective_query(id, &preds)?
                }
                (Some(_), Some(_)) => {
                    return Err(CubeError::Config(
                        "--where and --iceberg cannot be combined".into(),
                    ))
                }
                (None, Some(min)) => {
                    cube.iceberg_count_query(id, min, schema.num_measures() - 1)?
                }
                (None, None) => cube.node_query(id)?,
            };
            let _ = writeln!(out, "node {} ({} rows):", coder.name(&schema, id), rows.len());
            let mut sorted = rows;
            sorted.sort();
            for (dims, aggs) in sorted.iter().take(20) {
                let _ = writeln!(out, "  {dims:?} → {aggs:?}");
            }
            if sorted.len() > 20 {
                let _ = writeln!(out, "  … {} more", sorted.len() - 20);
            }
        }
        Command::Info { dir } => {
            let catalog = Catalog::open(&dir)?;
            let schema = load_schema(&catalog)?;
            let _ = writeln!(out, "catalog {dir}:");
            for d in schema.dims() {
                let levels: Vec<String> =
                    d.levels().iter().map(|l| format!("{} ({})", l.name, l.cardinality)).collect();
                let _ = writeln!(out, "  dimension {}: {}", d.name(), levels.join(" → "));
            }
            let _ = writeln!(out, "  lattice nodes: {}", schema.num_lattice_nodes());
            if let Ok(meta) = CubeMeta::read(&catalog, &active_prefix(&catalog)) {
                let _ = writeln!(
                    out,
                    "  cube: variant dr={} plus={}, cat format {:?}, partition level {:?}, min_sup {}",
                    meta.dr, meta.plus, meta.cat_format, meta.partition_level, meta.min_support
                );
            } else {
                let _ = writeln!(out, "  cube: not built (run `cure-cli build {dir}`)");
            }
            let rels = catalog.list()?;
            let _ = writeln!(out, "  relations: {}", rels.len());
            if let Ok(seg) = catalog.open_segment(&active_prefix(&catalog)) {
                let _ = writeln!(
                    out,
                    "  node relations: {} in one segment of {} pages",
                    seg.directory().entries().len(),
                    seg.pages()
                );
            }
        }
        Command::Index { dir } => {
            let catalog = Catalog::open(&dir)?;
            let schema = load_schema(&catalog)?;
            let bytes = cure_query::index::ValueIndex::build_all(&catalog, "facts", &schema)?;
            let _ = writeln!(
                out,
                "built value indexes for {} dimensions ({} bytes) — `query --where` enabled",
                schema.num_dims(),
                bytes
            );
        }
        Command::Append { dir, tuples, seed } => {
            let catalog = Catalog::open(&dir)?;
            let schema = load_schema(&catalog)?;
            report_recovery(&mut out, &catalog, &schema)?;
            // Generate a delta batch from the recorded dataset spec with a
            // fresh seed; the ingest pipeline appends and re-rowids it.
            let raw = catalog.read_blob(SPEC_BLOB)?;
            let text =
                String::from_utf8(raw).map_err(|_| CubeError::Schema("bad spec blob".into()))?;
            let mut lines = text.lines();
            let dataset = lines.next().unwrap_or("apb").to_string();
            let scale: u64 = lines.next().and_then(|s| s.parse().ok()).unwrap_or(1000);
            let density: f64 = lines.next().and_then(|s| s.parse().ok()).unwrap_or(0.4);
            let src = match dataset.as_str() {
                "apb" => cure_data::apb::apb1_dense(density, scale, seed ^ 0xDE17A),
                "covtype" => cure_data::surrogates::covtype_like(scale as usize),
                "sep85l" => cure_data::surrogates::sep85l_like(scale as usize),
                other => return Err(CubeError::Config(format!("unknown dataset '{other}'"))),
            };
            let take = tuples.min(src.tuples.len());
            let mut delta = cure_core::Tuples::new(schema.num_dims(), schema.num_measures());
            for i in 0..take {
                delta.push_fact(src.tuples.dims_of(i), src.tuples.aggs_of(i), i as u64);
            }
            let report = cure_core::ingest_cube(
                &catalog,
                &schema,
                &delta,
                &CubeConfig::default(),
                &cure_core::IngestOptions { drop_old: true },
            )?;
            // Refresh value indexes if they existed.
            if catalog.blob_exists(&cure_query::index::vidx_blob_name("facts", 0)) {
                cure_query::index::ValueIndex::build_all(&catalog, "facts", &schema)?;
            }
            let _ = writeln!(
                out,
                "appended {take} tuples and merged incrementally in {:.2}s \
                 ({} carried, {} merged, {} new groups, {} TT demotions); \
                 active cube → {} ({} old objects dropped)",
                report.append_secs + report.merge_secs,
                report.update.carried_groups,
                report.update.merged_groups,
                report.update.new_groups,
                report.update.tt_demotions,
                report.new_prefix,
                report.dropped_objects,
            );
        }
        Command::Ingest { dir, batch, keep_old, stats } => {
            let catalog = Catalog::open(&dir)?;
            let schema = load_schema(&catalog)?;
            report_recovery(&mut out, &catalog, &schema)?;
            let text = std::fs::read_to_string(&batch)
                .map_err(|e| CubeError::Config(format!("cannot read --batch {batch}: {e}")))?;
            let delta = cure_core::parse_batch(&schema, &text)?;
            catalog.stats().reset();
            let report = cure_core::ingest_cube(
                &catalog,
                &schema,
                &delta,
                &CubeConfig::default(),
                &cure_core::IngestOptions { drop_old: !keep_old },
            )?;
            if catalog.blob_exists(&cure_query::index::vidx_blob_name("facts", 0)) {
                cure_query::index::ValueIndex::build_all(&catalog, "facts", &schema)?;
            }
            let _ = writeln!(
                out,
                "ingested {} tuple(s) in {:.3}s (append {:.3}s, merge {:.3}s): \
                 {} merged, {} carried, {} new groups, {} TT demotions; \
                 active cube → {} ({} old objects dropped)",
                report.delta_rows,
                report.append_secs + report.merge_secs,
                report.append_secs,
                report.merge_secs,
                report.update.merged_groups,
                report.update.carried_groups,
                report.update.new_groups,
                report.update.tt_demotions,
                report.new_prefix,
                report.dropped_objects,
            );
            if let Some(path) = &stats {
                use cure_serve::{IngestTotals, StatsSnapshot};
                let mut snap = StatsSnapshot::new();
                snap.set_ingest(&IngestTotals::from_report(&report));
                snap.set_storage(catalog.stats().snapshot());
                std::fs::write(path, snap.to_pretty_bytes())
                    .map_err(|e| CubeError::Config(format!("cannot write --stats {path}: {e}")))?;
                let _ = writeln!(out, "stats snapshot → {path}");
            }
        }
        Command::Plan { dir } => {
            let catalog = Catalog::open(&dir)?;
            let schema = load_schema(&catalog)?;
            let plan = cure_core::PlanSpec::new(&schema);
            let tree = plan.build_tree();
            let _ = writeln!(
                out,
                "P3 execution plan ({} nodes, height {}; ── solid / ╌╌ dashed):",
                tree.len(),
                tree.height()
            );
            out.push_str(&tree.render(&schema, plan.coder()));
        }
        Command::Check { dir, seeds, start_seed, budget_secs, corpus } => {
            use cure_check::{run_suite, SuiteConfig};
            let base = std::path::PathBuf::from(&dir);
            let corpus_dir =
                corpus.map(std::path::PathBuf::from).unwrap_or_else(|| base.join("corpus"));
            let cfg = SuiteConfig {
                seeds: (start_seed..start_seed + seeds).collect(),
                budget: budget_secs.map(std::time::Duration::from_secs),
                corpus_dir: Some(corpus_dir.clone()),
                scratch: base.join("scratch"),
            };
            let start = std::time::Instant::now();
            let report = run_suite(&cfg)
                .map_err(|e| CubeError::Config(format!("conformance sweep failed: {e}")))?;
            let _ = writeln!(
                out,
                "checked {} seed(s) in {:.1}s: {} conformant, {} failing",
                report.seeds_run,
                start.elapsed().as_secs_f64(),
                report.seeds_run - report.failures.len(),
                report.failures.len(),
            );
            for f in &report.failures {
                let _ = writeln!(
                    out,
                    "  seed {}: {} mismatch(es), minimized to {} tuple(s){}",
                    f.seed,
                    f.mismatches.len(),
                    f.minimized_tuples,
                    match &f.case_path {
                        Some(p) => format!(" → {}", p.display()),
                        None => String::new(),
                    },
                );
                for m in f.mismatches.iter().take(3) {
                    let _ = writeln!(out, "    {m}");
                }
            }
            if !report.failures.is_empty() {
                return Err(CubeError::Config(format!(
                    "{} failing seed(s); repros under {}",
                    report.failures.len(),
                    corpus_dir.display()
                )));
            }
        }
    }
    Ok(out)
}

/// Parse a predicate spec like "Product1=3,Time2=1" into
/// [`Predicate`](cure_query::index::Predicate)s.
pub fn parse_predicates(
    schema: &CubeSchema,
    spec: &str,
) -> Result<Vec<cure_query::index::Predicate>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (lhs, rhs) = part.split_once('=').ok_or_else(|| {
            CubeError::Config(format!("bad predicate '{part}' (want Dim2=value)"))
        })?;
        let (d, dim) = schema
            .dims()
            .iter()
            .enumerate()
            .filter(|(_, dim)| lhs.trim().starts_with(dim.name()))
            .max_by_key(|(_, dim)| dim.name().len())
            .ok_or_else(|| CubeError::Config(format!("no dimension matches '{lhs}'")))?;
        let level: usize = lhs.trim()[dim.name().len()..]
            .parse()
            .map_err(|_| CubeError::Config(format!("bad level in '{lhs}'")))?;
        let value: u32 =
            rhs.trim().parse().map_err(|_| CubeError::Config(format!("bad value in '{part}'")))?;
        out.push(cure_query::index::Predicate { dim: d, level, value });
    }
    Ok(out)
}

/// Parse a node spec like "Product2,Time1" (dimension name + level index;
/// omitted dimensions are at ALL).
pub fn parse_node(schema: &CubeSchema, coder: &NodeCoder, spec: &str) -> Result<u64> {
    let mut levels: Vec<usize> = (0..schema.num_dims()).map(|d| coder.all_level(d)).collect();
    if spec != "ALL" && !spec.is_empty() {
        for part in spec.split(',') {
            let part = part.trim();
            let (d, dim) = schema
                .dims()
                .iter()
                .enumerate()
                .filter(|(_, dim)| part.starts_with(dim.name()))
                .max_by_key(|(_, dim)| dim.name().len())
                .ok_or_else(|| CubeError::Config(format!("no dimension matches '{part}'")))?;
            let lvl_str = &part[dim.name().len()..];
            let level: usize =
                lvl_str.parse().map_err(|_| CubeError::Config(format!("bad level in '{part}'")))?;
            if level >= dim.num_levels() {
                return Err(CubeError::Config(format!(
                    "dimension {} has levels 0..{}, got {level}",
                    dim.name(),
                    dim.num_levels() - 1
                )));
            }
            levels[d] = level;
        }
    }
    Ok(coder.encode(&levels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cure_storage::scratch::scratch_dir;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_gen_defaults() {
        let cmd = parse_args(&s(&["gen", "/tmp/x"])).unwrap();
        assert_eq!(
            cmd,
            Command::Gen { dir: "/tmp/x".into(), dataset: "apb".into(), scale: 1000, density: 0.4 }
        );
    }

    #[test]
    fn parse_build_options() {
        let cmd = parse_args(&s(&[
            "build",
            "/tmp/x",
            "--variant",
            "cure+",
            "--budget-mb",
            "64",
            "--min-sup",
            "5",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                dir: "/tmp/x".into(),
                variant: "cure+".into(),
                budget_mb: 64,
                min_sup: 5,
                resume: false,
                threads: 1,
                stats: None,
            }
        );
    }

    #[test]
    fn parse_check_defaults() {
        let cmd = parse_args(&s(&["check", "/tmp/x"])).unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                dir: "/tmp/x".into(),
                seeds: 32,
                start_seed: 0,
                budget_secs: None,
                corpus: None,
            }
        );
    }

    #[test]
    fn parse_check_options() {
        let cmd = parse_args(&s(&[
            "check",
            "/tmp/x",
            "--seeds",
            "500",
            "--start-seed",
            "1000",
            "--budget-secs",
            "600",
            "--corpus",
            "/tmp/repros",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                dir: "/tmp/x".into(),
                seeds: 500,
                start_seed: 1000,
                budget_secs: Some(600),
                corpus: Some("/tmp/repros".into()),
            }
        );
        assert!(parse_args(&s(&["check", "/tmp/x", "--seeds", "abc"])).is_err());
    }

    #[test]
    fn check_command_sweeps_and_reports() {
        let dir = scratch_dir("cli_check");
        let out = run(Command::Check {
            dir: dir.to_string_lossy().into_owned(),
            seeds: 2,
            start_seed: 0,
            budget_secs: None,
            corpus: None,
        })
        .unwrap();
        assert!(out.contains("checked 2 seed(s)"), "unexpected output: {out}");
        assert!(out.contains("2 conformant"), "unexpected output: {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_build_threads() {
        let cmd = parse_args(&s(&["build", "/tmp/x", "--threads", "4"])).unwrap();
        assert!(matches!(cmd, Command::Build { threads: 4, .. }));
        assert!(parse_args(&s(&["build", "/tmp/x", "--threads", "0"])).is_err());
        assert!(parse_args(&s(&["build", "/tmp/x", "--threads", "many"])).is_err());
    }

    #[test]
    fn parse_build_resume_flag() {
        // `--resume` is valueless and composes with valued options on
        // either side.
        let cmd = parse_args(&s(&["build", "/tmp/x", "--resume", "--min-sup", "2"])).unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                dir: "/tmp/x".into(),
                variant: "cure".into(),
                budget_mb: 256,
                min_sup: 2,
                resume: true,
                threads: 1,
                stats: None,
            }
        );
        let cmd = parse_args(&s(&["build", "/tmp/x", "--min-sup", "2", "--resume"])).unwrap();
        assert!(matches!(cmd, Command::Build { resume: true, min_sup: 2, .. }));
    }

    #[test]
    fn resume_rejected_for_cure_plus() {
        let dir = scratch_dir("cli_resplus");
        let dir_s = dir.to_string_lossy().to_string();
        run(Command::Gen { dir: dir_s.clone(), dataset: "apb".into(), scale: 200, density: 0.4 })
            .unwrap();
        let err = run(Command::Build {
            dir: dir_s,
            variant: "cure+".into(),
            budget_mb: 256,
            min_sup: 1,
            resume: true,
            threads: 1,
            stats: None,
        })
        .unwrap_err();
        assert!(matches!(err, CubeError::Config(_)));
    }

    #[test]
    fn build_then_resume_reports_already_complete() {
        let dir = scratch_dir("cli_resume");
        let dir_s = dir.to_string_lossy().to_string();
        run(Command::Gen { dir: dir_s.clone(), dataset: "apb".into(), scale: 500, density: 0.4 })
            .unwrap();
        let build = |resume| {
            run(Command::Build {
                dir: dir_s.clone(),
                variant: "cure".into(),
                budget_mb: 256,
                min_sup: 1,
                resume,
                threads: 1,
                stats: None,
            })
        };
        let first = build(false).unwrap();
        assert!(first.contains("built cure cube"), "{first}");
        let second = build(true).unwrap();
        assert!(second.contains("already complete"), "{second}");
    }

    #[test]
    fn parse_stats_option() {
        let cmd = parse_args(&s(&["build", "/tmp/x", "--stats", "out.json"])).unwrap();
        assert!(matches!(cmd, Command::Build { stats: Some(p), .. } if p == "out.json"));
        let cmd = parse_args(&s(&["ingest", "/tmp/x", "--batch", "b.txt", "--stats", "out.json"]))
            .unwrap();
        assert!(matches!(cmd, Command::Ingest { stats: Some(p), .. } if p == "out.json"));
    }

    #[test]
    fn build_stats_snapshot_has_every_layer() {
        let dir = scratch_dir("cli_stats");
        let dir_s = dir.to_string_lossy().to_string();
        run(Command::Gen { dir: dir_s.clone(), dataset: "apb".into(), scale: 4000, density: 0.4 })
            .unwrap();
        let snap_path = dir.join("stats.json").to_string_lossy().to_string();
        let out = run(Command::Build {
            dir: dir_s,
            variant: "cure".into(),
            budget_mb: 256,
            min_sup: 1,
            resume: false,
            threads: 1,
            stats: Some(snap_path.clone()),
        })
        .unwrap();
        assert!(out.contains("stats snapshot →"), "{out}");
        let text = std::fs::read_to_string(&snap_path).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        // Build layer: sink totals, pool counters, phase timers.
        let build = v.get("build").expect("build section");
        assert!(
            build.get("sink").and_then(|x| x.get("nt_tuples")).and_then(|x| x.as_u64()).unwrap()
                > 0
        );
        assert!(
            build.get("pool").and_then(|x| x.get("tt_prunes")).and_then(|x| x.as_u64()).unwrap()
                > 0
        );
        assert!(
            build.get("phases_secs").and_then(|x| x.get("pass")).and_then(|x| x.as_f64()).unwrap()
                > 0.0
        );
        // Storage layer: the build must have written pages and fsynced.
        let storage = v.get("storage").expect("storage section");
        assert!(storage.get("pages_written").and_then(|x| x.as_u64()).unwrap() > 0);
        assert!(storage.get("fsyncs").and_then(|x| x.as_u64()).unwrap() > 0);
        assert!(storage.get("checksum_verifications").and_then(|x| x.as_u64()).is_some());
        // No serving happened, so no serve section.
        assert!(v.get("serve").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_args(&s(&["frobnicate", "/tmp/x"])).is_err());
        assert!(parse_args(&s(&["gen"])).is_err());
        assert!(parse_args(&s(&["gen", "/tmp/x", "--scale"])).is_err());
        assert!(parse_args(&s(&["gen", "/tmp/x", "stray"])).is_err());
    }

    #[test]
    fn node_spec_parsing() {
        let schema = cure_data::apb::apb_schema();
        let coder = NodeCoder::new(&schema);
        // ALL node.
        let all = parse_node(&schema, &coder, "ALL").unwrap();
        assert_eq!(all, coder.empty_node());
        // Product at Division (level 5), Time at Year (level 2).
        let id = parse_node(&schema, &coder, "Product5,Time2").unwrap();
        let levels = coder.decode(id).unwrap();
        assert_eq!(levels[0], 5);
        assert_eq!(levels[2], 2);
        assert!(coder.is_all(&levels, 1));
        assert!(coder.is_all(&levels, 3));
        // Errors.
        assert!(parse_node(&schema, &coder, "Bogus1").is_err());
        assert!(parse_node(&schema, &coder, "Product9").is_err());
        assert!(parse_node(&schema, &coder, "Productx").is_err());
    }

    #[test]
    fn append_merges_and_swaps_active_cube() {
        let dir = scratch_dir("cli_append");
        let dir_s = dir.to_string_lossy().to_string();
        run(Command::Gen { dir: dir_s.clone(), dataset: "apb".into(), scale: 8_000, density: 0.4 })
            .unwrap();
        run(Command::Build {
            dir: dir_s.clone(),
            variant: "cure".into(),
            budget_mb: 256,
            min_sup: 1,
            resume: false,
            threads: 1,
            stats: None,
        })
        .unwrap();
        let catalog = Catalog::open(&dir).unwrap();
        let schema = load_schema(&catalog).unwrap();
        let coder = NodeCoder::new(&schema);
        // Total before.
        let all_node = coder.empty_node();
        let mut cube = CureCube::open(&catalog, &schema, &active_prefix(&catalog)).unwrap();
        let before = cube.node_query(all_node).unwrap();
        drop(cube);
        let out = run(Command::Append { dir: dir_s.clone(), tuples: 200, seed: 9 }).unwrap();
        assert!(out.contains("appended 200 tuples"), "{out}");
        assert_eq!(active_prefix(&catalog), "cubeB_");
        // The merged total covers the extra tuples; the fact relation grew.
        let fact = catalog.open_relation("facts").unwrap();
        let n_after = fact.num_rows();
        drop(fact);
        let mut cube = CureCube::open(&catalog, &schema, "cubeB_").unwrap();
        let after = cube.node_query(all_node).unwrap();
        assert_eq!(after.len(), 1);
        assert!(after[0].1[0] > before[0].1[0], "ALL-node sum must grow");
        // Verify the merged ∅ equals a direct recompute over the fact file.
        let t = cure_core::Tuples::load_fact(
            &catalog.open_relation("facts").unwrap(),
            schema.num_dims(),
            schema.num_measures(),
        )
        .unwrap();
        assert_eq!(t.len() as u64, n_after);
        let want = cure_core::reference::compute_node(
            &schema,
            &t,
            &(0..schema.num_dims()).map(|d| coder.all_level(d)).collect::<Vec<_>>(),
        );
        assert_eq!(after[0].1, want[0].aggs);
        // Old cube objects gone.
        assert!(!catalog.exists("cube_aggregates") || active_prefix(&catalog) != "cubeB_");
        // Second append swaps back.
        let out = run(Command::Append { dir: dir_s, tuples: 50, seed: 11 }).unwrap();
        assert!(out.contains("active cube → cube_"), "{out}");
    }

    #[test]
    fn parse_ingest_options() {
        let cmd = parse_args(&s(&["ingest", "/tmp/x", "--batch", "b.txt"])).unwrap();
        assert_eq!(
            cmd,
            Command::Ingest {
                dir: "/tmp/x".into(),
                batch: "b.txt".into(),
                keep_old: false,
                stats: None,
            }
        );
        let cmd = parse_args(&s(&[
            "ingest",
            "/tmp/x",
            "--batch",
            "b.txt",
            "--keep-old",
            "--stats",
            "s.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Ingest {
                dir: "/tmp/x".into(),
                batch: "b.txt".into(),
                keep_old: true,
                stats: Some("s.json".into()),
            }
        );
        // `--keep-old` is valueless and composes on either side of `--batch`.
        let cmd = parse_args(&s(&["ingest", "/tmp/x", "--keep-old", "--batch", "b.txt"])).unwrap();
        assert!(matches!(cmd, Command::Ingest { keep_old: true, .. }));
        let err = parse_args(&s(&["ingest", "/tmp/x"])).unwrap_err();
        assert!(err.contains("--batch is required"), "{err}");
    }

    #[test]
    fn ingest_applies_batch_and_swaps_active_cube() {
        let dir = scratch_dir("cli_ingest");
        let dir_s = dir.to_string_lossy().to_string();
        run(Command::Gen { dir: dir_s.clone(), dataset: "apb".into(), scale: 8_000, density: 0.4 })
            .unwrap();
        run(Command::Build {
            dir: dir_s.clone(),
            variant: "cure".into(),
            budget_mb: 256,
            min_sup: 1,
            resume: false,
            threads: 1,
            stats: None,
        })
        .unwrap();
        let catalog = Catalog::open(&dir).unwrap();
        let schema = load_schema(&catalog).unwrap();
        let coder = NodeCoder::new(&schema);
        let all_node = coder.empty_node();
        let rows_before = catalog.open_relation("facts").unwrap().num_rows();
        // Three tuples in the "dims | measures" format, plus noise the
        // parser must skip (comments, blank lines).
        let batch = dir.join("batch.txt");
        std::fs::write(
            &batch,
            "# product customer time channel | units dollars\n\
             \n\
             10 3 2 1 | 5 100   # trailing comment\n\
             10 3 2 1 | 7 200\n\
             9 2 1 0 | 1 1\n",
        )
        .unwrap();
        let stats_path = dir.join("ingest_stats.json").to_string_lossy().to_string();
        let out = run(Command::Ingest {
            dir: dir_s.clone(),
            batch: batch.to_string_lossy().to_string(),
            keep_old: false,
            stats: Some(stats_path.clone()),
        })
        .unwrap();
        assert!(out.contains("ingested 3 tuple(s)"), "{out}");
        assert!(out.contains("active cube → cubeB_"), "{out}");
        assert_eq!(active_prefix(&catalog), "cubeB_");
        assert_eq!(catalog.open_relation("facts").unwrap().num_rows(), rows_before + 3);
        // The merged ALL node equals a direct recompute over the grown facts.
        let t = cure_core::Tuples::load_fact(
            &catalog.open_relation("facts").unwrap(),
            schema.num_dims(),
            schema.num_measures(),
        )
        .unwrap();
        let want = cure_core::reference::compute_node(
            &schema,
            &t,
            &(0..schema.num_dims()).map(|d| coder.all_level(d)).collect::<Vec<_>>(),
        );
        let mut cube = CureCube::open(&catalog, &schema, "cubeB_").unwrap();
        let got = cube.node_query(all_node).unwrap();
        assert_eq!(got[0].1, want[0].aggs);
        drop(cube);
        // The stats snapshot carries the ingest and storage sections.
        let text = std::fs::read_to_string(&stats_path).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        let ing = v.get("ingest").expect("ingest section");
        assert_eq!(ing.get("delta_rows").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(ing.get("batches").and_then(|x| x.as_u64()), Some(1));
        assert!(v.get("storage").and_then(|x| x.get("pages_written")).is_some());
        // A malformed batch is rejected before touching the cube.
        std::fs::write(&batch, "1 2 3 | 4 5\n").unwrap();
        let err = run(Command::Ingest {
            dir: dir_s,
            batch: batch.to_string_lossy().to_string(),
            keep_old: false,
            stats: None,
        })
        .unwrap_err();
        assert!(format!("{err}").contains("batch line 1"), "{err}");
        assert_eq!(active_prefix(&catalog), "cubeB_");
    }

    #[test]
    fn plan_command_renders_tree() {
        let dir = scratch_dir("cli_plan");
        let dir_s = dir.to_string_lossy().to_string();
        run(Command::Gen {
            dir: dir_s.clone(),
            dataset: "apb".into(),
            scale: 50_000,
            density: 0.4,
        })
        .unwrap();
        let out = run(Command::Plan { dir: dir_s }).unwrap();
        assert!(out.contains("168 nodes"), "{out}");
        assert!(out.contains("height 12"), "{out}");
        assert!(out.lines().count() > 168);
    }

    #[test]
    fn gen_build_query_info_roundtrip() {
        let dir = scratch_dir("cli");
        let dir_s = dir.to_string_lossy().to_string();
        let out = run(Command::Gen {
            dir: dir_s.clone(),
            dataset: "apb".into(),
            scale: 4000,
            density: 0.4,
        })
        .unwrap();
        assert!(out.contains("generated"), "{out}");
        let out = run(Command::Build {
            dir: dir_s.clone(),
            variant: "cure+".into(),
            budget_mb: 256,
            min_sup: 1,
            resume: false,
            threads: 1,
            stats: None,
        })
        .unwrap();
        assert!(out.contains("built cure+"), "{out}");
        let out = run(Command::Query {
            dir: dir_s.clone(),
            node: Some("Product5".into()),
            node_id: None,
            iceberg: None,
            filter: None,
        })
        .unwrap();
        assert!(out.contains("node Product5"), "{out}");
        // Build indexes, then a filtered query at a coarser level.
        let out_idx = run(Command::Index { dir: dir_s.clone() }).unwrap();
        assert!(out_idx.contains("built value indexes"), "{out_idx}");
        // Predicate at a coarser Time level over a Time0 query.
        let out = run(Command::Query {
            dir: dir_s.clone(),
            node: Some("Time0".into()),
            node_id: None,
            iceberg: None,
            filter: Some("Time2=1".into()),
        })
        .unwrap();
        assert!(out.contains("node Time0"), "{out}");
        assert!(!out.contains("(0 rows)"), "filter should match rows: {out}");
        let out = run(Command::Info { dir: dir_s }).unwrap();
        assert!(out.contains("lattice nodes: 168"), "{out}");
        assert!(out.contains("cube: variant"), "{out}");
    }
}

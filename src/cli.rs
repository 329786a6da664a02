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
use cure_query::{CureCube, ReadPath};
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
    /// Measure incremental ingest vs fresh rebuild across delta sizes;
    /// writes `results/ingest.json`.
    IngestBench {
        dir: String,
        /// Output path for the JSON report.
        out: String,
    },
    /// Serve the built cube from a worker pool and measure throughput,
    /// latency quantiles, and shared-cache hit rates at each thread count.
    ServeBench {
        dir: String,
        queries: u64,
        threads: Vec<usize>,
        queue: usize,
        /// Zipf exponent for skewed node popularity; None = uniform.
        zipf: Option<f64>,
        seed: u64,
        /// Write a JSON [`StatsSnapshot`](cure_serve::StatsSnapshot)
        /// (per-run latency histograms, cache hit rates, storage I/O) to
        /// this path.
        stats: Option<String>,
        /// Per-request deadline in milliseconds, enforced at dequeue and
        /// between page fetches (defaults to 5 ms under `--chaos`).
        deadline_ms: Option<u64>,
        /// Serve through the hardened path with a seeded read-fault
        /// schedule underneath: deliberately tiny page caches, transient
        /// and hard I/O errors plus bit flips on reads, load shedding on
        /// a full queue, and a hair-trigger circuit breaker.
        chaos: bool,
        /// Which read path serves the queries: the shared page caches
        /// (default) or the zero-copy mmap path with per-node indexes.
        read_path: ReadPath,
        /// Serve through the scatter-gather [`ShardRouter`]
        /// (`cure_serve::ShardRouter`) over this many partition-scoped
        /// sub-cubes instead of the single active cube; every merged
        /// answer is first verified against the unsharded cube.
        shards: Option<usize>,
        /// Replica directories backing each shard (1 = primary only);
        /// extra replicas are shipped with CRC-verified snapshot
        /// replication before serving starts.
        replicas: usize,
        /// Serve each `(shard, replica)` from its own
        /// `cure-shard-serve` child process over a loopback socket
        /// instead of in-process services; the bench then kills one
        /// replica process mid-run and proves answers stay correct.
        socket: bool,
    },
    /// Serve one shard's sub-cube over a TCP socket (the per-process
    /// worker behind `serve-bench --socket`; also available as the
    /// standalone `cure-shard-serve` binary). Prints `LISTENING <addr>`
    /// and serves until killed.
    ShardServe { dir: String, shard: usize, listen: String, read_path: ReadPath },
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
        if key == "resume" || key == "keep-old" || key == "chaos" || key == "socket" {
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
        "ingest-bench" => Ok(Command::IngestBench { dir, out: get("out", "results/ingest.json") }),
        "serve-bench" => {
            let chaos = opts.contains_key("chaos");
            let socket = opts.contains_key("socket");
            let shards = match opts.get("shards") {
                Some(v) => match v.parse() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => return Err("bad --shards (want an integer ≥ 1)".to_string()),
                },
                None => None,
            };
            // The chaos fault schedule targets one service's read path;
            // the router fans out over many. Keep the modes orthogonal.
            if chaos && shards.is_some() {
                return Err("--shards cannot be combined with --chaos".to_string());
            }
            if socket && shards.is_none() {
                return Err("--socket needs --shards (sharded serving only)".to_string());
            }
            if socket && chaos {
                return Err("--socket cannot be combined with --chaos".to_string());
            }
            Ok(Command::ServeBench {
                dir,
                queries: get("queries", "1000").parse().map_err(|_| "bad --queries".to_string())?,
                threads: {
                    // Same contract as `build --threads`: every count ≥ 1 and
                    // the list non-empty, rejected here rather than deep in the
                    // worker pool.
                    let list = get("threads", "1,2,4,8")
                        .split(',')
                        .map(|t| match t.trim().parse() {
                            Ok(v) if v >= 1 => Ok(v),
                            _ => Err("bad --threads (want an integer ≥ 1)".to_string()),
                        })
                        .collect::<std::result::Result<Vec<usize>, String>>()?;
                    if list.is_empty() {
                        return Err("bad --threads (want an integer ≥ 1)".to_string());
                    }
                    list
                },
                queue: get("queue", "64").parse().map_err(|_| "bad --queue".to_string())?,
                zipf: match opts.get("zipf") {
                    Some(v) => Some(v.parse().map_err(|_| "bad --zipf".to_string())?),
                    None => None,
                },
                seed: get("seed", "1").parse().map_err(|_| "bad --seed".to_string())?,
                stats: opts.get("stats").cloned(),
                deadline_ms: match opts.get("deadline-ms") {
                    Some(v) => Some(v.parse().map_err(|_| "bad --deadline-ms".to_string())?),
                    None => None,
                },
                chaos,
                read_path: match opts.get("read-path") {
                    Some(v) => ReadPath::parse(v)
                        .ok_or_else(|| "bad --read-path (want cache|mmap)".to_string())?,
                    None => ReadPath::Cache,
                },
                shards,
                replicas: match get("replicas", "1").parse() {
                    Ok(r) if r >= 1 => r,
                    _ => return Err("bad --replicas (want an integer ≥ 1)".to_string()),
                },
                socket,
            })
        }
        "shard-serve" => Ok(Command::ShardServe {
            dir,
            shard: get("shard", "0").parse().map_err(|_| "bad --shard".to_string())?,
            listen: opts
                .get("listen")
                .cloned()
                .ok_or_else(|| "--listen is required (e.g. --listen 127.0.0.1:0)".to_string())?,
            read_path: match opts.get("read-path") {
                Some(v) => ReadPath::parse(v)
                    .ok_or_else(|| "bad --read-path (want cache|mmap)".to_string())?,
                None => ReadPath::Cache,
            },
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
     cure-cli ingest-bench <dir> [--out F.json]\n  \
     cure-cli serve-bench <dir> [--queries N] [--threads 1,2,4,8] [--queue N] [--zipf S] [--seed S] [--deadline-ms N] [--chaos] [--read-path cache|mmap] [--shards N] [--replicas M] [--socket] [--stats F.json]\n  \
     cure-cli shard-serve <dir> --listen ADDR [--shard K] [--read-path cache|mmap]\n  \
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

/// `ingest-bench`: regenerate the recorded dataset, then for a sweep of
/// delta ratios build a base cube over `|R| - |delta|` rows, ingest the
/// remainder through the durable pipeline, and time a fresh rebuild over
/// all rows for comparison. Scratch catalogs live under `<dir>/` and are
/// removed afterwards.
fn ingest_bench(out: &mut String, dir: &str, out_path: &str) -> Result<()> {
    let catalog = Catalog::open(dir)?;
    let raw = catalog.read_blob(SPEC_BLOB)?;
    let text = String::from_utf8(raw).map_err(|_| CubeError::Schema("bad spec blob".into()))?;
    let mut lines = text.lines();
    let dataset = lines.next().unwrap_or("apb").to_string();
    let scale: u64 = lines.next().and_then(|s| s.parse().ok()).unwrap_or(1000);
    let density: f64 = lines.next().and_then(|s| s.parse().ok()).unwrap_or(0.4);
    let ds = make_dataset(&dataset, scale, density)?;
    let all = &ds.tuples;
    let n = all.len();
    if n < 4 {
        return Err(CubeError::Config(format!("dataset too small to bench ({n} tuples)")));
    }
    let schema = &ds.schema;
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let slice = |from: usize, to: usize| {
        let mut s = cure_core::Tuples::new(d, y);
        for i in from..to {
            s.push_fact(all.dims_of(i), all.aggs_of(i), (i - from) as u64);
        }
        s
    };
    let build = |catalog: &Catalog, t: &cure_core::Tuples| -> Result<f64> {
        let mut heap = catalog.create_or_replace("facts", cure_core::Tuples::fact_schema(d, y))?;
        t.store_fact(&mut heap)?;
        heap.sync()?;
        drop(heap);
        let cfg = CubeConfig::default();
        let start = std::time::Instant::now();
        let mut sink = DiskSink::new(catalog, "cube_", schema, false, false, None)?;
        let report =
            cure_core::build_cure_cube(catalog, "facts", schema, &cfg, &mut sink, "part_", 1)?;
        let secs = start.elapsed().as_secs_f64();
        CubeMeta {
            prefix: "cube_".into(),
            fact_rel: "facts".into(),
            n_dims: d,
            n_measures: y,
            dr: false,
            plus: false,
            cat_format: report.stats.cat_format,
            partition_level: report.partition.as_ref().map(|p| p.choice.level),
            min_support: 1,
        }
        .write(catalog)?;
        Ok(secs)
    };
    let _ = writeln!(
        out,
        "ingest-bench: {dataset} scale {scale} ({n} tuples); delta ingest vs fresh rebuild:"
    );
    let ratios = [0.01, 0.02, 0.05, 0.10, 0.20, 0.50];
    let mut results = Vec::new();
    for (k, &ratio) in ratios.iter().enumerate() {
        let delta_n = ((n as f64 * ratio) as usize).clamp(1, n - 1);
        let base_n = n - delta_n;
        let scratch = std::path::PathBuf::from(dir).join(format!("ingest_bench_r{k}"));
        let _ = std::fs::remove_dir_all(&scratch);
        // Incremental: base build, then ingest the remainder.
        let inc = Catalog::open(scratch.join("inc"))?;
        build(&inc, &slice(0, base_n))?;
        let report = cure_core::ingest_cube(
            &inc,
            schema,
            &slice(base_n, n),
            &CubeConfig::default(),
            &cure_core::IngestOptions { drop_old: true },
        )?;
        let ingest_secs = report.append_secs + report.merge_secs;
        // Fresh rebuild over all rows.
        let fresh = Catalog::open(scratch.join("fresh"))?;
        let fresh_secs = build(&fresh, all)?;
        let _ = std::fs::remove_dir_all(&scratch);
        let speedup = fresh_secs / ingest_secs.max(1e-9);
        let _ = writeln!(
            out,
            "  |delta|/|R| {:>5.2}: ingest {:>8.3}s (append {:.3}s, merge {:.3}s)  \
             rebuild {:>8.3}s  speedup {:>6.2}x",
            ratio, ingest_secs, report.append_secs, report.merge_secs, fresh_secs, speedup,
        );
        results.push(serde_json::json!(std::collections::BTreeMap::from([
            ("ratio".to_string(), serde_json::json!(ratio)),
            ("base_rows".to_string(), serde_json::json!(base_n as u64)),
            ("delta_rows".to_string(), serde_json::json!(delta_n as u64)),
            ("ingest_secs".to_string(), serde_json::json!(ingest_secs)),
            ("append_secs".to_string(), serde_json::json!(report.append_secs)),
            ("merge_secs".to_string(), serde_json::json!(report.merge_secs)),
            ("rebuild_secs".to_string(), serde_json::json!(fresh_secs)),
            ("speedup".to_string(), serde_json::json!(speedup)),
            ("merged_groups".to_string(), serde_json::json!(report.update.merged_groups)),
            ("carried_groups".to_string(), serde_json::json!(report.update.carried_groups)),
            ("new_groups".to_string(), serde_json::json!(report.update.new_groups)),
            ("tt_demotions".to_string(), serde_json::json!(report.update.tt_demotions)),
        ])));
    }
    let doc = serde_json::json!(std::collections::BTreeMap::from([
        ("dataset".to_string(), serde_json::json!(dataset.clone())),
        ("scale".to_string(), serde_json::json!(scale)),
        ("rows".to_string(), serde_json::json!(n as u64)),
        ("runs".to_string(), serde_json::json!(results)),
    ]));
    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                CubeError::Config(format!("cannot create {}: {e}", parent.display()))
            })?;
        }
    }
    let rendered = serde_json::to_string_pretty(&doc)
        .map_err(|e| CubeError::Config(format!("cannot render report: {e}")))?;
    std::fs::write(out_path, rendered)
        .map_err(|e| CubeError::Config(format!("cannot write {out_path}: {e}")))?;
    let _ = writeln!(out, "report → {out_path}");
    Ok(())
}

/// Locate the `cure-shard-serve` binary: the `CURE_SHARD_SERVE_BIN`
/// env override first, then every ancestor of the current executable
/// (which finds `target/{debug,release}/cure-shard-serve` both from an
/// installed `cure-cli` and from a test executable under `deps/`).
fn shard_serve_bin() -> Result<std::path::PathBuf> {
    if let Ok(p) = std::env::var("CURE_SHARD_SERVE_BIN") {
        let p = std::path::PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(CubeError::Config(format!(
            "CURE_SHARD_SERVE_BIN points at '{}', which does not exist",
            p.display()
        )));
    }
    let exe = std::env::current_exe()
        .map_err(|e| CubeError::Config(format!("cannot resolve current executable: {e}")))?;
    for dir in exe.ancestors().skip(1) {
        let cand = dir.join("cure-shard-serve");
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err(CubeError::Config(
        "cannot find the cure-shard-serve binary next to cure-cli (build it with \
         `cargo build -p cure-serve --bins`, or set CURE_SHARD_SERVE_BIN)"
            .into(),
    ))
}

/// Spawned shard-server children, killed (SIGKILL) and reaped on drop
/// so an error path never leaks processes.
struct ShardProcs(Vec<Option<std::process::Child>>);

impl ShardProcs {
    fn push(&mut self, child: std::process::Child) -> usize {
        self.0.push(Some(child));
        self.0.len() - 1
    }

    /// Hard-kill child `i` mid-run (no shutdown handshake — this is the
    /// process-death drill, not a graceful stop).
    fn kill(&mut self, i: usize) -> Result<u32> {
        let child = self.0[i]
            .as_mut()
            .ok_or_else(|| CubeError::Config(format!("child {i} already killed")))?;
        let pid = child.id();
        child.kill().map_err(|e| CubeError::Config(format!("cannot kill child {i}: {e}")))?;
        let _ = child.wait();
        self.0[i] = None;
        Ok(pid)
    }
}

impl Drop for ShardProcs {
    fn drop(&mut self) {
        for c in self.0.iter_mut().flatten() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Spawn one `cure-shard-serve` child on an OS-assigned loopback port
/// and parse the `LISTENING <addr>` line it prints.
fn spawn_shard_server(
    bin: &std::path::Path,
    dir: &std::path::Path,
    shard: usize,
    read_path: ReadPath,
) -> Result<(std::process::Child, String)> {
    use std::io::BufRead as _;
    let mut child = std::process::Command::new(bin)
        .arg("--dir")
        .arg(dir)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--read-path")
        .arg(read_path.label())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| CubeError::Config(format!("cannot spawn {}: {e}", bin.display())))?;
    let stdout =
        child.stdout.take().ok_or_else(|| CubeError::Config("child stdout not captured".into()))?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    match lines.next() {
        Some(Ok(line)) if line.starts_with("LISTENING ") => {
            let addr = line["LISTENING ".len()..].trim().to_string();
            Ok((child, addr))
        }
        other => {
            let _ = child.kill();
            let _ = child.wait();
            Err(CubeError::Config(format!(
                "shard {shard} server did not announce its address (got {other:?})"
            )))
        }
    }
}

/// `serve-bench --shards N [--replicas M] [--socket]`: build N
/// partition-scoped sub-cubes over the active fact relation, ship M−1
/// CRC-verified replica directories, verify every merged answer against
/// the unsharded active cube, then drive the scatter-gather
/// [`ShardRouter`](cure_serve::ShardRouter) through the same load
/// harness as the single-service bench. With `--socket` every
/// `(shard, replica)` is its own `cure-shard-serve` child process
/// behind a loopback TCP socket, and the bench SIGKILLs one replica
/// process mid-run to prove the router fails over without ever
/// answering wrong data.
#[allow(clippy::too_many_arguments)]
fn serve_bench_sharded(
    out: &mut String,
    dir: &str,
    queries: u64,
    threads: &[usize],
    queue: usize,
    zipf: Option<f64>,
    seed: u64,
    stats: Option<&str>,
    deadline_ms: Option<u64>,
    read_path: ReadPath,
    shards: usize,
    replicas: usize,
    socket: bool,
) -> Result<()> {
    use cure_serve::{
        replicate_shards, run_load_on, LoadSpec, NodePopularity, RemoteShardBackend,
        RemoteShardConfig, ShardBackend, ShardRouter, ShardRouterConfig, StatsSnapshot,
    };
    let catalog = Catalog::open(dir)?;
    let schema = std::sync::Arc::new(load_schema(&catalog)?);
    let prefix = active_prefix(&catalog);
    let meta = CubeMeta::read(&catalog, &prefix)?;
    if meta.min_support > 1 {
        return Err(CubeError::Config(format!(
            "serve-bench --shards needs a full cube (active cube has min_support {}); iceberg \
             thresholds only apply post-merge — rebuild with --min-sup 1",
            meta.min_support
        )));
    }
    let report = cure_core::build_shard_cubes(
        &catalog,
        &meta.fact_rel,
        &schema,
        &CubeConfig::default(),
        shards,
        1,
    )?;
    let _ = writeln!(
        out,
        "built {} shard sub-cube(s) over {} fact row(s) (rows/shard {:?})",
        report.shards,
        report.rows_per_shard.iter().sum::<u64>(),
        report.rows_per_shard,
    );
    // The primary directory is replica 0; ship the rest through the
    // CRC-verified snapshot-replication path.
    let mut replica_dirs = vec![std::path::PathBuf::from(dir)];
    for j in 1..replicas {
        let dest = std::path::Path::new(dir).join(format!("replica{j}"));
        let _ = std::fs::remove_dir_all(&dest);
        let rep = replicate_shards(&catalog, shards, &dest)?;
        let _ = writeln!(
            out,
            "replica {j}: {} file(s), {} byte(s), {} page CRC(s) verified → {}",
            rep.files,
            rep.bytes,
            rep.pages_verified,
            dest.display(),
        );
        replica_dirs.push(dest);
    }
    // Socket mode: one cure-shard-serve child per (shard, replica),
    // each announcing an OS-assigned loopback port; the router drives
    // them through RemoteShardBackend sockets. Children are killed and
    // reaped when `procs` drops, error paths included.
    let mut procs = ShardProcs(Vec::new());
    let mut remotes: Vec<Vec<(usize, RemoteShardBackend)>> = Vec::new();
    let bin = if socket { Some(shard_serve_bin()?) } else { None };
    let router = if let Some(bin) = &bin {
        let mut backends: Vec<Vec<std::sync::Arc<dyn ShardBackend>>> = Vec::new();
        for k in 0..shards {
            let mut row = Vec::new();
            let mut brow: Vec<std::sync::Arc<dyn ShardBackend>> = Vec::new();
            for rdir in &replica_dirs {
                let (child, addr) = spawn_shard_server(bin, rdir, k, read_path)?;
                let idx = procs.push(child);
                let backend = RemoteShardBackend::connect(&addr, RemoteShardConfig::default())
                    .map_err(|e| {
                        CubeError::Config(format!("cannot connect to shard {k} at {addr}: {e}"))
                    })?;
                row.push((idx, backend.clone()));
                brow.push(std::sync::Arc::new(backend));
            }
            remotes.push(row);
            backends.push(brow);
        }
        let _ = writeln!(
            out,
            "socket shard-serve: spawned {} process(es) ({shards} shard(s) × {replicas} \
             replica(s)) on loopback",
            shards * replicas,
        );
        ShardRouter::from_backends(std::sync::Arc::clone(&schema), backends, read_path)?
    } else {
        ShardRouter::open(
            &replica_dirs,
            std::sync::Arc::clone(&schema),
            &ShardRouterConfig { read_path, ..ShardRouterConfig::default() },
        )?
    };
    // Correctness gate before any throughput numbers: every lattice
    // node's merged answer must equal the unsharded active cube's.
    let mut unsharded = CureCube::open(&catalog, &schema, &prefix)?;
    for id in 0..router.num_nodes() {
        let mut want = unsharded.node_query(id)?;
        want.sort();
        let mut got = router.query(id)?.rows;
        got.sort();
        if got != want {
            return Err(CubeError::Config(format!(
                "sharded answer differs from the unsharded cube on node {id} \
                 ({} vs {} row(s))",
                got.len(),
                want.len()
            )));
        }
    }
    let _ = writeln!(
        out,
        "sharded answers verified identical to unsharded cube ({} node(s), {shards} shard(s), \
         {replicas} replica(s))",
        router.num_nodes(),
    );
    // Process-death drill (socket mode with a replica to spare):
    // SIGKILL one replica's server mid-run, re-sweep every node against
    // the unsharded cube — failover must produce identical answers,
    // never wrong data — then respawn the process and redirect its
    // backend to the new port.
    if socket && replicas >= 2 {
        router.reset_stats();
        let (victim_idx, victim_backend) = remotes[0][1].clone();
        let pid = procs.kill(victim_idx)?;
        let _ = writeln!(out, "killed shard 0 replica 1 (pid {pid}) mid-run");
        for id in 0..router.num_nodes() {
            let mut want = unsharded.node_query(id)?;
            want.sort();
            let mut got = router.query(id)?.rows;
            got.sort();
            if got != want {
                return Err(CubeError::Config(format!(
                    "WRONG DATA after process kill on node {id} ({} vs {} row(s))",
                    got.len(),
                    want.len()
                )));
            }
        }
        let failovers: u64 = router.shard_stats().iter().map(|s| s.failovers).sum();
        let wire = router.wire_totals();
        if failovers == 0 {
            return Err(CubeError::Config(
                "process kill drill routed no traffic through failover (expected > 0)".into(),
            ));
        }
        let _ = writeln!(
            out,
            "survived process kill: {} node answer(s) identical via failover; {failovers} \
             failover(s), {} reconnect(s), {} wire timeout(s)",
            router.num_nodes(),
            wire.reconnects,
            wire.timeouts,
        );
        if let Some(bin) = &bin {
            let (child, addr) = spawn_shard_server(bin, &replica_dirs[1], 0, read_path)?;
            procs.push(child);
            victim_backend.redirect(&addr);
            // Full recovery: the respawned replica serves identical
            // answers through the redirected backend.
            for id in 0..router.num_nodes() {
                let mut want = unsharded.node_query(id)?;
                want.sort();
                let mut got = router.query(id)?.rows;
                got.sort();
                if got != want {
                    return Err(CubeError::Config(format!(
                        "respawned replica answered wrong data on node {id}"
                    )));
                }
            }
            let _ = writeln!(out, "respawned shard 0 replica 1 → {addr}; answers verified again");
        }
    }
    let popularity = match zipf {
        Some(s) => NodePopularity::Zipf(s),
        None => NodePopularity::Uniform,
    };
    let deadline = deadline_ms.map(std::time::Duration::from_millis);
    // Warm every replica's caches so the runs measure steady state.
    run_load_on(
        &router,
        &LoadSpec {
            queries: queries / 4,
            threads: 4,
            queue_depth: queue,
            popularity,
            seed,
            deadline: None,
            shed_on_full: false,
        },
    )?;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let _ = writeln!(
        out,
        "serving {} nodes over {shards} shard(s) × {replicas} replica(s), {queries} \
         queries/run, {:?} popularity, {} read path ({cores} core(s) available — speedup is \
         bounded by this):",
        router.num_nodes(),
        popularity,
        read_path.label(),
    );
    // Per-run page I/O starts here: exclude build/replication/warm-up.
    catalog.stats().reset();
    let mut snap = StatsSnapshot::new();
    let mut runs = Vec::new();
    let mut base_qps = 0.0;
    for &t in threads {
        let spec = LoadSpec {
            queries,
            threads: t,
            queue_depth: queue,
            popularity,
            seed,
            deadline,
            shed_on_full: false,
        };
        let r = run_load_on(&router, &spec)?;
        snap.push_serve_run(&r, &router.metrics().latency().bucket_counts());
        if base_qps == 0.0 {
            base_qps = r.qps;
        }
        let speedup = if base_qps > 0.0 { r.qps / base_qps } else { 0.0 };
        let _ = writeln!(
            out,
            "  {t} thread(s): {:>8.0} q/s ({:.2}x)  p50 {:>6.0}µs  p95 {:>6.0}µs  \
             p99 {:>6.0}µs  fact cache {:.1}%  agg cache {:.1}%",
            r.qps,
            speedup,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.fact_hit_rate * 100.0,
            r.agg_hit_rate * 100.0,
        );
        runs.push(serde_json::json!(std::collections::BTreeMap::from([
            ("threads".to_string(), serde_json::json!(t as u64)),
            ("shards".to_string(), serde_json::json!(shards as u64)),
            ("replicas".to_string(), serde_json::json!(replicas as u64)),
            ("read_path".to_string(), serde_json::json!(r.read_path)),
            ("queries".to_string(), serde_json::json!(r.queries)),
            ("errors".to_string(), serde_json::json!(r.errors)),
            ("qps".to_string(), serde_json::json!(r.qps)),
            ("speedup".to_string(), serde_json::json!(speedup)),
            ("p50_us".to_string(), serde_json::json!(r.p50_us)),
            ("p95_us".to_string(), serde_json::json!(r.p95_us)),
            ("p99_us".to_string(), serde_json::json!(r.p99_us)),
            ("fact_hit_rate".to_string(), serde_json::json!(r.fact_hit_rate)),
            ("agg_hit_rate".to_string(), serde_json::json!(r.agg_hit_rate)),
            ("fact_shard_hit_rates".to_string(), serde_json::json!(r.fact_shard_hit_rates.clone())),
        ])));
    }
    // Shard-labelled counters for the final run (run_load_on resets
    // them per run so each run's numbers stand alone).
    for s in router.shard_stats() {
        let _ = writeln!(
            out,
            "  shard {}: {} sub-quer(ies), {} error(s), {} failover(s) across {} replica(s)",
            s.shard, s.queries, s.errors, s.failovers, s.replicas,
        );
        if socket {
            let _ = writeln!(
                out,
                "           wire: {} B in, {} B out, {} reconnect(s), {} timeout(s)",
                s.wire.bytes_in, s.wire.bytes_out, s.wire.reconnects, s.wire.timeouts,
            );
        }
    }
    snap.set_shards(&router.shard_stats());
    let _ =
        writeln!(out, "{}", serde_json::to_string(&serde_json::json!(runs)).unwrap_or_default());
    if let Some(path) = stats {
        snap.set_storage(catalog.stats().snapshot());
        std::fs::write(path, snap.to_pretty_bytes())
            .map_err(|e| CubeError::Config(format!("cannot write --stats {path}: {e}")))?;
        let _ = writeln!(out, "stats snapshot → {path}");
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
        Command::IngestBench { dir, out: out_path } => {
            ingest_bench(&mut out, &dir, &out_path)?;
        }
        Command::ServeBench {
            shards: Some(shards),
            dir,
            queries,
            threads,
            queue,
            zipf,
            seed,
            stats,
            deadline_ms,
            chaos: _,
            read_path,
            replicas,
            socket,
        } => {
            serve_bench_sharded(
                &mut out,
                &dir,
                queries,
                &threads,
                queue,
                zipf,
                seed,
                stats.as_deref(),
                deadline_ms,
                read_path,
                shards,
                replicas,
                socket,
            )?;
        }
        Command::ServeBench {
            dir,
            queries,
            threads,
            queue,
            zipf,
            seed,
            stats,
            deadline_ms,
            chaos,
            read_path,
            shards: _,
            replicas: _,
            socket: _,
        } => {
            use cure_serve::{
                run_load, BreakerState, CubeService, LoadSpec, NodePopularity, QueryOptions,
                ResilienceConfig, StatsSnapshot,
            };
            let plain = std::sync::Arc::new(Catalog::open(&dir)?);
            let schema = std::sync::Arc::new(load_schema(&plain)?);
            let prefix = active_prefix(&plain);
            let popularity = match zipf {
                Some(s) => NodePopularity::Zipf(s),
                None => NodePopularity::Uniform,
            };
            // A deadline default kicks in under chaos so shedding and
            // timeouts have something to cut against.
            let deadline = deadline_ms
                .or(if chaos { Some(5) } else { None })
                .map(std::time::Duration::from_millis);
            let (catalog, service, queue, fault_schedule) = if chaos {
                // Tiny caches force queries back to disk, where the fault
                // schedule lives; the schedule starts after the reads the
                // service issues at startup (measured by a counting
                // probe), so the service always opens cleanly.
                let caches = cure_query::CacheConfig { fact_pages: 8, agg_pages: 4, shards: 2 };
                let counter = std::sync::Arc::new(cure_storage::FaultInjector::counting());
                {
                    let probe = std::sync::Arc::new(Catalog::open_with_policy(
                        &dir,
                        std::sync::Arc::clone(&counter)
                            as std::sync::Arc<dyn cure_storage::IoPolicy>,
                    )?);
                    cure_query::ConcurrentCube::open_with_read_path(
                        probe,
                        std::sync::Arc::clone(&schema),
                        &prefix,
                        caches,
                        read_path,
                    )?;
                }
                // A small bounded budget: enough to exercise retry (the
                // transient ordinals), the breaker (the hard ordinals) and
                // quarantine (the flip ordinals), small enough that the
                // service drains it and heals between runs.
                let fault_budget = (queries / 25).clamp(2, 12);
                let policy = std::sync::Arc::new(cure_storage::FaultInjector::chaos_reads(
                    counter.reads(),
                    2,
                    fault_budget,
                    cure_storage::ReadFaultKind::Chaos,
                ));
                let catalog = std::sync::Arc::new(Catalog::open_with_policy(
                    &dir,
                    std::sync::Arc::clone(&policy) as std::sync::Arc<dyn cure_storage::IoPolicy>,
                )?);
                let cube = cure_query::ConcurrentCube::open_with_read_path(
                    std::sync::Arc::clone(&catalog),
                    std::sync::Arc::clone(&schema),
                    &prefix,
                    caches,
                    read_path,
                )?;
                let service = CubeService::from_cube_with_resilience(
                    std::sync::Arc::new(cube),
                    ResilienceConfig {
                        breaker_threshold: 1,
                        breaker_cooldown: std::time::Duration::from_millis(5),
                        ..ResilienceConfig::default()
                    },
                );
                (catalog, service, queue.min(4), Some((policy, fault_budget)))
            } else {
                let service = CubeService::open_with_read_path(
                    std::sync::Arc::clone(&plain),
                    std::sync::Arc::clone(&schema),
                    &prefix,
                    cure_query::CacheConfig::default(),
                    read_path,
                )?;
                (plain, service, queue, None)
            };
            if !chaos {
                // Warm the shared caches so every thread count measures
                // steady-state serving, not compulsory misses. (Chaos runs
                // stay cold: compulsory misses are the attack surface.)
                run_load(
                    &service,
                    &LoadSpec {
                        queries: queries / 4,
                        threads: 4,
                        queue_depth: queue,
                        popularity,
                        seed,
                        deadline: None,
                        shed_on_full: false,
                    },
                )?;
            }
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let _ = writeln!(
                out,
                "serving {} nodes, {queries} queries/run, {:?} popularity, {} read path \
                 ({cores} core(s) available — speedup is bounded by this):",
                service.num_nodes(),
                popularity,
                read_path.label(),
            );
            if chaos {
                let _ = writeln!(
                    out,
                    "chaos mode: seeded read faults under live traffic; a query returns \
                     correct rows or a typed error, never wrong data"
                );
            }
            // Per-run page I/O starts here: exclude warm-up traffic.
            catalog.stats().reset();
            let mut snap = StatsSnapshot::new();
            let mut runs = Vec::new();
            let mut base_qps = 0.0;
            for &t in &threads {
                let spec = LoadSpec {
                    queries,
                    threads: t,
                    queue_depth: queue,
                    popularity,
                    seed,
                    deadline,
                    shed_on_full: chaos,
                };
                let r = run_load(&service, &spec)?;
                // Metrics were reset by run_load, so the histogram holds
                // exactly this run's latencies.
                snap.push_serve_run(&r, &service.metrics().latency().bucket_counts());
                if base_qps == 0.0 {
                    base_qps = r.qps;
                }
                let speedup = if base_qps > 0.0 { r.qps / base_qps } else { 0.0 };
                let _ = writeln!(
                    out,
                    "  {t} thread(s): {:>8.0} q/s ({:.2}x)  p50 {:>6.0}µs  p95 {:>6.0}µs  \
                     p99 {:>6.0}µs  fact cache {:.1}%  agg cache {:.1}%",
                    r.qps,
                    speedup,
                    r.p50_us,
                    r.p95_us,
                    r.p99_us,
                    r.fact_hit_rate * 100.0,
                    r.agg_hit_rate * 100.0,
                );
                if chaos || deadline.is_some() {
                    let _ = writeln!(
                        out,
                        "             shed {}  timeouts {}  io {}  corrupt {}  degraded {}  \
                         breaker-trips {}  quarantined {}",
                        r.shed,
                        r.timeouts,
                        r.io_errors,
                        r.corrupt_errors,
                        r.degraded,
                        r.breaker_trips,
                        service.quarantine_len(),
                    );
                }
                runs.push(serde_json::json!(std::collections::BTreeMap::from([
                    ("threads".to_string(), serde_json::json!(t as u64)),
                    ("read_path".to_string(), serde_json::json!(r.read_path)),
                    ("queries".to_string(), serde_json::json!(r.queries)),
                    ("errors".to_string(), serde_json::json!(r.errors)),
                    ("qps".to_string(), serde_json::json!(r.qps)),
                    ("speedup".to_string(), serde_json::json!(speedup)),
                    ("shed".to_string(), serde_json::json!(r.shed)),
                    ("timeouts".to_string(), serde_json::json!(r.timeouts)),
                    ("io_errors".to_string(), serde_json::json!(r.io_errors)),
                    ("corrupt_errors".to_string(), serde_json::json!(r.corrupt_errors)),
                    ("degraded".to_string(), serde_json::json!(r.degraded)),
                    ("breaker_trips".to_string(), serde_json::json!(r.breaker_trips)),
                    ("p50_us".to_string(), serde_json::json!(r.p50_us)),
                    ("p95_us".to_string(), serde_json::json!(r.p95_us)),
                    ("p99_us".to_string(), serde_json::json!(r.p99_us)),
                    ("fact_hit_rate".to_string(), serde_json::json!(r.fact_hit_rate)),
                    ("agg_hit_rate".to_string(), serde_json::json!(r.agg_hit_rate)),
                    (
                        "fact_shard_hit_rates".to_string(),
                        serde_json::json!(r.fact_shard_hit_rates.clone())
                    ),
                ])));
                if let Some((policy, budget)) = &fault_schedule {
                    // Between chaos runs: spend what is left of the fault
                    // schedule (sweeping nodes forces fresh reads past the
                    // tiny caches) and let the service heal — release
                    // quarantined pages and close the breaker — so the
                    // next run measures a recovered service, not the tail
                    // of the previous run's faults.
                    let mut streak = 0;
                    let mut probes: u64 = 0;
                    while probes < 400 && (streak < 5 || policy.read_faults_fired() < *budget) {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        let _ = service.repair_all();
                        let node = probes % service.num_nodes().max(1);
                        // Query first: an open breaker only transitions to
                        // half-open (and then closed) by admitting probe
                        // traffic, so the probe must run unconditionally.
                        let ok = service.query_with_options(node, &QueryOptions::default()).is_ok();
                        let healthy = ok
                            && service.breaker_state() == BreakerState::Closed
                            && service.quarantine_len() == 0;
                        streak = if healthy { streak + 1 } else { 0 };
                        probes += 1;
                    }
                }
            }
            if chaos {
                // Overload demonstration: rerun the load with a deadline
                // shorter than one cold query, so admission control must
                // shed — the deterministic path through queue-expiry.
                let spec = LoadSpec {
                    queries,
                    threads: 1,
                    queue_depth: queue,
                    popularity,
                    seed,
                    deadline: Some(std::time::Duration::from_micros(100)),
                    shed_on_full: true,
                };
                let r = run_load(&service, &spec)?;
                snap.push_serve_run(&r, &service.metrics().latency().bucket_counts());
                let _ = writeln!(
                    out,
                    "overload run (100µs deadline): shed {}  timeouts {}  served {}",
                    r.shed, r.timeouts, r.queries,
                );
                runs.push(serde_json::json!(std::collections::BTreeMap::from([
                    ("overload".to_string(), serde_json::json!(true)),
                    ("threads".to_string(), serde_json::json!(1u64)),
                    ("queries".to_string(), serde_json::json!(r.queries)),
                    ("errors".to_string(), serde_json::json!(r.errors)),
                    ("shed".to_string(), serde_json::json!(r.shed)),
                    ("timeouts".to_string(), serde_json::json!(r.timeouts)),
                    ("io_errors".to_string(), serde_json::json!(r.io_errors)),
                    ("corrupt_errors".to_string(), serde_json::json!(r.corrupt_errors)),
                    ("degraded".to_string(), serde_json::json!(r.degraded)),
                    ("breaker_trips".to_string(), serde_json::json!(r.breaker_trips)),
                ])));
            }
            if chaos {
                // The fault budget is bounded, so once traffic stops the
                // service must be repairable: re-verify quarantined pages
                // from disk and report what is left.
                std::thread::sleep(std::time::Duration::from_millis(60));
                let released = service.repair_all();
                // The breaker only closes by admitting a half-open probe,
                // so send a few live queries until it does (bounded: the
                // fault budget is spent, but don't spin if disk is gone).
                let mut probes = 0;
                while service.breaker_state() != BreakerState::Closed && probes < 50 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    let _ = service.query_with_options(0, &QueryOptions::default());
                    probes += 1;
                }
                let _ = writeln!(
                    out,
                    "chaos recovery: released {released} quarantined page(s), {} still \
                     quarantined; fact breaker {}",
                    service.quarantine_len(),
                    service.breaker_state().label(),
                );
            }
            let _ = writeln!(
                out,
                "{}",
                serde_json::to_string(&serde_json::json!(runs)).unwrap_or_default()
            );
            if let Some(path) = &stats {
                snap.set_storage(catalog.stats().snapshot());
                std::fs::write(path, snap.to_pretty_bytes())
                    .map_err(|e| CubeError::Config(format!("cannot write --stats {path}: {e}")))?;
                let _ = writeln!(out, "stats snapshot → {path}");
            }
        }
        Command::ShardServe { dir, shard, listen, read_path } => {
            // This command never returns: it prints the bound address
            // directly (parents parse it) and serves until killed.
            use cure_serve::{CubeService, ResilienceConfig, ShardServer, ShardServerConfig};
            let catalog = std::sync::Arc::new(Catalog::open(&dir)?);
            let shards = cure_core::read_shard_count(&catalog)?.ok_or_else(|| {
                CubeError::Config(format!("'{dir}' is not a sharded catalog (no topology blob)"))
            })?;
            if shard >= shards {
                return Err(CubeError::Config(format!(
                    "--shard {shard} out of range (catalog has {shards} shard(s))"
                )));
            }
            let schema = cure_core::read_schema_blob(&catalog)?.ok_or_else(|| {
                CubeError::Config(format!("'{dir}' has no schema blob (rebuild the shards)"))
            })?;
            let cube = cure_query::ConcurrentCube::open_with_read_path(
                std::sync::Arc::clone(&catalog),
                std::sync::Arc::new(schema),
                &cure_core::shard_cube_prefix(shard),
                cure_query::CacheConfig::default(),
                read_path,
            )?;
            let service = CubeService::from_cube_with_resilience(
                std::sync::Arc::new(cube),
                ResilienceConfig::default(),
            );
            let server =
                ShardServer::spawn(service, shard as u32, &listen, ShardServerConfig::default())
                    .map_err(|e| CubeError::Config(format!("cannot bind {listen}: {e}")))?;
            println!("LISTENING {}", server.local_addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
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
        let dir = std::env::temp_dir().join(format!("cure-cli-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("cure_cli_resplus_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("cure_cli_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
    fn parse_serve_bench_options() {
        let cmd = parse_args(&s(&["serve-bench", "/tmp/x"])).unwrap();
        assert_eq!(
            cmd,
            Command::ServeBench {
                dir: "/tmp/x".into(),
                queries: 1000,
                threads: vec![1, 2, 4, 8],
                queue: 64,
                zipf: None,
                seed: 1,
                stats: None,
                deadline_ms: None,
                chaos: false,
                read_path: ReadPath::Cache,
                shards: None,
                replicas: 1,
                socket: false,
            }
        );
        let cmd = parse_args(&s(&[
            "serve-bench",
            "/tmp/x",
            "--queries",
            "200",
            "--threads",
            "2,4",
            "--zipf",
            "1.1",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::ServeBench {
                dir: "/tmp/x".into(),
                queries: 200,
                threads: vec![2, 4],
                queue: 64,
                zipf: Some(1.1),
                seed: 1,
                stats: None,
                deadline_ms: None,
                chaos: false,
                read_path: ReadPath::Cache,
                shards: None,
                replicas: 1,
                socket: false,
            }
        );
        assert!(parse_args(&s(&["serve-bench", "/tmp/x", "--threads", "two"])).is_err());
        // Robustness flags: --chaos is valueless, --deadline-ms takes ms.
        let cmd =
            parse_args(&s(&["serve-bench", "/tmp/x", "--chaos", "--deadline-ms", "8"])).unwrap();
        assert!(
            matches!(cmd, Command::ServeBench { chaos: true, deadline_ms: Some(8), .. }),
            "{cmd:?}"
        );
        assert!(parse_args(&s(&["serve-bench", "/tmp/x", "--deadline-ms", "soon"])).is_err());
        // `--read-path` takes a value and defaults to the page caches.
        let cmd = parse_args(&s(&["serve-bench", "/tmp/x", "--read-path", "mmap"])).unwrap();
        assert!(matches!(cmd, Command::ServeBench { read_path: ReadPath::Mmap, .. }), "{cmd:?}");
        let cmd =
            parse_args(&s(&["serve-bench", "/tmp/x", "--read-path", "cache", "--chaos"])).unwrap();
        assert!(
            matches!(cmd, Command::ServeBench { read_path: ReadPath::Cache, chaos: true, .. }),
            "{cmd:?}"
        );
        assert_eq!(
            parse_args(&s(&["serve-bench", "/tmp/x", "--read-path", "pread"])).unwrap_err(),
            "bad --read-path (want cache|mmap)"
        );
    }

    #[test]
    fn parse_serve_bench_shard_options() {
        let cmd =
            parse_args(&s(&["serve-bench", "/tmp/x", "--shards", "4", "--replicas", "2"])).unwrap();
        assert!(matches!(cmd, Command::ServeBench { shards: Some(4), replicas: 2, .. }), "{cmd:?}");
        // Defaults: unsharded, one replica (the primary).
        let cmd = parse_args(&s(&["serve-bench", "/tmp/x"])).unwrap();
        assert!(matches!(cmd, Command::ServeBench { shards: None, replicas: 1, .. }), "{cmd:?}");
        assert_eq!(
            parse_args(&s(&["serve-bench", "/tmp/x", "--shards", "0"])).unwrap_err(),
            "bad --shards (want an integer ≥ 1)"
        );
        assert_eq!(
            parse_args(&s(&["serve-bench", "/tmp/x", "--replicas", "0"])).unwrap_err(),
            "bad --replicas (want an integer ≥ 1)"
        );
        // Chaos targets one service's read path; the router fans out.
        assert_eq!(
            parse_args(&s(&["serve-bench", "/tmp/x", "--shards", "2", "--chaos"])).unwrap_err(),
            "--shards cannot be combined with --chaos"
        );
    }

    #[test]
    fn parse_serve_bench_socket_options() {
        // `--socket` is valueless and rides on sharded serving.
        let cmd = parse_args(&s(&[
            "serve-bench",
            "/tmp/x",
            "--socket",
            "--shards",
            "2",
            "--replicas",
            "2",
        ]))
        .unwrap();
        assert!(
            matches!(cmd, Command::ServeBench { socket: true, shards: Some(2), replicas: 2, .. }),
            "{cmd:?}"
        );
        // Default stays in-process.
        let cmd = parse_args(&s(&["serve-bench", "/tmp/x", "--shards", "2"])).unwrap();
        assert!(matches!(cmd, Command::ServeBench { socket: false, .. }), "{cmd:?}");
        assert_eq!(
            parse_args(&s(&["serve-bench", "/tmp/x", "--socket"])).unwrap_err(),
            "--socket needs --shards (sharded serving only)"
        );
        assert_eq!(
            parse_args(&s(&["serve-bench", "/tmp/x", "--socket", "--shards", "2", "--chaos"]))
                .unwrap_err(),
            "--shards cannot be combined with --chaos"
        );
    }

    #[test]
    fn parse_shard_serve_options() {
        let cmd = parse_args(&s(&["shard-serve", "/tmp/x", "--listen", "127.0.0.1:0"])).unwrap();
        assert_eq!(
            cmd,
            Command::ShardServe {
                dir: "/tmp/x".into(),
                shard: 0,
                listen: "127.0.0.1:0".into(),
                read_path: ReadPath::Cache,
            }
        );
        let cmd = parse_args(&s(&[
            "shard-serve",
            "/tmp/x",
            "--shard",
            "3",
            "--listen",
            "127.0.0.1:4810",
            "--read-path",
            "mmap",
        ]))
        .unwrap();
        assert!(
            matches!(cmd, Command::ShardServe { shard: 3, read_path: ReadPath::Mmap, .. }),
            "{cmd:?}"
        );
        let err = parse_args(&s(&["shard-serve", "/tmp/x"])).unwrap_err();
        assert!(err.contains("--listen is required"), "{err}");
        assert!(parse_args(&s(&["shard-serve", "/tmp/x", "--shard", "x"])).is_err());
    }

    #[test]
    fn parse_serve_bench_rejects_zero_and_empty_threads() {
        // Same contract as `build --threads`: caught at parse time, never
        // reaching the worker pool.
        for bad in ["0", "1,0,4", "", " ", ","] {
            let err = parse_args(&s(&["serve-bench", "/tmp/x", "--threads", bad])).unwrap_err();
            assert_eq!(err, "bad --threads (want an integer ≥ 1)", "input {bad:?}");
        }
        assert!(parse_args(&s(&["serve-bench", "/tmp/x", "--threads", "1, 2"])).is_ok());
    }

    #[test]
    fn parse_stats_option() {
        let cmd = parse_args(&s(&["build", "/tmp/x", "--stats", "out.json"])).unwrap();
        assert!(matches!(cmd, Command::Build { stats: Some(p), .. } if p == "out.json"));
        let cmd = parse_args(&s(&["serve-bench", "/tmp/x", "--stats", "out.json"])).unwrap();
        assert!(matches!(cmd, Command::ServeBench { stats: Some(p), .. } if p == "out.json"));
    }

    #[test]
    fn build_stats_snapshot_has_every_layer() {
        let dir = std::env::temp_dir().join(format!("cure_cli_stats_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        assert!(storage.get("sort_spill_bytes").and_then(|x| x.as_u64()).is_some());
        // No serving happened, so no serve section.
        assert!(v.get("serve").is_none());
    }

    #[test]
    fn serve_bench_reports_every_thread_count() {
        let dir = std::env::temp_dir().join(format!("cure_cli_serve_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        let snap_path = dir.join("serve_stats.json").to_string_lossy().to_string();
        let out = run(Command::ServeBench {
            dir: dir_s,
            queries: 120,
            threads: vec![1, 4],
            queue: 16,
            zipf: Some(1.0),
            seed: 3,
            stats: Some(snap_path.clone()),
            deadline_ms: None,
            chaos: false,
            read_path: ReadPath::Mmap,
            shards: None,
            replicas: 1,
            socket: false,
        })
        .unwrap();
        assert!(out.contains("1 thread(s):"), "{out}");
        assert!(out.contains("4 thread(s):"), "{out}");
        assert!(out.contains("mmap read path"), "{out}");
        // The JSON summary line carries the quantiles and hit rates.
        assert!(out.contains("\"p99_us\""), "{out}");
        assert!(out.contains("\"fact_shard_hit_rates\""), "{out}");
        assert!(out.contains("\"read_path\":\"mmap\""), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        // The snapshot has one serve entry per thread count, each with a
        // latency histogram that accounts for every query.
        let text = std::fs::read_to_string(&snap_path).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        let serve = v.get("serve").and_then(|x| x.as_array()).expect("serve array");
        assert_eq!(serve.len(), 2);
        for r in serve {
            let queries = r.get("queries").and_then(|x| x.as_u64()).unwrap();
            let buckets = r.get("latency_buckets").and_then(|x| x.as_array()).unwrap();
            let recorded: u64 = buckets.iter().filter_map(|b| b.as_u64()).sum();
            assert_eq!(recorded, queries);
            assert!(r.get("fact_hit_rate").and_then(|x| x.as_f64()).is_some());
            assert_eq!(r.get("read_path").and_then(|x| x.as_str()), Some("mmap"));
        }
        assert!(v.get("storage").is_some());
    }

    #[test]
    fn serve_bench_sharded_verifies_and_reports_shard_stats() {
        let dir = std::env::temp_dir().join(format!("cure_cli_shardsrv_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().to_string();
        run(Command::Gen { dir: dir_s.clone(), dataset: "apb".into(), scale: 4000, density: 0.4 })
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
        let snap_path = dir.join("shard_stats.json").to_string_lossy().to_string();
        let out = run(Command::ServeBench {
            dir: dir_s,
            queries: 80,
            threads: vec![1, 2],
            queue: 16,
            zipf: None,
            seed: 7,
            stats: Some(snap_path.clone()),
            deadline_ms: None,
            chaos: false,
            read_path: ReadPath::Cache,
            shards: Some(3),
            replicas: 2,
            socket: false,
        })
        .unwrap();
        // The correctness gate ran and passed before any load.
        assert!(out.contains("sharded answers verified identical to unsharded cube"), "{out}");
        assert!(out.contains("built 3 shard sub-cube(s)"), "{out}");
        assert!(out.contains("replica 1:"), "{out}");
        assert!(out.contains("1 thread(s):"), "{out}");
        assert!(out.contains("2 thread(s):"), "{out}");
        assert!(out.contains("shard 0:"), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        // The snapshot carries the shard-labelled section.
        let text = std::fs::read_to_string(&snap_path).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        let shards = v.get("shards").and_then(|x| x.as_array()).expect("shards array");
        assert_eq!(shards.len(), 3);
        for (k, s) in shards.iter().enumerate() {
            assert_eq!(s.get("shard").and_then(|x| x.as_u64()), Some(k as u64));
            assert_eq!(s.get("replicas").and_then(|x| x.as_u64()), Some(2));
            assert!(s.get("queries").and_then(|x| x.as_u64()).unwrap() > 0);
            assert_eq!(s.get("errors").and_then(|x| x.as_u64()), Some(0));
        }
        assert!(v.get("serve").is_some());
        assert!(v.get("storage").is_some());
    }

    #[test]
    fn serve_bench_socket_survives_replica_process_kill() {
        // Needs the cure-shard-serve binary; workspace `cargo test`
        // builds it, but a bare `cargo test -p cure` may not have.
        if shard_serve_bin().is_err() {
            eprintln!("skipping: cure-shard-serve not built (run `cargo build --workspace`)");
            return;
        }
        let dir = std::env::temp_dir().join(format!("cure_cli_socksrv_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().to_string();
        run(Command::Gen { dir: dir_s.clone(), dataset: "apb".into(), scale: 3000, density: 0.4 })
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
        let out = run(Command::ServeBench {
            dir: dir_s,
            queries: 60,
            threads: vec![1, 2],
            queue: 16,
            zipf: None,
            seed: 5,
            stats: None,
            deadline_ms: None,
            chaos: false,
            read_path: ReadPath::Cache,
            shards: Some(2),
            replicas: 2,
            socket: true,
        })
        .unwrap();
        // Pre-measure verification gate over sockets.
        assert!(out.contains("sharded answers verified identical to unsharded cube"), "{out}");
        assert!(out.contains("socket shard-serve: spawned 4 process(es)"), "{out}");
        // The process-death drill: kill, failover with identical
        // answers, respawn + redirect, verified again.
        assert!(out.contains("killed shard 0 replica 1"), "{out}");
        assert!(out.contains("survived process kill"), "{out}");
        assert!(out.contains("answers verified again"), "{out}");
        // Socket counters moved.
        assert!(out.contains("wire:"), "{out}");
        assert!(out.contains("reconnect(s)"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("cure_cli_append_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
    fn parse_ingest_bench_options() {
        let cmd = parse_args(&s(&["ingest-bench", "/tmp/x"])).unwrap();
        assert_eq!(
            cmd,
            Command::IngestBench { dir: "/tmp/x".into(), out: "results/ingest.json".into() }
        );
        let cmd = parse_args(&s(&["ingest-bench", "/tmp/x", "--out", "other.json"])).unwrap();
        assert!(matches!(cmd, Command::IngestBench { out, .. } if out == "other.json"));
    }

    #[test]
    fn ingest_applies_batch_and_swaps_active_cube() {
        let dir = std::env::temp_dir().join(format!("cure_cli_ingest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
    fn ingest_bench_writes_report() {
        let dir = std::env::temp_dir().join(format!("cure_cli_ibench_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().to_string();
        run(Command::Gen {
            dir: dir_s.clone(),
            dataset: "apb".into(),
            scale: 20_000,
            density: 0.4,
        })
        .unwrap();
        let out_path = dir.join("results").join("ingest.json").to_string_lossy().to_string();
        let out = run(Command::IngestBench { dir: dir_s, out: out_path.clone() }).unwrap();
        assert!(out.contains("ingest-bench: apb scale 20000"), "{out}");
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains(&format!("report → {out_path}")), "{out}");
        let text = std::fs::read_to_string(&out_path).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get("dataset").and_then(|x| x.as_str()), Some("apb"));
        let runs = v.get("runs").and_then(|x| x.as_array()).expect("runs array");
        assert_eq!(runs.len(), 6);
        for r in runs {
            assert!(r.get("ratio").and_then(|x| x.as_f64()).is_some());
            assert!(r.get("delta_rows").and_then(|x| x.as_u64()).unwrap() >= 1);
            assert!(r.get("ingest_secs").and_then(|x| x.as_f64()).unwrap() > 0.0);
            assert!(r.get("rebuild_secs").and_then(|x| x.as_f64()).unwrap() > 0.0);
            assert!(r.get("speedup").and_then(|x| x.as_f64()).is_some());
        }
        // Scratch catalogs are cleaned up; only the report remains.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().to_string();
            assert!(!name.starts_with("ingest_bench_r"), "scratch dir {name} survived");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_command_renders_tree() {
        let dir = std::env::temp_dir().join(format!("cure_cli_plan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("cure_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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

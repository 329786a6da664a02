//! cure-check: a seeded, shrinking differential conformance harness.
//!
//! The paper's central claim is that CURE produces the *complete,
//! correct* hierarchical cube under every configuration (§3–§6). This
//! crate turns that claim into an executable contract:
//!
//! 1. **Generate** a randomized workload from a seed
//!    ([`Workload::from_matrix`]): 2–4 dimensions mixing linear and DAG
//!    hierarchies, Zipf-skewed or uniform fact tables, iceberg
//!    thresholds, and memory budgets small enough to force external
//!    partitioning.
//! 2. **Build** it through every engine configuration ([`Engine::all`]):
//!    in-memory, CURE sequential, CURE parallel at 2/4/8 threads,
//!    CURE_DR, a durable build killed at a fault-injected write index and
//!    resumed, the BUC / BU-BST baselines, delta-ingest (a base
//!    build advanced by 1–2 incremental batches, which must equal a
//!    fresh rebuild over all facts), the chaos-serve pair, and the
//!    sharded scatter-gather router over snapshot-replicated sub-cubes.
//! 3. **Compare** every lattice node's rows against the executable oracle
//!    (`cure_core::reference`, Gray et al.'s CUBE semantics) and the
//!    cube-relation bytes pairwise where determinism is promised
//!    (parallel ≡ sequential, resumed ≡ never-crashed).
//! 4. **Shrink** any failure ([`shrink::shrink`]) by dropping tuples,
//!    dimensions and hierarchy levels, and write the minimized repro as a
//!    self-contained case file under `tests/corpus/`.
//!
//! The fixed-seed suite (`cargo test -p cure-check`) keeps the matrix
//! green in tier-1; `cure-cli check --seeds N --budget-secs S` runs the
//! open-ended nightly sweep.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cure_core::{reference, CubeError, NodeCoder};

pub mod corpus;
pub mod engine;
pub mod shrink;
pub mod workload;

pub use engine::{run_engine, run_in_memory_mutated, Engine, EngineRun, Mutation, NodeMap};
pub use workload::{DimSpec, Workload};

/// Errors produced by the harness itself.
#[derive(Debug)]
pub enum CheckError {
    /// An engine or oracle computation failed.
    Cube(CubeError),
    /// Filesystem trouble in the scratch or corpus directories.
    Io(std::io::Error),
    /// A malformed case file or workload.
    Case(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Cube(e) => write!(f, "cube error: {e}"),
            CheckError::Io(e) => write!(f, "io error: {e}"),
            CheckError::Case(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<CubeError> for CheckError {
    fn from(e: CubeError) -> Self {
        CheckError::Cube(e)
    }
}

/// Harness result type.
pub type Result<T> = std::result::Result<T, CheckError>;

/// One confirmed disagreement between an engine and the oracle (or a
/// broken engine-internal invariant).
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Engine label ([`Engine::label`]).
    pub engine: String,
    /// Human-readable node name, when the mismatch is node-local.
    pub node: Option<String>,
    /// What differed.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.node {
            Some(n) => write!(f, "[{}] node {n}: {}", self.engine, self.detail),
            None => write!(f, "[{}] {}", self.engine, self.detail),
        }
    }
}

/// What to run and how.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Engine subset (defaults to the full matrix).
    pub engines: Vec<Engine>,
    /// Deliberate bug injected into [`Engine::InMemory`] — the harness's
    /// own mutation smoke test.
    pub mutation: Option<Mutation>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { engines: Engine::all(), mutation: None }
    }
}

/// Outcome of checking one workload.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// All confirmed mismatches (empty = conformant).
    pub mismatches: Vec<Mismatch>,
    /// Engines run.
    pub engines_run: usize,
    /// Wall seconds per engine, in run order (`Engine::label`).
    pub engine_secs: Vec<(String, f64)>,
}

/// Render the first few row-level differences between two sorted row
/// sets, enough to orient a human at the failure.
fn diff_rows(got: &[(Vec<u32>, Vec<i64>)], want: &[(Vec<u32>, Vec<i64>)]) -> String {
    let mut parts = vec![format!("{} rows, oracle has {}", got.len(), want.len())];
    for (i, pair) in got.iter().zip(want.iter()).enumerate() {
        if pair.0 != pair.1 {
            parts.push(format!("first diff at row {i}: got {:?}, want {:?}", pair.0, pair.1));
            break;
        }
    }
    if got.len() != want.len() {
        let i = got.len().min(want.len());
        if let Some(extra) = got.get(i) {
            parts.push(format!("first extra row {i}: {extra:?}"));
        } else if let Some(missing) = want.get(i) {
            parts.push(format!("first missing row {i}: {missing:?}"));
        }
    }
    parts.join("; ")
}

/// Build `w` through every engine in `opts`, compare against the oracle
/// and (where promised) byte-for-byte against each other. `scratch` is a
/// directory private to this call; it is wiped before and after.
pub fn check_workload(w: &Workload, scratch: &Path, opts: &CheckOptions) -> Result<CheckOutcome> {
    w.validate()?;
    let schema = w.schema()?;
    let t = w.fact_tuples();
    let coder = NodeCoder::new(&schema);

    // The oracle: full iceberg cube as sorted (dims, aggs) pairs.
    let oracle_raw = reference::compute_cube_iceberg(&schema, &t, w.min_support);
    let mut oracle: NodeMap = BTreeMap::new();
    for (id, rows) in oracle_raw {
        oracle.insert(id, reference::pairs(&rows));
    }

    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(CheckError::Io)?;

    let mut outcome = CheckOutcome::default();
    let mut byte_baseline: Option<(String, BTreeMap<String, Vec<u8>>)> = None;
    for &e in &opts.engines {
        let label = e.label();
        let started = Instant::now();
        let run = if e == Engine::InMemory && opts.mutation.is_some() {
            run_in_memory_mutated(w, opts.mutation)
        } else {
            run_engine(w, e, scratch)
        };
        outcome.engine_secs.push((label.clone(), started.elapsed().as_secs_f64()));
        let run = match run {
            Ok(r) => r,
            Err(err) => {
                outcome.mismatches.push(Mismatch {
                    engine: label,
                    node: None,
                    detail: format!("engine failed: {err}"),
                });
                continue;
            }
        };
        outcome.engines_run += 1;
        for msg in &run.internal {
            outcome.mismatches.push(Mismatch {
                engine: label.clone(),
                node: None,
                detail: msg.clone(),
            });
        }
        // Semantic comparison: every node the engine materializes must
        // match the oracle exactly (CURE engines cover all nodes, the
        // flat baselines the leaf-or-ALL subset).
        for (&id, rows) in &run.nodes {
            let want = oracle.get(&id).cloned().unwrap_or_default();
            if *rows != want {
                outcome.mismatches.push(Mismatch {
                    engine: label.clone(),
                    node: Some(coder.name(&schema, id)),
                    detail: diff_rows(rows, &want),
                });
            }
        }
        // Byte identity where the determinism contract promises it.
        if e.byte_comparable() {
            if let Some(bytes) = run.bytes {
                match &byte_baseline {
                    None => byte_baseline = Some((label, bytes)),
                    Some((base_label, base)) => {
                        if *base != bytes {
                            let diff = first_byte_diff(base, &bytes);
                            outcome.mismatches.push(Mismatch {
                                engine: label.clone(),
                                node: None,
                                detail: format!("cube bytes differ from {base_label}: {diff}"),
                            });
                        }
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
    Ok(outcome)
}

pub(crate) fn first_byte_diff(
    a: &BTreeMap<String, Vec<u8>>,
    b: &BTreeMap<String, Vec<u8>>,
) -> String {
    for (name, bytes) in a {
        match b.get(name) {
            None => return format!("file {name} missing"),
            Some(other) if other != bytes => {
                let at = bytes
                    .iter()
                    .zip(other.iter())
                    .position(|(x, y)| x != y)
                    .unwrap_or_else(|| bytes.len().min(other.len()));
                return format!(
                    "file {name} differs at byte {at} ({} vs {} bytes)",
                    bytes.len(),
                    other.len()
                );
            }
            Some(_) => {}
        }
    }
    for name in b.keys() {
        if !a.contains_key(name) {
            return format!("extra file {name}");
        }
    }
    "identical?".into()
}

/// Report for one seed of a suite run.
#[derive(Debug)]
pub struct SeedFailure {
    /// The failing seed.
    pub seed: u64,
    /// Mismatches of the *original* workload.
    pub mismatches: Vec<Mismatch>,
    /// Tuples left after shrinking.
    pub minimized_tuples: usize,
    /// Where the minimized case was written (when a corpus dir was given).
    pub case_path: Option<PathBuf>,
}

/// Report of a multi-seed suite run.
#[derive(Debug, Default)]
pub struct SuiteReport {
    /// Seeds actually checked (budget may stop the sweep early).
    pub seeds_run: usize,
    /// Failing seeds, with minimized repros.
    pub failures: Vec<SeedFailure>,
    /// Wall seconds per engine label, summed over the seeds run.
    pub engine_secs: BTreeMap<String, f64>,
}

/// Configuration of a multi-seed sweep ([`run_suite`]).
pub struct SuiteConfig {
    /// Seeds to check, in order.
    pub seeds: Vec<u64>,
    /// Wall-clock budget; the sweep stops cleanly once exceeded.
    pub budget: Option<Duration>,
    /// Where minimized failures are written as `.case` files.
    pub corpus_dir: Option<PathBuf>,
    /// Scratch root for engine builds.
    pub scratch: PathBuf,
}

/// Sweep the seed list: generate, check, and — on failure — narrow to the
/// failing engines, shrink, and write a minimized case.
pub fn run_suite(cfg: &SuiteConfig) -> Result<SuiteReport> {
    let start = Instant::now();
    let mut report = SuiteReport::default();
    for &seed in &cfg.seeds {
        if let Some(budget) = cfg.budget {
            if start.elapsed() > budget {
                break;
            }
        }
        let w = Workload::from_matrix(seed);
        let scratch = cfg.scratch.join(format!("seed{seed}"));
        let opts = CheckOptions::default();
        let outcome = check_workload(&w, &scratch, &opts)?;
        report.seeds_run += 1;
        for (label, secs) in &outcome.engine_secs {
            *report.engine_secs.entry(label.clone()).or_default() += secs;
        }
        if outcome.mismatches.is_empty() {
            continue;
        }
        // Narrow to the failing engines, then minimize.
        let failing: Vec<Engine> = {
            let mut labels: Vec<String> =
                outcome.mismatches.iter().map(|m| m.engine.clone()).collect();
            labels.sort();
            labels.dedup();
            labels.iter().filter_map(|l| Engine::from_label(l)).collect()
        };
        let narrow = CheckOptions {
            engines: if failing.is_empty() { Engine::all() } else { failing },
            mutation: None,
        };
        let minimized = shrink::shrink(&w, &scratch, &narrow);
        let case_path = match &cfg.corpus_dir {
            Some(dir) => {
                let note = format!(
                    "minimized from seed {seed}: {}",
                    outcome.mismatches.first().map(|m| m.to_string()).unwrap_or_default()
                );
                Some(corpus::write_case(dir, &format!("seed{seed}"), &minimized.workload, &note)?)
            }
            None => None,
        };
        report.failures.push(SeedFailure {
            seed,
            mismatches: outcome.mismatches,
            minimized_tuples: minimized.workload.tuples.len(),
            case_path,
        });
    }
    Ok(report)
}

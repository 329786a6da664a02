//! What the workloads share: inputs, the durable build, the
//! report every run fills in, and the metric vocabulary.

pub mod build_ingest;
pub mod serve_live_cache;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cure_core::{
    build_cure_cube_durable, BuildReport, CubeConfig, CubeMeta, CubeSchema, DiskSink,
    DurableOptions, Tuples,
};
use cure_storage::{Catalog, StorageCounters, PAGE_SIZE};

use crate::oracle::{self, Digest};
use crate::stats;
use crate::trace::Tracer;

/// End-to-end metrics: name and unit. Every run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("ingest_s", "s"),
    ("cube_bytes_per_fact_byte", "ratio"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_qps", "1/s"),
];

/// Per-layer metrics of the traced run: name and unit. A layer a
/// workload does not exercise reads 0 (see the README's table).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("storage.pages_written", "count"),
    ("storage.fsyncs", "count"),
    ("storage.sort_runs", "count"),
    ("storage.sort_spill_bytes", "bytes"),
    ("storage.pages_read", "count"),
    ("storage.fact_cache_hit_rate", "ratio"),
    ("storage.agg_cache_hit_rate", "ratio"),
    ("storage.cube_bytes", "bytes"),
    ("storage.store_facts_s", "s"),
    ("core.partition_s", "s"),
    ("core.pass_s", "s"),
    ("core.sort_s", "s"),
    ("core.flush_s", "s"),
    ("core.merge_s", "s"),
    ("core.partitions", "count"),
    ("core.tt_prunes", "count"),
    ("core.nt_written", "count"),
    ("core.cat_tuples", "count"),
    ("core.ingest_append_s", "s"),
    ("core.ingest_merge_s", "s"),
    ("core.carried_groups", "count"),
    ("core.merged_groups", "count"),
    ("core.new_groups", "count"),
    ("query.node_query_us", "us"),
    ("query.probe_us", "us"),
    ("query.read_us", "us"),
    ("query.compute_us", "us"),
    ("query.rows_per_query", "rows"),
    ("query.samples", "count"),
    ("serve.live_query_self_us", "us"),
    ("serve.epoch_open_s", "s"),
    ("serve.epoch_swaps", "count"),
    ("serve.overlap_share", "ratio"),
    ("serve.post_swap_query_p50_us", "us"),
    ("serve.errors", "count"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Everything a workload needs from the command line and the host.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// `--seconds`: scales the fixed amount of work a run does.
    pub seconds: u64,
    /// Fresh work directory of this run (removed afterwards).
    pub work: PathBuf,
    /// Worker threads for builds (the host's core count).
    pub nproc: usize,
    /// Span recorder (disabled on untraced runs).
    pub tracer: Arc<Tracer>,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Flush the work directory's filesystem (`sync -f`) so the next timed
    /// operation does not pay for the write-back of earlier ones.
    pub fn settle(&self) {
        let _ = std::process::Command::new("sync").arg("-f").arg(&self.work).status();
    }

    /// A fresh catalog directory inside the work directory.
    pub fn catalog(&self, name: &str) -> Result<Arc<Catalog>, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Catalog::open(&dir).map(Arc::new).map_err(|e| format!("catalog {}: {e}", dir.display()))
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (builds, ingests, node queries).
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// End-to-end metric values.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values.
    pub layer: BTreeMap<&'static str, f64>,
    /// Sample counts behind the query-latency metrics.
    pub samples: BTreeMap<&'static str, usize>,
    /// Every sample behind a median-of-repeats end-to-end metric.
    pub series: BTreeMap<&'static str, Vec<f64>>,
}

impl Report {
    /// Count one operation; on failure keep its description.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Whether every operation succeeded with a correct answer.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Record an end-to-end metric as the median of its repeats.
    pub fn median_of(&mut self, metric: &'static str, values: Vec<f64>) {
        self.e2e.insert(metric, stats::median(&values));
        self.series.insert(metric, values);
    }

    /// Record the query-latency metrics from per-call samples (µs).
    pub fn query_latency(&mut self, lat_us: &[f64]) {
        self.e2e.insert("query_p50_us", stats::percentile(lat_us, 0.50).unwrap_or(0.0));
        self.e2e.insert("query_p99_us", stats::percentile(lat_us, 0.99).unwrap_or(0.0));
        let busy_s = lat_us.iter().sum::<f64>() / 1e6;
        self.e2e.insert("query_qps", if busy_s > 0.0 { lat_us.len() as f64 / busy_s } else { 0.0 });
        self.samples.insert("query", lat_us.len());
        self.samples.insert("query_beyond_p99", stats::beyond(lat_us, 0.99));
    }

    /// Record storage-counter deltas over the timed phase.
    pub fn storage(&mut self, before: &StorageCounters, after: &StorageCounters) {
        self.layer
            .insert("storage.pages_written", (after.pages_written - before.pages_written) as f64);
        self.layer.insert("storage.fsyncs", (after.fsyncs - before.fsyncs) as f64);
        self.layer.insert("storage.sort_runs", (after.sort_runs - before.sort_runs) as f64);
        self.layer.insert(
            "storage.sort_spill_bytes",
            (after.sort_spill_bytes - before.sort_spill_bytes) as f64,
        );
        self.layer.insert("storage.pages_read", (after.pages_read - before.pages_read) as f64);
    }

    /// Record the medians of the build phase times and the pool counters
    /// of the last build.
    pub fn builds(&mut self, reports: &[BuildReport]) {
        let med =
            |f: fn(&BuildReport) -> f64| stats::median(&reports.iter().map(f).collect::<Vec<_>>());
        self.layer.insert("core.partition_s", med(|r| r.phases.partition_secs));
        self.layer.insert("core.pass_s", med(|r| r.phases.pass_secs));
        self.layer.insert("core.sort_s", med(|r| r.phases.sort_secs));
        self.layer.insert("core.flush_s", med(|r| r.phases.flush_secs));
        self.layer.insert("core.merge_s", med(|r| r.phases.merge_secs));
        if let Some(r) = reports.last() {
            let parts = r.partition.as_ref().map_or(1, |p| p.choice.num_partitions);
            self.layer.insert("core.partitions", parts as f64);
            self.layer.insert("core.tt_prunes", r.pool.tt_prunes as f64);
            self.layer.insert("core.nt_written", r.pool.nt_written as f64);
            self.layer.insert("core.cat_tuples", r.pool.cat_tuples as f64);
        }
    }

    /// Record `trace.overhead_*` from interleaved traced and untraced
    /// calls of the same operation (µs).
    pub fn overhead(&mut self, traced_us: &[f64], plain_us: &[f64]) {
        let (t, p) = (stats::median(traced_us), stats::median(plain_us));
        self.layer.insert("trace.overhead_us", t - p);
        self.layer.insert("trace.overhead_share", if p > 0.0 { (t - p) / p } else { 0.0 });
    }
}

/// Deterministic 64-bit generator (splitmix64) for node sequences.
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// `count` node ids over `0..nodes` with Zipf(`s`) popularity by node id,
/// the ranking of `cure_serve::NodePopularity::Zipf` (node `r` has weight
/// `1 / (r + 1)^s`). Each node gets its exact share of the calls (largest
/// remainders round), so every seed times the same mix; the seed only
/// orders the calls.
pub fn zipf_nodes(nodes: u64, count: usize, s: f64, seed: u64) -> Vec<u64> {
    let weights: Vec<f64> = (1..=nodes).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * count as f64).collect();
    let mut calls: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = count - calls.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        calls[i] += 1;
    }
    let mut out: Vec<u64> =
        (0..nodes).zip(&calls).flat_map(|(node, &n)| std::iter::repeat_n(node, n)).collect();
    shuffle(&mut out, &mut SplitMix::new(seed));
    out
}

fn shuffle(v: &mut [u64], rng: &mut SplitMix) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The facts of one run: APB-1-dense rows, of which the first `base`
/// are loaded before the timed phase and the rest arrive as
/// `batches` equal delta batches.
pub struct Inputs {
    /// Cube schema.
    pub schema: CubeSchema,
    /// Every generated row, base first, then the batches in order.
    pub facts: Tuples,
    /// Rows loaded before the timed phase.
    pub base: usize,
    /// Rows per delta batch.
    pub batch: usize,
    /// Number of delta batches.
    pub batches: usize,
}

impl Inputs {
    /// Generate `base + batches · batch` APB-1-dense rows at `scale`
    /// (the generator's size divisor; every seed has the same schema).
    pub fn generate(seed: u64, scale: u64, base: usize, batch: usize, batches: usize) -> Inputs {
        let want = base + batch * batches;
        // The generator sizes by density; ask for enough rows and cut.
        let per_density = cure_data::apb::tuples_for_density(1.0) as f64 / scale as f64;
        let density = (want as f64 + 1.0) / per_density * 1.0001;
        let ds = cure_data::apb::apb1_dense(density, scale, seed);
        assert!(ds.tuples.len() >= want, "generator produced too few rows");
        Inputs { schema: ds.schema, facts: slice(&ds.tuples, 0, want), base, batch, batches }
    }

    /// Delta batch `k` (0-based).
    pub fn delta(&self, k: usize) -> Tuples {
        let from = self.base + k * self.batch;
        slice(&self.facts, from, from + self.batch)
    }

    /// Rows visible after each epoch: the base, then one more batch each.
    pub fn epoch_ends(&self) -> Vec<usize> {
        (0..=self.batches).map(|k| self.base + k * self.batch).collect()
    }

    /// Oracle digests `[epoch][node]` for every epoch.
    pub fn digests(&self) -> Vec<Vec<Digest>> {
        oracle::epoch_digests(&self.schema, &self.facts, &self.epoch_ends())
    }

    /// Store the base rows as fact relation `facts` and make them
    /// durable. Returns the seconds taken.
    pub fn store(&self, catalog: &Catalog) -> Result<f64, String> {
        let start = Instant::now();
        let base = slice(&self.facts, 0, self.base);
        let (d, y) = (self.schema.num_dims(), self.schema.num_measures());
        let mut heap = catalog
            .create_or_replace("facts", Tuples::fact_schema(d, y))
            .map_err(|e| format!("create facts: {e}"))?;
        base.store_fact(&mut heap).map_err(|e| format!("store facts: {e}"))?;
        heap.sync().map_err(|e| format!("sync facts: {e}"))?;
        drop(heap);
        catalog.sync_dir().map_err(|e| format!("sync catalog: {e}"))?;
        Ok(start.elapsed().as_secs_f64())
    }

    /// A build configuration whose memory budget is a `1/parts` share of
    /// the base facts, so the build partitions externally.
    pub fn partitioned_config(&self, parts: usize) -> CubeConfig {
        let bytes =
            self.base * Tuples::tuple_bytes(self.schema.num_dims(), self.schema.num_measures());
        CubeConfig { memory_budget_bytes: (bytes / parts.max(1)).max(1), ..CubeConfig::default() }
    }
}

/// Rows `from..to` of `t`, with dense row-ids from 0.
pub fn slice(t: &Tuples, from: usize, to: usize) -> Tuples {
    let mut s = Tuples::with_capacity(t.n_dims(), t.n_measures(), to - from);
    for i in from..to {
        s.push_fact(t.dims_of(i), t.aggs_of(i), (i - from) as u64);
    }
    s
}

/// Durable build of `fact_rel` into a sealed cube under `prefix`, with
/// its metadata blob, as the CLI's `build` does.
pub fn durable_build(
    catalog: &Catalog,
    schema: &CubeSchema,
    cfg: &CubeConfig,
    fact_rel: &str,
    prefix: &str,
    threads: usize,
) -> cure_core::Result<BuildReport> {
    let mut sink = DiskSink::new(catalog, prefix, schema, false, false, None)?;
    let report = build_cure_cube_durable(
        catalog,
        fact_rel,
        schema,
        cfg,
        &mut sink,
        &format!("part_{prefix}"),
        &DurableOptions { resume: false, threads },
    )?
    .report;
    CubeMeta {
        prefix: prefix.to_string(),
        fact_rel: fact_rel.to_string(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: report.partition.as_ref().map(|p| p.choice.level),
        min_support: 1,
    }
    .write(catalog)?;
    Ok(report)
}

/// Bytes of the cube relations under `prefix` divided by the bytes of
/// relation `facts`: the paper's storage ratio. Also returns the cube bytes.
pub fn cube_ratio(catalog: &Catalog, prefix: &str) -> Result<(f64, u64), String> {
    let cube = catalog.data_bytes_with_prefix(prefix).map_err(|e| format!("cube bytes: {e}"))?;
    let facts =
        catalog.open_relation("facts").map_err(|e| format!("open facts: {e}"))?.data_bytes();
    Ok((cube as f64 / facts.max(1) as f64, cube))
}

/// Pages of relation `name` on disk.
pub fn relation_pages(catalog: &Catalog, name: &str) -> usize {
    std::fs::metadata(catalog.relation_heap_path(name))
        .map_or(0, |m| (m.len() / PAGE_SIZE as u64) as usize)
}

/// Compare one answer with the oracle.
pub fn check(what: &str, node: u64, got: Digest, want: Option<&Digest>) -> Result<(), String> {
    match want {
        Some(w) if *w == got => Ok(()),
        Some(w) => Err(format!(
            "{what}: node {node} answered {} row(s) with digest {:#x}, expected {} row(s) with {:#x}",
            got.rows, got.sum, w.rows, w.sum
        )),
        None => Err(format!("{what}: node {node} has no oracle entry")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sequence_has_the_same_mix_for_every_seed() {
        let counts = |seq: &[u64]| -> Vec<usize> {
            (0..5).map(|n| seq.iter().filter(|&&m| m == n).count()).collect()
        };
        let a = zipf_nodes(5, 1000, 1.0, 1);
        let b = zipf_nodes(5, 1000, 1.0, 2);
        assert_eq!(a.len(), 1000);
        assert_eq!(counts(&a), counts(&b));
        assert_ne!(a, b);
        let c = counts(&a);
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "{c:?}");
        assert_eq!(c[0], 438); // 1000 / H(5) rounded
    }
}

//! `build_ingest`: the operator's refresh.
//!
//! Set-up stores APB-1-dense facts that exceed the build's memory budget
//! (so every build partitions) and builds the cube to refresh. Timed: a
//! fixed number of rounds, each a durable rebuild of the facts so far at
//! `nproc` threads (swapped in as the active cube) followed by one ~1 %
//! delta batch through `ingest_cube`. After every build and every batch
//! the whole lattice is swept on the mmap read path and each answer is
//! checked against the oracle; those sweeps are the workload's query
//! samples.

use std::sync::Arc;
use std::time::Instant;

use cure_core::{
    active_prefix, ingest_cube, other_prefix, set_active_prefix, IngestOptions, NodeCoder,
};
use cure_query::{ConcurrentCube, QueryGuard, ReadPath};
use cure_storage::Catalog;

use super::{check, cube_ratio, durable_build, Ctx, Inputs, Report};
use crate::oracle::Digest;
use crate::stats;

/// APB-1-dense size divisor (Product leaf 6,500 → 407 codes).
const SCALE: u64 = 16;
/// Base fact rows.
const BASE_ROWS: usize = 40_000;
/// Rows per delta batch (1 % of the base).
const BATCH_ROWS: usize = 400;
/// The memory budget is at most this share of the base facts (and at
/// most a `1/nproc` share), so the build yields at least `nproc`
/// partitions.
const BUDGET_PARTS: usize = 4;
/// Set-up repetitions (generate, store, initial durable build) behind
/// the `setup_s` median.
const SETUP_REPS: usize = 5;

/// Query samples of the lattice sweeps.
#[derive(Default)]
struct Sweeps {
    plain_us: Vec<f64>,
    traced_us: Vec<f64>,
    probe_us: Vec<f64>,
    read_us: Vec<f64>,
    compute_us: Vec<f64>,
    rows: u64,
    sweeps: u64,
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    // Work scales with --seconds.
    let batches = (ctx.seconds as usize * 2 / 5).max(3);
    let mut rep = Report::default();

    // ---- set-up: generate, store, build the cube to refresh ------------
    let mut setup = Vec::new();
    let mut store = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let _ = std::fs::remove_dir_all(ctx.work.join("setup"));
        ctx.settle();
        let start = Instant::now();
        let inputs = Inputs::generate(ctx.seed, SCALE, BASE_ROWS, BATCH_ROWS, batches);
        let catalog = ctx.catalog("setup")?;
        store.push(inputs.store(&catalog)?);
        let cfg = inputs.partitioned_config(ctx.nproc.max(BUDGET_PARTS));
        durable_build(&catalog, &inputs.schema, &cfg, "facts", "cube_", ctx.nproc)
            .map_err(|e| format!("initial build: {e}"))?;
        setup.push(start.elapsed().as_secs_f64());
        kept = Some((inputs, catalog));
    }
    let (inputs, catalog) = kept.expect("at least one set-up");
    rep.median_of("setup_s", setup);
    rep.layer.insert("storage.store_facts_s", stats::median(&store));
    let digests = inputs.digests();
    let schema = Arc::new(inputs.schema.clone());
    let cfg = inputs.partitioned_config(ctx.nproc.max(BUDGET_PARTS));
    let nodes = NodeCoder::new(&schema).num_nodes();
    let before = catalog.stats().snapshot();

    // ---- rounds: a durable rebuild, then one delta batch ----------------
    // Builds and batches alternate, so both medians sample the whole run
    // rather than one stretch of it.
    let mut build_s = Vec::new();
    let mut reports = Vec::new();
    let mut sweeps = Sweeps::default();
    let mut ingest_s = Vec::new();
    let (mut append, mut merge) = (Vec::new(), Vec::new());
    let (mut carried, mut merged, mut new) = (0u64, 0u64, 0u64);
    for k in 0..inputs.batches {
        // Rebuild the facts so far into the partner prefix and swap it in.
        let old = active_prefix(&catalog);
        let next = other_prefix(&old);
        catalog.drop_prefix(&next).map_err(|e| format!("drop {next}: {e}"))?;
        ctx.settle();
        let start = Instant::now();
        let res = ctx.tracer.span("core.build", k as u64, || {
            durable_build(&catalog, &schema, &cfg, "facts", &next, ctx.nproc)
        });
        build_s.push(start.elapsed().as_secs_f64());
        match res {
            Ok(r) => {
                rep.op(Ok(()));
                reports.push(r);
            }
            Err(e) => {
                rep.op(Err(format!("build {k}: {e}")));
                return Ok(rep);
            }
        }
        set_active_prefix(&catalog, &next).map_err(|e| format!("swap to {next}: {e}"))?;
        catalog.drop_prefix(&old).map_err(|e| format!("drop {old}: {e}"))?;
        if k == 0 {
            let (ratio, cube_bytes) = cube_ratio(&catalog, &next)?;
            rep.e2e.insert("cube_bytes_per_fact_byte", ratio);
            rep.layer.insert("storage.cube_bytes", cube_bytes as f64);
        }
        sweep(ctx, &catalog, &schema, nodes, &digests[k], &mut sweeps, &mut rep, "after build");

        let delta = inputs.delta(k);
        ctx.settle();
        let start = Instant::now();
        let res = ctx.tracer.span("core.ingest", k as u64, || {
            ingest_cube(&catalog, &schema, &delta, &cfg, &IngestOptions { drop_old: true })
        });
        ingest_s.push(start.elapsed().as_secs_f64());
        match res {
            Ok(r) => {
                rep.op(Ok(()));
                append.push(r.append_secs);
                merge.push(r.merge_secs);
                carried += r.update.carried_groups;
                merged += r.update.merged_groups;
                new += r.update.new_groups;
            }
            Err(e) => {
                rep.op(Err(format!("ingest batch {k}: {e}")));
                return Ok(rep);
            }
        }
        sweep(ctx, &catalog, &schema, nodes, &digests[k + 1], &mut sweeps, &mut rep, "after batch");
    }
    rep.median_of("build_s", build_s);
    rep.builds(&reports);
    rep.median_of("ingest_s", ingest_s);
    rep.storage(&before, &catalog.stats().snapshot());
    rep.layer.insert("core.ingest_append_s", stats::median(&append));
    rep.layer.insert("core.ingest_merge_s", stats::median(&merge));
    rep.layer.insert("core.carried_groups", carried as f64);
    rep.layer.insert("core.merged_groups", merged as f64);
    rep.layer.insert("core.new_groups", new as f64);

    // ---- the sweeps' query figures --------------------------------------
    rep.query_latency(&sweeps.plain_us);
    let all = sweeps.plain_us.len() + sweeps.traced_us.len();
    rep.layer.insert("query.rows_per_query", sweeps.rows as f64 / all.max(1) as f64);
    rep.layer.insert("query.samples", all as f64);
    if ctx.traced() {
        rep.layer.insert("query.node_query_us", stats::median(&sweeps.traced_us));
        rep.layer.insert("query.probe_us", stats::median(&sweeps.probe_us));
        rep.layer.insert("query.read_us", stats::median(&sweeps.read_us));
        rep.layer.insert("query.compute_us", stats::median(&sweeps.compute_us));
        rep.overhead(&sweeps.traced_us, &sweeps.plain_us);
    }
    Ok(rep)
}

/// Query every lattice node of the active cube once on the mmap read
/// path, timing each call and checking each answer. On the traced run
/// half the calls go through a span and `node_query_attributed`.
#[allow(clippy::too_many_arguments)]
fn sweep(
    ctx: &Ctx,
    catalog: &Arc<Catalog>,
    schema: &Arc<cure_core::CubeSchema>,
    nodes: u64,
    want: &[Digest],
    s: &mut Sweeps,
    rep: &mut Report,
    what: &str,
) {
    let prefix = active_prefix(catalog);
    let cube = match ConcurrentCube::open_with_read_path(
        Arc::clone(catalog),
        Arc::clone(schema),
        &prefix,
        cure_query::CacheConfig::default(),
        ReadPath::Mmap,
    ) {
        Ok(c) => c,
        Err(e) => return rep.op(Err(format!("{what}: open {prefix}: {e}"))),
    };
    // Alternate which half of the nodes is traced from sweep to sweep, so
    // traced and untraced calls cover the same node mix.
    let flip = s.sweeps % 2;
    s.sweeps += 1;
    for node in 0..nodes {
        let traced = ctx.traced() && node % 2 == flip;
        let start = Instant::now();
        let res = if traced {
            ctx.tracer.span("query.node_query", node, || {
                cube.node_query_attributed(node, &QueryGuard::default())
            })
        } else {
            cube.node_query(node).map(|rows| (rows, Default::default()))
        };
        let us = start.elapsed().as_secs_f64() * 1e6;
        match res {
            Ok((rows, attr)) => {
                if traced {
                    s.traced_us.push(us);
                    s.probe_us.push(attr.probe_ns as f64 / 1e3);
                    s.read_us.push(attr.read_ns as f64 / 1e3);
                    s.compute_us.push(attr.compute_ns as f64 / 1e3);
                } else {
                    s.plain_us.push(us);
                }
                s.rows += rows.len() as u64;
                rep.op(check(what, node, Digest::of_rows(&rows), want.get(node as usize)));
            }
            Err(e) => rep.op(Err(format!("{what}: node {node}: {e}"))),
        }
    }
}

//! Incremental cube maintenance — the paper's §8 future work in action.
//!
//! A nightly-ETL scenario: a sales cube exists on disk; a day's batch of
//! new fact tuples arrives; instead of rebuilding from scratch, the cube
//! is merged with the delta in time proportional to the *cube*, not the
//! full fact history. The example verifies the merged cube against a full
//! rebuild and reports the class transitions (TT demotions etc.).
//!
//! Run with: `cargo run --release --example incremental_update`

use std::time::Instant;

use cure::core::cube::{CubeBuilder, CubeConfig};
use cure::core::meta::CubeMeta;
use cure::core::sink::DiskSink;
use cure::core::update::update_cube;
use cure::core::{CubeSink, NodeCoder, Tuples};
use cure::data::synthetic::{hierarchical, HierSpec};
use cure::query::CureCube;
use cure::storage::Catalog;

fn main() -> cure::core::Result<()> {
    let dir = std::env::temp_dir().join("cure_example_update");
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::open(&dir)?;

    // History: 500k sales tuples over a *dense* schema (few distinct
    // combinations), so the cube is much smaller than the fact history —
    // the regime where incremental maintenance beats rebuilding. Tonight's
    // batch: 5k more tuples.
    let specs = vec![
        HierSpec { name: "Product".into(), level_cards: vec![30, 6, 2] },
        HierSpec { name: "Store".into(), level_cards: vec![20, 4] },
        HierSpec { name: "Day".into(), level_cards: vec![12, 4] },
    ];
    let history = hierarchical(&specs, 500_000, 0.5, 1, 1, "history");
    let batch_src = hierarchical(&specs, 5_000, 0.5, 1, 2, "batch");
    let schema = history.schema;
    let mut batch = Tuples::new(3, 1);
    for i in 0..batch_src.tuples.len() {
        batch.push(
            batch_src.tuples.dims_of(i),
            batch_src.tuples.aggs_of(i),
            1,
            (history.tuples.len() + i) as u64, // row-ids continue
        );
    }

    // Build the original cube.
    let mut heap = catalog.create_or_replace("facts", Tuples::fact_schema(3, 1))?;
    history.tuples.store_fact(&mut heap)?;
    let t0 = Instant::now();
    let mut old_sink = DiskSink::new(&catalog, "v1_", &schema, false, false, None)?;
    let report = CubeBuilder::new(&schema, CubeConfig::default())
        .build_in_memory(&history.tuples, &mut old_sink)?;
    let build_secs = t0.elapsed().as_secs_f64();
    CubeMeta {
        prefix: "v1_".into(),
        fact_rel: "facts".into(),
        n_dims: 3,
        n_measures: 1,
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)?;
    println!(
        "initial build: {} tuples → {} cube tuples in {:.2}s",
        history.tuples.len(),
        report.stats.total_tuples(),
        build_secs
    );

    // Append the batch to the fact relation, then merge incrementally,
    // walking the plan on every core: the merged cube's bytes are the same
    // at any thread count.
    batch.store_fact(&mut heap)?;
    drop(heap);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    let mut new_sink = DiskSink::new(&catalog, "v2_", &schema, false, false, None)?;
    let cfg = CubeConfig::default();
    let up = update_cube(&catalog, &schema, "v1_", &batch, &cfg, &mut new_sink, threads)?;
    let update_secs = t0.elapsed().as_secs_f64();
    CubeMeta {
        prefix: "v2_".into(),
        fact_rel: "facts".into(),
        n_dims: 3,
        n_measures: 1,
        dr: false,
        plus: false,
        cat_format: new_sink.cat_format(),
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)?;
    println!(
        "incremental merge of {} tuples on {threads} threads: {:.2}s — {} carried, {} merged, {} new groups, \
         {} TT demotions",
        batch.len(),
        update_secs,
        up.carried_groups,
        up.merged_groups,
        up.new_groups,
        up.tt_demotions
    );

    // Compare against a full rebuild on three spot-check nodes.
    let mut combined = Tuples::new(3, 1);
    for src in [&history.tuples, &batch] {
        for i in 0..src.len() {
            combined.push(src.dims_of(i), src.aggs_of(i), 1, src.rowid(i));
        }
    }
    let t0 = Instant::now();
    let mut rebuild_sink = DiskSink::new(&catalog, "rb_", &schema, false, false, None)?;
    CubeBuilder::new(&schema, CubeConfig::default())
        .build_in_memory(&combined, &mut rebuild_sink)?;
    let rebuild_secs = t0.elapsed().as_secs_f64();
    println!(
        "full rebuild: {rebuild_secs:.2}s vs {update_secs:.2}s incremental — the update \
         reads the cube + delta, not the {}-tuple history (it pays off whenever the cube \
         is small relative to the accumulated facts)",
        history.tuples.len()
    );

    let mut v2 = CureCube::open(&catalog, &schema, "v2_")?;
    let coder = NodeCoder::new(&schema);
    for levels in [
        vec![2, coder.all_level(1), coder.all_level(2)],
        vec![1, 1, 1],
        vec![coder.all_level(0), 0, coder.all_level(2)],
    ] {
        let id = coder.encode(&levels);
        let mut got = v2.node_query(id)?;
        got.sort();
        let want: Vec<(Vec<u32>, Vec<i64>)> =
            cure::core::reference::compute_node(&schema, &combined, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect();
        assert_eq!(got, want, "node {}", coder.name(&schema, id));
        println!("verified node {:<22} ({} rows)", coder.name(&schema, id), got.len());
    }
    println!("\nmerged cube matches a full rebuild — update is safe to swap in");
    Ok(())
}

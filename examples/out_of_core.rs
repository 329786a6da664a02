//! Out-of-core cubing: CURE's external partitioning in action (§4).
//!
//! Gives the build a memory budget far below the fact table's size, so the
//! driver must (a) select a partitioning level on the first dimension,
//! (b) write sound partitions + hash-build the small relation *N* in one
//! scan, and (c) assemble the complete cube from both. Prints the
//! selection the way the paper's Table 1 does, then verifies a few node
//! queries against a direct computation.
//!
//! Run with: `cargo run --release --example out_of_core`

use cure::core::meta::CubeMeta;
use cure::core::partition::{build_cure_cube, select_partition_level};
use cure::core::sink::DiskSink;
use cure::core::{reference, CubeConfig, NodeCoder, Tuples};
use cure::data::synthetic::{hierarchical, HierSpec};
use cure::query::CureCube;
use cure::storage::Catalog;

fn main() -> cure::core::Result<()> {
    let dir = std::env::temp_dir().join("cure_example_ooc");
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::open(&dir)?;

    // A SALES-like table: Product organized as barcode → brand → strength
    // (the §4 example), plus Store and Channel.
    let specs = vec![
        HierSpec { name: "Product".into(), level_cards: vec![2_000, 200, 8] },
        HierSpec { name: "Store".into(), level_cards: vec![120, 12] },
        HierSpec { name: "Channel".into(), level_cards: vec![6] },
    ];
    let ds = hierarchical(&specs, 200_000, 0.4, 1, 99, "SALES");
    ds.store(&catalog, "facts")?;
    let tuple_bytes = Tuples::tuple_bytes(3, 1);
    let table_bytes = ds.tuples.len() * tuple_bytes;
    println!(
        "fact table: {} tuples ≈ {:.1} MB in memory",
        ds.tuples.len(),
        table_bytes as f64 / 1e6
    );

    // Give the build ~1/12 of what the table needs.
    let budget = table_bytes / 12;
    println!("memory budget: {:.2} MB", budget as f64 / 1e6);

    // Show the paper's Table-1-style selection reasoning.
    let choice = select_partition_level(&ds.schema, ds.tuples.len() as u64, tuple_bytes, budget)?;
    println!(
        "\npartition-level selection: L = {} (\"{}\"), {} partitions of ≈{:.2} MB, \
         |N| ≈ {} rows ({:.2} MB)",
        choice.level,
        ds.schema.dims()[0].levels()[choice.level].name,
        choice.num_partitions,
        choice.est_partition_bytes as f64 / 1e6,
        choice.est_n_rows,
        choice.est_n_bytes as f64 / 1e6
    );

    let cfg = CubeConfig { memory_budget_bytes: budget, ..CubeConfig::default() };
    let mut sink = DiskSink::new(&catalog, "cube_", &ds.schema, false, false, None)?;
    let report = build_cure_cube(&catalog, "facts", &ds.schema, &cfg, &mut sink, "tmp_", 1)?;
    let part = report.partition.as_ref().expect("partitioned build");
    println!(
        "\nbuild: {} partitions written in {:.2}s (largest: {} rows), N = {} rows; \
         cube = {} tuples / {:.1} MB",
        part.choice.num_partitions,
        part.partition_secs,
        part.max_partition_rows,
        part.n_rows,
        report.stats.total_tuples(),
        report.stats.total_bytes() as f64 / 1e6
    );
    CubeMeta {
        prefix: "cube_".into(),
        fact_rel: "facts".into(),
        n_dims: 3,
        n_measures: 1,
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: Some(part.choice.level),
        min_support: 1,
    }
    .write(&catalog)?;

    // Verify three nodes spanning both plan passes against a direct
    // computation over the in-memory tuples.
    let mut cube = CureCube::open(&catalog, &ds.schema, "cube_")?;
    let coder = NodeCoder::new(&ds.schema);
    let checks = [
        vec![0, coder.all_level(1), coder.all_level(2)], // Product@barcode (partition pass)
        vec![2, 1, coder.all_level(2)],                  // strength × store-region (N pass)
        vec![coder.all_level(0), coder.all_level(1), 0], // Channel only (N pass)
    ];
    for levels in checks {
        let id = coder.encode(&levels);
        let mut got = cube.node_query(id)?;
        got.sort();
        let want: Vec<(Vec<u32>, Vec<i64>)> =
            reference::compute_node(&ds.schema, &ds.tuples, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect();
        assert_eq!(got, want, "node {}", coder.name(&ds.schema, id));
        println!("verified node {:<24} ({} rows)", coder.name(&ds.schema, id), got.len());
    }
    println!("\nall checks passed — the partitioned cube matches direct computation");
    Ok(())
}

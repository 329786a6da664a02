//! Parallel cube-construction scaling: the partition-level worker pool.
//!
//! Not a figure from the paper — its evaluation is single-threaded — but
//! a natural extension of it: §4's external partitions are independent
//! once sealed, so above one thread the build driver cubes them on a
//! worker pool while a single merger keeps the output byte-identical to
//! the one-thread build. This experiment stores an
//! APB-1-style fact table, forces partitioning with a small memory
//! budget, and times `build_cure_cube` at 1/2/4/8 threads for
//! CURE and CURE_DR.
//!
//! Wall-clock speedup is bounded by the host's physical cores (a
//! single-core machine measures ~1x everywhere); the core count is
//! recorded in the JSON so the committed numbers stay interpretable.

use cure_core::partition::build_cure_cube;
use cure_core::sink::{fact_row_resolver, DiskSink};
use cure_core::{CubeConfig, Result};

use crate::{
    experiment_catalog, print_table, timed, write_result, CureVariant, FigureResult, Series,
};

/// Run the parallel-build scaling experiment.
pub fn run(scale: u64) -> Result<Vec<FigureResult>> {
    let thread_counts = [1usize, 2, 4, 8];
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("(host reports {cores} core(s) available — speedup is bounded by this)");

    // Density 40 like the ablation's parallel run: per-partition work has
    // to dwarf the serial scan + merge for the pool to show through.
    let ds = cure_data::apb::apb1(40.0, scale, 0x5E4E);
    // A budget well below the fact size, so the driver partitions and the
    // worker pool has a queue to drain (in-memory builds short-circuit it).
    let fact_bytes = ds.tuples.len() as u64
        * (ds.schema.num_dims() * 4 + ds.schema.num_measures() * 8 + 8) as u64;
    let cfg = CubeConfig {
        memory_budget_bytes: (fact_bytes as usize / 16).max(1 << 20),
        ..CubeConfig::default()
    };

    let mut series = Vec::new();
    let mut rows = Vec::new();
    for variant in [CureVariant::Cure, CureVariant::CureDr] {
        let mut secs_series = Vec::new();
        let mut pass_series = Vec::new();
        let mut merge_series = Vec::new();
        let mut pages_series = Vec::new();
        let mut base_secs = 0.0;
        for &threads in &thread_counts {
            // A fresh directory per run: every build writes the same
            // relation names and timings must not include stale pages.
            let catalog = experiment_catalog(&format!(
                "build_scaling_{}_{threads}",
                variant.name().to_lowercase().replace('+', "p")
            ))?;
            ds.store(&catalog, "facts")?;
            let resolver =
                if variant.dr() { Some(fact_row_resolver(&catalog, "facts")?) } else { None };
            let mut sink =
                DiskSink::new(&catalog, "bs_", &ds.schema, variant.dr(), false, resolver)?;
            let (report, secs) = timed(|| {
                build_cure_cube(&catalog, "facts", &ds.schema, &cfg, &mut sink, "bs_tmp_", threads)
            });
            let report = report?;
            let io = catalog.stats().snapshot();
            let parts = report.partition.as_ref().map(|p| p.choice.num_partitions).unwrap_or(0);
            if threads == 1 {
                base_secs = secs;
            }
            let speedup = if secs > 0.0 { base_secs / secs } else { 0.0 };
            rows.push(vec![
                variant.name().to_string(),
                threads.to_string(),
                format!("{secs:.2}s"),
                format!("{speedup:.2}x"),
                format!("{:.2}s", report.phases.pass_secs),
                format!("{:.2}s", report.phases.merge_secs),
                parts.to_string(),
                report.stats.total_tuples().to_string(),
                io.pages_written.to_string(),
            ]);
            secs_series.push(secs);
            pass_series.push(report.phases.pass_secs);
            merge_series.push(report.phases.merge_secs);
            pages_series.push(io.pages_written as f64);
        }
        let xs: Vec<serde_json::Value> =
            thread_counts.iter().map(|t| serde_json::json!(t)).collect();
        series.push(Series {
            label: format!("{} build seconds", variant.name()),
            x: xs.clone(),
            y: secs_series,
        });
        // The observability spine's phase timers: worker pass time is the
        // parallelizable share, merger replay the serial share (Amdahl),
        // and page writes show the instrumented runs do identical I/O.
        series.push(Series {
            label: format!("{} pass seconds", variant.name()),
            x: xs.clone(),
            y: pass_series,
        });
        series.push(Series {
            label: format!("{} merge seconds", variant.name()),
            x: xs.clone(),
            y: merge_series,
        });
        series.push(Series {
            label: format!("{} pages written", variant.name()),
            x: xs,
            y: pages_series,
        });
    }
    // Record the hardware bound alongside the measurements.
    series.push(Series {
        label: "host cores".into(),
        x: vec![serde_json::json!("available_parallelism")],
        y: vec![cores as f64],
    });

    print_table(
        "Parallel construction — partition worker-pool scaling",
        &[
            "variant",
            "threads",
            "build",
            "speedup",
            "pass",
            "merge",
            "partitions",
            "tuples",
            "pages",
        ],
        &rows,
    );
    let result = FigureResult {
        id: "build_scaling".into(),
        title: "parallel cube construction scaling (partition worker pool)".into(),
        x_axis: "worker threads".into(),
        y_axis: "build seconds".into(),
        scale,
        series,
    };
    write_result(&result);
    Ok(vec![result])
}

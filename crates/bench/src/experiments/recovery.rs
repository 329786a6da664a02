//! Recovery overhead: what crash-safety costs and what resume saves.
//!
//! Three measurements over the same partitioned workload:
//!
//! 1. **plain** — the seed `build_cure_cube` driver (no journal, no
//!    per-partition fsyncs): the baseline build time;
//! 2. **durable** — `build_cure_cube_durable`, fault-free: the journaling
//!    + checkpoint-fsync overhead relative to the baseline;
//! 3. **resume@f** — a simulated process death at a fraction *f* of the
//!    durable build's writes (sticky injected I/O error), followed by a
//!    `resume` run: the recovery cost, which should shrink as the crash
//!    point moves later because journaled-complete partition passes are
//!    skipped rather than re-run.

use std::sync::Arc;

use cure_core::cube::CubeConfig;
use cure_core::partition::build_cure_cube;
use cure_core::sink::DiskSink;
use cure_core::{build_cure_cube_durable, DurableOptions, Result};
use cure_data::synthetic::{hierarchical, HierSpec};
use cure_storage::io::{FaultInjector, FaultKind, IoPolicy};
use cure_storage::Catalog;

use crate::{print_table, timed, write_result, FigureResult, Series};

fn workload(scale: u64) -> cure_data::Dataset {
    let specs = vec![
        HierSpec { name: "P".into(), level_cards: vec![200, 20, 2] },
        HierSpec { name: "S".into(), level_cards: vec![50, 5] },
        HierSpec { name: "T".into(), level_cards: vec![20] },
    ];
    hierarchical(&specs, (120_000 / scale).max(2_000) as usize, 0.6, 2, 11, "recovery")
}

fn cfg() -> CubeConfig {
    // Small budget so the build partitions and checkpoints several times.
    CubeConfig { memory_budget_bytes: 512 << 10, ..CubeConfig::default() }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cure_bench_recovery_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_build(catalog: &Catalog, ds: &cure_data::Dataset, resume: bool) -> Result<f64> {
    let mut sink = DiskSink::new(catalog, "cube_", &ds.schema, false, false, None)?;
    let (res, secs) = timed(|| {
        build_cure_cube_durable(
            catalog,
            "facts",
            &ds.schema,
            &cfg(),
            &mut sink,
            "cube_tmp_",
            &DurableOptions { resume, threads: 1 },
        )
    });
    res?;
    Ok(secs)
}

/// Run the recovery-overhead experiment.
pub fn run(scale: u64) -> Result<Vec<FigureResult>> {
    let ds = workload(scale);
    let mut labels: Vec<serde_json::Value> = Vec::new();
    let mut secs: Vec<f64> = Vec::new();
    let mut ratio: Vec<f64> = Vec::new();
    let mut rows = Vec::new();
    let mut push = |rows: &mut Vec<Vec<String>>, label: &str, s: f64, base: f64| {
        labels.push(serde_json::Value::from(label));
        secs.push(s);
        ratio.push(if base > 0.0 { s / base } else { 0.0 });
        rows.push(vec![label.to_string(), format!("{s:.3}"), format!("{:.2}x", s / base)]);
    };

    // 1. Plain driver: the seed baseline.
    let plain_dir = fresh_dir("plain");
    let plain_catalog = Catalog::open(&plain_dir)?;
    ds.store(&plain_catalog, "facts")?;
    let plain_secs = {
        let mut sink = DiskSink::new(&plain_catalog, "cube_", &ds.schema, false, false, None)?;
        let (res, secs) = timed(|| {
            build_cure_cube(&plain_catalog, "facts", &ds.schema, &cfg(), &mut sink, "cube_tmp_", 1)
        });
        res?;
        secs
    };
    push(&mut rows, "plain", plain_secs, plain_secs);

    // 2. Durable driver, fault-free — and count its writes for the crash
    //    points below.
    let durable_dir = fresh_dir("durable");
    {
        let plain = Catalog::open(&durable_dir)?;
        ds.store(&plain, "facts")?;
    }
    let counter = Arc::new(FaultInjector::counting());
    let counted = Catalog::open_with_policy(&durable_dir, counter.clone() as Arc<dyn IoPolicy>)?;
    let durable_secs = durable_build(&counted, &ds, false)?;
    let writes = counter.writes();
    push(&mut rows, "durable", durable_secs, plain_secs);

    // 3. Crash at 25% / 50% / 75% of the build's writes, then resume.
    for frac in [0.25f64, 0.50, 0.75] {
        let k = (writes as f64 * frac) as u64;
        let dir = fresh_dir(&format!("crash{}", (frac * 100.0) as u32));
        {
            let plain = Catalog::open(&dir)?;
            ds.store(&plain, "facts")?;
        }
        let inj = Arc::new(FaultInjector::fail_nth_write(k, FaultKind::Error).sticky());
        let faulty = Catalog::open_with_policy(&dir, inj as Arc<dyn IoPolicy>)?;
        if durable_build(&faulty, &ds, false).is_ok() {
            return Err(cure_core::CubeError::Config(
                "injected crash did not abort the build".into(),
            ));
        }
        let recovered = Catalog::open(&dir)?;
        let resume_secs = durable_build(&recovered, &ds, true)?;
        push(&mut rows, &format!("resume@{:.0}%", frac * 100.0), resume_secs, plain_secs);
    }

    print_table(
        "Recovery — durable-build overhead and resume cost vs the plain driver",
        &["run", "seconds", "vs plain"],
        &rows,
    );
    println!(
        "  ({} tuples, {} build writes; resume cost falls as the crash point moves later)",
        ds.tuples.len(),
        writes
    );

    let result = FigureResult {
        id: "recovery".into(),
        title: "Crash-safe build: journaling overhead and resume-from-checkpoint cost".into(),
        x_axis: "run (plain, durable fault-free, resume after crash at f% of writes)".into(),
        y_axis: "wall seconds".into(),
        scale,
        series: vec![
            Series { label: "build seconds".into(), x: labels.clone(), y: secs },
            Series { label: "overhead vs plain (x)".into(), x: labels, y: ratio },
        ],
    };
    write_result(&result);
    Ok(vec![result])
}

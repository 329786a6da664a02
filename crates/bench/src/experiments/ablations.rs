//! Design-choice ablations called out in DESIGN.md.
//!
//! 1. **CAT format** (§5.1): force format (a), format (b) and the
//!    as-NT fallback on workloads whose CAT population is dominated by
//!    common-source vs. coincidental CATs, and check the dynamic
//!    criterion's choice against the measured best.
//! 2. **Execution plan** (§3.1): CURE's single pipelined P3 traversal vs.
//!    the strawman the paper dismisses — running an independent cubing
//!    pass per combination of hierarchy levels ("several times, once for
//!    every possible combination").

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::{CatFormat, CatFormatPolicy, CubeSchema, Dimension, MemSink, Result, Tuples};
use cure_data::apb::apb1;

use crate::{fmt_bytes, fmt_secs, print_table, timed, write_result, FigureResult, Series};

/// CAT-format ablation.
pub fn run_cat_formats(scale: u64) -> Result<Vec<FigureResult>> {
    // Workload A: few measures repeated across many nodes from the same
    // source set → common-source CATs prevail.
    // Workload B: single-valued measure domain → coincidental CATs prevail.
    let common_source = {
        let ds = apb1(0.4, scale * 4, 0xCA7);
        (ds.schema, ds.tuples, "APB-1 (common-source heavy)")
    };
    let coincidental = {
        // Tiny measure domain (0/1) over a flat schema: equal aggregates by
        // coincidence everywhere.
        let schema = CubeSchema::new(
            vec![Dimension::flat("A", 50), Dimension::flat("B", 40), Dimension::flat("C", 30)],
            2,
        )?;
        let mut t = Tuples::new(3, 2);
        let mut x = 0xC01u64;
        for i in 0..20_000usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t.push_fact(
                &[(x % 50) as u32, ((x >> 8) % 40) as u32, ((x >> 16) % 30) as u32],
                &[(x % 2) as i64, ((x >> 3) % 2) as i64],
                i as u64,
            );
        }
        (schema, t, "flat, binary measures (coincidental heavy)")
    };

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for (schema, tuples, label) in [common_source, coincidental] {
        let mut sizes = Vec::new();
        let policies = [
            ("auto", CatFormatPolicy::Auto),
            ("force (a)", CatFormatPolicy::Force(CatFormat::CommonSource)),
            ("force (b)", CatFormatPolicy::Force(CatFormat::Coincidental)),
            ("as NT", CatFormatPolicy::Force(CatFormat::AsNt)),
        ];
        for (name, policy) in policies {
            let cfg = CubeConfig { cat_policy: policy, ..CubeConfig::default() };
            let mut sink = MemSink::new(schema.num_measures());
            let report = CubeBuilder::new(&schema, cfg).build_in_memory(&tuples, &mut sink)?;
            sizes.push((name, report.stats.total_bytes(), report.stats.cat_format));
        }
        let auto_bytes = sizes[0].1;
        let best_forced = sizes[1..].iter().map(|&(_, b, _)| b).min().expect("three forced runs");
        for (name, bytes, fmt) in &sizes {
            rows.push(vec![
                label.to_string(),
                name.to_string(),
                fmt_bytes(*bytes),
                format!("{fmt:?}"),
            ]);
        }
        rows.push(vec![
            label.to_string(),
            "auto vs best".to_string(),
            format!("{:+.1}%", (auto_bytes as f64 / best_forced as f64 - 1.0) * 100.0),
            String::new(),
        ]);
        series.push(Series {
            label: label.to_string(),
            x: sizes.iter().map(|(n, _, _)| serde_json::json!(n)).collect(),
            y: sizes.iter().map(|&(_, b, _)| b as f64).collect(),
        });
    }
    print_table(
        "Ablation — CAT storage format (§5.1 criterion)",
        &["workload", "policy", "cube size", "format used"],
        &rows,
    );
    let result = FigureResult {
        id: "ablation_cat_format".into(),
        title: "CAT storage format ablation".into(),
        x_axis: "format policy".into(),
        y_axis: "cube bytes".into(),
        scale,
        series,
    };
    write_result(&result);
    Ok(vec![result])
}

/// Execution-plan ablation: P3 vs. independent per-level-combination runs.
pub fn run_plan(scale: u64) -> Result<Vec<FigureResult>> {
    let ds = apb1(0.4, scale * 2, 0xB3);
    let schema = &ds.schema;
    println!("APB-1 density 0.4 (scaled ×2): {} tuples", ds.tuples.len());

    // CURE: one pipelined P3 traversal computes all 168 nodes.
    let (res, p3_secs) = timed(|| -> Result<u64> {
        let mut sink = MemSink::new(schema.num_measures());
        let report = CubeBuilder::new(schema, CubeConfig::default())
            .build_in_memory(&ds.tuples, &mut sink)?;
        Ok(report.stats.total_tuples())
    });
    let p3_tuples = res?;

    // Strawman (§3.1): run an independent flat cubing pass for every
    // combination of hierarchy levels — (L1+1)(L2+1)… / covering the same
    // 168 nodes with massive recomputation. Implemented by building the
    // flat cube of each level-combination projection.
    let combos: Vec<Vec<usize>> = {
        let mut out = vec![vec![]];
        for d in schema.dims() {
            let mut next = Vec::new();
            for base in &out {
                for l in 0..d.num_levels() {
                    let mut b = base.clone();
                    b.push(l);
                    next.push(b);
                }
            }
            out = next;
        }
        out
    };
    let (res, indep_secs) = timed(|| -> Result<u64> {
        let mut total = 0u64;
        for combo in &combos {
            // Project the fact table to this level combination.
            let dims: Vec<Dimension> = schema
                .dims()
                .iter()
                .zip(combo)
                .map(|(d, &l)| Dimension::flat(d.name().to_string(), d.cardinality(l)))
                .collect();
            let flat = CubeSchema::new(dims, schema.num_measures())?;
            let mut t =
                Tuples::with_capacity(schema.num_dims(), schema.num_measures(), ds.tuples.len());
            let mut proj = vec![0u32; schema.num_dims()];
            for i in 0..ds.tuples.len() {
                for (dd, p) in proj.iter_mut().enumerate() {
                    *p = schema.dims()[dd].value_at(combo[dd], ds.tuples.dim(i, dd));
                }
                t.push_fact(&proj, ds.tuples.aggs_of(i), i as u64);
            }
            let mut sink = MemSink::new(schema.num_measures());
            let report =
                CubeBuilder::new(&flat, CubeConfig::default()).build_in_memory(&t, &mut sink)?;
            total += report.stats.total_tuples();
        }
        Ok(total)
    });
    let indep_tuples = res?;

    let rows = vec![
        vec!["CURE plan P3 (one pass)".into(), fmt_secs(p3_secs), p3_tuples.to_string()],
        vec![
            format!("independent runs ({} level combos)", combos.len()),
            fmt_secs(indep_secs),
            indep_tuples.to_string(),
        ],
    ];
    print_table(
        "Ablation — pipelined plan P3 vs. independent per-combination cubing (§3.1)",
        &["strategy", "construction time", "stored tuples"],
        &rows,
    );
    println!(
        "  P3 speedup: {:.1}× (shared sorts + shared TT pruning)",
        indep_secs / p3_secs.max(1e-9)
    );
    let result = FigureResult {
        id: "ablation_plan".into(),
        title: "Plan P3 vs. independent per-combination cubing".into(),
        x_axis: "strategy".into(),
        y_axis: "seconds".into(),
        scale,
        series: vec![Series {
            label: "construction".into(),
            x: vec![serde_json::json!("P3"), serde_json::json!("independent")],
            y: vec![p3_secs, indep_secs],
        }],
    };
    write_result(&result);
    Ok(vec![result])
}

/// Run all ablations.
pub fn run(scale: u64) -> Result<Vec<FigureResult>> {
    let mut out = run_cat_formats(scale)?;
    out.extend(run_plan(scale)?);
    Ok(out)
}

//! Tier-1 slice of the differential conformance matrix.
//!
//! Seeds 0..8 hit each coverage cell of `Workload::from_matrix` ({linear,
//! DAG} × {full, iceberg} × {in-memory, partitioned}) exactly once, and
//! each runs through every `cure-check` engine: the oracle comparison on
//! every lattice node and the byte-identity checks (parallel ≡
//! sequential, resumed ≡ never-crashed). `crates/check/tests/
//! conformance.rs` runs seeds 8..40, so the workspace suite still checks
//! each of the 40 seeds once. Per-engine wall seconds are printed (see
//! them with `--nocapture`) so the cost of this slice stays visible.

use cure_check::{run_suite, Engine, SuiteConfig};
use cure_storage::scratch::scratch_dir;

#[test]
fn matrix_seeds_0_to_8_conform_across_all_engines() {
    let scratch = scratch_dir("conformance_matrix");
    let cfg = SuiteConfig {
        seeds: (0..8).collect(),
        budget: None,
        corpus_dir: None,
        scratch: scratch.clone(),
    };
    let report = run_suite(&cfg).expect("harness error");
    let mut total = 0.0;
    for (engine, secs) in &report.engine_secs {
        println!("{engine:>20}: {secs:7.2} s");
        total += secs;
    }
    println!("{:>20}: {total:7.2} s over {} seeds", "all engines", report.seeds_run);
    let _ = std::fs::remove_dir_all(&scratch);
    assert_eq!(report.seeds_run, 8);
    assert_eq!(report.engine_secs.len(), Engine::all().len(), "an engine did not run");
    assert!(
        report.failures.is_empty(),
        "{} seeds do not conform:\n{}",
        report.failures.len(),
        report
            .failures
            .iter()
            .flat_map(|f| f.mismatches.iter().map(move |m| format!("  seed {}: {m}", f.seed)))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

//! Fixed-seed differential conformance matrix.
//!
//! Seeds 0..40 map deterministically onto the coverage matrix
//! ({linear, DAG-hierarchy} × {full, iceberg} × {in-memory,
//! forced-partitioning} — `Workload::from_matrix` pins the three booleans
//! to `seed % 8`), so each of the 8 cells is exercised by 5 seeds. Seeds
//! 0..8 run in the root package's `tests/conformance_matrix.rs` (tier-1);
//! this file runs seeds 8..40. Every workload runs through all fourteen
//! engine configurations:
//! in-memory, sequential, parallel ×{2,4,8}, CURE_DR, durable
//! kill+resume, BUC, BU-BST, delta-ingest (base + deltas == fresh
//! rebuild), chaos-serve ×{cache,mmap}, sharded scatter-gather, and
//! socket-sharded (real server processes, one SIGKILLed and respawned
//! mid-run).

use cure_check::{check_workload, CheckOptions, Workload};
use cure_storage::scratch::scratch_dir;

fn run_seeds(seeds: std::ops::Range<u64>) {
    let scratch = scratch_dir("check_conformance");
    let opts = CheckOptions::default();
    for seed in seeds {
        let w = Workload::from_matrix(seed);
        let outcome = check_workload(&w, &scratch, &opts)
            .unwrap_or_else(|e| panic!("seed {seed} ({}): harness error: {e}", w.describe()));
        assert_eq!(outcome.engines_run, opts.engines.len(), "seed {seed}: engine did not run");
        assert!(
            outcome.mismatches.is_empty(),
            "seed {seed} ({}): {} mismatches:\n{}",
            w.describe(),
            outcome.mismatches.len(),
            outcome.mismatches.iter().map(|m| format!("  {m}")).collect::<Vec<_>>().join("\n")
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn matrix_covers_all_cells() {
    // Seeds 0..8 hit each (dag, iceberg, partitioned) cell exactly once.
    let mut cells = std::collections::BTreeSet::new();
    for seed in 0..8u64 {
        let w = Workload::from_matrix(seed);
        cells.insert((w.has_dag(), w.min_support > 1, w.partitioned));
    }
    assert_eq!(cells.len(), 8, "matrix does not cover all 8 coverage cells: {cells:?}");
}

#[test]
fn workloads_are_deterministic_per_seed() {
    for seed in [0u64, 3, 11, 29] {
        let a = Workload::from_matrix(seed);
        let b = Workload::from_matrix(seed);
        assert_eq!(a, b, "seed {seed} not deterministic");
    }
}

#[test]
fn seeds_08_11_conform() {
    run_seeds(8..12);
}

#[test]
fn seeds_12_15_conform() {
    run_seeds(12..16);
}

#[test]
fn seeds_16_19_conform() {
    run_seeds(16..20);
}

#[test]
fn seeds_20_23_conform() {
    run_seeds(20..24);
}

#[test]
fn seeds_24_27_conform() {
    run_seeds(24..28);
}

#[test]
fn seeds_28_31_conform() {
    run_seeds(28..32);
}

#[test]
fn seeds_32_35_conform() {
    run_seeds(32..36);
}

#[test]
fn seeds_36_39_conform() {
    run_seeds(36..40);
}

#[test]
fn case_text_roundtrips() {
    for seed in [1u64, 6, 7, 18] {
        let w = Workload::from_matrix(seed);
        let text = w.to_case_text("roundtrip");
        let back = Workload::from_case_text(&text).expect("parse back");
        assert_eq!(w, back, "seed {seed} case text did not roundtrip");
    }
}

//! Mutation smoke test: the harness must *catch* a deliberately injected
//! aggregation bug and *shrink* it to a tiny repro. A conformance harness
//! that never fails is indistinguishable from one that never looks.

use cure_check::{check_workload, shrink, CheckOptions, Engine, Mutation, Workload};
use cure_storage::scratch::scratch_dir;

fn mutated_opts() -> CheckOptions {
    CheckOptions { engines: vec![Engine::IN_MEMORY], mutation: Some(Mutation::NtAggOffByOne) }
}

#[test]
fn injected_aggregation_bug_is_caught() {
    let scratch = scratch_dir("catch");
    let w = Workload::from_matrix(0);
    let outcome = check_workload(&w, &scratch, &mutated_opts()).expect("harness runs");
    assert!(
        !outcome.mismatches.is_empty(),
        "off-by-one NT aggregate mutation escaped the differential check"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn injected_bug_shrinks_to_tiny_repro() {
    let scratch = scratch_dir("shrink");
    let w = Workload::from_matrix(0);
    let opts = mutated_opts();
    let outcome = check_workload(&w, &scratch, &opts).expect("harness runs");
    assert!(!outcome.mismatches.is_empty(), "mutation not caught; nothing to shrink");

    let report = shrink::shrink(&w, &scratch, &opts);
    let m = &report.workload;
    assert!(
        m.tuples.len() <= 10,
        "shrink left {} tuples (want <= 10) after {} attempts",
        m.tuples.len(),
        report.attempts
    );
    assert!(report.kept > 0, "shrinker kept no reductions");
    // The minimized workload must still reproduce the failure.
    let still = check_workload(m, &scratch, &opts).expect("minimized workload runs");
    assert!(!still.mismatches.is_empty(), "minimized workload no longer fails");

    // And it must survive a case-file roundtrip so it can live in the corpus.
    let dir = scratch.join("corpus");
    let path = cure_check::corpus::write_case(&dir, "mutation-min", m, "mutation smoke test")
        .expect("write case");
    let back = cure_check::corpus::load_case(&path).expect("load case");
    assert_eq!(*m, back, "minimized case did not roundtrip through the corpus format");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn clean_build_passes_without_mutation() {
    let scratch = scratch_dir("clean");
    let w = Workload::from_matrix(0);
    let opts = CheckOptions { engines: vec![Engine::IN_MEMORY], mutation: None };
    let outcome = check_workload(&w, &scratch, &opts).expect("harness runs");
    assert!(outcome.mismatches.is_empty(), "clean in-memory build mismatched the oracle");
    let _ = std::fs::remove_dir_all(&scratch);
}

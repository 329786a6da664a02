//! Tier-1 replay of the committed regression corpus.
//!
//! Every `.case` file under `tests/corpus/` is a minimized workload that
//! once exposed (or was hand-seeded to guard against) a specific bug
//! class. Each run replays all of them through every engine of
//! `cure-check` (`Engine::all()`, the table in
//! `crates/check/src/engine.rs`); a regression in any engine fails here
//! with the smallest known repro already in hand.

use cure_check::{check_workload, corpus, CheckOptions};
use cure_storage::scratch::scratch_dir;

#[test]
fn corpus_cases_conform_across_all_engines() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("corpus loads");
    assert!(
        cases.len() >= 5,
        "expected at least 5 committed corpus cases in {}, found {}",
        dir.display(),
        cases.len()
    );
    let scratch = scratch_dir("check_corpus");
    let opts = CheckOptions::default();
    for (name, w) in &cases {
        let outcome = check_workload(w, &scratch, &opts)
            .unwrap_or_else(|e| panic!("case {name}: harness error: {e}"));
        assert!(
            outcome.mismatches.is_empty(),
            "case {name} ({}): {} mismatches:\n{}",
            w.describe(),
            outcome.mismatches.len(),
            outcome.mismatches.iter().map(|m| format!("  {m}")).collect::<Vec<_>>().join("\n")
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

//! Greedy workload minimization for failing conformance cases.
//!
//! The shrinker re-runs the *failing engine subset* after every candidate
//! reduction and keeps a change only if the failure persists, so the
//! output is a locally-minimal workload with the same observable defect.
//! "Persists" means a mismatch from one of the engines the original
//! workload failed, which is not the coverage note that a partitioned
//! workload did not partition, unless that note was the original failure:
//! cutting tuples always ends in a workload too small to partition.
//! Reduction passes, in order of expected payoff:
//!
//! 1. **Drop tuples** — delta-debugging style: remove halves, then
//!    quarters, …, then single tuples.
//! 2. **Drop dimensions** — project out trailing dimensions (dimension 0
//!    stays: partitioned builds need it).
//! 3. **Collapse hierarchies** — truncate linear levels to the leaf and
//!    degrade DAG dimensions to their flat leaf projection.
//! 4. **Simplify configuration** — one measure, `min_support = 1`,
//!    in-memory budget, default pool — each kept only if the failure
//!    still reproduces.
//!
//! The passes loop until a full round changes nothing (a fixpoint).

use std::path::Path;

use crate::workload::{DimSpec, Workload};
use crate::{check_workload, CheckOptions, Engine, Mismatch};

/// Outcome of a shrink run.
pub struct ShrinkReport {
    /// The minimized workload (still failing).
    pub workload: Workload,
    /// Candidate workloads evaluated.
    pub attempts: usize,
    /// Candidates that still failed (kept reductions).
    pub kept: usize,
}

/// The failure a shrink must keep: the engines the original workload
/// failed, and whether the coverage note was all it showed.
struct Failure {
    engines: Vec<Engine>,
    note_only: bool,
}

impl Failure {
    fn of(mismatches: &[Mismatch]) -> Self {
        let note_only = mismatches.iter().all(Mismatch::is_coverage_note);
        let engines = mismatches
            .iter()
            .filter(|m| note_only || !m.is_coverage_note())
            .map(|m| m.engine)
            .collect();
        Failure { engines, note_only }
    }

    fn shown_by(&self, m: &Mismatch) -> bool {
        self.engines.contains(&m.engine) && (self.note_only || !m.is_coverage_note())
    }
}

/// Does `w` still exhibit `failure` under `opts`? Engine errors count as
/// failures too: minimizing a crash is as useful as minimizing a
/// mismatch.
fn still_fails(w: &Workload, scratch: &Path, opts: &CheckOptions, failure: &Failure) -> bool {
    if w.validate().is_err() {
        return false;
    }
    match check_workload(w, scratch, opts) {
        Ok(outcome) => outcome.mismatches.iter().any(|m| failure.shown_by(m)),
        Err(_) => true,
    }
}

/// Minimize `w` (assumed failing under `opts`) to a locally-minimal
/// reproduction. `opts.engines` should already be narrowed to the failing
/// engines — the predicate cost is proportional to it.
pub fn shrink(w: &Workload, scratch: &Path, opts: &CheckOptions) -> ShrinkReport {
    let failure =
        Failure::of(&check_workload(w, scratch, opts).map_or(Vec::new(), |o| o.mismatches));
    let mut cur = w.clone();
    let mut attempts = 0usize;
    let mut kept = 0usize;
    let mut try_candidate = |cand: Workload, cur: &mut Workload| -> bool {
        attempts += 1;
        if still_fails(&cand, scratch, opts, &failure) {
            *cur = cand;
            kept += 1;
            true
        } else {
            false
        }
    };

    loop {
        let before = cur.clone();

        // Pass 1: drop tuple chunks, halving the chunk size down to 1.
        let mut chunk = (cur.tuples.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < cur.tuples.len() && cur.tuples.len() > 1 {
                let end = (start + chunk).min(cur.tuples.len());
                let mut cand = cur.clone();
                cand.tuples.drain(start..end);
                if !try_candidate(cand, &mut cur) {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }

        // Pass 2: drop trailing dimensions (keep dimension 0).
        let mut d = cur.dims.len();
        while d > 1 {
            d -= 1;
            if cur.dims.len() <= 1 || d == 0 || d >= cur.dims.len() {
                continue;
            }
            let mut cand = cur.clone();
            cand.dims.remove(d);
            for (dims, _) in cand.tuples.iter_mut() {
                dims.remove(d);
            }
            try_candidate(cand, &mut cur);
        }

        // Pass 3: collapse hierarchies to flat leaf projections.
        for d in 0..cur.dims.len() {
            let flatter = match &cur.dims[d] {
                DimSpec::Linear { name, cards } if cards.len() > 1 => {
                    Some(DimSpec::Linear { name: name.clone(), cards: vec![cards[0]] })
                }
                DimSpec::Dag { name, scale } => {
                    Some(DimSpec::Linear { name: name.clone(), cards: vec![12 * scale] })
                }
                _ => None,
            };
            if let Some(spec) = flatter {
                let mut cand = cur.clone();
                cand.dims[d] = spec;
                try_candidate(cand, &mut cur);
            }
        }

        // Pass 4: simplify the configuration.
        if cur.measures > 1 {
            let mut cand = cur.clone();
            cand.measures = 1;
            for (_, aggs) in cand.tuples.iter_mut() {
                aggs.truncate(1);
            }
            try_candidate(cand, &mut cur);
        }
        if cur.min_support > 1 {
            let mut cand = cur.clone();
            cand.min_support = 1;
            try_candidate(cand, &mut cur);
        }
        if cur.partitioned {
            let mut cand = cur.clone();
            cand.partitioned = false;
            try_candidate(cand, &mut cur);
        }
        if cur.pool_capacity != 1_000_000 {
            let mut cand = cur.clone();
            cand.pool_capacity = 1_000_000;
            try_candidate(cand, &mut cur);
        }

        if cur == before {
            break;
        }
    }
    ShrinkReport { workload: cur, attempts, kept }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cure_storage::scratch::scratch_dir;

    /// Seed 5's partitioned workload cut to one tuple shows only the
    /// coverage note on a CURE disk row: that is not the row's real
    /// failure, though it is a failure when the note was all there was.
    #[test]
    fn coverage_note_alone_is_not_a_real_failure() {
        let mut w = Workload::from_matrix(5);
        assert!(w.partitioned, "seed 5 must be a partitioned workload");
        w.tuples.truncate(1);
        let sequential = Engine::all().into_iter().find(|e| e.label() == "sequential");
        let opts = CheckOptions { engines: sequential.into_iter().collect(), mutation: None };
        let scratch = scratch_dir("shrink_note");
        let shown = check_workload(&w, &scratch, &opts).unwrap().mismatches;
        assert!(!shown.is_empty() && shown.iter().all(Mismatch::is_coverage_note), "{shown:?}");

        let real = Failure { engines: opts.engines.clone(), note_only: false };
        assert!(!still_fails(&w, &scratch, &opts, &real), "the note passed for a real failure");
        assert!(still_fails(&w, &scratch, &opts, &Failure::of(&shown)));
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

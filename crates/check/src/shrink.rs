//! Greedy workload minimization for failing conformance cases.
//!
//! The shrinker re-runs the *failing engine subset* after every candidate
//! reduction and keeps a change only if the failure persists, so the
//! output is a locally-minimal workload with the same observable defect.
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
use crate::{check_workload, CheckOptions};

/// Outcome of a shrink run.
pub struct ShrinkReport {
    /// The minimized workload (still failing).
    pub workload: Workload,
    /// Candidate workloads evaluated.
    pub attempts: usize,
    /// Candidates that still failed (kept reductions).
    pub kept: usize,
}

/// Does `w` still exhibit a failure under `opts`? Engine errors count as
/// failures too: minimizing a crash is as useful as minimizing a
/// mismatch.
fn still_fails(w: &Workload, scratch: &Path, opts: &CheckOptions) -> bool {
    if w.validate().is_err() {
        return false;
    }
    match check_workload(w, scratch, opts) {
        Ok(outcome) => !outcome.mismatches.is_empty(),
        Err(_) => true,
    }
}

/// Minimize `w` (assumed failing under `opts`) to a locally-minimal
/// reproduction. `opts.engines` should already be narrowed to the failing
/// engines — the predicate cost is proportional to it.
pub fn shrink(w: &Workload, scratch: &Path, opts: &CheckOptions) -> ShrinkReport {
    let mut cur = w.clone();
    let mut attempts = 0usize;
    let mut kept = 0usize;
    let mut try_candidate = |cand: Workload, cur: &mut Workload| -> bool {
        attempts += 1;
        if still_fails(&cand, scratch, opts) {
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

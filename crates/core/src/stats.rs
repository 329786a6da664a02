//! Build-level observability: phase wall times and classification
//! counters.
//!
//! These types ride on [`crate::cube::BuildReport`], which every build —
//! in memory, partitioned at any thread count, durable — assembles in
//! one place, the finish step in [`crate::cube`]. Two invariants keep
//! the instrumentation safe:
//!
//! * **Counters never steer the build.** They are incremented next to
//!   the writes they describe and are read only after the build
//!   finishes, so an instrumented build produces byte-identical cube
//!   relations to an uninstrumented one.
//! * **Parallel builds stay deterministic.** NT/CAT classification
//!   counters live in the *merger's* signature pool (worker pools run
//!   in recording mode and never classify), and worker-side counters
//!   (TT prunes, sort calls) are integer sums folded in partition
//!   order. Only wall-clock timers vary run to run.

/// Wall-clock seconds spent in each construction phase.
///
/// Phases overlap by design: `pass_secs` covers the whole
/// `ExecutePlan` recursion including in-line pool flushes, while
/// `sort_secs` and `flush_secs` isolate the sorting and
/// classification/write shares of that time. In parallel builds
/// `pass_secs` and `sort_secs` are summed across workers (total CPU
/// seconds, not wall time) and `merge_secs` is the single merger's
/// replay time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Partitioning the fact relation (§4 partition pass); 0 for
    /// in-memory builds.
    pub partition_secs: f64,
    /// Cubing passes: the `ExecutePlan`/`FollowEdge` recursion over
    /// every partition plus the N-relation pass.
    pub pass_secs: f64,
    /// Per-node sorting inside the recursion (counting + comparison
    /// sorts; trivial segments are excluded).
    pub sort_secs: f64,
    /// Signature-pool flushes: classifying pooled signatures as NT vs
    /// CAT and writing them out.
    pub flush_secs: f64,
    /// Merger replay of sealed worker runs (parallel builds only).
    pub merge_secs: f64,
}

/// Classification counters from the TT fast path and the signature
/// pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Sub-cubes pruned as trivial tuples (single-tuple areas written
    /// straight to the TT relation, Figure 13 line 2).
    pub tt_prunes: u64,
    /// Signatures classified as normal tuples at flush time.
    pub nt_written: u64,
    /// CAT groups written (one per `write_cat_group` call; common-source
    /// CATs count one group per distinct source row-id).
    pub cat_groups: u64,
    /// Tuples covered by those CAT groups.
    pub cat_tuples: u64,
}

//! The signature pool: classifying NTs vs CATs (§5.2 of the paper).
//!
//! During construction CURE writes TTs immediately but defers every other
//! tuple: it keeps only a **signature** — `(Aggr1..AggrY, R-rowid, NodeId)`
//! — in a bounded in-memory pool. Flushing the pool sorts signatures by
//! aggregate values (and row-id), so equal-aggregate runs become adjacent:
//!
//! * a run of length 1 is a **normal tuple** (NT) — written as
//!   `(R-rowid, aggs)` to its node's NT relation;
//! * a longer run is a set of **common-aggregate tuples** (CATs) — their
//!   aggregates are stored once in `AGGREGATES` and the node relations
//!   store references.
//!
//! The flush also gathers the paper's `k`/`n` statistics (average CATs per
//! aggregate combination vs. average distinct source sets) and fixes the
//! CAT storage format by the §5.1 criterion the first time CATs appear:
//!
//! ```text
//! k/n > Y+1      → format (a)  (common-source CATs prevail)
//! else if Y == 1 → store CATs as NTs
//! else           → format (b)  (coincidental CATs prevail)
//! ```
//!
//! A bounded pool trades optimality for memory: signatures of equal
//! aggregates that land in different flushes are stored redundantly (as
//! NTs or duplicate CAT groups). The paper's Figure 18 measures exactly
//! this trade-off; `flushes()` and `len()` expose what experiments need.

use crate::error::Result;
use crate::lattice::NodeId;
use crate::sink::{CatFormat, CatFormatPolicy, CubeSink};

/// Durable snapshot of a pool's CAT-format decision machinery.
///
/// The §5.1 format criterion accumulates `k`/`n` statistics across every
/// flush that happens *before* a decision is reached. A resumed build must
/// restart from the same accumulated statistics (and the same decision, if
/// one was already made) or it could pick a different CAT format than the
/// original run would have — breaking byte-identical recovery. The build
/// manifest journals this state at every checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolDecisionState {
    /// The format decided so far, if any.
    pub decided: Option<CatFormat>,
    /// Aggregate combinations with ≥ 2 members seen while undecided.
    pub groups: u64,
    /// Total CATs over those combinations (`Σk`).
    pub k_sum: u64,
    /// Total distinct source rowids over those combinations (`Σn`).
    pub n_sum: u64,
    /// Completed flushes so far.
    pub flushes: u64,
    /// Signatures ever pushed.
    pub total_signatures: u64,
}

/// One flush's worth of signatures, sorted by `(aggs, rowid)` and sealed
/// for later replay.
///
/// Parallel builds cube partitions on worker threads, but the NT/CAT
/// classification, the §5.1 format decision and `AGGREGATES` row-id
/// assignment are all order-sensitive. Workers therefore run their pools
/// in *recording* mode: every flush is sorted and sealed into one of
/// these instead of being written, and a single merger replays the sealed
/// flushes — in partition order, against one decision-carrying pool — via
/// [`SignaturePool::apply_sealed`]. Because sorting is deterministic and
/// the merger sees the exact same flush contents in the exact same order
/// as a sequential build would, the output bytes are identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedFlush {
    /// Flat aggregate values, `y` per signature, in sorted order.
    aggs: Vec<i64>,
    /// Source row-ids, parallel to `aggs`.
    rowids: Vec<u64>,
    /// Owning nodes, parallel to `rowids`.
    nodes: Vec<NodeId>,
    /// Trivial tuples the worker had written when this flush happened,
    /// so the merger replays TT writes and flushes interleaved exactly
    /// as a sequential build made them.
    tt_mark: u64,
}

impl SealedFlush {
    /// Trivial tuples written before this flush in the worker's pass.
    pub fn tt_mark(&self) -> u64 {
        self.tt_mark
    }

    /// Number of signatures in this flush.
    pub fn len(&self) -> usize {
        self.rowids.len()
    }

    /// Whether the flush holds no signatures (never true for flushes
    /// produced by [`SignaturePool::flush`], which skips empty pools).
    pub fn is_empty(&self) -> bool {
        self.rowids.is_empty()
    }

    /// Approximate heap footprint in bytes (for merge backpressure).
    pub fn size_bytes(&self) -> usize {
        self.aggs.len() * 8 + self.rowids.len() * 8 + self.nodes.len() * 8
    }
}

/// Bounded pool of deferred tuple signatures.
#[derive(Debug)]
pub struct SignaturePool {
    y: usize,
    capacity: usize,
    aggs: Vec<i64>,
    rowids: Vec<u64>,
    nodes: Vec<NodeId>,
    policy: CatFormatPolicy,
    decided: Option<CatFormat>,
    /// Recording mode: flushes are sealed here instead of being written.
    record: Option<Vec<SealedFlush>>,
    flushes: u64,
    total_signatures: u64,
    /// Accumulated decision statistics (until a decision is made).
    k_sum: u64,
    n_sum: u64,
    groups: u64,
    /// Observability counters for the write half of a flush. These are
    /// deliberately *not* part of [`PoolDecisionState`]: they never steer
    /// the build, so journaling them would bloat the manifest for no
    /// recovery value (a resumed build reports only its own run's
    /// counters). Recording pools never classify, so in parallel builds
    /// all counting happens in the single merger pool — deterministic.
    nt_written: u64,
    cat_groups: u64,
    cat_tuples: u64,
    write_secs: f64,
}

impl SignaturePool {
    /// Create a pool holding at most `capacity` signatures of `y`
    /// aggregates each. Capacity 0 disables CAT identification entirely
    /// (every aggregate tuple becomes an NT), matching the paper's remark
    /// about zero-length pools.
    pub fn new(y: usize, capacity: usize, policy: CatFormatPolicy) -> Self {
        let decided = match policy {
            CatFormatPolicy::Force(f) => Some(f),
            CatFormatPolicy::Auto => None,
        };
        SignaturePool {
            y,
            capacity,
            aggs: Vec::new(),
            rowids: Vec::new(),
            nodes: Vec::new(),
            policy,
            decided,
            record: None,
            flushes: 0,
            total_signatures: 0,
            k_sum: 0,
            n_sum: 0,
            groups: 0,
            nt_written: 0,
            cat_groups: 0,
            cat_tuples: 0,
            write_secs: 0.0,
        }
    }

    /// Switch the pool into recording mode: every flush is sorted and
    /// sealed into an internal log instead of being classified and
    /// written. The sink passed to [`push`](Self::push)/[`flush`](Self::flush)
    /// is never touched. Used by parallel build workers; the merger
    /// replays the log with [`apply_sealed`](Self::apply_sealed).
    pub fn recording(mut self) -> Self {
        self.record = Some(Vec::new());
        self
    }

    /// Take the sealed flushes recorded so far (recording mode only).
    /// The caller should [`flush`](Self::flush) first so the pool's tail
    /// is sealed too.
    pub fn take_recorded(&mut self) -> Vec<SealedFlush> {
        self.record.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Number of signatures currently pooled.
    pub fn len(&self) -> usize {
        self.rowids.len()
    }

    /// Whether the pool holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.rowids.is_empty()
    }

    /// Completed flushes so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Signatures ever pushed.
    pub fn total_signatures(&self) -> u64 {
        self.total_signatures
    }

    /// The CAT format in force (None until decided).
    pub fn cat_format(&self) -> Option<CatFormat> {
        self.decided
    }

    /// Signatures classified as NTs by this pool's flushes. Zero for
    /// recording pools (workers): only the classifying pool counts.
    pub fn nt_written(&self) -> u64 {
        self.nt_written
    }

    /// CAT groups written by this pool's flushes (one per
    /// `write_cat_group` call).
    pub fn cat_groups(&self) -> u64 {
        self.cat_groups
    }

    /// Tuples covered by those CAT groups.
    pub fn cat_tuples(&self) -> u64 {
        self.cat_tuples
    }

    /// Seconds spent classifying and writing flushed signatures.
    pub fn write_secs(&self) -> f64 {
        self.write_secs
    }

    /// Add a signature, flushing first if the pool is full (Figure 13,
    /// `ExecutePlan` lines 6–7).
    pub fn push(
        &mut self,
        sink: &mut (impl CubeSink + ?Sized),
        aggs: &[i64],
        rowid: u64,
        node: NodeId,
    ) -> Result<()> {
        debug_assert_eq!(aggs.len(), self.y);
        if self.len() >= self.capacity {
            self.flush(sink)?;
        }
        self.aggs.extend_from_slice(aggs);
        self.rowids.push(rowid);
        self.nodes.push(node);
        self.total_signatures += 1;
        Ok(())
    }

    /// Sort, classify and write out every pooled signature (`
    /// FlushSignatures` in the paper's pseudo-code), emptying the pool.
    ///
    /// In [recording mode](Self::recording) the sorted contents are
    /// sealed into the internal log instead and `sink` is not touched.
    pub fn flush(&mut self, sink: &mut (impl CubeSink + ?Sized)) -> Result<()> {
        let Some(sealed) = self.seal_sorted() else {
            return Ok(());
        };
        if let Some(log) = &mut self.record {
            log.push(SealedFlush { tt_mark: sink.tts_written(), ..sealed });
            return Ok(());
        }
        self.apply_writes(sink, &sealed)
    }

    /// Replay a worker-sealed flush into `sink` as if its signatures had
    /// been pooled and flushed here: gather decision statistics, decide
    /// the CAT format if due, and write NTs / CAT groups. The pool must
    /// be empty (the merger pool only ever carries decision state).
    pub fn apply_sealed(
        &mut self,
        sink: &mut (impl CubeSink + ?Sized),
        sealed: &SealedFlush,
    ) -> Result<()> {
        if !self.is_empty() {
            return Err(crate::error::CubeError::Config(
                "apply_sealed requires an empty pool".into(),
            ));
        }
        if sealed.is_empty() {
            return Ok(());
        }
        self.total_signatures += sealed.len() as u64;
        self.apply_writes(sink, sealed)
    }

    /// Drain the pool into a [`SealedFlush`] sorted by `(aggs, rowid)` —
    /// bringing common-aggregate signatures (and common-source ones
    /// within them) to adjacent positions. Returns `None` when empty.
    fn seal_sorted(&mut self) -> Option<SealedFlush> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let y = self.y;
        let idx = sort_index(&self.aggs, &self.rowids, y);
        let mut out = SealedFlush {
            aggs: Vec::with_capacity(n * y),
            rowids: Vec::with_capacity(n),
            nodes: Vec::with_capacity(n),
            tt_mark: 0,
        };
        for &w in &idx {
            let t = w as usize;
            out.aggs.extend_from_slice(&self.aggs[t * y..(t + 1) * y]);
            out.rowids.push(self.rowids[t]);
            out.nodes.push(self.nodes[t]);
        }
        self.aggs.clear();
        self.rowids.clear();
        self.nodes.clear();
        Some(out)
    }

    /// The write half of a flush, over pre-sorted signatures: adopt or
    /// make the §5.1 format decision, then emit NTs and CAT groups.
    fn apply_writes(
        &mut self,
        sink: &mut (impl CubeSink + ?Sized),
        sealed: &SealedFlush,
    ) -> Result<()> {
        let t0 = std::time::Instant::now();
        let n = sealed.len();
        let y = self.y;
        let aggs = &sealed.aggs;
        let rowids = &sealed.rowids;
        let nodes = &sealed.nodes;
        let same_aggs = |a: usize, b: usize| aggs[a * y..(a + 1) * y] == aggs[b * y..(b + 1) * y];
        self.flushes += 1;

        // Pass 1 (only while undecided): gather k/n statistics.
        if self.decided.is_none() {
            let mut i = 0usize;
            while i < n {
                let mut j = i + 1;
                while j < n && same_aggs(i, j) {
                    j += 1;
                }
                if j - i > 1 {
                    self.groups += 1;
                    self.k_sum += (j - i) as u64;
                    let mut distinct = 1u64;
                    for w in i + 1..j {
                        if rowids[w] != rowids[w - 1] {
                            distinct += 1;
                        }
                    }
                    self.n_sum += distinct;
                }
                i = j;
            }
            if self.groups > 0 {
                // §5.1: format (a) iff k/n > Y+1; else AsNt when Y == 1;
                // else format (b).
                let f = if self.k_sum > (y as u64 + 1) * self.n_sum {
                    CatFormat::CommonSource
                } else if y == 1 {
                    CatFormat::AsNt
                } else {
                    CatFormat::Coincidental
                };
                self.decided = Some(f);
            }
        }
        if let Some(f) = self.decided {
            if sink.cat_format().is_none() {
                sink.set_cat_format(f);
            }
        }

        // Pass 2: write NTs and CAT groups.
        let mut members: Vec<(NodeId, u64)> = Vec::new();
        let mut i = 0usize;
        while i < n {
            let mut j = i + 1;
            while j < n && same_aggs(i, j) {
                j += 1;
            }
            let agg_slice = &aggs[i * y..(i + 1) * y];
            if j - i == 1 {
                self.nt_written += 1;
                sink.write_nt(nodes[i], rowids[i], agg_slice)?;
            } else {
                let format = self.decided.ok_or_else(|| {
                    crate::error::CubeError::Config(
                        "CAT group flushed without a format decision".into(),
                    )
                })?;
                match format {
                    CatFormat::CommonSource => {
                        // Sub-group by source rowid (already adjacent).
                        let mut s = i;
                        while s < j {
                            let mut e = s + 1;
                            while e < j && rowids[e] == rowids[s] {
                                e += 1;
                            }
                            members.clear();
                            for t in s..e {
                                members.push((nodes[t], rowids[t]));
                            }
                            self.cat_groups += 1;
                            self.cat_tuples += (e - s) as u64;
                            sink.write_cat_group(&members, agg_slice)?;
                            s = e;
                        }
                    }
                    CatFormat::Coincidental | CatFormat::AsNt => {
                        members.clear();
                        for t in i..j {
                            members.push((nodes[t], rowids[t]));
                        }
                        self.cat_groups += 1;
                        self.cat_tuples += (j - i) as u64;
                        sink.write_cat_group(&members, agg_slice)?;
                    }
                }
            }
            i = j;
        }
        self.write_secs += t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// The policy this pool was created with.
    pub fn policy(&self) -> CatFormatPolicy {
        self.policy
    }

    /// Snapshot the decision machinery for the build manifest. Only
    /// meaningful when the pool is empty (i.e. right after a flush) —
    /// pooled-but-unflushed signatures are not part of the snapshot.
    pub fn decision_state(&self) -> PoolDecisionState {
        PoolDecisionState {
            decided: self.decided,
            groups: self.groups,
            k_sum: self.k_sum,
            n_sum: self.n_sum,
            flushes: self.flushes,
            total_signatures: self.total_signatures,
        }
    }

    /// Restore a journaled decision snapshot into this (fresh, empty)
    /// pool so a resumed build continues the format criterion exactly
    /// where the original run left off.
    pub fn restore_decision(&mut self, st: &PoolDecisionState) -> Result<()> {
        if !self.is_empty() || self.total_signatures != 0 {
            return Err(crate::error::CubeError::Config(
                "restore_decision requires a fresh, empty pool".into(),
            ));
        }
        if let (CatFormatPolicy::Force(f), Some(d)) = (self.policy, st.decided) {
            if f != d {
                return Err(crate::error::CubeError::Config(format!(
                    "journaled CAT format {d:?} conflicts with forced policy {f:?}"
                )));
            }
        }
        // `.or`: a Force-policy pool is born decided; an undecided journal
        // (e.g. no CATs seen yet) must not wipe that.
        self.decided = st.decided.or(self.decided);
        self.groups = st.groups;
        self.k_sum = st.k_sum;
        self.n_sum = st.n_sum;
        self.flushes = st.flushes;
        self.total_signatures = st.total_signatures;
        Ok(())
    }
}

/// The permutation that sorts signatures by `(aggs, rowid)`: `aggs` holds
/// `y` values per signature, `rowids` one. `sort_unstable_by` over an
/// index is deterministic in the comparator's outcomes, which are those
/// of [`sort_index_by_slices`] — so is the permutation, ties included.
/// Up to four aggregates, the comparator reads one contiguous,
/// zero-padded `([i64; K], u64)` key per signature instead of two
/// slices: the padding is equal in every key, so it never decides.
fn sort_index(aggs: &[i64], rowids: &[u64], y: usize) -> Vec<u32> {
    match y {
        0..=2 => sort_index_by_keys::<2>(aggs, rowids, y),
        3..=4 => sort_index_by_keys::<4>(aggs, rowids, y),
        _ => sort_index_by_slices(aggs, rowids, y),
    }
}

/// [`sort_index`] over `([i64; K], u64)` keys, for `y ≤ K`.
fn sort_index_by_keys<const K: usize>(aggs: &[i64], rowids: &[u64], y: usize) -> Vec<u32> {
    let keys: Vec<([i64; K], u64)> = rowids
        .iter()
        .enumerate()
        .map(|(i, &rowid)| {
            let mut key = [0i64; K];
            key[..y].copy_from_slice(&aggs[i * y..(i + 1) * y]);
            (key, rowid)
        })
        .collect();
    let mut idx: Vec<u32> = (0..rowids.len() as u32).collect();
    idx.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    idx
}

/// [`sort_index`] comparing the aggregate slices in place: the reference
/// comparator, and the one used above four aggregates.
fn sort_index_by_slices(aggs: &[i64], rowids: &[u64], y: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..rowids.len() as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        aggs[a * y..(a + 1) * y]
            .cmp(&aggs[b * y..(b + 1) * y])
            .then_with(|| rowids[a].cmp(&rowids[b]))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemSink;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The keyed sort makes exactly the slice comparator's permutation,
        /// ties included: few distinct values and row-ids force many
        /// equal `(aggs, rowid)` signatures.
        #[test]
        fn keyed_sort_matches_slice_sort(
            y in 1usize..7,
            raw in proptest::collection::vec((-1i64..2, 0i64..3, 0u64..4), 0..400),
        ) {
            let aggs: Vec<i64> = raw
                .iter()
                .flat_map(|&(a, b, _)| (0..y).map(move |m| if m % 2 == 0 { a } else { b }))
                .collect();
            let rowids: Vec<u64> = raw.iter().map(|&(_, _, r)| r).collect();
            prop_assert_eq!(
                sort_index(&aggs, &rowids, y),
                sort_index_by_slices(&aggs, &rowids, y)
            );
        }
    }

    #[test]
    fn singleton_aggs_become_nts() {
        let mut sink = MemSink::new(2);
        let mut pool = SignaturePool::new(2, 100, CatFormatPolicy::Auto);
        pool.push(&mut sink, &[1, 2], 10, 0).unwrap();
        pool.push(&mut sink, &[3, 4], 20, 1).unwrap();
        pool.flush(&mut sink).unwrap();
        let stats = sink.finish().unwrap();
        assert_eq!(stats.nt_tuples, 2);
        assert_eq!(stats.cat_tuples, 0);
        assert!(pool.cat_format().is_none(), "no CATs → no decision yet");
    }

    #[test]
    fn common_source_cats_choose_format_a() {
        // Many CATs per combo, all from the same source: k/n large.
        let mut sink = MemSink::new(1);
        let mut pool = SignaturePool::new(1, 1000, CatFormatPolicy::Auto);
        // 5 combos × 6 CATs each, all CATs in a combo share the rowid.
        for combo in 0..5i64 {
            for node in 0..6u64 {
                pool.push(&mut sink, &[100 + combo], 7 + combo as u64, node).unwrap();
            }
        }
        pool.flush(&mut sink).unwrap();
        // k = 6, n = 1 → k/n = 6 > Y+1 = 2 → format (a).
        assert_eq!(pool.cat_format(), Some(CatFormat::CommonSource));
        let stats = sink.finish().unwrap();
        assert_eq!(stats.cat_tuples, 30);
        assert_eq!(stats.aggregates_rows, 5); // one per (aggs, rowid) pair
        assert_eq!(stats.nt_tuples, 0);
    }

    #[test]
    fn coincidental_cats_choose_format_b_when_y_gt_1() {
        // Every CAT in a combo has a different source: k == n.
        let mut sink = MemSink::new(2);
        let mut pool = SignaturePool::new(2, 1000, CatFormatPolicy::Auto);
        for combo in 0..4i64 {
            for src in 0..3u64 {
                pool.push(&mut sink, &[combo, combo], 100 + src, src).unwrap();
            }
        }
        pool.flush(&mut sink).unwrap();
        // k/n = 1 ≤ Y+1 and Y > 1 → format (b).
        assert_eq!(pool.cat_format(), Some(CatFormat::Coincidental));
        let stats = sink.finish().unwrap();
        assert_eq!(stats.cat_tuples, 12);
        assert_eq!(stats.aggregates_rows, 4); // one per combo
    }

    #[test]
    fn coincidental_single_aggregate_stores_as_nt() {
        let mut sink = MemSink::new(1);
        let mut pool = SignaturePool::new(1, 1000, CatFormatPolicy::Auto);
        for src in 0..3u64 {
            pool.push(&mut sink, &[42], 100 + src, src).unwrap();
        }
        pool.flush(&mut sink).unwrap();
        // k/n = 1, Y = 1 → CATs stored as NTs.
        assert_eq!(pool.cat_format(), Some(CatFormat::AsNt));
        let stats = sink.finish().unwrap();
        assert_eq!(stats.nt_tuples, 3);
        assert_eq!(stats.cat_tuples, 0);
        assert_eq!(stats.aggregates_rows, 0);
    }

    #[test]
    fn forced_policy_skips_statistics() {
        let mut sink = MemSink::new(1);
        let mut pool = SignaturePool::new(1, 10, CatFormatPolicy::Force(CatFormat::Coincidental));
        assert_eq!(pool.cat_format(), Some(CatFormat::Coincidental));
        for src in 0..3u64 {
            pool.push(&mut sink, &[42], 100 + src, src).unwrap();
        }
        pool.flush(&mut sink).unwrap();
        let stats = sink.finish().unwrap();
        assert_eq!(stats.cat_tuples, 3);
    }

    #[test]
    fn auto_flush_when_full() {
        let mut sink = MemSink::new(1);
        let mut pool = SignaturePool::new(1, 4, CatFormatPolicy::Auto);
        for i in 0..10i64 {
            pool.push(&mut sink, &[i], i as u64, 0).unwrap();
        }
        assert!(pool.flushes() >= 2, "pool of 4 must flush twice for 10 pushes");
        assert!(pool.len() <= 4);
        pool.flush(&mut sink).unwrap();
        assert_eq!(pool.total_signatures(), 10);
        let stats = sink.finish().unwrap();
        assert_eq!(stats.nt_tuples, 10);
    }

    #[test]
    fn zero_capacity_pool_disables_cats() {
        let mut sink = MemSink::new(1);
        let mut pool = SignaturePool::new(1, 0, CatFormatPolicy::Auto);
        // Identical aggregates everywhere — would be CATs with a real pool.
        for i in 0..5u64 {
            pool.push(&mut sink, &[7], 100 + i, i).unwrap();
        }
        pool.flush(&mut sink).unwrap();
        let stats = sink.finish().unwrap();
        assert_eq!(stats.nt_tuples, 5, "every signature flushed alone → NT");
        assert_eq!(stats.cat_tuples, 0);
    }

    #[test]
    fn small_pool_loses_some_cats_but_not_correctness() {
        // Same data with a big pool vs a pool of 2: the small pool stores
        // more tuples as NTs (redundantly) but the union of stored
        // aggregate information is identical.
        let data: Vec<(i64, u64, NodeId)> =
            vec![(7, 1, 0), (7, 1, 1), (9, 2, 0), (7, 1, 2), (9, 3, 1)];
        let run = |cap: usize| {
            let mut sink = MemSink::new(2);
            let mut pool =
                SignaturePool::new(2, cap, CatFormatPolicy::Force(CatFormat::Coincidental));
            for &(a, r, n) in &data {
                pool.push(&mut sink, &[a, a], r, n).unwrap();
            }
            pool.flush(&mut sink).unwrap();
            sink.finish().unwrap()
        };
        let big = run(100);
        let small = run(2);
        assert_eq!(big.total_tuples(), small.total_tuples(), "every tuple stored exactly once");
        assert!(small.nt_tuples >= big.nt_tuples, "small pool may miss CATs");
        assert!(small.total_bytes() >= big.total_bytes(), "missed CATs cost space");
    }

    #[test]
    fn flush_of_empty_pool_is_noop() {
        let mut sink = MemSink::new(1);
        let mut pool = SignaturePool::new(1, 10, CatFormatPolicy::Auto);
        pool.flush(&mut sink).unwrap();
        assert_eq!(pool.flushes(), 0);
    }

    #[test]
    fn decision_state_roundtrip_reaches_same_format() {
        // Split a workload across two pools at a flush boundary: the second
        // pool, restored from the first's snapshot, must reach the same
        // format decision as one pool seeing the whole stream.
        let data: Vec<(i64, u64, NodeId)> =
            (0..4i64).flat_map(|combo| (0..3u64).map(move |src| (combo, 100 + src, src))).collect();
        // Reference: one pool, one flush over everything.
        let mut ref_sink = MemSink::new(2);
        let mut ref_pool = SignaturePool::new(2, 1000, CatFormatPolicy::Auto);
        for &(a, r, n) in &data {
            ref_pool.push(&mut ref_sink, &[a, a], r, n).unwrap();
        }
        ref_pool.flush(&mut ref_sink).unwrap();
        let want = ref_pool.cat_format().expect("reference decides");

        // Resumed: first pool flushes half, snapshot, second pool restores
        // and flushes the rest.
        let mut sink = MemSink::new(2);
        let mut p1 = SignaturePool::new(2, 1000, CatFormatPolicy::Auto);
        for &(a, r, n) in &data[..6] {
            p1.push(&mut sink, &[a, a], r, n).unwrap();
        }
        p1.flush(&mut sink).unwrap();
        let snap = p1.decision_state();
        let mut p2 = SignaturePool::new(2, 1000, CatFormatPolicy::Auto);
        p2.restore_decision(&snap).unwrap();
        assert_eq!(p2.flushes(), p1.flushes());
        for &(a, r, n) in &data[6..] {
            p2.push(&mut sink, &[a, a], r, n).unwrap();
        }
        p2.flush(&mut sink).unwrap();
        assert_eq!(p2.cat_format(), Some(want));
        assert_eq!(p2.total_signatures(), data.len() as u64);
    }

    #[test]
    fn restore_decision_rejects_dirty_pool_and_policy_conflict() {
        let mut sink = MemSink::new(1);
        let mut dirty = SignaturePool::new(1, 10, CatFormatPolicy::Auto);
        dirty.push(&mut sink, &[1], 1, 0).unwrap();
        assert!(dirty.restore_decision(&PoolDecisionState::default()).is_err());

        let mut forced = SignaturePool::new(1, 10, CatFormatPolicy::Force(CatFormat::AsNt));
        let snap =
            PoolDecisionState { decided: Some(CatFormat::Coincidental), ..Default::default() };
        assert!(forced.restore_decision(&snap).is_err());
    }

    #[test]
    fn recording_pool_replays_identically() {
        // A recording pool seals its flushes without touching the sink;
        // replaying them through apply_sealed must reproduce exactly what
        // a direct pool produces — same relations, same AGGREGATES order,
        // same decision state. Capacity 4 forces several flush boundaries.
        let data: Vec<(i64, u64, NodeId)> = vec![
            (7, 1, 0),
            (7, 1, 1),
            (9, 2, 0),
            (7, 1, 2),
            (9, 3, 1),
            (5, 4, 2),
            (9, 2, 3),
            (5, 5, 0),
            (7, 6, 1),
        ];
        let mut ref_sink = MemSink::new(2);
        let mut ref_pool = SignaturePool::new(2, 4, CatFormatPolicy::Auto);
        for &(a, r, n) in &data {
            ref_pool.push(&mut ref_sink, &[a, a * 3], r, n).unwrap();
        }
        ref_pool.flush(&mut ref_sink).unwrap();

        let mut dummy = MemSink::new(2);
        let mut rec_pool = SignaturePool::new(2, 4, CatFormatPolicy::Auto).recording();
        for &(a, r, n) in &data {
            rec_pool.push(&mut dummy, &[a, a * 3], r, n).unwrap();
        }
        rec_pool.flush(&mut dummy).unwrap();
        assert!(dummy.tts.is_empty() && dummy.nts.is_empty() && dummy.cats.is_empty());
        assert!(rec_pool.cat_format().is_none(), "recording pools never decide");

        let sealed = rec_pool.take_recorded();
        assert_eq!(sealed.len() as u64, ref_pool.flushes());
        let mut merged = MemSink::new(2);
        let mut merge_pool = SignaturePool::new(2, 4, CatFormatPolicy::Auto);
        for s in &sealed {
            merge_pool.apply_sealed(&mut merged, s).unwrap();
        }
        assert_eq!(merged.nts, ref_sink.nts);
        assert_eq!(merged.cats, ref_sink.cats);
        assert_eq!(merged.aggregates, ref_sink.aggregates);
        assert_eq!(merge_pool.decision_state(), ref_pool.decision_state());
    }

    #[test]
    fn apply_sealed_rejects_dirty_pool() {
        let mut sink = MemSink::new(1);
        let mut rec = SignaturePool::new(1, 10, CatFormatPolicy::Auto).recording();
        rec.push(&mut sink, &[1], 1, 0).unwrap();
        rec.flush(&mut sink).unwrap();
        let sealed = rec.take_recorded();
        let mut dirty = SignaturePool::new(1, 10, CatFormatPolicy::Auto);
        dirty.push(&mut sink, &[2], 2, 0).unwrap();
        assert!(dirty.apply_sealed(&mut sink, &sealed[0]).is_err());
    }

    #[test]
    fn mixed_nt_and_cat_in_one_flush() {
        let mut sink = MemSink::new(2);
        let mut pool = SignaturePool::new(2, 100, CatFormatPolicy::Auto);
        pool.push(&mut sink, &[1, 1], 10, 0).unwrap(); // NT
        pool.push(&mut sink, &[2, 2], 11, 1).unwrap(); // CAT group…
        pool.push(&mut sink, &[2, 2], 12, 2).unwrap(); // …of two
        pool.flush(&mut sink).unwrap();
        let stats = sink.finish().unwrap();
        assert_eq!(stats.nt_tuples, 1);
        assert_eq!(stats.cat_tuples, 2);
    }
}

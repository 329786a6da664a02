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
//! Each signature is one fixed-width record: `([i64; K], u64, NodeId)`
//! with the aggregates zero-padded to `K = 2` or `4`, or above four
//! aggregates an offset into one flat buffer. A flush sorts the records
//! in place, allocating nothing proportional to the pool, under one total
//! order: the whole `(aggs, rowid, node)`. Equal records are the same
//! signature, so any correct sort (serial, split across threads as
//! [`SignaturePool::flush_on`] does for the final flushes of a build and
//! an ingest, unstable) seals the same flush and writes the same bytes.
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
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cmp::Ordering;

use crate::error::Result;
use crate::lattice::NodeId;
use crate::sink::{CatFormat, CatFormatPolicy, CubeSink};

/// Fewest records per thread worth a split when a flush sorts on threads.
const SORT_GRAIN: usize = 1 << 14;

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

/// One pooled signature: its aggregates, source row-id and node.
type Rec<A> = (A, u64, NodeId);

/// Pooled signatures, one record each; `Wide` records point into a flat
/// aggregate buffer kept in push order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Records {
    K2(Vec<Rec<[i64; 2]>>),
    K4(Vec<Rec<[i64; 4]>>),
    Wide(Vec<i64>, Vec<Rec<usize>>),
}

impl Records {
    fn new(y: usize) -> Self {
        match y {
            0..=2 => Records::K2(Vec::new()),
            3..=4 => Records::K4(Vec::new()),
            _ => Records::Wide(Vec::new(), Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Records::K2(v) => v.len(),
            Records::K4(v) => v.len(),
            Records::Wide(_, v) => v.len(),
        }
    }

    fn push(&mut self, aggs: &[i64], rowid: u64, node: NodeId) {
        let pad = |m: usize| aggs.get(m).map_or(0, |a| *a);
        match self {
            Records::K2(v) => v.push((std::array::from_fn(pad), rowid, node)),
            Records::K4(v) => v.push((std::array::from_fn(pad), rowid, node)),
            Records::Wide(flat, v) => {
                v.push((flat.len(), rowid, node));
                flat.extend_from_slice(aggs);
            }
        }
    }

    fn clear(&mut self) {
        match self {
            Records::K2(v) => v.clear(),
            Records::K4(v) => v.clear(),
            Records::Wide(flat, v) => {
                flat.clear();
                v.clear();
            }
        }
    }

    /// Sort the records in place by `(aggs, rowid, node)` on `threads` threads.
    fn sort(&mut self, y: usize, threads: usize) {
        match self {
            Records::K2(v) => sort_records(v, threads, &Ord::cmp),
            Records::K4(v) => sort_records(v, threads, &Ord::cmp),
            Records::Wide(flat, v) => {
                sort_records(v, threads, &|a: &Rec<usize>, b: &Rec<usize>| {
                    (a.0.get(flat, y), a.1, a.2).cmp(&(b.0.get(flat, y), b.1, b.2))
                })
            }
        }
    }
}

/// A record's aggregates: inline and zero-padded, or an offset into `flat`.
trait Aggs {
    fn get<'a>(&'a self, flat: &'a [i64], y: usize) -> &'a [i64];
}

impl<const K: usize> Aggs for [i64; K] {
    fn get<'a>(&'a self, _: &'a [i64], y: usize) -> &'a [i64] {
        &self[..y]
    }
}

impl Aggs for usize {
    fn get<'a>(&'a self, flat: &'a [i64], y: usize) -> &'a [i64] {
        &flat[*self..*self + y]
    }
}

/// Sort `v` in place by the total order `cmp` on `threads` threads: split
/// it around its element of rank `len · ⌊threads/2⌋ / threads`, then sort
/// both sides on scoped threads. A total order makes the result unique.
fn sort_records<T: Send, F: Fn(&T, &T) -> Ordering + Sync>(v: &mut [T], threads: usize, cmp: &F) {
    if threads <= 1 || v.len() < 2 {
        v.sort_unstable_by(cmp);
        return;
    }
    let left = threads / 2;
    let mid = v.len() * left / threads;
    v.select_nth_unstable_by(mid, cmp);
    let (lo, hi) = v.split_at_mut(mid);
    std::thread::scope(|s| {
        s.spawn(|| sort_records(lo, left, cmp));
        sort_records(hi, threads - left, cmp);
    });
}

/// One flush's worth of signatures, sorted by `(aggs, rowid, node)` and
/// sealed for later replay: the pool's record buffer, sorted in place and
/// moved out of the pool.
///
/// Parallel builds cube partitions on worker threads, but the NT/CAT
/// classification, the §5.1 format decision and `AGGREGATES` row-id
/// assignment are all order-sensitive. Workers therefore run their pools
/// in *recording* mode: every flush is sorted and sealed into one of
/// these instead of being written, and a single merger replays the sealed
/// flushes — in partition order, against one decision-carrying pool — via
/// [`SignaturePool::apply_sealed`]. The sort is under a total order and
/// the merger sees the exact same flush contents in the exact same order
/// as a sequential build would, so the output bytes are identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedFlush {
    records: Records,
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
        self.records.len()
    }

    /// Whether the flush holds no signatures (a flush never seals an empty pool).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bounded pool of deferred tuple signatures.
#[derive(Debug)]
pub struct SignaturePool {
    y: usize,
    capacity: usize,
    records: Records,
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
            records: Records::new(y),
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
        self.records.len()
    }

    /// Whether the pool holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        self.records.push(aggs, rowid, node);
        self.total_signatures += 1;
        Ok(())
    }

    /// Sort, classify and write out every pooled signature (`
    /// FlushSignatures` in the paper's pseudo-code), emptying the pool.
    ///
    /// In [recording mode](Self::recording) the sorted records are
    /// sealed into the internal log instead and `sink` is not touched.
    pub fn flush(&mut self, sink: &mut (impl CubeSink + ?Sized)) -> Result<()> {
        self.flush_on(sink, 1)
    }

    /// [`flush`](Self::flush), sorting on up to `threads` threads, at most one
    /// per 16 384 records; what is written does not depend on `threads`.
    pub fn flush_on(&mut self, sink: &mut (impl CubeSink + ?Sized), threads: usize) -> Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        self.records.sort(self.y, threads.min(self.len() / SORT_GRAIN).max(1));
        let mut records = std::mem::replace(&mut self.records, Records::new(self.y));
        if let Some(log) = &mut self.record {
            log.push(SealedFlush { records, tt_mark: sink.tts_written() });
            return Ok(());
        }
        let written = self.apply_writes(sink, &records);
        records.clear();
        self.records = records;
        written
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
        self.apply_writes(sink, &sealed.records)
    }

    /// The write half of a flush, over sorted records.
    fn apply_writes(&mut self, sink: &mut (impl CubeSink + ?Sized), recs: &Records) -> Result<()> {
        match recs {
            Records::K2(v) => self.write_sorted(sink, v, &[]),
            Records::K4(v) => self.write_sorted(sink, v, &[]),
            Records::Wide(flat, v) => self.write_sorted(sink, v, flat),
        }
    }

    /// Adopt or make the §5.1 format decision, then emit NTs and CAT groups:
    /// one per run of equal aggregates, split by row-id in format (a).
    fn write_sorted<A: Aggs>(
        &mut self,
        sink: &mut (impl CubeSink + ?Sized),
        recs: &[Rec<A>],
        flat: &[i64],
    ) -> Result<()> {
        let t0 = std::time::Instant::now();
        let y = self.y;
        let same_aggs = |a: &Rec<A>, b: &Rec<A>| a.0.get(flat, y) == b.0.get(flat, y);
        self.flushes += 1;

        // Pass 1 (only while undecided): gather k/n statistics.
        if self.decided.is_none() {
            for g in recs.chunk_by(same_aggs).filter(|g| g.len() > 1) {
                self.groups += 1;
                self.k_sum += g.len() as u64;
                self.n_sum += 1 + g.windows(2).filter(|w| w[0].1 != w[1].1).count() as u64;
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
        for g in recs.chunk_by(same_aggs) {
            let aggs = g[0].0.get(flat, y);
            if let [(_, rowid, node)] = g {
                self.nt_written += 1;
                sink.write_nt(*node, *rowid, aggs)?;
                continue;
            }
            let format = self.decided.ok_or_else(|| {
                crate::error::CubeError::Config(
                    "CAT group flushed without a format decision".into(),
                )
            })?;
            let by_source = format == CatFormat::CommonSource;
            for cat in g.chunk_by(|a, b| !by_source || a.1 == b.1) {
                members.clear();
                members.extend(cat.iter().map(|r| (r.2, r.1)));
                self.cat_groups += 1;
                self.cat_tuples += cat.len() as u64;
                sink.write_cat_group(&members, aggs)?;
            }
        }
        self.write_secs += t0.elapsed().as_secs_f64();
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemSink;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-place record sort, at any thread count and in each of
        /// the three record forms, gives exactly the reference sort of
        /// whole `(aggs, rowid, node)` signatures: few distinct values,
        /// row-ids and nodes force many ties and many equal records.
        #[test]
        fn record_sort_matches_reference_sort(
            y in 1usize..=6,
            threads in 1usize..=8,
            raw in proptest::collection::vec((-1i64..2, 0i64..3, 0u64..4, 0u64..3), 0..3000),
        ) {
            let mut want: Vec<(Vec<i64>, u64, NodeId)> = raw
                .iter()
                .map(|&(a, b, rowid, node)| {
                    ((0..y).map(|m| if m % 2 == 0 { a } else { b }).collect(), rowid, node)
                })
                .collect();
            let mut records = Records::new(y);
            for (aggs, rowid, node) in &want {
                records.push(aggs, *rowid, *node);
            }
            records.sort(y, threads);
            want.sort();
            prop_assert_eq!(signatures(&records, y), want);
        }
    }

    /// The records of `records` in buffer order, as owned signatures.
    fn signatures(records: &Records, y: usize) -> Vec<(Vec<i64>, u64, NodeId)> {
        fn read<A: Aggs>(v: &[Rec<A>], flat: &[i64], y: usize) -> Vec<(Vec<i64>, u64, NodeId)> {
            v.iter().map(|r| (r.0.get(flat, y).to_vec(), r.1, r.2)).collect()
        }
        match records {
            Records::K2(v) => read(v, &[], y),
            Records::K4(v) => read(v, &[], y),
            Records::Wide(flat, v) => read(v, flat, y),
        }
    }

    /// A flush large enough to split across threads writes what the
    /// one-thread flush writes, CAT groups and `AGGREGATES` order included.
    #[test]
    fn threaded_flush_writes_what_serial_flush_writes() {
        let n = 3 * SORT_GRAIN as u64;
        let run = |y: usize, threads: usize| {
            let mut sink = MemSink::new(y);
            let mut pool = SignaturePool::new(y, n as usize, CatFormatPolicy::Auto);
            for i in 0..n {
                let aggs: Vec<i64> = (0..y as i64).map(|m| ((i * 7919) % 97) as i64 + m).collect();
                pool.push(&mut sink, &aggs, (i * 31) % 1_000, i % 5).unwrap();
            }
            pool.flush_on(&mut sink, threads).unwrap();
            (sink.nts, sink.cats, sink.aggregates, pool.decision_state())
        };
        for y in [2, 3, 5] {
            let serial = run(y, 1);
            for threads in [2, 3, 4] {
                assert!(run(y, threads) == serial, "y = {y}, {threads} threads");
            }
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

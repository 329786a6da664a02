//! Property-based tests for the storage engine's invariants.

use std::cmp::Ordering;

use cure_storage::sort::{ExternalSorter, RowCmp};
use cure_storage::{
    BitmapIndex, Catalog, ColType, Column, HeapFile, Page, Schema, SharedBufferCache, StorageError,
    Value,
};
use proptest::prelude::*;

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("cure_prop_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bitmap: build → serialize → deserialize → iterate is the identity
    /// on any sorted, deduped row-id set.
    #[test]
    fn bitmap_roundtrip(ids in proptest::collection::btree_set(0u64..1_000_000, 0..300)) {
        let sorted: Vec<u64> = ids.into_iter().collect();
        let bm = BitmapIndex::from_sorted(&sorted);
        prop_assert_eq!(bm.count(), sorted.len() as u64);
        let rt = BitmapIndex::from_bytes(&bm.to_bytes()).unwrap();
        let decoded: Vec<u64> = rt.iter().collect();
        prop_assert_eq!(&decoded, &sorted);
        // Membership agrees with the set for probes around the members.
        for &id in sorted.iter().take(20) {
            prop_assert!(rt.contains(id));
            if id > 0 && !sorted.contains(&(id - 1)) {
                prop_assert!(!rt.contains(id - 1));
            }
        }
    }

    /// Bitmap compression never exceeds ~10 bytes per run and beats the
    /// raw 8-byte-per-id encoding on dense runs.
    #[test]
    fn bitmap_dense_compresses(start in 0u64..1000, len in 64u64..4096) {
        let ids: Vec<u64> = (start..start + len).collect();
        let bm = BitmapIndex::from_sorted(&ids);
        prop_assert!(bm.size_bytes() < 16, "one run should stay tiny, got {}", bm.size_bytes());
        prop_assert!(bm.size_bytes() < ids.len() * 8);
    }

    /// Heap files: whatever sequence of rows is appended comes back
    /// identically via scan and via random fetch.
    #[test]
    fn heap_append_fetch(rows in proptest::collection::vec((any::<u32>(), any::<i64>()), 1..400)) {
        let path = tmp("heap").join(format!("t{}.heap", rows.len()));
        let schema = Schema::new(vec![
            Column::new("k", ColType::U32),
            Column::new("v", ColType::I64),
        ]);
        let mut hf = HeapFile::create(&path, schema).unwrap();
        for &(k, v) in &rows {
            hf.append(&[Value::U32(k), Value::I64(v)]).unwrap();
        }
        prop_assert_eq!(hf.num_rows(), rows.len() as u64);
        // Sequential scan order.
        let mut i = 0usize;
        hf.for_each_row(|rowid, raw| {
            assert_eq!(rowid as usize, i);
            assert_eq!(Schema::read_u32_at(raw, 0), rows[i].0);
            assert_eq!(Schema::read_i64_at(raw, 4), rows[i].1);
            i += 1;
        }).unwrap();
        prop_assert_eq!(i, rows.len());
        // Random fetches.
        for probe in [0, rows.len() / 2, rows.len() - 1] {
            let vals = hf.fetch_values(probe as u64).unwrap();
            prop_assert_eq!(vals[0], Value::U32(rows[probe].0));
            prop_assert_eq!(vals[1], Value::I64(rows[probe].1));
        }
    }

    /// The batched gather returns exactly what per-row `fetch_shared`
    /// does, in input order, for any row-id vector (duplicates, tail
    /// rows, any order) and any cache size, and it looks each distinct
    /// sealed page up exactly once.
    #[test]
    fn gather_matches_per_row_fetch(
        total in 1u64..3_000,
        picks in proptest::collection::vec(any::<u64>(), 0..300),
        capacity in 0usize..4,
        shards in 1usize..4,
    ) {
        let path = tmp("gather").join("g.heap");
        let schema = Schema::new(vec![
            Column::new("k", ColType::U32),
            Column::new("v", ColType::I64),
        ]);
        let mut hf = HeapFile::create(&path, schema.clone()).unwrap();
        for i in 0..total {
            hf.append(&[Value::U32(i as u32), Value::I64(-(i as i64))]).unwrap();
        }
        hf.flush().unwrap();
        // Reopened, a partial last page is the in-memory tail and every
        // full page is sealed.
        let hf = HeapFile::open(&path, schema).unwrap();
        let rowids: Vec<u64> = picks.iter().map(|p| p % total).collect();
        let w = hf.schema().row_width();
        let cache = SharedBufferCache::new(capacity, shards);
        let mut out = vec![0u8; rowids.len() * w];
        hf.gather_shared(&rowids, &cache, &mut out, |_| Ok::<(), StorageError>(())).unwrap();
        let per_row = SharedBufferCache::new(capacity, shards);
        let mut expect = vec![0u8; w];
        for (i, &rowid) in rowids.iter().enumerate() {
            hf.fetch_shared(rowid, &per_row, &mut expect).unwrap();
            prop_assert_eq!(&out[i * w..(i + 1) * w], &expect[..], "row {} (id {})", i, rowid);
        }
        let rpp = hf.rows_per_page() as u64;
        let sealed = total / rpp;
        let mut pages: Vec<u64> =
            rowids.iter().map(|r| r / rpp).filter(|&p| p < sealed).collect();
        pages.sort_unstable();
        pages.dedup();
        prop_assert_eq!(cache.hits() + cache.misses(), pages.len() as u64);
    }

    /// External sorter output equals std sort for any input and any
    /// (possibly tiny, spill-forcing) memory budget.
    #[test]
    fn external_sort_matches_std(
        mut vals in proptest::collection::vec(any::<u64>(), 0..500),
        budget in 8usize..4096,
    ) {
        let cmp: &RowCmp = &|a: &[u8], b: &[u8]| -> Ordering {
            u64::from_le_bytes(a.try_into().unwrap()).cmp(&u64::from_le_bytes(b.try_into().unwrap()))
        };
        let dir = tmp("sorter").join(format!("s{}_{budget}", vals.len()));
        let mut sorter = ExternalSorter::new(8, budget, dir, cmp).unwrap();
        for v in &vals {
            sorter.push(&v.to_le_bytes()).unwrap();
        }
        let got: Vec<u64> = sorter
            .finish().unwrap()
            .collect_all().unwrap()
            .into_iter()
            .map(|r| u64::from_le_bytes(r[..8].try_into().unwrap()))
            .collect();
        vals.sort_unstable();
        prop_assert_eq!(got, vals);
    }

    /// Pages hold exactly `capacity(w)` rows of width `w` and return them
    /// verbatim.
    #[test]
    fn page_roundtrip(w in 1usize..512, fill in 0usize..64) {
        let cap = Page::capacity(w);
        let n = fill.min(cap);
        let mut p = Page::new();
        for i in 0..n {
            let row = vec![(i % 251) as u8; w];
            prop_assert!(p.push_row(&row));
        }
        prop_assert_eq!(p.nrows(), n);
        for i in 0..n {
            prop_assert_eq!(p.row(w, i)[0], (i % 251) as u8);
        }
    }

    /// Catalog metadata roundtrips arbitrary schemas.
    #[test]
    fn catalog_schema_roundtrip(cols in proptest::collection::vec(0u8..4, 1..12)) {
        let dir = tmp("catalog").join(format!("c{}", cols.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(&dir).unwrap();
        let schema = Schema::new(
            cols.iter()
                .enumerate()
                .map(|(i, &t)| {
                    let ty = match t {
                        0 => ColType::U32,
                        1 => ColType::U64,
                        2 => ColType::I64,
                        _ => ColType::F64,
                    };
                    Column::new(format!("c{i}"), ty)
                })
                .collect(),
        );
        catalog.create_relation("r", schema.clone()).unwrap();
        let opened = catalog.open_relation("r").unwrap();
        prop_assert_eq!(opened.schema(), &schema);
    }
}

/// Fault-injection property tests: run with
/// `cargo test -p cure-storage --features fault-injection`.
///
/// The durability contract under test: rows acknowledged by a successful
/// `flush` + `sync` pair survive a crash at *any* later write, in the
/// exact bytes they were written, after recovery with
/// [`HeapFile::repair_to_rows`]. A plain re-`open` must also always
/// succeed (auto-repairing the torn tail) and never resurrect rows that
/// were never appended.
#[cfg(feature = "fault-injection")]
mod fault_injection {
    use std::sync::Arc;

    use cure_storage::io::{FaultInjector, FaultKind, IoPolicy, NoFaults};
    use cure_storage::{ColType, Column, HeapFile, Schema};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("k", ColType::U32), Column::new("v", ColType::I64)])
    }

    fn row_bytes(i: u64) -> Vec<u8> {
        let mut row = vec![0u8; 12];
        row[..4].copy_from_slice(&(i as u32).to_le_bytes());
        row[4..].copy_from_slice(&((i as i64).wrapping_mul(31) - 7).to_le_bytes());
        row
    }

    fn fresh_path(tag: &str) -> std::path::PathBuf {
        super::tmp("faults").join(format!("{tag}.heap"))
    }

    fn kind_from(sel: u8) -> FaultKind {
        match sel % 3 {
            0 => FaultKind::Error,
            1 => FaultKind::Enospc,
            _ => FaultKind::Torn,
        }
    }

    /// Run `batches` of appends, flush+sync after each batch, under the
    /// given injector. Returns (rows durably acknowledged — i.e. the count
    /// at the last fully successful flush+sync — , rows appended).
    fn run_schedule(
        path: &std::path::Path,
        batches: &[u16],
        injector: Arc<FaultInjector>,
    ) -> (u64, u64) {
        let mut heap = match HeapFile::create_with_policy(
            path,
            schema(),
            injector.clone() as Arc<dyn IoPolicy>,
        ) {
            Ok(h) => h,
            Err(_) => return (0, 0),
        };
        let mut appended = 0u64;
        let mut durable = 0u64;
        for &n in batches {
            for _ in 0..n {
                heap.append_raw(&row_bytes(appended)).unwrap();
                appended += 1;
            }
            if heap.flush().is_err() || heap.sync().is_err() {
                return (durable, appended);
            }
            durable = appended;
        }
        (durable, appended)
    }

    fn assert_rows_intact(heap: &HeapFile, rows: u64) {
        assert_eq!(heap.num_rows(), rows);
        let mut seen = 0u64;
        heap.for_each_row(|rowid, bytes| {
            assert_eq!(rowid, seen);
            assert_eq!(bytes, &row_bytes(seen)[..], "row {seen} corrupted");
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, rows);
    }

    /// A bit flipped in a page image on its way in surfaces from the
    /// batched gather as a typed `CorruptPage` — never as wrong rows —
    /// and the damaged image is not cached, so the next gather reads the
    /// page again and serves it clean.
    #[test]
    fn gather_surfaces_a_flipped_bit_as_corrupt_page() {
        use cure_storage::io::ReadFaultKind;
        use cure_storage::{SharedBufferCache, StorageError};

        let path = fresh_path("gather_flip");
        let mut heap = HeapFile::create(&path, schema()).unwrap();
        let rpp = heap.rows_per_page() as u64;
        for i in 0..rpp * 2 + 5 {
            heap.append_raw(&row_bytes(i)).unwrap();
        }
        heap.flush().unwrap();
        drop(heap);
        let counting = Arc::new(FaultInjector::counting());
        drop(HeapFile::open_with_policy(&path, schema(), counting.clone()).unwrap());
        // Flip a bit in the first page read after open: the gather reads
        // page 0 first, whatever the input order.
        let policy =
            Arc::new(FaultInjector::fail_nth_read(counting.reads(), ReadFaultKind::FlipBit));
        let heap = HeapFile::open_with_policy(&path, schema(), policy).unwrap();
        let rowids = [rpp + 3, 2, rpp * 2 + 1, 0];
        let cache = SharedBufferCache::new(8, 2);
        let mut out = vec![0u8; rowids.len() * 12];
        let err = heap
            .gather_shared(&rowids, &cache, &mut out, |_| Ok::<(), StorageError>(()))
            .unwrap_err();
        assert!(matches!(err, StorageError::CorruptPage { page: 0, .. }), "got {err:?}");
        let shard_misses: u64 = cache.shard_stats().iter().map(|s| s.misses).sum();
        assert_eq!((cache.misses(), shard_misses), (1, 1));
        heap.gather_shared(&rowids, &cache, &mut out, |_| Ok::<(), StorageError>(())).unwrap();
        for (i, &rowid) in rowids.iter().enumerate() {
            assert_eq!(&out[i * 12..(i + 1) * 12], &row_bytes(rowid)[..], "row {rowid}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Crash at a random write under a random fault kind: every row
        /// acknowledged durable before the crash survives
        /// `repair_to_rows` byte-for-byte, and the repaired file opens
        /// clean (no tail repair).
        #[test]
        fn durable_rows_survive_any_crash(
            batches in proptest::collection::vec(1u16..120, 1..8),
            k in 0u64..40,
            kind_sel in 0u8..3,
            torn_keep in 0usize..8192,
        ) {
            let path = fresh_path(&format!("crash_{k}_{kind_sel}_{torn_keep}"));
            let kind = kind_from(kind_sel);
            let mut inj = FaultInjector::fail_nth_write(k, kind).sticky();
            if matches!(kind, FaultKind::Torn) {
                inj = inj.torn_keep(torn_keep);
            }
            let inj = Arc::new(inj);
            let (durable, _) = run_schedule(&path, &batches, inj.clone());
            if !inj.fired() { return Ok(()); } // k past the schedule's writes: nothing to test

            HeapFile::repair_to_rows(&path, &schema(), durable, &NoFaults).unwrap();
            let (heap, repair) = HeapFile::open_report(&path, schema()).unwrap();
            prop_assert!(repair.is_none(), "repair_to_rows left a torn tail: {:?}", repair);
            assert_rows_intact(&heap, durable);
        }

        /// A plain re-open after a crash must succeed on its own
        /// (auto-repairing the tail) and must never invent rows past what
        /// was appended; every surviving row holds the bytes written for
        /// it.
        #[test]
        fn reopen_after_crash_never_resurrects_rows(
            batches in proptest::collection::vec(1u16..120, 1..8),
            k in 0u64..40,
            kind_sel in 0u8..3,
            torn_keep in 0usize..8192,
        ) {
            let path = fresh_path(&format!("reopen_{k}_{kind_sel}_{torn_keep}"));
            let kind = kind_from(kind_sel);
            let mut inj = FaultInjector::fail_nth_write(k, kind).sticky();
            if matches!(kind, FaultKind::Torn) {
                inj = inj.torn_keep(torn_keep);
            }
            let inj = Arc::new(inj);
            let (_, appended) = run_schedule(&path, &batches, inj.clone());
            if !inj.fired() { return Ok(()); } // k past the schedule's writes: nothing to test

            let (heap, _) = HeapFile::open_report(&path, schema()).unwrap();
            let survived = heap.num_rows();
            prop_assert!(survived <= appended, "{} rows from {} appended", survived, appended);
            assert_rows_intact(&heap, survived);
        }

        /// Transient (EINTR-class) faults are absorbed by the bounded
        /// retry layer: the schedule completes exactly as if fault-free.
        #[test]
        fn transient_faults_are_invisible(
            batches in proptest::collection::vec(1u16..120, 1..8),
            k in 0u64..40,
            failures in 1u32..3,
        ) {
            let path = fresh_path(&format!("transient_{k}_{failures}"));
            let inj = Arc::new(FaultInjector::fail_nth_write(
                k,
                FaultKind::Transient { failures },
            ));
            let (durable, appended) = run_schedule(&path, &batches, inj.clone());
            prop_assert_eq!(durable, appended);
            let (heap, repair) = HeapFile::open_report(&path, schema()).unwrap();
            prop_assert!(repair.is_none());
            assert_rows_intact(&heap, appended);
        }
    }
}

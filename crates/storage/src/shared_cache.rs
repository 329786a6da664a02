//! Thread-safe sharded LRU page cache.
//!
//! The serving subsystem (`cure-serve`) answers queries from a pool of
//! worker threads, all resolving R-rowid/A-rowid references against the
//! same two hot relations (§5.3: the original fact table and
//! `AGGREGATES`). A single mutex around one [`BufferCache`] would
//! serialize every page access; instead the [`SharedBufferCache`] splits
//! capacity across N independently locked shards, selected by a hash of
//! `(file_id, page_no)`. Shard locks are only held for the duration of a
//! page lookup plus copying the rows a caller needs from that page (one
//! row for `HeapFile::fetch_shared`, every requested row on the page for
//! `HeapFile::gather_shared`), so threads touching different shards
//! proceed in parallel.
//!
//! Hit/miss counters are additionally mirrored into lock-free atomics so
//! aggregate rates can be read without taking any shard lock (the
//! per-shard counters behind each lock feed the shard-level breakdown in
//! serve metrics).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::cache::BufferCache;
use crate::error::Result;
use crate::page::Page;

/// A fixed-capacity, thread-safe page cache: N mutex-protected
/// [`BufferCache`] shards plus global atomic hit/miss counters.
pub struct SharedBufferCache {
    shards: Vec<Mutex<BufferCache>>,
    /// Bit mask selecting a shard (shard count is a power of two).
    mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Point-in-time counters for one shard of a [`SharedBufferCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Cache hits recorded by this shard.
    pub hits: u64,
    /// Cache misses recorded by this shard.
    pub misses: u64,
    /// Pages currently resident in this shard.
    pub len: usize,
}

impl SharedBufferCache {
    /// Create a cache of `total_capacity` pages spread over `shards`
    /// shards. The shard count is rounded up to a power of two (minimum
    /// 1). The page budget is distributed *exactly*: every shard gets
    /// `total_capacity / n` pages and the remainder is spread one page
    /// each across the leading shards, so the summed capacity always
    /// equals `total_capacity` — never rounded up (which would overrun
    /// the memory budget) and never truncated (which would silently
    /// shrink the cache under test).
    pub fn new(total_capacity: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let (base, rem) = (total_capacity / n, total_capacity % n);
        SharedBufferCache {
            shards: (0..n)
                .map(|i| Mutex::new(BufferCache::new(base + usize::from(i < rem))))
                .collect(),
            mask: n as u64 - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total configured capacity in pages (sum over shards).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity()).sum()
    }

    fn shard_for(&self, file_id: u64, page_no: u64) -> &Mutex<BufferCache> {
        // Fibonacci-style mix of both key halves so consecutive pages of
        // one file spread across shards instead of hammering one lock.
        let h = (file_id ^ page_no.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[((h >> 32) & self.mask) as usize]
    }

    /// Run `f` on the page `(file_id, page_no)`, loading it via `load` on
    /// a miss. The owning shard's lock is held while `f` runs, so keep
    /// `f` to row copies.
    ///
    /// The global counters mirror the shard's exactly: a miss whose
    /// `load` fails still counts as one miss in both.
    pub fn with_page_or_load<T>(
        &self,
        file_id: u64,
        page_no: u64,
        load: impl FnOnce() -> Result<Page>,
        f: impl FnOnce(&Page) -> T,
    ) -> Result<T> {
        let mut shard = self.shard_for(file_id, page_no).lock();
        let before_hits = shard.hits();
        let out = shard.get_or_load(file_id, page_no, load).map(f);
        if shard.hits() > before_hits {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Evict one page from the cache, if resident. Returns whether an
    /// entry was dropped. Used by repair hooks so a page re-verified from
    /// disk is not shadowed by a stale (possibly corrupt) cached copy.
    pub fn evict(&self, file_id: u64, page_no: u64) -> bool {
        self.shard_for(file_id, page_no).lock().remove((file_id, page_no))
    }

    /// Total cache hits across all shards since the last reset.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total cache misses across all shards since the last reset.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of accesses served from the cache; 0.0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Per-shard counters, for shard-level hit-rate reporting.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock();
                ShardStats { hits: shard.hits(), misses: shard.misses(), len: shard.len() }
            })
            .collect()
    }

    /// Zero all counters (global and per-shard); cached pages are kept.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        for s in &self.shards {
            s.lock().reset_stats();
        }
    }

    /// Drop every cached page and zero all counters.
    pub fn clear(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        for s in &self.shards {
            s.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn page_with_marker(marker: u8) -> Page {
        let mut p = Page::new();
        p.push_row(&[marker; 8]);
        p
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(SharedBufferCache::new(64, 1).num_shards(), 1);
        assert_eq!(SharedBufferCache::new(64, 5).num_shards(), 8);
        assert_eq!(SharedBufferCache::new(64, 8).num_shards(), 8);
        assert_eq!(SharedBufferCache::new(64, 0).num_shards(), 1);
    }

    #[test]
    fn capacity_never_exceeds_the_requested_budget() {
        // Regression: `new(4, 6)` used to allocate max(4/8, 1) = 1 page ×
        // 8 shards = 8 pages (2× the budget) and `new(100, 8)` allocated
        // 12 × 8 = 96 (silently truncating 4). The budget must now be met
        // exactly for any (capacity, shards) combination.
        for capacity in [0usize, 1, 3, 4, 7, 16, 100, 1000, 1024] {
            for shards in [0usize, 1, 2, 3, 5, 6, 8, 16] {
                let cache = SharedBufferCache::new(capacity, shards);
                assert_eq!(
                    cache.capacity(),
                    capacity,
                    "new({capacity}, {shards}) allocated {} pages",
                    cache.capacity()
                );
            }
        }
    }

    #[test]
    fn remainder_pages_go_to_leading_shards() {
        // 100 pages over 8 shards: shards 0..4 get 13, shards 4..8 get 12.
        let cache = SharedBufferCache::new(100, 8);
        assert_eq!(cache.num_shards(), 8);
        assert_eq!(cache.capacity(), 100);
        let caps: Vec<usize> = cache.shards.iter().map(|s| s.lock().capacity()).collect();
        assert_eq!(caps, vec![13, 13, 13, 13, 12, 12, 12, 12]);
        // 4 pages over 6→8 shards: four shards hold one page, four none.
        let tiny = SharedBufferCache::new(4, 6);
        let caps: Vec<usize> = tiny.shards.iter().map(|s| s.lock().capacity()).collect();
        assert_eq!(caps, vec![1, 1, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn hit_miss_accounting_matches_accesses() {
        let cache = SharedBufferCache::new(64, 4);
        for round in 0..3 {
            for p in 0..10u64 {
                cache
                    .with_page_or_load(
                        1,
                        p,
                        || Ok(page_with_marker(p as u8)),
                        |pg| {
                            assert_eq!(pg.row(8, 0)[0], p as u8);
                        },
                    )
                    .unwrap();
            }
            let _ = round;
        }
        assert_eq!(cache.misses(), 10);
        assert_eq!(cache.hits(), 20);
        assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        let shard_totals: u64 = cache.shard_stats().iter().map(|s| s.hits + s.misses).sum();
        assert_eq!(shard_totals, 30);
    }

    #[test]
    fn failed_load_counts_one_miss_globally_and_per_shard() {
        let cache = SharedBufferCache::new(16, 4);
        let err = cache
            .with_page_or_load(
                1,
                3,
                || Err(crate::error::StorageError::Corrupt("injected".into())),
                |_| (),
            )
            .unwrap_err();
        assert!(matches!(err, crate::error::StorageError::Corrupt(_)));
        let shard_misses: u64 = cache.shard_stats().iter().map(|s| s.misses).sum();
        let shard_hits: u64 = cache.shard_stats().iter().map(|s| s.hits).sum();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!((shard_hits, shard_misses), (0, 1));
        // The failed page was not cached: the retry loads again.
        cache.with_page_or_load(1, 3, || Ok(page_with_marker(3)), |_| ()).unwrap();
        let shard_misses: u64 = cache.shard_stats().iter().map(|s| s.misses).sum();
        assert_eq!((cache.misses(), shard_misses), (2, 2));
    }

    #[test]
    fn zero_capacity_serves_without_retaining() {
        let cache = SharedBufferCache::new(0, 4);
        for _ in 0..2 {
            cache
                .with_page_or_load(
                    1,
                    0,
                    || Ok(page_with_marker(9)),
                    |pg| {
                        assert_eq!(pg.row(8, 0)[0], 9);
                    },
                )
                .unwrap();
        }
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn reset_and_clear() {
        let cache = SharedBufferCache::new(16, 2);
        cache.with_page_or_load(1, 0, || Ok(page_with_marker(1)), |_| ()).unwrap();
        cache.with_page_or_load(1, 0, || Ok(page_with_marker(1)), |_| ()).unwrap();
        assert_eq!(cache.hits() + cache.misses(), 2);
        cache.reset_stats();
        assert_eq!(cache.hits() + cache.misses(), 0);
        // Page still cached after reset_stats.
        cache.with_page_or_load(1, 0, || panic!("should be cached"), |_| ()).unwrap();
        assert_eq!(cache.hits(), 1);
        cache.clear();
        cache.with_page_or_load(1, 0, || Ok(page_with_marker(1)), |_| ()).unwrap();
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn evict_forces_a_reload() {
        let cache = SharedBufferCache::new(16, 2);
        cache.with_page_or_load(1, 0, || Ok(page_with_marker(1)), |_| ()).unwrap();
        assert!(cache.evict(1, 0));
        assert!(!cache.evict(1, 0), "already gone");
        let mut reloaded = false;
        cache
            .with_page_or_load(
                1,
                0,
                || {
                    reloaded = true;
                    Ok(page_with_marker(2))
                },
                |pg| assert_eq!(pg.row(8, 0)[0], 2),
            )
            .unwrap();
        assert!(reloaded, "evicted page must be loaded fresh");
    }

    #[test]
    fn concurrent_access_counts_are_exact() {
        let cache = Arc::new(SharedBufferCache::new(256, 8));
        let threads = 8;
        let per_thread = 1_000u64;
        let pages = 64u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let p = (i * 7 + t) % pages;
                        cache
                            .with_page_or_load(
                                3,
                                p,
                                || Ok(page_with_marker(p as u8)),
                                |pg| {
                                    assert_eq!(pg.row(8, 0)[0], p as u8);
                                },
                            )
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every access is exactly one hit or one miss.
        assert_eq!(cache.hits() + cache.misses(), threads * per_thread);
        // Capacity (256) exceeds the working set (64 pages), so after the
        // initial faults everything hits: at most one miss per (page,
        // racing thread) pair, in practice far fewer.
        assert!(cache.misses() < pages * threads);
        assert!(cache.hits() > 0);
    }
}

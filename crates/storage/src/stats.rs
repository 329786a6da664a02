//! Storage-level I/O counters: the bottom layer of the observability
//! spine.
//!
//! The paper's evaluation (§7) argues CURE's advantage in terms of I/O
//! behaviour — pages moved, spill volume, external-sort passes — so the
//! reproduction counts exactly those quantities. One [`StorageStats`]
//! registry hangs off each [`Catalog`](crate::Catalog) and is shared (via
//! `Arc`) by every [`HeapFile`](crate::HeapFile) the catalog opens and by
//! any [`ExternalSorter`](crate::sort::ExternalSorter) attached to it.
//!
//! Hot paths touch nothing but relaxed atomics — no locks, no branches
//! beyond the increment — so the counters are *always on*: a build with
//! `--stats` and one without execute the same instructions apart from the
//! final snapshot serialization, which happens outside any timed region.
//! Counters are registry-scoped, not process-global, so concurrent tests
//! (and concurrent cubes) never observe each other's traffic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic I/O counters for one catalog's storage traffic.
#[derive(Debug, Default)]
pub struct StorageStats {
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    fsyncs: AtomicU64,
    write_retries: AtomicU64,
    read_retries: AtomicU64,
    checksum_verifications: AtomicU64,
    checksum_failures: AtomicU64,
    sort_runs: AtomicU64,
    sort_spill_bytes: AtomicU64,
}

/// A plain point-in-time copy of a [`StorageStats`] registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounters {
    /// Heap pages read from disk (cache misses included, cache hits not).
    pub pages_read: u64,
    /// Heap pages written to disk.
    pub pages_written: u64,
    /// fsync calls issued on heap files.
    pub fsyncs: u64,
    /// Extra write attempts consumed retrying transient I/O faults.
    pub write_retries: u64,
    /// Extra read attempts consumed retrying transient I/O faults.
    pub read_retries: u64,
    /// Page checksum verifications performed on read.
    pub checksum_verifications: u64,
    /// Page checksum verifications that failed (corrupt pages detected).
    pub checksum_failures: u64,
    /// Sorted runs spilled by external sorters.
    pub sort_runs: u64,
    /// Bytes spilled to external-sort run files.
    pub sort_spill_bytes: u64,
}

impl StorageStats {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one heap page read from disk.
    #[inline]
    pub fn count_page_read(&self) {
        self.pages_read.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` pages read from disk in one call (a segment extent).
    #[inline]
    pub fn count_pages_read(&self, n: u64) {
        self.pages_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` pages written to disk in one call (a segment extent).
    #[inline]
    pub fn count_pages_written(&self, n: u64) {
        self.pages_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one heap page written to disk.
    #[inline]
    pub fn count_page_written(&self) {
        self.pages_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one fsync.
    #[inline]
    pub fn count_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` extra write attempts spent on transient-fault retries.
    #[inline]
    pub fn count_write_retries(&self, n: u64) {
        if n > 0 {
            self.write_retries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count `n` extra read attempts spent on transient-fault retries.
    #[inline]
    pub fn count_read_retries(&self, n: u64) {
        if n > 0 {
            self.read_retries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count one page checksum verification.
    #[inline]
    pub fn count_checksum_verification(&self) {
        self.checksum_verifications.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one failed page checksum verification.
    #[inline]
    pub fn count_checksum_failure(&self) {
        self.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one spilled external-sort run of `bytes` bytes.
    #[inline]
    pub fn count_sort_spill(&self, bytes: u64) {
        self.sort_runs.fetch_add(1, Ordering::Relaxed);
        self.sort_spill_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Heap pages read from disk.
    pub fn pages_read(&self) -> u64 {
        self.pages_read.load(Ordering::Relaxed)
    }

    /// Heap pages written to disk.
    pub fn pages_written(&self) -> u64 {
        self.pages_written.load(Ordering::Relaxed)
    }

    /// fsync calls issued.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Extra write attempts consumed by transient-fault retries.
    pub fn write_retries(&self) -> u64 {
        self.write_retries.load(Ordering::Relaxed)
    }

    /// Extra read attempts consumed by transient-fault retries.
    pub fn read_retries(&self) -> u64 {
        self.read_retries.load(Ordering::Relaxed)
    }

    /// Page checksum verifications performed.
    pub fn checksum_verifications(&self) -> u64 {
        self.checksum_verifications.load(Ordering::Relaxed)
    }

    /// Failed page checksum verifications.
    pub fn checksum_failures(&self) -> u64 {
        self.checksum_failures.load(Ordering::Relaxed)
    }

    /// Sorted runs spilled by external sorters.
    pub fn sort_runs(&self) -> u64 {
        self.sort_runs.load(Ordering::Relaxed)
    }

    /// Bytes spilled to external-sort run files.
    pub fn sort_spill_bytes(&self) -> u64 {
        self.sort_spill_bytes.load(Ordering::Relaxed)
    }

    /// A plain copy of every counter.
    pub fn snapshot(&self) -> StorageCounters {
        StorageCounters {
            pages_read: self.pages_read(),
            pages_written: self.pages_written(),
            fsyncs: self.fsyncs(),
            write_retries: self.write_retries(),
            read_retries: self.read_retries(),
            checksum_verifications: self.checksum_verifications(),
            checksum_failures: self.checksum_failures(),
            sort_runs: self.sort_runs(),
            sort_spill_bytes: self.sort_spill_bytes(),
        }
    }

    /// Zero every counter.
    pub fn reset(&self) {
        self.pages_read.store(0, Ordering::Relaxed);
        self.pages_written.store(0, Ordering::Relaxed);
        self.fsyncs.store(0, Ordering::Relaxed);
        self.write_retries.store(0, Ordering::Relaxed);
        self.read_retries.store(0, Ordering::Relaxed);
        self.checksum_verifications.store(0, Ordering::Relaxed);
        self.checksum_failures.store(0, Ordering::Relaxed);
        self.sort_runs.store(0, Ordering::Relaxed);
        self.sort_spill_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = StorageStats::new();
        s.count_page_read();
        s.count_page_read();
        s.count_page_written();
        s.count_fsync();
        s.count_write_retries(3);
        s.count_write_retries(0); // no-op
        s.count_read_retries(2);
        s.count_read_retries(0); // no-op
        s.count_checksum_verification();
        s.count_checksum_verification();
        s.count_checksum_failure();
        s.count_sort_spill(4096);
        s.count_sort_spill(1024);
        let snap = s.snapshot();
        assert_eq!(
            snap,
            StorageCounters {
                pages_read: 2,
                pages_written: 1,
                fsyncs: 1,
                write_retries: 3,
                read_retries: 2,
                checksum_verifications: 2,
                checksum_failures: 1,
                sort_runs: 2,
                sort_spill_bytes: 5120,
            }
        );
        s.reset();
        assert_eq!(s.snapshot(), StorageCounters::default());
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let s = Arc::new(StorageStats::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        s.count_page_read();
                        s.count_page_written();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.pages_read(), 8_000);
        assert_eq!(s.pages_written(), 8_000);
    }
}

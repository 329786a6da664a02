//! Lock-free serving metrics: query/row counters and a log₂-bucketed
//! latency histogram with quantile estimation.
//!
//! Worker threads record into atomics only — no locks on the query path —
//! so metrics collection does not perturb the concurrency behaviour it is
//! measuring. Quantiles are read from the histogram: bucket `i` counts
//! latencies in `[2^i, 2^(i+1))` nanoseconds, and a quantile reports the
//! geometric midpoint of the bucket containing it (≤ ~41% relative error
//! by construction, plenty for p50/p95/p99 latency reporting).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cure_query::CubeRow;

use crate::service::ServeError;

/// Number of log₂ buckets: covers 1 ns .. ~584 years.
const BUCKETS: usize = 64;

/// A concurrent histogram of durations in log₂ nanosecond buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    /// Smallest observation in nanos (`u64::MAX` when empty).
    min_nanos: AtomicU64,
    /// Largest observation in nanos (0 when empty).
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        // Bucket index = position of the highest set bit (0 ns → bucket 0).
        let idx = (64 - nanos.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) as a duration, or `None` if empty.
    ///
    /// Reports the geometric midpoint of the bucket containing the
    /// quantile rank, clamped to the observed min/max nanos — without
    /// the clamp, a population sitting entirely in bucket 0 (sub-2 ns
    /// mmap reads) or pinned at the saturated top bucket would report a
    /// midpoint no observation ever reached.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let lo = self.min_nanos.load(Ordering::Relaxed);
        let hi = self.max_nanos.load(Ordering::Relaxed);
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Geometric midpoint of [2^i, 2^(i+1)): 2^i * sqrt(2).
                let mid = (1u128 << i) as f64 * std::f64::consts::SQRT_2;
                let mid = (mid as u64).clamp(lo.min(hi), hi);
                return Some(Duration::from_nanos(mid));
            }
        }
        unreachable!("rank ≤ total implies a bucket is found");
    }

    /// Smallest recorded duration, or `None` if empty.
    pub fn min(&self) -> Option<Duration> {
        let v = self.min_nanos.load(Ordering::Relaxed);
        (v != u64::MAX).then(|| Duration::from_nanos(v))
    }

    /// Largest recorded duration, or `None` if empty.
    pub fn max(&self) -> Option<Duration> {
        (self.count() > 0).then(|| Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed)))
    }

    /// Per-bucket counts (index `i` covers `[2^i, 2^(i+1))` ns); trailing
    /// empty buckets trimmed. The histogram's property tests read it.
    #[cfg(test)]
    fn bucket_counts(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }

    /// Zero every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.min_nanos.store(u64::MAX, Ordering::Relaxed);
        self.max_nanos.store(0, Ordering::Relaxed);
    }
}

/// Failure classes the serving layer distinguishes. One query failure
/// increments exactly one typed counter (plus the `errors` total), so
/// operators can tell a saturated server (`Shed`) from a sick disk (`Io`)
/// from data damage (`Corrupt`) at a glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeErrorKind {
    /// Disk / filesystem failure reading cube pages.
    Io,
    /// A page failed its checksum or sanity checks (or is quarantined).
    Corrupt,
    /// The request's deadline passed before or during execution.
    Timeout,
    /// Dropped by admission control before any cube work ran.
    Shed,
    /// Rejected by an open circuit breaker (fast typed failure).
    Degraded,
    /// A socket peer spoke the wire protocol wrong (bad frame, bad CRC,
    /// unsupported version) — the payload was discarded, never trusted.
    Protocol,
    /// Anything else (schema/config errors and other query failures).
    Other,
}

/// Aggregate serving counters: queries, rows, typed error counters, and
/// the latency histogram.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    queries: AtomicU64,
    rows: AtomicU64,
    errors: AtomicU64,
    io_errors: AtomicU64,
    corrupt_errors: AtomicU64,
    timeouts: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    protocol_errors: AtomicU64,
    breaker_trips: AtomicU64,
    latency: LatencyHistogram,
    /// Latency-attribution samples: how many queries were sampled and
    /// where their time went.
    attr_samples: AtomicU64,
    attr_probe_ns: AtomicU64,
    attr_read_ns: AtomicU64,
    attr_compute_ns: AtomicU64,
}

/// One sampled query's latency attribution, aggregated into
/// [`ServeMetrics`]. Mirrors `cure_query::Attribution` without taking a
/// dependency edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttributionSample {
    /// Probe: node decode + source lookup.
    pub probe_ns: u64,
    /// Reads: scanning the node's sources, and fetching fact and
    /// `AGGREGATES` rows and decoding them into the answer.
    pub read_ns: u64,
    /// Everything else, chiefly allocating the answer's rows.
    pub compute_ns: u64,
}

/// Aggregated latency attribution across all sampled queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionTotals {
    /// Number of queries sampled.
    pub samples: u64,
    /// Total index-probe nanos across samples.
    pub probe_ns: u64,
    /// Total page-read nanos across samples.
    pub read_ns: u64,
    /// Total compute nanos across samples.
    pub compute_ns: u64,
}

impl ServeMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one answered query.
    pub fn record_query(&self, rows: usize, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Record one query's outcome — its row count and the time since
    /// `start`, or its error's kind — and hand the outcome back. The
    /// service, the router and the remote backend all record through
    /// this.
    pub(crate) fn record(
        &self,
        start: Instant,
        res: Result<Vec<CubeRow>, ServeError>,
    ) -> Result<Vec<CubeRow>, ServeError> {
        match &res {
            Ok(rows) => self.record_query(rows.len(), start.elapsed()),
            Err(e) => self.record_error_kind(e.kind()),
        }
        res
    }

    /// Record one failed query, classified.
    pub fn record_error_kind(&self, kind: ServeErrorKind) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        let typed = match kind {
            ServeErrorKind::Io => &self.io_errors,
            ServeErrorKind::Corrupt => &self.corrupt_errors,
            ServeErrorKind::Timeout => &self.timeouts,
            ServeErrorKind::Shed => &self.shed,
            ServeErrorKind::Degraded => &self.degraded,
            ServeErrorKind::Protocol => &self.protocol_errors,
            ServeErrorKind::Other => return,
        };
        typed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one circuit-breaker trip (closed → open transition).
    pub fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one sampled query's latency attribution.
    pub fn record_attribution(&self, a: AttributionSample) {
        self.attr_samples.fetch_add(1, Ordering::Relaxed);
        self.attr_probe_ns.fetch_add(a.probe_ns, Ordering::Relaxed);
        self.attr_read_ns.fetch_add(a.read_ns, Ordering::Relaxed);
        self.attr_compute_ns.fetch_add(a.compute_ns, Ordering::Relaxed);
    }

    /// Aggregated latency attribution across sampled queries.
    pub fn attribution(&self) -> AttributionTotals {
        AttributionTotals {
            samples: self.attr_samples.load(Ordering::Relaxed),
            probe_ns: self.attr_probe_ns.load(Ordering::Relaxed),
            read_ns: self.attr_read_ns.load(Ordering::Relaxed),
            compute_ns: self.attr_compute_ns.load(Ordering::Relaxed),
        }
    }

    /// Queries answered.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Rows returned in total.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Failed queries (all kinds).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Failed queries caused by disk I/O errors.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Failed queries caused by corrupt (or quarantined) pages.
    pub fn corrupt_errors(&self) -> u64 {
        self.corrupt_errors.load(Ordering::Relaxed)
    }

    /// Queries that exceeded their deadline.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Queries dropped by admission control.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Queries rejected by an open circuit breaker.
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Failed queries caused by wire-protocol violations.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Circuit-breaker trips (closed → open transitions).
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips.load(Ordering::Relaxed)
    }

    /// The latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Zero everything.
    pub fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.rows.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.io_errors.store(0, Ordering::Relaxed);
        self.corrupt_errors.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.degraded.store(0, Ordering::Relaxed);
        self.protocol_errors.store(0, Ordering::Relaxed);
        self.breaker_trips.store(0, Ordering::Relaxed);
        self.attr_samples.store(0, Ordering::Relaxed);
        self.attr_probe_ns.store(0, Ordering::Relaxed);
        self.attr_read_ns.store(0, Ordering::Relaxed);
        self.attr_compute_ns.store(0, Ordering::Relaxed);
        self.latency.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1)); // bucket 0
        h.record(Duration::from_nanos(3)); // bucket 1
        h.record(Duration::from_nanos(1024)); // bucket 10
        assert_eq!(h.count(), 3);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[10], 1);
    }

    #[test]
    fn quantiles_are_ordered_and_bracket_the_data() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        // p50 falls in the 32–64 µs bucket; p99 in the ~1 ms bucket.
        assert!(p50 >= Duration::from_micros(32) && p50 < Duration::from_micros(91));
        assert!(p99 >= Duration::from_micros(512));
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let h = LatencyHistogram::new();
        assert!(h.quantile(0.5).is_none());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn metrics_counters() {
        let m = ServeMetrics::new();
        m.record_query(10, Duration::from_micros(5));
        m.record_query(20, Duration::from_micros(7));
        m.record_error_kind(ServeErrorKind::Other);
        assert_eq!(m.queries(), 2);
        assert_eq!(m.rows(), 30);
        assert_eq!(m.errors(), 1);
        assert_eq!(m.latency().count(), 2);
        m.reset();
        assert_eq!(m.queries(), 0);
        assert_eq!(m.latency().count(), 0);
    }

    #[test]
    fn typed_error_counters_partition_the_total() {
        let m = ServeMetrics::new();
        m.record_error_kind(ServeErrorKind::Io);
        m.record_error_kind(ServeErrorKind::Io);
        m.record_error_kind(ServeErrorKind::Corrupt);
        m.record_error_kind(ServeErrorKind::Timeout);
        m.record_error_kind(ServeErrorKind::Shed);
        m.record_error_kind(ServeErrorKind::Degraded);
        m.record_error_kind(ServeErrorKind::Protocol);
        m.record_error_kind(ServeErrorKind::Other);
        assert_eq!(m.errors(), 8);
        assert_eq!(m.io_errors(), 2);
        assert_eq!(m.corrupt_errors(), 1);
        assert_eq!(m.timeouts(), 1);
        assert_eq!(m.shed(), 1);
        assert_eq!(m.degraded(), 1);
        assert_eq!(m.protocol_errors(), 1);
        // Typed counters + untyped remainder account for every error.
        let typed = m.io_errors()
            + m.corrupt_errors()
            + m.timeouts()
            + m.shed()
            + m.degraded()
            + m.protocol_errors();
        assert_eq!(m.errors() - typed, 1);
        m.record_breaker_trip();
        assert_eq!(m.breaker_trips(), 1);
        m.reset();
        assert_eq!(m.errors(), 0);
        assert_eq!(m.io_errors() + m.breaker_trips(), 0);
    }

    /// Cheap deterministic value stream for the property-style tests.
    fn xorshift_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.max(1);
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        // Property: for any recorded population, q ↦ quantile(q) is
        // non-decreasing (including the clamped q < 0 and q > 1 edges).
        let mut next = xorshift_stream(0xFEED);
        for round in 0..50 {
            let h = LatencyHistogram::new();
            let n = 1 + (round * 7) % 200;
            for _ in 0..n {
                // Spread over ~9 decades so many buckets get traffic.
                h.record(Duration::from_nanos(1 + next() % 1_000_000_000));
            }
            let qs = [-0.5, 0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0, 1.5];
            let vals: Vec<Duration> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
            for w in vals.windows(2) {
                assert!(w[0] <= w[1], "round {round}: quantiles not monotone: {vals:?}");
            }
        }
    }

    #[test]
    fn bucket_boundaries_land_in_their_bucket() {
        // Property: 2^i ns is the inclusive lower edge of bucket i and
        // 2^i - 1 ns falls in bucket i-1 (bucket i covers [2^i, 2^(i+1))).
        for i in 1..BUCKETS - 1 {
            let h = LatencyHistogram::new();
            let edge = 1u64 << i;
            h.record(Duration::from_nanos(edge));
            h.record(Duration::from_nanos(edge - 1));
            h.record(Duration::from_nanos(2 * edge - 1));
            let counts = h.bucket_counts();
            assert_eq!(counts[i], 2, "bucket {i} must hold 2^{i} and 2^({i}+1)-1");
            assert_eq!(counts[i - 1], 1, "bucket {} must hold 2^{i}-1", i - 1);
            // And the bucket's quantile estimate stays inside its range.
            let q = h.quantile(0.5).unwrap().as_nanos() as u64;
            assert!(q >= edge && q < 2 * edge, "midpoint {q} outside [2^{i}, 2^({i}+1))");
        }
        // 0 ns has no set bit; it is attributed to bucket 0 by definition.
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(0));
        assert_eq!(h.bucket_counts(), vec![1]);
    }

    #[test]
    fn bucket_counts_round_trip_count() {
        // Property: bucket_counts() always sums to count(), and trimming
        // only ever removes empty trailing buckets.
        let mut next = xorshift_stream(0xB0B);
        for round in 0..50 {
            let h = LatencyHistogram::new();
            let n = (round * 13) % 300;
            for _ in 0..n {
                h.record(Duration::from_nanos(next() % (1 << (1 + round % 40))));
            }
            let counts = h.bucket_counts();
            assert_eq!(counts.iter().sum::<u64>(), h.count(), "round {round}");
            assert!(counts.len() <= BUCKETS);
            if let Some(last) = counts.last() {
                assert!(*last > 0, "round {round}: trailing zero not trimmed");
            }
        }
    }

    #[test]
    fn single_bucket_quantiles_clamp_to_observed_range() {
        // Property: when every observation lands in one bucket, every
        // quantile must lie inside the *observed* [min, max] — not at the
        // bucket's geometric midpoint, which for bucket 0 (sub-2 ns mmap
        // reads) or a saturated top bucket no observation ever reached.
        let mut next = xorshift_stream(0xC1A);
        for round in 0..60 {
            let bucket = (round * 11) % BUCKETS;
            let lo_edge = 1u64 << bucket;
            let h = LatencyHistogram::new();
            let n = 1 + (round * 3) % 20;
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for _ in 0..n {
                // A value strictly inside bucket `bucket`.
                let span = lo_edge.max(1);
                let v = if bucket == 0 { next() % 2 } else { lo_edge + next() % span };
                lo = lo.min(v);
                hi = hi.max(v);
                h.record(Duration::from_nanos(v));
            }
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                let est = h.quantile(q).unwrap().as_nanos() as u64;
                assert!(
                    est >= lo && est <= hi,
                    "round {round} bucket {bucket}: q={q} estimate {est} outside [{lo}, {hi}]"
                );
            }
        }
        // Degenerate single-value population: the estimate IS the value.
        for v in [0u64, 1, 7, u64::MAX / 2] {
            let h = LatencyHistogram::new();
            h.record(Duration::from_nanos(v));
            assert_eq!(h.quantile(0.5).unwrap(), Duration::from_nanos(v));
            assert_eq!(h.min(), Some(Duration::from_nanos(v)));
            assert_eq!(h.max(), Some(Duration::from_nanos(v)));
        }
        // Reset clears the min/max clamp along with the buckets.
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(5));
        h.reset();
        assert!(h.min().is_none() && h.max().is_none());
        h.record(Duration::from_nanos(1_000));
        assert_eq!(h.min(), Some(Duration::from_nanos(1_000)));
    }

    #[test]
    fn attribution_samples_aggregate_and_reset() {
        let m = ServeMetrics::new();
        assert_eq!(m.attribution(), AttributionTotals::default());
        m.record_attribution(AttributionSample { probe_ns: 10, read_ns: 200, compute_ns: 40 });
        m.record_attribution(AttributionSample { probe_ns: 5, read_ns: 100, compute_ns: 10 });
        let a = m.attribution();
        assert_eq!(a.samples, 2);
        assert_eq!((a.probe_ns, a.read_ns, a.compute_ns), (15, 300, 50));
        m.reset();
        assert_eq!(m.attribution(), AttributionTotals::default());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let m = std::sync::Arc::new(ServeMetrics::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        m.record_query(1, Duration::from_nanos(100 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.queries(), 8_000);
        assert_eq!(m.latency().count(), 8_000);
    }
}

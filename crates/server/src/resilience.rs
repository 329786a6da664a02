//! Serve-path resilience state: the circuit breaker and the
//! corrupt-page quarantine set.
//!
//! Both are small shared structures consulted on every query (see
//! `CubeService::query`):
//!
//! * `Breaker` — a classic closed → open → half-open circuit breaker.
//!   Each `CubeService` owns one (guarding its fact relation) and each
//!   `RemoteShardBackend` owns one per endpoint. `N` *consecutive* I/O
//!   failures trip it; while open, queries fail fast with a typed
//!   `Degraded` error instead of hammering a sick disk or a dead socket.
//!   After a cooldown the breaker admits one probe (half-open) and one
//!   success closes it again.
//! * `QuarantineSet` — `(relation, page)` pairs that failed checksum
//!   or sanity verification. Queries consult it *before* fetching (via
//!   the [`PageQuarantine`] trait), turning repeat reads of a known-bad
//!   page into immediate typed failures with zero I/O. While it is empty
//!   — the normal case — the per-page check is one atomic load. Pages
//!   leave quarantine only through the repair hook, which re-verifies
//!   the page from disk.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cure_query::PageQuarantine;
use parking_lot::Mutex;

/// Tunables for a circuit breaker.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Consecutive I/O failures that trip the breaker. `0` disables
    /// circuit breaking entirely.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before admitting a
    /// half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        // 8 consecutive failures is comfortably past the storage layer's
        // own bounded retries (transient blips never reach 8); 250 ms
        // keeps recovery probes frequent enough for interactive serving.
        ResilienceConfig { breaker_threshold: 8, breaker_cooldown: Duration::from_millis(250) }
    }
}

/// Breaker states, reported by `CubeService::breaker_state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all traffic admitted.
    Closed,
    /// Tripped: traffic rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probe traffic admitted; one success closes,
    /// one I/O failure re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label for stats output.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    /// When an open breaker starts admitting probes.
    open_until: Instant,
    consecutive_failures: u32,
    /// A half-open probe is outstanding: further traffic is rejected
    /// until the probe resolves (or its TTL — one cooldown — elapses, in
    /// case the probe's caller never reported back).
    probe_inflight: bool,
    /// When the outstanding probe was admitted.
    probe_started: Instant,
}

/// One circuit breaker (see module docs).
#[derive(Debug)]
pub(crate) struct Breaker {
    cfg: ResilienceConfig,
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    /// A closed breaker.
    pub(crate) fn new(cfg: ResilienceConfig) -> Self {
        let now = Instant::now();
        Breaker {
            cfg,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                open_until: now,
                consecutive_failures: 0,
                probe_inflight: false,
                probe_started: now,
            }),
        }
    }

    /// Whether a query may proceed. An open breaker whose cooldown has
    /// elapsed transitions to half-open and admits the caller as its
    /// **single** probe; other callers keep getting rejected until the
    /// probe resolves (success, failure, or timeout) or one further
    /// cooldown passes without a verdict. Admitting the whole queue at
    /// half-open was harmless in-process, but against a merely *slow*
    /// socket it let a burst of probes all time out and flap the breaker
    /// open again.
    pub(crate) fn admit(&self) -> bool {
        if self.cfg.breaker_threshold == 0 {
            return true;
        }
        let mut b = self.inner.lock();
        let now = Instant::now();
        match b.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                if b.probe_inflight
                    && now.duration_since(b.probe_started) < self.cfg.breaker_cooldown
                {
                    false
                } else {
                    b.probe_inflight = true;
                    b.probe_started = now;
                    true
                }
            }
            BreakerState::Open => {
                if now >= b.open_until {
                    b.state = BreakerState::HalfOpen;
                    b.probe_inflight = true;
                    b.probe_started = now;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful query: resets the failure streak and closes a
    /// half-open breaker.
    pub(crate) fn record_success(&self) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let mut b = self.inner.lock();
        b.consecutive_failures = 0;
        b.probe_inflight = false;
        if b.state == BreakerState::HalfOpen {
            b.state = BreakerState::Closed;
        }
    }

    /// Record a *timeout*. A timeout means slow, not dead: it neither
    /// advances the consecutive-failure streak (a slow socket must not
    /// trip the breaker the way a refused connection does) nor re-opens
    /// a half-open breaker — it only resolves an outstanding probe so the
    /// next caller may probe again.
    pub(crate) fn record_timeout(&self) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        self.inner.lock().probe_inflight = false;
    }

    /// Record an I/O failure. Returns `true` when this failure *tripped*
    /// the breaker (a closed → open or half-open → open transition), so
    /// the caller can count trips.
    pub(crate) fn record_io_failure(&self) -> bool {
        if self.cfg.breaker_threshold == 0 {
            return false;
        }
        let mut b = self.inner.lock();
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        let trip = match b.state {
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => b.consecutive_failures >= self.cfg.breaker_threshold,
            BreakerState::Open => false,
        };
        if trip {
            b.state = BreakerState::Open;
            b.open_until = Instant::now() + self.cfg.breaker_cooldown;
        }
        b.probe_inflight = false;
        trip
    }

    /// Current state. Reported without mutating: an elapsed cooldown
    /// still reads `Open` until traffic actually probes it.
    pub(crate) fn state(&self) -> BreakerState {
        self.inner.lock().state
    }
}

/// The corrupt-page quarantine: `(relation, page)` pairs that failed
/// verification, consulted before every guarded fetch.
#[derive(Debug, Default)]
pub(crate) struct QuarantineSet {
    /// Quarantined pages, kept in step with `pages` under its lock and
    /// read without it, so checking a page against an empty set is one
    /// atomic load.
    len: AtomicUsize,
    /// Quarantined page numbers per relation. Keyed by the relation's
    /// name so a lookup borrows the caller's `&str` instead of building
    /// a key.
    pages: Mutex<HashMap<String, BTreeSet<u64>>>,
}

impl QuarantineSet {
    /// Add a page; returns `false` if it was already quarantined.
    pub(crate) fn insert(&self, relation: &str, page: u64) -> bool {
        let mut map = self.pages.lock();
        let added = match map.get_mut(relation) {
            Some(pages) => pages.insert(page),
            None => {
                map.insert(relation.to_string(), BTreeSet::from([page]));
                true
            }
        };
        if added {
            self.len.fetch_add(1, Ordering::Release);
        }
        added
    }

    /// Release a page (after successful repair); returns whether it was
    /// present.
    pub(crate) fn remove(&self, relation: &str, page: u64) -> bool {
        let mut map = self.pages.lock();
        let Some(pages) = map.get_mut(relation) else {
            return false;
        };
        let removed = pages.remove(&page);
        if pages.is_empty() {
            map.remove(relation);
        }
        if removed {
            self.len.fetch_sub(1, Ordering::Release);
        }
        removed
    }

    /// Whether a page is currently quarantined.
    pub(crate) fn contains(&self, relation: &str, page: u64) -> bool {
        if self.len.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.pages.lock().get(relation).is_some_and(|pages| pages.contains(&page))
    }

    /// Number of quarantined pages.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Snapshot of the quarantined pages (sorted, for stable output).
    pub(crate) fn entries(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .pages
            .lock()
            .iter()
            .flat_map(|(rel, pages)| pages.iter().map(move |&p| (rel.clone(), p)))
            .collect();
        v.sort();
        v
    }
}

impl PageQuarantine for QuarantineSet {
    fn is_quarantined(&self, relation: &str, page: u64) -> bool {
        self.contains(relation, page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Breaker {
        Breaker::new(ResilienceConfig {
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(20),
        })
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_only() {
        let b = fast();
        assert!(!b.record_io_failure());
        assert!(!b.record_io_failure());
        // A success in between resets the streak.
        b.record_success();
        assert!(!b.record_io_failure());
        assert!(!b.record_io_failure());
        assert!(b.record_io_failure(), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "open breaker rejects");
        // Another breaker is unaffected.
        let other = fast();
        assert!(other.admit());
        assert_eq!(other.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_recovers_through_half_open() {
        let b = fast();
        for _ in 0..3 {
            b.record_io_failure();
        }
        assert!(!b.admit());
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit(), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe re-opens at once (single failure, not N).
        assert!(b.record_io_failure());
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn zero_threshold_disables_breaking() {
        let b = Breaker::new(ResilienceConfig {
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(1),
        });
        for _ in 0..100 {
            assert!(!b.record_io_failure());
        }
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn timeouts_do_not_flap_the_breaker() {
        // Satellite regression: a slow responder (timeouts) must never
        // trip a closed breaker, no matter how many in a row …
        let b = fast();
        for _ in 0..50 {
            b.record_timeout();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
        // … and a slow probe must not re-open a half-open breaker the
        // way a hard failure does.
        for _ in 0..3 {
            b.record_io_failure();
        }
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit(), "probe admitted after cooldown");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_timeout();
        assert_eq!(b.state(), BreakerState::HalfOpen, "slow probe keeps half-open");
        // The timeout resolved the probe, so the next caller probes at
        // once instead of waiting out the probe TTL.
        assert!(b.admit());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_a_single_probe() {
        let b = fast();
        for _ in 0..3 {
            b.record_io_failure();
        }
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit(), "first caller becomes the probe");
        // While the probe is outstanding, the rest of the burst is
        // rejected instead of stampeding a maybe-slow backend.
        assert!(!b.admit());
        assert!(!b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The probe resolving (success) closes and re-admits everyone.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn lost_probe_expires_after_one_cooldown() {
        // A probe whose caller dies without reporting back must not
        // wedge the breaker half-open forever.
        let b = fast();
        for _ in 0..3 {
            b.record_io_failure();
        }
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit());
        assert!(!b.admit(), "probe outstanding");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit(), "probe TTL elapsed: a new probe is admitted");
    }

    #[test]
    fn quarantine_round_trips() {
        let q = QuarantineSet::default();
        assert_eq!(q.len(), 0);
        assert!(q.insert("fact", 3));
        assert!(!q.insert("fact", 3), "double insert reported");
        assert!(q.insert("fact", 4));
        assert!(q.insert("agg", 3));
        assert_eq!(q.len(), 3);
        assert!(q.contains("fact", 3));
        assert!(!q.contains("fact", 5));
        assert!(q.is_quarantined("agg", 3));
        assert_eq!(q.entries(), vec![("agg".into(), 3), ("fact".into(), 3), ("fact".into(), 4)]);
        assert!(q.remove("fact", 3));
        assert!(!q.remove("fact", 3));
        assert_eq!(q.len(), 2);
        // Draining the set brings back the lock-free empty check.
        assert!(q.remove("fact", 4));
        assert!(q.remove("agg", 3));
        assert_eq!(q.len(), 0);
        assert!(!q.contains("agg", 3));
        assert!(q.entries().is_empty());
    }
}

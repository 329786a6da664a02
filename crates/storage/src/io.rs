//! Pluggable I/O fault layer and durable-write helpers.
//!
//! Crash safety is only as good as its tests, and real disks fail in ways
//! unit tests never exercise: torn page writes, `ENOSPC` mid-build,
//! transient `EINTR`-class hiccups, outright device errors. This module
//! makes those failures injectable and *deterministic*:
//!
//! * [`IoPolicy`] — a hook consulted before every heap-page write, blob
//!   write, fsync, **and page read**. Production code uses [`NoFaults`];
//!   tests install a [`FaultInjector`].
//! * [`FaultInjector`] — fails the N-th write (counted globally across all
//!   files opened with the policy) with a chosen [`FaultKind`]; optionally
//!   *sticky*, failing everything after the fault point to simulate process
//!   death at that exact write. On the read side it injects
//!   [`ReadFault`]s — hard `EIO`, transient-then-succeed errors, bit flips
//!   and torn tails — either at one index
//!   ([`FaultInjector::fail_nth_read`]) or on a periodic, bounded schedule
//!   ([`FaultInjector::chaos_reads`]) so a service provably recovers once
//!   the fault budget is spent.
//! * [`with_write_retries`] — bounded retry with exponential backoff for
//!   transient error kinds (`Interrupted`, `WouldBlock`, `TimedOut`);
//!   anything else propagates immediately.
//! * [`atomic_write`] — temp file + fsync + rename + directory fsync, the
//!   standard publish protocol for small metadata files (catalog blobs,
//!   the build manifest). Readers see either the old or the new content,
//!   never a torn mixture.

use std::fmt;
use std::fs::File;
use std::io;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a policy tells a writer to do with one write operation.
pub enum WriteFault {
    /// Perform the write normally.
    Proceed,
    /// Write only the first `keep` bytes, then report failure — a torn
    /// write, as after power loss mid-sector-stream.
    Torn {
        /// Number of leading bytes that reach the disk.
        keep: usize,
    },
    /// Perform no write; report this error.
    Fail(io::Error),
}

/// What a policy tells a reader to do with one page read.
pub enum ReadFault {
    /// Perform the read normally.
    Proceed,
    /// Perform no read; report this error. Transient kinds
    /// (see [`is_transient`]) are retried by the heap layer.
    Fail(io::Error),
    /// Read normally, then flip one bit of the returned buffer — silent
    /// media corruption, caught only by the page checksum.
    FlipBit {
        /// Byte offset of the flipped bit within the read buffer.
        offset: usize,
        /// Bit mask XOR-ed into that byte (nonzero).
        mask: u8,
    },
    /// Read normally, then zero everything past `keep` bytes — a torn
    /// page surfacing on the *read* side (e.g. a partially written
    /// sector stream on a crashed-then-restarted device).
    Torn {
        /// Number of leading bytes left intact.
        keep: usize,
    },
}

/// Decision hook consulted before writes, fsyncs and page reads.
///
/// Implementations must be deterministic given the sequence of calls —
/// the kill-and-resume harness replays identical write schedules and
/// expects identical fault points.
pub trait IoPolicy: Send + Sync + fmt::Debug {
    /// Called before writing `len` bytes at `offset` of `path`.
    fn on_write(&self, _path: &Path, _offset: u64, _len: usize) -> WriteFault {
        WriteFault::Proceed
    }

    /// Called before fsyncing `path` (a file or a directory). `Some(e)`
    /// suppresses the fsync and surfaces `e`.
    fn on_fsync(&self, _path: &Path) -> Option<io::Error> {
        None
    }

    /// Called before reading `len` bytes at `offset` of `path`.
    fn on_read(&self, _path: &Path, _offset: u64, _len: usize) -> ReadFault {
        ReadFault::Proceed
    }
}

/// The production policy: every operation proceeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl IoPolicy for NoFaults {}

/// A shared handle to the no-fault policy.
pub fn no_faults() -> Arc<dyn IoPolicy> {
    Arc::new(NoFaults)
}

/// The failure injected at the target write index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Hard device error (`EIO`); nothing reaches the disk.
    Error,
    /// Disk full (`ENOSPC`); nothing reaches the disk.
    Enospc,
    /// Torn write: a prefix of the data reaches the disk, then an error.
    Torn,
    /// Transient error (`EINTR`-class) for `failures` consecutive write
    /// attempts starting at the target index, then writes succeed again.
    Transient {
        /// How many attempts fail before the fault clears.
        failures: u32,
    },
}

/// The failure injected at a scheduled read index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFaultKind {
    /// Hard device error (`EIO`); nothing is read.
    Error,
    /// Transient error (`EINTR`-class) for `failures` consecutive read
    /// attempts starting at the target index, then reads succeed again.
    /// The heap layer's bounded retry absorbs these.
    Transient {
        /// How many attempts fail before the fault clears.
        failures: u32,
    },
    /// Silent single-bit corruption in the returned page image.
    FlipBit,
    /// The tail of the page image reads back as zeros.
    Torn,
    /// Cycle deterministically through transient / hard-error / bit-flip
    /// by fault ordinal, so one schedule exercises retry, breaker, and
    /// checksum paths at once.
    Chaos,
}

/// Deterministic fault injector: fires at the N-th write (or fsync) seen
/// through this policy, counting from 0 across every file.
///
/// With [`sticky`](Self::sticky), every write and fsync after the fault
/// point also fails — the closest a live process gets to "the machine died
/// at write k": nothing after k reaches the disk, and the builder's error
/// return stands in for process death.
#[derive(Debug)]
pub struct FaultInjector {
    fail_write: Option<u64>,
    fail_fsync: Option<u64>,
    kind: FaultKind,
    sticky: bool,
    /// Bytes a torn write keeps; `None` → half of the request.
    torn_keep: Option<usize>,
    /// First read index that faults; `None` → reads never fault.
    fail_read: Option<u64>,
    /// Fault every `period`-th read from `fail_read` on; `None` → once.
    read_every: Option<u64>,
    read_kind: ReadFaultKind,
    /// Total read faults to inject before going quiet; `None` → unbounded.
    read_limit: Option<u64>,
    writes: AtomicU64,
    fsyncs: AtomicU64,
    reads: AtomicU64,
    fired: AtomicBool,
    transient_left: AtomicU64,
    read_transient_left: AtomicU64,
    read_faults_fired: AtomicU64,
}

impl FaultInjector {
    /// A policy that never fires — counts operations for harnesses that
    /// need to know a build's write schedule length.
    pub fn counting() -> Self {
        Self::new(None, None, FaultKind::Error)
    }

    /// Fail the `n`-th write (0-based, global across files) with `kind`.
    pub fn fail_nth_write(n: u64, kind: FaultKind) -> Self {
        Self::new(Some(n), None, kind)
    }

    /// Fail the `n`-th fsync (0-based, global across files) with `EIO`.
    pub fn fail_nth_fsync(n: u64) -> Self {
        Self::new(None, Some(n), FaultKind::Error)
    }

    /// Fail the `n`-th page read (0-based, global across files) with
    /// `kind`. [`ReadFaultKind::Transient`] fails `failures` consecutive
    /// read attempts starting at `n`, then clears.
    pub fn fail_nth_read(n: u64, kind: ReadFaultKind) -> Self {
        let mut p = Self::new(None, None, FaultKind::Error);
        p.fail_read = Some(n);
        p.read_kind = kind;
        if let ReadFaultKind::Transient { failures } = kind {
            p.read_transient_left = AtomicU64::new(failures as u64);
        }
        p
    }

    /// Inject `count` read faults of `kind`, one at read index `start`
    /// and then every `period`-th read after it; once the budget is
    /// spent, reads proceed normally forever — the schedule a recovery
    /// assertion ("service returns to 100% success") needs.
    ///
    /// Use `period ≥ 2` with transient kinds so the retried read (which
    /// advances the global index) lands off-schedule and succeeds.
    pub fn chaos_reads(start: u64, period: u64, count: u64, kind: ReadFaultKind) -> Self {
        let mut p = Self::fail_nth_read(start, kind);
        p.read_every = Some(period.max(1));
        p.read_limit = Some(count);
        p
    }

    fn new(fail_write: Option<u64>, fail_fsync: Option<u64>, kind: FaultKind) -> Self {
        let transient =
            if let FaultKind::Transient { failures } = kind { failures as u64 } else { 0 };
        FaultInjector {
            fail_write,
            fail_fsync,
            kind,
            sticky: false,
            torn_keep: None,
            fail_read: None,
            read_every: None,
            read_kind: ReadFaultKind::Error,
            read_limit: None,
            writes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            transient_left: AtomicU64::new(transient),
            read_transient_left: AtomicU64::new(0),
            read_faults_fired: AtomicU64::new(0),
        }
    }

    /// After the fault fires, fail every subsequent write and fsync too
    /// (simulated process death). No effect for transient faults.
    pub fn sticky(mut self) -> Self {
        self.sticky = true;
        self
    }

    /// For torn writes: keep exactly `keep` leading bytes instead of half.
    pub fn torn_keep(mut self, keep: usize) -> Self {
        self.torn_keep = Some(keep);
        self
    }

    /// Writes observed so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Fsyncs observed so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::SeqCst)
    }

    /// Page reads observed so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }

    /// Read faults injected so far (≤ the `chaos_reads` budget).
    pub fn read_faults_fired(&self) -> u64 {
        self.read_faults_fired.load(Ordering::SeqCst)
    }

    /// Whether the fault point was reached.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    fn crashed_error() -> io::Error {
        io::Error::other("injected fault: I/O after crash point")
    }

    /// Materialize one scheduled read fault. `ordinal` is the count of
    /// faults fired before this one (drives the [`ReadFaultKind::Chaos`]
    /// cycle); `idx`/`len` derive a deterministic bit-flip position
    /// inside the page payload (past the 8-byte header, so the checksum
    /// always covers it).
    fn concrete_read_fault(&self, ordinal: u64, idx: u64, len: usize) -> ReadFault {
        let kind = match self.read_kind {
            ReadFaultKind::Chaos => match ordinal % 3 {
                0 => ReadFaultKind::Transient { failures: 1 },
                1 => ReadFaultKind::Error,
                _ => ReadFaultKind::FlipBit,
            },
            k => k,
        };
        match kind {
            ReadFaultKind::Error => {
                self.fired.store(true, Ordering::SeqCst);
                ReadFault::Fail(io::Error::other("injected read I/O error"))
            }
            ReadFaultKind::Transient { .. } => ReadFault::Fail(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient read error",
            )),
            ReadFaultKind::FlipBit | ReadFaultKind::Chaos => {
                let span = len.saturating_sub(8);
                let offset =
                    if span > 0 { 8 + (idx as usize % span) } else { idx as usize % len.max(1) };
                ReadFault::FlipBit { offset, mask: 1 << (idx % 8) }
            }
            ReadFaultKind::Torn => ReadFault::Torn { keep: len / 2 },
        }
    }
}

impl IoPolicy for FaultInjector {
    fn on_write(&self, _path: &Path, _offset: u64, len: usize) -> WriteFault {
        let idx = self.writes.fetch_add(1, Ordering::SeqCst);
        if self.sticky
            && self.fired.load(Ordering::SeqCst)
            && !matches!(self.kind, FaultKind::Transient { .. })
        {
            return WriteFault::Fail(Self::crashed_error());
        }
        let Some(target) = self.fail_write else {
            return WriteFault::Proceed;
        };
        match self.kind {
            FaultKind::Error if idx == target => {
                self.fired.store(true, Ordering::SeqCst);
                WriteFault::Fail(io::Error::other("injected I/O error"))
            }
            FaultKind::Enospc if idx == target => {
                self.fired.store(true, Ordering::SeqCst);
                // ENOSPC, portably.
                WriteFault::Fail(io::Error::from_raw_os_error(28))
            }
            FaultKind::Torn if idx == target => {
                self.fired.store(true, Ordering::SeqCst);
                let keep = self.torn_keep.unwrap_or(len / 2).min(len.saturating_sub(1));
                WriteFault::Torn { keep }
            }
            FaultKind::Transient { .. } if idx >= target => {
                // Burn down the configured failure count, then succeed.
                let left = self.transient_left.load(Ordering::SeqCst);
                if left > 0 {
                    self.fired.store(true, Ordering::SeqCst);
                    self.transient_left.store(left - 1, Ordering::SeqCst);
                    WriteFault::Fail(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "injected transient error",
                    ))
                } else {
                    WriteFault::Proceed
                }
            }
            _ => WriteFault::Proceed,
        }
    }

    fn on_fsync(&self, _path: &Path) -> Option<io::Error> {
        let idx = self.fsyncs.fetch_add(1, Ordering::SeqCst);
        if self.sticky
            && self.fired.load(Ordering::SeqCst)
            && !matches!(self.kind, FaultKind::Transient { .. })
        {
            return Some(Self::crashed_error());
        }
        if self.fail_fsync == Some(idx) {
            self.fired.store(true, Ordering::SeqCst);
            return Some(io::Error::other("injected fsync error"));
        }
        None
    }

    fn on_read(&self, _path: &Path, _offset: u64, len: usize) -> ReadFault {
        let idx = self.reads.fetch_add(1, Ordering::SeqCst);
        let Some(start) = self.fail_read else {
            return ReadFault::Proceed;
        };
        if let Some(limit) = self.read_limit {
            if self.read_faults_fired.load(Ordering::SeqCst) >= limit {
                return ReadFault::Proceed;
            }
        }
        // One-shot transient mirrors the write semantics: burn the
        // configured failure count on consecutive attempts from the
        // target index, then succeed.
        if self.read_every.is_none() {
            if let ReadFaultKind::Transient { .. } = self.read_kind {
                if idx >= start && self.read_transient_left.load(Ordering::SeqCst) > 0 {
                    self.read_transient_left.fetch_sub(1, Ordering::SeqCst);
                    self.read_faults_fired.fetch_add(1, Ordering::SeqCst);
                    return ReadFault::Fail(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "injected transient read error",
                    ));
                }
                return ReadFault::Proceed;
            }
        }
        let scheduled = match self.read_every {
            None => idx == start,
            Some(period) => idx >= start && (idx - start).is_multiple_of(period),
        };
        if !scheduled {
            return ReadFault::Proceed;
        }
        let ordinal = self.read_faults_fired.fetch_add(1, Ordering::SeqCst);
        self.concrete_read_fault(ordinal, idx, len)
    }
}

/// Total attempts made for a transient error before giving up.
pub const MAX_WRITE_ATTEMPTS: u32 = 5;

/// Whether an I/O error is worth retrying.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Run `op`, retrying transient errors with exponential backoff (bounded
/// by [`MAX_WRITE_ATTEMPTS`]). Non-transient errors propagate immediately.
pub fn with_write_retries<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut delay = Duration::from_micros(50);
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < MAX_WRITE_ATTEMPTS => {
                attempt += 1;
                std::thread::sleep(delay);
                delay = delay.saturating_mul(4).min(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fsync `file`, first consulting `policy` (keyed by `path`).
pub fn fsync_file(policy: &dyn IoPolicy, file: &File, path: &Path) -> io::Result<()> {
    if let Some(e) = policy.on_fsync(path) {
        return Err(e);
    }
    file.sync_all()
}

/// Fsync a directory so renames and file creations within it are durable.
pub fn sync_dir(policy: &dyn IoPolicy, dir: &Path) -> io::Result<()> {
    if let Some(e) = policy.on_fsync(dir) {
        return Err(e);
    }
    File::open(dir)?.sync_all()
}

/// The temp-file path `atomic_write` stages through.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Durably replace the contents of `path` with `bytes`.
///
/// Protocol: write a sibling temp file, fsync it, rename over `path`,
/// fsync the directory. A crash at any step leaves either the old content
/// or the new content at `path` — never a prefix. Transient write errors
/// are retried; a stale temp file from an earlier crash is simply
/// overwritten.
pub fn atomic_write(policy: &dyn IoPolicy, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    with_write_retries(|| match policy.on_write(&tmp, 0, bytes.len()) {
        WriteFault::Proceed => {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            fsync_file(policy, &f, &tmp)
        }
        WriteFault::Torn { keep } => {
            // Simulate the crash leaving a prefix of the temp file behind;
            // the rename never happens, so `path` is untouched.
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes[..keep.min(bytes.len())])?;
            let _ = f.sync_all();
            Err(io::Error::other("injected torn write"))
        }
        WriteFault::Fail(e) => Err(e),
    })?;
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        sync_dir(policy, parent)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::scratch_dir;

    #[test]
    fn counting_policy_never_fires() {
        let p = FaultInjector::counting();
        for _ in 0..100 {
            assert!(matches!(p.on_write(Path::new("x"), 0, 10), WriteFault::Proceed));
        }
        assert!(p.on_fsync(Path::new("x")).is_none());
        assert_eq!(p.writes(), 100);
        assert_eq!(p.fsyncs(), 1);
        assert!(!p.fired());
    }

    #[test]
    fn nth_write_fails_once_or_sticky() {
        let p = FaultInjector::fail_nth_write(2, FaultKind::Error);
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Proceed));
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Proceed));
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Fail(_)));
        // Non-sticky: later writes proceed.
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Proceed));

        let p = FaultInjector::fail_nth_write(0, FaultKind::Error).sticky();
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Fail(_)));
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Fail(_)));
        assert!(p.on_fsync(Path::new("x")).is_some());
        assert!(p.fired());
    }

    #[test]
    fn enospc_has_real_errno() {
        let p = FaultInjector::fail_nth_write(0, FaultKind::Enospc);
        match p.on_write(Path::new("x"), 0, 1) {
            WriteFault::Fail(e) => assert_eq!(e.raw_os_error(), Some(28)),
            _ => panic!("expected failure"),
        }
    }

    #[test]
    fn torn_keeps_a_strict_prefix() {
        let p = FaultInjector::fail_nth_write(0, FaultKind::Torn);
        match p.on_write(Path::new("x"), 0, 100) {
            WriteFault::Torn { keep } => assert_eq!(keep, 50),
            _ => panic!("expected torn"),
        }
        let p = FaultInjector::fail_nth_write(0, FaultKind::Torn).torn_keep(1_000);
        match p.on_write(Path::new("x"), 0, 100) {
            WriteFault::Torn { keep } => assert_eq!(keep, 99, "clamped below len"),
            _ => panic!("expected torn"),
        }
    }

    #[test]
    fn transient_clears_after_failures() {
        let p = FaultInjector::fail_nth_write(1, FaultKind::Transient { failures: 2 });
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Proceed));
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Fail(_)));
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Fail(_)));
        assert!(matches!(p.on_write(Path::new("x"), 0, 1), WriteFault::Proceed));
    }

    #[test]
    fn retries_absorb_transient_errors() {
        let p = FaultInjector::fail_nth_write(0, FaultKind::Transient { failures: 3 });
        let path = Path::new("x");
        let result = with_write_retries(|| match p.on_write(path, 0, 1) {
            WriteFault::Proceed => Ok(42),
            WriteFault::Fail(e) => Err(e),
            WriteFault::Torn { .. } => unreachable!(),
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(p.writes(), 4, "three failures then one success");
    }

    #[test]
    fn retries_give_up_on_hard_errors() {
        let p = FaultInjector::fail_nth_write(0, FaultKind::Error).sticky();
        let path = Path::new("x");
        let result: io::Result<()> = with_write_retries(|| match p.on_write(path, 0, 1) {
            WriteFault::Proceed => Ok(()),
            WriteFault::Fail(e) => Err(e),
            WriteFault::Torn { .. } => unreachable!(),
        });
        assert!(result.is_err());
        assert_eq!(p.writes(), 1, "no retries for non-transient errors");
    }

    #[test]
    fn atomic_write_replaces_or_preserves() {
        let dir = scratch_dir("atomic");
        let path = dir.join("target.json");
        std::fs::write(&path, b"old").unwrap();

        // Failure: old content intact, no rename.
        let p = FaultInjector::fail_nth_write(0, FaultKind::Torn);
        assert!(atomic_write(&p, &path, b"new-content").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");

        // Success (overwrites the stale temp file from the failed attempt).
        atomic_write(&NoFaults, &path, b"new-content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new-content");
        assert!(!tmp_path(&path).exists(), "temp file renamed away");
    }

    #[test]
    fn atomic_write_rides_out_transients() {
        let dir = scratch_dir("transient");
        let path = dir.join("t.json");
        let p = FaultInjector::fail_nth_write(0, FaultKind::Transient { failures: 2 });
        atomic_write(&p, &path, b"payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
    }

    #[test]
    fn nth_read_fails_once() {
        let p = FaultInjector::fail_nth_read(1, ReadFaultKind::Error);
        assert!(matches!(p.on_read(Path::new("x"), 0, 8192), ReadFault::Proceed));
        assert!(matches!(p.on_read(Path::new("x"), 0, 8192), ReadFault::Fail(_)));
        assert!(matches!(p.on_read(Path::new("x"), 0, 8192), ReadFault::Proceed));
        assert_eq!(p.reads(), 3);
        assert_eq!(p.read_faults_fired(), 1);
        // Writes are unaffected by a read-only schedule.
        assert!(matches!(p.on_write(Path::new("x"), 0, 10), WriteFault::Proceed));
    }

    #[test]
    fn transient_read_clears_after_failures() {
        let p = FaultInjector::fail_nth_read(0, ReadFaultKind::Transient { failures: 2 });
        assert!(matches!(p.on_read(Path::new("x"), 0, 8192), ReadFault::Fail(_)));
        assert!(matches!(p.on_read(Path::new("x"), 0, 8192), ReadFault::Fail(_)));
        assert!(matches!(p.on_read(Path::new("x"), 0, 8192), ReadFault::Proceed));
        let retried = with_write_retries(|| match p.on_read(Path::new("x"), 0, 8192) {
            ReadFault::Proceed => Ok(7),
            ReadFault::Fail(e) => Err(e),
            _ => unreachable!(),
        });
        assert_eq!(retried.unwrap(), 7);
    }

    #[test]
    fn flip_bit_lands_in_the_payload() {
        let p = FaultInjector::fail_nth_read(0, ReadFaultKind::FlipBit);
        match p.on_read(Path::new("x"), 0, 8192) {
            ReadFault::FlipBit { offset, mask } => {
                assert!((8..8192).contains(&offset), "offset {offset} outside payload");
                assert_ne!(mask, 0);
            }
            _ => panic!("expected a bit flip"),
        }
    }

    #[test]
    fn torn_read_keeps_half() {
        let p = FaultInjector::fail_nth_read(0, ReadFaultKind::Torn);
        match p.on_read(Path::new("x"), 0, 8192) {
            ReadFault::Torn { keep } => assert_eq!(keep, 4096),
            _ => panic!("expected a torn read"),
        }
    }

    #[test]
    fn chaos_schedule_cycles_kinds_and_respects_budget() {
        let p = FaultInjector::chaos_reads(0, 2, 3, ReadFaultKind::Chaos);
        let mut kinds = Vec::new();
        for _ in 0..10 {
            match p.on_read(Path::new("x"), 0, 8192) {
                ReadFault::Proceed => {}
                ReadFault::Fail(e) if is_transient(&e) => kinds.push("transient"),
                ReadFault::Fail(_) => kinds.push("hard"),
                ReadFault::FlipBit { .. } => kinds.push("flip"),
                ReadFault::Torn { .. } => kinds.push("torn"),
            }
        }
        assert_eq!(kinds, vec!["transient", "hard", "flip"], "cycle then budget exhausted");
        assert_eq!(p.read_faults_fired(), 3);
        // Budget spent: everything proceeds from here on.
        for _ in 0..20 {
            assert!(matches!(p.on_read(Path::new("x"), 0, 8192), ReadFault::Proceed));
        }
    }
}

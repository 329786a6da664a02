//! Unique scratch directories for tests, examples and tools.
//!
//! Test binaries run their tests on parallel threads, and several
//! binaries may run at once, so a directory keyed by process id alone
//! is shared by every test of a binary that picks the same tag. A
//! [`scratch_dir`] is unique per call: process id, a process-wide
//! counter and the caller's tag.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory `cure_<tag>_<pid>_<n>` under the system
/// temp directory, where `n` counts calls within this process. Any
/// leftover of an earlier process with the same pid is removed first.
///
/// # Panics
/// Panics when the directory cannot be created: callers are tests and
/// tools that cannot proceed without it.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cure_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    #[allow(clippy::expect_used)]
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}

//! The ordered-parallel scheduler shared by the partitioned build and the
//! ingest update walk.
//!
//! Work items are numbered. A fixed pool of `threads` workers claims them
//! in index order and turns each into a result; the calling thread, as
//! the single merger, consumes the results strictly in index order. Every
//! order-sensitive effect therefore happens on one thread, in the order a
//! sequential loop would produce it, while the independent work runs in
//! parallel. A backpressure window of `2 × threads` items bounds the
//! results held unmerged, and the first error anywhere stops every thread.

// A worker panic would leave the merger waiting, so the scheduler and the
// work it runs return typed errors instead of panicking.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::error::{CubeError, Result};

/// Coordination state shared between the workers and the merger.
struct Frontier<T> {
    /// Finished, not-yet-merged results by item index.
    done: BTreeMap<usize, T>,
    /// Items merged so far (monotone; workers gate on it).
    merged: usize,
    /// First failure anywhere; stops everyone.
    failed: Option<CubeError>,
}

/// Run `items` on `threads` workers and merge the results in index order
/// on the calling thread.
///
/// Each worker thread calls `worker()` once to set up its own state (page
/// caches, buffers) and then `work(i)` for every item `i` it claims.
/// `merge(i, result)` runs on the calling thread for `i` in ascending
/// order. The window never deadlocks: claim indices are monotone, so the
/// worker holding the next item to merge always satisfies `i < merged +
/// window` and can proceed.
pub(crate) fn run_ordered<T, W, M>(
    items: Range<usize>,
    threads: usize,
    worker: impl Fn() -> W + Sync,
    mut merge: M,
) -> Result<()>
where
    T: Send,
    W: FnMut(usize) -> Result<T>,
    M: FnMut(usize, T) -> Result<()>,
{
    if items.is_empty() {
        return Ok(());
    }
    let threads = threads.clamp(1, items.len());
    let window = 2 * threads;
    let next = AtomicUsize::new(items.start);
    let state = Mutex::new(Frontier { done: BTreeMap::new(), merged: items.start, failed: None });
    let cv = Condvar::new();

    let fail = |e: CubeError| {
        let mut st = state.lock();
        if st.failed.is_none() {
            st.failed = Some(e);
        }
        cv.notify_all();
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // A panicking worker records a failure on its way out, so
                // the merger stops waiting; the scope re-raises the panic.
                struct OnPanic<'f, F: Fn(CubeError)>(&'f F);
                impl<F: Fn(CubeError)> Drop for OnPanic<'_, F> {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            (self.0)(CubeError::Config("a worker thread panicked".into()));
                        }
                    }
                }
                let _guard = OnPanic(&fail);
                let mut work = worker();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.end {
                        break;
                    }
                    {
                        let mut st = state.lock();
                        while st.failed.is_none() && i >= st.merged + window {
                            cv.wait(&mut st);
                        }
                        if st.failed.is_some() {
                            break;
                        }
                    }
                    match work(i) {
                        Ok(result) => {
                            let mut st = state.lock();
                            st.done.insert(i, result);
                            cv.notify_all();
                        }
                        Err(e) => {
                            fail(e);
                            break;
                        }
                    }
                }
            });
        }

        for i in items.clone() {
            let result = {
                let mut st = state.lock();
                loop {
                    if let Some(result) = st.done.remove(&i) {
                        break result;
                    }
                    if st.failed.is_some() {
                        return;
                    }
                    cv.wait(&mut st);
                }
            };
            if let Err(e) = merge(i, result) {
                fail(e);
                return;
            }
            let mut st = state.lock();
            st.merged = i + 1;
            cv.notify_all();
        }
    });

    match state.into_inner().failed {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_in_index_order_at_every_thread_count() {
        for threads in [1usize, 2, 4, 8] {
            let mut seen = Vec::new();
            run_ordered(
                3..40,
                threads,
                || {
                    |i: usize| {
                        // Later items finish first.
                        std::thread::sleep(std::time::Duration::from_micros((40 - i as u64) * 20));
                        Ok(i * i)
                    }
                },
                |i, sq| {
                    assert_eq!(sq, i * i);
                    seen.push(i);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(seen, (3..40).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn first_error_stops_every_thread() {
        for threads in [1usize, 2, 4] {
            let mut merged = Vec::new();
            let err = run_ordered(
                0..1_000,
                threads,
                || {
                    |i: usize| {
                        if i == 7 {
                            Err(CubeError::Config("item 7".into()))
                        } else {
                            Ok(i)
                        }
                    }
                },
                |i, _| {
                    merged.push(i);
                    Ok(())
                },
            )
            .unwrap_err();
            assert!(err.to_string().contains("item 7"), "{err}");
            // The merger may stop before item 6 once the failure is seen,
            // but never merges out of order or past the failed item.
            assert_eq!(merged, (0..merged.len()).collect::<Vec<_>>(), "threads={threads}");
            assert!(merged.len() <= 7, "threads={threads}");
        }
    }

    #[test]
    fn merge_error_stops_every_thread() {
        let err = run_ordered(
            0..1_000,
            3,
            || |i: usize| Ok(i),
            |i, _| if i == 5 { Err(CubeError::Config("merge 5".into())) } else { Ok(()) },
        )
        .unwrap_err();
        assert!(err.to_string().contains("merge 5"), "{err}");
    }

    #[test]
    fn empty_range_runs_nothing() {
        run_ordered(4..4, 2, || |_: usize| -> Result<()> { unreachable!() }, |_, ()| Ok(()))
            .unwrap();
    }
}

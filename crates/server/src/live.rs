//! Live ingest: a single writer applies delta batches while readers keep
//! answering from a **consistent epoch snapshot**.
//!
//! A [`LiveCubeService`] holds the current cube epoch behind an
//! arc-swap-style slot (a [`parking_lot::RwLock`] around an
//! `Arc<ConcurrentCube>`; readers take the lock only long enough to clone
//! the `Arc`, never across I/O, so they never block on the writer and the
//! writer never blocks on queries in flight). Each
//! [`apply_delta`](LiveCubeService::apply_delta) runs the durable ingest
//! pipeline ([`ingest_cube_into`]) into a fresh per-epoch prefix
//! (`live_e<N>_`), opens the merged cube, and swaps it in; readers that
//! pinned the previous epoch keep reading its relations untouched —
//! epoch prefixes are never reused, and old-prefix GC is deferred until
//! no snapshot handle is left (`Arc::strong_count == 1`), so a pinned
//! snapshot answers byte-identically before, during and after a swap.
//!
//! Crash semantics compose with the ingest journal: the writer keeps the
//! old prefix (`drop_old: false`) so an interrupted swap can always roll
//! back or forward via [`recover_ingest`], which
//! [`LiveCubeService::open_with_read_path`] runs before serving. Retired
//! epochs a previous process never got to GC are swept at open too, but
//! only once the active epoch's cube has opened, and only epochs older
//! than it: a damaged active-cube pointer fails the open and deletes
//! nothing.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cure_core::delta::{
    abort_ingest, active_prefix, ingest_cube_into, recover_ingest, IngestOptions, IngestRecovery,
};
use cure_core::{CubeConfig, CubeSchema, IngestReport, NodeId, Result};
use cure_query::{CacheConfig, ConcurrentCube, ReadPath};
use cure_storage::Catalog;
use parking_lot::{Mutex, RwLock};

/// Prefix family of live-ingest epochs: `live_e<N>_`.
fn epoch_prefix(epoch: u64) -> String {
    format!("live_e{epoch}_")
}

/// Parse an epoch number back out of a `live_e<N>_` prefix.
fn epoch_of(prefix: &str) -> Option<u64> {
    prefix.strip_prefix("live_e")?.strip_suffix('_')?.parse().ok()
}

/// Writer-side state: retired epochs awaiting GC. Guarded by one mutex so
/// there is exactly one writer at a time.
struct WriterState {
    /// `(prefix, last snapshot handle)` of swapped-out epochs. The entry's
    /// `Arc` is the *only* remaining way to reach that epoch once it left
    /// the current slot, so `strong_count == 1` proves no reader holds it.
    retired: Vec<(String, Arc<ConcurrentCube>)>,
}

/// A serving handle whose cube can be advanced by delta ingests while
/// queries keep running.
pub struct LiveCubeService {
    catalog: Arc<Catalog>,
    schema: Arc<CubeSchema>,
    caches: CacheConfig,
    /// Read path each epoch's cube is opened on. Every epoch is sealed
    /// the moment it becomes current (the writer only ever builds the
    /// *next* prefix), so the mmap path is safe under live ingest: the
    /// maps live inside the epoch's [`ConcurrentCube`] and ride its
    /// `Arc`, and deferred GC never unlinks a prefix while any snapshot
    /// still holds that `Arc` (and on Linux, even an unlinked file stays
    /// readable through an existing mapping).
    read_path: ReadPath,
    current: RwLock<Arc<ConcurrentCube>>,
    writer: Mutex<WriterState>,
    epoch: AtomicU64,
}

impl LiveCubeService {
    /// Open the active cube for live serving on `read_path`. Resolves any
    /// interrupted ingest first (roll back or forward via the journal),
    /// opens the active epoch's cube, and only then sweeps the older
    /// epoch prefixes a previous process retired but never dropped.
    ///
    /// With [`ReadPath::Mmap`] every epoch — the one opened here and each
    /// one swapped in by [`apply_delta`](Self::apply_delta) — is served
    /// through the zero-copy mmap index; a pinned snapshot's mappings
    /// stay valid across swaps because GC is deferred until the
    /// snapshot's `Arc` is released.
    pub fn open_with_read_path(
        catalog: Arc<Catalog>,
        schema: Arc<CubeSchema>,
        caches: CacheConfig,
        cfg: &CubeConfig,
        read_path: ReadPath,
    ) -> Result<Self> {
        recover_ingest(&catalog, &schema, cfg)?;
        let active = active_prefix(&catalog);
        // Open before sweeping: `active_prefix` maps an unreadable or
        // damaged pointer to some prefix, and only a cube that opens
        // proves the pointer names the live epoch.
        let cube = Arc::new(ConcurrentCube::open_with_read_path(
            Arc::clone(&catalog),
            Arc::clone(&schema),
            &active,
            caches,
            read_path,
        )?);
        let epoch = epoch_of(&active).unwrap_or(0);
        Self::sweep_stale_epochs(&catalog, epoch)?;
        Ok(LiveCubeService {
            catalog,
            schema,
            caches,
            read_path,
            current: RwLock::new(cube),
            writer: Mutex::new(WriterState { retired: Vec::new() }),
            epoch: AtomicU64::new(epoch),
        })
    }

    /// Drop every `live_e<K>_` prefix older than the active epoch —
    /// leftovers of a previous session that crashed between swap and GC.
    /// Newer prefixes are partial ingests, which `recover_ingest` has
    /// already resolved through the journal.
    fn sweep_stale_epochs(catalog: &Catalog, active: u64) -> Result<()> {
        let mut stale: Vec<u64> = Vec::new();
        for name in catalog.list()?.into_iter().chain(catalog.list_blobs()?) {
            if let Some(rest) = name.strip_prefix("live_e") {
                if let Some((num, _)) = rest.split_once('_') {
                    if let Ok(e) = num.parse::<u64>() {
                        if e < active && !stale.contains(&e) {
                            stale.push(e);
                        }
                    }
                }
            }
        }
        for e in stale {
            catalog.drop_prefix(&epoch_prefix(e))?;
        }
        Ok(())
    }

    /// Pin the current epoch. The returned handle keeps answering from
    /// exactly this epoch's relations — byte-identical results — no
    /// matter how many deltas the writer applies meanwhile.
    pub fn snapshot(&self) -> Arc<ConcurrentCube> {
        self.current.read().clone()
    }

    /// The epoch counter (bumped once per applied delta batch).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The read path every epoch of this service is opened on.
    pub fn read_path(&self) -> ReadPath {
        self.read_path
    }

    /// Number of nodes in the cube's lattice.
    pub fn num_nodes(&self) -> NodeId {
        self.snapshot().coder().num_nodes()
    }

    /// Apply one delta batch: durable ingest into the next epoch prefix,
    /// swap it in as the current epoch, GC retired epochs nobody reads
    /// anymore. Single writer — concurrent callers serialize here.
    pub fn apply_delta(&self, delta: &cure_core::Tuples, cfg: &CubeConfig) -> Result<IngestReport> {
        let mut w = self.writer.lock();
        let old_prefix = active_prefix(&self.catalog);
        let next = self.epoch.load(Ordering::Acquire) + 1;
        let new_prefix = epoch_prefix(next);
        // Keep the old prefix: readers pinned to it still resolve its
        // relations lazily by name. It is GC'd below once unreferenced.
        //
        // On a mid-merge failure the active epoch keeps serving: the swap
        // below never ran, so `current` still points at the old cube. All
        // that is left to do is resolve the journal (roll the interrupted
        // ingest back or forward) and sweep the partially written
        // `new_prefix` objects before surfacing the error.
        let report = match ingest_cube_into(
            &self.catalog,
            &self.schema,
            &old_prefix,
            &new_prefix,
            delta,
            cfg,
            &IngestOptions { drop_old: false },
        ) {
            Ok(report) => report,
            Err(e) => return Err(self.abort_delta(&mut w, &old_prefix, &new_prefix, e)),
        };
        let new_cube = match ConcurrentCube::open_with_read_path(
            Arc::clone(&self.catalog),
            Arc::clone(&self.schema),
            &new_prefix,
            self.caches,
            self.read_path,
        ) {
            Ok(cube) => Arc::new(cube),
            Err(e) => {
                // The ingest itself committed — the journal is resolved
                // and the active blob already points at `new_prefix` —
                // but the merged cube failed to open. Keep serving the
                // old epoch in memory; reopening the service recovers
                // and serves the committed epoch.
                eprintln!(
                    "cure-serve: warning: committed epoch '{new_prefix}' failed to open: {e}"
                );
                return Err(e);
            }
        };
        let old_cube = {
            let mut cur = self.current.write();
            std::mem::replace(&mut *cur, new_cube)
        };
        self.epoch.store(next, Ordering::Release);
        w.retired.push((old_prefix, old_cube));
        self.gc_retired(&mut w);
        Ok(report)
    }

    /// Clean up after a failed delta: the active epoch was never swapped
    /// out, so readers keep serving it untouched. [`abort_ingest`] rolls
    /// the interrupted ingest back (truncating the appended delta rows
    /// and dropping partial merge output), a final `drop_prefix` sweeps
    /// any `new_prefix` object written before the journal existed, and
    /// the original error goes back to the caller so the same delta can
    /// be re-applied from scratch.
    ///
    /// One edge: if the journal already reached `Swapped`, the merged
    /// cube is complete and durable, so the abort *completes* it instead
    /// — the swap below keeps the in-memory epoch consistent with the
    /// on-disk active prefix, and the caller's error then means "the
    /// delta landed; the post-swap bookkeeping failed". Callers should
    /// check [`epoch`](Self::epoch) before retrying a failed delta.
    fn abort_delta(
        &self,
        w: &mut WriterState,
        old_prefix: &str,
        new_prefix: &str,
        err: cure_core::CubeError,
    ) -> cure_core::CubeError {
        match abort_ingest(&self.catalog) {
            Ok(Some(IngestRecovery::Completed { .. })) => {
                // The merge was durable before the failure: serve it.
                match ConcurrentCube::open_with_read_path(
                    Arc::clone(&self.catalog),
                    Arc::clone(&self.schema),
                    new_prefix,
                    self.caches,
                    self.read_path,
                ) {
                    Ok(cube) => {
                        let old_cube = {
                            let mut cur = self.current.write();
                            std::mem::replace(&mut *cur, Arc::new(cube))
                        };
                        self.epoch.fetch_add(1, Ordering::AcqRel);
                        w.retired.push((old_prefix.to_string(), old_cube));
                        return err;
                    }
                    Err(oe) => {
                        eprintln!(
                            "cure-serve: warning: completed epoch '{new_prefix}' failed to open: {oe}"
                        );
                        return err;
                    }
                }
            }
            Ok(_) => {}
            Err(re) => {
                eprintln!("cure-serve: warning: rollback after failed delta ingest failed: {re}");
            }
        }
        if let Err(de) = self.catalog.drop_prefix(new_prefix) {
            eprintln!("cure-serve: warning: GC of partial epoch '{new_prefix}' failed: {de}");
        }
        err
    }

    /// Retire epochs no snapshot references. Requires the writer lock:
    /// once an epoch left the current slot, `strong_count == 1` (only the
    /// retired list) proves no reader holds it and none can get it again.
    fn gc_retired(&self, w: &mut WriterState) {
        let catalog = &self.catalog;
        w.retired.retain(|(prefix, cube)| {
            if Arc::strong_count(cube) > 1 {
                return true;
            }
            match catalog.drop_prefix(prefix) {
                Ok(_) => false,
                Err(e) => {
                    eprintln!("cure-serve: warning: GC of retired epoch '{prefix}' failed: {e}");
                    true
                }
            }
        });
    }

    /// Force a GC pass outside of `apply_delta` (e.g. after readers
    /// drained). Returns how many retired epochs are still pending.
    pub fn gc(&self) -> usize {
        let mut w = self.writer.lock();
        self.gc_retired(&mut w);
        w.retired.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_prefix_roundtrip() {
        assert_eq!(epoch_prefix(7), "live_e7_");
        assert_eq!(epoch_of("live_e7_"), Some(7));
        assert_eq!(epoch_of("cube_"), None);
        assert_eq!(epoch_of("live_ex_"), None);
    }
}

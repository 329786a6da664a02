//! Live-ingest integration: a single writer applies delta batches through
//! [`LiveCubeService::apply_delta`] while reader threads keep querying.
//! Every reader must observe a *consistent epoch* — a pinned snapshot
//! answers byte-identically before, during and after the writer's swaps,
//! and a fresh snapshot's answers across the whole lattice always match
//! exactly one epoch's expected contents, never a mix. Afterwards the
//! final epoch must equal a fresh rebuild over all facts and deferred GC
//! must drain every retired epoch prefix from the catalog.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::sink::{DiskSink, MemSink};
use cure_core::{CubeSchema, Dimension, MemCubeReader, NodeCoder, NodeId, Tuples};
use cure_query::{CacheConfig, CubeRow, ReadPath};
use cure_serve::LiveCubeService;
use cure_storage::scratch::scratch_dir;
use cure_storage::Catalog;

const BASE_ROWS: usize = 1_500;
const DELTA_ROWS: usize = 200;
const BATCHES: usize = 3;

fn make_schema() -> CubeSchema {
    CubeSchema::new(
        vec![
            Dimension::linear("prod", 8, &[vec![0, 0, 1, 1, 2, 2, 3, 3]]).unwrap(),
            Dimension::flat("store", 5),
            Dimension::flat("time", 4),
        ],
        2,
    )
    .unwrap()
}

fn make_tuples(schema: &CubeSchema, n: usize, seed: u64, rowid_base: u64) -> Tuples {
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let mut tuples = Tuples::new(d, y);
    let mut x = seed | 1;
    let mut dims = vec![0u32; d];
    for i in 0..n {
        for (j, v) in dims.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x % schema.dims()[j].leaf_cardinality() as u64) as u32;
        }
        let aggs: Vec<i64> = (0..y).map(|k| (x % 50) as i64 + k as i64).collect();
        tuples.push_fact(&dims, &aggs, rowid_base + i as u64);
    }
    tuples
}

/// Expected (sorted) contents of every lattice node for a given fact set,
/// via a fresh in-memory build — the oracle each epoch is judged against.
fn oracle(schema: &CubeSchema, facts: &Tuples) -> BTreeMap<NodeId, Vec<CubeRow>> {
    let mut sink = MemSink::new(schema.num_measures());
    CubeBuilder::new(schema, CubeConfig::default()).build_in_memory(facts, &mut sink).unwrap();
    let reader = MemCubeReader::new(schema, &sink, facts, None).unwrap();
    NodeCoder::new(schema)
        .all_ids()
        .map(|id| {
            let mut rows = reader.node_contents(id).unwrap();
            rows.sort();
            (id, rows)
        })
        .collect()
}

/// Build the base cube on disk under the default active prefix `cube_`,
/// in a fresh scratch directory.
fn seed_base(tag: &str, schema: &CubeSchema, base: &Tuples) -> Arc<Catalog> {
    seed_base_in(&scratch_dir(&format!("live_{tag}")), schema, base)
}

/// [`seed_base`] into a given directory.
fn seed_base_in(dir: &std::path::Path, schema: &CubeSchema, base: &Tuples) -> Arc<Catalog> {
    let catalog = Catalog::open(dir).unwrap();
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let mut heap = catalog.create_or_replace("facts", Tuples::fact_schema(d, y)).unwrap();
    base.store_fact(&mut heap).unwrap();
    drop(heap);
    let report = {
        let mut sink = DiskSink::new(&catalog, "cube_", schema, false, false, None).unwrap();
        CubeBuilder::new(schema, CubeConfig::default()).build_in_memory(base, &mut sink).unwrap()
    };
    cure_core::meta::CubeMeta {
        prefix: "cube_".to_string(),
        fact_rel: "facts".to_string(),
        n_dims: d,
        n_measures: y,
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    Arc::new(catalog)
}

/// Open a live service on the cache read path.
fn open_live(
    catalog: Arc<Catalog>,
    schema: &Arc<CubeSchema>,
) -> cure_core::Result<LiveCubeService> {
    LiveCubeService::open_with_read_path(
        catalog,
        Arc::clone(schema),
        CacheConfig::default(),
        &CubeConfig::default(),
        ReadPath::Cache,
    )
}

/// Query every lattice node on one pinned snapshot, sorted.
fn snapshot_answers(
    snap: &cure_query::ConcurrentCube,
    nodes: &[NodeId],
) -> BTreeMap<NodeId, Vec<CubeRow>> {
    nodes
        .iter()
        .map(|&id| {
            let mut rows = snap.node_query(id).unwrap();
            rows.sort();
            (id, rows)
        })
        .collect()
}

/// Which epoch's oracle does this answer set match *in full*? Panics if
/// it matches none — i.e. the reader saw a torn state mixing epochs.
fn matching_epoch(
    answers: &BTreeMap<NodeId, Vec<CubeRow>>,
    oracles: &[BTreeMap<NodeId, Vec<CubeRow>>],
) -> usize {
    oracles.iter().position(|o| o == answers).unwrap_or_else(|| {
        let diverged: Vec<NodeId> = answers
            .iter()
            .filter(|(id, rows)| oracles.iter().all(|o| &o[id] != *rows))
            .map(|(id, _)| *id)
            .collect();
        panic!("snapshot matches no epoch oracle (torn state); nodes off every epoch: {diverged:?}")
    })
}

/// A delta whose merge dies mid-write must leave the active epoch serving
/// exactly what it served before, GC the partial next-epoch prefix, and
/// allow the same delta to be re-applied cleanly afterwards.
#[test]
fn failed_delta_keeps_active_epoch_serving_and_leaves_no_partial_state() {
    use cure_storage::{FaultInjector, FaultKind};

    let schema = Arc::new(make_schema());
    let base = make_tuples(&schema, 600, 0xFA17, 0);
    let delta = make_tuples(&schema, 120, 0xDE17A, 0);

    let base_oracle = oracle(&schema, &base);
    let mut cumulative = base.clone();
    for i in 0..delta.len() {
        cumulative.push_fact(delta.dims_of(i), delta.aggs_of(i), cumulative.len() as u64);
    }
    let merged_oracle = oracle(&schema, &cumulative);
    let nodes: Vec<NodeId> = NodeCoder::new(&schema).all_ids().collect();

    // Phase 1: learn the delta's write schedule on a twin catalog —
    // identical data and config give an identical schedule.
    let (open_writes, delta_writes) = {
        let dir = scratch_dir("live_faultlearn");
        drop(seed_base_in(&dir, &schema, &base));
        let policy = Arc::new(FaultInjector::counting());
        let catalog = Arc::new(Catalog::open_with_policy(&dir, policy.clone()).unwrap());
        let service = open_live(catalog, &schema).unwrap();
        let at_open = policy.writes();
        service.apply_delta(&delta, &CubeConfig::default()).unwrap();
        (at_open, policy.writes() - at_open)
    };
    assert!(delta_writes > 4, "delta ingest should issue several writes, saw {delta_writes}");

    // Phase 2: same data, but the write half-way through the merge fails
    // hard (one-shot EIO; retries don't absorb it).
    let dir = scratch_dir("live_faultinject");
    drop(seed_base_in(&dir, &schema, &base));
    let fault_at = open_writes + delta_writes / 2;
    let policy = Arc::new(FaultInjector::fail_nth_write(fault_at, FaultKind::Error));
    let catalog = Arc::new(Catalog::open_with_policy(&dir, policy.clone()).unwrap());
    let service = open_live(Arc::clone(&catalog), &schema).unwrap();
    let pinned = service.snapshot();

    let err = service.apply_delta(&delta, &CubeConfig::default());
    assert!(err.is_err(), "mid-merge write fault must surface as an error");
    assert!(policy.fired(), "the scheduled fault never fired (write index {fault_at})");
    assert_eq!(service.epoch(), 0, "failed delta must not advance the epoch");

    // The active epoch keeps answering exactly the base cube.
    for (id, rows) in &snapshot_answers(&service.snapshot(), &nodes) {
        assert_eq!(rows, &base_oracle[id], "node {id} diverged after failed delta");
    }

    // No partially written next-epoch object survives the abort.
    for name in catalog.list().unwrap().into_iter().chain(catalog.list_blobs().unwrap()) {
        assert!(!name.starts_with("live_e1_"), "partial epoch object survived abort: {name}");
    }

    // The fault was one-shot: the same delta now applies cleanly and the
    // service serves the merged cube.
    let report = service.apply_delta(&delta, &CubeConfig::default()).unwrap();
    assert_eq!(report.new_prefix, "live_e1_");
    assert_eq!(service.epoch(), 1);
    for (id, rows) in &snapshot_answers(&service.snapshot(), &nodes) {
        assert_eq!(rows, &merged_oracle[id], "node {id} diverged after recovered delta");
    }
    drop(pinned);
    assert_eq!(service.gc(), 0, "retired epochs still pending after pin released");
}

/// Regression (mmap epoch safety): a snapshot pinned on the mmap read
/// path must keep answering byte-identically across an `apply_delta`
/// prefix swap — the writer's swap and deferred GC must never unmap (or
/// delete the files under) a mapping an in-flight reader still holds.
/// The map rides the epoch's `Arc<ConcurrentCube>`: GC refuses to drop a
/// retired prefix while the pin exists, and drains once it is released.
#[test]
fn mmap_snapshot_survives_apply_delta_swap_and_deferred_gc() {
    let schema = Arc::new(make_schema());
    let base = make_tuples(&schema, 800, 0x3A9, 0);
    let delta = make_tuples(&schema, 150, 0xDE1, 0);

    let base_oracle = oracle(&schema, &base);
    let mut cumulative = base.clone();
    for i in 0..delta.len() {
        cumulative.push_fact(delta.dims_of(i), delta.aggs_of(i), cumulative.len() as u64);
    }
    let merged_oracle = oracle(&schema, &cumulative);
    let nodes: Vec<NodeId> = NodeCoder::new(&schema).all_ids().collect();

    let catalog = seed_base("mmap_swap", &schema, &base);
    let service = LiveCubeService::open_with_read_path(
        Arc::clone(&catalog),
        Arc::clone(&schema),
        CacheConfig::default(),
        &CubeConfig::default(),
        ReadPath::Mmap,
    )
    .unwrap();
    assert_eq!(service.read_path(), ReadPath::Mmap);

    // Pin epoch 0 (holding its mmaps) and record its answers.
    let pinned = service.snapshot();
    assert_eq!(pinned.read_path(), ReadPath::Mmap);
    let before = snapshot_answers(&pinned, &nodes);
    for (id, rows) in &before {
        assert_eq!(rows, &base_oracle[id], "epoch 0 node {id} diverged from base oracle");
    }

    // Swap epochs under the pin.
    service.apply_delta(&delta, &CubeConfig::default()).unwrap();
    assert_eq!(service.epoch(), 1);

    // The pinned mapping still answers byte-identically, and GC must
    // not reclaim its epoch while the pin lives.
    assert_eq!(before, snapshot_answers(&pinned, &nodes), "pinned mmap snapshot drifted");
    assert_eq!(service.gc(), 1, "GC reclaimed an epoch a reader still maps");
    assert_eq!(before, snapshot_answers(&pinned, &nodes), "pinned snapshot drifted after gc()");

    // The new epoch serves the merged cube through fresh mmaps.
    let fresh = service.snapshot();
    assert_eq!(fresh.read_path(), ReadPath::Mmap);
    for (id, rows) in &snapshot_answers(&fresh, &nodes) {
        assert_eq!(rows, &merged_oracle[id], "epoch 1 node {id} diverged from merged oracle");
    }

    // Releasing the pin lets deferred GC drain the retired prefix.
    drop(pinned);
    assert_eq!(service.gc(), 0, "retired epoch still pending after pin released");
    for name in catalog.list().unwrap().into_iter().chain(catalog.list_blobs().unwrap()) {
        assert!(
            name == "facts" || name == "active_cube" || name.starts_with("live_e1_"),
            "stale object survived GC: {name}"
        );
    }
}

#[test]
fn pinned_snapshots_stay_byte_identical_across_writer_swaps() {
    let schema = Arc::new(make_schema());
    let base = make_tuples(&schema, BASE_ROWS, 0xBA5E, 0);
    let deltas: Vec<Tuples> =
        (0..BATCHES).map(|k| make_tuples(&schema, DELTA_ROWS, 0xD0 + k as u64, 0)).collect();

    // Oracle per epoch: a fresh rebuild over base ∪ deltas[..k].
    let mut cumulative = base.clone();
    let mut oracles = vec![oracle(&schema, &cumulative)];
    for d in &deltas {
        for i in 0..d.len() {
            cumulative.push_fact(d.dims_of(i), d.aggs_of(i), cumulative.len() as u64);
        }
        oracles.push(oracle(&schema, &cumulative));
    }

    let catalog = seed_base("swap", &schema, &base);
    let service = Arc::new(open_live(Arc::clone(&catalog), &schema).unwrap());
    let nodes: Vec<NodeId> = NodeCoder::new(&schema).all_ids().collect();
    assert_eq!(service.epoch(), 0);

    // Epoch 0 serves the base cube exactly, and a handle pinned *now*
    // must keep serving it verbatim through every upcoming swap.
    let pinned = service.snapshot();
    let pinned_at_open = snapshot_answers(&pinned, &nodes);
    for (id, rows) in &pinned_at_open {
        assert_eq!(rows, &oracles[0][id], "epoch 0 node {id} diverged from base oracle");
    }

    // Readers: fresh snapshot per round, assert epoch consistency across
    // the whole lattice; one designated reader re-reads the pinned handle.
    let stop = Arc::new(AtomicBool::new(false));
    let oracles = Arc::new(oracles);
    let nodes = Arc::new(nodes);
    let pinned_at_open = Arc::new(pinned_at_open);
    let mut readers = Vec::new();
    for r in 0..4usize {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let oracles = Arc::clone(&oracles);
        let nodes = Arc::clone(&nodes);
        let pinned = Arc::clone(&pinned);
        let pinned_at_open = Arc::clone(&pinned_at_open);
        readers.push(std::thread::spawn(move || {
            let mut last_epoch = 0usize;
            let mut rounds = 0u64;
            while !stop.load(Ordering::Acquire) {
                if r == 0 {
                    // The pinned epoch-0 handle answers byte-identically
                    // no matter what the writer is doing right now.
                    let again = snapshot_answers(&pinned, &nodes);
                    assert_eq!(*pinned_at_open, again, "pinned snapshot drifted");
                } else {
                    let snap = service.snapshot();
                    let seen = matching_epoch(&snapshot_answers(&snap, &nodes), &oracles);
                    assert!(
                        seen >= last_epoch,
                        "epoch went backwards: saw {seen} after {last_epoch}"
                    );
                    last_epoch = seen;
                }
                rounds += 1;
            }
            rounds
        }));
    }

    // Writer: apply each batch; the epoch counter ticks once per batch.
    for (k, d) in deltas.iter().enumerate() {
        let report = service.apply_delta(d, &CubeConfig::default()).unwrap();
        assert_eq!(report.delta_rows, DELTA_ROWS as u64);
        assert_eq!(report.new_prefix, format!("live_e{}_", k + 1));
        assert_eq!(service.epoch(), k as u64 + 1);
        std::thread::sleep(std::time::Duration::from_millis(30));
    }

    stop.store(true, Ordering::Release);
    let mut total_rounds = 0;
    for h in readers {
        total_rounds += h.join().expect("reader panicked");
    }
    assert!(total_rounds > 0, "readers never ran");

    // Final epoch equals a fresh rebuild over all facts.
    let final_answers = snapshot_answers(&service.snapshot(), &nodes);
    assert_eq!(matching_epoch(&final_answers, &oracles), BATCHES);

    assert_eq!(service.epoch(), BATCHES as u64);

    // The pinned epoch-0 handle *still* serves the base cube even though
    // its prefix is retired; releasing it lets deferred GC drain, leaving
    // only the live epoch's relations (plus the fact table) on disk.
    assert_eq!(*pinned_at_open, snapshot_answers(&pinned, &nodes));
    drop(pinned);
    assert_eq!(service.gc(), 0, "retired epochs still pending after readers drained");
    for name in catalog.list().unwrap().into_iter().chain(catalog.list_blobs().unwrap()) {
        let live = format!("live_e{BATCHES}_");
        assert!(
            name == "facts" || name == "active_cube" || name.starts_with(&live),
            "stale object survived GC: {name}"
        );
    }
}

/// A damaged active-cube pointer must fail the open and delete nothing.
/// A pointer flipped from `live_e2_` to `xive_e2_` names no cube and
/// parses as epoch 0, so an open that swept stale epochs before opening
/// the active one would drop the live cube.
#[test]
fn damaged_active_pointer_fails_open_and_deletes_nothing() {
    let schema = Arc::new(make_schema());
    let base = make_tuples(&schema, 500, 0xAC7, 0);
    let deltas = [make_tuples(&schema, 80, 0xD1, 0), make_tuples(&schema, 80, 0xD2, 0)];
    let mut cumulative = base.clone();
    for d in &deltas {
        for i in 0..d.len() {
            cumulative.push_fact(d.dims_of(i), d.aggs_of(i), cumulative.len() as u64);
        }
    }
    let merged_oracle = oracle(&schema, &cumulative);
    let nodes: Vec<NodeId> = NodeCoder::new(&schema).all_ids().collect();

    let catalog = seed_base("damaged_ptr", &schema, &base);
    {
        let service = open_live(Arc::clone(&catalog), &schema).unwrap();
        for d in &deltas {
            service.apply_delta(d, &CubeConfig::default()).unwrap();
        }
        assert_eq!(service.epoch(), 2);
    }
    let listing = || -> Vec<String> {
        let mut names: Vec<String> =
            catalog.list().unwrap().into_iter().chain(catalog.list_blobs().unwrap()).collect();
        names.sort();
        names
    };
    let before = listing();
    assert!(before.iter().any(|n| n.starts_with("live_e2_")), "no live epoch: {before:?}");

    // Flip one byte of the pointer: `live_e2_` -> `xive_e2_`.
    let blob = catalog.dir().join("active_cube.blob");
    let mut bytes = std::fs::read(&blob).unwrap();
    assert_eq!(bytes, b"live_e2_");
    bytes[0] = b'x';
    std::fs::write(&blob, &bytes).unwrap();

    assert!(open_live(Arc::clone(&catalog), &schema).is_err(), "a dangling pointer opened");
    assert_eq!(listing(), before, "a failed open changed the catalog");

    // Repairing the pointer brings the untouched epoch back.
    cure_core::delta::set_active_prefix(&catalog, "live_e2_").unwrap();
    let service = open_live(Arc::clone(&catalog), &schema).unwrap();
    assert_eq!(service.epoch(), 2);
    for (id, rows) in &snapshot_answers(&service.snapshot(), &nodes) {
        assert_eq!(rows, &merged_oracle[id], "node {id} diverged after the pointer repair");
    }
}

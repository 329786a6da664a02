//! Serve-path chaos drill: seeded read faults under concurrent traffic.
//!
//! A small APB-1 cube is served through deliberately tiny page caches
//! (so queries keep going back to disk) over a catalog whose I/O policy
//! injects a bounded schedule of read faults — transient errors, hard
//! errors and bit flips in turn. The contract under test:
//!
//! * every answer is the fault-free answer or a typed [`ServeError`] —
//!   never wrong rows, never an untyped failure;
//! * the faults reach the layers built to absorb them: the storage
//!   layer retries transient reads, and a hard error trips the fact
//!   relation's circuit breaker;
//! * once the fault budget is spent, repairing the quarantine and
//!   admitting a few probe queries brings the service back to a closed
//!   breaker with nothing quarantined, answering every node correctly.

mod common;

use std::sync::Arc;
use std::time::Duration;

use cure_core::NodeId;
use cure_query::{CacheConfig, ConcurrentCube, CubeRow, ReadPath};
use cure_serve::{
    BreakerState, CubeService, NodePopularity, NodeSampler, QueryOptions, ResilienceConfig,
    ServeError, ServeErrorKind,
};
use cure_storage::{Catalog, FaultInjector, IoPolicy, ReadFaultKind};

use common::PREFIX;

/// Queries in the chaos phase.
const QUERIES: u64 = 200;
/// Concurrent clients in the chaos phase.
const THREADS: usize = 2;
/// Node-sampler seed.
const SEED: u64 = 7;
/// Read faults injected before the schedule goes quiet: enough to
/// exercise retry (the transient ordinals), the breaker (the hard
/// ordinals) and quarantine (the flip ordinals), few enough that the
/// service drains them and heals.
const BUDGET: u64 = 8;

fn sorted(mut rows: Vec<CubeRow>) -> Vec<CubeRow> {
    rows.sort();
    rows
}

/// Check one reply: the fault-free answer, or a typed error.
fn check(node: NodeId, reply: Result<Vec<CubeRow>, ServeError>, want: &[Vec<CubeRow>]) {
    match reply {
        Ok(rows) => assert_eq!(sorted(rows), want[node as usize], "wrong rows for node {node}"),
        Err(e) => {
            assert_ne!(e.kind(), ServeErrorKind::Other, "untyped failure on node {node}: {e}")
        }
    }
}

#[test]
fn read_faults_yield_correct_rows_or_typed_errors_and_the_service_heals() {
    let (dir, schema) = common::apb_cube("chaos", 0.4, 4000, 0xC11);
    let caches = CacheConfig { fact_pages: 8, agg_pages: 4, shards: 2 };
    let open = |catalog: Arc<Catalog>| {
        ConcurrentCube::open_with_read_path(
            catalog,
            Arc::clone(&schema),
            PREFIX,
            caches,
            ReadPath::Cache,
        )
        .unwrap()
    };

    // Fault-free answers for every node, and the number of page reads
    // opening the cube issues: the fault schedule starts after them, so
    // the service always opens cleanly.
    let counter = Arc::new(FaultInjector::counting());
    let clean = open(Arc::new(
        Catalog::open_with_policy(&dir, Arc::clone(&counter) as Arc<dyn IoPolicy>).unwrap(),
    ));
    let open_reads = counter.reads();
    let nodes = clean.coder().num_nodes();
    let want: Vec<Vec<CubeRow>> =
        (0..nodes).map(|id| sorted(clean.node_query(id).unwrap())).collect();
    drop(clean);

    let policy = Arc::new(FaultInjector::chaos_reads(open_reads, 2, BUDGET, ReadFaultKind::Chaos));
    let catalog = Arc::new(
        Catalog::open_with_policy(&dir, Arc::clone(&policy) as Arc<dyn IoPolicy>).unwrap(),
    );
    let service = CubeService::from_cube_with_resilience(
        Arc::new(open(Arc::clone(&catalog))),
        ResilienceConfig { breaker_threshold: 1, breaker_cooldown: Duration::from_millis(5) },
    );
    let opts = QueryOptions::default();

    // Chaos phase: a seeded uniform workload from concurrent clients.
    let mut sampler = NodeSampler::new(nodes, NodePopularity::Uniform, SEED).unwrap();
    let workload: Vec<NodeId> = (0..QUERIES).map(|_| sampler.next_node()).collect();
    common::closed_loop(&workload, THREADS, |node| check(node, service.query(node, &opts), &want));

    // Spend what is left of the schedule: sweeping nodes forces fresh
    // reads past the tiny caches. Bounded, so a schedule the sweep never
    // reaches fails the assertion below instead of hanging.
    let mut probes: u64 = 0;
    while probes < 400 && policy.read_faults_fired() < BUDGET {
        std::thread::sleep(Duration::from_millis(2));
        let _ = service.repair_all();
        let node = probes % nodes;
        check(node, service.query(node, &opts), &want);
        probes += 1;
    }
    assert_eq!(policy.read_faults_fired(), BUDGET, "the fault budget was not spent");
    assert!(catalog.stats().read_retries() > 0, "no transient read was retried");
    assert!(service.metrics().breaker_trips() > 0, "no hard read error tripped the breaker");

    // Recovery: re-verify quarantined pages from disk, and admit probe
    // queries until the breaker closes (it only closes by admitting a
    // half-open probe).
    let mut probes = 0;
    while (service.breaker_state() != BreakerState::Closed || service.quarantine_len() > 0)
        && probes < 50
    {
        std::thread::sleep(Duration::from_millis(5));
        let _ = service.repair_all();
        let _ = service.query(0, &opts);
        probes += 1;
    }
    assert_eq!(service.breaker_state(), BreakerState::Closed);
    assert_eq!(service.quarantine_len(), 0, "{:?}", service.quarantine_entries());

    // Healed: every node answers, and answers correctly.
    for node in 0..nodes {
        let rows = service.query(node, &opts).unwrap();
        assert_eq!(sorted(rows), want[node as usize], "node {node} after recovery");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_quarantined_fact_page_fails_fast_until_repaired() {
    let (dir, schema) = common::apb_cube("chaos_quarantine", 0.4, 4000, 0xC11);
    let open = |catalog: Arc<Catalog>| {
        CubeService::open_with_read_path(
            catalog,
            Arc::clone(&schema),
            PREFIX,
            CacheConfig::default(),
            ReadPath::Cache,
        )
        .unwrap()
    };
    // Count the reads of opening the cube and of one query on the leaf
    // node, whose last page read is a fact page.
    let counter = Arc::new(FaultInjector::counting());
    let probe = open(Arc::new(
        Catalog::open_with_policy(&dir, Arc::clone(&counter) as Arc<dyn IoPolicy>).unwrap(),
    ));
    let open_reads = counter.reads();
    let node = probe.num_nodes() - 1;
    let opts = QueryOptions::default();
    let want = sorted(probe.query(node, &opts).unwrap());
    let last_read = counter.reads() - 1;
    drop(probe);

    // Flip exactly that read: the first query finds the fact page
    // corrupt and quarantines it.
    let policy = Arc::new(FaultInjector::chaos_reads(last_read, 1, 1, ReadFaultKind::FlipBit));
    let service = open(Arc::new(
        Catalog::open_with_policy(&dir, Arc::clone(&policy) as Arc<dyn IoPolicy>).unwrap(),
    ));
    assert_eq!(policy.reads(), open_reads);
    let (relation, page) = match service.query(node, &opts) {
        Err(ServeError::Corrupt { relation, page }) => (relation, page),
        other => panic!("expected a corrupt page, got {other:?}"),
    };
    assert_eq!(relation, service.cube().fact_relation());
    assert_eq!(service.quarantine_entries(), vec![(relation.clone(), page)]);
    // The flip is spent, so only the quarantine fails the next query.
    match service.query(node, &opts) {
        Err(ServeError::Corrupt { relation: r, page: p }) => assert_eq!((r, p), (relation, page)),
        other => panic!("a quarantined page must fail fast, got {other:?}"),
    }
    assert_eq!(service.repair_all(), 1);
    assert_eq!(sorted(service.query(node, &opts).unwrap()), want);
    let _ = std::fs::remove_dir_all(&dir);
}

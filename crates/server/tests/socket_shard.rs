//! Socket-sharded serving end to end, with real server processes: a
//! router over `RemoteShardBackend`s must answer byte-identically to
//! the flat oracle, survive SIGKILL of a replica process mid-load with
//! zero wrong-data responses (failover, typed errors, moving breaker /
//! reconnect counters — never silent corruption), and recover fully
//! once the replica is respawned and the backend redirected.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use cure_core::{build_shard_cubes, CubeConfig, CubeSchema, Dimension, NodeCoder, Tuples};
use cure_serve::{
    replicate_shards, QueryOptions, RemoteShardBackend, RemoteShardConfig, ShardBackend,
    ShardRouter,
};
use cure_storage::scratch::scratch_dir;
use cure_storage::Catalog;

/// A fresh catalog directory seeded with deterministic facts over a
/// 3-dim (one hierarchical) schema, plus the sharded sub-cubes.
fn sharded_fixture(tag: &str, rows: usize, shards: usize) -> (PathBuf, Arc<CubeSchema>, Tuples) {
    let dir = scratch_dir(&format!("socket_it_{tag}"));
    let catalog = Catalog::open(&dir).unwrap();
    let a = Dimension::linear("A", 6, &[vec![0, 0, 0, 1, 1, 1]]).unwrap();
    let b = Dimension::flat("B", 4);
    let c = Dimension::flat("C", 3);
    let schema = CubeSchema::new(vec![a, b, c], 2).unwrap();
    let (d, y) = (schema.num_dims(), schema.num_measures());
    let mut t = Tuples::new(d, y);
    let mut x = 0xC0FFEEu64;
    for i in 0..rows {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let dims = [(x % 6) as u32, ((x >> 8) % 4) as u32, ((x >> 12) % 3) as u32];
        let aggs: Vec<i64> = (0..y).map(|k| ((x >> 16) % 60) as i64 - 20 + k as i64).collect();
        t.push_fact(&dims, &aggs, i as u64);
    }
    let mut rel = catalog.create_or_replace("facts", Tuples::fact_schema(d, y)).unwrap();
    t.store_fact(&mut rel).unwrap();
    rel.flush().unwrap();
    rel.sync().unwrap();
    build_shard_cubes(&catalog, "facts", &schema, &CubeConfig::default(), shards, 1).unwrap();
    (dir, Arc::new(schema), t)
}

fn sorted(mut rows: Vec<(Vec<u32>, Vec<i64>)>) -> Vec<(Vec<u32>, Vec<i64>)> {
    rows.sort();
    rows
}

/// The flat oracle: reference-compute `node` over the unsplit facts.
fn oracle(schema: &CubeSchema, t: &Tuples, node: u64) -> Vec<(Vec<u32>, Vec<i64>)> {
    let coder = NodeCoder::new(schema);
    let levels = coder.decode(node).unwrap();
    sorted(cure_core::reference::pairs(&cure_core::reference::compute_node(schema, t, &levels)))
}

/// Spawn one `cure-shard-serve` process and parse its `LISTENING`
/// banner for the bound endpoint.
fn spawn_server(dir: &Path, shard: usize) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cure-shard-serve"))
        .arg("--dir")
        .arg(dir)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("bad server banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// Child processes with kill-on-drop, so a failed assertion can't leak
/// servers past the test.
struct Procs(Vec<Option<Child>>);

impl Procs {
    fn push(&mut self, c: Child) -> usize {
        self.0.push(Some(c));
        self.0.len() - 1
    }

    /// SIGKILL one child (no shutdown handshake — that is the point).
    fn kill(&mut self, i: usize) {
        if let Some(mut c) = self.0[i].take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Drop for Procs {
    fn drop(&mut self) {
        for slot in self.0.iter_mut() {
            if let Some(mut c) = slot.take() {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
}

#[test]
fn socket_router_survives_replica_process_kill() {
    let (dir, schema, t) = sharded_fixture("kill", 400, 2);
    let replica_dir = dir.join("replica0");
    replicate_shards(&Catalog::open(&dir).unwrap(), 2, &replica_dir).unwrap();
    let dirs = [dir.clone(), replica_dir.clone()];

    // 2 shards × 2 replicas = 4 real server processes on loopback.
    let mut procs = Procs(Vec::new());
    let mut backends: Vec<Vec<Arc<dyn ShardBackend>>> = Vec::new();
    let mut handles: Vec<Vec<RemoteShardBackend>> = Vec::new();
    let mut proc_idx = [[0usize; 2]; 2];
    for (k, row) in proc_idx.iter_mut().enumerate() {
        let mut reps: Vec<Arc<dyn ShardBackend>> = Vec::new();
        let mut hs = Vec::new();
        for (r, d) in dirs.iter().enumerate() {
            let (child, addr) = spawn_server(d, k);
            row[r] = procs.push(child);
            let b = RemoteShardBackend::connect(&addr, RemoteShardConfig::default()).unwrap();
            assert_eq!(b.shard(), k as u32, "server must announce its shard");
            hs.push(b.clone());
            reps.push(Arc::new(b));
        }
        backends.push(reps);
        handles.push(hs);
    }
    let router = ShardRouter::from_backends(Arc::clone(&schema), backends).unwrap();
    let stats = router.shard_stats();
    assert_eq!(stats.len(), 2);
    assert!(stats.iter().all(|s| s.replicas == 2));

    // Phase 1: every merged answer is byte-identical to the oracle, and
    // traffic really crossed the wire.
    for node in 0..router.num_nodes() {
        assert_eq!(
            sorted(router.query(node).unwrap().rows),
            oracle(&schema, &t, node),
            "node {node}"
        );
    }
    let wire = router.wire_totals();
    assert!(wire.bytes_in > 0 && wire.bytes_out > 0, "no wire traffic recorded: {wire:?}");

    // Phase 2: SIGKILL shard 0's replica 1 mid-load. Every answer must
    // still match the oracle — failover or a typed error, never wrong
    // data — and the kill must be visible in the counters.
    router.reset_stats();
    let victim = handles[0][1].clone();
    let kill_at = router.num_nodes() / 3;
    for node in 0..router.num_nodes() {
        if node == kill_at {
            procs.kill(proc_idx[0][1]);
        }
        let got = sorted(router.query_with_options(node, &QueryOptions::default()).unwrap().rows);
        assert_eq!(got, oracle(&schema, &t, node), "wrong data after process kill on node {node}");
    }
    let stats = router.shard_stats();
    assert!(stats[0].failovers > 0, "the kill must surface as failovers: {stats:?}");
    assert!(
        victim.metrics().errors() > 0,
        "the dead replica's backend must have recorded typed errors"
    );
    assert_eq!(stats[1].failovers, 0, "shard 1 was never touched: {stats:?}");

    // Phase 3: respawn the replica, redirect the backend at the new
    // endpoint, and the full sweep is clean again (fresh breaker state —
    // the breaker key is per endpoint).
    let (child, addr) = spawn_server(&replica_dir, 0);
    procs.push(child);
    victim.redirect(&addr);
    router.reset_stats();
    for node in 0..router.num_nodes() {
        let got = sorted(router.query_with_options(node, &QueryOptions::default()).unwrap().rows);
        assert_eq!(
            got,
            oracle(&schema, &t, node),
            "respawned replica answered wrong data on node {node}"
        );
    }
    let stats = router.shard_stats();
    assert_eq!(stats[0].failovers, 0, "no failovers after recovery: {stats:?}");
    assert!(
        router.wire_totals().reconnects > 0,
        "the redirect must count as a reconnect: {:?}",
        router.wire_totals()
    );
    // The respawned replica serves its shard's partial identically to
    // the primary replica of the same shard.
    let node = router.num_nodes() - 1;
    assert_eq!(
        sorted(victim.query_plain(node).unwrap()),
        sorted(handles[0][0].query_plain(node).unwrap()),
        "direct query against the respawned replica"
    );
}

#[test]
fn connecting_to_a_dead_endpoint_fails_typed() {
    let cfg = RemoteShardConfig {
        connect_attempts: 2,
        reconnect_backoff: std::time::Duration::from_millis(1),
        ..RemoteShardConfig::default()
    };
    // Port 9 (discard) on loopback is closed in the test environment;
    // the point is the *typed* refusal, not which errno it carries.
    match RemoteShardBackend::connect("127.0.0.1:9", cfg) {
        Err(e) => {
            assert!(e.to_string().contains("127.0.0.1:9"), "error must name the endpoint: {e}")
        }
        Ok(_) => panic!("connect to a closed port must fail"),
    }
}

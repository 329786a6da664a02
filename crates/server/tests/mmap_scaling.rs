//! Thread-scaling gate for the zero-copy mmap read path.
//!
//! The mmap path takes no lock per page, so going from 4 to 8 client
//! threads must not lose meaningful throughput: `qps(8) >= 0.9 * qps(4)`
//! on both uniform and Zipf(1.0) traffic. The 10 % tolerance absorbs
//! scheduler noise on shared hosts. The comparison only means something
//! with at least 8 cores, so below that the test prints the numbers and
//! skips the assertion.
//!
//! A timing test, so it is ignored by default. Run it with
//!
//! ```text
//! cargo test --release -p cure-serve --test mmap_scaling -- --ignored --nocapture
//! ```

mod common;

use std::sync::Arc;
use std::time::Instant;

use cure_core::NodeId;
use cure_query::{CacheConfig, ReadPath};
use cure_serve::{CubeService, NodePopularity, NodeSampler, QueryOptions};
use cure_storage::Catalog;

/// Queries per timed run.
const QUERIES: u64 = 200;

/// Answer `nodes` from `threads` closed-loop clients; returns queries
/// per second of wall time.
fn qps(service: &CubeService, nodes: &[NodeId], threads: usize) -> f64 {
    let start = Instant::now();
    common::closed_loop(nodes, threads, |node| {
        service.query(node, &QueryOptions::default()).unwrap();
    });
    nodes.len() as f64 / start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn mmap_qps_holds_from_4_to_8_threads() {
    let (dir, schema) = common::apb_cube("mmap_scaling", 0.4, 4000, 0x5E4E);
    let catalog = Arc::new(Catalog::open(&dir).unwrap());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for (label, popularity) in
        [("uniform", NodePopularity::Uniform), ("zipf(1.0)", NodePopularity::Zipf(1.0))]
    {
        let service = CubeService::open_with_read_path(
            Arc::clone(&catalog),
            Arc::clone(&schema),
            common::PREFIX,
            CacheConfig::default(),
            ReadPath::Mmap,
        )
        .unwrap();
        let mut sampler = NodeSampler::new(service.num_nodes(), popularity, 0xAB1).unwrap();
        let nodes: Vec<NodeId> = (0..QUERIES).map(|_| sampler.next_node()).collect();
        // Warm-up: fault the mapped pages in before timing.
        qps(&service, &nodes[..nodes.len() / 4], 4);
        let qps4 = qps(&service, &nodes, 4);
        let qps8 = qps(&service, &nodes, 8);
        assert_eq!(service.metrics().errors(), 0);
        if cores < 8 {
            println!(
                "mmap {label}: 4T {qps4:.0} q/s -> 8T {qps8:.0} q/s \
                 (8T>=4T gate skipped: only {cores} core(s))"
            );
            continue;
        }
        assert!(
            qps8 >= 0.9 * qps4,
            "mmap {label}: 8-thread QPS {qps8:.0} < 90% of 4-thread QPS {qps4:.0}"
        );
        println!("mmap {label}: 4T {qps4:.0} q/s -> 8T {qps8:.0} q/s OK");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

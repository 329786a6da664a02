//! Thread-scaling gate for the zero-copy mmap read path.
//!
//! The mmap path takes no lock per page, so going from 4 to 8 client
//! threads must not lose meaningful throughput: `qps(8) >= 0.9 * qps(4)`
//! on both uniform and Zipf(1.0) traffic. The 10 % tolerance absorbs
//! scheduler noise on shared hosts. Each timed run answers enough
//! queries to take at least 250 ms, 4 and 8 threads alternate over
//! five rounds (every round is printed), and the gate compares the two
//! medians, so one slow run cannot decide it. The comparison only means
//! something with at least 8 cores, so below that the test prints the
//! numbers and skips the assertion.
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

/// Queries of the first sizing run (doubled until a run is long enough).
const FIRST_RUN_QUERIES: usize = 200;

/// Least wall time of one timed run.
const MIN_RUN_SECS: f64 = 0.25;

/// Alternating 4T/8T rounds the gate takes the medians of.
const ROUNDS: usize = 5;

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
        let mut nodes: Vec<NodeId> = (0..FIRST_RUN_QUERIES).map(|_| sampler.next_node()).collect();
        // Warm-up: fault the mapped pages in before timing.
        qps(&service, &nodes, 4);
        // Size the timed runs: double the queries until a run takes at
        // least MIN_RUN_SECS at either thread count.
        while nodes.len() as f64 / qps(&service, &nodes, 4).max(qps(&service, &nodes, 8))
            < MIN_RUN_SECS
        {
            let n = nodes.len();
            nodes.extend((0..n).map(|_| sampler.next_node()));
        }
        let per_run = nodes.len();
        let (mut all4, mut all8) = (Vec::new(), Vec::new());
        for round in 1..=ROUNDS {
            let (q4, q8) = (qps(&service, &nodes, 4), qps(&service, &nodes, 8));
            println!(
                "mmap {label} round {round}: 4T {q4:.0} q/s, 8T {q8:.0} q/s ({per_run} queries)"
            );
            all4.push(q4);
            all8.push(q8);
        }
        let (qps4, qps8) = (median(&mut all4), median(&mut all8));
        assert_eq!(service.metrics().errors(), 0);
        if cores < 8 {
            println!(
                "mmap {label}: median 4T {qps4:.0} q/s -> 8T {qps8:.0} q/s \
                 (8T>=4T gate skipped: only {cores} core(s))"
            );
            continue;
        }
        assert!(
            qps8 >= 0.9 * qps4,
            "mmap {label}: median 8-thread QPS {qps8:.0} < 90% of median 4-thread QPS {qps4:.0}"
        );
        println!("mmap {label}: median 4T {qps4:.0} q/s -> 8T {qps8:.0} q/s OK");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The median of `xs` (the upper one of an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

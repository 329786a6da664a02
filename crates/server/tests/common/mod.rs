//! Shared fixture for the serving tests: a small APB-1 cube on disk,
//! and a closed-loop query client.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::meta::CubeMeta;
use cure_core::sink::DiskSink;
use cure_core::{CubeSchema, NodeId};
use cure_storage::scratch::scratch_dir;
use cure_storage::Catalog;

/// Relation prefix of the fixture cube.
pub const PREFIX: &str = "cube_";

/// Store `apb1_dense(density, scale, seed)` as `facts` in a fresh
/// directory under the temp dir and build its full CURE cube under
/// [`PREFIX`]. Returns the directory (callers open their own catalog
/// over it, with whatever I/O policy they need) and the schema.
pub fn apb_cube(tag: &str, density: f64, scale: u64, seed: u64) -> (PathBuf, Arc<CubeSchema>) {
    let dir = scratch_dir(&format!("serve_{tag}"));
    let catalog = Catalog::open(&dir).unwrap();
    let ds = cure_data::apb::apb1_dense(density, scale, seed);
    ds.store(&catalog, "facts").unwrap();
    let report = {
        let mut sink = DiskSink::new(&catalog, PREFIX, &ds.schema, false, false, None).unwrap();
        CubeBuilder::new(&ds.schema, CubeConfig::default())
            .build_in_memory(&ds.tuples, &mut sink)
            .unwrap()
    };
    CubeMeta {
        prefix: PREFIX.to_string(),
        fact_rel: "facts".to_string(),
        n_dims: ds.schema.num_dims(),
        n_measures: ds.schema.num_measures(),
        dr: false,
        plus: false,
        cat_format: report.stats.cat_format,
        partition_level: None,
        min_support: 1,
    }
    .write(&catalog)
    .unwrap();
    (dir, Arc::new(ds.schema))
}

/// Run `query` on every node of `nodes` from `threads` closed-loop
/// clients sharing one cursor; returns when all are answered.
#[allow(dead_code)] // each test binary compiles this module; not all use it
pub fn closed_loop(nodes: &[NodeId], threads: usize, query: impl Fn(NodeId) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while let Some(&node) = nodes.get(next.fetch_add(1, Ordering::Relaxed)) {
                    query(node);
                }
            });
        }
    });
}

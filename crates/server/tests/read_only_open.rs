//! A query never writes the cube it reads.
//!
//! A bit flip on a read of a node relation's pages once looked like a
//! torn tail to the writer's open, which truncated the file. A reader
//! opens every file read-only, so a flipped read of a node's extent in
//! the cube's segment is a typed corrupt-page error naming the segment,
//! the file keeps its length, and once the faults stop the quarantine
//! repair releases the page and the node answers correctly.

mod common;

use std::sync::Arc;

use cure_query::{CacheConfig, ConcurrentCube, ReadPath};
use cure_serve::{CubeService, QueryOptions, ServeError};
use cure_storage::{Catalog, FaultInjector, IoPolicy, ReadFaultKind};

use common::PREFIX;

#[test]
fn read_faults_on_a_node_tail_page_leave_the_file_alone() {
    let (dir, schema) = common::apb_cube("read_only_open", 0.4, 4000, 0xC11);
    let node = 2;
    let want =
        ConcurrentCube::open(Arc::new(Catalog::open(&dir).unwrap()), Arc::clone(&schema), PREFIX)
            .unwrap()
            .node_query(node)
            .unwrap();

    // Opening the cube reads the last page of the fact table and of
    // AGGREGATES (reads 0 and 1); the next read is the node's NT extent.
    let policy = Arc::new(FaultInjector::chaos_reads(2, 1, 3, ReadFaultKind::FlipBit));
    let catalog = Arc::new(
        Catalog::open_with_policy(&dir, Arc::clone(&policy) as Arc<dyn IoPolicy>).unwrap(),
    );
    let nt = cure_storage::segment::segment_name(PREFIX);
    let heap = catalog.segment_path(PREFIX);
    let len = std::fs::metadata(&heap).unwrap().len();
    let service = CubeService::open_with_read_path(
        Arc::clone(&catalog),
        schema,
        PREFIX,
        CacheConfig::default(),
        ReadPath::Cache,
    )
    .unwrap();

    let opts = QueryOptions::default();
    match service.query(node, &opts) {
        Err(ServeError::Corrupt { relation, .. }) => assert_eq!(relation, nt),
        Err(e) => panic!("expected a corrupt page of {nt}, got {e}"),
        Ok(rows) => panic!("answered {} rows through a corrupt page", rows.len()),
    }
    assert_eq!(std::fs::metadata(&heap).unwrap().len(), len, "the query changed {nt} on disk");
    assert_eq!(service.quarantine_len(), 1);

    // Repair re-verifies the page; it stays quarantined while the flips
    // last and is released once they stop.
    let mut attempts = 0;
    while service.quarantine_len() > 0 && attempts < 10 {
        service.repair_all();
        attempts += 1;
    }
    assert_eq!(policy.read_faults_fired(), 3);
    assert_eq!(service.quarantine_len(), 0, "{:?}", service.quarantine_entries());
    assert_eq!(service.query(node, &opts).unwrap(), want);
    assert_eq!(std::fs::metadata(&heap).unwrap().len(), len);
    let _ = std::fs::remove_dir_all(&dir);
}

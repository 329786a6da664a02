//! Property-based end-to-end tests: random datasets → disk cube → node
//! queries, compared with the naive oracle. Complements the fixed-seed
//! integration tests in `end_to_end.rs` with randomized schemas, variants
//! and workloads.

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::meta::CubeMeta;
use cure_core::sink::DiskSink;
use cure_core::{reference, CubeSchema, Dimension, NodeCoder, Tuples};
use cure_query::CureCube;
use cure_storage::scratch::scratch_dir;
use cure_storage::Catalog;
use proptest::prelude::*;

fn arb_dimension(name: &'static str) -> impl Strategy<Value = Dimension> {
    (2u32..10, 0usize..3).prop_map(move |(leaf_card, extra_levels)| {
        let mut maps = Vec::new();
        let mut card = leaf_card;
        for _ in 0..extra_levels {
            let parent = (card / 2).max(1);
            maps.push((0..card).map(|v| (v as u64 * parent as u64 / card as u64) as u32).collect());
            card = parent;
            if card == 1 {
                break;
            }
        }
        Dimension::linear(name, leaf_card, &maps).expect("block maps")
    })
}

fn arb_case() -> impl Strategy<Value = (CubeSchema, Tuples, bool)> {
    (
        arb_dimension("A"),
        arb_dimension("B"),
        1usize..3,
        proptest::collection::vec((any::<u32>(), any::<u32>(), -15i64..15), 1..80),
        any::<bool>(), // plus variant
    )
        .prop_map(|(a, b, y, raw, plus)| {
            let schema = CubeSchema::new(vec![a, b], y).unwrap();
            let mut t = Tuples::new(2, y);
            for (i, &(x0, x1, m)) in raw.iter().enumerate() {
                let dims = [
                    x0 % schema.dims()[0].leaf_cardinality(),
                    x1 % schema.dims()[1].leaf_cardinality(),
                ];
                let aggs: Vec<i64> = (0..y).map(|k| m + k as i64).collect();
                t.push_fact(&dims, &aggs, i as u64);
            }
            (schema, t, plus)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Disk cubes (plain and CURE+) answer every node like the oracle.
    #[test]
    fn disk_cube_queries_equal_oracle((schema, t, plus) in arb_case()) {
        let dir = scratch_dir("qprop");
        let catalog = Catalog::open(&dir).unwrap();
        let mut heap = catalog
            .create_or_replace("facts", Tuples::fact_schema(2, schema.num_measures()))
            .unwrap();
        t.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut sink = DiskSink::new(&catalog, "c_", &schema, false, plus, None).unwrap();
        let report =
            CubeBuilder::new(&schema, CubeConfig::default()).build_in_memory(&t, &mut sink).unwrap();
        CubeMeta {
            prefix: "c_".into(),
            fact_rel: "facts".into(),
            n_dims: 2,
            n_measures: schema.num_measures(),
            dr: false,
            plus,
            cat_format: report.stats.cat_format,
            partition_level: None,
            min_support: 1,
        }
        .write(&catalog)
        .unwrap();
        let mut cube = CureCube::open(&catalog, &schema, "c_").unwrap();
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let mut got = cube.node_query(id).unwrap();
            got.sort();
            let levels = coder.decode(id).unwrap();
            let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(&schema, &t, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect();
            prop_assert_eq!(got, want, "plus={} node {}", plus, id);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Property-based tests: CURE's output equals the naive oracle for
//! arbitrary small schemas, datasets and configurations.
//!
//! These are the strongest correctness guarantees in the repository: every
//! generated case checks *all* lattice nodes of the cube, across random
//! hierarchy shapes, pool capacities, iceberg thresholds and partitioned
//! executions.

use cure_core::cube::{CubeBuilder, CubeConfig};
use cure_core::partition::build_cure_cube;
use cure_core::{
    reference, CatFormat, CatFormatPolicy, CubeSchema, Dimension, MemCubeReader, MemSink,
    NodeCoder, PlanSpec, SortPolicy, Tuples,
};
use cure_storage::scratch::scratch_dir;
use proptest::prelude::*;

/// Strategy: a random linear-hierarchy dimension with ≤3 levels and small
/// cardinalities.
fn arb_dimension(name: &'static str) -> impl Strategy<Value = Dimension> {
    (2u32..12, 1usize..3).prop_map(move |(leaf_card, extra_levels)| {
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
        Dimension::linear(name, leaf_card, &maps).expect("block maps are consistent")
    })
}

/// Strategy: a 2–3 dimension schema plus a matching random tuple set.
fn arb_dataset() -> impl Strategy<Value = (CubeSchema, Tuples)> {
    (
        arb_dimension("A"),
        arb_dimension("B"),
        proptest::option::of(arb_dimension("C")),
        1usize..3,
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>(), -20i64..20), 1..120),
    )
        .prop_map(|(a, b, c, y, raw)| {
            let mut dims = vec![a, b];
            if let Some(c) = c {
                dims.push(c);
            }
            let schema = CubeSchema::new(dims, y).unwrap();
            let d = schema.num_dims();
            let mut t = Tuples::new(d, y);
            for (i, &(x0, x1, x2, m)) in raw.iter().enumerate() {
                let vals = [x0, x1, x2];
                let dvals: Vec<u32> =
                    (0..d).map(|dd| vals[dd] % schema.dims()[dd].leaf_cardinality()).collect();
                let aggs: Vec<i64> = (0..y).map(|k| m + k as i64).collect();
                t.push_fact(&dvals, &aggs, i as u64);
            }
            (schema, t)
        })
}

fn check_against_oracle(
    schema: &CubeSchema,
    t: &Tuples,
    sink: &MemSink,
    partition_level: Option<usize>,
    min_support: u64,
) -> Result<(), TestCaseError> {
    let reader = MemCubeReader::new(schema, sink, t, partition_level).unwrap();
    let coder = NodeCoder::new(schema);
    for id in coder.all_ids() {
        let mut got = reader.node_contents(id).unwrap();
        got.sort();
        let levels = coder.decode(id).unwrap();
        let want: Vec<(Vec<u32>, Vec<i64>)> =
            reference::iceberg_filter(&reference::compute_node(schema, t, &levels), min_support)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect();
        prop_assert_eq!(got, want, "node {}", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline invariant: for any schema/data, CURE's cube equals the
    /// oracle at every node.
    #[test]
    fn cure_equals_oracle((schema, t) in arb_dataset()) {
        let builder = CubeBuilder::new(&schema, CubeConfig::default());
        let mut sink = MemSink::new(schema.num_measures());
        builder.build_in_memory(&t, &mut sink).unwrap();
        check_against_oracle(&schema, &t, &sink, None, 1)?;
    }

    /// Pool capacity (including 0 and 1) never affects cube *contents*.
    #[test]
    fn pool_capacity_is_content_invariant((schema, t) in arb_dataset(), pool in 0usize..50) {
        let cfg = CubeConfig { pool_capacity: pool, ..CubeConfig::default() };
        let builder = CubeBuilder::new(&schema, cfg);
        let mut sink = MemSink::new(schema.num_measures());
        builder.build_in_memory(&t, &mut sink).unwrap();
        check_against_oracle(&schema, &t, &sink, None, 1)?;
    }

    /// Every forced CAT format yields the same logical cube.
    #[test]
    fn cat_format_is_content_invariant((schema, t) in arb_dataset(), fmt in 0u8..3) {
        let format = match fmt {
            0 => CatFormat::CommonSource,
            1 => CatFormat::Coincidental,
            _ => CatFormat::AsNt,
        };
        let cfg = CubeConfig { cat_policy: CatFormatPolicy::Force(format), ..CubeConfig::default() };
        let mut sink = MemSink::new(schema.num_measures());
        CubeBuilder::new(&schema, cfg).build_in_memory(&t, &mut sink).unwrap();
        check_against_oracle(&schema, &t, &sink, None, 1)?;
    }

    /// Iceberg cubes equal the count-filtered oracle.
    #[test]
    fn iceberg_equals_filtered_oracle((schema, t) in arb_dataset(), min_sup in 1u64..6) {
        let cfg = CubeConfig { min_support: min_sup, ..CubeConfig::default() };
        let mut sink = MemSink::new(schema.num_measures());
        CubeBuilder::new(&schema, cfg).build_in_memory(&t, &mut sink).unwrap();
        check_against_oracle(&schema, &t, &sink, None, min_sup)?;
    }

    /// Sort policy never changes contents.
    #[test]
    fn sort_policy_is_content_invariant((schema, t) in arb_dataset(), comparison in any::<bool>()) {
        let policy = if comparison { SortPolicy::ForceComparison } else { SortPolicy::ForceCounting };
        let cfg = CubeConfig { sort_policy: policy, ..CubeConfig::default() };
        let mut sink = MemSink::new(schema.num_measures());
        CubeBuilder::new(&schema, cfg).build_in_memory(&t, &mut sink).unwrap();
        check_against_oracle(&schema, &t, &sink, None, 1)?;
    }

    /// Min/Max/Sum measure mixes still equal the oracle at every node.
    #[test]
    fn agg_fn_mix_equals_oracle((schema, t) in arb_dataset(), fn_seed in any::<u64>()) {
        use cure_core::AggFn;
        let fns: Vec<AggFn> = (0..schema.num_measures())
            .map(|i| match (fn_seed >> (2 * i)) % 3 {
                0 => AggFn::Sum,
                1 => AggFn::Min,
                _ => AggFn::Max,
            })
            .collect();
        let schema = schema.with_agg_fns(fns).unwrap();
        let mut sink = MemSink::new(schema.num_measures());
        CubeBuilder::new(&schema, CubeConfig::default())
            .build_in_memory(&t, &mut sink)
            .unwrap();
        check_against_oracle(&schema, &t, &sink, None, 1)?;
    }

    /// Node id encode/decode is a bijection for arbitrary level vectors.
    #[test]
    fn node_ids_roundtrip((schema, _t) in arb_dataset(), seed in any::<u64>()) {
        let coder = NodeCoder::new(&schema);
        let mut x = seed | 1;
        for _ in 0..50 {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            let levels: Vec<usize> = (0..schema.num_dims())
                .map(|d| (x.rotate_left(d as u32 * 7) % (schema.dims()[d].num_levels() as u64 + 1)) as usize)
                .collect();
            let id = coder.encode(&levels);
            prop_assert!(id < coder.num_nodes());
            prop_assert_eq!(coder.decode(id).unwrap(), levels);
        }
    }

    /// The analytic plan parent function matches the simulated recursion
    /// tree for arbitrary schemas (unpartitioned and partitioned).
    #[test]
    fn plan_parent_matches_simulation((schema, _t) in arb_dataset()) {
        for partition_level in std::iter::once(None)
            .chain((0..schema.dims()[0].num_levels()).map(Some))
        {
            let plan = match partition_level {
                None => PlanSpec::new(&schema),
                Some(l) => PlanSpec::partitioned(&schema, l).unwrap(),
            };
            let tree = plan.build_tree();
            // Complete coverage, no duplicates.
            let mut ids = tree.order.clone();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len() as u64, plan.coder().num_nodes());
            for &id in &tree.order {
                let levels = plan.coder().decode(id).unwrap();
                let analytic = plan.parent(&levels).map(|p| plan.coder().encode(&p));
                prop_assert_eq!(analytic, tree.parent[&id]);
            }
        }
    }
}

proptest! {
    // Partitioned builds hit the filesystem; keep the case count lower.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The out-of-core driver produces the same logical cube as the
    /// in-memory one, for any budget that forces partitioning.
    #[test]
    fn partitioned_equals_oracle((schema, t) in arb_dataset(), budget_div in 2usize..12) {
        // Store the facts, then build with a budget of tuples/budget_div.
        let dir = scratch_dir("prop_part");
        let catalog = cure_storage::Catalog::open(&dir).unwrap();
        let mut heap = catalog
            .create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), schema.num_measures()))
            .unwrap();
        t.store_fact(&mut heap).unwrap();
        drop(heap);
        let budget = (t.mem_bytes() / budget_div).max(64);
        let cfg = CubeConfig { memory_budget_bytes: budget, ..CubeConfig::default() };
        let mut sink = MemSink::new(schema.num_measures());
        match build_cure_cube(&catalog, "facts", &schema, &cfg, &mut sink, "tmp_", 1) {
            Ok(report) => {
                let level = report.partition.as_ref().map(|p| p.choice.level);
                check_against_oracle(&schema, &t, &sink, level, 1)?;
            }
            Err(cure_core::CubeError::Partitioning(_)) => {
                // Tiny budgets can be infeasible for some random
                // cardinality profiles (§4's rare case) — acceptable.
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Incremental updates (§8 future work, implemented in
    /// `cure_core::update`): base build + delta merge equals a fresh build
    /// of the combined data, at every node, for random splits.
    #[test]
    fn incremental_update_equals_rebuild(
        (schema, all) in arb_dataset(),
        split_pct in 0u32..=100,
    ) {
        use cure_core::meta::CubeMeta;
        use cure_core::sink::DiskSink;
        use cure_core::update::update_cube;

        let n_base = (all.len() as u64 * split_pct as u64 / 100) as usize;
        let mut base = Tuples::new(schema.num_dims(), schema.num_measures());
        let mut delta = Tuples::new(schema.num_dims(), schema.num_measures());
        for i in 0..all.len() {
            let target = if i < n_base { &mut base } else { &mut delta };
            target.push(all.dims_of(i), all.aggs_of(i), 1, all.rowid(i));
        }
        let dir = scratch_dir("prop_upd");
        let catalog = cure_storage::Catalog::open(&dir).unwrap();
        let mut heap = catalog
            .create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), schema.num_measures()))
            .unwrap();
        base.store_fact(&mut heap).unwrap();
        let mut old_sink = DiskSink::new(&catalog, "old_", &schema, false, false, None).unwrap();
        let report = CubeBuilder::new(&schema, CubeConfig::default())
            .build_in_memory(&base, &mut old_sink)
            .unwrap();
        CubeMeta {
            prefix: "old_".into(),
            fact_rel: "facts".into(),
            n_dims: schema.num_dims(),
            n_measures: schema.num_measures(),
            dr: false,
            plus: false,
            cat_format: report.stats.cat_format,
            partition_level: None,
            min_support: 1,
        }
        .write(&catalog)
        .unwrap();
        delta.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut new_sink = MemSink::new(schema.num_measures());
        update_cube(&catalog, &schema, "old_", &delta, &CubeConfig::default(), &mut new_sink)
            .unwrap();
        check_against_oracle(&schema, &all, &new_sink, None, 1)?;
    }
}

/// Strategy: a DAG time-like dimension — day fans out to two incomparable
/// rollups (week-like ÷x, month-like ÷y) that reconverge at a year-like
/// top. `x` and `y` divide the top block size, so both paths are
/// consistent by construction.
fn arb_dag_dimension(name: &'static str) -> impl Strategy<Value = Dimension> {
    (1u32..=3, 0u32..2, 0u32..2).prop_map(move |(scale, xs, ys)| {
        let x = if xs == 0 { 2u32 } else { 3 };
        let y = if ys == 0 { 4u32 } else { 6 };
        let days = 12 * scale;
        let levels = vec![
            cure_core::Level {
                name: "day".into(),
                cardinality: days,
                parents: vec![1, 2],
                leaf_map: vec![],
            },
            cure_core::Level {
                name: "week".into(),
                cardinality: days / x,
                parents: vec![3],
                leaf_map: (0..days).map(|d| d / x).collect(),
            },
            cure_core::Level {
                name: "month".into(),
                cardinality: days / y,
                parents: vec![3],
                leaf_map: (0..days).map(|d| d / y).collect(),
            },
            cure_core::Level {
                name: "year".into(),
                cardinality: scale,
                parents: vec![],
                leaf_map: (0..days).map(|d| d / 12).collect(),
            },
        ];
        Dimension::from_levels(name, levels).expect("divisor maps are consistent")
    })
}

/// Strategy: schema with a linear dim and a DAG dim, plus matching tuples.
fn arb_dag_dataset() -> impl Strategy<Value = (CubeSchema, Tuples)> {
    (
        arb_dimension("A"),
        arb_dag_dimension("T"),
        proptest::collection::vec((any::<u32>(), any::<u32>(), -20i64..20), 1..100),
    )
        .prop_map(|(a, t_dim, raw)| {
            let schema = CubeSchema::new(vec![a, t_dim], 1).unwrap();
            let mut t = Tuples::new(2, 1);
            for (i, &(x0, x1, m)) in raw.iter().enumerate() {
                let dvals = [
                    x0 % schema.dims()[0].leaf_cardinality(),
                    x1 % schema.dims()[1].leaf_cardinality(),
                ];
                t.push_fact(&dvals, &[m], i as u64);
            }
            (schema, t)
        })
}

/// The child→parent value map implied by a dimension's leaf maps: for a
/// consistent hierarchy this is a well-defined function (every leaf that
/// shares a child value shares its parent value).
fn rollup_value_map(dim: &Dimension, child: usize, parent: usize) -> Vec<u32> {
    let mut map = vec![u32::MAX; dim.cardinality(child) as usize];
    for leaf in 0..dim.leaf_cardinality() {
        let c = dim.value_at(child, leaf) as usize;
        let p = dim.value_at(parent, leaf);
        assert!(map[c] == u32::MAX || map[c] == p, "inconsistent rollup map");
        map[c] = p;
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lattice monotonicity across DAG rollups: for every node and every
    /// parent edge of any dimension's level DAG, the parent node's rows
    /// are exactly the child node's rows re-keyed through the
    /// child→parent value map and re-aggregated. This is what makes
    /// bottom-up sharing (and iceberg anti-monotonicity) sound on DAG
    /// hierarchies — including the reconvergent week/month → year edges.
    #[test]
    fn dag_rollup_maps_are_lattice_monotone((schema, t) in arb_dag_dataset()) {
        let coder = NodeCoder::new(&schema);
        for id in coder.all_ids() {
            let levels = coder.decode(id).unwrap();
            for d in 0..schema.num_dims() {
                if coder.is_all(&levels, d) {
                    continue;
                }
                let dim = &schema.dims()[d];
                for &p in &dim.levels()[levels[d]].parents {
                    // Parent node: same levels, dimension d rolled up to p.
                    let mut plevels = levels.clone();
                    plevels[d] = p;
                    let pid = coder.encode(&plevels);
                    let child = reference::compute_node(&schema, &t, &levels);
                    let parent = reference::compute_node(&schema, &t, &plevels);

                    // Which grouping column holds dimension d? (ALL dims
                    // are projected out of the row key.)
                    let col = (0..d).filter(|&dd| !coder.is_all(&levels, dd)).count();
                    let vmap = rollup_value_map(dim, levels[d], p);

                    // Roll the child rows up through the map.
                    let mut rolled: std::collections::BTreeMap<Vec<u32>, (Vec<i64>, u64)> =
                        std::collections::BTreeMap::new();
                    for r in &child {
                        let mut key = r.dims.clone();
                        key[col] = vmap[key[col] as usize];
                        let e = rolled
                            .entry(key)
                            .or_insert_with(|| (vec![0; r.aggs.len()], 0));
                        for (acc, v) in e.0.iter_mut().zip(&r.aggs) {
                            *acc += v;
                        }
                        e.1 += r.count;
                    }
                    let derived: Vec<(Vec<u32>, Vec<i64>, u64)> = rolled
                        .into_iter()
                        .map(|(k, (aggs, count))| (k, aggs, count))
                        .collect();
                    let want: Vec<(Vec<u32>, Vec<i64>, u64)> = parent
                        .iter()
                        .map(|r| (r.dims.clone(), r.aggs.clone(), r.count))
                        .collect();
                    prop_assert_eq!(
                        derived,
                        want,
                        "node {} dim {} level {} -> parent level {}: parent not derivable from child",
                        coder.name(&schema, id),
                        d,
                        levels[d],
                        p
                    );
                    let _ = pid;
                }
            }
        }
    }
}

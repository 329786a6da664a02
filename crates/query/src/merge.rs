//! Partial-aggregate merge: combining per-shard node answers into the
//! global answer.
//!
//! A CURE cube over a disjoint union of fact partitions equals the
//! merge of the per-partition cubes, grouping value by grouping value —
//! that is exactly the distributivity the paper's partitioned *N*-pass
//! (§4, observation 3) relies on, lifted from partitions inside one
//! build to sub-cubes across shards. [`merge_partials`] folds any
//! number of per-shard row sets through [`AggFn::merge`] keyed on the
//! grouping values, producing a deterministic (sorted) global row set.
//!
//! Iceberg thresholds are **post-merge** semantics: a group's support in
//! one shard says nothing about its global support, so sub-cubes must be
//! complete and [`iceberg_filter_merged`] is applied to the *merged*
//! rows — mirroring
//! [`iceberg_count_query`](crate::CureCube::iceberg_count_query)'s
//! `aggs[count_measure] > min_count` contract on the unsharded path.

use std::collections::BTreeMap;

use cure_core::AggFn;

use crate::CubeRow;

/// Merge per-shard partial answers for one lattice node into the global
/// answer. Rows with equal grouping values are combined element-wise
/// through `agg_fns`; rows whose group appears in only one shard pass
/// through unchanged; empty partials are neutral. Output rows are sorted
/// by grouping values, so the result is deterministic regardless of
/// shard arrival order.
pub fn merge_partials(agg_fns: &[AggFn], parts: Vec<Vec<CubeRow>>) -> Vec<CubeRow> {
    let mut merged: BTreeMap<Vec<u32>, Vec<i64>> = BTreeMap::new();
    for part in parts {
        for (dims, aggs) in part {
            match merged.entry(dims) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(aggs);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    AggFn::merge_all(agg_fns, e.get_mut(), &aggs);
                }
            }
        }
    }
    merged.into_iter().collect()
}

/// Apply an iceberg threshold to *merged* rows: keep groups whose
/// `count_measure` aggregate is strictly greater than `min_count` (the
/// same contract as the unsharded
/// [`iceberg_count_query`](crate::CureCube::iceberg_count_query)).
/// Must run after [`merge_partials`] — filtering per shard would drop
/// groups whose support only clears the bar globally.
pub fn iceberg_filter_merged(
    rows: Vec<CubeRow>,
    min_count: i64,
    count_measure: usize,
) -> Vec<CubeRow> {
    rows.into_iter()
        .filter(|(_, aggs)| aggs.get(count_measure).is_some_and(|&c| c > min_count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(dims: &[u32], aggs: &[i64]) -> CubeRow {
        (dims.to_vec(), aggs.to_vec())
    }

    #[test]
    fn disjoint_groups_pass_through() {
        let out = merge_partials(&[AggFn::Sum], vec![vec![row(&[0], &[1])], vec![row(&[1], &[2])]]);
        assert_eq!(out, vec![row(&[0], &[1]), row(&[1], &[2])]);
    }

    #[test]
    fn shared_groups_merge_per_measure() {
        let fns = [AggFn::Sum, AggFn::Min, AggFn::Max];
        let out = merge_partials(
            &fns,
            vec![vec![row(&[3, 1], &[10, 5, 5])], vec![row(&[3, 1], &[7, 9, 9])]],
        );
        assert_eq!(out, vec![row(&[3, 1], &[17, 5, 9])]);
    }

    #[test]
    fn empty_partials_are_neutral() {
        let out = merge_partials(&[AggFn::Sum], vec![vec![], vec![row(&[2], &[4])], vec![]]);
        assert_eq!(out, vec![row(&[2], &[4])]);
        assert!(merge_partials(&[AggFn::Sum], vec![vec![], vec![]]).is_empty());
        assert!(merge_partials(&[AggFn::Sum], Vec::new()).is_empty());
    }

    #[test]
    fn output_is_sorted_and_order_invariant() {
        let a = vec![row(&[5], &[1]), row(&[1], &[1])];
        let b = vec![row(&[3], &[1])];
        let ab = merge_partials(&[AggFn::Sum], vec![a.clone(), b.clone()]);
        let ba = merge_partials(&[AggFn::Sum], vec![b, a]);
        assert_eq!(ab, ba);
        assert_eq!(ab, vec![row(&[1], &[1]), row(&[3], &[1]), row(&[5], &[1])]);
    }

    #[test]
    fn merge_is_distributive_over_any_split() {
        // Merging shard partials equals aggregating the flat stream —
        // the property sharded serving rests on.
        let rows = [
            ([0u32, 0u32], [3i64, 3i64]),
            ([0, 0], [5, 5]),
            ([0, 1], [2, 2]),
            ([1, 0], [-4, -4]),
            ([0, 0], [1, 1]),
            ([1, 0], [9, 9]),
        ];
        let fns = [AggFn::Sum, AggFn::Max];
        let flat = merge_partials(&fns, vec![rows.iter().map(|(d, a)| row(d, a)).collect()]);
        for split in 1..rows.len() {
            let (l, r) = rows.split_at(split);
            let sharded = merge_partials(
                &fns,
                vec![
                    merge_partials(&fns, vec![l.iter().map(|(d, a)| row(d, a)).collect()]),
                    merge_partials(&fns, vec![r.iter().map(|(d, a)| row(d, a)).collect()]),
                ],
            );
            assert_eq!(sharded, flat, "split at {split}");
        }
    }

    #[test]
    fn iceberg_applies_post_merge_not_per_shard() {
        // Support 2 in each of two shards: below a min_count of 3 per
        // shard, above it after the merge.
        let fns = [AggFn::Sum];
        let parts = vec![vec![row(&[7], &[2])], vec![row(&[7], &[2])]];
        let per_shard_filtered: Vec<CubeRow> =
            parts.iter().flat_map(|p| iceberg_filter_merged(p.clone(), 3, 0)).collect();
        assert!(per_shard_filtered.is_empty(), "per-shard filtering loses the group");
        let merged = merge_partials(&fns, parts);
        let kept = iceberg_filter_merged(merged, 3, 0);
        assert_eq!(kept, vec![row(&[7], &[4])]);
    }

    #[test]
    fn iceberg_threshold_is_strict() {
        let rows = vec![row(&[0], &[3]), row(&[1], &[4])];
        let kept = iceberg_filter_merged(rows, 3, 0);
        assert_eq!(kept, vec![row(&[1], &[4])]);
    }
}

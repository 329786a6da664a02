//! The answer oracle: GROUP BY digests computed from the generated facts.
//!
//! A node's answer is a set of `(grouping values, aggregates)` rows. Its
//! [`Digest`] is the row count plus the wrapping sum of a 64-bit hash of
//! each row, so it does not depend on row order and any changed, missing
//! or extra row changes it (up to a 2⁻⁶⁴ collision). The oracle computes
//! the digest of every lattice node straight from the fact rows, with no
//! code from the cube builder, for every epoch of an append-only fact
//! history in one sorted pass per node.

use cure_core::{AggFn, CubeSchema, NodeCoder, Tuples};
use cure_query::CubeRow;

/// Order-independent fingerprint of one node answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Number of groups (rows).
    pub rows: u64,
    /// Wrapping sum of the per-row hashes.
    pub sum: u64,
}

impl Digest {
    /// Digest of an answer as a cube reader returns it.
    pub fn of_rows(rows: &[CubeRow]) -> Digest {
        let mut d = Digest::default();
        for (dims, aggs) in rows {
            d.rows += 1;
            d.sum = d.sum.wrapping_add(row_hash(dims, aggs));
        }
        d
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn row_hash(dims: &[u32], aggs: &[i64]) -> u64 {
    let mut h = mix(dims.len() as u64);
    for &v in dims {
        h = mix(h ^ u64::from(v));
    }
    for &a in aggs {
        h = mix(h ^ a as u64);
    }
    h
}

/// Digests of every node (`[epoch][node id]`) for a fact history where
/// epoch `e` sees the first `epoch_ends[e]` rows of `facts`.
///
/// # Panics
/// If `epoch_ends` is not non-decreasing or exceeds `facts.len()`, or the
/// dimension cardinalities do not pack into a 64-bit group key.
pub fn epoch_digests(
    schema: &CubeSchema,
    facts: &Tuples,
    epoch_ends: &[usize],
) -> Vec<Vec<Digest>> {
    assert!(epoch_ends.windows(2).all(|w| w[0] <= w[1]), "epochs must only append");
    let visible = epoch_ends.last().copied().unwrap_or(0);
    assert!(visible <= facts.len(), "epoch beyond the generated facts");
    let coder = NodeCoder::new(schema);
    let bits: Vec<u32> =
        schema.dims().iter().map(|d| u32::BITS - d.leaf_cardinality().leading_zeros()).collect();
    assert!(bits.iter().sum::<u32>() <= 64, "group keys must pack into 64 bits");
    let epoch_of = |row: usize| epoch_ends.partition_point(|&end| end <= row);
    let fns = schema.agg_fns();
    let n_epochs = epoch_ends.len();
    let mut out = vec![Vec::with_capacity(coder.num_nodes() as usize); n_epochs];
    let mut keys: Vec<(u64, u32)> = Vec::with_capacity(visible);
    for id in coder.all_ids() {
        let levels = coder.decode(id).expect("dense node ids");
        let grouped: Vec<usize> =
            (0..schema.num_dims()).filter(|&d| !coder.is_all(&levels, d)).collect();
        let group_of = |row: usize| -> Vec<u32> {
            grouped
                .iter()
                .map(|&d| schema.dims()[d].value_at(levels[d], facts.dim(row, d)))
                .collect()
        };
        keys.clear();
        for row in 0..visible {
            let mut key = 0u64;
            for (&d, v) in grouped.iter().zip(group_of(row)) {
                key = (key << bits[d]) | u64::from(v);
            }
            keys.push((key, row as u32));
        }
        keys.sort_unstable();
        // Per-epoch changes, prefix-summed below: a group contributes its
        // hash from the epoch it appears in, and swaps old for new hash in
        // each later epoch that adds rows to it.
        let mut d_sum = vec![0u64; n_epochs];
        let mut d_rows = vec![0u64; n_epochs];
        let mut i = 0;
        while i < keys.len() {
            let first = keys[i].1 as usize;
            let dims = group_of(first);
            let mut acc = facts.aggs_of(first).to_vec();
            let mut cur_epoch = epoch_of(first);
            let mut prev: Option<u64> = None;
            let mut j = i + 1;
            loop {
                let next = keys.get(j).filter(|k| k.0 == keys[i].0).map(|k| k.1 as usize);
                let next_epoch = next.map(epoch_of);
                if next_epoch != Some(cur_epoch) {
                    let h = row_hash(&dims, &acc);
                    match prev {
                        None => d_rows[cur_epoch] += 1,
                        Some(p) => d_sum[cur_epoch] = d_sum[cur_epoch].wrapping_sub(p),
                    }
                    d_sum[cur_epoch] = d_sum[cur_epoch].wrapping_add(h);
                    prev = Some(h);
                }
                let Some(row) = next else { break };
                AggFn::merge_all(fns, &mut acc, facts.aggs_of(row));
                cur_epoch = next_epoch.expect("set with next");
                j += 1;
            }
            i = j;
        }
        let mut running = Digest::default();
        for e in 0..n_epochs {
            running.rows += d_rows[e];
            running.sum = running.sum.wrapping_add(d_sum[e]);
            out[e].push(running);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cure_core::{reference, CubeConfig, Dimension};
    use cure_query::{CacheConfig, ConcurrentCube, ReadPath};
    use cure_storage::Catalog;
    use std::sync::Arc;

    fn tiny() -> (CubeSchema, Tuples) {
        let a = Dimension::linear("A", 6, &[vec![0, 0, 1, 1, 2, 2], vec![0, 0, 1]]).unwrap();
        let b = Dimension::flat("B", 4);
        let c = Dimension::linear("C", 5, &[vec![0, 1, 1, 0, 1]]).unwrap();
        let schema = CubeSchema::new(vec![a, b, c], 2).unwrap();
        let mut t = Tuples::new(3, 2);
        let mut x = 7u64;
        for row in 0..300u64 {
            x = mix(x);
            let dims = [(x % 6) as u32, ((x >> 8) % 4) as u32, ((x >> 16) % 5) as u32];
            t.push_fact(&dims, &[(x >> 24) as i64 % 50, (x >> 32) as i64 % 1000], row);
        }
        (schema, t)
    }

    fn prefix(t: &Tuples, n: usize) -> Tuples {
        let mut p = Tuples::new(t.n_dims(), t.n_measures());
        for i in 0..n {
            p.push_fact(t.dims_of(i), t.aggs_of(i), i as u64);
        }
        p
    }

    #[test]
    fn digests_match_the_reference_group_by() {
        let (schema, t) = tiny();
        let coder = NodeCoder::new(&schema);
        let ends = [120, 120, 250, 300];
        let digests = epoch_digests(&schema, &t, &ends);
        for (e, &end) in ends.iter().enumerate() {
            let cube = reference::compute_cube(&schema, &prefix(&t, end));
            for id in coder.all_ids() {
                let want = Digest::of_rows(&reference::pairs(&cube[&id]));
                assert_eq!(digests[e][id as usize], want, "epoch {e} node {id}");
            }
        }
    }

    #[test]
    fn digest_ignores_order_and_catches_any_change() {
        let rows: Vec<CubeRow> = vec![(vec![1, 2], vec![3, 4]), (vec![2, 2], vec![5, 6])];
        let mut rev = rows.clone();
        rev.reverse();
        assert_eq!(Digest::of_rows(&rows), Digest::of_rows(&rev));
        let mut wrong = rows.clone();
        wrong[1].1[0] += 1;
        assert_ne!(Digest::of_rows(&rows), Digest::of_rows(&wrong));
        assert_ne!(Digest::of_rows(&rows), Digest::of_rows(&rows[..1]));
        let swapped: Vec<CubeRow> = vec![(vec![2, 1], vec![3, 4]), (vec![2, 2], vec![5, 6])];
        assert_ne!(Digest::of_rows(&rows), Digest::of_rows(&swapped));
    }

    #[test]
    fn durable_cube_answers_match_the_oracle() {
        let (schema, t) = tiny();
        let dir = std::env::temp_dir().join(format!("perfbench_oracle_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Arc::new(Catalog::open(&dir).unwrap());
        let mut heap = catalog.create_or_replace("facts", Tuples::fact_schema(3, 2)).unwrap();
        t.store_fact(&mut heap).unwrap();
        drop(heap);
        let cfg = CubeConfig { memory_budget_bytes: 8 << 10, ..CubeConfig::default() };
        crate::workloads::durable_build(&catalog, &schema, &cfg, "facts", "cube_", 2).unwrap();
        let digests = epoch_digests(&schema, &t, &[t.len()]);
        let cube = ConcurrentCube::open_with_read_path(
            Arc::clone(&catalog),
            Arc::new(schema.clone()),
            "cube_",
            CacheConfig::default(),
            ReadPath::Mmap,
        )
        .unwrap();
        for id in NodeCoder::new(&schema).all_ids() {
            let rows = cube.node_query(id).unwrap();
            assert_eq!(Digest::of_rows(&rows), digests[0][id as usize], "node {id}");
        }
        drop(cube);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

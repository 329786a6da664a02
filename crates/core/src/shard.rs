//! Partition-scoped shard builds: N independent sub-cubes over a
//! disjoint split of one fact relation.
//!
//! The paper's partition-level processing (§4) already treats a fact
//! subset as an independently cube-able unit; sharding promotes that to
//! the deployment level. [`build_shard_cubes`] splits a fact relation
//! row-deterministically into `N` disjoint shard relations
//! (`shard<k>_facts`), builds a **complete** CURE sub-cube over each
//! (`shard<k>_cube_…`) through the durable pipeline — so every shard
//! ends with a sealed, CRC-guarded [`BuildManifest`](crate::BuildManifest)
//! ready for snapshot replication — and records the topology in the
//! catalog ([`write_shard_count`]).
//!
//! Sub-cubes are always built with `min_support = 1` even when the
//! logical cube is iceberg: a group's support in one shard says nothing
//! about its global support, so iceberg thresholds are only meaningful
//! *after* the scatter-gather merge (cure-query's partial-aggregate
//! merge applies them post-merge).
//!
//! Everything under one shard shares the name prefix `shard<k>_`
//! (facts, cube relations, meta blob, manifest), so a single
//! prefix-scoped snapshot export replicates a whole shard.

// Part of the durable build path: return typed errors instead of
// panicking (clippy.toml exempts the test modules).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use cure_storage::Catalog;

use crate::cube::{BuildReport, CubeConfig};
use crate::durable::{build_cure_cube_durable, DurableOptions};
use crate::error::{CubeError, Result};
use crate::hierarchy::CubeSchema;
use crate::meta::CubeMeta;
use crate::schema_blob::write_schema_blob;
use crate::sink::DiskSink;
use crate::tuples::Tuples;

/// Name prefix covering every object of shard `k`.
pub fn shard_prefix(k: usize) -> String {
    format!("shard{k}_")
}

/// The fact relation holding shard `k`'s rows.
pub fn shard_fact_rel(k: usize) -> String {
    format!("shard{k}_facts")
}

/// The cube-relation prefix of shard `k`'s sub-cube.
pub fn shard_cube_prefix(k: usize) -> String {
    format!("shard{k}_cube_")
}

/// The spill-partition prefix of shard `k`'s build.
fn shard_part_prefix(k: usize) -> String {
    format!("shard{k}_part_")
}

/// Catalog blob recording how many shards were built.
const TOPOLOGY_BLOB: &str = "shard_topology";

/// Persist the shard count so serving layers can self-discover it.
pub fn write_shard_count(catalog: &Catalog, shards: usize) -> Result<()> {
    catalog.write_blob(TOPOLOGY_BLOB, format!("shards={shards}\n").as_bytes())?;
    Ok(())
}

/// Read the shard count recorded by [`write_shard_count`], if any.
pub fn read_shard_count(catalog: &Catalog) -> Result<Option<usize>> {
    if !catalog.blob_exists(TOPOLOGY_BLOB) {
        return Ok(None);
    }
    let bytes = catalog.read_blob(TOPOLOGY_BLOB)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| CubeError::Schema("shard topology blob is not UTF-8".into()))?;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("shards=") {
            let n: usize = v
                .trim()
                .parse()
                .map_err(|_| CubeError::Schema(format!("bad shard count '{v}'")))?;
            return Ok(Some(n));
        }
    }
    Err(CubeError::Schema("shard topology blob missing 'shards='".into()))
}

/// What one sharded build produced.
#[derive(Debug, Clone)]
pub struct ShardBuildReport {
    /// Number of shards built.
    pub shards: usize,
    /// Fact rows assigned to each shard (disjoint, sums to the input).
    pub rows_per_shard: Vec<u64>,
    /// The per-shard build reports, in shard order.
    pub reports: Vec<BuildReport>,
}

/// Split `fact_rel` into `shards` disjoint shard fact relations by
/// round-robin on the dense row index (`row i → shard i % N`):
/// deterministic, balanced to within one row, and independent of the
/// dimension values so no shard inherits the data's skew. Row-ids are
/// renumbered densely per shard. Returns the per-shard row counts.
pub fn split_fact_shards(
    catalog: &Catalog,
    fact_rel: &str,
    schema: &CubeSchema,
    shards: usize,
) -> Result<Vec<u64>> {
    if shards == 0 {
        return Err(CubeError::Config("shard count must be at least 1".into()));
    }
    let d = schema.num_dims();
    let y = schema.num_measures();
    let fact = catalog.open_relation(fact_rel)?;
    let all = Tuples::load_fact(&fact, d, y)?;
    let mut parts: Vec<Tuples> = (0..shards).map(|_| Tuples::new(d, y)).collect();
    for t in 0..all.len() {
        let part = &mut parts[t % shards];
        let rowid = part.len() as u64;
        part.push_fact(all.dims_of(t), all.aggs_of(t), rowid);
    }
    let mut rows = Vec::with_capacity(shards);
    for (k, part) in parts.iter().enumerate() {
        let mut rel = catalog.create_or_replace(&shard_fact_rel(k), Tuples::fact_schema(d, y))?;
        part.store_fact(&mut rel)?;
        rel.flush()?;
        rel.sync()?;
        rows.push(part.len() as u64);
    }
    catalog.sync_dir()?;
    Ok(rows)
}

/// Build `shards` partition-scoped sub-cubes over `fact_rel`: split the
/// facts ([`split_fact_shards`]), run the durable build per shard (each
/// sub-cube gets its own sealed manifest), write per-shard [`CubeMeta`],
/// and record the topology. `cfg.min_support` is ignored for the
/// sub-cubes (forced to 1 — see the module docs); callers apply iceberg
/// thresholds after the merge.
pub fn build_shard_cubes(
    catalog: &Catalog,
    fact_rel: &str,
    schema: &CubeSchema,
    cfg: &CubeConfig,
    shards: usize,
    threads: usize,
) -> Result<ShardBuildReport> {
    let rows_per_shard = split_fact_shards(catalog, fact_rel, schema, shards)?;
    let sub_cfg = CubeConfig { min_support: 1, ..cfg.clone() };
    let opts = DurableOptions { resume: false, threads: threads.max(1) };
    let mut reports = Vec::with_capacity(shards);
    for k in 0..shards {
        let cube_prefix = shard_cube_prefix(k);
        let mut sink = DiskSink::new(catalog, cube_prefix.clone(), schema, false, false, None)?;
        let durable = build_cure_cube_durable(
            catalog,
            &shard_fact_rel(k),
            schema,
            &sub_cfg,
            &mut sink,
            &shard_part_prefix(k),
            &opts,
        )?;
        let report = durable.report;
        CubeMeta {
            prefix: cube_prefix,
            fact_rel: shard_fact_rel(k),
            n_dims: schema.num_dims(),
            n_measures: schema.num_measures(),
            dr: false,
            plus: false,
            cat_format: report.stats.cat_format,
            partition_level: report.partition.as_ref().map(|p| p.choice.level),
            min_support: 1,
        }
        .write(catalog)?;
        reports.push(report);
    }
    // Make the catalog self-describing: shard-serve processes open a
    // replica dir with nothing but this blob and the topology.
    write_schema_blob(catalog, schema)?;
    write_shard_count(catalog, shards)?;
    Ok(ShardBuildReport { shards, rows_per_shard, reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Dimension;
    use crate::manifest::{BuildManifest, BuildPhase};
    use cure_storage::scratch::scratch_dir;

    fn fresh_catalog(tag: &str) -> Catalog {
        let dir = scratch_dir(&format!("shard_{tag}"));
        Catalog::open(&dir).unwrap()
    }

    fn two_dim_schema() -> CubeSchema {
        let a = Dimension::linear("A", 4, &[vec![0, 0, 1, 1]]).unwrap();
        let b = Dimension::flat("B", 3);
        CubeSchema::new(vec![a, b], 1).unwrap()
    }

    fn store_facts(catalog: &Catalog, schema: &CubeSchema, n: usize) {
        let d = schema.num_dims();
        let y = schema.num_measures();
        let mut t = Tuples::new(d, y);
        for i in 0..n {
            t.push_fact(&[(i % 4) as u32, (i % 3) as u32], &[i as i64], i as u64);
        }
        let mut rel = catalog.create_relation("facts", Tuples::fact_schema(d, y)).unwrap();
        t.store_fact(&mut rel).unwrap();
        rel.flush().unwrap();
        rel.sync().unwrap();
    }

    #[test]
    fn split_is_disjoint_balanced_and_deterministic() {
        let catalog = fresh_catalog("split");
        let schema = two_dim_schema();
        store_facts(&catalog, &schema, 11);
        let rows = split_fact_shards(&catalog, "facts", &schema, 3).unwrap();
        assert_eq!(rows, vec![4, 4, 3]);
        // Re-splitting produces the same assignment.
        let rows2 = split_fact_shards(&catalog, "facts", &schema, 3).unwrap();
        assert_eq!(rows, rows2);
        // Shard facts are dense and disjoint: total row count matches.
        let total: u64 =
            (0..3).map(|k| catalog.open_relation(&shard_fact_rel(k)).unwrap().num_rows()).sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn build_seals_every_shard_manifest() {
        let catalog = fresh_catalog("build");
        let schema = two_dim_schema();
        store_facts(&catalog, &schema, 30);
        let report =
            build_shard_cubes(&catalog, "facts", &schema, &CubeConfig::default(), 2, 1).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.rows_per_shard, vec![15, 15]);
        for k in 0..2 {
            let m = BuildManifest::load(&catalog, &shard_cube_prefix(k)).unwrap().unwrap();
            assert_eq!(m.phase, BuildPhase::Complete);
            let meta = CubeMeta::read(&catalog, &shard_cube_prefix(k)).unwrap();
            assert_eq!(meta.fact_rel, shard_fact_rel(k));
            assert_eq!(meta.min_support, 1);
        }
        assert_eq!(read_shard_count(&catalog).unwrap(), Some(2));
    }

    #[test]
    fn iceberg_config_builds_complete_sub_cubes() {
        let catalog = fresh_catalog("iceberg");
        let schema = two_dim_schema();
        store_facts(&catalog, &schema, 24);
        let cfg = CubeConfig { min_support: 3, ..CubeConfig::default() };
        build_shard_cubes(&catalog, "facts", &schema, &cfg, 2, 1).unwrap();
        for k in 0..2 {
            assert_eq!(CubeMeta::read(&catalog, &shard_cube_prefix(k)).unwrap().min_support, 1);
        }
    }

    #[test]
    fn more_shards_than_rows_leaves_empty_shards() {
        let catalog = fresh_catalog("empty");
        let schema = two_dim_schema();
        store_facts(&catalog, &schema, 2);
        let report =
            build_shard_cubes(&catalog, "facts", &schema, &CubeConfig::default(), 4, 1).unwrap();
        assert_eq!(report.rows_per_shard, vec![1, 1, 0, 0]);
        for k in 0..4 {
            let m = BuildManifest::load(&catalog, &shard_cube_prefix(k)).unwrap().unwrap();
            assert_eq!(m.phase, BuildPhase::Complete);
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let catalog = fresh_catalog("zero");
        let schema = two_dim_schema();
        store_facts(&catalog, &schema, 4);
        assert!(split_fact_shards(&catalog, "facts", &schema, 0).is_err());
    }
}

//! The durable build manifest: the journal behind crash-safe construction.
//!
//! A partitioned CURE build ([`crate::durable::build_cure_cube_durable`])
//! records its progress in `<catalog dir>/<cube prefix>manifest.json`. The
//! file is replaced atomically ([`cure_storage::atomic_write`]: temp file +
//! fsync + rename + directory fsync) and guarded by a CRC32 over the
//! manifest body, so after a crash it is either absent, a complete old
//! version, or a complete new version — never a torn mix. Recovery trusts
//! only what the manifest journals:
//!
//! * **`Partitioning`** — the partitioning scan was in flight; nothing is
//!   sealed. Recovery restarts the build from scratch.
//! * **`Passes`** — the partitions and the aggregated relation *N* are
//!   sealed (flushed, fsynced, row counts journaled), and `sink` holds the
//!   last durable [`SinkCheckpoint`]: the segment's page count and extent
//!   table, and `AGGREGATES`' row count. Recovery validates the sealed
//!   inputs by a full checksummed scan, truncates the segment and
//!   `AGGREGATES` back to the journal, drops unjournaled relations, and
//!   resumes from partition `completed_partitions`.
//! * **`Complete`** — the build finished; `stats` holds the final numbers.
//!   Resuming is a no-op that returns the journaled report.
//!
//! Every journal entry is written *after* the data it describes is on
//! stable storage (write-ahead of nothing): the manifest never references
//! rows that a crash could take away.

// Saved from the durable build's checkpoint hook on the parallel pool's
// merger: return typed errors instead of panicking (clippy.toml exempts
// the test modules).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use cure_storage::{Catalog, Directory, SegmentCheckpoint};
use serde_json::Value;

use crate::error::Result;
use crate::hierarchy::LevelIdx;
use crate::journal::Journal;
use crate::partition::PartitionChoice;
use crate::signature::PoolDecisionState;
use crate::sink::{CatFormat, SinkCheckpoint, SinkStats};

const J: Journal = Journal { label: "build manifest" };

/// Manifest format version (bumped on incompatible layout changes).
pub const MANIFEST_VERSION: u64 = 2;

/// Which stage a durable build had durably reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildPhase {
    /// The partitioning scan is (or was) in flight; nothing is sealed.
    Partitioning,
    /// Partitions and *N* are sealed; per-partition passes are running.
    Passes,
    /// The build finished; the cube is fully on disk.
    Complete,
}

impl BuildPhase {
    fn as_str(self) -> &'static str {
        match self {
            BuildPhase::Partitioning => "partitioning",
            BuildPhase::Passes => "passes",
            BuildPhase::Complete => "complete",
        }
    }

    fn parse(s: &str) -> Result<Self> {
        match s {
            "partitioning" => Ok(BuildPhase::Partitioning),
            "passes" => Ok(BuildPhase::Passes),
            "complete" => Ok(BuildPhase::Complete),
            other => Err(J.err(format!("unknown phase '{other}'"))),
        }
    }
}

/// The durable build journal. See the module docs for the protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildManifest {
    /// Stage durably reached.
    pub phase: BuildPhase,
    /// Relation-name prefix of the cube being built.
    pub cube_prefix: String,
    /// Relation-name prefix of the temporary partition relations.
    pub part_prefix: String,
    /// The fact relation the build reads.
    pub fact_rel: String,
    /// CURE_DR build (NTs store materialized dimension values).
    pub dr: bool,
    /// Signature-pool capacity of the original run (must match on resume —
    /// flush boundaries determine the stored bytes).
    pub pool_capacity: usize,
    /// Iceberg minimum support of the original run.
    pub min_support: u64,
    /// The §4 level selection made before partitioning.
    pub choice: PartitionChoice,
    /// Sealed partition relations and their row counts, in pass order.
    pub partitions: Vec<(String, u64)>,
    /// Name of the sealed relation holding the aggregated relation *N*.
    pub n_rel: String,
    /// Rows of *N*.
    pub n_rows: u64,
    /// Largest partition (skew indicator, for the final report).
    pub max_partition_rows: u64,
    /// Partition passes completed (and checkpointed) so far.
    pub completed_partitions: usize,
    /// Counting-sort invocations accumulated over completed passes.
    pub counting_sorts: u64,
    /// Comparison-sort invocations accumulated over completed passes.
    pub comparison_sorts: u64,
    /// The signature pool's decision machinery at the last checkpoint.
    pub pool: PoolDecisionState,
    /// The sink's durable progress at the last checkpoint.
    pub sink: SinkCheckpoint,
    /// Final cube statistics (phase `Complete` only).
    pub stats: Option<SinkStats>,
}

fn fmt_cat(f: Option<CatFormat>) -> &'static str {
    match f {
        None => "none",
        Some(CatFormat::CommonSource) => "a",
        Some(CatFormat::Coincidental) => "b",
        Some(CatFormat::AsNt) => "nt",
    }
}

fn parse_cat(s: &str) -> Result<Option<CatFormat>> {
    match s {
        "none" => Ok(None),
        "a" => Ok(Some(CatFormat::CommonSource)),
        "b" => Ok(Some(CatFormat::Coincidental)),
        "nt" => Ok(Some(CatFormat::AsNt)),
        other => Err(J.err(format!("unknown cat format '{other}'"))),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn rel_list(rels: &[(String, u64)]) -> Value {
    Value::Array(
        rels.iter()
            .map(|(n, r)| Value::Array(vec![Value::from(n.as_str()), Value::from(*r)]))
            .collect(),
    )
}

/// Lower-case hex of `bytes`.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The journaled segment checkpoint: its page count, and its extent
/// table as the hex of the segment directory's encoding (checked by the
/// same decoder that reads a sealed segment).
fn segment_checkpoint(sink: &Value) -> Result<SegmentCheckpoint> {
    let pages = J.u64(sink, "segment_pages")?;
    let text = J.str(sink, "extents")?;
    if !text.len().is_multiple_of(2) || !text.is_ascii() {
        return Err(J.err("extents: not hex"));
    }
    let bytes = (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16))
        .collect::<std::result::Result<Vec<u8>, _>>()
        .map_err(|e| J.err(format!("extents: {e}")))?;
    let directory = Directory::decode(&bytes, pages).map_err(|e| J.err(format!("extents: {e}")))?;
    Ok(SegmentCheckpoint { pages, directory })
}

fn get_rels(v: &Value, key: &str) -> Result<Vec<(String, u64)>> {
    let arr =
        J.get(v, key)?.as_array().ok_or_else(|| J.err(format!("field '{key}' is not an array")))?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let pair =
            item.as_array().filter(|p| p.len() == 2).ok_or_else(|| J.err("bad relation entry"))?;
        let name = pair[0].as_str().ok_or_else(|| J.err("relation name is not a string"))?;
        let rows = pair[1].as_u64().ok_or_else(|| J.err("relation rows is not an integer"))?;
        out.push((name.to_string(), rows));
    }
    Ok(out)
}

impl BuildManifest {
    /// File name of the manifest for a cube prefix (lives next to the
    /// catalog's relations, but is not itself a catalog object).
    pub fn file_name(cube_prefix: &str) -> String {
        format!("{cube_prefix}manifest.json")
    }

    /// Filesystem path of the manifest for `cube_prefix` in `catalog`.
    pub fn path(catalog: &Catalog, cube_prefix: &str) -> PathBuf {
        catalog.dir().join(Self::file_name(cube_prefix))
    }

    /// Whether a manifest exists for `cube_prefix`.
    pub fn exists(catalog: &Catalog, cube_prefix: &str) -> bool {
        Self::path(catalog, cube_prefix).is_file()
    }

    /// Atomically replace the on-disk manifest with this state.
    pub fn save(&self, catalog: &Catalog) -> Result<()> {
        J.save(catalog, &Self::path(catalog, &self.cube_prefix), self.to_json())
    }

    /// Load the manifest for `cube_prefix`, if one exists and is intact.
    ///
    /// Returns `Ok(None)` when the file is absent. A file that fails to
    /// parse or whose CRC does not match is treated the same way (with a
    /// warning): an interrupted *first* `save` can leave a temp file but
    /// never a torn manifest, so a damaged manifest means external
    /// corruption — the safe answer is a fresh build, not an error.
    pub fn load(catalog: &Catalog, cube_prefix: &str) -> Result<Option<BuildManifest>> {
        let path = Self::path(catalog, cube_prefix);
        let Some(m) = J.load(&path, Self::parse)? else {
            return Ok(None);
        };
        if m.cube_prefix != cube_prefix {
            eprintln!(
                "cure-core: warning: {} journals prefix '{}', expected '{}'; ignoring",
                path.display(),
                m.cube_prefix,
                cube_prefix
            );
            return Ok(None);
        }
        Ok(Some(m))
    }

    /// Delete the manifest if present.
    pub fn remove(catalog: &Catalog, cube_prefix: &str) -> Result<()> {
        Journal::remove(&Self::path(catalog, cube_prefix))
    }

    /// Parse and CRC-check raw manifest bytes.
    pub fn parse(bytes: &[u8]) -> Result<BuildManifest> {
        J.parse(bytes, Self::from_json)
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("version", Value::from(MANIFEST_VERSION)),
            ("phase", Value::from(self.phase.as_str())),
            ("cube_prefix", Value::from(self.cube_prefix.as_str())),
            ("part_prefix", Value::from(self.part_prefix.as_str())),
            ("fact_rel", Value::from(self.fact_rel.as_str())),
            ("dr", Value::from(self.dr)),
            ("pool_capacity", Value::from(self.pool_capacity)),
            ("min_support", Value::from(self.min_support)),
            (
                "choice",
                obj(vec![
                    ("level", Value::from(self.choice.level)),
                    ("num_partitions", Value::from(self.choice.num_partitions)),
                    ("est_partition_bytes", Value::from(self.choice.est_partition_bytes)),
                    ("est_n_rows", Value::from(self.choice.est_n_rows)),
                    ("est_n_bytes", Value::from(self.choice.est_n_bytes)),
                ]),
            ),
            ("partitions", rel_list(&self.partitions)),
            ("n_rel", Value::from(self.n_rel.as_str())),
            ("n_rows", Value::from(self.n_rows)),
            ("max_partition_rows", Value::from(self.max_partition_rows)),
            ("completed_partitions", Value::from(self.completed_partitions)),
            ("counting_sorts", Value::from(self.counting_sorts)),
            ("comparison_sorts", Value::from(self.comparison_sorts)),
            (
                "pool",
                obj(vec![
                    ("decided", Value::from(fmt_cat(self.pool.decided))),
                    ("groups", Value::from(self.pool.groups)),
                    ("k_sum", Value::from(self.pool.k_sum)),
                    ("n_sum", Value::from(self.pool.n_sum)),
                    ("flushes", Value::from(self.pool.flushes)),
                    ("total_signatures", Value::from(self.pool.total_signatures)),
                ]),
            ),
            (
                "sink",
                obj(vec![
                    ("format", Value::from(fmt_cat(self.sink.format))),
                    ("agg_rows", Value::from(self.sink.agg_rows)),
                    ("tt_tuples", Value::from(self.sink.tt_tuples)),
                    ("nt_tuples", Value::from(self.sink.nt_tuples)),
                    ("cat_tuples", Value::from(self.sink.cat_tuples)),
                    ("segment_pages", Value::from(self.sink.segment.pages)),
                    ("extents", Value::from(hex(&self.sink.segment.directory.encode()))),
                ]),
            ),
        ];
        if let Some(s) = &self.stats {
            fields.push((
                "stats",
                obj(vec![
                    ("tt_tuples", Value::from(s.tt_tuples)),
                    ("nt_tuples", Value::from(s.nt_tuples)),
                    ("cat_tuples", Value::from(s.cat_tuples)),
                    ("aggregates_rows", Value::from(s.aggregates_rows)),
                    ("tt_bytes", Value::from(s.tt_bytes)),
                    ("nt_bytes", Value::from(s.nt_bytes)),
                    ("cat_bytes", Value::from(s.cat_bytes)),
                    ("aggregates_bytes", Value::from(s.aggregates_bytes)),
                    ("relations", Value::from(s.relations)),
                    ("cat_format", Value::from(fmt_cat(s.cat_format))),
                ]),
            ));
        }
        obj(fields)
    }

    fn from_json(v: &Value) -> Result<BuildManifest> {
        let version = J.u64(v, "version")?;
        if version != MANIFEST_VERSION {
            return Err(J.err(format!("version {version} is not supported")));
        }
        let choice = J.get(v, "choice")?;
        let pool = J.get(v, "pool")?;
        let sink = J.get(v, "sink")?;
        let stats = match v.get("stats") {
            None => None,
            Some(s) => Some(SinkStats {
                tt_tuples: J.u64(s, "tt_tuples")?,
                nt_tuples: J.u64(s, "nt_tuples")?,
                cat_tuples: J.u64(s, "cat_tuples")?,
                aggregates_rows: J.u64(s, "aggregates_rows")?,
                tt_bytes: J.u64(s, "tt_bytes")?,
                nt_bytes: J.u64(s, "nt_bytes")?,
                cat_bytes: J.u64(s, "cat_bytes")?,
                aggregates_bytes: J.u64(s, "aggregates_bytes")?,
                relations: J.u64(s, "relations")?,
                cat_format: parse_cat(J.str(s, "cat_format")?)?,
            }),
        };
        Ok(BuildManifest {
            phase: BuildPhase::parse(J.str(v, "phase")?)?,
            cube_prefix: J.str(v, "cube_prefix")?.to_string(),
            part_prefix: J.str(v, "part_prefix")?.to_string(),
            fact_rel: J.str(v, "fact_rel")?.to_string(),
            dr: J.bool(v, "dr")?,
            pool_capacity: J.u64(v, "pool_capacity")? as usize,
            min_support: J.u64(v, "min_support")?,
            choice: PartitionChoice {
                level: J.u64(choice, "level")? as LevelIdx,
                num_partitions: J.u64(choice, "num_partitions")? as usize,
                est_partition_bytes: J.u64(choice, "est_partition_bytes")?,
                est_n_rows: J.u64(choice, "est_n_rows")?,
                est_n_bytes: J.u64(choice, "est_n_bytes")?,
            },
            partitions: get_rels(v, "partitions")?,
            n_rel: J.str(v, "n_rel")?.to_string(),
            n_rows: J.u64(v, "n_rows")?,
            max_partition_rows: J.u64(v, "max_partition_rows")?,
            completed_partitions: J.u64(v, "completed_partitions")? as usize,
            counting_sorts: J.u64(v, "counting_sorts")?,
            comparison_sorts: J.u64(v, "comparison_sorts")?,
            pool: PoolDecisionState {
                decided: parse_cat(J.str(pool, "decided")?)?,
                groups: J.u64(pool, "groups")?,
                k_sum: J.u64(pool, "k_sum")?,
                n_sum: J.u64(pool, "n_sum")?,
                flushes: J.u64(pool, "flushes")?,
                total_signatures: J.u64(pool, "total_signatures")?,
            },
            sink: SinkCheckpoint {
                format: parse_cat(J.str(sink, "format")?)?,
                agg_rows: J.u64(sink, "agg_rows")?,
                tt_tuples: J.u64(sink, "tt_tuples")?,
                nt_tuples: J.u64(sink, "nt_tuples")?,
                cat_tuples: J.u64(sink, "cat_tuples")?,
                segment: segment_checkpoint(sink)?,
            },
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cure_storage::checksum::crc32;

    fn fresh_catalog(tag: &str) -> Catalog {
        Catalog::open(cure_storage::scratch::scratch_dir(&format!("manifest_{tag}"))).unwrap()
    }

    /// A checkpoint of a real two-relation segment.
    fn sample_segment() -> SegmentCheckpoint {
        let catalog = fresh_catalog("segment");
        let mut seg = catalog.create_segment("cube_").unwrap();
        let nt: Vec<u8> = (0..20u64 * 3).flat_map(u64::to_le_bytes).collect();
        let tt: Vec<u8> = (0..40u64).flat_map(u64::to_le_bytes).collect();
        seg.append("cube_n3_nt", &crate::sink::nt_schema(2, None), &nt).unwrap();
        seg.append("cube_n7_tt", &crate::sink::tt_schema(), &tt).unwrap();
        seg.sync().unwrap();
        seg.checkpoint()
    }

    fn sample(phase: BuildPhase) -> BuildManifest {
        BuildManifest {
            phase,
            cube_prefix: "cube_".into(),
            part_prefix: "cube_tmp_".into(),
            fact_rel: "facts".into(),
            dr: false,
            pool_capacity: 1 << 16,
            min_support: 1,
            choice: PartitionChoice {
                level: 1,
                num_partitions: 4,
                est_partition_bytes: 1024,
                est_n_rows: 37,
                est_n_bytes: 1628,
            },
            partitions: vec![("cube_tmp_part0".into(), 12), ("cube_tmp_part1".into(), 30)],
            n_rel: "cube_tmp_nrel".into(),
            n_rows: 37,
            max_partition_rows: 30,
            completed_partitions: 1,
            counting_sorts: 7,
            comparison_sorts: 3,
            pool: PoolDecisionState {
                decided: Some(CatFormat::Coincidental),
                groups: 5,
                k_sum: 15,
                n_sum: 12,
                flushes: 2,
                total_signatures: 90,
            },
            sink: SinkCheckpoint {
                format: Some(CatFormat::Coincidental),
                agg_rows: 5,
                tt_tuples: 40,
                nt_tuples: 20,
                cat_tuples: 15,
                segment: sample_segment(),
            },
            stats: None,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let catalog = fresh_catalog("rt");
        let m = sample(BuildPhase::Passes);
        m.save(&catalog).unwrap();
        assert!(BuildManifest::exists(&catalog, "cube_"));
        let loaded = BuildManifest::load(&catalog, "cube_").unwrap().unwrap();
        assert_eq!(loaded, m);
    }

    #[test]
    fn complete_phase_carries_stats() {
        let catalog = fresh_catalog("stats");
        let mut m = sample(BuildPhase::Complete);
        m.stats = Some(SinkStats {
            tt_tuples: 40,
            nt_tuples: 25,
            cat_tuples: 15,
            aggregates_rows: 5,
            tt_bytes: 320,
            nt_bytes: 600,
            cat_bytes: 240,
            aggregates_bytes: 80,
            relations: 9,
            cat_format: Some(CatFormat::Coincidental),
        });
        m.save(&catalog).unwrap();
        let loaded = BuildManifest::load(&catalog, "cube_").unwrap().unwrap();
        assert_eq!(loaded.stats, m.stats);
        assert_eq!(loaded.phase, BuildPhase::Complete);
    }

    #[test]
    fn journals_no_wall_clock_time_and_reads_older_manifests_that_did() {
        // Two builds of the same data must write the same manifest bytes,
        // so no timing is journaled; a manifest written before that rule
        // carries `partition_secs`, which is read past.
        let m = sample(BuildPhase::Passes);
        let mut inner = m.to_json();
        assert!(inner.get("partition_secs").is_none());
        if let Value::Object(fields) = &mut inner {
            fields.insert("partition_secs".into(), Value::from(0.125));
        }
        let crc = crc32(inner.to_string().as_bytes());
        let root = obj(vec![("crc32", Value::from(crc)), ("manifest", inner)]);
        assert_eq!(BuildManifest::parse(root.to_string().as_bytes()).unwrap(), m);
    }

    #[test]
    fn missing_manifest_is_none() {
        let catalog = fresh_catalog("missing");
        assert!(BuildManifest::load(&catalog, "cube_").unwrap().is_none());
    }

    #[test]
    fn corrupt_manifest_ignored_with_warning() {
        let catalog = fresh_catalog("corrupt");
        let m = sample(BuildPhase::Passes);
        m.save(&catalog).unwrap();
        // Flip a byte inside the body: CRC must catch it.
        let path = BuildManifest::path(&catalog, "cube_");
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes.len() / 2;
        bytes[pos] = bytes[pos].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(BuildManifest::load(&catalog, "cube_").unwrap().is_none());
        // Outright garbage too.
        std::fs::write(&path, b"not json at all").unwrap();
        assert!(BuildManifest::load(&catalog, "cube_").unwrap().is_none());
    }

    #[test]
    fn atomic_replace_preserves_old_version_under_fault() {
        use cure_storage::{FaultInjector, FaultKind};
        use std::sync::Arc;
        let dir = cure_storage::scratch::scratch_dir("manifest_fault");
        let catalog = Catalog::open(&dir).unwrap();
        let old = sample(BuildPhase::Passes);
        old.save(&catalog).unwrap();
        // Re-open the catalog with a policy that kills the next write: the
        // replacement must fail without touching the old manifest.
        let injector = Arc::new(FaultInjector::fail_nth_write(0, FaultKind::Torn).sticky());
        let faulty = Catalog::open_with_policy(&dir, injector).unwrap();
        let mut new = old.clone();
        new.completed_partitions = 2;
        assert!(new.save(&faulty).is_err());
        let loaded = BuildManifest::load(&catalog, "cube_").unwrap().unwrap();
        assert_eq!(loaded, old, "failed replace must leave the old manifest intact");
    }

    #[test]
    fn remove_is_idempotent() {
        let catalog = fresh_catalog("rm");
        BuildManifest::remove(&catalog, "cube_").unwrap();
        sample(BuildPhase::Passes).save(&catalog).unwrap();
        BuildManifest::remove(&catalog, "cube_").unwrap();
        assert!(!BuildManifest::exists(&catalog, "cube_"));
        BuildManifest::remove(&catalog, "cube_").unwrap();
    }
}

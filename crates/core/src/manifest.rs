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
//!   last durable [`SinkCheckpoint`]. Recovery validates the sealed inputs
//!   by a full checksummed scan, truncates every cube relation back to its
//!   journaled row count, drops unjournaled relations, and resumes from
//!   partition `completed_partitions`.
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

use std::collections::BTreeMap;
use std::path::PathBuf;

use cure_storage::checksum::crc32;
use cure_storage::{atomic_write, Catalog};
use serde_json::Value;

use crate::error::{CubeError, Result};
use crate::hierarchy::LevelIdx;
use crate::partition::PartitionChoice;
use crate::signature::PoolDecisionState;
use crate::sink::{CatFormat, SinkCheckpoint, SinkStats};

/// Manifest format version (bumped on incompatible layout changes).
pub const MANIFEST_VERSION: u64 = 1;

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
            other => Err(m_err(format!("unknown phase '{other}'"))),
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
    /// Seconds the partitioning scan took (for the final report).
    pub partition_secs: f64,
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

fn m_err(msg: impl std::fmt::Display) -> CubeError {
    CubeError::Config(format!("build manifest: {msg}"))
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
        other => Err(m_err(format!("unknown cat format '{other}'"))),
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

// -- field accessors over the parsed tree ---------------------------------

fn get<'v>(v: &'v Value, key: &str) -> Result<&'v Value> {
    v.get(key).ok_or_else(|| m_err(format!("missing field '{key}'")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64> {
    get(v, key)?.as_u64().ok_or_else(|| m_err(format!("field '{key}' is not an integer")))
}

fn get_f64(v: &Value, key: &str) -> Result<f64> {
    get(v, key)?.as_f64().ok_or_else(|| m_err(format!("field '{key}' is not a number")))
}

fn get_str<'v>(v: &'v Value, key: &str) -> Result<&'v str> {
    get(v, key)?.as_str().ok_or_else(|| m_err(format!("field '{key}' is not a string")))
}

fn get_bool(v: &Value, key: &str) -> Result<bool> {
    get(v, key)?.as_bool().ok_or_else(|| m_err(format!("field '{key}' is not a bool")))
}

fn get_rels(v: &Value, key: &str) -> Result<Vec<(String, u64)>> {
    let arr =
        get(v, key)?.as_array().ok_or_else(|| m_err(format!("field '{key}' is not an array")))?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let pair =
            item.as_array().filter(|p| p.len() == 2).ok_or_else(|| m_err("bad relation entry"))?;
        let name = pair[0].as_str().ok_or_else(|| m_err("relation name is not a string"))?;
        let rows = pair[1].as_u64().ok_or_else(|| m_err("relation rows is not an integer"))?;
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
        let inner = self.to_json();
        let crc = crc32(inner.to_string().as_bytes());
        let mut root = BTreeMap::new();
        root.insert("crc32".to_string(), Value::from(crc));
        root.insert("manifest".to_string(), inner);
        let text = serde_json::to_string_pretty(&Value::Object(root))
            .map_err(|e| m_err(format!("serialize: {e}")))?;
        atomic_write(
            catalog.policy().as_ref(),
            &Self::path(catalog, &self.cube_prefix),
            text.as_bytes(),
        )
        .map_err(|e| CubeError::Storage(e.into()))?;
        Ok(())
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
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CubeError::Storage(e.into())),
        };
        match Self::parse(&bytes) {
            Ok(m) => {
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
            Err(e) => {
                eprintln!("cure-core: warning: ignoring damaged manifest {}: {e}", path.display());
                Ok(None)
            }
        }
    }

    /// Delete the manifest if present.
    pub fn remove(catalog: &Catalog, cube_prefix: &str) -> Result<()> {
        let path = Self::path(catalog, cube_prefix);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CubeError::Storage(e.into())),
        }
    }

    /// Parse and CRC-check raw manifest bytes.
    pub fn parse(bytes: &[u8]) -> Result<BuildManifest> {
        let root = serde_json::from_slice(bytes).map_err(|e| m_err(format!("unparseable: {e}")))?;
        let crc = get_u64(&root, "crc32")? as u32;
        let inner = get(&root, "manifest")?;
        let actual = crc32(inner.to_string().as_bytes());
        if actual != crc {
            return Err(m_err(format!("CRC mismatch (stored {crc:#010x}, actual {actual:#010x})")));
        }
        Self::from_json(inner)
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
            ("partition_secs", Value::from(self.partition_secs)),
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
                    ("relations", rel_list(&self.sink.relations)),
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
        let version = get_u64(v, "version")?;
        if version != MANIFEST_VERSION {
            return Err(m_err(format!("version {version} is not supported")));
        }
        let choice = get(v, "choice")?;
        let pool = get(v, "pool")?;
        let sink = get(v, "sink")?;
        let stats = match v.get("stats") {
            None => None,
            Some(s) => Some(SinkStats {
                tt_tuples: get_u64(s, "tt_tuples")?,
                nt_tuples: get_u64(s, "nt_tuples")?,
                cat_tuples: get_u64(s, "cat_tuples")?,
                aggregates_rows: get_u64(s, "aggregates_rows")?,
                tt_bytes: get_u64(s, "tt_bytes")?,
                nt_bytes: get_u64(s, "nt_bytes")?,
                cat_bytes: get_u64(s, "cat_bytes")?,
                aggregates_bytes: get_u64(s, "aggregates_bytes")?,
                relations: get_u64(s, "relations")?,
                cat_format: parse_cat(get_str(s, "cat_format")?)?,
            }),
        };
        Ok(BuildManifest {
            phase: BuildPhase::parse(get_str(v, "phase")?)?,
            cube_prefix: get_str(v, "cube_prefix")?.to_string(),
            part_prefix: get_str(v, "part_prefix")?.to_string(),
            fact_rel: get_str(v, "fact_rel")?.to_string(),
            dr: get_bool(v, "dr")?,
            pool_capacity: get_u64(v, "pool_capacity")? as usize,
            min_support: get_u64(v, "min_support")?,
            choice: PartitionChoice {
                level: get_u64(choice, "level")? as LevelIdx,
                num_partitions: get_u64(choice, "num_partitions")? as usize,
                est_partition_bytes: get_u64(choice, "est_partition_bytes")?,
                est_n_rows: get_u64(choice, "est_n_rows")?,
                est_n_bytes: get_u64(choice, "est_n_bytes")?,
            },
            partitions: get_rels(v, "partitions")?,
            n_rel: get_str(v, "n_rel")?.to_string(),
            n_rows: get_u64(v, "n_rows")?,
            max_partition_rows: get_u64(v, "max_partition_rows")?,
            partition_secs: get_f64(v, "partition_secs")?,
            completed_partitions: get_u64(v, "completed_partitions")? as usize,
            counting_sorts: get_u64(v, "counting_sorts")?,
            comparison_sorts: get_u64(v, "comparison_sorts")?,
            pool: PoolDecisionState {
                decided: parse_cat(get_str(pool, "decided")?)?,
                groups: get_u64(pool, "groups")?,
                k_sum: get_u64(pool, "k_sum")?,
                n_sum: get_u64(pool, "n_sum")?,
                flushes: get_u64(pool, "flushes")?,
                total_signatures: get_u64(pool, "total_signatures")?,
            },
            sink: SinkCheckpoint {
                format: parse_cat(get_str(sink, "format")?)?,
                agg_rows: get_u64(sink, "agg_rows")?,
                tt_tuples: get_u64(sink, "tt_tuples")?,
                nt_tuples: get_u64(sink, "nt_tuples")?,
                cat_tuples: get_u64(sink, "cat_tuples")?,
                relations: get_rels(sink, "relations")?,
            },
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_catalog(tag: &str) -> Catalog {
        let dir = std::env::temp_dir().join(format!("cure_manifest_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Catalog::open(&dir).unwrap()
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
            partition_secs: 0.125,
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
                relations: vec![("cube_n3_nt".into(), 20), ("cube_n7_tt".into(), 40)],
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
        let dir = std::env::temp_dir().join(format!("cure_manifest_{}_fault", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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

//! Incremental ingest: the durable delta pipeline over [`update_cube`].
//!
//! [`update_cube`] is a one-shot library call: given a delta batch that is
//! already in the fact relation, it merges the batch into a cube under a
//! new prefix. This module turns that call into a **crash-safe ingest
//! subsystem** — the semi-naive evaluation itself (classification
//! restricted to the groups the delta actually hits, TT demotion walk,
//! per-group merge of distributive/algebraic aggregates) lives in
//! [`update_cube`]; what is added here is the durable protocol around it:
//!
//! 1. **Append** — journal intent in an [`IngestManifest`] (CRC-guarded,
//!    atomically replaced, like the build's
//!    [`BuildManifest`](crate::manifest::BuildManifest)), then append the
//!    re-rowid'd delta to the fact relation and fsync it.
//! 2. **Merge** — journal phase `Merging` (the delta is now durable), then
//!    run [`update_cube`] into a [`DiskSink`] under the *other* prefix,
//!    write the new [`CubeMeta`], and fsync everything the merge produced.
//! 3. **Swap** — journal phase `Swapped`, atomically repoint the active
//!    cube blob at the new prefix, then (opt-in, [`IngestOptions::drop_old`])
//!    GC the old prefix so the catalog holds exactly one cube.
//!
//! Each journal entry is written only after the data it describes is on
//! stable storage, so [`recover_ingest`] can always finish or undo a
//! half-done ingest:
//!
//! * crash in `Appending` → the appended tail may be torn; truncate the
//!   fact relation back to its journaled pre-ingest row count
//!   ([`HeapFile::repair_to_rows`]) and drop any partial merge output —
//!   the old cube stays active, the ingest **rolls back**;
//! * crash in `Merging` → the delta is durable in the fact relation;
//!   reload it, redo the merge from scratch (partial output under the new
//!   prefix is dropped first), and continue — the ingest **rolls forward**;
//! * crash in `Swapped` → the new cube is complete; re-point the active
//!   blob (idempotent) and finish the GC.
//!
//! The active-cube pointer itself is a small catalog blob replaced via
//! `atomic_write`, so readers never observe a torn prefix name.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use cure_storage::checksum::crc32;
use cure_storage::{atomic_write, Catalog, HeapFile};
use serde_json::Value;

use crate::cube::CubeConfig;
use crate::error::{CubeError, Result};
use crate::hierarchy::CubeSchema;
use crate::manifest::BuildManifest;
use crate::meta::CubeMeta;
use crate::sink::{CubeSink as _, DiskSink};
use crate::tuples::Tuples;
use crate::update::{update_cube, UpdateReport};

/// Catalog blob holding the prefix of the currently active cube.
pub const ACTIVE_BLOB: &str = "active_cube";

/// File name of the ingest journal (one ingest at a time per catalog).
pub const INGEST_MANIFEST_FILE: &str = "ingest.json";

/// The prefix of the currently active cube (`"cube_"` when no ingest has
/// ever swapped it).
pub fn active_prefix(catalog: &Catalog) -> String {
    catalog
        .read_blob(ACTIVE_BLOB)
        .ok()
        .and_then(|b| String::from_utf8(b).ok())
        .unwrap_or_else(|| "cube_".to_string())
}

/// Atomically repoint the active-cube blob at `prefix`.
pub fn set_active_prefix(catalog: &Catalog, prefix: &str) -> Result<()> {
    catalog.write_blob(ACTIVE_BLOB, prefix.as_bytes())?;
    Ok(())
}

/// The partner prefix an ingest merges into: `"cube_"` ↔ `"cubeB_"`, and
/// in general a `B` toggled before the trailing underscore.
pub fn other_prefix(prefix: &str) -> String {
    if let Some(stem) = prefix.strip_suffix("B_") {
        format!("{stem}_")
    } else if let Some(stem) = prefix.strip_suffix('_') {
        format!("{stem}B_")
    } else {
        format!("{prefix}B_")
    }
}

/// Knobs of one ingest.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Drop the old cube's relations, blobs and build manifest after the
    /// swap, so the catalog holds exactly one cube. Callers that keep
    /// serving the old epoch from open file handles (live ingest) GC
    /// later and pass `false`.
    pub drop_old: bool,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { drop_old: true }
    }
}

/// What one completed ingest did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The merge statistics (TT demotions, merged/carried/new groups).
    pub update: UpdateReport,
    /// Delta tuples appended to the fact relation.
    pub delta_rows: u64,
    /// Prefix the old cube was stored under.
    pub old_prefix: String,
    /// Prefix the merged cube is stored under (now active).
    pub new_prefix: String,
    /// Catalog objects dropped by the old-prefix GC (0 when kept).
    pub dropped_objects: u64,
    /// Seconds spent appending + fsyncing the delta.
    pub append_secs: f64,
    /// Seconds spent in the merge (update walk + sink + meta + fsync).
    pub merge_secs: f64,
}

/// Which stage an ingest had durably reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestPhase {
    /// The delta append is (or was) in flight; the fact tail is suspect.
    Appending,
    /// The delta is durable in the fact relation; the merge is running.
    Merging,
    /// The merged cube is durable and active; only GC remains.
    Swapped,
}

impl IngestPhase {
    fn as_str(self) -> &'static str {
        match self {
            IngestPhase::Appending => "appending",
            IngestPhase::Merging => "merging",
            IngestPhase::Swapped => "swapped",
        }
    }

    fn parse(s: &str) -> Result<Self> {
        match s {
            "appending" => Ok(IngestPhase::Appending),
            "merging" => Ok(IngestPhase::Merging),
            "swapped" => Ok(IngestPhase::Swapped),
            other => Err(m_err(format!("unknown phase '{other}'"))),
        }
    }
}

/// The durable ingest journal. See the module docs for the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestManifest {
    /// Stage durably reached.
    pub phase: IngestPhase,
    /// Prefix of the cube being updated.
    pub old_prefix: String,
    /// Prefix the merged cube is written under.
    pub new_prefix: String,
    /// The shared fact relation the delta was appended to.
    pub fact_rel: String,
    /// Fact rows *before* the append — the rollback truncation point.
    pub fact_rows_before: u64,
    /// Delta tuples being ingested.
    pub delta_rows: u64,
    /// Whether the old prefix is GC'd after the swap.
    pub drop_old: bool,
}

fn m_err(msg: impl std::fmt::Display) -> CubeError {
    CubeError::Config(format!("ingest manifest: {msg}"))
}

fn get<'v>(v: &'v Value, key: &str) -> Result<&'v Value> {
    v.get(key).ok_or_else(|| m_err(format!("missing field '{key}'")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64> {
    get(v, key)?.as_u64().ok_or_else(|| m_err(format!("field '{key}' is not an integer")))
}

fn get_str<'v>(v: &'v Value, key: &str) -> Result<&'v str> {
    get(v, key)?.as_str().ok_or_else(|| m_err(format!("field '{key}' is not a string")))
}

fn get_bool(v: &Value, key: &str) -> Result<bool> {
    get(v, key)?.as_bool().ok_or_else(|| m_err(format!("field '{key}' is not a bool")))
}

impl IngestManifest {
    /// Filesystem path of the ingest journal in `catalog`.
    pub fn path(catalog: &Catalog) -> PathBuf {
        catalog.dir().join(INGEST_MANIFEST_FILE)
    }

    /// Whether an (interrupted) ingest journal exists.
    pub fn exists(catalog: &Catalog) -> bool {
        Self::path(catalog).is_file()
    }

    /// Atomically replace the on-disk journal with this state.
    pub fn save(&self, catalog: &Catalog) -> Result<()> {
        let inner = self.to_json();
        let crc = crc32(inner.to_string().as_bytes());
        let mut root = BTreeMap::new();
        root.insert("crc32".to_string(), Value::from(crc));
        root.insert("manifest".to_string(), inner);
        let text = serde_json::to_string_pretty(&Value::Object(root))
            .map_err(|e| m_err(format!("serialize: {e}")))?;
        atomic_write(catalog.policy().as_ref(), &Self::path(catalog), text.as_bytes())
            .map_err(|e| CubeError::Storage(e.into()))?;
        Ok(())
    }

    /// Load the journal, if one exists and is intact. A damaged file is
    /// ignored with a warning (same policy as
    /// [`BuildManifest::load`](crate::manifest::BuildManifest::load)):
    /// journals are only ever replaced atomically, so damage means
    /// external corruption and the safe answer is "no pending ingest".
    pub fn load(catalog: &Catalog) -> Result<Option<IngestManifest>> {
        let path = Self::path(catalog);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CubeError::Storage(e.into())),
        };
        match Self::parse(&bytes) {
            Ok(m) => Ok(Some(m)),
            Err(e) => {
                eprintln!(
                    "cure-core: warning: ignoring damaged ingest manifest {}: {e}",
                    path.display()
                );
                Ok(None)
            }
        }
    }

    /// Delete the journal if present.
    pub fn remove(catalog: &Catalog) -> Result<()> {
        match std::fs::remove_file(Self::path(catalog)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CubeError::Storage(e.into())),
        }
    }

    /// Parse and CRC-check raw journal bytes.
    pub fn parse(bytes: &[u8]) -> Result<IngestManifest> {
        let root = serde_json::from_slice(bytes).map_err(|e| m_err(format!("unparseable: {e}")))?;
        let crc = get_u64(&root, "crc32")? as u32;
        let inner = get(&root, "manifest")?;
        let actual = crc32(inner.to_string().as_bytes());
        if actual != crc {
            return Err(m_err(format!("CRC mismatch (stored {crc:#010x}, actual {actual:#010x})")));
        }
        Ok(IngestManifest {
            phase: IngestPhase::parse(get_str(inner, "phase")?)?,
            old_prefix: get_str(inner, "old_prefix")?.to_string(),
            new_prefix: get_str(inner, "new_prefix")?.to_string(),
            fact_rel: get_str(inner, "fact_rel")?.to_string(),
            fact_rows_before: get_u64(inner, "fact_rows_before")?,
            delta_rows: get_u64(inner, "delta_rows")?,
            drop_old: get_bool(inner, "drop_old")?,
        })
    }

    fn to_json(&self) -> Value {
        Value::Object(
            [
                ("version", Value::from(1u64)),
                ("phase", Value::from(self.phase.as_str())),
                ("old_prefix", Value::from(self.old_prefix.as_str())),
                ("new_prefix", Value::from(self.new_prefix.as_str())),
                ("fact_rel", Value::from(self.fact_rel.as_str())),
                ("fact_rows_before", Value::from(self.fact_rows_before)),
                ("delta_rows", Value::from(self.delta_rows)),
                ("drop_old", Value::from(self.drop_old)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
        )
    }
}

/// How [`recover_ingest`] resolved an interrupted ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestRecovery {
    /// The ingest was undone: the appended delta rows were truncated away
    /// and the old cube remains active.
    RolledBack {
        /// Delta rows discarded from the fact relation.
        discarded_rows: u64,
    },
    /// The ingest was finished: the merged cube is durable and active.
    Completed {
        /// Prefix of the now-active merged cube.
        new_prefix: String,
    },
}

/// Ingest `delta` into the active cube: append, merge under the partner
/// prefix, swap. `delta` carries leaf dimension values and measures; its
/// row-ids are ignored and reassigned to continue the fact relation.
///
/// The active cube must be a complete (non-iceberg), non-DR cube — the
/// same preconditions as [`update_cube`], checked up front so nothing is
/// appended on a doomed ingest.
pub fn ingest_cube(
    catalog: &Catalog,
    schema: &CubeSchema,
    delta: &Tuples,
    cfg: &CubeConfig,
    opts: &IngestOptions,
) -> Result<IngestReport> {
    let old_prefix = active_prefix(catalog);
    let new_prefix = other_prefix(&old_prefix);
    ingest_cube_into(catalog, schema, &old_prefix, &new_prefix, delta, cfg, opts)
}

/// [`ingest_cube`] with explicit prefixes (live ingest uses per-epoch
/// prefixes instead of the two-slot flip).
pub fn ingest_cube_into(
    catalog: &Catalog,
    schema: &CubeSchema,
    old_prefix: &str,
    new_prefix: &str,
    delta: &Tuples,
    cfg: &CubeConfig,
    opts: &IngestOptions,
) -> Result<IngestReport> {
    if IngestManifest::exists(catalog) {
        return Err(CubeError::Config(
            "a previous ingest was interrupted; run recover_ingest first".into(),
        ));
    }
    if old_prefix == new_prefix {
        return Err(CubeError::Config("ingest prefixes must differ".into()));
    }
    if delta.n_dims() != schema.num_dims() || delta.n_measures() != schema.num_measures() {
        return Err(CubeError::Config("delta shape does not match the cube schema".into()));
    }
    let old_meta = CubeMeta::read(catalog, old_prefix)?;
    if old_meta.dr {
        return Err(CubeError::Config(
            "incremental ingest of CURE_DR cubes is not supported (NT rows lack row-ids)".into(),
        ));
    }
    if old_meta.min_support != 1 {
        return Err(CubeError::Config(
            "incremental ingest requires a complete (non-iceberg) cube".into(),
        ));
    }

    let mut fact = catalog.open_relation(&old_meta.fact_rel)?;
    let fact_rows_before = fact.num_rows();
    let mut manifest = IngestManifest {
        phase: IngestPhase::Appending,
        old_prefix: old_prefix.to_string(),
        new_prefix: new_prefix.to_string(),
        fact_rel: old_meta.fact_rel.clone(),
        fact_rows_before,
        delta_rows: delta.len() as u64,
        drop_old: opts.drop_old,
    };
    manifest.save(catalog)?;

    // Phase 1: append the re-rowid'd delta to the fact relation.
    let t_append = Instant::now();
    let mut batch = Tuples::with_capacity(schema.num_dims(), schema.num_measures(), delta.len());
    for i in 0..delta.len() {
        batch.push(delta.dims_of(i), delta.aggs_of(i), 1, fact_rows_before + i as u64);
    }
    batch.store_fact(&mut fact)?;
    fact.sync()?;
    drop(fact);
    let append_secs = t_append.elapsed().as_secs_f64();

    // Phase 2: the delta is durable — journal that, then merge.
    manifest.phase = IngestPhase::Merging;
    manifest.save(catalog)?;
    let t_merge = Instant::now();
    let update = merge_delta(catalog, schema, &manifest, &old_meta, &batch, cfg)?;
    let merge_secs = t_merge.elapsed().as_secs_f64();

    // Phase 3: the merged cube is durable — journal that, swap, GC.
    manifest.phase = IngestPhase::Swapped;
    manifest.save(catalog)?;
    set_active_prefix(catalog, new_prefix)?;
    let dropped_objects = finish_swap(catalog, &manifest)?;
    IngestManifest::remove(catalog)?;

    Ok(IngestReport {
        update,
        delta_rows: manifest.delta_rows,
        old_prefix: old_prefix.to_string(),
        new_prefix: new_prefix.to_string(),
        dropped_objects,
        append_secs,
        merge_secs,
    })
}

/// Resolve an interrupted ingest: roll back (phase `Appending`) or roll
/// forward (`Merging`, `Swapped`). Returns `None` when no journal exists.
/// Idempotent — crashing *during* recovery leaves a journal that a rerun
/// resolves the same way.
pub fn recover_ingest(
    catalog: &Catalog,
    schema: &CubeSchema,
    cfg: &CubeConfig,
) -> Result<Option<IngestRecovery>> {
    let Some(mut m) = IngestManifest::load(catalog)? else { return Ok(None) };
    match m.phase {
        IngestPhase::Appending => Ok(Some(roll_back(catalog, &m)?)),
        IngestPhase::Merging => {
            // The journal says the delta is durable; trust it only if the
            // fact relation really holds every delta row.
            let fact = catalog.open_relation(&m.fact_rel)?;
            let total = m.fact_rows_before + m.delta_rows;
            if fact.num_rows() < total {
                drop(fact);
                return Ok(Some(roll_back(catalog, &m)?));
            }
            // Reload the delta rows and redo the merge from scratch.
            let all = Tuples::load_fact(&fact, schema.num_dims(), schema.num_measures())?;
            drop(fact);
            let mut batch = Tuples::with_capacity(
                schema.num_dims(),
                schema.num_measures(),
                m.delta_rows as usize,
            );
            for i in m.fact_rows_before..total {
                let i = i as usize;
                batch.push(all.dims_of(i), all.aggs_of(i), 1, i as u64);
            }
            let old_meta = CubeMeta::read(catalog, &m.old_prefix)?;
            merge_delta(catalog, schema, &m, &old_meta, &batch, cfg)?;
            m.phase = IngestPhase::Swapped;
            m.save(catalog)?;
            set_active_prefix(catalog, &m.new_prefix)?;
            finish_swap(catalog, &m)?;
            IngestManifest::remove(catalog)?;
            Ok(Some(IngestRecovery::Completed { new_prefix: m.new_prefix }))
        }
        IngestPhase::Swapped => {
            set_active_prefix(catalog, &m.new_prefix)?;
            finish_swap(catalog, &m)?;
            IngestManifest::remove(catalog)?;
            Ok(Some(IngestRecovery::Completed { new_prefix: m.new_prefix }))
        }
    }
}

/// Abort an interrupted ingest in favour of the *old* cube. Unlike
/// [`recover_ingest`] — which rolls a `Merging`-phase journal forward,
/// the right call after a crash — this rolls back whenever the old cube
/// can still be made authoritative: partial merge output is dropped and
/// the fact relation is truncated to its journaled pre-ingest row count,
/// so the same delta can be re-applied from scratch. Only a journal that
/// already reached `Swapped` (the merged cube is complete and durable)
/// is completed instead. Live serving uses this when `ingest_cube_into`
/// *returns* an error mid-merge: the active epoch keeps serving and the
/// failed delta leaves no partial state behind.
pub fn abort_ingest(catalog: &Catalog) -> Result<Option<IngestRecovery>> {
    let Some(m) = IngestManifest::load(catalog)? else { return Ok(None) };
    match m.phase {
        IngestPhase::Appending | IngestPhase::Merging => Ok(Some(roll_back(catalog, &m)?)),
        IngestPhase::Swapped => {
            set_active_prefix(catalog, &m.new_prefix)?;
            finish_swap(catalog, &m)?;
            IngestManifest::remove(catalog)?;
            Ok(Some(IngestRecovery::Completed { new_prefix: m.new_prefix }))
        }
    }
}

/// Run [`update_cube`] under the new prefix and make the result durable.
/// Any partial output of an earlier attempt is dropped first, so the merge
/// is restartable.
fn merge_delta(
    catalog: &Catalog,
    schema: &CubeSchema,
    m: &IngestManifest,
    old_meta: &CubeMeta,
    batch: &Tuples,
    cfg: &CubeConfig,
) -> Result<UpdateReport> {
    catalog.drop_prefix(&m.new_prefix)?;
    let mut sink = DiskSink::new(catalog, &m.new_prefix, schema, false, old_meta.plus, None)?;
    let update = update_cube(catalog, schema, &m.old_prefix, batch, cfg, &mut sink)?;
    let cat_format = sink.cat_format();
    drop(sink);
    CubeMeta {
        prefix: m.new_prefix.clone(),
        fact_rel: m.fact_rel.clone(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr: false,
        plus: old_meta.plus,
        cat_format,
        // The update walks the old cube's plan forest, so TT placement
        // follows the old partition level; the query layer must keep it.
        partition_level: old_meta.partition_level,
        min_support: 1,
    }
    .write(catalog)?;
    // DiskSink::finish flushes but does not fsync; push every new-prefix
    // relation to stable storage before the journal claims it is there.
    for name in catalog.list()? {
        if name.starts_with(&m.new_prefix) {
            catalog.open_relation(&name)?.sync()?;
        }
    }
    catalog.sync_dir()?;
    Ok(update)
}

/// Post-swap GC: drop the old cube's relations, blobs and build manifest
/// (opt-in via the journaled `drop_old`).
fn finish_swap(catalog: &Catalog, m: &IngestManifest) -> Result<u64> {
    if !m.drop_old {
        return Ok(0);
    }
    let dropped = catalog.drop_prefix(&m.old_prefix)? as u64;
    BuildManifest::remove(catalog, &m.old_prefix)?;
    Ok(dropped)
}

/// Undo a half-appended ingest: drop partial merge output and truncate
/// the fact relation back to its journaled pre-ingest row count. The
/// appended tail may be torn, so the boundary page is rebuilt from raw
/// bytes ([`HeapFile::repair_to_rows`]) rather than trusted.
fn roll_back(catalog: &Catalog, m: &IngestManifest) -> Result<IngestRecovery> {
    catalog.drop_prefix(&m.new_prefix)?;
    let on_disk = catalog.open_relation(&m.fact_rel)?.num_rows();
    let rel_schema = catalog.relation_schema(&m.fact_rel)?;
    let path = catalog.relation_heap_path(&m.fact_rel);
    HeapFile::repair_to_rows(&path, &rel_schema, m.fact_rows_before, catalog.policy().as_ref())?;
    IngestManifest::remove(catalog)?;
    Ok(IngestRecovery::RolledBack { discarded_rows: on_disk.saturating_sub(m.fact_rows_before) })
}

/// Parse a delta batch from text: one fact per line, leaf dimension values
/// then measures separated by `|` — e.g. `"3 0 7 | 14 2"`. Blank lines
/// and `#` comments are skipped; values are validated against the schema.
/// Row-ids are assigned by the ingest itself.
pub fn parse_batch(schema: &CubeSchema, text: &str) -> Result<Tuples> {
    let d = schema.num_dims();
    let y = schema.num_measures();
    let mut out = Tuples::new(d, y);
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| CubeError::Config(format!("batch line {}: {msg}", lineno + 1));
        let (dim_part, measure_part) = line
            .split_once('|')
            .ok_or_else(|| err("expected '<dims> | <measures>'".to_string()))?;
        let dims = dim_part
            .split_whitespace()
            .map(|t| t.parse::<u32>().map_err(|_| err(format!("bad dimension value '{t}'"))))
            .collect::<Result<Vec<u32>>>()?;
        let measures = measure_part
            .split_whitespace()
            .map(|t| t.parse::<i64>().map_err(|_| err(format!("bad measure value '{t}'"))))
            .collect::<Result<Vec<i64>>>()?;
        if dims.len() != d {
            return Err(err(format!("expected {d} dimension values, got {}", dims.len())));
        }
        if measures.len() != y {
            return Err(err(format!("expected {y} measures, got {}", measures.len())));
        }
        for (j, &v) in dims.iter().enumerate() {
            let card = schema.dims()[j].leaf_cardinality();
            if v >= card {
                return Err(err(format!(
                    "dimension {} value {v} out of range (leaf cardinality {card})",
                    schema.dims()[j].name()
                )));
            }
        }
        let rowid = out.len() as u64;
        out.push(&dims, &measures, 1, rowid);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeBuilder;
    use crate::hierarchy::Dimension;
    use crate::lattice::NodeCoder;
    use crate::reference;

    fn fresh_catalog(tag: &str) -> Catalog {
        let dir = std::env::temp_dir().join(format!("cure_delta_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Catalog::open(&dir).unwrap()
    }

    fn schema() -> CubeSchema {
        let a = Dimension::linear("A", 20, &[(0..20).map(|v| v / 5).collect()]).unwrap();
        let b = Dimension::linear("B", 12, &[(0..12).map(|v| v / 4).collect()]).unwrap();
        let c = Dimension::flat("C", 5);
        CubeSchema::new(vec![a, b, c], 2).unwrap()
    }

    fn make_tuples(schema: &CubeSchema, n: usize, seed: u64) -> Tuples {
        let d = schema.num_dims();
        let y = schema.num_measures();
        let mut t = Tuples::new(d, y);
        let mut x = seed | 1;
        let mut dims = vec![0u32; d];
        let mut aggs = vec![0i64; y];
        for i in 0..n {
            for (j, v) in dims.iter_mut().enumerate() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = (x % schema.dims()[j].leaf_cardinality() as u64) as u32;
            }
            for a in aggs.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *a = (x % 25) as i64;
            }
            t.push(&dims, &aggs, 1, i as u64);
        }
        t
    }

    /// Build a fresh base cube under `"cube_"` with its meta and facts.
    fn build_base(catalog: &Catalog, schema: &CubeSchema, base: &Tuples) {
        let mut heap =
            catalog.create_or_replace("facts", Tuples::fact_schema(schema.num_dims(), 2)).unwrap();
        base.store_fact(&mut heap).unwrap();
        drop(heap);
        let mut sink = DiskSink::new(catalog, "cube_", schema, false, false, None).unwrap();
        let report = CubeBuilder::new(schema, CubeConfig::default())
            .build_in_memory(base, &mut sink)
            .unwrap();
        CubeMeta {
            prefix: "cube_".into(),
            fact_rel: "facts".into(),
            n_dims: schema.num_dims(),
            n_measures: 2,
            dr: false,
            plus: false,
            cat_format: report.stats.cat_format,
            partition_level: None,
            min_support: 1,
        }
        .write(catalog)
        .unwrap();
    }

    /// Oracle comparison: the active cube equals a fresh reference cube
    /// over `facts`. cure-core cannot depend on the query crate, so the
    /// stored cube is read back via an *empty-delta* [`update_cube`] into
    /// a [`MemSink`](crate::sink::MemSink) — which reproduces the cube
    /// exactly (proven by `update::tests`) — and decoded with
    /// [`MemCubeReader`](crate::reader::MemCubeReader).
    fn assert_matches_oracle(catalog: &Catalog, schema: &CubeSchema) {
        let fact = catalog.open_relation("facts").unwrap();
        let all = Tuples::load_fact(&fact, schema.num_dims(), schema.num_measures()).unwrap();
        drop(fact);
        let prefix = active_prefix(catalog);
        let empty = Tuples::new(schema.num_dims(), schema.num_measures());
        let mut sink = crate::sink::MemSink::new(schema.num_measures());
        update_cube(catalog, schema, &prefix, &empty, &CubeConfig::default(), &mut sink).unwrap();
        let meta = CubeMeta::read(catalog, &prefix).unwrap();
        let reader =
            crate::reader::MemCubeReader::new(schema, &sink, &all, meta.partition_level).unwrap();
        let coder = NodeCoder::new(schema);
        for id in coder.all_ids() {
            let mut got = reader.node_contents(id).unwrap();
            got.sort();
            let levels = coder.decode(id).unwrap();
            let want: Vec<(Vec<u32>, Vec<i64>)> = reference::compute_node(schema, &all, &levels)
                .into_iter()
                .map(|r| (r.dims, r.aggs))
                .collect();
            assert_eq!(got, want, "node {id} differs from oracle");
        }
    }

    #[test]
    fn manifest_roundtrip_and_crc() {
        let catalog = fresh_catalog("manifest");
        let m = IngestManifest {
            phase: IngestPhase::Merging,
            old_prefix: "cube_".into(),
            new_prefix: "cubeB_".into(),
            fact_rel: "facts".into(),
            fact_rows_before: 512,
            delta_rows: 64,
            drop_old: true,
        };
        m.save(&catalog).unwrap();
        assert_eq!(IngestManifest::load(&catalog).unwrap().unwrap(), m);
        // A flipped byte must be caught by the CRC and ignored.
        let path = IngestManifest::path(&catalog);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes.len() / 2;
        bytes[pos] = bytes[pos].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(IngestManifest::load(&catalog).unwrap().is_none());
        IngestManifest::remove(&catalog).unwrap();
        assert!(!IngestManifest::exists(&catalog));
        IngestManifest::remove(&catalog).unwrap(); // idempotent
    }

    #[test]
    fn other_prefix_toggles() {
        assert_eq!(other_prefix("cube_"), "cubeB_");
        assert_eq!(other_prefix("cubeB_"), "cube_");
        assert_eq!(other_prefix("v1_"), "v1B_");
        assert_eq!(other_prefix("v1B_"), "v1_");
    }

    #[test]
    fn ingest_swaps_and_drops_old_prefix() {
        let catalog = fresh_catalog("swap");
        let schema = schema();
        build_base(&catalog, &schema, &make_tuples(&schema, 400, 11));
        let delta = make_tuples(&schema, 60, 13);
        let report = ingest_cube(
            &catalog,
            &schema,
            &delta,
            &CubeConfig::default(),
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(report.new_prefix, "cubeB_");
        assert_eq!(active_prefix(&catalog), "cubeB_");
        assert!(report.dropped_objects > 0);
        // Satellite: the catalog holds exactly one cube's relations — no
        // old-prefix leftovers among relations or blobs.
        for name in catalog.list().unwrap() {
            assert!(name == "facts" || name.starts_with("cubeB_"), "old relation leaked: {name}");
        }
        for name in catalog.list_blobs().unwrap() {
            assert!(!name.starts_with("cube_"), "old blob leaked: {name}");
        }
        assert!(!IngestManifest::exists(&catalog));
        assert_matches_oracle(&catalog, &schema);
    }

    #[test]
    fn keep_old_leaves_both_cubes() {
        let catalog = fresh_catalog("keep");
        let schema = schema();
        build_base(&catalog, &schema, &make_tuples(&schema, 300, 21));
        let delta = make_tuples(&schema, 40, 23);
        let report = ingest_cube(
            &catalog,
            &schema,
            &delta,
            &CubeConfig::default(),
            &IngestOptions { drop_old: false },
        )
        .unwrap();
        assert_eq!(report.dropped_objects, 0);
        assert!(catalog.list().unwrap().iter().any(|n| n.starts_with("cube_")));
        assert_matches_oracle(&catalog, &schema);
    }

    #[test]
    fn chained_ingests_accumulate() {
        let catalog = fresh_catalog("chain");
        let schema = schema();
        build_base(&catalog, &schema, &make_tuples(&schema, 350, 31));
        for seed in [33, 35, 37] {
            let delta = make_tuples(&schema, 50, seed);
            ingest_cube(
                &catalog,
                &schema,
                &delta,
                &CubeConfig::default(),
                &IngestOptions::default(),
            )
            .unwrap();
        }
        assert_eq!(active_prefix(&catalog), "cubeB_");
        assert_matches_oracle(&catalog, &schema);
    }

    #[test]
    fn crash_while_appending_rolls_back() {
        let catalog = fresh_catalog("crashappend");
        let schema = schema();
        build_base(&catalog, &schema, &make_tuples(&schema, 200, 41));
        // Simulate the crash: journal Appending and append only half of
        // the journaled delta.
        let mut fact = catalog.open_relation("facts").unwrap();
        let before = fact.num_rows();
        IngestManifest {
            phase: IngestPhase::Appending,
            old_prefix: "cube_".into(),
            new_prefix: "cubeB_".into(),
            fact_rel: "facts".into(),
            fact_rows_before: before,
            delta_rows: 40,
            drop_old: true,
        }
        .save(&catalog)
        .unwrap();
        let partial = make_tuples(&schema, 20, 43);
        partial.store_fact(&mut fact).unwrap();
        fact.sync().unwrap();
        drop(fact);
        let rec = recover_ingest(&catalog, &schema, &CubeConfig::default()).unwrap().unwrap();
        assert_eq!(rec, IngestRecovery::RolledBack { discarded_rows: 20 });
        assert_eq!(catalog.open_relation("facts").unwrap().num_rows(), before);
        assert_eq!(active_prefix(&catalog), "cube_");
        assert!(!IngestManifest::exists(&catalog));
        assert_matches_oracle(&catalog, &schema);
        // The catalog is clean: a fresh ingest goes through.
        let delta = make_tuples(&schema, 30, 45);
        ingest_cube(&catalog, &schema, &delta, &CubeConfig::default(), &IngestOptions::default())
            .unwrap();
        assert_matches_oracle(&catalog, &schema);
    }

    #[test]
    fn crash_while_merging_rolls_forward() {
        let catalog = fresh_catalog("crashmerge");
        let schema = schema();
        let base = make_tuples(&schema, 250, 51);
        build_base(&catalog, &schema, &base);
        // Append a full delta durably and journal Merging, as ingest_cube
        // would have just before the crash; leave partial junk under the
        // new prefix to prove the redo clears it.
        let delta = make_tuples(&schema, 50, 53);
        let mut fact = catalog.open_relation("facts").unwrap();
        let before = fact.num_rows();
        let mut batch = Tuples::with_capacity(schema.num_dims(), 2, delta.len());
        for i in 0..delta.len() {
            batch.push(delta.dims_of(i), delta.aggs_of(i), 1, before + i as u64);
        }
        batch.store_fact(&mut fact).unwrap();
        fact.sync().unwrap();
        drop(fact);
        catalog.create_or_replace("cubeB_n0_nt", Tuples::fact_schema(1, 1)).unwrap();
        IngestManifest {
            phase: IngestPhase::Merging,
            old_prefix: "cube_".into(),
            new_prefix: "cubeB_".into(),
            fact_rel: "facts".into(),
            fact_rows_before: before,
            delta_rows: delta.len() as u64,
            drop_old: true,
        }
        .save(&catalog)
        .unwrap();
        let rec = recover_ingest(&catalog, &schema, &CubeConfig::default()).unwrap().unwrap();
        assert_eq!(rec, IngestRecovery::Completed { new_prefix: "cubeB_".into() });
        assert_eq!(active_prefix(&catalog), "cubeB_");
        assert!(!IngestManifest::exists(&catalog));
        assert_matches_oracle(&catalog, &schema);
    }

    #[test]
    fn crash_after_swap_journal_finishes_gc() {
        let catalog = fresh_catalog("crashswap");
        let schema = schema();
        build_base(&catalog, &schema, &make_tuples(&schema, 220, 61));
        // Run a full ingest but keep the old prefix, then hand-journal the
        // Swapped phase with drop_old=true — exactly the state after a
        // crash between the Swapped save and the GC.
        let delta = make_tuples(&schema, 30, 63);
        ingest_cube(
            &catalog,
            &schema,
            &delta,
            &CubeConfig::default(),
            &IngestOptions { drop_old: false },
        )
        .unwrap();
        IngestManifest {
            phase: IngestPhase::Swapped,
            old_prefix: "cube_".into(),
            new_prefix: "cubeB_".into(),
            fact_rel: "facts".into(),
            fact_rows_before: 220,
            delta_rows: 30,
            drop_old: true,
        }
        .save(&catalog)
        .unwrap();
        let rec = recover_ingest(&catalog, &schema, &CubeConfig::default()).unwrap().unwrap();
        assert_eq!(rec, IngestRecovery::Completed { new_prefix: "cubeB_".into() });
        assert!(!catalog.list().unwrap().iter().any(|n| n.starts_with("cube_")));
        assert!(!IngestManifest::exists(&catalog));
        assert_matches_oracle(&catalog, &schema);
    }

    #[test]
    fn recover_with_no_journal_is_none() {
        let catalog = fresh_catalog("nojournal");
        let schema = schema();
        assert!(recover_ingest(&catalog, &schema, &CubeConfig::default()).unwrap().is_none());
    }

    #[test]
    fn pending_journal_blocks_new_ingest() {
        let catalog = fresh_catalog("blocked");
        let schema = schema();
        build_base(&catalog, &schema, &make_tuples(&schema, 100, 71));
        IngestManifest {
            phase: IngestPhase::Appending,
            old_prefix: "cube_".into(),
            new_prefix: "cubeB_".into(),
            fact_rel: "facts".into(),
            fact_rows_before: 100,
            delta_rows: 1,
            drop_old: true,
        }
        .save(&catalog)
        .unwrap();
        let delta = make_tuples(&schema, 5, 73);
        assert!(ingest_cube(
            &catalog,
            &schema,
            &delta,
            &CubeConfig::default(),
            &IngestOptions::default()
        )
        .is_err());
    }

    #[test]
    fn iceberg_cubes_are_rejected_before_append() {
        let catalog = fresh_catalog("iceberg");
        let schema = schema();
        build_base(&catalog, &schema, &make_tuples(&schema, 120, 81));
        // Rewrite the meta as an iceberg cube.
        let mut meta = CubeMeta::read(&catalog, "cube_").unwrap();
        meta.min_support = 3;
        meta.write(&catalog).unwrap();
        let rows_before = catalog.open_relation("facts").unwrap().num_rows();
        let delta = make_tuples(&schema, 10, 83);
        assert!(ingest_cube(
            &catalog,
            &schema,
            &delta,
            &CubeConfig::default(),
            &IngestOptions::default()
        )
        .is_err());
        // Nothing was appended and no journal lingers.
        assert_eq!(catalog.open_relation("facts").unwrap().num_rows(), rows_before);
        assert!(!IngestManifest::exists(&catalog));
    }

    #[test]
    fn parse_batch_validates() {
        let schema = schema();
        let t = parse_batch(&schema, "1 2 3 | 10 20\n# comment\n\n4 5 0 | 1 2  # eol\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.dims_of(1), &[4, 5, 0]);
        assert_eq!(t.aggs_of(0), &[10, 20]);
        assert!(parse_batch(&schema, "1 2 | 10 20").is_err()); // missing dim
        assert!(parse_batch(&schema, "1 2 3 | 10").is_err()); // missing measure
        assert!(parse_batch(&schema, "99 2 3 | 10 20").is_err()); // out of range
        assert!(parse_batch(&schema, "1 2 3 10 20").is_err()); // no separator
        assert!(parse_batch(&schema, "x 2 3 | 10 20").is_err()); // not a number
    }
}

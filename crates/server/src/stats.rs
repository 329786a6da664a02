//! The top of the observability spine: one JSON-serializable snapshot
//! combining counters from every layer.
//!
//! The lower layers each expose plain counter structs —
//! [`StorageCounters`] for page/fsync/checksum traffic,
//! [`PhaseTimes`](cure_core::PhaseTimes) and
//! [`PoolCounters`](cure_core::PoolCounters) inside a [`BuildReport`]
//! for the build, and [`IngestReport`] for delta ingest. A [`StatsSnapshot`] stitches
//! whichever of those a command produced into a single JSON object
//! (`cure-cli build|ingest … --stats file.json`), so one file answers
//! "what did this run cost in I/O and time". Sections a command did not
//! exercise are simply absent — a build snapshot has no `ingest`
//! object, an ingest snapshot no `build` object.
//!
//! Assembly and serialization happen strictly *after* the timed work:
//! nothing here runs while a build or ingest is in flight.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use cure_core::{BuildReport, IngestReport};
use cure_storage::StorageCounters;
use serde_json::{json, ToJson, Value};

/// Build a JSON object from `(key, value)` pairs (the vendored stub has
/// no nested-object macro).
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect::<BTreeMap<_, _>>())
}

/// A combined, JSON-serializable statistics snapshot for one CLI run.
#[derive(Debug, Default)]
pub struct StatsSnapshot {
    build: Option<Value>,
    storage: Option<Value>,
    ingest: Option<Value>,
}

impl StatsSnapshot {
    /// An empty snapshot; fill in the sections the run produced.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the build-layer section: sink totals, sort/pool counters,
    /// and the wall-clock phase breakdown.
    pub fn set_build(&mut self, report: &BuildReport) {
        let s = &report.stats;
        let p = &report.phases;
        let c = &report.pool;
        self.build = Some(obj(vec![
            (
                "sink",
                obj(vec![
                    ("tt_tuples", json!(s.tt_tuples)),
                    ("nt_tuples", json!(s.nt_tuples)),
                    ("cat_tuples", json!(s.cat_tuples)),
                    ("aggregates_rows", json!(s.aggregates_rows)),
                    ("total_tuples", json!(s.total_tuples())),
                    ("total_bytes", json!(s.total_bytes())),
                    ("relations", json!(s.relations)),
                ]),
            ),
            (
                "sorts",
                obj(vec![
                    ("counting", json!(report.counting_sorts)),
                    ("comparison", json!(report.comparison_sorts)),
                ]),
            ),
            (
                "pool",
                obj(vec![
                    ("flushes", json!(report.pool_flushes)),
                    ("signatures", json!(report.signatures)),
                    ("tt_prunes", json!(c.tt_prunes)),
                    ("nt_written", json!(c.nt_written)),
                    ("cat_groups", json!(c.cat_groups)),
                    ("cat_group_tuples", json!(c.cat_tuples)),
                ]),
            ),
            (
                "phases_secs",
                obj(vec![
                    ("partition", json!(p.partition_secs)),
                    ("pass", json!(p.pass_secs)),
                    ("sort", json!(p.sort_secs)),
                    ("flush", json!(p.flush_secs)),
                    ("merge", json!(p.merge_secs)),
                ]),
            ),
            ("partitioned", json!(report.partition.is_some())),
        ]));
    }

    /// Record the storage-layer section: page I/O, fsyncs, retry and
    /// checksum counters.
    pub fn set_storage(&mut self, io: StorageCounters) {
        self.storage = Some(obj(vec![
            ("pages_read", json!(io.pages_read)),
            ("pages_written", json!(io.pages_written)),
            ("fsyncs", json!(io.fsyncs)),
            ("write_retries", json!(io.write_retries)),
            ("read_retries", json!(io.read_retries)),
            ("checksum_verifications", json!(io.checksum_verifications)),
            ("checksum_failures", json!(io.checksum_failures)),
        ]));
    }

    /// Record the ingest-layer section of one ingest (`cure-cli ingest`
    /// applies one delta batch, moving the cube one epoch): its
    /// [`UpdateReport`](cure_core::UpdateReport) numbers and timings, so
    /// ingest runs are observable like builds.
    pub fn set_ingest(&mut self, t: &IngestReport) {
        let u = &t.update;
        self.ingest = Some(obj(vec![
            ("epoch", json!(1u64)),
            ("batches", json!(1u64)),
            ("delta_rows", json!(t.delta_rows)),
            ("tt_demotions", json!(u.tt_demotions)),
            ("merged_groups", json!(u.merged_groups)),
            ("carried_groups", json!(u.carried_groups)),
            ("new_groups", json!(u.new_groups)),
            ("dropped_objects", json!(t.dropped_objects)),
            ("append_secs", json!(t.append_secs)),
            ("merge_secs", json!(t.merge_secs)),
            ("walk_secs", json!(t.walk_secs)),
            ("sink_secs", json!(t.sink_secs)),
            ("sync_secs", json!(t.sync_secs)),
            ("gc_secs", json!(t.gc_secs)),
        ]));
    }

    /// Pretty-printed JSON bytes, ready for `--stats <file>`.
    pub fn to_pretty_bytes(&self) -> Vec<u8> {
        // The stub's serializer is infallible; keep the signature simple.
        serde_json::to_vec_pretty(self).unwrap_or_default()
    }
}

impl ToJson for StatsSnapshot {
    fn to_json(&self) -> Value {
        let mut top: Vec<(&str, Value)> = Vec::new();
        if let Some(b) = &self.build {
            top.push(("build", b.clone()));
        }
        if let Some(s) = &self.storage {
            top.push(("storage", s.clone()));
        }
        if let Some(i) = &self.ingest {
            top.push(("ingest", i.clone()));
        }
        obj(top)
    }
}

#[cfg(test)]
mod tests {
    use cure_core::{PhaseTimes, PoolCounters};

    use super::*;

    fn sample_build_report() -> BuildReport {
        BuildReport {
            stats: cure_core::SinkStats {
                tt_tuples: 10,
                nt_tuples: 20,
                cat_tuples: 5,
                aggregates_rows: 2,
                tt_bytes: 80,
                nt_bytes: 400,
                cat_bytes: 40,
                aggregates_bytes: 32,
                relations: 7,
                cat_format: None,
            },
            pool_flushes: 1,
            signatures: 25,
            counting_sorts: 100,
            comparison_sorts: 3,
            phases: PhaseTimes {
                partition_secs: 0.5,
                pass_secs: 1.5,
                sort_secs: 0.25,
                flush_secs: 0.125,
                merge_secs: 0.0625,
            },
            pool: PoolCounters { tt_prunes: 10, nt_written: 18, cat_groups: 2, cat_tuples: 7 },
            partition: None,
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut snap = StatsSnapshot::new();
        snap.set_build(&sample_build_report());
        snap.set_storage(StorageCounters {
            pages_read: 11,
            pages_written: 22,
            fsyncs: 3,
            write_retries: 1,
            read_retries: 2,
            checksum_verifications: 9,
            checksum_failures: 1,
            ..StorageCounters::default()
        });

        let bytes = snap.to_pretty_bytes();
        let text = String::from_utf8(bytes).unwrap();
        let v = serde_json::from_str(&text).unwrap();

        // Every layer survives the trip with its key counters intact.
        let build = v.get("build").expect("build section");
        assert_eq!(
            build.get("sink").and_then(|s| s.get("tt_tuples")).and_then(Value::as_u64),
            Some(10)
        );
        assert_eq!(
            build.get("pool").and_then(|p| p.get("tt_prunes")).and_then(Value::as_u64),
            Some(10)
        );
        let phases = build.get("phases_secs").expect("phases");
        assert_eq!(phases.get("pass").and_then(Value::as_f64), Some(1.5));
        assert_eq!(phases.get("merge").and_then(Value::as_f64), Some(0.0625));

        let storage = v.get("storage").expect("storage section");
        assert_eq!(storage.get("pages_read").and_then(Value::as_u64), Some(11));
        assert_eq!(storage.get("fsyncs").and_then(Value::as_u64), Some(3));
        assert_eq!(storage.get("read_retries").and_then(Value::as_u64), Some(2));
        assert_eq!(storage.get("checksum_verifications").and_then(Value::as_u64), Some(9));
        assert_eq!(storage.get("checksum_failures").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn empty_sections_are_omitted() {
        let mut snap = StatsSnapshot::new();
        assert_eq!(snap.to_json().to_string(), "{}");
        snap.set_storage(StorageCounters::default());
        let v = snap.to_json();
        assert!(v.get("storage").is_some());
        assert!(v.get("build").is_none());
        assert!(v.get("ingest").is_none());
    }

    #[test]
    fn ingest_section_round_trips() {
        let mut snap = StatsSnapshot::new();
        snap.set_ingest(&IngestReport {
            update: cure_core::UpdateReport {
                tt_demotions: 12,
                merged_groups: 40,
                carried_groups: 900,
                new_groups: 77,
                ..Default::default()
            },
            delta_rows: 150,
            old_prefix: "e0_".into(),
            new_prefix: "e1_".into(),
            dropped_objects: 21,
            append_secs: 0.25,
            merge_secs: 1.5,
            walk_secs: 1.0,
            sink_secs: 0.25,
            sync_secs: 0.125,
            gc_secs: 0.0625,
        });
        let text = String::from_utf8(snap.to_pretty_bytes()).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        let ing = v.get("ingest").expect("ingest section");
        // One ingest applies one batch and moves the cube one epoch.
        assert_eq!(ing.get("epoch").and_then(Value::as_u64), Some(1));
        assert_eq!(ing.get("batches").and_then(Value::as_u64), Some(1));
        assert_eq!(ing.get("delta_rows").and_then(Value::as_u64), Some(150));
        assert_eq!(ing.get("sync_secs").and_then(Value::as_f64), Some(0.125));
        assert_eq!(ing.get("tt_demotions").and_then(Value::as_u64), Some(12));
        assert_eq!(ing.get("carried_groups").and_then(Value::as_u64), Some(900));
        assert_eq!(ing.get("merge_secs").and_then(Value::as_f64), Some(1.5));
    }
}

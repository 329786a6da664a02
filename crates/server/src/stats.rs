//! The top of the observability spine: one JSON-serializable snapshot
//! combining counters from every layer.
//!
//! The lower layers each expose plain counter structs —
//! [`StorageCounters`](cure_storage::StorageCounters) for page/fsync/spill
//! traffic, [`PhaseTimes`](cure_core::PhaseTimes) and
//! [`PoolCounters`](cure_core::PoolCounters) inside a
//! [`BuildReport`](cure_core::BuildReport) for the build, and
//! [`IngestTotals`] for delta ingest. A [`StatsSnapshot`] stitches
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

use cure_core::BuildReport;
use cure_storage::StorageCounters;
use serde_json::{json, ToJson, Value};

/// Build a JSON object from `(key, value)` pairs (the vendored stub has
/// no nested-object macro).
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect::<BTreeMap<_, _>>())
}

/// Cumulative ingest counters: [`UpdateReport`](cure_core::UpdateReport)
/// totals plus the epoch/batch bookkeeping of one-shot (`cure-cli
/// ingest`) or live ([`LiveCubeService`](crate::LiveCubeService)) delta
/// application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestTotals {
    /// Epoch counter after the last applied batch.
    pub epoch: u64,
    /// Delta batches applied.
    pub batches: u64,
    /// Delta tuples appended to the fact relation.
    pub delta_rows: u64,
    /// TTs that lost trivial status at some node.
    pub tt_demotions: u64,
    /// Groups merged from both old cube and delta.
    pub merged_groups: u64,
    /// Groups carried unchanged from the old cube.
    pub carried_groups: u64,
    /// Groups introduced by deltas alone.
    pub new_groups: u64,
    /// Catalog objects dropped by old-prefix GC.
    pub dropped_objects: u64,
    /// Seconds spent appending + fsyncing deltas.
    pub append_secs: f64,
    /// Seconds spent merging (update walk + sink + fsync).
    pub merge_secs: f64,
    /// Of `merge_secs`: the update walk.
    pub walk_secs: f64,
    /// Of `merge_secs`: writing the merged cubes' pages (no fsync).
    pub sink_secs: f64,
    /// Of `merge_secs`: the merged cubes' fsyncs and metadata writes.
    pub sync_secs: f64,
    /// Seconds spent dropping superseded cubes.
    pub gc_secs: f64,
}

impl IngestTotals {
    /// Totals of a single one-shot ingest.
    pub fn from_report(r: &cure_core::IngestReport) -> Self {
        IngestTotals {
            epoch: 1,
            batches: 1,
            delta_rows: r.delta_rows,
            tt_demotions: r.update.tt_demotions,
            merged_groups: r.update.merged_groups,
            carried_groups: r.update.carried_groups,
            new_groups: r.update.new_groups,
            dropped_objects: r.dropped_objects,
            append_secs: r.append_secs,
            merge_secs: r.merge_secs,
            walk_secs: r.walk_secs,
            sink_secs: r.sink_secs,
            sync_secs: r.sync_secs,
            gc_secs: r.gc_secs,
        }
    }
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
    /// external-sort spill counters.
    pub fn set_storage(&mut self, io: StorageCounters) {
        self.storage = Some(obj(vec![
            ("pages_read", json!(io.pages_read)),
            ("pages_written", json!(io.pages_written)),
            ("fsyncs", json!(io.fsyncs)),
            ("write_retries", json!(io.write_retries)),
            ("read_retries", json!(io.read_retries)),
            ("checksum_verifications", json!(io.checksum_verifications)),
            ("checksum_failures", json!(io.checksum_failures)),
            ("sort_runs", json!(io.sort_runs)),
            ("sort_spill_bytes", json!(io.sort_spill_bytes)),
        ]));
    }

    /// Record the ingest-layer section: epoch/batch counters and the
    /// accumulated [`UpdateReport`](cure_core::UpdateReport) numbers, so
    /// ingest runs are observable like builds.
    pub fn set_ingest(&mut self, t: &IngestTotals) {
        self.ingest = Some(obj(vec![
            ("epoch", json!(t.epoch)),
            ("batches", json!(t.batches)),
            ("delta_rows", json!(t.delta_rows)),
            ("tt_demotions", json!(t.tt_demotions)),
            ("merged_groups", json!(t.merged_groups)),
            ("carried_groups", json!(t.carried_groups)),
            ("new_groups", json!(t.new_groups)),
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
            sort_runs: 4,
            sort_spill_bytes: 4096,
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
        assert_eq!(storage.get("sort_spill_bytes").and_then(Value::as_u64), Some(4096));
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
        snap.set_ingest(&IngestTotals {
            epoch: 3,
            batches: 3,
            delta_rows: 150,
            tt_demotions: 12,
            merged_groups: 40,
            carried_groups: 900,
            new_groups: 77,
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
        assert_eq!(ing.get("epoch").and_then(Value::as_u64), Some(3));
        assert_eq!(ing.get("delta_rows").and_then(Value::as_u64), Some(150));
        assert_eq!(ing.get("sync_secs").and_then(Value::as_f64), Some(0.125));
        assert_eq!(ing.get("tt_demotions").and_then(Value::as_u64), Some(12));
        assert_eq!(ing.get("carried_groups").and_then(Value::as_u64), Some(900));
        assert_eq!(ing.get("merge_secs").and_then(Value::as_f64), Some(1.5));
    }
}

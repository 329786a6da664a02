//! Cube output sinks: where classified tuples get stored.
//!
//! §5 of the paper defines the storage side of CURE: per cube node up to
//! three relations — **NT** (normal tuples), **TT** (trivial tuples),
//! **CAT** (common-aggregate tuples) — plus one shared `AGGREGATES`
//! relation. The [`CubeSink`] trait receives classified tuples from the
//! construction algorithm; two implementations are provided:
//!
//! * [`MemSink`] — keeps everything in memory. Used by unit tests, the
//!   reference-oracle comparisons and pure-CPU benchmarks.
//! * [`DiskSink`] — writes real relations through the
//!   [`cure_storage::Catalog`], buffering per node: every node relation
//!   is a run of extents in the cube's one segment file
//!   ([`cure_storage::segment`]), `AGGREGATES` is a heap file; supports the
//!   **CURE_DR** variant (NTs store materialized dimension values instead
//!   of row-id references) and the **CURE+** variant (TT row-id lists are
//!   sorted and stored as compressed bitmaps in a post-processing step,
//!   §5.3).
//!
//! ## Relation formats (all row widths fixed)
//!
//! | relation | format (a) "common source" | format (b) "coincidental" |
//! |---|---|---|
//! | `AGGREGATES` | `(R-rowid, Aggr1..AggrY)` | `(Aggr1..AggrY)` |
//! | node `CAT`   | `(A-rowid)`               | `(R-rowid, A-rowid)` |
//!
//! | relation | CURE | CURE_DR |
//! |---|---|---|
//! | node `NT` | `(R-rowid, Aggr1..AggrY)` | `(g1..gk, Aggr1..AggrY)` |
//! | node `TT` | `(R-rowid)` | same |

use std::time::Instant;

use cure_storage::hash::FxHashMap;
use cure_storage::{
    BitmapIndex, Catalog, ColType, Column, HeapFile, Schema, SegmentCheckpoint, SegmentWriter,
};

use crate::error::{CubeError, Result};
use crate::hierarchy::CubeSchema;
use crate::lattice::{NodeCoder, NodeId};

/// How CATs and the shared `AGGREGATES` relation are laid out (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatFormat {
    /// Format (a): `AGGREGATES(R-rowid, aggs…)`, node CAT rows hold only an
    /// A-rowid. Best when most CATs are *common source* (`k/n > Y+1`).
    CommonSource,
    /// Format (b): `AGGREGATES(aggs…)`, node CAT rows hold `(R-rowid,
    /// A-rowid)`. Best when *coincidental* CATs prevail and `Y > 1`.
    Coincidental,
    /// Store CATs as plain NTs (the best choice when `Y = 1`).
    AsNt,
}

/// How the format is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CatFormatPolicy {
    /// Decide from statistics gathered during the first signature flush
    /// that contains CATs (the paper's dynamic criterion).
    #[default]
    Auto,
    /// Force a specific format (used by the format ablation benchmark).
    Force(CatFormat),
}

/// Classified-tuple counts and logical byte volumes of a finished cube.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Trivial tuples stored (after TT-subtree sharing).
    pub tt_tuples: u64,
    /// Normal tuples stored.
    pub nt_tuples: u64,
    /// Common-aggregate tuples stored.
    pub cat_tuples: u64,
    /// Rows in the shared `AGGREGATES` relation.
    pub aggregates_rows: u64,
    /// Logical bytes of TT storage (row-ids, or compressed bitmaps for
    /// CURE+).
    pub tt_bytes: u64,
    /// Logical bytes of NT storage.
    pub nt_bytes: u64,
    /// Logical bytes of node CAT storage.
    pub cat_bytes: u64,
    /// Logical bytes of the `AGGREGATES` relation.
    pub aggregates_bytes: u64,
    /// Number of distinct node relations materialized.
    pub relations: u64,
    /// The CAT format that was used (None if no CATs were ever written).
    pub cat_format: Option<CatFormat>,
}

impl SinkStats {
    /// Total logical cube size in bytes — the paper's "storage space".
    pub fn total_bytes(&self) -> u64 {
        self.tt_bytes + self.nt_bytes + self.cat_bytes + self.aggregates_bytes
    }

    /// Total stored cube tuples across classes.
    pub fn total_tuples(&self) -> u64 {
        self.tt_tuples + self.nt_tuples + self.cat_tuples
    }
}

/// Receives classified cube tuples during construction.
pub trait CubeSink {
    /// Number of aggregate values per tuple (`Y`).
    fn n_measures(&self) -> usize;

    /// Fix the CAT format; called once, before the first CAT write.
    fn set_cat_format(&mut self, f: CatFormat);

    /// The format fixed so far, if any.
    fn cat_format(&self) -> Option<CatFormat>;

    /// Store a trivial tuple: the row-id of the single source tuple, in
    /// the least detailed node it belongs to.
    fn write_tt(&mut self, node: NodeId, rowid: u64) -> Result<()>;

    /// Store a normal tuple.
    fn write_nt(&mut self, node: NodeId, rowid: u64, aggs: &[i64]) -> Result<()>;

    /// Store a group of CATs sharing `aggs`.
    ///
    /// Under [`CatFormat::CommonSource`] the caller groups by `(aggs,
    /// rowid)` so all members share one row-id; under
    /// [`CatFormat::Coincidental`] the group is all CATs with equal `aggs`.
    fn write_cat_group(&mut self, members: &[(NodeId, u64)], aggs: &[i64]) -> Result<()>;

    /// Flush buffers, run post-processing, and return the final stats.
    fn finish(&mut self) -> Result<SinkStats>;

    /// A partition pass is complete and its pool flushed: write out
    /// whatever is buffered. Both build drivers call this at every
    /// partition boundary, so what is stored does not depend on the
    /// driver, the thread count or a resume.
    fn end_partition(&mut self) -> Result<()> {
        Ok(())
    }

    /// Trivial tuples written so far (a recording sink counts them, so
    /// a recorded flush knows where it fell among the TT writes).
    fn tts_written(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// MemSink
// ---------------------------------------------------------------------------

/// An in-memory sink: the whole classified cube in hash maps.
#[derive(Debug)]
pub struct MemSink {
    y: usize,
    /// TT row-ids per node.
    pub tts: FxHashMap<NodeId, Vec<u64>>,
    /// NT `(rowid, aggs)` per node.
    pub nts: FxHashMap<NodeId, Vec<(u64, Vec<i64>)>>,
    /// CAT `(rowid, aggregates-row index)` per node.
    pub cats: FxHashMap<NodeId, Vec<(u64, u64)>>,
    /// Shared aggregate rows: `(source rowid for format (a), aggs)`.
    pub aggregates: Vec<(Option<u64>, Vec<i64>)>,
    format: Option<CatFormat>,
}

impl MemSink {
    /// Create an in-memory sink for `y` aggregates per tuple.
    pub fn new(y: usize) -> Self {
        MemSink {
            y,
            tts: FxHashMap::default(),
            nts: FxHashMap::default(),
            cats: FxHashMap::default(),
            aggregates: Vec::new(),
            format: None,
        }
    }
}

impl CubeSink for MemSink {
    fn n_measures(&self) -> usize {
        self.y
    }

    fn set_cat_format(&mut self, f: CatFormat) {
        debug_assert!(self.format.is_none() || self.format == Some(f), "format set twice");
        self.format = Some(f);
    }

    fn cat_format(&self) -> Option<CatFormat> {
        self.format
    }

    fn write_tt(&mut self, node: NodeId, rowid: u64) -> Result<()> {
        self.tts.entry(node).or_default().push(rowid);
        Ok(())
    }

    fn write_nt(&mut self, node: NodeId, rowid: u64, aggs: &[i64]) -> Result<()> {
        debug_assert_eq!(aggs.len(), self.y);
        self.nts.entry(node).or_default().push((rowid, aggs.to_vec()));
        Ok(())
    }

    fn write_cat_group(&mut self, members: &[(NodeId, u64)], aggs: &[i64]) -> Result<()> {
        let format = self
            .format
            .ok_or_else(|| CubeError::Config("CAT written before a format was decided".into()))?;
        match format {
            CatFormat::AsNt => {
                for &(node, rowid) in members {
                    self.write_nt(node, rowid, aggs)?;
                }
            }
            CatFormat::CommonSource => {
                let a_rowid = self.aggregates.len() as u64;
                self.aggregates.push((Some(members[0].1), aggs.to_vec()));
                for &(node, rowid) in members {
                    debug_assert_eq!(rowid, members[0].1, "format (a) members share a source");
                    self.cats.entry(node).or_default().push((rowid, a_rowid));
                }
            }
            CatFormat::Coincidental => {
                let a_rowid = self.aggregates.len() as u64;
                self.aggregates.push((None, aggs.to_vec()));
                for &(node, rowid) in members {
                    self.cats.entry(node).or_default().push((rowid, a_rowid));
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<SinkStats> {
        let y = self.y as u64;
        let mut s = SinkStats { cat_format: self.format, ..Default::default() };
        for v in self.tts.values() {
            s.tt_tuples += v.len() as u64;
            s.tt_bytes += 8 * v.len() as u64;
        }
        for v in self.nts.values() {
            s.nt_tuples += v.len() as u64;
            s.nt_bytes += (8 + 8 * y) * v.len() as u64;
        }
        let cat_row_bytes = match self.format {
            Some(CatFormat::CommonSource) => 8,
            _ => 16,
        };
        for v in self.cats.values() {
            s.cat_tuples += v.len() as u64;
            s.cat_bytes += cat_row_bytes * v.len() as u64;
        }
        s.aggregates_rows = self.aggregates.len() as u64;
        let agg_row_bytes = match self.format {
            Some(CatFormat::CommonSource) => 8 + 8 * y,
            _ => 8 * y,
        };
        s.aggregates_bytes = s.aggregates_rows * agg_row_bytes;
        s.relations = (self.tts.len() + self.nts.len() + self.cats.len()) as u64
            + u64::from(!self.aggregates.is_empty());
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// DiskSink
// ---------------------------------------------------------------------------

/// Relation name of a node's TT relation.
pub fn tt_rel_name(prefix: &str, node: NodeId) -> String {
    format!("{prefix}n{node}_tt")
}

/// Relation name of a node's NT relation.
pub fn nt_rel_name(prefix: &str, node: NodeId) -> String {
    format!("{prefix}n{node}_nt")
}

/// Relation name of a node's CAT relation.
pub fn cat_rel_name(prefix: &str, node: NodeId) -> String {
    format!("{prefix}n{node}_cat")
}

/// Relation name of the shared AGGREGATES relation.
pub fn aggregates_rel_name(prefix: &str) -> String {
    format!("{prefix}aggregates")
}

/// Blob name of a node's CURE+ TT bitmap.
pub fn tt_bitmap_name(prefix: &str, node: NodeId) -> String {
    format!("{prefix}n{node}_ttbm")
}

/// Blob name of a node's CURE+ CAT bitmap (format (a) only — §5.3 notes
/// the bitmap trick applies to "TT, and probably CAT if it uses format
/// (a)", whose node rows are bare A-rowids).
pub fn cat_bitmap_name(prefix: &str, node: NodeId) -> String {
    format!("{prefix}n{node}_catbm")
}

fn agg_cols(y: usize) -> Vec<Column> {
    (0..y).map(|i| Column::new(format!("aggr{i}"), ColType::I64)).collect()
}

/// Schema of `AGGREGATES` under a format.
pub fn aggregates_schema(y: usize, format: CatFormat) -> Schema {
    let mut cols = Vec::new();
    if format == CatFormat::CommonSource {
        cols.push(Column::new("r_rowid", ColType::U64));
    }
    cols.extend(agg_cols(y));
    Schema::new(cols)
}

/// Schema of a node CAT relation under a format.
pub fn cat_schema(format: CatFormat) -> Schema {
    match format {
        CatFormat::CommonSource => Schema::new(vec![Column::new("a_rowid", ColType::U64)]),
        _ => Schema::new(vec![
            Column::new("r_rowid", ColType::U64),
            Column::new("a_rowid", ColType::U64),
        ]),
    }
}

/// Schema of a node NT relation (`arity` > 0 selects the CURE_DR layout
/// with materialized grouping values).
pub fn nt_schema(y: usize, dr_arity: Option<usize>) -> Schema {
    let mut cols = Vec::new();
    match dr_arity {
        Some(k) => {
            for i in 0..k {
                cols.push(Column::new(format!("g{i}"), ColType::U32));
            }
        }
        None => cols.push(Column::new("r_rowid", ColType::U64)),
    }
    cols.extend(agg_cols(y));
    Schema::new(cols)
}

/// Schema of a node TT relation (plain row-id list).
pub fn tt_schema() -> Schema {
    Schema::new(vec![Column::new("r_rowid", ColType::U64)])
}

/// Resolves an original fact row-id to its leaf dimension ids. Needed by
/// the CURE_DR variant to materialize grouping values at flush time.
pub type RowResolver<'a> = Box<dyn FnMut(u64, &mut [u32]) -> Result<()> + Send + 'a>;

/// The CURE_DR [`RowResolver`] over fact relation `fact_rel` of
/// `catalog`: row-id `r` resolves to fact row `r`'s leading dimension
/// columns, one per output slot.
pub fn fact_row_resolver(catalog: &Catalog, fact_rel: &str) -> Result<RowResolver<'static>> {
    let fact = catalog.open_relation(fact_rel)?;
    let mut buf = vec![0u8; fact.schema().row_width()];
    Ok(Box::new(move |rowid, out: &mut [u32]| {
        fact.fetch_into(rowid, &mut buf)?;
        for (i, o) in out.iter_mut().enumerate() {
            *o = Schema::read_u32_at(&buf, fact.schema().offset(i));
        }
        Ok(())
    }))
}

#[derive(Default)]
struct NodeBuf {
    tt: Vec<u64>,
    nt: Vec<u8>,
    cat: Vec<u8>,
    /// Format-(a) A-rowids retained for CURE+ bitmap post-processing.
    cat_a_rowids: Vec<u64>,
}

/// Flush a node buffer once it holds this many bytes.
const NODE_BUF_FLUSH_BYTES: usize = 256 * 1024;

/// A durable snapshot of a [`DiskSink`]'s progress, taken by
/// [`DiskSink::checkpoint`] after all buffers are flushed and fsynced.
/// The build manifest journals it; [`DiskSink::restore_checkpoint`] rebuilds
/// an equivalent sink on resume: the segment's page count and extent
/// table, and the shared `AGGREGATES` relation's row count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkCheckpoint {
    /// The CAT format decided so far, if any.
    pub format: Option<CatFormat>,
    /// Rows sealed in the shared `AGGREGATES` relation.
    pub agg_rows: u64,
    /// Trivial tuples written so far.
    pub tt_tuples: u64,
    /// Normal tuples written so far.
    pub nt_tuples: u64,
    /// Common-aggregate tuples written so far.
    pub cat_tuples: u64,
    /// The segment's fsynced pages and what they hold.
    pub segment: SegmentCheckpoint,
}

/// Where a [`DiskSink`]'s time went, for the ingest time split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SinkTimes {
    /// Writing extents, `AGGREGATES` pages, bitmaps and the segment
    /// directory (no fsync).
    pub write_secs: f64,
    /// Fsyncing the segment, `AGGREGATES` and the catalog directory.
    pub sync_secs: f64,
}

/// A sink writing real relations through a [`Catalog`].
pub struct DiskSink<'a> {
    catalog: &'a Catalog,
    prefix: String,
    schema: &'a CubeSchema,
    coder: NodeCoder,
    dr: bool,
    plus: bool,
    resolver: Option<RowResolver<'a>>,
    format: Option<CatFormat>,
    bufs: FxHashMap<NodeId, NodeBuf>,
    /// The cube's segment, started at the first write (the caller may
    /// clear the prefix after creating the sink).
    segment: Option<SegmentWriter>,
    aggregates: Option<HeapFile>,
    agg_rows: u64,
    stats: SinkStats,
    leaf_scratch: Vec<u32>,
    /// CURE+ bitmap blobs written.
    bitmaps: u64,
    /// Whether `AGGREGATES` has writes since the last sync.
    agg_dirty: bool,
    times: SinkTimes,
}

impl<'a> DiskSink<'a> {
    /// Create a disk sink.
    ///
    /// * `prefix` — namespaces all relations of this cube in the catalog.
    /// * `dr` — CURE_DR: materialize NT dimension values (needs `resolver`).
    /// * `plus` — CURE+: post-process TT lists into sorted bitmaps.
    pub fn new(
        catalog: &'a Catalog,
        prefix: impl Into<String>,
        schema: &'a CubeSchema,
        dr: bool,
        plus: bool,
        resolver: Option<RowResolver<'a>>,
    ) -> Result<Self> {
        if dr && resolver.is_none() {
            return Err(CubeError::Config("CURE_DR requires a row resolver".into()));
        }
        let coder = NodeCoder::new(schema);
        let n_dims = schema.num_dims();
        Ok(DiskSink {
            catalog,
            prefix: prefix.into(),
            schema,
            coder,
            dr,
            plus,
            resolver,
            format: None,
            bufs: FxHashMap::default(),
            segment: None,
            aggregates: None,
            agg_rows: 0,
            stats: SinkStats::default(),
            leaf_scratch: vec![0u32; n_dims],
            bitmaps: 0,
            agg_dirty: false,
            times: SinkTimes::default(),
        })
    }

    /// The relation-name prefix this sink writes under.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Whether this sink stores CURE_DR-layout NTs.
    pub fn dr(&self) -> bool {
        self.dr
    }

    /// Whether this sink can checkpoint (CURE+ cannot: TT row-id lists are
    /// held in memory until `finish` builds the bitmaps).
    pub fn supports_checkpoint(&self) -> bool {
        !self.plus
    }

    /// Time spent writing and fsyncing so far.
    pub fn times(&self) -> SinkTimes {
        self.times
    }

    /// Flush and fsync everything written so far and return a durable
    /// snapshot of the sink's progress for the build manifest.
    ///
    /// After this returns, every journaled row is on stable storage; a
    /// crash at any later point can be recovered by truncating the
    /// segment and `AGGREGATES` back to the journaled sizes.
    pub fn checkpoint(&mut self) -> Result<SinkCheckpoint> {
        if self.plus {
            return Err(CubeError::Config(
                "CURE+ builds cannot checkpoint: TT bitmaps are buffered until finish".into(),
            ));
        }
        self.end_partition()?;
        if let Some(rel) = self.aggregates.as_mut() {
            rel.flush()?;
        }
        self.sync()?;
        Ok(SinkCheckpoint {
            format: self.format,
            agg_rows: self.agg_rows,
            tt_tuples: self.stats.tt_tuples,
            nt_tuples: self.stats.nt_tuples,
            cat_tuples: self.stats.cat_tuples,
            segment: self.segment.as_ref().map(SegmentWriter::checkpoint).unwrap_or_default(),
        })
    }

    /// Make every flushed row durable: fsync `AGGREGATES` if it was
    /// written, the segment if it was (a sealed segment already is),
    /// then the catalog directory once, so the files created since are
    /// durable too. CURE+ bitmaps are atomic blobs and need nothing here.
    pub fn sync(&mut self) -> Result<()> {
        let t = Instant::now();
        if let (Some(rel), true) = (self.aggregates.as_ref(), self.agg_dirty) {
            rel.sync()?;
            self.agg_dirty = false;
        }
        if let Some(seg) = self.segment.as_mut() {
            seg.sync()?;
        }
        self.catalog.sync_dir()?;
        self.times.sync_secs += t.elapsed().as_secs_f64();
        Ok(())
    }

    /// Rebuild this (freshly created) sink's progress from a journaled
    /// checkpoint: the segment is truncated back to the journaled pages
    /// (see [`SegmentWriter`]). The caller is responsible for having
    /// truncated `AGGREGATES` back to its sealed row count first.
    pub fn restore_checkpoint(&mut self, cp: &SinkCheckpoint) -> Result<()> {
        if self.plus {
            return Err(CubeError::Config("CURE+ builds cannot restore a checkpoint".into()));
        }
        if !self.bufs.is_empty()
            || self.stats.total_tuples() > 0
            || self.aggregates.is_some()
            || self.segment.is_some()
        {
            return Err(CubeError::Config("restore_checkpoint requires a fresh sink".into()));
        }
        self.format = cp.format;
        self.agg_rows = cp.agg_rows;
        self.stats.tt_tuples = cp.tt_tuples;
        self.stats.nt_tuples = cp.nt_tuples;
        self.stats.cat_tuples = cp.cat_tuples;
        if cp.segment.pages > 0 {
            self.segment = Some(self.catalog.resume_segment(&self.prefix, &cp.segment)?);
        }
        if cp.agg_rows > 0 {
            let name = aggregates_rel_name(&self.prefix);
            let rel = self.catalog.open_relation(&name)?;
            if rel.num_rows() != cp.agg_rows {
                return Err(CubeError::Config(format!(
                    "AGGREGATES has {} rows on disk but {} are journaled; \
                     recovery must truncate before restoring",
                    rel.num_rows(),
                    cp.agg_rows
                )));
            }
            self.aggregates = Some(rel);
        }
        Ok(())
    }

    /// The segment, started on first use.
    fn segment(&mut self) -> Result<&mut SegmentWriter> {
        if self.segment.is_none() {
            self.segment = Some(self.catalog.create_segment(&self.prefix)?);
        }
        self.segment.as_mut().ok_or_else(|| CubeError::Config("segment vanished".into()))
    }

    /// Append node `node`'s buffered `which` rows to the segment as one
    /// extent, emptying the buffer.
    fn flush_node_part(&mut self, node: NodeId, which: Part) -> Result<()> {
        let Some(buf) = self.bufs.get_mut(&node) else { return Ok(()) };
        let (name, schema, rows) = match which {
            Part::Tt => {
                if buf.tt.is_empty() {
                    return Ok(());
                }
                let rows: Vec<u8> = buf.tt.drain(..).flat_map(u64::to_le_bytes).collect();
                (tt_rel_name(&self.prefix, node), tt_schema(), rows)
            }
            Part::Nt => {
                if buf.nt.is_empty() {
                    return Ok(());
                }
                let rows = std::mem::take(&mut buf.nt);
                let arity = if self.dr {
                    let levels = self.coder.decode(node)?;
                    Some(self.coder.grouping_arity(&levels))
                } else {
                    None
                };
                (
                    nt_rel_name(&self.prefix, node),
                    nt_schema(self.schema.num_measures(), arity),
                    rows,
                )
            }
            Part::Cat => {
                if buf.cat.is_empty() {
                    return Ok(());
                }
                let format = self.format.ok_or_else(|| {
                    CubeError::Config("CAT rows buffered before a format was decided".into())
                })?;
                (cat_rel_name(&self.prefix, node), cat_schema(format), std::mem::take(&mut buf.cat))
            }
        };
        let t = Instant::now();
        self.segment()?.append(&name, &schema, &rows)?;
        self.times.write_secs += t.elapsed().as_secs_f64();
        // Hand the allocation back to the buffer for its next rows.
        if let (Part::Nt | Part::Cat, Some(buf)) = (which, self.bufs.get_mut(&node)) {
            let mut rows = rows;
            rows.clear();
            match which {
                Part::Nt => buf.nt = rows,
                _ => buf.cat = rows,
            }
        }
        Ok(())
    }

    /// Flush every buffered part of every node, in node order (TT, NT,
    /// CAT per node), so the segment's layout depends only on the rows.
    fn flush_all(&mut self) -> Result<()> {
        let mut nodes: Vec<NodeId> = self.bufs.keys().copied().collect();
        nodes.sort_unstable();
        for node in nodes {
            if !self.plus {
                self.flush_node_part(node, Part::Tt)?;
            }
            self.flush_node_part(node, Part::Nt)?;
            self.flush_node_part(node, Part::Cat)?;
        }
        Ok(())
    }

    fn maybe_flush(&mut self, node: NodeId) -> Result<()> {
        let (nt_len, cat_len, tt_len) = {
            let buf = self
                .bufs
                .get(&node)
                .ok_or_else(|| CubeError::Config("flush of a node with no buffer".into()))?;
            (buf.nt.len(), buf.cat.len(), buf.tt.len() * 8)
        };
        if nt_len >= NODE_BUF_FLUSH_BYTES {
            self.flush_node_part(node, Part::Nt)?;
        }
        if cat_len >= NODE_BUF_FLUSH_BYTES {
            self.flush_node_part(node, Part::Cat)?;
        }
        // CURE+ keeps TTs in memory for the sort/bitmap post-processing.
        if !self.plus && tt_len >= NODE_BUF_FLUSH_BYTES {
            self.flush_node_part(node, Part::Tt)?;
        }
        Ok(())
    }

    fn ensure_aggregates(&mut self) -> Result<()> {
        if self.aggregates.is_none() {
            let format = self.format.ok_or_else(|| {
                CubeError::Config("AGGREGATES needed before format decided".into())
            })?;
            let name = aggregates_rel_name(&self.prefix);
            let schema = aggregates_schema(self.schema.num_measures(), format);
            self.aggregates = Some(self.catalog.create_or_replace(&name, schema)?);
        }
        Ok(())
    }

    /// Append one `AGGREGATES` row; returns its A-rowid.
    fn append_aggregate(&mut self, row: &[u8]) -> Result<u64> {
        self.ensure_aggregates()?;
        let a_rowid = self.agg_rows;
        let rel = self
            .aggregates
            .as_mut()
            .ok_or_else(|| CubeError::Config("AGGREGATES relation missing after ensure".into()))?;
        rel.append_raw(row)?;
        self.agg_rows += 1;
        self.agg_dirty = true;
        Ok(a_rowid)
    }

    /// Store CURE+ bitmap `name` over `rowids`; returns its size.
    fn write_bitmap(&mut self, name: String, rowids: &[u64]) -> Result<u64> {
        let bm = BitmapIndex::from_unsorted(rowids);
        self.catalog.write_blob(&name, &bm.to_bytes())?;
        self.bitmaps += 1;
        Ok(bm.size_bytes() as u64)
    }
}

#[derive(Clone, Copy)]
enum Part {
    Tt,
    Nt,
    Cat,
}

impl CubeSink for DiskSink<'_> {
    fn n_measures(&self) -> usize {
        self.schema.num_measures()
    }

    fn set_cat_format(&mut self, f: CatFormat) {
        debug_assert!(self.format.is_none() || self.format == Some(f), "format set twice");
        self.format = Some(f);
    }

    fn cat_format(&self) -> Option<CatFormat> {
        self.format
    }

    fn write_tt(&mut self, node: NodeId, rowid: u64) -> Result<()> {
        self.bufs.entry(node).or_default().tt.push(rowid);
        self.stats.tt_tuples += 1;
        self.maybe_flush(node)
    }

    fn write_nt(&mut self, node: NodeId, rowid: u64, aggs: &[i64]) -> Result<()> {
        if self.dr {
            // Materialize the grouping values by resolving the source row.
            let levels = self.coder.decode(node)?;
            let mut leaf = std::mem::take(&mut self.leaf_scratch);
            let resolver = self
                .resolver
                .as_mut()
                .ok_or_else(|| CubeError::Config("CURE_DR sink lost its row resolver".into()))?;
            resolver(rowid, &mut leaf)?;
            let buf = self.bufs.entry(node).or_default();
            for (d, dim) in self.schema.dims().iter().enumerate() {
                if levels[d] < dim.num_levels() {
                    let v = dim.value_at(levels[d], leaf[d]);
                    buf.nt.extend_from_slice(&v.to_le_bytes());
                }
            }
            for &a in aggs {
                buf.nt.extend_from_slice(&a.to_le_bytes());
            }
            self.leaf_scratch = leaf;
        } else {
            let buf = self.bufs.entry(node).or_default();
            buf.nt.extend_from_slice(&rowid.to_le_bytes());
            for &a in aggs {
                buf.nt.extend_from_slice(&a.to_le_bytes());
            }
        }
        self.stats.nt_tuples += 1;
        self.maybe_flush(node)
    }

    fn write_cat_group(&mut self, members: &[(NodeId, u64)], aggs: &[i64]) -> Result<()> {
        let format = self
            .format
            .ok_or_else(|| CubeError::Config("CAT written before a format was decided".into()))?;
        let mut row = Vec::with_capacity(8 + aggs.len() * 8);
        match format {
            CatFormat::AsNt => {
                for &(node, rowid) in members {
                    self.write_nt(node, rowid, aggs)?;
                }
                return Ok(());
            }
            CatFormat::CommonSource => row.extend_from_slice(&members[0].1.to_le_bytes()),
            CatFormat::Coincidental => {}
        }
        for &a in aggs {
            row.extend_from_slice(&a.to_le_bytes());
        }
        let a_rowid = self.append_aggregate(&row)?;
        for &(node, rowid) in members {
            let buf = self.bufs.entry(node).or_default();
            match format {
                // Retained for the sort-and-bitmap post-processing step
                // (§5.3 applies it to format-(a) CATs too).
                CatFormat::CommonSource if self.plus => buf.cat_a_rowids.push(a_rowid),
                CatFormat::CommonSource => buf.cat.extend_from_slice(&a_rowid.to_le_bytes()),
                _ => {
                    buf.cat.extend_from_slice(&rowid.to_le_bytes());
                    buf.cat.extend_from_slice(&a_rowid.to_le_bytes());
                }
            }
            self.stats.cat_tuples += 1;
            self.maybe_flush(node)?;
        }
        Ok(())
    }

    fn end_partition(&mut self) -> Result<()> {
        self.flush_all()
    }

    fn finish(&mut self) -> Result<SinkStats> {
        let mut nodes: Vec<NodeId> = self.bufs.keys().copied().collect();
        nodes.sort_unstable();
        let mut cat_bitmap_bytes = 0u64;
        if self.plus {
            // CURE+ post-processing (§5.3): sort TT row-ids and store a
            // compressed bitmap instead of a row-id relation; format-(a)
            // CAT rows are bare A-rowids and get the same treatment.
            let t = Instant::now();
            for &node in &nodes {
                let missing = || CubeError::Config("node buffer vanished during finish".into());
                let buf = self.bufs.get_mut(&node).ok_or_else(missing)?;
                let (tt, cats) =
                    (std::mem::take(&mut buf.tt), std::mem::take(&mut buf.cat_a_rowids));
                if !tt.is_empty() {
                    self.stats.tt_bytes +=
                        self.write_bitmap(tt_bitmap_name(&self.prefix, node), &tt)?;
                }
                if !cats.is_empty() {
                    cat_bitmap_bytes +=
                        self.write_bitmap(cat_bitmap_name(&self.prefix, node), &cats)?;
                }
            }
            self.times.write_secs += t.elapsed().as_secs_f64();
        }
        self.flush_all()?;
        let t = Instant::now();
        if let Some(rel) = self.aggregates.as_mut() {
            rel.flush()?;
        }
        // Seal the segment: directory, footer, one fsync. A cube with no
        // node rows still gets one, so every cube has a segment.
        let seg = self.segment()?;
        let synced = seg.sync_secs();
        seg.seal()?;
        let fsync = seg.sync_secs() - synced;
        self.times.sync_secs += fsync;
        self.times.write_secs += t.elapsed().as_secs_f64() - fsync;
        let directory = self.segment()?.directory().clone();
        // Account logical bytes from the final relations.
        let y = self.schema.num_measures() as u64;
        if !self.plus {
            self.stats.tt_bytes = self.stats.tt_tuples * 8;
        }
        self.stats.nt_bytes = if self.dr {
            // DR NT widths vary per node; sum the stored volumes.
            directory
                .entries()
                .iter()
                .filter(|e| e.name.ends_with("_nt"))
                .map(|e| e.data_bytes())
                .sum()
        } else {
            self.stats.nt_tuples * (8 + 8 * y)
        };
        if self.plus && self.format == Some(CatFormat::CommonSource) {
            self.stats.cat_bytes = cat_bitmap_bytes;
        } else {
            let cat_row_bytes = match self.format {
                Some(CatFormat::CommonSource) => 8,
                _ => 16,
            };
            self.stats.cat_bytes = self.stats.cat_tuples * cat_row_bytes;
        }
        self.stats.aggregates_rows = self.agg_rows;
        let agg_row_bytes = match self.format {
            Some(CatFormat::CommonSource) => 8 + 8 * y,
            _ => 8 * y,
        };
        self.stats.aggregates_bytes = self.agg_rows * agg_row_bytes;
        self.stats.relations =
            directory.entries().len() as u64 + self.bitmaps + u64::from(self.agg_rows > 0);
        self.stats.cat_format = self.format;
        Ok(self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Dimension;

    fn two_dim_schema() -> CubeSchema {
        CubeSchema::new(vec![Dimension::flat("A", 4), Dimension::flat("B", 4)], 2).unwrap()
    }

    fn fresh_catalog(tag: &str) -> Catalog {
        Catalog::open(cure_storage::scratch::scratch_dir(&format!("sink_{tag}"))).unwrap()
    }

    /// The rows of node relation `name` in the sealed segment of `prefix`,
    /// as one flat list of its `u64` columns.
    fn seg_rows(cat: &Catalog, prefix: &str, name: &str) -> Vec<u64> {
        let bytes = cat.open_segment(prefix).unwrap().rows_of(name).unwrap();
        bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
    }

    #[test]
    fn memsink_accounting() {
        let mut s = MemSink::new(2);
        s.set_cat_format(CatFormat::Coincidental);
        s.write_tt(1, 10).unwrap();
        s.write_tt(1, 11).unwrap();
        s.write_nt(2, 5, &[100, 200]).unwrap();
        s.write_cat_group(&[(2, 7), (3, 9)], &[42, 43]).unwrap();
        let stats = s.finish().unwrap();
        assert_eq!(stats.tt_tuples, 2);
        assert_eq!(stats.nt_tuples, 1);
        assert_eq!(stats.cat_tuples, 2);
        assert_eq!(stats.aggregates_rows, 1);
        assert_eq!(stats.tt_bytes, 16);
        assert_eq!(stats.nt_bytes, 8 + 16);
        assert_eq!(stats.cat_bytes, 32); // (rowid, a_rowid) × 2
        assert_eq!(stats.aggregates_bytes, 16); // aggs only (format b)
        assert_eq!(stats.total_tuples(), 5);
    }

    #[test]
    fn memsink_as_nt_format_redirects() {
        let mut s = MemSink::new(1);
        s.set_cat_format(CatFormat::AsNt);
        s.write_cat_group(&[(2, 7), (3, 9)], &[42]).unwrap();
        let stats = s.finish().unwrap();
        assert_eq!(stats.cat_tuples, 0);
        assert_eq!(stats.nt_tuples, 2);
        assert_eq!(stats.aggregates_rows, 0);
    }

    #[test]
    fn memsink_cat_before_format_errors() {
        let mut s = MemSink::new(1);
        assert!(s.write_cat_group(&[(1, 1)], &[1]).is_err());
    }

    #[test]
    fn disksink_roundtrip_plain() {
        let cat = fresh_catalog("plain");
        let schema = two_dim_schema();
        let mut sink = DiskSink::new(&cat, "c_", &schema, false, false, None).unwrap();
        sink.set_cat_format(CatFormat::CommonSource);
        sink.write_tt(0, 100).unwrap();
        sink.write_nt(1, 5, &[7, 8]).unwrap();
        sink.write_cat_group(&[(1, 9), (2, 9)], &[1, 2]).unwrap();
        let stats = sink.finish().unwrap();
        assert_eq!(stats.tt_tuples, 1);
        assert_eq!(stats.nt_tuples, 1);
        assert_eq!(stats.cat_tuples, 2);
        assert_eq!(stats.aggregates_rows, 1);
        // The segment holds every node relation; AGGREGATES is a heap.
        assert_eq!(seg_rows(&cat, "c_", &tt_rel_name("c_", 0)), vec![100]);
        assert_eq!(seg_rows(&cat, "c_", &nt_rel_name("c_", 1)), vec![5, 7, 8]);
        let agg = cat.open_relation(&aggregates_rel_name("c_")).unwrap();
        assert_eq!(agg.num_rows(), 1);
        let v = agg.fetch_values(0).unwrap();
        assert_eq!(v[0], cure_storage::Value::U64(9)); // shared source rowid
        assert_eq!(v[1], cure_storage::Value::I64(1));
        // Format (a): the CAT row is the A-rowid 0.
        assert_eq!(seg_rows(&cat, "c_", &cat_rel_name("c_", 1)), vec![0]);
        let files = std::fs::read_dir(cat.dir()).unwrap().count();
        assert_eq!(files, 2, "one segment and AGGREGATES");
    }

    #[test]
    fn disksink_plus_builds_bitmaps() {
        let cat = fresh_catalog("plus");
        let schema = two_dim_schema();
        let mut sink = DiskSink::new(&cat, "p_", &schema, false, true, None).unwrap();
        for r in [5u64, 3, 9, 4] {
            sink.write_tt(7, r).unwrap();
        }
        let stats = sink.finish().unwrap();
        assert_eq!(stats.tt_tuples, 4);
        assert!(stats.tt_bytes > 0 && stats.tt_bytes < 32, "bitmap must compress");
        let bytes = cat.read_blob(&tt_bitmap_name("p_", 7)).unwrap();
        let bm = BitmapIndex::from_bytes(&bytes).unwrap();
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![3, 4, 5, 9]);
    }

    #[test]
    fn disksink_dr_materializes_dimension_values() {
        let cat = fresh_catalog("dr");
        let schema = two_dim_schema();
        // Fake fact table: rowid r has dims [r, r+1].
        let resolver: RowResolver = Box::new(|rowid, out| {
            out[0] = rowid as u32;
            out[1] = rowid as u32 + 1;
            Ok(())
        });
        let mut sink = DiskSink::new(&cat, "d_", &schema, true, false, Some(resolver)).unwrap();
        let coder = NodeCoder::new(&schema);
        // Node AB (both dims grouped at leaf): id encode([0,0]).
        let ab = coder.encode(&[0, 0]);
        sink.write_nt(ab, 2, &[10, 20]).unwrap();
        // Node A only.
        let a = coder.encode(&[0, coder.all_level(1)]);
        sink.write_nt(a, 3, &[30, 40]).unwrap();
        let stats = sink.finish().unwrap();
        assert_eq!(stats.nt_tuples, 2);
        let seg = cat.open_segment("d_").unwrap();
        let nt_ab = seg.directory().get(&nt_rel_name("d_", ab)).unwrap();
        let row = seg.rows_of(&nt_ab.name).unwrap();
        let v = nt_ab.schema.decode_row(&row).unwrap();
        assert_eq!(v[0], cure_storage::Value::U32(2));
        assert_eq!(v[1], cure_storage::Value::U32(3));
        assert_eq!(v[2], cure_storage::Value::I64(10));
        let nt_a = seg.directory().get(&nt_rel_name("d_", a)).unwrap();
        assert_eq!(nt_a.schema.arity(), 3); // 1 dim + 2 aggs
                                            // DR NT bytes: node AB (2 dims + 2 aggs = 24) + node A (1 dim +
                                            // 2 aggs = 20) = 44.
        assert_eq!(stats.nt_bytes, 44);
    }

    #[test]
    fn disksink_dr_without_resolver_rejected() {
        let cat = fresh_catalog("drbad");
        let schema = two_dim_schema();
        assert!(DiskSink::new(&cat, "x_", &schema, true, false, None).is_err());
    }

    #[test]
    fn disksink_checkpoint_journals_sealed_rows() {
        let cat = fresh_catalog("ckpt");
        let schema = two_dim_schema();
        let mut sink = DiskSink::new(&cat, "k_", &schema, false, false, None).unwrap();
        sink.set_cat_format(CatFormat::Coincidental);
        sink.write_tt(0, 100).unwrap();
        sink.write_tt(0, 101).unwrap();
        sink.write_nt(1, 5, &[7, 8]).unwrap();
        sink.write_cat_group(&[(1, 9), (2, 11)], &[1, 2]).unwrap();
        let cp = sink.checkpoint().unwrap();
        assert_eq!(cp.format, Some(CatFormat::Coincidental));
        assert_eq!(cp.agg_rows, 1);
        assert_eq!(cp.tt_tuples, 2);
        assert_eq!(cp.nt_tuples, 1);
        assert_eq!(cp.cat_tuples, 2);
        // The journaled extent table covers every journaled page, and the
        // segment on disk holds at least that many.
        assert_eq!(cp.segment.directory.entries().len(), 4);
        let on_disk = std::fs::metadata(cat.segment_path("k_")).unwrap().len();
        assert!(on_disk >= cure_storage::heap::page_offset(cp.segment.pages));
        // A second checkpoint with no writes in between is identical.
        assert_eq!(sink.checkpoint().unwrap(), cp);
    }

    #[test]
    fn disksink_restore_checkpoint_resumes_equivalently() {
        // Build A writes everything in one sink. Build B writes the first
        // half, checkpoints, then a fresh restored sink writes the second
        // half. Final stats and on-disk bytes must agree when A flushes
        // at the same boundary (as both build drivers do).
        let schema = two_dim_schema();
        let write_first = |s: &mut DiskSink| {
            s.set_cat_format(CatFormat::CommonSource);
            s.write_tt(0, 100).unwrap();
            s.write_nt(1, 5, &[7, 8]).unwrap();
            s.write_cat_group(&[(1, 9), (2, 9)], &[1, 2]).unwrap();
        };
        let write_second = |s: &mut DiskSink| {
            s.write_tt(0, 102).unwrap();
            s.write_nt(3, 6, &[9, 10]).unwrap();
            s.write_cat_group(&[(2, 12), (3, 12)], &[3, 4]).unwrap();
        };

        let cat_a = fresh_catalog("res_a");
        let mut a = DiskSink::new(&cat_a, "r_", &schema, false, false, None).unwrap();
        write_first(&mut a);
        a.end_partition().unwrap();
        write_second(&mut a);
        let stats_a = a.finish().unwrap();

        let cat_b = fresh_catalog("res_b");
        let cp = {
            let mut b1 = DiskSink::new(&cat_b, "r_", &schema, false, false, None).unwrap();
            write_first(&mut b1);
            b1.checkpoint().unwrap()
        };
        let mut b2 = DiskSink::new(&cat_b, "r_", &schema, false, false, None).unwrap();
        b2.restore_checkpoint(&cp).unwrap();
        assert_eq!(b2.cat_format(), Some(CatFormat::CommonSource));
        write_second(&mut b2);
        let stats_b = b2.finish().unwrap();

        assert_eq!(stats_a, stats_b);
        // Both flushed at the same boundary, so the files are identical.
        for file in ["r_nodes.seg", "r_aggregates.heap"] {
            let a = std::fs::read(cat_a.dir().join(file)).unwrap();
            let b = std::fs::read(cat_b.dir().join(file)).unwrap();
            assert_eq!(a, b, "{file}");
        }
        let agg = cat_b.open_relation(&aggregates_rel_name("r_")).unwrap();
        assert_eq!(agg.num_rows(), stats_b.aggregates_rows);
    }

    #[test]
    fn disksink_restore_rejects_mismatched_aggregates() {
        let cat = fresh_catalog("res_bad");
        let schema = two_dim_schema();
        let cp = {
            let mut s = DiskSink::new(&cat, "m_", &schema, false, false, None).unwrap();
            s.set_cat_format(CatFormat::Coincidental);
            s.write_cat_group(&[(1, 9), (2, 11)], &[1, 2]).unwrap();
            s.checkpoint().unwrap()
        };
        assert_eq!(cp.agg_rows, 1);
        // Corrupt the journal: claim more sealed rows than exist on disk.
        let mut bad = cp.clone();
        bad.agg_rows = 99;
        let mut s = DiskSink::new(&cat, "m_", &schema, false, false, None).unwrap();
        assert!(s.restore_checkpoint(&bad).is_err());
    }

    #[test]
    fn disksink_plus_cannot_checkpoint() {
        let cat = fresh_catalog("plus_ckpt");
        let schema = two_dim_schema();
        let mut sink = DiskSink::new(&cat, "pk_", &schema, false, true, None).unwrap();
        assert!(!sink.supports_checkpoint());
        assert!(sink.checkpoint().is_err());
        let mut fresh = DiskSink::new(&cat, "pk_", &schema, false, true, None).unwrap();
        assert!(fresh.restore_checkpoint(&SinkCheckpoint::default()).is_err());
    }

    #[test]
    fn disksink_large_buffer_flush() {
        let cat = fresh_catalog("bigbuf");
        let schema = two_dim_schema();
        let mut sink = DiskSink::new(&cat, "b_", &schema, false, false, None).unwrap();
        let n = 40_000u64; // 40k × 24B NT rows ≈ 960 KB → multiple flushes
        for i in 0..n {
            sink.write_nt(3, i, &[i as i64, 0]).unwrap();
        }
        let stats = sink.finish().unwrap();
        assert_eq!(stats.nt_tuples, n);
        let seg = cat.open_segment("b_").unwrap();
        let nt = seg.directory().get(&nt_rel_name("b_", 3)).unwrap();
        assert_eq!(nt.rows(), n);
        assert!(nt.extents.len() > 1, "the buffer flushed more than once");
        // Spot-check ordering survived the chunked appends.
        let rows = seg_rows(&cat, "b_", &nt.name);
        assert_eq!(rows[12_345 * 3], 12_345);
    }
}

//! Seeded workload generation and the self-contained case format.
//!
//! A [`Workload`] is everything a conformance run needs: the schema shape
//! (as a [`DimSpec`] list so shrinking can restructure it), the explicit
//! fact tuples, and the build configuration knobs (iceberg threshold,
//! memory budget mode, pool capacity). Workloads come from two places:
//!
//! * [`Workload::from_matrix`] derives one deterministically from a seed,
//!   with the three coverage axes — {linear, DAG} hierarchies × {full,
//!   iceberg} × {in-memory, forced-partitioning} — pinned by `seed % 8`
//!   so a contiguous seed range covers every cell of the matrix;
//! * [`Workload::from_case_text`] parses a minimized repro written by the
//!   shrinker (see `tests/corpus/` at the repository root).

use cure_core::cube::CubeConfig;
use cure_core::{CubeSchema, Tuples};
use cure_data::synthetic;
use cure_data::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{CheckError, Result};

/// Deterministic split-mix style generator for shape decisions (tuple
/// values go through `cure-data`'s Zipf sampler instead, so skew matches
/// the paper's generators).
pub(crate) struct ShapeRng(u64);

impl ShapeRng {
    pub(crate) fn new(seed: u64) -> Self {
        ShapeRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Shape of one dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimSpec {
    /// Linear hierarchy: level cardinalities leaf-first (a single entry is
    /// a flat dimension), realized with block rollup maps.
    Linear { name: String, cards: Vec<u32> },
    /// DAG hierarchy: `cure_data::synthetic::dag_time` at this scale
    /// (leaf cardinality `12·scale`, day → {week, month} → year).
    Dag { name: String, scale: u32 },
}

impl DimSpec {
    /// Realize the dimension.
    pub fn build(&self) -> cure_core::Dimension {
        match self {
            DimSpec::Linear { name, cards } => synthetic::block_hierarchy(name, cards),
            DimSpec::Dag { name, scale } => synthetic::dag_time(name, *scale),
        }
    }

    /// Leaf-level cardinality.
    pub fn leaf_card(&self) -> u32 {
        match self {
            DimSpec::Linear { cards, .. } => cards[0],
            DimSpec::Dag { scale, .. } => 12 * scale,
        }
    }
}

/// A complete, self-contained conformance workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Seed this workload was generated from (0 for parsed cases).
    pub seed: u64,
    /// Dimension shapes; dimension 0 is always linear so external
    /// partitioning (which partitions on dimension 0, §4) stays feasible.
    pub dims: Vec<DimSpec>,
    /// Number of measures.
    pub measures: usize,
    /// Iceberg threshold (1 = full cube).
    pub min_support: u64,
    /// Force external partitioning with a memory budget of roughly a
    /// third of the fact table (false = comfortable in-memory budget).
    pub partitioned: bool,
    /// Signature-pool capacity (small values force mid-build CAT flushes).
    pub pool_capacity: usize,
    /// Explicit fact tuples: `(dimension leaf values, measures)`; the
    /// row-id is the index.
    pub tuples: Vec<(Vec<u32>, Vec<i64>)>,
}

impl Workload {
    /// Generate the workload for `seed`. The coverage-matrix cell is
    /// `seed % 8`: bit 0 = include a DAG hierarchy, bit 1 = iceberg
    /// threshold, bit 2 = force external partitioning. Everything else
    /// (dimension count, cardinalities, skew, tuple count) varies with
    /// the upper seed bits.
    pub fn from_matrix(seed: u64) -> Workload {
        let use_dag = seed & 1 != 0;
        let iceberg = seed & 2 != 0;
        let partitioned = seed & 4 != 0;
        let mut rng = ShapeRng::new(seed);

        let n_dims = 2 + rng.below(3) as usize; // 2..=4
        let mut dims = Vec::with_capacity(n_dims);
        // Dimension 0: always linear, 2–3 levels, generous leaf
        // cardinality so partitioned builds have partitions to choose.
        let leaf0 = [12u32, 16, 20, 24][rng.below(4) as usize];
        let mut cards0 = vec![leaf0, leaf0 / (2 + rng.below(2) as u32)];
        if rng.below(2) == 0 {
            cards0.push((cards0[1] / 2).max(2));
        }
        dims.push(DimSpec::Linear { name: "A".into(), cards: cards0 });
        for d in 1..n_dims {
            let name = format!("{}", (b'A' + d as u8) as char);
            if use_dag && d == 1 {
                dims.push(DimSpec::Dag { name, scale: 1 + rng.below(2) as u32 });
            } else {
                let leaf = 4 + rng.below(9) as u32; // 4..=12
                let cards = match rng.below(3) {
                    0 => vec![leaf],
                    1 => vec![leaf, (leaf / 2).max(2)],
                    _ => vec![leaf, (leaf / 2).max(3), 2],
                };
                dims.push(DimSpec::Linear { name, cards });
            }
        }

        let measures = 1 + rng.below(2) as usize;
        let min_support = if iceberg { 2 + rng.below(3) } else { 1 };
        let pool_capacity = match rng.below(4) {
            0 => 8,  // force frequent pool flushes
            1 => 64, // a few flushes
            _ => 1_000_000,
        };
        let zipf = [0.0, 0.8, 1.2][rng.below(3) as usize];
        let n_tuples = 120 + rng.below(120) as usize;

        // Tuple values: Zipf-skewed leaf draws through cure-data's
        // sampler (uniform at z = 0), measures uniform in 1..=100.
        let samplers: Vec<ZipfSampler> =
            dims.iter().map(|d| ZipfSampler::new(d.leaf_card(), zipf)).collect();
        let mut vrng = StdRng::seed_from_u64(seed ^ 0xC0BE);
        let mut tuples = Vec::with_capacity(n_tuples);
        for _ in 0..n_tuples {
            let dvals: Vec<u32> = samplers.iter().map(|s| s.sample(&mut vrng)).collect();
            let mvals: Vec<i64> = (0..measures).map(|_| 1 + (rng.below(100)) as i64).collect();
            tuples.push((dvals, mvals));
        }

        Workload { seed, dims, measures, min_support, partitioned, pool_capacity, tuples }
    }

    /// Realize the cube schema.
    pub fn schema(&self) -> Result<CubeSchema> {
        let dims = self.dims.iter().map(|d| d.build()).collect();
        CubeSchema::new(dims, self.measures).map_err(CheckError::Cube)
    }

    /// Materialize the fact tuples (row-id = index).
    pub fn fact_tuples(&self) -> Tuples {
        let mut t = Tuples::with_capacity(self.dims.len(), self.measures, self.tuples.len());
        for (i, (dims, aggs)) in self.tuples.iter().enumerate() {
            t.push_fact(dims, aggs, i as u64);
        }
        t
    }

    /// Build configuration for this workload.
    pub fn config(&self) -> CubeConfig {
        let budget = if self.partitioned {
            // Roughly a third of the fact table: at least two partitions,
            // never less than one tuple's worth of memory.
            let total = self.tuples.len() * Tuples::tuple_bytes(self.dims.len(), self.measures);
            (total / 3).max(64)
        } else {
            256 << 20
        };
        CubeConfig {
            memory_budget_bytes: budget,
            pool_capacity: self.pool_capacity,
            min_support: self.min_support,
            ..CubeConfig::default()
        }
    }

    /// Leaf cardinalities (the flat projection baselines cube over).
    pub fn leaf_cards(&self) -> Vec<u32> {
        self.dims.iter().map(|d| d.leaf_card()).collect()
    }

    /// Whether any dimension has a DAG hierarchy.
    pub fn has_dag(&self) -> bool {
        self.dims.iter().any(|d| matches!(d, DimSpec::Dag { .. }))
    }

    /// One-line description for logs and case headers.
    pub fn describe(&self) -> String {
        let dims: Vec<String> = self
            .dims
            .iter()
            .map(|d| match d {
                DimSpec::Linear { name, cards } => format!(
                    "{name}:lin{}",
                    cards.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(">")
                ),
                DimSpec::Dag { name, scale } => format!("{name}:dag{scale}"),
            })
            .collect();
        format!(
            "seed={} dims=[{}] y={} min_sup={} {} pool={} tuples={}",
            self.seed,
            dims.join(", "),
            self.measures,
            self.min_support,
            if self.partitioned { "partitioned" } else { "in-memory" },
            self.pool_capacity,
            self.tuples.len()
        )
    }

    // ---- case serialization ---------------------------------------------

    /// Serialize as a self-contained case file (see `tests/corpus/`).
    pub fn to_case_text(&self, note: &str) -> String {
        let mut s = String::new();
        s.push_str("cure-check case v1\n");
        for line in note.lines() {
            s.push_str(&format!("# {line}\n"));
        }
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("measures {}\n", self.measures));
        s.push_str(&format!("min_support {}\n", self.min_support));
        s.push_str(&format!("partitioned {}\n", self.partitioned));
        s.push_str(&format!("pool {}\n", self.pool_capacity));
        for d in &self.dims {
            match d {
                DimSpec::Linear { name, cards } => {
                    let cs: Vec<String> = cards.iter().map(|c| c.to_string()).collect();
                    s.push_str(&format!("dim linear {name} {}\n", cs.join(" ")));
                }
                DimSpec::Dag { name, scale } => {
                    s.push_str(&format!("dim dag {name} {scale}\n"));
                }
            }
        }
        for (dims, aggs) in &self.tuples {
            let ds: Vec<String> = dims.iter().map(|v| v.to_string()).collect();
            let as_: Vec<String> = aggs.iter().map(|v| v.to_string()).collect();
            s.push_str(&format!("tuple {} | {}\n", ds.join(" "), as_.join(" ")));
        }
        s
    }

    /// Parse a case file produced by [`Self::to_case_text`].
    pub fn from_case_text(text: &str) -> Result<Workload> {
        let bad = |msg: &str, line: &str| CheckError::Case(format!("{msg}: '{line}'"));
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == "cure-check case v1" => {}
            other => {
                return Err(CheckError::Case(format!(
                    "bad case header: {:?} (want 'cure-check case v1')",
                    other.unwrap_or("")
                )))
            }
        }
        let mut w = Workload {
            seed: 0,
            dims: Vec::new(),
            measures: 1,
            min_support: 1,
            partitioned: false,
            pool_capacity: 1_000_000,
            tuples: Vec::new(),
        };
        for raw in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().unwrap_or_default();
            let rest: Vec<&str> = parts.collect();
            match key {
                "seed" => {
                    w.seed = rest
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad seed", line))?
                }
                "measures" => {
                    w.measures = rest
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad measures", line))?
                }
                "min_support" => {
                    w.min_support = rest
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad min_support", line))?
                }
                "partitioned" => {
                    w.partitioned = rest
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad partitioned", line))?
                }
                "pool" => {
                    w.pool_capacity = rest
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad pool", line))?
                }
                "dim" => match rest.as_slice() {
                    ["linear", name, cards @ ..] if !cards.is_empty() => {
                        let cards: Option<Vec<u32>> =
                            cards.iter().map(|c| c.parse().ok()).collect();
                        w.dims.push(DimSpec::Linear {
                            name: (*name).to_string(),
                            cards: cards.ok_or_else(|| bad("bad linear dim", line))?,
                        });
                    }
                    ["dag", name, scale] => w.dims.push(DimSpec::Dag {
                        name: (*name).to_string(),
                        scale: scale.parse().map_err(|_| bad("bad dag dim", line))?,
                    }),
                    _ => return Err(bad("bad dim", line)),
                },
                "tuple" => {
                    let joined = rest.join(" ");
                    let (d, a) = joined
                        .split_once('|')
                        .ok_or_else(|| bad("tuple needs 'dims | aggs'", line))?;
                    let dims: Option<Vec<u32>> =
                        d.split_whitespace().map(|v| v.parse().ok()).collect();
                    let aggs: Option<Vec<i64>> =
                        a.split_whitespace().map(|v| v.parse().ok()).collect();
                    w.tuples.push((
                        dims.ok_or_else(|| bad("bad tuple dims", line))?,
                        aggs.ok_or_else(|| bad("bad tuple aggs", line))?,
                    ));
                }
                _ => return Err(bad("unknown case line", line)),
            }
        }
        w.validate()?;
        Ok(w)
    }

    /// Check internal consistency (dimension 0 linear, shapes in range,
    /// tuple values within leaf cardinalities).
    pub fn validate(&self) -> Result<()> {
        if self.dims.is_empty() {
            return Err(CheckError::Case("workload has no dimensions".into()));
        }
        if !matches!(self.dims[0], DimSpec::Linear { .. }) {
            return Err(CheckError::Case(
                "dimension 0 must be linear (partitioning requirement)".into(),
            ));
        }
        if self.measures == 0 {
            return Err(CheckError::Case("workload has no measures".into()));
        }
        // An empty cube gives the serve-path engines no page to fault.
        if self.tuples.is_empty() {
            return Err(CheckError::Case("workload has no fact tuples".into()));
        }
        let cards = self.leaf_cards();
        for (i, (dims, aggs)) in self.tuples.iter().enumerate() {
            if dims.len() != self.dims.len() || aggs.len() != self.measures {
                return Err(CheckError::Case(format!("tuple {i}: wrong arity")));
            }
            for (d, (&v, &c)) in dims.iter().zip(&cards).enumerate() {
                if v >= c {
                    return Err(CheckError::Case(format!(
                        "tuple {i}: dim {d} value {v} >= cardinality {c}"
                    )));
                }
            }
        }
        Ok(())
    }
}

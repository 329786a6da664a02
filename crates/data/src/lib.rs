//! # cure-data — dataset generators for the CURE experiments
//!
//! The paper's evaluation (§7) uses four families of datasets, all
//! reproduced here:
//!
//! * [`synthetic`] — flat synthetic data with `D` dimensions, `T` tuples,
//!   cardinalities `Cᵢ = T/i` and Zipf skew `Z` (Figures 19–22), plus
//!   hierarchical synthetic data;
//! * [`apb`] — the APB-1 benchmark fact table (Figures 23–28): hierarchies
//!   Product 6500→435→215→54→11→3, Customer 640→71, Time 17→6→2, Channel
//!   9, two measures, density-scaled tuple counts;
//! * [`surrogates`] — CovType-like and Sep85L-like datasets matching the
//!   real datasets' dimension counts, sizes and cardinalities (the
//!   originals are not redistributable offline — see DESIGN.md for the
//!   substitution argument);
//! * [`zipf`] — the Zipf sampler everything above uses.

#![forbid(unsafe_code)]

pub mod apb;
pub mod surrogates;
pub mod synthetic;
pub mod zipf;

use cure_core::{CubeSchema, Tuples};

/// A generated dataset: schema + in-memory tuples + a display name.
pub struct Dataset {
    /// Cube schema (dimensions ordered by decreasing cardinality, per the
    /// BUC heuristic the paper applies).
    pub schema: CubeSchema,
    /// The fact tuples (row-ids are dense positions).
    pub tuples: Tuples,
    /// Short display name for harness output.
    pub name: String,
}

impl Dataset {
    /// Store the fact tuples as an on-disk relation named `rel` in
    /// `catalog` (schema [`Tuples::fact_schema`]).
    pub fn store(&self, catalog: &cure_storage::Catalog, rel: &str) -> cure_core::Result<()> {
        let mut heap = catalog.create_or_replace(
            rel,
            Tuples::fact_schema(self.schema.num_dims(), self.schema.num_measures()),
        )?;
        self.tuples.store_fact(&mut heap)?;
        Ok(())
    }
}

//! The experiments of the paper's evaluation (§7), one module per
//! table/figure group. Each exposes `run(scale) -> Result<Vec<FigureResult>>`
//! so the per-figure binaries and `run_all` share the same code.

pub mod ablations;
pub mod apb;
pub mod build_scaling;
pub mod cache;
pub mod dims;
pub mod flat_hier;
pub mod iceberg;
pub mod pool;
pub mod qrt;
pub mod real;
pub mod recovery;
pub mod skew;
pub mod table1;

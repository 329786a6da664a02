//! # cure — facade crate
//!
//! Re-exports the whole CURE workspace behind one dependency, so examples,
//! integration tests and downstream users can write `use cure::...`.
//!
//! * [`storage`] — the minimal ROLAP storage engine (heap files, catalog,
//!   buffer cache, bitmap indexes, external sort).
//! * [`core`] — the CURE algorithm itself: hierarchies, lattices, execution
//!   plans, the signature pool, NT/TT/CAT storage and external partitioning.
//! * [`data`] — dataset generators (synthetic, APB-1, CovType/Sep85L
//!   surrogates).
//! * [`baselines`] — BUC, BU-BST and FCURE comparison cubing algorithms.
//! * [`query`] — node-query answering over every cube format.

#![forbid(unsafe_code)]

pub mod cli;

pub use cure_baselines as baselines;
pub use cure_core as core;
pub use cure_data as data;
pub use cure_query as query;
pub use cure_storage as storage;

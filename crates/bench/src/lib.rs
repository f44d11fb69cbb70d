//! The experiment library: one function per table/figure.
//!
//! Every function is deterministic given its seed and returns the data
//! the paper plots; the `fig*`/`table*` binaries print the same
//! rows/series the paper reports, and the Criterion benches time the
//! underlying operations. End-to-end store-nym / load-nym measurements
//! come from the repository benchmark, declared in `BENCHMARK.json`
//! and run with `python3 perfbench/run.py`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::Table;

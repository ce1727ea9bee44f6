//! # spmv-bench — the reproduction harness
//!
//! Library side of the `reproduce` binary: per-matrix evaluation
//! ([`runner`]), aggregation into the paper's tables ([`tables`]) and
//! per-matrix figure series ([`figures`]).
//!
//! Every table and figure of the paper maps to one harness command; see
//! DESIGN.md §4 for the index and EXPERIMENTS.md for recorded
//! paper-vs-reproduction numbers.
//!
//! The observability layer lives in [`measured`] (per-iteration
//! [`measured::TimingStats`], adaptive warm-up) and [`metrics`] (the
//! bandwidth model joining time to working-set bytes, and the
//! schema-versioned `BENCH.json` artifact validated through the
//! [`jsonv`] reader). Multithreaded records also carry per-worker busy
//! times and imbalance ratios.

pub mod figures;
pub mod graph;
pub mod jsonv;
pub mod measured;
pub mod metrics;
pub mod planning;
pub mod roofline;
pub mod runner;
pub mod tables;

pub use runner::{evaluate_entry, EvalOptions, MatrixResult};

//! # spmv-memsim — Clovertown-style memory-hierarchy performance model
//!
//! The paper's evaluation platform is an 8-core system of two Intel
//! Clovertown packages: each package holds two dies, each die two cores
//! sharing a 4 MB 16-way L2; the packages reach memory over front-side
//! buses into a shared memory controller (Fig. 6). This container has one
//! CPU, so multithreaded wall-clock scaling is physically unmeasurable
//! here. Per DESIGN.md §3, the *performance* results are reproduced with a
//! calibrated analytic model of that machine, while the real multithreaded
//! kernels (crate `spmv-parallel`) establish correctness.
//!
//! The model combines:
//!
//! * a **bandwidth hierarchy** — per-core sustainable streaming bandwidth,
//!   a per-die (shared-L2 interface) cap, a per-package FSB cap, and a
//!   system-wide memory cap ([`machine`]). Contention appears naturally:
//!   more threads saturate the caps;
//! * a **cache-capacity model** — the working set competes for the
//!   aggregate L2 capacity of the dies the placement touches; matrices
//!   that fit stop producing memory traffic after the first of the 128
//!   iterations (the paper's warm-cache protocol, §VI-A), giving the
//!   superlinear speedups the paper reports for its MS set;
//! * an **x-vector locality model** — banded/stencil matrices reuse x
//!   within a sliding window, power-law/random matrices scatter; the
//!   heuristic is validated against an exact set-associative cache
//!   simulator ([`cache`]) in the test suite;
//! * a **CPU cost model** — per-element, per-row and per-unit cycle costs
//!   for every storage format, capturing CSR-DU's decode overhead,
//!   CSR-VI's extra indirection and DCSR's per-element command dispatch
//!   ([`cost`]).
//!
//! Calibration targets the paper's anchors (Table II): serial CSR ≈ 525
//! MFLOP/s averaged over M0, 8-thread CSR speedup ≈ 2.1 on the
//! memory-bound ML set and ≈ 6.2 on the cache-friendly MS set, and the
//! shared-vs-separate L2 gap for 2 threads. Constants live in
//! [`machine::Machine::clovertown`] and [`cost::CostModel::default`].

pub mod cache;
pub mod cost;
pub mod host;
pub mod machine;
pub mod placement;
pub mod planner;
pub mod predict;
pub mod profile;
pub mod trace;

pub use cost::{CostModel, FormatCost};
pub use machine::Machine;
pub use placement::Placement;
pub use planner::{MeasuredCost, Plan, PlanCacheStats, Planner, PlannerConfig, RankedChoice};
pub use predict::{predict, Prediction, SimConfig};
pub use profile::MatrixProfile;

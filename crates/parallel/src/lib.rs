//! # spmv-parallel — partitioning schemes and multithreaded SpMV
//!
//! The paper parallelizes SpMV with *row partitioning* (§II-C): contiguous
//! row blocks, statically balanced by non-zero count, one block per thread.
//! Each thread then owns disjoint slices of `row_ptr`/`col_ind`/`values`
//! (or the `ctl` stream for CSR-DU) and of the output vector `y`, while all
//! threads share read-only access to `x`.
//!
//! ## Threading model (paper §VI-A)
//!
//! The paper's measurement protocol spawns its pthreads *once*, then times
//! 128 consecutive SpMV operations inside them with a barrier between
//! iterations — per-iteration cost contains no thread-creation overhead.
//! This crate mirrors that structure:
//!
//! * every executor owns a persistent [`pool::WorkerPool`], created at
//!   plan time: `nthreads - 1` OS workers parked on a condvar, woken per
//!   `par_spmv` call via an epoch/condvar handshake, with the calling
//!   thread participating as thread 0 (the paper's main pthread);
//! * all per-call scratch (the private `y` vectors of column and
//!   symmetric partitioning, the tile partials of 2-D blocking) is
//!   pre-allocated in the plan, so a steady-state `par_spmv` call performs
//!   **zero** heap allocations and **zero** thread spawns;
//! * cross-thread reductions run as a second chunked dispatch on the same
//!   pool (each thread sums a disjoint output chunk across all private
//!   vectors in fixed order, keeping results deterministic);
//! * [`pool::IterationDriver`] layers the 128-iteration barrier loop on
//!   top of one pool dispatch, with no barrier after the final round;
//! * dispatch takes `&mut self` (one in-flight job per pool, enforced by
//!   the borrow checker) and is panic-robust: `run` always drains every
//!   worker before returning or unwinding, and a panic on any thread is
//!   re-raised on the caller with the pool left reusable.
//!
//! This crate provides:
//!
//! * [`partition`] — row/column/block partitioning with nnz balancing
//!   (boundaries rounded to the nearest nnz prefix);
//! * [`pool`] — the persistent [`pool::WorkerPool`], the
//!   [`pool::IterationDriver`] measurement loop, and a spawn-per-call
//!   baseline ([`pool::run_on_threads`]) kept for one-shot fan-out and for
//!   quantifying dispatch overhead;
//! * [`chunks`] — the [`ChunkKernel`] trait and the four paper-format
//!   adapters ([`CsrChunks`], [`CsrDuChunks`], [`CsrViChunks`],
//!   [`CsrDuViChunks`]): how to split a matrix and compute one split, the
//!   only per-format code of both executors below;
//! * [`par`] — pool executors that pre-plan partition, pool and scratch,
//!   and run `y = A·x` on the pool per call: [`par::ParChunks`] over a
//!   chunk kernel, which the paper formats' [`par::ParCsr`],
//!   [`par::ParCsrDu`], [`par::ParCsrVi`] and [`par::ParCsrDuVi`] alias
//!   (one static chunk per pool thread), plus [`par::ParCscColumns`],
//!   [`par::ParCsrBlock2d`], [`par::ParDcsr`] and [`par::ParSymCsr`];
//! * [`supervised`] — [`SupervisedSpMv`], the fault-tolerant executor
//!   over the same chunk kernels (see *Fault tolerance*).
//!
//! Output and scratch buffers are handed to pool threads through
//! [`pool::DisjointSlices`], a small `unsafe` cell whose single invariant
//! — ranges claimed during one dispatch are pairwise disjoint — is
//! discharged at every call site by partition blocks that are disjoint by
//! construction. Everything else is safe Rust.
//!
//! The paper binds threads to specific cores with `sched_setaffinity` to
//! control cache sharing; placement here is a *logical* concept consumed
//! by the `spmv-memsim` performance model (this container cannot pin
//! cores), while the kernels themselves run on however many OS threads are
//! requested.
//!
//! ## Fault tolerance
//!
//! Long-running multithreaded SpMV must survive its workers, not trust
//! them. Two layers provide that (see the README's *Failure model*
//! section for the full contract):
//!
//! * [`pool::WorkerPool`] dispatches are watchdog-supervised: the caller
//!   monitors per-worker heartbeats against a deadline, takes over the
//!   slice of a worker that died, re-raises worker panics after draining
//!   the dispatch, flags (but waits for) merely-slow workers, and
//!   respawns lost threads on the next dispatch — surfacing everything as
//!   [`pool::PoolEvent`]s.
//! * [`supervised::SupervisedSpMv`] runs the same chunk kernels as the
//!   `Par*` executors, with typed fault handling: under [`supervised::RecoveryPolicy::Degrade`] any
//!   panicked, stalled, dead, or (with `verify_every`) corrupted chunk is
//!   re-executed serially on the caller — the result is bit-identical to
//!   a serial run and the call reports a [`supervised::HealthReport`];
//!   under [`supervised::RecoveryPolicy::FailFast`] the first fault
//!   returns a typed [`supervised::PoolError`] with `y` untouched. Either
//!   way the executor remains reusable.
//!
//! The `fault-injection` feature compiles in a deterministic scripted
//! fault harness ([`faults`], test-only) that drives panics, stalls,
//! thread deaths, and silent corruption through both layers; the recovery
//! matrix lives in `tests/fault_injection.rs`, and feature-independent
//! guarantees (tight-deadline correctness, self-check on honest kernels)
//! in the workspace-root `tests/fault_tolerance.rs`.
//!
//! ## Observability
//!
//! Every pool dispatch and every supervised call records per-worker
//! busy time and work-item counts ([`telemetry::PoolTelemetry`]),
//! lock-free, into cache-line-aligned atomics that each thread writes
//! alone; the same per-thread slot holds the watchdog heartbeat. Drain a
//! window with [`pool::WorkerPool::take_telemetry`] /
//! [`ParSpMv::take_telemetry`] or read
//! [`supervised::HealthReport::telemetry`]; the derived
//! [`telemetry::PoolTelemetry::imbalance`] ratio (busiest thread over the
//! mean) is what the benchmark harness stores in `BENCH.json`. Recording
//! is always on: its cost (two clock reads and a few relaxed atomic adds
//! per job) is within run-to-run noise on the benchmark workloads.

pub mod chunks;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod par;
pub mod partition;
pub mod pool;
pub mod spmspv;
pub mod supervised;
pub mod telemetry;

pub use chunks::{ChunkKernel, CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks};
pub use par::{
    ParChunks, ParCscColumns, ParCsr, ParCsrBlock2d, ParCsrDu, ParCsrDuVi, ParCsrVi, ParDcsr,
    ParSpMm, ParSpMv, ParSymCsr,
};
pub use partition::{ColPartition, Grid2d, RowPartition};
pub use pool::{
    parse_watchdog_ms, run_on_threads, watchdog_deadline, watchdog_deadline_checked,
    DisjointSlices, IterationDriver, PoolEvent, WorkerPool, DEFAULT_WATCHDOG,
};
pub use spmspv::{ParMaskedSpMSpV, ParSpMSpV};
pub use supervised::{
    FaultEvent, HealthReport, PanelInput, PoolError, RecoveryPolicy, SupervisedSpMv, WatchdogOpts,
};
pub use telemetry::PoolTelemetry;

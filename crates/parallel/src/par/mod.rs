//! Per-format parallel SpMV executors.
//!
//! The four paper formats share one executor, [`ParChunks`], over the
//! chunk adapters of [`crate::chunks`] — the per-format code the
//! supervised executor runs too. The other formats (CSC, 2-D blocked CSR,
//! DCSR, symmetric CSR) keep their own executors.
//!
//! Each executor pre-computes its partition at construction (the paper
//! also partitions once, outside the timed loop) and owns a persistent
//! [`WorkerPool`] plus whatever scratch its reduction needs, so a
//! steady-state [`ParSpMv::par_spmv`] call spawns no threads and performs
//! no heap allocation: the pool is woken, each thread runs its planned
//! block, and executors that need cross-thread reductions run them as a
//! second chunked dispatch on the same pool. Every dispatch records
//! per-thread busy time into the pool's telemetry, which
//! [`ParSpMv::take_telemetry`] drains.
//!
//! Output safety: `y` (and any plan-owned scratch) is handed to threads
//! through [`DisjointSlices`], with ranges taken from partitions whose
//! blocks are disjoint by construction — every kernel call writes only
//! memory it owns.

use crate::chunks::{ChunkKernel, CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks, PlanChunks};
use crate::partition::{ColPartition, Grid2d, RowPartition};
use crate::pool::{chunk, DisjointSlices, WorkerPool};
use crate::telemetry::PoolTelemetry;
use spmv_core::csr_du::CsrDu;
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::dcsr::{Dcsr, DcsrSplit};
use spmv_core::sym::SymCsr;
use spmv_core::{Csc, Csr, Isa, Scalar, SpIndex};
use std::ops::Range;

/// Common interface of the parallel executors (mirrors [`spmv_core::SpMv`]
/// with a fixed thread count chosen at plan time).
///
/// `par_spmv` takes `&mut self` because a plan owns mutable per-call state
/// — its worker pool and pre-allocated reduction scratch — and a single
/// plan must not be dispatched concurrently from two threads.
pub trait ParSpMv<V: Scalar>: Send {
    /// Number of threads this plan uses.
    fn nthreads(&self) -> usize;
    /// Computes `y = A·x` using the planned partition.
    fn par_spmv(&mut self, x: &[V], y: &mut [V]);
    /// Drains this plan's per-worker telemetry accumulated since the last
    /// drain (see [`WorkerPool::take_telemetry`]). The default, an empty
    /// snapshot, exists for external implementors; every executor in this
    /// module forwards to its pool.
    fn take_telemetry(&mut self) -> PoolTelemetry {
        PoolTelemetry::default()
    }
}

/// Multi-vector extension of [`ParSpMv`]: `Y = A·X` for a row-major panel
/// of `k` right-hand sides (`x[col * k + v]`, `y[row * k + v]` — the
/// [`spmv_core::DenseBlock`] layout), reusing the executor's planned
/// partition and persistent pool. Implemented by [`ParChunks`], i.e. the
/// four paper-format executors ([`ParCsr`], [`ParCsrDu`], [`ParCsrVi`],
/// [`ParCsrDuVi`]):
/// each thread decodes its row block **once** and broadcasts every
/// decoded scalar across the `k`-wide panel, so the per-thread decode
/// cost of the compressed formats is amortized `k`-fold. With `k = 1`
/// the result is bit-identical to [`ParSpMv::par_spmv`].
pub trait ParSpMm<V: Scalar>: ParSpMv<V> {
    /// Computes `Y = A·X` using the planned partition. Panics if
    /// `x.len() != ncols * k` or `y.len() != nrows * k` or `k == 0`.
    fn par_spmm(&mut self, x: &[V], k: usize, y: &mut [V]);
}

/// Shared panel-shape preamble of the `par_spmm` implementations.
fn assert_panel_lens<V>(nrows: usize, ncols: usize, x: &[V], k: usize, y: &[V]) {
    assert!(k >= 1, "need at least one right-hand side");
    assert_eq!(x.len(), ncols * k, "x must be ncols x k row-major");
    assert_eq!(y.len(), nrows * k, "y must be nrows x k row-major");
}

/// Row bounds implied by ctl-stream splits: `[0, splits[0].row_end, ...]`.
fn split_row_bounds(row_ends: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut bounds = vec![0usize];
    bounds.extend(row_ends);
    bounds
}

// ---------------------------------------------------------------------
// Chunk kernels — the paper formats, one static chunk per pool thread
// ---------------------------------------------------------------------

/// Pool executor over a [`ChunkKernel`]: pool thread `t` computes chunk
/// `t` straight into its rows of `y`, and rows outside every chunk are
/// zeroed. The pool has one thread per chunk (at least one).
///
/// The four paper-format executors — [`ParCsr`], [`ParCsrDu`],
/// [`ParCsrVi`] and [`ParCsrDuVi`] — are this type over the chunk
/// adapters of [`crate::chunks`] with a borrowed matrix, so the pool path
/// and [`crate::SupervisedSpMv`] run the same per-format code.
pub struct ParChunks<K> {
    kernel: K,
    /// `rows[t]`: chunk `t`'s rows, checked pairwise disjoint and within
    /// the matrix at plan time — the pool writes them concurrently.
    rows: Vec<Range<usize>>,
    /// The rows outside every chunk.
    gaps: Vec<Range<usize>>,
    pool: WorkerPool,
}

impl<K> ParChunks<K> {
    /// Plans `nthreads` chunks of `matrix` — `ParCsr::new(&csr, t)` and
    /// the like — with the kernel ISA snapshotted here (like the
    /// partition: chosen once, outside the timed loop).
    pub fn new<V: Scalar, M>(matrix: M, nthreads: usize) -> ParChunks<K>
    where
        K: PlanChunks<M> + ChunkKernel<V>,
    {
        ParChunks::with_isa(matrix, nthreads, spmv_core::simd::selected())
    }

    /// Like [`ParChunks::new`] with an explicit kernel ISA (unavailable
    /// choices degrade to scalar inside the kernel dispatch).
    pub fn with_isa<V: Scalar, M>(matrix: M, nthreads: usize, isa: Isa) -> ParChunks<K>
    where
        K: PlanChunks<M> + ChunkKernel<V>,
    {
        ParChunks::from_kernel(K::plan(matrix, nthreads, isa))
    }

    /// Plans `kernel`'s chunks onto a pool of one thread per chunk.
    /// Panics if two chunks overlap or a chunk lies outside the matrix.
    pub(crate) fn from_kernel<V: Scalar>(kernel: K) -> ParChunks<K>
    where
        K: ChunkKernel<V>,
    {
        let rows: Vec<_> = (0..kernel.nchunks()).map(|c| kernel.chunk_rows(c)).collect();
        let gaps = uncovered(&rows, kernel.nrows());
        let pool = WorkerPool::new(rows.len().max(1));
        ParChunks { kernel, rows, gaps, pool }
    }

    /// Zeroes the rows outside every chunk of the `k`-wide panel `y`, then
    /// has pool thread `t` run `f(kernel, t, out)` with `out` chunk `t`'s
    /// rows of `y`.
    fn dispatch<V: Scalar>(&mut self, y: &mut [V], k: usize, f: impl Fn(&K, usize, &mut [V]) + Sync)
    where
        K: Sync,
    {
        for g in &self.gaps {
            y[g.start * k..g.end * k].fill(V::zero());
        }
        if self.rows.is_empty() {
            return;
        }
        let slices = DisjointSlices::new(y);
        let (kernel, rows) = (&self.kernel, &self.rows);
        self.pool.run(|t| {
            // SAFETY: chunk row ranges were checked pairwise disjoint at
            // plan time (and panel ranges scale them by k); one thread
            // per chunk.
            let out = unsafe { slices.range(rows[t].start * k..rows[t].end * k) };
            f(kernel, t, out);
        });
    }
}

/// The rows of `0..nrows` outside every range of `rows`. Panics unless
/// the ranges are pairwise disjoint and within `0..nrows`.
fn uncovered(rows: &[Range<usize>], nrows: usize) -> Vec<Range<usize>> {
    let mut sorted = rows.to_vec();
    sorted.sort_by_key(|r| (r.start, r.end));
    let mut gaps = Vec::new();
    let mut next = 0;
    for r in sorted {
        assert!(next <= r.start && r.start <= r.end, "chunk rows {r:?} overlap another chunk");
        if next < r.start {
            gaps.push(next..r.start);
        }
        next = r.end;
    }
    assert!(next <= nrows, "chunk rows end at {next}, past nrows = {nrows}");
    if next < nrows {
        gaps.push(next..nrows);
    }
    gaps
}

impl<V: Scalar, K: ChunkKernel<V>> ParSpMv<V> for ParChunks<K> {
    fn nthreads(&self) -> usize {
        self.rows.len()
    }

    fn take_telemetry(&mut self) -> PoolTelemetry {
        self.pool.take_telemetry()
    }

    fn par_spmv(&mut self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.kernel.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.kernel.nrows(), "y length must equal nrows");
        self.dispatch(y, 1, |kernel, t, out| kernel.compute(t, x, out));
    }
}

impl<V: Scalar, K: ChunkKernel<V>> ParSpMm<V> for ParChunks<K> {
    fn par_spmm(&mut self, x: &[V], k: usize, y: &mut [V]) {
        assert_panel_lens(self.kernel.nrows(), self.kernel.ncols(), x, k, y);
        self.dispatch(y, k, |kernel, t, out| kernel.compute_block(t, x, k, out));
    }
}

/// Row-partitioned parallel CSR SpMV (the paper's baseline MT kernel).
pub type ParCsr<'m, I = u32, V = f64> = ParChunks<CsrChunks<&'m Csr<I, V>>>;

/// Row-partitioned parallel CSR-DU SpMV. Each thread receives "an offset
/// in the ctl, values and y arrays" (§IV) via a pre-computed split.
pub type ParCsrDu<'m, V = f64> = ParChunks<CsrDuChunks<&'m CsrDu<V>>>;

/// Row-partitioned parallel CSR-VI SpMV ("trivially derived from the
/// serial by providing to each thread the first and the last row", §V).
pub type ParCsrVi<'m, I = u32, V = f64> = ParChunks<CsrViChunks<&'m CsrVi<I, V>>>;

/// Row-partitioned parallel CSR-DU-VI SpMV.
pub type ParCsrDuVi<'m, V = f64> = ParChunks<CsrDuViChunks<&'m CsrDuVi<V>>>;

// ---------------------------------------------------------------------
// CSC — column partitioning with private-y reduction
// ---------------------------------------------------------------------

/// Column-partitioned parallel CSC SpMV (§II-C): each thread runs a column
/// block into a *private* y vector ("the best practice is to have each
/// thread use its own y array"), followed by a chunked parallel reduction
/// on the same pool. The private vectors are pre-allocated at plan time.
pub struct ParCscColumns<'m, I: SpIndex = u32, V: Scalar = f64> {
    matrix: &'m Csc<I, V>,
    partition: ColPartition,
    pool: WorkerPool,
    /// `nparts` private y vectors, stored flat (`nparts * nrows`).
    privates: Vec<V>,
}

impl<'m, I: SpIndex, V: Scalar> ParCscColumns<'m, I, V> {
    /// Plans an nnz-balanced column partition over `nthreads` threads.
    pub fn new(matrix: &'m Csc<I, V>, nthreads: usize) -> Self {
        let partition = ColPartition::by_nnz(matrix.col_ptr(), nthreads);
        let pool = WorkerPool::new(partition.nparts());
        let privates = vec![V::zero(); partition.nparts() * matrix.nrows()];
        ParCscColumns { partition, matrix, pool, privates }
    }
}

impl<I: SpIndex, V: Scalar> ParSpMv<V> for ParCscColumns<'_, I, V> {
    fn nthreads(&self) -> usize {
        self.partition.nparts()
    }

    fn take_telemetry(&mut self) -> PoolTelemetry {
        self.pool.take_telemetry()
    }

    fn par_spmv(&mut self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.matrix.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.matrix.nrows(), "y length must equal nrows");
        let nparts = self.partition.nparts();
        let nrows = self.matrix.nrows();
        let partition = &self.partition;
        let m = self.matrix;
        // Dispatch 1: each thread zeroes its private y and accumulates its
        // column block into it.
        let priv_cell = DisjointSlices::new(&mut self.privates);
        self.pool.run(|tid| {
            // SAFETY: per-thread stripes of the flat buffer are disjoint.
            let y_private = unsafe { priv_cell.range(tid * nrows..(tid + 1) * nrows) };
            for v in y_private.iter_mut() {
                *v = V::zero();
            }
            let range = partition.part(tid);
            m.spmv_cols_acc(range.start, range.end, x, y_private);
        });
        // Dispatch 2: chunked parallel reduction. Each thread sums its row
        // chunk across all privates in fixed part order, so the result is
        // bit-identical to the serial reduction.
        let privates = &self.privates;
        let y_cell = DisjointSlices::new(y);
        self.pool.run(|tid| {
            let rows = chunk(nrows, nparts, tid);
            // SAFETY: uniform chunks are disjoint; one tid per chunk.
            let y_chunk = unsafe { y_cell.range(rows.clone()) };
            for (li, i) in rows.enumerate() {
                let mut acc = V::zero();
                for k in 0..nparts {
                    acc += privates[k * nrows + i];
                }
                y_chunk[li] = acc;
            }
        });
    }
}

// ---------------------------------------------------------------------
// CSR — 2-D block partitioning
// ---------------------------------------------------------------------

/// Block-partitioned parallel CSR SpMV (§II-C): threads form a `pr x pc`
/// grid; each owns a (row block, column block) tile. Threads in the same
/// grid row share output rows, so each writes a private partial that a
/// chunked second dispatch reduces. Demonstrates the partitioning
/// trade-off space (ablation A3). Within each row, the tile's entries are
/// located by binary search on the sorted column indices, so a tile only
/// streams its own non-zeros (plus the row pointers).
pub struct ParCsrBlock2d<'m, I: SpIndex = u32, V: Scalar = f64> {
    matrix: &'m Csr<I, V>,
    grid: Grid2d,
    rows: RowPartition,
    col_bounds: Vec<usize>,
    pool: WorkerPool,
    /// Per-tile partial y blocks, stored flat; tile `t` owns
    /// `partials[partial_off[t]..partial_off[t + 1]]` (its row block's
    /// length).
    partials: Vec<V>,
    partial_off: Vec<usize>,
}

impl<'m, I: SpIndex, V: Scalar> ParCsrBlock2d<'m, I, V> {
    /// Plans a near-square `pr x pc` grid with nnz-balanced row blocks and
    /// uniform column blocks.
    pub fn new(matrix: &'m Csr<I, V>, nthreads: usize) -> Self {
        let grid = Grid2d::squarest(nthreads);
        let rows = RowPartition::for_csr(matrix, grid.pr);
        let col_bounds: Vec<usize> = (0..=grid.pc).map(|k| k * matrix.ncols() / grid.pc).collect();
        let mut partial_off = Vec::with_capacity(grid.len() + 1);
        partial_off.push(0);
        for t in 0..grid.len() {
            let (pr, _) = grid.coords(t);
            partial_off.push(partial_off[t] + rows.part(pr).len());
        }
        let partials = vec![V::zero(); *partial_off.last().expect("nonempty offsets")];
        let pool = WorkerPool::new(grid.len());
        ParCsrBlock2d { matrix, grid, rows, col_bounds, pool, partials, partial_off }
    }

    /// The thread grid.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// Value/column positions of row `i` falling in tile `t`'s column
    /// block, found by binary search on the row's sorted column indices.
    /// Exposed so tests can count exactly how many entries each tile
    /// visits.
    pub fn tile_row_entries(&self, t: usize, i: usize) -> std::ops::Range<usize> {
        let (_, pc) = self.grid.coords(t);
        let rr = self.matrix.row_range(i);
        let cind = &self.matrix.col_ind()[rr.clone()];
        let lo = rr.start + cind.partition_point(|c| c.index() < self.col_bounds[pc]);
        let hi = rr.start + cind.partition_point(|c| c.index() < self.col_bounds[pc + 1]);
        lo..hi
    }
}

impl<I: SpIndex, V: Scalar> ParSpMv<V> for ParCsrBlock2d<'_, I, V> {
    fn nthreads(&self) -> usize {
        self.grid.len()
    }

    fn take_telemetry(&mut self) -> PoolTelemetry {
        self.pool.take_telemetry()
    }

    fn par_spmv(&mut self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.matrix.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.matrix.nrows(), "y length must equal nrows");
        let m = self.matrix;
        let grid = self.grid;
        let rows = &self.rows;
        let col_bounds = &self.col_bounds;
        let offs = &self.partial_off;
        let col_ind = m.col_ind();
        let values = m.values();
        // Dispatch 1: each tile computes its partial y block, visiting
        // only entries inside its column range (binary search per row).
        let part_cell = DisjointSlices::new(&mut self.partials);
        self.pool.run(|t| {
            let (pr, pc) = grid.coords(t);
            let row_block = rows.part(pr);
            let (c_lo, c_hi) = (col_bounds[pc], col_bounds[pc + 1]);
            // SAFETY: per-tile stripes of the flat buffer are disjoint.
            let partial = unsafe { part_cell.range(offs[t]..offs[t + 1]) };
            for (li, i) in row_block.enumerate() {
                let rr = m.row_range(i);
                let cind = &col_ind[rr.clone()];
                let lo = rr.start + cind.partition_point(|c| c.index() < c_lo);
                let hi = rr.start + cind.partition_point(|c| c.index() < c_hi);
                let mut acc = V::zero();
                for k in lo..hi {
                    acc += values[k] * x[col_ind[k].index()];
                }
                partial[li] = acc;
            }
        });
        // Dispatch 2: reduce across each grid row. Thread (pr, pc) owns
        // the pc-th uniform chunk of row block pr, so all grid.len()
        // threads reduce concurrently into disjoint y ranges, summing
        // tiles in fixed pc order (deterministic).
        let partials = &self.partials;
        let y_cell = DisjointSlices::new(y);
        self.pool.run(|t| {
            let (pr, pc) = grid.coords(t);
            let row_block = rows.part(pr);
            let local = chunk(row_block.len(), grid.pc, pc);
            let out = row_block.start + local.start..row_block.start + local.end;
            // SAFETY: chunks of distinct row blocks never overlap, and
            // uniform chunks within one block are disjoint.
            let y_chunk = unsafe { y_cell.range(out) };
            for (ci, li) in local.enumerate() {
                let mut acc = V::zero();
                for pcj in 0..grid.pc {
                    acc += partials[offs[pr * grid.pc + pcj] + li];
                }
                y_chunk[ci] = acc;
            }
        });
    }
}

// ---------------------------------------------------------------------
// DCSR — command-stream splits
// ---------------------------------------------------------------------

/// Row-partitioned parallel DCSR SpMV, mirroring [`ParCsrDu`] over the
/// command stream. Provided for completeness of the related-work
/// comparison (the paper only compares serial DCSR).
pub struct ParDcsr<'m, V: Scalar = f64> {
    matrix: &'m Dcsr<V>,
    splits: Vec<DcsrSplit>,
    row_bounds: Vec<usize>,
    pool: WorkerPool,
}

impl<'m, V: Scalar> ParDcsr<'m, V> {
    /// Plans nnz-balanced command-stream splits over `nthreads` threads.
    pub fn new(matrix: &'m Dcsr<V>, nthreads: usize) -> Self {
        let splits = matrix.splits(nthreads);
        let row_bounds = split_row_bounds(splits.iter().map(|s| s.row_end));
        let pool = WorkerPool::new(splits.len().max(1));
        ParDcsr { splits, row_bounds, matrix, pool }
    }
}

impl<V: Scalar> ParSpMv<V> for ParDcsr<'_, V> {
    fn nthreads(&self) -> usize {
        self.splits.len()
    }

    fn take_telemetry(&mut self) -> PoolTelemetry {
        self.pool.take_telemetry()
    }

    fn par_spmv(&mut self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.matrix.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.matrix.nrows(), "y length must equal nrows");
        let covered = *self.row_bounds.last().expect("nonempty bounds");
        for v in y[covered..].iter_mut() {
            *v = V::zero();
        }
        if self.splits.is_empty() {
            return;
        }
        let slices = DisjointSlices::new(y);
        let splits = &self.splits;
        let bounds = &self.row_bounds;
        let m = self.matrix;
        self.pool.run(|tid| {
            // SAFETY: split row ranges are disjoint; one tid per split.
            let y_local = unsafe { slices.range(bounds[tid]..bounds[tid + 1]) };
            m.spmv_split_local(&splits[tid], x, y_local);
        });
    }
}

// ---------------------------------------------------------------------
// Symmetric CSR — row partitioning with private-y mirror accumulation
// ---------------------------------------------------------------------

/// Parallel symmetric-CSR SpMV. The lower-triangle rows are partitioned
/// by stored nnz, but each stored off-diagonal entry also contributes to
/// a *foreign* row of `y` (the mirrored upper-triangle term), so every
/// thread accumulates into a private full-length `y` — pre-allocated at
/// plan time — that a chunked second dispatch reduces, the same structure
/// column partitioning needs (§II-C).
pub struct ParSymCsr<'m, I: SpIndex = u32, V: Scalar = f64> {
    matrix: &'m SymCsr<I, V>,
    partition: RowPartition,
    pool: WorkerPool,
    /// `nparts` private y vectors, stored flat (`nparts * n`).
    privates: Vec<V>,
}

impl<'m, I: SpIndex, V: Scalar> ParSymCsr<'m, I, V> {
    /// Plans an nnz-balanced row partition over the stored triangle.
    pub fn new(matrix: &'m SymCsr<I, V>, nthreads: usize) -> Self {
        let partition = RowPartition::for_csr(matrix.lower(), nthreads);
        let pool = WorkerPool::new(partition.nparts());
        let privates = vec![V::zero(); partition.nparts() * matrix.n()];
        ParSymCsr { partition, matrix, pool, privates }
    }
}

impl<I: SpIndex, V: Scalar> ParSpMv<V> for ParSymCsr<'_, I, V> {
    fn nthreads(&self) -> usize {
        self.partition.nparts()
    }

    fn take_telemetry(&mut self) -> PoolTelemetry {
        self.pool.take_telemetry()
    }

    fn par_spmv(&mut self, x: &[V], y: &mut [V]) {
        let n = self.matrix.n();
        assert_eq!(x.len(), n, "x length must equal n");
        assert_eq!(y.len(), n, "y length must equal n");
        let lower = self.matrix.lower();
        let nparts = self.partition.nparts();
        let partition = &self.partition;
        // Dispatch 1: each thread zeroes its private y, then accumulates
        // its row block plus the mirrored upper-triangle contributions.
        let priv_cell = DisjointSlices::new(&mut self.privates);
        self.pool.run(|tid| {
            // SAFETY: per-thread stripes of the flat buffer are disjoint.
            let y_private = unsafe { priv_cell.range(tid * n..(tid + 1) * n) };
            for v in y_private.iter_mut() {
                *v = V::zero();
            }
            for i in partition.part(tid) {
                let mut acc = V::zero();
                for (j, a) in lower.row_iter(i) {
                    acc += a * x[j];
                    if j != i {
                        y_private[j] += a * x[i];
                    }
                }
                y_private[i] += acc;
            }
        });
        // Dispatch 2: chunked parallel reduction in fixed part order
        // (bit-identical to the serial reduction).
        let privates = &self.privates;
        let y_cell = DisjointSlices::new(y);
        self.pool.run(|tid| {
            let rows = chunk(n, nparts, tid);
            // SAFETY: uniform chunks are disjoint; one tid per chunk.
            let y_chunk = unsafe { y_cell.range(rows.clone()) };
            for (li, i) in rows.enumerate() {
                let mut acc = V::zero();
                for k in 0..nparts {
                    acc += privates[k * n + i];
                }
                y_chunk[li] = acc;
            }
        });
    }
}

#[cfg(test)]
mod tests;

//! Chunk kernels: the per-format half of parallel SpMV.
//!
//! The paper parallelizes its formats by row partitioning alone: CSR-VI
//! is "trivially derived from the serial by providing to each thread the
//! first and the last row" (§V), and each CSR-DU thread gets "an offset in
//! the ctl, values and y arrays" (§IV). So the only per-format knowledge a
//! parallel executor needs is how to split the matrix and how to compute
//! one split. A [`ChunkKernel`] is exactly that, and the four adapters
//! here are the only per-format parallel code: the pool executors of
//! [`crate::par`] ([`crate::ParCsr`] and friends, over a borrowed matrix)
//! and [`crate::SupervisedSpMv`] (over an `Arc`-owned one) both run them.
//!
//! The paper's two schemes are one adapter template each: row ranges for
//! CSR and CSR-VI, ctl-stream splits for CSR-DU and CSR-DU-VI. Each
//! adapter is generic over its matrix *handle* `M` — anything that
//! dereferences to the matrix — and snapshots the kernel ISA when it is
//! planned ([`PlanChunks`]), so every execution of a chunk (pool thread,
//! supervised worker, serial retry or bit-exact self-check) runs the same
//! kernel.

use crate::partition::RowPartition;
use spmv_core::csr_du::{CsrDu, DuSplit};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Csr, Isa, Scalar, SpIndex};
use std::ops::{Deref, Range};

/// A matrix pre-partitioned into independently computable row chunks.
///
/// `compute` must be **deterministic** (same chunk + same `x` ⇒
/// bit-identical output): the supervised executor re-executes chunks after
/// faults and its self-check compares recomputed chunks bit-for-bit.
/// [`crate::SupervisedSpMv`] takes kernels as `Arc<dyn ChunkKernel<V>>`,
/// which are `'static`: only kernels that own their matrix reach it, so a
/// chunk computation there can outlive any particular call — the property
/// that makes stall abandonment sound.
pub trait ChunkKernel<V: Scalar>: Send + Sync {
    /// Rows of the matrix (length of `y`).
    fn nrows(&self) -> usize;
    /// Columns of the matrix (length of `x`).
    fn ncols(&self) -> usize;
    /// Number of chunks. Chunk row ranges are pairwise disjoint; rows not
    /// covered by any chunk are zero in every result.
    fn nchunks(&self) -> usize;
    /// Row range `chunk` covers.
    fn chunk_rows(&self, chunk: usize) -> Range<usize>;
    /// Computes `out = (A·x)[chunk_rows(chunk)]`; `out` has exactly
    /// `chunk_rows(chunk).len()` elements and must be **overwritten**:
    /// executors reuse their outputs across calls, so `out` holds a
    /// previous result on entry, not zeros.
    fn compute(&self, chunk: usize, x: &[V], out: &mut [V]);
    /// Multi-vector variant: `x` is an `ncols x k` row-major panel and
    /// `out` a `chunk_rows(chunk).len() x k` row-major panel to overwrite.
    /// Must be deterministic like [`ChunkKernel::compute`], and its
    /// `k = 1` case must be bit-identical to `compute` (the supervisor
    /// routes both SpMV and SpMM recovery through this method).
    fn compute_block(&self, chunk: usize, x: &[V], k: usize, out: &mut [V]);
}

/// A chunk adapter planned over a matrix handle `M`.
pub trait PlanChunks<M> {
    /// Plans at most `nchunks` nnz-balanced chunks of `matrix` (fewer for
    /// tiny matrices) running the kernels for `isa` (unavailable choices
    /// degrade to scalar inside the kernel dispatch).
    fn plan(matrix: M, nchunks: usize, isa: Isa) -> Self;
}

/// Defines the adapter `$name` over `$matrix<I, V>`, a row-partitioned
/// format (CSR, CSR-VI): nnz-balanced row chunks of its `row_ptr`, each
/// run by the format's `spmv_rows_local_isa` / `spmm_rows_local_isa`.
macro_rules! row_chunks {
    ($(#[$doc:meta])* $name:ident over $matrix:ident) => {
        $(#[$doc])*
        pub struct $name<M> {
            matrix: M,
            partition: RowPartition,
            isa: Isa,
        }

        impl<I: SpIndex, V: Scalar, M: Deref<Target = $matrix<I, V>>> $name<M> {
            /// Partitions `matrix` into `nchunks` nnz-balanced row chunks,
            /// with the kernel ISA snapshotted here.
            pub fn new(matrix: M, nchunks: usize) -> $name<M> {
                $name::plan(matrix, nchunks, spmv_core::simd::selected())
            }
        }

        impl<I: SpIndex, V: Scalar, M: Deref<Target = $matrix<I, V>>> PlanChunks<M> for $name<M> {
            fn plan(matrix: M, nchunks: usize, isa: Isa) -> $name<M> {
                let partition = RowPartition::by_nnz(matrix.row_ptr(), nchunks.max(1));
                $name { matrix, partition, isa }
            }
        }

        impl<I, V, M> ChunkKernel<V> for $name<M>
        where
            I: SpIndex,
            V: Scalar,
            M: Deref<Target = $matrix<I, V>> + Send + Sync,
        {
            fn nrows(&self) -> usize {
                self.matrix.nrows()
            }
            fn ncols(&self) -> usize {
                self.matrix.ncols()
            }
            fn nchunks(&self) -> usize {
                self.partition.nparts()
            }
            fn chunk_rows(&self, chunk: usize) -> Range<usize> {
                self.partition.part(chunk)
            }
            fn compute(&self, chunk: usize, x: &[V], out: &mut [V]) {
                let r = self.partition.part(chunk);
                self.matrix.spmv_rows_local_isa(self.isa, r.start, r.end, x, out);
            }
            fn compute_block(&self, chunk: usize, x: &[V], k: usize, out: &mut [V]) {
                let r = self.partition.part(chunk);
                self.matrix.spmm_rows_local_isa(self.isa, r.start, r.end, x, k, out);
            }
        }
    };
}

/// Defines the adapter `$name` over `$matrix<V>`, a ctl-stream format
/// (CSR-DU, CSR-DU-VI): each chunk is one of the format's nnz-balanced
/// [`DuSplit`]s, run by its `spmv_split_local_isa` /
/// `spmm_split_local_isa`.
macro_rules! split_chunks {
    ($(#[$doc:meta])* $name:ident over $matrix:ident) => {
        $(#[$doc])*
        pub struct $name<M> {
            matrix: M,
            splits: Vec<DuSplit>,
            isa: Isa,
        }

        impl<V: Scalar, M: Deref<Target = $matrix<V>>> $name<M> {
            /// Plans `nchunks` nnz-balanced ctl-stream splits (possibly
            /// fewer for tiny matrices), with the kernel ISA snapshotted
            /// here.
            pub fn new(matrix: M, nchunks: usize) -> $name<M> {
                $name::plan(matrix, nchunks, spmv_core::simd::selected())
            }
        }

        impl<V: Scalar, M: Deref<Target = $matrix<V>>> PlanChunks<M> for $name<M> {
            fn plan(matrix: M, nchunks: usize, isa: Isa) -> $name<M> {
                let splits = matrix.splits(nchunks.max(1));
                $name { matrix, splits, isa }
            }
        }

        impl<V: Scalar, M: Deref<Target = $matrix<V>> + Send + Sync> ChunkKernel<V> for $name<M> {
            fn nrows(&self) -> usize {
                self.matrix.nrows()
            }
            fn ncols(&self) -> usize {
                self.matrix.ncols()
            }
            fn nchunks(&self) -> usize {
                self.splits.len()
            }
            fn chunk_rows(&self, chunk: usize) -> Range<usize> {
                self.splits[chunk].row_start..self.splits[chunk].row_end
            }
            fn compute(&self, chunk: usize, x: &[V], out: &mut [V]) {
                self.matrix.spmv_split_local_isa(self.isa, &self.splits[chunk], x, out);
            }
            fn compute_block(&self, chunk: usize, x: &[V], k: usize, out: &mut [V]) {
                self.matrix.spmm_split_local_isa(self.isa, &self.splits[chunk], x, k, out);
            }
        }
    };
}

row_chunks!(
    /// Row-partitioned chunks over a CSR matrix (nnz-balanced).
    CsrChunks over Csr
);
row_chunks!(
    /// Row-partitioned chunks over a CSR-VI matrix (nnz-balanced).
    CsrViChunks over CsrVi
);
split_chunks!(
    /// Ctl-stream chunks over a CSR-DU matrix (each chunk is a [`DuSplit`]).
    CsrDuChunks over CsrDu
);
split_chunks!(
    /// Ctl-stream chunks over a CSR-DU-VI matrix (each chunk is a
    /// [`DuSplit`]).
    CsrDuViChunks over CsrDuVi
);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    /// CSR chunks with rows `gap` left out of every chunk: chunk 0 covers
    /// the rows after the gap, chunk 1 the rows before it.
    pub(crate) struct Gapped {
        pub(crate) inner: CsrChunks<Arc<Csr<u32, f64>>>,
        pub(crate) gap: Range<usize>,
    }

    impl ChunkKernel<f64> for Gapped {
        fn nrows(&self) -> usize {
            ChunkKernel::nrows(&self.inner)
        }
        fn ncols(&self) -> usize {
            ChunkKernel::ncols(&self.inner)
        }
        fn nchunks(&self) -> usize {
            2
        }
        fn chunk_rows(&self, chunk: usize) -> Range<usize> {
            if chunk == 0 {
                self.gap.end..self.nrows()
            } else {
                0..self.gap.start
            }
        }
        fn compute(&self, chunk: usize, x: &[f64], out: &mut [f64]) {
            let r = self.chunk_rows(chunk);
            self.inner.matrix.spmv_rows_local(r.start, r.end, x, out);
        }
        fn compute_block(&self, chunk: usize, x: &[f64], k: usize, out: &mut [f64]) {
            let r = self.chunk_rows(chunk);
            self.inner.matrix.spmm_rows_local(r.start, r.end, x, k, out);
        }
    }
}

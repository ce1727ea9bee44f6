//! Planner differential suite: whatever format the planner picks must
//! compute exactly what CSR computes (the encodings are lossless, so the
//! serial kernels must agree bit-for-bit, not approximately); a second
//! planning pass over the same corpus must be served entirely from the
//! fingerprint cache without re-analysis or re-encoding; and the
//! predicted cost ranking must be invariant under row relabelling,
//! because none of the model's inputs (nnz distribution, row spans,
//! x-line touches, per-row delta structure, value set) depend on which
//! label a row carries.
//!
//! Every planner here runs the streamed (bandwidth-model) regime
//! (`llc_bytes: None`): at this corpus scale each matrix fits a modern
//! LLC, where the planner picks CSR without encoding, and these checks
//! need the compressed candidates and their encodes.

use proptest::prelude::*;
use spmv_core::checked::{CheckOptions, CheckedSpMv};
use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Coo, Csr, FormatKind};
use spmv_matgen::permute::{permute_rows, random_permutation};
use spmv_memsim::{Planner, PlannerConfig};

fn streamed() -> PlannerConfig {
    PlannerConfig { llc_bytes: None, ..PlannerConfig::default() }
}

/// Bit-identical comparison: check every row with zero ULP tolerance.
const EXACT: CheckOptions = CheckOptions { sample_rows: 0, max_ulps: 0 };

fn check_exact(kernel: &dyn spmv_core::SpMv<f64>, csr: &Csr<u32, f64>) {
    let checked = CheckedSpMv::with_options(kernel, csr, EXACT).expect("shape matches");
    let x: Vec<f64> = (0..csr.ncols()).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut y = vec![0.0; csr.nrows()];
    checked.spmv_verified(&x, &mut y).expect("planned kernel must match CSR bit-for-bit");
}

#[test]
fn every_corpus_plan_computes_bit_identically_to_csr() {
    let planner = Planner::new(streamed());
    let corpus = spmv_matgen::corpus::corpus_scaled(0.002);
    let mut planned = 0usize;
    for entry in corpus.iter().filter(|e| e.in_m0()) {
        let csr: Csr = entry.build().to_csr();
        let plan = planner.plan_csr(&csr).expect("corpus matrix plans");
        match plan.format {
            FormatKind::Csr => check_exact(&csr, &csr),
            FormatKind::CsrDu => check_exact(&CsrDu::from_csr(&csr, &DuOptions::default()), &csr),
            FormatKind::CsrVi => check_exact(&CsrVi::from_csr(&csr), &csr),
            FormatKind::CsrDuVi => {
                check_exact(&CsrDuVi::from_csr(&csr, &DuOptions::default()), &csr)
            }
            other => panic!("planner chose unplannable format {}", other.name()),
        }
        planned += 1;
    }
    assert!(planned > 50, "M0 corpus should contribute dozens of matrices, got {planned}");
}

#[test]
fn second_pass_is_all_cache_hits_with_zero_new_encodes() {
    let planner = Planner::new(streamed());
    let corpus = spmv_matgen::corpus::corpus_scaled(0.002);
    let matrices: Vec<Csr> =
        corpus.iter().filter(|e| e.in_m0()).map(|e| e.build().to_csr()).collect();
    for m in &matrices {
        planner.plan_csr(m).expect("cold pass plans");
    }
    let cold = planner.stats();
    assert_eq!(cold.hits + cold.misses, matrices.len() as u64);
    assert_eq!(cold.misses, planner.entries() as u64, "one analysis per distinct fingerprint");
    assert!(cold.encodes > 0, "cold analysis encodes the compressed candidates");

    for m in &matrices {
        let plan = planner.plan_csr(m).expect("warm pass plans");
        assert!(plan.cache_hit, "second pass must be served from the cache");
        assert!(plan.ranking.is_empty(), "cache hits skip re-analysis");
    }
    let warm = planner.stats();
    assert_eq!(warm.misses, cold.misses, "warm pass adds no misses");
    assert_eq!(warm.encodes, cold.encodes, "warm pass re-encodes nothing");
    assert_eq!(warm.hits, cold.hits + matrices.len() as u64);
}

/// A circulant tridiagonal ring: every row has exactly three non-zeros
/// (so the nnz-balanced partition — and with it the imbalance input to
/// the cost model — is independent of row order) and no row is empty
/// (so CSR-DU's empty-row jump encoding never enters). Values come from
/// a small palette so CSR-VI's dedup is exercised; the palette moves
/// with the rows under permutation, leaving the value *set* unchanged.
fn ring(n: usize) -> Coo<f64> {
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        for c in [(r + n - 1) % n, r, (r + 1) % n] {
            coo.push(r, c, 1.0 + ((r * 31 + c) % 5) as f64).unwrap();
        }
    }
    coo.canonicalize();
    coo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Relabelling rows changes the fingerprint (bytes move) but none of
    /// the cost model's inputs, so the full predicted ranking — formats,
    /// thread counts, and the predicted times themselves — must be
    /// reproduced exactly on the permuted matrix.
    #[test]
    fn predicted_ranking_is_invariant_under_row_permutation(
        n in 16usize..256,
        seed in 0u64..1024,
    ) {
        let coo = ring(n);
        let permuted = permute_rows(&coo, &random_permutation(n, seed));
        let original = Planner::new(streamed())
            .plan_csr(&coo.to_csr())
            .expect("ring plans");
        let relabelled = Planner::new(streamed())
            .plan_csr(&permuted.to_csr())
            .expect("permuted ring plans");
        prop_assert_eq!(original.format, relabelled.format);
        prop_assert_eq!(original.threads, relabelled.threads);
        prop_assert_eq!(original.chunks, relabelled.chunks);
        prop_assert_eq!(original.matrix_bytes, relabelled.matrix_bytes);
        prop_assert_eq!(original.predicted_time_s, relabelled.predicted_time_s);
        prop_assert_eq!(&original.ranking, &relabelled.ranking);
    }
}

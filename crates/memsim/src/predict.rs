//! The performance predictor: combines the machine, placement, matrix
//! profile and format cost into a per-iteration time estimate.
//!
//! Steady-state model of the paper's measurement protocol (§VI-A: 128
//! consecutive SpMV iterations, warm caches, no artificial pollution):
//!
//! 1. **Cache allocation.** The placement's aggregate usable L2 holds, in
//!    priority order: the output vector `y`, the resident lookup tables,
//!    the x footprint, and finally as much of the streamed matrix data as
//!    fits. What does not fit must be re-fetched every iteration.
//! 2. **Memory time** = traffic / placement bandwidth.
//! 3. **CPU time** = per-element/row/unit cycles at the core clock,
//!    divided by the thread count and inflated by the partition's load
//!    imbalance, plus scatter-latency penalties for x misses and a
//!    barrier cost per iteration.
//! 4. **Iteration time** = max(CPU, memory) — streaming kernels overlap
//!    compute with prefetched traffic, so the slower resource dominates.

use crate::cost::{CostModel, FormatCost};
use crate::machine::Machine;
use crate::placement::Placement;
use crate::profile::MatrixProfile;
use serde::Serialize;

/// Model configuration: machine + cost constants.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimConfig {
    /// Machine description (bandwidths, caches, topology).
    pub machine: Machine,
    /// CPU cycle cost constants.
    pub cost: CostModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { machine: Machine::clovertown(), cost: CostModel::default() }
    }
}

/// Predicted steady-state performance for one (matrix, format, placement).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Prediction {
    /// Seconds per SpMV iteration.
    pub time_s: f64,
    /// Achieved MFLOP/s (2·nnz / time).
    pub mflops: f64,
    /// Memory traffic per iteration (bytes).
    pub traffic_bytes: f64,
    /// CPU-side time per iteration (seconds).
    pub cpu_time_s: f64,
    /// Memory-side time per iteration (seconds).
    pub mem_time_s: f64,
    /// `true` if the iteration is memory-bandwidth bound.
    pub memory_bound: bool,
    /// Fraction of the streamed matrix resident in cache (0 = fully
    /// streamed from memory each iteration, 1 = fully cached).
    pub matrix_residency: f64,
    /// Fraction of the x footprint resident in cache.
    pub x_residency: f64,
}

/// Predicts steady-state SpMV performance.
pub fn predict(
    profile: &MatrixProfile,
    fc: &FormatCost,
    placement: &Placement,
    config: &SimConfig,
) -> Prediction {
    let m = &config.machine;
    let cm = &config.cost;
    let threads = placement.threads as f64;

    // ---- 1. cache allocation (per die) --------------------------------
    // Row partitioning splits the matrix stream and y across the dies the
    // placement occupies, but the x vector is shared: banded-style access
    // windows partition along with the rows, while scattered access
    // patterns force every die to hold its own copy of the hot x lines
    // (replication in private caches). Capacity is therefore budgeted per
    // die.
    let dies = placement.dies as f64;
    let mut per_die = m.usable_cache(1);

    // Scatter weight: 0 = banded-style sliding window fully captured by a
    // thread's cache share, 1 = fully scattered x access. The smooth ramp
    // (instead of a hard threshold) reflects that partially-overflowing
    // windows lose reuse gradually, and that skewed access patterns keep
    // their hot lines cached.
    let window_bytes = profile.avg_row_span * 8.0;
    let per_thread_cache = placement.usable_cache(m) / threads;
    let scatter = (window_bytes / (0.5 * per_thread_cache).max(1.0)).clamp(0.0, 1.0);

    let y_bytes = (profile.nrows * 8) as f64;
    let y_fit_per_die = (y_bytes / dies).min(per_die);
    per_die -= y_fit_per_die;
    let y_resident = y_fit_per_die * dies;

    // Lookup tables (CSR-VI's unique values) are hot on every die. The
    // part of a table that does not fit is evicted between uses like the
    // matrix stream, so it is re-fetched every iteration (step 2).
    let resident_tables = (fc.resident_bytes as f64).min(per_die);
    per_die -= resident_tables;
    let table_overflow = fc.resident_bytes as f64 - resident_tables;

    let x_bytes = profile.x_footprint_bytes();
    // Windowed access => each die only caches its own row block's window;
    // scattered access => the footprint is replicated on every die.
    let x_demand_per_die = (1.0 - scatter) * (x_bytes / dies) + scatter * x_bytes;
    let x_fit_per_die = x_demand_per_die.min(per_die);
    per_die -= x_fit_per_die;
    let x_residency = if x_demand_per_die > 0.0 { x_fit_per_die / x_demand_per_die } else { 1.0 };

    let stream_bytes = fc.stream_bytes as f64;
    let stream_per_die = stream_bytes / dies;
    // The matrix stream is accessed *cyclically* (front to back, every
    // iteration), and cyclic reuse over an LRU cache is all-or-nothing: if
    // the stream exceeds the remaining capacity, each line is evicted
    // before its next use and residency collapses to ~0. A narrow smooth
    // band around the fit point avoids an unphysical cliff for borderline
    // matrices (conflict misses help a little below, hurt a little above).
    let matrix_residency = if stream_per_die == 0.0 {
        1.0
    } else {
        (((per_die / stream_per_die) - 0.85) / 0.30).clamp(0.0, 1.0)
    };

    // ---- 2. memory traffic --------------------------------------------
    // Matrix data that did not stay resident streams in every iteration.
    let matrix_traffic = stream_bytes * (1.0 - matrix_residency);

    // x traffic: banded-style windows reuse x within the sweep, so only
    // the non-resident part of the (partitioned) footprint misses once per
    // iteration; scattered accesses miss once per touch — weighted by the
    // touch-concentration curve, since the cache retains the *hottest*
    // lines (hub columns of graph matrices are nearly always resident).
    let line = crate::profile::LINE as f64;
    let windowed_traffic = x_bytes * (1.0 - x_residency);
    let x_hit_coverage = profile.coverage(x_residency);
    let scattered_traffic = (profile.x_touch_lines as f64) * line * (1.0 - x_hit_coverage);
    let x_traffic = (1.0 - scatter) * windowed_traffic + scatter * scattered_traffic;

    // y write-back traffic when y does not stay resident.
    let y_traffic = y_bytes - y_resident;

    let traffic = matrix_traffic + table_overflow + x_traffic + y_traffic;
    let bw = placement.bandwidth(m);
    let mem_time = traffic / bw;

    // ---- 3. CPU time ---------------------------------------------------
    let mut cycles = profile.nnz as f64 * fc.cycles_per_nnz
        + profile.rows_nonempty as f64 * fc.cycles_per_row
        + fc.cycles_flat;
    // Latency component of scattered x loads that miss cache.
    cycles += profile.nnz as f64 * cm.x_scatter_penalty * scatter * (1.0 - x_hit_coverage);
    let imbalance = profile.imbalance_at(placement.threads);
    let mut cpu_time = cycles / m.freq_hz / threads * imbalance;
    if placement.threads > 1 {
        cpu_time += cm.barrier / m.freq_hz;
    }

    // ---- 4. combine -----------------------------------------------------
    let time = cpu_time.max(mem_time);
    let flops = 2.0 * profile.nnz as f64;
    Prediction {
        time_s: time,
        mflops: if time > 0.0 { flops / time / 1e6 } else { 0.0 },
        traffic_bytes: traffic,
        cpu_time_s: cpu_time,
        mem_time_s: mem_time,
        memory_bound: mem_time > cpu_time,
        matrix_residency,
        x_residency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FormatCost;
    use crate::profile::MatrixProfile;
    use spmv_core::csr_du::{CsrDu, DuOptions};
    use spmv_core::csr_duvi::CsrDuVi;
    use spmv_core::csr_vi::CsrVi;
    use spmv_core::Csr;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    /// A large banded matrix (ML-like: ws >> 17 MB).
    fn large_banded() -> Csr {
        spmv_matgen::gen::banded(220_000, 6, 1.0, 1).to_csr()
    }

    /// A mid-size banded matrix (MS-like: 3 MB <= ws < 17 MB).
    fn mid_banded() -> Csr {
        spmv_matgen::gen::banded(60_000, 6, 1.0, 2).to_csr()
    }

    #[test]
    fn large_matrix_is_memory_bound_and_scales_like_paper() {
        let csr = large_banded();
        let profile = MatrixProfile::from_csr(&csr);
        let fc = FormatCost::csr(&csr, &cfg().cost).expect("non-degenerate");

        let serial = predict(&profile, &fc, &Placement::serial(), &cfg());
        assert!(serial.memory_bound, "ML matrices are memory bound serially");
        // Paper Table II: ML serial average 477.8 MFLOP/s.
        assert!(
            (380.0..580.0).contains(&serial.mflops),
            "serial {} MFLOP/s outside ML anchor band",
            serial.mflops
        );

        let eight = predict(&profile, &fc, &Placement::eight(), &cfg());
        let speedup = serial.time_s / eight.time_s;
        // Paper: ML 8-thread average 2.12 (range driven by x traffic).
        assert!((1.7..2.7).contains(&speedup), "8-thread ML speedup {speedup}");
    }

    #[test]
    fn shared_l2_slower_than_separate_for_two_threads() {
        let csr = large_banded();
        let profile = MatrixProfile::from_csr(&csr);
        let fc = FormatCost::csr(&csr, &cfg().cost).expect("non-degenerate");
        let serial = predict(&profile, &fc, &Placement::serial(), &cfg());
        let shared = predict(&profile, &fc, &Placement::two_shared_l2(), &cfg());
        let separate = predict(&profile, &fc, &Placement::two_separate_l2(), &cfg());
        let s_shared = serial.time_s / shared.time_s;
        let s_separate = serial.time_s / separate.time_s;
        assert!(s_shared < s_separate, "cache sharing must be destructive");
        // Paper ML anchors: 1.15 vs 1.24.
        assert!((1.05..1.3).contains(&s_shared), "shared {s_shared}");
        assert!((1.1..1.45).contains(&s_separate), "separate {s_separate}");
    }

    #[test]
    fn mid_matrix_fits_at_8_threads_and_superscales() {
        let csr = mid_banded();
        let ws = csr.working_set().total();
        assert!((3 << 20..17 << 20).contains(&ws), "ws {} not MS-like", ws >> 20);
        let profile = MatrixProfile::from_csr(&csr);
        let fc = FormatCost::csr(&csr, &cfg().cost).expect("non-degenerate");
        let serial = predict(&profile, &fc, &Placement::serial(), &cfg());
        let eight = predict(&profile, &fc, &Placement::eight(), &cfg());
        let speedup = serial.time_s / eight.time_s;
        // Paper MS 8-thread average 6.19, max 8.71.
        assert!(speedup > 4.0, "MS speedup {speedup}");
        assert!(eight.matrix_residency > 0.5, "matrix should mostly fit at 8T");
    }

    #[test]
    fn du_beats_csr_when_memory_bound_but_not_serially_cpu_bound() {
        let csr = large_banded();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let profile = MatrixProfile::from_csr(&csr);
        let c = cfg();
        let fc_csr = FormatCost::csr(&csr, &c.cost).expect("non-degenerate");
        let fc_du = FormatCost::csr_du(&du, &c.cost).expect("non-degenerate");

        // 8 threads, memory bound: DU's smaller stream wins (paper: +20%).
        let p_csr = predict(&profile, &fc_csr, &Placement::eight(), &c);
        let p_du = predict(&profile, &fc_du, &Placement::eight(), &c);
        let gain = p_csr.time_s / p_du.time_s;
        assert!(gain > 1.08, "8T DU gain {gain}");

        // Mid matrix at 8 threads (cache resident): DU's decode overhead
        // shows, gain should shrink or invert (paper MS 8T: 1.05 avg with
        // 8 slowdowns).
        let mid = mid_banded();
        let du_mid = CsrDu::from_csr(&mid, &DuOptions::default());
        let prof_mid = MatrixProfile::from_csr(&mid);
        let p_csr_m = predict(
            &prof_mid,
            &FormatCost::csr(&mid, &c.cost).expect("non-degenerate"),
            &Placement::eight(),
            &c,
        );
        let p_du_m = predict(
            &prof_mid,
            &FormatCost::csr_du(&du_mid, &c.cost).expect("non-degenerate"),
            &Placement::eight(),
            &c,
        );
        let gain_mid = p_csr_m.time_s / p_du_m.time_s;
        assert!(gain_mid < gain, "cache-resident gain {gain_mid} should trail ML gain {gain}");
    }

    #[test]
    fn vi_beats_csr_strongly_on_few_valued_memory_bound_matrix() {
        // ML-sized banded matrix with 4 unique values: paper ML-vi 8T 1.59.
        let coo = spmv_matgen::gen::banded(220_000, 6, 1.0, 3);
        let mut csr = coo.to_csr();
        let vals: Vec<f64> = (0..csr.nnz()).map(|j| [1.0, 2.5, -3.0, 0.5][j % 4]).collect();
        csr.values_mut().copy_from_slice(&vals);
        let vi = CsrVi::from_csr(&csr);
        assert!(vi.is_profitable());
        let profile = MatrixProfile::from_csr(&csr);
        let c = cfg();
        let p_csr = predict(
            &profile,
            &FormatCost::csr(&csr, &c.cost).expect("non-degenerate"),
            &Placement::eight(),
            &c,
        );
        let p_vi = predict(
            &profile,
            &FormatCost::csr_vi(&vi, &c.cost).expect("non-degenerate"),
            &Placement::eight(),
            &c,
        );
        let gain = p_csr.time_s / p_vi.time_s;
        assert!((1.25..2.6).contains(&gain), "8T VI gain {gain}");
    }

    #[test]
    fn overflowing_value_table_streams_and_du_vi_does_not_beat_du() {
        // ttu = 1: every value unique, so the VI table (7.2 MB) is as big
        // as the value array it replaces and overflows every die's L2.
        // The overflow is re-fetched each iteration; counting it, the
        // DU-VI stream is no smaller than DU's and its decode costs more.
        let mut csr = spmv_matgen::gen::banded(100_000, 4, 1.0, 1).to_csr();
        let vals: Vec<f64> = (0..csr.nnz()).map(|j| j as f64 + 0.5).collect();
        csr.values_mut().copy_from_slice(&vals);
        let c = cfg();
        let profile = MatrixProfile::from_csr(&csr);
        let duvi = CsrDuVi::from_csr(&csr, &DuOptions::default());
        let fc_du = FormatCost::csr_du(&CsrDu::from_csr(&csr, &DuOptions::default()), &c.cost)
            .expect("non-degenerate");
        let fc_duvi = FormatCost::csr_duvi(&duvi, &c.cost).expect("non-degenerate");
        assert!(fc_duvi.resident_bytes as f64 > c.machine.usable_cache(1));
        for t in [1, 2, 4, 8] {
            let place = Placement::close(t, &c.machine);
            let du = predict(&profile, &fc_du, &place, &c);
            let duvi = predict(&profile, &fc_duvi, &place, &c);
            assert!(duvi.traffic_bytes >= du.traffic_bytes, "{t} threads: overflow is traffic");
            assert!(duvi.time_s >= du.time_s, "{t} threads: DU-VI {duvi:?} beats DU {du:?}");
        }
    }

    #[test]
    fn scattered_matrix_pays_x_traffic() {
        // 600k columns: x footprint 4.8 MB exceeds one die's usable L2,
        // so scattered accesses miss while banded windows still reuse.
        let rnd = spmv_matgen::gen::random_uniform(600_000, 10, 5).to_csr();
        let band = spmv_matgen::gen::banded(600_000, 4, 1.0, 5).to_csr();
        let c = cfg();
        let p_rnd = predict(
            &MatrixProfile::from_csr(&rnd),
            &FormatCost::csr(&rnd, &c.cost).expect("non-degenerate"),
            &Placement::serial(),
            &c,
        );
        let p_band = predict(
            &MatrixProfile::from_csr(&band),
            &FormatCost::csr(&band, &c.cost).expect("non-degenerate"),
            &Placement::serial(),
            &c,
        );
        // Per-nnz traffic must be clearly higher for the scattered matrix.
        let t_rnd = p_rnd.traffic_bytes / rnd.nnz() as f64;
        let t_band = p_band.traffic_bytes / band.nnz() as f64;
        assert!(t_rnd > 1.5 * t_band, "rnd {t_rnd} vs band {t_band}");
        assert!(p_rnd.mflops < p_band.mflops);
    }

    #[test]
    fn prediction_fields_are_consistent() {
        let csr = mid_banded();
        let profile = MatrixProfile::from_csr(&csr);
        let fc = FormatCost::csr(&csr, &cfg().cost).expect("non-degenerate");
        let p = predict(&profile, &fc, &Placement::four(), &cfg());
        assert!(p.time_s >= p.cpu_time_s.max(p.mem_time_s) - 1e-15);
        assert!(p.mflops > 0.0);
        assert!((0.0..=1.0).contains(&p.matrix_residency));
        assert!((0.0..=1.0).contains(&p.x_residency));
        assert_eq!(p.memory_bound, p.mem_time_s > p.cpu_time_s);
    }
}

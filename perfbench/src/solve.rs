//! `solve`: Jacobi-PCG to a relative residual of 1e-8 on a seeded SPD
//! 3-D 7-point stencil whose CSR working set is at least four LLCs, in
//! the format the planner picks, through the matching `Par*` executor.
//!
//! Kernels, pool and the planner's choice do nearly all the work and
//! nothing goes through the service or the supervised executor, so this
//! is where compression pays and where a service change must not show.
//! The loop is the benchmark's own copy of `solvers::pcg` over
//! `ParSpMv::par_spmv` and `vecops`, because `solvers::pcg` takes only a
//! serial kernel; `solvers::pcg` on serial CSR is the reference it must
//! match bit for bit.

use std::sync::Arc;
use std::time::Instant;

use spmv_core::{Csr, SpMv};
use spmv_parallel::ParSpMm;
use spmv_repro::solvers::{diag_of, pcg};
use spmv_repro::vecops::{axpy, dot, norm2, xpby};

use crate::exec::{self, mix, seeded_vec, Encoded, Matrix};
use crate::metrics::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{Ctx, RunCfg};

/// Relative residual every solve must reach.
pub const TOL: f64 = 1e-8;
/// Iteration budget; the stencil converges in a few dozen.
const MAX_ITERS: usize = 1000;
/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Off-diagonal coupling magnitudes and diagonal values: a fixed palette,
/// so the values have ttu far above 5 and every seed gets the same
/// conditioning. Each diagonal exceeds six times the largest coupling,
/// so the matrix is strictly diagonally dominant and SPD.
const COUPLING: [f64; 8] = [0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0, 1.125];
const DIAGONAL: [f64; 3] = [7.5, 8.5, 10.0];

/// Bytes one SpMV touches on a `g³` stencil: CSR arrays plus `x` and `y`.
fn working_set_bytes(g: usize) -> u64 {
    let n = (g * g * g) as u64;
    let nnz = 7 * n - 6 * (g * g) as u64;
    12 * nnz + 4 * (n + 1) + 16 * n
}

/// Largest grid side: a working set of about 830 MB, which keeps a run
/// within its time budget on hosts whose LLC would ask for more (the run
/// then records a working set below four LLCs).
const MAX_GRID: usize = 200;

/// Smallest grid whose working set is at least four times `llc`.
pub fn grid_for(llc: u64) -> usize {
    (8..=MAX_GRID).find(|&g| working_set_bytes(g) >= 4 * llc).unwrap_or(MAX_GRID)
}

/// The seeded SPD stencil on a `g³` grid. Couplings hash the unordered
/// vertex pair, so the matrix is symmetric.
pub fn stencil(g: usize, seed: u64) -> Csr<u32, f64> {
    let n = g * g * g;
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_ind = Vec::with_capacity(7 * n);
    let mut values = Vec::with_capacity(7 * n);
    let coupling = |a: usize, b: usize| {
        let key = ((a.min(b) as u64) << 32) | a.max(b) as u64;
        -COUPLING[(mix(seed ^ mix(key)) % COUPLING.len() as u64) as usize]
    };
    row_ptr.push(0u32);
    for z in 0..g {
        for y in 0..g {
            for x in 0..g {
                let r = (z * g + y) * g + x;
                let mut push = |c: usize, v: f64| {
                    col_ind.push(c as u32);
                    values.push(v);
                };
                if z > 0 {
                    push(r - g * g, coupling(r, r - g * g));
                }
                if y > 0 {
                    push(r - g, coupling(r, r - g));
                }
                if x > 0 {
                    push(r - 1, coupling(r, r - 1));
                }
                let d = mix(seed ^ mix(!(r as u64))) % DIAGONAL.len() as u64;
                push(r, DIAGONAL[d as usize]);
                if x + 1 < g {
                    push(r + 1, coupling(r, r + 1));
                }
                if y + 1 < g {
                    push(r + g, coupling(r, r + g));
                }
                if z + 1 < g {
                    push(r + g * g, coupling(r, r + g * g));
                }
                row_ptr.push(col_ind.len() as u32);
            }
        }
    }
    Csr::from_raw_parts(n, n, row_ptr, col_ind, values).expect("the stencil is a valid CSR")
}

/// One solve's result.
pub struct Solve {
    pub x: Vec<f64>,
    pub iters: usize,
    pub converged: bool,
}

/// Jacobi-PCG, step for step `solvers::pcg`, with the product on `par`.
pub fn par_pcg(par: &mut dyn ParSpMm<f64>, diag: &[f64], b: &[f64], tr: &Tracer) -> Solve {
    tr.span("bench.pcg", 0, 0, |root| {
        let n = b.len();
        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let mut z: Vec<f64> = r.iter().zip(diag).map(|(&ri, &di)| ri / di).collect();
        let mut p = z.clone();
        let mut ap = vec![0.0; n];
        let mut rz = dot(&r, &z);
        let b_norm = norm2(b).max(1e-300);
        for iter in 0..MAX_ITERS {
            if norm2(&r) / b_norm < TOL {
                return Solve { x, iters: iter, converged: true };
            }
            tr.span("par.spmv", root, 0, |_| par.par_spmv(&p, &mut ap));
            let p_ap = dot(&p, &ap);
            if p_ap == 0.0 {
                break;
            }
            let alpha = rz / p_ap;
            axpy(alpha, &p, &mut x);
            axpy(-alpha, &ap, &mut r);
            for (zi, (&ri, &di)) in z.iter_mut().zip(r.iter().zip(diag)) {
                *zi = ri / di;
            }
            let rz_new = dot(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            xpby(&z, beta, &mut p);
        }
        let converged = norm2(&r) / b_norm < TOL;
        Solve { x, iters: MAX_ITERS, converged }
    })
}

/// Solves until `seconds` have passed (at least once); returns the
/// seconds of each solve and the first solve, checking that every later
/// solve repeats it bit for bit.
fn solve_for(
    seconds: f64,
    par: &mut dyn ParSpMm<f64>,
    diag: &[f64],
    b: &[f64],
    tr: &Tracer,
    first: &mut Option<Solve>,
    out: &mut Outcome,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let s = par_pcg(par, diag, b, tr);
        times.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match first {
            None => *first = Some(s),
            Some(f) if f.iters == s.iters && exec::same_bits(&f.x, &s.x) => {}
            Some(_) => out.fail("solve: a repeated solve did not reproduce the first bit for bit"),
        }
    }
    times
}

pub fn run(cfg: &RunCfg, ctx: &Ctx, tr: &Tracer, out: &mut Outcome) {
    let g = if cfg.tiny { 12 } else { grid_for(ctx.llc_bytes) };
    let csr: Matrix = Arc::new(stencil(g, cfg.seed));
    let b = seeded_vec(csr.nrows(), cfg.seed ^ 0xb);
    let ws = working_set_bytes(g);
    out.context.push((
        "solve.grid".into(),
        format!(
            "{g}^3, {} rows, {} nnz, working set {ws} bytes = {:.2} LLCs",
            csr.nrows(),
            csr.nnz(),
            ws as f64 / ctx.llc_bytes as f64
        ),
    ));
    out.set("ctx.matrix_mb", csr.size_bytes() as f64 / 1e6);
    out.set("ctx.ws_over_llc", ws as f64 / ctx.llc_bytes as f64);

    // Set-up, several times over: plan (fingerprint + candidate encodes),
    // encode the chosen format, extract the preconditioner, build the
    // executor and spawn its pool with a first product. The first set-up
    // is kept; RSS is read right after it, before the repeats can leave
    // freed memory behind.
    let setup = || {
        let t0 = Instant::now();
        let planner = exec::planner(ctx.nproc);
        let plan = tr
            .span("planner.plan", 0, 0, |_| planner.plan_csr(&csr))
            .expect("the stencil is plannable");
        let plan_s = t0.elapsed().as_secs_f64();
        let enc = tr.span("core.encode", 0, 0, |_| Encoded::encode(&csr, plan.format));
        (planner, plan, enc, diag_of(&csr), plan_s)
    };
    let mut scratch = vec![0.0; csr.nrows()];
    let t0 = Instant::now();
    let (planner, plan, enc, diag, p0) = setup();
    let mut par = enc.par(ctx.nproc);
    par.par_spmv(&b, &mut scratch);
    let (mut setup_s, mut plan_s) = (vec![t0.elapsed().as_secs_f64()], vec![p0]);
    out.set("rss_mb", crate::host::rss_mb());
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        let (_, _, e, _, p) = setup();
        e.par(ctx.nproc).par_spmv(&b, &mut scratch);
        setup_s.push(t0.elapsed().as_secs_f64());
        plan_s.push(p);
    }
    out.set("setup_s", median(&setup_s));
    out.context.push((
        "solve.plan".into(),
        format!("{} at {} threads, {} chunks", plan.format, plan.threads, plan.chunks),
    ));
    for _ in 0..3 {
        par.par_spmv(&b, &mut scratch);
    }
    let off = Tracer::new(false);
    let mut first = None;
    let phase = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let times = solve_for(phase, &mut *par, &diag, &b, &off, &mut first, out);
    let solve_s = median(&times);
    out.set("op_ms", solve_s * 1e3);
    out.set("op_tail_ms", tail(&times) * 1e3);
    out.set("ops_per_s", times.len() as f64 / times.iter().sum::<f64>());
    if cfg.trace {
        let traced = solve_for(phase, &mut *par, &diag, &b, tr, &mut first, out);
        out.set("trace.overhead_frac", median(&traced) / solve_s - 1.0);
    }
    drop(par);

    // Correctness, outside the timed region: the true residual through
    // serial CSR, and bit-identity with the repository's serial solver.
    let first = first.expect("at least one solve ran");
    let mut ax = vec![0.0; csr.nrows()];
    csr.spmv(&first.x, &mut ax);
    let res: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
    let rel = norm2(&res) / norm2(&b);
    if !first.converged || rel.is_nan() || rel > TOL {
        out.fail(format!(
            "solve: relative residual {rel:e} after {} iterations exceeds {TOL:e}",
            first.iters
        ));
    }
    let reference = pcg(&*csr as &dyn SpMv<f64>, &diag, &b, TOL, MAX_ITERS);
    if reference.iterations != first.iters || !exec::same_bits(&reference.x, &first.x) {
        out.fail(format!(
            "solve: {} path took {} iterations, serial CSR {}, or the solutions differ",
            plan.format, first.iters, reference.iterations
        ));
    }
    out.summary.push(("solve_s", solve_s, "s"));
    out.summary.push(("solve.iters", first.iters as f64, "count"));
    out.set("solve.iters", first.iters as f64);
    out.set("pagerank.dense_iters", 0.0);
    out.set("pagerank.sparse_iters", 0.0);

    if cfg.trace {
        let probe = exec::probe_matrix(&csr, &plan, ctx.nproc, &[], tr);
        out.set("solve.spmv_share", first.iters as f64 * probe.par_s / solve_s);
        let st = planner.stats();
        out.set("planner.plan_s", median(&plan_s));
        out.set("planner.encodes", st.encodes as f64);
        out.set("planner.hits", st.hits as f64);
        out.set("planner.misses", st.misses as f64);
        drop(enc);
        let source = (mix(cfg.seed ^ 0x5) % csr.nrows() as u64) as usize;
        out.set("spmspv.level_s", median(&exec::bfs_level_times(&csr, ctx.nproc, source, 16, tr)));
        crate::ladder(&[csr], vec![probe], 3, ctx, tr, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_is_symmetric_and_diagonally_dominant() {
        let a = stencil(5, 3);
        let t = a.transpose().expect("square");
        assert!(exec::same_bits(a.values(), t.values()) && a.col_ind() == t.col_ind());
        for r in 0..a.nrows() {
            let (mut diag, mut off) = (0.0, 0.0);
            for (c, v) in a.row_iter(r) {
                if c == r {
                    diag = v;
                } else {
                    off += f64::abs(v);
                }
            }
            assert!(diag > off, "row {r}");
        }
    }

    #[test]
    fn grid_covers_four_llcs() {
        let llc = 105 << 20;
        let g = grid_for(llc);
        assert!(working_set_bytes(g) >= 4 * llc && working_set_bytes(g - 1) < 4 * llc);
        assert_eq!(grid_for(u64::MAX / 8), MAX_GRID);
    }
}

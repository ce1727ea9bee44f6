//! `graph`: BFS from seeded sources plus PageRank (default
//! `PageRankOpts`, `PathMode::Auto`) on a seeded ~1M-vertex power-law
//! graph of average degree 8, at `nproc` threads.
//!
//! The same kernels and `WorkerPool` run differently here: sparse inputs,
//! scatter writes, and uneven dispatches that switch between bucketed
//! SpMSpV and dense `ParCsr` by frontier density. The service is not
//! touched. The loops drive `ParSpMSpV`/`ParCsr` directly, step for step
//! `spmv_bench::graph::{bfs, pagerank}`, because those build their CSC
//! inside the call; here the CSC builds are set-up.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use spmv_bench::graph::{pagerank, scaled_adjacency, PageRankOpts, PathMode};
use spmv_core::{Csc, Csr, SparseVec};
use spmv_matgen::frontier::bfs_source;
use spmv_matgen::gen::power_law;
use spmv_parallel::{ParCsr, ParSpMSpV, ParSpMv};

use crate::exec::{self, tag, Matrix};
use crate::metrics::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{Ctx, RunCfg};

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// BFS sources per run; each reaches at least half the graph.
const SOURCES: usize = 4;

/// Levels per vertex (`-1` unreached) from a plain serial queue BFS over
/// the CSC structure: column `c` active reaches every row stored in it,
/// the `y = A·x` direction the SpMSpV traversal follows.
pub fn reference_levels(csc: &Csc<u32, f64>, source: usize) -> Vec<i64> {
    let mut levels = vec![-1i64; csc.ncols()];
    levels[source] = 0;
    let mut queue = VecDeque::from([source]);
    let (ptr, rows) = (csc.col_ptr(), csc.row_ind());
    while let Some(c) = queue.pop_front() {
        for &r in &rows[ptr[c] as usize..ptr[c + 1] as usize] {
            if levels[r as usize] < 0 {
                levels[r as usize] = levels[c] + 1;
                queue.push_back(r as usize);
            }
        }
    }
    levels
}

/// Executors over the set-up's matrices.
struct Execs<'a> {
    bfs: ParSpMSpV<'a>,
    pr_sparse: ParSpMSpV<'a>,
    pr_dense: ParCsr<'a>,
}

/// The set-up's matrices: the CSC for BFS and the column-stochastic
/// twins PageRank runs on.
struct Data {
    csc: Csc<u32, f64>,
    scsr: Csr<u32, f64>,
    scsc: Csc<u32, f64>,
}

impl Data {
    fn build(csr: &Csr<u32, f64>, tr: &Tracer) -> Data {
        let csc = tr.span("core.csc", 0, 0, |_| Csc::from_csr(csr)).expect("valid CSR");
        let (scsr, scsc) =
            tr.span("core.scale", 0, 0, |_| scaled_adjacency(csr)).expect("square graph");
        Data { csc, scsr, scsc }
    }

    /// Builds the executors and spawns their pools with a first call.
    fn execs(&self, nproc: usize, source: usize) -> Execs<'_> {
        let n = self.csc.ncols();
        let mut e = Execs {
            bfs: ParSpMSpV::new(&self.csc, nproc),
            pr_sparse: ParSpMSpV::new(&self.scsc, nproc),
            pr_dense: ParCsr::new(&self.scsr, nproc),
        };
        let single = SparseVec::single(n, source, 1.0).expect("source in range");
        e.bfs.spmspv(&single).expect("dimensions match");
        e.pr_sparse.spmspv(&single).expect("dimensions match");
        let mut y = vec![0.0; n];
        e.pr_dense.par_spmv(&single.densify(), &mut y);
        e
    }
}

/// BFS levels through the bucketed SpMSpV executor, as
/// `spmv_bench::graph::bfs` in `PathMode::Auto`. Pushes each level's
/// expansion time onto `level_s`.
fn bfs(
    e: &mut ParSpMSpV<'_>,
    n: usize,
    source: usize,
    tr: &Tracer,
    level_s: &mut Vec<f64>,
) -> Vec<i64> {
    tr.span("bench.bfs", 0, 0, |root| {
        let mut levels = vec![-1i64; n];
        levels[source] = 0;
        let mut front = SparseVec::single(n, source, 1.0).expect("source in range");
        for level in 1..=n as i64 {
            let t0 = Instant::now();
            let y =
                tr.span("spmspv.level", root, 0, |_| e.spmspv(&front)).expect("dimensions match");
            level_s.push(t0.elapsed().as_secs_f64());
            let next: Vec<u32> =
                y.indices().iter().copied().filter(|&i| levels[i as usize] < 0).collect();
            if next.is_empty() {
                break;
            }
            for &i in &next {
                levels[i as usize] = level;
            }
            let vals = vec![1.0; next.len()];
            front = SparseVec::new(n, next, vals).expect("indices are sorted and unique");
        }
        levels
    })
}

/// Convergence-masked PageRank, as `spmv_bench::graph::pagerank` in
/// `PathMode::Auto`: the dense `ParCsr` path at or above the crossover
/// density, bucketed SpMSpV below. Returns the ranks and the iterations
/// on each path.
fn pagerank_loop(
    e: &mut Execs<'_>,
    n: usize,
    opts: &PageRankOpts,
    tr: &Tracer,
) -> (Vec<f64>, usize, usize) {
    tr.span("bench.pagerank", 0, 0, |root| {
        let base = (1.0 - opts.damping) / n.max(1) as f64;
        let mut yd = vec![0.0; n];
        let mut ranks = vec![base; n];
        let mut delta =
            SparseVec::new(n, (0..n as u32).collect(), vec![base; n]).expect("full support");
        let (mut dense_iters, mut sparse_iters) = (0, 0);
        for _ in 0..opts.max_iters {
            if delta.is_empty() {
                break;
            }
            let mut next_ind = Vec::new();
            let mut next_val = Vec::new();
            let mut fold = |i: u32, y: f64, ranks: &mut [f64]| {
                let v = opts.damping * y;
                if v != 0.0 {
                    ranks[i as usize] += v;
                    if v.abs() > opts.eps {
                        next_ind.push(i);
                        next_val.push(v);
                    }
                }
            };
            if delta.density() >= opts.crossover {
                dense_iters += 1;
                let xd = delta.densify();
                tr.span("par.spmv", root, 0, |_| e.pr_dense.par_spmv(&xd, &mut yd));
                for (i, &y) in yd.iter().enumerate() {
                    fold(i as u32, y, &mut ranks);
                }
            } else {
                sparse_iters += 1;
                let y = tr
                    .span("spmspv.pagerank", root, 0, |_| e.pr_sparse.spmspv(&delta))
                    .expect("dims");
                for (&i, &y) in y.indices().iter().zip(y.values()) {
                    fold(i, y, &mut ranks);
                }
            }
            delta = SparseVec::new(n, next_ind, next_val).expect("indices are sorted and unique");
        }
        (ranks, dense_iters, sparse_iters)
    })
}

/// Times of one phase of rounds.
#[derive(Default)]
struct Rounds {
    round_s: Vec<f64>,
    bfs_s: Vec<f64>,
    pagerank_s: Vec<f64>,
    level_s: Vec<f64>,
    iters: (usize, usize),
}

/// Rounds of (BFS from every source, PageRank) until `seconds` have
/// passed; every result is checked against its reference outside the
/// time it is charged.
#[allow(clippy::too_many_arguments)]
fn rounds(
    seconds: f64,
    e: &mut Execs<'_>,
    n: usize,
    sources: &[(usize, Vec<i64>)],
    ranks_ref: &[f64],
    opts: &PageRankOpts,
    tr: &Tracer,
    out: &mut Outcome,
) -> Rounds {
    let mut r = Rounds::default();
    let start = Instant::now();
    while r.round_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut round = 0.0;
        for (source, want) in sources {
            let t0 = Instant::now();
            let levels = bfs(&mut e.bfs, n, *source, tr, &mut r.level_s);
            let t = t0.elapsed().as_secs_f64();
            r.bfs_s.push(t);
            round += t;
            out.attempted += 1;
            if &levels != want {
                out.fail(format!(
                    "graph: BFS levels from {source} differ from the serial reference"
                ));
            }
        }
        let t0 = Instant::now();
        let (ranks, dense, sparse) = pagerank_loop(e, n, opts, tr);
        let t = t0.elapsed().as_secs_f64();
        r.pagerank_s.push(t);
        r.round_s.push(round + t);
        r.iters = (dense, sparse);
        out.attempted += 1;
        if !exec::same_bits(&ranks, ranks_ref) {
            out.fail("graph: PageRank ranks differ from the t = 1 reference");
        }
    }
    r
}

pub fn run(cfg: &RunCfg, ctx: &Ctx, tr: &Tracer, out: &mut Outcome) {
    let n = if cfg.tiny { 4096 } else { 1 << 20 };
    let csr: Matrix = Arc::new(power_law(n, 8, cfg.seed).to_csr());
    out.set("ctx.matrix_mb", csr.size_bytes() as f64 / 1e6);
    out.set("ctx.ws_over_llc", (csr.size_bytes() + 16 * n) as f64 / ctx.llc_bytes as f64);
    out.context.push(("graph.size".into(), format!("{n} vertices, {} edges", csr.nnz())));

    // Seeded sources that reach at least half the graph, with their
    // serial reference levels, and the t = 1 PageRank reference.
    let opts = PageRankOpts::default();
    let mut sources = Vec::new();
    {
        let csc = Csc::from_csr(&*csr).expect("valid CSR");
        for k in 0..1000u64 {
            let s = bfs_source(n, cfg.seed.wrapping_mul(1000).wrapping_add(k));
            let levels = reference_levels(&csc, s);
            if levels.iter().filter(|&&l| l >= 0).count() * 2 >= n {
                sources.push((s, levels));
                if sources.len() == SOURCES {
                    break;
                }
            }
        }
    }
    if sources.is_empty() {
        out.fail("graph: no seeded source reaches half the graph");
        return;
    }
    let reference = pagerank(&csr, 1, PathMode::Auto, &opts).expect("square graph");

    // Set-up, several times over: CSC builds, the column-stochastic
    // twins, executors and their pools. The first is kept; RSS is read
    // right after it.
    let t0 = Instant::now();
    let data = Data::build(&csr, tr);
    let mut e = data.execs(ctx.nproc, sources[0].0);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    out.set("rss_mb", crate::host::rss_mb());
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        let d = Data::build(&csr, tr);
        drop(d.execs(ctx.nproc, sources[0].0));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup_s));

    let off = Tracer::new(false);
    rounds(0.0, &mut e, n, &sources, &reference.ranks, &opts, &off, out);
    let phase = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let a = rounds(phase, &mut e, n, &sources, &reference.ranks, &opts, &off, out);
    let op = median(&a.round_s);
    out.set("op_ms", op * 1e3);
    out.set("op_tail_ms", tail(&a.round_s) * 1e3);
    out.set("ops_per_s", a.round_s.len() as f64 / a.round_s.iter().sum::<f64>());
    out.summary.push(("bfs_s", median(&a.bfs_s), "s"));
    out.summary.push(("pagerank_s", median(&a.pagerank_s), "s"));
    out.summary.push(("graph.rounds", a.round_s.len() as f64, "count"));
    out.set("spmspv.level_s", median(&a.level_s));
    out.set("pagerank.dense_iters", a.iters.0 as f64);
    out.set("pagerank.sparse_iters", a.iters.1 as f64);
    out.set("solve.iters", 0.0);
    out.set("solve.spmv_share", 0.0);

    if cfg.trace {
        let traced = rounds(phase, &mut e, n, &sources, &reference.ranks, &opts, tr, out);
        out.set("trace.overhead_frac", median(&traced.round_s) / op - 1.0);
        drop(e);
        drop(data);
        let planner = exec::planner(ctx.nproc);
        let t0 = Instant::now();
        let plan = tr.span("planner.plan", 0, 0, |_| planner.plan_csr(&csr)).expect("plannable");
        out.set("planner.plan_s", t0.elapsed().as_secs_f64());
        let st = planner.stats();
        out.set("planner.encodes", st.encodes as f64);
        out.set("planner.hits", st.hits as f64);
        out.set("planner.misses", st.misses as f64);
        out.context.push(("graph.format".into(), tag(plan.format).into()));
        let probe = exec::probe_matrix(&csr, &plan, ctx.nproc, &[1], tr);
        crate::ladder(&[csr], vec![probe], 10, ctx, tr, out);
    }
}

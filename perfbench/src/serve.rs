//! `serve`: a closed loop of `nproc` clients, each waiting for its reply
//! before sending the next request, against one `SpmvService`
//! (`threads = nproc`, one shard) holding four ~100k-row matrices from
//! different generator families, registered through `register_csr` so
//! the planner picks their formats. Two value models sit below ttu = 5
//! and two far above it. Requests go round-robin over the matrices, one
//! tenant per client, under a deadline no healthy request comes near.
//!
//! Here admit → queue → coalesce → supervised execute → scatter → reply,
//! and the vector copies around them, take most of each request while
//! the kernel is a minority; `solve` is the workload that bypasses all
//! of it.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use spmv_core::{Coo, Csr, SpMv};
use spmv_matgen::gen::{banded, power_law, random_uniform, stencil_3d};
use spmv_matgen::ValueModel;
use spmv_service::{Request, ServiceBuilder, SpmvService};

use crate::exec::{self, seeded_vec, tag, Matrix, Served};
use crate::metrics::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{Ctx, RunCfg};

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Input vectors per matrix, each with a serial-CSR reference product.
const X_PER_MATRIX: usize = 4;

/// The four matrices at about `n` rows each: (name, matrix).
pub fn matrices(n: usize, seed: u64) -> Vec<(&'static str, Csr<u32, f64>)> {
    let g = (n as f64).cbrt().round() as usize;
    let specs: [(&'static str, Coo<f64>, ValueModel); 4] = [
        ("stencil", stencil_3d(g), ValueModel::Quantized { levels: 8 }),
        ("banded", banded(n, 4, 1.0, seed), ValueModel::Random { lo: -1.0, hi: 1.0 }),
        ("powerlaw", power_law(n, 8, seed ^ 1), ValueModel::Mixed { period: 3 }),
        ("random", random_uniform(n, 8, seed ^ 2), ValueModel::Quantized { levels: 64 }),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (name, coo, model))| {
            let mut csr = coo.to_csr();
            let vals = model.assign(csr.nnz(), seed ^ (0x100 + i as u64));
            csr.values_mut().copy_from_slice(&vals);
            (name, csr)
        })
        .collect()
}

/// Client-side view of one closed-loop phase.
#[derive(Default)]
struct Phase {
    served: Vec<Served>,
    /// Summed over clients: completed requests / seconds spent waiting.
    rate: f64,
}

/// Inputs and their serial-CSR products, per matrix.
struct Inputs {
    xs: Vec<Vec<Vec<f64>>>,
    want: Vec<Vec<Vec<f64>>>,
}

/// `nproc` clients submit round-robin until `seconds` have passed; every
/// reply is compared bit for bit with serial CSR after its clock stops.
fn closed_loop(
    svc: &SpmvService,
    inputs: &Inputs,
    nproc: usize,
    seconds: f64,
    tr: &Tracer,
    out: &mut Outcome,
) -> Phase {
    let nm = inputs.xs.len();
    let start = Instant::now();
    let per_client: Vec<(Vec<Served>, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc)
            .map(|c| {
                s.spawn(move || {
                    let tenant = format!("client-{c}");
                    let (mut served, mut out) = (Vec::new(), Outcome::default());
                    let mut i = c;
                    while served.is_empty() || start.elapsed().as_secs_f64() < seconds {
                        let (m, xi) = (i % nm, (i / nm) % X_PER_MATRIX);
                        let req_id = ((c as u64) << 40) | (i as u64 + 1);
                        i += 1;
                        out.attempted += 1;
                        let (res, rtt_s) = tr.span("bench.request", 0, req_id, |root| {
                            let x = tr
                                .span("bench.prepare", root, req_id, |_| inputs.xs[m][xi].clone());
                            let req = Request {
                                matrix: format!("m{m}"),
                                tenant: tenant.clone(),
                                x,
                                deadline: None,
                            };
                            let t0 = Instant::now();
                            let res = tr.span("service.submit", root, req_id, |_| svc.submit(req));
                            (res, t0.elapsed().as_secs_f64())
                        });
                        match res {
                            Ok(r) => {
                                if exec::check_reply(
                                    &mut out,
                                    &format!("serve m{m}"),
                                    &r.y,
                                    &inputs.want[m][xi],
                                ) {
                                    served.push(Served {
                                        matrix: m,
                                        rtt_s,
                                        queue_wait_s: r.queue_wait.as_secs_f64(),
                                        batch_k: r.batch_k,
                                    });
                                }
                            }
                            Err(e) => out.fail(format!("serve: m{m} failed: {e}")),
                        }
                        if served.is_empty() && out.failed > 100 {
                            break;
                        }
                    }
                    (served, out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut phase = Phase::default();
    for (served, client) in per_client {
        let busy: f64 = served.iter().map(|s| s.rtt_s).sum();
        if busy > 0.0 {
            phase.rate += served.len() as f64 / busy;
        }
        phase.served.extend(served);
        out.merge(client);
    }
    phase
}

pub fn run(cfg: &RunCfg, ctx: &Ctx, tr: &Tracer, out: &mut Outcome) {
    let n = if cfg.tiny { 2_000 } else { 100_000 };
    let (names, mats): (Vec<&str>, Vec<Matrix>) =
        matrices(n, cfg.seed).into_iter().map(|(name, m)| (name, Arc::new(m))).unzip();
    let mut inputs = Inputs { xs: Vec::new(), want: Vec::new() };
    for (i, m) in mats.iter().enumerate() {
        let xs: Vec<Vec<f64>> = (0..X_PER_MATRIX)
            .map(|j| seeded_vec(m.ncols(), cfg.seed ^ ((i * 16 + j) as u64 + 0x77)))
            .collect();
        let want = xs
            .iter()
            .map(|x| {
                let mut y = vec![0.0; m.nrows()];
                m.spmv(x, &mut y);
                y
            })
            .collect();
        inputs.xs.push(xs);
        inputs.want.push(want);
    }
    let csr_bytes: usize = mats.iter().map(|m| m.size_bytes()).sum();
    let ws: usize = mats.iter().map(|m| m.size_bytes() + 8 * (m.nrows() + m.ncols())).sum();
    out.set("ctx.matrix_mb", csr_bytes as f64 / 1e6);
    out.set("ctx.ws_over_llc", ws as f64 / ctx.llc_bytes as f64);

    // Set-up, several times over: plan + encode + register each matrix,
    // start the service, and send one request per matrix so every
    // executor and worker pool exists before the first timed request.
    // The first is kept; RSS is read right after it.
    let mut setup_s = Vec::new();
    let mut register_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUPS {
        let t0 = Instant::now();
        let mut b = ServiceBuilder::new(exec::service_config(ctx.nproc));
        let mut plans = Vec::new();
        for (i, m) in mats.iter().enumerate() {
            let (nb, plan) = tr
                .span("service.register", 0, 0, |_| b.register_csr(format!("m{i}"), Arc::clone(m)))
                .expect("every generated matrix plans and registers");
            b = nb;
            plans.push(plan);
        }
        register_s.push(t0.elapsed().as_secs_f64());
        let svc = b.start();
        for (i, x) in inputs.xs.iter().enumerate() {
            let req = Request {
                matrix: format!("m{i}"),
                tenant: "warmup".into(),
                x: x[0].clone(),
                deadline: None,
            };
            out.attempted += 1;
            match svc.submit(req) {
                Ok(r) => {
                    exec::check_reply(
                        out,
                        &format!("serve warm-up m{i}"),
                        &r.y,
                        &inputs.want[i][0],
                    );
                }
                Err(e) => out.fail(format!("serve: warm-up request for m{i} failed: {e}")),
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            kept = Some((svc, plans));
            out.set("rss_mb", crate::host::rss_mb());
        } else {
            svc.shutdown();
        }
    }
    let (svc, plans) = kept.expect("at least one set-up ran");
    out.set("setup_s", median(&setup_s));
    for (((name, m), plan), i) in names.iter().zip(&mats).zip(&plans).zip(0..) {
        out.context.push((
            format!("serve.m{i}"),
            format!(
                "{name}: {} rows, {} nnz, {:.3} LLCs of CSR, {} at {} threads",
                m.nrows(),
                m.nnz(),
                m.size_bytes() as f64 / ctx.llc_bytes as f64,
                tag(plan.format),
                plan.threads
            ),
        ));
    }
    let off = Tracer::new(false);
    closed_loop(&svc, &inputs, ctx.nproc, 0.2, &off, out);

    let phase = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let a = closed_loop(&svc, &inputs, ctx.nproc, phase, &off, out);
    let rtt: Vec<f64> = a.served.iter().map(|s| s.rtt_s * 1e3).collect();
    let p50 = median(&rtt);
    out.set("op_ms", p50);
    out.set("op_tail_ms", tail(&rtt));
    out.set("ops_per_s", a.rate);
    out.summary.push(("serve_rps", a.rate, "1/s"));
    out.summary.push(("serve_p50_ms", p50, "ms"));
    out.summary.push(("serve_p99_ms", tail(&rtt), "ms"));
    out.summary.push(("serve.requests", rtt.len() as f64, "count"));
    out.set("solve.iters", 0.0);
    out.set("solve.spmv_share", 0.0);
    out.set("pagerank.dense_iters", 0.0);
    out.set("pagerank.sparse_iters", 0.0);

    if cfg.trace {
        let traced = closed_loop(&svc, &inputs, ctx.nproc, phase, tr, out);
        let rtt: Vec<f64> = traced.served.iter().map(|s| s.rtt_s * 1e3).collect();
        out.set("trace.overhead_frac", median(&rtt) / p50 - 1.0);
        let served: Vec<Served> = a.served.into_iter().chain(traced.served).collect();
        let ks: BTreeSet<usize> = served.iter().map(|s| s.batch_k).collect();
        let ks: Vec<usize> = ks.into_iter().collect();
        let probes: Vec<_> = mats
            .iter()
            .zip(&plans)
            .map(|(m, plan)| exec::probe_matrix(m, plan, ctx.nproc, &ks, tr))
            .collect();
        let sup: Vec<_> = probes.iter().map(|p| p.sup_spmm_s.clone()).collect();
        let planner = exec::planner(ctx.nproc);
        let t0 = Instant::now();
        for m in &mats {
            tr.span("planner.plan", 0, 0, |_| planner.plan_csr(m)).expect("plannable");
        }
        out.set("planner.plan_s", t0.elapsed().as_secs_f64());
        let st = svc.planner_stats();
        out.set("planner.encodes", st.encodes as f64);
        out.set("planner.hits", st.hits as f64);
        out.set("planner.misses", st.misses as f64);
        let levels: Vec<f64> = mats
            .iter()
            .enumerate()
            .flat_map(|(i, m)| {
                let source = (exec::mix(cfg.seed ^ i as u64) % m.nrows() as u64) as usize;
                exec::bfs_level_times(m, ctx.nproc, source, 16, tr)
            })
            .collect();
        out.set("spmspv.level_s", median(&levels));
        crate::ladder(&mats, probes, 20, ctx, tr, out);
        // The closed loop, not the one-client ladder, is what serve's
        // service figures describe.
        out.set("service.register_s", median(&register_s));
        exec::service_metrics(&served, &sup, &svc, out);
    }
    svc.shutdown();
}

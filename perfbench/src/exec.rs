//! The four paper formats behind one handle, and the per-layer probes
//! the traced run takes on a workload's matrices: serial kernel → `Par*`
//! pool → `SupervisedSpMv` → `SpmvService::submit`, each timed from
//! outside.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Csc, Csr, DenseBlock, DenseBlockMut, FormatKind, SpMm, SpMv, SparseVec};
use spmv_memsim::{Plan, Planner, PlannerConfig};
use spmv_parallel::{
    ChunkKernel, CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks, ParCsr, ParCsrDu, ParCsrDuVi,
    ParCsrVi, ParSpMSpV, ParSpMm, SupervisedSpMv, WorkerPool,
};
use spmv_service::{Request, ServiceConfig, SpmvService, TenantLimits};

use crate::stats::median;
use crate::trace::Tracer;

pub(crate) type Matrix = Arc<Csr<u32, f64>>;

/// The formats the planner chooses among, in report order.
pub(crate) const FORMATS: [FormatKind; 4] =
    [FormatKind::Csr, FormatKind::CsrDu, FormatKind::CsrVi, FormatKind::CsrDuVi];

/// Metric-name suffix of a format.
pub(crate) fn tag(kind: FormatKind) -> &'static str {
    match kind {
        FormatKind::Csr => "csr",
        FormatKind::CsrDu => "csr_du",
        FormatKind::CsrVi => "csr_vi",
        FormatKind::CsrDuVi => "csr_duvi",
        _ => "other",
    }
}

/// A matrix encoded in one of [`FORMATS`].
pub(crate) enum Encoded {
    Csr(Matrix),
    Du(Arc<CsrDu<f64>>),
    Vi(Arc<CsrVi<u32, f64>>),
    DuVi(Arc<CsrDuVi<f64>>),
}

impl Encoded {
    /// Encodes `m` as `kind`; `kind` must be one of [`FORMATS`].
    pub fn encode(m: &Matrix, kind: FormatKind) -> Encoded {
        match kind {
            FormatKind::Csr => Encoded::Csr(Arc::clone(m)),
            FormatKind::CsrDu => Encoded::Du(Arc::new(CsrDu::from_csr(m, &DuOptions::default()))),
            FormatKind::CsrVi => Encoded::Vi(Arc::new(CsrVi::from_csr(m))),
            FormatKind::CsrDuVi => {
                Encoded::DuVi(Arc::new(CsrDuVi::from_csr(m, &DuOptions::default())))
            }
            other => panic!("the planner never chooses {other}"),
        }
    }

    fn serial(&self) -> &dyn SpMv<f64> {
        match self {
            Encoded::Csr(m) => &**m,
            Encoded::Du(m) => &**m,
            Encoded::Vi(m) => &**m,
            Encoded::DuVi(m) => &**m,
        }
    }

    pub fn size_bytes(&self) -> usize {
        self.serial().size_bytes()
    }

    /// Serial `y = A·x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.serial().spmv(x, y);
    }

    /// Serial row-major panel product `Y = A·X` with `k` columns.
    pub fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        let s = self.serial();
        let xb = DenseBlock::new(s.ncols(), k, x);
        let yb = DenseBlockMut::new(s.nrows(), k, y);
        match self {
            Encoded::Csr(m) => SpMm::spmm(&**m, xb, yb),
            Encoded::Du(m) => SpMm::spmm(&**m, xb, yb),
            Encoded::Vi(m) => SpMm::spmm(&**m, xb, yb),
            Encoded::DuVi(m) => SpMm::spmm(&**m, xb, yb),
        }
    }

    /// The matching `Par*` executor at `nthreads`.
    pub fn par(&self, nthreads: usize) -> Box<dyn ParSpMm<f64> + '_> {
        match self {
            Encoded::Csr(m) => Box::new(ParCsr::new(&**m, nthreads)),
            Encoded::Du(m) => Box::new(ParCsrDu::new(&**m, nthreads)),
            Encoded::Vi(m) => Box::new(ParCsrVi::new(&**m, nthreads)),
            Encoded::DuVi(m) => Box::new(ParCsrDuVi::new(&**m, nthreads)),
        }
    }

    /// The matching chunk adapter, as the service builds it for a plan.
    pub fn chunks(&self, nchunks: usize) -> Arc<dyn ChunkKernel<f64>> {
        match self {
            Encoded::Csr(m) => Arc::new(CsrChunks::new(Arc::clone(m), nchunks)),
            Encoded::Du(m) => Arc::new(CsrDuChunks::new(Arc::clone(m), nchunks)),
            Encoded::Vi(m) => Arc::new(CsrViChunks::new(Arc::clone(m), nchunks)),
            Encoded::DuVi(m) => Arc::new(CsrDuViChunks::new(Arc::clone(m), nchunks)),
        }
    }
}

/// A planner whose thread candidates never exceed `nproc`.
pub(crate) fn planner(nproc: usize) -> Planner {
    let mut cfg = PlannerConfig::default();
    cfg.thread_candidates.retain(|&t| t <= nproc);
    if cfg.thread_candidates.is_empty() {
        cfg.thread_candidates.push(1);
    }
    Planner::new(cfg)
}

/// The service every workload uses: `nproc` executor threads, one shard,
/// a deadline no healthy request comes near.
pub(crate) fn service_config(nproc: usize) -> ServiceConfig {
    ServiceConfig {
        threads: nproc,
        shards: 1,
        default_deadline: Duration::from_secs(30),
        default_tenant_limits: TenantLimits::unlimited(),
        ..ServiceConfig::default()
    }
}

/// Calls `f` until it has run at least `min_reps` times and for at least
/// `min_s` seconds (capped at `max_reps` calls); returns seconds per call.
pub(crate) fn time_calls(
    min_reps: usize,
    max_reps: usize,
    min_s: f64,
    mut f: impl FnMut(),
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max_reps && (out.len() < min_reps || start.elapsed().as_secs_f64() < min_s) {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

/// A seeded vector with entries in `[-1, 1)`.
pub(crate) fn seeded_vec(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64).map(|i| unit(mix(seed ^ mix(i)))).collect()
}

/// SplitMix64 finaliser.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to `[-1, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Per-layer figures for one matrix.
pub(crate) struct Probe {
    pub nnz: usize,
    pub vec_bytes: usize,
    pub spmv_s: [f64; 4],
    pub bytes: [usize; 4],
    pub encode_s: [f64; 4],
    pub serial_s: f64,
    pub spmm_k2_s: f64,
    pub par_s: f64,
    /// Supervised panel time by panel width `k`.
    pub sup_spmm_s: BTreeMap<usize, f64>,
    pub predicted_s: f64,
}

/// Repetitions of a probe: enough calls for a stable median without
/// letting the large `solve` matrix dominate the traced run.
fn reps(nnz: usize) -> (usize, usize, f64) {
    if nnz > 4_000_000 {
        (3, 9, 0.3)
    } else {
        (5, 400, 0.15)
    }
}

/// Times every rung of the layer ladder on `m` under `plan`: each format
/// serial (and its encode), then the planned format's serial SpMM,
/// `Par*` executor and supervised executor at every panel width in `ks`.
pub(crate) fn probe_matrix(
    m: &Matrix,
    plan: &Plan,
    nproc: usize,
    ks: &[usize],
    tr: &Tracer,
) -> Probe {
    let (min_reps, max_reps, min_s) = reps(m.nnz());
    let x = seeded_vec(m.ncols(), 0x5eed_0001);
    let mut y = vec![0.0; m.nrows()];
    let mut p = Probe {
        nnz: m.nnz(),
        vec_bytes: 8 * (m.nrows() + m.ncols()),
        spmv_s: [0.0; 4],
        bytes: [0; 4],
        encode_s: [0.0; 4],
        serial_s: 0.0,
        spmm_k2_s: 0.0,
        par_s: 0.0,
        sup_spmm_s: BTreeMap::new(),
        predicted_s: plan.predicted_time_s,
    };
    for (i, &kind) in FORMATS.iter().enumerate() {
        let t0 = Instant::now();
        let enc = tr.span("core.encode", 0, 0, |_| Encoded::encode(m, kind));
        p.encode_s[i] = if kind == FormatKind::Csr { 0.0 } else { t0.elapsed().as_secs_f64() };
        p.bytes[i] = enc.size_bytes();
        enc.spmv(&x, &mut y);
        let t = time_calls(min_reps, max_reps, min_s, || {
            tr.span("core.spmv", 0, 0, |_| enc.spmv(&x, &mut y));
        });
        p.spmv_s[i] = median(&t);
        if kind == plan.format {
            p.serial_s = p.spmv_s[i];
        }
    }
    let enc = Encoded::encode(m, plan.format);
    let x2 = seeded_vec(2 * m.ncols(), 0x5eed_0002);
    let mut y2 = vec![0.0; 2 * m.nrows()];
    let t = time_calls(min_reps, max_reps, min_s, || {
        tr.span("core.spmm", 0, 0, |_| enc.spmm(&x2, 2, &mut y2));
    });
    p.spmm_k2_s = median(&t);
    {
        let mut par = enc.par(nproc);
        par.par_spmv(&x, &mut y);
        let t = time_calls(min_reps, max_reps, min_s, || {
            tr.span("par.spmv", 0, 0, |_| par.par_spmv(&x, &mut y));
        });
        p.par_s = median(&t);
    }
    let mut sup = SupervisedSpMv::new(enc.chunks(plan.chunks.max(1)), nproc);
    let mut ks: Vec<usize> = ks.iter().copied().chain([1, 2]).collect();
    ks.sort_unstable();
    ks.dedup();
    for k in ks {
        let xk = seeded_vec(k * m.ncols(), 0x5eed_0003);
        let mut yk = vec![0.0; k * m.nrows()];
        let _ = sup.spmm(&xk, k, &mut yk);
        let t = time_calls(min_reps, max_reps, min_s, || {
            tr.span("supervised.spmm", 0, 0, |_| {
                sup.spmm(&xk, k, &mut yk).expect("Degrade policy recovers every fault")
            });
        });
        p.sup_spmm_s.insert(k, median(&t));
    }
    p
}

/// Writes the per-layer metrics that [`Probe`]s over a workload's
/// matrices give, summing times over the matrices.
pub(crate) fn probe_metrics(probes: &[Probe], stream_gbs: f64, out: &mut crate::metrics::Outcome) {
    const SPMV: [&str; 4] =
        ["core.spmv_s.csr", "core.spmv_s.csr_du", "core.spmv_s.csr_vi", "core.spmv_s.csr_duvi"];
    const GBS: [&str; 4] =
        ["core.gbs.csr", "core.gbs.csr_du", "core.gbs.csr_vi", "core.gbs.csr_duvi"];
    const ROOF: [&str; 4] = [
        "core.roofline_frac.csr",
        "core.roofline_frac.csr_du",
        "core.roofline_frac.csr_vi",
        "core.roofline_frac.csr_duvi",
    ];
    const BPN: [&str; 4] = [
        "core.bytes_per_nnz.csr",
        "core.bytes_per_nnz.csr_du",
        "core.bytes_per_nnz.csr_vi",
        "core.bytes_per_nnz.csr_duvi",
    ];
    const ENC: [&str; 4] =
        ["", "core.encode_s.csr_du", "core.encode_s.csr_vi", "core.encode_s.csr_duvi"];
    let sum = |f: &dyn Fn(&Probe) -> f64| probes.iter().map(f).sum::<f64>();
    let nnz = sum(&|p| p.nnz as f64);
    for i in 0..4 {
        let t = sum(&|p| p.spmv_s[i]);
        let streamed = sum(&|p| (p.bytes[i] + p.vec_bytes) as f64);
        let gbs = streamed / t / 1e9;
        out.set(SPMV[i], t);
        out.set(GBS[i], gbs);
        out.set(ROOF[i], gbs / stream_gbs);
        out.set(BPN[i], sum(&|p| p.bytes[i] as f64) / nnz);
        if i > 0 {
            out.set(ENC[i], sum(&|p| p.encode_s[i]));
        }
    }
    let serial = sum(&|p| p.serial_s);
    let par = sum(&|p| p.par_s);
    let sup = sum(&|p| p.sup_spmm_s[&1]);
    out.set("core.spmm_s.k2", sum(&|p| p.spmm_k2_s));
    out.set("ladder.serial_s", serial);
    out.set("par.spmv_s", par);
    out.set("par.speedup", serial / par);
    out.set("supervised.spmv_s", sup);
    out.set("supervised.spmm_s.k2", sum(&|p| p.sup_spmm_s[&2]));
    out.set("supervised.overhead", sup / par);
    out.set("planner.pred_ratio", sum(&|p| p.predicted_s) / par);
}

/// Median seconds of one empty `WorkerPool::run` at `nproc` threads.
pub(crate) fn pool_dispatch_s(nproc: usize, tr: &Tracer) -> f64 {
    let mut pool = WorkerPool::new(nproc);
    pool.run(|_| {});
    let t = time_calls(2000, 2000, 0.0, || {
        tr.span("par.pool_run", 0, 0, |_| {
            pool.run(|tid| {
                std::hint::black_box(tid);
            })
        });
    });
    median(&t)
}

/// Seconds of each frontier expansion of a BFS from `source` over the
/// structure of `m`, stopping after `max_levels` levels.
pub(crate) fn bfs_level_times(
    m: &Matrix,
    nproc: usize,
    source: usize,
    max_levels: usize,
    tr: &Tracer,
) -> Vec<f64> {
    let csc = Csc::from_csr(&**m).expect("a valid CSR converts to CSC");
    let mut exec = ParSpMSpV::new(&csc, nproc);
    let n = m.nrows();
    let mut seen = vec![false; n];
    seen[source] = true;
    let mut front = SparseVec::single(n, source, 1.0).expect("source is in range");
    let mut times = Vec::new();
    while !front.is_empty() && times.len() < max_levels {
        let t0 = Instant::now();
        let y = tr.span("spmspv.level", 0, 0, |_| exec.spmspv(&front)).expect("frontier matches");
        times.push(t0.elapsed().as_secs_f64());
        let next: Vec<u32> = y.indices().iter().copied().filter(|&i| !seen[i as usize]).collect();
        for &i in &next {
            seen[i as usize] = true;
        }
        let vals = vec![1.0; next.len()];
        front = SparseVec::new(n, next, vals).expect("indices are sorted and unique");
    }
    times
}

/// One request's view from the client.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Served {
    pub matrix: usize,
    pub rtt_s: f64,
    pub queue_wait_s: f64,
    pub batch_k: usize,
}

/// Registers `mats` on a fresh service (timed as `service.register_s`)
/// and submits `per_matrix` requests to each from one client, checking
/// every reply bit for bit against serial CSR. Returns the service, the
/// registration time and the requests.
pub(crate) fn ladder_submit(
    mats: &[Matrix],
    nproc: usize,
    per_matrix: usize,
    tr: &Tracer,
    out: &mut crate::metrics::Outcome,
) -> (SpmvService, f64, Vec<Served>) {
    let svc = spmv_service::ServiceBuilder::new(service_config(nproc)).start();
    let t0 = Instant::now();
    for (i, m) in mats.iter().enumerate() {
        tr.span("service.register", 0, 0, |_| svc.register_csr(format!("m{i}"), Arc::clone(m)))
            .expect("every generated matrix plans and registers");
    }
    let register_s = t0.elapsed().as_secs_f64();
    let mut served = Vec::new();
    for (i, m) in mats.iter().enumerate() {
        let x = seeded_vec(m.ncols(), 0x5eed_0004 + i as u64);
        let mut want = vec![0.0; m.nrows()];
        m.spmv(&x, &mut want);
        for r in 0..per_matrix + 1 {
            let req = Request {
                matrix: format!("m{i}"),
                tenant: "ladder".into(),
                x: x.clone(),
                deadline: None,
            };
            let t0 = Instant::now();
            let res = tr.span("service.submit", 0, 0, |_| svc.submit(req));
            let rtt_s = t0.elapsed().as_secs_f64();
            out.attempted += 1;
            match res {
                Ok(resp) => {
                    if check_reply(out, &format!("ladder m{i}"), &resp.y, &want) && r > 0 {
                        served.push(Served {
                            matrix: i,
                            rtt_s,
                            queue_wait_s: resp.queue_wait.as_secs_f64(),
                            batch_k: resp.batch_k,
                        });
                    }
                }
                Err(e) => out.fail(format!("ladder: m{i} failed: {e}")),
            }
        }
    }
    (svc, register_s, served)
}

/// Checks one reply against serial CSR under the repository's 0-ULP
/// contract; a mismatch is a failed operation.
pub fn check_reply(out: &mut crate::metrics::Outcome, what: &str, y: &[f64], want: &[f64]) -> bool {
    let ok = same_bits(y, want);
    if !ok {
        out.fail(format!("{what}: reply differs from serial CSR"));
    }
    ok
}

/// Bit-for-bit equality.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Writes the service metrics that a set of served requests and the
/// service's counters give. `sup_s[m][k]` is the supervised panel time
/// of matrix `m` at width `k`.
pub(crate) fn service_metrics(
    served: &[Served],
    sup_s: &[BTreeMap<usize, f64>],
    svc: &SpmvService,
    out: &mut crate::metrics::Outcome,
) {
    let waits: Vec<f64> = served.iter().map(|s| s.queue_wait_s * 1e3).collect();
    let over: Vec<f64> =
        served.iter().map(|s| (s.rtt_s - sup_s[s.matrix][&s.batch_k]) * 1e3).collect();
    out.set("service.queue_wait_ms.p50", median(&waits));
    out.set("service.queue_wait_ms.p99", crate::stats::tail(&waits));
    out.set("service.overhead_ms", median(&over));
    out.set(
        "service.batch_k_mean",
        served.iter().map(|s| s.batch_k as f64).sum::<f64>() / served.len().max(1) as f64,
    );
    let st = svc.stats();
    out.set("service.completed", st.completed as f64);
    out.set("service.failed", st.failed as f64);
    out.set("service.shed", (st.shed_overload + st.shed_quota) as f64);
    out.set("service.expired", (st.deadline_expired + st.expired_at_submit) as f64);
    out.set("service.retries", st.retries as f64);
    out.set("service.serial_batches", st.serial_batches as f64);
}

//! The repository benchmark.
//!
//! One command runs one workload on inputs generated from a seed, checks
//! every output, and prints every metric by name with its unit; the last
//! line of standard output is the JSON result. Each layer is timed from
//! outside, through the public functions of `spmv-core`,
//! `spmv-parallel`, `spmv-memsim`, `spmv-service`, the root
//! `solvers`/`vecops` and `spmv_bench`. Load is sized for the host: at
//! most `nproc` client threads and `nproc` executor threads.
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics. Traced runs
//! (`--trace 1`) report the per-layer metrics: they time the workload
//! untraced and traced (the difference is the tracing overhead), then
//! walk the layer ladder serial → `Par*` → `SupervisedSpMv` → `submit`
//! on the workload's matrices, and write the spans they recorded.

pub mod exec;
mod graph;
mod host;
pub mod metrics;
mod serve;
mod solve;
mod stats;
pub mod trace;

use exec::{Matrix, Probe};
use metrics::Outcome;
use stats::median;
use trace::Tracer;

/// The workloads, by the names later changes refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Solve,
    Serve,
    Graph,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Solve, Workload::Serve, Workload::Graph];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Solve => "solve",
            Workload::Serve => "serve",
            Workload::Graph => "graph",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Report per-layer metrics (and record spans) instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub tiny: bool,
}

/// Host facts every workload reads.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub nproc: usize,
    pub llc_bytes: u64,
    /// STREAM triad of this run, the roofline ceiling.
    pub stream_gbs: f64,
}

/// Runs one workload. Returns what it measured and checked; the spans
/// are in `tr` when tracing is on.
pub fn run(cfg: &RunCfg, tr: &Tracer) -> Outcome {
    let (llc_bytes, from_sysfs) = host::llc_bytes();
    let nproc = host::nproc();
    let stream_bytes = if cfg.tiny { 8 << 20 } else { 4 * llc_bytes };
    let ctx = Ctx { nproc, llc_bytes, stream_gbs: host::stream_gbs(stream_bytes, nproc) };
    let mut out = Outcome::default();
    out.context.push(("workload".into(), cfg.workload.name().into()));
    out.context.push(("seed".into(), cfg.seed.to_string()));
    out.context.push(("nproc".into(), ctx.nproc.to_string()));
    out.context.push((
        "llc".into(),
        format!("{} bytes ({})", llc_bytes, if from_sysfs { "sysfs" } else { "fallback" }),
    ));
    out.context.push(("isa".into(), spmv_core::simd::selected().as_str().into()));
    out.set("ctx.nproc", ctx.nproc as f64);
    out.set("ctx.llc_mb", llc_bytes as f64 / 1e6);
    out.set("ctx.stream_gbs", ctx.stream_gbs);
    out.context.push((
        "stream_triad".into(),
        format!("{:.2} GB/s over {stream_bytes} bytes", ctx.stream_gbs),
    ));
    match cfg.workload {
        Workload::Solve => solve::run(cfg, &ctx, tr, &mut out),
        Workload::Serve => serve::run(cfg, &ctx, tr, &mut out),
        Workload::Graph => graph::run(cfg, &ctx, tr, &mut out),
    }
    out.set("fail_frac", out.fail_frac());
    out.summary.push(("fail_frac", out.fail_frac(), "1"));
    if cfg.trace {
        let self_time = trace::self_time_s(&tr.spans());
        for (layer, name) in trace::LAYERS.iter().zip(SELF_METRICS) {
            out.set(name, self_time[layer]);
        }
    }
    out
}

/// `self_s.<layer>` for each of [`trace::LAYERS`], in the same order.
const SELF_METRICS: [&str; 7] = [
    "self_s.bench",
    "self_s.core",
    "self_s.par",
    "self_s.supervised",
    "self_s.service",
    "self_s.planner",
    "self_s.spmspv",
];

/// The ladder's last rungs and the layer probes: writes the probe
/// metrics, the pool dispatch cost, and the service figures of a fresh
/// service holding `mats`, submitted to by one client.
pub(crate) fn ladder(
    mats: &[Matrix],
    probes: Vec<Probe>,
    per_matrix: usize,
    ctx: &Ctx,
    tr: &Tracer,
    out: &mut Outcome,
) {
    exec::probe_metrics(&probes, ctx.stream_gbs, out);
    out.set("pool.dispatch_s", exec::pool_dispatch_s(ctx.nproc, tr));
    let (svc, register_s, served) = exec::ladder_submit(mats, ctx.nproc, per_matrix, tr, out);
    let submit_s: f64 = (0..mats.len())
        .map(|i| {
            let rtts: Vec<f64> = served.iter().filter(|s| s.matrix == i).map(|s| s.rtt_s).collect();
            median(&rtts)
        })
        .sum();
    out.set("ladder.submit_s", submit_s);
    out.set("service.register_s", register_s);
    let sup: Vec<_> = probes.into_iter().map(|p| p.sup_spmm_s).collect();
    exec::service_metrics(&served, &sup, &svc, out);
    svc.shutdown();
}

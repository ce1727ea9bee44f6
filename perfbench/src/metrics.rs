//! Every metric the benchmark reports, the layer it measures and the
//! end-to-end metric it should move, and the one-line JSON result.
//!
//! `BENCHMARK.json` declares the same names, units and directions; a
//! test keeps the two in step. The layer → end-to-end mapping lives only
//! here, because `BENCHMARK.json` has a fixed set of keys.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a metric is gated end to end (untraced runs) or describes one
/// layer (traced runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
    /// What the metric measures, and which end-to-end metric it should
    /// move on which workload.
    pub about: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, kind: Kind::EndToEnd, about }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, kind: Kind::PerLayer, about }
}

/// The operation whose latency `op_ms` reports, per workload: one PCG
/// solve to 1e-8 (solve), one request round trip (serve), one round of
/// BFS from each seeded source followed by a PageRank (graph).
pub const METRICS: &[MetricDef] = &[
    // End to end: what a caller of the system sees.
    e2e("setup_s", "s", "lower", "generated inputs -> first timed call: planning, encoding, executors, service, registration, CSC builds (median of several set-ups)"),
    e2e("rss_mb", "MB", "lower", "VmRSS after set-up, generator inputs dropped"),
    e2e("op_ms", "ms", "lower", "median latency of the workload's operation (solve_s / serve_p50_ms / graph round)"),
    layer("ops_per_s", "1/s", "higher", "operations completed per second of client wait, summed over clients (serve_rps on serve)"),
    layer("op_tail_ms", "ms", "lower", "highest of p99/p90/p50 of the op latencies with >= 10 samples beyond it (serve_p99_ms on serve)"),
    // spmv-core, serial k=1 on the workload's matrices (summed over them).
    layer("core.spmv_s.csr", "s", "lower", "serial CSR SpMV -> op_ms on solve"),
    layer("core.spmv_s.csr_du", "s", "lower", "serial CSR-DU SpMV -> op_ms on solve"),
    layer("core.spmv_s.csr_vi", "s", "lower", "serial CSR-VI SpMV -> op_ms on solve"),
    layer("core.spmv_s.csr_duvi", "s", "lower", "serial CSR-DU-VI SpMV -> op_ms on solve"),
    layer("core.gbs.csr", "GB/s", "higher", "(size_bytes + x + y) / core.spmv_s.csr -> op_ms on solve"),
    layer("core.gbs.csr_du", "GB/s", "higher", "as core.gbs.csr for CSR-DU -> op_ms on solve"),
    layer("core.gbs.csr_vi", "GB/s", "higher", "as core.gbs.csr for CSR-VI -> op_ms on solve"),
    layer("core.gbs.csr_duvi", "GB/s", "higher", "as core.gbs.csr for CSR-DU-VI -> op_ms on solve"),
    layer("core.roofline_frac.csr", "1", "higher", "core.gbs.csr / STREAM triad of the same run -> op_ms on solve"),
    layer("core.roofline_frac.csr_du", "1", "higher", "core.gbs.csr_du / STREAM triad -> op_ms on solve"),
    layer("core.roofline_frac.csr_vi", "1", "higher", "core.gbs.csr_vi / STREAM triad -> op_ms on solve"),
    layer("core.roofline_frac.csr_duvi", "1", "higher", "core.gbs.csr_duvi / STREAM triad -> op_ms on solve"),
    layer("core.bytes_per_nnz.csr", "B", "lower", "computed from size_bytes() -> op_ms on solve, rss_mb"),
    layer("core.bytes_per_nnz.csr_du", "B", "lower", "computed from size_bytes() -> op_ms on solve, rss_mb"),
    layer("core.bytes_per_nnz.csr_vi", "B", "lower", "computed from size_bytes() -> op_ms on solve, rss_mb"),
    layer("core.bytes_per_nnz.csr_duvi", "B", "lower", "computed from size_bytes() -> op_ms on solve, rss_mb"),
    layer("core.encode_s.csr_du", "s", "lower", "CSR -> CSR-DU encode -> setup_s on solve and serve"),
    layer("core.encode_s.csr_vi", "s", "lower", "CSR -> CSR-VI encode -> setup_s on solve and serve"),
    layer("core.encode_s.csr_duvi", "s", "lower", "CSR -> CSR-DU-VI encode -> setup_s on solve and serve"),
    layer("core.spmm_s.k2", "s", "lower", "serial k=2 SpMM in the planned format -> ops_per_s on serve"),
    // spmv-parallel.
    layer("ladder.serial_s", "s", "lower", "ladder rung 1: serial SpMV in the planned format"),
    layer("par.spmv_s", "s", "lower", "ladder rung 2: planned Par* executor at nproc threads -> op_ms on solve"),
    layer("par.speedup", "x", "higher", "ladder.serial_s / par.spmv_s -> op_ms on solve"),
    layer("pool.dispatch_s", "s", "lower", "one empty WorkerPool::run at nproc threads -> op_ms on graph and serve"),
    layer("supervised.spmv_s", "s", "lower", "ladder rung 3: SupervisedSpMv k=1 -> op_ms, ops_per_s on serve; none on solve, graph"),
    layer("supervised.spmm_s.k2", "s", "lower", "SupervisedSpMv k=2 -> op_ms, ops_per_s on serve"),
    layer("supervised.overhead", "x", "lower", "supervised.spmv_s / par.spmv_s, same matrix, format, threads -> op_ms on serve"),
    layer("ladder.submit_s", "s", "lower", "ladder rung 4: one SpmvService::submit round trip, one client -> op_ms on serve"),
    layer("spmspv.level_s", "s", "lower", "median ParSpMSpV frontier expansion per BFS level -> op_ms on graph"),
    layer("pagerank.dense_iters", "count", "lower", "PageRank iterations on the dense ParCsr path -> op_ms on graph"),
    layer("pagerank.sparse_iters", "count", "lower", "PageRank iterations on the bucketed SpMSpV path -> op_ms on graph"),
    // spmv-memsim.
    layer("planner.plan_s", "s", "lower", "cold Planner::plan_csr over the workload's matrices -> setup_s"),
    layer("planner.encodes", "count", "lower", "candidate encodes the planner ran -> setup_s"),
    layer("planner.hits", "count", "higher", "plan-cache hits -> setup_s"),
    layer("planner.misses", "count", "lower", "plan-cache misses -> setup_s"),
    layer("planner.pred_ratio", "1", "higher", "predicted_time_s / measured par.spmv_s -> op_ms on solve through the format choice"),
    // spmv-service.
    layer("service.register_s", "s", "lower", "register_csr over the workload's matrices -> setup_s on serve"),
    layer("service.queue_wait_ms.p50", "ms", "lower", "Response::queue_wait median -> op_tail_ms on serve"),
    layer("service.queue_wait_ms.p99", "ms", "lower", "Response::queue_wait tail -> op_tail_ms on serve"),
    layer("service.batch_k_mean", "count", "higher", "mean Response::batch_k -> ops_per_s on serve"),
    layer("service.overhead_ms", "ms", "lower", "median of round trip minus supervised SpMM at that request's k -> op_ms on serve"),
    layer("service.completed", "count", "higher", "ServiceStats::completed -> ops_per_s"),
    layer("service.failed", "count", "lower", "ServiceStats::failed -> fail_frac"),
    layer("service.shed", "count", "lower", "ServiceStats shed_overload + shed_quota -> fail_frac"),
    layer("service.expired", "count", "lower", "ServiceStats deadline_expired + expired_at_submit -> fail_frac"),
    layer("service.retries", "count", "lower", "ServiceStats::retries -> op_tail_ms on serve"),
    layer("service.serial_batches", "count", "lower", "ServiceStats::serial_batches -> op_ms on serve"),
    // Root solvers / vecops.
    layer("solve.iters", "count", "lower", "PCG iterations to 1e-8; repeats exactly for a seed -> op_ms on solve"),
    layer("solve.spmv_share", "1", "higher", "iters * par.spmv_s / solve time -> op_ms on solve"),
    // Self time per layer over the traced run, and the cost of tracing.
    layer("self_s.bench", "s", "lower", "self time of the benchmark's own loops (PCG vector ops, frontier updates, request set-up)"),
    layer("self_s.core", "s", "lower", "self time in serial spmv-core calls"),
    layer("self_s.par", "s", "lower", "self time in Par* executor calls"),
    layer("self_s.supervised", "s", "lower", "self time in SupervisedSpMv calls"),
    layer("self_s.service", "s", "lower", "self time in SpmvService calls"),
    layer("self_s.planner", "s", "lower", "self time in Planner calls"),
    layer("self_s.spmspv", "s", "lower", "self time in ParSpMSpV calls"),
    layer("trace.overhead_frac", "1", "lower", "(traced - untraced op_ms) / untraced op_ms within the traced run"),
    layer("fail_frac", "1", "lower", "failed, refused, expired or wrong operations / attempted"),
    // Run context.
    layer("ctx.stream_gbs", "GB/s", "higher", "STREAM triad at nproc threads over >= 4 LLCs"),
    layer("ctx.llc_mb", "MB", "higher", "last-level cache from sysfs"),
    layer("ctx.matrix_mb", "MB", "lower", "CSR bytes of the workload's matrices"),
    layer("ctx.ws_over_llc", "x", "higher", "(CSR + x + y bytes) / LLC"),
    layer("ctx.nproc", "count", "higher", "available parallelism"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Declared metric name → value.
    pub values: BTreeMap<&'static str, f64>,
    /// Run context that is not a number (ISA, chosen formats, seed).
    pub context: Vec<(String, String)>,
    /// This workload's headline figures under their everyday names
    /// (`solve_s`, `serve_p50_ms`, `bfs_s`, ...), with units, for the
    /// human-readable summary.
    pub summary: Vec<(&'static str, f64, &'static str)>,
    /// Why a check failed, one line each.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a declared metric. Panics on an undeclared name: every
    /// name the benchmark emits must be in [`METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(METRICS.iter().any(|m| m.name == name), "metric {name} is not declared");
        self.values.insert(name, value);
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }

    /// Adds another outcome's operations and failures to this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Declared metrics of `kind` this outcome lacks or holds as a
    /// non-finite number.
    pub fn missing(&self, kind: Kind) -> Vec<&'static str> {
        METRICS
            .iter()
            .filter(|m| m.kind == kind)
            .filter(|m| !self.values.get(m.name).is_some_and(|v| v.is_finite()))
            .map(|m| m.name)
            .collect()
    }

    /// The result line: every declared metric of `kind`. The run is
    /// correct only when no check failed and every metric is present.
    pub fn result_line(&self, kind: Kind) -> String {
        let correct = self.failed == 0 && self.errors.is_empty() && self.missing(kind).is_empty();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in METRICS.iter().filter(|m| m.kind == kind) {
            let Some(&v) = self.values.get(m.name).filter(|v| v.is_finite()) else {
                continue;
            };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ =
                write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        out.push_str("}}");
        out
    }
}

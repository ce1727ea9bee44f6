//! The BENCH.json contract: serialize -> parse -> field-by-field
//! agreement (golden schema), determinism of non-timing fields across
//! runs, telemetry on every parallel record, and the validated writer.

use spmv_bench::jsonv::Json;
use spmv_bench::measured::TimingStats;
use spmv_bench::metrics::{
    collect_bench, validate_bench_text, write_bench, BenchFile, BenchOptions, BenchRecord,
    MachineInfo, PlanCacheSummary, PlannerDecisionRecord, TelemetryRecord, BENCH_SCHEMA_VERSION,
};

/// A hand-built artifact with every field at a distinctive value, so the
/// roundtrip test notices a dropped, renamed, or reordered field.
fn golden_file() -> BenchFile {
    BenchFile {
        schema_version: BENCH_SCHEMA_VERSION,
        machine: MachineInfo {
            os: "linux".into(),
            arch: "x86_64".into(),
            available_threads: 8,
            machine_bandwidth_gbs: 12.5,
        },
        scale: 0.25,
        iterations: 12,
        seed: 99,
        records: vec![BenchRecord {
            matrix: "band_026".into(),
            matrix_id: 26,
            format: "csr-du".into(),
            threads: 4,
            k: 4,
            nrows: 1000,
            ncols: 1000,
            nnz: 8000,
            matrix_bytes: 70_000,
            csr_matrix_bytes: 100_004,
            traffic_per_nnz: 8.75,
            warmup_iterations: 5,
            stats: TimingStats {
                samples: 12,
                min_s: 1.0e-4,
                median_s: 1.25e-4,
                mean_s: 1.3e-4,
                mad_s: 5.0e-6,
                p95_s: 2.0e-4,
                p99_s: 2.4e-4,
                cv: 0.07,
            },
            mflops: 128.0,
            effective_bandwidth_gbs: 0.56,
            compression_adjusted_gbs: 0.8,
            per_vector_bandwidth_gbs: 0.14,
            kernel_isa: "avx2".into(),
            roofline_fraction: 0.56 / 12.5,
            telemetry: Some(TelemetryRecord {
                busy_ns: vec![400, 300, 500, 200],
                chunks: vec![12, 12, 12, 12],
                dispatches: 12,
                imbalance: 500.0 / 350.0,
            }),
            planned: true,
            planner: Some(PlannerDecisionRecord {
                format: "csr-du".into(),
                threads: 4,
                chunks: 8,
                predicted_time_s: 1.4e-4,
                predicted_mflops: 115.0,
                memory_bound: true,
                cache_hit: false,
            }),
        }],
        service: None,
        plan_cache: Some(PlanCacheSummary {
            hits: 2,
            misses: 1,
            encodes: 3,
            shape_rejects: 1,
            entries: 1,
        }),
        spmspv: None,
    }
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing number {key}"))
}

#[test]
fn golden_schema_roundtrips_field_by_field() {
    let file = golden_file();
    let text = serde_json::to_string_pretty(&file).unwrap();
    validate_bench_text(&text).unwrap();
    let root = Json::parse(&text).unwrap();

    assert_eq!(num(&root, "schema_version"), BENCH_SCHEMA_VERSION as f64);
    assert_eq!(num(&root, "scale"), 0.25);
    assert_eq!(num(&root, "iterations"), 12.0);
    assert_eq!(num(&root, "seed"), 99.0);
    let machine = root.get("machine").expect("machine object");
    assert_eq!(machine.get("os").unwrap().as_str(), Some("linux"));
    assert_eq!(machine.get("arch").unwrap().as_str(), Some("x86_64"));
    assert_eq!(num(machine, "available_threads"), 8.0);
    assert_eq!(num(machine, "machine_bandwidth_gbs"), 12.5);

    let records = root.get("records").and_then(Json::as_arr).expect("records array");
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert_eq!(r.get("matrix").unwrap().as_str(), Some("band_026"));
    assert_eq!(r.get("format").unwrap().as_str(), Some("csr-du"));
    assert_eq!(num(r, "matrix_id"), 26.0);
    assert_eq!(num(r, "threads"), 4.0);
    assert_eq!(num(r, "k"), 4.0);
    assert_eq!(num(r, "nrows"), 1000.0);
    assert_eq!(num(r, "ncols"), 1000.0);
    assert_eq!(num(r, "nnz"), 8000.0);
    assert_eq!(num(r, "matrix_bytes"), 70_000.0);
    assert_eq!(num(r, "csr_matrix_bytes"), 100_004.0);
    assert_eq!(num(r, "traffic_per_nnz"), 8.75);
    assert_eq!(num(r, "warmup_iterations"), 5.0);
    assert_eq!(num(r, "mflops"), 128.0);
    assert_eq!(num(r, "effective_bandwidth_gbs"), 0.56);
    assert_eq!(num(r, "compression_adjusted_gbs"), 0.8);
    assert_eq!(num(r, "per_vector_bandwidth_gbs"), 0.14);
    assert_eq!(r.get("kernel_isa").unwrap().as_str(), Some("avx2"));
    assert_eq!(num(r, "roofline_fraction"), 0.56 / 12.5);

    let stats = r.get("stats").expect("stats object");
    assert_eq!(num(stats, "samples"), 12.0);
    assert_eq!(num(stats, "min_s"), 1.0e-4);
    assert_eq!(num(stats, "median_s"), 1.25e-4);
    assert_eq!(num(stats, "mean_s"), 1.3e-4);
    assert_eq!(num(stats, "mad_s"), 5.0e-6);
    assert_eq!(num(stats, "p95_s"), 2.0e-4);
    assert_eq!(num(stats, "p99_s"), 2.4e-4);
    assert_eq!(num(stats, "cv"), 0.07);
    assert!(root.get("service").expect("service field always present").is_null());

    let t = r.get("telemetry").expect("telemetry field");
    let busy: Vec<f64> =
        t.get("busy_ns").unwrap().as_arr().unwrap().iter().map(|v| v.as_f64().unwrap()).collect();
    assert_eq!(busy, vec![400.0, 300.0, 500.0, 200.0]);
    let chunks: Vec<f64> =
        t.get("chunks").unwrap().as_arr().unwrap().iter().map(|v| v.as_f64().unwrap()).collect();
    assert_eq!(chunks, vec![12.0; 4]);
    assert_eq!(num(t, "dispatches"), 12.0);
    assert!((num(t, "imbalance") - 500.0 / 350.0).abs() < 1e-12);

    // v6 planner layer.
    assert_eq!(r.get("planned").unwrap().as_bool(), Some(true));
    let p = r.get("planner").expect("planner block");
    assert_eq!(p.get("format").unwrap().as_str(), Some("csr-du"));
    assert_eq!(num(p, "threads"), 4.0);
    assert_eq!(num(p, "chunks"), 8.0);
    assert_eq!(num(p, "predicted_time_s"), 1.4e-4);
    assert_eq!(num(p, "predicted_mflops"), 115.0);
    assert_eq!(p.get("memory_bound").unwrap().as_bool(), Some(true));
    assert_eq!(p.get("cache_hit").unwrap().as_bool(), Some(false));
    let pc = root.get("plan_cache").expect("plan_cache section");
    assert_eq!(num(pc, "hits"), 2.0);
    assert_eq!(num(pc, "misses"), 1.0);
    assert_eq!(num(pc, "encodes"), 3.0);
    assert_eq!(num(pc, "shape_rejects"), 1.0);
    assert_eq!(num(pc, "entries"), 1.0);
}

#[test]
fn golden_schema_detects_field_removal() {
    // The validator is only a gate if deleting a promised field trips it.
    let text = serde_json::to_string_pretty(&golden_file()).unwrap();
    for field in [
        "\"median_s\"",
        "\"imbalance\"",
        "\"machine\"",
        "\"format\"",
        "\"k\"",
        "\"per_vector_bandwidth_gbs\"",
        "\"machine_bandwidth_gbs\"",
        "\"kernel_isa\"",
        "\"roofline_fraction\"",
        "\"p99_s\"",
        "\"service\"",
    ] {
        let renamed = format!("\"x{}", &field[1..]);
        let broken = text.replacen(field, &renamed, 1);
        assert!(validate_bench_text(&broken).is_err(), "removing {field} should fail validation");
    }
}

#[test]
fn two_runs_agree_on_all_non_timing_fields() {
    let opts = BenchOptions {
        scale: 0.002,
        iters: 2,
        matrix_ids: vec![3],
        thread_counts: vec![1, 2],
        k_values: vec![1, 2],
        ..BenchOptions::default()
    };
    let a = collect_bench(&opts).unwrap();
    let b = collect_bench(&opts).unwrap();
    assert_eq!(a.schema_version, b.schema_version);
    // The machine description is deterministic, but the measured
    // bandwidth ceiling is a timing and may differ between runs.
    assert_eq!(a.machine.os, b.machine.os);
    assert_eq!(a.machine.arch, b.machine.arch);
    assert_eq!(a.machine.available_threads, b.machine.available_threads);
    assert!(a.machine.machine_bandwidth_gbs > 0.0);
    assert!(b.machine.machine_bandwidth_gbs > 0.0);
    assert_eq!(a.scale, b.scale);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.matrix, rb.matrix);
        assert_eq!(ra.matrix_id, rb.matrix_id);
        assert_eq!(ra.format, rb.format);
        assert_eq!(ra.threads, rb.threads);
        assert_eq!(ra.k, rb.k);
        assert_eq!(ra.nrows, rb.nrows);
        assert_eq!(ra.ncols, rb.ncols);
        assert_eq!(ra.nnz, rb.nnz);
        assert_eq!(ra.matrix_bytes, rb.matrix_bytes);
        assert_eq!(ra.csr_matrix_bytes, rb.csr_matrix_bytes);
        assert_eq!(ra.traffic_per_nnz, rb.traffic_per_nnz);
        assert_eq!(ra.kernel_isa, rb.kernel_isa);
        // Timing fields (stats, mflops, bandwidths, roofline fraction,
        // warmup count, and telemetry busy times) legitimately differ
        // between runs.
    }
}

#[test]
fn emitted_parallel_records_carry_telemetry() {
    let opts = BenchOptions {
        scale: 0.002,
        iters: 2,
        matrix_ids: vec![3],
        thread_counts: vec![1, 2],
        k_values: vec![1, 2],
        ..BenchOptions::default()
    };
    let file = collect_bench(&opts).unwrap();
    let text = serde_json::to_string_pretty(&file).unwrap();
    validate_bench_text(&text).unwrap();
    let root = Json::parse(&text).unwrap();
    for rec in root.get("records").and_then(Json::as_arr).unwrap() {
        let threads = num(rec, "threads");
        let t = rec.get("telemetry").expect("field always present");
        if threads <= 1.0 {
            assert!(t.is_null(), "serial records have null telemetry");
        } else {
            assert!(t.is_obj(), "parallel records carry telemetry");
            let busy = t.get("busy_ns").and_then(Json::as_arr).expect("busy_ns array");
            assert_eq!(busy.len() as f64, threads, "one busy counter per thread");
            assert!(num(t, "imbalance") >= 1.0);
        }
    }
}

#[test]
fn write_bench_writes_only_valid_artifacts() {
    let dir = std::env::temp_dir().join(format!("spmv-bench-write-{}", std::process::id()));
    let path = write_bench(&dir, &golden_file()).expect("golden artifact is valid");
    assert_eq!(path, dir.join("BENCH.json"));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.ends_with("}\n"));
    validate_bench_text(&text).unwrap();
    std::fs::remove_file(&path).unwrap();
    let stale = BenchFile { schema_version: 0, ..golden_file() };
    assert!(write_bench(&dir, &stale).unwrap_err().contains("schema_version"));
    assert!(!path.exists(), "an invalid artifact must not reach disk");
    std::fs::remove_dir(&dir).unwrap();
}

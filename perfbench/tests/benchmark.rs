//! The benchmark's own checks: its declared metrics match
//! `BENCHMARK.json`, every workload passes its correctness checks on tiny
//! inputs, and a corrupted reply is counted as a failure.

use spmv_bench::jsonv::Json;
use spmv_perfbench::metrics::{Kind, Outcome, METRICS};
use spmv_perfbench::trace::Tracer;
use spmv_perfbench::{exec, run, RunCfg, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn every_metric_is_declared_in_benchmark_json() {
    let doc = benchmark_json();
    for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::PerLayer)] {
        let declared: Vec<(String, String, String)> = doc
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let emitted: Vec<(String, String, String)> = METRICS
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(declared, emitted, "{key} in BENCHMARK.json differs from the benchmark's table");
    }
    let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
    assert!(names.iter().all(|n| valid_name(n)), "a metric name breaks [A-Za-z0-9_.-]+");
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), METRICS.len(), "metric names must be unique");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads is a list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("a workload has a name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn tiny_workloads_pass_their_checks() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = RunCfg { workload, seed: 7, seconds: 0.2, trace, tiny: true };
            let tr = Tracer::new(trace);
            let out = run(&cfg, &tr);
            let kind = if trace { Kind::PerLayer } else { Kind::EndToEnd };
            let what = format!("{} trace={trace}", workload.name());
            assert!(out.errors.is_empty(), "{what}: {:?}", out.errors);
            assert_eq!(out.failed, 0, "{what}");
            assert!(out.attempted > 0, "{what}");
            assert!(out.missing(kind).is_empty(), "{what}: missing {:?}", out.missing(kind));
            let line = Json::parse(&out.result_line(kind)).expect("the result line is JSON");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true), "{what}");
            if trace {
                assert!(
                    tr.spans().iter().any(|s| s.name == "service.submit"),
                    "{what}: no ladder spans"
                );
            }
        }
    }
}

#[test]
fn corrupted_reply_counts_as_failure() {
    let want: Vec<f64> = (0..64).map(|i| i as f64 * 0.25 - 3.0).collect();
    let mut out = Outcome { attempted: 2, ..Outcome::default() };
    assert!(exec::check_reply(&mut out, "intact", &want.clone(), &want));
    let mut y = want.clone();
    y[17] = f64::from_bits(y[17].to_bits() ^ 1);
    assert!(!exec::check_reply(&mut out, "one ulp off", &y, &want));
    assert_eq!(out.failed, 1);
    assert_eq!(out.fail_frac(), 0.5);
    for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
        out.set(m.name, 1.0);
    }
    let line = Json::parse(&out.result_line(Kind::EndToEnd)).expect("the result line is JSON");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
}

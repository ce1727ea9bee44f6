//! `spmv-perfbench --workload <solve|serve|graph> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run context and a human-readable summary, then, as the last
//! line of standard output, the JSON result: end-to-end metrics for
//! `--trace 0`, per-layer metrics for `--trace 1`. A traced run also
//! writes its spans to `out/trace-<workload>-<seed>.json` beside this
//! package's manifest. Malformed arguments exit with code 2 and no result.

use std::process::ExitCode;

use spmv_perfbench::metrics::Kind;
use spmv_perfbench::trace::{self, Tracer};
use spmv_perfbench::{run, RunCfg, Workload};

const USAGE: &str =
    "usage: spmv-perfbench --workload <solve|serve|graph> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunCfg, String> {
    let mut cfg =
        RunCfg { workload: Workload::Solve, seed: 0, seconds: 10.0, trace: false, tiny: false };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => cfg.seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                cfg.seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {val}"));
                }
            }
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tr = Tracer::new(cfg.trace);
    let out = run(&cfg, &tr);
    for (k, v) in &out.context {
        println!("context {k}: {v}");
    }
    for (name, v, unit) in &out.summary {
        println!("summary {name} = {v} {unit}");
    }
    for e in &out.errors {
        println!("check failed: {e}");
    }
    let kind = if cfg.trace { Kind::PerLayer } else { Kind::EndToEnd };
    for m in out.missing(kind) {
        println!("check failed: metric {m} was not measured");
    }
    if cfg.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, trace::to_json(&tr.spans())));
        match written {
            Ok(()) => println!("context spans: {}", path.display()),
            Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
        }
    }
    println!("{}", out.result_line(kind));
    ExitCode::SUCCESS
}

//! Open-loop load generator for the SpMV serving layer.
//!
//! Drives mixed-tenant traffic against an [`SpmvService`] at a
//! configured offered load (requests/second), including deliberately
//! *above* saturation, and reports how the service degraded: admitted
//! vs shed counts, end-to-end latency percentiles over completed
//! requests (p50/p95/p99), per-tenant admission-wait percentiles, the
//! per-shard counter mirrors, and the batch-coalescing histogram. With
//! `--out DIR` the run is written as a schema-v5 `BENCH.json` whose
//! `service` section passes `reproduce check-bench` — graceful
//! degradation as a validated artifact.
//!
//!   loadgen [--duration S] [--rps R | --load-factor F] [--deadline-ms D]
//!           [--tenants N] [--threads T] [--clients C] [--queue-capacity Q]
//!           [--max-batch K] [--shards N] [--seed S] [--out DIR]
//!           [--require-shed] [--kill-shard] [--inject-faults]
//!
//! `--shards N` runs the service with N supervised dispatcher shards.
//! `--kill-shard` turns the run into a supervision drill: a killer
//! thread murders dispatcher shards round-robin while traffic flows,
//! and the summary's `shard_kills`/`requeued`/`respawns` show the
//! supervisor repairing them. `--inject-faults` (requires building with
//! `--features fault-injection`) additionally arms a deterministic
//! worker-fault plan — panics, a worker death, a stall — underneath the
//! shard chaos.
//!
//! Without `--rps`, the generator calibrates: it measures the service's
//! closed-loop single-client throughput on a throwaway instance, scales
//! it by half the maximum coalescing width (panels amortize decode
//! traffic, so open-loop capacity sits above the closed-loop figure),
//! and offers `--load-factor` times that saturation estimate. The
//! default factor 2.0 is therefore "2x saturation" by construction.
//! `--require-shed` exits nonzero unless admission control actually
//! shed requests — the CI overload gate.

use spmv_bench::measured::TimingStats;
use spmv_bench::metrics::{
    BenchFile, MachineInfo, ServiceSummary, ShardSummary, TenantWait, BENCH_SCHEMA_VERSION,
};
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Coo, Csr};
use spmv_parallel::{ChunkKernel, CsrChunks, CsrViChunks};
use spmv_service::{Request, ServiceBuilder, ServiceConfig, ServiceError, SpmvService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    duration: f64,
    rps: Option<f64>,
    load_factor: f64,
    deadline_ms: f64,
    tenants: usize,
    threads: usize,
    clients: usize,
    queue_capacity: usize,
    max_batch: usize,
    shards: usize,
    seed: u64,
    out: Option<std::path::PathBuf>,
    require_shed: bool,
    kill_shard: bool,
    inject_faults: bool,
}

const HELP: &str = "loadgen [--duration S] [--rps R | --load-factor F] [--deadline-ms D] \
[--tenants N] [--threads T] [--clients C] [--queue-capacity Q] [--max-batch K] \
[--shards N] [--seed S] [--out DIR] [--require-shed] [--kill-shard] [--inject-faults]\n";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        duration: 2.0,
        rps: None,
        load_factor: 2.0,
        deadline_ms: 25.0,
        tenants: 3,
        threads: 4,
        clients: 32,
        queue_capacity: 16,
        max_batch: 8,
        shards: 1,
        seed: 42,
        out: None,
        require_shed: false,
        kill_shard: false,
        inject_faults: false,
    };
    let value = |name: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{name} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--duration" => {
                args.duration = parse_f64("--duration", &value("--duration", &mut it)?)?
            }
            "--rps" => args.rps = Some(parse_f64("--rps", &value("--rps", &mut it)?)?),
            "--load-factor" => {
                args.load_factor = parse_f64("--load-factor", &value("--load-factor", &mut it)?)?
            }
            "--deadline-ms" => {
                args.deadline_ms = parse_f64("--deadline-ms", &value("--deadline-ms", &mut it)?)?
            }
            "--tenants" => args.tenants = parse_usize("--tenants", &value("--tenants", &mut it)?)?,
            "--threads" => args.threads = parse_usize("--threads", &value("--threads", &mut it)?)?,
            "--clients" => args.clients = parse_usize("--clients", &value("--clients", &mut it)?)?,
            "--queue-capacity" => {
                args.queue_capacity =
                    parse_usize("--queue-capacity", &value("--queue-capacity", &mut it)?)?
            }
            "--max-batch" => {
                args.max_batch = parse_usize("--max-batch", &value("--max-batch", &mut it)?)?
            }
            "--shards" => args.shards = parse_usize("--shards", &value("--shards", &mut it)?)?,
            "--kill-shard" => args.kill_shard = true,
            "--inject-faults" => args.inject_faults = true,
            "--seed" => {
                args.seed = value("--seed", &mut it)?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--out" => args.out = Some(std::path::PathBuf::from(value("--out", &mut it)?)),
            "--require-shed" => args.require_shed = true,
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if args.duration <= 0.0 || args.load_factor <= 0.0 || args.deadline_ms <= 0.0 {
        return Err("--duration, --load-factor, and --deadline-ms must be positive".into());
    }
    if args.tenants == 0 || args.threads == 0 || args.clients == 0 || args.queue_capacity == 0 {
        return Err("--tenants, --threads, --clients, --queue-capacity must be >= 1".into());
    }
    if args.shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    if args.inject_faults && !cfg!(feature = "fault-injection") {
        return Err("--inject-faults needs a build with --features fault-injection (cargo run -p \
             spmv-bench --features fault-injection --bin loadgen -- ...)"
            .into());
    }
    Ok(args)
}

fn parse_f64(name: &str, v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(format!("{name} needs a finite number, got {v:?}")),
    }
}

fn parse_usize(name: &str, v: &str) -> Result<usize, String> {
    v.parse().map_err(|_| format!("{name} needs a non-negative integer, got {v:?}"))
}

/// Deterministic irregular test matrix (same construction the service
/// tests use, sized so one SpMV is tens of microseconds).
fn workload_matrix(nrows: usize, ncols: usize, seed: u64) -> Csr<u32, f64> {
    let mut t: Vec<(usize, usize, f64)> = Vec::new();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for r in 0..nrows {
        let len = 1 + (next() as usize) % 9;
        for _ in 0..len {
            t.push((r, (next() as usize) % ncols, ((next() % 17) as f64) - 8.0));
        }
    }
    let mut coo = Coo::from_triplets(nrows, ncols, t).expect("workload triplets");
    coo.canonicalize();
    coo.to_csr()
}

struct Workload {
    names: Vec<&'static str>,
    ncols: Vec<usize>,
}

fn build_service(args: &Args, deadline: Duration) -> (SpmvService, Workload) {
    let a = workload_matrix(20_000, 20_000, args.seed);
    let b = workload_matrix(12_000, 15_000, args.seed ^ 0x5bd1e995);
    let vi_b = CsrVi::from_csr(&b);
    let nchunks = 4 * args.threads;
    let ka: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(a), nchunks));
    let kb: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrViChunks::new(Arc::new(vi_b), nchunks));
    let workload = Workload { names: vec!["A", "B"], ncols: vec![ka.ncols(), kb.ncols()] };
    let cfg = ServiceConfig {
        queue_capacity: args.queue_capacity,
        default_deadline: deadline,
        max_batch: args.max_batch,
        threads: args.threads,
        shards: args.shards,
        // Chunk-pinned fault sites only fire on injectable workers, so a
        // fault run routes every chunk through the pool.
        caller_participates: !args.inject_faults,
        ..ServiceConfig::default()
    };
    #[allow(unused_mut)]
    let mut builder = ServiceBuilder::new(cfg).register_matrix("A", ka).register_matrix("B", kb);
    #[cfg(feature = "fault-injection")]
    if args.inject_faults {
        use spmv_parallel::faults::{FaultAction, FaultPlan, FaultSite};
        builder = builder.inject_faults(
            FaultPlan::new()
                .inject(FaultSite::chunk(0, 0), FaultAction::PanicOnce)
                .inject(FaultSite::chunk(2, 1), FaultAction::ExitThread)
                .inject(FaultSite::chunk(4, 0), FaultAction::DelayOnce(Duration::from_millis(30)))
                .inject(FaultSite::chunk(6, 2), FaultAction::PanicOnce),
        );
    }
    (builder.start(), workload)
}

fn x_for(ncols: usize, phase: u64) -> Vec<f64> {
    (0..ncols).map(|i| (((i as u64 + phase) % 23) as f64) * 0.37 - 3.0).collect()
}

fn request(w: &Workload, phase: u64, tenants: usize) -> Request {
    let m = (phase % w.names.len() as u64) as usize;
    Request {
        matrix: w.names[m].to_string(),
        tenant: format!("tenant-{}", phase % tenants as u64),
        x: x_for(w.ncols[m], phase),
        deadline: None,
    }
}

/// Closed-loop single-client throughput on a throwaway service: the
/// baseline the saturation estimate scales from. Runs ~400ms.
fn calibrate(args: &Args) -> f64 {
    let (svc, workload) = build_service(args, Duration::from_secs(10));
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < Duration::from_millis(400) {
        svc.submit(request(&workload, n, args.tenants)).expect("calibration request");
        n += 1;
    }
    let rps = n as f64 / t0.elapsed().as_secs_f64();
    drop(svc);
    rps.max(1.0)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}\n{HELP}");
            std::process::exit(2);
        }
    };

    let offered_rps = match args.rps {
        Some(r) => r,
        None => {
            eprintln!("calibrating closed-loop throughput...");
            let closed = calibrate(&args);
            // Coalescing amortizes matrix traffic across panel columns,
            // so open-loop capacity exceeds the closed-loop figure;
            // credit half the maximum width as the saturation estimate.
            let saturation = closed * (args.max_batch as f64 / 2.0).max(1.0);
            let offered = args.load_factor * saturation;
            eprintln!(
                "  closed-loop {closed:.0} rps, saturation est. {saturation:.0} rps, \
                 offering {offered:.0} rps (factor {})",
                args.load_factor
            );
            offered
        }
    };

    let deadline = Duration::from_secs_f64(args.deadline_ms / 1000.0);
    let (svc, workload) = build_service(&args, deadline);
    let svc = Arc::new(svc);
    let workload = Arc::new(workload);

    // Open-loop arrivals: request i is due at start + i/rps. A shared
    // counter hands arrival slots to whichever client is free; if every
    // client is blocked the generator momentarily degrades toward
    // closed-loop at `--clients` outstanding, which still overflows a
    // smaller queue.
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.duration);
    let arrivals = Arc::new(AtomicU64::new(0));
    let spacing = Duration::from_secs_f64(1.0 / offered_rps);

    let mut handles = Vec::new();
    for _ in 0..args.clients {
        let svc = Arc::clone(&svc);
        let workload = Arc::clone(&workload);
        let arrivals = Arc::clone(&arrivals);
        let tenants = args.tenants;
        handles.push(std::thread::spawn(move || {
            // (completed latencies, per-tenant queue waits, overload
            // sheds seen, quota sheds seen, deadline errors seen, other
            // typed errors seen)
            let mut latencies: Vec<f64> = Vec::new();
            let mut waits: Vec<(usize, f64)> = Vec::new();
            let mut seen = [0u64; 4];
            loop {
                let i = arrivals.fetch_add(1, Ordering::Relaxed);
                let due = start + spacing.mul_f64(i as f64);
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t0 = Instant::now();
                match svc.submit(request(&workload, i, tenants)) {
                    Ok(resp) => {
                        latencies.push(t0.elapsed().as_secs_f64());
                        waits.push(((i % tenants as u64) as usize, resp.queue_wait.as_secs_f64()));
                    }
                    Err(ServiceError::Overloaded { .. }) => seen[0] += 1,
                    Err(ServiceError::TenantQuotaExceeded { .. }) => seen[1] += 1,
                    Err(ServiceError::DeadlineExceeded { .. }) => seen[2] += 1,
                    Err(e) => {
                        seen[3] += 1;
                        eprintln!("loadgen: unexpected error: {e}");
                    }
                }
            }
            (latencies, waits, seen)
        }));
    }

    // The supervision drill: murder dispatcher shards round-robin while
    // the clients keep offering load. Every kill must be absorbed — the
    // supervisor respawns the shard and replays its unanswered batch.
    let killer = args.kill_shard.then(|| {
        let svc = Arc::clone(&svc);
        let nshards = args.shards;
        std::thread::spawn(move || {
            let mut kills = 0u64;
            let interval = (end - start) / (nshards as u32 + 1);
            for i in 0..nshards {
                let due = start + interval * (i as u32 + 1);
                let now = Instant::now();
                if due >= end {
                    break;
                }
                if due > now {
                    std::thread::sleep(due - now);
                }
                if svc.kill_shard(i % nshards) {
                    kills += 1;
                }
            }
            kills
        })
    });

    let mut latencies: Vec<f64> = Vec::new();
    let mut tenant_samples: Vec<Vec<f64>> = vec![Vec::new(); args.tenants];
    let mut unexpected = 0u64;
    for h in handles {
        let (l, waits, seen) = h.join().expect("client thread");
        latencies.extend(l);
        for (t, w) in waits {
            tenant_samples[t].push(w);
        }
        unexpected += seen[3];
    }
    let shard_kills = killer.map(|h| h.join().expect("killer thread")).unwrap_or(0);
    let elapsed = start.elapsed().as_secs_f64();
    let stats = Arc::into_inner(svc).expect("all clients joined").shutdown();

    if unexpected > 0 {
        eprintln!("loadgen: {unexpected} requests hit unexpected error types");
        std::process::exit(1);
    }
    if latencies.is_empty() {
        eprintln!("loadgen: no request completed; offered load or deadline is unusable");
        std::process::exit(1);
    }
    let latency = TimingStats::from_samples(&latencies).expect("latency stats");
    let tenant_waits: Vec<TenantWait> = tenant_samples
        .iter()
        .enumerate()
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(t, samples)| {
            let s = TimingStats::from_samples(samples).expect("wait stats");
            TenantWait {
                tenant: format!("tenant-{t}"),
                completed: samples.len() as u64,
                p50_wait_ms: s.median_s * 1e3,
                p99_wait_ms: s.p99_s * 1e3,
            }
        })
        .collect();
    let shards: Vec<ShardSummary> = stats
        .shards
        .iter()
        .map(|s| ShardSummary {
            shard: s.shard,
            submitted: s.submitted,
            admitted: s.admitted,
            shed_overload: s.shed_overload,
            shed_quota: s.shed_quota,
            deadline_expired: s.deadline_expired,
            completed: s.completed,
            failed: s.failed,
            requeued: s.requeued,
            respawns: s.respawns,
            degraded: s.degraded,
        })
        .collect();

    let shed = stats.shed_overload + stats.shed_quota;
    println!("== loadgen: {:.1}s at {offered_rps:.0} rps offered ==", elapsed);
    println!(
        "  submitted {:>7}   admitted {:>7}   shed {:>7} (overload {}, quota {})",
        stats.submitted, stats.admitted, shed, stats.shed_overload, stats.shed_quota
    );
    println!(
        "  completed {:>7}   expired  {:>7}   failed {:>5}   retries {}   breaker trips {}",
        stats.completed, stats.deadline_expired, stats.failed, stats.retries, stats.breaker_trips
    );
    println!(
        "  latency over completed: p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms  (deadline {:.1}ms)",
        latency.median_s * 1e3,
        latency.p95_s * 1e3,
        latency.p99_s * 1e3,
        args.deadline_ms
    );
    let histogram: Vec<String> =
        stats.batch_sizes.iter().enumerate().map(|(i, n)| format!("k={}:{n}", i + 1)).collect();
    println!("  batches: {}", histogram.join("  "));
    for s in &shards {
        println!(
            "  shard {}: submitted {:>6}  completed {:>6}  requeued {:>3}  respawns {:>2}{}",
            s.shard,
            s.submitted,
            s.completed,
            s.requeued,
            s.respawns,
            if s.degraded { "  DEGRADED" } else { "" }
        );
    }
    if shard_kills > 0 {
        println!(
            "  supervision drill: {shard_kills} shard kills, {} requeues, {} respawns",
            stats.requeued(),
            stats.respawns()
        );
    }
    for w in &tenant_waits {
        println!(
            "  {}: {:>6} completed, queue wait p50 {:.2}ms p99 {:.2}ms",
            w.tenant, w.completed, w.p50_wait_ms, w.p99_wait_ms
        );
    }

    let summary = ServiceSummary {
        offered_rps,
        duration_s: elapsed,
        tenants: args.tenants,
        deadline_ms: args.deadline_ms,
        submitted: stats.submitted,
        admitted: stats.admitted,
        shed_overload: stats.shed_overload,
        shed_quota: stats.shed_quota,
        deadline_expired: stats.deadline_expired,
        completed: stats.completed,
        failed: stats.failed,
        retries: stats.retries,
        breaker_trips: stats.breaker_trips,
        latency,
        batch_sizes: stats.batch_sizes.to_vec(),
        shard_kills,
        shards,
        tenant_waits,
    };

    if let Some(dir) = &args.out {
        eprintln!("measuring stream bandwidth for the artifact...");
        let file = BenchFile {
            schema_version: BENCH_SCHEMA_VERSION,
            machine: MachineInfo::measure(),
            scale: 1.0,
            iterations: stats.completed.max(1) as usize,
            seed: args.seed,
            records: Vec::new(),
            service: Some(summary),
            plan_cache: None,
            spmspv: None,
        };
        match spmv_bench::metrics::write_bench(dir, &file) {
            Ok(path) => eprintln!("  wrote {}", path.display()),
            Err(e) => {
                eprintln!("loadgen: refusing to write invalid artifact: {e}");
                std::process::exit(1);
            }
        }
    }

    if args.require_shed && shed == 0 {
        eprintln!(
            "loadgen: --require-shed: no requests were shed (offered {offered_rps:.0} rps \
             did not saturate the service)"
        );
        std::process::exit(1);
    }
}

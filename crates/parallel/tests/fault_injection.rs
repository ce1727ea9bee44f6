//! Fault-injection recovery matrix (requires `--features fault-injection`).
//!
//! Drives scripted faults — worker panics, stalls past the watchdog
//! deadline, thread deaths, and silent chunk corruption — through both
//! parallel execution layers, across thread counts {1, 2, 4, 7}, and
//! asserts the two acceptance properties after every recovery:
//!
//! 1. the result is **bit-identical** to the serial kernel;
//! 2. the executor remains **reusable** (a healthy follow-up call
//!    succeeds and matches serial again).
//!
//! Tests arm their [`FaultPlan`] on the calling thread, so concurrent
//! tests cannot see each other's faults. Injection is deterministic: the
//! supervised tests disable caller participation and key their rules by
//! **chunk** (chunks are claimed dynamically, so a tid-keyed rule could
//! miss if another worker drains the queue first — whichever worker
//! claims the targeted chunk receives the fault); the pool tests key by
//! **tid**, which is deterministic there because each worker always
//! executes exactly its own `tid` slice.

#![cfg(feature = "fault-injection")]

use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::{Coo, Csr, SpMv};
use spmv_parallel::faults::{FaultAction, FaultPlan, FaultSite};
use spmv_parallel::supervised::{
    ChunkKernel, CsrChunks, CsrDuChunks, FaultEvent, PanelInput, PoolError, RecoveryPolicy,
    SupervisedSpMv, WatchdogOpts,
};
use spmv_parallel::{PoolEvent, WorkerPool};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn irregular(nrows: usize, ncols: usize, seed: u64) -> Coo<f64> {
    let mut t: Vec<(usize, usize, f64)> = Vec::new();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for r in 0..nrows {
        let len = 1 + (next() as usize) % 8;
        for _ in 0..len {
            t.push((r, (next() as usize) % ncols, ((next() % 17) as f64) - 8.0));
        }
    }
    let mut coo = Coo::from_triplets(nrows, ncols, t).unwrap();
    coo.canonicalize();
    coo
}

fn x_for(ncols: usize) -> Vec<f64> {
    (0..ncols).map(|i| ((i % 23) as f64) * 0.37 - 3.0).collect()
}

/// Supervised opts for injection tests: short deadline (stall/death
/// recovery is deadline-gated), caller dedicated to supervision so the
/// targeted worker deterministically claims chunks.
fn injection_opts(policy: RecoveryPolicy) -> WatchdogOpts {
    WatchdogOpts {
        deadline: Duration::from_millis(40),
        policy,
        verify_every: 0,
        caller_participates: false,
    }
}

/// Runs the fault × recovery matrix for one scripted action against the
/// supervised executor and checks both acceptance properties.
fn supervised_recovers_from(action: FaultAction, expect_fires: bool) {
    let coo = irregular(160, 120, 42);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(120);
    let mut y_serial = vec![0.0; 160];
    csr.spmv(&x, &mut y_serial);
    for &nthreads in &THREAD_COUNTS {
        let kernel: Arc<dyn ChunkKernel<f64>> =
            Arc::new(CsrChunks::new(Arc::new(csr.clone()), nthreads.max(2) * 2));
        let mut sup =
            SupervisedSpMv::with_opts(kernel, nthreads, injection_opts(RecoveryPolicy::Degrade));
        // Target chunk 0 of dispatch 0: with >= 2 threads some worker
        // necessarily claims it (caller doesn't participate); with one
        // thread no worker exists, the rule cannot fire, and the run must
        // simply stay correct (the watchdog recovers every chunk).
        let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), action).arm();
        let mut y = vec![-7.0; 160];
        let report = sup.spmv(&x, &mut y).expect("degrade mode recovers");
        assert_eq!(
            y, y_serial,
            "recovered result must be bit-identical ({action:?}, {nthreads} threads)"
        );
        if nthreads >= 2 && expect_fires {
            assert_eq!(armed.fired_count(), 1, "{action:?} must fire once");
            assert!(
                report.degraded(),
                "{action:?} with {nthreads} threads: expected a recorded event, got {:?}",
                report.events
            );
        }
        drop(armed);
        // Reusability: a healthy follow-up call on the same plan.
        let mut y2 = vec![0.0; 160];
        let report2 = sup.spmv(&x, &mut y2).expect("pool reusable after recovery");
        assert_eq!(y2, y_serial, "follow-up call after {action:?}");
        assert!(
            !report2.degraded(),
            "follow-up after {action:?} must be healthy, got {:?}",
            report2.events
        );
    }
}

#[test]
fn supervised_recovers_from_worker_panic() {
    supervised_recovers_from(FaultAction::PanicOnce, true);
}

#[test]
fn supervised_recovers_from_worker_stall() {
    supervised_recovers_from(FaultAction::DelayOnce(Duration::from_millis(150)), true);
}

#[test]
fn supervised_recovers_from_worker_death() {
    supervised_recovers_from(FaultAction::ExitThread, true);
}

#[test]
fn supervised_panic_recovery_reports_event_and_respawn_keeps_strength() {
    let coo = irregular(100, 90, 3);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(90);
    let mut y_serial = vec![0.0; 100];
    csr.spmv(&x, &mut y_serial);
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 6));
    let mut sup = SupervisedSpMv::with_opts(kernel, 3, injection_opts(RecoveryPolicy::Degrade));
    let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::ExitThread).arm();
    let mut y = vec![0.0; 100];
    let report = sup.spmv(&x, &mut y).expect("degrade");
    assert_eq!(armed.fired_count(), 1);
    assert_eq!(y, y_serial);
    let died = report.events.iter().find_map(|e| match e {
        FaultEvent::WorkerDied { tid, .. } => Some(*tid),
        _ => None,
    });
    let died = died.unwrap_or_else(|| panic!("expected WorkerDied, got {:?}", report.events));
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::WorkerRespawned { tid } if *tid == died)),
        "dead worker {died} must be respawned: {:?}",
        report.events
    );
    assert!(report.recovered_chunks >= 1);
}

#[test]
fn supervised_self_check_catches_injected_corruption() {
    let coo = irregular(140, 110, 8);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(110);
    let mut y_serial = vec![0.0; 140];
    csr.spmv(&x, &mut y_serial);
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrDuChunks::new(Arc::new(du), 6));
    let opts = WatchdogOpts {
        verify_every: 1, // check every chunk: corruption cannot hide
        ..injection_opts(RecoveryPolicy::Degrade)
    };
    let mut sup = SupervisedSpMv::with_opts(kernel, 3, opts);
    let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::CorruptChunk).arm();
    let mut y = vec![0.0; 140];
    let report = sup.spmv(&x, &mut y).expect("degrade replaces corrupted chunk");
    assert_eq!(armed.fired_count(), 1);
    assert_eq!(y, y_serial, "self-check must restore the corrupted chunk");
    assert!(
        report.events.iter().any(|e| matches!(e, FaultEvent::ChunkCorrupted { .. })),
        "events: {:?}",
        report.events
    );
}

#[test]
fn supervised_failfast_returns_typed_errors() {
    let coo = irregular(120, 100, 5);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(100);
    let cases: Vec<(FaultAction, fn(&PoolError) -> bool)> = vec![
        (FaultAction::PanicOnce, |e| matches!(e, PoolError::WorkerPanicked { .. })),
        (FaultAction::DelayOnce(Duration::from_millis(200)), |e| {
            matches!(e, PoolError::WorkerStalled { .. })
        }),
        (FaultAction::ExitThread, |e| matches!(e, PoolError::WorkerDied { .. })),
    ];
    for (action, matches_err) in cases {
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr.clone()), 4));
        let mut sup =
            SupervisedSpMv::with_opts(kernel, 2, injection_opts(RecoveryPolicy::FailFast));
        let _armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), action).arm();
        let mut y = vec![123.0; 120];
        let err = sup.spmv(&x, &mut y).expect_err("failfast surfaces the fault");
        assert!(matches_err(&err), "{action:?} yielded {err:?}");
        assert_eq!(y, vec![123.0; 120], "failfast must leave y untouched");
    }
}

#[test]
fn supervised_failfast_corruption_error() {
    let coo = irregular(80, 80, 6);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(80);
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 4));
    let opts = WatchdogOpts { verify_every: 1, ..injection_opts(RecoveryPolicy::FailFast) };
    let mut sup = SupervisedSpMv::with_opts(kernel, 2, opts);
    let _armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::CorruptChunk).arm();
    let mut y = vec![0.0; 80];
    let err = sup.spmv(&x, &mut y).expect_err("corruption must fail fast");
    assert!(matches!(err, PoolError::ChunkCorrupted { .. }), "{err:?}");
}

#[test]
fn supervised_repeated_faults_across_calls_stay_correct() {
    // One plan, faults on several consecutive calls: the roster respawn
    // must keep the pool at strength through repeated degradation.
    let coo = irregular(130, 100, 12);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(100);
    let mut y_serial = vec![0.0; 130];
    csr.spmv(&x, &mut y_serial);
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 8));
    let mut sup = SupervisedSpMv::with_opts(kernel, 4, injection_opts(RecoveryPolicy::Degrade));
    let armed = FaultPlan::new()
        .inject(FaultSite::chunk(0, 0), FaultAction::PanicOnce)
        .inject(FaultSite::chunk(1, 3), FaultAction::ExitThread)
        .inject(FaultSite::chunk(2, 7), FaultAction::DelayOnce(Duration::from_millis(120)))
        .arm();
    for call in 0..4 {
        let mut y = vec![0.0; 130];
        sup.spmv(&x, &mut y).expect("degrade");
        assert_eq!(y, y_serial, "call {call}");
    }
    assert_eq!(armed.fired_count(), 3, "all three scripted faults fired");
}

// ---------------------------------------------------------------------
// SpMM (multi-vector) chunks: same fault model, panel outputs
// ---------------------------------------------------------------------

fn x_panel_for(ncols: usize, k: usize) -> Vec<f64> {
    (0..ncols * k).map(|i| ((i % 29) as f64) * 0.23 - 2.0).collect()
}

/// SpMM analogue of [`supervised_recovers_from`]: a fault during a
/// multi-vector chunk must recover under Degrade with a panel
/// bit-identical to the serial SpMM.
fn supervised_spmm_recovers_from(action: FaultAction, expect_fires: bool) {
    let coo = irregular(160, 120, 42);
    let csr: Csr<u32, f64> = coo.to_csr();
    let k = 4;
    let x = x_panel_for(120, k);
    let mut y_serial = vec![0.0; 160 * k];
    csr.spmm(&x, k, &mut y_serial);
    for &nthreads in &THREAD_COUNTS {
        let kernel: Arc<dyn ChunkKernel<f64>> =
            Arc::new(CsrChunks::new(Arc::new(csr.clone()), nthreads.max(2) * 2));
        let mut sup =
            SupervisedSpMv::with_opts(kernel, nthreads, injection_opts(RecoveryPolicy::Degrade));
        let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), action).arm();
        let mut y = vec![-7.0; 160 * k];
        let report = sup.spmm(&x, k, &mut y).expect("degrade mode recovers");
        assert_eq!(
            y, y_serial,
            "recovered panel must be bit-identical ({action:?}, {nthreads} threads)"
        );
        if nthreads >= 2 && expect_fires {
            assert_eq!(armed.fired_count(), 1, "{action:?} must fire once");
            assert!(report.degraded(), "{action:?}: expected an event, got {:?}", report.events);
        }
        drop(armed);
        // Reusability: a healthy follow-up SpMM on the same plan.
        let mut y2 = vec![0.0; 160 * k];
        let report2 = sup.spmm(&x, k, &mut y2).expect("pool reusable after recovery");
        assert_eq!(y2, y_serial, "follow-up call after {action:?}");
        assert!(!report2.degraded(), "follow-up must be healthy, got {:?}", report2.events);
    }
}

#[test]
fn supervised_spmm_recovers_from_worker_panic() {
    supervised_spmm_recovers_from(FaultAction::PanicOnce, true);
}

#[test]
fn supervised_spmm_recovers_from_worker_stall() {
    supervised_spmm_recovers_from(FaultAction::DelayOnce(Duration::from_millis(150)), true);
}

#[test]
fn supervised_spmm_recovers_from_worker_death() {
    supervised_spmm_recovers_from(FaultAction::ExitThread, true);
}

#[test]
fn supervised_spmm_self_check_catches_injected_corruption() {
    // CorruptChunk flips the first element of the chunk's *panel*; the
    // bit-exact self-check must catch it and restore the serial panel.
    let coo = irregular(140, 110, 8);
    let csr: Csr<u32, f64> = coo.to_csr();
    let k = 3;
    let x = x_panel_for(110, k);
    let mut y_serial = vec![0.0; 140 * k];
    csr.spmm(&x, k, &mut y_serial);
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrDuChunks::new(Arc::new(du), 6));
    let opts = WatchdogOpts { verify_every: 1, ..injection_opts(RecoveryPolicy::Degrade) };
    let mut sup = SupervisedSpMv::with_opts(kernel, 3, opts);
    let armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::CorruptChunk).arm();
    let mut y = vec![0.0; 140 * k];
    let report = sup.spmm(&x, k, &mut y).expect("degrade replaces corrupted chunk");
    assert_eq!(armed.fired_count(), 1);
    assert_eq!(y, y_serial, "self-check must restore the corrupted panel");
    assert!(
        report.events.iter().any(|e| matches!(e, FaultEvent::ChunkCorrupted { .. })),
        "events: {:?}",
        report.events
    );
}

#[test]
fn supervised_spmm_failfast_leaves_panel_untouched() {
    let coo = irregular(120, 100, 5);
    let csr: Csr<u32, f64> = coo.to_csr();
    let k = 4;
    let x = x_panel_for(100, k);
    let cases: Vec<(FaultAction, fn(&PoolError) -> bool)> = vec![
        (FaultAction::PanicOnce, |e| matches!(e, PoolError::WorkerPanicked { .. })),
        (FaultAction::DelayOnce(Duration::from_millis(200)), |e| {
            matches!(e, PoolError::WorkerStalled { .. })
        }),
        (FaultAction::ExitThread, |e| matches!(e, PoolError::WorkerDied { .. })),
    ];
    for (action, matches_err) in cases {
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr.clone()), 4));
        let mut sup =
            SupervisedSpMv::with_opts(kernel, 2, injection_opts(RecoveryPolicy::FailFast));
        let _armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), action).arm();
        let mut y = vec![123.0; 120 * k];
        let err = sup.spmm(&x, k, &mut y).expect_err("failfast surfaces the fault");
        assert!(matches_err(&err), "{action:?} yielded {err:?}");
        assert_eq!(y, vec![123.0; 120 * k], "failfast must leave the panel untouched");
    }
}

#[test]
fn supervised_spmm_failfast_corruption_error() {
    let coo = irregular(80, 80, 6);
    let csr: Csr<u32, f64> = coo.to_csr();
    let k = 2;
    let x = x_panel_for(80, k);
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 4));
    let opts = WatchdogOpts { verify_every: 1, ..injection_opts(RecoveryPolicy::FailFast) };
    let mut sup = SupervisedSpMv::with_opts(kernel, 2, opts);
    let _armed = FaultPlan::new().inject(FaultSite::chunk(0, 0), FaultAction::CorruptChunk).arm();
    let mut y = vec![9.5; 80 * k];
    let err = sup.spmm(&x, k, &mut y).expect_err("corruption must fail fast");
    assert!(matches!(err, PoolError::ChunkCorrupted { .. }), "{err:?}");
    assert_eq!(y, vec![9.5; 80 * k], "failfast corruption must leave the panel untouched");
}

// ---------------------------------------------------------------------
// Buffer retirement: a stalled worker's late write lands in a retired set
// ---------------------------------------------------------------------

/// CSR chunks that can be slowed down, and that timestamp every chunk
/// computed from the marked input — how the drill sees the abandoned
/// straggler's late write.
struct Watched {
    inner: CsrChunks<Arc<Csr<u32, f64>>>,
    slow: AtomicBool,
    mark: f64,
    marked: Mutex<Vec<Instant>>,
}

impl Watched {
    fn after(&self, x: &[f64]) {
        if x[0].to_bits() == self.mark.to_bits() {
            self.marked.lock().unwrap().push(Instant::now());
        }
    }
}

impl ChunkKernel<f64> for Watched {
    fn nrows(&self) -> usize {
        ChunkKernel::nrows(&self.inner)
    }
    fn ncols(&self) -> usize {
        ChunkKernel::ncols(&self.inner)
    }
    fn nchunks(&self) -> usize {
        ChunkKernel::nchunks(&self.inner)
    }
    fn chunk_rows(&self, chunk: usize) -> std::ops::Range<usize> {
        self.inner.chunk_rows(chunk)
    }
    fn compute(&self, chunk: usize, x: &[f64], out: &mut [f64]) {
        self.compute_block(chunk, x, 1, out);
    }
    fn compute_block(&self, chunk: usize, x: &[f64], k: usize, out: &mut [f64]) {
        if self.slow.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(8));
        }
        self.inner.compute_block(chunk, x, k, out);
        self.after(x);
    }
}

/// One call through the borrowed (`spmm`, `y` prefilled with 123.0) or
/// the shared-input (`run` + `output`) entry point.
fn drill_call(
    sup: &mut SupervisedSpMv<f64>,
    x: &[f64],
    k: usize,
    nrows: usize,
    shared: bool,
) -> (Result<spmv_parallel::HealthReport, PoolError>, Vec<f64>) {
    if shared {
        let res = sup.run(PanelInput::Shared(Arc::new(x.to_vec())), k);
        (res, sup.output().to_vec())
    } else {
        let mut y = vec![123.0; nrows * k];
        let res = sup.spmm(x, k, &mut y);
        (res, y)
    }
}

/// Stalls the worker holding chunk 0 of dispatch 0 past the deadline,
/// then keeps dispatching (at least two more calls, each on a fresh
/// input) until the abandoned straggler has woken and written its chunk
/// into the set it was retired with. Every later call must be healthy
/// and bit-identical to serial: the late write may not reach live
/// memory.
fn stall_retires_buffer_set(policy: RecoveryPolicy, k: usize) {
    let (nrows, ncols) = (160, 120);
    let csr: Csr<u32, f64> = irregular(nrows, ncols, 42).to_csr();
    let xs: Vec<Vec<f64>> = (0..16)
        .map(|d| {
            let mut x = x_panel_for(ncols, k);
            x[0] = 100.0 + d as f64; // distinct inputs, marked by x[0]
            x
        })
        .collect();
    let want: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0; nrows * k];
            csr.spmm(x, k, &mut y);
            y
        })
        .collect();
    let csr = Arc::new(csr);
    for shared in [false, true] {
        let kernel = Arc::new(Watched {
            inner: CsrChunks::new(Arc::clone(&csr), 8),
            slow: AtomicBool::new(false),
            mark: xs[0][0],
            marked: Mutex::new(Vec::new()),
        });
        let dyn_kernel: Arc<dyn ChunkKernel<f64>> = kernel.clone();
        let mut sup = SupervisedSpMv::with_opts(dyn_kernel, 3, injection_opts(policy));
        let armed = FaultPlan::new()
            .inject(FaultSite::chunk(0, 0), FaultAction::DelayOnce(Duration::from_millis(120)))
            .arm();
        let (res, y) = drill_call(&mut sup, &xs[0], k, nrows, shared);
        let call0_end = Instant::now();
        assert_eq!(armed.fired_count(), 1, "the stall must be injected");
        let what = format!("{policy:?} k={k} shared={shared}");
        match policy {
            RecoveryPolicy::Degrade => {
                let report = res.expect("degrade recovers the stall");
                assert_eq!(y, want[0], "{what}: call 0");
                assert!(
                    report.events.iter().any(|e| matches!(e, FaultEvent::WorkerStalled { .. }))
                        && report
                            .events
                            .iter()
                            .any(|e| matches!(e, FaultEvent::WorkerRespawned { .. })),
                    "{what}: call 0 events {:?}",
                    report.events
                );
            }
            RecoveryPolicy::FailFast => {
                let err = res.expect_err("failfast surfaces the stall");
                assert!(matches!(err, PoolError::WorkerStalled { .. }), "{what}: {err:?}");
                let untouched = if shared { Vec::new() } else { vec![123.0; nrows * k] };
                assert_eq!(y, untouched, "{what}: failfast must leave the output untouched");
            }
        }
        // Slow, patient calls: each one spans tens of milliseconds, so
        // the straggler wakes and writes while they run.
        kernel.slow.store(true, Ordering::Release);
        sup.set_deadline(Duration::from_secs(30));
        let mut d = 1;
        loop {
            let (res, y) = drill_call(&mut sup, &xs[d], k, nrows, shared);
            let report = res.expect("later calls are healthy");
            assert_eq!(y, want[d], "{what}: call {d}");
            assert!(!report.degraded(), "{what}: call {d} events {:?}", report.events);
            d += 1;
            let late = kernel.marked.lock().unwrap().iter().any(|t| *t > call0_end);
            if d >= 3 && late {
                break;
            }
            assert!(d < xs.len(), "{what}: the straggler never wrote");
        }
        drop(armed);
    }
}

#[test]
fn supervised_stall_retires_buffer_set_under_degrade() {
    stall_retires_buffer_set(RecoveryPolicy::Degrade, 1);
}

#[test]
fn supervised_stall_retires_buffer_set_under_failfast() {
    stall_retires_buffer_set(RecoveryPolicy::FailFast, 1);
}

#[test]
fn supervised_spmm_stall_retires_buffer_set_under_degrade() {
    stall_retires_buffer_set(RecoveryPolicy::Degrade, 4);
}

#[test]
fn supervised_spmm_stall_retires_buffer_set_under_failfast() {
    stall_retires_buffer_set(RecoveryPolicy::FailFast, 4);
}

// ---------------------------------------------------------------------
// Borrowed-job pool layer
// ---------------------------------------------------------------------

/// Pool deadline for injection tests: short, so dead-worker takeover
/// happens quickly.
fn test_pool(nthreads: usize) -> WorkerPool {
    WorkerPool::with_deadline(nthreads, Duration::from_millis(25))
}

#[test]
fn pool_takes_over_dead_worker_and_respawns() {
    for &nthreads in THREAD_COUNTS.iter().filter(|&&n| n >= 2) {
        let mut pool = test_pool(nthreads);
        let armed = FaultPlan::new().inject(FaultSite::worker(0, 1), FaultAction::ExitThread).arm();
        let hits: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|tid| {
            hits[tid].fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(armed.fired_count(), 1, "nthreads={nthreads}");
        // Every tid's slice ran exactly once — tid 1's via caller takeover.
        for (tid, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "tid {tid}, nthreads={nthreads}");
        }
        let events = pool.take_events();
        assert!(
            events.iter().any(|e| matches!(e, PoolEvent::WorkerDied { tid: 1, .. })),
            "nthreads={nthreads}: {events:?}"
        );
        drop(armed);
        // Reuse: next dispatch respawns the dead worker and runs clean.
        let hits2: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|tid| {
            hits2[tid].fetch_add(1, Ordering::SeqCst);
        });
        for (tid, h) in hits2.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "reuse tid {tid}, nthreads={nthreads}");
        }
        let events = pool.take_events();
        assert!(
            events.iter().any(|e| matches!(e, PoolEvent::WorkerRespawned { tid: 1 })),
            "nthreads={nthreads}: {events:?}"
        );
    }
}

#[test]
fn pool_flags_slow_worker_but_waits_for_it() {
    let mut pool = test_pool(3);
    let _armed = FaultPlan::new()
        .inject(FaultSite::worker(0, 2), FaultAction::DelayOnce(Duration::from_millis(100)))
        .arm();
    let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
    pool.run(|tid| {
        hits[tid].fetch_add(1, Ordering::SeqCst);
    });
    // The stalled worker was waited for (borrowed job: abandonment would
    // be unsound), so its slice still ran exactly once.
    for (tid, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::SeqCst), 1, "tid {tid}");
    }
    let events = pool.take_events();
    assert!(events.iter().any(|e| matches!(e, PoolEvent::SlowWorker { tid: 2, .. })), "{events:?}");
}

#[test]
fn pool_heartbeats_advance_for_healthy_workers() {
    let mut pool = test_pool(4);
    let before = pool.heartbeats();
    pool.run(|_tid| {});
    let after = pool.heartbeats();
    for tid in 1..4 {
        assert!(
            after[tid - 1] >= before[tid - 1] + 2,
            "worker {tid} heartbeat must advance (pickup + completion)"
        );
    }
}

#[test]
fn par_executor_survives_worker_death_mid_spmv() {
    // End-to-end through a real executor: kill a worker during a
    // parallel CSR SpMV; the result must still be bit-identical and the
    // plan reusable. Uses the env-independent pool inside ParCsr, so the
    // deadline is the default — the takeover happens within ~1 s.
    let coo = irregular(200, 150, 21);
    let csr: Csr<u32, f64> = coo.to_csr();
    let x = x_for(150);
    let mut y_serial = vec![0.0; 200];
    csr.spmv(&x, &mut y_serial);
    let mut par = spmv_parallel::ParCsr::new(&csr, 4);
    let armed = FaultPlan::new().inject(FaultSite::worker(0, 2), FaultAction::ExitThread).arm();
    let mut y = vec![0.0; 200];
    use spmv_parallel::ParSpMv;
    par.par_spmv(&x, &mut y);
    assert_eq!(armed.fired_count(), 1);
    assert_eq!(y, y_serial, "takeover must reproduce the serial result");
    drop(armed);
    let mut y2 = vec![0.0; 200];
    par.par_spmv(&x, &mut y2);
    assert_eq!(y2, y_serial, "plan reusable after worker death");
}

#[test]
fn spmspv_bucket_plan_survives_worker_death_in_every_phase() {
    // The bucket plan issues four dispatches per call (count, scatter,
    // accumulate, gather); each slice is documented idempotent, so a
    // worker death in any phase must recover bit-identically. Dispatch
    // ids on a fresh pool are 0..4, which lets the plan target phases.
    use spmv_core::spmspv::SpMSpV;
    use spmv_core::{Csc, SparseVec};
    use spmv_parallel::ParSpMSpV;
    let coo = irregular(180, 140, 33);
    let csr: Csr<u32, f64> = coo.to_csr();
    let csc = Csc::from_csr(&csr).unwrap();
    let ind: Vec<u32> = (0..140).step_by(4).collect();
    let val: Vec<f64> = ind.iter().map(|&i| 0.5 + (i % 5) as f64).collect();
    let x = SparseVec::new(140, ind, val).unwrap();
    let reference = csc.spmspv(&x).unwrap();
    for phase in 0..4u64 {
        let mut plan = ParSpMSpV::new(&csc, 4);
        let armed =
            FaultPlan::new().inject(FaultSite::worker(phase, 2), FaultAction::ExitThread).arm();
        let got = plan.spmspv(&x).expect("recovered call succeeds");
        assert_eq!(armed.fired_count(), 1, "phase {phase}");
        assert_eq!(got, reference, "phase {phase}: takeover must be bit-identical");
        let events = plan.take_events();
        assert!(
            events.iter().any(|e| matches!(e, PoolEvent::WorkerDied { tid: 2, .. })),
            "phase {phase}: {events:?}"
        );
        drop(armed);
        // Reusability: a healthy follow-up on the same plan (the dead
        // worker is respawned at its next dispatch).
        assert_eq!(plan.spmspv(&x).unwrap(), reference, "phase {phase}: reuse");
    }
}

#[test]
fn spmspv_masked_plan_survives_worker_death() {
    use spmv_core::spmspv::SpMSpV;
    use spmv_core::SparseVec;
    use spmv_parallel::ParMaskedSpMSpV;
    let coo = irregular(180, 140, 34);
    let csr: Csr<u32, f64> = coo.to_csr();
    let ind: Vec<u32> = (0..140).step_by(3).collect();
    let val: Vec<f64> = ind.iter().map(|&i| 1.0 + (i % 3) as f64 * 0.5).collect();
    let x = SparseVec::new(140, ind, val).unwrap();
    let reference = csr.spmspv(&x).unwrap();
    for phase in 0..2u64 {
        let mut plan = ParMaskedSpMSpV::new(&csr, 4);
        let armed =
            FaultPlan::new().inject(FaultSite::worker(phase, 1), FaultAction::ExitThread).arm();
        let got = plan.spmspv(&x).expect("recovered call succeeds");
        assert_eq!(armed.fired_count(), 1, "phase {phase}");
        assert_eq!(got, reference, "phase {phase}: takeover must be bit-identical");
        drop(armed);
        assert_eq!(plan.spmspv(&x).unwrap(), reference, "phase {phase}: reuse");
    }
}

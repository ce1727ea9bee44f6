//! A worker panic whose panic hook outlasts the watchdog deadline is still
//! a panic, not a stall.
//!
//! The panic hook runs on the panicking worker before the unwind reaches
//! the executor's `catch_unwind`, so a slow hook (symbolizing a
//! backtrace, say) can keep the panic unrecorded past the deadline. This
//! file holds a single test because the hook is process-wide: it is set
//! before any executor exists, as an application would set its own.

use spmv_core::{Coo, Csr, SpMv};
use spmv_parallel::{
    ChunkKernel, CsrChunks, FaultEvent, HealthReport, PoolError, RecoveryPolicy, SupervisedSpMv,
    WatchdogOpts,
};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Chunks that really `panic!` the first time chunk 0 is computed.
struct PanicOnce {
    inner: Arc<dyn ChunkKernel<f64>>,
    armed: AtomicBool,
}

impl PanicOnce {
    fn check(&self, chunk: usize) {
        if chunk == 0 && self.armed.swap(false, Ordering::AcqRel) {
            panic!("chunk kernel panic");
        }
    }
}

impl ChunkKernel<f64> for PanicOnce {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nchunks(&self) -> usize {
        self.inner.nchunks()
    }
    fn chunk_rows(&self, chunk: usize) -> Range<usize> {
        self.inner.chunk_rows(chunk)
    }
    fn compute(&self, chunk: usize, x: &[f64], out: &mut [f64]) {
        self.check(chunk);
        self.inner.compute(chunk, x, out);
    }
    fn compute_block(&self, chunk: usize, x: &[f64], k: usize, out: &mut [f64]) {
        self.check(chunk);
        self.inner.compute_block(chunk, x, k, out);
    }
}

#[test]
fn panic_with_a_slow_hook_is_reported_as_a_panic() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        std::thread::sleep(Duration::from_millis(150));
        default_hook(info);
    }));

    let t: Vec<_> = (0..64).flat_map(|r| [(r, r, 2.0), (r, (r * 7 + 3) % 64, -1.0)]).collect();
    let mut coo = Coo::from_triplets(64, 64, t).unwrap();
    coo.canonicalize();
    let csr: Csr<u32, f64> = coo.to_csr();
    let x: Vec<f64> = (0..64).map(|i| (i % 9) as f64 - 4.0).collect();
    let mut want = vec![0.0; 64];
    csr.spmv(&x, &mut want);
    let csr = Arc::new(csr);

    let run = |policy| -> (Result<HealthReport, PoolError>, Vec<f64>) {
        let kernel = PanicOnce {
            inner: Arc::new(CsrChunks::new(Arc::clone(&csr), 4)),
            armed: AtomicBool::new(true),
        };
        // The caller only supervises, so the one worker claims chunk 0.
        let opts = WatchdogOpts {
            deadline: Duration::from_millis(40),
            policy,
            verify_every: 0,
            caller_participates: false,
        };
        let mut sup = SupervisedSpMv::with_opts(Arc::new(kernel), 2, opts);
        let mut y = vec![f64::NAN; 64];
        (sup.spmv(&x, &mut y), y)
    };

    let (failfast, _) = run(RecoveryPolicy::FailFast);
    assert_eq!(failfast, Err(PoolError::WorkerPanicked { tid: 1, chunk: 0 }));

    let (degrade, y) = run(RecoveryPolicy::Degrade);
    let report = degrade.expect("Degrade recovers a panicked chunk");
    let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&y), bits(&want), "recovered result must be bit-identical to serial");
    assert!(
        report.events.contains(&FaultEvent::WorkerPanicked { tid: 1, chunk: 0 }),
        "events: {:?}",
        report.events
    );
    assert!(
        !report.events.iter().any(|e| matches!(e, FaultEvent::WorkerStalled { .. })),
        "a panic must not read as a stall: {:?}",
        report.events
    );
}

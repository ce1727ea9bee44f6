//! Allocation budget of the served path, counted by a global allocator.
//!
//! After warm-up, a healthy supervised call must allocate nothing
//! vector-sized (its buffer set is reused), and one k = 1 request through
//! the service must allocate exactly one vector: its reply `y`. Every
//! allocation of at least `nrows × 8` bytes is counted, on every thread
//! — the dispatcher shard and the executor's workers included.
//!
//! The checks share one process-wide counter, so they live in a single
//! test function.

use spmv_core::{Csr, SpMv};
use spmv_parallel::{
    ChunkKernel, CsrChunks, PanelInput, RecoveryPolicy, SupervisedSpMv, WatchdogOpts,
};
use spmv_service::{Request, ServiceBuilder, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts allocations of at least `THRESHOLD` bytes.
struct Counting;

static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static BIG: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        BIG.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Vector-sized allocations made by `f`.
fn big_allocs(f: impl FnOnce()) -> usize {
    let before = BIG.load(Ordering::SeqCst);
    f();
    BIG.load(Ordering::SeqCst) - before
}

const N: usize = 30_000;

fn matrix() -> Arc<Csr<u32, f64>> {
    Arc::new(spmv_matgen::gen::banded(N, 3, 1.0, 11).to_csr())
}

fn x_for(phase: usize) -> Vec<f64> {
    (0..N).map(|i| (((i + phase) % 23) as f64) * 0.37 - 3.0).collect()
}

#[test]
fn healthy_calls_stay_within_the_allocation_budget() {
    let m = matrix();
    let xs: Vec<Vec<f64>> = (0..8).map(x_for).collect();
    let want: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0; N];
            m.spmv(x, &mut y);
            y
        })
        .collect();
    THRESHOLD.store(N * std::mem::size_of::<f64>(), Ordering::SeqCst);

    // The supervised executor: borrowed SpMV under both policies, and a
    // shared input read in place.
    for policy in [RecoveryPolicy::Degrade, RecoveryPolicy::FailFast] {
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::clone(&m), 4));
        let opts = WatchdogOpts { deadline: Duration::from_secs(60), policy, ..Default::default() };
        let mut sup = SupervisedSpMv::with_opts(kernel, 2, opts);
        let mut y = vec![0.0; N];
        for x in &xs[..2] {
            sup.spmv(x, &mut y).expect("warm-up");
        }
        for (x, want) in xs.iter().zip(&want) {
            let n = big_allocs(|| {
                sup.spmm(x, 1, &mut y).expect("healthy call");
            });
            assert_eq!(n, 0, "{policy:?}: a healthy k = 1 spmm allocated {n} vectors");
            assert_eq!(&y, want);
        }
        let shared: Vec<Arc<Vec<f64>>> = xs.iter().map(|x| Arc::new(x.clone())).collect();
        for (x, want) in shared.iter().zip(&want) {
            let n = big_allocs(|| {
                sup.run(PanelInput::Shared(Arc::clone(x)), 1).expect("healthy call");
            });
            assert_eq!(n, 0, "{policy:?}: a healthy shared-input run allocated {n} vectors");
            assert_eq!(sup.output(), &want[..]);
        }
    }

    // The service: one k = 1 request pays exactly its reply.
    let cfg = ServiceConfig {
        default_deadline: Duration::from_secs(60),
        max_exec_deadline: Duration::from_secs(60),
        threads: 2,
        max_batch: 1,
        ..ServiceConfig::default()
    };
    let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::clone(&m), 4));
    let svc = ServiceBuilder::new(cfg).register_matrix("m", kernel).start();
    let request = |x: &Vec<f64>| Request {
        matrix: "m".into(),
        tenant: "t".into(),
        x: x.clone(),
        deadline: None,
    };
    for x in &xs[..3] {
        svc.submit(request(x)).expect("warm-up");
    }
    for (x, want) in xs.iter().zip(&want) {
        let req = request(x); // the caller's own `x`, built outside the window
        let mut reply = None;
        let n = big_allocs(|| reply = Some(svc.submit(req).expect("healthy request")));
        assert_eq!(n, 1, "one k = 1 submit must allocate exactly its reply, got {n}");
        let resp = reply.unwrap();
        assert_eq!(resp.batch_k, 1);
        assert_eq!(&resp.y, want);
    }
    svc.shutdown();
}

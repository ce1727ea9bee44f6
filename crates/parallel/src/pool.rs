//! Thread-execution primitives.
//!
//! The paper spawns its pthreads once and measures 128 consecutive SpMV
//! operations inside them (§VI-A): per-iteration cost contains no
//! thread-creation overhead, only barrier synchronization. [`WorkerPool`]
//! is the corresponding primitive here — `nthreads - 1` OS workers are
//! spawned once at plan time and parked on a condvar between calls; each
//! [`WorkerPool::run`] wakes them to execute one borrowed per-thread
//! closure (the caller participates as thread 0) and returns once every
//! thread has finished. Steady-state dispatch is two mutex round-trips and
//! two condvar signals per call — no spawn, no join, no allocation.
//! Every dispatch also records each thread's busy time and job count in
//! that thread's telemetry slot, which holds its watchdog heartbeat too
//! (see [`crate::telemetry`]); [`WorkerPool::take_telemetry`] drains it.
//! Dispatch takes `&mut self`, and a drop guard keeps the dispatch
//! handshake intact across panics: `run` always waits for every worker
//! before returning *or unwinding*, and a panic on any thread is re-raised
//! on the caller with the pool left reusable.
//!
//! [`IterationDriver`] layers the paper's repeated-iteration protocol on
//! top: one pool dispatch runs all rounds, with a [`Barrier`] between
//! consecutive rounds (and none after the last — the pool's own completion
//! handshake already joins it).

use crate::telemetry::{PoolTelemetry, TelemetrySink};
use spmv_core::SparseError;
use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------

/// A borrowed per-dispatch job: a type-erased pointer to the caller's
/// `Fn(usize)` closure. The lifetime is erased when the job is published;
/// soundness comes from [`WorkerPool::run`] not returning *or unwinding*
/// until every worker has finished calling through the pointer (a drop
/// guard performs the wait on both paths), so the pointee outlives all
/// uses.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// The pointee is `Sync` (shared by all workers) and outlives the dispatch;
// the pointer itself is only ever dereferenced during that dispatch.
unsafe impl Send for Job {}

struct State {
    /// Incremented once per dispatch; workers detect new work by epoch,
    /// not by job presence, so a worker can never run the same job twice.
    epoch: u64,
    /// The current job, valid for workers whose seen epoch is stale.
    job: Option<Job>,
    /// Workers still running the current job.
    active: usize,
    /// Set once by `Drop`; workers exit at the next wake-up.
    shutdown: bool,
    /// First panic raised inside a worker's slice of the current job;
    /// re-raised on the dispatching caller's stack by [`WorkerPool::run`].
    panic_payload: Option<Box<dyn Any + Send>>,
    /// `finished[tid - 1]` holds the last epoch worker `tid` completed.
    /// Written under this mutex *before* `active` is decremented, so the
    /// watchdog can tell "still computing" from "thread died mid-job".
    finished: Vec<u64>,
    /// Fault-tolerance events since the last [`WorkerPool::take_events`].
    events: Vec<PoolEvent>,
    /// Fault-injection handle captured at dispatch time so workers can
    /// consult the plan armed on the dispatching thread. Test-only.
    #[cfg(feature = "fault-injection")]
    fault: Option<crate::faults::FaultHandle>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between dispatches.
    work_cv: Condvar,
    /// The dispatching caller parks here until `active` drains to zero.
    done_cv: Condvar,
    /// Per-thread counters (slot 0 = caller): busy time and jobs, drained
    /// by [`WorkerPool::take_telemetry`], and the heartbeat worker `tid`
    /// bumps at job pickup and completion — a heartbeat that stops
    /// advancing while the worker is active marks it as stalled or dead
    /// for the watchdog.
    telemetry: TelemetrySink,
}

/// Something the pool's watchdog observed and recovered from (or flagged).
/// Drained by [`WorkerPool::take_events`]; an empty list means every
/// dispatch completed on the healthy path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolEvent {
    /// A worker thread terminated without completing its slice of the
    /// job; the caller re-executed that slice serially (the result is
    /// unaffected — per-thread slices are deterministic and idempotent).
    WorkerDied { tid: usize, epoch: u64 },
    /// A dead worker was replaced with a fresh thread at the next
    /// dispatch; the pool is back at full strength.
    WorkerRespawned { tid: usize },
    /// A worker exceeded the watchdog deadline but its thread was still
    /// alive, so the dispatch (soundly) kept waiting for it. On the
    /// borrowed-job path a live straggler can never be abandoned — its
    /// closure borrows the caller's stack; see `supervised` for the
    /// owned-data path where true stall abandonment is possible.
    SlowWorker { tid: usize, waited: Duration },
}

/// Health-report ring limit: recovery is rare, so hitting this cap means
/// something is systemically wrong; further events are dropped rather
/// than letting a long-lived pool grow without bound.
const MAX_POOL_EVENTS: usize = 256;

fn push_event(st: &mut State, ev: PoolEvent) {
    if st.events.len() < MAX_POOL_EVENTS {
        st.events.push(ev);
    }
}

/// The watchdog deadline used when `SPMV_WATCHDOG_MS` is unset.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_millis(1000);

/// Parses an `SPMV_WATCHDOG_MS` value: a positive integer millisecond
/// count. Zero is rejected — a zero deadline would triage every dispatch
/// as stalled before it ran.
pub fn parse_watchdog_ms(v: &str) -> Result<Duration, SparseError> {
    match v.trim().parse::<u64>() {
        Ok(ms) if ms >= 1 => Ok(Duration::from_millis(ms)),
        _ => Err(SparseError::InvalidArgument(format!(
            "SPMV_WATCHDOG_MS={v:?} is not a positive integer millisecond count"
        ))),
    }
}

/// Watchdog deadline: `SPMV_WATCHDOG_MS` env override, else 1 s. One
/// deadline serves both the pool watchdog (triage interval for dead /
/// slow workers) and the supervised executor's stall detector. CI runs
/// the tier-1 suite once with this set aggressively low to prove a tight
/// deadline cannot corrupt results (only add `SlowWorker` noise).
///
/// A malformed value falls back to the default with a **one-time**
/// warning on stderr (this lenient path runs inside constructors that
/// cannot return errors); explicit API paths use
/// [`watchdog_deadline_checked`] to surface the typed error instead.
pub fn watchdog_deadline() -> Duration {
    match std::env::var("SPMV_WATCHDOG_MS") {
        Ok(v) => parse_watchdog_ms(&v).unwrap_or_else(|e| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: {e}; using the default {} ms watchdog deadline",
                    DEFAULT_WATCHDOG.as_millis()
                );
            });
            DEFAULT_WATCHDOG
        }),
        Err(_) => DEFAULT_WATCHDOG,
    }
}

/// Strict form of [`watchdog_deadline`] for explicit API paths (the
/// service builder, `loadgen`): a malformed `SPMV_WATCHDOG_MS` returns
/// [`SparseError::InvalidArgument`] instead of silently falling back.
pub fn watchdog_deadline_checked() -> Result<Duration, SparseError> {
    match std::env::var("SPMV_WATCHDOG_MS") {
        Ok(v) => parse_watchdog_ms(&v),
        Err(std::env::VarError::NotPresent) => Ok(DEFAULT_WATCHDOG),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(SparseError::InvalidArgument("SPMV_WATCHDOG_MS is not valid unicode".into()))
        }
    }
}

/// Locks the pool state, ignoring poison: no code path holds the lock
/// across a panic, and the drain guard must never itself panic while the
/// caller is already unwinding.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks until every worker has finished the current job, then clears it
/// and re-raises any worker panic. Runs on both the return and unwind
/// paths of [`WorkerPool::run`]: the borrowed closure behind the
/// type-erased job pointer must outlive every worker's use of it even when
/// the caller's own `f(0)` panics.
///
/// The wait doubles as the pool's **watchdog**: instead of parking
/// indefinitely, it wakes every `deadline` and triages outstanding
/// workers. A worker whose thread has *terminated* without completing its
/// slice (`JoinHandle::is_finished`, which synchronizes with the thread's
/// end) is taken over — the caller re-executes that `tid`'s slice on its
/// own stack, which is sound because the job pointer is still live and
/// per-thread slices are deterministic and idempotent. A worker that is
/// merely *slow* is flagged ([`PoolEvent::SlowWorker`]) but still waited
/// for: on this borrowed-job path an alive straggler can never be
/// abandoned (its closure borrows the caller's frame).
struct DrainGuard<'a> {
    shared: &'a Shared,
    handles: &'a [JoinHandle<()>],
    job: Job,
    deadline: Duration,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        let start = Instant::now();
        let mut slow_reported = false;
        let mut st = lock_state(self.shared);
        let epoch = st.epoch;
        while st.active > 0 {
            let (guard, timeout) = self
                .shared
                .done_cv
                .wait_timeout(st, self.deadline)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if st.active == 0 {
                break;
            }
            if !timeout.timed_out() {
                continue;
            }
            // Deadline passed with workers outstanding: triage each one.
            let dead: Vec<usize> = (1..=self.handles.len())
                .filter(|&tid| st.finished[tid - 1] != epoch && self.handles[tid - 1].is_finished())
                .collect();
            for tid in dead {
                // The thread terminated without completing its slice.
                // Degrade gracefully: run the slice here. Mark it finished
                // first so a second triage pass cannot take it over twice.
                st.finished[tid - 1] = epoch;
                push_event(&mut st, PoolEvent::WorkerDied { tid, epoch });
                drop(st);
                // SAFETY: we are inside `run`, so the pointee is live; the
                // dead worker can no longer touch it (`is_finished`
                // synchronizes with the thread's termination). The re-run
                // happens on the caller's stack, so its time is credited
                // to telemetry slot 0.
                let outcome = self.shared.telemetry.record(0, || {
                    panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                        (*self.job.0)(tid);
                    }))
                });
                st = lock_state(self.shared);
                if let Err(payload) = outcome {
                    if st.panic_payload.is_none() {
                        st.panic_payload = Some(payload);
                    }
                }
                st.active -= 1;
            }
            if st.active > 0 && !slow_reported {
                for tid in 1..=self.handles.len() {
                    if st.finished[tid - 1] != epoch && !self.handles[tid - 1].is_finished() {
                        push_event(&mut st, PoolEvent::SlowWorker { tid, waited: start.elapsed() });
                    }
                }
                slow_reported = true;
            }
        }
        // The borrow behind the job pointer dies when `run` exits.
        st.job = None;
        let payload = st.panic_payload.take();
        drop(st);
        if let Some(payload) = payload {
            // A worker panicked inside the job: propagate on the caller's
            // stack — unless the caller is already unwinding from its own
            // `f(0)` panic, which takes precedence.
            if !std::thread::panicking() {
                panic::resume_unwind(payload);
            }
        }
    }
}

/// A persistent pool of `nthreads - 1` parked OS workers plus the caller.
///
/// Created once per plan and reused for every `par_spmv` call, mirroring
/// the paper's spawn-once protocol (§VI-A). Dispatching takes `&mut self`,
/// so two threads sharing the pool can never race a dispatch — to share a
/// pool across threads, wrap it in a `Mutex` (or give each thread its own
/// pool).
///
/// # Panics
///
/// A panic inside the dispatched closure — on any thread — propagates out
/// of [`WorkerPool::run`] on the caller's stack after every other thread
/// has finished its slice of the job; the pool itself remains usable for
/// subsequent dispatches.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    nthreads: usize,
    deadline: Duration,
}

impl WorkerPool {
    /// Spawns `nthreads - 1` workers (none for `nthreads == 1`) with the
    /// process-default watchdog deadline ([`watchdog_deadline`]).
    pub fn new(nthreads: usize) -> WorkerPool {
        WorkerPool::with_deadline(nthreads, watchdog_deadline())
    }

    /// Like [`WorkerPool::new`] with an explicit watchdog deadline: how
    /// long a dispatch waits before triaging outstanding workers for
    /// death or slowness. Any positive value is *safe* — a too-low
    /// deadline only adds triage wake-ups and `SlowWorker` events, never
    /// false recoveries (takeover requires an actually-terminated
    /// thread).
    pub fn with_deadline(nthreads: usize, deadline: Duration) -> WorkerPool {
        assert!(nthreads >= 1, "need at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
                panic_payload: None,
                finished: vec![0; nthreads - 1],
                events: Vec::new(),
                #[cfg(feature = "fault-injection")]
                fault: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            telemetry: TelemetrySink::new(nthreads),
        });
        let handles = (1..nthreads).map(|tid| spawn_worker(&shared, tid, 0)).collect();
        WorkerPool { shared, handles, nthreads, deadline: deadline.max(Duration::from_millis(1)) }
    }

    /// Number of threads participating in each dispatch (including the
    /// caller).
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Per-worker heartbeat counters (`nthreads - 1` entries, worker
    /// `tid`'s counter at index `tid - 1`). Bumped at job pickup and
    /// completion; a counter frozen during a dispatch marks that worker
    /// stalled or dead.
    pub fn heartbeats(&self) -> Vec<u64> {
        self.shared.telemetry.heartbeats(1..self.nthreads)
    }

    /// Drains the fault-tolerance events recorded since the last call —
    /// the pool's health report. Empty means every dispatch completed on
    /// the healthy path.
    pub fn take_events(&mut self) -> Vec<PoolEvent> {
        std::mem::take(&mut lock_state(&self.shared).events)
    }

    /// Drains per-thread telemetry (busy time, job counts, dispatch
    /// count) accumulated since construction or the last drain. The
    /// drain leaves [`WorkerPool::heartbeats`] untouched.
    pub fn take_telemetry(&mut self) -> PoolTelemetry {
        self.shared.telemetry.snapshot_and_reset()
    }

    /// Replaces any worker whose thread has terminated (death is observed
    /// by the watchdog mid-dispatch; replacement happens here, at the
    /// next dispatch). Called automatically by [`WorkerPool::run`]; the
    /// pool therefore *self-heals* — one dead worker degrades exactly one
    /// dispatch, not the pool.
    fn ensure_workers(&mut self) {
        for tid in 1..self.nthreads {
            if !self.handles[tid - 1].is_finished() {
                continue;
            }
            let epoch = {
                let mut st = lock_state(&self.shared);
                push_event(&mut st, PoolEvent::WorkerRespawned { tid });
                st.epoch
            };
            // The replacement starts with the current epoch as "seen" so
            // it cannot re-run a past job.
            self.handles[tid - 1] = spawn_worker(&self.shared, tid, epoch);
        }
    }

    /// Runs `f(tid)` once per thread, `tid` in `0..nthreads`, and returns
    /// after every thread has finished. The caller executes `tid == 0` on
    /// its own stack; `f` may therefore borrow local data. Taking
    /// `&mut self` makes concurrent dispatch onto one pool unrepresentable
    /// in safe code — the soundness of the borrowed-job pointer depends on
    /// exactly one dispatch being in flight.
    ///
    /// # Fault tolerance
    ///
    /// If a worker's thread terminates without completing its slice, the
    /// watchdog detects it within one deadline, the caller re-executes
    /// that `tid`'s slice serially, and the dead worker is replaced on
    /// the next dispatch ([`PoolEvent`] records both). For this recovery
    /// to preserve results, `f(tid)` must be **idempotent per `tid`** —
    /// re-running a slice after a partial run must produce the same final
    /// state. Every SpMV slice in this crate qualifies (each slice
    /// deterministically overwrites only its own output range).
    pub fn run<F>(&mut self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.nthreads == 1 {
            // Serial fast path: no handshake at all.
            self.shared.telemetry.record_dispatch();
            self.shared.telemetry.record(0, || f(0));
            return;
        }
        self.ensure_workers();
        self.shared.telemetry.record_dispatch();
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // Erase the borrow's lifetime; see `Job` for why this is sound.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f_ref)
        });
        {
            let mut st = lock_state(&self.shared);
            debug_assert_eq!(st.active, 0, "dispatch while previous job still active");
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.nthreads - 1;
            #[cfg(feature = "fault-injection")]
            {
                st.fault = Some(crate::faults::FaultHandle::capture());
            }
        }
        self.shared.work_cv.notify_all();
        // From here workers may be running `f`. The guard waits for all of
        // them (and clears the job) on both the return and the unwind path
        // of `f(0)` below, so the borrow never dangles; it also re-raises
        // a worker panic once the drain completes.
        let guard = DrainGuard {
            shared: &self.shared,
            handles: &self.handles,
            job,
            deadline: self.deadline,
        };
        self.shared.telemetry.record(0, || f(0));
        drop(guard);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns the worker thread for `tid`, starting with `seen_epoch` so a
/// replacement spawned mid-life cannot re-run a past job.
fn spawn_worker(shared: &Arc<Shared>, tid: usize, seen_epoch: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("spmv-worker-{tid}"))
        .spawn(move || worker_loop(&shared, tid, seen_epoch))
        .expect("failed to spawn pool worker")
}

fn worker_loop(shared: &Shared, tid: usize, mut seen_epoch: u64) {
    loop {
        let job = {
            let mut st = lock_state(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch advanced without a job");
                }
                st = shared.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.telemetry.beat(tid);
        // Fault injection (tests only): a scripted `ExitThread` makes this
        // thread terminate *without* completing its slice — exactly the
        // failure the watchdog's dead-worker takeover recovers from. A
        // scripted panic here likewise unwinds the thread (death by
        // panic); `DelayOnce` stalls it past the deadline.
        #[cfg(feature = "fault-injection")]
        {
            let handle = lock_state(shared).fault.clone();
            if let Some(handle) = handle {
                if handle.before_compute(None, tid) == Some(crate::faults::FaultAction::ExitThread)
                {
                    return;
                }
            }
        }
        // SAFETY: `run` keeps the closure alive until `active` drains to
        // zero, which happens only after this call returns. A panic in the
        // job must not unwind past the decrement below — it would strand
        // `active` and deadlock the caller forever — so it is caught here
        // and re-raised by `run` on the caller's stack instead.
        let outcome = shared
            .telemetry
            .record(tid, || panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(tid) })));
        let mut st = lock_state(shared);
        if let Err(payload) = outcome {
            // Keep the first panic; later ones add nothing for the caller.
            if st.panic_payload.is_none() {
                st.panic_payload = Some(payload);
            }
        }
        st.finished[tid - 1] = seen_epoch;
        st.active -= 1;
        let done = st.active == 0;
        drop(st);
        shared.telemetry.beat(tid);
        if done {
            shared.done_cv.notify_one();
        }
    }
}

// ---------------------------------------------------------------------
// DisjointSlices
// ---------------------------------------------------------------------

/// Hands disjoint `&mut` sub-slices of one buffer to pool threads.
///
/// [`WorkerPool::run`] shares a single `Fn` closure between threads, so
/// the closure cannot capture per-thread `&mut` slices directly; this cell
/// erases the buffer's uniqueness and re-asserts it per sub-range.
///
/// # Invariant
///
/// Ranges claimed via [`DisjointSlices::range`] during one dispatch must
/// be pairwise disjoint. Every use in this crate derives the ranges from a
/// partition whose blocks are disjoint by construction. Debug builds check
/// it: the cell records every claimed range and panics on an overlap.
pub struct DisjointSlices<'a, T> {
    ptr: *mut T,
    len: usize,
    ledger: RangeLedger,
    _marker: PhantomData<&'a mut [T]>,
}

// Threads only ever touch disjoint elements (the invariant above), which
// is exactly the access pattern `&mut [T]: Send` permits when chunked.
unsafe impl<T: Send> Sync for DisjointSlices<'_, T> {}

impl<'a, T> DisjointSlices<'a, T> {
    /// Wraps `buf`, taking its unique borrow for `'a`.
    pub fn new(buf: &'a mut [T]) -> DisjointSlices<'a, T> {
        DisjointSlices {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            ledger: RangeLedger::default(),
            _marker: PhantomData,
        }
    }

    /// Length of the wrapped buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the wrapped buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reclaims `buf[r]` as a mutable slice.
    ///
    /// # Safety
    ///
    /// `r` must not overlap any other range claimed from this cell during
    /// the same dispatch.
    #[allow(clippy::mut_from_ref)] // the whole point of the cell
    pub unsafe fn range(&self, r: Range<usize>) -> &mut [T] {
        assert!(r.start <= r.end && r.end <= self.len, "range {r:?} out of bounds");
        self.ledger.record(&r);
        std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.end - r.start)
    }
}

/// Debug-build record of the ranges threads claim from one buffer: a
/// claim that overlaps a live claim of *another* thread panics. A thread
/// may re-claim rows it holds itself — the rounds of an
/// [`IterationDriver`] dispatch rewrite each thread's block. It guards
/// the `unsafe` disjoint-write sites ([`DisjointSlices`] and the
/// supervised executor's output panel) and compiles to nothing without
/// debug assertions.
#[derive(Default)]
pub(crate) struct RangeLedger {
    #[cfg(debug_assertions)]
    live: Mutex<Vec<(Range<usize>, std::thread::ThreadId)>>,
}

impl RangeLedger {
    /// Records `r` as claimed by the current thread for the ledger's
    /// lifetime. Empty ranges never conflict.
    #[inline]
    pub(crate) fn record(&self, r: &Range<usize>) {
        #[cfg(debug_assertions)]
        if !r.is_empty() {
            let me = std::thread::current().id();
            let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
            let clash = live.iter().find(|(o, t)| *t != me && o.start < r.end && r.start < o.end);
            if let Some((o, _)) = clash {
                let o = o.clone();
                drop(live);
                panic!("disjointness violated: claimed range {r:?} overlaps live claim {o:?}");
            }
            live.push((r.clone(), me));
        }
        #[cfg(not(debug_assertions))]
        let _ = r;
    }

    /// Records `r` until the returned guard drops (on unwind too), so
    /// another thread may claim the rows once this writer is done.
    #[inline]
    pub(crate) fn claim(&self, r: Range<usize>) -> LedgerClaim<'_> {
        self.record(&r);
        LedgerClaim { ledger: self, range: r }
    }
}

/// A live [`RangeLedger`] claim, released on drop.
pub(crate) struct LedgerClaim<'a> {
    ledger: &'a RangeLedger,
    range: Range<usize>,
}

impl Drop for LedgerClaim<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if !self.range.is_empty() {
            let me = std::thread::current().id();
            let mut live = self.ledger.live.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(i) = live.iter().position(|(o, t)| *o == self.range && *t == me) {
                live.swap_remove(i);
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (self.ledger, &self.range);
    }
}

/// Uniform chunk `k` of `n` elements split `nchunks` ways (used for the
/// chunked parallel reductions).
pub fn chunk(n: usize, nchunks: usize, k: usize) -> Range<usize> {
    k * n / nchunks..(k + 1) * n / nchunks
}

// ---------------------------------------------------------------------
// Spawn-per-call baseline
// ---------------------------------------------------------------------

/// Runs `f(tid)` on `nthreads` scoped threads and waits for all of them.
///
/// This is the *spawn-per-call* baseline the persistent [`WorkerPool`]
/// replaces in the hot paths; it survives for one-shot jobs (corpus
/// evaluation fan-out) and as the comparison arm of the dispatch-overhead
/// benchmark.
pub fn run_on_threads<F>(nthreads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    assert!(nthreads >= 1, "need at least one thread");
    if nthreads == 1 {
        // Fast path: no spawn for the serial case.
        f(0);
        return;
    }
    std::thread::scope(|s| {
        for tid in 0..nthreads {
            let f = &f;
            s.spawn(move || f(tid));
        }
    });
}

// ---------------------------------------------------------------------
// IterationDriver
// ---------------------------------------------------------------------

/// Drives `iters` rounds of a per-thread body on a persistent pool with a
/// barrier between rounds — the paper's repeated-iteration measurement
/// loop (§VI-A). Threads are spawned once at construction; `run` costs one
/// pool dispatch regardless of the round count, and no barrier is paid
/// after the final round (the pool's completion handshake already joins
/// all threads).
pub struct IterationDriver {
    pool: WorkerPool,
    barrier: Barrier,
    iters: usize,
}

impl IterationDriver {
    /// Creates a driver for `nthreads` threads x `iters` rounds.
    pub fn new(nthreads: usize, iters: usize) -> IterationDriver {
        assert!(nthreads >= 1 && iters >= 1);
        IterationDriver { pool: WorkerPool::new(nthreads), barrier: Barrier::new(nthreads), iters }
    }

    /// Number of threads per round.
    pub fn nthreads(&self) -> usize {
        self.pool.nthreads()
    }

    /// Rounds per `run`.
    pub fn iters(&self) -> usize {
        self.iters
    }

    /// Runs `body(tid, iter)` for every thread and round. Rounds are
    /// globally ordered: all threads finish round `i` before any starts
    /// round `i + 1`.
    ///
    /// A panic in `body` propagates like [`WorkerPool::run`]'s — but if
    /// other threads are already blocked in an inter-round barrier wait
    /// they will never be released, so `body` should not panic except to
    /// abort the process (measurement bodies here never do). For the same
    /// reason the pool's dead-worker takeover does not compose with the
    /// inter-round barrier (a re-run of a dead thread's rounds would
    /// arrive at the wrong barrier generation); a thread death inside a
    /// measurement loop is unrecoverable here.
    pub fn run<F>(&mut self, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let iters = self.iters;
        let barrier = &self.barrier;
        self.pool.run(|tid| {
            for iter in 0..iters {
                body(tid, iter);
                if iter + 1 < iters {
                    barrier.wait();
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn watchdog_ms_parser_accepts_positive_integers_only() {
        assert_eq!(parse_watchdog_ms("5").unwrap(), Duration::from_millis(5));
        assert_eq!(parse_watchdog_ms(" 250 ").unwrap(), Duration::from_millis(250));
        for bad in ["", "0", "-5", "1.5", "fast", "10ms", "99999999999999999999999"] {
            let err = parse_watchdog_ms(bad).unwrap_err();
            assert!(
                matches!(err, SparseError::InvalidArgument(_)),
                "{bad:?} must be a typed rejection, got {err}"
            );
            assert!(err.to_string().contains("SPMV_WATCHDOG_MS"), "{err}");
        }
    }

    #[test]
    fn checked_watchdog_deadline_agrees_with_lenient_path_on_valid_env() {
        // CI runs the suite both with SPMV_WATCHDOG_MS unset and set to a
        // valid value; in both cases the strict and lenient readers must
        // agree. (Malformed values are covered by the pure parser test —
        // mutating the process environment would race other tests.)
        assert_eq!(watchdog_deadline_checked().unwrap(), watchdog_deadline());
    }

    #[test]
    fn pool_executes_each_tid_once() {
        let mut pool = WorkerPool::new(4);
        let hits = Mutex::new(vec![0usize; 4]);
        pool.run(|tid| {
            hits.lock().unwrap()[tid] += 1;
        });
        assert_eq!(*hits.lock().unwrap(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn pool_serial_fast_path() {
        let mut pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.run(|tid| {
            assert_eq!(tid, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_reuse_many_dispatches() {
        // The core property the tentpole claims: one pool, many calls, no
        // worker ever lost or duplicated.
        let mut pool = WorkerPool::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(|_tid| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 600);
    }

    #[test]
    fn pool_borrows_caller_stack() {
        let mut pool = WorkerPool::new(4);
        let mut out = vec![0usize; 4];
        let cell = DisjointSlices::new(&mut out);
        pool.run(|tid| {
            // SAFETY: each tid claims its own element.
            let slot = unsafe { cell.range(tid..tid + 1) };
            slot[0] = tid * 10;
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disjointness violated")]
    fn disjoint_slices_ledger_rejects_overlapping_claims() {
        let mut buf = vec![0u32; 10];
        let cell = DisjointSlices::new(&mut buf);
        let mut pool = WorkerPool::new(2);
        // SAFETY: deliberately violated — the debug ledger must panic
        // before the overlapping slice is ever built; `run` re-raises a
        // worker's panic on the caller.
        pool.run(|tid| {
            let _slice = unsafe { cell.range(tid * 4..tid * 4 + 6) };
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    fn range_ledger_claims_release_on_drop() {
        let ledger = RangeLedger::default();
        let mine = ledger.claim(2..5);
        let other_thread = |r: Range<usize>| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _claim = ledger.claim(r);
                })
                .join()
                .is_ok()
            })
        };
        assert!(!other_thread(4..6), "an overlap with another thread's live claim must panic");
        assert!(other_thread(5..9), "adjacent rows do not overlap");
        drop(mine);
        // Released: another thread may now claim the rows (a recovery
        // rewriting a panicked worker's chunk does exactly this).
        assert!(other_thread(2..5));
    }

    #[test]
    fn pool_drop_joins_workers() {
        let mut pool = WorkerPool::new(8);
        pool.run(|_| {});
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn pool_caller_panic_waits_for_workers_and_stays_usable() {
        // If f(0) panics, `run` must not unwind until every worker has
        // finished its slice of the job (the borrowed closure dies with
        // the frame), and the pool must survive for later dispatches.
        let mut pool = WorkerPool::new(4);
        let worker_hits = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == 0 {
                    panic!("caller-side panic");
                }
                // Give the caller a head start into its panic path.
                std::thread::sleep(std::time::Duration::from_millis(10));
                worker_hits.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(caught.is_err());
        // All three workers finished before `run` unwound.
        assert_eq!(worker_hits.load(Ordering::SeqCst), 3);
        let count = AtomicUsize::new(0);
        pool.run(|_tid| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pool_worker_panic_propagates_to_caller_and_stays_usable() {
        // A panic on a worker thread must not strand `active` (deadlock);
        // it is re-raised on the caller with its original payload.
        let mut pool = WorkerPool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == 2 {
                    panic!("worker-side panic");
                }
            });
        }));
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "worker-side panic");
        let count = AtomicUsize::new(0);
        pool.run(|_tid| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn take_telemetry_counts_every_dispatch() {
        let mut pool = WorkerPool::new(3);
        for _ in 0..5 {
            pool.run(|_tid| {
                std::hint::black_box(0u64);
            });
        }
        let t = pool.take_telemetry();
        assert_eq!(t.busy_ns.len(), 3);
        assert_eq!(t.dispatches, 5);
        // Every thread ran exactly one job per dispatch.
        assert_eq!(t.chunks, vec![5, 5, 5]);
        assert!(t.imbalance() >= 1.0);
        // The drain resets the window.
        assert_eq!(pool.take_telemetry().dispatches, 0);
    }

    #[test]
    fn telemetry_covers_serial_fast_path() {
        let mut pool = WorkerPool::new(1);
        pool.run(|_tid| {
            std::hint::black_box(0u64);
        });
        let t = pool.take_telemetry();
        assert_eq!(t.dispatches, 1);
        assert_eq!(t.chunks, vec![1]);
        assert!(pool.heartbeats().is_empty(), "the caller has no heartbeat");
    }

    #[test]
    fn take_telemetry_leaves_heartbeats_running() {
        // Heartbeats share each thread's telemetry slot; a drain resets
        // only busy time, jobs and dispatches.
        let mut pool = WorkerPool::new(3);
        for _ in 0..4 {
            pool.run(|_tid| {});
        }
        // A worker beats at pickup and completion of every job; `run` may
        // return just before the last completion beat lands, so each
        // worker shows 7 or 8 beats.
        let beats = |pool: &WorkerPool| pool.heartbeats().iter().all(|&h| (7..=8).contains(&h));
        assert!(beats(&pool), "{:?}", pool.heartbeats());
        assert_eq!(pool.take_telemetry().chunks, vec![4, 4, 4]);
        assert!(beats(&pool), "drain reset the heartbeats: {:?}", pool.heartbeats());
        assert_eq!(pool.take_telemetry().chunks, vec![0, 0, 0]);
    }

    #[test]
    fn run_on_threads_executes_each_tid_once() {
        let hits = Mutex::new(vec![0usize; 4]);
        run_on_threads(4, |tid| {
            hits.lock().unwrap()[tid] += 1;
        });
        assert_eq!(*hits.lock().unwrap(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn run_on_threads_serial_fast_path() {
        let count = AtomicUsize::new(0);
        run_on_threads(1, |tid| {
            assert_eq!(tid, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn iteration_driver_orders_rounds() {
        // With the barrier, no thread can be a full round ahead: track the
        // max round spread ever observed.
        let current = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        let mut driver = IterationDriver::new(4, 16);
        driver.run(|_tid, iter| {
            let seen = current.load(Ordering::SeqCst);
            if iter > seen + 1 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
            current.fetch_max(iter, Ordering::SeqCst);
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn iteration_driver_total_invocations() {
        let count = AtomicUsize::new(0);
        IterationDriver::new(3, 10).run(|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn iteration_driver_is_reusable() {
        let mut driver = IterationDriver::new(2, 5);
        let count = AtomicUsize::new(0);
        for _ in 0..20 {
            driver.run(|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn chunks_tile_the_range() {
        for n in [0usize, 1, 7, 64, 101] {
            for parts in 1..8 {
                let mut covered = 0;
                for k in 0..parts {
                    let c = chunk(n, parts, k);
                    assert_eq!(c.start, covered);
                    covered = c.end;
                }
                assert_eq!(covered, n);
            }
        }
    }
}

//! Supervised parallel SpMV: watchdog, graceful degradation, self-healing.
//!
//! Both executors run the same per-format [`ChunkKernel`]s (see
//! [`crate::chunks`]). The borrowed-job [`crate::pool::WorkerPool`] behind
//! the `Par*` executors is the *fast* path: zero allocation per dispatch,
//! but a live straggler can never be abandoned — the dispatched closure
//! borrows the caller's stack, so `run` must wait for every worker it
//! woke (its watchdog can only take over work from threads that *died*).
//! This module is the *resilient* path: its kernels own their matrix
//! (`Arc<dyn ChunkKernel<V>>` is `'static`) and everything else a worker
//! touches is owned by an `Arc`'d per-call state, so the caller may walk
//! away from a wedged worker without any dangling borrow. That buys the
//! full fault model:
//!
//! * **worker panic** — caught on the worker, reported, and the chunk is
//!   re-executed serially by the caller (no deadline wait). A panic whose
//!   hook outlasts the deadline is still reported as a panic: a chained
//!   hook flags the worker first, and triage abandons it like a stall;
//! * **worker death** (thread terminated without finishing) — detected at
//!   the deadline, chunk re-executed serially, worker respawned;
//! * **worker stall** (alive but past the deadline) — the worker is
//!   *abandoned*: the caller re-executes its chunk serially, a
//!   replacement thread takes its roster slot, and the stuck thread exits
//!   on its own whenever its computation finally returns (it only holds
//!   `Arc`s, so nothing dangles);
//! * **silent chunk corruption** — optionally caught by re-executing
//!   sampled chunks serially and comparing bit patterns (the chunk kernel
//!   is deterministic, so any discrepancy is corruption, not roundoff).
//!
//! Under [`RecoveryPolicy::Degrade`] every fault above still yields a
//! **correct** result — recovery re-runs the identical chunk kernel over
//! the identical partition, so output is bit-identical to a serial run —
//! plus a [`HealthReport`] saying what happened. Under
//! [`RecoveryPolicy::FailFast`] the first fault aborts the call with a
//! typed [`PoolError`] instead (the output buffer is left untouched); the
//! executor itself stays usable either way. Every successful report also
//! carries the call's per-thread heartbeats and busy-time telemetry, both
//! kept in one cache-line slot per thread.
//!
//! ## Buffer sets
//!
//! Workers must never hold a borrow of caller memory, so everything they
//! touch lives in an `Arc`-owned **buffer set**: a staging panel for `x`
//! and one output panel. Each claimed chunk is computed straight into its
//! disjoint row range of the output panel — there are no per-chunk
//! buffers and no assembly pass. The set is allocated lazily at the width
//! `k` of the call and reused by every healthy call, so a healthy call
//! allocates nothing vector-sized. A **stall retires the set**: the
//! abandoned worker keeps its `Arc`, the caller moves the finished chunks
//! into a fresh set and recomputes the stalled ones there, and the
//! straggler's late write lands in memory that nobody reads again. Any
//! call that returns while a worker may still touch the set (a fail-fast
//! error, an unwinding panic) retires it the same way at the next call.
//!
//! Input and output can also move without copies: [`PanelInput::Shared`]
//! lends the executor an owned `x` that workers read in place, and
//! [`SupervisedSpMv::take_output`] moves the filled output panel out. The
//! borrowed [`SupervisedSpMv::spmv`] / [`SupervisedSpMv::spmm`] entry
//! points copy `x` into the staging panel and, once the call has
//! succeeded, copy the result out of the output panel into `y`.

pub use crate::chunks::{ChunkKernel, CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks};
use crate::pool::{watchdog_deadline, RangeLedger};
use crate::telemetry::{PoolTelemetry, TelemetrySink};
use spmv_core::Scalar;
use std::cell::{OnceCell, UnsafeCell};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Watchdog configuration, errors, health
// ---------------------------------------------------------------------

/// What the supervisor does when a fault is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Recover: re-execute affected chunks serially on the caller,
    /// respawn lost workers, return `Ok` with the events in the
    /// [`HealthReport`]. The result is bit-identical to a serial run.
    Degrade,
    /// Abort: return the first fault as a typed [`PoolError`], leaving
    /// the output buffer untouched. Lost workers are still respawned, so
    /// the executor remains usable.
    FailFast,
}

/// Watchdog configuration for [`SupervisedSpMv`].
#[derive(Debug, Clone, Copy)]
pub struct WatchdogOpts {
    /// How long a call waits for outstanding chunks before triaging
    /// their workers for death or stall. Any positive value is safe: a
    /// low deadline can only cause spurious (correct) serial recovery,
    /// never a wrong result.
    pub deadline: Duration,
    /// Degrade-and-recover or fail-fast.
    pub policy: RecoveryPolicy,
    /// `0` disables the self-check; `n > 0` re-executes every `n`-th
    /// chunk serially after all chunks complete and compares bit
    /// patterns, replacing any corrupted chunk with the serial result
    /// (`1` checks every chunk).
    pub verify_every: usize,
    /// When `true` (default) the calling thread claims chunks alongside
    /// the workers before supervising. `false` dedicates the caller to
    /// supervision — all chunks go to workers, which also makes fault
    /// injection deterministic in tests (the caller consults no hooks).
    pub caller_participates: bool,
}

impl Default for WatchdogOpts {
    /// Deadline from `SPMV_WATCHDOG_MS` (default 1 s), degrade-and-
    /// recover, self-check off.
    fn default() -> WatchdogOpts {
        WatchdogOpts {
            deadline: watchdog_deadline(),
            policy: RecoveryPolicy::Degrade,
            verify_every: 0,
            caller_participates: true,
        }
    }
}

/// Typed faults surfaced by [`RecoveryPolicy::FailFast`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A worker panicked while computing `chunk`.
    WorkerPanicked { tid: usize, chunk: usize },
    /// A worker exceeded the watchdog deadline while holding `chunk`.
    WorkerStalled { tid: usize, chunk: usize, waited: Duration },
    /// A worker's thread terminated without completing `chunk`.
    WorkerDied { tid: usize, chunk: usize },
    /// A chunk's published result did not match its serial re-execution.
    ChunkCorrupted { chunk: usize },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { tid, chunk } => {
                write!(f, "worker {tid} panicked while computing chunk {chunk}")
            }
            PoolError::WorkerStalled { tid, chunk, waited } => {
                write!(f, "worker {tid} stalled on chunk {chunk} ({waited:?} past deadline)")
            }
            PoolError::WorkerDied { tid, chunk } => {
                write!(f, "worker {tid} died without completing chunk {chunk}")
            }
            PoolError::ChunkCorrupted { chunk } => {
                write!(f, "chunk {chunk} failed the serial cross-check (corrupted result)")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// One observed-and-handled fault (see [`HealthReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A worker panicked; the chunk was re-executed serially.
    WorkerPanicked { tid: usize, chunk: usize },
    /// A worker thread died mid-chunk; the chunk was re-executed
    /// serially.
    WorkerDied { tid: usize, chunk: usize },
    /// A live worker blew the deadline; it was abandoned (it exits on
    /// its own once its computation returns) and the chunk re-executed
    /// serially.
    WorkerStalled { tid: usize, chunk: usize, waited: Duration },
    /// A fresh thread took over a lost worker's roster slot.
    WorkerRespawned { tid: usize },
    /// The self-check caught a corrupted chunk and replaced it with the
    /// serial result.
    ChunkCorrupted { chunk: usize },
}

/// What happened during one supervised call. `events` empty ⇒ fully
/// healthy parallel execution; otherwise the call *degraded* — some
/// chunks ran serially on the caller — but the result is still correct.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Faults observed, in detection order.
    pub events: Vec<FaultEvent>,
    /// Chunks the caller re-executed serially (recovery work).
    pub recovered_chunks: usize,
    /// Per-thread heartbeat counters at the end of the call (index =
    /// tid; the caller is 0). Each thread bumps its counter at chunk
    /// claim and completion, so a low even count identifies the thread
    /// that did little work — diagnostic context for the events above.
    pub heartbeats: Vec<u64>,
    /// Per-thread busy time and chunk counts for this call (`dispatches`
    /// is always 1; empty when the call had no chunk to run).
    pub telemetry: PoolTelemetry,
}

impl HealthReport {
    /// `true` if any fault was observed (some work ran degraded).
    pub fn degraded(&self) -> bool {
        !self.events.is_empty()
    }
}

// ---------------------------------------------------------------------
// Buffer sets
// ---------------------------------------------------------------------

/// One vector-sized buffer of a [`Buffers`] set.
///
/// During a call, threads reach it only through a [`View`]: the staging
/// panel is read-only, and the output panel is written on pairwise
/// disjoint chunk ranges (see [`Out::write`]). The `Vec` itself is
/// resized, read whole or moved out only while the set is *idle* — no
/// worker of an unfinished or abandoned call can still reach it (see
/// `SupervisedSpMv::bufs_busy`).
struct Panel<V> {
    buf: UnsafeCell<Vec<V>>,
}

// Shared access is confined to the disjoint-range protocol above.
unsafe impl<V: Send + Sync> Sync for Panel<V> {}

impl<V> Panel<V> {
    fn new() -> Panel<V> {
        Panel { buf: UnsafeCell::new(Vec::new()) }
    }

    /// The whole buffer.
    ///
    /// # Safety
    ///
    /// The set must be idle: no other thread may access this panel while
    /// the returned reference lives.
    #[allow(clippy::mut_from_ref)] // exclusivity is the caller's contract
    unsafe fn vec_mut(&self) -> &mut Vec<V> {
        &mut *self.buf.get()
    }

    /// The whole buffer, read-only.
    ///
    /// # Safety
    ///
    /// The set must be idle: no thread may write this panel while the
    /// returned reference lives.
    unsafe fn vec(&self) -> &Vec<V> {
        &*self.buf.get()
    }
}

/// Raw view of the first `len` elements of a panel, taken for one call.
struct View<V> {
    ptr: *mut V,
    len: usize,
}

impl<V> Clone for View<V> {
    fn clone(&self) -> View<V> {
        *self
    }
}

impl<V> Copy for View<V> {}

// A view is dereferenced only under the panel's access protocol.
unsafe impl<V: Send + Sync> Send for View<V> {}
unsafe impl<V: Send + Sync> Sync for View<V> {}

impl<V> View<V> {
    /// Views the first `len` elements of `v`.
    fn of(v: &mut Vec<V>, len: usize) -> View<V> {
        assert!(len <= v.len(), "view of {len} elements over a panel of {}", v.len());
        View { ptr: v.as_mut_ptr(), len }
    }

    /// # Safety
    ///
    /// Nobody may write `r` while the slice lives.
    unsafe fn slice(&self, r: Range<usize>) -> &[V] {
        assert!(r.start <= r.end && r.end <= self.len, "range {r:?} out of bounds");
        std::slice::from_raw_parts(self.ptr.add(r.start), r.len())
    }

    /// # Safety
    ///
    /// Nobody else may access `r` while the slice lives.
    #[allow(clippy::mut_from_ref)] // exclusivity is the caller's contract
    unsafe fn slice_mut(&self, r: Range<usize>) -> &mut [V] {
        assert!(r.start <= r.end && r.end <= self.len, "range {r:?} out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.len())
    }
}

/// The executor's reusable buffer set: a staging panel for copied or
/// gathered inputs and the output panel. `Arc`-owned, so a worker
/// abandoned mid-call keeps the set it writes alive after the executor
/// has moved on to a fresh one.
struct Buffers<V> {
    x: Panel<V>,
    y: Panel<V>,
    /// Debug-build record of the output rows being written.
    ledger: RangeLedger,
}

impl<V> Buffers<V> {
    fn new() -> Buffers<V> {
        Buffers { x: Panel::new(), y: Panel::new(), ledger: RangeLedger::default() }
    }
}

/// Where a call's results go: the output panel of one buffer set.
struct Out<V> {
    bufs: Arc<Buffers<V>>,
    y: View<V>,
}

impl<V> Clone for Out<V> {
    fn clone(&self) -> Out<V> {
        Out { bufs: Arc::clone(&self.bufs), y: self.y }
    }
}

impl<V> Out<V> {
    /// Opens the first `len` elements of `bufs`'s output panel.
    ///
    /// # Safety
    ///
    /// `bufs` must be idle (see [`Panel::vec_mut`]).
    unsafe fn open(bufs: &Arc<Buffers<V>>, len: usize) -> Out<V> {
        Out { bufs: Arc::clone(bufs), y: View::of(bufs.y.vec_mut(), len) }
    }

    /// Runs `f` on panel elements `r` — a chunk's rows scaled by the
    /// panel width — claimed in the panel's ledger while `f` runs (and
    /// released on unwind, so a recovery may rewrite a panicked chunk).
    ///
    /// # Safety
    ///
    /// No other thread may access `r` meanwhile. The chunk-claim protocol
    /// guarantees it; debug builds check it.
    unsafe fn write(&self, r: Range<usize>, f: impl FnOnce(&mut [V])) {
        let _claim = self.bufs.ledger.claim(r.clone());
        f(self.y.slice_mut(r))
    }

    /// # Safety
    ///
    /// Nobody may write `r` while the slice lives.
    unsafe fn read(&self, r: Range<usize>) -> &[V] {
        self.y.slice(r)
    }
}

/// The `ncols x k` row-major input panel of a supervised call
/// ([`SupervisedSpMv::run`]).
#[derive(Clone)]
pub enum PanelInput<'a, V> {
    /// Written into the executor's staging panel by the closure, which
    /// receives exactly `ncols x k` elements, so workers never borrow
    /// caller memory — a caller assembling its panel from several sources
    /// gathers in place instead of building a panel to be copied.
    Gather(&'a dyn Fn(&mut [V])),
    /// An owned panel that workers read in place: no copy. The call holds
    /// a reference, and so does any worker abandoned during it.
    Shared(Arc<Vec<V>>),
}

/// Where a call's threads read `x`.
enum XSrc<V> {
    /// The staging panel of the call's buffer set, which the call's
    /// [`Out`] keeps alive.
    Staged(View<V>),
    /// A caller-lent panel.
    Shared(Arc<Vec<V>>),
}

impl<V> XSrc<V> {
    fn get(&self) -> &[V] {
        match self {
            // SAFETY: the caller fills the staging panel before the call
            // starts, and nobody rewrites it until the set is idle again
            // (a retired set never is).
            XSrc::Staged(v) => unsafe { v.slice(0..v.len) },
            XSrc::Shared(x) => x,
        }
    }
}

/// Computes chunk `c` of `A · x` straight into its rows of `out`.
///
/// # Safety
///
/// The calling thread must own chunk `c` of `out`: it won the chunk's
/// claim, or the claimer is resolved (see [`SupervisedSpMv::recover_chunk`]).
unsafe fn compute_chunk<V: Scalar>(
    kernel: &dyn ChunkKernel<V>,
    c: usize,
    x: &[V],
    k: usize,
    out: &Out<V>,
) {
    let rows = kernel.chunk_rows(c);
    out.write(rows.start * k..rows.end * k, |o| kernel.compute_block(c, x, k, o));
}

// ---------------------------------------------------------------------
// Per-call shared state
// ---------------------------------------------------------------------

/// Claim marker: chunk not yet claimed by any thread.
const UNCLAIMED: usize = usize::MAX;
/// Claim marker: the caller took an unstarted chunk over for recovery.
const RECOVERING: usize = usize::MAX - 1;

struct Progress {
    /// Chunks with a published result.
    done: usize,
    /// `(chunk, tid)` pairs whose worker panicked (chunk unpublished).
    failed: Vec<(usize, usize)>,
}

/// Everything the workers touch during one call: the buffer set (through
/// `out` and `x`) plus the claim and progress bookkeeping. Behind an
/// `Arc`, so an abandoned worker can finish — or never finish — without
/// endangering the caller.
struct Dispatch<V: Scalar> {
    out: Out<V>,
    x: XSrc<V>,
    /// Panel width: `x` is `ncols * k`, the output `nrows * k`, both
    /// row-major. `1` for plain SpMV.
    k: usize,
    nchunks: usize,
    /// Next chunk to try.
    next: AtomicUsize,
    /// `claims[c]`: tid that claimed chunk `c`, [`UNCLAIMED`] or
    /// [`RECOVERING`]. Only the thread whose compare-exchange won a chunk
    /// computes it, so no two threads ever write the same rows.
    claims: Vec<AtomicUsize>,
    /// Chunks whose rows are final. The first publish wins; an abandoned
    /// straggler publishing after recovery changes nothing.
    published: Vec<AtomicBool>,
    progress: Mutex<Progress>,
    done_cv: Condvar,
    /// Per-thread counter slots (index = tid): the heartbeat bumped at
    /// chunk claim and completion ([`HealthReport::heartbeats`]) and the
    /// busy time ([`HealthReport::telemetry`]). Each thread writes only
    /// its own slot. Diagnostic only.
    slots: TelemetrySink,
    #[cfg(feature = "fault-injection")]
    fault: crate::faults::FaultHandle,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<V: Scalar> Dispatch<V> {
    /// Claims chunk `c` for `tid`; `false` if someone else holds it.
    fn claim(&self, c: usize, tid: usize) -> bool {
        self.claims[c].compare_exchange(UNCLAIMED, tid, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Marks chunk `c` final unless someone already did; returns whether
    /// this publish won.
    fn publish(&self, c: usize) -> bool {
        if self.published[c].swap(true, Ordering::AcqRel) {
            return false;
        }
        let mut p = lock(&self.progress);
        p.done += 1;
        if p.done == self.nchunks {
            self.done_cv.notify_all();
        }
        true
    }

    /// Records a worker panic on chunk `c` and wakes the supervisor.
    fn mark_failed(&self, c: usize, tid: usize) {
        let mut p = lock(&self.progress);
        p.failed.push((c, tid));
        self.done_cv.notify_all();
    }

    fn done(&self) -> usize {
        lock(&self.progress).done
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

struct SupState<V: Scalar> {
    epoch: u64,
    /// The running call; cleared when it returns, so a worker that wakes
    /// late finds nothing to do.
    job: Option<Arc<Dispatch<V>>>,
    shutdown: bool,
}

struct SupShared<V: Scalar> {
    state: Mutex<SupState<V>>,
    work_cv: Condvar,
}

/// Outcome of one worker chunk attempt.
enum ChunkRun {
    Done,
    #[cfg(feature = "fault-injection")]
    Exit,
}

thread_local! {
    /// This thread's [`WorkerSlot::panicking`] flag; set on supervised
    /// worker threads only.
    static PANICKING: OnceCell<Arc<AtomicBool>> = const { OnceCell::new() };
}

/// Chains a panic hook, once per process, that raises a supervised
/// worker's `panicking` flag before the earlier hook runs. A hook can
/// outlast the watchdog deadline (symbolizing a backtrace, say) before the
/// unwind reaches `catch_unwind`; the flag lets triage report such a
/// worker as panicked, not stalled. A hook set later replaces this one,
/// and triage then falls back to calling the worker stalled.
fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let _ = PANICKING.try_with(|flag| {
                if let Some(flag) = flag.get() {
                    flag.store(true, Ordering::Release);
                }
            });
            prev(info);
        }));
    });
}

/// Runs chunk `c` on a worker; returns `true` if the thread must exit
/// (injected death). Panics — injected or real — are caught and recorded
/// so the supervisor can recover without waiting for the deadline.
fn worker_chunk<V: Scalar>(
    job: &Dispatch<V>,
    kernel: &dyn ChunkKernel<V>,
    c: usize,
    tid: usize,
    panicking: &AtomicBool,
) -> bool {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        let injected = job.fault.before_compute(Some(c), tid);
        #[cfg(feature = "fault-injection")]
        if injected == Some(crate::faults::FaultAction::ExitThread) {
            // Simulated thread death: the claimed chunk stays unfinished.
            return ChunkRun::Exit;
        }
        let rows = kernel.chunk_rows(c);
        // SAFETY: this thread won chunk `c`'s claim, so it alone writes
        // the chunk's rows of this call's output panel.
        unsafe {
            job.out.write(rows.start * job.k..rows.end * job.k, |out| {
                kernel.compute_block(c, job.x.get(), job.k, out);
                #[cfg(feature = "fault-injection")]
                if injected == Some(crate::faults::FaultAction::CorruptChunk) {
                    if let Some(v0) = out.first_mut() {
                        *v0 = -*v0; // silent corruption only the self-check sees
                    }
                }
            });
        }
        ChunkRun::Done
    }));
    match outcome {
        Ok(ChunkRun::Done) => {
            job.publish(c);
            false
        }
        #[cfg(feature = "fault-injection")]
        Ok(ChunkRun::Exit) => true,
        Err(_) => {
            job.mark_failed(c, tid);
            // The panic is recorded; this thread goes on to other chunks.
            panicking.store(false, Ordering::Release);
            false
        }
    }
}

fn sup_worker_loop<V: Scalar>(
    shared: Arc<SupShared<V>>,
    kernel: Arc<dyn ChunkKernel<V>>,
    tid: usize,
    alive: Arc<AtomicBool>,
    panicking: Arc<AtomicBool>,
    mut seen_epoch: u64,
) {
    PANICKING.with(|flag| {
        flag.get_or_init(|| Arc::clone(&panicking));
    });
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown || !alive.load(Ordering::Acquire) {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if let Some(job) = st.job.as_ref() {
                        break Arc::clone(job);
                    }
                }
                st = shared.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        loop {
            if !alive.load(Ordering::Acquire) {
                // Abandoned mid-call: our roster slot has a replacement;
                // exit quietly (the call state is Arc-owned, nothing
                // dangles).
                return;
            }
            let c = job.next.fetch_add(1, Ordering::AcqRel);
            if c >= job.nchunks {
                break;
            }
            if !job.claim(c, tid) {
                continue; // taken over for recovery
            }
            job.slots.beat(tid);
            if job.slots.timed(tid, || worker_chunk(&job, &*kernel, c, tid, &panicking)) {
                return;
            }
            job.slots.beat(tid);
        }
    }
}

struct WorkerSlot {
    handle: JoinHandle<()>,
    alive: Arc<AtomicBool>,
    /// Raised by the panic hook while the worker's panic unwinds toward
    /// its `catch_unwind` (see `install_panic_hook`).
    panicking: Arc<AtomicBool>,
}

// ---------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------

/// Fault-tolerant parallel SpMV executor over a [`ChunkKernel`].
///
/// Construction spawns `nthreads - 1` persistent workers (the caller
/// participates as thread 0). Each call fans the kernel's chunks out over
/// the threads with dynamic claiming, each chunk written straight into
/// the executor's output panel, supervises them against the watchdog
/// deadline and recovers per the policy. See the module docs for the
/// fault model and the buffer sets.
pub struct SupervisedSpMv<V: Scalar> {
    kernel: Arc<dyn ChunkKernel<V>>,
    shared: Arc<SupShared<V>>,
    workers: Vec<WorkerSlot>,
    nthreads: usize,
    opts: WatchdogOpts,
    /// The current buffer set.
    bufs: Arc<Buffers<V>>,
    /// Whether a worker may still touch `bufs`: set when a call
    /// dispatches, cleared when it returns with every chunk resolved. The
    /// next call retires a busy set instead of reusing it.
    bufs_busy: bool,
    /// Width of the result in the output panel; `0` when there is none
    /// (no successful call yet, the last call failed, or the panel was
    /// taken).
    out_k: usize,
    /// Self-check scratch, grown to the largest checked chunk panel.
    scratch: Vec<V>,
}

/// A chunk unresolved at the deadline, as triage classified it.
struct Lost {
    chunk: usize,
    /// Its claimer (`0` when the caller took it over for recovery).
    tid: usize,
    /// What the claimer did, if it was a worker.
    fault: Option<(FaultEvent, PoolError)>,
}

impl<V: Scalar> SupervisedSpMv<V> {
    /// Spawns the worker roster for `kernel` with `nthreads` total
    /// threads and the given watchdog options. Buffers are allocated
    /// lazily, at the width of the first call.
    pub fn with_opts(
        kernel: Arc<dyn ChunkKernel<V>>,
        nthreads: usize,
        opts: WatchdogOpts,
    ) -> SupervisedSpMv<V> {
        assert!(nthreads >= 1, "need at least one thread");
        install_panic_hook();
        let shared = Arc::new(SupShared {
            state: Mutex::new(SupState { epoch: 0, job: None, shutdown: false }),
            work_cv: Condvar::new(),
        });
        let workers = (1..nthreads).map(|tid| spawn_sup_worker(&shared, &kernel, tid, 0)).collect();
        SupervisedSpMv {
            kernel,
            shared,
            workers,
            nthreads,
            opts,
            bufs: Arc::new(Buffers::new()),
            bufs_busy: false,
            out_k: 0,
            scratch: Vec::new(),
        }
    }

    /// [`SupervisedSpMv::with_opts`] with [`WatchdogOpts::default`].
    pub fn new(kernel: Arc<dyn ChunkKernel<V>>, nthreads: usize) -> SupervisedSpMv<V> {
        SupervisedSpMv::with_opts(kernel, nthreads, WatchdogOpts::default())
    }

    /// Threads per call (including the caller).
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The watchdog options in effect.
    pub fn opts(&self) -> &WatchdogOpts {
        &self.opts
    }

    /// Replaces the watchdog deadline for subsequent calls — the
    /// serving layer's per-request deadline plumbing: each batch runs
    /// under the minimum remaining budget of its members instead of the
    /// construction-time default. Any positive value is safe (a low
    /// deadline can only cause spurious serial recovery, never a wrong
    /// result); sub-millisecond values are honored as given.
    pub fn set_deadline(&mut self, deadline: Duration) {
        assert!(deadline > Duration::ZERO, "watchdog deadline must be positive");
        self.opts.deadline = deadline;
    }

    /// Computes `y = A·x` under supervision.
    ///
    /// Returns the call's [`HealthReport`] (empty events ⇒ fully healthy
    /// parallel run). Under [`RecoveryPolicy::FailFast`] the first fault
    /// aborts with a [`PoolError`] and `y` is left untouched.
    pub fn spmv(&mut self, x: &[V], y: &mut [V]) -> Result<HealthReport, PoolError> {
        assert_eq!(x.len(), self.kernel.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.kernel.nrows(), "y length must equal nrows");
        self.spmm(x, 1, y)
    }

    /// Computes the row-major panel `y[nrows x k] = A · x[ncols x k]`
    /// under supervision — the multi-vector analogue of
    /// [`SupervisedSpMv::spmv`], with the identical fault model: chunks
    /// are claimed dynamically, panics/stalls/deaths are recovered by
    /// re-executing the chunk's *panel* serially on the caller
    /// ([`RecoveryPolicy::Degrade`], bit-identical to a serial SpMM), or
    /// the first fault aborts with `y` untouched
    /// ([`RecoveryPolicy::FailFast`]). The `verify_every` self-check
    /// compares full chunk panels bit-for-bit. `k = 1` is bit-identical
    /// to [`SupervisedSpMv::spmv`].
    ///
    /// `x` is copied into the executor's staging panel, and the result is
    /// copied out of the output panel once the call has succeeded.
    /// [`SupervisedSpMv::run`] with [`PanelInput::Shared`] and
    /// [`SupervisedSpMv::take_output`] avoid the copies.
    pub fn spmm(&mut self, x: &[V], k: usize, y: &mut [V]) -> Result<HealthReport, PoolError> {
        assert!(k >= 1, "need at least one right-hand side");
        assert_eq!(x.len(), self.kernel.ncols() * k, "x must be an ncols x k row-major panel");
        assert_eq!(y.len(), self.kernel.nrows() * k, "y must be an nrows x k row-major panel");
        let report = self.run(PanelInput::Gather(&|panel| panel.copy_from_slice(x)), k)?;
        y.copy_from_slice(self.output());
        Ok(report)
    }

    /// Computes the `nrows x k` panel `A · x` under supervision into the
    /// executor's output panel: read it with [`SupervisedSpMv::output`],
    /// or move it out with [`SupervisedSpMv::take_output`]. Fault model
    /// and result are those of [`SupervisedSpMv::spmm`]; an error leaves
    /// no result behind.
    pub fn run(&mut self, x: PanelInput<'_, V>, k: usize) -> Result<HealthReport, PoolError> {
        let x = self.prepare(x, k);
        let mut report = HealthReport::default();
        let nchunks = self.kernel.nchunks();
        // SAFETY: `prepare` left the set idle.
        let mut out = unsafe { Out::open(&self.bufs, self.kernel.nrows() * k) };
        if nchunks == 0 {
            // All rows lie outside every chunk: zero.
            self.out_k = k;
            return Ok(report);
        }
        let state = Arc::new(Dispatch {
            out: out.clone(),
            x,
            k,
            nchunks,
            next: AtomicUsize::new(0),
            claims: (0..nchunks).map(|_| AtomicUsize::new(UNCLAIMED)).collect(),
            published: (0..nchunks).map(|_| AtomicBool::new(false)).collect(),
            progress: Mutex::new(Progress { done: 0, failed: Vec::new() }),
            done_cv: Condvar::new(),
            slots: TelemetrySink::new(self.nthreads),
            #[cfg(feature = "fault-injection")]
            fault: crate::faults::FaultHandle::capture(),
        });
        if self.nthreads > 1 {
            self.bufs_busy = true;
            let mut st = lock(&self.shared.state);
            st.epoch += 1;
            st.job = Some(Arc::clone(&state));
            drop(st);
            self.shared.work_cv.notify_all();
        }
        // The caller participates as thread 0 (never fault-injected: a
        // scripted fault on the supervisor would be a fault in the test
        // harness, not in the system under test).
        if self.opts.caller_participates {
            loop {
                let c = state.next.fetch_add(1, Ordering::AcqRel);
                if c >= nchunks {
                    break;
                }
                if !state.claim(c, 0) {
                    continue;
                }
                state.slots.beat(0);
                // SAFETY: the caller won chunk `c`'s claim.
                state.slots.timed(0, || unsafe {
                    compute_chunk(&*self.kernel, c, state.x.get(), k, &out)
                });
                state.publish(c);
                state.slots.beat(0);
            }
        }
        let mut abandoned = false;
        let mut result = self.supervise(&state, &mut out, &mut abandoned, &mut report);
        if result.is_ok() && self.opts.verify_every > 0 {
            result = self.self_check(&state, &out, &mut report);
        }
        if self.nthreads > 1 {
            // A worker that wakes only now finds no job and sleeps on; one
            // abandoned in this call keeps its own `Arc`.
            lock(&self.shared.state).job = None;
        }
        result?;
        report.heartbeats = state.slots.heartbeats(0..self.nthreads);
        // Chunk counts come from the claim ledger: who *claimed* each
        // chunk (recovery re-executions are credited to tid 0's busy time
        // but not counted as chunks).
        let mut chunks = vec![0u64; self.nthreads];
        for claim in &state.claims {
            let tid = claim.load(Ordering::Acquire);
            if tid < self.nthreads {
                chunks[tid] += 1;
            }
        }
        report.telemetry = PoolTelemetry { busy_ns: state.slots.busy_ns(), chunks, dispatches: 1 };
        // Every chunk is resolved. A worker abandoned in this call still
        // writes the set unless `retire` already replaced it.
        self.bufs_busy = abandoned;
        self.out_k = k;
        Ok(report)
    }

    /// Computes the same panel as [`SupervisedSpMv::run`] on the calling
    /// thread alone, chunk by chunk in chunk order: bit-identical to a
    /// parallel call, with no worker, no watchdog and nothing to fail —
    /// the degraded path for a caller that has stopped trusting the
    /// pool. The result lands in the same output panel.
    pub fn run_serial(&mut self, x: PanelInput<'_, V>, k: usize) {
        let x = self.prepare(x, k);
        // SAFETY: `prepare` left the set idle, and no worker is involved.
        let out = unsafe { Out::open(&self.bufs, self.kernel.nrows() * k) };
        for c in 0..self.kernel.nchunks() {
            // SAFETY: only this thread touches the set.
            unsafe { compute_chunk(&*self.kernel, c, x.get(), k, &out) };
        }
        self.out_k = k;
    }

    /// The `nrows x k` result of the last successful call; empty if
    /// there is none (the last call failed, or the panel was taken).
    pub fn output(&self) -> &[V] {
        if self.out_k == 0 {
            return &[];
        }
        // SAFETY: a call that leaves a result leaves the set idle, and
        // only `&mut self` methods write it.
        unsafe { self.bufs.y.vec() }
    }

    /// Moves the last result (see [`SupervisedSpMv::output`]) out of the
    /// executor — no copy. The next call allocates a fresh output panel
    /// in its place, so a caller that hands each result on (a serving
    /// layer's reply) pays one allocation per call and no copy.
    pub fn take_output(&mut self) -> Vec<V> {
        if self.out_k == 0 {
            return Vec::new();
        }
        self.out_k = 0;
        // SAFETY: a call that leaves a result leaves the set idle.
        std::mem::take(unsafe { self.bufs.y.vec_mut() })
    }

    /// Readies the current buffer set for a call of width `k`: retires a
    /// busy set, sizes the output panel to exactly `nrows x k`, and
    /// stages `x` unless it is shared. A panel is zeroed once when it is
    /// allocated and only chunk rows are ever written, so rows outside
    /// every chunk stay zero without a per-call fill.
    fn prepare(&mut self, x: PanelInput<'_, V>, k: usize) -> XSrc<V> {
        assert!(k >= 1, "need at least one right-hand side");
        let (nrows, n) = (self.kernel.nrows(), self.kernel.ncols() * k);
        if let PanelInput::Shared(x) = &x {
            assert_eq!(x.len(), n, "x must be an ncols x k row-major panel");
        }
        if self.bufs_busy {
            // A worker may still touch the set: leave it to that worker.
            self.bufs = Arc::new(Buffers::new());
            self.bufs_busy = false;
        }
        self.out_k = 0;
        // SAFETY: the set is idle, so this thread has it to itself.
        let (xs, ys) = unsafe { (self.bufs.x.vec_mut(), self.bufs.y.vec_mut()) };
        if ys.len() != nrows * k {
            // Exact size: a taken panel becomes the caller's result vector.
            *ys = Vec::new();
            *ys = vec![V::zero(); nrows * k];
        }
        match x {
            PanelInput::Shared(x) => XSrc::Shared(x),
            PanelInput::Gather(fill) => {
                if xs.len() < n {
                    *xs = Vec::new();
                    *xs = vec![V::zero(); n];
                }
                fill(&mut xs[..n]);
                XSrc::Staged(View::of(xs, n))
            }
        }
    }

    /// Waits for all chunks, recovering panics immediately and triaging
    /// stragglers at the deadline. Sets `abandoned` if a stalled worker
    /// still writes the current set when it returns.
    fn supervise(
        &mut self,
        state: &Arc<Dispatch<V>>,
        out: &mut Out<V>,
        abandoned: &mut bool,
        report: &mut HealthReport,
    ) -> Result<(), PoolError> {
        let start = Instant::now();
        loop {
            // Handle recorded worker panics without waiting for the
            // deadline.
            let failed = std::mem::take(&mut lock(&state.progress).failed);
            for (chunk, tid) in failed {
                report.events.push(FaultEvent::WorkerPanicked { tid, chunk });
                if self.opts.policy == RecoveryPolicy::FailFast {
                    return Err(PoolError::WorkerPanicked { tid, chunk });
                }
                self.recover_chunk(state, out, chunk, report);
            }
            if state.done() == state.nchunks {
                break;
            }
            let elapsed = start.elapsed();
            if elapsed >= self.opts.deadline {
                self.triage(state, out, abandoned, report, elapsed)?;
                break;
            }
            let p = lock(&state.progress);
            if p.done < state.nchunks && p.failed.is_empty() {
                let _unused = state
                    .done_cv
                    .wait_timeout(p, self.opts.deadline - elapsed)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        Ok(())
    }

    /// Deadline expired with chunks outstanding: classify each straggling
    /// worker (dead vs stalled), abandon/respawn it, and re-execute its
    /// chunk serially (Degrade) or abort (FailFast). A stalled worker
    /// keeps writing the call's set, so the set is retired to it.
    fn triage(
        &mut self,
        state: &Arc<Dispatch<V>>,
        out: &mut Out<V>,
        abandoned: &mut bool,
        report: &mut HealthReport,
        waited: Duration,
    ) -> Result<(), PoolError> {
        // Classify every unresolved chunk before recovering any. An
        // unstarted chunk is claimed for recovery here, so no worker can
        // pick it up while the caller writes its rows.
        let mut lost: Vec<Lost> = Vec::new();
        for chunk in 0..state.nchunks {
            if state.published[chunk].load(Ordering::Acquire) {
                continue;
            }
            if state.claim(chunk, RECOVERING) {
                lost.push(Lost { chunk, tid: 0, fault: None });
                continue;
            }
            let tid = state.claims[chunk].load(Ordering::Acquire);
            let fault = if tid == 0 || tid >= self.nthreads {
                None // the supervisor's own: no worker to blame
            } else if self.workers[tid - 1].handle.is_finished() {
                Some((FaultEvent::WorkerDied { tid, chunk }, PoolError::WorkerDied { tid, chunk }))
            } else {
                // Alive: stalled, or still unwinding a panic. Either way
                // it may write the chunk's rows until it gets free.
                *abandoned = true;
                if self.workers[tid - 1].panicking.load(Ordering::Acquire) {
                    Some((
                        FaultEvent::WorkerPanicked { tid, chunk },
                        PoolError::WorkerPanicked { tid, chunk },
                    ))
                } else {
                    Some((
                        FaultEvent::WorkerStalled { tid, chunk, waited },
                        PoolError::WorkerStalled { tid, chunk, waited },
                    ))
                }
            };
            lost.push(Lost { chunk, tid, fault });
        }
        if *abandoned && self.opts.policy == RecoveryPolicy::Degrade {
            self.retire(state, out, &lost);
            *abandoned = false; // the straggler's set is no longer ours
        }
        for Lost { chunk, tid, fault } in lost {
            if let Some((event, error)) = fault {
                report.events.push(event);
                self.respawn(tid, report);
                if self.opts.policy == RecoveryPolicy::FailFast {
                    return Err(error);
                }
            }
            // Unclaimed chunks carry no fault to report (the work just
            // has to happen somewhere) — recover them under both
            // policies.
            self.recover_chunk(state, out, chunk, report);
        }
        // Every chunk now has a published result; panics that raced the
        // scan still deserve their event (their chunk was recovered by
        // the loop above, so no further work is needed) unless the scan
        // already reported them.
        let failed = std::mem::take(&mut lock(&state.progress).failed);
        for (chunk, tid) in failed {
            let event = FaultEvent::WorkerPanicked { tid, chunk };
            if report.events.contains(&event) {
                continue;
            }
            report.events.push(event);
            if self.opts.policy == RecoveryPolicy::FailFast {
                return Err(PoolError::WorkerPanicked { tid, chunk });
            }
        }
        debug_assert_eq!(state.done(), state.nchunks, "triage must resolve every chunk");
        Ok(())
    }

    /// Retires the call's buffer set to its stalled worker(s): the
    /// finished chunks move into a fresh set, which becomes both the
    /// executor's set and the caller's `out`; the `lost` chunks are then
    /// recomputed there. The straggler keeps the old set through its
    /// `Arc`, so its late write lands where nobody reads.
    fn retire(&mut self, state: &Dispatch<V>, out: &mut Out<V>, lost: &[Lost]) {
        let fresh = Arc::new(Buffers::new());
        let mut is_lost = vec![false; state.nchunks];
        for l in lost {
            is_lost[l.chunk] = true;
        }
        {
            // SAFETY: the fresh set is not shared yet.
            let ys = unsafe { fresh.y.vec_mut() };
            *ys = vec![V::zero(); out.y.len];
            for c in (0..state.nchunks).filter(|&c| !is_lost[c]) {
                let rows = self.kernel.chunk_rows(c);
                let r = rows.start * state.k..rows.end * state.k;
                // SAFETY: chunk `c` was published before the scan, so its
                // rows are final and nobody writes them again.
                ys[r.clone()].copy_from_slice(unsafe { out.read(r) });
            }
        }
        // SAFETY: only this thread can reach the fresh set.
        *out = unsafe { Out::open(&fresh, out.y.len) };
        self.bufs = fresh;
    }

    /// Re-executes `chunk` serially on the caller into `out` and
    /// publishes it (first publish wins; a late straggler's is a no-op).
    /// The chunk's claimer is resolved: it panicked (releasing its rows),
    /// died, was abandoned (writing a retired set), or never existed
    /// because the caller claimed the chunk for recovery.
    fn recover_chunk(
        &self,
        state: &Arc<Dispatch<V>>,
        out: &Out<V>,
        chunk: usize,
        report: &mut HealthReport,
    ) {
        // Recovery runs on the caller: credit its busy time to tid 0.
        // SAFETY: the claimer is resolved (see above), so only the caller
        // writes the chunk's rows of `out`.
        state.slots.timed(0, || unsafe {
            compute_chunk(&*self.kernel, chunk, state.x.get(), state.k, out)
        });
        state.publish(chunk);
        report.recovered_chunks += 1;
    }

    /// Abandons worker `tid`'s current thread (if still running) and
    /// installs a fresh one in its roster slot, so the pool returns to
    /// full strength for subsequent calls.
    fn respawn(&mut self, tid: usize, report: &mut HealthReport) {
        self.workers[tid - 1].alive.store(false, Ordering::Release);
        let epoch = lock(&self.shared.state).epoch;
        // Dropping the old handle detaches the thread; an abandoned
        // straggler exits on its own when its computation returns and it
        // observes `alive == false`.
        self.workers[tid - 1] = spawn_sup_worker(&self.shared, &self.kernel, tid, epoch);
        report.events.push(FaultEvent::WorkerRespawned { tid });
    }

    /// Replaces any dead roster slot with a fresh worker thread and
    /// returns how many were respawned. The per-call watchdog already
    /// respawns workers it catches faulting *during* a call; this is the
    /// between-calls complement for executor handoff: a serving layer
    /// that parks an executor when its owning thread dies and hands it
    /// to a replacement thread calls this to restore the roster to full
    /// strength before dispatching again. Safe to call at any time the
    /// executor is not mid-call.
    pub fn ensure_workers(&mut self) -> usize {
        let epoch = lock(&self.shared.state).epoch;
        let mut respawned = 0;
        for i in 0..self.workers.len() {
            let slot = &self.workers[i];
            if slot.alive.load(Ordering::Acquire) && !slot.handle.is_finished() {
                continue;
            }
            slot.alive.store(false, Ordering::Release);
            self.workers[i] = spawn_sup_worker(&self.shared, &self.kernel, i + 1, epoch);
            respawned += 1;
        }
        respawned
    }

    /// Re-executes sampled chunks serially into the reused scratch and
    /// compares bit patterns with the result; replaces corrupted chunks
    /// with the serial result (Degrade) or aborts (FailFast).
    fn self_check(
        &mut self,
        state: &Arc<Dispatch<V>>,
        out: &Out<V>,
        report: &mut HealthReport,
    ) -> Result<(), PoolError> {
        let k = state.k;
        for chunk in (0..state.nchunks).step_by(self.opts.verify_every) {
            let rows = self.kernel.chunk_rows(chunk);
            let r = rows.start * k..rows.end * k;
            if self.scratch.len() < r.len() {
                self.scratch.resize(r.len(), V::zero());
            }
            let expect = &mut self.scratch[..r.len()];
            self.kernel.compute_block(chunk, state.x.get(), k, expect);
            // SAFETY: every chunk is resolved, and an abandoned worker
            // writes only a set the result no longer lives in.
            let got = unsafe { out.read(r.clone()) };
            if got.iter().zip(expect.iter()).all(|(a, b)| a.to_bits() == b.to_bits()) {
                continue;
            }
            report.events.push(FaultEvent::ChunkCorrupted { chunk });
            if self.opts.policy == RecoveryPolicy::FailFast {
                return Err(PoolError::ChunkCorrupted { chunk });
            }
            // SAFETY: as above; the serial result is authoritative.
            unsafe { out.write(r, |o| o.copy_from_slice(expect)) };
            report.recovered_chunks += 1;
        }
        Ok(())
    }
}

fn spawn_sup_worker<V: Scalar>(
    shared: &Arc<SupShared<V>>,
    kernel: &Arc<dyn ChunkKernel<V>>,
    tid: usize,
    seen_epoch: u64,
) -> WorkerSlot {
    let alive = Arc::new(AtomicBool::new(true));
    let panicking = Arc::new(AtomicBool::new(false));
    let handle = {
        let shared = Arc::clone(shared);
        let kernel = Arc::clone(kernel);
        let alive = Arc::clone(&alive);
        let panicking = Arc::clone(&panicking);
        std::thread::Builder::new()
            .name(format!("spmv-supervised-{tid}"))
            .spawn(move || sup_worker_loop(shared, kernel, tid, alive, panicking, seen_epoch))
            .expect("failed to spawn supervised worker")
    };
    WorkerSlot { handle, alive, panicking }
}

impl<V: Scalar> Drop for SupervisedSpMv<V> {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            st.job = None;
        }
        self.shared.work_cv.notify_all();
        for slot in self.workers.drain(..) {
            let _ = slot.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::tests::Gapped;
    use spmv_core::csr_du::{CsrDu, DuOptions};
    use spmv_core::csr_duvi::CsrDuVi;
    use spmv_core::csr_vi::CsrVi;
    use spmv_core::{Coo, Csr, SpMv};

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
            if r % 11 == 3 {
                continue; // empty row
            }
            let len = 1 + (next() as usize) % 9;
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

    /// Opts with a deadline generous enough that healthy runs never
    /// degrade, regardless of any `SPMV_WATCHDOG_MS` in the environment.
    fn calm() -> WatchdogOpts {
        WatchdogOpts { deadline: Duration::from_secs(60), ..WatchdogOpts::default() }
    }

    fn kernels(
        csr: &Csr<u32, f64>,
        nchunks: usize,
    ) -> Vec<(&'static str, Arc<dyn ChunkKernel<f64>>)> {
        let du = CsrDu::from_csr(csr, &DuOptions::default());
        let vi = CsrVi::from_csr(csr);
        let duvi = CsrDuVi::from_csr(csr, &DuOptions::default());
        vec![
            ("csr", Arc::new(CsrChunks::new(Arc::new(csr.clone()), nchunks))),
            ("csr-du", Arc::new(CsrDuChunks::new(Arc::new(du), nchunks))),
            ("csr-vi", Arc::new(CsrViChunks::new(Arc::new(vi), nchunks))),
            ("csr-duvi", Arc::new(CsrDuViChunks::new(Arc::new(duvi), nchunks))),
        ]
    }

    #[test]
    fn set_deadline_changes_subsequent_calls_without_respawning() {
        let coo = irregular(120, 100, 3);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(100);
        let mut y_serial = vec![0.0; 120];
        csr.spmv(&x, &mut y_serial);
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 6));
        let mut sup = SupervisedSpMv::with_opts(kernel, 3, calm());
        assert_eq!(sup.opts().deadline, Duration::from_secs(60));
        // Per-request deadline plumbing: tighten, run, relax, run — both
        // calls stay healthy and bit-identical on the same worker roster.
        sup.set_deadline(Duration::from_millis(200));
        assert_eq!(sup.opts().deadline, Duration::from_millis(200));
        let mut y = vec![99.0; 120];
        sup.spmv(&x, &mut y).expect("healthy run under tightened deadline");
        assert_eq!(y, y_serial);
        sup.set_deadline(Duration::from_secs(30));
        let mut y2 = vec![-1.0; 120];
        sup.spmv(&x, &mut y2).expect("healthy run after relaxing");
        assert_eq!(y2, y_serial);
    }

    #[test]
    #[should_panic(expected = "watchdog deadline must be positive")]
    fn zero_deadline_is_rejected() {
        let coo = irregular(40, 40, 5);
        let csr: Csr<u32, f64> = coo.to_csr();
        let kernel: Arc<dyn ChunkKernel<f64>> = Arc::new(CsrChunks::new(Arc::new(csr), 2));
        let mut sup = SupervisedSpMv::with_opts(kernel, 2, calm());
        sup.set_deadline(Duration::ZERO);
    }

    #[test]
    fn healthy_run_matches_serial_bit_exact_all_kernels() {
        let coo = irregular(180, 140, 7);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(140);
        let mut y_serial = vec![0.0; 180];
        csr.spmv(&x, &mut y_serial);
        for nthreads in [1usize, 2, 4, 7] {
            for (name, kernel) in kernels(&csr, nthreads * 2) {
                let mut sup = SupervisedSpMv::with_opts(kernel, nthreads, calm());
                let mut y = vec![99.0; 180];
                let report = sup.spmv(&x, &mut y).expect("healthy run");
                assert_eq!(y, y_serial, "{name} nthreads={nthreads}");
                assert!(!report.degraded(), "{name}: unexpected events {:?}", report.events);
            }
        }
    }

    #[test]
    fn supervised_spmm_matches_serial_panel_all_kernels() {
        let coo = irregular(130, 110, 13);
        let csr: Csr<u32, f64> = coo.to_csr();
        for k in [1usize, 2, 3, 4, 8] {
            let x: Vec<f64> = (0..110 * k).map(|i| ((i % 31) as f64) * 0.21 - 2.5).collect();
            let mut y_serial = vec![0.0; 130 * k];
            csr.spmm(&x, k, &mut y_serial);
            for nthreads in [1usize, 3] {
                for (name, kernel) in kernels(&csr, nthreads * 2) {
                    let mut sup = SupervisedSpMv::with_opts(kernel, nthreads, calm());
                    let mut y = vec![9.0; 130 * k];
                    let report = sup.spmm(&x, k, &mut y).expect("healthy run");
                    assert_eq!(y, y_serial, "{name} k={k} nthreads={nthreads}");
                    assert!(!report.degraded(), "{name}: events {:?}", report.events);
                }
            }
        }
    }

    #[test]
    fn supervised_plan_is_reusable() {
        let coo = irregular(90, 70, 3);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(70);
        let mut y_serial = vec![0.0; 90];
        csr.spmv(&x, &mut y_serial);
        let mut sup = SupervisedSpMv::new(Arc::new(CsrChunks::new(Arc::new(csr), 8)), 4);
        for call in 0..50 {
            let mut y = vec![-1.0; 90];
            sup.spmv(&x, &mut y).expect("healthy run");
            assert_eq!(y, y_serial, "call {call}");
        }
    }

    #[test]
    fn empty_matrix_yields_zero_y() {
        let csr: Csr<u32, f64> = Coo::from_triplets(5, 4, vec![]).unwrap().to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let mut sup = SupervisedSpMv::new(Arc::new(CsrDuChunks::new(Arc::new(du), 4)), 3);
        let mut y = vec![7.0; 5];
        let report = sup.spmv(&[0.0; 4], &mut y).expect("empty matrix");
        assert_eq!(y, vec![0.0; 5]);
        assert!(!report.degraded());
    }

    #[test]
    fn self_check_passes_on_healthy_run() {
        let coo = irregular(120, 100, 9);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(100);
        let mut y_serial = vec![0.0; 120];
        csr.spmv(&x, &mut y_serial);
        let opts = WatchdogOpts { verify_every: 1, ..calm() };
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 6)), 4, opts);
        let mut y = vec![0.0; 120];
        let report = sup.spmv(&x, &mut y).expect("healthy verified run");
        assert_eq!(y, y_serial);
        assert!(!report.degraded(), "self-check must not trip on clean chunks");
    }

    #[test]
    fn failfast_on_healthy_run_is_ok() {
        let coo = irregular(60, 60, 5);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(60);
        let opts = WatchdogOpts { policy: RecoveryPolicy::FailFast, ..calm() };
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 4)), 4, opts);
        let mut y = vec![0.0; 60];
        sup.spmv(&x, &mut y).expect("no fault, no error");
    }

    #[test]
    fn tight_deadline_never_corrupts_results() {
        // The no-false-trips property: an aggressively low deadline may
        // cause spurious serial recovery, but results stay bit-identical
        // and no error is returned under Degrade.
        let coo = irregular(150, 150, 11);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(150);
        let mut y_serial = vec![0.0; 150];
        csr.spmv(&x, &mut y_serial);
        let opts = WatchdogOpts {
            deadline: Duration::from_micros(1),
            policy: RecoveryPolicy::Degrade,
            ..WatchdogOpts::default()
        };
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 16)), 4, opts);
        for _ in 0..10 {
            let mut y = vec![0.0; 150];
            sup.spmv(&x, &mut y).expect("degrade mode never errors");
            assert_eq!(y, y_serial);
        }
    }

    #[test]
    fn heartbeats_cover_all_threads() {
        let coo = irregular(100, 80, 2);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(80);
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 8)), 3, calm());
        let mut y = vec![0.0; 100];
        let report = sup.spmv(&x, &mut y).expect("healthy run");
        assert_eq!(report.heartbeats.len(), 3);
        // All chunk work is accounted for: 2 beats per chunk, 8 chunks.
        assert_eq!(report.heartbeats.iter().sum::<u64>(), 16);
    }

    #[test]
    fn report_telemetry_covers_every_thread() {
        let coo = irregular(100, 80, 4);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(80);
        let mut sup =
            SupervisedSpMv::with_opts(Arc::new(CsrChunks::new(Arc::new(csr), 8)), 3, calm());
        let mut y = vec![0.0; 100];
        let report = sup.spmv(&x, &mut y).expect("healthy run");
        let t = report.telemetry;
        assert_eq!(t.busy_ns.len(), 3);
        assert_eq!(t.dispatches, 1);
        // Every chunk was claimed by exactly one thread.
        assert_eq!(t.chunks.iter().sum::<u64>(), 8);
        assert!(t.imbalance() >= 1.0);
    }

    #[test]
    fn chunk_kernels_overwrite_stale_output() {
        // Panels are reused across calls, so every kernel must overwrite
        // its rows instead of accumulating into pre-zeroed ones.
        let coo = irregular(90, 70, 17);
        let csr: Csr<u32, f64> = coo.to_csr();
        for k in [1usize, 2, 3, 4, 8] {
            let x: Vec<f64> = (0..70 * k).map(|i| ((i % 13) as f64) * 0.3 - 1.7).collect();
            for (name, kernel) in kernels(&csr, 5) {
                for chunk in 0..kernel.nchunks() {
                    let len = kernel.chunk_rows(chunk).len() * k;
                    let mut clean = vec![0.0; len];
                    kernel.compute_block(chunk, &x, k, &mut clean);
                    let mut stale = vec![f64::NAN; len];
                    kernel.compute_block(chunk, &x, k, &mut stale);
                    let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&stale), bits(&clean), "{name} k={k} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn zero_copy_entry_points_match_spmm() {
        let coo = irregular(150, 120, 23);
        let csr: Csr<u32, f64> = coo.to_csr();
        for k in [1usize, 3] {
            let x: Vec<f64> = (0..120 * k).map(|i| ((i % 19) as f64) * 0.4 - 2.0).collect();
            let mut want = vec![0.0; 150 * k];
            csr.spmm(&x, k, &mut want);
            for (name, kernel) in kernels(&csr, 6) {
                let mut sup = SupervisedSpMv::with_opts(kernel, 3, calm());
                let shared = Arc::new(x.clone());
                for call in 0..3 {
                    sup.run(PanelInput::Shared(Arc::clone(&shared)), k).expect("healthy run");
                    assert_eq!(sup.output(), &want[..], "{name} k={k} shared call {call}");
                }
                let taken = sup.take_output();
                assert_eq!(taken, want, "{name} k={k}: taken panel");
                assert!(sup.output().is_empty(), "a taken panel leaves no result behind");
                let gather = |panel: &mut [f64]| panel.copy_from_slice(&x);
                sup.run(PanelInput::Gather(&gather), k).expect("healthy run");
                assert_eq!(sup.output(), &want[..], "{name} k={k}: gathered");
                sup.run_serial(PanelInput::Gather(&gather), k);
                assert_eq!(sup.output(), &want[..], "{name} k={k}: serial");
                let mut y = vec![5.0; 150 * k];
                sup.spmm(&x, k, &mut y).expect("healthy run");
                assert_eq!(y, want, "{name} k={k}: borrowed");
            }
        }
    }

    #[test]
    fn rows_outside_every_chunk_are_zero_on_every_path() {
        let coo = irregular(100, 80, 29);
        let csr: Csr<u32, f64> = coo.to_csr();
        let x = x_for(80);
        let mut want = vec![0.0; 100];
        csr.spmv(&x, &mut want);
        want[40..60].fill(0.0);
        let m = Arc::new(csr);
        let gapped = || Gapped { inner: CsrChunks::new(Arc::clone(&m), 1), gap: 40..60 };
        for policy in [RecoveryPolicy::Degrade, RecoveryPolicy::FailFast] {
            let kernel = gapped();
            let opts = WatchdogOpts { policy, ..calm() };
            let mut sup = SupervisedSpMv::with_opts(Arc::new(kernel), 2, opts);
            for call in 0..2 {
                let mut y = vec![9.0; 100];
                sup.spmv(&x, &mut y).expect("healthy run");
                assert_eq!(y, want, "{policy:?} borrowed call {call}");
                let gather = |panel: &mut [f64]| panel.copy_from_slice(&x);
                sup.run(PanelInput::Gather(&gather), 1).expect("healthy run");
                assert_eq!(sup.output(), &want[..], "{policy:?} panel call {call}");
                sup.run_serial(PanelInput::Gather(&gather), 1);
                assert_eq!(sup.output(), &want[..], "{policy:?} serial call {call}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disjointness violated")]
    fn output_panel_ledger_rejects_overlapping_chunk_writes() {
        let bufs = Arc::new(Buffers::<f64>::new());
        // SAFETY: the set is not shared yet.
        unsafe { *bufs.y.vec_mut() = vec![0.0; 16] };
        let out = unsafe { Out::open(&bufs, 16) };
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            // SAFETY: deliberately violated — the ledger must panic in the
            // second writer before its overlapping slice is built.
            let first = s.spawn(|| unsafe {
                out.write(0..10, |_| {
                    barrier.wait();
                    barrier.wait();
                })
            });
            barrier.wait(); // the first writer now holds rows 0..10
            let second = s.spawn(|| unsafe { out.write(5..12, |_| ()) }).join();
            barrier.wait();
            first.join().expect("first writer is healthy");
            if let Err(payload) = second {
                panic::resume_unwind(payload);
            }
        });
    }
}

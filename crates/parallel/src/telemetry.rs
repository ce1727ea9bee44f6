//! Per-worker execution telemetry for the parallel executors.
//!
//! Wall-clock totals answer *how fast*; they cannot answer *why slow*. On
//! a multithreaded SpMV the dominant "why" is load imbalance — one thread
//! holding a heavy partition while the rest idle at the barrier — which a
//! single end-to-end time hides completely. This module records, per
//! thread, the time spent actually executing dispatched work and the
//! number of work items (pool jobs, or dynamically claimed chunks for the
//! supervised executor) so imbalance becomes a measured quantity.
//!
//! Recording is **always on** and **lock-free**: each thread owns one
//! cache-line-aligned slot of atomic counters and only ever writes its
//! own slot, so a job costs two `Instant` reads and a few relaxed atomic
//! adds. The same slot carries the thread's watchdog heartbeat, so an
//! executor keeps exactly one per-thread counter array.
//!
//! Snapshots are drained through [`crate::pool::WorkerPool::take_telemetry`]
//! (and the [`crate::ParSpMv::take_telemetry`] forwarding method) or
//! arrive attached to a [`crate::HealthReport`] from the supervised
//! executor; the benchmark harness serializes them into `BENCH.json`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A drained snapshot of per-worker counters.
///
/// Index convention throughout: `tid` — slot 0 is the dispatching caller,
/// slots `1..` the pool workers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolTelemetry {
    /// Nanoseconds each thread spent executing dispatched work.
    pub busy_ns: Vec<u64>,
    /// Work items each thread executed: one per pool dispatch for the
    /// static executors (two when a reduction runs as a second dispatch),
    /// one per claimed chunk for the supervised executor.
    pub chunks: Vec<u64>,
    /// Dispatches (or supervised calls) covered by this snapshot.
    pub dispatches: u64,
}

impl PoolTelemetry {
    /// Total busy nanoseconds across all threads.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Load-imbalance ratio: busiest thread's busy time over the mean
    /// busy time. `1.0` is perfect balance; `nthreads` means one thread
    /// did everything while the rest idled. Returns `1.0` for an empty or
    /// all-idle snapshot (nothing to be imbalanced about).
    pub fn imbalance(&self) -> f64 {
        let total = self.total_busy_ns();
        if self.busy_ns.is_empty() || total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.busy_ns.len() as f64;
        *self.busy_ns.iter().max().expect("non-empty") as f64 / mean
    }
}

/// One thread's counters, padded to a cache line so concurrent writers
/// never share one (the slot is written only by its owning thread; the
/// drain reads all slots).
#[derive(Default)]
#[repr(align(64))]
struct Slot {
    busy_ns: AtomicU64,
    items: AtomicU64,
    /// Watchdog liveness counter; never reset by a drain.
    heartbeat: AtomicU64,
}

/// Lock-free per-thread counters owned by a pool or a supervised call:
/// busy time, work items and the watchdog heartbeat, one slot per `tid`.
pub(crate) struct TelemetrySink {
    slots: Vec<Slot>,
    dispatches: AtomicU64,
}

impl TelemetrySink {
    /// A sink with one slot per thread (`tid` in `0..nthreads`).
    pub(crate) fn new(nthreads: usize) -> TelemetrySink {
        TelemetrySink {
            slots: (0..nthreads).map(|_| Slot::default()).collect(),
            dispatches: AtomicU64::new(0),
        }
    }

    /// Credits `elapsed` to `tid`'s busy counter. Relaxed ordering
    /// suffices: counters are diagnostics read at drain time, never
    /// synchronization.
    #[inline]
    fn add_busy(&self, tid: usize, elapsed: Duration) {
        self.slots[tid].busy_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Runs `f`, crediting its wall time to `tid`'s busy counter.
    #[inline]
    pub(crate) fn timed<R>(&self, tid: usize, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add_busy(tid, t0.elapsed());
        r
    }

    /// [`TelemetrySink::timed`], also counting one work item for `tid`.
    #[inline]
    pub(crate) fn record<R>(&self, tid: usize, f: impl FnOnce() -> R) -> R {
        let r = self.timed(tid, f);
        self.slots[tid].items.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Counts one dispatch.
    pub(crate) fn record_dispatch(&self) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps `tid`'s heartbeat.
    #[inline]
    pub(crate) fn beat(&self, tid: usize) {
        self.slots[tid].heartbeat.fetch_add(1, Ordering::AcqRel);
    }

    /// The heartbeat counters of threads `tids`.
    pub(crate) fn heartbeats(&self, tids: Range<usize>) -> Vec<u64> {
        self.slots[tids].iter().map(|s| s.heartbeat.load(Ordering::Acquire)).collect()
    }

    /// The busy nanoseconds of every thread, read without a reset (for a
    /// sink that lives for one call).
    pub(crate) fn busy_ns(&self) -> Vec<u64> {
        self.slots.iter().map(|s| s.busy_ns.load(Ordering::Relaxed)).collect()
    }

    /// Returns the accumulated busy time, work items and dispatch count
    /// and resets them to zero, so consecutive drains cover disjoint
    /// windows (warm-up can be excluded by draining right before the
    /// timed loop). Heartbeats are left running.
    pub(crate) fn snapshot_and_reset(&self) -> PoolTelemetry {
        PoolTelemetry {
            busy_ns: self.slots.iter().map(|s| s.busy_ns.swap(0, Ordering::Relaxed)).collect(),
            chunks: self.slots.iter().map(|s| s.items.swap(0, Ordering::Relaxed)).collect(),
            dispatches: self.dispatches.swap(0, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn imbalance_of_balanced_and_skewed_loads() {
        let balanced =
            PoolTelemetry { busy_ns: vec![100, 100, 100, 100], chunks: vec![1; 4], dispatches: 1 };
        assert!((balanced.imbalance() - 1.0).abs() < 1e-12);
        // One thread does all the work of four: max / mean = 400 / 100.
        let skewed =
            PoolTelemetry { busy_ns: vec![400, 0, 0, 0], chunks: vec![4, 0, 0, 0], dispatches: 1 };
        assert!((skewed.imbalance() - 4.0).abs() < 1e-12);
        assert_eq!(skewed.total_busy_ns(), 400);
    }

    #[test]
    fn imbalance_degenerate_cases() {
        assert_eq!(PoolTelemetry::default().imbalance(), 1.0);
        let idle = PoolTelemetry { busy_ns: vec![0, 0], chunks: vec![0, 0], dispatches: 0 };
        assert_eq!(idle.imbalance(), 1.0);
    }

    #[test]
    fn sink_accumulates_and_resets() {
        let sink = TelemetrySink::new(3);
        sink.record_dispatch();
        sink.add_busy(0, Duration::from_nanos(50));
        sink.add_busy(2, Duration::from_nanos(150));
        sink.add_busy(2, Duration::from_nanos(50));
        sink.beat(1);
        assert_eq!(sink.busy_ns(), vec![50, 0, 200], "a read does not reset");
        let snap = sink.snapshot_and_reset();
        assert_eq!(snap.busy_ns, vec![50, 0, 200]);
        assert_eq!(snap.chunks, vec![0, 0, 0]);
        assert_eq!(snap.dispatches, 1);
        // Drained: the next snapshot starts from zero, heartbeats do not.
        let empty = sink.snapshot_and_reset();
        assert_eq!(empty.total_busy_ns(), 0);
        assert_eq!(empty.dispatches, 0);
        assert_eq!(sink.heartbeats(0..3), vec![0, 1, 0]);
        // `record` times its closure and counts one item per call; two
        // 1 ms records on one slot add up.
        sink.record(0, || std::thread::sleep(Duration::from_millis(1)));
        sink.record(2, || std::thread::sleep(Duration::from_millis(1)));
        sink.record(2, || std::thread::sleep(Duration::from_millis(1)));
        let snap = sink.snapshot_and_reset();
        assert!(snap.busy_ns[0] >= 1_000_000 && snap.busy_ns[2] >= 2_000_000, "{snap:?}");
        assert_eq!(snap.busy_ns[1], 0);
        assert_eq!(snap.chunks, vec![1, 0, 2]);
    }
}

//! Dependency-free round-barrier primitives for the two-phase cycle engine.
//!
//! The GPU model ticks every SM once per simulated cycle. Sharing that
//! inner loop among threads needs a *round barrier*: the cycle loop opens a
//! round, ticks its own share of the SMs while every helper thread ticks
//! another, and waits for all of them before running the serial drain
//! phase. Simulated cycles are short (microseconds of host work), so a
//! classic `Mutex`+`Condvar` barrier would spend more time parking threads
//! than simulating; [`RoundBarrier`] therefore spins on an atomic epoch for
//! a bounded number of iterations before yielding to the scheduler.
//!
//! The barrier is deliberately not a thread pool: helpers are plain scoped
//! threads (`std::thread::scope`) owned by the caller, so borrows of
//! stack-local simulation state need no `'static` laundering and a helper
//! panic propagates when the scope joins. [`DoneGuard`] keeps the cycle
//! loop from deadlocking on a panicked helper: the helper's completion
//! signal rides on `Drop`, and the poison flag it sets on unwind turns the
//! lost round into an error instead of a hang.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use vksim_parallel::{DoneGuard, RoundBarrier, ShutdownGuard};
//!
//! let helpers = 2;
//! let barrier = RoundBarrier::new(helpers);
//! let sum = AtomicU64::new(0);
//! std::thread::scope(|s| {
//!     let _shutdown = ShutdownGuard::new(&barrier);
//!     for t in 1..=helpers {
//!         let (barrier, sum) = (&barrier, &sum);
//!         s.spawn(move || {
//!             let mut epoch = 0;
//!             while let Some(e) = barrier.wait_round(epoch) {
//!                 epoch = e;
//!                 let _done = DoneGuard::new(barrier);
//!                 sum.fetch_add(t as u64 + 1, Ordering::Relaxed);
//!             }
//!         });
//!     }
//!     for _ in 0..10 {
//!         barrier.begin_round();
//!         sum.fetch_add(1, Ordering::Relaxed); // the caller's own share
//!         barrier.try_wait_workers().expect("no helper panicked");
//!     }
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 10 * (1 + 2 + 3));
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Spin iterations before a waiter starts yielding its time slice.
///
/// Rounds in the cycle engine are back-to-back, so the next epoch usually
/// arrives within a few hundred nanoseconds; spinning that long is cheaper
/// than a syscall. The yield fallback keeps forward progress when a waiter
/// shares its core with the thread it waits on.
const SPIN_LIMIT: u32 = 4096;

/// Epoch-based barrier coordinating one writer (the cycle loop) with a
/// fixed set of worker threads. See the [module docs](self) for the
/// protocol and a usage example.
#[derive(Debug)]
pub struct RoundBarrier {
    workers: usize,
    /// Round number; bumped by [`RoundBarrier::begin_round`]. Odd protocol
    /// state lives entirely in this one word: workers watch it grow.
    epoch: AtomicU64,
    /// Workers finished with the current round.
    done: AtomicUsize,
    /// Set by [`RoundBarrier::shutdown`]; workers observe it and exit.
    quit: AtomicBool,
    /// Set when a worker unwound mid-round (via [`DoneGuard`]).
    poisoned: AtomicBool,
}

/// Error returned by [`RoundBarrier::try_wait_workers`]: a worker panicked
/// and unwound mid-round, poisoning the barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoisonedRound;

impl std::fmt::Display for PoisonedRound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a worker panicked mid-round and poisoned the barrier")
    }
}

impl std::error::Error for PoisonedRound {}

impl RoundBarrier {
    /// A barrier for `workers` helper threads and the one thread that opens
    /// rounds.
    pub fn new(workers: usize) -> Self {
        RoundBarrier {
            workers,
            epoch: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            quit: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Coordinator: opens the next round. Must not be called again before
    /// [`RoundBarrier::try_wait_workers`] returns.
    pub fn begin_round(&self) {
        self.done.store(0, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Worker: blocks until a round newer than `seen_epoch` opens. Returns
    /// the new epoch, or `None` after [`RoundBarrier::shutdown`].
    pub fn wait_round(&self, seen_epoch: u64) -> Option<u64> {
        let mut spins = 0u32;
        loop {
            if self.quit.load(Ordering::Acquire) {
                return None;
            }
            let e = self.epoch.load(Ordering::Acquire);
            if e > seen_epoch {
                return Some(e);
            }
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Coordinator: blocks until every worker signalled completion of the
    /// round opened by the last [`RoundBarrier::begin_round`]. A poisoned
    /// round is an `Err`, not a panic, so a coordinator that converts
    /// worker panics into structured faults keeps control of its own
    /// unwind path.
    ///
    /// # Errors
    ///
    /// Returns `Err(PoisonedRound)` when a worker unwound during the round.
    pub fn try_wait_workers(&self) -> Result<(), PoisonedRound> {
        let mut spins = 0u32;
        while self.done.load(Ordering::Acquire) < self.workers {
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if self.poisoned.load(Ordering::Acquire) {
            Err(PoisonedRound)
        } else {
            Ok(())
        }
    }

    /// Coordinator: tells all workers to exit their round loops.
    pub fn shutdown(&self) {
        self.quit.store(true, Ordering::Release);
    }
}

/// RAII round-completion signal: created by a worker at the start of its
/// round, it marks the worker's share complete on drop — including during
/// a panic unwind, where it additionally poisons the barrier so the
/// coordinator fails fast instead of waiting forever.
#[derive(Debug)]
pub struct DoneGuard<'a> {
    barrier: &'a RoundBarrier,
}

impl<'a> DoneGuard<'a> {
    /// Arms the guard for the current round.
    pub fn new(barrier: &'a RoundBarrier) -> Self {
        DoneGuard { barrier }
    }
}

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.barrier.poisoned.store(true, Ordering::Release);
        }
        self.barrier.done.fetch_add(1, Ordering::AcqRel);
    }
}

/// RAII shutdown signal for the coordinator: calls
/// [`RoundBarrier::shutdown`] on drop. Held across the coordinator's cycle
/// loop inside `std::thread::scope`, it guarantees workers are released
/// even when the coordinator unwinds — otherwise the scope's implicit join
/// would deadlock on workers still spinning in
/// [`RoundBarrier::wait_round`].
#[derive(Debug)]
pub struct ShutdownGuard<'a> {
    barrier: &'a RoundBarrier,
}

impl<'a> ShutdownGuard<'a> {
    /// Arms the guard.
    pub fn new(barrier: &'a RoundBarrier) -> Self {
        ShutdownGuard { barrier }
    }
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.barrier.shutdown();
    }
}

/// Threads that share a round for a request of `threads` on this host,
/// the one that opens the round included: at most one per core, at least
/// one.
///
/// Every participant ticks through the round, so more of them than cores
/// can only take turns yielding, and a round's time then depends on how
/// the host schedules them rather than on the work in it.
pub fn worker_cap(threads: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cap_for(threads, cores)
}

fn cap_for(threads: usize, cores: usize) -> usize {
    threads.min(cores).max(1)
}

/// Splits `total` items among `workers` as contiguous, maximally even
/// ranges; returns worker `index`'s `start..end` range. Deterministic in
/// all arguments, so any assignment of simulation state to workers is too.
pub fn chunk_range(total: usize, workers: usize, index: usize) -> std::ops::Range<usize> {
    assert!(workers > 0 && index < workers);
    let base = total / workers;
    let extra = total % workers;
    let start = index * base + index.min(extra);
    let len = base + usize::from(index < extra);
    start..(start + len).min(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn rounds_run_every_worker_exactly_once() {
        let workers = 4;
        let rounds = 100u64;
        let barrier = RoundBarrier::new(workers);
        let counts: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..workers {
                let (barrier, counts) = (&barrier, &counts);
                s.spawn(move || {
                    let mut epoch = 0;
                    while let Some(e) = barrier.wait_round(epoch) {
                        epoch = e;
                        let _done = DoneGuard::new(barrier);
                        counts[t].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..rounds {
                barrier.begin_round();
                barrier.try_wait_workers().expect("healthy round");
            }
            barrier.shutdown();
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), rounds);
        }
    }

    #[test]
    fn shutdown_before_any_round_terminates_workers() {
        let barrier = RoundBarrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let barrier = &barrier;
                s.spawn(move || {
                    assert_eq!(barrier.wait_round(0), None);
                });
            }
            barrier.shutdown();
        });
    }

    #[test]
    fn coordinator_observes_worker_effects_after_wait() {
        // The Release/Acquire pairing on `done` must publish worker writes.
        let barrier = RoundBarrier::new(2);
        let cell = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..2 {
                let (barrier, cell) = (&barrier, &cell);
                s.spawn(move || {
                    let mut epoch = 0;
                    while let Some(e) = barrier.wait_round(epoch) {
                        epoch = e;
                        let _done = DoneGuard::new(barrier);
                        cell.fetch_add(epoch * (t as u64 + 1), Ordering::Relaxed);
                    }
                });
            }
            let mut expect = 0;
            for _ in 0..50 {
                barrier.begin_round();
                barrier.try_wait_workers().expect("healthy round");
                let epoch = barrier.epoch.load(Ordering::Relaxed);
                // worker 1 adds epoch, worker 2 adds 2 * epoch
                expect += epoch + epoch * 2;
                assert_eq!(cell.load(Ordering::Relaxed), expect);
            }
            barrier.shutdown();
        });
    }

    #[test]
    fn shutdown_guard_releases_workers_on_unwind() {
        let barrier = RoundBarrier::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                let b = &barrier;
                s.spawn(move || {
                    assert_eq!(b.wait_round(0), None);
                });
                let _shutdown = ShutdownGuard::new(&barrier);
                panic!("coordinator failure");
            });
        }));
        assert!(result.is_err(), "coordinator panic must propagate");
    }

    #[test]
    fn try_wait_workers_reports_poison_without_panicking() {
        let barrier = RoundBarrier::new(1);
        std::thread::scope(|s| {
            let b = &barrier;
            s.spawn(move || {
                let mut epoch = 0;
                while let Some(e) = b.wait_round(epoch) {
                    epoch = e;
                    let _done = DoneGuard::new(b);
                    // Simulate an uncontained worker panic: a real unwind
                    // through the guard, caught at the thread boundary so
                    // the test itself survives the scope join.
                    let _ = std::panic::catch_unwind(|| {
                        let _poisoner = DoneGuard::new(b);
                        // The extra guard also bumps `done`; undo below.
                        panic!("worker failure");
                    });
                    // Undo the extra done signal from the inner guard.
                    b.done.fetch_sub(1, Ordering::AcqRel);
                }
            });
            barrier.begin_round();
            assert_eq!(barrier.try_wait_workers(), Err(PoisonedRound));
            barrier.shutdown();
        });
    }

    #[test]
    fn worker_cap_is_one_participant_per_core() {
        assert_eq!(cap_for(1, 8), 1);
        assert_eq!(cap_for(2, 2), 2);
        assert_eq!(cap_for(4, 2), 2);
        assert_eq!(cap_for(4, 8), 4);
        assert_eq!(cap_for(8, 4), 4);
        // One core cannot be helped; the caller still ticks.
        assert_eq!(cap_for(2, 1), 1);
        assert_eq!(cap_for(0, 8), 1);
        assert!(worker_cap(usize::MAX) >= 1);
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for total in [0usize, 1, 5, 8, 17, 100] {
            for workers in [1usize, 2, 3, 7, 16] {
                let mut covered = Vec::new();
                for w in 0..workers {
                    covered.extend(chunk_range(total, workers, w));
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>());
                // Even: sizes differ by at most one.
                let sizes: Vec<usize> = (0..workers)
                    .map(|w| chunk_range(total, workers, w).len())
                    .collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "uneven split {sizes:?}");
            }
        }
    }
}

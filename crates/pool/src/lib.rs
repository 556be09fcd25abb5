//! cpc-pool: a work-stealing executor behind a deterministic-reduction
//! API.
//!
//! The paper's cluster runs found no easy parallelism across commodity
//! networks; the parallelism that *is* easy — host threads — is only
//! admissible here if it cannot move a single output byte. Every
//! oracle in this workspace (chaos byte-identical reruns, ABFT
//! redundant integration, kill-resume artifact identity) assumes
//! bit-identical determinism, so the executor enforces one rule:
//!
//! **Index-ordered commit.** [`Pool::par_map_indexed`] runs tasks on
//! whatever thread steals them, in whatever order the scheduler and
//! the chaos layer conspire to produce, but the results are merged
//! into the output vector by *task index*, never by completion order.
//! Reduction order — and therefore every byte any caller writes from
//! the results — is fixed across thread counts and interleavings.
//!
//! Scheduling is classic range stealing without `unsafe`: each worker
//! owns a mutex-guarded index range, pops from the front of its own
//! range, and steals the back half of a victim's range when empty
//! (one task at a time under a chaos steal storm). Each index is
//! claimed exactly once by construction; the merge step still audits
//! for lost or doubly-claimed tasks and convicts with a typed
//! [`PoolError`] rather than trusting the construction.
//!
//! Worker panics are caught at the task boundary and surfaced as
//! [`TaskPanic`] values so a campaign driver can reclaim the task via
//! the lease path; the pool spawns scoped threads per call, so a
//! poisoned long-lived pool is structurally impossible. A stall
//! watchdog on the calling thread counts fixed-length
//! `Condvar::wait_timeout` ticks with no task completions and convicts
//! a deadlocked schedule as [`PoolError::Stalled`] instead of hanging
//! the harness. (Tick counting, not the ambient clock — the
//! determinism audit allows none in `crates/`; the watchdog measures
//! real time only in units of its own timeouts. Its scope is
//! scheduler-level stalls: a task that blocks forever *inside* user
//! code is the harness-level watchdog's job, same as under any
//! work-stealing runtime.)

mod backoff;
pub mod chaos;

pub use backoff::Backoff;
pub use chaos::{quiet_injected_panics, SchedChaos, SchedFault, SchedFaultPlan, INJECTED_PANIC};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default watchdog tick and strike budget: ~10 s of zero progress
/// before a schedule is convicted as stalled.
const STALL_TICK: Duration = Duration::from_millis(100);
const STALL_STRIKES: u32 = 100;

/// A task that panicked mid-execution (caught at the task boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the task within the mapped slice.
    pub task: usize,
    /// Rendered panic payload.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

/// Scheduler-level failure of a whole `par_map` call. `LostTask` and
/// `DoubleClaim` indict the executor itself and should be impossible;
/// `Stalled` convicts a schedule that stopped making progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// No task completed for the full strike budget of watchdog ticks.
    Stalled { completed: usize, total: usize },
    /// An index was never claimed by any worker.
    LostTask { task: usize },
    /// An index was claimed (and executed) by two workers.
    DoubleClaim { task: usize },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Stalled { completed, total } => write!(
                f,
                "schedule stalled: {completed}/{total} tasks completed, then no progress \
                 for the watchdog's full strike budget"
            ),
            PoolError::LostTask { task } => write!(f, "task {task} was never claimed"),
            PoolError::DoubleClaim { task } => write!(f, "task {task} was claimed twice"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Lifetime counters for one pool (shared across its calls).
#[derive(Debug, Default)]
struct StatCells {
    tasks: AtomicU64,
    steals: AtomicU64,
    panics_caught: AtomicU64,
    spins: AtomicU64,
    yields: AtomicU64,
    parks: AtomicU64,
    stalls: AtomicU64,
}

/// Point-in-time snapshot of a pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub tasks: u64,
    pub steals: u64,
    pub panics_caught: u64,
    pub backoff_spins: u64,
    pub backoff_yields: u64,
    pub backoff_parks: u64,
    pub stalls: u64,
}

/// The executor. Cheap to construct; worker threads are scoped to each
/// `par_map` call (no idle threads between calls, no pool to poison).
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
    stall_tick: Duration,
    stall_strikes: u32,
    chaos: Option<Arc<SchedChaos>>,
    stats: Arc<StatCells>,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            stall_tick: STALL_TICK,
            stall_strikes: STALL_STRIKES,
            chaos: None,
            stats: Arc::new(StatCells::default()),
        }
    }

    /// The sequential fallback: every map runs inline on the caller.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Attach an interleaving-fuzz plan. The `Arc` is shared so global
    /// counters survive mid-campaign pool swaps.
    pub fn with_chaos(mut self, chaos: Arc<SchedChaos>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Override the stall watchdog's tick length and strike budget
    /// (conviction after `strikes` consecutive no-progress ticks).
    pub fn with_stall_budget(mut self, tick: Duration, strikes: u32) -> Self {
        self.stall_tick = tick;
        self.stall_strikes = strikes.max(1);
        self
    }

    /// Configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when every map runs inline on the caller.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }

    /// Snapshot the pool's lifetime counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.stats;
        PoolStats {
            tasks: c.tasks.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            panics_caught: c.panics_caught.load(Ordering::Relaxed),
            backoff_spins: c.spins.load(Ordering::Relaxed),
            backoff_yields: c.yields.load(Ordering::Relaxed),
            backoff_parks: c.parks.load(Ordering::Relaxed),
            stalls: c.stalls.load(Ordering::Relaxed),
        }
    }

    /// Map `f` over `items`, results in task-index order. Panics if
    /// any task panicked (first panic in index order, re-raised) — use
    /// [`try_par_map_indexed`](Self::try_par_map_indexed) to handle
    /// panics as data — and on scheduler-level [`PoolError`]s, which
    /// indict the executor itself.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let results = self
            .try_par_map_indexed(items, f)
            .unwrap_or_else(|e| panic!("cpc-pool scheduler failure: {e}"));
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
            .collect()
    }

    /// Map `f` over `items`, returning one `Result` per task in
    /// task-index order: `Ok(r)` for completed tasks, `Err(TaskPanic)`
    /// for tasks whose execution panicked. The outer error convicts
    /// the *schedule* (stall) or the executor (lost/double claim).
    pub fn try_par_map_indexed<T, R, F>(
        &self,
        items: &[T],
        f: F,
    ) -> Result<Vec<Result<R, TaskPanic>>, PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return Ok(self.run_inline(items, &f));
        }
        self.run_stealing(items, &f, workers)
    }

    /// Sequential path: same chaos instrumentation, same task-boundary
    /// panic containment, zero threads.
    fn run_inline<T, R, F>(&self, items: &[T], f: &F) -> Vec<Result<R, TaskPanic>>
    where
        F: Fn(usize, &T) -> R,
    {
        let chaos = self.chaos.as_deref();
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                if let Some(c) = chaos {
                    c.at_yield_point(0);
                }
                self.execute(f, i, item, chaos)
            })
            .collect()
    }

    /// One task, panic-contained, with chaos panic injection inside
    /// the containment boundary so injected and organic panics take
    /// the identical recovery path.
    fn execute<T, R, F>(
        &self,
        f: &F,
        i: usize,
        item: &T,
        chaos: Option<&SchedChaos>,
    ) -> Result<R, TaskPanic>
    where
        F: Fn(usize, &T) -> R,
    {
        let inject = chaos.is_some_and(|c| c.on_task_start());
        self.stats.tasks.fetch_add(1, Ordering::Relaxed);
        catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("{INJECTED_PANIC} (task {i})");
            }
            f(i, item)
        }))
        .map_err(|payload| {
            self.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
            TaskPanic {
                task: i,
                message: panic_message(payload.as_ref()),
            }
        })
    }

    fn run_stealing<T, R, F>(
        &self,
        items: &[T],
        f: &F,
        workers: usize,
    ) -> Result<Vec<Result<R, TaskPanic>>, PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        // Contiguous initial partition: worker w owns [w*n/W, (w+1)*n/W).
        let ranges: Vec<Mutex<(usize, usize)>> = (0..workers)
            .map(|w| Mutex::new((w * n / workers, (w + 1) * n / workers)))
            .collect();
        let remaining = AtomicUsize::new(n);
        let completions = AtomicU64::new(0);
        let stalled = AtomicUsize::new(0); // 0 = live, 1 = convicted
        let wake = (Mutex::new(()), Condvar::new());
        let chaos = self.chaos.as_deref();

        let locals: Vec<Vec<(usize, Result<R, TaskPanic>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let ranges = &ranges;
                    let remaining = &remaining;
                    let completions = &completions;
                    let stalled = &stalled;
                    let wake = &wake;
                    s.spawn(move || {
                        self.worker_loop(
                            me,
                            items,
                            f,
                            ranges,
                            remaining,
                            completions,
                            stalled,
                            wake,
                            chaos,
                        )
                    })
                })
                .collect();

            self.watch(&remaining, &completions, &stalled, &wake);

            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker thread must not die"))
                .collect()
        });

        let mut slots: Vec<Option<Result<R, TaskPanic>>> =
            std::iter::repeat_with(|| None).take(n).collect();
        let mut double_claim = None;
        for (i, res) in locals.into_iter().flatten() {
            if slots[i].is_some() {
                double_claim = Some(i);
            }
            slots[i] = Some(res);
        }
        if stalled.load(Ordering::Acquire) != 0 {
            self.stats.stalls.fetch_add(1, Ordering::Relaxed);
            let completed = slots.iter().filter(|s| s.is_some()).count();
            return Err(PoolError::Stalled {
                completed,
                total: n,
            });
        }
        if let Some(task) = double_claim {
            return Err(PoolError::DoubleClaim { task });
        }
        let mut out = Vec::with_capacity(n);
        for (task, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(res) => out.push(res),
                None => return Err(PoolError::LostTask { task }),
            }
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn worker_loop<T, R, F>(
        &self,
        me: usize,
        items: &[T],
        f: &F,
        ranges: &[Mutex<(usize, usize)>],
        remaining: &AtomicUsize,
        completions: &AtomicU64,
        stalled: &AtomicUsize,
        wake: &(Mutex<()>, Condvar),
        chaos: Option<&SchedChaos>,
    ) -> Vec<(usize, Result<R, TaskPanic>)>
    where
        F: Fn(usize, &T) -> R,
    {
        let mut local = Vec::new();
        let mut backoff = Backoff::new();
        loop {
            if stalled.load(Ordering::Acquire) != 0 {
                break;
            }
            match self.claim(me, ranges, chaos) {
                Some(i) => {
                    backoff.reset();
                    if let Some(c) = chaos {
                        c.at_yield_point(me);
                    }
                    local.push((i, self.execute(f, i, &items[i], chaos)));
                    completions.fetch_add(1, Ordering::Release);
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Last task: wake the watchdog. Notifying under
                        // the lock pairs with its atomic unlock-and-wait,
                        // so the wakeup cannot be lost.
                        let _guard = wake.0.lock().expect("pool wake lock");
                        wake.1.notify_all();
                    }
                }
                None => {
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    if let Some(c) = chaos {
                        c.at_yield_point(me);
                    }
                    backoff.snooze();
                }
            }
        }
        self.stats
            .spins
            .fetch_add(backoff.spins(), Ordering::Relaxed);
        self.stats
            .yields
            .fetch_add(backoff.yields(), Ordering::Relaxed);
        self.stats
            .parks
            .fetch_add(backoff.parks(), Ordering::Relaxed);
        local
    }

    /// Claim one task index: pop the front of our own range, else
    /// steal the back half (one task under a storm) of the first
    /// non-empty victim.
    fn claim(
        &self,
        me: usize,
        ranges: &[Mutex<(usize, usize)>],
        chaos: Option<&SchedChaos>,
    ) -> Option<usize> {
        {
            let mut own = ranges[me].lock().expect("pool range lock");
            if own.0 < own.1 {
                let i = own.0;
                own.0 += 1;
                return Some(i);
            }
        }
        let workers = ranges.len();
        for offset in 1..workers {
            let victim = (me + offset) % workers;
            let (lo, hi) = {
                let mut v = ranges[victim].lock().expect("pool range lock");
                let avail = v.1 - v.0;
                if avail == 0 {
                    continue;
                }
                let take = if chaos.is_some_and(|c| c.steal_one()) {
                    1
                } else {
                    avail - avail / 2
                };
                let lo = v.1 - take;
                let hi = v.1;
                v.1 = lo;
                (lo, hi)
            };
            self.stats.steals.fetch_add(1, Ordering::Relaxed);
            if hi - lo > 1 {
                // Our range is empty (checked above) and only we ever
                // refill it, so the overwrite cannot drop tasks.
                let mut own = ranges[me].lock().expect("pool range lock");
                *own = (lo + 1, hi);
            }
            return Some(lo);
        }
        None
    }

    /// Caller-side stall watchdog: sleep on the condvar in fixed
    /// ticks; `strikes` consecutive ticks with zero completions
    /// convict the schedule and tell the workers to bail.
    fn watch(
        &self,
        remaining: &AtomicUsize,
        completions: &AtomicU64,
        stalled: &AtomicUsize,
        wake: &(Mutex<()>, Condvar),
    ) {
        let mut strikes = 0u32;
        let mut last = completions.load(Ordering::Acquire);
        let mut guard = wake.0.lock().expect("pool wake lock");
        while remaining.load(Ordering::Acquire) > 0 {
            let (g, timeout) = wake
                .1
                .wait_timeout(guard, self.stall_tick)
                .expect("pool wake wait");
            guard = g;
            let now = completions.load(Ordering::Acquire);
            if now != last {
                last = now;
                strikes = 0;
            } else if timeout.timed_out() {
                strikes += 1;
                if strikes >= self.stall_strikes {
                    stalled.store(1, Ordering::Release);
                    break;
                }
            }
        }
    }
}

/// Render a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(i: usize, x: &u64) -> u64 {
        (*x) * (*x) + i as u64
    }

    #[test]
    fn results_are_index_ordered_across_thread_counts() {
        let items: Vec<u64> = (0..97).collect();
        let reference = Pool::sequential().par_map_indexed(&items, square);
        for threads in [2, 3, 4, 8] {
            let got = Pool::new(threads).par_map_indexed(&items, square);
            assert_eq!(got, reference, "threads={threads} must not reorder");
        }
    }

    #[test]
    fn empty_and_single_item_maps_work() {
        let empty: Vec<u64> = Vec::new();
        assert!(Pool::new(4).par_map_indexed(&empty, square).is_empty());
        assert_eq!(Pool::new(4).par_map_indexed(&[7u64], square), vec![49]);
    }

    #[test]
    fn steal_storm_does_not_move_a_byte() {
        let chaos = SchedChaos::new(SchedFaultPlan {
            threads: 4,
            faults: vec![SchedFault::StealStorm { from_task: 1 }],
        });
        let items: Vec<u64> = (0..200).collect();
        let reference = Pool::sequential().par_map_indexed(&items, square);
        let stormy = Pool::new(4)
            .with_chaos(chaos)
            .par_map_indexed(&items, square);
        assert_eq!(stormy, reference);
    }

    #[test]
    fn injected_panic_is_contained_and_indexed() {
        quiet_injected_panics();
        let chaos = SchedChaos::new(SchedFaultPlan {
            threads: 2,
            faults: vec![SchedFault::TaskPanic { at_start: 1 }],
        });
        let pool = Pool::new(2).with_chaos(Arc::clone(&chaos));
        let items: Vec<u64> = (0..8).collect();
        let results = pool
            .try_par_map_indexed(&items, square)
            .expect("no pool error");
        let panicked: Vec<usize> = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect();
        assert_eq!(panicked.len(), 1, "exactly one injected panic");
        assert_eq!(chaos.injected_panics(), 1);
        let err = results[panicked[0]].as_ref().unwrap_err();
        assert!(err.message.contains(INJECTED_PANIC));

        // The pool survives: the panic was contained at the task
        // boundary and the next map is clean (the fault is fire-once).
        let again = pool.try_par_map_indexed(&items, square).expect("reusable");
        assert!(again.iter().all(|r| r.is_ok()), "pool must not be poisoned");
        assert_eq!(pool.stats().panics_caught, 1);
    }

    #[test]
    fn organic_panics_are_contained_on_the_sequential_path_too() {
        quiet_injected_panics();
        let items: Vec<u64> = (0..4).collect();
        let results = Pool::sequential()
            .try_par_map_indexed(&items, |i, x| {
                assert!(i != 2, "{INJECTED_PANIC} (organic stand-in)");
                *x
            })
            .expect("no pool error");
        assert!(results[2].is_err());
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 3);
    }

    #[test]
    fn watchdog_convicts_a_pause_longer_than_its_budget() {
        let chaos = SchedChaos::new(SchedFaultPlan {
            threads: 2,
            // Worker 0's first yield point stalls for a full second
            // (the longest pause the pool honors) against a 5-tick x
            // 10 ms budget: conviction, not a hang — with margin enough
            // that a loaded host descheduling the watchdog for a few
            // hundred milliseconds cannot let the pause end first.
            // (Worker 0 is the target because on a one-core host worker
            // 1 may never claim anything before the work is gone.)
            faults: vec![SchedFault::WorkerPause {
                worker: 0,
                at_point: 1,
                micros: 1_000_000,
            }],
        });
        let pool = Pool::new(2)
            .with_chaos(chaos)
            .with_stall_budget(Duration::from_millis(10), 5);
        let items: Vec<u64> = (0..2).collect();
        let err = pool
            .try_par_map_indexed(&items, square)
            .expect_err("pause outlives the stall budget");
        assert!(
            matches!(err, PoolError::Stalled { total: 2, .. }),
            "got {err:?}"
        );
        assert_eq!(pool.stats().stalls, 1);

        // A stalled verdict must not wedge the next call either.
        let ok = pool
            .with_stall_budget(STALL_TICK, STALL_STRIKES)
            .par_map_indexed(&items, square);
        assert_eq!(ok, vec![0, 2]);
    }
}

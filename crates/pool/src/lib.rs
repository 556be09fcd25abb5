//! cpc-pool: a scoped-thread executor behind a deterministic-reduction
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
//! whatever thread claims them, in whatever order the scheduler and
//! the chaos layer conspire to produce, but the results are merged
//! into the output vector by *task index*, never by completion order.
//! Reduction order — and therefore every byte any caller writes from
//! the results — is fixed across thread counts and interleavings.
//!
//! Scheduling is one shared cursor: worker `w` (the caller is worker
//! 0) starts on task `w` and then claims the next unclaimed index with
//! a `fetch_add` until the cursor passes the end. Every production
//! caller hands the pool a batch no wider than its thread count, so
//! each worker runs exactly one task and there is nothing to balance
//! (DESIGN.md §26). Each index is claimed exactly once by construction; the merge
//! step still audits for lost or doubly-claimed tasks and convicts
//! with a typed [`PoolError`] rather than trusting the construction.
//!
//! Worker panics are caught at the task boundary and surfaced as
//! [`TaskPanic`] values so a campaign driver can reclaim the task via
//! the lease path; the pool spawns scoped threads per call, so a
//! poisoned long-lived pool is structurally impossible. No worker ever
//! waits for another — a claim is one atomic add — so there is no
//! scheduler-level stall to watch for: a task that blocks forever
//! *inside* user code hangs `thread::scope` and is the harness's
//! problem, as under any executor.

pub mod chaos;

pub use chaos::{quiet_injected_panics, SchedChaos, SchedFault, SchedFaultPlan, INJECTED_PANIC};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Scheduler-level failure of a whole `par_map` call. Both variants
/// indict the executor itself and should be impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// An index was never claimed by any worker.
    LostTask { task: usize },
    /// An index was claimed (and executed) by two workers.
    DoubleClaim { task: usize },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
    panics_caught: AtomicU64,
}

/// Point-in-time snapshot of a pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub tasks: u64,
    /// Always 0: a cursor has nothing to steal. Kept only because
    /// `benchmark/src/layers.rs` reads it for `pool.steals_per_1k_tasks`;
    /// goes with that row in a harness-alone PR.
    pub steals: u64,
    pub panics_caught: u64,
}

/// The executor. Cheap to construct; worker threads are scoped to each
/// `par_map` call (no idle threads between calls, no pool to poison).
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
    chaos: Option<Arc<SchedChaos>>,
    stats: Arc<StatCells>,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
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
            steals: 0,
            panics_caught: c.panics_caught.load(Ordering::Relaxed),
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
    /// the executor (lost/double claim).
    ///
    /// The caller is worker 0; `min(threads, n) - 1` scoped threads are
    /// spawned beside it, none for a sequential pool or a single task.
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
        let workers = self.threads.min(n).max(1);
        let chaos = self.chaos.as_deref();
        // Relaxed: the cursor publishes nothing but itself — `items` is
        // borrowed before the scope and results return through `join`.
        let cursor = AtomicUsize::new(workers);
        let work = |me: usize| {
            let mut local = Vec::new();
            let mut i = me;
            while i < n {
                if let Some(c) = chaos {
                    c.at_yield_point(me);
                }
                local.push((i, self.execute(&f, i, &items[i], chaos)));
                i = cursor.fetch_add(1, Ordering::Relaxed);
            }
            local
        };
        let locals: Vec<Vec<(usize, Result<R, TaskPanic>)>> = std::thread::scope(|s| {
            let work = &work;
            let spawned: Vec<_> = (1..workers).map(|me| s.spawn(move || work(me))).collect();
            let mut locals = vec![work(0)];
            for handle in spawned {
                locals.push(handle.join().expect("pool worker thread must not die"));
            }
            locals
        });

        let mut slots: Vec<Option<Result<R, TaskPanic>>> =
            std::iter::repeat_with(|| None).take(n).collect();
        for (task, res) in locals.into_iter().flatten() {
            if slots[task].replace(res).is_some() {
                return Err(PoolError::DoubleClaim { task });
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(task, slot)| slot.ok_or(PoolError::LostTask { task }))
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
    fn the_caller_is_worker_zero_and_runs_task_zero() {
        let caller = std::thread::current().id();
        for threads in [2, 3, 8] {
            let items: Vec<u64> = (0..threads as u64).collect();
            let ran_on =
                Pool::new(threads).par_map_indexed(&items, |_, _| std::thread::current().id());
            assert_eq!(ran_on[0], caller, "threads={threads}");
        }
    }

    #[test]
    fn every_index_is_executed_exactly_once() {
        for threads in [1usize, 2, 4] {
            for n in [0, 1, threads.saturating_sub(1), threads, 10 * threads] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let pool = Pool::new(threads);
                let out = pool.par_map_indexed(&runs, |i, run| {
                    run.fetch_add(1, Ordering::Relaxed);
                    i
                });
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "threads={threads} n={n}");
                assert!(
                    runs.iter().all(|run| run.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}: {runs:?}"
                );
                assert_eq!(pool.stats().tasks, n as u64);
            }
        }
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
}

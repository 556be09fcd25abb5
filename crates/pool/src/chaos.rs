//! Interleaving-fuzz fault plans for the executor.
//!
//! A [`SchedFaultPlan`] is a seeded, bounded description of an
//! adversarial schedule: timed pauses at instrumented yield points, a
//! worker panic mid-task, thread-count changes mid-campaign, a lease
//! expiring under a slow worker. The plan *types* live here so the
//! executor can interpret them; the seeded *sampler* (`SchedFaultSpace`) lives in
//! `cpc-chaos::plan` next to the disk, transport and service fault
//! spaces, keyed by the same `SplitMix64::for_message` discipline.
//!
//! Faults perturb only the *schedule*. The determinism oracles in
//! `cpc-chaos` then convict any output byte that moved: a correct
//! executor commits in task-index order, so no interleaving — however
//! adversarial — may change what is written.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

/// Marker carried by every chaos-injected panic payload. The pool's
/// catch-unwind boundary and the [`quiet_injected_panics`] hook both
/// key on it; real (non-injected) panics never contain it.
pub(crate) const INJECTED_PANIC: &str = "cpc-pool chaos: injected worker panic";

/// Longest pause the executor will honor, whatever a plan asks for.
const PAUSE_CEIL: Duration = Duration::from_secs(1);

/// One adversarial scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedFault {
    /// The `at_point`-th instrumented yield point that worker `worker`
    /// passes stalls for `micros` of real time, letting every other
    /// thread race past it.
    WorkerPause {
        worker: usize,
        at_point: u64,
        micros: u64,
    },
    /// The `at_start`-th task start (counted across the whole
    /// campaign, re-executions included) panics mid-task. Fires once.
    TaskPanic { at_start: usize },
    /// Driver-level: after `after_commits` committed cells the
    /// campaign driver swaps the pool for one with `threads` workers.
    ThreadCountChange {
        after_commits: usize,
        threads: usize,
    },
    /// Driver-level: the `at_lease`-th lease grant expires before its
    /// worker commits, and the stale token is presented anyway — the
    /// queue must reject it (the PR 6 lease oracle, now raced against
    /// a real slow worker).
    LeaseExpiryRace { at_lease: usize },
}

/// A sampled schedule: a worker count plus a handful of faults.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SchedFaultPlan {
    /// Worker threads the chaos run starts with.
    pub threads: usize,
    pub faults: Vec<SchedFault>,
}

impl SchedFaultPlan {
    /// A plan that perturbs nothing (the fault-free baseline).
    pub fn quiet(threads: usize) -> Self {
        Self {
            threads,
            faults: Vec::new(),
        }
    }

    /// Driver-level thread-count change, if the plan carries one.
    pub fn thread_change(&self) -> Option<(usize, usize)> {
        self.faults.iter().find_map(|f| match *f {
            SchedFault::ThreadCountChange {
                after_commits,
                threads,
            } => Some((after_commits, threads)),
            _ => None,
        })
    }

    /// Driver-level stale-lease injection point, if present.
    pub fn stale_lease_at(&self) -> Option<usize> {
        self.faults.iter().find_map(|f| match *f {
            SchedFault::LeaseExpiryRace { at_lease } => Some(at_lease),
            _ => None,
        })
    }

    /// Number of `TaskPanic` faults (the reclaim oracle's quota).
    pub fn panic_count(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f, SchedFault::TaskPanic { .. }))
            .count()
    }
}

/// Shared chaos state threaded through every pool the driver creates
/// for one campaign, so global counters (task starts, yield points)
/// keep advancing across mid-campaign pool swaps.
#[derive(Debug)]
pub struct SchedChaos {
    plan: SchedFaultPlan,
    started: AtomicUsize,
    /// One fire-once latch per plan fault, index-aligned with
    /// `plan.faults`.
    fired: Vec<AtomicBool>,
    /// Per-worker yield-point counters (workers beyond the array share
    /// the last slot; samplers never exceed it).
    points: Vec<AtomicU64>,
    injected_panics: AtomicUsize,
    pauses_taken: AtomicUsize,
}

/// Upper bound on per-worker instrumentation slots.
const MAX_WORKERS: usize = 16;

impl SchedChaos {
    pub fn new(plan: SchedFaultPlan) -> Arc<Self> {
        let fired = plan.faults.iter().map(|_| AtomicBool::new(false)).collect();
        Arc::new(Self {
            plan,
            started: AtomicUsize::new(0),
            fired,
            points: (0..MAX_WORKERS).map(|_| AtomicU64::new(0)).collect(),
            injected_panics: AtomicUsize::new(0),
            pauses_taken: AtomicUsize::new(0),
        })
    }

    pub fn plan(&self) -> &SchedFaultPlan {
        &self.plan
    }

    /// Record one task start; returns true when this exact start is an
    /// armed `TaskPanic` (fires once, then re-execution sails through).
    pub(crate) fn on_task_start(&self) -> bool {
        let nth = self.started.fetch_add(1, Ordering::Relaxed) + 1;
        for (slot, fault) in self.fired.iter().zip(&self.plan.faults) {
            if let SchedFault::TaskPanic { at_start } = *fault {
                if at_start == nth && !slot.swap(true, Ordering::Relaxed) {
                    self.injected_panics.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
        false
    }

    /// Record one instrumented yield point for `worker`; stalls the
    /// calling thread when the plan scheduled a pause here.
    pub(crate) fn at_yield_point(&self, worker: usize) {
        let slot = worker.min(self.points.len() - 1);
        let nth = self.points[slot].fetch_add(1, Ordering::Relaxed) + 1;
        for (latch, fault) in self.fired.iter().zip(&self.plan.faults) {
            let SchedFault::WorkerPause {
                worker: w,
                at_point,
                micros,
            } = *fault
            else {
                continue;
            };
            if w == worker && at_point == nth && !latch.swap(true, Ordering::Relaxed) {
                self.pauses_taken.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(micros).min(PAUSE_CEIL));
            }
        }
    }

    /// Panics injected so far (each fires at most once).
    pub fn injected_panics(&self) -> usize {
        self.injected_panics.load(Ordering::Relaxed)
    }

    /// Pauses actually taken so far.
    pub fn pauses_taken(&self) -> usize {
        self.pauses_taken.load(Ordering::Relaxed)
    }
}

/// Install (once, process-wide) a panic hook that swallows the report
/// for chaos-*injected* panics and forwards every other panic to the
/// previously installed hook. Without this, every sampled `TaskPanic`
/// schedule sprays a spurious "thread panicked" report into the chaos
/// journal's stderr even though the panic is caught and the task
/// reclaimed.
pub fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(INJECTED_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_panic_fires_exactly_once_at_its_start() {
        let chaos = SchedChaos::new(SchedFaultPlan {
            threads: 2,
            faults: vec![SchedFault::TaskPanic { at_start: 3 }],
        });
        let fired: Vec<bool> = (0..5).map(|_| chaos.on_task_start()).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        assert_eq!(chaos.injected_panics(), 1);
    }

    #[test]
    fn pause_fires_once_for_the_right_worker_and_point() {
        let chaos = SchedChaos::new(SchedFaultPlan {
            threads: 2,
            faults: vec![SchedFault::WorkerPause {
                worker: 1,
                at_point: 2,
                micros: 1,
            }],
        });
        chaos.at_yield_point(0);
        chaos.at_yield_point(0);
        assert_eq!(chaos.pauses_taken(), 0, "wrong worker must not pause");
        chaos.at_yield_point(1);
        chaos.at_yield_point(1);
        assert_eq!(chaos.pauses_taken(), 1);
        chaos.at_yield_point(1);
        assert_eq!(chaos.pauses_taken(), 1, "pause is fire-once");
    }

    #[test]
    fn driver_level_accessors_find_their_faults() {
        let plan = SchedFaultPlan {
            threads: 4,
            faults: vec![
                SchedFault::ThreadCountChange {
                    after_commits: 3,
                    threads: 2,
                },
                SchedFault::LeaseExpiryRace { at_lease: 5 },
                SchedFault::TaskPanic { at_start: 1 },
            ],
        };
        assert_eq!(plan.thread_change(), Some((3, 2)));
        assert_eq!(plan.stale_lease_at(), Some(5));
        assert_eq!(plan.panic_count(), 1);
        assert_eq!(SchedFaultPlan::quiet(2).thread_change(), None);
    }
}

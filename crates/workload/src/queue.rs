//! Persistent sharded work queue with leased tasks: the campaign
//! driver's crash-safe to-do list.
//!
//! Every campaign cell becomes a task identified by an opaque string
//! key (the canonical JSON of its request). Tasks are leased to
//! workers with an expiry derived from the Jacobson/Karels estimator
//! of PR 4 — the lease timeout adapts to observed cell service times
//! exactly as a TCP RTO adapts to round trips — and back off
//! exponentially across retries until a bounded attempt budget
//! abandons the task to a dead-letter state.
//!
//! State changes are journaled as `QueueEvent`s across `shards`
//! checksummed JSONL files (`queue-NN.jsonl`, shard chosen by key
//! hash), using the same [`Journal`] discipline as results: a kill
//! mid-write tears at most the tail of one shard, and recovery
//! replays each shard's intact prefix. Leases are process-scoped —
//! a lease held by a dead incarnation is reclaimed on recovery, so
//! `kill -9` costs at most the re-execution of cells that were
//! in flight, never a lost or doubly-completed task.
//!
//! The queue runs on *virtual time*: the clock advances only when a
//! completion reports its (virtual) elapsed seconds. Replaying the
//! same events therefore rebuilds the same clock, the same estimator
//! state, and the same lease decisions — recovery is deterministic.

use crate::journal::Journal;
use cpc_cluster::RttEstimator;
use cpc_vfs::{fnv1a64, real_fs, SharedFs};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Default cap on lease attempts before a task is abandoned.
pub(crate) const DEFAULT_MAX_ATTEMPTS: usize = 4;

/// Floor on the adaptive lease timeout (virtual seconds): with no
/// service-time samples yet, leases expire after this long.
pub(crate) const LEASE_FLOOR: f64 = 1.0;

/// One durable queue state change. The event log *is* the queue: the
/// in-memory table is always reconstructible by replaying shard
/// prefixes in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum QueueEvent {
    /// A task became known to the queue.
    Enqueue {
        /// Opaque task key (canonical JSON of the request).
        key: String,
        /// Global enqueue sequence number: events shard by key, so
        /// recovery needs this to reconstruct cross-shard enqueue
        /// order (which fixes dispatch order, which fixes the byte
        /// layout of the results artifact).
        seq: u64,
    },
    /// A worker took a lease on a pending task.
    Lease {
        /// Task key.
        key: String,
        /// Logical worker index.
        worker: usize,
        /// Monotone lease id; completions must present it.
        lease: u64,
        /// Virtual time at which the lease expires.
        expires: f64,
    },
    /// A leased task finished and its result is durable.
    Complete {
        /// Task key.
        key: String,
        /// The lease under which it completed (0 = pre-seeded from a
        /// recovered result, no execution happened this incarnation).
        lease: u64,
        /// Virtual seconds the cell took (advances the queue clock and
        /// feeds the lease-timeout estimator).
        elapsed: f64,
    },
    /// An expired lease was revoked; the task went back to pending.
    Reclaim {
        /// Task key.
        key: String,
        /// The revoked lease id.
        lease: u64,
    },
    /// A task exhausted its attempt budget and was dead-lettered.
    Abandon {
        /// Task key.
        key: String,
        /// Attempts consumed.
        attempts: usize,
    },
}

impl QueueEvent {
    fn key(&self) -> &str {
        match self {
            QueueEvent::Enqueue { key, .. }
            | QueueEvent::Lease { key, .. }
            | QueueEvent::Complete { key, .. }
            | QueueEvent::Reclaim { key, .. }
            | QueueEvent::Abandon { key, .. } => key,
        }
    }
}

/// A task's current standing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    Pending,
    Leased { lease: u64, expires: f64 },
    Done,
    Abandoned,
}

#[derive(Debug)]
struct TaskMeta {
    state: TaskState,
    attempts: usize,
}

/// What recovery found on disk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueueRecovery {
    /// Tasks known to the recovered queue.
    pub tasks: usize,
    /// Tasks already completed before the kill.
    pub done: usize,
    /// Leases that were in flight when the previous incarnation died
    /// and were reclaimed (their tasks went back to pending).
    pub reclaimed: usize,
    /// Tasks found dead-lettered.
    pub abandoned: usize,
    /// Torn/damaged journal lines dropped across all shards.
    pub dropped_lines: usize,
}

/// A lease handed to a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct LeasedTask {
    /// The task's key.
    pub key: String,
    /// Lease id to present on completion.
    pub lease: u64,
    /// Virtual expiry time.
    pub expires: f64,
    /// 1-based attempt number for this execution.
    pub attempt: usize,
}

/// Why a completion was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteError {
    /// The presented lease is not the task's current lease (it
    /// expired and was reclaimed, or a duplicate completion raced a
    /// newer lease). The work is discarded — the current leaseholder
    /// owns the cell.
    StaleLease,
    /// No such task.
    UnknownTask,
    /// The task is already done; duplicate completions are rejected
    /// so a cell can never be recorded twice.
    AlreadyDone,
}

/// The persistent sharded queue.
pub struct WorkQueue {
    dir: PathBuf,
    journals: Vec<Journal<QueueEvent>>,
    tasks: HashMap<String, TaskMeta>,
    /// Keys in first-enqueue order: leasing scans this, so dispatch
    /// order is deterministic.
    order: Vec<String>,
    clock: f64,
    estimator: RttEstimator,
    next_lease: u64,
    next_seq: u64,
    max_attempts: usize,
}

impl std::fmt::Debug for WorkQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkQueue")
            .field("dir", &self.dir)
            .field("shards", &self.journals.len())
            .field("tasks", &self.tasks.len())
            .field("clock", &self.clock)
            .finish()
    }
}

impl WorkQueue {
    fn shard_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("queue-{shard:02}.jsonl"))
    }

    fn shard_of(&self, key: &str) -> usize {
        (fnv1a64(key.as_bytes()) % self.journals.len() as u64) as usize
    }

    /// Creates a fresh queue with `shards` journal shards on the real
    /// filesystem, truncating any previous queue state in `dir`.
    pub fn create(dir: impl Into<PathBuf>, shards: usize) -> io::Result<Self> {
        Self::create_on(real_fs(), dir, shards)
    }

    /// Creates a fresh queue on an injected filesystem.
    pub(crate) fn create_on(
        fs: SharedFs,
        dir: impl Into<PathBuf>,
        shards: usize,
    ) -> io::Result<Self> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        let shards = shards.max(1);
        let journals = (0..shards)
            .map(|s| Journal::create_on(fs.clone(), Self::shard_path(&dir, s)))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(WorkQueue {
            dir,
            journals,
            tasks: HashMap::new(),
            order: Vec::new(),
            clock: 0.0,
            estimator: RttEstimator::new(),
            next_lease: 1,
            next_seq: 0,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        })
    }

    /// Recovers the queue from `dir` on `fs`: each shard's intact
    /// journal prefix is replayed (torn tails dropped and counted),
    /// events are merged in lease-id order so cross-shard causality is
    /// preserved, and any lease still open — its holder is necessarily
    /// dead — is reclaimed.
    pub(crate) fn recover_on(
        fs: SharedFs,
        dir: impl Into<PathBuf>,
        shards: usize,
    ) -> io::Result<(Self, QueueRecovery)> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        let shards = shards.max(1);
        let mut recovery = QueueRecovery::default();
        let mut journals = Vec::with_capacity(shards);
        let mut events: Vec<QueueEvent> = Vec::new();
        for s in 0..shards {
            let (journal, rec) =
                Journal::<QueueEvent>::resume_on(fs.clone(), Self::shard_path(&dir, s))?;
            recovery.dropped_lines += rec.dropped;
            events.extend(rec.entries);
            journals.push(journal);
        }
        // Events interleave across shards; their causal order is the
        // order the previous incarnations emitted them. Enqueues
        // carry a global sequence number and sort first among
        // themselves by it; everything else is ordered by its
        // monotone lease id (a Complete under lease L follows the
        // Lease L, and pre-seed Completes under lease 0 sort before
        // any real lease).
        fn rank(e: &QueueEvent) -> (u64, u8, u64) {
            match e {
                QueueEvent::Enqueue { seq, .. } => (0, 0, *seq),
                QueueEvent::Lease { lease, .. } => (*lease, 1, 0),
                QueueEvent::Reclaim { lease, .. } => (*lease, 2, 0),
                QueueEvent::Complete { lease, .. } => (*lease, 3, 0),
                QueueEvent::Abandon { .. } => (u64::MAX, 4, 0),
            }
        }
        events.sort_by_key(rank);

        let mut q = WorkQueue {
            dir,
            journals,
            tasks: HashMap::new(),
            order: Vec::new(),
            clock: 0.0,
            estimator: RttEstimator::new(),
            next_lease: 1,
            next_seq: 0,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        };
        for event in &events {
            let key = event.key().to_string();
            match event {
                QueueEvent::Enqueue { seq, .. } => {
                    q.next_seq = q.next_seq.max(seq + 1);
                    if !q.tasks.contains_key(&key) {
                        q.order.push(key.clone());
                        q.tasks.insert(
                            key.clone(),
                            TaskMeta {
                                state: TaskState::Pending,
                                attempts: 0,
                            },
                        );
                    }
                }
                QueueEvent::Lease { lease, expires, .. } => {
                    q.next_lease = q.next_lease.max(lease + 1);
                    if let Some(meta) = q.tasks.get_mut(&key) {
                        if !matches!(meta.state, TaskState::Done | TaskState::Abandoned) {
                            meta.state = TaskState::Leased {
                                lease: *lease,
                                expires: *expires,
                            };
                            meta.attempts += 1;
                        }
                    }
                }
                QueueEvent::Reclaim { lease, .. } => {
                    if let Some(meta) = q.tasks.get_mut(&key) {
                        if matches!(meta.state,
                            TaskState::Leased { lease: l, .. } if l == *lease)
                        {
                            meta.state = TaskState::Pending;
                        }
                    }
                }
                QueueEvent::Complete { elapsed, .. } => {
                    if let Some(meta) = q.tasks.get_mut(&key) {
                        if meta.state != TaskState::Done {
                            meta.state = TaskState::Done;
                            q.clock += elapsed;
                            if *elapsed > 0.0 {
                                q.estimator.observe(*elapsed);
                            }
                        }
                    }
                }
                QueueEvent::Abandon { .. } => {
                    if let Some(meta) = q.tasks.get_mut(&key) {
                        meta.state = TaskState::Abandoned;
                    }
                }
            }
        }
        // Any lease still open belonged to the dead incarnation.
        let open: Vec<(String, u64)> = q
            .order
            .iter()
            .filter_map(|k| match q.tasks[k].state {
                TaskState::Leased { lease, .. } => Some((k.clone(), lease)),
                _ => None,
            })
            .collect();
        for (key, lease) in open {
            q.log(&QueueEvent::Reclaim {
                key: key.clone(),
                lease,
            })?;
            q.tasks.get_mut(&key).unwrap().state = TaskState::Pending;
            recovery.reclaimed += 1;
        }
        recovery.tasks = q.tasks.len();
        recovery.done = q.done_count();
        recovery.abandoned = q
            .tasks
            .values()
            .filter(|m| m.state == TaskState::Abandoned)
            .count();
        Ok((q, recovery))
    }

    fn log(&mut self, event: &QueueEvent) -> io::Result<()> {
        let shard = self.shard_of(event.key());
        self.journals[shard].append(event)
    }

    /// Overrides the retry budget (default [`DEFAULT_MAX_ATTEMPTS`]).
    pub(crate) fn with_max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// The queue directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of journal shards.
    pub fn shards(&self) -> usize {
        self.journals.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The adaptive lease timeout for a task on its `attempt`-th try
    /// (1-based): the Jacobson/Karels RTO over observed service times
    /// (floored at [`LEASE_FLOOR`]), doubled per prior attempt —
    /// exponential backoff exactly as TCP backs off retransmits.
    pub(crate) fn lease_timeout(&self, attempt: usize) -> f64 {
        let base = self.estimator.rto().unwrap_or(LEASE_FLOOR).max(LEASE_FLOOR);
        base * f64::powi(2.0, attempt.saturating_sub(1) as i32)
    }

    /// Makes `key` known to the queue. Idempotent: re-enqueueing an
    /// existing task (done or not) is a no-op, which is what lets the
    /// service re-derive and re-enqueue the full task list on every
    /// incarnation.
    pub fn enqueue(&mut self, key: &str) -> io::Result<bool> {
        if self.tasks.contains_key(key) {
            return Ok(false);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.log(&QueueEvent::Enqueue {
            key: key.to_string(),
            seq,
        })?;
        self.tasks.insert(
            key.to_string(),
            TaskMeta {
                state: TaskState::Pending,
                attempts: 0,
            },
        );
        self.order.push(key.to_string());
        Ok(true)
    }

    /// Marks `key` done without execution — used to pre-seed the
    /// queue from recovered results (journal prefix or cache) so
    /// finished cells are never re-dispatched. No-op unless pending.
    pub(crate) fn mark_done(&mut self, key: &str) -> io::Result<bool> {
        match self.tasks.get(key) {
            Some(meta) if meta.state == TaskState::Pending => {
                self.log(&QueueEvent::Complete {
                    key: key.to_string(),
                    lease: 0,
                    elapsed: 0.0,
                })?;
                self.tasks.get_mut(key).unwrap().state = TaskState::Done;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Leases the next pending task (first-enqueue order) to
    /// `worker`. Returns `None` when nothing is pending.
    pub fn lease(&mut self, worker: usize) -> io::Result<Option<LeasedTask>> {
        let key = match self
            .order
            .iter()
            .find(|k| self.tasks[*k].state == TaskState::Pending)
        {
            Some(k) => k.clone(),
            None => return Ok(None),
        };
        self.lease_key(&key, worker)
    }

    /// Leases a *specific* pending task to `worker` — `None` when the
    /// task is unknown or not pending. Callers with their own
    /// deterministic dispatch order (the job service) use this so the
    /// artifact's byte layout never depends on the queue's recovered
    /// internal order.
    pub fn lease_key(&mut self, key: &str, worker: usize) -> io::Result<Option<LeasedTask>> {
        match self.tasks.get(key) {
            Some(meta) if meta.state == TaskState::Pending => {}
            _ => return Ok(None),
        }
        let attempt = self.tasks[key].attempts + 1;
        let lease = self.next_lease;
        self.next_lease += 1;
        let expires = self.clock + self.lease_timeout(attempt);
        self.log(&QueueEvent::Lease {
            key: key.to_string(),
            worker,
            lease,
            expires,
        })?;
        let meta = self.tasks.get_mut(key).unwrap();
        meta.state = TaskState::Leased { lease, expires };
        meta.attempts = attempt;
        Ok(Some(LeasedTask {
            key: key.to_string(),
            lease,
            expires,
            attempt,
        }))
    }

    /// Whether `key` is currently pending (dispatchable).
    pub(crate) fn is_pending(&self, key: &str) -> bool {
        matches!(
            self.tasks.get(key),
            Some(TaskMeta {
                state: TaskState::Pending,
                ..
            })
        )
    }

    /// Completes a leased task: verifies the presented lease is
    /// current (stale and duplicate leases are rejected — the
    /// straggler's work is discarded rather than double-counted),
    /// advances the virtual clock by `elapsed`, and feeds the
    /// service-time estimator.
    pub fn complete(&mut self, key: &str, lease: u64, elapsed: f64) -> Result<(), CompleteError> {
        let meta = self.tasks.get(key).ok_or(CompleteError::UnknownTask)?;
        match meta.state {
            TaskState::Done => Err(CompleteError::AlreadyDone),
            TaskState::Leased { lease: current, .. } if current == lease => {
                self.log(&QueueEvent::Complete {
                    key: key.to_string(),
                    lease,
                    elapsed,
                })
                .map_err(|_| CompleteError::UnknownTask)?;
                let meta = self.tasks.get_mut(key).unwrap();
                meta.state = TaskState::Done;
                self.clock += elapsed;
                if elapsed > 0.0 {
                    self.estimator.observe(elapsed);
                }
                Ok(())
            }
            _ => Err(CompleteError::StaleLease),
        }
    }

    /// Revokes every lease whose expiry has passed. Tasks within their
    /// attempt budget go back to pending (with backoff already baked
    /// into their next lease's timeout); tasks beyond it are
    /// dead-lettered. Returns (reclaimed, abandoned) counts.
    pub(crate) fn reclaim_expired(&mut self) -> io::Result<(usize, usize)> {
        let expired: Vec<(String, u64, usize)> = self
            .order
            .iter()
            .filter_map(|k| match self.tasks[k].state {
                TaskState::Leased { lease, expires } if expires <= self.clock => {
                    Some((k.clone(), lease, self.tasks[k].attempts))
                }
                _ => None,
            })
            .collect();
        let (mut reclaimed, mut abandoned) = (0, 0);
        for (key, lease, attempts) in expired {
            if attempts >= self.max_attempts {
                self.log(&QueueEvent::Abandon {
                    key: key.clone(),
                    attempts,
                })?;
                self.tasks.get_mut(&key).unwrap().state = TaskState::Abandoned;
                abandoned += 1;
            } else {
                self.log(&QueueEvent::Reclaim {
                    key: key.clone(),
                    lease,
                })?;
                self.tasks.get_mut(&key).unwrap().state = TaskState::Pending;
                reclaimed += 1;
            }
        }
        Ok((reclaimed, abandoned))
    }

    /// Whether `key` is completed.
    pub(crate) fn is_done(&self, key: &str) -> bool {
        matches!(
            self.tasks.get(key),
            Some(TaskMeta {
                state: TaskState::Done,
                ..
            })
        )
    }

    /// Total tasks known.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks are known.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Completed task count.
    pub(crate) fn done_count(&self) -> usize {
        self.tasks
            .values()
            .filter(|m| m.state == TaskState::Done)
            .count()
    }

    /// Dead-lettered task count.
    pub(crate) fn abandoned_count(&self) -> usize {
        self.tasks
            .values()
            .filter(|m| m.state == TaskState::Abandoned)
            .count()
    }

    /// True when every task is done or dead-lettered.
    pub fn drained(&self) -> bool {
        self.tasks
            .values()
            .all(|m| matches!(m.state, TaskState::Done | TaskState::Abandoned))
    }

    /// Advances virtual time without a completion (used by chaos
    /// schedules to force lease expiry).
    pub(crate) fn advance_clock(&mut self, dt: f64) {
        self.clock += dt.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cpc-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("cell-{i:02}")).collect()
    }

    #[test]
    fn lease_complete_drains_in_enqueue_order() {
        let dir = tmp_dir("drain");
        let mut q = WorkQueue::create(&dir, 3).unwrap();
        for k in keys(5) {
            assert!(q.enqueue(&k).unwrap());
            assert!(!q.enqueue(&k).unwrap(), "idempotent");
        }
        let mut served = Vec::new();
        while let Some(t) = q.lease(0).unwrap() {
            q.complete(&t.key, t.lease, 0.5).unwrap();
            served.push(t.key);
        }
        assert_eq!(served, keys(5), "deterministic dispatch order");
        assert!(q.drained());
        assert_eq!(q.done_count(), 5);
        assert!(q.now() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_duplicate_leases_are_rejected() {
        let dir = tmp_dir("stale");
        let mut q = WorkQueue::create(&dir, 2).unwrap();
        q.enqueue("a").unwrap();
        let t1 = q.lease(0).unwrap().unwrap();
        // Force expiry and reclaim: t1's lease is now stale.
        q.advance_clock(t1.expires + 1.0);
        let (r, a) = q.reclaim_expired().unwrap();
        assert_eq!((r, a), (1, 0));
        let t2 = q.lease(1).unwrap().unwrap();
        assert!(t2.lease > t1.lease);
        assert!(t2.attempt == 2, "retry counted");
        // The straggler's completion under the old lease is discarded.
        assert_eq!(
            q.complete("a", t1.lease, 1.0),
            Err(CompleteError::StaleLease)
        );
        q.complete("a", t2.lease, 1.0).unwrap();
        // A duplicate completion is rejected too.
        assert_eq!(
            q.complete("a", t2.lease, 1.0),
            Err(CompleteError::AlreadyDone)
        );
        assert_eq!(q.done_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_timeout_adapts_and_backs_off() {
        let dir = tmp_dir("rto");
        let mut q = WorkQueue::create(&dir, 1).unwrap();
        assert_eq!(q.lease_timeout(1), LEASE_FLOOR, "cold start uses the floor");
        assert_eq!(q.lease_timeout(3), LEASE_FLOOR * 4.0, "exponential backoff");
        for k in keys(4) {
            q.enqueue(&k).unwrap();
        }
        for _ in 0..4 {
            let t = q.lease(0).unwrap().unwrap();
            q.complete(&t.key, t.lease, 10.0).unwrap();
        }
        // After observing 10 s cells the adaptive timeout dwarfs the floor.
        assert!(q.lease_timeout(1) > 10.0, "got {}", q.lease_timeout(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_retries_dead_letter_a_poison_task() {
        let dir = tmp_dir("poison");
        let mut q = WorkQueue::create(&dir, 1).unwrap().with_max_attempts(2);
        q.enqueue("poison").unwrap();
        for round in 1..=2 {
            let t = q.lease(0).unwrap().unwrap();
            assert_eq!(t.attempt, round);
            q.advance_clock(t.expires + 1.0);
            q.reclaim_expired().unwrap();
        }
        assert_eq!(q.abandoned_count(), 1);
        assert_eq!(q.tasks["poison"].state, TaskState::Abandoned);
        assert!(q.lease(0).unwrap().is_none(), "dead-lettered, not retried");
        assert!(q.drained());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_reclaims_open_leases_and_preserves_done_work() {
        let dir = tmp_dir("recover");
        {
            let mut q = WorkQueue::create(&dir, 3).unwrap();
            for k in keys(6) {
                q.enqueue(&k).unwrap();
            }
            // Two done, one in flight at the "kill".
            for _ in 0..2 {
                let t = q.lease(0).unwrap().unwrap();
                q.complete(&t.key, t.lease, 1.0).unwrap();
            }
            let _in_flight = q.lease(1).unwrap().unwrap();
            // Process dies here: q dropped without completing.
        }
        let (mut q, rec) = WorkQueue::recover_on(real_fs(), &dir, 3).unwrap();
        assert_eq!(rec.tasks, 6);
        assert_eq!(rec.done, 2);
        assert_eq!(rec.reclaimed, 1, "the in-flight lease is reclaimed");
        assert_eq!(rec.dropped_lines, 0);
        // The reclaimed cell is re-dispatched; nothing done is.
        let mut served = Vec::new();
        while let Some(t) = q.lease(0).unwrap() {
            q.complete(&t.key, t.lease, 1.0).unwrap();
            served.push(t.key);
        }
        assert_eq!(served, keys(6)[2..].to_vec());
        assert!(q.drained());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_survives_a_torn_shard_tail() {
        let dir = tmp_dir("torn");
        {
            let mut q = WorkQueue::create(&dir, 2).unwrap();
            for k in keys(4) {
                q.enqueue(&k).unwrap();
            }
            let t = q.lease(0).unwrap().unwrap();
            q.complete(&t.key, t.lease, 1.0).unwrap();
        }
        // Tear the tail of shard 0 mid-line.
        let shard0 = WorkQueue::shard_path(&dir, 0);
        let text = std::fs::read_to_string(&shard0).unwrap();
        std::fs::write(&shard0, format!("{text}deadbeef {{\"Lease\":")).unwrap();

        let (q, rec) = WorkQueue::recover_on(real_fs(), &dir, 2).unwrap();
        assert_eq!(rec.dropped_lines, 1);
        assert_eq!(rec.tasks, 4, "intact prefix keeps all enqueues");
        assert_eq!(rec.done, 1);
        // The torn tail was truncated: a second recovery is clean.
        drop(q);
        let (_, rec2) = WorkQueue::recover_on(real_fs(), &dir, 2).unwrap();
        assert_eq!(rec2.dropped_lines, 0);
        assert_eq!(rec2.done, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mark_done_preseeds_without_execution() {
        let dir = tmp_dir("preseed");
        let mut q = WorkQueue::create(&dir, 1).unwrap();
        for k in keys(3) {
            q.enqueue(&k).unwrap();
        }
        assert!(q.mark_done("cell-01").unwrap());
        assert!(!q.mark_done("cell-01").unwrap(), "already done: no-op");
        let mut served = Vec::new();
        while let Some(t) = q.lease(0).unwrap() {
            q.complete(&t.key, t.lease, 1.0).unwrap();
            served.push(t.key);
        }
        assert_eq!(served, vec!["cell-00".to_string(), "cell-02".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

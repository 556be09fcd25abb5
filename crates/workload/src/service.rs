//! The crash-safe campaign job service: [`WorkQueue`], [`ResultCache`]
//! and results [`Journal`] composed so that `kill -9` of the service
//! is invisible.
//!
//! A campaign is a list of tasks (cells). Each incarnation of the
//! service re-derives the full task list and enqueues it (idempotent),
//! pre-seeds the queue from the recovered results-journal prefix
//! (those cells are done — never re-dispatched), then drains the
//! queue: lease → probe the content-addressed cache → simulate on a
//! miss → commit. The commit order is the correctness core:
//!
//! 1. append the result to the results journal (the durable artifact),
//! 2. store it in the cache,
//! 3. mark the lease complete in the queue.
//!
//! A kill between any two steps loses nothing and double-counts
//! nothing: after (1) the result is durable, so the next incarnation
//! pre-seeds the cell from the journal and the torn queue state is
//! reconciled by `mark_done`; before (1) the cell simply re-runs —
//! the only re-execution any kill can cause is the cell that was in
//! flight. Because dispatch is deterministic (first-pending in
//! enqueue order) and every simulation is deterministic, the resumed
//! journal is **byte-identical** to an uninterrupted run's.
//!
//! The chaos conductor (`cpc-chaos`) drives whole campaigns through
//! sampled fault plans — kills at every commit point
//! ([`ServiceConfig::kill`]), stale leases
//! ([`ServiceConfig::stale_lease_at`]), torn queue and journal writes,
//! cache bit flips — and judges this service's [`ServiceOutcome`]s.

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::journal::Journal;
use crate::queue::{CompleteError, LeasedTask, QueueRecovery, WorkQueue};
use cpc_pool::{Pool, PoolError, TaskPanic};
use cpc_vfs::{fnv1a64, real_fs, Fs, SharedFs};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Where in the three-step commit a scheduled kill lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Before the result journal append: the execution is lost
    /// entirely (a worker dying mid-cell).
    BeforeResult,
    /// After the journal append, before cache store and queue
    /// completion: the worst torn-commit window.
    MidCommit,
    /// After the full commit: the benign boundary.
    AfterCommit,
}

/// Configuration of one service incarnation.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory holding all durable state: queue shards
    /// (`queue-NN.jsonl`), results journal (`journal.jsonl`), cache
    /// (`cache/`).
    pub dir: PathBuf,
    /// Queue journal shards.
    pub shards: usize,
    /// Logical workers (leases rotate across worker ids). Under
    /// [`JobService::run`] a batch is one cell executed in place; under
    /// [`JobService::run_pooled`] the leased cells of a batch execute
    /// concurrently on a `cpc-pool` executor, each worker holding a
    /// real lease whose expiry races its execution.
    pub workers: usize,
    /// Protocol string folded into every cache key (step count,
    /// energy model — whatever the task type leaves implicit).
    pub protocol: String,
    /// Retry budget per task before dead-lettering.
    pub max_attempts: usize,
    /// Kill this incarnation at the n-th fresh execution (1-based),
    /// at the given [`KillPoint`].
    pub kill: Option<(usize, KillPoint)>,
    /// Inject a stale-lease episode at the n-th lease grant (1-based)
    /// of this incarnation: the lease is expired and re-granted, the
    /// original is presented on completion and must be rejected.
    pub stale_lease_at: Option<usize>,
    /// Cache directory override. `None` keeps the cache inside the
    /// service directory; pointing several campaigns at one shared
    /// directory lets identical cells flow between them (sound: the
    /// address binds task, protocol and code version).
    pub cache: Option<PathBuf>,
}

impl ServiceConfig {
    /// Defaults: 4 shards, 1 worker, a generous retry budget.
    pub fn new(dir: impl Into<PathBuf>, protocol: impl Into<String>) -> Self {
        ServiceConfig {
            dir: dir.into(),
            shards: 4,
            workers: 1,
            protocol: protocol.into(),
            max_attempts: 8,
            kill: None,
            stale_lease_at: None,
            cache: None,
        }
    }

    /// The results journal path inside the service directory.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// The effective cache directory: the override when set, otherwise
    /// `cache/` inside the service directory.
    pub fn cache_dir(&self) -> PathBuf {
        self.cache.clone().unwrap_or_else(|| self.dir.join("cache"))
    }
}

/// What one incarnation did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceOutcome {
    /// Cells in the campaign.
    pub total: usize,
    /// Cells durable (journal) when this incarnation stopped.
    pub completed: usize,
    /// Fresh simulations this incarnation ran.
    pub executed: usize,
    /// Executions whose result never became durable (killed before
    /// the journal append).
    pub lost_executions: usize,
    /// Cells pre-seeded from the recovered journal prefix.
    pub journal_preseeded: usize,
    /// Cells served from the content-addressed cache.
    pub cache_hits: usize,
    /// Leases reclaimed from the previous (dead) incarnation.
    pub reclaimed: usize,
    /// Cells dead-lettered.
    pub abandoned: usize,
    /// Duplicate journal records scrubbed at resume.
    pub duplicates_dropped: usize,
    /// Torn/damaged lines dropped (queue shards + results journal).
    pub dropped_lines: usize,
    /// Stale-lease completions presented to the queue.
    pub stale_presented: usize,
    /// Stale-lease completions the queue rejected.
    pub stale_rejected: usize,
    /// Pooled executions that panicked mid-task (each one's cell is
    /// reclaimed via the lease path and re-executed).
    pub panicked: usize,
    /// Leases reclaimed through expiry while recovering panicked
    /// pooled executions.
    pub panic_reclaimed: usize,
    /// Cache counters for this incarnation.
    pub cache_stats: CacheStats,
    /// Whether the scheduled kill fired.
    pub killed: bool,
    /// Whether the queue drained (all cells done or dead-lettered).
    pub drained: bool,
}

/// What one batch did to the campaign (see [`BatchReport::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Cells advanced: fresh executions, cache hits, or heals of
    /// journal-destroyed results.
    Progress,
    /// The configured kill fired mid-commit; the incarnation must end
    /// now (the process would be dead).
    Killed,
    /// Nothing left to do: every cell is durable or dead-lettered.
    Drained,
}

/// Incremental driving state between [`JobService::prepare`] and the
/// final [`JobService::outcome`].
struct RunState {
    keys: Vec<String>,
    outcome: ServiceOutcome,
    worker: usize,
    leases_granted: usize,
}

/// A leased, cache-missed cell awaiting execution and commit. The
/// worker holding it is a real lease holder: the lease can expire,
/// be reclaimed and re-granted while the execution is in flight.
struct LeasedCell {
    /// Index into the campaign's task slice.
    index: usize,
    /// The canonical task key.
    key: String,
    /// The content address of the (future) result.
    ckey: CacheKey,
    /// The lease the commit will present.
    current: LeasedTask,
    /// An injected stale lease to present — and have bounced — at
    /// commit.
    stale: Option<LeasedTask>,
}

/// One cell of a batch, collected in task-walk order. Journal writes
/// are deferred to the commit phase so the artifact's byte layout is
/// the walk's own, whichever worker finishes first.
enum BatchItem<R> {
    /// Heal served from the cache; commit journals it.
    HealHit { key: String, result: R },
    /// Heal needing re-execution (queue-done, cache-missed).
    HealExec {
        index: usize,
        key: String,
        ckey: CacheKey,
    },
    /// Leased cell served from the cache; commit journals and
    /// completes it (the injected stale token, if any, is dropped:
    /// nothing ran under it).
    CacheHit { cell: LeasedCell, result: R },
    /// Leased cell needing execution on the pool.
    Exec { cell: LeasedCell },
    /// A cell the queue dead-lettered mid-batch (its journal line is
    /// lost; the artifact oracle surfaces that honestly).
    Skip,
}

impl<R> BatchItem<R> {
    /// The task this item must execute, if it costs an execution.
    fn task_index(&self) -> Option<usize> {
        match self {
            BatchItem::HealExec { index, .. } => Some(*index),
            BatchItem::Exec { cell } => Some(cell.index),
            _ => None,
        }
    }
}

/// What the pool made of one execute: a result or a contained panic
/// per slot, or a conviction of the whole schedule.
type Executed<R> = Result<Vec<Result<(R, f64), TaskPanic>>, PoolError>;

/// A batch between its phases: [`JobService::collect_batch`] builds
/// it, [`Batch::execute`] runs its cells borrowing nothing of the
/// service, [`JobService::settle_batch`] commits it. It is an owned
/// value so a driver may release whatever lock guards the service
/// while the cells execute; the leases it holds expire on the queue's
/// virtual clock only, never on wall time.
pub struct Batch<R> {
    items: Vec<BatchItem<R>>,
    /// Execution results by item position.
    results: Vec<Option<(R, f64)>>,
    /// Item positions still awaiting a successful execution.
    pending: Vec<usize>,
    /// What the last [`Batch::execute`] returned, one slot per
    /// `pending` entry, until `settle_batch` absorbs it.
    ran: Option<Executed<R>>,
    /// Panic-recovery rounds spent.
    attempts: usize,
}

impl<R: Send> Batch<R> {
    /// The execute phase: every cell still awaiting execution runs on
    /// `pool`, each panic contained at its task boundary. `tasks` and
    /// `exec` must be the ones the batch was collected over.
    pub fn execute<T: Sync>(
        &mut self,
        tasks: &[T],
        pool: &Pool,
        exec: &(dyn Fn(&T) -> (R, f64) + Sync),
    ) {
        if self.pending.is_empty() {
            return;
        }
        let jobs: Vec<usize> = self
            .pending
            .iter()
            .map(|&p| {
                self.items[p]
                    .task_index()
                    .expect("pending items cost an execution")
            })
            .collect();
        self.ran = Some(pool.try_par_map_indexed(&jobs, |_, &ti| exec(&tasks[ti])));
    }
}

impl<R> Batch<R> {
    /// [`Batch::execute`] on the calling thread, in collection order.
    /// A panic in `exec` unwinds through the caller: containment is
    /// the pool's job, and an `FnMut` cannot cross into it.
    fn execute_inline<T>(&mut self, tasks: &[T], exec: &mut dyn FnMut(&T) -> (R, f64)) {
        for p in std::mem::take(&mut self.pending) {
            let task = self.items[p]
                .task_index()
                .expect("pending items cost an execution");
            self.results[p] = Some(exec(&tasks[task]));
        }
    }
}

/// What [`JobService::settle_batch`] made of an executed batch.
pub enum Settled<R> {
    /// Some executions panicked: their leases were reclaimed through
    /// the expiry path and re-granted, and the batch must
    /// [`Batch::execute`] again before it can commit.
    Rerun(Batch<R>),
    /// The batch is committed.
    Done(BatchReport),
}

/// What one settled batch did.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Batch-level outcome: [`StepOutcome::Drained`] when nothing was
    /// collected, [`StepOutcome::Killed`] when the configured kill
    /// fired mid-commit, [`StepOutcome::Progress`] otherwise.
    pub step: StepOutcome,
    /// Cells this batch made durable (journal lines appended).
    pub advanced: usize,
    /// Virtual cost of every fresh execution committed by this batch,
    /// in commit order — the stream a driver feeds its RTT estimator.
    pub exec_costs: Vec<f64>,
}

/// One incarnation of the campaign job service over results of type
/// `R`. Construction *is* recovery: opening the service on a
/// directory with prior state reclaims dead leases, resumes the
/// results journal (scrubbing duplicates), and opens the cache.
pub struct JobService<R> {
    cfg: ServiceConfig,
    fs: SharedFs,
    queue: WorkQueue,
    cache: ResultCache,
    journal: Journal<R>,
    recovered: HashMap<String, R>,
    queue_recovery: QueueRecovery,
    journal_duplicates: usize,
    journal_dropped: usize,
    run: Option<RunState>,
}

impl<R: Serialize + Deserialize + Clone> JobService<R> {
    /// Opens (or recovers) the service in `cfg.dir` on the real
    /// filesystem. `key_of` maps a journaled result back to its task
    /// key — the same canonical JSON [`task_key`] produces for the
    /// task.
    pub fn open(cfg: ServiceConfig, key_of: impl Fn(&R) -> String) -> io::Result<Self> {
        Self::open_on(real_fs(), cfg, key_of)
    }

    /// Opens (or recovers) the service on an injected filesystem — the
    /// hook through which the disk-fault campaigns drive every durable
    /// write the service makes through ENOSPC, EIO, and power loss.
    pub fn open_on(
        fs: SharedFs,
        cfg: ServiceConfig,
        key_of: impl Fn(&R) -> String,
    ) -> io::Result<Self> {
        let (queue, queue_recovery) = WorkQueue::recover_on(fs.clone(), &cfg.dir, cfg.shards)?;
        let queue = queue.with_max_attempts(cfg.max_attempts);
        let cache = ResultCache::open_on(fs.clone(), cfg.cache_dir())?;
        let (journal, rec) =
            Journal::<R>::resume_keyed_on(fs.clone(), cfg.journal_path(), &key_of)?;
        let recovered = rec
            .entries
            .into_iter()
            .map(|r| (key_of(&r), r))
            .collect::<HashMap<_, _>>();
        Ok(JobService {
            cfg,
            fs,
            queue,
            cache,
            journal,
            recovered,
            queue_recovery,
            journal_duplicates: rec.duplicates,
            journal_dropped: rec.dropped,
            run: None,
        })
    }

    /// Stages the campaign without draining it: enqueues every task
    /// (idempotent) and pre-seeds done cells from the recovered
    /// journal. After this, [`Self::collect_batch`] /
    /// [`Batch::execute`] / [`Self::settle_batch`] advance one batch at
    /// a time — the hook an external scheduler (the gateway's deficit
    /// round-robin) uses to interleave several campaigns fairly.
    pub fn prepare<T: Serialize>(&mut self, tasks: &[T]) -> io::Result<()> {
        let mut outcome = ServiceOutcome {
            total: tasks.len(),
            reclaimed: self.queue_recovery.reclaimed,
            duplicates_dropped: self.journal_duplicates,
            dropped_lines: self.queue_recovery.dropped_lines + self.journal_dropped,
            ..ServiceOutcome::default()
        };
        let mut keys = Vec::with_capacity(tasks.len());
        for task in tasks {
            keys.push(task_key(task)?);
        }
        // Every incarnation re-derives the full task list; enqueue is
        // idempotent, so this only adds cells the queue has never seen.
        for key in &keys {
            self.queue.enqueue(key)?;
        }
        // Pre-seed: cells with a recovered durable result are done,
        // whatever the (possibly torn) queue state says.
        for key in &keys {
            if self.recovered.contains_key(key) {
                self.queue.mark_done(key)?;
                outcome.journal_preseeded += 1;
            }
        }
        self.run = Some(RunState {
            keys,
            outcome,
            worker: 0,
            leases_granted: 0,
        });
        Ok(())
    }

    /// Runs `f` with the driving state split off `self` (the inner
    /// walkers need both mutably) and puts it back before returning,
    /// so the service is whole — [`Self::outcome`] answers — whenever
    /// no phase is executing. Panics unless [`Self::prepare`] has run.
    fn with_run<X>(&mut self, f: impl FnOnce(&mut Self, &mut RunState) -> X) -> X {
        let mut state = self
            .run
            .take()
            .expect("prepare() before driving the service");
        let x = f(self, &mut state);
        self.run = Some(state);
        x
    }

    /// Grants the lease for `key`, rotating the worker label and
    /// applying the injected stale-lease episode when this is the
    /// configured grant: the lease is expired and re-granted so the
    /// original token can be presented — and must bounce — at commit.
    fn grant_lease(
        &mut self,
        key: &str,
        state: &mut RunState,
    ) -> io::Result<(LeasedTask, Option<LeasedTask>)> {
        let lease = self
            .queue
            .lease_key(key, state.worker)?
            .expect("a pending task leases");
        state.worker = (state.worker + 1) % self.cfg.workers.max(1);
        state.leases_granted += 1;

        if self.cfg.stale_lease_at == Some(state.leases_granted) {
            let dt = (lease.expires - self.queue.now()).max(0.0) + 1e-9;
            self.queue.advance_clock(dt);
            self.queue.reclaim_expired()?;
            let fresh = self
                .queue
                .lease_key(&lease.key, state.worker)?
                .expect("the reclaimed cell re-leases");
            Ok((fresh, Some(lease)))
        } else {
            Ok((lease, None))
        }
    }

    /// Takes an executed cell through the three-step commit (journal →
    /// cache → queue) with the configured kill points applied. The
    /// result of a `BeforeResult` kill is discarded — the execution
    /// happened and is lost with the process.
    fn commit_leased_inner(
        &mut self,
        cell: LeasedCell,
        result: R,
        elapsed: f64,
        state: &mut RunState,
    ) -> io::Result<StepOutcome> {
        let outcome = &mut state.outcome;
        // Scheduled kill before the result becomes durable: the
        // execution happened and is lost with the process.
        let next_execution = outcome.executed + 1;
        if self.cfg.kill == Some((next_execution, KillPoint::BeforeResult)) {
            outcome.executed += 1;
            outcome.lost_executions += 1;
            outcome.killed = true;
            return Ok(StepOutcome::Killed);
        }
        outcome.executed += 1;

        // Commit step 1: the durable artifact.
        self.journal.append(&result)?;
        if self.cfg.kill == Some((state.outcome.executed, KillPoint::MidCommit)) {
            state.outcome.killed = true;
            return Ok(StepOutcome::Killed);
        }
        // Commit step 2: the content-addressed cache.
        self.cache.put(&cell.ckey, &result)?;
        // Commit step 3: the queue. A stale lease presented here must
        // bounce; the fresh lease then completes the cell.
        if let Some(stale_lease) = &cell.stale {
            state.outcome.stale_presented += 1;
            if self
                .queue
                .complete(&stale_lease.key, stale_lease.lease, elapsed)
                == Err(CompleteError::StaleLease)
            {
                state.outcome.stale_rejected += 1;
            }
        }
        let _ = self
            .queue
            .complete(&cell.current.key, cell.current.lease, elapsed);
        self.recovered.insert(cell.key, result);
        if self.cfg.kill == Some((state.outcome.executed, KillPoint::AfterCommit)) {
            state.outcome.killed = true;
            return Ok(StepOutcome::Killed);
        }
        Ok(StepOutcome::Progress)
    }

    /// Commits a re-executed heal (queue-done cell whose durable
    /// result was destroyed): journal, cache backfill, recovered map.
    /// No lease — the queue already considers it done — and no kill
    /// points.
    fn commit_heal_inner(
        &mut self,
        key: String,
        ckey: CacheKey,
        result: R,
        state: &mut RunState,
    ) -> io::Result<StepOutcome> {
        state.outcome.executed += 1;
        self.journal.append(&result)?;
        if !self.cache.contains(&ckey) {
            self.cache.put(&ckey, &result)?;
        }
        self.recovered.insert(key, result);
        Ok(StepOutcome::Progress)
    }

    /// The collect phase of a batch: up to `width` execution-costing
    /// cells (plus any heals and cache hits encountered on the way) in
    /// task-walk order, each pending cell leased. Nothing is journaled
    /// here: [`Self::settle_batch`] writes in this collection order,
    /// so the artifact bytes are independent of execution
    /// interleaving. `tasks` must be the slice [`Self::prepare`]
    /// staged (the key list indexes into it).
    ///
    /// The walk is in the service's own task order, not the queue's
    /// recovered internal order: the byte layout of the results
    /// artifact must survive any scrambling a torn shard write could
    /// inflict on the queue. Healing (queue-done cells whose durable
    /// result a torn journal write destroyed) interleaves with fresh
    /// dispatch, because either may need to rebuild any position of
    /// the artifact — a separate healing pass would write healed cells
    /// ahead of resurrected-pending earlier ones and scramble the byte
    /// layout.
    pub fn collect_batch<T: Serialize>(
        &mut self,
        tasks: &[T],
        width: usize,
    ) -> io::Result<Batch<R>> {
        let items = self.with_run(|svc, state| svc.collect_items(tasks, state, width.max(1)))?;
        Ok(Batch {
            results: items.iter().map(|_| None).collect(),
            pending: (0..items.len())
                .filter(|&p| items[p].task_index().is_some())
                .collect(),
            items,
            ran: None,
            attempts: 0,
        })
    }

    #[allow(clippy::needless_range_loop)]
    fn collect_items<T: Serialize>(
        &mut self,
        tasks: &[T],
        state: &mut RunState,
        width: usize,
    ) -> io::Result<Vec<BatchItem<R>>> {
        let mut items: Vec<BatchItem<R>> = Vec::new();
        let mut execs = 0usize;
        for i in 0..state.keys.len() {
            if execs >= width {
                break;
            }
            if self.recovered.contains_key(&state.keys[i]) {
                continue;
            }
            let key = state.keys[i].clone();
            self.queue.reclaim_expired()?;
            let ckey = CacheKey::of(&tasks[i], &self.cfg.protocol)?;

            if self.queue.is_done(&key) {
                // Heal: re-derive the destroyed result — cache first,
                // simulate on a miss.
                match self.cache.get::<R>(&ckey) {
                    Some(result) => items.push(BatchItem::HealHit { key, result }),
                    None => {
                        items.push(BatchItem::HealExec {
                            index: i,
                            key,
                            ckey,
                        });
                        execs += 1;
                    }
                }
                continue;
            }
            if !self.queue.is_pending(&key) {
                continue; // dead-lettered or leased by an earlier batch slot
            }

            let (current, stale) = self.grant_lease(&key, state)?;
            let injected = stale.is_some();
            let cell = LeasedCell {
                index: i,
                key,
                ckey,
                current,
                stale,
            };
            // Cache probe: a hit is journaled (keeping the artifact
            // complete and ordered) but never re-simulated.
            match self.cache.get::<R>(&cell.ckey) {
                Some(result) => items.push(BatchItem::CacheHit { cell, result }),
                None => {
                    items.push(BatchItem::Exec { cell });
                    execs += 1;
                }
            }
            // The injected stale-lease episode advanced the virtual
            // clock past every outstanding lease: earlier cells of
            // this batch were reclaimed and must be re-leased before
            // their commits present dead tokens.
            if injected {
                self.refresh_leases(&mut items, state)?;
            }
        }
        Ok(items)
    }

    /// Re-leases every uncommitted leased cell of a batch after the
    /// virtual clock advanced past their expiries (stale-lease
    /// injection, or the lease-path recovery of a panicked worker).
    /// A cell the queue dead-lettered in the meantime degrades to
    /// [`BatchItem::Skip`]; a cell whose current token is still live
    /// is left alone.
    fn refresh_leases(
        &mut self,
        items: &mut [BatchItem<R>],
        state: &mut RunState,
    ) -> io::Result<()> {
        for item in items.iter_mut() {
            let cell = match item {
                BatchItem::Exec { cell } | BatchItem::CacheHit { cell, .. } => cell,
                _ => continue,
            };
            if self.recovered.contains_key(&cell.key) || self.queue.is_done(&cell.key) {
                continue; // already committed
            }
            if self.queue.is_pending(&cell.key) {
                // Refresh grants don't rotate the worker label or
                // count toward `leases_granted`: the stale-lease
                // injection targets real grants, not repairs.
                match self.queue.lease_key(&cell.key, state.worker)? {
                    Some(fresh) => cell.current = fresh,
                    None => *item = BatchItem::Skip,
                }
            } else if cell.current.expires <= self.queue.now() {
                // Expired but not reclaimed back to pending: the
                // retry budget dead-lettered it.
                *item = BatchItem::Skip;
            }
        }
        Ok(())
    }

    /// Lease-path recovery of panicked executions: the panicked
    /// workers' leases are still outstanding. Advances the virtual
    /// clock past every batch lease, reclaims them through the
    /// ordinary expiry path, and re-leases the uncommitted cells.
    fn reclaim_batch_leases(
        &mut self,
        items: &mut [BatchItem<R>],
        state: &mut RunState,
    ) -> io::Result<()> {
        let max_expiry = items
            .iter()
            .filter_map(|item| match item {
                BatchItem::Exec { cell } | BatchItem::CacheHit { cell, .. } => {
                    Some(cell.current.expires)
                }
                _ => None,
            })
            .fold(f64::NEG_INFINITY, f64::max);
        if max_expiry == f64::NEG_INFINITY {
            return Ok(()); // heals only: no lease to reclaim
        }
        let dt = (max_expiry - self.queue.now()).max(0.0) + 1e-9;
        self.queue.advance_clock(dt);
        let (reclaimed, _) = self.queue.reclaim_expired()?;
        state.outcome.panic_reclaimed += reclaimed;
        self.refresh_leases(items, state)
    }

    /// The settle phase of a batch. Absorbs what [`Batch::execute`]
    /// returned: when executions panicked (and the retry budget
    /// lasts) their leases are reclaimed through the expiry path and
    /// re-granted — the pool itself is never poisoned — and the batch
    /// comes back for another execute; otherwise the batch commits in
    /// collection order, whatever the thread count or interleaving,
    /// and reports what it advanced.
    pub fn settle_batch(&mut self, batch: Batch<R>) -> io::Result<Settled<R>> {
        self.with_run(|svc, state| svc.settle_inner(batch, state))
    }

    fn settle_inner(
        &mut self,
        mut batch: Batch<R>,
        state: &mut RunState,
    ) -> io::Result<Settled<R>> {
        if batch.items.is_empty() {
            return Ok(Settled::Done(BatchReport {
                step: StepOutcome::Drained,
                advanced: 0,
                exec_costs: Vec::new(),
            }));
        }
        if let Some(ran) = batch.ran.take() {
            let outcomes = ran.map_err(|e| io::Error::other(format!("pool: {e}")))?;
            let mut panicked: Vec<usize> = Vec::new();
            for (&p, outcome) in batch.pending.iter().zip(outcomes) {
                match outcome {
                    Ok(rv) => batch.results[p] = Some(rv),
                    Err(_) => {
                        state.outcome.panicked += 1;
                        panicked.push(p);
                    }
                }
            }
            batch.pending.clear();
            if !panicked.is_empty() {
                batch.attempts += 1;
                // Past the retry budget the panicked cells stay
                // unexecuted and the commits below skip them.
                if batch.attempts <= self.cfg.max_attempts {
                    self.reclaim_batch_leases(&mut batch.items, state)?;
                    panicked.retain(|&p| batch.items[p].task_index().is_some());
                    if !panicked.is_empty() {
                        batch.pending = panicked;
                        return Ok(Settled::Rerun(batch));
                    }
                }
            }
        }

        // Commit phase: walk order.
        let Batch {
            items, mut results, ..
        } = batch;
        let mut advanced = 0usize;
        let mut exec_costs = Vec::new();
        let mut step = StepOutcome::Progress;
        for (p, item) in items.into_iter().enumerate() {
            match item {
                BatchItem::HealHit { key, result } => {
                    state.outcome.cache_hits += 1;
                    self.journal.append(&result)?;
                    self.recovered.insert(key, result);
                    advanced += 1;
                }
                BatchItem::HealExec { key, ckey, .. } => {
                    let Some((result, elapsed)) = results[p].take() else {
                        continue;
                    };
                    self.commit_heal_inner(key, ckey, result, state)?;
                    exec_costs.push(elapsed);
                    advanced += 1;
                }
                BatchItem::CacheHit { cell, result } => {
                    state.outcome.cache_hits += 1;
                    self.journal.append(&result)?;
                    let _ = self
                        .queue
                        .complete(&cell.current.key, cell.current.lease, 0.0);
                    self.recovered.insert(cell.key, result);
                    advanced += 1;
                }
                BatchItem::Exec { cell } => {
                    let Some((result, elapsed)) = results[p].take() else {
                        continue;
                    };
                    let got = self.commit_leased_inner(cell, result, elapsed, state)?;
                    if got == StepOutcome::Killed {
                        // The process is dead: uncommitted batch
                        // results die with it. A `BeforeResult` kill
                        // wrote no journal line, so it advanced
                        // nothing.
                        if !matches!(self.cfg.kill, Some((_, KillPoint::BeforeResult))) {
                            exec_costs.push(elapsed);
                            advanced += 1;
                        }
                        step = StepOutcome::Killed;
                        break;
                    }
                    exec_costs.push(elapsed);
                    advanced += 1;
                }
                BatchItem::Skip => {}
            }
        }
        Ok(Settled::Done(BatchReport {
            step,
            advanced,
            exec_costs,
        }))
    }

    /// Runs the campaign on a `cpc-pool` executor, batches as wide as
    /// the pool, until the queue drains or the configured kill fires.
    /// Produces an artifact byte-identical to [`Self::run`] at any
    /// thread count.
    pub fn run_pooled<T>(
        &mut self,
        tasks: &[T],
        pool: &Pool,
        exec: impl Fn(&T) -> (R, f64) + Sync,
    ) -> io::Result<ServiceOutcome>
    where
        T: Serialize + Sync,
        R: Send,
    {
        self.drain(tasks, pool.threads(), |batch| {
            batch.execute(tasks, pool, &exec)
        })
    }

    /// Runs the campaign on the calling thread, one cell per batch,
    /// until the queue drains or the configured kill fires (check
    /// [`ServiceOutcome::killed`]). `exec` simulates one cell,
    /// returning the result and its virtual cost in seconds.
    pub fn run<T: Serialize>(
        &mut self,
        tasks: &[T],
        mut exec: impl FnMut(&T) -> (R, f64),
    ) -> io::Result<ServiceOutcome> {
        self.drain(tasks, 1, |batch| batch.execute_inline(tasks, &mut exec))
    }

    /// The one way a campaign drains: [`Self::prepare`], then collect →
    /// `execute` → settle, batch after batch, until a batch reports the
    /// queue drained or the incarnation killed.
    fn drain<T: Serialize>(
        &mut self,
        tasks: &[T],
        width: usize,
        mut execute: impl FnMut(&mut Batch<R>),
    ) -> io::Result<ServiceOutcome> {
        self.prepare(tasks)?;
        loop {
            let mut batch = self.collect_batch(tasks, width)?;
            let report = loop {
                execute(&mut batch);
                match self.settle_batch(batch)? {
                    Settled::Rerun(again) => batch = again,
                    Settled::Done(report) => break report,
                }
            };
            if report.step != StepOutcome::Progress {
                return Ok(self.outcome());
            }
        }
    }

    /// A snapshot of this incarnation's accounting: live counters plus
    /// the completed/abandoned/drained state re-derived from the queue.
    /// Call after the drive ends for the final outcome, or between any
    /// two phases of a batch for progress reporting. Panics unless
    /// [`Self::prepare`] has run.
    pub fn outcome(&self) -> ServiceOutcome {
        let state = self.run.as_ref().expect("prepare() before outcome()");
        let mut outcome = state.outcome.clone();
        outcome.completed = state
            .keys
            .iter()
            .filter(|k| self.recovered.contains_key(*k))
            .count();
        outcome.abandoned = self.queue.abandoned_count();
        outcome.cache_stats = self.cache.stats();
        outcome.drained = self.queue.drained();
        outcome
    }

    /// The recovered + newly-completed results, by task key.
    pub fn results(&self) -> &HashMap<String, R> {
        &self.recovered
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The filesystem this service runs on.
    pub fn fs(&self) -> &SharedFs {
        &self.fs
    }
}

/// The canonical task key: the task's serialized JSON. Deterministic
/// because the serde shim's object representation is insertion-ordered.
pub fn task_key<T: Serialize>(task: &T) -> io::Result<String> {
    serde_json::to_string(task)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// FNV-1a digest of a file's bytes: the artifact fingerprint the
/// byte-identity oracle compares. `None` when the file is missing or
/// unreadable — an unreadable artifact must never compare
/// byte-identical to anything (the old `0` sentinel let two *failed*
/// reads pass the oracle silently).
pub fn artifact_digest(path: impl AsRef<Path>) -> Option<u64> {
    artifact_digest_on(&cpc_vfs::RealFs, path)
}

/// [`artifact_digest`] on an injected filesystem, so the disk-fault
/// campaigns can fingerprint artifacts living inside a [`SimFs`] image.
pub fn artifact_digest_on(fs: &dyn Fs, path: impl AsRef<Path>) -> Option<u64> {
    fs.read(path.as_ref()).ok().map(|bytes| fnv1a64(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cpc-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A cheap deterministic "simulation": task ids 0..n producing
    /// `[id, id²]` vectors at 0.25 virtual seconds per cell.
    fn tasks(n: u64) -> Vec<u64> {
        (0..n).collect()
    }

    fn exec(t: &u64) -> (Vec<f64>, f64) {
        (vec![*t as f64, (*t * *t) as f64], 0.25)
    }

    // Must be exactly `Fn(&R)` with `R = Vec<f64>` to match the
    // service's key extractor; a slice would not unify.
    #[allow(clippy::ptr_arg)]
    fn key_of(r: &Vec<f64>) -> String {
        serde_json::to_string(&(r[0] as u64)).unwrap()
    }

    #[test]
    fn uninterrupted_run_drains_and_executes_each_cell_once() {
        let dir = tmp_dir("clean");
        let mut svc = JobService::<Vec<f64>>::open(ServiceConfig::new(&dir, "p"), key_of).unwrap();
        let out = svc.run(&tasks(8), exec).unwrap();
        assert!(out.drained && !out.killed);
        assert_eq!((out.total, out.completed, out.executed), (8, 8, 8));
        assert_eq!(out.cache_hits, 0);
        // A second service over the same directory re-runs nothing.
        drop(svc);
        let mut svc = JobService::<Vec<f64>>::open(ServiceConfig::new(&dir, "p"), key_of).unwrap();
        let again = svc.run(&tasks(8), exec).unwrap();
        assert_eq!(again.executed, 0, "all pre-seeded from the journal");
        assert_eq!(again.journal_preseeded, 8);
        assert_eq!(again.completed, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_resume_is_invisible_at_every_commit_point() {
        // Reference artifact from an uninterrupted run.
        let ref_dir = tmp_dir("kill-ref");
        let ref_cfg = ServiceConfig::new(&ref_dir, "p");
        let ref_journal = ref_cfg.journal_path();
        let mut svc = JobService::<Vec<f64>>::open(ref_cfg, key_of).unwrap();
        svc.run(&tasks(6), exec).unwrap();
        drop(svc);
        let want = artifact_digest(&ref_journal);
        assert!(want.is_some(), "the reference artifact is readable");

        for (tag, point) in [
            ("before", KillPoint::BeforeResult),
            ("mid", KillPoint::MidCommit),
            ("after", KillPoint::AfterCommit),
        ] {
            let dir = tmp_dir(&format!("kill-{tag}"));
            let cfg = ServiceConfig {
                kill: Some((3, point)),
                ..ServiceConfig::new(&dir, "p")
            };
            let journal = cfg.journal_path();
            let mut svc = JobService::<Vec<f64>>::open(cfg, key_of).unwrap();
            let killed = svc.run(&tasks(6), exec).unwrap();
            assert!(killed.killed, "{tag}: the kill fires");
            drop(svc); // SIGKILL: every durable write is already synced.

            let mut svc =
                JobService::<Vec<f64>>::open(ServiceConfig::new(&dir, "p"), key_of).unwrap();
            let resumed = svc.run(&tasks(6), exec).unwrap();
            assert!(resumed.drained, "{tag}: resume drains");
            assert_eq!(resumed.completed, 6, "{tag}: no lost cell");
            // Only the in-flight cell may re-execute, and only when
            // its result never became durable (BeforeResult).
            let licensed = 6 + killed.lost_executions;
            assert!(
                killed.executed + resumed.executed <= licensed,
                "{tag}: {} + {} executions exceed {licensed}",
                killed.executed,
                resumed.executed,
            );
            assert_eq!(
                artifact_digest(&journal),
                want,
                "{tag}: artifact must be byte-identical after kill-resume"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn cache_serves_cells_across_campaigns_without_resimulation() {
        let dir = tmp_dir("xcache");
        // First campaign fills the cache.
        let mut svc = JobService::<Vec<f64>>::open(ServiceConfig::new(&dir, "p"), key_of).unwrap();
        svc.run(&tasks(5), exec).unwrap();
        drop(svc);
        // Second campaign in a fresh directory, same cache dir: wipe
        // queue + journal but keep the cache to model a new campaign
        // requesting identical cells.
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            if entry.path().is_file() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let mut svc = JobService::<Vec<f64>>::open(ServiceConfig::new(&dir, "p"), key_of).unwrap();
        let out = svc.run(&tasks(5), exec).unwrap();
        assert_eq!(out.executed, 0, "identical cells come from the cache");
        assert_eq!(out.cache_hits, 5);
        assert_eq!(out.completed, 5);
        // A different protocol re-keys everything: full re-simulation.
        drop(svc);
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            if entry.path().is_file() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let mut svc = JobService::<Vec<f64>>::open(ServiceConfig::new(&dir, "q"), key_of).unwrap();
        let out = svc.run(&tasks(5), exec).unwrap();
        assert_eq!(out.executed, 5, "protocol is part of the address");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lease_injection_is_rejected_and_accounted() {
        let dir = tmp_dir("stale");
        let cfg = ServiceConfig {
            stale_lease_at: Some(2),
            ..ServiceConfig::new(&dir, "p")
        };
        let mut svc = JobService::<Vec<f64>>::open(cfg, key_of).unwrap();
        let out = svc.run(&tasks(4), exec).unwrap();
        assert!(out.drained);
        assert_eq!(out.completed, 4);
        assert_eq!((out.stale_presented, out.stale_rejected), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_digest_is_none_for_unreadable_and_some_for_empty() {
        // Regression: the old signature digested an unreadable file as
        // 0, so two missing artifacts compared byte-identical and the
        // oracle passed on a run that produced nothing.
        let dir = tmp_dir("digest");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(artifact_digest(dir.join("missing.jsonl")), None);
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, b"").unwrap();
        let got = artifact_digest(&empty);
        assert!(got.is_some(), "an empty-but-readable artifact digests");
        assert_ne!(
            got,
            artifact_digest(dir.join("missing.jsonl")),
            "missing and empty must not collide"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pooled_run_matches_serial_artifact_at_every_thread_count() {
        let ref_dir = tmp_dir("pool-ref");
        let ref_cfg = ServiceConfig::new(&ref_dir, "p");
        let ref_journal = ref_cfg.journal_path();
        let mut svc = JobService::<Vec<f64>>::open(ref_cfg, key_of).unwrap();
        svc.run(&tasks(9), exec).unwrap();
        drop(svc);
        let want = artifact_digest(&ref_journal);
        assert!(want.is_some());

        for threads in [1usize, 2, 4, 8] {
            let dir = tmp_dir(&format!("pool-{threads}"));
            let cfg = ServiceConfig::new(&dir, "p");
            let journal = cfg.journal_path();
            let mut svc = JobService::<Vec<f64>>::open(cfg, key_of).unwrap();
            let pool = Pool::new(threads);
            let out = svc.run_pooled(&tasks(9), &pool, exec).unwrap();
            assert!(out.drained, "threads={threads}");
            assert_eq!(out.completed, 9);
            assert_eq!(out.executed, 9);
            assert_eq!(
                artifact_digest(&journal),
                want,
                "threads={threads}: pooled artifact must be byte-identical to serial"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }

        // An external driver (the gateway) takes the phases one by one;
        // the service is whole — `outcome()` answers — between them.
        let dir = tmp_dir("pool-phases");
        let cfg = ServiceConfig::new(&dir, "p");
        let journal = cfg.journal_path();
        let mut svc = JobService::<Vec<f64>>::open(cfg, key_of).unwrap();
        let (campaign, pool) = (tasks(9), Pool::new(2));
        svc.prepare(&campaign).unwrap();
        let mut done = 0;
        loop {
            let mut batch = svc.collect_batch(&campaign, 2).unwrap();
            assert_eq!(svc.outcome().completed, done, "leased, not yet durable");
            batch.execute(&campaign, &pool, &exec);
            let Settled::Done(report) = svc.settle_batch(batch).unwrap() else {
                panic!("nothing panicked");
            };
            done += report.advanced;
            assert_eq!(svc.outcome().completed, done);
            if report.step == StepOutcome::Drained {
                break;
            }
        }
        assert_eq!(done, 9);
        assert_eq!(artifact_digest(&journal), want, "phase-driven artifact");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn pooled_stale_lease_injection_is_rejected_and_accounted() {
        let dir = tmp_dir("pool-stale");
        let cfg = ServiceConfig {
            stale_lease_at: Some(2),
            workers: 4,
            ..ServiceConfig::new(&dir, "p")
        };
        let mut svc = JobService::<Vec<f64>>::open(cfg, key_of).unwrap();
        let pool = Pool::new(4);
        let out = svc.run_pooled(&tasks(6), &pool, exec).unwrap();
        assert!(out.drained);
        assert_eq!(out.completed, 6);
        assert_eq!((out.stale_presented, out.stale_rejected), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

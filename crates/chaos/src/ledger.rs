//! The host-side chaos ledgers and their oracles.
//!
//! Four layers sit between a campaign submission and its bytes on
//! disk — the crash-safe job service, the HTTP gateway in front of it,
//! the filesystem under it and the thread pool that executes
//! it — and each has a ledger (what one schedule did to it), a
//! violation enum (what must never happen) and a `check_*_ledger`
//! function (a pure function from the one to the other). The
//! [`CrossLedger`] holds all four plus the MD layer's
//! [`ScheduleReport`] and the one ground-truth execution book;
//! [`check_cross_ledger`] is the union of the per-layer oracles plus
//! the interaction oracles only a composed schedule can exercise.
//!
//! Oracles are safety code: every check here judges a hand-built
//! ledger in the unit tests below, independently of any driver.

use cpc_charmm::{ScheduleReport, Violation};
use cpc_vfs::DiskCounters;
use serde::{Deserialize, Serialize};

/// Cross-incarnation accounting for one campaign run through the
/// crash-safe job service (`cpc-workload`): every execution, cache
/// hit, journal pre-seed, reclaimed lease and injected-fault side
/// effect, summed over all incarnations of the service, plus the
/// FNV-1a digests of the final results artifact and of an
/// uninterrupted reference run. [`check_service_ledger`] turns a
/// ledger into oracle verdicts.
///
/// Concrete (non-generic) and serializable so chaos campaigns can
/// journal verdicts the same way they journal schedule reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ServiceLedger {
    /// Cells the campaign comprises.
    pub total_cells: usize,
    /// Cells with a durable result when the service drained.
    pub completed: usize,
    /// Cells dead-lettered after exhausting their retry budget.
    pub abandoned: usize,
    /// Fresh simulations across all incarnations (the work actually
    /// done; the no-duplicate-execution oracle bounds this).
    pub executed: usize,
    /// Executions whose result never became durable (worker killed
    /// mid-cell) — each one licenses exactly one re-execution.
    pub lost_executions: usize,
    /// Durable results destroyed by injected storage faults (torn
    /// results-journal writes) — each licenses one re-execution.
    pub destroyed_results: usize,
    /// Cells served from the recovered journal prefix without
    /// re-dispatch.
    pub journal_preseeded: usize,
    /// Cells served from the content-addressed cache without
    /// re-simulation.
    pub cache_hits: usize,
    /// Cache entries whose checksum caught at-rest damage (the entry
    /// was quarantined and the cell re-derived).
    pub cache_corruption_caught: usize,
    /// Leases reclaimed from dead incarnations at recovery.
    pub reclaimed_leases: usize,
    /// Torn/damaged journal lines dropped across queue shards and the
    /// results journal.
    pub dropped_lines: usize,
    /// Duplicate result records scrubbed by keyed journal resume.
    pub duplicate_results: usize,
    /// Stale-lease completions presented to the queue.
    pub stale_presented: usize,
    /// Stale-lease completions the queue rejected (must equal
    /// `stale_presented`).
    pub stale_rejected: usize,
    /// Service incarnations (1 = never killed).
    pub incarnations: usize,
    /// Process kills the schedule actually delivered.
    pub kills: usize,
    /// FNV-1a digest of the final results artifact; `None` when the
    /// artifact was missing or unreadable — which the byte-identity
    /// oracle treats as a violation, never as a match.
    pub artifact_digest: Option<u64>,
    /// Same digest from the uninterrupted reference run.
    pub reference_digest: Option<u64>,
}

/// One violation of the job-service invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceViolation {
    /// A cell vanished: the drained service holds fewer durable
    /// results than the campaign has cells (excluding dead-letters,
    /// which are themselves forbidden under the sampled fault space).
    LostCell {
        /// Cells with durable results.
        completed: usize,
        /// Cells dead-lettered.
        abandoned: usize,
        /// Cells the campaign comprises.
        total: usize,
    },
    /// More fresh executions than the schedule licenses: some cell
    /// with a durable (or cacheable) result was re-simulated.
    DuplicateExecution {
        /// Fresh executions observed.
        executed: usize,
        /// The bound: `total + lost_executions + destroyed_results`.
        allowance: usize,
    },
    /// The killed-and-resumed campaign's artifact differs from the
    /// uninterrupted run's — or either artifact was missing/unreadable
    /// (`None`), which can never count as byte-identical.
    ArtifactMismatch {
        /// Digest of the chaos run's artifact (`None` = unreadable).
        artifact: Option<u64>,
        /// Digest of the reference run's artifact (`None` = unreadable).
        reference: Option<u64>,
    },
    /// A stale or duplicate lease completion was accepted instead of
    /// rejected: double-counted work.
    StaleLeaseAccepted {
        /// Stale completions presented.
        presented: usize,
        /// Stale completions rejected.
        rejected: usize,
    },
}

impl std::fmt::Display for ServiceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceViolation::LostCell {
                completed,
                abandoned,
                total,
            } => write!(
                f,
                "lost cell: {completed} completed + {abandoned} abandoned of {total}"
            ),
            ServiceViolation::DuplicateExecution {
                executed,
                allowance,
            } => write!(
                f,
                "duplicate execution: {executed} ran, {allowance} allowed"
            ),
            ServiceViolation::ArtifactMismatch {
                artifact,
                reference,
            } => write!(
                f,
                "artifact mismatch: {} != reference {}",
                fmt_digest(*artifact),
                fmt_digest(*reference)
            ),
            ServiceViolation::StaleLeaseAccepted {
                presented,
                rejected,
            } => write!(f, "stale lease accepted: {rejected}/{presented} rejected"),
        }
    }
}

/// Renders an artifact digest for violation messages (`None` = the
/// file could not be read, which is itself a reportable state).
fn fmt_digest(d: Option<u64>) -> String {
    match d {
        Some(d) => format!("{d:016x}"),
        None => "<unreadable>".to_string(),
    }
}

/// The two service-level oracles of the kill-resume property, as pure
/// functions of the ledger:
///
/// 1. **No lost cell, no duplicate execution.** Every cell ends with
///    exactly one durable result, and the number of fresh executions
///    never exceeds `total + lost_executions + destroyed_results` —
///    the only re-runs a crash schedule licenses are cells whose
///    result it actually destroyed (a worker killed mid-cell, a torn
///    results-journal write). Completed work behind a kill must be
///    served from the journal prefix or the cache, never re-simulated.
/// 2. **Byte-identical artifact after kill-resume.** The drained
///    campaign's results artifact digests identically to an
///    uninterrupted run's: recovery is invisible in the output.
///
/// Stale-lease accounting rides along: every stale completion
/// presented must have been rejected.
pub fn check_service_ledger(ledger: &ServiceLedger) -> Vec<ServiceViolation> {
    let mut violations = Vec::new();
    if ledger.completed + ledger.abandoned < ledger.total_cells || ledger.abandoned > 0 {
        violations.push(ServiceViolation::LostCell {
            completed: ledger.completed,
            abandoned: ledger.abandoned,
            total: ledger.total_cells,
        });
    }
    let allowance = ledger.total_cells + ledger.lost_executions + ledger.destroyed_results;
    if ledger.executed > allowance {
        violations.push(ServiceViolation::DuplicateExecution {
            executed: ledger.executed,
            allowance,
        });
    }
    // An unreadable artifact (`None`) is always a violation: two
    // missing files must never compare "byte-identical".
    if ledger.artifact_digest.is_none()
        || ledger.reference_digest.is_none()
        || ledger.artifact_digest != ledger.reference_digest
    {
        violations.push(ServiceViolation::ArtifactMismatch {
            artifact: ledger.artifact_digest,
            reference: ledger.reference_digest,
        });
    }
    if ledger.stale_rejected != ledger.stale_presented {
        violations.push(ServiceViolation::StaleLeaseAccepted {
            presented: ledger.stale_presented,
            rejected: ledger.stale_rejected,
        });
    }
    violations
}

/// Accounting for one campaign run on the `cpc-pool` executor under
/// an adversarial schedule (injected worker pauses and panics,
/// thread-count changes mid-campaign, lease expiry racing a slow
/// worker). Aggregates the pooled service
/// outcome, the pool's own counters and the post-chaos reusability
/// probe. [`check_sched_ledger`] turns a
/// ledger into oracle verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SchedLedger {
    /// Cells the campaign comprises.
    pub total_cells: usize,
    /// Cells with a durable result when the chaos run drained.
    pub completed: usize,
    /// Cells dead-lettered.
    pub abandoned: usize,
    /// Committed fresh executions (a panicked attempt is counted in
    /// `panics_caught`, never here).
    pub executed: usize,
    /// Worker threads the chaos plan prescribed (after any mid-run
    /// thread-count change).
    pub threads: usize,
    /// Tasks the pool executed across the chaos run.
    pub pool_tasks: usize,
    /// Worker panics the plan injected.
    pub panics_injected: usize,
    /// Panics the pool contained (must equal the injected count —
    /// a missing one escaped the `catch_unwind` boundary).
    pub panics_caught: usize,
    /// Leases reclaimed through the expiry path while recovering
    /// panicked cells.
    pub panic_reclaimed: usize,
    /// Injected pauses actually taken at yield points.
    pub pauses_taken: usize,
    /// Stale-lease completions presented to the queue.
    pub stale_presented: usize,
    /// Stale-lease completions the queue rejected.
    pub stale_rejected: usize,
    /// Result lines in the final artifact (exactly one per cell, or
    /// a task was lost / doubly committed).
    pub journal_lines: usize,
    /// Whether the pool's stall watchdog convicted the run.
    pub stalled: bool,
    /// Whether the chaos pool executed a fresh probe batch afterward
    /// (a panicked worker must never poison the pool).
    pub pool_reusable: bool,
    /// FNV-1a digest of the chaos run's artifact.
    pub artifact_digest: Option<u64>,
    /// Digest of the serial (sequential-step) reference artifact.
    pub reference_digest: Option<u64>,
}

/// One violation of the deterministic-scheduling invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedViolation {
    /// A cell vanished: fewer durable results than campaign cells.
    LostTask {
        /// Cells with durable results.
        completed: usize,
        /// Cells dead-lettered.
        abandoned: usize,
        /// Cells the campaign comprises.
        total: usize,
    },
    /// The artifact holds more or fewer result lines than the
    /// campaign has cells: a task committed twice or not at all.
    DoubleCommit {
        /// Result lines in the artifact.
        journal_lines: usize,
        /// Cells the campaign comprises.
        total: usize,
    },
    /// More committed executions than cells: some cell re-ran with
    /// its result already durable.
    DuplicateExecution {
        /// Committed executions observed.
        executed: usize,
        /// The bound (one per cell).
        allowance: usize,
    },
    /// The pool's stall watchdog convicted the schedule: a deadlock
    /// or unbounded stall under chaos.
    Deadlocked {
        /// Cells completed before the stall.
        completed: usize,
        /// Cells the campaign comprises.
        total: usize,
    },
    /// The chaos run's artifact differs from the serial reference —
    /// or either was unreadable, which never counts as identical.
    ArtifactMismatch {
        /// Digest of the chaos run's artifact.
        artifact: Option<u64>,
        /// Digest of the serial reference artifact.
        reference: Option<u64>,
    },
    /// An injected worker panic escaped containment or its cell was
    /// never reclaimed through the lease path.
    PanicNotContained {
        /// Panics the plan injected.
        injected: usize,
        /// Panics the pool caught.
        caught: usize,
        /// Leases reclaimed recovering them.
        reclaimed: usize,
    },
    /// The pool refused work after a contained panic: a poisoned
    /// executor.
    PoolPoisoned,
    /// A stale lease completion was accepted instead of rejected.
    StaleLeaseAccepted {
        /// Stale completions presented.
        presented: usize,
        /// Stale completions rejected.
        rejected: usize,
    },
}

impl std::fmt::Display for SchedViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedViolation::LostTask {
                completed,
                abandoned,
                total,
            } => write!(
                f,
                "lost task: {completed} completed + {abandoned} abandoned of {total}"
            ),
            SchedViolation::DoubleCommit {
                journal_lines,
                total,
            } => write!(
                f,
                "commit miscount: {journal_lines} artifact lines for {total} cells"
            ),
            SchedViolation::DuplicateExecution {
                executed,
                allowance,
            } => write!(
                f,
                "duplicate execution: {executed} committed, {allowance} allowed"
            ),
            SchedViolation::Deadlocked { completed, total } => {
                write!(
                    f,
                    "stalled: watchdog convicted at {completed}/{total} cells"
                )
            }
            SchedViolation::ArtifactMismatch {
                artifact,
                reference,
            } => write!(
                f,
                "artifact mismatch: {} != reference {}",
                fmt_digest(*artifact),
                fmt_digest(*reference)
            ),
            SchedViolation::PanicNotContained {
                injected,
                caught,
                reclaimed,
            } => write!(
                f,
                "panic not contained: {caught}/{injected} caught, {reclaimed} leases reclaimed"
            ),
            SchedViolation::PoolPoisoned => write!(f, "pool poisoned after contained panic"),
            SchedViolation::StaleLeaseAccepted {
                presented,
                rejected,
            } => write!(f, "stale lease accepted: {rejected}/{presented} rejected"),
        }
    }
}

/// The cross-thread determinism oracles, as pure functions of the
/// ledger:
///
/// 1. **No lost or doubly-committed task.** Every cell ends with
///    exactly one durable result line, and committed executions never
///    exceed one per cell — whatever the interleaving did.
/// 2. **Byte-identical artifacts.** The chaos run produces the serial
///    reference's exact bytes: thread count and interleaving are
///    invisible in output. (That a *fault-free* pooled run does so at
///    every thread count is `tests/pool_determinism.rs`'s property.)
/// 3. **No deadlock.** The stall watchdog never convicts.
/// 4. **Contained panics.** Every injected worker panic is caught at
///    the task boundary, its cell reclaimed through the lease-expiry
///    path, and the pool stays usable afterward.
pub fn check_sched_ledger(ledger: &SchedLedger) -> Vec<SchedViolation> {
    let mut violations = Vec::new();
    if ledger.completed + ledger.abandoned < ledger.total_cells || ledger.abandoned > 0 {
        violations.push(SchedViolation::LostTask {
            completed: ledger.completed,
            abandoned: ledger.abandoned,
            total: ledger.total_cells,
        });
    }
    if ledger.journal_lines != ledger.total_cells {
        violations.push(SchedViolation::DoubleCommit {
            journal_lines: ledger.journal_lines,
            total: ledger.total_cells,
        });
    }
    if ledger.executed > ledger.total_cells {
        violations.push(SchedViolation::DuplicateExecution {
            executed: ledger.executed,
            allowance: ledger.total_cells,
        });
    }
    if ledger.stalled {
        violations.push(SchedViolation::Deadlocked {
            completed: ledger.completed,
            total: ledger.total_cells,
        });
    }
    if ledger.artifact_digest.is_none()
        || ledger.reference_digest.is_none()
        || ledger.artifact_digest != ledger.reference_digest
    {
        violations.push(SchedViolation::ArtifactMismatch {
            artifact: ledger.artifact_digest,
            reference: ledger.reference_digest,
        });
    }
    if ledger.panics_caught != ledger.panics_injected
        || (ledger.panics_injected > 0 && ledger.panic_reclaimed == 0)
    {
        violations.push(SchedViolation::PanicNotContained {
            injected: ledger.panics_injected,
            caught: ledger.panics_caught,
            reclaimed: ledger.panic_reclaimed,
        });
    }
    if !ledger.pool_reusable {
        violations.push(SchedViolation::PoolPoisoned);
    }
    if ledger.stale_rejected != ledger.stale_presented {
        violations.push(SchedViolation::StaleLeaseAccepted {
            presented: ledger.stale_presented,
            rejected: ledger.stale_rejected,
        });
    }
    violations
}

/// Cross-incarnation accounting for one campaign driven through the
/// HTTP/JSON gateway (`cpc-gateway`) under transport-level chaos:
/// the service-level cell accounting of [`ServiceLedger`] plus the
/// transport book — connections opened/closed, requests parsed,
/// malformed/overload rejections, deadline discipline, panics.
/// [`check_gateway_ledger`] turns a ledger into oracle verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GatewayLedger {
    /// Cells the campaign comprises.
    pub total_cells: usize,
    /// Cells with a durable result when the gateway drained.
    pub completed: usize,
    /// Cells dead-lettered (forbidden under the sampled space).
    pub abandoned: usize,
    /// Fresh simulations across all gateway incarnations.
    pub executed: usize,
    /// Executions whose result never became durable (gateway killed
    /// before the journal append) — each licenses one re-execution.
    pub lost_executions: usize,
    /// Connections the fault injector opened against the gateway.
    pub conns_opened: usize,
    /// Connections closed (handler returned and the stream dropped)
    /// by the end of the campaign. Must equal `conns_opened`: a
    /// missing close is a leaked fd.
    pub conns_closed: usize,
    /// Requests that parsed completely and reached a route.
    pub requests: usize,
    /// Malformed / oversized / truncated / timed-out requests the
    /// gateway answered with a 4xx (or aborted cleanly).
    pub rejected: usize,
    /// Requests shed with 429/503 + `Retry-After` under overload or
    /// drain.
    pub shed: usize,
    /// Read or write operations the gateway issued *after* the
    /// connection's deadline had already passed. Must be zero: a
    /// slowloris client must not drag a handler past its deadline.
    pub deadline_overruns: usize,
    /// Handler panics caught by the chaos driver. Must be zero.
    pub panics: usize,
    /// Gateway process kills the schedule delivered.
    pub kills: usize,
    /// Gateway incarnations (1 = never killed).
    pub incarnations: usize,
    /// FNV-1a digest of the campaign's results journal (`None` =
    /// unreadable, which is always a violation).
    pub artifact_digest: Option<u64>,
    /// Same digest from the direct (no-gateway) reference run.
    pub reference_digest: Option<u64>,
}

/// One violation of the gateway invariants under transport chaos.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GatewayViolation {
    /// A connection handler panicked.
    Panic {
        /// Panics caught.
        count: usize,
    },
    /// Connections opened and closed diverge: a leaked fd.
    FdLeak {
        /// Connections opened.
        opened: usize,
        /// Connections closed.
        closed: usize,
    },
    /// A handler kept reading or writing past its deadline.
    DeadlineOverrun {
        /// Operations issued after the deadline.
        count: usize,
    },
    /// A cell vanished (or was dead-lettered) across the campaign.
    LostCell {
        /// Cells with durable results.
        completed: usize,
        /// Cells dead-lettered.
        abandoned: usize,
        /// Cells the campaign comprises.
        total: usize,
    },
    /// More fresh executions than kills license: a doubly-executed
    /// cell.
    DuplicateExecution {
        /// Fresh executions observed.
        executed: usize,
        /// The bound: `total + lost_executions`.
        allowance: usize,
    },
    /// The gateway-path artifact differs from the direct-path
    /// reference (or either was unreadable).
    ArtifactMismatch {
        /// Digest of the gateway run's artifact (`None` = unreadable).
        artifact: Option<u64>,
        /// Digest of the reference artifact (`None` = unreadable).
        reference: Option<u64>,
    },
}

impl std::fmt::Display for GatewayViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayViolation::Panic { count } => write!(f, "handler panicked {count} time(s)"),
            GatewayViolation::FdLeak { opened, closed } => {
                write!(f, "fd leak: {opened} opened, {closed} closed")
            }
            GatewayViolation::DeadlineOverrun { count } => {
                write!(f, "deadline overrun: {count} op(s) past the deadline")
            }
            GatewayViolation::LostCell {
                completed,
                abandoned,
                total,
            } => write!(
                f,
                "lost cell: {completed} completed + {abandoned} abandoned of {total}"
            ),
            GatewayViolation::DuplicateExecution {
                executed,
                allowance,
            } => write!(
                f,
                "duplicate execution: {executed} ran, {allowance} allowed"
            ),
            GatewayViolation::ArtifactMismatch {
                artifact,
                reference,
            } => write!(
                f,
                "artifact mismatch: {} != reference {}",
                fmt_digest(*artifact),
                fmt_digest(*reference)
            ),
        }
    }
}

/// The gateway chaos oracles, as pure functions of the ledger:
///
/// 1. **No panic** — every misbehaving client is answered or dropped,
///    never a crash.
/// 2. **No fd leak** — every connection the injector opened was
///    closed by campaign end.
/// 3. **No request outlives its deadline** — once a connection's
///    read/write deadline passes, the handler issues no further I/O
///    on it.
/// 4. **No lost or doubly-executed cell** — the service oracles hold
///    through the HTTP path: every cell durable exactly once, and
///    fresh executions never exceed `total + lost_executions`.
/// 5. **Byte-identical artifact** — the campaign journal produced
///    through the gateway (including kill-resume through HTTP)
///    digests identically to the direct-path reference; an unreadable
///    artifact is a violation, never a match.
pub fn check_gateway_ledger(ledger: &GatewayLedger) -> Vec<GatewayViolation> {
    let mut violations = Vec::new();
    if ledger.panics > 0 {
        violations.push(GatewayViolation::Panic {
            count: ledger.panics,
        });
    }
    if ledger.conns_opened != ledger.conns_closed {
        violations.push(GatewayViolation::FdLeak {
            opened: ledger.conns_opened,
            closed: ledger.conns_closed,
        });
    }
    if ledger.deadline_overruns > 0 {
        violations.push(GatewayViolation::DeadlineOverrun {
            count: ledger.deadline_overruns,
        });
    }
    if ledger.completed + ledger.abandoned < ledger.total_cells || ledger.abandoned > 0 {
        violations.push(GatewayViolation::LostCell {
            completed: ledger.completed,
            abandoned: ledger.abandoned,
            total: ledger.total_cells,
        });
    }
    let allowance = ledger.total_cells + ledger.lost_executions;
    if ledger.executed > allowance {
        violations.push(GatewayViolation::DuplicateExecution {
            executed: ledger.executed,
            allowance,
        });
    }
    if ledger.artifact_digest.is_none()
        || ledger.reference_digest.is_none()
        || ledger.artifact_digest != ledger.reference_digest
    {
        violations.push(GatewayViolation::ArtifactMismatch {
            artifact: ledger.artifact_digest,
            reference: ledger.reference_digest,
        });
    }
    violations
}

/// Cross-incarnation accounting for one campaign run against a
/// fault-injected filesystem (`cpc-vfs::SimFs`): cell and execution
/// counts summed over every incarnation — power-cut restarts, ENOSPC
/// quiesce/lift cycles, transient-error retries — plus the
/// filesystem's own fault counters and the artifact digests.
/// [`check_disk_ledger`] turns a ledger into oracle verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DiskLedger {
    /// Cells the campaign comprises.
    pub total_cells: usize,
    /// Cells with a durable result when the campaign drained.
    pub completed: usize,
    /// Cells dead-lettered (forbidden under the sampled space).
    pub abandoned: usize,
    /// Fresh simulations across all incarnations.
    pub executed: usize,
    /// Executions whose durability is unlicensed to assume: the step
    /// that ran them failed before acknowledging, so the schedule
    /// licenses exactly one re-execution each.
    pub lost_executions: usize,
    /// Service incarnations (1 = fault-free).
    pub incarnations: usize,
    /// Power-cut restarts the driver performed.
    pub restarts: usize,
    /// Persistent-ENOSPC lifts the driver performed after observing
    /// the service quiesce.
    pub enospc_lifts: usize,
    /// Transient I/O errors (EIO, short write, failed rename) the
    /// driver retried past.
    pub io_retries: usize,
    /// Results that were durably acknowledged and then missing after a
    /// restart — the acked-then-lost count, always a violation.
    pub acked_then_lost: usize,
    /// Recovered results that differ from a fresh re-execution of
    /// their cell — corrupt bytes accepted as valid, always a
    /// violation.
    pub corrupt_accepted: usize,
    /// Panics caught while stepping the service under disk faults.
    pub panics: usize,
    /// The simulated disk's own accounting: ops, faults fired, and the
    /// poisoned-publish count (a rename that published a file whose
    /// fsync had failed — post-failed-fsync trust).
    pub disk: DiskCounters,
    /// FNV-1a digest of the final results artifact (`None` =
    /// missing/unreadable, which never compares equal).
    pub artifact_digest: Option<u64>,
    /// Same digest from the fault-free reference run.
    pub reference_digest: Option<u64>,
}

/// One violation of the disk-fault durability invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DiskViolation {
    /// A cell vanished: fewer durable results than cells when the
    /// campaign drained (dead-letters are forbidden too).
    LostCell {
        /// Cells with durable results.
        completed: usize,
        /// Cells dead-lettered.
        abandoned: usize,
        /// Cells the campaign comprises.
        total: usize,
    },
    /// More fresh executions than the fault schedule licenses: a cell
    /// with a durably-acknowledged result was re-simulated.
    DuplicateExecution {
        /// Fresh executions observed.
        executed: usize,
        /// The bound: `total + lost_executions`.
        allowance: usize,
    },
    /// A durably-acknowledged result was missing after a restart: the
    /// ack was a lie (bytes were not on stable storage).
    AckedThenLost {
        /// Acked results that vanished.
        lost: usize,
    },
    /// A recovered result differs from a fresh re-execution of its
    /// cell: corrupt bytes were accepted as valid.
    CorruptAccepted {
        /// Corrupt results accepted.
        accepted: usize,
    },
    /// The service panicked under a disk fault instead of returning a
    /// typed error.
    Panicked {
        /// Panics caught.
        panics: usize,
    },
    /// A rename published a file whose fsync had failed — the
    /// fsyncgate case: retrying (or ignoring) a failed fsync and then
    /// trusting the file. The write path must abandon the file
    /// instead.
    PoisonedPublish {
        /// Poisoned publishes the filesystem observed.
        publishes: u64,
    },
    /// The drained campaign's artifact differs from the fault-free
    /// reference run's — or either was unreadable (`None`), which can
    /// never count as byte-identical.
    ArtifactMismatch {
        /// Digest of the chaos run's artifact (`None` = unreadable).
        artifact: Option<u64>,
        /// Digest of the reference run's artifact (`None` = unreadable).
        reference: Option<u64>,
    },
}

impl std::fmt::Display for DiskViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskViolation::LostCell {
                completed,
                abandoned,
                total,
            } => write!(
                f,
                "lost cell: {completed} completed + {abandoned} abandoned of {total}"
            ),
            DiskViolation::DuplicateExecution {
                executed,
                allowance,
            } => write!(
                f,
                "duplicate execution: {executed} ran, {allowance} allowed"
            ),
            DiskViolation::AckedThenLost { lost } => {
                write!(f, "acked then lost: {lost} durable results vanished")
            }
            DiskViolation::CorruptAccepted { accepted } => {
                write!(
                    f,
                    "corrupt accept: {accepted} recovered results differ from re-execution"
                )
            }
            DiskViolation::Panicked { panics } => {
                write!(f, "panic under disk fault: {panics} caught")
            }
            DiskViolation::PoisonedPublish { publishes } => write!(
                f,
                "post-failed-fsync trust: {publishes} poisoned files published"
            ),
            DiskViolation::ArtifactMismatch {
                artifact,
                reference,
            } => write!(
                f,
                "artifact mismatch: {} != reference {}",
                fmt_digest(*artifact),
                fmt_digest(*reference)
            ),
        }
    }
}

/// The crash-consistency oracles of the disk-fault campaign, as pure
/// functions of the ledger:
///
/// 1. **No acked-then-lost.** A result acknowledged durable before a
///    power cut is still there after restart — both directly
///    (`acked_then_lost`) and through the execution bound (re-running
///    an acked cell exceeds the allowance).
/// 2. **No corrupt-accept.** Every recovered result matches a fresh
///    re-execution of its cell; damaged bytes are quarantined and
///    re-derived, never served.
/// 3. **No panic.** Every injected fault surfaces as a typed error.
/// 4. **No post-failed-fsync trust.** A file whose fsync failed is
///    abandoned, never renamed into place (`fsyncgate`).
/// 5. **Graceful completion.** Once faults clear, the campaign drains
///    every cell and the artifact digests identically to the
///    fault-free reference.
pub fn check_disk_ledger(ledger: &DiskLedger) -> Vec<DiskViolation> {
    let mut violations = Vec::new();
    if ledger.completed + ledger.abandoned < ledger.total_cells || ledger.abandoned > 0 {
        violations.push(DiskViolation::LostCell {
            completed: ledger.completed,
            abandoned: ledger.abandoned,
            total: ledger.total_cells,
        });
    }
    let allowance = ledger.total_cells + ledger.lost_executions;
    if ledger.executed > allowance {
        violations.push(DiskViolation::DuplicateExecution {
            executed: ledger.executed,
            allowance,
        });
    }
    if ledger.acked_then_lost > 0 {
        violations.push(DiskViolation::AckedThenLost {
            lost: ledger.acked_then_lost,
        });
    }
    if ledger.corrupt_accepted > 0 {
        violations.push(DiskViolation::CorruptAccepted {
            accepted: ledger.corrupt_accepted,
        });
    }
    if ledger.panics > 0 {
        violations.push(DiskViolation::Panicked {
            panics: ledger.panics,
        });
    }
    if ledger.disk.poisoned_publishes > 0 {
        violations.push(DiskViolation::PoisonedPublish {
            publishes: ledger.disk.poisoned_publishes,
        });
    }
    if ledger.artifact_digest.is_none()
        || ledger.reference_digest.is_none()
        || ledger.artifact_digest != ledger.reference_digest
    {
        violations.push(DiskViolation::ArtifactMismatch {
            artifact: ledger.artifact_digest,
            reference: ledger.reference_digest,
        });
    }
    violations
}

/// Every single-layer ledger of one composed chaos schedule absorbed
/// into a single book, plus the conductor's own ground-truth
/// execution accounting. Filled by
/// [`run_composed_chaos`](crate::run_composed_chaos), convicted by
/// [`check_cross_ledger`].
///
/// The sub-ledgers are kept to their own layers' contracts, with one
/// exception made on purpose: executions. There is **one execution
/// book** — `executed_true` counts every model execution across every
/// incarnation and revival via the conductor's counting wrapper,
/// `exec_allowance` is the exact re-execution licence the conductor
/// charged loss by loss — and [`CrossLedger::post_executions`] posts
/// it into every layer's `executed` / `lost_executions` columns, so
/// each layer's own duplicate-execution oracle judges ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CrossLedger {
    /// MD-layer verdict (`None` when the MD layer is masked).
    pub md: Option<ScheduleReport>,
    /// Service-layer book (kills, torn writes, stale leases).
    pub service: ServiceLedger,
    /// Transport-layer book (the gateway's connection accounting).
    pub gateway: GatewayLedger,
    /// Disk-layer book (restarts, ENOSPC lifts, acked-then-lost).
    pub disk: DiskLedger,
    /// Scheduler-layer book (pauses, panic containment).
    pub sched: SchedLedger,
    /// Armed events per layer, in [`LAYERS`] order
    /// (md, service, transport, disk, sched) — the pairwise
    /// interaction-coverage record of this schedule.
    pub layer_events: [usize; 5],
    /// Ground truth: model executions observed by the conductor's
    /// counting wrapper, across every incarnation and revival.
    pub executed_true: usize,
    /// The re-execution licence: every cell of every admitted campaign
    /// once, plus each execution whose result a fault kept from
    /// becoming durable (charged by the conductor where the fault
    /// landed), plus each durable line a torn results journal
    /// destroyed.
    pub exec_allowance: usize,
    /// FNV-1a digest of the drained campaign artifact.
    pub artifact_digest: Option<u64>,
    /// FNV-1a digest of the fault-free serial reference artifact.
    pub reference_digest: Option<u64>,
}

impl CrossLedger {
    /// Closes the one execution book and posts it to every layer.
    /// `executed` is the ground-truth count, `extra_cells` the cells of
    /// campaigns other than the canonical one (floods; one execution
    /// each is theirs), `lost` the executions whose result a fault
    /// kept from becoming durable. The canonical campaign's totals and
    /// `service.destroyed_results` must already be in place. Each
    /// layer's own bound then reads `executed > exec_allowance`
    /// through its own columns: the service book licenses
    /// `lost_executions + destroyed_results`, the transport and disk
    /// books carry the destroyed lines inside `lost_executions`, and
    /// the scheduler book — one execution per cell, no licence term —
    /// counts executions net of the licensed ones.
    pub fn post_executions(&mut self, executed: usize, extra_cells: usize, lost: usize) {
        let destroyed = self.service.destroyed_results;
        self.executed_true = executed;
        self.exec_allowance = self.service.total_cells + extra_cells + lost + destroyed;
        let own = executed.saturating_sub(extra_cells);
        self.service.executed = own;
        self.service.lost_executions = lost;
        self.gateway.executed = own;
        self.gateway.lost_executions = lost + destroyed;
        self.disk.executed = own;
        self.disk.lost_executions = lost + destroyed;
        self.sched.executed = own.saturating_sub(lost + destroyed);
    }
}

/// One violation of the composed chaos oracles: a single-layer
/// conviction lifted into its layer, or one of the cross-layer
/// interaction oracles only a composed schedule can exercise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CrossViolation {
    /// An MD-layer oracle fired.
    Md {
        /// The underlying violation.
        violation: Violation,
    },
    /// A service-layer oracle fired.
    Service {
        /// The underlying violation.
        violation: ServiceViolation,
    },
    /// A transport-layer (gateway) oracle fired.
    Transport {
        /// The underlying violation.
        violation: GatewayViolation,
    },
    /// A disk-layer oracle fired.
    Disk {
        /// The underlying violation.
        violation: DiskViolation,
    },
    /// A scheduler-layer oracle fired.
    Sched {
        /// The underlying violation.
        violation: SchedViolation,
    },
    /// A durably-acknowledged result vanished while both a disk fault
    /// and a process kill were armed — the interaction the disk
    /// layer's own oracle cannot attribute: the loss needed a fault
    /// *and* a recovery racing it.
    AckedThenLostAcrossLayers {
        /// Acked results that vanished.
        lost: usize,
        /// Disk events armed in the schedule.
        disk_events: usize,
        /// Process kills (service + gateway) in the schedule.
        kills: usize,
    },
    /// Ground-truth executions exceeded the re-execution licence:
    /// some cell with a durable result was simulated again.
    DuplicateExecutionAcrossLayers {
        /// Executions the conductor observed.
        executed: usize,
        /// The composed license.
        allowance: usize,
    },
    /// The drained artifact is not byte-identical to the fault-free
    /// serial reference — the composed end-to-end identity statement.
    DrainedArtifactDiverged {
        /// Digest of the drained artifact.
        artifact: Option<u64>,
        /// Digest of the reference artifact.
        reference: Option<u64>,
    },
}

impl std::fmt::Display for CrossViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrossViolation::Md { violation } => write!(f, "md: {violation}"),
            CrossViolation::Service { violation } => write!(f, "service: {violation}"),
            CrossViolation::Transport { violation } => write!(f, "transport: {violation}"),
            CrossViolation::Disk { violation } => write!(f, "disk: {violation}"),
            CrossViolation::Sched { violation } => write!(f, "sched: {violation}"),
            CrossViolation::AckedThenLostAcrossLayers {
                lost,
                disk_events,
                kills,
            } => write!(
                f,
                "cross: {lost} acked results lost under {disk_events} disk events x {kills} kills"
            ),
            CrossViolation::DuplicateExecutionAcrossLayers {
                executed,
                allowance,
            } => write!(
                f,
                "cross: duplicate execution: {executed} ran, {allowance} licensed across layers"
            ),
            CrossViolation::DrainedArtifactDiverged {
                artifact,
                reference,
            } => write!(
                f,
                "cross: drained artifact {} != serial reference {}",
                fmt_digest(*artifact),
                fmt_digest(*reference)
            ),
        }
    }
}

/// Checks the union of every single-layer oracle, verbatim, plus the
/// cross-layer interaction oracles over one [`CrossLedger`].
pub fn check_cross_ledger(ledger: &CrossLedger) -> Vec<CrossViolation> {
    let mut violations = Vec::new();
    if let Some(md) = &ledger.md {
        violations.extend(
            md.violations
                .iter()
                .cloned()
                .map(|violation| CrossViolation::Md { violation }),
        );
    }
    violations.extend(
        check_service_ledger(&ledger.service)
            .into_iter()
            .map(|violation| CrossViolation::Service { violation }),
    );
    violations.extend(
        check_gateway_ledger(&ledger.gateway)
            .into_iter()
            .map(|violation| CrossViolation::Transport { violation }),
    );
    violations.extend(
        check_disk_ledger(&ledger.disk)
            .into_iter()
            .map(|violation| CrossViolation::Disk { violation }),
    );
    violations.extend(
        check_sched_ledger(&ledger.sched)
            .into_iter()
            .map(|violation| CrossViolation::Sched { violation }),
    );

    // Interaction oracle 1: acked-then-lost across a disk fault and a
    // process kill. (With only the disk layer armed the disk book's
    // own AckedThenLost conviction stands alone.)
    let kills = ledger.service.kills + ledger.gateway.kills;
    if ledger.disk.acked_then_lost > 0 && ledger.layer_events[3] > 0 && kills > 0 {
        violations.push(CrossViolation::AckedThenLostAcrossLayers {
            lost: ledger.disk.acked_then_lost,
            disk_events: ledger.layer_events[3],
            kills,
        });
    }
    // Interaction oracle 2: the global execution bound.
    if ledger.executed_true > ledger.exec_allowance {
        violations.push(CrossViolation::DuplicateExecutionAcrossLayers {
            executed: ledger.executed_true,
            allowance: ledger.exec_allowance,
        });
    }
    // Interaction oracle 3: end-to-end byte identity. `None` never
    // matches — two unreadable artifacts are not "identical".
    if ledger.artifact_digest.is_none()
        || ledger.reference_digest.is_none()
        || ledger.artifact_digest != ledger.reference_digest
    {
        violations.push(CrossViolation::DrainedArtifactDiverged {
            artifact: ledger.artifact_digest,
            reference: ledger.reference_digest,
        });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_ledger() -> ServiceLedger {
        ServiceLedger {
            total_cells: 48,
            completed: 48,
            executed: 48,
            journal_preseeded: 0,
            incarnations: 1,
            artifact_digest: Some(0xfeed),
            reference_digest: Some(0xfeed),
            ..ServiceLedger::default()
        }
    }

    #[test]
    fn service_oracles_pass_a_clean_ledger_and_licensed_rework() {
        assert!(check_service_ledger(&clean_ledger()).is_empty());
        // A kill-resume run: one execution lost mid-cell, two results
        // torn away — three licensed re-executions, rest preseeded.
        let ledger = ServiceLedger {
            executed: 51,
            lost_executions: 1,
            destroyed_results: 2,
            journal_preseeded: 30,
            cache_hits: 2,
            reclaimed_leases: 1,
            incarnations: 3,
            kills: 2,
            stale_presented: 1,
            stale_rejected: 1,
            ..clean_ledger()
        };
        assert!(check_service_ledger(&ledger).is_empty());
    }

    #[test]
    fn service_oracles_catch_each_violation_class() {
        let lost = ServiceLedger {
            completed: 47,
            ..clean_ledger()
        };
        assert!(matches!(
            check_service_ledger(&lost)[..],
            [ServiceViolation::LostCell { completed: 47, .. }]
        ));
        let abandoned = ServiceLedger {
            completed: 47,
            abandoned: 1,
            ..clean_ledger()
        };
        assert!(
            matches!(
                check_service_ledger(&abandoned)[..],
                [ServiceViolation::LostCell { abandoned: 1, .. }]
            ),
            "dead-letters are lost cells under the sampled space"
        );
        let dup = ServiceLedger {
            executed: 49,
            ..clean_ledger()
        };
        assert!(matches!(
            check_service_ledger(&dup)[..],
            [ServiceViolation::DuplicateExecution {
                executed: 49,
                allowance: 48
            }]
        ));
        let mismatch = ServiceLedger {
            artifact_digest: Some(0xdead),
            ..clean_ledger()
        };
        assert!(matches!(
            check_service_ledger(&mismatch)[..],
            [ServiceViolation::ArtifactMismatch { .. }]
        ));
        let stale = ServiceLedger {
            stale_presented: 2,
            stale_rejected: 1,
            ..clean_ledger()
        };
        assert!(matches!(
            check_service_ledger(&stale)[..],
            [ServiceViolation::StaleLeaseAccepted {
                presented: 2,
                rejected: 1
            }]
        ));
    }

    fn clean_sched_ledger() -> SchedLedger {
        SchedLedger {
            total_cells: 16,
            completed: 16,
            executed: 16,
            threads: 4,
            pool_tasks: 16,
            journal_lines: 16,
            pool_reusable: true,
            artifact_digest: Some(0xfeed),
            reference_digest: Some(0xfeed),
            ..SchedLedger::default()
        }
    }

    #[test]
    fn sched_oracles_pass_a_clean_ledger_and_recovered_panics() {
        assert!(check_sched_ledger(&clean_sched_ledger()).is_empty());
        // A schedule whose injected panic was caught, its lease
        // reclaimed, the cell re-executed: no violation.
        let ledger = SchedLedger {
            panics_injected: 1,
            panics_caught: 1,
            panic_reclaimed: 3,
            pauses_taken: 2,
            stale_presented: 1,
            stale_rejected: 1,
            ..clean_sched_ledger()
        };
        assert!(check_sched_ledger(&ledger).is_empty());
    }

    #[test]
    fn sched_oracles_catch_each_violation_class() {
        let lost = SchedLedger {
            completed: 15,
            journal_lines: 15,
            ..clean_sched_ledger()
        };
        let got = check_sched_ledger(&lost);
        assert!(got
            .iter()
            .any(|v| matches!(v, SchedViolation::LostTask { completed: 15, .. })));
        assert!(got
            .iter()
            .any(|v| matches!(v, SchedViolation::DoubleCommit { .. })));

        let doubled = SchedLedger {
            journal_lines: 17,
            ..clean_sched_ledger()
        };
        assert!(matches!(
            check_sched_ledger(&doubled)[..],
            [SchedViolation::DoubleCommit {
                journal_lines: 17,
                total: 16
            }]
        ));
        let rerun = SchedLedger {
            executed: 17,
            ..clean_sched_ledger()
        };
        assert!(matches!(
            check_sched_ledger(&rerun)[..],
            [SchedViolation::DuplicateExecution {
                executed: 17,
                allowance: 16
            }]
        ));
        let stalled = SchedLedger {
            stalled: true,
            ..clean_sched_ledger()
        };
        assert!(matches!(
            check_sched_ledger(&stalled)[..],
            [SchedViolation::Deadlocked { .. }]
        ));
        let escaped = SchedLedger {
            panics_injected: 1,
            ..clean_sched_ledger()
        };
        assert!(matches!(
            check_sched_ledger(&escaped)[..],
            [SchedViolation::PanicNotContained {
                injected: 1,
                caught: 0,
                ..
            }]
        ));
        let unreclaimed = SchedLedger {
            panics_injected: 1,
            panics_caught: 1,
            panic_reclaimed: 0,
            ..clean_sched_ledger()
        };
        assert!(matches!(
            check_sched_ledger(&unreclaimed)[..],
            [SchedViolation::PanicNotContained { reclaimed: 0, .. }]
        ));
        let poisoned = SchedLedger {
            pool_reusable: false,
            ..clean_sched_ledger()
        };
        assert!(matches!(
            check_sched_ledger(&poisoned)[..],
            [SchedViolation::PoolPoisoned]
        ));
        let stale = SchedLedger {
            stale_presented: 1,
            ..clean_sched_ledger()
        };
        assert!(matches!(
            check_sched_ledger(&stale)[..],
            [SchedViolation::StaleLeaseAccepted {
                presented: 1,
                rejected: 0
            }]
        ));
        // An unreadable chaos artifact violates even when the
        // reference is also unreadable.
        let unreadable = SchedLedger {
            artifact_digest: None,
            reference_digest: None,
            ..clean_sched_ledger()
        };
        assert!(matches!(
            check_sched_ledger(&unreadable)[..],
            [SchedViolation::ArtifactMismatch {
                artifact: None,
                reference: None
            }]
        ));
    }

    #[test]
    fn unreadable_artifacts_never_compare_byte_identical() {
        // Regression: artifact_digest used to map any read error to
        // digest 0, so two *missing* artifacts compared equal and the
        // byte-identity oracle passed vacuously. `None` must violate —
        // on either side, and especially when both are `None`.
        for (artifact, reference) in [
            (None, Some(0xfeed)),
            (Some(0xfeed), None),
            (None, None), // both unreadable: the old digest-0 trap
        ] {
            let ledger = ServiceLedger {
                artifact_digest: artifact,
                reference_digest: reference,
                ..clean_ledger()
            };
            assert!(
                matches!(
                    check_service_ledger(&ledger)[..],
                    [ServiceViolation::ArtifactMismatch { .. }]
                ),
                "artifact {artifact:?} vs reference {reference:?} must violate"
            );
        }
        let v = ServiceViolation::ArtifactMismatch {
            artifact: None,
            reference: Some(0xfeed),
        };
        assert!(v.to_string().contains("<unreadable>"));
    }

    fn clean_gateway_ledger() -> GatewayLedger {
        GatewayLedger {
            total_cells: 6,
            completed: 6,
            executed: 6,
            conns_opened: 9,
            conns_closed: 9,
            requests: 3,
            rejected: 4,
            shed: 2,
            incarnations: 1,
            artifact_digest: Some(0xfeed),
            reference_digest: Some(0xfeed),
            ..GatewayLedger::default()
        }
    }

    #[test]
    fn gateway_oracles_pass_clean_and_licensed_kill_resume_ledgers() {
        assert!(check_gateway_ledger(&clean_gateway_ledger()).is_empty());
        // A kill-resume run: one execution lost with the process, one
        // licensed re-execution, a second incarnation.
        let killed = GatewayLedger {
            executed: 7,
            lost_executions: 1,
            kills: 1,
            incarnations: 2,
            ..clean_gateway_ledger()
        };
        assert!(check_gateway_ledger(&killed).is_empty());
    }

    #[test]
    fn gateway_oracles_catch_each_violation_class() {
        let panicked = GatewayLedger {
            panics: 1,
            ..clean_gateway_ledger()
        };
        assert!(matches!(
            check_gateway_ledger(&panicked)[..],
            [GatewayViolation::Panic { count: 1 }]
        ));
        let leak = GatewayLedger {
            conns_closed: 8,
            ..clean_gateway_ledger()
        };
        assert!(matches!(
            check_gateway_ledger(&leak)[..],
            [GatewayViolation::FdLeak {
                opened: 9,
                closed: 8
            }]
        ));
        let overrun = GatewayLedger {
            deadline_overruns: 2,
            ..clean_gateway_ledger()
        };
        assert!(matches!(
            check_gateway_ledger(&overrun)[..],
            [GatewayViolation::DeadlineOverrun { count: 2 }]
        ));
        let lost = GatewayLedger {
            completed: 5,
            ..clean_gateway_ledger()
        };
        assert!(matches!(
            check_gateway_ledger(&lost)[..],
            [GatewayViolation::LostCell { completed: 5, .. }]
        ));
        let dup = GatewayLedger {
            executed: 7,
            ..clean_gateway_ledger()
        };
        assert!(matches!(
            check_gateway_ledger(&dup)[..],
            [GatewayViolation::DuplicateExecution {
                executed: 7,
                allowance: 6
            }]
        ));
        for artifact in [Some(0xdead), None] {
            let mismatch = GatewayLedger {
                artifact_digest: artifact,
                ..clean_gateway_ledger()
            };
            assert!(matches!(
                check_gateway_ledger(&mismatch)[..],
                [GatewayViolation::ArtifactMismatch { .. }]
            ));
        }
    }

    #[test]
    fn gateway_ledger_and_violations_roundtrip_json() {
        let ledger = GatewayLedger {
            kills: 1,
            incarnations: 2,
            lost_executions: 1,
            executed: 7,
            ..clean_gateway_ledger()
        };
        let parsed: GatewayLedger =
            serde_json::from_str(&serde_json::to_string(&ledger).unwrap()).unwrap();
        assert_eq!(parsed, ledger);
        let v = vec![
            GatewayViolation::FdLeak {
                opened: 2,
                closed: 1,
            },
            GatewayViolation::ArtifactMismatch {
                artifact: None,
                reference: Some(2),
            },
        ];
        let parsed: Vec<GatewayViolation> =
            serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(parsed, v);
        assert!(v[0].to_string().contains("fd leak"));
    }

    #[test]
    fn digests_above_i64_max_round_trip_exactly_and_old_rounded_lines_still_load() {
        let ledger = ServiceLedger {
            artifact_digest: Some(11195938974252812389),
            reference_digest: Some(u64::MAX),
            ..clean_ledger()
        };
        let json = serde_json::to_string(&ledger).unwrap();
        assert!(
            json.contains("\"artifact_digest\":11195938974252812389"),
            "{json}"
        );
        assert_eq!(
            serde_json::from_str::<ServiceLedger>(&json).unwrap(),
            ledger
        );
        // What the writer printed before `u64` was exact: the digest
        // rounded through `f64`. Such a journal line must still resume.
        let old = json.replace("11195938974252812389", "11195938974252812000");
        let parsed: ServiceLedger = serde_json::from_str(&old).unwrap();
        assert_eq!(parsed.artifact_digest, Some(11195938974252812000));
    }

    #[test]
    fn service_ledger_and_violations_roundtrip_json() {
        let ledger = ServiceLedger {
            duplicate_results: 1,
            dropped_lines: 3,
            cache_corruption_caught: 1,
            ..clean_ledger()
        };
        let parsed: ServiceLedger =
            serde_json::from_str(&serde_json::to_string(&ledger).unwrap()).unwrap();
        assert_eq!(parsed, ledger);
        let v = vec![
            ServiceViolation::LostCell {
                completed: 1,
                abandoned: 0,
                total: 2,
            },
            ServiceViolation::ArtifactMismatch {
                artifact: Some(1),
                reference: Some(2),
            },
        ];
        let parsed: Vec<ServiceViolation> =
            serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(parsed, v);
        assert!(v[0].to_string().contains("lost cell"));
    }

    #[test]
    fn a_planted_disk_artifact_mismatch_is_convicted() {
        // A ledger whose digests disagree must always be convicted:
        // the oracle itself, not a driver, is under test here.
        let ledger = DiskLedger {
            total_cells: 1,
            completed: 1,
            executed: 1,
            artifact_digest: Some(1),
            reference_digest: Some(2),
            ..DiskLedger::default()
        };
        assert!(matches!(
            check_disk_ledger(&ledger)[..],
            [DiskViolation::ArtifactMismatch { .. }]
        ));
    }

    /// A cross ledger whose every sub-book and interaction bound
    /// holds: the fixture the cross-oracle tests perturb.
    fn clean_cross_ledger() -> CrossLedger {
        let digest = Some(0xABCD_u64);
        CrossLedger {
            md: None,
            service: ServiceLedger {
                total_cells: 4,
                completed: 4,
                executed: 4,
                incarnations: 1,
                artifact_digest: digest,
                reference_digest: digest,
                ..ServiceLedger::default()
            },
            gateway: GatewayLedger {
                total_cells: 4,
                completed: 4,
                executed: 4,
                conns_opened: 5,
                conns_closed: 5,
                requests: 5,
                incarnations: 1,
                artifact_digest: digest,
                reference_digest: digest,
                ..GatewayLedger::default()
            },
            disk: DiskLedger {
                total_cells: 4,
                completed: 4,
                executed: 4,
                incarnations: 1,
                artifact_digest: digest,
                reference_digest: digest,
                ..DiskLedger::default()
            },
            sched: SchedLedger {
                total_cells: 4,
                completed: 4,
                executed: 4,
                threads: 2,
                journal_lines: 4,
                pool_reusable: true,
                artifact_digest: digest,
                reference_digest: digest,
                ..SchedLedger::default()
            },
            layer_events: [1, 1, 1, 1, 1],
            executed_true: 4,
            exec_allowance: 4,
            artifact_digest: digest,
            reference_digest: digest,
        }
    }

    #[test]
    fn clean_cross_ledger_passes_every_oracle() {
        let violations = check_cross_ledger(&clean_cross_ledger());
        assert!(
            violations.is_empty(),
            "clean ledger convicted: {violations:?}"
        );
    }

    #[test]
    fn acked_then_lost_under_disk_and_kill_fires_both_oracles() {
        let mut ledger = clean_cross_ledger();
        ledger.disk.acked_then_lost = 1;
        ledger.service.kills = 1;
        let violations = check_cross_ledger(&ledger);
        assert!(violations.iter().any(|v| matches!(
            v,
            CrossViolation::Disk {
                violation: DiskViolation::AckedThenLost { .. }
            }
        )));
        assert!(
            violations.iter().any(|v| matches!(
                v,
                CrossViolation::AckedThenLostAcrossLayers {
                    lost: 1,
                    kills: 1,
                    ..
                }
            )),
            "the interaction oracle must attribute the loss: {violations:?}"
        );
        // Without a kill in the schedule, only the disk book convicts.
        ledger.service.kills = 0;
        let violations = check_cross_ledger(&ledger);
        assert!(!violations
            .iter()
            .any(|v| matches!(v, CrossViolation::AckedThenLostAcrossLayers { .. })));
    }

    #[test]
    fn cross_execution_bound_and_artifact_identity_convict() {
        let mut ledger = clean_cross_ledger();
        ledger.executed_true = 9;
        ledger.artifact_digest = Some(1);
        let violations = check_cross_ledger(&ledger);
        assert!(violations.iter().any(|v| matches!(
            v,
            CrossViolation::DuplicateExecutionAcrossLayers {
                executed: 9,
                allowance: 4
            }
        )));
        assert!(violations
            .iter()
            .any(|v| matches!(v, CrossViolation::DrainedArtifactDiverged { .. })));
        // An unreadable artifact must never compare identical.
        ledger.artifact_digest = None;
        ledger.reference_digest = None;
        assert!(check_cross_ledger(&ledger)
            .iter()
            .any(|v| matches!(v, CrossViolation::DrainedArtifactDiverged { .. })));
    }

    #[test]
    fn one_execution_more_than_the_licence_convicts_under_every_one_layer_mask() {
        for layer in 1..5 {
            let mut ledger = clean_cross_ledger();
            ledger.layer_events = [0; 5];
            ledger.layer_events[layer] = 1;
            ledger.service.kills = 1;
            ledger.service.destroyed_results = 1;
            // A kill stranded one execution, a tear destroyed one
            // line: six executions of four cells are licensed, by
            // every layer's own bound, the scheduler's included.
            ledger.post_executions(6, 0, 1);
            assert_eq!(ledger.exec_allowance, 6);
            let violations = check_cross_ledger(&ledger);
            assert!(
                violations.is_empty(),
                "licensed re-execution convicted: {violations:?}"
            );
            // The seventh is not, and every book says so.
            ledger.post_executions(7, 0, 1);
            let rendered: Vec<String> = check_cross_ledger(&ledger)
                .iter()
                .map(|v| v.to_string())
                .collect();
            assert_eq!(
                rendered,
                [
                    "service: duplicate execution: 7 ran, 6 allowed",
                    "transport: duplicate execution: 7 ran, 6 allowed",
                    "disk: duplicate execution: 7 ran, 6 allowed",
                    "sched: duplicate execution: 5 committed, 4 allowed",
                    "cross: duplicate execution: 7 ran, 6 licensed across layers",
                ],
                "layer {layer}: every book must convict, and only of this"
            );
            // A flood campaign's cell is its own first execution, not
            // a re-execution of the canonical campaign's.
            ledger.post_executions(7, 1, 1);
            assert!(check_cross_ledger(&ledger).is_empty());
            // Every other sched oracle still lifts into the union.
            ledger.sched.journal_lines = 6;
            assert!(check_cross_ledger(&ledger).iter().any(|v| matches!(
                v,
                CrossViolation::Sched {
                    violation: SchedViolation::DoubleCommit { .. }
                }
            )));
        }
    }
}

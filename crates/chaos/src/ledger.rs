//! The host-side chaos ledgers and their oracles.
//!
//! Four layers sit between a campaign submission and its bytes on
//! disk — the crash-safe job service, the HTTP gateway in front of it,
//! the filesystem under it and the thread pool that executes
//! it — and each has a ledger (the counters that layer, and only that
//! layer, fills in one schedule), a violation enum (what must never
//! happen) and a `check_*_ledger` function (a pure function from the
//! one to the other). The facts every layer shares are booked once, in
//! the campaign book of the [`CrossLedger`]: the campaign's cells, its
//! completed and abandoned counts, the one execution book and the
//! artifact and reference digests. `check_cross_ledger` judges that
//! book once, lifts the per-layer oracles and the MD layer's
//! [`ScheduleReport`] into one verdict, and adds the interaction
//! oracles only a composed schedule can exercise.
//!
//! Oracles are safety code: every check here judges a hand-built
//! ledger in the unit tests below, independently of any driver.

use cpc_charmm::{ScheduleReport, Violation};
use cpc_vfs::DiskCounters;
use serde::{Deserialize, Serialize};

/// Cross-incarnation accounting for one campaign run through the
/// crash-safe job service (`cpc-workload`): cache hits, journal
/// pre-seeds, reclaimed leases and injected-fault side effects, summed
/// over all incarnations of the service. `check_service_ledger` turns
/// a ledger into oracle verdicts.
///
/// Concrete (non-generic) and serializable so chaos campaigns can
/// journal verdicts the same way they journal schedule reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ServiceLedger {
    /// Durable results destroyed by injected storage faults (torn
    /// results-journal writes) — each licenses one re-execution in the
    /// campaign book's [`CrossLedger::exec_allowance`].
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
}

/// One violation of the job-service invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceViolation {
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

/// The service layer's own oracle: every stale lease completion
/// presented to the queue was rejected. (The kill-resume oracles — no
/// lost cell, no duplicate execution, a byte-identical artifact —
/// judge the campaign book in `check_cross_ledger`.)
pub(crate) fn check_service_ledger(ledger: &ServiceLedger) -> Vec<ServiceViolation> {
    let mut violations = Vec::new();
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
/// worker): the pool's own counters, the artifact's line count and
/// the post-chaos reusability probe. `check_sched_ledger` turns a
/// ledger into oracle verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SchedLedger {
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
    /// Result lines in the final artifact (exactly one per cell, or
    /// a task was lost / doubly committed).
    pub journal_lines: usize,
    /// Whether the chaos pool executed a fresh probe batch afterward
    /// (a panicked worker must never poison the pool).
    pub pool_reusable: bool,
}

/// One violation of the deterministic-scheduling invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedViolation {
    /// The artifact holds more or fewer result lines than the
    /// campaign has cells: a task committed twice or not at all.
    DoubleCommit {
        /// Result lines in the artifact.
        journal_lines: usize,
        /// Cells the campaign comprises.
        total: usize,
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
}

impl std::fmt::Display for SchedViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedViolation::DoubleCommit {
                journal_lines,
                total,
            } => write!(
                f,
                "commit miscount: {journal_lines} artifact lines for {total} cells"
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
        }
    }
}

/// The cross-thread determinism oracles, as pure functions of the
/// ledger and the campaign's cell count:
///
/// 1. **No doubly-committed task.** The artifact holds exactly one
///    result line per cell, whatever the interleaving did.
/// 2. **Contained panics.** Every injected worker panic is caught at
///    the task boundary, its cell reclaimed through the lease-expiry
///    path, and the pool stays usable afterward.
///
/// That the chaos run produces the serial reference's exact bytes is
/// the campaign book's artifact oracle; that a *fault-free* pooled run
/// does so at every thread count is `tests/pool_determinism.rs`'s
/// property.
pub(crate) fn check_sched_ledger(ledger: &SchedLedger, total_cells: usize) -> Vec<SchedViolation> {
    let mut violations = Vec::new();
    if ledger.journal_lines != total_cells {
        violations.push(SchedViolation::DoubleCommit {
            journal_lines: ledger.journal_lines,
            total: total_cells,
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
    violations
}

/// Cross-incarnation accounting for one campaign driven through the
/// HTTP/JSON gateway (`cpc-gateway`) under transport-level chaos: the
/// transport book — connections opened/closed, requests parsed,
/// malformed/overload rejections, deadline discipline, panics, kills.
/// `check_gateway_ledger` turns a ledger into oracle verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GatewayLedger {
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
///
/// That the campaign's cells survive the HTTP path exactly once, with
/// a byte-identical artifact, is the campaign book's to judge.
pub(crate) fn check_gateway_ledger(ledger: &GatewayLedger) -> Vec<GatewayViolation> {
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
    violations
}

/// Cross-incarnation accounting for one campaign run against a
/// fault-injected filesystem (`cpc-vfs::SimFs`): what the supervisor
/// did about the faults — power-cut restarts, ENOSPC lifts,
/// transient-error retries — what the post-mortem reopen found on
/// disk, and the filesystem's own fault counters.
/// [`check_disk_ledger`] turns a ledger into oracle verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DiskLedger {
    /// Cells whose result a post-mortem reopen of the campaign's
    /// service recovered from the disk — not the drained instance's
    /// in-memory count, which is the campaign book's
    /// [`CrossLedger::completed`].
    pub completed: usize,
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
}

/// One violation of the disk-fault durability invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DiskViolation {
    /// A cell vanished from the disk: a post-mortem reopen recovers
    /// fewer results than the campaign has cells not dead-lettered.
    LostCell {
        /// Cells the post-mortem reopen recovered.
        completed: usize,
        /// Cells dead-lettered.
        abandoned: usize,
        /// Cells the campaign comprises.
        total: usize,
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
        }
    }
}

/// The crash-consistency oracles of the disk-fault campaign, as pure
/// functions of the ledger and the campaign's cell and dead-letter
/// counts:
///
/// 1. **Nothing lost on disk.** A post-mortem reopen recovers every
///    cell that was not dead-lettered (dead-letters themselves are the
///    campaign book's lost-cell conviction).
/// 2. **No acked-then-lost.** A result acknowledged durable before a
///    power cut is still there after restart (re-running an acked
///    cell also exceeds the campaign book's execution allowance).
/// 3. **No corrupt-accept.** Every recovered result matches a fresh
///    re-execution of its cell; damaged bytes are quarantined and
///    re-derived, never served.
/// 4. **No panic.** Every injected fault surfaces as a typed error.
/// 5. **No post-failed-fsync trust.** A file whose fsync failed is
///    abandoned, never renamed into place (`fsyncgate`).
pub fn check_disk_ledger(
    ledger: &DiskLedger,
    total_cells: usize,
    abandoned: usize,
) -> Vec<DiskViolation> {
    let mut violations = Vec::new();
    if ledger.completed + abandoned < total_cells {
        violations.push(DiskViolation::LostCell {
            completed: ledger.completed,
            abandoned,
            total: total_cells,
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
    violations
}

/// Every layer's book of one composed chaos schedule, plus the one
/// campaign book they share. Filled by
/// [`run_composed_chaos`](crate::run_composed_chaos), convicted by
/// `check_cross_ledger`.
///
/// A fact that every layer would otherwise copy lives here once: the
/// campaign's cells and how many completed or were abandoned (read
/// from the drained gateway's `ServiceOutcome`), the one execution
/// book and the two artifact digests. `executed_true` counts every
/// model execution across every incarnation and revival via the
/// conductor's counting wrapper; `exec_allowance` is the exact
/// re-execution licence the conductor charged loss by loss. The layer
/// books keep only the counters their own layer fills.
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
    /// Armed events per layer, in [`LAYERS`](crate::LAYERS) order
    /// (md, service, transport, disk, sched) — the pairwise
    /// interaction-coverage record of this schedule.
    pub layer_events: [usize; 5],
    /// Cells the canonical campaign comprises.
    pub total_cells: usize,
    /// Cells with a durable result when the gateway drained.
    pub completed: usize,
    /// Cells dead-lettered (forbidden under the sampled fault space).
    pub abandoned: usize,
    /// Ground truth: model executions observed by the conductor's
    /// counting wrapper, across every incarnation and revival.
    pub executed_true: usize,
    /// The re-execution licence: every cell of every admitted campaign
    /// once, plus each execution whose result a fault kept from
    /// becoming durable (charged by the conductor where the fault
    /// landed), plus each durable line a torn results journal
    /// destroyed.
    pub exec_allowance: usize,
    /// FNV-1a digest of the drained campaign artifact (`None` =
    /// missing/unreadable, which never compares equal).
    pub artifact_digest: Option<u64>,
    /// FNV-1a digest of the fault-free serial reference artifact.
    pub reference_digest: Option<u64>,
}

/// One violation of the composed chaos oracles: a single-layer
/// conviction lifted into its layer, a conviction of the campaign
/// book, or one of the interaction oracles only a composed schedule
/// can exercise.
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
    /// A cell vanished: the drained campaign holds fewer durable
    /// results than it has cells, or dead-lettered one (forbidden
    /// under the sampled fault space).
    LostCell {
        /// Cells with durable results.
        completed: usize,
        /// Cells dead-lettered.
        abandoned: usize,
        /// Cells the campaign comprises.
        total: usize,
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
            CrossViolation::LostCell {
                completed,
                abandoned,
                total,
            } => write!(
                f,
                "cross: lost cell: {completed} completed + {abandoned} abandoned of {total}"
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

/// Checks one [`CrossLedger`]: every single-layer oracle over its own
/// book, the interaction oracle, and the campaign book, once:
///
/// 1. **No lost cell.** Every cell ends with a durable result, and
///    none is dead-lettered (forbidden under the sampled space).
/// 2. **No duplicate execution.** Ground-truth executions never exceed
///    the licence — the only re-runs a fault schedule licenses are
///    cells whose result it actually destroyed (a worker killed
///    mid-cell, a stalled commit, a torn results-journal write).
///    Completed work behind a kill must be served from the journal
///    prefix or the cache, never re-simulated.
/// 3. **Byte-identical artifact.** The drained campaign's artifact
///    digests identically to the fault-free serial reference's:
///    recovery, the HTTP path, disk faults and thread interleavings
///    are all invisible in the output. `None` never matches — two
///    unreadable artifacts are not "identical".
pub(crate) fn check_cross_ledger(ledger: &CrossLedger) -> Vec<CrossViolation> {
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
        check_disk_ledger(&ledger.disk, ledger.total_cells, ledger.abandoned)
            .into_iter()
            .map(|violation| CrossViolation::Disk { violation }),
    );
    violations.extend(
        check_sched_ledger(&ledger.sched, ledger.total_cells)
            .into_iter()
            .map(|violation| CrossViolation::Sched { violation }),
    );

    // The interaction oracle: acked-then-lost across a disk fault and
    // a process kill. (With only the disk layer armed the disk book's
    // own AckedThenLost conviction stands alone.)
    let kills = ledger.service.kills + ledger.gateway.kills;
    if ledger.disk.acked_then_lost > 0 && ledger.layer_events[3] > 0 && kills > 0 {
        violations.push(CrossViolation::AckedThenLostAcrossLayers {
            lost: ledger.disk.acked_then_lost,
            disk_events: ledger.layer_events[3],
            kills,
        });
    }
    // The campaign book.
    if ledger.completed + ledger.abandoned < ledger.total_cells || ledger.abandoned > 0 {
        violations.push(CrossViolation::LostCell {
            completed: ledger.completed,
            abandoned: ledger.abandoned,
            total: ledger.total_cells,
        });
    }
    if ledger.executed_true > ledger.exec_allowance {
        violations.push(CrossViolation::DuplicateExecutionAcrossLayers {
            executed: ledger.executed_true,
            allowance: ledger.exec_allowance,
        });
    }
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

    /// A cross ledger whose every book and oracle holds: the fixture
    /// the tests below perturb.
    fn clean_cross_ledger() -> CrossLedger {
        let digest = Some(0xABCD_u64);
        CrossLedger {
            md: None,
            service: ServiceLedger {
                incarnations: 1,
                ..ServiceLedger::default()
            },
            gateway: GatewayLedger {
                conns_opened: 5,
                conns_closed: 5,
                requests: 5,
                incarnations: 1,
                ..GatewayLedger::default()
            },
            disk: DiskLedger {
                completed: 4,
                ..DiskLedger::default()
            },
            sched: SchedLedger {
                threads: 2,
                journal_lines: 4,
                pool_reusable: true,
                ..SchedLedger::default()
            },
            layer_events: [1, 1, 1, 1, 1],
            total_cells: 4,
            completed: 4,
            abandoned: 0,
            executed_true: 4,
            exec_allowance: 4,
            artifact_digest: digest,
            reference_digest: digest,
        }
    }

    /// Each layer armed alone, then all five.
    const MASKS: [[usize; 5]; 6] = [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [1, 1, 1, 1, 1],
    ];

    /// A fault planted in a clean ledger, and the one conviction it
    /// must render.
    type Plant = (fn(&mut CrossLedger), &'static str);

    fn rendered(ledger: &CrossLedger) -> Vec<String> {
        check_cross_ledger(ledger)
            .iter()
            .map(|v| v.to_string())
            .collect()
    }

    #[test]
    fn service_oracles_pass_a_clean_ledger_and_licensed_rework() {
        assert!(check_service_ledger(&ServiceLedger::default()).is_empty());
        // A kill-resume run: one execution lost mid-cell, two results
        // torn away — three licensed re-executions, rest preseeded.
        let service = ServiceLedger {
            destroyed_results: 2,
            journal_preseeded: 30,
            cache_hits: 2,
            reclaimed_leases: 1,
            incarnations: 3,
            kills: 2,
            stale_presented: 1,
            stale_rejected: 1,
            ..ServiceLedger::default()
        };
        assert!(check_service_ledger(&service).is_empty());
        let ledger = CrossLedger {
            service,
            executed_true: 7,
            exec_allowance: 4 + 1 + 2,
            ..clean_cross_ledger()
        };
        assert_eq!(rendered(&ledger), Vec::<String>::new());
    }

    #[test]
    fn service_oracles_catch_each_violation_class() {
        let stale = ServiceLedger {
            stale_presented: 2,
            stale_rejected: 1,
            ..ServiceLedger::default()
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
            threads: 4,
            pool_tasks: 16,
            journal_lines: 16,
            pool_reusable: true,
            ..SchedLedger::default()
        }
    }

    #[test]
    fn sched_oracles_pass_a_clean_ledger_and_recovered_panics() {
        assert!(check_sched_ledger(&clean_sched_ledger(), 16).is_empty());
        // A schedule whose injected panic was caught, its lease
        // reclaimed, the cell re-executed: no violation.
        let ledger = SchedLedger {
            panics_injected: 1,
            panics_caught: 1,
            panic_reclaimed: 3,
            pauses_taken: 2,
            ..clean_sched_ledger()
        };
        assert!(check_sched_ledger(&ledger, 16).is_empty());
    }

    #[test]
    fn sched_oracles_catch_each_violation_class() {
        for journal_lines in [15, 17] {
            let miscounted = SchedLedger {
                journal_lines,
                ..clean_sched_ledger()
            };
            assert_eq!(
                check_sched_ledger(&miscounted, 16),
                [SchedViolation::DoubleCommit {
                    journal_lines,
                    total: 16
                }]
            );
        }
        let escaped = SchedLedger {
            panics_injected: 1,
            ..clean_sched_ledger()
        };
        assert!(matches!(
            check_sched_ledger(&escaped, 16)[..],
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
            check_sched_ledger(&unreclaimed, 16)[..],
            [SchedViolation::PanicNotContained { reclaimed: 0, .. }]
        ));
        let poisoned = SchedLedger {
            pool_reusable: false,
            ..clean_sched_ledger()
        };
        assert_eq!(
            check_sched_ledger(&poisoned, 16),
            [SchedViolation::PoolPoisoned]
        );
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
            let ledger = CrossLedger {
                artifact_digest: artifact,
                reference_digest: reference,
                ..clean_cross_ledger()
            };
            assert!(
                matches!(
                    check_cross_ledger(&ledger)[..],
                    [CrossViolation::DrainedArtifactDiverged { .. }]
                ),
                "artifact {artifact:?} vs reference {reference:?} must violate"
            );
        }
        let v = CrossViolation::DrainedArtifactDiverged {
            artifact: None,
            reference: Some(0xfeed),
        };
        assert!(v.to_string().contains("<unreadable>"));
    }

    fn clean_gateway_ledger() -> GatewayLedger {
        GatewayLedger {
            conns_opened: 9,
            conns_closed: 9,
            requests: 3,
            rejected: 4,
            shed: 2,
            incarnations: 1,
            ..GatewayLedger::default()
        }
    }

    #[test]
    fn gateway_oracles_pass_clean_and_licensed_kill_resume_ledgers() {
        assert!(check_gateway_ledger(&clean_gateway_ledger()).is_empty());
        // A kill-resume run: one execution lost with the process, one
        // licensed re-execution, a second incarnation.
        let gateway = GatewayLedger {
            kills: 1,
            incarnations: 2,
            ..clean_gateway_ledger()
        };
        assert!(check_gateway_ledger(&gateway).is_empty());
    }

    #[test]
    fn gateway_oracles_catch_each_violation_class() {
        let panicked = GatewayLedger {
            panics: 1,
            ..clean_gateway_ledger()
        };
        assert_eq!(
            check_gateway_ledger(&panicked),
            [GatewayViolation::Panic { count: 1 }]
        );
        let leak = GatewayLedger {
            conns_closed: 8,
            ..clean_gateway_ledger()
        };
        assert_eq!(
            check_gateway_ledger(&leak),
            [GatewayViolation::FdLeak {
                opened: 9,
                closed: 8
            }]
        );
        let overrun = GatewayLedger {
            deadline_overruns: 2,
            ..clean_gateway_ledger()
        };
        assert_eq!(
            check_gateway_ledger(&overrun),
            [GatewayViolation::DeadlineOverrun { count: 2 }]
        );
    }

    #[test]
    fn gateway_ledger_and_violations_roundtrip_json() {
        let ledger = GatewayLedger {
            kills: 1,
            incarnations: 2,
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
            GatewayViolation::DeadlineOverrun { count: 3 },
        ];
        let parsed: Vec<GatewayViolation> =
            serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(parsed, v);
        assert!(v[0].to_string().contains("fd leak"));
    }

    #[test]
    fn digests_above_i64_max_round_trip_exactly_and_old_rounded_lines_still_load() {
        let ledger = CrossLedger {
            artifact_digest: Some(11195938974252812389),
            reference_digest: Some(u64::MAX),
            ..clean_cross_ledger()
        };
        let json = serde_json::to_string(&ledger).unwrap();
        assert!(
            json.contains("\"artifact_digest\":11195938974252812389"),
            "{json}"
        );
        assert_eq!(serde_json::from_str::<CrossLedger>(&json).unwrap(), ledger);
        // What the writer printed before `u64` was exact: the digest
        // rounded through `f64`. Such a journal line must still resume.
        let old = json.replace("11195938974252812389", "11195938974252812000");
        let parsed: CrossLedger = serde_json::from_str(&old).unwrap();
        assert_eq!(parsed.artifact_digest, Some(11195938974252812000));
    }

    #[test]
    fn service_ledger_and_violations_roundtrip_json() {
        let ledger = ServiceLedger {
            duplicate_results: 1,
            dropped_lines: 3,
            cache_corruption_caught: 1,
            ..ServiceLedger::default()
        };
        let parsed: ServiceLedger =
            serde_json::from_str(&serde_json::to_string(&ledger).unwrap()).unwrap();
        assert_eq!(parsed, ledger);
        let v = vec![
            CrossViolation::Service {
                violation: ServiceViolation::StaleLeaseAccepted {
                    presented: 2,
                    rejected: 1,
                },
            },
            CrossViolation::LostCell {
                completed: 1,
                abandoned: 0,
                total: 2,
            },
            CrossViolation::DrainedArtifactDiverged {
                artifact: Some(1),
                reference: Some(2),
            },
        ];
        let parsed: Vec<CrossViolation> =
            serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(
            v[0].to_string(),
            "service: stale lease accepted: 1/2 rejected"
        );
        assert_eq!(
            v[1].to_string(),
            "cross: lost cell: 1 completed + 0 abandoned of 2"
        );
    }

    #[test]
    fn a_planted_disk_artifact_mismatch_is_convicted() {
        // A ledger whose digests disagree must always be convicted:
        // the oracle itself, not a driver, is under test here. The
        // artifact is the campaign's, so a disk-only schedule
        // convicts it once, in the campaign book.
        let ledger = CrossLedger {
            layer_events: [0, 0, 0, 1, 0],
            artifact_digest: Some(1),
            reference_digest: Some(2),
            ..clean_cross_ledger()
        };
        assert_eq!(
            rendered(&ledger),
            ["cross: drained artifact 0000000000000001 != serial reference 0000000000000002"]
        );
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
        for mask in MASKS {
            let mut ledger = clean_cross_ledger();
            ledger.layer_events = mask;
            ledger.service.kills = 1;
            ledger.service.destroyed_results = 1;
            // A kill stranded one execution, a tear destroyed one
            // line: six executions of four cells are licensed.
            ledger.executed_true = 6;
            ledger.exec_allowance = 4 + 1 + 1;
            assert_eq!(rendered(&ledger), Vec::<String>::new(), "mask {mask:?}");
            // The seventh is not, and the one execution book says so
            // once.
            ledger.executed_true = 7;
            assert_eq!(
                rendered(&ledger),
                ["cross: duplicate execution: 7 ran, 6 licensed across layers"],
                "mask {mask:?}: one fact, one conviction"
            );
            // A flood campaign's cell is its own first execution, not
            // a re-execution of the canonical campaign's.
            ledger.exec_allowance += 1;
            assert_eq!(rendered(&ledger), Vec::<String>::new(), "mask {mask:?}");
            // The scheduler's own oracle still lifts into the union.
            ledger.sched.journal_lines = 6;
            assert_eq!(
                rendered(&ledger),
                ["sched: commit miscount: 6 artifact lines for 4 cells"],
                "mask {mask:?}"
            );
        }
    }

    /// Every violation class convicts exactly once, whichever layers
    /// are armed: the campaign-level classes (lost cell, duplicate
    /// execution, a mismatched or unreadable artifact) in the campaign
    /// book, every other class in the one book its layer fills.
    #[test]
    fn every_violation_class_convicts_once_under_every_mask() {
        let cases: &[Plant] = &[
            (
                |l| l.completed = 3,
                "cross: lost cell: 3 completed + 0 abandoned of 4",
            ),
            (
                |l| (l.completed, l.abandoned) = (3, 1),
                "cross: lost cell: 3 completed + 1 abandoned of 4",
            ),
            (
                |l| l.executed_true = 5,
                "cross: duplicate execution: 5 ran, 4 licensed across layers",
            ),
            (
                |l| l.artifact_digest = Some(0xdead),
                "cross: drained artifact 000000000000dead != serial reference 000000000000abcd",
            ),
            (
                |l| l.artifact_digest = None,
                "cross: drained artifact <unreadable> != serial reference 000000000000abcd",
            ),
            (
                |l| (l.artifact_digest, l.reference_digest) = (None, None),
                "cross: drained artifact <unreadable> != serial reference <unreadable>",
            ),
            (
                |l| l.service.stale_presented = 1,
                "service: stale lease accepted: 0/1 rejected",
            ),
            (
                |l| l.gateway.panics = 1,
                "transport: handler panicked 1 time(s)",
            ),
            (
                |l| l.gateway.conns_closed = 4,
                "transport: fd leak: 5 opened, 4 closed",
            ),
            (
                |l| l.gateway.deadline_overruns = 2,
                "transport: deadline overrun: 2 op(s) past the deadline",
            ),
            // The post-mortem reopen recovered a cell short while the
            // drained instance reads complete: the disk's own oracle.
            (
                |l| l.disk.completed = 3,
                "disk: lost cell: 3 completed + 0 abandoned of 4",
            ),
            (
                |l| l.disk.acked_then_lost = 1,
                "disk: acked then lost: 1 durable results vanished",
            ),
            (
                |l| l.disk.corrupt_accepted = 1,
                "disk: corrupt accept: 1 recovered results differ from re-execution",
            ),
            (
                |l| l.disk.panics = 1,
                "disk: panic under disk fault: 1 caught",
            ),
            (
                |l| l.disk.disk.poisoned_publishes = 1,
                "disk: post-failed-fsync trust: 1 poisoned files published",
            ),
            // A wrong artifact line count: the sched book's own oracle.
            (
                |l| l.sched.journal_lines = 5,
                "sched: commit miscount: 5 artifact lines for 4 cells",
            ),
            (
                |l| l.sched.panics_injected = 1,
                "sched: panic not contained: 0/1 caught, 0 leases reclaimed",
            ),
            (
                |l| (l.sched.panics_injected, l.sched.panics_caught) = (1, 1),
                "sched: panic not contained: 1/1 caught, 0 leases reclaimed",
            ),
            (
                |l| l.sched.pool_reusable = false,
                "sched: pool poisoned after contained panic",
            ),
        ];
        for mask in MASKS {
            for (plant, expected) in cases {
                let mut ledger = clean_cross_ledger();
                ledger.layer_events = mask;
                plant(&mut ledger);
                assert_eq!(rendered(&ledger), [*expected], "mask {mask:?}");
            }
        }
    }
}

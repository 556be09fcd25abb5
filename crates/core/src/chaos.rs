//! Chaos harness: invariant oracles over fault-tolerant runs and a
//! delta-debugging minimizer for failing fault schedules.
//!
//! A [`ChaosHarness`] owns one workload (system + config) and its
//! fault-free **golden** run. [`ChaosHarness::check`] then executes an
//! arbitrary [`FaultPlan`] three ways — a full run, a truncated run,
//! and a resumed-from-disk continuation — and evaluates five oracles:
//!
//! 1. **Termination** — every run returns (`Err(SimError::Stalled)`
//!    from the engine's stall watchdog counts as a violation, not a
//!    hang).
//! 2. **Completion / golden match** — a survivable run finishes all
//!    steps and its final state matches the golden trajectory within a
//!    tolerance derived from the plan: bit-identical when nothing
//!    perturbed the physics, `CRASH_RECOVERY_TOLERANCE` when a
//!    communicator shrink reassociated the floating-point reductions,
//!    `BENIGN_SDC_TOLERANCE` when a benign bit flip fired.
//! 3. **Resume equivalence** — a run interrupted at the halfway point
//!    and resumed from its durable checkpoints ends within the same
//!    tolerance of the uninterrupted run.
//! 4. **Recovery accounting** — recovery time is positive exactly when
//!    recovery episodes happened, and stays within a budget scaled by
//!    the plan's own slowdown factors.
//! 5. **SDC detected-or-benign** — after a silent bit flip, either
//!    something detected it (the numerical watchdog or an ABFT
//!    checksum) or the final deviation is below the benign bound.
//! 6. **ABFT detection** — with the ABFT checksums armed (the harness
//!    default), *every* fired bit flip must raise at least one
//!    [`Corruption`](cpc_md::abft::Corruption) verdict — including the
//!    gray zone between benign and watchdog-detectable that
//!    [`FaultSpace`](cpc_cluster::FaultSpace) now samples. Zero
//!    detections after a fired flip is an ABFT escape.
//!
//! On violation, [`minimize`] shrinks the schedule with the classic
//! ddmin algorithm (drop event subsets, then halve scalar severities)
//! to a minimal plan that still fails, and [`Reproducer`] serializes
//! it — plus the violations it provokes — as a replayable JSON
//! artifact.
//!
//! This is the MD layer only. The host-side layers — job service, HTTP
//! transport, disk, scheduler — their ledgers and oracles, and the
//! conductor that composes all five live in `cpc-chaos`, which lifts a
//! [`ScheduleReport`] into its cross-layer book.
//!
//! Everything here is deterministic: the harness draws no randomness
//! and stamps no wall-clock time, so the same plan yields the same
//! verdict byte-for-byte on every machine.

use crate::ckpt::DurableConfig;
use crate::driver::MdConfig;
use crate::recover::{run_parallel_md_faulty, AbftConfig, FaultConfig, FtReport, RecoveryConfig};
use cpc_cluster::{FaultPlan, LinkDegradation, RankCrash, SdcFault, StorageFault, Straggler};
use cpc_md::System;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Maximum final-state deviation (max over atoms of the position /
/// velocity error norm) attributable to one or more *benign* SDC bit
/// flips — low-mantissa corruptions the watchdog is not expected to
/// see. Relative errors of ~6e-11 per flip grow only polynomially over
/// the short chaotic workloads, so anything past this bound means a
/// non-benign corruption went undetected.
pub(crate) const BENIGN_SDC_TOLERANCE: f64 = 1e-7;

/// Maximum final-state deviation attributable to crash recovery: after
/// a communicator shrink the force reductions reassociate, so re-run
/// steps differ from the golden run by floating-point noise (observed
/// ~1e-7 on the reference workloads; the bound leaves two orders of
/// headroom without masking real corruption, which shows up orders of
/// magnitude larger).
pub(crate) const CRASH_RECOVERY_TOLERANCE: f64 = 1e-5;

/// Maximum final-state deviation attributable to degraded-mode
/// rebalancing: moving the pair-list cuts reassociates the per-rank
/// force partial sums exactly like a communicator shrink does, so the
/// bound matches [`CRASH_RECOVERY_TOLERANCE`] in magnitude.
pub(crate) const REBALANCE_TOLERANCE: f64 = 1e-5;

/// The straggler-mitigation oracle's bar: with a persistent straggler
/// active from step 0, the adaptive run's wall-time overhead must stay
/// below this fraction of the static (rebalancing-disabled) overhead.
pub const ADAPTIVE_OVERHEAD_RATIO: f64 = 0.6;

/// Minimum static overhead for the ratio check to apply. Comm-bound
/// workloads hide a slow CPU entirely behind the collective incasts
/// (static overhead of a 2x straggler on the tiny chaos water box is
/// ~0.3%), and no re-cut of the compute can reclaim what the network
/// is spending — demanding a ratio there would only measure noise.
const MITIGATION_MIN_STATIC_OVERHEAD: f64 = 0.05;

/// Fixed per-episode recovery allowance (virtual seconds) on top of
/// the golden-wall-scaled share: membership agreement is latency-bound
/// and does not vanish for tiny workloads.
const RECOVERY_EPISODE_FLOOR: f64 = 5e-3;

/// One invariant violation observed while checking a fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// The plan failed validation against the cluster: nothing ran.
    InvalidPlan {
        /// The validation error.
        error: String,
    },
    /// A run errored out instead of finishing — including the engine's
    /// stall watchdog firing on a would-be infinite hang.
    NonTermination {
        /// Which run: `full`, `truncated`, or `resumed`.
        stage: String,
        /// The `SimError` rendered as text.
        error: String,
    },
    /// A run terminated but did not complete all steps (diverged,
    /// unrecoverable restore, or survivors lost the trajectory).
    Incomplete {
        /// Which run: `full`, `truncated`, or `resumed`.
        stage: String,
        /// Whether the driver classified the run as diverged.
        diverged: bool,
        /// The restore failure, when resume found only corrupt state.
        restore_failure: Option<String>,
    },
    /// A rank crashed that the plan never scheduled to crash.
    UnplannedCrash {
        /// Which run: `full`, `truncated`, or `resumed`.
        stage: String,
        /// The offending engine ranks.
        ranks: Vec<usize>,
    },
    /// The recovered final state deviates from the golden run by more
    /// than the plan's tolerance.
    StateDivergence {
        /// Max over atoms of the position/velocity error norm.
        max_deviation: f64,
        /// The tolerance the plan earned (see module docs).
        tolerance: f64,
    },
    /// An SDC flip fired, nothing detected it, and the final state
    /// deviates beyond the benign bound: the corruption was silent and
    /// harmful.
    SilentCorruption {
        /// Max over atoms of the position/velocity error norm.
        max_deviation: f64,
        /// The benign bound that was exceeded.
        tolerance: f64,
    },
    /// Recovery bookkeeping is inconsistent: episodes without booked
    /// recovery time, or recovery time without episodes.
    RecoveryAccounting {
        /// Recovery episodes (crash recoveries + watchdog rollbacks +
        /// graceful evictions).
        episodes: usize,
        /// Virtual seconds booked under the recovery phase.
        recovery_time: f64,
    },
    /// Recovery time exceeded the budget the plan earns from its own
    /// episode count and slowdown factors.
    RecoveryBudget {
        /// Virtual seconds booked under the recovery phase.
        recovery_time: f64,
        /// The budget that was exceeded.
        budget: f64,
        /// Recovery episodes the budget was scaled by.
        episodes: usize,
    },
    /// A straggler-only plan was mishandled by the degradation ladder:
    /// the run rolled back (stragglers must be absorbed by rebalancing
    /// or eviction, never by rollback), or adaptive rebalancing failed
    /// to reclaim enough of the static-decomposition overhead.
    StragglerMitigation {
        /// Rollback episodes (crash recoveries + watchdog trips) the
        /// straggler provoked; must be zero.
        rollbacks: usize,
        /// Wall-time overhead of the adaptive run vs the golden run.
        adaptive_overhead: f64,
        /// Wall-time overhead of the rebalancing-disabled reference.
        static_overhead: f64,
        /// The ratio bound the adaptive overhead had to beat.
        ratio_bound: f64,
    },
    /// ABFT was armed, one or more SDC flips fired, and not a single
    /// checksum verdict was raised: a corruption escaped the ABFT
    /// layer entirely (the regression this oracle exists to trap —
    /// with a correct ABFT implementation it never fires).
    UndetectedSdc {
        /// SDC flips that fired in the full run.
        fired: usize,
        /// ABFT detections in the full run (zero, by construction).
        detected: usize,
    },
    /// The resumed run's final state deviates from the uninterrupted
    /// run beyond the plan's tolerance: durable checkpoints do not
    /// reproduce the trajectory.
    ResumeDivergence {
        /// Max over atoms of the position/velocity error norm.
        max_deviation: f64,
        /// The tolerance the plan earned.
        tolerance: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::InvalidPlan { error } => write!(f, "invalid plan: {error}"),
            Violation::NonTermination { stage, error } => {
                write!(f, "{stage} run did not terminate cleanly: {error}")
            }
            Violation::Incomplete {
                stage,
                diverged,
                restore_failure,
            } => {
                write!(f, "{stage} run incomplete (diverged: {diverged}")?;
                if let Some(r) = restore_failure {
                    write!(f, ", restore failure: {r}")?;
                }
                write!(f, ")")
            }
            Violation::UnplannedCrash { stage, ranks } => {
                write!(f, "{stage} run: unplanned crash of ranks {ranks:?}")
            }
            Violation::StateDivergence {
                max_deviation,
                tolerance,
            } => write!(
                f,
                "final state deviates from golden by {max_deviation:e} (tolerance {tolerance:e})"
            ),
            Violation::SilentCorruption {
                max_deviation,
                tolerance,
            } => write!(
                f,
                "undetected SDC: deviation {max_deviation:e} exceeds benign bound {tolerance:e}"
            ),
            Violation::RecoveryAccounting {
                episodes,
                recovery_time,
            } => write!(
                f,
                "recovery accounting inconsistent: {episodes} episodes, {recovery_time:e} s booked"
            ),
            Violation::RecoveryBudget {
                recovery_time,
                budget,
                episodes,
            } => write!(
                f,
                "recovery time {recovery_time:e} s exceeds budget {budget:e} s ({episodes} episodes)"
            ),
            Violation::StragglerMitigation {
                rollbacks,
                adaptive_overhead,
                static_overhead,
                ratio_bound,
            } => {
                if *rollbacks > 0 {
                    write!(f, "straggler provoked {rollbacks} rollback episode(s)")
                } else {
                    write!(
                        f,
                        "adaptive overhead {adaptive_overhead:.4} not below {ratio_bound} x static overhead {static_overhead:.4}"
                    )
                }
            }
            Violation::UndetectedSdc { fired, detected } => write!(
                f,
                "ABFT escape: {fired} SDC flip(s) fired, {detected} detected"
            ),
            Violation::ResumeDivergence {
                max_deviation,
                tolerance,
            } => write!(
                f,
                "resumed run deviates from uninterrupted by {max_deviation:e} (tolerance {tolerance:e})"
            ),
        }
    }
}

/// The verdict [`ChaosHarness::check`] returns for one schedule.
/// Fully deterministic for a given workload and plan, and JSON-stable
/// (non-finite floats are clamped), so campaign journals are
/// byte-identical across reruns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Every oracle violation observed (empty means the schedule
    /// passed).
    pub violations: Vec<Violation>,
    /// Fault events in the plan (see [`flatten`]).
    pub events: usize,
    /// Ranks that crashed in the full run.
    pub crashed: usize,
    /// Crash-recovery episodes in the full run.
    pub recoveries: usize,
    /// Numerical-watchdog rollbacks in the full run.
    pub watchdog_trips: usize,
    /// Straggler-driven re-cuts of the work partition in the full run.
    pub rebalances: usize,
    /// Detector-driven graceful evictions in the full run.
    pub evictions: usize,
    /// SDC events that fired in the full run.
    pub sdc_events: usize,
    /// ABFT corruption verdicts raised in the full run (0 when the
    /// harness runs with ABFT disarmed).
    pub abft_detections: usize,
    /// ABFT targeted repairs/recomputes in the full run.
    pub abft_recomputes: usize,
    /// Final-state deviation of the full run from the golden run.
    pub max_deviation: f64,
    /// Final-state deviation of the resumed run from the full run.
    pub resume_deviation: f64,
    /// Virtual wall time of the full run, seconds.
    pub wall_time: f64,
}

impl ScheduleReport {
    /// True when every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One atomic fault event of a flattened plan — the unit the
/// delta-debugging minimizer adds and removes.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// Baseline message loss.
    Loss {
        /// The loss probability.
        loss: f64,
    },
    /// A link-degradation window.
    Degradation {
        /// The window.
        degradation: LinkDegradation,
    },
    /// A straggler node.
    Straggler {
        /// The straggler.
        straggler: Straggler,
    },
    /// A rank crash.
    Crash {
        /// The crash.
        crash: RankCrash,
    },
    /// A storage fault against a durable checkpoint write.
    Storage {
        /// The fault.
        storage: StorageFault,
    },
    /// A silent-data-corruption bit flip.
    Sdc {
        /// The flip.
        sdc: SdcFault,
    },
}

/// Flattens a plan into its atomic fault events (the plan-wide
/// `watchdog_timeout` / `max_retransmits` knobs are carried separately
/// by `rebuild`).
pub fn flatten(plan: &FaultPlan) -> Vec<ChaosEvent> {
    let mut events = Vec::new();
    if plan.loss > 0.0 {
        events.push(ChaosEvent::Loss { loss: plan.loss });
    }
    for d in &plan.degradations {
        events.push(ChaosEvent::Degradation { degradation: *d });
    }
    for s in &plan.stragglers {
        events.push(ChaosEvent::Straggler { straggler: *s });
    }
    for c in &plan.crashes {
        events.push(ChaosEvent::Crash { crash: *c });
    }
    for s in &plan.storage {
        events.push(ChaosEvent::Storage { storage: *s });
    }
    for s in &plan.sdc {
        events.push(ChaosEvent::Sdc { sdc: *s });
    }
    events
}

/// Rebuilds a plan from a subset of events, inheriting the plan-wide
/// knobs from `template`.
pub(crate) fn rebuild(events: &[ChaosEvent], template: &FaultPlan) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.watchdog_timeout = template.watchdog_timeout;
    plan.max_retransmits = template.max_retransmits;
    for e in events {
        match e {
            ChaosEvent::Loss { loss } => plan.loss = *loss,
            ChaosEvent::Degradation { degradation } => plan.degradations.push(*degradation),
            ChaosEvent::Straggler { straggler } => plan.stragglers.push(*straggler),
            ChaosEvent::Crash { crash } => plan.crashes.push(*crash),
            ChaosEvent::Storage { storage } => plan.storage.push(*storage),
            ChaosEvent::Sdc { sdc } => plan.sdc.push(*sdc),
        }
    }
    plan
}

/// A softened copy of an event (severity halved toward harmless), or
/// `None` when the event has no meaningful scalar severity left.
fn soften(event: &ChaosEvent) -> Option<ChaosEvent> {
    match event {
        ChaosEvent::Loss { loss } if *loss > 2e-3 => Some(ChaosEvent::Loss { loss: loss / 2.0 }),
        ChaosEvent::Degradation { degradation } => {
            let softer = LinkDegradation {
                extra_loss: degradation.extra_loss / 2.0,
                wire_factor: 1.0 + (degradation.wire_factor - 1.0) / 2.0,
                ..*degradation
            };
            (degradation.extra_loss > 2e-3 || degradation.wire_factor - 1.0 > 1e-2).then_some(
                ChaosEvent::Degradation {
                    degradation: softer,
                },
            )
        }
        ChaosEvent::Straggler { straggler } if straggler.slowdown - 1.0 > 1e-2 => {
            Some(ChaosEvent::Straggler {
                straggler: Straggler {
                    slowdown: 1.0 + (straggler.slowdown - 1.0) / 2.0,
                    ..*straggler
                },
            })
        }
        _ => None,
    }
}

/// The classic ddmin loop over any event list: remove complements of
/// progressively finer chunks, keeping any reduced list for which
/// `fails` still returns true, until single-event removal no longer
/// helps. Never probes the empty list. Deterministic; `probes` counts
/// the `fails` calls spent. The one delta-debugging loop in the
/// workspace: [`minimize`] runs it over a flattened [`FaultPlan`], the
/// cross-layer minimizer (`cpc-chaos`) over each layer's fault list.
pub fn ddmin<E: Clone>(
    mut events: Vec<E>,
    mut fails: impl FnMut(&[E]) -> bool,
    probes: &mut usize,
) -> Vec<E> {
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let mut reduced = false;
        for i in 0..n {
            let (lo, hi) = (i * chunk, ((i + 1) * chunk).min(events.len()));
            if lo >= hi {
                continue;
            }
            let complement: Vec<E> = events[..lo].iter().chain(&events[hi..]).cloned().collect();
            if complement.is_empty() {
                continue;
            }
            *probes += 1;
            if fails(&complement) {
                events = complement;
                reduced = true;
                break;
            }
        }
        if reduced {
            n = n.saturating_sub(1).max(2);
        } else {
            if n >= events.len() {
                break;
            }
            n = (n * 2).min(events.len());
        }
    }
    events
}

/// Delta-debugging minimization: given a plan whose schedule makes
/// `fails` return true, returns a (locally) minimal plan that still
/// fails, plus the number of `fails` probes spent.
///
/// Phase one is [`ddmin`] over the flattened event list. Phase two
/// repeatedly halves scalar severities (loss probability, degradation
/// factors, straggler slowdown) while the failure persists. Both
/// phases are deterministic.
pub fn minimize<F>(plan: &FaultPlan, mut fails: F) -> (FaultPlan, usize)
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut probes = 0usize;

    // Phase 1: ddmin complement removal. A single surviving event
    // might still be removable entirely (the failure could be
    // plan-independent); ddmin never probes the empty schedule — an
    // empty plan failing means the workload itself is broken, which
    // check() reports on its own.
    let mut events = ddmin(
        flatten(plan),
        |kept| fails(&rebuild(kept, plan)),
        &mut probes,
    );

    // Phase 2: halve scalar severities to a fixpoint (capped).
    for _ in 0..6 {
        let mut changed = false;
        for i in 0..events.len() {
            if let Some(softer) = soften(&events[i]) {
                let mut candidate = events.clone();
                candidate[i] = softer;
                probes += 1;
                if fails(&rebuild(&candidate, plan)) {
                    events = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    (rebuild(&events, plan), probes)
}

/// A minimized failing schedule, serialized as a replayable artifact:
/// feed [`Reproducer::plan`] back to [`ChaosHarness::check`] (same
/// workload shape) and the same violations fire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// Campaign seed the failing schedule was sampled with (0 for
    /// hand-planted schedules).
    pub seed: u64,
    /// Campaign index of the failing schedule.
    pub index: u64,
    /// Cluster ranks of the workload.
    pub ranks: usize,
    /// Cluster nodes of the workload.
    pub nodes: usize,
    /// MD steps of the workload.
    pub steps: usize,
    /// Whether the ABFT checksums were armed in the harness that
    /// produced this reproducer — replay must match, because an armed
    /// engine repairs the very corruptions a disarmed-engine
    /// reproducer exists to provoke.
    pub abft: bool,
    /// Fault events remaining after minimization.
    pub events: usize,
    /// Oracle probes the minimizer spent.
    pub probes: usize,
    /// The violations the minimized plan provokes.
    pub violations: Vec<Violation>,
    /// The minimized plan itself.
    pub plan: FaultPlan,
}

impl Reproducer {
    /// Serializes the reproducer as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reproducer serializes")
    }

    /// Parses a reproducer back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Clamps non-finite floats so every journaled verdict survives a JSON
/// round trip (the JSON layer has no NaN/inf).
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MAX
    }
}

/// Max over atoms of the error norm between two state arrays; `MAX`
/// when the lengths differ (a lost trajectory is maximal deviation).
fn state_deviation(a: &FtReport, b: &FtReport) -> f64 {
    if a.report.final_positions.len() != b.report.final_positions.len() {
        return f64::MAX;
    }
    let pos = a
        .report
        .final_positions
        .iter()
        .zip(&b.report.final_positions)
        .map(|(x, y)| (*x - *y).norm())
        .fold(0.0f64, f64::max);
    let vel = a
        .report
        .final_velocities
        .iter()
        .zip(&b.report.final_velocities)
        .map(|(x, y)| (*x - *y).norm())
        .fold(0.0f64, f64::max);
    finite(pos.max(vel))
}

/// One workload plus its golden run: the fixture every oracle is
/// evaluated against.
pub struct ChaosHarness {
    system: System,
    cfg: MdConfig,
    scratch: PathBuf,
    recovery: RecoveryConfig,
    abft: AbftConfig,
    golden: FtReport,
}

impl ChaosHarness {
    /// Builds the harness by executing the fault-free golden run of
    /// `(system, cfg)`. `scratch` is a directory for the durable
    /// checkpoints of chaotic runs; it is created (and its per-run
    /// subdirectories wiped) as needed. The ABFT checksums are armed:
    /// the harness checks the engine as it ships, and the
    /// [`Violation::UndetectedSdc`] oracle needs them live.
    pub fn new(
        system: System,
        cfg: MdConfig,
        scratch: impl Into<PathBuf>,
    ) -> Result<Self, cpc_cluster::SimError> {
        Self::with_recovery(system, cfg, scratch, RecoveryConfig::default())
    }

    /// [`ChaosHarness::new`] with an explicit adaptive-recovery
    /// configuration. The same configuration drives the golden run and
    /// every chaotic run, so heartbeat cadence and detector traffic
    /// never show up as a timing difference between them.
    pub fn with_recovery(
        system: System,
        cfg: MdConfig,
        scratch: impl Into<PathBuf>,
        recovery: RecoveryConfig,
    ) -> Result<Self, cpc_cluster::SimError> {
        Self::with_options(system, cfg, scratch, recovery, AbftConfig::armed())
    }

    /// [`ChaosHarness::with_recovery`] with an explicit ABFT
    /// configuration. Pass [`AbftConfig::default`] (disarmed) to test
    /// the pre-ABFT engine — the configuration that keeps the
    /// gray-zone planted bugs silent so the `SilentCorruption` oracle
    /// and the minimizer can be validated against them.
    pub fn with_options(
        system: System,
        cfg: MdConfig,
        scratch: impl Into<PathBuf>,
        recovery: RecoveryConfig,
        abft: AbftConfig,
    ) -> Result<Self, cpc_cluster::SimError> {
        let fault = FaultConfig::default()
            .with_recovery(recovery)
            .with_abft(abft);
        let golden = run_parallel_md_faulty(&system, &cfg, &fault)?;
        Ok(ChaosHarness {
            system,
            cfg,
            scratch: scratch.into(),
            recovery,
            abft,
            golden,
        })
    }

    /// The golden (fault-free) run.
    pub fn golden(&self) -> &FtReport {
        &self.golden
    }

    /// Virtual wall time of the golden run, seconds — the horizon a
    /// [`FaultSpace`](cpc_cluster::FaultSpace) should be built with.
    pub fn golden_wall(&self) -> f64 {
        self.golden.report.wall_time
    }

    /// The workload configuration under test.
    pub fn cfg(&self) -> &MdConfig {
        &self.cfg
    }

    fn run_dir(&self, tag: &str) -> PathBuf {
        let dir = self.scratch.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The final-state tolerance a plan earns against the golden run:
    /// zero unless something reassociated the arithmetic (crash
    /// recovery, a rebalancing re-cut, a graceful eviction) or an SDC
    /// flip perturbed the state.
    fn tolerance_vs_golden(&self, ft: &FtReport) -> f64 {
        let mut tol = 0.0;
        if !ft.crashed_ranks.is_empty() {
            tol += CRASH_RECOVERY_TOLERANCE;
        }
        if ft.evictions > 0 {
            tol += CRASH_RECOVERY_TOLERANCE;
        }
        if ft.rebalances > 0 {
            tol += REBALANCE_TOLERANCE;
        }
        if ft.sdc_events > 0 {
            tol += BENIGN_SDC_TOLERANCE;
        }
        tol
    }

    /// True when `plan` perturbs only CPU speed: no message loss, link
    /// degradations, crashes, storage faults, or bit flips. This is
    /// the regime the degradation ladder must absorb without ever
    /// rolling back.
    fn straggler_only(plan: &FaultPlan) -> bool {
        plan.loss == 0.0
            && plan.degradations.is_empty()
            && plan.crashes.is_empty()
            && plan.storage.is_empty()
            && plan.sdc.is_empty()
            && !plan.stragglers.is_empty()
    }

    /// Recovery-time budget for `episodes` episodes under `plan`: each
    /// episode may cost a share of the golden wall (rollback copies,
    /// membership agreement, engine rebuild) inflated by the plan's own
    /// slowdown factors, plus a latency floor.
    fn recovery_budget(&self, plan: &FaultPlan, episodes: usize) -> f64 {
        let straggle = plan
            .stragglers
            .iter()
            .map(|s| s.slowdown)
            .fold(1.0f64, f64::max);
        let wire = plan
            .degradations
            .iter()
            .map(|d| d.wire_factor)
            .fold(1.0f64, f64::max);
        episodes as f64 * straggle * wire * (0.5 * self.golden_wall() + RECOVERY_EPISODE_FLOOR)
    }

    /// Checks every plan-crashed rank actually scheduled to crash.
    fn unplanned_crash(stage: &str, plan: &FaultPlan, ft: &FtReport) -> Option<Violation> {
        let unplanned: Vec<usize> = ft
            .crashed_ranks
            .iter()
            .copied()
            .filter(|r| !plan.crashes.iter().any(|c| c.rank == *r))
            .collect();
        (!unplanned.is_empty()).then(|| Violation::UnplannedCrash {
            stage: stage.to_string(),
            ranks: unplanned,
        })
    }

    /// Evaluates every oracle against `plan`. Deterministic: the same
    /// plan always yields the same report.
    pub fn check(&self, plan: &FaultPlan) -> ScheduleReport {
        let events = flatten(plan).len();
        let mut report = ScheduleReport {
            violations: Vec::new(),
            events,
            crashed: 0,
            recoveries: 0,
            watchdog_trips: 0,
            rebalances: 0,
            evictions: 0,
            sdc_events: 0,
            abft_detections: 0,
            abft_recomputes: 0,
            max_deviation: 0.0,
            resume_deviation: 0.0,
            wall_time: 0.0,
        };

        if let Err(e) = plan.validate(self.cfg.cluster.ranks, self.cfg.cluster.nodes()) {
            report.violations.push(Violation::InvalidPlan { error: e });
            return report;
        }

        // --- Full run, durable checkpoints armed. ---
        let fault = FaultConfig::new(plan.clone())
            .with_recovery(self.recovery)
            .with_abft(self.abft)
            .with_durable(DurableConfig::new(self.run_dir("full")).with_keep(16));
        let full = match run_parallel_md_faulty(&self.system, &self.cfg, &fault) {
            Ok(ft) => ft,
            Err(e) => {
                report.violations.push(Violation::NonTermination {
                    stage: "full".into(),
                    error: e.to_string(),
                });
                return report;
            }
        };
        report.crashed = full.crashed_ranks.len();
        report.recoveries = full.recoveries;
        report.watchdog_trips = full.watchdog_trips;
        report.rebalances = full.rebalances;
        report.evictions = full.evictions;
        report.sdc_events = full.sdc_events;
        report.abft_detections = full.abft_detections;
        report.abft_recomputes = full.abft_recomputes;
        report.wall_time = finite(full.report.wall_time);

        if let Some(v) = Self::unplanned_crash("full", plan, &full) {
            report.violations.push(v);
        }
        if !full.completed {
            report.violations.push(Violation::Incomplete {
                stage: "full".into(),
                diverged: full.diverged,
                restore_failure: full.restore_failure.clone(),
            });
            return report;
        }

        // --- Golden-match / SDC oracle. ---
        let max_dev = state_deviation(&full, &self.golden);
        report.max_deviation = max_dev;
        let tol = self.tolerance_vs_golden(&full);
        if max_dev > tol {
            let silent = full.sdc_events > 0
                && full.watchdog_trips == 0
                && full.abft_detections == 0
                && full.crashed_ranks.is_empty();
            report.violations.push(if silent {
                Violation::SilentCorruption {
                    max_deviation: max_dev,
                    tolerance: tol,
                }
            } else {
                Violation::StateDivergence {
                    max_deviation: max_dev,
                    tolerance: tol,
                }
            });
        }

        // --- ABFT-detection oracle: armed checksums must raise at
        // least one verdict for any fired flip — benign, detectable, or
        // gray — because a bit flip always changes a bit-exact digest.
        // Zero verdicts after a fired flip is an ABFT escape, however
        // small the final deviation happens to be. ---
        if self.abft.enabled && full.sdc_events > 0 && full.abft_detections == 0 {
            report.violations.push(Violation::UndetectedSdc {
                fired: full.sdc_events,
                detected: full.abft_detections,
            });
        }

        // --- Recovery accounting and budget. Graceful evictions are
        // recovery episodes too: the shrink books agreement time even
        // though nothing rolled back. ---
        let episodes = full.recoveries + full.watchdog_trips + full.evictions;
        let consistent = (episodes > 0) == (full.recovery_time > 0.0);
        if !consistent {
            report.violations.push(Violation::RecoveryAccounting {
                episodes,
                recovery_time: finite(full.recovery_time),
            });
        }
        let budget = self.recovery_budget(plan, episodes);
        if full.recovery_time > budget {
            report.violations.push(Violation::RecoveryBudget {
                recovery_time: finite(full.recovery_time),
                budget: finite(budget),
                episodes,
            });
        }

        // --- Straggler-mitigation oracle: a plan that only slows CPUs
        // down must be absorbed by the degradation ladder's first two
        // rungs (rebalance, evict) — a rollback means the ladder
        // escalated past them. When a persistent straggler was active
        // from step 0 and the ladder chose rebalancing (no eviction),
        // the re-cut must also pay: rerun with rebalancing disabled
        // and demand the adaptive overhead beats the ratio bound —
        // unless the workload is comm-bound and the static run barely
        // noticed the slow node. ---
        if Self::straggler_only(plan) {
            let rollbacks = full.recoveries + full.watchdog_trips;
            let persistent = plan
                .stragglers
                .iter()
                .any(|s| s.slowdown >= 2.0 && s.start == 0.0 && s.end == f64::MAX);
            let mut adaptive_overhead = 0.0;
            let mut static_overhead = 0.0;
            let mut ratio_violated = false;
            if rollbacks == 0 && persistent && full.evictions == 0 {
                let static_fault = FaultConfig::new(plan.clone())
                    .with_recovery(RecoveryConfig {
                        rebalance: false,
                        ..self.recovery
                    })
                    .with_abft(self.abft)
                    .with_durable(DurableConfig::new(self.run_dir("static")).with_keep(16));
                if let Ok(st) = run_parallel_md_faulty(&self.system, &self.cfg, &static_fault) {
                    if st.completed {
                        let golden = self.golden_wall();
                        adaptive_overhead = full.report.wall_time / golden - 1.0;
                        static_overhead = st.report.wall_time / golden - 1.0;
                        ratio_violated = static_overhead > MITIGATION_MIN_STATIC_OVERHEAD
                            && adaptive_overhead >= ADAPTIVE_OVERHEAD_RATIO * static_overhead;
                    }
                }
            }
            if rollbacks > 0 || ratio_violated {
                report.violations.push(Violation::StragglerMitigation {
                    rollbacks,
                    adaptive_overhead: finite(adaptive_overhead),
                    static_overhead: finite(static_overhead),
                    ratio_bound: ADAPTIVE_OVERHEAD_RATIO,
                });
            }
        }

        // --- Resume equivalence: interrupt at the halfway point, then
        // resume from the durable checkpoints and compare to the
        // uninterrupted full run. ---
        if self.cfg.steps >= 2 {
            let dir = self.run_dir("resume");
            let truncated_cfg = MdConfig {
                steps: self.cfg.steps / 2,
                ..self.cfg
            };
            let truncated_fault = FaultConfig::new(plan.clone())
                .with_recovery(self.recovery)
                .with_abft(self.abft)
                .with_durable(DurableConfig::new(&dir).with_keep(16));
            match run_parallel_md_faulty(&self.system, &truncated_cfg, &truncated_fault) {
                Err(e) => report.violations.push(Violation::NonTermination {
                    stage: "truncated".into(),
                    error: e.to_string(),
                }),
                Ok(truncated) if !truncated.completed => {
                    report.violations.push(Violation::Incomplete {
                        stage: "truncated".into(),
                        diverged: truncated.diverged,
                        restore_failure: truncated.restore_failure.clone(),
                    })
                }
                Ok(truncated) => {
                    let resumed_fault = FaultConfig::new(plan.clone())
                        .with_recovery(self.recovery)
                        .with_abft(self.abft)
                        .with_durable(DurableConfig::new(&dir).with_keep(16).with_resume(true));
                    match run_parallel_md_faulty(&self.system, &self.cfg, &resumed_fault) {
                        Err(e) => report.violations.push(Violation::NonTermination {
                            stage: "resumed".into(),
                            error: e.to_string(),
                        }),
                        Ok(resumed) => {
                            if let Some(v) = Self::unplanned_crash("resumed", plan, &resumed) {
                                report.violations.push(v);
                            }
                            if !resumed.completed {
                                report.violations.push(Violation::Incomplete {
                                    stage: "resumed".into(),
                                    diverged: resumed.diverged,
                                    restore_failure: resumed.restore_failure.clone(),
                                });
                            } else {
                                let dev = state_deviation(&resumed, &full);
                                report.resume_deviation = dev;
                                // Both runs recover independently, so
                                // each may sit a full tolerance from
                                // the golden trajectory — on opposite
                                // sides.
                                let crash_in_either = !full.crashed_ranks.is_empty()
                                    || !truncated.crashed_ranks.is_empty()
                                    || !resumed.crashed_ranks.is_empty()
                                    || full.evictions > 0
                                    || truncated.evictions > 0
                                    || resumed.evictions > 0;
                                let sdc_in_either = full.sdc_events > 0 || resumed.sdc_events > 0;
                                let rebalance_in_either = full.rebalances > 0
                                    || truncated.rebalances > 0
                                    || resumed.rebalances > 0;
                                let mut rtol = 0.0;
                                if crash_in_either {
                                    rtol += 2.0 * CRASH_RECOVERY_TOLERANCE;
                                }
                                if rebalance_in_either {
                                    rtol += 2.0 * REBALANCE_TOLERANCE;
                                }
                                if sdc_in_either {
                                    rtol += 2.0 * BENIGN_SDC_TOLERANCE;
                                }
                                if dev > rtol {
                                    report.violations.push(Violation::ResumeDivergence {
                                        max_deviation: dev,
                                        tolerance: rtol,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        report
    }

    /// Minimizes a failing plan against this harness's oracles and
    /// packages it as a [`Reproducer`]. `seed`/`index` only annotate
    /// the artifact.
    pub fn minimize_to_reproducer(&self, plan: &FaultPlan, seed: u64, index: u64) -> Reproducer {
        let (min_plan, probes) = minimize(plan, |p| !self.check(p).violations.is_empty());
        let violations = self.check(&min_plan).violations;
        Reproducer {
            seed,
            index,
            ranks: self.cfg.cluster.ranks,
            nodes: self.cfg.cluster.nodes(),
            steps: self.cfg.steps,
            abft: self.abft.enabled,
            events: flatten(&min_plan).len(),
            probes,
            violations,
            plan: min_plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpc_cluster::{ClusterConfig, NetworkKind, SdcTarget};
    use cpc_md::energy::EnergyModel;
    use cpc_mpi::Middleware;

    /// A harness over the quick water box; `abft` disarmed is the
    /// pre-ABFT engine, where gray-zone flips stay silent — the regime
    /// the `SilentCorruption` oracle and minimizer tests must be
    /// validated in.
    fn harness_with(tag: &str, ranks: usize, steps: usize, abft: AbftConfig) -> ChaosHarness {
        let mut sys = cpc_md::builder::water_box(2, 3.1);
        cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 40);
        sys.assign_velocities(150.0, 3);
        let cfg = MdConfig {
            steps,
            ..MdConfig::paper_protocol(
                EnergyModel::Classic,
                Middleware::Mpi,
                ClusterConfig::uni(ranks, NetworkKind::ScoreGigE),
            )
        };
        let dir = std::env::temp_dir().join(format!("cpc-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ChaosHarness::with_options(sys, cfg, dir, RecoveryConfig::default(), abft).unwrap()
    }

    fn harness(tag: &str, ranks: usize, steps: usize) -> ChaosHarness {
        harness_with(tag, ranks, steps, AbftConfig::armed())
    }

    fn disarmed_harness(tag: &str, ranks: usize, steps: usize) -> ChaosHarness {
        harness_with(tag, ranks, steps, AbftConfig::default())
    }

    /// The planted bug every minimizer test uses: a gray-zone SDC flip
    /// (mid-mantissa, far above the benign bound, invisible to the
    /// watchdog) buried in a pile of harmless noise events.
    fn planted_plan(h: &ChaosHarness) -> FaultPlan {
        let wall = h.golden_wall();
        FaultPlan::none()
            .with_loss(0.05)
            .with_straggler(0, 1.5)
            .with_degradation(LinkDegradation::global(0.0, 0.5 * wall, 0.1, 2.0))
            .with_sdc(SdcFault {
                step: 2,
                target: SdcTarget::Positions,
                atom: 3,
                axis: 1,
                bit: 40,
            })
    }

    /// A compute-dominated workload for the mitigation tests: the
    /// quick water box above is comm-bound, so a slow CPU hides behind
    /// the collective incasts and the ratio check gates itself off.
    /// The bigger box exposes the straggler to the decomposition.
    fn big_harness(tag: &str, recovery: RecoveryConfig) -> ChaosHarness {
        let mut sys = cpc_md::builder::water_box(3, 3.1);
        cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 40);
        sys.assign_velocities(150.0, 3);
        let cfg = MdConfig {
            steps: 6,
            ..MdConfig::paper_protocol(
                EnergyModel::Classic,
                Middleware::Mpi,
                ClusterConfig::uni(4, NetworkKind::ScoreGigE),
            )
        };
        let dir = std::env::temp_dir().join(format!("cpc-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ChaosHarness::with_recovery(sys, cfg, dir, recovery).unwrap()
    }

    #[test]
    fn persistent_straggler_passes_mitigation_oracle_by_rebalancing() {
        let h = big_harness("mitigate", RecoveryConfig::default());
        let r = h.check(&FaultPlan::none().with_straggler(0, 2.0));
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert!(r.rebalances >= 1, "the ladder re-cut the partition");
        assert_eq!(r.recoveries, 0, "no rollback for a pure straggler");
        assert_eq!(r.watchdog_trips, 0);
        assert_eq!(r.evictions, 0, "2x is rebalance territory, not eviction");
    }

    #[test]
    fn mitigation_oracle_fires_when_rebalancing_is_disabled() {
        let h = big_harness(
            "static",
            RecoveryConfig {
                rebalance: false,
                ..RecoveryConfig::default()
            },
        );
        let r = h.check(&FaultPlan::none().with_straggler(0, 2.0));
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::StragglerMitigation { rollbacks: 0, .. })),
            "violations: {:?}",
            r.violations
        );
        assert_eq!(r.rebalances, 0);
    }

    #[test]
    fn clean_and_benign_plans_pass_every_oracle() {
        let h = harness("pass", 3, 4);
        let clean = h.check(&FaultPlan::none());
        assert!(clean.passed(), "violations: {:?}", clean.violations);
        assert_eq!(clean.max_deviation, 0.0, "nothing perturbed the physics");
        assert_eq!(clean.resume_deviation, 0.0, "resume is bit-identical");

        let benign = h.check(&FaultPlan::none().with_sdc(SdcFault {
            step: 2,
            target: SdcTarget::Positions,
            atom: 5,
            axis: 1,
            bit: 12,
        }));
        assert!(benign.passed(), "violations: {:?}", benign.violations);
        assert_eq!(benign.sdc_events, 1);
        assert!(benign.max_deviation <= BENIGN_SDC_TOLERANCE);
    }

    #[test]
    fn crash_plan_passes_within_recovery_tolerance() {
        let h = harness("crash", 3, 4);
        let plan = FaultPlan::none().with_crash(2, 0.5 * h.golden_wall());
        let r = h.check(&plan);
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.crashed, 1);
        assert!(r.recoveries >= 1);
        assert!(r.max_deviation <= CRASH_RECOVERY_TOLERANCE);
    }

    #[test]
    fn gray_zone_sdc_is_caught_as_silent_corruption() {
        // Disarmed: the pre-ABFT engine lets the gray flip through,
        // and the deviation oracle is the only thing that notices.
        let h = disarmed_harness("silent", 3, 4);
        let r = h.check(&planted_plan(&h));
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::SilentCorruption { .. })),
            "violations: {:?}",
            r.violations
        );
        assert_eq!(r.abft_detections, 0, "disarmed harness reports none");
    }

    #[test]
    fn armed_harness_repairs_the_planted_gray_flip() {
        // The same planted schedule against the armed engine: the ABFT
        // layer catches the flip, repairs it in place, and every oracle
        // holds — the gray zone is closed.
        let h = harness("armed", 3, 4);
        let r = h.check(&planted_plan(&h));
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.sdc_events, 1);
        assert!(r.abft_detections >= 1, "the flip was caught");
        assert!(r.abft_recomputes >= 1, "and repaired");
        assert_eq!(r.watchdog_trips, 0, "before the watchdog saw it");
    }

    #[test]
    fn minimizer_shrinks_planted_bug_to_single_event() {
        let h = disarmed_harness("ddmin", 3, 4);
        let plan = planted_plan(&h);
        assert_eq!(flatten(&plan).len(), 4, "noise plus the planted flip");
        let repro = h.minimize_to_reproducer(&plan, 0, 0);
        assert_eq!(repro.events, 1, "only the gray-zone flip survives");
        assert_eq!(repro.plan.sdc.len(), 1);
        assert!(repro.plan.crashes.is_empty());
        assert!(repro.plan.loss == 0.0);
        assert!(!repro.violations.is_empty(), "the reproducer still fails");
        // The artifact replays: parse it back and re-provoke the same
        // violations.
        let parsed = Reproducer::from_json(&repro.to_json()).unwrap();
        assert_eq!(parsed, repro);
        let replay = h.check(&parsed.plan);
        assert_eq!(replay.violations, repro.violations);
    }

    #[test]
    fn ddmin_is_deterministic_and_flatten_roundtrips() {
        let h = harness("roundtrip", 3, 4);
        let plan = planted_plan(&h);
        assert_eq!(rebuild(&flatten(&plan), &plan), plan);
        let a = minimize(&plan, |p| !p.sdc.is_empty());
        let b = minimize(&plan, |p| !p.sdc.is_empty());
        assert_eq!(a, b);
        assert_eq!(flatten(&a.0).len(), 1, "predicate needs only the flip");
        let _ = h; // keep the fixture alive for golden-run scratch
    }

    #[test]
    fn severity_halving_softens_scalar_events() {
        // A predicate that fails for any plan with loss >= 0.01: ddmin
        // cannot drop the loss event, but halving shrinks it toward the
        // threshold.
        let plan = FaultPlan::none().with_loss(0.12).with_straggler(0, 2.0);
        let (min_plan, _) = minimize(&plan, |p| p.loss >= 0.01);
        assert!(min_plan.stragglers.is_empty(), "straggler noise dropped");
        assert!(
            min_plan.loss >= 0.01 && min_plan.loss < 0.12,
            "loss halved toward the threshold: {}",
            min_plan.loss
        );
    }

    #[test]
    fn verdicts_survive_a_json_roundtrip() {
        let report = ScheduleReport {
            violations: vec![
                Violation::SilentCorruption {
                    max_deviation: 0.25,
                    tolerance: 1e-7,
                },
                Violation::NonTermination {
                    stage: "full".into(),
                    error: "stalled".into(),
                },
                Violation::Incomplete {
                    stage: "resumed".into(),
                    diverged: true,
                    restore_failure: Some("all corrupt".into()),
                },
                Violation::UnplannedCrash {
                    stage: "full".into(),
                    ranks: vec![1, 3],
                },
                Violation::StragglerMitigation {
                    rollbacks: 0,
                    adaptive_overhead: 0.41,
                    static_overhead: 0.55,
                    ratio_bound: ADAPTIVE_OVERHEAD_RATIO,
                },
                Violation::UndetectedSdc {
                    fired: 2,
                    detected: 0,
                },
            ],
            events: 4,
            crashed: 1,
            recoveries: 2,
            watchdog_trips: 1,
            rebalances: 1,
            evictions: 1,
            sdc_events: 1,
            abft_detections: 1,
            abft_recomputes: 1,
            max_deviation: 0.25,
            resume_deviation: 0.0,
            wall_time: 1.5,
        };
        let json = serde_json::to_string(&report).unwrap();
        let parsed: ScheduleReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
    }
}

//! Fault-tolerant MD driver: the replicated-data loop of
//! [`crate::driver`] hardened with periodic in-memory checkpoints,
//! heartbeat-based failure detection and shrinking recovery.
//!
//! The replicated-data decomposition makes recovery unusually cheap:
//! every rank holds the full system state, so when a rank dies the
//! survivors only need to agree on the new membership, roll back to the
//! last checkpoint (re-running at most `checkpoint_interval - 1` steps)
//! and re-partition the work over the smaller communicator. No state
//! lives exclusively on the dead rank. The cost of that agreement and
//! rollback is booked under [`Phase::Recovery`] so survivability
//! reports can separate it from productive work.

use crate::ckpt::{CheckpointStore, DurableConfig, RestoreError};
use crate::driver::MdConfig;
use crate::rank::{initial_list, EvalProbe, RankMd};
use crate::report::{RunReport, StepEnergies};
use cpc_cluster::{run_cluster_faulty, FaultPlan, Phase, SdcFault, SdcTarget, SimError};
use cpc_md::{MdSnapshot, System, Vec3};
use cpc_mpi::{Comm, DetectorConfig, FailureDetector};
use std::borrow::Cow;

/// Cost of writing or reading checkpoint state, seconds per byte
/// (~1 GB/s: a local memory/disk copy, not a network operation).
const CKPT_BYTE_COST: f64 = 1e-9;

/// Numerical-watchdog configuration: treats a blown-up trajectory
/// (NaN/inf coordinates or runaway energy drift) as a fault and rolls
/// back to the last good checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Maximum tolerated relative drift of total energy versus the
    /// first recorded step, `|E - E0| / max(|E0|, 1)`. The default (1.0,
    /// i.e. 100%) only fires on genuine blow-ups, never on the ordinary
    /// energy noise of a stable integration.
    pub max_rel_drift: f64,
    /// Rollbacks granted before the run is declared diverged: a purely
    /// numerical blow-up is deterministic, so unlimited retries would
    /// re-trip forever.
    pub max_rollbacks: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            max_rel_drift: 1.0,
            max_rollbacks: 2,
        }
    }
}

/// Adaptive-recovery configuration: heartbeat cadence, φ-accrual
/// detector thresholds, and the straggler-rebalancing trigger.
///
/// The defaults reproduce the legacy behaviour exactly on healthy
/// runs: heartbeats every step, and a rebalance trigger that a
/// fault-free cohort (whose per-unit costs agree to well under 1.5×)
/// can never fire — so fault-free trajectories and timings stay
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Steps between failure-detection epochs (heartbeat + scheduled
    /// crash poll). 1 = every step, the legacy cadence; larger values
    /// trade detection latency for control traffic.
    pub heartbeat_interval: usize,
    /// φ-accrual detector thresholds (suspect / evict).
    pub detector: DetectorConfig,
    /// Re-cut the pair partition when some member's measured relative
    /// speed deviates from its current capacity weight by more than
    /// this factor (either direction).
    pub rebalance_trigger: f64,
    /// Master switch for straggler-aware rebalancing; `false` keeps
    /// the static decomposition (the reference configuration the
    /// chaos oracle measures adaptive overhead against).
    pub rebalance: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            heartbeat_interval: 1,
            detector: DetectorConfig::default(),
            rebalance_trigger: 1.5,
            rebalance: true,
        }
    }
}

/// Algorithm-based fault tolerance: physics-invariant checksums that
/// close the silent-data-corruption gray zone.
///
/// When armed, the driver brackets every array the SDC model can
/// corrupt with bit-exact checks (see `cpc_md::abft`):
///
/// * **positions** — every rank redundantly integrates *all* atoms
///   with element-wise identical arithmetic, so the prediction equals
///   the published allgather result bit-for-bit; per-tile checksums
///   after the exchange detect, localize and repair any flipped bit;
/// * **forces** — per-tile checksums taken when the reduced array is
///   produced are re-verified before the kick consumes it; a mismatch
///   triggers a targeted recompute (the flip cursors only advance, so
///   one re-evaluation is clean), then escalates to rollback;
/// * **invariants** — Newton's-third-law force sum, the PME
///   grid-charge identity and per-block transpose checksums catch
///   corruption inside an evaluation;
/// * **replica voting** — a compact digest of each rank's replicated
///   state piggybacks on the existing heartbeat control messages
///   (modeled at one byte regardless of payload, so control traffic is
///   unchanged); a strict-majority vote localizes a diverged rank and
///   feeds the eviction rung of the degradation ladder.
///
/// Disarmed (the default) the driver is byte-identical to the
/// pre-ABFT code path. Armed, fault-free physics stays bit-identical
/// (every check is a pure side read); only virtual time moves, by the
/// explicitly charged checksum work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbftConfig {
    /// Master switch.
    pub enabled: bool,
    /// Atoms per checksum tile (granularity of localization/repair).
    pub tile: usize,
    /// Relative tolerance for the Newton force-sum residual over the
    /// classic (pairwise) forces. Reassociation noise sits many orders
    /// of magnitude below this; a high-bit flip sits far above.
    pub force_sum_tol: f64,
    /// Relative tolerance for the PME grid-charge invariant.
    pub grid_charge_tol: f64,
    /// Targeted recomputes granted per step before escalating to the
    /// rollback rung of the degradation ladder.
    pub max_recomputes: usize,
}

impl Default for AbftConfig {
    fn default() -> Self {
        AbftConfig {
            enabled: false,
            tile: cpc_md::abft::DEFAULT_TILE,
            force_sum_tol: 1e-6,
            grid_charge_tol: 1e-8,
            max_recomputes: 1,
        }
    }
}

impl AbftConfig {
    /// The default checks, armed.
    pub fn armed() -> Self {
        AbftConfig {
            enabled: true,
            ..AbftConfig::default()
        }
    }
}

/// Fault-tolerance configuration for a run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The fault plan injected into the cluster.
    pub plan: FaultPlan,
    /// Steps between checkpoints (a checkpoint is also taken at step
    /// 0); rollback re-runs at most `checkpoint_interval - 1` steps.
    pub checkpoint_interval: usize,
    /// Optional durable (on-disk) checkpointing; `None` keeps the
    /// original in-memory-only behaviour. Durable writes happen in real
    /// I/O outside the virtual clock, so enabling them never perturbs
    /// the calibrated timing.
    pub durable: Option<DurableConfig>,
    /// The numerical watchdog (always armed; defaults are loose enough
    /// to stay silent on healthy runs).
    pub watchdog: WatchdogConfig,
    /// Adaptive failure detection and degraded-mode rebalancing.
    pub recovery: RecoveryConfig,
    /// Algorithm-based fault tolerance (disarmed by default).
    pub abft: AbftConfig,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            plan: FaultPlan::none(),
            checkpoint_interval: 2,
            durable: None,
            watchdog: WatchdogConfig::default(),
            recovery: RecoveryConfig::default(),
            abft: AbftConfig::default(),
        }
    }
}

impl FaultConfig {
    /// Configuration injecting `plan` with the default checkpoint
    /// cadence.
    pub fn new(plan: FaultPlan) -> Self {
        FaultConfig {
            plan,
            ..FaultConfig::default()
        }
    }

    /// Enables durable checkpointing (and, if `durable.resume` is set,
    /// resume-from-disk at run start).
    pub fn with_durable(mut self, durable: DurableConfig) -> Self {
        self.durable = Some(durable);
        self
    }

    /// Overrides the numerical-watchdog thresholds.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Overrides the adaptive-recovery configuration.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Overrides the ABFT configuration (pass
    /// [`AbftConfig::armed`] to enable the checks).
    pub fn with_abft(mut self, abft: AbftConfig) -> Self {
        self.abft = abft;
        self
    }
}

/// Outcome of a fault-tolerant run: the usual report plus
/// survivability bookkeeping.
#[derive(Debug, Clone)]
pub struct FtReport {
    /// The run report (physics payload from the lowest-ranked
    /// survivor; per-rank stats from everyone, crashed ranks included).
    pub report: RunReport,
    /// Engine ranks that crashed during the run, ascending.
    pub crashed_ranks: Vec<usize>,
    /// Ranks still alive at the end.
    pub survivors: usize,
    /// Recovery episodes the survivors went through (several ranks
    /// dying between two heartbeats count as one episode).
    pub recoveries: usize,
    /// Wall-clock (virtual) seconds spent in [`Phase::Recovery`],
    /// maximum over ranks.
    pub recovery_time: f64,
    /// Numerical-watchdog rollbacks (blow-ups treated as faults).
    pub watchdog_trips: usize,
    /// True when the watchdog gave up: the trajectory kept blowing up
    /// after `max_rollbacks` rollbacks.
    pub diverged: bool,
    /// Generation (step) of the durable snapshot the run resumed from,
    /// when a resume was requested and an intact snapshot existed.
    pub resumed_from: Option<u64>,
    /// Silent-data-corruption events that actually fired (scheduled
    /// flips whose step the run reached; a flip erased by a crash
    /// rollback before it could matter still counts as fired).
    pub sdc_events: usize,
    /// Set when a requested resume found durable generations on disk
    /// but every one of them was corrupt: the run is classified as
    /// diverged without being started, because silently restarting
    /// from step 0 would masquerade as recovery.
    pub restore_failure: Option<String>,
    /// Whether the survivors completed all configured steps.
    pub completed: bool,
    /// Straggler-driven re-cuts of the work partition (degraded-mode
    /// load rebalancing; no rollback, no recovery episode).
    pub rebalances: usize,
    /// Members evicted by the φ-accrual detector (treated as crashed:
    /// the communicator shrank, but no rollback was needed — the
    /// evicted member left gracefully at a checkpoint boundary).
    pub evictions: usize,
    /// Engine ranks evicted by the detector, ascending.
    pub evicted_ranks: Vec<usize>,
    /// Highest suspicion level any rank's detector ever computed.
    pub phi_max: f64,
    /// Largest smoothed heartbeat RTT observed by any rank (0 when no
    /// heartbeat RTT was sampled, e.g. single-rank runs).
    pub srtt_max: f64,
    /// ABFT detections: checksum/invariant/vote mismatches caught
    /// (maximum over ranks; 0 whenever ABFT is disarmed or the run was
    /// fault-free).
    pub abft_detections: usize,
    /// Targeted ABFT repairs: tile overwrites from the redundant
    /// integration plus full force re-evaluations (maximum over ranks).
    pub abft_recomputes: usize,
    /// Typed corruption verdicts, in detection order, from the rank
    /// whose physics this report carries.
    pub corruptions: Vec<cpc_md::abft::Corruption>,
}

impl FtReport {
    /// Overhead of this run versus a reference (fault-free) wall time:
    /// `wall / reference - 1`. Negative only if the run died early.
    ///
    /// Returns `None` when the ratio is meaningless — a zero, negative
    /// or non-finite reference wall, or a non-finite wall for this run
    /// — rather than a fabricated `0.0` that would read as "no
    /// overhead" in a report.
    pub fn overhead_vs(&self, reference_wall: f64) -> Option<f64> {
        if reference_wall.is_finite() && reference_wall > 0.0 && self.report.wall_time.is_finite() {
            Some(self.report.wall_time / reference_wall - 1.0)
        } else {
            None
        }
    }

    /// The report of a run that was never started because its durable
    /// state could not be restored: classified as diverged, because
    /// silently restarting from step 0 would masquerade as recovery.
    fn unrecoverable(cfg: &MdConfig, restore_failure: String) -> Self {
        FtReport {
            report: RunReport {
                cluster: cfg.cluster,
                middleware: cfg.middleware,
                steps: cfg.steps,
                per_rank: Vec::new(),
                wall_time: 0.0,
                step_energies: Vec::new(),
                final_positions: Vec::new(),
                final_velocities: Vec::new(),
            },
            crashed_ranks: Vec::new(),
            survivors: cfg.cluster.ranks,
            recoveries: 0,
            recovery_time: 0.0,
            watchdog_trips: 0,
            diverged: true,
            resumed_from: None,
            sdc_events: 0,
            restore_failure: Some(restore_failure),
            completed: false,
            rebalances: 0,
            evictions: 0,
            evicted_ranks: Vec::new(),
            phi_max: 0.0,
            srtt_max: 0.0,
            abft_detections: 0,
            abft_recomputes: 0,
            corruptions: Vec::new(),
        }
    }
}

/// State captured at a checkpoint. Replicated on every rank, so
/// restoring needs no communication — only the membership agreement
/// that precedes it.
struct Checkpoint {
    step: usize,
    positions: Vec<Vec3>,
    velocities: Vec<Vec3>,
    forces: Vec<Vec3>,
}

impl Checkpoint {
    fn bytes(&self) -> f64 {
        // Three Vec3 arrays of f64.
        72.0 * self.positions.len() as f64
    }

    /// Captures `rank` at `step`: a local copy, charged like one under
    /// [`Phase::Other`]. The lowest live member also persists it
    /// through `store` — real file I/O outside the virtual clock.
    fn take(
        comm: &mut Comm<'_>,
        rank: &RankMd<'_>,
        step: usize,
        energies: &[StepEnergies],
        store: Option<&mut CheckpointStore>,
    ) -> Self {
        let ckpt = Checkpoint {
            step,
            positions: rank.sys.positions.clone(),
            velocities: rank.sys.velocities.clone(),
            forces: rank.forces.clone(),
        };
        comm.ctx().set_phase(Phase::Other);
        comm.ctx().charge_compute(CKPT_BYTE_COST * ckpt.bytes());
        if let (0, Some(store)) = (comm.rank(), store) {
            // Full MD state plus the per-step energy log (carried in
            // the AUX section so a resumed run reports the complete
            // trajectory).
            let mut snap = MdSnapshot::capture(&rank.sys, &rank.forces, step as u64);
            snap.aux = energies
                .iter()
                .map(|e| [e.classic, e.pme, e.kinetic])
                .collect();
            let now = comm.ctx().now();
            store.save(&snap, now).expect("durable checkpoint write");
        }
        ckpt
    }

    /// Rolls `rank` and the energy log back to this checkpoint, in the
    /// caller's phase: the restore is charged as the local copy it is
    /// and the pair list is brought back in step with the restored
    /// coordinates. Returns the step to resume from and the watchdog's
    /// drift reference for the truncated log — the reference must roll
    /// back with the state: one taken from a now-truncated (possibly
    /// corrupted) step would condemn a perfectly clean re-run.
    fn rewind(
        &self,
        comm: &mut Comm<'_>,
        rank: &mut RankMd<'_>,
        energies: &mut Vec<StepEnergies>,
    ) -> (usize, Option<f64>) {
        rank.sys.positions.clone_from(&self.positions);
        rank.sys.velocities.clone_from(&self.velocities);
        rank.forces.clone_from(&self.forces);
        energies.truncate(self.step);
        comm.ctx().charge_compute(CKPT_BYTE_COST * self.bytes());
        rank.refresh_list(comm);
        (self.step, drift_reference(energies))
    }
}

/// The total energy the watchdog measures drift against: the first
/// recorded step's, once it is finite.
fn drift_reference(energies: &[StepEnergies]) -> Option<f64> {
    energies
        .first()
        .map(StepEnergies::total)
        .filter(|e| e.is_finite())
}

/// Classifies probe evidence against the armed tolerances.
fn probe_corruption(
    probe: &EvalProbe,
    abft: &AbftConfig,
    step: u64,
) -> Option<cpc_md::abft::Corruption> {
    use cpc_md::abft::{Corruption, CorruptionKind};
    if probe.transpose_faults > 0 {
        return Some(Corruption {
            step,
            kind: CorruptionKind::Transpose {
                blocks: probe.transpose_faults,
            },
        });
    }
    if probe.grid_residual > abft.grid_charge_tol {
        return Some(Corruption {
            step,
            kind: CorruptionKind::PmeGrid {
                residual: probe.grid_residual,
            },
        });
    }
    if probe.force_sum_residual > abft.force_sum_tol {
        return Some(Corruption {
            step,
            kind: CorruptionKind::ForceSum {
                residual: probe.force_sum_residual,
            },
        });
    }
    None
}

/// Per-rank payload returned by the fault-tolerant closure.
struct RankRun {
    energies: Vec<StepEnergies>,
    positions: Vec<Vec3>,
    velocities: Vec<Vec3>,
    recoveries: usize,
    watchdog_trips: usize,
    diverged: bool,
    sdc_fired: usize,
    evicted: bool,
    rebalances: usize,
    evictions: usize,
    phi_max: f64,
    srtt_max: f64,
    abft_detections: usize,
    abft_recomputes: usize,
    corruptions: Vec<cpc_md::abft::Corruption>,
}

/// Runs the parallel MD measurement under a fault plan, recovering
/// from rank crashes by shrinking the communicator and restarting from
/// the last checkpoint.
///
/// Each step: poll for this rank's own scheduled crash, exchange
/// heartbeats, recover if anyone died, then run one velocity-Verlet
/// step — the three moves of `crate::rank`, the same ones
/// [`crate::driver::run_parallel_md`] loops over, with this driver's
/// hooks between them. Recovery (membership shrink, checkpoint restore,
/// engine rebuild, re-synchronization) is booked under
/// [`Phase::Recovery`].
///
/// With an all-zero plan the trajectory is bit-identical to
/// [`crate::driver::run_parallel_md`]'s (the heartbeats add control
/// traffic, so *timing* differs; physics does not).
///
/// When [`FaultConfig::durable`] is set, the lowest live member also
/// persists each checkpoint through a `CheckpointStore` — real file
/// I/O outside the virtual clock, so enabling it leaves both timing
/// and physics bit-identical. With `durable.resume`, the run first
/// restores the newest intact snapshot and continues from its step,
/// surviving a full process restart. A numerical watchdog additionally
/// treats NaN/inf coordinates or runaway energy drift as a fault,
/// rolling back under [`Phase::Recovery`] (at most
/// [`WatchdogConfig::max_rollbacks`] times before declaring the run
/// diverged).
pub fn run_parallel_md_faulty(
    system: &System,
    cfg: &MdConfig,
    fault: &FaultConfig,
) -> Result<FtReport, SimError> {
    let steps = cfg.steps;
    let ckpt_every = fault.checkpoint_interval.max(1);
    let durable = fault.durable.as_ref();
    let watchdog = fault.watchdog;
    let recovery = fault.recovery;
    let hb_interval = recovery.heartbeat_interval.max(1);
    let abft = fault.abft;
    let storage_schedule = fault.plan.storage_schedule();
    let sdc_schedule = fault.plan.sdc_schedule();

    // A resume request is resolved once, before any rank exists, so
    // every rank fast-forwards from the same snapshot without any
    // communication. "Nothing durable yet" is a fresh start; a store
    // that cannot be read, or whose every generation is corrupt, is
    // not — restarting from step 0 would silently discard the durable
    // state, so the run is classified before a single step is taken.
    let mut resumed: Option<(u64, MdSnapshot)> = None;
    if let Some(d) = durable.filter(|d| d.resume) {
        let hit = CheckpointStore::open(&d.dir, d.keep)
            .map_err(RestoreError::from)
            .and_then(|store| store.restore_strict());
        match hit {
            Ok(hit) => resumed = hit.filter(|(_, s)| s.positions.len() == system.n_atoms()),
            Err(e) => return Ok(FtReport::unrecoverable(cfg, e.to_string())),
        }
    }
    let resumed_from = resumed.as_ref().map(|(gen, _)| *gen);
    // The pair list is built from the start state — the restored
    // coordinates on a resume — once, and borrowed by every rank.
    let mut start = Cow::Borrowed(system);
    if let Some((_, snap)) = &resumed {
        snap.restore_into(start.to_mut());
    }
    let list = initial_list(&start, cfg.model);

    // One storage-fault cursor for the whole run: the per-rank stores
    // all model the same disk, and the writer role migrates after a
    // crash, so a scheduled fault must corrupt exactly one write
    // plan-wide — not one write per writer.
    let storage_cursor = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));

    let outcomes = run_cluster_faulty(cfg.cluster, fault.plan.clone(), |ctx| {
        let cost = ctx.config().cost;
        let mut comm = Comm::new(ctx, cfg.middleware);
        // Faults, SDC and ABFT repairs change state out of band: a
        // perturbed run always computes and records nothing.
        let mut rank = RankMd::new(&mut comm, cfg, &start, &list, abft.enabled);
        let n = rank.sys.n_atoms();

        // Adaptive-degradation state. The detector is indexed by engine
        // rank (stable across shrinks) and replicated by construction:
        // every member folds the identical set of heartbeat reports, so
        // suspect/evict/rebalance verdicts agree without any extra
        // agreement round.
        let mut det = FailureDetector::new(comm.size(), recovery.detector);
        let mut last_unit_cost = -1.0f64; // "no data yet" sentinel
        let mut rebalances = 0usize;
        let mut evictions = 0usize;
        let mut evicted = false;

        // Durable store, when configured: every rank opens it, only the
        // lowest live member writes. All store I/O is real file I/O
        // outside the virtual clock.
        let mut store = durable.map(|d| {
            CheckpointStore::open(&d.dir, d.keep)
                .expect("checkpoint directory must be creatable")
                .with_fault_cursor(storage_schedule.clone(), storage_cursor.clone())
        });

        // Silent-data-corruption schedule, split per target array. The
        // cursors only ever advance, so each event fires exactly once
        // even across watchdog or crash rollbacks: the cosmic ray hit
        // once, and a re-run of the rolled-back window replays clean
        // state.
        let (sdc_positions, sdc_forces): (Vec<SdcFault>, Vec<SdcFault>) = sdc_schedule
            .iter()
            .copied()
            .partition(|s| s.target == SdcTarget::Positions);
        let mut sdc_fired = 0usize;

        // ABFT bookkeeping: typed verdicts, counters, and the digest of
        // the previous step's replicated state that piggybacks on the
        // next heartbeat (negative sentinel = no digest yet).
        let mut abft_detections = 0usize;
        let mut abft_recomputes = 0usize;
        let mut corruptions: Vec<cpc_md::abft::Corruption> = Vec::new();
        let mut last_digest = -1.0f64;

        let mut energies_log: Vec<StepEnergies> = Vec::with_capacity(steps);
        let mut step = 0usize;
        if let Some((_, snap)) = &resumed {
            // Fast-forward: the snapshot replaces the initial force
            // evaluation.
            rank.forces.clone_from(&snap.forces);
            step = snap.step as usize;
            energies_log.extend(snap.aux.iter().map(|e| StepEnergies {
                classic: e[0],
                pme: e[1],
                kinetic: e[2],
            }));
        } else {
            rank.forces = rank.evaluate(&mut comm).forces;
        }
        // First checkpoint, so even an immediate crash is recoverable.
        // On a resume it is what was just read back: charged like a
        // restore, and already durable.
        let persist = if resumed.is_some() {
            None
        } else {
            store.as_mut()
        };
        let mut ckpt = Checkpoint::take(&mut comm, &rank, step, &energies_log, persist);

        // SDC events from steps a previous process already completed
        // fired in that process; a resumed run must not re-fire them.
        let mut next_sdc_pos = sdc_positions.partition_point(|s| s.step <= step as u64);
        let mut next_sdc_frc = sdc_forces.partition_point(|s| s.step <= step as u64);

        let mut recoveries = 0usize;
        let mut watchdog_trips = 0usize;
        let mut diverged = false;
        let mut e_ref = drift_reference(&energies_log);
        loop {
            // Failure-detection epoch, gated to the heartbeat cadence:
            // my own scheduled crash first (a rank either heartbeats or
            // is seen dead by *everyone* — polling only where everyone
            // listens keeps crash detection consistent when heartbeats
            // are sparse), then the liveness exchange, piggybacking the
            // last measured per-unit step cost for the φ-accrual
            // detector.
            comm.ctx().set_phase(Phase::Other);
            if step.is_multiple_of(hb_interval) {
                comm.ctx().poll_crash();
                let (mut dead, votes) =
                    comm.heartbeat_observed_with(&mut det, last_unit_cost, last_digest);
                // Replica vote over the digests piggybacked this epoch:
                // each summarizes the sender's previous-step replicated
                // state. A strict-majority disagreement localizes the
                // diverged rank, which is then handled exactly like a
                // failed member (every rank reaches the same verdict
                // from the same replicated ballots, including the
                // minority rank itself, which leaves gracefully).
                if abft.enabled && dead.is_empty() && votes.len() >= 3 {
                    let ballots: Vec<(usize, u64)> =
                        votes.iter().map(|&(r, d)| (r, d as u64)).collect();
                    if let Some(bad) = cpc_md::abft::vote(&ballots) {
                        abft_detections += 1;
                        corruptions.push(cpc_md::abft::Corruption {
                            step: step as u64,
                            kind: cpc_md::abft::CorruptionKind::Replica { rank: bad },
                        });
                        if bad == comm.global_rank() {
                            evicted = true;
                            break;
                        }
                        det.forget(bad);
                        dead.push(bad);
                    }
                }
                if !dead.is_empty() {
                    // Recovery: agree on membership, re-derive the
                    // uniform decomposition over the survivors (capacity
                    // weights are stale for the new membership, and the
                    // slab-partitioned PME state has the old width),
                    // roll back.
                    comm.ctx().set_phase(Phase::Recovery);
                    comm.shrink(&dead);
                    rank.repartition(comm.size(), None);
                    (step, e_ref) = ckpt.rewind(&mut comm, &mut rank, &mut energies_log);
                    recoveries += 1;
                    // Re-synchronize the survivors before resuming; a
                    // straggling crash notice must not be mistaken for
                    // progress, so tolerate (and record) errors here.
                    let _ = comm.try_barrier();
                    continue;
                }
            }
            if step >= steps {
                break;
            }
            let comp_before = comm.ctx().stats.total().comp;

            // One velocity-Verlet step over the current members.
            let computing = (step + 1) as u64;
            comm.ctx().set_phase(Phase::Integrate);

            // ABFT redundant integration: predict the post-drift
            // positions of *all* atoms from the replicated prior state
            // with the owners' own arithmetic, so the prediction is
            // bit-exact equal to what they publish below. Verified
            // against per-tile checksums after the exchange (and after
            // any scheduled corruption lands), it both detects a
            // flipped bit and doubles as the repair source.
            let abft_pred: Vec<Vec3> = if abft.enabled {
                comm.ctx().charge_compute(n as f64 * cost.integrate_atom);
                (0..n).map(|i| rank.drifted(i)).collect()
            } else {
                Vec::new()
            };

            rank.drift(&mut comm);

            // Scheduled position corruption lands on the fully
            // replicated post-exchange array: every rank applies the
            // identical flip, so the replicas stay consistent and the
            // fault is silent by construction. The flip is pure bit
            // arithmetic — no RNG draw, no virtual time — so timing
            // figures are untouched.
            while let Some(s) = sdc_positions
                .get(next_sdc_pos)
                .filter(|s| s.step <= computing)
            {
                cpc_md::sdc::flip_vec3_bit(&mut rank.sys.positions, s.atom, s.axis, s.bit);
                next_sdc_pos += 1;
                sdc_fired += 1;
            }

            // ABFT position bracket: the published array must match the
            // redundant integration bit-for-bit. A mismatching tile is
            // detected, localized and repaired in place from the
            // prediction before anything consumes the corrupted value,
            // so the trajectory continues bit-identical to fault-free.
            let mut abft_escalate = false;
            if abft.enabled {
                comm.ctx().charge_compute(2.0 * n as f64 * cost.conv_point);
                let want = cpc_md::abft::tile_digests(&abft_pred, abft.tile);
                let got = cpc_md::abft::tile_digests(&rank.sys.positions, abft.tile);
                for t in cpc_md::abft::mismatched_tiles(&want, &got) {
                    abft_detections += 1;
                    abft_recomputes += 1;
                    corruptions.push(cpc_md::abft::Corruption {
                        step: computing,
                        kind: cpc_md::abft::CorruptionKind::Positions { tile: t },
                    });
                    let lo = t * abft.tile.max(1);
                    let hi = (lo + abft.tile.max(1)).min(n);
                    rank.sys.positions[lo..hi].copy_from_slice(&abft_pred[lo..hi]);
                    comm.ctx()
                        .charge_compute((hi - lo) as f64 * cost.integrate_atom);
                }
            }

            let mut eval = rank.evaluate(&mut comm);

            // ABFT in-evaluation invariants (Newton force sum, PME grid
            // charge, transpose block checksums): a violation means the
            // evaluation itself computed garbage, so the targeted
            // recompute is a full re-evaluation, escalating to the
            // rollback rung when the budget is exhausted.
            if abft.enabled {
                let mut attempts = 0usize;
                while let Some(c) = probe_corruption(&eval.probe, &abft, computing) {
                    abft_detections += 1;
                    corruptions.push(c);
                    if attempts >= abft.max_recomputes {
                        abft_escalate = true;
                        break;
                    }
                    attempts += 1;
                    abft_recomputes += 1;
                    eval = rank.evaluate(&mut comm);
                }
            }

            // ABFT force bracket: digest the reduced array at
            // production; verified below, after the corruption window,
            // right before the kick consumes it.
            let abft_force_digests = if abft.enabled {
                comm.ctx().charge_compute(n as f64 * cost.conv_point);
                cpc_md::abft::tile_digests(&eval.forces, abft.tile)
            } else {
                Vec::new()
            };
            rank.forces = std::mem::take(&mut eval.forces);

            // Force corruption strikes the freshly evaluated array
            // before the second half-kick, so the corrupted value
            // propagates into the velocities exactly once.
            while let Some(s) = sdc_forces.get(next_sdc_frc).filter(|s| s.step <= computing) {
                cpc_md::sdc::flip_vec3_bit(&mut rank.forces, s.atom, s.axis, s.bit);
                next_sdc_frc += 1;
                sdc_fired += 1;
            }

            // Consumption-time verification of the force bracket. On a
            // mismatch every rank re-evaluates once — the flip cursors
            // only advance, so the recompute reproduces the recorded
            // production digests bit-exactly; anything else escalates
            // to the rollback rung of the degradation ladder.
            if abft.enabled {
                comm.ctx().charge_compute(n as f64 * cost.conv_point);
                let got = cpc_md::abft::tile_digests(&rank.forces, abft.tile);
                let bad = cpc_md::abft::mismatched_tiles(&abft_force_digests, &got);
                if !bad.is_empty() {
                    for &t in &bad {
                        abft_detections += 1;
                        corruptions.push(cpc_md::abft::Corruption {
                            step: computing,
                            kind: cpc_md::abft::CorruptionKind::Forces { tile: t },
                        });
                    }
                    abft_recomputes += 1;
                    let mut again = rank.evaluate(&mut comm);
                    let redone = cpc_md::abft::tile_digests(&again.forces, abft.tile);
                    if cpc_md::abft::mismatched_tiles(&abft_force_digests, &redone).is_empty()
                        && probe_corruption(&again.probe, &abft, computing).is_none()
                    {
                        rank.forces = std::mem::take(&mut again.forces);
                        eval = again;
                    } else {
                        abft_escalate = true;
                    }
                }
            }

            rank.kick(&mut comm);

            energies_log.push(StepEnergies {
                classic: eval.classic,
                pme: eval.pme,
                kinetic: rank.sys.kinetic_energy(),
            });
            step += 1;

            // Compact digest of this step's replicated state, exchanged
            // with the next heartbeat for the cross-rank replica vote.
            // Masked to 52 bits so it rides an f64 control payload
            // exactly.
            if abft.enabled {
                comm.ctx().charge_compute(n as f64 * cost.conv_point);
                let step_digest = cpc_md::abft::combine_digests(&[
                    eval.probe.classic_digest,
                    cpc_md::abft::vec3_digest(&rank.forces),
                    cpc_md::abft::scalar_digest(&[eval.classic, eval.pme]),
                ]);
                last_digest = (step_digest & cpc_md::abft::DIGEST_MASK) as f64;
            }

            // Per-unit cost measurement for the next heartbeat report:
            // this rank's compute seconds over the step, normalized by
            // its pair share. The per-unit cost is invariant under the
            // assignment (half the pairs on a 2x-slow node still cost
            // 2x per pair), so it localizes the *node*, not the cut.
            // Pure host-side arithmetic: no virtual time is charged.
            let units = rank.pair_share(&comm).max(1) as f64;
            let comp_after = comm.ctx().stats.total().comp;
            last_unit_cost = (comp_after - comp_before) / units;

            // Numerical watchdog: a blown-up trajectory (NaN/inf
            // coordinates or runaway total-energy drift) is a fault
            // like any other — roll back to the last good checkpoint
            // rather than checkpointing garbage. The check itself is
            // FT machinery and charges no virtual time.
            let e_total = eval.classic + eval.pme + energies_log.last().map_or(0.0, |e| e.kinetic);
            if e_ref.is_none() && e_total.is_finite() {
                e_ref = Some(e_total);
            }
            let blown_up = abft_escalate
                || !e_total.is_finite()
                || rank
                    .sys
                    .positions
                    .iter()
                    .any(|p| !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()))
                || e_ref.is_some_and(|e0| {
                    (e_total - e0).abs() / e0.abs().max(1.0) > watchdog.max_rel_drift
                });
            if blown_up {
                watchdog_trips += 1;
                if watchdog_trips > watchdog.max_rollbacks {
                    // The blow-up is deterministic from this state:
                    // further rollbacks would re-trip forever.
                    diverged = true;
                    break;
                }
                comm.ctx().set_phase(Phase::Recovery);
                (step, e_ref) = ckpt.rewind(&mut comm, &mut rank, &mut energies_log);
                continue;
            }

            // Adaptive degradation ladder, evaluated only at checkpoint
            // boundaries so fault-free runs stay bit-identical and every
            // member takes the same decision at the same step:
            //
            //   rebalance  — re-cut the pair partition (and PME planes)
            //                proportionally to measured speeds; no
            //                rollback, no recovery episode;
            //   evict      — a member past `phi_evict` is treated as
            //                crashed: it leaves gracefully, survivors
            //                shrink and re-cut; still no rollback;
            //   rollback   — the existing crash/watchdog rung.
            //
            // All inputs are the replicated heartbeat reports, so the
            // verdicts agree on every rank with zero agreement traffic.
            if step.is_multiple_of(ckpt_every) && step < steps {
                let members: Vec<usize> = comm.members().to_vec();
                if let Some(victim) = det.evict_candidate(&members) {
                    evictions += 1;
                    if victim == comm.global_rank() {
                        // Leave at the boundary: state is replicated,
                        // so nothing needs saving or shipping.
                        evicted = true;
                        break;
                    }
                    // Survivors agree on the smaller membership,
                    // re-derive the uniform decomposition over it and
                    // re-synchronize; booked as recovery (it is one —
                    // a gray failure handled without rollback).
                    comm.ctx().set_phase(Phase::Recovery);
                    comm.shrink(&[victim]);
                    det.forget(victim);
                    rank.repartition(comm.size(), None);
                    comm.ctx().charge_compute(CKPT_BYTE_COST * ckpt.bytes());
                    let _ = comm.try_barrier();
                } else if recovery.rebalance {
                    if let Some(rel) = det.relative_costs(&members) {
                        // Desired capacity of member j is the inverse of
                        // its measured relative cost (clamped away from
                        // degenerate reports). Re-cut only when some
                        // member's weight is off by more than the
                        // trigger factor in either direction — a
                        // fault-free cohort never gets close.
                        let want: Vec<f64> =
                            rel.iter().map(|r| 1.0 / r.clamp(0.01, 100.0)).collect();
                        let off = |cur: f64, w: f64| {
                            let ratio = if cur > w { cur / w } else { w / cur };
                            ratio > recovery.rebalance_trigger
                        };
                        let fire = match rank.caps() {
                            Some(cur) => cur.iter().zip(&want).any(|(&c, &w)| off(c, w)),
                            None => want.iter().any(|&w| off(1.0, w)),
                        };
                        if fire {
                            rebalances += 1;
                            rank.repartition(comm.size(), Some(want));
                        }
                    }
                }
            }

            if step.is_multiple_of(ckpt_every) {
                ckpt = Checkpoint::take(&mut comm, &rank, step, &energies_log, store.as_mut());
            }
        }
        RankRun {
            energies: energies_log,
            positions: rank.sys.positions,
            velocities: rank.sys.velocities,
            recoveries,
            watchdog_trips,
            diverged,
            sdc_fired,
            evicted,
            rebalances,
            evictions,
            phi_max: det.phi_max(),
            srtt_max: det.srtt_max().unwrap_or(0.0),
            abft_detections,
            abft_recomputes,
            corruptions,
        }
    })?;

    let crashed_ranks: Vec<usize> = outcomes
        .iter()
        .filter(|o| o.crashed)
        .map(|o| o.rank)
        .collect();
    let evicted_ranks: Vec<usize> = outcomes
        .iter()
        .filter(|o| o.result.as_ref().is_some_and(|r| r.evicted))
        .map(|o| o.rank)
        .collect();
    let survivors = outcomes.len() - crashed_ranks.len() - evicted_ranks.len();
    let wall_time = outcomes
        .iter()
        .filter(|o| !o.crashed)
        .map(|o| o.finish_time)
        .fold(0.0, f64::max);
    let recovery_time = outcomes
        .iter()
        .map(|o| o.stats.bucket(Phase::Recovery).total())
        .fold(0.0, f64::max);

    let mut step_energies = Vec::new();
    let mut final_positions = Vec::new();
    let mut final_velocities = Vec::new();
    let mut recoveries = 0usize;
    let mut watchdog_trips = 0usize;
    let mut diverged = false;
    let mut sdc_events = 0usize;
    let mut rebalances = 0usize;
    let mut evictions = 0usize;
    let mut phi_max = 0.0f64;
    let mut srtt_max = 0.0f64;
    let mut abft_detections = 0usize;
    let mut abft_recomputes = 0usize;
    let mut corruptions: Vec<cpc_md::abft::Corruption> = Vec::new();
    for o in &outcomes {
        if let Some(r) = &o.result {
            recoveries = recoveries.max(r.recoveries);
            watchdog_trips = watchdog_trips.max(r.watchdog_trips);
            diverged |= r.diverged;
            sdc_events = sdc_events.max(r.sdc_fired);
            rebalances = rebalances.max(r.rebalances);
            evictions = evictions.max(r.evictions);
            phi_max = phi_max.max(r.phi_max);
            srtt_max = srtt_max.max(r.srtt_max);
            abft_detections = abft_detections.max(r.abft_detections);
            abft_recomputes = abft_recomputes.max(r.abft_recomputes);
            // Physics comes from the first rank that ran to the end; an
            // evicted member left at a boundary with a truncated log.
            if step_energies.is_empty() && !r.evicted {
                step_energies = r.energies.clone();
                final_positions = r.positions.clone();
                final_velocities = r.velocities.clone();
                corruptions = r.corruptions.clone();
            }
        }
    }
    let completed = survivors > 0 && step_energies.len() == steps && !diverged;
    let per_rank = outcomes.into_iter().map(|o| o.stats).collect();

    Ok(FtReport {
        report: RunReport {
            cluster: cfg.cluster,
            middleware: cfg.middleware,
            steps: cfg.steps,
            per_rank,
            wall_time,
            step_energies,
            final_positions,
            final_velocities,
        },
        crashed_ranks,
        survivors,
        recoveries,
        recovery_time,
        watchdog_trips,
        diverged,
        resumed_from,
        sdc_events,
        restore_failure: None,
        completed,
        rebalances,
        evictions,
        evicted_ranks,
        phi_max,
        srtt_max,
        abft_detections,
        abft_recomputes,
        corruptions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_parallel_md;
    use cpc_cluster::{ClusterConfig, NetworkKind};
    use cpc_md::energy::EnergyModel;
    use cpc_mpi::Middleware;

    fn test_system() -> System {
        let mut sys = cpc_md::builder::water_box(2, 3.1);
        cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 40);
        sys.assign_velocities(150.0, 3);
        sys
    }

    fn test_cfg(p: usize, steps: usize) -> MdConfig {
        MdConfig {
            steps,
            ..MdConfig::paper_protocol(
                EnergyModel::Classic,
                Middleware::Mpi,
                ClusterConfig::uni(p, NetworkKind::ScoreGigE),
            )
        }
    }

    #[test]
    fn zero_plan_matches_plain_driver_physics() {
        let sys = test_system();
        let cfg = test_cfg(3, 3);
        let plain = run_parallel_md(&sys, &cfg);
        let ft = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
        assert!(ft.completed);
        assert!(ft.crashed_ranks.is_empty());
        assert_eq!(ft.recoveries, 0);
        assert_eq!(ft.recovery_time, 0.0);
        // A healthy cohort never trips the adaptive ladder.
        assert_eq!(ft.rebalances, 0);
        assert_eq!(ft.evictions, 0);
        assert!(ft.evicted_ranks.is_empty());
        assert!(ft.srtt_max > 0.0, "heartbeat RTTs were observed");
        // Heartbeats change timing, never physics: bit-identical state.
        assert_eq!(ft.report.final_positions, plain.final_positions);
        assert_eq!(ft.report.final_velocities, plain.final_velocities);
        // The two loops differ by their hooks only: per rank the same
        // payload, the same messages plus one heartbeat to every peer
        // per epoch, and the same compute in every phase of the step.
        let heartbeats = ((cfg.steps + 1) * (cfg.cluster.ranks - 1)) as u64;
        for (a, b) in ft.report.per_rank.iter().zip(&plain.per_rank) {
            assert_eq!(a.bytes_sent, b.bytes_sent);
            assert_eq!(a.msgs_sent, b.msgs_sent + heartbeats);
            for phase in [Phase::Classic, Phase::Pme, Phase::Integrate] {
                assert_eq!(
                    a.bucket(phase).comp.to_bits(),
                    b.bucket(phase).comp.to_bits(),
                    "{phase:?}"
                );
            }
        }
    }

    #[test]
    fn armed_abft_fault_free_is_bit_identical_with_zero_verdicts() {
        let sys = test_system();
        let cfg = test_cfg(3, 3);
        let plain = run_parallel_md(&sys, &cfg);
        let armed = FaultConfig::default().with_abft(AbftConfig::armed());
        let ft = run_parallel_md_faulty(&sys, &cfg, &armed).unwrap();
        assert!(ft.completed);
        assert_eq!(ft.abft_detections, 0, "no false positives");
        assert_eq!(ft.abft_recomputes, 0);
        assert!(ft.corruptions.is_empty());
        // Every check is a pure side read: armed physics is
        // bit-identical to the plain driver, only timing moves.
        assert_eq!(ft.report.final_positions, plain.final_positions);
        assert_eq!(ft.report.final_velocities, plain.final_velocities);
        for (a, b) in ft.report.step_energies.iter().zip(&plain.step_energies) {
            assert_eq!(a.classic.to_bits(), b.classic.to_bits());
            assert_eq!(a.kinetic.to_bits(), b.kinetic.to_bits());
        }
    }

    #[test]
    fn abft_repairs_gray_position_flip_bit_exactly() {
        let sys = test_system();
        let cfg = test_cfg(3, 4);
        let armed = AbftConfig::armed();
        let golden =
            run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default().with_abft(armed)).unwrap();
        // Bit 40 on a position coordinate: the gray zone PR 3 could
        // neither detect (too small for the watchdog) nor ignore (far
        // above benign tolerance).
        let plan = FaultPlan::none().with_sdc(SdcFault {
            step: 2,
            target: SdcTarget::Positions,
            atom: 5,
            axis: 1,
            bit: 40,
        });
        let ft =
            run_parallel_md_faulty(&sys, &cfg, &FaultConfig::new(plan).with_abft(armed)).unwrap();
        assert!(ft.completed);
        assert_eq!(ft.sdc_events, 1, "the flip fired");
        assert_eq!(ft.abft_detections, 1, "and was caught");
        assert_eq!(ft.abft_recomputes, 1, "and repaired in place");
        assert_eq!(ft.watchdog_trips, 0, "before the watchdog ever saw it");
        assert_eq!(ft.corruptions.len(), 1);
        assert!(matches!(
            ft.corruptions[0].kind,
            cpc_md::abft::CorruptionKind::Positions { .. }
        ));
        // The repair restores the exact clean value: the trajectory is
        // bit-identical to the fault-free armed run.
        assert_eq!(ft.report.final_positions, golden.report.final_positions);
        assert_eq!(ft.report.final_velocities, golden.report.final_velocities);
    }

    #[test]
    fn abft_catches_force_flip_and_recomputes_bit_exactly() {
        let sys = test_system();
        let cfg = test_cfg(3, 4);
        let armed = AbftConfig::armed();
        let golden =
            run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default().with_abft(armed)).unwrap();
        let plan = FaultPlan::none().with_sdc(SdcFault {
            step: 3,
            target: SdcTarget::Forces,
            atom: 11,
            axis: 2,
            bit: 55,
        });
        let ft =
            run_parallel_md_faulty(&sys, &cfg, &FaultConfig::new(plan).with_abft(armed)).unwrap();
        assert!(ft.completed);
        assert_eq!(ft.sdc_events, 1);
        assert_eq!(ft.abft_detections, 1);
        assert!(ft.abft_recomputes >= 1, "targeted re-evaluation ran");
        assert_eq!(ft.watchdog_trips, 0);
        assert_eq!(ft.report.final_positions, golden.report.final_positions);
        assert_eq!(ft.report.final_velocities, golden.report.final_velocities);
    }

    #[test]
    fn disarmed_gray_flip_stays_silent_the_pr3_status_quo() {
        // Without ABFT the same flip corrupts the trajectory without
        // tripping anything — the gray zone this subsystem closes.
        let sys = test_system();
        let cfg = test_cfg(3, 4);
        let golden = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
        let plan = FaultPlan::none().with_sdc(SdcFault {
            step: 2,
            target: SdcTarget::Positions,
            atom: 5,
            axis: 1,
            bit: 40,
        });
        let ft = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::new(plan)).unwrap();
        assert!(ft.completed);
        assert_eq!(ft.sdc_events, 1);
        assert_eq!(ft.abft_detections, 0);
        assert_eq!(ft.watchdog_trips, 0, "too small for the watchdog");
        assert_ne!(
            ft.report.final_positions, golden.report.final_positions,
            "yet the trajectory silently diverged"
        );
    }

    #[test]
    fn armed_abft_pme_invariants_hold_fault_free() {
        use cpc_fft::Dims3;
        use cpc_md::pme::PmeParams;
        let sys = test_system();
        let cfg = MdConfig {
            steps: 2,
            ..MdConfig::paper_protocol(
                EnergyModel::Pme(PmeParams {
                    grid: Dims3::new(16, 16, 16),
                    order: 4,
                    beta: 0.34,
                }),
                Middleware::Mpi,
                ClusterConfig::uni(3, NetworkKind::ScoreGigE),
            )
        };
        let plain = run_parallel_md(&sys, &cfg);
        let armed = FaultConfig::default().with_abft(AbftConfig::armed());
        let ft = run_parallel_md_faulty(&sys, &cfg, &armed).unwrap();
        assert!(ft.completed);
        assert_eq!(
            ft.abft_detections, 0,
            "grid/transpose/Newton invariants stay silent on clean runs"
        );
        assert_eq!(ft.report.final_positions, plain.final_positions);
    }

    /// A system big enough for compute to dominate communication: on
    /// the tiny two-cell box the combine latency hides a straggler's
    /// compute entirely (the paper's comm-bound regime) and there is
    /// nothing for a re-cut to win.
    fn big_system() -> System {
        let mut sys = cpc_md::builder::water_box(3, 3.1);
        cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 40);
        sys.assign_velocities(150.0, 3);
        sys
    }

    #[test]
    fn persistent_straggler_rebalances_without_rollback() {
        let sys = big_system();
        let cfg = test_cfg(4, 6);
        let fault = FaultConfig::new(FaultPlan::none().with_straggler(0, 2.0));
        let ft = run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
        assert!(ft.completed);
        assert!(ft.rebalances >= 1, "the detector re-cut the partition");
        assert_eq!(ft.recoveries, 0, "no rollback for a mere straggler");
        assert_eq!(ft.watchdog_trips, 0);
        assert_eq!(ft.evictions, 0, "2x is suspect territory, not evict");
        assert!(ft.phi_max > cpc_mpi::PHI_SCALE, "suspicion accrued");

        // The re-cut only regroups the force summation: physics stays
        // within reassociation noise of the plain trajectory.
        let plain = run_parallel_md(&sys, &cfg);
        let max_dev = ft
            .report
            .final_positions
            .iter()
            .zip(&plain.final_positions)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-6, "max deviation {max_dev}");

        // ...and it pays: the same schedule under a static decomposition
        // is strictly slower.
        let static_fault = fault.clone().with_recovery(RecoveryConfig {
            rebalance: false,
            ..RecoveryConfig::default()
        });
        let static_ft = run_parallel_md_faulty(&sys, &cfg, &static_fault).unwrap();
        assert_eq!(static_ft.rebalances, 0, "reference keeps static cuts");
        assert!(
            ft.report.wall_time < static_ft.report.wall_time,
            "adaptive {} vs static {}",
            ft.report.wall_time,
            static_ft.report.wall_time
        );
    }

    #[test]
    fn severe_straggler_is_evicted_without_rollback() {
        let sys = test_system();
        let cfg = test_cfg(4, 6);
        let fault = FaultConfig::new(FaultPlan::none().with_straggler(0, 6.0));
        let ft = run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
        assert_eq!(ft.evicted_ranks, vec![0], "the 6x node is cut loose");
        assert_eq!(ft.evictions, 1);
        assert_eq!(ft.survivors, 3);
        assert!(ft.crashed_ranks.is_empty(), "eviction is not a crash");
        assert_eq!(ft.recoveries, 0, "graceful exit needs no rollback");
        assert!(ft.completed, "survivors finish all steps");
        assert!(
            ft.recovery_time > 0.0,
            "membership agreement is booked as recovery"
        );
        // Replicated data means the trajectory survives the eviction.
        let plain = run_parallel_md(&sys, &cfg);
        let max_dev = ft
            .report
            .final_positions
            .iter()
            .zip(&plain.final_positions)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-6, "max deviation {max_dev}");
    }

    #[test]
    fn sparse_heartbeats_still_detect_crashes() {
        let sys = test_system();
        let cfg = test_cfg(3, 4);
        let wall = run_parallel_md(&sys, &cfg).wall_time;
        let fault = FaultConfig::new(FaultPlan::none().with_crash(2, 0.5 * wall)).with_recovery(
            RecoveryConfig {
                heartbeat_interval: 2,
                ..RecoveryConfig::default()
            },
        );
        let ft = run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
        assert_eq!(ft.crashed_ranks, vec![2]);
        assert!(ft.completed);
        assert!(ft.recoveries >= 1);
    }

    #[test]
    fn crash_recovers_from_checkpoint_and_completes() {
        let sys = test_system();
        let cfg = test_cfg(3, 4);
        // Crash rank 2 mid-run (about half the fault-free wall time).
        let wall = run_parallel_md(&sys, &cfg).wall_time;
        let fault = FaultConfig::new(FaultPlan::none().with_crash(2, 0.5 * wall));
        let ft = run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
        assert_eq!(ft.crashed_ranks, vec![2]);
        assert_eq!(ft.survivors, 2);
        assert!(ft.completed, "survivors finish all steps");
        assert!(ft.recoveries >= 1);
        assert!(ft.recovery_time > 0.0, "recovery is booked time");
        assert_eq!(ft.report.step_energies.len(), 4);
        // Replicated-data restart preserves the trajectory: the
        // re-run steps recompute the same physics.
        let plain = run_parallel_md(&sys, &cfg);
        let max_dev = ft
            .report
            .final_positions
            .iter()
            .zip(&plain.final_positions)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-7, "max deviation {max_dev}");
    }

    #[test]
    fn immediate_crash_restarts_from_step_zero() {
        let sys = test_system();
        let cfg = test_cfg(4, 2);
        let fault = FaultConfig::new(FaultPlan::none().with_crash(1, 0.0));
        let ft = run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
        assert_eq!(ft.crashed_ranks, vec![1]);
        assert_eq!(ft.survivors, 3);
        assert!(ft.completed);
        assert_eq!(ft.report.step_energies.len(), 2);
    }

    fn tmp_ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cpc-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_checkpointing_never_perturbs_timing_or_physics() {
        let sys = test_system();
        let cfg = test_cfg(3, 3);
        let dir = tmp_ckpt_dir("timing");
        let plain = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
        let durable = FaultConfig::default().with_durable(DurableConfig::new(&dir));
        let with_store = run_parallel_md_faulty(&sys, &cfg, &durable).unwrap();
        // Durable writes live outside the virtual clock: calibrated
        // timing and trajectory are bit-identical either way.
        assert_eq!(with_store.report.wall_time, plain.report.wall_time);
        assert_eq!(
            with_store.report.final_positions,
            plain.report.final_positions
        );
        assert_eq!(with_store.report.step_energies, plain.report.step_energies);
        // ...and the generations really are on disk and intact.
        let store = CheckpointStore::open(&dir, 8).unwrap();
        assert!(!store.generations().unwrap().is_empty());
        let (hit, notes) = store.restore_newest_intact().unwrap();
        assert!(hit.is_some());
        assert!(notes.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_process_restart_matches_uninterrupted_run() {
        let sys = test_system();
        let dir = tmp_ckpt_dir("resume");
        // "First process": killed after 2 of 4 steps (checkpoint lands
        // at step 2 with the default interval of 2).
        let partial = FaultConfig::default().with_durable(DurableConfig::new(&dir));
        run_parallel_md_faulty(&sys, &test_cfg(3, 2), &partial).unwrap();
        // "Restarted process": resumes from disk and finishes.
        let resumed_cfg =
            FaultConfig::default().with_durable(DurableConfig::new(&dir).with_resume(true));
        let resumed = run_parallel_md_faulty(&sys, &test_cfg(3, 4), &resumed_cfg).unwrap();
        assert_eq!(resumed.resumed_from, Some(2));
        assert!(resumed.completed);
        // Reference: the same 4 steps without any interruption.
        let full = run_parallel_md_faulty(&sys, &test_cfg(3, 4), &FaultConfig::default()).unwrap();
        assert_eq!(resumed.report.step_energies, full.report.step_energies);
        assert_eq!(resumed.report.final_positions, full.report.final_positions);
        assert_eq!(
            resumed.report.final_velocities,
            full.report.final_velocities
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_falls_back_past_a_corrupted_generation() {
        let sys = test_system();
        let dir = tmp_ckpt_dir("fallback");
        let partial = FaultConfig::default().with_durable(DurableConfig::new(&dir));
        run_parallel_md_faulty(&sys, &test_cfg(3, 2), &partial).unwrap();
        // Damage the newest generation (step 2) on disk.
        let newest = dir.join("ckpt-0000000002.cpcsnap");
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();

        let resumed_cfg =
            FaultConfig::default().with_durable(DurableConfig::new(&dir).with_resume(true));
        let resumed = run_parallel_md_faulty(&sys, &test_cfg(3, 4), &resumed_cfg).unwrap();
        // Checksums catch the damage; the run restarts from the older
        // intact generation and still reproduces the trajectory.
        assert_eq!(resumed.resumed_from, Some(0));
        assert!(resumed.completed);
        let full = run_parallel_md_faulty(&sys, &test_cfg(3, 4), &FaultConfig::default()).unwrap();
        assert_eq!(resumed.report.final_positions, full.report.final_positions);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_classifies_blowup_and_gives_up_deterministically() {
        let sys = test_system();
        let cfg = test_cfg(3, 4);
        // A zero drift tolerance makes any energy fluctuation a
        // "blow-up": the rollback re-runs the same steps, re-trips, and
        // after max_rollbacks the run is declared diverged.
        let fault = FaultConfig::default().with_watchdog(WatchdogConfig {
            max_rel_drift: 0.0,
            max_rollbacks: 2,
        });
        let ft = run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
        assert_eq!(ft.watchdog_trips, 3, "two rollbacks, then the fatal trip");
        assert!(ft.diverged);
        assert!(!ft.completed);
        assert!(ft.recovery_time > 0.0, "rollbacks are booked as recovery");
        assert!(ft.crashed_ranks.is_empty(), "no process actually died");
    }

    #[test]
    fn watchdog_stays_silent_on_healthy_runs() {
        let sys = test_system();
        let cfg = test_cfg(3, 3);
        let ft = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
        assert_eq!(ft.watchdog_trips, 0);
        assert!(!ft.diverged);
        assert!(ft.completed);
    }

    #[test]
    fn overhead_guard_rejects_degenerate_references() {
        let sys = test_system();
        let cfg = test_cfg(2, 1);
        let ft = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
        assert!(ft.overhead_vs(0.0).is_none());
        assert!(ft.overhead_vs(-1.0).is_none());
        assert!(ft.overhead_vs(f64::NAN).is_none());
        assert!(ft.overhead_vs(f64::INFINITY).is_none());
        let wall = ft.report.wall_time;
        assert_eq!(ft.overhead_vs(wall), Some(0.0));
        let doubled = ft.overhead_vs(wall / 2.0).unwrap();
        assert!((doubled - 1.0).abs() < 1e-12);
    }

    #[test]
    fn benign_sdc_fires_silently_and_stays_tiny() {
        let sys = test_system();
        let cfg = test_cfg(3, 3);
        let golden = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
        // Low-mantissa flip: relative error ~1e-11, invisible to the
        // watchdog, but the trajectory is no longer bit-identical.
        let fault = FaultConfig::new(FaultPlan::none().with_sdc(cpc_cluster::SdcFault {
            step: 2,
            target: cpc_cluster::SdcTarget::Positions,
            atom: 5,
            axis: 1,
            bit: 16,
        }));
        let ft = run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
        assert_eq!(ft.sdc_events, 1, "the flip fired exactly once");
        assert_eq!(ft.watchdog_trips, 0, "benign flips are silent");
        assert!(ft.completed);
        assert_ne!(
            ft.report.final_positions, golden.report.final_positions,
            "the corruption is real"
        );
        let max_dev = ft
            .report
            .final_positions
            .iter()
            .zip(&golden.report.final_positions)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-9, "benign deviation stays tiny: {max_dev}");
        // Timing is untouched: SDC charges no virtual time.
        assert_eq!(ft.report.wall_time, golden.report.wall_time);
    }

    #[test]
    fn detectable_sdc_trips_watchdog_and_recovers_exactly() {
        let sys = test_system();
        let cfg = test_cfg(3, 4);
        let golden = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default()).unwrap();
        // High-exponent flip in the position array: the blow-up is
        // caught by the watchdog, the run rolls back, and — because the
        // cosmic ray only struck once — the re-run is clean and ends
        // bit-identical to the golden trajectory.
        let fault = FaultConfig::new(FaultPlan::none().with_sdc(cpc_cluster::SdcFault {
            step: 3,
            target: cpc_cluster::SdcTarget::Positions,
            atom: 2,
            axis: 0,
            bit: 62,
        }));
        let ft = run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
        assert_eq!(ft.sdc_events, 1);
        assert!(ft.watchdog_trips >= 1, "the blow-up is detected");
        assert!(!ft.diverged);
        assert!(ft.completed);
        assert_eq!(ft.report.final_positions, golden.report.final_positions);
        assert_eq!(ft.report.final_velocities, golden.report.final_velocities);
    }

    #[test]
    fn resume_with_all_generations_corrupt_reports_restore_failure() {
        let sys = test_system();
        let dir = tmp_ckpt_dir("allcorrupt");
        let partial = FaultConfig::default().with_durable(DurableConfig::new(&dir));
        run_parallel_md_faulty(&sys, &test_cfg(3, 2), &partial).unwrap();
        // Damage every generation on disk.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
        }
        let resumed_cfg =
            FaultConfig::default().with_durable(DurableConfig::new(&dir).with_resume(true));
        let ft = run_parallel_md_faulty(&sys, &test_cfg(3, 4), &resumed_cfg).unwrap();
        // The driver refuses to masquerade a from-scratch restart as a
        // recovery: the run is classified diverged before step 0.
        assert!(ft.diverged);
        assert!(!ft.completed);
        assert!(ft.restore_failure.is_some());
        let reason = ft.restore_failure.unwrap();
        assert!(reason.contains("corrupt"), "reason: {reason}");
        assert_eq!(ft.resumed_from, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_a_path_that_is_a_regular_file_reports_restore_failure() {
        // The store cannot even be opened: same classification as the
        // all-corrupt case, not a panic in every rank thread.
        let path = tmp_ckpt_dir("notadir");
        std::fs::write(&path, b"not a directory").unwrap();
        let resumed_cfg =
            FaultConfig::default().with_durable(DurableConfig::new(&path).with_resume(true));
        let ft = run_parallel_md_faulty(&test_system(), &test_cfg(3, 4), &resumed_cfg).unwrap();
        assert!(ft.diverged);
        assert!(!ft.completed);
        assert_eq!(ft.resumed_from, None);
        let reason = ft.restore_failure.expect("the failure is reported");
        assert!(reason.contains("unreadable"), "reason: {reason}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faulty_runs_replay_bit_identically() {
        let sys = test_system();
        let cfg = test_cfg(3, 3);
        let wall = run_parallel_md(&sys, &cfg).wall_time;
        let fault = FaultConfig::new(
            FaultPlan::none()
                .with_loss(0.05)
                .with_straggler(0, 1.5)
                .with_crash(2, 0.5 * wall),
        );
        let run = || run_parallel_md_faulty(&sys, &cfg, &fault).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.report.wall_time, b.report.wall_time);
        assert_eq!(a.report.final_positions, b.report.final_positions);
        assert_eq!(a.recovery_time, b.recovery_time);
        assert_eq!(a.crashed_ranks, b.crashed_ranks);
    }
}

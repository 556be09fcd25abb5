//! Disk-granularity crash-safety: every durable component of the
//! campaign stack runs on an injectable filesystem, and sampled
//! ENOSPC / EIO / short-write / rename-failure / power-loss schedules
//! must uphold the five crash-consistency oracles:
//!
//! 1. **No acked-then-lost**: a result acknowledged durable before a
//!    power cut is still there after restart.
//! 2. **No corrupt-accept**: every recovered result matches a fresh
//!    re-execution of its cell.
//! 3. **No panic**: every injected fault surfaces as a typed error.
//! 4. **No post-failed-fsync trust**: a file whose fsync failed is
//!    abandoned, never published (the fsyncgate policy).
//! 5. **Graceful completion**: once faults clear, the campaign drains
//!    and its artifact is byte-identical to a fault-free reference.

use cpc_chaos::{
    run_composed_chaos, ComposedChaosReport, ComposedPlan, DiskFaultSpace, Layer, LayerMask,
};
use cpc_gateway::{demo_cells, demo_flood_cells, DemoModel};
use cpc_vfs::{atomic_publish, explore_crashes, DiskFault, DiskFaultPlan, Fs, SimFs};
use std::path::Path;

const CELLS: u64 = 6;

/// One campaign (the demo model's `[id, id^2]` cells behind the
/// gateway) on a simulated filesystem interpreting `disk`, judged by
/// the one chaos conductor under a disk-only mask.
fn run(disk: DiskFaultPlan) -> ComposedChaosReport {
    let mut plan = ComposedPlan::quiet(2).masked(LayerMask::only(Layer::Disk));
    plan.disk = disk;
    run_composed_chaos(
        || DemoModel,
        &demo_cells(CELLS),
        "e2e-disk",
        &plan,
        &demo_flood_cells,
        None,
    )
    .expect("schedules never fail at the driver level")
}

/// The fault-free mutating-op horizon of the campaign: the index space
/// every sampled fault position is drawn from.
fn horizon() -> u64 {
    let probe = run(DiskFaultPlan::none());
    assert!(probe.passed(), "probe violations: {:?}", probe.violations);
    probe.ledger.disk.disk.ops
}

/// ≥50 seeded disk fault schedules — every fault class the sampler
/// draws, composed up to three per schedule — must uphold all five
/// crash-consistency oracles.
#[test]
fn fifty_seeded_disk_schedules_uphold_every_oracle() {
    let space = DiskFaultSpace::new(horizon());
    let mut failed = Vec::new();
    for (seed, count) in [(41u64, 30u64), (2002, 20)] {
        for index in 0..count {
            let report = run(space.sample(seed, index));
            if !report.passed() {
                failed.push((seed, index, report.violations.clone()));
            }
        }
    }
    assert!(failed.is_empty(), "failing schedules: {failed:?}");
}

/// A persistent ENOSPC mid-campaign forces the service to quiesce;
/// after the supervisor lifts it, the campaign drains byte-identical
/// to the fault-free reference.
#[test]
fn persistent_enospc_quiesces_then_resumes_byte_identical() {
    let plan = DiskFaultPlan::none().with(DiskFault::EnospcPersistent { at: horizon() / 2 });
    let report = run(plan);
    assert!(report.passed(), "violations: {:?}", report.violations);
    let disk = &report.ledger.disk;
    assert!(disk.disk.enospc_failures >= 1, "the disk filled");
    assert!(disk.enospc_lifts >= 1, "the supervisor lifted it");
    assert_eq!(disk.completed as u64, CELLS);
    assert_eq!(
        report.ledger.artifact_digest,
        report.ledger.reference_digest
    );
}

/// A reordering power cut — each file independently keeps a prefix of
/// its unsynced writes — composed with a fsyncgate EIO must still
/// recover every acknowledged result.
#[test]
fn reordered_power_cut_after_failed_fsync_loses_nothing_acked() {
    let h = horizon();
    let plan = DiskFaultPlan::none()
        .with(DiskFault::EioFsync { at: h / 3 })
        .with(DiskFault::PowerLoss {
            at: 2 * h / 3,
            reorder: true,
            keep_seed: 0xFEED,
        });
    let report = run(plan);
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(report.ledger.disk.acked_then_lost, 0);
    assert_eq!(report.ledger.disk.disk.poisoned_publishes, 0);
}

/// The crash-point explorer proves the audited publish helper leaves a
/// readable old-or-new state at *every* mutating operation boundary —
/// the contract all five durable components now inherit from it.
#[test]
fn atomic_publish_survives_every_crash_point_of_an_overwrite() {
    let report = explore_crashes(
        |fs| {
            fs.create_dir_all(Path::new("/d"))?;
            atomic_publish(fs, Path::new("/d/state"), b"generation-one\n")?;
            atomic_publish(fs, Path::new("/d/state"), b"generation-two\n")
        },
        |fs| {
            // Every crash image holds nothing (before the first
            // publish's rename), generation one, or generation two —
            // never a torn in-between.
            match fs.read(Path::new("/d/state")) {
                Err(_) => Ok(()),
                Ok(bytes) if bytes == b"generation-one\n" || bytes == b"generation-two\n" => Ok(()),
                Ok(bytes) => Err(format!("torn publish visible: {bytes:?}")),
            }
        },
    )
    .expect("every crash image passes");
    assert!(report.ops >= 8, "the walk explored the whole publish");
    assert_eq!(report.crashes, report.ops + 1);
}

/// Determinism: the same `(seed, index)` schedule produces the same
/// ledger on every run — the property that makes a journaled verdict
/// worth resuming past.
#[test]
fn disk_chaos_is_deterministic_in_seed_and_index() {
    let space = DiskFaultSpace::new(horizon());
    for index in [0u64, 7, 19] {
        let plan = space.sample(9, index);
        let (a, b) = (run(plan.clone()), run(plan));
        assert_eq!(a.ledger.disk, b.ledger.disk, "index {index} diverged");
        assert_eq!(a.ledger.executed_true, b.ledger.executed_true);
        assert_eq!(a.ledger.exec_allowance, b.ledger.exec_allowance);
    }
}

/// The oracle layer itself: a filesystem that records a poisoned
/// publish (post-failed-fsync trust) must be convicted even when the
/// campaign otherwise drains cleanly.
#[test]
fn a_poisoned_publish_is_always_convicted() {
    use cpc_chaos::{check_disk_ledger, DiskLedger, DiskViolation};
    let mut ledger = DiskLedger {
        completed: 1,
        ..DiskLedger::default()
    };
    ledger.disk.poisoned_publishes = 1;
    let violations = check_disk_ledger(&ledger, 1, 0);
    assert!(violations
        .iter()
        .any(|v| matches!(v, DiskViolation::PoisonedPublish { .. })));
}

/// `SimFs` is a real `Fs`: the sanity anchor that the whole campaign
/// above actually exercised an adversarial filesystem, not a no-op.
#[test]
fn the_sim_filesystem_drops_unsynced_bytes_at_power_cut() {
    let fs = SimFs::new();
    fs.create_dir_all(Path::new("/x")).unwrap();
    let mut f = fs.create(Path::new("/x/a")).unwrap();
    // The directory entry must be fsynced too, or the whole file
    // vanishes at the cut — the adversarial half of the POSIX model.
    fs.sync_dir(Path::new("/x")).unwrap();
    f.write_all(b"synced").unwrap();
    f.sync().unwrap();
    f.write_all(b" unsynced").unwrap();
    drop(f);
    fs.power_cut_now(false, 0);
    fs.restart();
    assert_eq!(fs.read(Path::new("/x/a")).unwrap(), b"synced");
}

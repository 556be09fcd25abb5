//! Service-granularity crash-safety: the campaign job service
//! (leased sharded work queue + content-addressed result cache +
//! checksummed results journal) must make `kill -9` invisible.
//!
//! Two properties, checked over a seeded schedule matrix:
//!
//! 1. **No lost cell, no unlicensed re-execution**: every cell of the
//!    campaign ends durable exactly once; the only executions beyond
//!    one-per-cell are those a fault explicitly licensed (a worker
//!    killed before its result became durable, or a durable result
//!    destroyed by a torn journal write).
//! 2. **Byte-identical artifact after kill-resume**: however a
//!    schedule interleaves kills, torn queue/journal writes, stale
//!    leases and cache rot, the drained results journal is
//!    byte-for-byte the uninterrupted run's.

use cpc_chaos::{run_composed_chaos, ComposedPlan, Layer, LayerMask, ServiceFaultSpace};
use cpc_gateway::{demo_cells, demo_flood_cells, DemoModel};
use cpc_workload::service::{artifact_digest, JobService, KillPoint, ServiceConfig};
use std::path::PathBuf;

const CELLS: u64 = 6;
const SHARDS: usize = 4;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cpc-campaign-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The synthetic campaign: cells `0..CELLS`, each producing
/// `[id, id^2]` at a fixed virtual cost. Deterministic, like every
/// real measurement cell.
fn tasks() -> Vec<u64> {
    (0..CELLS).collect()
}

fn exec(t: &u64) -> (Vec<f64>, f64) {
    (vec![*t as f64, (*t * *t) as f64], 0.25)
}

// The signature must be exactly `Fn(&R)` with `R = Vec<f64>` to match
// the service's key extractor; a slice would not unify.
#[allow(clippy::ptr_arg)]
fn key_of(r: &Vec<f64>) -> String {
    serde_json::to_string(&(r[0] as u64)).expect("key serializes")
}

/// ≥50 seeded service fault schedules — worker kills mid-cell,
/// orchestrator kills mid-commit, torn queue-shard and results-journal
/// writes, stale leases, cache bit flips, composed up to three per
/// schedule — must uphold both service oracles, judged by the one
/// chaos conductor under a service-only mask (the campaign runs behind
/// the gateway, on the demo model: the same `[id, id^2]` cells).
#[test]
fn fifty_seeded_service_schedules_uphold_both_oracles() {
    let space = ServiceFaultSpace::new(CELLS as usize, SHARDS);
    for (seed, count) in [(41u64, 30u64), (2002, 20)] {
        for index in 0..count {
            let mut plan = ComposedPlan::quiet(2).masked(LayerMask::only(Layer::Service));
            plan.service = space.sample(seed, index);
            let report = run_composed_chaos(
                || DemoModel,
                &demo_cells(CELLS),
                "svc",
                &plan,
                &demo_flood_cells,
                None,
            )
            .expect("service chaos I/O");
            assert!(
                report.passed(),
                "seed {seed} schedule {index} ({:?}) violated: {:?}\nledger: {:?}",
                plan.service.faults,
                report.violations,
                report.ledger
            );
            // The byte-identity oracle is not vacuous: both digests
            // are real file fingerprints, not unreadable-artifact
            // placeholders.
            assert!(report.ledger.reference_digest.is_some());
            assert_eq!(
                report.ledger.artifact_digest,
                report.ledger.reference_digest
            );
        }
    }
}

/// The explicit kill matrix: a kill at every commit point of every
/// cell position resumes to a byte-identical artifact, and the only
/// execution beyond one-per-cell is the in-flight cell whose result
/// never became durable.
#[test]
fn kill_resume_matrix_every_cell_and_commit_point() {
    let ref_dir = tmp_dir("kill-ref");
    let ref_cfg = ServiceConfig::new(&ref_dir, "svc");
    let ref_journal = ref_cfg.journal_path();
    let mut svc = JobService::<Vec<f64>>::open(ref_cfg, key_of).expect("open reference");
    svc.run(&tasks(), exec).expect("reference run");
    drop(svc);
    let want = artifact_digest(&ref_journal);
    assert!(want.is_some());

    for (tag, point) in [
        ("before", KillPoint::BeforeResult),
        ("mid", KillPoint::MidCommit),
        ("after", KillPoint::AfterCommit),
    ] {
        for cell in 1..=CELLS as usize {
            let dir = tmp_dir(&format!("kill-{tag}-{cell}"));
            let cfg = ServiceConfig {
                kill: Some((cell, point)),
                ..ServiceConfig::new(&dir, "svc")
            };
            let journal = cfg.journal_path();
            let mut svc = JobService::<Vec<f64>>::open(cfg, key_of).expect("open killed");
            let killed = svc.run(&tasks(), exec).expect("killed run");
            assert!(killed.killed, "{tag}/{cell}: the kill fires");
            drop(svc); // SIGKILL: every durable write is already synced.

            let mut svc = JobService::<Vec<f64>>::open(ServiceConfig::new(&dir, "svc"), key_of)
                .expect("reopen");
            let resumed = svc.run(&tasks(), exec).expect("resumed run");
            assert!(resumed.drained, "{tag}/{cell}: resume drains");
            assert_eq!(
                resumed.completed, CELLS as usize,
                "{tag}/{cell}: no lost cell"
            );
            let licensed = CELLS as usize + killed.lost_executions;
            assert!(
                killed.executed + resumed.executed <= licensed,
                "{tag}/{cell}: {} + {} executions exceed licensed {licensed}",
                killed.executed,
                resumed.executed
            );
            assert_eq!(
                artifact_digest(&journal),
                want,
                "{tag}/{cell}: artifact must be byte-identical after kill-resume"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Back-to-back kills — a second incarnation killed again before the
/// first resume finishes — still converge to the reference artifact.
#[test]
fn repeated_kills_still_converge() {
    let ref_dir = tmp_dir("rep-ref");
    let ref_cfg = ServiceConfig::new(&ref_dir, "svc");
    let ref_journal = ref_cfg.journal_path();
    let mut svc = JobService::<Vec<f64>>::open(ref_cfg, key_of).expect("open reference");
    svc.run(&tasks(), exec).expect("reference run");
    drop(svc);
    let want = artifact_digest(&ref_journal);

    let dir = tmp_dir("rep-kills");
    for (cells, point) in [
        (2usize, KillPoint::MidCommit),
        (1, KillPoint::BeforeResult),
        (1, KillPoint::AfterCommit),
    ] {
        let cfg = ServiceConfig {
            kill: Some((cells, point)),
            ..ServiceConfig::new(&dir, "svc")
        };
        let mut svc = JobService::<Vec<f64>>::open(cfg, key_of).expect("open incarnation");
        svc.run(&tasks(), exec).expect("killed incarnation");
        drop(svc);
    }
    let cfg = ServiceConfig::new(&dir, "svc");
    let journal = cfg.journal_path();
    let mut svc = JobService::<Vec<f64>>::open(cfg, key_of).expect("final open");
    let out = svc.run(&tasks(), exec).expect("final drain");
    assert!(out.drained);
    assert_eq!(out.completed, CELLS as usize);
    assert_eq!(artifact_digest(&journal), want);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

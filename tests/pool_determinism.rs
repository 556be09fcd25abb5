//! Cross-thread determinism of the work-stealing executor, checked as
//! a seeded property over hundreds of campaigns:
//!
//! 1. **Fault-free byte-identity**: whatever the campaign shape, a
//!    pooled run at any sweep thread count produces an artifact
//!    byte-for-byte identical to the serial run's — the index-ordered
//!    commit means the interleaving can never reach the journal.
//! 2. **Replayable chaos verdicts**: a `chaos --layers sched` schedule
//!    is fully described by `(seed, index)`. Re-running the same
//!    schedule must reproduce the same verdict, the same violations,
//!    and the same artifact digests — real-scheduler noise (steal
//!    counts, pause timing) may differ between runs, but nothing the
//!    oracles judge may.

use cpc_chaos::{run_composed_chaos, ComposedPlan, Layer, LayerMask, SchedFaultSpace};
use cpc_gateway::{demo_cells, demo_flood_cells, DemoModel};
use cpc_pool::Pool;
use cpc_workload::service::{artifact_digest, JobService, ServiceConfig};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cpc-pool-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
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

/// Cheap deterministic mixing so each seed shapes its own campaign.
fn mix(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    x ^= x >> 27;
    x.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// 200 seeded campaign shapes — varying cell count, cell identity and
/// pool width — each run serially and on the pool; the journals must
/// be byte-identical every single time.
#[test]
fn two_hundred_seeds_of_fault_free_byte_identity_across_thread_counts() {
    let base = tmp_dir("identity");
    for seed in 0..200u64 {
        let m = mix(seed);
        let cells = 3 + (m % 8) as usize; // 3..=10 cells
        let offset = (m >> 8) % 100_000; // distinct cell identities
        let threads = [2, 4, 8][(m >> 32) as usize % 3];
        let tasks: Vec<u64> = (0..cells as u64).map(|i| offset + i).collect();

        let serial_cfg = ServiceConfig::new(base.join(format!("s{seed}-serial")), "identity");
        let serial_journal = serial_cfg.journal_path();
        let mut serial = JobService::<Vec<f64>>::open(serial_cfg, key_of).expect("open serial");
        serial.run(&tasks, exec).expect("serial run");
        drop(serial);

        let pooled_cfg = ServiceConfig::new(base.join(format!("s{seed}-pooled")), "identity");
        let pooled_journal = pooled_cfg.journal_path();
        let mut pooled = JobService::<Vec<f64>>::open(pooled_cfg, key_of).expect("open pooled");
        pooled
            .run_pooled(&tasks, &Pool::new(threads), exec)
            .expect("pooled run");
        drop(pooled);

        assert_eq!(
            artifact_digest(&serial_journal),
            artifact_digest(&pooled_journal),
            "seed {seed}: {cells} cells at {threads} threads diverged from serial"
        );
        let _ = std::fs::remove_dir_all(base.join(format!("s{seed}-serial")));
        let _ = std::fs::remove_dir_all(base.join(format!("s{seed}-pooled")));
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Sched-chaos schedules replayed from `(seed, index)` must reproduce
/// everything the oracles judge: the verdict, the rendered violations,
/// the artifact and reference digests, and the count of injected
/// panics. Scheduler-noise counters (steals, pauses) are deliberately
/// exempt — they describe the real machine, not the campaign. (That a
/// fault-free pooled run is byte-identical at every thread count is the
/// 200-shape property above, not a per-schedule sweep.)
#[test]
fn sched_chaos_verdicts_replay_deterministically_from_seed() {
    let space = SchedFaultSpace::new(6);
    for (seed, count) in [(1702u64, 12u64), (9, 12)] {
        for index in 0..count {
            let mut plan = ComposedPlan::quiet(2).masked(LayerMask::only(Layer::Sched));
            plan.sched = space.sample(seed, index);
            let run = || {
                run_composed_chaos(
                    || DemoModel,
                    &demo_cells(6),
                    "replay",
                    &plan,
                    &demo_flood_cells,
                    None,
                )
            };
            let first = run().expect("first run");
            let second = run().expect("replay");

            assert_eq!(
                first.passed(),
                second.passed(),
                "seed {seed} index {index}: verdict flipped on replay"
            );
            assert_eq!(
                first.violations, second.violations,
                "seed {seed} index {index}: violations changed on replay"
            );
            assert_eq!(
                first.ledger.artifact_digest, second.ledger.artifact_digest,
                "seed {seed} index {index}: chaos artifact diverged on replay"
            );
            assert_eq!(
                first.ledger.reference_digest, second.ledger.reference_digest,
                "seed {seed} index {index}: serial reference diverged on replay"
            );
            assert_eq!(
                first.ledger.sched.panics_injected, second.ledger.sched.panics_injected,
                "seed {seed} index {index}: panic injection count changed on replay"
            );
            assert!(
                first.passed(),
                "seed {seed} index {index}: sampled schedule violated an oracle: {:?}",
                first.violations
            );
        }
    }
}

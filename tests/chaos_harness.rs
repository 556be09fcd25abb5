//! End-to-end acceptance tests for the chaos harness: sampled
//! schedules uphold every oracle deterministically, a planted
//! known-bad schedule is caught and minimized to a replayable
//! reproducer, and the reproducer artifact round-trips through JSON.

use cpc::prelude::*;
use cpc_charmm::chaos::{flatten, ChaosHarness, Reproducer, Violation};
use cpc_charmm::recover::{AbftConfig, RecoveryConfig};
use cpc_cluster::{FaultPlan, FaultSpace, LinkDegradation, SdcFault, SdcTarget};

fn system_and_config(n_side: usize, ranks: usize, steps: usize) -> (System, MdConfig) {
    let mut sys = cpc_md::builder::water_box(n_side, 3.1);
    cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 40);
    sys.assign_velocities(150.0, 3);
    let cluster = ClusterConfig::uni(ranks, NetworkKind::ScoreGigE);
    let cfg = MdConfig {
        steps,
        ..MdConfig::paper_protocol(EnergyModel::Classic, Middleware::Mpi, cluster)
    };
    (sys, cfg)
}

fn harness_with(tag: &str, ranks: usize, steps: usize, abft: AbftConfig) -> ChaosHarness {
    let (sys, cfg) = system_and_config(2, ranks, steps);
    let dir = std::env::temp_dir().join(format!("cpc-chaos-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ChaosHarness::with_options(sys, cfg, dir, RecoveryConfig::default(), abft).unwrap()
}

/// The default harness: ABFT checksums armed, as the engine ships.
fn harness(tag: &str, ranks: usize, steps: usize) -> ChaosHarness {
    harness_with(tag, ranks, steps, AbftConfig::armed())
}

#[test]
fn sampled_schedules_uphold_every_oracle_deterministically() {
    let h = harness("campaign", 4, 8);
    let space = FaultSpace::new(4, 4, 8, h.golden_wall(), 24);
    for index in 0..12 {
        let plan = space.sample(7, index);
        let a = h.check(&plan);
        assert!(
            a.passed(),
            "schedule {index} violated an oracle: {:?}",
            a.violations
        );
        // The verdict — violations, deviations, wall time — is a pure
        // function of the plan.
        let b = h.check(&plan);
        assert_eq!(a, b, "schedule {index} verdict must be deterministic");
    }
}

#[test]
fn planted_bad_schedule_is_caught_and_minimized_to_replayable_reproducer() {
    // ABFT disarmed: the planted gray flip must reach the final state
    // unrepaired for the deviation oracle (and the minimizer built on
    // it) to have something to catch — this validates the oracles
    // against the pre-ABFT engine.
    let h = harness_with("planted", 4, 8, AbftConfig::default());
    // The planted bug: a gray-zone SDC flip — mid-mantissa, far above
    // the benign bound, invisible to the numerical watchdog — buried
    // among harmless noise events.
    let wall = h.golden_wall();
    let plan = FaultPlan::none()
        .with_loss(0.05)
        .with_straggler(0, 1.5)
        .with_degradation(LinkDegradation::global(0.0, 0.5 * wall, 0.1, 2.0))
        .with_crash(1, 0.7 * wall)
        .with_sdc(SdcFault {
            step: 2,
            target: SdcTarget::Positions,
            atom: 3,
            axis: 1,
            bit: 40,
        });
    assert_eq!(flatten(&plan).len(), 5);

    // Caught by an oracle.
    let report = h.check(&plan);
    assert!(!report.passed(), "the planted schedule must be caught");

    // Minimized: only the corrupting flip survives, and well under the
    // three-event reproducer budget.
    let repro = h.minimize_to_reproducer(&plan, 0, 0);
    assert!(repro.events <= 3, "kept {} events", repro.events);
    assert_eq!(repro.plan.sdc.len(), 1, "the flip is the bug");
    assert!(repro.plan.crashes.is_empty() && repro.plan.loss == 0.0);
    assert!(
        repro
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SilentCorruption { .. })),
        "minimized violations: {:?}",
        repro.violations
    );

    // Replayable: the JSON artifact round-trips and still fails.
    let parsed = Reproducer::from_json(&repro.to_json()).unwrap();
    assert_eq!(parsed, repro);
    let replay = h.check(&parsed.plan);
    assert_eq!(replay.violations, repro.violations, "replay reproduces");
}

#[test]
fn detectable_sdc_recovers_bit_identically_through_the_oracles() {
    // The fuzzer's detectable class: top exponent bit of a position at
    // step >= 2. Disarmed, the numerical watchdog must catch it, roll
    // back, and end bit-identical to golden — deviation exactly zero.
    let plan = FaultPlan::none().with_sdc(SdcFault {
        step: 3,
        target: SdcTarget::Positions,
        atom: 2,
        axis: 0,
        bit: 62,
    });
    let h = harness_with("detectable", 3, 4, AbftConfig::default());
    let report = h.check(&plan);
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert!(report.watchdog_trips >= 1, "the flip must be detected");
    assert_eq!(report.max_deviation, 0.0, "recovery is exact");

    // Armed, the ABFT position bracket repairs the same flip a step
    // earlier — before the energy ever blows up — so the watchdog
    // stays quiet and the trajectory is still exact.
    let armed = harness("detectable-armed", 3, 4);
    let report = armed.check(&plan);
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert!(report.abft_detections >= 1, "ABFT caught it first");
    assert_eq!(report.watchdog_trips, 0, "no rollback needed");
    assert_eq!(report.max_deviation, 0.0, "repair is exact");
}

/// The fault-tolerant driver never consults the script store: a run
/// with planted flips reports the same thing before and after
/// fault-free cells of the same system recorded its physics identity on
/// its own platform and replayed it on another, and the store's
/// counters stand still while it runs. (No other test in this binary
/// calls `run_parallel_md`, so nothing else moves them.)
#[test]
fn planted_flips_are_never_served_from_a_warmed_kernel_memo() {
    use cpc_charmm::{run_parallel_md_faulty, FaultConfig, ScriptStore};

    // 375 atoms: `run_parallel_md` never records smaller systems. PME,
    // so that the mesh collectives are in the scripts.
    let (ranks, steps) = (4, 6);
    let (sys, mut cfg) = system_and_config(5, ranks, steps);
    cfg.model = EnergyModel::Pme(cpc_workload::runner::quick_pme_params());
    let plan = FaultPlan::none()
        .with_sdc(SdcFault {
            step: 2,
            target: SdcTarget::Positions,
            atom: 3,
            axis: 1,
            bit: 40,
        })
        .with_sdc(SdcFault {
            step: 4,
            target: SdcTarget::Forces,
            atom: 11,
            axis: 2,
            bit: 40,
        });
    let faulty = |abft: AbftConfig| {
        let fault = FaultConfig::new(plan.clone()).with_abft(abft);
        run_parallel_md_faulty(&sys, &cfg, &fault).expect("SDC never stops a run")
    };
    let store = ScriptStore::global();

    let never_warmed = [faulty(AbftConfig::default()), faulty(AbftConfig::armed())];
    assert_eq!(
        store.stats(),
        Default::default(),
        "a faulty run touched the store"
    );

    // The faulty run's own platform records, another one replays that
    // recording twice.
    let fault_free = run_parallel_md(&sys, &cfg);
    let mut elsewhere = cfg;
    elsewhere.cluster.network = NetworkKind::MyrinetGm;
    assert_ne!(elsewhere.cluster.network, cfg.cluster.network);
    for _ in 0..2 {
        let served = run_parallel_md(&sys, &elsewhere);
        assert_eq!(served.final_positions, fault_free.final_positions);
    }
    let warmed = store.stats();
    assert_eq!(
        (warmed.recorded, warmed.replayed, warmed.live_repeats),
        (1, 2, 0)
    );
    assert!(warmed.bytes > 0 && warmed.evictions == 0);

    let after_warming = [faulty(AbftConfig::default()), faulty(AbftConfig::armed())];
    assert_eq!(store.stats(), warmed, "a faulty run touched the store");
    for (cold, warm) in never_warmed.iter().zip(&after_warming) {
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        assert_eq!(cold.sdc_events, 2, "both flips fired");
    }
    // Disarmed, the gray-zone flips reach the trajectory: had the run
    // been handed the recorded physics, it would match the cell that
    // recorded it.
    assert_ne!(
        never_warmed[0].report.final_positions,
        fault_free.final_positions
    );
    // Armed, ABFT repairs them exactly — by recomputing, not by lookup.
    assert_eq!(
        never_warmed[1].report.final_positions,
        fault_free.final_positions
    );
}

//! Cross-crate physics invariants: whatever platform factors we vary,
//! the *physics* of the parallel engine must match the sequential
//! engine — only the virtual time may change.

use cpc::prelude::*;
use cpc_fft::Dims3;
use cpc_md::builder::water_box;
use cpc_md::dynamics::Simulation;
use cpc_md::minimize::minimize;
use cpc_md::pme::PmeParams;

fn test_system() -> System {
    let mut sys = water_box(2, 3.1);
    minimize(&mut sys, EnergyModel::Classic, 30);
    sys.assign_velocities(150.0, 9);
    sys
}

fn pme_model() -> EnergyModel {
    EnergyModel::Pme(PmeParams {
        grid: Dims3::new(24, 24, 24),
        order: 4,
        beta: 0.34,
    })
}

fn max_deviation(a: &[Vec3], b: &[Vec3]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm())
        .fold(0.0, f64::max)
}

#[test]
fn every_platform_produces_the_same_trajectory() {
    let sys = test_system();
    let mut seq = Simulation::new(sys.clone(), pme_model(), 0.001);
    seq.run(3);

    // Vary every factor: network, middleware, node config, rank count.
    let cases = [
        (NetworkKind::TcpGigE, Middleware::Mpi, 1usize, 1usize),
        (NetworkKind::TcpGigE, Middleware::Cmpi, 4, 1),
        (NetworkKind::ScoreGigE, Middleware::Mpi, 3, 1),
        (NetworkKind::MyrinetGm, Middleware::Mpi, 8, 1),
        (NetworkKind::TcpGigE, Middleware::Mpi, 4, 2),
        (NetworkKind::MyrinetGm, Middleware::Cmpi, 8, 2),
        (NetworkKind::FastEthernet, Middleware::Mpi, 2, 1),
    ];
    for (network, middleware, procs, cpus) in cases {
        let cluster = if cpus == 1 {
            ClusterConfig::uni(procs, network)
        } else {
            ClusterConfig::dual(procs, network)
        };
        let cfg = MdConfig {
            steps: 3,
            ..MdConfig::paper_protocol(pme_model(), middleware, cluster)
        };
        let report = cpc_charmm::run_parallel_md(&sys, &cfg);
        let dev = max_deviation(&report.final_positions, &seq.system.positions);
        assert!(
            dev < 1e-6,
            "{network:?}/{middleware:?}/p={procs}/cpus={cpus}: deviation {dev}"
        );
        let vdev = max_deviation(&report.final_velocities, &seq.system.velocities);
        assert!(vdev < 1e-6, "velocity deviation {vdev}");
    }
}

#[test]
fn energies_agree_with_sequential_components() {
    let sys = test_system();
    let mut seq = Simulation::new(sys.clone(), pme_model(), 0.001);
    let reports = seq.run(2);

    let cfg = MdConfig {
        steps: 2,
        ..MdConfig::paper_protocol(
            pme_model(),
            Middleware::Mpi,
            ClusterConfig::uni(4, NetworkKind::ScoreGigE),
        )
    };
    let par = cpc_charmm::run_parallel_md(&sys, &cfg);
    for (s, p) in reports.iter().zip(&par.step_energies) {
        assert!(
            (s.energy.classic_part() - p.classic).abs() < 1e-6,
            "classic: {} vs {}",
            s.energy.classic_part(),
            p.classic
        );
        assert!(
            (s.energy.pme_part() - p.pme).abs() < 1e-6,
            "pme: {} vs {}",
            s.energy.pme_part(),
            p.pme
        );
        assert!((s.kinetic - p.kinetic).abs() < 1e-6);
    }
}

#[test]
fn classic_model_runs_without_pme_phase() {
    let sys = test_system();
    let cfg = MdConfig {
        steps: 2,
        ..MdConfig::paper_protocol(
            EnergyModel::Classic,
            Middleware::Mpi,
            ClusterConfig::uni(4, NetworkKind::TcpGigE),
        )
    };
    let report = cpc_charmm::run_parallel_md(&sys, &cfg);
    assert!(report.classic_time() > 0.0);
    assert_eq!(
        report.pme_time(),
        0.0,
        "classic model must not touch the PME phase"
    );
    for e in &report.step_energies {
        assert_eq!(e.pme, 0.0);
    }
}

#[test]
fn virtual_time_is_reproducible_but_physics_independent_of_seed() {
    let sys = test_system();
    let mk = |seed: u64| {
        let mut cluster = ClusterConfig::uni(4, NetworkKind::TcpGigE);
        cluster.seed = seed;
        MdConfig {
            steps: 2,
            ..MdConfig::paper_protocol(pme_model(), Middleware::Mpi, cluster)
        }
    };
    let a = cpc_charmm::run_parallel_md(&sys, &mk(1));
    let b = cpc_charmm::run_parallel_md(&sys, &mk(1));
    let c = cpc_charmm::run_parallel_md(&sys, &mk(2));
    // Same seed: identical timing. Different seed: different timing,
    // identical physics.
    assert_eq!(a.wall_time, b.wall_time);
    assert_ne!(a.wall_time, c.wall_time);
    assert_eq!(a.final_positions, c.final_positions);
}

/// The invariant the script store rests on, checked on the live path
/// and on the replayed one: at a fixed processor count and collective
/// tuning, no platform factor moves a single bit of the trajectory.
/// `run_parallel_md_faulty` with an empty plan never consults the
/// store, so its runs prove the invariant itself; `run_parallel_md`
/// must then reproduce the same bits whether its cell ran or was
/// replayed. It records nothing as small as the quick system, so the
/// default tuning runs a second time on a 375-atom box, where the first
/// platform cell of each p and middleware records and the other five
/// replay that recording (at p = 1, which sends no message, the two
/// middlewares share one).
#[test]
fn platform_factors_never_move_a_bit_of_the_trajectory() {
    use cpc_charmm::{run_parallel_md_faulty, CommTuning, FaultConfig, ScriptStore};
    use cpc_mpi::CombineAlgo;
    use cpc_workload::factors::{full_factorial, PAPER_PROC_COUNTS};
    use cpc_workload::runner::{quick_pme_params, quick_system};

    let mut larger = cpc_md::builder::water_box(5, 3.1);
    cpc_md::minimize::minimize(&mut larger, EnergyModel::Classic, 30);
    larger.assign_velocities(200.0, 7);
    let model = EnergyModel::Pme(quick_pme_params());
    let tunings = [
        CommTuning::default(),
        CommTuning {
            force_combine: CombineAlgo::Tree,
            grid_sum: CombineAlgo::Tree,
        },
    ];
    let mut cells = 0u64;
    for (sys, recorded_size) in [(quick_system(), false), (larger, true)] {
        let tunings = &tunings[..if recorded_size { 1 } else { 2 }];
        for procs in PAPER_PROC_COUNTS {
            for &tuning in tunings {
                let mut reference: Option<RunReport> = None;
                for point in full_factorial(&[procs]) {
                    let cfg = MdConfig {
                        steps: 2,
                        tuning,
                        ..MdConfig::paper_protocol(model, point.middleware, point.cluster())
                    };
                    let live = run_parallel_md_faulty(&sys, &cfg, &FaultConfig::default())
                        .expect("an empty fault plan completes")
                        .report;
                    let stored = cpc_charmm::run_parallel_md(&sys, &cfg);
                    let want = reference.get_or_insert_with(|| live.clone());
                    for (path, got) in [("live", &live), ("stored", &stored)] {
                        let at = format!("{} {tuning:?} ({path})", point.label());
                        assert_eq!(got.final_positions, want.final_positions, "{at}");
                        assert_eq!(got.final_velocities, want.final_velocities, "{at}");
                        assert_eq!(got.step_energies, want.step_energies, "{at}");
                    }
                    cells += u64::from(recorded_size);
                }
            }
        }
    }
    // No other test of this binary reaches the 256-atom floor, so the
    // process-wide counters are this test's: nothing from the quick
    // system; on the larger one, one cell records per p and middleware
    // (one for both at p = 1) and the other 41 replay.
    let stats = ScriptStore::global().stats();
    assert_eq!(cells, 48);
    assert_eq!(
        (stats.recorded, stats.replayed, stats.live_repeats),
        (7, 41, 0)
    );
}

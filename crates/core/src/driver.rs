//! The parallel molecular dynamics driver: runs CHARMM-style
//! replicated-data MD on the virtual cluster and collects the
//! phase-resolved timings the paper reports.

use crate::memo::KernelMemo;
use crate::rank::{initial_list, RankMd};
use crate::report::{RunReport, StepEnergies};
use cpc_cluster::{run_cluster, ClusterConfig};
use cpc_md::energy::EnergyModel;
use cpc_md::System;
use cpc_mpi::{CombineAlgo, Comm, Middleware};

/// Tunable collective-algorithm choices (the design decisions the
/// ablation benches compare). Defaults model the paper-era CHARMM:
/// a master-based force combine and a ring-summed charge grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommTuning {
    /// Algorithm for the force/energy combine closing each phase.
    pub force_combine: CombineAlgo,
    /// Algorithm for the PME charge-grid global sum.
    pub grid_sum: CombineAlgo,
}

impl Default for CommTuning {
    fn default() -> Self {
        CommTuning {
            force_combine: CombineAlgo::Flat,
            grid_sum: CombineAlgo::Ring,
        }
    }
}

/// Which parallel PME implementation the driver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PmeImpl {
    /// CHARMM-style replicated-data PME (the paper's subject).
    #[default]
    Replicated,
    /// Spatially decomposed PME (the ablation: halo exchanges instead
    /// of full-mesh traffic).
    Spatial,
}

/// Configuration of one parallel MD measurement run.
#[derive(Debug, Clone, Copy)]
pub struct MdConfig {
    /// Energy model (classic or PME) — the paper's algorithmic factor.
    pub model: EnergyModel,
    /// Middleware factor.
    pub middleware: Middleware,
    /// Platform factors (ranks, network, CPUs per node).
    pub cluster: ClusterConfig,
    /// Number of MD steps (the paper measures 10).
    pub steps: usize,
    /// Timestep in ps.
    pub dt: f64,
    /// Collective-algorithm tuning (ablation hook).
    pub tuning: CommTuning,
    /// Parallel PME implementation.
    pub pme_impl: PmeImpl,
}

impl MdConfig {
    /// The paper's measurement protocol: 10 MD steps at 1 fs.
    pub fn paper_protocol(
        model: EnergyModel,
        middleware: Middleware,
        cluster: ClusterConfig,
    ) -> Self {
        MdConfig {
            model,
            middleware,
            cluster,
            steps: 10,
            dt: 0.001,
            tuning: CommTuning::default(),
            pme_impl: PmeImpl::default(),
        }
    }
}

/// Smallest system [`run_parallel_md`] memoises. The 192-atom `--quick`
/// water box stays below it on purpose: it is the repo's stand-in load
/// of known cost (CI smokes, the service and gateway harnesses, the
/// benchmark's 4-7 ms quick cells). A replayed quick cell is thread
/// wake-ups and journal fsyncs only, and its host time spread about
/// twice as wide from run to run as a computed one's when the repo
/// benchmark measured both (DESIGN.md §19).
const MEMO_MIN_ATOMS: usize = 256;

/// Runs the parallel MD measurement and returns the aggregated report.
///
/// Every rank simulates the full replicated system; work is partitioned
/// exactly as in replicated-data CHARMM. The trajectory is identical
/// (up to floating-point reassociation) to the sequential engine.
///
/// Per-rank classic-kernel outputs, and the PME tails of whole
/// evaluations, are served from the process-wide [`KernelMemo`] when an
/// earlier cell that differs only in platform factors already computed
/// the same bits. A served evaluation computes no mesh stage, but every
/// message still goes out at its size (a mesh message as its length
/// alone), and every compute charge and virtual time is the live one.
/// Systems of fewer than 256 atoms never consult it.
pub fn run_parallel_md(system: &System, cfg: &MdConfig) -> RunReport {
    let memo = (system.n_atoms() >= MEMO_MIN_ATOMS).then(KernelMemo::global);
    run_parallel_md_memo(system, cfg, memo)
}

/// [`run_parallel_md`] over an explicit memo (`None`: every kernel call
/// computes). The report is byte-identical whichever is passed.
pub(crate) fn run_parallel_md_memo(
    system: &System,
    cfg: &MdConfig,
    memo: Option<&KernelMemo>,
) -> RunReport {
    let list = initial_list(system, cfg.model);
    let cell = memo.map(KernelMemo::cell);
    let outcomes = run_cluster(cfg.cluster, |ctx| {
        let mut comm = Comm::new(ctx, cfg.middleware);
        let mut rank = RankMd::new(&mut comm, cfg, system, &list, cell.as_ref(), false);
        // Velocity Verlet needs forces at t = 0.
        rank.forces = rank.evaluate(&mut comm).forces;
        let mut energies_log = Vec::with_capacity(cfg.steps);
        for _ in 0..cfg.steps {
            rank.drift(&mut comm);
            let eval = rank.evaluate(&mut comm);
            rank.forces = eval.forces;
            rank.kick(&mut comm);
            energies_log.push(StepEnergies {
                classic: eval.classic,
                pme: eval.pme,
                kinetic: rank.sys.kinetic_energy(),
            });
        }
        (energies_log, rank.sys.positions, rank.sys.velocities)
    });
    RunReport::from_outcomes(cfg, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpc_cluster::{NetworkKind, Phase};
    use cpc_fft::Dims3;
    use cpc_md::builder::water_box;
    use cpc_md::dynamics::Simulation;
    use cpc_md::pme::PmeParams;

    fn test_system() -> System {
        let mut sys = water_box(2, 3.1);
        cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 40);
        sys.assign_velocities(150.0, 3);
        sys
    }

    #[test]
    fn parallel_trajectory_matches_sequential_classic() {
        let sys = test_system();
        let mut seq = Simulation::new(sys.clone(), EnergyModel::Classic, 0.001);
        seq.run(5);

        for p in [1usize, 2, 4] {
            let cfg = MdConfig {
                steps: 5,
                ..MdConfig::paper_protocol(
                    EnergyModel::Classic,
                    Middleware::Mpi,
                    ClusterConfig::uni(p, NetworkKind::ScoreGigE),
                )
            };
            let report = run_parallel_md(&sys, &cfg);
            let max_dev = report
                .final_positions
                .iter()
                .zip(&seq.system.positions)
                .map(|(a, b)| (*a - *b).norm())
                .fold(0.0f64, f64::max);
            assert!(max_dev < 1e-7, "p={p}: max deviation {max_dev}");
        }
    }

    #[test]
    fn parallel_trajectory_matches_sequential_pme() {
        let sys = test_system();
        let params = PmeParams {
            grid: Dims3::new(24, 24, 24),
            order: 4,
            beta: 0.34,
        };
        let mut seq = Simulation::new(sys.clone(), EnergyModel::Pme(params), 0.001);
        seq.run(3);

        let cfg = MdConfig {
            steps: 3,
            ..MdConfig::paper_protocol(
                EnergyModel::Pme(params),
                Middleware::Mpi,
                ClusterConfig::uni(3, NetworkKind::MyrinetGm),
            )
        };
        let report = run_parallel_md(&sys, &cfg);
        let max_dev = report
            .final_positions
            .iter()
            .zip(&seq.system.positions)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-6, "max deviation {max_dev}");
    }

    #[test]
    fn report_has_phase_times() {
        let sys = test_system();
        let params = PmeParams {
            grid: Dims3::new(24, 24, 24),
            order: 4,
            beta: 0.34,
        };
        let cfg = MdConfig {
            steps: 2,
            ..MdConfig::paper_protocol(
                EnergyModel::Pme(params),
                Middleware::Mpi,
                ClusterConfig::uni(4, NetworkKind::TcpGigE),
            )
        };
        let report = run_parallel_md(&sys, &cfg);
        assert!(report.classic_time() > 0.0);
        assert!(report.pme_time() > 0.0);
        assert!(report.wall_time > 0.0);
        assert_eq!(report.step_energies.len(), 2);
        // With 4 ranks on TCP there is real communication.
        let pme = report.phase_breakdown(Phase::Pme);
        assert!(pme.comm > 0.0);
    }

    #[test]
    fn run_is_deterministic() {
        let sys = test_system();
        let cfg = MdConfig {
            steps: 2,
            ..MdConfig::paper_protocol(
                EnergyModel::Classic,
                Middleware::Cmpi,
                ClusterConfig::uni(4, NetworkKind::TcpGigE),
            )
        };
        let a = run_parallel_md(&sys, &cfg);
        let b = run_parallel_md(&sys, &cfg);
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.classic_time(), b.classic_time());
        assert_eq!(a.final_positions, b.final_positions);
    }

    #[test]
    fn spatial_pme_driver_matches_sequential_trajectory() {
        let sys = test_system();
        let params = PmeParams {
            grid: Dims3::new(24, 24, 24),
            order: 4,
            beta: 0.34,
        };
        let mut seq = Simulation::new(sys.clone(), EnergyModel::Pme(params), 0.001);
        seq.run(3);
        let cfg = MdConfig {
            steps: 3,
            pme_impl: PmeImpl::Spatial,
            ..MdConfig::paper_protocol(
                EnergyModel::Pme(params),
                Middleware::Mpi,
                ClusterConfig::uni(4, NetworkKind::TcpGigE),
            )
        };
        let report = run_parallel_md(&sys, &cfg);
        let max_dev = report
            .final_positions
            .iter()
            .zip(&seq.system.positions)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-6, "max deviation {max_dev}");
        // And it is faster on TCP than the replicated-data engine.
        let repl = run_parallel_md(
            &sys,
            &MdConfig {
                steps: 3,
                ..MdConfig::paper_protocol(
                    EnergyModel::Pme(params),
                    Middleware::Mpi,
                    ClusterConfig::uni(4, NetworkKind::TcpGigE),
                )
            },
        );
        assert!(
            report.pme_time() < repl.pme_time(),
            "spatial {} vs replicated {}",
            report.pme_time(),
            repl.pme_time()
        );
    }

    #[test]
    fn collective_tuning_changes_time_not_physics() {
        let sys = test_system();
        let params = PmeParams {
            grid: Dims3::new(24, 24, 24),
            order: 4,
            beta: 0.34,
        };
        let run = |tuning: CommTuning| {
            let cfg = MdConfig {
                steps: 2,
                tuning,
                ..MdConfig::paper_protocol(
                    EnergyModel::Pme(params),
                    Middleware::Mpi,
                    ClusterConfig::uni(4, NetworkKind::TcpGigE),
                )
            };
            run_parallel_md(&sys, &cfg)
        };
        use cpc_mpi::CombineAlgo;
        let flat = run(CommTuning::default());
        let tree = run(CommTuning {
            force_combine: CombineAlgo::Tree,
            grid_sum: CombineAlgo::Tree,
        });
        let ring = run(CommTuning {
            force_combine: CombineAlgo::Ring,
            grid_sum: CombineAlgo::Ring,
        });
        // Physics identical (up to summation order)...
        for other in [&tree, &ring] {
            let dev = flat
                .final_positions
                .iter()
                .zip(&other.final_positions)
                .map(|(a, b)| (*a - *b).norm())
                .fold(0.0f64, f64::max);
            assert!(dev < 1e-9, "deviation {dev}");
        }
        // ...but timing differs (the algorithms move different volumes).
        assert_ne!(flat.wall_time, tree.wall_time);
        assert_ne!(tree.wall_time, ring.wall_time);
    }

    #[test]
    fn dual_processor_runs() {
        let sys = test_system();
        let cfg = MdConfig {
            steps: 2,
            ..MdConfig::paper_protocol(
                EnergyModel::Classic,
                Middleware::Mpi,
                ClusterConfig::dual(4, NetworkKind::TcpGigE),
            )
        };
        let report = run_parallel_md(&sys, &cfg);
        assert!(report.wall_time > 0.0);
        assert_eq!(report.cluster.nodes(), 2);
    }
}

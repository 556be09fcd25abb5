//! The parallel molecular dynamics driver: runs CHARMM-style
//! replicated-data MD on the virtual cluster and collects the
//! phase-resolved timings the paper reports.

use crate::classic::classic_energy_parallel_weighted;
use crate::memo::KernelMemo;
use crate::pme_par::ParallelPme;
use crate::pme_spatial::SpatialPme;
use crate::report::{RunReport, StepEnergies};
use cpc_cluster::{run_cluster, ClusterConfig, Phase};
use cpc_md::energy::EnergyModel;
use cpc_md::neighbor::NeighborList;
use cpc_md::nonbonded::NonbondedOptions;
use cpc_md::units::ACCEL_CONV;
use cpc_md::{System, Vec3};
use cpc_mpi::{CombineAlgo, Comm, Middleware};
use std::borrow::Cow;

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

/// Neighbour-list skin used by the parallel engine (matches the
/// sequential [`cpc_md::Evaluator`]).
const SKIN: f64 = 2.0;

/// A rank's pair list: the cell's shared one until the rank has to
/// rebuild, its own copy from then on.
type PairList<'a> = Cow<'a, NeighborList>;

/// Smallest system [`run_parallel_md`] memoises. The 192-atom `--quick`
/// water box stays below it on purpose: it is the repo's stand-in load
/// of known cost (CI smokes, the service and gateway harnesses, the
/// benchmark's 12-30 ms quick cells). A replayed quick cell is thread
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
/// Per-rank classic-kernel outputs are served from the process-wide
/// [`KernelMemo`] when an earlier cell that differs only in platform
/// factors already computed the same bits; messages, reductions and
/// virtual time always run live. Systems of fewer than 256 atoms never
/// consult it.
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
    let opts = match cfg.model {
        EnergyModel::Classic => NonbondedOptions::classic(),
        EnergyModel::Pme(p) => NonbondedOptions::pme_direct(p.beta),
    };
    let p = cfg.cluster.ranks;
    let model = cfg.model;
    let steps = cfg.steps;
    let dt = cfg.dt;
    let middleware = cfg.middleware;
    let tuning = cfg.tuning;
    let pme_impl = cfg.pme_impl;

    // Every rank starts from the same replicated coordinates, so the
    // initial pair list is built once per cell and borrowed by all
    // ranks.
    let shared_list = NeighborList::build(
        &system.topology,
        &system.pbox,
        &system.positions,
        opts.cutoff,
        SKIN,
    );

    let outcomes = run_cluster(cfg.cluster, |ctx| {
        let cost = ctx.config().cost;
        let mut comm = Comm::new(ctx, middleware);
        let mut sys = system.clone();
        enum PmeEngine {
            Replicated(ParallelPme),
            Spatial(SpatialPme),
        }
        let ppme = match model {
            EnergyModel::Pme(params) => Some(match pme_impl {
                PmeImpl::Replicated => PmeEngine::Replicated(
                    ParallelPme::new(params, p)
                        .with_grid_sum(tuning.grid_sum)
                        .with_force_combine(tuning.force_combine),
                ),
                PmeImpl::Spatial => PmeEngine::Spatial(
                    SpatialPme::new(params, p).with_force_combine(tuning.force_combine),
                ),
            }),
            EnergyModel::Classic => None,
        };

        // Initial neighbour list (cost shared: the list build is
        // distributed across ranks in parallel CHARMM).
        comm.ctx().set_phase(Phase::Classic);
        let mut list: PairList<'_> = Cow::Borrowed(&shared_list);
        comm.ctx()
            .charge_compute(list.pairs.len() as f64 * 2.5 * cost.list_build_pair / p as f64);

        let mut energies_log = Vec::with_capacity(steps);

        // One full force evaluation before the loop (velocity Verlet
        // needs forces at t = 0).
        let eval =
            |comm: &mut Comm<'_>, sys: &System, list: &mut PairList<'_>| -> (Vec<Vec3>, f64, f64) {
                // List maintenance.
                comm.ctx().set_phase(Phase::Classic);
                if list.needs_rebuild(&sys.pbox, &sys.positions) {
                    list.to_mut()
                        .rebuild(&sys.topology, &sys.pbox, &sys.positions);
                    comm.ctx().charge_compute(
                        list.pairs.len() as f64 * 2.5 * cost.list_build_pair / p as f64,
                    );
                }
                // Synchronization point entering the energy calculation.
                comm.barrier();
                let classic = classic_energy_parallel_weighted(
                    comm,
                    sys,
                    &list.pairs,
                    &opts,
                    &cost,
                    tuning.force_combine,
                    None,
                    memo,
                );
                let classic_energy = classic.energy();
                let mut forces = classic.forces;
                let mut pme_energy = 0.0;
                if let Some(ppme) = &ppme {
                    let kr = match ppme {
                        PmeEngine::Replicated(e) => e.energy_forces(comm, sys, &cost),
                        PmeEngine::Spatial(e) => e.energy_forces(comm, sys, &cost),
                    };
                    for (f, kf) in forces.iter_mut().zip(&kr.forces) {
                        *f += *kf;
                    }
                    pme_energy = kr.energy();
                    comm.barrier();
                }
                (forces, classic_energy, pme_energy)
            };

        let (mut forces, _, _) = eval(&mut comm, &sys, &mut list);

        for _ in 0..steps {
            // Half kick + drift. As in parallel CHARMM, each rank
            // integrates its own atom block, then the updated
            // coordinates are exchanged globally.
            comm.ctx().set_phase(Phase::Integrate);
            let n = sys.n_atoms();
            let my_atoms = crate::decomp::block_range(n, p, comm.rank());
            for i in my_atoms.clone() {
                let inv_m = ACCEL_CONV / sys.topology.atoms[i].class.mass();
                let v_half = sys.velocities[i] + forces[i] * (0.5 * dt * inv_m);
                sys.velocities[i] = v_half;
                sys.positions[i] += v_half * dt;
            }
            comm.ctx()
                .charge_compute(my_atoms.len() as f64 * cost.integrate_atom);

            // Coordinate exchange: every rank needs all positions for
            // the replicated energy evaluation.
            let mine: Vec<f64> = sys.positions[my_atoms.clone()]
                .iter()
                .flat_map(|v| [v.x, v.y, v.z])
                .collect();
            let parts = comm.allgather(mine);
            for (src, part) in parts.iter().enumerate() {
                let range = crate::decomp::block_range(n, p, src);
                for (k, i) in range.enumerate() {
                    sys.positions[i] = Vec3::new(part[3 * k], part[3 * k + 1], part[3 * k + 2]);
                }
            }

            // New forces.
            let (new_forces, e_classic, e_pme) = eval(&mut comm, &sys, &mut list);
            forces = new_forces;

            // Second half kick (own block), then velocity exchange so
            // the kinetic energy below is globally consistent.
            comm.ctx().set_phase(Phase::Integrate);
            for i in my_atoms.clone() {
                let inv_m = ACCEL_CONV / sys.topology.atoms[i].class.mass();
                sys.velocities[i] += forces[i] * (0.5 * dt * inv_m);
            }
            comm.ctx()
                .charge_compute(my_atoms.len() as f64 * cost.integrate_atom);
            let mine: Vec<f64> = sys.velocities[my_atoms.clone()]
                .iter()
                .flat_map(|v| [v.x, v.y, v.z])
                .collect();
            let parts = comm.allgather(mine);
            for (src, part) in parts.iter().enumerate() {
                let range = crate::decomp::block_range(n, p, src);
                for (k, i) in range.enumerate() {
                    sys.velocities[i] = Vec3::new(part[3 * k], part[3 * k + 1], part[3 * k + 2]);
                }
            }

            energies_log.push(StepEnergies {
                classic: e_classic,
                pme: e_pme,
                kinetic: sys.kinetic_energy(),
            });
        }
        (energies_log, sys.positions, sys.velocities)
    });

    RunReport::from_outcomes(cfg, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpc_cluster::NetworkKind;
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

//! Experiment runner: executes one factor-space point on the virtual
//! cluster and extracts the paper's response variables.

use crate::factors::ExperimentPoint;
use cpc_charmm::{run_parallel_md, MdConfig, RunReport};
use cpc_cluster::Phase;
use cpc_md::builder::{myoglobin_system_with, MyoglobinOptions};
use cpc_md::ewald::beta_for_cutoff;
use cpc_md::pme::PmeParams;
use cpc_md::{EnergyModel, System};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Number of MD steps per measurement (the paper uses a reduced run of
/// 10 steps, Section 2.4).
pub const PAPER_STEPS: usize = 10;

/// The paper's PME parameters for myoglobin: 80 x 36 x 48 mesh, order
/// 4, beta chosen so erfc(beta * 10 A) ~ 1e-6.
pub fn paper_pme_params() -> PmeParams {
    PmeParams::paper(beta_for_cutoff(10.0, 1e-6))
}

/// The shared myoglobin-class system (built and relaxed once per
/// process; construction is deterministic).
pub fn myoglobin_shared() -> &'static System {
    static SYSTEM: OnceLock<System> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        myoglobin_system_with(MyoglobinOptions {
            minimize_steps: 120,
            temperature: 300.0,
            seed: 2002,
        })
    })
}

/// Response variables extracted from one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// The factor-space point measured.
    pub point: ExperimentPoint,
    /// MD steps measured.
    pub steps: usize,
    /// Classic-calculation wall time, seconds.
    pub classic_time: f64,
    /// PME-calculation wall time, seconds.
    pub pme_time: f64,
    /// Classic-phase percentages (comp, comm, sync).
    pub classic_pct: (f64, f64, f64),
    /// PME-phase percentages (comp, comm, sync).
    pub pme_pct: (f64, f64, f64),
    /// Total-energy-calculation percentages (comp, comm, sync).
    pub energy_pct: (f64, f64, f64),
    /// Communication speed per node, MB/s: (avg, min, max), when any
    /// payload was transferred.
    pub throughput: Option<(f64, f64, f64)>,
    /// Total potential + kinetic energy at the last step (physics
    /// sanity).
    pub final_total_energy: f64,
}

impl Measurement {
    /// Total energy-calculation time (the stacked bar of Fig. 3/5/8/9).
    pub fn energy_time(&self) -> f64 {
        self.classic_time + self.pme_time
    }
}

/// Runs one experiment point on `system` for `steps` MD steps with the
/// PME model (the paper's "more recent versions of CHARMM").
pub fn measure(system: &System, point: ExperimentPoint, steps: usize) -> Measurement {
    measure_with_model(system, point, steps, EnergyModel::Pme(paper_pme_params()))
}

/// Runs one experiment point with an explicit energy model.
pub fn measure_with_model(
    system: &System,
    point: ExperimentPoint,
    steps: usize,
    model: EnergyModel,
) -> Measurement {
    let cfg = MdConfig {
        steps,
        ..MdConfig::paper_protocol(model, point.middleware, point.cluster())
    };
    let report = run_parallel_md(system, &cfg);
    summarize(point, &report)
}

/// Extracts the response variables from a raw report.
pub fn summarize(point: ExperimentPoint, report: &RunReport) -> Measurement {
    let classic = report.phase_breakdown(Phase::Classic);
    let pme = report.phase_breakdown(Phase::Pme);
    let energy = report.energy_breakdown();
    Measurement {
        point,
        steps: report.steps,
        classic_time: report.classic_time(),
        pme_time: report.pme_time(),
        classic_pct: RunReport::percentages(&classic),
        pme_pct: RunReport::percentages(&pme),
        energy_pct: RunReport::percentages(&energy),
        throughput: report.throughput_summary().map(|t| (t.avg, t.min, t.max)),
        final_total_energy: report
            .step_energies
            .last()
            .map(|e| e.total())
            .unwrap_or(0.0),
    }
}

/// Convenience: a small, fast test system (used by unit tests and the
/// quick modes of the figure binaries).
pub fn quick_system() -> System {
    let mut sys = cpc_md::builder::water_box(4, 3.1);
    cpc_md::minimize::minimize(&mut sys, EnergyModel::Classic, 30);
    sys.assign_velocities(200.0, 7);
    sys
}

/// PME parameters suitable for [`quick_system`] (its box is cubic with
/// edge >= 24.2 A; a 16^3 mesh keeps unit tests fast while exercising
/// every code path).
pub fn quick_pme_params() -> PmeParams {
    PmeParams {
        grid: cpc_fft::Dims3::new(16, 16, 16),
        order: 4,
        beta: beta_for_cutoff(10.0, 1e-6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::{ExperimentPoint, NodeConfig};
    use cpc_cluster::NetworkKind;

    /// Runs a point against the quick system, as a `--quick` campaign does.
    fn measure_quick(point: ExperimentPoint, steps: usize) -> Measurement {
        static SYSTEM: OnceLock<System> = OnceLock::new();
        let sys = SYSTEM.get_or_init(quick_system);
        measure_with_model(sys, point, steps, EnergyModel::Pme(quick_pme_params()))
    }

    #[test]
    fn paper_pme_beta_matches_cutoff() {
        let p = paper_pme_params();
        assert_eq!((p.grid.nx, p.grid.ny, p.grid.nz), (80, 36, 48));
        let tail = cpc_md::special::erfc(p.beta * 10.0);
        assert!((tail - 1e-6).abs() < 1e-7, "erfc tail {tail}");
    }

    #[test]
    fn quick_measurement_has_sane_responses() {
        let m = measure_quick(ExperimentPoint::focal(2), 2);
        assert!(m.classic_time > 0.0);
        assert!(m.pme_time > 0.0);
        let (comp, comm, sync) = m.energy_pct;
        assert!((comp + comm + sync - 100.0).abs() < 1e-6);
        assert!(comp > 0.0);
        assert!(m.throughput.is_some());
        assert!(m.final_total_energy.is_finite());
    }

    #[test]
    fn single_processor_has_no_overheads() {
        let m = measure_quick(ExperimentPoint::focal(1), 2);
        let (comp, comm, sync) = m.energy_pct;
        assert!(comp > 99.9, "p=1 must be pure computation: {comp}");
        assert!(comm < 0.1 && sync < 0.1);
        assert!(m.throughput.is_none(), "no messages at p=1");
    }

    #[test]
    fn myrinet_beats_tcp_at_scale_on_quick_system() {
        let tcp = measure_quick(ExperimentPoint::focal(8), 2);
        let myri = measure_quick(
            ExperimentPoint {
                network: NetworkKind::MyrinetGm,
                ..ExperimentPoint::focal(8)
            },
            2,
        );
        assert!(
            myri.energy_time() < tcp.energy_time(),
            "myrinet {} vs tcp {}",
            myri.energy_time(),
            tcp.energy_time()
        );
    }

    #[test]
    fn dual_node_point_runs() {
        let m = measure_quick(
            ExperimentPoint {
                node: NodeConfig::Dual,
                ..ExperimentPoint::focal(4)
            },
            1,
        );
        assert!(m.energy_time() > 0.0);
    }
}

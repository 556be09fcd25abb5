//! Sequential molecular dynamics: velocity-Verlet integration driving
//! the [`Evaluator`]. This is the single-processor reference that the
//! parallel engine in `cpc-charmm` must reproduce exactly.

use crate::energy::{EnergyModel, EnergyReport, Evaluator, OpCounts};
use crate::system::System;
use crate::units::ACCEL_CONV;
use crate::vec3::Vec3;

/// Per-step record emitted by the simulation.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Step index (1-based after the first step).
    pub step: usize,
    /// Potential energy components.
    pub energy: EnergyReport,
    /// Kinetic energy.
    pub kinetic: f64,
    /// Operation counts of the step's force evaluation.
    pub ops: OpCounts,
}

impl StepReport {
    /// Total (potential + kinetic) energy.
    pub fn total_energy(&self) -> f64 {
        self.energy.total() + self.kinetic
    }
}

/// A sequential MD simulation.
pub struct Simulation {
    /// The evolving system.
    pub system: System,
    evaluator: Evaluator,
    forces: Vec<Vec3>,
    dt: f64,
    step_count: usize,
    have_forces: bool,
}

impl Simulation {
    /// Creates a simulation with timestep `dt` (ps).
    pub fn new(system: System, model: EnergyModel, dt: f64) -> Self {
        assert!(dt > 0.0);
        let n = system.n_atoms();
        Simulation {
            system,
            evaluator: Evaluator::new(model),
            forces: vec![Vec3::ZERO; n],
            dt,
            step_count: 0,
            have_forces: false,
        }
    }

    /// Timestep in ps.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.step_count
    }

    /// Evaluates energy and forces at the current coordinates without
    /// advancing time.
    pub fn evaluate(&mut self) -> (EnergyReport, OpCounts) {
        let out = self.evaluator.evaluate(&self.system, &mut self.forces);
        self.have_forces = true;
        out
    }

    /// Advances one velocity-Verlet step and returns the step report.
    pub fn step(&mut self) -> StepReport {
        if !self.have_forces {
            self.evaluate();
        }
        let dt = self.dt;
        let n = self.system.n_atoms();

        // Half-kick + drift.
        for i in 0..n {
            let inv_m = ACCEL_CONV / self.system.topology.atoms[i].class.mass();
            let v_half = self.system.velocities[i] + self.forces[i] * (0.5 * dt * inv_m);
            self.system.velocities[i] = v_half;
            self.system.positions[i] += v_half * dt;
        }

        // New forces.
        let (energy, ops) = self.evaluator.evaluate(&self.system, &mut self.forces);

        // Second half-kick.
        for i in 0..n {
            let inv_m = ACCEL_CONV / self.system.topology.atoms[i].class.mass();
            self.system.velocities[i] += self.forces[i] * (0.5 * dt * inv_m);
        }

        self.step_count += 1;
        StepReport {
            step: self.step_count,
            energy,
            kinetic: self.system.kinetic_energy(),
            ops,
        }
    }

    /// Runs `n` steps, returning the reports.
    pub fn run(&mut self, n: usize) -> Vec<StepReport> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Current forces (valid after `evaluate` or `step`).
    pub fn forces(&self) -> &[Vec3] {
        &self.forces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::water_box;
    use crate::minimize::minimize;

    fn relaxed_water() -> System {
        let mut sys = water_box(2, 3.1);
        minimize(&mut sys, EnergyModel::Classic, 80);
        sys.assign_velocities(120.0, 11);
        sys
    }

    #[test]
    fn energy_is_conserved_over_short_runs() {
        let sys = relaxed_water();
        let mut sim = Simulation::new(sys, EnergyModel::Classic, 0.0005);
        let first = sim.step();
        let e0 = first.total_energy();
        let reports = sim.run(100);
        let e_end = reports.last().unwrap().total_energy();
        let scale = e0.abs().max(1.0);
        assert!(
            (e_end - e0).abs() / scale < 0.02,
            "energy drift {} -> {}",
            e0,
            e_end
        );
    }

    #[test]
    fn trajectory_is_deterministic() {
        let sys = relaxed_water();
        let mut s1 = Simulation::new(sys.clone(), EnergyModel::Classic, 0.001);
        let mut s2 = Simulation::new(sys, EnergyModel::Classic, 0.001);
        s1.run(10);
        s2.run(10);
        assert_eq!(s1.system.positions, s2.system.positions);
        assert_eq!(s1.system.velocities, s2.system.velocities);
    }

    #[test]
    fn time_reversal_returns_near_start() {
        // Velocity Verlet is time reversible: integrate forward, flip
        // velocities, integrate back.
        let sys = relaxed_water();
        let start = sys.positions.clone();
        let mut sim = Simulation::new(sys, EnergyModel::Classic, 0.0005);
        sim.run(20);
        for v in &mut sim.system.velocities {
            *v = -*v;
        }
        // Force a fresh force evaluation at the turning point.
        sim.evaluate();
        sim.run(20);
        let max_dev = sim
            .system
            .positions
            .iter()
            .zip(&start)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-6, "max deviation {max_dev}");
    }

    #[test]
    fn step_reports_are_sequential() {
        let sys = relaxed_water();
        let mut sim = Simulation::new(sys, EnergyModel::Classic, 0.001);
        let reports = sim.run(5);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.step, i + 1);
            assert!(r.ops.pairs > 0);
        }
        assert_eq!(sim.steps_taken(), 5);
    }

    #[test]
    fn still_system_with_zero_velocity_gains_kinetic_energy_from_forces() {
        // A perturbed system at rest starts moving: KE grows from zero.
        let mut sys = water_box(2, 3.1);
        sys.positions[0].x += 0.2;
        let mut sim = Simulation::new(sys, EnergyModel::Classic, 0.0005);
        let r = sim.step();
        assert!(r.kinetic > 0.0);
    }
}

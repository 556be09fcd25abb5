//! Energy minimization: steepest descent with adaptive step control
//! (CHARMM `MINI SD`), which relaxes fresh synthetic systems.

use crate::energy::{EnergyModel, Evaluator};
use crate::system::System;
use crate::vec3::Vec3;

/// Result of a minimization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinimizeResult {
    /// Potential energy before.
    pub initial_energy: f64,
    /// Potential energy after.
    pub final_energy: f64,
    /// Steps actually taken (accepted).
    pub steps_taken: usize,
}

/// Runs up to `steps` steepest-descent steps on `system` under `model`.
///
/// Displacements are capped at 0.2 A per step; the step size grows by
/// 20% on energy decrease and halves on increase (move rejected).
///
/// A rejected move keeps the forces and energy of the point it returns
/// to instead of evaluating there again. Those are that point's bits:
/// the pair list is in ascending `(i, j)` order, so any valid list
/// yields the same in-cutoff pairs in the same order.
pub fn minimize(system: &mut System, model: EnergyModel, steps: usize) -> MinimizeResult {
    let n = system.n_atoms();
    let mut evaluator = Evaluator::new(model);
    let mut forces = vec![Vec3::ZERO; n];
    let (report, _) = evaluator.evaluate(system, &mut forces);
    let initial_energy = report.total();
    let mut energy = initial_energy;

    let max_disp = 0.2;
    let mut step_size: f64 = 0.01;
    let mut taken = 0usize;
    let mut trial = system.positions.clone();
    let mut trial_forces = vec![Vec3::ZERO; n];

    for _ in 0..steps {
        // Largest force component sets the scale so the cap is honoured.
        let fmax = forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
        if fmax < 1e-8 {
            break; // converged
        }
        let scale = (step_size).min(max_disp / fmax);
        for ((t, &p), &f) in trial.iter_mut().zip(&system.positions).zip(&forces) {
            *t = p + f * scale;
        }
        std::mem::swap(&mut system.positions, &mut trial);
        let (report, _) = evaluator.evaluate(system, &mut trial_forces);
        let new_energy = report.total();
        if new_energy <= energy {
            energy = new_energy;
            std::mem::swap(&mut forces, &mut trial_forces);
            step_size *= 1.2;
            taken += 1;
        } else {
            // Reject: restore coordinates (their forces and energy are
            // still held) and shrink the step.
            std::mem::swap(&mut system.positions, &mut trial);
            step_size *= 0.5;
            if step_size < 1e-10 {
                break;
            }
        }
    }
    MinimizeResult {
        initial_energy,
        final_energy: energy,
        steps_taken: taken,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::water_box;

    #[test]
    fn minimization_lowers_energy() {
        let mut sys = water_box(2, 3.0);
        // Perturb the geometry so there is something to relax.
        for (i, p) in sys.positions.iter_mut().enumerate() {
            p.x += 0.05 * ((i * 7 % 13) as f64 - 6.0) / 6.0;
            p.y += 0.04 * ((i * 5 % 11) as f64 - 5.0) / 5.0;
        }
        let result = minimize(&mut sys, EnergyModel::Classic, 60);
        assert!(
            result.final_energy < result.initial_energy,
            "{} -> {}",
            result.initial_energy,
            result.final_energy
        );
        assert!(result.steps_taken > 0);
    }

    #[test]
    fn minimization_of_relaxed_system_is_gentle() {
        let mut sys = water_box(2, 3.0);
        let r1 = minimize(&mut sys, EnergyModel::Classic, 80);
        let r2 = minimize(&mut sys, EnergyModel::Classic, 20);
        // Second round starts near a minimum: little further descent.
        assert!(r2.initial_energy <= r1.initial_energy);
        assert!(r1.final_energy - r2.final_energy >= -1e-6);
    }

    #[test]
    fn zero_steps_is_identity() {
        let mut sys = water_box(2, 3.0);
        let before = sys.positions.clone();
        let result = minimize(&mut sys, EnergyModel::Classic, 0);
        assert_eq!(sys.positions, before);
        assert_eq!(result.steps_taken, 0);
        assert_eq!(result.initial_energy, result.final_energy);
    }
}

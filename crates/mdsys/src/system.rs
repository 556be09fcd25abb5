//! The simulation system: topology + box + coordinates + velocities.

use crate::pbc::PbcBox;
use crate::topology::Topology;
use crate::units::K_BOLTZMANN;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// A complete molecular system ready for energy evaluation or dynamics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct System {
    /// Bonded topology, charges, LJ classes.
    pub topology: Topology,
    /// Periodic box.
    pub pbox: PbcBox,
    /// Positions in Angstrom.
    pub positions: Vec<Vec3>,
    /// Velocities in Angstrom/ps.
    pub velocities: Vec<Vec3>,
}

impl System {
    /// Creates a system with zero velocities.
    ///
    /// # Panics
    /// Panics if `positions.len() != topology.n_atoms()`.
    pub fn new(topology: Topology, pbox: PbcBox, positions: Vec<Vec3>) -> Self {
        assert_eq!(
            positions.len(),
            topology.n_atoms(),
            "coordinate count mismatch"
        );
        let n = positions.len();
        System {
            topology,
            pbox,
            positions,
            velocities: vec![Vec3::ZERO; n],
        }
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.topology.n_atoms()
    }

    /// Kinetic energy in kcal/mol: `sum 1/2 m v^2 / ACCEL_CONV`.
    pub fn kinetic_energy(&self) -> f64 {
        let conv = crate::units::ACCEL_CONV;
        self.topology
            .atoms
            .iter()
            .zip(&self.velocities)
            .map(|(a, v)| 0.5 * a.class.mass() * v.norm_sqr() / conv)
            .sum()
    }

    /// Instantaneous temperature in Kelvin from the kinetic energy
    /// (3N degrees of freedom; no constraint correction).
    pub fn temperature(&self) -> f64 {
        let dof = 3.0 * self.n_atoms() as f64;
        2.0 * self.kinetic_energy() / (dof * K_BOLTZMANN)
    }

    /// Assigns Maxwell-Boltzmann velocities at temperature `t` using a
    /// deterministic xorshift generator seeded with `seed`, then removes
    /// the centre-of-mass drift.
    pub fn assign_velocities(&mut self, t: f64, seed: u64) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Box-Muller pairs.
        let mut gauss = move || {
            let u1: f64 = uniform().max(1e-300);
            let u2: f64 = uniform();
            (-2.0f64 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let conv = crate::units::ACCEL_CONV;
        for (a, v) in self.topology.atoms.iter().zip(self.velocities.iter_mut()) {
            // sigma^2 = kB T / m (in kcal/mol units, converted to A/ps).
            let sigma = (K_BOLTZMANN * t / a.class.mass() * conv).sqrt();
            *v = Vec3::new(gauss() * sigma, gauss() * sigma, gauss() * sigma);
        }
        self.remove_com_motion();
    }

    /// Removes centre-of-mass translational velocity.
    pub(crate) fn remove_com_motion(&mut self) {
        let total_mass = self.topology.total_mass();
        let mut p = Vec3::ZERO;
        for (a, v) in self.topology.atoms.iter().zip(&self.velocities) {
            p += *v * a.class.mass();
        }
        let v_com = p / total_mass;
        for v in &mut self.velocities {
            *v -= v_com;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::AtomClass;
    use crate::topology::Atom;

    fn free_system(n: usize) -> System {
        let mut topo = Topology {
            atoms: vec![
                Atom {
                    class: AtomClass::OW,
                    charge: 0.0
                };
                n
            ],
            ..Default::default()
        };
        topo.rebuild_exclusions();
        let pbox = PbcBox::new(30.0, 30.0, 30.0);
        let positions = (0..n)
            .map(|i| Vec3::new((i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0, 1.0))
            .collect();
        System::new(topo, pbox, positions)
    }

    #[test]
    fn velocity_assignment_hits_target_temperature() {
        let mut sys = free_system(500);
        sys.assign_velocities(300.0, 42);
        let t = sys.temperature();
        assert!((t - 300.0).abs() < 25.0, "temperature {t}");
    }

    #[test]
    fn com_motion_removed() {
        let mut sys = free_system(100);
        sys.assign_velocities(300.0, 7);
        let mut p = Vec3::ZERO;
        for (a, v) in sys.topology.atoms.iter().zip(&sys.velocities) {
            p += *v * a.class.mass();
        }
        assert!(p.norm() < 1e-9, "net momentum {p:?}");
    }

    #[test]
    fn velocity_assignment_is_deterministic() {
        let mut s1 = free_system(20);
        let mut s2 = free_system(20);
        s1.assign_velocities(300.0, 9);
        s2.assign_velocities(300.0, 9);
        assert_eq!(s1.velocities, s2.velocities);
        s2.assign_velocities(300.0, 10);
        assert_ne!(s1.velocities, s2.velocities);
    }

    #[test]
    fn kinetic_energy_zero_at_rest() {
        let sys = free_system(10);
        assert_eq!(sys.kinetic_energy(), 0.0);
        assert_eq!(sys.temperature(), 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_coordinates_rejected() {
        let mut topo = Topology {
            atoms: vec![
                Atom {
                    class: AtomClass::OW,
                    charge: 0.0
                };
                3
            ],
            ..Default::default()
        };
        topo.rebuild_exclusions();
        let _ = System::new(topo, PbcBox::new(10.0, 10.0, 10.0), vec![Vec3::ZERO; 2]);
    }
}

//! Unified total-energy evaluator: bonded + nonbonded (+ PME k-space),
//! mirroring the two CHARMM models the paper studies — "classic"
//! (everything cut/shifted at 10 A) and "PME".

use crate::bonded::{bonded_energy_forces, BondedEnergies};
use crate::neighbor::NeighborList;
use crate::nonbonded::{
    ewald_excluded_correction, ewald_self_energy, nonbonded_energy_forces, NonbondedEnergies,
    NonbondedOptions,
};
use crate::pme::{Pme, PmeParams};
use crate::system::System;
use crate::vec3::Vec3;

/// Which energy model to run — the paper's central algorithmic factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnergyModel {
    /// Shift/switch model: all electrostatics truncated at the cutoff.
    Classic,
    /// Particle mesh Ewald: erfc direct space + FFT reciprocal space.
    Pme(PmeParams),
}

/// Operation counts of one full energy evaluation; consumed by the
/// virtual-cluster cost model to charge computation time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    /// Nonbonded pairs actually evaluated (inside the cutoff).
    pub pairs: usize,
    /// Pairs visited in the list (distance checks).
    pub list_pairs: usize,
    /// Bonded terms evaluated.
    pub bonded_terms: usize,
    /// Excluded-pair Ewald corrections.
    pub excl_pairs: usize,
    /// PME spread mesh writes.
    pub spread_points: usize,
    /// PME FFT flops (both directions).
    pub fft_flops: f64,
    /// PME convolution mesh points.
    pub conv_points: usize,
    /// PME force-interpolation mesh reads.
    pub interp_points: usize,
    /// Neighbour-list rebuilds performed.
    pub list_rebuilds: usize,
}

impl OpCounts {
    /// Merges counts from another evaluation segment.
    pub fn add(&mut self, other: &OpCounts) {
        self.pairs += other.pairs;
        self.list_pairs += other.list_pairs;
        self.bonded_terms += other.bonded_terms;
        self.excl_pairs += other.excl_pairs;
        self.spread_points += other.spread_points;
        self.fft_flops += other.fft_flops;
        self.conv_points += other.conv_points;
        self.interp_points += other.interp_points;
        self.list_rebuilds += other.list_rebuilds;
    }
}

/// Energy components of one evaluation, kcal/mol.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Bonded terms.
    pub bonded: BondedEnergies,
    /// Short-range nonbonded terms.
    pub nonbonded: NonbondedEnergies,
    /// PME reciprocal-space energy (zero in the classic model).
    pub recip: f64,
    /// Ewald self term (zero in the classic model).
    pub self_term: f64,
    /// Excluded-pair correction (zero in the classic model).
    pub excluded: f64,
}

impl EnergyReport {
    /// Total potential energy.
    pub fn total(&self) -> f64 {
        self.bonded.total() + self.nonbonded.total() + self.recip + self.self_term + self.excluded
    }

    /// The paper's "classic calculation" share: everything except the
    /// k-space PME contributions.
    pub fn classic_part(&self) -> f64 {
        self.bonded.total() + self.nonbonded.total()
    }

    /// The paper's "PME calculation" share.
    pub fn pme_part(&self) -> f64 {
        self.recip + self.self_term + self.excluded
    }
}

/// Reusable evaluator owning the neighbour list and PME state.
pub struct Evaluator {
    model: EnergyModel,
    opts: NonbondedOptions,
    nblist: Option<NeighborList>,
    pme: Option<Pme>,
}

impl Evaluator {
    /// Neighbour-list skin in Angstrom.
    const SKIN: f64 = 2.0;

    /// Creates an evaluator for the given model.
    pub fn new(model: EnergyModel) -> Self {
        let opts = match model {
            EnergyModel::Classic => NonbondedOptions::classic(),
            EnergyModel::Pme(p) => NonbondedOptions::pme_direct(p.beta),
        };
        Evaluator {
            model,
            opts,
            nblist: None,
            pme: None,
        }
    }

    /// The active model.
    pub fn model(&self) -> EnergyModel {
        self.model
    }

    /// The nonbonded options in use.
    pub fn options(&self) -> &NonbondedOptions {
        &self.opts
    }

    /// Ensures the neighbour list is valid for the given coordinates;
    /// returns true if it was (re)built.
    pub(crate) fn refresh_neighbor_list(&mut self, system: &System) -> bool {
        match &mut self.nblist {
            Some(list) => {
                if list.needs_rebuild(&system.pbox, &system.positions) {
                    list.rebuild(&system.topology, &system.pbox, &system.positions);
                    true
                } else {
                    false
                }
            }
            None => {
                self.nblist = Some(NeighborList::build(
                    &system.topology,
                    &system.pbox,
                    &system.positions,
                    self.opts.cutoff,
                    Self::SKIN,
                ));
                true
            }
        }
    }

    /// Read access to the current pair list (after a refresh).
    pub fn pair_list(&self) -> Option<&[(u32, u32)]> {
        self.nblist.as_ref().map(|l| l.pairs.as_slice())
    }

    /// Full energy + force evaluation. Forces are overwritten.
    pub fn evaluate(&mut self, system: &System, forces: &mut [Vec3]) -> (EnergyReport, OpCounts) {
        assert_eq!(forces.len(), system.n_atoms());
        for f in forces.iter_mut() {
            *f = Vec3::ZERO;
        }
        let mut ops = OpCounts::default();
        if self.refresh_neighbor_list(system) {
            ops.list_rebuilds += 1;
        }
        let mut report = EnergyReport::default();

        // Bonded.
        let (bonded, n_terms) =
            bonded_energy_forces(&system.topology, &system.pbox, &system.positions, forces);
        report.bonded = bonded;
        ops.bonded_terms = n_terms;

        // Short-range nonbonded.
        let pairs = self
            .nblist
            .as_ref()
            .expect("list refreshed above")
            .pairs
            .as_slice();
        ops.list_pairs = pairs.len();
        let (nb, evaluated) = nonbonded_energy_forces(
            &system.topology,
            &system.pbox,
            &system.positions,
            pairs,
            &self.opts,
            forces,
        );
        report.nonbonded = nb;
        ops.pairs = evaluated;

        // PME k-space side.
        if let EnergyModel::Pme(params) = self.model {
            let pme = self
                .pme
                .get_or_insert_with(|| Pme::new(params, &system.pbox));
            let (recip, pme_ops) =
                pme.energy_forces(&system.topology, &system.pbox, &system.positions, forces);
            report.recip = recip;
            ops.spread_points = pme_ops.spread_points;
            ops.fft_flops = pme_ops.fft_flops;
            ops.conv_points = pme_ops.conv_points;
            ops.interp_points = pme_ops.interp_points;

            report.self_term = ewald_self_energy(&system.topology, params.beta);
            let (excl, n_excl) = ewald_excluded_correction(
                &system.topology,
                &system.pbox,
                &system.positions,
                params.beta,
                forces,
            );
            report.excluded = excl;
            ops.excl_pairs = n_excl;
        }
        (report, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::water_box;
    use cpc_fft::Dims3;

    #[test]
    fn classic_evaluation_runs_and_is_finite() {
        let sys = water_box(3, 3.1);
        let mut ev = Evaluator::new(EnergyModel::Classic);
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        let (report, ops) = ev.evaluate(&sys, &mut forces);
        assert!(report.total().is_finite());
        assert_eq!(report.pme_part(), 0.0);
        assert!(ops.pairs > 0);
        assert!(ops.bonded_terms > 0);
        assert_eq!(ops.spread_points, 0);
    }

    #[test]
    fn pme_evaluation_has_kspace_terms() {
        let sys = water_box(3, 3.1);
        let params = PmeParams {
            grid: Dims3::new(16, 16, 16),
            order: 4,
            beta: 0.34,
        };
        let mut ev = Evaluator::new(EnergyModel::Pme(params));
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        let (report, ops) = ev.evaluate(&sys, &mut forces);
        assert!(report.recip > 0.0, "recip {}", report.recip);
        assert!(report.self_term < 0.0);
        assert!(ops.fft_flops > 0.0);
        assert!(ops.excl_pairs > 0);
    }

    #[test]
    fn forces_sum_to_zero() {
        // All interactions are internal: net force must vanish — exactly
        // for the pairwise classic model, and up to the well-known
        // interpolation noise for smooth PME (which does not conserve
        // momentum exactly).
        let sys = water_box(3, 3.1);
        for model in [
            EnergyModel::Classic,
            EnergyModel::Pme(PmeParams {
                grid: Dims3::new(16, 16, 16),
                order: 4,
                beta: 0.34,
            }),
        ] {
            let mut ev = Evaluator::new(model);
            let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
            ev.evaluate(&sys, &mut forces);
            let net: Vec3 = forces.iter().fold(Vec3::ZERO, |a, &f| a + f);
            let total: f64 = forces.iter().map(|f| f.norm()).sum();
            let tol = match model {
                EnergyModel::Classic => 1e-6,
                EnergyModel::Pme(_) => 1e-3 * total,
            };
            assert!(
                net.norm() < tol,
                "model {model:?}: net {net:?} (sum |F| {total})"
            );
        }
    }

    #[test]
    fn repeated_evaluation_is_stable() {
        let sys = water_box(2, 3.1);
        let mut ev = Evaluator::new(EnergyModel::Classic);
        let mut f1 = vec![Vec3::ZERO; sys.n_atoms()];
        let (r1, _) = ev.evaluate(&sys, &mut f1);
        let mut f2 = vec![Vec3::ZERO; sys.n_atoms()];
        let (r2, ops2) = ev.evaluate(&sys, &mut f2);
        assert_eq!(r1.total(), r2.total());
        assert_eq!(f1, f2);
        // Second evaluation must not rebuild the list.
        assert_eq!(ops2.list_rebuilds, 0);
    }
}

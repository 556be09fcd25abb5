//! Nonbonded pair interactions: Lennard-Jones with a CHARMM switching
//! function and electrostatics in either CHARMM shifted form (the
//! "classic" model of the paper, electrostatics shifted to zero at
//! 10 Angstrom) or Ewald direct-space form (the short-range half of the
//! PME model).

use crate::forcefield::AtomClass;
use crate::pbc::PbcBox;
use crate::special::{erf_batch, erfc_batch};
use crate::topology::Topology;
use crate::units::COULOMB;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Electrostatics treatment for the pair loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ElecMethod {
    /// No electrostatics (vdW only).
    None,
    /// CHARMM energy-shifted Coulomb: `E = C q q / r (1 - (r/roff)^2)^2`.
    Shift,
    /// Ewald/PME direct space: `E = C q q erfc(beta r)/r`.
    EwaldDirect {
        /// Ewald splitting parameter in 1/Angstrom.
        beta: f64,
    },
}

/// Options for the nonbonded evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NonbondedOptions {
    /// Outer cutoff `roff` in Angstrom (10 A in the paper).
    pub cutoff: f64,
    /// Inner switching radius `ron` for the vdW switching function.
    pub switch_on: f64,
    /// Electrostatics treatment.
    pub elec: ElecMethod,
}

impl NonbondedOptions {
    /// The paper's classic model: both terms cut at 10 A, vdW switched
    /// from 8 A, electrostatics shifted.
    pub fn classic() -> Self {
        NonbondedOptions {
            cutoff: 10.0,
            switch_on: 8.0,
            elec: ElecMethod::Shift,
        }
    }

    /// The short-range half of the paper's PME model with splitting
    /// parameter `beta`.
    pub fn pme_direct(beta: f64) -> Self {
        NonbondedOptions {
            cutoff: 10.0,
            switch_on: 8.0,
            elec: ElecMethod::EwaldDirect { beta },
        }
    }
}

/// Nonbonded energy components in kcal/mol.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NonbondedEnergies {
    /// Lennard-Jones energy.
    pub vdw: f64,
    /// Electrostatic energy (per the selected method).
    pub elec: f64,
}

impl NonbondedEnergies {
    /// Sum of components.
    pub fn total(&self) -> f64 {
        self.vdw + self.elec
    }

    /// Bit-exact ABFT digest of the partial energies (see [`crate::abft`]).
    pub fn abft_digest(&self) -> u64 {
        crate::abft::scalar_digest(&[self.vdw, self.elec])
    }
}

/// CHARMM switching function and derivative on `[ron, roff]`.
///
/// Returns `(S, dS/dr)`; `S = 1` below `ron` and `0` above `roff`.
#[inline]
pub fn switch_fn(r: f64, ron: f64, roff: f64) -> (f64, f64) {
    Switch::new(ron, roff).eval(r)
}

/// [`switch_fn`] with everything that does not depend on `r` computed
/// once.
struct Switch {
    ron: f64,
    roff: f64,
    ron2: f64,
    roff2: f64,
    denom: f64,
}

impl Switch {
    fn new(ron: f64, roff: f64) -> Self {
        let ron2 = ron * ron;
        let roff2 = roff * roff;
        Switch {
            ron,
            roff,
            ron2,
            roff2,
            denom: (roff2 - ron2).powi(3),
        }
    }

    #[inline]
    fn eval(&self, r: f64) -> (f64, f64) {
        if r <= self.ron {
            (1.0, 0.0)
        } else if r >= self.roff {
            (0.0, 0.0)
        } else {
            let Switch {
                ron2, roff2, denom, ..
            } = *self;
            let r2 = r * r;
            let a = roff2 - r2;
            let s = a * a * (roff2 + 2.0 * r2 - 3.0 * ron2) / denom;
            let ds = -12.0 * r * a * (r2 - ron2) / denom;
            (s, ds)
        }
    }
}

/// Pair parameters `(eps_ij, rmin_ij)` of every class pair, indexed by
/// `AtomClass as usize`.
fn lj_pair_table() -> [[(f64, f64); AtomClass::ALL.len()]; AtomClass::ALL.len()] {
    AtomClass::ALL.map(|a| AtomClass::ALL.map(|b| a.lj().combine(b.lj())))
}

/// Pairs gathered, batched and accumulated at a time: large enough
/// that a partly filled last flush of [`erfc_batch`] is a few percent
/// of a tile's arguments, small enough that the tile stays in L1.
const TILE: usize = 256;

/// The interacting pairs of one stretch of a pair list, in list order,
/// on the stack.
struct Tile {
    len: usize,
    i: [u32; TILE],
    j: [u32; TILE],
    d: [Vec3; TILE],
    r2: [f64; TILE],
    r: [f64; TILE],
    qq: [f64; TILE],
    /// `beta * r` of the pairs that need `erf`/`erfc` of it, in the
    /// same order, and beside it what the batch returned.
    charged: usize,
    br: [f64; TILE],
    special: [f64; TILE],
    gauss: [f64; TILE],
}

impl Tile {
    fn new() -> Self {
        Tile {
            len: 0,
            i: [0; TILE],
            j: [0; TILE],
            d: [Vec3::ZERO; TILE],
            r2: [0.0; TILE],
            r: [0.0; TILE],
            qq: [0.0; TILE],
            charged: 0,
            br: [0.0; TILE],
            special: [0.0; TILE],
            gauss: [0.0; TILE],
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.charged = 0;
    }

    #[inline]
    fn push(&mut self, i: u32, j: u32, d: Vec3, r2: f64, r: f64, qq: f64) {
        let n = self.len;
        (self.i[n], self.j[n]) = (i, j);
        (self.d[n], self.r2[n], self.r[n], self.qq[n]) = (d, r2, r, qq);
        self.len += 1;
    }

    #[inline]
    fn push_charged(&mut self, br: f64) {
        self.br[self.charged] = br;
        self.charged += 1;
    }

    /// Runs `batch` (`erf_batch` or `erfc_batch`) over the queued
    /// `beta * r`.
    fn evaluate(&mut self, batch: fn(&[f64], &mut [f64], &mut [f64])) {
        let q = self.charged;
        batch(&self.br[..q], &mut self.special[..q], &mut self.gauss[..q]);
    }
}

/// Evaluates the nonbonded interactions over an explicit pair list,
/// accumulating forces. Returns energies and the number of pairs whose
/// interaction was actually computed (within the cutoff) — the figure
/// the cost model charges for.
///
/// The list is walked a tile at a time in three passes — gather the
/// in-cutoff pairs, evaluate `erfc` for all of them side by side,
/// accumulate in list order — so the one expensive function runs in
/// lanes while every sum keeps the order of a plain pair loop
/// (DESIGN.md §20).
pub fn nonbonded_energy_forces(
    topo: &Topology,
    pbox: &PbcBox,
    positions: &[Vec3],
    pairs: &[(u32, u32)],
    opts: &NonbondedOptions,
    forces: &mut [Vec3],
) -> (NonbondedEnergies, usize) {
    let cutoff2 = opts.cutoff * opts.cutoff;
    let lj = lj_pair_table();
    let switch = Switch::new(opts.switch_on, opts.cutoff);
    // Read by `EwaldDirect` only.
    let two_beta_over_sqrt_pi = match opts.elec {
        ElecMethod::EwaldDirect { beta } => 2.0 * beta / PI.sqrt(),
        _ => 0.0,
    };
    let mut e = NonbondedEnergies::default();
    let mut evaluated = 0usize;
    let mut tile = Tile::new();

    for chunk in pairs.chunks(TILE) {
        // Gather.
        tile.clear();
        for &(i, j) in chunk {
            let d = pbox.min_image(positions[i as usize], positions[j as usize]);
            let r2 = d.norm_sqr();
            if r2 >= cutoff2 {
                continue;
            }
            let r = r2.sqrt();
            let qq = COULOMB * topo.atoms[i as usize].charge * topo.atoms[j as usize].charge;
            tile.push(i, j, d, r2, r, qq);
            if let ElecMethod::EwaldDirect { beta } = opts.elec {
                if qq != 0.0 {
                    tile.push_charged(beta * r);
                }
            }
        }
        evaluated += tile.len;

        // Batch.
        tile.evaluate(erfc_batch);

        // Accumulate, strictly in list order.
        let mut charged = 0;
        for n in 0..tile.len {
            let (i, j) = (tile.i[n] as usize, tile.j[n] as usize);
            let (d, r2, r, qq) = (tile.d[n], tile.r2[n], tile.r[n], tile.qq[n]);

            // Lennard-Jones with switching.
            let (eps, rmin) = lj[topo.atoms[i].class as usize][topo.atoms[j].class as usize];
            let u = (rmin * rmin / r2).powi(3);
            let e_lj = eps * (u * u - 2.0 * u);
            let de_lj = -12.0 * eps * u * (u - 1.0) / r;
            let (s, ds) = switch.eval(r);
            e.vdw += e_lj * s;
            let mut de_dr = de_lj * s + e_lj * ds;

            // Electrostatics.
            if qq != 0.0 {
                match opts.elec {
                    ElecMethod::None => {}
                    ElecMethod::Shift => {
                        let roff2 = cutoff2;
                        let t = 1.0 - r2 / roff2;
                        e.elec += qq * t * t / r;
                        de_dr += qq * (-t * t / r2 - 4.0 * t / roff2);
                    }
                    ElecMethod::EwaldDirect { .. } => {
                        let (ec, gauss) = (tile.special[charged], tile.gauss[charged]);
                        charged += 1;
                        e.elec += qq * ec / r;
                        de_dr += qq * (-ec / r2 - two_beta_over_sqrt_pi * gauss / r);
                    }
                }
            }

            // F_i = -dE/dr * d/r.
            let f = d * (-de_dr / r);
            forces[i] += f;
            forces[j] -= f;
        }
    }
    (e, evaluated)
}

/// Correction removing the reciprocal-space contribution of excluded
/// pairs (PME includes *all* pairs in k-space): `E = -C q q erf(beta r)/r`
/// per excluded pair, with matching forces. Returns `(energy, n_pairs)`.
pub fn ewald_excluded_correction(
    topo: &Topology,
    pbox: &PbcBox,
    positions: &[Vec3],
    beta: f64,
    forces: &mut [Vec3],
) -> (f64, usize) {
    ewald_excluded_correction_range(topo, pbox, positions, beta, 0..topo.atoms.len(), forces)
}

/// [`ewald_excluded_correction`] restricted to the excluded pairs
/// `(i, j)`, `i < j`, whose `i` lies in `atoms` — the parallel
/// decompositions give each rank a contiguous atom block.
pub fn ewald_excluded_correction_range(
    topo: &Topology,
    pbox: &PbcBox,
    positions: &[Vec3],
    beta: f64,
    atoms: std::ops::Range<usize>,
    forces: &mut [Vec3],
) -> (f64, usize) {
    let two_beta_over_sqrt_pi = 2.0 * beta / PI.sqrt();
    let mut energy = 0.0;
    let mut count = 0usize;
    let mut tile = Tile::new();
    let mut flush = |tile: &mut Tile| {
        tile.evaluate(erf_batch);
        for n in 0..tile.len {
            let (i, j) = (tile.i[n] as usize, tile.j[n] as usize);
            let (d, r2, r, qq) = (tile.d[n], tile.r2[n], tile.r[n], tile.qq[n]);
            let (ef, gauss) = (tile.special[n], tile.gauss[n]);
            energy -= qq * ef / r;
            // E = -A erf(beta r)/r; dE/dr = -A (2 beta/sqrt(pi) e^{-b^2 r^2}/r - erf/r^2).
            let de_dr = -qq * (two_beta_over_sqrt_pi * gauss / r - ef / r2);
            let f = d * (-de_dr / r);
            forces[i] += f;
            forces[j] -= f;
        }
        count += tile.len;
        tile.clear();
    };
    for i in atoms {
        for &j in &topo.exclusions[i] {
            let qq = COULOMB * topo.atoms[i].charge * topo.atoms[j as usize].charge;
            if qq == 0.0 {
                continue;
            }
            let d = pbox.min_image(positions[i], positions[j as usize]);
            let r2 = d.norm_sqr();
            let r = r2.sqrt();
            tile.push(i as u32, j, d, r2, r, qq);
            tile.push_charged(beta * r);
            if tile.len == TILE {
                flush(&mut tile);
            }
        }
    }
    flush(&mut tile);
    (energy, count)
}

/// Ewald self-energy: `-C beta/sqrt(pi) * sum q_i^2` (position
/// independent, no force).
pub fn ewald_self_energy(topo: &Topology, beta: f64) -> f64 {
    let q2: f64 = topo.atoms.iter().map(|a| a.charge * a.charge).sum();
    -COULOMB * beta / PI.sqrt() * q2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::{erf, erfc};
    use crate::topology::Atom;

    fn two_atom_topo(q1: f64, q2: f64) -> Topology {
        let mut topo = Topology {
            atoms: vec![
                Atom {
                    class: AtomClass::OW,
                    charge: q1,
                },
                Atom {
                    class: AtomClass::OW,
                    charge: q2,
                },
            ],
            ..Default::default()
        };
        topo.rebuild_exclusions();
        topo
    }

    fn pair_energy(topo: &Topology, sep: f64, opts: &NonbondedOptions) -> (f64, Vec<Vec3>) {
        let pbox = PbcBox::new(50.0, 50.0, 50.0);
        let positions = vec![
            Vec3::new(10.0, 10.0, 10.0),
            Vec3::new(10.0 + sep, 10.0, 10.0),
        ];
        let mut forces = vec![Vec3::ZERO; 2];
        let (e, _) = nonbonded_energy_forces(topo, &pbox, &positions, &[(0, 1)], opts, &mut forces);
        (e.total(), forces)
    }

    #[test]
    fn switch_function_boundaries() {
        let (s, ds) = switch_fn(7.0, 8.0, 10.0);
        assert_eq!((s, ds), (1.0, 0.0));
        let (s, ds) = switch_fn(10.0, 8.0, 10.0);
        assert_eq!((s, ds), (0.0, 0.0));
        // Continuity at ron and roff.
        let (s, _) = switch_fn(8.0 + 1e-9, 8.0, 10.0);
        assert!((s - 1.0).abs() < 1e-7);
        let (s, _) = switch_fn(10.0 - 1e-9, 8.0, 10.0);
        assert!(s.abs() < 1e-7);
    }

    #[test]
    fn switch_derivative_matches_numeric() {
        for &r in &[8.3, 9.0, 9.7] {
            let h = 1e-7;
            let (sp, _) = switch_fn(r + h, 8.0, 10.0);
            let (sm, _) = switch_fn(r - h, 8.0, 10.0);
            let (_, ds) = switch_fn(r, 8.0, 10.0);
            assert!((ds - (sp - sm) / (2.0 * h)).abs() < 1e-6, "r={r}");
        }
    }

    #[test]
    fn lj_minimum_at_rmin() {
        let topo = two_atom_topo(0.0, 0.0);
        let rmin = 2.0 * AtomClass::OW.lj().rmin_half;
        let opts = NonbondedOptions {
            cutoff: 12.0,
            switch_on: 11.0,
            elec: ElecMethod::None,
        };
        let (e_min, forces) = pair_energy(&topo, rmin, &opts);
        assert!(
            (e_min + AtomClass::OW.lj().eps).abs() < 1e-9,
            "well depth at rmin"
        );
        assert!(forces[0].norm() < 1e-9, "zero force at minimum");
        // Energy rises on either side.
        let (e_lo, _) = pair_energy(&topo, rmin - 0.1, &opts);
        let (e_hi, _) = pair_energy(&topo, rmin + 0.1, &opts);
        assert!(e_lo > e_min && e_hi > e_min);
    }

    #[test]
    fn forces_match_numerical_gradient_all_methods() {
        let methods = [
            ElecMethod::None,
            ElecMethod::Shift,
            ElecMethod::EwaldDirect { beta: 0.32 },
        ];
        let topo = two_atom_topo(0.417, -0.834);
        for elec in methods {
            let opts = NonbondedOptions {
                cutoff: 10.0,
                switch_on: 8.0,
                elec,
            };
            for &sep in &[2.5, 5.0, 8.5, 9.5] {
                let h = 1e-6;
                let (ep, _) = pair_energy(&topo, sep + h, &opts);
                let (em, _) = pair_energy(&topo, sep - h, &opts);
                let numeric = -(ep - em) / (2.0 * h);
                let (_, forces) = pair_energy(&topo, sep, &opts);
                // Force on atom 1 along +x equals -dE/dsep.
                assert!(
                    (forces[1].x - numeric).abs() < 1e-5,
                    "elec={elec:?} sep={sep}: {} vs {numeric}",
                    forces[1].x
                );
            }
        }
    }

    #[test]
    fn shift_energy_is_zero_at_cutoff() {
        let topo = two_atom_topo(1.0, 1.0);
        let opts = NonbondedOptions {
            cutoff: 10.0,
            switch_on: 8.0,
            elec: ElecMethod::Shift,
        };
        let (e, _) = pair_energy(&topo, 9.999999, &opts);
        // vdW is fully switched off and shifted elec goes to zero.
        assert!(e.abs() < 1e-9);
    }

    #[test]
    fn pairs_beyond_cutoff_are_skipped() {
        let topo = two_atom_topo(1.0, -1.0);
        let pbox = PbcBox::new(50.0, 50.0, 50.0);
        let positions = vec![Vec3::ZERO, Vec3::new(15.0, 0.0, 0.0)];
        let mut forces = vec![Vec3::ZERO; 2];
        let opts = NonbondedOptions::classic();
        let (e, n) =
            nonbonded_energy_forces(&topo, &pbox, &positions, &[(0, 1)], &opts, &mut forces);
        assert_eq!(n, 0);
        assert_eq!(e.total(), 0.0);
        assert_eq!(forces[0], Vec3::ZERO);
    }

    #[test]
    fn ewald_direct_plus_excluded_correction_is_continuous() {
        // For an excluded pair, erfc part is not computed in the pair
        // loop; the exclusion correction must equal minus the full
        // k-space 1/r minus nothing — check the identity
        // erfc(x)/r = 1/r - erf(x)/r at the formula level.
        let beta = 0.3;
        let r = 2.0;
        let full = 1.0 / r;
        let direct = erfc(beta * r) / r;
        let recip_of_pair = erf(beta * r) / r;
        assert!((direct + recip_of_pair - full).abs() < 1e-12);
    }

    #[test]
    fn self_energy_scales_with_charges() {
        let topo1 = two_atom_topo(1.0, 0.0);
        let topo2 = two_atom_topo(2.0, 0.0);
        let e1 = ewald_self_energy(&topo1, 0.3);
        let e2 = ewald_self_energy(&topo2, 0.3);
        assert!(e1 < 0.0);
        assert!((e2 - 4.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn excluded_correction_forces_match_numeric() {
        let mut topo = two_atom_topo(0.5, -0.4);
        // Make the pair excluded via a bond.
        topo.bonds.push(crate::topology::Bond {
            i: 0,
            j: 1,
            param: crate::forcefield::params::BOND_XH,
        });
        topo.rebuild_exclusions();
        let pbox = PbcBox::new(40.0, 40.0, 40.0);
        let beta = 0.34;
        let base = vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(6.1, 5.4, 5.2)];
        let mut forces = vec![Vec3::ZERO; 2];
        ewald_excluded_correction(&topo, &pbox, &base, beta, &mut forces);
        let h = 1e-6;
        for c in 0..3 {
            let mut plus = base.clone();
            let mut minus = base.clone();
            plus[0][c] += h;
            minus[0][c] -= h;
            let mut dummy = vec![Vec3::ZERO; 2];
            let (ep, _) = ewald_excluded_correction(&topo, &pbox, &plus, beta, &mut dummy);
            let mut dummy = vec![Vec3::ZERO; 2];
            let (em, _) = ewald_excluded_correction(&topo, &pbox, &minus, beta, &mut dummy);
            let numeric = -(ep - em) / (2.0 * h);
            assert!((forces[0][c] - numeric).abs() < 1e-6, "component {c}");
        }
    }
}

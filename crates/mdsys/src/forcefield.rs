//! CHARMM-style force-field parameter types and the Lennard-Jones
//! parameter classes used by the synthetic systems.
//!
//! Functional forms (CHARMM conventions, no factor 1/2 on harmonics):
//!
//! * bond:      `E = k (r - r0)^2`
//! * angle:     `E = k (theta - theta0)^2`
//! * dihedral:  `E = k (1 + cos(n phi - delta))`
//! * improper:  `E = k (psi - psi0)^2`
//! * LJ:        `E = eps [ (rmin/r)^12 - 2 (rmin/r)^6 ]`
//!   with Lorentz-Berthelot-style combination
//!   `rmin_ij = rmin_i/2 + rmin_j/2`, `eps_ij = sqrt(eps_i eps_j)`.

use serde::{Deserialize, Serialize};

/// Harmonic bond parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BondParam {
    /// Force constant in kcal/(mol*A^2).
    pub k: f64,
    /// Equilibrium length in Angstrom.
    pub r0: f64,
}

/// Harmonic angle parameters, with CHARMM's optional Urey-Bradley
/// 1-3 term: `E = k (theta - theta0)^2 + kub (s - s0)^2` where `s` is
/// the i..k distance. `kub = 0` disables the UB component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AngleParam {
    /// Force constant in kcal/(mol*rad^2).
    pub k: f64,
    /// Equilibrium angle in radians.
    pub theta0: f64,
    /// Urey-Bradley force constant in kcal/(mol*A^2) (0 = off).
    pub kub: f64,
    /// Urey-Bradley equilibrium 1-3 distance in Angstrom.
    pub s0: f64,
}

impl AngleParam {
    /// Pure harmonic angle without a UB component.
    pub(crate) const fn harmonic(k: f64, theta0: f64) -> Self {
        AngleParam {
            k,
            theta0,
            kub: 0.0,
            s0: 0.0,
        }
    }

    /// CHARMM angle with a Urey-Bradley 1-3 spring.
    pub(crate) const fn with_ub(k: f64, theta0: f64, kub: f64, s0: f64) -> Self {
        AngleParam { k, theta0, kub, s0 }
    }
}

/// Cosine dihedral parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DihedralParam {
    /// Barrier height in kcal/mol.
    pub k: f64,
    /// Multiplicity.
    pub n: u32,
    /// Phase in radians.
    pub delta: f64,
}

/// Harmonic improper parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImproperParam {
    /// Force constant in kcal/(mol*rad^2).
    pub k: f64,
    /// Equilibrium out-of-plane angle in radians.
    pub psi0: f64,
}

/// Per-atom Lennard-Jones parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LjParam {
    /// Well depth in kcal/mol (stored positive).
    pub eps: f64,
    /// Half of the LJ minimum distance, `rmin/2`, in Angstrom.
    pub rmin_half: f64,
}

impl LjParam {
    /// Combines two per-atom parameter sets into pair parameters
    /// `(eps_ij, rmin_ij)` using CHARMM combination rules.
    #[inline]
    pub fn combine(self, other: LjParam) -> (f64, f64) {
        (
            (self.eps * other.eps).sqrt(),
            self.rmin_half + other.rmin_half,
        )
    }
}

/// Lennard-Jones classes for the synthetic systems. Values are in the
/// range of the CHARMM22 all-atom parameter set for the corresponding
/// element/environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AtomClass {
    /// Carbonyl / aromatic carbon.
    C,
    /// Aliphatic (tetrahedral) carbon.
    CT,
    /// Amide / amine nitrogen.
    N,
    /// Polar hydrogen (bonded to N or O).
    H,
    /// Nonpolar hydrogen (bonded to carbon).
    HA,
    /// Carbonyl / carboxylate oxygen.
    O,
    /// Water oxygen (TIP3P-like).
    OW,
    /// Water hydrogen (TIP3P-like).
    HW,
    /// Sulfur.
    S,
}

impl AtomClass {
    /// Every class, in declaration order (`ALL[c as usize] == c`).
    pub const ALL: [AtomClass; 9] = [
        AtomClass::C,
        AtomClass::CT,
        AtomClass::N,
        AtomClass::H,
        AtomClass::HA,
        AtomClass::O,
        AtomClass::OW,
        AtomClass::HW,
        AtomClass::S,
    ];

    /// Lennard-Jones parameters for this class.
    pub fn lj(self) -> LjParam {
        match self {
            AtomClass::C => LjParam {
                eps: 0.110,
                rmin_half: 2.000,
            },
            AtomClass::CT => LjParam {
                eps: 0.080,
                rmin_half: 2.060,
            },
            AtomClass::N => LjParam {
                eps: 0.200,
                rmin_half: 1.850,
            },
            AtomClass::H => LjParam {
                eps: 0.046,
                rmin_half: 0.2245,
            },
            AtomClass::HA => LjParam {
                eps: 0.022,
                rmin_half: 1.320,
            },
            AtomClass::O => LjParam {
                eps: 0.120,
                rmin_half: 1.700,
            },
            AtomClass::OW => LjParam {
                eps: 0.1521,
                rmin_half: 1.7682,
            },
            AtomClass::HW => LjParam {
                eps: 0.046,
                rmin_half: 0.2245,
            },
            AtomClass::S => LjParam {
                eps: 0.450,
                rmin_half: 2.000,
            },
        }
    }

    /// Atomic mass in amu.
    pub fn mass(self) -> f64 {
        match self {
            AtomClass::C | AtomClass::CT => 12.011,
            AtomClass::N => 14.007,
            AtomClass::H | AtomClass::HA | AtomClass::HW => 1.008,
            AtomClass::O | AtomClass::OW => 15.999,
            AtomClass::S => 32.06,
        }
    }
}

/// Library of bonded parameters used by the synthetic system builders.
pub mod params {
    use super::*;
    use std::f64::consts::PI;

    /// Generic heavy-atom/heavy-atom bond.
    pub const BOND_HEAVY: BondParam = BondParam { k: 300.0, r0: 1.5 };
    /// Peptide C-N bond.
    pub(crate) const BOND_PEPTIDE: BondParam = BondParam { k: 370.0, r0: 1.33 };
    /// X-H bond.
    pub(crate) const BOND_XH: BondParam = BondParam { k: 450.0, r0: 1.0 };
    /// C=O bond.
    pub(crate) const BOND_CO_DOUBLE: BondParam = BondParam { k: 620.0, r0: 1.23 };
    /// Water O-H bond (TIP3P flexible).
    pub(crate) const BOND_WATER_OH: BondParam = BondParam {
        k: 450.0,
        r0: 0.9572,
    };
    /// Carbon monoxide C=O bond.
    pub(crate) const BOND_CARBON_MONOXIDE: BondParam = BondParam {
        k: 1115.0,
        r0: 1.128,
    };
    /// Sulfate S-O bond.
    pub(crate) const BOND_SULFATE: BondParam = BondParam { k: 540.0, r0: 1.48 };

    /// Generic heavy-atom angle (tetrahedral-ish).
    pub const ANGLE_HEAVY: AngleParam = AngleParam::harmonic(50.0, 1.911);
    /// Backbone angle around CA.
    pub(crate) const ANGLE_BACKBONE: AngleParam = AngleParam::with_ub(60.0, 1.939, 12.0, 2.4);
    /// Angle involving hydrogen.
    pub(crate) const ANGLE_XH: AngleParam = AngleParam::harmonic(35.0, 1.911);
    /// Water H-O-H angle (TIP3P flexible).
    pub(crate) const ANGLE_WATER: AngleParam = AngleParam::harmonic(55.0, 1.82421813);
    /// Sulfate O-S-O angle (tetrahedral).
    pub(crate) const ANGLE_SULFATE: AngleParam = AngleParam::harmonic(140.0, 1.9106332);

    /// Backbone phi/psi-style dihedral.
    pub const DIHEDRAL_BACKBONE: DihedralParam = DihedralParam {
        k: 0.6,
        n: 3,
        delta: 0.0,
    };
    /// Sidechain chain dihedral.
    pub(crate) const DIHEDRAL_SIDECHAIN: DihedralParam = DihedralParam {
        k: 0.2,
        n: 3,
        delta: 0.0,
    };
    /// Peptide omega dihedral (trans planar).
    pub(crate) const DIHEDRAL_OMEGA: DihedralParam = DihedralParam {
        k: 2.5,
        n: 2,
        delta: PI,
    };

    /// Planarity improper on carbonyl carbons.
    pub(crate) const IMPROPER_CARBONYL: ImproperParam = ImproperParam {
        k: 120.0,
        psi0: 0.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_rules() {
        let a = LjParam {
            eps: 0.04,
            rmin_half: 1.0,
        };
        let b = LjParam {
            eps: 0.09,
            rmin_half: 2.0,
        };
        let (eps, rmin) = a.combine(b);
        assert!((eps - 0.06).abs() < 1e-12);
        assert!((rmin - 3.0).abs() < 1e-12);
    }

    #[test]
    fn combine_is_symmetric() {
        let a = AtomClass::C.lj();
        let b = AtomClass::OW.lj();
        assert_eq!(a.combine(b), b.combine(a));
    }

    #[test]
    fn masses_are_physical() {
        for (index, class) in AtomClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, index);
            assert!(class.mass() >= 1.0 && class.mass() <= 33.0);
            assert!(class.lj().eps > 0.0);
            assert!(class.lj().rmin_half > 0.0);
        }
    }

    #[test]
    fn water_angle_is_about_104_5_degrees() {
        let deg = params::ANGLE_WATER.theta0.to_degrees();
        assert!((deg - 104.52).abs() < 0.01);
    }
}

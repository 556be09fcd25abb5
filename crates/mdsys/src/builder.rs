//! Synthetic system builders.
//!
//! The paper's workload is myoglobin (153 residues, alpha-helical) with
//! a carbon monoxide molecule, 337 waters and one sulfate ion — 3552
//! atoms, PME grid 80 x 36 x 48. We cannot redistribute CHARMM input
//! files, so [`myoglobin_system_with`] generates a myoglobin-*class* system:
//! the same atom count, the same box/grid, an 8-helix bundle of 153
//! residues with pseudo-sidechains, the same solvation-shell setup.
//! Workload characterization depends on atom count, pair density within
//! the 10 A cutoff and the FFT grid — all of which are matched.

use crate::forcefield::{params, AtomClass};
use crate::pbc::PbcBox;
use crate::system::System;
use crate::topology::{Angle, Atom, Bond, Dihedral, Improper, Topology};
use crate::vec3::Vec3;

/// Total atom count of the paper's molecular system.
pub const MYOGLOBIN_ATOMS: usize = 3552;
/// Residue count of myoglobin.
pub const MYOGLOBIN_RESIDUES: usize = 153;
/// Number of water molecules in the paper's setup.
pub const MYOGLOBIN_WATERS: usize = 337;

/// Box edge lengths matched to the paper's 80 x 36 x 48 PME grid
/// (mesh spacings 0.75 / 1.0 / 1.0 A).
pub(crate) const MYOGLOBIN_BOX: (f64, f64, f64) = (60.0, 36.0, 48.0);

/// Builds a periodic box of flexible TIP3P-like waters on a cubic
/// lattice: `n_side^3` molecules spaced by `spacing`.
///
/// The box is padded to at least 24.2 A per edge so the standard 10 A
/// cutoff plus 2 A skin remains valid for small lattices.
pub fn water_box(n_side: usize, spacing: f64) -> System {
    assert!(n_side > 0 && spacing > 2.5, "waters would overlap");
    let extent = n_side as f64 * spacing;
    let edge = (extent).max(24.2);
    let pbox = PbcBox::new(edge, edge, edge);

    let mut topo = Topology::default();
    let mut positions = Vec::new();
    let mut idx = 0usize;
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let o = Vec3::new(
                    (ix as f64 + 0.5) * spacing,
                    (iy as f64 + 0.5) * spacing,
                    (iz as f64 + 0.5) * spacing,
                );
                add_water(&mut topo, &mut positions, o, idx);
                idx += 1;
            }
        }
    }
    topo.rebuild_exclusions();
    System::new(topo, pbox, positions)
}

/// Appends one water molecule at oxygen position `o`, orientation
/// varied deterministically by `index`.
fn add_water(topo: &mut Topology, positions: &mut Vec<Vec3>, o: Vec3, index: usize) {
    let base = topo.atoms.len();
    topo.atoms.push(Atom {
        class: AtomClass::OW,
        charge: -0.834,
    });
    topo.atoms.push(Atom {
        class: AtomClass::HW,
        charge: 0.417,
    });
    topo.atoms.push(Atom {
        class: AtomClass::HW,
        charge: 0.417,
    });

    // Rotate the H-O-H plane by an index-dependent angle so the lattice
    // is not artificially aligned.
    let phi = index as f64 * 2.399963; // golden angle
    let half = params::ANGLE_WATER.theta0 / 2.0;
    let r = params::BOND_WATER_OH.r0;
    let (s, c) = phi.sin_cos();
    let e1 = Vec3::new(c, s, 0.0);
    let e2 = Vec3::new(-s * 0.6, c * 0.6, 0.8);
    let h1 = o + (e1 * half.cos() + e2 * half.sin()) * r;
    let h2 = o + (e1 * half.cos() - e2 * half.sin()) * r;
    positions.push(o);
    positions.push(h1);
    positions.push(h2);

    topo.bonds.push(Bond {
        i: base,
        j: base + 1,
        param: params::BOND_WATER_OH,
    });
    topo.bonds.push(Bond {
        i: base,
        j: base + 2,
        param: params::BOND_WATER_OH,
    });
    topo.angles.push(Angle {
        i: base + 1,
        j: base,
        k: base + 2,
        param: params::ANGLE_WATER,
    });
}

/// Options for the myoglobin-class builder.
#[derive(Debug, Clone, Copy)]
pub struct MyoglobinOptions {
    /// Steepest-descent steps run after assembly to relax synthetic
    /// contacts (0 = raw geometry).
    pub minimize_steps: usize,
    /// Temperature for the initial Maxwell-Boltzmann velocities (K).
    pub temperature: f64,
    /// RNG seed for velocities.
    pub seed: u64,
}

impl Default for MyoglobinOptions {
    fn default() -> Self {
        MyoglobinOptions {
            minimize_steps: 150,
            temperature: 300.0,
            seed: 2002,
        }
    }
}

/// Builds the raw (unrelaxed, zero-velocity) system — cheap enough for
/// debug-mode tests.
pub fn myoglobin_raw() -> System {
    myoglobin_system_with(MyoglobinOptions {
        minimize_steps: 0,
        temperature: 0.0,
        seed: 0,
    })
}

/// Builds the myoglobin-class system with explicit options.
pub fn myoglobin_system_with(opts: MyoglobinOptions) -> System {
    let (lx, ly, lz) = MYOGLOBIN_BOX;
    let pbox = PbcBox::new(lx, ly, lz);
    let mut topo = Topology::default();
    let mut positions: Vec<Vec3> = Vec::with_capacity(MYOGLOBIN_ATOMS);

    build_protein(&mut topo, &mut positions);
    let protein_atoms = topo.atoms.len();
    debug_assert_eq!(protein_atoms, 2534);

    // Candidate solvent sites on a 3.1 A lattice, kept clear of the
    // protein.
    let sites = solvent_sites(&pbox, &positions);

    // Carbon monoxide in the first free pocket.
    add_carbon_monoxide(&mut topo, &mut positions, sites[0]);
    // Sulfate in the second.
    add_sulfate(&mut topo, &mut positions, sites[1]);
    // 337 waters fill the remaining sites in scan order.
    for (w, &site) in sites[2..].iter().take(MYOGLOBIN_WATERS).enumerate() {
        add_water(&mut topo, &mut positions, site, w);
    }
    assert_eq!(
        topo.atoms.len(),
        MYOGLOBIN_ATOMS,
        "builder produced {} atoms (need more solvent sites?)",
        topo.atoms.len()
    );
    topo.rebuild_exclusions();
    topo.validate().expect("generated topology is valid");

    relieve_clashes(&topo, &pbox, &mut positions, 0.9, 60);

    let mut system = System::new(topo, pbox, positions);
    if opts.minimize_steps > 0 {
        crate::minimize::minimize(
            &mut system,
            crate::energy::EnergyModel::Classic,
            opts.minimize_steps,
        );
    }
    if opts.temperature > 0.0 {
        system.assign_velocities(opts.temperature, opts.seed);
    }
    system
}

/// 153 residues in an 8-helix bundle; 2534 atoms.
fn build_protein(topo: &mut Topology, positions: &mut Vec<Vec3>) {
    // Helix axis anchors (x = along the helix).
    let anchors = [
        (12.5, 9.0),
        (12.5, 19.5),
        (12.5, 30.0),
        (12.5, 40.5),
        (23.5, 9.0),
        (23.5, 19.5),
        (23.5, 30.0),
        (23.5, 40.5),
    ];
    let helix_lengths = [19usize, 19, 19, 19, 19, 19, 19, 20];
    debug_assert_eq!(helix_lengths.iter().sum::<usize>(), MYOGLOBIN_RESIDUES);

    let mut residue = 0usize;
    for (h, (&(cy, cz), &len)) in anchors.iter().zip(&helix_lengths).enumerate() {
        let x0 = 15.0;
        let flip = h % 2 == 1; // antiparallel bundle
        let mut prev_c: Option<(usize, usize)> = None; // (C index, CA index)
        for i in 0..len {
            // Sidechain size: first 86 residues get 11 atoms, rest 10,
            // so the protein totals exactly 2534 atoms.
            let side_k = if residue < 86 { 11 } else { 10 };
            let charged = residue == 10 || residue == 100;
            prev_c = Some(add_residue(
                topo, positions, cy, cz, x0, i, flip, side_k, charged, prev_c,
            ));
            residue += 1;
        }
    }
    debug_assert_eq!(residue, MYOGLOBIN_RESIDUES);
}

/// Adds one residue on the helix around axis `(y=cy, z=cz)`; returns
/// the `(C, CA)` indices for the next peptide link.
#[allow(clippy::too_many_arguments)]
fn add_residue(
    topo: &mut Topology,
    positions: &mut Vec<Vec3>,
    cy: f64,
    cz: f64,
    x0: f64,
    i: usize,
    flip: bool,
    side_k: usize,
    charged: bool,
    prev: Option<(usize, usize)>,
) -> (usize, usize) {
    // Ideal alpha-helix: 1.5 A rise, 100 degrees per residue.
    let phase = 100.0_f64.to_radians() * i as f64;
    let rise = 1.5 * i as f64;
    let place = |radius: f64, dphase: f64, dx: f64| -> Vec3 {
        let p = phase + dphase;
        let x = if flip {
            x0 + 28.5 - (rise + dx)
        } else {
            x0 + rise + dx
        };
        Vec3::new(x, cy + radius * p.cos(), cz + radius * p.sin())
    };
    let axis_x = if flip { -1.0 } else { 1.0 };

    let n_pos = place(1.5, -28.0_f64.to_radians(), -0.9);
    let ca_pos = place(2.3, 0.0, 0.0);
    let c_pos = place(1.6, 27.0_f64.to_radians(), 1.1);
    let o_pos = place(2.83, 27.0_f64.to_radians(), 1.1);
    let h_pos = place(2.5, -28.0_f64.to_radians(), -0.9);
    // Outward radial unit vector at the CA phase.
    let radial = Vec3::new(0.0, phase.cos(), phase.sin());
    let tang = Vec3::new(0.0, -phase.sin(), phase.cos());
    let xhat = Vec3::new(axis_x, 0.0, 0.0);
    let ha_pos = ca_pos + (radial * 0.5 + xhat * 0.85).normalized() * 1.09;
    let cb_pos = ca_pos + (radial * 0.94 - xhat * 0.34).normalized() * 1.5;

    let base = topo.atoms.len();
    let (n_i, h_i, ca_i, ha_i, c_i, o_i, cb_i) = (
        base,
        base + 1,
        base + 2,
        base + 3,
        base + 4,
        base + 5,
        base + 6,
    );

    topo.atoms.push(Atom {
        class: AtomClass::N,
        charge: -0.47,
    });
    topo.atoms.push(Atom {
        class: AtomClass::H,
        charge: 0.31,
    });
    topo.atoms.push(Atom {
        class: AtomClass::CT,
        charge: 0.07,
    });
    topo.atoms.push(Atom {
        class: AtomClass::HA,
        charge: 0.09,
    });
    topo.atoms.push(Atom {
        class: AtomClass::C,
        charge: 0.51,
    });
    topo.atoms.push(Atom {
        class: AtomClass::O,
        charge: -0.51,
    });
    let n_star = side_k - 1;
    let cb_charge = -0.05 * n_star as f64 + if charged { 1.0 } else { 0.0 };
    topo.atoms.push(Atom {
        class: AtomClass::CT,
        charge: cb_charge,
    });
    positions.extend_from_slice(&[n_pos, h_pos, ca_pos, ha_pos, c_pos, o_pos, cb_pos]);

    // Pseudo-sidechain: a hemisphere of H-class atoms around CB, facing
    // away from CA (spherical Fibonacci arrangement).
    let mut star_ids = Vec::with_capacity(n_star);
    for m in 0..n_star {
        let zc = 0.15 + 0.8 * m as f64 / (n_star.max(2) - 1) as f64; // along radial
        let az = 2.399963 * m as f64;
        let rr = (1.0 - zc * zc).sqrt();
        let dir = radial * zc + (tang * az.cos() + xhat * az.sin()) * rr;
        let id = topo.atoms.len();
        topo.atoms.push(Atom {
            class: AtomClass::H,
            charge: 0.05,
        });
        positions.push(cb_pos + dir * 1.3);
        star_ids.push(id);
    }

    // Intra-residue bonds.
    topo.bonds.push(Bond {
        i: n_i,
        j: h_i,
        param: params::BOND_XH,
    });
    topo.bonds.push(Bond {
        i: n_i,
        j: ca_i,
        param: params::BOND_HEAVY,
    });
    topo.bonds.push(Bond {
        i: ca_i,
        j: ha_i,
        param: params::BOND_XH,
    });
    topo.bonds.push(Bond {
        i: ca_i,
        j: c_i,
        param: params::BOND_HEAVY,
    });
    topo.bonds.push(Bond {
        i: c_i,
        j: o_i,
        param: params::BOND_CO_DOUBLE,
    });
    topo.bonds.push(Bond {
        i: ca_i,
        j: cb_i,
        param: params::BOND_HEAVY,
    });
    for &s in &star_ids {
        topo.bonds.push(Bond {
            i: cb_i,
            j: s,
            param: params::BOND_XH,
        });
    }

    // Intra-residue angles.
    topo.angles.push(Angle {
        i: h_i,
        j: n_i,
        k: ca_i,
        param: params::ANGLE_XH,
    });
    topo.angles.push(Angle {
        i: n_i,
        j: ca_i,
        k: c_i,
        param: params::ANGLE_BACKBONE,
    });
    topo.angles.push(Angle {
        i: n_i,
        j: ca_i,
        k: ha_i,
        param: params::ANGLE_XH,
    });
    topo.angles.push(Angle {
        i: n_i,
        j: ca_i,
        k: cb_i,
        param: params::ANGLE_HEAVY,
    });
    topo.angles.push(Angle {
        i: ca_i,
        j: c_i,
        k: o_i,
        param: params::ANGLE_HEAVY,
    });
    if let Some(&s0) = star_ids.first() {
        topo.angles.push(Angle {
            i: ca_i,
            j: cb_i,
            k: s0,
            param: params::ANGLE_XH,
        });
    }
    for w in star_ids.windows(2) {
        topo.angles.push(Angle {
            i: w[0],
            j: cb_i,
            k: w[1],
            param: params::ANGLE_XH,
        });
    }

    // Peptide link to the previous residue.
    if let Some((pc, pca)) = prev {
        topo.bonds.push(Bond {
            i: pc,
            j: n_i,
            param: params::BOND_PEPTIDE,
        });
        topo.angles.push(Angle {
            i: pca,
            j: pc,
            k: n_i,
            param: params::ANGLE_HEAVY,
        });
        // O of the previous residue is pc + 1.
        topo.angles.push(Angle {
            i: pc + 1,
            j: pc,
            k: n_i,
            param: params::ANGLE_HEAVY,
        });
        topo.angles.push(Angle {
            i: pc,
            j: n_i,
            k: ca_i,
            param: params::ANGLE_HEAVY,
        });
        topo.angles.push(Angle {
            i: pc,
            j: n_i,
            k: h_i,
            param: params::ANGLE_XH,
        });
        // phi: C- N CA C ; psi of previous: N- CA- C- N ; omega: CA- C- N CA.
        topo.dihedrals.push(Dihedral {
            i: pc,
            j: n_i,
            k: ca_i,
            l: c_i,
            param: params::DIHEDRAL_BACKBONE,
        });
        topo.dihedrals.push(Dihedral {
            i: pca,
            j: pc,
            k: n_i,
            l: ca_i,
            param: params::DIHEDRAL_OMEGA,
        });
        // Improper keeping the carbonyl planar: central C first.
        topo.impropers.push(Improper {
            i: pc,
            j: pca,
            k: n_i,
            l: pc + 1,
            param: params::IMPROPER_CARBONYL,
        });
    }
    // A sidechain torsion per residue.
    if star_ids.len() >= 2 {
        topo.dihedrals.push(Dihedral {
            i: n_i,
            j: ca_i,
            k: cb_i,
            l: star_ids[0],
            param: params::DIHEDRAL_SIDECHAIN,
        });
    }
    (c_i, ca_i)
}

fn add_carbon_monoxide(topo: &mut Topology, positions: &mut Vec<Vec3>, at: Vec3) {
    let base = topo.atoms.len();
    topo.atoms.push(Atom {
        class: AtomClass::C,
        charge: 0.021,
    });
    topo.atoms.push(Atom {
        class: AtomClass::O,
        charge: -0.021,
    });
    positions.push(at);
    positions.push(at + Vec3::new(params::BOND_CARBON_MONOXIDE.r0, 0.0, 0.0));
    topo.bonds.push(Bond {
        i: base,
        j: base + 1,
        param: params::BOND_CARBON_MONOXIDE,
    });
}

fn add_sulfate(topo: &mut Topology, positions: &mut Vec<Vec3>, at: Vec3) {
    let base = topo.atoms.len();
    topo.atoms.push(Atom {
        class: AtomClass::S,
        charge: 1.18,
    });
    positions.push(at);
    // Tetrahedral oxygens.
    let dirs = [
        Vec3::new(1.0, 1.0, 1.0),
        Vec3::new(1.0, -1.0, -1.0),
        Vec3::new(-1.0, 1.0, -1.0),
        Vec3::new(-1.0, -1.0, 1.0),
    ];
    for d in dirs {
        let id = topo.atoms.len();
        topo.atoms.push(Atom {
            class: AtomClass::O,
            charge: -0.795,
        });
        positions.push(at + d.normalized() * params::BOND_SULFATE.r0);
        topo.bonds.push(Bond {
            i: base,
            j: id,
            param: params::BOND_SULFATE,
        });
    }
    for a in 0..4usize {
        for b in (a + 1)..4 {
            topo.angles.push(Angle {
                i: base + 1 + a,
                j: base,
                k: base + 1 + b,
                param: params::ANGLE_SULFATE,
            });
        }
    }
}

/// Lattice points at least 3.0 A away from every existing atom, in
/// lattice order.
fn solvent_sites(pbox: &PbcBox, occupied: &[Vec3]) -> Vec<Vec3> {
    let spacing = 3.1;
    let clear = 3.0;
    let clear2 = clear * clear;
    let counts = [
        (pbox.lengths.x / spacing) as usize,
        (pbox.lengths.y / spacing) as usize,
        (pbox.lengths.z / spacing) as usize,
    ];
    let total = counts[0] * counts[1] * counts[2];
    (0..total)
        .filter_map(|idx| {
            let ix = idx / (counts[1] * counts[2]);
            let iy = (idx / counts[2]) % counts[1];
            let iz = idx % counts[2];
            let p = Vec3::new(
                (ix as f64 + 0.5) * spacing,
                (iy as f64 + 0.5) * spacing,
                (iz as f64 + 0.5) * spacing,
            );
            occupied
                .iter()
                .all(|&q| pbox.min_image(p, q).norm_sqr() >= clear2)
                .then_some(p)
        })
        .collect()
}

/// Pushes apart non-excluded atom pairs closer than `limit`, iterating
/// until no such pair remains (or `max_iter`). Keeps synthetic geometry
/// free of singular Lennard-Jones contacts before minimization.
pub fn relieve_clashes(
    topo: &Topology,
    pbox: &PbcBox,
    positions: &mut [Vec3],
    limit: f64,
    max_iter: usize,
) {
    use crate::neighbor::NeighborList;
    let limit2 = limit * limit;
    for _ in 0..max_iter {
        let list = NeighborList::build(topo, pbox, positions, limit, 0.05);
        let mut moved = false;
        for &(i, j) in &list.pairs {
            let (i, j) = (i as usize, j as usize);
            let d = pbox.min_image(positions[i], positions[j]);
            let r2 = d.norm_sqr();
            if r2 < limit2 {
                let r = r2.sqrt().max(1e-6);
                let push = (limit - r) * 0.55;
                let dir = if r > 1e-5 {
                    d / r
                } else {
                    // Coincident points: separate along a deterministic axis.
                    Vec3::new(1.0, 0.0, 0.0)
                };
                positions[i] += dir * push;
                positions[j] -= dir * push;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_box_counts_and_neutrality() {
        let sys = water_box(3, 3.1);
        assert_eq!(sys.n_atoms(), 81);
        assert_eq!(sys.topology.bonds.len(), 54);
        assert_eq!(sys.topology.angles.len(), 27);
        assert!(sys.topology.total_charge().abs() < 1e-12);
        assert!(sys.pbox.min_half_edge() >= 12.0);
    }

    #[test]
    fn water_geometry_is_near_equilibrium() {
        let sys = water_box(2, 3.2);
        for b in &sys.topology.bonds {
            let r = sys.pbox.distance(sys.positions[b.i], sys.positions[b.j]);
            assert!((r - b.param.r0).abs() < 1e-9, "bond length {r}");
        }
    }

    #[test]
    fn myoglobin_atom_count_is_exact() {
        let sys = myoglobin_raw();
        assert_eq!(sys.n_atoms(), MYOGLOBIN_ATOMS);
    }

    #[test]
    fn myoglobin_is_neutral() {
        let sys = myoglobin_raw();
        assert!(
            sys.topology.total_charge().abs() < 1e-9,
            "net charge {}",
            sys.topology.total_charge()
        );
    }

    #[test]
    fn myoglobin_topology_is_valid_and_bonded() {
        let sys = myoglobin_raw();
        sys.topology.validate().unwrap();
        assert!(sys.topology.bonds.len() > 3000);
        assert!(sys.topology.angles.len() > 2000);
        assert!(sys.topology.dihedrals.len() > 250);
        assert!(sys.topology.impropers.len() > 100);
    }

    #[test]
    fn myoglobin_has_no_severe_clashes() {
        let sys = myoglobin_raw();
        let list = crate::neighbor::NeighborList::build(
            &sys.topology,
            &sys.pbox,
            &sys.positions,
            0.88,
            0.0,
        );
        assert!(
            list.pairs.is_empty(),
            "found {} contacts under 0.88 A, e.g. {:?}",
            list.pairs.len(),
            list.pairs.first()
        );
    }

    #[test]
    fn myoglobin_atoms_inside_box() {
        let sys = myoglobin_raw();
        // Not strictly required by PBC, but the builder should produce
        // coordinates near the primary cell.
        for p in &sys.positions {
            assert!(p.x > -10.0 && p.x < 70.0);
            assert!(p.y > -10.0 && p.y < 46.0);
            assert!(p.z > -10.0 && p.z < 58.0);
        }
    }

    #[test]
    fn relieve_clashes_separates_coincident_atoms() {
        let mut topo = Topology {
            atoms: vec![
                Atom {
                    class: AtomClass::CT,
                    charge: 0.0
                };
                2
            ],
            ..Default::default()
        };
        topo.rebuild_exclusions();
        let pbox = PbcBox::new(30.0, 30.0, 30.0);
        let mut positions = vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(5.05, 5.0, 5.0)];
        relieve_clashes(&topo, &pbox, &mut positions, 0.9, 50);
        assert!(pbox.distance(positions[0], positions[1]) >= 0.9 - 1e-6);
    }
}

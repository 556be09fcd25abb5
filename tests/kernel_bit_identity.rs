//! The bit-identity contract of the lane-batched `erf`/`erfc` and the
//! tiled direct-space pair kernel (DESIGN.md §20): both must return
//! exactly the bits of the scalar code they replaced, for every
//! argument, every pair-list slice and every electrostatics method.
//!
//! [`oracle`] is that scalar code, frozen verbatim from the commit
//! before the kernels were batched. It is the reference, not a second
//! implementation to keep in step: never edit it alongside
//! `cpc_md::special` or `cpc_md::nonbonded`.

use cpc_charmm::decomp::balanced_pair_cuts;
use cpc_md::builder::{myoglobin_raw, water_box};
use cpc_md::forcefield::AtomClass;
use cpc_md::neighbor::NeighborList;
use cpc_md::nonbonded::{
    ewald_excluded_correction, nonbonded_energy_forces, ElecMethod, NonbondedOptions,
};
use cpc_md::special::{erf, erf_batch, erfc, erfc_batch, LANES};
use cpc_md::{System, Vec3};
use rand::prelude::*;

mod oracle {
    use cpc_md::nonbonded::{ElecMethod, NonbondedEnergies, NonbondedOptions};
    use cpc_md::pbc::PbcBox;
    use cpc_md::topology::Topology;
    use cpc_md::units::COULOMB;
    use cpc_md::vec3::Vec3;
    use std::f64::consts::PI;

    pub const CROSSOVER: f64 = 2.0;

    pub fn erf(x: f64) -> f64 {
        if x < 0.0 {
            return -erf(-x);
        }
        if x <= CROSSOVER {
            erf_series(x)
        } else {
            1.0 - erfc_cf(x)
        }
    }

    pub fn erfc(x: f64) -> f64 {
        if x < 0.0 {
            return 2.0 - erfc(-x);
        }
        if x <= CROSSOVER {
            1.0 - erf_series(x)
        } else {
            erfc_cf(x)
        }
    }

    fn erf_series(x: f64) -> f64 {
        let x2 = x * x;
        let mut term = x; // x^(2n+1)/n!
        let mut sum = x;
        for n in 1..200 {
            term *= -x2 / n as f64;
            let contrib = term / (2 * n + 1) as f64;
            sum += contrib;
            if contrib.abs() < 1e-18 * sum.abs().max(1e-300) {
                break;
            }
        }
        2.0 / PI.sqrt() * sum
    }

    fn erfc_cf(x: f64) -> f64 {
        let tiny = 1e-300;
        let mut f = x.max(tiny);
        let mut c = f;
        let mut d = 0.0;
        for k in 1..300 {
            let a = k as f64 / 2.0; // 1/2, 1, 3/2, 2, ...
            let b = x;
            d = b + a * d;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + a / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let delta = c * d;
            f *= delta;
            if (delta - 1.0).abs() < 1e-17 {
                break;
            }
        }
        (-x * x).exp() / PI.sqrt() / f
    }

    fn switch_fn(r: f64, ron: f64, roff: f64) -> (f64, f64) {
        if r <= ron {
            (1.0, 0.0)
        } else if r >= roff {
            (0.0, 0.0)
        } else {
            let r2 = r * r;
            let ron2 = ron * ron;
            let roff2 = roff * roff;
            let denom = (roff2 - ron2).powi(3);
            let a = roff2 - r2;
            let s = a * a * (roff2 + 2.0 * r2 - 3.0 * ron2) / denom;
            let ds = -12.0 * r * a * (r2 - ron2) / denom;
            (s, ds)
        }
    }

    pub fn nonbonded_energy_forces(
        topo: &Topology,
        pbox: &PbcBox,
        positions: &[Vec3],
        pairs: &[(u32, u32)],
        opts: &NonbondedOptions,
        forces: &mut [Vec3],
    ) -> (NonbondedEnergies, usize) {
        let cutoff2 = opts.cutoff * opts.cutoff;
        let mut e = NonbondedEnergies::default();
        let mut evaluated = 0usize;

        for &(i, j) in pairs {
            let i = i as usize;
            let j = j as usize;
            let d = pbox.min_image(positions[i], positions[j]);
            let r2 = d.norm_sqr();
            if r2 >= cutoff2 {
                continue;
            }
            evaluated += 1;
            let r = r2.sqrt();

            // Lennard-Jones with switching.
            let (eps, rmin) = topo.atoms[i].class.lj().combine(topo.atoms[j].class.lj());
            let u = (rmin * rmin / r2).powi(3);
            let e_lj = eps * (u * u - 2.0 * u);
            let de_lj = -12.0 * eps * u * (u - 1.0) / r;
            let (s, ds) = switch_fn(r, opts.switch_on, opts.cutoff);
            e.vdw += e_lj * s;
            let mut de_dr = de_lj * s + e_lj * ds;

            // Electrostatics.
            let qq = COULOMB * topo.atoms[i].charge * topo.atoms[j].charge;
            match opts.elec {
                ElecMethod::None => {}
                ElecMethod::Shift => {
                    if qq != 0.0 {
                        let roff2 = cutoff2;
                        let t = 1.0 - r2 / roff2;
                        e.elec += qq * t * t / r;
                        de_dr += qq * (-t * t / r2 - 4.0 * t / roff2);
                    }
                }
                ElecMethod::EwaldDirect { beta } => {
                    if qq != 0.0 {
                        let br = beta * r;
                        let ec = erfc(br);
                        e.elec += qq * ec / r;
                        de_dr += qq * (-ec / r2 - 2.0 * beta / PI.sqrt() * (-br * br).exp() / r);
                    }
                }
            }

            // F_i = -dE/dr * d/r.
            let f = d * (-de_dr / r);
            forces[i] += f;
            forces[j] -= f;
        }
        (e, evaluated)
    }

    pub fn ewald_excluded_correction(
        topo: &Topology,
        pbox: &PbcBox,
        positions: &[Vec3],
        beta: f64,
        forces: &mut [Vec3],
    ) -> (f64, usize) {
        let mut energy = 0.0;
        let mut count = 0usize;
        for (i, j) in topo.excluded_pairs() {
            let qq = COULOMB * topo.atoms[i].charge * topo.atoms[j].charge;
            if qq == 0.0 {
                continue;
            }
            let d = pbox.min_image(positions[i], positions[j]);
            let r2 = d.norm_sqr();
            let r = r2.sqrt();
            let br = beta * r;
            let ef = erf(br);
            energy -= qq * ef / r;
            let de_dr = -qq * (2.0 * beta / PI.sqrt() * (-br * br).exp() / r - ef / r2);
            let f = d * (-de_dr / r);
            forces[i] += f;
            forces[j] -= f;
            count += 1;
        }
        (energy, count)
    }
}

const SEEDS: u64 = 200;

/// The arguments where a branch, a sign or a rounding could change.
fn edge_arguments() -> Vec<f64> {
    let c = oracle::CROSSOVER;
    vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 4096.0,
        5e-324,
        -5e-324,
        c,
        f64::from_bits(c.to_bits() - 1),
        f64::from_bits(c.to_bits() + 1),
        -c,
        -f64::from_bits(c.to_bits() + 1),
        -0.3,
        -1.9,
        -2.7,
        -7.5,
        8.0,
    ]
}

fn assert_batches_match_the_scalar_oracle(x: &[f64], what: &str) {
    let mut out = vec![f64::NAN; x.len()];
    let mut gauss = vec![f64::NAN; x.len()];
    erfc_batch(x, &mut out, &mut gauss);
    for (i, &xi) in x.iter().enumerate() {
        assert_eq!(
            out[i].to_bits(),
            oracle::erfc(xi).to_bits(),
            "{what}: erfc_batch lane {i}, x = {xi:e}"
        );
        assert_eq!(
            gauss[i].to_bits(),
            (-xi * xi).exp().to_bits(),
            "{what}: erfc_batch gauss lane {i}, x = {xi:e}"
        );
        assert_eq!(
            erfc(xi).to_bits(),
            oracle::erfc(xi).to_bits(),
            "erfc({xi:e})"
        );
    }
    out.fill(f64::NAN);
    gauss.fill(f64::NAN);
    erf_batch(x, &mut out, &mut gauss);
    for (i, &xi) in x.iter().enumerate() {
        assert_eq!(
            out[i].to_bits(),
            oracle::erf(xi).to_bits(),
            "{what}: erf_batch lane {i}, x = {xi:e}"
        );
        assert_eq!(
            gauss[i].to_bits(),
            (-xi * xi).exp().to_bits(),
            "{what}: erf_batch gauss lane {i}, x = {xi:e}"
        );
        assert_eq!(erf(xi).to_bits(), oracle::erf(xi).to_bits(), "erf({xi:e})");
    }
}

#[test]
fn two_hundred_seeds_of_batches_return_the_scalar_bits() {
    let edges = edge_arguments();
    assert_batches_match_the_scalar_oracle(&edges, "edge arguments");
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(0xE2FC ^ (seed << 8));
        // Every slice length up to two flushes and a tail, and each of
        // an all-series, an all-fraction and a mixed queue at each.
        let len = (seed % (2 * LANES as u64 + 2)) as usize;
        let queues = (seed / (2 * LANES as u64 + 2)) % 3;
        let x: Vec<f64> = (0..len)
            .map(|_| match (queues, rng.gen_range_usize(8)) {
                (2, 0) => edges[rng.gen_range_usize(edges.len())],
                (0, _) => oracle::CROSSOVER * rng.gen_f64(),
                (1, _) => oracle::CROSSOVER + (8.0 - oracle::CROSSOVER) * (1.0 - rng.gen_f64()),
                _ => 8.0 * rng.gen_f64(),
            })
            .collect();
        assert_batches_match_the_scalar_oracle(&x, &format!("seed {seed}"));
        // A tile-sized slice, as the pair kernel passes.
        let long: Vec<f64> = (0..200 + len).map(|_| 8.0 * rng.gen_f64()).collect();
        assert_batches_match_the_scalar_oracle(&long, &format!("seed {seed} (long)"));
    }
}

fn methods() -> [ElecMethod; 3] {
    [
        ElecMethod::None,
        ElecMethod::Shift,
        ElecMethod::EwaldDirect { beta: 0.34 },
    ]
}

fn options(elec: ElecMethod) -> NonbondedOptions {
    NonbondedOptions {
        cutoff: 10.0,
        switch_on: 8.0,
        elec,
    }
}

fn random_forces(rng: &mut SmallRng, n: usize) -> Vec<Vec3> {
    let mut c = || 200.0 * (rng.gen_f64() - 0.5);
    (0..n).map(|_| Vec3::new(c(), c(), c())).collect()
}

fn assert_forces_bit_equal(got: &[Vec3], want: &[Vec3], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (a, (g, w)) in got.iter().zip(want).enumerate() {
        for c in 0..3 {
            assert_eq!(
                g[c].to_bits(),
                w[c].to_bits(),
                "{what}: force on atom {a}, component {c}"
            );
        }
    }
}

/// The tiled kernel against the frozen pair loop on one slice: both
/// start from the same pre-loaded forces and must agree on every bit.
fn assert_kernel_matches_the_scalar_oracle(
    sys: &System,
    pairs: &[(u32, u32)],
    elec: ElecMethod,
    preload: &[Vec3],
    what: &str,
) -> usize {
    let opts = options(elec);
    let mut want = preload.to_vec();
    let (e_want, n_want) = oracle::nonbonded_energy_forces(
        &sys.topology,
        &sys.pbox,
        &sys.positions,
        pairs,
        &opts,
        &mut want,
    );
    let mut got = preload.to_vec();
    let (e_got, n_got) = nonbonded_energy_forces(
        &sys.topology,
        &sys.pbox,
        &sys.positions,
        pairs,
        &opts,
        &mut got,
    );
    assert_eq!(n_got, n_want, "{what} {elec:?}: evaluated");
    assert_eq!(
        e_got.vdw.to_bits(),
        e_want.vdw.to_bits(),
        "{what} {elec:?}: vdw"
    );
    assert_eq!(
        e_got.elec.to_bits(),
        e_want.elec.to_bits(),
        "{what} {elec:?}: elec"
    );
    assert_forces_bit_equal(&got, &want, &format!("{what} {elec:?}"));
    n_got
}

/// A water box whose lattice, classes and charges are scrambled by
/// `rng`: jittered positions, every Lennard-Jones class pair, and a
/// share of zero-charge atoms.
fn scrambled_water_box(rng: &mut SmallRng) -> System {
    let n_side = 2 + rng.gen_range_usize(3);
    let mut sys = water_box(n_side, 2.6 + 0.9 * rng.gen_f64());
    for p in &mut sys.positions {
        *p += Vec3::new(
            rng.gen_f64() - 0.5,
            rng.gen_f64() - 0.5,
            rng.gen_f64() - 0.5,
        ) * 0.8;
    }
    for atom in &mut sys.topology.atoms {
        if rng.gen_range_usize(4) == 0 {
            atom.class = AtomClass::ALL[rng.gen_range_usize(AtomClass::ALL.len())];
        }
        if rng.gen_range_usize(5) == 0 {
            atom.charge = 0.0;
        }
    }
    sys
}

const RANK_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

#[test]
fn two_hundred_seeds_of_tiled_kernel_return_the_scalar_pair_loop_bits() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x711E ^ (seed << 8));
        let sys = scrambled_water_box(&mut rng);
        let list = NeighborList::build(&sys.topology, &sys.pbox, &sys.positions, 10.0, 2.0);
        let preload = random_forces(&mut rng, sys.n_atoms());
        let zero = vec![Vec3::ZERO; sys.n_atoms()];
        let p = RANK_COUNTS[seed as usize % RANK_COUNTS.len()];
        let cuts = balanced_pair_cuts(&list.pairs, p);
        // Lengths one short of, at and one past the kernel's tile (256
        // list entries), and one past two tiles.
        let prefix = [255, 256, 257, 513][seed as usize % 4].min(list.pairs.len());
        let beyond: Vec<(u32, u32)> = list
            .pairs
            .iter()
            .copied()
            .filter(|&(i, j)| {
                sys.pbox
                    .distance(sys.positions[i as usize], sys.positions[j as usize])
                    >= 10.0
            })
            .collect();
        for elec in methods() {
            let mut evaluated = 0;
            for rank in 0..p {
                evaluated += assert_kernel_matches_the_scalar_oracle(
                    &sys,
                    &list.pairs[cuts[rank]..cuts[rank + 1]],
                    elec,
                    if rank % 2 == 0 { &preload } else { &zero },
                    &format!("seed {seed} rank {rank}/{p}"),
                );
            }
            assert!(evaluated > 0, "seed {seed}: no pair inside the cutoff");
            assert_kernel_matches_the_scalar_oracle(
                &sys,
                &list.pairs[..prefix],
                elec,
                &preload,
                &format!("seed {seed} prefix {prefix}"),
            );
            let n = assert_kernel_matches_the_scalar_oracle(
                &sys,
                &beyond,
                elec,
                &preload,
                &format!("seed {seed} beyond the cutoff"),
            );
            assert_eq!(n, 0, "seed {seed}");
            assert_kernel_matches_the_scalar_oracle(&sys, &[], elec, &preload, "empty list");
        }
    }
}

#[test]
fn tiled_kernel_returns_the_scalar_bits_on_every_rank_block_of_myoglobin() {
    let sys = myoglobin_raw();
    let list = NeighborList::build(&sys.topology, &sys.pbox, &sys.positions, 10.0, 2.0);
    let mut rng = SmallRng::seed_from_u64(3552);
    let preload = random_forces(&mut rng, sys.n_atoms());
    for elec in methods() {
        for p in RANK_COUNTS {
            let cuts = balanced_pair_cuts(&list.pairs, p);
            for rank in 0..p {
                assert_kernel_matches_the_scalar_oracle(
                    &sys,
                    &list.pairs[cuts[rank]..cuts[rank + 1]],
                    elec,
                    &preload,
                    &format!("myoglobin rank {rank}/{p}"),
                );
            }
        }
    }
}

#[test]
fn batched_excluded_correction_returns_the_scalar_bits() {
    let mut systems = vec![myoglobin_raw()];
    for seed in 0..20 {
        systems.push(scrambled_water_box(&mut SmallRng::seed_from_u64(
            0xE8C1 ^ (seed << 8),
        )));
    }
    for (s, sys) in systems.iter().enumerate() {
        let preload = random_forces(&mut SmallRng::seed_from_u64(s as u64 + 1), sys.n_atoms());
        let mut want = preload.clone();
        let (e_want, n_want) = oracle::ewald_excluded_correction(
            &sys.topology,
            &sys.pbox,
            &sys.positions,
            0.34,
            &mut want,
        );
        let mut got = preload;
        let (e_got, n_got) =
            ewald_excluded_correction(&sys.topology, &sys.pbox, &sys.positions, 0.34, &mut got);
        assert_eq!(n_got, n_want, "system {s}");
        assert_eq!(e_got.to_bits(), e_want.to_bits(), "system {s}");
        assert_forces_bit_equal(&got, &want, &format!("system {s}"));
    }
}

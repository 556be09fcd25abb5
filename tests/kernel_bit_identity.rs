//! The bit-identity contracts of the batched kernels: the lane-batched
//! `erf`/`erfc` and the tiled direct-space pair kernel (DESIGN.md §20),
//! the table-driven, lane-batched mixed-radix FFT (DESIGN.md §21), and
//! the compare-and-select `min_image` with the ordered, sort-free
//! neighbour build on top of it (DESIGN.md §24).
//! Each must return exactly the bits of the scalar code it replaced,
//! for every argument, every pair-list slice, every electrostatics
//! method, every smooth transform size and every slab shape — and the
//! neighbour build exactly the parent's `Vec`, content and order.
//!
//! [`oracle`], [`list_oracle`] and [`fft_oracle`] are that scalar code,
//! frozen verbatim from the commits before the kernels were batched.
//! They are the reference, not second implementations to keep in step:
//! never edit them alongside `cpc_md::special`, `cpc_md::nonbonded`,
//! `cpc_md::pbc`, `cpc_md::neighbor` or `cpc_fft::plan`.
//!
//! Tier-1 `cargo test -q` is a debug build, where the lane loops stay
//! scalar; `cargo test --workspace --release` (CI) is the run that
//! exercises the *vectorised* lanes. Keep both. On a CPU with AVX2,
//! `erf_batch`, `erfc_batch` and `transform_axis` run their AVX2
//! compilation (DESIGN.md §31), so there the release run tests the
//! 256-bit lanes against these frozen oracles.

use cpc_charmm::decomp::{balanced_pair_cuts, PmeDecomp};
use cpc_fft::{dft, transform_axis, Axis, Complex64, Dims3, Direction, Fft3d, FftPlan};
use cpc_md::builder::{
    myoglobin_raw, myoglobin_system_with, relieve_clashes, water_box, MyoglobinOptions,
};
use cpc_md::forcefield::params::BOND_HEAVY;
use cpc_md::forcefield::AtomClass;
use cpc_md::neighbor::NeighborList;
use cpc_md::nonbonded::{
    ewald_excluded_correction, nonbonded_energy_forces, ElecMethod, NonbondedOptions,
};
use cpc_md::pme::{compute_splines, influence_function, spread_charges, Pme, PmeParams};
use cpc_md::special::{erf, erf_batch, erfc, erfc_batch, LANES};
use cpc_md::topology::{Atom, Bond, Topology};
use cpc_md::{PbcBox, System, Vec3};
use rand::prelude::*;

mod oracle {
    use cpc_md::nonbonded::{ElecMethod, NonbondedEnergies, NonbondedOptions};
    use cpc_md::pbc::PbcBox;
    use cpc_md::topology::Topology;
    use cpc_md::units::COULOMB;
    use cpc_md::vec3::Vec3;
    use std::f64::consts::PI;

    pub const CROSSOVER: f64 = 2.0;

    /// `PbcBox::min_image` as it was before it became compare + select:
    /// three divisions, three `round` calls.
    pub fn min_image(pbox: &PbcBox, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        d.x -= pbox.lengths.x * (d.x / pbox.lengths.x).round();
        d.y -= pbox.lengths.y * (d.y / pbox.lengths.y).round();
        d.z -= pbox.lengths.z * (d.z / pbox.lengths.z).round();
        d
    }

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
            let d = min_image(pbox, positions[i], positions[j]);
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
            let d = min_image(pbox, positions[i], positions[j]);
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

/// The neighbour build of the commit before it became ordered and
/// sort-free, verbatim, over the frozen `min_image`: every candidate of
/// the half stencil through the division-and-`round` form, then one
/// global `sort_unstable` + `dedup`.
mod list_oracle {
    use super::oracle::min_image;
    use cpc_md::pbc::PbcBox;
    use cpc_md::topology::Topology;
    use cpc_md::vec3::Vec3;

    pub fn build_pairs(
        topo: &Topology,
        pbox: &PbcBox,
        positions: &[Vec3],
        reach: f64,
    ) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        build_pairs_into(topo, pbox, positions, reach, &mut pairs);
        pairs
    }

    fn build_pairs_into(
        topo: &Topology,
        pbox: &PbcBox,
        positions: &[Vec3],
        reach: f64,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        let n = positions.len();
        let reach2 = reach * reach;

        // Grid resolution: cells at least `reach` wide in each dimension.
        let ncx = (pbox.lengths.x / reach).floor().max(1.0) as usize;
        let ncy = (pbox.lengths.y / reach).floor().max(1.0) as usize;
        let ncz = (pbox.lengths.z / reach).floor().max(1.0) as usize;
        let ncell = ncx * ncy * ncz;

        if ncell < 27 {
            // Too few cells for the stencil to prune anything; do the O(N^2)
            // sweep (still exact).
            for i in 0..n {
                for j in (i + 1)..n {
                    if min_image(pbox, positions[i], positions[j]).norm_sqr() < reach2
                        && !topo.is_excluded(i, j)
                    {
                        pairs.push((i as u32, j as u32));
                    }
                }
            }
            return;
        }

        // Bin atoms.
        let mut head: Vec<i32> = vec![-1; ncell];
        let mut next: Vec<i32> = vec![-1; n];
        let cell_of = |p: Vec3| -> usize {
            let f = pbox.fractional(p);
            let cx = ((f.x * ncx as f64) as usize).min(ncx - 1);
            let cy = ((f.y * ncy as f64) as usize).min(ncy - 1);
            let cz = ((f.z * ncz as f64) as usize).min(ncz - 1);
            (cx * ncy + cy) * ncz + cz
        };
        for (i, &p) in positions.iter().enumerate() {
            let c = cell_of(p);
            next[i] = head[c];
            head[c] = i as i32;
        }

        // Precompute the (deduplicated) half stencil of neighbour cells.
        let mut stencil: Vec<usize> = Vec::with_capacity(14);
        for cx in 0..ncx {
            for cy in 0..ncy {
                for cz in 0..ncz {
                    let c = (cx * ncy + cy) * ncz + cz;
                    stencil.clear();
                    for dx in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dz in -1i64..=1 {
                                let nx = (cx as i64 + dx).rem_euclid(ncx as i64) as usize;
                                let ny = (cy as i64 + dy).rem_euclid(ncy as i64) as usize;
                                let nz = (cz as i64 + dz).rem_euclid(ncz as i64) as usize;
                                let nc = (nx * ncy + ny) * ncz + nz;
                                // Half stencil: only visit cells with index
                                // >= c; the self cell handles i<j itself.
                                if nc >= c && !stencil.contains(&nc) {
                                    stencil.push(nc);
                                }
                            }
                        }
                    }
                    for &nc in &stencil {
                        let mut i = head[c];
                        while i >= 0 {
                            let iu = i as usize;
                            let mut j = if nc == c { next[iu] } else { head[nc] };
                            while j >= 0 {
                                let ju = j as usize;
                                let (a, b) = if iu < ju { (iu, ju) } else { (ju, iu) };
                                if min_image(pbox, positions[a], positions[b]).norm_sqr() < reach2
                                    && !topo.is_excluded(a, b)
                                {
                                    pairs.push((a as u32, b as u32));
                                }
                                j = next[ju];
                            }
                            i = next[iu];
                        }
                    }
                }
            }
        }
        // Cross-cell visits can see a pair from both sides when the periodic
        // stencil wraps; dedup to keep the list exact.
        pairs.sort_unstable();
        pairs.dedup();
    }
}

/// The values where `min_image` could pick another image, another zero
/// or another rounding than the division-and-`round` form: both sides
/// of half a box and of a whole one, the zeros, far images, NaN.
fn image_edge_differences(l: f64) -> Vec<f64> {
    let around = |x: f64| {
        [
            f64::from_bits(x.to_bits() - 1),
            x,
            f64::from_bits(x.to_bits() + 1),
        ]
    };
    let mut d = vec![0.0, 5e-324, f64::MIN_POSITIVE, 1e-9, 0.25 * l, f64::NAN];
    for x in [0.5 * l, l, 1.5 * l, 2.5 * l, 7.5 * l, 1e6 * l] {
        d.extend(around(x));
    }
    d.iter().flat_map(|&x| [x, -x]).collect()
}

#[test]
fn min_image_returns_the_bits_of_the_division_and_round_form() {
    let assert_same = |pbox: &PbcBox, a: Vec3, b: Vec3| {
        let got = pbox.min_image(a, b);
        let want = oracle::min_image(pbox, a, b);
        for c in 0..3 {
            assert_eq!(
                got[c].to_bits(),
                want[c].to_bits(),
                "{pbox:?}: min_image({a:?}, {b:?}) component {c}: {} vs {}",
                got[c],
                want[c]
            );
        }
    };
    // 64 is a power of two (half of it has the shorter gap below), 0.3
    // and the myoglobin edges are not.
    for pbox in [
        PbcBox::new(64.0, 0.3, 56.1),
        PbcBox::new(36.3, 47.9, 1.0),
        PbcBox::new(1e-3, 1e3, 24.2),
    ] {
        let l = pbox.lengths;
        let edges: [Vec<f64>; 3] = [0, 1, 2].map(|c| image_edge_differences(l[c]));
        // Every edge difference in every component, against the zero
        // vector (the difference is then exact) and with the two other
        // components at unrelated edges.
        for k in 0..edges[0].len() {
            for c in 0..3 {
                let mut a = Vec3::ZERO;
                a[c] = edges[c][k];
                assert_same(&pbox, a, Vec3::ZERO);
                assert_same(&pbox, Vec3::ZERO, a);
                a[(c + 1) % 3] = edges[(c + 1) % 3][(7 * k + 3) % edges[0].len()];
                a[(c + 2) % 3] = edges[(c + 2) % 3][(11 * k + 5) % edges[0].len()];
                assert_same(&pbox, a, Vec3::ZERO);
            }
        }
        for seed in 0..SEEDS {
            let mut rng = SmallRng::seed_from_u64(0x1A6E ^ (seed << 8));
            // Within the primary cell, within a few boxes, far outside.
            let span = [1.0, 3.0, 40.0][seed as usize % 3];
            let mut point = || {
                Vec3::new(
                    span * l.x * (rng.gen_f64() - 0.5),
                    span * l.y * (rng.gen_f64() - 0.5),
                    span * l.z * (rng.gen_f64() - 0.5),
                )
            };
            for _ in 0..50 {
                assert_same(&pbox, point(), point());
            }
        }
    }
}

#[test]
fn min_image_returns_the_parent_bits_on_every_myoglobin_list_entry() {
    let sys = myoglobin_raw();
    let list = NeighborList::build(&sys.topology, &sys.pbox, &sys.positions, 10.0, 2.0);
    for &(i, j) in &list.pairs {
        let (a, b) = (sys.positions[i as usize], sys.positions[j as usize]);
        let (got, want) = (sys.pbox.min_image(a, b), oracle::min_image(&sys.pbox, a, b));
        assert!(
            (0..3).all(|c| got[c].to_bits() == want[c].to_bits()),
            "pair ({i}, {j}): {got:?} vs {want:?}"
        );
    }
}

/// `n` free atoms, every fifth bonded to its successor and every
/// eleventh to the atom three on, so rows lose 1-2 and 1-3 partners.
fn chained_topology(n: usize) -> Topology {
    let mut topo = Topology {
        atoms: vec![
            Atom {
                class: AtomClass::CT,
                charge: 0.0
            };
            n
        ],
        ..Default::default()
    };
    for i in 0..n {
        for step in [1, 3] {
            if i % (4 * step + 1) == 0 && i + step < n {
                topo.bonds.push(Bond {
                    i,
                    j: i + step,
                    param: BOND_HEAVY,
                });
            }
        }
    }
    topo.rebuild_exclusions();
    topo
}

/// The list under test against the frozen build: the same `Vec`,
/// content and order, from `build` and from `rebuild` into a list that
/// already holds another system's pairs.
fn assert_list_matches_the_sorted_oracle(
    topo: &Topology,
    pbox: &PbcBox,
    positions: &[Vec3],
    cutoff: f64,
    skin: f64,
    recycled: &mut NeighborList,
    what: &str,
) -> usize {
    let want = list_oracle::build_pairs(topo, pbox, positions, cutoff + skin);
    let got = NeighborList::build(topo, pbox, positions, cutoff, skin);
    if let Some(at) =
        (0..want.len().max(got.pairs.len())).find(|&k| got.pairs.get(k) != want.get(k))
    {
        panic!(
            "{what}: entry {at} is {:?}, the parent's is {:?} ({} vs {} entries)",
            got.pairs.get(at),
            want.get(at),
            got.pairs.len(),
            want.len()
        );
    }
    assert_eq!(
        (recycled.cutoff(), recycled.skin()),
        (cutoff, skin),
        "the recycled list rebuilds at its own reach"
    );
    recycled.rebuild(topo, pbox, positions);
    assert!(recycled.pairs == want, "{what}: rebuild into a used list");
    want.len()
}

/// Boxes whose grid at reach 10 A is 3x3x3 (cells exactly one reach wide,
/// and wider), 5x3x4 (myoglobin's), 2x4x4 (the +1 and -1 neighbours
/// alias along x, the parent's dedup case; the first at reach = half
/// the edge) and 2x2x7 (28 cells: the smallest grid past the fallback).
const LIST_BOXES: [(f64, f64, f64); 7] = [
    (30.0, 30.0, 30.0),
    (33.7, 39.9, 31.2),
    (56.1, 36.3, 47.9),
    (20.0, 40.0, 49.9),
    (27.3, 44.4, 41.0),
    (25.0, 29.0, 70.0),
    (20.0, 20.0, 77.7),
];

/// Positions that stress the binning and the cut-off decision.
fn list_positions(rng: &mut SmallRng, pbox: &PbcBox, n: usize, reach: f64, mode: u64) -> Vec<Vec3> {
    let l = pbox.lengths;
    let cells = [0, 1, 2].map(|c| (l[c] / reach).floor());
    let mut positions: Vec<Vec3> = if mode.is_multiple_of(2) {
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_f64() * l.x,
                    rng.gen_f64() * l.y,
                    rng.gen_f64() * l.z,
                )
            })
            .collect()
    } else {
        // A jittered lattice: near-uniform density, many equal gaps.
        let side = (n as f64).cbrt().ceil() as usize;
        (0..n)
            .map(|k| {
                let (a, b, c) = (k % side, (k / side) % side, k / (side * side));
                let jitter = |rng: &mut SmallRng| 0.3 * (rng.gen_f64() - 0.5);
                Vec3::new(
                    (a as f64 + 0.5 + jitter(rng)) * l.x / side as f64,
                    (b as f64 + 0.5 + jitter(rng)) * l.y / side as f64,
                    (c as f64 + 0.5 + jitter(rng)) * l.z / side as f64,
                )
            })
            .collect()
    };
    for k in 0..n {
        let other = positions[rng.gen_range_usize(n)];
        let p = &mut positions[k];
        match rng.gen_range_usize(12) {
            // Exactly on a cell face, along one axis or all three.
            0 => {
                let c = rng.gen_range_usize(3);
                p[c] = rng.gen_range_usize(cells[c] as usize + 1) as f64 * (l[c] / cells[c]);
            }
            1 => {
                for c in 0..3 {
                    p[c] = rng.gen_range_usize(cells[c] as usize + 1) as f64 * (l[c] / cells[c]);
                }
            }
            // Just below zero: `rem_euclid` rounds the wrap up to `L`.
            2 => p[rng.gen_range_usize(3)] = -1e-17,
            // Coincident with another atom.
            3 => *p = other,
            // A planted neighbour at the cut-off distance itself, a hair
            // inside and outside it (within the band the exact predicate
            // decides) and clear of the band on either side.
            4 | 5 => {
                let scale = [0.0, 1e-12, -1e-12, 3e-10, -3e-10, 1e-8, -1e-8, 1e-5, -1e-5]
                    [rng.gen_range_usize(9)];
                let dir = if rng.gen_range_usize(2) == 0 {
                    let mut axis = Vec3::ZERO;
                    axis[rng.gen_range_usize(3)] = 1.0;
                    axis
                } else {
                    Vec3::new(
                        rng.gen_f64() - 0.5,
                        rng.gen_f64() - 0.5,
                        rng.gen_f64() - 0.5,
                    )
                    .normalized()
                };
                *p = other + dir * (reach * (1.0 + scale));
            }
            _ => {}
        }
    }
    if mode.is_multiple_of(3) {
        // Unwrapped coordinates: up to several boxes out, or (every
        // other time) millions of boxes out, where the parent's own
        // subtraction keeps seven digits of a distance and only a band
        // that grows with the coordinates still holds every
        // disagreement.
        let boxes = if mode.is_multiple_of(2) { 4.0 } else { 4e6 };
        for p in &mut positions {
            for c in 0..3 {
                p[c] += ((rng.gen_f64() - 0.5) * 2.0 * boxes).round() * l[c];
            }
        }
    }
    positions
}

#[test]
fn two_hundred_seeds_of_linked_cell_builds_return_the_sorted_list_in_order() {
    let (cutoff, skin) = (8.0, 2.0);
    let n = 160;
    let topo = chained_topology(n);
    let mut recycled = NeighborList::build(
        &topo,
        &PbcBox::new(40.0, 40.0, 40.0),
        &vec![Vec3::ZERO; n],
        cutoff,
        skin,
    );
    let mut entries = 0;
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x11C7 ^ (seed << 8));
        for (b, &(lx, ly, lz)) in LIST_BOXES.iter().enumerate() {
            let pbox = PbcBox::new(lx, ly, lz);
            let positions = list_positions(&mut rng, &pbox, n, cutoff + skin, seed + b as u64);
            entries += assert_list_matches_the_sorted_oracle(
                &topo,
                &pbox,
                &positions,
                cutoff,
                skin,
                &mut recycled,
                &format!("seed {seed}, box {:?}", (lx, ly, lz)),
            );
        }
    }
    assert!(entries > 1_000_000, "only {entries} entries compared");
}

/// Minimised a few steps, given 300 K velocities and moved along them:
/// the state a rank rebuilds its list from in the middle of a run.
fn drifted_myoglobin() -> System {
    let mut sys = myoglobin_system_with(MyoglobinOptions {
        minimize_steps: 3,
        temperature: 300.0,
        seed: 19,
    });
    for (p, v) in sys.positions.iter_mut().zip(&sys.velocities) {
        *p += *v * 0.02;
    }
    sys
}

#[test]
fn myoglobin_lists_return_the_sorted_list_in_order_at_both_reaches() {
    for (sys, what) in [
        (myoglobin_raw(), "raw"),
        (drifted_myoglobin(), "relaxed and drifted"),
    ] {
        // The engine's list and the 116 550-cell grid `relieve_clashes`
        // builds on (0.9 + 0.05 A), where nearly every cell is empty.
        for (cutoff, skin) in [(10.0, 2.0), (0.9, 0.05), (2.4, 0.0)] {
            let mut recycled =
                NeighborList::build(&sys.topology, &sys.pbox, &sys.positions[..1], cutoff, skin);
            assert_list_matches_the_sorted_oracle(
                &sys.topology,
                &sys.pbox,
                &sys.positions,
                cutoff,
                skin,
                &mut recycled,
                &format!("{what} myoglobin, reach {}", cutoff + skin),
            );
        }
    }
}

/// `relieve_clashes` over the frozen list and the frozen `min_image`.
fn relieve_clashes_over_the_oracle(
    topo: &Topology,
    pbox: &PbcBox,
    positions: &mut [Vec3],
    limit: f64,
    max_iter: usize,
) {
    let limit2 = limit * limit;
    for _ in 0..max_iter {
        let pairs = list_oracle::build_pairs(topo, pbox, positions, limit + 0.05);
        let mut moved = false;
        for &(i, j) in &pairs {
            let (i, j) = (i as usize, j as usize);
            let d = oracle::min_image(pbox, positions[i], positions[j]);
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

#[test]
fn relieve_clashes_returns_the_positions_of_the_sorted_list() {
    // The pushes are applied one pair after another in list order, each
    // reading what the previous ones moved: the golden system depends on
    // the order of the list, not only on its content.
    let mut sys = myoglobin_raw();
    let mut rng = SmallRng::seed_from_u64(0xC1A5);
    for p in &mut sys.positions {
        *p += Vec3::new(
            rng.gen_f64() - 0.5,
            rng.gen_f64() - 0.5,
            rng.gen_f64() - 0.5,
        ) * 2.4;
    }
    let n = sys.n_atoms();
    sys.positions[n - 1] = sys.positions[n - 7];
    let mut want = sys.positions.clone();
    relieve_clashes_over_the_oracle(&sys.topology, &sys.pbox, &mut want, 0.9, 6);
    let mut got = sys.positions.clone();
    relieve_clashes(&sys.topology, &sys.pbox, &mut got, 0.9, 6);
    let moved = got
        .iter()
        .zip(&sys.positions)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        moved > 100,
        "the jitter planted too few clashes to tell orders apart: {moved} atoms moved"
    );
    assert_forces_bit_equal(&got, &want, "relieved positions");
}

/// The recursive mixed-radix kernel and the per-line `transform_axis`
/// of the commit before the FFT was made table-driven, verbatim.
mod fft_oracle {
    use cpc_fft::plan::{factorize, MAX_RADIX};
    use cpc_fft::{Axis, Complex64, Dims3, Direction};
    use std::f64::consts::TAU;

    /// One recursion level of the mixed-radix kernel.
    #[derive(Debug, Clone)]
    struct Stage {
        /// Transform size at this depth.
        n: usize,
        /// Radix split off at this depth (`n = radix * (n / radix)`).
        radix: usize,
        /// Twiddle table `w[t] = e^{-2 pi i t / n}` for `t` in `0..n`.
        twiddle: Vec<Complex64>,
    }

    /// The parent's `FftPlan`, mixed-radix sizes only.
    pub struct Plan {
        n: usize,
        stages: Vec<Stage>,
    }

    impl Plan {
        pub fn new(n: usize) -> Self {
            assert!(cpc_fft::is_smooth(n), "the oracle covers smooth sizes");
            Plan {
                n,
                stages: build_stages(n),
            }
        }

        pub fn len(&self) -> usize {
            self.n
        }

        pub fn execute(&self, input: &[Complex64], output: &mut [Complex64], dir: Direction) {
            assert_eq!(input.len(), self.n, "input length mismatch");
            assert_eq!(output.len(), self.n, "output length mismatch");
            exec_recursive(&self.stages, 0, input, 1, output, dir);
        }
    }

    fn build_stages(n: usize) -> Vec<Stage> {
        let factors = factorize(n);
        let mut stages = Vec::with_capacity(factors.len());
        let mut size = n;
        for &radix in &factors {
            let twiddle = (0..size)
                .map(|t| Complex64::cis(-TAU * t as f64 / size as f64))
                .collect();
            stages.push(Stage {
                n: size,
                radix,
                twiddle,
            });
            size /= radix;
        }
        debug_assert_eq!(size, 1);
        stages
    }

    /// Recursive decimation-in-time. Reads `input` with stride `in_stride`
    /// and writes the transform of size `stages[depth].n` contiguously into
    /// `output`.
    fn exec_recursive(
        stages: &[Stage],
        depth: usize,
        input: &[Complex64],
        in_stride: usize,
        output: &mut [Complex64],
        dir: Direction,
    ) {
        if depth == stages.len() {
            // Size-1 transform: copy the single element.
            output[0] = input[0];
            return;
        }
        let stage = &stages[depth];
        let n = stage.n;
        let r = stage.radix;
        let m = n / r;

        // Transform the r decimated subsequences.
        for j in 0..r {
            exec_recursive(
                stages,
                depth + 1,
                &input[j * in_stride..],
                in_stride * r,
                &mut output[j * m..(j + 1) * m],
                dir,
            );
        }

        // Combine: X[k + q m] = sum_j w_n^{jk} w_r^{jq} Y_j[k].
        // w_r^{jq} = w_n^{j q m}, so a single table indexed mod n suffices.
        let tw = &stage.twiddle;
        let mut tmp = [Complex64::ZERO; MAX_RADIX];
        for k in 0..m {
            for (j, slot) in tmp[..r].iter_mut().enumerate() {
                let w = twiddle_at(tw, (j * k) % n, dir);
                *slot = output[j * m + k] * w;
            }
            for q in 0..r {
                let mut acc = tmp[0];
                for (j, &t) in tmp[..r].iter().enumerate().skip(1) {
                    let w = twiddle_at(tw, (j * q * m) % n, dir);
                    acc = acc.mul_add(t, w);
                }
                output[q * m + k] = acc;
            }
        }
    }

    #[inline(always)]
    fn twiddle_at(tw: &[Complex64], idx: usize, dir: Direction) -> Complex64 {
        let w = tw[idx];
        match dir {
            Direction::Forward => w,
            Direction::Inverse => w.conj(),
        }
    }

    /// Applies the plan along `axis` to every line of the grid.
    pub fn transform_axis(
        data: &mut [Complex64],
        dims: Dims3,
        axis: Axis,
        plan: &Plan,
        dir: Direction,
    ) {
        assert_eq!(data.len(), dims.len(), "grid size mismatch");
        let (len, stride, lines) = match axis {
            Axis::Z => (dims.nz, 1, dims.nx * dims.ny),
            Axis::Y => (dims.ny, dims.nz, dims.nx * dims.nz),
            Axis::X => (dims.nx, dims.ny * dims.nz, dims.ny * dims.nz),
        };
        assert_eq!(plan.len(), len, "plan length must match axis extent");

        let mut line_in = vec![Complex64::ZERO; len];
        let mut line_out = vec![Complex64::ZERO; len];

        match axis {
            Axis::Z => {
                for l in 0..lines {
                    let base = l * len;
                    line_in.copy_from_slice(&data[base..base + len]);
                    plan.execute(&line_in, &mut line_out, dir);
                    data[base..base + len].copy_from_slice(&line_out);
                }
            }
            Axis::Y => {
                // Lines indexed by (x, z): base = x*ny*nz + z, stride nz.
                for x in 0..dims.nx {
                    for z in 0..dims.nz {
                        let base = x * dims.ny * dims.nz + z;
                        gather(data, base, stride, &mut line_in);
                        plan.execute(&line_in, &mut line_out, dir);
                        scatter(data, base, stride, &line_out);
                    }
                }
            }
            Axis::X => {
                // Lines indexed by (y, z): base = y*nz + z, stride ny*nz.
                for yz in 0..dims.ny * dims.nz {
                    gather(data, yz, stride, &mut line_in);
                    plan.execute(&line_in, &mut line_out, dir);
                    scatter(data, yz, stride, &line_out);
                }
            }
        }
    }

    #[inline]
    fn gather(data: &[Complex64], base: usize, stride: usize, line: &mut [Complex64]) {
        for (i, slot) in line.iter_mut().enumerate() {
            *slot = data[base + i * stride];
        }
    }

    #[inline]
    fn scatter(data: &mut [Complex64], base: usize, stride: usize, line: &[Complex64]) {
        for (i, &v) in line.iter().enumerate() {
            data[base + i * stride] = v;
        }
    }

    /// The parent's `Fft3d::execute`: z, then y, then x.
    pub fn fft3d(data: &mut [Complex64], dims: Dims3, dir: Direction) {
        transform_axis(data, dims, Axis::Z, &Plan::new(dims.nz), dir);
        transform_axis(data, dims, Axis::Y, &Plan::new(dims.ny), dir);
        transform_axis(data, dims, Axis::X, &Plan::new(dims.nx), dir);
    }
}

const DIRECTIONS: [Direction; 2] = [Direction::Forward, Direction::Inverse];

/// Mesh values the PME never produces but the kernel must still carry
/// bit for bit: signed zeros, subnormals and magnitudes near both ends
/// of the exponent range. Sums of 240 terms of 1e300 stay finite, so no
/// NaN arises; NaN payload propagation is out of scope of the contract.
fn fft_value(rng: &mut SmallRng, mode: u64) -> f64 {
    let u = rng.gen_f64() - 0.5;
    match (mode, rng.gen_range_usize(8)) {
        (1, _) => 0.0,
        (2, 0) => 0.0,
        (2, 1) => -0.0,
        (2, 2) => 5e-324,
        (2, 3) => -f64::MIN_POSITIVE / 4096.0,
        (2, 4) | (3, _) => 1e300 * u,
        (2, 5) | (4, _) => 1e-300 * u,
        _ => u,
    }
}

fn fft_signal(rng: &mut SmallRng, n: usize, mode: u64) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(fft_value(rng, mode), fft_value(rng, mode)))
        .collect()
}

fn assert_complex_bit_equal(got: &[Complex64], want: &[Complex64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: element {i}: {g:?} vs {w:?}"
        );
    }
}

#[test]
fn two_hundred_seeds_of_every_smooth_size_return_the_recursive_kernel_bits() {
    // Every smooth n <= 240 (and n = 1): radix 7, which no workload
    // mesh uses, is covered here only.
    for n in (1..=240).filter(|&n| cpc_fft::is_smooth(n)) {
        let plan = FftPlan::new(n);
        let frozen = fft_oracle::Plan::new(n);
        let mut got = vec![Complex64::ZERO; n];
        let mut want = vec![Complex64::ZERO; n];
        for seed in 0..SEEDS {
            let mut rng = SmallRng::seed_from_u64(0xFF7 ^ (seed << 8) ^ ((n as u64) << 24));
            let x = fft_signal(&mut rng, n, seed % 6);
            for dir in DIRECTIONS {
                plan.execute(&x, &mut got, dir);
                frozen.execute(&x, &mut want, dir);
                assert_complex_bit_equal(&got, &want, &format!("n {n} seed {seed} {dir:?}"));
            }
        }
    }
}

/// Runs `transform_axis` and its frozen per-line parent over the same
/// random grid and compares every bit.
fn assert_axis_matches_the_per_line_oracle(dims: Dims3, axis: Axis, seed: u64) {
    let len = match axis {
        Axis::X => dims.nx,
        Axis::Y => dims.ny,
        Axis::Z => dims.nz,
    };
    let plan = FftPlan::new(len);
    let frozen = fft_oracle::Plan::new(len);
    let mut rng = SmallRng::seed_from_u64(0xA715 ^ (seed << 8));
    for dir in DIRECTIONS {
        let x = fft_signal(&mut rng, dims.len(), seed % 6);
        let mut got = x.clone();
        transform_axis(&mut got, dims, axis, &plan, dir);
        let mut want = x;
        fft_oracle::transform_axis(&mut want, dims, axis, &frozen, dir);
        assert_complex_bit_equal(&got, &want, &format!("{dims:?} {axis:?} {dir:?}"));
    }
}

#[test]
fn batched_transform_axis_returns_the_per_line_bits_on_every_shape() {
    const FFT_LANES: usize = cpc_fft::LANES;
    let counts = [
        1,
        FFT_LANES - 1,
        FFT_LANES,
        FFT_LANES + 1,
        2 * FFT_LANES + 1,
    ];
    let mut seed = 0;
    let mut check = |dims: Dims3, axis: Axis| {
        seed += 1;
        assert_axis_matches_the_per_line_oracle(dims, axis, seed);
    };
    // Every batch shape: full batches, a one-line batch, and tails one
    // short of and one past a full batch, along each axis.
    for len in [80, 36, 48, 16] {
        for c in counts {
            check(Dims3::new(1, c, len), Axis::Z);
            check(Dims3::new(2, len, c), Axis::Y);
            check(Dims3::new(len, 1, c), Axis::X);
            check(Dims3::new(len, c, 1), Axis::X);
        }
    }
    // The paper mesh, the quick mesh, and what a rank transforms: its
    // slab along y and z and its column block along x, at every rank
    // count the campaigns run.
    for dims in [Dims3::new(80, 36, 48), Dims3::new(16, 16, 16)] {
        for axis in [Axis::Z, Axis::Y, Axis::X] {
            check(dims, axis);
        }
    }
    for p in RANK_COUNTS {
        let decomp = PmeDecomp::new(80, 36, 48, p);
        for rank in 0..p {
            let slab = Dims3::new(decomp.planes(rank).len(), 36, 48);
            check(slab, Axis::Z);
            check(slab, Axis::Y);
            check(Dims3::new(1, decomp.cols(rank).len(), 80), Axis::Z);
        }
    }
    // Zero lines: a rank that owns no plane transforms nothing.
    let empty = Dims3 {
        nx: 0,
        ny: 36,
        nz: 48,
    };
    for dir in DIRECTIONS {
        transform_axis(&mut [], empty, Axis::Z, &FftPlan::new(48), dir);
        transform_axis(&mut [], empty, Axis::Y, &FftPlan::new(36), dir);
    }
}

#[test]
fn a_bluestein_axis_still_matches_the_naive_dft() {
    // 97 is prime: the batched entry falls back to one line at a time.
    let dims = Dims3::new(3, 97, 5);
    let mut rng = SmallRng::seed_from_u64(97);
    let x = fft_signal(&mut rng, dims.len(), 0);
    let mut got = x.clone();
    transform_axis(
        &mut got,
        dims,
        Axis::Y,
        &FftPlan::new(97),
        Direction::Forward,
    );
    for xi in 0..dims.nx {
        for z in 0..dims.nz {
            let line: Vec<Complex64> = (0..97).map(|y| x[dims.idx(xi, y, z)]).collect();
            for (y, want) in dft(&line).iter().enumerate() {
                let err = (got[dims.idx(xi, y, z)] - *want).abs();
                assert!(err < 1e-8 * 97.0, "line ({xi}, {z}) bin {y}: {err:e}");
            }
        }
    }
}

#[test]
fn fft3d_on_the_paper_grid_returns_the_recursive_kernel_bits() {
    let dims = Dims3::new(80, 36, 48);
    let fft = Fft3d::new(dims);
    let x = fft_signal(&mut SmallRng::seed_from_u64(2002), dims.len(), 0);

    let mut got = x.clone();
    fft.forward(&mut got);
    let mut want = x;
    fft_oracle::fft3d(&mut want, dims, Direction::Forward);
    assert_complex_bit_equal(&got, &want, "forward");

    fft.inverse(&mut got);
    fft_oracle::fft3d(&mut want, dims, Direction::Inverse);
    let inv = 1.0 / dims.len() as f64;
    for v in want.iter_mut() {
        *v = v.scale(inv);
    }
    assert_complex_bit_equal(&got, &want, "inverse");
}

/// `Pme::energy_forces` with the parent's FFT in place of `Fft3d`: the
/// same public spline, spreading and influence code, and the solver's
/// convolution and interpolation loops.
fn pme_over_the_oracle_fft(sys: &System, params: PmeParams, forces: &mut [Vec3]) -> f64 {
    let (grid, order) = (params.grid, params.order);
    let influence = influence_function(grid, &sys.pbox, params.beta, order);
    let splines = compute_splines(&sys.pbox, &sys.positions, grid, order);
    let mut mesh = vec![Complex64::ZERO; grid.len()];
    spread_charges(&sys.topology, &splines, grid, order, &mut mesh);

    fft_oracle::fft3d(&mut mesh, grid, Direction::Forward);
    let mut energy = 0.0;
    for (v, &w) in mesh.iter_mut().zip(&influence) {
        energy += 0.5 * w * v.norm_sqr();
        *v = v.scale(w);
    }
    fft_oracle::fft3d(&mut mesh, grid, Direction::Inverse);
    let inv = 1.0 / grid.len() as f64;
    for v in mesh.iter_mut() {
        *v = v.scale(inv);
    }
    let scale = grid.len() as f64;

    let l = sys.pbox.lengths;
    let du = [
        grid.nx as f64 / l.x,
        grid.ny as f64 / l.y,
        grid.nz as f64 / l.z,
    ];
    for ((a, sp), f) in sys
        .topology
        .atoms
        .iter()
        .zip(&splines)
        .zip(forces.iter_mut())
    {
        let q = a.charge;
        if q == 0.0 {
            continue;
        }
        let mut grad = Vec3::ZERO;
        for tx in 0..order {
            let gx = (sp.base[0] + tx as i64).rem_euclid(grid.nx as i64) as usize;
            for ty in 0..order {
                let gy = (sp.base[1] + ty as i64).rem_euclid(grid.ny as i64) as usize;
                let row = (gx * grid.ny + gy) * grid.nz;
                for tz in 0..order {
                    let gz = (sp.base[2] + tz as i64).rem_euclid(grid.nz as i64) as usize;
                    let phi = mesh[row + gz].re * scale;
                    grad.x += sp.dw[0][tx] * sp.w[1][ty] * sp.w[2][tz] * phi;
                    grad.y += sp.w[0][tx] * sp.dw[1][ty] * sp.w[2][tz] * phi;
                    grad.z += sp.w[0][tx] * sp.w[1][ty] * sp.dw[2][tz] * phi;
                }
            }
        }
        *f -= Vec3::new(grad.x * du[0], grad.y * du[1], grad.z * du[2]) * q;
    }
    energy
}

#[test]
fn myoglobin_pme_returns_the_bits_of_the_pipeline_over_the_recursive_fft() {
    let sys = myoglobin_raw();
    let params = PmeParams::paper(0.34);
    let preload = random_forces(&mut SmallRng::seed_from_u64(803_648), sys.n_atoms());

    let mut got = preload.clone();
    let (e_got, _) = Pme::new(params, &sys.pbox).energy_forces(
        &sys.topology,
        &sys.pbox,
        &sys.positions,
        &mut got,
    );
    let mut want = preload;
    let e_want = pme_over_the_oracle_fft(&sys, params, &mut want);
    assert_eq!(e_got.to_bits(), e_want.to_bits());
    assert_forces_bit_equal(&got, &want, "myoglobin PME");
}

/// `cpc_md::minimize::minimize` as it was before a rejected move kept
/// the forces of the point it returns to: it evaluates there again.
/// Also returns how many moves it rejected.
mod minimize_oracle {
    use cpc_md::energy::{EnergyModel, Evaluator};
    use cpc_md::minimize::MinimizeResult;
    use cpc_md::{System, Vec3};

    pub fn minimize(
        system: &mut System,
        model: EnergyModel,
        steps: usize,
    ) -> (MinimizeResult, usize) {
        let n = system.n_atoms();
        let mut evaluator = Evaluator::new(model);
        let mut forces = vec![Vec3::ZERO; n];
        let (report, _) = evaluator.evaluate(system, &mut forces);
        let initial_energy = report.total();
        let mut energy = initial_energy;

        let max_disp = 0.2;
        let mut step_size: f64 = 0.01;
        let mut taken = 0usize;
        let mut rejected = 0usize;
        let mut trial = system.positions.clone();

        for _ in 0..steps {
            let fmax = forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
            if fmax < 1e-8 {
                break;
            }
            let scale = (step_size).min(max_disp / fmax);
            for ((t, &p), &f) in trial.iter_mut().zip(&system.positions).zip(&forces) {
                *t = p + f * scale;
            }
            std::mem::swap(&mut system.positions, &mut trial);
            let (report, _) = evaluator.evaluate(system, &mut forces);
            let new_energy = report.total();
            if new_energy <= energy {
                energy = new_energy;
                step_size *= 1.2;
                taken += 1;
            } else {
                rejected += 1;
                std::mem::swap(&mut system.positions, &mut trial);
                step_size *= 0.5;
                let (report, _) = evaluator.evaluate(system, &mut forces);
                energy = report.total();
                if step_size < 1e-10 {
                    break;
                }
            }
        }
        let result = MinimizeResult {
            initial_energy,
            final_energy: energy,
            steps_taken: taken,
        };
        (result, rejected)
    }
}

/// Minimizes a copy of `sys` both ways; the result, every position and
/// every velocity must be the oracle's bits. Returns the oracle's
/// rejected moves.
fn assert_minimize_matches_the_oracle(
    sys: &System,
    model: cpc_md::EnergyModel,
    steps: usize,
    what: &str,
) -> usize {
    let mut got = sys.clone();
    let mut want = sys.clone();
    let result = cpc_md::minimize::minimize(&mut got, model, steps);
    let (expected, rejected) = minimize_oracle::minimize(&mut want, model, steps);
    let bits = |r: cpc_md::minimize::MinimizeResult| {
        (
            r.initial_energy.to_bits(),
            r.final_energy.to_bits(),
            r.steps_taken,
        )
    };
    assert_eq!(bits(result), bits(expected), "{what}");
    assert_forces_bit_equal(&got.positions, &want.positions, what);
    assert_forces_bit_equal(&got.velocities, &want.velocities, what);
    rejected
}

#[test]
fn a_rejected_minimizer_move_keeps_the_bits_of_evaluating_again() {
    // The workload's build: 120 steps from the raw geometry.
    let rejected = assert_minimize_matches_the_oracle(
        &myoglobin_raw(),
        cpc_md::EnergyModel::Classic,
        120,
        "myoglobin",
    );
    assert!(rejected > 0, "no rejected move on myoglobin");
    let mut rejected = 0;
    for seed in 0..50u64 {
        let mut rng = SmallRng::seed_from_u64(0x317E ^ (seed << 8));
        let sys = scrambled_water_box(&mut rng);
        let model = if seed % 5 == 4 {
            cpc_md::EnergyModel::Pme(PmeParams {
                grid: Dims3::new(16, 16, 16),
                order: 4,
                beta: 0.34,
            })
        } else {
            cpc_md::EnergyModel::Classic
        };
        let what = format!("water box seed {seed}");
        rejected += assert_minimize_matches_the_oracle(&sys, model, 40, &what);
    }
    assert!(
        rejected >= 50,
        "only {rejected} rejected moves over 50 water boxes"
    );
}

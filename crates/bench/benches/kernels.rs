//! Criterion microbenchmarks of the compute kernels that dominate the
//! CHARMM energy calculation: FFTs, the nonbonded pair loop, PME charge
//! spreading/interpolation and neighbour-list construction.
//!
//! These measure *real* host time (the simulator charges virtual time
//! from operation counts; these benches document how fast the actual
//! Rust kernels run).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cpc_fft::{transform_axis, Axis, Complex64, Dims3, Direction, Fft3d, FftPlan};
use cpc_md::builder::{myoglobin_raw, water_box};
use cpc_md::neighbor::NeighborList;
use cpc_md::nonbonded::{nonbonded_energy_forces, ElecMethod, NonbondedOptions};
use cpc_md::pme::{compute_splines, spread_charges, Pme, PmeParams};
use cpc_md::{EnergyModel, Evaluator, System, Vec3};
use cpc_workload::runner::paper_pme_params;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

fn bench_fft_1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_1d");
    // The paper's mesh extents plus a power of two and a Bluestein prime.
    for n in [36usize, 48, 80, 128, 97] {
        let plan = FftPlan::new(n);
        let x = signal(n);
        let mut y = vec![Complex64::ZERO; n];
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| plan.forward(black_box(&x), &mut y));
        });
    }
    group.finish();
}

fn bench_fft_3d_paper_grid(c: &mut Criterion) {
    let dims = Dims3::new(80, 36, 48);
    let fft = Fft3d::new(dims);
    let x = signal(dims.len());
    c.bench_function("fft_3d_80x36x48", |b| {
        b.iter_batched(
            || x.clone(),
            |mut data| fft.forward(black_box(&mut data)),
            BatchSize::LargeInput,
        );
    });
}

/// What a PME evaluation pays: a forward and a normalized inverse in
/// place on one buffer (so the data stays bounded with no clone in the
/// timed closure), on the paper mesh and on the 16^3 quick mesh of the
/// `svc_*`/`serve_paced` workloads.
fn bench_fft_3d_pairs(c: &mut Criterion) {
    for (nx, ny, nz) in [(80, 36, 48), (16, 16, 16)] {
        let dims = Dims3::new(nx, ny, nz);
        let fft = Fft3d::new(dims);
        let mut data = signal(dims.len());
        c.bench_function(format!("fft_3d_pair_{nx}x{ny}x{nz}"), |b| {
            b.iter(|| {
                fft.forward(black_box(&mut data));
                fft.inverse(black_box(&mut data));
            });
        });
    }
}

/// The batched axis passes one rank of a p = 8 myoglobin cell runs: its
/// 10-plane slab along z and y, and its 216-column block along x. Each
/// iteration is a forward and an unscaled inverse divided out again.
fn bench_transform_axis_p8(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform_axis_p8");
    let slab = Dims3::new(10, 36, 48);
    let cols = Dims3::new(1, 36 * 48 / 8, 80);
    for (name, dims, axis, len) in [
        ("z_slab_10x36x48", slab, Axis::Z, 48),
        ("y_slab_10x36x48", slab, Axis::Y, 36),
        ("x_cols_216x80", cols, Axis::Z, 80),
    ] {
        let plan = FftPlan::new(len);
        let mut data = signal(dims.len());
        let inv = 1.0 / len as f64;
        group.bench_function(name, |b| {
            b.iter(|| {
                transform_axis(black_box(&mut data), dims, axis, &plan, Direction::Forward);
                transform_axis(black_box(&mut data), dims, axis, &plan, Direction::Inverse);
                for v in data.iter_mut() {
                    *v = v.scale(inv);
                }
            });
        });
    }
    group.finish();
}

fn bench_nonbonded(c: &mut Criterion) {
    let sys = water_box(6, 3.1);
    let opts = NonbondedOptions::classic();
    let list = NeighborList::build(&sys.topology, &sys.pbox, &sys.positions, opts.cutoff, 2.0);
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    c.bench_function(format!("nonbonded_{}_pairs", list.pairs.len()), |b| {
        b.iter(|| {
            nonbonded_energy_forces(
                &sys.topology,
                &sys.pbox,
                black_box(&sys.positions),
                &list.pairs,
                &opts,
                &mut forces,
            )
        });
    });
}

/// Unrelaxed myoglobin, its pair list and the paper's direct-space
/// options (`beta` such that `erfc(beta * 10 A) ~ 1e-6`).
fn myoglobin_pme_direct() -> (System, NeighborList, NonbondedOptions) {
    let sys = myoglobin_raw();
    let opts = NonbondedOptions::pme_direct(paper_pme_params().beta);
    let list = NeighborList::build(&sys.topology, &sys.pbox, &sys.positions, opts.cutoff, 2.0);
    (sys, list, opts)
}

/// The paper's system under the paper's PME protocol: the row whose
/// cost is `erfc` (DESIGN.md §20).
fn bench_nonbonded_pme_direct_myoglobin(c: &mut Criterion) {
    let (sys, list, opts) = myoglobin_pme_direct();
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    c.bench_function("nonbonded_pme_direct_myoglobin", |b| {
        b.iter(|| {
            nonbonded_energy_forces(
                &sys.topology,
                &sys.pbox,
                black_box(&sys.positions),
                &list.pairs,
                &opts,
                &mut forces,
            )
        });
    });
}

fn bench_neighbor_build(c: &mut Criterion) {
    let sys = water_box(6, 3.1);
    c.bench_function("neighbor_list_build_648_atoms", |b| {
        b.iter(|| {
            NeighborList::build(
                &sys.topology,
                &sys.pbox,
                black_box(&sys.positions),
                10.0,
                2.0,
            )
        });
    });
}

fn bench_pme_spread(c: &mut Criterion) {
    let sys = water_box(6, 3.1);
    let grid = Dims3::new(20, 20, 20);
    let splines = compute_splines(&sys.pbox, &sys.positions, grid, 4);
    let mut mesh = vec![Complex64::ZERO; grid.len()];
    c.bench_function("pme_spread_648_atoms", |b| {
        b.iter(|| spread_charges(&sys.topology, black_box(&splines), grid, 4, &mut mesh));
    });
}

fn bench_pme_full(c: &mut Criterion) {
    let sys = water_box(6, 3.1);
    let params = PmeParams {
        grid: Dims3::new(20, 20, 20),
        order: 4,
        beta: 0.34,
    };
    let mut pme = Pme::new(params, &sys.pbox);
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    c.bench_function("pme_full_evaluation", |b| {
        b.iter(|| {
            pme.energy_forces(
                &sys.topology,
                &sys.pbox,
                black_box(&sys.positions),
                &mut forces,
            )
        });
    });
}

fn bench_full_energy(c: &mut Criterion) {
    let sys = water_box(6, 3.1);
    let mut evaluator = Evaluator::new(EnergyModel::Classic);
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    c.bench_function("full_classic_energy_648_atoms", |b| {
        b.iter(|| evaluator.evaluate(black_box(&sys), &mut forces));
    });
}

/// `beta * r` of every charged in-cutoff pair of the myoglobin list —
/// the arguments a PME step actually evaluates (four in five beyond the
/// series/continued-fraction crossover).
fn myoglobin_beta_r() -> Vec<f64> {
    let (sys, list, opts) = myoglobin_pme_direct();
    let ElecMethod::EwaldDirect { beta } = opts.elec else {
        unreachable!("pme_direct is EwaldDirect")
    };
    list.pairs
        .iter()
        .filter_map(|&(i, j)| {
            let (i, j) = (i as usize, j as usize);
            let r = sys.pbox.distance(sys.positions[i], sys.positions[j]);
            let charged = sys.topology.atoms[i].charge * sys.topology.atoms[j].charge != 0.0;
            (r < opts.cutoff && charged).then_some(beta * r)
        })
        .collect()
}

fn bench_special_functions(c: &mut Criterion) {
    let x = myoglobin_beta_r();
    let mut group = c.benchmark_group(format!("erfc_myoglobin_{}_args", x.len()));
    group.bench_function("scalar", |b| {
        b.iter(|| x.iter().map(|&x| cpc_md::special::erfc(x)).sum::<f64>());
    });
    let mut out = vec![0.0; x.len()];
    let mut gauss = vec![0.0; x.len()];
    group.bench_function("erfc_batch", |b| {
        b.iter(|| cpc_md::special::erfc_batch(black_box(&x), &mut out, &mut gauss));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fft_1d,
    bench_fft_3d_paper_grid,
    bench_fft_3d_pairs,
    bench_transform_axis_p8,
    bench_nonbonded,
    bench_nonbonded_pme_direct_myoglobin,
    bench_neighbor_build,
    bench_pme_spread,
    bench_pme_full,
    bench_full_energy,
    bench_special_functions
);
criterion_main!(benches);

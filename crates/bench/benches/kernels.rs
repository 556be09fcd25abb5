//! Criterion microbenchmarks of the compute kernels that dominate the
//! CHARMM energy calculation: FFTs, the nonbonded pair loop, PME charge
//! spreading/interpolation, neighbour-list construction and the mesh
//! collectives of a p = 8 PME step.
//!
//! These measure *real* host time (the simulator charges virtual time
//! from operation counts; these benches document how fast the actual
//! Rust kernels run).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cpc_charmm::decomp::PmeDecomp;
use cpc_charmm::pme_par::{transpose_backward_impl, transpose_forward_impl};
use cpc_cluster::{run_cluster, ClusterConfig, NetworkKind, PIII_1GHZ};
use cpc_fft::{transform_axis, Axis, Complex64, Dims3, Direction, Fft3d, FftPlan};
use cpc_md::builder::{myoglobin_raw, water_box};
use cpc_md::neighbor::NeighborList;
use cpc_md::nonbonded::{nonbonded_energy_forces, ElecMethod, NonbondedOptions};
use cpc_md::pme::{compute_splines, spread_charges, Pme, PmeParams};
use cpc_md::{EnergyModel, Evaluator, System, Vec3};
use cpc_mpi::{Comm, Middleware};
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

/// The three regimes of the neighbour build. A 648-atom water box is a
/// 2x2x2 grid at reach 12 A, i.e. the O(N^2) fallback every quick-system
/// cell takes; myoglobin at reach 12 A is the dense linked-cell case
/// (5x3x4 cells, ~59 atoms each) a p = 8 cell pays once; reach 0.95 A is
/// the sparse one `relieve_clashes` builds on (63x37x50 cells, nearly
/// all empty).
fn bench_neighbor_build(c: &mut Criterion) {
    let water = water_box(6, 3.1);
    let myoglobin = myoglobin_raw();
    for (name, sys, cutoff, skin) in [
        ("neighbor_list_build_648_atoms_fallback", &water, 10.0, 2.0),
        ("neighbor_list_build_myoglobin", &myoglobin, 10.0, 2.0),
        (
            "neighbor_list_build_myoglobin_reach_0p95",
            &myoglobin,
            0.9,
            0.05,
        ),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                NeighborList::build(
                    &sys.topology,
                    &sys.pbox,
                    black_box(&sys.positions),
                    cutoff,
                    skin,
                )
            });
        });
    }
}

/// The gather half of the pair kernel: the minimum-image displacement
/// of every entry of the myoglobin list.
fn bench_min_image_gather(c: &mut Criterion) {
    let (sys, list, _) = myoglobin_pme_direct();
    c.bench_function("min_image_gather_myoglobin", |b| {
        b.iter(|| {
            let positions = black_box(&sys.positions);
            list.pairs
                .iter()
                .map(|&(i, j)| {
                    sys.pbox
                        .min_image(positions[i as usize], positions[j as usize])
                        .norm_sqr()
                })
                .sum::<f64>()
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

/// The three collectives that move the 80x36x48 mesh (138 240 words) in
/// a p = 8 PME evaluation, each timed as one `run_cluster` of eight rank
/// threads — spawn, the collective, join: the wall time of the slowest
/// rank, with however many CPUs the host has under the eight threads.
fn bench_mesh_collectives_p8(c: &mut Criterion) {
    const P: usize = 8;
    let decomp = PmeDecomp::new(80, 36, 48, P);
    let plane = decomp.ny * decomp.nz;
    let mesh = decomp.nx * plane;
    let cfg = ClusterConfig::uni(P, NetworkKind::MyrinetGm);

    c.bench_function("allreduce_ring_p8_mesh", |b| {
        b.iter(|| {
            run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                let mut qgrid = vec![comm.rank() as f64; mesh];
                comm.allreduce_ring(&mut qgrid);
                qgrid[mesh / 2]
            })
        });
    });

    c.bench_function("allgather_p8_phi", |b| {
        b.iter(|| {
            run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                let mine = vec![comm.rank() as f64; decomp.planes(comm.rank()).len() * plane];
                let mut phi = vec![0.0f64; mesh];
                comm.allgather_with(mine, |src, part| {
                    let base = decomp.planes(src).start * plane;
                    phi[base..base + part.len()].copy_from_slice(part);
                });
                phi[mesh / 2]
            })
        });
    });

    c.bench_function("pme_transpose_p8", |b| {
        b.iter(|| {
            run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                let rank = comm.rank();
                let mut slab = signal(decomp.planes(rank).len() * plane);
                let mut cols = vec![Complex64::ZERO; decomp.cols(rank).len() * decomp.nx];
                let forward = Some((&slab[..], &mut cols[..]));
                transpose_forward_impl(&decomp, &mut comm, forward, &PIII_1GHZ, false);
                let backward = Some((&cols[..], &mut slab[..]));
                transpose_backward_impl(&decomp, &mut comm, backward, &PIII_1GHZ, false);
                slab[0]
            })
        });
    });
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
    bench_min_image_gather,
    bench_pme_spread,
    bench_pme_full,
    bench_full_energy,
    bench_special_functions,
    bench_mesh_collectives_p8
);
criterion_main!(benches);

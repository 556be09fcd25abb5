//! The parallel *PME* energy calculation (paper Figure 2, right),
//! modelled on CHARMM's replicated-data implementation:
//!
//! 1. each rank spreads *its atom block* onto a full local copy of the
//!    charge mesh (atoms are block-decomposed, not spatially sorted, so
//!    their spline support lands anywhere on the mesh),
//! 2. the charge mesh is summed globally (ring allreduce — the
//!    dominant "all-to-all" traffic of the PME routine),
//! 3. the 3D FFT runs slab-decomposed: local 2D transforms, an
//!    all-to-all personalized transpose, local 1D transforms,
//!    convolution with the influence function, and the inverse path,
//! 4. the convolution mesh is allgathered so every rank can
//!    interpolate forces for its own atom block,
//! 5. k-space forces and energies are closed with the same global
//!    combine as the classic calculation.
//!
//! Steps 2 and 4 move the full mesh every MD step — this is precisely
//! why the paper finds that "the PME method increases the dependency on
//! the better networks".

use crate::decomp::{block_range, PmeDecomp};
use cpc_cluster::{CostModel, Phase};
use cpc_fft::plan::flops_estimate;
use cpc_fft::{transform_axis, Axis, Complex64, Dims3, Direction, FftPlan};
use cpc_md::nonbonded::ewald_excluded_correction_range;
use cpc_md::pme::{bspline_moduli, compute_splines, influence_element, AtomSpline, PmeParams};
use cpc_md::topology::Topology;
use cpc_md::units::COULOMB;
use cpc_md::{PbcBox, System, Vec3};
use cpc_mpi::{CombineAlgo, Comm};
use std::cell::RefCell;
use std::f64::consts::PI;
use std::ops::Range;

/// ABFT evidence collected during one parallel PME evaluation.
///
/// B-spline interpolation partitions unity, so the globally summed
/// charge mesh must reproduce the total system charge exactly up to
/// roundoff (`grid_residual`), and every block crossing the
/// distributed-FFT transpose carries a bit-exact checksum
/// (`transpose_faults` counts blocks that failed verification).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PmeAbftProbe {
    /// `|Σ qgrid - Σ q| / max(Σ |q|, 1)` after the global mesh sum.
    pub grid_residual: f64,
    /// Number of transpose blocks whose checksum failed.
    pub transpose_faults: usize,
}

/// Result of one parallel PME evaluation, identical on every rank.
#[derive(Debug, Clone)]
pub struct PmeParallelResult {
    /// Reciprocal-space energy.
    pub recip: f64,
    /// Ewald self term.
    pub self_term: f64,
    /// Excluded-pair correction.
    pub excluded: f64,
    /// Global k-space forces (reciprocal + exclusion corrections).
    pub forces: Vec<Vec3>,
    /// ABFT evidence (`Some` only when checks were armed).
    pub abft: Option<PmeAbftProbe>,
}

impl PmeParallelResult {
    /// Total k-space energy (the paper's "PME calculation" share).
    pub fn energy(&self) -> f64 {
        self.recip + self.self_term + self.excluded
    }
}

/// Reusable parallel PME state for a fixed mesh and rank count.
pub struct ParallelPme {
    params: PmeParams,
    decomp: PmeDecomp,
    grid_sum: CombineAlgo,
    force_combine: CombineAlgo,
    abft: bool,
    plan_x: FftPlan,
    plan_y: FftPlan,
    plan_z: FftPlan,
    bx: Vec<f64>,
    by: Vec<f64>,
    bz: Vec<f64>,
    /// Influence weights of the calling rank's column block. One
    /// engine serves one rank, so after the first evaluation this is a
    /// hit until the box changes.
    influence: RefCell<Option<InfluenceBlock>>,
}

/// Influence weights of one column block, laid out like the block's
/// `cols` buffer (`weights[c_local * nx + mx]`), with the box and the
/// block they were computed for.
pub(crate) struct InfluenceBlock {
    pbox: PbcBox,
    cols: Range<usize>,
    weights: Vec<f64>,
}

/// 1D FFT along x on one rank's columns (`cols[c_local * nx + gx]`),
/// influence multiply with the partial reciprocal energy (returned),
/// inverse 1D FFT. The inverse is unscaled: it matches the sequential
/// convolution grid without any 1/N bookkeeping. The influence weights
/// are computed on the first call and whenever the box or the block
/// differs from the one in `cache`.
pub(crate) fn convolve_columns(
    params: &PmeParams,
    moduli: [&[f64]; 3],
    plan_x: &FftPlan,
    pbox: &PbcBox,
    my_cols: &Range<usize>,
    cols: &mut [Complex64],
    cache: &mut Option<InfluenceBlock>,
) -> f64 {
    if my_cols.is_empty() {
        return 0.0;
    }
    let g = params.grid;
    if !matches!(cache, Some(b) if b.pbox == *pbox && b.cols == *my_cols) {
        let mut weights = Vec::with_capacity(my_cols.len() * g.nx);
        for c in my_cols.clone() {
            let (my, mz) = (c / g.nz, c % g.nz);
            weights.extend((0..g.nx).map(|mx| {
                influence_element(
                    g,
                    pbox,
                    params.beta,
                    moduli[0],
                    moduli[1],
                    moduli[2],
                    mx,
                    my,
                    mz,
                )
            }));
        }
        *cache = Some(InfluenceBlock {
            pbox: *pbox,
            cols: my_cols.clone(),
            weights,
        });
    }
    let influence = &cache.as_ref().expect("filled above").weights;
    // The columns are the z lines of a 1 x n_cols x nx grid, so they go
    // through the batched kernel eight at a time like any other axis.
    let block = Dims3::new(1, my_cols.len(), g.nx);
    transform_axis(cols, block, Axis::Z, plan_x, Direction::Forward);
    let mut recip_partial = 0.0;
    for (v, &w) in cols.iter_mut().zip(influence) {
        recip_partial += 0.5 * w * v.norm_sqr();
        *v = v.scale(w);
    }
    transform_axis(cols, block, Axis::Z, plan_x, Direction::Inverse);
    recip_partial
}

impl ParallelPme {
    /// Builds plans and spline moduli for `p` ranks.
    pub fn new(params: PmeParams, p: usize) -> Self {
        let g = params.grid;
        ParallelPme {
            params,
            decomp: PmeDecomp::new(g.nx, g.ny, g.nz, p),
            grid_sum: CombineAlgo::Ring,
            force_combine: CombineAlgo::Flat,
            abft: false,
            plan_x: FftPlan::new(g.nx),
            plan_y: FftPlan::new(g.ny),
            plan_z: FftPlan::new(g.nz),
            bx: bspline_moduli(g.nx, params.order),
            by: bspline_moduli(g.ny, params.order),
            bz: bspline_moduli(g.nz, params.order),
            influence: RefCell::new(None),
        }
    }

    /// Configured parameters.
    pub fn params(&self) -> PmeParams {
        self.params
    }

    /// Overrides the charge-grid sum algorithm (ablation hook).
    pub(crate) fn with_grid_sum(mut self, algo: CombineAlgo) -> Self {
        self.grid_sum = algo;
        self
    }

    /// Overrides the closing force-combine algorithm (ablation hook).
    pub(crate) fn with_force_combine(mut self, algo: CombineAlgo) -> Self {
        self.force_combine = algo;
        self
    }

    /// Arms the ABFT invariants: the grid-charge check after the mesh
    /// sum and per-block checksums across the distributed-FFT
    /// transposes. Off by default — an unarmed evaluation is
    /// byte-identical to the pre-ABFT code path.
    pub fn with_abft(mut self, armed: bool) -> Self {
        self.abft = armed;
        self
    }

    /// Reassigns mesh plane slabs proportionally to per-rank capacities
    /// (straggler rebalancing). All ranks must apply identical weights;
    /// uniform weights restore the original decomposition exactly.
    pub(crate) fn with_plane_weights(mut self, caps: &[f64]) -> Self {
        self.decomp = self.decomp.with_plane_weights(caps);
        self
    }

    /// Full parallel k-space evaluation. All ranks must pass identical
    /// system state. Communication is booked in the `Pme` phase.
    pub fn energy_forces(
        &self,
        comm: &mut Comm<'_>,
        system: &System,
        cost: &CostModel,
    ) -> PmeParallelResult {
        comm.ctx().set_phase(Phase::Pme);
        let p = comm.size();
        let rank = comm.rank();
        debug_assert_eq!(p, self.decomp.p, "rank count must match construction");
        let g = self.params.grid;
        let (ny, nz, nx) = (g.ny, g.nz, g.nx);
        let topo = &system.topology;

        let my_planes = self.decomp.planes(rank);
        let x0 = my_planes.start;
        let n_planes = my_planes.len();
        let my_cols = self.decomp.cols(rank);
        let n_cols = my_cols.len();
        let atom_block = block_range(system.n_atoms(), p, rank);

        // --- Charge spreading: my atom block onto a full local mesh.
        // Only this block's splines are ever read (here and in the
        // interpolation below); `splines[k]` belongs to atom
        // `atom_block.start + k`.
        let splines = compute_splines(
            &system.pbox,
            &system.positions[atom_block.clone()],
            g,
            self.params.order,
        );
        let mut qgrid = vec![0.0; g.len()];
        let spread_points = self.spread(topo, &atom_block, &splines, &mut qgrid);
        comm.ctx()
            .charge_compute(spread_points as f64 * cost.spread_point);

        // --- Global charge-mesh sum (CHARMM applies its global-combine
        // machinery to the whole mesh).
        comm.allreduce_with(self.grid_sum, &mut qgrid);

        // ABFT grid-charge invariant: B-spline weights partition unity,
        // so the summed mesh must hold exactly the total system charge
        // up to roundoff. A pure side read over the reduced mesh.
        let grid_residual = if self.abft {
            comm.ctx().charge_compute(g.len() as f64 * cost.conv_point);
            let mesh_q: f64 = qgrid.iter().sum();
            let total_q: f64 = topo.atoms.iter().map(|a| a.charge).sum();
            let scale: f64 = topo.atoms.iter().map(|a| a.charge.abs()).sum();
            (mesh_q - total_q).abs() / scale.max(1.0)
        } else {
            0.0
        };

        // Extract my slab as complex data for the distributed FFT. The
        // full mesh copy is dead from here on, and every buffer below is
        // dropped at its last use: eight rank threads each holding a
        // replicated mesh is what sets the process's peak resident size.
        let my_points = x0 * ny * nz..(x0 + n_planes) * ny * nz;
        let mut slab: Vec<Complex64> = qgrid[my_points]
            .iter()
            .map(|&q| Complex64::from_real(q))
            .collect();
        drop(qgrid);

        // --- Forward 2D FFTs (y and z) on the local planes.
        let fft2d_flops =
            n_planes as f64 * (ny as f64 * flops_estimate(nz) + nz as f64 * flops_estimate(ny));
        if n_planes > 0 {
            let dims = Dims3::new(n_planes, ny, nz);
            transform_axis(&mut slab, dims, Axis::Z, &self.plan_z, Direction::Forward);
            transform_axis(&mut slab, dims, Axis::Y, &self.plan_y, Direction::Forward);
        }
        comm.ctx().charge_compute(fft2d_flops * cost.fft_flop);

        // --- Transpose: slab (planes x cols) -> columns (cols x nx).
        let mut cols = vec![Complex64::ZERO; n_cols * nx];
        let mut transpose_faults = self.transpose_forward(comm, &slab, &mut cols, cost);
        drop(slab);

        // --- 1D FFT along x on owned columns, influence multiply with
        // the partial energy, inverse 1D FFT.
        let recip_partial = convolve_columns(
            &self.params,
            [&self.bx, &self.by, &self.bz],
            &self.plan_x,
            &system.pbox,
            &my_cols,
            &mut cols,
            &mut self.influence.borrow_mut(),
        );
        comm.ctx().charge_compute(
            n_cols as f64 * 2.0 * flops_estimate(nx) * cost.fft_flop
                + (n_cols * nx) as f64 * cost.conv_point,
        );

        // --- Transpose back and inverse 2D FFTs.
        let mut slab_phi = vec![Complex64::ZERO; n_planes * ny * nz];
        transpose_faults += self.transpose_backward(comm, &cols, &mut slab_phi, cost);
        drop(cols);
        if n_planes > 0 {
            let dims = Dims3::new(n_planes, ny, nz);
            transform_axis(
                &mut slab_phi,
                dims,
                Axis::Y,
                &self.plan_y,
                Direction::Inverse,
            );
            transform_axis(
                &mut slab_phi,
                dims,
                Axis::Z,
                &self.plan_z,
                Direction::Inverse,
            );
        }
        comm.ctx().charge_compute(fft2d_flops * cost.fft_flop);

        let n = system.n_atoms();
        let beta = self.params.beta;

        // --- Allgather the convolution mesh: every rank needs phi
        // everywhere because its atoms are block-decomposed.
        let mine: Vec<f64> = slab_phi.iter().map(|v| v.re).collect();
        drop(slab_phi);
        let mut phi = vec![0.0f64; g.len()];
        comm.allgather_with(mine, |s_rank, part| {
            let base = self.decomp.planes(s_rank).start * ny * nz;
            phi[base..base + part.len()].copy_from_slice(part);
        });

        // --- Force interpolation for my atom block over the full mesh.
        let mut forces = vec![Vec3::ZERO; n];
        let interp_points = self.interpolate(system, &atom_block, &splines, &phi, &mut forces);
        drop(phi);
        comm.ctx()
            .charge_compute(interp_points as f64 * cost.interp_point);

        // --- Excluded-pair corrections over this rank's atom block.
        let (excl_partial, excl_count) = ewald_excluded_correction_range(
            topo,
            &system.pbox,
            &system.positions,
            beta,
            atom_block,
            &mut forces,
        );
        comm.ctx()
            .charge_compute(excl_count as f64 * cost.excl_pair);

        // Self energy: exact and position independent; contributed once
        // (rank 0) so the global sum is correct.
        let self_partial = if rank == 0 {
            let q2: f64 = topo.atoms.iter().map(|a| a.charge * a.charge).sum();
            -COULOMB * beta / PI.sqrt() * q2
        } else {
            0.0
        };

        // --- Final all-to-all collective: k-space forces + energies.
        let mut buf = Vec::with_capacity(3 * n + 3);
        for f in &forces {
            buf.extend_from_slice(&[f.x, f.y, f.z]);
        }
        buf.extend_from_slice(&[recip_partial, excl_partial, self_partial]);
        comm.allreduce_with(self.force_combine, &mut buf);
        for (i, f) in forces.iter_mut().enumerate() {
            *f = Vec3::new(buf[3 * i], buf[3 * i + 1], buf[3 * i + 2]);
        }
        PmeParallelResult {
            recip: buf[3 * n],
            excluded: buf[3 * n + 1],
            self_term: buf[3 * n + 2],
            forces,
            abft: self.abft.then_some(PmeAbftProbe {
                grid_residual,
                transpose_faults,
            }),
        }
    }

    /// Spreads the charges of `block` (`splines[k]` is atom
    /// `block.start + k`) onto `qgrid`; returns the points visited.
    fn spread(
        &self,
        topo: &Topology,
        block: &Range<usize>,
        splines: &[AtomSpline],
        qgrid: &mut [f64],
    ) -> usize {
        let g = self.params.grid;
        let (ny, nz, nx) = (g.ny, g.nz, g.nx);
        let order = self.params.order;
        let mut points = 0usize;
        for (i, sp) in block.clone().zip(splines) {
            let q = topo.atoms[i].charge;
            if q == 0.0 {
                continue;
            }
            for tx in 0..order {
                let gx = (sp.base[0] + tx as i64).rem_euclid(nx as i64) as usize;
                let qx = q * sp.w[0][tx];
                for ty in 0..order {
                    let gy = (sp.base[1] + ty as i64).rem_euclid(ny as i64) as usize;
                    let qxy = qx * sp.w[1][ty];
                    let row = (gx * ny + gy) * nz;
                    for tz in 0..order {
                        let gz = (sp.base[2] + tz as i64).rem_euclid(nz as i64) as usize;
                        qgrid[row + gz] += qxy * sp.w[2][tz];
                        points += 1;
                    }
                }
            }
        }
        points
    }

    /// Interpolates the k-space forces of `block` over the full
    /// potential mesh `phi` into `forces`; returns the points visited.
    fn interpolate(
        &self,
        system: &System,
        block: &Range<usize>,
        splines: &[AtomSpline],
        phi: &[f64],
        forces: &mut [Vec3],
    ) -> usize {
        let g = self.params.grid;
        let (ny, nz, nx) = (g.ny, g.nz, g.nx);
        let order = self.params.order;
        let l = system.pbox.lengths;
        let du = [nx as f64 / l.x, ny as f64 / l.y, nz as f64 / l.z];
        let mut points = 0usize;
        for (i, sp) in block.clone().zip(splines) {
            let q = system.topology.atoms[i].charge;
            if q == 0.0 {
                continue;
            }
            let mut grad = Vec3::ZERO;
            for tx in 0..order {
                let gx = (sp.base[0] + tx as i64).rem_euclid(nx as i64) as usize;
                for ty in 0..order {
                    let gy = (sp.base[1] + ty as i64).rem_euclid(ny as i64) as usize;
                    let row = (gx * ny + gy) * nz;
                    for tz in 0..order {
                        let gz = (sp.base[2] + tz as i64).rem_euclid(nz as i64) as usize;
                        let ph = phi[row + gz];
                        grad.x += sp.dw[0][tx] * sp.w[1][ty] * sp.w[2][tz] * ph;
                        grad.y += sp.w[0][tx] * sp.dw[1][ty] * sp.w[2][tz] * ph;
                        grad.z += sp.w[0][tx] * sp.w[1][ty] * sp.dw[2][tz] * ph;
                        points += 1;
                    }
                }
            }
            forces[i] -= Vec3::new(grad.x * du[0], grad.y * du[1], grad.z * du[2]) * q;
        }
        points
    }

    /// Forward transpose: my planes of every column block go to the
    /// block's owner; I collect my columns from every plane owner.
    /// Returns the number of blocks whose ABFT checksum failed.
    fn transpose_forward(
        &self,
        comm: &mut Comm<'_>,
        slab: &[Complex64],
        cols: &mut [Complex64],
        cost: &CostModel,
    ) -> usize {
        transpose_forward_impl(&self.decomp, comm, slab, cols, cost, self.abft)
    }

    /// Backward transpose: exact mirror of the forward one.
    fn transpose_backward(
        &self,
        comm: &mut Comm<'_>,
        cols: &[Complex64],
        slab: &mut [Complex64],
        cost: &CostModel,
    ) -> usize {
        transpose_backward_impl(&self.decomp, comm, cols, slab, cost, self.abft)
    }
}

/// Appends a 52-bit block checksum as the trailing `f64` of an outgoing
/// transpose block (only when ABFT is armed).
fn seal_block(block: &mut Vec<f64>) {
    let digest = cpc_md::abft::scalar_digest(block) & cpc_md::abft::DIGEST_MASK;
    block.push(digest as f64);
}

/// Verifies and strips the trailing checksum of a received transpose
/// block. Returns `(payload, ok)`.
fn open_block(block: &[f64]) -> (&[f64], bool) {
    match block.split_last() {
        Some((sealed, payload)) => {
            let digest = cpc_md::abft::scalar_digest(payload) & cpc_md::abft::DIGEST_MASK;
            (payload, *sealed == digest as f64)
        }
        None => (block, false),
    }
}

/// Appends `points` to an outgoing transpose block, re then im.
fn pack<'a>(block: &mut Vec<f64>, points: impl Iterator<Item = &'a Complex64>) {
    for v in points {
        block.push(v.re);
        block.push(v.im);
    }
}

/// Writes the re/im pairs of `run`, a stretch of a received transpose
/// block, over `points`.
fn unpack<'a>(points: impl Iterator<Item = &'a mut Complex64>, run: &[f64]) {
    for (point, v) in points.zip(run.chunks_exact(2)) {
        *point = Complex64::new(v[0], v[1]);
    }
}

/// A received transpose block's payload: as it is, or (when `abft` is
/// armed) verified and stripped of its seal, a failure counted into
/// `faults`.
fn open_received<'a>(block: &'a [f64], abft: bool, faults: &mut usize) -> &'a [f64] {
    if !abft {
        return block;
    }
    let (payload, ok) = open_block(block);
    *faults += usize::from(!ok);
    payload
}

/// The all-to-all both transposes run: to every rank `d` a block of
/// `sent(d)` points, two `f64` each, that `pack_for` packs; from every
/// rank `s` a block of `received(s)` points that `land_from` lands.
/// Every point packed and every point received is charged one
/// `conv_point`; when `abft` is armed every block carries a trailing
/// checksum, digested once more on each side. Returns the number of
/// blocks that failed verification.
fn exchange_blocks(
    comm: &mut Comm<'_>,
    cost: &CostModel,
    abft: bool,
    sent: impl Fn(usize) -> usize,
    received: impl Fn(usize) -> usize,
    mut pack_for: impl FnMut(usize, &mut Vec<f64>),
    mut land_from: impl FnMut(usize, &[f64]),
) -> usize {
    let p = comm.size();
    let seal = usize::from(abft);
    let packed: usize = (0..p).map(&sent).sum();
    comm.ctx().charge_compute(packed as f64 * cost.conv_point);
    if abft {
        // Sealing digests every packed element once more.
        comm.ctx().charge_compute(packed as f64 * cost.conv_point);
    }

    let sends = (0..p)
        .map(|d| {
            let mut block = Vec::with_capacity(2 * sent(d) + seal);
            pack_for(d, &mut block);
            if abft {
                seal_block(&mut block);
            }
            block
        })
        .collect();
    let recvs = comm.alltoallv(sends);
    let mut faults = 0usize;
    let mut unpacked = 0usize;
    for (s, block) in recvs.iter().enumerate() {
        let payload = open_received(block, abft, &mut faults);
        assert_eq!(payload.len(), 2 * received(s), "block size");
        land_from(s, payload);
        unpacked += payload.len() / 2;
    }
    comm.ctx().charge_compute(unpacked as f64 * cost.conv_point);
    if abft {
        comm.ctx().charge_compute(unpacked as f64 * cost.conv_point);
    }
    faults
}

/// Shared slab -> columns transpose (also used by the spatial PME) from
/// `slab` into `cols`. When `abft` is armed every block carries a
/// trailing checksum; returns the number of blocks that failed
/// verification.
///
/// A column index *is* the offset inside a plane (`c = y * nz + z`), so
/// the columns of one destination are one contiguous run of each of my
/// planes: packing copies runs, and only the unpack strides.
pub fn transpose_forward_impl(
    decomp: &PmeDecomp,
    comm: &mut Comm<'_>,
    slab: &[Complex64],
    cols: &mut [Complex64],
    cost: &CostModel,
    abft: bool,
) -> usize {
    let (plane, nx) = (decomp.ny * decomp.nz, decomp.nx);
    let rank = comm.rank();
    let n_planes = decomp.planes(rank).len();
    let n_cols = decomp.cols(rank).len();
    // A block holds its source's planes one after another, its
    // destination's columns side by side in each.
    exchange_blocks(
        comm,
        cost,
        abft,
        |d| n_planes * decomp.cols(d).len(),
        |s| decomp.planes(s).len() * n_cols,
        |d, block| {
            for px in 0..n_planes {
                pack(block, slab[px * plane..][decomp.cols(d)].iter());
            }
        },
        |s, payload| {
            for (gx, run) in decomp
                .planes(s)
                .zip(payload.chunks_exact(2 * n_cols.max(1)))
            {
                unpack(cols.iter_mut().skip(gx).step_by(nx), run);
            }
        },
    )
}

/// Shared columns -> slab transpose (also used by the spatial PME), the
/// exact mirror of the forward one, from `cols` into `slab`: the pack
/// strides, the unpack copies contiguous runs. When `abft` is armed
/// every block carries a trailing checksum; returns the number of
/// blocks that failed verification.
pub fn transpose_backward_impl(
    decomp: &PmeDecomp,
    comm: &mut Comm<'_>,
    cols: &[Complex64],
    slab: &mut [Complex64],
    cost: &CostModel,
    abft: bool,
) -> usize {
    let (plane, nx) = (decomp.ny * decomp.nz, decomp.nx);
    let rank = comm.rank();
    let n_planes = decomp.planes(rank).len();
    let n_cols = decomp.cols(rank).len();
    exchange_blocks(
        comm,
        cost,
        abft,
        |d| decomp.planes(d).len() * n_cols,
        |s| n_planes * decomp.cols(s).len(),
        |d, block| {
            for gx in decomp.planes(d) {
                pack(block, cols.iter().skip(gx).step_by(nx));
            }
        },
        |s, payload| {
            let src_cols = decomp.cols(s);
            for (px, run) in payload.chunks_exact(2 * src_cols.len().max(1)).enumerate() {
                unpack(slab[px * plane..][src_cols.clone()].iter_mut(), run);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpc_cluster::{run_cluster, ClusterConfig, NetworkKind, PIII_1GHZ};
    use cpc_md::builder::water_box;
    use cpc_md::nonbonded::{ewald_excluded_correction, ewald_self_energy};
    use cpc_md::pme::Pme;
    use cpc_mpi::Middleware;

    fn reference(system: &System, params: PmeParams) -> (f64, f64, f64, Vec<Vec3>) {
        let mut pme = Pme::new(params, &system.pbox);
        let mut forces = vec![Vec3::ZERO; system.n_atoms()];
        let (recip, _) = pme.energy_forces(
            &system.topology,
            &system.pbox,
            &system.positions,
            &mut forces,
        );
        let self_term = ewald_self_energy(&system.topology, params.beta);
        let (excl, _) = ewald_excluded_correction(
            &system.topology,
            &system.pbox,
            &system.positions,
            params.beta,
            &mut forces,
        );
        (recip, self_term, excl, forces)
    }

    #[test]
    fn parallel_pme_matches_sequential_for_all_rank_counts() {
        let system = water_box(3, 3.1);
        let params = PmeParams {
            grid: Dims3::new(24, 24, 24),
            order: 4,
            beta: 0.34,
        };
        let (recip_ref, self_ref, excl_ref, f_ref) = reference(&system, params);

        for p in [1usize, 2, 3, 4, 8] {
            let cfg = ClusterConfig::uni(p, NetworkKind::MyrinetGm);
            let sys = &system;
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                let ppme = ParallelPme::new(params, p);
                ppme.energy_forces(&mut comm, sys, &PIII_1GHZ)
            });
            for o in &out {
                let got = &o.result;
                assert!(
                    (got.recip - recip_ref).abs() < 1e-7 * recip_ref.abs().max(1.0),
                    "p={p}: recip {} vs {}",
                    got.recip,
                    recip_ref
                );
                assert!((got.self_term - self_ref).abs() < 1e-9);
                assert!((got.excluded - excl_ref).abs() < 1e-7 * excl_ref.abs().max(1.0));
                for (a, b) in got.forces.iter().zip(&f_ref) {
                    assert!((*a - *b).norm() < 1e-7 * (1.0 + b.norm()), "p={p}");
                }
            }
        }
    }

    #[test]
    fn cmpi_middleware_gives_identical_physics() {
        let system = water_box(2, 3.1);
        let params = PmeParams {
            grid: Dims3::new(24, 24, 24),
            order: 4,
            beta: 0.34,
        };
        let (recip_ref, ..) = reference(&system, params);
        let cfg = ClusterConfig::uni(4, NetworkKind::TcpGigE);
        let sys = &system;
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Cmpi);
            let ppme = ParallelPme::new(params, 4);
            ppme.energy_forces(&mut comm, sys, &PIII_1GHZ).recip
        });
        for o in &out {
            assert!((o.result - recip_ref).abs() < 1e-7 * recip_ref.abs().max(1.0));
        }
    }

    #[test]
    fn transpose_dominates_pme_communication() {
        // The alltoall transposes move the full mesh; the final combine
        // only 3N doubles. PME comm time must be nonzero and the mesh
        // traffic visible in bytes sent.
        let system = water_box(2, 3.1);
        let params = PmeParams {
            grid: Dims3::new(24, 24, 24),
            order: 4,
            beta: 0.34,
        };
        let cfg = ClusterConfig::uni(4, NetworkKind::TcpGigE);
        let sys = &system;
        let out = run_cluster(cfg, |ctx| {
            let mut comm = Comm::new(ctx, Middleware::Mpi);
            let ppme = ParallelPme::new(params, 4);
            ppme.energy_forces(&mut comm, sys, &PIII_1GHZ);
        });
        for o in &out {
            assert!(o.stats.bucket(Phase::Pme).comm > 0.0);
            // Two transposes, each sending my_planes x other_cols =
            // (24/4) x (576*3/4) complex points ~ 41 KB, plus the
            // combine: at least ~60 KB from each rank.
            assert!(o.stats.bytes_sent > 60_000, "bytes {}", o.stats.bytes_sent);
        }
    }

    /// The two transposes of the commit before they packed contiguous
    /// runs, verbatim: an index rebuilt from `c / nz, c % nz` per
    /// element on one side, an iterator `expect` per value on the other.
    /// Frozen — never edit alongside the functions under test.
    mod transpose_oracle {
        use super::super::{open_block, seal_block};
        use crate::decomp::PmeDecomp;
        use cpc_cluster::CostModel;
        use cpc_fft::Complex64;
        use cpc_mpi::Comm;

        pub fn transpose_forward(
            decomp: &PmeDecomp,
            comm: &mut Comm<'_>,
            slab: &[Complex64],
            cols: &mut [Complex64],
            cost: &CostModel,
            abft: bool,
        ) -> usize {
            {
                let p = decomp.p;
                let (ny, nz, nx) = (decomp.ny, decomp.nz, decomp.nx);
                let rank = comm.rank();
                let my_planes = decomp.planes(rank);
                let x0 = my_planes.start;
                let my_cols = decomp.cols(rank);
                let c0 = my_cols.start;

                let mut sends: Vec<Vec<f64>> = Vec::with_capacity(p);
                let mut packed = 0usize;
                for d in 0..p {
                    let dst_cols = decomp.cols(d);
                    let mut block = Vec::with_capacity(2 * my_planes.len() * dst_cols.len() + 1);
                    for gx in my_planes.clone() {
                        for c in dst_cols.clone() {
                            let (y, z) = (c / nz, c % nz);
                            let v = slab[((gx - x0) * ny + y) * nz + z];
                            block.push(v.re);
                            block.push(v.im);
                        }
                    }
                    packed += block.len() / 2;
                    if abft {
                        seal_block(&mut block);
                    }
                    sends.push(block);
                }
                comm.ctx().charge_compute(packed as f64 * cost.conv_point);
                if abft {
                    // Sealing digests every packed element once more.
                    comm.ctx().charge_compute(packed as f64 * cost.conv_point);
                }

                let recvs = comm.alltoallv(sends);

                let mut faults = 0usize;
                let mut unpacked = 0usize;
                for (s, block) in recvs.iter().enumerate() {
                    let payload = if abft {
                        let (payload, ok) = open_block(block);
                        if !ok {
                            faults += 1;
                        }
                        payload
                    } else {
                        block.as_slice()
                    };
                    let src_planes = decomp.planes(s);
                    let mut it = payload.iter();
                    for gx in src_planes {
                        for c in my_cols.clone() {
                            let re = *it.next().expect("block size matches");
                            let im = *it.next().expect("block size matches");
                            cols[(c - c0) * nx + gx] = Complex64::new(re, im);
                            unpacked += 1;
                        }
                    }
                }
                comm.ctx().charge_compute(unpacked as f64 * cost.conv_point);
                if abft {
                    comm.ctx().charge_compute(unpacked as f64 * cost.conv_point);
                }
                faults
            }
        }

        pub fn transpose_backward(
            decomp: &PmeDecomp,
            comm: &mut Comm<'_>,
            cols: &[Complex64],
            slab: &mut [Complex64],
            cost: &CostModel,
            abft: bool,
        ) -> usize {
            {
                let p = decomp.p;
                let (ny, nz, nx) = (decomp.ny, decomp.nz, decomp.nx);
                let rank = comm.rank();
                let my_planes = decomp.planes(rank);
                let x0 = my_planes.start;
                let my_cols = decomp.cols(rank);
                let c0 = my_cols.start;

                let mut sends: Vec<Vec<f64>> = Vec::with_capacity(p);
                let mut packed = 0usize;
                for d in 0..p {
                    let dst_planes = decomp.planes(d);
                    let mut block = Vec::with_capacity(2 * dst_planes.len() * my_cols.len() + 1);
                    for gx in dst_planes {
                        for c in my_cols.clone() {
                            let v = cols[(c - c0) * nx + gx];
                            block.push(v.re);
                            block.push(v.im);
                        }
                    }
                    packed += block.len() / 2;
                    if abft {
                        seal_block(&mut block);
                    }
                    sends.push(block);
                }
                comm.ctx().charge_compute(packed as f64 * cost.conv_point);
                if abft {
                    comm.ctx().charge_compute(packed as f64 * cost.conv_point);
                }

                let recvs = comm.alltoallv(sends);

                let mut faults = 0usize;
                let mut unpacked = 0usize;
                for (s, block) in recvs.iter().enumerate() {
                    let payload = if abft {
                        let (payload, ok) = open_block(block);
                        if !ok {
                            faults += 1;
                        }
                        payload
                    } else {
                        block.as_slice()
                    };
                    let src_cols = decomp.cols(s);
                    let mut it = payload.iter();
                    for gx in my_planes.clone() {
                        for c in src_cols.clone() {
                            let re = *it.next().expect("block size matches");
                            let im = *it.next().expect("block size matches");
                            let (y, z) = (c / nz, c % nz);
                            slab[((gx - x0) * ny + y) * nz + z] = Complex64::new(re, im);
                            unpacked += 1;
                        }
                    }
                }
                comm.ctx().charge_compute(unpacked as f64 * cost.conv_point);
                if abft {
                    comm.ctx().charge_compute(unpacked as f64 * cost.conv_point);
                }
                faults
            }
        }
    }

    /// One traced message: source, destination, bytes, payload class,
    /// and the bits of its departure and arrival.
    type Message = (usize, usize, usize, bool, u64, u64);

    /// Everything the simulation reads off a rank, bit for bit, with its
    /// message trace when one was recorded.
    fn observable<T: Clone>(
        o: &cpc_cluster::RankOutcome<T>,
    ) -> (T, u64, u64, u64, Vec<[u64; 3]>, Vec<Message>) {
        (
            o.result.clone(),
            o.finish_time.to_bits(),
            o.stats.msgs_sent,
            o.stats.bytes_sent,
            Phase::ALL
                .iter()
                .map(|&ph| {
                    let b = o.stats.bucket(ph);
                    [b.comp.to_bits(), b.comm.to_bits(), b.sync.to_bits()]
                })
                .collect(),
            o.stats
                .trace
                .iter()
                .map(|e| {
                    let (dep, arr) = (e.departure.to_bits(), e.arrival.to_bits());
                    (e.src, e.dst, e.bytes, e.payload, dep, arr)
                })
                .collect(),
        )
    }

    /// A rank's input to a transpose: distinct, sign-mixed values.
    fn mesh_values(rank: usize, len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|k| {
                let t = (rank * 100_003 + k) as f64;
                Complex64::new((0.37 * t).sin() * 1e3, -(0.11 * t).cos() * 1e-3)
            })
            .collect()
    }

    /// The run-copying transposes land what the frozen per-element ones
    /// land, with the same messages at the same virtual times.
    #[test]
    fn run_copying_transposes_are_the_per_element_ones_on_every_observable() {
        type Forward = fn(
            &PmeDecomp,
            &mut Comm<'_>,
            &[Complex64],
            &mut [Complex64],
            &CostModel,
            bool,
        ) -> usize;
        // The paper mesh at every rank count of the campaigns, the quick
        // mesh, a mesh with fewer planes (4) and columns (6) than ranks,
        // and plane slabs reweighted until a rank owns none.
        let mut decomps = Vec::new();
        for p in [1usize, 2, 3, 4, 8] {
            decomps.push(PmeDecomp::new(80, 36, 48, p));
        }
        decomps.push(PmeDecomp::new(16, 16, 16, 8));
        decomps.push(PmeDecomp::new(4, 3, 2, 8));
        decomps.push(PmeDecomp::new(12, 5, 7, 4).with_plane_weights(&[1.0, 1e-9, 3.0, 1.0]));
        for decomp in &decomps {
            let p = decomp.p;
            for mw in Middleware::ALL {
                for abft in [false, true] {
                    let run = |forward: Forward, backward: Forward| {
                        let mut cfg = ClusterConfig::dual(p, NetworkKind::TcpGigE);
                        cfg.record_trace = true;
                        run_cluster(cfg, |ctx| {
                            let mut comm = Comm::new(ctx, mw);
                            comm.ctx().set_phase(Phase::Pme);
                            let rank = comm.rank();
                            let (n_planes, n_cols) =
                                (decomp.planes(rank).len(), decomp.cols(rank).len());
                            let slab = mesh_values(rank, n_planes * decomp.ny * decomp.nz);
                            let mut cols = vec![Complex64::ZERO; n_cols * decomp.nx];
                            let mut faults =
                                forward(decomp, &mut comm, &slab, &mut cols, &PIII_1GHZ, abft);
                            let mut back = vec![Complex64::ZERO; slab.len()];
                            faults +=
                                backward(decomp, &mut comm, &cols, &mut back, &PIII_1GHZ, abft);
                            assert_eq!(faults, 0);
                            assert!(back == slab, "there and back is the identity");
                            cols.iter()
                                .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
                                .collect::<Vec<u64>>()
                        })
                    };
                    let got = run(transpose_forward_impl, transpose_backward_impl);
                    let want = run(
                        transpose_oracle::transpose_forward,
                        transpose_oracle::transpose_backward,
                    );
                    for (g, w) in got.iter().zip(&want) {
                        let at = format!("{decomp:?} {mw:?} abft={abft} rank {}", g.rank);
                        assert_eq!(observable(g), observable(w), "{at}");
                    }
                }
            }
        }
    }
}

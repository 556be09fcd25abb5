//! Spatially decomposed parallel PME — the road *not* taken by
//! paper-era CHARMM, implemented as an ablation.
//!
//! Where the replicated-data implementation ([`crate::pme_par`]) spreads
//! every rank's atom block onto a full mesh copy and pays two full-mesh
//! exchanges per step (global charge sum + convolution-mesh allgather),
//! this version assigns each atom to the owner of its spline-base
//! plane. Spreading and interpolation then touch only the local slab
//! plus an `order - 1` plane halo, and the full-mesh exchanges
//! disappear:
//!
//! 1. spread my (spatially local) atoms into slab + upper halo,
//! 2. send halo planes to their owners (tens of kilobytes, not
//!    megabytes),
//! 3. slab FFT exactly as before (2D, transpose, 1D, convolution,
//!    inverse),
//! 4. fetch the upper halo of the convolution mesh,
//! 5. interpolate forces for my atoms; close with the usual combine.
//!
//! Comparing the two quantifies how much of the paper's PME
//! scalability wall is the *implementation*, not the algorithm.

use crate::decomp::{block_range, PmeDecomp};
use cpc_cluster::{CostModel, MsgClass, OpShape, Phase};
use cpc_fft::plan::flops_estimate;
use cpc_fft::{transform_axis, Axis, Complex64, Dims3, Direction, FftPlan};
use cpc_md::nonbonded::ewald_excluded_correction_range;
use cpc_md::pme::{bspline_moduli, compute_splines, PmeParams};
use cpc_md::units::COULOMB;
use cpc_md::{System, Vec3};
use cpc_mpi::{CombineAlgo, Comm};
use std::cell::RefCell;
use std::f64::consts::PI;

use crate::pme_par::{convolve_columns, InfluenceBlock, PmeParallelResult};

/// Tag base for the halo exchanges (user tag space).
const HALO_TAG: u64 = 0x7A10_0000;

/// Spatially decomposed PME state.
pub struct SpatialPme {
    params: PmeParams,
    decomp: PmeDecomp,
    plan_x: FftPlan,
    plan_y: FftPlan,
    plan_z: FftPlan,
    bx: Vec<f64>,
    by: Vec<f64>,
    bz: Vec<f64>,
    force_combine: CombineAlgo,
    /// Influence weights of the calling rank's column block, as in
    /// [`crate::pme_par::ParallelPme`].
    influence: RefCell<Option<InfluenceBlock>>,
}

impl SpatialPme {
    /// Builds state for `p` ranks.
    pub fn new(params: PmeParams, p: usize) -> Self {
        let g = params.grid;
        SpatialPme {
            params,
            decomp: PmeDecomp::new(g.nx, g.ny, g.nz, p),
            plan_x: FftPlan::new(g.nx),
            plan_y: FftPlan::new(g.ny),
            plan_z: FftPlan::new(g.nz),
            bx: bspline_moduli(g.nx, params.order),
            by: bspline_moduli(g.ny, params.order),
            bz: bspline_moduli(g.nz, params.order),
            force_combine: CombineAlgo::Flat,
            influence: RefCell::new(None),
        }
    }

    /// Overrides the closing combine algorithm.
    pub(crate) fn with_force_combine(mut self, algo: CombineAlgo) -> Self {
        self.force_combine = algo;
        self
    }

    /// Parallel k-space evaluation with spatial atom assignment.
    /// Produces the same physics as [`crate::pme_par::ParallelPme`].
    pub fn energy_forces(
        &self,
        comm: &mut Comm<'_>,
        system: &System,
        cost: &CostModel,
    ) -> PmeParallelResult {
        comm.ctx().set_phase(Phase::Pme);
        let p = comm.size();
        let rank = comm.rank();
        let g = self.params.grid;
        let order = self.params.order;
        let (ny, nz, nx) = (g.ny, g.nz, g.nx);
        let halo = order - 1;
        let plane = ny * nz;
        let topo = &system.topology;

        let my_planes = self.decomp.planes(rank);
        let x0 = my_planes.start;
        let n_planes = my_planes.len();
        let my_cols = self.decomp.cols(rank);
        let n_cols = my_cols.len();

        // --- Spatial atom assignment: owner of the spline-base plane.
        let splines = compute_splines(&system.pbox, &system.positions, g, order);
        let my_atoms: Vec<usize> = (0..system.n_atoms())
            .filter(|&i| {
                let gx0 = splines[i].base[0].rem_euclid(nx as i64) as usize;
                self.decomp.plane_owner(gx0) == rank
            })
            .collect();

        // --- Spread into slab + upper halo (base plane is the lowest
        // plane an atom touches, so support only extends upward).
        let mut buf = vec![Complex64::ZERO; (n_planes + halo) * plane];
        let mut spread_points = 0usize;
        for &i in &my_atoms {
            let q = topo.atoms[i].charge;
            if q == 0.0 {
                continue;
            }
            let sp = &splines[i];
            let gx0 = sp.base[0].rem_euclid(nx as i64) as usize;
            for tx in 0..order {
                // Local plane offset relative to the slab start; the
                // support never wraps relative to gx0.
                let local_x = (gx0 + nx - x0) % nx + tx;
                debug_assert!(local_x < n_planes + halo);
                let qx = q * sp.w[0][tx];
                for ty in 0..order {
                    let gy = (sp.base[1] + ty as i64).rem_euclid(ny as i64) as usize;
                    let qxy = qx * sp.w[1][ty];
                    let row = (local_x * ny + gy) * nz;
                    for tz in 0..order {
                        let gz = (sp.base[2] + tz as i64).rem_euclid(nz as i64) as usize;
                        buf[row + gz].re += qxy * sp.w[2][tz];
                        spread_points += 1;
                    }
                }
            }
        }
        comm.ctx()
            .charge_compute(spread_points as f64 * cost.spread_point);

        // --- Halo reduction: plane x1 + k belongs to its owner; send
        // and accumulate (kilobytes instead of the full mesh).
        let mut slab: Vec<Complex64> = buf[..n_planes * plane].to_vec();
        if p > 1 {
            for k in 0..halo {
                let gx = (x0 + n_planes + k) % nx;
                let owner = self.decomp.plane_owner(gx);
                let payload: Vec<f64> = buf[(n_planes + k) * plane..(n_planes + k + 1) * plane]
                    .iter()
                    .map(|v| v.re)
                    .collect();
                if owner == rank {
                    // Tiny slab wrapped onto itself: accumulate locally.
                    let off = (gx - x0) * plane;
                    for (s, v) in slab[off..off + plane].iter_mut().zip(&payload) {
                        s.re += v;
                    }
                    continue;
                }
                comm.ctx().send(
                    owner,
                    HALO_TAG + k as u64,
                    payload,
                    MsgClass::Payload,
                    OpShape::new(1, p),
                );
            }
            // Receive contributions for my planes from every rank whose
            // halo reaches them: the (unique) owners of the `halo`
            // planes preceding my slab.
            let senders: std::collections::BTreeSet<usize> = (0..halo)
                .map(|k| self.decomp.plane_owner((x0 + nx - 1 - k) % nx))
                .filter(|&sdr| sdr != rank)
                .collect();
            for sender in senders {
                // Which of the sender's halo slots land in my slab?
                let sender_planes = self.decomp.planes(sender);
                for kk in 0..halo {
                    let gx = (sender_planes.end + kk) % nx;
                    if my_planes.contains(&gx) {
                        let msg = comm.ctx().recv(sender, HALO_TAG + kk as u64);
                        let off = (gx - x0) * plane;
                        for (s, v) in slab[off..off + plane].iter_mut().zip(&msg.data) {
                            s.re += v;
                        }
                    }
                }
            }
        } else {
            // p == 1: fold the wrap-around halo back into the slab.
            for k in 0..halo {
                let gx = (x0 + n_planes + k) % nx;
                let off = (gx - x0) * plane;
                for i in 0..plane {
                    let add = buf[(n_planes + k) * plane + i].re;
                    slab[off + i].re += add;
                }
            }
        }

        // --- Distributed FFT, identical to the replicated-data path.
        let fft2d_flops =
            n_planes as f64 * (ny as f64 * flops_estimate(nz) + nz as f64 * flops_estimate(ny));
        if n_planes > 0 {
            let dims = Dims3::new(n_planes, ny, nz);
            transform_axis(&mut slab, dims, Axis::Z, &self.plan_z, Direction::Forward);
            transform_axis(&mut slab, dims, Axis::Y, &self.plan_y, Direction::Forward);
        }
        comm.ctx().charge_compute(fft2d_flops * cost.fft_flop);

        let mut cols = vec![Complex64::ZERO; n_cols * nx];
        crate::pme_par::transpose_forward_impl(&self.decomp, comm, &slab, &mut cols, cost, false);

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

        let mut slab_phi = vec![Complex64::ZERO; n_planes * plane];
        crate::pme_par::transpose_backward_impl(
            &self.decomp,
            comm,
            &cols,
            &mut slab_phi,
            cost,
            false,
        );
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

        // --- Fetch the upper phi halo (reverse of the charge halo):
        // I need planes x1..x1+halo from their owners; I provide my
        // first `halo` planes to whoever needs them.
        let mut phi_ext = vec![0.0f64; (n_planes + halo) * plane];
        for (i, v) in slab_phi.iter().enumerate() {
            phi_ext[i] = v.re;
        }
        if p > 1 {
            // Send my planes that appear in some (unique) predecessor's
            // halo window.
            let requesters: std::collections::BTreeSet<usize> = (0..halo)
                .map(|k| self.decomp.plane_owner((x0 + nx - 1 - k) % nx))
                .filter(|&r| r != rank)
                .collect();
            for requester in requesters {
                let req_planes = self.decomp.planes(requester);
                for kk in 0..halo {
                    let gx = (req_planes.end + kk) % nx;
                    if my_planes.contains(&gx) {
                        let payload: Vec<f64> = slab_phi[(gx - x0) * plane..(gx - x0 + 1) * plane]
                            .iter()
                            .map(|v| v.re)
                            .collect();
                        comm.ctx().send(
                            requester,
                            HALO_TAG + 0x100 + kk as u64,
                            payload,
                            MsgClass::Payload,
                            OpShape::new(1, p),
                        );
                    }
                }
            }
            for k in 0..halo {
                let gx = (x0 + n_planes + k) % nx;
                let owner = self.decomp.plane_owner(gx);
                if owner == rank {
                    // Wrapped onto my own slab.
                    let off = (gx - x0) * plane;
                    for i in 0..plane {
                        phi_ext[(n_planes + k) * plane + i] = phi_ext[off + i];
                    }
                    continue;
                }
                let msg = comm.ctx().recv(owner, HALO_TAG + 0x100 + k as u64);
                phi_ext[(n_planes + k) * plane..(n_planes + k + 1) * plane]
                    .copy_from_slice(&msg.data);
            }
        } else {
            for k in 0..halo {
                let gx = (x0 + n_planes + k) % nx;
                let off = (gx - x0) * plane;
                for i in 0..plane {
                    phi_ext[(n_planes + k) * plane + i] = phi_ext[off + i];
                }
            }
        }

        // --- Interpolate forces for my (spatial) atoms.
        let n = system.n_atoms();
        let mut forces = vec![Vec3::ZERO; n];
        let l = system.pbox.lengths;
        let du = [nx as f64 / l.x, ny as f64 / l.y, nz as f64 / l.z];
        let mut interp_points = 0usize;
        for &i in &my_atoms {
            let q = topo.atoms[i].charge;
            if q == 0.0 {
                continue;
            }
            let sp = &splines[i];
            let gx0 = sp.base[0].rem_euclid(nx as i64) as usize;
            let mut grad = Vec3::ZERO;
            for tx in 0..order {
                let local_x = (gx0 + nx - x0) % nx + tx;
                for ty in 0..order {
                    let gy = (sp.base[1] + ty as i64).rem_euclid(ny as i64) as usize;
                    let row = (local_x * ny + gy) * nz;
                    for tz in 0..order {
                        let gz = (sp.base[2] + tz as i64).rem_euclid(nz as i64) as usize;
                        let ph = phi_ext[row + gz];
                        grad.x += sp.dw[0][tx] * sp.w[1][ty] * sp.w[2][tz] * ph;
                        grad.y += sp.w[0][tx] * sp.dw[1][ty] * sp.w[2][tz] * ph;
                        grad.z += sp.w[0][tx] * sp.w[1][ty] * sp.dw[2][tz] * ph;
                        interp_points += 1;
                    }
                }
            }
            forces[i] -= Vec3::new(grad.x * du[0], grad.y * du[1], grad.z * du[2]) * q;
        }
        comm.ctx()
            .charge_compute(interp_points as f64 * cost.interp_point);

        // --- Exclusions (index blocks, as before) and self energy.
        let atom_block = block_range(n, p, rank);
        let beta = self.params.beta;
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

        let self_partial = if rank == 0 {
            let q2: f64 = topo.atoms.iter().map(|a| a.charge * a.charge).sum();
            -COULOMB * beta / PI.sqrt() * q2
        } else {
            0.0
        };

        let mut out = Vec::with_capacity(3 * n + 3);
        for f in &forces {
            out.extend_from_slice(&[f.x, f.y, f.z]);
        }
        out.extend_from_slice(&[recip_partial, excl_partial, self_partial]);
        comm.allreduce_with(self.force_combine, &mut out);
        for (i, f) in forces.iter_mut().enumerate() {
            *f = Vec3::new(out[3 * i], out[3 * i + 1], out[3 * i + 2]);
        }
        PmeParallelResult {
            recip: out[3 * n],
            excluded: out[3 * n + 1],
            self_term: out[3 * n + 2],
            forces,
            abft: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpc_cluster::{run_cluster, ClusterConfig, NetworkKind, PIII_1GHZ};
    use cpc_md::builder::water_box;
    use cpc_mpi::Middleware;

    fn params() -> PmeParams {
        PmeParams {
            grid: Dims3::new(24, 24, 24),
            order: 4,
            beta: 0.34,
        }
    }

    #[test]
    fn spatial_pme_matches_replicated_data_physics() {
        let system = water_box(3, 3.1);
        let reference = {
            let sys = &system;
            let out = run_cluster(ClusterConfig::uni(1, NetworkKind::MyrinetGm), |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                crate::pme_par::ParallelPme::new(params(), 1)
                    .energy_forces(&mut comm, sys, &PIII_1GHZ)
            });
            out.into_iter().next().unwrap().result
        };

        for p in [1usize, 2, 3, 4, 8] {
            let cfg = ClusterConfig::uni(p, NetworkKind::MyrinetGm);
            let sys = &system;
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                SpatialPme::new(params(), p).energy_forces(&mut comm, sys, &PIII_1GHZ)
            });
            for o in &out {
                assert!(
                    (o.result.recip - reference.recip).abs()
                        < 1e-7 * reference.recip.abs().max(1.0),
                    "p={p}: {} vs {}",
                    o.result.recip,
                    reference.recip
                );
                for (a, b) in o.result.forces.iter().zip(&reference.forces) {
                    assert!((*a - *b).norm() < 1e-7 * (1.0 + b.norm()), "p={p}");
                }
            }
        }
    }

    #[test]
    fn spatial_pme_moves_far_less_data_than_replicated() {
        let system = water_box(3, 3.1);
        let bytes_for = |spatial: bool| {
            let sys = &system;
            let cfg = ClusterConfig::uni(4, NetworkKind::TcpGigE);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                if spatial {
                    SpatialPme::new(params(), 4).energy_forces(&mut comm, sys, &PIII_1GHZ);
                } else {
                    crate::pme_par::ParallelPme::new(params(), 4)
                        .energy_forces(&mut comm, sys, &PIII_1GHZ);
                }
            });
            out.iter().map(|o| o.stats.bytes_sent).sum::<u64>()
        };
        let replicated = bytes_for(false);
        let spatial = bytes_for(true);
        assert!(
            (spatial as f64) < 0.7 * replicated as f64,
            "spatial {spatial} vs replicated {replicated}"
        );
    }

    #[test]
    fn spatial_pme_is_faster_on_tcp_at_scale() {
        let system = water_box(3, 3.1);
        let time_for = |spatial: bool| {
            let sys = &system;
            let cfg = ClusterConfig::uni(8, NetworkKind::TcpGigE);
            let out = run_cluster(cfg, |ctx| {
                let mut comm = Comm::new(ctx, Middleware::Mpi);
                if spatial {
                    SpatialPme::new(params(), 8).energy_forces(&mut comm, sys, &PIII_1GHZ);
                } else {
                    crate::pme_par::ParallelPme::new(params(), 8)
                        .energy_forces(&mut comm, sys, &PIII_1GHZ);
                }
            });
            cpc_cluster::elapsed_time(&out)
        };
        let replicated = time_for(false);
        let spatial = time_for(true);
        assert!(
            spatial < replicated,
            "spatial {spatial} vs replicated {replicated}"
        );
    }
}

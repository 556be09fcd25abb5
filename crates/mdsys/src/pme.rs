//! Smooth particle mesh Ewald (Essmann et al., J. Chem. Phys. 103, 8577,
//! 1995): the reciprocal-space electrostatics solver whose parallel
//! behaviour the paper characterizes.
//!
//! Pipeline per evaluation:
//! 1. spread charges onto the mesh with cardinal B-splines,
//! 2. forward 3D FFT,
//! 3. multiply by the influence function (Gaussian screening, B-spline
//!    moduli, 1/m^2),
//! 4. inverse 3D FFT to obtain the convolution grid,
//! 5. interpolate forces back with the B-spline derivatives.
//!
//! The individual stages are public so the slab-decomposed parallel PME
//! in `cpc-charmm` can reuse them verbatim.

use crate::pbc::PbcBox;
use crate::topology::Topology;
use crate::units::COULOMB;
use crate::vec3::Vec3;
use cpc_fft::{Complex64, Dims3, Fft3d};
use std::f64::consts::{PI, TAU};

/// Maximum supported B-spline order.
pub(crate) const MAX_ORDER: usize = 8;

/// PME configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmeParams {
    /// Mesh dimensions (the paper uses 80 x 36 x 48).
    pub grid: Dims3,
    /// B-spline interpolation order (4 = cubic, the common choice).
    pub order: usize,
    /// Ewald splitting parameter in 1/Angstrom.
    pub beta: f64,
}

impl PmeParams {
    /// The paper's myoglobin setup: 80 x 36 x 48 mesh, order 4.
    pub fn paper(beta: f64) -> Self {
        PmeParams {
            grid: Dims3::new(80, 36, 48),
            order: 4,
            beta,
        }
    }
}

/// Cardinal B-spline weights and derivatives for a fractional offset
/// `f` in `[0, 1)`.
///
/// Returns `(w, dw)` where `w[j] = M_n(f + j)` for `j` in `0..order`
/// and `dw[j] = d/df M_n(f + j)`.
pub fn bspline(f: f64, order: usize) -> ([f64; MAX_ORDER], [f64; MAX_ORDER]) {
    assert!(
        (2..=MAX_ORDER).contains(&order),
        "unsupported spline order {order}"
    );
    debug_assert!((0.0..1.0).contains(&f));
    let mut w = [0.0; MAX_ORDER];
    let mut dw = [0.0; MAX_ORDER];

    // Order 2: M2(f) = f on [0,1]; M2(f+1) = 1 - f.
    w[0] = f;
    w[1] = 1.0 - f;
    // Raise the order one step at a time:
    // M_k(u) = [u M_{k-1}(u) + (k - u) M_{k-1}(u - 1)] / (k - 1),
    // evaluated at u = f + j.
    for k in 3..=order {
        if k == order {
            // Derivative from the order-(k-1) values:
            // M_k'(u) = M_{k-1}(u) - M_{k-1}(u - 1).
            dw[0] = w[0];
            for j in 1..order {
                dw[j] = w[j] - w[j - 1];
            }
        }
        let div = 1.0 / (k - 1) as f64;
        let mut prev = 0.0; // M_{k-1}(f + j - 1), starts at j = 0 (zero)
        #[allow(clippy::needless_range_loop)]
        for j in 0..k {
            let u = f + j as f64;
            let cur = if j < k - 1 { w[j] } else { 0.0 };
            w[j] = div * (u * cur + (k as f64 - u) * prev);
            prev = cur;
        }
    }
    if order == 2 {
        dw[0] = 1.0;
        dw[1] = -1.0;
    }
    (w, dw)
}

/// Squared moduli of the B-spline Fourier factors along one dimension:
/// `bsp[m] = |b(m)|^2` with
/// `b(m) = e^{2 pi i (n-1) m / K} / sum_k M_n(k+1) e^{2 pi i m k / K}`.
pub fn bspline_moduli(k_dim: usize, order: usize) -> Vec<f64> {
    // M_n(1..n-1): spline values at the integer knots, obtained from the
    // weights at f = 0 (w[j] = M_n(j), and M_n(0) = 0).
    let (w, _) = bspline(0.0, order);
    let mut data = vec![0.0; order];
    for (j, slot) in data.iter_mut().enumerate() {
        *slot = w[j]; // M_n(j) for j = 0..order-1; data[0] = M_n(0) = 0
    }

    let mut out = vec![0.0; k_dim];
    for (m, slot) in out.iter_mut().enumerate() {
        let mut s_re = 0.0;
        let mut s_im = 0.0;
        for (k, &mk) in data.iter().enumerate().take(order).skip(1) {
            // sum_{k=0}^{n-2} M_n(k+1) e^{2 pi i m k / K}; here k index
            // shifted: data[k] = M_n(k), so use knots 1..n-1.
            let angle = TAU * m as f64 * (k - 1) as f64 / k_dim as f64;
            s_re += mk * angle.cos();
            s_im += mk * angle.sin();
        }
        let denom = s_re * s_re + s_im * s_im;
        // Denominator can vanish for odd orders at m = K/2; those modes
        // carry no spline weight, treat as zero contribution.
        *slot = if denom < 1e-12 { 0.0 } else { 1.0 / denom };
    }
    out
}

/// Per-atom spline data: base mesh indices and per-dimension weights.
#[derive(Debug, Clone, Copy)]
pub struct AtomSpline {
    /// Lowest mesh index touched in each dimension (may be negative
    /// before wrapping).
    pub base: [i64; 3],
    /// Weights per dimension: `w[d][t]` for offset `t`.
    pub w: [[f64; MAX_ORDER]; 3],
    /// Derivatives with respect to the *mesh-scaled* coordinate.
    pub dw: [[f64; MAX_ORDER]; 3],
}

/// Computes spline data for every atom.
///
/// Weight `t` in dimension `d` applies to mesh index
/// `(base[d] + t).rem_euclid(K_d)`.
pub fn compute_splines(
    pbox: &PbcBox,
    positions: &[Vec3],
    grid: Dims3,
    order: usize,
) -> Vec<AtomSpline> {
    let dims = [grid.nx, grid.ny, grid.nz];
    positions
        .iter()
        .map(|&p| {
            let s = pbox.fractional(p);
            let mut base = [0i64; 3];
            let mut w = [[0.0; MAX_ORDER]; 3];
            let mut dw = [[0.0; MAX_ORDER]; 3];
            for d in 0..3 {
                let u = s[d] * dims[d] as f64;
                let iu = u.floor();
                let f = u - iu;
                // Weight for mesh point g = iu - (order-1) + t is
                // M_n(u - g) = M_n(f + order - 1 - t) = w_arr[order-1-t].
                let (warr, dwarr) = bspline(f, order);
                base[d] = iu as i64 - (order as i64 - 1);
                for t in 0..order {
                    w[d][t] = warr[order - 1 - t];
                    dw[d][t] = dwarr[order - 1 - t];
                }
            }
            AtomSpline { base, w, dw }
        })
        .collect()
}

/// Spreads charges onto a (full) mesh. Returns the number of mesh
/// points written (atoms * order^3), the figure the cost model charges.
pub fn spread_charges(
    topo: &Topology,
    splines: &[AtomSpline],
    grid: Dims3,
    order: usize,
    mesh: &mut [Complex64],
) -> usize {
    assert_eq!(mesh.len(), grid.len());
    for v in mesh.iter_mut() {
        *v = Complex64::ZERO;
    }
    let mut points = 0usize;
    for (a, sp) in topo.atoms.iter().zip(splines) {
        let q = a.charge;
        if q == 0.0 {
            continue;
        }
        for tx in 0..order {
            let gx = (sp.base[0] + tx as i64).rem_euclid(grid.nx as i64) as usize;
            let qx = q * sp.w[0][tx];
            for ty in 0..order {
                let gy = (sp.base[1] + ty as i64).rem_euclid(grid.ny as i64) as usize;
                let qxy = qx * sp.w[1][ty];
                let row = (gx * grid.ny + gy) * grid.nz;
                for tz in 0..order {
                    let gz = (sp.base[2] + tz as i64).rem_euclid(grid.nz as i64) as usize;
                    mesh[row + gz].re += qxy * sp.w[2][tz];
                    points += 1;
                }
            }
        }
    }
    points
}

/// Builds the influence function `W(m)` over the full mesh:
/// `W = (C / (pi V)) exp(-pi^2 mbar^2 / beta^2) / mbar^2 * B(m)`,
/// `W(0) = 0`. The reciprocal energy is `E = 1/2 sum_m W(m) |FQ(m)|^2`.
pub fn influence_function(grid: Dims3, pbox: &PbcBox, beta: f64, order: usize) -> Vec<f64> {
    let bx = bspline_moduli(grid.nx, order);
    let by = bspline_moduli(grid.ny, order);
    let bz = bspline_moduli(grid.nz, order);
    let v = pbox.volume();
    let pref = COULOMB / (PI * v);
    let gamma = PI * PI / (beta * beta);
    let l = pbox.lengths;

    let mut w = vec![0.0; grid.len()];
    for mx in 0..grid.nx {
        let mbx = wrap_freq(mx, grid.nx) / l.x;
        for my in 0..grid.ny {
            let mby = wrap_freq(my, grid.ny) / l.y;
            for mz in 0..grid.nz {
                if mx == 0 && my == 0 && mz == 0 {
                    continue;
                }
                let mbz = wrap_freq(mz, grid.nz) / l.z;
                let m2 = mbx * mbx + mby * mby + mbz * mbz;
                w[grid.idx(mx, my, mz)] =
                    pref * (-gamma * m2).exp() / m2 * bx[mx] * by[my] * bz[mz];
            }
        }
    }
    w
}

/// Influence-function value at a single mesh point, given precomputed
/// per-dimension B-spline moduli. Identical to the corresponding entry
/// of [`influence_function`]; used by the slab-decomposed parallel PME
/// which only owns part of the mesh.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn influence_element(
    grid: Dims3,
    pbox: &PbcBox,
    beta: f64,
    bx: &[f64],
    by: &[f64],
    bz: &[f64],
    mx: usize,
    my: usize,
    mz: usize,
) -> f64 {
    if mx == 0 && my == 0 && mz == 0 {
        return 0.0;
    }
    let l = pbox.lengths;
    let mbx = wrap_freq(mx, grid.nx) / l.x;
    let mby = wrap_freq(my, grid.ny) / l.y;
    let mbz = wrap_freq(mz, grid.nz) / l.z;
    let m2 = mbx * mbx + mby * mby + mbz * mbz;
    let pref = COULOMB / (PI * pbox.volume());
    let gamma = PI * PI / (beta * beta);
    pref * (-gamma * m2).exp() / m2 * bx[mx] * by[my] * bz[mz]
}

/// Maps a mesh index to its signed frequency (`m` or `m - K`).
#[inline]
pub(crate) fn wrap_freq(m: usize, k: usize) -> f64 {
    if m <= k / 2 {
        m as f64
    } else {
        m as f64 - k as f64
    }
}

/// Operation counts of one PME evaluation, consumed by the cluster cost
/// model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PmeOpCounts {
    /// Mesh points written during spreading.
    pub spread_points: usize,
    /// Estimated FFT flops (both directions).
    pub fft_flops: f64,
    /// Mesh points touched by the influence multiply.
    pub conv_points: usize,
    /// Mesh points read during force interpolation.
    pub interp_points: usize,
}

/// A reusable sequential PME solver.
pub struct Pme {
    params: PmeParams,
    fft: Fft3d,
    /// Influence function; rebuilt if the box changes.
    influence: Vec<f64>,
    influence_box: PbcBox,
    mesh: Vec<Complex64>,
}

impl Pme {
    /// Creates a solver for the given parameters and box.
    pub fn new(params: PmeParams, pbox: &PbcBox) -> Self {
        let fft = Fft3d::new(params.grid);
        let influence = influence_function(params.grid, pbox, params.beta, params.order);
        Pme {
            params,
            fft,
            influence,
            influence_box: *pbox,
            mesh: vec![Complex64::ZERO; params.grid.len()],
        }
    }

    /// Configured parameters.
    pub fn params(&self) -> PmeParams {
        self.params
    }

    /// Reciprocal-space energy and forces. Forces are accumulated into
    /// `forces`; returns `(energy, op_counts)`.
    pub fn energy_forces(
        &mut self,
        topo: &Topology,
        pbox: &PbcBox,
        positions: &[Vec3],
        forces: &mut [Vec3],
    ) -> (f64, PmeOpCounts) {
        if *pbox != self.influence_box {
            self.influence =
                influence_function(self.params.grid, pbox, self.params.beta, self.params.order);
            self.influence_box = *pbox;
        }
        let grid = self.params.grid;
        let order = self.params.order;
        let mut ops = PmeOpCounts::default();

        let splines = compute_splines(pbox, positions, grid, order);
        ops.spread_points = spread_charges(topo, &splines, grid, order, &mut self.mesh);

        // Forward FFT.
        self.fft.forward(&mut self.mesh);
        ops.fft_flops += self.fft.flops();

        // Energy in k-space + multiply by the influence function.
        let mut energy = 0.0;
        for (v, &w) in self.mesh.iter_mut().zip(&self.influence) {
            energy += 0.5 * w * v.norm_sqr();
            *v = v.scale(w);
        }
        ops.conv_points = grid.len();

        // Back to real space: convolution grid phi(r).
        self.fft.inverse(&mut self.mesh);
        ops.fft_flops += self.fft.flops();
        // phi(r) = N * Re[IFFT(W FQ)](r); our inverse is normalized, so
        // scale by N.
        let scale = grid.len() as f64;

        // Force interpolation.
        let dims = [grid.nx, grid.ny, grid.nz];
        let l = pbox.lengths;
        let du = [
            dims[0] as f64 / l.x,
            dims[1] as f64 / l.y,
            dims[2] as f64 / l.z,
        ];
        for ((a, sp), f) in topo.atoms.iter().zip(&splines).zip(forces.iter_mut()) {
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
                        let phi = self.mesh[row + gz].re * scale;
                        grad.x += sp.dw[0][tx] * sp.w[1][ty] * sp.w[2][tz] * phi;
                        grad.y += sp.w[0][tx] * sp.dw[1][ty] * sp.w[2][tz] * phi;
                        grad.z += sp.w[0][tx] * sp.w[1][ty] * sp.dw[2][tz] * phi;
                        ops.interp_points += 1;
                    }
                }
            }
            // dE/dx = q * dQ/dx . phi; chain rule through mesh units.
            *f -= Vec3::new(grad.x * du[0], grad.y * du[1], grad.z * du[2]) * q;
        }
        (energy, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::ewald_recip_reference;
    use crate::forcefield::AtomClass;
    use crate::topology::Atom;

    fn random_system(n: usize, pbox: &PbcBox, seed: u64) -> (Topology, Vec<Vec3>) {
        let mut s = seed | 1;
        let mut rng = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / (1u64 << 53) as f64
        };
        let mut topo = Topology::default();
        let mut positions = Vec::new();
        let mut total_q = 0.0;
        for i in 0..n {
            let q = if i == n - 1 { -total_q } else { rng() - 0.5 };
            total_q += q;
            topo.atoms.push(Atom {
                class: AtomClass::O,
                charge: q,
            });
            positions.push(Vec3::new(
                rng() * pbox.lengths.x,
                rng() * pbox.lengths.y,
                rng() * pbox.lengths.z,
            ));
        }
        topo.rebuild_exclusions();
        (topo, positions)
    }

    #[test]
    fn bspline_partition_of_unity() {
        for order in [2usize, 3, 4, 5, 6] {
            for i in 0..20 {
                let f = i as f64 / 20.0;
                let (w, dw) = bspline(f, order);
                let sum: f64 = w[..order].iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "order {order} f {f}: sum {sum}");
                let dsum: f64 = dw[..order].iter().sum();
                assert!(dsum.abs() < 1e-12, "derivative sum {dsum}");
            }
        }
    }

    #[test]
    fn bspline_derivative_matches_numeric() {
        for order in [3usize, 4, 6] {
            let f = 0.37;
            let h = 1e-7;
            let (wp, _) = bspline(f + h, order);
            let (wm, _) = bspline(f - h, order);
            let (_, dw) = bspline(f, order);
            for j in 0..order {
                let numeric = (wp[j] - wm[j]) / (2.0 * h);
                assert!((dw[j] - numeric).abs() < 1e-6, "order {order} j {j}");
            }
        }
    }

    #[test]
    fn bspline_order4_known_values() {
        // M4 at integer knots: M4(1) = 1/6, M4(2) = 4/6, M4(3) = 1/6.
        let (w, _) = bspline(0.0, 4);
        assert!((w[1] - 1.0 / 6.0).abs() < 1e-12);
        assert!((w[2] - 4.0 / 6.0).abs() < 1e-12);
        assert!((w[3] - 1.0 / 6.0).abs() < 1e-12);
        assert!(w[0].abs() < 1e-12); // M4(0) = 0
    }

    #[test]
    fn spread_conserves_charge() {
        let pbox = PbcBox::new(20.0, 18.0, 22.0);
        let (topo, positions) = random_system(15, &pbox, 8);
        let grid = Dims3::new(20, 18, 24);
        let order = 4;
        let splines = compute_splines(&pbox, &positions, grid, order);
        let mut mesh = vec![Complex64::ZERO; grid.len()];
        spread_charges(&topo, &splines, grid, order, &mut mesh);
        let total: f64 = mesh.iter().map(|z| z.re).sum();
        assert!((total - topo.total_charge()).abs() < 1e-9);
    }

    #[test]
    fn pme_energy_matches_reference_ewald() {
        let pbox = PbcBox::new(16.0, 14.0, 15.0);
        let (topo, positions) = random_system(12, &pbox, 21);
        let beta = 0.45;

        let mut f_ref = vec![Vec3::ZERO; 12];
        let e_ref = ewald_recip_reference(&topo, &pbox, &positions, beta, 16, &mut f_ref);

        let mut pme = Pme::new(
            PmeParams {
                grid: Dims3::new(32, 30, 32),
                order: 6,
                beta,
            },
            &pbox,
        );
        let mut f_pme = vec![Vec3::ZERO; 12];
        let (e_pme, ops) = pme.energy_forces(&topo, &pbox, &positions, &mut f_pme);

        let rel = (e_pme - e_ref).abs() / e_ref.abs().max(1e-9);
        assert!(rel < 2e-3, "PME {e_pme} vs Ewald {e_ref} (rel {rel})");
        for (a, b) in f_pme.iter().zip(&f_ref) {
            assert!((*a - *b).norm() < 0.05 * (1.0 + b.norm()), "{a:?} vs {b:?}");
        }
        assert!(ops.spread_points > 0 && ops.fft_flops > 0.0);
    }

    #[test]
    fn pme_forces_match_own_numeric_gradient() {
        // Internal consistency: analytic force == -grad of the PME
        // energy itself (tight tolerance, independent of mesh accuracy).
        let pbox = PbcBox::new(12.0, 12.0, 12.0);
        let (topo, positions) = random_system(6, &pbox, 5);
        let beta = 0.4;
        let params = PmeParams {
            grid: Dims3::new(16, 16, 16),
            order: 4,
            beta,
        };
        let mut pme = Pme::new(params, &pbox);

        let mut forces = vec![Vec3::ZERO; 6];
        pme.energy_forces(&topo, &pbox, &positions, &mut forces);

        let h = 1e-5;
        for atom in [0usize, 3] {
            for c in 0..3 {
                let mut plus = positions.clone();
                let mut minus = positions.clone();
                plus[atom][c] += h;
                minus[atom][c] -= h;
                let mut dummy = vec![Vec3::ZERO; 6];
                let (ep, _) = pme.energy_forces(&topo, &pbox, &plus, &mut dummy);
                let mut dummy = vec![Vec3::ZERO; 6];
                let (em, _) = pme.energy_forces(&topo, &pbox, &minus, &mut dummy);
                let numeric = -(ep - em) / (2.0 * h);
                assert!(
                    (forces[atom][c] - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "atom {atom} comp {c}: {} vs {numeric}",
                    forces[atom][c]
                );
            }
        }
    }

    #[test]
    fn pme_translational_invariance() {
        // Shifting every atom by the same vector must not change energy.
        let pbox = PbcBox::new(14.0, 14.0, 14.0);
        let (topo, positions) = random_system(10, &pbox, 33);
        let params = PmeParams {
            grid: Dims3::new(20, 20, 20),
            order: 4,
            beta: 0.4,
        };
        let mut pme = Pme::new(params, &pbox);
        let mut f = vec![Vec3::ZERO; 10];
        let (e1, _) = pme.energy_forces(&topo, &pbox, &positions, &mut f);
        let shifted: Vec<Vec3> = positions
            .iter()
            .map(|&p| p + Vec3::new(3.3, -1.7, 0.9))
            .collect();
        let mut f = vec![Vec3::ZERO; 10];
        let (e2, _) = pme.energy_forces(&topo, &pbox, &shifted, &mut f);
        // Interpolation error varies with the sub-mesh offset; order-4
        // PME is translation invariant only to ~1e-4 relative.
        assert!((e1 - e2).abs() < 1e-3 * e1.abs().max(1.0), "{e1} vs {e2}");
    }

    #[test]
    fn influence_element_matches_full_table() {
        let pbox = PbcBox::new(11.0, 13.0, 9.0);
        let grid = Dims3::new(10, 12, 8);
        let order = 4;
        let beta = 0.37;
        let table = influence_function(grid, &pbox, beta, order);
        let bx = bspline_moduli(grid.nx, order);
        let by = bspline_moduli(grid.ny, order);
        let bz = bspline_moduli(grid.nz, order);
        for mx in 0..grid.nx {
            for my in 0..grid.ny {
                for mz in 0..grid.nz {
                    let v = influence_element(grid, &pbox, beta, &bx, &by, &bz, mx, my, mz);
                    let want = table[grid.idx(mx, my, mz)];
                    assert!(
                        (v - want).abs() <= 1e-15 * want.abs().max(1e-300) + 0.0,
                        "({mx},{my},{mz}): {v} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn influence_function_zero_mode_is_zero() {
        let pbox = PbcBox::new(10.0, 10.0, 10.0);
        let w = influence_function(Dims3::new(8, 8, 8), &pbox, 0.4, 4);
        assert_eq!(w[0], 0.0);
        assert!(w.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn wrap_freq_symmetry() {
        assert_eq!(wrap_freq(0, 8), 0.0);
        assert_eq!(wrap_freq(4, 8), 4.0);
        assert_eq!(wrap_freq(5, 8), -3.0);
        assert_eq!(wrap_freq(7, 8), -1.0);
    }
}

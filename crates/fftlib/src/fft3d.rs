//! Three-dimensional complex FFTs over row-major grids, plus the
//! axis-wise batch transforms used by the slab-decomposed parallel PME.
//!
//! Grid layout: `data[(x * ny + y) * nz + z]` — `z` is the fastest axis.

use crate::complex::Complex64;
use crate::plan::{flops_estimate, Direction, FftPlan, LaneScratch};
use crate::wide::wide;

/// Grid dimensions for 3D transforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims3 {
    /// Extent along x (slowest axis).
    pub nx: usize,
    /// Extent along y.
    pub ny: usize,
    /// Extent along z (fastest axis).
    pub nz: usize,
}

impl Dims3 {
    /// Creates dimensions; all extents must be positive.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid extents must be positive");
        Dims3 { nx, ny, nz }
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Always false (extents are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Linear index of `(x, y, z)`.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.ny + y) * self.nz + z
    }
}

/// Axis selector for batched 1D transforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Slowest axis.
    X,
    /// Middle axis.
    Y,
    /// Fastest axis.
    Z,
}

/// Applies the plan along `axis` to every line of the grid.
///
/// `plan.len()` must equal the extent of the grid along `axis`. This is
/// the building block the parallel PME uses on its local slabs (where
/// `dims.nx` is the local slab thickness rather than the global extent).
///
/// Lines go through the plan [`LANES`](crate::LANES) at a time. Along
/// `Y` and `X` a batch is eight z-adjacent lines, so each element of
/// the batch is one contiguous 128-byte read instead of eight strided
/// ones.
pub fn transform_axis(
    data: &mut [Complex64],
    dims: Dims3,
    axis: Axis,
    plan: &FftPlan,
    dir: Direction,
) {
    assert_eq!(data.len(), dims.len(), "grid size mismatch");
    let len = match axis {
        Axis::X => dims.nx,
        Axis::Y => dims.ny,
        Axis::Z => dims.nz,
    };
    assert_eq!(plan.len(), len, "plan length must match axis extent");
    wide(
        #[inline(always)]
        || axis_lines(data, dims, axis, plan, dir),
    );
}

/// The body of [`transform_axis`], `#[inline(always)]` so that its
/// AVX2 copy compiles the lane kernel itself for AVX2.
#[inline(always)]
fn axis_lines(data: &mut [Complex64], dims: Dims3, axis: Axis, plan: &FftPlan, dir: Direction) {
    let Dims3 { nx, ny, nz } = dims;
    let scratch = &mut LaneScratch::default();
    match axis {
        Axis::Z => plan.execute_lines(data, nx * ny, nz, 1, dir, scratch),
        Axis::Y => {
            for plane in data.chunks_exact_mut(ny * nz) {
                plan.execute_lines(plane, nz, 1, nz, dir, scratch);
            }
        }
        Axis::X => plan.execute_lines(data, ny * nz, 1, ny * nz, dir, scratch),
    }
}

/// A reusable full 3D transform.
pub struct Fft3d {
    dims: Dims3,
    plan_x: FftPlan,
    plan_y: FftPlan,
    plan_z: FftPlan,
}

impl Fft3d {
    /// Builds plans for all three axes of `dims`.
    pub fn new(dims: Dims3) -> Self {
        Fft3d {
            dims,
            plan_x: FftPlan::new(dims.nx),
            plan_y: FftPlan::new(dims.ny),
            plan_z: FftPlan::new(dims.nz),
        }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// Forward 3D transform in place.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.execute(data, Direction::Forward);
    }

    /// Normalized inverse 3D transform in place (`inverse(forward(x)) == x`).
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.execute(data, Direction::Inverse);
        let inv = 1.0 / self.dims.len() as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// Unscaled transform in the given direction.
    pub fn execute(&self, data: &mut [Complex64], dir: Direction) {
        transform_axis(data, self.dims, Axis::Z, &self.plan_z, dir);
        transform_axis(data, self.dims, Axis::Y, &self.plan_y, dir);
        transform_axis(data, self.dims, Axis::X, &self.plan_x, dir);
    }

    /// Flop estimate for one full 3D transform, used by the cluster cost
    /// model.
    pub fn flops(&self) -> f64 {
        let Dims3 { nx, ny, nz } = self.dims;
        (ny * nz) as f64 * flops_estimate(nx)
            + (nx * nz) as f64 * flops_estimate(ny)
            + (nx * ny) as f64 * flops_estimate(nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;
    use crate::LANES;

    fn signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((s >> 11) as f64) / (1u64 << 53) as f64 - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((s >> 11) as f64) / (1u64 << 53) as f64 - 0.5;
                Complex64::new(a, b)
            })
            .collect()
    }

    /// `transform_axis` runs the AVX2 compilation of the lane kernel on
    /// a CPU that has AVX2. It must return the bits of the baseline
    /// compilation (`axis_lines`, called here directly), and those must
    /// be the bits recorded from the code before there were two
    /// compilations: both copies share every line of source, so only the
    /// recorded digest can convict a fused multiply-add in `combine`.
    /// Eighteen smooth sizes from 1 to 210 on each axis, at 1, LANES - 1,
    /// LANES, LANES + 1 and 2·LANES + 1 lines, then the quick and the
    /// paper mesh; signed zeros, subnormals and 1e±300 among the values.
    #[test]
    fn both_compilations_return_the_same_bits() {
        /// fnv1a64 over the `to_bits` of every output component, in the
        /// order below, recorded on the commit before there were two
        /// compilations.
        const DIGEST: u64 = 0x912f_b1a2_a84c_319c;
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut shapes = Vec::new();
        for n in [
            1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 25, 35, 36, 48, 49, 80, 210,
        ] {
            for c in [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1] {
                shapes.push((Dims3::new(c, 1, n), Axis::Z));
                shapes.push((Dims3::new(1, n, c), Axis::Y));
                shapes.push((Dims3::new(n, 1, c), Axis::X));
            }
        }
        for dims in [Dims3::new(16, 16, 16), Dims3::new(80, 36, 48)] {
            for axis in [Axis::Z, Axis::Y, Axis::X] {
                shapes.push((dims, axis));
            }
        }
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 3.0,
            1e300,
            -1e-300,
        ];
        for (seed, &(dims, axis)) in shapes.iter().enumerate() {
            let mut input = signal(dims.len(), seed as u64);
            for (i, z) in input.iter_mut().enumerate().step_by(7) {
                z.re = edges[i % edges.len()];
                z.im = edges[(i / 7) % edges.len()];
            }
            let n = match axis {
                Axis::X => dims.nx,
                Axis::Y => dims.ny,
                Axis::Z => dims.nz,
            };
            let plan = FftPlan::new(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut base = input.clone();
                axis_lines(&mut base, dims, axis, &plan, dir);
                let mut got = input.clone();
                transform_axis(&mut got, dims, axis, &plan, dir);
                for (g, b) in got.iter().zip(&base) {
                    assert_eq!(g.re.to_bits(), b.re.to_bits(), "{dims:?} {axis:?} {dir:?}");
                    assert_eq!(g.im.to_bits(), b.im.to_bits(), "{dims:?} {axis:?} {dir:?}");
                    for byte in [b.re, b.im].map(|v| v.to_bits().to_le_bytes()).concat() {
                        digest = (digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
        }
        if !crate::has_wide_lanes() {
            eprintln!("no AVX2 on this CPU: skipped the wide half, checked the digest only");
        }
        assert_eq!(digest, DIGEST, "the bits moved from the recorded ones");
    }

    /// Reference 3D DFT built from the naive 1D DFT axis by axis.
    fn dft3_reference(data: &[Complex64], dims: Dims3) -> Vec<Complex64> {
        let mut out = data.to_vec();
        // z axis
        for l in 0..dims.nx * dims.ny {
            let base = l * dims.nz;
            let line: Vec<Complex64> = out[base..base + dims.nz].to_vec();
            out[base..base + dims.nz].copy_from_slice(&dft(&line));
        }
        // y axis
        for x in 0..dims.nx {
            for z in 0..dims.nz {
                let line: Vec<Complex64> = (0..dims.ny).map(|y| out[dims.idx(x, y, z)]).collect();
                let t = dft(&line);
                for (y, v) in t.iter().enumerate() {
                    out[dims.idx(x, y, z)] = *v;
                }
            }
        }
        // x axis
        for y in 0..dims.ny {
            for z in 0..dims.nz {
                let line: Vec<Complex64> = (0..dims.nx).map(|x| out[dims.idx(x, y, z)]).collect();
                let t = dft(&line);
                for (x, v) in t.iter().enumerate() {
                    out[dims.idx(x, y, z)] = *v;
                }
            }
        }
        out
    }

    #[test]
    fn matches_reference_3d_dft() {
        let dims = Dims3::new(4, 6, 5);
        let x = signal(dims.len(), 3);
        let fft = Fft3d::new(dims);
        let mut y = x.clone();
        fft.forward(&mut y);
        let reference = dft3_reference(&x, dims);
        let err = y
            .iter()
            .zip(&reference)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-9, "err={err}");
    }

    #[test]
    fn roundtrip_3d() {
        let dims = Dims3::new(8, 6, 10);
        let x = signal(dims.len(), 11);
        let fft = Fft3d::new(dims);
        let mut y = x.clone();
        fft.forward(&mut y);
        fft.inverse(&mut y);
        let err = y
            .iter()
            .zip(&x)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-10, "err={err}");
    }

    #[test]
    fn paper_grid_roundtrip() {
        // The exact PME grid from the paper: 80 x 36 x 48.
        let dims = Dims3::new(80, 36, 48);
        let x = signal(dims.len(), 2002);
        let fft = Fft3d::new(dims);
        let mut y = x.clone();
        fft.forward(&mut y);
        fft.inverse(&mut y);
        let err = y
            .iter()
            .zip(&x)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-9, "err={err}");
    }

    #[test]
    fn axis_transforms_compose_to_full_3d() {
        let dims = Dims3::new(4, 4, 4);
        let x = signal(dims.len(), 5);
        let fft = Fft3d::new(dims);
        let mut whole = x.clone();
        fft.forward(&mut whole);

        let mut by_axis = x.clone();
        let p = FftPlan::new(4);
        transform_axis(&mut by_axis, dims, Axis::Z, &p, Direction::Forward);
        transform_axis(&mut by_axis, dims, Axis::Y, &p, Direction::Forward);
        transform_axis(&mut by_axis, dims, Axis::X, &p, Direction::Forward);

        let err = whole
            .iter()
            .zip(&by_axis)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-12);
    }

    #[test]
    fn constant_grid_transforms_to_single_spike() {
        let dims = Dims3::new(4, 3, 5);
        let mut data = vec![Complex64::ONE; dims.len()];
        let fft = Fft3d::new(dims);
        fft.forward(&mut data);
        assert!((data[0].re - dims.len() as f64).abs() < 1e-9);
        for v in &data[1..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn flops_positive() {
        let fft = Fft3d::new(Dims3::new(80, 36, 48));
        assert!(fft.flops() > 0.0);
    }
}

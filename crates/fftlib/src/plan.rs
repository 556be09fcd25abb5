//! FFT plans: precomputed factorizations, leaf permutations and twiddle
//! tables.
//!
//! Sizes whose prime factors are all <= 7 run through a table-driven
//! mixed-radix Cooley-Tukey decimation-in-time kernel that carries a
//! batch of independent lines side by side (DESIGN.md §21). Any other
//! size is delegated to the Bluestein chirp-z algorithm (see
//! `crate::bluestein`).
//!
//! The PME grids used by the molecular dynamics code (80 x 36 x 48 in the
//! paper's myoglobin run) are all smooth sizes and take the mixed-radix
//! path.
//!
//! **Bit contract.** Every lane of the kernel performs, on its own line,
//! exactly the operation sequence of the recursive scalar kernel it
//! replaced (frozen as the oracle in `tests/kernel_bit_identity.rs`):
//! every twiddle product is computed, including the ones by `w^0`, in
//! the same operand order and never fused. The energies in every golden
//! row depend on those bits.

use crate::bluestein::Bluestein;
use crate::complex::Complex64;
use std::f64::consts::TAU;

/// Largest prime handled by the mixed-radix kernel directly.
pub const MAX_RADIX: usize = 7;

/// Lines the batched kernel carries side by side (see
/// [`crate::fft3d::transform_axis`]).
pub const LANES: usize = 8;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `e^{-2 pi i j k / n}` kernel.
    Forward,
    /// `e^{+2 pi i j k / n}` kernel (unscaled; see [`FftPlan::inverse`]).
    Inverse,
}

/// Returns the prime factorization of `n` in nondecreasing order.
pub fn factorize(mut n: usize) -> Vec<usize> {
    let mut factors = Vec::new();
    let mut p = 2;
    while p * p <= n {
        while n.is_multiple_of(p) {
            factors.push(p);
            n /= p;
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

/// True when every prime factor of `n` is at most [`MAX_RADIX`].
pub fn is_smooth(n: usize) -> bool {
    n > 0 && factorize(n).iter().all(|&f| f <= MAX_RADIX)
}

/// Standard flop estimate for an FFT of size `n` (5 n log2 n).
///
/// Used by the virtual-cluster cost model to charge computation time for
/// transforms without timing the host machine.
pub fn flops_estimate(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    5.0 * n as f64 * (n as f64).log2()
}

/// Twiddle tables of one stage in one direction.
#[derive(Debug, Clone)]
struct Twiddles {
    /// `tw1[j * m + k] = w^(j k)`: scales output `k` of sub-transform `j`.
    tw1: Vec<Complex64>,
    /// `tw2[j * r + q] = w^(j q m)`: the `r x r` DFT across sub-transforms.
    tw2: Vec<Complex64>,
}

/// One decimation level: blocks of `n` consecutive positions, each
/// holding `radix` finished sub-transforms of size `m = n / radix`.
#[derive(Debug, Clone)]
struct Stage {
    n: usize,
    radix: usize,
    /// Indexed by `Direction as usize`; the inverse tables are the
    /// conjugates of the forward ones, which is exact.
    twiddles: [Twiddles; 2],
}

/// Plan-time tables of the mixed-radix kernel.
#[derive(Debug, Clone)]
struct MixedRadix {
    /// `perm[pos]` is the input index the decimation leaves at position
    /// `pos` before the first combine pass.
    perm: Vec<usize>,
    /// Outermost level first; executed in reverse.
    stages: Vec<Stage>,
}

enum Kind {
    MixedRadix(MixedRadix),
    Bluestein(Box<Bluestein>),
}

/// Working set of one lane batch, `re[pos][lane]` and `im[pos][lane]`;
/// one per [`crate::fft3d::transform_axis`] call, not per line.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    re: Vec<[f64; LANES]>,
    im: Vec<[f64; LANES]>,
}

/// A reusable plan for complex transforms of one fixed size.
pub struct FftPlan {
    n: usize,
    kind: Kind,
}

impl std::fmt::Debug for FftPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            Kind::MixedRadix(_) => "mixed-radix",
            Kind::Bluestein(_) => "bluestein",
        };
        write!(f, "FftPlan(n={}, kind={kind})", self.n)
    }
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT size must be positive");
        let kind = if is_smooth(n) {
            Kind::MixedRadix(MixedRadix::new(n))
        } else {
            Kind::Bluestein(Box::new(Bluestein::new(n)))
        };
        FftPlan { n, kind }
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; plans of length zero cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward transform, out of place. `input` and `output` must both
    /// have length `self.len()`.
    pub fn forward(&self, input: &[Complex64], output: &mut [Complex64]) {
        self.execute(input, output, Direction::Forward);
    }

    /// Normalized inverse transform (includes the `1/n` factor), out of
    /// place, so `inverse(forward(x)) == x`.
    pub fn inverse(&self, input: &[Complex64], output: &mut [Complex64]) {
        self.execute(input, output, Direction::Inverse);
        let inv = 1.0 / self.n as f64;
        for v in output.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// Unscaled transform in the given direction, out of place.
    pub fn execute(&self, input: &[Complex64], output: &mut [Complex64], dir: Direction) {
        assert_eq!(input.len(), self.n, "input length mismatch");
        assert_eq!(output.len(), self.n, "output length mismatch");
        match &self.kind {
            Kind::MixedRadix(mr) => {
                // The one-lane instantiation of the batched kernel.
                let mut re: Vec<[f64; 1]> = mr.perm.iter().map(|&i| [input[i].re]).collect();
                let mut im: Vec<[f64; 1]> = mr.perm.iter().map(|&i| [input[i].im]).collect();
                mr.run(&mut re, &mut im, dir);
                for (out, (r, i)) in output.iter_mut().zip(re.iter().zip(&im)) {
                    *out = Complex64::new(r[0], i[0]);
                }
            }
            Kind::Bluestein(b) => match dir {
                Direction::Forward => b.forward(input, output),
                Direction::Inverse => {
                    // IDFT(x) = conj(DFT(conj(x))) (unscaled).
                    let conj_in: Vec<Complex64> = input.iter().map(|z| z.conj()).collect();
                    b.forward(&conj_in, output);
                    for v in output.iter_mut() {
                        *v = v.conj();
                    }
                }
            },
        }
    }

    /// Transforms `count` lines of `data` in place, [`LANES`] at a time.
    /// Element `i` of line `l` lives at
    /// `data[l * line_stride + i * elem_stride]`.
    #[inline(always)]
    pub(crate) fn execute_lines(
        &self,
        data: &mut [Complex64],
        count: usize,
        line_stride: usize,
        elem_stride: usize,
        dir: Direction,
        scratch: &mut LaneScratch,
    ) {
        let n = self.n;
        let mr = match &self.kind {
            Kind::MixedRadix(mr) => mr,
            Kind::Bluestein(_) => {
                let mut line_in = vec![Complex64::ZERO; n];
                let mut line_out = vec![Complex64::ZERO; n];
                for l in 0..count {
                    let base = l * line_stride;
                    for (i, slot) in line_in.iter_mut().enumerate() {
                        *slot = data[base + i * elem_stride];
                    }
                    self.execute(&line_in, &mut line_out, dir);
                    for (i, &v) in line_out.iter().enumerate() {
                        data[base + i * elem_stride] = v;
                    }
                }
                return;
            }
        };
        scratch.re.resize(n, [0.0; LANES]);
        scratch.im.resize(n, [0.0; LANES]);
        let (re, im) = (&mut scratch.re[..n], &mut scratch.im[..n]);
        for first in (0..count).step_by(LANES) {
            let lanes = LANES.min(count - first);
            let base = first * line_stride;
            // Gather through the leaf permutation; lanes past the last
            // line of a tail batch carry zeros.
            for ((r, i), &src) in re.iter_mut().zip(im.iter_mut()).zip(&mr.perm) {
                let at = base + src * elem_stride;
                (*r, *i) = ([0.0; LANES], [0.0; LANES]);
                for l in 0..lanes {
                    let v = data[at + l * line_stride];
                    (r[l], i[l]) = (v.re, v.im);
                }
            }
            mr.run(re, im, dir);
            for (pos, (r, i)) in re.iter().zip(im.iter()).enumerate() {
                let at = base + pos * elem_stride;
                for l in 0..lanes {
                    data[at + l * line_stride] = Complex64::new(r[l], i[l]);
                }
            }
        }
    }
}

impl MixedRadix {
    fn new(n: usize) -> Self {
        let mut perm = vec![0; n];
        let mut stages = Vec::new();
        let mut size = n;
        for radix in factorize(n) {
            let m = size / radix;
            let w: Vec<Complex64> = (0..size)
                .map(|t| Complex64::cis(-TAU * t as f64 / size as f64))
                .collect();
            let forward = Twiddles {
                tw1: (0..size).map(|i| w[(i / m) * (i % m) % size]).collect(),
                tw2: (0..radix * radix)
                    .map(|i| w[(i / radix) * (i % radix) * m % size])
                    .collect(),
            };
            let inverse = Twiddles {
                tw1: forward.tw1.iter().map(|z| z.conj()).collect(),
                tw2: forward.tw2.iter().map(|z| z.conj()).collect(),
            };
            stages.push(Stage {
                n: size,
                radix,
                twiddles: [forward, inverse],
            });
            size = m;
        }
        debug_assert_eq!(size, 1);
        fill_perm(&stages, 0, 1, &mut perm);
        MixedRadix { perm, stages }
    }

    /// Runs every combine pass, deepest level first, over `L` lines
    /// whose leaves are already in place.
    #[inline(always)]
    fn run<const L: usize>(&self, re: &mut [[f64; L]], im: &mut [[f64; L]], dir: Direction) {
        for stage in self.stages.iter().rev() {
            let tw = &stage.twiddles[dir as usize];
            match stage.radix {
                2 => combine::<2, L>(re, im, stage.n, tw),
                3 => combine::<3, L>(re, im, stage.n, tw),
                5 => combine::<5, L>(re, im, stage.n, tw),
                7 => combine::<7, L>(re, im, stage.n, tw),
                r => unreachable!("radix {r} in a smooth size"),
            }
        }
    }
}

/// Writes the decimation order into `perm`: the sub-sequence starting at
/// `offset` with stride `stride` lands in the positions `perm` covers.
fn fill_perm(stages: &[Stage], offset: usize, stride: usize, perm: &mut [usize]) {
    let Some((stage, deeper)) = stages.split_first() else {
        perm[0] = offset;
        return;
    };
    let m = stage.n / stage.radix;
    for (j, sub) in perm.chunks_exact_mut(m).enumerate() {
        fill_perm(deeper, offset + j * stride, stride * stage.radix, sub);
    }
}

/// One radix-`R` pass over every block of `n` positions:
/// `X[k + q m] = sum_j w^(j q m) (w^(j k) Y_j[k])`, in place, where
/// `Y_j` occupies positions `j m .. (j + 1) m` of the block.
///
/// Each lane runs the scalar sequence `t_j = y_j * w^(jk)` (also for
/// `j = 0`), `acc = t_0`, then `acc = (acc + t_j.re * w.re) - t_j.im *
/// w.im` (and the matching imaginary part) for `j = 1..R` in order, so
/// the result does not depend on whether the lane loops vectorise.
#[inline(always)]
fn combine<const R: usize, const L: usize>(
    re: &mut [[f64; L]],
    im: &mut [[f64; L]],
    n: usize,
    tw: &Twiddles,
) {
    let m = n / R;
    for (re, im) in re.chunks_exact_mut(n).zip(im.chunks_exact_mut(n)) {
        for k in 0..m {
            let mut tr = [[0.0; L]; R];
            let mut ti = [[0.0; L]; R];
            for j in 0..R {
                let w = tw.tw1[j * m + k];
                let (yr, yi) = (&re[j * m + k], &im[j * m + k]);
                for l in 0..L {
                    tr[j][l] = yr[l] * w.re - yi[l] * w.im;
                    ti[j][l] = yr[l] * w.im + yi[l] * w.re;
                }
            }
            for q in 0..R {
                let (mut ar, mut ai) = (tr[0], ti[0]);
                for j in 1..R {
                    let w = tw.tw2[j * R + q];
                    for l in 0..L {
                        ar[l] = ar[l] + tr[j][l] * w.re - ti[j][l] * w.im;
                        ai[l] = ai[l] + tr[j][l] * w.im + ti[j][l] * w.re;
                    }
                }
                re[q * m + k] = ar;
                im[q * m + k] = ai;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, idft};

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex64> {
        // Small deterministic LCG; test-only.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((state >> 11) as f64) / (1u64 << 53) as f64 - 0.5;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((state >> 11) as f64) / (1u64 << 53) as f64 - 0.5;
                Complex64::new(a, b)
            })
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn factorize_basic() {
        assert_eq!(factorize(1), vec![]);
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(36), vec![2, 2, 3, 3]);
        assert_eq!(factorize(80), vec![2, 2, 2, 2, 5]);
        assert_eq!(factorize(97), vec![97]);
    }

    #[test]
    fn smoothness() {
        assert!(is_smooth(48));
        assert!(is_smooth(80));
        assert!(is_smooth(36));
        assert!(!is_smooth(97));
        assert!(!is_smooth(2 * 11));
    }

    #[test]
    fn matches_naive_dft_for_many_sizes() {
        for n in [
            1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24, 25, 27, 30, 32, 36, 48, 60, 64,
            80,
        ] {
            let plan = FftPlan::new(n);
            let x = rand_signal(n, n as u64);
            let mut y = vec![Complex64::ZERO; n];
            plan.forward(&x, &mut y);
            let reference = dft(&x);
            assert!(max_err(&y, &reference) < 1e-9 * (n as f64), "size {n}");
        }
    }

    #[test]
    fn bluestein_sizes_match_naive_dft() {
        for n in [11usize, 13, 17, 22, 26, 97, 101] {
            let plan = FftPlan::new(n);
            let x = rand_signal(n, 1000 + n as u64);
            let mut y = vec![Complex64::ZERO; n];
            plan.forward(&x, &mut y);
            let reference = dft(&x);
            assert!(max_err(&y, &reference) < 1e-8 * (n as f64), "size {n}");
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for n in [8usize, 36, 48, 80, 97] {
            let plan = FftPlan::new(n);
            let x = rand_signal(n, 7 * n as u64);
            let mut y = vec![Complex64::ZERO; n];
            let mut z = vec![Complex64::ZERO; n];
            plan.forward(&x, &mut y);
            plan.inverse(&y, &mut z);
            assert!(max_err(&x, &z) < 1e-9 * n as f64, "size {n}");
        }
    }

    #[test]
    fn inverse_matches_naive_idft() {
        let n = 36;
        let plan = FftPlan::new(n);
        let x = rand_signal(n, 99);
        let mut y = vec![Complex64::ZERO; n];
        plan.inverse(&x, &mut y);
        let reference = idft(&x);
        assert!(max_err(&y, &reference) < 1e-9);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 80;
        let plan = FftPlan::new(n);
        let x = rand_signal(n, 4);
        let mut y = vec![Complex64::ZERO; n];
        plan.forward(&x, &mut y);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-9 * ex.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 48;
        let plan = FftPlan::new(n);
        let x = rand_signal(n, 5);
        let y = rand_signal(n, 6);
        let sum: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let mut fx = vec![Complex64::ZERO; n];
        let mut fy = vec![Complex64::ZERO; n];
        let mut fs = vec![Complex64::ZERO; n];
        plan.forward(&x, &mut fx);
        plan.forward(&y, &mut fy);
        plan.forward(&sum, &mut fs);
        let expect: Vec<Complex64> = fx.iter().zip(&fy).map(|(a, b)| *a + *b).collect();
        assert!(max_err(&fs, &expect) < 1e-9);
    }

    #[test]
    fn flops_estimate_monotone() {
        assert_eq!(flops_estimate(1), 0.0);
        assert!(flops_estimate(64) > flops_estimate(32));
    }
}

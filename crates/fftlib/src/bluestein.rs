//! Bluestein's chirp-z algorithm for arbitrary (in particular large
//! prime) transform sizes.
//!
//! The length-`n` DFT is re-expressed as a circular convolution of length
//! `m >= 2n - 1`, where `m` is chosen as a power of two so the inner
//! transforms run on the fast radix-2 path.

use crate::complex::Complex64;
use crate::plan::FftPlan;
use std::f64::consts::PI;

/// Precomputed state for Bluestein transforms of one size.
pub struct Bluestein {
    n: usize,
    m: usize,
    /// Chirp `a[j] = e^{-i pi j^2 / n}` for `j` in `0..n`.
    chirp: Vec<Complex64>,
    /// Forward transform of the (conjugate-chirp) convolution kernel.
    kernel_fft: Vec<Complex64>,
    inner: FftPlan,
}

impl Bluestein {
    /// Builds Bluestein state for transforms of length `n > 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        let m = (2 * n - 1).next_power_of_two();
        let inner = FftPlan::new(m);

        // j^2 mod 2n keeps the trig argument small for accuracy.
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let t = mod_sq(j, 2 * n);
                Complex64::cis(-PI * t as f64 / n as f64)
            })
            .collect();

        // Kernel b[j] = conj(chirp[|j|]) arranged circularly over m.
        let mut b = vec![Complex64::ZERO; m];
        b[0] = chirp[0].conj();
        for j in 1..n {
            let v = chirp[j].conj();
            b[j] = v;
            b[m - j] = v;
        }
        let mut kernel_fft = vec![Complex64::ZERO; m];
        inner.forward(&b, &mut kernel_fft);

        Bluestein {
            n,
            m,
            chirp,
            kernel_fft,
            inner,
        }
    }

    /// Forward DFT of `input` into `output` (both length `n`).
    pub fn forward(&self, input: &[Complex64], output: &mut [Complex64]) {
        assert_eq!(input.len(), self.n);
        assert_eq!(output.len(), self.n);
        let m = self.m;

        // Pre-multiply by the chirp and zero-pad to m.
        let mut a = vec![Complex64::ZERO; m];
        for j in 0..self.n {
            a[j] = input[j] * self.chirp[j];
        }

        // Convolve via the inner FFT.
        let mut fa = vec![Complex64::ZERO; m];
        self.inner.forward(&a, &mut fa);
        for (v, k) in fa.iter_mut().zip(&self.kernel_fft) {
            *v *= *k;
        }
        let mut conv = vec![Complex64::ZERO; m];
        self.inner.inverse(&fa, &mut conv);

        // Post-multiply by the chirp.
        for k in 0..self.n {
            output[k] = conv[k] * self.chirp[k];
        }
    }
}

/// Computes `j^2 mod q` without overflow.
fn mod_sq(j: usize, q: usize) -> usize {
    let j = (j % q) as u128;
    ((j * j) % q as u128) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    #[test]
    fn prime_sizes_match_dft() {
        for n in [3usize, 7, 11, 31, 127] {
            let b = Bluestein::new(n);
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
                .collect();
            let mut y = vec![Complex64::ZERO; n];
            b.forward(&x, &mut y);
            let reference = dft(&x);
            let err = y
                .iter()
                .zip(&reference)
                .map(|(a, r)| (*a - *r).abs())
                .fold(0.0f64, f64::max);
            assert!(err < 1e-8 * n as f64, "n={n} err={err}");
        }
    }

    #[test]
    fn size_one_is_identity() {
        let b = Bluestein::new(1);
        let x = [Complex64::new(2.5, -1.5)];
        let mut y = [Complex64::ZERO];
        b.forward(&x, &mut y);
        assert!((y[0] - x[0]).abs() < 1e-12);
    }

    #[test]
    fn mod_sq_no_overflow() {
        let big = usize::MAX / 2;
        // Must not panic even for huge j.
        let _ = mod_sq(big, 2 * 1_000_003);
        assert_eq!(mod_sq(5, 14), 25 % 14);
    }
}

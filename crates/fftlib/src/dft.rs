//! Naive O(n^2) discrete Fourier transform, used as the correctness
//! reference for the fast algorithms and for very small transform sizes.

use crate::complex::Complex64;
use std::f64::consts::TAU;

/// Computes the forward DFT `X[k] = sum_j x[j] e^{-2 pi i j k / n}`.
///
/// This is the textbook quadratic algorithm; it exists to validate the
/// fast paths and is exercised heavily by the test suite.
pub fn dft(input: &[Complex64]) -> Vec<Complex64> {
    transform(input, -1.0)
}

/// Computes the normalized inverse DFT
/// `x[j] = (1/n) sum_k X[k] e^{+2 pi i j k / n}`, so that
/// `idft(dft(x)) == x`: the reference the inverse plans are judged against.
pub fn idft(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let mut out = transform(input, 1.0);
    let inv = 1.0 / n as f64;
    for v in &mut out {
        *v = v.scale(inv);
    }
    out
}

fn transform(input: &[Complex64], sign: f64) -> Vec<Complex64> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = vec![Complex64::ZERO; n];
    let base = sign * TAU / n as f64;
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            // Reduce j*k modulo n before forming the angle to keep the
            // argument small and the trigonometry accurate for large n.
            let t = (j * k) % n;
            acc = acc.mul_add(x, Complex64::cis(base * t as f64));
        }
        *slot = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let y = dft(&x);
        for v in y {
            assert!((v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dft_of_constant_is_impulse() {
        let x = vec![Complex64::ONE; 16];
        let y = dft(&x);
        assert!((y[0].re - 16.0).abs() < 1e-10);
        for v in &y[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn roundtrip_restores_input() {
        let x: Vec<Complex64> = (0..12)
            .map(|i| Complex64::new(i as f64 * 0.5, -(i as f64)))
            .collect();
        let y = idft(&dft(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 20;
        let k0 = 3;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(std::f64::consts::TAU * (j * k0) as f64 / n as f64))
            .collect();
        let y = dft(&x);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.re - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(dft(&[]).is_empty());
    }
}

//! A minimal double-precision complex number.
//!
//! The crate deliberately avoids external numeric dependencies; this type
//! implements exactly the operations the FFT kernels need.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian components.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a pure-real complex number.
    #[inline(always)]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// `e^{i theta}` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64 { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|^2`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplication by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// `self + a * b`, each component summed left to right as written,
    /// with two roundings per product term. Never fused: rustc does not
    /// contract `x * y + z` into an FMA instruction, and every golden
    /// energy depends on that (DESIGN.md §21).
    #[inline(always)]
    pub fn mul_add(self, a: Complex64, b: Complex64) -> Self {
        Complex64 {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: f64) -> Complex64 {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Complex64 {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z - z, Complex64::ZERO));
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(Complex64::I * Complex64::I, -Complex64::ONE));
    }

    #[test]
    fn conjugate_multiplication_gives_norm() {
        let z = Complex64::new(1.5, 2.5);
        let p = z * z.conj();
        assert!((p.re - z.norm_sqr()).abs() < 1e-12);
        assert!(p.im.abs() < 1e-12);
    }

    #[test]
    fn cis_is_on_unit_circle() {
        for k in 0..32 {
            let theta = k as f64 * 0.3;
            let z = Complex64::cis(theta);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cis_addition_theorem() {
        let a = 0.7;
        let b = 1.9;
        assert!(close(
            Complex64::cis(a) * Complex64::cis(b),
            Complex64::cis(a + b)
        ));
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let acc = Complex64::new(1.0, 1.0);
        let a = Complex64::new(2.0, -3.0);
        let b = Complex64::new(-1.0, 4.0);
        assert!(close(acc.mul_add(a, b), acc + a * b));
    }
}

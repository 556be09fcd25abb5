//! Special functions needed by Ewald summation: the error function and
//! its complement, accurate to near machine precision.
//!
//! `erf` uses its Maclaurin series for small arguments; `erfc` uses a
//! continued fraction (modified Lentz algorithm) for large arguments.
//! The crossover at |x| = 2 keeps both branches fast and fully
//! converged in double precision.
//!
//! Both recurrences are latency-bound chains of dependent divisions, so
//! each is written once over `L` independent lanes (`erf_series`,
//! `erfc_cf`). The lane contract: a lane *is* the scalar operation
//! sequence on its own argument, run to its own stopping iteration and
//! then frozen while slower lanes continue — no lane ever sees another
//! lane's data, and IEEE `+ - * /` are exact lane-wise, so the result
//! of an argument does not depend on `L`, on its neighbours, or on
//! whether the compiler vectorises the lane loops. The scalar
//! [`erf`]/[`erfc`] are the one-lane instantiation; [`erf_batch`] /
//! [`erfc_batch`] run [`LANES`] arguments side by side (DESIGN.md §20).

use std::f64::consts::PI;

const CROSSOVER: f64 = 2.0;

/// Arguments the batch entry points evaluate side by side.
pub const LANES: usize = 8;

/// The error function `erf(x) = 2/sqrt(pi) * int_0^x e^{-t^2} dt`.
pub fn erf(x: f64) -> f64 {
    one_lane(Func::Erf, x)
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
pub fn erfc(x: f64) -> f64 {
    one_lane(Func::Erfc, x)
}

/// `erf(x[i])` into `out[i]` and the Gaussian `exp(-x[i]^2)` — which
/// every Ewald force term needs beside it — into `gauss[i]`, each
/// bit-identical to the scalar [`erf`] and `(-x * x).exp()`.
///
/// # Panics
/// If the three slices differ in length.
pub fn erf_batch(x: &[f64], out: &mut [f64], gauss: &mut [f64]) {
    batch::<LANES>(Func::Erf, x, out, gauss);
}

/// [`erf_batch`] for `erfc`.
pub fn erfc_batch(x: &[f64], out: &mut [f64], gauss: &mut [f64]) {
    batch::<LANES>(Func::Erfc, x, out, gauss);
}

fn one_lane(func: Func, x: f64) -> f64 {
    let (mut value, mut gauss) = ([0.0], [0.0]);
    batch::<1>(func, &[x], &mut value, &mut gauss);
    value[0]
}

#[derive(Clone, Copy)]
enum Func {
    Erf,
    Erfc,
}

impl Func {
    /// The function of `x` from what its branch computed for `|x|`:
    /// `erf(|x|)` from the series, `erfc(|x|)` from the fraction.
    fn finish(self, x: f64, branch_value: f64, series: bool) -> f64 {
        let v = match (self, series) {
            (Func::Erf, true) | (Func::Erfc, false) => branch_value,
            (Func::Erf, false) | (Func::Erfc, true) => 1.0 - branch_value,
        };
        match (self, x < 0.0) {
            (_, false) => v,
            (Func::Erf, true) => -v,
            (Func::Erfc, true) => 2.0 - v,
        }
    }
}

/// Up to `L` arguments waiting for one branch, with where each result
/// goes.
struct Queue<const L: usize> {
    arg: [f64; L],
    slot: [usize; L],
    len: usize,
}

impl<const L: usize> Queue<L> {
    fn new() -> Self {
        Queue {
            arg: [0.0; L],
            slot: [0; L],
            len: 0,
        }
    }

    /// Queues `|x|` for output `slot`; true when the queue is full.
    fn push(&mut self, slot: usize, arg: f64) -> bool {
        self.arg[self.len] = arg;
        self.slot[self.len] = slot;
        self.len += 1;
        self.len == L
    }

    /// The queued arguments, the tail padded with a copy of a live lane
    /// so that no lane iterates on garbage, and the queue emptied.
    fn take(&mut self) -> ([f64; L], &[usize]) {
        for l in self.len..L {
            self.arg[l] = self.arg[0];
        }
        let n = std::mem::take(&mut self.len);
        (self.arg, &self.slot[..n])
    }
}

/// Sorts the arguments into a series queue and a fraction queue by
/// `|x|` and flushes each `L` at a time. Non-finite arguments take their
/// limits without entering a recurrence (where infinity would compute
/// `inf * 0` and NaN would never converge).
fn batch<const L: usize>(func: Func, x: &[f64], out: &mut [f64], gauss: &mut [f64]) {
    assert!(x.len() == out.len() && x.len() == gauss.len());
    let flush = |q: &mut Queue<L>, series: bool, out: &mut [f64], gauss: &mut [f64]| {
        if q.len == 0 {
            return;
        }
        let (arg, slots) = q.take();
        let (value, g) = if series {
            (erf_series(arg), arg.map(|a| (-a * a).exp()))
        } else {
            erfc_cf(arg)
        };
        for (l, &i) in slots.iter().enumerate() {
            out[i] = func.finish(x[i], value[l], series);
            gauss[i] = g[l];
        }
    };
    let mut low = Queue::<L>::new();
    let mut high = Queue::<L>::new();
    for (i, &xi) in x.iter().enumerate() {
        let a = if xi < 0.0 { -xi } else { xi };
        if a <= CROSSOVER {
            if low.push(i, a) {
                flush(&mut low, true, out, gauss);
            }
        } else if a.is_finite() {
            if high.push(i, a) {
                flush(&mut high, false, out, gauss);
            }
        } else {
            // erfc(inf) = 0; NaN stays NaN through `finish`.
            let limit = if a.is_nan() { a } else { 0.0 };
            out[i] = func.finish(xi, limit, false);
            gauss[i] = (-a * a).exp();
        }
    }
    flush(&mut low, true, out, gauss);
    flush(&mut high, false, out, gauss);
}

/// All ones for a lane that has converged, zero while it iterates: a
/// word rather than a `bool` so that freezing is a bitwise blend the
/// compiler can keep in vector registers.
type Mask = u64;

#[inline(always)]
fn mask(converged: bool) -> Mask {
    (converged as Mask).wrapping_neg()
}

/// `frozen` where the lane is done, `next` where it still iterates — a
/// move of bits, never a rounding.
#[inline(always)]
fn blend(done: Mask, frozen: f64, next: f64) -> f64 {
    f64::from_bits((frozen.to_bits() & done) | (next.to_bits() & !done))
}

/// Maclaurin series: erf(x) = 2/sqrt(pi) sum_n (-1)^n x^(2n+1)/(n!(2n+1)),
/// for `L` arguments in `[0, CROSSOVER]`.
fn erf_series<const L: usize>(x: [f64; L]) -> [f64; L] {
    let x2 = x.map(|x| x * x);
    let mut term = x; // x^(2n+1)/n!
    let mut sum = x;
    let mut done = [mask(false); L];
    for n in 1..200 {
        let nf = n as f64;
        let odd = (2 * n + 1) as f64;
        let mut all_done = mask(true);
        for l in 0..L {
            let t = term[l] * (-x2[l] / nf);
            let contrib = t / odd;
            let s = sum[l] + contrib;
            term[l] = blend(done[l], term[l], t);
            sum[l] = blend(done[l], sum[l], s);
            done[l] |= mask(contrib.abs() < 1e-18 * s.abs().max(1e-300));
            all_done &= done[l];
        }
        if all_done == mask(true) {
            break;
        }
    }
    sum.map(|s| 2.0 / PI.sqrt() * s)
}

/// Continued fraction for erfc(x), finite x > 0:
/// erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/2/(x + 1/(x + 3/2/(x + ...)))),
/// for `L` arguments. Returns the values and the `exp(-x^2)` factors.
fn erfc_cf<const L: usize>(x: [f64; L]) -> ([f64; L], [f64; L]) {
    // Modified Lentz evaluation of the continued fraction
    // K = x + (1/2)/(x + 1/(x + (3/2)/(x + 2/(x + ...)))).
    let tiny = 1e-300;
    let mut f = x.map(|x| x.max(tiny));
    let mut c = f;
    let mut d = [0.0; L];
    let mut done = [mask(false); L];
    for k in 1..300 {
        let a = k as f64 / 2.0; // 1/2, 1, 3/2, 2, ...
        let mut all_done = mask(true);
        for l in 0..L {
            let b = x[l];
            let mut dl = b + a * d[l];
            if dl.abs() < tiny {
                dl = tiny;
            }
            let mut cl = b + a / c[l];
            if cl.abs() < tiny {
                cl = tiny;
            }
            dl = 1.0 / dl;
            let delta = cl * dl;
            d[l] = blend(done[l], d[l], dl);
            c[l] = blend(done[l], c[l], cl);
            f[l] = blend(done[l], f[l], f[l] * delta);
            done[l] |= mask((delta - 1.0).abs() < 1e-17);
            all_done &= done[l];
        }
        if all_done == mask(true) {
            break;
        }
    }
    let gauss = x.map(|x| (-x * x).exp());
    let mut value = [0.0; L];
    for l in 0..L {
        value[l] = gauss[l] / PI.sqrt() / f[l];
    }
    (value, gauss)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 30 digits (excess
    /// digits intentional: they pin the rounding direction).
    #[allow(clippy::excessive_precision)]
    const REFERENCE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112462916018284892203275071744),
        (0.5, 0.520499877813046537682746653892),
        (1.0, 0.842700792949714869341220635083),
        (1.5, 0.966105146475310727066976261646),
        (2.0, 0.995322265018952734162069256367),
        (2.5, 0.999593047982555041060435784260),
        (3.0, 0.999977909503001414558627223870),
        (4.0, 0.999999984582742099719981147840),
        (5.0, 0.999999999998462540205571965150),
    ];

    #[test]
    fn erf_matches_reference() {
        for &(x, want) in REFERENCE {
            let got = erf(x);
            assert!((got - want).abs() < 1e-14, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erfc_matches_reference() {
        for &(x, e) in REFERENCE {
            let got = erfc(x);
            let want = 1.0 - e;
            // Relative accuracy matters in the tail.
            let tol = 1e-13 * want.abs().max(1e-16);
            assert!(
                (got - want).abs() < tol.max(1e-15),
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erfc_deep_tail_is_positive_and_tiny() {
        let v = erfc(8.0);
        assert!(v > 0.0);
        assert!(v < 1.2e-29);
    }

    #[test]
    fn odd_symmetry() {
        for &x in &[0.3, 1.1, 2.7] {
            assert!((erf(-x) + erf(x)).abs() < 1e-15);
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-14);
        }
    }

    #[test]
    fn erf_plus_erfc_is_one() {
        for i in 0..100 {
            let x = i as f64 * 0.07;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-14, "x={x}");
        }
    }

    #[test]
    fn derivative_matches_gaussian() {
        // d/dx erf(x) = 2/sqrt(pi) exp(-x^2); central differences.
        for &x in &[0.2, 0.9, 1.7, 2.3, 3.1] {
            let h = 1e-6;
            let numeric = (erf(x + h) - erf(x - h)) / (2.0 * h);
            let analytic = 2.0 / PI.sqrt() * (-x * x).exp();
            assert!((numeric - analytic).abs() < 1e-8, "x={x}");
        }
    }

    #[test]
    fn infinite_arguments_take_their_limits() {
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
    }

    #[test]
    fn nan_stays_nan() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn a_non_finite_lane_neither_stalls_nor_taints_its_batch() {
        // One corrupted coordinate among healthy arguments: the healthy
        // lanes keep their scalar bits, the bad ones take their limits.
        let x = [
            0.5,
            f64::INFINITY,
            3.0,
            f64::NAN,
            2.5,
            f64::NEG_INFINITY,
            1.0,
        ];
        let mut out = [0.0; 7];
        let mut gauss = [0.0; 7];
        erfc_batch(&x, &mut out, &mut gauss);
        for (i, &xi) in x.iter().enumerate() {
            if xi.is_nan() {
                assert!(out[i].is_nan() && gauss[i].is_nan());
            } else {
                assert_eq!(out[i].to_bits(), erfc(xi).to_bits(), "x={xi}");
                assert_eq!(gauss[i].to_bits(), (-xi * xi).exp().to_bits(), "x={xi}");
            }
        }
        assert_eq!((out[1], gauss[1]), (0.0, 0.0));
        assert_eq!(out[5], 2.0);
    }
}

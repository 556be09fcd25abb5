//! Orthorhombic periodic boundary conditions and minimum-image
//! displacements.

use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// An orthorhombic simulation box with edges along the Cartesian axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PbcBox {
    /// Edge lengths in Angstrom.
    pub lengths: Vec3,
}

impl PbcBox {
    /// Creates a box with the given edge lengths (all must be positive).
    pub fn new(lx: f64, ly: f64, lz: f64) -> Self {
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "box edges must be positive"
        );
        PbcBox {
            lengths: Vec3::new(lx, ly, lz),
        }
    }

    /// Box volume in cubic Angstrom.
    pub fn volume(&self) -> f64 {
        self.lengths.x * self.lengths.y * self.lengths.z
    }

    /// Minimum-image displacement `a - b` (the shortest periodic image):
    /// `d - L * round(d / L)` per component.
    ///
    /// Points within one box length of each other — every pair any
    /// caller passes once a run has started — never reach the division
    /// or `round`: there the image count is `+1`, `-1` or a zero with
    /// the sign of `d`, read off two comparisons against `L / 2`
    /// (DESIGN.md §24 proves the result is the same double, sign of
    /// zero included).
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let d = a - b;
        let l = self.lengths;
        if d.x.abs() <= l.x && d.y.abs() <= l.y && d.z.abs() <= l.z {
            Vec3::new(
                nearest_image(d.x, l.x),
                nearest_image(d.y, l.y),
                nearest_image(d.z, l.z),
            )
        } else {
            self.min_image_far(d)
        }
    }

    /// [`min_image`](Self::min_image) of a raw difference with a
    /// component beyond one box length (or not a number). Kept out of
    /// line so the near case stays branch-light where it is inlined.
    #[cold]
    #[inline(never)]
    fn min_image_far(&self, mut d: Vec3) -> Vec3 {
        d.x -= self.lengths.x * (d.x / self.lengths.x).round();
        d.y -= self.lengths.y * (d.y / self.lengths.y).round();
        d.z -= self.lengths.z * (d.z / self.lengths.z).round();
        d
    }

    /// Minimum-image distance between two points.
    #[inline]
    pub fn distance(&self, a: Vec3, b: Vec3) -> f64 {
        self.min_image(a, b).norm()
    }

    /// Wraps a point into the primary cell `[0, L)` in each dimension.
    #[inline]
    pub fn wrap(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            p.x.rem_euclid(self.lengths.x),
            p.y.rem_euclid(self.lengths.y),
            p.z.rem_euclid(self.lengths.z),
        )
    }

    /// Fractional coordinates of a point, each in `[0, 1)` after wrapping.
    #[inline]
    pub fn fractional(&self, p: Vec3) -> Vec3 {
        let w = self.wrap(p);
        Vec3::new(
            w.x / self.lengths.x,
            w.y / self.lengths.y,
            w.z / self.lengths.z,
        )
    }

    /// The shortest half-edge; pair cutoffs must not exceed this for the
    /// minimum-image convention to be valid.
    pub(crate) fn min_half_edge(&self) -> f64 {
        0.5 * self.lengths.x.min(self.lengths.y).min(self.lengths.z)
    }
}

/// `d - l * round(d / l)` for `|d| <= l`, without the division: `d / l`
/// rounds to at least one half exactly when `d >= l / 2`.
#[inline]
fn nearest_image(d: f64, l: f64) -> f64 {
    let half = 0.5 * l;
    let images = if d >= half {
        1.0
    } else if d <= -half {
        -1.0
    } else {
        0.0_f64.copysign(d)
    };
    d - l * images
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume() {
        let b = PbcBox::new(10.0, 20.0, 5.0);
        assert_eq!(b.volume(), 1000.0);
    }

    #[test]
    fn min_image_within_half_box() {
        let b = PbcBox::new(10.0, 10.0, 10.0);
        let d = b.min_image(Vec3::new(9.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0));
        assert!((d.x - (-1.0)).abs() < 1e-12);
        // Component magnitudes never exceed half the box.
        for (a, c) in [(0.1, 9.9), (4.9, 5.1), (0.0, 5.0)] {
            let d = b.min_image(Vec3::splat(a), Vec3::splat(c));
            assert!(d.x.abs() <= 5.0 + 1e-12);
        }
    }

    #[test]
    fn min_image_by_comparison_is_the_division_and_round_form() {
        // Both sides of half a box and of a whole one, the zeros, and a
        // difference that leaves the fast path: the same bits, the sign
        // of a zero result included. (200 seeds and the whole myoglobin
        // list: tests/kernel_bit_identity.rs.)
        let b = PbcBox::new(64.0, 0.3, 47.9);
        let next = |x: f64| f64::from_bits(x.to_bits() + 1);
        let prev = |x: f64| f64::from_bits(x.to_bits() - 1);
        for c in 0..3 {
            let l = b.lengths[c];
            let h = 0.5 * l;
            for d in [
                0.0,
                1e-300,
                0.25 * l,
                prev(h),
                h,
                next(h),
                prev(l),
                l,
                next(l),
                2.5 * l,
            ] {
                for d in [d, -d] {
                    let mut a = Vec3::ZERO;
                    a[c] = d;
                    let (got, want) = (b.min_image(a, Vec3::ZERO), b.min_image_far(a));
                    for k in 0..3 {
                        assert_eq!(got[k].to_bits(), want[k].to_bits(), "d = {d:e} on axis {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn min_image_is_antisymmetric() {
        let b = PbcBox::new(8.0, 12.0, 9.0);
        let p = Vec3::new(7.3, 1.2, 8.8);
        let q = Vec3::new(0.4, 11.0, 0.3);
        let d1 = b.min_image(p, q);
        let d2 = b.min_image(q, p);
        assert!((d1 + d2).norm() < 1e-12);
    }

    #[test]
    fn wrap_into_primary_cell() {
        let b = PbcBox::new(10.0, 10.0, 10.0);
        let w = b.wrap(Vec3::new(-0.5, 10.5, 25.0));
        assert!((w.x - 9.5).abs() < 1e-12);
        assert!((w.y - 0.5).abs() < 1e-12);
        assert!((w.z - 5.0).abs() < 1e-12);
    }

    #[test]
    fn wrapping_does_not_change_distances() {
        let b = PbcBox::new(7.0, 9.0, 11.0);
        let p = Vec3::new(1.0, 2.0, 3.0);
        let q = Vec3::new(6.5, 8.5, 10.5);
        let d1 = b.distance(p, q);
        let d2 = b.distance(b.wrap(p + Vec3::new(7.0, -9.0, 22.0)), q);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn fractional_in_unit_interval() {
        let b = PbcBox::new(4.0, 5.0, 6.0);
        let f = b.fractional(Vec3::new(-1.0, 12.0, 3.0));
        for i in 0..3 {
            assert!((0.0..1.0).contains(&f[i]));
        }
        assert!((f.x - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_edge_rejected() {
        let _ = PbcBox::new(0.0, 1.0, 1.0);
    }
}

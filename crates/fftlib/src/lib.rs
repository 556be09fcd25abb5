//! # cpc-fft
//!
//! A from-scratch complex FFT library for the CHARMM-on-PC-clusters
//! reproduction. It provides everything the particle mesh Ewald (PME)
//! solver needs:
//!
//! * [`Complex64`] — a minimal double-precision complex type,
//! * [`FftPlan`] — reusable 1D plans (mixed-radix Cooley-Tukey for smooth
//!   sizes, Bluestein chirp-z for everything else),
//! * [`Fft3d`] / [`transform_axis`] — full 3D transforms and the axis-wise
//!   batch transforms used by the slab-decomposed parallel FFT,
//! * [`dft()`](dft())/[`idft`] — naive reference transforms for validation.
//!
//! The paper's myoglobin run uses an 80 x 36 x 48 charge grid; all three
//! extents are smooth, so the hot path is pure mixed-radix.
//!
//! ## Example
//!
//! ```
//! use cpc_fft::{Complex64, FftPlan};
//!
//! let plan = FftPlan::new(8);
//! let x = vec![Complex64::ONE; 8];
//! let mut y = vec![Complex64::ZERO; 8];
//! plan.forward(&x, &mut y);
//! assert!((y[0].re - 8.0).abs() < 1e-12); // DC bin holds the sum
//! ```

#![warn(missing_docs)]

mod bluestein;
pub mod complex;
pub mod dft;
pub mod fft3d;
pub mod plan;

pub use complex::Complex64;
pub use dft::{dft, idft};
pub use fft3d::{transform_axis, Axis, Dims3, Fft3d};
pub use plan::{factorize, flops_estimate, is_smooth, Direction, FftPlan, LANES};

//! Physical constants in the AKMA-flavoured unit system used throughout
//! the crate: length in Angstrom, energy in kcal/mol, mass in amu,
//! charge in elementary charges, time in picoseconds.

/// Coulomb constant `1/(4 pi eps0)` in kcal*A/(mol*e^2) (CHARMM value).
pub const COULOMB: f64 = 332.0637;

/// Boltzmann constant in kcal/(mol*K).
pub(crate) const K_BOLTZMANN: f64 = 0.001987191;

/// Conversion from force in kcal/(mol*A) over mass in amu to
/// acceleration in A/ps^2.
pub const ACCEL_CONV: f64 = 418.4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_in_expected_ranges() {
        assert!((COULOMB - 332.0637).abs() < 1e-6);
        assert!((K_BOLTZMANN - 0.0019872).abs() < 1e-5);
        // 1 kcal/mol/A on 1 amu = 4184 J/mol / (1e-10 m * 1.66054e-27 kg * 6.022e23)
        // = 4.184e16 m/s^2 = 418.4 A/ps^2.
        assert!((ACCEL_CONV - 418.4).abs() < 1e-9);
    }
}

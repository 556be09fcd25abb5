//! One source, two compilations: [`wide`] runs a lane kernel compiled
//! for AVX2 when the CPU has it, and the baseline compilation otherwise
//! (DESIGN.md §31).
//!
//! The choice is of instructions, never of values. The lane kernels do
//! only IEEE `+ - * /`, exact lane-wise at any vector width, and AVX2
//! brings no fused multiply-add, so both copies return the same bits. A
//! kernel gains only if the closure passed in and everything it calls
//! are `#[inline(always)]`: code left out of line stays baseline code.

/// Runs `f`, compiled for AVX2 when the CPU has it. The standard
/// library caches the CPU check, so it is made once per process. Pass
/// the kernel as `wide(#[inline(always)] || ..)`.
#[inline(always)]
pub fn wide<R>(f: impl FnOnce() -> R) -> R {
    match avx2_copy(f) {
        Ok(r) => r,
        Err(f) => f(),
    }
}

/// Whether [`wide`] runs the AVX2 copy on this CPU.
pub fn has_wide_lanes() -> bool {
    avx2_copy(|| ()).is_ok()
}

/// `Ok(f())` from the copy of `f` compiled for AVX2, or `f` handed back
/// when the CPU has no AVX2 (always, off x86-64).
#[inline(always)]
fn avx2_copy<R, F: FnOnce() -> R>(f: F) -> Result<R, F> {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2` enables AVX2 alone, and this CPU has it.
            return Ok(unsafe { avx2(f) });
        }
    }
    Err(f)
}

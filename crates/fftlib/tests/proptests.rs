//! Property-based tests of the FFT library: algebraic identities that
//! must hold for arbitrary sizes and inputs.

use cpc_fft::{dft, Complex64, Dims3, Fft3d, FftPlan};
use proptest::prelude::*;

fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(re, im)| Complex64::new(re, im))
            .collect()
    })
}

fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_for_arbitrary_sizes(x in arb_signal(160)) {
        let n = x.len();
        let plan = FftPlan::new(n);
        let mut spec = vec![Complex64::ZERO; n];
        let mut back = vec![Complex64::ZERO; n];
        plan.forward(&x, &mut spec);
        plan.inverse(&spec, &mut back);
        prop_assert!(max_err(&x, &back) < 1e-8 * (n as f64).max(1.0));
    }

    #[test]
    fn matches_naive_dft(x in arb_signal(64)) {
        let n = x.len();
        let plan = FftPlan::new(n);
        let mut got = vec![Complex64::ZERO; n];
        plan.forward(&x, &mut got);
        let want = dft(&x);
        prop_assert!(max_err(&got, &want) < 1e-8 * (n as f64).max(1.0));
    }

    #[test]
    fn linearity(pair in arb_signal(96).prop_flat_map(|x| {
        let n = x.len();
        (Just(x), arb_signal(n + 1).prop_filter("same length", move |y| y.len() == n))
    }), a in -3.0f64..3.0) {
        let (x, y) = pair;
        let n = x.len();
        let plan = FftPlan::new(n);
        let combo: Vec<Complex64> = x.iter().zip(&y).map(|(u, v)| *u * a + *v).collect();
        let mut fx = vec![Complex64::ZERO; n];
        let mut fy = vec![Complex64::ZERO; n];
        let mut fc = vec![Complex64::ZERO; n];
        plan.forward(&x, &mut fx);
        plan.forward(&y, &mut fy);
        plan.forward(&combo, &mut fc);
        let expect: Vec<Complex64> = fx.iter().zip(&fy).map(|(u, v)| *u * a + *v).collect();
        prop_assert!(max_err(&fc, &expect) < 1e-7 * (n as f64).max(1.0));
    }

    #[test]
    fn parseval(x in arb_signal(128)) {
        let n = x.len();
        let plan = FftPlan::new(n);
        let mut spec = vec![Complex64::ZERO; n];
        plan.forward(&x, &mut spec);
        let et: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ef: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((et - ef).abs() < 1e-8 * et.max(1.0));
    }

    #[test]
    fn shift_theorem(x in arb_signal(64), shift in 0usize..64) {
        // Circularly shifting the input multiplies the spectrum by a
        // phase of unit magnitude: |X_k| is shift invariant.
        let n = x.len();
        let shift = shift % n;
        let plan = FftPlan::new(n);
        let shifted: Vec<Complex64> = (0..n).map(|i| x[(i + shift) % n]).collect();
        let mut fx = vec![Complex64::ZERO; n];
        let mut fs = vec![Complex64::ZERO; n];
        plan.forward(&x, &mut fx);
        plan.forward(&shifted, &mut fs);
        for (a, b) in fx.iter().zip(&fs) {
            prop_assert!((a.abs() - b.abs()).abs() < 1e-8 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn fft3d_roundtrip(nx in 1usize..8, ny in 1usize..8, nz in 1usize..8, seed in 0u64..1000) {
        let dims = Dims3::new(nx, ny, nz);
        let mut state = seed | 1;
        let x: Vec<Complex64> = (0..dims.len()).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            Complex64::new(((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5, 0.3)
        }).collect();
        let fft = Fft3d::new(dims);
        let mut y = x.clone();
        fft.forward(&mut y);
        fft.inverse(&mut y);
        prop_assert!(max_err(&x, &y) < 1e-9 * (dims.len() as f64).max(1.0));
    }
}

//! Property-based tests for the slice and GEMM kernel invariants.

use fedhisyn_tensor::{axpy, dot, gemm, l2_norm, lerp, par_gemm, Tensor};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    // Bounded range keeps accumulated rounding error proportional to inputs.
    -100.0f32..100.0f32
}

fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

fn all_close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| close(x, y, tol))
}

proptest! {
    #[test]
    fn dot_is_symmetric(a in pvec(finite_f32(), 10), b in pvec(finite_f32(), 10)) {
        prop_assert!(close(dot(&a, &b), dot(&b, &a), 1e-5));
    }

    #[test]
    fn cauchy_schwarz(a in pvec(finite_f32(), 10), b in pvec(finite_f32(), 10)) {
        let d = dot(&a, &b).abs();
        let bound = l2_norm(&a) * l2_norm(&b);
        prop_assert!(d <= bound * (1.0 + 1e-4) + 1e-3, "{d} > {bound}");
    }

    #[test]
    fn axpy_zero_alpha_is_noop(x in pvec(finite_f32(), 10), y in pvec(finite_f32(), 10)) {
        let mut y2 = y.clone();
        axpy(0.0, &x, &mut y2);
        prop_assert_eq!(y2, y);
    }

    #[test]
    fn lerp_stays_in_segment(x in pvec(finite_f32(), 6), y in pvec(finite_f32(), 6), t in 0.0f32..=1.0) {
        let mut z = y.clone();
        lerp(&mut z, &x, t);
        for ((&zi, &xi), &yi) in z.iter().zip(&x).zip(&y) {
            let lo = xi.min(yi) - 1e-3;
            let hi = xi.max(yi) + 1e-3;
            prop_assert!(zi >= lo && zi <= hi, "{zi} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn gemm_identity_right(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let mut rng = fedhisyn_tensor::rng_from_seed(seed);
        let a = Tensor::randn(vec![rows, cols], 1.0, &mut rng);
        let mut eye = vec![0.0f32; cols * cols];
        for i in 0..cols { eye[i * cols + i] = 1.0; }
        let mut out = vec![0.0f32; rows * cols];
        par_gemm(a.data(), &eye, &mut out, rows, cols, cols, 1.0, 0.0);
        prop_assert!(all_close(&out, a.data(), 1e-5));
    }

    #[test]
    fn gemm_alpha_scales_the_product(seed in 0u64..1000, alpha in -5.0f32..5.0) {
        let mut rng = fedhisyn_tensor::rng_from_seed(seed);
        let a = Tensor::randn(vec![3, 4], 1.0, &mut rng);
        let b = Tensor::randn(vec![4, 2], 1.0, &mut rng);
        let mut lhs = vec![0.0f32; 6];
        gemm(a.data(), b.data(), &mut lhs, 3, 4, 2, alpha, 0.0);
        let mut rhs = vec![0.0f32; 6];
        gemm(a.data(), b.data(), &mut rhs, 3, 4, 2, 1.0, 0.0);
        let rhs: Vec<f32> = rhs.iter().map(|&x| alpha * x).collect();
        prop_assert!(all_close(&lhs, &rhs, 1e-3));
    }

    #[test]
    fn gemm_accumulates_with_beta_one(seed in 0u64..1000) {
        let mut rng = fedhisyn_tensor::rng_from_seed(seed);
        let a = Tensor::randn(vec![3, 3], 1.0, &mut rng);
        let b = Tensor::randn(vec![3, 3], 1.0, &mut rng);
        // C = A@B computed once with beta=0, then again accumulated on top:
        // result must be exactly 2 * (A@B).
        let mut c = vec![0.0f32; 9];
        gemm(a.data(), b.data(), &mut c, 3, 3, 3, 1.0, 0.0);
        let once = c.clone();
        gemm(a.data(), b.data(), &mut c, 3, 3, 3, 1.0, 1.0);
        let doubled: Vec<f32> = once.iter().map(|&x| 2.0 * x).collect();
        prop_assert!(all_close(&c, &doubled, 1e-5));
    }
}

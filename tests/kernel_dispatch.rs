//! Kernel-dispatch edge proof: the runtime-selected micro-kernel tiers
//! honour their determinism claims.
//!
//! The dispatch layer (`fedhisyn_tensor::dispatch`) promises:
//!
//! * `Scalar` (4×8) and `Avx2` (6×16) are **bit-identical** on every
//!   shape, orientation and α/β case — both follow the one GEMM contract
//!   (seed `β·c`, nothing read when β = 0; add `(α·a)·b` over `p = 0..k`
//!   in order; store), and the AVX2 tile vectorizes across columns with
//!   separate IEEE multiply and add, never across the reduction, so
//!   per-element operation order matches the scalar kernel exactly even
//!   though the tile geometry differs.
//! * The selection truth table: `FEDHISYN_FORCE_SCALAR` dominates, AVX2
//!   is the default on capable hosts.
//!
//! Shapes are generated across both tile geometries' remainder edges
//! (`m, n ∈ {1, MR−1, MR, MR+1, NR−1, NR, NR+1, …}` for MR ∈ {4, 6},
//! NR ∈ {8, 16}) plus a proptest sweep; the explicit-tier entry points
//! run the blocked path at every shape, so shapes the plain entry points
//! send to the streaming kernel (one or two rows or reduction steps)
//! still exercise the tile kernels. AVX2 comparisons are
//! skipped (not failed) on hosts without the feature — CI runs the whole
//! suite under both `FEDHISYN_FORCE_SCALAR=1` and default dispatch, so
//! the dispatched-path behaviour is covered end to end either way.

use fedhisyn::tensor::{
    finite_min_max, gemm_nt_with_tier, gemm_reference, gemm_tn_with_tier, gemm_with_tier,
    rng_from_seed, select_tier, KernelTier, Tensor,
};
use proptest::prelude::*;

fn random_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = rng_from_seed(seed);
    Tensor::randn(vec![1, n.max(1)], 1.0, &mut rng).into_vec()
}

/// All tile-remainder edges for both geometries, plus blocked-regime sizes.
const EDGE_DIMS: &[usize] = &[1, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33];

const AB_CASES: &[(f32, f32)] = &[(1.0, 0.0), (2.0, 0.5), (1.0, 1.0), (-0.5, 2.0)];

type TierKernel = fn(KernelTier, &[f32], &[f32], &mut [f32], usize, usize, usize, f32, f32);

/// Run one orientation through two tiers on identical operands and return
/// both outputs.
#[allow(clippy::too_many_arguments)]
fn run_pair(
    kernel: TierKernel,
    ta: KernelTier,
    tb: KernelTier,
    a: &[f32],
    b: &[f32],
    c0: &[f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) -> (Vec<f32>, Vec<f32>) {
    let mut ca = c0.to_vec();
    kernel(ta, a, b, &mut ca, m, k, n, alpha, beta);
    let mut cb = c0.to_vec();
    kernel(tb, a, b, &mut cb, m, k, n, alpha, beta);
    (ca, cb)
}

/// Operand triples for the three orientations at one logical shape.
fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    (
        random_vec(m * k, seed),     // A (nn/nt)
        random_vec(k * n, seed + 1), // B (nn/tn)
        random_vec(n * k, seed + 2), // Bᵀ (nt)
        random_vec(k * m, seed + 3), // Aᵀ (tn)
    )
}

/// Scalar ≡ AVX2 bit-identity across the full explicit edge lattice, all
/// three orientations, all α/β cases.
#[test]
fn scalar_and_avx2_are_bit_identical_on_tile_edges() {
    if !KernelTier::Avx2.available() {
        eprintln!("(host has no AVX2 — cross-tier identity check skipped)");
        return;
    }
    for &m in EDGE_DIMS {
        for &n in EDGE_DIMS {
            for &k in &[1usize, 5, 17] {
                for &(alpha, beta) in AB_CASES {
                    let seed = (m * 131 + n * 17 + k) as u64;
                    let (a, b, bt, at) = operands(m, k, n, seed);
                    let c0 = random_vec(m * n, seed + 4);
                    for (name, kernel, aa, bb) in [
                        ("gemm", gemm_with_tier as TierKernel, &a, &b),
                        ("gemm_nt", gemm_nt_with_tier as TierKernel, &a, &bt),
                        ("gemm_tn", gemm_tn_with_tier as TierKernel, &at, &b),
                    ] {
                        let (s, v) = run_pair(
                            kernel,
                            KernelTier::Scalar,
                            KernelTier::Avx2,
                            aa,
                            bb,
                            &c0,
                            m,
                            k,
                            n,
                            alpha,
                            beta,
                        );
                        assert_eq!(
                            s, v,
                            "{name} {m}x{k}x{n} α={alpha} β={beta}: scalar vs avx2 diverged"
                        );
                    }
                }
            }
        }
    }
}

/// The scalar tier itself is bit-identical to the naive reference on the
/// same lattice, in all three orientations — anchoring the cross-tier
/// chain to the executable spec. Covers `gemm_tn`'s stride-`m` A view and
/// the in-place B panel's partial tail at every `n mod 16`.
#[test]
fn scalar_tier_matches_naive_reference_on_tile_edges() {
    type Reference = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, f32, f32);
    for &m in EDGE_DIMS {
        for &n in EDGE_DIMS {
            for &k in &[1usize, 9, 50] {
                for &(alpha, beta) in AB_CASES {
                    let seed = (m * 73 + n * 29 + k) as u64;
                    let (a, b, bt, at) = operands(m, k, n, seed);
                    let c0 = random_vec(m * n, seed + 4);
                    for (name, reference, kernel, aa, bb) in [
                        (
                            "gemm",
                            gemm_reference::gemm as Reference,
                            gemm_with_tier as TierKernel,
                            &a,
                            &b,
                        ),
                        (
                            "gemm_nt",
                            gemm_reference::gemm_nt,
                            gemm_nt_with_tier,
                            &a,
                            &bt,
                        ),
                        (
                            "gemm_tn",
                            gemm_reference::gemm_tn,
                            gemm_tn_with_tier,
                            &at,
                            &b,
                        ),
                    ] {
                        let mut want = c0.clone();
                        reference(aa, bb, &mut want, m, k, n, alpha, beta);
                        let mut got = c0.clone();
                        kernel(KernelTier::Scalar, aa, bb, &mut got, m, k, n, alpha, beta);
                        assert_eq!(
                            got, want,
                            "{name} scalar tier vs reference {m}x{k}x{n} α={alpha} β={beta}"
                        );
                    }
                }
            }
        }
    }
}

/// The tier-selection truth table, end to end through the public pure
/// function (the env plumbing on top of it is covered by the CI matrix
/// running the whole suite under `FEDHISYN_FORCE_SCALAR=1`).
#[test]
fn tier_selection_truth_table() {
    for has_avx2 in [false, true] {
        assert_eq!(
            select_tier(true, has_avx2),
            KernelTier::Scalar,
            "force_scalar must dominate"
        );
    }
    assert_eq!(select_tier(false, false), KernelTier::Scalar);
    assert_eq!(select_tier(false, true), KernelTier::Avx2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized sweep over shapes straddling both tile geometries and
    /// the packing edges: scalar and AVX2 must agree bit-for-bit on all
    /// three orientations. The quantizer's range scan has no explicit-tier
    /// entry point, so its dispatched arm (scalar on one CI leg, AVX2 on
    /// the other) is held to `f32::total_cmp` over the finite elements,
    /// which is the order its docs promise, with non-finites and zeros of
    /// both signs planted at random positions.
    #[test]
    fn scalar_and_avx2_agree_on_random_shapes(
        m in 1usize..40,
        k in 1usize..48,
        n in 1usize..40,
        case in 0usize..4,
        seed in 0u64..10_000,
        scan_len in 0usize..=600,
        planted in 0usize..32,
    ) {
        let mut xs = random_vec(scan_len, seed + 5);
        xs.truncate(scan_len);
        for j in 0..planted.min(scan_len) {
            let at = (seed as usize).wrapping_mul(31).wrapping_add(j * 7919) % scan_len;
            xs[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0][(at + j) % 5];
        }
        let finite = || xs.iter().copied().filter(|x| x.is_finite());
        let want = finite()
            .min_by(f32::total_cmp)
            .zip(finite().max_by(f32::total_cmp))
            .map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        let got = finite_min_max(&xs).map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        prop_assert_eq!(got, want, "finite_min_max, len {}, {} planted", scan_len, planted);

        if !KernelTier::Avx2.available() {
            return Ok(());
        }
        let (alpha, beta) = AB_CASES[case];
        let (a, b, bt, at) = operands(m, k, n, seed);
        let c0 = random_vec(m * n, seed + 4);
        for (name, kernel, aa, bb) in [
            ("gemm", gemm_with_tier as TierKernel, &a, &b),
            ("gemm_nt", gemm_nt_with_tier as TierKernel, &a, &bt),
            ("gemm_tn", gemm_tn_with_tier as TierKernel, &at, &b),
        ] {
            let (s, v) = run_pair(
                kernel, KernelTier::Scalar, KernelTier::Avx2,
                aa, bb, &c0, m, k, n, alpha, beta,
            );
            prop_assert_eq!(s, v, "{} {}x{}x{} α={} β={}", name, m, k, n, alpha, beta);
        }
    }
}

//! Runtime CPU-feature dispatch for the GEMM micro-kernels.
//!
//! The blocked GEMM drivers in [`crate::gemm`] run one register-tiled
//! micro-kernel over packed p-major panels. Which micro-kernel — and which
//! tile geometry — is decided **once per process** from the host CPU:
//!
//! | tier       | tile (`MR×NR`) | inner loop                  | bit-identical |
//! |------------|----------------|-----------------------------|---------------|
//! | `Scalar`   | 4×8            | auto-vectorized mul+add     | yes (reference) |
//! | `Avx2`     | 6×16           | `_mm256_mul_ps`/`add_ps`    | yes           |
//! | `Avx2Fma`  | 6×16           | `_mm256_fmadd_ps`           | **no** (fused rounding) |
//!
//! Every tier accumulates each output element over the reduction dimension
//! in the same `p = 0..k` order, and the non-FMA tiers use plain IEEE-754
//! `f32` multiply and add — so `Scalar` and `Avx2` produce **bit-identical
//! results** on every shape, α/β case and thread count (the tile geometry
//! only changes which elements are computed together, never the per-element
//! operation sequence). `Avx2Fma` contracts each multiply-add into a single
//! rounding, which is *more* accurate but not bit-equal; it therefore ships
//! opt-in (see below) and the workspace-wide bit-determinism contract only
//! covers the default tiers.
//!
//! # Selection
//!
//! * `FEDHISYN_FORCE_SCALAR=1` pins the scalar tier — the escape hatch for
//!   debugging a suspected kernel issue or reproducing results from a
//!   non-AVX2 host bit-for-bit.
//! * `FEDHISYN_ENABLE_FMA=1` opts into the FMA tier where the CPU supports
//!   it (results become target-dependent; see above).
//! * Otherwise the best available non-FMA tier is used: `Avx2` when the
//!   CPU reports AVX2, else `Scalar`.
//!
//! The decision is cached in a `OnceLock` at first kernel use; the env
//! variables are read exactly once. [`select_tier`] is the pure decision
//! function, kept separate so the truth table is unit-testable without
//! mutating process environment.

use std::sync::OnceLock;

/// The micro-kernel families the runtime dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Portable 4×8 tile relying on LLVM auto-vectorization at the baseline
    /// target. The executable reference every other tier is proven against.
    Scalar,
    /// Hand-written AVX2 6×16 tile with separate multiply and add —
    /// bit-identical to `Scalar` by construction.
    Avx2,
    /// AVX2 6×16 tile with fused multiply-add. Faster and more accurate,
    /// but fused contraction changes rounding: **not** bit-identical.
    Avx2Fma,
}

impl KernelTier {
    /// Stable lowercase name for logs / bench reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx2Fma => "avx2_fma",
        }
    }

    /// Whether this tier's results are bit-identical to the scalar
    /// reference kernels (the workspace determinism contract).
    pub fn bit_identical(self) -> bool {
        !matches!(self, KernelTier::Avx2Fma)
    }

    /// Whether the host CPU can execute this tier.
    pub fn available(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            KernelTier::Avx2 => cpu_has_avx2(),
            KernelTier::Avx2Fma => cpu_has_avx2() && cpu_has_fma(),
        }
    }

    /// Register-tile geometry `(MR, NR)` of this tier's micro-kernel.
    pub(crate) fn tile(self) -> (usize, usize) {
        match self {
            KernelTier::Scalar => (crate::gemm::SCALAR_MR, crate::gemm::SCALAR_NR),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 | KernelTier::Avx2Fma => {
                (crate::gemm_avx2::MR_AVX2, crate::gemm_avx2::NR_AVX2)
            }
            #[cfg(not(target_arch = "x86_64"))]
            KernelTier::Avx2 | KernelTier::Avx2Fma => {
                (crate::gemm::SCALAR_MR, crate::gemm::SCALAR_NR)
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
fn cpu_has_fma() -> bool {
    is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_avx2() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_fma() -> bool {
    false
}

/// True when the env var is set to an affirmative value. Explicit
/// negatives (`0`, `false`, `no`, `off`, empty) are false — so
/// `FEDHISYN_ENABLE_FMA=false` documents FMA as disabled instead of
/// silently enabling it.
fn env_truthy(name: &str) -> bool {
    std::env::var(name)
        .map(|v| {
            !matches!(
                v.to_ascii_lowercase().as_str(),
                "" | "0" | "false" | "no" | "off"
            )
        })
        .unwrap_or(false)
}

/// The pure tier-selection truth table (see the module docs). `Scalar`
/// always wins under `force_scalar` or without AVX2; FMA requires both the
/// explicit request and hardware support.
pub fn select_tier(
    force_scalar: bool,
    fma_requested: bool,
    has_avx2: bool,
    has_fma: bool,
) -> KernelTier {
    if force_scalar || !has_avx2 {
        KernelTier::Scalar
    } else if fma_requested && has_fma {
        KernelTier::Avx2Fma
    } else {
        KernelTier::Avx2
    }
}

/// The tier every public GEMM entry point dispatches to, decided once per
/// process (env + CPUID) and cached.
pub fn active_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        select_tier(
            env_truthy("FEDHISYN_FORCE_SCALAR"),
            env_truthy("FEDHISYN_ENABLE_FMA"),
            cpu_has_avx2(),
            cpu_has_fma(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_truth_table() {
        // force_scalar dominates everything.
        for &(fma_req, avx2, fma) in &[
            (false, false, false),
            (true, true, true),
            (false, true, true),
            (true, false, false),
        ] {
            assert_eq!(select_tier(true, fma_req, avx2, fma), KernelTier::Scalar);
        }
        // No AVX2 → scalar, regardless of the FMA request.
        assert_eq!(select_tier(false, false, false, false), KernelTier::Scalar);
        assert_eq!(select_tier(false, true, false, true), KernelTier::Scalar);
        // AVX2 without the FMA request (or without FMA hardware) → Avx2.
        assert_eq!(select_tier(false, false, true, true), KernelTier::Avx2);
        assert_eq!(select_tier(false, true, true, false), KernelTier::Avx2);
        // FMA requires request AND hardware.
        assert_eq!(select_tier(false, true, true, true), KernelTier::Avx2Fma);
    }

    #[test]
    fn env_truthy_rejects_explicit_negatives() {
        assert!(!env_truthy("FEDHISYN_TEST_TRUTHY_UNSET"));
        for (value, want) in [
            ("false", false),
            ("False", false),
            ("NO", false),
            ("off", false),
            ("0", false),
            ("", false),
            ("1", true),
            ("true", true),
            ("yes", true),
            ("on", true),
        ] {
            std::env::set_var("FEDHISYN_TEST_TRUTHY", value);
            assert_eq!(env_truthy("FEDHISYN_TEST_TRUTHY"), want, "value {value:?}");
        }
        std::env::remove_var("FEDHISYN_TEST_TRUTHY");
    }

    #[test]
    fn tier_metadata_is_consistent() {
        assert!(KernelTier::Scalar.available());
        assert!(KernelTier::Scalar.bit_identical());
        assert!(KernelTier::Avx2.bit_identical());
        assert!(!KernelTier::Avx2Fma.bit_identical());
        assert_eq!(KernelTier::Scalar.name(), "scalar");
        assert_eq!(KernelTier::Avx2.name(), "avx2");
        assert_eq!(KernelTier::Avx2Fma.name(), "avx2_fma");
        // FMA availability implies AVX2 availability on every real CPU this
        // runs on (FMA3 postdates AVX2 in practice for our detection pair).
        if KernelTier::Avx2Fma.available() {
            assert!(KernelTier::Avx2.available());
        }
        // The active tier must be executable and must match the tile
        // geometry contract: scalar 4×8, AVX2 6×16.
        let tier = active_tier();
        assert!(tier.available());
        let (mr, nr) = tier.tile();
        match tier {
            KernelTier::Scalar => assert_eq!((mr, nr), (4, 8)),
            KernelTier::Avx2 | KernelTier::Avx2Fma => assert_eq!((mr, nr), (6, 16)),
        }
    }
}

//! Runtime CPU-feature dispatch for the GEMM micro-kernels.
//!
//! The blocked GEMM path of every entry point ([`crate::gemm()`],
//! [`crate::gemm_nt`], [`crate::gemm_tn`] and their `par_*` and
//! `*_with_tier` forms) runs one register-tiled micro-kernel that reads A
//! and B where they lie, through strided views (only `gemm_nt`'s
//! transposed B is packed). Which micro-kernel — and which tile geometry —
//! is decided **once per process** from the host CPU:
//!
//! | tier       | tile (`MR×NR`) | inner loop                  |
//! |------------|----------------|-----------------------------|
//! | `Scalar`   | 4×8            | auto-vectorized mul+add     |
//! | `Avx2`     | 6×16           | `_mm256_mul_ps`/`add_ps`    |
//!
//! Both tiers compute each output element by the one GEMM contract — seed
//! `β·c` (nothing read when β = 0), add `(α·a)·b` over `p = 0..k` in order,
//! store — with plain IEEE-754 `f32` multiply and add (no fused
//! contraction anywhere), so they produce **bit-identical results** on
//! every shape, orientation, α/β case and thread count (the tile geometry
//! only changes which elements are computed together, never the per-element
//! operation sequence). The workspace-wide bit-determinism contract covers
//! every tier there is.
//!
//! # Selection
//!
//! * `FEDHISYN_FORCE_SCALAR=1` pins the scalar tier — the escape hatch for
//!   debugging a suspected kernel issue, and the switch CI uses to run the
//!   scalar arms on an AVX2 host.
//! * Otherwise `Avx2` when the CPU reports AVX2, else `Scalar`.
//!
//! The decision is cached in a `OnceLock` at first kernel use; the env
//! variable is read exactly once. [`select_tier`] is the pure decision
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
}

impl KernelTier {
    /// Stable lowercase name for logs / bench reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
        }
    }

    /// Whether the host CPU can execute this tier.
    pub fn available(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            KernelTier::Avx2 => cpu_has_avx2(),
        }
    }

    /// Register-tile geometry `(MR, NR)` of this tier's micro-kernel.
    pub(crate) fn tile(self) -> (usize, usize) {
        match self {
            KernelTier::Scalar => (crate::gemm::SCALAR_MR, crate::gemm::SCALAR_NR),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => (crate::gemm_avx2::MR_AVX2, crate::gemm_avx2::NR_AVX2),
            #[cfg(not(target_arch = "x86_64"))]
            KernelTier::Avx2 => (crate::gemm::SCALAR_MR, crate::gemm::SCALAR_NR),
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_avx2() -> bool {
    false
}

/// True when the env var is set to an affirmative value. Explicit
/// negatives (`0`, `false`, `no`, `off`, empty) are false — so
/// `FEDHISYN_FORCE_SCALAR=0` names the dispatched leg instead of
/// silently pinning the scalar one.
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

/// The pure tier-selection truth table (see the module docs): `Scalar`
/// under `force_scalar` or without AVX2, `Avx2` otherwise.
pub fn select_tier(force_scalar: bool, has_avx2: bool) -> KernelTier {
    if force_scalar || !has_avx2 {
        KernelTier::Scalar
    } else {
        KernelTier::Avx2
    }
}

/// The tier every public GEMM entry point dispatches to, decided once per
/// process (env + CPUID) and cached.
pub fn active_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| select_tier(env_truthy("FEDHISYN_FORCE_SCALAR"), cpu_has_avx2()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_truth_table() {
        // force_scalar dominates; without it the CPU decides.
        assert_eq!(select_tier(true, false), KernelTier::Scalar);
        assert_eq!(select_tier(true, true), KernelTier::Scalar);
        assert_eq!(select_tier(false, false), KernelTier::Scalar);
        assert_eq!(select_tier(false, true), KernelTier::Avx2);
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
        assert_eq!(KernelTier::Scalar.name(), "scalar");
        assert_eq!(KernelTier::Avx2.name(), "avx2");
        // The active tier must be executable and must match the tile
        // geometry contract: scalar 4×8, AVX2 6×16.
        let tier = active_tier();
        assert!(tier.available());
        let (mr, nr) = tier.tile();
        match tier {
            KernelTier::Scalar => assert_eq!((mr, nr), (4, 8)),
            KernelTier::Avx2 => assert_eq!((mr, nr), (6, 16)),
        }
    }
}

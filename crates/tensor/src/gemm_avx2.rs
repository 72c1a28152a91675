//! Hand-written AVX2 `6×16` GEMM micro-kernel.
//!
//! The kernel computes one `rows×cols` corner (`rows ≤ 6`, `cols ≤ 16`)
//! of a C tile from the same packed p-major panels the scalar kernel
//! consumes (`apack[p·6 + r]`, `bpack[p·16 + j]`, zero-padded past the
//! edge). The accumulator block is six rows of two `__m256` registers —
//! 12 accumulator registers plus two B lanes and one A broadcast, fitting
//! the 16-register ymm file.
//!
//! # Bit-identity
//!
//! [`tile_avx2`] performs, per output element, exactly the operation
//! sequence of the scalar micro-kernel: an optional `β·c` seed (one IEEE
//! `f32` multiply), then one multiply **and one separate add** per
//! reduction step, in the same `p = 0..k` order (vector lanes vectorize
//! across *columns*, never across the reduction), and the same α/β
//! placement per [`Accum`] mode on store. `_mm256_mul_ps` /
//! `_mm256_add_ps` are lane-wise IEEE-754 single ops, so every element is
//! bit-identical to the scalar tier — `tests/kernel_dispatch.rs` proves it
//! property-based across shapes, orientations and α/β cases.
//!
//! There is deliberately no fused-multiply-add variant: `_mm256_fmadd_ps`
//! rounds once per step instead of twice, which is not bit-equal to the
//! scalar tier and so falls outside the determinism contract.
//!
//! # Safety
//!
//! The function is `#[target_feature]`-gated and must only be called
//! after the corresponding CPUID check ([`crate::KernelTier::available`]);
//! the dispatcher ([`crate::active_tier`]) guarantees that.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use crate::gemm::Accum;

/// Rows per AVX2 register tile.
pub(crate) const MR_AVX2: usize = 6;
/// Columns per AVX2 register tile (two `__m256` vectors).
pub(crate) const NR_AVX2: usize = 16;

/// One `rows×cols` corner of a C tile from packed panels (module docs).
///
/// # Safety
///
/// The CPU must support AVX2 — call only after
/// [`crate::KernelTier::available`] said so for [`crate::KernelTier::Avx2`].
#[allow(clippy::too_many_arguments)] // BLAS-style internals
#[allow(clippy::needless_range_loop)] // fixed-bound register lattice
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn tile_avx2(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    row0: usize,
    col0: usize,
    n: usize,
    rows: usize,
    cols: usize,
    k: usize,
    mode: Accum,
) {
    debug_assert!((1..=MR_AVX2).contains(&rows) && (1..=NR_AVX2).contains(&cols));
    debug_assert!(apack.len() >= k * MR_AVX2 && bpack.len() >= k * NR_AVX2);
    let full = cols == NR_AVX2;
    let mut tmp = [0.0f32; NR_AVX2];
    let mut acc = [[_mm256_setzero_ps(); 2]; MR_AVX2];

    // Seed `acc = β·c` for the gemm/gemm_tn flavour (β·c is one
    // IEEE multiply per element, exactly like the scalar kernel;
    // lanes past `cols` seed from zero and are never stored).
    if let Accum::SeededByBeta { beta } = mode {
        if beta != 0.0 {
            let bv = _mm256_set1_ps(beta);
            for r in 0..rows {
                let base = (row0 + r) * n + col0;
                let (lo, hi) = if full {
                    (
                        _mm256_loadu_ps(c.as_ptr().add(base)),
                        _mm256_loadu_ps(c.as_ptr().add(base + 8)),
                    )
                } else {
                    tmp.fill(0.0);
                    tmp[..cols].copy_from_slice(&c[base..base + cols]);
                    (
                        _mm256_loadu_ps(tmp.as_ptr()),
                        _mm256_loadu_ps(tmp.as_ptr().add(8)),
                    )
                };
                acc[r][0] = _mm256_mul_ps(bv, lo);
                acc[r][1] = _mm256_mul_ps(bv, hi);
            }
        }
    }

    // The reduction: terms added in `p` order for every element —
    // the determinism contract shared with the scalar tier.
    let ap = apack.as_ptr();
    let bp = bpack.as_ptr();
    for p in 0..k {
        let b0 = _mm256_loadu_ps(bp.add(p * NR_AVX2));
        let b1 = _mm256_loadu_ps(bp.add(p * NR_AVX2 + 8));
        for r in 0..MR_AVX2 {
            let a = _mm256_set1_ps(*ap.add(p * MR_AVX2 + r));
            acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(a, b0));
            acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(a, b1));
        }
    }

    match mode {
        // A panels carried the α pre-scale; store the accumulators.
        Accum::SeededByBeta { .. } => {
            for r in 0..rows {
                let base = (row0 + r) * n + col0;
                if full {
                    _mm256_storeu_ps(c.as_mut_ptr().add(base), acc[r][0]);
                    _mm256_storeu_ps(c.as_mut_ptr().add(base + 8), acc[r][1]);
                } else {
                    _mm256_storeu_ps(tmp.as_mut_ptr(), acc[r][0]);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc[r][1]);
                    c[base..base + cols].copy_from_slice(&tmp[..cols]);
                }
            }
        }
        // The gemm_nt flavour: `c = α·Σ + β·c` applied on store
        // (`α·Σ` alone when β = 0), matching the scalar kernel's
        // operation order exactly.
        Accum::ScaledOnStore { alpha, beta } => {
            let av = _mm256_set1_ps(alpha);
            for r in 0..rows {
                let base = (row0 + r) * n + col0;
                let lo = _mm256_mul_ps(av, acc[r][0]);
                let hi = _mm256_mul_ps(av, acc[r][1]);
                if beta == 0.0 {
                    if full {
                        _mm256_storeu_ps(c.as_mut_ptr().add(base), lo);
                        _mm256_storeu_ps(c.as_mut_ptr().add(base + 8), hi);
                    } else {
                        _mm256_storeu_ps(tmp.as_mut_ptr(), lo);
                        _mm256_storeu_ps(tmp.as_mut_ptr().add(8), hi);
                        c[base..base + cols].copy_from_slice(&tmp[..cols]);
                    }
                } else if full {
                    let bv = _mm256_set1_ps(beta);
                    let c0 = _mm256_loadu_ps(c.as_ptr().add(base));
                    let c1 = _mm256_loadu_ps(c.as_ptr().add(base + 8));
                    _mm256_storeu_ps(
                        c.as_mut_ptr().add(base),
                        _mm256_add_ps(lo, _mm256_mul_ps(bv, c0)),
                    );
                    _mm256_storeu_ps(
                        c.as_mut_ptr().add(base + 8),
                        _mm256_add_ps(hi, _mm256_mul_ps(bv, c1)),
                    );
                } else {
                    _mm256_storeu_ps(tmp.as_mut_ptr(), lo);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(8), hi);
                    let crow = &mut c[base..base + cols];
                    for (j, cv) in crow.iter_mut().enumerate() {
                        *cv = tmp[j] + beta * *cv;
                    }
                }
            }
        }
    }
}

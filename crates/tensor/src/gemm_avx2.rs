//! Hand-written AVX2 `6×16` GEMM micro-kernel.
//!
//! The kernel computes one `rows×cols` corner (`rows ≤ 6`, `cols ≤ 16`)
//! of a C tile from the same operand views the scalar kernel reads
//! ([`Operands`]): each step `p` loads one 16-lane row of the B
//! panel — with `_mm256_maskload_ps` when the panel has fewer real lanes,
//! so lanes past the edge read 0 — and broadcasts six A elements, one per
//! tile row. The accumulator block is six rows of two `__m256` registers —
//! 12 accumulator registers plus two B lanes and one A broadcast, fitting
//! the 16-register ymm file.
//!
//! # Bit-identity
//!
//! [`tile_avx2`] performs, per output element, exactly the operation
//! sequence of the scalar micro-kernel — the one GEMM contract: a `β·c`
//! seed (one IEEE `f32` multiply; nothing read when β = 0), then one
//! multiply **and one separate add** per reduction step, in the same
//! `p = 0..k` order (vector lanes vectorize across *columns*, never across
//! the reduction), and a plain store. `_mm256_mul_ps` /
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
//! the dispatcher ([`crate::active_tier`]) guarantees that. Its loads are
//! unchecked: the GEMM driver asserts once per serial call, and once per
//! parallel band, that both views stay inside their slices.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use crate::gemm::Operands;

/// Rows per AVX2 register tile.
pub(crate) const MR_AVX2: usize = 6;
/// Columns per AVX2 register tile (two `__m256` vectors).
pub(crate) const NR_AVX2: usize = 16;

/// One `rows×cols` corner of a C tile from the operand views (module
/// docs).
///
/// # Safety
///
/// The CPU must support AVX2 — call only after
/// [`crate::KernelTier::available`] said so for [`crate::KernelTier::Avx2`]
/// — and both views must be in bounds for this tile's rows, columns and
/// `k` steps.
#[allow(clippy::too_many_arguments)] // BLAS-style internals
#[allow(clippy::needless_range_loop)] // fixed-bound register lattice
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn tile_avx2(
    ops: &Operands,
    c: &mut [f32],
    row0: usize,
    col0: usize,
    n: usize,
    rows: usize,
    cols: usize,
    k: usize,
    beta: f32,
) {
    debug_assert!((1..=MR_AVX2).contains(&rows) && (1..=NR_AVX2).contains(&cols));
    let full = cols == NR_AVX2;
    // One row of C as two vectors, and back. A partial tile goes through a
    // zeroed buffer: lanes past `cols` read 0 and are never written back.
    let load = |c: &[f32], base: usize| {
        let mut tmp = [0.0f32; NR_AVX2];
        let row = if full {
            &c[base..base + NR_AVX2]
        } else {
            tmp[..cols].copy_from_slice(&c[base..base + cols]);
            &tmp[..]
        };
        (
            _mm256_loadu_ps(row.as_ptr()),
            _mm256_loadu_ps(row.as_ptr().add(8)),
        )
    };
    let store = |c: &mut [f32], base: usize, lo: __m256, hi: __m256| {
        let mut tmp = [0.0f32; NR_AVX2];
        let row = if full {
            &mut c[base..base + NR_AVX2]
        } else {
            &mut tmp[..]
        };
        _mm256_storeu_ps(row.as_mut_ptr(), lo);
        _mm256_storeu_ps(row.as_mut_ptr().add(8), hi);
        if !full {
            c[base..base + cols].copy_from_slice(&tmp[..cols]);
        }
    };
    let mut acc = [[_mm256_setzero_ps(); 2]; MR_AVX2];

    // Seed `acc = β·c` (one IEEE multiply per element, exactly like the
    // scalar kernel).
    if beta != 0.0 {
        let bv = _mm256_set1_ps(beta);
        for r in 0..rows {
            let (lo, hi) = load(c, (row0 + r) * n + col0);
            acc[r][0] = _mm256_mul_ps(bv, lo);
            acc[r][1] = _mm256_mul_ps(bv, hi);
        }
    }

    reduce(ops, &mut acc, row0, rows, col0, cols, k);

    for r in 0..rows {
        store(c, (row0 + r) * n + col0, acc[r][0], acc[r][1]);
    }
}

/// The reduction of one tile: `acc[r] += a·b` for `p = 0..k`, terms added
/// in `p` order for every element — the determinism contract shared with
/// the scalar tier. Kept out of line so the loop owns the register file:
/// inlined into [`tile_avx2`], LLVM spilled one accumulator to the stack,
/// a load and a store on every step.
///
/// # Safety
///
/// As [`tile_avx2`].
#[inline(never)]
#[target_feature(enable = "avx2")]
unsafe fn reduce(
    ops: &Operands,
    acc: &mut [[__m256; 2]; MR_AVX2],
    row0: usize,
    rows: usize,
    col0: usize,
    cols: usize,
    k: usize,
) {
    let arow = ops.a_rows::<MR_AVX2>(row0, rows);
    let mut step = |p: usize, b0: __m256, b1: __m256| {
        for r in 0..MR_AVX2 {
            let a = _mm256_set1_ps(*ops.a.get_unchecked(arow[r] + p * ops.ps));
            acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(a, b0));
            acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(a, b1));
        }
    };
    let (boff, lanes) = ops.b_panel(col0, cols, NR_AVX2);
    let brow = |p: usize| ops.b.as_ptr().add(boff + p * ops.stride);
    if lanes == NR_AVX2 {
        for p in 0..k {
            step(p, _mm256_loadu_ps(brow(p)), _mm256_loadu_ps(brow(p).add(8)));
        }
    } else {
        // A panel with fewer than 16 lanes loads them masked: masked-off
        // lanes read 0 and touch no memory, and the high half starts no
        // further than one past the panel's last lane.
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask_lo = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), lane);
        let mask_hi = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32 - 8), lane);
        let hi = lanes.min(8);
        for p in 0..k {
            let b0 = _mm256_maskload_ps(brow(p), mask_lo);
            step(p, b0, _mm256_maskload_ps(brow(p).add(hi), mask_hi));
        }
    }
}

//! GEMM kernels in the three orientations required by backpropagation.
//!
//! * `gemm`    — `C = α·A·B + β·C` with `A:[m,k]`, `B:[k,n]` (forward pass)
//! * `gemm_nt` — `C = α·A·Bᵀ + β·C` with `A:[m,k]`, `B:[n,k]` (input grads)
//! * `gemm_tn` — `C = α·Aᵀ·B + β·C` with `A:[k,m]`, `B:[k,n]` (weight grads)
//!
//! # Blocked micro-kernel, runtime-dispatched
//!
//! All three orientations are computed by one register-tiled micro-kernel
//! over `MR×NR` output panels. A and B are first repacked into p-major
//! panels (`apack[p·MR + r]`, `bpack[p·NR + j]`) so the inner loop streams
//! both operands contiguously; the packing cost is `O(mk + kn)` against
//! `O(mkn)` arithmetic. Pack buffers live in thread-local pools (checked
//! out per call, returned after), so steady-state kernels perform **no
//! heap allocation**. Problems under [`BLOCKED_MIN_FLOPS`] skip packing
//! and run a streaming scalar kernel.
//!
//! **Which** micro-kernel runs — and with which tile geometry — is decided
//! once per process by [`crate::dispatch`]: the portable scalar `4×8`
//! lattice (LLVM auto-vectorized at the baseline target) or a
//! hand-written AVX2 `6×16` tile. `FEDHISYN_FORCE_SCALAR=1` pins the
//! scalar tier.
//!
//! # Determinism invariants
//!
//! Every path — naive reference, small scalar, blocked serial, blocked
//! parallel, scalar or AVX2 tier, any thread count — accumulates each
//! output element in the **same order**: `p = 0..k` sequentially, with
//! identical α/β placement per orientation (`gemm`/`gemm_tn` start from
//! the β-scaled output and add `(α·a)·b` terms; `gemm_nt` sums raw `a·b`
//! products and applies `α·Σ + β·c` once). Blocking tiles only `m` and
//! `n`, never the reduction dimension; parallelism splits rows of `C`; and
//! the AVX2 tile vectorizes across columns with separate IEEE multiply and
//! add — so results are bit-identical everywhere. The [`reference`] module keeps the
//! naive triple-loop kernels as the executable statement of that contract;
//! the equivalence tests assert exact equality against them.
//!
//! [`par_gemm`], [`par_gemm_nt`] and [`par_gemm_tn`] fan out across the
//! rayon pool above a FLOP threshold and fall back to the serial kernels
//! below it.

use std::cell::Cell;

use rayon::prelude::*;

use crate::dispatch::{active_tier, KernelTier};

/// Minimum number of `m·k·n` multiply-adds before the parallel entry
/// points fan out to the rayon pool; below this the fork/join overhead
/// dominates.
const PAR_FLOP_THRESHOLD: usize = 1 << 18;

/// Minimum number of multiply-adds before the packed blocked kernel pays
/// for itself; smaller problems run the streaming scalar kernels (which
/// produce bit-identical results — see the module docs).
const BLOCKED_MIN_FLOPS: usize = 1 << 13;

/// Rows per scalar-tier register tile.
pub(crate) const SCALAR_MR: usize = 4;
/// Columns per scalar-tier register tile (two SSE / one AVX `f32` vector).
pub(crate) const SCALAR_NR: usize = 8;

thread_local! {
    /// Per-thread pack-buffer pools, checked out per kernel invocation so
    /// re-entrant calls (pool work-helping) never alias a buffer in use.
    static PACK_A: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    static PACK_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Naive triple-loop kernels — the executable specification the optimized
/// paths are proven against.
///
/// Each element is accumulated over `p = 0..k` in order, exactly like the
/// blocked kernels; these exist so the equivalence tests (and the GEMM
/// micro-benchmark) have an obviously-correct, obviously-ordered baseline.
pub mod reference {
    /// Specification of [`super::gemm`].
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        beta: f32,
    ) {
        for i in 0..m {
            for j in 0..n {
                let cv = &mut c[i * n + j];
                let mut acc = if beta == 0.0 { 0.0 } else { beta * *cv };
                for p in 0..k {
                    acc += (alpha * a[i * k + p]) * b[p * n + j];
                }
                *cv = acc;
            }
        }
    }

    /// Specification of [`super::gemm_nt`] (`B` is `[n, k]`).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_nt(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        beta: f32,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[j * k + p];
                }
                let cv = &mut c[i * n + j];
                *cv = if beta == 0.0 {
                    alpha * acc
                } else {
                    alpha * acc + beta * *cv
                };
            }
        }
    }

    /// Specification of [`super::gemm_tn`] (`A` is `[k, m]`).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_tn(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        alpha: f32,
        beta: f32,
    ) {
        for i in 0..m {
            for j in 0..n {
                let cv = &mut c[i * n + j];
                let mut acc = if beta == 0.0 { 0.0 } else { beta * *cv };
                for p in 0..k {
                    acc += (alpha * a[p * m + i]) * b[p * n + j];
                }
                *cv = acc;
            }
        }
    }
}

// ---- pack-buffer checkout ------------------------------------------------

#[inline]
fn checkout_a() -> Vec<f32> {
    PACK_A.with(Cell::take)
}

#[inline]
fn checkin_a(buf: Vec<f32>) {
    PACK_A.with(|c| c.set(buf));
}

#[inline]
fn checkout_b() -> Vec<f32> {
    PACK_B.with(Cell::take)
}

#[inline]
fn checkin_b(buf: Vec<f32>) {
    PACK_B.with(|c| c.set(buf));
}

// ---- panel packing -------------------------------------------------------
//
// Packing is tier-geometry-parameterized but always scalar code: the packed
// values (including the α pre-scale) are produced identically for every
// tier, which is one leg of the cross-tier bit-identity argument.

/// Pack columns `j0..j0+w` of row-major `B:[k,n]` into a p-major `[k, nr]`
/// panel, zero-padding lanes past `w`.
fn pack_b_n(b: &[f32], k: usize, n: usize, j0: usize, w: usize, nr: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), k * nr);
    for p in 0..k {
        let brow = &b[p * n + j0..p * n + j0 + w];
        let dst = &mut out[p * nr..(p + 1) * nr];
        dst[..w].copy_from_slice(brow);
        dst[w..].fill(0.0);
    }
}

/// Pack rows `j0..j0+w` of row-major `B:[n,k]` (the transposed operand of
/// `gemm_nt`) into a p-major `[k, nr]` panel.
fn pack_b_t(b: &[f32], k: usize, j0: usize, w: usize, nr: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), k * nr);
    for chunk in out.chunks_exact_mut(nr) {
        chunk.fill(0.0);
    }
    for (j, brow) in b[j0 * k..(j0 + w) * k].chunks_exact(k).enumerate() {
        for (p, &v) in brow.iter().enumerate() {
            out[p * nr + j] = v;
        }
    }
}

/// Pack rows `i0..i0+h` of row-major `A:[m,k]` into a p-major `[k, mr]`
/// panel, pre-scaled by `alpha`.
fn pack_a_n(a: &[f32], k: usize, i0: usize, h: usize, alpha: f32, mr: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), k * mr);
    for chunk in out.chunks_exact_mut(mr) {
        chunk.fill(0.0);
    }
    for (r, arow) in a[i0 * k..(i0 + h) * k].chunks_exact(k).enumerate() {
        for (p, &v) in arow.iter().enumerate() {
            out[p * mr + r] = alpha * v;
        }
    }
}

/// Pack columns `i0..i0+h` of row-major `A:[k,m]` (the transposed operand
/// of `gemm_tn`) into a p-major `[k, mr]` panel, pre-scaled by `alpha`.
#[allow(clippy::too_many_arguments)] // BLAS-style internals
fn pack_a_t(
    a: &[f32],
    m: usize,
    k: usize,
    i0: usize,
    h: usize,
    alpha: f32,
    mr: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), k * mr);
    for p in 0..k {
        let arow = &a[p * m + i0..p * m + i0 + h];
        let dst = &mut out[p * mr..(p + 1) * mr];
        for (d, &v) in dst[..h].iter_mut().zip(arow) {
            *d = alpha * v;
        }
        dst[h..].fill(0.0);
    }
}

// ---- micro-kernel --------------------------------------------------------

/// How the register tile is seeded and written back.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Accum {
    /// Seed `acc = β·c` (0 when β = 0, clobbering NaNs) and store `acc`
    /// directly — the `gemm`/`gemm_tn` flavour, whose A panels carry the
    /// α pre-scale.
    SeededByBeta { beta: f32 },
    /// Seed `acc = 0`, store `α·acc + β·c` (just `α·acc` when β = 0) —
    /// the `gemm_nt` flavour, matching its historical dot-product shape.
    ScaledOnStore { alpha: f32, beta: f32 },
}

/// The scalar register-tiled inner kernel: one `rows×cols` corner of an
/// `SCALAR_MR×SCALAR_NR` tile of `C`, accumulated over the full reduction
/// dimension.
///
/// The `p` loop walks the packed panels with fixed `MR`/`NR` bounds, which
/// LLVM unrolls into `f32`-lane FMAs-without-contraction (plain mul+add,
/// so results are reproducible across targets). Each element's terms are
/// added in `p` order — the determinism contract of the module docs.
#[allow(clippy::needless_range_loop)] // fixed-bound lattice, kept explicit for the vectorizer
#[allow(clippy::too_many_arguments)] // BLAS-style internals
fn micro_kernel_scalar(
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
    const MR: usize = SCALAR_MR;
    const NR: usize = SCALAR_NR;
    let mut acc = [[0.0f32; NR]; MR];
    if let Accum::SeededByBeta { beta } = mode {
        if beta != 0.0 {
            for r in 0..rows {
                let crow = &c[(row0 + r) * n + col0..];
                for j in 0..cols {
                    acc[r][j] = beta * crow[j];
                }
            }
        }
    }
    for p in 0..k {
        let ap = &apack[p * MR..(p + 1) * MR];
        let bp = &bpack[p * NR..(p + 1) * NR];
        for r in 0..MR {
            let ar = ap[r];
            for j in 0..NR {
                acc[r][j] += ar * bp[j];
            }
        }
    }
    match mode {
        Accum::SeededByBeta { .. } => {
            for r in 0..rows {
                let crow = &mut c[(row0 + r) * n + col0..];
                crow[..cols].copy_from_slice(&acc[r][..cols]);
            }
        }
        Accum::ScaledOnStore { alpha, beta } => {
            for r in 0..rows {
                let crow = &mut c[(row0 + r) * n + col0..];
                for j in 0..cols {
                    crow[j] = if beta == 0.0 {
                        alpha * acc[r][j]
                    } else {
                        alpha * acc[r][j] + beta * crow[j]
                    };
                }
            }
        }
    }
}

/// Run one tile through the given tier's micro-kernel. Panels must have
/// been packed with the same tier's geometry.
#[allow(clippy::too_many_arguments)] // BLAS-style internals
#[inline]
fn run_tile(
    tier: KernelTier,
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
    match tier {
        KernelTier::Scalar => {
            micro_kernel_scalar(apack, bpack, c, row0, col0, n, rows, cols, k, mode)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher (and the `with_tier` entry points) only
        // hand out the AVX2 tier after the CPUID check.
        KernelTier::Avx2 => unsafe {
            crate::gemm_avx2::tile_avx2(apack, bpack, c, row0, col0, n, rows, cols, k, mode)
        },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => unreachable!("the AVX2 tier is never selected off x86_64"),
    }
}

// ---- small-problem scalar kernels ---------------------------------------

/// One row of the streaming `gemm` kernel:
/// `crow = Σ_p (α·a[p])·B[p, :] + β·crow`, terms added in `p` order.
#[inline]
fn gemm_row(arow: &[f32], b: &[f32], crow: &mut [f32], k: usize, n: usize, alpha: f32, beta: f32) {
    if beta == 0.0 {
        crow.fill(0.0);
    } else if beta != 1.0 {
        for cv in crow.iter_mut() {
            *cv *= beta;
        }
    }
    for (p, &ap) in arow.iter().enumerate().take(k) {
        let f = alpha * ap;
        let brow = &b[p * n..(p + 1) * n];
        for (cv, &bv) in crow.iter_mut().zip(brow) {
            *cv += f * bv;
        }
    }
}

#[allow(clippy::too_many_arguments)] // BLAS-style internals
fn gemm_small(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    for i in 0..m {
        gemm_row(
            &a[i * k..(i + 1) * k],
            b,
            &mut c[i * n..(i + 1) * n],
            k,
            n,
            alpha,
            beta,
        );
    }
}

#[allow(clippy::too_many_arguments)] // BLAS-style internals
fn gemm_nt_small(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            let cv = &mut c[i * n + j];
            *cv = if beta == 0.0 {
                alpha * acc
            } else {
                alpha * acc + beta * *cv
            };
        }
    }
}

#[allow(clippy::too_many_arguments)] // BLAS-style internals
fn gemm_tn_small(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for cv in c.iter_mut() {
            *cv *= beta;
        }
    }
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            let f = alpha * av;
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += f * bv;
            }
        }
    }
}

// ---- blocked serial drivers ----------------------------------------------

/// Pack every nr-wide panel of the B operand into `bpack`.
fn pack_b_all(b: &[f32], k: usize, n: usize, transposed: bool, nr: usize, bpack: &mut Vec<f32>) {
    let panels = n.div_ceil(nr);
    bpack.resize(panels * k * nr, 0.0);
    for pi in 0..panels {
        let j0 = pi * nr;
        let w = nr.min(n - j0);
        let panel = &mut bpack[pi * k * nr..(pi + 1) * k * nr];
        if transposed {
            pack_b_t(b, k, j0, w, nr, panel);
        } else {
            pack_b_n(b, k, n, j0, w, nr, panel);
        }
    }
}

/// Run the packed tiles for rows `i0..i0+h` of `C` (a multiple of the
/// tier's `MR` tall except at the tail). `pack_rows` fills the A panel for
/// one tile.
#[allow(clippy::too_many_arguments)] // BLAS-style internals
fn blocked_rows(
    tier: KernelTier,
    bpack: &[f32],
    c: &mut [f32],
    row_base: usize,
    rows: usize,
    k: usize,
    n: usize,
    mode: Accum,
    pack_rows: &dyn Fn(usize, usize, &mut [f32]),
) {
    let (mr, nr) = tier.tile();
    let mut apack = checkout_a();
    apack.resize(k * mr, 0.0);
    let panels = n.div_ceil(nr);
    let mut i0 = 0;
    while i0 < rows {
        let h = mr.min(rows - i0);
        pack_rows(row_base + i0, h, &mut apack);
        for pi in 0..panels {
            let j0 = pi * nr;
            let w = nr.min(n - j0);
            run_tile(
                tier,
                &apack,
                &bpack[pi * k * nr..(pi + 1) * k * nr],
                c,
                i0,
                j0,
                n,
                h,
                w,
                k,
                mode,
            );
        }
        i0 += mr;
    }
    checkin_a(apack);
}

/// Orientation-specific plumbing for the blocked and parallel drivers.
#[derive(Clone, Copy)]
enum Orient {
    Nn,
    Nt,
    Tn,
}

#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    tier: KernelTier,
    orient: Orient,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    let (mr, nr) = tier.tile();
    let mut bpack = checkout_b();
    pack_b_all(b, k, n, matches!(orient, Orient::Nt), nr, &mut bpack);
    let mode = match orient {
        Orient::Nn | Orient::Tn => Accum::SeededByBeta { beta },
        Orient::Nt => Accum::ScaledOnStore { alpha, beta },
    };
    let pack_rows: &dyn Fn(usize, usize, &mut [f32]) = match orient {
        Orient::Nn => &|i0, h, out| pack_a_n(a, k, i0, h, alpha, mr, out),
        Orient::Nt => &|i0, h, out| pack_a_n(a, k, i0, h, 1.0, mr, out),
        Orient::Tn => &|i0, h, out| pack_a_t(a, m, k, i0, h, alpha, mr, out),
    };
    blocked_rows(tier, &bpack, c, 0, m, k, n, mode, pack_rows);
    checkin_b(bpack);
}

#[allow(clippy::too_many_arguments)]
fn gemm_parallel(
    tier: KernelTier,
    orient: Orient,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    let (mr, nr) = tier.tile();
    let mut bpack_own = checkout_b();
    pack_b_all(b, k, n, matches!(orient, Orient::Nt), nr, &mut bpack_own);
    let bpack = &bpack_own[..];
    let mode = match orient {
        Orient::Nn | Orient::Tn => Accum::SeededByBeta { beta },
        Orient::Nt => Accum::ScaledOnStore { alpha, beta },
    };
    // Split C into MR-row bands; each band packs its own A panel from a
    // worker-local buffer and walks the shared packed B. Accumulation
    // order per element is independent of the banding, so this is
    // bit-identical to the serial driver for any thread count.
    c.par_chunks_mut(mr * n)
        .enumerate()
        .for_each(|(band, cband)| {
            let row_base = band * mr;
            let rows = cband.len() / n;
            let pack_rows: &dyn Fn(usize, usize, &mut [f32]) = match orient {
                Orient::Nn => &|i0, h, out| pack_a_n(a, k, i0, h, alpha, mr, out),
                Orient::Nt => &|i0, h, out| pack_a_n(a, k, i0, h, 1.0, mr, out),
                Orient::Tn => &|i0, h, out| pack_a_t(a, m, k, i0, h, alpha, mr, out),
            };
            blocked_rows(tier, bpack, cband, row_base, rows, k, n, mode, pack_rows);
        });
    checkin_b(bpack_own);
}

// ---- explicit-tier entry points ------------------------------------------

/// [`gemm`] forced through a specific kernel tier's blocked path (no
/// small-problem shortcut), so tests and benches can compare tiers on the
/// same operands. Panics if the tier is not executable on this CPU.
#[allow(clippy::too_many_arguments)] // BLAS-style signature, on purpose
pub fn gemm_with_tier(
    tier: KernelTier,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert!(tier.available(), "kernel tier {} unavailable", tier.name());
    assert_eq!(a.len(), m * k, "gemm_with_tier: bad A length");
    assert_eq!(b.len(), k * n, "gemm_with_tier: bad B length");
    assert_eq!(c.len(), m * n, "gemm_with_tier: bad C length");
    gemm_blocked(tier, Orient::Nn, a, b, c, m, k, n, alpha, beta);
}

/// [`gemm_nt`] forced through a specific kernel tier (see
/// [`gemm_with_tier`]).
#[allow(clippy::too_many_arguments)] // BLAS-style signature, on purpose
pub fn gemm_nt_with_tier(
    tier: KernelTier,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert!(tier.available(), "kernel tier {} unavailable", tier.name());
    assert_eq!(a.len(), m * k, "gemm_nt_with_tier: bad A length");
    assert_eq!(b.len(), n * k, "gemm_nt_with_tier: bad B length");
    assert_eq!(c.len(), m * n, "gemm_nt_with_tier: bad C length");
    gemm_blocked(tier, Orient::Nt, a, b, c, m, k, n, alpha, beta);
}

/// [`gemm_tn`] forced through a specific kernel tier (see
/// [`gemm_with_tier`]).
#[allow(clippy::too_many_arguments)] // BLAS-style signature, on purpose
pub fn gemm_tn_with_tier(
    tier: KernelTier,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert!(tier.available(), "kernel tier {} unavailable", tier.name());
    assert_eq!(a.len(), k * m, "gemm_tn_with_tier: bad A length");
    assert_eq!(b.len(), k * n, "gemm_tn_with_tier: bad B length");
    assert_eq!(c.len(), m * n, "gemm_tn_with_tier: bad C length");
    gemm_blocked(tier, Orient::Tn, a, b, c, m, k, n, alpha, beta);
}

// ---- public entry points -------------------------------------------------

/// `C = alpha * A @ B + beta * C` on raw row-major slices.
///
/// `a` is `[m, k]`, `b` is `[k, n]`, `c` is `[m, n]`. Dispatches between a
/// streaming scalar kernel and the packed blocked kernel by problem size;
/// the blocked kernel runs the process's [`crate::active_tier`]. All
/// default paths produce bit-identical results (see the module docs).
///
/// # Panics
/// Panics if slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)] // BLAS-style signature, on purpose
pub fn gemm(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert_eq!(a.len(), m * k, "gemm: bad A length");
    assert_eq!(b.len(), k * n, "gemm: bad B length");
    assert_eq!(c.len(), m * n, "gemm: bad C length");
    if m * k * n < BLOCKED_MIN_FLOPS {
        gemm_small(a, b, c, m, k, n, alpha, beta);
    } else {
        gemm_blocked(active_tier(), Orient::Nn, a, b, c, m, k, n, alpha, beta);
    }
}

/// `C = alpha * A @ Bᵀ + beta * C`; `a` is `[m, k]`, `b` is `[n, k]`,
/// `c` is `[m, n]` — the input-gradient orientation (`dX = dY @ Wᵀ`).
#[allow(clippy::too_many_arguments)] // BLAS-style signature, on purpose
pub fn gemm_nt(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert_eq!(a.len(), m * k, "gemm_nt: bad A length");
    assert_eq!(b.len(), n * k, "gemm_nt: bad B length");
    assert_eq!(c.len(), m * n, "gemm_nt: bad C length");
    if m * k * n < BLOCKED_MIN_FLOPS {
        gemm_nt_small(a, b, c, m, k, n, alpha, beta);
    } else {
        gemm_blocked(active_tier(), Orient::Nt, a, b, c, m, k, n, alpha, beta);
    }
}

/// `C = alpha * Aᵀ @ B + beta * C`; `a` is `[k, m]`, `b` is `[k, n]`,
/// `c` is `[m, n]` — the weight-gradient orientation (`dW = Xᵀ @ dY`).
#[allow(clippy::too_many_arguments)] // BLAS-style signature, on purpose
pub fn gemm_tn(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert_eq!(a.len(), k * m, "gemm_tn: bad A length");
    assert_eq!(b.len(), k * n, "gemm_tn: bad B length");
    assert_eq!(c.len(), m * n, "gemm_tn: bad C length");
    if m * k * n < BLOCKED_MIN_FLOPS {
        gemm_tn_small(a, b, c, m, k, n, alpha, beta);
    } else {
        gemm_blocked(active_tier(), Orient::Tn, a, b, c, m, k, n, alpha, beta);
    }
}

/// True when the problem is worth fanning out to the pool.
#[inline]
fn parallel_worthwhile(m: usize, k: usize, n: usize, mr: usize) -> bool {
    m * k * n >= PAR_FLOP_THRESHOLD && m > mr && rayon::current_num_threads() > 1
}

/// Parallel version of [`gemm`]: MR-row bands of `C` are distributed over
/// rayon. Falls back to the serial kernel for small problems. Results are
/// bit-identical to [`gemm`] for any thread count.
#[allow(clippy::too_many_arguments)] // BLAS-style signature, on purpose
pub fn par_gemm(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert_eq!(a.len(), m * k, "par_gemm: bad A length");
    assert_eq!(b.len(), k * n, "par_gemm: bad B length");
    assert_eq!(c.len(), m * n, "par_gemm: bad C length");
    let tier = active_tier();
    if parallel_worthwhile(m, k, n, tier.tile().0) {
        gemm_parallel(tier, Orient::Nn, a, b, c, m, k, n, alpha, beta);
    } else {
        gemm(a, b, c, m, k, n, alpha, beta);
    }
}

/// Parallel version of [`gemm_nt`]; bit-identical to the serial kernel.
#[allow(clippy::too_many_arguments)] // BLAS-style signature, on purpose
pub fn par_gemm_nt(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert_eq!(a.len(), m * k, "par_gemm_nt: bad A length");
    assert_eq!(b.len(), n * k, "par_gemm_nt: bad B length");
    assert_eq!(c.len(), m * n, "par_gemm_nt: bad C length");
    let tier = active_tier();
    if parallel_worthwhile(m, k, n, tier.tile().0) {
        gemm_parallel(tier, Orient::Nt, a, b, c, m, k, n, alpha, beta);
    } else {
        gemm_nt(a, b, c, m, k, n, alpha, beta);
    }
}

/// Parallel version of [`gemm_tn`]; bit-identical to the serial kernel.
#[allow(clippy::too_many_arguments)] // BLAS-style signature, on purpose
pub fn par_gemm_tn(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert_eq!(a.len(), k * m, "par_gemm_tn: bad A length");
    assert_eq!(b.len(), k * n, "par_gemm_tn: bad B length");
    assert_eq!(c.len(), m * n, "par_gemm_tn: bad C length");
    let tier = active_tier();
    if parallel_worthwhile(m, k, n, tier.tile().0) {
        gemm_parallel(tier, Orient::Tn, a, b, c, m, k, n, alpha, beta);
    } else {
        gemm_tn(a, b, c, m, k, n, alpha, beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::randn(vec![n], 1.0, &mut rng).into_vec()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "elem {i}: {x} vs {y}"
            );
        }
    }

    /// Shapes spanning the small-kernel regime, MR/NR edge cases for both
    /// tile geometries (4×8 scalar, 6×16 AVX2) and the blocked regime
    /// (33·17·9 < 2^13 ≤ 16·64·16).
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 3, 4),
        (5, 7, 3),
        (6, 5, 16),
        (7, 9, 17),
        (16, 16, 16),
        (33, 17, 9),
        (16, 64, 16),
        (37, 41, 23),
        (64, 50, 48),
        (96, 80, 72),
    ];

    const AB_CASES: &[(f32, f32)] = &[(1.0, 0.0), (2.0, 0.5), (1.0, 1.0), (-0.5, 2.0)];

    /// The central proof: every optimized orientation, serial and
    /// parallel, is **exactly** (bit-for-bit) the naive reference kernel,
    /// across the small/blocked dispatch boundary and all α/β cases —
    /// under whatever kernel tier the process dispatched to.
    #[test]
    fn blocked_kernels_are_bit_identical_to_reference() {
        for &(m, k, n) in SHAPES {
            for &(alpha, beta) in AB_CASES {
                let seed = (m * 31 + k * 7 + n) as u64;
                let a_nn = random_vec(m * k, seed);
                let b_nn = random_vec(k * n, seed + 1);
                let c0 = random_vec(m * n, seed + 2);

                let mut want = c0.clone();
                reference::gemm(&a_nn, &b_nn, &mut want, m, k, n, alpha, beta);
                for kernel in [gemm, par_gemm] {
                    let mut got = c0.clone();
                    kernel(&a_nn, &b_nn, &mut got, m, k, n, alpha, beta);
                    assert_eq!(got, want, "gemm {m}x{k}x{n} α={alpha} β={beta}");
                }

                let b_t = random_vec(n * k, seed + 3);
                let mut want = c0.clone();
                reference::gemm_nt(&a_nn, &b_t, &mut want, m, k, n, alpha, beta);
                for kernel in [gemm_nt, par_gemm_nt] {
                    let mut got = c0.clone();
                    kernel(&a_nn, &b_t, &mut got, m, k, n, alpha, beta);
                    assert_eq!(got, want, "gemm_nt {m}x{k}x{n} α={alpha} β={beta}");
                }

                let a_t = random_vec(k * m, seed + 4);
                let mut want = c0.clone();
                reference::gemm_tn(&a_t, &b_nn, &mut want, m, k, n, alpha, beta);
                for kernel in [gemm_tn, par_gemm_tn] {
                    let mut got = c0.clone();
                    kernel(&a_t, &b_nn, &mut got, m, k, n, alpha, beta);
                    assert_eq!(got, want, "gemm_tn {m}x{k}x{n} α={alpha} β={beta}");
                }
            }
        }
    }

    /// Cross-tier bit-identity at the tensor-crate level: the explicit-tier
    /// entry points must agree exactly between `Scalar` and `Avx2` (when
    /// the host has AVX2) on every shape and α/β case. The exhaustive
    /// property-based version lives in `tests/kernel_dispatch.rs`.
    #[test]
    fn avx2_tier_is_bit_identical_to_scalar_tier() {
        if !KernelTier::Avx2.available() {
            return; // nothing to compare on this host
        }
        for &(m, k, n) in SHAPES {
            for &(alpha, beta) in AB_CASES {
                let seed = (m * 11 + k * 3 + n) as u64;
                let a = random_vec(m * k, seed);
                let b = random_vec(k * n, seed + 1);
                let bt = random_vec(n * k, seed + 2);
                let at = random_vec(k * m, seed + 3);
                let c0 = random_vec(m * n, seed + 4);

                let mut s = c0.clone();
                let mut v = c0.clone();
                gemm_with_tier(KernelTier::Scalar, &a, &b, &mut s, m, k, n, alpha, beta);
                gemm_with_tier(KernelTier::Avx2, &a, &b, &mut v, m, k, n, alpha, beta);
                assert_eq!(s, v, "gemm tiers diverged {m}x{k}x{n} α={alpha} β={beta}");

                let mut s = c0.clone();
                let mut v = c0.clone();
                gemm_nt_with_tier(KernelTier::Scalar, &a, &bt, &mut s, m, k, n, alpha, beta);
                gemm_nt_with_tier(KernelTier::Avx2, &a, &bt, &mut v, m, k, n, alpha, beta);
                assert_eq!(
                    s, v,
                    "gemm_nt tiers diverged {m}x{k}x{n} α={alpha} β={beta}"
                );

                let mut s = c0.clone();
                let mut v = c0.clone();
                gemm_tn_with_tier(KernelTier::Scalar, &at, &b, &mut s, m, k, n, alpha, beta);
                gemm_tn_with_tier(KernelTier::Avx2, &at, &b, &mut v, m, k, n, alpha, beta);
                assert_eq!(
                    s, v,
                    "gemm_tn tiers diverged {m}x{k}x{n} α={alpha} β={beta}"
                );
            }
        }
    }

    #[test]
    fn par_gemm_bit_identical_to_serial() {
        let (m, k, n) = (96, 80, 72); // above the parallel threshold
        let a = random_vec(m * k, 3);
        let b = random_vec(k * n, 4);
        let mut c_serial = vec![0.0f32; m * n];
        gemm(&a, &b, &mut c_serial, m, k, n, 1.0, 0.0);
        let mut c_par = vec![0.0f32; m * n];
        par_gemm(&a, &b, &mut c_par, m, k, n, 1.0, 0.0);
        assert_eq!(c_serial, c_par, "parallel kernel must be bit-identical");
    }

    #[test]
    fn gemm_nt_matches_reference() {
        let (m, k, n) = (4, 6, 5);
        let a = random_vec(m * k, 5);
        let bt = random_vec(n * k, 6);
        // Build B from Bᵀ to reuse the plain reference kernel.
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut expected = vec![0.0f32; m * n];
        reference::gemm(&a, &b, &mut expected, m, k, n, 1.0, 0.0);
        let mut got = vec![0.0f32; m * n];
        par_gemm_nt(&a, &bt, &mut got, m, k, n, 1.0, 0.0);
        assert_close(&got, &expected, 1e-5);
    }

    #[test]
    fn gemm_tn_matches_reference() {
        let (m, k, n) = (4, 6, 5);
        let at = random_vec(k * m, 7);
        let b = random_vec(k * n, 8);
        let mut a = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                a[i * k + p] = at[p * m + i];
            }
        }
        let mut expected = vec![0.0f32; m * n];
        reference::gemm(&a, &b, &mut expected, m, k, n, 1.0, 0.0);
        let mut got = vec![0.0f32; m * n];
        par_gemm_tn(&at, &b, &mut got, m, k, n, 1.0, 0.0);
        assert_close(&got, &expected, 1e-5);
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        // 1x2 @ 2x1 = [11]
        let mut c = [10.0f32];
        gemm(&a, &b, &mut c, 1, 2, 1, 2.0, 0.5);
        // 2 * 11 + 0.5 * 10 = 27
        assert_eq!(c[0], 27.0);
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = [1.0f32];
        let b = [1.0f32];
        let mut c = [f32::NAN];
        gemm(&a, &b, &mut c, 1, 1, 1, 1.0, 0.0);
        assert_eq!(c[0], 1.0, "beta=0 must clobber NaN contents");
        let mut c = [f32::NAN];
        gemm_nt(&a, &b, &mut c, 1, 1, 1, 1.0, 0.0);
        assert_eq!(c[0], 1.0);
        let mut c = [f32::NAN];
        gemm_tn(&a, &b, &mut c, 1, 1, 1, 1.0, 0.0);
        assert_eq!(c[0], 1.0);
        // And through the blocked tier paths too (no small-kernel shortcut).
        for tier in [KernelTier::Scalar, KernelTier::Avx2] {
            if !tier.available() {
                continue;
            }
            let mut c = [f32::NAN];
            gemm_with_tier(tier, &a, &b, &mut c, 1, 1, 1, 1.0, 0.0);
            assert_eq!(c[0], 1.0, "tier {} must clobber NaN", tier.name());
            let mut c = [f32::NAN];
            gemm_nt_with_tier(tier, &a, &b, &mut c, 1, 1, 1, 1.0, 0.0);
            assert_eq!(c[0], 1.0);
            let mut c = [f32::NAN];
            gemm_tn_with_tier(tier, &a, &b, &mut c, 1, 1, 1, 1.0, 0.0);
            assert_eq!(c[0], 1.0);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_vec(8 * 8, 11);
        let mut eye = vec![0.0f32; 8 * 8];
        for i in 0..8 {
            eye[i * 8 + i] = 1.0;
        }
        let mut out = vec![0.0f32; 8 * 8];
        par_gemm(&a, &eye, &mut out, 8, 8, 8, 1.0, 0.0);
        assert_close(&out, &a, 1e-6);
    }

    #[test]
    fn repeated_calls_reuse_pack_buffers() {
        // Steady-state blocked kernels must not allocate: run once to warm
        // the thread-local pools, then observe the buffers are recycled
        // (indirectly — results stay exact across many mixed-size calls).
        let (m, k, n) = (32, 64, 24);
        let a = random_vec(m * k, 90);
        let b = random_vec(k * n, 91);
        let mut first = vec![0.0f32; m * n];
        gemm(&a, &b, &mut first, m, k, n, 1.0, 0.0);
        for _ in 0..4 {
            let mut again = vec![0.0f32; m * n];
            gemm(&a, &b, &mut again, m, k, n, 1.0, 0.0);
            assert_eq!(first, again);
            // Interleave a different shape to force re-packing.
            let mut small = vec![0.0f32; 4];
            gemm(&a[..4], &b[..4], &mut small, 2, 2, 2, 1.0, 0.0);
        }
    }
}

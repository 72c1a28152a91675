//! GEMM kernels in the three orientations required by backpropagation.
//!
//! * `gemm`    — `C = α·A·B + β·C` with `A:[m,k]`, `B:[k,n]` (forward pass)
//! * `gemm_nt` — `C = α·A·Bᵀ + β·C` with `A:[m,k]`, `B:[n,k]` (input grads)
//! * `gemm_tn` — `C = α·Aᵀ·B + β·C` with `A:[k,m]`, `B:[k,n]` (weight grads)
//!
//! # Blocked micro-kernel, runtime-dispatched
//!
//! All three orientations are computed by one register-tiled micro-kernel
//! over `MR×NR` output tiles that reads its operands where they lie,
//! through strided views:
//!
//! * **A** element `(i, p)` is `a[i·rs + p·ps]` — `(rs, ps) = (k, 1)` for
//!   `gemm`/`gemm_nt`, `(1, m)` for `gemm_tn`. In a short tail tile the
//!   rows past the edge re-read the last real row; they are computed but
//!   never stored.
//! * **B** is read one `NR`-wide panel at a time, step `p` at
//!   `b[off + p·stride ..]`: row-major `[k, n]` in place with stride `n`,
//!   the last `n mod NR` lanes loaded masked so lanes past `n` read 0.
//!
//! The operand a call always copies is `gemm_nt`'s B, which is `[n, k]` —
//! a transpose — packed once into p-major `[k, NR]` panels, each written
//! front to back with its lanes past `n` set to 0 (`O(kn)` against
//! `O(mkn)` arithmetic). A call with α ≠ 1 also reads `α·a` from a copy
//! instead of `a`. Both copies live in one grow-only thread-local buffer
//! (checked out per call, returned after) whose every element a call reads
//! it writes first, so steady-state kernels perform **no heap allocation**
//! and zero nothing but pad lanes.
//!
//! # Kernel selection
//!
//! The entry points pick the kernel by shape ([`streams`]): when C has
//! one or two rows, or the reduction one or two steps, a register tile is
//! mostly idle lanes and a streaming scalar kernel runs instead — a row
//! update per step of A (`gemm`/`gemm_tn`), a dot product per element
//! (`gemm_nt`). Every other shape runs the blocked kernel. The boundary
//! is the crossover the `gemm` group of the `tensor_kernels` bench
//! measures on both tiers at the workloads' shapes (ids `…/entry` against
//! `…/blocked`).
//!
//! **Which** micro-kernel runs — and with which tile geometry — is decided
//! once per process by [`crate::dispatch`]: the portable scalar `4×8`
//! lattice (LLVM auto-vectorized at the baseline target) or a
//! hand-written AVX2 `6×16` tile. `FEDHISYN_FORCE_SCALAR=1` pins the
//! scalar tier. All nine public entry points are one-line calls into one
//! private dispatch, which checks the operand lengths and picks the path.
//!
//! # Determinism invariants
//!
//! Every path — naive reference, streaming, blocked serial, blocked
//! parallel, scalar or AVX2 tier, any thread count — computes each output
//! element by **one contract**, in every orientation: seed `acc = β·c`
//! (0 when β = 0, reading nothing, so NaNs in `c` are clobbered), add
//! `(α·a)·b` for `p = 0..k` in order, store `acc`. Blocking tiles only `m`
//! and `n`, never the reduction dimension; parallelism splits rows of `C`;
//! and the AVX2 tile vectorizes across columns with separate IEEE multiply
//! and add — so results are bit-identical everywhere. The
//! [`reference`](mod@reference) module keeps the naive triple loop as the
//! executable statement of that contract; the equivalence tests assert
//! exact equality against it.
//!
//! [`par_gemm`], [`par_gemm_nt`] and [`par_gemm_tn`] fan out across the
//! rayon pool above a FLOP threshold and fall back to the serial kernels
//! below it.

use std::cell::Cell;

use rayon::prelude::*;

use crate::dispatch::{active_tier, KernelTier};
#[cfg(target_arch = "x86_64")]
use crate::gemm_avx2::tile_avx2;

/// Minimum number of `m·k·n` multiply-adds before the parallel entry
/// points fan out to the rayon pool; below this the fork/join overhead
/// dominates.
const PAR_FLOP_THRESHOLD: usize = 1 << 18;

/// Rows per scalar-tier register tile.
pub(crate) const SCALAR_MR: usize = 4;
/// Columns per scalar-tier register tile (two SSE / one AVX `f32` vector).
pub(crate) const SCALAR_NR: usize = 8;

thread_local! {
    /// Per-thread buffer for the operand copies a blocked call makes
    /// (module docs), checked out per kernel invocation so re-entrant calls
    /// (pool work-helping) never alias a buffer in use.
    static COPY: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
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
        naive(a, (k, 1), b, (n, 1), c, m, k, n, alpha, beta);
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
        naive(a, (k, 1), b, (1, k), c, m, k, n, alpha, beta);
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
        naive(a, (1, m), b, (n, 1), c, m, k, n, alpha, beta);
    }

    /// The contract of the module docs, with A's element `(i, p)` at
    /// `a[i·ars + p·aps]` and B's element `(p, j)` at `b[p·bps + j·bjs]`.
    #[allow(clippy::too_many_arguments)]
    fn naive(
        a: &[f32],
        (ars, aps): (usize, usize),
        b: &[f32],
        (bps, bjs): (usize, usize),
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
                    acc += (alpha * a[i * ars + p * aps]) * b[p * bps + j * bjs];
                }
                *cv = acc;
            }
        }
    }
}

// ---- operand views -------------------------------------------------------

/// Where the micro-kernels read one call's operands (module docs): A's
/// element `(i, p)` is `a[i·rs + p·ps]`; lane `j` of step `p` of the B
/// panel whose first column is `j0` is `b[j0·scale + p·stride + j]`. Lanes
/// past `n` read 0: stored zeros when `padded` (the packed `gemm_nt`
/// operand), masked loads otherwise.
#[derive(Clone, Copy)]
pub(crate) struct Operands<'a> {
    pub(crate) a: &'a [f32],
    pub(crate) rs: usize,
    pub(crate) ps: usize,
    pub(crate) b: &'a [f32],
    pub(crate) scale: usize,
    pub(crate) stride: usize,
    pub(crate) padded: bool,
}

impl<'a> Operands<'a> {
    /// The views one call reads: A and B in place, except `gemm_nt`'s B,
    /// packed into `copy`, and an A with α ≠ 1, whose `α·a` is written to
    /// `copy` after it — the same product the kernels read on every path,
    /// so the bits do not depend on which one ran.
    ///
    /// `copy` only grows: both regions are written in full before they are
    /// read, so what an earlier call left there is never seen, and only
    /// the growth itself is zero-filled.
    fn new(
        orient: Orient,
        a: &'a [f32],
        b: &'a [f32],
        (m, k, n): (usize, usize, usize),
        nr: usize,
        alpha: f32,
        copy: &'a mut Vec<f32>,
    ) -> Self {
        let padded = matches!(orient, Orient::Nt);
        let packed_len = if padded { n.div_ceil(nr) * k * nr } else { 0 };
        let scaled_len = if alpha == 1.0 { 0 } else { a.len() };
        if copy.len() < packed_len + scaled_len {
            copy.resize(packed_len + scaled_len, 0.0);
        }
        let (packed, scaled) = copy.split_at_mut(packed_len);
        if packed_len > 0 {
            pack_nt(b, k, nr, packed);
        }
        let scaled = &mut scaled[..scaled_len];
        for (s, &v) in scaled.iter_mut().zip(a) {
            *s = alpha * v;
        }
        let a = if alpha == 1.0 { a } else { &*scaled };
        let (rs, ps, b, scale, stride) = match orient {
            Orient::Nn => (k, 1, b, 1, n),
            Orient::Tn => (1, m, b, 1, n),
            Orient::Nt => (k, 1, &*packed, k, nr),
        };
        Operands {
            a,
            rs,
            ps,
            b,
            scale,
            stride,
            padded,
        }
    }

    /// The A offset each of a tile's `MR` rows reads from, for the tile at
    /// row `i0` with `rows` real rows: rows past them re-read the last real
    /// row (computed, never stored).
    #[inline(always)]
    pub(crate) fn a_rows<const MR: usize>(&self, i0: usize, rows: usize) -> [usize; MR] {
        std::array::from_fn(|r| (i0 + r.min(rows - 1)) * self.rs)
    }

    /// Start offset and loaded lane count of the `cols`-wide B panel at
    /// column `j0` of a tier with `nr`-lane tiles.
    #[inline(always)]
    pub(crate) fn b_panel(&self, j0: usize, cols: usize, nr: usize) -> (usize, usize) {
        (j0 * self.scale, if self.padded { nr } else { cols })
    }
}

/// Pack `gemm_nt`'s `[n, k]` B into `out`, `n.div_ceil(nr)` p-major
/// `[k, nr]` panels: step `p` of the panel at column `j0` is
/// `B[j0 .. j0 + nr, p]`, lanes past `n` 0. Each panel is written front to
/// back, so every element is stored once. `k > 0`.
fn pack_nt(b: &[f32], k: usize, nr: usize, out: &mut [f32]) {
    for (panel, rows) in out.chunks_exact_mut(k * nr).zip(b.chunks(k * nr)) {
        let w = rows.len() / k;
        for (p, step) in panel.chunks_exact_mut(nr).enumerate() {
            for (lane, v) in step[..w].iter_mut().enumerate() {
                *v = rows[lane * k + p];
            }
            step[w..].fill(0.0);
        }
    }
}

// ---- micro-kernel --------------------------------------------------------

/// The scalar register-tiled inner kernel: one `rows×cols` corner of an
/// `SCALAR_MR×SCALAR_NR` tile of `C`, seeded with `β·c` (nothing read when
/// β = 0) and accumulated over the full reduction dimension.
///
/// The `p` loop runs fixed `MR`/`NR` bounds, which LLVM unrolls into
/// `f32`-lane FMAs-without-contraction (plain mul+add, so results are
/// reproducible across targets). Each element's terms are added in `p`
/// order — the determinism contract of the module docs.
///
/// # Safety
///
/// Both views must be in bounds for this tile's rows, columns and `k`
/// steps.
#[allow(clippy::needless_range_loop)] // fixed-bound lattice, kept explicit for the vectorizer
#[allow(clippy::too_many_arguments)] // BLAS-style internals
unsafe fn micro_kernel_scalar(
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
    const MR: usize = SCALAR_MR;
    const NR: usize = SCALAR_NR;
    let mut acc = [[0.0f32; NR]; MR];
    if beta != 0.0 {
        for r in 0..rows {
            let crow = &c[(row0 + r) * n + col0..];
            for j in 0..cols {
                acc[r][j] = beta * crow[j];
            }
        }
    }
    let arow = ops.a_rows::<MR>(row0, rows);
    let mut step = |p: usize, bp: [f32; NR]| {
        for r in 0..MR {
            let ar = *ops.a.get_unchecked(arow[r] + p * ops.ps);
            for j in 0..NR {
                acc[r][j] += ar * bp[j];
            }
        }
    };
    let (boff, lanes) = ops.b_panel(col0, cols, NR);
    let brow = |p: usize| ops.b.as_ptr().add(boff + p * ops.stride);
    if lanes == NR {
        for p in 0..k {
            step(p, brow(p).cast::<[f32; NR]>().read_unaligned());
        }
    } else {
        for p in 0..k {
            let row = brow(p);
            step(
                p,
                std::array::from_fn(|j| if j < lanes { *row.add(j) } else { 0.0 }),
            );
        }
    }
    for r in 0..rows {
        let crow = &mut c[(row0 + r) * n + col0..];
        crow[..cols].copy_from_slice(&acc[r][..cols]);
    }
}

// ---- streaming kernels ---------------------------------------------------

/// The streaming kernel of `gemm` (`(rs, ps) = (k, 1)`) and `gemm_tn`
/// (`(1, m)`), reading A element `(i, p)` at `a[i·rs + p·ps]`:
/// `C[i, :] = β·C[i, :] + Σ_p (α·a)·B[p, :]`, terms added in `p` order.
#[allow(clippy::too_many_arguments)] // BLAS-style internals
fn gemm_small(
    a: &[f32],
    (rs, ps): (usize, usize),
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
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let f = alpha * a[i * rs + p * ps];
            for (cv, &bv) in crow.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *cv += f * bv;
            }
        }
    }
}

/// The streaming kernel of `gemm_nt`: element `(i, j)` is the dot product
/// of A's row `i` and B's row `j`, seeded and summed by the same contract.
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
        for (j, cv) in c[i * n..(i + 1) * n].iter_mut().enumerate() {
            let mut acc = if beta == 0.0 { 0.0 } else { beta * *cv };
            for (&x, &y) in arow.iter().zip(&b[j * k..(j + 1) * k]) {
                acc += (alpha * x) * y;
            }
            *cv = acc;
        }
    }
}

// ---- blocked driver ------------------------------------------------------

/// Run the tiles for all `rows` rows of `c`, whose first row is row 0 of
/// `ops`' A.
fn blocked_rows(
    tier: KernelTier,
    ops: &Operands,
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    beta: f32,
) {
    let (mr, nr) = tier.tile();
    // The farthest element each view touches: A's last row at the last
    // step, and the last loaded lane of B's last panel at the last step.
    // Every other tile reads below both, and no tile reads when `k == 0`.
    if rows > 0 && n > 0 && k > 0 {
        let j0 = (n - 1) / nr * nr;
        let (boff, lanes) = ops.b_panel(j0, n - j0, nr);
        let a_end = (rows - 1) * ops.rs + (k - 1) * ops.ps;
        let b_end = boff + (k - 1) * ops.stride + lanes - 1;
        assert!(
            a_end < ops.a.len() && b_end < ops.b.len(),
            "gemm: operand views overrun their slices"
        );
    }
    for i0 in (0..rows).step_by(mr) {
        let h = mr.min(rows - i0);
        for j0 in (0..n).step_by(nr) {
            let w = nr.min(n - j0);
            // SAFETY: the assert above bounds every load of both views, and
            // `tier` is executable: `dispatch` only hands out an available
            // tier.
            unsafe {
                match tier {
                    KernelTier::Scalar => micro_kernel_scalar(ops, c, i0, j0, n, h, w, k, beta),
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx2 => tile_avx2(ops, c, i0, j0, n, h, w, k, beta),
                    #[cfg(not(target_arch = "x86_64"))]
                    KernelTier::Avx2 => unreachable!("the AVX2 tier is never selected off x86_64"),
                }
            }
        }
    }
}

// ---- dispatch ------------------------------------------------------------

/// Orientation of a call.
#[derive(Clone, Copy)]
enum Orient {
    Nn,
    Nt,
    Tn,
}

/// Whether the default paths run the streaming kernels on an `m×k×n`
/// problem: when C has one or two rows or the reduction one or two steps,
/// whatever `n` — there a register tile's setup (and `gemm_nt`'s pack)
/// costs about as much as the arithmetic it saves. Measured on both tiers
/// at the smoke MLP's shapes (`gemm` group of the `tensor_kernels`
/// bench): streaming wins every 1-row or 1-step call by 1.3–2.5×; at 2 it
/// wins on the scalar tier and is within a quarter either way on AVX2;
/// from 3 on the tile wins or ties, up to 4× at 30 rows.
fn streams(m: usize, k: usize) -> bool {
    m.min(k) <= 2
}

/// Which kernel an entry point runs.
#[derive(Clone, Copy)]
enum Path {
    /// `gemm*`: the streaming kernel where [`streams`] says so, else the
    /// blocked kernel on the active tier.
    Serial,
    /// `par_gemm*`: as `Serial`, except that a blocked problem of at least
    /// [`PAR_FLOP_THRESHOLD`] multiply-adds and more than `MR` rows runs
    /// its `MR`-row bands over the rayon pool (when it has more than one
    /// thread).
    Parallel,
    /// `*_with_tier`: the blocked kernel on this tier, serially, at every
    /// size. Panics if the tier is not executable on this CPU.
    Tier(KernelTier),
}

/// The body of all nine entry points: check the operand lengths (A holds
/// `m·k` elements and B `k·n` in every orientation), then run the kernel
/// `path` picks for `orient`.
#[allow(clippy::too_many_arguments)] // BLAS-style internals
fn dispatch(
    path: Path,
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
    assert!(
        a.len() == m * k && b.len() == k * n && c.len() == m * n,
        "gemm: operand lengths {}, {}, {} do not match m = {m}, k = {k}, n = {n}",
        a.len(),
        b.len(),
        c.len()
    );
    let tier = match path {
        Path::Tier(tier) => {
            assert!(tier.available(), "kernel tier {} unavailable", tier.name());
            tier
        }
        _ if streams(m, k) => {
            return match orient {
                Orient::Nn => gemm_small(a, (k, 1), b, c, m, k, n, alpha, beta),
                Orient::Tn => gemm_small(a, (1, m), b, c, m, k, n, alpha, beta),
                Orient::Nt => gemm_nt_small(a, b, c, m, k, n, alpha, beta),
            };
        }
        Path::Serial | Path::Parallel => active_tier(),
    };
    let (mr, nr) = tier.tile();
    let mut copy = COPY.with(Cell::take);
    let ops = Operands::new(orient, a, b, (m, k, n), nr, alpha, &mut copy);
    let fan_out = matches!(path, Path::Parallel)
        && m * k * n >= PAR_FLOP_THRESHOLD
        && m > mr
        && rayon::current_num_threads() > 1;
    if fan_out {
        // Every band reads the shared views from its own first row.
        // Accumulation order per element is independent of the banding,
        // so this is bit-identical to the serial pass for any thread count.
        c.par_chunks_mut(mr * n)
            .enumerate()
            .for_each(|(band, cband)| {
                let rows = cband.len() / n;
                let a = &ops.a[band * mr * ops.rs..];
                blocked_rows(tier, &Operands { a, ..ops }, cband, rows, k, n, beta);
            });
    } else {
        blocked_rows(tier, &ops, c, m, k, n, beta);
    }
    COPY.with(|slot| slot.set(copy));
}

// ---- public entry points -------------------------------------------------

/// `C = alpha * A @ B + beta * C` on raw row-major slices.
///
/// `a` is `[m, k]`, `b` is `[k, n]`, `c` is `[m, n]`. Runs a streaming
/// scalar kernel when C has one or two rows or the reduction one or two
/// steps, else the blocked kernel on the process's [`crate::active_tier`].
/// All paths produce bit-identical results (see the module docs).
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
    dispatch(Path::Serial, Orient::Nn, a, b, c, m, k, n, alpha, beta);
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
    dispatch(Path::Serial, Orient::Nt, a, b, c, m, k, n, alpha, beta);
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
    dispatch(Path::Serial, Orient::Tn, a, b, c, m, k, n, alpha, beta);
}

/// Parallel version of [`gemm`]: MR-row bands of `C` are distributed over
/// rayon. Runs serially below a FLOP threshold and on streaming shapes.
/// Results are bit-identical to [`gemm`] for any thread count.
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
    dispatch(Path::Parallel, Orient::Nn, a, b, c, m, k, n, alpha, beta);
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
    dispatch(Path::Parallel, Orient::Nt, a, b, c, m, k, n, alpha, beta);
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
    dispatch(Path::Parallel, Orient::Tn, a, b, c, m, k, n, alpha, beta);
}

/// [`gemm`] forced through a specific kernel tier's blocked path at every
/// shape (never the streaming kernel), so tests and benches can compare
/// tiers, and the two kernels, on the same operands. Panics if the tier is
/// not executable on this CPU.
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
    dispatch(Path::Tier(tier), Orient::Nn, a, b, c, m, k, n, alpha, beta);
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
    dispatch(Path::Tier(tier), Orient::Nt, a, b, c, m, k, n, alpha, beta);
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
    dispatch(Path::Tier(tier), Orient::Tn, a, b, c, m, k, n, alpha, beta);
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

    /// Shapes on both sides of the kernel selector ([`streams`]: one or
    /// two rows or reduction steps stream, three of each run blocked), up
    /// to `n` = 48 and at one 1-row large-`k` call, then MR/NR edge cases
    /// for both tile geometries (4×8 scalar, 6×16 AVX2).
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 2, 48),
        (1, 3, 10),
        (2, 1, 17),
        (2, 2, 24),
        (2, 3, 4),
        (3, 1, 48),
        (3, 2, 9),
        (3, 3, 33),
        (1, 784, 24),
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

    type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, f32, f32);
    type TierKernel = fn(KernelTier, &[f32], &[f32], &mut [f32], usize, usize, usize, f32, f32);

    /// The shapes the workloads run, as `(orientation, m, k, n, β)` at
    /// α = 1: the paper MLP's 784→200 layer in all three orientations, its
    /// `dW` accumulated over a batch, the conv forward passes, the conv
    /// `dcols` and the per-sample conv `dW`.
    const WORKLOAD_CASES: &[(&str, usize, usize, usize, f32)] = &[
        ("nn", 50, 784, 200, 0.0),
        ("nt", 50, 784, 200, 0.0),
        ("tn", 50, 784, 200, 0.0),
        ("tn", 784, 50, 200, 1.0),
        ("nt", 12800, 27, 8, 0.0),
        ("nt", 3200, 72, 16, 0.0),
        ("nn", 12800, 8, 27, 0.0),
        ("tn", 8, 256, 27, 1.0),
    ];

    /// The per-sample conv `dW` calls of `cnn_fedavg`'s two conv layers,
    /// `dWᵀ[C·K·K, F] += cols_b · dY_bᵀ` (`nt`, α = 1, β = 1). Kept out of
    /// [`WORKLOAD_CASES`], whose list seeds the pinned entry-point hash.
    const CONV_DW_CASES: &[(&str, usize, usize, usize, f32)] =
        &[("nt", 27, 256, 8, 1.0), ("nt", 72, 64, 16, 1.0)];

    /// The reference, serial and parallel kernels of one orientation, and
    /// its explicit-tier entry point.
    fn orientation(name: &str) -> (Kernel, [Kernel; 2], TierKernel) {
        match name {
            "nn" => (reference::gemm, [gemm, par_gemm], gemm_with_tier),
            "nt" => (
                reference::gemm_nt,
                [gemm_nt, par_gemm_nt],
                gemm_nt_with_tier,
            ),
            _ => (
                reference::gemm_tn,
                [gemm_tn, par_gemm_tn],
                gemm_tn_with_tier,
            ),
        }
    }

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

                let b_t = random_vec(n * k, seed + 3);
                let a_t = random_vec(k * m, seed + 4);
                for (name, a, b) in [
                    ("nn", &a_nn, &b_nn),
                    ("nt", &a_nn, &b_t),
                    ("tn", &a_t, &b_nn),
                ] {
                    let (reference, kernels, _) = orientation(name);
                    let mut want = c0.clone();
                    reference(a, b, &mut want, m, k, n, alpha, beta);
                    for kernel in kernels {
                        let mut got = c0.clone();
                        kernel(a, b, &mut got, m, k, n, alpha, beta);
                        assert_eq!(got, want, "{name} {m}x{k}x{n} α={alpha} β={beta}");
                    }
                }
            }
        }
        for &(name, m, k, n, beta) in WORKLOAD_CASES.iter().chain(CONV_DW_CASES) {
            let (reference, kernels, _) = orientation(name);
            let (a, b, c0) = (
                random_vec(m * k, 1),
                random_vec(k * n, 2),
                random_vec(m * n, 3),
            );
            let mut want = c0.clone();
            reference(&a, &b, &mut want, m, k, n, 1.0, beta);
            for kernel in kernels {
                let mut got = c0.clone();
                kernel(&a, &b, &mut got, m, k, n, 1.0, beta);
                assert_eq!(got, want, "{name} {m}x{k}x{n} β={beta}");
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

                for (name, a, b) in [("nn", &a, &b), ("nt", &a, &bt), ("tn", &at, &b)] {
                    let (_, _, kernel) = orientation(name);
                    let mut s = c0.clone();
                    let mut v = c0.clone();
                    kernel(KernelTier::Scalar, a, b, &mut s, m, k, n, alpha, beta);
                    kernel(KernelTier::Avx2, a, b, &mut v, m, k, n, alpha, beta);
                    assert_eq!(s, v, "{name} tiers diverged {m}x{k}x{n} α={alpha} β={beta}");
                }
            }
        }
        for &(name, m, k, n, beta) in WORKLOAD_CASES.iter().chain(CONV_DW_CASES) {
            let (_, _, kernel) = orientation(name);
            let (a, b, c0) = (
                random_vec(m * k, 4),
                random_vec(k * n, 5),
                random_vec(m * n, 6),
            );
            let mut s = c0.clone();
            let mut v = c0.clone();
            kernel(KernelTier::Scalar, &a, &b, &mut s, m, k, n, 1.0, beta);
            kernel(KernelTier::Avx2, &a, &b, &mut v, m, k, n, 1.0, beta);
            assert_eq!(s, v, "{name} tiers diverged {m}x{k}x{n} β={beta}");
        }
    }

    /// One FNV-1a hash over the outputs of all nine entry points at α = 1:
    /// β = 0 in every orientation plus β = 1 for `gemm`/`gemm_tn` (the `dW`
    /// accumulation), on the workload shapes, the tile-edge lattice and the
    /// small batches of `churn_wire` and `lazy_cohort`. The tiers are
    /// bit-identical, so one constant holds on both dispatch legs; unlike
    /// the reference comparisons it does not move when the reference does.
    #[test]
    fn entry_point_outputs_are_pinned() {
        const EDGE_DIMS: &[usize] = &[1, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33];
        const SMALL: &[(usize, usize, usize)] =
            &[(1, 48, 24), (2, 24, 10), (6, 48, 24), (30, 24, 10)];
        let mut cases: Vec<(&str, usize, usize, usize, f32)> = WORKLOAD_CASES.to_vec();
        let lattice = EDGE_DIMS
            .iter()
            .flat_map(|&m| EDGE_DIMS.iter().map(move |&n| (m, n)))
            .flat_map(|(m, n)| [1, 9, 50].map(|k| (m, k, n)));
        for (m, k, n) in lattice.chain(SMALL.iter().copied()) {
            for (name, beta) in [
                ("nn", 0.0),
                ("nt", 0.0),
                ("tn", 0.0),
                ("nn", 1.0),
                ("tn", 1.0),
            ] {
                cases.push((name, m, k, n, beta));
            }
        }
        let tier = active_tier();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (i, &(name, m, k, n, beta)) in cases.iter().enumerate() {
            let (_, [serial, parallel], with_tier) = orientation(name);
            let seed = 7 * i as u64;
            let (a, b, c0) = (
                random_vec(m * k, seed),
                random_vec(k * n, seed + 1),
                random_vec(m * n, seed + 2),
            );
            let mut outs = [c0.clone(), c0.clone(), c0];
            serial(&a, &b, &mut outs[0], m, k, n, 1.0, beta);
            parallel(&a, &b, &mut outs[1], m, k, n, 1.0, beta);
            with_tier(tier, &a, &b, &mut outs[2], m, k, n, 1.0, beta);
            for v in outs.iter().flatten() {
                for byte in v.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(
            hash, 0x2843_fdc4_6edd_bd61,
            "GEMM entry-point outputs moved: {hash:#018x}"
        );
    }

    /// The selector on the calls a training step makes: the smoke MLP
    /// `[32, 48, 24, 10]` at `churn_wire`'s 1–3-row and `lazy_cohort`'s
    /// 20–40-row batches (nn `(b, in, out)`, tn `(in, b, out)`, nt
    /// `(b, out, in)`), the paper MLP's one-row partial batch and every
    /// workload and conv `dW` case.
    #[test]
    fn streams_only_one_or_two_rows_or_reduction_steps() {
        assert!(!streams(30, 24), "lazy_cohort's last layer, nn 30×24×10");
        assert!(!streams(24, 30), "lazy_cohort's last dW, tn 24×30×10");
        assert!(!streams(30, 10), "lazy_cohort's last dX, nt 30×10×24");
        assert!(streams(1, 24), "churn_wire's one-row dX, nt 1×24×48");
        assert!(streams(32, 1), "churn_wire's one-row dW, tn 32×1×48");
        assert!(streams(1, 784), "the paper MLP's 1-row batch, nn 1×784×200");
        let smoke_mlp = |b: usize| {
            [
                ("nn", b, 32, 48),
                ("nn", b, 48, 24),
                ("nn", b, 24, 10),
                ("tn", 32, b, 48),
                ("tn", 48, b, 24),
                ("tn", 24, b, 10),
                ("nt", b, 24, 48),
                ("nt", b, 10, 24),
            ]
        };
        for b in [1, 2, 3, 20, 30, 40] {
            for (name, m, k, n) in smoke_mlp(b) {
                assert_eq!(streams(m, k), b <= 2, "{name} {m}x{k}x{n}");
            }
        }
        for &(name, m, k, n, _) in WORKLOAD_CASES.iter().chain(CONV_DW_CASES) {
            assert!(!streams(m, k), "{name} {m}x{k}x{n}");
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
        // The thread-local copy buffer is reused across calls: `gemm_nt`
        // packs its B there and an α ≠ 1 call writes `α·a` there (after
        // the packed B for `gemm_nt`). A larger blocked `gemm_nt` runs
        // between the rounds, so a buffer not reset per call would hand the
        // next one stale contents of another size (n = 23 ends in a partial
        // panel on both tiles).
        let (m, k, n) = (32, 64, 23);
        let a = random_vec(m * k, 90);
        let b = random_vec(k * n, 91);
        let (big_m, big_k, big_n) = (96, 80, 72);
        let big_a = random_vec(big_m * big_k, 92);
        let big_b = random_vec(big_n * big_k, 93);
        for _ in 0..4 {
            for (name, alpha) in [("nt", 1.0), ("nt", 2.0), ("nn", 2.0), ("tn", 2.0)] {
                let (reference, [serial, _], _) = orientation(name);
                let mut want = vec![0.0f32; m * n];
                reference(&a, &b, &mut want, m, k, n, alpha, 0.0);
                let mut got = vec![0.0f32; m * n];
                serial(&a, &b, &mut got, m, k, n, alpha, 0.0);
                assert_eq!(got, want, "{name} α={alpha}");
            }
            let mut big = vec![0.0f32; big_m * big_n];
            gemm_nt(&big_a, &big_b, &mut big, big_m, big_k, big_n, 1.0, 0.0);
        }
    }
}

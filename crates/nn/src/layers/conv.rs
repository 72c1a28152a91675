//! 2-D convolution via **batched** im2col + whole-batch GEMM.
//!
//! # Batched lowering
//!
//! The im2col workspace is batch-major: one `[B·OH·OW, C·K·K]` matrix for
//! the whole batch, where row `bi·OH·OW + oy·OW + ox` holds the receptive
//! field of one output position and the columns run over `(c, ki, kj)`.
//! With that layout the forward pass is **one** GEMM per layer per step —
//! `out_rows[B·OHOW, F] = cols · Wᵀ` — instead of the `B` small per-sample
//! GEMMs of the previous `[B, C·K·K, OH·OW]` layout, which re-packed the
//! same weight panels `B` times per layer per step.
//!
//! Backward is three batched stages on the same layout: `dW += dY_rowsᵀ ·
//! cols` (chained per-sample `β = 1` `gemm_tn` calls — the identical
//! addition sequence as one whole-batch reduction, but each chunk's
//! `cols` rows, read in place as the B operand, stay L2-resident instead of
//! `k = B·OH·OW` rows being re-streamed per row-tile), `dcols = dY_rows ·
//! W` (one `gemm`), and a
//! batched `col2im` scatter back onto `[B, C, H, W]`. The `dW` stage, with
//! the `dY` transpose and bias gradient ahead of it, is the parameter half
//! ([`Layer::backward_params_arena`]); `dcols` and col2im are the input
//! half. A model's first conv layer runs only the parameter half, since
//! its input is the staged batch.
//!
//! # Batch-size independence
//!
//! One step on a batch of `B` is **bit-identical** to `B` steps on batches
//! of one with no `zero_grad` in between: forward rows and `dcols` rows are
//! per-sample-disjoint (a GEMM row's arithmetic does not depend on how many
//! rows the call carries), and the weight and bias gradients are the same
//! chained per-sample `β = 1` accumulation either way. `tests/conv_batched.rs`
//! proves this across batch remainders, stride, padding and the
//! small/blocked/parallel GEMM dispatch edges.
//!
//! Every workspace (`cols`, the position-major row buffers, `dcols`) is
//! carved from the step's [`Scratch`]; the layer itself holds only
//! parameters, gradients and the handle of the current step's `cols`.
//!
//! # Parallel memory-bound stages
//!
//! With the GEMMs batched, the remaining per-step cost is the memory-bound
//! stages around them: batched im2col, the `[B·OH·OW, F] ⇄ [B, F, OH·OW]`
//! transposes, and batched col2im. All four are **per-sample-disjoint** —
//! sample `bi` reads and writes only its own `[OH·OW, ·]` block — so above
//! [`PAR_STAGE_MIN_ELEMS`] they fan out across the rayon pool in
//! deterministic one-sample bands (`par_chunks_mut(sample_len)`): banding
//! changes which thread computes a sample, never the values or the write
//! locations, so bit-determinism is preserved for any thread count. Below
//! the threshold the stages run inline, which also keeps the zero-alloc
//! steady-state contract at test/smoke sizes (parallel dispatch boxes
//! jobs). The two transposes additionally run **tile-blocked**
//! ([`TRANSPOSE_TILE`]² tiles) so the strided side of the scatter stays
//! resident in cache.

use std::time::Instant;

use fedhisyn_tensor::{par_gemm, par_gemm_nt, par_gemm_tn, Scratch, ScratchSlot, Tensor};
use rand::Rng;
use rayon::prelude::*;

use crate::arena::ArenaBuf;
use crate::init::Init;
use crate::layers::Layer;

/// 2-D convolution with square kernels and symmetric padding.
///
/// Input is `[B, C, H, W]`; output `[B, F, OH, OW]` where
/// `OH = (H + 2·pad − k) / stride + 1`. The kernel bank is stored as a
/// `[F, C·k·k]` matrix, consumed directly as the transposed B operand of
/// the batched forward GEMM (see the module docs for the batched layout).
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Where the current step's im2col matrix lives in the arena.
    cols_slot: Option<ScratchSlot>,
    cached_input_hw: (usize, usize),
    cached_batch: usize,
    /// The arena [`Conv2d::profile_step`] runs on — grow-only and kept
    /// across calls, so a probe loop times warm memory.
    profile_scratch: Scratch,
}

impl Conv2d {
    /// Create a stride-1 convolution layer.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        pad: usize,
        init: Init,
        rng: &mut R,
    ) -> Self {
        Conv2d::with_stride(in_channels, out_channels, kernel, 1, pad, init, rng)
    }

    /// Create a convolution layer with an explicit stride.
    pub fn with_stride<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        init: Init,
        rng: &mut R,
    ) -> Self {
        assert!(stride > 0, "Conv2d stride must be positive");
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = init.sample(vec![out_channels, fan_in], fan_in, fan_out, rng);
        Conv2d {
            weight,
            bias: Tensor::zeros(vec![out_channels]),
            grad_weight: Tensor::zeros(vec![out_channels, fan_in]),
            grad_bias: Tensor::zeros(vec![out_channels]),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            cols_slot: None,
            cached_input_hw: (0, 0),
            cached_batch: 0,
            profile_scratch: Scratch::new(),
        }
    }

    /// Output spatial size for an input spatial size.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.kernel) / self.stride + 1,
            (w + 2 * self.pad - self.kernel) / self.stride + 1,
        )
    }

    fn ckk(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Lower one `[C, H, W]` sample into its `[OH·OW, C·k·k]` block of the
/// batch-major column matrix (row = output position, columns = `(c,ki,kj)`).
///
/// Interior output positions — where the whole `k`-wide window is
/// in-bounds — copy their window as one contiguous slice; only the
/// `pad`-clipped border positions pay the per-element bounds checks. Pure
/// data movement either way, so the output is bit-identical.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel internals
fn im2col_rows(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    rows: &mut [f32],
) {
    let ckk = c * k * k;
    debug_assert_eq!(x.len(), c * h * w);
    debug_assert_eq!(rows.len(), oh * ow * ckk);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &mut rows[(oy * ow + ox) * ckk..(oy * ow + ox + 1) * ckk];
            let x0 = (ox * stride) as isize - pad as isize;
            let x_interior = x0 >= 0 && x0 as usize + k <= w;
            let mut r = 0usize;
            for ci in 0..c {
                let plane = &x[ci * h * w..(ci + 1) * h * w];
                for ki in 0..k {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    let dst = &mut row[r..r + k];
                    if iy < 0 || iy >= h as isize {
                        dst.fill(0.0);
                    } else {
                        let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                        if x_interior {
                            dst.copy_from_slice(&src_row[x0 as usize..x0 as usize + k]);
                        } else {
                            for (kj, d) in dst.iter_mut().enumerate() {
                                let ix = x0 + kj as isize;
                                *d = if ix < 0 || ix >= w as isize {
                                    0.0
                                } else {
                                    src_row[ix as usize]
                                };
                            }
                        }
                    }
                    r += k;
                }
            }
        }
    }
}

/// Scatter one sample's `[OH·OW, C·k·k]` column-gradient block back onto
/// `[C, H, W]` (accumulating; `x` must be zeroed by the caller).
///
/// Interior positions accumulate their window without per-element bounds
/// checks (same additions in the same `kj` order, so bit-identical);
/// border positions keep the clipped loop.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel internals
fn col2im_rows(
    rows: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    x: &mut [f32],
) {
    let ckk = c * k * k;
    debug_assert_eq!(x.len(), c * h * w);
    debug_assert_eq!(rows.len(), oh * ow * ckk);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &rows[(oy * ow + ox) * ckk..(oy * ow + ox + 1) * ckk];
            let x0 = (ox * stride) as isize - pad as isize;
            let x_interior = x0 >= 0 && x0 as usize + k <= w;
            let mut r = 0usize;
            for ci in 0..c {
                let plane = &mut x[ci * h * w..(ci + 1) * h * w];
                for ki in 0..k {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy >= 0 && iy < h as isize {
                        let dst_row = &mut plane[iy as usize * w..(iy as usize + 1) * w];
                        if x_interior {
                            let dst = &mut dst_row[x0 as usize..x0 as usize + k];
                            for (d, &s) in dst.iter_mut().zip(&row[r..r + k]) {
                                *d += s;
                            }
                        } else {
                            for (kj, &s) in row[r..r + k].iter().enumerate() {
                                let ix = x0 + kj as isize;
                                if ix >= 0 && ix < w as isize {
                                    dst_row[ix as usize] += s;
                                }
                            }
                        }
                    }
                    r += k;
                }
            }
        }
    }
}

/// Minimum number of `f32` elements a memory-bound conv stage must move
/// before fanning out across the pool in per-sample bands. Below this the
/// fork/join overhead (and the job boxing it implies) dominates — and the
/// zero-alloc steady-state tests/smokes are all sized under it, so they
/// keep running inline on the measuring thread on any host.
///
/// Re-tuned from `1 << 15` after the interior-window memcpy fast path
/// landed: the stages now move ≥ 2× the bytes per cycle, so the batch-8
/// smoke shapes (conv1 cols ≈ 55k elements) that used to straddle the old
/// threshold — paying fork/join for microseconds of copying — stay inline,
/// while real training batches (≥ 16) still fan out.
const PAR_STAGE_MIN_ELEMS: usize = 1 << 16;

/// Square tile side of the blocked transposes: both the row-major and the
/// plane-major side of a tile stay within `TRANSPOSE_TILE` rows/planes, so
/// the strided access stream hits cache-resident lines.
const TRANSPOSE_TILE: usize = 64;

/// True when a per-sample-disjoint stage moving `elems` floats over `b`
/// samples should fan out (see the module docs on determinism).
#[inline]
fn stage_parallel(b: usize, elems: usize) -> bool {
    b > 1 && elems >= PAR_STAGE_MIN_ELEMS && rayon::current_num_threads() > 1
}

/// Blocked transpose of one sample's position-major GEMM rows
/// (`[OH·OW, F]`) into channel planes (`[F, OH·OW]`), adding the
/// per-filter bias — forward stage 3 for one sample.
fn rows_to_planes(rows_b: &[f32], out_b: &mut [f32], f: usize, ohow: usize, bias: &[f32]) {
    debug_assert_eq!(rows_b.len(), ohow * f);
    debug_assert_eq!(out_b.len(), f * ohow);
    let mut f0 = 0;
    while f0 < f {
        let f1 = (f0 + TRANSPOSE_TILE).min(f);
        let mut p0 = 0;
        while p0 < ohow {
            let p1 = (p0 + TRANSPOSE_TILE).min(ohow);
            for fi in f0..f1 {
                let bv = bias[fi];
                let plane = &mut out_b[fi * ohow..(fi + 1) * ohow];
                for p in p0..p1 {
                    plane[p] = rows_b[p * f + fi] + bv;
                }
            }
            p0 = p1;
        }
        f0 = f1;
    }
}

/// Inverse orientation: one sample's `[F, OH·OW]` gradient planes into the
/// position-major `[OH·OW, F]` rows the backward GEMMs consume.
fn planes_to_rows(gout_b: &[f32], rows_b: &mut [f32], f: usize, ohow: usize) {
    debug_assert_eq!(gout_b.len(), f * ohow);
    debug_assert_eq!(rows_b.len(), ohow * f);
    let mut f0 = 0;
    while f0 < f {
        let f1 = (f0 + TRANSPOSE_TILE).min(f);
        let mut p0 = 0;
        while p0 < ohow {
            let p1 = (p0 + TRANSPOSE_TILE).min(ohow);
            for fi in f0..f1 {
                let plane = &gout_b[fi * ohow..(fi + 1) * ohow];
                for p in p0..p1 {
                    rows_b[p * f + fi] = plane[p];
                }
            }
            p0 = p1;
        }
        f0 = f1;
    }
}

impl Conv2d {
    fn check_input(&self, dims: &[usize]) -> (usize, usize, usize, usize) {
        assert_eq!(dims.len(), 4, "Conv2d expects [B, C, H, W], got {dims:?}");
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        assert!(
            h + 2 * self.pad >= self.kernel && w + 2 * self.pad >= self.kernel,
            "Conv2d: {h}x{w} input too small for kernel {} pad {}",
            self.kernel,
            self.pad
        );
        (b, c, h, w)
    }

    /// Stage 1 of forward: lower the whole batch into `cols` —
    /// per-sample-disjoint, fanned out in one-sample bands when large.
    fn lower_batch(&self, x: &[f32], cols: &mut [f32], b: usize, h: usize, w: usize) {
        let (c, ckk) = (self.in_channels, self.ckk());
        let (oh, ow) = self.out_size(h, w);
        let sample_in = c * h * w;
        let sample_cols = oh * ow * ckk;
        let lower_one = |bi: usize, chunk: &mut [f32]| {
            im2col_rows(
                &x[bi * sample_in..(bi + 1) * sample_in],
                c,
                h,
                w,
                self.kernel,
                self.stride,
                self.pad,
                oh,
                ow,
                chunk,
            );
        };
        if stage_parallel(b, b * sample_cols) {
            cols.par_chunks_mut(sample_cols)
                .enumerate()
                .for_each(|(bi, chunk)| lower_one(bi, chunk));
        } else {
            for (bi, chunk) in cols.chunks_mut(sample_cols).enumerate() {
                lower_one(bi, chunk);
            }
        }
    }

    /// Stage 2 of forward: `out_rows[B·OHOW, F] = cols · Wᵀ`, one GEMM
    /// for the whole batch.
    fn gemm_forward(&self, cols: &[f32], out_rows: &mut [f32], b: usize, ohow: usize) {
        let (f, ckk) = (self.out_channels, self.ckk());
        par_gemm_nt(
            cols,
            self.weight.data(),
            out_rows,
            b * ohow,
            ckk,
            f,
            1.0,
            0.0,
        );
    }

    /// Stage 3 of forward: blocked transpose of `out_rows` into the
    /// `[B, F, OH, OW]` output layout, adding the per-filter bias —
    /// per-sample-disjoint, fanned out in one-sample bands when large.
    fn scatter_output(&self, out_rows: &[f32], out: &mut [f32], b: usize, ohow: usize) {
        let f = self.out_channels;
        let bias = self.bias.data();
        if stage_parallel(b, b * f * ohow) {
            out.par_chunks_mut(f * ohow)
                .enumerate()
                .for_each(|(bi, out_b)| {
                    rows_to_planes(
                        &out_rows[bi * ohow * f..(bi + 1) * ohow * f],
                        out_b,
                        f,
                        ohow,
                        bias,
                    );
                });
        } else {
            for (bi, out_b) in out.chunks_mut(f * ohow).enumerate() {
                rows_to_planes(
                    &out_rows[bi * ohow * f..(bi + 1) * ohow * f],
                    out_b,
                    f,
                    ohow,
                    bias,
                );
            }
        }
    }

    /// Backward stage 1: blocked transpose of `grad_out` (`[B, F, OH·OW]`)
    /// into the position-major `dy_rows` (`[B·OH·OW, F]`) the GEMMs
    /// consume — per-sample-disjoint, fanned out when large.
    fn gather_dy_rows(&self, grad_out: &[f32], dy_rows: &mut [f32], b: usize, ohow: usize) {
        let f = self.out_channels;
        if stage_parallel(b, b * f * ohow) {
            dy_rows
                .par_chunks_mut(ohow * f)
                .enumerate()
                .for_each(|(bi, rows_b)| {
                    planes_to_rows(
                        &grad_out[bi * f * ohow..(bi + 1) * f * ohow],
                        rows_b,
                        f,
                        ohow,
                    );
                });
        } else {
            for (bi, rows_b) in dy_rows.chunks_mut(ohow * f).enumerate() {
                planes_to_rows(
                    &grad_out[bi * f * ohow..(bi + 1) * f * ohow],
                    rows_b,
                    f,
                    ohow,
                );
            }
        }
    }

    /// Backward stage 2: `db += plane sums of dY`, sample by sample.
    fn accumulate_bias_grad(&mut self, grad_out: &[f32], b: usize, ohow: usize) {
        let f = self.out_channels;
        for bi in 0..b {
            let gout_b = &grad_out[bi * f * ohow..(bi + 1) * f * ohow];
            for (fi, plane) in gout_b.chunks_exact(ohow).enumerate() {
                self.grad_bias.data_mut()[fi] += plane.iter().sum::<f32>();
            }
        }
    }

    /// Backward stage 3: `dW += dY_rowsᵀ · cols`, k-blocked in per-sample
    /// chunks. Chaining `β = 1` calls performs the identical addition
    /// sequence of the single whole-batch `gemm_tn`, and
    /// each chunk's `cols` rows (the B operand, read in place) stay
    /// cache-resident — the whole-batch call has `k = B·OH·OW` rows, which
    /// overflow L2 at training batch sizes and would be re-streamed from
    /// memory once per row-tile of the tiny `[F, C·k·k]` output.
    fn gemm_grad_weight(&mut self, dy_rows: &[f32], cols: &[f32], b: usize, ohow: usize) {
        let (f, ckk) = (self.out_channels, self.ckk());
        for bi in 0..b {
            par_gemm_tn(
                &dy_rows[bi * ohow * f..(bi + 1) * ohow * f],
                &cols[bi * ohow * ckk..(bi + 1) * ohow * ckk],
                self.grad_weight.data_mut(),
                f,
                ohow,
                ckk,
                1.0,
                1.0,
            );
        }
    }

    /// Backward stage 4: `dcols = dY_rows · W`.
    fn gemm_grad_cols(&self, dy_rows: &[f32], dcols: &mut [f32], b: usize, ohow: usize) {
        let (f, ckk) = (self.out_channels, self.ckk());
        par_gemm(
            dy_rows,
            self.weight.data(),
            dcols,
            b * ohow,
            f,
            ckk,
            1.0,
            0.0,
        );
    }

    /// Backward stage 5: batched col2im — scatter `dcols` back onto the
    /// (zeroed) input gradient. Each sample accumulates only into its own
    /// `[C, H, W]` block, so the fan-out is write-disjoint and the
    /// per-element accumulation order is banding-independent.
    fn scatter_grad_input(&self, dcols: &[f32], grad_in: &mut [f32], b: usize, h: usize, w: usize) {
        let (c, ckk) = (self.in_channels, self.ckk());
        let (oh, ow) = self.out_size(h, w);
        let sample_in = c * h * w;
        let sample_cols = oh * ow * ckk;
        let scatter_one = |bi: usize, gin_b: &mut [f32]| {
            col2im_rows(
                &dcols[bi * sample_cols..(bi + 1) * sample_cols],
                c,
                h,
                w,
                self.kernel,
                self.stride,
                self.pad,
                oh,
                ow,
                gin_b,
            );
        };
        if stage_parallel(b, b * sample_cols) {
            grad_in
                .par_chunks_mut(sample_in)
                .enumerate()
                .for_each(|(bi, gin_b)| scatter_one(bi, gin_b));
        } else {
            for (bi, gin_b) in grad_in.chunks_mut(sample_in).enumerate() {
                scatter_one(bi, gin_b);
            }
        }
    }
}

/// Wall-clock breakdown of one conv forward+backward step's stages,
/// aggregated by kind (see [`Conv2d::profile_step`]). `transpose_secs`
/// covers both orientation scatters and the bias work riding on them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvStageProfile {
    /// Batched im2col lowering (forward stage 1).
    pub im2col_secs: f64,
    /// All three GEMM stages (forward, `dW`, `dcols`).
    pub gemm_secs: f64,
    /// The `[B·OH·OW, F] ⇄ [B, F, OH·OW]` blocked transposes + bias.
    pub transpose_secs: f64,
    /// Batched col2im scatter (backward stage 5).
    pub col2im_secs: f64,
}

/// The kinds of work [`ConvStageProfile`] tells apart.
#[derive(Clone, Copy)]
enum Stage {
    Im2col,
    Gemm,
    Transpose,
    Col2im,
}

/// What the stages of a step run under: nothing when training
/// ([`Untimed`], which compiles away), a stopwatch per stage kind in
/// [`Conv2d::profile_step`]. One stage sequence serves both, so the
/// profile can only ever time the code production runs.
trait StageClock {
    fn time(&mut self, stage: Stage, f: impl FnOnce());
}

struct Untimed;

impl StageClock for Untimed {
    #[inline(always)]
    fn time(&mut self, _stage: Stage, f: impl FnOnce()) {
        f()
    }
}

impl StageClock for ConvStageProfile {
    fn time(&mut self, stage: Stage, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        let secs = t.elapsed().as_secs_f64();
        match stage {
            Stage::Im2col => self.im2col_secs += secs,
            Stage::Gemm => self.gemm_secs += secs,
            Stage::Transpose => self.transpose_secs += secs,
            Stage::Col2im => self.col2im_secs += secs,
        }
    }
}

impl Conv2d {
    /// Run one instrumented forward+backward step and return the per-stage
    /// wall-clock breakdown — the bench observability hook that makes the
    /// memory-bound-vs-compute-bound split visible across PRs.
    ///
    /// It profiles a layer's **full** step, the one every non-first conv
    /// layer of a model runs: both backward halves, `dcols` and col2im
    /// included. A model's first conv layer runs only the parameter half
    /// (transpose + `dW`), so its training step does no col2im at all.
    ///
    /// Uses the forward output as the incoming gradient (the shape is
    /// right and the values are irrelevant to timing); parameter gradients
    /// accumulate as in a normal step, so callers comparing numerics
    /// should `zero_grad` afterwards.
    pub fn profile_step(&mut self, input: &Tensor) -> ConvStageProfile {
        let mut scratch = std::mem::take(&mut self.profile_scratch);
        scratch.reset();
        let slot = scratch.alloc(input.len());
        scratch.slice_mut(slot).copy_from_slice(input.data());
        let x = ArenaBuf::new(slot, input.shape());
        let mut profile = ConvStageProfile::default();
        let out = self.forward_stages(x, &mut scratch, &mut profile);
        self.backward_stages(out, &mut scratch, &mut profile);
        self.profile_scratch = scratch;
        profile
    }

    /// Forward: im2col → GEMM → transpose-out (+ bias).
    fn forward_stages(
        &mut self,
        input: ArenaBuf,
        scratch: &mut Scratch,
        clock: &mut impl StageClock,
    ) -> ArenaBuf {
        let (b, _c, h, w) = self.check_input(input.dims());
        let (oh, ow) = self.out_size(h, w);
        let (f, ckk, ohow) = (self.out_channels, self.ckk(), oh * ow);
        self.cached_input_hw = (h, w);
        self.cached_batch = b;

        let cols = scratch.alloc(b * ohow * ckk);
        clock.time(Stage::Im2col, || {
            let (x, cols_mut) = scratch.ro_rw(input.slot(), cols);
            self.lower_batch(x, cols_mut, b, h, w);
        });
        let out_rows = scratch.alloc(b * ohow * f);
        clock.time(Stage::Gemm, || {
            let (cols_ro, rows_mut) = scratch.ro_rw(cols, out_rows);
            self.gemm_forward(cols_ro, rows_mut, b, ohow);
        });
        let out = scratch.alloc(b * f * ohow);
        clock.time(Stage::Transpose, || {
            let (rows_ro, out_mut) = scratch.ro_rw(out_rows, out);
            self.scatter_output(rows_ro, out_mut, b, ohow);
        });
        self.cols_slot = Some(cols);
        ArenaBuf::new(out, &[b, f, oh, ow])
    }

    /// Backward: the parameter half, then the input half.
    fn backward_stages(
        &mut self,
        grad_out: ArenaBuf,
        scratch: &mut Scratch,
        clock: &mut impl StageClock,
    ) -> ArenaBuf {
        let dy_rows = self.backward_param_stages(grad_out, scratch, clock);
        self.backward_input_stages(dy_rows, scratch, clock)
    }

    /// Backward, parameter half: transpose-dY (+ bias gradient) → `dW`
    /// GEMM. Returns the slot of the position-major `dy_rows` the input
    /// half consumes.
    fn backward_param_stages(
        &mut self,
        grad_out: ArenaBuf,
        scratch: &mut Scratch,
        clock: &mut impl StageClock,
    ) -> ScratchSlot {
        let (h, w) = self.cached_input_hw;
        assert!(h > 0, "Conv2d::backward before forward");
        let b = self.cached_batch;
        let cols = self
            .cols_slot
            .expect("Conv2d::backward_arena called before forward_arena");
        let (oh, ow) = self.out_size(h, w);
        let (f, ohow) = (self.out_channels, oh * ow);
        assert_eq!(grad_out.len(), b * f * ohow, "Conv2d: bad grad_out length");

        let dy_rows = scratch.alloc(b * ohow * f);
        clock.time(Stage::Transpose, || {
            let (gout, dy_mut) = scratch.ro_rw(grad_out.slot(), dy_rows);
            self.gather_dy_rows(gout, dy_mut, b, ohow);
            self.accumulate_bias_grad(gout, b, ohow);
        });
        clock.time(Stage::Gemm, || {
            let dy_ro = scratch.slice(dy_rows);
            let cols_ro = scratch.slice(cols);
            self.gemm_grad_weight(dy_ro, cols_ro, b, ohow);
        });
        dy_rows
    }

    /// Backward, input half: `dcols` GEMM → col2im onto the input
    /// gradient.
    fn backward_input_stages(
        &self,
        dy_rows: ScratchSlot,
        scratch: &mut Scratch,
        clock: &mut impl StageClock,
    ) -> ArenaBuf {
        let (h, w) = self.cached_input_hw;
        let b = self.cached_batch;
        let (oh, ow) = self.out_size(h, w);
        let (ckk, ohow, c) = (self.ckk(), oh * ow, self.in_channels);
        let dcols = scratch.alloc(b * ohow * ckk);
        clock.time(Stage::Gemm, || {
            let (dy_ro, dcols_mut) = scratch.ro_rw(dy_rows, dcols);
            self.gemm_grad_cols(dy_ro, dcols_mut, b, ohow);
        });
        let grad_in = scratch.alloc(b * c * h * w); // zero-filled for col2im
        clock.time(Stage::Col2im, || {
            let (dcols_ro, gin_mut) = scratch.ro_rw(dcols, grad_in);
            self.scatter_grad_input(dcols_ro, gin_mut, b, h, w);
        });
        ArenaBuf::new(grad_in, &[b, c, h, w])
    }
}

impl Layer for Conv2d {
    fn forward_arena(&mut self, input: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        self.forward_stages(input, scratch, &mut Untimed)
    }

    fn backward_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        self.backward_stages(grad_out, scratch, &mut Untimed)
    }

    fn backward_params_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) {
        self.backward_param_stages(grad_out, scratch, &mut Untimed);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_grads(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.grad_weight);
        f(&self.grad_bias);
    }

    fn visit_params_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::{check_input_gradient, check_param_gradients, ArenaDriver};
    use fedhisyn_tensor::rng_from_seed;

    /// Direct (nested-loop) convolution used as a reference.
    #[allow(clippy::too_many_arguments)] // mirrors the BLAS-style kernel signature
    fn reference_conv(
        x: &[f32],
        c: usize,
        h: usize,
        w: usize,
        wt: &[f32],
        f: usize,
        k: usize,
        stride: usize,
        pad: usize,
        bias: &[f32],
    ) -> Vec<f32> {
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let mut out = vec![0.0f32; f * oh * ow];
        for fi in 0..f {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[fi];
                    for ci in 0..c {
                        for ki in 0..k {
                            for kj in 0..k {
                                let iy = (oy * stride + ki) as isize - pad as isize;
                                let ix = (ox * stride + kj) as isize - pad as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    let xv = x[ci * h * w + iy as usize * w + ix as usize];
                                    let wv = wt[fi * c * k * k + ci * k * k + ki * k + kj];
                                    acc += xv * wv;
                                }
                            }
                        }
                    }
                    out[fi * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
        out
    }

    /// Give `layer` a random bias, run `x` through its arena forward pass
    /// and hold every sample of the output to the direct convolution.
    fn assert_forward_matches_direct(layer: &mut Conv2d, x: &Tensor, rng: &mut impl Rng) {
        layer.bias = Tensor::randn(vec![layer.out_channels], 0.5, rng);
        let got = ArenaDriver::new().forward(layer, x);
        let (b, c, h, w) = layer.check_input(x.shape());
        let (oh, ow) = layer.out_size(h, w);
        let f = layer.out_channels;
        assert_eq!(got.shape(), &[b, f, oh, ow]);
        let samples = x.data().chunks_exact(c * h * w);
        for (bi, (x_b, got_b)) in samples
            .zip(got.data().chunks_exact(f * oh * ow))
            .enumerate()
        {
            let expected = reference_conv(
                x_b,
                c,
                h,
                w,
                layer.weight.data(),
                f,
                layer.kernel,
                layer.stride,
                layer.pad,
                layer.bias.data(),
            );
            for (i, (&g, &e)) in got_b.iter().zip(&expected).enumerate() {
                assert!((g - e).abs() < 1e-4, "sample {bi} elem {i}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn forward_matches_direct_convolution() {
        let mut rng = rng_from_seed(0);
        let mut layer = Conv2d::new(2, 3, 3, 1, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![1, 2, 5, 5], 1.0, &mut rng);
        assert_forward_matches_direct(&mut layer, &x, &mut rng);
    }

    #[test]
    fn strided_forward_matches_direct_convolution() {
        let mut rng = rng_from_seed(10);
        let mut layer = Conv2d::with_stride(2, 3, 3, 2, 1, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![2, 2, 7, 7], 1.0, &mut rng);
        assert_forward_matches_direct(&mut layer, &x, &mut rng);
    }

    #[test]
    fn no_padding_shrinks_output() {
        let mut rng = rng_from_seed(1);
        let mut layer = Conv2d::new(1, 2, 3, 0, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![2, 1, 6, 6], 1.0, &mut rng);
        let y = ArenaDriver::new().forward(&mut layer, &x);
        assert_eq!(y.shape(), &[2, 2, 4, 4]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = rng_from_seed(2);
        let mut layer = Conv2d::new(2, 3, 3, 1, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![2, 2, 4, 4], 1.0, &mut rng);
        check_input_gradient(&mut layer, &x, 3e-2);
    }

    #[test]
    fn param_gradients_match_finite_difference() {
        let mut rng = rng_from_seed(3);
        let mut layer = Conv2d::new(1, 2, 3, 1, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![1, 1, 4, 4], 1.0, &mut rng);
        check_param_gradients(&mut layer, &x, 3e-2);
    }

    #[test]
    fn strided_gradients_match_finite_difference() {
        let mut rng = rng_from_seed(13);
        let mut layer = Conv2d::with_stride(2, 3, 3, 2, 1, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![2, 2, 5, 5], 1.0, &mut rng);
        check_input_gradient(&mut layer, &x, 3e-2);
        let mut layer = Conv2d::with_stride(1, 2, 3, 2, 1, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![1, 1, 5, 5], 1.0, &mut rng);
        check_param_gradients(&mut layer, &x, 3e-2);
    }

    #[test]
    fn unit_kernel_conv_matches_direct_convolution_and_gradients() {
        // The general im2col/col2im path's 1×1 case: forward against the
        // nested-loop reference, and both gradient checks.
        let mut rng = rng_from_seed(41);
        let mut layer = Conv2d::new(3, 4, 1, 0, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![2, 3, 4, 5], 1.0, &mut rng);
        assert_forward_matches_direct(&mut layer, &x, &mut rng);
        let mut layer = Conv2d::new(2, 3, 1, 0, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![2, 2, 4, 4], 1.0, &mut rng);
        check_input_gradient(&mut layer, &x, 3e-2);
        check_param_gradients(&mut layer, &x, 3e-2);
    }

    #[test]
    fn border_windows_match_the_checked_copy_across_strides() {
        // The interior-window memcpy fast path must splice exactly with
        // the clipped border path for every (stride, pad) combination the
        // layer supports — compare whole forwards against the reference.
        for &(h, w, k, stride, pad) in &[
            (6, 6, 3, 1, 1),
            (7, 5, 3, 2, 1),
            (5, 5, 5, 1, 2),
            (8, 8, 3, 3, 0),
        ] {
            let mut rng = rng_from_seed(42);
            let mut layer = Conv2d::with_stride(2, 3, k, stride, pad, Init::HeNormal, &mut rng);
            let x = Tensor::randn(vec![1, 2, h, w], 1.0, &mut rng);
            assert_forward_matches_direct(&mut layer, &x, &mut rng);
        }
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // on the batch-major row layout, for stride 1 and 2.
        for stride in [1usize, 2] {
            let mut rng = rng_from_seed(4 + stride as u64);
            let (c, h, w, k, pad) = (2, 5, 5, 3, 1);
            let (oh, ow) = (
                (h + 2 * pad - k) / stride + 1,
                (w + 2 * pad - k) / stride + 1,
            );
            let x = Tensor::randn(vec![c * h * w], 1.0, &mut rng);
            let y = Tensor::randn(vec![oh * ow * c * k * k], 1.0, &mut rng);
            let mut cols = vec![0.0f32; oh * ow * c * k * k];
            im2col_rows(x.data(), c, h, w, k, stride, pad, oh, ow, &mut cols);
            let lhs: f32 = cols.iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
            let mut xt = vec![0.0f32; c * h * w];
            col2im_rows(y.data(), c, h, w, k, stride, pad, oh, ow, &mut xt);
            let rhs: f32 = x.data().iter().zip(&xt).map(|(&a, &b)| a * b).sum();
            assert!(
                (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
                "stride {stride}: {lhs} vs {rhs}"
            );
        }
    }

    /// Batch-size independence at layer granularity: one step on the
    /// batch and one step per sample (no `zero_grad` in between) produce
    /// bit-identical outputs and gradients (the exhaustive proptest lives
    /// in `tests/conv_batched.rs`).
    #[test]
    fn batched_matches_per_sample_reference_exactly() {
        let mut rng = rng_from_seed(21);
        let (c, h, w, f, k, pad, b) = (3, 6, 6, 4, 3, 1, 5);
        let mut batched = Conv2d::new(c, f, k, pad, Init::HeNormal, &mut rng);
        let mut per_sample = batched.clone();
        let x = Tensor::randn(vec![b, c, h, w], 1.0, &mut rng);
        let mut arena = ArenaDriver::new();
        let yb = arena.forward(&mut batched, &x);
        let gb = arena.backward(&mut batched, &yb);
        let (mut ys, mut gs) = (Vec::new(), Vec::new());
        for sample in x.data().chunks_exact(c * h * w) {
            let x1 = Tensor::from_vec(vec![1, c, h, w], sample.to_vec());
            let y1 = arena.forward(&mut per_sample, &x1);
            gs.extend_from_slice(arena.backward(&mut per_sample, &y1).data());
            ys.extend_from_slice(y1.data());
        }
        assert_eq!(yb.data(), &ys[..], "forward diverged");
        assert_eq!(gb.data(), &gs[..], "input gradients diverged");
        assert_eq!(
            grads_of_conv(&batched),
            grads_of_conv(&per_sample),
            "parameter gradients diverged"
        );
    }

    #[test]
    fn param_count() {
        let mut rng = rng_from_seed(5);
        let layer = Conv2d::new(3, 8, 5, 2, Init::HeNormal, &mut rng);
        assert_eq!(layer.param_count(), 8 * 3 * 25 + 8);
    }

    /// A spatial size whose `OH·OW` crosses `TRANSPOSE_TILE`, so the
    /// blocked transposes execute multiple tiles along the position axis —
    /// proven against the direct nested-loop convolution (which shares no
    /// code with the im2col path).
    #[test]
    fn forward_matches_direct_convolution_across_transpose_tiles() {
        let mut rng = rng_from_seed(31);
        let (h, w) = (12, 12);
        assert!(h * w > TRANSPOSE_TILE, "shape must span multiple tiles");
        let mut layer = Conv2d::new(2, 3, 3, 1, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![2, 2, h, w], 1.0, &mut rng);
        assert_forward_matches_direct(&mut layer, &x, &mut rng);
    }

    /// The stage profiler must time every stage of a real step (all four
    /// buckets nonzero-able, totals positive) without perturbing numerics.
    #[test]
    fn profile_step_reports_all_stages() {
        let mut rng = rng_from_seed(41);
        let mut layer = Conv2d::new(2, 3, 3, 1, Init::HeNormal, &mut rng);
        let mut check = layer.clone();
        let x = Tensor::randn(vec![3, 2, 6, 6], 1.0, &mut rng);
        let profile = layer.profile_step(&x);
        let p = &profile;
        assert!(p.im2col_secs + p.gemm_secs + p.transpose_secs + p.col2im_secs > 0.0);
        assert!(
            profile.im2col_secs >= 0.0
                && profile.gemm_secs >= 0.0
                && profile.transpose_secs >= 0.0
                && profile.col2im_secs >= 0.0
        );
        // The profiled step performs the exact same computation sequence
        // as forward + backward-on-the-output.
        let mut arena = ArenaDriver::new();
        let y = arena.forward(&mut check, &x);
        let _ = arena.backward(&mut check, &y);
        assert_eq!(grads_of_conv(&layer), grads_of_conv(&check));
    }

    fn grads_of_conv(layer: &Conv2d) -> Vec<f32> {
        let mut out = Vec::new();
        layer.visit_grads(&mut |t| out.extend_from_slice(t.data()));
        out
    }
}

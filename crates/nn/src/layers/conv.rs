//! 2-D stride-1 convolution via per-sample, tap-major im2col + GEMMs that
//! read their operands in place.
//!
//! # Tap-major lowering
//!
//! Each sample is lowered into its own `[C·K·K, OH·OW]` block of `cols`:
//! row `(c, ki, kj)` — one kernel *tap* — holds the input value that tap
//! sees at every output position, column `oy·OW + ox`. [`tap_cols`] gives
//! the rows and columns where a tap reads the input rather than padding.
//! Where `OW == W` (a "same" convolution, `2·pad = K − 1`, which is what
//! `cnn_fedavg` runs), output position `d` of a tap reads input `d + shift`
//! of its channel plane, so im2col and col2im move each tap's valid rows
//! as **one shifted block** — one copy, or one add loop — instead of one
//! run per output row. The block also covers the clipped columns, where it
//! wraps onto the neighbouring rows' ends: im2col zeroes them again after
//! the copy, and col2im first sets them to `−0.0` in `dcols`
//! ([`neutralise_clipped_taps`]), the exact additive identity, so the
//! block adds nothing there. Other paddings move one run per output row.
//!
//! With that layout every stage is a plain GEMM on row-major operands, per
//! sample, each reading NCHW data where it lies:
//!
//! * forward: `Y_b[F, OH·OW] = W[F, C·K·K] · cols_b` (`gemm`), written
//!   straight into the sample's output planes, then `+ bias` per plane;
//! * `dW`: `dWᵀ[C·K·K, F] += cols_b · dY_bᵀ` (`gemm_nt`, `β = 1`,
//!   chained over the samples in order) on the layer's transposed copy of
//!   the gradient, reading the NCHW `dY` in place as the transposed B;
//! * `dcols_b[C·K·K, OH·OW] = Wᵀ · dY_b` (`gemm_tn`), reading the NCHW
//!   `dY` in place;
//! * col2im scatters `dcols_b` back onto `[C, H, W]`.
//!
//! Per-sample calls copy nothing but the `dW` call's `dY_b`: the GEMM
//! kernels read row-major A and B in place, and only a `gemm_nt` B is
//! packed, once per call, so `B` per-sample calls pack no more than one
//! whole-batch call would. The `dW` stage, with the bias gradient ahead of
//! it, is the parameter half
//! ([`Layer::backward_params_arena`]); `dcols` and col2im are the input
//! half. A model's first conv layer runs only the parameter half, since
//! its input is the staged batch.
//!
//! # Summation order
//!
//! The pinned bits (`epoch_parameter_bits_are_pinned` and the pinned table
//! in `tests/determinism.rs`) were recorded under an earlier
//! position-major `[B·OH·OW, C·K·K]` layout, so every element keeps that
//! layout's operation sequence; only the addresses its values are loaded
//! from differ. The forward sums `w·x` (IEEE multiplication commutes with
//! the old `x·w`) over `(c, ki, kj)` in order from +0 and adds the bias
//! last; `dW` chains each position's product onto the running gradient
//! from a `β = 1` seed; `dcols` sums over `f` in order; and col2im adds
//! each input element's contributions in ascending output-position order.
//! col2im gets that order by visiting the taps in **descending**
//! `(c, ki, kj)` order: for a fixed input element, the output position
//! `oy·OW + ox` a tap `(ki, kj)` reaches it from strictly decreases as
//! `(ki, kj)` increases, for any padding. The unit tests hold
//! every stage exactly to direct loops in this order.
//!
//! # Batch-size independence
//!
//! One step on a batch of `B` is **bit-identical** to `B` steps on batches
//! of one with no `zero_grad` in between: every stage but `dW` is a
//! per-sample call, and `dW` is the same chained per-sample `β = 1`
//! accumulation either way. `tests/conv_batched.rs` proves this across
//! batch remainders, kernel sizes, padding and the GEMM dispatch edges.
//!
//! Every workspace (`cols`, `dcols`) is carved zero-filled from the step's
//! [`Scratch`], and im2col relies on that fill: a tap writes only where it
//! reads the input, so its padding positions keep the arena's zeros. The
//! layer itself holds only parameters, gradients (and the
//! `[C·K·K, F]` transposed weight gradient the `dW` chain accumulates
//! into) and the handle of the current step's `cols`.
//!
//! # Parallel stages
//!
//! Every stage but the `dW` chain is **per-sample-disjoint** — sample `bi`
//! writes only its own block — so when a layer's `cols` reaches
//! [`PAR_STAGE_MIN_ELEMS`] each stage fans out across the rayon pool in
//! deterministic one-sample bands (`par_chunks_mut(sample_len)`), each
//! band running the serial GEMM kernels. Banding changes which thread
//! computes a sample, never the values or the write locations, so
//! bit-determinism holds for any thread count. Below the threshold the
//! stages loop over the samples inline through the `par_*` GEMM entry
//! points, which also keeps the zero-alloc steady-state contract at
//! test/smoke sizes (parallel dispatch boxes jobs).

use std::time::Instant;

use fedhisyn_tensor::{
    gemm, gemm_tn, par_gemm, par_gemm_nt, par_gemm_tn, Scratch, ScratchSlot, Tensor,
};
use rand::Rng;
use rayon::prelude::*;

use crate::arena::ArenaBuf;
use crate::init::Init;
use crate::layers::Layer;

/// 2-D stride-1 convolution with square kernels and symmetric padding.
///
/// Input is `[B, C, H, W]`; output `[B, F, OH, OW]` where
/// `OH = H + 2·pad − k + 1`. The kernel bank is stored as a
/// `[F, C·k·k]` matrix, consumed in place as the A operand of each
/// sample's forward GEMM (see the module docs for the tap-major layout).
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    /// `grad_weight` transposed to `[C·k·k, F]`: the `dW` chain's GEMM
    /// output, copied in from and back out to `grad_weight` every step.
    grad_weight_t: Vec<f32>,
    grad_bias: Tensor,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
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
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = init.sample(vec![out_channels, fan_in], fan_in, fan_out, rng);
        Conv2d {
            weight,
            bias: Tensor::zeros(vec![out_channels]),
            grad_weight: Tensor::zeros(vec![out_channels, fan_in]),
            grad_weight_t: vec![0.0; fan_in * out_channels],
            grad_bias: Tensor::zeros(vec![out_channels]),
            in_channels,
            out_channels,
            kernel,
            pad,
            cols_slot: None,
            cached_input_hw: (0, 0),
            cached_batch: 0,
            profile_scratch: Scratch::new(),
        }
    }

    /// Output spatial size for an input spatial size.
    fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        (
            h + 2 * self.pad - self.kernel + 1,
            w + 2 * self.pad - self.kernel + 1,
        )
    }

    fn ckk(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// The run `[lo, hi)` of output columns (or rows) at which kernel offset
/// `kj` lands inside the `w`-wide input: `ox + kj − pad ∈ [0, w)`.
/// Empty (`lo == hi`) when the offset only ever sees padding.
fn tap_cols(ow: usize, w: usize, kj: usize, pad: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(kj).min(ow);
    let hi = (w + pad).saturating_sub(kj).min(ow);
    (lo, hi.max(lo))
}

/// Lower one `[C, H, W]` sample into its tap-major `[C·k·k, OH·OW]` block
/// of `cols`, which must be zero-filled (arena slots are): a tap writes
/// only the positions where it reads the input.
///
/// Where `OW == W`, output position `d` of a tap reads input `d + shift`
/// of its channel plane, so the tap's valid rows are one shifted block of
/// the plane: one copy, after which the clipped columns, which the block
/// filled with the neighbouring rows' ends, are zeroed again.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel internals
fn im2col_taps(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    debug_assert_eq!(x.len(), c * h * w);
    debug_assert_eq!(cols.len(), c * k * k * oh * ow);
    for (tap, tap_row) in cols.chunks_exact_mut(oh * ow).enumerate() {
        let (ci, ki, kj) = (tap / (k * k), tap / k % k, tap % k);
        let (ylo, yhi) = tap_cols(oh, h, ki, pad);
        let (xlo, xhi) = tap_cols(ow, w, kj, pad);
        if ylo == yhi || xlo == xhi {
            continue;
        }
        let plane = &x[ci * h * w..(ci + 1) * h * w];
        let src = |oy: usize| (oy + ki - pad) * w + xlo + kj - pad;
        if ow == w {
            let (first, last) = (ylo * w + xlo, (yhi - 1) * w + xhi);
            tap_row[first..last].copy_from_slice(&plane[src(ylo)..][..last - first]);
            fill_clipped_cols(tap_row, w, (ylo, yhi), (xlo, xhi), 0.0);
        } else {
            for oy in ylo..yhi {
                tap_row[oy * ow + xlo..oy * ow + xhi]
                    .copy_from_slice(&plane[src(oy)..][..xhi - xlo]);
            }
        }
    }
}

/// Write `value` into the clipped columns (outside `xlo..xhi`) of rows
/// `ylo..yhi` of one `W`-wide tap row: a strided pass per clipped column.
fn fill_clipped_cols(
    tap_row: &mut [f32],
    w: usize,
    (ylo, yhi): (usize, usize),
    (xlo, xhi): (usize, usize),
    value: f32,
) {
    for col in (0..xlo).chain(xhi..w) {
        for v in tap_row[ylo * w + col..yhi * w].iter_mut().step_by(w) {
            *v = value;
        }
    }
}

/// Prepare one sample's tap-major column gradient for [`col2im_taps`]:
/// where `OW == W`, overwrite every clipped position inside a tap's valid
/// rows with `−0.0`, the exact additive identity (`v + (−0.0) == v` for
/// every `v`, `±0` included), so the tap can add its rows as one shifted
/// block. Those positions are gradients of padding, which nothing reads.
fn neutralise_clipped_taps(cols: &mut [f32], h: usize, w: usize, k: usize, pad: usize) {
    let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
    if ow != w {
        return;
    }
    for (tap, tap_row) in cols.chunks_exact_mut(oh * ow).enumerate() {
        let (ki, kj) = (tap / k % k, tap % k);
        let (rows, run) = (tap_cols(oh, h, ki, pad), tap_cols(ow, w, kj, pad));
        if rows.0 < rows.1 && run.0 < run.1 {
            fill_clipped_cols(tap_row, w, rows, run, -0.0);
        }
    }
}

/// Scatter one sample's tap-major `[C·k·k, OH·OW]` column gradient back
/// onto `[C, H, W]` (accumulating; `x` must be zeroed by the caller).
/// Taps run in descending order, so each input element receives its
/// contributions in ascending output-position order (module docs).
///
/// Where `OW == W`, each tap adds its valid rows as one shifted block,
/// which needs `cols` prepared by [`neutralise_clipped_taps`]: the block
/// then adds `−0.0` wherever it wraps onto a neighbouring row's end.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel internals
fn col2im_taps(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    x: &mut [f32],
) {
    debug_assert_eq!(x.len(), c * h * w);
    debug_assert_eq!(cols.len(), c * k * k * oh * ow);
    for (tap, tap_row) in cols.chunks_exact(oh * ow).enumerate().rev() {
        let (ci, ki, kj) = (tap / (k * k), tap / k % k, tap % k);
        let (ylo, yhi) = tap_cols(oh, h, ki, pad);
        let (xlo, xhi) = tap_cols(ow, w, kj, pad);
        if ylo == yhi || xlo == xhi {
            continue;
        }
        let plane = &mut x[ci * h * w..(ci + 1) * h * w];
        let dst = |oy: usize| (oy + ki - pad) * w + xlo + kj - pad;
        if ow == w {
            let (first, last) = (ylo * w + xlo, (yhi - 1) * w + xhi);
            let block = plane[dst(ylo)..][..last - first].iter_mut();
            for (d, &s) in block.zip(&tap_row[first..last]) {
                *d += s;
            }
        } else {
            for oy in ylo..yhi {
                let row = plane[dst(oy)..][..xhi - xlo].iter_mut();
                for (d, &s) in row.zip(&tap_row[oy * ow + xlo..oy * ow + xhi]) {
                    *d += s;
                }
            }
        }
    }
}

/// Minimum number of `f32` elements in a layer's `cols` before its stages
/// fan out across the pool in per-sample bands. Below this the fork/join
/// overhead (and the job boxing it implies) dominates — and the zero-alloc
/// steady-state tests/smokes are all sized under it, so they keep running
/// inline on the measuring thread on any host.
///
/// At `1 << 16` the batch-8 smoke shapes (conv 1 `cols` ≈ 55k elements),
/// where fork/join would cost more than the microseconds of work it
/// splits, stay inline, while `cnn_fedavg`'s training batches of 20 fan
/// out on both conv layers. One decision per layer and step, measured on
/// `cols`, covers all of its stages, so the per-sample GEMMs band with
/// the copies around them.
const PAR_STAGE_MIN_ELEMS: usize = 1 << 16;

/// True when a layer whose `cols` holds `elems` floats over `b` samples
/// should run its stages in per-sample bands (module docs, "Parallel
/// stages").
#[inline]
fn stage_parallel(b: usize, elems: usize) -> bool {
    b > 1 && elems >= PAR_STAGE_MIN_ELEMS && rayon::current_num_threads() > 1
}

/// Run `stage(bi, chunk)` on each sample's `len`-float chunk of `dst`: in
/// one-sample bands across the pool when `banded`, else in order.
fn per_sample(dst: &mut [f32], len: usize, banded: bool, stage: impl Fn(usize, &mut [f32]) + Sync) {
    if banded {
        dst.par_chunks_mut(len)
            .enumerate()
            .for_each(|(bi, chunk)| stage(bi, chunk));
    } else {
        for (bi, chunk) in dst.chunks_mut(len).enumerate() {
            stage(bi, chunk);
        }
    }
}

/// Transpose a row-major `[rows, cols]` matrix into `dst` (`[cols, rows]`):
/// the weight gradient to and from its transposed GEMM operand.
fn transpose(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), cols * rows);
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
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

    /// The step's shape: batch, input and output spatial sizes, and
    /// whether its stages run in per-sample bands.
    fn step_shape(&self) -> (usize, (usize, usize), (usize, usize), bool) {
        let (h, w) = self.cached_input_hw;
        let b = self.cached_batch;
        let (oh, ow) = self.out_size(h, w);
        (
            b,
            (h, w),
            (oh, ow),
            stage_parallel(b, b * self.ckk() * oh * ow),
        )
    }

    /// im2col: lower every sample into its tap-major block of `cols`.
    fn lower_batch(&self, x: &[f32], cols: &mut [f32]) {
        let (_, (h, w), (oh, ow), banded) = self.step_shape();
        let c = self.in_channels;
        per_sample(cols, self.ckk() * oh * ow, banded, |bi, cols_b| {
            let x_b = &x[bi * c * h * w..(bi + 1) * c * h * w];
            im2col_taps(x_b, c, h, w, self.kernel, self.pad, oh, ow, cols_b);
        });
    }

    /// Forward GEMM: `Y_b[F, OH·OW] = W · cols_b` per sample, straight
    /// into the output planes.
    fn gemm_forward(&self, cols: &[f32], out: &mut [f32]) {
        let (_, _, (oh, ow), banded) = self.step_shape();
        let (f, ckk, ohow) = (self.out_channels, self.ckk(), oh * ow);
        let nn = if banded { gemm } else { par_gemm };
        per_sample(out, f * ohow, banded, |bi, out_b| {
            let cols_b = &cols[bi * ckk * ohow..(bi + 1) * ckk * ohow];
            nn(self.weight.data(), cols_b, out_b, f, ckk, ohow, 1.0, 0.0);
        });
    }

    /// Add each filter's bias to its output planes.
    fn add_bias(&self, out: &mut [f32]) {
        let (_, _, (oh, ow), banded) = self.step_shape();
        let ohow = oh * ow;
        per_sample(out, self.out_channels * ohow, banded, |_, out_b| {
            for (plane, &bv) in out_b.chunks_exact_mut(ohow).zip(self.bias.data()) {
                plane.iter_mut().for_each(|v| *v += bv);
            }
        });
    }

    /// `db += plane sums of dY`, sample by sample.
    fn accumulate_bias_grad(&mut self, grad_out: &[f32]) {
        let (_, _, (oh, ow), _) = self.step_shape();
        let (f, ohow) = (self.out_channels, oh * ow);
        for gout_b in grad_out.chunks_exact(f * ohow) {
            for (fi, plane) in gout_b.chunks_exact(ohow).enumerate() {
                self.grad_bias.data_mut()[fi] += plane.iter().sum::<f32>();
            }
        }
    }

    /// `dWᵀ += cols_b · dY_bᵀ`, chained sample by sample on the
    /// transposed gradient `grad_weight_t` (`[C·k·k, F]`) — the same
    /// `β = 1` addition sequence per element as one whole-batch reduction,
    /// with each sample's operands read in place.
    fn gemm_grad_weight(&mut self, cols: &[f32], grad_out: &[f32]) {
        let (_, _, (oh, ow), _) = self.step_shape();
        let (f, ckk, ohow) = (self.out_channels, self.ckk(), oh * ow);
        let samples = cols
            .chunks_exact(ckk * ohow)
            .zip(grad_out.chunks_exact(f * ohow));
        let gwt = &mut self.grad_weight_t;
        for (cols_b, dy_b) in samples {
            par_gemm_nt(cols_b, dy_b, gwt, ckk, ohow, f, 1.0, 1.0);
        }
    }

    /// `dcols_b = Wᵀ · dY_b` per sample, reading the NCHW `dY` in place.
    fn gemm_grad_cols(&self, grad_out: &[f32], dcols: &mut [f32]) {
        let (_, _, (oh, ow), banded) = self.step_shape();
        let (f, ckk, ohow) = (self.out_channels, self.ckk(), oh * ow);
        let tn = if banded { gemm_tn } else { par_gemm_tn };
        per_sample(dcols, ckk * ohow, banded, |bi, dcols_b| {
            let dy_b = &grad_out[bi * f * ohow..(bi + 1) * f * ohow];
            tn(self.weight.data(), dy_b, dcols_b, ckk, f, ohow, 1.0, 0.0);
        });
    }

    /// Ready every sample's `dcols` block for its block-wise col2im
    /// ([`neutralise_clipped_taps`]).
    fn neutralise_clipped(&self, dcols: &mut [f32]) {
        let (_, (h, w), (oh, ow), banded) = self.step_shape();
        let (k, pad) = (self.kernel, self.pad);
        per_sample(dcols, self.ckk() * oh * ow, banded, |_, dcols_b| {
            neutralise_clipped_taps(dcols_b, h, w, k, pad);
        });
    }

    /// col2im: scatter every sample's `dcols` block back onto its own
    /// (zeroed) `[C, H, W]` block of the input gradient.
    fn scatter_grad_input(&self, dcols: &[f32], grad_in: &mut [f32]) {
        let (_, (h, w), (oh, ow), banded) = self.step_shape();
        let (c, ckk) = (self.in_channels, self.ckk());
        per_sample(grad_in, c * h * w, banded, |bi, gin_b| {
            let dcols_b = &dcols[bi * ckk * oh * ow..(bi + 1) * ckk * oh * ow];
            col2im_taps(dcols_b, c, h, w, self.kernel, self.pad, oh, ow, gin_b);
        });
    }
}

/// Wall-clock breakdown of one conv forward+backward step's stages,
/// aggregated by kind (see [`Conv2d::profile_step`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvStageProfile {
    /// Tap-major im2col lowering (forward stage 1).
    pub im2col_secs: f64,
    /// All three GEMM stages (forward, `dW`, `dcols`).
    pub gemm_secs: f64,
    /// The data movement around the GEMMs: the forward bias pass, the
    /// bias gradient, and the two copies of the transposed weight
    /// gradient. The `dW` call's packing of `dY` is timed under
    /// [`ConvStageProfile::gemm_secs`].
    pub transpose_secs: f64,
    /// Tap-major col2im scatter (the input half's last stage), with the
    /// pass that readies `dcols` for its block adds.
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
    /// (bias gradient + `dW`), so its training step does no col2im at all.
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

    /// Forward: im2col → GEMM into the output planes → bias.
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

        let cols = scratch.alloc(b * ckk * ohow);
        clock.time(Stage::Im2col, || {
            let (x, cols_mut) = scratch.ro_rw(input.slot(), cols);
            self.lower_batch(x, cols_mut);
        });
        let out = scratch.alloc(b * f * ohow);
        clock.time(Stage::Gemm, || {
            let (cols_ro, out_mut) = scratch.ro_rw(cols, out);
            self.gemm_forward(cols_ro, out_mut);
        });
        clock.time(Stage::Transpose, || self.add_bias(scratch.slice_mut(out)));
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
        self.backward_param_stages(grad_out, scratch, clock);
        self.backward_input_stages(grad_out, scratch, clock)
    }

    /// Backward, parameter half: bias gradient → `dW` GEMM on the
    /// transposed gradient.
    fn backward_param_stages(
        &mut self,
        grad_out: ArenaBuf,
        scratch: &mut Scratch,
        clock: &mut impl StageClock,
    ) {
        let (b, (h, _), (oh, ow), _) = self.step_shape();
        assert!(h > 0, "Conv2d::backward before forward");
        let cols = self
            .cols_slot
            .expect("Conv2d::backward_arena called before forward_arena");
        let (f, ckk, ohow) = (self.out_channels, self.ckk(), oh * ow);
        assert_eq!(grad_out.len(), b * f * ohow, "Conv2d: bad grad_out length");

        let gout = scratch.slice(grad_out.slot());
        clock.time(Stage::Transpose, || {
            self.accumulate_bias_grad(gout);
            transpose(self.grad_weight.data(), &mut self.grad_weight_t, f, ckk);
        });
        clock.time(Stage::Gemm, || {
            self.gemm_grad_weight(scratch.slice(cols), gout);
        });
        clock.time(Stage::Transpose, || {
            transpose(&self.grad_weight_t, self.grad_weight.data_mut(), ckk, f);
        });
    }

    /// Backward, input half: `dcols` GEMM → col2im onto the input
    /// gradient.
    fn backward_input_stages(
        &self,
        grad_out: ArenaBuf,
        scratch: &mut Scratch,
        clock: &mut impl StageClock,
    ) -> ArenaBuf {
        let (b, (h, w), (oh, ow), _) = self.step_shape();
        let (ckk, c) = (self.ckk(), self.in_channels);
        let dcols = scratch.alloc(b * ckk * oh * ow);
        clock.time(Stage::Gemm, || {
            let (gout, dcols_mut) = scratch.ro_rw(grad_out.slot(), dcols);
            self.gemm_grad_cols(gout, dcols_mut);
        });
        let grad_in = scratch.alloc(b * c * h * w); // zero-filled for col2im
        clock.time(Stage::Col2im, || {
            self.neutralise_clipped(scratch.slice_mut(dcols));
            let (dcols_ro, gin_mut) = scratch.ro_rw(dcols, grad_in);
            self.scatter_grad_input(dcols_ro, gin_mut);
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
        pad: usize,
        bias: &[f32],
    ) -> Vec<f32> {
        let oh = h + 2 * pad - k + 1;
        let ow = w + 2 * pad - k + 1;
        let mut out = vec![0.0f32; f * oh * ow];
        for fi in 0..f {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[fi];
                    for ci in 0..c {
                        for ki in 0..k {
                            for kj in 0..k {
                                let iy = (oy + ki) as isize - pad as isize;
                                let ix = (ox + kj) as isize - pad as isize;
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
    fn clipped_tap_runs_match_the_direct_convolution() {
        // Each tap row's contiguous run must splice exactly with its
        // zero-filled clipped ends for every padding — compare whole
        // forwards against the reference.
        for &(h, w, k, pad) in &[(6, 6, 3, 1), (7, 5, 3, 1), (5, 5, 5, 2), (8, 8, 3, 0)] {
            let mut rng = rng_from_seed(42);
            let mut layer = Conv2d::new(2, 3, k, pad, Init::HeNormal, &mut rng);
            let x = Tensor::randn(vec![1, 2, h, w], 1.0, &mut rng);
            assert_forward_matches_direct(&mut layer, &x, &mut rng);
        }
    }

    #[test]
    fn tap_cols_is_the_in_bounds_run() {
        for (ow, w, kj, pad) in (1..6).flat_map(|ow| {
            (1..6).flat_map(move |w| (0..5).flat_map(move |kj| (0..3).map(move |p| (ow, w, kj, p))))
        }) {
            let inside: Vec<usize> = (0..ow)
                .filter(|&ox| (pad..w + pad).contains(&(ox + kj)))
                .collect();
            let (lo, hi) = tap_cols(ow, w, kj, pad);
            assert_eq!(
                (lo..hi).collect::<Vec<_>>(),
                inside,
                "ow {ow} w {w} kj {kj} pad {pad}"
            );
        }
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // on the tap-major layout, for every padding on a non-square input.
        for pad in [0usize, 1, 2] {
            let mut rng = rng_from_seed(5 + pad as u64);
            let (c, h, w, k) = (2, 5, 6, 3);
            let (oh, ow) = (h + 2 * pad - k + 1, w + 2 * pad - k + 1);
            let x = Tensor::randn(vec![c * h * w], 1.0, &mut rng);
            let y = Tensor::randn(vec![c * k * k * oh * ow], 1.0, &mut rng);
            let mut cols = vec![0.0f32; c * k * k * oh * ow];
            im2col_taps(x.data(), c, h, w, k, pad, oh, ow, &mut cols);
            let lhs: f32 = cols.iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
            let mut xt = vec![0.0f32; c * h * w];
            let mut y = y.data().to_vec();
            neutralise_clipped_taps(&mut y, h, w, k, pad);
            col2im_taps(&y, c, h, w, k, pad, oh, ow, &mut xt);
            let rhs: f32 = x.data().iter().zip(&xt).map(|(&a, &b)| a * b).sum();
            assert!(
                (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
                "pad {pad}: {lhs} vs {rhs}"
            );
        }
    }

    /// Index into a `[C, H, W]` sample of the input value tap
    /// `p = (c, ki, kj)` sees at output position `pos`; `None` in the
    /// padding.
    fn tap_input(layer: &Conv2d, h: usize, w: usize, p: usize, pos: usize) -> Option<usize> {
        let (k, pad) = (layer.kernel, layer.pad);
        let ow = layer.out_size(h, w).1;
        let (ci, ki, kj) = (p / (k * k), p / k % k, p % k);
        let iy = (pos / ow + ki).checked_sub(pad).filter(|&iy| iy < h)?;
        let ix = (pos % ow + kj).checked_sub(pad).filter(|&ix| ix < w)?;
        Some((ci * h + iy) * w + ix)
    }

    /// The position-major lowering's arithmetic as direct loops, one
    /// sample at a time: forward `Σ_p x·w` from 0 then `+ bias`; `dW`
    /// chained over positions onto the running gradient; the bias
    /// gradient as plane sums; `dX` as each position's `Σ_f dy·w`, added
    /// in ascending position order. Returns `(y, dx)` and accumulates
    /// into `gw`/`gb`.
    fn position_major_step(
        layer: &Conv2d,
        x: &[f32],
        dy: &[f32],
        (h, w): (usize, usize),
        gw: &mut [f32],
        gb: &mut [f32],
    ) -> (Vec<f32>, Vec<f32>) {
        let (oh, ow) = layer.out_size(h, w);
        let (f, ckk, ohow) = (layer.out_channels, layer.ckk(), oh * ow);
        let (wt, bias) = (layer.weight.data(), layer.bias.data());
        let xv = |p: usize, pos: usize| tap_input(layer, h, w, p, pos).map_or(0.0, |i| x[i]);
        let mut y = vec![0.0f32; f * ohow];
        for fi in 0..f {
            for pos in 0..ohow {
                let mut acc = 0.0f32;
                for p in 0..ckk {
                    acc += xv(p, pos) * wt[fi * ckk + p];
                }
                y[fi * ohow + pos] = acc + bias[fi];
            }
        }
        for fi in 0..f {
            gb[fi] += dy[fi * ohow..(fi + 1) * ohow].iter().sum::<f32>();
            for p in 0..ckk {
                let mut acc = gw[fi * ckk + p];
                for pos in 0..ohow {
                    acc += dy[fi * ohow + pos] * xv(p, pos);
                }
                gw[fi * ckk + p] = acc;
            }
        }
        let mut dx = vec![0.0f32; x.len()];
        for pos in 0..ohow {
            for p in 0..ckk {
                if let Some(i) = tap_input(layer, h, w, p, pos) {
                    let mut acc = 0.0f32;
                    for fi in 0..f {
                        acc += dy[fi * ohow + pos] * wt[fi * ckk + p];
                    }
                    dx[i] += acc;
                }
            }
        }
        (y, dx)
    }

    /// Every stage is bit-identical to the position-major arithmetic
    /// across kernels 1/3/5, padding 0–2, non-square inputs and
    /// inputs small enough that some taps only ever see padding, over two
    /// chained steps.
    #[test]
    fn tap_major_stages_are_bit_identical_to_the_position_major_order() {
        let mut empty_taps = 0;
        for (k, pad) in [1usize, 3, 5]
            .into_iter()
            .flat_map(|k| (0..3).map(move |p| (k, p)))
        {
            for (h, w) in [(5, 7), (7, 4), (2, 3), (9, 10)] {
                if h + 2 * pad < k || w + 2 * pad < k {
                    continue;
                }
                let mut rng = rng_from_seed((k * 100 + 10 + pad) as u64);
                let (b, c, f) = (2, 2, 3);
                let mut layer = Conv2d::new(c, f, k, pad, Init::HeNormal, &mut rng);
                layer.bias = Tensor::randn(vec![f], 0.5, &mut rng);
                let (oh, ow) = layer.out_size(h, w);
                empty_taps += (0..k)
                    .filter(|&t| {
                        let (rows, cols) = (tap_cols(oh, h, t, pad), tap_cols(ow, w, t, pad));
                        rows.0 == rows.1 || cols.0 == cols.1
                    })
                    .count();
                let (mut gw, mut gb) = (vec![0.0f32; f * c * k * k], vec![0.0f32; f]);
                let mut arena = ArenaDriver::new();
                for step in 0..2 {
                    let x = Tensor::randn(vec![b, c, h, w], 1.0, &mut rng);
                    let dy = Tensor::randn(vec![b, f, oh, ow], 1.0, &mut rng);
                    let y = arena.forward(&mut layer, &x);
                    let dx = arena.backward(&mut layer, &dy);
                    let (mut want_y, mut want_dx) = (Vec::new(), Vec::new());
                    for (x_b, dy_b) in x
                        .data()
                        .chunks_exact(c * h * w)
                        .zip(dy.data().chunks_exact(f * oh * ow))
                    {
                        let (y_b, dx_b) =
                            position_major_step(&layer, x_b, dy_b, (h, w), &mut gw, &mut gb);
                        want_y.extend(y_b);
                        want_dx.extend(dx_b);
                    }
                    let case = format!("k {k} pad {pad} {h}x{w} step {step}");
                    assert_eq!(y.data(), &want_y[..], "forward, {case}");
                    assert_eq!(dx.data(), &want_dx[..], "input gradient, {case}");
                    assert_eq!(layer.grad_weight.data(), &gw[..], "weight gradient, {case}");
                    assert_eq!(layer.grad_bias.data(), &gb[..], "bias gradient, {case}");
                }
            }
        }
        assert!(empty_taps > 0, "no case had a tap that only sees padding");
    }

    /// Batch-size independence at layer granularity: one step on the
    /// batch and one step per sample (no `zero_grad` in between) produce
    /// bit-identical outputs and gradients, on a batch whose stages run
    /// inline and on one large enough to run them in per-sample bands on
    /// a multi-threaded pool (the exhaustive proptest lives in
    /// `tests/conv_batched.rs`).
    #[test]
    fn batched_matches_per_sample_reference_exactly() {
        let mut rng = rng_from_seed(21);
        for (c, hw, f, k, pad, b) in [(3, 6, 4, 3, 1, 5), (3, 16, 4, 3, 1, 16)] {
            let mut batched = Conv2d::new(c, f, k, pad, Init::HeNormal, &mut rng);
            let mut per_sample = batched.clone();
            let x = Tensor::randn(vec![b, c, hw, hw], 1.0, &mut rng);
            let cols = b * batched.ckk() * hw * hw;
            assert_eq!(
                cols >= PAR_STAGE_MIN_ELEMS,
                b == 16,
                "b = {b}: wrong side of the band threshold"
            );
            let mut arena = ArenaDriver::new();
            let yb = arena.forward(&mut batched, &x);
            let gb = arena.backward(&mut batched, &yb);
            let (mut ys, mut gs) = (Vec::new(), Vec::new());
            for sample in x.data().chunks_exact(c * hw * hw) {
                let x1 = Tensor::from_vec(vec![1, c, hw, hw], sample.to_vec());
                let y1 = arena.forward(&mut per_sample, &x1);
                gs.extend_from_slice(arena.backward(&mut per_sample, &y1).data());
                ys.extend_from_slice(y1.data());
            }
            assert_eq!(yb.data(), &ys[..], "b = {b}: forward diverged");
            assert_eq!(gb.data(), &gs[..], "b = {b}: input gradients diverged");
            assert_eq!(
                grads_of_conv(&batched),
                grads_of_conv(&per_sample),
                "b = {b}: parameter gradients diverged"
            );
        }
    }

    #[test]
    fn param_count() {
        let mut rng = rng_from_seed(5);
        let layer = Conv2d::new(3, 8, 5, 2, Init::HeNormal, &mut rng);
        assert_eq!(layer.param_count(), 8 * 3 * 25 + 8);
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

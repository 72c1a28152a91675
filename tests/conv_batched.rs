//! Exactness proofs for the convolution and dense layers, driven through
//! the arena passes a training step runs.
//!
//! The conv layer lowers each sample into a tap-major `[C·K·K, OH·OW]`
//! im2col block and runs per-sample GEMMs on it, in one-sample bands on
//! the pool once the batch's `cols` is large enough. The first property
//! pins what batching must not change: one step on a batch of `B` is
//! **bit-identical** to `B` steps on batches of one with no `zero_grad` in
//! between — outputs, input gradients and accumulated parameter gradients
//! — across:
//!
//! * batch sizes 1..17 (B = 1, non-divisible `MR`/`NR` tile remainders),
//! * padding 0..3 (including valid-only convolutions) and kernel 1/3/5,
//! * the small/blocked GEMM dispatch edge, which the per-sample shapes
//!   straddle; the largest draws also cross the inline/banded stage
//!   threshold, which `batched_matches_per_sample_reference_exactly` in
//!   `crates/nn/src/layers/conv.rs` crosses on every run (on a
//!   multi-threaded pool),
//! * repeated steps (gradients chain through the per-sample `β = 1`
//!   accumulation).
//!
//! Both sides of this property run the tap-major code; the unit tests in
//! `crates/nn/src/layers/conv.rs` hold every stage exactly to direct loops
//! in the position-major order, and the `FedAvg CNN` row of the pinned
//! table in `tests/determinism.rs` gates the whole path.
//!
//! The layer runs on its own arena through the full
//! `Layer::backward_arena`, the step every non-first conv layer of a model
//! runs: a model skips its first layer's input gradient, so a one-layer
//! model would never compute the input gradient this property checks.
//!
//! A companion property pins the dense layer's forward to the naive
//! reference GEMM, bit for bit.

use fedhisyn::nn::init::Init;
use fedhisyn::nn::layers::{Conv2d, Dense, Layer};
use fedhisyn::nn::{ArenaBuf, Sequential};
use fedhisyn::tensor::{gemm_reference, rng_from_seed, Scratch, Tensor};
use proptest::prelude::*;

/// One step of `layer` on rows `start..end` of `x`, on its own arena:
/// forward, then the full backward with the output as the incoming
/// gradient. Returns the output and the input gradient; parameter
/// gradients accumulate in the layer.
fn step(
    layer: &mut Conv2d,
    scratch: &mut Scratch,
    x: &Tensor,
    start: usize,
    end: usize,
) -> (Vec<f32>, Vec<f32>) {
    scratch.reset();
    let sample: usize = x.shape()[1..].iter().product();
    let slot = scratch.alloc((end - start) * sample);
    scratch
        .slice_mut(slot)
        .copy_from_slice(&x.data()[start * sample..end * sample]);
    let mut dims = x.shape().to_vec();
    dims[0] = end - start;
    let out = layer.forward_arena(ArenaBuf::new(slot, &dims), scratch);
    let y = out.read(scratch).to_vec();
    let grad_in = layer.backward_arena(out, scratch);
    (y, grad_in.read(scratch).to_vec())
}

fn grads(layer: &Conv2d) -> Vec<f32> {
    let mut out = Vec::new();
    layer.visit_grads(&mut |t| out.extend_from_slice(t.data()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_conv_is_bit_identical_to_per_sample_reference(
        b in 1usize..17,
        c in 1usize..4,
        f in 1usize..5,
        k_pick in 0usize..3,
        pad in 0usize..3,
        hw in 5usize..10,
        seed in 0u64..1_000,
    ) {
        let k = [1usize, 3, 5][k_pick];
        prop_assume!(hw + 2 * pad >= k);

        let mut rng = rng_from_seed(seed);
        let mut batched = Conv2d::new(c, f, k, pad, Init::HeNormal, &mut rng);
        let mut per_sample = batched.clone();
        let mut scratch = Scratch::new();
        let x = Tensor::randn(vec![b, c, hw, hw], 1.0, &mut rng);

        // Two full forward/backward rounds: the second exercises chained
        // gradient accumulation on top of the first.
        for round in 0..2 {
            let (yb, gb) = step(&mut batched, &mut scratch, &x, 0, b);
            let (mut ys, mut gs) = (Vec::new(), Vec::new());
            for bi in 0..b {
                let (y1, g1) = step(&mut per_sample, &mut scratch, &x, bi, bi + 1);
                ys.extend(y1);
                gs.extend(g1);
            }
            prop_assert_eq!(yb, ys, "forward diverged (round {})", round);
            prop_assert_eq!(gb, gs, "input gradients diverged (round {})", round);
            prop_assert_eq!(
                grads(&batched), grads(&per_sample),
                "parameter gradients diverged (round {})", round
            );
        }
    }

    #[test]
    fn dense_packed_forward_is_bit_identical_to_reference_gemm(
        batch in 1usize..17,
        input in 1usize..40,
        output in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let mut rng = rng_from_seed(seed);
        let mut layer = Dense::new(input, output, Init::HeNormal, &mut rng);
        // Give the bias non-zero values through the public visitor.
        let bias = Tensor::randn(vec![output], 0.5, &mut rng);
        let mut weight = Vec::new();
        let mut visit = 0usize;
        layer.visit_params_mut(&mut |t| {
            // Dense visits weight first, then bias (the flat-layout order).
            if visit == 0 {
                weight = t.data().to_vec();
            } else {
                t.data_mut().copy_from_slice(bias.data());
            }
            visit += 1;
        });
        let x = Tensor::randn(vec![batch, input], 1.0, &mut rng);
        let mut model = Sequential::new().push(layer);

        // Run twice: a repeated forward must not depend on leftover state.
        for round in 0..2 {
            model.begin_step();
            let xb = model.stage_rows(&x, 0, batch);
            let y = model.forward_arena(xb);
            let mut want = vec![0.0f32; batch * output];
            gemm_reference::gemm(
                x.data(), &weight, &mut want, batch, input, output, 1.0, 0.0,
            );
            for brow in want.chunks_exact_mut(output) {
                for (o, &bv) in brow.iter_mut().zip(bias.data()) {
                    *o += bv;
                }
            }
            prop_assert_eq!(
                model.read_arena(y), &want[..],
                "dense forward diverged from reference (round {})", round
            );
        }
    }
}

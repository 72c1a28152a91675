//! Exactness proof for the batched convolution execution.
//!
//! The batched conv path runs **one** GEMM per stage over the whole batch
//! on the batch-major `[B·OH·OW, C·K·K]` im2col layout; the retained
//! [`ConvExec::PerSample`] reference runs one GEMM call per sample on the
//! same layout. These properties pin the two **bit-identical** — outputs,
//! input gradients and accumulated parameter gradients — across:
//!
//! * batch sizes 1..17 (B = 1, non-divisible `MR`/`NR` tile remainders),
//! * padding 0..3 (including valid-only convolutions) and kernel 1/3/5,
//! * stride 1 and 2 (strided output grids drop trailing input columns),
//! * the small/blocked and serial/parallel GEMM dispatch edges (the
//!   generated shapes straddle both thresholds),
//! * repeated steps (gradients chain through the per-sample `β = 1`
//!   accumulation).
//!
//! A companion property pins the dense layer's forward to the naive
//! reference GEMM, bit for bit.

use fedhisyn::nn::init::Init;
use fedhisyn::nn::layers::{Conv2d, ConvExec, Dense, Layer};
use fedhisyn::tensor::{gemm_reference, rng_from_seed, Tensor};
use proptest::prelude::*;

fn grads_of(layer: &Conv2d) -> Vec<f32> {
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
        stride in 1usize..3,
        pad in 0usize..3,
        hw in 5usize..10,
        seed in 0u64..1_000,
    ) {
        let k = [1usize, 3, 5][k_pick];
        prop_assume!(hw + 2 * pad >= k);

        let mut rng = rng_from_seed(seed);
        let mut batched =
            Conv2d::with_stride(c, f, k, stride, pad, Init::HeNormal, &mut rng)
                .with_exec(ConvExec::Batched);
        let mut per_sample = batched.clone().with_exec(ConvExec::PerSample);
        let x = Tensor::randn(vec![b, c, hw, hw], 1.0, &mut rng);

        // Two full forward/backward rounds: the second exercises chained
        // gradient accumulation.
        for round in 0..2 {
            let yb = batched.forward(&x);
            let ys = per_sample.forward(&x);
            prop_assert_eq!(
                yb.data(), ys.data(),
                "forward diverged (round {})", round
            );
            let gb = batched.backward(&yb);
            let gs = per_sample.backward(&ys);
            prop_assert_eq!(
                gb.data(), gs.data(),
                "input gradients diverged (round {})", round
            );
            prop_assert_eq!(
                grads_of(&batched), grads_of(&per_sample),
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

        // Run twice: a repeated forward must not depend on leftover state.
        for round in 0..2 {
            let y = layer.forward(&x);
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
                y.data(), &want[..],
                "dense forward diverged from reference (round {})", round
            );
        }
    }
}

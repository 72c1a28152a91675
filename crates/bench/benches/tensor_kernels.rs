//! Microbenchmarks for the GEMM kernels that dominate training time and
//! the quantization kernels that dominate a compressed relay hop.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedhisyn_nn::wire::{codec_transform_in_place, decode_with, encode_with, Codec, CodecScratch};
use fedhisyn_nn::ParamVec;
use fedhisyn_tensor::quant::{dequantize_slice, finite_min_max, quant_scale, quantize_slice};
use fedhisyn_tensor::{
    active_tier, gemm, gemm_nt, gemm_nt_with_tier, gemm_tn, gemm_tn_with_tier, gemm_with_tier,
    rng_from_seed, KernelTier, Tensor,
};

/// Serial GEMM at the shapes the ledger workloads run: the paper MLP's
/// 784→200 layer at batch 50 in all three orientations, and the
/// per-sample calls of `cnn_fedavg`'s two conv layers (F = 8 filters on
/// 16×16, F = 16 on 8×8): the forward `W · cols` (nn, 8×27×256 and
/// 16×72×64), the `dW` accumulation `cols · dYᵀ` onto the transposed
/// gradient, reading `dY` in place (nt, β = 1, 27×256×8 and 72×64×16) and
/// conv 2's `dcols = Wᵀ · dY` (tn, 72×16×64).
///
/// Then the kernel selector's crossover: every call a training step of
/// the smoke MLP `[32, 48, 24, 10]` makes at batch `b ∈ {1, 2, 3, 30}`
/// (`churn_wire` trains on 1–3 rows, `lazy_cohort` on 20–40). A dense
/// layer runs its forward pass as nn at `(b, in, out)`, `dW` as tn at
/// `(in, b, out)` — so tn's `m` is a fan-in and its `k` the batch — and
/// `dX` as nt at `(b, out, in)`, skipped for the first layer. Each shape
/// runs once through the entry point, which picks the streaming or the
/// blocked kernel by shape (ids end in `/entry`), and once forced through
/// the active tier's blocked kernel (`/blocked`).
fn bench_gemm(c: &mut Criterion) {
    type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, f32, f32);
    type TierKernel = fn(KernelTier, &[f32], &[f32], &mut [f32], usize, usize, usize, f32, f32);
    let mut group = c.benchmark_group("gemm");
    let mut rng = rng_from_seed(0);
    for (name, kernel, m, k, n, beta) in [
        ("nn", gemm as Kernel, 50, 784, 200, 0.0),
        ("nt", gemm_nt, 50, 784, 200, 0.0),
        ("tn", gemm_tn, 50, 784, 200, 0.0),
        ("nn", gemm, 8, 27, 256, 0.0),
        ("nn", gemm, 16, 72, 64, 0.0),
        ("nt", gemm_nt, 27, 256, 8, 1.0),
        ("nt", gemm_nt, 72, 64, 16, 1.0),
        ("tn", gemm_tn, 72, 16, 64, 0.0),
    ] {
        let a = Tensor::randn(vec![m * k], 1.0, &mut rng);
        let b = Tensor::randn(vec![k * n], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        let acc = if beta == 1.0 { "/beta1" } else { "" };
        group.bench_function(format!("{name}/{m}x{k}x{n}{acc}"), |bench| {
            bench.iter(|| {
                kernel(a.data(), b.data(), &mut out, m, k, n, 1.0, beta);
                black_box(out[0])
            })
        });
    }
    let tier = active_tier();
    let nn = (gemm as Kernel, gemm_with_tier as TierKernel);
    let nt = (gemm_nt as Kernel, gemm_nt_with_tier as TierKernel);
    let tn = (gemm_tn as Kernel, gemm_tn_with_tier as TierKernel);
    for batch in [1, 2, 3, 30] {
        for (name, (kernel, with_tier), m, k, n) in [
            ("nn", nn, batch, 32, 48),
            ("nn", nn, batch, 48, 24),
            ("nn", nn, batch, 24, 10),
            ("tn", tn, 32, batch, 48),
            ("tn", tn, 48, batch, 24),
            ("tn", tn, 24, batch, 10),
            ("nt", nt, batch, 24, 48),
            ("nt", nt, batch, 10, 24),
        ] {
            let a = Tensor::randn(vec![m * k], 1.0, &mut rng);
            let b = Tensor::randn(vec![k * n], 1.0, &mut rng);
            let mut out = vec![0.0f32; m * n];
            group.bench_function(format!("{name}/{m}x{k}x{n}/entry"), |bench| {
                bench.iter(|| {
                    kernel(a.data(), b.data(), &mut out, m, k, n, 1.0, 0.0);
                    black_box(out[0])
                })
            });
            group.bench_function(format!("{name}/{m}x{k}x{n}/blocked"), |bench| {
                bench.iter(|| {
                    with_tier(tier, a.data(), b.data(), &mut out, m, k, n, 1.0, 0.0);
                    black_box(out[0])
                })
            });
        }
    }
    group.finish();
}

/// The three `Int8` kernels on one 256-float chunk, then the error-feedback
/// transform against the plain encode→decode byte path it stands in for, at
/// `churn_wire`'s parameter count and the paper MLP's.
fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let mut rng = rng_from_seed(2);
    let chunk = Tensor::randn(vec![256], 1.0, &mut rng);
    let xs = chunk.data();
    let (min, max) = finite_min_max(xs).expect("normal samples are finite");
    let (scale, inv_scale) = quant_scale(min, max);
    let mut qs = vec![0u8; xs.len()];
    let mut back = vec![0.0f32; xs.len()];
    group.bench_function("finite_min_max/256", |bench| {
        bench.iter(|| finite_min_max(black_box(xs)))
    });
    group.bench_function("quantize_slice/256", |bench| {
        bench.iter(|| {
            quantize_slice(black_box(xs), min, inv_scale, &mut qs);
            black_box(qs[0])
        })
    });
    group.bench_function("dequantize_slice/256", |bench| {
        bench.iter(|| {
            dequantize_slice(black_box(&qs), min, scale, &mut back);
            black_box(back[0])
        })
    });
    for &n in &[3_010usize, 178_110] {
        let sent = ParamVec::from_vec(Tensor::randn(vec![n], 0.1, &mut rng).into_vec());
        let mut params = sent.clone();
        let mut residual = ParamVec::zeros(n);
        let mut scratch = CodecScratch::new();
        group.bench_with_input(BenchmarkId::new("transform_in_place", n), &n, |bench, _| {
            bench.iter(|| {
                codec_transform_in_place(
                    Codec::Int8,
                    &mut params,
                    None,
                    &mut residual,
                    &mut scratch,
                );
                black_box(params.as_slice()[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("encode_then_decode", n), &n, |bench, _| {
            bench.iter(|| {
                let frame = encode_with(black_box(&sent), Codec::Int8, None);
                decode_with(&frame, None).expect("own frame decodes")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_codec);
criterion_main!(benches);

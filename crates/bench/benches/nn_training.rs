//! Training-step benchmarks for the paper's two model families.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fedhisyn_nn::{sgd_epoch, ModelSpec, NoHook, Sgd, SgdConfig};
use fedhisyn_tensor::{rng_from_seed, Tensor};

fn bench_mlp_epoch(c: &mut Criterion) {
    let spec = ModelSpec::paper_mlp(784, 10);
    let mut rng = rng_from_seed(0);
    let mut model = spec.build(&mut rng);
    let x = Tensor::randn(vec![100, 784], 1.0, &mut rng);
    let y: Vec<usize> = (0..100).map(|i| i % 10).collect();
    let mut sgd = Sgd::new(SgdConfig::default());
    c.bench_function("mlp_784_200_100_epoch_100samples", |b| {
        b.iter(|| {
            let loss = sgd_epoch(&mut model, &x, &y, 50, &mut sgd, &NoHook, &mut rng);
            black_box(loss)
        })
    });
}

fn bench_cnn_epoch(c: &mut Criterion) {
    let spec = ModelSpec::smoke_cnn(8, 10);
    let mut rng = rng_from_seed(1);
    let mut model = spec.build(&mut rng);
    let x = Tensor::randn(vec![32, 3, 8, 8], 1.0, &mut rng);
    let y: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let mut sgd = Sgd::new(SgdConfig::default());
    c.bench_function("smoke_cnn_epoch_32samples", |b| {
        b.iter(|| {
            let loss = sgd_epoch(&mut model, &x, &y, 16, &mut sgd, &NoHook, &mut rng);
            black_box(loss)
        })
    });
}

fn bench_param_roundtrip(c: &mut Criterion) {
    let spec = ModelSpec::paper_mlp(784, 10);
    let mut rng = rng_from_seed(2);
    let mut model = spec.build(&mut rng);
    c.bench_function("param_snapshot_and_restore", |b| {
        b.iter(|| {
            let p = model.params();
            model.set_params(&p);
            black_box(p.len())
        })
    });
}

fn bench_param_copy_into(c: &mut Criterion) {
    // The engine's exfiltration path: copy into an existing buffer instead
    // of allocating a snapshot.
    let spec = ModelSpec::paper_mlp(784, 10);
    let mut rng = rng_from_seed(3);
    let model = spec.build(&mut rng);
    let mut buf = fedhisyn_nn::ParamVec::zeros(model.param_count());
    c.bench_function("param_copy_into_reused_buffer", |b| {
        b.iter(|| {
            model.copy_params_into(&mut buf);
            black_box(buf.len())
        })
    });
}

criterion_group!(
    benches,
    bench_mlp_epoch,
    bench_cnn_epoch,
    bench_param_roundtrip,
    bench_param_copy_into
);
criterion_main!(benches);

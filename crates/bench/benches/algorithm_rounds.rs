//! End-to-end cost of one communication round for each algorithm — the
//! wall-clock counterpart of Table 1's transmission accounting.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedhisyn_bench::harness::algorithm_suite;
use fedhisyn_core::{run_experiment, ExecMode, ExperimentConfig, FedHiSyn};
use fedhisyn_data::{DatasetProfile, Partition, Scale};

fn bench_one_round_each(c: &mut Criterion) {
    let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(8)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .local_epochs(1)
        .rounds(1)
        .seed(5)
        .build();

    let mut group = c.benchmark_group("one_round");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let names: Vec<String> = algorithm_suite(&cfg).iter().map(|a| a.name()).collect();
    for name in names {
        group.bench_with_input(BenchmarkId::from_parameter(&name), &name, |b, name| {
            b.iter(|| {
                // Rebuild per iteration: algorithms are stateful.
                let mut suite = algorithm_suite(&cfg);
                let algo = suite
                    .iter_mut()
                    .find(|a| &a.name() == name)
                    .expect("algorithm present");
                let mut env = cfg.build_env();
                let rec = run_experiment(algo.as_mut(), &mut env, 1);
                black_box(rec.final_accuracy())
            })
        });
    }
    group.finish();
}

/// The engine headline: one FedHiSyn round on the cached zero-copy path
/// vs the rebuild-per-call reference path, same seed, same results. Uses
/// the paper's 100-device fleet on smoke-scale data — small non-IID
/// shards make per-hop overhead (model rebuilds, flat copies) the
/// dominant removable cost, which is the regime the engine targets.
fn bench_cached_vs_reference(c: &mut Criterion) {
    let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(100)
        .partition(Partition::Dirichlet { beta: 0.1 })
        .local_epochs(1)
        .rounds(1)
        .seed(5)
        .build();

    let mut group = c.benchmark_group("fedhisyn_round_100dev");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for mode in [ExecMode::Cached, ExecMode::Reference] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let mut algo = FedHiSyn::new(&cfg, 10);
                    let mut env = cfg.build_env();
                    env.exec = mode;
                    let rec = run_experiment(&mut algo, &mut env, 1);
                    black_box(rec.final_accuracy())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_one_round_each, bench_cached_vs_reference);
criterion_main!(benches);

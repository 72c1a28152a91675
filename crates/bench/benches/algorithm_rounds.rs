//! End-to-end cost of one communication round for each algorithm — the
//! wall-clock counterpart of Table 1's transmission accounting.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedhisyn_bench::harness::algorithm_suite;
use fedhisyn_core::{run_experiment, ExperimentConfig};
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

criterion_group!(benches, bench_one_round_each);
criterion_main!(benches);

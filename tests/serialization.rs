//! Serde round-trips for every serializable artifact: configs, records,
//! model specs, parameters.

use fedhisyn::prelude::*;

#[test]
fn experiment_config_round_trips() {
    let cfg = ExperimentConfig::builder(DatasetProfile::Cifar100Like)
        .scale(Scale::Paper)
        .devices(100)
        .participation(0.1)
        .partition(Partition::Dirichlet { beta: 0.8 })
        .heterogeneity(HeterogeneityModel::Uniform { h: 20.0 })
        .rounds(150)
        .aggregation(AggregationRule::TimeWeighted)
        .seed(99)
        .build();
    let json = serde_json::to_string_pretty(&cfg).unwrap();
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn run_record_round_trips_through_json() {
    let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(4)
        .rounds(2)
        .local_epochs(1)
        .seed(3)
        .build();
    let mut env = cfg.build_env();
    let mut algo = FedHiSyn::new(&cfg, 2);
    let rec = run_experiment(&mut algo, &mut env, 2);
    let json = serde_json::to_string(&rec).unwrap();
    let back: RunRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(rec, back);
}

#[test]
fn model_spec_and_params_round_trip() {
    let spec = ModelSpec::paper_cnn(16, 100);
    let json = serde_json::to_string(&spec).unwrap();
    let back: ModelSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);

    let mut rng = fedhisyn::tensor::rng_from_seed(0);
    let params = ModelSpec::mlp(&[8, 4, 2]).build(&mut rng).params();
    let json = serde_json::to_string(&params).unwrap();
    let back: ParamVec = serde_json::from_str(&json).unwrap();
    assert_eq!(params, back);
}

#[test]
fn serialized_config_rebuilds_identical_environment() {
    // A config that survived serialization must regenerate the exact same
    // data, partition and latencies — configs are the experiment's full
    // provenance.
    let cfg = ExperimentConfig::builder(DatasetProfile::EmnistLike)
        .scale(Scale::Smoke)
        .devices(6)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .seed(17)
        .build();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    let e1 = cfg.build_env();
    let e2 = back.build_env();
    assert_eq!(e1.test.x.data(), e2.test.x.data());
    for d in 0..e1.n_devices() {
        assert_eq!(e1.shard(d).y, e2.shard(d).y);
        assert_eq!(e1.latency(d), e2.latency(d));
    }
}

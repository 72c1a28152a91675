//! Integration coverage for the extension surfaces: the wire format and
//! its drift check, and time-weighted aggregation.

use fedhisyn::nn::wire;
use fedhisyn::prelude::*;

fn cfg() -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(6)
        .partition(Partition::Dirichlet { beta: 0.5 })
        .rounds(2)
        .local_epochs(1)
        .seed(404)
        .build()
}

/// The behind-a-flag frame round-trip drift check: a whole FedHiSyn
/// experiment with `wire_check` on encodes/decodes every ring-relay
/// transfer through the frame codec and asserts bit-identity inside the
/// relay. The check is read-only, so the run must also be bit-identical
/// to the unchecked run.
#[test]
fn wire_check_flag_verifies_every_relay_transfer() {
    let plain_cfg = cfg();
    let mut checked_cfg = cfg();
    checked_cfg.wire_check = true;
    assert!(checked_cfg.build_env().wire_check);

    let run = |cfg: &ExperimentConfig| {
        let mut env = cfg.build_env();
        let mut algo = FedHiSyn::new(cfg, 2);
        let rec = run_experiment(&mut algo, &mut env, cfg.rounds);
        (rec, algo.global().clone())
    };
    let (plain_rec, plain_global) = run(&plain_cfg);
    let (checked_rec, checked_global) = run(&checked_cfg);
    assert_eq!(
        plain_rec, checked_rec,
        "wire check must be observation-only"
    );
    assert_eq!(plain_global, checked_global);

    // The decentralized ring relay carries the same tripwire.
    let mut env = checked_cfg.build_env();
    let mut sim = DecentralSim::new(
        &env,
        DecentralMode::ClusteredRings {
            k: 2,
            order: RingOrder::SmallToLarge,
            average: false,
        },
    );
    env.wire_check = true;
    sim.run_round(&env, 0);
}

#[test]
fn trained_global_model_survives_the_wire() {
    let cfg = cfg();
    let mut env = cfg.build_env();
    let mut algo = FedHiSyn::new(&cfg, 2);
    let _ = run_experiment(&mut algo, &mut env, 2);
    let global = algo.global().clone();
    // Encode → decode → load into a model → accuracy must be identical.
    let frame = wire::encode(&global);
    assert_eq!(frame.len(), wire::encoded_len(global.len()));
    let decoded = wire::decode(&frame).expect("valid frame");
    let acc_direct = fedhisyn::core::local::evaluate_on_test(&env, &global);
    let acc_wire = fedhisyn::core::local::evaluate_on_test(&env, &decoded);
    assert_eq!(acc_direct, acc_wire, "wire round-trip must be bit-exact");
}

#[test]
fn wire_byte_count_matches_traffic_meter_model() {
    // The meter keeps two ledgers: the idealised payload (4 bytes per
    // parameter) and the encoded frame size. The real frame must match
    // both — payload exactly, wire bytes including the constant header.
    let cfg = cfg();
    let n = cfg.model_spec().param_count();
    let params = cfg.initial_params();
    let frame = wire::encode(&params);
    let meter = fedhisyn::simnet::TrafficMeter::new();
    meter.record_upload(1, n, wire::encoded_len(n), wire::encoded_len(n));
    let snap = meter.snapshot();
    assert_eq!(
        frame.len() as f64 - wire::HEADER_LEN as f64,
        snap.bytes_moved()
    );
    assert_eq!(frame.len() as f64, snap.wire_bytes);
    assert_eq!(snap.framing_overhead(), wire::HEADER_LEN as f64);
}

#[test]
fn time_weighted_aggregation_runs_and_stays_finite() {
    let mut cfg = cfg();
    cfg.aggregation = AggregationRule::TimeWeighted;
    let mut env = cfg.build_env();
    let mut algo = FedHiSyn::new(&cfg, 2);
    let rec = run_experiment(&mut algo, &mut env, 2);
    assert!(rec.final_accuracy() > 0.1);
    assert!(algo.global().is_finite());
}

//! Integration coverage for the extension surfaces: the wire format, the
//! Int8 transfer path on trained models, and time-weighted aggregation.

use fedhisyn::nn::{wire, Codec, CodecScratch};
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

/// The byte accounting charges every transfer at its encoded frame size,
/// and a lossy transfer hands the receiver what the in-place codec
/// transform leaves. After a short Int8 FedHiSyn run, the residuals the
/// devices hold are trained values: on each of them the transform must
/// give the bits `decode_with(encode_with(global + residual))` gives, keep
/// exactly the coding error as the new residual, and travel in a frame of
/// `env.frame_bytes()`. `fedhisyn_nn::wire`'s
/// `fused_transform_matches_byte_path` pins the same property on
/// synthetic payloads with its edge cases.
#[test]
fn trained_int8_transfers_match_the_byte_path() {
    let bits = |p: &ParamVec| p.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut cfg = cfg();
    cfg.codec = Codec::Int8;
    let mut env = cfg.build_env();
    let mut algo = FedHiSyn::new(&cfg, 2);
    run_experiment(&mut algo, &mut env, cfg.rounds);
    let global = algo.global();
    let residuals: Vec<(usize, ParamVec)> = (0..env.n_devices())
        .filter_map(|d| Some((d, env.residuals.take(d)?)))
        .collect();
    assert!(residuals.len() >= 3, "{} residuals", residuals.len());
    for (device, mut residual) in residuals {
        assert!(residual.norm() > 0.0, "device {device}: no coding error");
        // Byte path on v = global + residual; it drops v − decoded.
        let mut v = global.clone();
        v.add_assign(&residual);
        let frame = wire::encode_with(&v, env.codec, None);
        assert_eq!(frame.len(), env.frame_bytes(), "device {device}");
        assert_eq!(wire::verify_frame(&frame), Ok(v.len()));
        let decoded = wire::decode_with(&frame, None).expect("frame decodes");
        v.sub_assign(&decoded);
        // Fused path, as every lossy transfer runs it.
        let mut params = global.clone();
        let scratch = &mut CodecScratch::new();
        wire::codec_transform_in_place(env.codec, &mut params, None, &mut residual, scratch);
        assert_eq!(bits(&params), bits(&decoded), "device {device}");
        assert_eq!(bits(&residual), bits(&v), "device {device}");
    }
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

//! Deterministic frame-loss transport, end to end.
//!
//! The contracts: `FaultPlan::none()` is **bit-neutral** (a run with an
//! explicit none plan equals a run with no plan at all, whole `RunRecord`
//! included); any nonzero loss schedule replays **bit-identically**
//! across fresh runs and thread interleavings (the schedule is a pure
//! function of `(seed, round, src, dst, attempt)`, never of timing); a
//! frame whose bytes were damaged surfaces as a typed checksum error,
//! never as parameters; and a churned, lossy fleet still completes every
//! round, with the retry overhead recorded honestly in telemetry. The
//! compressed wire rides the same transport, so its whole-run contracts
//! live here too: `Codec::F32` is bit-neutral for all seven algorithms,
//! every one of them trains on what the codec it is charged for can
//! carry, lossy codecs replay across runs, and Int8 keeps its compression
//! win on a lossy wire.

mod common;

use std::sync::Arc;

use common::ALGORITHMS;
use fedhisyn::core::ExperimentConfigBuilder;
use fedhisyn::nn::Codec;
use fedhisyn::prelude::*;
use fedhisyn::simnet::{FaultConfig, FaultPlan, TrafficSnapshot};
use proptest::prelude::*;

fn base_builder(devices: usize, rounds: usize, seed: u64) -> ExperimentConfigBuilder {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(devices)
        .partition(Partition::Dirichlet { beta: 0.5 })
        .heterogeneity(HeterogeneityModel::Uniform { h: 5.0 })
        .rounds(rounds)
        .local_epochs(1)
        .seed(seed)
}

fn run(cfg: &ExperimentConfig) -> (RunRecord, TrafficSnapshot) {
    let run = common::run(cfg, "FedHiSyn", 3);
    (run.record, run.traffic)
}

/// Runs `cfg` twice and demands one `RunRecord` and one traffic ledger
/// from both.
fn replayed(cfg: &ExperimentConfig, what: &str) -> (RunRecord, TrafficSnapshot) {
    let (rec_a, traffic_a) = run(cfg);
    let (rec_b, traffic_b) = run(cfg);
    assert_eq!(rec_a, rec_b, "{what}: same seed, same trace");
    assert_eq!(traffic_a, traffic_b);
    (rec_a, traffic_a)
}

#[test]
fn none_plan_is_bit_neutral_over_a_whole_run() {
    let plain = base_builder(8, 3, 42).build();
    let none = base_builder(8, 3, 42).faults(FaultConfig::none()).build();
    let (rec_plain, traffic_plain) = run(&plain);
    let (rec_none, traffic_none) = run(&none);
    assert_eq!(
        rec_plain, rec_none,
        "an explicit FaultConfig::none() must be indistinguishable from no plan"
    );
    assert_eq!(traffic_plain, traffic_none);
    assert_eq!(traffic_plain.retransmit_bytes, 0.0);
    assert_eq!(traffic_plain.goodput_bytes(), traffic_plain.wire_bytes);
}

#[test]
fn nonzero_schedule_replays_across_runs() {
    let cfg = base_builder(8, 3, 7)
        .faults(FaultConfig::lossy(0.1))
        .build();
    replayed(&cfg, "fault schedule");
}

#[test]
fn retry_bytes_are_charged_and_fold_into_round_deltas() {
    let cfg = base_builder(8, 3, 7)
        .faults(FaultConfig::lossy(0.3))
        .build();
    let (rec, traffic) = run(&cfg);
    assert!(
        traffic.retransmit_bytes > 0.0,
        "30% loss over 3 rounds must retransmit at least once"
    );
    assert!(traffic.goodput_bytes() < traffic.wire_bytes);
    let folded: f64 = rec
        .rounds
        .iter()
        .map(|r| r.telemetry.retransmit_bytes)
        .sum();
    assert!(
        (folded - traffic.retransmit_bytes).abs() < 1e-6,
        "per-round deltas ({folded}) must sum to the meter total ({})",
        traffic.retransmit_bytes
    );
    // More injected loss means more retry frames on the wire, never fewer.
    let retransmit_at = |loss: f64| {
        let cfg = base_builder(8, 3, 7)
            .faults(FaultConfig::lossy(loss))
            .build();
        run(&cfg).1.retransmit_bytes
    };
    let sweep = [
        retransmit_at(0.0),
        retransmit_at(0.05),
        retransmit_at(0.15),
        traffic.retransmit_bytes, // the 30 % run above
    ];
    assert_eq!(sweep[0], 0.0, "a lossless wire retransmits nothing");
    assert!(
        sweep.windows(2).all(|w| w[0] <= w[1]),
        "retransmit bytes must not fall as loss rises: {sweep:?}"
    );
}

#[test]
fn corrupted_frames_are_typed_errors_never_parameters() {
    use fedhisyn::nn::wire;
    let params = ParamVec::from_vec((0..33).map(|i| (i as f32).sin()).collect());
    let clean = wire::encode(&params);
    assert_eq!(wire::verify_frame(&clean), Ok(params.len()));
    let mut frame = clean.to_vec();
    frame[wire::HEADER_LEN + 9] ^= 0x01; // single-bit payload corruption
    assert_eq!(wire::decode(&frame), Err(wire::WireError::BadChecksum));
    assert_eq!(
        wire::verify_frame(&frame),
        Err(wire::WireError::BadChecksum)
    );
}

#[test]
fn churned_faulty_fleet_completes_every_round_with_visible_retries() {
    let mut dynamics = FleetDynamics::churn(0.2);
    dynamics.mid_round_failure = 0.1;
    let cfg = base_builder(24, 4, 2022)
        .fleet(dynamics)
        .wire_check(true) // checksum tripwire on every relay hop
        .faults(FaultConfig::lossy(0.1))
        .build();
    let (rec, traffic) = run(&cfg);
    assert_eq!(
        rec.rounds.len(),
        4,
        "faults + churn must never abort a round"
    );
    assert!(rec.final_accuracy().is_finite());
    assert!(
        traffic.retransmit_bytes > 0.0,
        "retry overhead must be visible"
    );
    // Honest accounting: logical transfers (goodput) never include retries.
    let (rec2, traffic2) = run(&cfg);
    assert_eq!(rec, rec2);
    assert_eq!(traffic, traffic2);
}

fn dirichlet_smoke(codec: Option<Codec>) -> ExperimentConfig {
    let builder = base_builder(8, 3, 42).partition(Partition::Dirichlet { beta: 0.3 });
    match codec {
        Some(codec) => builder.codec(codec).build(),
        None => builder.build(),
    }
}

#[test]
fn f32_codec_is_bit_neutral_over_a_whole_run() {
    for name in ALGORITHMS {
        let plain = common::run(&dirichlet_smoke(None), name, 3);
        let f32_run = common::run(&dirichlet_smoke(Some(Codec::F32)), name, 3);
        assert_eq!(
            plain, f32_run,
            "{name}: an explicit Codec::F32 must be indistinguishable from a codec-free build"
        );
        assert_eq!(f32_run.record.codec, "f32");
        assert_eq!(
            f32_run.traffic.raw_bytes, f32_run.traffic.wire_bytes,
            "{name}: the f32 wire charges the raw and encoded ledgers identically"
        );
    }
}

#[test]
fn every_algorithm_trains_on_what_the_codec_it_is_charged_for_carries() {
    let cfg = dirichlet_smoke(Some(Codec::Int8));
    for name in ALGORITHMS {
        let int8 = common::run(&cfg, name, 3);
        // (a) Every round completes on a finite model.
        assert_eq!(int8.record.rounds.len(), cfg.rounds, "{name}");
        assert_eq!(int8.record.codec, "int8", "{name}");
        assert!(int8.global.is_finite(), "{name}: non-finite Int8 global");
        // (b) The compressed run replays bit for bit.
        assert_eq!(int8, common::run(&cfg, name, 3), "{name}");
        // (c) It is charged for compressed frames (SCAFFOLD's control
        //     variates cross uncoded and are charged raw) ...
        let ratio = int8.traffic.compression_ratio();
        let floor = if name == "SCAFFOLD" { 1.0 } else { 3.5 };
        assert!(ratio > 1.0 && ratio >= floor, "{name}: {ratio:.2}x");
        // (d) ... and it moved compressed models: not the F32 run's bits.
        let exact = common::run(&dirichlet_smoke(Some(Codec::F32)), name, 3);
        assert_ne!(
            int8.global, exact.global,
            "{name} was charged Int8 frames for full-precision models"
        );
    }
}

#[test]
fn lossy_codecs_replay_across_runs() {
    let label = Codec::Int8.label();
    let cfg = base_builder(8, 3, 7).codec(Codec::Int8).build();
    let (rec, traffic) = replayed(&cfg, &label);
    assert_eq!(rec.codec, label, "RunRecord codec stamp");
    assert!(
        traffic.wire_bytes < traffic.raw_bytes,
        "{label} charged no compression"
    );
}

#[test]
fn int8_composes_with_a_lossy_wire() {
    let cfg = base_builder(8, 3, 7)
        .codec(Codec::Int8)
        .faults(FaultConfig::lossy(0.15))
        .build();
    let (rec, traffic) = replayed(&cfg, "int8 at 15% loss");
    assert_eq!(rec.rounds.len(), 3, "every round must complete");
    assert!(rec.final_accuracy().is_finite());
    assert!(
        traffic.retransmit_bytes > 0.0,
        "15% loss over 3 rounds must retransmit at least once"
    );
    assert!(
        traffic.compression_ratio() > 3.0,
        "retries erased the compression win: {:.2}x",
        traffic.compression_ratio()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fault plan is a pure function: the same (round, src, dst,
    /// attempt) coordinate yields the same verdict under any interleaving
    /// of 8 threads sharing one plan (mirrors `fleet_lazy.rs`).
    #[test]
    fn fault_plans_replay_bit_identically_across_thread_interleavings(
        seed in 0u64..1000,
        loss in 0.0f64..0.5,
    ) {
        let plan = Arc::new(FaultPlan::new(seed, FaultConfig::lossy(loss)));
        let n_coords = 24usize * 10;
        // Sequential reference walk.
        let reference: Vec<bool> = (0..n_coords)
            .map(|j| {
                let (d, r) = ((j % 24) as u64, (j / 24) as u64);
                plan.fault(r, d, (d + 1) % 24, r ^ d)
            })
            .collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let p = Arc::clone(&plan);
                std::thread::spawn(move || {
                    // Each thread visits every coordinate in a different order.
                    (0..n_coords)
                        .map(|i| {
                            let j = (i * (t * 2 + 1)) % n_coords;
                            let (d, r) = ((j % 24) as u64, (j / 24) as u64);
                            (j, p.fault(r, d, (d + 1) % 24, r ^ d))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (j, lost) in h.join().expect("fault query thread panicked") {
                prop_assert_eq!(lost, reference[j], "coordinate {} diverged", j);
            }
        }
    }

    /// Whole-run determinism holds for arbitrary loss rates, not just the
    /// ones the workloads run.
    #[test]
    fn arbitrary_fault_configs_keep_runs_deterministic(
        seed in 0u64..100,
        loss in 0.0f64..0.4,
    ) {
        let cfg = base_builder(6, 2, seed).faults(FaultConfig::lossy(loss)).build();
        let (a, ta) = run(&cfg);
        let (b, tb) = run(&cfg);
        prop_assert_eq!(a, b);
        prop_assert_eq!(ta, tb);
    }
}

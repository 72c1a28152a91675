//! Transmission-ledger invariants across protocols — the accounting
//! behind Table 1.

mod common;

use fedhisyn::prelude::*;

fn cfg() -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(6)
        .partition(Partition::Iid)
        .heterogeneity(HeterogeneityModel::Uniform { h: 6.0 })
        .rounds(2)
        .local_epochs(1)
        .seed(88)
        .build()
}

#[test]
fn synchronous_protocols_upload_once_per_participant() {
    for name in ["FedHiSyn", "FedAvg", "TFedAvg", "FedProx"] {
        let rec = common::run(&cfg(), name, 2).record;
        assert_eq!(rec.rounds[0].uploads, 6.0, "{name} round 0");
        assert_eq!(rec.rounds[0].downloads, 6.0, "{name} broadcast");
        assert_eq!(rec.rounds[1].uploads, 12.0, "{name} round 1");
    }
}

#[test]
fn scaffold_costs_exactly_double() {
    let rec = common::run(&cfg(), "SCAFFOLD", 2).record;
    // 6 devices x 2 model-equivalents (weights + control variate).
    assert_eq!(rec.rounds[0].uploads, 12.0);
    assert_eq!(rec.rounds[0].downloads, 12.0);
}

#[test]
fn async_protocols_upload_more_than_sync() {
    // Under H=6, fast devices/tiers complete multiple cycles per round.
    for name in ["TAFedAvg", "FedAT"] {
        let uploads = common::run(&cfg(), name, 3).record.total_uploads();
        assert!(uploads > 12.0, "{name}: {uploads}");
    }
}

#[test]
fn only_fedhisyn_uses_peer_links() {
    for name in common::ALGORITHMS {
        let peers = common::run(&cfg(), name, 2).record.rounds[0].peer_transfers;
        assert_eq!(peers > 0.0, name == "FedHiSyn", "{name}: {peers}");
    }
}

#[test]
fn parameters_moved_match_model_equivalents() {
    // Conservation: the meter's parameter count is model-equivalents x
    // param_count for every protocol, and the wire ledger charges the
    // encoded frame size per transfer.
    let cfg = cfg();
    let env = cfg.build_env();
    let n = env.param_count();
    let mut link = fedhisyn::core::ServerLink::default();
    let mut model = cfg.initial_params();
    link.broadcast(&env, &model, 2);
    for device in 0..3 {
        link.upload(&env, device, &mut model);
    }
    let snap = env.meter.snapshot();
    assert_eq!((snap.downloads, snap.uploads), (2.0, 3.0));
    assert_eq!(snap.parameters_moved, 5.0 * n as f64);
    assert_eq!(snap.bytes_moved(), 20.0 * n as f64);
    assert_eq!(
        snap.wire_bytes,
        5.0 * fedhisyn::nn::wire::encoded_len(n) as f64
    );
    assert!(snap.framing_overhead() > 0.0);
}

#[test]
fn every_protocol_accounts_wire_bytes() {
    // Every algorithm moves its models over the server link or the ring
    // relay, which charge one frame per transfer: a run's wire ledger
    // exceeds its idealised payload ledger by exactly the frame headers.
    for name in common::ALGORITHMS {
        let snap = common::run(&cfg(), name, 2).traffic;
        let transfers = snap.uploads + snap.downloads + snap.peer_transfers;
        assert!(snap.wire_bytes > snap.bytes_moved(), "{name}");
        let expected_overhead = transfers * fedhisyn::nn::wire::HEADER_LEN as f64;
        assert!(
            (snap.framing_overhead() - expected_overhead).abs() < 1e-6,
            "{name}: overhead {} != transfers x header {expected_overhead}",
            snap.framing_overhead(),
        );
    }
}

#[test]
fn uploads_to_target_uses_fedavg_round_units() {
    let rec = common::run(&cfg(), "FedAvg", 2).record;
    // Target below round-0 accuracy => cost is exactly one FedAvg round.
    let easy_target = rec.rounds[0].accuracy - 1e-6;
    assert_eq!(rec.uploads_to_target(easy_target, 6.0), Some(1.0));
}

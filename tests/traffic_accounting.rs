//! Transmission-ledger invariants across protocols — the accounting
//! behind Table 1.

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
    let cfg = cfg();
    for (name, rec) in [
        ("FedHiSyn", {
            let mut env = cfg.build_env();
            let mut a = FedHiSyn::new(&cfg, 2);
            run_experiment(&mut a, &mut env, 2)
        }),
        ("FedAvg", {
            let mut env = cfg.build_env();
            let mut a = FedAvg::new(&cfg);
            run_experiment(&mut a, &mut env, 2)
        }),
        ("TFedAvg", {
            let mut env = cfg.build_env();
            let mut a = TFedAvg::new(&cfg);
            run_experiment(&mut a, &mut env, 2)
        }),
        ("FedProx", {
            let mut env = cfg.build_env();
            let mut a = FedProx::new(&cfg);
            run_experiment(&mut a, &mut env, 2)
        }),
    ] {
        assert_eq!(rec.rounds[0].uploads, 6.0, "{name} round 0");
        assert_eq!(rec.rounds[1].uploads, 12.0, "{name} round 1");
    }
}

#[test]
fn scaffold_costs_exactly_double() {
    let cfg = cfg();
    let mut env = cfg.build_env();
    let mut scaffold = Scaffold::new(&cfg);
    let rec = run_experiment(&mut scaffold, &mut env, 2);
    // 6 devices x 2 model-equivalents (weights + control variate).
    assert_eq!(rec.rounds[0].uploads, 12.0);
    assert_eq!(rec.rounds[0].downloads, 12.0);
}

#[test]
fn async_protocols_upload_more_than_sync() {
    let cfg = cfg();
    let mut env = cfg.build_env();
    let mut ta = TAFedAvg::new(&cfg);
    let ta_rec = run_experiment(&mut ta, &mut env, 2);
    let mut env = cfg.build_env();
    let mut at = FedAT::new(&cfg, 3);
    let at_rec = run_experiment(&mut at, &mut env, 2);
    // Under H=6, fast devices/tiers complete multiple cycles per round.
    assert!(
        ta_rec.total_uploads() > 12.0,
        "TAFedAvg: {}",
        ta_rec.total_uploads()
    );
    assert!(
        at_rec.total_uploads() > 12.0,
        "FedAT: {}",
        at_rec.total_uploads()
    );
}

#[test]
fn only_fedhisyn_uses_peer_links() {
    let cfg = cfg();
    let mut env = cfg.build_env();
    let mut hisyn = FedHiSyn::new(&cfg, 2);
    let hisyn_rec = run_experiment(&mut hisyn, &mut env, 1);
    assert!(
        hisyn_rec.rounds[0].peer_transfers > 0.0,
        "rings must use peer links"
    );

    for rec in [
        {
            let mut env = cfg.build_env();
            let mut a = FedAvg::new(&cfg);
            run_experiment(&mut a, &mut env, 1)
        },
        {
            let mut env = cfg.build_env();
            let mut a = Scaffold::new(&cfg);
            run_experiment(&mut a, &mut env, 1)
        },
        {
            let mut env = cfg.build_env();
            let mut a = TAFedAvg::new(&cfg);
            run_experiment(&mut a, &mut env, 1)
        },
    ] {
        assert_eq!(rec.rounds[0].peer_transfers, 0.0, "{}", rec.algorithm);
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
    env.charge_upload(3);
    env.charge_download(2);
    env.charge_peer(5);
    let snap = env.meter.snapshot();
    assert_eq!(snap.parameters_moved, 10.0 * n as f64);
    assert_eq!(snap.bytes_moved(), 40.0 * n as f64);
    assert_eq!(
        snap.wire_bytes,
        10.0 * fedhisyn::nn::wire::encoded_len(n) as f64
    );
    assert!(snap.framing_overhead() > 0.0);
}

#[test]
fn every_protocol_accounts_wire_bytes() {
    // All algorithms route transfers through the wire-charged helpers, so
    // a run's wire ledger must exceed its idealised payload ledger by
    // exactly the per-frame header overhead.
    let cfg = cfg();
    let mut env = cfg.build_env();
    let mut a = FedHiSyn::new(&cfg, 2);
    let _ = run_experiment(&mut a, &mut env, 1);
    let snap = env.meter.snapshot();
    let transfers = snap.uploads + snap.downloads + snap.peer_transfers;
    assert!(snap.wire_bytes > snap.bytes_moved());
    let expected_overhead = transfers * fedhisyn::nn::wire::HEADER_LEN as f64;
    assert!(
        (snap.framing_overhead() - expected_overhead).abs() < 1e-6,
        "overhead {} != transfers x header {}",
        snap.framing_overhead(),
        expected_overhead
    );
}

#[test]
fn uploads_to_target_uses_fedavg_round_units() {
    let cfg = cfg();
    let mut env = cfg.build_env();
    let mut a = FedAvg::new(&cfg);
    let rec = run_experiment(&mut a, &mut env, 2);
    // Target below round-0 accuracy => cost is exactly one FedAvg round.
    let easy_target = rec.rounds[0].accuracy - 1e-6;
    assert_eq!(rec.uploads_to_target(easy_target, 6.0), Some(1.0));
}

//! Telemetry determinism contract (integration level).
//!
//! The observability layer promises that everything stamped with
//! *virtual time* is a pure function of the experiment seed: identical
//! seeds must produce bit-identical span streams, metric values and
//! per-round `RoundTelemetry` — across repeated runs. Wall-clock fields
//! are explicitly outside the contract and are masked before every
//! comparison (already zeroed in `deterministic_stream`). These tests pin that contract at
//! the full-experiment level.

use fedhisyn::core::{run_experiment, ExperimentConfig, FedHiSyn, RunRecord};
use fedhisyn::data::{DatasetProfile, Partition, Scale};
use fedhisyn::fleet::FleetDynamics;
use fedhisyn::nn::Codec;
use fedhisyn::simnet::FaultConfig;
use fedhisyn::telemetry::{Phase, SpanEvent, TelemetrySink};

const CAPACITY: usize = 1 << 14;

fn workload() -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(8)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .rounds(3)
        .local_epochs(1)
        .seed(7)
        .build()
}

/// A FedHiSyn cell that exercises every relay emission site: churn and
/// mid-round crashes (salvage hops), a lossy wire (`RelayAttempt` spans,
/// give-ups, proactive rebuilds) and the Int8 codec. Run with `K = 4`.
fn churned_lossy_int8() -> ExperimentConfig {
    let mut fleet = FleetDynamics::churn(0.1);
    fleet.mid_round_failure = 0.1;
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(40)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .fleet(fleet)
        .codec(Codec::Int8)
        .faults(FaultConfig::lossy(0.3))
        .rounds(6)
        .local_epochs(1)
        .seed(11)
        .build()
}

/// The churned, lossy, Int8 cell's telemetry `(fingerprint, spans)` at
/// `K = 4`. The fingerprint covers the retry and give-up counters and
/// every phase's span count, so a change to any relay emission site shows
/// here. Both kernel tiers produce these values.
const CHURNED_LOSSY_INT8_PIN: (u64, usize) = (0x60d7_9df4_2280_6ebf, 1_106);

/// Run FedHiSyn with `k` classes and an enabled sink; return the record
/// plus the deterministic telemetry artefacts (span stream + fingerprint).
fn traced_run(cfg: &ExperimentConfig, k: usize) -> (RunRecord, Vec<SpanEvent>, u64) {
    let mut env = cfg.build_env();
    env.telemetry = TelemetrySink::enabled(CAPACITY);
    let mut algo = FedHiSyn::new(cfg, k);
    let record = run_experiment(&mut algo, &mut env, cfg.rounds);
    let t = env.telemetry.telemetry().expect("enabled");
    assert_eq!(t.dropped(), 0, "buffer sized for the whole run");
    (record, t.deterministic_stream(), t.fingerprint())
}

/// Twenty runs, not two: parallel ring lanes record spans, bump counters
/// and feed the run record from worker threads, and an order-dependent
/// reduction there lets a single pair of runs agree by luck.
#[test]
fn same_seed_runs_emit_bit_identical_virtual_time_streams() {
    let cfg = workload();
    let (rec_a, stream_a, fp_a) = traced_run(&cfg, 2);
    assert!(!stream_a.is_empty());
    for run in 1..20 {
        let (rec_b, stream_b, fp_b) = traced_run(&cfg, 2);
        assert_eq!(
            stream_a, stream_b,
            "run {run}: span streams must replay bit-identically"
        );
        assert_eq!(fp_a, fp_b, "run {run}: telemetry fingerprints must match");
        assert_eq!(
            rec_a, rec_b,
            "run {run}: run records must replay bit-identically"
        );
    }
    // Wall clock is outside the contract — and already masked out.
    assert!(stream_a
        .iter()
        .all(|e| e.wall_start_ns == 0 && e.wall_end_ns == 0));
}

#[test]
fn every_round_covers_the_span_taxonomy() {
    let cfg = workload();
    let (_, stream, _) = traced_run(&cfg, 2);
    for round in 0..cfg.rounds as u32 {
        for phase in [
            Phase::Round,
            Phase::Clustering,
            Phase::RingInterval,
            Phase::LocalTrain,
            Phase::Aggregation,
            Phase::Evaluation,
        ] {
            assert!(
                stream.iter().any(|e| e.round == round && e.phase == phase),
                "round {round} missing a {} span",
                phase.name()
            );
        }
    }
    // Virtual extents are sane: every span ends no earlier than it starts.
    assert!(stream.iter().all(|e| e.vt_end >= e.vt_start));
}

#[test]
fn round_telemetry_folds_consistent_traffic_deltas() {
    let cfg = workload();
    let mut env = cfg.build_env();
    let mut algo = FedHiSyn::new(&cfg, 2);
    let record = run_experiment(&mut algo, &mut env, cfg.rounds);
    let total = env.meter.snapshot();

    // Per-round deltas must sum back to the meter's cumulative totals.
    let sum = |f: fn(&fedhisyn::telemetry::RoundTelemetry) -> f64| -> f64 {
        record.rounds.iter().map(|r| f(&r.telemetry)).sum()
    };
    assert!(total.uploads > 0.0);
    assert_eq!(sum(|t| t.uploads), total.uploads);
    assert_eq!(sum(|t| t.downloads), total.downloads);
    assert_eq!(sum(|t| t.peer_transfers), total.peer_transfers);
    assert_eq!(sum(|t| t.wire_bytes), total.wire_bytes);
    // `RoundRecord::wire_bytes` is the same per-round delta, surfaced.
    for r in &record.rounds {
        assert_eq!(r.wire_bytes, r.telemetry.wire_bytes);
    }
    // And the deltas reconcile with the cumulative uploads column.
    let last = record.rounds.last().expect("rounds recorded");
    assert_eq!(sum(|t| t.uploads), last.uploads);
}

#[test]
fn enabled_sink_does_not_perturb_results() {
    let cases = [
        (workload(), 2, None),
        (churned_lossy_int8(), 4, Some(CHURNED_LOSSY_INT8_PIN)),
    ];
    for (cfg, k, pin) in cases {
        let (traced, stream, fp) = traced_run(&cfg, k);
        if let Some(pin) = pin {
            assert_eq!((fp, stream.len()), pin, "relay telemetry moved");
        }
        let mut env = cfg.build_env(); // default: disabled sink
        assert!(!env.telemetry.is_enabled());
        let mut algo = FedHiSyn::new(&cfg, k);
        let plain = run_experiment(&mut algo, &mut env, cfg.rounds);
        assert_eq!(traced, plain, "observability must be read-only");
    }
}

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

/// Run FedHiSyn with an enabled sink; return the record plus the
/// deterministic telemetry artefacts (span stream + fingerprint).
fn traced_run(cfg: &ExperimentConfig) -> (RunRecord, Vec<SpanEvent>, u64) {
    let mut env = cfg.build_env();
    env.telemetry = TelemetrySink::enabled(CAPACITY);
    let mut algo = FedHiSyn::new(cfg, 2);
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
    let (rec_a, stream_a, fp_a) = traced_run(&cfg);
    assert!(!stream_a.is_empty());
    for run in 1..20 {
        let (rec_b, stream_b, fp_b) = traced_run(&cfg);
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
    let (_, stream, _) = traced_run(&cfg);
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
    let cfg = workload();
    let (traced, _, _) = traced_run(&cfg);
    let mut env = cfg.build_env(); // default: disabled sink
    assert!(!env.telemetry.is_enabled());
    let mut algo = FedHiSyn::new(&cfg, 2);
    let plain = run_experiment(&mut algo, &mut env, cfg.rounds);
    assert_eq!(traced, plain, "observability must be read-only");
}

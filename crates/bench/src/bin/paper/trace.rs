//! `paper --trace <path>`: run a short FedHiSyn experiment with the
//! telemetry sink enabled, export a Perfetto-loadable Chrome trace (plus
//! its JSONL sibling), and validate the emitted document in-process — so
//! the CI smoke step fails on any schema or coverage regression, not just
//! on a crash.

use std::path::Path;

use fedhisyn_core::{run_experiment, ExperimentConfig, FedHiSyn, RunRecord};
use fedhisyn_telemetry::{export_trace, validate_chrome_trace, Phase, TelemetrySink, TraceSummary};

/// Span-buffer capacity for traced smoke runs: a short run emits a few
/// spans per device-step plus a handful per round, so 64k events leaves
/// generous headroom — and [`run_traced`] asserts nothing was dropped.
const TRACE_CAPACITY: usize = 1 << 16;

/// The round-lifecycle taxonomy every traced round must cover (the
/// acceptance criterion; relay hops ride along but are fleet-dependent).
const ROUND_PHASES: &[Phase] = &[
    Phase::Clustering,
    Phase::RingInterval,
    Phase::LocalTrain,
    Phase::Aggregation,
    Phase::Evaluation,
];

/// Run FedHiSyn on `cfg` with tracing enabled, write the Chrome trace to
/// `path` (JSONL event log beside it), and validate what came out:
/// well-formed trace-event JSON, no dropped spans, and full round-
/// lifecycle coverage for **every** round. Panics on any violation — the
/// exit code of `paper --trace` is the test.
pub(crate) fn run_traced(
    cfg: &ExperimentConfig,
    k: usize,
    path: &Path,
) -> (RunRecord, TraceSummary) {
    let mut env = cfg.build_env();
    env.telemetry = TelemetrySink::enabled(TRACE_CAPACITY);
    let mut algo = FedHiSyn::new(cfg, k);
    let record = run_experiment(&mut algo, &mut env, cfg.rounds);

    let t = env.telemetry.telemetry().expect("sink enabled above");
    assert_eq!(
        t.dropped(),
        0,
        "span buffer overflowed — raise TRACE_CAPACITY"
    );
    let jsonl = export_trace(t, path).expect("write trace files");
    let json = std::fs::read_to_string(path).expect("re-read trace");
    let summary = validate_chrome_trace(&json).unwrap_or_else(|e| panic!("invalid trace: {e}"));
    assert_eq!(
        summary.rounds.len(),
        cfg.rounds,
        "every round must appear in the trace"
    );
    assert!(
        summary.every_round_covers(ROUND_PHASES),
        "round-lifecycle coverage incomplete: {:?}",
        summary.rounds
    );
    println!(
        "trace: {} events ({} virtual spans, {} rounds) -> {} + {}",
        summary.total_events,
        summary.virtual_spans,
        summary.rounds.len(),
        path.display(),
        jsonl.display()
    );
    (record, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_data::{DatasetProfile, Partition, Scale};

    #[test]
    fn traced_smoke_run_validates() {
        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(6)
            .partition(Partition::Dirichlet { beta: 0.3 })
            .rounds(2)
            .local_epochs(1)
            .seed(11)
            .build();
        let dir = std::env::temp_dir().join("fedhisyn_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smoke_trace.json");
        let (record, summary) = run_traced(&cfg, 2, &path);
        assert_eq!(record.rounds.len(), 2);
        assert_eq!(summary.rounds.len(), 2);
        assert!(path.with_extension("jsonl").exists());
    }
}

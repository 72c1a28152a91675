//! Experiment records: per-round metrics and Table 1 accounting.

use fedhisyn_telemetry::RoundTelemetry;
use serde::{Deserialize, Serialize};

/// Metrics captured after one communication round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Global-model accuracy on the held-out test split.
    pub accuracy: f32,
    /// Cumulative device→server uploads, in model-equivalents.
    pub uploads: f64,
    /// Cumulative server→device downloads, in model-equivalents.
    pub downloads: f64,
    /// Cumulative device→device ring transfers, in model-equivalents.
    pub peer_transfers: f64,
    /// Encoded wire bytes moved **this round** (per-round delta of the
    /// meter's cumulative `wire_bytes` ledger), so framing/compression
    /// studies read it directly instead of differencing ledgers.
    pub wire_bytes: f64,
    /// Devices that participated this round.
    pub participants: usize,
    /// Virtual time elapsed since the experiment started.
    pub virtual_time: f64,
    /// Unified per-round observability snapshot (traffic deltas +
    /// engine/fleet runtime counters). Its `PartialEq` compares only the
    /// deterministic traffic fields, keeping record-equality assertions
    /// meaningful across runs and thread counts.
    pub telemetry: RoundTelemetry,
}

/// A complete experiment run for one algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunRecord {
    /// Algorithm name (e.g. "FedHiSyn", "FedAvg").
    pub algorithm: String,
    /// GEMM micro-kernel tier that produced this run (`"scalar"` or
    /// `"avx2"`), stamped so a result names the kernel behind it.
    pub kernel_tier: String,
    /// Always `true`: every tier there is computes the same bits. Kept
    /// because removing a serialised field changes every stored record
    /// and fingerprint; it goes when the benchmark baseline is re-recorded.
    pub kernel_tier_bit_identical: bool,
    /// Wire-codec label this run's traffic crossed (`"f32"`, `"int8"`,
    /// `"topk<permille>"`) — stamped next to `kernel_tier` so
    /// accuracy-vs-bytes results are never compared across codecs by
    /// accident.
    pub codec: String,
    /// Per-round metrics in order.
    pub rounds: Vec<RoundRecord>,
}

impl RunRecord {
    /// New empty record for an algorithm, stamped with the kernel tier
    /// active in this process.
    pub fn new(algorithm: impl Into<String>) -> Self {
        RunRecord {
            algorithm: algorithm.into(),
            kernel_tier: crate::engine::ExecutionEngine::kernel_tier().to_string(),
            kernel_tier_bit_identical: true,
            codec: fedhisyn_nn::Codec::F32.label(),
            rounds: Vec::new(),
        }
    }

    /// Final test accuracy (0 when no rounds ran).
    pub fn final_accuracy(&self) -> f32 {
        self.rounds.last().map(|r| r.accuracy).unwrap_or(0.0)
    }

    /// Best test accuracy across rounds.
    pub fn best_accuracy(&self) -> f32 {
        self.rounds.iter().map(|r| r.accuracy).fold(0.0, f32::max)
    }

    /// Table 1's metric: uploads (in model-equivalents) accumulated by the
    /// first round that reached `target`, normalized by `unit` (one FedAvg
    /// round's uploads = participants per round). `None` when the target
    /// was never reached — rendered as the paper's "X" entries.
    pub fn uploads_to_target(&self, target: f32, unit: f64) -> Option<f64> {
        assert!(unit > 0.0, "normalization unit must be positive");
        self.rounds
            .iter()
            .find(|r| r.accuracy >= target)
            .map(|r| r.uploads / unit)
    }

    /// Total uploads at the end of the run.
    pub fn total_uploads(&self) -> f64 {
        self.rounds.last().map(|r| r.uploads).unwrap_or(0.0)
    }

    /// Accuracy series (for figure output).
    pub fn accuracy_series(&self) -> Vec<f32> {
        self.rounds.iter().map(|r| r.accuracy).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with(accs: &[f32]) -> RunRecord {
        let mut r = RunRecord::new("test");
        for (i, &a) in accs.iter().enumerate() {
            r.rounds.push(RoundRecord {
                round: i,
                accuracy: a,
                uploads: (i + 1) as f64 * 10.0,
                downloads: (i + 1) as f64 * 10.0,
                peer_transfers: 0.0,
                wire_bytes: (i + 1) as f64 * 100.0,
                participants: 10,
                virtual_time: (i + 1) as f64,
                telemetry: RoundTelemetry::default(),
            });
        }
        r
    }

    #[test]
    fn final_and_best_accuracy() {
        let r = record_with(&[0.1, 0.5, 0.4]);
        assert_eq!(r.final_accuracy(), 0.4);
        assert_eq!(r.best_accuracy(), 0.5);
    }

    #[test]
    fn uploads_to_target_normalizes() {
        let r = record_with(&[0.1, 0.6]);
        // Crossed at round 1 with 20 uploads; unit 10 → 2 "FedAvg rounds".
        assert_eq!(r.uploads_to_target(0.5, 10.0), Some(2.0));
        assert_eq!(r.uploads_to_target(0.99, 10.0), None);
    }

    #[test]
    fn empty_record_defaults() {
        let r = RunRecord::new("empty");
        assert_eq!(r.final_accuracy(), 0.0);
        assert_eq!(r.best_accuracy(), 0.0);
        assert_eq!(r.total_uploads(), 0.0);
        assert!(r.uploads_to_target(0.1, 1.0).is_none());
    }

    #[test]
    fn serde_round_trip() {
        let r = record_with(&[0.2, 0.4]);
        let json = serde_json::to_string(&r).unwrap();
        let back: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn records_are_stamped_with_the_numeric_mode() {
        let r = RunRecord::new("stamped");
        assert!(
            ["scalar", "avx2"].contains(&r.kernel_tier.as_str()),
            "unexpected tier {}",
            r.kernel_tier
        );
        assert!(r.kernel_tier_bit_identical);
        assert_eq!(r.codec, "f32", "fresh records default to the f32 wire");
    }

    #[test]
    fn accuracy_series_matches_rounds() {
        let r = record_with(&[0.2, 0.4, 0.5]);
        assert_eq!(r.accuracy_series(), vec![0.2, 0.4, 0.5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_unit_panics() {
        let r = record_with(&[0.9]);
        let _ = r.uploads_to_target(0.5, 0.0);
    }
}

//! FedAT — tiered semi-asynchronous federated learning.

use fedhisyn_cluster::quantile_bins;
use fedhisyn_core::local::train_steps;
use fedhisyn_core::{AggregationRule, ExperimentConfig, FlAlgorithm, RoundContext, ServerLink};
use fedhisyn_nn::{CodecScratch, NoHook, ParamVec};
use rayon::prelude::*;

use crate::common::{aggregate_into, survives_round};

/// FedAT (Chai et al., SC 2021; §6.1 of the FedHiSyn paper): devices are
/// grouped into latency tiers; *within* a tier updates are synchronous
/// (classic FedAvg among tier members), *across* tiers updates are
/// asynchronous — a fast tier completes many internal rounds while the
/// slow tier completes one. The server keeps one model per tier and forms
/// the global model as a cross-tier weighted average that gives **higher
/// weight to tiers that updated less often**, countering the fast tiers'
/// data bias.
///
/// Within one reporting round (interval `R` = slowest participant), tier
/// `m` with internal period `p_m` (its slowest member) performs
/// `ceil(R / p_m)` internal rounds, uploading its members' models each
/// time — which is why Table 1 charges FedAT several transfers per round.
/// Members restart each internal round from their tier's model; that
/// in-tier re-download is neither charged nor coded.
#[derive(Debug)]
pub struct FedAT {
    participation: f64,
    /// Number of latency tiers `M`.
    pub tiers: usize,
    global: ParamVec,
    /// Cumulative update counts per tier (persist across rounds for the
    /// inverse-frequency weights).
    update_counts: Vec<u64>,
    link: ServerLink,
}

impl FedAT {
    /// Build from an experiment config with `tiers` latency tiers.
    pub fn new(cfg: &ExperimentConfig, tiers: usize) -> Self {
        assert!(tiers > 0, "need at least one tier");
        FedAT {
            participation: cfg.participation,
            tiers,
            global: cfg.initial_params(),
            update_counts: vec![0; tiers],
            link: ServerLink::default(),
        }
    }

    /// Current global model.
    pub fn global(&self) -> &ParamVec {
        &self.global
    }

    /// Inverse-frequency tier weights from cumulative update counts:
    /// `w_m ∝ (T − n_m + 1)` where `T = Σ n_m` (FedAT's heuristic shape:
    /// monotonically decreasing in the tier's own update count, strictly
    /// positive).
    fn tier_weights(counts: &[u64]) -> Vec<f64> {
        let total: u64 = counts.iter().sum();
        counts
            .iter()
            .map(|&n| (total.saturating_sub(n) + 1) as f64)
            .collect()
    }
}

impl FlAlgorithm for FedAT {
    fn name(&self) -> String {
        "FedAT".to_string()
    }

    fn participation(&self) -> f64 {
        self.participation
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        let env = ctx.env;
        let round = ctx.round;
        self.link
            .broadcast(env, &self.global, ctx.participants.len());

        // The reporting interval is set by the slowest *online*
        // participant — the same clock `round_duration` records and the
        // other baselines train against — before any casualty is dropped.
        let interval = env.slowest_latency_at(ctx.participants, round);

        // Mid-round casualties are approximated as absent for the whole
        // reporting round: FedAT's internal tier rounds re-aggregate
        // continuously, so a device lost partway poisons every later
        // internal round — dropping it up front is the honest cut.
        let s: Vec<usize> = ctx
            .participants
            .iter()
            .copied()
            .filter(|&d| survives_round(env, d, round))
            .collect();
        if s.is_empty() {
            return self.global.clone();
        }
        let s = &s[..];

        // Tier the participants by latency (equal-population bins, as in
        // FedAT's profiling-based tiering) observed *this round*.
        let latencies: Vec<f64> = s.iter().map(|&d| env.latency_at(d, round)).collect();
        let m = self.tiers.min(s.len());
        let bins = quantile_bins(&latencies, m);
        if self.update_counts.len() < m {
            self.update_counts.resize(m, 0);
        }

        // Each tier runs its internal synchronous rounds independently.
        let (link, global) = (&self.link, self.link.received(&self.global));
        let tier_results: Vec<(ParamVec, u64, f64)> = bins
            .par_iter()
            .map(|bin| {
                let members: Vec<usize> = bin.iter().map(|&i| s[i]).collect();
                let period = env.slowest_latency_at(&members, round);
                let internal_rounds = ((interval / period).ceil() as u64).max(1);
                let mut tier_model = global.clone();
                let mut scratch = CodecScratch::new();
                for ir in 0..internal_rounds {
                    // Every internal round uploads each member's model.
                    // Its batch orders are keyed by (round, internal round).
                    let key = round.wrapping_mul(31).wrapping_add(ir as usize * 1024 + 1);
                    let updated: Vec<(usize, ParamVec)> = members
                        .iter()
                        .map(|&d| {
                            let mut trained = train_steps(env, d, &tier_model, 1, key, &NoHook);
                            link.upload(env, d, &mut trained, &mut scratch);
                            (d, trained)
                        })
                        .collect();
                    let rule = AggregationRule::SampleWeighted;
                    aggregate_into(&mut tier_model, env, round, rule, &updated);
                }
                let mean_lat = members
                    .iter()
                    .map(|&d| env.latency_at(d, round))
                    .sum::<f64>()
                    / members.len() as f64;
                (tier_model, internal_rounds, mean_lat)
            })
            .collect();

        // Cross-tier asynchronous merge with inverse-frequency weights.
        for (t, (_, updates, _)) in tier_results.iter().enumerate() {
            self.update_counts[t] += updates;
        }
        let weights = Self::tier_weights(&self.update_counts[..tier_results.len()]);
        let contributions: Vec<(f32, &ParamVec)> = tier_results
            .iter()
            .zip(&weights)
            .map(|((model, _, _), &w)| (w as f32, model))
            .collect();
        self.global = ParamVec::weighted_mean(contributions);
        self.global.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_core::{run_experiment, ExperimentConfig};
    use fedhisyn_data::{DatasetProfile, Partition, Scale};
    use fedhisyn_simnet::HeterogeneityModel;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(6)
            .partition(Partition::Iid)
            .heterogeneity(HeterogeneityModel::Uniform { h: 8.0 })
            .local_epochs(1)
            .seed(71)
            .build()
    }

    #[test]
    fn tier_weights_penalize_frequent_updaters() {
        let w = FedAT::tier_weights(&[10, 1]);
        assert!(w[1] > w[0], "less-updated tier must weigh more: {w:?}");
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn uploads_exceed_sync_protocols_under_heterogeneity() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = FedAT::new(&cfg, 3);
        let rec = run_experiment(&mut algo, &mut env, 1);
        assert!(
            rec.rounds[0].uploads > rec.rounds[0].participants as f64,
            "fast tiers upload multiple times: {} vs {}",
            rec.rounds[0].uploads,
            rec.rounds[0].participants
        );
    }

    #[test]
    fn learns_on_iid_data() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = FedAT::new(&cfg, 2);
        let init = fedhisyn_core::local::evaluate_on_test(&env, algo.global());
        let rec = run_experiment(&mut algo, &mut env, 4);
        assert!(
            rec.final_accuracy() > init + 0.08,
            "should improve over init: {init} -> {}",
            rec.final_accuracy()
        );
    }

    #[test]
    fn more_tiers_than_participants_is_clamped() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = FedAT::new(&cfg, 100);
        let rec = run_experiment(&mut algo, &mut env, 1);
        assert_eq!(rec.rounds.len(), 1);
        assert!(algo.global().is_finite());
    }
}

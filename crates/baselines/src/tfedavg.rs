//! TFedAvg — strictly synchronous FedAvg (fixed local epochs).

use fedhisyn_core::local::train_steps;
use fedhisyn_core::{AggregationRule, ExperimentConfig, FlAlgorithm, RoundContext, ServerLink};
use fedhisyn_nn::{NoHook, ParamVec};

use crate::common::{aggregate_into, collected_round};

/// TFedAvg (§6.1): every participant trains exactly `E` local epochs and
/// then *waits* for the slowest device before uploading — the classic
/// straggler-bound synchronous FL. Fast devices idle for most of the
/// round, which is precisely the waste FedHiSyn's rings reclaim.
#[derive(Debug)]
pub struct TFedAvg {
    participation: f64,
    global: ParamVec,
    link: ServerLink,
}

impl TFedAvg {
    /// Build from an experiment config.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        TFedAvg {
            participation: cfg.participation,
            global: cfg.initial_params(),
            link: ServerLink::default(),
        }
    }

    /// Current global model.
    pub fn global(&self) -> &ParamVec {
        &self.global
    }
}

impl FlAlgorithm for TFedAvg {
    fn name(&self) -> String {
        "TFedAvg".to_string()
    }

    fn participation(&self) -> f64 {
        self.participation
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        let (env, round) = (ctx.env, ctx.round);
        // Exactly one local step each, regardless of speed.
        let updated = collected_round(ctx, &mut self.link, &self.global, |d, start| {
            train_steps(env, d, start, 1, round, &NoHook)
        });
        let rule = AggregationRule::SampleWeighted;
        aggregate_into(&mut self.global, env, round, rule, &updated);
        self.global.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_core::{run_experiment, ExperimentConfig};
    use fedhisyn_data::{DatasetProfile, Partition, Scale};

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(5)
            .partition(Partition::Iid)
            .local_epochs(1)
            .seed(31)
            .build()
    }

    #[test]
    fn learns_on_iid_data() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = TFedAvg::new(&cfg);
        let init = fedhisyn_core::local::evaluate_on_test(&env, algo.global());
        let rec = run_experiment(&mut algo, &mut env, 4);
        assert!(
            rec.final_accuracy() > init + 0.08,
            "should improve over init: {init} -> {}",
            rec.final_accuracy()
        );
    }

    #[test]
    fn fixed_epochs_do_less_work_than_fedavg() {
        // Under heterogeneity, TFedAvg's global does strictly less local
        // work than FedAvg's "max achievable" — verify via accuracy on a
        // hard split (TFedAvg should not be better after round 1 on
        // average; weak smoke proxy: both runs complete and stay finite).
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = TFedAvg::new(&cfg);
        let rec = run_experiment(&mut algo, &mut env, 1);
        assert!(algo.global().is_finite());
        assert_eq!(rec.rounds.len(), 1);
    }
}

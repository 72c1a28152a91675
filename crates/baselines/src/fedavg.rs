//! FedAvg — the paper's interval-collected variant.

use fedhisyn_core::local::train_steps;
use fedhisyn_core::{AggregationRule, ExperimentConfig, FlAlgorithm, RoundContext, ServerLink};
use fedhisyn_nn::{NoHook, ParamVec};

use crate::common::{aggregate_into, collected_round};

/// FedAvg as evaluated by the paper (§6.1): the server collects weights at
/// regular intervals, so a device with more compute performs more local
/// work within the round ("the local epochs … are the maximum achievable
/// training time in a round"). Aggregation is sample-weighted (Eq. 3).
#[derive(Debug)]
pub struct FedAvg {
    participation: f64,
    global: ParamVec,
    link: ServerLink,
}

impl FedAvg {
    /// Build from an experiment config.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        FedAvg {
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

impl FlAlgorithm for FedAvg {
    fn name(&self) -> String {
        "FedAvg".to_string()
    }

    fn participation(&self) -> f64 {
        self.participation
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        let (env, round) = (ctx.env, ctx.round);
        let interval = env.slowest_latency_at(ctx.participants, round);
        let updated = collected_round(ctx, &mut self.link, &self.global, |d, start| {
            let steps = env.step_budget(d, interval, round);
            train_steps(env, d, start, steps, round, &NoHook)
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

    fn cfg(devices: usize) -> ExperimentConfig {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(devices)
            .partition(Partition::Iid)
            .local_epochs(1)
            .seed(21)
            .build()
    }

    #[test]
    fn accuracy_improves_over_rounds() {
        let cfg = cfg(6);
        let mut env = cfg.build_env();
        let mut algo = FedAvg::new(&cfg);
        let init = fedhisyn_core::local::evaluate_on_test(&env, algo.global());
        let rec = run_experiment(&mut algo, &mut env, 3);
        assert!(
            rec.final_accuracy() > init + 0.1,
            "IID FedAvg should learn quickly: {init} -> {}",
            rec.final_accuracy()
        );
    }
}

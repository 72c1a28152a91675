//! FedAvg — the paper's interval-collected variant.

use fedhisyn_core::aggregate::Contribution;
use fedhisyn_core::{AggregationRule, ExperimentConfig, FlAlgorithm, RoundContext};
use fedhisyn_nn::ParamVec;
use rayon::prelude::*;

use crate::common::{achievable_steps_at, continuous_local_train_plain, survives_round};

/// FedAvg as evaluated by the paper (§6.1): the server collects weights at
/// regular intervals, so a device with more compute performs more local
/// work within the round ("the local epochs … are the maximum achievable
/// training time in a round"). Aggregation is sample-weighted (Eq. 3).
#[derive(Debug)]
pub struct FedAvg {
    participation: f64,
    global: ParamVec,
}

impl FedAvg {
    /// Build from an experiment config.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        FedAvg {
            participation: cfg.participation,
            global: cfg.initial_params(),
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
        let env = ctx.env;
        let s = ctx.participants;
        let round = ctx.round;
        let interval = env.slowest_latency_at(s, round);

        env.charge_download(s.len() as u64);

        let global = &self.global;
        // Mid-round casualties never report: their round's work is lost
        // with the device (partial cohort). Static fleets keep everyone.
        let survivors: Vec<usize> = s
            .iter()
            .copied()
            .filter(|&d| survives_round(env, d, round))
            .collect();
        let updated: Vec<(usize, ParamVec)> = survivors
            .par_iter()
            .map(|&d| {
                let steps = achievable_steps_at(env, d, interval, round);
                (
                    d,
                    continuous_local_train_plain(env, d, global, steps, round),
                )
            })
            .collect();

        env.charge_upload(updated.len() as u64);
        if updated.is_empty() {
            return self.global.clone();
        }
        let contributions: Vec<Contribution<'_>> = updated
            .iter()
            .map(|(d, params)| Contribution {
                params,
                samples: env.shard_len(*d),
                class_mean_time: env.latency_at(*d, round),
            })
            .collect();
        self.global = AggregationRule::SampleWeighted.aggregate(&contributions);
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

    #[test]
    fn uploads_are_one_per_participant_per_round() {
        let cfg = cfg(5);
        let mut env = cfg.build_env();
        let mut algo = FedAvg::new(&cfg);
        let rec = run_experiment(&mut algo, &mut env, 2);
        assert_eq!(rec.rounds[0].uploads, 5.0);
        assert_eq!(rec.rounds[1].uploads, 10.0);
        assert_eq!(
            rec.rounds[1].peer_transfers, 0.0,
            "FedAvg has no ring traffic"
        );
    }

    #[test]
    fn deterministic() {
        let c = cfg(4);
        let run = || {
            let mut env = c.build_env();
            let mut algo = FedAvg::new(&c);
            run_experiment(&mut algo, &mut env, 2)
        };
        assert_eq!(run(), run());
    }
}

//! FedProx — FedAvg with a proximal term against client drift.

use fedhisyn_core::aggregate::Contribution;
use fedhisyn_core::{AggregationRule, ExperimentConfig, FlAlgorithm, RoundContext};
use fedhisyn_nn::{GradHook, ParamVec};
use rayon::prelude::*;

use crate::common::{achievable_steps_at, continuous_local_train, survives_round};

/// FedProx (Li et al., MLSys 2020; §6.1 of the FedHiSyn paper): local
/// objectives gain a proximal term `(μ/2)·‖w − w_G‖²`, whose gradient
/// contribution `μ·(w − w_G)` pulls each device back toward the round's
/// global model, tolerating variable amounts of local work across
/// heterogeneous devices.
#[derive(Debug)]
pub struct FedProx {
    participation: f64,
    /// Proximal coefficient `μ`.
    pub mu: f32,
    global: ParamVec,
}

impl FedProx {
    /// Build from an experiment config with the default `μ = 0.01`.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        Self::with_mu(cfg, 0.01)
    }

    /// Build with an explicit proximal coefficient.
    pub fn with_mu(cfg: &ExperimentConfig, mu: f32) -> Self {
        assert!(mu >= 0.0, "mu must be non-negative");
        FedProx {
            participation: cfg.participation,
            mu,
            global: cfg.initial_params(),
        }
    }

    /// Current global model.
    pub fn global(&self) -> &ParamVec {
        &self.global
    }
}

/// The proximal gradient correction: `g ← g + μ·(w − w_G)`.
///
/// Operates on the in-place parameter/gradient slices the engine walks:
/// `offset` locates the slice inside the flat layout, which is where the
/// matching anchor coordinates live.
pub struct ProxHook<'a> {
    /// Proximal coefficient `μ`.
    pub mu: f32,
    /// The round's global model `w_G`.
    pub anchor: &'a ParamVec,
}

impl GradHook for ProxHook<'_> {
    fn adjust(&self, offset: usize, params: &[f32], grads: &mut [f32]) {
        assert!(
            offset + grads.len() <= self.anchor.len(),
            "anchor size mismatch"
        );
        let anchor = &self.anchor.as_slice()[offset..offset + grads.len()];
        for ((g, &w), &a) in grads.iter_mut().zip(params).zip(anchor) {
            *g += self.mu * (w - a);
        }
    }
}

impl FlAlgorithm for FedProx {
    fn name(&self) -> String {
        "FedProx".to_string()
    }

    fn participation(&self) -> f64 {
        self.participation
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        let env = ctx.env;
        let s = ctx.participants;
        let n_params = env.param_count();
        let round = ctx.round;
        let interval = env.slowest_latency_at(s, round);

        env.charge_download(s.len() as u64);
        let global = &self.global;
        // The per-slice hook can only bounds-check, so pin the anchor to
        // the model size once per round (the old whole-vector guard).
        assert_eq!(global.len(), n_params, "proximal anchor size mismatch");
        let mu = self.mu;
        // Mid-round casualties never report (partial cohort).
        let survivors: Vec<usize> = s
            .iter()
            .copied()
            .filter(|&d| survives_round(env, d, round))
            .collect();
        let updated: Vec<(usize, ParamVec)> = survivors
            .par_iter()
            .map(|&d| {
                let steps = achievable_steps_at(env, d, interval, round);
                let hook = ProxHook { mu, anchor: global };
                (
                    d,
                    continuous_local_train(env, d, global, steps, round, &hook),
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

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(5)
            .partition(Partition::Dirichlet { beta: 0.3 })
            .local_epochs(1)
            .seed(51)
            .build()
    }

    #[test]
    fn prox_hook_pulls_toward_anchor() {
        let anchor = ParamVec::from_vec(vec![0.0, 0.0]);
        let params = [2.0, -4.0];
        let mut grads = [0.0, 0.0];
        let hook = ProxHook {
            mu: 0.5,
            anchor: &anchor,
        };
        hook.adjust(0, &params, &mut grads);
        assert_eq!(grads, [1.0, -2.0]);
    }

    #[test]
    fn prox_hook_respects_slice_offsets() {
        // Adjusting the tail slice must read the anchor's tail, exactly as
        // a whole-vector adjustment would.
        let anchor = ParamVec::from_vec(vec![10.0, 20.0, 30.0]);
        let params = [31.0];
        let mut grads = [0.0];
        ProxHook {
            mu: 1.0,
            anchor: &anchor,
        }
        .adjust(2, &params, &mut grads);
        assert_eq!(grads, [1.0], "w - anchor[2] = 31 - 30");
    }

    #[test]
    fn zero_mu_equals_fedavg_gradients() {
        let anchor = ParamVec::from_vec(vec![1.0]);
        let params = [5.0];
        let mut grads = [3.0];
        ProxHook {
            mu: 0.0,
            anchor: &anchor,
        }
        .adjust(0, &params, &mut grads);
        assert_eq!(grads, [3.0]);
    }

    #[test]
    fn learns_on_noniid_data() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = FedProx::new(&cfg);
        let init = fedhisyn_core::local::evaluate_on_test(&env, algo.global());
        let rec = run_experiment(&mut algo, &mut env, 3);
        assert!(
            rec.final_accuracy() > init,
            "{init} -> {}",
            rec.final_accuracy()
        );
    }

    #[test]
    fn uploads_match_sync_protocols() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = FedProx::new(&cfg);
        let rec = run_experiment(&mut algo, &mut env, 2);
        assert_eq!(rec.rounds[1].uploads, 10.0);
    }

    #[test]
    fn large_mu_keeps_model_closer_to_global() {
        let cfg = cfg();
        let env = cfg.build_env();
        let global = cfg.initial_params();
        let free = continuous_local_train(
            &env,
            0,
            &global,
            1,
            0,
            &ProxHook {
                mu: 0.0,
                anchor: &global,
            },
        );
        let anchored = continuous_local_train(
            &env,
            0,
            &global,
            1,
            0,
            &ProxHook {
                mu: 1.0,
                anchor: &global,
            },
        );
        let d_free = free.distance(&global);
        let d_anchored = anchored.distance(&global);
        assert!(
            d_anchored < d_free,
            "mu=1 should stay closer to the anchor: {d_anchored} vs {d_free}"
        );
    }
}

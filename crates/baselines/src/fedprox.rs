//! FedProx — FedAvg with a proximal term against client drift.

use fedhisyn_core::local::train_steps;
use fedhisyn_core::{AggregationRule, ExperimentConfig, FlAlgorithm, RoundContext, ServerLink};
use fedhisyn_nn::{GradHook, ParamVec};

use crate::common::{aggregate_into, collected_round};

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
    link: ServerLink,
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
            link: ServerLink::default(),
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
struct ProxHook<'a> {
    /// Proximal coefficient `μ`.
    mu: f32,
    /// The round's global model `w_G`, as the device received it.
    anchor: &'a ParamVec,
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
        let (env, round, mu) = (ctx.env, ctx.round, self.mu);
        let interval = env.slowest_latency_at(ctx.participants, round);
        // The per-slice hook can only bounds-check, so pin the anchor to
        // the model size once per round.
        assert_eq!(
            self.global.len(),
            env.param_count(),
            "proximal anchor size mismatch"
        );
        let updated = collected_round(ctx, &mut self.link, &self.global, |d, start| {
            let steps = env.step_budget(d, interval, round);
            train_steps(env, d, start, steps, round, &ProxHook { mu, anchor: start })
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
    fn large_mu_keeps_model_closer_to_global() {
        let cfg = cfg();
        let env = cfg.build_env();
        let global = cfg.initial_params();
        let trained = |mu: f32| {
            let hook = ProxHook {
                mu,
                anchor: &global,
            };
            train_steps(&env, 0, &global, 1, 0, &hook)
        };
        let (free, anchored) = (trained(0.0), trained(1.0));
        let d_free = free.distance(&global);
        let d_anchored = anchored.distance(&global);
        assert!(
            d_anchored < d_free,
            "mu=1 should stay closer to the anchor: {d_anchored} vs {d_free}"
        );
    }
}

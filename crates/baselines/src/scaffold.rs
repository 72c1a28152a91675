//! SCAFFOLD — stochastic controlled averaging with control variates.

use fedhisyn_core::aggregate::Contribution;
use fedhisyn_core::{AggregationRule, ExperimentConfig, FlAlgorithm, RoundContext};
use fedhisyn_nn::{GradHook, ParamVec};
use rayon::prelude::*;

use crate::common::{achievable_steps_at, continuous_local_train, minibatch_steps, survives_round};

/// SCAFFOLD (Karimireddy et al., ICML 2020): the server maintains a global
/// control variate `c` and each device a local one `c_i`; local gradients
/// are corrected by `c − c_i`, cancelling client drift on Non-IID data.
/// After local training, devices update their variate with option II:
/// `c_i⁺ = c_i − c + (x − y_i) / (K·η)`.
///
/// Every exchange carries the model *and* a control variate, so the paper
/// (§6.1) charges SCAFFOLD **2 model-equivalents** per transfer; the meter
/// reflects that.
#[derive(Debug)]
pub struct Scaffold {
    participation: f64,
    global: ParamVec,
    /// Server control variate `c`.
    c_global: ParamVec,
    /// Per-device control variates `c_i`.
    c_local: Vec<ParamVec>,
    lr: f32,
}

impl Scaffold {
    /// Build from an experiment config.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        let global = cfg.initial_params();
        let n = global.len();
        Scaffold {
            participation: cfg.participation,
            global,
            c_global: ParamVec::zeros(n),
            c_local: vec![ParamVec::zeros(n); cfg.n_devices],
            lr: cfg.lr,
        }
    }

    /// Current global model.
    pub fn global(&self) -> &ParamVec {
        &self.global
    }

    /// Current server control variate.
    pub fn control_variate(&self) -> &ParamVec {
        &self.c_global
    }
}

/// SCAFFOLD's gradient correction: `g ← g + c − c_i`.
///
/// Operates on the in-place gradient slices the engine walks; `offset`
/// indexes the matching coordinates of both flat control variates.
pub struct ScaffoldHook<'a> {
    /// Server control variate.
    pub c_global: &'a ParamVec,
    /// Device control variate.
    pub c_local: &'a ParamVec,
}

impl GradHook for ScaffoldHook<'_> {
    fn adjust(&self, offset: usize, _params: &[f32], grads: &mut [f32]) {
        assert!(
            offset + grads.len() <= self.c_global.len(),
            "control variate size mismatch"
        );
        let span = offset..offset + grads.len();
        let c_global = &self.c_global.as_slice()[span.clone()];
        let c_local = &self.c_local.as_slice()[span];
        for ((g, &cg), &cl) in grads.iter_mut().zip(c_global).zip(c_local) {
            *g += cg - cl;
        }
    }
}

impl FlAlgorithm for Scaffold {
    fn name(&self) -> String {
        "SCAFFOLD".to_string()
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

        // Download = model + server variate: 2 model-equivalents each.
        env.charge_download(2 * s.len() as u64);

        let global = &self.global;
        let c_global = &self.c_global;
        let c_local = &self.c_local;
        // The per-slice hook can only bounds-check, so pin the variates to
        // the model size once per round (the old whole-vector guard).
        assert_eq!(c_global.len(), n_params, "control variate size mismatch");
        let lr = self.lr;
        // Mid-round casualties never report: neither their model nor
        // their variate delta reaches the server, and their local variate
        // stays as-is (partial cohort).
        let survivors: Vec<usize> = s
            .iter()
            .copied()
            .filter(|&d| survives_round(env, d, round))
            .collect();
        // (device, trained params, new c_i)
        let updated: Vec<(usize, ParamVec, ParamVec)> = survivors
            .par_iter()
            .map(|&d| {
                let steps = achievable_steps_at(env, d, interval, round);
                let hook = ScaffoldHook {
                    c_global,
                    c_local: &c_local[d],
                };
                let trained = continuous_local_train(env, d, global, steps, round, &hook);
                // Option II variate update: c_i+ = c_i − c + (x − y_i)/(K·η)
                let k = (minibatch_steps(env, d) * steps).max(1);
                let mut c_new = c_local[d].clone();
                c_new.sub_assign(c_global);
                let scale = 1.0 / (k as f32 * lr);
                for ((cn, &x), &y) in c_new
                    .as_mut_slice()
                    .iter_mut()
                    .zip(global.as_slice())
                    .zip(trained.as_slice())
                {
                    *cn += scale * (x - y);
                }
                (d, trained, c_new)
            })
            .collect();

        // Upload = model + variate delta: 2 model-equivalents each (§6.1).
        env.charge_upload(2 * updated.len() as u64);
        if updated.is_empty() {
            return self.global.clone();
        }

        // Server: aggregate models uniformly over participants and fold
        // variate deltas in at 1/N (N = fleet size), per the algorithm.
        let contributions: Vec<Contribution<'_>> = updated
            .iter()
            .map(|(d, params, _)| Contribution {
                params,
                samples: env.shard_len(*d),
                class_mean_time: env.latency_at(*d, round),
            })
            .collect();
        self.global = AggregationRule::Uniform.aggregate(&contributions);

        let n_fleet = env.n_devices() as f32;
        for (d, _, c_new) in updated {
            let mut delta = c_new.clone();
            delta.sub_assign(&self.c_local[d]);
            self.c_global.axpy(1.0 / n_fleet, &delta);
            self.c_local[d] = c_new;
        }
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
            .seed(61)
            .build()
    }

    #[test]
    fn hook_applies_variate_difference() {
        let cg = ParamVec::from_vec(vec![1.0, 2.0]);
        let cl = ParamVec::from_vec(vec![0.5, 1.0]);
        let mut grads = [0.0, 0.0];
        ScaffoldHook {
            c_global: &cg,
            c_local: &cl,
        }
        .adjust(0, &[0.0, 0.0], &mut grads);
        assert_eq!(grads, [0.5, 1.0]);
    }

    #[test]
    fn hook_respects_slice_offsets() {
        let cg = ParamVec::from_vec(vec![1.0, 2.0, 3.0]);
        let cl = ParamVec::from_vec(vec![0.0, 0.0, 1.0]);
        let mut grads = [0.0];
        ScaffoldHook {
            c_global: &cg,
            c_local: &cl,
        }
        .adjust(2, &[0.0], &mut grads);
        assert_eq!(grads, [2.0], "c[2] - c_i[2] = 3 - 1");
    }

    #[test]
    fn uploads_cost_double() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = Scaffold::new(&cfg);
        let rec = run_experiment(&mut algo, &mut env, 1);
        assert_eq!(
            rec.rounds[0].uploads, 10.0,
            "5 devices x 2 model-equivalents"
        );
        assert_eq!(rec.rounds[0].downloads, 10.0);
    }

    #[test]
    fn learns_on_noniid_data() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = Scaffold::new(&cfg);
        let init = fedhisyn_core::local::evaluate_on_test(&env, algo.global());
        let rec = run_experiment(&mut algo, &mut env, 3);
        assert!(
            rec.final_accuracy() > init,
            "{init} -> {}",
            rec.final_accuracy()
        );
        assert!(algo.global().is_finite());
        assert!(algo.control_variate().is_finite());
    }

    #[test]
    fn variates_start_at_zero_and_move() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = Scaffold::new(&cfg);
        assert_eq!(algo.control_variate().norm(), 0.0);
        let _ = run_experiment(&mut algo, &mut env, 2);
        assert!(
            algo.control_variate().norm() > 0.0,
            "server variate should update"
        );
    }

    #[test]
    fn deterministic() {
        let c = cfg();
        let run = || {
            let mut env = c.build_env();
            let mut algo = Scaffold::new(&c);
            run_experiment(&mut algo, &mut env, 2)
        };
        assert_eq!(run(), run());
    }
}

//! SCAFFOLD — stochastic controlled averaging with control variates.

use fedhisyn_core::env::FlEnv;
use fedhisyn_core::local::train_steps;
use fedhisyn_core::{AggregationRule, ExperimentConfig, FlAlgorithm, RoundContext, ServerLink};
use fedhisyn_nn::{GradHook, ParamVec};

use crate::common::{aggregate_into, collected_round};

/// SCAFFOLD (Karimireddy et al., ICML 2020): the server maintains a global
/// control variate `c` and each device a local one `c_i`; local gradients
/// are corrected by `c − c_i`, cancelling client drift on Non-IID data.
/// After local training, devices update their variate with option II:
/// `c_i⁺ = c_i − c + (x − y_i) / (K·η)`.
///
/// Every exchange carries the model *and* a control variate, so the paper
/// (§6.1) charges SCAFFOLD **2 model-equivalents** per transfer; the meter
/// reflects that. Only the model crosses the wire codec: the variate
/// equivalent is charged at the full-precision frame size under every
/// codec, because variates are exchanged uncompressed.
#[derive(Debug)]
pub struct Scaffold {
    participation: f64,
    global: ParamVec,
    /// Server control variate `c`.
    c_global: ParamVec,
    /// Per-device control variates `c_i`.
    c_local: Vec<ParamVec>,
    lr: f32,
    link: ServerLink,
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
            link: ServerLink::default(),
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
struct ScaffoldHook<'a> {
    /// Server control variate.
    c_global: &'a ParamVec,
    /// Device control variate.
    c_local: &'a ParamVec,
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

/// Mini-batch SGD steps one local-training step performs on `device`
/// (epochs × batches per epoch) — SCAFFOLD's `K` in its control-variate
/// update.
fn minibatch_steps(env: &FlEnv, device: usize) -> usize {
    let n = env.shard_len(device);
    let batches = n.div_ceil(env.batch_size).max(1);
    batches * env.local_epochs
}

impl FlAlgorithm for Scaffold {
    fn name(&self) -> String {
        "SCAFFOLD".to_string()
    }

    fn participation(&self) -> f64 {
        self.participation
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        let (env, round) = (ctx.env, ctx.round);
        let interval = env.slowest_latency_at(ctx.participants, round);
        let (c_global, c_local) = (&self.c_global, &self.c_local);
        // The per-slice hook can only bounds-check, so pin the variates to
        // the model size once per round.
        assert_eq!(
            c_global.len(),
            env.param_count(),
            "control variate size mismatch"
        );
        // Mid-round casualties never report: neither their model nor
        // their variate delta reaches the server, and their local variate
        // stays as-is (partial cohort).
        let updated = collected_round(ctx, &mut self.link, &self.global, |d, start| {
            let steps = env.step_budget(d, interval, round);
            let c_local = &c_local[d];
            let hook = ScaffoldHook { c_global, c_local };
            train_steps(env, d, start, steps, round, &hook)
        });
        // The server variate rides down with every model, a variate delta
        // rides up with every report.
        let (down, up) = (ctx.participants.len() as u64, updated.len() as u64);
        self.link.charge_uncoded(env, down, up);

        // Option II variate update, `c_i⁺ = c_i − c + (x − y_i)/(K·η)`,
        // from the model the device received (`x`) and the one the server
        // decoded from it (`y_i`), every device against the round's `c`;
        // the deltas fold into `c` at 1/N (N = fleet size).
        let x = self.link.received(&self.global);
        let (c, n_fleet) = (self.c_global.clone(), env.n_devices() as f32);
        for (d, y) in &updated {
            let k = minibatch_steps(env, *d) * env.step_budget(*d, interval, round);
            let scale = 1.0 / (k.max(1) as f32 * self.lr);
            let mut c_new = self.c_local[*d].clone();
            c_new.sub_assign(&c);
            for ((cn, &x), &y) in c_new
                .as_mut_slice()
                .iter_mut()
                .zip(x.as_slice())
                .zip(y.as_slice())
            {
                *cn += scale * (x - y);
            }
            let mut delta = c_new.clone();
            delta.sub_assign(&self.c_local[*d]);
            self.c_global.axpy(1.0 / n_fleet, &delta);
            self.c_local[*d] = c_new;
        }
        // Models aggregate uniformly over the reporting devices.
        let rule = AggregationRule::Uniform;
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
    fn minibatch_steps_counts_batches() {
        let env = cfg().build_env();
        let n = env.shard_len(0);
        let expect = n.div_ceil(env.batch_size).max(1) * env.local_epochs;
        assert_eq!(minibatch_steps(&env, 0), expect);
    }
}

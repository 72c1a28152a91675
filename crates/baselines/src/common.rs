//! Shared helpers for the baseline algorithms.

use fedhisyn_core::env::FlEnv;
use fedhisyn_core::local::local_train_owned;
use fedhisyn_nn::{GradHook, NoHook, ParamVec};

/// Number of local-training *steps* (of `E` epochs each) device `d` can
/// complete within a round of duration `interval` at its *effective*
/// capacity for `round` — the paper's "maximum achievable training time
/// in a round" for FedAvg/FedProx/SCAFFOLD (§6.1). At least one step,
/// like Alg. 1's budget loop.
pub fn achievable_steps_at(env: &FlEnv, device: usize, interval: f64, round: usize) -> usize {
    ((interval / env.latency_at(device, round)).ceil() as usize).max(1)
}

/// Whether device `d` survives `round` without a mid-round crash. A
/// casualty trains but never uploads: server-collected protocols drop its
/// contribution (the round's work is lost with the device). Always true
/// on a static fleet.
pub fn survives_round(env: &FlEnv, device: usize, round: usize) -> bool {
    env.fleet.fail_frac(device, round).is_none()
}

/// Run `steps` consecutive local-training steps from `start`, optionally
/// with a gradient hook. Returns the final parameters.
///
/// Clones `start` once; every step after that trains through the
/// execution engine's cached model and moves the same parameter buffer
/// along.
pub fn continuous_local_train(
    env: &FlEnv,
    device: usize,
    start: &ParamVec,
    steps: usize,
    round: usize,
    hook: &dyn GradHook,
) -> ParamVec {
    let mut current = start.clone();
    for s in 0..steps {
        current = local_train_owned(
            env,
            device,
            current,
            env.local_epochs,
            hook,
            round,
            s as u64,
        );
    }
    current
}

/// [`continuous_local_train`] without a gradient hook.
pub fn continuous_local_train_plain(
    env: &FlEnv,
    device: usize,
    start: &ParamVec,
    steps: usize,
    round: usize,
) -> ParamVec {
    continuous_local_train(env, device, start, steps, round, &NoHook)
}

/// Mini-batch SGD steps one local-training step performs on `device`
/// (epochs × batches per epoch) — SCAFFOLD's `K` in its control-variate
/// update.
pub fn minibatch_steps(env: &FlEnv, device: usize) -> usize {
    let n = env.shard_len(device);
    let batches = n.div_ceil(env.batch_size).max(1);
    batches * env.local_epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_core::ExperimentConfig;
    use fedhisyn_data::{DatasetProfile, Scale};
    use fedhisyn_tensor::rng_from_seed;

    fn env() -> FlEnv {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(4)
            .local_epochs(1)
            .seed(2)
            .build()
            .build_env()
    }

    #[test]
    fn achievable_steps_scale_with_interval() {
        let env = env();
        let t0 = env.latency(0);
        assert_eq!(achievable_steps_at(&env, 0, t0, 0), 1);
        assert_eq!(achievable_steps_at(&env, 0, 3.0 * t0, 0), 3);
        assert_eq!(
            achievable_steps_at(&env, 0, 0.1 * t0, 0),
            1,
            "minimum one step"
        );
    }

    #[test]
    fn continuous_training_changes_params_each_step() {
        let env = env();
        let init = env.spec.build(&mut rng_from_seed(0)).params();
        let one = continuous_local_train_plain(&env, 0, &init, 1, 0);
        let two = continuous_local_train_plain(&env, 0, &init, 2, 0);
        assert_ne!(init, one);
        assert_ne!(one, two, "a second step must continue training");
    }

    #[test]
    fn minibatch_steps_counts_batches() {
        let env = env();
        let n = env.shard_len(0);
        let expect = n.div_ceil(env.batch_size).max(1) * env.local_epochs;
        assert_eq!(minibatch_steps(&env, 0), expect);
    }
}

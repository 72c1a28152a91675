//! Device-local training, shared by FedHiSyn and every baseline.
//!
//! There is one device pass, [`train_steps`]: a device's budget of local
//! steps from a start model, each step `E` epochs through
//! [`local_train_owned`]. That step runs on the [`ExecutionEngine`]'s
//! per-worker cached model and reuses the incoming parameter buffer for
//! the result — one ring hop allocates nothing in steady state — and is
//! what the ring relay calls directly, one step per event. Which model a
//! device starts from and where its result goes is the
//! [`ServerLink`](crate::link::ServerLink)'s side of a round.

use fedhisyn_nn::{sgd_epoch, GradHook, NoHook, ParamVec, Sgd};
use fedhisyn_tensor::rng_from_seed;

use crate::engine::ExecutionEngine;
use crate::env::{seed_mix, FlEnv};

/// Train `params` on device `device`'s shard for `epochs` epochs,
/// consuming and returning the parameter buffer (Eq. 6 of the paper when
/// `params` came from a ring predecessor, Eq. 7 when it is the device's
/// own model). Plain SGD keeps no optimizer state, so nothing but the
/// parameters carries from one call to the next.
///
/// `salt` disambiguates multiple training steps of the same device within
/// one round (ring hops); mixing it into the RNG seed keeps every step's
/// batch order independent yet reproducible.
pub fn local_train_owned(
    env: &FlEnv,
    device: usize,
    mut params: ParamVec,
    epochs: usize,
    hook: &dyn GradHook,
    round: usize,
    salt: u64,
) -> ParamVec {
    // Dense mode borrows the shard; lazy mode pins the cache-resident
    // realisation for the duration of the step (an `Arc` bump on a hit).
    let shard = env.shard(device);
    let data = &*shard;
    if data.is_empty() {
        return params;
    }
    let mut sgd = Sgd::new(env.sgd);
    ExecutionEngine::with_model(&env.spec, |model| {
        model.set_params(&params);
        let mut rng = rng_from_seed(seed_mix(env.seed, round as u64, device as u64, salt));
        for _ in 0..epochs {
            sgd_epoch(
                model,
                &data.x,
                &data.y,
                env.batch_size,
                &mut sgd,
                hook,
                &mut rng,
            );
        }
        model.copy_params_into(&mut params);
        params
    })
}

/// [`local_train_owned`] with no gradient correction.
pub fn local_train_plain_owned(
    env: &FlEnv,
    device: usize,
    params: ParamVec,
    epochs: usize,
    round: usize,
    salt: u64,
) -> ParamVec {
    local_train_owned(env, device, params, epochs, &NoHook, round, salt)
}

/// The device pass every collected protocol and the serverless random
/// exchange run: `steps` consecutive local-training steps of `E` epochs
/// on `device`, starting from `start`, under `hook`. Step `i` is salted
/// `i`, so a device's steps within one round draw independent,
/// reproducible batch orders.
///
/// Clones `start` once; every step after that moves the same parameter
/// buffer through the worker's cached model.
pub fn train_steps(
    env: &FlEnv,
    device: usize,
    start: &ParamVec,
    steps: usize,
    round: usize,
    hook: &dyn GradHook,
) -> ParamVec {
    (0..steps as u64).fold(start.clone(), |params, step| {
        local_train_owned(env, device, params, env.local_epochs, hook, round, step)
    })
}

/// Best-effort runtime stat of this thread's cached model (built on first
/// use): its arena high-water mark in bytes. A per-thread runtime
/// observation — telemetry only, outside the determinism contract.
pub fn cached_model_stats(env: &FlEnv) -> u64 {
    ExecutionEngine::with_model(&env.spec, |model| model.arena_high_water_bytes() as u64)
}

/// Evaluate `params` on the environment's global test split.
///
/// Runs [`fedhisyn_nn::evaluate_arena`] on the worker's cached model,
/// whose sized scratch arena makes a steady-state round (train + evaluate)
/// perform zero heap allocations.
pub fn evaluate_on_test(env: &FlEnv, params: &ParamVec) -> f32 {
    ExecutionEngine::with_model(&env.spec, |model| {
        model.set_params(params);
        fedhisyn_nn::evaluate_arena(model, &env.test.x, &env.test.y, 256)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_data::{Dataset, DatasetProfile, Scale};
    use fedhisyn_nn::{evaluate_arena, ModelSpec, Sequential, SgdConfig};
    use fedhisyn_simnet::{sample_latencies, HeterogeneityModel, TrafficMeter};
    use fedhisyn_tensor::Tensor;

    fn make_env() -> FlEnv {
        let fd = DatasetProfile::MnistLike
            .synth_config(Scale::Smoke, 3)
            .generate();
        let spec = ModelSpec::mlp(&[fd.config.total_input_dim(), 16, 10]);
        env_over(fd, spec)
    }

    fn env_over(fd: fedhisyn_data::FederatedDataset, spec: ModelSpec) -> FlEnv {
        let mut rng = rng_from_seed(1);
        // 4 devices, each with a slice of the pooled training set.
        let n = fd.train.len();
        let per = n / 4;
        let device_data: Vec<Dataset> = (0..4)
            .map(|d| {
                fd.train
                    .subset(&((d * per..(d + 1) * per).collect::<Vec<_>>()))
            })
            .collect();
        let profiles = sample_latencies(4, HeterogeneityModel::Uniform { h: 4.0 }, &mut rng);
        FlEnv {
            spec,
            data: fedhisyn_data::DataSource::Dense(device_data),
            n_devices: 4,
            test: fd.test,
            fleet: fedhisyn_fleet::FleetModel::static_fleet(&profiles),
            meter: TrafficMeter::new(),
            local_epochs: 2,
            batch_size: 32,
            sgd: SgdConfig::default(),
            seed: 77,
            wire_check: false,
            codec: fedhisyn_nn::Codec::F32,
            residuals: crate::env::DeviceBank::new(),
            faults: fedhisyn_simnet::FaultPlan::none(),
            cohort: None,
            telemetry: fedhisyn_telemetry::TelemetrySink::disabled(),
        }
    }

    #[test]
    fn local_training_improves_accuracy() {
        let env = make_env();
        let init = env.spec.build(&mut rng_from_seed(0)).params();
        let acc_before = evaluate_on_test(&env, &init);
        let trained = local_train_plain_owned(&env, 0, init.clone(), 5, 0, 0);
        let acc_after = evaluate_on_test(&env, &trained);
        assert!(
            acc_after > acc_before + 0.05,
            "training should improve accuracy: {acc_before} -> {acc_after}"
        );
    }

    #[test]
    fn training_changes_params() {
        let env = make_env();
        let init = env.spec.build(&mut rng_from_seed(0)).params();
        let trained = local_train_plain_owned(&env, 1, init.clone(), 1, 0, 0);
        assert_ne!(init, trained);
        assert!(trained.is_finite());
    }

    #[test]
    fn training_is_deterministic_per_salt() {
        let env = make_env();
        let init = env.spec.build(&mut rng_from_seed(0)).params();
        let a = local_train_plain_owned(&env, 2, init.clone(), 2, 3, 9);
        let b = local_train_plain_owned(&env, 2, init.clone(), 2, 3, 9);
        assert_eq!(a, b);
        let c = local_train_plain_owned(&env, 2, init.clone(), 2, 3, 10);
        assert_ne!(a, c, "different salt must give a different batch order");
    }

    #[test]
    fn continuous_training_changes_params_each_step() {
        let env = make_env();
        let init = env.spec.build(&mut rng_from_seed(0)).params();
        let one = train_steps(&env, 0, &init, 1, 0, &NoHook);
        let two = train_steps(&env, 0, &init, 2, 0, &NoHook);
        assert_ne!(init, one);
        assert_ne!(one, two, "a second step must continue training");
        // Step `i` is one `local_train_owned` call of `E` epochs salted `i`.
        let e = env.local_epochs;
        let by_hand = local_train_plain_owned(&env, 0, one.clone(), e, 0, 1);
        assert_eq!(two, by_hand);
    }

    /// A model built for one call and loaded with `params` — what a
    /// worker's cached model must be indistinguishable from.
    fn build_model(env: &FlEnv, params: &ParamVec) -> Sequential {
        let mut model = env.spec.build(&mut rng_from_seed(0));
        model.set_params(params);
        model
    }

    /// Model-cache hygiene: whatever the worker's cached model did last —
    /// here another device's job from other parameters — a job on it
    /// equals the same job on a freshly built model, bit for bit, for the
    /// MLP and the CNN stack.
    #[test]
    fn cached_model_matches_fresh_build() {
        let mlp = make_env();
        let fd = DatasetProfile::Cifar10Like
            .synth_config(Scale::Smoke, 3)
            .generate();
        let cnn = env_over(fd, ModelSpec::smoke_cnn(8, 10));
        for env in [mlp, cnn] {
            let other = env.spec.build(&mut rng_from_seed(9)).params();
            let mut params = env.spec.build(&mut rng_from_seed(0)).params();
            let (device, epochs, round) = (1usize, 2usize, 2usize);
            let shard = env.shard(device);
            for salt in [5u64, 6] {
                let _ = local_train_plain_owned(&env, 2, other.clone(), 1, 0, 0);
                let got =
                    local_train_plain_owned(&env, device, params.clone(), epochs, round, salt);
                let got_acc = evaluate_on_test(&env, &got);

                let mut fresh = build_model(&env, &params);
                let mut sgd = Sgd::new(env.sgd);
                let mut rng = rng_from_seed(seed_mix(env.seed, round as u64, device as u64, salt));
                for _ in 0..epochs {
                    sgd_epoch(
                        &mut fresh,
                        &shard.x,
                        &shard.y,
                        env.batch_size,
                        &mut sgd,
                        &NoHook,
                        &mut rng,
                    );
                }
                assert_eq!(got, fresh.params(), "{:?}, salt {salt}", env.spec);
                let mut fresh = build_model(&env, &got);
                assert_eq!(
                    got_acc,
                    evaluate_arena(&mut fresh, &env.test.x, &env.test.y, 256)
                );
                params = got;
            }
        }
    }

    #[test]
    fn owned_training_reuses_the_input_buffer() {
        let env = make_env();
        let init = env.spec.build(&mut rng_from_seed(0)).params();
        let ptr_before = init.as_slice().as_ptr();
        let trained = local_train_plain_owned(&env, 0, init, 1, 0, 0);
        assert_eq!(
            ptr_before,
            trained.as_slice().as_ptr(),
            "cached path must hand back the same allocation"
        );
    }

    #[test]
    fn empty_device_returns_input() {
        let mut env = make_env();
        let empty = Dataset::new(Tensor::zeros(vec![0, env.spec.input_dims()[0]]), vec![], 10);
        match &mut env.data {
            fedhisyn_data::DataSource::Dense(shards) => shards[3] = empty,
            fedhisyn_data::DataSource::Lazy { .. } => unreachable!("test env is dense"),
        }
        let init = env.spec.build(&mut rng_from_seed(0)).params();
        let out = local_train_plain_owned(&env, 3, init.clone(), 3, 0, 0);
        assert_eq!(out, init);
    }
}

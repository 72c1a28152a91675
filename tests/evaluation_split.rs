//! `evaluate_on_test` shares a multi-chunk test split between the pool
//! threads that already hold a cached model and the caller. These tests
//! pin what that split must not change:
//!
//! * the accuracy bits: equal to one model evaluating every chunk in
//!   order on one thread, for test splits of 1, `b − 1`, `b + 1` and
//!   `3b + 7` samples (one chunk inline, then two and four chunks shared
//!   out), for the smoke CNN and an MLP, with the pool's threads holding
//!   cached models;
//! * the model cache: after training on the calling thread only, a
//!   multi-chunk evaluation builds no model (no new cache miss), because
//!   a thread without a cached model never joins in, and it counts one
//!   checkout (one hit), as an evaluation on one thread does.
//!
//! The tests take turns on one lock: the cache counters are process-wide.
//! CI also runs this suite pinned to one CPU, where the pool has no
//! worker and the caller evaluates every chunk.

use std::sync::{Mutex, MutexGuard};

use fedhisyn::core::local::{evaluate_on_test, local_train_plain_owned};
use fedhisyn::core::ExecutionEngine;
use fedhisyn::nn::evaluate_arena;
use fedhisyn::prelude::*;
use fedhisyn::tensor::rng_from_seed;
use rayon::prelude::*;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config(profile: DatasetProfile) -> ExperimentConfig {
    ExperimentConfig::builder(profile)
        .scale(Scale::Smoke)
        .devices(8)
        .partition(Partition::Iid)
        .local_epochs(1)
        .batch_size(20)
        .seed(2022)
        .build()
}

#[test]
fn accuracy_bits_do_not_depend_on_the_split() {
    let _serial = serial();
    for profile in [DatasetProfile::Cifar10Like, DatasetProfile::MnistLike] {
        let cfg = config(profile);
        let mut env = cfg.build_env();
        let b = env.batch_size;
        // Train on every device across the pool, so its threads hold
        // cached models for the spec, as they do after a round.
        let devices: Vec<usize> = (0..8).collect();
        let trained: Vec<ParamVec> = devices
            .par_iter()
            .map(|&d| local_train_plain_owned(&env, d, cfg.initial_params(), 1, 0, 0))
            .collect();
        let full = env.test.clone();
        assert!(full.len() >= 3 * b + 7, "{profile:?}: test split too small");
        for size in [1, b - 1, b + 1, 3 * b + 7] {
            env.test = full.subset(&(0..size).collect::<Vec<_>>());
            for params in &trained {
                let mut model = env.spec.build(&mut rng_from_seed(0));
                model.set_params(params);
                let one_thread = evaluate_arena(&mut model, &env.test.x, &env.test.y, b);
                let shared = evaluate_on_test(&env, params);
                assert_eq!(
                    shared.to_bits(),
                    one_thread.to_bits(),
                    "{profile:?}, {size} test samples: {shared} vs {one_thread}"
                );
            }
        }
    }
}

#[test]
fn a_shared_evaluation_builds_no_model() {
    let _serial = serial();
    let cfg = config(DatasetProfile::Cifar10Like);
    let env = cfg.build_env();
    assert!(env.test.len() > 3 * env.batch_size, "one chunk runs inline");
    let trained = local_train_plain_owned(&env, 0, cfg.initial_params(), 1, 0, 0);
    let before = ExecutionEngine::cache_stats();
    let acc = evaluate_on_test(&env, &trained);
    let after = ExecutionEngine::cache_stats();
    assert_eq!(after.1, before.1, "evaluation built a model");
    // A round's telemetry counts one checkout per evaluation, whichever
    // threads shared its chunks.
    assert_eq!(after.0, before.0 + 1, "evaluation is one counted checkout");
    assert!((0.0..=1.0).contains(&acc));
}

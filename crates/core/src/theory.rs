//! Empirical diagnostics for the paper's §5 convergence analysis.
//!
//! Theorem 5.1 bounds FedHiSyn's suboptimality by a constant proportional
//! to `Γ = F* − Σ_i p_i F_i*` — the gap between the global optimum and the
//! weighted per-device optima, which quantifies data heterogeneity (Γ = 0
//! for IID data, grows with skew). The paper argues FedHiSyn's effective
//! `Γ` is smaller than FedAvg's because ring-trained models optimize
//! `F̃_i` (a mixture over the devices the model traversed, Eq. 8) rather
//! than a single `F_i`.
//!
//! This module estimates these quantities by direct optimization so that
//! experiments can *measure* the theory's driving constant on any
//! federated environment:
//!
//! * [`estimate_gamma`] — Γ for the plain per-device objectives (FedAvg's
//!   constant),
//! * [`estimate_ring_gamma`] — Γ with ring-mixture objectives over
//!   latency classes (FedHiSyn's constant, Eq. 8 with uniform weights),
//!
//! both computed at the same optimization budget so their *difference* is
//! meaningful even though neither is the exact infimum.

use fedhisyn_nn::{mean_loss_arena, NoHook, Sequential, Sgd};
use fedhisyn_tensor::rng_from_seed;

use crate::engine::ExecutionEngine;
use crate::env::{seed_mix, FlEnv};

/// Result of a Γ estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct GammaEstimate {
    /// Approximate global optimum `F*` (loss of a model trained on the
    /// pooled objective).
    pub f_star: f32,
    /// Weighted sum of approximate per-objective optima `Σ p_i F_i*`
    /// (weights ∝ device sample counts).
    pub weighted_local_star: f32,
    /// `Γ = F* − Σ p_i F_i*` (clamped at 0: with finite optimization
    /// budgets small negative values can occur on IID data).
    pub gamma: f32,
}

/// Train a fresh model on `(groups of) devices` by cycling epochs over the
/// group members until at least `min_updates` mini-batch updates have been
/// applied, returning the final mean loss **over the group's pooled data**.
///
/// Budgeting in *updates* (not epochs) keeps estimates comparable across
/// objectives of very different data sizes — a single-device objective and
/// the pooled objective get the same optimization effort, so their loss
/// difference reflects the objectives, not the budget.
fn optimize_group(env: &FlEnv, members: &[usize], min_updates: usize, seed: u64) -> f32 {
    let mut rng = rng_from_seed(seed);
    let mut model = env.spec.build(&mut rng);
    let mut sgd = Sgd::new(env.sgd);
    let updates_per_cycle: usize = members
        .iter()
        .map(|&d| env.shard_len(d).div_ceil(env.batch_size))
        .sum::<usize>()
        .max(1);
    let cycles = min_updates.div_ceil(updates_per_cycle).max(1);
    for e in 0..cycles {
        for &d in members {
            let shard = env.shard(d);
            let data = &*shard;
            if data.is_empty() {
                continue;
            }
            let mut erng = rng_from_seed(seed_mix(seed, e as u64, d as u64, 1));
            fedhisyn_nn::sgd_epoch(
                &mut model,
                &data.x,
                &data.y,
                env.batch_size,
                &mut sgd,
                &NoHook,
                &mut erng,
            );
        }
    }
    pooled_mean_loss(env, &mut model, members.iter().copied())
}

/// Mean loss of `model` over the pooled data of `devices`, weighted by
/// shard size.
fn pooled_mean_loss(
    env: &FlEnv,
    model: &mut Sequential,
    devices: impl Iterator<Item = usize>,
) -> f32 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for d in devices {
        let shard = env.shard(d);
        let data = &*shard;
        if data.is_empty() {
            continue;
        }
        let loss = mean_loss_arena(model, &data.x, &data.y, 256);
        total += loss as f64 * data.len() as f64;
        count += data.len();
    }
    if count == 0 {
        0.0
    } else {
        (total / count as f64) as f32
    }
}

/// Estimate `Γ = F* − Σ p_i F_i*` for the plain per-device objectives.
///
/// `epochs` is the optimization budget in *pooled-epoch equivalents*:
/// every objective (global or per-device) receives the same number of
/// mini-batch updates as `epochs` passes over the pooled data would take.
pub fn estimate_gamma(env: &FlEnv, epochs: usize) -> GammaEstimate {
    let all: Vec<usize> = (0..env.n_devices()).collect();
    let total_samples: usize = (0..env.n_devices()).map(|d| env.shard_len(d)).sum();
    let budget = epochs * total_samples.div_ceil(env.batch_size).max(1);
    let f_star = optimize_group(env, &all, budget, seed_mix(env.seed, 0xF0, 0, 0));
    let mut weighted = 0.0f64;
    for d in 0..env.n_devices() {
        let n = env.shard_len(d);
        if n == 0 {
            continue;
        }
        let f_i = optimize_group(env, &[d], budget, seed_mix(env.seed, 0xF1, d as u64, 0));
        weighted += f_i as f64 * n as f64 / total_samples as f64;
    }
    let weighted_local_star = weighted as f32;
    GammaEstimate {
        f_star,
        weighted_local_star,
        gamma: (f_star - weighted_local_star).max(0.0),
    }
}

/// Estimate Γ when each "objective" is a ring mixture `F̃` over a latency
/// class (Eq. 8 with uniform weights) instead of a single device — the
/// quantity the paper argues is smaller for FedHiSyn (§5).
pub fn estimate_ring_gamma(env: &FlEnv, classes: &[Vec<usize>], epochs: usize) -> GammaEstimate {
    let all: Vec<usize> = (0..env.n_devices()).collect();
    let total_samples: usize = classes
        .iter()
        .flat_map(|c| c.iter())
        .map(|&d| env.shard_len(d))
        .sum();
    let budget = epochs * total_samples.div_ceil(env.batch_size).max(1);
    let f_star = optimize_group(env, &all, budget, seed_mix(env.seed, 0xF0, 0, 0));
    let mut weighted = 0.0f64;
    for (ci, class) in classes.iter().enumerate() {
        let n: usize = class.iter().map(|&d| env.shard_len(d)).sum();
        if n == 0 {
            continue;
        }
        let f_c = optimize_group(env, class, budget, seed_mix(env.seed, 0xF2, ci as u64, 0));
        weighted += f_c as f64 * n as f64 / total_samples as f64;
    }
    let weighted_local_star = weighted as f32;
    GammaEstimate {
        f_star,
        weighted_local_star,
        gamma: (f_star - weighted_local_star).max(0.0),
    }
}

/// Measure a per-device loss evaluated against the *global* objective —
/// the quantity behind the paper's claim that `F̃_i` is closer to `F` than
/// `F_i` (§4.2): models that traversed more devices should have lower
/// pooled loss.
pub fn pooled_loss(env: &FlEnv, params: &fedhisyn_nn::ParamVec) -> f32 {
    // Diagnostics over the whole federation are inherently O(fleet):
    // meant for paper-scale (hundreds of devices) dense environments.
    ExecutionEngine::with_model(&env.spec, |model| {
        model.set_params(params);
        pooled_mean_loss(env, model, 0..env.n_devices())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use fedhisyn_data::{DatasetProfile, Partition, Scale};

    fn env(partition: Partition) -> FlEnv {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(6)
            .partition(partition)
            .local_epochs(1)
            .seed(606)
            .build()
            .build_env()
    }

    #[test]
    fn gamma_grows_with_label_skew() {
        // The paper's Γ is a heterogeneity measure: Dirichlet(0.1) skew
        // must yield a larger Γ than IID.
        let iid = estimate_gamma(&env(Partition::Iid), 6);
        let skew = estimate_gamma(&env(Partition::Dirichlet { beta: 0.1 }), 6);
        assert!(
            skew.gamma > iid.gamma,
            "skewed Γ ({}) must exceed IID Γ ({})",
            skew.gamma,
            iid.gamma
        );
    }

    #[test]
    fn local_optima_are_below_global_under_skew() {
        // Per-device objectives are easier than the pooled one: F_i* < F*.
        let e = estimate_gamma(&env(Partition::Dirichlet { beta: 0.1 }), 6);
        assert!(e.weighted_local_star < e.f_star, "{e:?}");
        assert!(e.gamma > 0.0);
    }

    #[test]
    fn ring_mixtures_shrink_gamma() {
        // §5's argument: mixture objectives over several devices are closer
        // to the global objective, so Γ_ring ≤ Γ_device (up to noise).
        let env = env(Partition::Dirichlet { beta: 0.1 });
        let device_level = estimate_gamma(&env, 6);
        // Two classes of 3 devices each.
        let classes = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let ring_level = estimate_ring_gamma(&env, &classes, 6);
        assert!(
            ring_level.gamma <= device_level.gamma + 0.05,
            "ring Γ ({}) should not exceed device Γ ({})",
            ring_level.gamma,
            device_level.gamma
        );
    }

    #[test]
    fn pooled_loss_decreases_with_training() {
        let env = env(Partition::Dirichlet { beta: 0.5 });
        let init = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(6)
            .seed(606)
            .build()
            .initial_params();
        let before = pooled_loss(&env, &init);
        let trained = crate::local::local_train_plain_owned(&env, 0, init.clone(), 3, 0, 0);
        let after = pooled_loss(&env, &trained);
        assert!(
            after < before,
            "training on any shard should cut pooled loss: {before} -> {after}"
        );
    }
}

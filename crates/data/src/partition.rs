//! Federated data partitioners.
//!
//! Given a pooled dataset, a partitioner decides which samples live on
//! which device. The paper's Non-IID setting is label-skew Dirichlet:
//! for each class, a proportion vector over devices is drawn from
//! `Dir(β)` and samples of that class are dealt out accordingly. Smaller
//! `β` ⇒ more skew; the paper uses β ∈ {0.3, 0.8} plus an IID control.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;

/// A device-assignment strategy for a pooled dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Partition {
    /// Shuffle and deal samples uniformly (the paper's IID control).
    Iid,
    /// Label-skew `Dir(β)` partition (the paper's Non-IID setting).
    Dirichlet {
        /// Concentration β > 0; smaller is more skewed.
        beta: f64,
    },
}

impl Partition {
    /// Human-readable name used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            Partition::Iid => "IID".to_string(),
            Partition::Dirichlet { beta } => format!("Dirichlet({beta})"),
        }
    }
}

/// Assign each sample of `data` to one of `n_devices` devices.
///
/// Returns per-device index lists into `data`. Every sample is assigned to
/// exactly one device, and no device is left empty (an empty device would
/// silently drop out of every algorithm — instead we move one sample from
/// the largest device, which keeps the conservation invariant testable).
pub fn partition_indices<R: Rng>(
    data: &Dataset,
    n_devices: usize,
    strategy: Partition,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(n_devices > 0, "need at least one device");
    assert!(
        data.len() >= n_devices,
        "cannot give {} devices at least one of {} samples",
        n_devices,
        data.len()
    );
    let mut out = match strategy {
        Partition::Iid => iid_partition(data.len(), n_devices, rng),
        Partition::Dirichlet { beta } => dirichlet_partition(data, n_devices, beta, rng),
    };
    fix_empty_devices(&mut out, rng);
    out
}

fn iid_partition<R: Rng>(n: usize, n_devices: usize, rng: &mut R) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut out = vec![Vec::with_capacity(n / n_devices + 1); n_devices];
    for (i, sample) in idx.into_iter().enumerate() {
        out[i % n_devices].push(sample);
    }
    out
}

fn dirichlet_partition<R: Rng>(
    data: &Dataset,
    n_devices: usize,
    beta: f64,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(beta > 0.0, "Dirichlet beta must be positive");
    let mut out = vec![Vec::new(); n_devices];
    // Group sample indices by class.
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); data.classes];
    for (i, &l) in data.y.iter().enumerate() {
        by_class[l].push(i);
    }
    for idxs in by_class.iter_mut() {
        if idxs.is_empty() {
            continue;
        }
        idxs.shuffle(rng);
        let props = sample_dirichlet(beta, n_devices, rng);
        // Deal samples by cumulative proportion so counts match the draw
        // as closely as integer rounding allows.
        let n = idxs.len();
        let mut cuts: Vec<usize> = Vec::with_capacity(n_devices);
        let mut acc = 0.0f64;
        for &p in &props {
            acc += p;
            cuts.push(((acc * n as f64).round() as usize).min(n));
        }
        let mut start = 0usize;
        for (d, &end) in cuts.iter().enumerate() {
            let end = end.max(start);
            out[d].extend_from_slice(&idxs[start..end]);
            start = end;
        }
        // Rounding may leave a tail — give it to the last device.
        if start < n {
            out[n_devices - 1].extend_from_slice(&idxs[start..]);
        }
    }
    out
}

/// Move samples from the largest devices onto empty ones.
fn fix_empty_devices<R: Rng>(parts: &mut [Vec<usize>], _rng: &mut R) {
    while let Some(empty) = parts.iter().position(|p| p.is_empty()) {
        let largest = parts
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            .map(|(i, _)| i)
            .expect("non-empty partition list");
        if parts[largest].len() <= 1 {
            break; // nothing can be moved without creating a new empty
        }
        let moved = parts[largest].pop().expect("largest partition non-empty");
        parts[empty].push(moved);
    }
}

/// Draw one `Dir(β, …, β)` proportion vector of length `k`.
///
/// Uses the Gamma representation: `x_i ~ Gamma(β, 1)` normalized. Gamma
/// variates come from Marsaglia–Tsang squeeze for `α ≥ 1`, with the
/// standard `α < 1` boost (`Gamma(α) = Gamma(α+1)·U^{1/α}`).
pub fn sample_dirichlet<R: Rng>(beta: f64, k: usize, rng: &mut R) -> Vec<f64> {
    assert!(beta > 0.0 && k > 0);
    let mut draws: Vec<f64> = (0..k).map(|_| sample_gamma(beta, rng)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= f64::MIN_POSITIVE {
        // Pathologically tiny draws (possible for very small β): fall back
        // to a one-hot on a random coordinate, which is the β→0 limit.
        let hot = rng.gen_range(0..k);
        draws.fill(0.0);
        draws[hot] = 1.0;
        return draws;
    }
    for d in draws.iter_mut() {
        *d /= sum;
    }
    draws
}

/// Marsaglia–Tsang Gamma(α, 1) sampler.
fn sample_gamma<R: Rng>(alpha: f64, rng: &mut R) -> f64 {
    if alpha < 1.0 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_tensor::{rng_from_seed, Tensor};

    fn dataset(n: usize, classes: usize) -> Dataset {
        let x = Tensor::zeros(vec![n, 2]);
        let y: Vec<usize> = (0..n).map(|i| i % classes).collect();
        Dataset::new(x, y, classes)
    }

    fn assert_conservation(parts: &[Vec<usize>], n: usize) {
        let mut seen = vec![false; n];
        for p in parts {
            for &i in p {
                assert!(!seen[i], "sample {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some sample was dropped");
    }

    #[test]
    fn iid_conserves_and_balances() {
        let d = dataset(100, 10);
        let mut rng = rng_from_seed(0);
        let parts = partition_indices(&d, 10, Partition::Iid, &mut rng);
        assert_conservation(&parts, 100);
        for p in &parts {
            assert_eq!(p.len(), 10);
        }
    }

    #[test]
    fn dirichlet_conserves_all_samples() {
        let d = dataset(500, 10);
        let mut rng = rng_from_seed(1);
        for beta in [0.1, 0.3, 0.8, 10.0] {
            let parts = partition_indices(&d, 20, Partition::Dirichlet { beta }, &mut rng);
            assert_conservation(&parts, 500);
            assert!(parts.iter().all(|p| !p.is_empty()));
        }
    }

    #[test]
    fn small_beta_is_more_skewed_than_large() {
        let d = dataset(2000, 10);
        let skew = |beta: f64, seed: u64| -> f64 {
            let mut rng = rng_from_seed(seed);
            let parts = partition_indices(&d, 10, Partition::Dirichlet { beta }, &mut rng);
            // Mean over devices of the max class share (1/classes = IID).
            parts
                .iter()
                .map(|p| {
                    let sub = d.subset(p);
                    let dist = sub.label_distribution();
                    dist.into_iter().fold(0.0f64, f64::max)
                })
                .sum::<f64>()
                / 10.0
        };
        // Average over seeds to avoid flakiness.
        let skew_small: f64 = (0..5).map(|s| skew(0.1, s)).sum::<f64>() / 5.0;
        let skew_large: f64 = (0..5).map(|s| skew(10.0, s)).sum::<f64>() / 5.0;
        assert!(
            skew_small > skew_large + 0.1,
            "Dir(0.1) skew {skew_small} should exceed Dir(10) skew {skew_large}"
        );
    }

    #[test]
    fn no_empty_devices_even_under_extreme_skew() {
        let d = dataset(60, 3);
        for seed in 0..10 {
            let mut rng = rng_from_seed(seed);
            let parts = partition_indices(&d, 30, Partition::Dirichlet { beta: 0.05 }, &mut rng);
            assert!(
                parts.iter().all(|p| !p.is_empty()),
                "seed {seed} left an empty device"
            );
            assert_conservation(&parts, 60);
        }
    }

    #[test]
    fn dirichlet_proportions_sum_to_one() {
        let mut rng = rng_from_seed(3);
        for beta in [0.05, 0.5, 1.0, 5.0] {
            let p = sample_dirichlet(beta, 16, &mut rng);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "beta {beta}: sum {sum}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn gamma_mean_matches_alpha() {
        let mut rng = rng_from_seed(4);
        for alpha in [0.5f64, 1.0, 2.0, 7.5] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| sample_gamma(alpha, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - alpha).abs() < 0.1 * alpha.max(1.0),
                "alpha {alpha}: mean {mean}"
            );
        }
    }

    #[test]
    fn partition_labels() {
        assert_eq!(Partition::Iid.label(), "IID");
        assert_eq!(Partition::Dirichlet { beta: 0.3 }.label(), "Dirichlet(0.3)");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn more_devices_than_samples_panics() {
        let d = dataset(5, 2);
        let mut rng = rng_from_seed(5);
        let _ = partition_indices(&d, 10, Partition::Iid, &mut rng);
    }
}

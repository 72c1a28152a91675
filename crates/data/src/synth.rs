//! Class-conditional synthetic data generation.
//!
//! Each class gets a prototype vector of norm `separation`; samples are
//! `prototype + N(0, noise²)` draws. Because random prototypes in high
//! dimension are near-orthogonal, the pairwise class distance is
//! `≈ separation·√2`, so the Bayes error — and therefore each profile's
//! accuracy *ceiling* — is controlled by the `separation / noise` ratio.
//! That ceiling is how the reproduction recreates the paper's difficulty
//! ordering (MNIST ≈ 98% … CIFAR100 ≈ 42%) without the original pixels.
//!
//! Image profiles build prototypes by bilinearly upsampling a low-res
//! random field, giving them the spatial smoothness that convolutional
//! models exploit.

use fedhisyn_tensor::{fill_normal, rng_from_seed, Tensor};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;

/// Shape of the per-sample input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputKind {
    /// Flat feature vector (MLP models).
    Flat {
        /// Feature dimension.
        dim: usize,
    },
    /// Square image (CNN models).
    Image {
        /// Channel count.
        channels: usize,
        /// Spatial size (square).
        spatial: usize,
    },
}

impl InputKind {
    /// Per-sample dims (excluding batch).
    pub fn sample_dims(&self) -> Vec<usize> {
        match self {
            InputKind::Flat { dim } => vec![*dim],
            InputKind::Image { channels, spatial } => vec![*channels, *spatial, *spatial],
        }
    }

    /// Total features per sample.
    pub fn total_dim(&self) -> usize {
        self.sample_dims().iter().product()
    }
}

/// Full configuration of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of classes.
    pub classes: usize,
    /// Input shape.
    pub input: InputKind,
    /// Training samples generated per class.
    pub train_per_class: usize,
    /// Test samples generated per class.
    pub test_per_class: usize,
    /// Prototype norm; larger ⇒ easier task.
    pub separation: f32,
    /// Per-feature Gaussian noise std.
    pub noise: f32,
    /// Seed for prototypes and samples.
    pub seed: u64,
}

impl SynthConfig {
    /// Total features per sample.
    pub fn total_input_dim(&self) -> usize {
        self.input.total_dim()
    }

    /// Generate the pooled train and test datasets.
    pub fn generate(&self) -> FederatedDataset {
        assert!(self.classes > 0 && self.train_per_class > 0 && self.test_per_class > 0);
        let mut rng = rng_from_seed(self.seed);
        let protos = self.prototypes(&mut rng);
        let train = self.sample_split(&protos, self.train_per_class, &mut rng);
        let test = self.sample_split(&protos, self.test_per_class, &mut rng);
        FederatedDataset {
            train,
            test,
            config: *self,
        }
    }

    /// The class prototypes this config generates — the exact draws
    /// [`SynthConfig::generate`] starts from, exposed so a lazy
    /// [`crate::ShardPlan`] can share them without materialising the
    /// pooled splits.
    pub fn class_prototypes(&self) -> Vec<Vec<f32>> {
        let mut rng = rng_from_seed(self.seed);
        self.prototypes(&mut rng)
    }

    /// One prototype per class, each of norm `separation`.
    fn prototypes<R: Rng>(&self, rng: &mut R) -> Vec<Vec<f32>> {
        let d = self.total_input_dim();
        (0..self.classes)
            .map(|_| {
                let mut p = match self.input {
                    InputKind::Flat { dim } => {
                        let mut v = vec![0.0f32; dim];
                        fill_normal(&mut v, 0.0, 1.0, rng);
                        v
                    }
                    InputKind::Image { channels, spatial } => {
                        // Smooth field: low-res noise, bilinear upsample.
                        let low = 4.min(spatial);
                        let mut v = Vec::with_capacity(channels * spatial * spatial);
                        for _ in 0..channels {
                            let mut grid = vec![0.0f32; low * low];
                            fill_normal(&mut grid, 0.0, 1.0, rng);
                            v.extend(bilinear_upsample(&grid, low, spatial));
                        }
                        v
                    }
                };
                debug_assert_eq!(p.len(), d);
                let norm = p.iter().map(|&x| x * x).sum::<f32>().sqrt().max(1e-6);
                let scale = self.separation / norm;
                for x in p.iter_mut() {
                    *x *= scale;
                }
                p
            })
            .collect()
    }

    pub(crate) fn sample_split<R: Rng>(
        &self,
        protos: &[Vec<f32>],
        per_class: usize,
        rng: &mut R,
    ) -> Dataset {
        let d = self.total_input_dim();
        let n = per_class * self.classes;
        let mut data = vec![0.0f32; n * d];
        let mut labels = Vec::with_capacity(n);
        // Interleave classes, then shuffle sample order.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        for (slot, &pos) in order.iter().enumerate() {
            let class = pos % self.classes;
            labels.push(class);
            let row = &mut data[slot * d..(slot + 1) * d];
            fill_normal(row, 0.0, self.noise, rng);
            for (x, &p) in row.iter_mut().zip(&protos[class]) {
                *x += p;
            }
        }
        let mut dims = vec![n];
        dims.extend(self.input.sample_dims());
        Dataset::new(Tensor::from_vec(dims, data), labels, self.classes)
    }
}

/// A pooled synthetic dataset plus its generation config.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    /// Pooled training split (to be partitioned across devices).
    pub train: Dataset,
    /// Global test split, identically distributed with training data —
    /// the paper's evaluation assumption (§3.2).
    pub test: Dataset,
    /// Generation parameters.
    pub config: SynthConfig,
}

/// Bilinear upsample of a square `low×low` grid to `size×size`.
fn bilinear_upsample(grid: &[f32], low: usize, size: usize) -> Vec<f32> {
    assert_eq!(grid.len(), low * low);
    if low == size {
        return grid.to_vec();
    }
    let mut out = vec![0.0f32; size * size];
    let scale = if size > 1 {
        (low - 1) as f32 / (size - 1) as f32
    } else {
        0.0
    };
    for y in 0..size {
        let fy = y as f32 * scale;
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(low - 1);
        let wy = fy - y0 as f32;
        for x in 0..size {
            let fx = x as f32 * scale;
            let x0 = fx.floor() as usize;
            let x1 = (x0 + 1).min(low - 1);
            let wx = fx - x0 as f32;
            let top = grid[y0 * low + x0] * (1.0 - wx) + grid[y0 * low + x1] * wx;
            let bot = grid[y1 * low + x0] * (1.0 - wx) + grid[y1 * low + x1] * wx;
            out[y * size + x] = top * (1.0 - wy) + bot * wy;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_config() -> SynthConfig {
        SynthConfig {
            classes: 4,
            input: InputKind::Flat { dim: 16 },
            train_per_class: 25,
            test_per_class: 10,
            separation: 2.0,
            noise: 1.0,
            seed: 7,
        }
    }

    #[test]
    fn generates_expected_counts() {
        let fd = flat_config().generate();
        assert_eq!(fd.train.len(), 100);
        assert_eq!(fd.test.len(), 40);
        assert_eq!(fd.train.class_histogram(), vec![25; 4]);
        assert_eq!(fd.test.class_histogram(), vec![10; 4]);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = flat_config().generate();
        let b = flat_config().generate();
        assert_eq!(a.train.x.data(), b.train.x.data());
        assert_eq!(a.train.y, b.train.y);
    }

    #[test]
    fn different_seeds_differ() {
        let a = flat_config().generate();
        let mut cfg = flat_config();
        cfg.seed = 8;
        let b = cfg.generate();
        assert_ne!(a.train.x.data(), b.train.x.data());
    }

    #[test]
    fn labels_are_shuffled_not_sorted() {
        let fd = flat_config().generate();
        let sorted = {
            let mut s = fd.train.y.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(fd.train.y, sorted, "labels should be interleaved");
    }

    #[test]
    fn image_samples_have_image_shape() {
        let cfg = SynthConfig {
            classes: 3,
            input: InputKind::Image {
                channels: 3,
                spatial: 8,
            },
            train_per_class: 5,
            test_per_class: 2,
            separation: 1.0,
            noise: 1.0,
            seed: 1,
        };
        let fd = cfg.generate();
        assert_eq!(fd.train.x.shape(), &[15, 3, 8, 8]);
        assert_eq!(fd.test.x.shape(), &[6, 3, 8, 8]);
    }

    #[test]
    fn class_means_are_separated() {
        let cfg = flat_config();
        let fd = cfg.generate();
        let d = cfg.total_input_dim();
        // Empirical class means should be ~separation·√2 apart.
        let mean_of = |class: usize| -> Vec<f32> {
            let mut m = vec![0.0f32; d];
            let mut count = 0;
            for (i, &y) in fd.train.y.iter().enumerate() {
                if y == class {
                    for (mm, &x) in m.iter_mut().zip(&fd.train.x.data()[i * d..(i + 1) * d]) {
                        *mm += x;
                    }
                    count += 1;
                }
            }
            for mm in m.iter_mut() {
                *mm /= count as f32;
            }
            m
        };
        let m0 = mean_of(0);
        let m1 = mean_of(1);
        let dist: f32 = m0
            .iter()
            .zip(&m1)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        let expect = cfg.separation * std::f32::consts::SQRT_2;
        assert!(
            (dist - expect).abs() < expect, // loose: sampling noise on 25 samples
            "class mean distance {dist}, expected about {expect}"
        );
        assert!(dist > 0.5, "classes must be separated");
    }

    #[test]
    fn upsample_preserves_constant_fields() {
        let grid = vec![3.0f32; 16];
        let up = bilinear_upsample(&grid, 4, 9);
        assert!(up.iter().all(|&x| (x - 3.0).abs() < 1e-6));
    }

    #[test]
    fn upsample_interpolates_monotone_ramp() {
        // 2x2 ramp: corners 0,1,0,1 -> middle column should be 0.5.
        let grid = vec![0.0f32, 1.0, 0.0, 1.0];
        let up = bilinear_upsample(&grid, 2, 3);
        assert!((up[1] - 0.5).abs() < 1e-6);
        assert!((up[4] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn upsample_identity_when_sizes_match() {
        let grid = vec![1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(bilinear_upsample(&grid, 2, 2), grid);
    }
}

//! Seeded random-number helpers.
//!
//! `rand_distr` is not part of the offline dependency set, so the normal
//! distribution is generated with the Box–Muller transform. All federated
//! experiments must be reproducible, so library code never touches
//! `thread_rng`; every sampler takes an explicit `Rng`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The deterministic RNG used across the workspace.
///
/// A type alias keeps the choice in one place: `StdRng` is seedable,
/// portable across platforms and fast enough for data synthesis.
pub type TensorRng = StdRng;

/// Create a [`TensorRng`] from a `u64` seed.
pub fn rng_from_seed(seed: u64) -> TensorRng {
    StdRng::seed_from_u64(seed)
}

/// Fill `buf` with i.i.d. `N(mean, std^2)` samples.
pub fn fill_normal<R: Rng>(buf: &mut [f32], mean: f32, std: f32, rng: &mut R) {
    let mut i = 0;
    while i + 1 < buf.len() {
        let (z0, z1) = box_muller(rng);
        buf[i] = mean + std * z0;
        buf[i + 1] = mean + std * z1;
        i += 2;
    }
    if i < buf.len() {
        let (z0, _) = box_muller(rng);
        buf[i] = mean + std * z0;
    }
}

/// Box–Muller: two independent `N(0,1)` samples from two uniforms.
#[inline]
fn box_muller<R: Rng>(rng: &mut R) -> (f32, f32) {
    // Avoid u1 == 0 (log would be -inf): sample from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    ((r * theta.cos()) as f32, (r * theta.sin()) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = rng_from_seed(42);
        let mut buf = vec![0.0f32; 200_000];
        fill_normal(&mut buf, 0.0, 1.0, &mut rng);
        let n = buf.len() as f64;
        let mean: f64 = buf.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = buf.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn normal_mean_shift() {
        let mut rng = rng_from_seed(1);
        let mut buf = vec![0.0f32; 50_000];
        fill_normal(&mut buf, 5.0, 0.5, &mut rng);
        let mean: f64 = buf.iter().map(|&x| x as f64).sum::<f64>() / buf.len() as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn odd_length_buffers_are_fully_written() {
        let mut rng = rng_from_seed(9);
        let mut buf = vec![f32::NAN; 7];
        fill_normal(&mut buf, 0.0, 1.0, &mut rng);
        assert!(buf.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn samples_are_finite() {
        let mut rng = rng_from_seed(3);
        let mut buf = vec![0.0f32; 10_000];
        fill_normal(&mut buf, 0.0, 1.0, &mut rng);
        assert!(buf.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn seeded_rng_reproducible() {
        let mut a = rng_from_seed(99);
        let mut b = rng_from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}

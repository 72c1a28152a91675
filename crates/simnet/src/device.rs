//! Device latency profiles and heterogeneity models.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::seed::unit;

/// How local-training latencies are distributed across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HeterogeneityModel {
    /// All devices share one latency (the paper's Figure 2 setting).
    Homogeneous,
    /// Latency factor uniform in `[1, h]` — the paper's main setting, with
    /// `h = t_max / t_min` (Eq. 13); the paper uses `h` up to 20.
    Uniform {
        /// Heterogeneity degree `H = t_max / t_min ≥ 1`.
        h: f64,
    },
}

impl HeterogeneityModel {
    /// `H = t_max / t_min` implied by the model.
    pub fn degree(&self) -> f64 {
        match self {
            HeterogeneityModel::Homogeneous => 1.0,
            HeterogeneityModel::Uniform { h } => *h,
        }
    }
}

/// Sample `n` devices' latencies under a heterogeneity model: the
/// virtual seconds each needs for **one local-training step** (the
/// paper's `t_i`: `E` local epochs over the device's shard), which the
/// server records and clusters on (§4.1). The fastest possible device
/// takes one virtual second per step, so a latency is its device's
/// latency factor.
pub fn sample_latencies<R: Rng>(n: usize, model: HeterogeneityModel, rng: &mut R) -> Vec<f64> {
    assert!(n > 0, "need at least one device");
    (0..n)
        .map(|_| match model {
            HeterogeneityModel::Homogeneous => 1.0,
            HeterogeneityModel::Uniform { h } => {
                assert!(h >= 1.0, "heterogeneity degree must be >= 1");
                rng.gen_range(1.0..=h)
            }
        })
        .collect()
}

/// SplitMix64 finalizer over `(seed, id)` — the stateless derivation the
/// lazy profile source draws from. Kept private to this module: the only
/// contract is "pure function of `(seed, id)`", not the exact stream.
fn profile_hash(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00DE_71CE_5EED_0000;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a fleet's base latency profiles come from.
///
/// * [`ProfileSource::Dense`] — materialised per-device train times, the
///   classic small-fleet path (what [`sample_latencies`] produces).
/// * [`ProfileSource::Lazy`] — profiles derived on demand as a pure
///   function of `(seed, device id)`; a million-device fleet costs zero
///   bytes until a device is actually queried, and querying never
///   mutates anything.
///
/// The two variants intentionally use *different* random streams: `Dense`
/// keeps the historical sequential-RNG sampling bit-identical, while
/// `Lazy` hashes each id independently so device 999_999's latency never
/// depends on devices 0..999_998 having been drawn first.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileSource {
    /// Materialised base train times, indexed by device id.
    Dense(Vec<f64>),
    /// Profiles derived on demand from `(seed, id)`.
    Lazy {
        /// Fleet size.
        n: usize,
        /// Heterogeneity model shaping the latency factor (the train
        /// time itself).
        model: HeterogeneityModel,
        /// Derivation seed.
        seed: u64,
    },
}

impl ProfileSource {
    /// Lazy source deriving `n` profiles on demand.
    pub fn lazy(n: usize, model: HeterogeneityModel, seed: u64) -> Self {
        assert!(n > 0, "need at least one device");
        assert!(model.degree() >= 1.0, "heterogeneity degree must be >= 1");
        ProfileSource::Lazy { n, model, seed }
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        match self {
            ProfileSource::Dense(v) => v.len(),
            ProfileSource::Lazy { n, .. } => *n,
        }
    }

    /// True when the source covers no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Base train time of device `id` (`t_i` at multiplier 1.0).
    pub fn train_time(&self, id: usize) -> f64 {
        match self {
            ProfileSource::Dense(v) => v[id],
            ProfileSource::Lazy { n, model, seed } => {
                assert!(id < *n, "device {id} out of range for fleet of {n}");
                match *model {
                    HeterogeneityModel::Homogeneous => 1.0,
                    HeterogeneityModel::Uniform { h } => {
                        1.0 + unit(profile_hash(*seed, id as u64)) * (h - 1.0)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn homogeneous_latencies_are_equal() {
        let latencies = sample_latencies(10, HeterogeneityModel::Homogeneous, &mut rng(0));
        assert_eq!(latencies, [1.0; 10]);
    }

    #[test]
    fn uniform_latencies_respect_bounds() {
        let h = 10.0;
        let latencies = sample_latencies(1000, HeterogeneityModel::Uniform { h }, &mut rng(1));
        assert!(latencies.iter().all(|t| (1.0..=h).contains(t)));
        let max = latencies.iter().copied().fold(0.0, f64::max);
        let min = latencies.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            max / min > 5.0,
            "1000 samples should nearly span the range: {}",
            max / min
        );
    }

    #[test]
    fn degree_reflects_model() {
        assert_eq!(HeterogeneityModel::Homogeneous.degree(), 1.0);
        assert_eq!(HeterogeneityModel::Uniform { h: 7.0 }.degree(), 7.0);
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_latencies(50, HeterogeneityModel::Uniform { h: 5.0 }, &mut rng(3));
        let b = sample_latencies(50, HeterogeneityModel::Uniform { h: 5.0 }, &mut rng(3));
        assert_eq!(a, b);
    }

    #[test]
    fn dense_source_mirrors_latencies() {
        let latencies = sample_latencies(8, HeterogeneityModel::Uniform { h: 4.0 }, &mut rng(4));
        let src = ProfileSource::Dense(latencies.clone());
        assert_eq!(src.len(), 8);
        for (id, &t) in latencies.iter().enumerate() {
            assert_eq!(src.train_time(id), t);
        }
    }

    #[test]
    fn lazy_source_is_pure_and_order_independent() {
        let src = ProfileSource::lazy(1_000_000, HeterogeneityModel::Uniform { h: 10.0 }, 42);
        assert_eq!(src.len(), 1_000_000);
        // Query far-apart ids in both orders — identical values.
        let a = src.train_time(999_999);
        let b = src.train_time(3);
        assert_eq!(src.train_time(3), b);
        assert_eq!(src.train_time(999_999), a);
        assert!((1.0..10.0).contains(&a) && (1.0..10.0).contains(&b));
        // Same (seed, id) on a fresh source → same value.
        let again = ProfileSource::lazy(1_000_000, HeterogeneityModel::Uniform { h: 10.0 }, 42);
        assert_eq!(again.train_time(999_999), a);
    }

    #[test]
    fn lazy_source_respects_model_shapes() {
        let homo = ProfileSource::lazy(100, HeterogeneityModel::Homogeneous, 7);
        assert!((0..100).all(|d| homo.train_time(d) == 1.0));
        let uni = ProfileSource::lazy(400, HeterogeneityModel::Uniform { h: 8.0 }, 7);
        assert!((0..400).all(|d| (1.0..=8.0).contains(&uni.train_time(d))));
    }

    #[test]
    fn lazy_sources_with_different_seeds_diverge() {
        let a = ProfileSource::lazy(50, HeterogeneityModel::Uniform { h: 5.0 }, 1);
        let b = ProfileSource::lazy(50, HeterogeneityModel::Uniform { h: 5.0 }, 2);
        assert!((0..50).any(|d| a.train_time(d) != b.train_time(d)));
    }
}

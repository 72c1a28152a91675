//! Weight initialisation schemes.
//!
//! The paper's models are ReLU networks, so hidden layers use He (Kaiming)
//! initialisation; the final classification layer uses Xavier/Glorot which
//! keeps initial logits small and the softmax well-conditioned.

use fedhisyn_tensor::Tensor;
use rand::Rng;

/// Initialisation scheme for a weight matrix/filter bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// He/Kaiming normal: `N(0, 2 / fan_in)` — for layers followed by ReLU.
    HeNormal,
    /// Xavier/Glorot normal: `N(0, 2 / (fan_in + fan_out))` — output layers.
    XavierNormal,
    /// All zeros — used for biases.
    Zeros,
}

impl Init {
    /// Sample a tensor of the given dims with fan sizes `fan_in`/`fan_out`.
    pub fn sample<R: Rng>(
        self,
        dims: Vec<usize>,
        fan_in: usize,
        fan_out: usize,
        rng: &mut R,
    ) -> Tensor {
        match self {
            Init::HeNormal => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                Tensor::randn(dims, std, rng)
            }
            Init::XavierNormal => {
                let std = (2.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                Tensor::randn(dims, std, rng)
            }
            Init::Zeros => Tensor::zeros(dims),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_tensor::{dot, rng_from_seed};

    fn norm_sq(t: &Tensor) -> f32 {
        dot(t.data(), t.data())
    }

    #[test]
    fn he_std_scales_with_fan_in() {
        let mut rng = rng_from_seed(0);
        let narrow = Init::HeNormal.sample(vec![10_000], 10_000, 1, &mut rng);
        let mut rng = rng_from_seed(0);
        let wide = Init::HeNormal.sample(vec![10_000], 4, 1, &mut rng);
        // Larger fan-in => smaller weights.
        assert!(norm_sq(&narrow) < norm_sq(&wide));
    }

    #[test]
    fn he_variance_matches_formula() {
        let mut rng = rng_from_seed(1);
        let fan_in = 64;
        let t = Init::HeNormal.sample(vec![100_000], fan_in, 1, &mut rng);
        let var = norm_sq(&t) / t.len() as f32;
        let expect = 2.0 / fan_in as f32;
        assert!((var - expect).abs() < expect * 0.1, "var {var} vs {expect}");
    }

    #[test]
    fn xavier_variance_matches_formula() {
        let mut rng = rng_from_seed(2);
        let (fi, fo) = (50, 30);
        let t = Init::XavierNormal.sample(vec![100_000], fi, fo, &mut rng);
        let var = norm_sq(&t) / t.len() as f32;
        let expect = 2.0 / (fi + fo) as f32;
        assert!((var - expect).abs() < expect * 0.1, "var {var} vs {expect}");
    }

    #[test]
    fn zeros_is_zero() {
        let mut rng = rng_from_seed(3);
        let t = Init::Zeros.sample(vec![16], 4, 4, &mut rng);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_fan_does_not_divide_by_zero() {
        let mut rng = rng_from_seed(4);
        let t = Init::HeNormal.sample(vec![4], 0, 0, &mut rng);
        assert!(t.data().iter().all(|x| x.is_finite()));
    }
}

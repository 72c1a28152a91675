//! Serializable model architecture specifications.
//!
//! FL algorithms exchange flat [`crate::ParamVec`]s; the *architecture*
//! travels separately as a [`ModelSpec`], which every simulated device uses
//! to instantiate its local [`crate::Sequential`]. Keeping the spec as a
//! plain data enum gives us serde support without trait-object serialization.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::init::Init;
use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use crate::model::Sequential;

/// A serializable description of a model architecture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Multi-layer perceptron: dense layers with ReLU between them.
    ///
    /// `dims = [input, hidden..., classes]`; matches the paper's
    /// MNIST/EMNIST model when `dims = [784, 200, 100, classes]`.
    Mlp {
        /// Layer widths, input first, classes last.
        dims: Vec<usize>,
    },
    /// The paper's CIFAR CNN shape: `conv(k×k)→relu→pool2` blocks followed
    /// by dense layers.
    Cnn {
        /// Input channels (3 for CIFAR-like data).
        in_channels: usize,
        /// Input spatial size (square images).
        spatial: usize,
        /// Filter counts for each conv block.
        conv_filters: Vec<usize>,
        /// Square kernel size for all conv layers.
        kernel: usize,
        /// Hidden dense widths after flattening.
        fc_dims: Vec<usize>,
        /// Number of output classes.
        classes: usize,
    },
}

impl ModelSpec {
    /// Convenience constructor for [`ModelSpec::Mlp`].
    pub fn mlp(dims: &[usize]) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        ModelSpec::Mlp {
            dims: dims.to_vec(),
        }
    }

    /// The paper's MNIST/EMNIST MLP: `input → 200 → 100 → classes`.
    pub fn paper_mlp(input: usize, classes: usize) -> Self {
        ModelSpec::Mlp {
            dims: vec![input, 200, 100, classes],
        }
    }

    /// The paper's CIFAR CNN: two 5×5 conv layers with 64 filters, each
    /// followed by 2×2 max-pooling, then dense layers of 394 and 192 units.
    pub fn paper_cnn(spatial: usize, classes: usize) -> Self {
        ModelSpec::Cnn {
            in_channels: 3,
            spatial,
            conv_filters: vec![64, 64],
            kernel: 5,
            fc_dims: vec![394, 192],
            classes,
        }
    }

    /// A reduced CNN with the same *shape* (2 conv blocks + 2 FC) scaled to
    /// the smoke-test budget of a 2-core CI machine.
    pub fn smoke_cnn(spatial: usize, classes: usize) -> Self {
        ModelSpec::Cnn {
            in_channels: 3,
            spatial,
            conv_filters: vec![8, 16],
            kernel: 3,
            fc_dims: vec![48],
            classes,
        }
    }

    /// Number of output classes the spec produces.
    pub fn classes(&self) -> usize {
        match self {
            ModelSpec::Mlp { dims } => *dims.last().expect("mlp dims"),
            ModelSpec::Cnn { classes, .. } => *classes,
        }
    }

    /// Expected input dimensions per sample (excluding the batch dim).
    pub fn input_dims(&self) -> Vec<usize> {
        match self {
            ModelSpec::Mlp { dims } => vec![dims[0]],
            ModelSpec::Cnn {
                in_channels,
                spatial,
                ..
            } => vec![*in_channels, *spatial, *spatial],
        }
    }

    /// Instantiate a freshly initialised model.
    pub fn build<R: Rng>(&self, rng: &mut R) -> Sequential {
        match self {
            ModelSpec::Mlp { dims } => {
                let mut m = Sequential::new();
                for i in 0..dims.len() - 1 {
                    let last = i == dims.len() - 2;
                    let init = if last {
                        Init::XavierNormal
                    } else {
                        Init::HeNormal
                    };
                    m = m.push(Dense::new(dims[i], dims[i + 1], init, rng));
                    if !last {
                        m = m.push(Relu::new());
                    }
                }
                m
            }
            ModelSpec::Cnn {
                in_channels,
                spatial,
                conv_filters,
                kernel,
                fc_dims,
                classes,
            } => {
                assert!(
                    kernel % 2 == 1,
                    "CNN kernels must be odd for symmetric padding"
                );
                let pad = kernel / 2;
                let mut m = Sequential::new();
                let mut ch = *in_channels;
                let mut size = *spatial;
                for &f in conv_filters {
                    assert!(
                        size % 2 == 0,
                        "spatial size {size} not divisible for pooling"
                    );
                    m = m
                        .push(Conv2d::new(ch, f, *kernel, pad, Init::HeNormal, rng))
                        .push(Relu::new())
                        .push(MaxPool2d::new(2));
                    ch = f;
                    size /= 2;
                }
                m = m.push(Flatten::new());
                let mut width = ch * size * size;
                for &fc in fc_dims {
                    m = m
                        .push(Dense::new(width, fc, Init::HeNormal, rng))
                        .push(Relu::new());
                    width = fc;
                }
                m.push(Dense::new(width, *classes, Init::XavierNormal, rng))
            }
        }
    }

    /// Parameter count of a model built from this spec (spec-only math,
    /// cross-checked against the built model in tests).
    pub fn param_count(&self) -> usize {
        match self {
            ModelSpec::Mlp { dims } => dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum(),
            ModelSpec::Cnn {
                in_channels,
                spatial,
                conv_filters,
                kernel,
                fc_dims,
                classes,
            } => {
                let mut total = 0usize;
                let mut ch = *in_channels;
                let mut size = *spatial;
                for &f in conv_filters {
                    total += f * ch * kernel * kernel + f;
                    ch = f;
                    size /= 2;
                }
                let mut width = ch * size * size;
                for &fc in fc_dims {
                    total += width * fc + fc;
                    width = fc;
                }
                total + width * classes + classes
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_tensor::{rng_from_seed, Tensor};

    #[test]
    fn mlp_shapes_and_count() {
        let spec = ModelSpec::mlp(&[10, 20, 5]);
        let mut rng = rng_from_seed(0);
        let mut m = spec.build(&mut rng);
        assert_eq!(m.param_count(), spec.param_count());
        let y = m.logits(&Tensor::zeros(vec![3, 10]));
        assert_eq!(y.shape(), &[3, 5]);
    }

    #[test]
    fn paper_mlp_matches_architecture() {
        let spec = ModelSpec::paper_mlp(784, 10);
        assert_eq!(
            spec.param_count(),
            784 * 200 + 200 + 200 * 100 + 100 + 100 * 10 + 10
        );
        assert_eq!(spec.classes(), 10);
        assert_eq!(spec.input_dims(), vec![784]);
    }

    #[test]
    fn cnn_builds_and_runs() {
        let spec = ModelSpec::smoke_cnn(8, 10);
        let mut rng = rng_from_seed(1);
        let mut m = spec.build(&mut rng);
        assert_eq!(m.param_count(), spec.param_count());
        let y = m.logits(&Tensor::zeros(vec![2, 3, 8, 8]));
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn paper_cnn_structure() {
        let spec = ModelSpec::paper_cnn(16, 100);
        let mut rng = rng_from_seed(2);
        let mut m = spec.build(&mut rng);
        let y = m.logits(&Tensor::zeros(vec![1, 3, 16, 16]));
        assert_eq!(y.shape(), &[1, 100]);
        // conv(3→64,5×5) + conv(64→64,5×5) + fc(64·4·4→394) + fc(394→192) + fc(192→100)
        let expect =
            64 * 75 + 64 + 64 * 1600 + 64 + 1024 * 394 + 394 + 394 * 192 + 192 + 192 * 100 + 100;
        assert_eq!(m.param_count(), expect);
    }

    #[test]
    fn build_is_seed_deterministic() {
        let spec = ModelSpec::mlp(&[6, 4, 2]);
        let a = spec.build(&mut rng_from_seed(5)).params();
        let b = spec.build(&mut rng_from_seed(5)).params();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trip() {
        let spec = ModelSpec::paper_cnn(16, 10);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ModelSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn degenerate_mlp_panics() {
        let _ = ModelSpec::mlp(&[5]);
    }
}

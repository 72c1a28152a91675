//! From-scratch neural-network library for the FedHiSyn reproduction.
//!
//! Implements exactly what the paper's evaluation needs, with no external
//! ML framework:
//!
//! * the MLP used for MNIST/EMNIST-like tasks (two hidden layers, 200/100),
//! * the CNN used for CIFAR-like tasks (two conv layers + two FC layers),
//! * softmax cross-entropy loss and plain SGD,
//! * flat [`ParamVec`] parameter vectors — the "currency" exchanged between
//!   federated devices and the server, and
//! * a [`GradHook`] extension point through which FedProx's proximal term
//!   and SCAFFOLD's control variates inject their gradient corrections.
//!
//! # Example: train a tiny MLP on random data
//!
//! ```
//! use fedhisyn_nn::{ModelSpec, NoHook, Sgd, SgdConfig, sgd_epoch};
//! use fedhisyn_tensor::{rng_from_seed, Tensor};
//!
//! let spec = ModelSpec::mlp(&[8, 16, 4]);
//! let mut rng = rng_from_seed(0);
//! let mut model = spec.build(&mut rng);
//! let x = Tensor::randn(vec![32, 8], 1.0, &mut rng);
//! let y: Vec<usize> = (0..32).map(|i| i % 4).collect();
//! let mut sgd = Sgd::new(SgdConfig { lr: 0.1 });
//! let loss0 = sgd_epoch(&mut model, &x, &y, 8, &mut sgd, &NoHook, &mut rng);
//! for _ in 0..20 {
//!     sgd_epoch(&mut model, &x, &y, 8, &mut sgd, &NoHook, &mut rng);
//! }
//! let loss1 = sgd_epoch(&mut model, &x, &y, 8, &mut sgd, &NoHook, &mut rng);
//! assert!(loss1 < loss0, "training must reduce loss: {loss0} -> {loss1}");
//! ```

pub mod arch;
pub mod arena;
pub mod init;
pub mod layers;
pub mod loss;
pub mod model;
pub mod params;
pub mod train;
pub mod wire;

pub use arch::ModelSpec;
pub use arena::ArenaBuf;
pub use layers::Layer;
pub use loss::softmax_cross_entropy_arena;
pub use model::Sequential;
pub use params::ParamVec;
pub use train::{correct_in_rows, evaluate_arena, sgd_epoch, GradHook, NoHook, Sgd, SgdConfig};
pub use wire::{Codec, CodecScratch, WireError};

//! Dense `f32` tensors and the parallel compute kernels used throughout the
//! FedHiSyn reproduction.
//!
//! The paper's models (an MLP for MNIST/EMNIST-like tasks and a small CNN
//! for CIFAR-like tasks) only need a handful of primitives: row-major dense
//! storage, GEMM in the three orientations required by backpropagation
//! (`A·B`, `Aᵀ·B`, `A·Bᵀ`), elementwise arithmetic, reductions, and seeded
//! random initialisation. Everything is `f32` — federated averaging is
//! tolerant to single precision and it halves memory traffic relative to
//! `f64`, which matters when 100 simulated devices train concurrently.
//!
//! # Example
//!
//! ```
//! use fedhisyn_tensor::{Tensor, matmul};
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
//! let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
//! let c = matmul(&a, &b).unwrap();
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data(), &[58., 64., 139., 154.]);
//! ```

pub mod dispatch;
mod error;
mod gemm;
#[cfg(target_arch = "x86_64")]
mod gemm_avx2;
pub mod ops;
pub mod quant;
mod rng;
mod scratch;
mod shape;
mod tensor;

pub use dispatch::{active_tier, select_tier, KernelTier};
pub use error::TensorError;
pub use gemm::reference as gemm_reference;
pub use gemm::{
    gemm, gemm_nt, gemm_nt_with_tier, gemm_tn, gemm_tn_with_tier, gemm_with_tier, matmul, par_gemm,
    par_gemm_nt, par_gemm_tn,
};
pub use ops::{
    add, add_assign, axpy, dot, hadamard, l2_norm, lerp, scale, scale_assign, sub, sub_assign,
};
pub use quant::{dequant8, dequantize_slice, finite_min_max, quant8, quant_scale, quantize_slice};
pub use rng::{fill_normal, rng_from_seed, TensorRng};
pub use scratch::{Scratch, ScratchSlot};
pub use shape::{num_elements, Shape};
pub use tensor::Tensor;

/// Library result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

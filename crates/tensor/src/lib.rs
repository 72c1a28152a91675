//! Dense `f32` tensors and the parallel compute kernels used throughout the
//! FedHiSyn reproduction.
//!
//! The paper's models (an MLP for MNIST/EMNIST-like tasks and a small CNN
//! for CIFAR-like tasks) only need a handful of primitives: row-major dense
//! storage, GEMM in the three orientations required by backpropagation
//! (`A·B`, `Aᵀ·B`, `A·Bᵀ`), slice arithmetic for aggregation, and seeded
//! random initialisation. Everything is `f32` — federated averaging is
//! tolerant to single precision and it halves memory traffic relative to
//! `f64`, which matters when 100 simulated devices train concurrently.
//!
//! A [`Tensor`] is shaped storage; every kernel takes flat slices and
//! explicit dimensions.
//!
//! # Example
//!
//! ```
//! use fedhisyn_tensor::{par_gemm, Tensor};
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
//! let mut c = Tensor::zeros(vec![2, 2]);
//! par_gemm(a.data(), b.data(), c.data_mut(), 2, 3, 2, 1.0, 0.0);
//! assert_eq!(c.data(), &[58., 64., 139., 154.]);
//! ```

pub mod dispatch;
mod gemm;
#[cfg(target_arch = "x86_64")]
mod gemm_avx2;
pub mod ops;
pub mod quant;
mod rng;
mod scratch;
mod tensor;

pub use dispatch::{active_tier, select_tier, KernelTier};
pub use gemm::reference as gemm_reference;
pub use gemm::{
    gemm, gemm_nt, gemm_nt_with_tier, gemm_tn, gemm_tn_with_tier, gemm_with_tier, par_gemm,
    par_gemm_nt, par_gemm_tn,
};
pub use ops::{add_assign, axpy, dot, l2_norm, lerp, scale_assign, sub_assign};
pub use quant::{dequantize_slice, finite_min_max, quant_scale, quantize_slice};
pub use rng::{fill_normal, rng_from_seed, TensorRng};
pub use scratch::{Scratch, ScratchSlot};
pub use tensor::Tensor;

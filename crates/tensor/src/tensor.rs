//! The dense row-major `f32` tensor.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::rng::fill_normal;
use crate::shape::{num_elements, Shape};
use crate::{Result, TensorError};

/// A dense, row-major, `f32` tensor.
///
/// `Tensor` owns a flat `Vec<f32>`; views are exposed as slices so kernels
/// can use iterator-based inner loops that the compiler auto-vectorizes
/// (see the GEMM kernels in [`crate::gemm`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor filled with zeros.
    pub fn zeros(dims: Vec<usize>) -> Self {
        let n = num_elements(&dims);
        Tensor {
            shape: Shape::new(dims),
            data: vec![0.0; n],
        }
    }

    /// A tensor filled with ones.
    pub fn ones(dims: Vec<usize>) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: Vec<usize>, value: f32) -> Self {
        let n = num_elements(&dims);
        Tensor {
            shape: Shape::new(dims),
            data: vec![value; n],
        }
    }

    /// Build a tensor from existing data, validating the length.
    pub fn from_vec(dims: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        let expected = num_elements(&dims);
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape: Shape::new(dims),
            data,
        })
    }

    /// A tensor with i.i.d. `N(0, std^2)` entries drawn from `rng`.
    pub fn randn<R: Rng>(dims: Vec<usize>, std: f32, rng: &mut R) -> Self {
        let mut t = Self::zeros(dims);
        fill_normal(&mut t.data, 0.0, std, rng);
        t
    }

    /// The shape's dimension list.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The full [`Shape`] (dims plus strides).
    #[inline]
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Reinterpret the tensor with a new shape of equal element count.
    pub fn reshape(&self, dims: Vec<usize>) -> Result<Tensor> {
        let to = num_elements(&dims);
        if to != self.len() {
            return Err(TensorError::BadReshape {
                from: self.len(),
                to,
            });
        }
        Ok(Tensor {
            shape: Shape::new(dims),
            data: self.data.clone(),
        })
    }

    /// Row `r` of a matrix as a slice.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        let (rows, cols) = self.shape.as_matrix()?;
        assert!(r < rows, "row {r} out of bounds for {rows} rows");
        Ok(&self.data[r * cols..(r + 1) * cols])
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Map a function over all elements, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (None when empty).
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(m.max(x)),
        })
    }

    /// Index of the maximum element (first occurrence; None when empty).
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        let mut best_v = self.data[0];
        for (i, &v) in self.data.iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        Some(best)
    }

    /// Squared L2 norm of the tensor.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Check that two tensors share a shape, for elementwise kernels.
    pub fn same_shape(&self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_produce_expected_contents() {
        let z = Tensor::zeros(vec![2, 2]);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(vec![3]);
        assert!(o.data().iter().all(|&x| x == 1.0));
        let f = Tensor::full(vec![2], 2.5);
        assert_eq!(f.data(), &[2.5, 2.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![1.0; 5]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn randn_is_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::randn(vec![32], 1.0, &mut r1);
        let b = Tensor::randn(vec![32], 1.0, &mut r2);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn randn_std_scales_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let narrow = Tensor::randn(vec![4096], 0.1, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let wide = Tensor::randn(vec![4096], 10.0, &mut rng);
        assert!(wide.norm_sq() > narrow.norm_sq() * 100.0);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3]);
        *t.at_mut(&[1, 2]) = 9.0;
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.data()[5], 9.0);
    }

    #[test]
    fn reshape_checks_count() {
        let t = Tensor::zeros(vec![2, 3]);
        assert!(t.reshape(vec![3, 2]).is_ok());
        assert!(t.reshape(vec![7]).is_err());
    }

    #[test]
    fn row_slices_matrix() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.row(0).unwrap(), &[1., 2., 3.]);
        assert_eq!(t.row(1).unwrap(), &[4., 5., 6.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![4], vec![1., -2., 3., 0.]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), Some(3.0));
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(t.norm_sq(), 1. + 4. + 9.);
    }

    #[test]
    fn argmax_takes_first_on_ties() {
        let t = Tensor::from_vec(vec![3], vec![5., 5., 1.]).unwrap();
        assert_eq!(t.argmax(), Some(0));
    }

    #[test]
    fn empty_tensor_reductions() {
        let t = Tensor::zeros(vec![0]);
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), None);
        assert_eq!(t.argmax(), None);
    }

    #[test]
    fn map_applies_function() {
        let t = Tensor::from_vec(vec![3], vec![1., 2., 3.]).unwrap();
        let sq = t.map(|x| x * x);
        assert_eq!(sq.data(), &[1., 4., 9.]);
    }

    #[test]
    fn same_shape_errors_on_mismatch() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![3, 2]);
        assert!(a.same_shape(&b).is_err());
        assert!(a.same_shape(&a.clone()).is_ok());
    }
}

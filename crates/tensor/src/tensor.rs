//! The dense row-major `f32` tensor.

use rand::Rng;

use crate::rng::fill_normal;

/// A dense, row-major, `f32` tensor: a dimension list and the flat buffer
/// it shapes.
///
/// Kernels work on the flat slices ([`Tensor::data`], [`Tensor::data_mut`])
/// with explicit dimensions, so the tensor carries no arithmetic of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    dims: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor filled with zeros.
    pub fn zeros(dims: Vec<usize>) -> Self {
        let n = dims.iter().product();
        Tensor {
            dims,
            data: vec![0.0; n],
        }
    }

    /// Wrap existing data in a shape.
    ///
    /// # Panics
    /// Panics if `data.len()` is not the product of `dims` (a programming
    /// error, not a runtime condition).
    pub fn from_vec(dims: Vec<usize>, data: Vec<f32>) -> Self {
        let expected: usize = dims.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "Tensor::from_vec: {} elements for shape {dims:?}",
            data.len()
        );
        Tensor { dims, data }
    }

    /// A tensor with i.i.d. `N(0, std^2)` entries drawn from `rng`.
    pub fn randn<R: Rng>(dims: Vec<usize>, std: f32, rng: &mut R) -> Self {
        let mut t = Self::zeros(dims);
        fill_normal(&mut t.data, 0.0, std, rng);
        t
    }

    /// The dimension list.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.dims
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

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn norm_sq(t: &Tensor) -> f32 {
        crate::dot(t.data(), t.data())
    }

    #[test]
    fn zeros_has_the_shape_product_of_zeros() {
        let z = Tensor::zeros(vec![2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        assert!(Tensor::zeros(vec![3, 0]).is_empty());
    }

    #[test]
    fn from_vec_keeps_shape_and_data() {
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.into_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    #[should_panic(expected = "5 elements for shape [2, 2]")]
    fn from_vec_rejects_a_length_that_is_not_the_shape_product() {
        Tensor::from_vec(vec![2, 2], vec![1.0; 5]);
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
        assert!(norm_sq(&wide) > norm_sq(&narrow) * 100.0);
    }
}

//! Labelled datasets held in memory.

use fedhisyn_tensor::Tensor;

/// An in-memory labelled dataset.
///
/// `x` is batch-first (`[N, D]` or `[N, C, H, W]`); `y` holds `N` class
/// indices below `classes`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Features, batch-first.
    pub x: Tensor,
    /// Class labels, one per row of `x`.
    pub y: Vec<usize>,
    /// Total number of classes in the task (not just those present here).
    pub classes: usize,
}

impl Dataset {
    /// Build a dataset, validating label count and range.
    pub fn new(x: Tensor, y: Vec<usize>, classes: usize) -> Self {
        assert_eq!(x.shape()[0], y.len(), "one label per sample");
        assert!(y.iter().all(|&l| l < classes), "label out of range");
        Dataset { x, y, classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Per-sample feature dimensions (excluding the batch dimension).
    pub fn sample_dims(&self) -> Vec<usize> {
        self.x.shape()[1..].to_vec()
    }

    /// Extract the subset of samples at `indices` (copying).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let sample: usize = self.x.shape()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * sample);
        let mut y = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "subset index {i} out of range");
            data.extend_from_slice(&self.x.data()[i * sample..(i + 1) * sample]);
            y.push(self.y[i]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.x.shape()[1..]);
        Dataset {
            x: Tensor::from_vec(dims, data),
            y,
            classes: self.classes,
        }
    }

    /// Histogram of labels (length = `classes`).
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.classes];
        for &l in &self.y {
            hist[l] += 1;
        }
        hist
    }

    /// Empirical label distribution (length = `classes`, sums to 1 when
    /// non-empty).
    #[cfg(test)]
    pub(crate) fn label_distribution(&self) -> Vec<f64> {
        let hist = self.class_histogram();
        let n = self.len().max(1) as f64;
        hist.into_iter().map(|c| c as f64 / n).collect()
    }

    /// Concatenate two datasets over the batch dimension.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        assert_eq!(self.classes, other.classes, "class count mismatch");
        assert_eq!(
            self.sample_dims(),
            other.sample_dims(),
            "sample shape mismatch"
        );
        let mut data = self.x.data().to_vec();
        data.extend_from_slice(other.x.data());
        let mut y = self.y.clone();
        y.extend_from_slice(&other.y);
        let mut dims = vec![self.len() + other.len()];
        dims.extend_from_slice(&self.x.shape()[1..]);
        Dataset {
            x: Tensor::from_vec(dims, data),
            y,
            classes: self.classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 1., 1., 2., 2., 3., 3.]);
        Dataset::new(x, vec![0, 1, 0, 1], 2)
    }

    #[test]
    fn basic_accessors() {
        let d = sample();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.sample_dims(), vec![2]);
        assert_eq!(d.class_histogram(), vec![2, 2]);
        assert_eq!(d.label_distribution(), vec![0.5, 0.5]);
    }

    #[test]
    fn subset_copies_right_rows() {
        let d = sample();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.x.data(), &[2., 2., 0., 0.]);
        assert_eq!(s.y, vec![0, 0]);
    }

    #[test]
    fn empty_subset() {
        let d = sample();
        let s = d.subset(&[]);
        assert!(s.is_empty());
        assert_eq!(s.x.shape(), &[0, 2]);
    }

    #[test]
    fn concat_stacks_samples() {
        let d = sample();
        let c = d.concat(&d);
        assert_eq!(c.len(), 8);
        assert_eq!(c.class_histogram(), vec![4, 4]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        let x = Tensor::zeros(vec![1, 2]);
        let _ = Dataset::new(x, vec![5], 2);
    }

    #[test]
    #[should_panic(expected = "one label per sample")]
    fn length_mismatch_panics() {
        let x = Tensor::zeros(vec![2, 2]);
        let _ = Dataset::new(x, vec![0], 2);
    }

    #[test]
    fn rank4_subset_preserves_sample_shape() {
        let x = Tensor::from_vec(vec![2, 1, 2, 2], vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let d = Dataset::new(x, vec![0, 1], 2);
        let s = d.subset(&[1]);
        assert_eq!(s.x.shape(), &[1, 1, 2, 2]);
        assert_eq!(s.x.data(), &[5., 6., 7., 8.]);
    }
}

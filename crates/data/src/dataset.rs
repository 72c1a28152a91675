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

    /// Split the dataset into one shard per index list, consuming it.
    /// Shard `i` holds rows `shards[i]` in that order, so it equals
    /// `self.subset(&shards[i])` bit for bit, labels included.
    ///
    /// The lists must cover every row exactly once (as
    /// [`crate::partition_indices`] guarantees); a row out of range,
    /// listed twice or not listed panics. Rows are permuted in place into
    /// shard order, then each shard is moved off the tail, so the pooled
    /// rows are never copied as a whole: the high-water is the dataset
    /// plus its largest shard.
    pub fn into_shards(self, shards: &[Vec<usize>]) -> Vec<Dataset> {
        let n = self.len();
        let listed: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(listed, n, "into_shards: {listed} rows listed for {n}");
        // `src[p]` is the pooled row that lands at position `p`.
        let src: Vec<usize> = shards.iter().flatten().copied().collect();
        let mut seen = vec![0u64; n.div_ceil(64)];
        for &i in &src {
            assert!(i < n, "into_shards: row {i} out of range for {n}");
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            assert!(seen[word] & bit == 0, "into_shards: row {i} listed twice");
            seen[word] |= bit;
        }

        let sample: usize = self.x.shape()[1..].iter().product();
        let sample_dims = self.x.shape()[1..].to_vec();
        let mut data = self.x.into_vec();
        let mut y = self.y;
        // Gather along each cycle of the permutation: position `p` takes
        // row `src[p]`, which no earlier step of the cycle has overwritten;
        // the cycle's start row waits in `row` until the cycle closes.
        // `seen` is all ones after the check above, so a clear bit marks
        // a placed position.
        let mut row = vec![0.0f32; sample];
        for start in 0..n {
            if seen[start / 64] & (1 << (start % 64)) == 0 {
                continue;
            }
            row.copy_from_slice(&data[start * sample..(start + 1) * sample]);
            let label = y[start];
            let mut at = start;
            loop {
                seen[at / 64] &= !(1 << (at % 64));
                let from = src[at];
                if from == start {
                    data[at * sample..(at + 1) * sample].copy_from_slice(&row);
                    y[at] = label;
                    break;
                }
                data.copy_within(from * sample..(from + 1) * sample, at * sample);
                y[at] = y[from];
                at = from;
            }
        }
        drop((src, seen, row));

        // Peel the shards off the tail, returning each one's rows to the
        // allocator as it leaves; the first shard keeps the pooled buffer.
        let mut out: Vec<Dataset> = Vec::with_capacity(shards.len());
        let mut end = n;
        for (i, idx) in shards.iter().enumerate().rev() {
            let begin = end - idx.len();
            let (shard_x, shard_y) = if i == 0 {
                (std::mem::take(&mut data), std::mem::take(&mut y))
            } else {
                let tail = (data[begin * sample..].to_vec(), y[begin..].to_vec());
                data.truncate(begin * sample);
                data.shrink_to_fit();
                y.truncate(begin);
                y.shrink_to_fit();
                tail
            };
            let mut dims = vec![idx.len()];
            dims.extend_from_slice(&sample_dims);
            out.push(Dataset {
                x: Tensor::from_vec(dims, shard_x),
                y: shard_y,
                classes: self.classes,
            });
            end = begin;
        }
        out.reverse();
        out
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

    /// Same shards: shape, feature bits, labels and class count.
    fn assert_same_bits(got: &[Dataset], want: &[Dataset]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.x.shape(), w.x.shape());
            let bits = |d: &Dataset| d.x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w));
            assert_eq!((&g.y, g.classes), (&w.y, w.classes));
        }
    }

    /// `into_shards` hands out exactly what `subset` copies, row for row
    /// and label for label: on the partitioners' IID and Dirichlet index
    /// lists, and with empty shards first, in the middle and last.
    #[test]
    fn into_shards_equals_subset() {
        use crate::{partition_indices, DatasetProfile, Partition, Scale};
        let pooled = DatasetProfile::Cifar10Like
            .synth_config(Scale::Smoke, 5)
            .generate()
            .train;
        let mut rng = fedhisyn_tensor::rng_from_seed(1);
        let iid = partition_indices(&pooled, 7, Partition::Iid, &mut rng);
        let dirichlet = partition_indices(&pooled, 9, Partition::Dirichlet { beta: 0.3 }, &mut rng);
        let mut with_empty = iid.clone();
        with_empty.insert(0, vec![]);
        with_empty.insert(4, vec![]);
        with_empty.push(vec![]);
        for lists in [iid, dirichlet, with_empty] {
            let want: Vec<Dataset> = lists.iter().map(|idx| pooled.subset(idx)).collect();
            let got = pooled.clone().into_shards(&lists);
            assert_same_bits(&got, &want);
        }

        let s = sample().into_shards(&[vec![2, 0], vec![], vec![3, 1]]);
        assert_eq!(s[0].x.data(), &[2., 2., 0., 0.]);
        assert_eq!(s[1].x.shape(), &[0, 2]);
        assert_eq!(s[2].y, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "row 1 listed twice")]
    fn into_shards_rejects_a_duplicated_row() {
        let _ = sample().into_shards(&[vec![0, 1], vec![1, 3]]);
    }

    #[test]
    #[should_panic(expected = "3 rows listed for 4")]
    fn into_shards_rejects_a_missing_row() {
        let _ = sample().into_shards(&[vec![0, 1], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "row 4 out of range")]
    fn into_shards_rejects_an_out_of_range_row() {
        let _ = sample().into_shards(&[vec![0, 1], vec![2, 4]]);
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

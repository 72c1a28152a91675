//! Label-skew statistics: the paper's Eq. 4 divergence.

/// The paper's Eq. 4 divergence:
/// `D = Σ_i Σ_j | p_i(y = j) − p(y = j) |`
/// summed over devices `i` and classes `j`, where `p_i` is the label
/// distribution on device `i` and `p` is the pooled distribution.
///
/// Takes one class histogram per device (what `FlEnv::class_histogram`
/// returns in O(classes), lazy data included); the pooled histogram is
/// their sum. Larger `D` means the device shards are further from the
/// pooled distribution, which the paper links to lower final accuracy
/// (§3.2).
pub fn label_divergence(histograms: &[Vec<usize>]) -> f64 {
    let classes = histograms.first().map_or(0, Vec::len);
    let mut pooled = vec![0usize; classes];
    for hist in histograms {
        for (p, &c) in pooled.iter_mut().zip(hist) {
            *p += c;
        }
    }
    let p_global = distribution(&pooled);
    histograms
        .iter()
        .map(|hist| {
            distribution(hist)
                .iter()
                .zip(&p_global)
                .map(|(pd, pg)| (pd - pg).abs())
                .sum::<f64>()
        })
        .sum()
}

/// Mean per-device divergence (Eq. 4 normalized by device count), which is
/// comparable across different federation sizes.
pub fn mean_label_divergence(histograms: &[Vec<usize>]) -> f64 {
    if histograms.is_empty() {
        return 0.0;
    }
    label_divergence(histograms) / histograms.len() as f64
}

/// A histogram normalised to sum to 1 (all zeros when empty).
fn distribution(hist: &[usize]) -> Vec<f64> {
    let n = hist.iter().sum::<usize>().max(1) as f64;
    hist.iter().map(|&c| c as f64 / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::partition::{partition_indices, Partition};
    use fedhisyn_tensor::{rng_from_seed, Tensor};

    #[test]
    fn perfectly_iid_partition_has_zero_divergence() {
        // Every device holds the exact pooled distribution.
        let div = label_divergence(&vec![vec![3, 3, 3, 3]; 4]);
        assert!(div < 1e-9, "divergence {div}");
    }

    #[test]
    fn single_class_devices_have_max_divergence() {
        // Each device holds exactly one class.
        let hists: Vec<Vec<usize>> = (0..4)
            .map(|c| (0..4).map(|j| if j == c { 10 } else { 0 }).collect())
            .collect();
        // Per device: |1 − 0.25| + 3·|0 − 0.25| = 1.5; total = 6.
        let div = label_divergence(&hists);
        assert!((div - 6.0).abs() < 1e-9, "divergence {div}");
    }

    #[test]
    fn dirichlet_divergence_decreases_with_beta() {
        let n = 2000;
        let y: Vec<usize> = (0..n).map(|i| i % 10).collect();
        let d = Dataset::new(Tensor::zeros(vec![n, 2]), y, 10);
        let avg = |beta: f64| -> f64 {
            (0..5)
                .map(|s| {
                    let mut rng = rng_from_seed(s);
                    let parts = partition_indices(&d, 10, Partition::Dirichlet { beta }, &mut rng);
                    let hists: Vec<Vec<usize>> = parts
                        .iter()
                        .map(|idx| d.subset(idx).class_histogram())
                        .collect();
                    mean_label_divergence(&hists)
                })
                .sum::<f64>()
                / 5.0
        };
        let skewed = avg(0.1);
        let mild = avg(10.0);
        assert!(
            skewed > mild,
            "Dir(0.1)={skewed} should exceed Dir(10)={mild}"
        );
    }

    #[test]
    fn empty_partition_list() {
        assert_eq!(mean_label_divergence(&[]), 0.0);
    }
}

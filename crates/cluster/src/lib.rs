//! k-means clustering, as used by the FedHiSyn server to tier devices.
//!
//! The paper clusters devices by their local-training latency `t_i`
//! (a 1-D feature) with k-means (§4.1). This crate provides:
//!
//! * [`kmeans_1d`] — Lloyd's algorithm with k-means++ seeding on scalar
//!   values (the server's latencies),
//! * [`quantile_bins`] — an equal-population binning alternative used by
//!   the FedAT baseline's tiering and by ablation benches.
//!
//! All entry points are deterministic given the caller's RNG.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Result of a clustering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    /// Cluster id per input point (values in `0..k`).
    pub assignment: Vec<usize>,
    /// Cluster centroids, one value per cluster.
    pub centroids: Vec<f64>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Indices of the points in each cluster.
    fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.k()];
        for (i, &c) in self.assignment.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }

    /// Non-empty clusters ordered by ascending centroid.
    ///
    /// FedHiSyn wants "class 1 = fastest … class K = slowest" (Alg. 1
    /// line 4); for latency clustering the centroid *is* a latency.
    pub fn groups_sorted_by_centroid(&self) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.k()).collect();
        order.sort_by(|&a, &b| {
            self.centroids[a]
                .partial_cmp(&self.centroids[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let groups = self.groups();
        order
            .into_iter()
            .map(|c| groups[c].clone())
            .filter(|g| !g.is_empty())
            .collect()
    }
}

fn sq_dist(a: f64, b: f64) -> f64 {
    (a - b) * (a - b)
}

/// Lloyd's k-means with k-means++ seeding on scalar `values` (the
/// server clusters latencies).
///
/// Empty clusters are re-seeded on the farthest point, so all `k` ids
/// stay in use whenever `n ≥ k` distinct values exist.
///
/// # Panics
/// Panics when `values` is empty, `k == 0` or `k > n`.
pub fn kmeans_1d<R: Rng>(values: &[f64], k: usize, max_iter: usize, rng: &mut R) -> Clustering {
    let n = values.len();
    assert!(n > 0, "kmeans on empty input");
    assert!(k > 0 && k <= n, "need 0 < k <= n (k={k}, n={n})");

    let mut centroids = kmeanspp_seed(values, k, rng);
    let mut assignment = vec![0usize; n];
    let mut iterations = 0usize;

    for it in 0..max_iter.max(1) {
        iterations = it + 1;
        // Assign.
        let mut changed = false;
        for (i, &p) in values.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, &cent) in centroids.iter().enumerate() {
                let d = sq_dist(p, cent);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for (&p, &c) in values.iter().zip(&assignment) {
            counts[c] += 1;
            sums[c] += p;
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster on the point farthest from its
                // current centroid (standard empty-cluster fix).
                let far = (0..n)
                    .max_by(|&a, &b| {
                        sq_dist(values[a], centroids[assignment[a]])
                            .partial_cmp(&sq_dist(values[b], centroids[assignment[b]]))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("non-empty points");
                centroids[c] = values[far];
                changed = true;
            } else {
                centroids[c] = sums[c] / counts[c] as f64;
            }
        }
        if !changed && it > 0 {
            break;
        }
    }

    let inertia = values
        .iter()
        .zip(&assignment)
        .map(|(&p, &c)| sq_dist(p, centroids[c]))
        .sum();
    Clustering {
        assignment,
        centroids,
        inertia,
        iterations,
    }
}

/// k-means++ seeding: first centroid uniform, then D²-weighted.
fn kmeanspp_seed<R: Rng>(values: &[f64], k: usize, rng: &mut R) -> Vec<f64> {
    let n = values.len();
    let mut centroids: Vec<f64> = Vec::with_capacity(k);
    centroids.push(values[rng.gen_range(0..n)]);
    let mut d2: Vec<f64> = values.iter().map(|&p| sq_dist(p, centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::MIN_POSITIVE {
            rng.gen_range(0..n) // all points identical to some centroid
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
            }
            idx
        };
        centroids.push(values[next]);
        for (&p, d2) in values.iter().zip(d2.iter_mut()) {
            let d = sq_dist(p, values[next]);
            if d < *d2 {
                *d2 = d;
            }
        }
    }
    centroids
}

/// Split indices into `k` equal-population bins by ascending value.
///
/// This is the tiering rule FedAT uses, and an ablation alternative to
/// k-means for FedHiSyn. Ties are broken by index so the result is
/// deterministic. Bins differ in size by at most one.
pub fn quantile_bins(values: &[f64], k: usize) -> Vec<Vec<usize>> {
    assert!(k > 0, "need at least one bin");
    assert!(values.len() >= k, "need at least k values");
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let n = values.len();
    let base = n / k;
    let extra = n % k;
    let mut bins = Vec::with_capacity(k);
    let mut start = 0usize;
    for b in 0..k {
        let len = base + usize::from(b < extra);
        bins.push(order[start..start + len].to_vec());
        start += len;
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn separates_obvious_1d_clusters() {
        let values = vec![1.0, 1.1, 0.9, 10.0, 10.2, 9.8];
        let c = kmeans_1d(&values, 2, 50, &mut rng(0));
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert_eq!(c.assignment[0], c.assignment[2]);
        assert_eq!(c.assignment[3], c.assignment[4]);
        assert_eq!(c.assignment[3], c.assignment[5]);
        assert_ne!(c.assignment[0], c.assignment[3]);
    }

    #[test]
    fn groups_sorted_by_centroid_orders_fast_first() {
        let values = vec![10.0, 1.0, 10.1, 1.1, 5.0];
        let c = kmeans_1d(&values, 3, 50, &mut rng(1));
        let groups = c.groups_sorted_by_centroid();
        assert_eq!(groups.len(), 3);
        // First group should contain the small latencies (indices 1, 3).
        let mut first = groups[0].clone();
        first.sort_unstable();
        assert_eq!(first, vec![1, 3]);
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let values = vec![1.0, 2.0, 3.0];
        let c = kmeans_1d(&values, 3, 50, &mut rng(2));
        let mut seen: Vec<usize> = c.assignment.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3, "each point its own cluster");
        assert!(c.inertia < 1e-12);
    }

    #[test]
    fn k_one_gives_single_group() {
        let values = vec![5.0, 1.0, 9.0];
        let c = kmeans_1d(&values, 1, 50, &mut rng(3));
        assert!(c.assignment.iter().all(|&a| a == 0));
        assert!((c.centroids[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn inertia_never_increases_with_k() {
        let values: Vec<f64> = (0..50).map(|i| (i as f64 * 7.3) % 13.0).collect();
        let mut prev = f64::INFINITY;
        for k in [1usize, 2, 5, 10] {
            // Best of several seeds to avoid local-minimum flakiness.
            let best = (0..5)
                .map(|s| kmeans_1d(&values, k, 100, &mut rng(s)).inertia)
                .fold(f64::INFINITY, f64::min);
            assert!(best <= prev + 1e-9, "k={k}: inertia {best} > {prev}");
            prev = best;
        }
    }

    #[test]
    fn identical_points_do_not_crash() {
        let values = vec![2.0; 10];
        let c = kmeans_1d(&values, 3, 50, &mut rng(5));
        assert_eq!(c.assignment.len(), 10);
        assert!(c.inertia < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let values: Vec<f64> = (0..30).map(|i| (i as f64).sin() * 10.0).collect();
        let a = kmeans_1d(&values, 4, 100, &mut rng(6));
        let b = kmeans_1d(&values, 4, 100, &mut rng(6));
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn quantile_bins_are_ordered_and_balanced() {
        let values = vec![5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 0.5];
        let bins = quantile_bins(&values, 3);
        assert_eq!(bins.len(), 3);
        let sizes: Vec<usize> = bins.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![3, 2, 2]);
        // Every value in bin b must be <= every value in bin b+1.
        for w in bins.windows(2) {
            let max_lo = w[0].iter().map(|&i| values[i]).fold(f64::MIN, f64::max);
            let min_hi = w[1].iter().map(|&i| values[i]).fold(f64::MAX, f64::min);
            assert!(max_lo <= min_hi);
        }
    }

    #[test]
    fn quantile_bins_conserve_indices() {
        let values: Vec<f64> = (0..17).map(|i| (i * 13 % 7) as f64).collect();
        let bins = quantile_bins(&values, 5);
        let mut all: Vec<usize> = bins.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..17).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "0 < k")]
    fn k_larger_than_n_panics() {
        let _ = kmeans_1d(&[1.0, 2.0], 5, 10, &mut rng(7));
    }
}

//! Flat parameter vectors — the unit of exchange in federated learning.
//!
//! Every model transmission in FedHiSyn and its baselines (device → device
//! along the ring, device → server, server → device) moves one `ParamVec`.
//! Aggregation rules (Eq. 3, Eq. 9, Eq. 10 of the paper) are convex
//! combinations of `ParamVec`s, implemented here as fused
//! scale/axpy passes over the flat buffer.

use fedhisyn_tensor::ops;
use serde::{Deserialize, Serialize};

/// A flat `f32` parameter (or gradient, or control-variate) vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ParamVec(Vec<f32>);

impl ParamVec {
    /// A zero vector with `n` entries.
    pub fn zeros(n: usize) -> Self {
        ParamVec(vec![0.0; n])
    }

    /// Wrap an existing buffer.
    pub fn from_vec(v: Vec<f32>) -> Self {
        ParamVec(v)
    }

    /// Number of parameters.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the vector holds no parameters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Immutable view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Mutable view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }

    /// Consume, returning the buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.0
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &ParamVec) {
        ops::add_assign(&mut self.0, &other.0);
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &ParamVec) {
        ops::sub_assign(&mut self.0, &other.0);
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &ParamVec) {
        ops::axpy(alpha, other.as_slice(), &mut self.0);
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        ops::scale_assign(&mut self.0, alpha);
    }

    /// `self = (1 - t) * self + t * other`.
    pub fn lerp(&mut self, other: &ParamVec, t: f32) {
        ops::lerp(&mut self.0, other.as_slice(), t);
    }

    /// Set every entry to zero, keeping the allocation.
    pub fn zero(&mut self) {
        self.0.fill(0.0);
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        ops::l2_norm(&self.0)
    }

    /// Euclidean distance to another vector.
    pub fn distance(&self, other: &ParamVec) -> f32 {
        assert_eq!(self.len(), other.len(), "distance: length mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(&a, &b)| {
                let d = a - b;
                d * d
            })
            .sum::<f32>()
            .sqrt()
    }

    /// True when all entries are finite (training-divergence guard).
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }

    /// Uniform average of a non-empty set of vectors (Eq. 9 of the paper).
    ///
    /// # Panics
    /// Panics when `items` is empty or lengths differ.
    pub fn mean<'a, I>(items: I) -> ParamVec
    where
        I: IntoIterator<Item = &'a ParamVec>,
    {
        let mut it = items.into_iter();
        let first = it.next().expect("ParamVec::mean of empty set");
        let mut acc = first.clone();
        let mut count = 1usize;
        for pv in it {
            acc.add_assign(pv);
            count += 1;
        }
        acc.scale(1.0 / count as f32);
        acc
    }

    /// Weighted average `Σ w_i · v_i / Σ w_i` (Eq. 3 / Eq. 10 of the paper).
    ///
    /// # Panics
    /// Panics when `items` is empty, weights are non-positive in total, or
    /// lengths differ.
    pub fn weighted_mean<'a, I>(items: I) -> ParamVec
    where
        I: IntoIterator<Item = (f32, &'a ParamVec)>,
    {
        let mut acc: Option<ParamVec> = None;
        let mut total_w = 0.0f32;
        for (w, pv) in items {
            assert!(w >= 0.0, "negative aggregation weight {w}");
            total_w += w;
            match &mut acc {
                None => {
                    let mut first = ParamVec::zeros(pv.len());
                    first.axpy(w, pv);
                    acc = Some(first);
                }
                Some(acc) => acc.axpy(w, pv),
            }
        }
        let mut acc = acc.expect("ParamVec::weighted_mean of empty set");
        assert!(total_w > 0.0, "aggregation weights sum to zero");
        acc.scale(1.0 / total_w);
        acc
    }
}

impl From<Vec<f32>> for ParamVec {
    fn from(v: Vec<f32>) -> Self {
        ParamVec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(v: &[f32]) -> ParamVec {
        ParamVec::from_vec(v.to_vec())
    }

    #[test]
    fn arithmetic_basics() {
        let mut a = pv(&[1., 2., 3.]);
        a.add_assign(&pv(&[1., 1., 1.]));
        assert_eq!(a.as_slice(), &[2., 3., 4.]);
        a.sub_assign(&pv(&[2., 2., 2.]));
        assert_eq!(a.as_slice(), &[0., 1., 2.]);
        a.axpy(2.0, &pv(&[1., 1., 1.]));
        assert_eq!(a.as_slice(), &[2., 3., 4.]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1., 1.5, 2.]);
    }

    #[test]
    fn mean_is_uniform_average() {
        let vs = [pv(&[0., 0.]), pv(&[2., 4.]), pv(&[4., 8.])];
        let m = ParamVec::mean(vs.iter());
        assert_eq!(m.as_slice(), &[2., 4.]);
    }

    #[test]
    fn weighted_mean_matches_hand_computation() {
        let a = pv(&[1., 0.]);
        let b = pv(&[0., 1.]);
        let m = ParamVec::weighted_mean([(1.0, &a), (3.0, &b)]);
        assert_eq!(m.as_slice(), &[0.25, 0.75]);
    }

    #[test]
    fn weighted_mean_is_scale_invariant() {
        let a = pv(&[2., -1.]);
        let b = pv(&[4., 5.]);
        let m1 = ParamVec::weighted_mean([(1.0, &a), (2.0, &b)]);
        let m2 = ParamVec::weighted_mean([(10.0, &a), (20.0, &b)]);
        for (x, y) in m1.as_slice().iter().zip(m2.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn mean_of_empty_panics() {
        let _ = ParamVec::mean(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "negative aggregation weight")]
    fn negative_weight_panics() {
        let a = pv(&[1.]);
        let _ = ParamVec::weighted_mean([(-1.0, &a)]);
    }

    #[test]
    fn distance_and_norm() {
        let a = pv(&[3., 0.]);
        let b = pv(&[0., 4.]);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn lerp_mixes() {
        let mut a = pv(&[0., 0.]);
        a.lerp(&pv(&[4., 8.]), 0.25);
        assert_eq!(a.as_slice(), &[1., 2.]);
    }

    #[test]
    fn finite_guard_detects_nan() {
        let mut a = pv(&[1., 2.]);
        assert!(a.is_finite());
        a.as_mut_slice()[1] = f32::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn zero_resets_but_keeps_len() {
        let mut a = pv(&[1., 2., 3.]);
        a.zero();
        assert_eq!(a.len(), 3);
        assert!(a.as_slice().iter().all(|&x| x == 0.0));
    }
}

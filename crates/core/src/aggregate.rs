//! Server-side aggregation rules (paper §4.3).

use std::borrow::Cow;

use fedhisyn_nn::ParamVec;
use serde::{Deserialize, Serialize};

/// A model arriving at the server, with the metadata aggregation may use.
#[derive(Debug, Clone)]
pub struct Contribution<'a> {
    /// The uploaded parameters.
    pub params: &'a ParamVec,
    /// Samples on the uploading device (`n_i` in Eq. 3).
    pub samples: usize,
    /// Mean local-training time of the uploader's *class* (`l_i` in
    /// Eq. 10).
    pub class_mean_time: f64,
}

/// How the server combines uploaded models into the next global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AggregationRule {
    /// Eq. 9: every upload weighs the same. The paper's default for
    /// FedHiSyn — ring-trained models have no meaningful per-device sample
    /// count.
    #[default]
    Uniform,
    /// Eq. 3: classical FedAvg weighting by device sample count.
    SampleWeighted,
    /// Eq. 10: weight by the class's mean local-training time, so slower
    /// classes (fewer ring hops) are not drowned out by fast ones.
    TimeWeighted,
}

impl AggregationRule {
    /// Aggregate a non-empty set of contributions into a new global model,
    /// folding them in order — the running mean FedHiSyn folds its uploads
    /// into as its rings finish, so both take one arithmetic path.
    ///
    /// # Panics
    /// Panics on an empty contribution set or zero total weight.
    pub fn aggregate(&self, contributions: &[Contribution<'_>]) -> ParamVec {
        let mut running = RunningAggregate::new(*self);
        for c in contributions {
            running.add(Cow::Borrowed(c.params), c.samples, c.class_mean_time);
        }
        running
            .finish()
            .expect("aggregate of empty contribution set")
    }

    /// Short label used in experiment tables and bench ids.
    pub fn label(&self) -> &'static str {
        match self {
            AggregationRule::Uniform => "uniform",
            AggregationRule::SampleWeighted => "sample-weighted",
            AggregationRule::TimeWeighted => "time-weighted",
        }
    }
}

/// An [`AggregationRule`]'s mean, folded one contribution at a time, so
/// a caller can drop each upload as soon as it is added.
///
/// The arithmetic is that of [`ParamVec::mean`] and
/// [`ParamVec::weighted_mean`], in the order contributions are added:
/// `Uniform` is seeded with the first model and adds the rest, the
/// weighted rules `axpy` every model into zeros while summing the weights
/// in order, and [`RunningAggregate::finish`] scales by the reciprocal of
/// the count or of the weight sum. So folding a sequence bit-matches
/// aggregating it whole.
#[derive(Debug)]
pub(crate) struct RunningAggregate {
    rule: AggregationRule,
    acc: Option<ParamVec>,
    count: usize,
    total_w: f32,
}

impl RunningAggregate {
    /// An empty mean under `rule`.
    pub(crate) fn new(rule: AggregationRule) -> Self {
        RunningAggregate {
            rule,
            acc: None,
            count: 0,
            total_w: 0.0,
        }
    }

    /// Fold in one contribution. An owned first model under `Uniform`
    /// becomes the accumulator itself; every other model is only read.
    ///
    /// # Panics
    /// Panics on a negative weight.
    pub(crate) fn add(&mut self, params: Cow<'_, ParamVec>, samples: usize, class_mean_time: f64) {
        self.count += 1;
        let w = match self.rule {
            AggregationRule::Uniform => {
                match &mut self.acc {
                    None => self.acc = Some(params.into_owned()),
                    Some(acc) => acc.add_assign(&params),
                }
                return;
            }
            AggregationRule::SampleWeighted => samples as f32,
            AggregationRule::TimeWeighted => class_mean_time as f32,
        };
        assert!(w >= 0.0, "negative aggregation weight {w}");
        self.total_w += w;
        self.acc
            .get_or_insert_with(|| ParamVec::zeros(params.len()))
            .axpy(w, &params);
    }

    /// The mean of everything added; `None` when nothing was.
    ///
    /// # Panics
    /// Panics when a weighted rule's weights sum to zero.
    pub(crate) fn finish(self) -> Option<ParamVec> {
        let mut acc = self.acc?;
        let inv = match self.rule {
            AggregationRule::Uniform => 1.0 / self.count as f32,
            AggregationRule::SampleWeighted | AggregationRule::TimeWeighted => {
                assert!(self.total_w > 0.0, "aggregation weights sum to zero");
                1.0 / self.total_w
            }
        };
        acc.scale(inv);
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(v: &[f32]) -> ParamVec {
        ParamVec::from_vec(v.to_vec())
    }

    #[test]
    fn uniform_ignores_metadata() {
        let a = pv(&[0.0, 0.0]);
        let b = pv(&[2.0, 4.0]);
        let contributions = [
            Contribution {
                params: &a,
                samples: 1,
                class_mean_time: 100.0,
            },
            Contribution {
                params: &b,
                samples: 999,
                class_mean_time: 0.1,
            },
        ];
        let g = AggregationRule::Uniform.aggregate(&contributions);
        assert_eq!(g.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn sample_weighted_matches_eq3() {
        let a = pv(&[0.0]);
        let b = pv(&[10.0]);
        let contributions = [
            Contribution {
                params: &a,
                samples: 30,
                class_mean_time: 1.0,
            },
            Contribution {
                params: &b,
                samples: 10,
                class_mean_time: 1.0,
            },
        ];
        let g = AggregationRule::SampleWeighted.aggregate(&contributions);
        assert!((g.as_slice()[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn time_weighted_matches_eq10() {
        let fast = pv(&[0.0]);
        let slow = pv(&[8.0]);
        let contributions = [
            Contribution {
                params: &fast,
                samples: 10,
                class_mean_time: 1.0,
            },
            Contribution {
                params: &slow,
                samples: 10,
                class_mean_time: 3.0,
            },
        ];
        let g = AggregationRule::TimeWeighted.aggregate(&contributions);
        // (0·1 + 8·3) / 4 = 6: the slow class gets more weight.
        assert!((g.as_slice()[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn aggregation_is_convex() {
        let a = pv(&[1.0, -5.0]);
        let b = pv(&[3.0, 7.0]);
        for rule in [
            AggregationRule::Uniform,
            AggregationRule::SampleWeighted,
            AggregationRule::TimeWeighted,
        ] {
            let g = rule.aggregate(&[
                Contribution {
                    params: &a,
                    samples: 3,
                    class_mean_time: 2.0,
                },
                Contribution {
                    params: &b,
                    samples: 5,
                    class_mean_time: 4.0,
                },
            ]);
            for (i, &x) in g.as_slice().iter().enumerate() {
                let lo = a.as_slice()[i].min(b.as_slice()[i]);
                let hi = a.as_slice()[i].max(b.as_slice()[i]);
                assert!(
                    x >= lo - 1e-6 && x <= hi + 1e-6,
                    "{rule:?} coord {i}: {x} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn single_contribution_is_identity() {
        let a = pv(&[4.0, 2.0]);
        for rule in [
            AggregationRule::Uniform,
            AggregationRule::SampleWeighted,
            AggregationRule::TimeWeighted,
        ] {
            let g = rule.aggregate(&[Contribution {
                params: &a,
                samples: 7,
                class_mean_time: 1.5,
            }]);
            assert_eq!(g.as_slice(), a.as_slice());
        }
    }

    /// Folding owned uploads one at a time — FedHiSyn's path — equals
    /// `aggregate` and the whole-set means bit for bit, for every rule:
    /// with a `-0.0` in every model's first coordinate (Uniform's sum
    /// keeps it, the weighted rules' zeros-plus-`axpy` turn it into
    /// `+0.0`) and with weights whose f32 sum is inexact.
    #[test]
    fn running_fold_matches_aggregate_bit_for_bit() {
        let models: Vec<ParamVec> = (0..5)
            .map(|m| {
                let mut v: Vec<f32> = (0..37)
                    .map(|i| ((i * 7 + m * 13) as f32 * 0.173).sin() * 3.1)
                    .collect();
                v[0] = -0.0;
                pv(&v)
            })
            .collect();
        // 2^24 + 1 is not an f32, and 0.1 + 0.2 + 0.7 + … rounds.
        let samples = [16_777_217, 3, 5, 1, 11];
        let times = [0.1, 0.2, 0.7, 0.3, 1.9];
        let exact: f64 = times.iter().sum();
        let summed: f32 = times.iter().map(|&t| t as f32).sum();
        assert_ne!(f64::from(summed), exact, "time weights must sum inexactly");
        let contributions: Vec<Contribution<'_>> = models
            .iter()
            .zip(samples.iter().zip(&times))
            .map(|(params, (&samples, &class_mean_time))| Contribution {
                params,
                samples,
                class_mean_time,
            })
            .collect();
        let bits = |p: &ParamVec| p.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        for rule in [
            AggregationRule::Uniform,
            AggregationRule::SampleWeighted,
            AggregationRule::TimeWeighted,
        ] {
            let mut running = RunningAggregate::new(rule);
            for c in &contributions {
                running.add(Cow::Owned(c.params.clone()), c.samples, c.class_mean_time);
            }
            let folded = running.finish().expect("five contributions");
            let whole = match rule {
                AggregationRule::Uniform => ParamVec::mean(&models),
                AggregationRule::SampleWeighted => ParamVec::weighted_mean(
                    contributions.iter().map(|c| (c.samples as f32, c.params)),
                ),
                AggregationRule::TimeWeighted => ParamVec::weighted_mean(
                    contributions
                        .iter()
                        .map(|c| (c.class_mean_time as f32, c.params)),
                ),
            };
            assert_eq!(
                bits(&folded),
                bits(&whole),
                "{rule:?}: fold vs whole-set mean"
            );
            assert_eq!(
                bits(&folded),
                bits(&rule.aggregate(&contributions)),
                "{rule:?}: fold vs aggregate"
            );
            let uniform = rule == AggregationRule::Uniform;
            assert_eq!(
                folded.as_slice()[0].is_sign_negative(),
                uniform,
                "{rule:?}: sign of zero"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AggregationRule::Uniform.label(), "uniform");
        assert_eq!(AggregationRule::SampleWeighted.label(), "sample-weighted");
        assert_eq!(AggregationRule::TimeWeighted.label(), "time-weighted");
    }

    #[test]
    #[should_panic(expected = "empty contribution set")]
    fn empty_set_panics() {
        let _ = AggregationRule::Uniform.aggregate(&[]);
    }
}

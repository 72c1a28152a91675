//! Order statistics for repeated samples: median, quartiles, percentiles
//! and the spread the comparison rule is built on.

use crate::json::{num, obj, Value};

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` — the rule the driver applies
    /// to the benchmark's own runs — and collapse to the single value
    /// when there is only one sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let sorted = sorted(values);
        let (q1, q3) = if sorted.len() == 1 {
            (sorted[0], sorted[0])
        } else {
            (quartile(&sorted, 1), quartile(&sorted, 3))
        };
        Summary {
            median: percentile_sorted(&sorted, 50.0),
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    pub fn to_json(self, unit: &str) -> Value {
        obj(vec![
            ("median", num(self.median)),
            ("q1", num(self.q1)),
            ("q3", num(self.q3)),
            ("min", num(self.min)),
            ("max", num(self.max)),
            ("n", Value::U64(self.n as u64)),
            ("unit", Value::Str(unit.to_string())),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let f = |k: &str| crate::json::get_f64(v, k);
        Some(Summary {
            median: f("median")?,
            q1: f("q1")?,
            q3: f("q3")?,
            min: f("min")?,
            max: f("max")?,
            n: f("n")? as usize,
        })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Python's exclusive-method quartile `i` of 4 over sorted data (n ≥ 2).
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Linear-interpolated percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    percentile_sorted(&sorted(values), p)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile that still has at least ten samples beyond it
/// (choosing-metrics §1); falls back to the median for short series.
pub fn tail_percentile(n: usize) -> f64 {
    // Per-mille, so "ten beyond" is exact integer arithmetic.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map_or(50.0, |pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        let s = Summary::of(&[64.0, 1.0, 16.0, 2.0, 8.0, 4.0, 32.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 8.0, 32.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 64.0, 7));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = Summary::of(&[5.0]);
        assert_eq!((s.q1, s.q3, s.iqr()), (5.0, 5.0, 0.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(21), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(840), 95.0);
        assert_eq!(tail_percentile(4900), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.5, 2.5, 9.0, 4.0]);
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
    }
}

//! Inter-device link-delay models.

use serde::{Deserialize, Serialize};

/// Communication-delay model between devices (and to the server).
///
/// The paper's Eq. 5 ring metric is `M_i = t_i + D_{i,i+1}`, but §4.1
/// immediately simplifies to equal delays (`M_i = t_i`). The constant
/// model reproduces that; the pairwise model keeps the general form
/// available for ablations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinkModel {
    /// Every transfer takes the same virtual time (the paper's setting;
    /// zero reproduces `M_i = t_i` exactly).
    Constant {
        /// Delay per model transfer, virtual seconds.
        delay: f64,
    },
    /// Symmetric per-pair delays, row-major `n × n` (diagonal ignored).
    Pairwise {
        /// Number of devices.
        n: usize,
        /// Flattened delay matrix.
        delays: Vec<f64>,
    },
    /// Size-dependent delay: `base + model_bytes / bandwidth` — used by
    /// ablations exploring when ring transfers stop being "free" relative
    /// to local training (the paper assumes they are).
    Bandwidth {
        /// Fixed per-transfer latency, virtual seconds.
        base: f64,
        /// Link bandwidth, bytes per virtual second.
        bytes_per_second: f64,
        /// Model size being transferred, bytes (4 × parameter count).
        model_bytes: f64,
    },
}

impl LinkModel {
    /// The paper's simplified setting: free transfers.
    pub fn zero() -> Self {
        LinkModel::Constant { delay: 0.0 }
    }

    /// Delay for a transfer from device `i` to device `j`.
    pub fn delay(&self, i: usize, j: usize) -> f64 {
        match self {
            LinkModel::Constant { delay } => *delay,
            LinkModel::Pairwise { n, delays } => {
                assert!(i < *n && j < *n, "device index out of range");
                if i == j {
                    0.0
                } else {
                    delays[i * n + j]
                }
            }
            LinkModel::Bandwidth {
                base,
                bytes_per_second,
                model_bytes,
            } => {
                assert!(*bytes_per_second > 0.0, "bandwidth must be positive");
                base + model_bytes / bytes_per_second
            }
        }
    }

    /// Delay for a device-to-server transfer (servers are modelled as
    /// reachable at the constant delay, or the mean pairwise delay).
    pub fn server_delay(&self) -> f64 {
        match self {
            LinkModel::Constant { delay } => *delay,
            LinkModel::Pairwise { n, delays } => {
                if *n <= 1 {
                    0.0
                } else {
                    let total: f64 = delays.iter().sum();
                    total / (n * n - n) as f64
                }
            }
            LinkModel::Bandwidth { .. } => self.delay(0, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_is_constant() {
        let m = LinkModel::Constant { delay: 0.5 };
        assert_eq!(m.delay(0, 7), 0.5);
        assert_eq!(m.delay(7, 0), 0.5);
        assert_eq!(m.server_delay(), 0.5);
    }

    #[test]
    fn zero_model_is_free() {
        assert_eq!(LinkModel::zero().delay(1, 2), 0.0);
    }

    #[test]
    fn server_delay_is_mean_of_pairs() {
        let m = LinkModel::Pairwise {
            n: 2,
            delays: vec![0.0, 3.0, 3.0, 0.0],
        };
        assert!((m.server_delay() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_panics() {
        let m = LinkModel::Pairwise {
            n: 2,
            delays: vec![0.0; 4],
        };
        let _ = m.delay(0, 5);
    }

    #[test]
    fn bandwidth_delay_scales_with_model_size() {
        let small = LinkModel::Bandwidth {
            base: 0.1,
            bytes_per_second: 1000.0,
            model_bytes: 100.0,
        };
        let large = LinkModel::Bandwidth {
            base: 0.1,
            bytes_per_second: 1000.0,
            model_bytes: 10_000.0,
        };
        assert!((small.delay(0, 1) - 0.2).abs() < 1e-12);
        assert!((large.delay(0, 1) - 10.1).abs() < 1e-12);
        assert_eq!(large.server_delay(), large.delay(3, 7));
    }
}

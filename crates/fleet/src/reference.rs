//! The dense reference realisation — the executable specification the
//! lazy sharded [`FleetModel`](crate::FleetModel) is proven against.
//!
//! This is the pre-lazy implementation: every round materialises full
//! `online`/`fail_frac` vectors for **all** devices, and the round's
//! fleet-wide `multiplier` from its own dense modulator walk, behind one
//! `RwLock`, advancing the whole fleet together. It is O(fleet) per round
//! and exists only so the workspace's equivalence proptests can assert,
//! value for value, that lazy per-device realisation reproduces the dense
//! trace bit-for-bit under any query order. Production code should always
//! use [`FleetModel`](crate::FleetModel).

use std::sync::RwLock;

use fedhisyn_simnet::{seed_mix, unit};

use crate::dynamics::{AvailabilityModel, FleetDynamics};
use crate::model::{pick, ROLE_AVAIL, ROLE_FAIL, ROLE_FAIL_TIME, ROLE_MODULATOR};

/// One densely-realised round.
#[derive(Debug, Clone, PartialEq)]
struct DenseRound {
    online: Vec<bool>,
    fail_frac: Vec<Option<f64>>,
    multiplier: f64,
    modulator_state: usize,
}

/// The dense, whole-fleet-per-round reference realisation.
#[derive(Debug)]
pub struct ReferenceFleet {
    n: usize,
    dynamics: FleetDynamics,
    seed: u64,
    is_static: bool,
    trace: RwLock<Vec<DenseRound>>,
}

impl ReferenceFleet {
    /// Build for a fleet of `n` devices (base latencies are irrelevant to
    /// the trajectory itself).
    pub fn new(n: usize, dynamics: FleetDynamics, seed: u64) -> Self {
        dynamics.validate();
        let is_static = dynamics.is_static();
        ReferenceFleet {
            n,
            dynamics,
            seed,
            is_static,
            trace: RwLock::new(Vec::new()),
        }
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the fleet has no devices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The fleet-wide latency multiplier at `round`.
    pub fn multiplier(&self, round: usize) -> f64 {
        if self.is_static {
            return 1.0;
        }
        self.with_round(round, |r| r.multiplier)
    }

    /// Whether `device` is reachable at the start of `round`.
    pub fn online(&self, device: usize, round: usize) -> bool {
        if self.is_static {
            return true;
        }
        self.with_round(round, |r| r.online[device])
    }

    /// Mid-interval failure fraction of `device` in `round`.
    pub fn fail_frac(&self, device: usize, round: usize) -> Option<f64> {
        if self.is_static {
            return None;
        }
        self.with_round(round, |r| r.fail_frac[device])
    }

    fn with_round<R>(&self, round: usize, f: impl FnOnce(&DenseRound) -> R) -> R {
        {
            let trace = self.trace.read().expect("reference trace poisoned");
            if round < trace.len() {
                return f(&trace[round]);
            }
        }
        let mut trace = self.trace.write().expect("reference trace poisoned");
        while trace.len() <= round {
            let next = self.advance(trace.last(), trace.len());
            trace.push(next);
        }
        f(&trace[round])
    }

    /// Realise round `round` from the previous round's state vectors —
    /// the whole fleet at once.
    fn advance(&self, prev: Option<&DenseRound>, round: usize) -> DenseRound {
        let n = self.n;
        let r = round as u64;

        // Fleet-wide modulator chain: one transition per round.
        let (modulator_state, multiplier) = match &self.dynamics.modulator {
            None => (0, 1.0),
            Some(chain) => {
                let u = unit(seed_mix(self.seed, r, u64::MAX, ROLE_MODULATOR));
                let state = match prev {
                    None => pick(&chain.initial, u),
                    Some(p) => {
                        let k = chain.states();
                        pick(
                            &chain.transitions[p.modulator_state * k..(p.modulator_state + 1) * k],
                            u,
                        )
                    }
                };
                (state, chain.multipliers[state])
            }
        };

        let mut online = Vec::with_capacity(n);
        let mut fail_frac = Vec::with_capacity(n);

        for d in 0..n {
            let du = d as u64;

            // Availability chain.
            let on = match self.dynamics.availability {
                AvailabilityModel::AlwaysOn => true,
                AvailabilityModel::Churn { dropout, rejoin } => {
                    let was_on = match prev {
                        None => true,
                        Some(p) => p.online[d] && p.fail_frac[d].is_none(),
                    };
                    let u = unit(seed_mix(self.seed, r, du, ROLE_AVAIL));
                    if was_on {
                        u >= dropout
                    } else {
                        u < rejoin
                    }
                }
            };

            // Mid-interval failure (only meaningful for online devices).
            let fail = if on
                && self.dynamics.mid_round_failure > 0.0
                && unit(seed_mix(self.seed, r, du, ROLE_FAIL)) < self.dynamics.mid_round_failure
            {
                Some(unit(seed_mix(self.seed, r, du, ROLE_FAIL_TIME)))
            } else {
                None
            };

            online.push(on);
            fail_frac.push(fail);
        }

        DenseRound {
            online,
            fail_frac,
            multiplier,
            modulator_state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetModel;

    fn profiles(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + i as f64 * 0.5).collect()
    }

    #[test]
    fn reference_matches_lazy_under_churn_and_failures() {
        let mut dynamics = FleetDynamics::churn(0.25);
        dynamics.mid_round_failure = 0.15;
        let lazy = FleetModel::new(&profiles(25), dynamics.clone(), 77);
        let dense = ReferenceFleet::new(25, dynamics, 77);
        for r in 0..10 {
            assert_eq!(
                lazy.multiplier(r).to_bits(),
                dense.multiplier(r).to_bits(),
                "multiplier @{r}"
            );
            for d in 0..25 {
                assert_eq!(lazy.online(d, r), dense.online(d, r), "online {d}@{r}");
                assert_eq!(
                    lazy.fail_frac(d, r).map(f64::to_bits),
                    dense.fail_frac(d, r).map(f64::to_bits),
                    "fail_frac {d}@{r}"
                );
            }
        }
    }

    #[test]
    fn reference_matches_lazy_under_the_shared_modulator() {
        let dynamics = FleetDynamics::planet_scale(0.2);
        let lazy = FleetModel::new(&profiles(12), dynamics.clone(), 5);
        let dense = ReferenceFleet::new(12, dynamics, 5);
        for r in 0..20 {
            assert_eq!(
                lazy.multiplier(r).to_bits(),
                dense.multiplier(r).to_bits(),
                "multiplier @{r}"
            );
            for d in 0..12 {
                assert_eq!(lazy.online(d, r), dense.online(d, r));
                assert_eq!(
                    lazy.fail_frac(d, r).map(f64::to_bits),
                    dense.fail_frac(d, r).map(f64::to_bits)
                );
            }
        }
    }
}

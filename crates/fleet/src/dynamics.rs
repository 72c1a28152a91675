//! Configuration of the fleet-dynamics processes.
//!
//! Everything here is *declarative*: the structs describe stochastic
//! processes (dropout / rejoin churn, mid-round failures and the
//! fleet-wide Markov modulator) whose realisations are produced by
//! [`crate::FleetModel`] purely from the experiment seed. The same
//! config + seed always yields the same fleet trajectory, bit for bit.

use serde::{Deserialize, Serialize};

/// A Markov chain over latency multipliers. It drives the fleet-wide
/// modulator ([`FleetDynamics::modulator`]): one walk for the whole
/// fleet, whose state scales every device's latency in that round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModulatorChain {
    /// Latency multiplier of each state (state 0 is conventionally the
    /// baseline, multiplier 1.0). All must be positive.
    pub multipliers: Vec<f64>,
    /// Row-major `K × K` transition matrix applied once per round; each
    /// row must sum to ~1.
    pub transitions: Vec<f64>,
    /// Initial state distribution (length `K`, sums to ~1).
    pub initial: Vec<f64>,
}

impl ModulatorChain {
    /// A single-state chain with multiplier 1.0 — dynamically *active*
    /// but numerically the identity. Used by equivalence tests to prove
    /// the dynamic code path reproduces the static one bit-for-bit.
    pub fn identity() -> Self {
        ModulatorChain {
            multipliers: vec![1.0],
            transitions: vec![1.0],
            initial: vec![1.0],
        }
    }

    /// A fleet-wide diurnal/burst chain for the shared modulator: the
    /// fleet is mostly off-peak (1.0), drifts into peak hours where
    /// every device is 1.8× slower, and occasionally hits a partition
    /// burst (a backbone or regional outage echo) at 4×. One chain
    /// serves the whole fleet, so correlated slowdowns cost O(1) state
    /// per round regardless of fleet size.
    pub fn diurnal_burst() -> Self {
        ModulatorChain {
            multipliers: vec![1.0, 1.8, 4.0],
            transitions: vec![
                0.90, 0.09, 0.01, // off-peak → …
                0.15, 0.82, 0.03, // peak → …
                0.30, 0.30, 0.40, // burst → …
            ],
            initial: vec![0.85, 0.14, 0.01],
        }
    }

    /// Number of states `K`.
    pub(crate) fn states(&self) -> usize {
        self.multipliers.len()
    }

    /// Panics unless the chain is well-formed.
    pub fn validate(&self) {
        let k = self.states();
        assert!(k > 0, "capacity chain needs at least one state");
        // Realised states are memoized as one byte per round.
        assert!(k <= 256, "capacity chains support at most 256 states");
        assert_eq!(
            self.transitions.len(),
            k * k,
            "transition matrix must be K×K"
        );
        assert_eq!(
            self.initial.len(),
            k,
            "initial distribution must have K entries"
        );
        assert!(
            self.multipliers.iter().all(|&m| m.is_finite() && m > 0.0),
            "state multipliers must be positive"
        );
        for row in self.transitions.chunks(k) {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6 && row.iter().all(|&p| p >= 0.0),
                "each transition row must be a distribution, got {row:?}"
            );
        }
        let init_sum: f64 = self.initial.iter().sum();
        assert!(
            (init_sum - 1.0).abs() < 1e-6 && self.initial.iter().all(|&p| p >= 0.0),
            "initial state weights must be a distribution"
        );
    }
}

/// Whether devices come and go between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AvailabilityModel {
    /// Every device is reachable every round (the paper's setting).
    #[default]
    AlwaysOn,
    /// Two-state churn chain: an online device drops out with probability
    /// `dropout` per round; an offline device rejoins with probability
    /// `rejoin`. The chain starts from an all-online fleet, with the
    /// first transition applied at round 0 — so even the first round may
    /// see dropouts.
    Churn {
        /// Per-round P(online → offline).
        dropout: f64,
        /// Per-round P(offline → online).
        rejoin: f64,
    },
}

impl AvailabilityModel {
    fn validate(&self) {
        if let AvailabilityModel::Churn { dropout, rejoin } = self {
            assert!(
                (0.0..=1.0).contains(dropout) && (0.0..=1.0).contains(rejoin),
                "churn probabilities must be in [0, 1]"
            );
        }
    }
}

/// The full fleet-dynamics specification. [`FleetDynamics::default`] is
/// the static fleet: the runtime takes a zero-cost fast path that is
/// bit-identical to the pre-dynamics code. (Note: configs serialized
/// before the `fleet` field existed need the field added before they
/// deserialize — the offline serde shim does not support field
/// defaulting.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FleetDynamics {
    /// Round-level dropout / rejoin churn.
    pub availability: AvailabilityModel,
    /// Per-round probability that an *online* device fails mid-interval
    /// (crashes while relaying inside a ring, or before uploading).
    pub mid_round_failure: f64,
    /// Fleet-wide *shared* capacity modulator: one Markov chain whose
    /// per-round multiplier scales **every** device's effective latency
    /// (diurnal load, regional partition bursts). It costs O(1) state per
    /// round regardless of fleet size — the correlated half of the churn
    /// model. `None` (the default) is the exact identity: no multiply is
    /// applied, so modulator-free trajectories keep their base latencies
    /// bit for bit.
    pub modulator: Option<ModulatorChain>,
}

impl FleetDynamics {
    /// True when every process is degenerate — the runtime then skips the
    /// trace machinery entirely, guaranteeing the static fast path.
    pub fn is_static(&self) -> bool {
        self.availability == AvailabilityModel::AlwaysOn
            && self.mid_round_failure == 0.0
            && self.modulator.is_none()
    }

    /// Pure churn at the given per-round dropout rate — the knob the
    /// `ext_churn` artefact sweeps. Rejoin is `max(rate, 0.25)`: floored so that
    /// low-dropout fleets recover devices within a few rounds (steady-
    /// state offline fraction `rate / (rate + rejoin)` stays below 50%),
    /// and symmetric (`rejoin == dropout`) once `rate >= 0.25`.
    pub fn churn(rate: f64) -> Self {
        FleetDynamics {
            availability: AvailabilityModel::Churn {
                dropout: rate,
                rejoin: rate.max(0.25),
            },
            ..FleetDynamics::default()
        }
    }

    /// The million-device testbed preset: pure per-device churn plus the
    /// fleet-wide diurnal/burst modulator — the regime where lazy O(cohort)
    /// realisation matters and correlated slowdowns stay O(1) per round.
    pub fn planet_scale(dropout: f64) -> Self {
        FleetDynamics {
            availability: AvailabilityModel::Churn {
                dropout,
                rejoin: dropout.max(0.25),
            },
            mid_round_failure: 0.02,
            modulator: Some(ModulatorChain::diurnal_burst()),
        }
    }

    /// Panics unless every sub-model is well-formed.
    pub fn validate(&self) {
        if let Some(chain) = &self.modulator {
            chain.validate();
        }
        self.availability.validate();
        assert!(
            (0.0..=1.0).contains(&self.mid_round_failure),
            "mid_round_failure must be in [0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_static() {
        assert!(FleetDynamics::default().is_static());
        FleetDynamics::default().validate();
    }

    #[test]
    fn presets_are_dynamic_and_valid() {
        for d in [FleetDynamics::churn(0.1), FleetDynamics::planet_scale(0.1)] {
            assert!(!d.is_static());
            d.validate();
        }
    }

    #[test]
    fn modulator_alone_activates_dynamics() {
        let d = FleetDynamics {
            modulator: Some(ModulatorChain::diurnal_burst()),
            ..FleetDynamics::default()
        };
        assert!(!d.is_static());
        d.validate();
        ModulatorChain::diurnal_burst().validate();
    }

    #[test]
    fn identity_chain_is_active_but_neutral() {
        let d = FleetDynamics {
            modulator: Some(ModulatorChain::identity()),
            ..FleetDynamics::default()
        };
        // Active (exercises the dynamic path) …
        assert!(!d.is_static());
        // … and valid.
        d.validate();
    }

    #[test]
    #[should_panic(expected = "distribution")]
    fn bad_transition_row_panics() {
        let mut chain = ModulatorChain::identity();
        chain.transitions = vec![0.5];
        chain.validate();
    }

    #[test]
    fn serde_round_trip() {
        let mut d = FleetDynamics::planet_scale(0.2);
        d.mid_round_failure = 0.1;
        let json = serde_json::to_string(&d).unwrap();
        let back: FleetDynamics = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}

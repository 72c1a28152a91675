//! Deterministic per-edge frame loss for the relay transport.
//!
//! Real federated deployments lose frames on the wire; the simulator
//! reproduces that as a **pure function of the experiment seed**, exactly
//! like the fleet-dynamics trajectories: [`FaultPlan::fault`] derives
//! whether one physical transmission attempt is lost from
//! `(seed, round, src, dst, attempt)` through a SplitMix64 finalizer,
//! with no mutable RNG state anywhere. The same plan therefore replays
//! bit-identically across runs and thread interleavings, and
//! [`FaultPlan::none`] short-circuits to "every frame arrives" — the
//! pre-fault code path, bit for bit.
//!
//! A lost frame is answered by one fixed policy: the sender backs off
//! for [`backoff`]`(attempt)` virtual seconds and retransmits, up to
//! [`MAX_RETRIES`] times, then gives the transfer up.

use serde::{Deserialize, Serialize};

use crate::seed::{seed_mix, unit};

/// Retransmissions allowed after the initial attempt; the sender gives
/// up once `1 + MAX_RETRIES` attempts have been lost.
pub const MAX_RETRIES: u32 = 3;
/// First backoff delay, in virtual seconds.
const BACKOFF_BASE: f64 = 0.05;
/// Multiplier applied to the backoff per lost attempt (bounded
/// exponential backoff).
const BACKOFF_FACTOR: f64 = 2.0;
/// Ceiling on a single backoff delay, in virtual seconds.
const BACKOFF_CAP: f64 = 1.0;

/// Backoff delay before retransmission number `attempt` (0-based):
/// `min(BACKOFF_BASE · BACKOFF_FACTOR^attempt, BACKOFF_CAP)`.
pub fn backoff(attempt: u32) -> f64 {
    (BACKOFF_BASE * BACKOFF_FACTOR.powi(attempt.min(64) as i32)).min(BACKOFF_CAP)
}

/// Declarative per-edge loss process. The probability is per *physical
/// attempt*, independent across attempts (each attempt gets its own pure
/// draw).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability an attempt is lost.
    pub loss: f64,
}

impl FaultConfig {
    /// The fault-free wire: every frame arrives.
    pub fn none() -> Self {
        FaultConfig::lossy(0.0)
    }

    /// A lossy wire: frames vanish with probability `loss`.
    pub fn lossy(loss: f64) -> Self {
        FaultConfig { loss }
    }

    /// Panic unless the loss probability lies in `[0, 1]`.
    pub fn validate(&self) {
        let p = self.loss;
        assert!(
            (0.0..=1.0).contains(&p),
            "fault probability `loss` must be in [0, 1], got {p}"
        );
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// A sealed per-edge loss schedule: config + seed, queried as a pure
/// function. Cloning is cheap and clones share the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Seal `cfg` under `seed`. Validates the config.
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        cfg.validate();
        FaultPlan { seed, cfg }
    }

    /// The fault-free plan: every query answers "delivered" and
    /// [`FaultPlan::is_none`] lets transports skip the machinery
    /// entirely, keeping the fault-free round bit-identical (and
    /// allocation-identical) to a build without fault injection.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            cfg: FaultConfig::none(),
        }
    }

    /// True when this plan can never lose a frame — it degenerates to the
    /// exact fault-free transport.
    pub fn is_none(&self) -> bool {
        self.cfg.loss == 0.0
    }

    /// Whether physical attempt number `attempt` on edge `src → dst`
    /// during `round` is lost — a pure function of the plan's seed and
    /// the four coordinates, so any schedule replays bit-identically
    /// regardless of which thread asks, in what order, or how often.
    pub fn fault(&self, round: u64, src: u64, dst: u64, attempt: u64) -> bool {
        if self.is_none() {
            return false;
        }
        let u = unit(seed_mix(
            seed_mix(self.seed, round, src, dst),
            attempt,
            0x7A17,
            0x0F1A,
        ));
        u < self.cfg.loss
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_always_delivers() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for round in 0..4 {
            for attempt in 0..4 {
                assert!(!plan.fault(round, 1, 2, attempt));
            }
        }
    }

    #[test]
    fn draws_are_pure_functions_of_the_coordinates() {
        let plan = FaultPlan::new(99, FaultConfig::lossy(0.1));
        for round in 0..8u64 {
            for (src, dst) in [(0u64, 1u64), (5, 3), (1000, 1001)] {
                for attempt in 0..5u64 {
                    let a = plan.fault(round, src, dst, attempt);
                    let b = plan.fault(round, src, dst, attempt);
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn loss_rate_matches_the_configured_probability() {
        let plan = FaultPlan::new(7, FaultConfig::lossy(0.25));
        let n = 20_000;
        let lost = (0..n as u64)
            .filter(|&i| plan.fault(0, i % 97, i % 89, i))
            .count();
        let rate = lost as f64 / n as f64;
        assert!(
            (0.22..0.28).contains(&rate),
            "empirical loss rate {rate} far from 0.25"
        );
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1, FaultConfig::lossy(0.5));
        let b = FaultPlan::new(2, FaultConfig::lossy(0.5));
        let diverges = (0..256u64).any(|i| a.fault(0, 0, 1, i) != b.fault(0, 0, 1, i));
        assert!(diverges, "seeds must decorrelate schedules");
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        assert_eq!(backoff(0), 0.05);
        assert_eq!(backoff(1), 0.1);
        assert_eq!(backoff(2), 0.2);
        assert_eq!(backoff(MAX_RETRIES - 1), 0.2, "the last retry's wait");
        assert_eq!(backoff(5), 1.0, "capped");
        assert_eq!(backoff(60), 1.0, "stays capped far out");
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probability_panics() {
        FaultPlan::new(0, FaultConfig::lossy(1.5));
    }
}

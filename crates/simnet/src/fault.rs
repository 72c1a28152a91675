//! Deterministic per-edge fault injection for the relay transport.
//!
//! Real federated deployments lose, corrupt, delay and duplicate frames
//! on the wire; the simulator reproduces those conditions as a **pure
//! function of the experiment seed**, exactly like the fleet-dynamics
//! trajectories: [`FaultPlan::fault`] derives the outcome of one physical
//! transmission attempt from `(seed, round, src, dst, attempt)` through a
//! SplitMix64 finalizer, with no mutable RNG state anywhere. The same
//! plan therefore replays bit-identically across runs and thread
//! interleavings, and [`FaultPlan::none`] short-circuits to
//! "every frame arrives intact, exactly once" — the pre-fault code path,
//! bit for bit.

use serde::{Deserialize, Serialize};

use crate::seed::{seed_mix, unit};

/// Outcome of one physical transmission attempt on one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The frame arrives intact, exactly once.
    Delivered,
    /// The frame vanishes on the wire; the sender retransmits after its
    /// retry timeout.
    Lost,
    /// The frame arrives with flipped payload bits; the receiver's frame
    /// checksum rejects it and the sender retransmits.
    Corrupted,
    /// The link stalls past the sender's timeout; the frame is treated
    /// as lost after an extra [`FaultConfig::timeout_delay`] of waiting.
    TimedOut,
    /// The frame arrives intact — twice. The duplicate is harmless under
    /// the newest-wins inbox but still costs wire bytes.
    Duplicated,
}

/// Declarative per-edge fault process plus the retry/backoff policy that
/// answers it. Probabilities are per *physical attempt*, independent
/// across attempts (each attempt gets its own pure draw).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability an attempt is lost outright.
    pub loss: f64,
    /// Probability an attempt arrives bit-corrupted (detected by the
    /// frame checksum, never trained on).
    pub corrupt: f64,
    /// Probability an attempt times out.
    pub timeout: f64,
    /// Probability an attempt is delivered twice.
    pub duplicate: f64,
    /// Extra virtual seconds a timed-out attempt wastes before the
    /// sender gives up waiting (on top of the backoff).
    pub timeout_delay: f64,
    /// Retransmissions allowed after the initial attempt; the sender
    /// gives up once `1 + max_retries` attempts have failed.
    pub max_retries: u32,
    /// First backoff delay, in virtual seconds.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff per failed attempt (bounded
    /// exponential backoff).
    pub backoff_factor: f64,
    /// Ceiling on a single backoff delay, in virtual seconds.
    pub backoff_cap: f64,
}

impl FaultConfig {
    /// The fault-free wire: every probability zero, retry policy idle.
    pub fn none() -> Self {
        FaultConfig {
            loss: 0.0,
            corrupt: 0.0,
            timeout: 0.0,
            duplicate: 0.0,
            timeout_delay: 0.5,
            max_retries: 3,
            backoff_base: 0.05,
            backoff_factor: 2.0,
            backoff_cap: 1.0,
        }
    }

    /// A plain lossy wire: frames vanish with probability `loss`,
    /// everything else intact.
    pub fn lossy(loss: f64) -> Self {
        FaultConfig {
            loss,
            ..FaultConfig::none()
        }
    }

    /// The canonical edge-wireless profile: occasional loss, rare
    /// corruption and timeouts, the odd duplicate — roughly what a flaky
    /// last-mile radio link looks like to a transport layer.
    pub fn edge_wireless() -> Self {
        FaultConfig {
            loss: 0.05,
            corrupt: 0.01,
            timeout: 0.02,
            duplicate: 0.01,
            ..FaultConfig::none()
        }
    }

    /// True when every fault probability is zero — the plan degenerates
    /// to the exact fault-free transport.
    pub fn is_none(&self) -> bool {
        self.loss == 0.0 && self.corrupt == 0.0 && self.timeout == 0.0 && self.duplicate == 0.0
    }

    /// Backoff delay before retransmission number `attempt` (0-based):
    /// `min(base · factor^attempt, cap)`.
    pub fn backoff(&self, attempt: u32) -> f64 {
        (self.backoff_base * self.backoff_factor.powi(attempt.min(64) as i32)).min(self.backoff_cap)
    }

    /// Panic on malformed parameters (probabilities outside `[0, 1]` or
    /// summing past 1, non-finite delays, a shrinking backoff).
    pub fn validate(&self) {
        for (name, p) in [
            ("loss", self.loss),
            ("corrupt", self.corrupt),
            ("timeout", self.timeout),
            ("duplicate", self.duplicate),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability `{name}` must be in [0, 1], got {p}"
            );
        }
        assert!(
            self.loss + self.corrupt + self.timeout + self.duplicate <= 1.0 + 1e-12,
            "fault probabilities must sum to at most 1"
        );
        assert!(
            self.timeout_delay.is_finite() && self.timeout_delay >= 0.0,
            "timeout_delay must be finite and non-negative"
        );
        assert!(
            self.backoff_base.is_finite() && self.backoff_base >= 0.0,
            "backoff_base must be finite and non-negative"
        );
        assert!(
            self.backoff_factor.is_finite() && self.backoff_factor >= 1.0,
            "backoff_factor must be >= 1 (non-shrinking backoff)"
        );
        assert!(
            self.backoff_cap.is_finite() && self.backoff_cap >= self.backoff_base,
            "backoff_cap must be finite and at least backoff_base"
        );
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// A sealed per-edge fault schedule: config + seed, queried as a pure
/// function. Cloning is cheap and clones share the schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// The fault-free plan: every query answers [`FaultKind::Delivered`]
    /// and [`FaultPlan::is_none`] lets transports skip the machinery
    /// entirely, keeping the fault-free round bit-identical (and
    /// allocation-identical) to a build without fault injection.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            cfg: FaultConfig::none(),
        }
    }

    /// True when this plan can never produce a fault.
    pub fn is_none(&self) -> bool {
        self.cfg.is_none()
    }

    /// The retry/backoff policy.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Outcome of physical attempt number `attempt` on edge `src → dst`
    /// during `round` — a pure function of the plan's seed and the four
    /// coordinates, so any schedule replays bit-identically regardless
    /// of which thread asks, in what order, or how often.
    pub fn fault(&self, round: u64, src: u64, dst: u64, attempt: u64) -> FaultKind {
        if self.is_none() {
            return FaultKind::Delivered;
        }
        let u = unit(seed_mix(
            seed_mix(self.seed, round, src, dst),
            attempt,
            0x7A17,
            0x0F1A,
        ));
        let c = &self.cfg;
        let mut edge = c.loss;
        if u < edge {
            return FaultKind::Lost;
        }
        edge += c.corrupt;
        if u < edge {
            return FaultKind::Corrupted;
        }
        edge += c.timeout;
        if u < edge {
            return FaultKind::TimedOut;
        }
        edge += c.duplicate;
        if u < edge {
            return FaultKind::Duplicated;
        }
        FaultKind::Delivered
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
                assert_eq!(plan.fault(round, 1, 2, attempt), FaultKind::Delivered);
            }
        }
    }

    #[test]
    fn draws_are_pure_functions_of_the_coordinates() {
        let plan = FaultPlan::new(99, FaultConfig::edge_wireless());
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
        let mut lost = 0usize;
        let n = 20_000;
        for i in 0..n as u64 {
            if plan.fault(0, i % 97, i % 89, i) == FaultKind::Lost {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!(
            (0.22..0.28).contains(&rate),
            "empirical loss rate {rate} far from 0.25"
        );
    }

    #[test]
    fn all_fault_kinds_are_reachable() {
        let plan = FaultPlan::new(3, FaultConfig::edge_wireless());
        let mut seen = std::collections::HashSet::new();
        for i in 0..50_000u64 {
            seen.insert(plan.fault(i % 11, i % 7, i % 5, i));
        }
        for kind in [
            FaultKind::Delivered,
            FaultKind::Lost,
            FaultKind::Corrupted,
            FaultKind::TimedOut,
            FaultKind::Duplicated,
        ] {
            assert!(seen.contains(&kind), "{kind:?} never drawn");
        }
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
        let c = FaultConfig {
            backoff_base: 0.1,
            backoff_factor: 2.0,
            backoff_cap: 0.5,
            ..FaultConfig::none()
        };
        assert_eq!(c.backoff(0), 0.1);
        assert_eq!(c.backoff(1), 0.2);
        assert_eq!(c.backoff(2), 0.4);
        assert_eq!(c.backoff(3), 0.5, "capped");
        assert_eq!(c.backoff(60), 0.5, "stays capped far out");
    }

    #[test]
    fn schedule_is_identical_across_thread_interleavings() {
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::new(42, FaultConfig::edge_wireless()));
        let reference: Vec<FaultKind> = (0..4096u64)
            .map(|i| plan.fault(i % 13, i % 17, i % 19, i))
            .collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let plan = Arc::clone(&plan);
                let reference = reference.clone();
                std::thread::spawn(move || {
                    for (i, want) in reference.iter().enumerate() {
                        let i = i as u64;
                        assert_eq!(plan.fault(i % 13, i % 17, i % 19, i), *want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probability_panics() {
        FaultPlan::new(0, FaultConfig::lossy(1.5));
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn oversubscribed_probabilities_panic() {
        FaultPlan::new(
            0,
            FaultConfig {
                loss: 0.6,
                corrupt: 0.6,
                ..FaultConfig::none()
            },
        );
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::new(5, FaultConfig::edge_wireless());
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}

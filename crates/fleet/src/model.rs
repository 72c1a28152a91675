//! The realised fleet trajectory: deterministic, lazy, seed-driven.
//!
//! Per-round cost is **O(devices queried)**, not O(fleet): each device's
//! availability chain is realised independently and on demand, and what
//! is kept per realised device is one cursor — the last round its chain
//! was advanced to and whether it was online there — in sharded
//! per-device maps. A million-device fleet where only a 10-device cohort
//! is queried per round costs ten cursors, however many rounds have run;
//! every other device costs zero bytes and zero hashes. Latency needs no
//! cursor: it is the base profile times the fleet-wide modulator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use fedhisyn_simnet::{seed_mix, unit, ProfileSource};

use crate::dynamics::{AvailabilityModel, FleetDynamics, MarkovCapacity};

/// Roles keeping the per-(round, device) random streams independent.
pub(crate) const ROLE_AVAIL: u64 = 0xA1A1_B111;
pub(crate) const ROLE_FAIL: u64 = 0x00FA_110F;
pub(crate) const ROLE_FAIL_TIME: u64 = 0xFA11_71ED;
/// The fleet-wide modulator chain draws from its own stream; the device
/// slot is pinned to `u64::MAX` (no real device) so it can never collide
/// with a per-device role.
pub(crate) const ROLE_MODULATOR: u64 = 0x00D1_0DA7;

/// Sample an index from a discrete distribution by inverse CDF.
pub(crate) fn pick(weights: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return i;
        }
    }
    weights.len() - 1
}

/// One realised device: the latest round its availability chain has
/// been advanced to and whether it was online at the start of that
/// round. Earlier rounds are not kept — the chain is a pure function of
/// `(seed, device, round)`, so a query behind the cursor replays from
/// round 0. Everything else (the mid-round failure and its fraction) is
/// memoryless and recomputed from hashes.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    round: usize,
    online: bool,
}

/// One shard of the fleet's lazy per-device state.
#[derive(Debug, Default)]
struct Shard {
    /// Cursors keyed by device id.
    slots: Mutex<HashMap<u64, Cursor>>,
    /// Queries routed to this shard (diagnostics: the O(cohort) tripwire).
    touched: AtomicU64,
}

/// The fleet's realised trajectory over rounds.
///
/// # Determinism contract
///
/// Device `d`'s conditions at round `r` are a **pure function of
/// `(seed, dynamics, d, r)`**: every random decision hashes
/// `(seed, round, device, role)` through the same SplitMix64 mix the rest
/// of the stack uses, and each device's availability chain advances
/// strictly round-by-round from *its own* hash stream — device chains
/// never read each other, which is what makes per-device lazy
/// realisation bit-identical to realising the whole fleet densely. The
/// invariants, asserted by the workspace's equivalence proptests:
///
/// * **Query-order independence** — asking for `(d, r)` in any order,
///   from any number of threads, yields identical values. The per-device
///   cursor (64-way sharded) is the one piece of state that depends on
///   the order of queries; it decides only how many chain steps an
///   answer costs, never the answer.
/// * **O(queried) realisation** — a device that is never queried costs
///   zero bytes and zero hash evaluations; realised state is one cursor
///   per device queried, independent of fleet size and of how many
///   rounds have run.
/// * **Forward queries are the cheap ones** — a query at or past a
///   device's cursor advances it (one chain step per round crossed, none
///   when the round repeats), which is the only kind the runner, the
///   algorithms and the ring relay make. A query for an earlier round
///   replays the chain from round 0 into a local and leaves the cursor
///   where it was.
/// * **Static fast path** — [`FleetDynamics::is_static`] short-circuits
///   every query with no shard traffic, keeping default experiments
///   bit-identical to the pre-dynamics code.
/// * **Carried state is minimal** — only `online` at the cursor's round
///   is stored beside the round index; failures are memoryless and
///   recomputed from hashes, bit-identically, on every read.
///
/// The latency multiplier is fleet-wide: the shared modulator chain
/// ([`FleetDynamics::modulator`]) realises one state per round for the
/// *whole* fleet (O(1) memoized), so a latency query never touches a
/// shard. `None` (the default) applies multiplier 1.0.
#[derive(Debug)]
pub struct FleetModel {
    profiles: ProfileSource,
    dynamics: FleetDynamics,
    seed: u64,
    is_static: bool,
    shards: Vec<Shard>,
    /// Memoized fleet-wide modulator states (one byte per round).
    modulator_memo: RwLock<Vec<u8>>,
}

impl FleetModel {
    /// Number of trajectory shards (queries hash by `device % SHARD_COUNT`).
    const SHARD_COUNT: usize = 64;

    /// Build from the fleet's sampled base latencies (virtual seconds per
    /// local step, each positive and finite), served densely.
    pub fn new(latencies: &[f64], dynamics: FleetDynamics, seed: u64) -> Self {
        assert!(
            latencies.iter().all(|t| t.is_finite() && *t > 0.0),
            "train_time must be positive"
        );
        let profiles = ProfileSource::Dense(latencies.to_vec());
        FleetModel::with_source(profiles, dynamics, seed)
    }

    /// Build over any profile source — in particular a lazy one, so a
    /// million-device fleet costs no per-device memory up front.
    pub fn with_source(profiles: ProfileSource, dynamics: FleetDynamics, seed: u64) -> Self {
        dynamics.validate();
        let is_static = dynamics.is_static();
        FleetModel {
            profiles,
            dynamics,
            seed,
            is_static,
            shards: (0..FleetModel::SHARD_COUNT)
                .map(|_| Shard::default())
                .collect(),
            modulator_memo: RwLock::new(Vec::new()),
        }
    }

    /// A static fleet over `latencies` (the default in every test env).
    pub fn static_fleet(latencies: &[f64]) -> Self {
        FleetModel::new(latencies, FleetDynamics::default(), 0)
    }

    /// True when the model is the degenerate static fleet.
    pub fn is_static(&self) -> bool {
        self.is_static
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when the fleet has no devices.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Base (multiplier-1.0) latency of `device`.
    pub fn base_latency(&self, device: usize) -> f64 {
        self.profiles.train_time(device)
    }

    /// The fleet-wide latency multiplier at `round` (1.0 without a
    /// modulator). O(1) amortised: one byte of memoized chain state per
    /// round, shared by the whole fleet.
    pub fn multiplier(&self, round: usize) -> f64 {
        match &self.dynamics.modulator {
            None => 1.0,
            Some(chain) => chain.multipliers[self.modulator_state(chain, round) as usize],
        }
    }

    /// Whether `device` is reachable at the start of `round`.
    pub fn online(&self, device: usize, round: usize) -> bool {
        if self.is_static {
            return true;
        }
        self.device_online(device, round)
    }

    /// Mid-interval failure point of `device` in `round`, as a fraction
    /// of the round interval. `None` = the device survives the round.
    pub fn fail_frac(&self, device: usize, round: usize) -> Option<f64> {
        if self.is_static {
            return None;
        }
        let online = self.device_online(device, round);
        self.fail_of(device, round, online)
    }

    /// Effective latency of `device` at `round`: the base profile scaled
    /// by the round's fleet-wide multiplier.
    pub fn latency(&self, device: usize, round: usize) -> f64 {
        self.profiles.train_time(device) * self.multiplier(round)
    }

    // ---- lazy realisation ------------------------------------------------

    /// Which shard holds `device`'s trajectory.
    pub fn shard_of(device: usize) -> usize {
        device % FleetModel::SHARD_COUNT
    }

    /// Per-shard query counters — the tripwire proving unqueried shards
    /// are never touched.
    pub fn shard_touches(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.touched.load(Ordering::Relaxed))
            .collect()
    }

    /// Total shard queries across the fleet — the same information as
    /// [`FleetModel::shard_touches`] folded to one number, without
    /// allocating the per-shard vector (telemetry hot path).
    pub fn shard_touch_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.touched.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of devices whose trajectories have been realised.
    pub fn realised_devices(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.slots.lock().expect("fleet shard poisoned").len())
            .sum()
    }

    /// Approximate bytes of realised trajectory state: one keyed cursor
    /// per realised device (memoryless quantities are recomputed, not
    /// stored).
    pub fn realised_state_bytes(&self) -> usize {
        self.realised_devices() * (std::mem::size_of::<u64>() + std::mem::size_of::<Cursor>())
    }

    /// Whether `device` is online at the start of `round`, from its cursor.
    ///
    /// At or past the device's cursor the cursor advances to `round` and
    /// is the answer. Behind it, the chain is replayed from round 0 into
    /// a local — same hashes, same values — and the cursor does not move.
    fn device_online(&self, device: usize, round: usize) -> bool {
        assert!(device < self.len(), "device {device} out of range");
        let shard = &self.shards[FleetModel::shard_of(device)];
        shard.touched.fetch_add(1, Ordering::Relaxed);
        let origin = || Cursor {
            round: 0,
            online: self.advance_device(device, 0, None),
        };
        {
            let mut slots = shard.slots.lock().expect("fleet shard poisoned");
            let cursor = slots.entry(device as u64).or_insert_with(origin);
            if cursor.round <= round {
                *cursor = self.walk(device, *cursor, round);
                return cursor.online;
            }
        }
        self.walk(device, origin(), round).online
    }

    /// Step `device`'s chain from `from` up to `round`.
    fn walk(&self, device: usize, from: Cursor, round: usize) -> Cursor {
        let online = (from.round + 1..=round).fold(from.online, |prev, r| {
            self.advance_device(device, r, Some(prev))
        });
        Cursor { round, online }
    }

    /// Advance `device`'s availability chain one round — the same
    /// decision sequence, hash stream and branch order as the dense
    /// reference realisation, restricted to a single device.
    ///
    /// A device that failed mid-interval last round counts as offline
    /// going into the churn transition — it has to "rejoin" like any
    /// other dropout. Under `AlwaysOn` it reboots in time for the next
    /// round.
    fn advance_device(&self, device: usize, round: usize, prev: Option<bool>) -> bool {
        match self.dynamics.availability {
            AvailabilityModel::AlwaysOn => true,
            AvailabilityModel::Churn { dropout, rejoin } => {
                let was_on = match prev {
                    None => true,
                    Some(on) => on && self.fail_of(device, round - 1, on).is_none(),
                };
                let u = unit(seed_mix(self.seed, round as u64, device as u64, ROLE_AVAIL));
                if was_on {
                    u >= dropout
                } else {
                    u < rejoin
                }
            }
        }
    }

    /// Recompute the (memoryless) mid-round failure of a device that was
    /// `online` at the start of `round`. Offline devices never fail.
    fn fail_of(&self, device: usize, round: usize, online: bool) -> Option<f64> {
        let r = round as u64;
        let du = device as u64;
        if online
            && self.dynamics.mid_round_failure > 0.0
            && unit(seed_mix(self.seed, r, du, ROLE_FAIL)) < self.dynamics.mid_round_failure
        {
            Some(unit(seed_mix(self.seed, r, du, ROLE_FAIL_TIME)))
        } else {
            None
        }
    }

    /// Memoized state of the fleet-wide modulator `chain` at `round`.
    fn modulator_state(&self, chain: &MarkovCapacity, round: usize) -> u8 {
        {
            let memo = self.modulator_memo.read().expect("modulator memo poisoned");
            if round < memo.len() {
                return memo[round];
            }
        }
        let mut memo = self
            .modulator_memo
            .write()
            .expect("modulator memo poisoned");
        while memo.len() <= round {
            let r = memo.len();
            let u = unit(seed_mix(self.seed, r as u64, u64::MAX, ROLE_MODULATOR));
            let s = if r == 0 {
                pick(&chain.initial, u)
            } else {
                let k = chain.states();
                let p = memo[r - 1] as usize;
                pick(&chain.transitions[p * k..(p + 1) * k], u)
            };
            memo.push(s as u8);
        }
        memo[round]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + i as f64 * 0.5).collect()
    }

    /// Churn, mid-round failures and the fleet-wide modulator at once.
    fn churning(dropout: f64, mid_round_failure: f64) -> FleetDynamics {
        FleetDynamics {
            mid_round_failure,
            ..FleetDynamics::planet_scale(dropout)
        }
    }

    /// Every device's `(online, latency, fail_frac)` at `round`.
    fn conditions(m: &FleetModel, round: usize) -> Vec<(bool, f64, Option<f64>)> {
        (0..m.len())
            .map(|d| {
                (
                    m.online(d, round),
                    m.latency(d, round),
                    m.fail_frac(d, round),
                )
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_latency_panics() {
        let _ = FleetModel::static_fleet(&[1.0, 0.0]);
    }

    #[test]
    fn static_fleet_is_identity() {
        let m = FleetModel::static_fleet(&profiles(4));
        assert!(m.is_static());
        for r in 0..5 {
            for d in 0..4 {
                assert_eq!(m.multiplier(r), 1.0);
                assert!(m.online(d, r));
                assert_eq!(m.fail_frac(d, r), None);
                assert_eq!(m.latency(d, r), 1.0 + d as f64 * 0.5);
            }
        }
        // The static path never touches the trajectory shards.
        assert_eq!(m.realised_devices(), 0);
        assert!(m.shard_touches().iter().all(|&t| t == 0));
    }

    #[test]
    fn identity_chain_matches_static_values() {
        let dynamic = FleetModel::new(
            &profiles(6),
            FleetDynamics {
                modulator: Some(MarkovCapacity::identity()),
                ..FleetDynamics::default()
            },
            7,
        );
        assert!(!dynamic.is_static());
        for r in 0..4 {
            for d in 0..6 {
                assert_eq!(dynamic.multiplier(r), 1.0);
                assert!(dynamic.online(d, r));
                assert_eq!(dynamic.fail_frac(d, r), None);
            }
        }
    }

    #[test]
    fn trajectory_is_deterministic_and_query_order_independent() {
        let make = || FleetModel::new(&profiles(10), churning(0.2, 0.1), 42);
        let a = make();
        let b = make();
        // Query b backwards, a forwards — identical realisations.
        let rounds = 8;
        let fwd: Vec<_> = (0..rounds).map(|r| conditions(&a, r)).collect();
        let bwd: Vec<_> = (0..rounds).rev().map(|r| conditions(&b, r)).collect();
        for (r, snap) in fwd.iter().enumerate() {
            assert_eq!(*snap, bwd[rounds - 1 - r], "round {r} diverged");
        }
        // A query behind the cursor answers as a fresh model would and
        // leaves the cursor standing: 501 is one step on from 500.
        let at_500 = conditions(&a, 500);
        assert_eq!(conditions(&a, 3), fwd[3]);
        assert_eq!(conditions(&a, 501), conditions(&make(), 501));
        assert_eq!(conditions(&a, 500), at_500);
        assert_eq!(at_500, conditions(&make(), 500));
    }

    #[test]
    fn churn_takes_devices_offline_and_back() {
        let m = FleetModel::new(&profiles(50), FleetDynamics::churn(0.3), 3);
        let mut ever_off = 0;
        let mut came_back = 0;
        for d in 0..50 {
            let mut was_off = false;
            for r in 0..20 {
                let on = m.online(d, r);
                if !on {
                    was_off = true;
                } else if was_off {
                    came_back += 1;
                    break;
                }
            }
            if was_off {
                ever_off += 1;
            }
        }
        assert!(
            ever_off > 20,
            "30% churn should hit most devices: {ever_off}"
        );
        assert!(
            came_back > 10,
            "rejoin must bring devices back: {came_back}"
        );
    }

    #[test]
    fn failures_only_strike_online_devices() {
        let m = FleetModel::new(
            &profiles(40),
            FleetDynamics {
                availability: AvailabilityModel::Churn {
                    dropout: 0.4,
                    rejoin: 0.3,
                },
                mid_round_failure: 0.3,
                ..FleetDynamics::default()
            },
            9,
        );
        let mut failures = 0;
        for r in 0..15 {
            for d in 0..40 {
                if let Some(f) = m.fail_frac(d, r) {
                    failures += 1;
                    assert!(m.online(d, r), "only online devices can fail mid-round");
                    assert!((0.0..1.0).contains(&f));
                }
            }
        }
        assert!(failures > 20, "failures should occur: {failures}");
    }

    #[test]
    fn failed_devices_count_as_offline_for_the_churn_transition() {
        // With rejoin = 0, any device that fails mid-round under churn
        // must stay offline forever after.
        let m = FleetModel::new(
            &profiles(30),
            FleetDynamics {
                availability: AvailabilityModel::Churn {
                    dropout: 0.0,
                    rejoin: 0.0,
                },
                mid_round_failure: 0.5,
                ..FleetDynamics::default()
            },
            13,
        );
        for d in 0..30 {
            let mut dead = false;
            for r in 0..10 {
                if dead {
                    assert!(!m.online(d, r), "device {d} must stay down after failing");
                }
                if m.fail_frac(d, r).is_some() {
                    dead = true;
                }
            }
        }
    }

    #[test]
    fn different_seeds_realise_different_fleets() {
        let a = FleetModel::new(&profiles(20), churning(0.2, 0.1), 1);
        let b = FleetModel::new(&profiles(20), churning(0.2, 0.1), 2);
        let same = (0..10).all(|r| conditions(&a, r) == conditions(&b, r));
        assert!(!same, "different seeds must diverge");
    }

    #[test]
    fn pick_covers_edges() {
        assert_eq!(pick(&[0.5, 0.5], 0.0), 0);
        assert_eq!(pick(&[0.5, 0.5], 0.75), 1);
        // u beyond the accumulated mass (rounding) clamps to the last.
        assert_eq!(pick(&[0.5, 0.5], 1.0), 1);
    }

    #[test]
    fn realisation_is_proportional_to_devices_queried() {
        // 10k-device fleet, but only devices 3 and 17 are ever queried:
        // exactly two trajectories realise and only their two shards see
        // any traffic at all.
        let src = ProfileSource::lazy(
            10_000,
            fedhisyn_simnet::HeterogeneityModel::Uniform { h: 10.0 },
            99,
        );
        let m = FleetModel::with_source(src, churning(0.2, 0.1), 21);
        let query = |rounds: std::ops::Range<usize>| {
            for r in rounds {
                let _ = m.online(3, r);
                let _ = m.online(17, r);
                let _ = m.fail_frac(3, r);
            }
        };
        query(0..1);
        let after_round_0 = m.realised_state_bytes();
        query(1..1000);
        assert_eq!(m.realised_devices(), 2);
        assert_eq!(
            m.realised_state_bytes(),
            after_round_0,
            "state is per device touched, not per round"
        );
        let touches = m.shard_touches();
        for (s, &t) in touches.iter().enumerate() {
            if s == FleetModel::shard_of(3) || s == FleetModel::shard_of(17) {
                assert!(t > 0, "queried shard {s} must register traffic");
            } else {
                assert_eq!(t, 0, "unqueried shard {s} must never be touched");
            }
        }
        assert!(m.realised_state_bytes() < 1024, "footprint stays tiny");
    }

    #[test]
    fn modulator_is_shared_and_correlated_across_the_fleet() {
        let m = FleetModel::new(
            &profiles(30),
            FleetDynamics {
                modulator: Some(MarkovCapacity::diurnal_burst()),
                ..FleetDynamics::default()
            },
            17,
        );
        assert!(!m.is_static());
        let mut distinct = std::collections::BTreeSet::new();
        for r in 0..60 {
            let shared = m.multiplier(r);
            distinct.insert((shared * 10.0) as i64);
            for d in 0..30 {
                // Every device carries exactly the shared multiplier.
                assert_eq!(
                    m.latency(d, r),
                    m.base_latency(d) * shared,
                    "round {r} device {d}"
                );
            }
        }
        assert!(
            distinct.len() >= 2,
            "the chain should visit several states: {distinct:?}"
        );
    }

    #[test]
    fn multiplier_is_query_order_independent() {
        let make = || {
            FleetModel::new(
                &profiles(4),
                FleetDynamics {
                    modulator: Some(MarkovCapacity::diurnal_burst()),
                    ..FleetDynamics::default()
                },
                23,
            )
        };
        let a = make();
        let b = make();
        let fwd: Vec<f64> = (0..40).map(|r| a.multiplier(r)).collect();
        let bwd: Vec<f64> = (0..40).rev().map(|r| b.multiplier(r)).collect();
        for (r, &v) in fwd.iter().enumerate() {
            assert_eq!(v, bwd[39 - r], "round {r}");
        }
    }
}

//! Streaming cohort sampling: pick K online devices out of a fleet of N
//! in O(K) expected work, without iterating — or realising state for —
//! the other N − K devices.

use fedhisyn_simnet::seed_mix;

use crate::model::FleetModel;

/// The cohort draw stream is independent of every trajectory role.
const ROLE_COHORT: u64 = 0x00C0_4027;

/// Candidate draws per requested slot before the sampler gives up — the
/// bound that keeps heavily-churned (mostly-offline) fleets from looping
/// forever. 64 draws per slot makes a false shortfall vanishingly rare
/// for any fleet with ≥ ~2% of devices online.
const DRAWS_PER_SLOT: u64 = 64;

/// Sample up to `k` **distinct, online** devices for `round` by rejection
/// sampling over a hash stream.
///
/// Candidate `i` is `(seed_mix(seed, round, i, COHORT) × n) >> 64` — an
/// unbiased multiply-shift reduction onto `0..n` — and is kept iff the
/// fleet says it is online this round (which lazily realises *only that
/// device's* trajectory). Draws stop as soon as `k` devices are found, so
/// expected cost is `k / online_fraction` fleet queries, independent of
/// fleet size.
///
/// Deterministic: a pure function of `(seed, round, k, fleet trajectory)`
/// — the draw index is the stream position, so thread timing and prior
/// queries cannot perturb it. The cohort is returned **sorted ascending
/// by device id** (the deterministic tie-break, and the order every
/// downstream consumer — clustering, ring building — already expects).
///
/// May return fewer than `k` devices when the online population is
/// smaller than `k` (or the draw budget of `64 × k` candidates is
/// exhausted); returns an empty vector on a fleet-wide blackout.
pub fn sample_online_cohort(fleet: &FleetModel, k: usize, round: usize, seed: u64) -> Vec<usize> {
    let n = fleet.len();
    assert!(n > 0, "no devices");
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let mut chosen = std::collections::BTreeSet::new();
    let max_draws = (k as u64).saturating_mul(DRAWS_PER_SLOT);
    for draw in 0..max_draws {
        let h = seed_mix(seed, round as u64, draw, ROLE_COHORT);
        let device = ((h as u128 * n as u128) >> 64) as usize;
        if chosen.contains(&device) {
            continue;
        }
        if fleet.online(device, round) {
            chosen.insert(device);
            if chosen.len() == k {
                break;
            }
        }
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetDynamics, FleetModel};
    use fedhisyn_simnet::{HeterogeneityModel, ProfileSource};

    fn lazy_fleet(n: usize, dynamics: FleetDynamics, seed: u64) -> FleetModel {
        let src = ProfileSource::lazy(n, HeterogeneityModel::Uniform { h: 10.0 }, seed);
        FleetModel::with_source(src, dynamics, seed)
    }

    #[test]
    fn samples_k_distinct_sorted_devices_from_a_static_fleet() {
        let fleet = lazy_fleet(1_000_000, FleetDynamics::default(), 1);
        let cohort = sample_online_cohort(&fleet, 10, 0, 42);
        assert_eq!(cohort.len(), 10);
        assert!(cohort.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        assert!(cohort.iter().all(|&d| d < 1_000_000));
    }

    #[test]
    fn sampling_is_deterministic_and_round_sensitive() {
        let fleet = lazy_fleet(100_000, FleetDynamics::churn(0.2), 7);
        let a = sample_online_cohort(&fleet, 16, 3, 9);
        let b = sample_online_cohort(&fleet, 16, 3, 9);
        assert_eq!(a, b);
        let other_round = sample_online_cohort(&fleet, 16, 4, 9);
        assert_ne!(a, other_round, "rounds draw from distinct streams");
        let other_seed = sample_online_cohort(&fleet, 16, 3, 10);
        assert_ne!(a, other_seed, "seeds draw from distinct streams");
    }

    #[test]
    fn sampled_devices_are_online_and_realisation_stays_o_cohort() {
        let fleet = lazy_fleet(1_000_000, FleetDynamics::churn(0.3), 11);
        let mut total = 0;
        for round in 0..8 {
            let cohort = sample_online_cohort(&fleet, 12, round, 5);
            assert!(!cohort.is_empty());
            for &d in &cohort {
                assert!(fleet.online(d, round));
            }
            total += cohort.len();
        }
        // Only sampled candidates realise trajectories — orders of
        // magnitude below fleet size.
        let realised = fleet.realised_devices();
        assert!(realised >= total / 8, "cohort members are realised");
        assert!(
            realised < 8 * 12 * 64,
            "realisation bounded by the draw budget, got {realised}"
        );
        assert!(realised < 1_000_000 / 100, "nowhere near O(fleet)");
    }

    #[test]
    fn shortfall_is_graceful_on_mostly_offline_fleets() {
        // dropout 1.0, rejoin 0.0: everyone goes dark at round 0.
        let fleet = lazy_fleet(
            1000,
            FleetDynamics {
                availability: crate::AvailabilityModel::Churn {
                    dropout: 1.0,
                    rejoin: 0.0,
                },
                ..FleetDynamics::default()
            },
            3,
        );
        let cohort = sample_online_cohort(&fleet, 8, 2, 1);
        assert!(cohort.is_empty(), "blackout yields an empty cohort");
    }

    #[test]
    fn k_larger_than_fleet_clamps() {
        let fleet = lazy_fleet(5, FleetDynamics::default(), 2);
        let cohort = sample_online_cohort(&fleet, 50, 0, 3);
        assert_eq!(cohort, vec![0, 1, 2, 3, 4]);
    }
}

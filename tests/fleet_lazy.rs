//! Lazy sharded fleet realisation vs the dense reference trace.
//!
//! The tentpole contract: per-device lazy realisation is **bit-identical**
//! to realising the whole fleet densely — for any dynamics config, any
//! query order, and any interleaving of threads — while realised state
//! stays one cursor per device actually queried.

use std::sync::Barrier;

use fedhisyn::fleet::{
    sample_online_cohort, AvailabilityModel, FleetDynamics, FleetModel, ModulatorChain,
    ReferenceFleet,
};
use proptest::prelude::*;

fn profiles(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + i as f64 * 0.25).collect()
}

/// A randomised dynamics config exercising every process at once.
fn dynamics(dropout: f64, failure: f64, modulator: bool) -> FleetDynamics {
    FleetDynamics {
        availability: AvailabilityModel::Churn {
            dropout,
            rejoin: 0.4,
        },
        mid_round_failure: failure,
        modulator: modulator.then(ModulatorChain::diurnal_burst),
    }
}

fn assert_point_identical(lazy: &FleetModel, dense: &ReferenceFleet, d: usize, r: usize) {
    assert_eq!(lazy.online(d, r), dense.online(d, r), "online {d}@{r}");
    assert_eq!(
        lazy.multiplier(r).to_bits(),
        dense.multiplier(r).to_bits(),
        "multiplier @{r}"
    );
    assert_eq!(
        lazy.fail_frac(d, r).map(f64::to_bits),
        dense.fail_frac(d, r).map(f64::to_bits),
        "fail_frac {d}@{r}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lazy_realisation_is_bit_identical_to_the_dense_trace(
        n in 1usize..25,
        seed in 0u64..500,
        dropout in 0.0f64..0.6,
        failure in 0.0f64..0.4,
        modulator in 0usize..2,
        rounds in 1usize..10,
    ) {
        let dyn_cfg = dynamics(dropout, failure, modulator == 1);
        let dense = ReferenceFleet::new(n, dyn_cfg.clone(), seed);
        // Forward query order.
        let fwd = FleetModel::new(&profiles(n), dyn_cfg.clone(), seed);
        for r in 0..rounds {
            for d in 0..n {
                assert_point_identical(&fwd, &dense, d, r);
            }
        }
        // Reverse query order (rounds backwards, devices backwards):
        // memoization must not leak into values.
        let bwd = FleetModel::new(&profiles(n), dyn_cfg, seed);
        for r in (0..rounds).rev() {
            for d in (0..n).rev() {
                assert_point_identical(&bwd, &dense, d, r);
            }
        }
    }

    #[test]
    fn streaming_cohorts_equal_the_dense_online_filter(
        n in 1usize..40,
        k in 1usize..12,
        seed in 0u64..300,
        dropout in 0.0f64..0.7,
        round in 0usize..6,
    ) {
        // Every device the streaming sampler returns must be online per
        // the dense reference, and the draw must be reproducible.
        let dyn_cfg = dynamics(dropout, 0.1, false);
        let lazy = FleetModel::new(&profiles(n), dyn_cfg.clone(), seed);
        let dense = ReferenceFleet::new(n, dyn_cfg, seed);
        let cohort = sample_online_cohort(&lazy, k, round, seed ^ 0xC0FE);
        prop_assert!(cohort.len() <= k.min(n));
        prop_assert!(cohort.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        for &d in &cohort {
            prop_assert!(dense.online(d, round), "sampled device {d} offline");
        }
        let again = sample_online_cohort(&lazy, k, round, seed ^ 0xC0FE);
        prop_assert_eq!(cohort, again);
    }
}

#[test]
fn concurrent_interleaved_queries_match_the_dense_trace() {
    // Eight threads hammer the same model with different (device, round)
    // walks — even threads ascending in rounds, odd threads descending, so
    // every device's cursor is pushed forward by one thread while another
    // asks for rounds behind it. Each read is checked against the dense
    // reference where it happens: a cursor moved by somebody else must
    // never leak into the value this thread gets back.
    let n = 30;
    let rounds = 12;
    let dyn_cfg = dynamics(0.3, 0.2, true);
    let lazy = FleetModel::new(&profiles(n), dyn_cfg.clone(), 91);
    let dense = ReferenceFleet::new(n, dyn_cfg, 91);
    let start = Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (lazy, dense, start) = (&lazy, &dense, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..n * rounds {
                    let j = (i * (t * 2 + 1)) % (n * rounds);
                    let j = if t % 2 == 1 { n * rounds - 1 - j } else { j };
                    assert_point_identical(lazy, dense, j % n, j / n);
                }
            });
        }
    });
    // Wherever the cursors ended up, a forward sweep still agrees.
    for r in 0..rounds {
        for d in 0..n {
            assert_point_identical(&lazy, &dense, d, r);
        }
    }
}

#[test]
fn querying_two_devices_of_a_10k_fleet_touches_only_their_shards() {
    let m = FleetModel::new(&profiles(10_000), dynamics(0.2, 0.1, true), 55);
    for r in 0..10 {
        let _ = m.online(3, r);
        let _ = m.online(17, r);
        let _ = m.fail_frac(17, r);
    }
    assert_eq!(m.realised_devices(), 2, "exactly two trajectories realise");
    let touched: Vec<usize> = m
        .shard_touches()
        .iter()
        .enumerate()
        .filter(|(_, &t)| t > 0)
        .map(|(s, _)| s)
        .collect();
    assert_eq!(
        touched,
        vec![FleetModel::shard_of(3), FleetModel::shard_of(17)],
        "all other shards stay untouched"
    );
}

//! Cross-crate property tests on the system's core invariants.

use fedhisyn::cluster::{kmeans_1d, quantile_bins};
use fedhisyn::core::aggregate::{AggregationRule, Contribution};
use fedhisyn::core::{Ring, RingOrder};
use fedhisyn::data::{partition_indices, Dataset, Partition};
use fedhisyn::nn::{wire, Codec, ParamVec};
use fedhisyn::tensor::{rng_from_seed, Tensor};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

fn labels(n: usize, classes: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7 + 3) % classes).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn partitions_conserve_every_sample(
        n in 20usize..200,
        devices in 1usize..10,
        beta in 0.05f64..5.0,
        seed in 0u64..500,
        strategy_pick in 0usize..2,
    ) {
        prop_assume!(n >= devices * 2);
        let classes = 5usize;
        let data = Dataset::new(Tensor::zeros(vec![n, 2]), labels(n, classes), classes);
        let strategy = match strategy_pick {
            0 => Partition::Iid,
            _ => Partition::Dirichlet { beta },
        };
        let mut rng = rng_from_seed(seed);
        let parts = partition_indices(&data, devices, strategy, &mut rng);
        let mut seen = vec![false; n];
        for p in &parts {
            prop_assert!(!p.is_empty(), "no empty device");
            for &i in p {
                prop_assert!(!seen[i], "sample assigned twice");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "sample dropped");
    }

    #[test]
    fn rings_are_permutations_with_sorted_latency(
        n in 1usize..30,
        seed in 0u64..200,
    ) {
        let members: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
        let mut rng = rng_from_seed(seed);
        let latencies: Vec<f64> = (0..n).map(|i| ((i * 13 + seed as usize) % 17 + 1) as f64).collect();
        for order in [RingOrder::SmallToLarge, RingOrder::LargeToSmall, RingOrder::Random] {
            let ring = Ring::build(&members, &latencies, order, &mut rng);
            let mut sorted = ring.order().to_vec();
            sorted.sort_unstable();
            let mut expect = members.clone();
            expect.sort_unstable();
            prop_assert_eq!(sorted, expect, "ring must be a permutation of members");
        }
        // Small-to-large must be monotone in latency.
        let ring = Ring::build(&members, &latencies, RingOrder::SmallToLarge, &mut rng);
        let lat_of = |d: usize| latencies[members.iter().position(|&m| m == d).unwrap()];
        for w in ring.order().windows(2) {
            prop_assert!(lat_of(w[0]) <= lat_of(w[1]));
        }
    }

    #[test]
    fn aggregation_stays_in_convex_hull(
        models in pvec(pvec(-10.0f32..10.0, 4), 1..6),
        weights in pvec(1usize..100, 6),
    ) {
        let pvs: Vec<ParamVec> = models.iter().map(|m| ParamVec::from_vec(m.clone())).collect();
        let contributions: Vec<Contribution<'_>> = pvs
            .iter()
            .zip(&weights)
            .map(|(params, &w)| Contribution {
                params,
                samples: w,
                class_mean_time: w as f64 * 0.5 + 0.1,
            })
            .collect();
        for rule in [AggregationRule::Uniform, AggregationRule::SampleWeighted, AggregationRule::TimeWeighted] {
            let agg = rule.aggregate(&contributions);
            for i in 0..4 {
                let lo = models.iter().map(|m| m[i]).fold(f32::MAX, f32::min);
                let hi = models.iter().map(|m| m[i]).fold(f32::MIN, f32::max);
                let v = agg.as_slice()[i];
                prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4,
                    "{:?} coord {i}: {v} outside [{lo}, {hi}]", rule);
            }
        }
    }

    #[test]
    fn kmeans_assignment_is_locally_optimal(
        values in pvec(0.0f64..100.0, 5..40),
        k in 1usize..5,
        seed in 0u64..100,
    ) {
        prop_assume!(k <= values.len());
        let mut rng = rng_from_seed(seed);
        let c = kmeans_1d(&values, k, 200, &mut rng);
        // Every point sits in the cluster of its nearest centroid.
        for (i, &v) in values.iter().enumerate() {
            let assigned = c.assignment[i];
            let d_assigned = (v - c.centroids[assigned]).abs();
            for cent in &c.centroids {
                prop_assert!(d_assigned <= (v - cent).abs() + 1e-9);
            }
        }
    }

    #[test]
    fn quantile_bins_partition_and_order(
        values in pvec(0.0f64..50.0, 3..40),
        k in 1usize..6,
    ) {
        prop_assume!(k <= values.len());
        let bins = quantile_bins(&values, k);
        let mut all: Vec<usize> = bins.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..values.len()).collect::<Vec<_>>());
        for w in bins.windows(2) {
            let max_lo = w[0].iter().map(|&i| values[i]).fold(f64::MIN, f64::max);
            let min_hi = w[1].iter().map(|&i| values[i]).fold(f64::MAX, f64::min);
            prop_assert!(max_lo <= min_hi + 1e-12);
        }
    }

    #[test]
    fn param_vec_mean_is_idempotent_on_copies(
        v in pvec(-5.0f32..5.0, 1..32),
        copies in 1usize..6,
    ) {
        let pv = ParamVec::from_vec(v.clone());
        let vs: Vec<ParamVec> = (0..copies).map(|_| pv.clone()).collect();
        let mean = ParamVec::mean(vs.iter());
        for (a, b) in mean.as_slice().iter().zip(&v) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn wire_v3_frames_round_trip_and_reject_every_corruption(
        data in pvec(-100.0f32..100.0, 1..48),
        codec_pick in 0usize..2,
        flip_bit in 0u32..8,
    ) {
        let codec = [Codec::F32, Codec::Int8][codec_pick];
        let params = ParamVec::from_vec(data.clone());
        let frame = wire::encode_with(&params, codec, None);
        prop_assert_eq!(frame.len(), wire::encoded_len_with(codec, params.len()));
        wire::verify_frame(&frame).expect("clean frame verifies");
        let decoded = wire::decode_with(&frame, None).expect("clean frame decodes");
        prop_assert_eq!(decoded.len(), params.len());
        prop_assert!(decoded.is_finite(), "finite payloads decode finite");
        if codec == Codec::F32 {
            prop_assert_eq!(&decoded, &params, "F32 is bit-exact");
        }
        // Same frame again: encoding is a pure function of the payload.
        let again = wire::encode_with(&params, codec, None);
        prop_assert_eq!(&frame[..], &again[..]);
        // Flip one bit at *every* byte position (header, codec tag,
        // checksum, payload): parse must fail — no silent acceptance.
        for pos in 0..frame.len() {
            let mut corrupted = frame.to_vec();
            corrupted[pos] ^= 1u8 << flip_bit;
            prop_assert!(
                wire::decode_with(&corrupted, None).is_err(),
                "byte {} bit {} accepted under {:?}", pos, flip_bit, codec
            );
        }
    }

    #[test]
    fn wire_v3_non_finite_payloads_are_deterministic(
        picks in pvec(0usize..8, 1..48),
    ) {
        // Mix NaN, ±Inf and ordinary values at fixed odds.
        let data: Vec<f32> = picks
            .iter()
            .map(|&p| match p {
                0 | 1 => f32::NAN,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                _ => p as f32 * 2.5 - 10.0,
            })
            .collect();
        let params = ParamVec::from_vec(data);
        // F32 carries NaN/±Inf bit-exactly through the frame.
        let frame = wire::encode(&params);
        let decoded = wire::decode(&frame).expect("decodes");
        for (a, b) in decoded.as_slice().iter().zip(params.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // Int8 saturates non-finite values deterministically: two encodes
        // agree byte-for-byte and the reconstruction is always finite.
        let f1 = wire::encode_with(&params, Codec::Int8, None);
        let f2 = wire::encode_with(&params, Codec::Int8, None);
        prop_assert_eq!(&f1[..], &f2[..]);
        let d = wire::decode_with(&f1, None).expect("decodes");
        prop_assert!(d.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fleet_trajectories_are_pure_functions_of_the_seed(
        n in 1usize..30,
        seed in 0u64..300,
        dropout in 0.0f64..0.6,
        failure in 0.0f64..0.4,
        rounds in 1usize..12,
    ) {
        use fedhisyn::fleet::{FleetDynamics, FleetModel};
        let profiles: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
        let dynamics = FleetDynamics {
            mid_round_failure: failure,
            ..FleetDynamics::planet_scale(dropout)
        };
        let a = FleetModel::new(&profiles, dynamics.clone(), seed);
        let b = FleetModel::new(&profiles, dynamics, seed);
        let at = |m: &FleetModel, r: usize| -> Vec<(bool, u64, Option<u64>)> {
            (0..n)
                .map(|d| {
                    let fail = m.fail_frac(d, r).map(f64::to_bits);
                    (m.online(d, r), m.latency(d, r).to_bits(), fail)
                })
                .collect()
        };
        // Query in opposite orders: where a device's cursor stands must
        // not affect values, on first read or on re-read.
        for r in 0..rounds {
            let fwd = at(&a, r);
            let bwd = at(&b, rounds - 1 - r);
            prop_assert_eq!(fwd, at(&a, r));
            prop_assert_eq!(bwd, at(&b, rounds - 1 - r));
        }
        for r in 0..rounds {
            prop_assert_eq!(at(&a, r), at(&b, r), "round {}", r);
        }
    }
}

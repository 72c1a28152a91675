//! The federated-algorithm trait and the shared experiment runner.

use fedhisyn_fleet::FleetModel;
use fedhisyn_nn::ParamVec;
use fedhisyn_simnet::TrafficSnapshot;
use fedhisyn_telemetry::{Phase, RoundTelemetry, SpanCtx};
use fedhisyn_tensor::{rng_from_seed, TensorRng};
use rand::Rng;

use crate::engine::ExecutionEngine;
use crate::env::{seed_mix, FlEnv};
use crate::local::{cached_model_stats, evaluate_on_test};
use crate::metrics::{RoundRecord, RunRecord};

/// Per-round context handed to an algorithm by the runner.
pub struct RoundContext<'a> {
    /// The shared environment.
    pub env: &'a FlEnv,
    /// Round index (0-based).
    pub round: usize,
    /// Devices participating this round (sampled by the runner).
    pub participants: &'a [usize],
    /// Round-scoped RNG (derived deterministically from the master seed).
    pub rng: &'a mut TensorRng,
    /// Virtual time at which this round starts (the experiment clock
    /// before the round's duration is added) — the base algorithms stamp
    /// their telemetry spans against.
    pub vt_base: f64,
}

/// A federated-learning algorithm.
///
/// Implementations own whatever cross-round state they need (the global
/// model, SCAFFOLD control variates, FedAT tier models, …). The runner
/// drives rounds, samples participation, evaluates the global model and
/// snapshots the transmission meter.
pub trait FlAlgorithm {
    /// Display name (used in tables).
    fn name(&self) -> String;

    /// Fraction of devices participating each round (`1.0`, `0.5`, `0.1`
    /// in the paper). The runner samples each device independently with
    /// this probability, matching §6.1 ("each device has a 100%, 50%, and
    /// 10% chance of participating").
    fn participation(&self) -> f64;

    /// Execute one communication round and return the global model after
    /// server aggregation.
    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec;

    /// Virtual duration of one round. Defaults to the paper's definition:
    /// the slowest participant's local-training time — at its *effective*
    /// capacity for `round` (identical to the base profile on a static
    /// fleet).
    fn round_duration(&self, env: &FlEnv, participants: &[usize], round: usize) -> f64 {
        env.slowest_latency_at(participants, round)
    }
}

/// Sample the participating set: each device joins independently with
/// probability `p`; re-drawn (deterministically) until non-empty.
fn sample_participants(n_devices: usize, p: f64, rng: &mut impl Rng) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&p), "participation must be in [0, 1]");
    assert!(n_devices > 0, "no devices");
    loop {
        let chosen: Vec<usize> = (0..n_devices).filter(|_| rng.gen::<f64>() < p).collect();
        if !chosen.is_empty() {
            return chosen;
        }
        if p == 0.0 {
            // Degenerate config: keep the simulation alive with one device.
            return vec![rng.gen_range(0..n_devices)];
        }
    }
}

/// Drive `algorithm` for `rounds` communication rounds over `env`,
/// evaluating the global model after every round.
///
/// The environment's transmission meter is reset at the start so records
/// from consecutive runs do not bleed into each other.
///
/// On a dynamic fleet, devices that are offline this round (churn) are
/// removed from the sampled cohort before the algorithm sees it. When
/// *every* sampled device is offline (a blackout), the round is recorded
/// with zero participants and the algorithm is not invoked — the server
/// idles until devices rejoin. Static fleets never hit either path.
///
/// With [`FlEnv::cohort`] set, participation is instead a fixed-size
/// cohort of K online devices drawn by streaming rejection sampling —
/// O(cohort) per round regardless of fleet size, never iterating (or
/// realising fleet state for) unsampled devices. The algorithm's
/// [`FlAlgorithm::participation`] probability is ignored in that mode.
pub fn run_experiment(
    algorithm: &mut dyn FlAlgorithm,
    env: &mut FlEnv,
    rounds: usize,
) -> RunRecord {
    env.meter.reset();
    let mut record = RunRecord::new(algorithm.name());
    record.codec = env.codec.label();
    let mut virtual_time = 0.0f64;
    for round in 0..rounds {
        let round_wall = env.telemetry.wall_start();
        let traffic_before = env.meter.snapshot();
        let cache_before = ExecutionEngine::cache_stats();
        let mut rng = rng_from_seed(seed_mix(env.seed, round as u64, 0x5e55_105e, 0));
        let participants = match env.cohort {
            Some(k) => fedhisyn_fleet::sample_online_cohort(&env.fleet, k, round, env.seed),
            None => {
                let mut p =
                    sample_participants(env.n_devices(), algorithm.participation(), &mut rng);
                if env.dynamics_active() {
                    p.retain(|&d| env.online(d, round));
                }
                p
            }
        };
        // `t_i` already covers one full local step (E epochs), so the round
        // duration is the slowest participant's `t_i` — no epoch factor.
        let vt_base = virtual_time;
        let accuracy = if participants.is_empty() {
            // Blackout: nobody reachable. Carry the previous accuracy
            // forward (the global is unchanged) and advance no time.
            record.rounds.last().map_or(0.0, |r| r.accuracy)
        } else {
            virtual_time += algorithm.round_duration(env, &participants, round);
            let global = algorithm.round(&mut RoundContext {
                env,
                round,
                participants: &participants,
                rng: &mut rng,
                vt_base,
            });
            let eval_wall = env.telemetry.wall_start();
            let accuracy = evaluate_on_test(env, &global);
            env.telemetry.span(
                Phase::Evaluation,
                round as u32,
                SpanCtx::ROOT,
                (virtual_time, virtual_time),
                eval_wall,
            );
            accuracy
        };
        let t = env.meter.snapshot();
        let telemetry = fold_round_telemetry(env, &traffic_before, &t, cache_before);
        env.telemetry.span(
            Phase::Round,
            round as u32,
            SpanCtx::ROOT,
            (vt_base, virtual_time),
            round_wall,
        );
        record.rounds.push(RoundRecord {
            round,
            accuracy,
            uploads: t.uploads,
            downloads: t.downloads,
            peer_transfers: t.peer_transfers,
            wire_bytes: telemetry.wire_bytes,
            participants: participants.len(),
            virtual_time,
            telemetry,
        });
    }
    record
}

/// Fold the round's observability into one [`RoundTelemetry`]: traffic
/// deltas against the round-start snapshot (deterministic) plus engine,
/// arena, fleet and shard-cache runtime counters (best-effort).
fn fold_round_telemetry(
    env: &FlEnv,
    before: &TrafficSnapshot,
    after: &TrafficSnapshot,
    cache_before: (u64, u64),
) -> RoundTelemetry {
    // Read the process-global cache counters *before* querying the cached
    // model below — that query itself goes through the cache and would
    // otherwise count as a hit of this round.
    let (hits, misses) = ExecutionEngine::cache_stats();
    // One sweep of the fleet's shard locks; the state bytes follow.
    let realised = env.fleet.realised_devices();
    let telemetry = RoundTelemetry {
        uploads: after.uploads - before.uploads,
        downloads: after.downloads - before.downloads,
        peer_transfers: after.peer_transfers - before.peer_transfers,
        parameters_moved: after.parameters_moved - before.parameters_moved,
        wire_bytes: after.wire_bytes - before.wire_bytes,
        raw_bytes: after.raw_bytes - before.raw_bytes,
        retransmit_bytes: after.retransmit_bytes - before.retransmit_bytes,
        cache_hits: hits.saturating_sub(cache_before.0),
        cache_misses: misses.saturating_sub(cache_before.1),
        weight_packs: 0,
        arena_high_water_bytes: cached_model_stats(env),
        fleet_realised_devices: realised as u64,
        fleet_realised_state_bytes: (realised * FleetModel::REALISED_DEVICE_BYTES) as u64,
        fleet_shard_touches: env.fleet.shard_touch_total(),
        data_shards_realised: env.data.shards_realised(),
        data_shard_cache_hits: env.data.shard_cache_hits(),
        data_resident_shard_bytes: env.data.resident_shard_bytes(),
    };
    env.telemetry.add_codec_bytes(
        telemetry.wire_bytes.max(0.0) as u64,
        telemetry.raw_bytes.max(0.0) as u64,
    );
    telemetry
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_data::Dataset;
    use fedhisyn_nn::{ModelSpec, SgdConfig};
    use fedhisyn_simnet::{sample_latencies, HeterogeneityModel, TrafficMeter};
    use fedhisyn_tensor::Tensor;

    fn tiny_env() -> FlEnv {
        let mk = |n: usize| {
            Dataset::new(
                Tensor::zeros(vec![n, 4]),
                (0..n).map(|i| i % 2).collect(),
                2,
            )
        };
        let mut rng = rng_from_seed(0);
        let profiles = sample_latencies(5, HeterogeneityModel::Homogeneous, &mut rng);
        FlEnv {
            spec: ModelSpec::mlp(&[4, 4, 2]),
            data: fedhisyn_data::DataSource::Dense((0..5).map(|_| mk(6)).collect()),
            test: mk(20),
            fleet: fedhisyn_fleet::FleetModel::static_fleet(&profiles),
            meter: TrafficMeter::new(),
            local_epochs: 1,
            batch_size: 4,
            sgd: SgdConfig::default(),
            seed: 3,
            codec: fedhisyn_nn::Codec::F32,
            residuals: crate::env::DeviceBank::new(),
            faults: fedhisyn_simnet::FaultPlan::none(),
            cohort: None,
            telemetry: fedhisyn_telemetry::TelemetrySink::disabled(),
        }
    }

    /// Minimal algorithm: every participant uploads a zero model.
    struct Null {
        p: f64,
    }

    impl FlAlgorithm for Null {
        fn name(&self) -> String {
            "null".into()
        }
        fn participation(&self) -> f64 {
            self.p
        }
        fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
            let mut zeros = ParamVec::zeros(ctx.env.param_count());
            let link = crate::link::ServerLink::default();
            for &d in ctx.participants {
                link.upload(ctx.env, d, &mut zeros);
            }
            zeros
        }
    }

    #[test]
    fn runner_records_every_round() {
        let mut env = tiny_env();
        let mut algo = Null { p: 1.0 };
        let rec = run_experiment(&mut algo, &mut env, 3);
        assert_eq!(rec.rounds.len(), 3);
        assert_eq!(rec.algorithm, "null");
        // Full participation: 5 uploads per round, cumulative.
        assert_eq!(rec.rounds[0].uploads, 5.0);
        assert_eq!(rec.rounds[2].uploads, 15.0);
        assert!(rec.rounds[2].virtual_time > 0.0);
    }

    #[test]
    fn participation_sampling_is_probabilistic() {
        let mut rng = rng_from_seed(1);
        let mut total = 0usize;
        for _ in 0..200 {
            total += sample_participants(10, 0.5, &mut rng).len();
        }
        let mean = total as f64 / 200.0;
        assert!((3.5..6.5).contains(&mean), "mean participants {mean}");
    }

    #[test]
    fn full_participation_selects_everyone() {
        let mut rng = rng_from_seed(2);
        let p = sample_participants(7, 1.0, &mut rng);
        assert_eq!(p, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn participants_never_empty() {
        let mut rng = rng_from_seed(3);
        for _ in 0..100 {
            assert!(!sample_participants(5, 0.01, &mut rng).is_empty());
        }
        assert_eq!(sample_participants(5, 0.0, &mut rng).len(), 1);
    }

    #[test]
    fn runner_resets_meter_between_runs() {
        let mut env = tiny_env();
        let mut algo = Null { p: 1.0 };
        let _ = run_experiment(&mut algo, &mut env, 2);
        let rec = run_experiment(&mut algo, &mut env, 1);
        assert_eq!(rec.rounds[0].uploads, 5.0, "meter must be reset");
    }

    #[test]
    fn runs_are_deterministic() {
        let mut env = tiny_env();
        let mut algo = Null { p: 0.5 };
        let a = run_experiment(&mut algo, &mut env, 4);
        let b = run_experiment(&mut algo, &mut env, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn churned_out_devices_never_reach_the_algorithm() {
        use fedhisyn_fleet::{AvailabilityModel, FleetDynamics, FleetModel};
        let mut env = tiny_env();
        // Heavy churn: ~70% of online devices drop each round (the first
        // transition already applies at round 0).
        let profiles = sample_latencies(5, HeterogeneityModel::Homogeneous, &mut rng_from_seed(0));
        env.fleet = FleetModel::new(
            &profiles,
            FleetDynamics {
                availability: AvailabilityModel::Churn {
                    dropout: 0.7,
                    rejoin: 0.3,
                },
                ..FleetDynamics::default()
            },
            9,
        );
        let mut algo = Null { p: 1.0 };
        let rec = run_experiment(&mut algo, &mut env, 6);
        assert_eq!(rec.rounds.len(), 6, "blackout rounds are still recorded");
        let fleet = &env.fleet;
        for r in &rec.rounds {
            let online = (0..env.n_devices())
                .filter(|&d| fleet.online(d, r.round))
                .count();
            assert_eq!(
                r.participants, online,
                "round {}: cohort must equal the online set",
                r.round
            );
        }
        assert!(
            rec.rounds.iter().any(|r| r.participants < env.n_devices()),
            "churn at 70% must shrink some cohort"
        );
    }

    #[test]
    fn blackout_rounds_carry_the_previous_accuracy_and_time() {
        use fedhisyn_fleet::{AvailabilityModel, FleetDynamics, FleetModel};
        let mut env = tiny_env();
        // Every device flips every round: round 0 is a full blackout (the
        // first transition applies at round 0), round 1 fully online, …
        let profiles = sample_latencies(5, HeterogeneityModel::Homogeneous, &mut rng_from_seed(0));
        let dynamics = FleetDynamics {
            availability: AvailabilityModel::Churn {
                dropout: 1.0,
                rejoin: 1.0,
            },
            ..FleetDynamics::default()
        };
        env.fleet = FleetModel::new(&profiles, dynamics, 9);
        let mut algo = Null { p: 1.0 };
        let rec = run_experiment(&mut algo, &mut env, 4);
        let seen: Vec<usize> = rec.rounds.iter().map(|r| r.participants).collect();
        assert_eq!(seen, [0, 5, 0, 5]);
        assert_eq!(
            (rec.rounds[0].accuracy, rec.rounds[0].virtual_time),
            (0.0, 0.0)
        );
        let (online, blackout) = (&rec.rounds[1], &rec.rounds[2]);
        assert_eq!(
            blackout.accuracy, online.accuracy,
            "the global is unchanged"
        );
        assert_eq!(
            blackout.virtual_time, online.virtual_time,
            "no time advances"
        );
        assert_eq!(blackout.uploads, online.uploads, "nobody uploads");
        assert!(rec.rounds[3].virtual_time > rec.rounds[2].virtual_time);
    }

    #[test]
    fn streaming_cohort_mode_samples_fixed_k_online_devices() {
        use fedhisyn_fleet::{sample_online_cohort, FleetDynamics, FleetModel};
        let mut env = tiny_env();
        env.cohort = Some(3);
        let mut algo = Null { p: 1.0 };
        // Static fleet: exactly K participants every round.
        let rec = run_experiment(&mut algo, &mut env, 4);
        assert!(rec.rounds.iter().all(|r| r.participants == 3));
        // The runner's cohort is the sampler's output verbatim.
        let expect = sample_online_cohort(&env.fleet, 3, 0, env.seed);
        assert_eq!(expect.len(), 3);
        // Churned fleet: cohorts shrink to the online population but stay
        // deterministic.
        let profiles = sample_latencies(5, HeterogeneityModel::Homogeneous, &mut rng_from_seed(0));
        env.fleet = FleetModel::new(&profiles, FleetDynamics::churn(0.4), 9);
        let a = run_experiment(&mut algo, &mut env, 5);
        let b = run_experiment(&mut algo, &mut env, 5);
        assert_eq!(a, b, "cohort mode must be bit-deterministic");
        assert!(a.rounds.iter().all(|r| r.participants <= 3));
    }
}

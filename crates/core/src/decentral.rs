//! Server-less (decentralized) training modes.
//!
//! These back the paper's three motivating observations (§3.2):
//!
//! * **Figure 2** — five device-communication modes on homogeneous
//!   devices: no communication, random exchange (train received model
//!   directly or average first), ring exchange (both variants).
//! * **Figure 3** — ring orderings (random / small-to-large /
//!   large-to-small) under heterogeneous latencies.
//! * **Figure 4** — latency-clustered rings with `K ∈ {1, 2, 10, 30}`.
//!
//! There is no server: models persist on devices across rounds and the
//! reported metric is the *mean device-model accuracy* on the global test
//! split (the paper's estimator for Eq. 4's divergence `D`).

use fedhisyn_cluster::kmeans_1d;
use fedhisyn_nn::{CodecScratch, NoHook, ParamVec};
use fedhisyn_tensor::rng_from_seed;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::env::{seed_mix, FlEnv};
use crate::fedhisyn::FedHiSyn;
use crate::local::{evaluate_on_test, train_steps};
use crate::ring_sim::{Lane, ReceivePolicy, RingOutcome, RingRound, RingStart};
use crate::topology::{Ring, RingOrder};

/// A decentralized communication mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecentralMode {
    /// No communication: every device refines its own model (Figure 2's
    /// "no communication" control).
    Isolated,
    /// Every round each device sends its model to a uniformly random
    /// other device (Figure 2's "random communication").
    RandomExchange {
        /// Average received model with the local one before training.
        average: bool,
    },
    /// Latency-clustered rings (`k = 1` is Figure 3's single ring; larger
    /// `k` is Figure 4).
    ClusteredRings {
        /// Number of latency classes.
        k: usize,
        /// Ring ordering rule.
        order: RingOrder,
        /// Average received model with the local one before training.
        average: bool,
    },
}

impl DecentralMode {
    /// Label used in figure output.
    pub fn label(&self) -> String {
        match self {
            DecentralMode::Isolated => "no-comm".into(),
            DecentralMode::RandomExchange { average: false } => "random".into(),
            DecentralMode::RandomExchange { average: true } => "random+avg".into(),
            DecentralMode::ClusteredRings { k, order, average } => {
                let ord = match order {
                    RingOrder::SmallToLarge => "s2l",
                    RingOrder::LargeToSmall => "l2s",
                    RingOrder::Random => "rand",
                };
                if *average {
                    format!("ring-{ord}+avg(k={k})")
                } else {
                    format!("ring-{ord}(k={k})")
                }
            }
        }
    }
}

/// State of a decentralized simulation: one persistent model per device.
#[derive(Debug)]
pub struct DecentralSim {
    mode: DecentralMode,
    models: Vec<ParamVec>,
    /// Latency classes (fastest first), fixed for the whole run.
    classes: Vec<Vec<usize>>,
    /// Virtual time accumulated across ring rounds (stamps telemetry
    /// spans on the experiment clock).
    virtual_time: f64,
}

impl DecentralSim {
    /// Initialise: every device starts from the same seed model, and
    /// clustering (when the mode needs it) is performed once since
    /// latencies are static.
    pub fn new(env: &FlEnv, mode: DecentralMode) -> Self {
        let mut init_rng = rng_from_seed(seed_mix(env.seed, 0xDECE, 0, 0));
        let init = env.spec.build(&mut init_rng).params();
        let models = vec![init; env.n_devices()];
        let classes = match mode {
            DecentralMode::ClusteredRings { k, .. } => {
                let latencies: Vec<f64> = (0..env.n_devices()).map(|d| env.latency(d)).collect();
                let k_eff = k.min(env.n_devices());
                let mut rng = rng_from_seed(seed_mix(env.seed, 0xC105, 0, 0));
                kmeans_1d(&latencies, k_eff, 100, &mut rng).groups_sorted_by_centroid()
            }
            _ => vec![(0..env.n_devices()).collect()],
        };
        DecentralSim {
            mode,
            models,
            classes,
            virtual_time: 0.0,
        }
    }

    /// Latency classes (fastest first). One class containing everyone for
    /// non-clustered modes.
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Current per-device models.
    pub fn models(&self) -> &[ParamVec] {
        &self.models
    }

    /// Execute one round (one interval of the slowest *online* device's
    /// effective latency). On a dynamic fleet, offline devices sit the
    /// round out with their models intact; a device that crashes inside a
    /// ring is handled by the relay's failure machinery.
    pub fn run_round(&mut self, env: &FlEnv, round: usize) {
        match self.mode {
            DecentralMode::Isolated => self.round_isolated(env, round),
            DecentralMode::RandomExchange { average } => self.round_random(env, round, average),
            DecentralMode::ClusteredRings { order, average, .. } => {
                self.round_rings(env, round, order, average)
            }
        }
    }

    /// Devices reachable this round (everyone on a static fleet).
    fn cohort(&self, env: &FlEnv, round: usize) -> Vec<usize> {
        if !env.dynamics_active() {
            return (0..env.n_devices()).collect();
        }
        (0..env.n_devices())
            .filter(|&d| env.online(d, round))
            .collect()
    }

    /// Whether device `d` both starts and survives the round — outside
    /// the ring relay (which resolves failures event by event), Isolated
    /// and RandomExchange treat a mid-round crash as losing the round's
    /// work: the device keeps its round-start model.
    fn participates(env: &FlEnv, d: usize, round: usize, interval: f64) -> bool {
        env.online(d, round) && env.fail_time(d, round, interval).is_none()
    }

    /// Every device that starts and survives the round trains its own
    /// model for its step budget; `None` marks the rest.
    fn train_cohort(&self, env: &FlEnv, round: usize, interval: f64) -> Vec<Option<ParamVec>> {
        self.models
            .par_iter()
            .enumerate()
            .map(|(d, params)| {
                Self::participates(env, d, round, interval).then(|| {
                    let steps = env.step_budget(d, interval, round);
                    train_steps(env, d, params, steps, round, &NoHook)
                })
            })
            .collect()
    }

    fn round_isolated(&mut self, env: &FlEnv, round: usize) {
        let cohort = self.cohort(env, round);
        if cohort.is_empty() {
            return;
        }
        let interval = env.slowest_latency_at(&cohort, round);
        let updated = self.train_cohort(env, round, interval);
        for (d, new) in updated.into_iter().enumerate() {
            if let Some(m) = new {
                self.models[d] = m;
            }
        }
    }

    fn round_random(&mut self, env: &FlEnv, round: usize, average: bool) {
        let cohort = self.cohort(env, round);
        if cohort.is_empty() {
            return;
        }
        let interval = env.slowest_latency_at(&cohort, round);
        let n = env.n_devices();
        let trained = self.train_cohort(env, round, interval);
        // Random communication (paper Fig. 2): every device sends to a
        // uniformly random *other* device — NOT a permutation, so targets
        // collide. A receiver keeps only the newest arrival (Alg. 1's
        // buffer semantics); devices that receive nothing keep their own
        // model (Eq. 7). This lineage loss is exactly why the paper finds
        // random communication inferior to the ring. Every device draws
        // its target in id order regardless of availability, so the static
        // path consumes an identical RNG stream; sends from or to absent
        // devices simply do not happen (a send into the void still costs
        // a transfer — the sender cannot know).
        let mut rng = rng_from_seed(seed_mix(env.seed, round as u64, 0x9A9D, 0));
        let mut inbox: Vec<Option<usize>> = vec![None; n];
        // With a lossy codec the model a sender puts on the wire is its
        // decoded reconstruction (error feedback keeps the dropped mass in
        // the sender's residual); the sender's own copy stays full
        // precision. The transform happens at *send* time — a frame sent
        // into the void still spends the sender's residual, exactly like a
        // dropped ring hop.
        let mut wire: Vec<Option<ParamVec>> = vec![None; n];
        let mut scratch = CodecScratch::new();
        for sender in 0..n {
            let mut target = rng.gen_range(0..n);
            if n > 1 && target == sender {
                target = (target + 1) % n;
            }
            let Some(own) = trained[sender].as_ref() else {
                continue;
            };
            env.charge(fedhisyn_simnet::TrafficMeter::record_peer, 1);
            if env.codec.lossy() {
                let mut sent = own.clone();
                env.codec_transform(sender, &mut sent, None, &mut scratch);
                wire[sender] = Some(sent);
            } else {
                // Serialization-drift tripwire (no-op unless enabled).
                env.wire_round_trip_check(own, None, own);
            }
            if trained[target].is_some() {
                inbox[target] = Some(sender); // newest-wins
            }
        }
        let mut next = Vec::with_capacity(n);
        for (receiver, incoming) in inbox.iter().enumerate() {
            let own = trained[receiver].as_ref().unwrap_or(&self.models[receiver]);
            match *incoming {
                Some(sender) => {
                    let sent = wire[sender]
                        .as_ref()
                        .or(trained[sender].as_ref())
                        .expect("sender participated");
                    if average {
                        let mut mixed = own.clone();
                        mixed.lerp(sent, 0.5);
                        next.push(mixed);
                    } else {
                        next.push(sent.clone());
                    }
                }
                None => next.push(own.clone()),
            }
        }
        self.models = next;
    }

    fn round_rings(&mut self, env: &FlEnv, round: usize, order: RingOrder, average: bool) {
        let cohort = self.cohort(env, round);
        if cohort.is_empty() {
            return;
        }
        let interval = env.slowest_latency_at(&cohort, round);
        let policy = if average {
            ReceivePolicy::AverageThenTrain
        } else {
            ReceivePolicy::TrainReceived
        };
        // Latency classes: fixed on a static fleet, re-clustered from the
        // online cohort's *current* latencies on a dynamic one (the classes
        // follow the online set and the shared modulator's scale).
        let classes: Vec<Vec<usize>> = if env.dynamics_active() {
            let k = match self.mode {
                DecentralMode::ClusteredRings { k, .. } => k,
                _ => 1,
            };
            let mut rng = rng_from_seed(seed_mix(env.seed, round as u64, 0xC105, 1));
            FedHiSyn::cluster_participants(env, &cohort, k, round, &mut rng)
        } else {
            self.classes.clone()
        };

        // Dismember the model vector: classes partition the cohort, so
        // each ring *moves* its members' models into the relay instead of
        // cloning them (mirroring `RingStart::Shared` for FedHiSyn).
        // Offline devices keep their `Some` slot and are restored as-is.
        let mut pool: Vec<Option<ParamVec>> = std::mem::take(&mut self.models)
            .into_iter()
            .map(Some)
            .collect();

        // Decentralized rings have no shared broadcast, so lossy `TopK`
        // deltas are taken from zero (`base: None`).
        let lanes = RingRound {
            env,
            round,
            vt_base: self.virtual_time,
            interval,
            policy,
            base: None,
        };
        struct RingJob {
            lane: Lane,
            /// Moved into the relay by the parallel pass…
            start: Option<Vec<ParamVec>>,
            /// …which stores the interval's outcome here.
            done: Option<RingOutcome>,
        }
        let mut jobs: Vec<RingJob> = classes
            .iter()
            .enumerate()
            .map(|(ci, members)| {
                let lat: Vec<f64> = members.iter().map(|&d| env.latency_at(d, round)).collect();
                let mut rng = rng_from_seed(seed_mix(env.seed, round as u64, ci as u64, 0x4149));
                let ring = Ring::build(members, &lat, order, &mut rng);
                let start: Vec<ParamVec> = ring
                    .order()
                    .iter()
                    .map(|&d| pool[d].take().expect("classes partition the cohort"))
                    .collect();
                RingJob {
                    lane: lanes.lane(ring),
                    start: Some(start),
                    done: None,
                }
            })
            .collect();
        // One job per chunk: each worker gets exclusive `&mut` access, so
        // the start models move into the relay without any locking.
        jobs.par_chunks_mut(1).enumerate().for_each(|(ci, chunk)| {
            let job = &mut chunk[0];
            let start = job.start.take().expect("each ring job runs exactly once");
            job.done = Some(lanes.run_lane(ci, &job.lane, RingStart::PerPosition(start)));
        });
        // Decentral rings never rebuild proactively (no coordinator holds
        // the fault scores), so the rebuild count is zero.
        lanes.settle(jobs.iter().filter_map(|job| job.done.as_ref()), 0);
        for job in jobs {
            // Carry the buffer state (pending arrivals) into the next
            // interval — this is what keeps models circulating when a
            // device only fits one step per interval. Dead positions
            // carry the model they held at the crash.
            let nexts = job.done.expect("every ring job ran").next_models;
            for (&device, model) in job.lane.ring.order().iter().zip(nexts) {
                pool[device] = Some(model);
            }
        }
        self.models = pool
            .into_iter()
            .map(|slot| slot.expect("every device model restored after the round"))
            .collect();
        self.virtual_time += interval;
    }

    /// Mean device-model accuracy on the global test split (the paper's
    /// Figure 2–4 metric).
    pub fn mean_accuracy(&self, env: &FlEnv) -> f32 {
        let sum: f32 = self
            .models
            .par_iter()
            .map(|params| evaluate_on_test(env, params))
            .sum();
        sum / self.models.len() as f32
    }

    /// Mean accuracy of the devices in latency class `class` (Figure 4
    /// reports the fastest class, i.e. `class = 0`).
    pub fn class_accuracy(&self, env: &FlEnv, class: usize) -> f32 {
        let members = &self.classes[class];
        let sum: f32 = members
            .par_iter()
            .map(|&d| evaluate_on_test(env, &self.models[d]))
            .sum();
        sum / members.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use fedhisyn_data::{DatasetProfile, Partition, Scale};
    use fedhisyn_simnet::HeterogeneityModel;

    fn env(devices: usize, h: f64) -> FlEnv {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(devices)
            .partition(Partition::Dirichlet { beta: 0.5 })
            .heterogeneity(if h <= 1.0 {
                HeterogeneityModel::Homogeneous
            } else {
                HeterogeneityModel::Uniform { h }
            })
            .local_epochs(1)
            .seed(5)
            .build()
            .build_env()
    }

    #[test]
    fn isolated_devices_learn_something() {
        let env = env(4, 1.0);
        let mut sim = DecentralSim::new(&env, DecentralMode::Isolated);
        let acc0 = sim.mean_accuracy(&env);
        sim.run_round(&env, 0);
        let acc1 = sim.mean_accuracy(&env);
        assert!(
            acc1 > acc0,
            "isolated training should improve: {acc0} -> {acc1}"
        );
    }

    #[test]
    fn ring_exchange_moves_models() {
        let env = env(4, 1.0);
        let mut sim = DecentralSim::new(
            &env,
            DecentralMode::ClusteredRings {
                k: 1,
                order: RingOrder::SmallToLarge,
                average: false,
            },
        );
        let before = sim.models()[0].clone();
        sim.run_round(&env, 0);
        assert_ne!(sim.models()[0], before);
        assert!(env.meter.snapshot().peer_transfers >= 4.0);
    }

    #[test]
    fn random_exchange_is_a_permutation() {
        let env = env(5, 1.0);
        let mut sim = DecentralSim::new(&env, DecentralMode::RandomExchange { average: false });
        sim.run_round(&env, 0);
        // All models valid (non-empty) after the permutation hand-off.
        assert!(sim.models().iter().all(|m| m.len() == env.param_count()));
    }

    #[test]
    fn clustered_rings_cluster_count() {
        let env = env(9, 10.0);
        let sim = DecentralSim::new(
            &env,
            DecentralMode::ClusteredRings {
                k: 3,
                order: RingOrder::SmallToLarge,
                average: false,
            },
        );
        assert!(sim.classes().len() <= 3 && !sim.classes().is_empty());
        let total: usize = sim.classes().iter().map(|c| c.len()).sum();
        assert_eq!(total, 9);
        // Fastest class first.
        if sim.classes().len() >= 2 {
            let fast_max = sim.classes()[0]
                .iter()
                .map(|&d| env.latency(d))
                .fold(0.0, f64::max);
            let next_min = sim.classes()[1]
                .iter()
                .map(|&d| env.latency(d))
                .fold(f64::MAX, f64::min);
            assert!(fast_max <= next_min + 1e-9);
        }
    }

    #[test]
    fn class_accuracy_indexes_classes() {
        let env = env(6, 10.0);
        let mut sim = DecentralSim::new(
            &env,
            DecentralMode::ClusteredRings {
                k: 2,
                order: RingOrder::SmallToLarge,
                average: false,
            },
        );
        sim.run_round(&env, 0);
        let acc = sim.class_accuracy(&env, 0);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn mode_labels() {
        assert_eq!(DecentralMode::Isolated.label(), "no-comm");
        assert_eq!(
            DecentralMode::RandomExchange { average: true }.label(),
            "random+avg"
        );
        assert_eq!(
            DecentralMode::ClusteredRings {
                k: 2,
                order: RingOrder::SmallToLarge,
                average: false
            }
            .label(),
            "ring-s2l(k=2)"
        );
    }

    #[test]
    fn deterministic_rounds() {
        let run = || {
            let env = env(4, 5.0);
            let mut sim = DecentralSim::new(
                &env,
                DecentralMode::ClusteredRings {
                    k: 2,
                    order: RingOrder::SmallToLarge,
                    average: false,
                },
            );
            sim.run_round(&env, 0);
            sim.models().to_vec()
        };
        assert_eq!(run(), run());
    }

    fn churned_env(devices: usize, seed: u64) -> FlEnv {
        use fedhisyn_fleet::FleetDynamics;
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(devices)
            .partition(Partition::Dirichlet { beta: 0.5 })
            .heterogeneity(HeterogeneityModel::Uniform { h: 5.0 })
            .fleet(FleetDynamics {
                mid_round_failure: 0.1,
                ..FleetDynamics::planet_scale(0.3)
            })
            .local_epochs(1)
            .seed(seed)
            .build()
            .build_env()
    }

    #[test]
    fn offline_devices_keep_their_models_across_rounds() {
        let env = churned_env(10, 17);
        for mode in [
            DecentralMode::Isolated,
            DecentralMode::RandomExchange { average: false },
            DecentralMode::ClusteredRings {
                k: 2,
                order: RingOrder::SmallToLarge,
                average: false,
            },
        ] {
            let mut sim = DecentralSim::new(&env, mode);
            for round in 0..3 {
                let before: Vec<ParamVec> = sim.models().to_vec();
                sim.run_round(&env, round);
                for (d, prev) in before.iter().enumerate() {
                    if !env.online(d, round) {
                        assert_eq!(
                            &sim.models()[d],
                            prev,
                            "offline device {d} must keep its model ({mode:?}, round {round})"
                        );
                    }
                    assert_eq!(sim.models()[d].len(), env.param_count());
                }
            }
        }
    }

    #[test]
    fn faulty_ring_rounds_complete_and_stay_deterministic() {
        use fedhisyn_simnet::FaultConfig;
        let run = || {
            let env = ExperimentConfig::builder(DatasetProfile::MnistLike)
                .scale(Scale::Smoke)
                .devices(6)
                .partition(Partition::Dirichlet { beta: 0.5 })
                .heterogeneity(HeterogeneityModel::Uniform { h: 5.0 })
                .faults(FaultConfig::lossy(0.1))
                .local_epochs(1)
                .seed(13)
                .build()
                .build_env();
            let mut sim = DecentralSim::new(
                &env,
                DecentralMode::ClusteredRings {
                    k: 2,
                    order: RingOrder::SmallToLarge,
                    average: false,
                },
            );
            for round in 0..2 {
                sim.run_round(&env, round);
            }
            (sim.models().to_vec(), env.meter.snapshot())
        };
        let (models1, traffic1) = run();
        let (models2, traffic2) = run();
        assert_eq!(models1, models2, "fault schedules replay bit-identically");
        assert_eq!(traffic1, traffic2);
        assert!(models1.iter().all(|m| !m.is_empty()));
    }

    /// The lane driver's `base: None` branch with everything on at once:
    /// serverless rings under a lossy codec (deltas from zero, per-device
    /// error feedback), a lossy wire and a churning, crashing fleet.
    #[test]
    fn compressed_lossy_churned_rings_complete_and_replay() {
        use fedhisyn_fleet::FleetDynamics;
        use fedhisyn_nn::Codec;
        use fedhisyn_simnet::FaultConfig;
        let run = || {
            let env = ExperimentConfig::builder(DatasetProfile::MnistLike)
                .scale(Scale::Smoke)
                .devices(12)
                .partition(Partition::Dirichlet { beta: 0.5 })
                .heterogeneity(HeterogeneityModel::Uniform { h: 5.0 })
                .fleet(FleetDynamics {
                    mid_round_failure: 0.1,
                    ..FleetDynamics::planet_scale(0.3)
                })
                .codec(Codec::Int8)
                .faults(FaultConfig::lossy(0.2))
                .local_epochs(1)
                .seed(19)
                .build()
                .build_env();
            let mut sim = DecentralSim::new(
                &env,
                DecentralMode::ClusteredRings {
                    k: 2,
                    order: RingOrder::SmallToLarge,
                    average: false,
                },
            );
            for round in 0..4 {
                sim.run_round(&env, round);
                assert!(
                    sim.models()
                        .iter()
                        .all(|m| m.len() == env.param_count() && m.is_finite()),
                    "round {round} must leave every device a whole model"
                );
            }
            (sim.models().to_vec(), env.meter.snapshot())
        };
        let (models, traffic) = run();
        assert_eq!((models, traffic), run(), "same seed, same bits");
        assert!(traffic.peer_transfers > 0.0);
        assert!(traffic.wire_bytes < traffic.raw_bytes, "Int8 frames");
        assert!(traffic.retransmit_bytes > 0.0, "20% loss costs retries");
    }

    #[test]
    fn dynamic_ring_rounds_are_deterministic() {
        let run = || {
            let env = churned_env(8, 31);
            let mut sim = DecentralSim::new(
                &env,
                DecentralMode::ClusteredRings {
                    k: 3,
                    order: RingOrder::SmallToLarge,
                    average: false,
                },
            );
            for round in 0..3 {
                sim.run_round(&env, round);
            }
            sim.models().to_vec()
        };
        assert_eq!(run(), run());
    }
}

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
//!
//! The observations come from a static fleet over a lossless, perfect
//! wire, and that is the only environment [`DecentralSim::new`] accepts.
//! Every device trains every round for the slowest device's latency.
//! Rings run through the same relay as FedHiSyn's class rings; no
//! communication is the ring mode with one-member rings.

use fedhisyn_cluster::kmeans_1d;
use fedhisyn_nn::{NoHook, ParamVec};
use fedhisyn_simnet::TrafficMeter;
use fedhisyn_tensor::rng_from_seed;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::env::{seed_mix, FlEnv};
use crate::local::{evaluate_on_test, train_steps};
use crate::ring_sim::{Lane, ReceivePolicy, RingOutcome, RingRound, RingStart};
use crate::topology::{Ring, RingOrder};

/// A decentralized communication mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecentralMode {
    /// No communication: every device refines its own model (Figure 2's
    /// "no communication" control). Runs as one-member rings.
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
    /// Latency classes (fastest first), fixed for the whole run: one
    /// ring each.
    classes: Vec<Vec<usize>>,
    /// Round interval: the slowest device's latency.
    interval: f64,
    /// Virtual time accumulated across ring rounds (stamps telemetry
    /// spans on the experiment clock).
    virtual_time: f64,
}

impl DecentralSim {
    /// Initialise: every device starts from the same seed model, and
    /// clustering (when the mode needs it) is performed once since
    /// latencies are static.
    ///
    /// # Panics
    ///
    /// When `env` is not the paper's §3.2 environment: its fleet must be
    /// static, its codec lossless and its wire perfect.
    pub fn new(env: &FlEnv, mode: DecentralMode) -> Self {
        assert!(
            !env.dynamics_active(),
            "serverless modes need a static fleet"
        );
        assert!(!env.codec.lossy(), "serverless modes need a lossless codec");
        assert!(!env.faults_active(), "serverless modes need a perfect wire");
        let n = env.n_devices();
        let mut init_rng = rng_from_seed(seed_mix(env.seed, 0xDECE, 0, 0));
        let init = env.spec.build(&mut init_rng).params();
        let latencies: Vec<f64> = (0..n).map(|d| env.latency(d)).collect();
        let classes = match mode {
            DecentralMode::Isolated => (0..n).map(|d| vec![d]).collect(),
            DecentralMode::RandomExchange { .. } => vec![(0..n).collect()],
            DecentralMode::ClusteredRings { k, .. } => {
                let mut rng = rng_from_seed(seed_mix(env.seed, 0xC105, 0, 0));
                kmeans_1d(&latencies, k.min(n), 100, &mut rng).groups_sorted_by_centroid()
            }
        };
        DecentralSim {
            mode,
            models: vec![init; n],
            classes,
            interval: latencies.into_iter().fold(0.0f64, f64::max),
            virtual_time: 0.0,
        }
    }

    /// Latency classes (fastest first): one per device for
    /// [`DecentralMode::Isolated`], one containing everyone for
    /// [`DecentralMode::RandomExchange`].
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Current per-device models.
    pub fn models(&self) -> &[ParamVec] {
        &self.models
    }

    /// Execute one round: one interval of the slowest device's latency.
    pub fn run_round(&mut self, env: &FlEnv, round: usize) {
        match self.mode {
            DecentralMode::Isolated => self.round_rings(env, round, RingOrder::SmallToLarge, false),
            DecentralMode::RandomExchange { average } => self.round_random(env, round, average),
            DecentralMode::ClusteredRings { order, average, .. } => {
                self.round_rings(env, round, order, average)
            }
        }
    }

    fn round_random(&mut self, env: &FlEnv, round: usize, average: bool) {
        let n = env.n_devices();
        let trained: Vec<ParamVec> = self
            .models
            .par_iter()
            .enumerate()
            .map(|(d, params)| {
                let steps = env.step_budget(d, self.interval, round);
                train_steps(env, d, params, steps, round, &NoHook)
            })
            .collect();
        // Random communication (paper Fig. 2): every device sends to a
        // uniformly random *other* device — NOT a permutation, so targets
        // collide. A receiver keeps only the newest arrival (Alg. 1's
        // buffer semantics); devices that receive nothing keep their own
        // model (Eq. 7). This lineage loss is exactly why the paper finds
        // random communication inferior to the ring.
        let mut rng = rng_from_seed(seed_mix(env.seed, round as u64, 0x9A9D, 0));
        let mut inbox: Vec<Option<usize>> = vec![None; n];
        for (sender, sent) in trained.iter().enumerate() {
            let mut target = rng.gen_range(0..n);
            if n > 1 && target == sender {
                target = (target + 1) % n;
            }
            env.charge(TrafficMeter::record_peer, 1);
            // Serialization-drift tripwire (no-op unless enabled).
            env.wire_round_trip_check(sent, sent);
            inbox[target] = Some(sender); // newest-wins
        }
        // Each trained model has at most two readers: the one receiver it
        // is the newest arrival of, and its own device, which keeps it
        // when averaging or when nothing arrived. It moves to its one
        // reader; only a model that is both kept and received is copied.
        let mut own: Vec<Option<ParamVec>> = trained.into_iter().map(Some).collect();
        let received: Vec<Option<ParamVec>> = inbox
            .iter()
            .map(|incoming| {
                incoming.map(|sender| {
                    let keeps = average || inbox[sender].is_none();
                    let model = if keeps {
                        own[sender].clone()
                    } else {
                        own[sender].take()
                    };
                    model.expect("a model moves to at most one receiver")
                })
            })
            .collect();
        self.models = own
            .into_iter()
            .zip(received)
            .map(|(own, received)| match received {
                Some(received) if average => {
                    let mut mixed = own.expect("averaging keeps its model");
                    mixed.lerp(&received, 0.5);
                    mixed
                }
                Some(received) => received,
                None => own.expect("a device without an arrival keeps its model"),
            })
            .collect();
    }

    fn round_rings(&mut self, env: &FlEnv, round: usize, order: RingOrder, average: bool) {
        let policy = if average {
            ReceivePolicy::AverageThenTrain
        } else {
            ReceivePolicy::TrainReceived
        };
        let lanes = RingRound {
            env,
            round,
            vt_base: self.virtual_time,
            interval: self.interval,
            policy,
        };
        struct RingJob {
            lane: Lane,
            /// Moved into the relay by the parallel pass…
            start: Vec<ParamVec>,
            /// …which stores the interval's outcome here.
            done: Option<RingOutcome>,
        }
        // Classes partition the fleet, so each ring *moves* its members'
        // models into the relay instead of cloning them (mirroring
        // `RingStart::Shared` for FedHiSyn).
        let mut jobs: Vec<RingJob> = self
            .classes
            .iter()
            .enumerate()
            .map(|(ci, members)| {
                let lat: Vec<f64> = members.iter().map(|&d| env.latency_at(d, round)).collect();
                let mut rng = rng_from_seed(seed_mix(env.seed, round as u64, ci as u64, 0x4149));
                let ring = Ring::build(members, &lat, order, &mut rng);
                let start = ring
                    .order()
                    .iter()
                    .map(|&d| std::mem::take(&mut self.models[d]))
                    .collect();
                RingJob {
                    lane: lanes.lane(ring),
                    start,
                    done: None,
                }
            })
            .collect();
        // One job per chunk: each worker gets exclusive `&mut` access, so
        // the start models move into the relay without any locking.
        jobs.par_chunks_mut(1).enumerate().for_each(|(ci, chunk)| {
            let job = &mut chunk[0];
            let start = RingStart::PerPosition(std::mem::take(&mut job.start));
            job.done = Some(lanes.run_lane(ci, &job.lane, start));
        });
        // Rings are never rebuilt: the wire is perfect.
        lanes.settle(jobs.iter().filter_map(|job| job.done.as_ref()), 0);
        for job in jobs {
            // Carry the buffer state (pending arrivals) into the next
            // interval — this is what keeps models circulating when a
            // device only fits one step per interval.
            let nexts = job.done.expect("every ring job ran").models;
            for (&device, model) in job.lane.ring.order().iter().zip(nexts) {
                self.models[device] = model;
            }
        }
        self.virtual_time += self.interval;
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

    #[test]
    #[should_panic(expected = "static fleet")]
    fn new_rejects_a_churning_fleet() {
        use fedhisyn_fleet::FleetDynamics;
        let env = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(4)
            .fleet(FleetDynamics::churn(0.3))
            .seed(5)
            .build()
            .build_env();
        DecentralSim::new(&env, DecentralMode::Isolated);
    }
}

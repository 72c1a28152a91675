//! FedHiSyn — Algorithm 1 of the paper.
//!
//! The round's two server transfers (steps 1 and 5 below) cross the
//! [`ServerLink`] every baseline uses; what is FedHiSyn's own is between
//! them — latency clustering and the ring relay, where each hop is one
//! [`local_train_owned`](crate::local::local_train_owned) step.

use std::collections::HashMap;

use fedhisyn_cluster::kmeans_1d;
use fedhisyn_nn::ParamVec;
use fedhisyn_telemetry::{Phase, SpanCtx};
use fedhisyn_tensor::{rng_from_seed, TensorRng};
use rayon::prelude::*;

use crate::aggregate::{AggregationRule, Contribution};
use crate::algorithm::{FlAlgorithm, RoundContext};
use crate::config::ExperimentConfig;
use crate::env::{seed_mix, FlEnv};
use crate::link::ServerLink;
use crate::ring_sim::{Lane, ReceivePolicy, RingOutcome, RingRound, RingStart};
use crate::topology::{Ring, RingOrder};

/// Scores below this are dropped from the EWMA map, keeping it sized to
/// the devices that actually misbehave rather than the whole cohort.
const FAULT_SCORE_FLOOR: f64 = 1e-3;

/// EWMA fault score at which a device becomes a *suspect*: before an
/// interval starts, its class ring is rebuilt with all suspects demoted to
/// the tail ([`Ring::build_with_suspects`]), so flaky edges stop taxing
/// the healthy head of the ring. Only consulted when the environment's
/// fault plan is active.
const SUSPECT_THRESHOLD: f64 = 2.0;

/// EWMA smoothing factor for per-device fault scores
/// (`score ← (1-α)·score + α·faults_observed_this_round`).
const FAULT_ALPHA: f64 = 0.25;

/// The FedHiSyn algorithm.
///
/// Per round (Alg. 1): the server broadcasts the global model to the
/// participating devices, clusters them into `k` classes by latency
/// (k-means, fastest class first), organizes each class into a
/// small-to-large ring, lets every class train-and-relay for the round
/// interval `R` (the slowest participant's latency), then synchronously
/// aggregates every device's newest model. Broadcast and uploads cross
/// the same [`ServerLink`] as every baseline's.
#[derive(Debug)]
pub struct FedHiSyn {
    /// Number of latency classes `K`.
    pub k: usize,
    /// Server aggregation rule (Eq. 9 by default, Eq. 10 optional).
    pub aggregation: AggregationRule,
    participation: f64,
    global: ParamVec,
    /// Per-device EWMA of frames lost at that device's receiving edge.
    /// Keyed by device id and pruned below [`FAULT_SCORE_FLOOR`], so it
    /// stays O(flaky devices) — never O(fleet).
    fault_scores: HashMap<usize, f64>,
    link: ServerLink,
}

impl FedHiSyn {
    /// Build from an experiment config with `k` latency classes.
    pub fn new(cfg: &ExperimentConfig, k: usize) -> Self {
        assert!(k > 0, "need at least one class");
        FedHiSyn {
            k,
            aggregation: cfg.aggregation,
            participation: cfg.participation,
            global: cfg.initial_params(),
            fault_scores: HashMap::new(),
            link: ServerLink::default(),
        }
    }

    /// Current EWMA fault score of `device` (0.0 when it has never been
    /// observed misbehaving).
    pub fn fault_score(&self, device: usize) -> f64 {
        self.fault_scores.get(&device).copied().unwrap_or(0.0)
    }

    /// Current global model.
    pub fn global(&self) -> &ParamVec {
        &self.global
    }

    /// Cluster `participants` into at most `k` latency classes, fastest
    /// class first (Alg. 1 line 4), from the latencies *observed at*
    /// `round` — on a dynamic fleet the classes follow the online set and
    /// the shared modulator's scale; on a static fleet this reads the base
    /// profile and is bit-identical to clustering once.
    fn cluster_participants(
        env: &FlEnv,
        participants: &[usize],
        k: usize,
        round: usize,
        rng: &mut TensorRng,
    ) -> Vec<Vec<usize>> {
        let latencies: Vec<f64> = participants
            .iter()
            .map(|&d| env.latency_at(d, round))
            .collect();
        let k_eff = k.min(participants.len());
        let clustering = kmeans_1d(&latencies, k_eff, 100, rng);
        clustering
            .groups_sorted_by_centroid()
            .into_iter()
            .map(|group| group.into_iter().map(|i| participants[i]).collect())
            .collect()
    }
}

impl FlAlgorithm for FedHiSyn {
    fn name(&self) -> String {
        "FedHiSyn".to_string()
    }

    fn participation(&self) -> f64 {
        self.participation
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        let env = ctx.env;
        let s = ctx.participants;
        let round = ctx.round;

        // 1. Broadcast W_G to every participant. Under a lossy codec every
        //    device receives the same decoded reconstruction; the rings
        //    start from it — shared, the relay copies it lazily, once per
        //    position.
        self.link.broadcast(env, &self.global, s.len());
        let global = self.link.received(&self.global);

        // 2. Cluster by the latencies observed *this round*, fastest
        //    class first.
        let cluster_wall = env.telemetry.wall_start();
        let classes = Self::cluster_participants(env, s, self.k, round, ctx.rng);
        env.telemetry.span(
            Phase::Clustering,
            round as u32,
            SpanCtx::ROOT,
            (ctx.vt_base, ctx.vt_base),
            cluster_wall,
        );

        // 3. Round interval: slowest participant overall ("the time
        //    required to complete the local training of the slowest
        //    device", §6.1), at its current effective capacity.
        let interval = env.slowest_latency_at(s, round);

        // 4. Build the rings up front (cheap, needs &mut rng), then run
        //    every class in parallel — classes are independent rings.
        let vt_base = ctx.vt_base;
        let lanes = RingRound {
            env,
            round,
            vt_base,
            interval,
            // Devices train received models directly (Eq. 6).
            policy: ReceivePolicy::TrainReceived,
        };
        struct ClassRing {
            lane: Lane,
            mean_time: f64,
            /// ≥1 member was a transport suspect, so this ring's order
            /// was proactively rebuilt around them.
            rebuilt: bool,
        }
        let ring_seed = seed_mix(env.seed, round as u64, 0x1216, 0);
        let rings: Vec<ClassRing> = classes
            .iter()
            .enumerate()
            .map(|(ci, members)| {
                let latencies: Vec<f64> =
                    members.iter().map(|&d| env.latency_at(d, round)).collect();
                let mut rng = rng_from_seed(seed_mix(ring_seed, ci as u64, 0, 0));
                // Proactive failure-aware rebuild: devices whose EWMA
                // fault score crossed the threshold are demoted to the
                // ring tail *before* the interval starts. With no
                // suspects (every fault-free run) this is bit-identical
                // to the plain `Ring::build`.
                let suspects: Vec<bool> = if env.faults_active() && !self.fault_scores.is_empty() {
                    members
                        .iter()
                        .map(|d| self.fault_score(*d) >= SUSPECT_THRESHOLD)
                        .collect()
                } else {
                    Vec::new()
                };
                let ring = Ring::build_with_suspects(
                    members,
                    &latencies,
                    // The paper's small-to-large ring order.
                    RingOrder::SmallToLarge,
                    &mut rng,
                    &suspects,
                );
                ClassRing {
                    lane: lanes.lane(ring),
                    mean_time: latencies.iter().sum::<f64>() / latencies.len() as f64,
                    rebuilt: suspects.iter().any(|&s| s),
                }
            })
            .collect();
        let rebuilds = rings.iter().filter(|r| r.rebuilt).count() as u64;

        let outcomes: Vec<RingOutcome> = rings
            .par_iter()
            .enumerate()
            .map(|(ci, class)| lanes.run_lane(ci, &class.lane, RingStart::Shared(global)))
            .collect();

        // 5. Record ring traffic and upload every *surviving* device's
        //    newest model (a mid-interval casualty cannot upload).
        let agg_wall = env.telemetry.wall_start();
        lanes.settle(&outcomes, rebuilds);
        let mut uploaded: Vec<(ParamVec, usize, f64)> = Vec::with_capacity(s.len());
        for (outcome, class) in outcomes.into_iter().zip(&rings) {
            let ring = &class.lane.ring;
            // EWMA fault score per receiving device (proactive-rebuild
            // signal): score ← (1-α)·score + α·faults_observed. Scores
            // below the floor are pruned so the map stays O(flaky
            // devices) even across million-device fleets.
            if env.faults_active() {
                for (pos, &device) in ring.order().iter().enumerate() {
                    let observed = outcome.transport.faults_at.get(pos).copied().unwrap_or(0);
                    let old = self.fault_scores.get(&device).copied().unwrap_or(0.0);
                    let score = (1.0 - FAULT_ALPHA) * old + FAULT_ALPHA * observed as f64;
                    if score >= FAULT_SCORE_FLOOR {
                        self.fault_scores.insert(device, score);
                    } else {
                        self.fault_scores.remove(&device);
                    }
                }
            }
            for (pos, mut model) in outcome.models.into_iter().enumerate() {
                if !outcome.alive[pos] {
                    continue;
                }
                let device = ring.order()[pos];
                // The server aggregates what the upload decodes to.
                self.link.upload(env, device, &mut model);
                uploaded.push((model, env.shard_len(device), class.mean_time));
            }
        }

        // 6. Synchronous aggregation (Eq. 9 / Eq. 10). If every
        //    participant died mid-interval the server has nothing to
        //    aggregate and keeps the current global.
        if !uploaded.is_empty() {
            let contributions: Vec<Contribution<'_>> = uploaded
                .iter()
                .map(|(params, samples, mean_time)| Contribution {
                    params,
                    samples: *samples,
                    class_mean_time: *mean_time,
                })
                .collect();
            self.global = self.aggregation.aggregate(&contributions);
        }
        // Aggregation happens at interval end on the virtual clock
        // (synchronous barrier), whatever its wall-clock cost.
        env.telemetry.span(
            Phase::Aggregation,
            round as u32,
            SpanCtx::ROOT,
            (vt_base + interval, vt_base + interval),
            agg_wall,
        );
        self.global.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::run_experiment;
    use crate::config::ExperimentConfig;
    use fedhisyn_data::{DatasetProfile, Partition, Scale};

    fn smoke_config(devices: usize, k: usize) -> (ExperimentConfig, FedHiSyn) {
        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(devices)
            .partition(Partition::Dirichlet { beta: 0.5 })
            .rounds(2)
            .local_epochs(1)
            .seed(11)
            .build();
        let algo = FedHiSyn::new(&cfg, k);
        (cfg, algo)
    }

    #[test]
    fn clustering_splits_fast_and_slow() {
        let (cfg, _) = smoke_config(8, 2);
        let env = cfg.build_env();
        let participants: Vec<usize> = (0..8).collect();
        let mut rng = rng_from_seed(0);
        let classes = FedHiSyn::cluster_participants(&env, &participants, 2, 0, &mut rng);
        assert!(classes.len() <= 2 && !classes.is_empty());
        let total: usize = classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, 8, "every participant lands in exactly one class");
        if classes.len() == 2 {
            // Fastest class first.
            let max_fast = classes[0]
                .iter()
                .map(|&d| env.latency(d))
                .fold(0.0, f64::max);
            let min_slow = classes[1]
                .iter()
                .map(|&d| env.latency(d))
                .fold(f64::MAX, f64::min);
            assert!(max_fast <= min_slow + 1e-9);
        }
    }

    #[test]
    fn one_round_improves_over_init() {
        let (cfg, mut algo) = smoke_config(6, 2);
        let mut env = cfg.build_env();
        let init_acc = crate::local::evaluate_on_test(&env, algo.global());
        let rec = run_experiment(&mut algo, &mut env, 2);
        assert!(
            rec.final_accuracy() > init_acc,
            "training should beat init: {init_acc} -> {}",
            rec.final_accuracy()
        );
    }

    #[test]
    fn ring_transfers_happen() {
        let (cfg, mut algo) = smoke_config(6, 1);
        let mut env = cfg.build_env();
        let rec = run_experiment(&mut algo, &mut env, 1);
        assert!(
            rec.rounds[0].peer_transfers >= 6.0,
            "each device sends at least one ring transfer, got {}",
            rec.rounds[0].peer_transfers
        );
    }

    #[test]
    fn k_larger_than_participants_is_clamped() {
        let (cfg, mut algo) = smoke_config(4, 50);
        let mut env = cfg.build_env();
        let rec = run_experiment(&mut algo, &mut env, 1);
        assert_eq!(rec.rounds.len(), 1);
    }

    #[test]
    fn global_model_stays_finite() {
        let (cfg, mut algo) = smoke_config(6, 3);
        let mut env = cfg.build_env();
        let _ = run_experiment(&mut algo, &mut env, 2);
        assert!(algo.global().is_finite());
    }

    #[test]
    fn runs_end_to_end_under_full_fleet_dynamics() {
        use fedhisyn_fleet::FleetDynamics;
        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(12)
            .partition(Partition::Dirichlet { beta: 0.5 })
            .fleet(FleetDynamics {
                mid_round_failure: 0.15,
                ..FleetDynamics::planet_scale(0.2)
            })
            .rounds(3)
            .local_epochs(1)
            .seed(23)
            .build();
        let mut env = cfg.build_env();
        let mut algo = FedHiSyn::new(&cfg, 3);
        let rec = run_experiment(&mut algo, &mut env, 3);
        assert_eq!(rec.rounds.len(), 3);
        assert!(algo.global().is_finite());
        // Mid-round failures mean uploads can fall short of participants.
        let total_participants: usize = rec.rounds.iter().map(|r| r.participants).sum();
        assert!(rec.rounds[2].uploads <= total_participants as f64);
        // Determinism under dynamics.
        let mut env2 = cfg.build_env();
        let mut algo2 = FedHiSyn::new(&cfg, 3);
        let rec2 = run_experiment(&mut algo2, &mut env2, 3);
        assert_eq!(rec, rec2, "dynamic fleets must stay bit-reproducible");
    }

    fn faulty_config(seed: u64, faults: fedhisyn_simnet::FaultConfig) -> ExperimentConfig {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(8)
            .partition(Partition::Dirichlet { beta: 0.5 })
            .rounds(3)
            .local_epochs(1)
            .seed(seed)
            .faults(faults)
            .build()
    }

    #[test]
    fn faulty_run_completes_every_round_and_charges_retransmits() {
        let cfg = faulty_config(31, fedhisyn_simnet::FaultConfig::lossy(0.1));
        let mut env = cfg.build_env();
        let mut algo = FedHiSyn::new(&cfg, 2);
        let rec = run_experiment(&mut algo, &mut env, 3);
        assert_eq!(rec.rounds.len(), 3, "faults must never abort a round");
        assert!(algo.global().is_finite());
        let retransmit: f64 = rec
            .rounds
            .iter()
            .map(|r| r.telemetry.retransmit_bytes)
            .sum();
        assert!(
            retransmit > 0.0,
            "10 % loss over 3 rounds should cost at least one retry frame"
        );
        // Retransmissions are wire overhead, not extra logical transfers:
        // goodput accounting (peer_transfers) is unchanged by retries.
        for r in &rec.rounds {
            assert!(r.peer_transfers >= r.participants as f64);
        }
    }

    #[test]
    fn fault_scores_accumulate_and_decay() {
        let cfg = faulty_config(5, fedhisyn_simnet::FaultConfig::lossy(0.45));
        let mut env = cfg.build_env();
        let mut algo = FedHiSyn::new(&cfg, 2);
        let _ = run_experiment(&mut algo, &mut env, 3);
        // A 45% loss floor over three rounds of 8-device rings must leave
        // at least one device with a nonzero EWMA score.
        let scored: Vec<f64> = (0..8).map(|d| algo.fault_score(d)).collect();
        assert!(
            scored.iter().any(|&s| s > 0.0),
            "heavy loss should mark at least one receiver, got {scored:?}"
        );
        assert!(scored.iter().all(|&s| s.is_finite()));
    }

    #[test]
    fn fault_free_plans_leave_no_scores_and_never_rebuild() {
        let (cfg, mut algo) = smoke_config(6, 2);
        let mut env = cfg.build_env();
        let _ = run_experiment(&mut algo, &mut env, 2);
        assert!(
            algo.fault_scores.is_empty(),
            "fault-free runs must not allocate score state"
        );
    }

    #[test]
    fn suspect_threshold_triggers_proactive_rebuild() {
        // Certain loss charges a receiving edge 1 + MAX_RETRIES = 4 lost
        // frames per hop, so the EWMA (α = 0.25) of a receiver fed every
        // interval crosses the threshold within the first rounds and the
        // later rounds rebuild their rings.
        let cfg = faulty_config(9, fedhisyn_simnet::FaultConfig::lossy(1.0));
        let mut env = cfg.build_env();
        env.telemetry = fedhisyn_telemetry::TelemetrySink::enabled(1 << 12);
        let mut algo = FedHiSyn::new(&cfg, 2);
        let rec = run_experiment(&mut algo, &mut env, 3);
        assert_eq!(rec.rounds.len(), 3);
        assert!(
            (0..8).any(|d| algo.fault_score(d) >= SUSPECT_THRESHOLD),
            "certain loss must push scores past the rebuild threshold"
        );
        let metrics = env.telemetry.telemetry().expect("enabled").metrics();
        let rebuilds = metrics
            .counters
            .iter()
            .find(|(name, _)| *name == "transport.rebuilds")
            .map_or(0, |(_, n)| *n);
        assert!(rebuilds > 0, "suspects must trigger a ring rebuild");
        // Every transfer gave up, so no foreign model was ever delivered;
        // devices refine their own broadcast copy (Eq. 7) and still upload.
        assert!(rec.rounds[2].uploads > 0.0);
    }
}

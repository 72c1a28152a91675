//! TAFedAvg — fully asynchronous FedAvg.

use fedhisyn_core::local::local_train_plain_owned;
use fedhisyn_core::{ExperimentConfig, FlAlgorithm, RoundContext, ServerLink};
use fedhisyn_nn::ParamVec;
use fedhisyn_simnet::{EventQueue, SimTime};

/// TAFedAvg (§6.1): each device uploads as soon as it finishes local
/// training; the server immediately mixes the arrival into the global
/// model and hands the fresh global back. Within one reporting round
/// (interval `R`), a fast device may complete many upload/download cycles
/// — which is exactly why Table 1 charges TAFedAvg several transfers per
/// round and why its accuracy degrades at low participation (stale, fast-
/// device-biased updates).
///
/// The server mix is `W_G ← (1 − α)·W_G + α·W_i` with a staleness
/// discount `α = α₀ / (1 + staleness)`, where staleness counts server
/// updates since the device last pulled — FedAsync's polynomial rule with
/// exponent 1. Every pull within a round is coded against the round-start
/// broadcast, the one model all participants are known to hold.
#[derive(Debug)]
pub struct TAFedAvg {
    participation: f64,
    /// Base mixing rate `α₀`.
    pub alpha: f32,
    global: ParamVec,
    link: ServerLink,
}

impl TAFedAvg {
    /// Build from an experiment config with the default `α₀ = 0.4`.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        TAFedAvg {
            participation: cfg.participation,
            alpha: 0.4,
            global: cfg.initial_params(),
            link: ServerLink::default(),
        }
    }

    /// Current global model.
    pub fn global(&self) -> &ParamVec {
        &self.global
    }
}

#[derive(Debug)]
struct Completion {
    device: usize,
    /// Server version the device trained against (for staleness).
    based_on: u64,
    /// Per-device step counter (for RNG salting).
    step: u64,
}

impl FlAlgorithm for TAFedAvg {
    fn name(&self) -> String {
        "TAFedAvg".to_string()
    }

    fn participation(&self) -> f64 {
        self.participation
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        let env = ctx.env;
        let s = ctx.participants;
        let round = ctx.round;
        let interval = env.slowest_latency_at(s, round);

        // Every participant pulls the global once at round start.
        self.link.broadcast(env, &self.global, s.len());

        // Device-local state: the model each device is currently training.
        let mut device_model = vec![self.link.received(&self.global).clone(); s.len()];
        let mut server_version: u64 = 0;
        // A device that crashes mid-round stops reporting at its failure
        // time: completions past the cutoff never reach the server.
        let cutoff: Vec<Option<f64>> = s
            .iter()
            .map(|&d| env.fail_time(d, round, interval))
            .collect();

        let mut queue: EventQueue<Completion> = EventQueue::new();
        for (slot, &d) in s.iter().enumerate() {
            queue.push(
                SimTime::new(env.latency_at(d, round)),
                Completion {
                    device: slot,
                    based_on: 0,
                    step: 0,
                },
            );
        }

        // Process completions until the interval closes. Devices whose
        // completion lands past the interval do not upload this round
        // (they will restart from the fresh global next round, matching
        // interval-reporting async systems).
        let deadline = SimTime::new(interval * 1.000_001); // include t == R
        while let Some((now, ev)) = queue.pop_before(deadline) {
            let slot = ev.device;
            let d = s[slot];
            if let Some(t) = cutoff[slot] {
                if now.seconds() > t {
                    // The device died mid-step: this completion (and the
                    // device's remaining round) never happens.
                    continue;
                }
            }
            // The device finishes training the model it started earlier.
            // The slot's buffer is moved into the trainer (it is dead
            // until the device pulls a fresh global). The salt only needs
            // to be unique per (device, step); the device id and round are
            // mixed inside local_train.
            let mut trained = local_train_plain_owned(
                env,
                d,
                std::mem::take(&mut device_model[slot]),
                env.local_epochs,
                round,
                ev.step,
            );
            // Upload + server mix with staleness discount.
            self.link.upload(env, d, &mut trained);
            let staleness = (server_version - ev.based_on) as f32;
            let alpha = self.alpha / (1.0 + staleness);
            self.global.lerp(&trained, alpha);
            server_version += 1;
            // Pull the fresh global and go again if time remains.
            let next_done = now + env.latency_at(d, round);
            if next_done <= deadline {
                device_model[slot] = self.link.pull(env, &self.global);
                queue.push(
                    next_done,
                    Completion {
                        device: slot,
                        based_on: server_version,
                        step: ev.step + 1,
                    },
                );
            }
        }
        self.global.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_core::{run_experiment, ExperimentConfig};
    use fedhisyn_data::{DatasetProfile, Partition, Scale};
    use fedhisyn_simnet::HeterogeneityModel;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(5)
            .partition(Partition::Iid)
            .heterogeneity(HeterogeneityModel::Uniform { h: 5.0 })
            .local_epochs(1)
            .seed(41)
            .build()
    }

    #[test]
    fn learns_on_iid_data() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = TAFedAvg::new(&cfg);
        let init = fedhisyn_core::local::evaluate_on_test(&env, algo.global());
        let rec = run_experiment(&mut algo, &mut env, 4);
        assert!(
            rec.final_accuracy() > init + 0.08,
            "should improve over init: {init} -> {}",
            rec.final_accuracy()
        );
    }

    #[test]
    fn uploads_exceed_one_per_device_under_heterogeneity() {
        let cfg = cfg();
        let mut env = cfg.build_env();
        let mut algo = TAFedAvg::new(&cfg);
        let rec = run_experiment(&mut algo, &mut env, 1);
        // Fast devices complete several cycles within the slowest device's
        // interval, so uploads > participants.
        assert!(
            rec.rounds[0].uploads > rec.rounds[0].participants as f64,
            "async uploads {} should exceed participants {}",
            rec.rounds[0].uploads,
            rec.rounds[0].participants
        );
    }

    #[test]
    fn staleness_discount_shrinks_alpha() {
        // Directly check the mixing-rate formula.
        let alpha0 = 0.4f32;
        let fresh = alpha0 / (1.0 + 0.0);
        let stale = alpha0 / (1.0 + 9.0);
        assert_eq!(fresh, 0.4);
        assert!((stale - 0.04).abs() < 1e-6);
    }
}

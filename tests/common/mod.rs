//! The seven algorithms of Table 1 as inputs of one loop.
#![allow(dead_code)] // every test binary uses its own subset

use fedhisyn::prelude::*;
use fedhisyn::simnet::TrafficSnapshot;

/// `FlAlgorithm::name()` of every algorithm in the workspace.
pub const ALGORITHMS: [&str; 7] = [
    "FedHiSyn", "FedAvg", "TFedAvg", "TAFedAvg", "FedProx", "FedAT", "SCAFFOLD",
];

/// The named algorithm; `k` is FedHiSyn's class count and FedAT's tier
/// count.
pub fn algorithm(cfg: &ExperimentConfig, name: &str, k: usize) -> Box<dyn FlAlgorithm> {
    match name {
        "FedHiSyn" => Box::new(FedHiSyn::new(cfg, k)),
        "FedAvg" => Box::new(FedAvg::new(cfg)),
        "TFedAvg" => Box::new(TFedAvg::new(cfg)),
        "TAFedAvg" => Box::new(TAFedAvg::new(cfg)),
        "FedProx" => Box::new(FedProx::new(cfg)),
        "FedAT" => Box::new(FedAT::new(cfg, k)),
        "SCAFFOLD" => Box::new(Scaffold::new(cfg)),
        other => panic!("unknown algorithm {other}"),
    }
}

/// What one run leaves behind.
#[derive(Debug, PartialEq)]
pub struct Run {
    pub record: RunRecord,
    pub traffic: TrafficSnapshot,
    /// The global model the last round returned.
    pub global: ParamVec,
}

/// Run the named algorithm for `cfg.rounds` rounds on a fresh environment.
pub fn run(cfg: &ExperimentConfig, name: &str, k: usize) -> Run {
    struct KeepGlobal(Box<dyn FlAlgorithm>, ParamVec);
    impl FlAlgorithm for KeepGlobal {
        fn name(&self) -> String {
            self.0.name()
        }
        fn participation(&self) -> f64 {
            self.0.participation()
        }
        fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
            self.1 = self.0.round(ctx);
            self.1.clone()
        }
        fn round_duration(&self, env: &FlEnv, participants: &[usize], round: usize) -> f64 {
            self.0.round_duration(env, participants, round)
        }
    }
    let mut env = cfg.build_env();
    let mut algo = KeepGlobal(algorithm(cfg, name, k), cfg.initial_params());
    let record = run_experiment(&mut algo, &mut env, cfg.rounds);
    Run {
        record,
        traffic: env.meter.snapshot(),
        global: algo.1,
    }
}

//! # fedhisyn
//!
//! A from-scratch Rust reproduction of **FedHiSyn** (Li et al., ICPP 2022):
//! a hierarchical synchronous federated-learning framework for resource and
//! data heterogeneity.
//!
//! FedHiSyn clusters devices by compute capacity, relays models around
//! latency-ordered rings inside each cluster, and synchronously aggregates
//! every cluster's models at fixed intervals — getting the accuracy
//! benefits of device-to-device training without the straggler penalty.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `fedhisyn-core` | the FedHiSyn algorithm, rings, aggregation, runner |
//! | [`baselines`] | `fedhisyn-baselines` | FedAvg, TFedAvg, TAFedAvg, FedProx, FedAT, SCAFFOLD |
//! | [`nn`] | `fedhisyn-nn` | layers, losses, SGD, flat parameter vectors |
//! | [`data`] | `fedhisyn-data` | synthetic datasets, IID/Dirichlet partitioning |
//! | [`cluster`] | `fedhisyn-cluster` | k-means device tiering |
//! | [`fleet`] | `fedhisyn-fleet` | deterministic fleet dynamics: churn, mid-ring failures, fleet-wide load |
//! | [`simnet`] | `fedhisyn-simnet` | virtual clock, event queue, latency models, traffic meter |
//! | [`telemetry`] | `fedhisyn-telemetry` | run counters, round-lifecycle spans, Perfetto trace export |
//! | [`tensor`] | `fedhisyn-tensor` | shaped f32 storage; GEMM, slice and quantisation kernels |
//!
//! # Example
//!
//! ```
//! use fedhisyn::prelude::*;
//!
//! // An 8-device smoke-scale experiment on non-IID MNIST-like data.
//! let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
//!     .devices(8)
//!     .partition(Partition::Dirichlet { beta: 0.3 })
//!     .rounds(2)
//!     .local_epochs(1)
//!     .seed(42)
//!     .build();
//! let mut env = cfg.build_env();
//! let mut algo = FedHiSyn::new(&cfg, 2);
//! let record = run_experiment(&mut algo, &mut env, cfg.rounds);
//! println!("final accuracy: {:.1}%", record.final_accuracy() * 100.0);
//! ```

pub use fedhisyn_baselines as baselines;
pub use fedhisyn_cluster as cluster;
pub use fedhisyn_core as core;
pub use fedhisyn_data as data;
pub use fedhisyn_fleet as fleet;
pub use fedhisyn_nn as nn;
pub use fedhisyn_simnet as simnet;
pub use fedhisyn_telemetry as telemetry;
pub use fedhisyn_tensor as tensor;

/// One-stop imports for applications.
pub mod prelude {
    pub use fedhisyn_baselines::{FedAT, FedAvg, FedProx, Scaffold, TAFedAvg, TFedAvg};
    pub use fedhisyn_core::decentral::{DecentralMode, DecentralSim};
    pub use fedhisyn_core::{
        run_experiment, AggregationRule, DataMode, ExperimentConfig, FedHiSyn, FlAlgorithm, FlEnv,
        RingOrder, RoundContext, RoundRecord, RunRecord,
    };
    pub use fedhisyn_data::{DataSource, Dataset, DatasetProfile, Partition, Scale, ShardPlan};
    pub use fedhisyn_fleet::{AvailabilityModel, FleetDynamics, MarkovCapacity};
    pub use fedhisyn_nn::{ModelSpec, ParamVec};
    pub use fedhisyn_simnet::HeterogeneityModel;
    pub use fedhisyn_telemetry::{RoundTelemetry, TelemetrySink};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .devices(4)
            .rounds(1)
            .local_epochs(1)
            .seed(1)
            .build();
        let mut env = cfg.build_env();
        let mut algo = FedHiSyn::new(&cfg, 2);
        let rec = run_experiment(&mut algo, &mut env, 1);
        assert_eq!(rec.rounds.len(), 1);
    }
}

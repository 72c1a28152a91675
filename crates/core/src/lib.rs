//! FedHiSyn — hierarchical synchronous federated learning.
//!
//! This crate implements the paper's primary contribution (Li et al.,
//! ICPP 2022): a two-layer FL framework where the server clusters devices
//! by local-training latency (top layer) and devices inside a cluster
//! relay models around a latency-ordered ring, training the received
//! weights directly on their own data (bottom layer). Every `R` virtual
//! seconds all devices upload synchronously and the server aggregates.
//!
//! Entry points:
//!
//! * [`FedHiSyn`] — the algorithm (Algorithm 1 of the paper),
//! * [`FlAlgorithm`] / [`run_experiment`] — the trait + runner shared with
//!   the baseline crate,
//! * [`FlEnv`] / [`ExperimentConfig`] — simulated fleet construction,
//! * [`ServerLink`] / [`local::train_steps`] — how any algorithm moves a
//!   model to or from the server and runs a device's local work,
//! * [`decentral`] — the server-less training modes behind the paper's
//!   motivating Figures 2–4,
//! * [`metrics`] — round records and Table 1's transmission accounting.
//!
//! # Quickstart
//!
//! ```
//! use fedhisyn_core::{ExperimentConfig, FedHiSyn, run_experiment};
//! use fedhisyn_data::{DatasetProfile, Partition, Scale};
//!
//! let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
//!     .scale(Scale::Smoke)
//!     .devices(8)
//!     .partition(Partition::Dirichlet { beta: 0.3 })
//!     .rounds(2)
//!     .seed(7)
//!     .build();
//! let mut env = cfg.build_env();
//! let mut algo = FedHiSyn::new(&cfg, 2);
//! let record = run_experiment(&mut algo, &mut env, cfg.rounds);
//! assert_eq!(record.rounds.len(), 2);
//! ```

pub mod aggregate;
pub mod algorithm;
pub mod config;
pub mod decentral;
pub mod engine;
pub mod env;
pub mod fedhisyn;
pub mod link;
pub mod local;
pub mod metrics;
mod ring_sim;
pub mod topology;

pub use aggregate::AggregationRule;
pub use algorithm::{run_experiment, FlAlgorithm, RoundContext};
pub use config::{DataMode, ExperimentConfig, ExperimentConfigBuilder};
pub use engine::ExecutionEngine;
pub use env::{seed_mix, DeviceBank, FlEnv};
pub use fedhisyn::FedHiSyn;
pub use link::ServerLink;
pub use metrics::{RoundRecord, RunRecord};
pub use topology::{Ring, RingOrder};

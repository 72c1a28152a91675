//! Synthetic federated datasets for the FedHiSyn reproduction.
//!
//! The paper evaluates on MNIST, EMNIST-Letters, CIFAR10 and CIFAR100.
//! Those archives are not available in this offline environment, so this
//! crate synthesizes class-conditional datasets with matched *structure*:
//! the same class counts, comparable dimensionality, and a difficulty
//! ordering MNIST < EMNIST < CIFAR10 < CIFAR100 controlled by prototype
//! separation and noise.
//!
//! The crate also implements the paper's data-heterogeneity machinery:
//!
//! * [`Partition::Iid`] — uniform random split across devices,
//! * [`Partition::Dirichlet`] — label-skew `Dir(β)` split (the paper's
//!   Non-IID setting, following Li et al., "Federated Learning on Non-IID
//!   Data Silos"),
//!
//! plus the Eq. 4 label-divergence statistic used in the paper's §3.2
//! motivation.

pub mod dataset;
pub mod partition;
pub mod profile;
pub mod shard;
pub mod source;
pub mod stats;
pub mod synth;

pub use dataset::Dataset;
pub use partition::{partition_indices, Partition};
pub use profile::{DatasetProfile, Scale};
pub use shard::{ShardCache, ShardPlan};
pub use source::{DataSource, ShardRef};
pub use synth::{FederatedDataset, SynthConfig};

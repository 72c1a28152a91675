//! Baseline federated-learning algorithms from the paper's evaluation.
//!
//! All six comparators of Table 1, built on the same [`fedhisyn_core`]
//! environment and runner so comparisons are apples-to-apples. Like
//! FedHiSyn, each moves its models over a [`fedhisyn_core::ServerLink`] —
//! charged for the codec's frame and trained on what that frame decodes
//! to — and runs its devices through the one device pass,
//! [`fedhisyn_core::local::train_steps`]; the interval-collected four
//! share one round body and differ in a step rule and a gradient hook:
//!
//! | Algorithm | Kind | Notes |
//! |---|---|---|
//! | [`FedAvg`] | interval-collected | devices use the maximum achievable local work per round (§6.1) |
//! | [`TFedAvg`] | strictly synchronous | every device trains exactly `E` epochs, then idles for the straggler |
//! | [`TAFedAvg`] | fully asynchronous | devices upload on completion; the server mixes immediately |
//! | [`FedProx`] | synchronous | proximal term `μ‖w − w_G‖²` against client drift |
//! | [`FedAT`] | semi-asynchronous tiers | synchronous inside a tier, asynchronous across tiers |
//! | [`Scaffold`] | synchronous | control variates; every exchange costs 2 model-equivalents |

mod common;
pub mod fedat;
pub mod fedavg;
pub mod fedprox;
pub mod scaffold;
pub mod tafedavg;
pub mod tfedavg;

pub use fedat::FedAT;
pub use fedavg::FedAvg;
pub use fedprox::FedProx;
pub use scaffold::Scaffold;
pub use tafedavg::TAFedAvg;
pub use tfedavg::TFedAvg;

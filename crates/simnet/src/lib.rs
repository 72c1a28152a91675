//! Discrete-event simulation of heterogeneous federated devices.
//!
//! The paper evaluates FedHiSyn on a simulated fleet of 100 edge devices
//! whose local-training latencies differ by up to `H = t_max/t_min = 10`.
//! This crate is that testbed substrate:
//!
//! * [`SimTime`] / [`EventQueue`] — a virtual clock and a deterministic
//!   time-ordered event queue (ties broken by insertion sequence),
//! * [`sample_latencies`] / [`HeterogeneityModel`] — per-device
//!   latencies (virtual seconds per local step) with the paper's uniform
//!   heterogeneity factor, and [`ProfileSource`], which serves them
//!   densely or derives them lazily,
//! * [`TrafficMeter`] — model-transmission accounting behind the paper's
//!   "number of transmitted models" metric (Table 1),
//! * [`FaultPlan`] — deterministic per-edge frame loss derived purely
//!   from the seed, answered by one fixed retry-with-backoff policy,
//! * [`seed_mix`] / [`unit()`] — the stateless seed derivation every crate
//!   above this one draws its random streams from.

pub mod device;
pub mod event;
pub mod fault;
pub mod seed;
pub mod time;
pub mod traffic;

pub use device::{sample_latencies, HeterogeneityModel, ProfileSource};
pub use event::EventQueue;
pub use fault::{FaultConfig, FaultPlan};
pub use seed::{seed_mix, unit};
pub use time::SimTime;
pub use traffic::{TrafficMeter, TrafficSnapshot};

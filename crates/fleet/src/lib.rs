//! Deterministic fleet dynamics for heterogeneous federated simulation.
//!
//! The paper (and the seed reproduction) freezes the fleet: latencies are
//! sampled once, every device participates every round, and rings never
//! lose a member. Real edge fleets are nothing like that — devices churn
//! in and out of reachability, a relay partner can die with a model in
//! flight, and load rises and falls across the whole fleet at once. This
//! crate is the substrate for simulating that **without giving up
//! bit-reproducibility**:
//!
//! * [`FleetDynamics`] — declarative config: dropout / rejoin churn
//!   ([`AvailabilityModel`]), mid-interval failures, whose held model the
//!   ring forwards to the dead device's live successor, and a fleet-wide
//!   latency modulator ([`ModulatorChain`], e.g. off-peak / peak / burst)
//!   that scales every device's latency alike.
//! * [`FleetModel`] — the realised trajectory. Every random decision is
//!   a pure hash of `(seed, round, device, role)`; each device's
//!   availability chain advances round-by-round from its own stream and
//!   is realised **lazily** (64-way sharded, one cursor per device
//!   queried — never O(fleet), never O(rounds)), so the same seed and
//!   config always produce the same fleet history regardless of query
//!   order, thread count or platform.
//! * [`sample_online_cohort`] — streaming rejection sampling of a K-device
//!   online cohort in O(K) expected work, the piece that makes
//!   million-device rounds cost O(cohort) end to end.
//! * [`ReferenceFleet`] — the dense whole-fleet-per-round realisation,
//!   kept as the executable specification the lazy path is proven
//!   bit-identical against.
//!
//! # Determinism contract
//!
//! `FleetDynamics::default()` is the static fleet: [`FleetModel`] then
//! short-circuits every query (`multiplier = 1.0`, `online = true`,
//! `fail_frac = None`) without touching the trace, which keeps default
//! experiments bit-identical to the pre-dynamics implementation — the
//! workspace's equivalence tests assert exactly that. Active dynamics
//! are reproducible in the same sense as the rest of the stack: one
//! `u64` seed pins the entire fleet trajectory.

pub mod dynamics;
pub mod model;
pub mod reference;
pub mod sampling;

pub use dynamics::{AvailabilityModel, FleetDynamics, ModulatorChain};
pub use model::FleetModel;
pub use reference::ReferenceFleet;
pub use sampling::sample_online_cohort;

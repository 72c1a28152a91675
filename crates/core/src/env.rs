//! The simulated federated environment shared by all algorithms.
//!
//! [`FlEnv`] is what an algorithm reads: the architecture, each device's
//! shard, the fleet's effective latencies ([`FlEnv::step_budget`] turns
//! them into a round's step count) and the meter. It does not expose a
//! way to charge the meter: models move over a
//! [`ServerLink`](crate::link::ServerLink) or the ring relay, which charge
//! a transfer and run the wire codec on it in one call, and devices train
//! through [`train_steps`](crate::local::train_steps).

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use fedhisyn_data::{DataSource, Dataset, ShardRef};
use fedhisyn_fleet::FleetModel;
use fedhisyn_nn::{wire, Codec, CodecScratch, ModelSpec, ParamVec, SgdConfig};
pub use fedhisyn_simnet::seed_mix;
use fedhisyn_simnet::{FaultPlan, TrafficMeter};
use fedhisyn_telemetry::TelemetrySink;

/// Lock shards in a [`DeviceBank`] (device id modulo).
const BANK_SHARDS: usize = 64;

/// Per-device state that outlives a transfer: one [`ParamVec`] per
/// device, checked out with [`DeviceBank::take`] and handed back with
/// [`DeviceBank::store`]. The environment keeps one — the error-feedback
/// residual of lossy wire codecs ([`FlEnv::residuals`]: the mass a
/// device's last encode dropped, re-injected into its next transmission —
/// see `fedhisyn_nn::wire::codec_transform_in_place`).
///
/// Storage is a fixed number of lock-sharded maps keyed by device id, so
/// a bank costs O(devices actually touched) — O(cohort) per round — not
/// O(fleet), and is O(1) to construct against a million-device fleet.
/// Devices run concurrently but each device sits in at most one ring
/// position at a time, so a shard mutex is only contended between
/// different devices that happen to collide, and a device's entry is
/// never raced — determinism holds at any thread count.
/// `take`/`store` move the buffer rather than cloning it.
#[derive(Debug)]
pub struct DeviceBank {
    /// Lock-sharded `device → state` maps.
    shards: Vec<Mutex<HashMap<usize, ParamVec>>>,
}

impl DeviceBank {
    /// An empty bank. O(1) to construct regardless of fleet size; memory
    /// grows only with devices that actually store state.
    pub fn new() -> Self {
        DeviceBank {
            shards: (0..BANK_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// `device`'s lock shard.
    fn shard(&self, device: usize) -> MutexGuard<'_, HashMap<usize, ParamVec>> {
        self.shards[device % BANK_SHARDS]
            .lock()
            .expect("device bank shard poisoned")
    }

    /// Check out `device`'s state (`None` when nothing is stored yet).
    pub fn take(&self, device: usize) -> Option<ParamVec> {
        self.shard(device).remove(&device)
    }

    /// Hand `device`'s state back.
    pub fn store(&self, device: usize, state: ParamVec) {
        self.shard(device).insert(device, state);
    }
}

impl Default for DeviceBank {
    fn default() -> Self {
        DeviceBank::new()
    }
}

/// Everything an FL algorithm needs to run one experiment:
/// the model architecture, each device's private shard, the global test
/// split, the fleet's latency profiles and the transmission meter.
///
/// The environment is shared immutably across rayon workers during a
/// round ([`TrafficMeter`] has interior mutability), which keeps
/// parallel device updates data-race-free by construction.
#[derive(Debug)]
pub struct FlEnv {
    /// Model architecture every device instantiates.
    pub spec: ModelSpec,
    /// Private training shards, dense (one materialised [`Dataset`] per
    /// device) or lazily realised on demand from a pure plan — see
    /// [`DataSource`].
    pub data: DataSource,
    /// Global held-out test split.
    pub test: Dataset,
    /// Time-varying fleet conditions layered on the base profiles: churn,
    /// mid-round failures and a fleet-wide latency multiplier. The default
    /// ([`FleetModel::static_fleet`]) short-circuits every query, keeping
    /// static experiments bit-identical to the pre-dynamics code.
    pub fleet: FleetModel,
    /// Transmission accounting (Table 1 metric).
    pub meter: TrafficMeter,
    /// Local epochs per training step (`E`, the paper uses 5).
    pub local_epochs: usize,
    /// Mini-batch size (the paper uses 50).
    pub batch_size: usize,
    /// Optimizer settings (the paper uses plain SGD, lr 0.1).
    pub sgd: SgdConfig,
    /// Master experiment seed; all per-round randomness derives from it.
    pub seed: u64,
    /// Wire codec every transfer is encoded with ([`Codec::F32`] by
    /// default — bit-identical to the pre-codec engine). Lossy codecs
    /// pair with [`FlEnv::residuals`] for error feedback and charge
    /// *encoded* bytes through the meter while [`TrafficSnapshot::raw_bytes`]
    /// keeps the full-precision ledger for the compression ratio.
    ///
    /// [`TrafficSnapshot::raw_bytes`]: fedhisyn_simnet::TrafficSnapshot
    pub codec: Codec,
    /// Per-device error-feedback residual accumulators. Only a lossy
    /// [`FlEnv::codec`] stores any; under [`Codec::F32`] the bank stays
    /// empty and no transfer locks it.
    pub residuals: DeviceBank,
    /// Deterministic wire-fault plan governing every ring relay.
    /// [`FaultPlan::none`] (the default) injects nothing and is
    /// bit-identical to a build without the transport layer; a non-trivial
    /// plan turns each hop into a retry-with-backoff loop in virtual time
    /// (see `RingRound::relay` in `ring_sim`).
    pub faults: FaultPlan,
    /// When set, the runner samples a **fixed-size cohort** of this many
    /// online devices per round by streaming rejection sampling
    /// ([`fedhisyn_fleet::sample_online_cohort`]) — O(cohort) work, never
    /// iterating the fleet — instead of the paper's per-device Bernoulli
    /// participation. `None` (the default) keeps the legacy O(fleet)
    /// Bernoulli sampler and its exact historical draw stream.
    pub cohort: Option<usize>,
    /// Instrumentation sink for round-lifecycle spans and runtime
    /// metrics. [`TelemetrySink::disabled`] (the default) reduces every
    /// recording call to an inlined `None` branch, preserving the
    /// zero-alloc steady-state round.
    pub telemetry: TelemetrySink,
}

impl FlEnv {
    /// Number of devices in the fleet: the shard count of
    /// [`FlEnv::data`], O(1) in both data modes.
    pub fn n_devices(&self) -> usize {
        self.data.n_devices()
    }

    /// Parameter count of the shared architecture.
    pub fn param_count(&self) -> usize {
        self.spec.param_count()
    }

    /// `device`'s private training shard. Dense mode borrows (free);
    /// lazy mode returns a cache-resident realisation (an allocation-free
    /// `Arc` bump on a hit).
    pub fn shard(&self, device: usize) -> ShardRef<'_> {
        self.data.shard(device)
    }

    /// `device`'s shard size without realising any features — O(1).
    pub fn shard_len(&self, device: usize) -> usize {
        self.data.shard_len(device)
    }

    /// `device`'s class histogram without realising any features —
    /// O(classes). What label-aware clustering should consume.
    pub fn class_histogram(&self, device: usize) -> Vec<usize> {
        self.data.class_histogram(device)
    }

    /// Base latency of device `id` (the static profile, served by the
    /// fleet's profile source).
    pub fn latency(&self, id: usize) -> f64 {
        self.fleet.base_latency(id)
    }

    /// Effective latency of device `id` at `round`: the base profile
    /// scaled by the round's fleet-wide multiplier (1.0 on a static fleet,
    /// so the static path is bit-identical to [`FlEnv::latency`]).
    pub fn latency_at(&self, id: usize, round: usize) -> f64 {
        self.fleet.latency(id, round)
    }

    /// Whether device `id` is reachable at the start of `round`.
    pub fn online(&self, id: usize, round: usize) -> bool {
        self.fleet.online(id, round)
    }

    /// Virtual time within a round of duration `interval` at which device
    /// `id` crashes, or `None` when it survives the round.
    pub fn fail_time(&self, id: usize, round: usize, interval: f64) -> Option<f64> {
        self.fleet.fail_frac(id, round).map(|f| f * interval)
    }

    /// True when any fleet-dynamics process is active.
    pub fn dynamics_active(&self) -> bool {
        !self.fleet.is_static()
    }

    /// The slowest *effective* latency among `members` at `round` (the
    /// paper's round duration: "the time required to complete the local
    /// training of the slowest device").
    pub fn slowest_latency_at(&self, members: &[usize], round: usize) -> f64 {
        members
            .iter()
            .map(|&i| self.latency_at(i, round))
            .fold(0.0f64, f64::max)
    }

    /// Local-training steps (of `E` epochs each) `device` completes within
    /// a round of duration `interval` at its *effective* capacity for
    /// `round` — the paper's "maximum achievable training time in a round"
    /// (§6.1) and Alg. 1's budget loop (`R_ci > 0`): at least one.
    pub fn step_budget(&self, device: usize, interval: f64, round: usize) -> usize {
        steps_within(interval, self.latency_at(device, round))
    }

    /// Encoded size of one model transfer on the wire under the active
    /// codec (header + checksum + codec payload; see `fedhisyn_nn::wire`).
    /// This is what every transfer charges to `wire_bytes`.
    pub fn frame_bytes(&self) -> usize {
        wire::encoded_len_with(self.codec, self.param_count())
    }

    /// Full-precision frame size of the same transfer — the `raw_bytes`
    /// ledger feeding [`TrafficSnapshot::compression_ratio`]. Equal to
    /// [`FlEnv::frame_bytes`] under [`Codec::F32`].
    ///
    /// [`TrafficSnapshot::compression_ratio`]: fedhisyn_simnet::TrafficSnapshot::compression_ratio
    pub fn raw_frame_bytes(&self) -> usize {
        wire::encoded_len(self.param_count())
    }

    /// Record `n` transfers at the active codec's frame size in the
    /// ledger `record` selects — [`TrafficMeter::record_upload`],
    /// `record_download` and `record_peer` count model-equivalents,
    /// `record_retransmit` counts retry frames (bytes only).
    /// Crate-private: algorithms reach the meter through
    /// [`ServerLink`](crate::link::ServerLink) and the ring relay, which
    /// also put the model through the codec the charge assumes.
    pub(crate) fn charge(&self, record: fn(&TrafficMeter, u64, usize, usize, usize), n: u64) {
        record(
            &self.meter,
            n,
            self.param_count(),
            self.frame_bytes(),
            self.raw_frame_bytes(),
        );
    }

    /// True when the environment's fault plan injects anything.
    pub fn faults_active(&self) -> bool {
        !self.faults.is_none()
    }

    /// Pass one outgoing transfer from `device` through the active wire
    /// codec, with `device`'s entry of [`FlEnv::residuals`] as the
    /// error-feedback accumulator (all zeros on a first transmission) —
    /// see [`FlEnv::codec_transform_with`]. A lossless codec keeps no
    /// residual, so under [`Codec::F32`] the bank is never locked.
    pub(crate) fn codec_transform(&self, device: usize, params: &mut ParamVec) {
        let mut residual = if self.codec.lossy() {
            self.residuals.take(device)
        } else {
            None
        };
        self.codec_transform_with(&mut residual, params);
        if let Some(residual) = residual {
            self.residuals.store(device, residual);
        }
    }

    /// Pass one outgoing transfer through the active wire codec: `params`
    /// becomes exactly what the receiver decodes and the dropped mass
    /// lands in the sender's error-feedback `residual` (`None` = nothing
    /// dropped yet). That the in-place transform equals the encode→decode
    /// byte path bit for bit is the codec's property, pinned by
    /// `fedhisyn_nn::wire`'s `fused_transform_matches_byte_path` test.
    ///
    /// Under [`Codec::F32`] neither the payload nor the residual is
    /// touched — bit-identity with the pre-codec engine.
    pub(crate) fn codec_transform_with(
        &self,
        residual: &mut Option<ParamVec>,
        params: &mut ParamVec,
    ) {
        if !self.codec.lossy() {
            return;
        }
        let residual = residual.get_or_insert_with(|| ParamVec::zeros(params.len()));
        let scratch = &mut CodecScratch::new();
        wire::codec_transform_in_place(self.codec, params, None, residual, scratch);
    }
}

/// Steps of `latency` virtual seconds that fit an interval, rounded up and
/// never zero — the one place the step budget is computed.
pub(crate) fn steps_within(interval: f64, latency: f64) -> usize {
    ((interval / latency).ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_simnet::HeterogeneityModel;
    use fedhisyn_tensor::{rng_from_seed, Tensor};

    fn tiny_env() -> FlEnv {
        let mk = |n: usize| {
            Dataset::new(
                Tensor::zeros(vec![n, 4]),
                (0..n).map(|i| i % 2).collect(),
                2,
            )
        };
        let mut rng = rng_from_seed(0);
        let profiles =
            fedhisyn_simnet::sample_latencies(3, HeterogeneityModel::Uniform { h: 10.0 }, &mut rng);
        FlEnv {
            spec: ModelSpec::mlp(&[4, 4, 2]),
            data: DataSource::Dense(vec![mk(4), mk(6), mk(8)]),
            test: mk(10),
            fleet: FleetModel::static_fleet(&profiles),
            meter: TrafficMeter::new(),
            local_epochs: 5,
            batch_size: 50,
            sgd: SgdConfig::default(),
            seed: 42,
            codec: Codec::F32,
            residuals: DeviceBank::new(),
            faults: FaultPlan::none(),
            cohort: None,
            telemetry: TelemetrySink::disabled(),
        }
    }

    #[test]
    fn accessors() {
        let env = tiny_env();
        assert_eq!(env.n_devices(), 3);
        assert_eq!(env.param_count(), 4 * 4 + 4 + 4 * 2 + 2);
        assert!(env.latency(0) >= 1.0);
    }

    #[test]
    fn slowest_latency_is_max_over_members() {
        let env = tiny_env();
        let all = env.slowest_latency_at(&[0, 1, 2], 0);
        assert_eq!(all, (0..3).map(|i| env.latency(i)).fold(0.0, f64::max));
        assert_eq!(env.slowest_latency_at(&[1], 0), env.latency(1));
        assert_eq!(env.slowest_latency_at(&[], 0), 0.0);
    }

    #[test]
    fn achievable_steps_scale_with_interval() {
        let env = tiny_env();
        let t0 = env.latency(0);
        assert_eq!(env.step_budget(0, t0, 0), 1);
        assert_eq!(env.step_budget(0, 3.0 * t0, 0), 3);
        assert_eq!(env.step_budget(0, 0.1 * t0, 0), 1, "minimum one step");
    }

    #[test]
    fn static_fleet_round_queries_match_base_profile() {
        let env = tiny_env();
        assert!(!env.dynamics_active());
        for round in 0..3 {
            for d in 0..3 {
                assert_eq!(env.latency_at(d, round), env.latency(d));
                assert!(env.online(d, round));
                assert_eq!(env.fail_time(d, round, 10.0), None);
            }
        }
    }

    #[test]
    fn charges_account_wire_frames() {
        let env = tiny_env();
        env.charge(TrafficMeter::record_upload, 2);
        env.charge(TrafficMeter::record_download, 1);
        env.charge(TrafficMeter::record_peer, 3);
        let s = env.meter.snapshot();
        assert_eq!(s.uploads, 2.0);
        assert_eq!(s.parameters_moved, 6.0 * env.param_count() as f64);
        assert_eq!(s.wire_bytes, 6.0 * env.frame_bytes() as f64);
        assert_eq!(env.frame_bytes(), wire::encoded_len(env.param_count()));
        assert!(s.framing_overhead() > 0.0, "headers must cost bytes");
    }

    #[test]
    fn device_bank_moves_state_per_device() {
        let bank = DeviceBank::new();
        assert_eq!(bank.take(0), None);
        bank.store(0, ParamVec::from_vec(vec![1.0, 2.0]));
        assert_eq!(bank.take(0).unwrap().as_slice(), &[1.0, 2.0]);
        assert_eq!(bank.take(0), None, "take moves the buffer out");
        assert_eq!(bank.take(1), None);
        // Sharded storage is keyed, not indexed: ids far beyond any dense
        // range work and colliding ids (device % shards) stay distinct.
        bank.store(1_000_000, ParamVec::from_vec(vec![9.0]));
        bank.store(1_000_000 + BANK_SHARDS, ParamVec::from_vec(vec![7.0]));
        assert_eq!(bank.take(1_000_000).unwrap().as_slice(), &[9.0]);
        assert_eq!(
            bank.take(1_000_000 + BANK_SHARDS).unwrap().as_slice(),
            &[7.0]
        );
    }

    #[test]
    fn lossy_codec_splits_encoded_and_raw_ledgers() {
        let mut env = tiny_env();
        env.codec = Codec::Int8;
        env.charge(TrafficMeter::record_peer, 2);
        env.charge(TrafficMeter::record_retransmit, 1);
        let s = env.meter.snapshot();
        assert!(env.frame_bytes() < env.raw_frame_bytes());
        assert_eq!(s.wire_bytes, 3.0 * env.frame_bytes() as f64);
        assert_eq!(s.raw_bytes, 3.0 * env.raw_frame_bytes() as f64);
        // The tiny test model is header-dominated; the full ≥3.5× Int8
        // target is pinned at realistic sizes in `nn::wire`'s tests.
        assert_eq!(
            s.compression_ratio(),
            env.raw_frame_bytes() as f64 / env.frame_bytes() as f64
        );
        assert!(s.compression_ratio() > 1.0);
    }

    #[test]
    fn codec_transform_feeds_residuals() {
        let mut env = tiny_env();
        env.codec = Codec::Int8;
        let mut p = ParamVec::from_vec((0..env.param_count()).map(|i| (i as f32) * 0.01).collect());
        env.codec_transform(1, &mut p);
        // The residual persisted and is re-injected on the next call.
        let r = env.residuals.take(1).expect("first send stored a residual");
        assert!(r.as_slice().iter().any(|&x| x != 0.0));
        env.residuals.store(1, r);
        env.codec_transform(1, &mut p);
    }

    #[test]
    fn f32_codec_transform_is_a_noop() {
        let env = tiny_env();
        let mut p = ParamVec::from_vec(vec![1.25; env.param_count()]);
        let before = p.clone();
        env.codec_transform(0, &mut p);
        assert_eq!(p, before);
        assert_eq!(env.residuals.take(0), None, "F32 keeps no residual");
    }

    #[test]
    fn seed_mix_is_deterministic_and_sensitive() {
        assert_eq!(seed_mix(1, 2, 3, 4), seed_mix(1, 2, 3, 4));
        assert_ne!(seed_mix(1, 2, 3, 4), seed_mix(1, 2, 3, 5));
        assert_ne!(seed_mix(1, 2, 3, 4), seed_mix(1, 2, 4, 3));
        assert_ne!(seed_mix(1, 2, 3, 4), seed_mix(2, 2, 3, 4));
    }

    #[test]
    fn seed_mix_spreads_bits() {
        // Consecutive inputs should produce well-spread outputs: count
        // distinct high bytes over 256 consecutive seeds.
        let mut high_bytes = std::collections::HashSet::new();
        for i in 0..256u64 {
            high_bytes.insert((seed_mix(0, i, 0, 0) >> 56) as u8);
        }
        assert!(
            high_bytes.len() > 150,
            "got {} distinct high bytes",
            high_bytes.len()
        );
    }
}

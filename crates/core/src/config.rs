//! Experiment configuration and environment construction.

use fedhisyn_data::{
    partition_indices, DataSource, Dataset, DatasetProfile, Partition, Scale, ShardPlan,
};
use fedhisyn_fleet::{FleetDynamics, FleetModel};
use fedhisyn_nn::{Codec, ModelSpec, ParamVec, SgdConfig};
use fedhisyn_simnet::{
    sample_latencies, FaultConfig, FaultPlan, HeterogeneityModel, ProfileSource, TrafficMeter,
};
use fedhisyn_tensor::rng_from_seed;
use serde::{Deserialize, Serialize};

use crate::aggregate::AggregationRule;
use crate::env::{seed_mix, DeviceBank, FlEnv};

/// How device shards are produced when the environment is built.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DataMode {
    /// Materialise every shard up front: pooled synthesis followed by the
    /// configured [`Partition`]. The historical path — bit-identical
    /// streams for every existing configuration — and O(fleet) memory.
    Dense,
    /// Realise shards on demand as pure functions of `(seed, device)`:
    /// per-device `Dir(beta)` label mixtures, sample counts in
    /// `[min_samples, max_samples]`, features synthesised only when a
    /// device actually trains, behind a bounded LRU shard cache. Memory
    /// and per-round cost are O(cohort), so training rounds scale to
    /// million-device fleets. (The configured [`Partition`] is unused in
    /// this mode — label skew comes from the per-device mixtures.)
    Lazy {
        /// Dirichlet concentration of the per-device label mixture
        /// (smaller ⇒ more skew, the same β semantics as
        /// [`Partition::Dirichlet`]).
        beta: f64,
        /// Smallest per-device shard.
        min_samples: usize,
        /// Largest per-device shard.
        max_samples: usize,
        /// Shard-cache capacity in shards — size it to the per-round
        /// cohort (a small multiple gives headroom for cohort drift).
        cache_capacity: usize,
    },
}

/// A fully-specified federated experiment.
///
/// Defaults mirror the paper's hyper-parameters (§6.1): learning rate 0.1,
/// mini-batch 50, 5 local epochs, heterogeneity degree `H = 10`, 100%
/// participation, uniform aggregation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Which benchmark dataset (synthetic stand-in) to use.
    pub profile: DatasetProfile,
    /// Paper-scale or smoke-scale dimensions.
    pub scale: Scale,
    /// Fleet size (the paper uses 100).
    pub n_devices: usize,
    /// Per-round device participation probability.
    pub participation: f64,
    /// How data is split across devices.
    pub partition: Partition,
    /// Whether shards are materialised up front or realised lazily.
    pub data_mode: DataMode,
    /// Latency heterogeneity across the fleet.
    pub heterogeneity: HeterogeneityModel,
    /// Time-varying fleet conditions (churn, mid-round failures and the
    /// fleet-wide latency modulator). Defaults to the static fleet, which
    /// reproduces the paper's setting bit-for-bit.
    pub fleet: FleetDynamics,
    /// Communication rounds to run.
    pub rounds: usize,
    /// Local epochs per training step (`E`).
    pub local_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate (devices train with plain SGD, as in the paper).
    pub lr: f32,
    /// Round-trip every ring-relay transfer through the wire codec and
    /// assert bit-identity — a serialization-drift tripwire for CI runs
    /// (off by default: it taxes each hop with an encode/decode). With a
    /// lossy [`Codec`] the assertion compares the fused in-place
    /// transform against the encode→decode byte path per hop.
    pub wire_check: bool,
    /// Wire codec for every model transfer ([`Codec::F32`] by default —
    /// bit-identical to the pre-codec engine). A lossy codec keeps
    /// per-device error-feedback residuals automatically.
    pub codec: Codec,
    /// Deterministic frame loss on every ring relay, each lost frame
    /// retried with bounded exponential backoff in virtual time. `None`
    /// (the default) injects nothing and reproduces the fault-free build
    /// bit-for-bit.
    pub faults: Option<FaultConfig>,
    /// Server aggregation rule for FedHiSyn.
    pub aggregation: AggregationRule,
    /// Master seed (data, partition, participation, training order).
    pub seed: u64,
    /// Override the model architecture (defaults derive from the profile).
    pub model_override: Option<ModelSpec>,
    /// Fixed-size streaming cohort: when set, each round samples exactly
    /// this many online devices in O(cohort) work (rejection sampling over
    /// the hash stream) instead of Bernoulli-sampling every device. `None`
    /// (the default) keeps the paper's per-device participation draw.
    pub cohort: Option<usize>,
}

impl ExperimentConfig {
    /// Start building a config for `profile` with paper defaults.
    pub fn builder(profile: DatasetProfile) -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig {
                profile,
                scale: Scale::Smoke,
                n_devices: 100,
                participation: 1.0,
                partition: Partition::Dirichlet { beta: 0.3 },
                data_mode: DataMode::Dense,
                heterogeneity: HeterogeneityModel::Uniform { h: 10.0 },
                fleet: FleetDynamics::default(),
                rounds: 10,
                local_epochs: 5,
                batch_size: 50,
                lr: 0.1,
                wire_check: false,
                codec: Codec::F32,
                faults: None,
                aggregation: AggregationRule::Uniform,
                seed: 0,
                model_override: None,
                cohort: None,
            },
        }
    }

    /// The model architecture implied by profile and scale (or the
    /// override).
    pub fn model_spec(&self) -> ModelSpec {
        if let Some(spec) = &self.model_override {
            return spec.clone();
        }
        let synth = self.profile.synth_config(self.scale, self.seed);
        let classes = self.profile.classes();
        if self.profile.is_image() {
            let spatial = match synth.input {
                fedhisyn_data::synth::InputKind::Image { spatial, .. } => spatial,
                fedhisyn_data::synth::InputKind::Flat { .. } => unreachable!("image profile"),
            };
            match self.scale {
                Scale::Paper => ModelSpec::paper_cnn(spatial, classes),
                Scale::Smoke => ModelSpec::smoke_cnn(spatial, classes),
            }
        } else {
            let dim = synth.total_input_dim();
            match self.scale {
                Scale::Paper => ModelSpec::paper_mlp(dim, classes),
                // Same two-hidden-layer shape, narrowed for the CI budget.
                Scale::Smoke => ModelSpec::mlp(&[dim, 48, 24, classes]),
            }
        }
    }

    /// Deterministic initial global model for this config.
    pub fn initial_params(&self) -> ParamVec {
        let mut rng = rng_from_seed(seed_mix(self.seed, 0xC0DE, 0, 0));
        self.model_spec().build(&mut rng).params()
    }

    /// Materialize the simulated environment. Dense mode synthesizes the
    /// pooled dataset, partitions it and samples latencies — all O(fleet)
    /// up front. Lazy mode builds O(1)-sized pure plans (shards and
    /// latency profiles both derived on demand), so construction cost is
    /// independent of fleet size.
    pub fn build_env(&self) -> FlEnv {
        // The fleet trajectory derives from its own seed stream so adding
        // dynamics never perturbs data, partition or latency sampling.
        let fleet_seed = seed_mix(self.seed, 0xF1EE7, 0, 0);
        let (data, test, fleet) = match self.data_mode {
            DataMode::Dense => {
                let fd = self.profile.synth_config(self.scale, self.seed).generate();
                let mut part_rng = rng_from_seed(seed_mix(self.seed, 0xDA7A, 0, 0));
                let indices =
                    partition_indices(&fd.train, self.n_devices, self.partition, &mut part_rng);
                let device_data: Vec<Dataset> =
                    indices.iter().map(|idx| fd.train.subset(idx)).collect();
                let mut lat_rng = rng_from_seed(seed_mix(self.seed, 0x1A7E, 0, 0));
                let latencies = sample_latencies(self.n_devices, self.heterogeneity, &mut lat_rng);
                let fleet = FleetModel::new(&latencies, self.fleet.clone(), fleet_seed);
                (DataSource::Dense(device_data), fd.test, fleet)
            }
            DataMode::Lazy {
                beta,
                min_samples,
                max_samples,
                cache_capacity,
            } => {
                let plan = ShardPlan::new(
                    self.profile.synth_config(self.scale, self.seed),
                    self.n_devices,
                    beta,
                    min_samples,
                    max_samples,
                );
                let test = plan.test_split();
                let profiles = ProfileSource::lazy(
                    self.n_devices,
                    self.heterogeneity,
                    seed_mix(self.seed, 0x1A7E, 0, 0),
                );
                let fleet = FleetModel::with_source(profiles, self.fleet.clone(), fleet_seed);
                (DataSource::lazy(plan, cache_capacity), test, fleet)
            }
        };
        FlEnv {
            spec: self.model_spec(),
            data,
            n_devices: self.n_devices,
            test,
            fleet,
            meter: TrafficMeter::new(),
            local_epochs: self.local_epochs,
            batch_size: self.batch_size,
            sgd: SgdConfig { lr: self.lr },
            seed: self.seed,
            wire_check: self.wire_check,
            codec: self.codec,
            residuals: DeviceBank::new(),
            // The fault plan derives from its own seed stream (like the
            // fleet trajectory) so turning faults on never perturbs data,
            // partition, latency or participation sampling.
            faults: match &self.faults {
                Some(cfg) => FaultPlan::new(seed_mix(self.seed, 0xFA017, 0, 0), cfg.clone()),
                None => FaultPlan::none(),
            },
            cohort: self.cohort,
            telemetry: fedhisyn_telemetry::TelemetrySink::disabled(),
        }
    }
}

/// Builder for [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Set the scale (paper vs smoke dimensions).
    pub fn scale(mut self, scale: Scale) -> Self {
        self.cfg.scale = scale;
        self
    }

    /// Set fleet size.
    pub fn devices(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one device");
        self.cfg.n_devices = n;
        self
    }

    /// Set per-round participation probability.
    pub fn participation(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "participation in [0, 1]");
        self.cfg.participation = p;
        self
    }

    /// Set the data partition.
    pub fn partition(mut self, p: Partition) -> Self {
        self.cfg.partition = p;
        self
    }

    /// Set the data mode (dense materialisation vs lazy realisation).
    pub fn data_mode(mut self, mode: DataMode) -> Self {
        if let DataMode::Lazy {
            beta,
            min_samples,
            max_samples,
            cache_capacity,
        } = mode
        {
            assert!(beta > 0.0, "Dirichlet beta must be positive");
            assert!(
                (1..=max_samples).contains(&min_samples),
                "need 1 <= min_samples <= max_samples"
            );
            assert!(
                cache_capacity > 0,
                "shard cache must hold at least one shard"
            );
        }
        self.cfg.data_mode = mode;
        self
    }

    /// Set latency heterogeneity.
    pub fn heterogeneity(mut self, h: HeterogeneityModel) -> Self {
        self.cfg.heterogeneity = h;
        self
    }

    /// Set the fleet-dynamics model (churn, failures, fleet-wide modulator).
    pub fn fleet(mut self, dynamics: FleetDynamics) -> Self {
        dynamics.validate();
        self.cfg.fleet = dynamics;
        self
    }

    /// Set the number of communication rounds.
    pub fn rounds(mut self, r: usize) -> Self {
        self.cfg.rounds = r;
        self
    }

    /// Set local epochs per step.
    pub fn local_epochs(mut self, e: usize) -> Self {
        assert!(e > 0, "need at least one local epoch");
        self.cfg.local_epochs = e;
        self
    }

    /// Set the mini-batch size.
    pub fn batch_size(mut self, b: usize) -> Self {
        assert!(b > 0, "batch size must be positive");
        self.cfg.batch_size = b;
        self
    }

    /// Set the SGD learning rate.
    pub fn lr(mut self, lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        self.cfg.lr = lr;
        self
    }

    /// Round-trip every ring-relay transfer through the wire codec
    /// (serialization-drift tripwire).
    pub fn wire_check(mut self, check: bool) -> Self {
        self.cfg.wire_check = check;
        self
    }

    /// Select the wire codec every model transfer is encoded with.
    pub fn codec(mut self, codec: Codec) -> Self {
        self.cfg.codec = codec;
        self
    }

    /// Inject deterministic wire faults on every ring relay.
    pub fn faults(mut self, cfg: FaultConfig) -> Self {
        cfg.validate();
        self.cfg.faults = Some(cfg);
        self
    }

    /// Set the aggregation rule.
    pub fn aggregation(mut self, rule: AggregationRule) -> Self {
        self.cfg.aggregation = rule;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Override the model architecture.
    pub fn model(mut self, spec: ModelSpec) -> Self {
        self.cfg.model_override = Some(spec);
        self
    }

    /// Sample a fixed-size cohort of `k` online devices per round by
    /// streaming rejection sampling (O(cohort), never iterating the
    /// fleet) instead of per-device Bernoulli participation.
    pub fn cohort(mut self, k: usize) -> Self {
        assert!(k > 0, "cohort must be non-empty");
        self.cfg.cohort = Some(k);
        self
    }

    /// Finish building.
    pub fn build(self) -> ExperimentConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ExperimentConfig {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .devices(5)
            .rounds(3)
            .seed(9)
            .build()
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = ExperimentConfig::builder(DatasetProfile::Cifar10Like)
            .scale(Scale::Smoke)
            .devices(7)
            .participation(0.5)
            .partition(Partition::Iid)
            .rounds(4)
            .local_epochs(2)
            .batch_size(16)
            .lr(0.05)
            .aggregation(AggregationRule::TimeWeighted)
            .seed(123)
            .build();
        assert_eq!(cfg.n_devices, 7);
        assert_eq!(cfg.participation, 0.5);
        assert_eq!(cfg.partition, Partition::Iid);
        assert_eq!(cfg.rounds, 4);
        assert_eq!(cfg.local_epochs, 2);
        assert_eq!(cfg.batch_size, 16);
        assert_eq!(cfg.lr, 0.05);
        assert_eq!(cfg.aggregation, AggregationRule::TimeWeighted);
        assert_eq!(cfg.seed, 123);
    }

    #[test]
    fn env_has_one_shard_per_device() {
        let cfg = base();
        let env = cfg.build_env();
        assert_eq!(env.n_devices(), 5);
        assert!((0..5).all(|d| !env.shard(d).is_empty()));
        let total: usize = (0..5).map(|d| env.shard_len(d)).sum();
        // All training samples distributed.
        let fd = cfg.profile.synth_config(cfg.scale, cfg.seed).generate();
        assert_eq!(total, fd.train.len());
    }

    #[test]
    fn lazy_mode_builds_an_on_demand_env() {
        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .devices(50)
            .data_mode(DataMode::Lazy {
                beta: 0.3,
                min_samples: 10,
                max_samples: 30,
                cache_capacity: 16,
            })
            .seed(9)
            .build();
        let env = cfg.build_env();
        assert_eq!(env.n_devices(), 50);
        assert_eq!(
            env.data.shards_realised(),
            0,
            "construction realises nothing"
        );
        // Metadata is free; realisation happens only on shard access.
        let hist = env.class_histogram(7);
        assert_eq!(hist.iter().sum::<usize>(), env.shard_len(7));
        assert_eq!(env.data.shards_realised(), 0);
        let shard = env.shard(7);
        assert_eq!(shard.class_histogram(), hist);
        assert_eq!(env.data.shards_realised(), 1);
        // The test split is non-empty and deterministic across builds.
        assert!(!env.test.is_empty());
        assert_eq!(env.test.x.data(), cfg.build_env().test.x.data());
        // Latencies come from the lazy profile source, same stream both builds.
        assert_eq!(env.latency(23), cfg.build_env().latency(23));
    }

    #[test]
    fn flat_profile_gets_mlp_and_image_gets_cnn() {
        let mlp_cfg = base();
        assert!(matches!(mlp_cfg.model_spec(), ModelSpec::Mlp { .. }));
        let cnn_cfg = ExperimentConfig::builder(DatasetProfile::Cifar10Like).build();
        assert!(matches!(cnn_cfg.model_spec(), ModelSpec::Cnn { .. }));
    }

    #[test]
    fn model_override_wins() {
        let spec = ModelSpec::mlp(&[32, 8, 10]);
        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .model(spec.clone())
            .build();
        assert_eq!(cfg.model_spec(), spec);
    }

    #[test]
    fn initial_params_are_deterministic() {
        let a = base().initial_params();
        let b = base().initial_params();
        assert_eq!(a, b);
        assert_eq!(a.len(), base().model_spec().param_count());
    }

    #[test]
    fn different_seeds_give_different_data() {
        let cfg_a = base();
        let mut cfg_b = base();
        cfg_b.seed = 10;
        let env_a = cfg_a.build_env();
        let env_b = cfg_b.build_env();
        assert_ne!(env_a.test.x.data(), env_b.test.x.data());
    }

    #[test]
    fn paper_scale_uses_paper_models() {
        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Paper)
            .build();
        assert_eq!(cfg.model_spec(), ModelSpec::paper_mlp(784, 10));
        let cfg = ExperimentConfig::builder(DatasetProfile::Cifar100Like)
            .scale(Scale::Paper)
            .build();
        assert_eq!(cfg.model_spec(), ModelSpec::paper_cnn(16, 100));
    }

    #[test]
    fn serde_round_trip() {
        let cfg = base();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn cohort_defaults_off_and_threads_through_to_the_env() {
        let cfg = base();
        assert_eq!(cfg.cohort, None);
        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .devices(10)
            .cohort(4)
            .seed(9)
            .build();
        assert_eq!(cfg.cohort, Some(4));
        assert_eq!(cfg.build_env().cohort, Some(4));
    }

    #[test]
    fn codec_defaults_to_f32_and_threads_through_to_the_env() {
        let cfg = base();
        assert_eq!(cfg.codec, Codec::F32);
        let env = cfg.build_env();
        assert_eq!(env.codec, Codec::F32);

        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .devices(10)
            .codec(Codec::Int8)
            .seed(9)
            .build();
        assert_eq!(cfg.codec, Codec::Int8);
        let env = cfg.build_env();
        assert_eq!(env.codec, Codec::Int8);
        assert!(env.frame_bytes() < env.raw_frame_bytes());
    }

    #[test]
    fn fleet_defaults_to_static_and_builder_activates_dynamics() {
        let cfg = base();
        assert!(cfg.fleet.is_static());
        assert!(!cfg.build_env().dynamics_active());

        let churned = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .devices(5)
            .fleet(FleetDynamics::churn(0.2))
            .seed(9)
            .build();
        assert!(!churned.fleet.is_static());
        let env = churned.build_env();
        assert!(env.dynamics_active());
        // Dynamics ride on their own seed stream: base profiles, data and
        // partition are unchanged relative to the static config.
        let static_env = base().build_env();
        for d in 0..5 {
            assert_eq!(static_env.latency(d), env.latency(d));
        }
    }
}

//! The pinned surface: **every program item the benchmark names lives in
//! this file** (and is listed in `README.md`). A refactor that keeps these
//! items — or changes them together with this file alone — preserves the
//! benchmark. Nothing here reaches into private state, includes program
//! source or sets a flag in the program: it is the public API, called
//! from outside and timed by the benchmark's own clock.
//!
//! Three parts: the four workloads (config builders + algorithm), one
//! measured repetition (`build_env` → `Timed` → one `run_experiment`
//! call), and the probes (direct calls into each layer's leaf functions).

use std::time::Instant;

use fedhisyn::baselines::FedAvg;
use fedhisyn::cluster::kmeans_1d;
use fedhisyn::core::aggregate::Contribution;
use fedhisyn::core::local::local_train_plain_owned;
use fedhisyn::core::{
    run_experiment, AggregationRule, DataMode, ExecutionEngine, ExperimentConfig, FedHiSyn,
    FlAlgorithm, FlEnv, RoundContext, RunRecord,
};
use fedhisyn::data::{partition_indices, DatasetProfile, Partition, Scale};
use fedhisyn::fleet::{sample_online_cohort, FleetDynamics};
use fedhisyn::nn::init::Init;
use fedhisyn::nn::layers::Conv2d;
use fedhisyn::nn::wire::{codec_transform_in_place, decode_with, encode_with};
use fedhisyn::nn::{
    evaluate_arena, sgd_epoch, softmax_cross_entropy_arena, Codec, CodecScratch, ModelSpec, NoHook,
    ParamVec, Sgd,
};
use fedhisyn::simnet::{FaultConfig, HeterogeneityModel};
use fedhisyn::telemetry::{Phase, RoundTelemetry, TelemetrySink};
use fedhisyn::tensor::{
    dequantize_slice, finite_min_max, gemm, gemm_nt, gemm_tn, quant_scale, quantize_slice,
    rng_from_seed, Tensor,
};

use crate::probes::Budget;
use crate::procfs::process_cpu_ns;
use crate::spans::Ns;

// ---- workloads ------------------------------------------------------------

/// Latency classes `K` of every FedHiSyn workload.
const K: usize = 10;

/// One benchmark workload: a config built from the seed alone, the
/// algorithm that runs it, and how long it runs.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Warm-up rounds `W` before the timed window.
    pub warmup: usize,
    /// Timed rounds `R`.
    pub rounds: usize,
    /// A repetition whose final accuracy is under this floor fails.
    pub accuracy_floor: f64,
    /// The final accuracy must also exceed round 0's.
    pub must_improve: bool,
    config: fn(u64) -> ExperimentConfig,
    algorithm: fn(&ExperimentConfig) -> Box<dyn FlAlgorithm>,
}

fn fedhisyn(cfg: &ExperimentConfig) -> Box<dyn FlAlgorithm> {
    Box::new(FedHiSyn::new(cfg, K))
}

fn fedavg(cfg: &ExperimentConfig) -> Box<dyn FlAlgorithm> {
    Box::new(FedAvg::new(cfg))
}

fn mlp_ring(seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Paper)
        .devices(100)
        .participation(1.0)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .local_epochs(1)
        .batch_size(50)
        .seed(seed)
        .build()
}

fn cnn_fedavg(seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::Cifar10Like)
        .scale(Scale::Paper)
        .model(ModelSpec::Cnn {
            in_channels: 3,
            spatial: 16,
            conv_filters: vec![8, 16],
            kernel: 3,
            fc_dims: vec![48],
            classes: 10,
        })
        .devices(60)
        // FedAvg gives device d ceil(t_max / t_d) local steps a round, so
        // the work of a round is as heavy-tailed as the latency draw. At
        // the default H = 10 it differs by +-18 % from seed to seed, at
        // H = 4 by +-12 % — and multi-step training stays (2.4 steps a
        // device on average).
        .heterogeneity(HeterogeneityModel::Uniform { h: 4.0 })
        .participation(0.5)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .local_epochs(1)
        // At the defaults (batch 50, lr 0.1) four rounds leave accuracy on
        // the flat start of the curve (0.11-0.32 by seed) and about one
        // seed in forty never leaves chance; at batch 20 and lr 0.05 every
        // seed tried clears the floor with room (0.26-0.57 over 20 seeds).
        .batch_size(20)
        .lr(0.05)
        .seed(seed)
        .build()
}

fn churn_wire(seed: u64) -> ExperimentConfig {
    let mut fleet = FleetDynamics::churn(0.1);
    fleet.mid_round_failure = 0.05;
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(1000)
        .participation(1.0)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .fleet(fleet)
        .codec(Codec::Int8)
        .faults(FaultConfig::lossy(0.1))
        .local_epochs(1)
        .seed(seed)
        .build()
}

fn lazy_cohort(seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(1_000_000)
        .data_mode(DataMode::Lazy {
            beta: 0.3,
            min_samples: 20,
            max_samples: 40,
            cache_capacity: 200,
        })
        .fleet(FleetDynamics::planet_scale(0.1))
        .cohort(50)
        .local_epochs(1)
        .seed(seed)
        .build()
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mlp_ring",
        why: "Paper headline: FedHiSyn K=10, 100 devices, paper MLP. Dense-GEMM local SGD in ring lanes is >90% of the round; codec, faults, fleet dynamics, lazy planes and conv do nothing here.",
        warmup: 1,
        rounds: 3,
        accuracy_floor: 0.30,
        must_improve: false,
        config: mlp_ring,
        algorithm: fedhisyn,
    },
    Workload {
        name: "cnn_fedavg",
        why: "FedAvg, 60 devices at 0.5 participation, small CNN: device fan-out and conv/im2col, not ring relay and dense GEMM; bypasses ring_sim, fedhisyn and cluster, so a ring-only change must not move it.",
        warmup: 1,
        rounds: 3,
        accuracy_floor: 0.12,
        must_improve: true,
        config: cnn_fedavg,
        algorithm: fedavg,
    },
    Workload {
        name: "churn_wire",
        why: "FedHiSyn, 1000 churning devices, tiny MLP, Int8 codec, 10% frame loss: ring event loop, retry transport, error-feedback transform and fleet queries do the work; GEMM and conv changes must not move it.",
        warmup: 30,
        rounds: 120,
        accuracy_floor: 0.90,
        must_improve: false,
        config: churn_wire,
        algorithm: fedhisyn,
    },
    Workload {
        name: "lazy_cohort",
        why: "FedHiSyn on 1M lazy devices, cohort 50: streaming cohort sampling, lazy fleet trajectories, shard realisation behind an LRU, runner bookkeeping; the only workload whose memory is fleet/data state.",
        warmup: 150,
        rounds: 700,
        accuracy_floor: 0.90,
        must_improve: false,
        config: lazy_cohort,
        algorithm: fedhisyn,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---- one measured repetition ------------------------------------------------

/// One `FlAlgorithm::round` call as seen from outside.
#[derive(Debug, Clone, Copy)]
pub struct AlgoMark {
    pub round: usize,
    pub participants: usize,
    pub entry_ns: Ns,
    pub exit_ns: Ns,
}

/// Readings taken at the entry of the first timed round.
#[derive(Debug, Clone, Copy)]
struct WindowStart {
    wall_ns: Ns,
    cpu_ns: u64,
    retries: u64,
    giveups: u64,
    evictions: u64,
}

/// The benchmark's decorator over any [`FlAlgorithm`]: one clock reading
/// at every `round()` entry and exit, plus the window-start readings at
/// the first round past the warm-up. The trait is the program's
/// documented extension point (`examples/custom_algorithm.rs`).
struct Timed {
    inner: Box<dyn FlAlgorithm>,
    clock: Instant,
    warmup: usize,
    marks: Vec<AlgoMark>,
    window: Option<WindowStart>,
    /// Cohort of the most recent round — what the probes run on.
    participants: Vec<usize>,
}

impl FlAlgorithm for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn participation(&self) -> f64 {
        self.inner.participation()
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        if self.window.is_none() && ctx.round >= self.warmup {
            let (retries, giveups) = transport_counters(&ctx.env.telemetry);
            self.window = Some(WindowStart {
                cpu_ns: process_cpu_ns(),
                retries,
                giveups,
                evictions: ctx.env.data.shard_cache_evictions(),
                wall_ns: ns_since(self.clock),
            });
        }
        self.participants.clear();
        self.participants.extend_from_slice(ctx.participants);
        let entry_ns = ns_since(self.clock);
        let global = self.inner.round(ctx);
        self.marks.push(AlgoMark {
            round: ctx.round,
            participants: ctx.participants.len(),
            entry_ns,
            exit_ns: ns_since(self.clock),
        });
        global
    }

    fn round_duration(&self, env: &FlEnv, participants: &[usize], round: usize) -> f64 {
        self.inner.round_duration(env, participants, round)
    }
}

fn ns_since(clock: Instant) -> Ns {
    clock.elapsed().as_nanos() as Ns
}

/// Cumulative `(retries, giveups)` of the sink's transport counters
/// (zero when the sink is disabled).
fn transport_counters(sink: &TelemetrySink) -> (u64, u64) {
    let Some(t) = sink.telemetry() else {
        return (0, 0);
    };
    let counters = t.metrics().counters;
    let read = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    (read("transport.retries"), read("transport.giveups"))
}

/// What the program's `RunRecord` says about one round, as plain numbers.
#[derive(Debug, Clone, Copy)]
pub struct RoundFacts {
    pub round: usize,
    pub accuracy: f64,
    pub participants: usize,
    pub virtual_time: f64,
    pub uploads: f64,
    pub peer_transfers: f64,
    pub wire_bytes: f64,
    pub raw_bytes: f64,
    pub retransmit_bytes: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub weight_packs: u64,
    pub arena_high_water_bytes: u64,
    pub fleet_realised_devices: u64,
    pub fleet_realised_state_bytes: u64,
    pub data_shards_realised: u64,
    pub data_shard_cache_hits: u64,
    pub data_resident_shard_bytes: u64,
}

/// Layer of a span recorded by the program's telemetry sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    Round,
    Clustering,
    Lane,
    Train,
    Hop,
    Retry,
    Aggregation,
    Evaluation,
}

/// One sink span, moved onto the benchmark's clock.
#[derive(Debug, Clone, Copy)]
pub struct SinkSpan {
    pub kind: SinkKind,
    pub round: usize,
    pub lane: u32,
    pub start_ns: Ns,
    pub end_ns: Ns,
}

/// The wall-clock track of the program's telemetry sink after a traced run.
#[derive(Debug)]
pub struct SinkDump {
    pub spans: Vec<SinkSpan>,
    pub dropped: u64,
    /// How far the sink's clock origin may be off the benchmark's.
    pub clock_slack_ns: Ns,
    /// Transport counters over the timed window.
    pub retries: u64,
    pub giveups: u64,
}

/// Everything one repetition measured, free of program types.
#[derive(Debug)]
pub struct RepRun {
    pub warmup: usize,
    pub rounds: usize,
    /// Child start → entry of the first timed round.
    pub setup_ns: Ns,
    /// Entry of the first timed round → `run_experiment`'s return.
    pub window_wall_ns: Ns,
    pub window_cpu_ns: u64,
    pub build_env: (Ns, Ns),
    pub run_experiment: (Ns, Ns),
    pub marks: Vec<AlgoMark>,
    pub facts: Vec<RoundFacts>,
    /// Shard-cache evictions over the timed window.
    pub evictions: u64,
    pub record_fnv: u64,
    pub kernel_tier: String,
    pub threads: usize,
    /// The workload's wire codec drops information (error feedback on).
    pub lossy_codec: bool,
    pub sink: Option<SinkDump>,
}

/// What the probes need from a finished repetition.
pub struct ProbeCtx {
    cfg: ExperimentConfig,
    env: FlEnv,
    participants: Vec<usize>,
    /// First round index the run did not use.
    next_round: usize,
}

/// Run one repetition of `w`: build the config from `seed`, `build_env`,
/// wrap the algorithm in [`Timed`], and make **one** `run_experiment`
/// call of `warmup + rounds` rounds. `clock` is the child's start. With
/// `traced`, the program's own sink is switched on through the public
/// `env.telemetry` field and its wall track returned beside the record.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    warmup: usize,
    rounds: usize,
    traced: bool,
    clock: Instant,
) -> (RepRun, ProbeCtx) {
    let cfg = (w.config)(seed);
    let env_start = ns_since(clock);
    let mut env = cfg.build_env();
    let build_env = (env_start, ns_since(clock));

    let total = warmup + rounds;
    let mut sink_epoch = None;
    if traced {
        // Spans per round are bounded by a few per device; overflow is
        // counted by the sink and fails the run (`dropped` must be 0).
        let per_round = 16 * cfg.cohort.unwrap_or(cfg.n_devices) + 64;
        let before = ns_since(clock);
        env.telemetry = TelemetrySink::enabled(total * per_round);
        let after = ns_since(clock);
        // The sink stamps wall time against its own origin, taken inside
        // `enabled`: somewhere between these two readings.
        sink_epoch = Some((before, after - before));
    }

    let mut algo = Timed {
        inner: (w.algorithm)(&cfg),
        clock,
        warmup,
        marks: Vec::with_capacity(total),
        window: None,
        participants: Vec::new(),
    };
    let run_start = ns_since(clock);
    let record = run_experiment(&mut algo, &mut env, total);
    let run_end = ns_since(clock);
    let cpu_end = process_cpu_ns();
    let (retries_end, giveups_end) = transport_counters(&env.telemetry);

    // A run that never reached the window (every round past the warm-up a
    // blackout) has an empty window; its rounds fail on their own records.
    let window = algo.window.unwrap_or(WindowStart {
        wall_ns: run_end,
        cpu_ns: cpu_end,
        retries: retries_end,
        giveups: giveups_end,
        evictions: env.data.shard_cache_evictions(),
    });
    let sink = sink_epoch.map(|(epoch_ns, slack)| SinkDump {
        spans: sink_spans(&env.telemetry, epoch_ns),
        dropped: env.telemetry.telemetry().map_or(0, |t| t.dropped()),
        clock_slack_ns: slack,
        retries: retries_end - window.retries,
        giveups: giveups_end - window.giveups,
    });
    let run = RepRun {
        warmup,
        rounds,
        setup_ns: window.wall_ns,
        window_wall_ns: run_end - window.wall_ns,
        window_cpu_ns: cpu_end - window.cpu_ns,
        build_env,
        run_experiment: (run_start, run_end),
        marks: algo.marks,
        facts: record.rounds.iter().map(round_facts).collect(),
        evictions: env.data.shard_cache_evictions() - window.evictions,
        record_fnv: record_fnv(&record),
        kernel_tier: ExecutionEngine::kernel_tier().to_string(),
        threads: rayon::current_num_threads(),
        lossy_codec: env.codec.lossy(),
        sink,
    };
    let ctx = ProbeCtx {
        cfg,
        env,
        participants: algo.participants,
        next_round: total,
    };
    (run, ctx)
}

fn round_facts(r: &fedhisyn::core::RoundRecord) -> RoundFacts {
    let t = &r.telemetry;
    RoundFacts {
        round: r.round,
        accuracy: r.accuracy as f64,
        participants: r.participants,
        virtual_time: r.virtual_time,
        uploads: t.uploads,
        peer_transfers: t.peer_transfers,
        wire_bytes: t.wire_bytes,
        raw_bytes: t.raw_bytes,
        retransmit_bytes: t.retransmit_bytes,
        cache_hits: t.cache_hits,
        cache_misses: t.cache_misses,
        weight_packs: t.weight_packs,
        arena_high_water_bytes: t.arena_high_water_bytes,
        fleet_realised_devices: t.fleet_realised_devices,
        fleet_realised_state_bytes: t.fleet_realised_state_bytes,
        data_shards_realised: t.data_shards_realised,
        data_shard_cache_hits: t.data_shard_cache_hits,
        data_resident_shard_bytes: t.data_resident_shard_bytes,
    }
}

/// FNV-1a of the serialized `RunRecord`, over the fields the program's
/// determinism contract covers: the best-effort runtime counters inside
/// `RoundTelemetry` (cache hits, arena sizes — scheduling-dependent by
/// the program's own definition, and ignored by its `PartialEq`) are
/// zeroed first.
fn record_fnv(record: &RunRecord) -> u64 {
    let mut masked = record.clone();
    for r in &mut masked.rounds {
        let t = r.telemetry;
        r.telemetry = RoundTelemetry {
            uploads: t.uploads,
            downloads: t.downloads,
            peer_transfers: t.peer_transfers,
            parameters_moved: t.parameters_moved,
            wire_bytes: t.wire_bytes,
            raw_bytes: t.raw_bytes,
            retransmit_bytes: t.retransmit_bytes,
            ..RoundTelemetry::default()
        };
    }
    let text = serde_json::to_string(&masked).expect("RunRecord serialises");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sink_spans(sink: &TelemetrySink, epoch_ns: Ns) -> Vec<SinkSpan> {
    let Some(t) = sink.telemetry() else {
        return Vec::new();
    };
    t.events()
        .iter()
        .map(|e| SinkSpan {
            kind: match e.phase {
                Phase::Round => SinkKind::Round,
                Phase::Clustering => SinkKind::Clustering,
                Phase::RingInterval => SinkKind::Lane,
                Phase::LocalTrain => SinkKind::Train,
                Phase::RelayHop => SinkKind::Hop,
                Phase::RelayAttempt => SinkKind::Retry,
                Phase::Aggregation => SinkKind::Aggregation,
                Phase::Evaluation => SinkKind::Evaluation,
            },
            round: e.round as usize,
            lane: e.lane,
            start_ns: epoch_ns + e.wall_start_ns,
            end_ns: epoch_ns + e.wall_end_ns,
        })
        .collect()
}

// ---- probes -------------------------------------------------------------------

/// Isolated cost of each layer's leaf functions, measured after the
/// traced run on the workload's own inputs. Zero where the workload
/// bypasses the layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    pub train_us_per_call: f64,
    pub train_samples_per_s: f64,
    pub step_us: f64,
    pub forward_us: f64,
    pub backward_us: f64,
    pub update_us: f64,
    pub set_params_us: f64,
    pub copy_params_us: f64,
    pub eval_samples_per_s: f64,
    /// im2col, GEMM, transpose, col2im shares of a conv step.
    pub conv_shares: [f64; 4],
    /// `gemm`, `gemm_nt`, `gemm_tn` at the dominant shape.
    pub gemm_gflops: [f64; 3],
    pub gemm_flops_per_step: f64,
    pub transform_us: f64,
    pub encode_mb_per_s: f64,
    pub decode_mb_per_s: f64,
    pub quant_gb_per_s: f64,
    pub fault_decide_ns: f64,
    pub fleet_query_us: f64,
    pub cohort_us: f64,
    pub synth_generate_s: f64,
    pub partition_split_s: f64,
    pub shard_realise_us: f64,
    pub shard_hit_us: f64,
    pub kmeans_us: f64,
    pub aggregate_gb_per_s: f64,
}

/// Devices a per-participant probe visits at most.
const PROBE_DEVICES: usize = 100;
/// Contributions the aggregation probe averages at most.
const PROBE_UPLOADS: usize = 32;

pub fn run_probes(ctx: &ProbeCtx, budget: Budget) -> Probes {
    let mut p = Probes::default();
    if ctx.participants.is_empty() {
        return p;
    }
    let env = &ctx.env;
    let cfg = &ctx.cfg;
    let devices: Vec<usize> = ctx
        .participants
        .iter()
        .copied()
        .take(PROBE_DEVICES)
        .collect();
    let initial = cfg.initial_params();
    let n_params = initial.len();
    let param_mb = n_params as f64 * 4.0 / 1e6;

    // core.local: one local-training call per participant, as a ring
    // position makes it.
    let start = Instant::now();
    let mut samples = 0usize;
    for &d in &devices {
        samples += env.shard_len(d);
        std::hint::black_box(local_train_plain_owned(
            env,
            d,
            initial.clone(),
            env.local_epochs,
            ctx.next_round,
            0,
        ));
    }
    let secs = start.elapsed().as_secs_f64();
    p.train_us_per_call = secs / devices.len() as f64 * 1e6;
    p.train_samples_per_s = samples as f64 / secs;

    // nn.train / nn.model: one mini-batch step on the largest shard in
    // the cohort, whole and stage by stage. Only whole batches, so both
    // views time the same step (a shard under one batch is one step).
    let big = *devices
        .iter()
        .max_by_key(|&&d| env.shard_len(d))
        .expect("non-empty cohort");
    let shard = env.shard(big);
    let batch = env.batch_size.min(shard.len());
    let steps = shard.len() / batch;
    let whole = shard.subset(&(0..steps * batch).collect::<Vec<_>>());
    let mut rng = rng_from_seed(cfg.seed);
    let mut model = env.spec.build(&mut rng);
    let mut sgd = Sgd::new(env.sgd);
    p.step_us = budget.secs_per_call(|| {
        sgd_epoch(
            &mut model, &whole.x, &whole.y, batch, &mut sgd, &NoHook, &mut rng,
        );
    }) / steps as f64
        * 1e6;
    let rows: Vec<usize> = (0..batch).collect();
    let [fwd, bwd, upd] = budget.stage_secs_per_call(|| {
        model.begin_step();
        let xb = model.stage_batch(&whole.x, &rows);
        model.zero_grad();
        let t0 = Instant::now();
        let logits = model.forward_arena(xb);
        let t1 = Instant::now();
        let (_, dlogits) =
            softmax_cross_entropy_arena(model.scratch_mut(), logits, &whole.y[..batch]);
        let t2 = Instant::now();
        model.backward_arena(dlogits);
        let t3 = Instant::now();
        sgd.step_in_place(&mut model, &NoHook);
        let t4 = Instant::now();
        [
            (t1 - t0).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
            (t4 - t3).as_secs_f64(),
        ]
    });
    (p.forward_us, p.backward_us, p.update_us) = (fwd * 1e6, bwd * 1e6, upd * 1e6);
    let mut buf = initial.clone();
    p.set_params_us = budget.secs_per_call(|| model.set_params(&buf)) * 1e6;
    p.copy_params_us = budget.secs_per_call(|| model.copy_params_into(&mut buf)) * 1e6;
    p.eval_samples_per_s = env.test.len() as f64
        / budget.secs_per_call(|| {
            std::hint::black_box(evaluate_arena(&mut model, &env.test.x, &env.test.y, 256));
        });
    drop(shard);

    // nn.layers.conv + tensor.gemm: shapes from the model spec x the
    // batch the step above ran.
    let shapes = gemm_shapes(&env.spec, batch);
    p.gemm_flops_per_step = shapes.iter().map(|s| 3.0 * s.flops()).sum();
    let dominant = shapes
        .iter()
        .copied()
        .max_by(|a, b| a.flops().total_cmp(&b.flops()))
        .expect("a model has at least one GEMM");
    p.gemm_gflops = gemm_gflops(dominant, budget, &mut rng);
    if let ModelSpec::Cnn {
        in_channels,
        spatial,
        conv_filters,
        kernel,
        ..
    } = &env.spec
    {
        let mut stage = [0.0f64; 4];
        let (mut c, mut s) = (*in_channels, *spatial);
        for &f in conv_filters {
            let mut layer = Conv2d::new(c, f, *kernel, kernel / 2, Init::HeNormal, &mut rng);
            let x = Tensor::randn(vec![batch, c, s, s], 1.0, &mut rng);
            let per_call = budget.stage_secs_per_call(|| {
                let prof = layer.profile_step(&x);
                [
                    prof.im2col_secs,
                    prof.gemm_secs,
                    prof.transpose_secs,
                    prof.col2im_secs,
                ]
            });
            for (t, s) in stage.iter_mut().zip(per_call) {
                *t += s;
            }
            (c, s) = (f, s / 2);
        }
        let total: f64 = stage.iter().sum();
        p.conv_shares = stage.map(|t| t / total);
    }

    // nn.wire + tensor.quant: the codec at the workload's parameter count.
    let base = (env.codec.lossy()).then(|| initial.clone());
    let mut payload = initial.clone();
    let mut residual = ParamVec::zeros(n_params);
    let mut scratch = CodecScratch::new();
    p.transform_us = budget.secs_per_call(|| {
        codec_transform_in_place(
            env.codec,
            &mut payload,
            base.as_ref(),
            &mut residual,
            &mut scratch,
        );
    }) * 1e6;
    let mut frame = encode_with(&initial, env.codec, base.as_ref());
    p.encode_mb_per_s =
        param_mb / budget.secs_per_call(|| frame = encode_with(&initial, env.codec, base.as_ref()));
    p.decode_mb_per_s = param_mb
        / budget.secs_per_call(|| {
            std::hint::black_box(decode_with(&frame, base.as_ref()).expect("own frame decodes"));
        });
    let xs = initial.as_slice();
    let (min, max) = finite_min_max(xs).expect("initial parameters are finite");
    let (scale, inv_scale) = quant_scale(min, max);
    let mut qs = vec![0u8; n_params];
    let mut back = vec![0.0f32; n_params];
    p.quant_gb_per_s = param_mb
        / 1e3
        / budget.secs_per_call(|| {
            quantize_slice(xs, min, inv_scale, &mut qs);
            dequantize_slice(&qs, min, scale, &mut back);
        });

    // simnet.fault: the per-attempt fault decision.
    const DECISIONS: u64 = 1000;
    p.fault_decide_ns = budget.secs_per_call(|| {
        for attempt in 0..DECISIONS {
            std::hint::black_box(env.faults.fault(ctx.next_round as u64, 1, 2, attempt));
        }
    }) / DECISIONS as f64
        * 1e9;

    // fleet: one round's cohort queries and cohort sampling, each call on
    // a round the fleet has not seen (as in a run).
    let mut round = ctx.next_round;
    p.fleet_query_us = budget.secs_per_call(|| {
        round += 1;
        for &d in &devices {
            std::hint::black_box((env.latency_at(d, round), env.online(d, round)));
        }
    }) * 1e6;
    if let Some(k) = cfg.cohort {
        p.cohort_us = budget.secs_per_call(|| {
            round += 1;
            std::hint::black_box(sample_online_cohort(&env.fleet, k, round, env.seed));
        }) * 1e6;
    }

    // data: dense synthesis + partition, or lazy realisation + cache hit.
    match env.data.plan() {
        None => {
            let synth = cfg.profile.synth_config(cfg.scale, cfg.seed);
            let mut fd = synth.generate();
            p.synth_generate_s = budget.secs_per_call(|| fd = synth.generate());
            p.partition_split_s = budget.secs_per_call(|| {
                std::hint::black_box(partition_indices(
                    &fd.train,
                    cfg.n_devices,
                    cfg.partition,
                    &mut rng,
                ));
            });
        }
        Some(plan) => {
            p.shard_realise_us = budget.secs_per_call(|| {
                std::hint::black_box(plan.realise(big));
            }) * 1e6;
        }
    }
    p.shard_hit_us = budget.secs_per_call(|| {
        std::hint::black_box(env.shard(big).len());
    }) * 1e6;

    // cluster: k-means over the cohort's latencies.
    let latencies: Vec<f64> = ctx
        .participants
        .iter()
        .map(|&d| env.latency_at(d, ctx.next_round))
        .collect();
    p.kmeans_us = budget.secs_per_call(|| {
        std::hint::black_box(kmeans_1d(&latencies, K.min(latencies.len()), 100, &mut rng));
    }) * 1e6;

    // core.aggregate: the server's mean over one round's uploads.
    let uploads: Vec<ParamVec> = vec![initial.clone(); ctx.participants.len().min(PROBE_UPLOADS)];
    let contributions: Vec<Contribution<'_>> = uploads
        .iter()
        .map(|params| Contribution {
            params,
            samples: 1,
            class_mean_time: 1.0,
        })
        .collect();
    p.aggregate_gb_per_s = uploads.len() as f64 * param_mb
        / 1e3
        / budget.secs_per_call(|| {
            std::hint::black_box(AggregationRule::Uniform.aggregate(&contributions));
        });
    p
}

/// One GEMM shape `[m, k] x [k, n]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmShape {
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

impl GemmShape {
    pub fn flops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }
}

/// The forward GEMM of every dense and conv layer of `spec` at `batch`
/// samples; a training step runs three GEMMs of each shape (forward, dW,
/// dX).
pub fn gemm_shapes(spec: &ModelSpec, batch: usize) -> Vec<GemmShape> {
    let dense = |dims: &[usize]| -> Vec<GemmShape> {
        dims.windows(2)
            .map(|w| GemmShape {
                m: batch,
                k: w[0],
                n: w[1],
            })
            .collect()
    };
    match spec {
        ModelSpec::Mlp { dims } => dense(dims),
        ModelSpec::Cnn {
            in_channels,
            spatial,
            conv_filters,
            kernel,
            fc_dims,
            classes,
        } => {
            let mut shapes = Vec::new();
            let (mut c, mut s) = (*in_channels, *spatial);
            for &f in conv_filters {
                shapes.push(GemmShape {
                    m: batch * s * s,
                    k: c * kernel * kernel,
                    n: f,
                });
                (c, s) = (f, s / 2);
            }
            let mut dims = vec![c * s * s];
            dims.extend_from_slice(fc_dims);
            dims.push(*classes);
            shapes.extend(dense(&dims));
            shapes
        }
    }
}

fn gemm_gflops(
    shape: GemmShape,
    budget: Budget,
    rng: &mut fedhisyn::tensor::TensorRng,
) -> [f64; 3] {
    let GemmShape { m, k, n } = shape;
    let a = Tensor::randn(vec![m * k], 1.0, rng).into_vec();
    let b = Tensor::randn(vec![k * n], 1.0, rng).into_vec();
    let mut c = vec![0.0f32; m * n];
    let gflops = |secs: f64| shape.flops() / secs / 1e9;
    [
        gflops(budget.secs_per_call(|| gemm(&a, &b, &mut c, m, k, n, 1.0, 0.0))),
        gflops(budget.secs_per_call(|| gemm_nt(&a, &b, &mut c, m, k, n, 1.0, 0.0))),
        gflops(budget.secs_per_call(|| gemm_tn(&a, &b, &mut c, m, k, n, 1.0, 0.0))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(std::ptr::eq(workload(w.name).unwrap(), w));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.warmup >= 1 && w.rounds >= 1);
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn seed_reaches_the_config_and_nothing_else_varies() {
        for w in &WORKLOADS {
            let a = (w.config)(7);
            let b = (w.config)(8);
            assert_eq!(a.seed, 7);
            let mut b7 = b.clone();
            b7.seed = 7;
            assert_eq!(a, b7, "{}: only the seed may differ", w.name);
        }
    }

    #[test]
    fn gemm_shapes_follow_the_model_spec() {
        let mlp = gemm_shapes(&ModelSpec::mlp(&[784, 200, 100, 10]), 50);
        assert_eq!(
            mlp,
            vec![
                GemmShape {
                    m: 50,
                    k: 784,
                    n: 200
                },
                GemmShape {
                    m: 50,
                    k: 200,
                    n: 100
                },
                GemmShape {
                    m: 50,
                    k: 100,
                    n: 10
                },
            ]
        );
        let cnn = gemm_shapes(&cnn_fedavg(0).model_spec(), 50);
        assert_eq!(
            cnn[0],
            GemmShape {
                m: 50 * 256,
                k: 27,
                n: 8
            }
        );
        assert_eq!(
            cnn[1],
            GemmShape {
                m: 50 * 64,
                k: 72,
                n: 16
            }
        );
        assert_eq!(
            cnn[2],
            GemmShape {
                m: 50,
                k: 16 * 4 * 4,
                n: 48
            }
        );
        assert_eq!(
            cnn[3],
            GemmShape {
                m: 50,
                k: 48,
                n: 10
            }
        );
        assert_eq!(GemmShape { m: 2, k: 3, n: 4 }.flops(), 48.0);
    }

    #[test]
    fn a_tiny_repetition_is_deterministic_and_fully_marked() {
        // churn_wire at 2 + 3 rounds: small enough for a unit test, and it
        // exercises codec, faults and fleet dynamics.
        let w = workload("churn_wire").unwrap();
        let (a, _) = run_rep(w, 11, 2, 3, false, Instant::now());
        let (b, ctx) = run_rep(w, 11, 2, 3, true, Instant::now());
        assert_eq!(a.record_fnv, b.record_fnv, "traced == untraced record");
        assert_eq!(a.facts.len(), 5);
        assert_eq!(a.marks.len(), 5);
        assert!(a.marks.iter().all(|m| m.exit_ns >= m.entry_ns));
        assert_eq!(a.setup_ns, a.marks[2].entry_ns.min(a.setup_ns));
        assert!(a.setup_ns <= a.marks[2].entry_ns);
        assert!(a.sink.is_none());
        let sink = b.sink.as_ref().unwrap();
        assert_eq!(sink.dropped, 0);
        assert_eq!(
            sink.spans
                .iter()
                .filter(|s| s.kind == SinkKind::Round)
                .count(),
            5
        );
        let (c, _) = run_rep(w, 12, 2, 3, false, Instant::now());
        assert_ne!(a.record_fnv, c.record_fnv, "another seed, another record");
        let p = run_probes(&ctx, Budget::SMOKE);
        assert!(p.train_us_per_call > 0.0 && p.step_us > 0.0 && p.transform_us > 0.0);
        assert_eq!(p.conv_shares, [0.0; 4], "an MLP workload has no conv");
        assert!(p.gemm_flops_per_step > 0.0 && p.gemm_gflops.iter().all(|&g| g > 0.0));
        assert_eq!(p.cohort_us, 0.0, "no streaming cohort on churn_wire");
    }
}

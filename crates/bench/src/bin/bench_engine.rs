//! Execution-engine perf tracker: measures FedHiSyn rounds/sec on the
//! smoke-scale MLP workload through the cached zero-copy engine and the
//! naive rebuild-per-call reference, verifies they agree bit-for-bit,
//! runs the 1k-device churn stress smoke (FedHiSyn + two baselines on a
//! dynamic fleet, determinism-checked), benchmarks the blocked GEMM
//! kernel against the naive reference, times the allocation-free arena
//! training step against the copy-based reference epoch (asserting the
//! steady-state step performs **zero** heap allocations via a counting
//! global allocator), drives a million-device churn round loop through
//! the lazy sharded fleet (proving realised state stays O(cohort), not
//! O(fleet)), and writes `BENCH_engine.json` so future PRs can track the
//! trajectory against the recorded PR 2 baselines.
//!
//! Usage: `cargo run --release --bin bench_engine [--rounds N] [--gemm-only]
//! [--cnn-only] [--fleet-scale [N]] [--train-scale [N]] [--trace <path>]
//! [--fault-smoke] [--codec-smoke]`
//!
//! `--gemm-only` runs just the GEMM micro-benchmark; `--cnn-only` runs
//! just the batched-vs-per-sample CNN step benchmark; `--fleet-scale [N]`
//! runs just the lazy-fleet scale benchmark at `N` devices (default
//! 100 000) with a fixed peak-RSS budget (the CI smokes); `--train-scale
//! [N]` runs end-to-end FedHiSyn training rounds over the lazy data plane
//! at `N` devices (default 100 000) under the same peak-RSS budget;
//! `--trace <path>` runs a short traced round loop and writes + validates
//! a Perfetto-loadable Chrome trace; `--fault-smoke` asserts the
//! fault-injection transport contracts (none-plan bit-neutrality, lossy
//! determinism across runs and exec modes, corruption detection,
//! zero-alloc steady state with faults disabled, 1k-device churn+fault
//! completion with visible retry bytes); `--codec-smoke` asserts the
//! compressed-wire contracts (F32 bit-neutrality, Int8/TopK determinism
//! across runs and exec modes, zero-alloc steady-state transforms,
//! compression composing with the lossy wire).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use fedhisyn_baselines::{FedAvg, TFedAvg};
use fedhisyn_core::{run_experiment, DataMode, ExecMode, ExperimentConfig, FedHiSyn, RunRecord};
use fedhisyn_data::{DatasetProfile, Partition, Scale};
use fedhisyn_fleet::{sample_online_cohort, FleetDynamics, FleetModel};
use fedhisyn_nn::init::Init;
use fedhisyn_nn::layers::ConvStageProfile;
use fedhisyn_nn::layers::{Conv2d, ConvExec, Dense, Flatten, MaxPool2d, Relu};
use fedhisyn_nn::Codec;
use fedhisyn_nn::{
    evaluate_arena, sgd_epoch, sgd_epoch_reference, ModelSpec, NoHook, Sequential, Sgd, SgdConfig,
};
use fedhisyn_simnet::{FaultConfig, HeterogeneityModel, ProfileSource};
use fedhisyn_tensor::{
    active_tier, gemm, gemm_reference, gemm_with_tier, rng_from_seed, KernelTier, Tensor,
};
use serde::Serialize;

// ---- counting allocator (steady-state zero-alloc proof) ------------------

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Fleet-scale benchmark shape: the full report's million-device run and
/// the `--fleet-scale` CI smoke share the cohort size.
const FLEET_SCALE_DEVICES: usize = 1_000_000;
const FLEET_SCALE_ROUNDS: usize = 200;
const FLEET_SCALE_COHORT: usize = 32;

/// Train-scale benchmark shape: *full* FedHiSyn training rounds (local
/// SGD, rings, aggregation, evaluation) against a lazily-realised
/// million-device fleet — the end-to-end proof that the data plane, not
/// just the fleet layer, is O(cohort). The `--train-scale` CI smoke runs
/// the same shape at 100k devices.
const TRAIN_SCALE_DEVICES: usize = 1_000_000;
const TRAIN_SCALE_ROUNDS: usize = 5;
const TRAIN_SCALE_COHORT: usize = 50;
const TRAIN_SMOKE_DEVICES: usize = 100_000;
const TRAIN_SMOKE_ROUNDS: usize = 3;

#[derive(Debug, Serialize)]
struct ModeResult {
    mode: String,
    rounds: usize,
    seconds: f64,
    rounds_per_sec: f64,
    final_accuracy: f32,
}

#[derive(Debug, Serialize)]
struct ChurnResult {
    algorithm: String,
    rounds: usize,
    seconds: f64,
    rounds_per_sec: f64,
    final_accuracy: f32,
    uploads: f64,
    deterministic: bool,
}

#[derive(Debug, Serialize)]
struct ChurnReport {
    workload: String,
    devices: usize,
    dropout: f64,
    mid_round_failure: f64,
    results: Vec<ChurnResult>,
}

#[derive(Debug, Serialize)]
struct GemmBench {
    m: usize,
    k: usize,
    n: usize,
    /// The dispatched tier's blocked kernel (scalar, AVX2 or AVX2+FMA —
    /// whatever `active_tier()` selected for this process).
    blocked_gflops: f64,
    naive_gflops: f64,
    /// The FMA tier on the same operands, when the host supports it
    /// (0.0 otherwise) — recorded even when FMA is not the dispatch
    /// default so the headroom is visible.
    fma_gflops: f64,
    speedup: f64,
    bit_identical: bool,
    /// The dispatched tier and what it *claims*: a tier claiming
    /// bit-identity must measure bit-identical (asserted in `print_gemm`).
    kernel_tier: String,
    tier_claims_bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct StepBench {
    model: String,
    batch_size: usize,
    arena_steps_per_sec: f64,
    reference_steps_per_sec: f64,
    speedup: f64,
    /// Heap allocations in one steady-state arena training step (the
    /// acceptance criterion: must be zero).
    steady_state_allocs: u64,
    zero_alloc_steady_state: bool,
    /// High-water mark of the arena model's scratch slab, so arena growth
    /// regressions show up in the recorded numbers.
    arena_high_water_bytes: usize,
}

#[derive(Debug, Serialize)]
struct CnnStepBench {
    model: String,
    batch_size: usize,
    /// Whole-batch GEMM conv execution (the default path).
    batched_steps_per_sec: f64,
    /// Retained per-sample-GEMM reference (the PR 3 execution structure).
    per_sample_steps_per_sec: f64,
    /// Machine-dependent: ≈1.0× on a single core (only the weight-panel
    /// packing is amortized), grows with cores — the batched conv GEMMs
    /// sit above the parallel dispatch threshold that the per-sample
    /// calls can never reach (see `bench_cnn_step` docs).
    speedup: f64,
    /// Batched and per-sample training must agree bit-for-bit.
    bit_identical: bool,
    /// Heap allocations in one steady-state `evaluate_arena` pass (the
    /// acceptance criterion: must be zero).
    eval_steady_state_allocs: u64,
    eval_zero_alloc: bool,
    arena_high_water_bytes: usize,
}

#[derive(Debug, Serialize)]
struct FleetScaleBench {
    /// Fleet size — devices that *exist*, not devices that are touched.
    devices: usize,
    rounds: usize,
    /// Devices sampled per round (the paper's per-round participants).
    cohort: usize,
    seconds: f64,
    rounds_per_sec: f64,
    /// Process peak RSS (`VmHWM`) after the run, in bytes. In the
    /// `--fleet-scale` smoke this is dominated by the fleet layer and is
    /// held to a fixed budget; in the full report it includes the other
    /// benchmarks and is recorded for the trend only.
    peak_rss_bytes: u64,
    /// Devices whose trajectories actually realised — bounded by draws
    /// made, never by fleet size.
    realised_devices: usize,
    realised_device_rounds: usize,
    realised_state_bytes: usize,
    /// The tentpole invariant: realised devices stay proportional to
    /// cohort × rounds (devices *queried*), not to the fleet size.
    o_cohort: bool,
    /// Two fresh models under the same seed must replay the identical
    /// cohorts and latencies bit-for-bit.
    deterministic: bool,
}

#[derive(Debug, Serialize)]
struct EngineReport {
    workload: String,
    devices: usize,
    local_epochs: usize,
    /// The GEMM micro-kernel tier every step in this report dispatched to,
    /// and whether that tier is inside the bit-determinism contract.
    kernel_tier: String,
    kernel_tier_bit_identical: bool,
    results: Vec<ModeResult>,
    speedup: f64,
    bit_identical: bool,
    gemm: Vec<GemmBench>,
    conv_stages: ConvStageBench,
    step: StepBench,
    cnn_step: CnnStepBench,
    churn: ChurnReport,
    fleet_scale: FleetScaleBench,
    train_scale: TrainScaleBench,
    fault_sweep: FaultSweepBench,
    codec_sweep: CodecSweepBench,
}

#[derive(Debug, Serialize)]
struct CodecSweepPoint {
    /// Wire-codec label this cell's traffic crossed (`"f32"`, `"int8"`,
    /// `"topk<permille>"`).
    codec: String,
    /// Per-attempt frame loss probability on every ring edge (0 = clean).
    loss: f64,
    rounds: usize,
    final_accuracy: f32,
    /// Encoded bytes actually put on the wire, retransmissions included.
    wire_bytes: f64,
    /// Uncompressed (f32-frame) bytes the same traffic *represents* —
    /// the denominator-free view of what the codec saved.
    raw_bytes: f64,
    /// raw_bytes / wire_bytes — the headline compression ratio.
    compression_ratio: f64,
    /// Gap to the F32 cell at the same loss rate, in accuracy points.
    accuracy_delta_vs_f32: f32,
    /// Two fresh runs under the same seed must replay bit-for-bit: the
    /// quantization grid and error-feedback residual streams are pure
    /// functions of the seed, never of thread timing.
    deterministic: bool,
}

#[derive(Debug, Serialize)]
struct CodecSweepBench {
    workload: String,
    points: Vec<CodecSweepPoint>,
}

/// The codec grid workload (and the `fig_codec` shape): 40 devices with
/// the paper's E = 5 local epochs, so each device's participation does
/// enough local work for top-k error feedback to converge within the
/// sweep's round budget. Loss 0 leaves the fault plan out entirely.
fn codec_workload(rounds: usize, codec: Codec, loss: f64) -> ExperimentConfig {
    let mut b = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(40)
        .partition(Partition::Dirichlet { beta: 0.1 })
        .local_epochs(5)
        .rounds(rounds)
        .seed(2022)
        .codec(codec);
    if loss > 0.0 {
        b = b.faults(FaultConfig::lossy(loss));
    }
    b.build()
}

/// Codec × loss-rate sweep: final accuracy against encoded wire bytes for
/// every codec, on a clean wire and a lossy one (compression and the
/// retry relay have to compose). Each cell is determinism-checked against
/// a fresh replay.
fn bench_codec_sweep(rounds: usize) -> CodecSweepBench {
    let codecs = [Codec::F32, Codec::Int8, Codec::TopK { permille: 100 }];
    let losses = [0.0, 0.15];
    let mut points = Vec::new();
    for &loss in &losses {
        let mut f32_accuracy = 0.0f32;
        for &codec in &codecs {
            let cfg = codec_workload(rounds, codec, loss);
            let run = || {
                let mut env = cfg.build_env();
                let mut algo = FedHiSyn::new(&cfg, K);
                let rec = run_experiment(&mut algo, &mut env, rounds);
                let traffic = env.meter.snapshot();
                (rec, traffic)
            };
            let (rec, traffic) = run();
            let (replay, replay_traffic) = run();
            if codec == Codec::F32 {
                f32_accuracy = rec.final_accuracy();
            }
            points.push(CodecSweepPoint {
                codec: codec.label(),
                loss,
                rounds,
                final_accuracy: rec.final_accuracy(),
                wire_bytes: traffic.wire_bytes,
                raw_bytes: traffic.raw_bytes,
                compression_ratio: traffic.compression_ratio(),
                accuracy_delta_vs_f32: rec.final_accuracy() - f32_accuracy,
                deterministic: rec == replay && traffic == replay_traffic,
            });
        }
    }
    CodecSweepBench {
        workload: "smoke MNIST-like MLP, 40 devices, Dirichlet(0.1), E=5, K=10, codec wire".into(),
        points,
    }
}

fn print_codec_sweep(cs: &CodecSweepBench) {
    println!("\n== codec sweep: accuracy vs encoded wire bytes ==");
    for p in &cs.points {
        println!(
            "  {:<8} loss {:>4.0}%: acc {:>5.1}% ({:>+5.1} vs f32)  wire {:>12.0} B  \
             raw {:>12.0} B  ({:>5.2}x, deterministic: {})",
            p.codec,
            p.loss * 100.0,
            p.final_accuracy * 100.0,
            p.accuracy_delta_vs_f32 * 100.0,
            p.wire_bytes,
            p.raw_bytes,
            p.compression_ratio,
            p.deterministic
        );
        assert!(
            p.deterministic,
            "codec sweep cell ({}, loss {}) diverged between identical seeded runs",
            p.codec, p.loss
        );
        assert!(
            p.final_accuracy.is_finite(),
            "non-finite accuracy leaked out of the {} wire at loss {}",
            p.codec,
            p.loss
        );
        // The headline trade: each lossy codec must stay within 2 accuracy
        // points of the F32 run at the same loss rate — error feedback is
        // what buys this at 10% top-k density.
        assert!(
            p.accuracy_delta_vs_f32.abs() <= 0.02,
            "{} at loss {} drifted {:.1} points from the f32 wire",
            p.codec,
            p.loss,
            p.accuracy_delta_vs_f32 * 100.0
        );
        // And the byte side of the trade, at the recorded model size:
        // Int8 ≥ 3.5x, TopK@10% ≥ 10x, F32 exactly 1.0x.
        let floor = match p.codec.as_str() {
            "f32" => 1.0,
            "int8" => 3.5,
            _ => 10.0,
        };
        assert!(
            p.compression_ratio >= floor,
            "{} compressed only {:.2}x (floor {:.1}x)",
            p.codec,
            p.compression_ratio,
            floor
        );
    }
    // Encoded bytes must fall monotonically F32 → Int8 → TopK within each
    // loss rate: a codec that claims a smaller frame must put fewer bytes
    // on the wire end-to-end, retries included.
    for cells in cs.points.chunks(3) {
        for w in cells.windows(2) {
            assert!(
                w[1].wire_bytes < w[0].wire_bytes,
                "wire bytes rose from {} ({}) to {} ({}) at loss {}",
                w[0].wire_bytes,
                w[0].codec,
                w[1].wire_bytes,
                w[1].codec,
                w[0].loss
            );
        }
    }
}

#[derive(Debug, Serialize)]
struct FaultSweepPoint {
    /// Per-attempt frame loss probability injected on every ring edge.
    loss: f64,
    rounds: usize,
    final_accuracy: f32,
    /// All bytes put on the wire, retransmissions included.
    wire_bytes: f64,
    /// The overhead share of that traffic: retry + duplicate frames.
    retransmit_bytes: f64,
    /// retransmit_bytes / wire_bytes — the headline overhead ratio.
    retransmit_share: f64,
    /// Two fresh runs under the same seed must replay bit-for-bit:
    /// the fault schedule is a pure function of (seed, round, edge,
    /// attempt), never of thread timing.
    deterministic: bool,
}

#[derive(Debug, Serialize)]
struct FaultSweepBench {
    workload: String,
    points: Vec<FaultSweepPoint>,
}

/// The engine workload with a deterministic lossy-wire fault plan.
/// `loss = 0` leaves the plan out entirely (the bit-neutral fast path).
fn fault_workload(rounds: usize, loss: f64) -> ExperimentConfig {
    let mut b = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(100)
        .partition(Partition::Dirichlet { beta: 0.1 })
        .local_epochs(1)
        .rounds(rounds)
        .seed(2022);
    if loss > 0.0 {
        b = b.faults(FaultConfig::lossy(loss));
    }
    b.build()
}

/// Loss-rate sweep: accuracy × wire-byte overhead at increasing frame
/// loss, each point determinism-checked against a fresh replay.
fn bench_fault_sweep(rounds: usize) -> FaultSweepBench {
    let points = [0.0, 0.05, 0.15, 0.30]
        .iter()
        .map(|&loss| {
            let cfg = fault_workload(rounds, loss);
            let run = || {
                let mut env = cfg.build_env();
                let mut algo = FedHiSyn::new(&cfg, K);
                let rec = run_experiment(&mut algo, &mut env, rounds);
                let traffic = env.meter.snapshot();
                (rec, traffic)
            };
            let (rec, traffic) = run();
            let (replay, replay_traffic) = run();
            FaultSweepPoint {
                loss,
                rounds,
                final_accuracy: rec.final_accuracy(),
                wire_bytes: traffic.wire_bytes,
                retransmit_bytes: traffic.retransmit_bytes,
                retransmit_share: traffic.retransmit_bytes / traffic.wire_bytes.max(1e-12),
                deterministic: rec == replay && traffic == replay_traffic,
            }
        })
        .collect();
    FaultSweepBench {
        workload: "smoke MNIST-like MLP, 100 devices, Dirichlet(0.1), K=10, lossy wire".into(),
        points,
    }
}

fn print_fault_sweep(fs: &FaultSweepBench) {
    println!("\n== fault sweep: loss rate x accuracy x wire overhead ==");
    for p in &fs.points {
        println!(
            "  loss {:>4.0}%: acc {:>5.1}%  wire {:>12.0} B  retransmit {:>12.0} B \
             ({:>4.1}% overhead, deterministic: {})",
            p.loss * 100.0,
            p.final_accuracy * 100.0,
            p.wire_bytes,
            p.retransmit_bytes,
            p.retransmit_share * 100.0,
            p.deterministic
        );
        assert!(
            p.deterministic,
            "fault sweep at loss {} diverged between identical seeded runs — \
             the fault schedule is not a pure function of the seed",
            p.loss
        );
        assert!(
            p.final_accuracy.is_finite(),
            "corrupted or lost frames leaked into training at loss {}",
            p.loss
        );
    }
    // Overhead must be monotone in the loss floor: more injected loss
    // means more retry frames on the wire, never fewer.
    for w in fs.points.windows(2) {
        assert!(
            w[1].retransmit_bytes >= w[0].retransmit_bytes,
            "retransmit bytes fell from {} to {} as loss rose {} -> {}",
            w[0].retransmit_bytes,
            w[1].retransmit_bytes,
            w[0].loss,
            w[1].loss
        );
    }
}

/// Linux peak resident set size (`VmHWM` in `/proc/self/status`), bytes;
/// 0 when the file or field is unavailable.
fn read_peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Fleet-scale churn rounds against the lazy sharded `FleetModel`.
///
/// Drives the fleet layer directly — `FlEnv` carries a materialised
/// per-device dataset vector and is deliberately bypassed, because the
/// point of this benchmark is the fleet layer's own cost and footprint:
/// per round it streams an online cohort out of `devices` candidates
/// (`sample_online_cohort`) and reads every member's latency and
/// mid-round failure state, exactly what the runner consumes to schedule
/// a ring. Afterwards the realised-trajectory counters must show state
/// proportional to cohort × rounds, not to the fleet size.
fn bench_fleet_scale(devices: usize, rounds: usize, cohort: usize) -> FleetScaleBench {
    const SEED: u64 = 2022;
    const DROPOUT: f64 = 0.15;
    let build = || {
        FleetModel::with_source(
            // The paper's h = 20 heterogeneity band, derived on demand.
            ProfileSource::lazy(devices, HeterogeneityModel::Uniform { h: 20.0 }, 1.0, SEED),
            FleetDynamics::planet_scale(DROPOUT),
            SEED,
        )
    };
    // Fold everything a round reads from the fleet into checksums, so two
    // fresh models under one seed can be compared for bit-equality.
    let run = |fleet: &FleetModel| -> (u64, u64) {
        let (mut ids, mut bits) = (0u64, 0u64);
        for r in 0..rounds {
            for &d in &sample_online_cohort(fleet, cohort, r, SEED ^ 0x5EED) {
                ids = ids.wrapping_add(d as u64).rotate_left(1);
                bits ^= fleet.latency(d, r).to_bits().rotate_left((r % 61) as u32);
                if let Some(f) = fleet.fail_frac(d, r) {
                    bits ^= f.to_bits().rotate_left(17);
                }
            }
        }
        (ids, bits)
    };
    let fleet = build();
    let start = Instant::now();
    let first = run(&fleet);
    let seconds = start.elapsed().as_secs_f64();
    let replay = run(&build());

    let realised_devices = fleet.realised_devices();
    // Generous constant: ~1/online-fraction draws per cohort slot plus
    // collision retries is well under 8; the bound is still ~100x below
    // any O(fleet) realisation at the benchmark scales.
    let o_cohort = realised_devices <= rounds * cohort * 8 && realised_devices * 10 <= devices;
    FleetScaleBench {
        devices,
        rounds,
        cohort,
        seconds,
        rounds_per_sec: rounds as f64 / seconds.max(1e-9),
        peak_rss_bytes: read_peak_rss_bytes(),
        realised_devices,
        realised_device_rounds: fleet.realised_device_rounds(),
        realised_state_bytes: fleet.realised_state_bytes(),
        o_cohort,
        deterministic: first == replay,
    }
}

fn print_fleet_scale(f: &FleetScaleBench) {
    println!("\n== fleet scale: lazy O(cohort) realisation ==");
    println!(
        "  {} devices, {} rounds, cohort {}: {:>6.1} rounds/s  ({:.2}s, peak RSS {:.1} MiB)",
        f.devices,
        f.rounds,
        f.cohort,
        f.rounds_per_sec,
        f.seconds,
        f.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  realised: {} devices, {} device-rounds, {} bytes  \
         (O(cohort): {}, deterministic: {})",
        f.realised_devices,
        f.realised_device_rounds,
        f.realised_state_bytes,
        f.o_cohort,
        f.deterministic
    );
    assert!(
        f.deterministic,
        "fleet-scale replay diverged between identical seeded runs — \
         determinism contract broken"
    );
    assert!(
        f.o_cohort,
        "{} of {} devices realised over {} rounds x cohort {} — \
         fleet realisation is not O(cohort)",
        f.realised_devices, f.devices, f.rounds, f.cohort
    );
}

#[derive(Debug, Serialize)]
struct TrainScaleBench {
    /// Fleet size — devices that *exist*; only sampled cohorts train.
    devices: usize,
    rounds: usize,
    /// FedHiSyn's per-round participants K.
    cohort: usize,
    seconds: f64,
    rounds_per_sec: f64,
    final_accuracy: f32,
    /// Process peak RSS (`VmHWM`) after the run, in bytes. In the
    /// `--train-scale` smoke this is held to a fixed budget.
    peak_rss_bytes: u64,
    /// Shards actually materialised across the run — bounded by the
    /// cohorts trained, never by fleet size.
    shards_realised: u64,
    shard_cache_hits: u64,
    resident_shard_bytes: u64,
    /// The tentpole invariant: realisations stay proportional to
    /// rounds × cohort (devices *trained*), not to the fleet.
    o_cohort: bool,
    /// Cache-served shards must be bit-identical to fresh realisations
    /// from the pure plan (the lazy ≡ dense contract, spot-checked on
    /// sampled devices; `tests/data_lazy.rs` proves it exhaustively).
    lazy_matches_dense: bool,
    /// Two fresh envs under the same seed must replay the identical run.
    deterministic: bool,
}

/// Full FedHiSyn training rounds against a lazily-realised fleet.
///
/// Unlike `bench_fleet_scale` (which drives the fleet layer directly),
/// this goes through the whole stack: `build_env` in `DataMode::Lazy`,
/// cohort sampling, clustering on mixture-derived class histograms,
/// ring relay with real local SGD on demand-realised shards, synchronous
/// aggregation and test evaluation — with nothing O(fleet) materialised.
fn bench_train_scale(devices: usize, rounds: usize, cohort: usize) -> TrainScaleBench {
    let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(devices)
        .data_mode(DataMode::Lazy {
            beta: 0.3,
            min_samples: 20,
            max_samples: 40,
            // Headroom over K so ring-relay retraining within a round
            // never evicts the active cohort.
            cache_capacity: 4 * cohort,
        })
        .cohort(cohort)
        .local_epochs(1)
        .rounds(rounds)
        .seed(2022)
        .build();
    let run = || {
        let mut env = cfg.build_env();
        let mut algo = FedHiSyn::new(&cfg, 10);
        let start = Instant::now();
        let rec = run_experiment(&mut algo, &mut env, rounds);
        (rec, start.elapsed().as_secs_f64(), env)
    };
    let (rec, seconds, env) = run();
    let (replay, _, _) = run();

    let shards_realised = env.data.shards_realised();
    // Each round realises at most the cohort when the cache holds it;
    // the 4x slack covers cohort drift across cache generations. The
    // second clause pins "never O(fleet)" directly.
    let o_cohort = shards_realised <= (rounds * cohort * 4) as u64
        && (shards_realised as usize) * 10 <= devices;

    // Spot-check the lazy ≡ dense contract: shards served through the
    // cache must equal independent realisations from the pure plan.
    let plan = env.data.plan().expect("train-scale env is lazy").clone();
    let lazy_matches_dense = (0..8).all(|i| {
        let d = ((i * devices) / 8 + i).min(devices - 1); // spread probes across the fleet
        let via_cache = env.shard(d);
        let fresh = plan.realise(d);
        via_cache.y == fresh.y
            && via_cache
                .x
                .data()
                .iter()
                .zip(fresh.x.data())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });

    TrainScaleBench {
        devices,
        rounds,
        cohort,
        seconds,
        rounds_per_sec: rounds as f64 / seconds.max(1e-9),
        final_accuracy: rec.final_accuracy(),
        peak_rss_bytes: read_peak_rss_bytes(),
        shards_realised,
        shard_cache_hits: env.data.shard_cache_hits(),
        resident_shard_bytes: env.data.resident_shard_bytes(),
        o_cohort,
        lazy_matches_dense,
        deterministic: rec == replay,
    }
}

fn print_train_scale(t: &TrainScaleBench) {
    println!("\n== train scale: end-to-end FedHiSyn over a lazy data plane ==");
    println!(
        "  {} devices, {} rounds, K={}: {:>6.2} rounds/s  ({:.2}s, final acc {:.1}%, \
         peak RSS {:.1} MiB)",
        t.devices,
        t.rounds,
        t.cohort,
        t.rounds_per_sec,
        t.seconds,
        t.final_accuracy * 100.0,
        t.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  shards realised: {}, cache hits: {}, resident: {} bytes  \
         (O(cohort): {}, lazy≡dense: {}, deterministic: {})",
        t.shards_realised,
        t.shard_cache_hits,
        t.resident_shard_bytes,
        t.o_cohort,
        t.lazy_matches_dense,
        t.deterministic
    );
    assert!(
        t.deterministic,
        "train-scale replay diverged between identical seeded runs — \
         determinism contract broken"
    );
    assert!(
        t.o_cohort,
        "{} shards realised over {} rounds x cohort {} in a {}-device fleet — \
         the data plane is not O(cohort)",
        t.shards_realised, t.rounds, t.cohort, t.devices
    );
    assert!(
        t.lazy_matches_dense,
        "cache-served shards diverged from pure plan realisations — \
         lazy ≡ dense contract broken"
    );
}

/// Time `f` repeatedly until ~0.2 s of wall clock, returning seconds per
/// call (first call excluded as warm-up).
fn time_per_call(mut f: impl FnMut()) -> f64 {
    f(); // warm caches, size pools
    let mut iters = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > 0.2 {
            return elapsed / iters as f64;
        }
        iters = iters.saturating_mul(4);
    }
}

/// Dispatched blocked kernel vs naive reference at training-relevant
/// shapes, stamped with the kernel tier and compared against the recorded
/// PR 4 (scalar-tier) baselines.
fn bench_gemm() -> Vec<GemmBench> {
    let tier = active_tier();
    // Forward of the paper MLP's first layer, a square mid-size, and a
    // conv-lowered shape (filters × CKK × OHOW).
    let shapes: &[(usize, usize, usize)] = &[(50, 784, 200), (128, 128, 128), (32, 288, 256)];
    shapes
        .iter()
        .map(|&(m, k, n)| {
            let mut rng = rng_from_seed(99);
            let a = Tensor::randn(vec![m, k], 1.0, &mut rng);
            let b = Tensor::randn(vec![k, n], 1.0, &mut rng);
            let mut c_blocked = vec![0.0f32; m * n];
            let mut c_naive = vec![0.0f32; m * n];
            let mut c_fma = vec![0.0f32; m * n];
            let blocked_secs = time_per_call(|| {
                gemm(a.data(), b.data(), &mut c_blocked, m, k, n, 1.0, 0.0);
            });
            let naive_secs = time_per_call(|| {
                gemm_reference::gemm(a.data(), b.data(), &mut c_naive, m, k, n, 1.0, 0.0);
            });
            let fma_secs = if KernelTier::Avx2Fma.available() {
                time_per_call(|| {
                    gemm_with_tier(
                        KernelTier::Avx2Fma,
                        a.data(),
                        b.data(),
                        &mut c_fma,
                        m,
                        k,
                        n,
                        1.0,
                        0.0,
                    );
                })
            } else {
                f64::INFINITY
            };
            let flops = 2.0 * (m * k * n) as f64;
            let blocked_gflops = flops / blocked_secs / 1e9;
            GemmBench {
                m,
                k,
                n,
                blocked_gflops,
                naive_gflops: flops / naive_secs / 1e9,
                fma_gflops: if fma_secs.is_finite() {
                    flops / fma_secs / 1e9
                } else {
                    0.0
                },
                speedup: naive_secs / blocked_secs,
                bit_identical: c_blocked == c_naive,
                kernel_tier: tier.name().into(),
                tier_claims_bit_identical: tier.bit_identical(),
            }
        })
        .collect()
}

#[derive(Debug, Serialize)]
struct ConvStageBench {
    workload: String,
    kernel_tier: String,
    steps: u32,
    /// Seconds per step spent in each stage kind.
    im2col_secs: f64,
    gemm_secs: f64,
    transpose_secs: f64,
    col2im_secs: f64,
    /// Shares of the instrumented step total — the memory-bound
    /// (im2col + transpose + col2im) vs compute-bound (GEMM) split.
    im2col_share: f64,
    gemm_share: f64,
    transpose_share: f64,
    col2im_share: f64,
}

/// Per-stage timing breakdown of a conv forward+backward step at the CNN
/// benchmark's first-layer shape, so the memory-bound-vs-compute-bound
/// split is visible in `BENCH_engine.json` across PRs.
fn bench_conv_stages() -> ConvStageBench {
    let mut rng = rng_from_seed(55);
    let (b, c, hw, f, k, pad) = (16, 3, 16, 8, 3, 1);
    let mut layer = Conv2d::new(c, f, k, pad, Init::HeNormal, &mut rng);
    let x = Tensor::randn(vec![b, c, hw, hw], 1.0, &mut rng);
    let _ = layer.profile_step(&x); // warm buffers, panels, pools
    let mut total = ConvStageProfile::default();
    let mut steps = 0u32;
    while total.total_secs() < 0.2 {
        total.accumulate(&layer.profile_step(&x));
        steps += 1;
    }
    let per = 1.0 / f64::from(steps);
    let sum = total.total_secs();
    ConvStageBench {
        workload: format!("conv {c}→{f} k{k} pad{pad} on [{b}, {c}, {hw}, {hw}]"),
        kernel_tier: active_tier().name().into(),
        steps,
        im2col_secs: total.im2col_secs * per,
        gemm_secs: total.gemm_secs * per,
        transpose_secs: total.transpose_secs * per,
        col2im_secs: total.col2im_secs * per,
        im2col_share: total.im2col_secs / sum,
        gemm_share: total.gemm_secs / sum,
        transpose_share: total.transpose_secs / sum,
        col2im_share: total.col2im_secs / sum,
    }
}

fn print_conv_stages(cs: &ConvStageBench) {
    println!("== conv per-stage breakdown ({}) ==", cs.workload);
    println!(
        "  im2col {:>5.1}%  gemm {:>5.1}%  transpose {:>5.1}%  col2im {:>5.1}%  \
         ({} steps, kernel tier: {})",
        cs.im2col_share * 100.0,
        cs.gemm_share * 100.0,
        cs.transpose_share * 100.0,
        cs.col2im_share * 100.0,
        cs.steps,
        cs.kernel_tier
    );
}

/// Arena epoch vs copy-based reference epoch on the paper-shaped MLP,
/// plus the zero-allocation steady-state measurement.
///
/// Every GEMM in this workload stays under the parallel FLOP threshold
/// (largest: 16·196·64 ≈ 200k < 2^18) so the step runs inline on the
/// measuring thread on any host — parallel dispatch would both escape the
/// thread-local allocation counter and allocate its job boxes.
fn bench_step() -> StepBench {
    let spec = ModelSpec::mlp(&[196, 64, 32, 10]);
    let mut rng = rng_from_seed(7);
    let n = 128;
    let batch_size = 16;
    let x = Tensor::randn(vec![n, 196], 1.0, &mut rng);
    let y: Vec<usize> = (0..n).map(|i| i % 10).collect();
    let cfg = SgdConfig::default();

    let mut arena_model = spec.build(&mut rng_from_seed(8));
    let mut arena_sgd = Sgd::new(cfg);
    let mut arena_rng = rng_from_seed(9);
    let arena_secs = time_per_call(|| {
        sgd_epoch(
            &mut arena_model,
            &x,
            &y,
            batch_size,
            &mut arena_sgd,
            &NoHook,
            &mut arena_rng,
        );
    });

    // Steady-state allocation count: one further epoch (4 steps) on the
    // warmed model must not touch the heap at all.
    let before = thread_allocs();
    sgd_epoch(
        &mut arena_model,
        &x,
        &y,
        batch_size,
        &mut arena_sgd,
        &NoHook,
        &mut arena_rng,
    );
    let steady_state_allocs = thread_allocs() - before;

    let mut ref_model = spec.build(&mut rng_from_seed(8));
    let mut ref_sgd = Sgd::new(cfg);
    let mut ref_rng = rng_from_seed(9);
    let ref_secs = time_per_call(|| {
        sgd_epoch_reference(
            &mut ref_model,
            &x,
            &y,
            batch_size,
            &mut ref_sgd,
            &NoHook,
            &mut ref_rng,
        );
    });

    let steps_per_epoch = n.div_ceil(batch_size) as f64;
    StepBench {
        model: "MLP 196-64-32-10".into(),
        batch_size,
        arena_steps_per_sec: steps_per_epoch / arena_secs,
        reference_steps_per_sec: steps_per_epoch / ref_secs,
        speedup: ref_secs / arena_secs,
        steady_state_allocs,
        zero_alloc_steady_state: steady_state_allocs == 0,
        arena_high_water_bytes: arena_model.arena_high_water_bytes(),
    }
}

/// A paper-spatial CNN (`conv 3→8 → pool → conv 8→16 → pool → fc
/// 256→48→10` on 16×16 input) built by hand so each conv layer's execution
/// mode can be selected — `ModelSpec::build` always produces the batched
/// default.
fn build_cnn(seed: u64, exec: ConvExec) -> Sequential {
    let mut rng = rng_from_seed(seed);
    Sequential::new()
        .push(Conv2d::new(3, 8, 3, 1, Init::HeNormal, &mut rng).with_exec(exec))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Conv2d::new(8, 16, 3, 1, Init::HeNormal, &mut rng).with_exec(exec))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Flatten::new())
        .push(Dense::new(16 * 4 * 4, 48, Init::HeNormal, &mut rng))
        .push(Relu::new())
        .push(Dense::new(48, 10, Init::XavierNormal, &mut rng))
}

/// Batched whole-batch-GEMM conv execution vs the retained per-sample
/// reference on a paper-spatial (16×16) CNN: steps/sec for both,
/// exact-equality check, and the zero-allocation steady-state measurement
/// for `evaluate_arena`.
///
/// At batch 8 the batched conv GEMMs sit **above** the parallel FLOP
/// threshold (conv1 forward: 2048·27·8 ≈ 442k ≥ 2^18) while the
/// per-sample reference's calls sit below it — batching the batch
/// dimension into `m` is precisely what unlocks the parallel kernel path,
/// and on multi-core hosts the recorded speedup includes that win
/// (bit-identity holds across the dispatch difference by the GEMM
/// determinism contract). The allocation measurement runs `evaluate_arena`
/// at batch 3, whose largest GEMM (192·72·16 ≈ 221k) stays inline on the
/// measuring thread on any host.
fn bench_cnn_step() -> CnnStepBench {
    let mut rng = rng_from_seed(17);
    let n = 32;
    let batch_size = 8;
    let eval_batch = 3;
    let x = Tensor::randn(vec![n, 3, 16, 16], 1.0, &mut rng);
    let y: Vec<usize> = (0..n).map(|i| i % 10).collect();
    let cfg = SgdConfig::default();

    // Exactness first, on fresh model pairs with identical init: three
    // epochs of batched and per-sample training must agree bit-for-bit.
    let bit_identical = {
        let mut batched = build_cnn(18, ConvExec::Batched);
        let mut per_sample = build_cnn(18, ConvExec::PerSample);
        let mut sgd_b = Sgd::new(cfg);
        let mut sgd_s = Sgd::new(cfg);
        let mut rng_b = rng_from_seed(19);
        let mut rng_s = rng_from_seed(19);
        let mut same = true;
        for _ in 0..3 {
            let lb = sgd_epoch(
                &mut batched,
                &x,
                &y,
                batch_size,
                &mut sgd_b,
                &NoHook,
                &mut rng_b,
            );
            let ls = sgd_epoch(
                &mut per_sample,
                &x,
                &y,
                batch_size,
                &mut sgd_s,
                &NoHook,
                &mut rng_s,
            );
            same &= lb.to_bits() == ls.to_bits();
        }
        same && batched.params() == per_sample.params()
    };

    // Paired, alternating measurement: one batched epoch then one
    // per-sample epoch per iteration, so slow drift on the host (load,
    // frequency scaling) hits both paths equally instead of whichever
    // happened to be timed last — the ratio is the quantity of record.
    let mut batched = build_cnn(18, ConvExec::Batched);
    let mut per_sample = build_cnn(18, ConvExec::PerSample);
    let mut sgd_b = Sgd::new(cfg);
    let mut sgd_s = Sgd::new(cfg);
    let mut rng_b = rng_from_seed(19);
    let mut rng_s = rng_from_seed(19);
    let epoch_b = |m: &mut Sequential, s: &mut Sgd, r: &mut _| {
        sgd_epoch(m, &x, &y, batch_size, s, &NoHook, r);
    };
    // Warm both models (buffers, panels, pools) before timing.
    epoch_b(&mut batched, &mut sgd_b, &mut rng_b);
    epoch_b(&mut per_sample, &mut sgd_s, &mut rng_s);
    // ABBA ordering inside each iteration cancels first-vs-second bias
    // within the pair as well (cache state handed from one path to the
    // other, scheduler quantum boundaries). Each path is scored by its
    // *minimum* epoch time: host noise (CPU steal, interrupts) is strictly
    // additive, so the min is the cleanest observation of the actual work
    // — the estimator that makes a 1–2% structural difference visible at
    // all on a shared machine.
    let (mut min_b, mut min_s) = (f64::INFINITY, f64::INFINITY);
    let mut spent = 0.0f64;
    let mut iters = 0u32;
    while spent < 0.8 || iters < 12 {
        let t = Instant::now();
        epoch_b(&mut batched, &mut sgd_b, &mut rng_b);
        let tb1 = t.elapsed().as_secs_f64();
        let t = Instant::now();
        epoch_b(&mut per_sample, &mut sgd_s, &mut rng_s);
        let ts1 = t.elapsed().as_secs_f64();
        let t = Instant::now();
        epoch_b(&mut per_sample, &mut sgd_s, &mut rng_s);
        let ts2 = t.elapsed().as_secs_f64();
        let t = Instant::now();
        epoch_b(&mut batched, &mut sgd_b, &mut rng_b);
        let tb2 = t.elapsed().as_secs_f64();
        min_b = min_b.min(tb1).min(tb2);
        min_s = min_s.min(ts1).min(ts2);
        spent += tb1 + ts1 + ts2 + tb2;
        iters += 1;
    }
    let batched_secs = min_b;
    let per_sample_secs = min_s;

    // Steady-state evaluation allocations on the warmed batched model, at
    // the inline-sized eval batch (see the function docs).
    let _ = evaluate_arena(&mut batched, &x, &y, eval_batch);
    let before = thread_allocs();
    let _ = evaluate_arena(&mut batched, &x, &y, eval_batch);
    let eval_steady_state_allocs = thread_allocs() - before;
    let arena_high_water_bytes = batched.arena_high_water_bytes();

    let steps_per_epoch = n.div_ceil(batch_size) as f64;
    CnnStepBench {
        model: "CNN 3x16x16 → conv8 → conv16 → fc48 → 10".into(),
        batch_size,
        batched_steps_per_sec: steps_per_epoch / batched_secs,
        per_sample_steps_per_sec: steps_per_epoch / per_sample_secs,
        speedup: per_sample_secs / batched_secs,
        bit_identical,
        eval_steady_state_allocs,
        eval_zero_alloc: eval_steady_state_allocs == 0,
        arena_high_water_bytes,
    }
}

fn print_cnn(cnn: &CnnStepBench) {
    println!("== CNN step: batched whole-batch GEMM vs per-sample reference ==");
    println!(
        "  batched {:>7.0} steps/s  per-sample {:>7.0} steps/s  ({:.2}x)  \
         bit-identical: {}",
        cnn.batched_steps_per_sec, cnn.per_sample_steps_per_sec, cnn.speedup, cnn.bit_identical
    );
    println!(
        "  eval steady-state allocs: {} (zero-alloc: {})  arena high-water: {} bytes",
        cnn.eval_steady_state_allocs, cnn.eval_zero_alloc, cnn.arena_high_water_bytes
    );
    assert!(
        cnn.bit_identical,
        "batched conv training diverged from the per-sample reference"
    );
    assert!(
        cnn.eval_zero_alloc,
        "steady-state evaluate_arena allocated {} times",
        cnn.eval_steady_state_allocs
    );
}

/// The paper's fleet size (100 devices, K = 10) on smoke-scale MNIST-like
/// data with a skewed Dirichlet split. Small non-IID shards put each ring
/// hop in the regime the engine targets: per-hop model rebuilds and flat
/// copies are a large fraction of the reference path's time.
fn workload(rounds: usize) -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(100)
        .partition(Partition::Dirichlet { beta: 0.1 })
        .local_epochs(1)
        .rounds(rounds)
        .seed(2022)
        .build()
}

const K: usize = 10;

/// The 1k-device churn stress smoke: tiny Dirichlet shards, many rings,
/// 10% per-round dropout and 5% mid-ring failures. This is the regime
/// where the engine's per-hop savings compound and where the dynamic-
/// fleet machinery (re-clustering, ring repair, partial cohorts) is all
/// on the hot path.
const CHURN_DEVICES: usize = 1000;
const CHURN_ROUNDS: usize = 2;
const CHURN_DROPOUT: f64 = 0.1;
const CHURN_FAILURE: f64 = 0.05;

fn churn_workload() -> ExperimentConfig {
    let mut dynamics = FleetDynamics::churn(CHURN_DROPOUT);
    dynamics.mid_round_failure = CHURN_FAILURE;
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(CHURN_DEVICES)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .fleet(dynamics)
        .local_epochs(1)
        .rounds(CHURN_ROUNDS)
        .seed(2022)
        .build()
}

fn time_churn(cfg: &ExperimentConfig, which: &str) -> ChurnResult {
    let run = || -> (RunRecord, f64) {
        let mut env = cfg.build_env();
        let start = Instant::now();
        let record = match which {
            "FedHiSyn" => {
                let mut a = FedHiSyn::new(cfg, 10);
                run_experiment(&mut a, &mut env, cfg.rounds)
            }
            "FedAvg" => {
                let mut a = FedAvg::new(cfg);
                run_experiment(&mut a, &mut env, cfg.rounds)
            }
            "TFedAvg" => {
                let mut a = TFedAvg::new(cfg);
                run_experiment(&mut a, &mut env, cfg.rounds)
            }
            _ => unreachable!("unknown algorithm {which}"),
        };
        (record, start.elapsed().as_secs_f64())
    };
    let (a, seconds) = run();
    let (b, _) = run();
    ChurnResult {
        algorithm: which.to_string(),
        rounds: cfg.rounds,
        seconds,
        rounds_per_sec: cfg.rounds as f64 / seconds.max(1e-9),
        final_accuracy: a.final_accuracy(),
        uploads: a.total_uploads(),
        deterministic: a == b,
    }
}

fn time_mode(cfg: &ExperimentConfig, mode: ExecMode) -> (ModeResult, fedhisyn_nn::ParamVec) {
    // Warm caches (and the thread pool) outside the timed window.
    {
        let mut env = workload(1).build_env();
        env.exec = mode;
        let mut algo = FedHiSyn::new(cfg, K);
        let _ = run_experiment(&mut algo, &mut env, 1);
    }
    let mut env = cfg.build_env();
    env.exec = mode;
    let mut algo = FedHiSyn::new(cfg, K);
    let start = Instant::now();
    let record = run_experiment(&mut algo, &mut env, cfg.rounds);
    let seconds = start.elapsed().as_secs_f64();
    (
        ModeResult {
            mode: format!("{mode:?}"),
            rounds: cfg.rounds,
            seconds,
            rounds_per_sec: cfg.rounds as f64 / seconds.max(1e-9),
            final_accuracy: record.final_accuracy(),
        },
        algo.global().clone(),
    )
}

fn print_gemm(gemm_results: &[GemmBench]) {
    println!(
        "== blocked GEMM ({} tier) vs naive reference ==",
        active_tier().name()
    );
    for g in gemm_results {
        println!(
            "  {:>3}x{:<3}x{:<3}  blocked {:>6.2} GFLOP/s  naive {:>6.2} GFLOP/s  \
             fma {:>6.2} GFLOP/s  ({:.2}x, bit-identical: {})",
            g.m,
            g.k,
            g.n,
            g.blocked_gflops,
            g.naive_gflops,
            g.fma_gflops,
            g.speedup,
            g.bit_identical
        );
        // The dispatched kernel must honour its tier's bit-identity claim:
        // scalar and AVX2 promise exact equality with the naive reference
        // and must deliver it. (A non-claiming tier — FMA — promises
        // nothing here; its accuracy is covered by the dispatch tests.)
        if g.tier_claims_bit_identical {
            assert!(
                g.bit_identical,
                "{} tier claims bit-identity but diverged from the reference",
                g.kernel_tier
            );
        }
    }
}

/// The `--fault-smoke` CI gate: four transport contracts, each asserted.
///
/// 1. **Bit-neutrality** — an explicit `FaultConfig::none()` plan replays
///    the exact `RunRecord` of a build with no plan at all.
/// 2. **Determinism** — a nonzero fault schedule replays bit-identically
///    across fresh runs *and* across execution modes (Cached/Reference).
/// 3. **No corrupted params accepted** — a flipped byte in a wire frame is
///    a typed decode error, and a corrupt-heavy run (checksum tripwire on)
///    completes every round with finite accuracy.
/// 4. **Zero-alloc steady state with faults disabled** — the arena
///    training step still performs zero heap allocations; the fault
///    machinery costs nothing when it is off.
///
/// Plus the scale criterion: the 1k-device churn workload under a lossy
/// wire completes every round with retry bytes visible in telemetry.
fn run_fault_smoke() {
    println!("== fault smoke: deterministic fault-injection transport ==");

    // 1. FaultPlan::none() is bit-neutral against the no-plan build.
    let plain = fault_workload(2, 0.0);
    let none_cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(100)
        .partition(Partition::Dirichlet { beta: 0.1 })
        .local_epochs(1)
        .rounds(2)
        .seed(2022)
        .faults(FaultConfig::none())
        .build();
    let run = |cfg: &ExperimentConfig, mode: ExecMode| {
        let mut env = cfg.build_env();
        env.exec = mode;
        let mut algo = FedHiSyn::new(cfg, K);
        let rec = run_experiment(&mut algo, &mut env, cfg.rounds);
        (rec, env.meter.snapshot())
    };
    let (rec_plain, traffic_plain) = run(&plain, ExecMode::Cached);
    let (rec_none, traffic_none) = run(&none_cfg, ExecMode::Cached);
    assert_eq!(
        rec_plain, rec_none,
        "FaultPlan::none() perturbed the run — the fault-free fast path is not bit-neutral"
    );
    assert_eq!(traffic_plain, traffic_none);
    assert_eq!(
        traffic_plain.retransmit_bytes, 0.0,
        "a fault-free run charged retransmit bytes"
    );
    println!("  none-plan bit-neutrality: ok");

    // 2. A nonzero schedule replays bit-identically across runs and modes.
    let lossy = fault_workload(2, 0.15);
    let (rec_a, traffic_a) = run(&lossy, ExecMode::Cached);
    let (rec_b, traffic_b) = run(&lossy, ExecMode::Cached);
    let (rec_ref, traffic_ref) = run(&lossy, ExecMode::Reference);
    assert_eq!(
        rec_a, rec_b,
        "lossy run diverged between identical seeded runs"
    );
    assert_eq!(traffic_a, traffic_b);
    assert_eq!(
        rec_a, rec_ref,
        "lossy run diverged between Cached and Reference execution modes"
    );
    assert_eq!(traffic_a, traffic_ref);
    assert!(
        traffic_a.retransmit_bytes > 0.0,
        "15% loss over 2 rounds must put at least one retry frame on the wire"
    );
    println!(
        "  lossy determinism (runs + exec modes): ok ({:.0} retransmit bytes)",
        traffic_a.retransmit_bytes
    );

    // 3. Corruption is detected, never trained on.
    {
        use fedhisyn_nn::wire;
        let params =
            fedhisyn_nn::ParamVec::from_vec((0..64).map(|i| (i as f32) * 0.37 - 9.0).collect());
        let mut frame = wire::encode(&params).to_vec();
        let payload_byte = wire::HEADER_LEN + 5;
        frame[payload_byte] ^= 0x40;
        assert!(
            wire::decode(&frame).is_err(),
            "a flipped payload byte must fail the frame checksum"
        );
        // Flipping it back restores a valid frame (the checksum is content,
        // not position, sensitive).
        frame[payload_byte] ^= 0x40;
        assert_eq!(
            wire::decode(&frame).expect("restored frame decodes"),
            params
        );
    }
    let mut corrupt_faults = FaultConfig::none();
    corrupt_faults.corrupt = 0.3;
    let corrupt_cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(60)
        .partition(Partition::Dirichlet { beta: 0.1 })
        .local_epochs(1)
        .rounds(2)
        .seed(2022)
        .wire_check(true)
        .faults(corrupt_faults)
        .build();
    let (rec_corrupt, traffic_corrupt) = run(&corrupt_cfg, ExecMode::Cached);
    assert_eq!(
        rec_corrupt.rounds.len(),
        2,
        "corruption must never abort a round"
    );
    assert!(
        rec_corrupt.final_accuracy().is_finite(),
        "corrupted payloads leaked into aggregation"
    );
    assert!(traffic_corrupt.retransmit_bytes > 0.0);
    println!("  corruption detected, zero corrupted params accepted: ok");

    // 4. Zero-alloc steady state with faults disabled.
    let step = bench_step();
    assert!(
        step.zero_alloc_steady_state,
        "steady-state arena step allocated {} times with faults disabled",
        step.steady_state_allocs
    );
    println!("  zero-alloc steady state with faults disabled: ok");

    // 5. 1k-device churn + lossy wire: every round completes, retry bytes
    //    visible, replay bit-identical.
    let mut churn_cfg = churn_workload();
    churn_cfg.faults = Some(FaultConfig::edge_wireless());
    let (rec_churn, traffic_churn) = run(&churn_cfg, ExecMode::Cached);
    let (rec_churn2, traffic_churn2) = run(&churn_cfg, ExecMode::Cached);
    assert_eq!(
        rec_churn.rounds.len(),
        CHURN_ROUNDS,
        "churn + faults must complete every round"
    );
    assert!(
        traffic_churn.retransmit_bytes > 0.0,
        "an edge-wireless 1k-device run must show retry bytes"
    );
    assert_eq!(rec_churn, rec_churn2);
    assert_eq!(traffic_churn, traffic_churn2);
    let retry_rounds: f64 = rec_churn
        .rounds
        .iter()
        .map(|r| r.telemetry.retransmit_bytes)
        .sum();
    assert!(
        (retry_rounds - traffic_churn.retransmit_bytes).abs() < 1e-6,
        "per-round retransmit deltas must fold to the meter total"
    );
    println!(
        "  1k-device churn + faults: ok ({} rounds, {:.0} retransmit bytes)",
        rec_churn.rounds.len(),
        traffic_churn.retransmit_bytes
    );
}

/// The `--codec-smoke` CI gate: four compressed-wire contracts, asserted.
///
/// 1. **F32 bit-neutrality** — a config explicitly selecting `Codec::F32`
///    replays the exact `RunRecord` and traffic ledgers of a build that
///    never mentions codecs, and charges zero compression (raw ≡ wire).
/// 2. **Lossy-codec determinism** — Int8 and TopK runs replay
///    bit-identically across fresh runs *and* across execution modes
///    (Cached/Reference): the quantization grid and per-device residual
///    streams are pure functions of the seed.
/// 3. **Zero-alloc steady state with the codec enabled** — the fused
///    encode→decode→residual transform reuses its scratch buffers; after
///    warm-up it performs zero heap allocations.
/// 4. **Compression composes with faults** — a lossy wire under the Int8
///    codec completes every round with finite accuracy, visible retry
///    bytes, and > 3x fewer encoded than raw bytes.
fn run_codec_smoke() {
    println!("== codec smoke: compressed wire path ==");
    let run = |cfg: &ExperimentConfig, mode: ExecMode| {
        let mut env = cfg.build_env();
        env.exec = mode;
        let mut algo = FedHiSyn::new(cfg, K);
        let rec = run_experiment(&mut algo, &mut env, cfg.rounds);
        (rec, env.meter.snapshot())
    };

    // 1. Codec::F32 is bit-neutral against the codec-free build (same
    //    engine workload, codec selected explicitly on one side).
    let plain = workload(2);
    let mut f32_cfg = workload(2);
    f32_cfg.codec = Codec::F32;
    let (rec_plain, traffic_plain) = run(&plain, ExecMode::Cached);
    let (rec_f32, traffic_f32) = run(&f32_cfg, ExecMode::Cached);
    assert_eq!(
        rec_plain, rec_f32,
        "Codec::F32 perturbed the run — the default wire is not bit-neutral"
    );
    assert_eq!(traffic_plain, traffic_f32);
    assert_eq!(rec_f32.codec, "f32");
    assert_eq!(
        traffic_f32.raw_bytes, traffic_f32.wire_bytes,
        "the f32 wire must charge raw and encoded ledgers identically"
    );
    println!("  f32 bit-neutrality: ok");

    // 2. Int8 and TopK replay bit-identically across runs and exec modes.
    for codec in [Codec::Int8, Codec::TopK { permille: 100 }] {
        let cfg = codec_workload(2, codec, 0.0);
        let (rec_a, traffic_a) = run(&cfg, ExecMode::Cached);
        let (rec_b, traffic_b) = run(&cfg, ExecMode::Cached);
        let (rec_ref, traffic_ref) = run(&cfg, ExecMode::Reference);
        assert_eq!(
            rec_a,
            rec_b,
            "{} run diverged between identical seeded runs",
            codec.label()
        );
        assert_eq!(traffic_a, traffic_b);
        assert_eq!(
            rec_a,
            rec_ref,
            "{} run diverged between Cached and Reference execution modes",
            codec.label()
        );
        assert_eq!(traffic_a, traffic_ref);
        assert_eq!(rec_a.codec, codec.label(), "RunRecord codec stamp");
        assert!(
            traffic_a.wire_bytes < traffic_a.raw_bytes,
            "{} charged no compression",
            codec.label()
        );
        println!(
            "  {} determinism (runs + exec modes): ok ({:.2}x compression)",
            codec.label(),
            traffic_a.compression_ratio()
        );
    }

    // 3. Zero-alloc steady state: the fused transform reuses its scratch.
    {
        use fedhisyn_nn::{wire, CodecScratch, ParamVec};
        for codec in [Codec::Int8, Codec::TopK { permille: 100 }] {
            let n = 4096;
            let mut params = ParamVec::from_vec((0..n).map(|i| (i as f32 * 0.37).sin()).collect());
            let base = ParamVec::from_vec((0..n).map(|i| (i as f32 * 0.11).cos()).collect());
            let mut residual = ParamVec::zeros(n);
            let mut scratch = CodecScratch::new();
            wire::codec_transform_in_place(
                codec,
                &mut params,
                Some(&base),
                &mut residual,
                &mut scratch,
            );
            let before = thread_allocs();
            for _ in 0..4 {
                wire::codec_transform_in_place(
                    codec,
                    &mut params,
                    Some(&base),
                    &mut residual,
                    &mut scratch,
                );
            }
            let allocs = thread_allocs() - before;
            assert_eq!(
                allocs,
                0,
                "steady-state {} transform allocated {} times",
                codec.label(),
                allocs
            );
        }
        println!("  zero-alloc steady state with codec enabled: ok");
    }

    // 4. Compression composes with the lossy wire and retry relay.
    let lossy = codec_workload(2, Codec::Int8, 0.15);
    let (rec_lossy, traffic_lossy) = run(&lossy, ExecMode::Cached);
    let (rec_lossy2, traffic_lossy2) = run(&lossy, ExecMode::Cached);
    assert_eq!(
        rec_lossy.rounds.len(),
        2,
        "lossy wire + codec must complete every round"
    );
    assert!(rec_lossy.final_accuracy().is_finite());
    assert_eq!(rec_lossy, rec_lossy2);
    assert_eq!(traffic_lossy, traffic_lossy2);
    assert!(
        traffic_lossy.retransmit_bytes > 0.0,
        "15% loss over 2 rounds must put at least one retry frame on the wire"
    );
    assert!(
        traffic_lossy.compression_ratio() > 3.0,
        "retries erased the compression win: {:.2}x",
        traffic_lossy.compression_ratio()
    );
    println!(
        "  lossy wire + codec: ok ({:.0} retransmit bytes, {:.2}x compression)",
        traffic_lossy.retransmit_bytes,
        traffic_lossy.compression_ratio()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = fedhisyn_bench::trace::trace_path_from_args() {
        // CI smoke: run a short traced round loop on the engine workload,
        // emit + validate the Perfetto trace, and exit without touching
        // the recorded benchmark numbers.
        let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(12)
            .partition(Partition::Dirichlet { beta: 0.1 })
            .local_epochs(1)
            .rounds(3)
            .seed(2022)
            .build();
        let (record, _) = fedhisyn_bench::trace::run_traced(&cfg, 4, std::path::Path::new(&path));
        println!(
            "traced engine smoke: final acc {:.1}%, {} rounds",
            record.final_accuracy() * 100.0,
            record.rounds.len()
        );
        return;
    }
    if args.iter().any(|a| a == "--fault-smoke") {
        // CI smoke: the transport fault-injection contracts, asserted
        // without touching the recorded benchmark numbers.
        run_fault_smoke();
        return;
    }
    if args.iter().any(|a| a == "--codec-smoke") {
        // CI smoke: the compressed-wire contracts, asserted without
        // touching the recorded benchmark numbers.
        run_codec_smoke();
        return;
    }
    if args.iter().any(|a| a == "--gemm-only") {
        // CI smoke: just the kernel benchmark + its exactness assertion.
        print_gemm(&bench_gemm());
        return;
    }
    if args.iter().any(|a| a == "--cnn-only") {
        // CI smoke: the batched-conv step benchmark, its exactness
        // assertion and the eval zero-alloc assertion.
        print_cnn(&bench_cnn_step());
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--fleet-scale") {
        // CI smoke: the lazy-fleet scale benchmark alone, so `VmHWM` is
        // dominated by the fleet layer and the budget below is a real
        // ceiling on its footprint, not on the other benchmarks'.
        let devices = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(100_000);
        let smoke = bench_fleet_scale(devices, 50, FLEET_SCALE_COHORT);
        print_fleet_scale(&smoke);
        const SMOKE_RSS_BUDGET: u64 = 256 * 1024 * 1024;
        assert!(
            smoke.peak_rss_bytes <= SMOKE_RSS_BUDGET,
            "peak RSS {} bytes exceeds the {} MiB smoke budget — \
             lazy realisation is leaking toward O(fleet)",
            smoke.peak_rss_bytes,
            SMOKE_RSS_BUDGET >> 20
        );
        println!(
            "  peak RSS within the {} MiB smoke budget",
            SMOKE_RSS_BUDGET >> 20
        );
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--train-scale") {
        // CI smoke: end-to-end FedHiSyn rounds over the lazy data plane
        // alone, so `VmHWM` is dominated by the data plane + fleet layer
        // and the budget is a real ceiling on O(cohort) residency.
        let devices = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(TRAIN_SMOKE_DEVICES);
        let smoke = bench_train_scale(devices, TRAIN_SMOKE_ROUNDS, TRAIN_SCALE_COHORT);
        print_train_scale(&smoke);
        const SMOKE_RSS_BUDGET: u64 = 256 * 1024 * 1024;
        assert!(
            smoke.peak_rss_bytes <= SMOKE_RSS_BUDGET,
            "peak RSS {} bytes exceeds the {} MiB smoke budget — \
             shard realisation is leaking toward O(fleet)",
            smoke.peak_rss_bytes,
            SMOKE_RSS_BUDGET >> 20
        );
        println!(
            "  peak RSS within the {} MiB smoke budget",
            SMOKE_RSS_BUDGET >> 20
        );
        return;
    }
    let rounds = args
        .iter()
        .skip_while(|a| *a != "--rounds")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let cfg = workload(rounds);

    let (cached, cached_global) = time_mode(&cfg, ExecMode::Cached);
    let (reference, reference_global) = time_mode(&cfg, ExecMode::Reference);
    let gemm_results = bench_gemm();
    let conv_stages = bench_conv_stages();
    let step = bench_step();
    let cnn_step = bench_cnn_step();

    let fleet_scale =
        bench_fleet_scale(FLEET_SCALE_DEVICES, FLEET_SCALE_ROUNDS, FLEET_SCALE_COHORT);
    let train_scale =
        bench_train_scale(TRAIN_SCALE_DEVICES, TRAIN_SCALE_ROUNDS, TRAIN_SCALE_COHORT);
    let fault_sweep = bench_fault_sweep(2);
    // Long enough for top-k error feedback to converge: early sparsified
    // broadcasts cost accuracy that the residual stream pays back over
    // the first handful of rounds.
    let codec_sweep = bench_codec_sweep(12);

    let churn_cfg = churn_workload();
    let churn = ChurnReport {
        workload: format!(
            "smoke MNIST-like MLP, {CHURN_DEVICES} devices, Dirichlet(0.3), \
             {:.0}% dropout, {:.0}% mid-ring failure",
            CHURN_DROPOUT * 100.0,
            CHURN_FAILURE * 100.0
        ),
        devices: CHURN_DEVICES,
        dropout: CHURN_DROPOUT,
        mid_round_failure: CHURN_FAILURE,
        results: ["FedHiSyn", "FedAvg", "TFedAvg"]
            .iter()
            .map(|which| time_churn(&churn_cfg, which))
            .collect(),
    };

    let report = EngineReport {
        workload: "smoke MNIST-like MLP, 100 devices, Dirichlet(0.1), K=10".into(),
        devices: cfg.n_devices,
        local_epochs: cfg.local_epochs,
        kernel_tier: fedhisyn_core::ExecutionEngine::kernel_tier().into(),
        kernel_tier_bit_identical: fedhisyn_core::ExecutionEngine::kernel_tier_bit_identical(),
        speedup: cached.rounds_per_sec / reference.rounds_per_sec.max(1e-12),
        bit_identical: cached_global == reference_global,
        results: vec![cached, reference],
        gemm: gemm_results,
        conv_stages,
        step,
        cnn_step,
        churn,
        fleet_scale,
        train_scale,
        fault_sweep,
        codec_sweep,
    };

    println!(
        "== execution engine: FedHiSyn rounds/sec (kernel tier: {}) ==",
        report.kernel_tier
    );
    for r in &report.results {
        println!(
            "  {:<10} {:>6.2} rounds/s  ({} rounds in {:.2}s, final acc {:.1}%)",
            r.mode,
            r.rounds_per_sec,
            r.rounds,
            r.seconds,
            r.final_accuracy * 100.0
        );
    }
    println!(
        "  speedup {:.2}x, bit-identical: {}",
        report.speedup, report.bit_identical
    );
    assert!(
        report.bit_identical,
        "engine and reference paths diverged — determinism contract broken"
    );

    print_gemm(&report.gemm);
    print_conv_stages(&report.conv_stages);

    println!("== arena training step ==");
    println!(
        "  arena {:>7.0} steps/s  reference {:>7.0} steps/s  ({:.2}x)  \
         steady-state allocs: {} (zero-alloc: {})  arena high-water: {} bytes",
        report.step.arena_steps_per_sec,
        report.step.reference_steps_per_sec,
        report.step.speedup,
        report.step.steady_state_allocs,
        report.step.zero_alloc_steady_state,
        report.step.arena_high_water_bytes
    );
    assert!(
        report.step.zero_alloc_steady_state,
        "steady-state arena step allocated {} times",
        report.step.steady_state_allocs
    );

    print_cnn(&report.cnn_step);

    println!("\n== churn stress: {} ==", report.churn.workload);
    for r in &report.churn.results {
        println!(
            "  {:<10} {:>6.2} rounds/s  ({} rounds in {:.2}s, final acc {:.1}%, \
             {} uploads, deterministic: {})",
            r.algorithm,
            r.rounds_per_sec,
            r.rounds,
            r.seconds,
            r.final_accuracy * 100.0,
            r.uploads,
            r.deterministic
        );
        assert!(
            r.deterministic,
            "{} diverged between identical churn runs — determinism contract broken",
            r.algorithm
        );
    }

    print_fleet_scale(&report.fleet_scale);
    print_train_scale(&report.train_scale);
    print_fault_sweep(&report.fault_sweep);
    print_codec_sweep(&report.codec_sweep);

    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_engine.json", json) {
                eprintln!("warning: could not write BENCH_engine.json: {e}");
            } else {
                eprintln!("(wrote BENCH_engine.json)");
            }
        }
        Err(e) => eprintln!("warning: could not serialize report: {e}"),
    }
}

//! Allocation regression tests for the compute hot path.
//!
//! The arena-backed refactors promise that a steady-state **round** — a
//! training step plus the round's evaluation, after the first batch has
//! sized the per-model scratch arena, the cached model exists and the GEMM
//! operand-copy buffer is warm — performs **zero heap allocations**. These tests
//! pin that property with a counting global
//! allocator so any future change that sneaks a per-batch `Vec` or tensor
//! allocation back into the round fails CI immediately:
//!
//! * the MLP engine round (`local_train_plain_owned` + `evaluate_on_test`),
//! * `evaluate_arena` on an MLP, in several chunks and in one,
//! * a CNN stack (batched conv kernels) through `sgd_epoch` +
//!   `evaluate_arena`.
//!
//! The counter is **thread-local** (a const-initialised `Cell`, which the
//! allocator can touch without allocating), so pool worker threads and the
//! libtest harness cannot perturb the measurement. Every workload is sized
//! to stay under the GEMM parallel threshold, so the measured work runs
//! inline on the measuring thread on any host (and each `#[test]` runs on
//! its own libtest thread with its own counter and warm-up).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fedhisyn::core::env::DeviceBank;
use fedhisyn::core::local::{evaluate_on_test, local_train_plain_owned};
use fedhisyn::core::FlEnv;
use fedhisyn::nn::{ModelSpec, SgdConfig};
use fedhisyn::prelude::Dataset;
use fedhisyn::simnet::{sample_latencies, HeterogeneityModel, TrafficMeter};
use fedhisyn::tensor::{gemm_reference, rng_from_seed, Tensor};

thread_local! {
    /// Heap allocations performed by the current thread. Const-init +
    /// no-Drop payload means accessing it from inside the allocator never
    /// allocates or races thread teardown.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn bump() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

/// Allocations on the calling thread since process start.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A small fleet env whose every GEMM stays below the parallel threshold
/// (so the step runs inline on this thread) while still exercising the
/// blocked kernel path (above its blocking threshold).
fn tiny_env() -> FlEnv {
    let mut rng = rng_from_seed(42);
    let n = 64;
    let x = Tensor::randn(vec![n, 32], 1.0, &mut rng);
    let y: Vec<usize> = (0..n).map(|i| i % 10).collect();
    let shard = Dataset::new(x, y, 10);
    let test = Dataset::new(Tensor::zeros(vec![4, 32]), vec![0, 1, 2, 3], 10);
    let profiles = sample_latencies(2, HeterogeneityModel::Homogeneous, &mut rng);
    FlEnv {
        spec: ModelSpec::mlp(&[32, 24, 10]),
        data: fedhisyn::prelude::DataSource::Dense(vec![shard.clone(), shard]),
        test,
        fleet: fedhisyn::fleet::FleetModel::static_fleet(&profiles),
        meter: TrafficMeter::new(),
        local_epochs: 1,
        batch_size: 16,
        sgd: SgdConfig { lr: 0.1 },
        seed: 7,
        codec: fedhisyn::nn::Codec::F32,
        residuals: DeviceBank::new(),
        faults: fedhisyn::simnet::FaultPlan::none(),
        cohort: None,
        telemetry: fedhisyn::telemetry::TelemetrySink::disabled(),
    }
}

/// Sanity-check that the counting allocator observes this thread.
fn assert_counter_wired() {
    let before_probe = thread_allocs();
    let probe = vec![0u8; 4096];
    assert!(
        thread_allocs() > before_probe,
        "counting allocator is not wired up"
    );
    drop(probe);
}

#[test]
fn steady_state_round_is_allocation_free() {
    let env = tiny_env();
    let init = env.spec.build(&mut rng_from_seed(0)).params();

    // Warm-up: builds the cached model, sizes its arena on the first
    // batch, fills the epoch-buffer pool and the GEMM operand-copy buffer — for both the
    // training step and the round's evaluation.
    let mut params = init.clone();
    for salt in 0..2 {
        params = local_train_plain_owned(&env, 0, params, 1, 0, salt);
        let _ = evaluate_on_test(&env, &params);
    }

    assert_counter_wired();

    // The pinned property: a steady-state **round** — training step
    // plus test-set evaluation — allocates NOTHING: no batch tensors, no
    // activation buffers, no grad vectors, no operand copies, no epoch
    // bookkeeping, no prediction vectors.
    let before = thread_allocs();
    let trained = local_train_plain_owned(&env, 0, params, 1, 0, 9);
    let acc = evaluate_on_test(&env, &trained);
    let steady_allocs = thread_allocs() - before;
    assert_eq!(
        steady_allocs, 0,
        "steady-state round performed {steady_allocs} heap allocations"
    );
    assert!(trained.is_finite());
    assert!((0.0..=1.0).contains(&acc));

    // Contrast: building the model the engine keeps cached allocates
    // every layer's tensors — which sanity-checks the counter against the
    // work a round would otherwise start with.
    let before = thread_allocs();
    let _ = env.spec.build(&mut rng_from_seed(0));
    assert!(
        thread_allocs() - before >= 8,
        "building a model should allocate its parameter and gradient tensors"
    );
}

/// The arena metric entry point on an MLP: `evaluate_arena`, in several
/// chunks and in one, must be zero-allocation once the model's arena is
/// sized.
#[test]
fn steady_state_mlp_evaluation_is_allocation_free() {
    let mut rng = rng_from_seed(11);
    let n = 48;
    let x = Tensor::randn(vec![n, 32], 1.0, &mut rng);
    let y: Vec<usize> = (0..n).map(|i| i % 10).collect();
    let mut model = ModelSpec::mlp(&[32, 24, 10]).build(&mut rng);

    // Warm-up sizes the arena for the larger chunk.
    let _ = fedhisyn::nn::evaluate_arena(&mut model, &x, &y, n);

    assert_counter_wired();

    let before = thread_allocs();
    let acc = fedhisyn::nn::evaluate_arena(&mut model, &x, &y, 16);
    let acc_whole = fedhisyn::nn::evaluate_arena(&mut model, &x, &y, n);
    let steady_allocs = thread_allocs() - before;
    assert_eq!(
        steady_allocs, 0,
        "steady-state MLP evaluation performed {steady_allocs} heap allocations"
    );
    assert!((0.0..=1.0).contains(&acc));
    assert_eq!(acc, acc_whole, "the chunk must not change the result");

    // And the metric entry point agrees exactly with logits computed
    // here by the naive reference GEMM, layer by layer: the blocked and
    // the reference kernels are bit-identical, and nothing below shares
    // code with the model's forward pass.
    let params = model.params();
    let mut offset = 0usize;
    let mut take = |len: usize| {
        offset += len;
        &params.as_slice()[offset - len..offset]
    };
    let mut dense = |input: &[f32], fan_in: usize, fan_out: usize| {
        let (w, b) = (take(fan_in * fan_out), take(fan_out));
        let mut out = vec![0.0f32; n * fan_out];
        gemm_reference::gemm(input, w, &mut out, n, fan_in, fan_out, 1.0, 0.0);
        for row in out.chunks_exact_mut(fan_out) {
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += bv;
            }
        }
        out
    };
    let mut hidden = dense(x.data(), 32, 24);
    for v in &mut hidden {
        *v = v.max(0.0);
    }
    let logits = dense(&hidden, 24, 10);
    let c = 10;
    let argmax = |row: &[f32]| {
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    let correct = logits
        .chunks_exact(c)
        .zip(&y)
        .filter(|(row, &label)| argmax(row) == label)
        .count();
    assert_eq!(acc, correct as f32 / n as f32);
}

/// The CNN stack (batched im2col conv, pool, flatten) through the arena
/// paths: steady-state `sgd_epoch` + `evaluate_arena` must not allocate.
/// Shapes keep every batched GEMM under the parallel FLOP threshold
/// (largest: conv1 forward at 6·64·27·8 ≈ 83k < 2^18), so the whole
/// epoch runs inline on the measuring thread.
#[test]
fn steady_state_cnn_round_is_allocation_free() {
    let mut rng = rng_from_seed(21);
    let n = 12;
    let x = Tensor::randn(vec![n, 3, 8, 8], 1.0, &mut rng);
    let y: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let mut model = ModelSpec::smoke_cnn(8, 3).build(&mut rng);
    let mut sgd = fedhisyn::nn::Sgd::new(SgdConfig { lr: 0.05 });
    let mut train_rng = rng_from_seed(22);

    // Warm-up: sizes the (batched-conv) arena, fills the GEMM operand-copy
    // buffer and the epoch-buffer pool.
    for _ in 0..2 {
        let _ = fedhisyn::nn::sgd_epoch(
            &mut model,
            &x,
            &y,
            6,
            &mut sgd,
            &fedhisyn::nn::NoHook,
            &mut train_rng,
        );
        let _ = fedhisyn::nn::evaluate_arena(&mut model, &x, &y, 6);
    }

    assert_counter_wired();

    let before = thread_allocs();
    let loss = fedhisyn::nn::sgd_epoch(
        &mut model,
        &x,
        &y,
        6,
        &mut sgd,
        &fedhisyn::nn::NoHook,
        &mut train_rng,
    );
    let acc = fedhisyn::nn::evaluate_arena(&mut model, &x, &y, 6);
    let steady_allocs = thread_allocs() - before;
    assert_eq!(
        steady_allocs, 0,
        "steady-state CNN round performed {steady_allocs} heap allocations"
    );
    assert!(loss.is_finite());
    assert!((0.0..=1.0).contains(&acc));
}

/// The compressed wire path's steady state must stay off the heap: once
/// the device's error-feedback residual exists, every further Int8
/// transform — the per-hop work of a codec-enabled round — works through
/// fixed stack chunks.
#[test]
fn steady_state_codec_transform_is_allocation_free() {
    use fedhisyn::nn::{wire, Codec, CodecScratch, ParamVec};

    let n = 4096;
    let g: Vec<f32> = (0..n)
        .map(|i| ((i * 37) % 101) as f32 * 0.01 - 0.5)
        .collect();
    let codec = Codec::Int8;
    let mut scratch = CodecScratch::new();
    let mut params = ParamVec::from_vec(g);
    let mut residual = ParamVec::zeros(n);
    wire::codec_transform_in_place(codec, &mut params, None, &mut residual, &mut scratch);

    assert_counter_wired();

    let before = thread_allocs();
    for _ in 0..4 {
        wire::codec_transform_in_place(codec, &mut params, None, &mut residual, &mut scratch);
    }
    let steady_allocs = thread_allocs() - before;
    assert_eq!(
        steady_allocs, 0,
        "steady-state Int8 transform performed {steady_allocs} heap allocations"
    );
    assert!(params.is_finite());
    assert!(residual.is_finite());
}

/// The telemetry hot path must stay off the heap: a **disabled** sink is
/// pure branches (this is what keeps the steady-state round above
/// zero-alloc with the sink field threaded through `FlEnv`), and an
/// **enabled** sink records `Copy` events into its pre-reserved buffer
/// and bumps pre-registered atomics — no per-event allocation, not even
/// on buffer overflow (overflow is a counter bump, not a growth).
#[test]
fn telemetry_recording_is_allocation_free() {
    use fedhisyn::telemetry::{Phase, SpanCtx, TelemetrySink};

    let disabled = TelemetrySink::disabled();
    let enabled = TelemetrySink::enabled(1024);
    let tiny = TelemetrySink::enabled(8); // overflows below

    // Warm-up: first lock/first record on each sink.
    for sink in [&disabled, &enabled, &tiny] {
        let w = sink.wall_start();
        sink.span(Phase::Round, 0, SpanCtx::ROOT, (0.0, 1.0), w);
    }

    assert_counter_wired();

    let before = thread_allocs();
    for round in 0..256u32 {
        let w = disabled.wall_start();
        disabled.span(
            Phase::LocalTrain,
            round,
            SpanCtx::device(0, round, 0),
            (0.0, 1.0),
            w,
        );

        let w = enabled.wall_start();
        enabled.span(
            Phase::RelayHop,
            round,
            SpanCtx::device(1, round, 2),
            (0.5, 1.5),
            w,
        );

        // Past capacity from round 8 on: dropped + counted, still no heap.
        let w = tiny.wall_start();
        tiny.span(Phase::RingInterval, round, SpanCtx::lane(0), (0.0, 8.0), w);
    }
    let steady_allocs = thread_allocs() - before;
    assert_eq!(
        steady_allocs, 0,
        "telemetry recording performed {steady_allocs} heap allocations"
    );

    let t = enabled.telemetry().expect("enabled");
    assert_eq!(t.events().len(), 257, "all spans under capacity retained");
    assert_eq!(t.dropped(), 0);
    let t = tiny.telemetry().expect("enabled");
    assert_eq!(t.events().len(), 8, "buffer never grows past capacity");
    assert_eq!(t.dropped(), 249);
}

/// Lazy data-plane steady state: once a cohort's shards are
/// cache-resident, every fetch is a mutex lock, a map probe and an `Arc`
/// refcount bump — no heap traffic — and `shard_len` stays a pure hash.
/// This is what makes steady-state rounds over a lazy fleet as
/// allocation-quiet as dense ones.
#[test]
fn lazy_shard_cache_hits_are_allocation_free() {
    use fedhisyn::data::synth::InputKind;
    use fedhisyn::data::{DataSource, ShardPlan, SynthConfig};

    let plan = ShardPlan::new(
        SynthConfig {
            classes: 4,
            input: InputKind::Flat { dim: 16 },
            train_per_class: 8,
            test_per_class: 4,
            separation: 2.0,
            noise: 1.0,
            seed: 33,
        },
        256,
        0.5,
        8,
        24,
    );
    let src = DataSource::lazy(plan, 8);
    // Warm-up: realise the "cohort" into the cache.
    for d in 0..8 {
        let _ = src.shard(d);
    }

    assert_counter_wired();

    let before = thread_allocs();
    let mut acc = 0usize;
    for _ in 0..4 {
        for d in 0..8 {
            let shard = src.shard(d);
            acc += shard.len() + src.shard_len(d);
        }
    }
    let steady_allocs = thread_allocs() - before;
    assert_eq!(
        steady_allocs, 0,
        "steady-state lazy shard access performed {steady_allocs} heap allocations"
    );
    assert!(acc > 0);
    assert_eq!(src.shards_realised(), 8);
    assert_eq!(src.shard_cache_hits(), 4 * 8);
    assert_eq!(src.shard_cache_evictions(), 0);
}

/// Fleet queries must stay off the heap: static-fleet point queries
/// allocate nothing, and neither do lazy point queries on a device that
/// has been realised once — re-reading a round is a pure hash recompute,
/// and advancing the device to rounds it has never seen moves its cursor
/// in place.
#[test]
fn fleet_fast_path_queries_are_allocation_free() {
    use fedhisyn::fleet::{FleetDynamics, FleetModel};

    let mut rng = rng_from_seed(5);
    let profiles = sample_latencies(64, HeterogeneityModel::Uniform { h: 10.0 }, &mut rng);
    let static_fleet = FleetModel::static_fleet(&profiles);
    let churned = FleetModel::new(
        &profiles,
        FleetDynamics {
            mid_round_failure: 0.1,
            ..FleetDynamics::churn(0.2)
        },
        7,
    );

    // Warm-up: realise every device once — the map insert is the only
    // allocation the lazy path makes for a device.
    for d in 0..64 {
        let _ = churned.online(d, 0);
    }

    assert_counter_wired();

    let before = thread_allocs();
    let mut acc = 0.0f64;
    for r in (0..4).chain(36..40).chain(0..2) {
        for d in 0..64 {
            acc += static_fleet.latency(d, r);
            acc += churned.latency(d, r);
            acc += churned.online(d, r) as u64 as f64;
            acc += churned.fail_frac(d, r).unwrap_or(0.0);
        }
    }
    let steady_allocs = thread_allocs() - before;
    assert_eq!(
        steady_allocs, 0,
        "fleet fast-path queries performed {steady_allocs} heap allocations"
    );
    assert!(acc.is_finite());
}

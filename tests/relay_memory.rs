//! Memory gates: a dense setup holds the pooled training split once, an
//! evaluation stays inside the working set training sized, and a
//! FedHiSyn round folds its uploads as its rings finish — on one thread it
//! never holds a model per participant.
//!
//! **Setup.** `build_env` in dense mode synthesises the pooled split and
//! hands every device its rows. Those rows are a permutation of the pooled
//! split, so the shards can take them over without a second copy: the
//! live high-water of the call stays within the pooled train split, the
//! test split and the largest shard, plus a small allowance for the
//! partition's index lists. Copying each shard out of a pooled split that
//! stays alive peaks near twice the train split and fails it.
//!
//! **Evaluation.** After one training step the calling thread's cached
//! model has an arena sized for a training batch. Evaluating the test
//! split in chunks of that batch allocates nothing beyond it; a larger
//! evaluation chunk regrows the arena (conv columns and all) and fails.
//!
//! **Relay.** After a ring interval each device uploads the model it
//! finished training last (Alg. 1), so that is all the relay returns for
//! an upload start: an arrival at a device that has spent its step budget
//! is never trained or uploaded, and it is dropped. While a lane runs,
//! each of its positions holds at most a working model and one pending
//! arrival, and a lane in flight has at most one hop copy on the wire.
//! The round folds each ring's uploads into the server's mean as soon as
//! that ring and every earlier ring have finished, and drops each model
//! once it is added.
//!
//! On one thread the lanes run in ring order, so every ring is folded as
//! soon as it returns and a round's live high-water above the pre-round
//! level is at most
//!
//! ```text
//! 2 × the largest ring                its positions' working models and
//!                                     pending arrivals, then its results
//! + one hop copy
//! + the accumulator
//! + ROUND_MODELS                      broadcast, aggregate, returned global
//! ```
//!
//! models, with no term for the participants. A round that kept every
//! upload until the barrier holds one model per participant and fails it.
//! CI runs this suite pinned to one CPU.
//!
//! On more threads the fold order stays fixed, so a long first ring can
//! leave every later ring's results waiting for it. Lanes run one per pool
//! thread, so the bound there is
//!
//! ```text
//! participants                        one result model each
//! + the pool's largest rings          their pending arrivals, in flight
//! + one hop copy per pool thread
//! + ROUND_MODELS
//! ```
//!
//! models. A relay that also kept every late arrival, or built a
//! carry-over model for every position, peaks near twice the participants
//! and fails it. Both bounds allow a little more for the per-round
//! vectors. The model is a wide MLP on smoke MNIST-like data, so model
//! buffers dominate the round's allocations.
//!
//! A global allocator counts live bytes on every thread (the lanes and
//! the larger GEMMs run on the pool); a resize that keeps its address
//! counts only the difference, a resize that moves counts both buffers.
//! The tests take turns on one lock, so no test's allocations land in
//! another's window. The relay's high-water depends on how lanes
//! interleave on the pool, which is why CI repeats this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use fedhisyn::cluster::kmeans_1d;
use fedhisyn::core::local::{evaluate_on_test, local_train_plain_owned};
use fedhisyn::prelude::*;
use fedhisyn::tensor::rng_from_seed;

/// Bytes currently allocated, on every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since the last [`reset_high_water`].
static HIGH: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    HIGH.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if new.is_null() {
            return new;
        }
        let old_size = layout.size();
        if new != ptr {
            // Moved: the old and the new buffer were both live for the copy.
            grow(new_size);
            LIVE.fetch_sub(old_size, Ordering::SeqCst);
        } else if new_size >= old_size {
            grow(new_size - old_size);
        } else {
            LIVE.fetch_sub(old_size - new_size, Ordering::SeqCst);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Start a new high-water window at the current live level, returned.
fn reset_high_water() -> usize {
    let live = LIVE.load(Ordering::SeqCst);
    HIGH.store(live, Ordering::SeqCst);
    live
}

/// Held for the whole of each test: libtest runs tests on parallel
/// threads, and the counter sees every thread.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Heap bytes of a dataset's features and labels.
fn dataset_bytes(d: &Dataset) -> usize {
    d.x.len() * std::mem::size_of::<f32>() + d.y.len() * std::mem::size_of::<usize>()
}

/// What a dense setup allocates besides the splits and the largest
/// shard: the partition's index lists, the synthesiser's shuffle order,
/// the latency draw and the fleet model.
const SETUP_ALLOWANCE_BYTES: usize = 64 << 10;
/// What an evaluation may allocate once a training step has sized the
/// thread's cached model.
const EVAL_ALLOWANCE_BYTES: usize = 16 << 10;

#[test]
fn dense_setup_holds_the_pooled_split_once() {
    let _serial = serial();
    let cfg = ExperimentConfig::builder(DatasetProfile::Cifar10Like)
        .scale(Scale::Smoke)
        .devices(60)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .seed(2022)
        .build();
    let before = reset_high_water();
    let env = cfg.build_env();
    let peak = HIGH.load(Ordering::SeqCst) - before;

    let DataSource::Dense(shards) = &env.data else {
        unreachable!("dense config")
    };
    let train: usize = shards.iter().map(dataset_bytes).sum();
    let largest = shards.iter().map(dataset_bytes).max().expect("devices");
    let test = dataset_bytes(&env.test);
    let bound = train + test + largest + SETUP_ALLOWANCE_BYTES;
    eprintln!(
        "dense setup: live high-water {peak} B above the pre-call level; \
         train {train} B, test {test} B, largest shard {largest} B, bound {bound} B"
    );
    assert!(
        peak <= bound,
        "dense setup: live high-water {peak} B above the pre-call level, bound {bound} B \
         = train {train} + test {test} + largest shard {largest} + {SETUP_ALLOWANCE_BYTES}"
    );
}

#[test]
fn evaluation_stays_inside_the_training_working_set() {
    let _serial = serial();
    let cfg = ExperimentConfig::builder(DatasetProfile::Cifar10Like)
        .scale(Scale::Smoke)
        .devices(8)
        .partition(Partition::Iid)
        .local_epochs(1)
        .batch_size(20)
        .seed(2022)
        .build();
    let env = cfg.build_env();
    // A full training batch sizes the thread's cached CNN, and the test
    // split spans many batches.
    assert!(env.shard(0).len() >= env.batch_size);
    assert!(env.test.len() > 10 * env.batch_size);
    let trained = local_train_plain_owned(&env, 0, cfg.initial_params(), 1, 0, 0);

    let before = reset_high_water();
    let acc = evaluate_on_test(&env, &trained);
    let rise = HIGH.load(Ordering::SeqCst) - before;
    eprintln!("evaluation after a training step: live high-water +{rise} B (accuracy {acc})");
    assert!(
        rise <= EVAL_ALLOWANCE_BYTES,
        "evaluation raised the live high-water {rise} B above the level after a training \
         step, allowance {EVAL_ALLOWANCE_BYTES} B"
    );
}

const DEVICES: usize = 64;
const CLASSES: usize = 32;
/// Whole models a FedHiSyn round allocates outside the relay: the
/// broadcast copy, the aggregate and the global the round returns, with
/// one to spare.
const ROUND_MODELS: usize = 4;
/// Everything else a round allocates: rings, latencies, fold slots.
const ALLOWANCE_BYTES: usize = 256 << 10;

#[test]
fn fedhisyn_round_folds_uploads_as_rings_finish() {
    let _serial = serial();
    let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(DEVICES)
        .partition(Partition::Dirichlet { beta: 0.5 })
        .heterogeneity(HeterogeneityModel::Uniform { h: 3.0 })
        .model(ModelSpec::mlp(&[32, 1024, 10]))
        .local_epochs(1)
        .seed(2022)
        .build();
    let env = cfg.build_env();
    let mut algo = FedHiSyn::new(&cfg, CLASSES);
    let model_bytes = env.param_count() * std::mem::size_of::<f32>();
    let participants: Vec<usize> = (0..DEVICES).collect();
    let threads = rayon::current_num_threads();

    let mut vt_base = 0.0;
    for round in 0..4 {
        let mut rng = rng_from_seed(round as u64);
        // The round's rings, as FedHiSyn clusters them (same RNG state):
        // the lanes in flight at once are at most the pool's largest.
        let mut sizes: Vec<usize> = {
            let latencies: Vec<f64> = participants
                .iter()
                .map(|&d| env.latency_at(d, round))
                .collect();
            let mut probe = rng.clone();
            kmeans_1d(&latencies, CLASSES.min(DEVICES), 100, &mut probe)
                .groups_sorted_by_centroid()
                .iter()
                .map(Vec::len)
                .collect()
        };
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let in_flight: usize = sizes.iter().take(threads).sum();
        let (bound_models, terms) = if threads == 1 {
            let largest = sizes[0];
            (
                2 * largest + 1 + 1 + ROUND_MODELS,
                format!(
                    "2 × {largest} (largest ring) + 1 hop copy + 1 accumulator \
                     + {ROUND_MODELS} round models"
                ),
            )
        } else {
            (
                DEVICES + in_flight + threads + ROUND_MODELS,
                format!(
                    "{DEVICES} participants + {in_flight} in flight over {threads} threads \
                     + {threads} hop copies + {ROUND_MODELS} round models"
                ),
            )
        };
        let bound = bound_models * model_bytes + ALLOWANCE_BYTES;

        let before = reset_high_water();
        let global = algo.round(&mut RoundContext {
            env: &env,
            round,
            participants: &participants,
            rng: &mut rng,
            vt_base,
        });
        let peak = HIGH.load(Ordering::SeqCst) - before;
        vt_base += algo.round_duration(&env, &participants, round);
        drop(global);

        let models = peak as f64 / model_bytes as f64;
        // Rounds 0 and 1 warm each pool thread's engine (cached model,
        // arena); the gate reads the steady state.
        if round < 2 {
            eprintln!("round {round} (warm-up): {models:.1} models");
            continue;
        }
        eprintln!(
            "round {round}: {models:.1} models above the pre-round level, bound {bound_models}"
        );
        assert!(
            peak <= bound,
            "round {round}: live high-water {models:.1} models above the pre-round level, \
             bound {bound_models} (+{ALLOWANCE_BYTES} B) = {terms}"
        );
    }
}

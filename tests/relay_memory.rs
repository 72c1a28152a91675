//! Memory gate for the ring relay: a FedHiSyn round keeps one model per
//! participant, not two.
//!
//! After a ring interval each device uploads the model it finished
//! training last (Alg. 1), so that is all the relay returns for an upload
//! start: an arrival at a device that has spent its step budget is never
//! trained or uploaded, and it is dropped. While a lane runs, each of its
//! positions holds at most a working model and one pending arrival, and a
//! lane in flight has at most one hop copy on the wire. Lanes run one per
//! pool thread, so a round's live high-water above the pre-round level is
//! at most
//!
//! ```text
//! participants                        one result model each
//! + the pool's largest rings          their pending arrivals, in flight
//! + one hop copy per pool thread
//! + ROUND_MODELS                      broadcast, aggregate, returned global
//! ```
//!
//! models, plus a small allowance for the per-round vectors. A relay that
//! also kept every late arrival, or built a carry-over model for every
//! position, peaks near twice the participants and fails it.
//!
//! The model is a wide MLP on smoke MNIST-like data, so model buffers
//! dominate the round's allocations. A global allocator counts live bytes
//! on every thread (the lanes run on the pool). The high-water depends on
//! how lanes interleave on the pool, which is why CI repeats this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fedhisyn::cluster::kmeans_1d;
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
        if !new.is_null() {
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
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

const DEVICES: usize = 64;
const CLASSES: usize = 32;
/// Whole models a FedHiSyn round allocates outside the relay: the
/// broadcast copy, the aggregate and the global the round returns, with
/// one to spare.
const ROUND_MODELS: usize = 4;
/// Everything else a round allocates: rings, latencies, contributions.
const ALLOWANCE_BYTES: usize = 256 << 10;

#[test]
fn fedhisyn_round_keeps_one_model_per_participant() {
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
        let bound_models = DEVICES + in_flight + threads + ROUND_MODELS;
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
             bound {bound_models} (+{ALLOWANCE_BYTES} B) = {DEVICES} participants \
             + {in_flight} in flight over {threads} threads + {threads} hop copies \
             + {ROUND_MODELS} round models"
        );
    }
}

//! The zero-copy training execution engine.
//!
//! Simulating one FedHiSyn round trains hundreds of device steps, and in
//! the original implementation every single one rebuilt the full
//! [`Sequential`] from the environment's [`ModelSpec`] (allocating every
//! layer, every gradient buffer, every initial weight — all immediately
//! overwritten). The engine replaces that with a **per-worker model
//! cache**: each pool thread keeps one built model per distinct
//! `ModelSpec` in a `thread_local!` slot, and training borrows it,
//! loads the incoming parameters, runs the in-place SGD loop and copies
//! the result back out into the caller's relay buffer.
//!
//! Combined with the in-place `sgd_epoch` (crate `fedhisyn-nn`) and the
//! move-based ring relay (`ring_sim`), the steady-state cost of one ring
//! hop is: one `set_params` load, the SGD arithmetic, and one
//! `copy_params_into` store — no model construction and no intermediate
//! flat copies.
//!
//! # Determinism contract
//!
//! Training on a cached model is **bit-identical** to training on a model
//! built for the call: `set_params` overwrites every trainable value,
//! optimizer state lives outside the model, and every per-step buffer is
//! re-carved zero-filled from the arena. `local::tests::
//! cached_model_matches_fresh_build` dirties a worker's model with another
//! device's job and asserts exactly that.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use fedhisyn_nn::{ModelSpec, Sequential};
use fedhisyn_tensor::rng_from_seed;

thread_local! {
    /// One built model per distinct spec, per worker thread. Experiments
    /// use a handful of specs at most, so a linear scan beats hashing.
    static MODEL_CACHE: RefCell<Vec<(ModelSpec, Sequential)>> =
        const { RefCell::new(Vec::new()) };
}

/// Cache hits across all workers (diagnostics; relaxed counters).
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
/// Cache misses (model builds) across all workers.
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Facade over the per-worker model cache.
pub struct ExecutionEngine;

impl ExecutionEngine {
    /// Borrow this worker's cached model for `spec`, building it on first
    /// use.
    ///
    /// The cached model's weights are whatever the previous caller left
    /// behind — callers must `set_params` before training (every engine
    /// call site does). The model's per-step scratch arena rides along,
    /// which is what makes the steady-state training step allocation-free:
    /// a run uses one spec and the pool's threads live for the whole
    /// process, so whichever thread picks a job up finds the model it
    /// built on its first job — built layers and sized arena included —
    /// and only `set_params` runs per hop.
    ///
    /// The model is **checked out** of the cache while `f` runs (the
    /// `RefCell` borrow is never held across `f`), so re-entrant use on
    /// the same thread is safe: the worker pool's work-helping can start
    /// another training job on this thread while one is mid-epoch, and
    /// the inner call simply checks out (or builds) a second model for
    /// the same spec. Both are returned to the cache afterwards. A hit
    /// hands the owned `(spec, model)` entry out and back, so the hot
    /// path clones nothing — not even the spec.
    pub fn with_model<T>(spec: &ModelSpec, f: impl FnOnce(&mut Sequential) -> T) -> T {
        let (spec_owned, mut model) = match Self::check_out(spec) {
            Some(entry) => {
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                entry
            }
            None => {
                CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
                // The init RNG is irrelevant — weights are overwritten by
                // set_params before every use — but keep it fixed so
                // building is deterministic regardless of caller state.
                let mut rng = rng_from_seed(0x0E0E_0E0E);
                (spec.clone(), spec.build(&mut rng))
            }
        };
        let out = f(&mut model);
        MODEL_CACHE.with(|cache| cache.borrow_mut().push((spec_owned, model)));
        out
    }

    /// [`ExecutionEngine::with_model`] on a thread that already holds a
    /// model for `spec`; `None`, building nothing, on a thread that does
    /// not. For work that is only worth a thread's help when that thread
    /// needs no model or arena of its own to give it (evaluation spread
    /// over the pool).
    ///
    /// These checkouts are not counted in [`ExecutionEngine::cache_stats`]:
    /// the counters count the checkouts that may build, one per training
    /// step and one per evaluation, and a round's telemetry reports them
    /// as such.
    pub fn with_cached_model<T>(
        spec: &ModelSpec,
        f: impl FnOnce(&mut Sequential) -> T,
    ) -> Option<T> {
        let (spec_owned, mut model) = Self::check_out(spec)?;
        let out = f(&mut model);
        MODEL_CACHE.with(|cache| cache.borrow_mut().push((spec_owned, model)));
        Some(out)
    }

    /// Take this thread's cached entry for `spec` out of the cache, or
    /// `None` when it holds none. Counts nothing.
    fn check_out(spec: &ModelSpec) -> Option<(ModelSpec, Sequential)> {
        MODEL_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let idx = cache.iter().position(|(cached, _)| cached == spec)?;
            Some(cache.swap_remove(idx))
        })
    }

    /// Which GEMM micro-kernel tier every training/evaluation step in this
    /// process dispatches to (`"scalar"` or `"avx2"`) — surfaced here so
    /// runners and benches can stamp results with the kernel that produced
    /// them.
    pub fn kernel_tier() -> &'static str {
        fedhisyn_tensor::active_tier().name()
    }

    /// Process-wide `(hits, misses)` of the model cache's
    /// [`ExecutionEngine::with_model`] checkouts. A miss builds a model; steady-state rounds should be all hits, whichever thread
    /// runs which job, because every thread has met the run's one spec by
    /// the end of the first round.
    pub fn cache_stats() -> (u64, u64) {
        (
            CACHE_HITS.load(Ordering::Relaxed),
            CACHE_MISSES.load(Ordering::Relaxed),
        )
    }

    /// Number of models cached on the calling thread.
    #[cfg(test)]
    fn cached_models() -> usize {
        MODEL_CACHE.with(|cache| cache.borrow().len())
    }

    /// Drop the **calling thread's** cache.
    #[cfg(test)]
    fn clear_thread_cache() {
        MODEL_CACHE.with(|cache| cache.borrow_mut().clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_nn::ParamVec;

    #[test]
    fn cache_is_keyed_on_spec() {
        ExecutionEngine::clear_thread_cache();
        let a = ModelSpec::mlp(&[4, 8, 2]);
        let b = ModelSpec::mlp(&[4, 6, 2]);
        ExecutionEngine::with_model(&a, |_| {});
        ExecutionEngine::with_model(&a, |_| {});
        assert_eq!(
            ExecutionEngine::cached_models(),
            1,
            "same spec reuses the entry"
        );
        ExecutionEngine::with_model(&b, |_| {});
        assert_eq!(
            ExecutionEngine::cached_models(),
            2,
            "new spec adds an entry"
        );
        ExecutionEngine::clear_thread_cache();
        assert_eq!(ExecutionEngine::cached_models(), 0);
    }

    #[test]
    fn cached_model_state_is_overwritten_by_set_params() {
        ExecutionEngine::clear_thread_cache();
        let spec = ModelSpec::mlp(&[3, 5, 2]);
        let n = spec.param_count();
        // Dirty the cached model, then verify a fresh load sees only the
        // loaded parameters.
        ExecutionEngine::with_model(&spec, |m| {
            m.set_params(&ParamVec::from_vec(vec![7.0; n]));
        });
        let clean = ParamVec::zeros(n);
        let out = ExecutionEngine::with_model(&spec, |m| {
            m.set_params(&clean);
            m.params()
        });
        assert_eq!(out, clean);
    }

    #[test]
    fn with_model_is_reentrant_on_one_thread() {
        // The pool's work-helping can start a second training job on a
        // thread whose first job is mid-epoch; the checkout design must
        // support that without a RefCell double-borrow.
        ExecutionEngine::clear_thread_cache();
        let spec = ModelSpec::mlp(&[3, 4, 2]);
        let outer_spec = spec.clone();
        let (outer_n, inner_n) = ExecutionEngine::with_model(&spec, |outer| {
            let inner_n = ExecutionEngine::with_model(&outer_spec, |inner| {
                inner.set_params(&ParamVec::zeros(inner.param_count()));
                inner.param_count()
            });
            (outer.param_count(), inner_n)
        });
        assert_eq!(outer_n, inner_n);
        // Both checked-out models were returned to the cache.
        assert_eq!(ExecutionEngine::cached_models(), 2);
        ExecutionEngine::clear_thread_cache();
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        ExecutionEngine::clear_thread_cache();
        // A spec no other test uses, so the first call must miss.
        let spec = ModelSpec::mlp(&[9, 5, 2]);
        let (_, m0) = ExecutionEngine::cache_stats();
        ExecutionEngine::with_model(&spec, |_| {});
        let (h1, m1) = ExecutionEngine::cache_stats();
        assert!(m1 > m0, "first checkout builds");
        ExecutionEngine::with_model(&spec, |_| {});
        let (h2, _) = ExecutionEngine::cache_stats();
        assert!(h2 > h1, "second checkout hits");
        ExecutionEngine::clear_thread_cache();
    }

    #[test]
    fn with_cached_model_never_builds() {
        ExecutionEngine::clear_thread_cache();
        let spec = ModelSpec::mlp(&[7, 3, 2]);
        assert_eq!(ExecutionEngine::with_cached_model(&spec, |_| ()), None);
        assert_eq!(ExecutionEngine::cached_models(), 0, "a miss builds nothing");
        ExecutionEngine::with_model(&spec, |_| ());
        let n = ExecutionEngine::with_cached_model(&spec, |m| m.param_count());
        assert_eq!(n, Some(spec.param_count()));
        assert_eq!(ExecutionEngine::cached_models(), 1, "the model went back");
        ExecutionEngine::clear_thread_cache();
    }

    #[test]
    fn with_model_returns_closure_value() {
        let spec = ModelSpec::mlp(&[2, 2]);
        let count = ExecutionEngine::with_model(&spec, |m| m.param_count());
        assert_eq!(count, spec.param_count());
    }
}

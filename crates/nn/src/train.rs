//! Local SGD training — the inner loop every simulated device runs.
//!
//! The paper's algorithms differ only in *when* models move and *how*
//! gradients are corrected, never in the inner loop itself. The [`GradHook`]
//! trait captures the corrections:
//!
//! * FedProx adds `μ·(w − w_global)` (proximal term),
//! * SCAFFOLD adds `c − c_i` (control-variate drift correction),
//! * plain FedAvg/FedHiSyn use [`NoHook`].
//!
//! # Allocation-free execution
//!
//! [`sgd_epoch`] keeps a whole step inside the model's per-step
//! [`Scratch`] arena: the batch is staged into it, every layer reads and
//! writes arena buffers ([`Sequential::forward_arena`] /
//! [`Sequential::backward_arena`]), the loss gradient is carved from the
//! same arena, and the SGD update walks `(offset, params, grads)` slices
//! via [`Sequential::for_each_param_grad_mut`] directly on layer memory.
//! Backprop stops at the first layer's parameter gradients: nothing reads
//! a gradient of the staged batch, so the step computes none.
//! Epoch-level index buffers (shuffle order, batch labels) live in a
//! thread-local pool. Steady state — after the first (largest) batch has
//! sized the arena — a training step performs **zero heap allocations**
//! and zero full-model copies; `tests/alloc_free.rs` asserts this with a
//! counting allocator. The update rule is checked against its written-out
//! formula and whole epochs against pinned parameter bits in this
//! module's tests.
//!
//! [`Scratch`]: fedhisyn_tensor::Scratch

use std::cell::Cell;
use std::ops::Range;

use fedhisyn_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::loss::softmax_cross_entropy_arena;
use crate::model::Sequential;

/// SGD hyper-parameters: the paper trains with plain SGD (§6.1), so the
/// learning rate is the only one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate (the paper uses 0.1).
    pub lr: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { lr: 0.1 }
    }
}

/// Plain SGD optimizer. It holds no state between steps.
#[derive(Debug, Clone)]
pub struct Sgd {
    cfg: SgdConfig,
}

impl Sgd {
    /// New optimizer with the given config.
    pub fn new(cfg: SgdConfig) -> Self {
        Sgd { cfg }
    }

    /// One update, `w ← w − lr · g`, applied **directly to model
    /// storage**: walks the model's `(offset, params, grads)` slices, lets
    /// `hook` correct each gradient slice in place, then applies the SGD
    /// rule on the spot.
    pub fn step_in_place(&mut self, model: &mut Sequential, hook: &dyn GradHook) {
        let lr = self.cfg.lr;
        model.for_each_param_grad_mut(&mut |offset, params, grads| {
            hook.adjust(offset, params, grads);
            for (w, &g) in params.iter_mut().zip(grads.iter()) {
                *w -= lr * g;
            }
        });
    }
}

/// Gradient correction applied between backprop and the SGD step.
///
/// `adjust` is called once per parameter tensor with that tensor's
/// `offset` into the flat [`Sequential::params`] layout, the current
/// parameter values and the mutable gradient slice. Implementations must
/// be element-wise with respect to the flat layout (corrections may read
/// flat companion state such as an anchor or control variate at
/// `offset..offset + grads.len()`), which makes slice-at-a-time and
/// whole-vector invocation produce identical results.
pub trait GradHook: Sync {
    /// Adjust the gradient slice for parameters at
    /// `offset..offset + grads.len()` of the flat layout.
    fn adjust(&self, offset: usize, params: &[f32], grads: &mut [f32]);
}

/// The identity hook (plain SGD).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl GradHook for NoHook {
    fn adjust(&self, _offset: usize, _params: &[f32], _grads: &mut [f32]) {}
}

thread_local! {
    /// Epoch-level index buffers (shuffle order, batch labels), pooled per
    /// thread so steady-state epochs allocate nothing. Checked out with
    /// `take`/`set` so a nested epoch on the same thread (possible under
    /// the pool's work-helping) simply starts from fresh buffers instead
    /// of aliasing these.
    static EPOCH_BUFS: Cell<(Vec<usize>, Vec<usize>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// One epoch of mini-batch SGD over `(x, y)`; returns the mean batch loss.
///
/// `x` is batch-first (`[N, D]` for MLPs, `[N, C, H, W]` for CNNs) and `y`
/// holds `N` class labels. Samples are reshuffled every epoch with `rng`, so the
/// whole federated simulation stays deterministic under a fixed seed.
///
/// The model's per-step scratch arena is reset at the top of every batch
/// and holds the staged batch, all activations and all gradients (see the
/// module docs). Parameters are updated **in place**; after the first
/// batch has sized the arena, the steady-state loop performs **zero heap
/// allocations**.
pub fn sgd_epoch<R: Rng>(
    model: &mut Sequential,
    x: &Tensor,
    y: &[usize],
    batch_size: usize,
    sgd: &mut Sgd,
    hook: &dyn GradHook,
    rng: &mut R,
) -> f32 {
    let n = x.shape()[0];
    assert_eq!(y.len(), n, "label count mismatch");
    assert!(batch_size > 0, "batch_size must be positive");
    if n == 0 {
        return 0.0;
    }
    let (mut order, mut ybuf) = EPOCH_BUFS.with(Cell::take);
    order.clear();
    order.extend(0..n);
    order.shuffle(rng);

    let mut total = 0.0f64;
    let mut batches = 0usize;
    for chunk in order.chunks(batch_size) {
        model.begin_step();
        let xb = model.stage_batch(x, chunk);
        ybuf.clear();
        ybuf.extend(chunk.iter().map(|&i| y[i]));

        model.zero_grad();
        let logits = model.forward_arena(xb);
        let (loss, dlogits) = softmax_cross_entropy_arena(model.scratch_mut(), logits, &ybuf);
        model.backward_arena(dlogits);
        sgd.step_in_place(model, hook);

        total += loss as f64;
        batches += 1;
    }
    EPOCH_BUFS.with(|bufs| bufs.set((order, ybuf)));
    (total / batches.max(1) as f64) as f32
}

/// Classification accuracy of `model` on `(x, y)`, evaluated in batches.
///
/// The complement of [`sgd_epoch`] on the metrics side: batches are staged
/// as contiguous row ranges ([`Sequential::stage_rows`], one `memcpy`, no
/// index buffer), activations live in the model's scratch arena, and the
/// running correct-count needs no prediction vector — so once the arena is
/// sized by the first batch, evaluation performs **zero heap allocations**
/// (`tests/alloc_free.rs` pins this for both MLP and CNN stacks). The
/// batch never changes the result: every logit row depends only on its
/// own sample, and the per-batch counts are integers.
pub fn evaluate_arena(model: &mut Sequential, x: &Tensor, y: &[usize], batch_size: usize) -> f32 {
    let n = x.shape()[0];
    assert_eq!(y.len(), n, "label count mismatch");
    if n == 0 {
        return 0.0;
    }
    let batch = batch_size.max(1);
    let correct: usize = (0..n)
        .step_by(batch)
        .map(|start| correct_in_rows(model, x, y, start..(start + batch).min(n)))
        .sum();
    correct as f32 / n as f32
}

/// How many of the samples `rows` of `(x, y)` `model` classifies
/// correctly: one arena step that stages the rows and runs the forward.
/// [`evaluate_arena`] is the sum of these over its batches, so callers
/// that split a test set across threads sum them in any order.
pub fn correct_in_rows(
    model: &mut Sequential,
    x: &Tensor,
    y: &[usize],
    rows: Range<usize>,
) -> usize {
    model.begin_step();
    let xb = model.stage_rows(x, rows.start, rows.end);
    let logits = model.forward_arena(xb);
    let c = *logits.dims().last().expect("logits rank");
    model
        .read_arena(logits)
        .chunks_exact(c)
        .zip(&y[rows])
        .filter(|(row, &label)| crate::model::argmax_row(row) == label)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ModelSpec;
    use crate::params::ParamVec;
    use fedhisyn_tensor::rng_from_seed;

    /// Two well-separated Gaussian blobs.
    fn blob_data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = rng_from_seed(seed);
        let mut x = Tensor::randn(vec![n, 4], 0.5, &mut rng);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            y.push(label);
            let shift = if label == 0 { -2.0 } else { 2.0 };
            for d in 0..4 {
                x.data_mut()[i * 4 + d] += shift;
            }
        }
        (x, y)
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_data() {
        let (x, y) = blob_data(64, 0);
        let spec = ModelSpec::mlp(&[4, 8, 2]);
        let mut rng = rng_from_seed(1);
        let mut model = spec.build(&mut rng);
        let mut sgd = Sgd::new(SgdConfig { lr: 0.1 });
        for _ in 0..30 {
            sgd_epoch(&mut model, &x, &y, 16, &mut sgd, &NoHook, &mut rng);
        }
        let acc = evaluate_arena(&mut model, &x, &y, 16);
        assert!(acc > 0.95, "expected >95% on separable blobs, got {acc}");
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (x, y) = blob_data(64, 2);
        let spec = ModelSpec::mlp(&[4, 8, 2]);
        let mut rng = rng_from_seed(3);
        let mut model = spec.build(&mut rng);
        let mut sgd = Sgd::new(SgdConfig::default());
        let first = sgd_epoch(&mut model, &x, &y, 16, &mut sgd, &NoHook, &mut rng);
        for _ in 0..9 {
            sgd_epoch(&mut model, &x, &y, 16, &mut sgd, &NoHook, &mut rng);
        }
        let last = sgd_epoch(&mut model, &x, &y, 16, &mut sgd, &NoHook, &mut rng);
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn grad_hook_is_applied() {
        struct FreezeHook;
        impl GradHook for FreezeHook {
            fn adjust(&self, _offset: usize, _p: &[f32], g: &mut [f32]) {
                g.fill(0.0);
            }
        }
        let (x, y) = blob_data(32, 7);
        let spec = ModelSpec::mlp(&[4, 4, 2]);
        let mut rng = rng_from_seed(8);
        let mut model = spec.build(&mut rng);
        let before = model.params();
        let mut sgd = Sgd::new(SgdConfig::default());
        sgd_epoch(&mut model, &x, &y, 8, &mut sgd, &FreezeHook, &mut rng);
        assert_eq!(model.params(), before, "zeroed grads must freeze the model");
    }

    #[test]
    fn hook_offsets_tile_the_flat_layout() {
        struct RecordHook(std::sync::Mutex<Vec<(usize, usize)>>);
        impl GradHook for RecordHook {
            fn adjust(&self, offset: usize, params: &[f32], grads: &mut [f32]) {
                assert_eq!(params.len(), grads.len());
                self.0.lock().unwrap().push((offset, grads.len()));
            }
        }
        let (x, y) = blob_data(8, 12);
        let spec = ModelSpec::mlp(&[4, 6, 2]);
        let mut rng = rng_from_seed(13);
        let mut model = spec.build(&mut rng);
        let total = model.param_count();
        let hook = RecordHook(std::sync::Mutex::new(Vec::new()));
        let mut sgd = Sgd::new(SgdConfig::default());
        sgd_epoch(&mut model, &x, &y, 8, &mut sgd, &hook, &mut rng);
        let calls = hook.0.into_inner().unwrap();
        // One batch: the recorded (offset, len) spans must tile [0, total).
        let mut cursor = 0usize;
        for &(offset, len) in &calls {
            assert_eq!(offset, cursor, "slices must be contiguous");
            cursor += len;
        }
        assert_eq!(cursor, total, "hook must see every parameter once per step");
    }

    #[test]
    fn epoch_is_seed_deterministic() {
        let (x, y) = blob_data(32, 9);
        let spec = ModelSpec::mlp(&[4, 6, 2]);
        let run = |seed: u64| {
            let mut rng = rng_from_seed(seed);
            let mut model = spec.build(&mut rng);
            let mut sgd = Sgd::new(SgdConfig::default());
            let mut train_rng = rng_from_seed(seed + 100);
            for _ in 0..3 {
                sgd_epoch(&mut model, &x, &y, 8, &mut sgd, &NoHook, &mut train_rng);
            }
            model.params()
        };
        assert_eq!(run(1), run(1));
    }

    /// A position-dependent hook: FedProx's proximal pull toward a flat
    /// anchor, read at the slice's offset.
    struct AnchorHook {
        anchor: ParamVec,
        mu: f32,
    }

    impl GradHook for AnchorHook {
        fn adjust(&self, offset: usize, params: &[f32], grads: &mut [f32]) {
            let anchor = &self.anchor.as_slice()[offset..offset + grads.len()];
            for ((g, &w), &a) in grads.iter_mut().zip(params).zip(anchor) {
                *g += self.mu * (w - a);
            }
        }
    }

    /// One forward/backward on the whole of `x`, leaving fresh gradients
    /// in the model.
    fn accumulate_grads(model: &mut Sequential, x: &Tensor, y: &[usize]) {
        model.begin_step();
        let xb = model.stage_rows(x, 0, y.len());
        model.zero_grad();
        let logits = model.forward_arena(xb);
        let (_, dlogits) = softmax_cross_entropy_arena(model.scratch_mut(), logits, y);
        model.backward_arena(dlogits);
    }

    /// `step_in_place` against the update rule written out on flat
    /// snapshots, `w − lr·g` over three steps, with and without the hook's
    /// correction applied at the right flat offsets.
    #[test]
    fn step_in_place_matches_the_written_out_update() {
        let (x, y) = blob_data(16, 20);
        let spec = ModelSpec::mlp(&[4, 5, 2]);
        let (lr, pull) = (0.05f32, 0.1f32);
        let anchor = spec.build(&mut rng_from_seed(55)).params();
        for hooked in [false, true] {
            let mut model = spec.build(&mut rng_from_seed(21));
            let mut sgd = Sgd::new(SgdConfig { lr });
            let hook = AnchorHook {
                anchor: anchor.clone(),
                mu: if hooked { pull } else { 0.0 },
            };
            for step in 0..3 {
                accumulate_grads(&mut model, &x, &y);
                let (w, g) = (model.params(), model.grads());
                assert!(g.as_slice().iter().any(|&g| g != 0.0));
                let want: Vec<f32> = (0..w.len())
                    .map(|i| {
                        let (w, a) = (w.as_slice()[i], anchor.as_slice()[i]);
                        w - lr * (g.as_slice()[i] + hook.mu * (w - a))
                    })
                    .collect();
                sgd.step_in_place(&mut model, &hook);
                assert_eq!(
                    model.params().as_slice(),
                    &want[..],
                    "step {step}, hooked {hooked}"
                );
            }
        }
    }

    /// FNV-1a over the bit patterns of the parameters that `epochs` epochs
    /// at lr 0.05 leave behind (model seed `seed`, shuffle seed `seed + 1`).
    fn trained_bits(
        spec: &ModelSpec,
        (x, y): (&Tensor, &[usize]),
        batch: usize,
        hook: &dyn GradHook,
        epochs: usize,
        seed: u64,
    ) -> u64 {
        let mut model = spec.build(&mut rng_from_seed(seed));
        let mut sgd = Sgd::new(SgdConfig { lr: 0.05 });
        let mut rng = rng_from_seed(seed + 1);
        for _ in 0..epochs {
            sgd_epoch(&mut model, x, y, batch, &mut sgd, hook, &mut rng);
        }
        let bytes = model
            .params()
            .into_vec()
            .into_iter()
            .flat_map(|v| v.to_bits().to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Whole epochs, pinned to the bit: three MLP epochs with the anchor
    /// hook and two `smoke_cnn` epochs, plain SGD. The constants were
    /// recorded at commit `686633a` from these same runs with momentum and
    /// weight decay both zero, on both the scalar and the AVX2 kernel
    /// tier; any change to the arithmetic of a step — layer kernels, loss,
    /// update rule, shuffle — moves them.
    #[test]
    fn epoch_parameter_bits_are_pinned() {
        let (x, y) = blob_data(48, 20);
        let mlp = ModelSpec::mlp(&[4, 10, 5, 2]);
        let hook = AnchorHook {
            anchor: mlp.build(&mut rng_from_seed(55)).params(),
            mu: 0.1,
        };
        assert_eq!(
            trained_bits(&mlp, (&x, &y), 16, &hook, 3, 21),
            0x7ff3_8303_7e48_9249,
            "MLP epochs moved"
        );

        let cnn = ModelSpec::smoke_cnn(8, 3);
        let x = Tensor::randn(spec_input_dims(&cnn, 12), 1.0, &mut rng_from_seed(30));
        let y: Vec<usize> = (0..12).map(|i| i % 3).collect();
        assert_eq!(
            trained_bits(&cnn, (&x, &y), 5, &NoHook, 2, 31),
            0xe8ee_7aed_e360_b9d3,
            "CNN epochs moved"
        );
    }

    fn spec_input_dims(spec: &ModelSpec, n: usize) -> Vec<usize> {
        let mut dims = vec![n];
        dims.extend(spec.input_dims());
        dims
    }

    /// A long-lived model (the engine keeps one per worker) must compute
    /// from the parameters it holds *now*: after each way the weights can
    /// change — `set_params` twice, then one in-place SGD step — its
    /// forward equals, bit for bit, a freshly built model loaded with the
    /// same parameters. Shapes reach both the small and the blocked GEMM.
    #[test]
    fn reused_model_forward_follows_every_parameter_change() {
        for spec in [ModelSpec::mlp(&[40, 48, 10]), ModelSpec::smoke_cnn(8, 4)] {
            let x = Tensor::randn(spec_input_dims(&spec, 8), 1.0, &mut rng_from_seed(77));
            let fresh_forward = |params: &ParamVec| {
                let mut fresh = spec.build(&mut rng_from_seed(1));
                fresh.set_params(params);
                fresh.logits(&x)
            };
            let a = spec.build(&mut rng_from_seed(2)).params();
            let b = spec.build(&mut rng_from_seed(3)).params();
            let mut model = spec.build(&mut rng_from_seed(4));
            for params in [&a, &b] {
                model.set_params(params);
                assert_eq!(
                    model.logits(&x).data(),
                    fresh_forward(params).data(),
                    "{spec:?}: forward after set_params"
                );
            }
            model.begin_step();
            let xb = model.stage_rows(&x, 0, 8);
            model.zero_grad();
            let y = model.forward_arena(xb);
            model.backward_arena(y);
            Sgd::new(SgdConfig { lr: 0.1 }).step_in_place(&mut model, &NoHook);
            let stepped = model.params();
            assert_ne!(stepped, b, "{spec:?}: the step must move the weights");
            assert_eq!(
                model.logits(&x).data(),
                fresh_forward(&stepped).data(),
                "{spec:?}: forward after the in-place step"
            );
        }
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let spec = ModelSpec::mlp(&[4, 4, 2]);
        let mut rng = rng_from_seed(10);
        let mut model = spec.build(&mut rng);
        let x = Tensor::zeros(vec![0, 4]);
        let y: Vec<usize> = vec![];
        let mut sgd = Sgd::new(SgdConfig::default());
        let loss = sgd_epoch(&mut model, &x, &y, 8, &mut sgd, &NoHook, &mut rng);
        assert_eq!(loss, 0.0);
        assert_eq!(evaluate_arena(&mut model, &x, &y, 8), 0.0);
    }

    #[test]
    fn evaluate_on_known_model() {
        // A model that always predicts class 0 gives accuracy = share of 0s.
        let spec = ModelSpec::mlp(&[2, 2]);
        let mut rng = rng_from_seed(11);
        let mut model = spec.build(&mut rng);
        let mut p = ParamVec::zeros(model.param_count());
        // bias for class 0 = 1.0 (params layout: w (2x2), b (2)).
        p.as_mut_slice()[4] = 1.0;
        model.set_params(&p);
        let x = Tensor::zeros(vec![4, 2]);
        let y = vec![0, 0, 1, 1];
        assert_eq!(evaluate_arena(&mut model, &x, &y, 2), 0.5);
    }
}

//! Neural-network layers.
//!
//! Layers own their parameters, their gradient accumulators, and whatever
//! activation caches their backward pass needs. The trait is object-safe so
//! [`crate::Sequential`] can hold a heterogeneous stack, and visitors are
//! used instead of returning `Vec<&mut Tensor>` so a layer can hand out
//! parameter and gradient borrows pairwise without aliasing issues.

mod conv;
mod dense;
mod flatten;
mod pool;
mod relu;

pub use conv::{Conv2d, ConvStageProfile};
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;
pub use relu::Relu;

use fedhisyn_tensor::{Scratch, Tensor};

use crate::arena::ArenaBuf;

/// An object-safe neural-network layer.
///
/// The forward pass caches whatever the backward pass needs. Both backward
/// methods **accumulate** into the layer's gradient buffers (callers reset
/// with [`Layer::zero_grad`] between optimizer steps):
/// [`Layer::backward_arena`] also returns the gradient with respect to the
/// layer input, [`Layer::backward_params_arena`] returns nothing and is
/// what a model runs on its first layer, whose input (the staged batch)
/// needs no gradient.
///
/// # One execution path
///
/// Inputs, outputs and every workspace in between live in a [`Scratch`]
/// arena owned by the caller (the model's per-step arena in training and
/// evaluation), which is reset once per step; what flows between layers is
/// an [`ArenaBuf`] handle. A layer allocates only from that arena, so once
/// the first batch has sized it a step touches the heap nowhere.
pub trait Layer: Send {
    /// Consume an arena-resident batch-first input and produce an
    /// arena-resident output, allocating only from `scratch`.
    fn forward_arena(&mut self, input: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf;

    /// Back-propagate `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the forward input.
    ///
    /// Must follow a matching [`Layer::forward_arena`] within the same
    /// arena step.
    fn backward_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf;

    /// Back-propagate `grad_out` into the parameter gradients only,
    /// skipping the input gradient. The accumulated parameter gradients
    /// must be bit-identical to those of [`Layer::backward_arena`].
    ///
    /// The default runs [`Layer::backward_arena`] and drops its result,
    /// which is correct for any layer; layers whose input gradient costs
    /// real work ([`Dense`], [`Conv2d`]) override it with the parameter
    /// half of their backward.
    fn backward_params_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) {
        let _ = self.backward_arena(grad_out, scratch);
    }

    /// Visit parameters in a fixed, deterministic order.
    fn visit_params(&self, _f: &mut dyn FnMut(&Tensor)) {}

    /// Visit parameters mutably, same order as [`Layer::visit_params`].
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    /// Visit gradients, same order as [`Layer::visit_params`].
    fn visit_grads(&self, _f: &mut dyn FnMut(&Tensor)) {}

    /// Visit `(parameter, gradient)` tensor pairs mutably, same order as
    /// [`Layer::visit_params`].
    ///
    /// This is the in-place optimizer seam: parameters and their matching
    /// gradient accumulators are handed out together so an SGD step (and
    /// any [`crate::GradHook`] correction) can update layer storage
    /// directly, with no flatten/scatter round-trip. Layers keep parameters
    /// and gradients in separate fields, so the pairwise `&mut` borrows
    /// never alias.
    fn visit_params_grads_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    /// Reset gradient accumulators to zero.
    fn zero_grad(&mut self) {}

    /// Clone into a boxed trait object (layers are `Clone` concretely).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Human-readable layer name for debugging and summaries.
    fn name(&self) -> &'static str;

    /// Total number of trainable parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |t| n += t.len());
        n
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Tensor-in/Tensor-out driving of one layer through the arena path,
    //! and the finite-difference gradient checks built on it.

    use super::Layer;
    use crate::arena::ArenaBuf;
    use fedhisyn_tensor::{Scratch, Tensor};

    /// Drives arena code from tensors over a local arena, the way
    /// [`crate::Sequential`] drives a layer stack over the model's:
    /// `forward` opens a step (reset, stage the input, `forward_arena`,
    /// read the output back), `backward` stages the gradient into the
    /// same step.
    #[derive(Default)]
    pub(crate) struct ArenaDriver {
        scratch: Scratch,
    }

    impl ArenaDriver {
        pub(crate) fn new() -> Self {
            ArenaDriver::default()
        }

        /// Stage `input` into the current step, run `f` on it, read the
        /// buffer `f` returns back out.
        pub(crate) fn run(
            &mut self,
            input: &Tensor,
            f: impl FnOnce(ArenaBuf, &mut Scratch) -> ArenaBuf,
        ) -> Tensor {
            let slot = self.scratch.alloc(input.len());
            self.scratch.slice_mut(slot).copy_from_slice(input.data());
            let out = f(ArenaBuf::new(slot, input.shape()), &mut self.scratch);
            Tensor::from_vec(out.dims().to_vec(), out.read(&self.scratch).to_vec())
        }

        pub(crate) fn forward<L: Layer>(&mut self, layer: &mut L, input: &Tensor) -> Tensor {
            self.scratch.reset();
            self.run(input, |x, scratch| layer.forward_arena(x, scratch))
        }

        pub(crate) fn backward<L: Layer>(&mut self, layer: &mut L, grad_out: &Tensor) -> Tensor {
            self.run(grad_out, |g, scratch| layer.backward_arena(g, scratch))
        }
    }

    /// `0.5 * Σ out²` of one forward pass — the loss both checks
    /// differentiate (so `grad_out = out`).
    fn half_sum_sq<L: Layer>(arena: &mut ArenaDriver, layer: &mut L, input: &Tensor) -> f32 {
        let out = arena.forward(layer, input);
        out.data().iter().map(|&x| 0.5 * x * x).sum()
    }

    /// Numerically validate `d loss / d input` for a layer, where the loss
    /// is `0.5 * Σ out²` (so `grad_out = out`).
    pub fn check_input_gradient<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let mut arena = ArenaDriver::new();
        let out = arena.forward(layer, input);
        let grad_in = arena.backward(layer, &out);
        let eps = 1e-2f32;
        for i in (0..input.len()).step_by((input.len() / 8).max(1)) {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let lp = half_sum_sq(&mut arena, layer, &plus);
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let lm = half_sum_sq(&mut arena, layer, &minus);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.data()[i];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                "input grad {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Numerically validate parameter gradients under the same loss.
    pub fn check_param_gradients<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let mut arena = ArenaDriver::new();
        layer.zero_grad();
        let out = arena.forward(layer, input);
        let _ = arena.backward(layer, &out);
        // Snapshot analytic grads.
        let mut grads: Vec<Vec<f32>> = Vec::new();
        layer.visit_grads(&mut |g| grads.push(g.data().to_vec()));

        let eps = 1e-2f32;
        for (param_idx, analytic) in grads.iter().enumerate() {
            let plen = analytic.len();
            for i in (0..plen).step_by((plen / 6).max(1)) {
                let nudge = |layer: &mut L, delta: f32| {
                    let mut k = 0;
                    layer.visit_params_mut(&mut |p| {
                        if k == param_idx {
                            p.data_mut()[i] += delta;
                        }
                        k += 1;
                    });
                };
                nudge(layer, eps);
                let lp = half_sum_sq(&mut arena, layer, input);
                nudge(layer, -2.0 * eps);
                let lm = half_sum_sq(&mut arena, layer, input);
                nudge(layer, eps);
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = analytic[i];
                assert!(
                    (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                    "param {param_idx} grad {i}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }
}

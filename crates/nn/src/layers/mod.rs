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

pub use conv::{Conv2d, ConvExec, ConvStageProfile};
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;
pub use relu::Relu;

use fedhisyn_tensor::{Scratch, Tensor};

use crate::arena::ArenaBuf;

/// An object-safe neural-network layer.
///
/// The forward pass caches whatever the backward pass needs; `backward`
/// **accumulates** into the layer's gradient buffers (callers reset with
/// [`Layer::zero_grad`] between optimizer steps) and returns the gradient
/// with respect to the layer input.
///
/// # Two execution paths
///
/// Layers expose the original allocating path ([`Layer::forward`] /
/// [`Layer::backward`], one fresh `Tensor` per call) and the arena path
/// ([`Layer::forward_arena`] / [`Layer::backward_arena`]), where inputs
/// and outputs live in a per-model [`Scratch`] arena that the training
/// loop resets once per step. The built-in layers implement the arena
/// path natively through the same slice-level kernels as the allocating
/// path, so the two are **bit-identical**; third-party layers get a
/// default bridge that round-trips through the allocating path (correct,
/// but it allocates).
pub trait Layer: Send {
    /// Compute the layer output for a batch-first input.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Back-propagate `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the forward input.
    ///
    /// Must be called after a matching [`Layer::forward`].
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Arena-path forward: consume an arena-resident input, produce an
    /// arena-resident output, allocating only from `scratch`.
    ///
    /// The default implementation bridges through [`Layer::forward`].
    fn forward_arena(&mut self, input: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        let x = Tensor::from_vec(input.dims().to_vec(), input.read(scratch).to_vec())
            .expect("arena buffer shape is consistent by construction");
        let out = self.forward(&x);
        let slot = scratch.alloc(out.len());
        scratch.slice_mut(slot).copy_from_slice(out.data());
        ArenaBuf::new(slot, out.shape())
    }

    /// Arena-path backward: must follow a matching
    /// [`Layer::forward_arena`] within the same arena step.
    ///
    /// The default implementation bridges through [`Layer::backward`].
    fn backward_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        let g = Tensor::from_vec(grad_out.dims().to_vec(), grad_out.read(scratch).to_vec())
            .expect("arena buffer shape is consistent by construction");
        let gin = self.backward(&g);
        let slot = scratch.alloc(gin.len());
        scratch.slice_mut(slot).copy_from_slice(gin.data());
        ArenaBuf::new(slot, gin.shape())
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
    //! Shared finite-difference gradient checking for layer tests.

    use super::Layer;
    use fedhisyn_tensor::Tensor;

    /// Numerically validate `d loss / d input` for a layer, where the loss
    /// is `0.5 * Σ out²` (so `grad_out = out`).
    pub fn check_input_gradient<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let out = layer.forward(input);
        let grad_in = layer.backward(&out);
        let eps = 1e-2f32;
        for i in (0..input.len()).step_by((input.len() / 8).max(1)) {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let lp: f32 = layer
                .forward(&plus)
                .data()
                .iter()
                .map(|&x| 0.5 * x * x)
                .sum();
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let lm: f32 = layer
                .forward(&minus)
                .data()
                .iter()
                .map(|&x| 0.5 * x * x)
                .sum();
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
        layer.zero_grad();
        let out = layer.forward(input);
        let _ = layer.backward(&out);
        // Snapshot analytic grads.
        let mut grads: Vec<Vec<f32>> = Vec::new();
        layer.visit_grads(&mut |g| grads.push(g.data().to_vec()));

        let eps = 1e-2f32;
        let mut param_idx = 0usize;
        loop {
            // Count params to know when to stop.
            let mut n_params = 0;
            layer.visit_params(&mut |_| n_params += 1);
            if param_idx >= n_params {
                break;
            }
            let plen = {
                let mut len = 0;
                let mut k = 0;
                layer.visit_params(&mut |p| {
                    if k == param_idx {
                        len = p.len();
                    }
                    k += 1;
                });
                len
            };
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
                let lp: f32 = layer
                    .forward(input)
                    .data()
                    .iter()
                    .map(|&x| 0.5 * x * x)
                    .sum();
                nudge(layer, -2.0 * eps);
                let lm: f32 = layer
                    .forward(input)
                    .data()
                    .iter()
                    .map(|&x| 0.5 * x * x)
                    .sum();
                nudge(layer, eps);
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[param_idx][i];
                assert!(
                    (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                    "param {param_idx} grad {i}: numeric {numeric} vs analytic {analytic}"
                );
            }
            param_idx += 1;
        }
    }
}

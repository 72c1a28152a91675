//! Sequential model container.

use fedhisyn_tensor::{Scratch, Tensor};

use crate::arena::ArenaBuf;
use crate::layers::Layer;
use crate::params::ParamVec;

/// Callback walking `(flat offset, parameter slice, gradient slice)`
/// triples — see [`Sequential::for_each_param_grad_mut`].
pub type ParamGradVisitor<'a> = dyn FnMut(usize, &mut [f32], &mut [f32]) + 'a;

/// A stack of layers applied in order.
///
/// `Sequential` is the model type every federated device instantiates once;
/// model *state* moves between devices as flat [`ParamVec`]s via
/// [`Sequential::params`] / [`Sequential::set_params`], which is exactly the
/// weight-transfer the paper's ring topology performs.
///
/// # The per-model scratch arena
///
/// Every `Sequential` owns a [`Scratch`] arena holding the transient
/// buffers of one training step: the staged batch, each layer's
/// activations, the loss gradient and the gradients flowing back between
/// layers (none for the staged batch itself).
/// The training loop (`sgd_epoch`, through [`Sequential::forward_arena`] /
/// [`Sequential::backward_arena`]) resets it once per step
/// ([`Sequential::begin_step`]) and re-carves the same ranges, so
/// the arena is sized by the first (largest) batch and reused for the life
/// of the model — which, for cached execution-engine models, is the life
/// of the worker thread. Cloning a model clones layers but starts with an
/// empty arena.
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    scratch: Scratch,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .field("param_count", &self.param_count())
            .finish()
    }
}

impl Sequential {
    /// Empty model.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Reset the per-model arena for a new training step. All
    /// [`ArenaBuf`]s from the previous step become invalid.
    pub fn begin_step(&mut self) {
        self.scratch.reset();
    }

    /// Gather rows `indices` of batch-first `x` into the arena — the
    /// allocation-free counterpart of materialising a batch tensor.
    pub fn stage_batch(&mut self, x: &Tensor, indices: &[usize]) -> ArenaBuf {
        let dims = x.shape();
        assert!(
            (1..=crate::arena::MAX_RANK).contains(&dims.len()),
            "stage_batch: unsupported rank {}",
            dims.len()
        );
        let sample: usize = dims[1..].iter().product();
        let slot = self.scratch.alloc(indices.len() * sample);
        let dst = self.scratch.slice_mut(slot);
        for (row, &i) in indices.iter().enumerate() {
            dst[row * sample..(row + 1) * sample]
                .copy_from_slice(&x.data()[i * sample..(i + 1) * sample]);
        }
        let mut bdims = [1usize; crate::arena::MAX_RANK];
        bdims[0] = indices.len();
        bdims[1..dims.len()].copy_from_slice(&dims[1..]);
        ArenaBuf::new(slot, &bdims[..dims.len()])
    }

    /// Stage a **contiguous** row range of batch-first `x` into the arena —
    /// the evaluation-path counterpart of [`Sequential::stage_batch`].
    /// Evaluation walks the dataset in order, so the gather collapses to a
    /// single `memcpy` with no index buffer.
    pub fn stage_rows(&mut self, x: &Tensor, start: usize, end: usize) -> ArenaBuf {
        let dims = x.shape();
        assert!(
            (1..=crate::arena::MAX_RANK).contains(&dims.len()),
            "stage_rows: unsupported rank {}",
            dims.len()
        );
        assert!(
            start <= end && end <= dims[0],
            "stage_rows: bad range {start}..{end} of {}",
            dims[0]
        );
        let sample: usize = dims[1..].iter().product();
        let slot = self.scratch.alloc((end - start) * sample);
        self.scratch
            .slice_mut(slot)
            .copy_from_slice(&x.data()[start * sample..end * sample]);
        let mut bdims = [1usize; crate::arena::MAX_RANK];
        bdims[0] = end - start;
        bdims[1..dims.len()].copy_from_slice(&dims[1..]);
        ArenaBuf::new(slot, &bdims[..dims.len()])
    }

    /// Forward pass through all layers (see the type-level docs).
    pub fn forward_arena(&mut self, input: ArenaBuf) -> ArenaBuf {
        let mut x = input;
        for layer in &mut self.layers {
            x = layer.forward_arena(x, &mut self.scratch);
        }
        x
    }

    /// Backward pass; accumulates parameter gradients in each layer.
    ///
    /// Layers `n−1..1` run their full [`Layer::backward_arena`]; layer 0
    /// runs [`Layer::backward_params_arena`]. The model input is the
    /// staged batch, which needs no gradient, so none is computed: for the
    /// paper's MLP that skips a `[batch × 784]` GEMM per step. The
    /// parameter gradients are bit-identical to a full backward.
    pub fn backward_arena(&mut self, grad_out: ArenaBuf) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_out;
        for layer in rest.iter_mut().rev() {
            g = layer.backward_arena(g, &mut self.scratch);
        }
        first.backward_params_arena(g, &mut self.scratch);
    }

    /// The model's scratch arena (the loss computes its gradient here,
    /// between the forward and backward passes).
    pub fn scratch_mut(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    /// Read an arena buffer produced by this model's arena passes.
    pub fn read_arena(&self, buf: ArenaBuf) -> &[f32] {
        buf.read(&self.scratch)
    }

    /// High-water mark of the model's scratch arena in bytes (see
    /// [`Scratch::high_water_bytes`]) — benchmarks report this so arena
    /// growth regressions are visible in recorded numbers.
    pub fn arena_high_water_bytes(&self) -> usize {
        self.scratch.high_water_bytes()
    }

    /// Reset all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Snapshot all parameters into a flat vector.
    pub fn params(&self) -> ParamVec {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.visit_params(&mut |t| out.extend_from_slice(t.data()));
        }
        ParamVec::from_vec(out)
    }

    /// Snapshot all gradients into a flat vector (same ordering as params).
    pub fn grads(&self) -> ParamVec {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.visit_grads(&mut |t| out.extend_from_slice(t.data()));
        }
        ParamVec::from_vec(out)
    }

    /// Copy all parameters into an existing flat buffer, reusing its
    /// allocation (resized once if the length disagrees).
    ///
    /// This is the zero-allocation counterpart of [`Sequential::params`]
    /// used by the execution engine to hand a trained model's weights back
    /// into the relay buffer it was loaded from.
    pub fn copy_params_into(&self, out: &mut ParamVec) {
        let n = self.param_count();
        if out.len() != n {
            *out = ParamVec::zeros(n);
        }
        let data = out.as_mut_slice();
        let mut offset = 0usize;
        for layer in &self.layers {
            layer.visit_params(&mut |t| {
                data[offset..offset + t.len()].copy_from_slice(t.data());
                offset += t.len();
            });
        }
    }

    /// Walk `(flat offset, parameter slice, gradient slice)` triples over
    /// every trainable tensor, in the same order as [`Sequential::params`].
    ///
    /// The offset locates the slice inside the flat [`ParamVec`] layout, so
    /// callers holding flat companion state (proximal anchors, control
    /// variates) can index it without materialising a flat copy of the
    /// model. This is the in-place training path: the
    /// optimizer mutates layer storage directly through the slices.
    pub fn for_each_param_grad_mut(&mut self, f: &mut ParamGradVisitor<'_>) {
        let mut offset = 0usize;
        for layer in &mut self.layers {
            layer.visit_params_grads_mut(&mut |p, g| {
                let n = p.len();
                debug_assert_eq!(n, g.len(), "param/grad tensor length mismatch");
                f(offset, p.data_mut(), g.data_mut());
                offset += n;
            });
        }
    }

    /// Load parameters from a flat vector.
    ///
    /// # Panics
    /// Panics when `params` does not match [`Sequential::param_count`].
    pub fn set_params(&mut self, params: &ParamVec) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "set_params: size mismatch"
        );
        let mut offset = 0usize;
        let data = params.as_slice();
        for layer in &mut self.layers {
            layer.visit_params_mut(&mut |t| {
                let n = t.len();
                t.data_mut().copy_from_slice(&data[offset..offset + n]);
                offset += n;
            });
        }
    }
}

/// Index of the row maximum (the last of equal maxima wins; a NaN
/// compares equal to everything).
pub(crate) fn argmax_row(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
impl Sequential {
    /// Logits of one forward pass over the whole of `x`, read back out of
    /// the arena (opens a new step).
    pub(crate) fn logits(&mut self, x: &Tensor) -> Tensor {
        self.begin_step();
        let xb = self.stage_rows(x, 0, x.shape()[0]);
        let out = self.forward_arena(xb);
        Tensor::from_vec(out.dims().to_vec(), self.read_arena(out).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, Relu};
    use fedhisyn_tensor::rng_from_seed;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = rng_from_seed(seed);
        Sequential::new()
            .push(Dense::new(4, 8, Init::HeNormal, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 3, Init::XavierNormal, &mut rng))
    }

    #[test]
    fn param_round_trip() {
        let mut a = tiny_model(0);
        let b = tiny_model(1);
        let pb = b.params();
        a.set_params(&pb);
        assert_eq!(a.params(), pb);
    }

    #[test]
    fn param_count_matches_layers() {
        let m = tiny_model(0);
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(m.params().len(), m.param_count());
    }

    #[test]
    fn forward_shape() {
        let mut m = tiny_model(0);
        let x = Tensor::zeros(vec![5, 4]);
        assert_eq!(m.logits(&x).shape(), &[5, 3]);
    }

    #[test]
    fn setting_params_changes_forward() {
        let mut m = tiny_model(0);
        let x = Tensor::from_vec(vec![1, 4], vec![1.0; 4]);
        let y0 = m.logits(&x);
        let other = tiny_model(9).params();
        m.set_params(&other);
        let y1 = m.logits(&x);
        assert_ne!(y0.data(), y1.data());
    }

    #[test]
    fn clone_is_independent() {
        let m = tiny_model(0);
        let mut c = m.clone();
        let zeros = ParamVec::zeros(m.param_count());
        c.set_params(&zeros);
        assert_ne!(m.params(), c.params());
    }

    #[test]
    fn grads_flat_matches_param_layout() {
        let mut m = tiny_model(0);
        m.zero_grad();
        let g = m.grads();
        assert_eq!(g.len(), m.param_count());
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn evaluate_counts_argmax_hits() {
        let mut m = Sequential::new();
        // Identity-ish: single dense with known weights.
        let mut rng = rng_from_seed(0);
        let mut d = Dense::new(2, 2, Init::Zeros, &mut rng);
        d.visit_params_mut(&mut |t| {
            if t.len() == 4 {
                t.data_mut().copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
            }
        });
        m = m.push(d);
        // Logits equal the inputs, so the argmaxes are 0 and 1.
        let x = Tensor::from_vec(vec![2, 2], vec![3., 1., 0., 2.]);
        for chunk in [1, 2] {
            assert_eq!(crate::evaluate_arena(&mut m, &x, &[0, 1], chunk), 1.0);
            assert_eq!(crate::evaluate_arena(&mut m, &x, &[0, 0], chunk), 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn set_params_wrong_size_panics() {
        let mut m = tiny_model(0);
        m.set_params(&ParamVec::zeros(3));
    }

    #[test]
    fn copy_params_into_matches_params_and_reuses_buffer() {
        let m = tiny_model(3);
        let mut buf = ParamVec::zeros(m.param_count());
        let ptr_before = buf.as_slice().as_ptr();
        m.copy_params_into(&mut buf);
        assert_eq!(buf, m.params());
        assert_eq!(ptr_before, buf.as_slice().as_ptr(), "buffer must be reused");
        // Wrong-size buffers are resized, not panicked on.
        let mut small = ParamVec::zeros(1);
        m.copy_params_into(&mut small);
        assert_eq!(small, m.params());
    }

    #[test]
    fn param_grad_walk_covers_flat_layout_in_order() {
        let mut m = tiny_model(4);
        let flat = m.params();
        let mut seen = 0usize;
        let mut offsets = Vec::new();
        m.for_each_param_grad_mut(&mut |offset, p, g| {
            assert_eq!(p.len(), g.len());
            assert_eq!(offset, seen, "offsets must be contiguous and ordered");
            assert_eq!(&flat.as_slice()[offset..offset + p.len()], &*p);
            offsets.push(offset);
            seen += p.len();
        });
        assert_eq!(
            seen,
            m.param_count(),
            "every parameter visited exactly once"
        );
        assert!(offsets.len() >= 4, "w/b pairs of both dense layers");
    }

    #[test]
    fn in_place_mutation_through_walk_is_visible() {
        let mut m = tiny_model(5);
        m.for_each_param_grad_mut(&mut |_, p, _| p.fill(0.25));
        assert!(m.params().as_slice().iter().all(|&x| x == 0.25));
    }

    /// `backward_arena` runs layer 0's parameter half only. Against a
    /// clone whose backward runs every layer's full `Layer::backward_arena`,
    /// layer 0 included, the gradients match bit for bit and the arena
    /// stays smaller by at least the input-gradient buffer.
    #[test]
    fn backward_skips_the_input_gradient_and_keeps_every_gradient_bit() {
        use crate::arch::ModelSpec;
        let bits = |m: &Sequential| -> Vec<u32> {
            m.grads().as_slice().iter().map(|g| g.to_bits()).collect()
        };
        for spec in [
            ModelSpec::mlp(&[40, 48, 24, 10]),
            ModelSpec::smoke_cnn(8, 3),
        ] {
            let mut dims = vec![6];
            dims.extend(spec.input_dims());
            let x = Tensor::randn(dims, 1.0, &mut rng_from_seed(3));
            let mut skip = spec.build(&mut rng_from_seed(2));
            let mut full = skip.clone();

            skip.begin_step();
            let xb = skip.stage_rows(&x, 0, 6);
            let logits = skip.forward_arena(xb);
            skip.backward_arena(logits);

            full.begin_step();
            let xb = full.stage_rows(&x, 0, 6);
            let mut g = full.forward_arena(xb);
            for layer in full.layers.iter_mut().rev() {
                g = layer.backward_arena(g, &mut full.scratch);
            }
            assert_eq!(g.len(), x.len(), "{spec:?}: the full pass ends in dX");

            assert!(bits(&skip).iter().any(|&b| b != 0), "{spec:?}: no gradient");
            assert_eq!(bits(&skip), bits(&full), "{spec:?}: gradients moved");
            let input_grad_bytes = x.len() * std::mem::size_of::<f32>();
            assert!(
                skip.arena_high_water_bytes() + input_grad_bytes <= full.arena_high_water_bytes(),
                "{spec:?}: arena {} vs full {}",
                skip.arena_high_water_bytes(),
                full.arena_high_water_bytes()
            );
        }
    }

    #[test]
    fn debug_lists_layers() {
        let m = tiny_model(0);
        let dbg = format!("{m:?}");
        assert!(dbg.contains("dense"));
        assert!(dbg.contains("relu"));
    }
}

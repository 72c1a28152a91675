//! Fully-connected layer.

use fedhisyn_tensor::{par_gemm, par_gemm_nt, par_gemm_tn, Scratch, Tensor};
use rand::Rng;

use crate::arena::ArenaBuf;
use crate::init::Init;
use crate::layers::Layer;

/// A fully-connected layer: `Y = X · W + b`.
///
/// * `X`: `[batch, in_features]`
/// * `W`: `[in_features, out_features]`
/// * `b`: `[out_features]`
///
/// The backward pass needs the forward input; it stays in the arena until
/// the step's reset, so the layer keeps its handle, not a copy.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_arena_input: Option<ArenaBuf>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Create a dense layer with the given initialisation for the weights.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, init: Init, rng: &mut R) -> Self {
        let weight = init.sample(
            vec![in_features, out_features],
            in_features,
            out_features,
            rng,
        );
        Dense {
            weight,
            bias: Tensor::zeros(vec![out_features]),
            grad_weight: Tensor::zeros(vec![in_features, out_features]),
            grad_bias: Tensor::zeros(vec![out_features]),
            cached_arena_input: None,
            in_features,
            out_features,
        }
    }

    fn batch_of(&self, elems: usize) -> usize {
        let batch = elems / self.in_features;
        assert_eq!(
            batch * self.in_features,
            elems,
            "Dense: input length {} not divisible by in_features {}",
            elems,
            self.in_features
        );
        batch
    }

    /// `out = X · W + b` on raw slices.
    fn forward_core(&self, x: &[f32], out: &mut [f32], batch: usize) {
        par_gemm(
            x,
            self.weight.data(),
            out,
            batch,
            self.in_features,
            self.out_features,
            1.0,
            0.0,
        );
        // Broadcast-add the bias to every row.
        let bias = self.bias.data();
        for row in out.chunks_exact_mut(self.out_features) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }

    /// Accumulate `dW += Xᵀ·dY` and `db += Σ rows(dY)` — backward phase 1.
    fn backward_params_core(&mut self, x: &[f32], grad_out: &[f32], batch: usize) {
        par_gemm_tn(
            x,
            grad_out,
            self.grad_weight.data_mut(),
            self.in_features,
            batch,
            self.out_features,
            1.0,
            1.0,
        );
        let gb = self.grad_bias.data_mut();
        for row in grad_out.chunks_exact(self.out_features) {
            for (g, &d) in gb.iter_mut().zip(row) {
                *g += d;
            }
        }
    }

    /// `dX = dY · Wᵀ` — backward phase 2.
    fn backward_input_core(&self, grad_out: &[f32], grad_in: &mut [f32], batch: usize) {
        par_gemm_nt(
            grad_out,
            self.weight.data(),
            grad_in,
            batch,
            self.out_features,
            self.in_features,
            1.0,
            0.0,
        );
    }
}

impl Layer for Dense {
    fn forward_arena(&mut self, input: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        let batch = self.batch_of(input.len());
        let out = scratch.alloc(batch * self.out_features);
        let (x, o) = scratch.ro_rw(input.slot(), out);
        self.forward_core(x, o, batch);
        self.cached_arena_input = Some(input);
        ArenaBuf::new(out, &[batch, self.out_features])
    }

    fn backward_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        self.backward_params_arena(grad_out, scratch);
        let batch = grad_out.len() / self.out_features;
        let gin = scratch.alloc(batch * self.in_features);
        let (gout, gi) = scratch.ro_rw(grad_out.slot(), gin);
        self.backward_input_core(gout, gi, batch);
        ArenaBuf::new(gin, &[batch, self.in_features])
    }

    fn backward_params_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) {
        let input = self
            .cached_arena_input
            .expect("Dense::backward_arena called before forward_arena");
        let batch = self.batch_of(input.len());
        assert_eq!(
            grad_out.len(),
            batch * self.out_features,
            "Dense: bad grad_out length"
        );
        let x = scratch.slice(input.slot());
        let gout = scratch.slice(grad_out.slot());
        self.backward_params_core(x, gout, batch);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_grads(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.grad_weight);
        f(&self.grad_bias);
    }

    fn visit_params_grads_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::{check_input_gradient, check_param_gradients, ArenaDriver};
    use fedhisyn_tensor::rng_from_seed;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = rng_from_seed(0);
        let mut layer = Dense::new(2, 3, Init::Zeros, &mut rng);
        // W = [[1, 2, 3], [4, 5, 6]], b = [0.5, 0.5, 0.5]
        layer.weight = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        layer.bias = Tensor::from_vec(vec![3], vec![0.5; 3]);
        let x = Tensor::from_vec(vec![1, 2], vec![1., 1.]);
        let y = ArenaDriver::new().forward(&mut layer, &x);
        assert_eq!(y.data(), &[5.5, 7.5, 9.5]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = rng_from_seed(1);
        let mut layer = Dense::new(5, 4, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![3, 5], 1.0, &mut rng);
        check_input_gradient(&mut layer, &x, 2e-2);
    }

    #[test]
    fn param_gradients_match_finite_difference() {
        let mut rng = rng_from_seed(2);
        let mut layer = Dense::new(4, 3, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![2, 4], 1.0, &mut rng);
        check_param_gradients(&mut layer, &x, 2e-2);
    }

    #[test]
    fn backward_accumulates_until_zero_grad() {
        let mut rng = rng_from_seed(3);
        let mut layer = Dense::new(3, 2, Init::HeNormal, &mut rng);
        let x = Tensor::randn(vec![2, 3], 1.0, &mut rng);
        let mut arena = ArenaDriver::new();
        let out = arena.forward(&mut layer, &x);
        let _ = arena.backward(&mut layer, &out);
        let mut g1 = Vec::new();
        layer.visit_grads(&mut |g| g1.extend_from_slice(g.data()));
        let _ = arena.forward(&mut layer, &x);
        let _ = arena.backward(&mut layer, &out);
        let mut g2 = Vec::new();
        layer.visit_grads(&mut |g| g2.extend_from_slice(g.data()));
        for (a, b) in g1.iter().zip(&g2) {
            assert!((2.0 * a - b).abs() < 1e-4, "{b} should be 2x {a}");
        }
        layer.zero_grad();
        let mut g3 = Vec::new();
        layer.visit_grads(&mut |g| g3.extend_from_slice(g.data()));
        assert!(g3.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn param_count_is_weights_plus_bias() {
        let mut rng = rng_from_seed(4);
        let layer = Dense::new(7, 5, Init::HeNormal, &mut rng);
        assert_eq!(layer.param_count(), 7 * 5 + 5);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_without_forward_panics() {
        let mut rng = rng_from_seed(5);
        let mut layer = Dense::new(2, 2, Init::HeNormal, &mut rng);
        let g = Tensor::zeros(vec![1, 2]);
        let _ = ArenaDriver::new().backward(&mut layer, &g);
    }
}

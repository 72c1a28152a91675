//! Rectified linear activation.

use fedhisyn_tensor::Scratch;

use crate::arena::ArenaBuf;
use crate::layers::Layer;

/// Elementwise `max(0, x)` with a cached activation mask for backprop.
///
/// The mask is a persistent grow-only field, so nothing is allocated for
/// it after the first batch.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// True where the forward input was positive.
    mask: Vec<bool>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    fn forward_core(&mut self, x: &[f32], out: &mut [f32]) {
        self.mask.clear();
        self.mask.extend(x.iter().map(|&v| v > 0.0));
        for (o, &v) in out.iter_mut().zip(x) {
            *o = v.max(0.0);
        }
    }

    fn backward_core(&self, grad_out: &[f32], grad_in: &mut [f32]) {
        for ((gi, &g), &m) in grad_in.iter_mut().zip(grad_out).zip(&self.mask) {
            *gi = if m { g } else { 0.0 };
        }
    }
}

impl Layer for Relu {
    fn forward_arena(&mut self, input: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        let out = scratch.alloc(input.len());
        let (x, o) = scratch.ro_rw(input.slot(), out);
        self.forward_core(x, o);
        ArenaBuf::new(out, input.dims())
    }

    fn backward_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "Relu::backward before forward"
        );
        let gin = scratch.alloc(grad_out.len());
        let (g, gi) = scratch.ro_rw(grad_out.slot(), gin);
        self.backward_core(g, gi);
        ArenaBuf::new(gin, grad_out.dims())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::ArenaDriver;
    use fedhisyn_tensor::Tensor;

    #[test]
    fn forward_clamps_negatives() {
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1., 0., 2., -3.]);
        let y = ArenaDriver::new().forward(&mut layer, &x);
        assert_eq!(y.data(), &[0., 0., 2., 0.]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1., 0.5, 2., -3.]);
        let mut arena = ArenaDriver::new();
        let _ = arena.forward(&mut layer, &x);
        let g = Tensor::from_vec(vec![4], vec![1., 1., 1., 1.]);
        let gi = arena.backward(&mut layer, &g);
        assert_eq!(gi.data(), &[0., 1., 1., 0.]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient convention: derivative at exactly 0 is 0.
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![1], vec![0.]);
        let mut arena = ArenaDriver::new();
        let _ = arena.forward(&mut layer, &x);
        let g = Tensor::from_vec(vec![1], vec![5.]);
        assert_eq!(arena.backward(&mut layer, &g).data(), &[0.]);
    }

    #[test]
    fn has_no_params() {
        let layer = Relu::new();
        assert_eq!(layer.param_count(), 0);
    }
}

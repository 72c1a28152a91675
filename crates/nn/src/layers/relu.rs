//! Rectified linear activation.
//!
//! The forward is one pass, `x > 0 ? x : +0`, and keeps no mask: the
//! backward reads the layer's own forward output, which stays in the
//! step's arena until the step ends. `out > 0 ⇔ x > 0` for every `x` — a
//! NaN or `±0` input gives a `+0` output, and both tests are false for it
//! — so the gradient it routes is the one a mask of `x > 0` would route.
//! The backward overwrites the incoming gradient in place (nothing reads
//! it afterwards) and returns it as the input gradient.
//!
//! The select is written out rather than `x.max(0.0)`, whose result for
//! `x = −0` the language leaves open: an optimised x86-64 build returns
//! `+0` there and an unoptimised one `−0`. The select is the optimised
//! build's result for every input, in every build.

use fedhisyn_tensor::{Scratch, ScratchSlot};

use crate::arena::ArenaBuf;
use crate::layers::Layer;

/// Elementwise `max(0, x)`; the backward passes the gradient where the
/// forward output is positive (module docs).
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// Where the current step's forward output lives in the arena.
    out_slot: Option<ScratchSlot>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward_arena(&mut self, input: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        let out = scratch.alloc(input.len());
        let (x, o) = scratch.ro_rw(input.slot(), out);
        for (o, &v) in o.iter_mut().zip(x) {
            *o = if v > 0.0 { v } else { 0.0 };
        }
        self.out_slot = Some(out);
        ArenaBuf::new(out, input.dims())
    }

    fn backward_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        let out = self
            .out_slot
            .filter(|out| out.len() == grad_out.len())
            .expect("Relu::backward before forward");
        let (y, g) = scratch.ro_rw(out, grad_out.slot());
        for (g, &y) in g.iter_mut().zip(y) {
            *g = if y > 0.0 { *g } else { 0.0 };
        }
        grad_out
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

    /// Special inputs: the forward maps NaN and `±0` to `+0` in every
    /// build, and the backward's output test routes what a mask of `x > 0`
    /// routed.
    #[test]
    fn special_values_clamp_to_plus_zero_and_route_like_an_input_mask() {
        let xs = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-38,
            -1e-38,
        ];
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![xs.len()], xs.to_vec());
        let mut arena = ArenaDriver::new();
        let y = arena.forward(&mut layer, &x);
        let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        let want_y = [0.0, f32::INFINITY, 0.0, 0.0, 0.0, 1e-38, 0.0];
        assert_eq!(bits, want_y.map(f32::to_bits));
        let g = Tensor::from_vec(vec![xs.len()], vec![3.0; xs.len()]);
        let gi = arena.backward(&mut layer, &g);
        let want: Vec<f32> = xs
            .iter()
            .map(|&v| if v > 0.0 { 3.0 } else { 0.0 })
            .collect();
        assert_eq!(gi.data(), &want[..]);
    }

    #[test]
    fn has_no_params() {
        let layer = Relu::new();
        assert_eq!(layer.param_count(), 0);
    }
}

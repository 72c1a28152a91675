//! Flatten `[B, C, H, W]` feature maps into `[B, C·H·W]` rows.

use fedhisyn_tensor::Scratch;

use crate::arena::ArenaBuf;
use crate::layers::Layer;

/// Reshapes batch-first feature maps into dense-layer rows.
///
/// Data is row-major, so the reshape is a pure handle rewrite — zero
/// bytes move; the backward pass restores the cached input shape.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_dims: Vec<usize>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward_arena(&mut self, input: ArenaBuf, _scratch: &mut Scratch) -> ArenaBuf {
        assert!(input.rank() >= 2, "Flatten expects a batch dimension");
        self.input_dims.clear();
        self.input_dims.extend_from_slice(input.dims());
        let batch = input.batch();
        let features = input.len() / batch.max(1);
        input.reshaped(&[batch, features])
    }

    fn backward_arena(&mut self, grad_out: ArenaBuf, _scratch: &mut Scratch) -> ArenaBuf {
        assert!(
            !self.input_dims.is_empty(),
            "Flatten::backward before forward"
        );
        let mut dims = [1usize; 4];
        dims[..self.input_dims.len()].copy_from_slice(&self.input_dims);
        grad_out.reshaped(&dims[..self.input_dims.len()])
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::ArenaDriver;
    use fedhisyn_tensor::Tensor;

    #[test]
    fn flattens_and_restores_shape() {
        let mut layer = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4, 4]);
        let mut arena = ArenaDriver::new();
        let y = arena.forward(&mut layer, &x);
        assert_eq!(y.shape(), &[2, 48]);
        let g = Tensor::zeros(vec![2, 48]);
        let gi = arena.backward(&mut layer, &g);
        assert_eq!(gi.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn preserves_data_order() {
        let mut layer = Flatten::new();
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1., 2., 3., 4.]);
        let y = ArenaDriver::new().forward(&mut layer, &x);
        assert_eq!(y.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn stateless_param_count() {
        assert_eq!(Flatten::new().param_count(), 0);
    }
}

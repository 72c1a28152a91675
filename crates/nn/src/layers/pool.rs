//! 2-D max pooling.

use fedhisyn_tensor::Scratch;

use crate::arena::ArenaBuf;
use crate::layers::Layer;

/// Non-overlapping `k×k` max pooling (stride = kernel).
///
/// Input `[B, C, H, W]` with `H` and `W` divisible by `k`; output
/// `[B, C, H/k, W/k]`. The forward pass records the flat index of each
/// window's maximum so the backward pass can scatter gradients.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    argmax: Vec<usize>,
    input_dims: Vec<usize>,
}

impl MaxPool2d {
    /// New pooling layer with window size `kernel`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pool kernel must be positive");
        MaxPool2d {
            kernel,
            argmax: Vec::new(),
            input_dims: Vec::new(),
        }
    }

    fn check_input(&self, dims: &[usize]) -> (usize, usize, usize, usize) {
        assert_eq!(dims.len(), 4, "MaxPool2d expects [B, C, H, W]");
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let k = self.kernel;
        assert!(
            h % k == 0 && w % k == 0,
            "MaxPool2d: {h}x{w} not divisible by {k}"
        );
        (b, c, h, w)
    }

    /// Window maxima + argmax recording. `argmax` is persistent and
    /// grow-only.
    fn forward_core(&mut self, x: &[f32], o: &mut [f32], b: usize, c: usize, h: usize, w: usize) {
        let k = self.kernel;
        let (oh, ow) = (h / k, w / k);
        self.argmax.clear();
        self.argmax.reserve(b * c * oh * ow);
        let mut oi = 0usize;
        for bc in 0..b * c {
            let plane = bc * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = plane + (oy * k) * w + ox * k;
                    let mut best = x[best_idx];
                    for ky in 0..k {
                        let row = plane + (oy * k + ky) * w + ox * k;
                        for kx in 0..k {
                            let idx = row + kx;
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    o[oi] = best;
                    self.argmax.push(best_idx);
                    oi += 1;
                }
            }
        }
    }

    /// Scatter gradients to the recorded maxima; `gi` must be zeroed.
    fn backward_core(&self, grad_out: &[f32], gi: &mut [f32]) {
        for (&idx, &g) in self.argmax.iter().zip(grad_out) {
            gi[idx] += g;
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_arena(&mut self, input: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        let (b, c, h, w) = self.check_input(input.dims());
        let k = self.kernel;
        // Record the input shape without reallocating once sized.
        self.input_dims.clear();
        self.input_dims.extend_from_slice(input.dims());
        let out = scratch.alloc(b * c * (h / k) * (w / k));
        let (x, o) = scratch.ro_rw(input.slot(), out);
        self.forward_core(x, o, b, c, h, w);
        ArenaBuf::new(out, &[b, c, h / k, w / k])
    }

    fn backward_arena(&mut self, grad_out: ArenaBuf, scratch: &mut Scratch) -> ArenaBuf {
        assert!(
            !self.input_dims.is_empty(),
            "MaxPool2d::backward before forward"
        );
        assert_eq!(
            grad_out.len(),
            self.argmax.len(),
            "MaxPool2d: bad grad_out length"
        );
        let n: usize = self.input_dims.iter().product();
        let gin = scratch.alloc(n); // zero-filled for the scatter-add
        let (g, gi) = scratch.ro_rw(grad_out.slot(), gin);
        self.backward_core(g, gi);
        let dims = [
            self.input_dims[0],
            self.input_dims[1],
            self.input_dims[2],
            self.input_dims[3],
        ];
        ArenaBuf::new(gin, &dims)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::ArenaDriver;
    use fedhisyn_tensor::Tensor;

    #[test]
    fn forward_takes_window_maxima() {
        let mut layer = MaxPool2d::new(2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![1, 1, 4, 4], vec![
            1., 2., 5., 6.,
            3., 4., 7., 8.,
            9., 10., 13., 14.,
            11., 12., 15., 16.,
        ]);
        let y = ArenaDriver::new().forward(&mut layer, &x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut layer = MaxPool2d::new(2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![
            1., 9.,
            3., 4.,
        ]);
        let mut arena = ArenaDriver::new();
        let _ = arena.forward(&mut layer, &x);
        let g = Tensor::from_vec(vec![1, 1, 1, 1], vec![5.]);
        let gi = arena.backward(&mut layer, &g);
        assert_eq!(gi.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn multi_channel_pooling_is_per_plane() {
        let mut layer = MaxPool2d::new(2);
        let mut v = vec![0.0; 2 * 4];
        v[3] = 7.0; // channel 0 max
        v[4] = 3.0; // channel 1 max
        let x = Tensor::from_vec(vec![1, 2, 2, 2], v);
        let y = ArenaDriver::new().forward(&mut layer, &x);
        assert_eq!(y.data(), &[7., 3.]);
    }

    #[test]
    fn ties_choose_first_occurrence() {
        let mut layer = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![5., 5., 5., 5.]);
        let mut arena = ArenaDriver::new();
        let _ = arena.forward(&mut layer, &x);
        let g = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.]);
        let gi = arena.backward(&mut layer, &g);
        assert_eq!(gi.data(), &[1., 0., 0., 0.]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_input_panics() {
        let mut layer = MaxPool2d::new(2);
        let x = Tensor::zeros(vec![1, 1, 3, 3]);
        let _ = ArenaDriver::new().forward(&mut layer, &x);
    }

    #[test]
    fn no_params() {
        assert_eq!(MaxPool2d::new(2).param_count(), 0);
    }
}

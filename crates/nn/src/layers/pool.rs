//! 2-D max pooling.
//!
//! The forward visits a window's taps in row-major order and keeps the
//! running maximum with a branch-free select on a strict `>`: ties go to
//! the first position, and a NaN never displaces the current best (a NaN
//! first element therefore stays the window's output). Four neighbouring
//! windows of an output row run side by side as fixed-size arrays, so
//! each tap is one vector compare and two selects instead of a
//! data-dependent branch per compare; at `k = 2` the window loads have a
//! constant stride as well. What the forward records per window is the
//! winner's offset from the window origin (`u32`); the backward adds each
//! window's gradient at origin + offset.

use fedhisyn_tensor::Scratch;

use crate::arena::ArenaBuf;
use crate::layers::Layer;

/// Non-overlapping `k×k` max pooling (stride = kernel).
///
/// Input `[B, C, H, W]` with `H` and `W` divisible by `k`; output
/// `[B, C, H/k, W/k]`. The forward pass records where each window's
/// maximum lies so the backward pass can scatter gradients (module docs).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    /// Per window, the winner's offset `ky·W + kx` from the window origin.
    argmax: Vec<u32>,
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
    fn forward_core(&mut self, x: &[f32], o: &mut [f32], w: usize) {
        let (k, ow) = (self.kernel, w / self.kernel);
        self.argmax.clear();
        self.argmax.resize(o.len(), 0);
        // Planes are whole bands of `k` input rows, so the bands and the
        // output rows line up across planes and samples.
        let rows = x
            .chunks_exact(k * w)
            .zip(o.chunks_exact_mut(ow))
            .zip(self.argmax.chunks_exact_mut(ow));
        for ((band, best), at) in rows {
            // `k` is a literal in the common case, so the window loads
            // there have a constant stride and the selects vectorise.
            if k == 2 {
                pool_row(band, best, at, 2, w);
            } else {
                pool_row(band, best, at, k, w);
            }
        }
    }

    /// Scatter gradients to the recorded maxima; `gi` must be zeroed.
    fn backward_core(&self, grad_out: &[f32], gi: &mut [f32], w: usize) {
        let (k, ow) = (self.kernel, w / self.kernel);
        let rows = gi
            .chunks_exact_mut(k * w)
            .zip(grad_out.chunks_exact(ow))
            .zip(self.argmax.chunks_exact(ow));
        for ((band, g_row), at) in rows {
            for (ox, (&g, &a)) in g_row.iter().zip(at).enumerate() {
                band[ox * k + a as usize] += g;
            }
        }
    }
}

/// Windows whose selects run side by side: four `f32` lanes, one 128-bit
/// vector, the width every x86-64 target has.
const GROUP: usize = 4;

/// Pool one output row: `band` holds the `k` input rows under it, `best`
/// and `at` receive each window's maximum and its offset from the window
/// origin. Windows go [`GROUP`] at a time as fixed-size arrays, so each
/// tap is one vector compare and two selects; a row's last `OW mod GROUP`
/// windows run one at a time through the same taps.
#[inline(always)]
fn pool_row(band: &[f32], best: &mut [f32], at: &mut [u32], k: usize, w: usize) {
    let groups = best.chunks_mut(GROUP).zip(at.chunks_mut(GROUP));
    for (g, (best, at)) in groups.enumerate() {
        let win = &band[g * GROUP * k..];
        if best.len() == GROUP {
            // Tap `offset` of each window in the group; the bounded slice
            // lets the loads go unchecked.
            let lanes = |offset: usize| -> [f32; GROUP] {
                let taps = &win[offset..][..(GROUP - 1) * k + 1];
                std::array::from_fn(|l| taps[l * k])
            };
            let (mut b, mut a) = (lanes(0), [0u32; GROUP]);
            for tap in 1..k * k {
                let offset = (tap / k) * w + tap % k;
                let v = lanes(offset);
                for l in 0..GROUP {
                    let wins = v[l] > b[l];
                    b[l] = if wins { v[l] } else { b[l] };
                    a[l] = if wins { offset as u32 } else { a[l] };
                }
            }
            best.copy_from_slice(&b);
            at.copy_from_slice(&a);
        } else {
            for (l, (best, at)) in best.iter_mut().zip(at.iter_mut()).enumerate() {
                let win = &win[l * k..];
                (*best, *at) = (win[0], 0);
                for tap in 1..k * k {
                    let offset = (tap / k) * w + tap % k;
                    let wins = win[offset] > *best;
                    *best = if wins { win[offset] } else { *best };
                    *at = if wins { offset as u32 } else { *at };
                }
            }
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
        self.forward_core(x, o, w);
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
        self.backward_core(g, gi, self.input_dims[3]);
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

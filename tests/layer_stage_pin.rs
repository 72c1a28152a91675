//! One FNV-1a hash over every non-GEMM stage of the CNN step, so a rewrite
//! of a stage's loop cannot move a bit unnoticed.
//!
//! Covered, each driven through its arena passes the way a model drives
//! it (forward, then backward in the same arena step):
//!
//! * `MaxPool2d`: forward maxima and the argmax routing (the backward of a
//!   distinct gradient per window shows where each window routed it), at
//!   `k = 2` on `cnn_fedavg`'s two pool inputs and at `k = 3` on a
//!   non-square input;
//! * `Relu`: forward output and input gradient;
//! * `Conv2d`: forward output, input gradient (full backward), parameter
//!   gradients after two chained steps (the second runs the parameter
//!   half alone, as a model's first layer does), on `cnn_fedavg`'s shapes
//!   (B = 20; 3→8 at 16×16 and 8→16 at 8×8; k = 3, pad 1) and on pad 0
//!   and 2, kernels 1 and 5 and non-square inputs.
//!
//! Inputs carry planted values: NaN (also as a window's first element),
//! ±∞, ±0, and ties between every pair of window positions. The conv
//! cases run once on clean inputs (±0 and ties only, so no NaN floods the
//! weight gradient) and once on inputs with NaN and ±∞ too. NaNs are
//! hashed as one canonical pattern: the stages only ever copy a NaN or
//! produce one from arithmetic, and a NaN's payload is not part of what
//! any stage promises. The GEMM tiers are bit-identical, so one constant
//! holds on both dispatch legs.

use fedhisyn::nn::init::Init;
use fedhisyn::nn::layers::{Conv2d, Layer, MaxPool2d, Relu};
use fedhisyn::nn::ArenaBuf;
use fedhisyn::tensor::{rng_from_seed, Scratch, Tensor};

/// The bits of every stage output the module docs list, recorded before
/// the stages lost their per-row copies, branches and the ReLU mask.
const PINNED: u64 = 0x87bd_44c8_d4c1_4543;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn dims(&mut self, dims: &[usize]) {
        for &d in dims {
            self.bytes(&(d as u64).to_le_bytes());
        }
    }

    fn floats(&mut self, v: &[f32]) {
        for &x in v {
            let bits = if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() };
            self.bytes(&bits.to_le_bytes());
        }
    }
}

/// A small deterministic generator for the planting decisions.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Plant special values into `[.., H, W]` planes, window by window for
/// `k × k` windows. Each window gets one pattern; across windows the
/// patterns cover a NaN first element, a NaN elsewhere, ±∞, an all −∞
/// window, ±0 in both orders and a tie between every pair of positions.
/// With `nan_inf` off, only the ±0 and tie patterns are planted.
fn plant(x: &mut [f32], h: usize, w: usize, k: usize, nan_inf: bool, seed: u64) {
    let mut lcg = Lcg(seed);
    let kk = k * k;
    let ties: Vec<(usize, usize)> = (0..kk)
        .flat_map(|p| (p + 1..kk).map(move |q| (p, q)))
        .collect();
    let mut next_tie = 0usize;
    for plane in x.chunks_exact_mut(h * w) {
        for wy in 0..h / k {
            for wx in 0..w / k {
                let at = |p: usize| (wy * k + p / k) * w + wx * k + p % k;
                let pattern = lcg.below(if nan_inf { 10 } else { 5 });
                match (pattern, nan_inf) {
                    (0, _) => {} // left random
                    (1 | 2, _) if kk > 1 => {
                        // A tie at the window maximum between positions p < q.
                        let (p, q) = ties[next_tie % ties.len()];
                        next_tie += 1;
                        for i in 0..kk {
                            plane[at(i)] = -1.0 - plane[at(i)].abs();
                        }
                        let top = 2.0 + lcg.below(3) as f32;
                        plane[at(p)] = top;
                        plane[at(q)] = top;
                    }
                    (3, _) => {
                        // ±0 as the window maximum, in both orders.
                        for i in 0..kk {
                            plane[at(i)] = -1.0;
                        }
                        let (p, q) = (lcg.below(kk), lcg.below(kk));
                        plane[at(p)] = -0.0;
                        plane[at(q)] = 0.0;
                    }
                    (4, _) => {
                        // ±0 elsewhere in a window with a positive maximum.
                        plane[at(lcg.below(kk))] = -0.0;
                        plane[at(lcg.below(kk))] = 0.0;
                    }
                    (5, true) => plane[at(0)] = f32::NAN,
                    (6, true) => plane[at(lcg.below(kk))] = f32::NAN,
                    (7, true) => plane[at(lcg.below(kk))] = f32::INFINITY,
                    (8, true) => plane[at(lcg.below(kk))] = f32::NEG_INFINITY,
                    (9, true) => {
                        for i in 0..kk {
                            plane[at(i)] = f32::NEG_INFINITY;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Stage `x` into a fresh step of `scratch`.
fn stage(scratch: &mut Scratch, x: &Tensor) -> ArenaBuf {
    scratch.reset();
    let slot = scratch.alloc(x.len());
    scratch.slice_mut(slot).copy_from_slice(x.data());
    ArenaBuf::new(slot, x.shape())
}

/// Stage `g` into the current step of `scratch`.
fn stage_grad(scratch: &mut Scratch, g: &Tensor) -> ArenaBuf {
    let slot = scratch.alloc(g.len());
    scratch.slice_mut(slot).copy_from_slice(g.data());
    ArenaBuf::new(slot, g.shape())
}

/// Forward then full backward of `layer` on `x` with incoming gradient
/// `g(out dims)`, hashing the output and the input gradient.
fn forward_backward(
    layer: &mut dyn Layer,
    scratch: &mut Scratch,
    x: &Tensor,
    grad: impl FnOnce(&[usize]) -> Tensor,
    h: &mut Fnv,
) {
    let xb = stage(scratch, x);
    let out = layer.forward_arena(xb, scratch);
    h.dims(out.dims());
    h.floats(out.read(scratch));
    let g = grad(out.dims());
    let gb = stage_grad(scratch, &g);
    let gin = layer.backward_arena(gb, scratch);
    h.dims(gin.dims());
    h.floats(gin.read(scratch));
}

fn pool_hash(h: &mut Fnv, scratch: &mut Scratch) {
    for (seed, k, dims) in [
        (1u64, 2usize, [20usize, 8, 16, 16]),
        (2, 2, [20, 16, 8, 8]),
        (3, 3, [4, 4, 9, 12]),
        (4, 3, [1, 2, 12, 6]),
    ] {
        let mut rng = rng_from_seed(seed);
        let mut x = Tensor::randn(dims.to_vec(), 1.0, &mut rng);
        plant(x.data_mut(), dims[2], dims[3], k, true, seed);
        let mut layer = MaxPool2d::new(k);
        // A distinct gradient per window: the input gradient is the
        // routing, value by value.
        let routing = |d: &[usize]| {
            let n: usize = d.iter().product();
            Tensor::from_vec(d.to_vec(), (1..=n).map(|i| i as f32).collect())
        };
        forward_backward(&mut layer, scratch, &x, routing, h);
    }
}

fn relu_hash(h: &mut Fnv, scratch: &mut Scratch) {
    for (seed, dims) in [
        (11u64, vec![20usize, 8, 16, 16]),
        (12, vec![20, 16, 8, 8]),
        (13, vec![20, 48]),
        (14, vec![3, 5, 7]),
    ] {
        let mut rng = rng_from_seed(seed);
        let mut x = Tensor::randn(dims.clone(), 1.0, &mut rng);
        let (hh, ww) = (dims[dims.len() - 2], dims[dims.len() - 1]);
        plant(x.data_mut(), hh, ww, 2, true, seed);
        let mut layer = Relu::new();
        let grad = |d: &[usize]| Tensor::randn(d.to_vec(), 1.0, &mut rng);
        forward_backward(&mut layer, scratch, &x, grad, h);
    }
}

fn conv_hash(h: &mut Fnv, scratch: &mut Scratch) {
    // (b, c, f, h, w, k, pad)
    let cases = [
        (20usize, 3usize, 8usize, 16usize, 16usize, 3usize, 1usize),
        (20, 8, 16, 8, 8, 3, 1),
        (3, 2, 3, 7, 9, 3, 0),
        (3, 2, 3, 9, 7, 3, 2),
        (4, 3, 4, 6, 5, 1, 0),
        (2, 2, 3, 9, 8, 5, 2),
        (2, 2, 3, 6, 10, 5, 0),
        (2, 2, 3, 2, 3, 5, 2),
    ];
    for (i, &(b, c, f, hh, ww, k, pad)) in cases.iter().enumerate() {
        for nan_inf in [false, true] {
            let seed = 100 + 2 * i as u64 + u64::from(nan_inf);
            let mut rng = rng_from_seed(seed);
            let mut layer = Conv2d::new(c, f, k, pad, Init::HeNormal, &mut rng);
            let bias = Tensor::randn(vec![f], 0.5, &mut rng);
            let mut visit = 0;
            layer.visit_params_mut(&mut |t| {
                if visit == 1 {
                    t.data_mut().copy_from_slice(bias.data());
                }
                visit += 1;
            });
            for step in 0..2 {
                let mut x = Tensor::randn(vec![b, c, hh, ww], 1.0, &mut rng);
                plant(x.data_mut(), hh, ww, k.max(2), nan_inf, seed + step);
                let gy = {
                    let (oh, ow) = (hh + 2 * pad - k + 1, ww + 2 * pad - k + 1);
                    Tensor::randn(vec![b, f, oh, ow], 1.0, &mut rng)
                };
                if step == 0 {
                    forward_backward(&mut layer, scratch, &x, |_| gy, h);
                } else {
                    // The parameter half alone, as a model's first layer runs.
                    let xb = stage(scratch, &x);
                    let out = layer.forward_arena(xb, scratch);
                    h.floats(out.read(scratch));
                    let gb = stage_grad(scratch, &gy);
                    layer.backward_params_arena(gb, scratch);
                }
                layer.visit_grads(&mut |t| {
                    h.dims(t.shape());
                    h.floats(t.data());
                });
            }
        }
    }
}

#[test]
fn cnn_stage_outputs_are_pinned() {
    let mut scratch = Scratch::new();
    let mut parts = Vec::new();
    for (name, stage) in [
        ("maxpool", pool_hash as fn(&mut Fnv, &mut Scratch)),
        ("relu", relu_hash),
        ("conv", conv_hash),
    ] {
        let mut h = Fnv::new();
        stage(&mut h, &mut scratch);
        parts.push(format!("{name} {:#018x}", h.0));
    }
    let mut all = Fnv::new();
    all.bytes(parts.join(" ").as_bytes());
    assert_eq!(
        all.0,
        PINNED,
        "CNN stage outputs moved: {:#018x} ({})",
        all.0,
        parts.join(", ")
    );
}

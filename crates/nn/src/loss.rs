//! Softmax cross-entropy loss.

use fedhisyn_tensor::Scratch;

use crate::arena::ArenaBuf;

/// The slice-level loss kernel: fills `grad` with the mean-loss logit
/// gradient and returns the mean loss.
fn softmax_cross_entropy_core(logits: &[f32], grad: &mut [f32], c: usize, labels: &[usize]) -> f32 {
    let b = labels.len();
    let mut total_loss = 0.0f64;
    let inv_b = 1.0 / b as f32;

    for (bi, (&label, row)) in labels.iter().zip(logits.chunks_exact(c)).enumerate() {
        assert!(label < c, "label {label} out of range for {c} classes");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        let grow = &mut grad[bi * c..(bi + 1) * c];
        for (g, &z) in grow.iter_mut().zip(row) {
            let e = (z - max).exp();
            *g = e;
            sum += e;
        }
        let inv_sum = 1.0 / sum;
        for g in grow.iter_mut() {
            *g *= inv_sum; // now softmax probabilities
        }
        // loss_b = −log p[label]; clamp avoids -inf when p underflows.
        let p = grow[label].max(1e-12);
        total_loss += -(p.ln()) as f64;
        // grad = (p − onehot) / B
        grow[label] -= 1.0;
        for g in grow.iter_mut() {
            *g *= inv_b;
        }
    }
    (total_loss / b as f64) as f32
}

/// Mean softmax cross-entropy over a batch, plus the logit gradient.
///
/// `logits` is `[B, C]`, `labels` holds `B` class indices. Returns
/// `(mean_loss, grad)` where `grad[b, c] = (softmax(logits)[b, c] −
/// 1{c = y_b}) / B` — the gradient of the mean loss with respect to the
/// logits, carved from `scratch` and ready to feed into
/// [`crate::Sequential::backward_arena`].
///
/// Uses the max-subtraction trick for numerical stability.
///
/// # Panics
/// Panics when shapes disagree or a label is out of range.
pub fn softmax_cross_entropy_arena(
    scratch: &mut Scratch,
    logits: ArenaBuf,
    labels: &[usize],
) -> (f32, ArenaBuf) {
    let dims = logits.dims();
    assert_eq!(dims.len(), 2, "logits must be [batch, classes]");
    let (b, c) = (dims[0], dims[1]);
    assert_eq!(labels.len(), b, "one label per batch row");

    let grad = scratch.alloc(b * c);
    let (z, g) = scratch.ro_rw(logits.slot(), grad);
    let loss = softmax_cross_entropy_core(z, g, c, labels);
    (loss, ArenaBuf::new(grad, &[b, c]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::ArenaDriver;
    use fedhisyn_tensor::Tensor;

    /// The loss over a local arena: logits staged in, gradient read back.
    fn loss_and_grad(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let mut loss = 0.0;
        let grad = ArenaDriver::new().run(logits, |z, scratch| {
            let (mean, grad) = softmax_cross_entropy_arena(scratch, z, labels);
            loss = mean;
            grad
        });
        (loss, grad)
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Tensor::zeros(vec![2, 4]);
        let (loss, _) = loss_and_grad(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let (_, grad) = loss_and_grad(&logits, &[2, 0]);
        for row in grad.data().chunks_exact(3) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6, "row sum {s}");
        }
    }

    #[test]
    fn grad_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![1, 3], vec![0.5, -0.2, 0.1]);
        let labels = [1usize];
        let (_, grad) = loss_and_grad(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let (loss_p, _) = loss_and_grad(&lp, &labels);
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (loss_m, _) = loss_and_grad(&lm, &labels);
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[i]).abs() < 1e-3,
                "logit {i}: numeric {numeric} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let logits = Tensor::from_vec(vec![1, 2], vec![10.0, -10.0]);
        let (loss, _) = loss_and_grad(&logits, &[0]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn large_logits_are_stable() {
        let logits = Tensor::from_vec(vec![1, 2], vec![1000.0, 999.0]);
        let (loss, grad) = loss_and_grad(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let logits = Tensor::zeros(vec![1, 2]);
        let _ = loss_and_grad(&logits, &[5]);
    }
}

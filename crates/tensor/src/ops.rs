//! Slice-level BLAS-1 style kernels.
//!
//! These kernels (`axpy`, `scale_assign`, `dot`, …) are the hot path of
//! federated aggregation: averaging 100 device models is nothing but a long
//! sequence of `axpy` over million-element parameter vectors. Inner loops
//! use `iter().zip()` so the compiler can vectorize without bounds checks.

/// `y += x` elementwise over slices.
///
/// # Panics
/// Panics if lengths differ (programming error, not a runtime condition).
#[inline]
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_assign length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += xv;
    }
}

/// `y -= x` elementwise over slices.
#[inline]
pub fn sub_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "sub_assign length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv -= xv;
    }
}

/// `y = alpha * x + y` (BLAS axpy) over slices.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `y *= alpha` over a slice.
#[inline]
pub fn scale_assign(y: &mut [f32], alpha: f32) {
    for yv in y.iter_mut() {
        *yv *= alpha;
    }
}

/// Dot product of two slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Linear interpolation `y = (1 - t) * y + t * x` in place.
///
/// Used by asynchronous baselines (TAFedAvg) that mix an arriving device
/// model into the server model with a staleness-discounted factor `t`.
#[inline]
pub fn lerp(y: &mut [f32], x: &[f32], t: f32) {
    assert_eq!(y.len(), x.len(), "lerp length mismatch");
    let s = 1.0 - t;
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv = s * *yv + t * xv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_definition() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [10.0f32, 20.0, 30.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 21.0, 31.5]);
    }

    #[test]
    fn dot_and_norm() {
        let a = [3.0f32, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(l2_norm(&a), 5.0);
    }

    #[test]
    fn lerp_endpoints() {
        let x = [2.0f32, 4.0];
        let mut y = [0.0f32, 0.0];
        lerp(&mut y, &x, 0.0);
        assert_eq!(y, [0.0, 0.0]);
        lerp(&mut y, &x, 1.0);
        assert_eq!(y, [2.0, 4.0]);
        let mut y = [0.0f32, 0.0];
        lerp(&mut y, &x, 0.25);
        assert_eq!(y, [0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_length_mismatch_panics() {
        let x = [1.0f32];
        let mut y = [1.0f32, 2.0];
        axpy(1.0, &x, &mut y);
    }
}

//! 8-bit linear quantization kernels for the wire codec.
//!
//! The wire layer (`fedhisyn_nn::wire`) maps f32 spans onto a 256-level
//! linear grid `[min, min + 255·scale]`. Encoding computes
//! `q = clamp(floor((x − min)·inv_scale + 0.5), 0, 255)`; decoding computes
//! `min + q·scale` with one multiply and one add. Both directions are
//! dispatched through [`crate::active_tier`]: the scalar loop and the AVX2
//! loop execute the identical IEEE-754 operation sequence per element, so
//! the tiers are bit-identical by construction.
//!
//! # Rounding and non-finite inputs
//!
//! Rounding is the explicit `floor(t + 0.5)` form rather than
//! `f32::round`: Rust's `round` is half-away-from-zero while
//! `_mm256_round_ps` is half-to-even, and the two disagree on exact
//! halves. `floor(t + 0.5)` compiles to the same `_mm256_floor_ps`
//! semantics on both tiers.
//!
//! Non-finite inputs saturate deterministically: the clamp is
//! `max(0) → min(255)` in that order, and both `f32::max` and
//! `_mm256_max_ps` return the *second* operand when the first is NaN, so
//! `NaN → 0` (the `min` end of the grid), `+∞ → 255`, `−∞ → 0` on every
//! tier.
//!
//! # Range scan
//!
//! [`finite_min_max`] finds the grid's end points and is dispatched like
//! the other two kernels. The AVX2 arm keeps eight running minima and
//! eight running maxima (lane `j` sees elements `j, j + 8, …`), folds the
//! eight lanes pairwise (`j` with `j + 4`, then `j + 2`, then `j + 1`) and
//! finishes the `len % 8` tail in the scalar arm's loop; the scalar arm
//! walks the slice front to back.
//!
//! *Non-finite rule.* One ordered `|x| < ∞` compare (false for NaN and
//! for ±∞) replaces a non-finite element by the fold's identity, `+∞` for
//! the minimum and `−∞` for the maximum, so it can never win; a slice
//! with no finite element leaves `min = +∞ > max = −∞`, which is how
//! `None` is detected.
//!
//! *Zero-sign tie rule.* The fold orders `−0.0` below `+0.0` (IEEE 754-2019
//! `minimum` / `maximum`): two operands that compare equal have either the
//! same bits or are zeros of opposite sign, so the minimum of a tie is the
//! bitwise OR of the two (the sign bit survives) and the maximum is the
//! bitwise AND (it does not). An all-`−0.0` slice therefore returns
//! `(−0.0, −0.0)` and a slice mixing both zeros at an extreme returns
//! `−0.0` as the minimum and `+0.0` as the maximum, wherever they sit.
//! The scalar arm applies the rule at every step; the AVX2 arm runs plain
//! `min_ps` / `max_ps` and settles the sign of a zero extreme once per
//! lane from an OR and an AND of the elements (see `min_max_avx2`).
//!
//! *Tier independence.* With NaN blended out, that fold is the minimum /
//! maximum of a total order on bit patterns, which is associative and
//! commutative: the result is a function of the multiset of finite
//! elements, so no lane layout, fold order or tail split can change a bit.

use crate::dispatch::{active_tier, KernelTier};

/// Quantize one value onto the `[min, min + 255·scale]` grid.
///
/// `inv_scale` must be `1/scale` when `scale > 0` and `0.0` otherwise
/// (the degenerate all-equal / non-finite-range chunk collapses every
/// value to level 0).
#[inline(always)]
#[allow(clippy::manual_clamp)] // clamp propagates NaN; max→min saturates it to 0
fn quant8(x: f32, min: f32, inv_scale: f32) -> u8 {
    let t = (x - min) * inv_scale + 0.5;
    t.floor().max(0.0).min(255.0) as u8
}

/// Reconstruct a value from its 8-bit level.
#[inline(always)]
fn dequant8(q: u8, min: f32, scale: f32) -> f32 {
    min + (q as f32) * scale
}

/// Min/max over the finite values of a slice, on the active kernel tier;
/// `None` when no value is finite. NaN and ±∞ are skipped so one bad
/// element cannot poison the whole grid (they still quantize
/// deterministically, see module docs).
///
/// Ties between zeros are broken by sign, not by position: the minimum
/// prefers `−0.0`, the maximum prefers `+0.0`. The returned bits are the
/// same on every tier for every input (module docs § Range scan).
pub fn finite_min_max(xs: &[f32]) -> Option<(f32, f32)> {
    let (lo, hi) = match active_tier() {
        KernelTier::Scalar => min_max_scalar(xs, f32::INFINITY, f32::NEG_INFINITY),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // SAFETY: this tier is only selected after the CPUID check
            // in `KernelTier::available`.
            unsafe { min_max_avx2(xs) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => min_max_scalar(xs, f32::INFINITY, f32::NEG_INFINITY),
    };
    // No finite element leaves the identities (+∞, −∞) in place.
    (lo <= hi).then_some((lo, hi))
}

/// Derive the `(scale, inv_scale)` pair for a `[min, max]` span.
///
/// `scale = (max − min)/255`, forced to zero when the subtraction
/// overflows f32 range (e.g. `MAX − (−MAX) = ∞`) so decode never computes
/// `0·∞ = NaN`.
#[inline]
pub fn quant_scale(min: f32, max: f32) -> (f32, f32) {
    let scale = (max - min) / 255.0;
    if scale.is_finite() && scale > 0.0 {
        (scale, 1.0 / scale)
    } else {
        (0.0, 0.0)
    }
}

/// Quantize `xs` into `out` on the active kernel tier.
///
/// # Panics
/// If `out.len() != xs.len()`.
pub fn quantize_slice(xs: &[f32], min: f32, inv_scale: f32, out: &mut [u8]) {
    assert_eq!(xs.len(), out.len(), "quantize_slice length mismatch");
    match active_tier() {
        KernelTier::Scalar => quantize_scalar(xs, min, inv_scale, out),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // SAFETY: this tier is only selected after the CPUID check
            // in `KernelTier::available`.
            unsafe { quantize_avx2(xs, min, inv_scale, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => quantize_scalar(xs, min, inv_scale, out),
    }
}

/// Dequantize `qs` into `out` on the active kernel tier.
///
/// # Panics
/// If `out.len() != qs.len()`.
pub fn dequantize_slice(qs: &[u8], min: f32, scale: f32, out: &mut [f32]) {
    assert_eq!(qs.len(), out.len(), "dequantize_slice length mismatch");
    match active_tier() {
        KernelTier::Scalar => dequantize_scalar(qs, min, scale, out),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // SAFETY: tier selection implies AVX2 is present.
            unsafe { dequantize_avx2(qs, min, scale, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => dequantize_scalar(qs, min, scale, out),
    }
}

/// Minimum of two non-NaN values with `−0.0 < +0.0`: written as the two
/// operand orders of `a < b ? a : b` (what `_mm256_min_ps` computes) so
/// that a tie ORs the bit patterns.
#[inline(always)]
fn min_signed_zero(a: f32, b: f32) -> f32 {
    let ab = if a < b { a } else { b };
    let ba = if b < a { b } else { a };
    f32::from_bits(ab.to_bits() | ba.to_bits())
}

/// Maximum of two non-NaN values with `−0.0 < +0.0`; a tie ANDs the bits.
#[inline(always)]
fn max_signed_zero(a: f32, b: f32) -> f32 {
    let ab = if a > b { a } else { b };
    let ba = if b > a { b } else { a };
    f32::from_bits(ab.to_bits() & ba.to_bits())
}

/// Fold the finite elements of `xs` into the running `(lo, hi)`.
fn min_max_scalar(xs: &[f32], mut lo: f32, mut hi: f32) -> (f32, f32) {
    for &x in xs {
        let finite = x.abs() < f32::INFINITY;
        lo = min_signed_zero(lo, if finite { x } else { f32::INFINITY });
        hi = max_signed_zero(hi, if finite { x } else { f32::NEG_INFINITY });
    }
    (lo, hi)
}

/// AVX2 range scan: per 8 lanes one `|x| < ∞` compare, two blends to the
/// fold identities, one `min_ps` and one `max_ps`. Those return their
/// second operand when both are zeros, so the sign of a zero extreme is
/// settled off the min/max dependency chain: `any` ORs and `all` ANDs the
/// blended elements, and only their sign bits are read. A lane whose
/// minimum is ±0.0 holds no negative number, so `any`'s sign bit is set
/// exactly when it holds a `−0.0`; a lane whose minimum is not zero
/// already carries that sign bit (negative) or never saw it (positive),
/// so ORing it in changes nothing — and likewise for the maximum with
/// AND. The lanes and the tail are then folded by the scalar arm.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn min_max_avx2(xs: &[f32]) -> (f32, f32) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let vsign = _mm256_set1_ps(-0.0);
    let vinf = _mm256_set1_ps(f32::INFINITY);
    let vninf = _mm256_set1_ps(f32::NEG_INFINITY);
    let (mut lo, mut hi, mut any, mut all) = (vinf, vninf, vinf, vninf);
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n = xs.len()`, so the unaligned 8-float load
        // is in bounds.
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        // Ordered compare: false for NaN, and for ±∞ since ∞ < ∞ is false.
        let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_andnot_ps(vsign, x), vinf);
        let xl = _mm256_blendv_ps(vinf, x, finite);
        let xh = _mm256_blendv_ps(vninf, x, finite);
        lo = _mm256_min_ps(lo, xl);
        hi = _mm256_max_ps(hi, xh);
        any = _mm256_or_ps(any, xl);
        all = _mm256_and_ps(all, xh);
        i += 8;
    }
    lo = _mm256_or_ps(lo, _mm256_and_ps(any, vsign));
    hi = _mm256_andnot_ps(_mm256_andnot_ps(all, vsign), hi);
    let (mut l, mut h) = ([0.0f32; 8], [0.0f32; 8]);
    _mm256_storeu_ps(l.as_mut_ptr(), lo);
    _mm256_storeu_ps(h.as_mut_ptr(), hi);
    // Pairwise, not serial: the fold is order-independent and a tree is
    // three dependent steps instead of eight.
    for w in [4, 2, 1] {
        for j in 0..w {
            l[j] = min_signed_zero(l[j], l[j + w]);
            h[j] = max_signed_zero(h[j], h[j + w]);
        }
    }
    min_max_scalar(&xs[i..], l[0], h[0])
}

fn quantize_scalar(xs: &[f32], min: f32, inv_scale: f32, out: &mut [u8]) {
    for (x, o) in xs.iter().zip(out.iter_mut()) {
        *o = quant8(*x, min, inv_scale);
    }
}

fn dequantize_scalar(qs: &[u8], min: f32, scale: f32, out: &mut [f32]) {
    for (q, o) in qs.iter().zip(out.iter_mut()) {
        *o = dequant8(*q, min, scale);
    }
}

/// AVX2 quantize: 8 lanes of sub/mul/add/floor/max/min, then an exact
/// f32→i32 conversion (the value is integral in `[0, 255]`) narrowed to
/// bytes in registers — both saturating packs are exact on that range —
/// and one 8-byte store. Per-element operation sequence is identical to
/// [`quant8`], hence bit-identical output.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2(xs: &[f32], min: f32, inv_scale: f32, out: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let vmin = _mm256_set1_ps(min);
    let vinv = _mm256_set1_ps(inv_scale);
    let vhalf = _mm256_set1_ps(0.5);
    let vzero = _mm256_setzero_ps();
    let vhi = _mm256_set1_ps(255.0);
    let mut i = 0;
    while i + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        let t = _mm256_add_ps(_mm256_mul_ps(_mm256_sub_ps(x, vmin), vinv), vhalf);
        // max(t, 0): NaN in `t` yields the second operand (0), matching
        // `f32::max` exactly — see module docs.
        let c = _mm256_min_ps(_mm256_max_ps(_mm256_floor_ps(t), vzero), vhi);
        let qi = _mm256_cvtps_epi32(c);
        let words = _mm_packs_epi32(
            _mm256_castsi256_si128(qi),
            _mm256_extracti128_si256::<1>(qi),
        );
        let bytes = _mm_packus_epi16(words, words);
        // SAFETY: `i + 8 <= n` and the dispatcher asserted `out.len() == n`,
        // so the 8 bytes at `out[i..i + 8]` are in bounds; the store is
        // unaligned.
        _mm_storel_epi64(out.as_mut_ptr().add(i) as *mut __m128i, bytes);
        i += 8;
    }
    quantize_scalar(&xs[i..], min, inv_scale, &mut out[i..]);
}

/// AVX2 dequantize: widen 8 bytes to i32, convert to f32 (exact for
/// 0..=255), then one mul and one separate add — no FMA on any tier, so
/// the result is bit-identical to [`dequant8`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dequantize_avx2(qs: &[u8], min: f32, scale: f32, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = qs.len();
    let vmin = _mm256_set1_ps(min);
    let vscale = _mm256_set1_ps(scale);
    let mut i = 0;
    while i + 8 <= n {
        let bytes = _mm_loadl_epi64(qs.as_ptr().add(i) as *const __m128i);
        let wide = _mm256_cvtepu8_epi32(bytes);
        let f = _mm256_cvtepi32_ps(wide);
        let v = _mm256_add_ps(_mm256_mul_ps(f, vscale), vmin);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), v);
        i += 8;
    }
    dequantize_scalar(&qs[i..], min, scale, &mut out[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(xs: &[f32]) -> (f32, f32, f32) {
        let (lo, hi) = finite_min_max(xs).unwrap_or((0.0, 0.0));
        let (scale, inv) = quant_scale(lo, hi);
        (lo, scale, inv)
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step() {
        let xs: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let (min, scale, inv) = grid(&xs);
        let mut qs = vec![0u8; xs.len()];
        quantize_slice(&xs, min, inv, &mut qs);
        let mut back = vec![0.0f32; xs.len()];
        dequantize_slice(&qs, min, scale, &mut back);
        for (x, y) in xs.iter().zip(back.iter()) {
            assert!((x - y).abs() <= scale * 0.5 + 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn tiers_are_bit_identical() {
        // Compare the dispatched path against the scalar loop directly;
        // on AVX2 hosts the dispatched path is the vector kernel.
        let xs: Vec<f32> = (0..259).map(|i| ((i as f32) * 1.7 - 200.0) / 3.0).collect();
        let (min, scale, inv) = grid(&xs);
        let mut qa = vec![0u8; xs.len()];
        let mut qb = vec![0u8; xs.len()];
        quantize_slice(&xs, min, inv, &mut qa);
        quantize_scalar(&xs, min, inv, &mut qb);
        assert_eq!(qa, qb);
        let mut da = vec![0.0f32; xs.len()];
        let mut db = vec![0.0f32; xs.len()];
        dequantize_slice(&qa, min, scale, &mut da);
        dequantize_scalar(&qb, min, scale, &mut db);
        for (a, b) in da.iter().zip(db.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Range scan: every special value at every lane position and in
        // the tail, over lengths on both sides of each vector boundary.
        let bits = |r: Option<(f32, f32)>| r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        let scalar = |xs: &[f32]| {
            let (lo, hi) = min_max_scalar(xs, f32::INFINITY, f32::NEG_INFINITY);
            (lo <= hi).then_some((lo, hi))
        };
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MAX,
            -f32::MAX,
            1.0e-40, // subnormal
        ];
        for n in (0usize..=40).chain([255, 256, 257, 259]) {
            let plain: Vec<f32> = (0..n)
                .map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.25)
                .collect();
            assert_eq!(bits(finite_min_max(&plain)), bits(scalar(&plain)), "n={n}");
            for special in specials {
                // Lane positions 0..8 of the first vector, and the last
                // element (the scalar tail whenever n % 8 != 0).
                for pos in (0..8).chain([n.saturating_sub(1)]).filter(|&p| p < n) {
                    let mut xs = plain.clone();
                    xs[pos] = special;
                    // A zero of the other sign beside it, so a zero
                    // extreme is a tie the sign rule has to break.
                    for zero in [0.0f32, -0.0] {
                        xs[(pos + 1) % n] = zero;
                        assert_eq!(
                            bits(finite_min_max(&xs)),
                            bits(scalar(&xs)),
                            "n={n} pos={pos} special={special:?} zero={zero:?}"
                        );
                    }
                }
            }
            assert_eq!(finite_min_max(&vec![f32::NAN; n]), None);
            assert_eq!(finite_min_max(&vec![f32::NEG_INFINITY; n]), None);
            for x in [-0.0f32, 0.0, 2.5, -f32::MAX] {
                let want = (n > 0).then_some((x.to_bits(), x.to_bits()));
                assert_eq!(
                    bits(finite_min_max(&vec![x; n])),
                    want,
                    "all-equal {x:?}, n={n}"
                );
            }
        }
        // The tie rule itself, wherever the zeros sit.
        let mut zeros = vec![0.0f32; 19];
        for pos in 0..zeros.len() {
            zeros.fill(0.0);
            zeros[pos] = -0.0;
            let want = Some(((-0.0f32).to_bits(), 0.0f32.to_bits()));
            assert_eq!(bits(finite_min_max(&zeros)), want, "pos={pos}");
            assert_eq!(bits(scalar(&zeros)), want, "pos={pos}");
        }
    }

    #[test]
    fn non_finite_inputs_saturate_deterministically() {
        let xs = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, 1.0];
        let (min, scale, inv) = grid(&xs);
        assert_eq!(min, 0.0);
        let mut qs = vec![0u8; xs.len()];
        quantize_slice(&xs, min, inv, &mut qs);
        assert_eq!(qs[0], 0, "NaN saturates to the min level");
        assert_eq!(qs[1], 255, "+inf saturates to the max level");
        assert_eq!(qs[2], 0, "-inf saturates to the min level");
        assert_eq!(qs[3], 0);
        assert_eq!(qs[4], 255);
        let _ = scale;
    }

    #[test]
    fn degenerate_and_overflowing_ranges_collapse_to_min() {
        // All-equal chunk: scale 0 ⇒ every value decodes to min.
        let (scale, inv) = quant_scale(2.5, 2.5);
        assert_eq!((scale, inv), (0.0, 0.0));
        // f32-range overflow: (MAX − (−MAX)) = inf must not poison decode.
        let (scale, inv) = quant_scale(-f32::MAX, f32::MAX);
        assert_eq!((scale, inv), (0.0, 0.0));
        assert_eq!(dequant8(200, -f32::MAX, scale), -f32::MAX);
    }

    #[test]
    fn half_rounding_is_floor_of_t_plus_half() {
        // x = 1.5 on a unit grid: floor(1.5 + 0.5) = 2 on every tier
        // (f32::round would also give 2 here, but 2.5 → floor(3.0) = 3
        // whereas half-even rounding would give 2).
        assert_eq!(quant8(1.5, 0.0, 1.0), 2);
        assert_eq!(quant8(2.5, 0.0, 1.0), 3);
    }
}

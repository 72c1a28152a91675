//! Wire format for model exchange: framing, integrity, and compression.
//!
//! Federated deployments ship weights over the network; this module
//! defines the compact binary encoding the simulated transfers stand in
//! for: a fixed header (magic, version, codec tag, parameter count,
//! checksum) followed by a codec-specific payload. The byte counts
//! reported by [`encoded_len_with`] are what `fedhisyn-simnet`'s byte
//! accounting models.
//!
//! # v3: the codec layer
//!
//! v3 introduces a [`Codec`] selecting the payload encoding:
//!
//! | codec | payload | bytes (n params) | lossy |
//! |-------|---------|------------------|-------|
//! | [`Codec::F32`]  | little-endian `f32`s | `4n` | no |
//! | [`Codec::Int8`] | per-256-chunk `[min, scale]` grid + 1 B/param | `n + 8⌈n/256⌉` | yes |
//!
//! The codec tag lives in the previously-reserved `flags` field (kind 0 is
//! `F32`, kind 1 `Int8`; any other kind is [`WireError::BadCodec`]), so
//! `HEADER_LEN` — and with it every `F32` frame size and every historical
//! wire-byte ledger — is unchanged from v2.
//!
//! `Int8` codes every parameter's absolute value, so a frame decodes on
//! its own. A lossy codec pairs with **error feedback**: the caller
//! accumulates what the codec dropped into a per-device residual
//! ([`codec_transform_in_place`]) and re-injects it before the next
//! encode, so dropped mass re-enters later hops instead of vanishing.
//!
//! # Integrity
//!
//! The v3 checksum is a byte-wise FNV-1a-64 over the `flags` and `count`
//! header fields **and the encoded payload**, finalized with a
//! SplitMix64-style avalanche and truncated to the header's 32-bit slot.
//! Hashing encoded bytes (rather than decoded parameters, as v2 did)
//! means corruption of *compressed* frames — including a flipped codec
//! tag that aliases another codec's payload length — is caught before any
//! dequantization runs. The avalanche step matters: plain FNV's multiply
//! only carries differences upward, so truncating its raw state would
//! leave the low word blind to high-byte corruption (the PR 9 lesson).
//!
//! # Determinism
//!
//! Every codec is a pure function of `(payload, codec)`: the range scan,
//! quantize and dequantize kernels are dispatched through the tensor
//! crate's `KernelTier` table and are bit-identical across scalar and AVX2
//! tiers (see `fedhisyn_tensor::quant`), and the in-place transform is
//! bit-equal to the encode→decode byte path because it is the same
//! kernels in the same order (pinned by this module's
//! `fused_transform_matches_byte_path` test, and on trained models by an
//! Int8 FedHiSyn run in the workspace's `tests/extensions.rs`). Per
//! `Int8` chunk the byte path runs `finite_min_max` → `quant_scale` →
//! `quantize_slice` on the sender and `dequantize_slice` on the receiver;
//! the transform runs `v = params + residual`, those four on `v`, then
//! `residual = v − params`. It skips the frame, the checksum and two
//! allocations, not any arithmetic.
//!
//! # Retired parameters
//!
//! Neither codec needs a shared reference model or a workspace, yet
//! [`encode_with`], [`decode_with`] and [`codec_transform_in_place`] keep
//! the `base` (and the last one the `scratch`) parameter the retired
//! `TopK` delta codec used, and [`CodecScratch`] stays as an empty struct. Both are
//! ignored. They stay because the `ledger` benchmark package calls these
//! four names with these signatures, and a benchmark may not change in
//! the same PR as the code it measures; the ledger PR that narrows its
//! pinned surface (ROADMAP Fix-first PR B or direction 13) drops them.
//! Program code passes `None` and a `CodecScratch`.

use bytes::{Buf, BufMut, Bytes};
use fedhisyn_tensor::quant::{dequantize_slice, finite_min_max, quant_scale, quantize_slice};
use serde::{Deserialize, Serialize};

use crate::params::ParamVec;

/// Magic bytes identifying a FedHiSyn weight frame.
const MAGIC: [u8; 4] = *b"FHSW";
/// Current wire-format version. v3 turned the reserved `flags` field into
/// a codec tag and moved the checksum to the *encoded* payload bytes so
/// compressed frames get the same corruption coverage as raw ones.
const VERSION: u16 = 3;
/// Header size in bytes: magic (4) + version (2) + flags (2) + count (8) +
/// checksum (4). Identical across v1–v3, so `F32` frame sizes — and every
/// wire-byte ledger derived from them — are version-independent.
pub const HEADER_LEN: usize = 20;
/// Offset of the header's checksum slot, its last four bytes.
const CHECKSUM_AT: usize = HEADER_LEN - 4;

/// Parameters per `Int8` quantization chunk. Each chunk carries its own
/// `[min, scale]` pair so one outlier only widens the grid locally.
const INT8_CHUNK: usize = 256;

/// Payload encoding for a weight frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Codec {
    /// Full-precision little-endian `f32` — the historical path, proven
    /// bit-identical to v2 accounting.
    #[default]
    F32,
    /// Per-chunk 8-bit linear quantization of absolute values (~3.9×).
    Int8,
}

impl Codec {
    /// True for codecs that discard information (and therefore need
    /// error-feedback residuals).
    pub fn lossy(self) -> bool {
        !matches!(self, Codec::F32)
    }

    /// Stable label for records and reports (`f32`, `int8`).
    pub fn label(self) -> String {
        match self {
            Codec::F32 => "f32".to_string(),
            Codec::Int8 => "int8".to_string(),
        }
    }

    /// Pack into the header's `flags` field: bits 0–2 carry the codec
    /// kind.
    fn to_flags(self) -> u16 {
        match self {
            Codec::F32 => 0,
            Codec::Int8 => 1,
        }
    }

    /// Recover a codec from the `flags` field: only bits 0–2 name the
    /// kind, and a kind other than 0 or 1 is [`WireError::BadCodec`].
    fn from_flags(flags: u16) -> Result<Codec, WireError> {
        match flags & 0x7 {
            0 => Ok(Codec::F32),
            1 => Ok(Codec::Int8),
            _ => Err(WireError::BadCodec(flags)),
        }
    }
}

/// Errors produced when decoding a weight frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame shorter than a header.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// The `flags` field does not name a known codec.
    BadCodec(u16),
    /// Payload length disagrees with the header's codec and count.
    LengthMismatch {
        /// Payload bytes promised by the header.
        expected: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// Checksum mismatch (corrupted transfer).
    BadChecksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad magic bytes"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadCodec(flags) => write!(f, "unknown codec flags {flags:#06x}"),
            WireError::LengthMismatch { expected, actual } => {
                write!(f, "payload has {actual} bytes, header implies {expected}")
            }
            WireError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Payload bytes for `params` parameters under `codec`. Saturating:
/// `params` may be a corrupted header count, and a saturated length
/// fails the length gate instead of panicking.
fn payload_len(codec: Codec, params: usize) -> usize {
    match codec {
        Codec::F32 => params.saturating_mul(4),
        Codec::Int8 => params.saturating_add(8usize.saturating_mul(params.div_ceil(INT8_CHUNK))),
    }
}

/// Total encoded size of a model with `params` parameters under the
/// historical full-precision path.
pub const fn encoded_len(params: usize) -> usize {
    HEADER_LEN + params * 4
}

/// Total encoded size of a model with `params` parameters under `codec`.
pub fn encoded_len_with(codec: Codec, params: usize) -> usize {
    HEADER_LEN + payload_len(codec, params)
}

/// v3 integrity checksum: byte-wise FNV-1a-64 over the `flags` and
/// `count` header bytes and the encoded payload, avalanched and truncated
/// to 32 bits (see module docs for why both steps matter).
fn frame_checksum(flags: u16, count: u64, payload: &[u8]) -> u32 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in flags
        .to_le_bytes()
        .iter()
        .chain(count.to_le_bytes().iter())
        .chain(payload.iter())
    {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    // SplitMix64 finalizer: full-width diffusion before truncation.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h as u32
}

// ---- encode --------------------------------------------------------------

/// Encode a parameter vector into a full-precision (`F32`) weight frame.
pub fn encode(params: &ParamVec) -> Bytes {
    encode_with(params, Codec::F32, None)
}

/// Encode a parameter vector under `codec`.
///
/// `_base` is retired and ignored (see the module docs). For a lossy codec
/// the caller is responsible for error feedback — encode `v = payload +
/// residual`, not the raw payload (see [`codec_transform_in_place`]).
pub fn encode_with(params: &ParamVec, codec: Codec, _base: Option<&ParamVec>) -> Bytes {
    let n = params.len();
    let flags = codec.to_flags();
    // One buffer: the header with an empty checksum slot, the payload
    // behind it, then the checksum patched in once the payload exists.
    let mut frame = Vec::with_capacity(encoded_len_with(codec, n));
    frame.put_slice(&MAGIC);
    frame.put_u16_le(VERSION);
    frame.put_u16_le(flags);
    frame.put_u64_le(n as u64);
    frame.put_u32_le(0);
    match codec {
        Codec::F32 => {
            for &x in params.as_slice() {
                frame.put_f32_le(x);
            }
        }
        Codec::Int8 => encode_int8(params.as_slice(), &mut frame),
    }
    debug_assert_eq!(frame.len(), encoded_len_with(codec, n));
    let checksum = frame_checksum(flags, n as u64, &frame[HEADER_LEN..]);
    frame[CHECKSUM_AT..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    Bytes::from(frame)
}

/// Quantize `xs` chunk-by-chunk into `payload` (`[min, scale]` then one
/// byte per parameter).
fn encode_int8(xs: &[f32], payload: &mut Vec<u8>) {
    let mut q = [0u8; INT8_CHUNK];
    for chunk in xs.chunks(INT8_CHUNK) {
        let (min, scale, inv) = int8_grid(chunk);
        payload.put_f32_le(min);
        payload.put_f32_le(scale);
        quantize_slice(chunk, min, inv, &mut q[..chunk.len()]);
        payload.put_slice(&q[..chunk.len()]);
    }
}

/// The `[min, scale]` grid for one `Int8` chunk. A chunk with no finite
/// value collapses to the zero grid (every parameter decodes to `0.0`).
fn int8_grid(chunk: &[f32]) -> (f32, f32, f32) {
    let (lo, hi) = finite_min_max(chunk).unwrap_or((0.0, 0.0));
    let (scale, inv) = quant_scale(lo, hi);
    (lo, scale, inv)
}

// ---- decode --------------------------------------------------------------

/// Decode a weight frame back into a parameter vector.
pub fn decode(frame: &[u8]) -> Result<ParamVec, WireError> {
    decode_with(frame, None)
}

/// Decode a weight frame under the codec its header names. `_base` is
/// retired and ignored (see the module docs).
pub fn decode_with(frame: &[u8], _base: Option<&ParamVec>) -> Result<ParamVec, WireError> {
    let header = parse_header(frame)?;
    let payload = &frame[HEADER_LEN..];
    let n = header.count;
    match header.codec {
        Codec::F32 => {
            let mut buf = payload;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(buf.get_f32_le());
            }
            Ok(ParamVec::from_vec(out))
        }
        Codec::Int8 => decode_int8(n, payload),
    }
}

fn decode_int8(n: usize, payload: &[u8]) -> Result<ParamVec, WireError> {
    let mut out = vec![0.0f32; n];
    let mut buf = payload;
    for chunk in out.chunks_mut(INT8_CHUNK) {
        let min = buf.get_f32_le();
        let scale = buf.get_f32_le();
        dequantize_slice(&buf[..chunk.len()], min, scale, chunk);
        buf = &buf[chunk.len()..];
    }
    Ok(ParamVec::from_vec(out))
}

/// Verify a frame's structure and integrity checksum without handing the
/// payload to the caller; returns the parameter count. This is the relay
/// hop's receive-side gate: a corrupted frame surfaces as a typed
/// [`WireError`] here, never as garbage parameters downstream. Because
/// the v3 checksum covers encoded bytes, nothing is decoded to check it.
pub fn verify_frame(frame: &[u8]) -> Result<usize, WireError> {
    parse_header(frame).map(|h| h.count)
}

struct Header {
    codec: Codec,
    count: usize,
}

/// Validate the fixed header, payload length and checksum.
fn parse_header(frame: &[u8]) -> Result<Header, WireError> {
    if frame.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut buf = frame;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let flags = buf.get_u16_le();
    let codec = Codec::from_flags(flags)?;
    let count = buf.get_u64_le() as usize;
    let stored_checksum = buf.get_u32_le();
    let expected = payload_len(codec, count);
    if buf.remaining() != expected {
        return Err(WireError::LengthMismatch {
            expected,
            actual: buf.remaining(),
        });
    }
    if frame_checksum(flags, count as u64, buf) != stored_checksum {
        return Err(WireError::BadChecksum);
    }
    Ok(Header { codec, count })
}

// ---- fused in-place transform (error feedback) ---------------------------

/// Retired workspace of [`codec_transform_in_place`]: it has no fields
/// and the transform ignores it (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct CodecScratch;

impl CodecScratch {
    /// The empty workspace.
    pub fn new() -> Self {
        Self
    }
}

/// Apply `codec` to `params` in place with error feedback, exactly as the
/// encode→decode byte path would: the value actually coded is
/// `v = params + residual`, `params` becomes the receiver-visible
/// reconstruction of `v`, and `residual` becomes `v − params` (the mass
/// the codec dropped, re-injected on the next call).
///
/// `Codec::F32` is a strict no-op — the full-precision path carries no
/// loss, so no residual ever forms and bit-identity with the pre-codec
/// engine holds trivially.
///
/// Bit-equality with `decode_with(encode_with(v, codec, None), None)` is
/// by construction (identical kernel calls in identical order) and is
/// pinned by this module's `fused_transform_matches_byte_path` test. For
/// `Int8` that order is, per `INT8_CHUNK` (256) parameters: add the residual
/// into a stack buffer, `finite_min_max` + `quant_scale` for the grid (the
/// same `int8_grid` the encoder calls), `quantize_slice`,
/// `dequantize_slice` straight into `params`, subtract for the new
/// residual. It allocates nothing.
///
/// `_base` and `_scratch` are retired and ignored (see the module docs).
///
/// # Panics
/// If `residual`'s length disagrees with `params`.
pub fn codec_transform_in_place(
    codec: Codec,
    params: &mut ParamVec,
    _base: Option<&ParamVec>,
    residual: &mut ParamVec,
    _scratch: &mut CodecScratch,
) {
    match codec {
        Codec::F32 => {}
        Codec::Int8 => {
            assert_eq!(
                residual.len(),
                params.len(),
                "codec residual length mismatch"
            );
            let mut v = [0.0f32; INT8_CHUNK];
            let mut q = [0u8; INT8_CHUNK];
            let chunks = params
                .as_mut_slice()
                .chunks_mut(INT8_CHUNK)
                .zip(residual.as_mut_slice().chunks_mut(INT8_CHUNK));
            for (xs, rs) in chunks {
                let (v, q) = (&mut v[..xs.len()], &mut q[..xs.len()]);
                for ((v, x), r) in v.iter_mut().zip(xs.iter()).zip(rs.iter()) {
                    *v = x + r;
                }
                let (min, scale, inv) = int8_grid(v);
                quantize_slice(v, min, inv, q);
                dequantize_slice(q, min, scale, xs);
                for ((r, v), x) in rs.iter_mut().zip(v.iter()).zip(xs.iter()) {
                    *r = v - x;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParamVec {
        ParamVec::from_vec(vec![1.0, -2.5, 0.0, f32::MAX, f32::MIN_POSITIVE])
    }

    fn wave(n: usize) -> ParamVec {
        ParamVec::from_vec((0..n).map(|i| ((i as f32) * 0.37).sin() * 2.0).collect())
    }

    const ALL_CODECS: [Codec; 2] = [Codec::F32, Codec::Int8];

    #[test]
    fn round_trip_preserves_exact_bits() {
        let p = sample();
        let frame = encode(&p);
        let back = decode(&frame).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn encoded_len_matches_frame_size_for_every_codec() {
        let p = wave(300);
        for codec in ALL_CODECS {
            let frame = encode_with(&p, codec, None);
            assert_eq!(frame.len(), encoded_len_with(codec, p.len()), "{codec:?}");
        }
        assert_eq!(encoded_len(0), HEADER_LEN);
        assert_eq!(encoded_len_with(Codec::F32, 7), encoded_len(7));
    }

    #[test]
    fn codec_flags_round_trip() {
        for codec in ALL_CODECS {
            assert_eq!(Codec::from_flags(codec.to_flags()), Ok(codec));
        }
        // Kind 2 (with a permille of 100 in bits 6–15) was the retired
        // `TopK` codec's tag; it names no codec now, like kinds 3–7.
        for flags in [0x7, 2 | 100 << 6] {
            assert_eq!(Codec::from_flags(flags), Err(WireError::BadCodec(flags)));
        }
    }

    #[test]
    fn retired_codec_kind_with_a_valid_checksum_is_refused() {
        // A well-formed v3 frame of the retired kind-2 `TopK` codec: 64 params,
        // k = 7 survivors — `[k, min, scale]`, a presence bitmap with 7
        // bits set, 7 quantized deltas — under a correct checksum. Only
        // the codec tag can refuse it.
        let (n, flags) = (64u64, 2 | 100 << 6);
        let mut payload = Vec::new();
        payload.put_u32_le(7);
        payload.put_f32_le(0.0);
        payload.put_f32_le(1.0);
        payload.put_slice(&[0x7F, 0, 0, 0, 0, 0, 0, 0]);
        payload.put_slice(&[1, 2, 3, 4, 5, 6, 7]);
        let mut frame = Vec::new();
        frame.put_slice(&MAGIC);
        frame.put_u16_le(VERSION);
        frame.put_u16_le(flags);
        frame.put_u64_le(n);
        frame.put_u32_le(frame_checksum(flags, n, &payload));
        frame.put_slice(&payload);
        assert_eq!(verify_frame(&frame), Err(WireError::BadCodec(flags)));
        assert_eq!(decode_with(&frame, None), Err(WireError::BadCodec(flags)));
    }

    #[test]
    fn compression_ratios_meet_targets() {
        let n = 10_000;
        let raw = encoded_len(n) as f64;
        let int8 = encoded_len_with(Codec::Int8, n) as f64;
        assert!(raw / int8 >= 3.5, "int8 ratio {}", raw / int8);
    }

    #[test]
    fn empty_vector_round_trips_under_every_codec() {
        let p = ParamVec::zeros(0);
        for codec in ALL_CODECS {
            let frame = encode_with(&p, codec, None);
            assert_eq!(decode_with(&frame, None).unwrap(), p, "{codec:?}");
        }
    }

    #[test]
    fn int8_round_trip_error_is_bounded() {
        let p = wave(700);
        let frame = encode_with(&p, Codec::Int8, None);
        let back = decode_with(&frame, None).unwrap();
        // Grid step = range/255 per chunk; range ≤ 4 here.
        for (x, y) in p.as_slice().iter().zip(back.as_slice()) {
            assert!((x - y).abs() <= 4.0 / 255.0 * 0.5 + 1e-6);
        }
    }

    #[test]
    fn truncated_frame_is_rejected() {
        assert_eq!(decode(&[1, 2, 3]), Err(WireError::Truncated));
        let frame = encode(&sample());
        assert!(matches!(
            decode(&frame[..frame.len() - 1]),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode(&sample()).to_vec();
        frame[0] = b'X';
        assert_eq!(decode(&frame), Err(WireError::BadMagic));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut frame = encode(&sample()).to_vec();
        frame[4] = 99;
        assert_eq!(decode(&frame), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn corruption_is_detected() {
        let mut frame = encode(&sample()).to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        assert_eq!(decode(&frame), Err(WireError::BadChecksum));
    }

    #[test]
    fn payload_corruption_in_every_byte_position_is_detected() {
        // Every codec, every payload byte: a single flipped bit must
        // surface as BadChecksum (payload flips never change the length).
        let p = ParamVec::from_vec((0..64).map(|i| (i as f32) * 0.37 - 9.0).collect());
        for codec in ALL_CODECS {
            let clean = encode_with(&p, codec, None).to_vec();
            for byte in HEADER_LEN..clean.len() {
                let mut frame = clean.clone();
                frame[byte] ^= 0x40;
                assert_eq!(
                    verify_frame(&frame),
                    Err(WireError::BadChecksum),
                    "{codec:?}: flip at payload byte {} went undetected",
                    byte - HEADER_LEN,
                );
            }
        }
    }

    #[test]
    fn codec_tag_corruption_is_detected() {
        // Flipping the codec tag aliases another codec's length contract;
        // either the length gate or the flags-covering checksum must fire.
        let p = wave(64);
        for codec in ALL_CODECS {
            let clean = encode_with(&p, codec, None).to_vec();
            for bit in 0..16 {
                let mut frame = clean.clone();
                let flags = u16::from_le_bytes([frame[6], frame[7]]) ^ (1 << bit);
                frame[6..8].copy_from_slice(&flags.to_le_bytes());
                assert!(
                    verify_frame(&frame).is_err(),
                    "{codec:?}: flags bit {bit} flip went undetected"
                );
            }
        }
    }

    #[test]
    fn nan_payloads_round_trip() {
        let p = ParamVec::from_vec(vec![f32::NAN]);
        let back = decode(&encode(&p)).unwrap();
        assert!(back.as_slice()[0].is_nan());
    }

    #[test]
    fn int8_saturates_non_finite_deterministically() {
        let p = ParamVec::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, 2.0]);
        let a = decode_with(&encode_with(&p, Codec::Int8, None), None).unwrap();
        let b = decode_with(&encode_with(&p, Codec::Int8, None), None).unwrap();
        assert_eq!(a, b, "non-finite handling must be deterministic");
        // Finite grid is [0, 2]; NaN and −∞ clamp to min, +∞ to max.
        assert_eq!(a.as_slice()[0], 0.0);
        assert_eq!(a.as_slice()[1], 2.0);
        assert_eq!(a.as_slice()[2], 0.0);
        assert!(a.is_finite());
    }

    #[test]
    fn fused_transform_matches_byte_path() {
        let bits = |p: &ParamVec| p.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // (n, plant non-finites and signed zeros): lengths on both sides of
        // the 8-lane vector and the 256-parameter chunk, and churn_wire's.
        let plain = [0, 1, 7, 8, 9, 255, 256, 257, 500, 3010].map(|n| (n, false));
        let cases = plain.into_iter().chain([(600, true)]);
        let codec = Codec::Int8;
        for (n, planted) in cases {
            let mut residual =
                ParamVec::from_vec((0..n).map(|i| ((i as f32) * 0.11).cos() * 0.02).collect());
            let mut scratch = CodecScratch::new();
            // Three sends against one residual, so the second and third
            // code what the ones before them dropped.
            for send in 0..3 {
                let mut params = wave(n);
                for (i, x) in params.as_mut_slice().iter_mut().enumerate() {
                    *x += ((i * 31 + 7 + send) % 17) as f32 * 0.01;
                    if planted {
                        match (i + send) % 41 {
                            0 => *x = f32::NAN,
                            1 => *x = f32::INFINITY,
                            2 => *x = f32::NEG_INFINITY,
                            3 => *x = 0.0,
                            4 => *x = -0.0,
                            _ => {}
                        }
                    }
                }
                if planted {
                    // One chunk whose only finite values are zeros of
                    // both signs: its grid minimum is a sign tie.
                    for (i, x) in params.as_mut_slice()[256..512].iter_mut().enumerate() {
                        *x = [0.0, -0.0, f32::NAN][(i + send) % 3];
                    }
                    residual.as_mut_slice()[256..512].fill(0.0);
                }
                // Byte path on v = params + residual.
                let mut v = params.clone();
                v.add_assign(&residual);
                let frame = encode_with(&v, codec, None);
                let byte_out = decode_with(&frame, None).unwrap();
                // Fused path.
                codec_transform_in_place(codec, &mut params, None, &mut residual, &mut scratch);
                let case = format!("{codec:?} n={n} planted={planted} send={send}");
                assert_eq!(bits(&params), bits(&byte_out), "fused ≠ byte path: {case}");
                // Residual is exactly the coding error of v.
                let mut want = v.clone();
                for (w, o) in want.as_mut_slice().iter_mut().zip(byte_out.as_slice()) {
                    *w -= o;
                }
                assert_eq!(bits(&residual), bits(&want), "residual: {case}");
            }
        }
    }

    #[test]
    fn f32_transform_is_a_strict_noop() {
        let mut params = wave(64);
        let before = params.clone();
        let mut residual = ParamVec::from_vec(vec![9.0; 64]);
        let mut scratch = CodecScratch::new();
        codec_transform_in_place(Codec::F32, &mut params, None, &mut residual, &mut scratch);
        assert_eq!(params, before);
        assert_eq!(residual.as_slice()[0], 9.0, "residual untouched");
    }

    #[test]
    fn error_feedback_reinjects_dropped_mass() {
        // Stream the same dense update g through an Int8 transform T times
        // with a persistent residual. Each hop rounds every coordinate to
        // its chunk's grid, but error feedback telescopes exactly:
        //   Σ out_t = T·g − residual_T
        // i.e. no mass is ever lost — what one hop rounds away, a later
        // hop carries. Without the residual every hop would repeat the
        // same rounding error, T times over.
        let n = 200;
        let hops = 40;
        let codec = Codec::Int8;
        let g = ParamVec::from_vec((0..n).map(|i| 0.5 + (i as f32) / n as f32).collect());
        let mut residual = ParamVec::zeros(n);
        let mut scratch = CodecScratch::new();
        let mut sum = ParamVec::zeros(n);
        for _ in 0..hops {
            let mut send = g.clone();
            codec_transform_in_place(codec, &mut send, None, &mut residual, &mut scratch);
            sum.add_assign(&send);
        }
        for i in 0..n {
            let conserved = sum.as_slice()[i] + residual.as_slice()[i];
            let want = hops as f32 * g.as_slice()[i];
            assert!(
                (conserved - want).abs() < 1e-2,
                "mass leaked at {i}: {conserved} vs {want}"
            );
            // The residual stays within one grid step of the chunk.
            assert!(residual.as_slice()[i].abs() <= 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn deterministic_across_repeated_encodes() {
        let p = wave(333);
        for codec in ALL_CODECS {
            let a = encode_with(&p, codec, None);
            let b = encode_with(&p, codec, None);
            assert_eq!(a, b, "{codec:?}");
        }
    }

    #[test]
    fn codec_labels_and_serde() {
        assert_eq!(Codec::F32.label(), "f32");
        assert_eq!(Codec::Int8.label(), "int8");
        for codec in ALL_CODECS {
            let v = codec.to_value();
            assert_eq!(Codec::from_value(&v), Ok(codec));
        }
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::BadVersion(7).to_string().contains('7'));
        assert!(WireError::BadCodec(7).to_string().contains("codec"));
    }
}

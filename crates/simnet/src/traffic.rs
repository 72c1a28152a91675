//! Model-transmission accounting.
//!
//! Table 1's headline metric is "number of models transmitted between
//! devices and the server, relative to one round of FedAvg". The meter
//! counts every transfer in model-equivalents:
//!
//! * a plain weight transfer counts 1.0,
//! * a SCAFFOLD transfer counts 2.0 (model + control variate, per §6.1),
//!
//! and distinguishes server uploads (the paper's costed quantity), server
//! downloads/broadcasts, and device-to-device ring transfers (free in the
//! paper's cost model, tracked here for ablations).
//!
//! Three byte ledgers run side by side: `parameters_moved` (the paper's
//! idealised payload, `×4` for f32), `wire_bytes`, charged by callers
//! with the *encoded frame size* of the transfer (header + checksum +
//! codec payload, `nn::wire::encoded_len_with` in this workspace) — the
//! honest bytes-on-wire figure churn and bandwidth studies report — and
//! `raw_bytes`, the frame size the same transfer would have cost at full
//! precision (`nn::wire::encoded_len`). The encoded/raw split is what
//! makes wire-codec savings auditable: `compression_ratio()` is their
//! quotient, and with the `F32` codec the two ledgers are identical.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time copy of the meter's counters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TrafficSnapshot {
    /// Device→server transfers, in model-equivalents.
    pub uploads: f64,
    /// Server→device transfers, in model-equivalents.
    pub downloads: f64,
    /// Device→device transfers, in model-equivalents.
    pub peer_transfers: f64,
    /// Total parameters moved (uploads + downloads + peers), for byte
    /// accounting (`×4` for f32).
    pub parameters_moved: f64,
    /// Total encoded bytes on the wire (frame headers + checksums +
    /// payloads), accumulated from the per-transfer frame sizes callers
    /// pass to the record methods.
    pub wire_bytes: f64,
    /// The subset of `wire_bytes` that was *retransmitted*: frames
    /// resent after a loss. Goodput is `wire_bytes - retransmit_bytes`.
    pub retransmit_bytes: f64,
    /// Bytes the same transfers would have cost at full precision (the
    /// `F32` frame size). `raw_bytes / wire_bytes` is the realised
    /// compression ratio; the two ledgers coincide when no lossy codec
    /// is active.
    pub raw_bytes: f64,
}

impl TrafficSnapshot {
    /// Bytes moved assuming 4-byte parameters (idealised payload only).
    pub fn bytes_moved(&self) -> f64 {
        self.parameters_moved * 4.0
    }

    /// Wire-format framing overhead: encoded bytes beyond the raw f32
    /// payload (headers, checksums).
    pub fn framing_overhead(&self) -> f64 {
        self.wire_bytes - self.bytes_moved()
    }

    /// Useful bytes delivered: total wire bytes minus retransmissions.
    pub fn goodput_bytes(&self) -> f64 {
        self.wire_bytes - self.retransmit_bytes
    }

    /// Realised wire compression: full-precision bytes over encoded
    /// bytes. `1.0` before any traffic (and exactly `1.0` under the
    /// `F32` codec, where the ledgers coincide).
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_bytes == 0.0 {
            1.0
        } else {
            self.raw_bytes / self.wire_bytes
        }
    }
}

/// Thread-safe transmission meter shared across simulated devices.
///
/// Every ledger counts whole things — models, parameters, bytes — so each
/// is an `AtomicU64` bumped with `fetch_add`: rayon-parallel device
/// updates never contend on a lock, never allocate, and the totals cannot
/// depend on the order workers arrive in. A [`TrafficMeter::snapshot`]
/// reads the fields individually: it is not a single atomic cut across
/// all seven ledgers, but every call site in the workspace records and
/// snapshots from the same thread (or after joining workers), where the
/// relaxed reads observe all prior writes.
#[derive(Debug, Default)]
pub struct TrafficMeter {
    uploads: AtomicU64,
    downloads: AtomicU64,
    peer_transfers: AtomicU64,
    parameters_moved: AtomicU64,
    wire_bytes: AtomicU64,
    retransmit_bytes: AtomicU64,
    raw_bytes: AtomicU64,
}

impl TrafficMeter {
    /// Fresh meter with zero counters.
    pub fn new() -> Self {
        TrafficMeter::default()
    }

    /// Record a device→server upload of `model_equivalents` models, each
    /// carrying `parameters` parameters encoded as `frame_bytes` on the
    /// wire (`raw_frame_bytes` is what the same frame would cost at full
    /// precision — identical under the `F32` codec).
    pub fn record_upload(
        &self,
        model_equivalents: u64,
        parameters: usize,
        frame_bytes: usize,
        raw_frame_bytes: usize,
    ) {
        self.uploads.fetch_add(model_equivalents, Ordering::Relaxed);
        self.frames(model_equivalents, parameters, frame_bytes, raw_frame_bytes);
    }

    /// Record a server→device download.
    pub fn record_download(
        &self,
        model_equivalents: u64,
        parameters: usize,
        frame_bytes: usize,
        raw_frame_bytes: usize,
    ) {
        self.downloads
            .fetch_add(model_equivalents, Ordering::Relaxed);
        self.frames(model_equivalents, parameters, frame_bytes, raw_frame_bytes);
    }

    /// Record a device→device transfer (ring hop).
    pub fn record_peer(
        &self,
        model_equivalents: u64,
        parameters: usize,
        frame_bytes: usize,
        raw_frame_bytes: usize,
    ) {
        self.peer_transfers
            .fetch_add(model_equivalents, Ordering::Relaxed);
        self.frames(model_equivalents, parameters, frame_bytes, raw_frame_bytes);
    }

    /// Record `frames` retransmitted device→device frames (resends after
    /// a loss). Retransmissions
    /// move real payload and real wire bytes but are **not** additional
    /// model-equivalents: the logical transfer was already counted by
    /// [`TrafficMeter::record_peer`], so Table 1's transmitted-models
    /// metric stays goodput-only while the byte ledgers stay honest.
    pub fn record_retransmit(
        &self,
        frames: u64,
        parameters: usize,
        frame_bytes: usize,
        raw_frame_bytes: usize,
    ) {
        self.retransmit_bytes
            .fetch_add(frames * frame_bytes as u64, Ordering::Relaxed);
        self.frames(frames, parameters, frame_bytes, raw_frame_bytes);
    }

    /// Charge `n` physical frames to the payload and byte ledgers.
    fn frames(&self, n: u64, parameters: usize, frame_bytes: usize, raw_frame_bytes: usize) {
        self.parameters_moved
            .fetch_add(n * parameters as u64, Ordering::Relaxed);
        self.wire_bytes
            .fetch_add(n * frame_bytes as u64, Ordering::Relaxed);
        self.raw_bytes
            .fetch_add(n * raw_frame_bytes as u64, Ordering::Relaxed);
    }

    /// Copy out the counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            uploads: self.uploads.load(Ordering::Relaxed) as f64,
            downloads: self.downloads.load(Ordering::Relaxed) as f64,
            peer_transfers: self.peer_transfers.load(Ordering::Relaxed) as f64,
            parameters_moved: self.parameters_moved.load(Ordering::Relaxed) as f64,
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed) as f64,
            retransmit_bytes: self.retransmit_bytes.load(Ordering::Relaxed) as f64,
            raw_bytes: self.raw_bytes.load(Ordering::Relaxed) as f64,
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.uploads.store(0, Ordering::Relaxed);
        self.downloads.store(0, Ordering::Relaxed);
        self.peer_transfers.store(0, Ordering::Relaxed);
        self.parameters_moved.store(0, Ordering::Relaxed);
        self.wire_bytes.store(0, Ordering::Relaxed);
        self.retransmit_bytes.store(0, Ordering::Relaxed);
        self.raw_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace's weight frame is 20 header bytes + 4 per parameter;
    /// tests use the same shape so the overhead arithmetic is realistic.
    fn frame(parameters: usize) -> usize {
        20 + parameters * 4
    }

    #[test]
    fn counters_accumulate() {
        let m = TrafficMeter::new();
        m.record_upload(1, 100, frame(100), frame(100));
        m.record_upload(2, 100, frame(100), frame(100));
        m.record_download(1, 100, frame(100), frame(100));
        m.record_peer(5, 100, frame(100), frame(100));
        let s = m.snapshot();
        assert_eq!(s.uploads, 3.0);
        assert_eq!(s.downloads, 1.0);
        assert_eq!(s.peer_transfers, 5.0);
        assert_eq!(s.parameters_moved, 900.0);
        assert_eq!(s.bytes_moved(), 3600.0);
        assert_eq!(s.wire_bytes, 9.0 * frame(100) as f64);
        assert_eq!(s.raw_bytes, s.wire_bytes, "no codec: ledgers coincide");
        assert_eq!(s.framing_overhead(), 9.0 * 20.0);
        assert_eq!(s.compression_ratio(), 1.0);
    }

    #[test]
    fn scaffold_double_counting() {
        let m = TrafficMeter::new();
        // SCAFFOLD moves model + control variate: 2 model-equivalents.
        m.record_upload(2, 1000, frame(1000), frame(1000));
        assert_eq!(m.snapshot().uploads, 2.0);
        assert_eq!(m.snapshot().parameters_moved, 2000.0);
        assert_eq!(m.snapshot().wire_bytes, 2.0 * frame(1000) as f64);
    }

    #[test]
    fn reset_zeroes() {
        let m = TrafficMeter::new();
        m.record_upload(1, 1, frame(1), frame(1));
        m.record_retransmit(2, 1, frame(1), frame(1));
        m.reset();
        assert_eq!(m.snapshot(), TrafficSnapshot::default());
    }

    #[test]
    fn compressed_frames_split_encoded_and_raw_ledgers() {
        let m = TrafficMeter::new();
        // A 4× codec: every transfer charges the encoded size to
        // wire_bytes and the full-precision size to raw_bytes.
        let (enc, raw) = (frame(100) / 4, frame(100));
        m.record_peer(1, 100, enc, raw);
        m.record_upload(1, 100, enc, raw);
        m.record_download(1, 100, enc, raw);
        m.record_retransmit(1, 100, enc, raw);
        let s = m.snapshot();
        assert_eq!(s.wire_bytes, 4.0 * enc as f64);
        assert_eq!(s.raw_bytes, 4.0 * raw as f64);
        assert_eq!(s.compression_ratio(), raw as f64 / enc as f64);
        // Retransmit goodput math still runs on encoded bytes.
        assert_eq!(s.retransmit_bytes, enc as f64);
        assert_eq!(s.goodput_bytes(), 3.0 * enc as f64);
    }

    #[test]
    fn retransmits_cost_bytes_but_not_model_equivalents() {
        let m = TrafficMeter::new();
        m.record_peer(1, 100, frame(100), frame(100));
        m.record_retransmit(2, 100, frame(100), frame(100));
        let s = m.snapshot();
        assert_eq!(s.peer_transfers, 1.0, "logical transfers unchanged");
        assert_eq!(s.parameters_moved, 300.0, "payload moved three times");
        assert_eq!(s.wire_bytes, 3.0 * frame(100) as f64);
        assert_eq!(s.retransmit_bytes, 2.0 * frame(100) as f64);
        assert_eq!(s.goodput_bytes(), frame(100) as f64);
        // Framing overhead covers every physical frame, retries included.
        assert_eq!(s.framing_overhead(), 3.0 * 20.0);
    }

    #[test]
    fn meter_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrafficMeter>();
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let m = Arc::new(TrafficMeter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record_peer(1, 10, frame(10), frame(10));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread panicked");
        }
        assert_eq!(m.snapshot().peer_transfers, 4000.0);
    }
}

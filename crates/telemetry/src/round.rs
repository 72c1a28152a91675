//! Per-round telemetry snapshot folded into `RunRecord`.

use serde::{Deserialize, Serialize};

/// Unified per-round observability snapshot: the traffic-ledger deltas
/// for this round plus the engine/fleet runtime counters that previously
/// had to be scraped from four different one-off APIs.
///
/// Two field classes with different guarantees:
///
/// * **deterministic** — the seven traffic deltas. Pure functions of the
///   seed, bit-identical across runs and thread counts. These are the
///   only fields [`PartialEq`] compares, so `RunRecord` equality
///   assertions (the determinism suites) keep their exact meaning.
/// * **best-effort** — cache/pack/arena/fleet observations. They depend
///   on thread scheduling and process history, and are carried for
///   diagnosis only.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RoundTelemetry {
    /// Device→server model-equivalents charged this round (deterministic).
    pub uploads: f64,
    /// Server→device model-equivalents charged this round (deterministic).
    pub downloads: f64,
    /// Device→device model-equivalents charged this round (deterministic).
    pub peer_transfers: f64,
    /// Parameters moved this round (deterministic).
    pub parameters_moved: f64,
    /// Encoded wire bytes charged this round (deterministic).
    pub wire_bytes: f64,
    /// Uncompressed (f32-frame) bytes the round's traffic *represents*
    /// (deterministic). Equals `wire_bytes` under the `F32` codec; the
    /// gap is what the wire codec saved this round.
    pub raw_bytes: f64,
    /// Retransmitted wire bytes charged this round — resends after a
    /// lost frame (deterministic; 0.0 in fault-free runs).
    pub retransmit_bytes: f64,
    /// Engine cache hits during this round (best-effort).
    pub cache_hits: u64,
    /// Engine cache misses during this round (best-effort).
    pub cache_misses: u64,
    /// Retired: always 0. It counted repacks of a per-layer weight-panel
    /// cache that no longer exists (every GEMM packs its operands into
    /// the thread-local pool). The field stays because the `ledger`
    /// benchmark package reads it by name (`core.engine.weight_packs`)
    /// and a benchmark may not change in the same PR as the code it
    /// measures; a ledger-only PR drops the metric and this field.
    pub weight_packs: u64,
    /// Arena high-water bytes of this thread's cached model
    /// (best-effort).
    pub arena_high_water_bytes: u64,
    /// Devices with realised fleet trajectories after this round
    /// (best-effort).
    pub fleet_realised_devices: u64,
    /// Bytes of realised fleet trajectory state after this round
    /// (best-effort).
    pub fleet_realised_state_bytes: u64,
    /// Cumulative fleet shard queries after this round (best-effort).
    pub fleet_shard_touches: u64,
    /// Cumulative data shards realised (lazy data plane) after this
    /// round (best-effort; 0 in dense mode).
    pub data_shards_realised: u64,
    /// Cumulative shard-cache hits after this round (best-effort; 0 in
    /// dense mode).
    pub data_shard_cache_hits: u64,
    /// Bytes of cache-resident realised shard data after this round
    /// (best-effort; 0 in dense mode).
    pub data_resident_shard_bytes: u64,
}

impl PartialEq for RoundTelemetry {
    /// Deterministic fields only — see the type docs.
    fn eq(&self, other: &Self) -> bool {
        self.uploads == other.uploads
            && self.downloads == other.downloads
            && self.peer_transfers == other.peer_transfers
            && self.parameters_moved == other.parameters_moved
            && self.wire_bytes == other.wire_bytes
            && self.raw_bytes == other.raw_bytes
            && self.retransmit_bytes == other.retransmit_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_best_effort_fields() {
        let a = RoundTelemetry {
            uploads: 5.0,
            wire_bytes: 1000.0,
            cache_hits: 10,
            arena_high_water_bytes: 4096,
            ..RoundTelemetry::default()
        };
        let b = RoundTelemetry {
            cache_hits: 999,
            arena_high_water_bytes: 0,
            ..a
        };
        assert_eq!(a, b);
        let c = RoundTelemetry {
            wire_bytes: 1001.0,
            ..a
        };
        assert_ne!(a, c);
        let d = RoundTelemetry {
            retransmit_bytes: 40.0,
            ..a
        };
        assert_ne!(a, d);
        let e = RoundTelemetry {
            raw_bytes: 4000.0,
            ..a
        };
        assert_ne!(a, e, "raw_bytes is a deterministic delta");
    }

    #[test]
    fn serde_round_trip() {
        let t = RoundTelemetry {
            uploads: 3.0,
            downloads: 2.0,
            peer_transfers: 7.0,
            parameters_moved: 1234.0,
            wire_bytes: 5678.0,
            raw_bytes: 6789.0,
            retransmit_bytes: 90.0,
            cache_hits: 4,
            cache_misses: 1,
            weight_packs: 9,
            arena_high_water_bytes: 8192,
            fleet_realised_devices: 16,
            fleet_realised_state_bytes: 2048,
            fleet_shard_touches: 64,
            data_shards_realised: 32,
            data_shard_cache_hits: 128,
            data_resident_shard_bytes: 65536,
        };
        let v = t.to_value();
        let back = RoundTelemetry::from_value(&v).expect("round trip");
        assert_eq!(t, back);
        assert_eq!(back.cache_hits, 4);
        assert_eq!(back.arena_high_water_bytes, 8192);
        assert_eq!(back.data_shards_realised, 32);
        assert_eq!(back.data_resident_shard_bytes, 65536);
    }
}

//! Round-lifecycle spans and the `TelemetrySink` handle.
//!
//! Every span carries **two clocks**:
//!
//! * **virtual time** (`vt_start`/`vt_end`, simulated seconds) — a pure
//!   function of the experiment seed, bit-identical across runs and
//!   thread counts; this is the clock the determinism contract covers;
//! * **wall-clock time** (`wall_start_ns`/`wall_end_ns`, nanoseconds
//!   since the sink's epoch) — real elapsed time for profiling, *excluded*
//!   from every determinism comparison.
//!
//! The sink is a cheap cloneable handle. Disabled (the default for every
//! `FlEnv`) it is a `None` and each call is an inlined branch on it — no
//! clock reads, no atomics, no allocation, so the counting-allocator
//! harness still certifies steady-state rounds as zero-alloc. Enabled, it
//! appends `Copy` events into a buffer whose capacity was reserved up
//! front (events beyond capacity are counted, not stored) and bumps one
//! of a fixed table of counters, so even the enabled hot path never
//! allocates.
//!
//! Each counter is a monotone `u64` bumped with a relaxed `fetch_add`, so
//! its total is the same whatever order parallel ring lanes arrive in. The
//! counters are pure functions of the simulated workload and feed the
//! sink's fingerprint. Host-dependent runtime observations (cache
//! occupancy, arena high-water, fleet and shard residency) are not
//! counters: they are fields of the per-round `RoundTelemetry` on the
//! `RunRecord`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sentinel for span fields that do not apply (no lane, no device).
pub const NO_ID: u32 = u32::MAX;

/// Lifecycle phase a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// One full federated round (clustering through evaluation).
    Round = 0,
    /// Latency-profile clustering of the sampled cohort.
    Clustering = 1,
    /// One class ring's interval simulation (a lane of the round).
    RingInterval = 2,
    /// A device→device model relay inside a ring.
    RelayHop = 3,
    /// One device's local training step inside a ring.
    LocalTrain = 4,
    /// Server-side aggregation of surviving ring models.
    Aggregation = 5,
    /// Centralised test-set evaluation of the aggregated model.
    Evaluation = 6,
    /// One retransmission attempt of a relay hop after a lost frame.
    /// Absent in fault-free runs — the
    /// delivered attempt is covered by [`Phase::RelayHop`].
    RelayAttempt = 7,
}

impl Phase {
    /// Number of phases (array-index bound).
    pub const COUNT: usize = 8;

    /// All phases, in discriminant order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Round,
        Phase::Clustering,
        Phase::RingInterval,
        Phase::RelayHop,
        Phase::LocalTrain,
        Phase::Aggregation,
        Phase::Evaluation,
        Phase::RelayAttempt,
    ];

    /// Stable snake_case name (used as trace-event name and metric key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Round => "round",
            Phase::Clustering => "clustering",
            Phase::RingInterval => "ring_interval",
            Phase::RelayHop => "relay_hop",
            Phase::LocalTrain => "local_train",
            Phase::Aggregation => "aggregation",
            Phase::Evaluation => "evaluation",
            Phase::RelayAttempt => "relay_attempt",
        }
    }
}

/// One recorded span. `Copy` so the hot path moves it by value into the
/// pre-reserved buffer without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Lifecycle phase.
    pub phase: Phase,
    /// Federated round index.
    pub round: u32,
    /// Sub-round lane (class-ring index), or [`NO_ID`].
    pub lane: u32,
    /// Device id, or [`NO_ID`] for round/lane-level spans.
    pub device: u32,
    /// Disambiguator within `(round, lane, device)` — step or hop index.
    pub seq: u32,
    /// Virtual start time, simulated seconds (deterministic).
    pub vt_start: f64,
    /// Virtual end time, simulated seconds (deterministic).
    pub vt_end: f64,
    /// Wall-clock start, ns since sink epoch (non-deterministic).
    pub wall_start_ns: u64,
    /// Wall-clock end, ns since sink epoch (non-deterministic).
    pub wall_end_ns: u64,
}

impl SpanEvent {
    /// The event with wall-clock fields zeroed — the shape every
    /// determinism comparison uses.
    pub fn masked(mut self) -> SpanEvent {
        self.wall_start_ns = 0;
        self.wall_end_ns = 0;
        self
    }
}

/// Identity of a span below the round level.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    /// Sub-round lane (class-ring index), or [`NO_ID`].
    pub lane: u32,
    /// Device id, or [`NO_ID`].
    pub device: u32,
    /// Disambiguator within `(round, lane, device)`.
    pub seq: u32,
}

impl SpanCtx {
    /// Round-level span: no lane, no device.
    pub const ROOT: SpanCtx = SpanCtx {
        lane: NO_ID,
        device: NO_ID,
        seq: 0,
    };

    /// Lane-level span (one class ring).
    pub fn lane(lane: u32) -> SpanCtx {
        SpanCtx {
            lane,
            device: NO_ID,
            seq: 0,
        }
    }

    /// Device-level span inside a lane.
    pub fn device(lane: u32, device: u32, seq: u32) -> SpanCtx {
        SpanCtx { lane, device, seq }
    }
}

/// Wall-clock anchor returned by [`TelemetrySink::wall_start`]; `None`
/// when the sink is disabled so no clock is ever read.
#[derive(Debug, Clone, Copy)]
pub struct WallStart(Option<Instant>);

#[derive(Debug)]
struct EventLog {
    events: Vec<SpanEvent>,
    capacity: usize,
}

/// Number of counters a sink keeps.
const COUNTERS: usize = 14;

/// Counter names, by slot. The first [`Phase::COUNT`] slots count the
/// spans recorded per phase, indexed by the `Phase` discriminant.
const COUNTER_NAMES: [&str; COUNTERS] = [
    "spans.round",
    "spans.clustering",
    "spans.ring_interval",
    "spans.relay_hop",
    "spans.local_train",
    "spans.aggregation",
    "spans.evaluation",
    "spans.relay_attempt",
    "spans.dropped",
    "transport.retries",
    "transport.giveups",
    "transport.rebuilds",
    "wire.codec.encoded_bytes",
    "wire.codec.raw_bytes",
];

/// Slot of the spans dropped because the event buffer was full.
const DROPPED: usize = Phase::COUNT;
// Slots of `TelemetrySink::add_transport`'s counters.
const RETRIES: usize = DROPPED + 1;
const GIVEUPS: usize = RETRIES + 1;
const REBUILDS: usize = GIVEUPS + 1;
// Slots of `TelemetrySink::add_codec_bytes`'s counters.
const ENCODED_BYTES: usize = REBUILDS + 1;
const RAW_BYTES: usize = ENCODED_BYTES + 1;

/// Point-in-time copy of every counter of a sink.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in a fixed order: the eight
    /// `spans.<phase>` counts in `Phase` order, `spans.dropped`,
    /// `transport.{retries,giveups,rebuilds}` and
    /// `wire.codec.{encoded,raw}_bytes`.
    pub counters: Vec<(&'static str, u64)>,
}

/// Backing store behind an enabled [`TelemetrySink`].
#[derive(Debug)]
pub struct Telemetry {
    epoch: Instant,
    log: Mutex<EventLog>,
    counters: [AtomicU64; COUNTERS],
}

impl Telemetry {
    fn new(capacity: usize) -> Self {
        Telemetry {
            epoch: Instant::now(),
            log: Mutex::new(EventLog {
                events: Vec::with_capacity(capacity),
                capacity,
            }),
            counters: [const { AtomicU64::new(0) }; COUNTERS],
        }
    }

    /// Add `n` to the counter in `slot` (relaxed; no lock, no allocation).
    #[inline]
    fn add(&self, slot: usize, n: u64) {
        self.counters[slot].fetch_add(n, Ordering::Relaxed);
    }

    fn counter_values(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_NAMES
            .iter()
            .zip(&self.counters)
            .map(|(&name, value)| (name, value.load(Ordering::Relaxed)))
    }

    /// Copy of every recorded span, in record order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.log
            .lock()
            .expect("telemetry log poisoned")
            .events
            .clone()
    }

    /// Spans dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.counters[DROPPED].load(Ordering::Relaxed)
    }

    /// Snapshot of every counter.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counter_values().collect(),
        }
    }

    /// The recorded spans in their canonical deterministic order —
    /// sorted by `(round, phase, lane, device, seq, vt bits)` with
    /// wall-clock fields zeroed. Ring lanes run on rayon workers, so raw
    /// record order is scheduler-dependent; this ordering is not.
    pub fn deterministic_stream(&self) -> Vec<SpanEvent> {
        let mut evs: Vec<SpanEvent> = self.events().into_iter().map(SpanEvent::masked).collect();
        evs.sort_by_key(|e| {
            (
                e.round,
                e.phase as u8,
                e.lane,
                e.device,
                e.seq,
                e.vt_start.to_bits(),
                e.vt_end.to_bits(),
            )
        });
        evs
    }

    /// FNV-1a fingerprint of the deterministic span stream plus the
    /// counters' names and values (wall clock excluded).
    /// Equal fingerprints across two runs mean the virtual-time telemetry
    /// is bit-identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for e in self.deterministic_stream() {
            h.byte(e.phase as u8);
            h.u64(e.round as u64);
            h.u64(e.lane as u64);
            h.u64(e.device as u64);
            h.u64(e.seq as u64);
            h.u64(e.vt_start.to_bits());
            h.u64(e.vt_end.to_bits());
        }
        let mut counters = Fnv::new();
        for (name, value) in self.counter_values() {
            counters.str(name);
            counters.u64(value);
        }
        h.u64(counters.finish());
        h.finish()
    }

    fn record(&self, ev: SpanEvent) {
        self.add(ev.phase as usize, 1);
        let mut log = self.log.lock().expect("telemetry log poisoned");
        if log.events.len() < log.capacity {
            log.events.push(ev);
        } else {
            drop(log);
            self.add(DROPPED, 1);
        }
    }
}

/// Minimal FNV-1a accumulator behind [`Telemetry::fingerprint`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Cheap cloneable instrumentation handle threaded through `FlEnv`.
///
/// [`TelemetrySink::disabled`] is the default everywhere; every method on
/// a disabled sink reduces to a branch on `None`.
#[derive(Clone, Default)]
pub struct TelemetrySink(Option<Arc<Telemetry>>);

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("TelemetrySink(disabled)"),
            Some(t) => write!(
                f,
                "TelemetrySink(enabled, {} events)",
                t.log.lock().expect("telemetry log poisoned").events.len()
            ),
        }
    }
}

impl TelemetrySink {
    /// The no-op sink: records nothing, allocates nothing.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink(None)
    }

    /// An enabled sink whose event buffer holds up to `capacity` spans
    /// (allocated here, never grown; overflow is counted and dropped).
    pub fn enabled(capacity: usize) -> TelemetrySink {
        TelemetrySink(Some(Arc::new(Telemetry::new(capacity))))
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The backing store, when enabled (exporters and tests read it).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.0.as_deref()
    }

    /// Anchor a wall-clock measurement; reads the clock only when
    /// enabled.
    #[inline]
    pub fn wall_start(&self) -> WallStart {
        WallStart(self.0.as_ref().map(|_| Instant::now()))
    }

    /// Record a span covering virtual `[vt.0, vt.1]` whose wall-clock
    /// extent runs from `wall` (from [`TelemetrySink::wall_start`]) to
    /// now. No-op on a disabled sink.
    #[inline]
    pub fn span(&self, phase: Phase, round: u32, ctx: SpanCtx, vt: (f64, f64), wall: WallStart) {
        if let Some(t) = &self.0 {
            let (wall_start_ns, wall_end_ns) = match wall.0 {
                Some(start) => (
                    start.saturating_duration_since(t.epoch).as_nanos() as u64,
                    t.epoch.elapsed().as_nanos() as u64,
                ),
                None => (0, 0),
            };
            t.record(SpanEvent {
                phase,
                round,
                lane: ctx.lane,
                device: ctx.device,
                seq: ctx.seq,
                vt_start: vt.0,
                vt_end: vt.1,
                wall_start_ns,
                wall_end_ns,
            });
        }
    }

    /// Add a round's frame-loss observations to the cumulative
    /// `transport.*` counters: `retries` (retransmission attempts after a
    /// lost frame), `giveups` (transfers abandoned after the retry budget
    /// was exhausted) and `rebuilds` (rings proactively rebuilt around
    /// suspect devices). All are increments, deterministic because frame
    /// losses are drawn from the seed, and recorded as plain counters
    /// covered by the metrics fingerprint. No-op on a disabled sink.
    pub fn add_transport(&self, retries: u64, giveups: u64, rebuilds: u64) {
        if let Some(t) = &self.0 {
            t.add(RETRIES, retries);
            t.add(GIVEUPS, giveups);
            t.add(REBUILDS, rebuilds);
        }
    }

    /// Add a round's wire-codec byte deltas to the cumulative
    /// `wire.codec.{encoded,raw}_bytes` counters: what actually crossed
    /// the wire versus the f32 frames that traffic represents. Equal
    /// under the lossless `F32` codec; the gap is the codec's saving.
    /// No-op on a disabled sink.
    pub fn add_codec_bytes(&self, encoded: u64, raw: u64) {
        if let Some(t) = &self.0 {
            t.add(ENCODED_BYTES, encoded);
            t.add(RAW_BYTES, raw);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.telemetry().is_none());
        let w = sink.wall_start();
        sink.span(Phase::Round, 0, SpanCtx::ROOT, (0.0, 1.0), w);
    }

    #[test]
    fn spans_are_recorded_and_counted() {
        let sink = TelemetrySink::enabled(16);
        let w = sink.wall_start();
        sink.span(
            Phase::LocalTrain,
            3,
            SpanCtx::device(1, 42, 0),
            (1.0, 3.5),
            w,
        );
        sink.span(Phase::Round, 3, SpanCtx::ROOT, (0.0, 9.0), w);
        let t = sink.telemetry().expect("enabled");
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].phase, Phase::LocalTrain);
        assert_eq!(evs[0].device, 42);
        assert_eq!(evs[0].vt_end, 3.5);
        assert!(evs[0].wall_end_ns >= evs[0].wall_start_ns);
        let m = t.metrics();
        assert!(m.counters.contains(&("spans.local_train", 1)));
        assert!(m.counters.contains(&("spans.round", 1)));
        // A fresh sink carries every counter, in this order: the JSONL
        // `metrics` line and the fingerprint both depend on it.
        let fresh = TelemetrySink::enabled(1);
        let names: Vec<&str> = fresh
            .telemetry()
            .expect("enabled")
            .metrics()
            .counters
            .iter()
            .map(|&(name, _)| name)
            .collect();
        assert_eq!(
            names,
            [
                "spans.round",
                "spans.clustering",
                "spans.ring_interval",
                "spans.relay_hop",
                "spans.local_train",
                "spans.aggregation",
                "spans.evaluation",
                "spans.relay_attempt",
                "spans.dropped",
                "transport.retries",
                "transport.giveups",
                "transport.rebuilds",
                "wire.codec.encoded_bytes",
                "wire.codec.raw_bytes",
            ]
        );
    }

    #[test]
    fn overflow_drops_and_counts() {
        let sink = TelemetrySink::enabled(1);
        let w = sink.wall_start();
        sink.span(Phase::Round, 0, SpanCtx::ROOT, (0.0, 1.0), w);
        sink.span(Phase::Round, 1, SpanCtx::ROOT, (1.0, 2.0), w);
        let t = sink.telemetry().expect("enabled");
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.dropped(), 1);
        // The dropped span still counted toward its phase metric.
        assert!(t.metrics().counters.contains(&("spans.round", 2)));
        assert!(t
            .metrics()
            .counters
            .contains(&("spans.dropped", t.dropped())));
    }

    #[test]
    fn deterministic_stream_masks_wall_and_sorts() {
        let a = TelemetrySink::enabled(8);
        let b = TelemetrySink::enabled(8);
        // Record in different orders; wall clocks necessarily differ.
        for (lane, vt) in [(1u32, (2.0, 3.0)), (0u32, (0.0, 1.0))] {
            let w = a.wall_start();
            a.span(Phase::RingInterval, 0, SpanCtx::lane(lane), vt, w);
        }
        for (lane, vt) in [(0u32, (0.0, 1.0)), (1u32, (2.0, 3.0))] {
            let w = b.wall_start();
            b.span(Phase::RingInterval, 0, SpanCtx::lane(lane), vt, w);
        }
        let (ta, tb) = (a.telemetry().unwrap(), b.telemetry().unwrap());
        assert_eq!(ta.deterministic_stream(), tb.deterministic_stream());
        assert_eq!(ta.fingerprint(), tb.fingerprint());
        assert!(ta.deterministic_stream().iter().all(|e| e.wall_end_ns == 0));
    }

    #[test]
    fn transport_counters_accumulate() {
        let sink = TelemetrySink::enabled(4);
        sink.add_transport(3, 0, 1);
        sink.add_transport(1, 0, 0);
        let m = sink.telemetry().expect("enabled").metrics();
        assert!(m.counters.contains(&("transport.retries", 4)));
        assert!(m.counters.contains(&("transport.giveups", 0)));
        assert!(m.counters.contains(&("transport.rebuilds", 1)));
        // Disabled sinks swallow the counts without touching anything.
        TelemetrySink::disabled().add_transport(1, 1, 1);
    }

    #[test]
    fn codec_byte_counters_accumulate() {
        let sink = TelemetrySink::enabled(4);
        sink.add_codec_bytes(1_000, 4_000);
        sink.add_codec_bytes(500, 2_000);
        let m = sink.telemetry().expect("enabled").metrics();
        assert!(m.counters.contains(&("wire.codec.encoded_bytes", 1_500)));
        assert!(m.counters.contains(&("wire.codec.raw_bytes", 6_000)));
        TelemetrySink::disabled().add_codec_bytes(1, 1);
    }

    #[test]
    fn concurrent_transport_adds_sum_exactly() {
        let sink = TelemetrySink::enabled(1);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..1000 {
                        sink.add_transport(1, 2, 3);
                    }
                });
            }
        });
        let m = sink.telemetry().expect("enabled").metrics();
        assert!(m.counters.contains(&("transport.retries", 4_000)));
        assert!(m.counters.contains(&("transport.giveups", 8_000)));
        assert!(m.counters.contains(&("transport.rebuilds", 12_000)));
    }

    #[test]
    fn every_counter_moves_the_fingerprint() {
        let sink = TelemetrySink::enabled(1);
        let t = sink.telemetry().expect("enabled");
        for (slot, name) in COUNTER_NAMES.iter().enumerate() {
            let before = t.fingerprint();
            t.add(slot, 1);
            assert_ne!(t.fingerprint(), before, "{name}");
        }
    }

    #[test]
    fn sink_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TelemetrySink>();
    }
}

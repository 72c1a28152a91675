//! Workspace-wide instrumentation: lock-free metrics, round-lifecycle
//! spans on a deterministic virtual clock, and Perfetto-loadable trace
//! export.
//!
//! The workspace's observability was a patchwork of one-off counters
//! (traffic meter, engine cache stats, fleet shard touches, panel pack
//! counts, arena high-water marks), none correlated in time. This crate
//! unifies them behind three pieces:
//!
//! * [`MetricsRegistry`] — pre-registered counters on plain atomics;
//!   all storage is allocated at registration, so the hot path never
//!   allocates and never locks.
//! * [`TelemetrySink`] — a cloneable handle carried by `FlEnv`. Disabled
//!   (the default) it is a `None` and every call is an inlined branch:
//!   the steady-state round stays **zero-alloc**, certified by the
//!   counting-allocator harness. Enabled, it records [`SpanEvent`]s
//!   stamped with both **virtual time** (pure function of the seed,
//!   covered by the determinism contract) and **wall-clock time**
//!   (profiling only, masked from every determinism comparison).
//! * exporters — [`chrome_trace_string`] (open in
//!   <https://ui.perfetto.dev>), [`jsonl_string`], and the per-round
//!   [`RoundTelemetry`] snapshot folded into run records.

mod export;
mod registry;
mod round;
mod span;

pub use export::{
    chrome_trace_string, export_trace, jsonl_string, validate_chrome_trace, TraceSummary,
    PID_VIRTUAL, PID_WALL,
};
pub use registry::{CounterId, MetricsRegistry, MetricsSnapshot};
pub use round::RoundTelemetry;
pub use span::{Phase, SpanCtx, SpanEvent, Telemetry, TelemetrySink, WallStart, NO_ID};

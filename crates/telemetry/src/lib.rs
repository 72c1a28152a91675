//! Workspace-wide instrumentation: lock-free metrics, round-lifecycle
//! spans on a deterministic virtual clock, and Perfetto-loadable trace
//! export.
//!
//! The workspace's observability was a patchwork of one-off counters
//! (traffic meter, engine cache stats, fleet shard touches, panel pack
//! counts, arena high-water marks), none correlated in time. This crate
//! unifies them behind two pieces:
//!
//! * [`TelemetrySink`] — a cloneable handle carried by `FlEnv`. Disabled
//!   (the default) it is a `None` and every call is an inlined branch:
//!   the steady-state round stays **zero-alloc**, certified by the
//!   counting-allocator harness. Enabled, it records [`SpanEvent`]s
//!   stamped with both **virtual time** (pure function of the seed,
//!   covered by the determinism contract) and **wall-clock time**
//!   (profiling only, masked from every determinism comparison), and
//!   bumps a fixed table of fourteen counters on plain atomics (spans per
//!   phase, dropped spans, transport retries/give-ups/rebuilds, coded and
//!   raw wire bytes), read back by name through [`Telemetry::metrics`].
//! * exporters — [`chrome_trace_string`] (open in
//!   <https://ui.perfetto.dev>), [`jsonl_string`], and the per-round
//!   [`RoundTelemetry`] snapshot folded into run records.

mod export;
mod round;
mod span;

pub use export::{
    chrome_trace_string, export_trace, jsonl_string, validate_chrome_trace, TraceSummary,
};
pub use round::RoundTelemetry;
pub use span::{
    MetricsSnapshot, Phase, SpanCtx, SpanEvent, Telemetry, TelemetrySink, WallStart, NO_ID,
};

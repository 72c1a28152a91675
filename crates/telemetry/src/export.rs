//! Trace exporters and the schema validator the CI smoke step uses.
//!
//! Two formats come out of one [`Telemetry`] store:
//!
//! * **Chrome trace-event JSON** ([`chrome_trace_string`]) — loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Two
//!   process tracks: pid 1 carries the spans on the **virtual clock**
//!   (deterministic simulated time), pid 2 the same spans on the **wall
//!   clock**. Within a track, tid 0 is the round-level lane and tid
//!   `lane + 1` is class ring `lane`.
//! * **JSONL** ([`jsonl_string`]) — one span per line in canonical
//!   deterministic order (wall fields included, last), then one
//!   `metrics` line with every counter; grep/jq-friendly.

use crate::span::{Phase, SpanEvent, Telemetry, NO_ID};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Virtual-time pid in the Chrome trace.
const PID_VIRTUAL: u64 = 1;
/// Wall-clock pid in the Chrome trace.
const PID_WALL: u64 = 2;

fn tid(lane: u32) -> u64 {
    if lane == NO_ID {
        0
    } else {
        lane as u64 + 1
    }
}

/// [`NO_ID`] renders as `-1` in exported JSON.
fn id_i64(v: u32) -> i64 {
    if v == NO_ID {
        -1
    } else {
        v as i64
    }
}

fn push_complete_event(out: &mut String, ev: &SpanEvent, pid: u64, ts_us: f64, dur_us: f64) {
    let _ = write!(
        out,
        concat!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},",
            "\"pid\":{},\"tid\":{},\"args\":{{\"round\":{},\"lane\":{},",
            "\"device\":{},\"seq\":{}}}}}"
        ),
        ev.phase.name(),
        ts_us,
        dur_us,
        pid,
        tid(ev.lane),
        ev.round,
        id_i64(ev.lane),
        id_i64(ev.device),
        ev.seq,
    );
}

/// Render the full Chrome trace-event JSON document.
pub fn chrome_trace_string(t: &Telemetry) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let _ = write!(
        out,
        concat!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,",
            "\"args\":{{\"name\":\"virtual time (simulated seconds)\"}}}},",
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,",
            "\"args\":{{\"name\":\"wall clock\"}}}}"
        ),
        PID_VIRTUAL, PID_WALL
    );
    // Virtual track in canonical deterministic order: 1 virtual second
    // maps to 1 trace second (ts is microseconds).
    for ev in t.deterministic_stream() {
        out.push(',');
        let ts = ev.vt_start * 1e6;
        let dur = (ev.vt_end - ev.vt_start) * 1e6;
        push_complete_event(&mut out, &ev, PID_VIRTUAL, ts, dur);
    }
    // Wall track in wall order.
    let mut wall: Vec<SpanEvent> = t.events();
    wall.sort_by_key(|e| e.wall_start_ns);
    for ev in wall {
        out.push(',');
        let ts = ev.wall_start_ns as f64 / 1e3;
        let dur = ev.wall_end_ns.saturating_sub(ev.wall_start_ns) as f64 / 1e3;
        push_complete_event(&mut out, &ev, PID_WALL, ts, dur);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Render the JSONL structured event log.
pub fn jsonl_string(t: &Telemetry) -> String {
    let mut out = String::new();
    for ev in t.deterministic_stream() {
        let _ = writeln!(
            out,
            concat!(
                "{{\"type\":\"span\",\"phase\":\"{}\",\"round\":{},\"lane\":{},",
                "\"device\":{},\"seq\":{},\"vt_start\":{},\"vt_end\":{}}}"
            ),
            ev.phase.name(),
            ev.round,
            id_i64(ev.lane),
            id_i64(ev.device),
            ev.seq,
            ev.vt_start,
            ev.vt_end,
        );
    }
    let m = t.metrics();
    out.push_str("{\"type\":\"metrics\",\"counters\":{");
    for (i, (name, v)) in m.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("}}\n");
    out
}

/// Write the Chrome trace to `path` (and, alongside it, a `.jsonl` event
/// log with the same stem). Returns the jsonl path.
pub fn export_trace(t: &Telemetry, path: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
    std::fs::write(path, chrome_trace_string(t))?;
    let jsonl = path.with_extension("jsonl");
    std::fs::write(&jsonl, jsonl_string(t))?;
    Ok(jsonl)
}

/// What [`validate_chrome_trace`] learned about a trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total entries in `traceEvents` (metadata included).
    pub total_events: usize,
    /// Complete (`ph:"X"`) span events on the virtual-time track.
    pub virtual_spans: usize,
    /// Phase names seen per round on the virtual-time track.
    pub rounds: BTreeMap<u64, BTreeSet<String>>,
}

impl TraceSummary {
    /// True when every round's span set contains all of `phases`.
    pub fn every_round_covers(&self, phases: &[Phase]) -> bool {
        !self.rounds.is_empty()
            && self
                .rounds
                .values()
                .all(|seen| phases.iter().all(|p| seen.contains(p.name())))
    }
}

fn num_field(ev: &serde::Value, key: &str) -> Result<f64, String> {
    match ev.field(key).map_err(|e| e.to_string())? {
        serde::Value::U64(x) => Ok(*x as f64),
        serde::Value::I64(x) => Ok(*x as f64),
        serde::Value::F64(x) => Ok(*x),
        other => Err(format!("`{key}` is not a number: {other:?}")),
    }
}

fn str_field<'v>(ev: &'v serde::Value, key: &str) -> Result<&'v str, String> {
    match ev.field(key).map_err(|e| e.to_string())? {
        serde::Value::Str(s) => Ok(s),
        other => Err(format!("`{key}` is not a string: {other:?}")),
    }
}

/// Schema-check a Chrome trace-event document: well-formed JSON, a
/// non-empty `traceEvents` array, every entry a valid metadata or
/// complete event, and every complete event carrying finite timestamps
/// and a `round` arg. Returns per-round phase coverage for the
/// acceptance assertions.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let doc: serde::Value =
        serde_json::from_str(json).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = match doc.field("traceEvents").map_err(|e| e.to_string())? {
        serde::Value::Seq(evs) => evs,
        other => return Err(format!("`traceEvents` is not an array: {other:?}")),
    };
    if events.is_empty() {
        return Err("`traceEvents` is empty".to_string());
    }
    let mut summary = TraceSummary {
        total_events: events.len(),
        virtual_spans: 0,
        rounds: BTreeMap::new(),
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = str_field(ev, "ph").map_err(|e| format!("event {i}: {e}"))?;
        let name = str_field(ev, "name").map_err(|e| format!("event {i}: {e}"))?;
        match ph {
            "M" => {}
            "X" => {
                let ts = num_field(ev, "ts").map_err(|e| format!("event {i}: {e}"))?;
                let dur = num_field(ev, "dur").map_err(|e| format!("event {i}: {e}"))?;
                if !ts.is_finite() || !dur.is_finite() || ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: non-finite or negative ts/dur"));
                }
                let pid = num_field(ev, "pid").map_err(|e| format!("event {i}: {e}"))?;
                num_field(ev, "tid").map_err(|e| format!("event {i}: {e}"))?;
                let round = num_field(ev.field("args").map_err(|e| e.to_string())?, "round")
                    .map_err(|e| format!("event {i}: args: {e}"))?;
                if pid == PID_VIRTUAL as f64 {
                    summary.virtual_spans += 1;
                    summary
                        .rounds
                        .entry(round as u64)
                        .or_default()
                        .insert(name.to_string());
                }
            }
            other => return Err(format!("event {i}: unknown phase type `{other}`")),
        }
    }
    if summary.virtual_spans == 0 {
        return Err("no span events on the virtual-time track".to_string());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanCtx, TelemetrySink};

    fn sample_sink() -> TelemetrySink {
        let sink = TelemetrySink::enabled(64);
        for round in 0..2u32 {
            let base = round as f64 * 10.0;
            let w = sink.wall_start();
            sink.span(Phase::Clustering, round, SpanCtx::ROOT, (base, base), w);
            let w = sink.wall_start();
            sink.span(
                Phase::RingInterval,
                round,
                SpanCtx::lane(0),
                (base, base + 8.0),
                w,
            );
            let w = sink.wall_start();
            sink.span(
                Phase::LocalTrain,
                round,
                SpanCtx::device(0, 3, 0),
                (base, base + 2.0),
                w,
            );
            let w = sink.wall_start();
            sink.span(
                Phase::Aggregation,
                round,
                SpanCtx::ROOT,
                (base + 8.0, base + 8.0),
                w,
            );
            let w = sink.wall_start();
            sink.span(
                Phase::Evaluation,
                round,
                SpanCtx::ROOT,
                (base + 8.0, base + 8.0),
                w,
            );
            let w = sink.wall_start();
            sink.span(Phase::Round, round, SpanCtx::ROOT, (base, base + 8.0), w);
        }
        sink
    }

    #[test]
    fn chrome_trace_validates_and_covers_rounds() {
        let sink = sample_sink();
        let json = chrome_trace_string(sink.telemetry().unwrap());
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.rounds.len(), 2);
        assert_eq!(summary.virtual_spans, 12);
        assert!(summary.every_round_covers(&[
            Phase::Clustering,
            Phase::RingInterval,
            Phase::LocalTrain,
            Phase::Aggregation,
            Phase::Evaluation,
        ]));
        assert!(!summary.every_round_covers(&[Phase::RelayHop]));
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let sink = sample_sink();
        let text = jsonl_string(sink.telemetry().unwrap());
        let lines: Vec<&str> = text.lines().collect();
        // 12 spans + 1 metrics line.
        assert_eq!(lines.len(), 13);
        for line in &lines {
            let v: serde::Value = serde_json::from_str(line).expect("line parses");
            assert!(v.field("type").is_ok());
        }
        assert!(lines[12].contains("\"spans.round\":2"));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\"}]}").is_err()
        );
    }

    #[test]
    fn sentinel_ids_serialize_as_minus_one() {
        let sink = TelemetrySink::enabled(4);
        let w = sink.wall_start();
        sink.span(Phase::Round, 0, SpanCtx::ROOT, (0.0, 1.0), w);
        let json = chrome_trace_string(sink.telemetry().unwrap());
        assert!(json.contains("\"lane\":-1,\"device\":-1"));
        validate_chrome_trace(&json).expect("valid");
    }
}

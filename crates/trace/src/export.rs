//! Trace exporters: newline-delimited JSON for ad-hoc tooling and the
//! Chrome `trace_event` JSON flavor that Perfetto and `chrome://tracing`
//! load directly.

use crate::event::{TraceEvent, TraceEventKind};
use serde::{json, Value};

/// Renders one event per line as JSON (JSONL). Line order follows the input
/// slice; pass the output of a sink's `drain_sorted` for time order.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&json::to_string(ev));
        out.push('\n');
    }
    out
}

/// The `pid` every exported event is attributed to; the whole simulated
/// machine is presented as one Perfetto "process" with one track per
/// thread.
const PERFETTO_PID: u64 = 1;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metadata(tid: u64, what: &str, name: &str) -> Value {
    obj(vec![
        ("ph", Value::Str("M".into())),
        ("pid", Value::U64(PERFETTO_PID)),
        ("tid", Value::U64(tid)),
        ("name", Value::Str(what.into())),
        ("args", obj(vec![("name", Value::Str(name.into()))])),
    ])
}

/// The variant-specific payload shown in the Perfetto event details pane.
fn args_for(kind: &TraceEventKind) -> Value {
    let mut fields = vec![
        ("episode", Value::U64(kind.episode())),
        ("pc", Value::U64(kind.pc())),
    ];
    match *kind {
        TraceEventKind::Arrival { last, .. } => {
            fields.push(("last", Value::Bool(last)));
        }
        TraceEventKind::Prediction {
            predicted_bit,
            predicted_stall,
            ..
        } => {
            fields.push(("predicted_bit", Value::U64(predicted_bit.as_u64())));
            fields.push(("predicted_stall", Value::U64(predicted_stall.as_u64())));
        }
        TraceEventKind::SleepStart {
            state, needs_flush, ..
        } => {
            fields.push(("state", Value::U64(state as u64)));
            fields.push(("needs_flush", Value::Bool(needs_flush)));
        }
        TraceEventKind::Flush {
            lines, duration, ..
        } => {
            fields.push(("lines", Value::U64(lines)));
            fields.push(("duration", Value::U64(duration.as_u64())));
        }
        TraceEventKind::Release {
            measured_bit,
            update_skipped,
            ..
        } => {
            fields.push(("measured_bit", Value::U64(measured_bit.as_u64())));
            fields.push(("update_skipped", Value::Bool(update_skipped)));
        }
        TraceEventKind::Depart { wake_latency, .. } => {
            fields.push(("wake_latency", Value::U64(wake_latency.as_u64())));
        }
        TraceEventKind::CutoffDisable { penalty, .. } => {
            fields.push(("penalty", Value::U64(penalty.as_u64())));
        }
        TraceEventKind::FaultInjected { fault, .. } => {
            fields.push(("fault", Value::Str(fault.name().into())));
        }
        TraceEventKind::GuardRecovery { slept, .. } => {
            fields.push(("slept", Value::Bool(slept)));
        }
        TraceEventKind::Quarantine { entered, .. } => {
            fields.push(("entered", Value::Bool(entered)));
        }
        TraceEventKind::CellRetry {
            attempt, timed_out, ..
        } => {
            fields.push(("attempt", Value::U64(attempt as u64)));
            fields.push(("timed_out", Value::Bool(timed_out)));
        }
        TraceEventKind::WorkerSpawn { respawn, .. } => {
            fields.push(("respawn", Value::Bool(respawn)));
        }
        TraceEventKind::WorkerDeath { inflight, .. } => {
            fields.push(("inflight", Value::U64(inflight as u64)));
        }
        TraceEventKind::LeaseGrant { worker, .. } => {
            fields.push(("worker", Value::U64(worker)));
        }
        TraceEventKind::LeaseReassign {
            worker, strikes, ..
        } => {
            fields.push(("worker", Value::U64(worker)));
            fields.push(("strikes", Value::U64(strikes as u64)));
        }
        TraceEventKind::CellPoisoned { strikes, .. } => {
            fields.push(("strikes", Value::U64(strikes as u64)));
        }
        TraceEventKind::SpinStart { .. }
        | TraceEventKind::InternalWake { .. }
        | TraceEventKind::ExternalWake { .. }
        | TraceEventKind::ResidualSpin { .. } => {}
    }
    obj(fields)
}

/// What an event does to its thread's occupancy track: open a named span,
/// close whatever is open, or neither.
fn span_action(kind: &TraceEventKind) -> SpanAction {
    match kind {
        TraceEventKind::SleepStart { state, .. } => SpanAction::Open(format!("sleep(S{state})")),
        TraceEventKind::SpinStart { .. } => SpanAction::Open("spin".to_string()),
        TraceEventKind::ResidualSpin { .. } => SpanAction::Open("residual spin".to_string()),
        TraceEventKind::InternalWake { .. }
        | TraceEventKind::ExternalWake { .. }
        | TraceEventKind::Depart { .. } => SpanAction::Close,
        _ => SpanAction::None,
    }
}

enum SpanAction {
    Open(String),
    Close,
    None,
}

/// Renders events as a Chrome `trace_event` JSON document that Perfetto
/// (<https://ui.perfetto.dev>) and `chrome://tracing` open directly.
///
/// Every trace record becomes an `"i"` (instant) event on its thread's
/// track. In addition, sleep, spin, and residual-spin periods are
/// reconstructed into `"X"` (complete) spans — per-thread wait-state
/// occupancy timelines — by pairing each `sleep_start` / `spin_start` /
/// `residual_spin` with the next wake-up or departure on the same thread.
/// Timestamps are microseconds (the format's unit) at 1 cycle = 1 ns.
pub fn to_perfetto(events: &[TraceEvent], process_name: &str) -> String {
    let threads: u64 = events
        .iter()
        .map(|e| e.thread as u64 + 1)
        .max()
        .unwrap_or(0);
    let mut records: Vec<Value> = Vec::with_capacity(events.len() + threads as usize + 1);
    records.push(metadata(0, "process_name", process_name));
    for tid in 0..threads {
        records.push(metadata(tid, "thread_name", &format!("cpu {tid}")));
    }

    // Per-thread open occupancy span: (name, start time in cycles).
    let mut open: Vec<Option<(String, u64)>> = vec![None; threads as usize];
    for ev in events {
        let tid = ev.thread as usize;
        let close_open = |open: &mut Option<(String, u64)>, records: &mut Vec<Value>| {
            if let Some((name, start)) = open.take() {
                let dur = ev.at.as_u64().saturating_sub(start);
                records.push(obj(vec![
                    ("name", Value::Str(name)),
                    ("cat", Value::Str("occupancy".into())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::F64(start as f64 / 1_000.0)),
                    ("dur", Value::F64(dur as f64 / 1_000.0)),
                    ("pid", Value::U64(PERFETTO_PID)),
                    ("tid", Value::U64(tid as u64)),
                ]));
            }
        };
        match span_action(&ev.kind) {
            SpanAction::Open(name) => {
                // An unterminated span (shouldn't happen) ends where the
                // next one starts rather than leaking.
                close_open(&mut open[tid], &mut records);
                open[tid] = Some((name, ev.at.as_u64()));
            }
            SpanAction::Close => close_open(&mut open[tid], &mut records),
            SpanAction::None => {}
        }
        records.push(obj(vec![
            ("name", Value::Str(ev.kind.name().into())),
            ("cat", Value::Str("barrier".into())),
            ("ph", Value::Str("i".into())),
            ("ts", Value::F64(ev.at.as_micros_f64())),
            ("pid", Value::U64(PERFETTO_PID)),
            ("tid", Value::U64(tid as u64)),
            ("s", Value::Str("t".into())),
            ("args", args_for(&ev.kind)),
        ]));
    }

    let doc = obj(vec![
        ("displayTimeUnit", Value::Str("ns".into())),
        ("traceEvents", Value::Seq(records)),
    ]);
    json::to_string(&doc)
}

/// Number of `"i"` instant records a Perfetto document exported from
/// `events` will contain — by construction exactly `events.len()`, exposed
/// so acceptance checks can assert it against the parsed document.
pub fn perfetto_instant_count(doc: &Value) -> usize {
    match doc.get("traceEvents") {
        Some(Value::Seq(records)) => records
            .iter()
            .filter(|r| matches!(r.get("ph"), Some(Value::Str(ph)) if ph == "i"))
            .count(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_sim::Cycles;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(
                Cycles::new(100),
                0,
                TraceEventKind::Arrival {
                    episode: 0,
                    pc: 16,
                    last: false,
                },
            ),
            TraceEvent::new(
                Cycles::new(110),
                0,
                TraceEventKind::SleepStart {
                    episode: 0,
                    pc: 16,
                    state: 2,
                    needs_flush: true,
                },
            ),
            TraceEvent::new(
                Cycles::new(400),
                1,
                TraceEventKind::SpinStart { episode: 0, pc: 16 },
            ),
            TraceEvent::new(
                Cycles::new(900),
                0,
                TraceEventKind::ExternalWake { episode: 0, pc: 16 },
            ),
            TraceEvent::new(
                Cycles::new(950),
                0,
                TraceEventKind::Depart {
                    episode: 0,
                    pc: 16,
                    wake_latency: Cycles::new(50),
                },
            ),
            TraceEvent::new(
                Cycles::new(955),
                1,
                TraceEventKind::Depart {
                    episode: 0,
                    pc: 16,
                    wake_latency: Cycles::ZERO,
                },
            ),
        ]
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let events = sample_events();
        let out = to_jsonl(&events);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in &lines {
            assert!(json::parse(line).is_ok(), "invalid JSON line: {line}");
        }
        let back: TraceEvent = json::from_str(lines[0]).unwrap();
        assert_eq!(back, events[0]);
    }

    #[test]
    fn perfetto_document_is_valid_and_complete() {
        let events = sample_events();
        let out = to_perfetto(&events, "thrifty-barrier");
        let doc = json::parse(&out).expect("valid JSON");
        assert!(matches!(
            doc.get("displayTimeUnit"),
            Some(Value::Str(u)) if u == "ns"
        ));
        // Every trace record appears as exactly one instant.
        assert_eq!(perfetto_instant_count(&doc), events.len());
        let Some(Value::Seq(records)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        // Metadata: one process name + one thread name per thread.
        let meta = records
            .iter()
            .filter(|r| matches!(r.get("ph"), Some(Value::Str(ph)) if ph == "M"))
            .count();
        assert_eq!(meta, 3);
        // Occupancy spans: thread 0's sleep closed by the external wake,
        // thread 1's spin closed by its departure.
        let spans: Vec<&Value> = records
            .iter()
            .filter(|r| matches!(r.get("ph"), Some(Value::Str(ph)) if ph == "X"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(matches!(
            spans[0].get("name"),
            Some(Value::Str(n)) if n == "sleep(S2)"
        ));
        assert_eq!(spans[0].get("ts"), Some(&Value::F64(0.110)));
        assert_eq!(spans[0].get("dur"), Some(&Value::F64(0.790)));
        assert!(matches!(
            spans[1].get("name"),
            Some(Value::Str(n)) if n == "spin"
        ));
    }

    #[test]
    fn perfetto_empty_trace_is_still_loadable() {
        let out = to_perfetto(&[], "empty");
        let doc = json::parse(&out).unwrap();
        assert_eq!(perfetto_instant_count(&doc), 0);
    }
}

//! Spans recorded around calls into each layer, their self times, and a
//! Chrome trace-event export that Perfetto opens.
//!
//! Spans stay in memory while the benchmark runs and are written once at
//! the end. A span's self time is its duration minus the time its children
//! *on the same track* cover; a child on another track (a worker thread)
//! runs in parallel with its parent, so it does not reduce the parent's
//! self time. On each track the self times therefore sum to the duration
//! of the track's top-level spans.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Trace-file process ids: one per kind of measurement.
pub const PID_ROUND: u32 = 1;
pub const PID_CLI: u32 = 2;
pub const PID_PROBES: u32 = 3;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The layer the span's self time is charged to.
    pub layer: &'static str,
    pub pid: u32,
    /// Thread lane within the process (0 = the driving thread).
    pub track: u32,
    /// Index of the matrix cell the span works on, if any.
    pub cell: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a new span sits: its parent and the lane it runs on.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub parent: Option<usize>,
    pub pid: u32,
    pub track: u32,
}

impl Ctx {
    pub fn root(pid: u32) -> Ctx {
        Ctx {
            parent: None,
            pid,
            track: 0,
        }
    }

    /// The context for work started by this span's owner on `track`.
    pub fn on_track(self, track: u32) -> Ctx {
        Ctx { track, ..self }
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the context for child spans.
    pub fn span<T>(
        &self,
        ctx: Ctx,
        name: &'static str,
        layer: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(Ctx) -> T,
    ) -> T {
        // Ids only need to be unique; nothing is published through them.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Ctx {
            parent: Some(id),
            ..ctx
        });
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span recording never panics while holding the lock")
            .push(Span {
                id,
                parent: ctx.parent,
                name,
                layer,
                pid: ctx.pid,
                track: ctx.track,
                cell,
                start_ns,
                end_ns,
            });
        out
    }

    /// The spans recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span recording never panics while holding the lock")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Runs `f` inside a span when tracing, or directly when `tracer` is `None`.
pub fn span<T>(
    tracer: Option<&Tracer>,
    ctx: Ctx,
    name: &'static str,
    layer: &'static str,
    cell: Option<usize>,
    f: impl FnOnce(Ctx) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(ctx, name, layer, cell, f),
        None => f(ctx),
    }
}

/// Self time of every span, in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let lane: HashMap<usize, (u32, u32)> = spans.iter().map(|s| (s.id, (s.pid, s.track))).collect();
    let mut covered: HashMap<usize, u64> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            if lane.get(&parent) == Some(&(s.pid, s.track)) {
                *covered.entry(parent).or_default() += s.duration_ns();
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            s.duration_ns()
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Self time per layer, in nanoseconds, over the spans of process `pid`.
pub fn layer_self_ns(spans: &[Span], pid: u32) -> HashMap<&'static str, u64> {
    let mut by_layer: HashMap<&'static str, u64> = HashMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        if s.pid == pid {
            *by_layer.entry(s.layer).or_default() += own;
        }
    }
    by_layer
}

/// Renders spans as Chrome trace-event JSON (`ph: "X"` complete events in
/// microseconds, with process and thread names as metadata).
pub fn to_chrome_trace(spans: &[Span], process_names: &[(u32, &str)]) -> String {
    let mut events: Vec<String> = Vec::new();
    for &(pid, name) in process_names {
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{name}"}}}}"#
        ));
    }
    let mut lanes: Vec<(u32, u32)> = spans.iter().map(|s| (s.pid, s.track)).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for (pid, track) in lanes {
        let name = if track == 0 {
            "driver".to_string()
        } else {
            format!("worker {track}")
        };
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{track},"args":{{"name":"{name}"}}}}"#
        ));
    }
    for s in spans {
        let mut args = format!(r#""id":{},"layer":"{}""#, s.id, s.layer);
        if let Some(parent) = s.parent {
            args.push_str(&format!(r#","parent":{parent}"#));
        }
        if let Some(cell) = s.cell {
            args.push_str(&format!(r#","cell":{cell}"#));
        }
        events.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":{},"tid":{},"args":{{{}}}}}"#,
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.pid,
            s.track,
            args
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, track: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer: if parent.is_none() { "bench" } else { "sim" },
            pid: PID_ROUND,
            track,
            cell: None,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_on_the_same_track() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,90).
        let spans = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 0, 10, 40),
            span(2, Some(1), 0, 15, 25),
            span(3, Some(0), 0, 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // On one track the self times add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn children_on_other_tracks_run_in_parallel_and_keep_parent_time() {
        let spans = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 0, 0, 60),
            span(2, Some(0), 1, 0, 70),
            span(3, Some(2), 1, 5, 65),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![40, 60, 10, 60]);
        let by_layer = layer_self_ns(&spans, PID_ROUND);
        assert_eq!(by_layer["bench"], 40);
        assert_eq!(by_layer["sim"], 130);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let tracer = Tracer::default();
        let root = Ctx::root(PID_ROUND);
        let v = tracer.span(root, "round", "bench", None, |ctx| {
            tracer.span(ctx, "cell", "sim", Some(7), |_| 41) + 1
        });
        assert_eq!(v, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (round, cell) = (&spans[0], &spans[1]);
        assert_eq!(round.name, "round");
        assert_eq!(cell.parent, Some(round.id));
        assert_eq!(cell.cell, Some(7));
        assert!(cell.start_ns >= round.start_ns && cell.end_ns <= round.end_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let spans = vec![span(0, None, 0, 0, 2000), span(1, Some(0), 1, 500, 1500)];
        let doc = to_chrome_trace(&spans, &[(PID_ROUND, "round")]);
        let v = serde::json::parse(&doc).expect("valid JSON");
        let Some(serde::Value::Seq(events)) = v.get("traceEvents") else {
            panic!("traceEvents array")
        };
        let complete = events
            .iter()
            .filter(|e| e.get("ph") == Some(&serde::Value::Str("X".into())))
            .count();
        assert_eq!(complete, 2);
    }
}

//! Per-query structured tracing: timestamped span events with thread
//! ids and typed arguments, exportable as Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`).
//!
//! Where [`super::Obs`] aggregates phase totals across a run, the trace
//! keeps *individual* spans — one retrieval per pattern node, one
//! refinement level, one search chunk per worker — so per-query
//! questions ("which pattern node's candidate set exploded?") have
//! answers on a timeline. Events come only from closing a
//! [`Span`](super::telemetry::Span) on a tracing
//! [`Telemetry`](super::telemetry::Telemetry) handle; spans are coarse
//! (never per candidate), so one mutex-guarded buffer serves every
//! worker thread.
//!
//! ```
//! use gql_core::obs::telemetry::{Span, Telemetry};
//! use gql_core::ArgValue;
//!
//! let tel = Telemetry::new().with_tracing();
//! let mut span = Span::phase(Some(&tel), "match.search", "match");
//! span.arg("steps", ArgValue::UInt(42));
//! span.finish(); // records a complete ("X") event
//! let json = tel.render_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(json.contains("\"match.search\""));
//! ```

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::json;

/// A typed span argument (rendered without quotes for numbers and
/// booleans, quoted and escaped for strings). The same values are trace
/// event args and EXPLAIN node props.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counters, cardinalities).
    UInt(u64),
    /// Floating point (ratios). Non-finite values render as strings,
    /// since JSON has no NaN/Infinity literals.
    Float(f64),
    /// Free-form text.
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl ArgValue {
    /// Appends the value as a JSON literal.
    pub(crate) fn render_json(&self, out: &mut String) {
        let _ = match self {
            ArgValue::Int(v) => write!(out, "{v}"),
            ArgValue::UInt(v) => write!(out, "{v}"),
            ArgValue::Float(v) if v.is_finite() => write!(out, "{v}"),
            ArgValue::Float(v) => write!(out, "\"{v}\""),
            ArgValue::Str(s) => write!(out, "\"{}\"", json::escape(s)),
            ArgValue::Bool(b) => write!(out, "{b}"),
        };
    }

    /// The value as it appears in the operator-tree text rendering.
    pub fn render_text(&self) -> String {
        match self {
            ArgValue::Int(v) => v.to_string(),
            ArgValue::UInt(v) => v.to_string(),
            ArgValue::Float(v) => format!("{v:.3}"),
            ArgValue::Str(s) => s.clone(),
            ArgValue::Bool(b) => b.to_string(),
        }
    }
}

/// One recorded span ("complete" event in the Chrome vocabulary).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (e.g. `match.search`, `refine.level[1]`).
    pub name: String,
    /// Category, used by trace viewers to group/filter rows.
    pub cat: &'static str,
    /// Start time in nanoseconds since the buffer was created.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread's id.
    pub tid: u64,
    /// Typed arguments shown in the viewer's detail pane.
    pub args: Vec<(&'static str, ArgValue)>,
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// The event buffer behind a tracing
/// [`Telemetry`](super::telemetry::Telemetry) handle. Timestamps count
/// from the buffer's creation; thread ids are small integers assigned
/// in first-use order, stable for a thread's lifetime.
pub(crate) struct TraceLog {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.events.lock().map_or(0, |v| v.len());
        write!(f, "TraceLog({n} events)")
    }
}

impl TraceLog {
    pub(crate) fn new() -> TraceLog {
        TraceLog {
            epoch: Instant::now(),
            events: Mutex::default(),
        }
    }

    /// Records a span that started at `start` and lasted `dur`, on the
    /// calling thread.
    pub(crate) fn push(
        &self,
        name: String,
        cat: &'static str,
        start: Instant,
        dur: Duration,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let event = TraceEvent {
            name,
            cat,
            ts_ns: nanos(start.saturating_duration_since(self.epoch)),
            dur_ns: nanos(dur),
            tid: THREAD_ID.with(|id| *id),
            args,
        };
        self.events.lock().expect("trace poisoned").push(event);
    }

    /// Every event recorded so far, sorted by start time.
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        let mut all = self.events.lock().expect("trace poisoned").clone();
        all.sort_by_key(|e| (e.ts_ns, e.tid, e.dur_ns));
        all
    }
}

/// Renders `events` as a Chrome trace-event JSON document (the object
/// form: `{"traceEvents": [...]}`), loadable in Perfetto
/// (<https://ui.perfetto.dev>) and `chrome://tracing`. Timestamps and
/// durations are microseconds with nanosecond precision, as the format
/// specifies.
pub(crate) fn render_chrome_json(events: &[TraceEvent]) -> String {
    let mut s = String::from(
        "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n\
         {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
         \"args\": {\"name\": \"gql\"}}",
    );
    for e in events {
        let _ = write!(
            s,
            ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 0, \
             \"tid\": {}, \"ts\": {}.{:03}, \"dur\": {}.{:03}",
            json::escape(&e.name),
            json::escape(e.cat),
            e.tid,
            e.ts_ns / 1000,
            e.ts_ns % 1000,
            e.dur_ns / 1000,
            e.dur_ns % 1000,
        );
        if !e.args.is_empty() {
            s.push_str(", \"args\": {");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\": ", json::escape(k));
                v.render_json(&mut s);
            }
            s.push('}');
        }
        s.push('}');
    }
    s.push_str("\n]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::validate_json;
    use std::sync::Arc;

    fn args(v: ArgValue) -> Vec<(&'static str, ArgValue)> {
        vec![("v", v)]
    }

    #[test]
    fn spans_record_events_with_args() {
        let log = TraceLog::new();
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        log.push(
            "phase.a".into(),
            "match",
            start,
            start.elapsed(),
            vec![
                ("candidates", ArgValue::UInt(10)),
                ("ratio", ArgValue::Float(0.5)),
            ],
        );
        log.push(
            "phase.b".into(),
            "match",
            Instant::now(),
            Duration::ZERO,
            args(ArgValue::Str("A\"B".into())),
        );
        let events = log.events();
        assert_eq!(events.len(), 2);
        // Sorted by timestamp: the first span started first.
        assert_eq!(events[0].name, "phase.a");
        assert!(events[0].dur_ns >= 1_000_000, "{:?}", events[0]);
        assert_eq!(events[0].args[0], ("candidates", ArgValue::UInt(10)));
        let json = render_chrome_json(&events);
        validate_json(&json).expect("chrome trace must be well-formed JSON");
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"A\\\"B\""), "{json}");
    }

    #[test]
    fn concurrent_recording_keeps_every_event_with_distinct_tids() {
        let log = Arc::new(TraceLog::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..100u64 {
                        log.push(
                            "tick".into(),
                            "test",
                            Instant::now(),
                            Duration::ZERO,
                            args(ArgValue::UInt(i)),
                        );
                    }
                });
            }
        });
        let events = log.events();
        assert_eq!(events.len(), 800);
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 8, "each worker gets its own thread id");
        validate_json(&render_chrome_json(&events)).unwrap();
    }

    #[test]
    fn empty_sink_renders_metadata_only() {
        let log = TraceLog::new();
        assert!(log.events().is_empty());
        let json = render_chrome_json(&log.events());
        validate_json(&json).unwrap();
        assert!(json.contains("process_name"), "{json}");
    }

    #[test]
    fn nonfinite_floats_render_as_strings() {
        let log = TraceLog::new();
        let now = Instant::now();
        log.push(
            "x".into(),
            "t",
            now,
            Duration::ZERO,
            args(ArgValue::Float(f64::NAN)),
        );
        let json = render_chrome_json(&log.events());
        validate_json(&json).expect("NaN must not leak as a bare literal");
        assert!(json.contains("\"NaN\""), "{json}");
    }
}

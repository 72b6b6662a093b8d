//! Runner-side spans: the traced run times each call the runner makes
//! into a layer's public functions and keeps the spans in memory.
//!
//! `Database::execute` cannot be opened up from outside, so its children
//! are *replays*: right after the real call, the runner calls the same
//! public functions the engine calls (`parse_program`, `compile_pattern`,
//! `select_with_snapshot`, `match_pattern`, the four matcher phases,
//! `ops::compose`) on the same inputs and records each as a child of the
//! real span by id. A layer's self time is its span minus its children's
//! spans — by duration, not by containment in time. Replays run with
//! warmer caches than the call they stand for, so self times of parents
//! are, if anything, overstated.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = u32;

pub struct Span {
    pub parent: Option<SpanId>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

/// Per span name: total busy time and the part its children cover.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub total_ns: u64,
    pub child_ns: u64,
}

impl LayerTime {
    pub fn self_ns(&self) -> i64 {
        self.total_ns as i64 - self.child_ns as i64
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Times `f` as one span of operation `op` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.span_at(name, op, parent, start, Instant::now());
        (out, id)
    }

    /// Records a span whose interval the caller measured.
    pub fn span_at(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            parent,
            op,
            name,
            start_ns: (start - self.t0).as_nanos() as u64,
            end_ns: (end - self.t0).as_nanos() as u64,
        });
        id
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            let d = s.end_ns - s.start_ns;
            let l = out.entry(s.name).or_default();
            l.total_ns += d;
            if let Some(p) = s.parent {
                out.entry(self.spans[p as usize].name).or_default().child_ns += d;
            }
        }
        out
    }

    /// The trace file: every count, and the first `max_spans` spans (a
    /// ten-second run of 0.1 ms operations records hundreds of thousands;
    /// the aggregates above always cover all of them).
    pub fn to_json(&self, workload: &str, max_spans: usize) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .take(max_spans)
            .map(|(id, s)| {
                obj([
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("op", Json::Num(f64::from(s.op))),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                ])
            })
            .collect();
        obj([
            ("workload", Json::Str(workload.to_string())),
            ("spans_total", Json::Num(self.spans.len() as f64)),
            ("spans", Json::Arr(spans)),
            (
                "counts",
                obj(self.counts.iter().map(|(k, v)| (*k, Json::Num(*v as f64)))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let ((), parent) = t.span("p", 0, None, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        t.span("c", 0, Some(parent), || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.span("c", 0, Some(parent), || ());
        let layers = t.layers();
        assert_eq!(layers["p"].child_ns, layers["c"].total_ns);
        assert_eq!(
            layers["p"].self_ns(),
            layers["p"].total_ns as i64 - layers["c"].total_ns as i64
        );
        let parsed = Json::parse(&t.to_json("w", 2).render()).unwrap();
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(parsed.get("spans_total").unwrap().as_f64(), Some(3.0));
    }
}

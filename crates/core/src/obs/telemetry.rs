//! One recording call per phase. A [`Telemetry`] handle bundles the
//! aggregate [`Obs`] registry, a trace-event buffer, and the `EXPLAIN
//! ANALYZE` flag; each phase boundary opens one [`Span`] on it. Closing
//! the span records the phase duration into `Obs`, emits the trace
//! event if tracing is on, and returns the phase's [`ExplainNode`] if
//! explain is on (args become props, children attach in order). Without
//! a handle a [`Span::phase`] reads no clock and records nothing, so the
//! disabled path is one skipped branch per boundary.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::explain::ExplainNode;
use super::trace::{render_chrome_json, ArgValue, TraceEvent, TraceLog};
use super::Obs;

/// The telemetry handle; clones share the registry, the trace buffer
/// and the σ tree slot.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    obs: Option<Arc<Obs>>,
    trace: Option<Arc<TraceLog>>,
    explain: bool,
    /// Where σ hands its EXPLAIN tree to the caller that asked for it
    /// ([`Telemetry::collecting`]); `None` on ordinary handles.
    tree: Option<Arc<Mutex<Option<ExplainNode>>>>,
}

impl Telemetry {
    /// A handle with every output off.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Records phase durations and pipeline counters into `obs`.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Telemetry {
        self.obs = Some(obs);
        self
    }

    /// Records trace events into a fresh buffer whose epoch is now.
    pub fn with_tracing(mut self) -> Telemetry {
        self.trace = Some(Arc::new(TraceLog::new()));
        self
    }

    /// Builds `EXPLAIN ANALYZE` nodes as spans close.
    pub fn with_explain(mut self) -> Telemetry {
        self.explain = true;
        self
    }

    /// A clone with a slot of its own for σ's EXPLAIN tree: σ run under
    /// it (or its clones) [publishes](Span::publish) the tree there for
    /// [`Telemetry::take_published`]. σ under any other handle keeps no
    /// tree, and no other caller can take this one.
    pub fn collecting(&self) -> Telemetry {
        Telemetry {
            tree: Some(Arc::default()),
            ..self.clone()
        }
    }

    /// The aggregate registry, if attached.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Whether spans build EXPLAIN nodes.
    pub fn explains(&self) -> bool {
        self.explain
    }

    /// Adds `n` to counter `name` when a registry is attached.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(obs) = &self.obs {
            obs.add(name, n);
        }
    }

    /// Every trace event so far, time-sorted (empty when not tracing).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.trace.as_ref().map(|t| t.events()).unwrap_or_default()
    }

    /// The trace as a Chrome trace-event JSON document (Perfetto,
    /// `chrome://tracing`).
    pub fn render_chrome_json(&self) -> String {
        render_chrome_json(&self.events())
    }

    /// Takes the tree σ last published on this
    /// [collecting](Telemetry::collecting) handle.
    pub fn take_published(&self) -> Option<ExplainNode> {
        let slot = self.tree.as_ref()?;
        slot.lock().expect("tree slot poisoned").take()
    }
}

/// One open phase, phase item, or EXPLAIN-only node. [`Span::finish`]
/// closes it; a span dropped unfinished still records its duration and
/// trace event.
pub struct Span<'a> {
    tel: Option<&'a Telemetry>,
    /// Obs phase and trace event name; empty for EXPLAIN-only nodes.
    name: &'static str,
    cat: &'static str,
    /// EXPLAIN label: the node's label, or the phase's name, whose part
    /// after the first `.` is used.
    label: &'static str,
    /// `name[i]` / `label[i]`; indexed phase items are not aggregated.
    index: Option<usize>,
    /// `None` when the span keeps no time.
    start: Option<Instant>,
    end: Option<Instant>,
    /// `(key, value, also an EXPLAIN prop)`, in call order.
    args: Vec<(&'static str, ArgValue, bool)>,
    children: Vec<ExplainNode>,
}

impl<'a> Span<'a> {
    /// Opens phase `name`: the [`Obs`] phase and trace event (in trace
    /// category `cat`), EXPLAIN node `name` minus its first segment.
    /// Without a handle it reads no clock and records nothing.
    pub fn phase(tel: Option<&'a Telemetry>, name: &'static str, cat: &'static str) -> Span<'a> {
        Span {
            tel,
            name,
            cat,
            label: name,
            index: None,
            start: tel.map(|_| Instant::now()),
            end: None,
            args: Vec::new(),
            children: Vec::new(),
        }
    }

    /// [`Span::phase`] that keeps time even without a handle: the
    /// phase's stopwatch ([`Span::stop`]).
    pub fn timed(tel: Option<&'a Telemetry>, name: &'static str, cat: &'static str) -> Span<'a> {
        let mut span = Span::phase(tel, name, cat);
        span.start.get_or_insert_with(Instant::now);
        span
    }

    /// Opens an EXPLAIN-only node `label`.
    pub fn node(tel: &'a Telemetry, label: &'static str) -> Span<'a> {
        let mut span = Span::phase(None, "", "");
        span.tel = Some(tel);
        span.label = label;
        span
    }

    /// Makes the span item `index` of its phase (a pattern node's
    /// retrieval, a refinement level, a search chunk): trace event
    /// `name[index]`, EXPLAIN node `label[index]`, nothing aggregated.
    pub fn at(mut self, index: usize) -> Span<'a> {
        self.index = Some(index);
        self
    }

    /// Whether args are kept (a trace event or EXPLAIN node will be
    /// produced); check it before building costly arg values.
    pub fn recording(&self) -> bool {
        self.tel
            .is_some_and(|t| t.explain || (!self.name.is_empty() && t.trace.is_some()))
    }

    /// Appends an arg: a trace event arg and an EXPLAIN prop, in order.
    pub fn arg(&mut self, key: &'static str, value: ArgValue) {
        if self.recording() {
            self.args.push((key, value, true));
        }
    }

    /// Appends an arg to the trace event only.
    pub fn trace_arg(&mut self, key: &'static str, value: ArgValue) {
        if self.tel.is_some_and(|t| t.trace.is_some()) {
            self.args.push((key, value, false));
        }
    }

    /// Adds `n` to counter `name` in the handle's registry, if any.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(t) = self.tel {
            t.count(name, n);
        }
    }

    /// Attaches a closed child's EXPLAIN node after the earlier ones.
    pub fn child(&mut self, node: Option<ExplainNode>) {
        self.children.extend(node);
    }

    /// Fixes the span's duration (on first call) and returns it — the
    /// phase's one timing, shared by the caller and every output. Zero
    /// for a span that keeps no time.
    pub fn stop(&mut self) -> Duration {
        let Some(start) = self.start else {
            return Duration::ZERO;
        };
        *self.end.get_or_insert_with(Instant::now) - start
    }

    /// Closes the span, returning its EXPLAIN node if explain is on.
    pub fn finish(mut self) -> Option<ExplainNode> {
        self.close()
    }

    /// Closes the span; on a [collecting](Telemetry::collecting) handle
    /// its EXPLAIN node goes to [`Telemetry::take_published`].
    pub fn publish(mut self) {
        if let Some(slot) = self.tel.and_then(|t| t.tree.as_ref()) {
            *slot.lock().expect("tree slot poisoned") = self.close();
        }
    }

    fn close(&mut self) -> Option<ExplainNode> {
        let tel = self.tel.take()?;
        let dur = self.stop();
        let indexed = |base: &str| match self.index {
            Some(i) => format!("{base}[{i}]"),
            None => base.to_string(),
        };
        let props = self.args.iter().filter(|a| a.2);
        let node = tel.explain.then(|| ExplainNode {
            label: indexed(self.label.split_once('.').map_or(self.label, |(_, l)| l)),
            props: props.map(|(k, v, _)| (k.to_string(), v.clone())).collect(),
            children: std::mem::take(&mut self.children),
        });
        if let (false, Some(start)) = (self.name.is_empty(), self.start) {
            if let (None, Some(obs)) = (self.index, &tel.obs) {
                obs.record(self.name, dur);
            }
            if let Some(log) = &tel.trace {
                let args = self.args.drain(..).map(|(k, v, _)| (k, v)).collect();
                log.push(indexed(self.name), self.cat, start, dur, args);
            }
        }
        node
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::validate_json;

    /// One close feeds all three outputs from the same args and the
    /// same duration.
    #[test]
    fn one_close_feeds_obs_trace_and_explain() {
        let obs = Obs::new();
        let tel = Telemetry::new()
            .with_obs(obs.clone())
            .with_tracing()
            .with_explain();
        let mut phase = Span::phase(Some(&tel), "match.refine", "match");
        let mut level = Span::phase(Some(&tel), "refine.level", "match").at(1);
        level.arg("removed", ArgValue::UInt(2));
        level.trace_arg("checks", ArgValue::UInt(5));
        phase.child(level.finish());
        phase.arg("removed", ArgValue::UInt(2));
        let d = phase.stop();
        let node = phase.finish().unwrap();
        assert_eq!(node.label, "refine");
        assert_eq!(node.props, [("removed".to_string(), ArgValue::UInt(2))]);
        assert_eq!(node.children[0].label, "level[1]");
        assert_eq!(
            node.children[0].props.len(),
            1,
            "trace-only args stay off the tree"
        );

        let phase = obs.report().phase("match.refine").unwrap();
        assert_eq!((phase.count, phase.total), (1, d));
        assert!(
            obs.report().phase("refine.level").is_none(),
            "items are not aggregated"
        );

        let events = tel.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["match.refine", "refine.level[1]"]);
        assert_eq!(events[0].dur_ns, d.as_nanos() as u64);
        assert_eq!(events[1].args.len(), 2);
        validate_json(&tel.render_chrome_json()).unwrap();
    }

    /// Without a handle a phase keeps neither time nor args, while a
    /// timed phase is a stopwatch; with outputs off nothing is built.
    #[test]
    fn disabled_spans_only_keep_time_when_asked() {
        let mut off = Span::phase(None, "op.select", "algebra");
        assert!(!off.recording());
        off.arg("graphs", ArgValue::UInt(1));
        assert_eq!(off.stop(), Duration::ZERO, "no clock read");
        assert!(off.finish().is_none());

        let mut watch = Span::timed(None, "match.search", "match");
        std::thread::sleep(Duration::from_millis(1));
        let d = watch.stop();
        assert!(d >= Duration::from_millis(1));
        assert_eq!(watch.stop(), d, "the first stop fixes the duration");
        assert!(watch.finish().is_none());

        let obs = Obs::new();
        let tel = Telemetry::new().with_obs(obs.clone());
        let mut agg = Span::phase(Some(&tel), "op.select", "algebra");
        assert!(!agg.recording(), "aggregate-only needs no args");
        agg.arg("graphs", ArgValue::UInt(1));
        assert!(agg.finish().is_none());
        assert_eq!(obs.report().phase("op.select").map(|p| p.count), Some(1));
        assert!(tel.events().is_empty());
    }

    /// A span dropped on an error path still records its duration and
    /// event. Only a collecting handle keeps a published tree, each
    /// collecting handle has its own, and it is taken exactly once.
    #[test]
    fn dropped_spans_record_and_only_collecting_handles_keep_trees() {
        let obs = Obs::new();
        let tel = Telemetry::new()
            .with_obs(obs.clone())
            .with_tracing()
            .with_explain();
        drop(Span::phase(Some(&tel), "engine.flwr", "engine"));
        assert_eq!(obs.report().phase("engine.flwr").map(|p| p.count), Some(1));
        assert_eq!(tel.events().len(), 1);

        Span::phase(Some(&tel), "op.select", "algebra").publish();
        assert!(
            tel.take_published().is_none(),
            "ordinary handles keep nothing"
        );
        assert_eq!(tel.events().len(), 2, "a published span still records");

        let (a, b) = (tel.collecting(), tel.collecting());
        Span::phase(Some(&a.clone()), "op.select", "algebra").publish();
        assert!(
            b.take_published().is_none(),
            "slots are per collecting handle"
        );
        assert_eq!(a.take_published().map(|n| n.label), Some("select".into()));
        assert!(a.take_published().is_none());
    }
}

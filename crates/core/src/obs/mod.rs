//! Pipeline observability: one telemetry handle over three outputs.
//!
//! The paper's whole §5 evaluation is per-phase instrumentation —
//! pruning power of profiles vs. refinement, search-space ratios,
//! per-phase wall-clock — and a production deployment needs the same
//! visibility. The query pipeline records through one
//! [`Telemetry`](telemetry::Telemetry) handle: each phase boundary opens
//! one [`Span`](telemetry::Span), and closing it feeds all three
//! outputs — the phase duration into the aggregate [`Obs`] registry
//! (this module), a Chrome trace event ([`trace`]) if tracing is on,
//! and the phase's `EXPLAIN ANALYZE` node ([`explain`]) if explain is
//! on. [`prom`] renders the registry for Prometheus, [`json`] holds the
//! one JSON string escaper and the well-formedness checker.
//!
//! The [`Obs`] registry itself is a table of named **atomic counters**,
//! **gauges** and **duration stats**. Design rules:
//!
//! - **Disabled means free.** Pipeline code holds an
//!   `Option<Arc<Telemetry>>`; when it is `None` every boundary is one
//!   skipped branch. Hot kernels never consult the registry per
//!   element — they keep local integer counts and record once per
//!   phase.
//! - **Deterministic counters.** Counters record logical quantities
//!   (candidates pruned, search steps, pairs removed), so for
//!   deterministic workloads the counter snapshot is byte-identical at
//!   any `--threads` setting. Histograms record wall-clock and are
//!   explicitly excluded from determinism comparisons.
//! - **Never reset.** The registry is cumulative for its owner's whole
//!   lifetime (health checks and `/metrics` read it). A per-run view —
//!   `--profile` — is a delta: [`Obs::mark`] takes a baseline and
//!   [`Obs::report_since`] reports only what was recorded after it.
//! - **Std-only.** `Mutex<BTreeMap>` name table (names are touched once
//!   per phase, not per element) with `AtomicU64` cells behind `Arc`,
//!   so recording never holds the table lock.
//!
//! ```
//! use gql_core::obs::Obs;
//! use std::time::Duration;
//!
//! let obs = Obs::new();
//! obs.add("search.steps", 42);
//! obs.record("phase.search", Duration::from_micros(7));
//! let report = obs.report();
//! assert_eq!(report.counter("search.steps"), Some(42));
//! assert!(report.render_json().contains("\"search.steps\": 42"));
//! ```

pub mod explain;
pub mod json;
pub mod prom;
pub mod telemetry;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge (WAL size, live segment bytes): unlike
/// [`Counter`] it moves in both directions, so snapshots report the
/// current level rather than a monotone total. Gauges describe ambient
/// state, not per-query work — determinism comparisons look only at
/// counters.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Replaces the gauge value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A thread-safe duration accumulator: count, total, min, max.
///
/// (A full log-bucketed histogram adds nothing for per-phase spans that
/// fire once per query; min/max/total keep the report small and the
/// recording path to four atomic RMWs.)
#[derive(Debug)]
pub struct DurationStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for DurationStat {
    fn default() -> Self {
        DurationStat {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl DurationStat {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

/// Immutable snapshot of one [`DurationStat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Spans recorded.
    pub count: u64,
    /// Sum of all spans.
    pub total: Duration,
    /// Shortest span ([`Duration::ZERO`] when `count == 0`).
    pub min: Duration,
    /// Longest span.
    pub max: Duration,
}

impl PhaseStats {
    /// Mean span duration (zero when nothing was recorded).
    ///
    /// Computed in u128 nanoseconds: `total / count` stays exact for
    /// any span count (a `u32` divisor would silently divide by the
    /// wrong count past 2^32 spans).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            let ns = self.total.as_nanos() / u128::from(self.count);
            Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
        }
    }
}

/// An in-flight aggregate-only span (no trace event, no EXPLAIN node —
/// see [`telemetry::Span`] for those); records its elapsed time into
/// the owning stat on drop.
pub struct Timer {
    stat: Arc<DurationStat>,
    start: Instant,
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.stat.record(self.start.elapsed());
    }
}

/// A name → (cell, epoch of its last lookup) table. The stamp is how
/// [`Obs::report_since`] tells "recorded after the mark" from "only
/// existed before it".
type Table<T> = Mutex<BTreeMap<String, (Arc<T>, u64)>>;

fn lookup<T: Default>(table: &Table<T>, name: &str, epoch: u64) -> Arc<T> {
    let mut map = table.lock().expect("obs table poisoned");
    let slot = map.entry(name.to_string()).or_default();
    slot.1 = epoch;
    Arc::clone(&slot.0)
}

/// `(name, read(cell))` for every slot looked up in epoch `since` or
/// later, sorted by name.
fn snapshot<T, R>(table: &Table<T>, since: u64, read: impl Fn(&T) -> R) -> Vec<(String, R)> {
    let map = table.lock().expect("obs table poisoned");
    map.iter()
        .filter(|(_, (_, touched))| *touched >= since)
        .map(|(k, (cell, _))| (k.clone(), read(cell)))
        .collect()
}

/// A baseline taken by [`Obs::mark`]: the registry's contents at that
/// moment plus the epoch that began there.
#[derive(Debug, Clone)]
pub struct ObsMark {
    epoch: u64,
    base: ObsReport,
}

/// The metrics registry: named counters, gauges and duration stats.
///
/// Cloning the `Arc<Obs>` shares the registry; [`Obs::report`] takes a
/// consistent-enough snapshot for end-of-query reporting (individual
/// cells are read atomically).
#[derive(Default)]
pub struct Obs {
    epoch: AtomicU64,
    counters: Table<Counter>,
    phases: Table<DurationStat>,
    gauges: Table<Gauge>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nc = self.counters.lock().map(|c| c.len()).unwrap_or(0);
        let np = self.phases.lock().map(|p| p.len()).unwrap_or(0);
        let ng = self.gauges.lock().map(|g| g.len()).unwrap_or(0);
        write!(f, "Obs({nc} counters, {np} phases, {ng} gauges)")
    }
}

impl Obs {
    /// A fresh, empty registry behind an `Arc` (the shape every pipeline
    /// layer consumes).
    pub fn new() -> Arc<Obs> {
        Arc::new(Obs::default())
    }

    /// The counter named `name`, created on first use. Cache the handle
    /// when recording repeatedly.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        lookup(&self.counters, name, self.epoch.load(Ordering::Relaxed))
    }

    /// The duration stat named `name`, created on first use.
    pub fn phase(&self, name: &str) -> Arc<DurationStat> {
        lookup(&self.phases, name, self.epoch.load(Ordering::Relaxed))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        lookup(&self.gauges, name, self.epoch.load(Ordering::Relaxed))
    }

    /// Adds `n` to counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: u64) {
        self.gauge(name).set(v);
    }

    /// Records `d` into duration stat `name`.
    pub fn record(&self, name: &str, d: Duration) {
        self.phase(name).record(d);
    }

    /// Starts an aggregate-only span over phase `name`; the elapsed time
    /// is recorded when the returned guard drops.
    pub fn span(&self, name: &str) -> Timer {
        Timer {
            stat: self.phase(name),
            start: Instant::now(),
        }
    }

    /// Snapshot of every counter, phase, and gauge.
    pub fn report(&self) -> ObsReport {
        self.report_touched_since(0)
    }

    fn report_touched_since(&self, epoch: u64) -> ObsReport {
        ObsReport {
            counters: snapshot(&self.counters, epoch, Counter::get),
            phases: snapshot(&self.phases, epoch, |v| {
                let count = v.count.load(Ordering::Relaxed);
                PhaseStats {
                    count,
                    total: Duration::from_nanos(v.total_ns.load(Ordering::Relaxed)),
                    min: if count == 0 {
                        Duration::ZERO
                    } else {
                        Duration::from_nanos(v.min_ns.load(Ordering::Relaxed))
                    },
                    max: Duration::from_nanos(v.max_ns.load(Ordering::Relaxed)),
                }
            }),
            gauges: snapshot(&self.gauges, epoch, Gauge::get),
        }
    }

    /// Takes a baseline for [`Obs::report_since`]. Nothing is cleared:
    /// readers of the cumulative registry (health checks, `/metrics`)
    /// are unaffected.
    pub fn mark(&self) -> ObsMark {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        ObsMark {
            epoch,
            base: self.report(),
        }
    }

    /// What was recorded after `mark`: only metrics touched since then
    /// appear, counters and phase counts/totals as deltas, gauges at
    /// their current level. A phase that already existed at the mark
    /// keeps its lifetime min/max.
    pub fn report_since(&self, mark: &ObsMark) -> ObsReport {
        let mut report = self.report_touched_since(mark.epoch);
        for (name, v) in &mut report.counters {
            *v -= mark.base.counter(name).unwrap_or(0);
        }
        for (name, p) in &mut report.phases {
            if let Some(b) = mark.base.phase(name) {
                p.count -= b.count;
                p.total -= b.total;
            }
        }
        report
    }
}

/// A point-in-time snapshot of a registry, ready to print or serialize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, stats)` pairs, sorted by name.
    pub phases: Vec<(String, PhaseStats)>,
    /// `(name, value)` gauge pairs, sorted by name. Gauges describe
    /// ambient state (file sizes, live bytes) and are excluded from
    /// determinism comparisons, which look only at `counters`.
    pub gauges: Vec<(String, u64)>,
}

impl ObsReport {
    /// Value of counter `name`, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Stats of phase `name`, if it was ever recorded.
    pub fn phase(&self, name: &str) -> Option<PhaseStats> {
        self.phases.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Value of gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Human-readable per-phase breakdown (the `--profile` text form).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.phases.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12} {:>12} {:>12}",
                "phase", "count", "total", "mean", "max"
            );
            for (name, p) in &self.phases {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>12} {:>12} {:>12}",
                    name,
                    p.count,
                    format!("{:.1?}", p.total),
                    format!("{:.1?}", p.mean()),
                    format!("{:.1?}", p.max),
                );
            }
        }
        for (kind, values) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            if !values.is_empty() {
                if !out.is_empty() {
                    out.push('\n');
                }
                let _ = writeln!(out, "{kind:<40} {:>14}", "value");
                for (name, v) in values {
                    let _ = writeln!(out, "{name:<40} {v:>14}");
                }
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Machine-readable JSON (`--profile=json`): an object with
    /// `counters` (name → integer) and `phases` (name → ns stats).
    pub fn render_json(&self) -> String {
        fn object<T>(
            s: &mut String,
            key: &str,
            items: &[(String, T)],
            value: impl Fn(&T) -> String,
        ) {
            let _ = write!(s, "  \"{key}\": {{");
            for (i, (name, v)) in items.iter().enumerate() {
                let sep = if i == 0 { "\n" } else { ",\n" };
                let _ = write!(s, "{sep}    \"{}\": {}", json::escape(name), value(v));
            }
            if !items.is_empty() {
                s.push_str("\n  ");
            }
            s.push('}');
        }
        let mut s = String::from("{\n");
        object(&mut s, "counters", &self.counters, u64::to_string);
        s.push_str(",\n");
        object(&mut s, "phases", &self.phases, |p| {
            format!(
                "{{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                p.count,
                p.total.as_nanos(),
                p.min.as_nanos(),
                p.max.as_nanos(),
            )
        });
        s.push_str(",\n");
        object(&mut s, "gauges", &self.gauges, u64::to_string);
        s.push_str("\n}\n");
        s
    }

    /// Prometheus text exposition (version 0.0.4), ready for a
    /// file-based scrape (`gql run --metrics FILE`) or the live
    /// `/metrics` endpoint. Each registry metric becomes its own
    /// sanitized family (`engine.index_cache.hits` →
    /// `gql_engine_index_cache_hits_total`, indexed spans like
    /// `search.chunk[0]` → an `index` label); see [`prom`] for the
    /// naming rules and the matching [`prom::validate_prometheus`]
    /// checker.
    pub fn render_prometheus(&self) -> String {
        prom::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let obs = Obs::new();
        obs.add("a", 1);
        obs.add("a", 2);
        obs.add("b", 5);
        let rep = obs.report();
        assert_eq!(rep.counter("a"), Some(3));
        assert_eq!(rep.counter("b"), Some(5));
        assert_eq!(rep.counter("missing"), None);
        let mark = obs.mark();
        assert!(obs.report_since(&mark).counters.is_empty());
        obs.add("b", 1);
        obs.add("c", 0);
        let since = obs.report_since(&mark);
        assert_eq!(since.counters, [("b".into(), 1), ("c".into(), 0)]);
        assert_eq!(
            obs.report().counter("b"),
            Some(6),
            "the registry itself is cumulative"
        );
    }

    /// A mark never clears what other readers rely on; the view since
    /// it holds only metrics touched afterwards, as deltas.
    #[test]
    fn report_since_a_mark_is_a_delta_of_touched_metrics() {
        let obs = Obs::new();
        obs.add("storage.crc_fail", 1);
        obs.set_gauge("storage.wal_size", 99);
        obs.record("p", Duration::from_millis(5));
        let mark = obs.mark();
        obs.record("p", Duration::from_millis(2));
        obs.set_gauge("g", 3);
        let since = obs.report_since(&mark);
        assert_eq!(since.counter("storage.crc_fail"), None);
        assert_eq!(since.gauge("storage.wal_size"), None);
        assert_eq!(since.gauge("g"), Some(3));
        let p = since.phase("p").unwrap();
        assert_eq!((p.count, p.total), (1, Duration::from_millis(2)));
        let all = obs.report();
        assert_eq!(all.counter("storage.crc_fail"), Some(1));
        assert_eq!(all.gauge("storage.wal_size"), Some(99));
        assert_eq!(all.phase("p").unwrap().count, 2);
    }

    #[test]
    fn spans_record_durations() {
        let obs = Obs::new();
        {
            let _s = obs.span("p");
            std::thread::sleep(Duration::from_millis(1));
        }
        obs.record("p", Duration::from_millis(2));
        let p = obs.report().phase("p").unwrap();
        assert_eq!(p.count, 2);
        assert!(p.total >= Duration::from_millis(3));
        assert!(p.min <= p.max);
        assert!(p.mean() >= p.min && p.mean() <= p.max);
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let obs = Obs::new();
        let c = obs.counter("n");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(obs.report().counter("n"), Some(8000));
    }

    /// Regression: the mean used to be computed with a `u32` divisor
    /// (`total / u32::try_from(count).unwrap_or(u32::MAX)`), silently
    /// dividing by the wrong count once more than 2^32 spans were
    /// recorded. The u128-nanosecond computation stays exact.
    #[test]
    fn mean_is_exact_past_u32_span_counts() {
        let count = 1u64 << 34; // 4x past the clamp point
        let stats = PhaseStats {
            count,
            total: Duration::from_nanos(count * 3),
            min: Duration::from_nanos(3),
            max: Duration::from_nanos(3),
        };
        assert_eq!(stats.mean(), Duration::from_nanos(3));
        // The old clamped divisor would have reported ~4x the true mean.
        let wrong = stats.total / u32::MAX;
        assert!(wrong >= Duration::from_nanos(12), "{wrong:?}");
        // Small counts are unchanged.
        let small = PhaseStats {
            count: 4,
            total: Duration::from_nanos(10),
            min: Duration::from_nanos(1),
            max: Duration::from_nanos(4),
        };
        assert_eq!(small.mean(), Duration::from_nanos(2));
        let empty = PhaseStats {
            count: 0,
            total: Duration::ZERO,
            min: Duration::ZERO,
            max: Duration::ZERO,
        };
        assert_eq!(empty.mean(), Duration::ZERO);
    }

    /// Eight threads hammering one `DurationStat` and one `Counter`:
    /// the count and total must be exact, and the invariant
    /// min ≤ mean ≤ max must hold on the snapshot.
    #[test]
    fn concurrent_duration_recording_is_exact() {
        let obs = Obs::new();
        let stat = obs.phase("hammered");
        let counter = obs.counter("hits");
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 1000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let stat = Arc::clone(&stat);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Deterministic per-record duration: 1..=8000 ns.
                        stat.record(Duration::from_nanos(t * PER_THREAD + i + 1));
                        counter.add(1);
                    }
                });
            }
        });
        let rep = obs.report();
        assert_eq!(rep.counter("hits"), Some(THREADS * PER_THREAD));
        let p = rep.phase("hammered").unwrap();
        assert_eq!(p.count, THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(p.total, Duration::from_nanos(n * (n + 1) / 2));
        assert_eq!(p.min, Duration::from_nanos(1));
        assert_eq!(p.max, Duration::from_nanos(n));
        assert!(p.min <= p.mean() && p.mean() <= p.max);
    }

    #[test]
    fn prometheus_exposition_renders() {
        let obs = Obs::new();
        obs.add("search.steps", 42);
        obs.set_gauge("storage.wal_size", 777);
        obs.record("match.search", Duration::from_millis(5));
        obs.record("match.search", Duration::from_millis(7));
        let text = obs.report().render_prometheus();
        prom::validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(text.contains("gql_search_steps_total 42"), "{text}");
        assert!(text.contains("gql_storage_wal_size 777"), "{text}");
        assert!(text.contains("gql_match_search_seconds_count 2"), "{text}");
        assert!(
            text.contains("gql_match_search_seconds_sum 0.012"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE gql_search_steps_total counter"),
            "{text}"
        );
        assert!(
            text.contains("gql_match_search_seconds_min 0.005"),
            "{text}"
        );
        assert!(
            text.contains("gql_match_search_seconds_max 0.007"),
            "{text}"
        );
    }

    #[test]
    fn json_and_text_render() {
        let obs = Obs::new();
        obs.add("x.y", 7);
        obs.set_gauge("g.level", 12);
        obs.record("ph", Duration::from_nanos(500));
        let rep = obs.report();
        assert_eq!(rep.gauge("g.level"), Some(12));
        assert_eq!(rep.gauge("missing"), None);
        let json = rep.render_json();
        assert!(json.contains("\"x.y\": 7"), "{json}");
        assert!(json.contains("\"ph\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"g.level\": 12"), "{json}");
        crate::validate_json(&json).unwrap();
        let text = rep.render_text();
        assert!(text.contains("x.y"), "{text}");
        assert!(text.contains("ph"), "{text}");
        assert!(text.contains("g.level"), "{text}");
        assert_eq!(json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        // Empty report renders without panicking.
        assert!(ObsReport::default().render_json().contains("counters"));
        assert!(ObsReport::default()
            .render_text()
            .contains("no metrics recorded"));
    }
}

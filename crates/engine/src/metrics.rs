//! The always-on metrics registry: one cumulative [`Obs`] plus the
//! health model and the slow-query ring.
//!
//! Every [`Database`](crate::Database) owns an `Arc<MetricsRegistry>`
//! from construction. The storage layer records into its [`Obs`] for
//! the database's whole lifetime (WAL append/fsync latency, checkpoint
//! stage timings, segment open counters — rare, coarse events), while
//! the per-query pipeline only records when profiling or a metrics
//! server puts the registry's `Obs` into the engine's telemetry handle
//! (`MatchOptions::telemetry`) — so an un-instrumented run still pays
//! nothing per element, and "no server attached" stays zero-cost on the
//! hot path. The registry is never reset: `--profile` reports a delta
//! from a mark ([`Obs::mark`]), so health signals (CRC failures, WAL
//! size) survive profiling.
//!
//! The slow-query log is one bounded ring of [`SlowQuery`] entries
//! (each with its EXPLAIN tree) that both
//! [`Database::slow_queries`](crate::Database::slow_queries) and `/slow`
//! read. The registry is what the HTTP endpoints read from another
//! thread mid-query: counters and gauges are atomics, the slow ring and
//! the health notes sit behind short-lived mutexes, and nothing here
//! ever blocks on query execution.

use gql_core::obs::json::escape;
use gql_core::{ExplainNode, Obs};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Slow queries kept (oldest evicted first).
pub const SLOW_RING_CAP: usize = 64;

/// Default WAL-size threshold for `/healthz` degradation: a WAL this
/// large means checkpoints are overdue and recovery time is growing.
const DEFAULT_WAL_THRESHOLD: u64 = 64 * 1024 * 1024;

/// One slow-query log entry: a FLWR statement whose wall-clock time met
/// the [`Database::set_slow_query_threshold`](crate::Database::set_slow_query_threshold)
/// threshold, captured with its `EXPLAIN ANALYZE` operator tree.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Query id shared with the statement's EXPLAIN tree (`query_id`
    /// prop), trace events, and the `/slow` endpoint — the correlation
    /// key across all telemetry surfaces.
    pub id: u64,
    /// Name of the pattern the `for` clause matched.
    pub pattern: String,
    /// Name of the collection queried.
    pub source: String,
    /// Wall-clock time of the whole FLWR statement.
    pub elapsed: Duration,
    /// The statement's `EXPLAIN ANALYZE` tree.
    pub explain: ExplainNode,
}

/// Locks one of the registry's short-lived mutexes.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("metrics registry poisoned")
}

/// Point-in-time health assessment (the `/healthz` payload).
#[derive(Debug, Clone)]
pub struct Health {
    /// True when nothing below degrades the database.
    pub ok: bool,
    /// Rendered `/healthz` JSON body.
    pub json: String,
}

/// The process-wide metrics plane of one [`Database`](crate::Database):
/// an aggregating [`Obs`], monotonically increasing query ids, the
/// slow-query ring, and the degradation notes `/healthz` reports.
#[derive(Debug)]
pub struct MetricsRegistry {
    obs: Arc<Obs>,
    next_query_id: AtomicU64,
    wal_threshold: AtomicU64,
    slow: Mutex<VecDeque<SlowQuery>>,
    slow_total: AtomicU64,
    storage_error: Mutex<Option<String>>,
    /// Outcome of the most recent checkpoint (`None` before the first).
    checkpoint: Mutex<Option<Result<(), String>>>,
}

impl MetricsRegistry {
    /// A fresh registry with an empty [`Obs`] and default thresholds.
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry {
            obs: Obs::new(),
            next_query_id: AtomicU64::new(0),
            wal_threshold: AtomicU64::new(DEFAULT_WAL_THRESHOLD),
            slow: Mutex::new(VecDeque::new()),
            slow_total: AtomicU64::new(0),
            storage_error: Mutex::new(None),
            checkpoint: Mutex::new(None),
        })
    }

    /// The registry's metrics sink — what the storage layer records
    /// into always, and what the engine's telemetry handle aggregates
    /// into when profiling or a metrics server is attached.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Allocates the next query id (1, 2, …). Ids are assigned in
    /// statement order, so for a fixed program they are deterministic
    /// across thread counts and open modes.
    pub fn next_query_id(&self) -> u64 {
        self.next_query_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// WAL size (bytes) above which `/healthz` reports degraded.
    pub fn set_wal_threshold(&self, bytes: u64) {
        self.wal_threshold.store(bytes, Ordering::Relaxed);
    }

    /// Pushes one entry onto the slow ring (oldest evicted at
    /// [`SLOW_RING_CAP`]).
    pub fn record_slow(&self, entry: SlowQuery) {
        self.slow_total.fetch_add(1, Ordering::Relaxed);
        let mut ring = lock(&self.slow);
        if ring.len() == SLOW_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The retained slow queries, oldest first (at most
    /// [`SLOW_RING_CAP`]).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        lock(&self.slow).iter().cloned().collect()
    }

    /// Slow queries recorded over the registry's lifetime, evicted ones
    /// included.
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// Notes a storage-layer failure (WAL append error, rejected
    /// checkpoint adoption); `/healthz` reports degraded until the
    /// process restarts — storage errors are not self-healing.
    pub fn note_storage_error(&self, msg: &str) {
        lock(&self.storage_error).get_or_insert_with(|| msg.to_string());
    }

    /// Records the outcome of a checkpoint attempt.
    pub fn note_checkpoint(&self, result: Result<(), &str>) {
        *lock(&self.checkpoint) = Some(result.map_err(str::to_string));
    }

    /// The `/metrics` body: Prometheus exposition of the full registry.
    pub fn render_metrics(&self) -> String {
        self.obs.report().render_prometheus()
    }

    /// The `/slow` body: a JSON array of ring entries, oldest first.
    pub fn render_slow(&self) -> String {
        let ring = lock(&self.slow);
        let mut s = String::from("[");
        for (i, e) in ring.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"id\": {}, \"pattern\": \"{}\", \"source\": \"{}\", \"elapsed_ms\": {}}}",
                if i == 0 { "\n  " } else { ",\n  " },
                e.id,
                escape(&e.pattern),
                escape(&e.source),
                e.elapsed.as_secs_f64() * 1e3,
            );
        }
        if !ring.is_empty() {
            s.push('\n');
        }
        s.push_str("]\n");
        s
    }

    /// Assesses health for `/healthz`: degraded on any recorded storage
    /// error, any CRC failure, a WAL past its threshold, or a failed
    /// last checkpoint.
    pub fn health(&self) -> Health {
        let report = self.obs.report();
        let crc_fail = report.counter("storage.crc_fail").unwrap_or(0);
        let wal_size = report.gauge("storage.wal_size").unwrap_or(0);
        let wal_threshold = self.wal_threshold.load(Ordering::Relaxed);
        let storage_error = lock(&self.storage_error).clone();
        let checkpoint = lock(&self.checkpoint).clone();
        let slow_queries = lock(&self.slow).len();
        let ok = storage_error.is_none()
            && crc_fail == 0
            && wal_size <= wal_threshold
            && !matches!(checkpoint, Some(Err(_)));

        let quoted = |s: &str| format!("\"{}\"", escape(s));
        let storage_error = storage_error.as_deref().map_or("null".into(), quoted);
        let last_checkpoint = match &checkpoint {
            None => "null".to_string(),
            Some(Ok(())) => quoted("ok"),
            Some(Err(e)) => quoted(&format!("failed: {e}")),
        };
        let json = format!(
            "{{\n  \"status\": \"{}\",\n  \"wal_size\": {wal_size},\n  \"wal_threshold\": {wal_threshold},\n  \
             \"crc_fail\": {crc_fail},\n  \"storage_error\": {storage_error},\n  \
             \"last_checkpoint\": {last_checkpoint},\n  \"queries\": {},\n  \"slow_queries\": {slow_queries}\n}}\n",
            if ok { "ok" } else { "degraded" },
            self.next_query_id.load(Ordering::Relaxed),
        );
        Health { ok, json }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_core::validate_json;

    #[test]
    fn fresh_registry_is_healthy_and_valid_json() {
        let reg = MetricsRegistry::new();
        let h = reg.health();
        assert!(h.ok);
        assert!(h.json.contains("\"status\": \"ok\""), "{}", h.json);
        validate_json(&h.json).unwrap();
        validate_json(&reg.render_slow()).unwrap();
        gql_core::validate_prometheus(&reg.render_metrics()).unwrap();
    }

    #[test]
    fn degradation_signals_flip_health() {
        // CRC failure.
        let reg = MetricsRegistry::new();
        reg.obs().add("storage.crc_fail", 1);
        let h = reg.health();
        assert!(!h.ok);
        assert!(h.json.contains("\"crc_fail\": 1"), "{}", h.json);
        validate_json(&h.json).unwrap();

        // WAL past threshold.
        let reg = MetricsRegistry::new();
        reg.set_wal_threshold(100);
        reg.obs().set_gauge("storage.wal_size", 101);
        assert!(!reg.health().ok);
        reg.obs().set_gauge("storage.wal_size", 100);
        assert!(reg.health().ok, "at-threshold is still ok");

        // Storage error and failed checkpoint.
        let reg = MetricsRegistry::new();
        reg.note_storage_error("disk \"full\"");
        assert!(!reg.health().ok);
        validate_json(&reg.health().json).unwrap();
        let reg = MetricsRegistry::new();
        reg.note_checkpoint(Err("rename failed"));
        let h = reg.health();
        assert!(!h.ok);
        assert!(h.json.contains("failed: rename failed"), "{}", h.json);
        reg.note_checkpoint(Ok(()));
        assert!(reg.health().ok);
    }

    #[test]
    fn slow_ring_caps_and_renders() {
        let reg = MetricsRegistry::new();
        for i in 0..(SLOW_RING_CAP as u64 + 10) {
            reg.record_slow(SlowQuery {
                id: i + 1,
                pattern: "P".into(),
                source: "db".into(),
                elapsed: Duration::from_millis(i + 1),
                explain: ExplainNode::new("flwr"),
            });
        }
        assert_eq!(reg.slow_total(), SLOW_RING_CAP as u64 + 10);
        let kept: Vec<u64> = reg.slow_queries().iter().map(|q| q.id).collect();
        assert_eq!(kept, (11..=SLOW_RING_CAP as u64 + 10).collect::<Vec<_>>());
        let body = reg.render_slow();
        validate_json(&body).unwrap();
        assert!(!body.contains("\"id\": 10"), "oldest entries evicted");
        assert!(body.contains(&format!("\"id\": {}", SLOW_RING_CAP as u64 + 10)));
        assert_eq!(body.matches("\"id\":").count(), SLOW_RING_CAP);
    }

    #[test]
    fn query_ids_are_sequential_from_one() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.next_query_id(), 1);
        assert_eq!(reg.next_query_id(), 2);
    }
}

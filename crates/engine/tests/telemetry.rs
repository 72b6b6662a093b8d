//! Live telemetry plane integration suite: the `/metrics`, `/healthz`,
//! and `/slow` endpoints must answer from a second thread while a query
//! is executing, expose only exposition-valid metric names, and change
//! nothing about query results at any thread count.

use gql_datagen::{erdos_renyi, ErConfig};
use gql_engine::Database;
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const QUERY: &str = r#"
    for graph Q {
        node a <label="L00">;
        node b <label="L01">;
        edge e (a, b);
    } exhaustive in doc("G")
    return graph { node n <who=Q.a.label>; };
"#;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gql-telemetry-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn test_collection(graphs: u64, nodes: usize) -> gql_core::GraphCollection {
    let mut coll = gql_core::GraphCollection::named("G");
    for seed in 0..graphs {
        coll.push(erdos_renyi(&ErConfig {
            nodes,
            edges: nodes * 3,
            labels: 6,
            seed: 0x7E1E ^ seed,
        }));
    }
    coll
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn run_query(db: &mut Database) -> Vec<String> {
    let out = db.execute(QUERY).expect("query");
    out.returned
        .iter()
        .flat_map(|c| c.iter().map(|g| g.to_string()))
        .collect()
}

/// The acceptance criterion: all three endpoints answer correctly from
/// a scraper thread *while* queries are executing on the main thread,
/// and every scraped exposition is format-valid.
#[test]
fn endpoints_answer_mid_query_from_another_thread() {
    let mut db = Database::new().with_threads(2);
    db.add_collection("G", test_collection(4, 200));
    db.set_slow_query_threshold(Duration::ZERO); // every query logs
    let addr = db.serve_metrics("127.0.0.1:0").expect("serve");
    assert_eq!(db.metrics_addr(), Some(addr));

    let done = Arc::new(AtomicBool::new(false));
    let scraper_done = Arc::clone(&done);
    let scraper = std::thread::spawn(move || {
        let mut scrapes = 0usize;
        loop {
            let (status, body) = http_get(addr, "/metrics");
            assert!(status.contains("200"), "{status}");
            gql_core::validate_prometheus(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
            let (status, body) = http_get(addr, "/healthz");
            assert!(status.contains("200"), "{status}: {body}");
            gql_core::validate_json(&body).expect("healthz json");
            let (status, body) = http_get(addr, "/slow");
            assert!(status.contains("200"), "{status}");
            gql_core::validate_json(&body).expect("slow json");
            scrapes += 1;
            if scraper_done.load(Ordering::SeqCst) {
                return scrapes;
            }
        }
    });

    // Enough work that many scrapes land mid-query.
    let first = run_query(&mut db);
    for _ in 0..8 {
        assert_eq!(run_query(&mut db), first);
    }
    done.store(true, Ordering::SeqCst);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0);

    // After the run, the scraped state reflects the queries: counters
    // aggregated across statements, slow ring populated, ids assigned.
    let (_, metrics) = http_get(addr, "/metrics");
    assert!(
        metrics.contains("gql_engine_flwr_seconds_count 9"),
        "{metrics}"
    );
    let (_, slow) = http_get(addr, "/slow");
    assert!(slow.contains("\"id\": 1"), "{slow}");
    assert!(slow.contains("\"id\": 9"), "{slow}");
    assert!(slow.contains("\"source\": \"G\""), "{slow}");
    let slow_queries = db.slow_queries();
    assert_eq!(slow_queries.len(), 9);
    assert_eq!(slow_queries[0].id, 1);
    assert_eq!(slow_queries[8].id, 9, "slow-log ids correlate");
}

/// Telemetry must be invisible to results: at 1, 2, and 8 threads the
/// rendered result set is byte-identical with the server on and off.
#[test]
fn results_are_byte_identical_with_server_on_and_off_at_1_2_8_threads() {
    let dir = tmpdir("onoff");
    {
        let mut db = Database::open(&dir).expect("create");
        db.add_collection("G", test_collection(3, 120));
        db.close().expect("checkpoint");
    }
    let mut baseline: Option<Vec<String>> = None;
    for threads in [1usize, 2, 8] {
        for server in [false, true] {
            let mut db = Database::open(&dir).expect("open").with_threads(threads);
            if server {
                let addr = db.serve_metrics("127.0.0.1:0").expect("serve");
                // Scrape while open so the server demonstrably runs.
                let (status, _) = http_get(addr, "/healthz");
                assert!(status.contains("200"), "{status}");
            }
            let results = run_query(&mut db);
            assert!(!results.is_empty());
            match &baseline {
                None => baseline = Some(results),
                Some(b) => assert_eq!(
                    b, &results,
                    "threads={threads} server={server}: results diverged"
                ),
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// Storage instrumentation flows into the registry at open and through
/// queries: WAL appends, checkpoint stages, and segment-open counters
/// are all visible in one `/metrics` scrape.
#[test]
fn storage_metrics_surface_in_the_exposition() {
    let dir = tmpdir("storage");
    {
        let mut db = Database::open(&dir).expect("create");
        db.add_collection("G", test_collection(2, 80));
        // A `let` body appends to the WAL mid-program.
        db.execute(
            r#"
            for graph Q { node a <label="L00">; } in doc("G")
            let acc := graph { node n <who=Q.a.label>; };
        "#,
        )
        .expect("let query");
        db.checkpoint().expect("checkpoint");
        let report = db.metrics().obs().report();
        assert!(report.counter("storage.wal.appends").unwrap_or(0) >= 2);
        assert_eq!(report.counter("storage.checkpoints"), Some(1));
        assert!(report.phase("storage.checkpoint.write").is_some());
        assert!(report.phase("storage.checkpoint.manifest").is_some());
        assert!(report.phase("storage.wal.fsync").is_some());
        assert_eq!(report.gauge("storage.wal_size"), Some(0), "post-checkpoint");
        db.close().expect("close");
    }
    // Reopen: segment-open and replay counters land in the fresh
    // registry, and the exposition stays valid end to end.
    let mut db = Database::open(&dir).expect("reopen");
    let addr = db.serve_metrics("127.0.0.1:0").expect("serve");
    let (_, body) = http_get(addr, "/metrics");
    gql_core::validate_prometheus(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    assert!(body.contains("gql_storage_segment_open_total 1"), "{body}");
    assert!(body.contains("gql_storage_live_segment_bytes "), "{body}");
    let report = db.metrics().obs().report();
    if cfg!(unix) {
        assert_eq!(report.counter("storage.segment.mapped"), Some(1));
    }
    // The WAL delta of a `let` statement surfaces in its EXPLAIN tree.
    db.enable_explain();
    db.execute(
        r#"
        for graph Q { node a <label="L00">; } in doc("G")
        let acc := graph { node n <who=Q.a.label>; };
    "#,
    )
    .expect("let query");
    let tree = db.explain_trees().last().expect("explain tree");
    let props: Vec<&str> = tree.props.iter().map(|(k, _)| k.as_str()).collect();
    assert!(props.contains(&"query_id"), "{props:?}");
    assert!(props.contains(&"wal_appends"), "{props:?}");
    assert!(props.contains(&"wal_bytes"), "{props:?}");
    fs::remove_dir_all(&dir).ok();
}

/// A deferred WAL failure degrades `/healthz` (503) — the health model
/// covers storage errors, not just CRC failures.
#[test]
fn healthz_degrades_on_storage_error() {
    let mut db = Database::new();
    db.add_collection("G", test_collection(1, 40));
    let addr = db.serve_metrics("127.0.0.1:0").expect("serve");
    let (status, _) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    db.metrics().note_storage_error("simulated wal failure");
    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("503"), "{status}");
    assert!(body.contains("simulated wal failure"), "{body}");
}

/// Sends `request` (tolerating the server hanging up mid-write) and
/// returns the status line of whatever response arrived.
fn status_of_oversized(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // The server answers and closes after reading its cap, so the tail
    // of the write may fail with a reset; the response is already queued.
    let _ = stream.write_all(request);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response)
        .lines()
        .next()
        .unwrap_or("")
        .to_string()
}

/// ROADMAP 4f: a request line or header block beyond the caps is
/// answered with an error status after a bounded read — the server
/// never buffers it — and the next scrape still answers.
#[test]
fn oversized_requests_are_rejected_and_the_server_keeps_answering() {
    let mut db = Database::new();
    let addr = db.serve_metrics("127.0.0.1:0").expect("serve");

    let mut long_line = b"GET /".to_vec();
    long_line.resize(1 << 20, b'a');
    long_line.extend_from_slice(b" HTTP/1.1\r\nHost: x\r\n\r\n");
    let status = status_of_oversized(addr, &long_line);
    assert!(status.starts_with("HTTP/1.1 400"), "{status:?}");
    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}: {body}");

    let mut many_headers = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..4096 {
        many_headers.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "b".repeat(64)).as_bytes());
    }
    many_headers.extend_from_slice(b"\r\n");
    let status = status_of_oversized(addr, &many_headers);
    assert!(status.starts_with("HTTP/1.1 431"), "{status:?}");
    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}: {body}");
}

/// Starting a profile must not wipe what `/healthz` and `/metrics`
/// read: a WAL past its threshold stays degraded and the open-time
/// storage counters stay exposed, while the profile itself still
/// reports only what ran after it started.
#[test]
fn enabling_profiling_keeps_health_signals_and_storage_metrics() {
    let dir = tmpdir("profilehealth");
    {
        let mut db = Database::open(&dir).expect("create");
        db.add_collection("G", test_collection(1, 40));
        db.close().expect("checkpoint");
    }
    let mut db = Database::open(&dir).expect("reopen");
    let addr = db.serve_metrics("127.0.0.1:0").expect("serve");
    db.add_collection("H", test_collection(1, 40)); // one WAL append
    db.metrics().set_wal_threshold(1);
    assert!(!db.metrics().health().ok, "WAL past its threshold");

    db.enable_profiling();
    let health = db.metrics().health();
    assert!(!health.ok, "profiling hid a degraded WAL: {}", health.json);
    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("503"), "{status}: {body}");
    let (_, metrics) = http_get(addr, "/metrics");
    assert!(
        metrics.contains("gql_storage_segment_open_total 1"),
        "{metrics}"
    );

    run_query(&mut db);
    let profile = db.profile_report();
    assert_eq!(profile.counter("storage.segment.open"), None);
    assert_eq!(profile.phase("engine.flwr").map(|p| p.count), Some(1));
    fs::remove_dir_all(&dir).ok();
}

/// The slow-query log is one bounded ring: past its capacity the oldest
/// statements are evicted from `Database::slow_queries` and `/slow`
/// alike.
#[test]
fn slow_log_keeps_only_the_most_recent_statements() {
    let mut db = Database::new();
    db.add_collection("G", test_collection(1, 40));
    db.set_slow_query_threshold(Duration::ZERO);
    let addr = db.serve_metrics("127.0.0.1:0").expect("serve");
    for _ in 0..74 {
        run_query(&mut db);
    }
    let ids: Vec<u64> = db.slow_queries().iter().map(|q| q.id).collect();
    assert_eq!(ids, (11..=74).collect::<Vec<u64>>());
    let (_, slow) = http_get(addr, "/slow");
    assert_eq!(slow.matches("\"id\":").count(), 64, "{slow}");
    assert!(slow.contains("\"id\": 11,") && !slow.contains("\"id\": 10,"));
}

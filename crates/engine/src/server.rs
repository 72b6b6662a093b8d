//! A std-only background HTTP server over a [`MetricsRegistry`] — the
//! live read side of the telemetry plane.
//!
//! No external dependencies (matching the `mmap(2)` FFI precedent in
//! `gql-storage`): a `TcpListener` on a background thread, one request
//! per connection, three GET routes:
//!
//! - `/metrics` — Prometheus text exposition of the whole registry
//! - `/healthz` — JSON health assessment; HTTP 200 when ok, 503 when
//!   degraded (storage errors, CRC failures, oversized WAL, failed
//!   checkpoint)
//! - `/slow` — JSON array of recent slow queries (ring buffer)
//!
//! The registry is all atomics and short-lived mutexes, so every route
//! answers from a second thread *while a query is executing* — the
//! acceptance criterion the telemetry tests pin. Binding port 0 picks
//! an ephemeral port; [`MetricsServer::addr`] reports the real one.
//!
//! Shutdown (on drop) flips an atomic flag and self-connects to
//! unblock `accept`, then joins the thread — no busy-wait, no leaked
//! listener.

use crate::metrics::MetricsRegistry;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle on a running metrics server; dropping it stops the listener
/// thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The address actually bound (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop; an error just means the listener is
        // already gone.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9100`, port 0 for ephemeral) and
/// serves the registry's endpoints from a background thread until the
/// returned handle is dropped.
pub fn serve(
    registry: Arc<MetricsRegistry>,
    addr: impl ToSocketAddrs,
) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("gql-metrics".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // One request per connection; a stalled client times
                // out rather than wedging the loop.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                let _ = handle_connection(stream, &registry);
            }
        })?;
    Ok(MetricsServer {
        addr,
        shutdown,
        handle: Some(handle),
    })
}

/// Longest request line answered; a longer one gets `400`.
const MAX_REQUEST_LINE: u64 = 8 * 1024;
/// Most header bytes drained per request; more gets `431`.
const MAX_HEADER_BYTES: u64 = 16 * 1024;

/// Reads one `\n`-terminated line of at most `cap` bytes into `line`,
/// so a client cannot grow the buffer without bound inside the read
/// timeout. Returns false when the cap was reached before the line (or
/// the stream) ended.
fn read_line_capped(reader: &mut impl BufRead, cap: u64, line: &mut Vec<u8>) -> io::Result<bool> {
    line.clear();
    reader.take(cap).read_until(b'\n', line)?;
    Ok(line.last() == Some(&b'\n') || (line.len() as u64) < cap)
}

/// Sends the whole response in one write: after an oversized request
/// the unread tail turns the close into a reset, and a response split
/// over several writes could reach the client cut short.
fn respond(mut stream: TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn handle_connection(stream: TcpStream, registry: &MetricsRegistry) -> io::Result<()> {
    const PLAIN: &str = "text/plain; charset=utf-8";
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    if !read_line_capped(&mut reader, MAX_REQUEST_LINE, &mut line)? {
        let body = "request line too long\n";
        return respond(reader.into_inner(), "400 Bad Request", PLAIN, body);
    }
    let request_line = String::from_utf8_lossy(&line).into_owned();
    // Drain the remaining headers so well-behaved clients see a clean
    // close instead of a reset.
    let mut budget = MAX_HEADER_BYTES;
    loop {
        if !read_line_capped(&mut reader, budget, &mut line)? {
            let status = "431 Request Header Fields Too Large";
            return respond(reader.into_inner(), status, PLAIN, "headers too large\n");
        }
        if line.is_empty() || line == b"\r\n" || line == b"\n" {
            break;
        }
        budget -= line.len() as u64;
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            PLAIN,
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                registry.render_metrics(),
            ),
            "/healthz" => {
                let h = registry.health();
                (
                    if h.ok {
                        "200 OK"
                    } else {
                        "503 Service Unavailable"
                    },
                    "application/json; charset=utf-8",
                    h.json,
                )
            }
            "/slow" => (
                "200 OK",
                "application/json; charset=utf-8",
                registry.render_slow(),
            ),
            _ => (
                "404 Not Found",
                PLAIN,
                "not found; try /metrics, /healthz, /slow\n".to_string(),
            ),
        }
    };
    respond(reader.into_inner(), status, content_type, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal test client: one GET, returns (status line, body).
    pub(crate) fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
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

    #[test]
    fn serves_all_routes_and_stops_on_drop() {
        let reg = MetricsRegistry::new();
        reg.obs().add("engine.queries", 3);
        let server = serve(Arc::clone(&reg), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (status, body) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("gql_engine_queries_total 3"), "{body}");
        gql_core::validate_prometheus(&body).unwrap();

        let (status, body) = http_get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"status\": \"ok\""), "{body}");
        gql_core::validate_json(&body).unwrap();

        let (status, body) = http_get(addr, "/slow");
        assert!(status.contains("200"), "{status}");
        gql_core::validate_json(&body).unwrap();

        let (status, _) = http_get(addr, "/nope");
        assert!(status.contains("404"), "{status}");

        drop(server);
        // The port is released: a fresh bind to the same address works.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "listener still holds {addr}");
    }

    #[test]
    fn healthz_degrades_with_503() {
        let reg = MetricsRegistry::new();
        reg.obs().add("storage.crc_fail", 1);
        let server = serve(Arc::clone(&reg), "127.0.0.1:0").unwrap();
        let (status, body) = http_get(server.addr(), "/healthz");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("\"status\": \"degraded\""), "{body}");
    }

    /// The cap is exact: a line may fill it only if its newline fits,
    /// and a stream that ends early is a (short) complete line.
    #[test]
    fn capped_line_reads_stop_at_the_cap() {
        let mut line = Vec::new();
        let mut fits = &b"abc\nrest"[..];
        assert!(read_line_capped(&mut fits, 4, &mut line).unwrap());
        assert_eq!(line, b"abc\n");
        let mut over = &b"abcd\n"[..];
        assert!(!read_line_capped(&mut over, 4, &mut line).unwrap());
        assert_eq!(line, b"abcd", "nothing past the cap is buffered");
        let mut eof = &b"ab"[..];
        assert!(read_line_capped(&mut eof, 4, &mut line).unwrap());
        assert_eq!(line, b"ab");
        let mut any = &b"x\n"[..];
        assert!(!read_line_capped(&mut any, 0, &mut line).unwrap());
    }

    #[test]
    fn non_get_is_rejected() {
        let reg = MetricsRegistry::new();
        let server = serve(reg, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }
}

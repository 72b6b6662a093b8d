//! # gql-cli — command-line front-end
//!
//! ```text
//! gql run program.gql --data DBLP=papers.gql      # execute a program
//! gql match --graph g.gql --pattern p.gql         # pattern matching + stats
//! gql sql --graph g.gql --pattern p.gql           # show & run the Fig 4.2 SQL
//! ```
//!
//! The logic lives here (library) so it is testable; `main.rs` is a thin
//! wrapper.

#![warn(missing_docs)]

use gql_algebra::compile_pattern_text;
use gql_core::GraphCollection;
use gql_engine::{collection_from_text, Database};
use gql_match::{match_pattern, GraphIndex, MatchOptions};
use gql_relational::{graph_to_database, pattern_to_sql, ExecLimits};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// CLI error: message + exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }

    fn run(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 1,
        }
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, CliError>;

/// What a command prints: query results go to `stdout`, everything
/// else — load notices, profiles, EXPLAIN trees, the slow-query log —
/// goes to `stderr`, so `gql run … > results.txt` captures results
/// alone.
#[derive(Debug, Default, PartialEq)]
pub struct Output {
    /// Query results (and nothing else, for `run`).
    pub stdout: String,
    /// Diagnostics: notices, profiles, EXPLAIN output, slow queries.
    pub stderr: String,
}

/// Output format for `--profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFormat {
    /// Human-readable table.
    Text,
    /// Machine-readable JSON.
    Json,
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `gql run <program> [--data NAME=PATH]... [--threads N]
    /// [--profile[=json]] [--explain[=json]] [--trace FILE]
    /// [--slow-ms N] [--metrics FILE] [--metrics-addr ADDR]
    /// [--metrics-linger-ms N] [--data-dir DIR] [--checkpoint]
    /// [--verify-checkpoint]`
    Run {
        /// Program file path.
        program: String,
        /// Named data files.
        data: Vec<(String, String)>,
        /// Worker threads for σ evaluation (0 = available cores).
        threads: usize,
        /// Print a pipeline profile after execution.
        profile: Option<ProfileFormat>,
        /// Print an EXPLAIN ANALYZE operator tree per FLWR expression.
        explain: Option<ProfileFormat>,
        /// Write a Chrome trace-event JSON timeline to this file.
        trace: Option<String>,
        /// Log statements slower than this many milliseconds.
        slow_ms: Option<u64>,
        /// Write Prometheus text-exposition metrics to this file.
        metrics: Option<String>,
        /// Serve live telemetry over HTTP while the program runs:
        /// `/metrics` (Prometheus), `/healthz` (JSON, 503 when
        /// degraded), `/slow` (JSON slow-query ring). Port 0 binds an
        /// ephemeral port; the bound address is printed to stderr
        /// immediately.
        metrics_addr: Option<String>,
        /// Keep the process (and the telemetry endpoints) alive this
        /// many milliseconds after the program completes, so an
        /// external scraper can read the final state. Requires
        /// `--metrics-addr`.
        metrics_linger_ms: Option<u64>,
        /// Persistent data directory: open with WAL replay + checkpoint
        /// segments, and log every mutation the program makes.
        data_dir: Option<String>,
        /// Write a checkpoint (and truncate the WAL) after the program
        /// completes. Requires `--data-dir`.
        checkpoint: bool,
        /// Verify every section checksum of the checkpoint eagerly at
        /// open (`--verify-checkpoint`; default is lazy per-section
        /// verification on the mapped path).
        verify: bool,
    },
    /// `gql match --graph PATH --pattern PATH [--baseline] [--first]
    /// [--threads N]`
    Match {
        /// Data graph file.
        graph: String,
        /// Pattern file.
        pattern: String,
        /// Use the baseline configuration.
        baseline: bool,
        /// Stop at the first match.
        first: bool,
        /// Worker threads for index build and search (0 = available
        /// cores).
        threads: usize,
    },
    /// `gql sql --graph PATH --pattern PATH`
    Sql {
        /// Data graph file.
        graph: String,
        /// Pattern file.
        pattern: String,
    },
    /// `gql help`
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
gql — Graphs-at-a-time query language (He & Singh, SIGMOD 2008)

USAGE:
    gql run <program.gql> [--data NAME=PATH]... [--threads N] [--profile[=json]]
            [--explain[=json]] [--trace FILE] [--slow-ms N] [--metrics FILE]
            [--metrics-addr ADDR] [--metrics-linger-ms N]
            [--data-dir DIR] [--checkpoint] [--verify-checkpoint]
    gql match --graph <data.gql> --pattern <pattern.gql> [--baseline] [--first] [--threads N]
    gql sql   --graph <data.gql> --pattern <pattern.gql>
    gql help

Query results are the only thing `run` writes to stdout; load notices,
profiles, EXPLAIN trees, and the slow-query log go to stderr.

`--threads N` runs the selection pipeline on N workers (0 = one per
available core; default 1). Results are identical for any setting.

`--profile` appends a per-phase breakdown of the pipeline (retrieval,
refinement, search, operator timings) after the results; `--profile=json`
emits the same report as JSON.

`--explain` prints an EXPLAIN ANALYZE operator tree per FLWR expression
(flwr → σ → retrieval/refinement/search) annotated with cardinalities,
pruning ratios, and timings; `--explain=json` emits the trees as a JSON
array.

`--trace FILE` records begin/end events for every pipeline phase on
every worker thread and writes a Chrome trace-event JSON timeline to
FILE — open it at https://ui.perfetto.dev to see the query on a
per-thread timeline.

`--slow-ms N` logs any statement slower than N milliseconds together
with its EXPLAIN ANALYZE tree.

`--metrics FILE` writes the pipeline counters and phase timings to FILE
in Prometheus text exposition format.

`--metrics-addr ADDR` (e.g. 127.0.0.1:9184, port 0 for ephemeral)
starts a background HTTP server for the duration of the run serving
live telemetry — readable from another process mid-query:

    /metrics   Prometheus text exposition (counters, gauges, timings)
    /healthz   JSON health: \"ok\" or \"degraded\" (503) on storage
               errors, CRC failures, an oversized WAL, or a failed
               checkpoint
    /slow      JSON ring of the most recent slow statements

The bound address is printed to stderr as soon as the server is up.
Serving telemetry never changes query results.

`--metrics-linger-ms N` (requires --metrics-addr) keeps the endpoints
alive N milliseconds after the program completes so a scraper can
collect the final state.

`--data-dir DIR` opens DIR as a persistent database: checkpoint
segments are loaded (indexes restored without a rebuild; planner
feedback is not persisted and starts empty), the write-ahead log is
replayed on top (a torn tail is truncated), and every mutation the
program makes — collections loaded with --data, `let` variables,
assignments — is logged to the WAL before it is applied. The directory
is created if missing.

`--checkpoint` (requires --data-dir) writes a checkpoint after the
program completes: the full state is serialized to a new segment,
the manifest is atomically switched, the WAL is truncated, and older
segments are removed. The next `--data-dir` open is then a segment
read, not a replay or rebuild.

`--verify-checkpoint` (requires --data-dir) checksums the entire
checkpoint eagerly at open. The default open memory-maps the segment
(index arrays are adopted zero-copy and fault in on demand), verifies the header
and section directory eagerly but defers per-section payload checksums
until a section is actually decoded (index sections are validated
structurally on adoption instead) — corruption is still always a loud
error, just possibly reported at first use rather than at open.
";

/// The value after `flag`, or a usage error saying what it needs.
fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str, what: &str) -> Result<&'a String> {
    it.next()
        .ok_or_else(|| CliError::usage(format!("{flag} needs {what}")))
}

/// The value after `flag`, parsed.
fn number<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<T> {
    let v = value(it, flag, what)?;
    v.parse()
        .map_err(|_| CliError::usage(format!("bad {flag} value {v:?}")))
}

/// Parses argv (without the binary name).
pub fn parse_args(args: &[String]) -> Result<Command> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("run") => {
            let mut program = None;
            let mut data = Vec::new();
            let mut threads = 1;
            let mut profile = None;
            let mut explain = None;
            let mut trace = None;
            let mut slow_ms = None;
            let mut metrics = None;
            let mut metrics_addr = None;
            let mut metrics_linger_ms = None;
            let mut data_dir = None;
            let mut checkpoint = false;
            let mut verify = false;
            while let Some(a) = it.next() {
                if a == "--verify-checkpoint" {
                    verify = true;
                } else if a == "--profile" || a == "--profile=text" {
                    profile = Some(ProfileFormat::Text);
                } else if a == "--profile=json" {
                    profile = Some(ProfileFormat::Json);
                } else if let Some(fmt) = a.strip_prefix("--profile=") {
                    return Err(CliError::usage(format!("bad --profile format {fmt:?}")));
                } else if a == "--explain" || a == "--explain=text" {
                    explain = Some(ProfileFormat::Text);
                } else if a == "--explain=json" {
                    explain = Some(ProfileFormat::Json);
                } else if let Some(fmt) = a.strip_prefix("--explain=") {
                    return Err(CliError::usage(format!("bad --explain format {fmt:?}")));
                } else if a == "--trace" {
                    trace = Some(value(&mut it, a, "a file path")?.clone());
                } else if a == "--metrics" {
                    metrics = Some(value(&mut it, a, "a file path")?.clone());
                } else if a == "--metrics-addr" {
                    metrics_addr = Some(value(&mut it, a, "host:port")?.clone());
                } else if a == "--metrics-linger-ms" {
                    metrics_linger_ms = Some(number(&mut it, a, "a duration")?);
                } else if a == "--slow-ms" {
                    slow_ms = Some(number(&mut it, a, "a threshold")?);
                } else if a == "--data-dir" {
                    data_dir = Some(value(&mut it, a, "a directory")?.clone());
                } else if a == "--checkpoint" {
                    checkpoint = true;
                } else if a == "--data" {
                    let spec = value(&mut it, a, "NAME=PATH")?;
                    let (name, path) = spec
                        .split_once('=')
                        .ok_or_else(|| CliError::usage(format!("bad --data spec {spec:?}")))?;
                    data.push((name.to_string(), path.to_string()));
                } else if a == "--threads" {
                    threads = number(&mut it, a, "a count")?;
                } else if program.is_none() && !a.starts_with("--") {
                    program = Some(a.clone());
                } else {
                    return Err(CliError::usage(format!("unexpected argument {a:?}")));
                }
            }
            if checkpoint && data_dir.is_none() {
                return Err(CliError::usage("--checkpoint requires --data-dir"));
            }
            if verify && data_dir.is_none() {
                return Err(CliError::usage("--verify-checkpoint requires --data-dir"));
            }
            if metrics_linger_ms.is_some() && metrics_addr.is_none() {
                return Err(CliError::usage(
                    "--metrics-linger-ms requires --metrics-addr",
                ));
            }
            Ok(Command::Run {
                program: program.ok_or_else(|| CliError::usage("run needs a program file"))?,
                data,
                threads,
                profile,
                explain,
                trace,
                slow_ms,
                metrics,
                metrics_addr,
                metrics_linger_ms,
                data_dir,
                checkpoint,
                verify,
            })
        }
        Some(cmd @ ("match" | "sql")) => {
            let mut graph = None;
            let mut pattern = None;
            let mut baseline = false;
            let mut first = false;
            let mut threads = 1;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--graph" => graph = it.next().cloned(),
                    "--pattern" => pattern = it.next().cloned(),
                    "--baseline" => baseline = true,
                    "--first" => first = true,
                    "--threads" => threads = number(&mut it, a, "a count")?,
                    other => return Err(CliError::usage(format!("unexpected argument {other:?}"))),
                }
            }
            let graph = graph.ok_or_else(|| CliError::usage("--graph is required"))?;
            let pattern = pattern.ok_or_else(|| CliError::usage("--pattern is required"))?;
            if cmd == "match" {
                Ok(Command::Match {
                    graph,
                    pattern,
                    baseline,
                    first,
                    threads,
                })
            } else {
                Ok(Command::Sql { graph, pattern })
            }
        }
        Some(other) => Err(CliError::usage(format!("unknown command {other:?}"))),
    }
}

fn read(path: &str) -> Result<String> {
    std::fs::read_to_string(path).map_err(|e| CliError::run(format!("cannot read {path:?}: {e}")))
}

fn load_graph(path: &str) -> Result<gql_core::Graph> {
    gql_engine::graph_from_text(&read(path)?).map_err(|e| CliError::run(format!("{path}: {e}")))
}

/// Executes a parsed command, returning the text for each stream.
pub fn execute(cmd: Command) -> Result<Output> {
    let mut out = Output::default();
    match cmd {
        Command::Help => out.stdout.push_str(USAGE),
        Command::Run {
            program,
            data,
            threads,
            profile,
            explain,
            trace,
            slow_ms,
            metrics,
            metrics_addr,
            metrics_linger_ms,
            data_dir,
            checkpoint,
            verify,
        } => {
            let base = match &data_dir {
                Some(dir) => {
                    let open_opts = gql_engine::OpenOptions {
                        verify,
                        ..Default::default()
                    };
                    let db = Database::open_with(Path::new(dir), open_opts)
                        .map_err(|e| CliError::run(format!("cannot open {dir:?}: {e}")))?;
                    let _ = writeln!(
                        out.stderr,
                        "opened {dir} ({}): {} collection(s), wal {} byte(s)",
                        if db.is_mapped() { "mapped" } else { "owned" },
                        db.collections().count(),
                        db.wal_size().unwrap_or(0)
                    );
                    db
                }
                None => Database::new(),
            };
            let mut db = base.with_threads(threads);
            if let Some(addr) = &metrics_addr {
                let bound = db
                    .serve_metrics(addr.as_str())
                    .map_err(|e| CliError::run(format!("cannot serve metrics on {addr:?}: {e}")))?;
                // Printed immediately (not via `out.stderr`, which the
                // caller flushes only at exit) so an external scraper
                // can discover an ephemeral port while the run is live.
                eprintln!("metrics server listening on http://{bound}/metrics");
            }
            if profile.is_some() || metrics.is_some() {
                db.enable_profiling();
            }
            if explain.is_some() {
                db.enable_explain();
            }
            let tracing = trace.as_ref().map(|_| db.enable_tracing());
            if let Some(ms) = slow_ms {
                db.set_slow_query_threshold(Duration::from_millis(ms));
            }
            for (name, path) in data {
                let c: GraphCollection = collection_from_text(&read(&path)?)
                    .map_err(|e| CliError::run(format!("{path}: {e}")))?;
                let _ = writeln!(out.stderr, "loaded {name}: {} graph(s)", c.len());
                db.add_collection(name, c);
            }
            let src = read(&program)?;
            let result = db
                .execute(&src)
                .map_err(|e| CliError::run(format!("{program}: {e}")))?;
            for (i, coll) in result.returned.iter().enumerate() {
                let _ = writeln!(
                    out.stdout,
                    "-- result {} ({} graph(s)) --",
                    i + 1,
                    coll.len()
                );
                for g in coll {
                    let _ = writeln!(out.stdout, "{g}");
                }
            }
            // `let` accumulators are the result of queries like the
            // paper's Figure 4.12; show their final state.
            let mut vars: Vec<(&str, &gql_core::Graph)> = db.vars().collect();
            vars.sort_by_key(|(k, _)| k.to_string());
            for (name, g) in vars {
                let _ = writeln!(
                    out.stdout,
                    "-- variable {name} ({} node(s), {} edge(s)) --\n{g}",
                    g.node_count(),
                    g.edge_count()
                );
            }
            if checkpoint {
                db.checkpoint()
                    .map_err(|e| CliError::run(format!("checkpoint failed: {e}")))?;
                let _ = writeln!(
                    out.stderr,
                    "checkpoint written to {}",
                    data_dir.as_deref().unwrap_or("?")
                );
            } else if let Some(msg) = db.storage_error() {
                let _ = writeln!(out.stderr, "warning: WAL append failed: {msg}");
            }
            out.stderr.push_str("ok\n");
            match profile {
                Some(ProfileFormat::Text) => {
                    let _ = writeln!(
                        out.stderr,
                        "\n-- profile --\n{}",
                        db.profile_report().render_text()
                    );
                }
                Some(ProfileFormat::Json) => {
                    let _ = writeln!(out.stderr, "{}", db.profile_report().render_json());
                }
                None => {}
            }
            match explain {
                Some(ProfileFormat::Text) => {
                    let _ = writeln!(out.stderr, "\n-- explain --");
                    for tree in db.explain_trees() {
                        out.stderr.push_str(&tree.render_text());
                    }
                }
                Some(ProfileFormat::Json) => {
                    let trees: Vec<String> = db
                        .explain_trees()
                        .iter()
                        .map(gql_core::ExplainNode::render_json)
                        .collect();
                    let _ = writeln!(out.stderr, "[{}]", trees.join(","));
                }
                None => {}
            }
            if slow_ms.is_some() {
                // The log keeps the most recent statements; the header
                // counts all of them.
                let slow = db.slow_queries();
                if !slow.is_empty() {
                    let total = db.metrics().slow_total();
                    let shown = if total > slow.len() as u64 {
                        format!(", last {} shown", slow.len())
                    } else {
                        String::new()
                    };
                    let _ = writeln!(out.stderr, "\n-- slow queries ({total}{shown}) --");
                    for q in slow {
                        let _ = writeln!(
                            out.stderr,
                            "{} in {} took {:?}",
                            q.pattern, q.source, q.elapsed
                        );
                        out.stderr.push_str(&q.explain.render_text());
                    }
                }
            }
            if let (Some(path), Some(tracing)) = (&trace, &tracing) {
                std::fs::write(path, tracing.render_chrome_json())
                    .map_err(|e| CliError::run(format!("cannot write {path:?}: {e}")))?;
                let events = tracing.events().len();
                let _ = writeln!(out.stderr, "trace written to {path}: {events} events");
            }
            if let Some(path) = &metrics {
                std::fs::write(path, db.profile_report().render_prometheus())
                    .map_err(|e| CliError::run(format!("cannot write {path:?}: {e}")))?;
                let _ = writeln!(out.stderr, "metrics written to {path}");
            }
            if let Some(ms) = metrics_linger_ms {
                // Keep `db` (and with it the telemetry server) alive so
                // the final counters, health, and slow-query ring stay
                // scrapeable after the program's own work is done.
                eprintln!("metrics server lingering {ms} ms");
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        Command::Match {
            graph,
            pattern,
            baseline,
            first,
            threads,
        } => {
            let g = load_graph(&graph)?;
            let p = compile_pattern_text(&read(&pattern)?)
                .map_err(|e| CliError::run(format!("{pattern}: {e}")))?;
            let index = GraphIndex::build_with_profiles_par(&g, 1, threads);
            let mut opts = if baseline {
                MatchOptions::baseline()
            } else {
                MatchOptions::optimized()
            };
            opts.exhaustive = !first;
            opts.threads = threads;
            opts.planner = Some(std::sync::Arc::new(gql_match::Planner::new()));
            let rep = match_pattern(&p.pattern, &g, &index, &opts);
            let _ = writeln!(out.stdout, "matches: {}", rep.mappings.len());
            let fmt_space = |ln: f64| {
                if ln.is_finite() {
                    format!("10^{:.1}", ln / std::f64::consts::LN_10)
                } else {
                    "empty".to_string()
                }
            };
            let _ = writeln!(
                out.stdout,
                "search space: baseline {}, after pruning {}, after refinement {}",
                fmt_space(rep.spaces.baseline_ln),
                fmt_space(rep.spaces.local_ln),
                fmt_space(rep.spaces.refined_ln),
            );
            let _ = writeln!(out.stdout, "search steps: {}", rep.search_steps);
            let _ = writeln!(out.stdout, "time: {:?}", rep.timings.total());
            for (i, m) in rep.mappings.iter().enumerate().take(20) {
                let names: Vec<String> = m
                    .iter()
                    .map(|&v| g.node(v).name.clone().unwrap_or_else(|| v.to_string()))
                    .collect();
                let _ = writeln!(out.stdout, "  #{}: [{}]", i + 1, names.join(", "));
            }
            if rep.mappings.len() > 20 {
                let _ = writeln!(out.stdout, "  ... {} more", rep.mappings.len() - 20);
            }
        }
        Command::Sql { graph, pattern } => {
            let g = load_graph(&graph)?;
            let p = compile_pattern_text(&read(&pattern)?)
                .map_err(|e| CliError::run(format!("{pattern}: {e}")))?;
            let sql = pattern_to_sql(&p.pattern.graph);
            let _ = writeln!(out.stdout, "{sql}");
            let rel = graph_to_database(&g).map_err(|e| CliError::run(e.to_string()))?;
            let res = rel
                .query(&sql, &ExecLimits::default())
                .map_err(|e| CliError::run(e.to_string()))?;
            let _ = writeln!(
                out.stdout,
                "rows: {} (examined {})",
                res.rows.len(),
                res.rows_examined
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_commands() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&args(&["run", "p.gql", "--data", "DBLP=d.gql"])).unwrap(),
            Command::Run {
                program: "p.gql".into(),
                data: vec![("DBLP".into(), "d.gql".into())],
                threads: 1,
                profile: None,
                explain: None,
                trace: None,
                slow_ms: None,
                metrics: None,
                metrics_addr: None,
                metrics_linger_ms: None,
                data_dir: None,
                checkpoint: false,
                verify: false,
            }
        );
        assert!(matches!(
            parse_args(&args(&["run", "p.gql", "--data-dir", "/tmp/db", "--checkpoint"])).unwrap(),
            Command::Run {
                data_dir: Some(d),
                checkpoint: true,
                ..
            } if d == "/tmp/db"
        ));
        assert!(parse_args(&args(&["run", "p.gql", "--data-dir"])).is_err());
        assert!(
            parse_args(&args(&["run", "p.gql", "--checkpoint"])).is_err(),
            "--checkpoint without --data-dir must be rejected"
        );
        assert!(matches!(
            parse_args(&args(&[
                "run",
                "p.gql",
                "--data-dir",
                "/tmp/db",
                "--verify-checkpoint"
            ]))
            .unwrap(),
            Command::Run { verify: true, .. }
        ));
        assert!(
            parse_args(&args(&["run", "p.gql", "--verify-checkpoint"])).is_err(),
            "--verify-checkpoint without --data-dir must be rejected"
        );
        assert!(matches!(
            parse_args(&args(&["run", "p.gql", "--profile"])).unwrap(),
            Command::Run {
                profile: Some(ProfileFormat::Text),
                ..
            }
        ));
        assert!(matches!(
            parse_args(&args(&["run", "p.gql", "--profile=json"])).unwrap(),
            Command::Run {
                profile: Some(ProfileFormat::Json),
                ..
            }
        ));
        assert!(parse_args(&args(&["run", "p.gql", "--profile=xml"])).is_err());
        assert!(matches!(
            parse_args(&args(&["run", "p.gql", "--explain"])).unwrap(),
            Command::Run {
                explain: Some(ProfileFormat::Text),
                ..
            }
        ));
        assert!(matches!(
            parse_args(&args(&["run", "p.gql", "--explain=json"])).unwrap(),
            Command::Run {
                explain: Some(ProfileFormat::Json),
                ..
            }
        ));
        assert!(parse_args(&args(&["run", "p.gql", "--explain=xml"])).is_err());
        assert!(matches!(
            parse_args(&args(&["run", "p.gql", "--trace", "t.json", "--slow-ms", "5"])).unwrap(),
            Command::Run {
                trace: Some(t),
                slow_ms: Some(5),
                ..
            } if t == "t.json"
        ));
        assert!(matches!(
            parse_args(&args(&["run", "p.gql", "--metrics", "m.prom"])).unwrap(),
            Command::Run { metrics: Some(m), .. } if m == "m.prom"
        ));
        assert!(matches!(
            parse_args(&args(&["run", "p.gql", "--metrics-addr", "127.0.0.1:0"])).unwrap(),
            Command::Run {
                metrics_addr: Some(a),
                metrics_linger_ms: None,
                ..
            } if a == "127.0.0.1:0"
        ));
        assert!(matches!(
            parse_args(&args(&[
                "run",
                "p.gql",
                "--metrics-addr",
                "127.0.0.1:9184",
                "--metrics-linger-ms",
                "250"
            ]))
            .unwrap(),
            Command::Run {
                metrics_linger_ms: Some(250),
                ..
            }
        ));
        assert!(parse_args(&args(&["run", "p.gql", "--metrics-addr"])).is_err());
        assert!(
            parse_args(&args(&["run", "p.gql", "--metrics-linger-ms", "250"])).is_err(),
            "--metrics-linger-ms without --metrics-addr must be rejected"
        );
        assert!(parse_args(&args(&[
            "run",
            "p.gql",
            "--metrics-addr",
            "x",
            "--metrics-linger-ms",
            "soon"
        ]))
        .is_err());
        assert!(parse_args(&args(&["run", "p.gql", "--trace"])).is_err());
        assert!(parse_args(&args(&["run", "p.gql", "--metrics"])).is_err());
        assert!(parse_args(&args(&["run", "p.gql", "--slow-ms"])).is_err());
        assert!(parse_args(&args(&["run", "p.gql", "--slow-ms", "x"])).is_err());
        assert!(matches!(
            parse_args(&args(&[
                "match",
                "--graph",
                "g",
                "--pattern",
                "p",
                "--first"
            ]))
            .unwrap(),
            Command::Match {
                first: true,
                baseline: false,
                threads: 1,
                ..
            }
        ));
        assert!(matches!(
            parse_args(&args(&[
                "match",
                "--graph",
                "g",
                "--pattern",
                "p",
                "--threads",
                "4"
            ]))
            .unwrap(),
            Command::Match { threads: 4, .. }
        ));
        assert!(matches!(
            parse_args(&args(&["run", "p.gql", "--threads", "0"])).unwrap(),
            Command::Run { threads: 0, .. }
        ));
        assert!(parse_args(&args(&["run"])).is_err());
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["match", "--graph", "g"])).is_err());
        assert!(parse_args(&args(&["run", "a", "b"])).is_err());
        assert!(parse_args(&args(&["run", "a", "--data", "nopath"])).is_err());
        assert!(parse_args(&args(&["run", "a", "--threads", "x"])).is_err());
        assert!(parse_args(&args(&["run", "a", "--threads"])).is_err());
    }

    /// The retired implementation toggles are usage errors in every
    /// position — never silently accepted, never taken for the program
    /// path — and the help text no longer lists them.
    #[test]
    fn retired_flags_are_usage_errors() {
        let retired: [&[&str]; 5] = [
            &["--no-csr"],
            &["--no-prop-index"],
            &["--no-plan-cache"],
            &["--no-mmap"],
            &["--adaptive", "off"],
        ];
        for flag in retired {
            let with = |pre: &[&str], post: &[&str]| {
                let argv: Vec<&str> = pre.iter().chain(flag).chain(post).copied().collect();
                parse_args(&args(&argv))
            };
            for parsed in [
                with(&["run", "p.gql", "--data-dir", "/tmp/db"], &[]),
                with(&["run"], &["p.gql"]),
                with(&["run"], &[]),
                with(&["match", "--graph", "g", "--pattern", "p"], &[]),
            ] {
                let err = parsed.expect_err(flag[0]);
                assert_eq!(err.code, 2, "{}: {}", flag[0], err.message);
            }
            assert!(!USAGE.contains(flag[0]), "{} still in --help", flag[0]);
        }
    }

    #[test]
    fn end_to_end_match_via_tempfiles() {
        let dir = std::env::temp_dir().join(format!("gqlcli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.gql");
        let ppath = dir.join("p.gql");
        std::fs::write(
            &gpath,
            r#"graph G {
                node a1 <label="A">, b1 <label="B">, c <label="C">;
                edge e1 (a1, b1); edge e2 (b1, c); edge e3 (c, a1);
            };"#,
        )
        .unwrap();
        std::fs::write(
            &ppath,
            r#"graph P { node x <label="A">; node y <label="B">; edge e (x, y); }"#,
        )
        .unwrap();
        let out = execute(Command::Match {
            graph: gpath.to_string_lossy().into_owned(),
            pattern: ppath.to_string_lossy().into_owned(),
            baseline: false,
            first: false,
            threads: 2,
        })
        .unwrap()
        .stdout;
        assert!(out.contains("matches: 1"), "{out}");
        assert!(out.contains("a1"), "{out}");

        let sql_out = execute(Command::Sql {
            graph: gpath.to_string_lossy().into_owned(),
            pattern: ppath.to_string_lossy().into_owned(),
        })
        .unwrap()
        .stdout;
        assert!(sql_out.contains("SELECT V1.vid, V2.vid"), "{sql_out}");
        assert!(sql_out.contains("rows: 1"), "{sql_out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_run_program() {
        let dir = std::env::temp_dir().join(format!("gqlcli-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("dblp.gql");
        let prog = dir.join("prog.gql");
        std::fs::write(
            &data,
            r#"
            graph G1 { node v1 <author name="A">; node v2 <author name="B">; };
            graph G2 { node v1 <author name="A">; };
            "#,
        )
        .unwrap();
        std::fs::write(
            &prog,
            r#"for graph Q { node a <author>; } exhaustive in doc("DBLP")
               return graph { node n <name=Q.a.name>; };"#,
        )
        .unwrap();
        let run = |profile| {
            execute(Command::Run {
                program: prog.to_string_lossy().into_owned(),
                data: vec![("DBLP".into(), data.to_string_lossy().into_owned())],
                threads: 2,
                profile,
                explain: None,
                trace: None,
                slow_ms: None,
                metrics: None,
                metrics_addr: None,
                metrics_linger_ms: None,
                data_dir: None,
                checkpoint: false,
                verify: false,
            })
            .unwrap()
        };
        let out = run(None);
        assert!(out.stderr.contains("loaded DBLP: 2 graph(s)"), "{out:?}");
        assert!(out.stdout.contains("result 1 (3 graph(s))"), "{out:?}");

        // --profile appends the per-phase breakdown to stderr; =json is
        // parseable by shape (counters + phases objects).
        let text = run(Some(ProfileFormat::Text)).stderr;
        assert!(text.contains("-- profile --"), "{text}");
        assert!(text.contains("match.search"), "{text}");
        assert!(text.contains("retrieve.kept"), "{text}");
        let json = run(Some(ProfileFormat::Json)).stderr;
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"engine.flwr\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The full observability surface at once: stdout carries results
    /// and nothing else (byte-identical to an uninstrumented run), the
    /// EXPLAIN trees arrive on stderr as well-formed JSON, and the
    /// trace + metrics files are written and well-formed.
    #[test]
    fn run_stdout_stays_pure_under_instrumentation() {
        let dir = std::env::temp_dir().join(format!("gqlcli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("dblp.gql");
        let prog = dir.join("prog.gql");
        std::fs::write(
            &data,
            r#"
            graph G1 { node v1 <author name="A">; node v2 <author name="B">; };
            graph G2 { node v1 <author name="A">; };
            "#,
        )
        .unwrap();
        std::fs::write(
            &prog,
            r#"for graph Q { node a <author>; } exhaustive in doc("DBLP")
               return graph { node n <name=Q.a.name>; };"#,
        )
        .unwrap();
        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.prom");
        let run = |instrumented: bool| {
            execute(Command::Run {
                program: prog.to_string_lossy().into_owned(),
                data: vec![("DBLP".into(), data.to_string_lossy().into_owned())],
                threads: 2,
                profile: instrumented.then_some(ProfileFormat::Text),
                explain: instrumented.then_some(ProfileFormat::Json),
                trace: instrumented.then(|| trace_path.to_string_lossy().into_owned()),
                slow_ms: instrumented.then_some(0),
                metrics: instrumented.then(|| metrics_path.to_string_lossy().into_owned()),
                metrics_addr: instrumented.then(|| "127.0.0.1:0".to_string()),
                metrics_linger_ms: None,
                data_dir: None,
                checkpoint: false,
                verify: false,
            })
            .unwrap()
        };
        let plain = run(false);
        let full = run(true);
        assert_eq!(
            full.stdout, plain.stdout,
            "instrumentation must not leak into stdout or change results"
        );
        assert!(full.stdout.contains("-- result 1"), "{}", full.stdout);
        for diagnostic in ["loaded DBLP", "-- profile --", "-- slow queries", "ok"] {
            assert!(!full.stdout.contains(diagnostic), "{}", full.stdout);
            assert!(full.stderr.contains(diagnostic), "{}", full.stderr);
        }

        // The --explain=json array is embedded in stderr; it is the
        // only bracketed region (slow-query trees render as text after
        // it, but the array's brackets bound all of them).
        let start = full.stderr.find('[').unwrap();
        let end = full.stderr[start..]
            .find("\n]")
            .map(|i| start + i + 2)
            .unwrap();
        gql_core::validate_json(&full.stderr[start..end]).unwrap();

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        gql_core::validate_json(&trace).unwrap();
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("engine.flwr"), "{trace}");

        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        gql_core::validate_prometheus(&metrics).unwrap();
        assert!(
            metrics.contains("# TYPE gql_engine_index_cache_misses_total counter"),
            "{metrics}"
        );
        assert!(
            metrics.contains("gql_engine_index_cache_misses_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("gql_engine_flwr_seconds_count 1"),
            "{metrics}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The slow-query log keeps the most recent statements; its header
    /// still counts every one and says how many are shown.
    #[test]
    fn slow_log_header_counts_evicted_statements() {
        let dir = std::env::temp_dir().join(format!("gqlcli-slow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.gql");
        let prog = dir.join("prog.gql");
        std::fs::write(&data, r#"graph G1 { node v1 <author name="A">; };"#).unwrap();
        let stmt = r#"for graph Q { node a <author>; } in doc("D") return graph { node n; };"#;
        let program = |n: usize| std::fs::write(&prog, vec![stmt; n].join("\n")).unwrap();
        let run = || {
            let mut cmd = run_cmd(
                &prog.to_string_lossy(),
                vec![("D".into(), data.to_string_lossy().into_owned())],
            );
            if let Command::Run { slow_ms, .. } = &mut cmd {
                *slow_ms = Some(0);
            }
            execute(cmd).unwrap().stderr
        };
        program(70);
        let stderr = run();
        assert!(
            stderr.contains("-- slow queries (70, last 64 shown) --"),
            "{stderr}"
        );
        assert_eq!(stderr.matches(" in D took ").count(), 64);
        program(3);
        assert!(run().contains("-- slow queries (3) --"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_errors() {
        let err = execute(Command::Run {
            program: "/nonexistent/prog.gql".into(),
            data: vec![],
            threads: 1,
            profile: None,
            explain: None,
            trace: None,
            slow_ms: None,
            metrics: None,
            metrics_addr: None,
            metrics_linger_ms: None,
            data_dir: None,
            checkpoint: false,
            verify: false,
        })
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot read"));
    }

    fn run_cmd(program: &str, data: Vec<(String, String)>) -> Command {
        Command::Run {
            program: program.into(),
            data,
            threads: 1,
            profile: None,
            explain: None,
            trace: None,
            slow_ms: None,
            metrics: None,
            metrics_addr: None,
            metrics_linger_ms: None,
            data_dir: None,
            checkpoint: false,
            verify: false,
        }
    }

    /// `--data-dir`/`--checkpoint` round trip at the CLI layer: run a
    /// program that defines state, checkpoint, reopen, and observe the
    /// persisted collection without reloading any data file.
    #[test]
    fn data_dir_checkpoint_reopen_round_trip() {
        let dir = std::env::temp_dir().join(format!("gqlcli-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("dblp.gql");
        let prog = dir.join("prog.gql");
        let store = dir.join("store");
        std::fs::write(
            &data,
            r#"
            graph G1 { node v1 <author name="A">; node v2 <author name="B">; };
            graph G2 { node v1 <author name="A">; };
            "#,
        )
        .unwrap();
        std::fs::write(
            &prog,
            r#"for graph Q { node a <author>; } exhaustive in doc("DBLP")
               return graph { node n <name=Q.a.name>; };"#,
        )
        .unwrap();
        let persist = |data: Vec<(String, String)>, checkpoint| {
            let mut cmd = run_cmd(&prog.to_string_lossy(), data);
            if let Command::Run {
                data_dir: ref mut d,
                checkpoint: ref mut c,
                ..
            } = cmd
            {
                *d = Some(store.to_string_lossy().into_owned());
                *c = checkpoint;
            }
            execute(cmd)
        };
        // First run: load DBLP from the data file and checkpoint it.
        let first = persist(
            vec![("DBLP".into(), data.to_string_lossy().into_owned())],
            true,
        )
        .unwrap();
        assert!(first.stderr.contains("checkpoint written"), "{first:?}");
        assert!(store.join("MANIFEST").exists());
        // Second run: no --data files at all; DBLP comes from the
        // checkpoint segment and results are identical.
        let second = persist(vec![], false).unwrap();
        assert!(
            second.stderr.contains("opened") && second.stderr.contains("1 collection(s)"),
            "{second:?}"
        );
        assert_eq!(second.stdout, first.stdout, "persisted run diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite audit: adversarial inputs — malformed programs, bad
    /// data files, unreadable paths — must surface as `CliError` (stderr
    /// diagnostic + nonzero exit in `main`), never a panic.
    #[test]
    fn adversarial_inputs_error_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!("gqlcli-adv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_string_lossy().into_owned()
        };
        let good_data = write("good.gql", r#"graph G1 { node v1 <author name="A">; };"#);
        // Malformed program texts: lexer garbage, unterminated string,
        // unknown collection, truncated FLWR, deep but cut-off nesting.
        for (tag, bad) in [
            ("garbage", "@@@@ ???"),
            (
                "unterminated",
                r#"for graph Q { node a <label="x; } in doc("D") return a;"#,
            ),
            (
                "unknown-doc",
                r#"for graph Q { node a; } in doc("NOPE") return graph {};"#,
            ),
            ("truncated", "for graph Q { node a; } in"),
            ("empty-pattern", "for graph Q in doc(\"D\") return"),
        ] {
            let prog = write(&format!("{tag}.gql"), bad);
            let err =
                execute(run_cmd(&prog, vec![("D".into(), good_data.clone())])).expect_err(tag);
            assert_eq!(err.code, 1, "{tag}: wrong exit code");
            assert!(!err.message.is_empty(), "{tag}: empty diagnostic");
        }
        // Malformed data files behind a well-formed program.
        let prog = write(
            "ok.gql",
            r#"for graph Q { node a <author>; } exhaustive in doc("D")
               return graph { node n <name=Q.a.name>; };"#,
        );
        // (Duplicate node declarations are not here: the parser accepts
        // them with merge semantics; the contract is only "no panic".)
        for (tag, bad) in [
            ("data-garbage", "not a graph at all"),
            ("data-truncated", "graph G1 { node v1 <author"),
            (
                "data-bad-edge",
                "graph G1 { node v1; edge e1 (v1, ghost); };",
            ),
        ] {
            let data = write(&format!("{tag}.gql"), bad);
            let err = execute(run_cmd(&prog, vec![("D".into(), data)])).expect_err(tag);
            assert_eq!(err.code, 1, "{tag}: wrong exit code");
            assert!(!err.message.is_empty(), "{tag}: empty diagnostic");
        }
        // match/sql against malformed pattern and graph files.
        let bad_pattern = write("badpat.gql", "graph P { node x <label=; }");
        let good_graph = write("goodg.gql", "graph G { node a <label=\"A\">; };");
        for cmd in [
            Command::Match {
                graph: good_graph.clone(),
                pattern: bad_pattern.clone(),
                baseline: false,
                first: false,
                threads: 1,
            },
            Command::Sql {
                graph: good_graph.clone(),
                pattern: bad_pattern.clone(),
            },
            Command::Match {
                graph: bad_pattern.clone(),
                pattern: good_graph.clone(),
                baseline: false,
                first: false,
                threads: 1,
            },
        ] {
            let err = execute(cmd).unwrap_err();
            assert_eq!(err.code, 1);
            assert!(!err.message.is_empty());
        }
        // A data directory whose manifest is corrupt is a loud error.
        let store = dir.join("store");
        std::fs::create_dir_all(&store).unwrap();
        std::fs::write(store.join("MANIFEST"), b"GMANxxxxxxxxxxxx").unwrap();
        let mut cmd = run_cmd(&prog, vec![]);
        if let Command::Run {
            data_dir: ref mut d,
            ..
        } = cmd
        {
            *d = Some(store.to_string_lossy().into_owned());
        }
        let err = execute(cmd).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot open"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// 200 000 nested parentheses (or chained operators) in a program or
    /// a data file are a positioned parse error, not a stack overflow.
    #[test]
    fn unbounded_nesting_is_a_parse_error_not_a_crash() {
        let dir = std::env::temp_dir().join(format!("gqlcli-deep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let n = 200_000;
        let parens = format!("{}1{}", "(".repeat(n), ")".repeat(n));
        let chain = format!("1{}", "+1".repeat(n));
        let prog = dir.join("ok.gql");
        std::fs::write(
            &prog,
            r#"for graph Q { node a; } in doc("D") return graph {};"#,
        )
        .unwrap();
        for (tag, expr) in [("parens", parens), ("chain", chain)] {
            let path = dir.join(format!("{tag}.gql"));
            std::fs::write(&path, format!("graph P {{ node v1; }} where {expr}=1;")).unwrap();
            let path = path.to_string_lossy().into_owned();
            let err = execute(run_cmd(&path, vec![])).expect_err(tag);
            assert_eq!(err.code, 1, "{tag}");
            assert!(
                err.message.contains("syntax error at 1:") && err.message.contains("nesting"),
                "{tag}: {}",
                err.message
            );
            // The same text as a data file goes through the same parser.
            let err =
                execute(run_cmd(&prog.to_string_lossy(), vec![("D".into(), path)])).expect_err(tag);
            assert_eq!(err.code, 1, "{tag} as data");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

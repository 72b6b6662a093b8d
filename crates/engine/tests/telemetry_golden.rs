//! Golden telemetry shape: the bundled `coauthors` example program run
//! with profiling, tracing, EXPLAIN and the slow-query log all on must
//! keep producing the same operator trees, trace event names, and
//! profile counters.
//!
//! Wall-clock values (`ms` / `*_ms` props) are masked; labels, prop
//! keys, prop order and every other value are compared verbatim against
//! the fixtures in `tests/golden/`. The EXPLAIN trees must match at 1, 2
//! and 8 worker threads; the trace-name multiset and the counter set
//! are pinned at 1 thread (search chunking depends on the thread
//! count), with `op.compose` checked as one event per statement. After
//! an intended shape change, regenerate the fixtures with
//! `GQL_BLESS=1 cargo test -p gql-engine --test telemetry_golden` and
//! review the diff.

use gql_core::{ArgValue, ExplainNode};
use gql_engine::{collection_from_text, Database};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

const PROGRAM: &str = include_str!("../../../examples/gql/coauthors.gql");
const DATA: &str = include_str!("../../../examples/gql/dblp_sample.gql");

/// Replaces every wall-clock prop value with `"*"`.
fn mask(node: &ExplainNode) -> ExplainNode {
    let mut out = node.clone();
    for (k, v) in &mut out.props {
        if k == "ms" || k.ends_with("_ms") {
            *v = ArgValue::Str("*".into());
        }
    }
    out.children = node.children.iter().map(mask).collect();
    out
}

struct Observed {
    explain_text: String,
    explain_json: String,
    trace_names: String,
    counters: String,
}

/// Runs the program twice (cold index + plan cache, then warm) with all
/// telemetry on and renders what the fixtures pin.
fn observe(threads: usize) -> Observed {
    let mut db = Database::new().with_threads(threads);
    db.enable_profiling();
    let tracing = db.enable_tracing();
    db.enable_explain();
    db.set_slow_query_threshold(Duration::ZERO);
    db.add_collection("DBLP", collection_from_text(DATA).expect("sample data"));
    for _ in 0..2 {
        db.execute(PROGRAM).expect("program runs");
    }

    let trees: Vec<ExplainNode> = db.explain_trees().iter().map(mask).collect();
    let slow: Vec<ExplainNode> = db.slow_queries().iter().map(|q| mask(&q.explain)).collect();
    assert_eq!(slow, trees, "slow-log trees are the statements' trees");
    let mut explain_text = String::new();
    let mut explain_json = String::new();
    for t in &trees {
        explain_text.push_str(&t.render_text());
        explain_json.push_str(&t.render_json());
    }

    let mut names: BTreeMap<String, usize> = BTreeMap::new();
    for e in tracing.events() {
        *names.entry(e.name.clone()).or_default() += 1;
    }
    // Every statement composes its templates under one `op.compose`
    // span; the fixture pins all other events.
    assert_eq!(
        names.remove("op.compose"),
        names.get("engine.flwr").copied()
    );
    let mut trace_names = String::new();
    for (name, n) in &names {
        let _ = writeln!(trace_names, "{name} {n}");
    }

    let report = db.profile_report();
    let mut counters = String::new();
    for (name, v) in &report.counters {
        let _ = writeln!(counters, "counter {name} {v}");
    }
    for (name, p) in &report.phases {
        let _ = writeln!(counters, "phase {name} {}", p.count);
    }
    Observed {
        explain_text,
        explain_json,
        trace_names,
        counters,
    }
}

fn golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("GQL_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with GQL_BLESS=1)", path.display()));
    assert_eq!(actual, want, "{file} diverged from the golden fixture");
}

#[test]
fn coauthors_telemetry_matches_the_golden_shape() {
    for threads in [1usize, 2, 8] {
        let seen = observe(threads);
        golden("coauthors.explain.txt", &seen.explain_text);
        golden("coauthors.explain.json", &seen.explain_json);
        if threads == 1 {
            golden("coauthors.trace_names.txt", &seen.trace_names);
            golden("coauthors.counters.txt", &seen.counters);
        }
    }
}
